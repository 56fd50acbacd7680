"""Supervisor: probe, kill, restart, promote, refuse, budget.

A restarted shard must be byte-identical to one that never crashed —
``verify_shard`` replays the journal and compares full snapshots — and
failure handling must be loud where it matters: a CRC-corrupt journal
marks the shard ``failed`` instead of serving unvouched keys.
"""

import asyncio

import pytest

from repro.cluster import FailoverError
from repro.core import persistence
from repro.core.messages import MSG_JOIN_REQUEST, MSG_LEAVE_REQUEST, Message
from repro.core.server import ServerConfig
from repro.serve import ServeConfig
from repro.serve.supervise import (SupervisePolicy, Supervisor,
                                   SupervisorError, corrupt_journal_tail,
                                   tear_journal_tail)
from repro.serve.wire import attach_corr_trailer

KEY = b"\x07" * 8


def _run(coro):
    return asyncio.run(coro)


def _supervisor(tmp_path, n_shards=1, **policy_overrides):
    policy = dict(probe_interval=0, mode="journal")
    policy.update(policy_overrides)
    return Supervisor(
        n_shards,
        server_config=ServerConfig(signing="none", seed=b"sup-test"),
        serve_config=ServeConfig(tick_interval=0, open_enroll=False,
                                 tcp_port=None),
        journal_dir=(str(tmp_path)
                     if policy["mode"] == "journal" else None),
        policy=SupervisePolicy(**policy))


async def _submit(shard, msg_type, user, token):
    request = attach_corr_trailer(
        Message(msg_type=msg_type, body=user.encode()).encode(), token)
    box = []
    await shard.core.submit(request, box.append, path_id=None)
    return box


async def _join(shard, user, token):
    shard.server.register_individual_key(user, KEY)
    return await _submit(shard, MSG_JOIN_REQUEST, user, token)


def test_policy_validation():
    for bad in (dict(probe_interval=-1), dict(probe_deadline=0),
                dict(probe_misses=0), dict(max_restarts=-1),
                dict(restart_backoff=-0.1), dict(mode="prayer")):
        with pytest.raises(SupervisorError):
            SupervisePolicy(**bad).validate()
    with pytest.raises(SupervisorError):
        Supervisor(0, journal_dir="/tmp")
    with pytest.raises(SupervisorError):
        Supervisor(1, policy=SupervisePolicy(mode="journal"),
                   journal_dir=None)


def test_kill_restart_byte_identical(tmp_path):
    async def scenario():
        supervisor = await _supervisor(tmp_path).start()
        shard = supervisor.shard(0)
        try:
            for index in range(5):
                await _join(shard, f"u{index}", index)
            before = persistence.snapshot(shard.server)
            address = shard.address

            await supervisor.kill(0)
            assert shard.state == "down"
            assert not await supervisor.probe(0)

            await supervisor.restart(0)
            assert shard.state == "up"
            assert shard.generation == 1
            assert shard.restarts == 1
            assert await supervisor.probe(0)
            # Same address (port pinned), same bytes, and the journal
            # still replays to the live state.
            assert shard.address == address
            assert persistence.snapshot(shard.server) == before
            assert supervisor.verify_shard(0)
            restarts = supervisor._m_restarts.labels(shard="shard-0",
                                                    mode="journal")
            assert restarts.value == 1
            # And the revived shard actually serves.
            await _join(shard, "after-restart", 99)
            assert shard.server.is_member("after-restart")
            assert supervisor.verify_shard(0)
        finally:
            await supervisor.aclose()
    _run(scenario())


def test_torn_tail_restart_then_retry(tmp_path):
    async def scenario():
        supervisor = await _supervisor(tmp_path).start()
        shard = supervisor.shard(0)
        try:
            for index in range(4):
                await _join(shard, f"u{index}", index)
            # Crash losing the last append: u3's join record.
            await supervisor.kill(0, tear_tail=5)
            await supervisor.restart(0)
            assert shard.state == "up"
            assert not shard.server.is_member("u3")  # the op was torn away
            # The client's retry re-executes it; the repaired journal
            # accepts the append and replays to the live state.
            await _join(shard, "u3", 3)
            assert shard.server.is_member("u3")
            assert supervisor.verify_shard(0)
        finally:
            await supervisor.aclose()
    _run(scenario())


#: Copies of one join in the retry storm, all under one correlation token.
STORM_DUPLICATES = 32


def test_retry_storm_on_revived_shard_applies_once(tmp_path):
    async def scenario():
        supervisor = await _supervisor(tmp_path).start()
        shard = supervisor.shard(0)
        try:
            for index in range(4):
                await _join(shard, f"u{index}", index)
            await supervisor.kill(0, tear_tail=7)
            await supervisor.restart(0)
            first = await _join(shard, "storm-user", 0x57CA11)
            assert first and shard.server.is_member("storm-user")
            seq_before = shard.server._seq
            replies = [
                await _submit(shard, MSG_JOIN_REQUEST, "storm-user",
                              0x57CA11)
                for _ in range(STORM_DUPLICATES)]
            # The duplicates draw no sequence number and apply nothing:
            # each one replays the original reply byte for byte.
            assert shard.server._seq == seq_before
            assert [reply[:1] for reply in replies] == \
                [first[:1]] * STORM_DUPLICATES
            replays = shard.core._m_idempotent.labels(result="replay")
            assert replays.value == STORM_DUPLICATES
            # The journal still replays to the live server's bytes.
            assert supervisor.verify_shard(0)
        finally:
            await supervisor.aclose()
    _run(scenario())


def test_corrupt_journal_refused_loudly(tmp_path):
    async def scenario():
        supervisor = await _supervisor(tmp_path).start()
        shard = supervisor.shard(0)
        try:
            for index in range(3):
                await _join(shard, f"u{index}", index)
            await supervisor.kill(0, corrupt_tail=True)
            with pytest.raises(Exception):
                await supervisor.restart(0)
            # Corruption is not a crash: no retry can help, the shard
            # is out of the rotation until an operator intervenes.
            assert shard.state == "failed"
            assert shard.last_error is not None
            with pytest.raises(SupervisorError):
                await supervisor.restart(0)
            assert supervisor.describe()[0]["state"] == "failed"
        finally:
            await supervisor.aclose()
    _run(scenario())


def test_restart_budget_exhaustion(tmp_path):
    async def scenario():
        supervisor = await _supervisor(tmp_path, max_restarts=1).start()
        shard = supervisor.shard(0)
        try:
            await _join(shard, "u0", 0)
            await supervisor.kill(0)
            await supervisor.restart(0)
            await supervisor.kill(0)
            with pytest.raises(SupervisorError):
                await supervisor.restart(0)
            assert shard.state == "failed"
        finally:
            await supervisor.aclose()
    _run(scenario())


def test_standby_promotion_restart(tmp_path):
    async def scenario():
        supervisor = await _supervisor(tmp_path, mode="standby").start()
        shard = supervisor.shard(0)
        try:
            # The standby is the server's journal, so the core takes the
            # serialized whole-op path for it.
            assert shard.server._journal is shard.standby
            for index in range(5):
                await _join(shard, f"u{index}", index)
            assert supervisor.verify_shard(0)
            before = persistence.snapshot(shard.server)
            await supervisor.kill(0)
            await supervisor.restart(0)
            assert shard.state == "up"
            assert persistence.snapshot(shard.server) == before
            assert supervisor.verify_shard(0)
            promotions = supervisor._m_promotions.labels(shard="shard-0")
            assert promotions.value == 1
            # The promoted server was re-armed: survive a second cycle.
            await _join(shard, "u5", 5)
            await supervisor.kill(0)
            await supervisor.restart(0)
            assert shard.server.is_member("u5")
            assert promotions.value == 2
        finally:
            await supervisor.aclose()
    _run(scenario())


async def _resync(shard):
    shard.server.resync("u0")


async def _denied_join(shard):
    # No registered key: the core answers JOIN_DENIED with a fresh seq.
    await _submit(shard, MSG_JOIN_REQUEST, "no-key", 50)


async def _refresh(shard):
    shard.server.refresh()


async def _register(shard):
    shard.server.register_individual_key("pending", KEY)


async def _subcast(shard):
    shard.server.subcast(["u0", "u2"], b"to two")


async def _nothing(shard):
    pass


#: State changes besides join/leave; each must survive a restart.
EXTRA_OPS = {"join+leave": _nothing, "resync": _resync,
             "denied-join": _denied_join, "refresh": _refresh,
             "register": _register, "subcast": _subcast}


@pytest.mark.parametrize("mode", ["journal", "standby"])
@pytest.mark.parametrize("extra", sorted(EXTRA_OPS))
def test_restart_keeps_every_state_change(tmp_path, mode, extra):
    async def scenario():
        supervisor = await _supervisor(tmp_path, mode=mode).start()
        shard = supervisor.shard(0)
        try:
            for index in range(3):
                await _join(shard, f"u{index}", index)
            await _submit(shard, MSG_LEAVE_REQUEST, "u1", 10)
            await EXTRA_OPS[extra](shard)
            assert supervisor.verify_shard(0)
            before = persistence.snapshot(shard.server)
            await supervisor.kill(0)
            await supervisor.restart(0)
            # Tree, keys, sequence counter and registered keys.
            assert persistence.snapshot(shard.server) == before
        finally:
            await supervisor.aclose()
    _run(scenario())


def test_poisoned_standby_marks_shard_failed(tmp_path):
    async def scenario():
        supervisor = await _supervisor(tmp_path, mode="standby").start()
        shard = supervisor.shard(0)
        try:
            await _join(shard, "u0", 0)
            shard.standby.write(b"\x05\x00\x00\x00not a frame")
            # The primary keeps serving; only the standby is unusable.
            await _join(shard, "u1", 1)
            assert shard.server.is_member("u1")
            await supervisor.kill(0)
            with pytest.raises(FailoverError):
                await supervisor.restart(0)
            assert shard.state == "failed"
        finally:
            await supervisor.aclose()
    _run(scenario())


def test_watchdog_restarts_silent_death(tmp_path):
    async def scenario():
        supervisor = await _supervisor(
            tmp_path, probe_interval=0.05, probe_deadline=0.5,
            probe_misses=1).start()
        shard = supervisor.shard(0)
        try:
            await _join(shard, "u0", 0)
            # Silent death: the shard's socket closes but nobody tells
            # the supervisor.  The probe must notice and revive.
            shard.service._udp_transports[0].close()
            for _ in range(100):
                if shard.generation >= 1 and shard.state == "up":
                    break
                await asyncio.sleep(0.05)
            assert shard.generation >= 1
            assert shard.state == "up"
            assert shard.server.is_member("u0")
            probe_failures = supervisor._m_probe_failures.labels(
                shard="shard-0")
            assert probe_failures.value >= 1
            await _join(shard, "u1", 1)
            assert supervisor.verify_shard(0)
        finally:
            await supervisor.aclose()
    _run(scenario())


def test_multi_shard_isolation(tmp_path):
    async def scenario():
        supervisor = await _supervisor(tmp_path, n_shards=3).start()
        try:
            for shard_id in range(3):
                await _join(supervisor.shard(shard_id),
                            f"s{shard_id}-u0", shard_id)
            await supervisor.kill(1)
            # Shards 0 and 2 keep serving while 1 is down.
            assert await supervisor.probe(0)
            assert not await supervisor.probe(1)
            assert await supervisor.probe(2)
            await _join(supervisor.shard(0), "s0-u1", 10)
            await supervisor.restart(1)
            states = [doc["state"] for doc in supervisor.describe()]
            assert states == ["up", "up", "up"]
            # Per-shard seeds: the shards are distinct groups.
            assert supervisor.shard(0).server.config.seed \
                != supervisor.shard(1).server.config.seed
        finally:
            await supervisor.aclose()
    _run(scenario())
