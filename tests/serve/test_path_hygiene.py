"""Reply-path hygiene: who holds a path, who counts into an audience.

The fan-out resolves group addresses from an index of *members'* reply
paths, so a path must not outlive the membership that justified it: an
evicted member's path goes with the eviction, a refused joiner's with
the refusal, and a heartbeat from a non-member buys a reply path (it is
owed a ``RESYNC_NOT_MEMBER``) but no place in any audience.
"""

import asyncio

from repro.cluster.coordinator import (ROOT_LAYER_BASE, ClusterConfig,
                                       ClusterCoordinator)
from repro.core.messages import (INDIVIDUAL_KEY, MSG_HEARTBEAT,
                                 MSG_JOIN_ACK, MSG_JOIN_DENIED,
                                 MSG_JOIN_REQUEST, MSG_LEAVE_REQUEST,
                                 MSG_REKEY, Message)
from repro.core.server import GroupKeyServer, ServerConfig
from repro.recovery.manager import RecoveryPolicy
from repro.serve import ClusterServingCore, ImmediateServingCore, ServeConfig


def _request(msg_type, user):
    return Message(msg_type=msg_type, body=user.encode("utf-8")).encode()


def _types(payloads):
    return [Message.decode(payload).msg_type for payload in payloads]


def _group_rekeys(payloads):
    """The multicast rekeys among ``payloads`` (not a joiner's unicast)."""
    return [message for message in map(Message.decode, payloads)
            if message.msg_type == MSG_REKEY
            and message.items[0].enc_node_id != INDIVIDUAL_KEY]


def _run(scenario):
    return asyncio.run(asyncio.wait_for(scenario(), timeout=60))


def _core(seed, **server_options):
    server = GroupKeyServer(ServerConfig(
        signing="none", seed=seed, backend="flat", **server_options))
    return ImmediateServingCore(
        server, ServeConfig(tick_interval=0),
        recovery_policy=RecoveryPolicy(dead_after=1))


def test_join_then_eviction_returns_to_baseline():
    async def scenario():
        core = _core(b"hygiene-evict")
        wire = []
        try:
            await core.submit(_request(MSG_JOIN_REQUEST, "keeper"),
                              wire.append, path_id="sock-k")
            baseline = (len(core.fanout.audience), core.fanout.audience.paths())
            await core.submit(_request(MSG_JOIN_REQUEST, "silent"),
                              wire.append, path_id="sock-s")
            assert len(core.fanout.audience) == 2
            assert core.fanout.audience.paths() == {"sock-k": 1, "sock-s": 1}
            for _tick in range(3):
                assert core.submit_nowait(
                    _request(MSG_HEARTBEAT, "keeper"), wire.append, "sock-k")
                await core._tick_once()
            assert core.recovery.evicted == ["silent"]
            assert not core.backend.is_member("silent")
            assert (len(core.fanout.audience),
                    core.fanout.audience.paths()) == baseline
        finally:
            await core.aclose()
    _run(scenario)


def test_denied_join_leaves_no_path_behind():
    async def scenario():
        core = _core(b"hygiene-denied", access_list={"member"})
        wire = []
        try:
            await core.submit(_request(MSG_JOIN_REQUEST, "member"),
                              wire.append, path_id="sock-m")
            baseline = (len(core.fanout.audience), core.fanout.audience.paths())
            await core.submit(_request(MSG_JOIN_REQUEST, "intruder"),
                              wire.append, path_id="sock-i")
            assert _types(wire)[-1] == MSG_JOIN_DENIED
            assert (len(core.fanout.audience),
                    core.fanout.audience.paths()) == baseline
            # A member's duplicate join is refused too, but a member
            # keeps its (newest) path.
            await core.submit(_request(MSG_JOIN_REQUEST, "member"),
                              wire.append, path_id="sock-m2")
            assert _types(wire)[-1] == MSG_JOIN_DENIED
            assert core.fanout.audience.paths() == {"sock-m2": 1}
        finally:
            await core.aclose()
    _run(scenario)


def test_non_member_heartbeat_holds_a_path_but_no_audience():
    async def scenario():
        core = _core(b"hygiene-heartbeat")
        member, stranger = [], []
        try:
            await core.submit(_request(MSG_JOIN_REQUEST, "member"),
                              member.append, path_id="sock-m")
            assert core.submit_nowait(
                _request(MSG_HEARTBEAT, "stranger"), stranger.append,
                "sock-x")
            assert core.fanout.audience.known("stranger")
            assert core.fanout.audience.paths() == {"sock-m": 1}
            await core.submit(_request(MSG_JOIN_REQUEST, "second"),
                              member.append, path_id="sock-m")
            assert _group_rekeys(member) and not _group_rekeys(stranger)
        finally:
            await core.aclose()
    _run(scenario)


def test_joiner_exclusion_through_the_core():
    async def scenario():
        core = _core(b"hygiene-joiner")
        shared, alone = [], []
        try:
            for user in ("a", "b"):
                await core.submit(_request(MSG_JOIN_REQUEST, user),
                                  shared.append, path_id="shared")
            del shared[:]
            # Alone on its socket: the ack and its own path keys, but
            # no copy of the group rekey its join caused.
            await core.submit(_request(MSG_JOIN_REQUEST, "solo"),
                              alone.append, path_id="solo")
            assert MSG_JOIN_ACK in _types(alone)
            assert not _group_rekeys(alone)
            assert len(_group_rekeys(shared)) == 1
            # Sharing a socket with members: their copy still goes out.
            del shared[:]
            await core.submit(_request(MSG_JOIN_REQUEST, "c"),
                              shared.append, path_id="shared")
            assert len(_group_rekeys(shared)) == 1
            # And from then on "solo" is an ordinary member.
            assert len(_group_rekeys(alone)) == 1
            # A leaver alone on its socket hears nothing of its leave.
            del alone[:]
            await core.submit(_request(MSG_LEAVE_REQUEST, "solo"),
                              alone.append, path_id=None)
            assert not _group_rekeys(alone)
            assert not core.fanout.audience.known("solo")
        finally:
            await core.aclose()
    _run(scenario)


def test_shard_rekey_stays_off_other_shards_paths():
    async def scenario():
        coordinator = ClusterCoordinator(ClusterConfig(
            n_shards=3, signing="none", seed=b"hygiene-shards",
            backend="flat"))
        coordinator.bootstrap([])
        core = ClusterServingCore(coordinator, ServeConfig(tick_interval=0))
        by_shard = {}
        for index in range(64):
            user = f"user-{index}"
            by_shard.setdefault(
                coordinator.shard_of(user).shard_id, []).append(user)
        assert len(by_shard) == 3
        wire = {}
        try:
            # Two members per shard, each on a socket of its own.
            for users in by_shard.values():
                for user in users[:2]:
                    await core.submit(
                        _request(MSG_JOIN_REQUEST, user),
                        wire.setdefault(user, []).append,
                        path_id=f"sock-{user}")
            for payloads in wire.values():
                del payloads[:]
            joiner = by_shard[0][2]
            await core.submit(
                _request(MSG_JOIN_REQUEST, joiner),
                wire.setdefault(joiner, []).append,
                path_id=f"sock-{joiner}")
            for shard_id, users in by_shard.items():
                for user in users[:2]:
                    rekeys = _group_rekeys(wire[user])
                    layers = sorted(message.root_node_id >= ROOT_LAYER_BASE
                                    for message in rekeys)
                    # Everyone hears the root layer; only shard 0's
                    # members hear shard 0's rekey.
                    assert layers == ([False, True] if shard_id == 0
                                      else [True]), (shard_id, user)
            # The joiner: no shard rekey (it is excluded, alone on its
            # socket), but the root-layer rekey it needs.
            assert [message.root_node_id >= ROOT_LAYER_BASE
                    for message in _group_rekeys(wire[joiner])] == [True]
            assert core.fanout.audience.paths("shard-0") == {
                f"sock-{user}": 1 for user in by_shard[0][:3]}
        finally:
            await core.aclose()
    _run(scenario)
