"""Warm-standby failover: the standby follows the op journal.

The standby receives the primary's journal frames and applies each to
a follower server as it is committed, so promotion hands over a server
byte-identical to the primary — tree, key material, sequence counter
and registered keys — with nothing left to replay.
"""

import io
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import (ClusterConfig, ClusterCoordinator, ClusterError,
                           FailoverError, WarmStandby)
from repro.core import persistence
from repro.core.messages import MSG_JOIN_DENIED, MSG_JOIN_REQUEST, Message
from repro.core.server import GroupKeyServer, ServerConfig, ServerError
from repro.keygraph.journal import JournalWriter, encode_record, read_records
from repro.observability import Instrumentation, Tracer

from .conftest import (assert_consistent, cluster_join, cluster_leave,
                       prime_clients)


def make_server(seed=b"standby-tests", signing="none", graph="tree"
                ) -> GroupKeyServer:
    server = GroupKeyServer(ServerConfig(degree=3, signing=signing,
                                         seed=seed, graph=graph))
    server.bootstrap([(f"u{index}", server.new_individual_key())
                      for index in range(9)])
    return server


class FrameCapture(JournalWriter):
    """A journal that keeps the frames it is handed."""

    def __init__(self):
        self.frames = []

    def write(self, frame: bytes) -> None:
        self.frames.append(frame)


@pytest.fixture
def applied(monkeypatch):
    """The op of every record a follower applies, in order."""
    ops = []
    real_apply = persistence.apply_record

    def counting_apply(server, record):
        ops.append(record["op"])
        return real_apply(server, record)

    monkeypatch.setattr(persistence, "apply_record", counting_apply)
    return ops


def join_frame() -> bytes:
    """The journal frame of one join on a fresh ``make_server()``."""
    server = make_server()
    capture = FrameCapture()
    server.attach_journal(capture)
    server.join("framed", server.new_individual_key())
    return capture.frames[-1]


# -- the standby unit ----------------------------------------------------------


def test_promote_without_journal_equals_checkpoint():
    server = make_server()
    standby = WarmStandby(server)
    promoted = standby.promote()
    assert persistence.snapshot(promoted) == persistence.snapshot(server)


def test_journaled_replay_is_byte_identical():
    server = make_server()
    standby = WarmStandby(server)
    server.join("new-user", server.new_individual_key())
    server.leave("u3")
    promoted = standby.promote()
    # Byte-for-byte: same node ids, versions AND key material, so
    # members' held keys keep decrypting — no out-of-band recovery.
    assert persistence.snapshot(promoted) == persistence.snapshot(server)
    assert promoted._seq == server._seq


def _denied_join(server):
    # A join request from a user with no registered key: the server
    # answers JOIN_DENIED, which draws a sequence number.
    request = Message(msg_type=MSG_JOIN_REQUEST, body=b"no-key").encode()
    [reply] = server.handle_datagram(request)
    assert reply.message.msg_type == MSG_JOIN_DENIED


def _denied_duplicate_join(server):
    # A member asking again with a freshly registered key is denied and
    # the registration stays pending on both sides.
    server.register_individual_key("u1", server.new_individual_key())
    with pytest.raises(ServerError):
        server.join("u1")


#: State changes besides join/leave (which
#: ``test_journaled_replay_is_byte_identical`` covers on its own); each
#: must reach the promoted server.
EXTRA_OPS = {
    "resync": lambda server: server.resync("u2"),
    "denied-join": _denied_join,
    "refresh": lambda server: server.refresh(),
    "register": lambda server: server.register_individual_key(
        "pending", server.new_individual_key()),
    "subcast": lambda server: server.subcast(["u1", "u4"], b"to two"),
    "denied-duplicate-join": _denied_duplicate_join,
}


@pytest.mark.parametrize("extra", sorted(EXTRA_OPS))
def test_promoted_state_equals_primary(extra):
    server = make_server()
    standby = WarmStandby(server)
    server.join("new-user", server.new_individual_key())
    server.leave("u3")
    EXTRA_OPS[extra](server)
    promoted = standby.promote()
    assert persistence.snapshot(promoted) == persistence.snapshot(server)
    assert promoted._seq == server._seq
    assert promoted._registered_keys == server._registered_keys


def test_future_draws_diverge_after_promotion():
    server = make_server()
    standby = WarmStandby(server)
    promoted = standby.promote()
    # The successor's DRBG is reseeded: the next keys they would issue
    # differ (running two live servers off one stream is a key-reuse
    # hazard), while all *current* state matched above.
    assert promoted.new_individual_key() != server.new_individual_key()


def test_failed_operation_is_not_journaled(applied):
    server = make_server()
    standby = WarmStandby(server)
    with pytest.raises(ServerError):
        server.leave("ghost")  # unknown user -> raises
    assert applied == ["checkpoint"]
    promoted = standby.promote()
    assert persistence.snapshot(promoted) == persistence.snapshot(server)


def test_standby_construction_errors():
    server = make_server()
    WarmStandby(server)
    with pytest.raises(FailoverError):
        WarmStandby(server)  # double arm: one log per server
    journaled = make_server(seed=b"journaled")
    journaled.attach_journal(FrameCapture())
    with pytest.raises(FailoverError):
        WarmStandby(journaled)
    with pytest.raises(FailoverError):
        WarmStandby(make_server(seed=b"star", graph="star"))


def test_follower_applies_each_record_once(applied):
    server = make_server()
    standby = WarmStandby(server)
    assert applied == ["checkpoint"]
    for index in range(4):
        server.join(f"extra-{index}", server.new_individual_key())
    for index in range(3):
        server.leave(f"u{index}")
    # One record per committed op; the ack's sequence number rides in
    # the op record itself.
    assert applied[1:] == ["join"] * 4 + ["leave"] * 3
    promoted = standby.promote()
    assert len(applied) == 8  # promotion replays nothing
    assert persistence.snapshot(promoted) == persistence.snapshot(server)


def test_zombie_primary_never_reaches_promoted_server():
    server = make_server()
    standby = WarmStandby(server)
    promoted = standby.promote()
    before = persistence.snapshot(promoted)
    # The dead primary keeps committing (an op still finishing on its
    # executor); the detached standby refuses every frame.
    server.join("zombie", server.new_individual_key())
    server.leave("u1")
    server.refresh()
    server.resync("u2")
    assert persistence.snapshot(promoted) == before
    with pytest.raises(FailoverError):
        standby.promote()


def test_concurrent_appends_and_promotion():
    """Appends from many threads race a promotion: every frame before it
    is applied whole, none after it lands."""
    server = make_server()
    standby = WarmStandby(server)
    keys = [server.new_individual_key() for _ in range(8)]
    started = threading.Barrier(9)

    def register(thread):
        started.wait(timeout=10)
        for index in range(60):
            server.register_individual_key(f"t{thread}-{index}",
                                           keys[thread])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=register, args=(thread,))
                   for thread in range(8)]
        for thread in threads:
            thread.start()
        started.wait(timeout=10)
        promoted = standby.promote()
        frozen = persistence.snapshot(promoted)
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert persistence.snapshot(promoted) == frozen
    # Registrations are order-free, so the follower holds exactly the
    # ones journaled before promotion: a subset of the primary's.
    held = promoted._registered_keys
    assert all(server._registered_keys[user] == key
               for user, key in held.items())
    assert len(server._registered_keys) == 8 * 60


def test_replay_divergence_fails_loud():
    """A record that does not replay as recorded poisons the follower."""
    [record] = list(read_records(io.BytesIO(join_frame()), strict=True))
    record["keys"] = record["keys"] + [record["keys"][0]]  # one too many
    server = make_server()
    standby = WarmStandby(server)
    standby.write(encode_record(record))
    with pytest.raises(FailoverError, match="poisoned"):
        standby.promote()
    # The primary was never failed by its standby.
    server.join("after", server.new_individual_key())


@st.composite
def damaged_frames(draw):
    frame = join_frame()
    if draw(st.booleans()):
        return frame[:draw(st.integers(0, len(frame) - 1))]  # torn
    bit = draw(st.integers(0, len(frame) * 8 - 1))
    damaged = bytearray(frame)
    damaged[bit // 8] ^= 1 << (bit % 8)
    return bytes(damaged)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(frame=damaged_frames())
def test_hostile_frame_poisons_follower(frame):
    server = make_server()
    standby = WarmStandby(server)
    before = persistence.snapshot(standby._follower)
    standby.write(frame)
    # No partial op reached the follower, and it accepts nothing more.
    assert persistence.snapshot(standby._follower) == before
    standby.write(join_frame())
    assert persistence.snapshot(standby._follower) == before
    with pytest.raises(FailoverError):
        standby.promote()


def test_standby_armed_before_cluster_bootstrap():
    coordinator = ClusterCoordinator(ClusterConfig(
        n_shards=3, degree=3, signing="none", seed=b"armed-early"))
    coordinator.enable_standbys()
    coordinator.bootstrap([(f"m{index}", coordinator.new_individual_key())
                           for index in range(12)])
    coordinator.join("late", coordinator.new_individual_key())
    shard = coordinator.shard_of("late")
    dead = coordinator.fail_shard(shard.shard_id)
    promoted = coordinator.promote_standby(shard.shard_id)
    assert persistence.snapshot(promoted) == persistence.snapshot(dead)


# -- the cluster acceptance test -----------------------------------------------


def structural_keyset(client):
    """The (node id, version) pairs a member holds — the member-visible
    key *structure*, identical across runs even where key bytes diverge
    (the promoted server's post-failover DRBG is reseeded)."""
    return {(node_id, version)
            for node_id, (version, _key) in client.keys.items()}


def run_cluster(fail_mid_workload: bool):
    coordinator = ClusterCoordinator(
        ClusterConfig(n_shards=4, degree=3, signing="none",
                      seed=b"failover-acceptance"),
        instrumentation=Instrumentation("cluster", tracer=Tracer()))
    members = [(f"member-{index:03d}", coordinator.new_individual_key())
               for index in range(32)]
    coordinator.bootstrap(members)
    clients = prime_clients(coordinator, members)
    coordinator.enable_standbys()

    # Phase 1: identical workload in both runs.
    for index in range(6):
        cluster_join(coordinator, clients, f"phase1-{index}")
    for index in range(3):
        cluster_leave(coordinator, clients, f"member-{index:03d}")

    victim_shard = coordinator.shard_of("member-010").shard_id
    if fail_mid_workload:
        dead = coordinator.fail_shard(victim_shard)
        # Requests for the dead shard's users are refused, not lost.
        with pytest.raises(ClusterError):
            coordinator.leave("member-010")
        promoted = coordinator.promote_standby(victim_shard)
        # The promoted shard is byte-identical to the primary at death.
        assert persistence.snapshot(promoted) == persistence.snapshot(dead)

    # Phase 2: the workload continues — through the promoted shard too.
    for index in range(6, 12):
        cluster_join(coordinator, clients, f"phase2-{index}")
    cluster_leave(coordinator, clients, "member-010")
    cluster_leave(coordinator, clients, "member-011")
    return coordinator, clients


def test_failover_mid_workload_members_never_recover_out_of_band():
    control_coord, control_clients = run_cluster(fail_mid_workload=False)
    failed_coord, failed_clients = run_cluster(fail_mid_workload=True)

    # Every member followed every rekey across the failover using only
    # the keys it already held (a member needing out-of-band recovery
    # would be missing the current group key).
    assert_consistent(failed_coord, failed_clients)

    # And the member-visible keyset matches the never-failed control
    # run, user by user.
    assert sorted(failed_clients) == sorted(control_clients)
    for user_id, control_client in control_clients.items():
        assert (structural_keyset(failed_clients[user_id])
                == structural_keyset(control_client)), user_id
    assert failed_coord.n_users == control_coord.n_users

    # The failover is observable: one cluster.failover span plus the
    # per-shard promotion counter.
    spans = [span["name"] for span in
             failed_coord.instrumentation.tracer.export()]
    assert "cluster.failover" in spans
    document = failed_coord.stats_document()
    failovers = document["metrics"]["counters"]["cluster_failovers_total"]
    assert sum(series["value"] for series in failovers["series"]) == 1


def test_promote_requires_standby_and_known_shard(cluster):
    coordinator, _clients = cluster
    with pytest.raises(ClusterError):
        coordinator.promote_standby(0)  # no standby armed
    with pytest.raises(ClusterError):
        coordinator.fail_shard(99)
    coordinator.enable_standbys()
    coordinator.fail_shard(0)
    with pytest.raises(ClusterError):
        coordinator.fail_shard(0)  # already failed
    promoted = coordinator.promote_standby(0)
    assert coordinator.shards[0].server is promoted
    assert not coordinator.shards[0].failed
    # The standby is re-armed: a second failure can also be survived.
    coordinator.fail_shard(0)
    coordinator.promote_standby(0)
