"""RecoveryManager: heartbeats, retries, eviction, overload shedding."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch.rekeying import BatchRekeyServer
from repro.core.client import GroupClient
from repro.core.messages import MSG_RESYNC_REPLY, Message
from repro.core.server import GroupKeyServer, ServerConfig
from repro.crypto.suite import PAPER_SUITE_NO_SIG
from repro.recovery import RecoveryManager, RecoveryPolicy
from repro.recovery.manager import MAX_PUSHES_PER_TICK, RecoveryError
from repro.transport.inmemory import InMemoryNetwork


def make_stack(n=8, policy=None, batch=False):
    if batch:
        server = BatchRekeyServer(degree=3, suite=PAPER_SUITE_NO_SIG,
                                  seed=b"mgr-tests")
    else:
        server = GroupKeyServer(ServerConfig(
            degree=3, strategy="group", suite=PAPER_SUITE_NO_SIG,
            signing="none", seed=b"mgr-tests"))
    members = [(f"u{i}", server.new_individual_key()) for i in range(n)]
    server.bootstrap(members)
    network = InMemoryNetwork(strict=False)
    inboxes = {}
    for uid, _key in members:
        inboxes[uid] = []
        network.attach(uid, inboxes[uid].append)
    manager = RecoveryManager(server, network, policy=policy)
    for uid, _key in members:
        manager.track(uid)
    return server, manager, network, inboxes, dict(members)


def test_policy_validation():
    with pytest.raises(RecoveryError):
        RecoveryPolicy(dead_after=0).validate()
    with pytest.raises(RecoveryError):
        RecoveryPolicy(max_attempts=0).validate()
    with pytest.raises(RecoveryError):
        RecoveryPolicy(backoff_factor=0).validate()
    with pytest.raises(RecoveryError):
        RecoveryPolicy(shed_threshold=1).validate()


def test_backoff_progression_is_capped():
    policy = RecoveryPolicy(backoff_base=1, backoff_factor=2, backoff_cap=8)
    assert [policy.backoff(n) for n in range(1, 7)] == [1, 2, 4, 8, 8, 8]


def test_current_heartbeat_schedules_nothing():
    server, manager, _network, inboxes, _ = make_stack()
    manager.heartbeat("u0", server.group_key_ref())
    manager.tick()
    assert manager.pending_resyncs == 0
    assert inboxes["u0"] == []


def test_stale_heartbeat_triggers_resync_push():
    server, manager, _network, inboxes, _ = make_stack()
    manager.heartbeat("u0", (0, 0))
    manager.tick()
    assert len(inboxes["u0"]) == 1
    assert Message.decode(inboxes["u0"][0]).msg_type == MSG_RESYNC_REPLY
    # The push keeps retrying (with backoff) until a heartbeat confirms.
    for _ in range(3):
        manager.tick()
    assert len(inboxes["u0"]) >= 2
    manager.heartbeat("u0", server.group_key_ref())
    assert manager.pending_resyncs == 0


def test_resync_push_actually_repairs_a_client(monkeypatch=None):
    server, manager, _network, inboxes, members = make_stack()
    client = GroupClient("u0", PAPER_SUITE_NO_SIG, verify=False)
    client.set_individual_key(members["u0"])
    manager.heartbeat("u0", (0, 0))
    manager.tick()
    client.process_resync(inboxes["u0"][0])
    assert client.group_key() == server.group_key()


def test_budget_exhaustion_escalates_to_eviction():
    policy = RecoveryPolicy(max_attempts=3, backoff_base=1,
                            backoff_factor=1, dead_after=100)
    server, manager, _network, inboxes, _ = make_stack(policy=policy)
    manager.heartbeat("u0", (0, 0))
    for _ in range(6):
        # Keep the member "alive" so silence detection stays out of it:
        # this eviction must come from the delivery budget alone.
        manager._last_seen["u0"] = manager.now
        manager.tick()
    assert len(inboxes["u0"]) == 3          # budget spent
    assert "u0" in manager.evicted          # then escalated
    assert not server.is_member("u0")
    # The eviction produced a leave rekey for the remaining members.
    assert any(inboxes[f"u{i}"] for i in range(1, 8))


def test_silence_evicts_dead_member():
    policy = RecoveryPolicy(dead_after=3)
    server, manager, _network, _inboxes, _ = make_stack(policy=policy)
    for _ in range(10):
        for i in range(1, 8):
            manager.heartbeat(f"u{i}", server.group_key_ref())
        manager.tick()
    assert manager.evicted == ["u0"]
    assert not server.is_member("u0")
    assert server.is_member("u1")


def test_comeback_heartbeat_cancels_queued_eviction():
    policy = RecoveryPolicy(dead_after=2)
    server, manager, _network, _inboxes, _ = make_stack(policy=policy)

    # Queue the eviction manually (detected dead) but have the member
    # heartbeat before the drain would fire.
    manager._evict_queue.append("u0")
    manager.heartbeat("u0", server.group_key_ref())
    manager.tick()
    assert manager.evicted == []
    assert server.is_member("u0")


def test_deep_queue_sheds_to_one_batch_flush():
    policy = RecoveryPolicy(dead_after=2, shed_threshold=3)
    server, manager, _network, inboxes, _ = make_stack(policy=policy,
                                                       batch=True)
    flushes_before = len(server.flushes)
    for _ in range(10):
        for i in range(4, 8):
            manager.heartbeat(f"u{i}", server.group_key_ref())
        manager.tick()
    assert sorted(manager.evicted) == ["u0", "u1", "u2", "u3"]
    assert manager.sheds == 1
    assert len(server.flushes) == flushes_before + 1  # one flush, not 4
    for i in range(4):
        assert not server.is_member(f"u{i}")


def test_not_member_reply_is_not_retried():
    server, manager, _network, inboxes, _ = make_stack()
    network = InMemoryNetwork(strict=False)
    ghost_inbox = []
    manager.transport.attach("ghost", ghost_inbox.append)
    manager.heartbeat("ghost", (0, 0))
    for _ in range(5):
        manager.tick()
    assert len(ghost_inbox) == 1  # one NOT_MEMBER push, no retries
    assert manager.pending_resyncs == 0


def test_backend_failure_keeps_retrying():
    server, manager, _network, inboxes, _ = make_stack()
    calls = {"n": 0}
    real_resync = manager.backend.resync

    def flaky(user_id):
        calls["n"] += 1
        if calls["n"] < 3:
            raise RuntimeError("shard down")
        return real_resync(user_id)

    manager.backend.resync = flaky
    manager.heartbeat("u0", (0, 0))
    for _ in range(8):
        manager.tick()
    assert calls["n"] >= 3
    assert len(inboxes["u0"]) >= 1  # eventually served


def test_receive_dispatches_wire_datagrams():
    server, manager, _network, _inboxes, _ = make_stack()
    from repro.core.messages import MSG_HEARTBEAT, MSG_RESYNC_REQUEST
    beat = Message(msg_type=MSG_HEARTBEAT, root_node_id=0, root_version=0,
                   body=b"u0").encode()
    assert manager.receive(beat) == []
    assert manager.pending_resyncs == 1  # stale view scheduled a push
    ask = Message(msg_type=MSG_RESYNC_REQUEST, body=b"u1").encode()
    replies = manager.receive(ask)
    assert len(replies) == 1
    assert replies[0].message.msg_type == MSG_RESYNC_REPLY
    with pytest.raises(RecoveryError):
        manager.receive(Message(msg_type=6, body=b"u0").encode())
    with pytest.raises(RecoveryError):
        manager.receive(b"junk")


def test_untrack_clears_all_state():
    server, manager, _network, _inboxes, _ = make_stack()
    manager.heartbeat("u0", (0, 0))
    manager._evict_queue.append("u0")
    manager.untrack("u0")
    assert manager.pending_resyncs == 0
    assert manager.pending_evictions == 0
    manager.tick()
    assert server.is_member("u0")


# -- the grace window: staleness, not latency ---------------------------------

class FakeBackend:
    """Membership and a settable group-key ref; resync echoes the user."""

    supports_batch = False

    def __init__(self, members, ref=(1, 10)):
        self.live = set(members)
        self.ref = ref
        self.resyncs = []

    def is_member(self, user_id):
        return user_id in self.live

    def group_key_ref(self):
        return self.ref

    def rekey(self, by=1):
        self.ref = (self.ref[0], self.ref[1] + by)

    def resync(self, user_id):
        self.resyncs.append(user_id)
        return user_id

    def evict(self, user_ids):
        self.live.difference_update(user_ids)
        self.rekey()
        return []


class FakeTransport:
    def __init__(self):
        self.sent = []
        self.enrolled = []

    def enroll(self, user_id, audiences):
        self.enrolled.append((user_id, tuple(audiences)))

    def send(self, reply):
        self.sent.append(reply)

    def send_all(self, replies):
        self.sent.extend(replies)


def make_fake(members, policy=None, ticks=1):
    backend = FakeBackend(members)
    transport = FakeTransport()
    manager = RecoveryManager(backend, transport, policy=policy)
    for uid in members:
        manager.track(uid)
    for _ in range(ticks):
        manager.tick()
    return backend, manager, transport


def rekey(server):
    """Advance the real server's group key one version."""
    server.join(f"extra{server.group_key_ref()[1]}",
                server.new_individual_key())


def test_one_version_behind_right_after_a_rekey_is_in_flight():
    server, manager, _network, inboxes, _ = make_stack()
    manager.tick()
    before = server.group_key_ref()
    rekey(server)
    assert server.group_key_ref() == (before[0], before[1] + 1)
    manager.heartbeat("u0", before)
    assert manager.pending_resyncs == 0
    manager.tick()
    assert [Message.decode(m).msg_type for m in inboxes["u0"]].count(
        MSG_RESYNC_REPLY) == 0


def test_ref_still_reported_a_tick_later_is_pushed_once_and_repairs():
    server, manager, _network, inboxes, members = make_stack()
    client = GroupClient("u0", PAPER_SUITE_NO_SIG, verify=False)
    client.set_individual_key(members["u0"])
    manager.tick()
    frozen = server.group_key_ref()
    rekey(server)
    manager.heartbeat("u0", frozen)        # in flight
    manager.tick()                         # a full tick has passed
    assert inboxes["u0"] == []
    manager.heartbeat("u0", frozen)        # now it is stale
    assert manager.pending_resyncs == 1
    manager.tick()
    assert len(inboxes["u0"]) == 1
    client.process_resync(inboxes["u0"][0])
    assert client.group_key() == server.group_key()
    manager.heartbeat("u0", server.group_key_ref())
    manager.tick()
    assert len(inboxes["u0"]) == 1
    assert manager.pending_resyncs == 0


def test_two_behind_within_a_tick_is_in_flight_older_than_floor_is_not():
    backend, manager, transport = make_fake(["a", "b", "c"])
    floor = backend.ref
    backend.rekey(2)
    manager.heartbeat("a", floor)                      # two behind
    manager.heartbeat("b", (floor[0], floor[1] + 1))   # one behind
    assert manager.pending_resyncs == 0
    manager.heartbeat("c", (floor[0], floor[1] - 1))   # older than floor
    assert list(manager._pending) == ["c"]
    # A version the server never issued is not "in flight" either.
    manager.heartbeat("a", (floor[0], floor[1] + 9))
    assert list(manager._pending) == ["c", "a"]
    manager.tick()
    assert transport.sent == ["c", "a"]


def test_another_root_node_is_never_in_flight():
    backend, manager, _transport = make_fake(["a", "b"])
    old_root, version = backend.ref
    # The tree grew a root since the last tick: the old root's ref —
    # even at the remembered version — names a key that is gone.
    backend.ref = (old_root + 1, 0)
    manager.heartbeat("a", (old_root, version))
    assert list(manager._pending) == ["a"]
    # Same when the reported root is neither old nor new.
    manager.heartbeat("b", (old_root + 7, version))
    assert list(manager._pending) == ["a", "b"]
    # And one tick on, the new root has its own window.
    manager.tick()
    backend.rekey()
    manager.heartbeat("b", (old_root + 1, 0))
    assert list(manager._pending) == ["a", "b"]   # not cancelled ...
    manager._pending.clear()
    manager.heartbeat("b", (old_root + 1, 0))
    assert manager.pending_resyncs == 0           # ... and not scheduled


def test_before_the_first_tick_every_mismatch_schedules():
    backend, manager, transport = make_fake(["a"], ticks=0)
    assert manager._ref_at_tick is None
    stale = backend.ref
    backend.rekey()
    manager.heartbeat("a", stale)
    assert manager.pending_resyncs == 1
    manager.tick()
    assert transport.sent == ["a"]


def test_in_flight_heartbeat_does_not_cancel_a_pending_push():
    backend, manager, transport = make_fake(["a"])
    floor = backend.ref
    manager.heartbeat("a", (floor[0], floor[1] - 3))   # really stale
    assert manager.pending_resyncs == 1
    backend.rekey()
    manager.heartbeat("a", floor)                      # in flight now
    assert manager.pending_resyncs == 1
    manager.heartbeat("a", backend.ref)                # current: cancels
    assert manager.pending_resyncs == 0
    manager.tick()
    assert transport.sent == []


# -- the bounded tick ---------------------------------------------------------

def test_push_budget_serves_in_schedule_order_without_charging_waiters():
    members = [f"m{i:03d}" for i in range(100)]
    policy = RecoveryPolicy(max_attempts=2, dead_after=1000)
    backend, manager, transport = make_fake(members, policy=policy)
    for uid in members:
        manager.heartbeat(uid, (backend.ref[0], backend.ref[1] - 5))
    for tick in range(10):
        manager.tick(push_budget=10)
        # Served members confirm, so the ten slots go to the next ten.
        served = transport.sent[tick * 10:]
        assert served == members[tick * 10:tick * 10 + 10]
        waiting = members[tick * 10 + 10:]
        assert all(manager._pending[uid].attempts == 0 for uid in waiting)
        assert all(manager._pending[uid].due <= manager.now
                   for uid in waiting)
        for uid in served:
            manager.heartbeat(uid, backend.ref)
    assert transport.sent == members
    assert manager.evicted == []
    assert manager.pending_resyncs == 0


def test_zero_budget_tick_sends_nothing_and_still_evicts_the_silent():
    policy = RecoveryPolicy(dead_after=2)
    backend, manager, transport = make_fake(["a", "b"], policy=policy)
    stale = (backend.ref[0], backend.ref[1] - 5)
    for _ in range(4):
        manager.heartbeat("a", stale)
        manager.tick(push_budget=0)
    assert transport.sent == [] and backend.resyncs == []
    assert manager._pending["a"].attempts == 0
    assert manager.evicted == ["b"]
    assert transport.enrolled == [("b", ())]   # out of every audience
    manager.heartbeat("a", stale)
    manager.tick()
    assert transport.sent == ["a"]


@pytest.mark.parametrize("shed_odd_ticks", [True, False])
def test_alternating_shed_ticks_still_reach_a_frozen_member(shed_odd_ticks):
    # A loop lagging at every other tick: the floor moves at every tick
    # all the same, so a shed tick costs the frozen member one tick.
    backend, manager, transport = make_fake(["a", "b"])
    frozen = backend.ref
    backend.rekey()
    pushed_at = None
    for number in range(1, 6):
        manager.heartbeat("a", frozen)
        manager.heartbeat("b", backend.ref)
        shed = (number % 2 == 1) == shed_odd_ticks
        manager.tick(push_budget=0 if shed else MAX_PUSHES_PER_TICK)
        if pushed_at is None and "a" in transport.sent:
            pushed_at = number
        backend.rekey()
    assert pushed_at == (2 if shed_odd_ticks else 3)
    assert "b" not in transport.sent


# -- non-member heartbeats: cheap and bounded ---------------------------------

def test_non_member_heartbeat_leaves_no_surveillance_state():
    backend, manager, transport = make_fake(["a"])
    manager.heartbeat("ghost", backend.ref)
    assert "ghost" not in manager._last_seen
    manager.tick()
    assert transport.sent == ["ghost"]     # told once ...
    for _ in range(3):
        manager.tick()
    assert transport.sent == ["ghost"]     # ... never retried
    assert manager.pending_resyncs == 0
    manager.heartbeat("ghost", backend.ref)
    manager.tick()
    assert transport.sent == ["ghost", "ghost"]  # asked again, told again


def test_members_go_before_notices_and_unfit_notices_are_dropped():
    backend, manager, transport = make_fake(["a", "b"])
    stale = (backend.ref[0], backend.ref[1] - 5)
    for ghost in ("g0", "g1", "g2"):
        manager.heartbeat(ghost, stale)
    manager.heartbeat("a", stale)
    manager.heartbeat("b", stale)
    manager.tick(push_budget=3)
    assert transport.sent == ["a", "b", "g0"]
    assert sorted(manager._pending) == ["a", "b"]   # g1, g2 dropped
    manager.tick(push_budget=3)
    assert set(transport.sent[3:]) <= {"a", "b"}


def test_ten_thousand_bogus_ids_cost_at_most_the_budget():
    server, manager, _network, inboxes, _ = make_stack()
    manager.tick()
    manager.heartbeat("u0", (0, 0))        # one real stale member
    tracked = dict(manager._last_seen)
    for i in range(10_000):
        manager.heartbeat(f"bogus{i}", (0, 0))
    assert manager._last_seen == tracked
    built = []
    real_resync = manager.backend.resync
    manager.backend.resync = lambda uid: (built.append(uid),
                                          real_resync(uid))[1]
    manager.tick()
    assert len(built) <= MAX_PUSHES_PER_TICK
    assert built[0] == "u0" and len(inboxes["u0"]) == 1
    assert list(manager._pending) == ["u0"]    # no state beyond the tick
    assert "bogus0" not in manager._last_seen


def test_evicted_member_that_comes_back_is_told_not_member():
    policy = RecoveryPolicy(dead_after=2)
    server, manager, _network, inboxes, members = make_stack(policy=policy)
    for _ in range(4):
        for i in range(1, 8):
            manager.heartbeat(f"u{i}", server.group_key_ref())
        manager.tick()
    assert manager.evicted == ["u0"]
    client = GroupClient("u0", PAPER_SUITE_NO_SIG, verify=False)
    client.set_individual_key(members["u0"])
    inboxes["u0"].clear()
    manager.heartbeat("u0", (0, 0))
    manager.tick()
    assert len(inboxes["u0"]) == 1
    client.process_resync(inboxes["u0"][0])
    assert client.evicted


# -- property: lag is never pushed, frozen is pushed by the second tick -------

@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(
    st.just(("op",)), st.just(("tick",)),
    st.tuples(st.just("beat"), st.sampled_from(["lag", "frozen"]),
              st.integers(min_value=0, max_value=3))), max_size=60))
def test_property_lag_is_never_pushed_and_frozen_is_pushed_in_time(steps):
    backend, manager, transport = make_fake(["lag", "frozen"])
    frozen_ref = backend.ref
    floor = backend.ref          # the ref at the previous tick
    ticks_since_superseded = None
    for step in steps:
        if step[0] == "op":
            backend.rekey()
            if ticks_since_superseded is None:
                ticks_since_superseded = 0
        elif step[0] == "tick":
            # Both beat once per tick interval, as live members do.
            manager.heartbeat("frozen", frozen_ref)
            manager.heartbeat("lag", (floor[0], max(
                floor[1], backend.ref[1] - 1)))
            manager.tick()
            floor = backend.ref
            if ticks_since_superseded is not None:
                ticks_since_superseded += 1
                if ticks_since_superseded >= 2:
                    assert "frozen" in transport.sent
        else:
            _kind, who, lag = step
            if who == "frozen":
                manager.heartbeat("frozen", frozen_ref)
            else:
                # Any ref between the previous tick's and the current.
                version = max(floor[1], backend.ref[1] - lag)
                manager.heartbeat("lag", (floor[0], version))
        assert "lag" not in transport.sent
    if ticks_since_superseded is None:
        assert transport.sent == []
