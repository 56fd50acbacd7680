"""ChaosTransport: seeded fault injection at the transport boundary."""

import pytest

from repro.chaos import PROFILES, ChaosError, ChaosTransport, FaultProfile
from repro.core.messages import Destination, Message, OutboundMessage
from repro.transport.inmemory import InMemoryNetwork


def outbound(receivers, payload=b"x", kind="subgroup"):
    message = Message(msg_type=6, body=payload)
    destination = (Destination.to_user(receivers[0]) if kind == "user"
                   else Destination.to_subgroup(1))
    return OutboundMessage(destination, message, tuple(receivers),
                           message.encode())


def make_chaos(profile=None, users=("a", "b", "c")):
    network = InMemoryNetwork(strict=False)
    chaos = ChaosTransport(network, profile)
    inboxes = {}
    for uid in users:
        inboxes[uid] = []
        chaos.attach(uid, inboxes[uid].append)
    return chaos, inboxes


def test_profile_validation():
    with pytest.raises(ChaosError):
        FaultProfile(drop_rate=1.5).validate()
    with pytest.raises(ChaosError):
        FaultProfile(max_delay=-1).validate()
    with pytest.raises(ChaosError):
        FaultProfile(delay_rate=0.2).validate()  # delay needs max_delay
    for profile in PROFILES.values():
        profile.validate()


def test_clean_profile_is_transparent():
    chaos, inboxes = make_chaos()
    for _ in range(50):
        chaos.send(outbound(("a", "b", "c")))
    assert all(len(inbox) == 50 for inbox in inboxes.values())
    assert sum(chaos.injected.values()) == 0
    assert chaos.in_flight == 0


def test_same_seed_same_faults():
    profile = PROFILES["lossy-reorder"]
    counts = []
    for _ in range(2):
        chaos, inboxes = make_chaos(profile)
        for i in range(200):
            chaos.send(outbound(("a", "b", "c"), payload=bytes([i % 251])))
        chaos.quiesce()
        counts.append((dict(chaos.injected),
                       [len(inbox) for inbox in inboxes.values()]))
    assert counts[0] == counts[1]
    assert counts[0][0]["drop"] > 0
    assert counts[0][0]["duplicate"] > 0
    assert counts[0][0]["delay"] > 0


def test_drop_is_deterministic_and_partial():
    def run():
        chaos, inboxes = make_chaos(
            FaultProfile(seed=b"loss", drop_rate=0.5), users=("a",))
        for _ in range(200):
            chaos.send(outbound(("a",)))
        return len(inboxes["a"]), chaos.stats.drops

    first, second = run(), run()
    assert first == second               # seeded determinism
    delivered, drops = first
    assert delivered + drops == 200
    assert 40 <= delivered <= 160        # roughly half, not all-or-nothing


def test_delay_reorders_copies():
    profile = FaultProfile(name="delay-only", seed=b"t/delay",
                           delay_rate=0.5, max_delay=4)
    chaos, inboxes = make_chaos(profile, users=("a",))
    for i in range(60):
        chaos.send(outbound(("a",), payload=bytes([i]), kind="user"))
    chaos.quiesce()
    got = [Message.decode(m).body[0] for m in inboxes["a"]]
    assert len(got) == 60
    assert sorted(got) == list(range(60))
    assert got != list(range(60))  # at least one overtake happened


def test_crash_restart_cycle():
    chaos, inboxes = make_chaos()
    chaos.crash("b")
    chaos.send(outbound(("a", "b", "c")))
    assert len(inboxes["a"]) == 1 and len(inboxes["b"]) == 0
    assert chaos.injected["crash_drop"] == 1
    with pytest.raises(ChaosError):
        chaos.crash("b")  # already down
    chaos.restart("b")
    chaos.send(outbound(("a", "b", "c")))
    assert len(inboxes["b"]) == 1  # handler survived the crash
    with pytest.raises(ChaosError):
        chaos.restart("b")  # not crashed
    with pytest.raises(ChaosError):
        chaos.crash("zz")  # never attached


def test_partition_and_heal():
    chaos, inboxes = make_chaos()
    chaos.partition(["b", "c"])
    chaos.send(outbound(("a", "b", "c")))
    assert len(inboxes["a"]) == 1
    assert len(inboxes["b"]) == 0 and len(inboxes["c"]) == 0
    assert chaos.injected["partition_drop"] == 2
    chaos.heal(["b"])
    chaos.send(outbound(("a", "b", "c")))
    assert len(inboxes["b"]) == 1 and len(inboxes["c"]) == 0
    chaos.heal()
    chaos.send(outbound(("a", "b", "c")))
    assert len(inboxes["c"]) == 1


def test_crash_drops_parked_copies_at_release_time():
    profile = FaultProfile(name="delay-only", seed=b"t/park",
                           delay_rate=0.99, max_delay=3)
    chaos, inboxes = make_chaos(profile, users=("a",))
    chaos.send(outbound(("a",), kind="user"))
    assert chaos.in_flight == 1
    chaos.crash("a")
    chaos.quiesce()
    assert inboxes["a"] == []  # parked copy died with the member
    assert chaos.injected["crash_drop"] == 1


def test_quiesce_limit():
    chaos, _ = make_chaos()
    with pytest.raises(ChaosError):
        # Nothing in flight drains instantly; force the error path by
        # parking a copy far out and capping the limit below it.
        chaos._delayed.append((10_000, 0, "a", b"x"))
        chaos.quiesce(limit=2)
