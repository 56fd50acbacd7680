"""Reliable delivery over a lossy bus."""

import pytest

from repro.chaos import ChaosTransport, FaultProfile
from repro.core.messages import (MSG_REKEY, Destination, Message,
                                 OutboundMessage)
from repro.transport.inmemory import InMemoryNetwork
from repro.transport.reliable import DeliveryFailure, ReliableDelivery


def outbound(receivers, payload=b"payload-bytes"):
    return OutboundMessage(Destination.to_subgroup(1),
                           Message(msg_type=MSG_REKEY), tuple(receivers),
                           payload)


def test_lossless_passthrough():
    network = InMemoryNetwork()
    reliable = ReliableDelivery(network)
    got = []
    reliable.attach("a", got.append)
    reliable.send(outbound(("a",)))
    assert got == [b"payload-bytes"]
    assert reliable.stats.retransmissions == 0


def test_delivers_despite_heavy_loss():
    network = ChaosTransport(InMemoryNetwork(),
                             FaultProfile(seed=b"retry", drop_rate=0.6))
    reliable = ReliableDelivery(network, max_attempts=64)
    inboxes = {u: [] for u in ("a", "b", "c")}
    for user, box in inboxes.items():
        reliable.attach(user, box.append)
    for i in range(30):
        reliable.send(outbound(("a", "b", "c"), payload=bytes([i]) * 10))
    # Every copy eventually arrived, exactly once, in order.
    for box in inboxes.values():
        assert len(box) == 30
        assert box == sorted(box)
    assert reliable.stats.retransmissions > 0


def test_gives_up_after_max_attempts():
    network = ChaosTransport(InMemoryNetwork(),
                             FaultProfile(seed=b"hopeless", drop_rate=0.97))
    reliable = ReliableDelivery(network, max_attempts=2)
    reliable.attach("a", lambda _data: None)
    with pytest.raises(DeliveryFailure):
        for _ in range(50):
            reliable.send(outbound(("a",)))


def test_duplicate_suppression():
    network = InMemoryNetwork()
    reliable = ReliableDelivery(network)
    got = []
    reliable.attach("a", got.append)
    reliable.send(outbound(("a",)))
    # Replay the same enveloped bytes directly (simulating a duplicate
    # datagram): the dedup layer must swallow it.
    import struct
    envelope = struct.pack(">QI", 1, 0) + b"payload-bytes"
    network.deliver_to("a", envelope)
    assert len(got) == 1


def test_detach():
    network = InMemoryNetwork(strict=False)
    reliable = ReliableDelivery(network)
    reliable.attach("a", lambda _data: None)
    reliable.detach("a")
    # Now undeliverable (non-strict network counts it).
    with pytest.raises(DeliveryFailure):
        reliable.send(outbound(("a",)))


def test_max_attempts_validation():
    with pytest.raises(ValueError):
        ReliableDelivery(InMemoryNetwork(), max_attempts=0)


def test_dedup_state_stays_bounded_over_long_workload():
    # Regression: the per-receiver dedup set used to grow forever (one
    # entry per message, per receiver).  It is now a sliding window.
    network = InMemoryNetwork()
    reliable = ReliableDelivery(network, dedup_window=64)
    got = []
    reliable.attach("a", got.append)
    for i in range(10_000):
        reliable.send(outbound(("a",), payload=b"m%d" % i))
    assert len(got) == 10_000
    # Bounded: at most 2x the window survives the amortized prune.
    assert len(reliable._seen["a"]) <= 128


def test_dedup_window_still_suppresses_recent_and_ancient_duplicates():
    import struct
    network = InMemoryNetwork()
    reliable = ReliableDelivery(network, dedup_window=16)
    got = []
    reliable.attach("a", got.append)
    for i in range(100):
        reliable.send(outbound(("a",), payload=b"m%d" % i))
    assert len(got) == 100
    # A recent duplicate (within the window) is swallowed by the set...
    network.deliver_to("a", struct.pack(">QI", 100, 0) + b"m99")
    # ...and an ancient one (past the horizon) by the window bound.
    network.deliver_to("a", struct.pack(">QI", 3, 0) + b"m2")
    assert len(got) == 100


def test_dedup_window_validation():
    from repro.transport.reliable import _DedupWindow
    with pytest.raises(ValueError):
        _DedupWindow(0)
