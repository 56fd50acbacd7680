"""In-memory bus: delivery and accounting (loss is ChaosTransport's)."""

import pytest

from repro.core.messages import (MSG_REKEY, Destination, Message,
                                 OutboundMessage)
from repro.transport.inmemory import InMemoryNetwork, UnknownReceiverError


def outbound(receivers, payload=b"x" * 40, kind="subgroup"):
    message = Message(msg_type=MSG_REKEY)
    if kind == "user":
        destination = Destination.to_user(receivers[0])
    else:
        destination = Destination.to_subgroup(1)
    return OutboundMessage(destination, message, tuple(receivers), payload)


def test_delivery_and_stats():
    network = InMemoryNetwork()
    inboxes = {u: [] for u in "abc"}
    for user in inboxes:
        network.attach(user, inboxes[user].append)
    network.send(outbound(("a", "b", "c")))
    assert all(len(box) == 1 for box in inboxes.values())
    assert network.stats.multicast_sends == 1
    assert network.stats.bytes_sent == 40        # one multicast, one count
    assert network.stats.deliveries == 3
    assert network.stats.bytes_delivered == 120  # fan-out counted per copy


def test_unicast_counted_separately():
    network = InMemoryNetwork()
    network.attach("a", lambda _data: None)
    network.send(outbound(("a",), kind="user"))
    assert network.stats.unicast_sends == 1
    assert network.stats.multicast_sends == 0


def test_detach_and_strictness():
    network = InMemoryNetwork()
    network.attach("a", lambda _data: None)
    network.detach("a")
    with pytest.raises(UnknownReceiverError):
        network.send(outbound(("a",), kind="user"))


def test_strict_multicast_survives_detached_receiver():
    # A group address resolves from the subscriptions at send time: a
    # detached member is in no audience, so the fan-out never tries it.
    network = InMemoryNetwork()
    inboxes = {u: [] for u in "abc"}
    for user in inboxes:
        network.attach(user, inboxes[user].append)
    network.detach("b")
    message = Message(msg_type=MSG_REKEY)
    network.send(OutboundMessage(Destination.to_all(), message, (),
                                 b"x" * 40))
    assert len(inboxes["a"]) == 1
    assert len(inboxes["c"]) == 1
    assert network.undeliverable == 0
    assert network.stats.deliveries == 2
    assert network.stats.multicast_sends == 1
    # Direct unicast to the departed member still fails loud.
    with pytest.raises(UnknownReceiverError):
        network.deliver_to("b", b"late")


def test_non_strict_counts_undeliverable():
    network = InMemoryNetwork(strict=False)
    network.send(outbound(("ghost",)))
    assert network.undeliverable == 1
    assert network.stats.deliveries == 0


def test_drop_rate_validation():
    # The bus is lossless; loss is injected by wrapping it in a
    # ChaosTransport (tests/chaos/test_faults.py).
    with pytest.raises(TypeError):
        InMemoryNetwork(drop_rate=0.1)
    with pytest.raises(TypeError):
        InMemoryNetwork(seed=b"loss")


def test_send_all():
    network = InMemoryNetwork()
    got = []
    network.attach("a", got.append)
    network.send_all([outbound(("a",)), outbound(("a",))])
    assert len(got) == 2


def test_encodes_message_when_no_cached_bytes():
    network = InMemoryNetwork()
    got = []
    network.attach("a", got.append)
    message = Message(msg_type=MSG_REKEY, seq=7)
    network.send(OutboundMessage(Destination.to_user("a"), message,
                                 ("a",), b""))
    assert Message.decode(got[0]).seq == 7
