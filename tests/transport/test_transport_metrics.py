"""Transport registry series: delta collectors over TransportStats."""

from repro.chaos import ChaosTransport, FaultProfile
from repro.core.messages import Destination, Message, OutboundMessage
from repro.observability.metrics import MetricRegistry
from repro.transport.inmemory import InMemoryNetwork
from repro.transport.reliable import ReliableDelivery


def _outbound(receivers, to_all=True):
    message = Message(msg_type=6, body=b"x" * 32)
    destination = (Destination.to_all() if to_all
                   else Destination.to_user(receivers[0]))
    return OutboundMessage(destination, message, tuple(receivers),
                           message.encode())


def _counter_value(snapshot, name, **labels):
    for series in snapshot["counters"][name]["series"]:
        if all(series["labels"].get(k) == v for k, v in labels.items()):
            return series["value"]
    return 0.0


def test_inmemory_series_track_stats():
    registry = MetricRegistry("net")
    net = InMemoryNetwork(registry=registry)
    received = []
    net.attach("u1", received.append)
    net.attach("u2", received.append)
    net.send(_outbound(["u1", "u2"]))
    net.send(_outbound(["u1"], to_all=False))
    snapshot = registry.snapshot()
    assert _counter_value(snapshot, "transport_sends_total",
                          transport="InMemoryNetwork", mode="multicast") == 1
    assert _counter_value(snapshot, "transport_sends_total",
                          transport="InMemoryNetwork", mode="unicast") == 1
    assert _counter_value(snapshot, "transport_deliveries_total",
                          transport="InMemoryNetwork") == 3
    sent = _counter_value(snapshot, "transport_bytes_total",
                          transport="InMemoryNetwork", direction="sent")
    assert sent == net.stats.bytes_sent > 0


def test_collector_publishes_deltas_once():
    registry = MetricRegistry("net")
    net = InMemoryNetwork(registry=registry)
    net.attach("u1", lambda payload: None)
    net.send(_outbound(["u1"]))
    first = registry.snapshot()
    second = registry.snapshot()
    for snapshot in (first, second):
        assert _counter_value(snapshot, "transport_deliveries_total",
                              transport="InMemoryNetwork") == 1


def test_reliable_over_lossy_publishes_retransmissions():
    registry = MetricRegistry("net")
    net = ChaosTransport(InMemoryNetwork(),
                         FaultProfile(seed=b"lossy", drop_rate=0.4),
                         registry=registry)
    reliable = ReliableDelivery(net, registry=registry)
    received = []
    reliable.attach("u1", received.append)
    for _ in range(20):
        reliable.send(_outbound(["u1"]))
    assert len(received) == 20
    snapshot = registry.snapshot()
    assert _counter_value(snapshot, "transport_retransmissions_total",
                          transport="ReliableDelivery") \
        == reliable.stats.retransmissions > 0
    assert _counter_value(snapshot, "transport_drops_total",
                          transport="ChaosTransport") \
        == net.stats.drops > 0


def test_transport_without_registry_stays_silent():
    net = InMemoryNetwork()
    net.attach("u1", lambda payload: None)
    net.send(_outbound(["u1"]))
    assert net.registry.snapshot() == {"counters": {}, "gauges": {},
                                       "histograms": {}}
    assert net.stats.deliveries == 1
