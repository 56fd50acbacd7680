"""Transport abstractions.

The paper's prototype sends join/leave/rekey messages as UDP datagrams
between a server and a client-simulator, with rekey messages going out
via group or subgroup multicast.  This package models that as:

* :class:`Transport` — the interface: deliver an
  :class:`~repro.core.messages.OutboundMessage` to whom its address
  reaches (a group address through :mod:`repro.transport.audience`);
* :mod:`repro.transport.inmemory` — deterministic in-process bus with
  byte accounting and loss injection (default for experiments);
* :mod:`repro.transport.reliable` — ack/retransmit reliable delivery on
  top of a lossy transport (the paper assumes "a reliable message
  delivery system, for both unicast and multicast");
* :mod:`repro.transport.udp` — the blocking client of the async key
  service (:mod:`repro.serve`) over real UDP sockets.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Hashable, List, Optional, Sequence

from ..core.messages import OutboundMessage
from ..observability.metrics import NULL_REGISTRY, MetricRegistry
from .audience import GROUP, AudienceIndex


@dataclass
class TransportStats:
    """Byte/message accounting for one transport."""

    unicast_sends: int = 0
    multicast_sends: int = 0
    bytes_sent: int = 0
    deliveries: int = 0
    bytes_delivered: int = 0
    drops: int = 0
    retransmissions: int = 0


class Transport(ABC):
    """Delivers outbound messages to named receivers.

    Pass a :class:`~repro.observability.metrics.MetricRegistry` to
    publish ``transport_*`` series; subclasses keep updating the plain
    :class:`TransportStats` counters on the send path, and a
    snapshot-time collector folds the deltas into the registry (same
    deferred pattern as the key-schedule cache, so the per-datagram
    path stays registry-free).

    ``audience`` is the index group addresses resolve from; a wrapping
    transport shares the inner one's.
    """

    def __init__(self, registry: Optional[MetricRegistry] = None):
        self.stats = TransportStats()
        self.audience = AudienceIndex()
        self.registry = registry if registry is not None else NULL_REGISTRY
        transport = type(self).__name__
        sends = self.registry.counter(
            "transport_sends_total", "Transport sends by mode.",
            labels=("transport", "mode"))
        traffic = self.registry.counter(
            "transport_bytes_total", "Transport bytes by direction.",
            labels=("transport", "direction"))
        self._stat_series = (
            ("unicast_sends", sends.labels(transport=transport,
                                           mode="unicast")),
            ("multicast_sends", sends.labels(transport=transport,
                                             mode="multicast")),
            ("bytes_sent", traffic.labels(transport=transport,
                                          direction="sent")),
            ("bytes_delivered", traffic.labels(transport=transport,
                                               direction="delivered")),
            ("deliveries", self.registry.counter(
                "transport_deliveries_total", "Copies delivered.",
                labels=("transport",)).labels(transport=transport)),
            ("drops", self.registry.counter(
                "transport_drops_total", "Copies lost in transit.",
                labels=("transport",)).labels(transport=transport)),
            ("retransmissions", self.registry.counter(
                "transport_retransmissions_total", "Copies resent.",
                labels=("transport",)).labels(transport=transport)),
        )
        self._published_stats = TransportStats()
        self.registry.add_collector(self._collect_stats)

    def _collect_stats(self, registry: MetricRegistry) -> None:
        """Fold :class:`TransportStats` deltas into the registry."""
        for attr, series in self._stat_series:
            delta = getattr(self.stats, attr) \
                - getattr(self._published_stats, attr)
            if delta:
                series.inc(delta)
                setattr(self._published_stats, attr,
                        getattr(self.stats, attr))

    @abstractmethod
    def attach(self, user_id: str, handler: Callable[[bytes], None]) -> None:
        """Register a receiver handler for ``user_id``."""

    @abstractmethod
    def detach(self, user_id: str) -> None:
        """Remove a receiver."""

    def enroll(self, user_id: str,
               audiences: Sequence[Hashable] = GROUP) -> None:
        """Make an attached receiver a member of exactly ``audiences``."""
        self.audience.enroll(user_id, audiences)

    @abstractmethod
    def send(self, outbound: OutboundMessage) -> None:
        """Deliver ``outbound`` to whom its address reaches."""

    def send_all(self, messages: List[OutboundMessage]) -> None:
        """Send a batch of outbound messages."""
        for message in messages:
            self.send(message)
