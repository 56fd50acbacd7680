"""Socket fan-out: the async serving layer's outbound transport.

The simulation transports (:mod:`repro.transport.inmemory`) deliver by
calling member handlers; a live server instead *sends* — each member's
join registered a reply path (a UDP source address or a TCP stream),
and a rekey multicast fans out one datagram per distinct reply path.

:class:`SocketFanout` implements the :class:`~repro.transport.base.
Transport` interface over such reply paths, which makes the PR5
recovery stack work unmodified against live sockets: a
:class:`~repro.recovery.manager.RecoveryManager` pushes resyncs and
eviction rekeys through ``send``/``send_all`` exactly as it does over
the in-memory bus.

Addresses resolve through the transport's
:class:`~repro.transport.audience.AudienceIndex` (see that module for
the index invariant and the ordering rules the serving core keeps): a
group address is written once to every reply path of its audience —
O(reply paths), whatever the group size, and without reading the
message's ``receivers``; an explicit address (unicast, ``to_users``,
subcast targets, the key-/user-oriented subgroups) is looked up
receiver by receiver.

Serving-specific behaviours, the same for both address kinds:

* **Address-level dedup** — the load generator multiplexes thousands
  of simulated clients over a few sockets, so a group-wide rekey to
  10,000 members must not become 10,000 loopback datagrams to 32
  addresses.  ``send`` emits one copy per *distinct* reply path, which
  is exactly real multicast semantics (the paper's server sends to a
  group address, not per member).
* **A per-copy drop filter** — the chaos harness injects loss between
  the serialized message and the socket (``drop_filter(user_id,
  payload) -> bool``, asked once per distinct path with the earliest
  member on it), so the PR5 fault profiles apply to the async front
  end without a custom lossy socket layer.
"""

from __future__ import annotations

from typing import Callable, Hashable, Optional, Sequence

from ..core.messages import OutboundMessage
from ..observability.metrics import MetricRegistry
from ..transport.audience import GROUP, SendFn
from ..transport.base import Transport


class SocketFanout(Transport):
    """Fan outbound messages out to registered per-user reply paths."""

    def __init__(self, registry: Optional[MetricRegistry] = None):
        super().__init__(registry)
        #: Optional chaos hook: ``drop_filter(user_id, payload)`` True
        #: drops that path's copy before the socket write.
        self.drop_filter: Optional[Callable[[str, bytes], bool]] = None

    def attach(self, user_id: str, handler: SendFn,
               path_id: Optional[Hashable] = None,
               audiences: Sequence[Hashable] = GROUP) -> None:
        """Register ``user_id``'s reply path (see
        :meth:`~repro.transport.audience.AudienceIndex.attach`)."""
        self.audience.attach(user_id, handler, path_id, audiences)

    def detach(self, user_id: str) -> None:
        """Remove a reply path (no-op when absent)."""
        self.audience.detach(user_id)

    def send(self, outbound: OutboundMessage,
             payload: Optional[bytes] = None) -> None:
        """Deliver ``outbound`` once per distinct reply path.

        ``payload`` overrides the wire bytes (used to append trailers);
        default is the outbound's encoded message.
        """
        data = payload if payload is not None else (
            outbound.encoded or outbound.message.encode())
        copies = self.audience.copies(outbound)
        if len(copies) > 1:
            self.stats.multicast_sends += 1
        elif copies:
            self.stats.unicast_sends += 1
        drop_filter = self.drop_filter
        for user_id, send_fn in copies:
            # A lost multicast datagram is lost for every member behind
            # that path, so the filter is asked once per path.
            if drop_filter is not None and drop_filter(user_id, data):
                self.stats.drops += 1
                continue
            try:
                send_fn(data)
            except OSError:
                self.stats.drops += 1
                continue
            self.stats.bytes_sent += len(data)
            self.stats.deliveries += 1
            self.stats.bytes_delivered += len(data)
