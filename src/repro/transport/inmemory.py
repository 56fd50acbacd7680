"""Deterministic in-process message bus.

One multicast send counts once on the sender side (the paper's server
sends each rekey message exactly once, via group or subgroup multicast)
but is delivered to every receiver; per-receiver byte accounting feeds
the client-side tables (Table 6).  Every user is its own reply path,
so a group address reaches each subscribed member once, in subscription
order (:mod:`repro.transport.audience`).

The bus is lossless.  For loss, wrap it in a
:class:`~repro.chaos.faults.ChaosTransport` (seeded per-copy drops, as
real multicast loses different copies at different receivers), and put
:class:`~repro.transport.reliable.ReliableDelivery` on top for
guaranteed delivery over it.
"""

from __future__ import annotations

from typing import Callable

from ..core.messages import DEST_USER, OutboundMessage
from .base import Transport


class UnknownReceiverError(KeyError):
    """Raised when a message targets a user with no attached handler."""


class InMemoryNetwork(Transport):
    """Synchronous in-process transport."""

    def __init__(self, strict: bool = True, registry=None):
        super().__init__(registry)
        self._strict = strict
        # Messages to users with no handler (when strict=False).
        self.undeliverable: int = 0

    def attach(self, user_id: str, handler: Callable[[bytes], None]) -> None:
        """Register a receiver handler (subscribed to the whole group)."""
        self.audience.attach(user_id, handler, user_id)

    def detach(self, user_id: str) -> None:
        """Remove a receiver handler."""
        self.audience.detach(user_id)

    def send(self, outbound: OutboundMessage) -> None:
        """Deliver to whom the address reaches."""
        payload = outbound.encoded or outbound.message.encode()
        self.stats.bytes_sent += len(payload)
        if outbound.destination.kind == DEST_USER:
            self.stats.unicast_sends += 1
        else:
            self.stats.multicast_sends += 1
        for user_id in self.audience.receivers(outbound):
            self.deliver_to(user_id, payload)

    def deliver_to(self, user_id: str, payload: bytes) -> bool:
        """Deliver one copy; returns False if unaddressable."""
        handler = self.audience.send_fn(user_id)
        if handler is None:
            if self._strict:
                raise UnknownReceiverError(user_id)
            self.undeliverable += 1
            return False
        handler(payload)
        self.stats.deliveries += 1
        self.stats.bytes_delivered += len(payload)
        return True
