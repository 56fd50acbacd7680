"""Deterministic in-process message bus.

One multicast send counts once on the sender side (the paper's server
sends each rekey message exactly once, via group or subgroup multicast)
but is delivered to every receiver; per-receiver byte accounting feeds
the client-side tables (Table 6).  Every user is its own reply path,
so a group address reaches each subscribed member once, in subscription
order (:mod:`repro.transport.audience`).

Loss injection (``drop_rate``) drops individual *deliveries* (as real
multicast does — different receivers can lose different copies), driven
by a seeded DRBG so experiments stay reproducible.  Pair with
:mod:`repro.transport.reliable` for guaranteed delivery over a lossy bus.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..core.messages import DEST_USER, OutboundMessage
from ..crypto import drbg
from .base import Transport


class UnknownReceiverError(KeyError):
    """Raised when a message targets a user with no attached handler."""


class InMemoryNetwork(Transport):
    """Synchronous in-process transport."""

    def __init__(self, drop_rate: float = 0.0, seed: Optional[bytes] = None,
                 strict: bool = True, registry=None):
        super().__init__(registry)
        if not 0.0 <= drop_rate < 1.0:
            raise ValueError("drop_rate must be in [0, 1)")
        self._drop_rate = drop_rate
        self._random = drbg.make_source(seed or b"inmemory-network")
        self._strict = strict
        # Messages to users with no handler (when strict=False).
        self.undeliverable: int = 0

    def attach(self, user_id: str, handler: Callable[[bytes], None]) -> None:
        """Register a receiver handler (subscribed to the whole group)."""
        self.audience.attach(user_id, handler, user_id)

    def detach(self, user_id: str) -> None:
        """Remove a receiver handler."""
        self.audience.detach(user_id)

    def _should_drop(self) -> bool:
        if not self._drop_rate:
            return False
        # 20-bit fixed point comparison keeps the DRBG draw cheap.
        threshold = int(self._drop_rate * (1 << 20))
        return self._random.randint_below(1 << 20) < threshold

    def send(self, outbound: OutboundMessage) -> None:
        """Deliver to whom the address reaches (loss applied per copy)."""
        payload = outbound.encoded or outbound.message.encode()
        self.stats.bytes_sent += len(payload)
        if outbound.destination.kind == DEST_USER:
            self.stats.unicast_sends += 1
        else:
            self.stats.multicast_sends += 1
        for user_id in self.audience.receivers(outbound):
            self.deliver_to(user_id, payload)

    def deliver_to(self, user_id: str, payload: bytes) -> bool:
        """Deliver one copy; returns False if dropped or unaddressable."""
        handler = self.audience.send_fn(user_id)
        if handler is None:
            if self._strict:
                raise UnknownReceiverError(user_id)
            self.undeliverable += 1
            return False
        if self._should_drop():
            self.stats.drops += 1
            return False
        handler(payload)
        self.stats.deliveries += 1
        self.stats.bytes_delivered += len(payload)
        return True
