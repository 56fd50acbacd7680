"""Reliable delivery over a lossy transport.

The paper assumes "a reliable message delivery system, for both unicast
and multicast".  This layer provides it over the simulated lossy bus:
every (message, receiver) copy is retried until delivered or until
``max_attempts``; receivers deduplicate by envelope sequence number so a
retransmitted copy that raced a late original is processed once.

The envelope is 12 bytes — sequence number (8) and attempt counter (4) —
prepended to the payload.

Deduplication state is a **bounded sliding window** per receiver (not an
ever-growing set): sequence numbers at or below ``max_seen - window`` are
treated as duplicates outright — by then any legitimate original or
retransmission has long been superseded — so memory stays O(window) per
receiver over an unbounded workload.

The underlying transport only needs ``attach``/``detach``/``deliver_to``
and an ``audience`` index (duck-typed), so a
:class:`~repro.chaos.faults.ChaosTransport` can sit between this layer
and the raw bus.  Group addresses resolve from that shared index.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict

from ..core.messages import OutboundMessage
from .base import Transport

_ENVELOPE = struct.Struct(">QI")

#: Default dedup window width (sequence numbers remembered per receiver).
DEFAULT_DEDUP_WINDOW = 1024


class DeliveryFailure(RuntimeError):
    """Raised when a copy cannot be delivered within ``max_attempts``."""


class _DedupWindow:
    """Sliding-window duplicate detector over 64-bit sequence numbers.

    Remembers at most ~2x ``window`` recent sequence numbers; anything
    older than ``max_seen - window`` is reported as a duplicate without
    being stored.  ``seen()`` both tests and records.
    """

    __slots__ = ("window", "max_seen", "_recent")

    def __init__(self, window: int = DEFAULT_DEDUP_WINDOW):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self.max_seen = 0
        self._recent: set = set()

    def __len__(self) -> int:
        return len(self._recent)

    def seen(self, seq: int) -> bool:
        """True iff ``seq`` was already processed (or fell off the window)."""
        if seq <= self.max_seen - self.window:
            return True  # beyond the horizon: stale by construction
        if seq in self._recent:
            return True
        self._recent.add(seq)
        if seq > self.max_seen:
            self.max_seen = seq
            # Amortized prune: drop everything past the horizon once the
            # set grows to twice the window.
            if len(self._recent) > 2 * self.window:
                horizon = self.max_seen - self.window
                self._recent = {s for s in self._recent if s > horizon}
        return False


class ReliableDelivery(Transport):
    """Ack/retransmit wrapper around an in-memory style transport."""

    def __init__(self, network, max_attempts: int = 16,
                 dedup_window: int = DEFAULT_DEDUP_WINDOW, registry=None):
        super().__init__(registry)
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self._network = network
        self.audience = network.audience
        self._max_attempts = max_attempts
        self._dedup_window = dedup_window
        self._seq = 0
        self._seen: Dict[str, _DedupWindow] = {}

    def attach(self, user_id: str, handler: Callable[[bytes], None]) -> None:
        """Register a receiver behind the dedup layer."""
        self._seen[user_id] = _DedupWindow(self._dedup_window)

        def deduplicating_handler(enveloped: bytes) -> None:
            seq, _attempt = _ENVELOPE.unpack_from(enveloped, 0)
            if self._seen[user_id].seen(seq):
                return  # duplicate of an already-processed copy
            handler(enveloped[_ENVELOPE.size:])

        self._network.attach(user_id, deduplicating_handler)

    def detach(self, user_id: str) -> None:
        """Remove a receiver and its dedup state."""
        self._network.detach(user_id)
        self._seen.pop(user_id, None)

    def send(self, outbound: OutboundMessage) -> None:
        """Deliver every copy, retrying lost ones."""
        payload = outbound.encoded or outbound.message.encode()
        self._seq += 1
        seq = self._seq
        self.stats.bytes_sent += len(payload)
        for user_id in self.audience.receivers(outbound):
            self._send_copy(user_id, seq, payload)

    def _send_copy(self, user_id: str, seq: int, payload: bytes) -> None:
        for attempt in range(self._max_attempts):
            enveloped = _ENVELOPE.pack(seq, attempt) + payload
            if attempt:
                self.stats.retransmissions += 1
                self._network.stats.retransmissions += 1
            if self._network.deliver_to(user_id, enveloped):
                self.stats.deliveries += 1
                self.stats.bytes_delivered += len(payload)
                return
        raise DeliveryFailure(
            f"copy of seq {seq} to {user_id!r} lost "
            f"{self._max_attempts} times")
