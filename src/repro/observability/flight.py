"""Always-on per-operation flight recorder.

A bounded ring of structured events — stage enters/exits, lock and
turnstile waits, sheds, errors, injected faults — cheap enough to leave
enabled on the hot path (one tuple append under a lock per event) yet
rich enough to reconstruct the last moments before an incident.

The recorder never writes anything on its own: :meth:`FlightRecorder.dump`
freezes the ring into a JSON-friendly document, and :meth:`maybe_dump`
rate-limits automatic dumps (on error, SLO breach, or operator signal)
so a crash loop cannot flood the disk.  Documents carry a schema tag and
are checked by :func:`validate_flight`, which CI runs against live
dumps.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Schema tag stamped into every dumped document.
FLIGHT_SCHEMA = "repro-flight/1"

#: Minimum seconds between automatic dumps (see :meth:`maybe_dump`).
DUMP_MIN_INTERVAL_S = 1.0


class FlightError(Exception):
    """A flight-recorder document failed validation."""


class FlightRecorder:
    """Bounded ring of ``(seq, t_ns, kind, trace_id, fields)`` events.

    ``kind`` is a short dotted string (``"req"``, ``"done"``,
    ``"shed"``, ``"error"``, ``"fault.drop"`` ...); ``trace_id`` ties
    the event to a distributed trace (0 when untraced); ``fields`` is a
    small dict of extra context.  The ring is preallocated, so steady
    state does no list growth — ``record`` is one lock acquire, one
    tuple build, two index writes.
    """

    __slots__ = ("capacity", "_clock", "_lock", "_ring", "_head", "_seq",
                 "_dropped", "_last_dump_ns", "_dump_count")

    enabled = True

    def __init__(self, capacity: int = 2048,
                 clock: Callable[[], int] = time.monotonic_ns):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._clock = clock
        self._lock = threading.Lock()
        self._ring: List[Optional[Tuple]] = [None] * capacity
        self._head = 0          # next write slot
        self._seq = 0           # events ever recorded
        self._dropped = 0       # events overwritten by the ring
        self._last_dump_ns = 0
        self._dump_count = 0

    # -- recording ----------------------------------------------------------

    def record(self, kind: str, trace_id: int = 0, **fields: Any) -> None:
        """Append one event; overwrites the oldest once the ring is full."""
        t_ns = self._clock()
        with self._lock:
            seq = self._seq
            self._seq = seq + 1
            slot = self._head
            if self._ring[slot] is not None:
                self._dropped += 1
            self._ring[slot] = (seq, t_ns, kind, trace_id, fields)
            self._head = (slot + 1) % self.capacity

    # -- queries ------------------------------------------------------------

    def events(self) -> List[Tuple]:
        """Retained events, oldest first."""
        with self._lock:
            tail = self._ring[self._head:] + self._ring[:self._head]
            return [event for event in tail if event is not None]

    def __len__(self) -> int:
        with self._lock:
            return min(self._seq, self.capacity)

    @property
    def recorded(self) -> int:
        """Events ever recorded (including overwritten ones)."""
        with self._lock:
            return self._seq

    @property
    def dropped(self) -> int:
        """Events overwritten by the ring."""
        with self._lock:
            return self._dropped

    def clear(self) -> None:
        """Forget every retained event (sequence numbers keep going)."""
        with self._lock:
            self._ring = [None] * self.capacity
            self._head = 0
            self._dropped = 0

    # -- dumping ------------------------------------------------------------

    def dump(self, reason: str, path: Optional[str] = None) -> dict:
        """Freeze the ring into a schema-tagged document.

        With ``path`` the document is also written as JSON.  ``reason``
        records what triggered the dump (``"error"``, ``"slo-breach"``,
        ``"signal"``, ``"chaos"`` ...).
        """
        now_ns = self._clock()
        events = [{
            "seq": seq,
            "t_ns": t_ns,
            "kind": kind,
            "trace_id": trace_id,
            "fields": dict(fields),
        } for seq, t_ns, kind, trace_id, fields in self.events()]
        with self._lock:
            self._dump_count += 1
            document = {
                "schema": FLIGHT_SCHEMA,
                "reason": reason,
                "dumped_at_ns": now_ns,
                "capacity": self.capacity,
                "recorded": self._seq,
                "dropped": self._dropped,
                "events": events,
            }
        if path is not None:
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(document, handle, indent=2, sort_keys=True,
                          default=str)
                handle.write("\n")
        return document

    def maybe_dump(self, reason: str,
                   path: Optional[str] = None) -> Optional[dict]:
        """Dump unless one happened within :data:`DUMP_MIN_INTERVAL_S`.

        The rate limit keeps automatic triggers (per-request errors, SLO
        evaluation ticks) from turning an incident into a disk flood;
        returns the document, or None when suppressed.
        """
        now_ns = self._clock()
        with self._lock:
            if (self._last_dump_ns
                    and now_ns - self._last_dump_ns
                    < DUMP_MIN_INTERVAL_S * 1e9):
                return None
            self._last_dump_ns = now_ns
        return self.dump(reason, path)

    @property
    def dump_count(self) -> int:
        """Documents produced by :meth:`dump` so far."""
        with self._lock:
            return self._dump_count


def validate_flight(document: dict) -> dict:
    """Check a flight-recorder document's shape; returns it unchanged.

    Raises :class:`FlightError` naming the first problem found.
    """
    if not isinstance(document, dict):
        raise FlightError("flight document must be a dict")
    if document.get("schema") != FLIGHT_SCHEMA:
        raise FlightError(
            f"unknown flight schema {document.get('schema')!r} "
            f"(expected {FLIGHT_SCHEMA!r})")
    for key in ("reason", "dumped_at_ns", "capacity", "recorded",
                "dropped", "events"):
        if key not in document:
            raise FlightError(f"flight document missing {key!r}")
    if not isinstance(document["reason"], str):
        raise FlightError("reason must be a string")
    events = document["events"]
    if not isinstance(events, list):
        raise FlightError("events must be a list")
    last_seq = -1
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            raise FlightError(f"events[{index}] must be a dict")
        for key in ("seq", "t_ns", "kind", "trace_id", "fields"):
            if key not in event:
                raise FlightError(f"events[{index}] missing {key!r}")
        if not isinstance(event["kind"], str) or not event["kind"]:
            raise FlightError(f"events[{index}] kind must be a non-empty "
                              f"string")
        if not isinstance(event["fields"], dict):
            raise FlightError(f"events[{index}] fields must be a dict")
        seq = event["seq"]
        if not isinstance(seq, int) or seq <= last_seq:
            raise FlightError(
                f"events[{index}] seq {seq!r} not strictly increasing")
        last_seq = seq
    return document
