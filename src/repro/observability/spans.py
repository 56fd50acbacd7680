"""Hierarchical spans with stable trace/span identifiers.

One *trace* follows a single protocol operation end to end — a join
request arriving over UDP, the rekey pipeline run it triggers, the
dispatch of the resulting messages — as a tree of *spans*, each a named
timed region with attributes and an error flag.

Identifiers are small integers drawn from per-tracer counters, so a
seeded run produces the same IDs every time (no clock or RNG
involvement; ``PYTHONHASHSEED`` cannot perturb them).  In-process
propagation is implicit: ``tracer.span(...)`` parents itself to the
innermost active span on the current thread.  Cross-process propagation
uses :func:`attach_trace_trailer` / :func:`split_trace_trailer`: a
20-byte trailer (magic + trace id + span id) appended *after* the
encoded protocol message, so the message's own wire bytes are untouched
and receivers without telemetry parse the datagram unchanged (the
decoder ignores trailing bytes).

The default everywhere is :data:`NULL_TRACER`, whose ``span`` returns a
shared no-op span — tracing costs nothing unless a caller opts in.
"""

from __future__ import annotations

import struct
import threading
import time
from typing import Any, Dict, List, NamedTuple, Optional, Tuple, Union

#: Out-of-band telemetry trailer: magic + trace id + span id.
TRAILER_MAGIC = b"KGT1"
_TRAILER = struct.Struct(">QQ")
TRAILER_SIZE = len(TRAILER_MAGIC) + _TRAILER.size


class SpanContext(NamedTuple):
    """The propagatable identity of a span."""

    trace_id: int
    span_id: int


NULL_CONTEXT = SpanContext(0, 0)


def attach_trace_trailer(payload: bytes, context: SpanContext) -> bytes:
    """Append the out-of-band telemetry trailer to a datagram payload."""
    return payload + TRAILER_MAGIC + _TRAILER.pack(context.trace_id,
                                                   context.span_id)


def split_trace_trailer(datagram: bytes
                        ) -> Tuple[bytes, Optional[SpanContext]]:
    """Strip a telemetry trailer if present; returns (payload, context).

    Datagrams without the trailer come back unchanged with a ``None``
    context, so receivers handle traced and untraced peers uniformly.
    """
    if (len(datagram) >= TRAILER_SIZE
            and datagram[-TRAILER_SIZE:-_TRAILER.size] == TRAILER_MAGIC):
        trace_id, span_id = _TRAILER.unpack(datagram[-_TRAILER.size:])
        return datagram[:-TRAILER_SIZE], SpanContext(trace_id, span_id)
    return datagram, None


class Span:
    """One named timed region within a trace."""

    __slots__ = ("name", "context", "parent_id", "attributes", "start_ns",
                 "end_ns", "error", "_tracer")

    def __init__(self, tracer: "Tracer", name: str, context: SpanContext,
                 parent_id: int, attributes: Dict[str, Any]):
        self.name = name
        self.context = context
        self.parent_id = parent_id
        self.attributes = attributes
        self.start_ns = time.perf_counter_ns()
        self.end_ns: Optional[int] = None
        self.error = False
        self._tracer = tracer

    @property
    def trace_id(self) -> int:
        """The owning trace's identifier."""
        return self.context.trace_id

    @property
    def span_id(self) -> int:
        """This span's identifier."""
        return self.context.span_id

    @property
    def duration_ns(self) -> int:
        """Elapsed nanoseconds (up to now while the span is open)."""
        end = self.end_ns if self.end_ns is not None else \
            time.perf_counter_ns()
        return end - self.start_ns

    def set(self, key: str, value: Any) -> "Span":
        """Attach one attribute; returns self for chaining."""
        self.attributes[key] = value
        return self

    def finish(self, error: bool = False) -> None:
        """Close the span (idempotent) and hand it to the tracer."""
        if self.end_ns is not None:
            return
        self.end_ns = time.perf_counter_ns()
        if error:
            self.error = True
        self._tracer._finished(self)

    def __enter__(self) -> "Span":
        self._tracer._push(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer._pop(self)
        self.finish(error=exc_type is not None)

    def __repr__(self) -> str:
        flag = " ERROR" if self.error else ""
        return (f"Span({self.name!r}, trace={self.trace_id}, "
                f"span={self.span_id}, parent={self.parent_id}{flag})")


class Tracer:
    """Creates spans, tracks the active span stack, retains finished ones.

    Finished spans are kept in a bounded ring (oldest dropped first) so
    long-running servers can stay traced without unbounded growth.
    """

    enabled = True

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._spans: List[Span] = []
        self._dropped = 0
        self._next_trace = 0
        self._next_span = 0
        self._active = threading.local()

    # -- span creation ------------------------------------------------------

    def span(self, name: str,
             parent: Union[Span, SpanContext, None] = None,
             **attributes: Any) -> Span:
        """Open a span.

        With no explicit ``parent``, the innermost active span on this
        thread is the parent; with no active span either, the span roots
        a fresh trace.  Pass a remote :class:`SpanContext` to continue a
        trace that arrived over the wire.
        """
        if parent is None:
            parent = self.current()
        with self._lock:
            self._next_span += 1
            span_id = self._next_span
            if parent is None:
                self._next_trace += 1
                trace_id, parent_id = self._next_trace, 0
            elif isinstance(parent, Span):
                trace_id, parent_id = parent.trace_id, parent.span_id
            else:
                trace_id, parent_id = parent.trace_id, parent.span_id
        return Span(self, name, SpanContext(trace_id, span_id), parent_id,
                    dict(attributes))

    def current(self) -> Optional[Span]:
        """The innermost active span on this thread (None outside spans)."""
        stack = getattr(self._active, "stack", None)
        return stack[-1] if stack else None

    # -- bookkeeping --------------------------------------------------------

    def _push(self, span: Span) -> None:
        stack = getattr(self._active, "stack", None)
        if stack is None:
            stack = self._active.stack = []
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = getattr(self._active, "stack", None)
        if stack and stack[-1] is span:
            stack.pop()

    def _finished(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)
            if len(self._spans) > self.capacity:
                del self._spans[0]
                self._dropped += 1

    # -- queries ------------------------------------------------------------

    def finished(self) -> List[Span]:
        """Finished spans, oldest first."""
        with self._lock:
            return list(self._spans)

    def trace(self, trace_id: int) -> List[Span]:
        """Finished spans of one trace, in finish order."""
        return [span for span in self.finished()
                if span.trace_id == trace_id]

    @property
    def dropped(self) -> int:
        """Finished spans evicted by the ring."""
        return self._dropped

    def clear(self) -> None:
        """Forget every finished span (identifier counters keep going)."""
        with self._lock:
            self._spans.clear()
            self._dropped = 0

    def export(self) -> List[dict]:
        """Finished spans as JSON-friendly dicts (for snapshot sidecars).

        ``start_ns`` is the span's ``perf_counter_ns`` start — only
        offsets between spans of one process are meaningful, which is
        exactly what the timeline renderer needs for its waterfall.
        """
        return [{
            "name": span.name,
            "trace_id": span.trace_id,
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "start_ns": span.start_ns,
            "duration_ns": span.duration_ns,
            "error": span.error,
            "attributes": dict(span.attributes),
        } for span in self.finished()]


class _NullSpan:
    """Shared no-op span."""

    __slots__ = ()

    name = ""
    context = NULL_CONTEXT
    trace_id = 0
    span_id = 0
    parent_id = 0
    attributes: Dict[str, Any] = {}
    start_ns = 0
    end_ns = 0
    duration_ns = 0
    error = False

    def set(self, key: str, value: Any) -> "_NullSpan":
        """Discard."""
        return self

    def finish(self, error: bool = False) -> None:
        """Nothing to finish."""

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


NULL_SPAN = _NullSpan()


class NullTracer:
    """Zero-overhead tracer: every span is the shared no-op span."""

    __slots__ = ()

    enabled = False
    capacity = 0
    dropped = 0

    def span(self, name: str, parent=None, **attributes: Any) -> _NullSpan:
        """The shared no-op span."""
        return NULL_SPAN

    def current(self) -> None:
        """Never inside a span."""
        return None

    def finished(self) -> List[Span]:
        """Always empty."""
        return []

    def trace(self, trace_id: int) -> List[Span]:
        """Always empty."""
        return []

    def export(self) -> List[dict]:
        """Always empty."""
        return []

    def clear(self) -> None:
        """Nothing to clear."""


NULL_TRACER = NullTracer()
