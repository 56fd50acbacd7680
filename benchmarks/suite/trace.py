"""Run-time timing wrappers around the repository's public entry points.

The traced run measures every layer *from outside*: ``install_*``
replaces public methods with wrappers that record a span (name, start,
end, parent, request id) and restores them on ``uninstall``.  Nothing
under ``src/`` is edited; spans inside the program are a later change.

Parent links follow the call stack per thread.  Two things cross
threads or awaits and are linked explicitly:

* ``AsyncServingCore.submit`` is a coroutine that other requests
  interleave with, so its span is kept in a context variable (each
  datagram is served in its own task) instead of on the thread stack;
* the worker pool does not propagate context variables, so
  ``InstrumentedExecutor.submit`` is wrapped to carry the submitting
  request's context into the worker and to record the queue wait.

Self time of a span = its duration minus the part covered by children
(``covered`` below).  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import contextvars
import json
import threading
import time
from typing import Callable, Dict, List, Optional

_now = time.perf_counter

# Span record layout (a list, mutated in place when the call returns).
NAME, START, END, PARENT, RID, CURSOR = range(6)


class Recorder:
    """Collects spans and boundary counts for one process."""

    def __init__(self, process: str):
        self.process = process
        self.spans: List[list] = []
        self.counts: Dict[str, int] = {}
        self._stack = threading.local()
        self._rid = contextvars.ContextVar("suite_rid", default=0)
        self._task_span = contextvars.ContextVar("suite_span", default=None)
        self._undo: List[Callable[[], None]] = []
        self._wrapped = set()

    # -- recording ---------------------------------------------------------

    def _parent(self) -> Optional[list]:
        stack = getattr(self._stack, "spans", None)
        return stack[-1] if stack else self._task_span.get()

    def _open(self, name: str) -> list:
        stack = getattr(self._stack, "spans", None)
        if stack is None:
            stack = self._stack.spans = []
        span = [name, _now(), 0.0, self._parent(), self._rid.get(), 0.0]
        self.spans.append(span)
        stack.append(span)
        return span

    def _close(self, span: list, boundary: bool) -> None:
        span[END] = _now()
        self._stack.spans.pop()
        if boundary and span[PARENT] is not None:
            span[PARENT][CURSOR] = span[END]

    def mark(self, name: str) -> None:
        """A child span from the enclosing span's last boundary to now.

        Used from pipeline stage hooks, which fire *after* a stage: the
        stage ran since the enclosing call started, or since its last
        mark or ``boundary`` child (the turnstile wait before signing).
        """
        parent = self._parent()
        if parent is None:
            return
        end = _now()
        self.spans.append([name, parent[CURSOR] or parent[START], end,
                           parent, parent[RID], 0.0])
        parent[CURSOR] = end

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- wrapping ----------------------------------------------------------

    def _replace(self, owner, attr: str, make) -> None:
        # The server- and client-side sets overlap (Message); in the
        # single-process workload each name is still wrapped once.
        if (id(owner), attr) in self._wrapped:
            return
        self._wrapped.add((id(owner), attr))
        raw = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        if isinstance(raw, classmethod):
            wrapped = classmethod(make(raw.__func__))
        else:
            wrapped = make(raw)
        setattr(owner, attr, wrapped)
        self._undo.append(lambda: setattr(owner, attr, raw))

    def wrap(self, owner, attr: str, name: str,
             count: Optional[Callable[..., int]] = None,
             boundary: bool = False) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``count(*args, **kwargs)`` optionally adds to the boundary count
        of the same name (work done, counted where it happens).  A
        ``boundary`` span's end is where the next ``mark`` starts.
        """
        def make(fn):
            def wrapper(*args, **kwargs):
                span = self._open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(span, boundary)
                    if count is not None:
                        self.count(name, count(*args, **kwargs))
            wrapper.__wrapped__ = fn
            return wrapper
        self._replace(owner, attr, make)

    def wrap_request(self, owner, attr: str, name: str,
                     request_id: Callable[[bytes], int]) -> None:
        """Time ``submit(data, reply, path_id)``; its span roots a request.

        The reply callable is wrapped too, so the moment the direct
        reply leaves (a ``<name>.reply`` point span) is known: residence
        goes on after it (tracking, lock hand-back), the client's wait
        does not.
        """
        def make(fn):
            async def wrapper(core, data, reply, path_id=None):
                rid = request_id(data)
                span = [name, _now(), 0.0, None, rid, 0.0]
                self.spans.append(span)

                def timed_reply(payload):
                    # The callable outlives the request as the member's
                    # fan-out path; only in-request sends are replies.
                    if not span[END]:
                        now = _now()
                        self.spans.append([name + ".reply", now, now, span,
                                           rid, 0.0])
                    reply(payload)
                rid_token = self._rid.set(rid)
                span_token = self._task_span.set(span)
                try:
                    return await fn(core, data, timed_reply, path_id)
                finally:
                    span[END] = _now()
                    self._task_span.reset(span_token)
                    self._rid.reset(rid_token)
            wrapper.__wrapped__ = fn
            return wrapper
        self._replace(owner, attr, make)

    def wrap_executor(self, executor_cls, name: str) -> None:
        """Carry request context into pool workers; span the queue wait."""
        def make(fn):
            def submit(pool, task, /, *args, **kwargs):
                context = contextvars.copy_context()
                queued = _now()
                parent = self._task_span.get()
                rid = self._rid.get()

                def run():
                    self.spans.append([name, queued, _now(), parent, rid,
                                       0.0])
                    return context.run(task, *args, **kwargs)
                return fn(pool, run)
            submit.__wrapped__ = fn
            return submit
        self._replace(executor_cls, "submit", make)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()
        self._wrapped.clear()

    # -- export ------------------------------------------------------------

    def export(self) -> List[dict]:
        """Spans as JSON-ready dicts; parents become list indexes."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        return [{"name": span[NAME], "start": span[START],
                 "end": span[END] or span[START],
                 "parent": index.get(id(span[PARENT]), -1)
                 if span[PARENT] is not None else -1,
                 "rid": span[RID], "process": self.process}
                for span in self.spans]


def merge(first: List[dict], second: List[dict]) -> List[dict]:
    """Concatenate two processes' exports, keeping parent indexes valid."""
    shift = len(first)
    return first + [dict(span, parent=span["parent"] + shift
                         if span["parent"] >= 0 else -1)
                    for span in second]


def dump(path: str, workload: str, spans: List[dict],
         counts: Dict[str, int]) -> None:
    """Write the in-memory trace out (once, when the benchmark ends)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"schema": "suite-trace/1", "workload": workload,
                   "clock": "perf_counter seconds (CLOCK_MONOTONIC)",
                   "counts": counts, "spans": spans}, handle)
        handle.write("\n")


# -- what gets wrapped ---------------------------------------------------------


def install_server_side(rec: Recorder) -> None:
    """Wrap the server-process entry points of every layer."""
    from repro.cluster.coordinator import ClusterCoordinator
    from repro.core.messages import Message
    from repro.core.pipeline import SealTurnstile
    from repro.core.server import GroupKeyServer, StagedRekeyOp
    from repro.crypto import rsa
    from repro.recovery.manager import RecoveryManager
    from repro.serve import core as serve_core
    from repro.serve.fanout import SocketFanout
    from repro.serve.health import InstrumentedExecutor
    from repro.serve.wire import split_corr_trailer

    for attr in ("begin_join", "begin_leave", "resync", "subcast"):
        rec.wrap(GroupKeyServer, attr, f"server.{attr}")
    for attr in ("encrypt", "seal"):
        rec.wrap(StagedRekeyOp, attr, f"op.{attr}")
    # A cluster's root-layer stages are marked from where the shard
    # op's last stage ended.
    rec.wrap(StagedRekeyOp, "finish", "op.finish", boundary=True)
    rec.wrap(SealTurnstile, "wait", "pipeline.turnstile_wait",
             boundary=True)
    rec.wrap(rsa, "sign_digest", "crypto.rsa_sign")
    rec.wrap(Message, "encode", "msg.encode")
    rec.wrap(Message, "decode", "msg.decode")
    # ``core`` binds split_trailers by name at import, so the binding
    # it actually calls is the one in its own namespace.
    rec.wrap(serve_core, "split_trailers", "wire.split_trailers")
    rec.wrap_request(
        serve_core.AsyncServingCore, "submit", "serve.submit",
        lambda data: split_corr_trailer(data)[1] or 0)
    rec.wrap(serve_core.AsyncServingCore, "submit_nowait",
             "serve.submit_nowait")
    rec.wrap_executor(InstrumentedExecutor, "serve.executor_wait")
    rec.wrap(SocketFanout, "send", "fanout.send",
             count=lambda fanout, outbound, *rest, **kw:
             len(outbound.receivers))
    for attr in ("join", "leave", "shard_of", "resync"):
        rec.wrap(ClusterCoordinator, attr, f"cluster.{attr}")
    for attr in ("heartbeat", "tick"):
        rec.wrap(RecoveryManager, attr, f"recovery.{attr}")


def hook_pipeline(rec: Recorder, pipeline, prefix: str = "pipeline",
                  stages=("plan", "sign")) -> None:
    """Mark stage boundaries of one ``RekeyPipeline`` as child spans.

    ``add_hook`` fires after a stage, inside the wrapped ``begin_*`` /
    ``seal`` call (or, for a cluster's root layer, inside the wrapped
    ``ClusterCoordinator.join``), which is the enclosing span
    ``Recorder.mark`` needs.  Hooks cannot be removed; they are inert
    once the wrappers are uninstalled, because no span encloses them.
    """
    for stage in stages:
        pipeline.add_hook(
            stage, lambda run, name=f"{prefix}.{stage}": rec.mark(name))


def install_client_side(rec: Recorder) -> None:
    """Wrap the receiver entry points used by the load generator."""
    from repro.core.client import GroupClient
    from repro.core.messages import Message

    for attr in ("process_message", "process_control", "process_resync"):
        rec.wrap(GroupClient, attr, f"client.{attr}")
    rec.wrap(Message, "encode", "msg.encode")
    rec.wrap(Message, "decode", "msg.decode")


# -- analysis -------------------------------------------------------------------


def covered(span: dict, children: List[dict]) -> float:
    """Seconds of ``span`` covered by the union of its children."""
    total = 0.0
    edge = span["start"]
    for child in sorted(children, key=lambda c: c["start"]):
        start = max(child["start"], edge)
        end = min(child["end"], span["end"])
        if end > start:
            total += end - start
            edge = end
    return total


class SpanTable:
    """Self time and totals by span name over one traced window."""

    def __init__(self, spans: List[dict], start: float, end: float):
        # Only spans that began inside the window: a request that
        # straddles the boundary belongs to the side it started on.
        self.all = spans
        self.spans = [s for s in spans if start <= s["start"] < end]
        self.children: Dict[int, List[dict]] = {}
        for span in spans:
            if span["parent"] >= 0:
                self.children.setdefault(
                    id(spans[span["parent"]]), []).append(span)
        self.by_name: Dict[str, List[dict]] = {}
        for span in self.spans:
            self.by_name.setdefault(span["name"], []).append(span)

    def named(self, name: str) -> List[dict]:
        return self.by_name.get(name, [])

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.named(name))

    def self_time(self, name: str) -> float:
        return sum(s["end"] - s["start"]
                   - covered(s, self.children.get(id(s), []))
                   for s in self.named(name))

    def calls(self, name: str) -> int:
        return len(self.named(name))

    def descendants(self, span: dict) -> List[dict]:
        out: List[dict] = []
        frontier = [span]
        while frontier:
            kids = self.children.get(id(frontier.pop()), [])
            out.extend(kids)
            frontier.extend(kids)
        return out
