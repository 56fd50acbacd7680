"""The async serving core: event-loop front end over pipelined rekeying.

One :class:`AsyncServingCore` sits behind any number of socket
endpoints (:mod:`repro.serve.endpoint`).  Endpoints hand it raw
datagrams/frames plus a reply callable; the core parses, admits,
dispatches, and routes the outputs — direct replies back through the
callable, group traffic through a :class:`~repro.serve.fanout.
SocketFanout`.

Concurrency model (one process, GIL, possibly one core):

* **Parsing, admission and rekey *planning* run on the event loop.**
  Planning must be serialized anyway (it reads and edits the key tree),
  and it is cheap — the tree edit plus key draws.  Keeping it on the
  loop costs nothing and needs no locks against other loop work.
* **Encrypt/sign/dispatch stages run on a worker pool** via
  ``run_in_executor`` as a :class:`~repro.core.server.StagedRekeyOp`.
  The expensive stages of request *N* overlap the planning and parsing
  of request *N+1* — the paper's observation that rekey encryption
  dominates server cost, turned into pipeline overlap.
* **One op lock** (a plain ``threading.Lock``) guards every tree/DRBG
  mutation: planning, recovery ticks, batch flushes.  The loop only
  ever *tries* the lock; when an executor thread holds it (a tick, a
  flush), a rekey op waits for the lock *on a worker* and then still
  plans on the loop — planning anywhere else would draw seal tickets
  out of executor-submission order and void the
  :class:`~repro.core.pipeline.SealTurnstile`'s no-deadlock
  invariant.  Lock-only helpers (heartbeats, recovery) fall back to
  the executor wholesale instead.

Admission control:

* a bounded in-flight budget for rekey operations — beyond it the
  server sheds with an immediate (unsigned — shedding must be cheap)
  ``MSG_BUSY`` reply instead of queueing unboundedly;
* an optional per-client token bucket over state-changing requests
  (join/leave/resync).  Heartbeats are never capped: punishing
  liveness signals under load would manufacture false evictions.

Fan-out (see :mod:`repro.serve.fanout`): a group rekey arrives at the
fan-out naming its audience and no member, as it does on every
transport; the core keeps the fan-out's audiences equal to the
backend's membership (``backend.audiences``) by applying each op's
membership change at the moment the op's outputs are released — and
releases them strictly in plan order (:mod:`repro.serve.release`).

Three flavors share the skeleton: :class:`ImmediateServingCore` (one
:class:`~repro.core.server.GroupKeyServer`, staged per-request
rekeying), :class:`CoalescingServingCore` (a :class:`~repro.batch.
rekeying.BatchRekeyServer`; concurrent joins/leaves fold into one
flush), and :class:`ClusterServingCore` (a PR4 sharded
:class:`~repro.cluster.coordinator.ClusterCoordinator`).
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..batch.rekeying import BatchError, BatchRekeyServer
from ..cluster.coordinator import ClusterCoordinator, ClusterError
from ..core.messages import (DEST_USER, MSG_BUSY, MSG_HEARTBEAT,
                             MSG_JOIN_ACK, MSG_JOIN_DENIED,
                             MSG_JOIN_REQUEST, MSG_LEAVE_ACK,
                             MSG_LEAVE_DENIED, MSG_LEAVE_REQUEST,
                             MSG_RESYNC_REQUEST, MSG_STATS_REQUEST,
                             MSG_STATS_RESPONSE, MSG_SUBCAST_REQUEST,
                             Message, OutboundMessage, WireError)
from ..core.server import GroupKeyServer, ServerError
from ..observability import LATENCY_BUCKETS_S
from ..observability.export import build_snapshot
from ..subcast.wire import SubcastWireError, parse_subcast_request
from ..observability.flight import FlightRecorder, NULL_FLIGHT
from ..observability.instrumentation import Instrumentation
from ..observability.slo import evaluate as evaluate_slos
from ..recovery.backends import BatchBackend, ClusterBackend, ServerBackend
from ..recovery.manager import (MAX_PUSHES_PER_TICK, RecoveryManager,
                                RecoveryPolicy)
from .config import DEFAULT_WORKERS, ServeConfig, worker_count
from .fanout import SocketFanout
from .health import InstrumentedExecutor, LoopHealthMonitor, WAIT_BUCKETS_S
from .release import ReleaseOrder
from .rpc import IdempotencyCache
from .wire import (attach_corr_trailer, attach_trailers, split_corr_trailer,
                   split_trailers)

_TYPE_NAMES = {
    MSG_JOIN_REQUEST: "join", MSG_LEAVE_REQUEST: "leave",
    MSG_HEARTBEAT: "heartbeat", MSG_RESYNC_REQUEST: "resync",
    MSG_STATS_REQUEST: "stats", MSG_SUBCAST_REQUEST: "subcast",
}

#: Stats-reply size budget: one UDP datagram, with headroom under the
#: 65,507-byte payload ceiling for trailers and kernel quirks.
_MAX_STATS_BODY = 60_000

#: Event-loop lag (seconds) above which the recovery tick sheds its
#: resync pushes; dead-detection and evictions still run.
TICK_SHED_LAG_S = 0.1

#: Reply types that go straight back on the requester's socket (with
#: the request's correlation token echoed) instead of the fan-out.
_DIRECT_TYPES = frozenset({
    MSG_JOIN_ACK, MSG_JOIN_DENIED, MSG_LEAVE_ACK, MSG_LEAVE_DENIED,
    MSG_BUSY,
})


def _corr(payload: bytes, token: Optional[int]) -> bytes:
    """Echo the request's correlation token, when it carried one."""
    if token is None:
        return payload
    return attach_corr_trailer(payload, token)


class AsyncServingCore:
    """Shared skeleton: parse, admit, dispatch, route (see module doc)."""

    flavor = "serve"

    def __init__(self, config: ServeConfig,
                 instrumentation: Instrumentation,
                 workers: int = DEFAULT_WORKERS,
                 recovery_policy: Optional[RecoveryPolicy] = None):
        config.validate()
        self.config = config
        self.instrumentation = instrumentation
        registry = instrumentation.registry
        self._m_requests = registry.counter(
            "serve_requests_total",
            "Requests received by the async front end, by type.",
            labels=("type",))
        self._m_shed = registry.counter(
            "serve_shed_total",
            "Requests shed with MSG_BUSY, by reason.", labels=("reason",))
        self._m_errors = registry.counter(
            "serve_errors_total",
            "Serving-side failures, by operation.", labels=("op",))
        self._m_inflight = registry.gauge(
            "serve_inflight",
            "Admitted rekey operations not yet completed.").labels()
        self._m_rate_limited = registry.counter(
            "serve_rate_limited_total",
            "Requests rejected by the per-client token bucket, by type.",
            labels=("type",))
        self._m_op_lock_wait = registry.histogram(
            "serve_op_lock_wait_seconds",
            "Time spent waiting for the op lock (contended paths only).",
            bounds=WAIT_BUCKETS_S).labels()
        self._m_turnstile_wait = registry.histogram(
            "serve_turnstile_wait_seconds",
            "Time staged seals spent blocked in the SealTurnstile.",
            bounds=WAIT_BUCKETS_S).labels()
        self._m_slo_breaches = registry.counter(
            "serve_slo_breaches_total",
            "Objectives that crossed from compliant to breached.",
            labels=("slo",))
        self._m_subcast_seconds = registry.histogram(
            "serve_subcast_seconds",
            "End-to-end subcast request time (cover + seal + fan-out).",
            bounds=LATENCY_BUCKETS_S).labels()
        self._m_idempotent = registry.counter(
            "serve_idempotent_total",
            "Duplicate correlated requests absorbed by the reply cache: "
            "replayed from cache or suppressed while the original is "
            "in flight.", labels=("result",))
        # Heartbeats dominate a live group's request mix; bind their
        # series once instead of resolving labels per datagram.
        self._m_heartbeats = self._m_requests.labels(type="heartbeat")
        self.fanout = SocketFanout(registry)
        self.flight = (FlightRecorder(config.flight_capacity)
                       if config.flight_capacity > 0 else NULL_FLIGHT)
        self.loop_health = (
            LoopHealthMonitor(registry, config.loop_probe_interval)
            if config.loop_probe_interval > 0 else None)
        self.executor = InstrumentedExecutor(
            registry, max_workers=max(1, workers),
            thread_name_prefix="repro-serve")
        # Guards every tree/DRBG mutation across loop and executor:
        # plan, whole-op fallback, recovery tick, batch flush.
        self._op_lock = threading.Lock()
        # Tickets are drawn under the op lock; outputs reach the
        # fan-out in ticket order whatever order the pool finishes in.
        self._release = ReleaseOrder()
        self._inflight = 0
        self._closing = False
        # The server half of the ResilientRpc contract: retried ops
        # replay their original reply instead of double-executing.
        # Mutated only on the event loop — no lock.
        self._idem = (IdempotencyCache(config.idempotency_entries,
                                       config.idempotency_per_client)
                      if config.idempotency_entries > 0 else None)
        self._buckets: Dict[str, Tuple[float, float]] = {}
        self._admits_since_prune = 0
        self._tick_task: Optional[asyncio.Task] = None
        self._slo_task: Optional[asyncio.Task] = None
        self._slo_breached: set = set()
        self.recovery = RecoveryManager(
            self._recovery_backend(), self.fanout,
            policy=recovery_policy, instrumentation=instrumentation,
            on_evicted=self.fanout.detach)

    # -- subclass hooks ----------------------------------------------------

    def _recovery_backend(self):
        raise NotImplementedError

    async def _rekey(self, op: str, user_id: str, payload: bytes,
                     reply, token: Optional[int], span) -> None:
        raise NotImplementedError

    def _stats_document(self) -> dict:
        tracer = self.instrumentation.tracer
        spans = tracer.export() if tracer.enabled else None
        return build_snapshot(self.instrumentation.registry,
                              label=self.instrumentation.name, spans=spans)

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Start background work (ticker, health probe, SLO evaluator)."""
        if self.config.tick_interval > 0 and self._tick_task is None:
            self._tick_task = asyncio.get_running_loop().create_task(
                self._tick_loop())
        if self.loop_health is not None:
            self.loop_health.start()
        if (self.config.slos and self.config.slo_interval > 0
                and self._slo_task is None):
            self._slo_task = asyncio.get_running_loop().create_task(
                self._slo_loop())

    async def _drain(self) -> None:
        """Wait (bounded) for admitted ops to finish before teardown.

        ``_closing`` is already set, so every new arrival sheds with
        ``MSG_BUSY`` — the in-flight count can only fall.  Stragglers
        past the deadline are abandoned to the executor shutdown's
        ``cancel_futures``, which sheds them through the ordinary
        error path.
        """
        deadline = time.monotonic() + self.config.drain_deadline
        while self._inflight > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.005)

    async def aclose(self) -> None:
        """Drain in-flight ops (bounded), then stop the worker pool."""
        self._closing = True
        await self._drain()
        for attr in ("_tick_task", "_slo_task"):
            task = getattr(self, attr)
            if task is not None:
                task.cancel()
                try:
                    await task
                except asyncio.CancelledError:
                    pass
                setattr(self, attr, None)
        if self.loop_health is not None:
            await self.loop_health.aclose()
        self.executor.shutdown(wait=True, cancel_futures=True)

    # -- helpers -----------------------------------------------------------

    async def _in_executor(self, fn, *args):
        return await asyncio.get_running_loop().run_in_executor(
            self.executor, fn, *args)

    async def _locked(self, fn, *args):
        """Run ``fn`` under the op lock without ever blocking the loop.

        Free lock: run inline (the common case — ticks and flushes are
        rare).  Held lock: run on the executor, where waiting is fine.
        """
        if self._op_lock.acquire(blocking=False):
            try:
                return fn(*args)
            finally:
                self._op_lock.release()

        def call():
            with self._op_lock:
                return fn(*args)
        return await self._in_executor(call)

    async def _acquire_op_lock(self) -> None:
        """Wait for the op lock on a worker; the caller must release it.

        Lets a coroutine take the lock and then keep working *on the
        loop* (rekey planning must happen there — see the module doc)
        without ever blocking the loop on the acquire.  If the await
        is cancelled after the pool task has started, that task will
        still acquire the lock eventually; a done-callback hands it
        straight back so cancellation cannot leak the lock.
        """
        future = asyncio.get_running_loop().run_in_executor(
            self.executor, self._op_lock.acquire)
        try:
            await future
        except asyncio.CancelledError:
            def release(done):
                if not done.cancelled():
                    self._op_lock.release()
            future.add_done_callback(release)
            raise

    async def _acquire_op_lock_timed(self, parent=None) -> None:
        """:meth:`_acquire_op_lock` plus wait attribution.

        Contended acquires (the only callers of this variant) land in
        the op-lock wait histogram and, when the request is traced, a
        ``serve.lock_wait`` child span.
        """
        span = self.instrumentation.tracer.span("serve.lock_wait",
                                                parent=parent)
        started = time.perf_counter()
        await self._acquire_op_lock()
        self._m_op_lock_wait.observe(time.perf_counter() - started)
        span.finish()

    # -- flight recorder / SLO ---------------------------------------------

    def _dump_path(self, reason: str) -> Optional[str]:
        directory = self.config.flight_dump_dir
        if directory is None:
            return None
        return os.path.join(
            directory, f"flight-{self.flavor}-{reason}.json")

    def dump_flight(self, reason: str = "signal",
                    path: Optional[str] = None) -> dict:
        """Dump the flight ring now (the operator-signal entry point)."""
        return self.flight.dump(reason, path if path is not None
                                else self._dump_path(reason))

    async def _slo_once(self) -> list:
        """Evaluate declared objectives against a fresh snapshot.

        A breach is counted (and triggers a rate-limited flight dump)
        only on the compliant-to-breached edge, so a sustained breach
        is one incident, not one per evaluation tick.
        """
        snapshot = await self._in_executor(
            self.instrumentation.registry.snapshot)
        statuses = evaluate_slos(self.config.slos, snapshot)
        for status in statuses:
            name = status.slo.name
            if status.compliant:
                self._slo_breached.discard(name)
                continue
            if name not in self._slo_breached:
                self._slo_breached.add(name)
                self._m_slo_breaches.inc(slo=name)
                self.flight.record(
                    "slo.breach", slo=name,
                    compliance=round(status.compliance, 6),
                    target=status.slo.target)
                self.flight.maybe_dump("slo-breach",
                                       self._dump_path("slo-breach"))
        return statuses

    async def _slo_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.slo_interval)
            try:
                await self._slo_once()
            except Exception:
                self._m_errors.inc(op="slo")

    def _admit_rate(self, user_id: str) -> bool:
        """Per-client token bucket (state-changing requests only)."""
        rate = self.config.client_rate
        if rate <= 0:
            return True
        # The ticker prunes idle buckets, but with tick_interval=0 it
        # never runs — prune opportunistically so the per-client dict
        # cannot grow without bound across distinct user_ids.
        self._admits_since_prune += 1
        if self._admits_since_prune >= 1024:
            self._admits_since_prune = 0
            self._prune_buckets()
        now = time.monotonic()
        burst = float(self.config.client_burst)
        tokens, last = self._buckets.get(user_id, (burst, now))
        tokens = min(burst, tokens + (now - last) * rate)
        if tokens < 1.0:
            self._buckets[user_id] = (tokens, now)
            return False
        self._buckets[user_id] = (tokens - 1.0, now)
        return True

    def _prune_buckets(self) -> None:
        # A bucket back at full burst carries no state worth keeping.
        now = time.monotonic()
        rate = self.config.client_rate
        burst = float(self.config.client_burst)
        full = [user_id for user_id, (tokens, last) in self._buckets.items()
                if tokens + (now - last) * rate >= burst]
        for user_id in full:
            del self._buckets[user_id]

    # -- idempotent replay (the server half of ResilientRpc) ---------------

    def _idem_handled(self, user_id: str, token: Optional[int],
                      reply) -> bool:
        """True when the request is a duplicate and is fully dealt with.

        A completed original replays its cached reply (token re-echoed);
        an in-flight original absorbs the duplicate silently — both
        attempts carry the same token, so the original's reply resolves
        the retrying client's future.
        """
        cache = self._idem
        if cache is None or token is None:
            return False
        entry = cache.get(user_id, token)
        if entry is None:
            return False
        if entry is IdempotencyCache.PENDING:
            self._m_idempotent.inc(result="inflight")
            return True
        self._m_idempotent.inc(result="replay")
        self.flight.record("idem.replay", user=user_id)
        reply(attach_corr_trailer(entry, token))
        return True

    def _idem_begin(self, user_id: str, token: Optional[int]) -> None:
        if self._idem is not None and token is not None:
            self._idem.begin(user_id, token)

    def _idem_commit(self, user_id: str, token: Optional[int],
                     payload: bytes) -> None:
        """Cache a direct reply (correlation trailer already stripped)."""
        if self._idem is not None and token is not None:
            self._idem.commit(user_id, token, payload)

    def _idem_finish(self, user_id: str, token: Optional[int]) -> None:
        """Drop a still-pending entry once the op can no longer reply."""
        if self._idem is not None and token is not None:
            self._idem.abort(user_id, token)

    def _idem_tee(self, user_id: str, token: Optional[int], reply):
        """Wrap a direct-reply callable so the first reply is cached.

        Only the requester's direct replies flow through the wrapper —
        fan-out traffic uses the callable registered with
        :meth:`SocketFanout.attach` (the unwrapped one).  ``MSG_BUSY``
        aborts instead of caching: busy describes the moment, not the
        op, and a retry must be allowed to execute.
        """
        cache = self._idem
        if cache is None or token is None:
            return reply

        def tee(payload: bytes) -> None:
            body, _tok = split_corr_trailer(payload)
            try:
                msg_type = Message.decode(body).msg_type
            except WireError:
                msg_type = None
            if msg_type == MSG_BUSY:
                cache.abort(user_id, token)
            else:
                cache.commit(user_id, token, body)
            reply(payload)
        return tee

    def _shed(self, user_id: str, reply, token: Optional[int],
              reason: str, trace=None) -> None:
        self._m_shed.inc(reason=reason)
        self.flight.record("shed",
                           trace_id=trace.trace_id if trace else 0,
                           reason=reason, user=user_id)
        busy = Message(msg_type=MSG_BUSY, body=user_id.encode("utf-8"))
        reply(attach_trailers(busy.encode(), trace, token))

    def _attach(self, user_id: str, reply, path_id) -> None:
        """Register the requester's reply path (None = one-shot tool)."""
        if path_id is not None:
            self.fanout.attach(user_id, reply, path_id,
                               self.recovery.backend.audiences(user_id))

    def _forget_denied(self, user_id: str) -> None:
        """Drop the reply path a refused joiner registered on arrival."""
        if not self.recovery.backend.audiences(user_id):
            self.fanout.detach(user_id)

    def _release_op(self, op: str, user_id: str,
                    outputs: Sequence[OutboundMessage], reply,
                    token: Optional[int], trace=None) -> None:
        """Apply a completed op's membership change, then route it.

        One synchronous step, taken in plan order: the joiner counts
        from its own op on (its join's group rekey excludes it by
        name, the root-layer rekey of a cluster join must reach it),
        the leaver from its own op off, and the next op released finds
        the audiences as its plan left the tree.
        """
        if op == "join":
            self.fanout.enroll(user_id,
                               self.recovery.backend.audiences(user_id))
        else:
            self.fanout.detach(user_id)
        self._route(outputs, user_id, reply, token, trace)

    def _route(self, outputs: Sequence[OutboundMessage], user_id: str,
               reply, token: Optional[int], trace=None) -> None:
        """Direct replies back to the requester; the rest to the fan-out."""
        for out in outputs:
            payload = out.encoded or out.message.encode()
            if trace is not None:
                payload = attach_trailers(payload, trace)
            if (out.message.msg_type in _DIRECT_TYPES
                    and out.destination.kind == DEST_USER
                    and out.destination.user_id == user_id):
                reply(_corr(payload, token))
            else:
                self.fanout.send(out, payload=payload)

    def _push_budget(self) -> int:
        """The tick's resync-push budget: 0 while the event loop lags —
        housekeeping is shed before membership ops wait."""
        health = self.loop_health
        if health is not None and health.last_lag > TICK_SHED_LAG_S:
            return 0
        return MAX_PUSHES_PER_TICK

    async def _tick_once(self) -> None:
        await self._locked(self.recovery.tick, self._push_budget())

    async def _tick_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.tick_interval)
            try:
                await self._tick_once()
            except Exception:
                self._m_errors.inc(op="tick")
            self._prune_buckets()

    # -- the front door ----------------------------------------------------

    def submit_nowait(self, data: bytes, reply, path_id=None) -> bool:
        """Inline fast path for cheap datagrams; True when fully served.

        Heartbeats dominate a live group's request mix and touch only
        the recovery tables, so when the op lock is free they are
        served synchronously on the calling loop iteration — no task,
        no executor hop, no await.  Anything else (or a held op lock)
        returns False and the caller falls back to :meth:`submit` on a
        task.  Malformed payloads are consumed here too: they deserve
        a counter bump, not a task.
        """
        payload, _token = split_corr_trailer(data)
        try:
            message = Message.decode(payload)
        except WireError:
            self._m_requests.inc(type="malformed")
            return True
        if message.msg_type != MSG_HEARTBEAT:
            return False
        if not self._op_lock.acquire(blocking=False):
            return False
        try:
            self._m_heartbeats.inc()
            user_id = message.body.decode("utf-8", errors="replace")
            self._attach(user_id, reply, path_id)
            self.recovery.heartbeat(
                user_id, (message.root_node_id, message.root_version))
        finally:
            self._op_lock.release()
        return True

    async def submit(self, data: bytes, reply,
                     path_id=None) -> None:
        """Serve one inbound payload.

        ``reply`` writes one payload back on the requester's path (it
        must be loop-thread-safe — see :mod:`repro.serve.endpoint`);
        ``path_id`` identifies that path for fan-out registration and
        multicast dedup (None = do not register, e.g. one-shot tools).
        """
        payload, inbound, token = split_trailers(data)
        try:
            message = Message.decode(payload)
        except WireError:
            self._m_requests.inc(type="malformed")
            return
        msg_type = message.msg_type
        self._m_requests.inc(type=_TYPE_NAMES.get(msg_type, "other"))
        if msg_type == MSG_STATS_REQUEST:
            body = await self._in_executor(self._stats_body)
            response = Message(msg_type=MSG_STATS_RESPONSE, body=body)
            reply(attach_trailers(response.encode(), inbound, token))
            return
        if msg_type == MSG_SUBCAST_REQUEST:
            await self._subcast(message, reply, inbound, token, path_id)
            return
        user_id = message.body.decode("utf-8", errors="replace")
        if msg_type == MSG_HEARTBEAT:
            self._attach(user_id, reply, path_id)
            await self._locked(
                self.recovery.heartbeat, user_id,
                (message.root_node_id, message.root_version))
            return
        tracer = self.instrumentation.tracer
        if msg_type == MSG_RESYNC_REQUEST:
            # Duplicate check before admission: a retry already paid
            # the token bucket once, and a replay is a cheap loop-side
            # copy that must not be shed.
            if self._idem_handled(user_id, token, reply):
                return
            if self._closing:
                self._shed(user_id, reply, token, "closing", inbound)
                return
            if not self._admit_rate(user_id):
                self._m_rate_limited.inc(type="resync")
                self._shed(user_id, reply, token, "rate-cap", inbound)
                return
            self._attach(user_id, reply, path_id)
            # Created, never entered: the span must not sit on the
            # loop thread's active stack across the await below.
            span = tracer.span("serve.request", parent=inbound,
                               op="resync", user=user_id)
            trace = span.context if span.trace_id else None
            self.flight.record("req", trace_id=span.trace_id,
                               op="resync", user=user_id)
            self._idem_begin(user_id, token)
            out = await self._locked(self.recovery.serve_request, user_id)
            if out is not None:
                body = out.encoded or out.message.encode()
                if trace is not None:
                    body = attach_trailers(body, trace)
                self._idem_commit(user_id, token, body)
                reply(_corr(body, token))
            else:
                self._idem_finish(user_id, token)
            span.finish()
            self.flight.record("done", trace_id=span.trace_id,
                               op="resync", served=out is not None)
            return
        if msg_type in (MSG_JOIN_REQUEST, MSG_LEAVE_REQUEST):
            op = "join" if msg_type == MSG_JOIN_REQUEST else "leave"
            if self._idem_handled(user_id, token, reply):
                return
            if self._closing:
                self._shed(user_id, reply, token, "closing", inbound)
                return
            if not self._admit_rate(user_id):
                self._m_rate_limited.inc(type=op)
                self._shed(user_id, reply, token, "rate-cap", inbound)
                return
            if self._inflight >= self.config.max_inflight:
                self._shed(user_id, reply, token, "saturated", inbound)
                return
            if op == "join":
                self._attach(user_id, reply, path_id)
            self._inflight += 1
            self._m_inflight.set(self._inflight)
            # The request's root span.  Created, never entered — it
            # spans awaits, and entering would corrupt the loop
            # thread's active-span stack.  Children attach to it
            # explicitly (plan on the loop, exec on workers).
            span = tracer.span("serve.request", parent=inbound,
                               op=op, user=user_id)
            self.flight.record("req", trace_id=span.trace_id,
                               op=op, user=user_id)
            self._idem_begin(user_id, token)
            # Direct replies (ack, denial, shed) flow through the tee
            # so the first one lands in the reply cache; the fan-out
            # path registered above keeps the raw callable.
            teed = self._idem_tee(user_id, token, reply)
            try:
                await self._rekey(op, user_id, payload, teed, token, span)
            except asyncio.CancelledError:
                # Executor teardown cancelled the op's future (the
                # drain deadline passed); the task itself is alive, so
                # shed instead of vanishing without a reply.
                span.finish(error=True)
                self._shed(user_id, teed, token, "closing", span.context)
            except Exception as exc:
                self._m_errors.inc(op=op)
                span.finish(error=True)
                self.flight.record("error", trace_id=span.trace_id,
                                   op=op, user=user_id,
                                   cause=type(exc).__name__)
                self.flight.maybe_dump("error", self._dump_path("error"))
                # An admitted op that died server-side must still fail
                # fast for the client — a busy reply beats a timeout.
                self._shed(user_id, teed, token, "error", span.context)
            else:
                span.finish()
                self.flight.record("done", trace_id=span.trace_id, op=op,
                                   us=span.duration_ns // 1000)
            finally:
                # Ops that never replied directly (cluster routing
                # errors) must not blackhole their token forever.
                self._idem_finish(user_id, token)
                self._inflight -= 1
                self._m_inflight.set(self._inflight)
            return
        # Known-to-wire but not servable here (MSG_REKEY, MSG_DATA, ...).

    def _subcast_backend(self):
        """The object exposing ``subcast()``/``is_member()`` (per flavor)."""
        raise NotImplementedError

    async def _subcast(self, message: Message, reply, inbound,
                       token: Optional[int], path_id) -> None:
        """Serve one covered-multicast request.

        The whole op (membership check, cover, seal) runs on the
        executor under the op lock — the cover must see a consistent
        tree, and must never interleave with a rekey mid-edit.  The
        sealed message fans out to the target subset; the requester
        additionally gets a direct correlation-tagged copy as its ack.
        """
        try:
            sender, targets, app_payload = parse_subcast_request(
                message.body)
        except SubcastWireError:
            self._m_requests.inc(type="malformed")
            return
        if self._idem_handled(sender, token, reply):
            return
        if self._closing:
            self._shed(sender, reply, token, "closing", inbound)
            return
        if not self._admit_rate(sender):
            self._m_rate_limited.inc(type="subcast")
            self._shed(sender, reply, token, "rate-cap", inbound)
            return
        if self._inflight >= self.config.max_inflight:
            self._shed(sender, reply, token, "saturated", inbound)
            return
        self._attach(sender, reply, path_id)
        self._inflight += 1
        self._m_inflight.set(self._inflight)
        tracer = self.instrumentation.tracer
        # Created, never entered (it spans awaits); the exec child is
        # entered on the worker so backend spans parent to it.
        span = tracer.span("serve.request", parent=inbound,
                           op="subcast", user=sender)
        trace = span.context if span.trace_id else None
        self.flight.record("req", trace_id=span.trace_id, op="subcast",
                           user=sender, targets=len(targets))
        started = time.perf_counter()

        def run():
            with self._op_lock:
                self._m_op_lock_wait.observe(time.perf_counter() - started)
                with tracer.span("serve.exec", parent=span, op="subcast"):
                    backend = self._subcast_backend()
                    if not backend.is_member(sender):
                        raise ServerError(
                            f"subcast sender {sender!r} is not a member")
                    return backend.subcast(targets, app_payload)

        self._idem_begin(sender, token)
        try:
            out = await self._in_executor(run)
        except asyncio.CancelledError:
            span.finish(error=True)
            self._shed(sender, reply, token, "closing", span.context)
        except Exception as exc:
            self._m_errors.inc(op="subcast")
            span.finish(error=True)
            self.flight.record("error", trace_id=span.trace_id,
                               op="subcast", user=sender,
                               cause=type(exc).__name__)
            self._shed(sender, reply, token, "error", span.context)
        else:
            payload_out = out.encoded or out.message.encode()
            if trace is not None:
                payload_out = attach_trailers(payload_out, trace)
            self.fanout.send(out, payload=payload_out)
            # A replayed subcast re-sends only the requester's direct
            # copy — the original fan-out already reached the targets.
            self._idem_commit(sender, token, payload_out)
            reply(_corr(payload_out, token))
            span.finish()
            self._m_subcast_seconds.observe(time.perf_counter() - started)
            self.flight.record("done", trace_id=span.trace_id,
                               op="subcast", us=span.duration_ns // 1000)
        finally:
            self._idem_finish(sender, token)
            self._inflight -= 1
            self._m_inflight.set(self._inflight)

    def _stats_body(self) -> bytes:
        document = self._stats_document()
        body = json.dumps(document, sort_keys=True).encode("utf-8")
        # A stats reply rides one UDP datagram; a full span ring is
        # megabytes and sendto would fail silently.  Keep the newest
        # spans that fit and say how many were cut — truncation must
        # be visible, never silent.  Full exports go through the
        # in-process tracer (loadgen --trace-out), not the wire.
        spans = document.get("spans")
        if spans:
            total = len(spans)
            while spans and len(body) > _MAX_STATS_BODY:
                spans = spans[max(1, len(spans) // 2):]
                document["spans"] = spans
                document["spans_dropped"] = total - len(spans)
                body = json.dumps(document,
                                  sort_keys=True).encode("utf-8")
        return body

    async def _track(self, op: str, user_id: str) -> None:
        """Start/stop heartbeat surveillance once an op is released."""
        if op == "join":
            await self._locked(self.recovery.track, user_id)
        else:
            await self._locked(self.recovery.untrack, user_id)


class ImmediateServingCore(AsyncServingCore):
    """Per-request staged rekeying over one :class:`GroupKeyServer`."""

    flavor = "immediate"

    def __init__(self, server: GroupKeyServer,
                 config: Optional[ServeConfig] = None,
                 workers: Optional[int] = None,
                 recovery_policy: Optional[RecoveryPolicy] = None):
        self.server = server
        super().__init__(
            config if config is not None else ServeConfig(),
            server.instrumentation,
            workers if workers is not None else worker_count(server.config),
            recovery_policy)
        server.pipeline.seal_order.wait_observer = \
            self._m_turnstile_wait.observe

    def _recovery_backend(self):
        return ServerBackend(self.server)

    def _subcast_backend(self):
        return self.server

    async def _tick_once(self):
        # The tick's evictions run synchronous leaves that draw a seal
        # ticket and wait their turn.  With staged request ops still
        # in flight that wait can starve: the earlier-ticket staged
        # task may sit queued behind workers blocked on the very op
        # lock the tick holds.  So take the lock only once the
        # turnstile is idle — plans (and so ticket draws) happen under
        # the lock, so idleness holds for as long as we do — and run
        # the tick inline; its sync leaves then never wait.  The
        # release order must be idle as well: an eviction's rekey goes
        # straight to the fan-out and must not overtake an op planned
        # before it that has sealed but not been released yet.
        turnstile = self.server.pipeline.seal_order
        while True:
            if not self._op_lock.acquire(blocking=False):
                await self._acquire_op_lock()
            if turnstile.idle and self._release.idle:
                break
            self._op_lock.release()
            await asyncio.sleep(0.005)
        try:
            self.recovery.tick(self._push_budget())
        finally:
            self._op_lock.release()

    def _ensure_enrolled(self, user_id: str) -> None:
        server = self.server
        if (self.config.open_enroll and not server.is_member(user_id)
                and user_id not in server._registered_keys):
            server.register_individual_key(
                user_id, server.new_individual_key())

    async def _rekey(self, op, user_id, payload, reply, token, span):
        server = self.server
        tracer = self.instrumentation.tracer
        trace = span.context if span.trace_id else None
        if getattr(server, "_journal", None) is not None:
            # A journaled server (file or warm standby) must append ops
            # in plan order, which the overlapped path cannot
            # guarantee — serialize the whole op on a worker.  Every op on this server takes
            # this path, so each seal ticket is drawn and retired
            # under the op lock before the next op plans: the
            # turnstile never actually waits here.
            ticket = None

            def run():
                nonlocal ticket
                started = time.perf_counter()
                with self._op_lock:
                    self._m_op_lock_wait.observe(
                        time.perf_counter() - started)
                    ticket = self._release.ticket()
                    # Entered on this worker thread, so the rekey
                    # pipeline's spans parent to it thread-locally —
                    # the executor hop stays one connected trace.
                    with tracer.span("serve.exec", parent=span, op=op):
                        if op == "join":
                            self._ensure_enrolled(user_id)
                            return server.join(user_id)
                        return server.leave(user_id)
            denied = False
            try:
                outcome = await self._in_executor(run)
                await self._release.turn(ticket)
                self._release_op(op, user_id, outcome.all_messages, reply,
                                 token, trace)
            except ServerError:
                denied = True
            finally:
                self._release.retire(ticket)
            if denied:
                await self._deny(op, user_id, reply, token, trace)
            else:
                await self._track(op, user_id)
            return
        # Plan here on the loop, then ship the heavy encrypt/sign/
        # dispatch stages to the pool; the next request plans while
        # these stages run.  Planning must stay on the loop even when
        # the op lock is busy: plan + submit with no await between
        # keeps seal tickets in executor-submission order, which is
        # the SealTurnstile's no-deadlock invariant — a whole-op
        # executor fallback here could draw its ticket after a staged
        # task it then starves of a worker, wedging the server.
        if not self._op_lock.acquire(blocking=False):
            await self._acquire_op_lock_timed(span)
        staged = ticket = None
        try:
            with tracer.span("serve.plan", parent=span, op=op):
                try:
                    if op == "join":
                        self._ensure_enrolled(user_id)
                        staged = server.begin_join(user_id)
                    else:
                        staged = server.begin_leave(user_id)
                except ServerError:
                    staged = None
            if staged is not None:
                ticket = self._release.ticket()
        finally:
            self._op_lock.release()
        if staged is None:
            await self._deny(op, user_id, reply, token, trace)
            return
        try:
            outcome = await self._in_executor(
                lambda: staged.encrypt().seal().finish())
            # The pool finishes ops in whatever order it likes (the
            # seal turn is passed on inside ``finish``); the fan-out
            # sees them in plan order.
            await self._release.turn(ticket)
            self._release_op(op, user_id, outcome.all_messages, reply,
                             token, trace)
        finally:
            self._release.retire(ticket)
        await self._track(op, user_id)

    async def _deny(self, op, user_id, reply, token, trace=None):
        server = self.server
        server._m_requests.inc(op=op, status="denied")
        msg_type = MSG_JOIN_DENIED if op == "join" else MSG_LEAVE_DENIED
        out = await self._locked(server._control_message, msg_type, user_id)
        if op == "join":
            self._forget_denied(user_id)
        reply(attach_trailers(out.encoded or out.message.encode(),
                              trace, token))


class CoalescingServingCore(AsyncServingCore):
    """Fold concurrent joins/leaves into one batch flush.

    Requests queue into a :class:`BatchRekeyServer` on arrival (cheap,
    on the loop) and the flush loop rekeys once per
    ``coalesce_interval`` — or as soon as ``coalesce_max`` requests
    are pending.  Joiners are answered with their path-keys unicast
    from the flush; leavers (and joins cancelled by a same-interval
    leave) get a synthesized signed ack.  ``max_inflight`` should be
    at least ``coalesce_max`` or admission will cap batch size first.
    """

    flavor = "coalesce"

    def __init__(self, server: BatchRekeyServer,
                 config: Optional[ServeConfig] = None,
                 workers: int = DEFAULT_WORKERS,
                 recovery_policy: Optional[RecoveryPolicy] = None):
        self.server = server
        super().__init__(
            config if config is not None else ServeConfig(coalesce=True),
            server.instrumentation, workers, recovery_policy)
        registry = self.instrumentation.registry
        self._m_pending = registry.gauge(
            "serve_coalesce_pending",
            "Rekey requests queued for the next flush.").labels()
        self._m_flushes = registry.counter(
            "serve_flushes_total",
            "Coalesced rekey flushes executed.").labels()
        self._registered: Dict[str, bytes] = {}
        self._waiters: List[tuple] = []
        self._flush_event = asyncio.Event()
        self._flush_task: Optional[asyncio.Task] = None

    def _recovery_backend(self):
        return BatchBackend(self.server)

    def _subcast_backend(self):
        # Covers address the flushed tree; users still queued for the
        # next flush hold no tree keys and cannot be targeted yet.
        return self.server

    def register_individual_key(self, user_id: str, key: bytes) -> None:
        """Pre-register a joiner's key (the auth-exchange stand-in)."""
        self._registered[user_id] = key

    async def start(self):
        await super().start()
        if self._flush_task is None:
            self._flush_task = asyncio.get_running_loop().create_task(
                self._flush_loop())

    async def aclose(self):
        # Final drain: ops already accepted into the batch get their
        # flush under the drain deadline (new arrivals shed with
        # MSG_BUSY via the closing gate), so an accepted op is never
        # silently dropped by shutdown.
        self._closing = True
        deadline = time.monotonic() + self.config.drain_deadline
        while self._waiters and time.monotonic() < deadline:
            self._flush_event.set()
            await asyncio.sleep(0.005)
        if self._flush_task is not None:
            self._flush_task.cancel()
            try:
                await self._flush_task
            except asyncio.CancelledError:
                pass
            self._flush_task = None
        # Stragglers past the deadline fail fast, not silently.
        for w_op, w_user, w_reply, w_token, w_trace, future in self._waiters:
            self._shed(w_user, w_reply, w_token, "closing", w_trace)
            if not future.done():
                future.set_result(None)
        self._waiters = []
        await super().aclose()

    def _enroll_key(self, user_id: str) -> bytes:
        registered = self._registered.pop(user_id, None)
        if registered is not None:
            return registered
        if not self.config.open_enroll:
            raise BatchError(f"{user_id}: no registered individual key")
        # Under the op lock (the DRBG is shared with the flush).
        return self.server.material.new_individual_key()

    def _control(self, msg_type: int, user_id: str) -> bytes:
        """A synthesized signed control reply against the batch tree."""
        server = self.server
        try:
            root_id, root_version = server.group_key_ref()
        except Exception:
            root_id, root_version = 0, 0
        message = Message(
            msg_type=msg_type, group_id=1,
            seq=server.pipeline.sequencer.next(),
            timestamp_us=time.time_ns() // 1000,
            root_node_id=root_id, root_version=root_version,
            body=user_id.encode("utf-8"))
        with server.pipeline.seal_lock:
            server._signer.seal([message])
        return message.encode()

    async def _deny(self, op, user_id, reply, token, trace=None):
        msg_type = MSG_JOIN_DENIED if op == "join" else MSG_LEAVE_DENIED
        payload = await self._in_executor(self._control, msg_type, user_id)
        # A duplicate of a join still queued for the flush is refused
        # too, but that joiner's path is about to be needed.
        if op == "join" and user_id not in self.server._pending_joins:
            self._forget_denied(user_id)
        reply(attach_trailers(payload, trace, token))

    async def _rekey(self, op, user_id, payload, reply, token, span):
        server = self.server
        trace = span.context if span.trace_id else None
        # Enqueue and waiter registration must be one atomic step
        # under the op lock: the flush consumes the pending set and
        # the waiter list together (also under the lock), so a flush
        # landing between them would eat the pending join but find no
        # waiter — silently dropping the joiner's path-key unicast.
        # When the lock is busy (a flush, a tick) we wait for it on a
        # worker and then enqueue here on the loop.
        if not self._op_lock.acquire(blocking=False):
            await self._acquire_op_lock_timed(span)
        future = asyncio.get_running_loop().create_future()
        denied = False
        try:
            with self.instrumentation.tracer.span("serve.enqueue",
                                                  parent=span, op=op):
                if op == "join":
                    server.request_join(user_id, self._enroll_key(user_id))
                else:
                    server.request_leave(user_id)
                self._waiters.append(
                    (op, user_id, reply, token, trace, future))
        except BatchError:
            denied = True
        finally:
            self._op_lock.release()
        if denied:
            await self._deny(op, user_id, reply, token, trace)
            return
        self._m_pending.set(len(self._waiters))
        if len(self._waiters) >= self.config.coalesce_max:
            self._flush_event.set()
        await future

    async def _flush_loop(self):
        while True:
            try:
                await asyncio.wait_for(self._flush_event.wait(),
                                       timeout=self.config.coalesce_interval)
            except asyncio.TimeoutError:
                pass
            self._flush_event.clear()
            if not self._waiters:
                continue
            await self._flush()

    async def _flush(self):
        server = self.server

        # Snapshot the waiters and flush the pending set in ONE
        # critical section: a loop-side snapshot would race the
        # worker-side flush, letting a request enqueued in between be
        # consumed by a flush that holds no waiter for it.
        def do_flush():
            with self._op_lock:
                waiters, self._waiters = self._waiters, []
                if not waiters:
                    return waiters, None, None
                try:
                    return waiters, server.flush(), None
                except Exception as exc:
                    return waiters, None, exc
        waiters, result, error = await self._in_executor(do_flush)
        self._m_pending.set(len(self._waiters))
        if not waiters:
            return
        if error is not None:
            self._m_errors.inc(op="flush")
            for w_op, w_user, w_reply, w_token, w_trace, future in waiters:
                # Fail fast: a busy reply beats leaving the client to
                # tell server failure from packet loss by timeout.
                self._shed(w_user, w_reply, w_token, "error", w_trace)
                if not future.done():
                    future.set_result(None)
            return
        self._m_flushes.inc()
        joiner_payloads = {
            out.destination.user_id: out.encoded or out.message.encode()
            for out in result.joiner_messages
            if out.destination.kind == DEST_USER}

        def build_acks():
            acks = {}
            for op, user_id, _reply, _token, _trace, _future in waiters:
                if op == "leave" or user_id not in joiner_payloads:
                    msg_type = (MSG_LEAVE_ACK if op == "leave"
                                else MSG_JOIN_ACK)
                    acks[(op, user_id)] = self._control(msg_type, user_id)
            return acks
        acks = await self._in_executor(build_acks)
        # The flushed tree is the audience of its own rekey: it holds
        # this batch's joiners and none of its leavers.
        for _op, user_id, _reply, _token, _trace, _future in waiters:
            audiences = self.recovery.backend.audiences(user_id)
            if audiences:
                self.fanout.enroll(user_id, audiences)
            else:
                self.fanout.detach(user_id)
        if result.rekey_message is not None:
            self.fanout.send(result.rekey_message)
        joins: List[str] = []
        leaves: List[str] = []
        for op, user_id, reply, token, trace, future in waiters:
            payload = joiner_payloads.get(user_id) if op == "join" else None
            if payload is None:
                payload = acks[(op, user_id)]
            reply(attach_trailers(payload, trace, token))
            (joins if op == "join" else leaves).append(user_id)
            if not future.done():
                future.set_result(None)

        def apply_tracking():
            for user_id in joins:
                self.recovery.track(user_id)
            for user_id in leaves:
                self.recovery.untrack(user_id)
        await self._locked(apply_tracking)


class ClusterServingCore(AsyncServingCore):
    """The PR4 sharded cluster behind the async front end.

    Cluster ops compose a shard rekey with a root-layer rekey, so the
    whole request runs on the executor under the op lock — the loop
    stays free for heartbeats and parsing, and intra-cluster ordering
    stays exactly the coordinator's.
    """

    flavor = "cluster"

    def __init__(self, coordinator: ClusterCoordinator,
                 config: Optional[ServeConfig] = None,
                 workers: int = DEFAULT_WORKERS,
                 recovery_policy: Optional[RecoveryPolicy] = None):
        self.coordinator = coordinator
        super().__init__(
            config if config is not None else ServeConfig(),
            coordinator.instrumentation, workers, recovery_policy)

    def _recovery_backend(self):
        return ClusterBackend(self.coordinator)

    def _subcast_backend(self):
        return self.coordinator

    def _stats_document(self) -> dict:
        return self.coordinator.stats_document()

    def _ensure_enrolled(self, user_id: str) -> None:
        coordinator = self.coordinator
        if (self.config.open_enroll
                and user_id not in coordinator._registered_keys
                and not coordinator.shard_of(user_id)
                        .server.is_member(user_id)):
            coordinator.register_individual_key(
                user_id, coordinator.new_individual_key())

    async def _rekey(self, op, user_id, payload, reply, token, span):
        coordinator = self.coordinator
        tracer = self.instrumentation.tracer
        trace = span.context if span.trace_id else None

        ticket = None

        def run():
            nonlocal ticket
            started = time.perf_counter()
            with self._op_lock:
                self._m_op_lock_wait.observe(time.perf_counter() - started)
                ticket = self._release.ticket()
                # Entered on this worker thread: the coordinator's
                # ``cluster.{op}`` span (and below it the shard and
                # root-layer rekey spans) parent to it thread-locally,
                # so the executor hop stays one connected trace.
                with tracer.span("serve.exec", parent=span, op=op):
                    if op == "join":
                        self._ensure_enrolled(user_id)
                    return coordinator.handle_datagram(payload)
        ack_type = MSG_JOIN_ACK if op == "join" else MSG_LEAVE_ACK
        applied = False
        try:
            outputs = await self._in_executor(run)
            applied = any(out.message.msg_type == ack_type
                          for out in outputs)
            await self._release.turn(ticket)
            if applied:
                self._release_op(op, user_id, outputs, reply, token, trace)
            else:
                self._route(outputs, user_id, reply, token, trace)
        except ClusterError:
            self._m_errors.inc(op=op)
        finally:
            self._release.retire(ticket)
        if applied:
            await self._track(op, user_id)
        elif op == "join":
            self._forget_denied(user_id)
