"""The async serving core: event-loop front end over pipelined rekeying.

One :class:`AsyncServingCore` sits behind any number of socket
endpoints (:mod:`repro.serve.endpoint`).  Endpoints hand it raw
datagrams/frames plus a reply callable; the core parses, admits,
dispatches, and routes the outputs — direct replies back through the
callable, group traffic through a :class:`~repro.serve.fanout.
SocketFanout`.

Concurrency model: **one thread serves every op.**  The paper's key
server handles one request at a time, and so does this one.  A join,
leave, resync, subcast, heartbeat, recovery tick or coalesced flush
runs on the event-loop thread in one synchronous step: plan, encrypt,
seal, finish, release to the wire, start or stop heartbeat tracking.
Nothing awaits between an op's plan and its release, so

* no other op can touch the key tree, the DRBG or the recovery tables
  in between — there is no op lock;
* ops reach the wire in plan order by construction — there is no
  release re-ordering;
* staged ops still draw and retire a
  :class:`~repro.core.pipeline.SealTurnstile` ticket, but never wait
  on one.

Two threads on one GIL added no throughput, only turn-taking.  The
worker pool survives for the two jobs that read and never mutate: the
stats reply and the SLO evaluator's registry snapshot.

Admission control:

* a bounded budget for rekey operations (join, leave, subcast):
  ``max_inflight`` bounds the requests accepted but not yet served.
  It is checked when the datagram is read (:meth:`submit_nowait`), and
  the UDP endpoint reads every queued datagram on one readiness event,
  so a burst is a queue the server can see and shed from — with an
  immediate (unsigned — shedding must be cheap) ``MSG_BUSY`` reply —
  rather than a backlog waiting in the kernel's buffer;
* an optional per-client token bucket over state-changing requests
  (join/leave/resync).  Heartbeats are never capped: punishing
  liveness signals under load would manufacture false evictions.

Fan-out (see :mod:`repro.serve.fanout`): a group rekey arrives at the
fan-out naming its audience and no member, as it does on every
transport; the core keeps the fan-out's audiences equal to the
backend's membership (``backend.audiences``) by applying each op's
membership change at the moment the op's outputs are released.

One :class:`AsyncServingCore` serves any key server — a
:class:`~repro.core.server.GroupKeyServer` or a sharded
:class:`~repro.cluster.coordinator.ClusterCoordinator` — through the
server's own request dispatch (:meth:`~repro.core.server.
KeyServerProtocol.handle_datagram`), and drives its recovery manager
with the server itself.  :class:`CoalescingServingCore` is the one
subclass: concurrent joins/leaves of one ``GroupKeyServer`` wait for
one shared :meth:`~repro.core.server.GroupKeyServer.flush`.
:data:`ImmediateServingCore` and :data:`ClusterServingCore` are the
older names of :class:`AsyncServingCore`.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.messages import (DEST_USER, MSG_BUSY, MSG_HEARTBEAT,
                             MSG_JOIN_ACK, MSG_JOIN_DENIED,
                             MSG_JOIN_REQUEST, MSG_LEAVE_ACK,
                             MSG_LEAVE_DENIED, MSG_LEAVE_REQUEST,
                             MSG_RESYNC_REQUEST, MSG_STATS_REQUEST,
                             MSG_STATS_RESPONSE, MSG_SUBCAST_REQUEST,
                             Message, OutboundMessage, WireError)
from ..core.server import ServerError
from ..observability import LATENCY_BUCKETS_S
from ..subcast.wire import SubcastWireError, parse_subcast_request
from ..observability.flight import FlightRecorder
from ..observability.slo import evaluate as evaluate_slos
from ..recovery.manager import (MAX_PUSHES_PER_TICK, RecoveryManager,
                                RecoveryPolicy)
from .config import DEFAULT_WORKERS, ServeConfig
from .fanout import SocketFanout
from .health import InstrumentedExecutor, LoopHealthMonitor, WAIT_BUCKETS_S
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

#: Flight-recorder ring capacity (events): the last couple thousand
#: request events, a few seconds of history at full load, for pennies
#: per op.
FLIGHT_CAPACITY = 2048

#: Seconds between event-loop lag probes.
LOOP_PROBE_INTERVAL = 0.25

#: Seconds between SLO evaluations (when ``ServeConfig.slos`` is set).
SLO_INTERVAL = 5.0

#: Idempotency-cache replies kept per client user id (oldest evicted
#: first).
IDEMPOTENCY_PER_CLIENT = 8

#: Reply types that go straight back on the requester's socket (with
#: the request's correlation token echoed) instead of the fan-out.
_DIRECT_TYPES = frozenset({
    MSG_JOIN_ACK, MSG_JOIN_DENIED, MSG_LEAVE_ACK, MSG_LEAVE_DENIED,
    MSG_BUSY,
})

#: Request types that ``max_inflight`` bounds.
_BOUNDED_TYPES = frozenset({
    MSG_JOIN_REQUEST, MSG_LEAVE_REQUEST, MSG_SUBCAST_REQUEST,
})


def _corr(payload: bytes, token: Optional[int]) -> bytes:
    """Echo the request's correlation token, when it carried one."""
    if token is None:
        return payload
    return attach_corr_trailer(payload, token)


class AsyncServingCore:
    """Serve one key server: parse, admit, dispatch, route (see module
    doc).  ``backend`` is the key server itself."""

    flavor = "immediate"

    def __init__(self, backend, config: Optional[ServeConfig] = None,
                 workers: Optional[int] = None,
                 recovery_policy: Optional[RecoveryPolicy] = None):
        config = config if config is not None else ServeConfig()
        config.validate()
        self.backend = backend
        self.config = config
        self.instrumentation = instrumentation = backend.instrumentation
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
        # Registered for the benchmark report, which reads them; one
        # thread serves every op, so no op lock or seal turn is ever
        # waited for and both stay empty.
        registry.histogram(
            "serve_op_lock_wait_seconds",
            "Time spent waiting for the op lock (contended paths only).",
            bounds=WAIT_BUCKETS_S).labels()
        registry.histogram(
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
        self.flight = FlightRecorder(FLIGHT_CAPACITY)
        self.loop_health = LoopHealthMonitor(registry, LOOP_PROBE_INTERVAL)
        # Stats replies and SLO snapshots only: no op runs here.
        self.executor = InstrumentedExecutor(
            registry, max_workers=max(1, workers if workers is not None
                                      else DEFAULT_WORKERS),
            thread_name_prefix="repro-serve")
        # Bounded ops being served, and bounded ops accepted when read
        # but not yet started (see submit_nowait).
        self._inflight = 0
        self._queued = 0
        self._closing = False
        # The server half of the ResilientRpc contract: retried ops
        # replay their original reply instead of double-executing.
        self._idem = (IdempotencyCache(config.idempotency_entries,
                                       IDEMPOTENCY_PER_CLIENT)
                      if config.idempotency_entries > 0 else None)
        self._buckets: Dict[str, Tuple[float, float]] = {}
        self._admits_since_prune = 0
        self._tick_task: Optional[asyncio.Task] = None
        self._slo_task: Optional[asyncio.Task] = None
        self._slo_breached: set = set()
        self.recovery = RecoveryManager(
            backend, self.fanout,
            policy=recovery_policy, instrumentation=instrumentation,
            on_evicted=self.fanout.detach)

    # -- joins and leaves --------------------------------------------------

    def _ensure_enrolled(self, user_id: str) -> None:
        """Open enrolment: mint the individual key the authentication
        exchange would have registered."""
        backend = self.backend
        if (self.config.open_enroll
                and user_id not in backend._registered_keys
                and not backend.is_member(user_id)):
            backend.register_individual_key(user_id,
                                            backend.new_individual_key())

    async def _rekey(self, op: str, user_id: str, payload: bytes,
                     reply, token: Optional[int], span) -> None:
        """Serve one join or leave through the key server's dispatch."""
        trace = span.context if span.trace_id else None
        # Entered: the server's spans (a cluster's ``cluster.{op}`` and
        # below it the shard and root-layer rekeys) parent to it.
        with self.instrumentation.tracer.span("serve.exec", parent=span,
                                              op=op):
            if op == "join":
                self._ensure_enrolled(user_id)
            outputs = self.backend.handle_datagram(payload)
        if outputs[0].message.msg_type in (MSG_JOIN_DENIED,
                                           MSG_LEAVE_DENIED):
            self._route(outputs, user_id, reply, token, trace)
            if op == "join":
                self._forget_denied(user_id)
            return
        self._release_op(op, user_id, outputs, reply, token, trace)
        self._track(op, user_id)

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Start background work (ticker, health probe, SLO evaluator)."""
        if self.config.tick_interval > 0 and self._tick_task is None:
            self._tick_task = asyncio.get_running_loop().create_task(
                self._tick_loop())
        self.loop_health.start()
        if self.config.slos and self._slo_task is None:
            self._slo_task = asyncio.get_running_loop().create_task(
                self._slo_loop())

    async def _drain(self) -> None:
        """Wait (bounded) for admitted ops to finish before teardown.

        ``_closing`` is already set, so every new arrival sheds with
        ``MSG_BUSY`` — the in-flight count can only fall.  Ops accepted
        but not yet started are served (and shed ``closing``) on the
        next loop pass.
        """
        deadline = time.monotonic() + self.config.drain_deadline
        while (self._inflight > 0 or self._queued > 0) \
                and time.monotonic() < deadline:
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
        await self.loop_health.aclose()
        self.executor.shutdown(wait=True, cancel_futures=True)

    # -- helpers -----------------------------------------------------------

    async def _in_executor(self, fn, *args):
        """Run a read-only job (a snapshot) on the worker pool."""
        return await asyncio.get_running_loop().run_in_executor(
            self.executor, fn, *args)

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
            await asyncio.sleep(SLO_INTERVAL)
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

    def _idem_record(self, user_id: str, token: Optional[int],
                     payload: bytes) -> None:
        """Cache the direct reply of an op served in one step
        (correlation trailer already stripped)."""
        if self._idem is not None and token is not None:
            self._idem.begin(user_id, token)
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

    def _admitted(self, op: str, user_id: str, reply,
                  token: Optional[int], inbound) -> bool:
        """Admit one request, or answer it here and return False.

        The duplicate check comes first: a retry already paid the
        token bucket once, and a replay is a cheap copy that must not
        be shed.  A resync is not bounded by ``max_inflight``.
        """
        if self._idem_handled(user_id, token, reply):
            return False
        if self._closing:
            reason = "closing"
        elif not self._admit_rate(user_id):
            self._m_rate_limited.inc(type=op)
            reason = "rate-cap"
        elif op != "resync" and self._inflight >= self.config.max_inflight:
            reason = "saturated"
        else:
            return True
        self._shed(user_id, reply, token, reason, inbound)
        return False

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
                               self.backend.audiences(user_id))

    def _forget_denied(self, user_id: str) -> None:
        """Drop the reply path a refused joiner registered on arrival."""
        if not self.backend.audiences(user_id):
            self.fanout.detach(user_id)

    def _release_op(self, op: str, user_id: str,
                    outputs: Sequence[OutboundMessage], reply,
                    token: Optional[int], trace=None) -> None:
        """Apply a completed op's membership change, then route it.

        Taken in the op's own synchronous step, so in plan order: the
        joiner counts from its own op on (its join's group rekey
        excludes it by name, the root-layer rekey of a cluster join
        must reach it),
        the leaver from its own op off, and the next op released finds
        the audiences as its plan left the tree.
        """
        if op == "join":
            self.fanout.enroll(user_id, self.backend.audiences(user_id))
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
        if self.loop_health.last_lag > TICK_SHED_LAG_S:
            return 0
        return MAX_PUSHES_PER_TICK

    async def _tick_once(self) -> None:
        self.recovery.tick(self._push_budget())

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
        """Take one payload as it is read; True when fully dealt with.

        Heartbeats dominate a live group's request mix and touch only
        the recovery tables, so they are served right here — no task,
        no await.  Malformed payloads are consumed too: they deserve a
        counter bump, not a task.  A join, leave or subcast is
        admitted here against ``max_inflight``, which counts every
        bounded op accepted and not yet served; past it the request
        sheds with ``MSG_BUSY``.  Anything accepted returns False, and
        the caller serves it through :meth:`submit` on a task.
        """
        payload, token = split_corr_trailer(data)
        try:
            message = Message.decode(payload)
        except WireError:
            self._m_requests.inc(type="malformed")
            return True
        msg_type = message.msg_type
        if msg_type == MSG_HEARTBEAT:
            self._m_heartbeats.inc()
            user_id = message.body.decode("utf-8", errors="replace")
            self._attach(user_id, reply, path_id)
            self.recovery.heartbeat(
                user_id, (message.root_node_id, message.root_version))
            return True
        if msg_type not in _BOUNDED_TYPES:
            return False
        if self._inflight + self._queued < self.config.max_inflight:
            self._queued += 1
            return False
        self._m_requests.inc(type=_TYPE_NAMES[msg_type])
        if msg_type == MSG_SUBCAST_REQUEST:
            try:
                user_id = parse_subcast_request(message.body)[0]
            except SubcastWireError:
                self._m_requests.inc(type="malformed")
                return True
        else:
            user_id = message.body.decode("utf-8", errors="replace")
        if not self._idem_handled(user_id, token, reply):
            self._shed(user_id, reply, token, "saturated",
                       split_trailers(data)[1])
        return True

    async def submit(self, data: bytes, reply,
                     path_id=None) -> None:
        """Serve one inbound payload.

        ``reply`` writes one payload back on the requester's path;
        ``path_id`` identifies that path for fan-out registration and
        multicast dedup (None = do not register, e.g. one-shot tools).
        Every op is served in one synchronous step on the loop; only a
        stats reply and a coalesced op (which waits for its flush)
        await.
        """
        payload, inbound, token = split_trailers(data)
        try:
            message = Message.decode(payload)
        except WireError:
            self._m_requests.inc(type="malformed")
            return
        msg_type = message.msg_type
        if msg_type in _BOUNDED_TYPES and self._queued:
            self._queued -= 1       # accepted by submit_nowait; started

        self._m_requests.inc(type=_TYPE_NAMES.get(msg_type, "other"))
        if msg_type == MSG_STATS_REQUEST:
            body = await self._in_executor(self._stats_body)
            response = Message(msg_type=MSG_STATS_RESPONSE, body=body)
            reply(attach_trailers(response.encode(), inbound, token))
            return
        if msg_type == MSG_SUBCAST_REQUEST:
            self._subcast(message, reply, inbound, token, path_id)
            return
        user_id = message.body.decode("utf-8", errors="replace")
        if msg_type == MSG_HEARTBEAT:
            self._attach(user_id, reply, path_id)
            self.recovery.heartbeat(
                user_id, (message.root_node_id, message.root_version))
            return
        tracer = self.instrumentation.tracer
        if msg_type == MSG_RESYNC_REQUEST:
            if not self._admitted("resync", user_id, reply, token, inbound):
                return
            self._attach(user_id, reply, path_id)
            span = tracer.span("serve.request", parent=inbound,
                               op="resync", user=user_id)
            trace = span.context if span.trace_id else None
            self.flight.record("req", trace_id=span.trace_id,
                               op="resync", user=user_id)
            out = self.recovery.serve_request(user_id)
            if out is not None:
                body = out.encoded or out.message.encode()
                if trace is not None:
                    body = attach_trailers(body, trace)
                self._idem_record(user_id, token, body)
                reply(_corr(body, token))
            span.finish()
            self.flight.record("done", trace_id=span.trace_id,
                               op="resync", served=out is not None)
            return
        if msg_type in (MSG_JOIN_REQUEST, MSG_LEAVE_REQUEST):
            op = "join" if msg_type == MSG_JOIN_REQUEST else "leave"
            if not self._admitted(op, user_id, reply, token, inbound):
                return
            if op == "join":
                self._attach(user_id, reply, path_id)
            self._inflight += 1
            self._m_inflight.set(self._inflight)
            # The request's root span.  Created, never entered — a
            # coalesced op awaits its flush, and entering would corrupt
            # the loop thread's active-span stack.  Children attach to
            # it explicitly.
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
                # An op that never replied directly must not blackhole
                # its token forever.
                self._idem_finish(user_id, token)
                self._inflight -= 1
                self._m_inflight.set(self._inflight)
            return
        # Known-to-wire but not servable here (MSG_REKEY, MSG_DATA, ...).

    def _subcast(self, message: Message, reply, inbound,
                 token: Optional[int], path_id) -> None:
        """Serve one covered-multicast request.

        Membership check, cover and seal see the tree between two ops,
        never mid-edit.  The sealed message fans out to the target
        subset; the requester additionally gets a direct
        correlation-tagged copy as its ack.
        """
        try:
            sender, targets, app_payload = parse_subcast_request(
                message.body)
        except SubcastWireError:
            self._m_requests.inc(type="malformed")
            return
        if not self._admitted("subcast", sender, reply, token, inbound):
            return
        self._attach(sender, reply, path_id)
        tracer = self.instrumentation.tracer
        span = tracer.span("serve.request", parent=inbound,
                           op="subcast", user=sender)
        trace = span.context if span.trace_id else None
        self.flight.record("req", trace_id=span.trace_id, op="subcast",
                           user=sender, targets=len(targets))
        started = time.perf_counter()
        try:
            # Entered, so the backend's spans parent to it.
            with tracer.span("serve.exec", parent=span, op="subcast"):
                if not self.backend.is_member(sender):
                    raise ServerError(
                        f"subcast sender {sender!r} is not a member")
                out = self.backend.subcast(targets, app_payload)
        except Exception as exc:
            self._m_errors.inc(op="subcast")
            span.finish(error=True)
            self.flight.record("error", trace_id=span.trace_id,
                               op="subcast", user=sender,
                               cause=type(exc).__name__)
            self._shed(sender, reply, token, "error", span.context)
            return
        payload_out = out.encoded or out.message.encode()
        if trace is not None:
            payload_out = attach_trailers(payload_out, trace)
        self.fanout.send(out, payload=payload_out)
        # A replayed subcast re-sends only the requester's direct
        # copy — the original fan-out already reached the targets.
        self._idem_record(sender, token, payload_out)
        reply(_corr(payload_out, token))
        span.finish()
        self._m_subcast_seconds.observe(time.perf_counter() - started)
        self.flight.record("done", trace_id=span.trace_id,
                           op="subcast", us=span.duration_ns // 1000)

    def _stats_body(self) -> bytes:
        document = self.backend.stats_document()
        body = json.dumps(document, sort_keys=True).encode("utf-8")
        # A stats reply rides one UDP datagram; a full span ring is
        # megabytes and sendto would fail silently.  Keep the newest
        # spans that fit and say how many were cut — truncation must
        # be visible, never silent.  Full exports go through the
        # in-process tracer's ``export()``, not the wire.
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

    def _track(self, op: str, user_id: str) -> None:
        """Start/stop heartbeat surveillance once an op is released."""
        if op == "join":
            self.recovery.track(user_id)
        else:
            self.recovery.untrack(user_id)


class CoalescingServingCore(AsyncServingCore):
    """Fold concurrent joins/leaves into one flush of the key server.

    Requests are checked against the window on arrival
    (:meth:`~repro.core.server.GroupKeyServer.check_window`; a refused
    one gets the server's signed denial at once) and wait for the next
    :meth:`~repro.core.server.GroupKeyServer.flush`, which runs once
    per ``coalesce_interval`` — or as soon as ``coalesce_max`` requests
    are pending.  Each request is then released like an immediate op:
    every joiner gets its ``MSG_JOIN_ACK`` directly and its path keys
    through the fan-out, every leaver (and each half of a cancelled
    join/leave pair) its ack.  ``max_inflight`` should be at least
    ``coalesce_max`` or admission will cap the window first.
    """

    flavor = "coalesce"

    def __init__(self, backend, config: Optional[ServeConfig] = None,
                 workers: Optional[int] = None,
                 recovery_policy: Optional[RecoveryPolicy] = None):
        super().__init__(backend, config, workers, recovery_policy)
        registry = self.instrumentation.registry
        self._m_pending = registry.gauge(
            "serve_coalesce_pending",
            "Rekey requests queued for the next flush.").labels()
        self._m_flushes = registry.counter(
            "serve_flushes_total",
            "Coalesced rekey flushes executed.").labels()
        # The window: joiners and leavers in arrival order, and the
        # requests waiting for its flush.
        self._joins: Dict[str, None] = {}
        self._leaves: Dict[str, None] = {}
        self._waiters: List[tuple] = []
        self._flush_event = asyncio.Event()
        self._flush_task: Optional[asyncio.Task] = None

    async def start(self):
        await super().start()
        if self._flush_task is None:
            self._flush_task = asyncio.get_running_loop().create_task(
                self._flush_loop())

    async def aclose(self):
        # Final drain: ops already accepted into the window get their
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
        self._fail_waiters(self._take_window()[2], "closing")
        await super().aclose()

    def _fail_waiters(self, waiters, reason: str) -> None:
        # A busy reply beats leaving the client to tell server failure
        # from packet loss by timeout.
        for _op, user_id, reply, token, trace, future in waiters:
            self._shed(user_id, reply, token, reason, trace)
            if not future.done():
                future.set_result(None)

    def _enqueue(self, op: str, user_id: str) -> None:
        """Admit one request to the window, or raise ServerError."""
        backend = self.backend
        backend.check_window(op, user_id, self._joins, self._leaves)
        if op == "join" and user_id not in backend._registered_keys:
            if not self.config.open_enroll:
                raise ServerError(f"no individual key for {user_id!r}")
            backend.register_individual_key(user_id,
                                            backend.new_individual_key())
        (self._joins if op == "join" else self._leaves)[user_id] = None

    async def _rekey(self, op, user_id, payload, reply, token, span):
        trace = span.context if span.trace_id else None
        # Enqueue and waiter registration are one step: the flush
        # consumes the window and the waiter list together.
        with self.instrumentation.tracer.span("serve.enqueue",
                                              parent=span, op=op):
            try:
                self._enqueue(op, user_id)
            except ServerError:
                self._route([self.backend._denial(op, user_id)], user_id,
                            reply, token, trace)
                # A duplicate of a join still in the window is refused
                # too, but that joiner's path is about to be needed.
                if op == "join" and user_id not in self._joins:
                    self._forget_denied(user_id)
                return
            future = asyncio.get_running_loop().create_future()
            self._waiters.append((op, user_id, reply, token, trace, future))
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
            if self._waiters:
                self._flush()

    def _take_window(self):
        window = self._joins, self._leaves, self._waiters
        self._joins, self._leaves, self._waiters = {}, {}, []
        self._m_pending.set(0)
        return window

    def _flush(self):
        joins, leaves, waiters = self._take_window()
        backend = self.backend
        # A recovery tick may have evicted a leaver since it queued.
        leaves = [user_id for user_id in leaves
                  if user_id in joins or backend.is_member(user_id)]
        try:
            outcome = backend.flush([(user_id, None) for user_id in joins],
                                    leaves)
            paths = {out.destination.user_id: out
                     for out in outcome.rekey_messages
                     if out.destination.kind == DEST_USER}
            gone, joined = [], []
            for waiter in waiters:
                op, user_id = waiter[0], waiter[1]
                if op == "join" and user_id in paths:
                    leaf_id = backend.tree.leaf_of(user_id).node_id
                    ack = backend._control_message(
                        MSG_JOIN_ACK, user_id,
                        body=leaf_id.to_bytes(4, "big"))
                    joined.append((waiter, [ack, paths[user_id]]))
                else:
                    # A leaver, or one half of a cancelled join/leave.
                    ack = backend._control_message(
                        MSG_JOIN_ACK if op == "join" else MSG_LEAVE_ACK,
                        user_id)
                    gone.append((waiter, [ack]))
        except Exception:
            self._m_errors.inc(op="flush")
            self._fail_waiters(waiters, "error")
            return
        self._m_flushes.inc()
        # Leavers go first, so the group rekey misses them; joiners
        # after it, as it carries nothing their own path does not.
        for waiter, outputs in gone:
            self._release_waiter(waiter, "leave", outputs)
        for out in outcome.rekey_messages:
            if out.destination.kind != DEST_USER:
                self.fanout.send(out)
        for waiter, outputs in joined:
            self._release_waiter(waiter, "join", outputs)

    def _release_waiter(self, waiter, op: str, outputs) -> None:
        _op, user_id, reply, token, trace, future = waiter
        self._release_op(op, user_id, outputs, reply, token, trace)
        self._track(op, user_id)
        if not future.done():
            future.set_result(None)


#: Older names of :class:`AsyncServingCore`, kept importable for the
#: frozen benchmark suite.
ImmediateServingCore = ClusterServingCore = AsyncServingCore
