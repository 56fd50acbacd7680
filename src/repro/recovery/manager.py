"""Server-side recovery loop: resync pushes, retries, eviction, shedding.

The manager runs on *logical ticks* (the scenario/operator calls
:meth:`RecoveryManager.tick` once per protocol round), which keeps every
decision deterministic and testable — no wall-clock timers.

Per tick it:

1. marks members silent for more than ``dead_after`` ticks as dead and
   queues them for eviction;
2. sends the due resync pushes, at most :data:`MAX_PUSHES_PER_TICK` of
   them (a fresh reply is built per attempt, so retries always carry
   *current* keys), backing off exponentially and escalating to
   eviction when the per-member delivery budget runs out;
3. drains the eviction queue — one leave rekey per member, or, when the
   key server batches (``supports_batch``: a tree
   :class:`~repro.core.server.GroupKeyServer`, whose ``evict`` is one
   :meth:`~repro.core.server.GroupKeyServer.flush`) and the queue is at
   least ``shed_threshold`` deep, **one** collapsed group-oriented
   flush (overload shedding: a mass failure costs one rekey, not N).

The manager drives the key server itself — any
:class:`~repro.core.server.KeyServerProtocol` — through ``is_member``,
``group_key_ref``, ``resync`` and ``evict``.

Resyncs are also served pull-style: a member that detected its own gap
sends ``MSG_RESYNC_REQUEST`` and gets an immediate reply.

A heartbeat schedules a push for *staleness*, not latency: a ref that
was still current at the end of the previous tick may belong to a
rekey on its way and is left alone (:meth:`RecoveryManager.heartbeat`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..core.messages import (MSG_HEARTBEAT, MSG_RESYNC_REQUEST,
                             MSG_RESYNC_REPLY, Message, OutboundMessage,
                             WireError)
from ..observability import Instrumentation


#: Resync replies built per tick (each is a signed message); what does
#: not fit waits for the next tick.  ``tick(push_budget=...)`` overrides.
MAX_PUSHES_PER_TICK = 64


class RecoveryError(ValueError):
    """Raised on invalid recovery configuration or datagrams."""


@dataclass
class RecoveryPolicy:
    """Tunables of the recovery loop (all in logical ticks)."""

    dead_after: int = 8          # heartbeat silence before eviction
    max_attempts: int = 5        # per-member resync delivery budget
    backoff_base: int = 1        # first retry delay
    backoff_factor: int = 2      # exponential growth per retry
    backoff_cap: int = 8         # retry delay ceiling
    shed_threshold: int = 4      # queue depth that triggers a shed flush
    evict_on_budget_exhausted: bool = True

    def validate(self) -> None:
        """Check field consistency; raises RecoveryError."""
        if self.dead_after < 1:
            raise RecoveryError("dead_after must be >= 1")
        if self.max_attempts < 1:
            raise RecoveryError("max_attempts must be >= 1")
        if self.backoff_base < 1 or self.backoff_factor < 1:
            raise RecoveryError("backoff parameters must be >= 1")
        if self.shed_threshold < 2:
            raise RecoveryError("shed_threshold must be >= 2")

    def backoff(self, attempts: int) -> int:
        """Delay before the next push after ``attempts`` sends."""
        delay = self.backoff_base * self.backoff_factor ** max(
            0, attempts - 1)
        return min(delay, self.backoff_cap)


class _Pending:
    """One member's outstanding resync push."""

    __slots__ = ("attempts", "due")

    def __init__(self, due: int):
        self.attempts = 0
        self.due = due


class RecoveryManager:
    """Heartbeat-driven resynchronization and eviction for one key
    server (``backend``)."""

    def __init__(self, backend, transport, *,
                 policy: Optional[RecoveryPolicy] = None,
                 instrumentation: Optional[Instrumentation] = None,
                 on_evicted: Optional[Callable[[str], None]] = None):
        self.backend = backend
        self.transport = transport
        #: Called with each evicted member's id *before* its eviction
        #: rekey is sent, so the transport stops counting the member
        #: into the group it just left.  By default the member leaves
        #: its audiences and keeps its path: if it comes back it is
        #: owed a ``RESYNC_NOT_MEMBER``.  The serving layer drops the
        #: path instead (the next heartbeat re-registers it).
        self.on_evicted = (on_evicted if on_evicted is not None
                           else lambda user_id: transport.enroll(user_id, ()))
        self.policy = policy if policy is not None else RecoveryPolicy()
        self.policy.validate()
        self.instrumentation = (instrumentation if instrumentation is not None
                                else Instrumentation("recovery"))
        registry = self.instrumentation.registry
        self._m_resyncs = registry.counter(
            "recovery_resyncs_total",
            "Resync replies produced, by trigger.", labels=("trigger",))
        self._m_retries = registry.counter(
            "recovery_retries_total",
            "Resync pushes retried after backoff.").labels()
        self._m_evictions = registry.counter(
            "recovery_evictions_total",
            "Members evicted, by reason.", labels=("reason",))
        self._m_sheds = registry.counter(
            "recovery_shed_flushes_total",
            "Eviction queues collapsed into one batch flush.").labels()
        self._m_failures = registry.counter(
            "recovery_backend_failures_total",
            "Backend errors while serving recovery, by op.",
            labels=("op",))
        self._m_pending = registry.gauge(
            "recovery_pending_resyncs",
            "Members with an outstanding resync push.").labels()
        self._m_tracked = registry.gauge(
            "recovery_tracked_members",
            "Members under heartbeat surveillance.").labels()

        self.now = 0
        #: Group-key ref as of the end of the previous tick (None before
        #: the first): the floor of the heartbeat grace window.
        self._ref_at_tick = None
        self._last_seen: Dict[str, int] = {}
        self._pending: Dict[str, _Pending] = {}
        self._evict_queue: List[str] = []
        self._evict_attempts: Dict[str, int] = {}
        self.evicted: List[str] = []
        self.sheds = 0

    # -- surveillance ------------------------------------------------------

    def track(self, user_id: str) -> None:
        """Start heartbeat surveillance for a member (counts as seen now)."""
        self._last_seen[user_id] = self.now
        self._m_tracked.set(len(self._last_seen))

    def untrack(self, user_id: str) -> None:
        """Stop surveillance (clean leave or post-eviction)."""
        self._last_seen.pop(user_id, None)
        self._pending.pop(user_id, None)
        self._evict_attempts.pop(user_id, None)
        if user_id in self._evict_queue:
            self._evict_queue.remove(user_id)
        self._m_tracked.set(len(self._last_seen))
        self._m_pending.set(len(self._pending))

    @property
    def pending_resyncs(self) -> int:
        """Members with an outstanding resync push."""
        return len(self._pending)

    @property
    def pending_evictions(self) -> int:
        """Dead members queued for an eviction rekey."""
        return len(self._evict_queue)

    # -- datagram entry ----------------------------------------------------

    def receive(self, data: bytes) -> List[OutboundMessage]:
        """Handle one recovery datagram (heartbeat or resync request).

        Returns the reply messages (unsent — the caller owns delivery,
        matching ``handle_datagram`` semantics elsewhere).
        """
        try:
            message = Message.decode(data)
        except WireError as exc:
            raise RecoveryError(f"malformed datagram: {exc}") from None
        user_id = message.body.decode("utf-8", errors="replace")
        if message.msg_type == MSG_HEARTBEAT:
            self.heartbeat(user_id,
                           (message.root_node_id, message.root_version))
            return []
        if message.msg_type == MSG_RESYNC_REQUEST:
            reply = self.serve_request(user_id)
            return [reply] if reply is not None else []
        raise RecoveryError(
            f"unexpected message type {message.msg_type}")

    def heartbeat(self, user_id: str, root_ref) -> None:
        """Fold one heartbeat in: liveness plus group-key staleness.

        A ref that is not current but was at the end of the previous
        tick or since (same root node, version no older than the one
        remembered then) may belong to a rekey still in flight: it
        neither schedules nor cancels a push.  Ticks and versions, not
        milliseconds — the manager has no clock; the price is that a
        genuinely lost rekey is pushed one tick later.  Before the
        first tick nothing is remembered and every mismatch schedules.
        """
        backend = self.backend
        if not backend.is_member(user_id):
            # Evicted while it was down, or never joined: one notice
            # (RESYNC_NOT_MEMBER) if the tick's budget has room, and no
            # surveillance state — bogus ids must not grow the tables.
            self._schedule(user_id)
            return
        last_seen = self._last_seen
        first = user_id not in last_seen
        last_seen[user_id] = self.now
        if first:
            self._m_tracked.set(len(last_seen))
        if user_id in self._evict_queue:
            # Went silent, came back before the eviction fired.
            self._evict_queue.remove(user_id)
            self._evict_attempts.pop(user_id, None)
        root_id, version = root_ref
        current_id, current_version = backend.group_key_ref()
        if root_id == current_id and version == current_version:
            # Confirmed current: cancel any outstanding push.
            if self._pending.pop(user_id, None) is not None:
                self._m_pending.set(len(self._pending))
            return
        floor = self._ref_at_tick
        if (floor is not None and root_id == current_id == floor[0]
                and floor[1] <= version < current_version):
            return  # current within the last tick: rekey in flight
        self._schedule(user_id)

    def serve_request(self, user_id: str) -> Optional[OutboundMessage]:
        """Answer a member-initiated resync request immediately."""
        self._last_seen[user_id] = self.now
        reply = self._build_reply(user_id, trigger="request")
        if reply is not None and self._pending.pop(user_id, None) is not None:
            self._m_pending.set(len(self._pending))
        return reply

    def _schedule(self, user_id: str) -> None:
        if user_id not in self._pending:
            self._pending[user_id] = _Pending(due=self.now)
            self._m_pending.set(len(self._pending))

    def _build_reply(self, user_id: str,
                     trigger: str) -> Optional[OutboundMessage]:
        try:
            reply = self.backend.resync(user_id)
        except Exception:
            # Backend temporarily unable (e.g. owning shard failed and
            # not yet promoted): the retry loop will come back.
            self._m_failures.inc(op="resync")
            return None
        self._m_resyncs.inc(trigger=trigger)
        return reply

    # -- the tick loop -----------------------------------------------------

    def tick(self, push_budget: int = MAX_PUSHES_PER_TICK) -> None:
        """Advance one logical round: silence, pushes, evictions.

        ``push_budget`` bounds the resync replies built this round; 0
        is what a lagging event loop asks for — the pushes wait,
        dead-detection and evictions still run.
        """
        self.now += 1
        self._detect_dead()
        self._push_due(push_budget)
        self._drain_evictions()
        try:
            self._ref_at_tick = self.backend.group_key_ref()
        except Exception:  # empty group: nothing to be stale against
            self._ref_at_tick = None

    def _detect_dead(self) -> None:
        for user_id, last in list(self._last_seen.items()):
            if self.now - last <= self.policy.dead_after:
                continue
            del self._last_seen[user_id]
            self._pending.pop(user_id, None)
            if self.backend.is_member(user_id) \
                    and user_id not in self._evict_queue:
                self._evict_queue.append(user_id)
                self._m_evictions.inc(reason="silence")
        self._m_tracked.set(len(self._last_seen))
        self._m_pending.set(len(self._pending))

    def _push_due(self, budget: int) -> None:
        """Send up to ``budget`` due pushes, in schedule order.

        Members go first; one that does not fit stays pending with
        ``due`` and ``attempts`` untouched — waiting is not a delivery
        attempt and must not walk it toward budget eviction.  What is
        left of the budget goes to not-member notices, and a notice is
        never carried over (its sender is re-queued if it heartbeats
        again): bogus ids hold no state beyond the tick.
        """
        pending = self._pending
        is_member = self.backend.is_member
        notices = []
        for user_id, entry in list(pending.items()):
            if entry.due > self.now:
                continue
            if not is_member(user_id):
                notices.append(user_id)
            elif budget > 0:
                budget -= 1
                self._push(user_id, entry)
                if entry.attempts < self.policy.max_attempts:
                    entry.due = self.now + self.policy.backoff(
                        entry.attempts)
                else:
                    del pending[user_id]
                    if self.policy.evict_on_budget_exhausted \
                            and user_id not in self._evict_queue:
                        self._evict_queue.append(user_id)
                        self._m_evictions.inc(reason="budget")
        for user_id in notices[:budget]:
            # Nothing to converge to: told once, never retried.
            self._push(user_id, pending[user_id])
        for user_id in notices:
            del pending[user_id]
        self._m_pending.set(len(pending))

    def _push(self, user_id: str, entry: _Pending) -> None:
        with self.instrumentation.tracer.span(
                "resync.push", user=user_id, attempt=entry.attempts + 1):
            reply = self._build_reply(user_id, trigger="push")
        if entry.attempts:
            self._m_retries.inc()
        entry.attempts += 1
        if reply is not None:
            self.transport.send(reply)

    def _drain_evictions(self) -> None:
        if not self._evict_queue:
            return
        tracer = self.instrumentation.tracer
        queue = [user_id for user_id in self._evict_queue
                 if self.backend.is_member(user_id)]
        if not queue:
            self._evict_queue.clear()
            return
        if self.backend.supports_batch \
                and len(queue) >= self.policy.shed_threshold:
            # Overload shedding: the whole queue in one batch flush.
            with tracer.span("resync.evict", members=len(queue),
                             mode="shed"):
                try:
                    messages = self.backend.evict(queue)
                except Exception:
                    self._m_failures.inc(op="evict")
                    self._bump_evict_attempts(queue)
                    return
            self._m_sheds.inc()
            self.sheds += 1
            for user_id in queue:
                self._finish_eviction(user_id)
            self.transport.send_all(messages)
            return
        for user_id in queue:
            with tracer.span("resync.evict", user=user_id, mode="single"):
                try:
                    messages = self.backend.evict([user_id])
                except Exception:
                    self._m_failures.inc(op="evict")
                    self._bump_evict_attempts([user_id])
                    continue
            self._finish_eviction(user_id)
            self.transport.send_all(messages)

    def _bump_evict_attempts(self, user_ids) -> None:
        """Count a failed eviction try; give up past the budget."""
        for user_id in user_ids:
            attempts = self._evict_attempts.get(user_id, 0) + 1
            if attempts >= self.policy.max_attempts:
                if user_id in self._evict_queue:
                    self._evict_queue.remove(user_id)
                self._evict_attempts.pop(user_id, None)
            else:
                self._evict_attempts[user_id] = attempts

    def _finish_eviction(self, user_id: str) -> None:
        self.evicted.append(user_id)
        if user_id in self._evict_queue:
            self._evict_queue.remove(user_id)
        self._evict_attempts.pop(user_id, None)
        self._pending.pop(user_id, None)
        self._last_seen.pop(user_id, None)
        self._m_tracked.set(len(self._last_seen))
        self.on_evicted(user_id)
