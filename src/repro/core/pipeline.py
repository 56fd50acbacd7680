"""The staged rekey pipeline shared by every rekey path.

The paper's server (§3, §5) is *one* rekey engine measured three ways;
this module is that engine's single implementation.  A rekey operation
— an immediate join/leave/refresh (:class:`~repro.core.server.
GroupKeyServer`), an interval batch flush (:class:`~repro.batch.
rekeying.BatchRekeyServer`), or a covering-based key-graph edit
(:class:`~repro.keygraph.materialized.MaterializedKeyGraph`) — runs
through four explicit stages:

``plan``
    The path-specific planner edits the key graph and schedules
    encryptions, returning :class:`~repro.core.strategies.base.
    PlannedMessage` objects whose items are deferred
    :class:`~repro.core.strategies.base.PendingItem` entries.  IVs are
    drawn here so the DRBG stream matches immediate encryption.
``encrypt``
    Every scheduled encryption executes (the CPU-heavy CBC passes).
``sign``
    Plans become wire :class:`~repro.core.messages.Message` objects
    (sequence numbers, timestamps, the current root reference) and the
    signer seals them — one signature over the whole batch (Merkle),
    one per message, or none.
``dispatch``
    Messages are encoded and wrapped in :class:`~repro.core.messages.
    OutboundMessage`.  A group-addressed message names the group and
    never its members — every transport resolves that address from its
    audience index (:mod:`repro.transport.audience`); explicit
    addresses get their receiver lists *after* the processing clock
    stops.

Each stage has a hook point (:meth:`RekeyPipeline.add_hook`) so future
optimisations — key caches, parallel signing, async dispatch — plug
into one pipeline instead of three copies.  Per-stage timings flow into
the shared :mod:`repro.observability` core; ``PipelineRun.seconds`` is
the timed region the paper reports as server processing time.

The module also centralises what the three paths used to copy-paste:
:class:`KeyMaterialSource` (key/IV sourcing from one seeded DRBG),
:func:`make_signer` (signer selection + keypair construction) and
:func:`validate_signing` (the signing-mode validation previously
duplicated between ``ServerConfig.validate`` and ``BatchRekeyServer``).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Type

from ..crypto import drbg
from ..observability import NULL_INSTRUMENTATION, StageClock
from .messages import (DEST_ALL, MSG_REKEY, Message, OutboundMessage,
                       STRATEGY_NONE)
from .signing import MerkleSigner, NullSigner, PerMessageSigner
from .strategies.base import PlannedMessage, RekeyContext, resolve_item

STAGE_PLAN = "plan"
STAGE_ENCRYPT = "encrypt"
STAGE_SIGN = "sign"
STAGE_DISPATCH = "dispatch"
STAGES = (STAGE_PLAN, STAGE_ENCRYPT, STAGE_SIGN, STAGE_DISPATCH)

SIGNING_MODES = ("none", "per-message", "merkle")


class PipelineError(ValueError):
    """Raised on invalid pipeline configuration."""


def validate_signing(signing: str, suite,
                     error: Type[Exception] = PipelineError) -> None:
    """Shared signing-mode validation for every rekey path.

    Raises ``error`` (so each server surfaces its own exception type)
    when the mode is unknown or needs signatures the suite lacks.
    """
    if signing not in SIGNING_MODES:
        raise error(f"unknown signing mode {signing!r}")
    if signing != "none" and not suite.signs:
        raise error(f"signing mode {signing!r} needs a suite with signatures")


class KeyMaterialSource:
    """Key and IV sourcing for one server, from one seeded DRBG.

    Replaces the ``_new_key``/``_new_iv`` pairs previously copy-pasted
    across the rekey paths.  ``personalization`` keeps the historic
    per-path DRBG domain separation (so seeded outputs are unchanged).
    Custom ``key_source``/``iv_source`` callables bypass the DRBG —
    used by :class:`~repro.keygraph.materialized.MaterializedKeyGraph`,
    whose caller supplies the generators.
    """

    __slots__ = ("suite", "_key_source", "_iv_source")

    def __init__(self, suite, seed: Optional[bytes] = None,
                 personalization: bytes = b"key-material",
                 key_source: Optional[Callable[[], bytes]] = None,
                 iv_source: Optional[Callable[[], bytes]] = None):
        self.suite = suite
        if key_source is None or iv_source is None:
            random = drbg.make_source(seed, personalization)
        self._key_source = key_source or (lambda: suite.safe_key(random))
        self._iv_source = iv_source or (
            lambda: random.generate(suite.block_size))

    def new_key(self) -> bytes:
        """Fresh key material sized for the suite."""
        return self._key_source()

    def new_iv(self) -> bytes:
        """Fresh IV of one cipher block."""
        return self._iv_source()

    def new_individual_key(self) -> bytes:
        """An individual key (stands in for the auth exchange)."""
        return self.new_key()


# Seeded keypair derivation is deterministic — same (suite, seed) always
# yields the same key — but costs two Miller-Rabin prime searches.  Test
# scenarios build many servers from the same seed, so memoize.  Unseeded
# (seed=None) derivation is random by contract and is never cached.
_KEYPAIR_MEMO: "OrderedDict[tuple, object]" = OrderedDict()
_KEYPAIR_MEMO_MAX = 128


def _derive_signing_keypair(suite, seed: Optional[bytes]):
    if seed is None:
        return suite.generate_signing_keypair(seed=None)
    memo_key = (suite.cipher_name, suite.digest_name, suite.signature_bits,
                bytes(seed))
    keypair = _KEYPAIR_MEMO.get(memo_key)
    if keypair is None:
        keypair = suite.generate_signing_keypair(seed=seed + b"/sign")
        _KEYPAIR_MEMO[memo_key] = keypair
        if len(_KEYPAIR_MEMO) > _KEYPAIR_MEMO_MAX:
            _KEYPAIR_MEMO.popitem(last=False)
    else:
        _KEYPAIR_MEMO.move_to_end(memo_key)
    return keypair


def make_signer(suite, signing: str, seed: Optional[bytes] = None,
                error: Type[Exception] = PipelineError):
    """Build (signer, signing_keypair) for a signing mode.

    The shared signer factory: validates the mode via
    :func:`validate_signing`, derives the keypair seed the same way
    every path historically did (``seed + b"/sign"``), and returns a
    ``(signer, keypair)`` pair — ``keypair`` is ``None`` for mode
    ``"none"``.

    Seeded keypairs are memoized per (suite parameters, seed): two
    servers configured with the same seed share one keypair *object*,
    and the second server skips prime generation entirely.
    """
    validate_signing(signing, suite, error)
    if signing == "none":
        return NullSigner(suite), None
    keypair = _derive_signing_keypair(suite, seed)
    if signing == "per-message":
        return PerMessageSigner(suite, keypair), keypair
    return MerkleSigner(suite, keypair), keypair


class Sequencer:
    """A shared message sequence counter (survives snapshot/restore).

    ``next`` is atomic: the async serving layer seals concurrent runs
    from executor threads, and two runs drawing the same sequence
    number would collide at the client's replay guard.  ``value``
    remains a plain attribute for snapshot/restore.
    """

    __slots__ = ("value", "_lock")

    def __init__(self, start: int = 0):
        self.value = start
        self._lock = threading.Lock()

    def next(self) -> int:
        """The next sequence number (first call returns start + 1)."""
        with self._lock:
            self.value += 1
            return self.value


class SealTurnstile:
    """Admits seal stages strictly in plan order.

    Overlapped staged runs finish their encrypt stage in whatever
    order the worker pool happens to schedule, but sequence numbers
    (for the rekey messages *and* the op's ack) must be drawn in plan
    order or the overlapped path diverges byte-wise from the
    synchronous one.  Each run takes a ``ticket`` at plan time (plans
    are serialized by the caller); ``wait`` blocks until every earlier
    ticket has been retired.  ``retire`` is how a run passes the turn
    on — including runs that abort before sealing, so a failed op
    never wedges the ops planned after it.

    No deadlock under a FIFO worker pool: tasks are submitted in plan
    order, so whenever a run is waiting its turn, every earlier run
    has already started on some worker and will retire its ticket.
    """

    __slots__ = ("_cond", "_next", "_serving", "_retired")

    def __init__(self):
        self._cond = threading.Condition()
        self._next = 0
        self._serving = 0
        self._retired = set()

    def ticket(self) -> int:
        """Reserve the next turn (call in plan order)."""
        with self._cond:
            ticket = self._next
            self._next += 1
            return ticket

    @property
    def idle(self) -> bool:
        """True when every issued ticket has been retired.

        While the caller serializes plans (and so ticket draws) behind
        a lock it holds, idleness cannot be invalidated — which lets a
        whole-op caller (e.g. a recovery eviction sweep) ensure its
        seal never has to wait for a staged run that may still be
        queued for a worker.
        """
        with self._cond:
            return self._serving == self._next

    def wait(self, ticket: int) -> float:
        """Block until every ticket before ``ticket`` is retired.

        Returns the seconds actually spent blocked — 0.0 on the
        uncontended fast path, which also skips the clock reads.
        """
        with self._cond:
            if self._serving >= ticket:
                return 0.0
            started = time.perf_counter()
            while self._serving < ticket:
                self._cond.wait()
            return time.perf_counter() - started

    def retire(self, ticket: int) -> None:
        """Pass the turn on; out-of-order retires (aborts) are fine."""
        with self._cond:
            self._retired.add(ticket)
            while self._serving in self._retired:
                self._retired.discard(self._serving)
                self._serving += 1
            self._cond.notify_all()


@dataclass
class PipelineRun:
    """Everything one pipeline run produced, stage by stage."""

    op: str
    user_id: str
    strategy_code: int
    context: RekeyContext
    plans: List[PlannedMessage] = field(default_factory=list)
    wire_messages: List[Message] = field(default_factory=list)
    messages: List[OutboundMessage] = field(default_factory=list)
    signatures: int = 0
    seconds: float = 0.0
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    # Span identity of this run (0/0 when the pipeline's tracer is the
    # null tracer); transports propagate it out-of-band.
    trace_id: int = 0
    span_id: int = 0

    @property
    def encryptions(self) -> int:
        """Keys encrypted during the run (the Table 2 cost measure)."""
        return self.context.encryptions

    @property
    def total_bytes(self) -> int:
        """Total encoded bytes over all produced messages."""
        return sum(message.size for message in self.messages)

    @property
    def max_message_bytes(self) -> int:
        """Largest single encoded message (0 when none)."""
        return max((message.size for message in self.messages), default=0)


PipelineHook = Callable[[PipelineRun], None]


class StagedRun:
    """One rekey operation with caller-driven stage execution.

    :meth:`RekeyPipeline.begin` already ran the plan stage (graph edit
    + scheduled encryptions) on the calling thread.  The caller then
    drives:

    :meth:`encrypt`
        Materializes this run's scheduled encryptions.  Touches only
        per-run state, so independent runs may encrypt concurrently on
        worker threads.
    :meth:`seal`
        Assembles wire messages (drawing sequence numbers) and signs
        them.  Seals are admitted strictly in plan order by the
        pipeline's :class:`SealTurnstile` (and serialized under its
        seal lock), so sequence numbers and signer state evolve
        exactly as they would on the synchronous path; then encodes
        the outbound messages and stops the processing clock.  The
        run's turn stays held until :meth:`release_turn` (or
        :meth:`finish` / :meth:`abort`), letting a caller draw this
        op's ack sequence number before the next op seals.
    :meth:`finish`
        Resolves the receiver lists of explicitly addressed plans
        (outside the timed region; a group address has none), fires the
        dispatch hook and records the run's metrics.  Returns the
        completed :class:`PipelineRun`.

    Any stage that raises records the partial timings as an errored
    run (mirroring the synchronous path) before propagating.  The
    synchronous :meth:`RekeyPipeline.run` is exactly
    ``begin -> encrypt -> seal -> finish`` on one thread, so both
    paths share one implementation and produce identical bytes.
    """

    __slots__ = ("pipeline", "run", "clock", "root_span", "_root_ref",
                 "_done", "_seal_ticket")

    def __init__(self, pipeline: "RekeyPipeline", run: PipelineRun,
                 clock: StageClock, root_span, root_ref):
        self.pipeline = pipeline
        self.run = run
        self.clock = clock
        self.root_span = root_span
        self._root_ref = root_ref
        self._done = False
        self._seal_ticket = None

    def encrypt(self) -> "StagedRun":
        """Run the encrypt stage (safe on a worker thread)."""
        tracer = self.pipeline.instrumentation.tracer
        try:
            with self.clock.stage(STAGE_ENCRYPT), \
                    tracer.span(STAGE_ENCRYPT, parent=self.root_span):
                self.run.context.materialize()
            self.pipeline._fire(STAGE_ENCRYPT, self.run)
        except BaseException:
            self.abort()
            raise
        return self

    def seal(self) -> "StagedRun":
        """Run the sign + dispatch-encode stages and stop the clock."""
        pipeline = self.pipeline
        tracer = pipeline.instrumentation.tracer
        run = self.run
        try:
            if self._seal_ticket is not None:
                # The wait span is finished only when the wait actually
                # blocked, so uncontended seals add no span traffic.
                wait_span = tracer.span("seal.wait", parent=self.root_span)
                if pipeline.seal_order.wait(self._seal_ticket) > 0.0:
                    wait_span.finish()
            with pipeline.seal_lock:
                with self.clock.stage(STAGE_SIGN), \
                        tracer.span(STAGE_SIGN, parent=self.root_span):
                    run.wire_messages = pipeline._assemble(run,
                                                           self._root_ref)
                    run.signatures = pipeline._seal(run.wire_messages)
                pipeline._fire(STAGE_SIGN, run)
            with self.clock.stage(STAGE_DISPATCH), \
                    tracer.span(STAGE_DISPATCH, parent=self.root_span):
                run.messages = [
                    OutboundMessage(plan.destination, message, (),
                                    message.encode())
                    for plan, message in zip(run.plans, run.wire_messages)]
            run.seconds = self.clock.stop()
            self.root_span.set("messages", len(run.messages))
            self.root_span.finish()
        except BaseException:
            self.abort()
            raise
        return self

    def release_turn(self) -> None:
        """Retire this run's seal turn (idempotent).

        Called automatically by :meth:`finish` and :meth:`abort`; call
        it earlier — after any post-seal sequence draws for this op —
        to let the next planned op start sealing sooner.
        """
        ticket, self._seal_ticket = self._seal_ticket, None
        if ticket is not None:
            self.pipeline.seal_order.retire(ticket)

    def finish(self) -> PipelineRun:
        """Resolve explicit receivers, fire the dispatch hook, record."""
        self.release_turn()
        run = self.run
        for outbound, plan in zip(run.messages, run.plans):
            if plan.destination.kind != DEST_ALL:
                outbound.receivers = plan.resolve_receivers()
        self.pipeline._fire(STAGE_DISPATCH, run)
        run.stage_seconds = dict(self.clock.stages)
        self.pipeline.instrumentation.record_run(run.op, self.clock)
        self._done = True
        return run

    def abort(self) -> None:
        """Record the run as errored (idempotent; safe after any stage)."""
        self.release_turn()
        if self._done:
            return
        self._done = True
        self.clock.error = True
        self.run.seconds = self.clock.stop()
        self.root_span.finish(error=True)
        self.run.stage_seconds = dict(self.clock.stages)
        self.pipeline.instrumentation.record_run(self.run.op, self.clock)


class RekeyPipeline:
    """plan -> encrypt -> sign -> dispatch, with per-stage hook points.

    One instance per server; :meth:`run` executes one rekey operation.
    ``seal_individually`` selects the batch path's historic behaviour
    (each message sealed on its own) over the immediate server's (one
    seal over the whole batch — amortised for Merkle signing).
    ``signer=None`` skips sealing entirely (messages carry no auth
    block), which is what the materialized key-graph path ships.
    """

    def __init__(self, suite, material: KeyMaterialSource, *,
                 signer=None, sequencer: Optional[Sequencer] = None,
                 group_id: int = 1, msg_type: int = MSG_REKEY,
                 seal_individually: bool = False, instrumentation=None):
        self.suite = suite
        self.material = material
        self.signer = signer
        self.sequencer = sequencer if sequencer is not None else Sequencer()
        self.group_id = group_id
        self.msg_type = msg_type
        self.seal_individually = seal_individually
        self.instrumentation = (instrumentation if instrumentation is not None
                                else NULL_INSTRUMENTATION)
        self._hooks: Dict[str, List[PipelineHook]] = {
            stage: [] for stage in STAGES}
        # Serializes the sign stage across concurrently staged runs
        # (the signer — Merkle batching, signature counters — is
        # stateful); the turnstile additionally admits seals strictly
        # in plan order, so sequence numbers are drawn exactly as the
        # synchronous path would draw them no matter how the worker
        # pool interleaves the encrypt stages.
        self.seal_lock = threading.Lock()
        self.seal_order = SealTurnstile()

    # -- hooks -------------------------------------------------------------

    def add_hook(self, stage: str, hook: PipelineHook) -> None:
        """Register ``hook(run)`` to fire after ``stage`` completes."""
        if stage not in self._hooks:
            raise PipelineError(f"unknown stage {stage!r}; "
                                f"expected one of {STAGES}")
        self._hooks[stage].append(hook)

    def _fire(self, stage: str, run: PipelineRun) -> None:
        for hook in self._hooks[stage]:
            hook(run)

    # -- the staged run ----------------------------------------------------

    def new_context(self) -> RekeyContext:
        """A deferred-mode context wired to this pipeline's IV source."""
        return RekeyContext(self.suite, self.material.new_iv, defer=True)

    def run(self, op: str,
            planner: Callable[[RekeyContext], List[PlannedMessage]], *,
            strategy_code: int = STRATEGY_NONE,
            root_ref: Optional[Callable[[], Tuple[int, int]]] = None,
            user_id: str = "") -> PipelineRun:
        """Execute one rekey operation through the four stages.

        ``planner`` performs the path-specific graph edit and returns
        the planned messages (with deferred items).  ``root_ref`` is
        called once, after the edit, for the (root id, version) header
        fields — only when there is at least one plan, mirroring the
        legacy paths (an empty outcome never touches the root).

        The returned run's ``seconds`` covers plan through dispatch
        encoding; explicit receiver lists are resolved after the clock
        stops, and group addresses are resolved by the transport.

        A planner (or stage) that raises still gets its elapsed time
        recorded, flagged as an error, before the exception propagates —
        failed rekeys are visible in the timing aggregates and
        histograms rather than silently dropped.
        """
        staged = self.begin(op, planner, strategy_code=strategy_code,
                            root_ref=root_ref, user_id=user_id)
        staged.encrypt()
        staged.seal()
        return staged.finish()

    def begin(self, op: str,
              planner: Callable[[RekeyContext], List[PlannedMessage]], *,
              strategy_code: int = STRATEGY_NONE,
              root_ref: Optional[Callable[[], Tuple[int, int]]] = None,
              user_id: str = "") -> StagedRun:
        """Run the plan stage now; hand back the remaining stages.

        The plan stage is the graph edit, so it must run serialized by
        the caller (the async layer keeps it on the event loop); the
        returned :class:`StagedRun`'s encrypt stage is then free to run
        on a worker thread.  The DRBG draws (new keys, IVs) all happen
        here, so staged runs consume key material in submission order —
        byte-identical to a sequence of synchronous runs.
        """
        clock = StageClock()
        ctx = self.new_context()
        run = PipelineRun(op=op, user_id=user_id,
                          strategy_code=strategy_code, context=ctx)
        tracer = self.instrumentation.tracer
        root = tracer.span(f"rekey.{op}", op=op, user=user_id)
        run.trace_id = root.trace_id
        run.span_id = root.span_id
        staged = StagedRun(self, run, clock, root, root_ref)
        # Keep the root span active on this thread during planning so
        # spans opened inside the planner parent to it, exactly as the
        # single-shot path did.  NullTracer has no stack to maintain.
        push = getattr(tracer, "_push", None)
        pop = getattr(tracer, "_pop", None)
        try:
            if push is not None:
                push(root)
            try:
                with clock.stage(STAGE_PLAN), tracer.span(STAGE_PLAN):
                    run.plans = list(planner(ctx))
            finally:
                if pop is not None:
                    pop(root)
            self._fire(STAGE_PLAN, run)
        except BaseException:
            staged.abort()
            raise
        staged._seal_ticket = self.seal_order.ticket()
        return staged

    # -- stage internals ---------------------------------------------------

    def _assemble(self, run: PipelineRun,
                  root_ref: Optional[Callable[[], Tuple[int, int]]]
                  ) -> List[Message]:
        """Wrap each plan's (materialized) items in a wire message."""
        if not run.plans:
            return []
        root_id, root_version = root_ref() if root_ref is not None else (0, 0)
        messages = []
        for plan in run.plans:
            messages.append(Message(
                msg_type=self.msg_type,
                group_id=self.group_id,
                strategy=run.strategy_code,
                seq=self.sequencer.next(),
                timestamp_us=time.time_ns() // 1000,
                root_node_id=root_id,
                root_version=root_version,
                items=[resolve_item(item) for item in plan.items],
            ))
        return messages

    def _seal(self, messages: List[Message]) -> int:
        """Sign the batch; returns the number of signatures performed."""
        if self.signer is None or not messages:
            return 0
        before = self.signer.signatures_performed
        if self.seal_individually:
            for message in messages:
                self.signer.seal([message])
        else:
            self.signer.seal(messages)
        return self.signer.signatures_performed - before
