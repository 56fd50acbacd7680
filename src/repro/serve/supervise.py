"""Self-healing shard supervision: probe, kill-detect, restart, promote.

The paper treats the key server as a single trusted process and notes
only that it "may be replicated for reliability".  PR6 built the two
recovery substrates — the on-disk op journal (restart by replay,
:mod:`repro.core.persistence`) and the in-memory warm standby (a
follower of the same journal frames, :mod:`repro.cluster.failover`) —
but both waited for someone to *notice* the crash and drive the
recovery by hand.  This module is that someone.

A :class:`Supervisor` owns N independent shard serving cores (one
:class:`~repro.serve.core.AsyncServingCore` + UDP endpoint each)
and runs one watchdog task per shard:

* **probe** — every ``probe_interval`` the watchdog checks, inline on
  the loop that serves the shard, that its core still serves, that its
  UDP socket is open and that its
  :class:`~repro.serve.health.LoopHealthMonitor` beat is fresh.  A
  shard torn down under the supervisor (the SIGKILL-equivalent
  teardown used by the chaos harness) or whose beat went stale misses
  the probe.
* **declare** — ``probe_misses`` consecutive misses mark the shard
  dead; the watchdog tears down whatever is left of it.
* **restart** — in ``journal`` mode the shard is rebuilt with
  :func:`~repro.core.persistence.restore_from_journal` (strict CRC
  checking: a *torn* tail from the crash is dropped, a *corrupt*
  complete record refuses the restart loudly); in ``standby`` mode its
  :class:`~repro.cluster.failover.WarmStandby` hands over its
  follower.  The two modes differ only in where the journal frames
  went.  Either way the revived server is byte-identical to the
  pre-crash one — members keep their keys — and rebinds the shard's
  original UDP port so client affinity survives.

Restart attempts are budgeted (``max_restarts``) and backed off; a
shard that exhausts the budget, or whose journal fails its integrity
check or whose standby was poisoned by a bad frame, is marked
``failed`` and left down for an operator.  Every transition is
published: ``supervisor_restarts_total`` /
``supervisor_promotions_total`` / ``supervisor_probe_failures_total``
counters, a ``supervisor_shard_up`` gauge, a
``supervisor_restart_seconds`` histogram, ``supervise.restart`` spans
in the supervisor's tracer, and kill/miss/restart events in its flight
recorder.

``examples/supervise_demo.py`` walks a kill and restart, a torn
journal tail, a retry storm and a refused corrupt journal; the tests
in ``tests/serve/test_supervise.py`` assert each.
"""

from __future__ import annotations

import asyncio
import os
import time
from dataclasses import dataclass, field, replace
from functools import partial
from typing import List, Optional, Tuple

from ..cluster.failover import FailoverError, WarmStandby
from ..core import persistence
from ..core.persistence import PersistenceError
from ..core.server import GroupKeyServer, ServerConfig
from ..keygraph.journal import _FRAME, MAGIC, JournalError, TreeJournal
from ..observability.flight import FlightRecorder
from ..observability.instrumentation import Instrumentation
from ..observability.metrics import LATENCY_BUCKETS_S
from ..observability.spans import Tracer
from .config import ServeConfig, ServeError
from .core import AsyncServingCore
from .endpoint import AsyncKeyService


class SupervisorError(ValueError):
    """Raised on invalid supervision configuration or shard state."""


@dataclass(frozen=True)
class SupervisePolicy:
    """Failure-detection and restart knobs for one supervisor."""

    #: Seconds between health probes per shard.  0 disables the
    #: watchdogs — the supervisor only restarts on explicit request.
    probe_interval: float = 0.25
    #: Seconds the shard's loop-health beat may age before a probe
    #: counts as missed.
    probe_deadline: float = 1.0
    #: Consecutive missed probes before the shard is declared dead.
    probe_misses: int = 2
    #: Restart attempts per shard before it is marked ``failed``.
    max_restarts: int = 8
    #: Backoff before re-attempting a failed restart (doubles per
    #: consecutive failure, capped).
    restart_backoff: float = 0.25
    restart_backoff_cap: float = 2.0
    #: Recovery substrate: ``journal`` replays the shard's on-disk op
    #: journal; ``standby`` promotes the in-memory follower of it.
    mode: str = "journal"

    def validate(self) -> None:
        """Check field consistency; raises SupervisorError."""
        if self.probe_interval < 0:
            raise SupervisorError("probe_interval must be >= 0")
        if self.probe_deadline <= 0:
            raise SupervisorError("probe_deadline must be > 0")
        if self.probe_misses < 1:
            raise SupervisorError("probe_misses must be >= 1")
        if self.max_restarts < 0:
            raise SupervisorError("max_restarts must be >= 0")
        if self.restart_backoff < 0 or self.restart_backoff_cap < 0:
            raise SupervisorError("restart backoff must be >= 0")
        if self.mode not in ("journal", "standby"):
            raise SupervisorError(f"unknown recovery mode {self.mode!r}")


@dataclass
class SupervisedShard:
    """One shard's live state as the supervisor sees it."""

    shard_id: int
    name: str
    config: ServerConfig
    serve_config: ServeConfig
    journal_path: Optional[str]
    server: Optional[GroupKeyServer] = None
    core: Optional[AsyncServingCore] = None
    service: Optional[AsyncKeyService] = None
    journal: Optional[TreeJournal] = None
    standby: Optional[WarmStandby] = None
    #: ``up`` | ``down`` | ``restarting`` | ``failed``.
    state: str = "down"
    #: Bumped on every successful restart; lets tests and clients
    #: distinguish "the same shard, new incarnation".
    generation: int = 0
    restarts: int = 0
    address: Optional[Tuple[str, int]] = None
    last_error: Optional[BaseException] = None
    _consecutive_failures: int = field(default=0, repr=False)


def tear_journal_tail(path: str, nbytes: int) -> int:
    """Truncate ``nbytes`` off the journal — a crash mid-append.

    Never cuts into the file magic.  Returns the new size.
    """
    size = os.path.getsize(path)
    new_size = max(len(MAGIC), size - max(0, nbytes))
    os.truncate(path, new_size)
    return new_size


def corrupt_journal_tail(path: str) -> int:
    """Flip one byte inside the last *complete* record.

    Unlike :func:`tear_journal_tail` this leaves the record's length
    intact, so the damage reads as bit rot (CRC mismatch on a complete
    record) rather than a torn append — the class of damage a strict
    restart must refuse.  Returns the corrupted offset.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:len(MAGIC)] != MAGIC:
        raise SupervisorError(f"{path}: not a key-graph journal")
    offset, last = len(MAGIC), None
    while offset + _FRAME.size <= len(data):
        length, _crc = _FRAME.unpack(data[offset:offset + _FRAME.size])
        start = offset + _FRAME.size
        if start + length > len(data):
            break  # torn tail; the record before it is the target
        last = start
        offset = start + length
    if last is None:
        raise SupervisorError(f"{path}: no complete record to corrupt")
    with open(path, "r+b") as fh:
        fh.seek(last)
        byte = fh.read(1)[0]
        fh.seek(last)
        fh.write(bytes([byte ^ 0xFF]))
    return last


class Supervisor:
    """Owns N shard serving cores; detects crashes and revives them."""

    def __init__(self, n_shards: int = 3, *,
                 server_config: Optional[ServerConfig] = None,
                 serve_config: Optional[ServeConfig] = None,
                 journal_dir: Optional[str] = None,
                 policy: Optional[SupervisePolicy] = None,
                 instrumentation: Optional[Instrumentation] = None):
        if n_shards < 1:
            raise SupervisorError("n_shards must be >= 1")
        self.policy = policy if policy is not None else SupervisePolicy()
        self.policy.validate()
        if self.policy.mode == "journal" and journal_dir is None:
            raise SupervisorError("journal mode needs a journal_dir")
        self.journal_dir = journal_dir
        self.instrumentation = (
            instrumentation if instrumentation is not None
            else Instrumentation("supervisor", tracer=Tracer(capacity=2048)))
        registry = self.instrumentation.registry
        self._m_restarts = registry.counter(
            "supervisor_restarts_total",
            "Shard restarts completed, by recovery mode.",
            labels=("shard", "mode"))
        self._m_promotions = registry.counter(
            "supervisor_promotions_total",
            "Warm-standby promotions performed during restarts.",
            labels=("shard",))
        self._m_probe_failures = registry.counter(
            "supervisor_probe_failures_total",
            "Health probes that missed their deadline.", labels=("shard",))
        self._g_up = registry.gauge(
            "supervisor_shard_up",
            "1 while the shard serves; 0 while down, restarting or failed.",
            labels=("shard",))
        self._h_restart = registry.histogram(
            "supervisor_restart_seconds",
            "Declared-dead to serving-again restart latency.",
            bounds=LATENCY_BUCKETS_S).labels()
        self.flight = FlightRecorder(1024)
        base_server = (server_config if server_config is not None
                       else ServerConfig(signing="none"))
        base_serve = (serve_config if serve_config is not None
                      else ServeConfig(tcp_port=None))
        self.shards: List[SupervisedShard] = []
        for index in range(n_shards):
            name = f"shard-{index}"
            seed = base_server.seed
            if seed is not None:
                seed = seed + b"/" + name.encode("ascii")
            config = replace(base_server, seed=seed)
            shard_serve = replace(
                base_serve,
                udp_port=(base_serve.udp_port + index
                          if base_serve.udp_port else 0),
                tcp_port=None)
            journal_path = (os.path.join(journal_dir, f"{name}.journal")
                            if journal_dir is not None else None)
            self.shards.append(SupervisedShard(
                index, name, config, shard_serve, journal_path))
        self._watch_tasks: List[asyncio.Task] = []
        self._closing = False

    # -- lifecycle ---------------------------------------------------------

    @property
    def addresses(self) -> List[Tuple[str, int]]:
        """Bound UDP addresses, shard order (valid after ``start``)."""
        return [shard.address for shard in self.shards]

    def shard(self, shard_id: int) -> SupervisedShard:
        if not 0 <= shard_id < len(self.shards):
            raise SupervisorError(f"no shard {shard_id}")
        return self.shards[shard_id]

    def _make_server(self, shard: SupervisedShard) -> GroupKeyServer:
        if self.policy.mode == "journal":
            path = shard.journal_path
            if os.path.exists(path) and os.path.getsize(path) > len(MAGIC):
                # A prior incarnation left a journal: resume from it
                # (the supervisor process itself may have restarted).
                server = persistence.restore_from_journal(path, strict=True)
                TreeJournal(path).repair()
            else:
                server = GroupKeyServer(shard.config)
            shard.journal = persistence.attach_journal(server, path)
        else:
            server = GroupKeyServer(shard.config)
            shard.standby = WarmStandby(server)
        return server

    async def _launch(self, shard: SupervisedShard) -> None:
        """Bind the shard's endpoint (retrying a just-freed port)."""
        core = AsyncServingCore(shard.server, shard.serve_config)
        service = AsyncKeyService(core)
        for attempt in range(20):
            try:
                await service.start()
                break
            except OSError:
                if attempt == 19:
                    raise
                await asyncio.sleep(0.05)
        shard.core, shard.service = core, service
        shard.address = service.udp_address
        if shard.serve_config.udp_port == 0:
            # Pin the ephemeral port: restarts rebind the same address
            # so client shard affinity survives the crash.
            shard.serve_config = replace(shard.serve_config,
                                         udp_port=shard.address[1])
        shard.state = "up"
        self._g_up.labels(shard=shard.name).set(1)

    async def start(self) -> "Supervisor":
        """Build and serve every shard; start the watchdogs."""
        for shard in self.shards:
            shard.server = self._make_server(shard)
            await self._launch(shard)
        if self.policy.probe_interval > 0:
            loop = asyncio.get_running_loop()
            self._watch_tasks = [loop.create_task(self._watch(shard))
                                 for shard in self.shards]
        return self

    async def aclose(self) -> None:
        """Stop watchdogs, then drain and close every live shard."""
        self._closing = True
        for task in self._watch_tasks:
            task.cancel()
        for task in self._watch_tasks:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._watch_tasks = []
        for shard in self.shards:
            if shard.state == "up" and shard.service is not None:
                await shard.service.aclose()
            else:
                self._hard_teardown(shard)
            if shard.journal is not None:
                shard.journal.close()
            self._g_up.labels(shard=shard.name).set(0)

    # -- failure injection and teardown ------------------------------------

    def _hard_teardown(self, shard: SupervisedShard) -> None:
        """SIGKILL-equivalent: no drain, no flush, no goodbyes.

        Closes the transport, cancels the background tasks, and shuts
        the stats pool down — exactly what the process's death would
        do, minus the OS reclaiming the fds.
        The journal file keeps whatever bytes were flushed (the chaos
        harness tears the tail separately to model an unflushed append).
        """
        service, core = shard.service, shard.core
        if service is not None:
            for endpoint in service._tcp_servers + service._udp_transports:
                endpoint.close()
            service._tcp_servers, service._udp_transports = [], []
        if core is not None:
            core._closing = True
            for attr in ("_tick_task", "_slo_task", "_flush_task"):
                task = getattr(core, attr, None)
                if task is not None:
                    task.cancel()
                    setattr(core, attr, None)
            if core.loop_health._task is not None:
                core.loop_health._task.cancel()
                core.loop_health._task = None
            core.executor.shutdown(wait=False, cancel_futures=True)
        if shard.journal is not None:
            shard.journal.close()
            shard.journal = None
        shard.service = None
        shard.core = None

    async def kill(self, shard_id: int, *, tear_tail: int = 0,
                   corrupt_tail: bool = False) -> None:
        """Crash a shard (chaos injection; the watchdog will notice).

        ``tear_tail`` truncates that many bytes off the journal after
        the crash (an append the OS never flushed); ``corrupt_tail``
        flips a byte in the last complete record (bit rot the strict
        restart must refuse).
        """
        shard = self.shard(shard_id)
        if shard.state != "up":
            raise SupervisorError(f"{shard.name} is {shard.state}, not up")
        shard.state = "down"
        self._g_up.labels(shard=shard.name).set(0)
        self.flight.record("supervise.kill", shard=shard.name,
                           generation=shard.generation)
        self._hard_teardown(shard)
        if shard.journal_path is not None and tear_tail > 0:
            tear_journal_tail(shard.journal_path, tear_tail)
        if shard.journal_path is not None and corrupt_tail:
            corrupt_journal_tail(shard.journal_path)

    # -- probing and restart -----------------------------------------------

    async def probe(self, shard_id: int) -> bool:
        """One health probe: is the shard's machinery responsive?"""
        shard = self.shard(shard_id)
        if shard.state != "up" or shard.core is None:
            return False
        core = shard.core
        monitor = core.loop_health
        if monitor.last_beat is not None:
            stale = time.monotonic() - monitor.last_beat
            if stale > max(self.policy.probe_deadline,
                           3.0 * monitor.interval):
                return False
        # Every op is served on this loop, so a shard that still owns
        # an open socket and a running core is serving.
        transports = shard.service._udp_transports
        return (not core._closing and bool(transports)
                and not any(t.is_closing() for t in transports))

    async def restart(self, shard_id: int) -> None:
        """Revive a dead shard from its journal or standby.

        Raises :class:`SupervisorError` once the restart budget is
        exhausted, and marks the shard ``failed`` (no further attempts)
        when the recovery substrate itself is unusable — a CRC-corrupt
        journal or a poisoned standby.
        """
        shard = self.shard(shard_id)
        if shard.state == "failed":
            raise SupervisorError(f"{shard.name} is marked failed")
        if shard.restarts >= self.policy.max_restarts:
            shard.state = "failed"
            self._g_up.labels(shard=shard.name).set(0)
            raise SupervisorError(
                f"{shard.name}: restart budget exhausted "
                f"({self.policy.max_restarts})")
        if shard.state == "up":
            # Declared dead while parts still stand: finish the kill.
            self._hard_teardown(shard)
        shard.state = "restarting"
        self._g_up.labels(shard=shard.name).set(0)
        tracer = self.instrumentation.tracer
        span = tracer.span("supervise.restart", shard=shard.name,
                           mode=self.policy.mode)
        started = time.monotonic()
        loop = asyncio.get_running_loop()
        try:
            if self.policy.mode == "standby":
                standby = shard.standby
                if standby is None:
                    raise SupervisorError(f"{shard.name} has no standby")
                server = standby.promote()
                self._m_promotions.inc(shard=shard.name)
                shard.standby = WarmStandby(server)
            else:
                server = await loop.run_in_executor(
                    None, partial(persistence.restore_from_journal,
                                  shard.journal_path, strict=True))
                # Drop the torn tail (if any) so the re-attach's fresh
                # checkpoint — and everything after it — stays readable.
                TreeJournal(shard.journal_path).repair()
                shard.journal = persistence.attach_journal(
                    server, shard.journal_path)
            shard.server = server
            await self._launch(shard)
        except BaseException as exc:
            span.finish(error=True)
            shard.state = "down"
            shard.last_error = exc
            shard._consecutive_failures += 1
            if isinstance(exc, (JournalError, PersistenceError,
                                FailoverError)):
                # The recovery substrate is corrupt or poisoned:
                # retrying cannot help, and serving from it would hand
                # members keys nobody can vouch for.  Refuse loudly.
                shard.state = "failed"
            self.flight.record("supervise.restart-failed", shard=shard.name,
                               error=type(exc).__name__)
            raise
        shard.restarts += 1
        shard.generation += 1
        shard.last_error = None
        shard._consecutive_failures = 0
        elapsed = time.monotonic() - started
        self._m_restarts.inc(shard=shard.name, mode=self.policy.mode)
        self._h_restart.observe(elapsed)
        self.flight.record("supervise.restart", shard=shard.name,
                           generation=shard.generation, seconds=elapsed)
        span.finish()

    async def _watch(self, shard: SupervisedShard) -> None:
        """Per-shard watchdog: probe, declare, restart, back off."""
        policy = self.policy
        misses = 0
        backoff = policy.restart_backoff
        while not self._closing:
            await asyncio.sleep(policy.probe_interval)
            if self._closing or shard.state == "failed":
                return
            if shard.state == "restarting":
                continue
            if await self.probe(shard.shard_id):
                misses = 0
                backoff = policy.restart_backoff
                continue
            misses += 1
            self._m_probe_failures.inc(shard=shard.name)
            self.flight.record("supervise.probe-miss", shard=shard.name,
                               misses=misses)
            if misses < policy.probe_misses:
                continue
            misses = 0
            try:
                await self.restart(shard.shard_id)
            except asyncio.CancelledError:
                raise
            except Exception:
                if shard.state == "failed":
                    return  # refused loudly; an operator's problem now
                await asyncio.sleep(backoff)
                backoff = min(policy.restart_backoff_cap, backoff * 2)

    # -- verification ------------------------------------------------------

    def verify_shard(self, shard_id: int) -> bool:
        """Does the shard's recovery log reproduce the live server?

        Journal mode replays the journal file into a brand-new server;
        standby mode snapshots the follower.  Either is compared with
        the live server's full snapshot — the byte-identity acceptance
        check.  Ops run on the loop, so none lands mid-compare.
        """
        shard = self.shard(shard_id)
        if shard.server is None:
            raise SupervisorError(f"{shard.name}: nothing to verify")
        if self.policy.mode == "standby":
            replica = shard.standby.snapshot()
        else:
            replica = persistence.snapshot(
                persistence.restore_from_journal(shard.journal_path))
        return replica == persistence.snapshot(shard.server)

    def describe(self) -> List[dict]:
        """One status document per shard (demo and test introspection)."""
        return [{
            "shard": shard.name,
            "state": shard.state,
            "generation": shard.generation,
            "restarts": shard.restarts,
            "address": list(shard.address) if shard.address else None,
            "error": (type(shard.last_error).__name__
                      if shard.last_error is not None else None),
        } for shard in self.shards]
