"""Clocks: the single timing source for all paper-facing numbers.

* :class:`StageClock` — per-operation work time: one rekey pipeline run
  opens a clock, times each stage (plan/encrypt/sign/dispatch) and the
  total timed region.  It reads the thread's CPU time
  (``time.thread_time``), the Python equivalent of the paper's
  ``getrusage()``, so a preemption is not charged to the request that
  was running.  ``RequestRecord.seconds`` and the ``rekey_*``
  histograms are read off a StageClock.
* :class:`Stopwatch` — elapsed wall time, for regions that measure
  waiting rather than work (experiment runs, CLI timing).
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Optional


class Stopwatch:
    """Elapsed wall time since construction (or the last restart)."""

    __slots__ = ("_clock", "_started")

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._started = clock()

    def restart(self) -> None:
        """Reset the start mark to now."""
        self._started = self._clock()

    def elapsed(self) -> float:
        """Seconds since the start mark."""
        return self._clock() - self._started


class _StageSpan:
    """Context manager timing one stage of a :class:`StageClock`."""

    __slots__ = ("_clock", "_name", "_started")

    def __init__(self, clock: "StageClock", name: str):
        self._clock = clock
        self._name = name
        self._started = 0.0

    def __enter__(self) -> "_StageSpan":
        self._started = self._clock._now()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Elapsed time is recorded even when the body raises, and the
        # failure is flagged on the clock, so failed runs show up in the
        # timing histograms instead of silently vanishing.
        self._clock._record(self._name, self._clock._now() - self._started)
        if exc_type is not None:
            self._clock.error = True
            if self._clock.failed_stage is None:
                self._clock.failed_stage = self._name


class StageClock:
    """Per-run staged CPU timing: ordered stage durations plus a total.

    The total spans construction to :meth:`stop` — i.e. the whole timed
    region including any work between stages.  Two threads' CPU clocks
    cannot be subtracted, so a clock stopped on a thread other than the
    one that started it reports the sum of its stages instead (each
    stage starts and ends on one thread); it is never negative.

    ``error``/``failed_stage`` are set by a stage whose body raised: the
    stage's elapsed time is still recorded, and consumers
    (:meth:`~repro.observability.instrumentation.Instrumentation.
    record_run`) label the run as failed.
    """

    __slots__ = ("_now", "_started", "_thread", "_total", "stages",
                 "error", "failed_stage")

    def __init__(self, clock: Callable[[], float] = time.thread_time):
        self._now = clock
        self._thread = threading.get_ident()
        self._started = clock()
        self._total: Optional[float] = None
        self.stages: Dict[str, float] = {}
        self.error = False
        self.failed_stage: Optional[str] = None

    def stage(self, name: str) -> _StageSpan:
        """A context manager accumulating elapsed time under ``name``."""
        return _StageSpan(self, name)

    def _record(self, name: str, seconds: float) -> None:
        self.stages[name] = self.stages.get(name, 0.0) + seconds

    def stop(self) -> float:
        """End the timed region; returns (and fixes) the total seconds."""
        if self._total is None:
            if threading.get_ident() == self._thread:
                self._total = self._now() - self._started
            else:
                self._total = sum(self.stages.values())
        return self._total

    @property
    def total(self) -> float:
        """Total seconds of the timed region (stops the clock if running)."""
        return self.stop()
