"""Stage timers: the single timing source for all paper-facing numbers.

Two granularities:

* :class:`StageClock` — per-operation: one rekey pipeline run opens a
  clock, times each stage (plan/encrypt/sign/dispatch) and the total
  timed region.  ``RequestRecord.seconds`` is read off a StageClock,
  replacing the ad-hoc ``time.perf_counter`` pairs the server/batch/
  materialized paths used to carry.
* :class:`StageTimers` — aggregate: count/total/min/max per stage name
  across many runs, readable after the fact
  (``server.instrumentation.timers.stat("join.plan")``).

:class:`Stopwatch` is the trivial elapsed-wall-time helper for
non-staged regions (experiment runs, CLI timing).
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple


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
        # timing aggregates/histograms instead of silently vanishing.
        self._clock._record(self._name, self._clock._now() - self._started)
        if exc_type is not None:
            self._clock.error = True
            if self._clock.failed_stage is None:
                self._clock.failed_stage = self._name


class StageClock:
    """Per-run staged timing: ordered stage durations plus a total.

    The total spans construction to :meth:`stop` — i.e. the whole timed
    region including any work between stages — matching the semantics of
    the ``start = perf_counter()`` / ``elapsed = perf_counter() - start``
    regions it replaces.

    ``error``/``failed_stage`` are set by a stage whose body raised: the
    stage's elapsed time is still recorded, and consumers
    (:meth:`~repro.observability.instrumentation.Instrumentation.
    record_run`) label the run as failed.
    """

    __slots__ = ("_now", "_started", "_stopped", "stages", "error",
                 "failed_stage")

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._now = clock
        self._started = clock()
        self._stopped: Optional[float] = None
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
        if self._stopped is None:
            self._stopped = self._now()
        return self._stopped - self._started

    @property
    def total(self) -> float:
        """Total seconds of the timed region (stops the clock if running)."""
        return self.stop()


class TimerStat:
    """count / total / min / max of one named stage across runs."""

    __slots__ = ("count", "total", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = 0.0

    def add(self, seconds: float) -> None:
        """Fold one sample in."""
        self.count += 1
        self.total += seconds
        if seconds < self.minimum:
            self.minimum = seconds
        if seconds > self.maximum:
            self.maximum = seconds

    @property
    def mean(self) -> float:
        """Mean seconds per sample (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def __repr__(self) -> str:
        return (f"TimerStat(count={self.count}, total={self.total:.6f}, "
                f"mean={self.mean:.6f})")


class StageTimers:
    """Aggregate timings keyed by stage name."""

    __slots__ = ("_stats",)

    def __init__(self) -> None:
        self._stats: Dict[str, TimerStat] = {}

    def add(self, name: str, seconds: float) -> None:
        """Fold one sample into the stat for ``name``."""
        stat = self._stats.get(name)
        if stat is None:
            stat = self._stats[name] = TimerStat()
        stat.add(seconds)

    def stat(self, name: str) -> TimerStat:
        """The (possibly empty) stat for ``name``."""
        return self._stats.get(name, TimerStat())

    def names(self) -> List[str]:
        """All recorded stage names, sorted."""
        return sorted(self._stats)

    def time(self, name: str) -> "_TimerSpan":
        """Context manager adding its elapsed time to ``name``."""
        return _TimerSpan(self, name)

    def snapshot(self) -> Dict[str, Tuple[int, float, float, float]]:
        """{name: (count, total, min, max)} copy of all stats."""
        return {name: (s.count, s.total, s.minimum, s.maximum)
                for name, s in self._stats.items()}

    def clear(self) -> None:
        """Drop every stat."""
        self._stats.clear()

    def __len__(self) -> int:
        return len(self._stats)


class _TimerSpan:
    """Context manager feeding one elapsed region into a StageTimers."""

    __slots__ = ("_timers", "_name", "_started")

    def __init__(self, timers: StageTimers, name: str):
        self._timers = timers
        self._name = name
        self._started = 0.0

    def __enter__(self) -> "_TimerSpan":
        self._started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._timers.add(self._name, time.perf_counter() - self._started)
