"""A CPU speed probe: a diagnostic, not a correction.

The calibration box is a 2-vCPU guest on a shared host whose CPU runs at
one of three speeds — a fixed piece of Python takes 0.77, 0.92 or
1.22 ms, a ratio of 1 : 1.2 : 1.58 that looks like the host's clock
moving between turbo and base — and stays at one for seconds to
minutes (steal time stays flat: the cycles are delivered, they are just
worth less).  Same-code runs of this suite move with it.

So the process under test also runs this probe: a thread that executes
one fixed burst of pure Python every 100 ms (under 1 % of a core) and
records the burst's own CPU time (``thread_time``: waiting for the GIL
or for the scheduler does not count).  ``index`` turns the bursts of a
time span into a speed relative to ``NOMINAL_BURST_S``.  It is reported
as ``loadgen.cpu_speed_index`` and kept with every run's record, so a
reader can tell a slow run from a slow host.  No metric is scaled by it:
a cold 0.8 ms burst reads a slow spell as deeper than sustained work
feels it, and it reads low whenever the other vCPU is busy.

The burst is the suite's own code on purpose: it must not get faster
when the repository does.
"""

from __future__ import annotations

import statistics
import threading
import time
from typing import List, Sequence, Tuple

#: CPU seconds one burst takes on the calibration box at its fastest.
#: Only a scale factor: it makes speed 1.0 mean "as fast as it gets".
NOMINAL_BURST_S = 0.80e-3
INTERVAL_S = 0.1

Burst = Tuple[float, float]  # (perf_counter when it ended, its CPU seconds)


def burst() -> int:
    x = 0
    table = {}
    for i in range(6000):
        x = (x * 31 + i) & 0xFFFFFFFF
        table[i & 255] = x
    return x


class SpeedProbe(threading.Thread):
    """Runs ``burst`` every ``INTERVAL_S`` until the process exits."""

    def __init__(self):
        super().__init__(name="suite-speed-probe", daemon=True)
        self.bursts: List[Burst] = []
        self._taken = 0

    def run(self) -> None:
        while True:
            started = time.thread_time()
            burst()
            self.bursts.append((time.perf_counter(),
                                time.thread_time() - started))
            time.sleep(INTERVAL_S)

    def take(self) -> List[Burst]:
        """The bursts recorded since the previous ``take``."""
        fresh = self.bursts[self._taken:]
        self._taken += len(fresh)
        return fresh


def index(bursts: Sequence[Burst], start: float, end: float,
          default: float = 1.0) -> float:
    """CPU speed over ``[start, end)``: 1.0 nominal, 0.8 = 20 % slower."""
    inside = [cpu for when, cpu in bursts if start <= when < end]
    if not inside:
        return default
    return NOMINAL_BURST_S / statistics.median(inside)
