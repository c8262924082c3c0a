"""Host-speed probe: corrects timings for contention from other tenants.

On a shared host the same work can take up to twice as long from one second
to the next: on a 2-vCPU Intel Xeon VM (Python 3.11) a fixed Fraction loop
ranged from 17 to 38 ms, and the raw wall medians of 40-second benchmark
runs spread 15-25% between runs.  While a timing is taken, SIGALRM fires
every ``INTERVAL`` seconds and runs a fixed Fraction kernel of about 0.2 ms
in the same process, recording how long it took.  Each sample stands for the
interval around it, so the work the program did in that interval takes
``interval * REFERENCE_S / sample`` at reference speed.  Summed, the measured
time becomes seconds at the speed where the kernel takes ``REFERENCE_S``,
about the uncontended speed of that VM.  On it the normalized medians spread
about 1% between runs.  The kernel shares no state with the program, so a
faster program still shows as a shorter normalized time.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

INTERVAL = 0.01
REFERENCE_S = 0.0002


def _kernel() -> Fraction:
    acc = Fraction(0)
    for i in range(1, 40):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
    return acc


class SpeedProbe:
    """``with probe: ...`` samples host speed while the block runs."""

    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, _signum, _frame) -> None:
        start = time.perf_counter()
        _kernel()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> "SpeedProbe":
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def probe_seconds(self) -> float:
        """Time the probe itself took, to subtract from the measured time."""
        return sum(self.samples)

    def factor(self) -> float:
        """Mean of REFERENCE_S / sample: multiply a net time by it to normalize.

        1.0 when there were no samples (a block shorter than INTERVAL).
        """
        if not self.samples:
            return 1.0
        return sum(REFERENCE_S / s for s in self.samples) / len(self.samples)

    def normalize(self, seconds: float) -> float:
        """A time measured inside the block, at reference speed."""
        return (seconds - self.probe_seconds()) * self.factor()
