"""Host-speed reference, sampled inside a job process while the job runs.

The benchmark host is a shared VM whose CPU speed moves by up to 1.5x over
seconds to minutes as other tenants load it; the two vCPUs move largely
independently.  No choice of run length or statistic over raw wall times
steadies that, so each job measures the speed it actually got: a timer
signal every ``PERIOD_S`` runs a fixed pure-Python loop (``_reference``) in
the job's own thread and records how long it took.  The job's time is then
rescaled to a host whose reference pass takes ``REF_NOMINAL_S``:

    corrected = (raw - time spent in reference passes) * REF_NOMINAL_S / median pass

The reference is independent of nextsym, so a faster or slower program still
reads faster or slower; only the host's speed is divided out.  The passes
cost about 3% of the job's time, which the correction subtracts.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.02
REF_LOOPS = 8000
# A typical reference pass on the baseline host (2-vCPU Xeon VM, Python 3.11)
# in a fast phase.  It only sets the scale, which is the same for every
# commit measured with this benchmark.
REF_NOMINAL_S = 0.6e-3


def _reference() -> int:
    total = 0
    for i in range(REF_LOOPS):
        total += i * i % 7
    return total


class Sampler:
    """Runs ``_reference`` on SIGALRM every ``PERIOD_S`` seconds of wall time."""

    def __init__(self) -> None:
        self.samples: list = []  # (start, duration) per reference pass

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        _reference()
        self.samples.append((start, time.perf_counter() - start))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def correct(self, start: float, end: float) -> dict:
        """The interval ``[start, end)`` rescaled to the nominal host speed.

        Without a pass inside the interval (set-up, or a tiny smoke job) the
        median over the whole process is used."""
        if not self.samples:
            self._tick(signal.SIGALRM, None)
        inside = [d for s, d in self.samples if start <= s < end]
        median = statistics.median(inside or [d for _, d in self.samples])
        raw, spent = end - start, sum(inside)
        return {
            "raw_s": raw,
            "passes": len(inside),
            "reference_s": spent,
            "pass_median_s": median,
            "corrected_s": (raw - spent) * REF_NOMINAL_S / median,
        }
