"""Exact equivalence suite: scanning evaluator vs streaming index vs replay kernel.

Every route reduces the data segment at a prefix to one probe: the matched
context length, its match count and the successor histogram, (0, 0, all-zero)
when abstaining.  Every finished field (abstained flag, distribution, payoff
estimate) is built from the probe by one shared finisher in
:mod:`nextsym.estimator`, so the suite compares probes.  For random sequences
the streaming index must reproduce the scanning evaluator's probe at every
prefix.  The whole-sequence replay kernel (:mod:`nextsym.kernel`) is the third
route: its context lengths, match counts and histograms are compared with the
scanning probes, one int64 array comparison per field and case.
Recurrence-time lists are verified in-place at every prefix: each listed
backshift must actually match the suffix, the list must be strictly
increasing, and its length must equal the independently computed match
count, which together pin the list down to the exact set of in-segment
occurrences.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from . import kernel
from .estimator import Schedules, probe, recurrence_times
from .seeding import derive_seed
from .sequences import Alphabet, SymbolSequence
from .streaming import StreamingEstimator

__all__ = ["EquivalenceReport", "verify_equivalence"]

_ALPHABET_SIZES = (2, 3, 4)
_FIELDS = ("context_len", "matches", "histogram")


@dataclass(frozen=True)
class EquivalenceReport:
    ok: bool
    cases: int
    prefixes_checked: int
    counterexample: dict | None


def verify_equivalence(
    cases: int = 200,
    max_n: int = 2000,
    seed: int = 2026,
    schedules_for: callable = None,
    estimator_factory: type = StreamingEstimator,
) -> EquivalenceReport:
    """Compare evaluator, index and kernel on random sequences at every prefix.

    ``estimator_factory`` exists so the suite can be pointed at a broken
    build and demonstrate that it reports a counterexample; ``schedules_for``
    maps an alphabet size to custom schedules (defaults otherwise).
    """
    if cases < 1 or max_n < 1:
        raise ValueError("need cases >= 1 and max_n >= 1")
    prefixes = 0
    for case in range(cases):
        rng = np.random.Generator(np.random.PCG64(derive_seed(seed, case)))
        size = _ALPHABET_SIZES[int(rng.integers(len(_ALPHABET_SIZES)))]
        length = int(rng.integers(max(1, max_n // 2), max_n + 1))
        data = rng.integers(0, size, length).astype(np.uint8)
        alphabet = Alphabet.of_size(size)
        schedules = schedules_for(size) if schedules_for else Schedules.default(size)
        seq = SymbolSequence(alphabet, data.tobytes())
        arr = seq.as_array()
        streaming = estimator_factory(alphabet, schedules, horizon=length - 1 if length > 1 else 1)
        abstain = (0, 0, [0] * size)

        def fail(n: int, field: str, expected, got, route: str = "streaming") -> EquivalenceReport:
            head = data[: n + 1]
            shown = head.tolist() if n < 40 else head[:20].tolist() + ["..."]
            return EquivalenceReport(
                ok=False,
                cases=cases,
                prefixes_checked=prefixes,
                counterexample={
                    "case": case,
                    "alphabet_size": size,
                    "n": n,
                    "route": route,
                    "field": field,
                    "scanning": expected,
                    route: got,
                    "prefix": shown,
                },
            )

        (part,) = kernel.replay(data, size, schedules, chunk=length)
        # the scanning probes, packed for the kernel route's comparison
        want_kappa, want_matches, want_hist = array("q"), array("q"), array("q")
        for n in range(length):
            streaming.push(int(data[n]))
            want = probe(seq, n, schedules) or abstain
            got = streaming.probe() or abstain
            if want != got:
                for field, w, g in zip(_FIELDS, want, got):
                    if w != g:
                        return fail(n, field, w, g)
            k, matches, hist = want
            want_kappa.append(k)
            want_matches.append(matches)
            want_hist.extend(hist)
            if k > 0:
                times = recurrence_times(seq, n, k)
                problem = _times_defect(arr, n, k, times, matches)
                if problem:
                    return fail(n, "recurrence_times", problem, times)
            prefixes += 1
        want = (
            np.frombuffer(want_kappa, np.int64),
            np.frombuffer(want_matches, np.int64),
            np.frombuffer(want_hist, np.int64).reshape(length, size),
        )
        for field, w, g in zip(_FIELDS, want, (part.kappa, part.matches, part.hist)):
            if not np.array_equal(w, g):
                n = int(np.flatnonzero((w != g).reshape(length, -1).any(axis=1))[0])
                return fail(n, field, w[n].tolist(), g[n].tolist(), "kernel")
    return EquivalenceReport(ok=True, cases=cases, prefixes_checked=prefixes, counterexample=None)


def _times_defect(arr: np.ndarray, n: int, k: int, times: list, matches: int) -> str | None:
    """Reason the recurrence-time list is wrong, or None when it is exact."""
    if len(times) != matches:
        return f"expected {matches} entries, got {len(times)}"
    if not times:
        return None
    t_arr = np.array(times)
    if (np.diff(t_arr) <= 0).any():
        return "entries not strictly increasing"
    if t_arr[0] < 1 or t_arr[-1] > n - k + 1:
        return "entry outside [1, n-k+1]"
    starts = n - k + 1 - t_arr
    suffix = arr[n - k + 1 : n + 1]
    for i in range(k):
        if not (arr[starts + i] == suffix[i]).all():
            return "listed backshift does not match the suffix"
    return None
