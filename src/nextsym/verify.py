"""Exact equivalence suite: scanning evaluator vs streaming index vs replay kernel.

Every route reduces the data segment at a prefix to one probe: the matched
context length, its match count and the successor histogram, (0, 0, all-zero)
when abstaining.  Every finished field (abstained flag, distribution, payoff
estimate) is built from the probe by one shared finisher in
:mod:`nextsym.estimator`, so the suite compares probes.

Each random sequence is checked in row blocks of consecutive prefixes, with
rows times the sequence length at most ``_BLOCK_CELLS`` (2^19, 262 prefixes
of a 2,000-symbol case), which bounds the block's match masks; the masks
never leave the scan, and it forms its histograms over bounded slabs, so
memory stays flat.  The scanning evaluator (``estimator._scan``) probes a
whole block in one call; the streaming index is pushed and probed once per
prefix, and its probes are packed into int64 arrays and compared with the
block's.  The whole-sequence replay kernel (:mod:`nextsym.kernel`) is the
third route: its context lengths, match counts and histograms are compared
with the scanning arrays, one array comparison per field and case.

The first failure is reported: the earliest prefix, and the kernel only once
its case has passed the streaming comparison.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import kernel
from .estimator import Schedules, _scan
from .seeding import derive_seed
from .sequences import Alphabet
from .streaming import StreamingEstimator

__all__ = ["EquivalenceReport", "verify_equivalence"]

_ALPHABET_SIZES = (2, 3, 4)
_FIELDS = ("context_len", "matches", "histogram")
_BLOCK_CELLS = 1 << 19  # rows x length per row block: 262 prefixes of a 2,000-symbol case


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
    schedules_for: Callable[[int], Schedules] | None = None,
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
        streaming = estimator_factory(alphabet, schedules, horizon=length - 1 if length > 1 else 1)

        def fail(n: int, field: str, expected, got, route: str = "streaming") -> EquivalenceReport:
            """The report of the first failure, at prefix n; from n = 40 on the
            prefix shows its first 20 and last 20 symbols, through X_n."""
            head = data[: n + 1].tolist()
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
                    "prefix": head if n < 40 else head[:20] + ["..."] + head[-20:],
                },
            )

        parts = [(p.kappa, p.matches, p.hist) for p in kernel.replay(data, size, schedules)]
        replayed = [np.concatenate(field) for field in zip(*parts)]
        ns, caps, needs = np.arange(length), kernel._caps(schedules, 0, length), kernel._thresholds(schedules, 0, length)
        scanned = np.zeros(length, np.int64), np.zeros(length, np.int64), np.zeros((length, size), np.int64)
        step = max(1, _BLOCK_CELLS // length)
        for lo in range(0, length, step):
            block = ns[lo : lo + step]
            want = _scan(data, block, caps[block], needs[block], size)
            got = array("q")
            for x in data[block].tolist():
                streaming.push(x)
                k, matches, hist = streaming.probe() or (0, 0, [0] * size)
                got.extend([k, matches, *hist])
            got = np.frombuffer(got, np.int64).reshape(len(block), -1)
            got = got[:, 0], got[:, 1], got[:, 2:]
            off = np.array([(w != g).reshape(len(block), -1).any(axis=1) for w, g in zip(want, got)])
            bad = np.flatnonzero(off.any(axis=0))
            if len(bad):
                i = int(bad[0])
                prefixes += i
                f = int(np.argmax(off[:, i]))
                return fail(lo + i, _FIELDS[f], want[f][i].tolist(), got[f][i].tolist())
            prefixes += len(block)
            for whole, w in zip(scanned, want):
                whole[block] = w
        for field, w, g in zip(_FIELDS, scanned, replayed):
            if not np.array_equal(w, g):
                n = int(np.flatnonzero((w != g).reshape(length, -1).any(axis=1))[0])
                return fail(n, field, w[n].tolist(), g[n].tolist(), "kernel")
    return EquivalenceReport(ok=True, cases=cases, prefixes_checked=prefixes, counterexample=None)

