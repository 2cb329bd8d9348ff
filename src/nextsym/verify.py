"""Exact equivalence suite: scanning evaluator vs streaming index vs replay kernel.

Every route reduces the data segment at a prefix to one probe: the matched
context length, its match count and the successor histogram, (0, 0, all-zero)
when abstaining.  Every finished field (abstained flag, distribution, payoff
estimate) is built from the probe by one shared finisher in
:mod:`nextsym.estimator`, so the suite compares probes.

Each random sequence is one case.  The scanning evaluator (``estimator._scan``)
fills the case's probe arrays in row blocks of consecutive prefixes, with rows
times the sequence length at most ``_BLOCK_CELLS`` (2^19, 262 prefixes of a
2,000-symbol case), which bounds the block's match masks; the masks never leave
the scan, and it forms its histograms over bounded slabs, so memory stays flat.
The streaming index is pushed and probed once per prefix, its probes packed
into int64 arrays, and the replay kernel (:mod:`nextsym.kernel`) replays the
whole sequence.  One check compares each of the two with the scan, streaming
first: the first failure is the earliest prefix where any field differs.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import kernel
from .estimator import Schedules, _scan
from .seeding import derive_seed
from .sequences import Alphabet, _integer
from .streaming import StreamingEstimator

__all__ = ["EquivalenceReport", "verify_equivalence"]

_ALPHABET_SIZES = (2, 3, 4)
_FIELDS = ("context_len", "matches", "histogram")
_BLOCK_CELLS = 1 << 19  # rows x length per row block: 262 prefixes of a 2,000-symbol case
_MAX_N = 1 << 20  # longest case; see verify_equivalence


@dataclass(frozen=True)
class EquivalenceReport:
    ok: bool
    cases: int
    prefixes_checked: int
    counterexample: dict | None


def _max_n(value, field: str) -> int:
    """``value`` as a longest case length in ``1.._MAX_N``, named ``field``."""
    value = _integer(value, field, 1)
    if value > _MAX_N:
        raise ValueError(f"{field} must be <= {_MAX_N}, got {value}")
    return value


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

    ``max_n`` is at most ``_MAX_N`` = 2^20: each route holds (2 + |A|) int64
    probe fields per prefix of a case, 48 MiB a route at 2^20 prefixes and
    |A| = 4, where a length no run reaches would ask for terabytes.
    """
    cases, max_n = _integer(cases, "cases", 1), _max_n(max_n, "max_n")
    prefixes = 0
    for case in range(cases):
        rng = np.random.Generator(np.random.PCG64(derive_seed(seed, case)))
        size = _ALPHABET_SIZES[int(rng.integers(len(_ALPHABET_SIZES)))]
        length = int(rng.integers(max(1, max_n // 2), max_n + 1))
        data = rng.integers(0, size, length).astype(np.uint8)
        alphabet = Alphabet.of_size(size)
        schedules = schedules_for(size) if schedules_for else Schedules.default(size)
        streaming = estimator_factory(alphabet, schedules, horizon=length - 1 if length > 1 else 1)
        ns, caps, needs = np.arange(length), kernel._caps(schedules, 0, length), kernel._thresholds(schedules, 0, length)
        scanned = np.zeros(length, np.int64), np.zeros(length, np.int64), np.zeros((length, size), np.int64)
        step = max(1, _BLOCK_CELLS // length)
        for lo in range(0, length, step):
            block = ns[lo : lo + step]
            for whole, part in zip(scanned, _scan(data, block, caps[block], needs[block], size)):
                whole[block] = part
        streamed = array("q")
        for x in data.tolist():
            streaming.push(x)
            k, matches, hist = streaming.probe() or (0, 0, [0] * size)
            streamed.extend([k, matches, *hist])
        streamed = np.frombuffer(streamed, np.int64).reshape(length, -1)
        streamed = streamed[:, 0], streamed[:, 1], streamed[:, 2:]
        _, *replayed = zip(*kernel.replay(data, size, schedules))  # each part's start, kappa, matches, hist
        for route, got in ("streaming", streamed), ("kernel", [np.concatenate(field) for field in replayed]):
            off = np.array([(w != g).reshape(length, -1).any(axis=1) for w, g in zip(scanned, got)])
            bad = np.flatnonzero(off.any(axis=0))
            if len(bad):  # the earliest prefix where any field differs, and the first field there
                n = int(bad[0])
                f = int(np.argmax(off[:, n]))
                head = data[: n + 1].tolist()  # from n = 40 on: the first 20 and last 20 symbols, through X_n
                return EquivalenceReport(
                    ok=False,
                    cases=cases,
                    prefixes_checked=prefixes + (n if route == "streaming" else length),
                    counterexample={
                        "case": case,
                        "alphabet_size": size,
                        "n": n,
                        "route": route,
                        "field": _FIELDS[f],
                        "scanning": scanned[f][n].tolist(),
                        route: got[f][n].tolist(),
                        "prefix": head if n < 40 else head[:20] + ["..."] + head[-20:],
                    },
                )
        prefixes += length
    return EquivalenceReport(ok=True, cases=cases, prefixes_checked=prefixes, counterexample=None)
