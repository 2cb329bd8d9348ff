"""Incremental occurrence index for the forward estimator.

Recomputing the estimator from scratch after every new symbol costs O(n) per
step.  This index instead stores, for every block length k <= k_max and every
block value, the histogram of the symbols that followed its occurrences
inside the segment; its total is the match count.  A push then costs
amortized O(k_max) and a query O(K(n) * alphabet size), with results equal
bit for bit to the scanning evaluator in :mod:`nextsym.estimator`.

Blocks are keyed by their base-|alphabet| integer encoding, which is
injective for a fixed length, so no hashing of symbol slices is involved.
"""

from __future__ import annotations

from .estimator import DistributionEstimate, EstimateResult, PayoffFunction, Schedules, _schedule_value
from .sequences import Alphabet

__all__ = ["StreamingEstimator", "CapacityError"]


class CapacityError(RuntimeError):
    """Raised when a push or query exceeds the horizon fixed at construction."""


class StreamingEstimator:
    """Single-writer streaming realization of the forward estimator.

    The context-length cap k_max is fixed at construction from the horizon
    (k_max = min(K(horizon), horizon + 1), since no block is longer than the
    segment); K grows so slowly that this stays tiny for any realistic run,
    and a fixed cap keeps the push loop branch-free.  Pushing
    past the horizon raises :class:`CapacityError` instead of silently
    under-indexing longer blocks.

    ``seq`` is a ``bytearray`` of the pushed symbol indices.
    """

    __slots__ = ("seq", "schedules", "horizon", "k_max", "_stats", "_codes", "_size")

    def __init__(self, alphabet: Alphabet, schedules: Schedules | None = None, horizon: int = 1 << 20):
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        self.seq = bytearray()
        self.schedules = schedules if schedules is not None else Schedules.default(alphabet.size)
        self.horizon = horizon
        self.k_max = max(1, min(_schedule_value(self.schedules.K, horizon), horizon + 1))
        _schedule_value(self.schedules.J, horizon)  # K and J give integers: checked once, off the push and probe loops
        self._size = alphabet.size
        self._stats = [{} for _ in range(self.k_max)]  # index k-1 -> {code: stats list}
        self._codes = [0] * self.k_max  # rolling code of the suffix of length k (index k-1)

    def push(self, symbol_index: int) -> int:
        """Append one symbol and credit it as successor of every block ending
        just before it; returns the new position."""
        m = len(self.seq)
        if m > self.horizon:
            raise CapacityError(f"horizon {self.horizon} exhausted")
        size = self._size
        if not 0 <= symbol_index < size:  # before any count changes
            raise ValueError(f"symbol index {symbol_index} outside alphabet of size {size}")
        self.seq.append(symbol_index)
        codes = self._codes
        k_max = self.k_max
        record = m if m < k_max else k_max
        stats = self._stats
        for i in range(record):  # i = k-1; block of length k ends at m-1 once m >= k
            cell = stats[i].get(codes[i])
            if cell is None:
                cell = stats[i][codes[i]] = [0] * size
            cell[symbol_index] += 1
        for i in range(k_max - 1, 0, -1):  # roll codes to end at m
            codes[i] = codes[i - 1] * size + symbol_index
        codes[0] = symbol_index
        return m

    @property
    def op_count(self) -> int:
        """Index updates so far: the m-th push (from 0) credits min(m, k_max)
        blocks and rolls k_max codes."""
        pushes, k_max = len(self.seq), self.k_max
        short = min(pushes, k_max)
        return short * (short - 1) // 2 + (pushes - short) * k_max + pushes * k_max

    def probe(self):
        """Query: (context_len, matches, successor histogram) for the current
        position, or None when abstaining.  The histogram is a copy."""
        n = len(self.seq) - 1
        if n < 1:
            return None
        schedules = self.schedules
        k_n = schedules.K(n)
        if k_n > n + 1:
            k_n = n + 1
        if k_n > self.k_max:
            raise CapacityError(
                f"schedule K({n})={k_n} exceeds k_max={self.k_max} fixed at construction"
            )
        j_n = schedules.J(n)
        codes = self._codes
        stats = self._stats
        for k in range(k_n, 0, -1):
            cell = stats[k - 1].get(codes[k - 1])
            if cell is not None and (count := sum(cell)) >= j_n:
                return k, count, cell[:]
        return None

    def current_estimate(self, payoff: PayoffFunction) -> EstimateResult:
        """Same result as the scanning evaluator at the current position."""
        return EstimateResult.from_probe(self.probe(), payoff)

    def current_distribution(self) -> DistributionEstimate:
        return DistributionEstimate.from_probe(self.probe(), self._size)

    def stored_keys(self) -> int:
        """Number of (length, block) keys currently held."""
        return sum(len(d) for d in self._stats)
