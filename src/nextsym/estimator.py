"""Forward estimator for next-symbol conditional expectations.

Given the data segment (X_0, ..., X_n), the estimator looks for the longest
recent suffix block that has recurred often enough earlier in the segment and
averages the payoff of the symbols that followed those earlier occurrences.
Everything here evaluates from scratch on a sequence by direct scanning, in
one block scan (``_scan``) that takes any set of positions at once:
:func:`probe` is a one-row call of it, and :func:`nextsym.verify.verify_equivalence`
calls it once per row block of prefixes.  :func:`recurrence_times` compares
the windows with the suffix directly.  The incremental realization lives in
:mod:`nextsym.streaming` and must agree with the scan bit for bit.

Conventions: an occurrence of the length-k suffix "at backshift t" means
X_{n-k+1-t..n-t} equals X_{n-k+1..n}; only backshifts with n-k+1-t >= 0 (the
occurrence lies fully inside the segment) are counted, and overlapping
occurrences count separately.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .sequences import Alphabet, SymbolSequence, _integer

__all__ = [
    "Schedules",
    "PayoffFunction",
    "EstimateResult",
    "DistributionEstimate",
    "schedule_J",
    "SqrtJ",
    "LogK",
    "ConstantSchedule",
    "LinearJ",
    "recurrence_times",
    "estimate",
    "estimate_distribution",
    "probe",
    "payoff_means",
]


class SqrtJ:
    """Default occurrence threshold J(n) = max(1, ceil(sqrt(n))), exact in integers."""

    __slots__ = ()

    def __call__(self, n: int) -> int:
        if n < 1:
            raise ValueError("n must be >= 1")
        return math.isqrt(n - 1) + 1

    def values(self, lo: int, hi: int) -> np.ndarray:
        """J(n) for n in [lo, hi) as an int64 array: a float square root
        corrected to the integer one."""
        m = np.arange(lo - 1, hi - 1, dtype=np.int64)  # n - 1
        r = np.sqrt(m).astype(np.int64)  # isqrt(n - 1), or one off it
        r -= r * r > m
        r += (r + 1) * (r + 1) <= m
        return r + 1


schedule_J = SqrtJ()


def _schedule_value(schedule: Callable[[int], int], n: int) -> int:
    """schedule(n) as an int; any value that is no integer, a float as well, raises."""
    value = schedule(n)
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"schedule {schedule!r} gave {value!r} at n={n}, which is not an integer") from None


@dataclass(frozen=True)
class Schedules:
    """Growth schedules: K caps the context length, J is the occurrence
    threshold a block must meet before it is trusted.

    Both must be nondecreasing and tend to infinity for the consistency
    results to apply (and J(n)/n -> 0 for the context length to diverge).
    Custom schedules must return integers; the defaults are ``LogK(|A|, 0.1)``,
    that is K(n) = max(1, floor(0.1 * log_|A|(n))), and ``schedule_J``.  A
    schedule object may also define ``values(lo, hi)``, its values for n in
    [lo, hi) as an int64 array, which the replay kernel then uses instead of
    one call per n.
    """

    K: Callable[[int], int]
    J: Callable[[int], int]

    @classmethod
    def default(cls, alphabet_size: int) -> "Schedules":
        return cls(K=LogK(_integer(alphabet_size, "alphabet_size", 2), 0.1), J=schedule_J)


def _decimal_ratio(x: float) -> tuple:
    """(p, q) in lowest terms with p/q equal to the shortest decimal form of x > 0."""
    mantissa, _, exponent = repr(float(x)).partition("e")
    whole, _, frac = mantissa.partition(".")
    p, q = int(whole + frac), 10 ** len(frac)
    shift = int(exponent) if exponent else 0
    if shift >= 0:
        p *= 10**shift
    else:
        q *= 10**-shift
    g = math.gcd(p, q)
    return p // g, q // g


_MAX_LOG_NUMERATOR = 10_000
SCHEDULE_CAP = 2**62  # largest schedule value: int64 holds it, and no count reaches it


class LogK:
    """K(n) = max(1, floor(coeff * log_base(n))), exact in integers.

    The coefficient is read in its shortest decimal form p/q, so
    K(n) >= m exactly when n^p >= base^(m*q); no floating log decides a
    step.  The numerator p is capped at 10^4 so the integer comparison stays
    cheap.  Scalar calls cache the bracket of n where the value holds, and
    :meth:`values` evaluates a whole range from the step positions.
    """

    __slots__ = ("base", "coeff", "_p", "_q", "_lo", "_hi", "_value")

    def __init__(self, base: int, coeff: float):
        base = _integer(base, "base", 2)
        if not 0 < coeff < math.inf:
            raise ValueError("coeff must be a positive finite number")
        p, q = _decimal_ratio(coeff)
        if p > _MAX_LOG_NUMERATOR:
            raise ValueError(
                f"coeff {coeff!r} is p/q = {p}/{q} in lowest terms; p must be at most {_MAX_LOG_NUMERATOR}"
            )
        self.base = base
        self.coeff = coeff
        self._p, self._q = p, q
        self._lo = self._hi = 0
        self._value = 1

    def _reaches(self, n: int, m: int) -> bool:
        """Whether K(n) >= m for m >= 2, i.e. n^p >= base^(m*q)."""
        p, mq = self._p, m * self._q
        bits_n, bits_b = n.bit_length(), self.base.bit_length()
        # 2^(bits-1) <= x < 2^bits bounds both powers; compare exactly only when the bounds overlap
        if p * bits_n <= mq * (bits_b - 1):
            return False
        if p * (bits_n - 1) >= mq * bits_b:
            return True
        return n**p >= self.base**mq

    def value(self, n: int) -> int:
        """K(n) without touching the bracket cache."""
        n = _integer(n, "n", 1)
        m = max(1, int(self.coeff * math.log(n) / math.log(self.base)))
        while self._reaches(n, m + 1):
            m += 1
        while m > 1 and not self._reaches(n, m):
            m -= 1
        return m

    def _first(self, m: int, lo: int, hi: int) -> int:
        """Smallest n in [lo, hi) with K(n) >= m, or hi when there is none."""
        while lo < hi:
            mid = (lo + hi) // 2
            if self._reaches(mid, m):
                hi = mid
            else:
                lo = mid + 1
        return lo

    def __call__(self, n: int) -> int:
        if self._lo <= n < self._hi:
            return self._value
        value = self.value(n)
        self._lo = n
        self._hi = self._first(value + 1, n + 1, max(n + 1, 1 << 64))
        self._value = value
        return value

    def values(self, lo: int, hi: int) -> np.ndarray:
        """K(n) for n in [lo, hi) as an int64 array."""
        m = self.value(lo)
        out = np.full(hi - lo, m, dtype=np.int64)
        while True:
            m += 1
            step = self._first(m, lo, hi)
            if step == hi:
                return out
            out[step - lo :] = m

    def __eq__(self, other):
        return isinstance(other, LogK) and (other.base, other._p, other._q) == (self.base, self._p, self._q)

    def __hash__(self):
        return hash(("LogK", self.base, self._p, self._q))

    def __reduce__(self):
        return LogK, (self.base, self.coeff)


class ConstantSchedule:
    """n -> value for every n >= 1."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = _integer(value, "ConstantSchedule value")

    def __call__(self, n: int) -> int:
        if n < 1:
            raise ValueError("n must be >= 1")
        return self.value

    def values(self, lo: int, hi: int) -> np.ndarray:
        return np.full(hi - lo, self.value, dtype=np.int64)


class LinearJ:
    """J(n) = max(1, ceil(coeff * n)), saturated at ``SCHEDULE_CAP``: no
    match count reaches that, so the saturated threshold decides as J(n)
    does, and the int64 cast cannot wrap.  Violates J/n -> 0 on purpose
    when coeff is positive, which the lemma checks must detect."""

    __slots__ = ("coeff",)

    def __init__(self, coeff: float):
        if not math.isfinite(coeff):
            raise ValueError("coeff must be a finite number")
        self.coeff = coeff

    def __call__(self, n: int) -> int:
        if n < 1:
            raise ValueError("n must be >= 1")
        scaled = self.coeff * n
        return SCHEDULE_CAP if scaled >= SCHEDULE_CAP else max(1, math.ceil(scaled))

    def values(self, lo: int, hi: int) -> np.ndarray:
        """J(n) for n in [lo, hi), as the scalar call computes it."""
        # float(n) * coeff rounds exactly as the scalar call does for n < 2^53
        with np.errstate(over="ignore"):
            scaled = np.ceil(self.coeff * np.arange(lo, hi, dtype=np.float64))
        return np.clip(scaled, 1.0, SCHEDULE_CAP).astype(np.int64)


@dataclass(frozen=True)
class PayoffFunction:
    """A real payoff per alphabet symbol, stored in alphabet index order."""

    alphabet: Alphabet
    values: tuple

    def __post_init__(self):
        if len(self.values) != self.alphabet.size:
            raise ValueError("payoff must assign a value to every symbol")
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if not all(map(math.isfinite, self.values)):
            raise ValueError(f"payoff values must be finite, got {self.values!r}")

    @classmethod
    def from_map(cls, alphabet: Alphabet, mapping: dict) -> "PayoffFunction":
        missing = [s for s in alphabet.symbols if s not in mapping]
        if missing:
            raise ValueError(f"payoff missing symbols {missing!r}")
        return cls(alphabet, tuple(mapping[s] for s in alphabet.symbols))

    @classmethod
    def indicator(cls, alphabet: Alphabet, symbol) -> "PayoffFunction":
        z = alphabet.encode(symbol)
        return cls(alphabet, tuple(1.0 if i == z else 0.0 for i in range(alphabet.size)))


@dataclass(frozen=True)
class EstimateResult:
    """Estimate of E(g(X_{n+1}) | X_0..X_n) plus selection diagnostics.

    ``context_len`` is the matched suffix length (0 when no block met the
    threshold), ``matches`` the number of prior in-segment occurrences of
    that suffix.  An abstained result carries value 0 by convention.
    """

    value: float
    context_len: int
    matches: int
    abstained: bool

    @classmethod
    def from_probe(cls, hit, payoff: PayoffFunction) -> "EstimateResult":
        """The estimate from a probe's (context_len, matches, histogram), or
        the abstained result when the probe returned None."""
        if hit is None:
            return cls(0.0, 0, 0, True)
        k, matches, hist = hit
        value = payoff_means(np.array([hist]), payoff.values, np.array([matches]))[0]
        return cls(float(value), k, matches, False)


@dataclass(frozen=True)
class DistributionEstimate:
    """Estimated conditional distribution of the next symbol; all-zero when
    abstained."""

    probs: tuple
    context_len: int
    matches: int
    abstained: bool

    @classmethod
    def from_probe(cls, hit, size: int) -> "DistributionEstimate":
        """The successor distribution from a probe's (context_len, matches,
        histogram), or the all-zero abstained result when it returned None."""
        if hit is None:
            return cls((0.0,) * size, 0, 0, True)
        k, matches, hist = hit
        return cls(tuple(c / matches for c in hist), k, matches, False)


def recurrence_times(seq: SymbolSequence, n: int, k: int) -> list[int]:
    """Backshifts t at which the length-k suffix of X_0..X_n recurs, ascending,
    one per in-segment occurrence: each earlier start s < n-k+1 whose window
    X_{s..s+k-1} equals the suffix X_{n-k+1..n} gives t = n-k+1-s.
    """
    n = _integer(n, "n", 0, len(seq) - 1)
    k = _integer(k, "k", 1, n + 1)
    arr, last = seq.as_array(), n - k + 1
    hit = np.ones(last, bool)
    for i in range(k):
        hit &= arr[i : last + i] == arr[last + i]
    return (last - hit.nonzero()[0])[::-1].tolist()


def probe(seq: SymbolSequence, n: int, schedules: Schedules):
    """(context_len, matches, successor histogram) at n, or None when
    abstaining (n = 0, K(n) < 1, or no block met the threshold max(J(n), 1));
    the scanning counterpart of :meth:`~nextsym.streaming.StreamingEstimator.probe`,
    as a one-row call of :func:`_scan`."""
    n = _integer(n, "n", 0, len(seq) - 1)
    if n == 0 or (cap := min(_schedule_value(schedules.K, n), n + 1)) < 1:
        return None
    need = min(max(_schedule_value(schedules.J, n), 1), n + 1)  # no count exceeds n, so the clamp decides as J(n) does
    kappa, matches, hist = _scan(seq.as_array(), np.array([n]), np.array([cap]), np.array([need]), seq.alphabet.size)
    return (int(kappa[0]), int(matches[0]), hist[0].tolist()) if kappa[0] else None


def estimate(seq: SymbolSequence, n: int, payoff: PayoffFunction, schedules: Schedules) -> EstimateResult:
    """Average payoff of the symbols following prior occurrences of the
    matched suffix block; abstains (value 0) at n=0 or when nothing matched."""
    return EstimateResult.from_probe(probe(seq, n, schedules), payoff)


def estimate_distribution(seq: SymbolSequence, n: int, schedules: Schedules) -> DistributionEstimate:
    """Empirical successor distribution of the matched block (the estimate
    with every indicator payoff at once); all-zero when abstained."""
    return DistributionEstimate.from_probe(probe(seq, n, schedules), seq.alphabet.size)


def payoff_means(hist: np.ndarray, values: Sequence[float], matches: np.ndarray) -> np.ndarray:
    """Histogram-weighted payoff mean of every row of an integer histogram
    array, accumulated column by column in alphabet index order.

    Every route reduces its histograms through this one function, so equal
    histograms give bit-identical floats.  The two rounding steps
    (product-sum, quotient) can land one ulp outside the range of the
    observed payoffs; the result is clamped back so the range invariant
    holds exactly.  Rows with zero matches (abstentions) give 0.
    """
    total = np.zeros(len(matches))
    lo = np.full(len(matches), np.inf)
    hi = np.full(len(matches), -np.inf)
    for s, v in enumerate(values):
        c = hist[:, s]
        seen = c != 0
        total = np.where(seen, total + c * v, total)
        lo = np.where(seen & (v < lo), v, lo)
        hi = np.where(seen & (v > hi), v, hi)
    mean = total / np.maximum(matches, 1)
    mean = np.where(mean < lo, lo, np.where(mean > hi, hi, mean))
    return np.where(matches > 0, mean, 0.0)


_SLAB_CELLS = 1 << 14  # about this many mask cells per histogram product: bounds its float32 copy of the mask
_FLOAT32_COLS = 1 << 24  # below this many columns every partial sum of the product is an integer float32 holds


def _scan(arr: np.ndarray, ns: np.ndarray, caps: np.ndarray, needs: np.ndarray, size: int) -> tuple:
    """The scanning evaluator at the ascending positions ``ns``, all at once.

    Row r starts from the ends e < n = ns[r] with X_e == X_n and walks k up
    from 1, keeping the ends e >= k with X_{e-k} == X_{n-k}, while
    k < caps[r] and the narrowed count still meets needs[r] >= 1; it abstains
    (kappa 0) when caps[r] < 1 or fewer than needs[r] ends match X_n.  Rows
    are grouped by X_n, so a group's columns are that symbol's earlier
    positions, and after each length the columns no row matches are dropped:
    one row does the work of one narrowing per length.  Array methods and ufunc
    reductions replace module-level wrappers, whose overhead rules a one-row scan.

    The histogram of a group is the product of its mask with the one-hot
    columns of the symbols after its ends, in float32 while the group has
    fewer than ``_FLOAT32_COLS`` (2^24) columns: every partial sum is then an
    integer below 2^24, which float32 holds exactly.  A group with more
    columns, such as a one-row call deep into a long sequence, takes float64,
    exact below 2^53.  The product reads a float copy of the mask, so a group
    of more than ``_SLAB_CELLS`` cells is multiplied in slabs of rows of about
    that many cells (one row when a row alone is longer); a group that fits,
    such as every one-row call, takes a single product.  Every end e < n has
    a successor, so a row's match count is its histogram total, summed once
    after the groups.  The masks never leave the call.

    Returns ``(kappa, matches, hist)``; ``hist`` has ``size`` columns.
    """
    kappa, hist = np.zeros(len(ns), np.int64), np.zeros((len(ns), size), np.int64)
    last = arr[ns]
    for s in set(last.tolist()):
        rows = (last == s).nonzero()[0]
        at, cap, need = ns[rows], caps[rows], needs[rows]
        cols = (arr[: at[-1]] == s).nonzero()[0]
        live = (cols.searchsorted(at) >= need) & (cap >= 1)  # length 1 qualifies
        mask, depth, go, k = cols < (at * live)[:, None], live.astype(np.int64), live & (cap > 1), 1
        while np.count_nonzero(go):
            trial = mask & (arr[cols - k] == arr[at - k][:, None])
            if cols[0] < k:  # X_{e-k} lies before the segment
                trial &= cols >= k
            go &= np.add.reduce(trial, 1) >= need
            if not np.count_nonzero(go):
                break
            depth += go
            np.copyto(mask, trial, where=go[:, None])
            used = np.logical_or.reduce(mask, 0)
            cols, mask, k = cols[used], mask.compress(used, axis=1), k + 1
            go &= cap > k
        kappa[rows] = depth
        exact = np.float32 if len(cols) < _FLOAT32_COLS else np.float64
        onehot = (arr[cols + 1][:, None] == np.arange(size)).astype(exact)
        step = _SLAB_CELLS // (len(cols) + 1) + 1
        if len(rows) <= step:  # one product, without the slab bookkeeping a one-row call would pay for
            hist[rows] = mask @ onehot
        else:
            for lo in range(0, len(rows), step):
                hist[rows[lo : lo + step]] = mask[lo : lo + step] @ onehot
    return kappa, hist.sum(1), hist
