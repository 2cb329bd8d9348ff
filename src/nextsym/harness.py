"""Monte Carlo harness: consistency experiments and lemma checks.

``run_experiment`` generates each replicate trajectory whole, replays it in
chunks through the kernel (:mod:`nextsym.kernel`, which computes the
estimator's context length, match count and successor histogram at every
position with array passes) and scores every step against the exact
oracle's conditionals, column by column: pointwise error for a payoff,
total-variation distance in distribution mode.  The arithmetic is the
streaming route's, in the same order, so the rows are bit-identical to
pushing and probing :class:`~nextsym.streaming.StreamingEstimator` one
symbol at a time.  The running Cesaro average is a cumulative sum in time
order; rows are recorded on an evaluation grid and tail fractions per
epsilon summarize the weak-consistency picture.

Abstentions are scored with the estimator's literal value 0 inside the
Cesaro average (that is what the averaged theorem bounds), but each row
carries the abstained flag so pointwise plots can exclude them.

The three lemma checks are separate entry points: the resampling-distribution
check (recurrence-time resampling preserves the law), the context-length
divergence check, and the short-return-time bound.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass, replace
from functools import partial
from typing import Sequence

import numpy as np

from . import kernel
from .estimator import SCHEDULE_CAP, PayoffFunction, Schedules, _schedule_value, payoff_means, probe
from .estimator import recurrence_times
from .processes import Oracle, ProcessSpec, generate, stationary_block_law
from .seeding import MAX_SEED, derive_seed
from .sequences import _integer

__all__ = [
    "ExperimentConfig",
    "MetricsRow",
    "TailEstimate",
    "ExperimentResult",
    "run_experiment",
    "LemmaResamplingReport",
    "check_lemma_resampling",
    "KappaDivergenceReport",
    "check_kappa_divergence",
    "ReturnTimeReport",
    "check_return_time_bound",
]

_Z95 = 1.959963984540054  # two-sided 95% normal quantile


def _entries(value, field: str, kind: str) -> tuple:
    """value as a non-empty tuple; a string or a non-iterable raises naming the field."""
    try:
        if isinstance(value, str):
            raise TypeError
        entries = tuple(value)
    except TypeError:
        raise ValueError(f"{field} must be a sequence of {kind}, got {value!r}") from None
    if not entries:
        raise ValueError(f"{field} must not be empty")
    return entries


def default_eval_grid(horizon: int) -> tuple:
    """Powers of two up to the horizon, plus the horizon itself."""
    grid = set()
    p = 1
    while p <= horizon:
        grid.add(p)
        p *= 2
    grid.add(horizon)
    return tuple(sorted(grid))


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one experiment; every output is a pure function
    of this object."""

    spec: ProcessSpec
    horizon: int
    replicates: int
    schedules: Schedules | None = None
    eval_grid: tuple | None = None
    epsilons: tuple = (0.05, 0.1)
    payoff: PayoffFunction | None = None  # None = full-distribution mode
    base_seed: int = 0
    workers: int = 1

    def resolved(self) -> "ExperimentConfig":
        """Validate and fill defaults, returning a self-contained config."""
        ints = {name: _integer(getattr(self, name), name, 1) for name in ("horizon", "replicates", "workers")}
        ints["base_seed"] = _integer(self.base_seed, "base_seed", 0, MAX_SEED)
        horizon = ints["horizon"]
        schedules = self.schedules or Schedules.default(self.spec.alphabet.size)
        grid = self.eval_grid
        grid = default_eval_grid(horizon) if grid is None else _entries(grid, "eval_grid", "integers")
        grid = tuple(sorted({_integer(n, f"eval_grid[{i}]", 1, horizon) for i, n in enumerate(grid)}))
        epsilons = tuple(
            float(e) if isinstance(e, numbers.Real) and not isinstance(e, bool) else e
            for e in _entries(self.epsilons, "epsilons", "numbers")
        )
        indicator_like = self.payoff is None or set(self.payoff.values) <= {0.0, 1.0}
        for i, eps in enumerate(epsilons):
            if not isinstance(eps, float) or not 0 < eps < math.inf:
                raise ValueError(f"epsilons[{i}] must be a positive finite number, got {eps!r}")
            if indicator_like and eps > 1:
                raise ValueError(f"epsilons[{i}] must be in (0, 1] for indicator payoffs, got {eps!r}")
        if self.payoff is not None and self.payoff.alphabet != self.spec.alphabet:
            raise ValueError("payoff alphabet does not match the process alphabet")
        max_abs = max(map(abs, self.payoff.values)) if self.payoff is not None else 0.0
        if not math.isfinite(2 * max_abs * (horizon + 1)):  # bounds every payoff and Cesaro sum: no inf or nan
            raise ValueError(
                f"payoff.values must be small enough that 2 * max|v| * (horizon + 1) is finite, "
                f"got max|v| = {max_abs!r} at horizon {horizon}"
            )
        return replace(self, **ints, schedules=schedules, eval_grid=grid, epsilons=epsilons)


@dataclass(frozen=True)
class MetricsRow:
    """Diagnostics at one grid position of one replicate.

    ``estimate`` and ``oracle`` are floats in payoff mode and probability
    tuples in distribution mode; ``abs_error`` is |estimate - oracle| or the
    total-variation distance accordingly.  ``cesaro_avg`` is the mean of
    abs_error over all earlier steps i < n, abstentions included with the
    estimator's zero convention.
    """

    replicate: int
    n: int
    context_len: int
    matches: int
    abstained: bool
    estimate: object
    oracle: object
    abs_error: float
    cesaro_avg: float


@dataclass(frozen=True)
class TailEstimate:
    """Share of replicates whose error exceeded epsilon at grid position n."""

    n: int
    epsilon: float
    fraction: float
    wilson_halfwidth: float
    replicates: int


@dataclass(frozen=True)
class ExperimentResult:
    rows: tuple
    tails: tuple


def _wilson_halfwidth(fraction: float, n: int) -> float:
    z2 = _Z95 * _Z95
    return (_Z95 * math.sqrt(fraction * (1.0 - fraction) / n + z2 / (4.0 * n * n))) / (1.0 + z2 / n)


def _scores(part, cond: np.ndarray, payoff: PayoffFunction | None) -> tuple:
    """Estimates and errors for one chunk replayed by the kernel against the
    exact conditionals ``cond``, with the arithmetic of the streaming route:
    the indicator shortcut, :func:`~nextsym.estimator.payoff_means`, or the
    total-variation sum in alphabet order.  Abstentions estimate 0 (the
    all-zero vector)."""
    matches = part.matches
    if payoff is None:
        est = part.probs
        total = 0.0
        for s in range(cond.shape[1]):
            total = total + np.abs(est[:, s] - cond[:, s])
        return est, cond, 0.5 * total
    values = payoff.values
    z = _indicator_symbol(values)
    if z is None:
        oracle = 0.0
        for s, v in enumerate(values):
            oracle = oracle + cond[:, s] * v
        est = payoff_means(part.hist, values, matches)
    else:
        oracle = cond[:, z]
        est = np.where(matches > 0, part.hist[:, z] / np.maximum(matches, 1), 0.0)
    return est, oracle, np.abs(est - oracle)


def _indicator_symbol(values: tuple) -> int | None:
    """The symbol an indicator payoff singles out, or None for other payoffs."""
    if sorted(values) == [0.0] * (len(values) - 1) + [1.0]:
        return values.index(1.0)
    return None


def _run_replicate(cfg: ExperimentConfig, replicate: int) -> list:
    """Rows for one replicate: the trajectory is generated whole, replayed
    in chunks by the kernel and scored column-wise against the exact
    conditionals; the Cesaro sum adds the errors in time order."""
    seed = derive_seed(cfg.base_seed, replicate)
    seq = generate(cfg.spec, seed, cfg.horizon).seq.as_array()
    size = cfg.spec.alphabet.size
    parts = kernel.replay(seq, size, cfg.schedules)
    conds = Oracle(cfg.spec).conditionals(seq, kernel.chunk_rows(size))
    grid = np.array(cfg.eval_grid)
    rows: list = []
    err_sum = 0.0
    for part, cond in zip(parts, conds):
        est, oracle, err = _scores(part, cond, cfg.payoff)
        before = np.cumsum(np.concatenate(([err_sum], err)))  # before[i]: errors summed over steps < start + i
        stop = part.start + len(err)
        for n in grid[(grid >= part.start) & (grid < stop)].tolist():
            i = n - part.start
            matches = int(part.matches[i])
            if cfg.payoff is None:
                est_out, oracle_out = tuple(est[i].tolist()), tuple(cond[i].tolist())
            else:
                est_out, oracle_out = float(est[i]), float(oracle[i])
            rows.append(
                MetricsRow(
                    replicate,
                    n,
                    int(part.kappa[i]),
                    matches,
                    matches == 0,
                    est_out,
                    oracle_out,
                    float(err[i]),
                    float(before[i]) / n,
                )
            )
        err_sum = float(before[-1])
    return rows


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run all replicates and aggregate tail fractions.

    Rows come back sorted by (replicate, n) whatever the worker scheduling,
    so output bytes depend only on the config.
    """
    cfg = config.resolved()
    # the pool starts every worker at the first submit, so never ask for more CPUs than this process
    # may run on: its affinity mask where the OS has one (taskset), else the machine's count
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(cfg.workers, cfg.replicates, cpus)
    if workers == 1:
        per_rep = [_run_replicate(cfg, r) for r in range(cfg.replicates)]
    else:
        # imported here: the pool machinery is a sizeable part of start-up and serial runs never need it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_rep = list(pool.map(partial(_run_replicate, cfg), range(cfg.replicates)))
    rows = tuple(row for rep_rows in per_rep for row in rep_rows)
    by_n: dict = {n: [] for n in cfg.eval_grid}
    for row in rows:
        by_n[row.n].append(row.abs_error)
    tails = []
    for n in cfg.eval_grid:
        errs = by_n[n]
        for eps in cfg.epsilons:
            exceed = sum(1 for e in errs if e > eps)
            frac = exceed / cfg.replicates
            tails.append(TailEstimate(n, eps, frac, _wilson_halfwidth(frac, cfg.replicates), cfg.replicates))
    return ExperimentResult(rows=rows, tails=tuple(tails))


# ---------------------------------------------------------------------------
# Lemma checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LemmaResamplingReport:
    """Chi-square comparison of resampled blocks against the stationary law.

    Replicates where the requested recurrence does not exist inside the
    segment are excluded and counted; with fewer than 50 usable replicates
    the verdict is 'inconclusive' rather than a failure.
    """

    k: int
    j: int
    n: int
    block_len: int
    replicates: int
    usable: int
    excluded: int
    counts: tuple
    expected: tuple
    statistic: float
    dof: int
    threshold: float
    status: str


def check_lemma_resampling(
    spec: ProcessSpec,
    k: int,
    j: int,
    n: int,
    replicates: int,
    base_seed: int = 101,
    block_len: int = 1,
) -> LemmaResamplingReport:
    """Locate the j-th recurrence of the length-k suffix at time n and test
    whether the symbols found there are distributed like the process itself.

    The resampled coordinates start one step after the located occurrence,
    so trajectories are generated ``block_len - 1`` steps past n.
    """
    n = _integer(n, "n", 0)
    k, j = _integer(k, "k", 1, n + 1), _integer(j, "j", 1)
    replicates, block_len = _integer(replicates, "replicates", 1), _integer(block_len, "block_len", 1, 3)
    size = spec.alphabet.size
    horizon = max(1, n + block_len - 1)
    counts = [0] * size**block_len
    excluded = 0
    for r in range(replicates):
        traj = generate(spec, derive_seed(base_seed, r), horizon)
        times = recurrence_times(traj.seq, n, k)
        if len(times) < j:
            excluded += 1
            continue
        t = times[j - 1]
        code = 0
        data = traj.seq
        for i in range(n - t + 1, n - t + 1 + block_len):
            code = code * size + data[i]
        counts[code] += 1
    usable = replicates - excluded
    law = stationary_block_law(spec, block_len)
    support = [i for i in range(len(law)) if law[i] > 0]
    impossible = any(counts[i] > 0 for i in range(len(law)) if law[i] <= 0)
    dof = len(support) - 1
    statistic = 0.0
    if usable > 0:
        for i in support:
            expected = usable * law[i]
            diff = counts[i] - expected
            statistic += diff * diff / expected
    threshold = _chi2_quantile_999(dof) if dof >= 1 else 0.0
    if impossible:
        status = "fail"
    elif usable < 50:
        status = "inconclusive"
    else:
        status = "pass" if statistic <= threshold else "fail"
    return LemmaResamplingReport(
        k=k,
        j=j,
        n=n,
        block_len=block_len,
        replicates=replicates,
        usable=usable,
        excluded=excluded,
        counts=tuple(counts),
        expected=tuple(float(usable * p) for p in law),
        statistic=float(statistic),
        dof=dof,
        threshold=float(threshold),
        status=status,
    )


def _chi2_quantile_999(dof: int) -> float:
    from scipy.stats import chi2

    return float(chi2.ppf(0.999, dof))


@dataclass(frozen=True)
class KappaDivergenceReport:
    """Empirical divergence of the matched context length.

    ``fraction_at_cap`` is the share of replicates whose context length hit
    the schedule cap K at the final position.  The 0.95 pass rule is only
    decisive when every cap-length block has positive stationary
    probability; otherwise a miss is reported as inconclusive.
    """

    horizon: int
    replicates: int
    grid: tuple
    min_context: tuple
    median_context: tuple
    final_cap: int
    fraction_at_cap: float
    all_blocks_positive: bool
    status: str
    note: str = ""


def _schedule_hypothesis_note(schedules: Schedules, horizon: int) -> str:
    """Empty string when the divergence hypotheses look satisfied on a grid:
    K and J nondecreasing, J below ``SCHEDULE_CAP`` (a J clipped there would
    decay over n whatever its law), J(n)/n nonincreasing and strictly
    smaller at the horizon than at the start."""
    grid = sorted({min(16, horizon), 256, 4096, 65536, horizon})
    grid = [n for n in grid if 1 <= n <= horizon]
    if len(grid) < 2:
        return "grid too short to assess schedule growth"
    ks = [_schedule_value(schedules.K, n) for n in grid]
    js = [_schedule_value(schedules.J, n) for n in grid]
    if any(b < a for a, b in zip(ks, ks[1:])):
        return f"K is not nondecreasing on grid {grid}"
    if any(b < a for a, b in zip(js, js[1:])):
        return f"J is not nondecreasing on grid {grid}"
    if js[-1] >= SCHEDULE_CAP:
        return f"J(n) reaches its cap {SCHEDULE_CAP} on grid {grid}"
    ratios = [j / n for j, n in zip(js, grid)]
    if any(b > a + 1e-12 for a, b in zip(ratios, ratios[1:])) or not ratios[-1] < ratios[0]:
        return f"J(n)/n does not decay on grid {grid}"
    return ""


def check_kappa_divergence(
    spec: ProcessSpec,
    horizon: int,
    replicates: int,
    schedules: Schedules | None = None,
    base_seed: int = 102,
) -> KappaDivergenceReport:
    """Record matched context lengths at the grid points, one scanning
    :func:`~nextsym.estimator.probe` each, and test that they reach the
    schedule cap at the horizon in more than 95% of replicates."""
    import statistics  # imported here so CLI start-up does not load it

    horizon, replicates = _integer(horizon, "horizon", 1), _integer(replicates, "replicates", 1)
    schedules = schedules or Schedules.default(spec.alphabet.size)
    note = _schedule_hypothesis_note(schedules, horizon)
    grid = default_eval_grid(horizon)
    if note:
        return KappaDivergenceReport(
            horizon=horizon,
            replicates=replicates,
            grid=grid,
            min_context=(),
            median_context=(),
            final_cap=0,
            fraction_at_cap=0.0,
            all_blocks_positive=False,
            status="hypothesis_violation",
            note=note,
        )
    final_cap = _schedule_value(schedules.K, horizon)
    law = stationary_block_law(spec, final_cap)
    all_positive = bool(law.min() > 0)
    per_grid: list[list[int]] = [[] for _ in grid]
    at_cap = 0
    for r in range(replicates):
        seq = generate(spec, derive_seed(base_seed, r), horizon).seq
        for values, n in zip(per_grid, grid):
            values.append((probe(seq, n, schedules) or (0,))[0])
        if per_grid[-1][-1] == final_cap:  # grid always ends at the horizon
            at_cap += 1
    fraction = at_cap / replicates
    if final_cap < 2:
        status = "inconclusive"
        note = f"K(horizon)={final_cap} < 2: cap too small to witness divergence"
    elif fraction > 0.95:
        status = "pass"
    elif not all_positive:
        status = "inconclusive"
        note = "some cap-length blocks have zero stationary probability"
    else:
        status = "fail"
    return KappaDivergenceReport(
        horizon=horizon,
        replicates=replicates,
        grid=grid,
        min_context=tuple(min(v) for v in per_grid),
        median_context=tuple(statistics.median(v) for v in per_grid),
        final_cap=final_cap,
        fraction_at_cap=fraction,
        all_blocks_positive=all_positive,
        status=status,
        note=note,
    )


@dataclass(frozen=True)
class ReturnTimeReport:
    """Monte Carlo bound check: starting inside the block event, fewer than
    ``threshold`` occurrences among the first ``window`` shifts should happen
    with probability at most threshold/window."""

    block: tuple
    window: int
    threshold: int
    replicates: int
    events: int
    frequency: float
    sigma: float
    bound: float
    status: str


def check_return_time_bound(
    spec: ProcessSpec,
    window: int,
    threshold: int,
    replicates: int,
    block: Sequence[int],
    base_seed: int = 104,
) -> ReturnTimeReport:
    """Estimate P(block at time 0 and fewer than ``threshold`` occurrences in
    the first ``window`` shifts); pass when the frequency is within
    threshold/window plus three binomial sigmas."""
    size = spec.alphabet.size
    block = tuple(_integer(b, f"block[{i}]", 0, size - 1) for i, b in enumerate(block))
    k = len(block)
    if k < 1:
        raise ValueError("block must be nonempty")
    window, threshold = _integer(window, "window", 1), _integer(threshold, "threshold", 1)
    replicates = _integer(replicates, "replicates", 1)
    events = 0
    horizon = window + k - 1
    for r in range(replicates):
        traj = generate(spec, derive_seed(base_seed, r), horizon)
        arr = traj.seq.as_array()
        mask = arr[:window] == block[0]  # windows starting at 0..window-1 that equal the block
        for i in range(1, k):
            mask &= arr[i : window + i] == block[i]
        if mask[0] and int(mask.sum()) < threshold:
            events += 1
    frequency = events / replicates
    sigma = math.sqrt(frequency * (1.0 - frequency) / replicates)
    bound = threshold / window + 3.0 * sigma
    status = "pass" if frequency <= bound else "fail"
    return ReturnTimeReport(
        block=block,
        window=window,
        threshold=threshold,
        replicates=replicates,
        events=events,
        frequency=frequency,
        sigma=sigma,
        bound=bound,
        status=status,
    )
