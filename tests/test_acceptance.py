"""Acceptance gate: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The two long experiments are shared across criteria through session
fixtures; replicate r of a run depends only on (base_seed, r), so the
10-replicate criterion reads the first 10 replicates of the 50-replicate run
(the equality behind that is itself asserted in the harness test suite).
"""

import json
import statistics
import time

import numpy as np
import pytest

from nextsym import (
    Alphabet,
    ExperimentConfig,
    IIDProcess,
    MarkovProcess,
    PayoffFunction,
    Schedules,
    check_lemma_resampling,
    check_return_time_bound,
    estimate,
    recurrence_times,
    run_experiment,
    schedule_J,
    verify_equivalence,
)
from nextsym.cli import main
from nextsym.estimator import probe
from nextsym.sequences import SymbolSequence

BINARY = Alphabet("01")
IND1 = PayoffFunction.indicator(BINARY, "1")
ORDER1 = MarkovProcess(BINARY, 1, ((0.7, 0.3), (0.3, 0.7)))
ORDER2 = MarkovProcess(BINARY, 2, ((0.9, 0.1), (0.6, 0.4), (0.4, 0.6), (0.1, 0.9)))
COIN = IIDProcess(BINARY, (0.5, 0.5))
N_BIG = 2**21  # K(N_BIG) = 2 for a binary alphabet


def report(criterion: int, text: str) -> None:
    print(f"\nACCEPTANCE {criterion} PASS: {text}")


@pytest.fixture(scope="session")
def order1_run():
    cfg = ExperimentConfig(
        spec=ORDER1,
        horizon=100_000,
        replicates=20,
        payoff=IND1,
        eval_grid=(1000, 100_000),
        base_seed=20260601,
        workers=2,
    )
    return run_experiment(cfg)


@pytest.fixture(scope="session")
def order2_run():
    cfg = ExperimentConfig(
        spec=ORDER2,
        horizon=N_BIG,
        replicates=50,
        payoff=IND1,
        eval_grid=(N_BIG // 128, N_BIG),
        epsilons=(0.05,),
        base_seed=20260602,
        workers=2,
    )
    return run_experiment(cfg)


def test_criterion_1_oracle_equivalence_exact():
    start = time.monotonic()
    result = verify_equivalence(cases=200, max_n=2000, seed=20260610)
    elapsed = time.monotonic() - start
    assert result.ok, result.counterexample
    assert result.cases == 200
    assert elapsed < 60.0
    report(1, f"scanning == streaming bit-for-bit on {result.prefixes_checked} prefixes in {elapsed:.1f}s")


def test_criterion_2_pointwise_error_order1(order1_run):
    finals = [r.abs_error for r in order1_run.rows if r.n == 100_000]
    early = [r.abs_error for r in order1_run.rows if r.n == 1000]
    assert len(finals) == 20
    mean_final = sum(finals) / len(finals)
    assert mean_final < 0.02
    assert statistics.median(finals) < statistics.median(early)
    report(2, f"mean final error {mean_final:.5f} < 0.02; median improves from n=1e3 to n=1e5")


def test_criterion_3_growing_context_order2(order2_run):
    rows = [r for r in order2_run.rows if r.n == N_BIG and r.replicate < 10]
    assert len(rows) == 10
    mean_final = sum(r.abs_error for r in rows) / 10
    at_cap = sum(1 for r in rows if r.context_len == 2) / 10
    assert mean_final < 0.05
    assert at_cap >= 0.95
    report(3, f"mean final error {mean_final:.5f} < 0.05; context length hit K(N)=2 in {at_cap:.0%} of replicates")


def test_criterion_4_cesaro_average_order1(order1_run):
    by_rep: dict = {}
    for row in order1_run.rows:
        by_rep.setdefault(row.replicate, {})[row.n] = row.cesaro_avg
    for rep, ces in by_rep.items():
        assert ces[100_000] < 0.05
        assert ces[100_000] < ces[1000]
    worst = max(ces[100_000] for ces in by_rep.values())
    report(4, f"Cesaro average at n=1e5 below 0.05 (worst {worst:.5f}) and below its n=1e3 value in all 20 replicates")


def test_criterion_5_weak_consistency_tails(order2_run):
    tails = {t.n: t for t in order2_run.tails if t.epsilon == 0.05}
    big, small = tails[N_BIG], tails[N_BIG // 128]
    assert big.replicates == 50
    assert big.fraction <= 0.1
    assert big.fraction < small.fraction
    assert big.fraction + big.wilson_halfwidth < small.fraction - small.wilson_halfwidth
    report(
        5,
        f"tail fraction at N is {big.fraction:.3f} (<= 0.1) vs {small.fraction:.3f} at N/128; "
        "Wilson intervals exclude regression",
    )


def test_criterion_6_resampling_distribution_checks():
    configs = [
        (COIN, 1, 1, 100, "iid uniform"),
        (IIDProcess(BINARY, (1.0, 0.0)), 1, 2, 50, "constant"),
        (ORDER1, 2, 3, 200, "order-1 markov"),
    ]
    stats = []
    for spec, k, j, n, label in configs:
        rep = check_lemma_resampling(spec, k=k, j=j, n=n, replicates=5000, base_seed=20260611)
        assert rep.status == "pass", (label, rep)
        stats.append(f"{label}: chi2={rep.statistic:.2f} (dof={rep.dof})")
    report(6, "; ".join(stats))


def test_criterion_7_return_time_bound():
    rep = check_return_time_bound(
        COIN, window=100, threshold=30, replicates=20000, block=(1,), base_seed=20260612
    )
    assert rep.status == "pass"
    assert rep.frequency <= rep.bound
    report(7, f"empirical frequency {rep.frequency:.2e} within bound {rep.bound:.3f} (threshold/window = 0.3)")


def test_criterion_8_schedule_unit_examples():
    K = Schedules.default(2).K
    assert K(1024) == 1
    assert K(2**20) == 2
    assert K(2**30) == 3
    assert K(5) == 1
    assert schedule_J(1) == 1
    assert schedule_J(100) == 10
    assert schedule_J(101) == 11
    report(8, "all seven schedule examples exact")


def test_criterion_9_byte_identical_csv(tmp_path):
    doc = {
        "process": {"kind": "markov", "alphabet": "01", "order": 1, "transition": [[0.7, 0.3], [0.3, 0.7]]},
        "experiment": {
            "horizon": 2048,
            "replicates": 4,
            "base_seed": 20260613,
            "payoff": {"kind": "indicator", "symbol": "1"},
        },
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    outs = {}
    for name, workers in (("a", 1), ("b", 1), ("w8", 8)):
        out = tmp_path / name
        assert main(["simulate", "--config", str(cfg), "--out", str(out), "--workers", str(workers)]) == 0
        outs[name] = (
            (out / "metrics.csv").read_bytes(),
            (out / "tails.csv").read_bytes(),
        )
    assert outs["a"] == outs["b"]
    assert outs["a"] == outs["w8"]
    report(9, "re-runs and workers=1 vs workers=8 produce byte-identical CSVs")


def test_criterion_10_invariant_suite_ten_thousand_cases_each():
    rng = np.random.default_rng(20260614)
    cases = 10_000
    sch = Schedules(K=lambda n: max(1, n.bit_length() // 2), J=lambda n: max(1, int(n**0.5)))

    def random_seq():
        size = int(rng.integers(2, 5))
        length = int(rng.integers(2, 40))
        data = rng.integers(0, size, length)
        return Alphabet.of_size(size), SymbolSequence(Alphabet.of_size(size), data.astype(np.uint8).tobytes()), length - 1, size

    # range: non-abstained estimates stay inside the payoff envelope
    for _ in range(cases):
        alphabet, seq, n, size = random_seq()
        payoff = PayoffFunction(alphabet, tuple(rng.normal(size=size).tolist()))
        r = estimate(seq, n, payoff, sch)
        if r.abstained:
            assert r.value == 0.0 and r.context_len == 0 and r.matches == 0
        else:
            assert min(payoff.values) <= r.value <= max(payoff.values)

    # threshold: a positive context length implies at least J(n) matches
    for _ in range(cases):
        _, seq, n, _ = random_seq()
        hit = probe(seq, n, sch)
        if hit is not None:
            assert len(recurrence_times(seq, n, hit[0])) >= sch.J(n)

    # monotonicity: recurrence lists strictly increase and every entry matches
    for _ in range(cases):
        _, seq, n, _ = random_seq()
        k = int(rng.integers(1, n + 2))
        times = recurrence_times(seq, n, k)
        assert all(b > a for a, b in zip(times, times[1:]))
        block = seq[n - k + 1 : n + 1]
        for t in times:
            assert seq[n - k + 1 - t : n - t + 1] == block

    # suffix-length dominance: shorter suffixes match at least as often
    for _ in range(cases):
        _, seq, n, _ = random_seq()
        k_long = int(rng.integers(2, n + 2))
        k_short = int(rng.integers(1, k_long))
        assert len(recurrence_times(seq, n, k_short)) >= len(recurrence_times(seq, n, k_long))

    report(10, f"range/threshold/monotonicity/suffix-dominance held on {cases} randomized cases each")
