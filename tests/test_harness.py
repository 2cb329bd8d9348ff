import math
import re
from dataclasses import replace

import numpy as np
import pytest

from nextsym import (
    Alphabet,
    ExperimentConfig,
    HiddenMarkovProcess,
    IIDProcess,
    MarkovProcess,
    Oracle,
    PayoffFunction,
    Schedules,
    StreamingEstimator,
    SymbolSequence,
    check_kappa_divergence,
    check_lemma_resampling,
    check_return_time_bound,
    derive_seed,
    estimate,
    generate,
    recurrence_times,
    run_experiment,
    schedule_J,
    stationary_block_law,
)
from nextsym import harness
from nextsym.config import build_schedules
from nextsym.estimator import ConstantSchedule, LinearJ, LogK, SqrtJ, probe
from nextsym.harness import _wilson_halfwidth, default_eval_grid
from nextsym.processes import _MAX_HORIZON
from nextsym.verify import verify_equivalence

BINARY = Alphabet("01")
COIN = IIDProcess(BINARY, (0.5, 0.5))
CONSTANT = IIDProcess(BINARY, (1.0, 0.0))
FLIP = MarkovProcess(BINARY, 1, ((0.7, 0.3), (0.3, 0.7)))
IND1 = PayoffFunction.indicator(BINARY, "1")
NO_11 = MarkovProcess(BINARY, 1, ((0.5, 0.5), (1.0, 0.0)))  # the block 11 never occurs
ORDER2 = MarkovProcess(BINARY, 2, ((0.9, 0.1), (0.6, 0.4), (0.4, 0.6), (0.1, 0.9)))


class TestSeeding:
    def test_frozen_splitmix_values(self):
        # canonical splitmix64 outputs from state 0
        assert derive_seed(0, 0) == 16294208416658607535
        assert derive_seed(0, 1) == 7960286522194355700
        assert derive_seed(0, 2) == 487617019471545679
        assert derive_seed(12345, 7) == 7959005890829367068

    def test_wraps_and_validates(self):
        assert 0 <= derive_seed(2**64 - 1, 0) < 2**64
        with pytest.raises(ValueError):
            derive_seed(1, -1)

    @pytest.mark.parametrize("base_seed", [-1, 2**64, 2**64 + 5, 5.0, True])
    def test_refuses_seeds_that_would_alias(self, base_seed):
        # the seed was masked to 64 bits: -1 ran as 2**64 - 1 and 2**64 + 5 as 5, in every check and in verify;
        # True ran as 1, and 5.0 escaped from mix64 as a bare TypeError
        if type(base_seed) is int:
            message = f"base seed must be in 0..{2**64 - 1}, got {base_seed}"
        else:
            message = f"base seed must be an integer, got {base_seed!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            derive_seed(base_seed, 0)
        with pytest.raises(ValueError, match="base seed"):
            verify_equivalence(cases=3, max_n=50, seed=base_seed)
        with pytest.raises(ValueError, match="base seed"):
            check_return_time_bound(COIN, window=8, threshold=2, replicates=5, block=(1,), base_seed=base_seed)

    def test_distinct_streams(self):
        seeds = {derive_seed(999, i) for i in range(1000)}
        assert len(seeds) == 1000


class TestConfig:
    def test_defaults_resolved(self):
        cfg = ExperimentConfig(spec=COIN, horizon=100, replicates=2).resolved()
        assert cfg.eval_grid == default_eval_grid(100)
        assert cfg.eval_grid[0] == 1 and cfg.eval_grid[-1] == 100
        assert cfg.schedules is not None and cfg.payoff is None

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            ExperimentConfig(spec=COIN, horizon=0, replicates=1).resolved()
        with pytest.raises(ValueError):
            ExperimentConfig(spec=COIN, horizon=10, replicates=0).resolved()
        with pytest.raises(ValueError):
            ExperimentConfig(spec=COIN, horizon=10, replicates=1, eval_grid=(0, 5)).resolved()
        with pytest.raises(ValueError):
            ExperimentConfig(spec=COIN, horizon=10, replicates=1, eval_grid=(5, 11)).resolved()
        with pytest.raises(ValueError):
            ExperimentConfig(spec=COIN, horizon=10, replicates=1, epsilons=(0.0,)).resolved()
        with pytest.raises(ValueError):
            ExperimentConfig(spec=COIN, horizon=10, replicates=1, epsilons=(1.5,)).resolved()
        with pytest.raises(ValueError):
            ExperimentConfig(
                spec=COIN, horizon=10, replicates=1, payoff=PayoffFunction.indicator(Alphabet("ab"), "a")
            ).resolved()

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("eval_grid", (2.5, 7.9), r"eval_grid\[0\] must be an integer, got 2\.5"),
            ("eval_grid", (3, "3"), r"eval_grid\[1\] must be an integer, got '3'"),
            ("horizon", 10.7, "horizon must be an integer, got 10.7"),
            ("replicates", 2.0, "replicates must be an integer, got 2.0"),
            ("workers", 1.5, "workers must be an integer, got 1.5"),
            ("base_seed", 3.5, "base_seed must be an integer, got 3.5"),
            ("horizon", True, "horizon must be an integer, got True"),
            ("replicates", True, "replicates must be an integer, got True"),
            ("eval_grid", (True,), r"eval_grid\[0\] must be an integer, got True"),
            ("workers", True, "workers must be an integer, got True"),
            ("eval_grid", 5, "eval_grid must be a sequence of integers, got 5"),
        ],
        ids=["grid-float", "grid-str", "horizon", "replicates", "workers", "base_seed"]
        + ["horizon-bool", "replicates-bool", "grid-bool", "workers-bool", "grid-scalar"],
    )
    def test_integer_fields_are_not_truncated(self, field, value, message):
        # int() turned the grid (2.5, 7.9) into rows at n = 2 and 7, and accepted workers=1.5
        cfg = replace(ExperimentConfig(spec=COIN, horizon=10, replicates=1), **{field: value})
        with pytest.raises(ValueError, match=message):
            run_experiment(cfg)

    @pytest.mark.parametrize(
        "epsilons, message",
        [(("a",), r"epsilons\[0\] must be a finite number, got 'a'"), (0.1, "epsilons must be a sequence")],
    )
    def test_epsilons_must_be_numbers(self, epsilons, message):
        # a bare TypeError escaped: "'<' not supported ..." and "'float' object is not iterable"
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(spec=COIN, horizon=10, replicates=1, epsilons=epsilons).resolved()

    def test_integer_fields_accept_numpy_integers(self):
        cfg = ExperimentConfig(spec=COIN, horizon=np.int64(10), replicates=1, eval_grid=(np.int32(3),)).resolved()
        assert (cfg.horizon, cfg.eval_grid) == (10, (3,))
        assert type(cfg.horizon) is int and type(cfg.eval_grid[0]) is int

    def test_payoff_sums_must_stay_finite(self):
        # 2 * 1e308 * 65 overflows, so the estimate, error and Cesaro mean would all be nan
        big, small = PayoffFunction(BINARY, (1e308, -1e308)), PayoffFunction(BINARY, (1e300, -1e300))
        with pytest.raises(ValueError, match=r"2 \* max\|v\| \* \(horizon \+ 1\) is finite"):
            run_experiment(ExperimentConfig(spec=COIN, horizon=64, replicates=1, payoff=big))
        ExperimentConfig(spec=COIN, horizon=64, replicates=1, payoff=small).resolved()


class TestRunExperiment:
    def test_rows_sorted_and_complete(self):
        cfg = ExperimentConfig(spec=FLIP, horizon=256, replicates=3, payoff=IND1, base_seed=5)
        res = run_experiment(cfg)
        grid = default_eval_grid(256)
        assert [(r.replicate, r.n) for r in res.rows] == [
            (rep, n) for rep in range(3) for n in grid
        ]
        assert len(res.tails) == len(grid) * 2

    def test_cesaro_bookkeeping_exact(self):
        n_max = 300
        cfg = ExperimentConfig(
            spec=FLIP,
            horizon=n_max,
            replicates=2,
            payoff=IND1,
            eval_grid=tuple(range(1, n_max + 1)),
            base_seed=3,
        )
        res = run_experiment(cfg)
        for rep in range(2):
            rows = [r for r in res.rows if r.replicate == rep]
            running = rows[0].cesaro_avg * 1  # cesaro(1) = err_0 exactly
            for row in rows:
                assert row.cesaro_avg == running / row.n
                running += row.abs_error

    def test_abstention_scored_with_zero_convention(self):
        cfg = ExperimentConfig(
            spec=FLIP, horizon=4, replicates=1, payoff=IND1, eval_grid=(1, 2, 3, 4), base_seed=3
        )
        res = run_experiment(cfg)
        for row in res.rows:
            if row.abstained:
                assert row.estimate == 0.0 and row.abs_error == abs(row.oracle)
                assert row.context_len == 0 and row.matches == 0

    def test_iid_coin_example_matches_scanning_evaluator(self):
        cfg = ExperimentConfig(spec=COIN, horizon=4096, replicates=1, payoff=IND1, base_seed=29)
        res = run_experiment(cfg)
        final = res.rows[-1]
        assert final.n == 4096
        assert final.abs_error <= 0.1
        traj = generate(COIN, derive_seed(29, 0), 4096)
        want = estimate(traj.seq, 4096, IND1, Schedules.default(2))
        assert final.estimate == want.value
        assert final.context_len == want.context_len and final.matches == want.matches
        assert final.oracle == 0.5

    def test_distribution_mode_rows(self):
        cfg = ExperimentConfig(
            spec=FLIP, horizon=512, replicates=2, base_seed=8, eval_grid=(1, 2, 64, 512)
        )
        res = run_experiment(cfg)
        for row in res.rows:
            assert 0.0 <= row.abs_error <= 1.0
            assert isinstance(row.estimate, tuple) and isinstance(row.oracle, tuple)
            if row.abstained:
                assert row.estimate == (0.0, 0.0)
                assert row.abs_error == 0.5 * sum(row.oracle)
            else:
                assert abs(sum(row.estimate) - 1.0) <= 1e-12
                assert row.abs_error == 0.5 * sum(abs(a - b) for a, b in zip(row.estimate, row.oracle))

    def test_workers_do_not_change_output(self):
        cfg1 = ExperimentConfig(spec=FLIP, horizon=2048, replicates=4, payoff=IND1, base_seed=11, workers=1)
        cfg2 = ExperimentConfig(spec=FLIP, horizon=2048, replicates=4, payoff=IND1, base_seed=11, workers=2)
        res1, res2 = run_experiment(cfg1), run_experiment(cfg2)
        assert res1.rows == res2.rows and res1.tails == res2.tails

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        """Replace the process pool by one that runs every task in the calling process,
        in order, and return the list of pool sizes asked for."""
        import concurrent.futures

        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable):
                return map(fn, iterable)

        # run_experiment imports the pool class from the package at call time
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        return sizes

    @staticmethod
    def _check_pool_size(pool_sizes, pool_size):
        """Ask for 5000 workers; the pool gets pool_size of them (None: no pool) and the rows stay the serial run's."""
        cfg = ExperimentConfig(spec=FLIP, horizon=256, replicates=6, payoff=IND1, base_seed=11)
        res = run_experiment(replace(cfg, workers=5000))
        assert pool_sizes == ([] if pool_size is None else [pool_size])
        serial = run_experiment(cfg)
        assert res.rows == serial.rows and res.tails == serial.tails

    @pytest.mark.parametrize("cpus, pool_size", [(3, 3), (1, None), (None, None)])
    def test_pool_is_capped_at_the_cpu_count(self, monkeypatch, pool_sizes, cpus, pool_size):
        # the machine's count is the cap only where the OS has no affinity mask
        monkeypatch.delattr(harness.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
        self._check_pool_size(pool_sizes, pool_size)

    @pytest.mark.parametrize("affinity, pool_size", [({0}, None), ({0, 2, 5}, 3)])
    def test_pool_is_capped_at_the_cpus_this_process_may_use(self, monkeypatch, pool_sizes, affinity, pool_size):
        # taskset -c 0 on an 8-CPU machine: one usable CPU, so no pool at all
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: affinity, raising=False)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)
        self._check_pool_size(pool_sizes, pool_size)

    def test_replicate_rows_depend_only_on_base_seed_and_index(self):
        small = run_experiment(ExperimentConfig(spec=FLIP, horizon=512, replicates=3, payoff=IND1, base_seed=21))
        large = run_experiment(ExperimentConfig(spec=FLIP, horizon=512, replicates=6, payoff=IND1, base_seed=21))
        assert small.rows == large.rows[: len(small.rows)]

    def test_tail_fractions_recomputable_from_rows(self):
        cfg = ExperimentConfig(
            spec=FLIP, horizon=256, replicates=5, payoff=IND1, base_seed=13, epsilons=(0.02, 0.2)
        )
        res = run_experiment(cfg)
        for tail in res.tails:
            errs = [r.abs_error for r in res.rows if r.n == tail.n]
            assert tail.fraction == sum(1 for e in errs if e > tail.epsilon) / 5
            assert tail.replicates == 5
            assert tail.wilson_halfwidth == _wilson_halfwidth(tail.fraction, 5)

    def test_wilson_halfwidth_frozen_value(self):
        assert _wilson_halfwidth(0.1, 100) == pytest.approx(0.05956826222211918, abs=1e-15)


class TestLemmaResampling:
    def test_iid_uniform_passes(self):
        report = check_lemma_resampling(COIN, k=1, j=1, n=100, replicates=400, base_seed=17)
        assert report.status == "pass"
        assert report.excluded <= 2  # matching symbol almost surely recurs in 100 steps
        assert report.dof == 1

    def test_constant_process_trivial(self):
        report = check_lemma_resampling(CONSTANT, k=1, j=2, n=50, replicates=100, base_seed=18)
        assert report.status == "pass"
        assert report.counts[0] == 100 and report.counts[1] == 0
        assert report.dof == 0 and report.statistic == 0.0

    def test_markov_pair_block_passes(self):
        report = check_lemma_resampling(FLIP, k=2, j=3, n=200, replicates=400, base_seed=19)
        assert report.status == "pass"

    def test_small_sample_is_inconclusive(self):
        report = check_lemma_resampling(COIN, k=1, j=1, n=100, replicates=10, base_seed=20)
        assert report.status == "inconclusive"
        assert report.usable < 50

    def test_multicoordinate_block_option(self):
        report = check_lemma_resampling(COIN, k=1, j=2, n=80, replicates=400, base_seed=21, block_len=2)
        assert report.status == "pass"
        assert len(report.counts) == 4 and report.dof == 3

    def test_replicates_short_of_j_recurrences_are_excluded(self):
        # a length-5 suffix recurs twice within 60 steps in only about half the replicates
        report = check_lemma_resampling(COIN, k=5, j=2, n=60, replicates=100, base_seed=23)
        assert (report.status, report.usable, report.excluded, report.counts) == ("pass", 53, 47, (24, 29))

    def test_pinned_counts_at_a_multi_symbol_suffix(self):
        # the second recurrence of a length-3 suffix, two coordinates resampled: the recurrence
        # lists decide every count, so the counts, the statistic and the status are pinned exactly
        report = check_lemma_resampling(ORDER2, k=3, j=2, n=120, replicates=500, base_seed=23, block_len=2)
        assert (report.usable, report.excluded, report.counts) == (494, 6, (197, 58, 48, 191))
        assert (report.statistic, report.dof, report.status) == (1.7591093117408851, 3, "pass")

    def test_impossible_block_fails(self, monkeypatch):
        # a law that rules out the symbol 1 stands for a generator that disagrees with its law
        monkeypatch.setattr(harness, "stationary_block_law", lambda spec, length: np.array([1.0, 0.0]))
        report = check_lemma_resampling(COIN, k=1, j=1, n=100, replicates=60, base_seed=17)
        assert (report.status, report.usable, report.counts, report.dof) == ("fail", 60, (32, 28), 0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            check_lemma_resampling(COIN, k=0, j=1, n=10, replicates=10)
        with pytest.raises(ValueError):
            check_lemma_resampling(COIN, k=5, j=1, n=3, replicates=10)
        with pytest.raises(ValueError):
            check_lemma_resampling(COIN, k=1, j=1, n=10, replicates=10, block_len=4)


class TestKappaDivergence:
    def aggressive(self):
        return build_schedules({"schedules": {"K": {"kind": "log", "coeff": 0.25}}}, BINARY)

    def test_iid_coin_reaches_cap(self):
        report = check_kappa_divergence(COIN, horizon=4096, replicates=40, schedules=self.aggressive())
        assert report.final_cap == 3
        assert report.status == "pass"
        assert report.fraction_at_cap > 0.95
        assert report.all_blocks_positive
        assert report.min_context[-1] >= 2

    def test_constant_process_pins_cap(self):
        report = check_kappa_divergence(CONSTANT, horizon=2048, replicates=20, schedules=self.aggressive())
        assert report.status == "pass" and report.fraction_at_cap == 1.0
        assert not report.all_blocks_positive

    def test_linear_J_flags_hypothesis_violation(self):
        sch = build_schedules({"schedules": {"J": {"kind": "linear"}}}, BINARY)
        report = check_kappa_divergence(COIN, horizon=4096, replicates=5, schedules=sch)
        assert report.status == "hypothesis_violation"
        assert "J(n)/n" in report.note

    def test_default_schedules_small_horizon_inconclusive(self):
        report = check_kappa_divergence(COIN, horizon=4096, replicates=5)
        assert report.status == "inconclusive"
        assert report.final_cap == 1

    def constant_K(self, value):
        return build_schedules({"schedules": {"K": {"kind": "constant", "value": value}}}, BINARY)

    def test_missed_cap_fails_when_every_cap_block_is_possible(self):
        # J(512) = 23 occurrences of a length-5 block: none of the 10 replicates gets past length 4
        report = check_kappa_divergence(COIN, horizon=512, replicates=10, schedules=self.constant_K(5))
        assert (report.status, report.final_cap, report.fraction_at_cap) == ("fail", 5, 0.0)
        assert report.all_blocks_positive and report.min_context[-1] == 4 and report.note == ""

    def test_missed_cap_is_inconclusive_with_impossible_cap_blocks(self):
        report = check_kappa_divergence(NO_11, horizon=512, replicates=10, schedules=self.constant_K(5))
        assert (report.status, report.final_cap, report.fraction_at_cap) == ("inconclusive", 5, 0.6)
        assert not report.all_blocks_positive
        assert report.note == "some cap-length blocks have zero stationary probability"

    @pytest.mark.parametrize(
        "name, schedules",
        [
            ("K", Schedules(K=lambda n: 3 if n < 300 else 2, J=SqrtJ())),
            ("J", Schedules(K=LogK(2, 0.25), J=lambda n: 50 if n < 300 else 2)),
        ],
    )
    def test_shrinking_schedule_flags_hypothesis_violation(self, name, schedules):
        report = check_kappa_divergence(COIN, horizon=4096, replicates=5, schedules=schedules)
        assert report.status == "hypothesis_violation"
        assert report.note == f"{name} is not nondecreasing on grid [16, 256, 4096]"

    def test_median_context_grows(self):
        report = check_kappa_divergence(COIN, horizon=4096, replicates=20, schedules=self.aggressive())
        med = report.median_context
        assert med[0] <= med[len(med) // 2] <= med[-1]


class TestReturnTimeBound:
    def test_iid_coin_within_bound(self):
        report = check_return_time_bound(COIN, window=100, threshold=30, replicates=2000, block=(1,))
        assert report.status == "pass"
        # Binomial(99, 1/2) below 29 has probability ~1e-5; virtually no events
        assert report.frequency <= 0.001
        assert report.bound >= 0.3

    def test_constant_process_never_fails_event(self):
        report = check_return_time_bound(CONSTANT, window=50, threshold=50, replicates=200, block=(0,))
        assert report.status == "pass" and report.events == 0

    def test_pair_block(self):
        report = check_return_time_bound(FLIP, window=60, threshold=5, replicates=500, block=(1, 1))
        assert report.status == "pass"

    @pytest.mark.parametrize("block, threshold", [((1,), 14), ((1, 0), 5), ((0, 1, 1), 4), ((0, 1, 0, 1), 2)])
    def test_events_match_a_brute_recount(self, block, threshold):
        window, replicates, k = 40, 300, len(block)
        report = check_return_time_bound(FLIP, window, threshold, replicates, block, base_seed=5)
        events = 0
        for r in range(replicates):
            x = tuple(generate(FLIP, derive_seed(5, r), window + k - 1).seq.as_array().tolist())
            starts = [s for s in range(window) if x[s : s + k] == block]
            events += starts[:1] == [0] and len(starts) < threshold
        assert report.events == events > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            check_return_time_bound(COIN, window=10, threshold=1, replicates=10, block=())
        with pytest.raises(ValueError):
            check_return_time_bound(COIN, window=10, threshold=1, replicates=10, block=(2,))
        with pytest.raises(ValueError):
            check_return_time_bound(COIN, window=0, threshold=1, replicates=10, block=(1,))


def test_default_eval_grid_shape():
    grid = default_eval_grid(100)
    assert grid[0] == 1 and grid[-1] == 100 and 64 in grid
    assert default_eval_grid(64)[-1] == 64 and default_eval_grid(64).count(64) == 1


def test_schedule_J_growth_used_by_hypothesis_check():
    ratios = [schedule_J(n) / n for n in (16, 256, 4096)]
    assert ratios == sorted(ratios, reverse=True)


SEQ = SymbolSequence(BINARY, [0, 1] * 6)
INTEGER_ARGUMENTS = [
    pytest.param("n", lambda v: check_lemma_resampling(COIN, k=1, j=1, n=v, replicates=2), id="resampling-n"),
    pytest.param("k", lambda v: check_lemma_resampling(COIN, k=v, j=1, n=10, replicates=2), id="resampling-k"),
    pytest.param("j", lambda v: check_lemma_resampling(COIN, k=1, j=v, n=10, replicates=2), id="resampling-j"),
    pytest.param("replicates", lambda v: check_lemma_resampling(COIN, 1, 1, 10, replicates=v), id="resampling-reps"),
    pytest.param("block_len", lambda v: check_lemma_resampling(COIN, 1, 1, 10, 2, block_len=v), id="resampling-len"),
    pytest.param("horizon", lambda v: check_kappa_divergence(COIN, v, 2), id="divergence-horizon"),
    pytest.param("replicates", lambda v: check_kappa_divergence(COIN, 64, v), id="divergence-reps"),
    pytest.param("window", lambda v: check_return_time_bound(COIN, v, 1, 2, (1,)), id="return-window"),
    pytest.param("threshold", lambda v: check_return_time_bound(COIN, 8, v, 2, (1,)), id="return-threshold"),
    pytest.param("replicates", lambda v: check_return_time_bound(COIN, 8, 1, v, (1,)), id="return-reps"),
    pytest.param("block[0]", lambda v: check_return_time_bound(COIN, 8, 1, 2, (v,)), id="return-block"),
    pytest.param("value", ConstantSchedule, id="ConstantSchedule"),
    pytest.param("base", lambda v: LogK(v, 0.5), id="LogK"),
    pytest.param("alphabet_size", Schedules.default, id="Schedules.default"),
    pytest.param("order", lambda v: MarkovProcess(BINARY, v, FLIP.rows), id="MarkovProcess"),
    pytest.param("size", Alphabet.of_size, id="Alphabet.of_size"),
    pytest.param("horizon", lambda v: generate(COIN, 1, v), id="generate"),
    pytest.param("index", lambda v: derive_seed(0, v), id="derive_seed-index"),
    pytest.param("horizon", lambda v: StreamingEstimator(BINARY, horizon=v), id="StreamingEstimator"),
    pytest.param("length", lambda v: stationary_block_law(COIN, v), id="stationary_block_law"),
    pytest.param("chunk", lambda v: list(Oracle(COIN).conditionals(SEQ.as_array(), v)), id="Oracle.conditionals"),
    pytest.param("n", lambda v: probe(SEQ, v, Schedules.default(2)), id="probe"),
    pytest.param("n", lambda v: recurrence_times(SEQ, v, 1), id="recurrence_times-n"),
    pytest.param("k", lambda v: recurrence_times(SEQ, 5, v), id="recurrence_times-k"),
]


@pytest.mark.parametrize("value", [2.0, True])
@pytest.mark.parametrize("field, call", INTEGER_ARGUMENTS)
def test_integer_arguments_refuse_floats_and_bools(field, call, value):
    # a float was truncated, escaped as a bare TypeError or failed only at first use; True ran as 1
    with pytest.raises(ValueError, match="^" + re.escape(f"{field} must be an integer, got {value!r}")):
        call(value)


OUT_OF_RANGE_ARGUMENTS = [
    pytest.param("value must be in 0..4611686018427387904, got -3", lambda: ConstantSchedule(-3),
                 id="ConstantSchedule-negative"),
    pytest.param("value must be in 0..4611686018427387904, got 1180591620717411303424",
                 lambda: ConstantSchedule(2**70), id="ConstantSchedule-past-int64"),
    pytest.param("values must be keyed by alphabet symbols, got unknown symbols ['2']",
                 lambda: PayoffFunction.from_map(BINARY, {"0": 1, "1": 0, "2": 5}), id="from_map-unknown-token"),
]


@pytest.mark.parametrize("message, call", OUT_OF_RANGE_ARGUMENTS)
def test_out_of_range_arguments_are_refused(message, call):
    # ConstantSchedule(-3)(5) returned -3, ConstantSchedule(2**70).values(1, 4) raised a bare OverflowError,
    # and from_map dropped a token that names no symbol
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        call()


@pytest.mark.parametrize(
    "message, check",
    [
        ("block_len must be small enough that 41^block_len <= 65536, got 3",
         lambda spec: check_lemma_resampling(spec, 1, 1, 10, 3000, block_len=3)),
        ("schedules.K must be small enough that 41^K(horizon) <= 65536, got K(64) = 3",
         lambda spec: check_kappa_divergence(spec, 64, 100, Schedules(K=ConstantSchedule(3), J=SqrtJ()))),
    ],
    ids=["resampling", "divergence"],
)
def test_block_space_is_refused_before_any_draw(monkeypatch, message, check):
    # the resampling check drew all 3,000 replicates before its block law raised a bare "block space too large"
    draws = []
    monkeypatch.setattr(harness, "generate", lambda *args: draws.append(args))
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        check(IIDProcess(Alphabet.of_size(41), [1 / 41] * 41))
    assert draws == []


def _epsilons(values):
    return ExperimentConfig(spec=COIN, horizon=10, replicates=1, epsilons=values).resolved()


def _markov(rows):
    return MarkovProcess(BINARY, 1, rows)


def _hmm(transition, emission):
    return HiddenMarkovProcess(BINARY, transition, emission)


NUMBER_ARGUMENTS = [  # the start of each message: an entry, then the table as a whole
    pytest.param("probs[0] must be a finite number", lambda v: IIDProcess(BINARY, (v, 0.5)), id="IID-entry"),
    pytest.param("transition[1][0] must be a finite number", lambda v: _markov((FLIP.rows[0], (v, 0.5))),
                 id="Markov-entry"),
    pytest.param("transition[0][1] must be a finite number", lambda v: _hmm(((0.5, v), (0.5, 0.5)), FLIP.rows),
                 id="HMM-transition-entry"),
    pytest.param("emission[0][0] must be a finite number", lambda v: _hmm(((1.0,),), ((v, 0.5),)),
                 id="HMM-emission-entry"),
    pytest.param("values[0] must be a finite number", lambda v: PayoffFunction(BINARY, (v, 1.0)), id="PayoffFunction"),
    pytest.param("values['1'] must be a finite number", lambda v: PayoffFunction.from_map(BINARY, {"0": 0, "1": v}),
                 id="PayoffFunction.from_map"),
    pytest.param("coeff must be a finite number", lambda v: LogK(2, v), id="LogK"),
    pytest.param("coeff must be a finite number", LinearJ, id="LinearJ"),
    pytest.param("epsilons[0] must be a finite number", lambda v: _epsilons((v,)), id="epsilons-entry"),
    pytest.param("probs must be a sequence of numbers", lambda v: IIDProcess(BINARY, v), id="IID"),
    pytest.param("transition must be a sequence of rows", _markov, id="Markov"),
    pytest.param("transition[0] must be a sequence of numbers", lambda v: _markov((v, FLIP.rows[1])), id="Markov-row"),
    pytest.param("transition must be a sequence of rows", lambda v: _hmm(v, ((0.5, 0.5),)), id="HMM-transition"),
    pytest.param("emission must be a sequence of rows", lambda v: _hmm(((1.0,),), v), id="HMM-emission"),
    pytest.param("values must be a sequence of numbers", lambda v: PayoffFunction(BINARY, v), id="Payoff-table"),
    pytest.param("epsilons must be a sequence of numbers", _epsilons, id="epsilons"),
]


@pytest.mark.parametrize("value", ["1", True, 10**400, math.nan], ids=["string", "bool", "huge-int", "nan"])
@pytest.mark.parametrize("message, call", NUMBER_ARGUMENTS)
def test_number_arguments_refuse_strings_bools_and_non_finite(message, call, value):
    # a payoff took ("1", True) as (1.0, 1.0), LogK and LinearJ kept True, 10**400 raised OverflowError,
    # "0.5" a bare TypeError, and a scalar table "'int' object is not iterable"
    with pytest.raises(ValueError, match=re.escape(f"{message}, got {value!r}")):
        call(value)


def test_horizon_past_the_float_range_is_refused_with_a_payoff():
    # 2 * max|v| * (horizon + 1) raised OverflowError: int too large to convert to float; no draw is that long
    with pytest.raises(ValueError, match=re.escape(f"horizon must be <= {_MAX_HORIZON}, got {10**400}")):
        ExperimentConfig(spec=COIN, horizon=10**400, replicates=1, payoff=IND1).resolved()
