import math

import numpy as np
import pytest

from nextsym import (
    Alphabet,
    ExperimentConfig,
    IIDProcess,
    check_kappa_divergence,
    Schedules,
    SymbolSequence,
    run_experiment,
    schedule_J,
    verify_equivalence,
)
from nextsym.estimator import SCHEDULE_CAP, ConstantSchedule, LinearJ, LogK, probe
from nextsym.kernel import schedule_values
from nextsym.streaming import StreamingEstimator


def integer_log_floor(n: int, base: int) -> int:
    """floor(0.1 * log_base(n)) by pure integer bracketing."""
    m = 0
    while base ** (10 * (m + 1)) <= n:
        m += 1
    return m


class TestScheduleK:
    def test_examples(self):
        K = Schedules.default(2).K
        assert K(1024) == 1
        assert K(2**20) == 2
        assert K(2**30) == 3
        assert K(5) == 1

    @pytest.mark.parametrize("base", [2, 3, 4])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_exact_power_boundaries(self, base, m):
        n = base ** (10 * m)
        assert LogK(base, 0.1)(n) == m
        assert LogK(base, 0.1)(n - 1) == max(1, m - 1)
        assert LogK(base, 0.1)(n + 1) == m

    def test_matches_integer_oracle_on_random_inputs(self):
        rng = np.random.default_rng(1)
        for _ in range(2000):
            base = int(rng.integers(2, 5))
            n = int(rng.integers(1, 10**9))
            assert LogK(base, 0.1)(n) == max(1, integer_log_floor(n, base))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            Schedules.default(2).K(0)
        with pytest.raises(ValueError):
            Schedules.default(1)


class TestScheduleJ:
    def test_examples(self):
        assert schedule_J(1) == 1
        assert schedule_J(100) == 10
        assert schedule_J(101) == 11

    def test_is_exact_ceil_sqrt(self):
        import math

        for n in range(1, 5000):
            assert schedule_J(n) == max(1, math.ceil(math.sqrt(n)))
        for n in (10**10, 10**10 + 1, (10**6) ** 2, (10**6) ** 2 + 1):
            s = schedule_J(n)
            assert (s - 1) ** 2 < n <= s**2

    def test_domain_error(self):
        with pytest.raises(ValueError):
            schedule_J(0)


def test_defaults_nondecreasing_and_growing():
    sch = Schedules.default(2)
    grid = [1, 2, 7, 64, 1024, 2**15, 2**20, 2**25, 2**31, 2**40]
    ks = [sch.K(n) for n in grid]
    js = [sch.J(n) for n in grid]
    assert ks == sorted(ks)
    assert js == sorted(js)
    assert ks[-1] >= 4 and js[-1] >= 2**20  # heading to infinity
    ratios = [sch.J(n) / n for n in grid[3:]]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))  # J(n)/n -> 0


def test_default_K_wrapper_is_cached_step_function():
    sch = Schedules.default(2)
    ns = [1, 5, 1023, 1024, 2**18, 2**20 - 1, 2**20, 2**20 + 1, 2**25, 2**30]
    assert [sch.K(n) for n in ns] == [max(1, integer_log_floor(n, 2)) for n in ns]
    # out-of-order queries hit and refresh the bracket cache
    assert sch.K(2**30) == 3 and sch.K(17) == 1 and sch.K(2**21) == 2


class TestLogK:
    def test_exact_just_below_a_step(self):
        # a float log plus a small epsilon rounds both of these up to the next step
        sch = LogK(2, 0.5)
        assert sch(2**40 - 1) == 19 and sch(2**40) == 20
        assert sch(2**60 - 1) == 29 and sch(2**60) == 30
        assert LogK(2, 0.5).value(2**40 - 1) == 19

    def test_coefficient_read_in_decimal_form(self):
        # 0.3 = 3/10: K(n) >= m exactly when n^3 >= 3^(10 m)
        sch = LogK(3, 0.3)
        for m in range(2, 9):
            step = round(3 ** (10 * m / 3))
            while step**3 < 3 ** (10 * m):
                step += 1
            while (step - 1) ** 3 >= 3 ** (10 * m):
                step -= 1
            assert sch(step) == m and sch(step - 1) == m - 1
        # a repr in exponent form, 1e-05 and 2.5e-05, scales the denominator
        assert (LogK(3, 1e-05)._p, LogK(3, 1e-05)._q) == (1, 100000)
        assert (LogK(3, 2.5e-05)._p, LogK(3, 2.5e-05)._q) == (1, 40000)

    @pytest.mark.parametrize("coeff, p, q", [(0.1, 1, 10), (0.25, 1, 4), (0.37, 37, 100), (1.5, 3, 2), (2.0, 2, 1)])
    def test_matches_integer_definition(self, coeff, p, q):
        rng = np.random.default_rng(7)
        for _ in range(300):
            base = int(rng.integers(2, 6))
            n = int(rng.integers(1, 2**40))
            m = 1
            while n**p >= base ** ((m + 1) * q):
                m += 1
            assert LogK(base, coeff)(n) == m

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            LogK(1, 0.1)
        with pytest.raises(ValueError):
            LogK(2, 0.0)
        with pytest.raises(ValueError):
            LogK(2, float("nan"))
        with pytest.raises(ValueError):
            LogK(2, 0.1234567)  # numerator 1234567 in lowest terms

    def test_pickles_without_its_cache(self):
        import pickle

        sch = LogK(2, 0.25)
        sch(2**30)
        assert pickle.loads(pickle.dumps(sch)) == sch


SCHEDULES = {
    "log default": LogK(2, 0.1),
    "log 0.25 base 3": LogK(3, 0.25),
    "log 0.3": LogK(2, 0.3),
    "sqrt J": schedule_J,
    "constant": ConstantSchedule(5),
    "linear": LinearJ(0.37),
    "linear 1e19": LinearJ(1e19),  # past int64 from n = 1: saturates at SCHEDULE_CAP
    "linear 1e308": LinearJ(1e308),  # the float product itself overflows to inf
    "callable": lambda n: n % 7 + 1,
}


@pytest.mark.parametrize("name", sorted(SCHEDULES))
@pytest.mark.parametrize(
    "lo, hi", [(1, 3000), (2**20 - 50, 2**20 + 50), (3**10 - 9, 3**10 + 9), (10**12, 10**12 + 40), (5, 5)]
)
def test_schedule_values_equal_scalar_calls(name, lo, hi):
    fn = SCHEDULES[name]
    assert schedule_values(fn, lo, hi).tolist() == [fn(n) for n in range(lo, hi)]


def test_callable_values_saturate_past_int64():
    # a schedule without a values method is called per n and saturates as LinearJ does
    assert schedule_values(lambda n: 2**70, 1, 4).tolist() == [SCHEDULE_CAP] * 3


def test_sqrt_values_exact_at_squares():
    squares = [(10**6) ** 2, (2**26 + 1) ** 2, (3**15) ** 2]
    for sq in squares:
        assert schedule_values(schedule_J, sq - 2, sq + 3).tolist() == [schedule_J(n) for n in range(sq - 2, sq + 3)]


class TestNonIntegerValuesRefused:
    """A schedule value that is no integer raises on every route, so no route
    truncates it while another compares it as a float."""

    def test_constant_schedule(self):
        with pytest.raises(ValueError, match="ConstantSchedule value must be an integer, got 2.5"):
            ConstantSchedule(2.5)
        assert type(ConstantSchedule(np.int64(3)).value) is int

    def test_per_call_fallback_checks_every_n(self):
        with pytest.raises(ValueError, match="gave 1.5 at n=3"):
            schedule_values(lambda n: 1.5 if n == 3 else 1, 1, 10)
        assert schedule_values(lambda n: np.int64(n), 1, 4).tolist() == [1, 2, 3]

    def test_probe(self):
        seq = SymbolSequence(Alphabet.of_size(2), [0, 1] * 6)
        with pytest.raises(ValueError, match="gave 2.5 at n=10"):
            probe(seq, 10, Schedules(K=lambda n: 2.5, J=lambda n: 1))
        with pytest.raises(ValueError, match="at n=10"):
            probe(seq, 10, Schedules(K=lambda n: 2, J=math.sqrt))
        assert probe(seq, 10, Schedules(K=lambda n: np.int64(2), J=lambda n: np.uint8(1)))[0] == 2

    @pytest.mark.parametrize("K, J", [(lambda n: math.log2(n + 1), schedule_J), (lambda n: 2, math.sqrt)])
    def test_streaming_checks_at_the_horizon(self, K, J):
        with pytest.raises(ValueError, match="at n=100"):
            StreamingEstimator(Alphabet.of_size(2), Schedules(K=K, J=J), horizon=100)

    def test_verify_and_run_experiment(self):
        sqrt_j = Schedules(K=LogK(2, 0.1), J=math.sqrt)
        with pytest.raises(ValueError, match="not an integer"):
            verify_equivalence(cases=5, max_n=300, seed=1, schedules_for=lambda size: sqrt_j)
        cfg = ExperimentConfig(spec=IIDProcess(Alphabet("01"), (0.5, 0.5)), horizon=50, replicates=1, schedules=sqrt_j)
        with pytest.raises(ValueError, match="not an integer"):
            run_experiment(cfg)

    def test_kappa_divergence(self):
        coin = IIDProcess(Alphabet("01"), (0.5, 0.5))
        with pytest.raises(ValueError, match="gave 2.5 at n=16"):
            check_kappa_divergence(coin, 300, 3, Schedules(K=lambda n: 2.5, J=schedule_J))
        with pytest.raises(ValueError, match="gave 1.5 at n=16"):
            check_kappa_divergence(coin, 300, 3, Schedules(K=LogK(2, 0.25), J=lambda n: 1.5))
