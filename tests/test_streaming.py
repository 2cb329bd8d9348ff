import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nextsym import (
    Alphabet,
    CapacityError,
    PayoffFunction,
    Schedules,
    StreamingEstimator,
    SymbolSequence,
    estimate,
    estimate_distribution,
    recurrence_times,
)
from nextsym.estimator import ConstantSchedule, probe


def fed(alphabet, values, schedules=None, horizon=None):
    est = StreamingEstimator(alphabet, schedules, horizon=horizon or max(1, len(values)))
    for v in values:
        est.push(v)
    return est


class TestPush:
    def test_single_symbol_records_nothing(self, binary):
        est = fed(binary, [1])
        assert est.stored_keys() == 0

    def test_invalid_symbol(self, binary):
        est = StreamingEstimator(binary, horizon=4)
        with pytest.raises(ValueError):
            est.push(2)
        with pytest.raises(ValueError):
            est.push(-1)
        # a rejected push changes nothing: no symbol, no count, no key
        for v in [0, 1, 0]:
            est.push(v)
        before = (len(est.seq), est.stored_keys(), est.op_count, est.probe())
        for bad in (2, -1):
            with pytest.raises(ValueError, match=f"symbol index {bad} outside alphabet of size 2"):
                est.push(bad)
            assert (len(est.seq), est.stored_keys(), est.op_count, est.probe()) == before

    def test_capacity_error_past_horizon(self, binary):
        est = StreamingEstimator(binary, horizon=2)
        for v in [0, 1, 0]:
            est.push(v)  # positions 0..2
        with pytest.raises(CapacityError):
            est.push(1)

    def test_schedule_exceeding_cap_is_loud(self, binary):
        # K jumps above its value at the construction horizon
        sch = Schedules(K=lambda n: 1 if n < 4 else 5, J=lambda n: 1)
        est = StreamingEstimator(binary, sch, horizon=8)
        assert est.k_max == 5
        # non-monotone K exceeding its value at the horizon must fail loudly
        sch_bad = Schedules(K=lambda n: 6 if n == 2 else 1, J=lambda n: 1)
        est_bad = StreamingEstimator(binary, sch_bad, horizon=3)
        for v in [0, 1, 0]:
            est_bad.push(v)
        with pytest.raises(CapacityError):
            est_bad.probe()

    def test_cap_past_the_segment_is_clipped(self, binary):
        # K = 10^5 at horizon 100: no block is longer than the 101-symbol segment
        sch = Schedules(K=ConstantSchedule(10**5), J=lambda n: 1)
        est = StreamingEstimator(binary, sch, horizon=100)
        assert est.k_max == 101
        data = np.random.default_rng(3).integers(0, 2, 101).tolist()
        seq = SymbolSequence(binary, data)
        for n, x in enumerate(data):
            est.push(x)
            assert est.probe() == probe(seq, n, sch), n


class TestQueries:
    def test_current_estimate_spec_example(self, binary):
        g = PayoffFunction.indicator(binary, "1")
        est = fed(binary, [0, 1, 0, 1, 0])
        r = est.current_estimate(g)
        assert (r.value, r.context_len, r.matches, r.abstained) == (1.0, 1, 2, False)

    def test_abstains_on_short_or_novel_input(self, binary):
        g = PayoffFunction.indicator(binary, "1")
        assert fed(binary, [0, 1]).current_estimate(g).abstained
        assert fed(binary, [0]).current_estimate(g).abstained
        empty = StreamingEstimator(binary, horizon=2)
        assert empty.current_estimate(g).abstained
        assert empty.current_distribution().abstained

    def test_current_distribution_examples(self, binary):
        d = fed(binary, [0, 1, 0, 1, 0]).current_distribution()
        assert (d.probs, d.context_len, d.matches) == ((0.0, 1.0), 1, 2)
        d = fed(binary, [0, 0, 0]).current_distribution()
        assert (d.probs, d.context_len, d.matches) == ((1.0, 0.0), 1, 2)
        d = fed(binary, [0, 1]).current_distribution()
        assert d.abstained and d.probs == (0.0, 0.0)
        dc = fed(binary, [0] * 11).current_distribution()
        assert dc.probs == (1.0, 0.0) and dc.matches == 10


class TestEquivalence:
    def equivalence_run(self, size, data, schedules):
        alphabet = Alphabet.of_size(size)
        seq = SymbolSequence(alphabet, data)
        payoff = PayoffFunction(alphabet, tuple((x + 1.0) / (x + 2.0) for x in range(size)))
        est = StreamingEstimator(alphabet, schedules, horizon=max(1, len(data) - 1))
        for n, x in enumerate(data):
            est.push(x)
            assert est.current_distribution() == estimate_distribution(seq, n, schedules)
            assert est.current_estimate(payoff) == estimate(seq, n, payoff, schedules)

    def test_exact_equivalence_random_aggressive_schedules(self):
        # aggressive K exercises multi-length indexing that the paper-default
        # schedules only reach at astronomical n
        rng = np.random.default_rng(12)
        sch = Schedules(K=lambda n: max(1, n.bit_length() // 2), J=lambda n: max(1, int(n**0.5)))
        for _ in range(60):
            size = int(rng.integers(2, 5))
            data = rng.integers(0, size, int(rng.integers(1, 160))).tolist()
            self.equivalence_run(size, data, sch)

    def test_exact_equivalence_ten_thousand_bits_all_prefixes(self, default_schedules):
        rng = np.random.default_rng(13)
        data = rng.integers(0, 2, 10_000).tolist()
        self.equivalence_run(2, data, default_schedules)

    @given(data=st.lists(st.integers(0, 1), min_size=1, max_size=60))
    @settings(max_examples=150, deadline=None)
    def test_exact_equivalence_hypothesis(self, data):
        sch = Schedules(K=lambda n: 3, J=lambda n: 2)
        self.equivalence_run(2, data, sch)


class TestResourceContracts:
    def test_op_count_linear_in_pushes(self, binary):
        sch = Schedules(K=lambda n: 4, J=lambda n: 2)
        est = StreamingEstimator(binary, sch, horizon=5000)
        rng = np.random.default_rng(14)
        n_pushes = 5000
        for x in rng.integers(0, 2, n_pushes).tolist():
            est.push(x)
        assert est.k_max == 4
        assert est.op_count <= 2 * n_pushes * est.k_max

    @pytest.mark.parametrize("k_max", [1, 2, 5])
    def test_op_count_is_the_per_push_sum(self, binary, k_max):
        # the m-th push (from 0) credits min(m, k_max) blocks and rolls k_max codes
        est = StreamingEstimator(binary, Schedules(K=ConstantSchedule(k_max), J=lambda n: 1), horizon=20)
        assert est.k_max == k_max and est.op_count == 0
        for m, x in enumerate(np.random.default_rng(k_max).integers(0, 2, 12).tolist()):
            est.push(x)
            assert est.op_count == sum(min(i, k_max) + k_max for i in range(m + 1)), m

    def test_memory_bound_on_stored_keys(self):
        alphabet = Alphabet.of_size(3)
        sch = Schedules(K=lambda n: 5, J=lambda n: 2)
        est = StreamingEstimator(alphabet, sch, horizon=2000)
        rng = np.random.default_rng(15)
        n_pushes = 2000
        for x in rng.integers(0, 3, n_pushes).tolist():
            est.push(x)
        bound = sum(min(3**k, n_pushes) for k in range(1, est.k_max + 1))
        assert est.stored_keys() <= bound

    def test_owned_sequence_matches_pushes(self, binary):
        est = fed(binary, [0, 1, 1, 0])
        assert list(est.seq) == [0, 1, 1, 0]

    def test_count_identity_for_current_suffix(self):
        # with J = 1 the probe reports the current suffix of length min(k, n+1)
        # whenever it recurred, with the scanning match count
        rng = np.random.default_rng(16)
        alphabet = Alphabet.of_size(3)
        data = rng.integers(0, 3, 400).tolist()
        seq = SymbolSequence(alphabet, data)
        for k in range(1, 5):
            est = StreamingEstimator(alphabet, Schedules(K=lambda n, k=k: k, J=lambda n: 1), horizon=400)
            for n, x in enumerate(data):
                est.push(x)
                if n == 0:
                    continue
                length = min(k, n + 1)
                count = len(recurrence_times(seq, n, length))
                hit = est.probe()
                if count > 0:
                    assert hit[:2] == (length, count)
                else:
                    assert hit is None or hit[0] < length
