import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nextsym import (
    Alphabet,
    PayoffFunction,
    Schedules,
    SymbolSequence,
    estimate,
    estimate_distribution,
    payoff_means,
    recurrence_times,
    verify_equivalence,
)
from nextsym import estimator, kernel, verify
from nextsym.estimator import ConstantSchedule, LogK, SqrtJ, _scan, probe
from nextsym.streaming import StreamingEstimator
from conftest import brute_count, brute_histogram, brute_kappa, brute_times


def seq_of(alphabet, values):
    return SymbolSequence(alphabet, values)


class TestRecurrenceTimes:
    def test_spec_examples(self, binary):
        s = seq_of(binary, [0, 1, 0, 1, 0])
        assert recurrence_times(s, 4, 1) == [2, 4]
        assert recurrence_times(s, 4, 2) == [2]
        s2 = seq_of(binary, [0, 0, 0, 0])
        assert recurrence_times(s2, 3, 1) == [1, 2, 3]

    def test_domain_errors(self, binary):
        s = seq_of(binary, [0, 1])
        with pytest.raises(ValueError):
            recurrence_times(s, 1, 3)
        with pytest.raises(ValueError):
            recurrence_times(s, 1, 0)
        with pytest.raises(ValueError):
            recurrence_times(s, 5, 1)

    @given(
        data=st.lists(st.integers(0, 2), min_size=1, max_size=40),
        k=st.integers(1, 6),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_oracle(self, data, k):
        n = len(data) - 1
        if k > n + 1:
            k = n + 1
        alphabet = Alphabet("012")
        s = seq_of(alphabet, data)
        assert recurrence_times(s, n, k) == brute_times(data, n, k)

    @given(
        length=st.integers(1, 200),
        p_zero=st.sampled_from([0.5, 0.9, 0.98]),
        seed=st.integers(0, 2**32 - 1),
        at=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_every_position_and_length_matches_brute_oracle(self, length, p_zero, seed, at):
        # skewed binary data recurs in long runs.  Every position is compared at one length, so
        # the positions before the end check that no window reads past X_n, and every length
        # from 1 to n + 1 is compared at one position
        data = np.random.default_rng(seed).choice(2, length, p=[p_zero, 1 - p_zero]).tolist()
        s = seq_of(Alphabet("01"), data)
        k = at.draw(st.integers(1, 16))
        for n in range(length):
            assert recurrence_times(s, n, min(k, n + 1)) == brute_times(data, n, min(k, n + 1))
        n = at.draw(st.integers(0, length - 1))
        for k in range(1, n + 2):
            assert recurrence_times(s, n, k) == brute_times(data, n, k)


class TestKappaLambda:
    def test_kappa_spec_examples(self, binary, default_schedules):
        # default schedules give exactly K=1, J=2 at n=4 and K=1, J=1 at n=1
        assert probe(seq_of(binary, [0, 1, 0, 1, 0]), 4, default_schedules)[0] == 1
        assert probe(seq_of(binary, [0, 1]), 1, default_schedules) is None
        assert probe(seq_of(binary, [0] * 11), 10, default_schedules)[0] == 1

    def test_lambda_spec_examples(self, binary):
        assert len(recurrence_times(seq_of(binary, [0, 1, 0, 1, 0]), 4, 1)) == 2
        assert len(recurrence_times(seq_of(binary, [0] * 11), 10, 1)) == 10
        assert len(recurrence_times(seq_of(binary, [0, 1]), 1, 1)) == 0

    def test_zero_threshold_still_needs_one_occurrence(self, binary):
        # J(n) = 0 is read as max(J(n), 1), as the streaming index and the kernel read it
        sch = Schedules(K=ConstantSchedule(3), J=lambda n: 0)
        s = seq_of(binary, [0, 1, 1, 0, 1])
        assert probe(s, 4, sch) == (2, 1, [0, 1])
        assert estimate_distribution(s, 4, sch).probs == (0.0, 1.0)
        assert estimate_distribution(seq_of(binary, [0, 1]), 1, sch).abstained
        assert verify_equivalence(cases=20, max_n=60, seed=4, schedules_for=lambda size: sch).ok
        # K(n) = 0 leaves no context length to try: every route abstains
        no_context = Schedules(K=ConstantSchedule(0), J=lambda n: 0)
        assert probe(s, 4, no_context) is None
        index = StreamingEstimator(binary, no_context, horizon=4)
        for x in [0, 1, 1, 0, 1]:
            index.push(x)
        assert index.probe() is None
        (part,) = kernel.replay(s.as_array(), 2, no_context)
        assert not part.kappa.any() and not part.matches.any() and not part.hist.any()
        assert verify_equivalence(cases=20, max_n=60, seed=4, schedules_for=lambda size: no_context).ok

    @pytest.mark.parametrize(
        "K, J", [(ConstantSchedule(3), lambda n: 2**70), (lambda n: 2**70, ConstantSchedule(1))], ids=["J", "K"]
    )
    def test_schedules_past_int64_agree_on_every_route(self, K, J):
        assert verify_equivalence(cases=3, max_n=60, schedules_for=lambda size: Schedules(K, J)).ok

    def test_threshold_property(self):
        # kappa > 0 implies at least J(n) matches of the selected block
        rng = np.random.default_rng(7)
        sch = Schedules(K=lambda n: 4, J=lambda n: max(1, n // 8))
        alphabet = Alphabet("01")
        for _ in range(300):
            data = rng.integers(0, 2, int(rng.integers(2, 50))).tolist()
            s = seq_of(alphabet, data)
            n = len(data) - 1
            hit = probe(s, n, sch)
            if hit is not None:
                assert len(recurrence_times(s, n, hit[0])) == hit[1] >= sch.J(n)

    def test_probe_kappa_matches_brute_oracle(self):
        rng = np.random.default_rng(12)
        sch = Schedules(K=lambda n: max(1, n.bit_length() // 2), J=lambda n: max(1, int(n**0.5)))
        alphabet = Alphabet("012")
        hits = 0
        for _ in range(200):
            data = rng.integers(0, 3, int(rng.integers(2, 60))).tolist()
            n = len(data) - 1
            hit = probe(seq_of(alphabet, data), n, sch)
            assert (hit[0] if hit else 0) == brute_kappa(data, n, sch.K(n), sch.J(n))
            hits += hit is not None
        assert 0 < hits < 200

    def test_suffix_dominance(self):
        rng = np.random.default_rng(8)
        alphabet = Alphabet("012")
        for _ in range(300):
            data = rng.integers(0, 3, int(rng.integers(2, 40))).tolist()
            s = seq_of(alphabet, data)
            n = len(data) - 1
            counts = [len(recurrence_times(s, n, k)) for k in range(1, n + 2)]
            assert counts == sorted(counts, reverse=True)


def _block_scan(data: list, size: int, schedules: Schedules, rows: int) -> tuple:
    """The block scan at every prefix of ``data``, ``rows`` prefixes per call:
    kappa, matches and histograms as lists indexed by n."""
    arr = np.array(data, np.uint8)
    ns = np.arange(len(data))
    caps = np.array([0] + [min(schedules.K(n), n + 1) for n in range(1, len(data))])
    needs = np.array([1] + [max(schedules.J(n), 1) for n in range(1, len(data))])
    kappa, matches, hist = [], [], []
    for lo in range(0, len(data), rows):
        block = ns[lo : lo + rows]
        k, m, h = _scan(arr, block, caps[block], needs[block], size)
        kappa, matches, hist = kappa + k.tolist(), matches + m.tolist(), hist + h.tolist()
    return kappa, matches, hist


_SCAN_SCHEDULES = {
    "default": Schedules.default,
    "log 0.5, sqrt": lambda size: Schedules(K=LogK(size, 0.5), J=SqrtJ()),
    "constant 6, 2": lambda size: Schedules(K=ConstantSchedule(6), J=ConstantSchedule(2)),
}


@settings(max_examples=60, deadline=None)
@given(
    size=st.integers(2, 4),
    length=st.integers(1, 80),
    which=st.sampled_from(sorted(_SCAN_SCHEDULES)),
    seed=st.integers(0, 2**32 - 1),
    skew=st.booleans(),
)
def test_block_scan_matches_brute_oracles(size, length, which, seed, skew):
    rng = np.random.default_rng(seed)
    probs = np.array([8.0] + [1.0] * (size - 1)) if skew else np.ones(size)
    data = rng.choice(size, length, p=probs / probs.sum()).tolist()
    sch = _SCAN_SCHEDULES[which](size)
    whole = _block_scan(data, size, sch, length)
    for rows in (1, 7, 64):
        assert _block_scan(data, size, sch, rows) == whole
    for n, (kappa, matches, hist) in enumerate(zip(*whole)):
        k = brute_kappa(data, n, min(sch.K(n), n + 1), max(sch.J(n), 1)) if n else 0
        assert kappa == k
        assert hist == (brute_histogram(data, n, k, size) if k else [0] * size) and matches == sum(hist)


@pytest.mark.parametrize("rows", [1, 2, 5])
def test_block_scan_edge_rows(rows):
    # n = 0 abstains, J(n) = 0 still needs one occurrence, and K(n) = 0 leaves no length to try
    kappa, matches, hist = _block_scan([0, 1, 1, 0, 1], 2, Schedules(K=ConstantSchedule(3), J=lambda n: 0), rows)
    assert (kappa[0], matches[0], hist[0]) == (0, 0, [0, 0])
    assert (kappa[4], matches[4], hist[4]) == (2, 1, [0, 1])
    kappa, matches, hist = _block_scan([0, 1, 1, 0, 1], 2, Schedules(K=ConstantSchedule(0), J=lambda n: 0), rows)
    assert kappa == matches == [0] * 5 and hist == [[0, 0]] * 5


@pytest.mark.parametrize("which", sorted(_SCAN_SCHEDULES))
def test_float32_product_equals_float64(monkeypatch, which):
    # a skewed 700-symbol sequence scanned whole, in a 300-row block and in one-row calls: the
    # float32 product gives the same kappa, counts and histograms as the float64 one
    rng = np.random.default_rng(12)
    arr = rng.choice(3, 700, p=[0.8, 0.1, 0.1]).astype(np.uint8)
    sch = _SCAN_SCHEDULES[which](3)
    ns = np.arange(len(arr))
    caps, needs = kernel._caps(sch, 0, len(arr)), kernel._thresholds(sch, 0, len(arr))
    blocks = [ns, ns[:1], ns[350:351], ns[-1:], ns[100:400]]

    def scans():
        out = []
        for block in blocks:
            out.append([field.tolist() for field in _scan(arr, block, caps[block], needs[block], 3)])
        return out

    narrow = scans()
    monkeypatch.setattr(estimator, "_FLOAT32_COLS", 0)
    assert scans() == narrow


def test_block_scan_histograms_across_slabs():
    # one call over every prefix of a skewed 700-symbol sequence: the group of the frequent symbol
    # keeps at least the ends its rows match, so its mask spans many slabs of the histogram
    # product, and every row still equals the brute histogram and the one-row call
    rng = np.random.default_rng(11)
    data = rng.choice(3, 700, p=[0.8, 0.1, 0.1]).tolist()
    seq = seq_of(Alphabet("012"), data)
    for sch in (Schedules.default(3), Schedules(K=ConstantSchedule(6), J=ConstantSchedule(2))):
        whole = _block_scan(data, 3, sch, len(data))
        rows = [n for n, x in enumerate(data) if x == 0]
        width = len({n - t for n in rows if whole[0][n] for t in recurrence_times(seq, n, whole[0][n])})
        assert len(rows) * width > 8 * estimator._SLAB_CELLS
        assert _block_scan(data, 3, sch, 1) == whole
        for n, (k, hist) in enumerate(zip(whole[0], whole[2])):
            assert hist == (brute_histogram(data, n, k, 3) if k else [0, 0, 0])


def test_block_scan_memory_is_bounded_per_slab():
    # one row block of the verify suite's size over a skewed 2,000-symbol sequence: the float32
    # product copies at most a slab of the mask at a time.  Peaks measured on seeds 0-3 were
    # 0.60-0.61 MiB with the float64 product and 0.54-0.55 MiB with the float32 one (a float64
    # product over the whole mask read 3.7 MiB); the limit leaves a 65% margin or more.
    rng = np.random.default_rng(4)
    arr = rng.choice(2, 2000, p=[0.9, 0.1]).astype(np.uint8)
    sch = Schedules.default(2)
    block = np.arange(2000 - verify._BLOCK_CELLS // 2000, 2000)
    caps, needs = kernel._caps(sch, 0, 2000)[block], kernel._thresholds(sch, 0, 2000)[block]
    tracemalloc.start()
    try:
        _scan(arr, block, caps, needs, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


class TestEstimate:
    def test_spec_examples(self, binary, default_schedules):
        g1 = PayoffFunction.indicator(binary, "1")
        r = estimate(seq_of(binary, [0, 1, 0, 1, 0]), 4, g1, default_schedules)
        assert (r.value, r.context_len, r.matches, r.abstained) == (1.0, 1, 2, False)

        r0 = estimate(seq_of(binary, [0, 1]), 1, g1, default_schedules)
        assert r0.abstained and r0.value == 0.0 and r0.context_len == 0 and r0.matches == 0

        g0 = PayoffFunction.indicator(binary, "0")
        rc = estimate(seq_of(binary, [0] * 11), 10, g0, default_schedules)
        assert (rc.value, rc.context_len, rc.matches) == (1.0, 1, 10)

    def test_n_zero_abstains(self, binary, default_schedules):
        g = PayoffFunction(binary, (3.5, 3.5))
        r = estimate(seq_of(binary, [1]), 0, g, default_schedules)
        assert r.abstained and r.value == 0.0

    def test_distribution_spec_examples(self, binary, default_schedules):
        d = estimate_distribution(seq_of(binary, [0, 1, 0, 1, 0]), 4, default_schedules)
        assert d.probs == (0.0, 1.0)
        d0 = estimate_distribution(seq_of(binary, [0, 1]), 1, default_schedules)
        assert d0.abstained and d0.probs == (0.0, 0.0)
        # derived via the brute oracle: successors of the six prior 0s split 3/3
        data = [0, 0, 1, 0, 0, 1, 0, 0, 1, 0]
        assert brute_histogram(data, 9, 1, 2) == [3, 3]
        d3 = estimate_distribution(seq_of(binary, data), 9, default_schedules)
        assert d3.probs == (0.5, 0.5) and d3.matches == 6 and d3.context_len == 1

    def test_value_range_and_distribution_normalization(self):
        rng = np.random.default_rng(9)
        alphabet = Alphabet("0123")
        sch = Schedules(K=lambda n: 3, J=lambda n: 2)
        for _ in range(300):
            data = rng.integers(0, 4, int(rng.integers(2, 60))).tolist()
            vals = tuple(rng.normal(size=4).tolist())
            g = PayoffFunction(alphabet, vals)
            s = seq_of(alphabet, data)
            n = len(data) - 1
            r = estimate(s, n, g, sch)
            if not r.abstained:
                assert min(g.values) <= r.value <= max(g.values)
            d = estimate_distribution(s, n, sch)
            if not d.abstained:
                assert all(p >= 0 for p in d.probs)
                assert abs(sum(d.probs) - 1.0) <= 1e-12

    def test_determinism_same_prefix(self, binary, default_schedules):
        g = PayoffFunction.indicator(binary, "1")
        a = seq_of(binary, [0, 1, 1, 0, 1, 0, 0, 1])
        b = seq_of(binary, [0, 1, 1, 0, 1, 0, 0, 1, 1, 1])  # differs after n
        assert estimate(a, 7, g, default_schedules) == estimate(b, 7, g, default_schedules)

    def test_against_brute_oracle_with_aggressive_schedules(self):
        rng = np.random.default_rng(10)
        sch = Schedules(K=lambda n: max(1, n.bit_length() // 2), J=lambda n: max(1, int(n**0.5)))
        for _ in range(200):
            size = int(rng.integers(2, 5))
            alphabet = Alphabet.of_size(size)
            data = rng.integers(0, size, int(rng.integers(2, 80))).tolist()
            s = seq_of(alphabet, data)
            n = len(data) - 1
            hit = probe(s, n, sch)
            k = hit[0] if hit else 0
            assert k == brute_kappa(data, n, sch.K(n), sch.J(n))
            if k > 0:
                hist = brute_histogram(data, n, k, size)
                assert hit[1:] == (sum(hist), hist)
                g = PayoffFunction(alphabet, tuple((x + 1.0) / (x + 2.0) for x in range(size)))
                r = estimate(s, n, g, sch)
                assert r.value == payoff_means(np.array([hist]), g.values, np.array([sum(hist)]))[0]

    def test_payoff_means_rows_equal_a_sequential_float_sum(self):
        # each row is accumulated in alphabet order with Python floats, divided once, then clamped
        rng = np.random.default_rng(11)
        for _ in range(300):
            size = int(rng.integers(2, 6))
            values = tuple(float(v) for v in rng.choice([-1, 1], size) * 10.0 ** rng.uniform(-5, 5, size))
            hist = rng.integers(0, 4, (20, size)) * (rng.random((20, size)) < 0.6)
            matches = hist.sum(axis=1)
            got = payoff_means(hist, values, matches)
            for row, m, value in zip(hist.tolist(), matches.tolist(), got.tolist()):
                seen = [v for c, v in zip(row, values) if c]
                total = 0.0
                for c, v in zip(row, values):
                    if c:
                        total += c * v
                want = min(max(total / m, min(seen)), max(seen)) if m else 0.0
                assert value == want


class TestPayoffFunction:
    def test_indicator_and_table(self, binary):
        g = PayoffFunction.indicator(binary, "1")
        assert g.values == (0.0, 1.0)
        t = PayoffFunction.from_map(binary, {"0": -1, "1": 2.5})
        assert t.values == (-1.0, 2.5)

    def test_must_cover_alphabet(self, binary):
        with pytest.raises(ValueError):
            PayoffFunction.from_map(binary, {"0": 1.0})
        with pytest.raises(ValueError):
            PayoffFunction(binary, (1.0,))

    @pytest.mark.parametrize("values", [(float("nan"), 1.0), (1.0, float("inf")), (-float("inf"), 0.0)])
    def test_non_finite_values_rejected(self, binary, values):
        at = next(i for i, v in enumerate(values) if not math.isfinite(v))
        with pytest.raises(ValueError, match=re.escape(f"values[{at}] must be a finite number, got {values[at]!r}")):
            PayoffFunction(binary, values)


class TestSequences:
    def test_alphabet_validation(self):
        with pytest.raises(ValueError):
            Alphabet("0")
        with pytest.raises(ValueError):
            Alphabet("001")
        a = Alphabet("abc")
        assert a.encode("b") == 1 and a.symbols[2] == "c"
        with pytest.raises(ValueError):
            a.encode("z")

    def test_sequence_append_only_and_validation(self, binary):
        s = SymbolSequence(binary, [1, 0, 1])
        assert list(s) == [1, 0, 1] and len(s) == 3
        assert s[0:2] == (1, 0)
        with pytest.raises(ValueError):
            SymbolSequence(binary, [0, 3])
        assert not hasattr(s, "__setitem__")

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8])
    def test_integer_array_read_by_value(self, binary, dtype):
        # by value, not by raw bytes: the 3 values of an int64 array are 24 bytes
        s = SymbolSequence(binary, np.array([1, 0, 1], dtype=dtype))
        assert len(s) == 3 and list(s) == [1, 0, 1]
        assert type(s[0]) is int and all(type(x) is int for x in s)

    @pytest.mark.parametrize("values, bad, at", [([0, 1, -1], -1, 2), ([0, 2], 2, 1), ([1, 0, 300], 300, 2)])
    @pytest.mark.parametrize("wrap", [list, np.array])
    def test_index_outside_alphabet_named_with_its_position(self, binary, values, bad, at, wrap):
        with pytest.raises(ValueError, match=f"symbol index {bad} at position {at} outside alphabet"):
            SymbolSequence(binary, wrap(values))

    @pytest.mark.parametrize("values, at", [([True, False], 0), ((0, 1, False), 2)])
    def test_bool_symbol_named_with_its_position(self, binary, values, at):
        # [True, False] read as [1, 0]
        with pytest.raises(ValueError, match=f"symbol {values[at]} at position {at} is a bool"):
            SymbolSequence(binary, values)

    @pytest.mark.parametrize("values", [[1.0, 0.0], np.array([1.0, 0.0]), np.zeros((2, 2), np.int64)])
    def test_non_integer_values_rejected(self, binary, values):
        with pytest.raises(TypeError):
            SymbolSequence(binary, values)

    def test_as_array_is_one_shared_read_only_array(self, binary):
        s = SymbolSequence(binary, bytes([1, 0, 1]))
        arr = s.as_array()
        assert arr is s.as_array() and arr.dtype == np.uint8 and arr.tolist() == [1, 0, 1]
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0
        assert list(s) == [1, 0, 1]
