import dataclasses
import itertools
import math
import subprocess
import sys
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nextsym import (
    Alphabet,
    HiddenMarkovProcess,
    IIDProcess,
    MarkovProcess,
    Oracle,
    generate,
    processes,
    stationary_block_law,
)

BINARY = Alphabet("01")
FLIP = MarkovProcess(BINARY, 1, ((0.7, 0.3), (0.3, 0.7)))
ORDER2 = MarkovProcess(BINARY, 2, ((0.9, 0.1), (0.6, 0.4), (0.4, 0.6), (0.1, 0.9)))
HMM2 = HiddenMarkovProcess(BINARY, ((0.95, 0.05), (0.10, 0.90)), ((0.9, 0.1), (0.2, 0.8)))


def exact_stationary(P):
    """Independent oracle: Gauss-Jordan elimination in exact fractions on the
    balance equations pi (P - I) = 0 with the last one replaced by sum(pi) = 1,
    rounded to floats at the end."""
    n = len(P)
    M = [[Fraction(float(P[j][i])) - (i == j) for j in range(n)] + [Fraction(0)] for i in range(n - 1)]
    M.append([Fraction(1)] * (n + 1))
    for col in range(n):
        pivot = next(r for r in range(col, n) if M[r][col] != 0)
        M[col], M[pivot] = M[pivot], M[col]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col] / M[col][col]
                M[r] = [a - f * b for a, b in zip(M[r], M[col])]
    return np.array([float(M[i][n] / M[i][i]) for i in range(n)])


def context_matrix(spec):
    """The order-k chain on contexts: context c moves to (c * |A| + b) mod |A|^k with probability rows[c][b]."""
    size, n_ctx = spec.alphabet.size, len(spec.rows)
    Q = np.zeros((n_ctx, n_ctx))
    for c, row in enumerate(spec.rows):
        for b, p in enumerate(row):
            Q[c, (c * size + b) % n_ctx] += p
    return Q


def chain_and_hmm(P):
    """An order-1 chain with transition P and an identity-emission HMM with hidden chain P."""
    alphabet = Alphabet.of_size(len(P))
    identity = tuple(tuple(float(i == j) for j in range(len(P))) for i in range(len(P)))
    return MarkovProcess(alphabet, 1, P), HiddenMarkovProcess(alphabet, P, identity)


def replay(spec, history):
    """P(X_{n+1} = . | X_0..X_n) for the whole history, from a fresh cursor."""
    cursor = Oracle(spec).cursor()
    for x in history:
        cursor.observe(x)
    return cursor.conditional()


def hmm_path_sum_block_law(spec, length):
    """Sum over every hidden path: P(X_0..X_{length-1} = block) for every
    block code, from the spec's own stationary hidden law."""
    A = np.array(spec.transition)
    E = np.array(spec.emission)
    paths = np.array(list(itertools.product(range(len(A)), repeat=length)))
    law = []
    for block in itertools.product(range(spec.alphabet.size), repeat=length):  # codes in ascending order
        p = spec._hidden_law[paths[:, 0]] * E[paths[:, 0], block[0]]
        for i in range(1, length):
            p = p * A[paths[:, i - 1], paths[:, i]] * E[paths[:, i], block[i]]
        law.append(p.sum())
    return np.array(law)


def random_stochastic(rng, n_rows, width):
    """Rows with roughly a third of their entries zero, never a whole row."""
    rows = rng.random((n_rows, width)) * (rng.random((n_rows, width)) > 0.35)
    rows[np.arange(n_rows), rng.integers(0, width, n_rows)] += 0.1
    return tuple(tuple(row / row.sum()) for row in rows)


def positive_stochastic(rng, n_rows, width):
    """Rows with every entry at least about 0.01 / width: the chain mixes fast."""
    rows = rng.dirichlet(np.ones(width), size=n_rows) + 0.01
    return rows / rows.sum(axis=1, keepdims=True)


def cumulative(row):
    acc, out = 0.0, []
    for v in row:
        acc += v
        out.append(acc)
    out[-1] = 1.0
    return out


def reference_draw(spec, seed, horizon):
    """The draw written out symbol by symbol: per-symbol loops over
    cumulative rows and clamped searchsorted picks, all uniforms at once."""
    rng = np.random.Generator(np.random.PCG64(seed))
    n_sym, size = horizon + 1, spec.alphabet.size

    def pick(law):
        return min(int(np.searchsorted(np.cumsum(law), rng.random(), side="right")), len(law) - 1)

    def inverse(row, u):
        x = 0
        while u >= row[x]:
            x += 1
        return x

    if isinstance(spec, IIDProcess):
        draws = np.searchsorted(np.cumsum(spec.probs), rng.random(n_sym), side="right")
        return np.minimum(draws, size - 1).astype(np.uint8).tobytes()
    if isinstance(spec, MarkovProcess):
        k = spec.order
        state = pick(spec._context_law)
        data = bytearray(state // size ** (k - 1 - i) % size for i in range(k))[:n_sym]
        rows = [cumulative(row) for row in spec.rows]
        for u in rng.random(max(n_sym - k, 0)).tolist():
            data.append(inverse(rows[state], u))
            state = (state % size ** (k - 1)) * size + data[-1]
        return bytes(data)
    trans = [cumulative(row) for row in spec.transition]
    emit = [cumulative(row) for row in spec.emission]
    s = pick(spec._hidden_law)
    us = rng.random(2 * n_sym).tolist()
    data = bytearray()
    for i in range(n_sym):
        data.append(inverse(emit[s], us[2 * i]))
        s = inverse(trans[s], us[2 * i + 1])
    return bytes(data)


def nudged(rng, rows):
    """Rows with about half of them moved off a unit sum by 1e-13 either way."""
    out = [list(row) for row in rows]
    for row in out:
        if rng.random() < 0.5:
            row[int(np.argmax(row))] += float(rng.choice([-1e-13, 1e-13]))
    return tuple(map(tuple, out))


def random_specs(rng, count):
    """IID, Markov (orders 1-3) and HMM (1-5 hidden states) specs with zero
    entries and nudged rows, plus one HMM with 300 hidden states."""
    specs = []
    while len(specs) < count:
        size = int(rng.integers(2, 5))
        alphabet = Alphabet.of_size(size)
        kind = len(specs) % 3
        try:
            if kind == 0:
                specs.append(IIDProcess(alphabet, nudged(rng, random_stochastic(rng, 1, size))[0]))
            elif kind == 1:
                order = int(rng.integers(1, 4))
                specs.append(MarkovProcess(alphabet, order, nudged(rng, random_stochastic(rng, size**order, size))))
            else:
                states = int(rng.integers(1, 6))
                trans = nudged(rng, random_stochastic(rng, states, states))
                specs.append(HiddenMarkovProcess(alphabet, trans, nudged(rng, random_stochastic(rng, states, size))))
        except ValueError:  # reducible or periodic: draw again
            pass
    trans = nudged(rng, random_stochastic(rng, 300, 300))
    specs.append(HiddenMarkovProcess(Alphabet.of_size(3), trans, nudged(rng, random_stochastic(rng, 300, 3))))
    return specs


def hmm_path_sum_conditional(spec, history):
    """Exponential enumeration over hidden paths: P(X_{n+1}=x | X_0..X_n)."""
    A = np.array(spec.transition)
    E = np.array(spec.emission)
    pi = exact_stationary(A)
    n_states = A.shape[0]
    m = len(history)
    joint = np.zeros(spec.alphabet.size)
    evidence = 0.0
    for path in itertools.product(range(n_states), repeat=m + 1):
        p = pi[path[0]]
        for i in range(m):
            p *= E[path[i], history[i]]
            p *= A[path[i], path[i + 1]]
        # hidden state path[m] emits X_m: accumulate its emission row
        joint += p * E[path[m]]
        evidence += p
    return joint / evidence


SLOW_R = np.random.default_rng(0).random((4, 4))
SLOW_HMM = HiddenMarkovProcess(  # spectral gap near 1e-4
    BINARY,
    tuple(map(tuple, 0.9999 * np.eye(4) + 0.0001 * SLOW_R / SLOW_R.sum(axis=1, keepdims=True))),
    ((0.9, 0.1), (0.2, 0.8), (0.5, 0.5), (0.3, 0.7)),
)
SLOW_ORDER2 = MarkovProcess(BINARY, 2, ((0.99999, 0.00001), (0.5, 0.5), (0.5, 0.5), (0.00002, 0.99998)))


class TestStationaryDistribution:
    """The stationary law through the families: an order-1 chain's law is
    its own block law of length 1, an identity-emission HMM's its hidden law."""

    def test_symmetric_flip_exact(self):
        for spec in chain_and_hmm(((0.8, 0.2), (0.2, 0.8))):
            assert np.abs(stationary_block_law(spec, 1) - 0.5).max() <= 1e-15

    def test_two_thirds_example(self):
        for spec in chain_and_hmm(((0.9, 0.1), (0.2, 0.8))):
            assert np.abs(stationary_block_law(spec, 1) - [2 / 3, 1 / 3]).max() <= 1e-15

    def test_tiny_mixing_symmetric(self):
        for spec in chain_and_hmm(((0.99, 0.01), (0.01, 0.99))):
            assert np.abs(stationary_block_law(spec, 1) - 0.5).max() <= 1e-15

    def test_laws_match_exact_elimination(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            P = positive_stochastic(rng, n, n)
            want = exact_stationary(P)
            for spec in chain_and_hmm(tuple(map(tuple, P))):
                law = stationary_block_law(spec, 1)
                assert np.abs(law @ P - law).max() <= 1e-12
                assert np.abs(law - want).max() <= 1e-15
        for order, size in [(2, 2), (2, 3), (3, 2), (4, 2)]:
            rows = tuple(map(tuple, positive_stochastic(rng, size**order, size)))
            spec = MarkovProcess(Alphabet.of_size(size), order, rows)
            Q = context_matrix(spec)
            law = stationary_block_law(spec, order)
            assert np.abs(law @ Q - law).max() <= 1e-12
            assert np.abs(law - exact_stationary(Q)).max() <= 1e-15

    @pytest.mark.parametrize("spec", [SLOW_HMM, SLOW_ORDER2], ids=["hmm", "order2"])
    def test_slowly_mixing_chain(self, spec):
        # a power iteration capped at 200,000 steps stops short here, at residuals 5.5e-11 and 6.1e-8
        if isinstance(spec, HiddenMarkovProcess):
            P, law = np.array(spec.transition), spec._hidden_law
        else:
            P, law = context_matrix(spec), stationary_block_law(spec, 2)
        assert np.abs(law @ P - law).max() <= 1e-12
        assert np.abs(law - exact_stationary(P)).max() <= 1e-15

    @pytest.mark.parametrize("order, kind", [(11, "absorbing"), (16, "absorbing"), (11, "sparse")], ids=["11", "16", "11-sparse"])
    def test_slowly_mixing_chain_above_dense_max(self, order, kind):
        if kind == "absorbing":  # mixes slowly; a power iteration capped at 200,000 steps failed here
            rows = tuple((0.99999, 0.00001) if c % 2 == 0 else (0.00002, 0.99998) for c in range(2**order))
        else:  # nearly decomposable, 17% of entries below 1e-10; GMRES with a basis of 280 stalls here
            rows = np.maximum(np.random.default_rng(0).dirichlet([0.05, 0.05], 2**order), 1e-300)
            rows = tuple(map(tuple, rows / rows.sum(axis=1, keepdims=True)))
        spec = MarkovProcess(BINARY, order, rows)
        assert 2**order > processes._DENSE_MAX
        law = spec._context_law
        stepped = (law[:, None] * np.array(rows)).reshape(2, -1).sum(axis=0)  # law @ P over contexts
        assert np.abs(stepped - law).max() <= 1e-12
        assert abs(law.sum() - 1.0) <= 1e-15
        seq = generate(spec, 5, 200).seq.as_array()
        rows_out = np.concatenate(list(Oracle(spec).conditionals(seq, 64)))
        assert rows_out.shape == (201, 2)
        assert np.abs(rows_out.sum(axis=1) - 1.0).max() <= 1e-12
        codes = np.lib.stride_tricks.sliding_window_view(seq, order) @ (1 << np.arange(order)[::-1])
        assert rows_out[order - 1 :].tolist() == [list(rows[c]) for c in codes]

    def test_residual_above_tolerance_raises(self, monkeypatch):
        # a negative tolerance rejects every law, however small its round-off residual
        monkeypatch.setattr(processes, "_STATIONARY_TOL", -1.0)
        spec = MarkovProcess(BINARY, 1, ((0.9, 0.1), (0.2, 0.8)))
        with pytest.raises(ValueError, match=r"^stationary law residual \d\.\d{3}e[-+]\d+ exceeds -1\.0$"):
            stationary_block_law(spec, 1)

    def test_direct_solve_and_gmres_agree(self, monkeypatch):
        rng = np.random.default_rng(22)
        for order, size in [(1, 2), (1, 4), (2, 2), (2, 3), (3, 2), (5, 2)]:
            rows = tuple(map(tuple, positive_stochastic(rng, size**order, size)))
            spec = MarkovProcess(Alphabet.of_size(size), order, rows)
            solved = stationary_block_law(spec, order)
            with monkeypatch.context() as patch:
                patch.setattr(processes, "_DENSE_MAX", 0)
                krylov = stationary_block_law(dataclasses.replace(spec), order)
            assert np.abs(solved - krylov).max() <= 1e-12

    def test_small_chains_do_not_import_scipy(self):
        # scipy is imported only for chains above _DENSE_MAX contexts; at module top it would
        # add about 0.15 s to every simulate run
        code = (
            "import sys, nextsym.cli\n"
            "from nextsym import Alphabet, MarkovProcess, Oracle, generate\n"
            "spec = MarkovProcess(Alphabet('01'), 2, ((0.9, 0.1), (0.6, 0.4), (0.4, 0.6), (0.1, 0.9)))\n"
            "list(Oracle(spec).conditionals(generate(spec, 1, 1000).seq.as_array(), 64))\n"
            "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_rejects_bad_matrices(self):
        for P in (
            ((0.9, 0.2), (0.2, 0.8)),  # row sum off
            ((1.0, 0.0), (0.0, 1.0)),  # reducible
            ((0.0, 1.0), (1.0, 0.0)),  # periodic
        ):
            with pytest.raises(ValueError):
                MarkovProcess(BINARY, 1, P)
            with pytest.raises(ValueError):
                HiddenMarkovProcess(BINARY, P, ((1.0, 0.0), (0.0, 1.0)))
        with pytest.raises(ValueError):
            HiddenMarkovProcess(BINARY, ((0.5, 0.5),), ((0.5, 0.5),))  # not square


class TestSpecValidation:
    def test_iid_probs_checked(self):
        with pytest.raises(ValueError):
            IIDProcess(BINARY, (0.6, 0.6))
        with pytest.raises(ValueError):
            IIDProcess(BINARY, (1.2, -0.2))
        assert IIDProcess(BINARY, (1.0, 0.0)).probs == (1.0, 0.0)  # constant process ok

    def test_markov_block_chain_must_be_ergodic(self):
        with pytest.raises(ValueError):
            MarkovProcess(BINARY, 1, ((1.0, 0.0), (0.3, 0.7)))  # state 1 unreachable back
        with pytest.raises(ValueError):
            MarkovProcess(BINARY, 1, ((0.0, 1.0), (1.0, 0.0)))  # period 2
        MarkovProcess(BINARY, 1, ((0.0, 1.0), (0.5, 0.5)))  # zero entry but ergodic

    def test_markov_row_count_and_order(self):
        with pytest.raises(ValueError):
            MarkovProcess(BINARY, 2, ((0.5, 0.5), (0.5, 0.5)))
        with pytest.raises(ValueError):
            MarkovProcess(BINARY, 0, ((0.5, 0.5),))

    def test_hmm_validation(self):
        with pytest.raises(ValueError):
            HiddenMarkovProcess(BINARY, ((0.9, 0.2), (0.1, 0.9)), ((0.5, 0.5), (0.5, 0.5)))
        with pytest.raises(ValueError):
            HiddenMarkovProcess(BINARY, ((1.0, 0.0), (0.0, 1.0)), ((0.5, 0.5), (0.5, 0.5)))


class TestGenerate:
    def test_reproducible_and_seed_sensitive(self):
        t1 = generate(FLIP, 7, 200)
        t2 = generate(FLIP, 7, 200)
        t3 = generate(FLIP, 8, 200)
        assert list(t1.seq) == list(t2.seq)
        assert list(t1.seq) != list(t3.seq)

    def test_frozen_prefixes_pin_rng_stream(self):
        # regression pins for the documented PCG64 draw order (values recorded
        # from the initial implementation; any change is a breaking change)
        assert list(generate(IIDProcess(BINARY, (0.5, 0.5)), 42, 15).seq) == [
            1, 0, 1, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1, 1, 0, 0]
        assert list(generate(FLIP, 42, 15).seq) == [
            1, 1, 1, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1, 1, 1, 0]
        assert list(generate(HMM2, 42, 15).seq) == [
            1, 1, 1, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 1, 1]

    @pytest.mark.parametrize("chunk", [processes._DRAW_CHUNK, 7])
    @pytest.mark.parametrize("max_work", [pytest.param(math.inf, id="scan"), pytest.param(-1, id="loop")])
    def test_bytes_equal_the_reference_draw(self, monkeypatch, max_work, chunk):
        # chunk 7 makes the walk carry its state across many chunk edges, and
        # makes the scan pad each chunk's single block of 32 uniforms
        monkeypatch.setattr(processes, "_DRAW_CHUNK", chunk)
        monkeypatch.setattr(processes, "_SCAN_MAX_WORK", max_work)
        for spec in random_specs(np.random.default_rng(2026), 45):
            for seed in (1, 2):
                for horizon in (1, 2, 7, 2000):
                    got = generate(spec, seed, horizon).seq.as_array().tobytes()
                    assert got == reference_draw(spec, seed, horizon), (spec, seed, horizon)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        markov=st.booleans(),
        size=st.integers(2, 4),
        k=st.integers(1, 4),
        states=st.integers(1, 8),
    )
    def test_walk_routes_draw_the_same_bytes(self, seed, markov, size, k, states):
        rng = np.random.default_rng(seed)
        while True:  # reducible or periodic: draw again
            try:
                if markov:
                    spec = MarkovProcess(Alphabet.of_size(size), k, nudged(rng, random_stochastic(rng, size**k, size)))
                else:
                    trans = nudged(rng, random_stochastic(rng, states, states))
                    spec = HiddenMarkovProcess(Alphabet.of_size(size), trans, nudged(rng, random_stochastic(rng, states, size)))
                break
            except ValueError:
                pass
        for horizon in (1, k, 33, 2000):
            drawn = []
            for max_work in (-1, math.inf):  # per-symbol loop, then blocked scan
                with mock.patch.object(processes, "_SCAN_MAX_WORK", max_work):
                    drawn.append(generate(spec, seed, horizon).seq.as_array().tobytes())
            assert drawn[0] == drawn[1], (spec, seed, horizon)

    def test_iid_marginals_statistically_uniform(self):
        hits = 0
        n = 400
        for seed in range(200):
            t = generate(IIDProcess(BINARY, (0.5, 0.5)), seed, n - 1)
            hits += sum(t.seq)
        total = 200 * n
        assert abs(hits / total - 0.5) < 3 * math.sqrt(0.25 / total)

    def test_markov_long_run_frequency_matches_stationary(self):
        n = 100_000
        t = generate(FLIP, 3, n)
        ones = sum(t.seq) / (n + 1)
        # pi_1 = 0.5; autocorrelated binary mean, generous 3-sigma-ish bound
        assert abs(ones - 0.5) < 0.01

    def test_block_law_chi_square_at_1e5(self):
        # 2-blocks of an order-2 chain against the stationary block law,
        # fixed seed, 99.9% quantile with df=3; blocks are thinned far past
        # the mixing time so the multinomial null applies
        from scipy.stats import chi2

        n = 100_000
        stride = 32
        t = generate(ORDER2, 11, n)
        arr = t.seq.as_array().astype(int)
        starts = np.arange(0, len(arr) - 1, stride)
        codes = arr[starts] * 2 + arr[starts + 1]
        counts = np.bincount(codes, minlength=4)
        law = stationary_block_law(ORDER2, 2)
        expected = law * counts.sum()
        stat = ((counts - expected) ** 2 / expected).sum()
        assert stat <= chi2.ppf(0.999, 3)

    def test_identity_emission_hmm_equals_markov_chain(self):
        ident = HiddenMarkovProcess(BINARY, ((0.7, 0.3), (0.3, 0.7)), ((1.0, 0.0), (0.0, 1.0)))
        th = generate(ident, 99, 500)
        tm = generate(FLIP, 99, 500)
        # same law, not same draws; match their conditionals instead
        hist = list(th.seq)[:50]
        for n in range(len(hist)):
            assert np.allclose(replay(ident, hist[: n + 1]), replay(FLIP, hist[: n + 1]), atol=1e-10)

    def test_horizon_validation(self):
        with pytest.raises(ValueError):
            generate(FLIP, 1, 0)


class TestOracle:
    def test_markov_row_readback(self):
        assert replay(FLIP, [0, 1, 0]) == (0.7, 0.3)
        assert replay(FLIP, [0, 1]) == (0.3, 0.7)

    def test_markov_short_history_matches_enumeration(self):
        # history of length 1 under an order-2 chain: weight the transition
        # rows by the stationary pair law of (X_{-1}, X_0)
        law = stationary_block_law(ORDER2, 2)
        for x0 in (0, 1):
            weights = np.array([law[a * 2 + x0] for a in (0, 1)])
            rows = np.array([ORDER2.rows[a * 2 + x0] for a in (0, 1)])
            expected = (weights[:, None] * rows).sum(axis=0) / weights.sum()
            assert np.allclose(replay(ORDER2, [x0]), expected, atol=1e-10)

    def test_markov_conditional_ignores_old_coordinates(self):
        # d*-continuity witness: only the last k coordinates matter
        h1 = [0, 0, 0, 0, 1, 0]
        h2 = [1, 1, 1, 0, 1, 0]
        assert replay(ORDER2, h1) == replay(ORDER2, h2)

    def test_hmm_filter_matches_path_sum(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            m = int(rng.integers(1, 9))
            hist = rng.integers(0, 2, m).tolist()
            got = replay(HMM2, hist)
            want = hmm_path_sum_conditional(HMM2, hist)
            assert np.abs(np.array(got) - want).max() <= 1e-10

    def test_hmm_filter_three_states(self):
        a3 = Alphabet("012")
        spec = HiddenMarkovProcess(
            a3,
            ((0.8, 0.1, 0.1), (0.2, 0.7, 0.1), (0.3, 0.3, 0.4)),
            ((0.6, 0.3, 0.1), (0.1, 0.8, 0.1), (0.2, 0.2, 0.6)),
        )
        rng = np.random.default_rng(32)
        for _ in range(10):
            hist = rng.integers(0, 3, int(rng.integers(1, 8))).tolist()
            got = np.array(replay(spec, hist))
            want = hmm_path_sum_conditional(spec, hist)
            assert np.abs(got - want).max() <= 1e-10
            assert abs(got.sum() - 1.0) <= 1e-10

    def test_cursor_agrees_with_replay(self):
        for spec in (IIDProcess(BINARY, (0.3, 0.7)), FLIP, ORDER2, HMM2):
            seq = generate(spec, 17, 60).seq.as_array()
            rows = np.concatenate(list(Oracle(spec).conditionals(seq, 7)))
            cursor = Oracle(spec).cursor()
            for n, x in enumerate(seq.tolist()):
                cursor.observe(x)
                if spec is HMM2:  # the blocked filter reorders the cursor's arithmetic across blocks
                    assert np.abs(np.array(cursor.conditional()) - rows[n]).max() <= 1e-13
                else:
                    assert cursor.conditional() == tuple(rows[n])

    def test_empty_history_rejected(self):
        for spec in (IIDProcess(BINARY, (0.3, 0.7)), FLIP, ORDER2, HMM2):
            with pytest.raises(ValueError):
                replay(spec, [])

    def test_invalid_symbols_rejected(self):
        for spec in (IIDProcess(BINARY, (0.3, 0.7)), FLIP, ORDER2, HMM2):
            with pytest.raises(ValueError):
                replay(spec, [0, 5])
            for history in ([0, 5], [0, 2, 0], [0, 0, 3], [1, -1]):
                with pytest.raises(ValueError, match="outside alphabet"):
                    Oracle(spec).conditionals(np.array(history), 7)  # checked before any row is made

    @pytest.mark.parametrize("chunk", [0, -1])
    def test_chunk_below_one_rejected(self, chunk):
        for spec in (IIDProcess(BINARY, (0.3, 0.7)), FLIP, ORDER2, HMM2):
            with pytest.raises(ValueError, match="chunk"):
                Oracle(spec).conditionals(np.array([0, 1, 1]), chunk)  # checked before any row is made

    @pytest.mark.parametrize("spec", [ORDER2, HMM2], ids=["markov", "hmm"])
    def test_stationary_law_is_computed_once_per_spec(self, monkeypatch, spec):
        spec = dataclasses.replace(spec)  # an equal spec that has computed nothing yet
        calls = []
        original = processes._solve_stationary
        monkeypatch.setattr(processes, "_solve_stationary", lambda P: calls.append(P) or original(P))
        seq = generate(spec, 1, 300).seq.as_array()
        generate(spec, 2, 300)
        generate(spec, 3, 300)
        list(Oracle(spec).conditionals(seq, 64))
        stationary_block_law(spec, 2)
        assert len(calls) == 1


def random_hmm(seed, states, size, memory=0.0):
    """An HMM with zero entries and nudged rows, drawn again until its hidden
    chain is ergodic.  The hidden chain stays put with extra probability
    ``memory``; near 1 the filter forgets its start slowly, so a block's
    filter still depends on the law it starts from."""
    rng = np.random.default_rng(seed)
    while True:
        try:
            trans = memory * np.eye(states) + (1.0 - memory) * np.array(random_stochastic(rng, states, states))
            trans = nudged(rng, tuple(map(tuple, trans)))
            return HiddenMarkovProcess(Alphabet.of_size(size), trans, nudged(rng, random_stochastic(rng, states, size)))
        except ValueError:
            pass


def filtered_rows(spec, seq, chunk, segment=processes._FILTER_SEGMENT):
    with mock.patch.object(processes, "_FILTER_SEGMENT", segment):
        return np.concatenate(list(Oracle(spec).conditionals(seq, chunk)))


# symbol c is never emitted; under NO_REPEAT a 1 is hidden state 1, which never follows itself
NEVER_C = HiddenMarkovProcess(Alphabet("abc"), ((0.9, 0.1), (0.2, 0.8)), ((0.5, 0.5, 0.0), (0.3, 0.7, 0.0)))
NO_REPEAT = HiddenMarkovProcess(BINARY, ((0.5, 0.5), (1.0, 0.0)), ((1.0, 0.0), (0.0, 1.0)))
ROUTES = [pytest.param(processes._FILTER_MAX_STATES, id="filter"), pytest.param(0, id="cursor")]


class TestBlockedFilter:
    """``Oracle.conditionals`` for hidden Markov sources runs the forward
    filter as a blocked scan; the cursor stays the exact reference."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        states=st.integers(1, processes._FILTER_MAX_STATES),
        size=st.integers(2, 4),
        memory=st.sampled_from([0.0, 0.99, 0.999]),
        horizon=st.integers(1, 700),
        chunk=st.sampled_from([1, 7, 1000]),
        segment=st.sampled_from([64, 128, 192, processes._FILTER_SEGMENT]),
    )
    def test_rows_match_the_cursor(self, seed, states, size, memory, horizon, chunk, segment):
        spec = random_hmm(seed, states, size, memory)
        seq = generate(spec, seed, horizon).seq.as_array()
        rows = filtered_rows(spec, seq, chunk, segment)
        cursor = Oracle(spec).cursor()
        want = []
        for x in seq.tolist():
            cursor.observe(x)
            want.append(cursor.conditional())
        assert np.abs(rows - np.array(want)).max() <= 1e-13
        assert np.abs(rows.sum(axis=1) - 1.0).max() <= 1e-12

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        states=st.integers(1, processes._FILTER_MAX_STATES),
        size=st.integers(2, 4),
        memory=st.sampled_from([0.0, 0.999]),
        horizon=st.integers(1, 700),
    )
    def test_rows_do_not_depend_on_chunk_or_segment(self, seed, states, size, memory, horizon):
        spec = random_hmm(seed, states, size, memory)
        seq = generate(spec, seed, horizon).seq.as_array()
        whole = filtered_rows(spec, seq, 1000)
        for segment in (64, 128, 192):
            for chunk in (1, 7, 1000):
                assert np.array_equal(filtered_rows(spec, seq, chunk, segment), whole), (segment, chunk)

    @pytest.mark.parametrize("max_states", ROUTES)
    @pytest.mark.parametrize(
        "spec, history, at",
        [
            pytest.param(spec, history, at, id=f"{name}-{where}")
            for name, spec, history in [
                ("never-emitted", NEVER_C, [2]),
                ("impossible-pair", NO_REPEAT, [0, 1, 1]),
                ("outside-3", NEVER_C, [3]),
                ("outside-2", NO_REPEAT, [2]),
            ]
            for where, at in [("first", 0), ("mid-block", 100), ("block-start", 64), ("segment-start", 128)]
            if at >= len(history) - 1
        ],
    )
    def test_impossible_history_raises(self, monkeypatch, max_states, spec, history, at):
        monkeypatch.setattr(processes, "_FILTER_MAX_STATES", max_states)
        seq = generate(spec, 8, 300).seq.as_array().copy()
        seq[at - len(history) + 1 : at + 1] = history
        if at:
            assert len(filtered_rows(spec, seq[:at], 7, 128)) == at  # the history before it is possible
        with pytest.raises(ValueError):
            filtered_rows(spec, seq, 7, 128)

    def test_block_of_vanishing_mass_is_walked(self, monkeypatch):
        # b then a puts nearly all predicted mass on hidden state 0, which
        # emits a second a with probability 1e-250: block 64's carried mass
        # falls below _FILTER_TINY although the history is possible
        spec = HiddenMarkovProcess(Alphabet("ab"), ((0.5, 0.5), (1.0, 0.0)), ((1e-250, 1.0), (1.0, 0.0)))
        seq = generate(spec, 3, 300).seq.as_array().copy()
        seq[62:65] = (1, 0, 0)
        walked = []
        fill = processes.HiddenMarkovProcess._fill
        monkeypatch.setattr(
            processes.HiddenMarkovProcess, "_fill", staticmethod(lambda *args: walked.append(len(args[0])) or fill(*args))
        )
        rows = filtered_rows(spec, seq, 7)
        assert walked == [1, 5]  # block 1 alone, then the whole sequence's 5 blocks
        cursor = Oracle(spec).cursor()
        for x, row in zip(seq.tolist(), rows):
            cursor.observe(x)
            assert np.abs(np.array(cursor.conditional()) - row).max() <= 1e-13

    def test_long_run_of_rare_symbols_does_not_underflow(self, monkeypatch):
        # every hidden state emits b with probability at most 1e-6, and the
        # run of b's at 30..199 fills blocks 1 and 2 (positions 64..191):
        # their unscaled transfer products would fall below 1e-380
        spec = HiddenMarkovProcess(Alphabet("ab"), ((0.9, 0.1), (0.3, 0.7)), ((1 - 1e-6, 1e-6), (1 - 1e-7, 1e-7)))
        seq = generate(spec, 2, 300).seq.as_array().copy()
        seq[30:200] = 1
        walked = []
        fill = processes.HiddenMarkovProcess._fill
        monkeypatch.setattr(
            processes.HiddenMarkovProcess, "_fill", staticmethod(lambda *args: walked.append(len(args[0])) or fill(*args))
        )
        rows = filtered_rows(spec, seq, 7)
        assert walked == [5]  # no block was walked alone: the scan kept its mass
        cursor = Oracle(spec).cursor()
        for x, row in zip(seq.tolist(), rows):
            cursor.observe(x)
            assert np.abs(np.array(cursor.conditional()) - row).max() <= 1e-13


class TestBlockLaw:
    def test_iid_products(self):
        spec = IIDProcess(BINARY, (0.25, 0.75))
        law = stationary_block_law(spec, 2)
        assert np.allclose(law, [0.0625, 0.1875, 0.1875, 0.5625], atol=1e-15)

    def test_markov_pair_law_sums_and_extends(self):
        law2 = stationary_block_law(ORDER2, 2)
        assert np.allclose(law2, [0.4, 0.1, 0.1, 0.4], atol=1e-10)
        law3 = stationary_block_law(ORDER2, 3)
        assert abs(law3.sum() - 1.0) <= 1e-10
        # P(abc) = P(ab) * P(c | ab)
        for code in range(8):
            ab, c = divmod(code, 2)
            assert law3[code] == pytest.approx(law2[ab] * ORDER2.rows[ab][c], abs=1e-12)

    def test_hmm_law_matches_path_sum(self):
        rng = np.random.default_rng(33)
        checked = 0
        while checked < 40:
            size, n_states = int(rng.integers(2, 4)), int(rng.integers(1, 5))
            try:
                transition = random_stochastic(rng, n_states, n_states)
                spec = HiddenMarkovProcess(Alphabet.of_size(size), transition, random_stochastic(rng, n_states, size))
            except ValueError:  # reducible or periodic hidden chain
                continue
            checked += 1
            for length in range(1, 6):
                got = stationary_block_law(spec, length)
                want = hmm_path_sum_block_law(spec, length)
                assert np.abs(got - want).max() <= 1e-15
                assert np.array_equal(got == 0, want == 0)

    @pytest.mark.parametrize("order", [2, 3, 4])  # order 1 has no prefix shorter than the order
    def test_markov_short_prefix_rows_are_block_law_ratios(self, order):
        rng = np.random.default_rng(34 + order)
        size = 3 if order <= 2 else 2
        while True:
            try:
                spec = MarkovProcess(Alphabet.of_size(size), order, random_stochastic(rng, size**order, size))
                break
            except ValueError:  # the block chain is reducible or periodic
                continue
        for m in range(1, order):
            law_m, law_next = stationary_block_law(spec, m), stationary_block_law(spec, m + 1)
            for code, history in enumerate(itertools.product(range(size), repeat=m)):
                ratio = law_next[code * size : (code + 1) * size] / law_m[code]
                assert replay(spec, list(history)) == tuple(ratio.tolist())

    @pytest.mark.parametrize("spec", [IIDProcess(BINARY, (0.25, 0.75)), FLIP, ORDER2, HMM2])
    def test_returned_law_is_the_callers_to_mutate(self, spec):
        for length in (1, 2, 3):
            law = stationary_block_law(spec, length)
            kept = law.copy()
            law[:] = -1.0
            assert np.array_equal(stationary_block_law(spec, length), kept)
        assert replay(spec, [0]) == replay(dataclasses.replace(spec), [0])  # the cursor reads no mutated law

    def test_hmm_law_consistent_with_marginal(self):
        law1 = stationary_block_law(HMM2, 1)
        law2 = stationary_block_law(HMM2, 2)
        assert np.allclose(law2.reshape(2, 2).sum(axis=1), law1, atol=1e-12)
        assert abs(law1.sum() - 1.0) <= 1e-12
