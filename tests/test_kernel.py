"""The whole-trajectory replay kernel against the scanning evaluator, and the
chunked oracle conditionals and trajectory draws it is fed with."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nextsym import (
    Alphabet,
    ExperimentConfig,
    HiddenMarkovProcess,
    IIDProcess,
    MarkovProcess,
    Oracle,
    PayoffFunction,
    Schedules,
    SymbolSequence,
    generate,
    run_experiment,
)
from nextsym import kernel, processes
from nextsym.estimator import ConstantSchedule, probe
from nextsym.config import build_schedules


def _schedule_choices(size: int) -> dict:
    alphabet = Alphabet.of_size(size)
    return {
        "default": Schedules.default(size),
        "log 0.25": build_schedules({"schedules": {"K": {"kind": "log", "coeff": 0.25}}}, alphabet),
        "constant K, linear J": build_schedules(
            {"schedules": {"K": {"kind": "constant", "value": 4}, "J": {"kind": "linear", "coeff": 0.02}}},
            alphabet,
        ),
        "lambdas": Schedules(K=lambda n: 1 + n.bit_length() // 3, J=lambda n: 1 + n // 40),
    }


def _replayed(data: np.ndarray, size: int, schedules: Schedules, chunk: int) -> tuple:
    # patched here, not by the monkeypatch fixture, which @given examples would share
    with mock.patch.object(kernel, "CHUNK", chunk):  # chunk_rows(size) == CHUNK for |A| <= 4
        parts = list(kernel.replay(data, size, schedules))
    assert [p.start for p in parts] == list(range(0, len(data), chunk))
    kappa = np.concatenate([p.kappa for p in parts])
    matches = np.concatenate([p.matches for p in parts])
    hist = np.concatenate([p.hist for p in parts])
    return kappa, matches, hist


@settings(max_examples=60, deadline=None)
@given(
    size=st.integers(2, 4),
    length=st.integers(1, 320),
    chunk=st.sampled_from([1, 2, 7, 13]),
    which=st.sampled_from(["default", "log 0.25", "constant K, linear J", "lambdas"]),
    seed=st.integers(0, 2**32 - 1),
    skew=st.booleans(),
)
def test_kernel_matches_scanning_evaluator(size, length, chunk, which, seed, skew):
    rng = np.random.default_rng(seed)
    probs = np.array([8.0] + [1.0] * (size - 1)) if skew else np.ones(size)
    data = rng.choice(size, length, p=probs / probs.sum()).astype(np.uint8)
    schedules = _schedule_choices(size)[which]
    seq = SymbolSequence(Alphabet.of_size(size), data.tobytes())
    kappa, matches, hist = _replayed(data, size, schedules, chunk)
    for n in range(length):
        k, lam, want = probe(seq, n, schedules) or (0, 0, [0] * size)
        assert kappa[n] == k, n
        assert hist[n].tolist() == want, n
        assert matches[n] == lam == sum(want), n


def test_log_schedule_steps_inside_a_chunk():
    # K(n) = floor(log2(n) / 4) steps at 16 and 256: both fall mid-chunk for chunk 7
    schedules = _schedule_choices(2)["log 0.25"]
    data = np.zeros(300, dtype=np.uint8)  # every block recurs at once: kappa is the cap
    kappa, _, _ = _replayed(data, 2, schedules, 7)
    assert kappa[15] == 1 and kappa[16] == 1 and kappa[255] == 1 and kappa[256] == 2
    assert kappa[1] == 1 and kappa[0] == 0


def _assert_probes(data: np.ndarray, size: int, schedules: Schedules, kappa, matches, hist) -> None:
    seq = SymbolSequence(Alphabet.of_size(size), data.tobytes())
    for n in range(len(data)):
        k, lam, want = probe(seq, n, schedules) or (0, 0, [0] * size)
        assert (kappa[n], matches[n], hist[n].tolist()) == (k, lam, want), n


@pytest.mark.parametrize("steps", [(64,), (64, 128)])
def test_cap_steps_at_a_chunk_boundary(steps):
    # K steps from 1 to 2 (and then to 3) exactly where a chunk starts: the chunks before
    # it cannot select the longer blocks but must count them for the chunks after
    schedules = Schedules(K=lambda n: 1 + sum(n >= s for s in steps), J=ConstantSchedule(2))
    data = np.random.default_rng(3).integers(0, 2, 200).astype(np.uint8)
    kappa, matches, hist = _replayed(data, 2, schedules, 16)
    assert kappa[:64].max() == 1 and kappa[64] == 2
    assert kappa[128] == len(steps) + 1
    _assert_probes(data, 2, schedules, kappa, matches, hist)


def test_whole_chunk_selecting_one_length_beside_partial_chunks():
    # J(n) = 1 + n // 12 stays close to lambda_2, about n / 9, so in most chunks some rows
    # fall back to length 1; in chunk 10 every row selects length 2 (whole-column writes)
    schedules = Schedules(K=ConstantSchedule(2), J=lambda n: 1 + n // 12)
    data = np.random.default_rng(5).integers(0, 3, 240).astype(np.uint8)
    kappa, matches, hist = _replayed(data, 3, schedules, 16)
    chunks = [set(c) for c in kappa.reshape(-1, 16).tolist()]
    assert chunks[9] == chunks[11] == {1, 2} and chunks[10] == {2}
    _assert_probes(data, 3, schedules, kappa, matches, hist)


def test_count_only_length_is_sorted_once_a_row_may_select_it():
    # K steps from 1 to 2 where chunk 4 starts and from 2 to 3 at n = 100, inside chunk 6:
    # chunks 0-3 only count lengths 2 and 3, chunks 4-5 length 3, and later chunks select them
    schedules = Schedules(K=lambda n: 1 + (n >= 64) + (n >= 100), J=ConstantSchedule(2))
    data = np.random.default_rng(3).integers(0, 2, 200).astype(np.uint8)
    kappa, matches, hist = _replayed(data, 2, schedules, 16)
    assert kappa[:64].max() == 1 and kappa[64] == 2 and kappa[99] == 2 and kappa[100] == 3
    _assert_probes(data, 2, schedules, kappa, matches, hist)


def test_rows_fall_through_several_lengths():
    # J(n) = 1 + n // 10 sits between lambda_4 and lambda_2 (about n / 16 and n / 4), so
    # rows unsettled at length 4 settle at 3 or fall through to 2 in the same chunk
    schedules = Schedules(K=ConstantSchedule(4), J=lambda n: 1 + n // 10)
    data = np.random.default_rng(5).integers(0, 2, 320).astype(np.uint8)
    kappa, matches, hist = _replayed(data, 2, schedules, 32)
    assert set(kappa[64:96].tolist()) == {2, 3, 4}
    _assert_probes(data, 2, schedules, kappa, matches, hist)


def test_chunk_where_every_row_abstains_still_counts_its_blocks():
    # no row of chunk 2 (n = 32..47) reaches J, so every length is sorted and none selected;
    # its ends must still join the counts the later chunks match against
    schedules = Schedules(K=ConstantSchedule(3), J=lambda n: 10**6 if 32 <= n < 48 else 2)
    data = np.random.default_rng(9).integers(0, 3, 120).astype(np.uint8)
    kappa, matches, hist = _replayed(data, 3, schedules, 16)
    assert not kappa[32:48].any() and kappa[48:].min() > 0
    _assert_probes(data, 3, schedules, kappa, matches, hist)


def test_blocks_first_seen_in_a_count_only_chunk():
    # K = 1 below n = 16, so chunk 1 only counts length 2; its blocks (2, 2) and (2, 0) are
    # new there, twice each, and chunk 2 must match them under one number each
    chunks = [[0, 1] * 4, [2, 2, 2, 0, 2, 0, 1, 1], [2, 2, 2, 0, 2, 0, 2, 2], [1, 2, 0, 2, 2, 1, 0, 0]]
    data = np.array(sum(chunks, []), np.uint8)
    schedules = Schedules(K=lambda n: 1 + (n >= 16), J=ConstantSchedule(2))
    kappa, matches, hist = _replayed(data, 3, schedules, 8)
    assert (kappa[17], matches[17], hist[17].tolist()) == (2, 2, [1, 0, 1])  # ends 9 and 10
    _assert_probes(data, 3, schedules, kappa, matches, hist)


def test_large_block_counts_take_the_sorted_path(monkeypatch):
    # no successor cell allowed per row: every length no row selects is counted through its sort
    monkeypatch.setattr(kernel, "_DENSE_CELLS_PER_ROW", 0)
    schedules = Schedules(K=lambda n: 1 + n // 40, J=ConstantSchedule(2))
    data = np.random.default_rng(13).integers(0, 2, 200).astype(np.uint8)
    kappa, matches, hist = _replayed(data, 2, schedules, 16)
    assert kappa.max() >= 3
    _assert_probes(data, 2, schedules, kappa, matches, hist)


def test_one_sort_per_chunk_when_rows_settle_at_the_longest_length(monkeypatch):
    # sim-markov2's shape: K steps from 1 to 2 where a chunk starts and J stays small, so past
    # the first chunk, whose keys are all new and sorted to be numbered, a chunk sorts only its
    # longest usable length and counts the other by one bincount
    spec = MarkovProcess(Alphabet("01"), 2, ((0.9, 0.1), (0.6, 0.4), (0.4, 0.6), (0.1, 0.9)))
    data = generate(spec, 17, 511).seq.as_array()  # X_0..X_511
    schedules = Schedules(K=lambda n: 1 + (n >= 256), J=ConstantSchedule(2))
    sorted_rows = []
    sortable = kernel._sortable
    monkeypatch.setattr(kernel, "_sortable", lambda values: sorted_rows.append(len(values)) or sortable(values))
    monkeypatch.setattr(kernel, "CHUNK", 64)
    parts = kernel.replay(data, 2, schedules)
    first = next(parts)
    sorted_rows.clear()
    parts = [first, *parts]
    assert sorted_rows == [64] * 7
    kappa, matches, hist = (np.concatenate(field) for field in list(zip(*parts))[1:])
    assert kappa[:256].max() == 1 and kappa[256:].min() == 2
    _assert_probes(data, 2, schedules, kappa, matches, hist)


def test_deep_cap_sorts_wide_keys(monkeypatch):
    # K = 20 over 2^17 + 5 random binary symbols: keys reach 2^16 and up, so the int64 sort
    # and the lookup's growth are exercised over the default 9 chunks
    rng = np.random.default_rng(7)
    data = rng.integers(0, 2, 2**17 + 5).astype(np.uint8)
    schedules = Schedules(ConstantSchedule(20), ConstantSchedule(1))
    widest = []
    sortable = kernel._sortable
    monkeypatch.setattr(kernel, "_sortable", lambda keys: widest.append(int(keys.max())) or sortable(keys))
    parts = list(kernel.replay(data, 2, schedules))
    assert len(parts) == 9 and max(widest) >= 1 << 16
    kappa = np.concatenate([p.kappa for p in parts])
    matches = np.concatenate([p.matches for p in parts])
    hist = np.concatenate([p.hist for p in parts])
    n = len(data)
    ends = [p.start + len(p.kappa) - 1 for p in parts]
    at = {0, 1, 19, 20, n - 1, *(p.start for p in parts), *ends, *rng.integers(0, n, 40).tolist()}
    seq = SymbolSequence(Alphabet.of_size(2), data.tobytes())
    for i in sorted(at):
        k, lam, want = probe(seq, i, schedules) or (0, 0, [0, 0])
        assert (kappa[i], matches[i], hist[i].tolist()) == (k, lam, want), i
    # at every position, with J = 1: kappa is the longest block that occurred before, lambda its count
    codes = np.zeros(n, np.int64)
    want_kappa, want_matches = np.zeros(n, np.int64), np.zeros(n, np.int64)
    for k in range(1, 21):
        codes = np.concatenate(([0], codes[:-1])) * 2 + data  # the length-k block ending at each position
        codes[: k - 1] = -np.arange(1, k)  # no full block ends there yet
        order = np.argsort(codes, kind="stable")
        ranks = np.empty(n, np.int64)
        ranks[order] = np.arange(n) - np.searchsorted(codes[order], codes[order])
        ok = ranks > 0
        want_kappa[ok], want_matches[ok] = k, ranks[ok]
    assert np.array_equal(kappa, want_kappa) and np.array_equal(matches, want_matches)


def test_chunk_rows_shrink_for_large_alphabets(monkeypatch):
    monkeypatch.setattr(kernel, "CHUNK", 1 << 14)
    assert kernel.chunk_rows(2) == kernel.chunk_rows(4) == 1 << 14
    assert kernel.chunk_rows(256) == 1 << 8


BINARY = Alphabet("01")
TERNARY = Alphabet("abc")
SPECS = {
    "iid": IIDProcess(TERNARY, (0.2, 0.5, 0.3)),
    "markov3": MarkovProcess(BINARY, 3, tuple((0.8, 0.2) if c % 3 else (0.25, 0.75) for c in range(8))),
    "hmm": HiddenMarkovProcess(TERNARY, ((0.9, 0.1), (0.2, 0.8)), ((0.6, 0.3, 0.1), (0.1, 0.2, 0.7))),
}


@pytest.mark.parametrize("name", sorted(SPECS) + ["hmm-cursor"])
@pytest.mark.parametrize("chunk", [1, 2, 7, 1000])
def test_chunked_conditionals_equal_cursor(monkeypatch, name, chunk):
    if name == "hmm-cursor":  # every hidden chain takes one cursor, carried across chunks
        monkeypatch.setattr(processes, "_FILTER_MAX_STATES", 0)
    spec = SPECS[name.split("-")[0]]
    seq = generate(spec, 5, 300).seq.as_array()
    cursor = Oracle(spec).cursor()
    want = []
    for x in seq.tolist():
        cursor.observe(x)
        want.append(cursor.conditional())
    got = np.concatenate(list(Oracle(spec).conditionals(seq, chunk)))
    if name == "hmm":  # the blocked filter reorders the cursor's arithmetic across blocks
        assert np.abs(got - np.array(want)).max() <= 1e-13
    else:
        assert got.tolist() == [list(row) for row in want]


@pytest.mark.parametrize("name", ["markov3", "hmm"])
def test_chunked_draws_keep_the_stream(monkeypatch, name):
    whole = generate(SPECS[name], 11, 5000).seq.as_array()
    monkeypatch.setattr(processes, "_DRAW_CHUNK", 7)
    assert np.array_equal(generate(SPECS[name], 11, 5000).seq.as_array(), whole)


def test_hmm_cursor_matches_plain_forward_filter():
    spec = SPECS["hmm"]
    A, E = np.array(spec.transition), np.array(spec.emission)
    cursor = Oracle(spec).cursor()
    alpha = None
    for x in generate(spec, 3, 400).seq:
        v = spec._hidden_law * E[:, x] if alpha is None else (alpha @ A) * E[:, x]
        alpha = v / v.sum()
        cursor.observe(x)
        assert cursor.conditional() == tuple(float(p) for p in (alpha @ A) @ E)


@pytest.mark.parametrize("payoff", [None, PayoffFunction.indicator(TERNARY, "b"), PayoffFunction(TERNARY, (-1.0, 0.5, 3.0))])
def test_simulate_rows_do_not_depend_on_chunk_size(monkeypatch, payoff):
    cfg = ExperimentConfig(
        spec=SPECS["hmm"], horizon=700, replicates=2, payoff=payoff, base_seed=4, eval_grid=tuple(range(1, 701, 9))
    )
    whole = run_experiment(cfg)
    monkeypatch.setattr(kernel, "CHUNK", 7)
    chunked = run_experiment(cfg)
    assert chunked.rows == whole.rows and chunked.tails == whole.tails
