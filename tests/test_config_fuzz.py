"""Property test of the config parsers.

One field of a valid ``simulate`` or ``lemmas`` document is replaced at a
time by a value of the wrong type, zero, a negative number, an out-of-range
number, a value no float holds (NaN, infinity, an int too large for one),
an empty list or a decimal written as a string.  The parsers must either
accept the document or raise ConfigError, which the CLI turns into exit 2;
any other exception would be exit 1 with no field path.  The builders are
called directly, past ``load_document``'s finiteness check, so each reader
must refuse NaN and infinity by itself.
"""

import copy
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from nextsym.config import ConfigError, build_experiment, build_lemma_plan, build_process, build_schedules
from nextsym.processes import _MAX_HORIZON

SIMULATE_DOCS = [
    {
        "process": {"kind": "markov", "alphabet": "01", "order": 2,
                    "transition": [[0.9, 0.1], [0.6, 0.4], [0.4, 0.6], [0.1, 0.9]]},
        "schedules": {"K": {"kind": "log", "coeff": 0.25, "base": 2}, "J": {"kind": "linear", "coeff": 0.5}},
        "experiment": {"horizon": 512, "replicates": 3, "base_seed": 42, "workers": 1,
                       "eval_grid": [16, 256, 512], "epsilons": [0.05, 0.1],
                       "payoff": {"kind": "table", "values": {"0": 0.25, "1": 2}}},
    },
    {
        "process": {"kind": "hmm", "alphabet": ["a", "b", "c"],
                    "transition": [[0.9, 0.1], [0.2, 0.8]],
                    "emission": [[0.5, 0.3, 0.2], [0.1, 0.1, 0.8]]},
        "schedules": {"K": {"kind": "constant", "value": 3}, "J": {"kind": "constant", "value": 2}},
        "experiment": {"horizon": 100, "payoff": {"kind": "indicator", "symbol": "c"}},
    },
    {
        "process": {"kind": "iid", "alphabet": 4, "probs": [0.1, 0.2, 0.3, 0.4]},
        "experiment": {"horizon": 64, "payoff": {"kind": "distribution"}},
    },
]

LEMMA_DOCS = [  # the divergence check's schedules in its own section, then at the top level
    {
        "process": {"kind": "iid", "alphabet": "01", "probs": [0.5, 0.5]},
        "resampling": {"cases": [{"k": 2, "j": 1, "n": 60, "block_len": 2}], "replicates": 120, "base_seed": 7},
        "divergence": {"horizon": 2048, "replicates": 10, "base_seed": 8,
                       "schedules": {"K": {"kind": "log", "coeff": 0.25}, "J": {"kind": "sqrt"}}},
        "return_time": {"block": "1", "window": 50, "threshold": 10, "replicates": 500, "base_seed": 9},
    },
    {
        "process": {"kind": "markov", "alphabet": "abc", "order": 1,
                    "transition": [[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]]},
        "schedules": {"K": {"kind": "constant", "value": 4}, "J": {"kind": "linear", "coeff": 0.01}},
        "resampling": {"cases": [{"k": 2, "j": 1, "n": 60, "block_len": 2}], "replicates": 120},
        "divergence": {"horizon": 2048, "replicates": 10},
        "return_time": {"block": ["c", "a"], "window": 50, "threshold": 10, "replicates": 500},
    },
]

# the range each check accepts for a lemma field (no upper end when None); every draw ends by _MAX_HORIZON
LEMMA_RANGES = {
    ("resampling", "cases", 0, "k"): (1, 61),  # k <= n + 1
    ("resampling", "cases", 0, "j"): (1, None),
    ("resampling", "cases", 0, "n"): (1, _MAX_HORIZON - 1),  # n >= k - 1; the draw ends at n + block_len - 1
    ("resampling", "cases", 0, "block_len"): (1, 3),
    ("resampling", "replicates"): (1, None),
    ("divergence", "horizon"): (1, _MAX_HORIZON),
    ("divergence", "replicates"): (1, None),
    ("return_time", "window"): (1, _MAX_HORIZON - 1),  # the draw ends at window + len(block) - 1
    ("return_time", "threshold"): (1, None),
    ("return_time", "replicates"): (1, None),
}

# the range resolved() accepts for an experiment field; the documents with an eval_grid have horizon 512
EXPERIMENT_RANGES = {
    ("experiment", "horizon"): (1, _MAX_HORIZON),
    ("experiment", "replicates"): (1, None),
    ("experiment", "workers"): (1, None),
    ("experiment", "base_seed"): (0, 2**64 - 1),
    **{("experiment", "eval_grid", i): (1, 512) for i in range(3)},
}

MUTATIONS = {
    "wrong type": [True, None, "x", {}, [1]],
    "zero": [0, 0.0],
    "negative": [-1, -0.5, -(2**64)],
    "out of range": [10**9, 2**64, 1.5, 1e300],
    "not a float": [math.inf, math.nan, 10**400],
    "empty list": [[]],
    "string decimal": ["0.5", "2"],
}
VALUES = [value for values in MUTATIONS.values() for value in values]


def _paths(value, path=()):
    """Every position in a document: object members, list items, and the
    lists and objects themselves."""
    if path:
        yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _paths(item, path + (i,))


def _replaced(doc, path, value):
    doc = copy.deepcopy(doc)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = copy.deepcopy(value)
    return doc


def _parse_simulate(doc):
    spec = build_process(doc)
    build_experiment(doc, spec, build_schedules(doc, spec.alphabet))


def _parse_lemmas(doc):
    spec = build_process(doc)
    return build_lemma_plan(doc, spec, build_schedules(doc, spec.alphabet))


SIMULATE_CASES = [(doc, path) for doc in SIMULATE_DOCS for path in _paths(doc)]
LEMMA_CASES = [(doc, path) for doc in LEMMA_DOCS for path in _paths(doc)]


def _parses_or_config_error(parse, doc) -> bool:
    try:
        parse(doc)
    except ConfigError:
        return False
    return True


def _assert_in_range(value, low, high):
    assert isinstance(value, int) and not isinstance(value, bool)
    assert low <= value and (high is None or value <= high)


def test_unmodified_documents_parse():
    for doc in SIMULATE_DOCS:
        _parse_simulate(doc)
    for doc in LEMMA_DOCS:
        _parse_lemmas(doc)


@settings(max_examples=500, deadline=None)
@given(case=st.sampled_from(SIMULATE_CASES), value=st.sampled_from(VALUES))
def test_simulate_field_mutation_parses_or_raises_config_error(case, value):
    doc, path = case
    if _parses_or_config_error(_parse_simulate, _replaced(doc, path, value)) and path in EXPERIMENT_RANGES:
        _assert_in_range(value, *EXPERIMENT_RANGES[path])  # accepted only within the range resolved() takes


@settings(max_examples=500, deadline=None)
@given(case=st.sampled_from(LEMMA_CASES), value=st.sampled_from(VALUES))
def test_lemmas_field_mutation_parses_or_raises_config_error(case, value):
    doc, path = case
    if _parses_or_config_error(_parse_lemmas, _replaced(doc, path, value)) and path in LEMMA_RANGES:
        _assert_in_range(value, *LEMMA_RANGES[path])  # accepted only within the range its check takes

