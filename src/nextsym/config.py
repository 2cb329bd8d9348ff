"""Config document parsing and validation for the CLI.

One JSON document with sections ``process``, ``schedules`` and (for the
simulate command) ``experiment``; the lemmas command reads sections
``resampling``, ``divergence`` and ``return_time`` instead.  Validation
errors carry the offending field path.  The probability tables, schedule
coefficients, payoffs and experiment fields go to the library constructors
as written: they check every number with the one integer and one real
reader in ``sequences``, and config only puts the section path
(``process.``, ``schedules.K.``, ``experiment.payoff.``, ``experiment.``)
before their message.  Numbers must be JSON numbers: decimals as strings
are rejected to avoid locale ambiguity, and NaN and infinity on load.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .estimator import SCHEDULE_CAP, ConstantSchedule, LinearJ, LogK, PayoffFunction, Schedules, schedule_J
from .processes import MAX_BLOCKS, HiddenMarkovProcess, IIDProcess, MarkovProcess, ProcessSpec, block_space_fits
from .seeding import MAX_SEED
from .sequences import MAX_ALPHABET, Alphabet, _integer as _read_integer

__all__ = [
    "ConfigError",
    "load_document",
    "build_process",
    "build_schedules",
    "build_experiment",
    "build_lemma_plan",
    "LemmaPlan",
]


class ConfigError(ValueError):
    """A config document failed validation; the message names the field."""


def load_document(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config is not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    _reject_non_finite(doc, "")
    return doc


def _reject_non_finite(value, path: str) -> None:
    """Raise with the field path of the first NaN or infinite number, whether
    it was written as a literal (NaN, Infinity) or overflowed (1e999)."""
    if isinstance(value, dict):
        for key, item in value.items():
            _reject_non_finite(item, f"{path}.{key}" if path else str(key))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _reject_non_finite(item, f"{path}[{i}]")
    elif isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{path or 'config'} must be a finite number, got {value!r}")


def _prefixed(prefix: str, build, *args):
    """build(*args), whose ValueError becomes a ConfigError with the field
    path ``prefix`` put before the library's message."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from exc


def _integer(value, path: str, low: int, high: int | None = None) -> int:
    """The library's integer reader, failing with a ConfigError."""
    return _prefixed("", _read_integer, value, path, low, high)


def build_alphabet(value, path: str = "process.alphabet") -> Alphabet:
    if isinstance(value, str):
        symbols = list(value)
    elif isinstance(value, list):
        symbols = value
    elif isinstance(value, int) and not isinstance(value, bool):
        return Alphabet.of_size(_integer(value, f"{path} size", 2, MAX_ALPHABET))
    else:
        raise ConfigError(f"{path} must be a string, list of tokens, or integer size")
    alphabet = _prefixed(f"{path}: ", Alphabet, symbols)
    printed = {}  # the CSV header and the outputs name each symbol by its str()
    for symbol in alphabet.symbols:
        text = str(symbol)
        if text in printed:
            raise ConfigError(
                f"{path} must be distinct when printed: {printed[text]!r} and {symbol!r} both print as {text!r}"
            )
        printed[text] = symbol
    return alphabet


def build_process(doc: dict) -> ProcessSpec:
    section = doc.get("process")
    if section is None:
        section = {"kind": "iid", "alphabet": "01", "probs": [0.5, 0.5]}
    if not isinstance(section, dict):
        raise ConfigError("process must be an object")
    kind = section.get("kind")
    if kind not in ("iid", "markov", "hmm"):
        raise ConfigError(f"process.kind must be one of iid/markov/hmm, got {kind!r}")
    alphabet = build_alphabet(section.get("alphabet", "01"))
    if kind == "iid":
        return _prefixed("process.", IIDProcess, alphabet, section.get("probs"))
    if kind == "markov":
        return _prefixed("process.", MarkovProcess, alphabet, section.get("order", 1), section.get("transition"))
    return _prefixed("process.", HiddenMarkovProcess, alphabet, section.get("transition"), section.get("emission"))


def build_schedules(doc: dict, alphabet: Alphabet, path: str = "schedules") -> Schedules:
    section = doc.get("schedules", {})
    if not isinstance(section, dict):
        raise ConfigError(f"{path} must be an object")
    defaults = Schedules.default(alphabet.size)

    k_desc = section.get("K")
    if k_desc is None:
        k_fn = defaults.K
    else:
        if not isinstance(k_desc, dict):
            raise ConfigError(f"{path}.K must be an object")
        kind = k_desc.get("kind", "log")
        if kind == "log":
            k_fn = _prefixed(f"{path}.K.", LogK, k_desc.get("base", alphabet.size), k_desc.get("coeff", 0.1))
        elif kind == "constant":
            k_fn = ConstantSchedule(_integer(k_desc.get("value"), f"{path}.K.value", 1, SCHEDULE_CAP))
        else:
            raise ConfigError(f"{path}.K.kind must be log or constant, got {kind!r}")

    j_desc = section.get("J")
    if j_desc is None:
        j_fn = schedule_J
    else:
        if not isinstance(j_desc, dict):
            raise ConfigError(f"{path}.J must be an object")
        kind = j_desc.get("kind", "sqrt")
        if kind == "sqrt":
            j_fn = schedule_J
        elif kind == "linear":
            j_fn = _prefixed(f"{path}.J.", LinearJ, j_desc.get("coeff", 1.0))
            if j_fn.coeff <= 0:  # LinearJ accepts it on purpose (J = 1 at every n); a config J must grow
                raise ConfigError(f"{path}.J.coeff must be positive")
        elif kind == "constant":
            j_fn = ConstantSchedule(_integer(j_desc.get("value"), f"{path}.J.value", 1, SCHEDULE_CAP))
        else:
            raise ConfigError(f"{path}.J.kind must be sqrt/linear/constant, got {kind!r}")
    return Schedules(K=k_fn, J=j_fn)


def build_payoff(desc, alphabet: Alphabet, path: str = "experiment.payoff") -> PayoffFunction | None:
    """None means full-distribution mode."""
    if desc is None:
        return None
    if not isinstance(desc, dict):
        raise ConfigError(f"{path} must be an object")
    kind = desc.get("kind", "distribution")
    if kind == "distribution":
        return None
    if kind == "indicator":
        return _prefixed(f"{path}.symbol: ", PayoffFunction.indicator, alphabet, desc.get("symbol"))
    if kind == "table":
        return _prefixed(f"{path}.", PayoffFunction.from_map, alphabet, desc.get("values"))
    raise ConfigError(f"{path}.kind must be distribution/indicator/table, got {kind!r}")


def build_experiment(doc: dict, spec: ProcessSpec, schedules: Schedules) -> "ExperimentConfig":
    from .harness import ExperimentConfig  # imported here so the verify command does not load the harness

    section = doc.get("experiment")
    if not isinstance(section, dict):
        raise ConfigError("experiment section is required and must be an object")
    epsilons = section.get("epsilons")
    cfg = ExperimentConfig(  # resolved() checks every field; JSON null is the default only for the two lists
        spec=spec,
        horizon=section.get("horizon"),
        replicates=section.get("replicates", 1),
        schedules=schedules,
        eval_grid=section.get("eval_grid"),
        epsilons=ExperimentConfig.epsilons if epsilons is None else epsilons,
        payoff=build_payoff(section.get("payoff"), spec.alphabet),
        base_seed=section.get("base_seed", 0),
        workers=section.get("workers", 1),
    )
    return _prefixed("experiment.", cfg.resolved)  # every message starts with its field


@dataclass(frozen=True)
class LemmaPlan:
    """Parsed parameters for the three lemma checks, each within the range
    its check accepts."""

    resampling_cases: tuple  # (k, j, n, block_len) per case
    resampling_replicates: int
    resampling_seed: int
    divergence_horizon: int
    divergence_replicates: int
    divergence_schedules: Schedules
    divergence_seed: int
    return_block: tuple
    return_window: int
    return_threshold: int
    return_replicates: int
    return_seed: int


def build_lemma_plan(doc: dict, spec: ProcessSpec, schedules: Schedules) -> LemmaPlan:
    """Parse the lemma sections and reject, with the field path, every value
    the checks would refuse, so no check runs on a plan that fails later."""
    alphabet = spec.alphabet

    res = doc.get("resampling", {})
    if not isinstance(res, dict):
        raise ConfigError("resampling must be an object")
    raw_cases = res.get("cases", [{"k": 1, "j": 1, "n": 100}])
    if not isinstance(raw_cases, list) or not raw_cases:
        raise ConfigError("resampling.cases must be a non-empty list")
    cases = []
    for i, case in enumerate(raw_cases):
        path = f"resampling.cases[{i}]"
        if not isinstance(case, dict):
            raise ConfigError(f"{path} must be an object")
        n = _integer(case.get("n", 100), f"{path}.n", 0)
        k = _integer(case.get("k", 1), f"{path}.k", 1, n + 1)
        j = _integer(case.get("j", 1), f"{path}.j", 1)
        block_len = _integer(case.get("block_len", 1), f"{path}.block_len", 1, 3)
        if not block_space_fits(alphabet.size, block_len):
            raise ConfigError(
                f"{path}.block_len must be small enough that {alphabet.size}^block_len <= {MAX_BLOCKS}, "
                f"got {block_len}"
            )
        cases.append((k, j, n, block_len))

    div = doc.get("divergence", {})
    if not isinstance(div, dict):
        raise ConfigError("divergence must be an object")
    if "schedules" in div:
        k_path = "divergence.schedules.K"
        div_sched = build_schedules(div, alphabet, path="divergence.schedules")
    else:
        k_path = "schedules.K"
        div_sched = schedules
    div_horizon = _integer(div.get("horizon", 16384), "divergence.horizon", 1)
    final_cap = div_sched.K(div_horizon)
    if not block_space_fits(alphabet.size, final_cap):
        raise ConfigError(
            f"{k_path} must be small enough that {alphabet.size}^K(divergence.horizon) <= {MAX_BLOCKS}, "
            f"got K({div_horizon}) = {final_cap}"
        )

    ret = doc.get("return_time", {})
    if not isinstance(ret, dict):
        raise ConfigError("return_time must be an object")
    block_value = ret.get("block", alphabet.symbols[-1])
    tokens = list(block_value) if isinstance(block_value, (str, list)) else [block_value]
    try:
        block = tuple(alphabet.encode(t) for t in tokens)
    except ValueError as exc:
        raise ConfigError(f"return_time.block: {exc}") from exc
    if not block:
        raise ConfigError("return_time.block must not be empty")

    return LemmaPlan(
        resampling_cases=tuple(cases),
        resampling_replicates=_integer(res.get("replicates", 5000), "resampling.replicates", 1),
        resampling_seed=_integer(res.get("base_seed", 101), "resampling.base_seed", 0, MAX_SEED),
        divergence_horizon=div_horizon,
        divergence_replicates=_integer(div.get("replicates", 100), "divergence.replicates", 1),
        divergence_schedules=div_sched,
        divergence_seed=_integer(div.get("base_seed", 102), "divergence.base_seed", 0, MAX_SEED),
        return_block=block,
        return_window=_integer(ret.get("window", 100), "return_time.window", 1),
        return_threshold=_integer(ret.get("threshold", 30), "return_time.threshold", 1),
        return_replicates=_integer(ret.get("replicates", 20000), "return_time.replicates", 1),
        return_seed=_integer(ret.get("base_seed", 104), "return_time.base_seed", 0, MAX_SEED),
    )
