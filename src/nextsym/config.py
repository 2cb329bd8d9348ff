"""Config document parsing and validation for the CLI.

One JSON document with sections ``process``, ``schedules`` and (for the
simulate command) ``experiment``; the lemmas command reads sections
``resampling``, ``divergence`` and ``return_time`` instead.  Validation
errors carry the offending field path.  Numbers must be JSON numbers:
decimals as strings are rejected to avoid locale ambiguity.
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


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path} must be a number, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{path} must be a finite number, got {value!r}")
    return float(value)


def _integer(value, path: str, low: int, high: int | None = None) -> int:
    """The library's integer reader, failing with a ConfigError."""
    try:
        return _read_integer(value, path, low, high)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _matrix(value, path: str) -> list:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path} must be a non-empty list of rows")
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or not row:
            raise ConfigError(f"{path}[{i}] must be a non-empty list of numbers")
        rows.append([_number(v, f"{path}[{i}][{j}]") for j, v in enumerate(row)])
    return rows


def build_alphabet(value, path: str = "process.alphabet") -> Alphabet:
    if isinstance(value, str):
        symbols = list(value)
    elif isinstance(value, list):
        symbols = value
    elif isinstance(value, int) and not isinstance(value, bool):
        return Alphabet.of_size(_integer(value, f"{path} size", 2, MAX_ALPHABET))
    else:
        raise ConfigError(f"{path} must be a string, list of tokens, or integer size")
    try:
        alphabet = Alphabet(symbols)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
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
    try:
        if kind == "iid":
            probs = section.get("probs")
            if not isinstance(probs, list):
                raise ConfigError("process.probs must be a list of numbers")
            vals = [_number(v, f"process.probs[{i}]") for i, v in enumerate(probs)]
            return IIDProcess(alphabet, tuple(vals))
        if kind == "markov":
            order = _integer(section.get("order", 1), "process.order", 1)
            if not block_space_fits(alphabet.size, order):
                raise ConfigError(
                    f"process.order must be small enough that {alphabet.size}^order <= {MAX_BLOCKS}, got {order}"
                )
            rows = _matrix(section.get("transition"), "process.transition")
            return MarkovProcess(alphabet, order, tuple(tuple(r) for r in rows))
        transition = _matrix(section.get("transition"), "process.transition")
        emission = _matrix(section.get("emission"), "process.emission")
        return HiddenMarkovProcess(
            alphabet, tuple(tuple(r) for r in transition), tuple(tuple(r) for r in emission)
        )
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"process: {exc}") from exc


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
            coeff = _number(k_desc.get("coeff", 0.1), f"{path}.K.coeff")
            if coeff <= 0:
                raise ConfigError(f"{path}.K.coeff must be positive")
            base = _integer(k_desc.get("base", alphabet.size), f"{path}.K.base", 2)
            try:
                k_fn = LogK(base, coeff)
            except ValueError as exc:
                raise ConfigError(f"{path}.K.coeff: {exc}") from exc
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
            coeff = _number(j_desc.get("coeff", 1.0), f"{path}.J.coeff")
            if coeff <= 0:
                raise ConfigError(f"{path}.J.coeff must be positive")
            j_fn = LinearJ(coeff)
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
        symbol = desc.get("symbol")
        try:
            return PayoffFunction.indicator(alphabet, symbol)
        except ValueError as exc:
            raise ConfigError(f"{path}.symbol: {exc}") from exc
    if kind == "table":
        values = desc.get("values")
        if not isinstance(values, dict):
            raise ConfigError(f"{path}.values must be an object mapping symbols to numbers")
        mapping = {}
        for token, v in values.items():
            mapping[token] = _number(v, f"{path}.values[{token!r}]")
        try:
            return PayoffFunction.from_map(alphabet, mapping)
        except ValueError as exc:
            raise ConfigError(f"{path}.values: {exc}") from exc
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
    try:
        return cfg.resolved()
    except ValueError as exc:
        raise ConfigError(f"experiment.{exc}") from exc  # every message starts with its field


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
