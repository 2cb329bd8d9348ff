"""Command-line interface.

Subcommands: ``simulate`` (run an experiment config, write metrics.csv,
tails.csv and manifest.json), ``estimate`` (replay a sequence file through
the estimator), ``verify`` (scanning, streaming and kernel equivalence suite) and
``lemmas`` (the three statistical lemma checks).

Exit codes: 0 success, 1 runtime failure (including a failed verification),
2 config or input validation error.  All commands are deterministic given
their flags and config; numeric output is printed with 12 significant
digits.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .config import (
    ConfigError,
    _integer,
    _prefixed,
    build_alphabet,
    build_experiment,
    build_lemma_plan,
    build_process,
    build_schedules,
    load_document,
)
from .estimator import Schedules
from .processes import RNG_ALGORITHM
from .seeding import MAX_SEED

CSV_SCHEMA_VERSION = 1
_METRICS_COLUMNS = "replicate,n,kappa,lambda,abstained,estimate_or_tv,oracle_summary,abs_error,cesaro_avg"
_TAILS_COLUMNS = "n,epsilon,fraction,wilson_halfwidth,replicates"


def run_experiment(cfg):
    """harness.run_experiment, imported on first call; a module attribute so a tracer can substitute it."""
    from .harness import run_experiment

    return run_experiment(cfg)


def verify_equivalence(**kwargs):
    """verify.verify_equivalence, imported on first call; a module attribute so a tracer can substitute it."""
    from .verify import verify_equivalence

    return verify_equivalence(**kwargs)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".12g")


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _write_text(path: Path, lines: list) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _metrics_lines(result, cfg, wide: bool) -> list:
    scalar = cfg.payoff is not None
    header = _METRICS_COLUMNS
    tokens = [str(t) for t in cfg.spec.alphabet.symbols]
    if wide:
        header += "," + ",".join(f"p_{t}" for t in tokens)
    lines = [header]
    for row in result.rows:
        if scalar:
            est_col, oracle_col = row.estimate, row.oracle
        else:
            est_col, oracle_col = row.abs_error, max(row.oracle)
        cells = [
            _fmt(row.replicate),
            _fmt(row.n),
            _fmt(row.context_len),
            _fmt(row.matches),
            _fmt(row.abstained),
            _fmt(est_col),
            _fmt(oracle_col),
            _fmt(row.abs_error),
            _fmt(row.cesaro_avg),
        ]
        if wide:
            cells.extend(_fmt(p) for p in row.estimate)
        lines.append(",".join(cells))
    return lines


def _tails_lines(result) -> list:
    lines = [_TAILS_COLUMNS]
    for t in result.tails:
        lines.append(
            ",".join(
                (_fmt(t.n), _fmt(t.epsilon), _fmt(t.fraction), _fmt(t.wilson_halfwidth), _fmt(t.replicates))
            )
        )
    return lines


def _write_manifest(path: Path, command: str, doc, started: str, finished: str, checks: dict) -> None:
    payload = {
        "tool": "nextsym",
        "version": __version__,
        "command": command,
        "rng": RNG_ALGORITHM,
        "csv_schema_version": CSV_SCHEMA_VERSION,
        "config": doc,
        "started_utc": started,
        "finished_utc": finished,
        "checks": checks,
    }
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_simulate(args) -> int:
    doc = load_document(args.config)
    spec = build_process(doc)
    schedules = build_schedules(doc, spec.alphabet)
    cfg = build_experiment(doc, spec, schedules)
    if args.workers is not None:
        cfg = replace(cfg, workers=_integer(args.workers, "--workers", 1))
    if args.wide and cfg.payoff is not None:
        raise ConfigError("--wide requires a distribution payoff (experiment.payoff.kind=distribution)")
    started = _utcnow()
    result = run_experiment(cfg)
    finished = _utcnow()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_text(out / "metrics.csv", _metrics_lines(result, cfg, args.wide))
    _write_text(out / "tails.csv", _tails_lines(result))
    _write_manifest(out / "manifest.json", "simulate", doc, started, finished, checks={})
    print(f"wrote {out / 'metrics.csv'}, {out / 'tails.csv'}, {out / 'manifest.json'}")
    return 0


def _alphabet_from_flag(value: str):
    tokens = value.split(",") if "," in value else value
    return build_alphabet(tokens, path="--alphabet")


def _read_symbols(path: str, alphabet, lines_mode: bool) -> list:
    """Symbol indices from a sequence file; raises ConfigError with the line
    number on unknown symbols."""
    out = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                tokens = [line.strip()] if lines_mode else line  # stripped lines or characters; blank ones skipped
                try:
                    out += [alphabet.encode(token) for token in tokens if token.strip()]
                except ValueError as exc:
                    raise ConfigError(f"line {lineno}: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read sequence file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"sequence file is not UTF-8: {exc}") from exc
    if not out:
        raise ConfigError("sequence file contains no symbols")
    return out


def cmd_estimate(args) -> int:
    from . import kernel

    alphabet = _alphabet_from_flag(args.alphabet)
    symbols = _read_symbols(args.sequence_file, alphabet, args.lines)
    first = len(symbols) - 1 if args.final_only else 0
    tokens = [str(t) for t in alphabet.symbols]
    rows = ["n,kappa,lambda,abstained," + ",".join(f"p_{t}" for t in tokens)]
    for part in kernel.replay(symbols, alphabet.size, Schedules.default(alphabet.size)):
        states = zip(part.kappa.tolist(), part.matches.tolist(), part.probs.tolist())
        for n, (kappa, matches, probs) in enumerate(states, part.start):
            if n >= first:
                cells = [_fmt(n), _fmt(kappa), _fmt(matches), _fmt(matches == 0)]
                rows.append(",".join(cells + [_fmt(p) for p in probs]))
    print("\n".join(rows))
    return 0


def cmd_verify(args) -> int:
    from .verify import _max_n

    cases, max_n = _integer(args.cases, "--cases", 1), _prefixed("", _max_n, args.max_n, "--max-n")
    report = verify_equivalence(cases=cases, max_n=max_n, seed=_integer(args.seed, "--seed", 0, MAX_SEED))
    if report.ok:
        print(
            f"equivalence ok: {report.cases} sequences, "
            f"{report.prefixes_checked} prefixes, scanning == streaming == kernel bit-for-bit"
        )
        return 0
    print("equivalence FAILED; first counterexample:", file=sys.stderr)
    for key, value in report.counterexample.items():
        print(f"  {key}: {value}", file=sys.stderr)
    return 1


def cmd_lemmas(args) -> int:
    doc = load_document(args.config)
    spec = build_process(doc)
    resampling, divergence, return_time = build_lemma_plan(doc, spec, build_schedules(doc, spec.alphabet))
    started = _utcnow()
    checks: dict = {}
    failed = False

    for check in resampling:
        report = check()
        name = f"resampling[k={report.k},j={report.j},n={report.n}]"
        checks[name] = report.status
        detail = (
            f"chi2={_fmt(report.statistic)} dof={report.dof} "
            f"threshold={_fmt(report.threshold)} usable={report.usable} "
            f"excluded={report.excluded} (p_excluded={_fmt(report.excluded / report.replicates)})"
        )
        print(f"{name}: {report.status} ({detail})")
        if report.status == "inconclusive":
            print(f"warning: {name} had fewer than 50 usable replicates", file=sys.stderr)
        failed |= report.status == "fail"

    report = divergence()
    checks["context_divergence"] = report.status
    if report.status == "hypothesis_violation":
        print(f"context_divergence: skipped, schedule hypotheses violated ({report.note})")
    else:
        print(
            f"context_divergence: {report.status} "
            f"(cap={report.final_cap} fraction_at_cap={_fmt(report.fraction_at_cap)}"
            + (f", note: {report.note}" if report.note else "")
            + ")"
        )
    failed |= report.status == "fail"

    report = return_time()
    checks["return_time_bound"] = report.status
    print(
        f"return_time_bound: {report.status} "
        f"(frequency={_fmt(report.frequency)} bound={_fmt(report.bound)})"
    )
    failed |= report.status == "fail"

    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_manifest(out / "manifest.json", "lemmas", doc, started, _utcnow(), checks)
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nextsym",
        description="Forward estimation experiments for finite-alphabet ergodic time series",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run an experiment config and write CSV metrics")
    sim.add_argument("--config", required=True, help="JSON config path")
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--wide", action="store_true", help="add one estimated-probability column per symbol")
    sim.add_argument("--workers", type=int, default=None, help="override experiment.workers")
    sim.set_defaults(func=cmd_simulate)

    est = sub.add_parser("estimate", help="replay a sequence file through the estimator")
    est.add_argument("sequence_file")
    est.add_argument("--alphabet", default="01", help="symbols, e.g. 01 or ab (comma-separated for multi-char tokens)")
    est.add_argument("--lines", action="store_true", help="one symbol per line instead of contiguous characters")
    est.add_argument("--final-only", action="store_true", dest="final_only", help="print only the last position")
    est.set_defaults(func=cmd_estimate)

    ver = sub.add_parser("verify", help="scanning, streaming and kernel equivalence suite")
    ver.add_argument("--max-n", type=int, default=2000, dest="max_n")
    ver.add_argument("--cases", type=int, default=200)
    ver.add_argument("--seed", type=int, default=2026)
    ver.set_defaults(func=cmd_verify)

    lem = sub.add_parser("lemmas", help="run the three statistical lemma checks")
    lem.add_argument("--config", required=True)
    lem.add_argument("--out", default=None, help="optionally write manifest.json here")
    lem.set_defaults(func=cmd_lemmas)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures map to exit 1
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
