"""Output checks for benchmark jobs, run after the timed region.

Each check returns ``(attempted, failed)`` counted in the workload's own
operations: a replicate for ``simulate`` and a case for ``verify``.  They call only public nextsym entry points that the
benchmark does not time: the config builders, ``generate``, ``derive_seed``,
``Oracle.cursor`` and the scanning evaluator.
"""

from __future__ import annotations

import csv
import hashlib
import re
from pathlib import Path

ORACLE_TOL = 1e-12


def _fmt(value) -> str:
    """The CLI's number format: integers plain, floats to 12 significant digits."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".12g")


def digests(job_dir: Path, command: str) -> dict:
    """sha256 of the files that carry a job's result."""
    names = ("metrics.csv", "tails.csv") if command == "simulate" else ("stdout.txt",)
    out = {}
    for name in names:
        path = job_dir / name
        out[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None
    return out


def _replay_conditionals(spec, seq, grid) -> dict:
    """Exact conditionals at the grid positions, from a fresh oracle cursor."""
    from nextsym import Oracle

    cursor = Oracle(spec).cursor()
    observe = cursor.observe
    wanted = set(grid)
    last = max(grid)
    out = {}
    for n, x in enumerate(seq):
        observe(x)
        if n in wanted:
            out[n] = cursor.conditional()
            if n == last:
                break
    return out


def _row_ok(row: dict, n: int, seq, cond, cfg, tokens) -> bool:
    from nextsym import estimate, estimate_distribution

    if cfg.payoff is not None:
        res = estimate(seq, n, cfg.payoff, cfg.schedules)
        oracle = sum(p * v for p, v in zip(cond, cfg.payoff.values))
        est_cells = {"estimate_or_tv": _fmt(res.value)}
        error = abs(res.value - oracle)
    else:
        res = estimate_distribution(seq, n, cfg.schedules)
        oracle = max(cond)
        est_cells = {f"p_{t}": _fmt(p) for t, p in zip(tokens, res.probs) if f"p_{t}" in row}
        error = 0.5 * sum(abs(p - q) for p, q in zip(res.probs, cond))
        if abs(float(row["estimate_or_tv"]) - error) > ORACLE_TOL:
            return False
    exact = {
        "kappa": _fmt(res.context_len),
        "lambda": _fmt(res.matches),
        "abstained": _fmt(res.abstained),
        **est_cells,
    }
    if any(row.get(key) != value for key, value in exact.items()):
        return False
    return (
        abs(float(row["oracle_summary"]) - oracle) <= ORACLE_TOL
        and abs(float(row["abs_error"]) - error) <= ORACLE_TOL
    )


def check_simulate(job_dir: Path, config_path: Path, exit_code: int) -> tuple:
    """Every grid row must equal the scanning evaluator on the regenerated
    trajectory (kappa, lambda, abstained, estimate as printed) and its oracle
    column must match a cursor replay within ORACLE_TOL."""
    from nextsym import config, derive_seed, generate

    doc = config.load_document(str(config_path))
    spec = config.build_process(doc)
    cfg = config.build_experiment(doc, spec, config.build_schedules(doc, spec.alphabet))
    attempted = cfg.replicates
    metrics, tails = job_dir / "metrics.csv", job_dir / "tails.csv"
    if exit_code != 0 or not metrics.is_file() or not tails.is_file():
        return attempted, attempted
    with open(tails, newline="", encoding="utf-8") as fh:
        if len(list(csv.DictReader(fh))) != len(cfg.eval_grid) * len(cfg.epsilons):
            return attempted, attempted
    by_rep: dict = {}
    with open(metrics, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            by_rep.setdefault(int(row["replicate"]), {})[int(row["n"])] = row
    tokens = [str(t) for t in spec.alphabet.symbols]
    failed = 0
    for r in range(cfg.replicates):
        rows = by_rep.get(r, {})
        ok = sorted(rows) == list(cfg.eval_grid)
        if ok:
            seq = generate(spec, derive_seed(cfg.base_seed, r), cfg.horizon).seq
            conds = _replay_conditionals(spec, seq, cfg.eval_grid)
            ok = all(_row_ok(rows[n], n, seq, conds[n], cfg, tokens) for n in cfg.eval_grid)
        failed += not ok
    return attempted, failed


_VERIFY_OK = re.compile(r"equivalence ok: (\d+) sequences, (\d+) prefixes")
_VERIFY_CASE = re.compile(r"^\s*case: (\d+)$", re.MULTILINE)


def check_verify(job_dir: Path, cases: int, exit_code: int) -> tuple:
    """``verify`` must exit 0 and report every case ok; returns
    (attempted, failed, prefixes checked)."""
    found = _VERIFY_OK.search((job_dir / "stdout.txt").read_text(encoding="utf-8"))
    if exit_code == 0 and found and int(found.group(1)) == cases:
        return cases, 0, int(found.group(2))
    first_bad = _VERIFY_CASE.search((job_dir / "stderr.txt").read_text(encoding="utf-8"))
    return cases, cases - int(first_bad.group(1)) if first_bad else cases, 0


def corrupt(job_dir: Path, command: str) -> None:
    """Damage one output on purpose (smoke check of the checks)."""
    if command == "simulate":
        path = job_dir / "metrics.csv"
        lines = path.read_text(encoding="utf-8").split("\n")
        cells = lines[1].split(",")
        cells[2] = str(int(cells[2]) + 1)  # kappa of the first row
        lines[1] = ",".join(cells)
        path.write_text("\n".join(lines), encoding="utf-8")
    else:
        path = job_dir / "stdout.txt"
        path.write_text(path.read_text(encoding="utf-8").replace("equivalence ok", "equivalence lost"), encoding="utf-8")
