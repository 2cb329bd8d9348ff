"""nextsym benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its ``src``.
The workloads are the CLI config documents in ``bench/workloads``; the
benchmark writes each job's config with seeds derived from ``--seed``, so the
program receives only generated inputs.  Load model: batch jobs in a closed
loop, one job at a time, each in a fresh interpreter (``job.py``).

``--trace 0`` times jobs on the same inputs back to back until ``--seconds``
is spent (at least three) and reports the end-to-end metrics: medians over
jobs, and set-up as the median over the jobs plus dedicated set-up-only
processes.  Times are rescaled to a nominal host speed measured inside each
job (``speed.py``).  ``--trace 1``
runs the workload once untraced, once untraced with one worker (the tracing
reference), and once traced in-process, and reports the per-layer metrics.
Outputs are checked after the timed region (``checks.py``).  The last line of
standard output is the JSON result; a results file with provenance is
written under ``bench/out``.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = BENCH / "workloads"
OUT = BENCH / "out"

END_TO_END = {"setup_s": "s", "wall_s": "s", "steps_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "processes.generate.calls": "count",
    "processes.generate.us_per_call": "us",
    "processes.generate.ns_per_symbol": "ns",
    "processes.oracle_init.s": "s",
    "processes.observe.calls": "count",
    "processes.observe.ns": "ns",
    "processes.conditional.calls": "count",
    "processes.conditional.ns": "ns",
    "streaming.push.calls": "count",
    "streaming.push.ns": "ns",
    "streaming.probe.calls": "count",
    "streaming.probe.ns": "ns",
    "streaming.probe.abstain_frac": "ratio",
    "streaming.probe.at_cap_frac": "ratio",
    "streaming.query.calls": "count",
    "streaming.query.ns": "ns",
    "streaming.op_count_per_push": "count",
    "streaming.stored_keys": "count",
    "estimator.schedule.calls": "count",
    "estimator.schedule.ns": "ns",
    "estimator.scan.calls": "count",
    "estimator.scan.us": "us",
    "estimator.recurrence_times.calls": "count",
    "estimator.recurrence_times.us": "us",
    "harness.replicate.calls": "count",
    "harness.replicate.s": "s",
    "harness.replicate.self_us_per_step": "us",
    "harness.aggregate.s": "s",
    "harness.pool.cpu_per_wall": "ratio",
    "verify.case.calls": "count",
    "verify.case.s": "s",
    "verify.self_s": "s",
    "import.s": "s",
    "config.build.s": "s",
    "cli.write.s": "s",
    "tracing.overhead_frac": "ratio",
}

SETUP_PROBES = 5  # set-up-only processes per timed run, besides the jobs' own set-up
MIN_JOBS = 3
DEADLINE_S = 170  # the whole run must end well inside 180 s


class BenchError(RuntimeError):
    pass


def _derived_seed(seed: int, field: int) -> int:
    """64-bit seed for one seed field of the workload, a pure function of --seed."""
    digest = hashlib.sha256(f"nextsym-bench/{seed}/{field}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _set_path(doc: dict, dotted: str, value) -> None:
    *parents, last = dotted.split(".")
    for key in parents:
        doc = doc[key]
    doc[last] = value


class Run:
    def __init__(self, name: str, seed: int, trace: bool, smoke: bool):
        spec = json.loads((WORKLOADS / f"{name}.json").read_text(encoding="utf-8"))
        self.name = name
        self.seed = seed
        self.bench = spec.pop("bench")
        self.doc = spec
        self.command = self.bench["command"]
        self.cli_args = list(self.bench["cli_args"])
        if trace:
            for dotted, value in self.bench.get("trace", {}).get("config", {}).items():
                _set_path(self.doc, dotted, value)
        if smoke:
            for dotted, value in self.bench["smoke"].get("config", {}).items():
                _set_path(self.doc, dotted, value)
            self.cli_args = list(self.bench["smoke"].get("cli_args", self.cli_args))
        self.dir = OUT / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.deadline = time.monotonic() + DEADLINE_S
        self.jobs = 0

    def make_job(self, *, trace=False, setup_only=False, workers=None) -> dict:
        """Write one job; every job of a run gets the same seeds."""
        job_dir = self.dir / f"job{self.jobs}"
        self.jobs += 1
        job_dir.mkdir()
        argv = [self.command]
        config_path = None
        if self.doc:
            doc = copy.deepcopy(self.doc)
            for field, dotted in enumerate(self.bench["seed_paths"]):
                _set_path(doc, dotted, _derived_seed(self.seed, field))
            config_path = job_dir / "config.json"
            config_path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
            argv += ["--config", str(config_path), "--out", str(job_dir)]
        else:
            for field, flag in enumerate(self.bench["seed_paths"]):
                argv += [flag, str(_derived_seed(self.seed, field))]
        argv += self.cli_args
        if workers is not None:
            argv += ["--workers", str(workers)]
        job = {
            "root": str(ROOT),
            "command": self.command,
            "argv": argv,
            "config": None if config_path is None else str(config_path),
            "trace": trace,
            "setup_only": setup_only,
            "spans": str(job_dir / "spans.json"),
        }
        (job_dir / "job.json").write_text(json.dumps(job, indent=1), encoding="utf-8")
        return {"dir": job_dir, "config": config_path, "argv": argv}

    def run_job(self, job: dict) -> dict:
        """Run job.py in its own session; on timeout kill the whole group."""
        env = dict(os.environ, TMPDIR=str(self.dir))
        env.pop("PYTHONPATH", None)
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "job.py"), str(job["dir"] / "job.json")],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"job {job['dir'].name} did not finish before the run deadline")
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"job {job['dir'].name} failed (exit {proc.returncode}): {err.strip()[-2000:]}")
        return json.loads(lines[-1])

    def check(self, job: dict, report: dict) -> tuple:
        import checks

        if self.command == "simulate":
            return checks.check_simulate(job["dir"], job["config"], report["exit_code"])
        cases = int(self.cli_args[self.cli_args.index("--cases") + 1])
        attempted, failed, prefixes = checks.check_verify(job["dir"], cases, report["exit_code"])
        report["units"] = prefixes
        return attempted, failed


def timed_run(run: Run, seconds: float, corrupt: bool) -> dict:
    import checks

    setups = [run.run_job(run.make_job(setup_only=True))["setup_speed"] for _ in range(SETUP_PROBES)]
    jobs = []
    start = time.perf_counter()
    while len(jobs) < MIN_JOBS or (
        time.perf_counter() - start + statistics.median(r["wall_s"] for _, r in jobs) <= seconds
    ):
        job = run.make_job()
        jobs.append((job, run.run_job(job)))
    measured_s = time.perf_counter() - start

    # Every job runs the same inputs; a job whose outputs and exit code are
    # byte-identical to a job already checked in full shares its verdict.
    attempted = failed = 0
    verdicts = {}
    for i, (job, report) in enumerate(jobs):
        if corrupt and i == 0:
            checks.corrupt(job["dir"], run.command)
        report["digests"] = checks.digests(job["dir"], run.command)
        key = json.dumps([report["exit_code"], report["digests"]], sort_keys=True)
        if key not in verdicts:
            verdicts[key] = (*run.check(job, report), report["units"])
        a, f, report["units"] = verdicts[key]
        attempted += a
        failed += f
        report["attempted"], report["failed"] = a, f
    reports = [r for _, r in jobs]
    walls = [r["wall_speed"]["corrected_s"] for r in reports]
    metrics = {
        "setup_s": statistics.median(s["corrected_s"] for s in setups + [r["setup_speed"] for r in reports]),
        "wall_s": statistics.median(walls),
        "steps_per_s": statistics.median(r["units"] / wall for r, wall in zip(reports, walls)),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in reports),
    }
    details = {"setup_probes_s": setups, "jobs": reports, "measured_s": measured_s}
    return _result(metrics, END_TO_END, attempted, failed, details)


def traced_run(run: Run, corrupt: bool) -> dict:
    import checks

    pool = run.bench.get("pool_workers")

    ref_job = run.make_job()
    ref = run.run_job(ref_job)
    if corrupt:
        checks.corrupt(ref_job["dir"], run.command)
    attempted, failed = run.check(ref_job, ref)
    digest = checks.digests(ref_job["dir"], run.command)
    jobs = {"untraced": (ref_job, ref)}
    if pool:
        job = run.make_job(workers=pool)
        jobs["untraced_pool"] = (job, run.run_job(job))
    job = run.make_job(trace=True)
    jobs["traced"] = (job, run.run_job(job))

    mismatched = [
        key for key, (job, _) in jobs.items() if key != "untraced" and checks.digests(job["dir"], run.command) != digest
    ]
    if mismatched:
        failed = attempted
    traced = jobs["traced"][1]
    metrics = dict(traced["layers"])
    metrics.update(
        {
            "processes.oracle_init.s": traced["oracle_init_s"],
            "import.s": traced["import_s"],
            "config.build.s": traced["config_build_s"],
            "harness.pool.cpu_per_wall": (
                jobs["untraced_pool"][1]["child_cpu_s"] / jobs["untraced_pool"][1]["wall_s"] if pool else 0.0
            ),
            "tracing.overhead_frac": traced["wall_s"] / (ref["wall_s"] - ref["wall_speed"]["reference_s"]) - 1.0,
        }
    )
    details = {
        "digests": digest,
        "digest_mismatch": mismatched,
        "jobs": {key: {"dir": job["dir"].name, **report} for key, (job, report) in jobs.items()},
        "spans_file": str((jobs["traced"][0]["dir"] / "spans.json").relative_to(ROOT)),
    }
    return _result(metrics, PER_LAYER, attempted, failed, details)


def _result(metrics: dict, units: dict, attempted: int, failed: int, details: dict) -> dict:
    missing = set(units) - set(metrics)
    if missing:
        raise BenchError(f"metrics not produced: {sorted(missing)}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "details": details,
    }


def provenance(args, run: Run) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    git_sha = None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            git_sha = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "nextsym").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_sha": git_sha,
        "src_sha256": src_hash.hexdigest(),
        "workload": run.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "corrupt": args.corrupt,
        "command": run.command,
        "cli_args": run.cli_args,
        "config": run.doc or None,
        "seed_paths": run.bench["seed_paths"],
        "setup_probes": SETUP_PROBES,
        "min_jobs": MIN_JOBS,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(p.stem for p in WORKLOADS.glob("*.json")))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes from each workload's smoke section")
    parser.add_argument("--corrupt", action="store_true", help="damage one output before checking (smoke check)")
    args = parser.parse_args(argv)
    if not (SRC / "nextsym" / "__init__.py").is_file():
        print(f"error: no nextsym sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    run = Run(args.workload, args.seed, bool(args.trace), args.smoke)
    try:
        result = traced_run(run, args.corrupt) if args.trace else timed_run(run, args.seconds, args.corrupt)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    details = result.pop("details")
    record = {"provenance": provenance(args, run), **result, "failed_frac": result["failed"] / result["attempted"],
              "details": details}
    (run.dir / "result.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"results: {(run.dir / 'result.json').relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
