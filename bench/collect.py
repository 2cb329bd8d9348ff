"""Run the benchmark over several seeds and summarise it as BENCH_<label>.json.

    python3 bench/collect.py --label baseline [--seeds 1-10] [--trace-seed 1]

For every workload it runs ``run.py --trace 0`` once per seed and reports,
per end-to-end metric, the median, the quartiles (``statistics.quantiles``,
n=4) and the spread: the interquartile distance as a share of the median,
next to the bound from BENCHMARK.json.  With ``--trace-seed`` it adds one
traced run per workload for the per-layer metrics.  The summary is written to
``bench/results/BENCH_<label>.json``; every run's own results file stays
under ``bench/out``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MACHINE_KEYS = ("nproc", "cpu_model", "python", "numpy", "scipy", "git_sha", "src_sha256")


def _seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    elapsed = time.perf_counter() - started
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["results_file"] = lines[-2].split(": ", 1)[1]
    result["run_s"] = elapsed
    return result


def summarise(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace-seed", type=int, default=None)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    summary = {"label": args.label, "run_seconds": seconds, "seeds": _seeds(args.seeds), "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in summary["seeds"]:
            result = _run(workload, seed, seconds, 0)
            runs.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: {result['run_s']:.1f}s correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        entry = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": {},
            "runs": runs,
        }
        for name, bound in bounds.items():
            stats = summarise([r["metrics"][name]["value"] for r in runs])
            stats.update(unit=runs[0]["metrics"][name]["unit"], bound=bound)
            entry["metrics"][name] = stats
            print(f"  {workload} {name}: median={stats['median']:.6g} [{stats['q1']:.6g}, {stats['q3']:.6g}] "
                  f"spread={stats['spread']:.4f} bound={bound}", flush=True)
        entry["failed_frac"] = entry["failed"] / entry["attempted"]
        if args.trace_seed is not None:
            traced = _run(workload, args.trace_seed, seconds, 1)
            entry["traced"] = {"seed": args.trace_seed, **traced}
            print(f"  {workload} traced: {traced['run_s']:.1f}s correct={traced['correct']}", flush=True)
        summary["workloads"][workload] = entry
        record = json.loads((ROOT / runs[0]["results_file"]).read_text(encoding="utf-8"))
        summary["provenance"] = {key: record["provenance"][key] for key in MACHINE_KEYS}

    out = BENCH / "results" / f"BENCH_{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
