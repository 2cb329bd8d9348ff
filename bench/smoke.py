"""Smoke check of the benchmark itself, at tiny sizes (about a minute).

    python3 bench/smoke.py

For every workload it runs ``run.py --smoke`` untraced and traced and
asserts that the result line has exactly its four documented keys, that
every metric named in BENCHMARK.json is emitted with its unit and nothing
else, and that the outputs check as correct.  It then damages one output per
workload (``--corrupt``) and asserts the failure is counted in ``failed`` and
in the results file's ``failed_frac``.  Last, it copies only BENCHMARK.json
and the benchmark's own directories into an empty directory and asserts the
benchmark exits non-zero there without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cwd: Path, workload: str, *flags: str, trace: int = 0):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), *flags]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180, check=False)


def result_of(proc) -> tuple:
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == KEYS, sorted(result)
    record = json.loads((ROOT / lines[-2].split(": ", 1)[1]).read_text(encoding="utf-8"))
    return result, record


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, names in wanted.items():
            result, record = result_of(run(ROOT, workload, "--smoke", trace=trace))
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == names, f"{workload} trace {trace}: metrics differ: {set(got) ^ set(names)}"
            assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
            assert record["failed_frac"] == 0.0
            print(f"ok   {workload} trace={trace}: {len(got)} metrics, {result['attempted']} operations")
        result, record = result_of(run(ROOT, workload, "--smoke", "--corrupt"))
        assert not result["correct"] and result["failed"] >= 1, result
        assert record["failed_frac"] > 0.0, record["failed_frac"]
        print(f"ok   {workload} corrupted output: failed_frac={record['failed_frac']:.3f}")

    bare = BENCH / "out" / "smoke-bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for rel in bench["paths"]:
        shutil.copytree(ROOT / rel, bare / rel, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(bare, bench["workloads"][0]["name"])
    shutil.rmtree(bare)
    assert proc.returncode != 0, "benchmark exited 0 without the program's sources"
    assert not any(line.startswith("{") for line in proc.stdout.splitlines()), proc.stdout
    print(f"ok   without sources: exit {proc.returncode}, no result printed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
