"""Run one nextsym CLI command in a fresh interpreter and report its timings.

Usage: python3 job.py JOB.json

JOB.json (written by run.py) holds ``root`` (the checkout), ``command``
(simulate or verify), ``argv`` for ``nextsym.cli.main``, ``config``
(the generated config path, or null), ``trace``, ``setup_only`` and
``spans`` (where the traced run writes its spans).  The job prints one JSON
object as the last line of its standard output; the CLI's own output goes to
``stdout.txt`` and ``stderr.txt`` beside JOB.json.

A fresh process per job means every job pays the imports and lazy set-up a
user of the CLI pays.  Set-up (import, config build, oracle construction) is
timed apart from the command itself.  An untraced job samples the host's
speed throughout (``speed.py``) and reports set-up and command times both
raw and rescaled to the nominal host speed.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import speed


def _rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def _child_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def main() -> int:
    job_path = Path(sys.argv[1])
    job = json.loads(job_path.read_text(encoding="utf-8"))
    src = os.path.join(job["root"], "src")
    sampler = None if job["trace"] else speed.Sampler()
    if sampler:
        sampler.start()
    try:
        return _run(job_path, job, src, sampler)
    finally:
        if sampler:
            sampler.stop()


def _run(job_path: Path, job: dict, src: str, sampler) -> int:
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import nextsym
    from nextsym import cli, config
    from nextsym.processes import Oracle

    t1 = time.perf_counter()
    if not os.path.realpath(nextsym.__file__).startswith(os.path.realpath(src) + os.sep):
        print(f"job: nextsym imported from {nextsym.__file__}, not from {src}", file=sys.stderr)
        return 2

    units = None
    if job["config"] is None:
        cli.build_parser().parse_args(job["argv"])
        t2 = t3 = time.perf_counter()
    else:
        doc = config.load_document(job["config"])
        spec = config.build_process(doc)
        schedules = config.build_schedules(doc, spec.alphabet)
        cfg = config.build_experiment(doc, spec, schedules)
        units = cfg.replicates * (cfg.horizon + 1)
        t2 = time.perf_counter()
        Oracle(spec)
        t3 = time.perf_counter()
    report = {
        "import_s": t1 - t0,
        "config_build_s": t2 - t1,
        "oracle_init_s": t3 - t2,
        "setup_s": t3 - t0,
    }
    if job["setup_only"]:
        if sampler:
            report["setup_speed"] = sampler.correct(t0, t3)
        print(json.dumps(report))
        return 0

    tracer = None
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.calibrate()
        flush = tracing.install(tracer)

    out_dir = job_path.parent
    cpu0 = _child_cpu_s()
    with open(out_dir / "stdout.txt", "w", encoding="utf-8") as out, open(
        out_dir / "stderr.txt", "w", encoding="utf-8"
    ) as err, redirect_stdout(out), redirect_stderr(err):
        span = tracer.begin("cli.main") if tracer else None
        start = time.perf_counter()
        exit_code = cli.main(job["argv"])
        wall = time.perf_counter() - start
        if tracer:
            tracer.end(span)
    child_cpu = _child_cpu_s() - cpu0
    if sampler:
        report["wall_speed"] = sampler.correct(start, start + wall)
        report["setup_speed"] = sampler.correct(t0, t3)
    report.update(
        exit_code=exit_code,
        wall_s=wall,
        units=units,
        child_cpu_s=child_cpu,
        peak_rss_mb=_rss_mb(),
    )
    if tracer:
        flush()
        report["layers"] = tracing.layer_metrics(tracer)
        report["wrapper_overhead_ns"] = tracer.wrapper_ns
        tracer.write(job["spans"])
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
