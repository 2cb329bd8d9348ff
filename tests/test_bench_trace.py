"""The traced benchmark run still works against the current program.

``bench/tracing.py`` subclasses ``StreamingEstimator`` (built with
``horizon=``), passes ``estimator_factory=`` and ``schedules_for=`` to
``verify_equivalence``, wraps ``Oracle.cursor`` and ``generate``, and
``bench/checks.py`` reads ``generate(...).seq``.  Removing any of these
breaks ``bench/run.py --trace 1`` while the rest of the suite stays green,
so each workload is run traced at its smoke size here.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["sim-markov2", "sim-hmm-dist", "verify"])
def test_traced_smoke_run_checks_correct(workload):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", "1", "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300, check=False)
    lines = proc.stdout.strip().splitlines()
    for line in lines:
        if line.startswith("results: "):
            shutil.rmtree(ROOT / Path(line.split(": ", 1)[1]).parent, ignore_errors=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(lines[-1])["correct"] is True
