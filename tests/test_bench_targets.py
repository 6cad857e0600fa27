"""The benchmark's traced run still reports every per-layer metric it declares.

``bench/tracer.py`` wraps the functions named in its ``TARGETS`` for a traced run. A
target that a refactor renamed or deleted is skipped with a ``bench: warning`` line, and
the traced result loses that target's metrics without failing; anything printed at
interpreter exit lands after the result line. These tests only read and run ``bench/``.
They retire with ROADMAP item 2's benchmark-only change, after which the tracer reads an
in-package trace instead of patching names.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def test_every_tracer_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    assert tracer.missing_targets() == []


def test_traced_run_ends_with_every_per_layer_metric():
    argv = ["--workload", "simulate-csv", "--trace", "1", "--seconds", "0.1"]
    done = subprocess.run([sys.executable, str(BENCH / "run.py"), *argv], cwd=ROOT,
                          env={**os.environ, "PYTHONUNBUFFERED": "1"}, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, timeout=120)
    lines = done.stdout.splitlines()
    assert done.returncode == 0, done.stdout
    assert [line for line in lines if line.startswith("bench: warning")] == []
    result = json.loads(lines[-1])
    assert (result["correct"], result["failed"]) == (True, 0), lines[-1]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {metric["name"] for metric in declared} - result["metrics"].keys() == set()
