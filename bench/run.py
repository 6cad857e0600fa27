"""Benchmark of the loadshare CLI, end to end and layer by layer.

Run from the root of a checkout:

    python3 bench/run.py --workload fit-csv --seed 1 --seconds 20 --trace 0

``--trace 0`` times real CLI invocations (``python -m loadshare ...``), one
child process at a time in a closed loop, and reports the end-to-end
metrics. ``--trace 1`` runs the same argument lists in-process through
``loadshare.cli.main`` with the per-layer tracer installed and reports the
per-layer metrics. ``--workload all`` runs every workload in turn. The last
line of stdout is one JSON object: correct, attempted, failed and metrics;
the line before it is a JSON report with host facts, sample counts and the
workload-specific metrics.
"""

from __future__ import annotations

import os

# Children and this process get single-threaded numeric libraries, so that
# the load stays at one busy core.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tracer
from workloads import WORKLOADS, Check, Outcome

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 9
IMPORT_SAMPLES = 5
MIN_OPS = 3
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "work_per_s": "1/s",
}

PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.numpy_import_s": "s",
    "cli.self_s": "s",
    "io.self_s": "s",
    "model.self_s": "s",
    "estimate.self_s": "s",
    "oracle.self_s": "s",
    "simulate.self_s": "s",
    "io.read_dataset.self_s": "s",
    "io.read_dataset.rows_per_s": "rows/s",
    "io.write_dataset.self_s": "s",
    "io.write_dataset.rows_per_s": "rows/s",
    "model.spacings_from_lifetimes.self_s": "s",
    "model.SpacingsMatrix.calls": "count",
    "model.SpacingsMatrix.us_per_call": "us",
    "model.log_likelihood.calls": "count",
    "model.log_likelihood.us_per_call": "us",
    "estimate.closed_form_mle.calls": "count",
    "estimate.closed_form_mle.us_per_call": "us",
    "oracle.numeric_mle.self_s": "s",
    "oracle.evals_per_instance": "count",
    "oracle.sweeps_per_instance": "count",
    "oracle.evals_per_sweep": "count",
    "oracle.loglik_share": "ratio",
    "oracle.no_convergence": "count",
    "oracle.param_margin": "ratio",
    "oracle.loglik_margin": "ratio",
    "simulate.RngState.child.us_per_call": "us",
    "simulate.sample_dataset.us_per_call": "us",
    "simulate.mc_study.us_per_rep": "us",
    "simulate.bias_sigma": "sigma",
    "trace.main_s": "s",
    "trace.overhead_frac": "ratio",
}


@dataclass
class Invocation:
    outcome: Outcome
    wall_s: float
    cpu_s: float
    rss_mb: float


class Tally:
    """Operations attempted and failed; each failure is reported on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.facts = []

    def record(self, check) -> None:
        self.attempted += 1
        if check.ok:
            self.facts.append(check.facts)
        else:
            self.failed += 1
            tracer.warn(f"output check failed: {check.reason}")


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


class Spawner:
    """Runs ``python -m loadshare ARGV`` children through ``spawner.py``.

    The helper keeps the children's peak RSS free of this process's own;
    see its docstring. Use as a context manager: leaving it ends the helper
    and waits for it.
    """

    def __init__(self, tmp: Path):
        self._out_path = tmp / "child.stdout"
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("spawner.py")), str(CHILD_TIMEOUT_S)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True,
        )

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._proc.stdin.close()
        self._proc.wait(timeout=CHILD_TIMEOUT_S)
        self._proc.stdout.close()
        return False

    def run(self, argv: list[str]) -> Invocation:
        request = [[sys.executable, "-m", "loadshare", *argv], str(self._out_path)]
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("the spawner helper exited early")
        code, wall, cpu, maxrss_kib = json.loads(reply)
        stdout = self._out_path.read_text(encoding="utf-8", errors="replace")
        return Invocation(Outcome(code, stdout), wall, cpu, maxrss_kib / 1024.0)


def _cache_sizes() -> dict:
    """Unified and data cache sizes per level, as the kernel reports them for CPU 0."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"l{level}"] = size
    return sizes


def host_facts() -> dict:
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(workload, seconds: float, tmp: Path, tally: Tally):
    """End-to-end metrics from CLI child processes; returns (metrics, report)."""
    setup, walls, cpus, rss = [], [], [], []
    with Spawner(tmp) as spawner:

        def operation():
            runs = [spawner.run(argv) for argv in workload.invocations()]
            tally.record(workload.check([r.outcome for r in runs]))
            return runs

        def setup_sample():
            run = spawner.run(["--help"])
            tally.record(_help_check(run.outcome))
            setup.append(run.wall_s)

        operation()  # warm-up: .pyc compilation and the page cache fill land here
        start = time.perf_counter()
        while len(walls) < MIN_OPS or time.perf_counter() - start < seconds:
            # One start-up sample per operation spreads them over the whole run,
            # so that slow drift of the host hits setup_s as it hits wall_s.
            setup_sample()
            runs = operation()
            walls.append(sum(r.wall_s for r in runs))
            cpus.append(sum(r.cpu_s for r in runs))
            rss.append(max(r.rss_mb for r in runs))
        while len(setup) < SETUP_SAMPLES:
            setup_sample()
    work_per_s = workload.units_per_op * len(walls) / sum(walls)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": statistics.median(rss),
        "work_per_s": work_per_s,
    }
    samples = {name: len(walls) for name in metrics}
    samples["setup_s"] = len(setup)
    extra = {
        f"{workload.units}_per_s": _metric(work_per_s, f"{workload.units}/s"),
        "fail_frac": _metric(tally.failed / tally.attempted, "ratio"),
    }
    for fact, unit in (("param_margin", "ratio"), ("loglik_margin", "ratio"),
                       ("bias_sigma", "sigma")):
        values = [f[fact] for f in tally.facts if fact in f]
        if values:
            extra[fact] = _metric(max(values), unit)
    return metrics, {"samples": samples, "also": extra}


def _help_check(outcome: Outcome) -> Check:
    ok = outcome.code == 0 and outcome.stdout.startswith("usage: loadshare")
    return Check(ok, f"--help exit code {outcome.code}")


def import_times() -> tuple[float, float]:
    """Median (loadshare.cli import, numpy import) seconds in fresh interpreters."""
    probe = (
        "import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
        "import loadshare.cli; t2 = time.perf_counter(); print(t2 - t0, t1 - t0)"
    )
    cli_s, numpy_s = [], []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run(
            [sys.executable, "-c", probe], env=child_env(), cwd=ROOT,
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
        )
        total, numpy_part = map(float, out.stdout.split())
        cli_s.append(total)
        numpy_s.append(numpy_part)
    return statistics.median(cli_s), statistics.median(numpy_s)


def _load_cli():
    sys.path.insert(0, str(SRC))
    import loadshare.cli

    if Path(loadshare.cli.__file__).resolve().parent != SRC / "loadshare":
        raise RuntimeError(f"loadshare imported from {loadshare.cli.__file__}, not {SRC}")
    return loadshare.cli


def run_traced(workload, seconds: float, tmp: Path, tally: Tally):
    """Per-layer metrics from in-process runs of ``main``; returns (metrics, report)."""
    cli = _load_cli()
    for target in tracer.missing_targets():
        tracer.warn(f"patch point {target} is gone; its metrics are absent")

    def operation(traced: bool):
        trace = tracer.Tracer() if traced else None
        outcomes, main_s = [], 0.0
        with tracer.Patched(trace) if traced else contextlib.nullcontext():
            for argv in workload.invocations():
                stdout = io.StringIO()
                start = time.perf_counter()
                try:
                    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                        code = trace.run_root(cli.main, argv) if traced else cli.main(argv)
                except Exception:  # a crash of the program fails the check, not the run
                    traceback.print_exc()
                    code = None
                secs = time.perf_counter() - start
                outcomes.append(Outcome(code, stdout.getvalue()))
                main_s += secs
        check = workload.check(outcomes)
        tally.record(check)
        return main_s, trace, check

    operation(traced=False)  # warm-up
    cli_import_s, numpy_import_s = import_times()
    plain, layered = [], []
    start = time.perf_counter()
    while len(layered) < MIN_OPS or time.perf_counter() - start < seconds:
        # Alternate which side goes first so drift hits both equally.
        for traced in (False, True) if len(layered) % 2 == 0 else (True, False):
            main_s, trace, check = operation(traced)
            if not traced:
                plain.append(main_s)
                continue
            sample = tracer.op_metrics(trace, main_s)
            sample["simulate.bias_sigma"] = check.facts.get("bias_sigma", 0.0)
            layered.append(sample)
    metrics = tracer.medians(layered)
    metrics["cli.import_s"] = cli_import_s
    metrics["cli.numpy_import_s"] = numpy_import_s
    metrics["trace.overhead_frac"] = metrics["trace.main_s"] / statistics.median(plain) - 1.0
    samples = {name: len(layered) for name in metrics}
    samples["cli.import_s"] = samples["cli.numpy_import_s"] = IMPORT_SAMPLES
    layers = {f"{layer}.self_s": metrics.get(f"{layer}.self_s") for layer in tracer.LAYERS}
    report = {
        "samples": samples,
        "untraced_main_s": statistics.median(plain),
        "layer_share": {k: v / metrics["trace.main_s"] for k, v in layers.items() if v is not None},
    }
    return metrics, report


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    workload = WORKLOADS[name]()
    tally = Tally()
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
        input_bytes = workload.prepare(Path(tmp), seed)
        run = run_traced if traced else run_untraced
        values, report = run(workload, seconds, Path(tmp), tally)
    units = PER_LAYER_UNITS if traced else END_TO_END_UNITS
    metrics = {}
    for metric, unit in units.items():
        if metric in values:
            metrics[metric] = _metric(values[metric], unit)
        else:
            tracer.warn(f"metric {metric} is absent")
    report = {
        "workload": name,
        "seed": seed,
        "trace": int(traced),
        "seconds": seconds,
        "host": host_facts(),
        "input_bytes": input_bytes,
        "work_unit": workload.units,
        **report,
    }
    print(json.dumps({"report": report}))
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "loadshare" / "__main__.py").is_file():
        print(f"bench: no loadshare package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
