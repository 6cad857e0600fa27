"""Per-layer tracing of the loadshare package, installed from outside it.

Each function in ``TARGETS`` is replaced, for the duration of a traced call,
by a wrapper that counts calls and measures inclusive and self time. A
function is patched under every module attribute that refers to it, which is
the name its callers look up (``from .model import log_likelihood`` binds
``loadshare.oracle.log_likelihood``). Methods are patched on their class, so
``isinstance`` checks still hold. Self time comes from a span stack: a
call's self time is its duration minus the time spent in wrapped callees.
Hot functions aggregate to (calls, total, self) rather than keeping one span
per call; caller->callee edges keep the total time of each pair.

A target that no longer exists (after a refactor) is skipped with a warning
on stderr, and every metric derived from it is reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from dataclasses import dataclass, field

from workloads import VERIFY_LOGLIK_TOL, VERIFY_PARAM_TOL

LAYERS = ("cli", "io", "model", "estimate", "oracle", "simulate")
ROOT = "cli.main"

# "<layer>.<attribute path>" relative to the module loadshare.<layer>.
TARGETS = (
    "io.read_dataset",
    "io.write_dataset",
    "model.spacings_from_lifetimes",
    "model.SpacingsMatrix.__init__",
    "model.log_likelihood",
    "estimate.closed_form_mle",
    "oracle.crosscheck",
    "oracle.numeric_mle",
    "oracle.random_instances",
    "simulate.sample_dataset",
    "simulate.mc_study",
    "simulate.RngState.child",
)

# Metric names for methods drop the dunder: model.SpacingsMatrix.calls.
_METRIC_BASE = {"model.SpacingsMatrix.__init__": "model.SpacingsMatrix"}


def warn(message: str) -> None:
    print(f"bench: warning: {message}", file=sys.stderr)


@dataclass
class Stat:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    errors: int = 0


@dataclass
class Tracer:
    """Span stack plus per-function and per-edge aggregates for one operation."""

    stats: dict = field(default_factory=dict)
    edges: dict = field(default_factory=dict)
    oracle_runs: list = field(default_factory=list)
    rows_read: int = 0
    rows_written: int = 0
    mc_reps: int = 0
    broken: set = field(default_factory=set)
    _stack: list = field(default_factory=list)

    def wrap(self, name: str, fn, observe=None):
        stat = self.stats.setdefault(name, Stat())
        stack = self._stack
        edges = self.edges

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                stat.calls += 1
                stat.total += elapsed
                stat.self_time += elapsed - frame[1]
                if stack:
                    parent = stack[-1]
                    parent[1] += elapsed
                    edge = (parent[0], name)
                    edges[edge] = edges.get(edge, 0.0) + elapsed
            if observe is not None:
                try:
                    observe(args, result)
                except (AttributeError, KeyError, TypeError, IndexError) as exc:
                    if name not in self.broken:
                        self.broken.add(name)
                        warn(f"cannot read the result of {name}: {exc!r}")
            return result

        return wrapper

    def run_root(self, fn, *args):
        """Call ``fn`` as the root span (the CLI's ``main``)."""
        return self.wrap(ROOT, fn)(*args)

    # Observers read counts from return values; none of them change a result.
    def _saw_read(self, args, result):
        self.rows_read += result.n

    def _saw_write(self, args, result):
        data = args[0]
        self.rows_written += len(getattr(data, "data", data))

    def _saw_crosscheck(self, args, result):
        diag = result.numeric.diagnostics
        self.oracle_runs.append(
            (
                diag["loglik_evals"],
                diag["sweeps"],
                result.max_param_rel_discrepancy,
                result.loglik_gap,
            )
        )

    def _saw_mc(self, args, result):
        self.mc_reps += result.reps

    def observers(self):
        return {
            "io.read_dataset": self._saw_read,
            "io.write_dataset": self._saw_write,
            "oracle.crosscheck": self._saw_crosscheck,
            "simulate.mc_study": self._saw_mc,
        }


def _resolve(target: str):
    """(module, owner, attribute, original) for a target, or None if it is gone."""
    layer, *path = target.split(".")
    try:
        module = importlib.import_module(f"loadshare.{layer}")
        owner = module
        for part in path[:-1]:
            owner = getattr(owner, part)
        original = getattr(owner, path[-1])
    except (ImportError, AttributeError):
        return None
    return module, owner, path[-1], original


class Patched:
    """Context manager that installs a tracer's wrappers and restores the originals."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo = []

    def __enter__(self):
        modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("loadshare.")]
        observers = self.tracer.observers()
        for target in TARGETS:
            found = _resolve(target)
            if found is None:
                continue
            module, owner, attr, original = found
            wrapper = self.tracer.wrap(target, original, observers.get(target))
            if owner is not module:  # a method: patch the class itself
                self._undo.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, name, original))
                        setattr(mod, name, wrapper)
        return self.tracer

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        return False


def missing_targets() -> list[str]:
    return [t for t in TARGETS if _resolve(t) is None]


# Metrics that come from an observer; they are absent when it cannot read a result.
_OBSERVED = {
    "io.read_dataset": ("io.read_dataset.rows_per_s",),
    "io.write_dataset": ("io.write_dataset.rows_per_s",),
    "simulate.mc_study": ("simulate.mc_study.us_per_rep",),
    "oracle.crosscheck": (
        "oracle.evals_per_instance",
        "oracle.sweeps_per_instance",
        "oracle.evals_per_sweep",
        "oracle.param_margin",
        "oracle.loglik_margin",
    ),
}


def _per_call_us(stat: Stat) -> float:
    return stat.total / stat.calls * 1e6 if stat.calls else 0.0


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def op_metrics(tracer: Tracer, main_s: float) -> dict:
    """Per-layer metrics of one traced operation; absent targets are left out."""
    stats = tracer.stats
    out = {"trace.main_s": main_s}

    def have(target):
        return target in stats

    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            s.self_time for name, s in stats.items() if name.split(".")[0] == layer
        )
    for target in ("io.read_dataset", "io.write_dataset", "model.spacings_from_lifetimes",
                   "oracle.numeric_mle"):
        if have(target):
            out[f"{target}.self_s"] = stats[target].self_time
    if have("io.read_dataset"):
        out["io.read_dataset.rows_per_s"] = _rate(tracer.rows_read, stats["io.read_dataset"].total)
    if have("io.write_dataset"):
        out["io.write_dataset.rows_per_s"] = _rate(
            tracer.rows_written, stats["io.write_dataset"].total
        )
    for target in ("model.SpacingsMatrix.__init__", "model.log_likelihood",
                   "estimate.closed_form_mle"):
        if have(target):
            base = _METRIC_BASE.get(target, target)
            out[f"{base}.calls"] = stats[target].calls
            out[f"{base}.us_per_call"] = _per_call_us(stats[target])
    for target in ("simulate.RngState.child", "simulate.sample_dataset"):
        if have(target):
            out[f"{target}.us_per_call"] = _per_call_us(stats[target])
    if have("simulate.mc_study"):
        out["simulate.mc_study.us_per_rep"] = (
            stats["simulate.mc_study"].total / tracer.mc_reps * 1e6 if tracer.mc_reps else 0.0
        )
    if have("oracle.numeric_mle"):
        numeric = stats["oracle.numeric_mle"]
        out["oracle.no_convergence"] = numeric.errors
        if have("model.log_likelihood"):
            inner = tracer.edges.get(("oracle.numeric_mle", "model.log_likelihood"), 0.0)
            out["oracle.loglik_share"] = inner / numeric.total if numeric.total else 0.0
    if have("oracle.crosscheck"):
        runs = tracer.oracle_runs
        evals = sum(r[0] for r in runs)
        sweeps = sum(r[1] for r in runs)
        out["oracle.evals_per_instance"] = evals / len(runs) if runs else 0.0
        out["oracle.sweeps_per_instance"] = sweeps / len(runs) if runs else 0.0
        out["oracle.evals_per_sweep"] = evals / sweeps if sweeps else 0.0
        out["oracle.param_margin"] = max((r[2] for r in runs), default=0.0) / VERIFY_PARAM_TOL
        out["oracle.loglik_margin"] = max((r[3] for r in runs), default=0.0) / VERIFY_LOGLIK_TOL
    for target in tracer.broken:
        for key in _OBSERVED[target]:
            out.pop(key, None)
    return out


def medians(samples: list[dict]) -> dict:
    """Median of each metric over the operations that reported it."""
    keys = sorted({k for s in samples for k in s})
    return {k: statistics.median(s[k] for s in samples if k in s) for k in keys}
