"""Command-line front end: simulate, fit, verify, mc-study.

Exit codes are a fixed contract so pipelines can consume the tool: 0 on success, else the
``exit_code`` of the error (see :mod:`loadshare.errors`), which is 2 for this module's flag
and write faults and for a request too large for memory. Stdout carries only the requested
artifact (CSV, JSON, or the text report); all diagnostics go to stderr.

Run as a program, the process ends with ``os._exit`` once stdout and then stderr are flushed:
the interpreter's teardown, mostly final collections over the objects numpy made, has nothing
left to do and cost 20-30 ms a process (2-vCPU Xeon, Python 3.11).

It also blocks ``_hashlib`` first, before main: numpy.random imports ``secrets``, whose
``hmac`` would map OpenSSL's libcrypto (3.5 MB of peak RSS) for hashes the package never takes.
In-process callers of main keep their ``_hashlib``; hmac and hashlib fall back to CPython's own.

Each command imports the layers it runs when it runs, so ``--help`` loads only this module,
errors and model (whose kinds are ``--model``'s choices, so numpy too): a checkout without
bytecode compiles every module it imports at every start, and the compiler's memory for the
largest sets much of the peak RSS. Stdout is spelled here (:func:`json_dumps`, which imports
json when called) and by ``model.format_float``, so ``mc-study`` and ``verify --random`` load
no file code, ``simulate`` only the writer, and ``fit`` and ``verify --data`` the reader.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import DataFileError, LoadShareError, NoConvergence
from .model import ModelKind, ModelSpec, Params, SpacingsMatrix, SufficientStats, format_float

EXIT_OK = 0
EXIT_USAGE_ERROR = 2
EXIT_VERIFY_FAILED = 3


class _UsageError(LoadShareError):
    """Flag combination problems detected after argparse."""


def _parse_lambdas(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise _UsageError(
            f"--lambda must be comma-separated numbers, got {text!r}"
        ) from None


def _build_spec(model: str, k: int, s: int | None) -> ModelSpec:
    """ModelSpec judges the kind, k and s; only a missing --s is worded here, as a flag."""
    if model == ModelKind.SSK and s is None:
        raise _UsageError("--model ssk requires --s")
    return ModelSpec(model, k, s)


def _resolve_model_and_params(args) -> tuple[ModelSpec, Params]:
    """Model and parameters from --params FILE or from individual flags."""
    if args.params is not None:
        if args.model or args.k is not None or args.s is not None or args.theta is not None or args.lam is not None:
            raise _UsageError("--params replaces --model/--k/--s/--theta/--lambda")
        from .io import read_params_file
        try:
            return _read_file(args.params, "parameter file", read_params_file)
        except DataFileError as exc:
            raise _UsageError(str(exc)) from None
    flags = {"--model": args.model, "--k": args.k, "--theta": args.theta, "--lambda": args.lam}
    missing = [flag for flag, value in flags.items() if value is None]
    if missing:
        raise _UsageError(f"missing required flags: {', '.join(missing)} (or use --params)")
    spec = _build_spec(args.model, args.k, args.s)
    return spec, Params(args.theta, _parse_lambdas(args.lam))


def _read_file(path: str, what: str, read):
    """The one opener of input files: ``read(handle)`` on UTF-8 text, a BOM dropped. It judges
    only that ``path`` reads and decodes (else DataFileError); ``read`` judges the text."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as handle:
            return read(handle)
    except OSError as exc:
        raise DataFileError(f"cannot read {what}: {exc}") from None
    except UnicodeDecodeError as exc:
        # exc.start counts from the decoder's current chunk, not the file start.
        bad = exc.object[exc.start : exc.end]
        raise DataFileError(f"{what} is not UTF-8 text ({exc.reason} {bad!r})") from None


def _read_stats(args) -> SufficientStats:
    """The stats of --data under --model and --s; a fault of the data comes before the model's."""
    from .io import read_stats
    return _read_file(args.data, "dataset", lambda handle: read_stats(
        handle, lambda k: _build_spec(args.model, k, args.s), args.lifetimes))


def json_dumps(obj) -> str:
    """JSON text with floats at full precision (see :func:`model.format_float`)."""
    import json  # only a JSON report reads it
    import numpy as np  # not at the top, so model.py compiles before numpy loads (peak RSS)
    if isinstance(obj, (bool, np.bool_)):  # before int, which bool subclasses
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        # JSON has no NaN or Infinity; null is the portable stand-in.
        return format_float(obj) if np.isfinite(obj) else "null"
    if isinstance(obj, str) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(str(k))}: {json_dumps(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(json_dumps(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _switch(spec: ModelSpec) -> dict:
    """The ssk switch as a report field: {"s": s}, and no field for kim-kvam."""
    return {} if spec.s is None else {"s": spec.s}


def _fit_report(fit, fmt: str) -> str:
    """The fit as one JSON object, or as "name: value" lines of the same fields."""
    fields = {
        "theta_hat": fit.params_hat.theta,
        "lambda_hat": list(fit.params_hat.lambdas),
        "loglik": fit.loglik_at_mle,
        "n": fit.n,
        "k": fit.model.k,
        "model": fit.model.kind.value,
        **_switch(fit.model),
    }
    if fmt == "json":
        return json_dumps(fields)
    lines = [f"{name}: {fields[name]}" for name in ("model", *_switch(fit.model), "k", "n")]
    lines.append(f"theta_hat: {format_float(fields['theta_hat'])}")
    lines += [f"lambda_hat_{j}: {format_float(v)}" for j, v in enumerate(fields["lambda_hat"], 1)]
    lines.append(f"loglik: {format_float(fields['loglik'])}")
    return "\n".join(lines)


def cmd_simulate(args) -> int:
    from .simulate import RngState, _sample_blocks
    from .writer import _write_blocks
    spec, params = _resolve_model_and_params(args)
    # Judged before the output is opened; each block is drawn as the writer asks for it.
    blocks = _sample_blocks(spec, params, args.n, RngState(args.seed))
    if args.out is None or args.out == "-":
        _write_blocks(blocks, spec.k, sys.stdout)
    else:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as handle:
                _write_blocks(blocks, spec.k, handle)
        except OSError as exc:  # an unwritable path, or a full disk
            raise _UsageError(f"cannot write output file: {exc}") from None
    print(f"n={args.n} k={spec.k} seed={args.seed}", file=sys.stderr)
    return EXIT_OK


def cmd_fit(args) -> int:
    from .estimate import closed_form_mle
    stats = _read_stats(args)
    fit = closed_form_mle(stats.spec, stats)
    print(_fit_report(fit, args.format))
    return EXIT_OK


def _verify_one(index: int, spec: ModelSpec, data: SpacingsMatrix | SufficientStats) -> bool:
    from .oracle import crosscheck
    fields = {"model": spec.kind.value, "k": spec.k, **_switch(spec), "n": data.n}
    label = f"instance {index}: " + " ".join(f"{name}={value}" for name, value in fields.items())
    try:
        result = crosscheck(spec, data)
    except NoConvergence as exc:
        print(label)
        print(f"  FAIL numeric maximizer did not converge: {exc}")
        return False
    closed = result.closed.params_hat.as_array()
    numeric = result.numeric.params_hat.as_array()
    print(label)
    print("  closed:  " + " ".join(format_float(v) for v in closed))
    print("  numeric: " + " ".join(format_float(v) for v in numeric))
    print(
        f"  max param discrepancy: {result.max_param_rel_discrepancy:.3e}"
        f"  loglik gap: {result.loglik_gap:.3e}"
        f"  [{'ok' if result.ok else 'FAIL'}]"
    )
    return result.ok


def cmd_verify(args) -> int:
    from .oracle import VERIFY_LOGLIK_TOL, VERIFY_PARAM_TOL, _random_instance
    if args.random:
        if args.s is not None:
            raise _UsageError("--s is not allowed with --random; each instance draws its own")
        if args.instances < 1:
            raise _UsageError(f"--instances must be at least 1, got {args.instances}")
        # Each instance is checked and reported before the next is drawn.
        instances = (_random_instance(args.model, args.seed, i) for i in range(args.instances))
        checks = [
            _verify_one(i + 1, spec, data) for i, (spec, _, data) in enumerate(instances)
        ]
    else:
        stats = _read_stats(args)
        checks = [_verify_one(1, stats.spec, stats)]
    passed = sum(checks)
    print(
        f"verified {passed}/{len(checks)} instance(s) within tolerances "
        f"(param {VERIFY_PARAM_TOL:g}, loglik {VERIFY_LOGLIK_TOL:g})"
    )
    return EXIT_OK if passed == len(checks) else EXIT_VERIFY_FAILED


def cmd_mc_study(args) -> int:
    from .simulate import RngState, mc_study
    spec, truth = _resolve_model_and_params(args)
    summary = mc_study(spec, truth, args.n, args.reps, RngState(args.seed))
    truth_vec = truth.as_array()
    reference = args.n / (args.n - 1) * truth_vec
    if args.format == "json":
        print(json_dumps({
            "model": spec.kind.value,
            "k": spec.k,
            "n": args.n,
            "reps": summary.reps,
            "seed": args.seed,
            "truth": truth_vec,
            "mean": summary.mean_estimates,
            "bias": summary.bias,
            "mse": summary.mse,
            "se_mean": summary.se_mean,
            "reference_mean": reference,
            **_switch(spec),
        }))
        return EXIT_OK
    head = {"model": spec.kind.value, "k": spec.k, **_switch(spec), "n": args.n,
            "reps": summary.reps, "seed": args.seed}
    print("  ".join(f"{name}: {value}" for name, value in head.items()))
    columns = [  # (column, values, width, format): each header cell and its rows share one entry
        ("parameter", ["theta"] + [f"lambda_{j}" for j in range(1, spec.k)], "<12", ""),
        ("truth", truth_vec, ">12", ".6g"),
        ("mean", summary.mean_estimates, ">14", ".8g"),
        ("bias", summary.bias, ">14", ".6g"),
        ("mse", summary.mse, ">14", ".6g"),
        ("ref_mean", reference, ">14", ".8g"),
    ]
    print(" ".join(f"{column:{width}}" for column, _, width, _ in columns))
    for row in zip(*(values for _, values, _, _ in columns)):
        print(" ".join(f"{v:{width}{fmt}}" for v, (_, _, width, fmt) in zip(row, columns)))
    print("ref_mean is the analytic estimator mean n/(n-1) * truth")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loadshare",
        description=(
            "Closed-form maximum-likelihood fitting, simulation, and verification "
            "for k-component load-sharing reliability systems."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_flags(p, with_params: bool):
        p.add_argument("--model", choices=[m.value for m in ModelKind], required=not with_params)
        p.add_argument("--s", type=int, default=None, help="switch index (ssk only)")
        if with_params:
            p.add_argument("--k", type=int, default=None)
            p.add_argument("--theta", type=float, default=None)
            p.add_argument("--lambda", dest="lam", default=None,
                           help="comma-separated k-1 multipliers, e.g. 1.5,2,3")
            p.add_argument("--params", default=None,
                           help="JSON parameter file replacing the model/parameter flags")

    sim = sub.add_parser("simulate", help="draw a synthetic dataset and emit CSV")
    add_model_flags(sim, with_params=True)
    sim.add_argument("--n", type=int, required=True, help="number of systems")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", default=None, help="output CSV path (default: stdout)")
    sim.set_defaults(func=cmd_simulate)

    fit = sub.add_parser("fit", help="closed-form fit of a CSV dataset")
    add_model_flags(fit, with_params=False)
    fit.add_argument("--data", required=True, help="CSV dataset path")
    fit.add_argument("--lifetimes", action="store_true",
                     help="treat a headerless file as raw lifetimes")
    fit.add_argument("--format", choices=["json", "text"], default="text")
    fit.set_defaults(func=cmd_fit)

    ver = sub.add_parser("verify", help="closed form vs iterative maximizer")
    add_model_flags(ver, with_params=False)
    group = ver.add_mutually_exclusive_group(required=True)
    group.add_argument("--data", default=None, help="CSV dataset path")
    group.add_argument("--random", action="store_true",
                       help="verify on seeded random instances instead of a file")
    ver.add_argument("--instances", type=int, default=50)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--lifetimes", action="store_true",
                     help="treat a headerless file as raw lifetimes")
    ver.set_defaults(func=cmd_verify)

    mc = sub.add_parser("mc-study", help="Monte Carlo parameter-recovery study")
    add_model_flags(mc, with_params=True)
    mc.add_argument("--n", type=int, required=True, help="systems per replication")
    mc.add_argument("--reps", type=int, required=True)
    mc.add_argument("--seed", type=int, default=0)
    mc.add_argument("--format", choices=["json", "text"], default="text")
    mc.set_defaults(func=cmd_mc_study)

    return parser


class _WriteFault(LoadShareError):
    """A write to stdout failed: a full disk, or a pipe closed early."""

    def __init__(self, exc: OSError):
        super().__init__(f"cannot write output: {exc}")


class _Stdout:
    """sys.stdout while a command runs: a fault writing it is raised as _WriteFault, so that
    main tells it apart from every other OSError."""

    def __init__(self, stream):
        self._stream = stream

    def write(self, text: str) -> int:
        try:
            return self._stream.write(text)
        except OSError as exc:
            raise _WriteFault(exc) from None

    def flush(self) -> None:
        try:
            self._stream.flush()
        except OSError as exc:
            raise _WriteFault(exc) from None


def main(argv=None) -> int:
    parser = build_parser()
    stdout, sys.stdout = sys.stdout, _Stdout(sys.stdout)
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # --help, or a usage error argparse has reported
            code = exc.code if isinstance(exc.code, int) else EXIT_USAGE_ERROR
        else:
            code = args.func(args)
        sys.stdout.flush()  # a fault writing stdout shows here, not at exit
        return code
    except LoadShareError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except MemoryError as exc:  # a request too large, such as simulate --n 10**11
        print(f"error: out of memory: {str(exc) or 'the request is too large'}", file=sys.stderr)
        return EXIT_USAGE_ERROR
    finally:
        sys.stdout = stdout


def entry_point() -> None:
    sys.modules.setdefault("_hashlib", None)  # numpy.random -> secrets -> hmac -> _hashlib
    code = main()  # an uncaught exception, a bug, still leaves through the normal exit
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except OSError:  # a fault writing stdout, which main has reported; its code stands
            pass
    # Nothing is left for the teardown to do: every file a command opens is closed by a
    # ``with`` before main returns, and the package registers no atexit handler.
    os._exit(code)


if __name__ == "__main__":
    entry_point()
