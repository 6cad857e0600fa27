"""Command-line front end: simulate, fit, verify, mc-study.

Exit codes are a fixed contract so pipelines can consume the tool:
0 success, 1 malformed data, 2 usage error, 3 verification failure.
Stdout carries only the requested artifact (CSV, JSON, or the text report);
all diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import sys

from .errors import (
    DataFileError,
    DimensionMismatch,
    DuplicateLifetime,
    InvalidModel,
    InvalidParams,
    InvalidSampleSize,
    NoConvergence,
    NonPositiveLifetime,
)
from .estimate import FitResult, closed_form_mle
from .io import format_float, json_dumps, read_dataset, read_params_file, write_dataset
from .model import ModelKind, ModelSpec, Params, SpacingsMatrix
from .oracle import (
    VERIFY_LOGLIK_TOL,
    VERIFY_PARAM_TOL,
    crosscheck,
    random_instances,
)
from .simulate import RngState, mc_study, sample_dataset

EXIT_OK = 0
EXIT_DATA_ERROR = 1
EXIT_USAGE_ERROR = 2
EXIT_VERIFY_FAILED = 3


class _UsageError(Exception):
    """Flag combination problems detected after argparse."""


def _parse_lambdas(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise _UsageError(
            f"--lambda must be comma-separated numbers, got {text!r}"
        ) from None


def _build_spec(model: str, k: int, s: int | None) -> ModelSpec:
    if ModelKind(model) is ModelKind.SSK:
        if s is None:
            raise _UsageError("--model ssk requires --s")
        return ModelSpec.ssk(k, s)
    if s is not None:
        raise _UsageError("--s is only valid with --model ssk")
    return ModelSpec.kim_kvam(k)


def _resolve_model_and_params(args) -> tuple[ModelSpec, Params]:
    """Model and parameters from --params FILE or from individual flags."""
    if args.params is not None:
        if args.model or args.k is not None or args.s is not None or args.theta is not None or args.lam is not None:
            raise _UsageError("--params replaces --model/--k/--s/--theta/--lambda")
        try:
            with open(args.params, encoding="utf-8") as handle:
                return read_params_file(handle)
        except OSError as exc:
            raise _UsageError(f"cannot read parameter file: {exc}") from None
        except DataFileError as exc:
            raise _UsageError(str(exc)) from None
    missing = [
        flag
        for flag, value in (
            ("--model", args.model),
            ("--k", args.k),
            ("--theta", args.theta),
            ("--lambda", args.lam),
        )
        if value is None
    ]
    if missing:
        raise _UsageError(f"missing required flags: {', '.join(missing)} (or use --params)")
    spec = _build_spec(args.model, args.k, args.s)
    return spec, Params(args.theta, _parse_lambdas(args.lam))


def _read_dataset_file(path: str, assume_lifetimes: bool) -> SpacingsMatrix:
    try:
        with open(path, encoding="utf-8-sig", newline="") as handle:
            return read_dataset(handle, assume_lifetimes=assume_lifetimes)
    except OSError as exc:
        raise DataFileError(f"cannot read dataset: {exc}") from None
    except UnicodeDecodeError as exc:
        # exc.start counts from the decoder's current chunk, not the file start.
        bad = exc.object[exc.start : exc.end]
        raise DataFileError(f"dataset is not UTF-8 text ({exc.reason} {bad!r})") from None


def _fit_as_json(fit: FitResult) -> str:
    payload = {
        "theta_hat": fit.params_hat.theta,
        "lambda_hat": list(fit.params_hat.lambdas),
        "loglik": fit.loglik_at_mle,
        "n": fit.n,
        "k": fit.model.k,
        "model": fit.model.kind.value,
    }
    if fit.model.kind is ModelKind.SSK:
        payload["s"] = fit.model.s
    return json_dumps(payload)


def _fit_as_text(fit: FitResult) -> str:
    lines = [f"model: {fit.model.kind.value}"]
    if fit.model.kind is ModelKind.SSK:
        lines.append(f"s: {fit.model.s}")
    lines += [
        f"k: {fit.model.k}",
        f"n: {fit.n}",
        f"theta_hat: {format_float(fit.params_hat.theta)}",
    ]
    for j, lam in enumerate(fit.params_hat.lambdas, start=1):
        lines.append(f"lambda_hat_{j}: {format_float(lam)}")
    lines.append(f"loglik: {format_float(fit.loglik_at_mle)}")
    return "\n".join(lines)


def _param_names(k: int) -> list[str]:
    return ["theta"] + [f"lambda_{j}" for j in range(1, k)]


def cmd_simulate(args) -> int:
    spec, params = _resolve_model_and_params(args)
    rng = RngState(args.seed)
    data = sample_dataset(spec, params, args.n, rng)
    if args.out is None or args.out == "-":
        write_dataset(data, sys.stdout)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            write_dataset(data, handle)
    print(f"n={data.n} k={data.k} seed={args.seed}", file=sys.stderr)
    return EXIT_OK


def cmd_fit(args) -> int:
    data = _read_dataset_file(args.data, args.lifetimes)
    spec = _build_spec(args.model, data.k, args.s)
    fit = closed_form_mle(spec, data)
    print(_fit_as_json(fit) if args.format == "json" else _fit_as_text(fit))
    return EXIT_OK


def _verify_one(index: int, spec: ModelSpec, data: SpacingsMatrix) -> bool:
    label = f"instance {index}: model={spec.kind.value} k={spec.k}"
    if spec.kind is ModelKind.SSK:
        label += f" s={spec.s}"
    label += f" n={data.n}"
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
    if args.random:
        if args.s is not None:
            raise _UsageError("--s is not allowed with --random; each instance draws its own")
        if args.instances < 1:
            raise _UsageError(f"--instances must be at least 1, got {args.instances}")
        instances = random_instances(args.model, args.instances, args.seed)
        checks = [
            _verify_one(i + 1, spec, data) for i, (spec, _, data) in enumerate(instances)
        ]
    else:
        data = _read_dataset_file(args.data, args.lifetimes)
        spec = _build_spec(args.model, data.k, args.s)
        checks = [_verify_one(1, spec, data)]
    passed = sum(checks)
    print(
        f"verified {passed}/{len(checks)} instance(s) within tolerances "
        f"(param {VERIFY_PARAM_TOL:g}, loglik {VERIFY_LOGLIK_TOL:g})"
    )
    return EXIT_OK if passed == len(checks) else EXIT_VERIFY_FAILED


def cmd_mc_study(args) -> int:
    spec, truth = _resolve_model_and_params(args)
    summary = mc_study(spec, truth, args.n, args.reps, RngState(args.seed))
    truth_vec = truth.as_array()
    reference = args.n / (args.n - 1) * truth_vec
    if args.format == "json":
        payload = {
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
        }
        if spec.kind is ModelKind.SSK:
            payload["s"] = spec.s
        print(json_dumps(payload))
    else:
        header = f"model: {spec.kind.value}  k: {spec.k}"
        if spec.kind is ModelKind.SSK:
            header += f"  s: {spec.s}"
        header += f"  n: {args.n}  reps: {summary.reps}  seed: {args.seed}"
        print(header)
        print(f"{'parameter':<12} {'truth':>12} {'mean':>14} {'bias':>14} {'mse':>14} {'ref_mean':>14}")
        for name, tru, mean, bias, mse, ref in zip(
            _param_names(spec.k),
            truth_vec,
            summary.mean_estimates,
            summary.bias,
            summary.mse,
            reference,
        ):
            print(
                f"{name:<12} {tru:>12.6g} {mean:>14.8g} {bias:>14.6g} "
                f"{mse:>14.6g} {ref:>14.8g}"
            )
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


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE_ERROR
    try:
        return args.func(args)
    except (DataFileError, NonPositiveLifetime, DuplicateLifetime) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA_ERROR
    except (_UsageError, InvalidModel, InvalidParams, InvalidSampleSize, DimensionMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE_ERROR


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
