"""The four benchmark workloads: their inputs, command lines and output checks.

Every input comes from the benchmark's ``--seed`` and is written with numpy,
never with ``loadshare`` itself, so a defect in the program cannot hide in
its own test data. One operation is one or two CLI invocations; its output is
checked against a reference computed here.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Sizes: each invocation takes about 1-2.5 s on a 2-core x86 host.
FIT_ROWS = 200_000
FIT_K, FIT_S = 5, 2
VERIFY_ROWS = 200
VERIFY_K, VERIFY_S = 5, 2
VERIFY_TRUTH = (1.0, 1.5, 0.8, 2.0, 1.2)  # theta, lambda_1..lambda_4
MC_N, MC_REPS = 10, 20_000
MC_K, MC_S = 3, 2
MC_TRUTH = (1.0, 1.0, 1.0)
MC_Z_LIMIT = 5.0
SIM_ROWS = 200_000
SIM_K, SIM_S = 5, 2
SIM_TRUTH = (1.0, 1.5, 0.8, 2.0, 1.2)

REL_TOL = 1e-9
VERIFY_PARAM_TOL = 1e-6  # the CLI's agreement tolerances, which the margins divide by
VERIFY_LOGLIK_TOL = 1e-9
_DISCREPANCY_RE = re.compile(r"max param discrepancy: (\S+)\s+loglik gap: (\S+)")


@dataclass
class Outcome:
    """What one CLI invocation produced."""

    code: int
    stdout: str


@dataclass
class Check:
    ok: bool
    reason: str = ""
    facts: dict = field(default_factory=dict)


def _cli_seed(seed: int, salt: int) -> int:
    return int(np.random.SeedSequence([seed, salt]).generate_state(1)[0])


def _write_csv(path: Path, header: str, values: np.ndarray) -> None:
    # %.17g round-trips every float64 exactly, so the reference sees the
    # same numbers the program parses.
    np.savetxt(path, values, fmt="%.17g", delimiter=",", header=header, comments="")


def reference_fit(spacings: np.ndarray, s: int | None) -> np.ndarray:
    """Closed-form MLE (theta, lambda_1..) from stage exposure totals."""
    survivors = np.arange(spacings.shape[1], 0, -1, dtype=float)
    totals = survivors * spacings.sum(axis=0)
    if s is not None:
        totals[s:] = 0.5 * survivors[s:] * (spacings[:, s:] ** 2).sum(axis=0)
    return np.concatenate(([spacings.shape[0] / totals[0]], totals[0] / totals[1:]))


def draw_spacings(rng: np.random.Generator, n: int, truth, s: int | None) -> np.ndarray:
    """n systems of stage spacings: exponential stages, Rayleigh after switch s."""
    k = len(truth)
    theta, lambdas = truth[0], np.array((1.0,) + tuple(truth[1:]))
    rates = np.arange(k, 0, -1) * lambdas * theta
    unit = rng.standard_exponential((n, k))
    spacings = unit / rates
    if s is not None:
        spacings[:, s:] = np.sqrt(2.0 * unit[:, s:] / rates[s:])
    return spacings


def _rel_close(got, want) -> bool:
    try:
        got = np.asarray(got, dtype=float)
    except (TypeError, ValueError):
        return False
    return got.shape == want.shape and bool(np.all(np.abs(got - want) <= REL_TOL * np.abs(want)))


def _json(outcome: Outcome):
    try:
        return json.loads(outcome.stdout)
    except json.JSONDecodeError:
        return None


class Workload:
    name = ""
    why = ""
    units = ""  # what work_per_s counts
    units_per_op = 0

    def prepare(self, tmp: Path, seed: int) -> int:
        """Write the inputs under ``tmp``; return their size in bytes."""
        raise NotImplementedError

    def invocations(self) -> list[list[str]]:
        """One operation: the CLI argument lists, run in order."""
        raise NotImplementedError

    def check(self, outcomes: list[Outcome]) -> Check:
        raise NotImplementedError


class FitCsv(Workload):
    name = "fit-csv"
    why = "one 200k x 5 lifetimes CSV: CSV parse, lifetimes-to-spacings and validation dominate"
    units = "rows"
    units_per_op = FIT_ROWS

    def prepare(self, tmp, seed):
        rng = np.random.default_rng([seed, 1])
        lifetimes = rng.exponential(np.arange(1.0, FIT_K + 1), size=(FIT_ROWS, FIT_K))
        ordered = np.sort(lifetimes, axis=1)
        spacings = np.diff(ordered, axis=1, prepend=0.0)
        if not np.all(spacings > 0):
            raise RuntimeError("generated lifetimes contain a tie")
        self.path = tmp / "lifetimes.csv"
        _write_csv(self.path, ",".join(f"x{j}" for j in range(1, FIT_K + 1)), lifetimes)
        self.expected = reference_fit(spacings, FIT_S)
        return self.path.stat().st_size

    def invocations(self):
        return [["fit", "--model", "ssk", "--s", str(FIT_S), "--format", "json",
                 "--data", str(self.path)]]

    def check(self, outcomes):
        (out,) = outcomes
        if out.code != 0:
            return Check(False, f"exit code {out.code}")
        payload = _json(out)
        if not isinstance(payload, dict):
            return Check(False, "stdout is not a JSON object")
        if payload.get("n") != FIT_ROWS:
            return Check(False, f"n is {payload.get('n')!r}, expected {FIT_ROWS}")
        got = [payload.get("theta_hat")] + list(payload.get("lambda_hat") or [])
        if not _rel_close(got, self.expected):
            return Check(False, f"estimates {got} differ from reference {self.expected.tolist()}")
        return Check(True)


class VerifyCsv(Workload):
    name = "verify-csv"
    why = ("closed form vs likelihood-only oracle on two 200 x 5 datasets (kim-kvam, ssk): "
           "oracle sweeps and log_likelihood dominate")
    units = "instances"
    units_per_op = 2

    def prepare(self, tmp, seed):
        rng = np.random.default_rng([seed, 2])
        header = ",".join(f"t{j}" for j in range(1, VERIFY_K + 1))
        self.paths = []
        for model, s in (("kim-kvam", None), ("ssk", VERIFY_S)):
            path = tmp / f"verify-{model}.csv"
            _write_csv(path, header, draw_spacings(rng, VERIFY_ROWS, VERIFY_TRUTH, s))
            self.paths.append(path)
        return sum(p.stat().st_size for p in self.paths)

    def invocations(self):
        kk, ssk = self.paths
        return [
            ["verify", "--model", "kim-kvam", "--data", str(kk)],
            ["verify", "--model", "ssk", "--s", str(VERIFY_S), "--data", str(ssk)],
        ]

    def check(self, outcomes):
        worst_param = worst_loglik = 0.0
        for out in outcomes:
            if out.code != 0:
                return Check(False, f"exit code {out.code}")
            found = _DISCREPANCY_RE.findall(out.stdout)
            if len(found) != 1 or "verified 1/1 " not in out.stdout:
                return Check(False, "report lacks one instance line and 'verified 1/1'")
            param, loglik = map(float, found[0])
            worst_param, worst_loglik = max(worst_param, param), max(worst_loglik, loglik)
        facts = {
            "param_margin": worst_param / VERIFY_PARAM_TOL,
            "loglik_margin": worst_loglik / VERIFY_LOGLIK_TOL,
        }
        return Check(True, facts=facts)


class McStudy(Workload):
    name = "mc-study"
    why = "20k replications of n=10, k=3: per-replication overhead in RNG derivation, validation and the fit"
    units = "reps"
    units_per_op = MC_REPS

    def prepare(self, tmp, seed):
        self.seed = _cli_seed(seed, 3)
        return 0

    def invocations(self):
        return [["mc-study", "--model", "ssk", "--k", str(MC_K), "--s", str(MC_S),
                 "--theta", str(MC_TRUTH[0]), "--lambda", ",".join(map(str, MC_TRUTH[1:])),
                 "--n", str(MC_N), "--reps", str(MC_REPS), "--seed", str(self.seed),
                 "--format", "json"]]

    def check(self, outcomes):
        (out,) = outcomes
        if out.code != 0:
            return Check(False, f"exit code {out.code}")
        payload = _json(out)
        if not isinstance(payload, dict) or payload.get("reps") != MC_REPS:
            return Check(False, "reps missing or wrong")
        try:
            mean = np.array(payload["mean"], dtype=float)
            se = np.array(payload["se_mean"], dtype=float)
        except (KeyError, TypeError, ValueError):
            return Check(False, "mean or se_mean missing")
        reference = MC_N / (MC_N - 1) * np.array(MC_TRUTH)
        if mean.shape != reference.shape or se.shape != reference.shape or not np.all(se > 0):
            return Check(False, "mean or se_mean has the wrong shape or sign")
        z = float(np.max(np.abs(mean - reference) / se))
        if not z <= MC_Z_LIMIT:
            return Check(False, f"mean is {z:.2f} standard errors from n/(n-1)*truth")
        return Check(True, facts={"bias_sigma": z})


class SimulateCsv(Workload):
    name = "simulate-csv"
    why = "200k x 5 ssk dataset written to CSV: float formatting and the writer dominate"
    units = "rows"
    units_per_op = SIM_ROWS

    def prepare(self, tmp, seed):
        self.seed = _cli_seed(seed, 4)
        self.path = tmp / "simulated.csv"
        self.digest = None
        return 0

    def invocations(self):
        return [["simulate", "--model", "ssk", "--k", str(SIM_K), "--s", str(SIM_S),
                 "--theta", str(SIM_TRUTH[0]), "--lambda", ",".join(map(str, SIM_TRUTH[1:])),
                 "--n", str(SIM_ROWS), "--seed", str(self.seed), "--out", str(self.path)]]

    def check(self, outcomes):
        (out,) = outcomes
        if out.code != 0:
            return Check(False, f"exit code {out.code}")
        try:
            raw = self.path.read_bytes()
        except OSError as exc:
            return Check(False, f"output missing: {exc}")
        self.path.unlink()
        digest = hashlib.sha256(raw).hexdigest()
        if self.digest is not None:
            # Same seed, same bytes: the first output was checked in full.
            return Check(digest == self.digest, "output differs between invocations")
        header, _, body = raw.decode("ascii", "replace").partition("\n")
        if header != ",".join(f"t{j}" for j in range(1, SIM_K + 1)):
            return Check(False, f"header is {header!r}")
        rows = body.splitlines()
        if len(rows) != SIM_ROWS or any(row.count(",") != SIM_K - 1 for row in rows):
            return Check(False, f"expected {SIM_ROWS} rows of {SIM_K} values")
        try:
            values = np.array(",".join(rows).split(","), dtype=float)
        except ValueError:
            return Check(False, "output holds a value that is not a number")
        if not np.all(np.isfinite(values) & (values > 0)):
            return Check(False, "output holds a value that is not finite and > 0")
        self.digest = digest
        return Check(True)


WORKLOADS = {w.name: w for w in (FitCsv, VerifyCsv, McStudy, SimulateCsv)}
