"""Closed-form maximum likelihood estimation for both load-sharing models.

The log-likelihood of either model is linear in the per-stage exposure
totals S_1..S_k held by :class:`loadshare.model.SufficientStats`, which
makes the stationary point available in closed form:

    theta_hat      = n / S_1
    lambda_hat_j   = S_1 / S_{j+1}      for j = 1..k-1

For ``kim-kvam`` S_j = (k-j+1) * t_sum_j and S_1 = k * t_sum_1, giving the
familiar ratio-of-column-sums estimates; ``ssk`` swaps in the squared-spacing
exposure past the switch index and keeps the identical ratio structure. In
particular theta_hat depends only on the first-spacing total, so it is the
same number under both models.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DataFileError, InvalidParams
from .model import ModelSpec, Params, SpacingsMatrix, SufficientStats, _closed_form, sufficient_stats

__all__ = ["FitResult", "closed_form_mle"]


@dataclass(frozen=True)
class FitResult:
    """Parameter estimates plus the log-likelihood they attain.

    ``stats`` is the :class:`SufficientStats` of the data under ``model``
    that the fit was computed from, so a fit is auditable without
    re-touching the raw data. ``loglik_at_mle`` comes from
    :meth:`SufficientStats.log_likelihood` for the closed form, and from its
    own log-exposure formula for the iterative cross-check, which records its
    Newton iterations as ``sweeps``, its ``loglik_evals`` and its final Newton
    ``decrement`` in the free-form ``diagnostics`` (empty for the closed form).
    """

    params_hat: Params
    loglik_at_mle: float
    stats: SufficientStats
    model: ModelSpec
    n: int
    diagnostics: dict = field(default_factory=dict)


def closed_form_mle(spec: ModelSpec, t: SpacingsMatrix | SufficientStats) -> FitResult:
    """Maximum likelihood estimates as exact ratios of exposure totals (of spacings, or stats).

    No iteration and no division by zero: the stage totals are positive.
    An estimate that leaves the float64 range is a data error.
    """
    stats = sufficient_stats(spec, t)
    try:
        params_hat = Params.from_array(_closed_form(stats.n, stats.totals))
    except InvalidParams as exc:
        raise DataFileError(f"estimate outside the float64 range ({exc}); rescale the data") from None
    return FitResult(
        params_hat=params_hat,
        loglik_at_mle=stats.log_likelihood(params_hat),
        stats=stats,
        model=spec,
        n=stats.n,
    )
