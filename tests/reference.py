"""The row-level estimator pieces that no CLI path runs, kept as test oracles.

They read the MSM responses and weights off the expanded person-strategy-month
dataset of :func:`rcds.expand` and :func:`rcds.weights.attach_weights`; the
estimator plan (:class:`rcds.Plan`) and the report's
:func:`rcds.weights.at_risk_weight_summary` are tested against them.
"""

import numpy as np

from rcds.expansion import HorizonTable
from rcds.msm import MsmSpec, _fit_horizon_msm
from rcds.weights import _summary


def horizon_responses(ds):
    """Horizon responses read off an expanded dataset, one row per clone
    still at risk at the horizon month."""
    K = ds.horizon
    mask = (ds.t == K) & (ds.at_risk == 1)
    return HorizonTable(
        subject_idx=ds.subject_idx[mask],
        x_idx=ds.x_idx[mask],
        y=ds.response_y[mask],
        d=ds.response_d[mask].astype(np.float64),
        uncensored=(ds.horizons > K) & (ds.cohort.followup_end[:, None] == K),
    )


def weight_summary(wds):
    """Distribution of weights over at-risk rows, for the run report."""
    return _summary(wds.w[wds.ds.at_risk == 1], wds.truncated_fraction)


def _fit_at_horizon(wds, spec, response):
    ds = wds.ds
    mask = (ds.t == ds.horizon) & (ds.at_risk == 1)
    return _fit_horizon_msm(ds.cohort, ds.grid, spec, ds.subject_idx[mask],
                            ds.x_idx[mask], response[mask], wds.w[mask])


def fit_outcome_msm(wds, spec=MsmSpec()):
    """Outcome MSM: weighted Poisson regression of failure at the horizon."""
    return _fit_at_horizon(wds, spec, wds.ds.response_y)


def fit_resource_msm(wds, spec=MsmSpec()):
    """Resource MSM: weighted log-linear regression of the measurement count."""
    return _fit_at_horizon(wds, spec, wds.ds.response_d.astype(np.float64))
