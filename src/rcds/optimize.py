"""Constrained selection of the optimal strategy from a dose-response table.

Feasibility is usage <= kappa (non-strict); among feasible thresholds the
lowest risk wins, with ties broken by smaller usage and then smaller
threshold. Selection operates on standardized point estimates only;
intervals are reported alongside but never alter the choice.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

MINIMIZE_RISK = "minimize_risk"

STATUS_OK = "ok"
STATUS_INFEASIBLE = "infeasible"


@dataclass
class ConstrainedSelection:
    kappa: float
    status: str
    feasible_x: np.ndarray
    chosen_x: float | None
    chosen_risk: float | None
    chosen_usage: float | None

    @property
    def infeasible(self):
        return self.status == STATUS_INFEASIBLE

    def to_dict(self):
        return {
            "kappa": float(self.kappa),
            "objective": MINIMIZE_RISK,
            "status": self.status,
            "feasible_x": [float(v) for v in self.feasible_x],
            "chosen_x": None if self.chosen_x is None else float(self.chosen_x),
            "chosen_risk": None if self.chosen_risk is None else float(self.chosen_risk),
            "chosen_usage": None if self.chosen_usage is None else float(self.chosen_usage),
        }


def check_cap(kappa):
    """``kappa``, once it is a usage cap :func:`select` takes: a positive,
    finite number."""
    if not np.isfinite(kappa) or kappa <= 0:
        raise ConfigError(f"kappa must be a positive number, got {kappa}")
    return kappa


def select(table, kappa):
    """Pick the lowest-risk strategy whose expected usage respects the cap.

    An empty feasible set is a status, not an error. Order-independent: the
    same selection comes back however the table rows are permuted.
    """
    if len(table) == 0:
        raise ConfigError("dose-response table is empty")
    check_cap(kappa)

    order = np.argsort(table.xs, kind="stable")
    xs = table.xs[order]
    risk = table.risk[order]
    usage = table.usage[order]

    feasible = usage <= kappa
    feasible_x = xs[feasible]
    if not np.any(feasible):
        return ConstrainedSelection(
            kappa=kappa, status=STATUS_INFEASIBLE,
            feasible_x=feasible_x, chosen_x=None, chosen_risk=None,
            chosen_usage=None,
        )
    r = risk[feasible]
    u = usage[feasible]
    x = xs[feasible]
    tied = r == r.min()
    # ties: smaller usage, then smaller threshold (xs already ascending)
    cand = np.lexsort((x[tied], u[tied]))
    pick = np.flatnonzero(tied)[cand[0]]
    return ConstrainedSelection(
        kappa=kappa, status=STATUS_OK,
        feasible_x=feasible_x, chosen_x=float(x[pick]),
        chosen_risk=float(r[pick]), chosen_usage=float(u[pick]),
    )


@dataclass
class FrontierStep:
    """Change between consecutive distinct selections along the kappa grid."""

    kappa_from: float
    kappa_to: float
    x_from: float | None
    x_to: float | None
    risk_change: float | None
    usage_change: float | None
    risk_per_usage: float | None  # incremental risk change per unit usage


@dataclass
class FrontierResult:
    selections: list
    steps: list


def frontier(table, kappa_grid):
    """Apply :func:`select` over a grid of caps and summarize the increments.

    For consecutive caps whose selections differ, the incremental risk
    change per unit of usage change is reported (undefined while either
    selection is infeasible).
    """
    kappa_grid = list(kappa_grid)
    if not kappa_grid:
        raise ConfigError("kappa grid is empty")
    selections = [select(table, k) for k in kappa_grid]
    steps = []
    for a, b in zip(selections, selections[1:]):
        if a.chosen_x == b.chosen_x:
            continue
        if a.chosen_x is None or b.chosen_x is None:
            steps.append(FrontierStep(
                kappa_from=a.kappa, kappa_to=b.kappa, x_from=a.chosen_x,
                x_to=b.chosen_x, risk_change=None, usage_change=None,
                risk_per_usage=None,
            ))
            continue
        dr = b.chosen_risk - a.chosen_risk
        du = b.chosen_usage - a.chosen_usage
        steps.append(FrontierStep(
            kappa_from=a.kappa, kappa_to=b.kappa, x_from=a.chosen_x,
            x_to=b.chosen_x, risk_change=dr, usage_change=du,
            risk_per_usage=(dr / du) if du != 0 else None,
        ))
    return FrontierResult(selections=selections, steps=steps)
