"""Repeated-cohort simulation experiments: bootstrap CI coverage of the oracle."""

from dataclasses import dataclass

import numpy as np
import numpy.random  # loaded now, not lazily at the study's first seed

from .errors import ConfigError
from .msm import MsmSpec, WeightOptions, bootstrap_pipeline, check_replicates
from .simulate import (check_oracle, check_subjects, oracle_truth,
                       simulate_cohort)


COVERAGE_SPEC = MsmSpec(baseline_terms=("sex", "age"))
MAX_COHORTS = 100_000


@dataclass
class CoverageResult:
    x_value: float
    oracle_risk: float
    oracle_usage: float
    rows: list
    coverage: float

    def to_dict(self):
        return {
            "x_value": float(self.x_value),
            "oracle_risk": float(self.oracle_risk),
            "oracle_usage": float(self.oracle_usage),
            "coverage": float(self.coverage),
            "n_cohorts": len(self.rows),
        }


def check_study(grid, x_value, n_cohorts, n, B, oracle_n_mc=200_000,
                oracle_rule="natural"):
    """The index of ``x_value`` in ``grid``, once the threshold, the counts
    (at most ``MAX_COHORTS`` cohorts) and the oracle are ones
    :func:`run_coverage` takes."""
    for name, count in (("n_cohorts", n_cohorts), ("n", n),
                        ("bootstrap B", B)):
        if count < 1:
            raise ConfigError(f"coverage needs {name} >= 1, got {count}")
    if n_cohorts > MAX_COHORTS:
        raise ConfigError(f"coverage needs n_cohorts <= {MAX_COHORTS}, got "
                          f"{n_cohorts}")
    check_subjects(n)
    check_replicates(B)
    matches = np.flatnonzero(np.isclose(grid.xs, x_value))
    if matches.size != 1:
        raise ConfigError(f"x_value {x_value} is not a grid threshold")
    check_oracle(oracle_n_mc, oracle_rule)
    return int(matches[0])


def run_coverage(params, grid, x_value, n_cohorts, n, B, seed,
                 spec=COVERAGE_SPEC, wopts=WeightOptions(),
                 oracle_n_mc=200_000, oracle_rule="natural",
                 progress=None):
    """Empirical coverage of the bootstrap risk interval at one threshold.

    Simulates ``n_cohorts`` independent cohorts of size ``n``, runs the full
    bootstrap pipeline on each, and counts how often the 95% interval at
    ``x_value`` covers the oracle risk; it takes at least one cohort of at
    least one subject, and one bootstrap replicate (``B``), and checks these
    with :func:`check_study` before the oracle runs. Fully deterministic
    given ``seed``.

    The default model spec, :data:`COVERAGE_SPEC`, adjusts for sex and age
    only; ``rcds coverage`` reads an msm block over it. A replicate whose
    resample leaves a baseline level without weighted events fits, but with
    that level's cells pinned at a zero mean, and every other event-free row
    too when the fit's face keeps only its event rows (see
    :func:`rcds.msm._fit_horizon_msm`); in small cohorts the multi-level
    terms would do this often, so the default keeps them out, and keeping it
    keeps coverage results comparable across versions.
    """
    j = check_study(grid, x_value, n_cohorts, n, B, oracle_n_mc, oracle_rule)

    ss = np.random.SeedSequence(seed)
    state = ss.generate_state(2 * n_cohorts + 1)
    truth = oracle_truth(params, grid, oracle_n_mc, rule=oracle_rule,
                         seed=int(state[0]))
    oracle_risk = float(truth.risk[j])
    oracle_usage = float(truth.usage[j])

    rows = []
    covered = 0
    for i in range(n_cohorts):
        cohort = simulate_cohort(params, n, seed=int(state[1 + 2 * i]))
        point = bootstrap_pipeline(cohort, grid, spec, wopts, B=B,
                                   seed=int(state[2 + 2 * i]))
        t = point.table
        lo, hi = float(t.risk_lo[j]), float(t.risk_hi[j])
        hit = lo <= oracle_risk <= hi
        covered += int(hit)
        rows.append({
            "cohort": i, "risk": float(t.risk[j]), "risk_lo": lo,
            "risk_hi": hi, "covered": int(hit),
        })
        if progress is not None:
            progress(i + 1, n_cohorts, covered)
    return CoverageResult(
        x_value=float(x_value), oracle_risk=oracle_risk,
        oracle_usage=oracle_usage, rows=rows,
        coverage=covered / n_cohorts,
    )
