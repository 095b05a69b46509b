"""Every weight option the CLI accepts agrees with the simulator's oracle.

Two fixed 20k cohorts, which the benchmark does not use, are analyzed under
censoring weights with and without truncation at percentile 99; their point
estimates must lie within the benchmark's own oracle tolerance at 20k
(``ORACLE_TOLERANCE`` of ``perfbench/checks.py``, read from that file) of one
100k-draw natural-rule oracle. The unweighted comparator is naive by design
and is not held to it.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from rcds import DgpParams, MsmSpec, Plan, StrategyGrid, WeightOptions
from rcds.simulate import oracle_truth, simulate_cohort


def _load_checks():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("perfbench_checks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checks = _load_checks()
SUBJECTS = 20_000


@pytest.fixture(scope="module")
def grid():
    return StrategyGrid.default()


@pytest.fixture(scope="module")
def oracle(grid):
    truth = oracle_truth(DgpParams(), grid, checks.REFERENCE_N_MC,
                         rule="natural", seed=checks.REFERENCE_SEED)
    return {float(x): row for x, *row in zip(
        grid.xs, truth.risk, truth.risk_mcse, truth.usage, truth.usage_mcse)}


@pytest.fixture(scope="module")
def cohorts():
    return {seed: simulate_cohort(DgpParams(), SUBJECTS, seed=seed)
            for seed in (2, 3)}


@pytest.mark.parametrize("truncation", [None, 99.0],
                         ids=lambda t: f"truncation-{t}")
@pytest.mark.parametrize("seed", [2, 3], ids=lambda s: f"seed{s}")
def test_estimates_within_oracle_tolerance(cohorts, grid, oracle, seed,
                                           truncation):
    plan = Plan(cohorts[seed], grid, MsmSpec(),
                WeightOptions(truncation=truncation))
    risk, usage, _ = plan.run(None)
    # a NaN estimate would give a NaN gap, which no bound comparison catches
    assert np.all(np.isfinite(risk)) and np.all(np.isfinite(usage))
    rows = [{"x": float(x), "risk": r, "usage": u}
            for x, r, u in zip(grid.xs, risk, usage)]
    gaps = checks.oracle_gaps(rows, oracle)
    tolerance = checks.ORACLE_TOLERANCE[SUBJECTS]
    for part in ("supported", "grid"):
        for name in ("risk", "usage"):
            assert gaps[part][name] <= tolerance[part][name], (
                f"{name} is {gaps[part][name]:.3f} from the oracle "
                f"({part}; tolerance {tolerance[part][name]})")
