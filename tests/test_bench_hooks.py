"""The names the benchmark wraps must stay where it looks for them.

``perfbench/tracing.py`` wraps each ``TRACED`` function at every ``rcds``
module that holds it, and each traced method through its class's
``__dict__``; ``perfbench/child.py`` times ``ENTRY_POINTS`` as attributes of
``rcds.cli``. A rename or an inlined function would make a span silently read
zero, so both tables are checked here, read from the files as they stand,
and the GLM counts are taken from the fits the estimator makes.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import rcds.cli
import rcds.glm
import rcds.msm
import rcds.weights
from rcds import DgpParams, Plan, StrategyGrid, simulate_cohort

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING = _load("tracing")
TRACED = TRACING.TRACED
ENTRY_POINTS = _load("child").ENTRY_POINTS


@pytest.mark.parametrize("module,attr", [(m, a) for m, a, _, _ in TRACED])
def test_traced_name_resolves(module, attr):
    owner = importlib.import_module(module)
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert callable(vars(getattr(owner, cls_name))[meth])
    else:
        assert callable(getattr(owner, attr))


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_cli_exposes_entry_point(name):
    assert callable(getattr(rcds.cli, name))


def test_glm_counts_read_the_rows_each_fit_runs_on(monkeypatch):
    # glm.row_iterations is fitted rows times IRLS iterations, read off the
    # arguments of each fit_glm call as the estimator passes them
    calls = []

    def spy(*args, **kwargs):
        fit = rcds.glm.fit_glm(*args, **kwargs)
        calls.append(TRACING._glm_counts(args, kwargs, fit))
        return fit

    for module in (rcds.msm, rcds.weights):
        monkeypatch.setattr(module, "fit_glm", spy)
    cohort = simulate_cohort(DgpParams(), 1000, seed=1)
    plan = Plan(cohort, StrategyGrid.default(x_step=50))
    plan.run(None)
    point = list(calls)
    mult = np.zeros(cohort.n_subjects)
    mult[::2] = 1.0  # every other subject
    calls.clear()
    plan.run(mult)
    assert len(point) == len(calls) == 3  # monitor, outcome, resource
    n_dec = plan.monitor.subject.size
    kept = int(np.count_nonzero(mult[plan.monitor.subject]))
    assert point[0]["row_iterations"] == n_dec * point[0]["iterations"]
    assert calls[0]["row_iterations"] == kept * calls[0]["iterations"]
    assert all(c["iterations"] > 0 for c in point + calls)
    assert all(c["row_iterations"] < plan.ht.x_idx.size * c["iterations"]
               for c in calls[1:])
