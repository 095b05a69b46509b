"""Config fuzz of the CLI, run in process: every mode, with one key of a small
valid config replaced by one odd value, ends with an error code or a run.

Exit 1 (``error_code=ERROR``) is a fault of the program, never an answer to
input; any other failure ends with an ``error_code=`` line; and a config
refused before any work starts leaves no ``out`` directory.
"""

import copy
import dataclasses

import pytest
import yaml

import rcds.cli
from rcds.cli import GRID_KEYS, MODE_KEYS, MSM_KEYS, WEIGHT_KEYS, main
from rcds.simulate import DgpParams
from rcds.weights import MonitorFeatureSpec

VALUES = (None, -1, 0, 1, 2.5, -0.5, "x", "", [], [1], [1, 2], {}, {"a": 1},
          True, False, 1e308, float("nan"), float("inf"), 1e20)
BLOCK_KEYS = {  # key path of a block: the keys it takes
    ("grid",): GRID_KEYS,
    ("msm",): MSM_KEYS,
    ("weights",): WEIGHT_KEYS,
    ("weights", "features"): tuple(
        f.name for f in dataclasses.fields(MonitorFeatureSpec)),
    ("dgp",): tuple(f.name for f in dataclasses.fields(DgpParams)),
}
ENTRY_POINTS = ("bootstrap_pipeline", "simulate_cohort", "oracle_truth",
                "run_coverage")
# every other (key path, value) pair runs, alternating with the key path, so
# that each value runs for every other key of each mode; the full sweep takes
# twice as long
EVERY = 2


def base_config(mode, cohort_csv):
    """A small valid config of ``mode``: it reads every block it takes, and
    keeps gaps linear, so that no single value makes a large design."""
    blocks = {"grid": {}, "msm": {}, "dgp": {},
              "weights": {"features": {"gap": "linear"}}}
    config = {"mode": mode, "seed": 1,
              **{k: v for k, v in blocks.items() if k in MODE_KEYS[mode]}}
    config.update({
        "simulate": {"n": 300},
        "oracle": {"n_mc": 1000},
        "analyze": {"input": cohort_csv, "kappa": 4.5, "bootstrap": 1},
        "frontier": {"input": cohort_csv, "kappa_grid": [4.5, 5.0],
                     "bootstrap": 1},
        "coverage": {"n": 300, "n_cohorts": 1, "bootstrap": 1,
                     "oracle_n_mc": 1000},
    }[mode])
    return config


def key_paths(mode):
    paths = [(key,) for key in MODE_KEYS[mode]]
    paths += [(*block, key) for block, keys in BLOCK_KEYS.items()
              if block[0] in MODE_KEYS[mode] for key in keys]
    return paths


def with_value(config, path, value):
    """A deep copy of ``config`` with ``path`` set to ``value``."""
    config = copy.deepcopy(config)
    block = config
    for key in path[:-1]:
        block = block[key]
    block[path[-1]] = value
    return config


@pytest.fixture(scope="module")
def cohort_csv(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fuzz-cohort")
    cfg = tmp / "sim.yaml"
    cfg.write_text(yaml.safe_dump({"mode": "simulate", "seed": 1, "n": 300}))
    assert main(["simulate", "--config", str(cfg),
                 "--out", str(tmp / "sim")]) == 0
    return str(tmp / "sim" / "cohort.csv")


# no value makes numpy warn: a huge DGP coefficient's linear predictor is
# evaluated to its infinite limit, which the logistic maps to 0 or 1; and an
# odd grid or DGP can leave a run with no event at the horizon, a curve
# pinned at zero
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.filterwarnings("ignore::rcds.errors.DegenerateResponse")
@pytest.mark.parametrize("mode", sorted(MODE_KEYS))
def test_no_config_value_reaches_a_program_fault(tmp_path, cohort_csv,
                                                 capsys, monkeypatch, mode):
    reached = []
    for name in ENTRY_POINTS:
        def spy(*args, _work=getattr(rcds.cli, name), **kwargs):
            reached.append(True)
            return _work(*args, **kwargs)
        monkeypatch.setattr(rcds.cli, name, spy)

    base = base_config(mode, cohort_csv)
    cfg = tmp_path / "config.yaml"
    cfg.write_text(yaml.safe_dump(base))
    assert main([mode, "--config", str(cfg), "--out",
                 str(tmp_path / "base")]) == 0, capsys.readouterr().err

    faults = []
    for i, path in enumerate(key_paths(mode)):
        for j, value in enumerate(VALUES):
            if (i + j) % EVERY:
                continue
            case = f"{'.'.join(path)}={value!r}"
            out = tmp_path / f"run{i}-{j}"
            # yaml.safe_dump, since a bare 1e20 in YAML text is a string
            cfg.write_text(yaml.safe_dump(with_value(base, path, value)))
            reached.clear()
            status = main([mode, "--config", str(cfg), "--out", str(out)])
            err = capsys.readouterr().err.splitlines()
            last = err[-1] if err else ""
            if status == 1:
                faults.append(f"{case}: exit 1, {err[-2:]}")
            elif status and not last.startswith("error_code="):
                faults.append(f"{case}: exit {status}, last line {last!r}")
            elif (last == "error_code=CONFIG_ERROR" and not reached
                  and out.exists()):
                faults.append(f"{case}: refused before any work, but made "
                              "out")
    assert not faults, "\n".join(faults)
