"""The names the benchmark wraps must stay where it looks for them.

``perfbench/tracing.py`` wraps each ``TRACED`` function at every ``rcds``
module that holds it, and each traced method through its class's
``__dict__``; ``perfbench/child.py`` times ``ENTRY_POINTS`` as attributes of
``rcds.cli``. A rename or an inlined function would make a span silently read
zero, so both tables are checked here, read from the files as they stand.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import rcds.cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACED = _load("tracing").TRACED
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
