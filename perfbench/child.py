"""Run one ``rcds`` CLI command in this fresh interpreter and record timings.

    python3 perfbench/child.py RECORD.json SPANS.json|- RCDS-ARGS...

The entry points of the estimator (``analyze_cohort``, ``bootstrap_pipeline``
and ``run_coverage`` as the CLI calls them) are timed on every run; with a
spans path other than ``-`` every layer is traced as well (see
``tracing.py``). Times are ``time.monotonic()`` readings, so the parent can
subtract the moment it started this process.
"""

import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENTRY_POINTS = ("analyze_cohort", "bootstrap_pipeline", "run_coverage")


def _timed(fn, marks):
    def entry(*args, **kwargs):
        marks["entry_start"] = time.monotonic()
        try:
            return fn(*args, **kwargs)
        finally:
            marks["entry_end"] = time.monotonic()

    return entry


def main(argv):
    record_path, spans_path, cli_args = argv[0], argv[1], argv[2:]
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import scipy
    import rcds.cli as cli

    recorder = None
    if spans_path != "-":
        from tracing import Recorder

        recorder = Recorder()
        recorder.install()
    marks = {}
    for name in ENTRY_POINTS:
        setattr(cli, name, _timed(getattr(cli, name), marks))

    status = cli.main(cli_args)
    marks["end"] = time.monotonic()
    marks.update(
        status=status,
        maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        python=platform.python_version(),
        numpy=numpy.__version__,
        scipy=scipy.__version__,
        blas_threads={k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "RCDS_THREADS")},
    )
    with open(record_path, "w") as fh:
        json.dump(marks, fh)
    if recorder is not None:
        recorder.dump(spans_path)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
