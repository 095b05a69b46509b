"""Spans around the public functions of the rcds modules, recorded from outside.

:meth:`Recorder.install` replaces each traced function with a wrapper at every
``rcds`` module that holds it by name (``fit_glm`` is reached through both
``rcds.msm`` and ``rcds.weights``), and each traced method on its class. A
span is ``(name, start, end, parent)``; spans stay in memory and are written
out once, when the run ends. Nothing in ``src/`` knows about tracing.
"""

import json
import sys
import time


def _ingest_counts(args, kwargs, result):
    return {"rows": int(result.n_rows)}


def _expand_counts(args, kwargs, result):
    # the dataset's own arrays; the cohort and grid it refers to have no nbytes
    nbytes = sum(getattr(v, "nbytes", 0) for v in vars(result).values())
    return {"rows": int(result.n_rows), "bytes": int(nbytes)}


def _glm_counts(args, kwargs, result):
    design = args[0] if args else kwargs["design"]
    it = int(result.iterations)
    return {"iterations": it, "row_iterations": int(design.X.shape[0]) * it}


def _bootstrap_counts(args, kwargs, result):
    t = result.table
    return {"replicates": int(t.n_boot), "failed": int(t.n_failed),
            "pinned": int(t.n_pinned)}


def _coverage_counts(args, kwargs, result):
    return {"cohorts": len(result.rows)}


# (defining module, attribute, span name, counts taken from the result)
TRACED = (
    ("rcds.io", "ingest_cohort", "io.ingest", _ingest_counts),
    ("rcds.io", "report_to_csv", "io.write", None),
    ("rcds.io", "dump_yaml", "io.write", None),
    ("rcds.cohort", "Cohort.validate", "cohort.validate", None),
    ("rcds.strategies", "horizon_matrix", "strategies.horizon_matrix", None),
    ("rcds.expansion", "expand", "expansion.expand", _expand_counts),
    ("rcds.expansion", "horizon_table", "expansion.horizon_table", None),
    ("rcds.weights", "fit_monitor_model", "weights.fit_monitor_model", None),
    ("rcds.weights", "attach_weights", "weights.attach_weights", None),
    ("rcds.weights", "clone_horizon_weights", "weights.clone_horizon_weights",
     None),
    ("rcds.weights", "CensoringWeightPlan.horizon_weights",
     "weights.censoring_plan", None),
    ("rcds.glm", "fit_glm", "glm.fit_glm", _glm_counts),
    ("rcds.msm", "analyze_cohort", "msm.analyze_cohort", None),
    ("rcds.msm", "bootstrap_pipeline", "msm.bootstrap", _bootstrap_counts),
    ("rcds.msm", "standardize", "msm.standardize", None),
    ("rcds.simulate", "oracle_truth", "simulate.oracle_truth", None),
    ("rcds.simulate", "simulate_cohort", "simulate.simulate_cohort", None),
    ("rcds.study", "run_coverage", "study.run_coverage", _coverage_counts),
    ("rcds.optimize", "select", "optimize.select", None),
    ("rcds.chart", "render_chart", "chart.render_chart", None),
)


class Recorder:
    """In-memory span store for one single-threaded process."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent index, counts]
        self._stack = []

    def wrap(self, fn, name, counts):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None,
                    stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counts is not None:
                span[4] = counts(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every entry of :data:`TRACED`; rcds must be imported."""
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "rcds" or k.startswith("rcds."))]
        for mod_name, attr, name, counts in TRACED:
            owner = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(cls.__dict__[meth], name, counts))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(original, name, counts)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def summarize(spans):
    """Per span name: calls, inclusive and self seconds, summed counts.

    A span's self time is its duration minus the durations of its direct
    children; calls are sequential, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}
    for i, (name, start, end, parent, counts) in enumerate(spans):
        s = out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0,
                                  "counts": {}})
        s["calls"] += 1
        s["incl_s"] += end - start
        s["self_s"] += end - start - child_time[i]
        for k, v in (counts or {}).items():
            s["counts"][k] = s["counts"].get(k, 0) + v
    return out


def nested_incl(spans, outer, inner):
    """Inclusive seconds of ``inner`` spans whose parent is an ``outer`` span."""
    return sum(end - start for name, start, end, parent, _ in spans
               if name == inner and parent >= 0 and spans[parent][0] == outer)
