"""The benchmark's workloads, each one ``rcds`` CLI config per run.

Every workload uses the default 31-threshold grid (x = 200, 210, ..., 500)
and the simulator's baseline schema, declared as an analyst would declare it.
Bootstrap sizes grow with the run length, so that a run holds a few whole CLI
runs whatever ``--seconds`` is; they never depend on measured speed, so one
seed and run length always give the same artifacts.
"""

from dataclasses import dataclass

KAPPA = 4.5  # usage cap: thresholds near 200 fit under it, those near 500 do not
X_VALUE = 350.0  # the coverage study's threshold
BASELINE_SCHEMA = [
    {"name": "sex", "kind": "categorical", "levels": ["female", "male"]},
    {"name": "base_marker_band", "kind": "categorical",
     "levels": ["lt250", "250to399", "ge400"]},
    {"name": "age", "kind": "continuous"},
    {"name": "calendar", "kind": "categorical",
     "levels": ["era0", "era1", "era2", "era3"]},
]


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # the rcds subcommand: "analyze" or "coverage"
    subjects: int         # per cohort
    b_per_second: float   # bootstrap replicates per second of run length
    min_b: int
    weights: tuple = ()   # extra entries of the config's weights block
    cohorts: int = 0      # coverage only
    oracle_n_mc: int = 0  # coverage only

    def replicates(self, seconds):
        return max(self.min_b, round(self.b_per_second * seconds))

    def config(self, seed, seconds, cohort_csv=None):
        """The CLI config of one run; ``out`` is given on the command line."""
        B = self.replicates(seconds)
        if self.command == "coverage":
            return {
                "mode": "coverage", "seed": seed, "n": self.subjects,
                "n_cohorts": self.cohorts, "bootstrap": B,
                "x_value": X_VALUE, "oracle_n_mc": self.oracle_n_mc,
                "oracle_rule": "natural",
                # run_coverage's own default; the CLI would pass "all"
                "msm": {"baseline_terms": ["sex", "age"]},
            }
        return {
            "mode": "analyze", "seed": seed, "input": cohort_csv,
            "kappa": KAPPA, "bootstrap": B, "weights": dict(self.weights),
            "baseline_schema": BASELINE_SCHEMA,
        }

    def operations(self, config):
        """Operations one CLI run attempts: the point analysis and each
        replicate, or the oracle and each coverage cohort."""
        if self.command == "coverage":
            return 1 + config["n_cohorts"]
        return 1 + config["bootstrap"]


WORKLOADS = {w.name: w for w in (
    Workload("analyze-boot-4k", "analyze", 4000, 1.6, 4),
    Workload("analyze-point-20k", "analyze", 20000, 0.0, 0),
    Workload("analyze-boot-trunc-4k", "analyze", 4000, 0.5, 2,
             weights=(("truncation", 99),)),
    Workload("coverage-2k", "coverage", 2000, 0.4, 2, cohorts=3,
             oracle_n_mc=20000),
)}
