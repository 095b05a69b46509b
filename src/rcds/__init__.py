"""Resource-constrained dynamic monitoring strategies from longitudinal data.

Clone-censor-weight estimation of two dynamic marginal structural models
(failure risk and measurement count at a horizon) over a grid of
threshold-indexed monitoring strategies, constrained selection of the optimal
threshold under a resource cap, and a cohort simulator whose forced-strategy
Monte Carlo serves as the validating oracle.
"""

from .cohort import (
    BaselineField,
    BaselineSchema,
    Cohort,
    baseline_design,
)
from .errors import (
    BootstrapUnstable,
    ConfigError,
    DegenerateResponse,
    IngestError,
    NonConvergence,
    PositivityViolation,
    RankError,
    RcdsError,
    SchemaError,
    SeparationError,
)
from .expansion import ExpandedDataset, expand, horizon_table
from .glm import DesignMatrix, GlmFit, fit_glm, predict, rcs_basis
from .msm import (
    DoseResponseTable,
    MsmSpec,
    Plan,
    WeightOptions,
    analyze_cohort,
    bootstrap_pipeline,
    standardize,
)
from .optimize import ConstrainedSelection, frontier, select
from .simulate import (
    DgpParams,
    TruthTable,
    monitor_probability,
    oracle_truth,
    simulate_cohort,
)
from .strategies import (
    StrategyGrid,
    ThresholdStrategy,
    horizon_matrix,
)
from .study import run_coverage
from .weights import (
    MonitorFeatureSpec,
    attach_weights,
    fit_monitor_model,
)

__version__ = "0.1.0"
