"""Exception hierarchy and exit codes shared across the toolkit, and the
number checks of config values."""

import numbers


def is_number(value):
    """Whether a config value is a number: an int or a float, not a boolean."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def is_whole(value):
    """Whether a config value is a whole number, as ``24`` or ``24.0``."""
    return is_number(value) and float(value).is_integer()


class RcdsError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 1
    code = "ERROR"


class ConfigError(RcdsError):
    """Invalid configuration or parameter values."""

    exit_code = 2
    code = "CONFIG_ERROR"


class IngestError(RcdsError):
    """Malformed cohort input file."""

    exit_code = 3
    code = "INGEST_ERROR"

    def __init__(self, message, violations=None):
        super().__init__(message)
        self.violations = list(violations) if violations else []


class SeparationError(RcdsError):
    """A feature perfectly predicts the monitoring decision."""

    exit_code = 2
    code = "SEPARATION"

    def __init__(self, message, feature=None):
        super().__init__(message)
        self.feature = feature


class PositivityViolation(RcdsError):
    """Estimated decision probabilities fell below the positivity floor."""

    exit_code = 4
    code = "POSITIVITY_VIOLATION"

    def __init__(self, message, rows=None):
        super().__init__(message)
        # (subject_id, t) pairs for the first offending person-months
        self.rows = list(rows) if rows else []


class RankError(RcdsError):
    """Rank-deficient design matrix, with the dependent column when IRLS
    names one. The fits drop the columns constant over their rows first, so
    this is genuine collinearity."""

    exit_code = 2
    code = "RANK_DEFICIENT"

    def __init__(self, message, column=None):
        super().__init__(message)
        self.column = column


class NonConvergence(RcdsError):
    """IRLS failed to converge; carries the coefficient trajectory."""

    exit_code = 2
    code = "NON_CONVERGENCE"

    def __init__(self, message, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory or []


class SchemaError(RcdsError):
    """Design columns do not match the fitted model."""

    exit_code = 2
    code = "SCHEMA_MISMATCH"


class BootstrapUnstable(RcdsError):
    """Too many bootstrap replicates failed to fit."""

    exit_code = 5
    code = "BOOTSTRAP_UNSTABLE"


class DegenerateResponse(UserWarning):
    """All horizon responses are zero; the fitted curve is pinned near zero."""
