"""Weighted GLM fitting by IRLS and a restricted cubic spline basis.

Two families are supported: binomial with logit link and Poisson with log
link. Case weights multiply the working weights, so bootstrap multiplicities
and inverse-probability weights can be folded into a single weight vector.
A fit returns its coefficients and the diagnostics the estimator reads; no
model-based standard error, deviance or log-likelihood, since the intervals
come from the subject bootstrap. The link functions use numpy only, so
importing the package loads no scipy module.
"""

import copy
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NonConvergence, RankError, SchemaError

BINOMIAL_LOGIT = "binomial_logit"
POISSON_LOG = "poisson_log"

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 50


@dataclass
class DesignMatrix:
    """Dense design matrix with named columns and per-row case weights."""

    X: np.ndarray
    columns: list[str]
    weights: np.ndarray | None = None

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        if self.X.ndim != 2:
            raise ConfigError("design matrix must be 2-dimensional")
        n, p = self.X.shape
        if p < 1:
            raise ConfigError("design matrix needs at least one column")
        if len(self.columns) != p:
            raise ConfigError(
                f"{len(self.columns)} column names for {p} columns"
            )
        if not np.all(np.isfinite(self.X)):
            raise ConfigError("design matrix contains non-finite entries")
        self.weights = _case_weights(
            np.ones(n) if self.weights is None else self.weights, n)

    @property
    def n(self):
        return self.X.shape[0]

    def weighted_rows(self, weights):
        """The rows of positive case weight, weighted by ``weights`` (one per
        row); X, checked when this design was built, is not scanned again."""
        w = _case_weights(weights, self.n)
        out = copy.copy(self)
        out.X, out.weights = self.X[w > 0], w[w > 0]
        return out


def _case_weights(weights, n):
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (n,):
        raise ConfigError("weights must have one entry per row")
    if not np.all(np.isfinite(weights)) or np.any(weights < 0):
        raise ConfigError("case weights must be finite and >= 0")
    if not np.any(weights > 0):
        raise ConfigError("at least one case weight must be positive")
    return weights


@dataclass
class GlmFit:
    """Coefficients and diagnostics from one converged IRLS fit: the IRLS
    steps taken and the last step's condition number (the ratio of the
    extreme diagonal entries of its triangular factor)."""

    coef: np.ndarray
    columns: list[str]
    family: str
    iterations: int
    cond: float
    degenerate: bool = False
    pinned: tuple = ()      # cells held at a zero mean (see rcds.msm)
    directions: tuple = ()  # the steps that pinned them, over all columns


def rcs_basis(values, knots):
    """Restricted (natural) cubic spline basis.

    Returns ``k - 1`` columns for ``k`` knots: the identity (linear) term
    followed by ``k - 2`` nonlinear terms built from truncated cubes and
    scaled by ``(t_last - t_first)**2``. The basis is cubic between knots,
    linear beyond the boundary knots, and has continuous second derivatives;
    the nonlinear columns are exactly zero at or below the first knot.

    Parameters
    ----------
    values : array_like
        Points at which to evaluate the basis.
    knots : array_like
        Strictly increasing knot locations, at least three.
    """
    x = np.asarray(values, dtype=np.float64)
    t = np.asarray(knots, dtype=np.float64)
    k = t.size
    if k < 3:
        raise ConfigError("restricted cubic splines need at least 3 knots")
    if np.any(np.diff(t) <= 0):
        raise ConfigError("knots must be strictly increasing (no duplicates)")

    scale = (t[-1] - t[0]) ** 2
    last_gap = t[-1] - t[-2]

    def cube(u):
        return np.clip(u, 0.0, None) ** 3

    cols = [x]
    for j in range(k - 2):
        term = (
            cube(x - t[j])
            - cube(x - t[-2]) * (t[-1] - t[j]) / last_gap
            + cube(x - t[-1]) * (t[-2] - t[j]) / last_gap
        )
        cols.append(term / scale)
    return np.column_stack(cols)


def _check_response(y, family, n):
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (n,):
        raise ConfigError("response length does not match design")
    if family == BINOMIAL_LOGIT:
        if np.any((y != 0) & (y != 1)):
            raise ConfigError("binomial responses must be 0 or 1")
    elif family == POISSON_LOG:
        if np.any(y < 0) or not np.all(np.isfinite(y)):
            raise ConfigError("poisson responses must be finite and >= 0")
    else:
        raise ConfigError(f"unknown family {family!r}")
    return y


def logistic(x):
    """The inverse logit 1 / (1 + exp(-x)), elementwise, in float64; a
    scalar gives a scalar. Below x = -709.79 exp(-x) overflows to inf, which
    gives exactly 0, and from x = 36.74 up the result rounds to exactly 1."""
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore"):
        out = np.negative(x, out=np.empty_like(x))
        np.exp(out, out=out)
        out += 1.0
        np.reciprocal(out, out=out)
    return out if out.ndim else out[()]


def _mu_eta(eta, family):
    if family == BINOMIAL_LOGIT:
        mu = logistic(eta)
        return np.clip(mu, 1e-12, 1 - 1e-12)
    mu = np.exp(np.clip(eta, -300, 300))
    return np.clip(mu, 1e-300, None)


def varying_columns(X):
    """A mask of the columns of ``X`` that a refit keeps: the intercept,
    first, and every other column that is not constant over the rows; a
    constant one is collinear with the intercept and carries nothing."""
    return np.r_[True, np.any(X[:, 1:] != X[:1, 1:], axis=0)]


def _solve_wls(X, z, wts, columns):
    """Weighted least squares through the Cholesky factor L of X'WX; diag(L)
    equals |diag(R)| of the QR of W^(1/2)X. Forming X'WX squares the condition
    number, so when the factorization fails or diag(L) spans more than 1e6,
    :func:`_solve_qr` takes the step, and its rank rule names the column."""
    Xw = X * wts[:, None]
    try:
        L = np.linalg.cholesky(Xw.T @ X)
        diag = np.diag(L)
        if diag.min() >= 1e-6 * diag.max():  # False for NaN too
            beta = np.linalg.solve(L.T, np.linalg.solve(L, Xw.T @ z))
            return beta, float(diag.max() / diag.min())
    except np.linalg.LinAlgError:
        pass
    return _solve_qr(X, z, wts, columns)


def _solve_qr(X, z, wts, columns):
    """Weighted least squares via QR; raises RankError if deficient."""
    sw = np.sqrt(wts)
    A = X * sw[:, None]
    b = z * sw
    Q, R = np.linalg.qr(A, mode="reduced")
    diag = np.abs(np.diag(R))
    dmax = diag.max() if diag.size else 0.0
    if dmax == 0.0 or np.any(diag < 1e-10 * dmax):
        bad = int(np.argmin(diag / (dmax if dmax > 0 else 1.0)))
        raise RankError(
            f"design is rank deficient; column {columns[bad]!r} is linearly "
            "dependent on earlier columns",
            column=columns[bad],
        )
    return np.linalg.solve(R, Q.T @ b), float(diag.max() / diag.min())


def fit_glm(design, response, family, start=None, stop=None):
    """Fit a weighted GLM by iteratively reweighted least squares.

    Converges when the largest relative coefficient change drops below
    ``DEFAULT_TOL``; raises :class:`NonConvergence` after
    ``DEFAULT_MAX_ITER`` iterations and :class:`RankError` on a
    rank-deficient design, either with the coefficient trajectory so far.
    ``start`` warm-starts the linear predictor from a coefficient vector.
    ``stop``, if given, sees the coefficient trajectory after every step
    that has not converged, and an exception it returns ends the fit.
    """
    y = _check_response(response, family, design.n)
    X, w = design.X, design.weights
    n, p = X.shape

    if start is not None:
        eta = X @ np.asarray(start, dtype=np.float64)
    else:
        # intercept-style warm start from the weighted mean response
        ybar = float(np.sum(w * y) / np.sum(w))
        if family == BINOMIAL_LOGIT:
            mu0 = np.clip(ybar, 1e-6, 1 - 1e-6)
            eta = np.full(n, np.log(mu0 / (1 - mu0)))
        else:
            eta = np.full(n, np.log(max(ybar, 1e-6)))

    beta = np.zeros(p)
    history = []
    for it in range(1, DEFAULT_MAX_ITER + 1):
        mu = _mu_eta(eta, family)
        if family == BINOMIAL_LOGIT:
            var = mu * (1 - mu)
        else:
            var = mu
        wk = w * var
        z = eta + (y - mu) / var
        try:
            beta_new, cond = _solve_wls(X, z, wk, design.columns)
        except RankError as err:
            err.trajectory = history
            raise
        delta = np.max(np.abs(beta_new - beta))
        scale_ref = max(1.0, float(np.max(np.abs(beta_new))))
        history.append(beta_new.copy())
        beta = beta_new
        if delta <= DEFAULT_TOL * scale_ref:
            break
        eta = X @ beta
        if stop is not None and (err := stop(history)) is not None:
            raise err
    else:
        raise NonConvergence(
            f"IRLS did not converge in {DEFAULT_MAX_ITER} iterations "
            f"(last step {delta:.3e})",
            trajectory=history,
        )

    return GlmFit(coef=beta, columns=list(design.columns), family=family,
                  iterations=it, cond=cond)


def predict(fit, design):
    """Mean-scale predictions for a fitted model on a new design."""
    if list(design.columns) != list(fit.columns):
        raise SchemaError(
            f"design columns {design.columns} do not match fitted columns "
            f"{fit.columns}"
        )
    eta = design.X @ fit.coef
    if fit.family == BINOMIAL_LOGIT:
        return logistic(eta)
    return np.exp(np.clip(eta, -300, 300))
