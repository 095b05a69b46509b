"""Weighted GLM fitting by IRLS and a restricted cubic spline basis.

Two families are supported: binomial with logit link and Poisson with log
link. Case weights multiply the working weights, so bootstrap multiplicities
and inverse-probability weights can be folded into a single weight vector.
A fit returns its coefficients and the diagnostics the estimator reads; no
model-based standard error, deviance or log-likelihood, since the intervals
come from the subject bootstrap. The link functions use numpy only, so
importing the package loads no scipy module.

Each IRLS step reads the design once, in cache-sized blocks of rows, and
sums the normal equations X'WX and X'Wz block by block, so that it makes no
temporary as long as the design; only the rare QR step works on the whole
design. A fit sees only its rows of positive case weight, so leaving rows
in at weight zero gives the same bits as leaving them out.

The exact test that an MLE does not exist, :func:`_on_support`, serves the
MSM faces (:func:`rcds.msm._face`) and the monitoring fit's stop rule.
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
    """Dense design matrix with named columns and per-row case weights. X is
    kept column by column (Fortran order): a block of rows is then one
    contiguous run per column, whose products an IRLS step takes up to
    twice as fast as those of rows kept one after another."""

    X: np.ndarray
    columns: list[str]
    weights: np.ndarray | None = None

    def __post_init__(self):
        self.X = np.asfortranarray(self.X, dtype=np.float64)
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
        self.weights = _case_weights(  # unweighted: one read-only 1.0
            np.broadcast_to(1.0, n) if self.weights is None else self.weights,
            n)

    @property
    def n(self):
        return self.X.shape[0]

    def weighted_rows(self, weights):
        """The rows of positive case weight, weighted by ``weights`` (one per
        row); X, checked when this design was built, is not scanned again,
        and is shared, not copied, when every row is kept."""
        w = _case_weights(weights, self.n)
        rows = np.flatnonzero(w > 0)
        out = copy.copy(self)
        out.weights = w
        if rows.size < self.n:
            out.X, out.weights = _take_rows(self.X, rows), w.take(rows)
        return out


def _take_rows(X, rows):
    """The given rows of X, in X's column-by-column order."""
    return X.T.take(rows, axis=1).T


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
    """The clamped mean of ``eta``, a new array. The clamps are in-place
    maximum-then-minimum, the bits of :func:`numpy.clip` without its
    wrapper's cost on every block of an IRLS pass."""
    if family == BINOMIAL_LOGIT:
        mu = logistic(eta)
        np.maximum(mu, 1e-12, out=mu)
        return np.minimum(mu, 1 - 1e-12, out=mu)
    mu = np.maximum(eta, -300.0)
    np.minimum(mu, 300.0, out=mu)
    np.exp(mu, out=mu)
    return np.maximum(mu, 1e-300, out=mu)


def constant_columns(design):
    """The names of the columns of ``design`` after the first (the
    intercept) that are constant over its rows: each is collinear with the
    intercept and carries nothing."""
    X = design.X
    return tuple(np.compress(np.all(X[:, 1:] == X[:1, 1:], axis=0),
                             design.columns[1:]).tolist())


CERT_TOL = 1e-6  # of the largest |x·d|: a row within it of 0 counts as 0
FACE_TOL = 1e-10  # of the largest column norm: the rank tolerance


def _null(A, scale):
    """An orthonormal basis, as columns, of the null space of ``A``: its
    right singular vectors of singular value at most FACE_TOL * scale."""
    if A.shape[0] > A.shape[1]:
        A = np.linalg.qr(A, mode="r")
    if not A.size:
        return np.eye(A.shape[1])
    _, s, vt = np.linalg.svd(A)
    return vt[int(np.sum(s > FACE_TOL * scale)):].T


def _on_support(A, uhat):
    """Coefficients c with A c > 0 on the rows where ``uhat`` is above
    CERT_TOL of its largest and A c = 0 on the others, or None. On rows of A
    along which a fit's likelihood only rises, c is an exact certificate
    that the MLE does not exist (Albert & Anderson 1984; Correia, Guimarães
    & Zylkin 2019); ``uhat`` only proposes its rows. c is the least-squares
    fit of ``uhat`` among the coefficients that vanish on the other rows; a
    row where the fit falls to CERT_TOL of its largest joins the others, and
    the fit is taken again. The null space of the others has the rank
    tolerance of :func:`rcds.msm._face`: FACE_TOL of their largest column
    norm."""
    support = uhat > CERT_TOL * uhat.max()
    while support.any():
        off = A[~support]
        M = _null(off, np.linalg.norm(off, axis=0).max(initial=0.0))
        if not M.size:
            return None
        c = M @ np.linalg.lstsq(A[support] @ M, uhat[support], rcond=None)[0]
        v = A[support] @ c
        if v.max() <= 0:
            return None
        stays = v > CERT_TOL * v.max()
        if stays.all():
            return c
        support[support] = stays
    return None


# rows per block of an IRLS pass, by measurement: 4096 to 8192 were fastest
# on 11-column MSM designs; wider blocks gained up to 20% a pass on 5-column
# monitoring designs of 290k rows but lost more on 11 columns
BLOCK_ROWS = 4096


def _working(X, y, w, beta, eta0, family):
    """The working response z and working weights of one IRLS step at
    ``beta``, or at the constant linear predictor ``eta0`` before the first
    step, for the rows of ``X``."""
    eta = np.full(X.shape[0], eta0) if beta is None else X @ beta
    mu = _mu_eta(eta, family)
    var = mu * (1 - mu) if family == BINOMIAL_LOGIT else mu
    return eta + (y - mu) / var, w * var


def _deviance(X, y, w, beta, family):
    """The weighted deviance of the fit ``beta`` over the rows of ``X``."""
    mu = _mu_eta(X @ beta, family)
    if family == BINOMIAL_LOGIT:
        return -2.0 * float(w @ np.log(np.where(y > 0, mu, 1 - mu)))
    return 2.0 * float(w @ (y * np.log(np.where(y > 0, y, 1.0) / mu) - y + mu))


def _halved(X, y, w, beta, last, last_dev, family):
    """The step from ``last`` to ``beta``, halved while it raises the
    deviance by ``DEFAULT_TOL`` of it or makes it non-finite (glm2; Marschner
    2011), and its deviance; ``last`` when no halving lowers it."""
    for _ in range(DEFAULT_MAX_ITER):
        dev = _deviance(X, y, w, beta, family)
        if dev - last_dev < DEFAULT_TOL * (0.1 + abs(dev)):  # False for NaN
            return beta, dev
        beta = (beta + last) / 2
    return last, last_dev


def _normal_equations(X, y, w, beta, eta0, family):
    """X'WX and X'Wz of one IRLS step, summed over blocks of ``BLOCK_ROWS``
    rows: each block's working values and weighted rows stay in cache, and
    no temporary as long as the design is made."""
    p = X.shape[1]
    gram, rhs = np.zeros((p, p)), np.zeros(p)
    for s in range(0, X.shape[0], BLOCK_ROWS):
        Xb = X[s:s + BLOCK_ROWS]
        z, wk = _working(Xb, y[s:s + BLOCK_ROWS], w[s:s + BLOCK_ROWS], beta,
                         eta0, family)
        Xw = Xb * wk[:, None]
        gram += Xw.T @ Xb
        rhs += Xw.T @ z
    return gram, rhs


def _solve_qr(X, z, wts, columns):
    """Weighted least squares via QR; raises RankError if deficient."""
    sw = np.sqrt(wts)
    A = X * sw[:, None]
    b = z * sw
    Q, R = np.linalg.qr(A, mode="reduced")
    diag = np.abs(np.diag(R))
    if diag.max() == 0.0 or np.any(diag < 1e-10 * diag.max()):
        bad = int(np.argmin(diag))
        raise RankError(
            f"design is rank deficient; column {columns[bad]!r} is linearly "
            "dependent on earlier columns",
            column=columns[bad],
        )
    return np.linalg.solve(R, Q.T @ b), float(diag.max() / diag.min())


def _step(X, y, w, beta, eta0, family, columns, qr=False):
    """One IRLS step: the weighted least-squares solution through the
    Cholesky factor L of X'WX, whose diagonal equals |diag(R)| of the QR of
    W^(1/2)X, and that diagonal's extreme ratio. Forming X'WX squares the
    condition number, so when ``qr`` is set, the factorization fails or
    diag(L) spans more than 1e6, :func:`_solve_qr` takes the step over the
    whole design, and its rank rule names the column."""
    if not qr:
        gram, rhs = _normal_equations(X, y, w, beta, eta0, family)
        try:
            L = np.linalg.cholesky(gram)
            diag = np.diag(L)
            if diag.min() >= 1e-6 * diag.max():  # False for NaN too
                beta = np.linalg.solve(L.T, np.linalg.solve(L, rhs))
                return beta, float(diag.max() / diag.min())
        except np.linalg.LinAlgError:
            pass
    return _solve_qr(X, *_working(X, y, w, beta, eta0, family), columns)


def fit_glm(design, response, family, start=None, stop=None, qr=False):
    """Fit a weighted GLM by iteratively reweighted least squares.

    The fit runs on the rows of positive case weight, taken out first, so a
    row of weight zero changes nothing, not even the rounding. Each step is
    one pass over those rows in blocks of ``BLOCK_ROWS`` that sums the
    normal equations (:func:`_normal_equations`), then a Cholesky solve, or
    a QR solve over the whole design when that is ill-conditioned
    (:func:`_step`). With ``qr`` set, as on the refit after a boundary face,
    every step takes the QR solve and is halved while it raises the deviance
    (:func:`_halved`), the first toward the start (column 0 the intercept).

    Converges when the largest relative coefficient change drops below
    ``DEFAULT_TOL``; raises :class:`NonConvergence`, with the coefficient
    trajectory, after ``DEFAULT_MAX_ITER`` iterations, and
    :class:`RankError`, naming the dependent column, on a rank-deficient
    design. ``start`` warm-starts the linear predictor from a coefficient
    vector. ``stop``, if given, sees the coefficient trajectory after every
    step that has not converged, and an exception it returns ends the fit
    (:func:`rcds.weights._separation_stop`).
    """
    y = _check_response(response, family, design.n)
    X, w = design.X, design.weights
    if not np.all(w > 0):
        rows = np.flatnonzero(w > 0)
        X, y, w = _take_rows(X, rows), y.take(rows), w.take(rows)
    p = X.shape[1]

    beta = eta0 = None
    if start is not None:
        beta = np.asarray(start, dtype=np.float64)
    else:
        # intercept-style warm start from the weighted mean response
        ybar = float(np.sum(w * y) / np.sum(w))
        if family == BINOMIAL_LOGIT:
            mu0 = np.clip(ybar, 1e-6, 1 - 1e-6)
            eta0 = np.log(mu0 / (1 - mu0))
        else:
            eta0 = np.log(max(ybar, 1e-6))

    last_beta = np.zeros(p)
    if qr:
        last_beta = np.r_[eta0, np.zeros(p - 1)] if beta is None else beta
        last_dev = _deviance(X, y, w, last_beta, family)
    history = []
    for it in range(1, DEFAULT_MAX_ITER + 1):
        beta, cond = _step(X, y, w, beta, eta0, family, design.columns, qr)
        if qr:
            beta, last_dev = _halved(X, y, w, beta, last_beta, last_dev,
                                     family)
        delta = np.max(np.abs(beta - last_beta))
        scale_ref = max(1.0, float(np.max(np.abs(beta))))
        history.append(beta)
        if delta <= DEFAULT_TOL * scale_ref:
            break
        last_beta = beta
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
