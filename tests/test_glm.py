"""GLM fitter and spline-basis tests, backed by independent numerical oracles."""

import dataclasses
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import expit, gammaln, xlogy

import rcds.glm
import rcds.msm
import rcds.weights
from rcds import (
    ConfigError,
    DesignMatrix,
    DgpParams,
    MsmSpec,
    NonConvergence,
    Plan,
    RankError,
    SchemaError,
    StrategyGrid,
    WeightOptions,
    simulate_cohort,
)
from rcds.glm import (
    BINOMIAL_LOGIT,
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    POISSON_LOG,
    GlmFit,
    fit_glm,
    logistic,
    predict,
    rcs_basis,
)


def _neg_loglik(beta, X, y, w, family):
    eta = X @ beta
    if family == BINOMIAL_LOGIT:
        mu = expit(eta)
        mu = np.clip(mu, 1e-12, 1 - 1e-12)
        return -np.sum(w * (xlogy(y, mu) + xlogy(1 - y, 1 - mu)))
    mu = np.exp(eta)
    return -np.sum(w * (xlogy(y, mu) - mu - gammaln(y + 1)))


def _deviance_at(beta, X, y, w, family):
    if family == BINOMIAL_LOGIT:
        sat = np.sum(w * (xlogy(y, y) + xlogy(1 - y, 1 - y)))
    else:
        sat = np.sum(w * (xlogy(y, y) - y - gammaln(y + 1)))
    return 2 * (_neg_loglik(beta, X, y, w, family) + sat)


class TestFitGlm:
    def test_intercept_only_poisson_closed_form(self):
        d = DesignMatrix(np.ones((3, 1)), ["intercept"])
        fit = fit_glm(d, [1.0, 2.0, 3.0], POISSON_LOG)
        assert fit.coef[0] == pytest.approx(np.log(2.0), abs=1e-10)

    def test_intercept_only_binomial_weighted_proportion(self):
        d = DesignMatrix(np.ones((2, 1)), ["intercept"], weights=[3.0, 1.0])
        fit = fit_glm(d, [1.0, 0.0], BINOMIAL_LOGIT)
        assert fit.coef[0] == pytest.approx(np.log(0.75 / 0.25), abs=1e-8)

    @pytest.mark.parametrize("family", [BINOMIAL_LOGIT, POISSON_LOG])
    def test_deviance_matches_independent_optimizer(self, family):
        # 25 random small instances per family against a derivative-free
        # optimization (finite-difference BFGS) of the same weighted
        # log-likelihood
        rng = np.random.default_rng(20240817)
        for trial in range(25):
            n, p = 50, int(rng.integers(2, 5))
            X = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))])
            w = rng.uniform(0.2, 3.0, size=n)
            beta_true = rng.normal(scale=0.5, size=p)
            eta = X @ beta_true
            if family == BINOMIAL_LOGIT:
                y = (rng.random(n) < expit(eta)).astype(float)
                if y.min() == y.max():
                    y[0] = 1 - y[0]
            else:
                y = rng.poisson(np.exp(eta)).astype(float)
            d = DesignMatrix(X, [f"c{j}" for j in range(p)], weights=w)
            fit = fit_glm(d, y, family)
            ref = minimize(
                _neg_loglik, np.zeros(p), args=(X, y, w, family),
                method="BFGS",
                options={"gtol": 1e-10, "maxiter": 500},
            )
            dev = _deviance_at(fit.coef, X, y, w, family)
            dev_ref = _deviance_at(ref.x, X, y, w, family)
            assert abs(dev - dev_ref) < 1e-6, (
                f"trial {trial}: IRLS deviance {dev} vs optimizer {dev_ref}"
            )
            eta = X @ fit.coef
            mu = expit(eta) if family == BINOMIAL_LOGIT else np.exp(eta)
            score = X.T @ (w * (y - mu))  # X'W(y - mu), ~0 at the MLE
            assert np.max(np.abs(score)) < 1e-6 * n

    def test_scale_equivariance_of_case_weights(self):
        rng = np.random.default_rng(3)
        X = np.column_stack([np.ones(40), rng.normal(size=40)])
        y = rng.poisson(2.0, size=40).astype(float)
        w = rng.uniform(0.5, 2.0, size=40)
        f1 = fit_glm(DesignMatrix(X, ["a", "b"], weights=w), y, POISSON_LOG)
        f2 = fit_glm(DesignMatrix(X, ["a", "b"], weights=17.0 * w), y, POISSON_LOG)
        assert np.allclose(f1.coef, f2.coef, atol=1e-10)

    def test_saturated_one_hot_reproduces_cell_proportions(self):
        cells = np.repeat([0, 1, 2], [30, 20, 10])
        X = np.column_stack([(cells == k).astype(float) for k in range(3)])
        rng = np.random.default_rng(11)
        y = (rng.random(60) < np.array([0.2, 0.5, 0.8])[cells]).astype(float)
        w = rng.uniform(0.5, 2.0, size=60)
        fit = fit_glm(DesignMatrix(X, ["c0", "c1", "c2"], weights=w), y,
                      BINOMIAL_LOGIT)
        for k in range(3):
            m = cells == k
            want = np.sum(w[m] * y[m]) / np.sum(w[m])
            got = expit(fit.coef[k])
            assert got == pytest.approx(want, abs=1e-8)

    def test_rank_deficiency_names_the_column(self):
        X = np.column_stack([np.ones(20), np.arange(20.0), 2 * np.arange(20.0)])
        with pytest.raises(RankError) as err:
            fit_glm(DesignMatrix(X, ["intercept", "t", "t2"]), np.ones(20),
                    POISSON_LOG)
        assert err.value.column == "t2"

    def test_nonconvergence_carries_trajectory(self):
        # separated binomial data cannot converge
        X = np.column_stack([np.ones(20), np.r_[np.zeros(10), np.ones(10)]])
        y = np.r_[np.zeros(10), np.ones(10)]
        with pytest.raises(NonConvergence) as err:
            fit_glm(DesignMatrix(X, ["intercept", "z"]), y, BINOMIAL_LOGIT)
        assert len(err.value.trajectory) == DEFAULT_MAX_ITER

    def test_response_validation(self):
        d = DesignMatrix(np.ones((3, 1)), ["intercept"])
        with pytest.raises(ConfigError):
            fit_glm(d, [0.0, 0.5, 1.0], BINOMIAL_LOGIT)
        with pytest.raises(ConfigError):
            fit_glm(d, [1.0, -2.0, 0.0], POISSON_LOG)


def reference_solve_wls(X, z, wts, columns):
    """The weighted least-squares step by QR of the scaled design, as IRLS
    solved it before the normal equations."""
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
    beta = np.linalg.solve(R, Q.T @ b)
    cond = float(diag.max() / diag.min())
    return beta, cond


def reference_fit(design, response, family):
    """IRLS over every row of ``design`` at once, each step solved by
    :func:`reference_solve_wls`: the row-level fit that the blocked normal
    equations of ``fit_glm`` replaced."""
    X, w = design.X, design.weights
    y = np.asarray(response, dtype=np.float64)
    ybar = float(np.sum(w * y) / np.sum(w))
    if family == BINOMIAL_LOGIT:
        mu0 = np.clip(ybar, 1e-6, 1 - 1e-6)
        eta = np.full(design.n, np.log(mu0 / (1 - mu0)))
    else:
        eta = np.full(design.n, np.log(max(ybar, 1e-6)))
    beta = np.zeros(X.shape[1])
    for it in range(1, DEFAULT_MAX_ITER + 1):
        mu = rcds.glm._mu_eta(eta, family)
        var = mu * (1 - mu) if family == BINOMIAL_LOGIT else mu
        new, cond = reference_solve_wls(X, eta + (y - mu) / var, w * var,
                                        design.columns)
        delta, beta = np.max(np.abs(new - beta)), new
        if delta <= DEFAULT_TOL * max(1.0, float(np.max(np.abs(beta)))):
            return GlmFit(coef=beta, columns=list(design.columns),
                          family=family, iterations=it, cond=cond)
        eta = X @ beta
    raise NonConvergence("reference IRLS did not converge")


def qr_calls(monkeypatch):
    """Count the IRLS steps that fall back to the QR solve."""
    calls = []
    qr = rcds.glm._solve_qr

    def spy(*args):
        calls.append(args)
        return qr(*args)

    monkeypatch.setattr(rcds.glm, "_solve_qr", spy)
    return calls


def near_collinear(eps, seed=7, n=200):
    """A full-rank design whose third column is the second plus ``eps``
    times noise, its case weights and a Poisson response."""
    rng = np.random.default_rng(seed)
    u, v = rng.normal(size=n), rng.normal(size=n)
    X = np.column_stack([np.ones(n), u, u + eps * v])
    w = rng.uniform(0.5, 2.0, size=n)
    y = rng.poisson(np.exp(0.3 + 0.5 * u)).astype(float)
    return DesignMatrix(X, ["intercept", "u", "u_eps"], weights=w), y


def qr_diagonal_ratio(design):
    R = np.linalg.qr(design.X * np.sqrt(design.weights)[:, None], mode="r")
    d = np.abs(np.diag(R))
    return d.min() / d.max()


@pytest.fixture(scope="module")
def resampled():
    # a 4k cohort and one bootstrap resample's multiplicities
    cohort = simulate_cohort(DgpParams(), 4000, seed=3)
    n = cohort.n_subjects
    rng = np.random.default_rng(1)
    return cohort, np.bincount(rng.integers(0, n, n), minlength=n).astype(float)


class TestNormalEquations:
    """The Cholesky step against the QR step it replaced."""

    @pytest.fixture(scope="class")
    def designs(self, resampled):
        # the monitoring and both MSM designs of the 4k cohort, weighted by
        # the resample's multiplicities
        cohort, mult = resampled
        plan = Plan(cohort, StrategyGrid.default(), MsmSpec(), WeightOptions())
        mon = plan.monitor
        out = [(dataclasses.replace(mon.matrix, weights=mult[mon.subject]),
                mon.monitored.astype(float), BINOMIAL_LOGIT)]
        ht, msm = plan.ht, plan.msm_design
        for r in (ht.y, ht.d.astype(float)):
            kept = ~np.isnan(r)
            out.append((DesignMatrix(msm.X, msm.columns,
                                     np.where(kept, mult[ht.subject_idx], 0.0)),
                        np.where(kept, r, 0.0), POISSON_LOG))
        return out

    @pytest.mark.parametrize("which", [0, 1, 2], ids=["monitor", "outcome",
                                                       "resource"])
    def test_matches_qr_on_estimator_designs(self, monkeypatch, designs,
                                             which):
        design, y, family = designs[which]
        calls = qr_calls(monkeypatch)
        got = fit_glm(design, y, family)
        assert not calls  # well-conditioned: no step falls back
        want = reference_fit(design, y, family)
        assert got.iterations == want.iterations
        np.testing.assert_allclose(got.coef, want.coef, rtol=1e-10, atol=0)
        assert got.cond == pytest.approx(want.cond, rel=1e-10)

    def test_small_diagonal_ratio_takes_qr_and_fits(self, monkeypatch):
        design, y = near_collinear(1e-7)
        assert 1e-10 < qr_diagonal_ratio(design) < 1e-6
        calls = qr_calls(monkeypatch)
        fit = fit_glm(design, y, POISSON_LOG)
        assert len(calls) == fit.iterations  # every step fell back
        want = reference_fit(design, y, POISSON_LOG)
        assert np.array_equal(fit.coef, want.coef)

    def test_gram_not_positive_definite_falls_back(self, monkeypatch):
        design, y = near_collinear(1e-8)
        assert qr_diagonal_ratio(design) > 1e-10
        X, w = design.X, design.weights
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky((X * w[:, None]).T @ X)
        calls = qr_calls(monkeypatch)
        fit = fit_glm(design, y, POISSON_LOG)
        assert len(calls) == fit.iterations
        want = reference_fit(design, y, POISSON_LOG)
        assert np.array_equal(fit.coef, want.coef)

    @pytest.mark.parametrize("make", [
        lambda a, b: [np.ones_like(a), a, b, a + b],
        lambda a, b: [np.ones_like(a), a, 2.0 * a, b],
        lambda a, b: [np.ones_like(a), 3.0 * np.ones_like(a), a],
        lambda a, b: [np.ones_like(a), a, np.zeros_like(a), b],
    ], ids=["sum", "multiple", "constant", "zero"])
    def test_collinear_design_names_the_reference_column(self, make):
        rng = np.random.default_rng(12)
        a, b = rng.normal(size=60), rng.normal(size=60)
        cols = make(a, b)
        design = DesignMatrix(np.column_stack(cols),
                              [f"c{j}" for j in range(len(cols))],
                              weights=rng.integers(0, 4, size=60).astype(float))
        y = rng.poisson(1.0, size=60).astype(float)
        with pytest.raises(RankError) as want:
            reference_fit(design, y, POISSON_LOG)
        with pytest.raises(RankError) as got:
            fit_glm(design, y, POISSON_LOG)
        assert got.value.column == want.value.column
        assert str(got.value) == str(want.value)


class TestBlockedPass:
    """IRLS steps summed over blocks of rows against one block of all rows:
    only the order of the sums differs."""

    def test_fits_and_curves_match_one_block(self, monkeypatch, resampled):
        cohort, mult = resampled

        def estimate():
            plan = Plan(cohort, StrategyGrid.default())
            point = plan.run(None)
            fits = plan.fit(mult)
            return plan, fits, point[:2] + plan.run(mult)[:2]

        plan, blocked, curves = estimate()
        # the monitoring design spans many blocks, the MSM design several
        assert plan.monitor.matrix.n > 10 * rcds.glm.BLOCK_ROWS
        assert plan.msm_design.n > 3 * rcds.glm.BLOCK_ROWS
        monkeypatch.setattr(rcds.glm, "BLOCK_ROWS", plan.monitor.matrix.n)
        _, whole, whole_curves = estimate()
        for got, want in zip(blocked, whole):
            assert got.columns == want.columns
            assert got.iterations == want.iterations
            # relative to the fit's largest coefficient: a small one on
            # correlated columns takes the rounding of the others
            np.testing.assert_allclose(
                got.coef, want.coef, rtol=0,
                atol=1e-10 * np.abs(want.coef).max())
        for got, want in zip(curves, whole_curves):
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)


def bootstrap_multiplicities(n, seed, B):
    """The subject multiplicities of the replicates of
    ``bootstrap_pipeline(B=B, seed=seed)`` on ``n`` subjects."""
    return [np.bincount(np.random.default_rng(ss).integers(0, n, n),
                        minlength=n).astype(np.float64)
            for ss in np.random.SeedSequence(seed).spawn(B)]


class TestStall:
    """Only a refit on the rows a boundary face kept takes QR steps: the
    rounding of X'WX can hold such a refit just above the tolerance."""

    def test_stalled_refit_converges_by_qr_steps(self, monkeypatch):
        # replicate 6 of a 600-subject bootstrap: after its face, the refit
        # by Cholesky steps stalls, and by QR steps it converges
        cohort = simulate_cohort(DgpParams(), 600, seed=5)
        mult = bootstrap_multiplicities(cohort.n_subjects, 5, 10)[6]
        plan = Plan(cohort, StrategyGrid.default())
        plan.run(None)
        refits, fit = [], rcds.glm.fit_glm

        def recorded(*args, **kwargs):
            out = fit(*args, **kwargs)
            if kwargs.get("qr"):
                refits.append((args, kwargs))
            return out

        monkeypatch.setattr(rcds.msm, "fit_glm", recorded)
        risk, usage, pinned = plan.run(mult)
        assert pinned and len(refits) == 1
        assert np.all((risk > 0) & (risk < 1)) and np.all(usage > 0)
        args, kwargs = refits[0]
        calls = qr_calls(monkeypatch)
        refit = fit(*args, **kwargs)
        assert len(calls) == refit.iterations
        with pytest.raises(NonConvergence, match="in 50 iterations"):
            fit(*args, **{**kwargs, "qr": False})

    @pytest.mark.parametrize("wopts", [WeightOptions(),
                                       WeightOptions(truncation=99.0)],
                             ids=["ip", "truncated"])
    def test_workload_fits_never_stall(self, monkeypatch, wopts):
        # the 4k cohort of the bootstrap workloads: its point fits and five
        # replicates have no face and no constant column, take no QR step,
        # and no monitoring fit tries a separation certificate
        cohort = simulate_cohort(DgpParams(), 4000, seed=7)
        mults = [None, *bootstrap_multiplicities(cohort.n_subjects, 7, 5)]
        calls, tries = qr_calls(monkeypatch), []
        monkeypatch.setattr(rcds.weights, "_on_support",
                            lambda *args: tries.append(args))
        plan = Plan(cohort, StrategyGrid.default(), MsmSpec(), wopts)
        for mult in mults:
            fit_m, fit_y, fit_d = plan.fit(mult)
            assert plan.monitor.dropped(fit_m) == ()
            assert fit_y.columns == fit_d.columns == plan.msm_design.columns
            assert fit_y.directions == fit_d.directions == ()
        assert not calls and not tries


class TestPredict:
    def test_zero_coefficients(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(5, 2))
        d = DesignMatrix(X, ["a", "b"])
        train = DesignMatrix(
            np.column_stack([np.ones(4), [0.0, 1.0, 2.0, 3.0]]), ["a", "b"])
        fit_b = fit_glm(train, [0, 1, 0, 1], BINOMIAL_LOGIT)
        fit_b.coef = np.zeros(2)
        assert np.allclose(predict(fit_b, d), 0.5)
        fit_p = fit_glm(train, [1, 2, 1, 2], POISSON_LOG)
        fit_p.coef = np.zeros(2)
        assert np.allclose(predict(fit_p, d), 1.0)

    def test_training_mean_identity_with_intercept(self):
        # weighted mean of fitted values equals the weighted response mean:
        # the intercept's score equation
        rng = np.random.default_rng(5)
        X = np.column_stack([np.ones(80), rng.normal(size=(80, 2))])
        y = rng.poisson(1.5, size=80).astype(float)
        w = rng.uniform(0.2, 2.5, size=80)
        d = DesignMatrix(X, ["i", "a", "b"], weights=w)
        fit = fit_glm(d, y, POISSON_LOG)
        mu = predict(fit, d)
        assert np.sum(w * mu) / np.sum(w) == pytest.approx(
            np.sum(w * y) / np.sum(w), abs=1e-8)

    def test_column_mismatch_raises(self):
        d = DesignMatrix(np.ones((3, 1)), ["intercept"])
        fit = fit_glm(d, [1.0, 2.0, 3.0], POISSON_LOG)
        with pytest.raises(SchemaError):
            predict(fit, DesignMatrix(np.ones((3, 1)), ["other"]))


class TestLinkFunctions:
    """The numpy link functions against scipy's, to stated tolerances."""

    def test_logistic_within_4_ulp_of_expit(self):
        # both compute 1 / (1 + exp(-x)); numpy's exp and the C library's
        # differ by up to an ulp, which the rounding of 1 + exp(-x) above
        # 2**53 (x near -37) can widen to 4 ulp of the result
        x = np.linspace(-800.0, 800.0, 2_000_001)
        ulps = np.abs(logistic(x).view(np.int64) - expit(x).view(np.int64))
        assert ulps.max() <= 4
        assert logistic(0.0) == 0.5 and np.ndim(logistic(0.0)) == 0

    def test_logistic_saturates_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert list(logistic(np.array([-800.0, 800.0]))) == [0.0, 1.0]
            assert logistic(-800.0) == 0.0 and logistic(800.0) == 1.0


class TestRcsBasis:
    def test_linear_below_first_knot(self):
        x = np.linspace(-5.0, 0.0, 50)
        basis = rcs_basis(x, [0.0, 5.0, 10.0])
        assert np.array_equal(basis[:, 0], x)
        assert np.all(basis[:, 1:] == 0.0)

    def test_second_derivative_continuous_at_interior_knots(self):
        # one-sided 4-point second-derivative stencils are exact for cubic
        # pieces, so left and right limits at a knot expose any jump
        knots = np.array([1.0, 4.0, 7.5, 10.0])
        h = 1e-2
        for k in knots[1:-1]:
            left_pts = np.array([k, k - h, k - 2 * h, k - 3 * h])
            right_pts = np.array([k, k + h, k + 2 * h, k + 3 * h])
            bl = rcs_basis(left_pts, knots)
            br = rcs_basis(right_pts, knots)
            for j in range(bl.shape[1]):
                left = (2 * bl[0, j] - 5 * bl[1, j] + 4 * bl[2, j]
                        - bl[3, j]) / h ** 2
                right = (2 * br[0, j] - 5 * br[1, j] + 4 * br[2, j]
                         - br[3, j]) / h ** 2
                assert abs(left - right) < 1e-6

    def test_linear_beyond_last_knot(self):
        knots = [0.0, 5.0, 10.0]
        x = np.linspace(11.0, 30.0, 40)
        b = rcs_basis(x, knots)
        for j in range(b.shape[1]):
            slopes = np.diff(b[:, j]) / np.diff(x)
            assert np.allclose(slopes, slopes[0], atol=1e-9)

    def test_matches_truncated_power_formula(self):
        # direct evaluation of the normalized truncated-power expression
        knots = np.array([0.0, 5.0, 10.0])
        x = np.array([10.0])

        def plus3(v):
            return max(v, 0.0) ** 3

        t0, t1, t2 = knots
        scale = (t2 - t0) ** 2
        want = (
            plus3(x[0] - t0)
            - plus3(x[0] - t1) * (t2 - t0) / (t2 - t1)
            + plus3(x[0] - t2) * (t1 - t0) / (t2 - t1)
        ) / scale
        b = rcs_basis(x, knots)
        assert b[0, 0] == x[0]
        assert b[0, 1] == pytest.approx(want, rel=1e-12)

    def test_knot_validation(self):
        with pytest.raises(ConfigError):
            rcs_basis([1.0], [0.0, 0.0, 1.0])
        with pytest.raises(ConfigError):
            rcs_basis([1.0], [0.0, 1.0])
