"""GLM fitting, naive and bootstrap inference, and the population odds ratio."""

from __future__ import annotations

import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import expit, ndtri

import smoothmask.glm as glm
from smoothmask import masking
from smoothmask.glm import (
    ModelSpec,
    bootstrap_ci,
    fit,
    naive_ci,
    population_odds_ratio,
)
from smoothmask.kernels import (
    BivariateNormalKernel,
    EuclideanKernel,
    RingAngleKernel,
    RingBlockKernel,
    RingKernel,
)

POISSON = ModelSpec("poisson-log", ("x",))
GAUSSIAN = ModelSpec("gaussian-identity", ("x1", "x2"))


class TestFit:
    def test_poisson_intercept_only_closed_form(self):
        model = ModelSpec("poisson-log", ())
        fr = fit(model, None, np.array([1.0, 2.0, 3.0]))
        assert fr.converged
        assert fr.beta[0] == pytest.approx(math.log(2.0), abs=1e-10)

    def test_gaussian_matches_normal_equations(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0, 1, (60, 2))
        y = 1.0 + x @ np.array([2.0, -0.5]) + rng.normal(0, 0.3, 60)
        fr = fit(GAUSSIAN, x, y)
        X = np.hstack([np.ones((60, 1)), x])
        want = np.linalg.solve(X.T @ X, X.T @ y)
        np.testing.assert_allclose(fr.beta, want, atol=1e-10, rtol=0)
        # naive covariance equals the usual OLS covariance
        resid = y - X @ fr.beta
        sigma2 = (resid ** 2).sum() / (60 - 3)
        np.testing.assert_allclose(fr.cov, sigma2 * np.linalg.inv(X.T @ X), rtol=1e-10)

    def test_poisson_recovers_truth_at_scale(self):
        # exposure-field setup: strong spatial signal, beta = 4
        from smoothmask.sim import RadialExposure, sample_locations, simulate_outcomes

        locs = sample_locations(5000, seed=101)
        x = RadialExposure().values(locs)
        y = simulate_outcomes(x, mu=-25.0, beta=4.0, seed=102)
        fr = fit(POISSON, x, y)
        assert fr.converged
        assert abs(fr.beta[1] - 4.0) < 3.0 * fr.se[1]

    def test_quasi_likelihood_accepts_non_integer_outcomes(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(0, 2, 100)
        y = np.exp(0.3 + 0.8 * x) + rng.normal(0, 0.05, 100)
        y = np.clip(y, 0.0, None)
        fr = fit(POISSON, x, y)
        assert fr.converged
        assert fr.beta[1] == pytest.approx(0.8, abs=0.15)

    def test_offset_scales_the_mean(self):
        rng = np.random.default_rng(6)
        n = np.array([10.0, 20.0, 40.0, 80.0] * 25)
        x = rng.uniform(0, 1, 100)
        y = rng.poisson(n * np.exp(-1.0 + 1.5 * x))
        fr = fit(POISSON, x, y.astype(float), offset=np.log(n))
        assert fr.converged
        assert fr.beta[0] == pytest.approx(-1.0, abs=0.3)
        assert fr.beta[1] == pytest.approx(1.5, abs=0.3)

    def test_offset_moment_identity(self):
        # canonical link with intercept: fitted means sum to the observed total
        rng = np.random.default_rng(7)
        n = rng.integers(5, 50, 40).astype(float)
        x = rng.uniform(0, 1, 40)
        y = rng.poisson(n * np.exp(0.2 + 0.5 * x)).astype(float)
        fr = fit(POISSON, x, y, offset=np.log(n))
        mu_hat = np.exp(glm.design_matrix(POISSON, x[:, None]) @ fr.beta + np.log(n))
        assert mu_hat.sum() == pytest.approx(y.sum(), rel=1e-6)

    def test_binomial_requires_trials(self):
        with pytest.raises(ValueError, match="trial"):
            fit(ModelSpec("binomial-logit", ("x",)), np.zeros(4), np.zeros(4))

    def test_masked_binomial_outcomes_rounded_above_trials_count_as_trials(self):
        # masking outcomes that equal their trial count rounds a few of them
        # an ulp or so above it; fit treats those as the trial count
        locs, x, y, trials = _binomial_at_trials()
        a = masking.build_operator(locs, EuclideanKernel(), 0.01).a
        mx, my = a @ x, a @ y
        assert (my > trials).any() and (my <= trials * (1.0 + 1e-14)).all()
        model = ModelSpec("binomial-logit", ("x",))
        fr = fit(model, mx, my, trials=trials)
        clamped = fit(model, mx, np.minimum(my, trials), trials=trials)
        assert fr.converged
        assert np.array_equal(fr.beta, clamped.beta) and fr.deviance == clamped.deviance

    def test_binomial_outcome_beyond_rounding_rejected(self):
        y = np.array([1.0, 5.0 * (1.0 + 1e-10), 5.0 * (1.0 + 1e-8), 5.0 * (1.0 + 1e-8)])
        with pytest.raises(glm.OutOfRangeError, match="0 <= y <= trials") as info:
            fit(ModelSpec("binomial-logit", ("x",)), np.arange(4.0), y, trials=np.full(4, 5.0))
        assert (info.value.role, info.value.row) == ("y", 2)

    @pytest.mark.parametrize("family, y, trials, role, row", [
        ("poisson-log", [1.0, 2.0, -0.5, 3.0, -1.0], None, "y", 2),
        ("binomial-logit", [1.0, -1.0, 2.0, 9.0, 1.0], [5.0] * 5, "y", 1),
        ("binomial-logit", [1.0, 2.0, 9.0, 1.0, 1.0], [5.0] * 5, "y", 2),
        ("binomial-logit", [1.0, 2.0, 0.0, 1.0, 0.0], [5.0, 5.0, 5.0, 0.0, -2.0], "trials", 3),
    ], ids=["poisson_negative", "binomial_negative", "binomial_above_trials", "trials_zero"])
    def test_out_of_range_error_names_role_and_first_row(self, family, y, trials, role, row):
        with pytest.raises(glm.OutOfRangeError) as info:
            fit(ModelSpec(family, ("x",)), np.arange(5.0), np.array(y),
                trials=None if trials is None else np.array(trials))
        assert isinstance(info.value, ValueError)
        assert (info.value.role, info.value.row) == (role, row)

    def test_binomial_recovers_logit(self):
        rng = np.random.default_rng(8)
        n = rng.integers(20, 60, 200).astype(float)
        x = rng.uniform(-1, 1, 200)
        p = expit(-0.4 + 1.2 * x)
        y = rng.binomial(n.astype(int), p).astype(float)
        fr = fit(ModelSpec("binomial-logit", ("x",)), x, y, trials=n)
        assert fr.converged
        assert fr.beta[0] == pytest.approx(-0.4, abs=0.1)
        assert fr.beta[1] == pytest.approx(1.2, abs=0.15)

    def test_rank_deficiency_names_columns(self):
        x = np.column_stack([np.arange(10.0), 2.0 * np.arange(10.0)])
        model = ModelSpec("gaussian-identity", ("a", "twice_a"))
        with pytest.raises(ValueError, match="collinear.*twice_a|collinear.*'a'"):
            fit(model, x, np.arange(10.0))

    def test_score_small_on_converged_fits(self):
        rng = np.random.default_rng(9)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            x = rng.uniform(0, 1.5, 150)
            y = rng.poisson(np.exp(0.5 + 1.0 * x)).astype(float)
            fr = fit(POISSON, x, y)
            assert fr.converged
            assert fr.max_abs_score <= 1e-6

    def test_non_convergence_is_flagged_not_raised(self, monkeypatch):
        monkeypatch.setattr(glm, "_MAX_ITER", 1)
        rng = np.random.default_rng(10)
        x = rng.uniform(0, 1, 50)
        y = rng.poisson(np.exp(1.0 + 2.0 * x)).astype(float)
        fr = fit(POISSON, x, y)
        assert not fr.converged
        with pytest.raises(ValueError, match="converged"):
            naive_ci(fr)

    def test_stops_when_no_halved_step_has_a_finite_deviance(self):
        # the squared residuals overflow at the start and at every halved step
        x = np.arange(10.0)
        y = np.array([(-1) ** i * 1e200 * (1 + i / 10) for i in range(10)])
        fr = fit(ModelSpec("gaussian-identity", ("x",)), x, y)
        assert (fr.iterations, fr.converged, fr.deviance) == (1, False, math.inf)

    def test_repeated_regressor_rejected(self):
        # it would otherwise reach the fit as a rank-deficient design
        with pytest.raises(ValueError, match="regressor 'x1' is named twice"):
            ModelSpec("poisson-log", ("x1", "x2", "x1"))

    def test_reparameterization_invariance_of_fitted_means(self):
        rng = np.random.default_rng(11)
        x = rng.normal(0, 1, (80, 2))
        y = rng.poisson(np.exp(0.3 + x @ np.array([0.7, -0.4]))).astype(float)
        model = ModelSpec("poisson-log", ("a", "b"))
        fr = fit(model, x, y)
        # full-rank affine change of regressors
        A = np.array([[2.0, 0.3], [-0.5, 1.1]])
        shift = np.array([0.4, -1.2])
        fr2 = fit(model, x @ A + shift, y)
        mu1 = np.exp(glm.design_matrix(model, x) @ fr.beta)
        mu2 = np.exp(glm.design_matrix(model, x @ A + shift) @ fr2.beta)
        np.testing.assert_allclose(mu1, mu2, rtol=1e-8)


def _lstsq_irls(model, x, y, trials=None, offset=None):
    """Reference: classical IRLS, each step a weighted least-squares solve of the
    working response by lstsq, with fit's starts, step-halving and stopping rule.
    Returns (beta, se, deviance, converged, fitted means)."""
    N = y.size
    X = glm.design_matrix(model, x, n_rows=N)
    offset = np.zeros(N) if offset is None else offset
    family = model.family
    if family == "poisson-log":
        start = np.log(y + 0.5) - offset
    elif family == "binomial-logit":
        frac = (y + 0.5) / (trials + 1.0)
        start = np.log(frac / (1.0 - frac)) - offset
    else:
        start = y - offset
    beta = np.linalg.lstsq(X, start, rcond=None)[0]

    def state(b):
        eta = X @ b + offset
        if family == "poisson-log":
            mu = glm._poisson_mu(eta)
            w = np.maximum(mu, 1e-290)
        elif family == "binomial-logit":
            p = np.clip(expit(eta), 1e-12, 1.0 - 1e-12)
            mu, w = trials * p, trials * p * (1.0 - p)
        else:
            mu, w = eta, np.ones(N)
        return mu, w, eta - offset + (y - mu) / w, X.T @ (y - mu)

    def deviance(mu):
        return glm._deviance(family, y, mu, trials)

    mu, w, z, score = state(beta)
    dev = deviance(mu)
    converged = False
    for _ in range(glm._MAX_ITER):
        sw = np.sqrt(w)
        new = np.linalg.lstsq(X * sw[:, None], z * sw, rcond=None)[0]
        mu_n, w_n, z_n, score_n = state(new)
        dev_n = deviance(mu_n)
        halvings = 0
        while (not math.isfinite(dev_n) or dev_n > dev * (1.0 + 1e-12) + 1e-12) \
                and halvings < glm._MAX_HALVINGS:
            new = 0.5 * (new + beta)
            mu_n, w_n, z_n, score_n = state(new)
            dev_n = deviance(mu_n)
            halvings += 1
        rel = abs(dev - dev_n) / (abs(dev_n) + 0.1)
        beta, mu, w, z, score, dev = new, mu_n, w_n, z_n, score_n, dev_n
        if rel <= glm._DEVIANCE_RTOL and np.max(np.abs(score)) <= glm._SCORE_TOL:
            converged = True
            break
    if family == "gaussian-identity":
        cov = dev / max(N - X.shape[1], 1) * np.linalg.inv(X.T @ X)
    else:
        cov = np.linalg.inv((X * w[:, None]).T @ X)
    return beta, np.sqrt(np.diag(cov)), dev, converged, mu


class TestFisherScoringStep:
    """fit's Fisher-scoring step against the classical lstsq IRLS step."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           family=st.sampled_from(glm.FAMILIES),
           p=st.integers(1, 3),
           n=st.integers(20, 150),
           with_offset=st.booleans(),
           collinearity=st.sampled_from([None, 1e-2, 1e-7]))
    # fitted means near zero (-5.3e-7): elementwise they differ by 1.1e-4 relative
    @example(seed=29029, family='gaussian-identity', p=1, n=108, with_offset=True,
             collinearity=1e-07)
    def test_matches_lstsq_irls(self, seed, family, p, n, with_offset, collinearity):
        rng = np.random.default_rng(seed)
        x = rng.normal(0.0, 1.0, (n, p))
        if collinearity is not None:
            # the last regressor is nearly the intercept (p = 1) or the first column
            base = np.ones(n) if p == 1 else x[:, 0]
            x[:, -1] = base + collinearity * rng.normal(0.0, 1.0, n)
        coef = rng.uniform(-0.5, 0.5, p) / (1.0 if collinearity is None else p)
        eta = 0.3 + (x - x.mean(axis=0)) @ coef
        offset = rng.uniform(-0.5, 0.5, n) if with_offset else None
        if offset is not None:
            eta = eta + offset
        trials = None
        if family == "poisson-log":
            y = rng.poisson(np.exp(eta) * 5.0).astype(float)
        elif family == "binomial-logit":
            trials = rng.integers(5, 60, n).astype(float)
            y = rng.binomial(trials.astype(int), expit(eta)).astype(float)
        else:
            y = eta + rng.normal(0.0, 0.5, n)
        model = ModelSpec(family, tuple(f"x{j}" for j in range(p)))
        fr = fit(model, x, y, trials=trials, offset=offset)
        beta, se, dev, converged, mu = _lstsq_irls(model, x, y, trials, offset)
        X = glm.design_matrix(model, x)
        if np.linalg.cond(X) <= 1e6:
            assert fr.converged == converged
            np.testing.assert_allclose(fr.beta, beta, rtol=1e-8, atol=1e-12)
            np.testing.assert_allclose(fr.se, se, rtol=1e-8)
            np.testing.assert_allclose(fr.deviance, dev, rtol=1e-8, atol=1e-10)
        elif fr.converged and converged:
            # beta is ill-determined here, and a step computed from X'WX keeps
            # fewer digits of the fitted means than one from lstsq on sqrt(W)X
            # (worst seen over 1000 designs with cond(X) up to 4e7: 3.6e-6);
            # the bound is normwise, as a mean near zero has no relative digits
            np.testing.assert_allclose(fr.deviance, dev, rtol=1e-8, atol=1e-10)
            err = np.abs(_fitted_means(fr, x, trials, offset) - mu).max()
            assert err <= 1e-4 * np.abs(mu).max()

    def test_near_constant_regressor_same_deviance_and_means(self):
        # cond(X) ~ 2e7: beta is determined to ~1e-3 only, by either step
        rng = np.random.default_rng(23)
        x = 1.0 + 1e-7 * rng.normal(0.0, 1.0, 200)
        y = rng.poisson(np.exp(0.5 + 2e6 * (x - 1.0))).astype(float)
        fr = fit(POISSON, x, y)
        _, _, dev, converged, mu = _lstsq_irls(POISSON, x, y)
        assert fr.converged and converged
        assert fr.deviance == pytest.approx(dev, rel=1e-8)
        np.testing.assert_allclose(_fitted_means(fr, x), mu, rtol=1e-5)


def _fitted_means(fr, x, trials=None, offset=None):
    eta = glm.design_matrix(fr.model, x) @ fr.beta
    if offset is not None:
        eta = eta + offset
    if fr.model.family == "poisson-log":
        return np.exp(eta)
    if fr.model.family == "binomial-logit":
        return trials * expit(eta)
    return eta


def _qr_rank_error(X, names):
    """Reference: the rank check through scipy.linalg.qr; the message or None."""
    try:
        r, piv = scipy.linalg.qr(X, mode="r", pivoting=True)
    except ValueError as err:
        return str(err)
    diag = np.abs(np.diag(r))
    if diag.size == 0 or diag[0] == 0.0:
        return f"design matrix is identically zero; columns: {list(names)}"
    rank = int((diag > diag[0] * max(X.shape) * np.finfo(float).eps).sum())
    if rank < X.shape[1]:
        return f"design matrix is rank deficient; collinear column(s): {[names[j] for j in piv[rank:]]}"
    return None


def _rank_message(X, names):
    """glm._check_rank's message, or None when it accepts the design."""
    try:
        glm._check_rank(X, names)
    except ValueError as err:
        return str(err)
    return None


class TestCheckRank:
    def test_diagonal_and_pivots_match_scipy_qr(self, monkeypatch):
        # near-collinear designs fail the singular-value certificate, so the
        # verdict comes from the pivoted QR
        calls = []
        lapack_qr = scipy.linalg.lapack.dgeqp3

        def spy(a):
            out = lapack_qr(a)
            calls.append((a, out))
            return out

        monkeypatch.setattr(scipy.linalg.lapack, "dgeqp3", spy)
        rng = np.random.default_rng(24)
        for p, gap in ((2, 1e-9), (3, 1e-9), (4, 1e-15)):
            X = np.hstack([np.ones((50, 1)), rng.normal(0.0, 1.0, (50, p - 1))])
            X[:, -1] = X[:, -2] + gap * rng.normal(0.0, 1.0, 50)
            X[:, -1] *= 1e3
            names = [f"c{j}" for j in range(p)]
            assert _rank_message(X, names) == _qr_rank_error(X, names)
        assert len(calls) == 3
        for X, (r, jpvt, *_rest) in calls:
            r_ref, piv_ref = scipy.linalg.qr(X, mode="r", pivoting=True)
            np.testing.assert_array_equal(np.abs(np.diag(r)), np.abs(np.diag(r_ref)))
            np.testing.assert_array_equal(jpvt - 1, piv_ref)

    def test_certified_designs_skip_the_qr(self, monkeypatch):
        def fail(a):
            raise AssertionError("pivoted QR called for a well-conditioned design")

        monkeypatch.setattr(scipy.linalg.lapack, "dgeqp3", fail)
        rng = np.random.default_rng(7)
        X = np.hstack([np.ones((200, 1)), rng.normal(0.0, 1.0, (200, 2)) * [1e-3, 1e3]])
        assert _rank_message(X, ["c0", "c1", "c2"]) is None

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), p=st.integers(1, 5),
           kind=st.sampled_from(["scaled", "copy", "sum", "near"]),
           scale=st.integers(-150, 150), spread=st.integers(0, 10))
    def test_property_messages_match_scipy_qr(self, seed, n, p, kind, scale, spread):
        rng = np.random.default_rng(seed)
        X = rng.normal(0.0, 1.0, (n, p))
        if rng.random() < 0.5:
            X[:, 0] = 1.0
        if p >= 2 and kind != "scaled":
            (a, b), c = rng.choice(p, 2, replace=False), rng.integers(p)
            if kind == "copy":        # exactly collinear: a power-of-two multiple
                X[:, b] = 2.0 ** int(rng.integers(-3, 4)) * X[:, a]
            elif kind == "sum":       # collinear up to the rounding of the sum
                X[:, b] = X[:, a] + X[:, c]
            else:                     # collinear up to a relative gap 1e-16..1e-6
                X[:, b] = X[:, a] + 10.0 ** -rng.uniform(6, 16) * rng.normal(0.0, 1.0, n)
        X *= 10.0 ** (scale + rng.uniform(-spread, spread, p))
        names = [f"c{j}" for j in range(p)]
        assert _rank_message(X, names) == _qr_rank_error(X, names)

    @pytest.mark.parametrize("X", [
        np.column_stack([np.arange(10.0), 2.0 * np.arange(10.0)]),
        np.column_stack([np.ones(8), np.arange(8.0), np.ones(8) + np.arange(8.0)]),
        np.column_stack([np.ones(6), np.zeros(6), np.arange(6.0)]),
        np.zeros((5, 2)),
        np.empty((0, 2)),
        np.column_stack([np.ones(4), [1.0, np.nan, 2.0, 3.0]]),
        np.column_stack([np.ones(4), [1.0, np.inf, 2.0, 3.0]]),
    ], ids=["twice", "sum_of_two", "zero_column", "all_zero", "no_rows", "nan", "inf"])
    def test_messages_match_scipy_qr_check(self, X):
        names = [f"c{j}" for j in range(X.shape[1])]
        want = _qr_rank_error(X, names)
        assert want is not None
        with pytest.raises(ValueError) as err:
            glm._check_rank(X, names)
        assert str(err.value) == want


BAD_LEVELS = [0.0, 1.0, 1.5, float("nan")]


class TestNaiveCi:
    def test_standard_normal_quantile(self):
        fr = _fixed_fit(beta=np.array([0.0]), cov=np.array([[1.0]]))
        lo, hi = naive_ci(fr, 0.95)[0]
        assert lo == pytest.approx(-1.959964, abs=1e-6)
        assert hi == pytest.approx(1.959964, abs=1e-6)

    def test_degenerate_level_collapses(self):
        fr = _fixed_fit(beta=np.array([2.0]), cov=np.array([[1.0]]))
        lo, hi = naive_ci(fr, 1e-12)[0]
        assert lo == pytest.approx(2.0, abs=1e-6)
        assert hi == pytest.approx(2.0, abs=1e-6)

    def test_level_090_against_frozen_quantile(self):
        # z_{0.95} from an independent quantile table
        z95 = 1.6448536269514722
        fr = _fixed_fit(beta=np.array([1.0]), cov=np.array([[4.0]]))
        lo, hi = naive_ci(fr, 0.90)[0]
        assert lo == pytest.approx(1.0 - 2.0 * z95, rel=1e-12)
        assert hi == pytest.approx(1.0 + 2.0 * z95, rel=1e-12)

    def test_bad_level_rejected(self):
        fr = _fixed_fit(beta=np.array([0.0]), cov=np.array([[1.0]]))
        for level in BAD_LEVELS:
            with pytest.raises(ValueError, match=r"^level must lie in \(0, 1\)$"):
                naive_ci(fr, level)


class TestScipyFreeSpecialFunctions:
    def test_ndtri_equals_scipy_bit_for_bit(self):
        rng = np.random.default_rng(17)
        q = np.concatenate([
            rng.uniform(0.0, 1.0, 60_000),
            np.linspace(0.0, 1.0, 20_001),
            10.0 ** -rng.uniform(0.0, 300.0, 15_000),           # lower tail to 1e-300
            1.0 - 10.0 ** -rng.uniform(0.0, 16.0, 15_000),      # upper tail to 1 - 1e-16
            0.5 * (1.0 + rng.uniform(0.0, 1.0, 5_000)),         # the CI levels' quantiles
            [0.135335283236612, 0.1353352832366127, 0.8646647167633873, 1.2664165549e-14,
             5e-324, np.nextafter(1.0, 0.0), 0.975, 0.95, -0.5, 1.5, np.nan],
        ])
        got = np.array([glm._ndtri(float(v)) for v in q])
        assert len(q) >= 100_000
        np.testing.assert_array_equal(got, ndtri(q))

    def test_expit_within_an_ulp_of_scipy(self):
        # numpy's exp may round differently from the C library's in the last bit
        x = np.concatenate([np.random.default_rng(3).normal(0.0, 20.0, 100_000),
                            [-1e4, -745.0, -709.8, 0.0, 36.0, 745.0, 1e4]])
        np.testing.assert_allclose(glm._expit(x), expit(x), rtol=4e-16, atol=0.0)
        assert glm._expit(np.array([-1e4]))[0] == 0.0


class TestPercentileInterval:
    """The numpy.ma-free interval equals np.percentile's linear method bit for bit."""

    @settings(max_examples=400, deadline=None)
    @given(values=st.one_of(
        hnp.arrays(np.float64, st.integers(1, 80), elements=st.floats(-1e6, 1e6)),
        # ties, both signed zeros, and the R=2 smallest sample
        hnp.arrays(np.float64, st.integers(2, 40),
                   elements=st.sampled_from([-1.5, -0.0, 0.0, 2.0, 7.25])),
        hnp.arrays(np.float64, 2, elements=st.floats(-1e3, 1e3)),
        st.builds(np.full, st.integers(2, 40), st.floats(-1e3, 1e3)),
        hnp.arrays(np.float64, st.integers(1, 20), elements=st.floats()),
    ), alpha=st.one_of(st.sampled_from([0.025, 0.05, 0.005, 0.25, 0.5, 0.0]),
                       st.floats(0.0, 0.5), st.floats(0.5, 1.0)))
    @example(values=np.array([3.0, 1.0]), alpha=0.025)
    @example(values=np.full(5, 2.5), alpha=0.05)
    @example(values=np.array([0.0, -0.0, 0.0, -0.0]), alpha=0.3)
    def test_bit_identical_to_numpy(self, values, alpha):
        with np.errstate(invalid="ignore"):
            want = np.percentile(values, [100.0 * alpha, 100.0 * (1.0 - alpha)])
            got = glm._percentile_interval(values.copy(), alpha)
        assert np.array(got).tobytes() == want.tobytes()


def _binomial_at_trials(n=200):
    """Records with 25 trials each, all of them events where s1 < 0."""
    rng = np.random.default_rng(0)
    locs = rng.uniform(-1, 1, (n, 2))
    trials = np.full(n, 25.0)
    y = np.where(locs[:, 0] < 0, 25.0, rng.integers(0, 25, n).astype(float))
    return locs, rng.normal(0, 1, (n, 1)), y, trials


def _fixed_fit(beta, cov):
    model = ModelSpec("gaussian-identity", tuple(f"c{i}" for i in range(len(beta) - 1)) if len(beta) > 1 else ())
    return glm.FitResult(model=model, beta=beta, cov=cov, information=np.linalg.inv(cov),
                         deviance=0.0, iterations=1, converged=True, n_obs=10,
                         max_abs_score=0.0)


def _aggregated_binomial(seed=12, cells=40):
    rng = np.random.default_rng(seed)
    n = rng.integers(50, 500, cells).astype(float)
    frac = rng.uniform(0, 1, cells)          # group fraction
    other = rng.normal(0, 1, cells)
    p = expit(-2.0 + 0.9 * frac + 0.3 * other)
    y = rng.binomial(n.astype(int), p).astype(float)
    x = np.column_stack([frac, other])
    return x, y, n


class TestPopulationOddsRatio:
    def test_single_covariate_equals_exp_beta(self):
        rng = np.random.default_rng(13)
        n = rng.integers(100, 400, 30).astype(float)
        frac = rng.uniform(0, 1, 30)
        y = rng.binomial(n.astype(int), expit(-1.5 + 0.8 * frac)).astype(float)
        model = ModelSpec("binomial-logit", ("frac",))
        fr = fit(model, frac, y, trials=n)
        res = population_odds_ratio(fr, frac[:, None], n, "frac")
        assert res.or_value == pytest.approx(math.exp(fr.beta[1]), rel=1e-10)

    def test_zero_group_effect_gives_unit_or(self):
        x, y, n = _aggregated_binomial()
        model = ModelSpec("binomial-logit", ("frac", "other"))
        fr = fit(model, x, y, trials=n)
        doctored = glm.FitResult(model=model, beta=np.array([fr.beta[0], 0.0, fr.beta[2]]),
                                 cov=fr.cov, information=fr.information, deviance=fr.deviance,
                                 iterations=fr.iterations, converged=True, n_obs=fr.n_obs,
                                 max_abs_score=fr.max_abs_score)
        res = population_odds_ratio(doctored, x, n, "frac")
        assert res.or_value == pytest.approx(1.0, rel=1e-12)

    def test_three_cell_hand_computation(self):
        # frozen coefficients; weighted-average definition computed by hand
        model = ModelSpec("binomial-logit", ("frac", "z"))
        beta = np.array([-1.0, 0.5, 0.25])
        x = np.array([[0.2, 1.0], [0.5, -1.0], [0.9, 0.0]])
        n = np.array([100.0, 300.0, 600.0])
        fr = _or_fit(model, beta)
        res = population_odds_ratio(fr, x, n, "frac")
        pb = (100 * expit(-1 + 0.5 + 0.25) + 300 * expit(-1 + 0.5 - 0.25)
              + 600 * expit(-1 + 0.5)) / 1000
        pw = (100 * expit(-1 + 0.25) + 300 * expit(-1 - 0.25) + 600 * expit(-1)) / 1000
        want = (pb * (1 - pw)) / (pw * (1 - pb))
        assert res.or_value == pytest.approx(want, rel=1e-12)
        assert res.ci[0] < res.or_value < res.ci[1]

    def test_invariant_to_centering_and_scaling(self):
        x, y, n = _aggregated_binomial(seed=14)
        model = ModelSpec("binomial-logit", ("frac", "other"))
        fr = fit(model, x, y, trials=n)
        base = population_odds_ratio(fr, x, n, "frac")
        x2 = x.copy()
        x2[:, 1] = (x2[:, 1] - 3.7) / 2.9   # affine change of the non-group column
        fr2 = fit(model, x2, y, trials=n)
        moved = population_odds_ratio(fr2, x2, n, "frac")
        assert moved.or_value == pytest.approx(base.or_value, rel=1e-8)
        assert moved.log_or_se_naive == pytest.approx(base.log_or_se_naive, rel=1e-6)

    def test_delta_gradient_matches_finite_differences(self):
        x, y, n = _aggregated_binomial(seed=15)
        model = ModelSpec("binomial-logit", ("frac", "other"))
        fr = fit(model, x, y, trials=n)
        grad = glm._log_odds_ratio(model, fr.beta, x, n, "frac")[1]
        h = 1e-6
        fd = np.empty_like(grad)
        for k in range(len(grad)):
            up, dn = fr.beta.copy(), fr.beta.copy()
            up[k] += h
            dn[k] -= h
            fd[k] = (glm._log_odds_ratio(model, up, x, n, "frac")[0]
                     - glm._log_odds_ratio(model, dn, x, n, "frac")[0]) / (2 * h)
        np.testing.assert_allclose(grad, fd, atol=1e-5, rtol=0)

    def test_one_log_odds_ratio_behind_every_caller(self):
        x, y, n = _aggregated_binomial(seed=16)
        model = ModelSpec("binomial-logit", ("frac", "other"))
        fr = fit(model, x, y, trials=n)
        log_or, grad, p_b, p_w = glm._log_odds_ratio(model, fr.beta, x, n, "frac")
        res = population_odds_ratio(fr, x, n, "frac")
        assert (res.log_or, res.p_exposed, res.p_unexposed) == (log_or, p_b, p_w)
        assert res.log_or_se_naive == math.sqrt(grad @ fr.cov @ grad)

    @pytest.mark.parametrize("beta, message", [
        ([800.0, 0.0], "exposed summary probability is 1.0"),
        ([-800.0, 0.0], "exposed summary probability is 0.0"),
        ([0.0, -900.0], "exposed summary probability is 0.0"),
    ])
    def test_gradient_undefined_at_degenerate_probability(self, beta, message):
        fr = _or_fit(ModelSpec("binomial-logit", ("frac",)), np.array(beta))
        with pytest.raises(ValueError, match=message + "; odds ratio undefined"):
            population_odds_ratio(fr, np.array([[0.2], [0.5], [0.9]]),
                                  np.array([10.0, 20.0, 30.0]), "frac")

    def test_requires_binomial_fit(self):
        fr = _fixed_fit(beta=np.array([0.0, 1.0]), cov=np.eye(2))
        with pytest.raises(ValueError, match="binomial"):
            population_odds_ratio(fr, np.array([[0.5]]), np.array([10.0]), "c0")

    def test_group_fraction_bounds_checked(self):
        model = ModelSpec("binomial-logit", ("frac",))
        fr = _or_fit(model, np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="fraction"):
            population_odds_ratio(fr, np.array([[1.7]]), np.array([10.0]), "frac")

    @pytest.mark.parametrize("level", BAD_LEVELS)
    def test_level_outside_unit_interval_rejected(self, level):
        # level 1.5 used to give ci=(nan, nan), and level 0 a zero-width interval
        fr = _or_fit(ModelSpec("binomial-logit", ("frac",)), np.array([-1.0, 0.5]))
        with pytest.raises(ValueError, match=r"^level must lie in \(0, 1\)$"):
            population_odds_ratio(fr, np.array([[0.2], [0.5], [0.9]]),
                                  np.array([10.0, 20.0, 30.0]), "frac", level=level)


def _or_fit(model, beta):
    q = len(beta)
    return glm.FitResult(model=model, beta=np.asarray(beta, dtype=float), cov=np.eye(q) * 0.01,
                         information=np.eye(q) * 100.0, deviance=0.0, iterations=1,
                         converged=True, n_obs=100, max_abs_score=0.0)


@st.composite
def _remask_inputs(draw):
    """Locations (some shared), two regressors, an outcome, optional binomial
    trials, and one of the five kernel families at a smoothness that may be 0."""
    n = draw(st.integers(2, 30))
    coord = st.floats(-2, 2, allow_subnormal=False)
    pool = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=n))
    locs = np.array([pool[draw(st.integers(0, len(pool) - 1))] for _ in range(n)])
    values = hnp.arrays(float, (n, 3), elements=st.floats(-1e3, 1e3, allow_subnormal=False))
    v = draw(values)
    trials = None
    if draw(st.booleans()):
        trials = np.array(draw(st.lists(st.integers(1, 50), min_size=n, max_size=n)), float)
        v[:, 2] = np.floor(np.abs(v[:, 2]) / 1e3 * trials)
    kernel = draw(st.sampled_from([EuclideanKernel(), RingKernel(), RingAngleKernel(),
                                   RingBlockKernel(),
                                   BivariateNormalKernel(var1=0.9, var2=1.4, rho=-0.3)]))
    lam = draw(st.one_of(st.just(0.0), st.floats(1e-3, 10.0)))
    return locs, v[:, :2], v[:, 2], trials, kernel, lam


class TestBootstrap:
    def test_degenerate_exact_relation_zero_se(self):
        rng = np.random.default_rng(16)
        x = rng.normal(0, 1, (40, 2))
        y = 0.5 + x @ np.array([1.0, -2.0])   # no noise
        res = bootstrap_ci(GAUSSIAN, x, y, statistic=1, b=50, seed=3)
        assert res.se <= 1e-8

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(17)
        x = rng.normal(0, 1, (60, 1))
        y = 1.0 + 0.6 * x[:, 0] + rng.normal(0, 0.5, 60)
        model = ModelSpec("gaussian-identity", ("x",))
        a = bootstrap_ci(model, x, y, statistic=1, b=200, seed=99)
        b = bootstrap_ci(model, x, y, statistic=1, b=200, seed=99)
        assert (a.se, a.lower, a.upper) == (b.se, b.lower, b.upper)

    def test_se_close_to_analytic_ols(self):
        rng = np.random.default_rng(18)
        n = 500
        x = rng.normal(0, 1, (n, 1))
        y = 2.0 + 1.0 * x[:, 0] + rng.normal(0, 1.0, n)
        model = ModelSpec("gaussian-identity", ("x",))
        res = bootstrap_ci(model, x, y, statistic=1, b=400, seed=5)
        X = np.hstack([np.ones((n, 1)), x])
        resid = y - X @ np.linalg.solve(X.T @ X, X.T @ y)
        sigma2 = (resid ** 2).sum() / (n - 2)
        analytic_se = math.sqrt(sigma2 * np.linalg.inv(X.T @ X)[1, 1])
        assert abs(res.se - analytic_se) / analytic_se < 0.25

    def test_remask_strategy_runs_and_is_deterministic(self):
        rng = np.random.default_rng(19)
        n = 60
        locs = rng.uniform(-1, 1, (n, 2))
        x = rng.normal(0, 1, (n, 1))
        y = 0.5 + 1.2 * x[:, 0] + rng.normal(0, 0.2, n)
        model = ModelSpec("gaussian-identity", ("x",))
        kwargs = dict(statistic=1, b=60, seed=11, locs=locs,
                      remask=(EuclideanKernel(), 0.3))
        a = bootstrap_ci(model, x, y, **kwargs)
        b = bootstrap_ci(model, x, y, **kwargs)
        assert (a.se, a.lower, a.upper) == (b.se, b.lower, b.upper)
        assert a.se > 0

    def test_remasked_outcomes_rounded_above_trials_refit(self, monkeypatch):
        # each remasked resample has outcomes a few ulps above their trials;
        # those count as the trials, so no refit fails
        locs, x, y, trials = _binomial_at_trials()
        above = []
        real_fit = glm.fit

        def recording_fit(model, xi, yi, trials=None, offset=None):
            above.append(int((yi > trials).sum()))
            return real_fit(model, xi, yi, trials=trials, offset=offset)

        monkeypatch.setattr(glm, "fit", recording_fit)
        res = bootstrap_ci(ModelSpec("binomial-logit", ("x",)), x, y, statistic=1, b=2, seed=0,
                           trials=trials, locs=locs, remask=(EuclideanKernel(), 0.01))
        assert len(above) == 2 and min(above) > 0
        assert res.n_failed == 0

    def test_remask_holds_one_operator_at_a_time(self, monkeypatch):
        built = []
        build = masking.build_operator

        def tracked(*args, **kwargs):
            gc.collect()
            assert all(ref() is None for ref in built), "an earlier operator is still alive"
            op = build(*args, **kwargs)
            built.append(weakref.ref(op))
            return op

        monkeypatch.setattr(masking, "build_operator", tracked)
        rng = np.random.default_rng(22)
        locs = rng.uniform(-1, 1, (40, 2))
        x = rng.normal(0, 1, (40, 1))
        y = 0.5 + 1.2 * x[:, 0] + rng.normal(0, 0.2, 40)
        bootstrap_ci(ModelSpec("gaussian-identity", ("x",)), x, y, statistic=1, b=4,
                     seed=3, locs=locs, remask=(EuclideanKernel(), 0.3))
        assert len(built) == 4

    @settings(max_examples=150, deadline=None)
    @given(data=_remask_inputs(), seed=st.integers(0, 2 ** 32 - 1), b=st.integers(2, 4))
    def test_remasked_resample_equals_operator_on_all_draws(self, data, seed, b):
        # Each refit sees rows idx of build_operator(locs[idx]).a @ [x, y][idx], within
        # 1e-13 of the largest |value| (the N x N product and the multiplicity-weighted
        # m x m product round differently), and each operator is built on exactly the
        # distinct drawn records.
        locs, x, y, trials, kernel, lam = data
        n = len(y)
        model = ModelSpec("binomial-logit" if trials is not None else "gaussian-identity",
                          ("x1", "x2"))
        fits, built = [], []
        build = masking.build_operator

        def recording_fit(model, xi, yi, trials=None, offset=None):
            fits.append((np.array(xi), np.array(yi), trials))
            return _or_fit(model, np.zeros(3))

        def recording_build(locs, *args, **kwargs):
            built.append(np.array(locs))
            return build(locs, *args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(glm, "fit", recording_fit)
            mp.setattr(masking, "build_operator", recording_build)
            bootstrap_ci(model, x, y, statistic=1, b=b, seed=seed, trials=trials,
                         locs=locs, remask=(kernel, lam))
        assert len(fits) == len(built) == b
        v = np.column_stack([x, y])
        for i, ((xi, yi, ti), drawn_locs) in enumerate(zip(fits, built)):
            idx = np.random.default_rng([seed, i]).integers(0, n, size=n)
            np.testing.assert_array_equal(drawn_locs, locs[np.flatnonzero(np.bincount(idx))])
            want = build(locs[idx], kernel, lam).a @ v[idx]
            assert np.abs(np.column_stack([xi, yi]) - want).max() <= 1e-13 * np.abs(v).max()
            if trials is not None:
                np.testing.assert_array_equal(ti, trials[idx])

    def test_remask_holds_less_than_one_full_operator(self):
        n = 1000
        rng = np.random.default_rng(24)
        locs = rng.uniform(-1, 1, (n, 2))
        x = rng.normal(0, 1, (n, 1))
        y = 0.5 + 1.2 * x[:, 0] + rng.normal(0, 0.2, n)
        tracemalloc.start()
        try:
            bootstrap_ci(ModelSpec("gaussian-identity", ("x",)), x, y, statistic=1, b=2,
                         seed=3, locs=locs, remask=(EuclideanKernel(), 0.3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8   # less than one n x n float array

    @pytest.mark.parametrize("size", [30, 50], ids=["short", "long"])
    @pytest.mark.parametrize("name", ["x", "trials", "offset", "locs"])
    def test_argument_length_checked_before_refits(self, monkeypatch, name, size):
        def no_refit(*args, **kwargs):
            raise AssertionError("refit before the input lengths were checked")

        monkeypatch.setattr(glm, "fit", no_refit)
        n = 40
        rng = np.random.default_rng(25)
        kwargs = {"x": rng.uniform(0, 1, (n, 1)), "trials": np.full(n, 10.0),
                  "offset": np.zeros(n), "locs": rng.uniform(-1, 1, (n, 2))}
        kwargs[name] = np.resize(kwargs[name], (size, *kwargs[name].shape[1:]))
        y = rng.integers(0, 11, n).astype(float)
        with pytest.raises(ValueError, match=f"^{name} must have one entry per outcome"):
            bootstrap_ci(ModelSpec("binomial-logit", ("x",)), y=y, statistic=1, b=10, seed=1,
                         remask=(EuclideanKernel(), 0.3), **kwargs)

    def test_failure_rate_raises(self, monkeypatch):
        monkeypatch.setattr(glm, "_MAX_ITER", 1)
        rng = np.random.default_rng(20)
        x = rng.uniform(0, 1, (50, 1))
        y = rng.poisson(np.exp(1.0 + 2.0 * x[:, 0])).astype(float)
        model = ModelSpec("poisson-log", ("x",))
        with pytest.raises(RuntimeError, match="failed to converge"):
            bootstrap_ci(model, x, y, statistic=1, b=20, seed=1)

    @pytest.mark.parametrize("fail_at", [(7,), (0, 9, 19)], ids=["one_in_20", "three_in_20"])
    def test_refit_errors_counted_as_failures(self, monkeypatch, fail_at):
        rng = np.random.default_rng(22)
        x = rng.normal(0, 1, (40, 1))
        y = 1.0 + 0.6 * x[:, 0] + rng.normal(0, 0.5, 40)
        real_fit, slopes, calls = glm.fit, [], []

        def flaky_fit(*args, **kwargs):
            calls.append(len(calls))
            if calls[-1] in fail_at:
                # both errors a refit can raise: a value error and a singular solve
                raise (np.linalg.LinAlgError if calls[-1] % 2 else ValueError)("refit failed")
            fr = real_fit(*args, **kwargs)
            slopes.append(float(fr.beta[1]))
            return fr

        monkeypatch.setattr(glm, "fit", flaky_fit)
        model = ModelSpec("gaussian-identity", ("x",))
        if len(fail_at) > 2:   # more than 10% of 20
            with pytest.raises(RuntimeError, match="^3 of 20 bootstrap refits failed"):
                bootstrap_ci(model, x, y, statistic=1, b=20, seed=4)
            return
        res = bootstrap_ci(model, x, y, statistic=1, b=20, seed=4)
        assert (res.n_failed, res.n_replicates, len(slopes)) == (1, 20, 19)
        assert res.se == float(np.std(slopes, ddof=1))
        assert (res.lower, res.upper) == glm._percentile_interval(np.asarray(slopes), 0.025)

    def test_log_or_statistic(self):
        x, y, n = _aggregated_binomial(seed=21, cells=60)
        model = ModelSpec("binomial-logit", ("frac", "other"))
        res = bootstrap_ci(model, x, y, statistic="log_or", b=100, seed=2,
                           trials=n, group="frac")
        assert res.lower < res.upper
        assert res.se > 0

    @pytest.mark.parametrize("missing", ["trials", "group"])
    def test_log_or_without_trials_or_group_rejected_before_refits(self, monkeypatch, missing):
        def no_refit(*args, **kwargs):
            raise AssertionError("refit before the statistic was checked")

        monkeypatch.setattr(glm, "fit", no_refit)
        x, y, n = _aggregated_binomial(seed=21, cells=20)
        kwargs = {"trials": n, "group": "frac"}
        del kwargs[missing]
        with pytest.raises(ValueError, match="log_or statistic requires"):
            bootstrap_ci(ModelSpec("binomial-logit", ("frac", "other")), x, y,
                         statistic="log_or", b=10, seed=2, **kwargs)

    @pytest.mark.parametrize("statistic", [7, -3, 1.0, "1", True, False, np.True_])
    def test_statistic_not_a_coefficient_index_rejected_before_refits(self, monkeypatch,
                                                                      statistic):
        def no_refit(*args, **kwargs):
            raise AssertionError("refit before the statistic was checked")

        monkeypatch.setattr(glm, "fit", no_refit)
        x = np.linspace(0.0, 1.0, 20)[:, None]
        with pytest.raises(ValueError, match="statistic must be"):
            bootstrap_ci(ModelSpec("gaussian-identity", ("x",)), x, 1.0 + x[:, 0],
                         statistic=statistic, b=10, seed=1)

    @pytest.mark.parametrize("level", BAD_LEVELS)
    def test_level_outside_unit_interval_rejected_before_refits(self, monkeypatch, level):
        def no_refit(*args, **kwargs):
            raise AssertionError("refit before the level was checked")

        monkeypatch.setattr(glm, "fit", no_refit)
        x = np.linspace(0.0, 1.0, 20)[:, None]
        with pytest.raises(ValueError, match=r"^level must lie in \(0, 1\)$"):
            bootstrap_ci(ModelSpec("gaussian-identity", ("x",)), x, 1.0 + x[:, 0],
                         statistic=1, b=10, seed=1, level=level)

    def test_needs_two_replicates(self):
        with pytest.raises(ValueError):
            bootstrap_ci(GAUSSIAN, np.zeros((5, 2)), np.zeros(5), statistic=0, b=1, seed=0)
