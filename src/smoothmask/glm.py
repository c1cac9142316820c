"""Exponential-family GLM fitting by iteratively reweighted least squares.

Supports the three families used in the masking analyses (Poisson/log,
binomial/logit, gaussian/identity), quasi-likelihood estimation for the
non-integer outcomes produced by masking, naive Wald inference, the
population-level odds ratio with delta-method standard errors, and
nonparametric bootstrap confidence intervals.

Each IRLS iteration is a Fisher-scoring step: it solves the p x p system
(X'WX) delta = X'(y - mu) for the update of the coefficients, which is the
weighted least-squares problem of classical IRLS in normal-equation form
(Green 1984; McCullagh & Nelder 1989). Forming X'WX squares the condition
number, so on designs with cond(X) above about 1e6 the fitted means keep
fewer digits (errors around 1e-6 of the largest fitted mean at cond(X) ~ 1e7)
than a least-squares solve on sqrt(W) X would give.

The module needs only numpy on its common paths. A design whose full column
rank is certified by its smallest singular value skips the pivoted QR, and
the normal quantile and the logistic function are computed here, so scipy's
LAPACK wrapper is imported only for designs that are near-singular or have
fewer rows than columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import _first_repeat

FAMILIES = ("poisson-log", "binomial-logit", "gaussian-identity")

_MAX_ITER = 100
_DEVIANCE_RTOL = 1e-10
_SCORE_TOL = 1e-6
_MAX_HALVINGS = 20
# Safety factor of _check_rank's full-rank certificate, generous against the
# backward error of Householder QR
_RANK_CERTIFICATE = 1e3
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny
# A masked binomial outcome sum_j a_ij y_j with every y_j <= trials rounds to at
# most trials * (1 + (2n + 1) eps): below this relative excess for n < 2e5
_TRIALS_RTOL = 1e-10

# Coefficients of Cephes ndtri (Moshier), as scipy.special.ndtri uses them:
# a rational function of (y - 1/2)^2 for exp(-2) < y < 1 - exp(-2), and of
# 1/sqrt(-2 log y) for the tails below and above exp(-32).
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1,
             -5.66762857469070293439e1, 1.39312609387279679503e1,
             -1.23916583867381258016e0)
_NDTRI_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0,
             8.63602421390890590575e1, -2.25462687854119370527e2,
             2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1,
             5.71628192246421288162e1, 4.40805073893200834700e1,
             1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2,
             -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1,
             4.13172038254672030440e1, 1.50425385692907503408e1,
             2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_NDTRI_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0,
             3.93881025292474443415e0, 1.33303460815807542389e0,
             2.01485389549179081538e-1, 1.23716634817820021358e-2,
             3.01581553508235416007e-4, 2.65806974686737550832e-6,
             6.23974539184983293730e-9)
_NDTRI_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0,
             1.37702099489081330271e0, 2.16236993594496635890e-1,
             1.34204006088543189037e-2, 3.28014464682127739104e-4,
             2.89247864745380683936e-6, 6.79019408009981274425e-9)
_EXP_MINUS_2 = 0.13533528323661269189
_SQRT_2PI = 2.50662827463100050242


def _polevl(x: float, coefs: tuple[float, ...]) -> float:
    ans = coefs[0]
    for c in coefs[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: float, coefs: tuple[float, ...]) -> float:
    """_polevl with an implied leading coefficient of 1."""
    ans = x + coefs[0]
    for c in coefs[1:]:
        ans = ans * x + c
    return ans


def _ndtri(y0: float) -> float:
    """Standard normal quantile, the Cephes algorithm of scipy.special.ndtri
    in the same floating-point operations, so the values agree bit for bit."""
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    if not 0.0 < y0 < 1.0:
        return math.nan
    negate = True
    y = y0
    if y > 1.0 - _EXP_MINUS_2:
        y = 1.0 - y
        negate = False
    if y > _EXP_MINUS_2:
        y -= 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _NDTRI_P0) / _p1evl(y2, _NDTRI_Q0))
        return x * _SQRT_2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:  # y > exp(-32)
        x1 = z * _polevl(z, _NDTRI_P1) / _p1evl(z, _NDTRI_Q1)
    else:
        x1 = z * _polevl(z, _NDTRI_P2) / _p1evl(z, _NDTRI_Q2)
    x = x0 - x1
    return -x if negate else x


def _expit(x: np.ndarray) -> np.ndarray:
    """Logistic function 1 / (1 + exp(-x)) of an array, in one new array.

    numpy's exp may differ from the C library's in the last bit, so values can
    differ from scipy.special.expit by an ulp. exp(-x) overflows to inf for
    x below about -709, which gives the exact limit 0.
    """
    out = np.negative(x)
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


@dataclass(frozen=True)
class ModelSpec:
    """Family, regressor names (design order) and intercept flag."""

    family: str
    regressors: tuple[str, ...] = ()
    intercept: bool = True

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; choose from {FAMILIES}")
        object.__setattr__(self, "regressors", tuple(self.regressors))
        repeated = _first_repeat(self.regressors)
        if repeated is not None:
            raise ValueError(f"regressor {repeated!r} is named twice")

    @property
    def coef_names(self) -> tuple[str, ...]:
        return (("intercept",) if self.intercept else ()) + self.regressors


@dataclass(frozen=True)
class FitResult:
    """Maximum (quasi-)likelihood estimates with naive covariance.

    ``cov`` is the inverse observed information at the optimum, which for
    these canonical links equals the inverse expected information; it ignores
    any correlation induced by masking, hence "naive".
    """

    model: ModelSpec
    beta: np.ndarray
    cov: np.ndarray
    information: np.ndarray
    deviance: float
    iterations: int
    converged: bool
    n_obs: int
    max_abs_score: float

    @property
    def coef_names(self) -> tuple[str, ...]:
        return self.model.coef_names

    @property
    def se(self) -> np.ndarray:
        return np.sqrt(np.diag(self.cov))


def design_matrix(model: ModelSpec, x: np.ndarray | None, n_rows: int | None = None) -> np.ndarray:
    if x is None:
        x = np.empty((n_rows or 0, 0))
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.shape[1] != len(model.regressors):
        raise ValueError(
            f"got {x.shape[1]} regressor columns for {len(model.regressors)} named regressors"
        )
    if model.intercept:
        return np.hstack([np.ones((x.shape[0], 1)), x])
    if x.shape[1] == 0:
        raise ValueError("model has neither intercept nor regressors")
    return x


def _check_rank(X: np.ndarray, names: Sequence[str]) -> None:
    """Raise ValueError unless X is finite and of full column rank.

    The verdict and messages are those of the pivoted QR behind
    scipy.linalg.qr(X, mode="r", pivoting=True): rank counts the |r_kk| above
    |r_00| * max(N, p) * eps. Most designs are settled by a certificate
    instead: every |r_kk| of the QR computed in floating point is at least
    sigma_min(X + E), with ||E|| of order N*p*eps*||X||_F, and |r_00| is at
    most ||X||_F <= sqrt(p) * sigma_max(X). So when sigma_min(X) exceeds
    _RANK_CERTIFICATE * (N*p + max(N, p)) * eps * sqrt(p) * sigma_max(X),
    the QR would report full rank too. The bound must be a normal number, so
    that subnormal designs, whose QR rounds differently, still take the QR.
    """
    if not np.isfinite(X).all():
        raise ValueError("array must not contain infs or NaNs")
    N, p = X.shape
    if X.size and N >= p:
        s = np.linalg.svd(X, compute_uv=False)
        bound = _RANK_CERTIFICATE * (N * p + max(N, p)) * _EPS * math.sqrt(p) * s[0]
        if s[-1] > bound >= _TINY:
            return
    # dgeqp3 is the pivoted QR behind scipy.linalg.qr, called without that
    # wrapper's per-call checks and workspace query
    from scipy.linalg.lapack import dgeqp3

    diag = np.empty(0)
    if X.size:
        r, piv, _, _, _ = dgeqp3(X)
        diag = np.abs(np.diag(r))
    if diag.size == 0 or diag[0] == 0.0:
        raise ValueError(f"design matrix is identically zero; columns: {list(names)}")
    tol = diag[0] * max(X.shape) * _EPS
    rank = int((diag > tol).sum())
    if rank < X.shape[1]:
        bad = [names[j - 1] for j in piv[rank:]]  # LAPACK pivots count from 1
        raise ValueError(f"design matrix is rank deficient; collinear column(s): {bad}")


class OutOfRangeError(ValueError):
    """A value of fit's argument ``role`` ("y" or "trials") out of its range;
    ``row`` is the first such row."""

    def __init__(self, message: str, role: str, row: int):
        super().__init__(message)
        self.role, self.row = role, row


def _check_range(bad: np.ndarray, role: str, message: str) -> None:
    if bad.any():
        raise OutOfRangeError(message, role, int(bad.argmax()))


def _poisson_mu(eta: np.ndarray) -> np.ndarray:
    return np.exp(np.minimum(np.maximum(eta, -500.0), 500.0))


def _deviance(family: str, y: np.ndarray, mu: np.ndarray, trials: np.ndarray | None) -> float:
    if family == "poisson-log":
        pos = y > 0
        term = np.where(pos, y * np.log(np.where(pos, y, 1.0) / mu), 0.0)
        return float(2.0 * (term - (y - mu)).sum())
    if family == "binomial-logit":
        n = trials
        with np.errstate(divide="ignore", invalid="ignore"):
            t1 = np.where(y > 0, y * np.log(y / mu), 0.0)
            t2 = np.where(n - y > 0, (n - y) * np.log((n - y) / (n - mu)), 0.0)
        return float(2.0 * (t1 + t2).sum())
    with np.errstate(over="ignore"):   # inf: fit halves the step, or reports it
        return float(((y - mu) ** 2).sum())


def fit(model: ModelSpec, x: np.ndarray | None, y: np.ndarray, *,
        trials: np.ndarray | None = None,
        offset: np.ndarray | None = None) -> FitResult:
    """Fit the GLM by IRLS (Fisher scoring) with step-halving.

    Each iteration moves beta by the solution of (X'WX) delta = X'(y - mu),
    with W the working weights at the current beta; a step that raises the
    deviance is halved up to 20 times.

    Non-integer outcomes are accepted for the count families (quasi-likelihood:
    the estimating equations are unchanged); a binomial outcome at most
    _TRIALS_RTOL above its trials, masking's rounding, counts as the trials.
    Other values out of range raise OutOfRangeError. Convergence requires the
    relative deviance change to fall below 1e-10 and the score to vanish (max
    component <= 1e-6) within 100 iterations; otherwise the result is flagged.
    A fit stops, flagged and at its last accepted estimate, at the first
    iteration whose step-halving leaves the deviance non-finite.
    """
    y = np.asarray(y, dtype=float).ravel()
    N = y.size
    X = design_matrix(model, x, n_rows=N)
    if X.shape[0] != N:
        raise ValueError("regressor rows do not match outcome length")
    if offset is not None:
        offset = np.asarray(offset, dtype=float).ravel()
        if not np.isfinite(offset).all():
            raise ValueError("offset must be finite")
    family = model.family
    if family == "poisson-log":
        _check_range(y < 0, "y", "poisson outcomes must be nonnegative")
    elif family == "binomial-logit":
        if trials is None:
            raise ValueError("binomial-logit requires per-row trial counts")
        trials = np.asarray(trials, dtype=float).ravel()
        _check_range(trials <= 0, "trials", "trial counts must be positive")
        _check_range((y < 0) | (y > trials * (1.0 + _TRIALS_RTOL)), "y",
                     "binomial outcomes must satisfy 0 <= y <= trials")
        y = np.minimum(y, trials)
    _check_rank(X, model.coef_names)

    # family-specific initialization (robust standard starts)
    if family == "poisson-log":
        start = np.log(y + 0.5)
    elif family == "binomial-logit":
        frac = (y + 0.5) / (trials + 1.0)
        start = np.log(frac / (1.0 - frac))
    else:
        start = y
    beta, *_ = np.linalg.lstsq(X, start if offset is None else start - offset, rcond=None)

    def state(beta_vec):
        eta = X @ beta_vec
        if offset is not None:
            eta += offset
        if family == "poisson-log":
            mu = _poisson_mu(eta)
            w = np.maximum(mu, 1e-290)
        elif family == "binomial-logit":
            p = np.clip(_expit(eta), 1e-12, 1.0 - 1e-12)
            mu = trials * p
            w = trials * p * (1.0 - p)
        else:
            mu = eta
            w = np.ones(N)
        return mu, w, X.T @ (y - mu)

    mu, w, score = state(beta)
    dev = _deviance(family, y, mu, trials)
    converged = False
    it = 0
    for it in range(1, _MAX_ITER + 1):
        beta_new = beta + np.linalg.solve((X * w[:, None]).T @ X, score)
        mu_new, w_new, score_new = state(beta_new)
        dev_new = _deviance(family, y, mu_new, trials)
        halvings = 0
        while (not math.isfinite(dev_new) or dev_new > dev * (1.0 + 1e-12) + 1e-12) \
                and halvings < _MAX_HALVINGS:
            beta_new = 0.5 * (beta_new + beta)
            mu_new, w_new, score_new = state(beta_new)
            dev_new = _deviance(family, y, mu_new, trials)
            halvings += 1
        if not math.isfinite(dev_new):
            break   # no halved step has a finite deviance; the last state stands
        # the 0.1 guard keeps the criterion meaningful when deviance ~ 0
        # (near-perfect fits), where its floating-point noise would otherwise
        # dominate the relative change forever
        rel = abs(dev - dev_new) / (abs(dev_new) + 0.1)
        beta, mu, w, score, dev = beta_new, mu_new, w_new, score_new, dev_new
        if rel <= _DEVIANCE_RTOL and abs(score).max() <= _SCORE_TOL:
            converged = True
            break

    info = (X * w[:, None]).T @ X
    if family == "gaussian-identity":
        dof = max(N - X.shape[1], 1)
        sigma2 = dev / dof
        xtx_inv = np.linalg.inv(X.T @ X)
        cov = sigma2 * xtx_inv
        info = (X.T @ X) / sigma2 if sigma2 > 0 else np.inf * (X.T @ X)
    else:
        cov = np.linalg.inv(info)
    cov = 0.5 * (cov + cov.T)
    return FitResult(
        model=model,
        beta=beta,
        cov=cov,
        information=info,
        deviance=dev,
        iterations=it,
        converged=converged,
        n_obs=N,
        max_abs_score=float(abs(score).max()),
    )


def _check_level(level: float) -> None:
    if not 0.0 < level < 1.0:   # also rejects NaN
        raise ValueError("level must lie in (0, 1)")


def naive_ci(result: FitResult, level: float = 0.95) -> np.ndarray:
    """Per-coefficient Wald intervals beta_k +/- z * se_k; (q, 2) array."""
    if not result.converged:
        raise ValueError("confidence intervals require a converged fit")
    _check_level(level)
    z = _ndtri(0.5 * (1.0 + level))
    se = result.se
    return np.column_stack([result.beta - z * se, result.beta + z * se])


@dataclass(frozen=True)
class OddsRatioResult:
    """Population-level odds ratio with delta-method uncertainty on the log scale."""

    or_value: float
    log_or: float
    log_or_se_naive: float
    ci: tuple[float, float]
    level: float
    p_exposed: float
    p_unexposed: float


def _log_odds_ratio(model: ModelSpec, beta: np.ndarray, x: np.ndarray, trials: np.ndarray,
                    group: str) -> tuple[float, np.ndarray, float, float]:
    """Population log odds ratio at ``beta``, its gradient in beta, and the exposed
    and unexposed probabilities: trial-weighted mean predictions with the group
    regressor forced to 1 and to 0. ValueError unless both lie in (0, 1)."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    j = model.regressors.index(group)
    trials = np.asarray(trials, dtype=float).ravel()
    wsum = trials.sum()
    means = []
    for name, value in (("exposed", 1.0), ("unexposed", 0.0)):
        xv = x.copy()
        xv[:, j] = value
        Xd = design_matrix(model, xv)
        p = _expit(Xd @ beta)
        mean = float((trials * p).sum() / wsum)
        if mean <= 0.0 or mean >= 1.0:
            raise ValueError(f"{name} summary probability is {mean}; odds ratio undefined")
        means.append((mean, (trials * p * (1.0 - p)) @ Xd / wsum))
    (p_b, grad_b), (p_w, grad_w) = means
    log_or = (math.log(p_b) - math.log1p(-p_b)) - (math.log(p_w) - math.log1p(-p_w))
    grad = grad_b / (p_b * (1.0 - p_b)) - grad_w / (p_w * (1.0 - p_w))
    return log_or, grad, p_b, p_w


def population_odds_ratio(result: FitResult, x: np.ndarray, trials: np.ndarray,
                          group: str, level: float = 0.95) -> OddsRatioResult:
    """Odds ratio from size-weighted average predicted probabilities.

    The designated group regressor (a fraction in [0, 1]) is forced to 1 and
    to 0 with all other regressors untouched; predictions are averaged with
    the trial counts as weights. Invariant to centering/scaling of the other
    regressors because it is a function of predicted values only. The value
    and its gradient come from _log_odds_ratio, as in every odds-ratio caller.
    """
    if result.model.family != "binomial-logit":
        raise ValueError("population odds ratio is defined for binomial-logit fits")
    if group not in result.model.regressors:
        raise ValueError(f"group column {group!r} is not a model regressor")
    _check_level(level)
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    j = result.model.regressors.index(group)
    if ((x[:, j] < -1e-9) | (x[:, j] > 1.0 + 1e-9)).any():
        raise ValueError("group regressor must be a fraction in [0, 1]")
    log_or, grad, p_b, p_w = _log_odds_ratio(result.model, result.beta, x, trials, group)
    se = float(math.sqrt(grad @ result.cov @ grad))
    z = _ndtri(0.5 * (1.0 + level))
    return OddsRatioResult(
        or_value=math.exp(log_or),
        log_or=log_or,
        log_or_se_naive=se,
        ci=(math.exp(log_or - z * se), math.exp(log_or + z * se)),
        level=level,
        p_exposed=p_b,
        p_unexposed=p_w,
    )


def _percentile_interval(values: np.ndarray, alpha: float) -> tuple[float, float]:
    """``np.percentile(values, [100 alpha, 100 (1 - alpha)])`` bit for bit.

    It repeats numpy's default linear method: the same partition points on the
    same np.partition, then the same two-sided interpolation. numpy collects
    those points with np.unique, whose first call imports numpy.ma (about
    17 ms on a 2-CPU x86-64 host); a set does the same here.
    """
    n = len(values)
    points = []   # (virtual index, its two neighbours); at or past the end both are the last
    for q in (100.0 * alpha, 100.0 * (1.0 - alpha)):
        v = (n - 1) * (q / 100)
        i = -1 if v >= n - 1 else math.floor(v)
        points.append((v, i, -1 if i < 0 else i + 1))
    part = np.partition(values, sorted({0, -1, *(k for _, i, j in points for k in (i, j))}))
    if math.isnan(part[-1]):   # a NaN partitions to the end, and numpy returns it
        return float(part[-1]), float(part[-1])
    bounds = []
    for v, i, j in points:
        a, b, t = float(part[i]), float(part[j]), v - i
        # numpy's interpolation, from the lower neighbour below t = 0.5, else the upper
        bounds.append(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)
    return bounds[0], bounds[1]


@dataclass(frozen=True)
class BootstrapResult:
    se: float
    lower: float
    upper: float
    n_failed: int
    n_replicates: int


def bootstrap_ci(model: ModelSpec, x: np.ndarray, y: np.ndarray, *,
                 statistic, b: int, seed: int, level: float = 0.95,
                 trials: np.ndarray | None = None,
                 offset: np.ndarray | None = None,
                 locs: np.ndarray | None = None,
                 remask: tuple | None = None,
                 group: str | None = None) -> BootstrapResult:
    """Nonparametric bootstrap over rows, resampled with replacement.

    ``statistic`` is a coefficient index into the design (intercept first) or
    the string "log_or" (requires binomial trials and ``group``); any other
    value, a bool included, raises ValueError before the first refit, as does
    a ``level`` outside (0, 1). The default
    resamples the given (typically masked) rows directly; passing
    ``remask=(kernel, lam)`` together with ``locs`` instead resamples the
    original rows and rebuilds the masking operator on each resample before
    fitting. Replicate draws are seeded by (seed, replicate index), so results
    do not depend on execution order. ``x`` rows, ``trials``, ``offset`` and
    ``locs`` must each have one entry per outcome.

    A remasked resample is built on its m distinct drawn records only (about
    0.632 N of them), with the repeats folded in as multiplicity weights.
    With c_k the number of draws of record k, row i of the N x N operator on
    the drawn locations maps v[idx] to
    sum_j W(idx_i, idx_j) v[idx_j] / sum_j W(idx_i, idx_j)
    = sum_k W(idx_i, k) c_k v_k / sum_k W(idx_i, k) c_k.
    So with A_D the m x m operator on the distinct records and
    V = A_D @ [c, c*x, c*y], the masked values of record r are
    V[r, 1:] / V[r, 0]: A_D's own row normalisation cancels in the ratio.
    This equals the N x N product up to rounding.
    """
    if b < 2:
        raise ValueError("bootstrap needs at least 2 replicates")
    _check_level(level)
    k = len(model.coef_names)
    if statistic == "log_or":
        if group is None or trials is None:
            raise ValueError("log_or statistic requires binomial trials and a group column")
    elif not (isinstance(statistic, (int, np.integer)) and not isinstance(statistic, bool)
              and -k <= statistic < k):
        raise ValueError(f"statistic must be 'log_or' or an index into the coefficients "
                         f"{model.coef_names}, got {statistic!r}")
    y = np.asarray(y, dtype=float).ravel()
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    trials = None if trials is None else np.asarray(trials, dtype=float).ravel()
    offset = None if offset is None else np.asarray(offset, dtype=float).ravel()
    N = y.size
    for name, arg in (("x", x), ("trials", trials), ("offset", offset), ("locs", locs)):
        if arg is not None and np.shape(arg)[:1] != (N,):
            raise ValueError(f"{name} must have one entry per outcome ({N}), "
                             f"got shape {np.shape(arg)}")
    if remask is not None:
        if locs is None:
            raise ValueError("remasking strategy requires the record locations")
        from .masking import build_operator  # looked up per call: a rebound one is used
        kernel, lam = remask
        locs = np.asarray(locs, dtype=float)
        xy = np.column_stack([x, y])
    values = []
    failed = 0
    for i in range(b):
        rng = np.random.default_rng([seed, i])
        idx = rng.integers(0, N, size=N)
        ti = None if trials is None else trials[idx]
        oi = None if offset is None else offset[idx]
        if remask is None:
            xi, yi = x[idx], y[idx]
        else:
            counts = np.bincount(idx)
            drawn = np.flatnonzero(counts)
            c = counts[drawn][:, None]
            # one operator on the distinct drawn records, freed with this statement
            v = build_operator(locs[drawn], kernel, lam).a @ np.hstack([c, c * xy[drawn]])
            masked = (v[:, 1:] / v[:, :1])[np.searchsorted(drawn, idx)]
            xi, yi = masked[:, :-1], masked[:, -1]
        try:
            fr = fit(model, xi, yi, trials=ti, offset=oi)
            if not fr.converged:
                failed += 1
            elif statistic == "log_or":
                values.append(_log_odds_ratio(model, fr.beta, xi, ti, group)[0])
            else:
                values.append(float(fr.beta[statistic]))
        except (ValueError, np.linalg.LinAlgError):
            failed += 1
    if failed > 0.1 * b:
        raise RuntimeError(f"{failed} of {b} bootstrap refits failed to converge")
    arr = np.asarray(values)
    alpha = 0.5 * (1.0 - level)
    lo, hi = _percentile_interval(arr, alpha)
    return BootstrapResult(
        se=float(arr.std(ddof=1)),
        lower=float(lo),
        upper=float(hi),
        n_failed=failed,
        n_replicates=b,
    )
