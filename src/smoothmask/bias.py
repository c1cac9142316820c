"""Closed-form first-order bias of masked-data GLM coefficients at zero smoothing.

The derivative of the estimand with respect to the smoothness parameter at
zero is assembled from the derivative of the normalized weight matrix and the
link function. For the built-in exponential-decay weight families (and for a
single record) that derivative vanishes identically, so the report is exactly
zero and costs O(n): no n x n array is formed. Any other kernel's derivative
is differenced forward from zero (r0_matrix) at O(n^2) memory, with a step
of 1e-6 times the squared span of the locations. Masked-data
estimates are generally biased at positive smoothness even where the
derivative vanishes; the report carries this caveat.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import SpatialDataset, coords_array
from .glm import FAMILIES, _expit
from .kernels import ExponentialDecayKernel, KernelFamily
from .masking import build_operator

CAVEAT = (
    "first-order approximation at zero smoothing only: for the built-in "
    "exponential-decay weight families the normalized-weight derivative is "
    "identically zero, so the reported value is zero even though estimates "
    "from data masked at positive smoothness are generally biased; the "
    "approximation captures the instant rate of change, not the total bias"
)


def _link_functions(family: str):
    if family == "poisson-log":
        return np.exp, np.exp
    if family == "binomial-logit":
        return _expit, lambda eta: _expit(eta) * (1.0 - _expit(eta))
    if family == "gaussian-identity":
        return (lambda eta: eta), (lambda eta: np.ones_like(eta))
    raise ValueError(f"unknown family {family!r}; choose from {FAMILIES}")


def _derivative_vanishes(kernel: KernelFamily, n: int) -> bool:
    """Whether the normalized-weight derivative at zero is exactly zero."""
    return isinstance(kernel, ExponentialDecayKernel) or n == 1


def _location_scale_sq(locs: np.ndarray) -> float:
    span = locs.max(axis=0) - locs.min(axis=0)
    scale = float(span[0] ** 2 + span[1] ** 2)
    return scale if scale > 0 else 1.0


def r0_matrix(kernel: KernelFamily, locs) -> np.ndarray:
    """Derivative of the normalized weight matrix at zero smoothness.

    Exponential-decay families take the analytic shortcut (exact zero matrix);
    any other family is differenced forward from zero with a step of 1e-6
    times the squared span of the locations (1e-6 if they coincide). Rows of
    the operator sum to one at every smoothness, so the derivative's rows sum
    to zero; the finite difference is re-centered to enforce that.
    """
    locs = coords_array(locs)
    n = len(locs)
    if _derivative_vanishes(kernel, n):
        return np.zeros((n, n))
    with np.errstate(over="ignore"):   # an overflowing span is rejected next
        step = 1e-6 * _location_scale_sq(locs)
    if not 0.0 < step < np.inf:
        raise ValueError(f"finite-difference step {step!r} is not positive and finite; "
                         "rescale the locations")
    a0 = build_operator(locs, kernel, 0.0).a
    ah = build_operator(locs, kernel, step).a
    r = (ah - a0) / step
    return r - r.mean(axis=1, keepdims=True)


@dataclass(frozen=True)
class BiasReport:
    """Instant bias of the coefficients when moving away from zero masking."""

    beta_prime0: np.ndarray
    s1bar: np.ndarray
    s2bar: np.ndarray
    r0_max_abs: float
    family: str
    caveat: str = CAVEAT


def first_order_bias(data: SpatialDataset, beta, kernel: KernelFamily,
                     family: str) -> BiasReport:
    """Derivative of the masked-data estimand at zero smoothness.

    ``beta`` is the coefficient vector of the unmasked model on the design
    [1, x] (intercept first); the output is conditional on it. Available-data
    sums stand in for the integrals over the location process.
    """
    beta = np.asarray(beta, dtype=float).ravel()
    X = np.hstack([np.ones((data.n_records, 1)), data.x])
    if X.shape[1] != beta.size:
        raise ValueError(f"beta has {beta.size} entries for a {X.shape[1]}-column design")
    h, h_prime = _link_functions(family)
    eta = X @ beta
    # the link derivative overflows to inf for Poisson with eta > 709: s2bar
    # then holds inf or nan, quietly, and a vanishing derivative stays zero
    with np.errstate(over="ignore", invalid="ignore"):
        hpe = h_prime(eta)
        s2 = -(X * hpe[:, None]).T @ X
        s2 = 0.5 * (s2 + s2.T)
    if _derivative_vanishes(kernel, data.n_records):
        return BiasReport(beta_prime0=np.zeros(beta.size), s1bar=np.zeros(beta.size),
                          s2bar=s2, r0_max_abs=0.0, family=family)
    r0 = r0_matrix(kernel, data.locs)
    heta = h(eta)
    # centered integrand: rows of r0 sum to zero, so subtracting the target's
    # own value leaves the sum unchanged while cancelling exactly when the
    # exposure (or the link curvature) is constant
    c = (heta[None, :] - heta[:, None]) - hpe[:, None] * (eta[None, :] - eta[:, None])
    s1 = X.T @ (c * r0).sum(axis=1)
    if not s1.any():
        beta_prime = np.zeros_like(s1)
    else:
        try:
            beta_prime = -np.linalg.solve(s2, s1)
        except np.linalg.LinAlgError as err:
            raise ValueError("expected-score curvature matrix is singular") from err
    return BiasReport(beta_prime0=beta_prime, s1bar=s1, s2bar=s2,
                      r0_max_abs=float(np.abs(r0).max()), family=family)
