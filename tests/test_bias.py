"""First-order bias: the weight-derivative matrix and the coefficient derivative."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from smoothmask.bias import first_order_bias, r0_matrix
from smoothmask.dataset import SpatialDataset
from smoothmask.glm import ModelSpec, fit
from smoothmask.kernels import (
    BivariateNormalKernel,
    EuclideanKernel,
    RingAngleKernel,
    RingBlockKernel,
    RingKernel,
)
from smoothmask.masking import build_operator
from smoothmask.sim import RadialExposure

from conftest import PolynomialDecayKernel, grid_locations

BUILT_INS = (
    EuclideanKernel(),
    RingKernel(),
    RingAngleKernel(),
    RingBlockKernel(),
    BivariateNormalKernel(var1=1.2, var2=0.7, rho=0.25),
)


def exposure_dataset(locs) -> SpatialDataset:
    x = RadialExposure().values(locs)
    return SpatialDataset(
        ids=tuple(f"r{i}" for i in range(len(locs))),
        locs=locs, x=x[:, None], y=np.zeros(len(locs)), x_names=("x",),
    )


def analytic_r0_polynomial(locs, scale) -> np.ndarray:
    """Derivative of the normalized polynomial weights at zero, by hand.

    W(lam) = lam / (lam + d); at zero the self weight is 1 and the others 0,
    so d/dlam of the normalized off-diagonal entry is 1/d and the diagonal
    entry balances the row to zero.
    """
    n = len(locs)
    diff = locs[:, None, :] - locs[None, :, :]
    d = (diff[..., 0] ** 2 + diff[..., 1] ** 2) / scale
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                out[i, j] = 1.0 / d[i, j]
        out[i, i] = -out[i].sum()
    return out


class TestR0Matrix:
    @pytest.mark.parametrize("kernel", BUILT_INS, ids=lambda k: type(k).__name__)
    def test_exponential_families_give_exact_zero(self, kernel):
        rng = np.random.default_rng(1)
        locs = rng.uniform(-1, 1, (15, 2))
        r0 = r0_matrix(kernel, locs)
        assert np.all(r0 == 0.0)

    def test_single_record_zero(self, poly_kernel):
        r0 = r0_matrix(poly_kernel, np.array([[0.3, -0.2]]))
        np.testing.assert_array_equal(r0, np.zeros((1, 1)))

    def test_polynomial_kernel_matches_analytic_derivative(self):
        locs = np.array([[0.0, 0.0], [0.5, 0.1], [-0.3, 0.4]])
        k = PolynomialDecayKernel(scale=1.0)
        want = analytic_r0_polynomial(locs, 1.0)
        got = r0_matrix(k, locs)
        assert np.abs(got - want).max() / np.abs(want).max() < 1e-4

    def test_rows_sum_to_zero(self, poly_kernel):
        locs = grid_locations(5, 4)
        r0 = r0_matrix(poly_kernel, locs)
        np.testing.assert_allclose(r0.sum(axis=1), 0.0, atol=1e-16)

    @pytest.mark.parametrize("span", [1e-160, 1e160], ids=["subnormal-step", "infinite-step"])
    def test_span_without_a_finite_step_rejected(self, poly_kernel, span):
        with pytest.raises(ValueError, match="finite-difference step .* not positive and finite"):
            r0_matrix(poly_kernel, np.array([[0.0, 0.0], [span, 0.0]]))


class TestFirstOrderBias:
    def test_constant_exposure_exactly_zero(self, poly_kernel):
        locs = grid_locations(6, 5)
        data = SpatialDataset(
            ids=tuple(f"r{i}" for i in range(30)), locs=locs,
            x=np.full((30, 1), 3.3), y=np.zeros(30), x_names=("x",),
        )
        rep = first_order_bias(data, [0.2, 0.5], poly_kernel, "poisson-log")
        assert np.all(rep.beta_prime0 == 0.0)

    def test_identity_link_exactly_zero(self, poly_kernel):
        data = exposure_dataset(grid_locations(6, 5))
        rep = first_order_bias(data, [0.2, 0.5], poly_kernel, "gaussian-identity")
        assert np.all(rep.beta_prime0 == 0.0)

    @pytest.mark.parametrize("kernel", BUILT_INS, ids=lambda k: type(k).__name__)
    def test_built_in_kernels_exactly_zero(self, kernel):
        rng = np.random.default_rng(2)
        locs = rng.uniform(-1, 1, (40, 2))
        data = exposure_dataset(locs)
        rep = first_order_bias(data, [-2.0, 0.5], kernel, "poisson-log")
        assert np.all(rep.beta_prime0 == 0.0)
        assert rep.r0_max_abs == 0.0

    def test_built_in_kernel_holds_no_n_by_n_array(self):
        n = 2000
        data = exposure_dataset(np.random.default_rng(3).uniform(-1, 1, (n, 2)))
        tracemalloc.start()
        try:
            rep = first_order_bias(data, [-2.0, 0.5], EuclideanKernel(), "poisson-log")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(rep.beta_prime0 == 0.0)
        assert peak < n * n * 8   # less than one n x n float array

    @pytest.mark.parametrize("kernel, n", [(EuclideanKernel(), 1), (EuclideanKernel(), 3),
                                           (RingKernel(), 50), (PolynomialDecayKernel(), 1)],
                             ids=["euclidean-1", "euclidean-3", "ring-50", "polynomial-1"])
    def test_vanishing_derivative_exactly_zero_where_the_link_overflows(self, kernel, n):
        # exp(800) overflows; the report is still exactly zero, with no
        # RuntimeWarning (an error under this suite's warning filter)
        data = exposure_dataset(np.random.default_rng(5).uniform(-1, 1, (n, 2)))
        rep = first_order_bias(data, [800.0, 0.0], kernel, "poisson-log")
        assert rep.beta_prime0.tolist() == [0.0, 0.0]
        assert rep.s1bar.tolist() == [0.0, 0.0]
        assert rep.r0_max_abs == 0.0

    def test_polynomial_kernel_matches_expected_score_oracle(self, poly_kernel):
        # oracle: solve the expected-score equation at two small smoothness
        # values by fitting the expected masked data, then difference
        locs = grid_locations(10, 5)
        data = exposure_dataset(locs)
        beta_true = np.array([-2.0, 0.5])
        rep = first_order_bias(data, beta_true, poly_kernel, "poisson-log")

        model = ModelSpec("poisson-log", ("x",))
        design = np.hstack([np.ones((50, 1)), data.x])
        mu_true = np.exp(design @ beta_true)

        def solve_at(lam):
            a = build_operator(locs, poly_kernel, lam).a
            fr = fit(model, a @ data.x[:, 0], a @ mu_true)
            assert fr.converged
            return fr.beta

        slope = (solve_at(2e-4) - solve_at(1e-4)) / 1e-4
        rel = np.abs(rep.beta_prime0 - slope) / np.abs(slope)
        assert rel.max() < 1e-3

    def test_curvature_matches_negative_information(self):
        # the expected-score curvature equals minus the information matrix of
        # the unmasked fit when evaluated at the same coefficients
        rng = np.random.default_rng(3)
        locs = rng.uniform(-1, 1, (80, 2))
        x = RadialExposure().values(locs)
        y = np.random.default_rng(4).poisson(np.exp(-2.0 + 0.5 * x)).astype(float)
        data = SpatialDataset(ids=tuple(f"r{i}" for i in range(80)), locs=locs,
                              x=x[:, None], y=y, x_names=("x",))
        fr = fit(ModelSpec("poisson-log", ("x",)), x, y)
        rep = first_order_bias(data, fr.beta, EuclideanKernel(), "poisson-log")
        np.testing.assert_allclose(rep.s2bar, -fr.information, rtol=1e-8)

    def test_s2bar_negative_semidefinite(self, poly_kernel):
        data = exposure_dataset(grid_locations(5, 4))
        rep = first_order_bias(data, [0.1, 0.3], poly_kernel, "binomial-logit")
        eigvals = np.linalg.eigvalsh(rep.s2bar)
        assert (eigvals <= 1e-12).all()

    def test_caveat_and_report_fields(self, poly_kernel):
        data = exposure_dataset(grid_locations(5, 4))
        rep = first_order_bias(data, [0.1, 0.3], poly_kernel, "poisson-log")
        assert "total bias" in rep.caveat
        assert rep.r0_max_abs > 0.0

    def test_beta_length_checked(self, poly_kernel):
        data = exposure_dataset(grid_locations(4, 4))
        with pytest.raises(ValueError, match="entries"):
            first_order_bias(data, [0.1, 0.2, 0.3], poly_kernel, "poisson-log")

