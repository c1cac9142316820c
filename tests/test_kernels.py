"""Weight families: formula values, geometric primitives, and shared properties."""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from smoothmask import kernels
from smoothmask.dataset import Location
from smoothmask.kernels import (
    BivariateNormalKernel,
    BlockRegion,
    EuclideanKernel,
    PointSource,
    RingAngleKernel,
    RingBlockKernel,
    RingKernel,
    kernel_from_json,
    kernel_to_json,
)
from smoothmask.masking import build_operator

from conftest import SPECIAL_POINTS, symmetry_locs

ORIGIN = PointSource()

ALL_KERNELS = (
    EuclideanKernel(),
    RingKernel(),
    RingAngleKernel(),
    RingBlockKernel(),
    BivariateNormalKernel(var1=1.3, var2=0.8, rho=0.4),
)


def _at(s1: float, s2: float) -> np.ndarray:
    return np.array([[s1, s2]])


def pair_weight(kernel, u: Location, s: Location, lam: float) -> float:
    """W_lambda(u, s) read off the two-point weight matrix."""
    return float(kernel.weight_matrix(np.array([u.as_array(), s.as_array()]), lam)[0, 1])


class TestRadialDistance:
    def test_coincident(self):
        assert kernels._radius_sq(_at(0.0, 0.0), ORIGIN)[0] == 0.0

    def test_3_4_5(self):
        src = PointSource(loc=Location(1.0, -2.0))
        assert math.sqrt(kernels._radius_sq(_at(4.0, 2.0), src)[0]) == pytest.approx(5.0, abs=0)

    def test_random_against_arithmetic(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a, b, c, d = rng.uniform(-3, 3, 4)
            got = math.sqrt(kernels._radius_sq(_at(a, b), PointSource(loc=Location(c, d)))[0])
            assert got == pytest.approx(math.sqrt((a - c) ** 2 + (b - d) ** 2), rel=1e-15)


class TestDirectionCosine:
    def test_aligned(self):
        assert kernels._direction_cosines(_at(0.7, 0.0), ORIGIN)[0] == pytest.approx(1.0)

    def test_anti_aligned(self):
        assert kernels._direction_cosines(_at(-0.7, 0.0), ORIGIN)[0] == pytest.approx(-1.0)

    def test_perpendicular(self):
        got = kernels._direction_cosines(_at(0.0, 2.0), ORIGIN)[0]
        assert got == pytest.approx(0.0, abs=1e-15)

    def test_singular_point_defined_as_one(self):
        assert kernels._direction_cosines(_at(0.0, 0.0), ORIGIN)[0] == 1.0

    def test_direction_normalized_on_construction(self):
        src = PointSource(direction=(3.0, 4.0))
        assert math.hypot(*src.direction) == pytest.approx(1.0, rel=1e-15)


class TestUnblockedIndicator:
    def test_low_x_is_unblocked(self):
        assert kernels._unblocked_mask(_at(-0.9, 0.3), BlockRegion())[0]

    def test_on_axis_beyond_threshold_is_blocked(self):
        # cos angle = 1 > 0.625 and s_x > 0.4: both conditions fail
        assert not kernels._unblocked_mask(_at(0.9, 0.0), BlockRegion())[0]

    def test_grid_against_predicate_oracle(self):
        region = BlockRegion()
        g = np.linspace(-1, 1, 100)
        for s1 in g:
            for s2 in g:
                want = s1 <= 0.4 or _cos_from_x_axis(s1, s2) <= 0.625
                assert kernels._unblocked_mask(_at(s1, s2), region)[0] == want

    def test_angle_measured_from_x_axis_not_source_direction(self):
        # cos from the +x axis is 1 (blocked); from the source direction it would be 0
        region = BlockRegion(source=PointSource(direction=(0.0, 1.0)))
        assert not kernels._unblocked_mask(_at(0.9, 0.0), region)[0]


def _cos_from_x_axis(s1: float, s2: float) -> float:
    r = math.hypot(s1, s2)
    return 1.0 if r == 0 else s1 / r


class TestEvalWeight:
    def test_euclidean_zero_distance(self):
        for lam in (0.01, 0.5, 10.0):
            assert pair_weight(EuclideanKernel(), Location(0.2, 0.3), Location(0.2, 0.3), lam) == 1.0

    def test_ring_equal_radii(self):
        # distinct points on a common circle carry full weight
        w = pair_weight(RingKernel(), Location(1.0, 0.0), Location(0.0, 1.0), 0.5)
        assert w == 1.0

    def test_euclidean_formula_value(self):
        # squared distance 0.5 at lam 0.5 -> e^-1
        u, s = Location(0.0, 0.0), Location(math.sqrt(0.5), 0.0)
        assert pair_weight(EuclideanKernel(), u, s, 0.5) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_bivariate_normal_formula_value(self):
        # rho=0, unit variances: exponent is ||s-u||^2 / (2 lam); at ||s-u||^2 = 2 lam -> e^-1
        lam = 0.7
        k = BivariateNormalKernel(var1=1.0, var2=1.0, rho=0.0)
        u, s = Location(0.0, 0.0), Location(math.sqrt(2 * lam), 0.0)
        assert pair_weight(k, u, s, lam) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            pair_weight(EuclideanKernel(), Location(0, 0), Location(1, 1), -0.1)

    def test_ring_angle_formula_value(self):
        k = RingAngleKernel(angle_scale=2.0)
        u, s = Location(1.0, 0.0), Location(0.0, 0.5)
        d = abs(0.25 - 1.0) + 2.0 * abs(0.0 - 1.0)
        assert pair_weight(k, u, s, 0.5) == pytest.approx(math.exp(-d / 0.5), rel=1e-12)

    def test_ring_block_cross_boundary_zero(self):
        k = RingBlockKernel()
        u = Location(-0.5, 0.0)   # unblocked (s_x <= 0.4)
        s = Location(0.9, 0.0)    # blocked
        for lam in (0.0, 0.5, 100.0):
            assert pair_weight(k, u, s, lam) == 0.0

    def test_lambda_zero_is_indicator(self):
        k = EuclideanKernel()
        assert pair_weight(k, Location(0, 0), Location(0, 0), 0.0) == 1.0
        assert pair_weight(k, Location(0, 0), Location(1e-9, 0), 0.0) == 0.0


class TestSharedProperties:
    @pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: type(k).__name__)
    def test_bounds_and_symmetry(self, kernel):
        rng = np.random.default_rng(5)
        locs = rng.uniform(-1, 1, (30, 2))
        for lam in (0.0, 0.05, 0.5, 3.0):
            w = kernel.weight_matrix(locs, lam)
            assert (w >= 0.0).all() and (w <= 1.0).all()
            np.testing.assert_array_equal(w, w.T)
            np.testing.assert_array_equal(np.diag(w), np.ones(30))

    @pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: type(k).__name__)
    def test_pair_weight_matches_matrix(self, kernel):
        rng = np.random.default_rng(8)
        locs = rng.uniform(-1, 1, (12, 2))
        w = kernel.weight_matrix(locs, 0.37)
        for i in (0, 3, 7):
            for j in (1, 5, 11):
                got = pair_weight(kernel, Location(*locs[i]), Location(*locs[j]), 0.37)
                assert got == pytest.approx(w[i, j], rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: type(k).__name__)
    def test_monotone_limits(self, kernel):
        rng = np.random.default_rng(13)
        for _ in range(20):
            u = Location(*rng.uniform(-1, 1, 2))
            s = Location(*rng.uniform(-1, 1, 2))
            w_tiny = pair_weight(kernel, u, s, 1e-12)
            w_huge = pair_weight(kernel, u, s, 1e12)
            assert w_tiny <= 1e-6 or pair_weight(kernel, u, s, 0.0) == 1.0
            # the large-smoothness limit is 1 unless the pair is hard-blocked
            assert w_huge > 0.999999 or w_huge == 0.0

    @pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: type(k).__name__)
    def test_zero_lambda_matches_numeric_limit(self, kernel):
        rng = np.random.default_rng(17)
        count = 0
        while count < 25:
            u = Location(*rng.uniform(-1, 1, 2))
            s = Location(*rng.uniform(-1, 1, 2))
            w0 = pair_weight(kernel, u, s, 0.0)
            w_eps = pair_weight(kernel, u, s, 1e-8)
            if w0 == 1.0:
                continue  # only checking pairs with positive internal distance
            count += 1
            assert abs(w0 - w_eps) <= 1e-6


class TestCrossDistance:
    @pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: type(k).__name__)
    def test_row_block_equals_square_rows(self, kernel):
        locs = np.random.default_rng(23).uniform(-1, 1, (70, 2))
        locs[40:50] = locs[:10]
        square = kernel.distance_matrix(locs, locs)
        for a, b in ((0, 1), (0, 70), (13, 41), (64, 70), (69, 70)):
            assert np.array_equal(kernel.distance_matrix(locs[a:b], locs), square[a:b])

    @settings(max_examples=50, deadline=None)
    @given(kernel=st.sampled_from(ALL_KERNELS), data=st.data())
    def test_property_blocks_equal_square_form(self, kernel, data):
        n = data.draw(st.integers(1, 30), label="n")
        locs = data.draw(hnp.arrays(np.float64, (n, 2), elements=st.floats(-2, 2)), label="locs")
        a = data.draw(st.integers(0, n - 1), label="a")
        b = data.draw(st.integers(a + 1, n), label="b")
        square = kernel.distance_matrix(locs, locs)
        assert np.array_equal(kernel.distance_matrix(locs[a:b], locs), square[a:b])
        # any block height, including one row, reproduces the unblocked weights
        budget = data.draw(st.integers(1, 4 * n), label="budget")
        lam = data.draw(st.sampled_from((0.0, 0.05, 1.0)), label="lam")
        want = (square == 0.0).astype(float) if lam == 0.0 else np.exp(-square / lam)
        with mock.patch.object(kernels, "_BLOCK_ELEMS", budget):
            assert np.array_equal(kernel.weight_matrix(locs, lam), want)


def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).tobytes()


def _whitened(kernel, locs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """z = (u1, (u2 - rho u1) / sqrt(1 - rho^2)) / sqrt(2) with u_k = s_k / sqrt(v_k)."""
    z1 = locs[:, 0] / (math.sqrt(2.0) * math.sqrt(kernel.var1))
    z2 = ((locs[:, 1] / (math.sqrt(2.0) * math.sqrt(kernel.var2)) - kernel.rho * z1)
          / math.sqrt((1.0 - kernel.rho) * (1.0 + kernel.rho)))
    return z1, z2


def _plain_distance(kernel, locs: np.ndarray, others: np.ndarray) -> np.ndarray:
    """Each family's distance as one expression, in the operation order that the
    in-place arithmetic of distance_matrix must keep."""
    d1 = locs[:, None, 0] - others[None, :, 0]
    d2 = locs[:, None, 1] - others[None, :, 1]
    if isinstance(kernel, EuclideanKernel):
        return d1 ** 2 + d2 ** 2
    if isinstance(kernel, BivariateNormalKernel):
        (a1, a2), (b1, b2) = _whitened(kernel, locs), _whitened(kernel, others)
        return (a1[:, None] - b1[None, :]) ** 2 + (a2[:, None] - b2[None, :]) ** 2
    source = kernel.region.source if isinstance(kernel, RingBlockKernel) else kernel.source
    ring = np.abs(kernels._radius_sq(locs, source)[:, None]
                  - kernels._radius_sq(others, source)[None, :])
    if isinstance(kernel, RingAngleKernel):
        cos = kernels._direction_cosines
        return ring + kernel.angle_scale * np.abs(cos(locs, source)[:, None]
                                                  - cos(others, source)[None, :])
    if isinstance(kernel, RingBlockKernel):
        side = kernels._unblocked_mask
        ring[side(locs, kernel.region)[:, None] != side(others, kernel.region)[None, :]] = np.inf
    return ring


class TestSymmetryContract:
    """weight_matrix evaluates each pair once and mirrors it, which is exact only
    because every built-in distance is exactly symmetric."""

    @settings(max_examples=200, deadline=None)
    @given(kernel=st.sampled_from(ALL_KERNELS), locs=symmetry_locs(), others=symmetry_locs())
    def test_distances_exactly_symmetric(self, kernel, locs, others):
        square = kernel.distance_matrix(locs, locs)
        assert _bits(square) == _bits(square.T)
        assert _bits(kernel.distance_matrix(locs, others)) == \
            _bits(kernel.distance_matrix(others, locs).T)

    @settings(max_examples=100, deadline=None)
    @given(kernel=st.sampled_from(ALL_KERNELS), locs=symmetry_locs(), others=symmetry_locs())
    def test_in_place_arithmetic_equals_plain_expressions(self, kernel, locs, others):
        assert _bits(kernel.distance_matrix(locs, others)) == \
            _bits(_plain_distance(kernel, locs, others))

    def test_ring_block_crossing_pairs_are_infinite(self):
        locs = np.array(SPECIAL_POINTS)
        d = RingBlockKernel().distance_matrix(locs, locs)
        assert np.isinf(d).any() and np.isfinite(d).any()
        assert _bits(d) == _bits(d.T)

    @pytest.mark.parametrize("angle_scale", [0.0, 0.7, 3.0])
    def test_ring_angle_weight_multiplies_the_difference(self, angle_scale):
        # 0 drops the angle term; unlike the default 2, 0.7 and 3 do not multiply
        # exactly, so a pre-scaled cosine feature would round some distances differently
        kernel = RingAngleKernel(angle_scale=angle_scale)
        locs = np.vstack([np.random.default_rng(29).uniform(-1, 1, (300, 2)), SPECIAL_POINTS])
        assert _bits(kernel.distance_matrix(locs, locs)) == _bits(_plain_distance(kernel, locs, locs))

    @pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: type(k).__name__)
    @pytest.mark.parametrize("n, budget", [(1, 2 ** 16), (7, 2 ** 16), (82, 2 ** 16),
                                           (300, 2 ** 16), (300, 1000), (97, 97)])
    def test_weight_build_computes_each_pair_once(self, kernel, n, budget):
        locs = np.random.default_rng(n).uniform(-1, 1, (n, 2))
        sizes = []
        original = kernels.ExponentialDecayKernel._distances

        def counted(self, *args):
            d = original(self, *args)
            sizes.append(d.size)
            return d

        family = type(kernel)
        with mock.patch.object(kernels, "_BLOCK_ELEMS", budget), \
                mock.patch.object(kernels.ExponentialDecayKernel, "_distances", counted), \
                mock.patch.object(family, "features", autospec=True,
                                  side_effect=family.features) as features:
            kernel.weight_matrix(locs, 0.3)
        assert features.call_count == 1
        rows = max(1, budget // n)
        assert sum(sizes) <= n * (n + 1) // 2 + n * rows
        assert max(sizes) <= max(budget, n)


class TestPermutationEquivariance:
    """Listing the locations in another order permutes the weights and the operator."""

    @settings(max_examples=100, deadline=None)
    @given(kernel=st.sampled_from(ALL_KERNELS), locs=symmetry_locs(), data=st.data())
    def test_property_weights_permute_bit_for_bit(self, kernel, locs, data):
        # each weight depends only on its own pair, whichever block computes it
        p = np.array(data.draw(st.permutations(range(len(locs))), label="p"))
        lam = data.draw(st.sampled_from((0.0, 0.05, 1.0)), label="lam")
        budget = data.draw(st.integers(1, 4 * len(locs)), label="budget")
        with mock.patch.object(kernels, "_BLOCK_ELEMS", budget):
            w = kernel.weight_matrix(locs, lam)
            assert _bits(kernel.weight_matrix(locs[p], lam)) == _bits(w[np.ix_(p, p)])

    @settings(max_examples=100, deadline=None)
    @given(kernel=st.sampled_from(ALL_KERNELS), locs=symmetry_locs(), data=st.data())
    def test_property_operator_permutes_within_row_sum_rounding(self, kernel, locs, data):
        # a row sum adds the same n nonnegative weights in another order, so two
        # orders differ by at most (n - 1) eps relative; the division rounds by
        # eps / 2 on each side. Tolerance: twice that first-order n eps.
        p = np.array(data.draw(st.permutations(range(len(locs))), label="p"))
        lam = data.draw(st.sampled_from((0.0, 0.05, 1.0)), label="lam")
        want = build_operator(locs, kernel, lam).a[np.ix_(p, p)]
        got = build_operator(locs[p], kernel, lam).a
        assert (np.abs(got - want) <= 2 * len(locs) * np.finfo(float).eps * want).all()


def _quadratic_form(kernel, locs: np.ndarray, others: np.ndarray) -> np.ndarray:
    """Reference: (s-u)^T Sigma^{-1} (s-u) / 2 through the explicit 2x2 inverse,
    the form the bivariate-normal kernel evaluated before it whitened."""
    b = kernel.rho * math.sqrt(kernel.var1 * kernel.var2)
    det = kernel.var1 * kernel.var2 - b * b
    a, b, c = kernel.var2 / det, -b / det, kernel.var1 / det
    d1 = locs[:, None, 0] - others[None, :, 0]
    d2 = locs[:, None, 1] - others[None, :, 1]
    return np.maximum((a * d1 ** 2 + 2.0 * b * d1 * d2 + c * d2 ** 2) / 2.0, 0.0)


def _assert_equals_quadratic_form(kernel, locs: np.ndarray, others: np.ndarray) -> None:
    # Error bound, in units of eps * S^2 / (m (1 - rho^2)) with S the largest
    # |coordinate| and m = min(v1, v2), the size of the form's largest term:
    # the whitened path rounds z1 within 4 eps, z2 within 19 eps of
    # S / sqrt(2 m (1 - rho^2)), and squares and adds differences of at most
    # twice those, ~210 in all; the reference's three terms and sums add ~64,
    # and its determinant v1 v2 - b^2 cancels to a relative error of
    # 5 eps / (1 - rho^2), which scales the whole form (at most 10 units).
    # Hence |new - reference| <= 2**9 eps S^2 / (m (1 - rho^2)^2). Below the
    # normal range each rounding errs by up to one subnormal ulp instead, which
    # the absolute term of 2**9 ulps covers.
    size = max(np.abs(locs).max(), np.abs(others).max()) ** 2
    bound = (2 ** 9 * np.finfo(float).eps * size
             / (min(kernel.var1, kernel.var2) * (1.0 - kernel.rho * kernel.rho) ** 2)
             + 2 ** 9 * np.finfo(float).smallest_subnormal)
    got = kernel.distance_matrix(locs, others)
    assert np.abs(got - _quadratic_form(kernel, locs, others)).max() <= bound


class TestBivariateWhitening:
    """The bivariate-normal distance is the squared Euclidean distance between
    whitened coordinates."""

    @settings(max_examples=300, deadline=None)
    @given(var_exp=st.tuples(st.floats(-3, 3), st.floats(-3, 3)), rho=st.floats(-0.99, 0.99),
           scale_exp=st.floats(-3, 3), data=st.data())
    def test_property_equals_quadratic_form(self, var_exp, rho, scale_exp, data):
        kernel = BivariateNormalKernel(var1=10.0 ** var_exp[0], var2=10.0 ** var_exp[1], rho=rho)
        scale = 10.0 ** scale_exp
        coords = hnp.arrays(np.float64, st.tuples(st.integers(1, 8), st.just(2)),
                            elements=st.floats(-1.0, 1.0))
        locs = data.draw(coords, label="locs") * scale
        others = data.draw(coords, label="others") * scale
        _assert_equals_quadratic_form(kernel, locs, others)

    def test_subnormal_distances_equal_quadratic_form(self):
        # the squared distance 2.97e-313 is subnormal: the two forms differ by
        # one subnormal ulp, which the relative term of the bound rounds to 0
        _assert_equals_quadratic_form(BivariateNormalKernel(var1=1.0, var2=1.0, rho=0.0),
                                      np.array([[0.0, 0.0]]), np.array([[5.45e-157, 5.45e-157]]))

    @pytest.mark.parametrize("var", [1e-170, 1e-300, 5e-324])
    def test_tiny_variances_give_the_identity_operator(self, var):
        # the 2x2 determinant of these variances underflows to 0
        locs = np.random.default_rng(3).uniform(-1, 1, (40, 2))
        op = build_operator(locs, BivariateNormalKernel(var1=var, var2=var, rho=0.5), 0.5)
        assert np.array_equal(op.a, np.eye(40))

    @pytest.mark.parametrize("var", [1e300, 1.7e308])
    def test_huge_variances_give_the_uniform_operator(self, var):
        # the product v1 v2 under the determinant overflows for these variances
        locs = np.random.default_rng(4).uniform(-1, 1, (40, 2))
        op = build_operator(locs, BivariateNormalKernel(var1=var, var2=var, rho=0.5), 0.5)
        assert np.array_equal(op.a, np.full((40, 40), 1.0 / 40))


class TestValidation:
    def test_bivariate_requires_positive_definite(self):
        with pytest.raises(ValueError):
            BivariateNormalKernel(var1=-1.0, var2=1.0, rho=0.0)
        with pytest.raises(ValueError):
            BivariateNormalKernel(var1=1.0, var2=1.0, rho=1.0)

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            PointSource(direction=(0.0, 0.0))


class TestJsonRoundTrip:
    @pytest.mark.parametrize("kernel", (
        EuclideanKernel(),
        RingKernel(source=PointSource(loc=Location(0.2, -0.1))),
        RingAngleKernel(source=PointSource(direction=(0.0, 1.0)), angle_scale=3.5),
        RingBlockKernel(region=BlockRegion(threshold_x=0.1, threshold_cos=0.5)),
        BivariateNormalKernel(var1=2.0, var2=0.5, rho=-0.5),
    ), ids=lambda k: type(k).__name__)
    def test_round_trip(self, kernel):
        assert kernel_from_json(kernel_to_json(kernel)) == kernel

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown kernel family"):
            kernel_from_json({"family": "mystery"})
