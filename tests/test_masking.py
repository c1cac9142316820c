"""Masking operator algebra: normalization, convexity, and the brute-force oracle."""

from __future__ import annotations

import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from smoothmask import kernels
from smoothmask.dataset import GridSpec, SpatialDataset
from smoothmask.kernels import (
    BivariateNormalKernel,
    EuclideanKernel,
    RingAngleKernel,
    RingBlockKernel,
    RingKernel,
)
from smoothmask.masking import (
    MaskingOperator,
    build_operator,
    compose_two_step,
    mask_dataset,
    operator_to_csv,
)
from smoothmask.sim import RadialExposure, SimConfig

from conftest import PolynomialDecayKernel, random_dataset

ALL_KERNELS = (
    EuclideanKernel(),
    RingKernel(),
    RingAngleKernel(),
    RingBlockKernel(),
    BivariateNormalKernel(var1=0.9, var2=1.4, rho=-0.3),
)


def brute_force_masked(locs, values, weight_fn, lam):
    """Independent double-loop weighted average, scalar math only."""
    n = len(values)
    out = []
    for i in range(n):
        num = den = 0.0
        for k in range(n):
            w = weight_fn(locs[i], locs[k], lam)
            num += values[k] * w
            den += w
        out.append(num / den)
    return np.array(out)


def euclid_weight(a, b, lam):
    d = (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2
    if lam == 0.0:
        return 1.0 if d == 0.0 else 0.0
    return math.exp(-d / lam)


class TestBuildOperator:
    def test_lambda_zero_identity(self):
        rng = np.random.default_rng(3)
        locs = rng.uniform(-1, 1, (9, 2))
        op = build_operator(locs, EuclideanKernel(), 0.0)
        np.testing.assert_array_equal(op.a, np.eye(9))

    def test_two_points_hand_normalization(self):
        d = 0.8
        lam = 0.3
        locs = np.array([[0.0, 0.0], [d, 0.0]])
        op = build_operator(locs, EuclideanKernel(), lam)
        w = math.exp(-d * d / lam)
        np.testing.assert_allclose(op.a[0], [1 / (1 + w), w / (1 + w)], rtol=1e-15)
        np.testing.assert_allclose(op.a[1], [w / (1 + w), 1 / (1 + w)], rtol=1e-15)

    def test_three_points_common_circle_uniform_rows(self):
        locs = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        for lam in (0.05, 0.5, 7.0):
            op = build_operator(locs, RingKernel(), lam)
            np.testing.assert_array_equal(op.a, np.full((3, 3), 1.0 / 3.0))

    def test_row_stochastic_all_kernels(self):
        rng = np.random.default_rng(44)
        for kernel in ALL_KERNELS:
            for lam in (0.0, 0.1, 0.5, 2.0):
                locs = rng.uniform(-1, 1, (25, 2))
                op = build_operator(locs, kernel, lam)
                assert np.abs(op.a.sum(axis=1) - 1.0).max() <= 1e-12
                assert (op.a >= 0.0).all()

    @pytest.mark.parametrize("lam", [0.0, 0.5])
    @pytest.mark.parametrize("kernel, far", [
        (RingKernel(), 1e308), (RingAngleKernel(), -1e308), (RingBlockKernel(), 1e308),
    ], ids=["ring", "ring_angle", "ring_block"])
    def test_overflowing_distance_names_its_location(self, kernel, far, lam):
        # r^2 of location 2 overflows, so its distance to itself would be
        # inf - inf: refused as such at every lam, with no RuntimeWarning and
        # not as all-zero weights
        locs = np.array([[0.1, 0.2], [0.5, -0.3], [far, 0.4], [-0.2, 0.6]])
        with pytest.raises(ValueError, match="^the kernel distance overflows at location 2; "
                                             "rescale the locations$"):
            build_operator(locs, kernel, lam)

    @pytest.mark.parametrize("kernel, far", [
        (BivariateNormalKernel(var1=1e-20, var2=1e-20, rho=0.0), 1e300),
        (BivariateNormalKernel(var1=1e-20, var2=1e-20, rho=0.5), -1e300),
    ], ids=["bivariate_normal", "bivariate_normal_rho"])
    def test_overflowing_whitening_gives_the_identity(self, kernel, far):
        # location 2's whitened coordinates overflow; like the finite ones at
        # these variances it keeps weight 1 on itself and 0 on every other one
        locs = np.array([[0.1, 0.2], [0.5, -0.3], [far, 0.4], [-0.2, 0.6]])
        data = SpatialDataset(ids=("a", "b", "c", "d"), locs=locs, x_names=("x1",),
                              x=np.array([[0.5], [1.5], [1.0], [0.2]]),
                              y=np.array([3.0, 8.0, 5.0, 1.0]))
        op = build_operator(locs, kernel, 0.5)
        assert np.array_equal(op.a, np.eye(4))
        masked = op.apply(data)
        assert np.array_equal(masked.x, data.x) and np.array_equal(masked.y, data.y)

    @pytest.mark.parametrize("lam", [0.0, 0.5])
    def test_coincident_overflowing_locations_share_their_weight(self, lam):
        # each distinct location whose whitening overflows is its own
        # neighbourhood; -0.0 and 0.0 are one location
        kernel = BivariateNormalKernel(var1=1e-20, var2=1e-20, rho=0.0)
        locs = np.array([[0.1, 0.2], [1e300, 0.4], [1e300, 0.4], [1e300, 0.0], [1e300, -0.0],
                         [-1e300, 0.4]])
        a = build_operator(locs, kernel, lam).a
        want = np.eye(6)
        want[1:5, 1:5] = np.kron(np.eye(2), np.full((2, 2), 0.5))
        assert np.array_equal(a, want)

    def test_finite_whitening_has_no_labels(self):
        kernel = BivariateNormalKernel(var1=1e-20, var2=1e-20, rho=0.5)
        assert kernel.labels(np.array([[0.1, 0.2], [1e140, -1e140]])) is None

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), kernel=st.sampled_from(ALL_KERNELS), duplicate=st.booleans(),
           lam=st.one_of(st.just(0.0), st.floats(0.0, 1e6, exclude_min=True)))
    def test_property_row_stochastic_and_identity_at_zero(self, data, kernel, duplicate, lam):
        n = data.draw(st.integers(1, 60), label="n")
        locs = data.draw(hnp.arrays(float, (n, 2), elements=st.floats(-1.0, 1.0)), label="locs")
        if duplicate and n > 1:
            locs[-1] = locs[0]
        a = build_operator(locs, kernel, lam).a
        assert (a >= 0.0).all()
        assert np.abs(a.sum(axis=1) - 1.0).max() <= 1e-12
        if lam == 0.0:
            # the limit weights spread each row evenly over its zero-distance
            # points; ring families put every point of one radius at distance 0
            ties = kernel.distance_matrix(locs, locs) == 0.0
            assert np.array_equal(a, ties / ties.sum(axis=1, keepdims=True))
            if not ties[~np.eye(n, dtype=bool)].any():
                assert np.array_equal(a, np.eye(n))


class TestLambdaContract:
    """build_operator checks lam by one rule before it calls any kernel."""

    KERNELS = (RingAngleKernel(), PolynomialDecayKernel(scale=0.01))

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: type(k).__name__)
    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf, -1.0, True, 10**400,
                                     Fraction(10**400, 3)],
                             ids=["nan", "inf", "-inf", "negative", "bool", "int_overflow",
                                  "fraction_overflow"])
    def test_refused_with_the_one_message(self, kernel, lam, monkeypatch):
        locs = np.random.default_rng(5).uniform(-1, 1, (6, 2))
        monkeypatch.setattr(type(kernel), "weight_matrix",
                            lambda *args: pytest.fail("the kernel was called"))
        message = re.escape(f"smoothness parameter must be a finite real >= 0, got {lam!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            build_operator(locs, kernel, lam)
        monkeypatch.undo()
        if isinstance(kernel, RingAngleKernel):   # the public engine applies the same rule
            with pytest.raises(ValueError, match=f"^{message}$"):
                kernel.weight_matrix(locs, lam)

    @pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: type(k).__name__)
    @pytest.mark.parametrize("lam", [np.float32(0.5), np.int64(1)], ids=["float32", "int64"])
    def test_numpy_scalars_weigh_as_their_float(self, kernel, lam, monkeypatch):
        locs = np.random.default_rng(5).uniform(-1, 1, (6, 2))
        if isinstance(kernel, RingAngleKernel):
            assert np.array_equal(kernel.weight_matrix(locs, lam),
                                  kernel.weight_matrix(locs, float(lam)))
        want = build_operator(locs, kernel, float(lam)).a
        seen = []
        weight_matrix = type(kernel).weight_matrix
        monkeypatch.setattr(type(kernel), "weight_matrix",
                            lambda self, locs, lam: seen.append(lam) or weight_matrix(self, locs, lam))
        assert np.array_equal(build_operator(locs, kernel, lam).a, want)
        assert seen == [float(lam)] and type(seen[0]) is float   # every kernel is given a float

    def test_study_lambda_beyond_the_float_range_names_the_field(self):
        message = re.escape(f"lambdas: smoothness parameter must be a finite real >= 0, "
                            f"got {10**400!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            SimConfig(field=RadialExposure(), kernels=(("ring", RingKernel()),), mu=-25.0,
                      beta=4.0, lambdas=(10**400,))


def unblocked_operator(kernel, locs, lam):
    """Oracle: weights over the whole square distance matrix at once, then row sums."""
    d = kernel.distance_matrix(locs, locs)
    w = (d == 0.0).astype(float) if lam == 0.0 else np.exp(-d / lam)
    return w / w.sum(axis=1)[:, None]


class TestBlockedBuild:
    # the default budget splits n=300 into two blocks; a 64 x 64 budget puts
    # block edges inside every n >= 65
    @pytest.mark.parametrize("budget", [kernels._BLOCK_ELEMS, 64 * 64],
                             ids=["default_budget", "small_budget"])
    @pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: type(k).__name__)
    def test_equals_unblocked_oracle(self, kernel, budget, monkeypatch):
        monkeypatch.setattr(kernels, "_BLOCK_ELEMS", budget)
        for n in (1, 2, 63, 64, 65, 129, 300):
            for duplicates in (False, True):
                locs = np.random.default_rng(n).uniform(-1, 1, (n, 2))
                if duplicates:
                    locs[n // 2:] = locs[:n - n // 2]
                for lam in (0.0, 0.05, 1.0):
                    got = build_operator(locs, kernel, lam).a
                    assert np.array_equal(got, unblocked_operator(kernel, locs, lam)), (n, lam)


class TestOperatorExport:
    def test_streams_rows_with_unchanged_bytes(self, tmp_path):
        n = 400
        locs = np.random.default_rng(7).uniform(-1, 1, (n, 2))
        op = build_operator(locs, EuclideanKernel(), 0.3)
        path = tmp_path / "operator.csv"
        tracemalloc.start()
        try:
            operator_to_csv(op, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the text of the whole matrix, as the export has always formatted it
        want = (",".join(f"a_{j}" for j in range(n)) + "\n"
                + "\n".join(",".join(repr(float(v)) for v in row) for row in op.a) + "\n")
        assert path.read_bytes() == want.encode("utf-8")
        assert peak < len(want) / 16   # a few rows, not the file


class TestApply:
    def test_identity_operator_bit_equal(self):
        data = random_dataset(12, p=2, seed=5)
        masked = mask_dataset(data, EuclideanKernel(), 0.0)
        np.testing.assert_array_equal(masked.y, data.y)
        np.testing.assert_array_equal(masked.x, data.x)
        assert masked.ids == data.ids

    def test_uniform_operator_gives_column_means(self):
        data = random_dataset(15, p=2, seed=6)
        op = MaskingOperator(a=np.full((15, 15), 1.0 / 15.0), locs=data.locs)
        masked = op.apply(data)
        np.testing.assert_allclose(masked.y, np.full(15, data.y.mean()), rtol=1e-12)
        for j in range(2):
            np.testing.assert_allclose(masked.x[:, j], np.full(15, data.x[:, j].mean()), rtol=1e-12)

    def test_matches_brute_force_double_loop(self):
        data = random_dataset(10, p=1, seed=21)
        masked = mask_dataset(data, EuclideanKernel(), 0.3)
        want_y = brute_force_masked(data.locs, data.y, euclid_weight, 0.3)
        want_x = brute_force_masked(data.locs, data.x[:, 0], euclid_weight, 0.3)
        np.testing.assert_allclose(masked.y, want_y, atol=1e-12, rtol=0)
        np.testing.assert_allclose(masked.x[:, 0], want_x, atol=1e-12, rtol=0)

    def test_fingerprint_mismatch(self):
        data = random_dataset(8, seed=1)
        other = random_dataset(8, seed=2)
        op = build_operator(data.locs, EuclideanKernel(), 0.4)
        with pytest.raises(ValueError, match="different locations"):
            op.apply(other)

    def test_holds_readonly_copy_of_locations(self):
        locs = np.random.default_rng(4).uniform(-1, 1, (6, 2))
        op = build_operator(locs, EuclideanKernel(), 0.4)
        locs[0] = 9.0   # the caller's array, changed after the build
        assert not np.shares_memory(op.locs, locs) and not op.locs.flags.writeable
        assert op.locs[0, 0] != 9.0
        data = random_dataset(6, seed=3)
        with pytest.raises(ValueError, match="different locations"):
            op.apply(data)
        moved = SpatialDataset(ids=data.ids, locs=op.locs, x=data.x, y=data.y,
                               x_names=data.x_names)
        np.testing.assert_array_equal(op.apply(moved).y, op.a @ data.y)

    def test_counts_not_smoothed(self):
        data = random_dataset(10, seed=9, with_counts=True)
        masked = mask_dataset(data, EuclideanKernel(), 0.5)
        np.testing.assert_array_equal(masked.n, data.n)


class TestConvexityAndSharedWeights:
    @pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: type(k).__name__)
    def test_masked_values_within_column_range(self, kernel):
        data = random_dataset(40, p=3, seed=33)
        for lam in (0.05, 0.5, 2.0):
            masked = mask_dataset(data, kernel, lam)
            for col, orig in [(masked.y, data.y)] + [
                (masked.x[:, j], data.x[:, j]) for j in range(3)
            ]:
                assert col.min() >= orig.min() - 1e-12
                assert col.max() <= orig.max() + 1e-12

    def test_constant_column_fixed_point(self):
        c = 3.75
        data = random_dataset(25, p=1, seed=2).replace_values(x=np.full((25, 1), c))
        masked = mask_dataset(data, EuclideanKernel(), 0.7)
        np.testing.assert_allclose(masked.x[:, 0], c, rtol=1e-12)

    def test_same_weights_for_outcome_and_regressors(self):
        # mask an indicator column: row i of the operator is recovered exactly,
        # so outcome weights and regressor weights are the same profile
        n = 12
        rng = np.random.default_rng(4)
        locs = rng.uniform(-1, 1, (n, 2))
        op = build_operator(locs, EuclideanKernel(), 0.4)
        for j in (0, 5, 11):
            indicator = np.zeros(n)
            indicator[j] = 1.0
            data = SpatialDataset(
                ids=tuple(f"r{i}" for i in range(n)), locs=locs,
                x=indicator[:, None], y=indicator, x_names=("e",),
            )
            masked = op.apply(data)
            np.testing.assert_array_equal(masked.y, op.a[:, j])
            np.testing.assert_array_equal(masked.x[:, 0], op.a[:, j])

    @pytest.mark.parametrize("kernel", ALL_KERNELS, ids=lambda k: type(k).__name__)
    def test_affine_relation_preserved(self, kernel):
        # noiseless y = X beta + b0 stays exact under any row-stochastic operator
        rng = np.random.default_rng(51)
        data = random_dataset(30, p=2, seed=52)
        beta = np.array([1.5, -2.0])
        y = data.x @ beta + 0.7
        exact = data.replace_values(y=y)
        for lam in (0.1, 0.5, 2.0):
            masked = mask_dataset(exact, kernel, lam)
            np.testing.assert_allclose(masked.y, masked.x @ beta + 0.7, atol=1e-12)


class TestComposeTwoStep:
    def test_lambda_zero_equals_aggregation(self):
        from smoothmask.dataset import aggregate

        data = random_dataset(200, p=2, seed=61)
        grid = GridSpec(-1, 1, -1, 1, 4, 4)
        masked = compose_two_step(data, grid, EuclideanKernel(), 0.0)
        agg = aggregate(data, grid)
        np.testing.assert_allclose(masked.y, agg.y, rtol=1e-12)
        np.testing.assert_allclose(masked.x, agg.x, rtol=1e-12)
        np.testing.assert_array_equal(masked.n, agg.n)

    def test_single_cell_nothing_to_smooth(self):
        from smoothmask.dataset import aggregate

        data = random_dataset(30, seed=62)
        grid = GridSpec(-1, 1, -1, 1, 1, 1)
        masked = compose_two_step(data, grid, EuclideanKernel(), 0.8)
        agg = aggregate(data, grid)
        np.testing.assert_allclose(masked.y, agg.y, rtol=1e-12)

    def test_rates_match_weighted_average_oracle(self):
        from smoothmask.dataset import aggregate

        data = random_dataset(980, p=1, seed=63)
        # make outcomes nonnegative counts so rates are meaningful
        rng = np.random.default_rng(64)
        data = data.replace_values(y=rng.poisson(3.0, 980).astype(float))
        grid = GridSpec(-1, 1, -1, 1, 7, 7)
        lam = 0.4
        masked = compose_two_step(data, grid, EuclideanKernel(), lam)
        agg = aggregate(data, grid)
        rates = agg.y / agg.n
        want = brute_force_masked(agg.locs, rates, euclid_weight, lam)
        np.testing.assert_allclose(masked.y, want * agg.n, atol=1e-10, rtol=0)
