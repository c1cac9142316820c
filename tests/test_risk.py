"""Matching probabilities and the expected correct-match rate."""

from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from smoothmask import risk
from smoothmask.dataset import SpatialDataset
from smoothmask.risk import (
    IntruderScenario,
    ap_components,
    check_scenario_fits,
    expected_correct_rate,
    match_probabilities,
    risk_report,
    u_components,
)


def make_dataset(x, y, ids=None):
    x = np.asarray(x, dtype=float)
    n = len(x)
    rng = np.random.default_rng(123)
    return SpatialDataset(
        ids=ids or tuple(f"r{i}" for i in range(n)),
        locs=rng.uniform(-1, 1, (n, 2)),
        x=x[:, None],
        y=np.asarray(y, dtype=float),
        x_names=("x",),
    )


def brute_force_u_components(masked_u, preds, resid_sd, mc_draws, rng):
    """Oracle: the farthest released point from each draw, found over all records."""
    n, u_dim = masked_u.shape
    if np.all(resid_sd == 0.0):
        mc_draws = 1
    draws = preds[:, None, :] + rng.standard_normal((n, mc_draws, u_dim)) * resid_sd
    num = np.sqrt(((draws - masked_u[:, None, :]) ** 2).sum(axis=2))
    dmax = np.empty((n, mc_draws))
    for j in range(n):
        diff = draws[j][:, None, :] - masked_u[None, :, :]
        dmax[j] = np.sqrt((diff ** 2).sum(axis=2)).max(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(dmax > 0.0, num / np.where(dmax > 0.0, dmax, 1.0), 0.0)
    return np.clip(1.0 - ratio, 0.0, 1.0).mean(axis=1)


def per_target_reference(masked, truth, scenario):
    """Oracle: score one target at a time, with numpy's row sums of (n, a) arrays.

    This is the row-at-a-time form that the column and block code replaced;
    both share the context (standardization, regression, sought-column
    components). Returns ([(probabilities, m, correct, prob_correct)], rate,
    degenerate count).
    """
    ctx = risk._build_context(masked, truth, scenario)
    masked_ap = np.ascontiguousarray(ctx.masked_ap)
    n = masked.n_records
    rows, total, degenerate = [], 0.0, 0
    for tidx in ctx.target_indices:
        d = np.sqrt(((masked_ap - ctx.truth_rows[tidx][None, :]) ** 2).sum(axis=1))
        dmax = d.max()
        degenerate += dmax == 0.0
        ap = np.ones(n) if dmax == 0.0 else 1.0 - d / dmax
        prod = ap * ctx.u_comp / n
        s = prod.sum()
        p = np.full(n, 1.0 / n) if s == 0.0 else prod / s
        sel = p >= p.max() * (1.0 - 1e-9)
        m, correct = int(sel.sum()), bool(sel[tidx])
        if correct:
            total += 1.0 / m
        rows.append((p, m, correct, float(p[tidx])))
    return rows, total / len(ctx.target_indices), degenerate


def _oracle_inputs():
    rng = np.random.default_rng(11)
    x2 = rng.standard_normal(300)
    y = rng.poisson(np.exp(0.5 + 0.3 * x2)).astype(float)
    release = np.column_stack([x2, y]) / np.array([x2.std(), y.std()])
    dup = rng.normal(0, 1, (10, 2))
    line = np.outer(rng.uniform(-2, 2, 40), [1.0, -3.0, 0.5]) + [1.0, 2.0, 3.0]
    const = rng.normal(0, 1, (30, 3))
    const[:, 1] = 4.0
    return {
        "release_2d": release,
        "duplicate_rows": np.repeat(dup, 4, axis=0),
        "integer_grid": np.array([(i, j) for i in range(-3, 4) for j in range(-2, 3)], float),
        "collinear": line,
        "constant_column": const,
        "n2": np.array([[0.0, 1.0], [2.0, -1.0]]),
        "all_equal": np.full((7, 2), 3.25),
        "u_dim1": rng.normal(0, 1, (50, 1)),
        "u_dim3": rng.normal(0, 1, (80, 3)),
        "u_dim4": rng.integers(-2, 3, (80, 4)).astype(float),
        "above_hull_dims": rng.normal(0, 1, (30, 7)),
    }


class TestApComponents:
    def test_zero_distance_gives_one(self):
        comp, degen = ap_components(np.array([[1.0], [2.0], [3.0]]), np.array([1.0]))
        assert comp[0] == 1.0
        assert not degen

    def test_max_distance_gives_zero(self):
        comp, _ = ap_components(np.array([[1.0], [2.0], [3.0]]), np.array([1.0]))
        assert comp[2] == 0.0

    def test_distances_0_1_2(self):
        comp, _ = ap_components(np.array([[0.0], [1.0], [2.0]]), np.array([0.0]))
        np.testing.assert_allclose(comp, [1.0, 0.5, 0.0], rtol=0, atol=0)

    def test_degenerate_all_zero(self):
        comp, degen = ap_components(np.array([[2.0], [2.0]]), np.array([2.0]))
        assert degen
        np.testing.assert_array_equal(comp, [1.0, 1.0])

    def test_memory_order_does_not_matter(self):
        rng = np.random.default_rng(12)
        for a in range(1, 5):
            c_order = rng.normal(0, 1, (50, a))
            c_order[::7] = c_order[0]  # ties
            t = c_order[3] + rng.normal(0, 0.1, a)
            comp_c, degen_c = ap_components(c_order, t)
            comp_f, degen_f = ap_components(np.asfortranarray(c_order), t)
            assert np.array_equal(comp_c, comp_f) and degen_c == degen_f

    @pytest.mark.parametrize("a", [8, 9, 12])
    def test_eight_or_more_columns_within_tolerance(self, a):
        # from 8 columns numpy's row sum is pairwise, the column sum is not:
        # the two agree within a few ulp, far inside 1e-12
        rng = np.random.default_rng(a)
        masked_ap = rng.normal(0, 1, (60, a))
        t = rng.normal(0, 1, a)
        d = np.sqrt(((masked_ap - t) ** 2).sum(axis=1))
        comp, degen = ap_components(masked_ap, t)
        assert not degen
        np.testing.assert_allclose(comp, 1.0 - d / d.max(), rtol=0, atol=1e-12)


class TestUComponents:
    def test_point_mass_at_own_masked_value_gives_one(self):
        masked_u = np.array([[3.0], [5.0], [9.0]])
        preds = masked_u.copy()
        comp = u_components(masked_u, preds, np.zeros(1), mc_draws=1,
                            rng=np.random.default_rng(0))
        np.testing.assert_array_equal(comp, [1.0, 1.0, 1.0])

    def test_empty_u_is_vacuous(self):
        comp = u_components(np.empty((4, 0)), np.empty((4, 0)), np.empty(0),
                            mc_draws=10, rng=np.random.default_rng(0))
        np.testing.assert_array_equal(comp, np.ones(4))

    def test_monte_carlo_matches_quadrature(self):
        # dense-grid quadrature oracle for the one-dimensional integral
        masked_u = np.array([[3.5], [5.0], [8.0]])
        preds = np.array([[3.2], [5.4], [7.9]])
        sd = np.array([0.8])
        comp = u_components(masked_u, preds, sd, mc_draws=100_000,
                            rng=np.random.default_rng(42))
        vals = masked_u[:, 0]
        for j in range(3):
            grid = np.linspace(preds[j, 0] - 8 * sd[0], preds[j, 0] + 8 * sd[0], 40_001)
            density = np.exp(-0.5 * ((grid - preds[j, 0]) / sd[0]) ** 2) / (
                sd[0] * math.sqrt(2 * math.pi))
            dmax = np.maximum.reduce([np.abs(grid - v) for v in vals])
            integrand = (1.0 - np.abs(grid - vals[j]) / dmax) * density
            want = np.trapezoid(integrand, grid)
            assert comp[j] == pytest.approx(want, abs=0.01)

    def test_multidimensional_u_path(self):
        rng = np.random.default_rng(3)
        masked_u = rng.normal(0, 1, (6, 2))
        preds = masked_u + rng.normal(0, 0.1, (6, 2))
        comp = u_components(masked_u, preds, np.array([0.2, 0.3]), mc_draws=200,
                            rng=np.random.default_rng(1))
        assert ((comp >= 0) & (comp <= 1)).all()


    @pytest.mark.parametrize("name", sorted(_oracle_inputs()))
    @pytest.mark.parametrize("noisy", [False, True])
    def test_equals_all_records_oracle(self, name, noisy):
        masked_u = _oracle_inputs()[name]
        rng = np.random.default_rng(5)
        preds = masked_u + rng.normal(0, 0.3, masked_u.shape)
        sd = rng.uniform(0.1, 1.0, masked_u.shape[1]) if noisy else np.zeros(masked_u.shape[1])
        got = u_components(masked_u, preds, sd, 40, np.random.default_rng(9))
        want = brute_force_u_components(masked_u, preds, sd, 40, np.random.default_rng(9))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("u_dim", [8, 9])
    def test_eight_or_more_columns_within_tolerance(self, u_dim):
        # above _HULL_MAX_DIM every distinct row is a candidate, as in the
        # oracle; from 8 columns only the summation order differs (a few ulp)
        rng = np.random.default_rng(u_dim)
        masked_u = rng.normal(0, 1, (40, u_dim))
        masked_u[5] = masked_u[4]
        preds = masked_u + rng.normal(0, 0.3, masked_u.shape)
        sd = rng.uniform(0.1, 1.0, u_dim)
        got = u_components(masked_u, preds, sd, 30, np.random.default_rng(2))
        want = brute_force_u_components(masked_u, preds, sd, 30, np.random.default_rng(2))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(data=st.data(), integer=st.booleans(), noisy=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_property_equals_all_records_oracle(self, data, integer, noisy, seed):
        shape = data.draw(st.tuples(st.integers(1, 25), st.integers(1, 4)), label="shape")
        if integer:
            elements = st.integers(-3, 3).map(float)
        else:
            elements = st.floats(-1e3, 1e3, allow_nan=False)
        masked_u = data.draw(hnp.arrays(float, shape, elements=elements), label="masked_u")
        preds = data.draw(hnp.arrays(float, shape, elements=elements), label="preds")
        sd = (data.draw(hnp.arrays(float, shape[1], elements=st.floats(0.0, 5.0)), label="sd")
              if noisy else np.zeros(shape[1]))
        got = u_components(masked_u, preds, sd, 10, np.random.default_rng(seed))
        want = brute_force_u_components(masked_u, preds, sd, 10, np.random.default_rng(seed))
        assert np.array_equal(got, want)


    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from(["collinear", "grid", "constant_column", "circle",
                                 "duplicates", "few"]),
           n=st.integers(1, 60), scale=st.sampled_from([(1.0, 1.0), (1e6, 1e-6), (1e-3, 1e3)]),
           offset=st.sampled_from([0.0, 1e4]), noisy=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_property_two_columns_degenerate_sets_equal_oracle(self, kind, n, scale, offset,
                                                                noisy, seed):
        # the 2-D monotone chain keeps every point that can attain the maximum
        rng = np.random.default_rng(seed)
        t = rng.uniform(-2.0, 2.0, n)
        masked_u = {
            "collinear": lambda: np.column_stack([t, rng.normal() * t + rng.normal()]),
            "grid": lambda: rng.integers(-3, 4, (n, 2)).astype(float),
            "constant_column": lambda: np.column_stack([t, np.full(n, rng.normal())]),
            "circle": lambda: np.column_stack([np.cos(np.pi * t), np.sin(np.pi * t)]),
            "duplicates": lambda: np.repeat(rng.normal(0.0, 1.0, (max(1, n // 4), 2)), 4, 0),
            "few": lambda: rng.normal(0.0, 1.0, (min(n, 3), 2)),
        }[kind]() * scale + offset
        preds = masked_u + rng.normal(0.0, 0.5, masked_u.shape) * scale
        sd = rng.uniform(0.1, 2.0, 2) * scale if noisy else np.zeros(2)
        got = u_components(masked_u, preds, sd, 10, np.random.default_rng(seed))
        want = brute_force_u_components(masked_u, preds, sd, 10, np.random.default_rng(seed))
        assert np.array_equal(got, want)

    def test_two_column_candidates_contain_the_qhull_candidates(self):
        from scipy.spatial import ConvexHull

        rng = np.random.default_rng(21)
        for scale in ((1.0, 1.0), (1e6, 1e-6), (1e-3, 1e3)):
            for _ in range(100):
                pts = np.unique(rng.normal(0.0, 1.0, (60, 2)) * scale, axis=0)
                hull = ConvexHull(pts, qhull_options="Qc")
                want = np.union1d(hull.vertices, hull.coplanar[:, 0])
                assert set(want) <= set(risk._hull_chain_2d(pts))


class TestMatchProbabilities:
    def test_identity_masking_exact_match_dominates(self):
        # others equidistant from the target, so their components are exactly 0
        data = make_dataset(x=[0.0, 1.0, -1.0], y=[5.0, 7.0, 7.0])
        scenario = IntruderScenario(ap_columns=("x", "y"), target_ids=("r0",))
        p = match_probabilities(data, data, scenario)
        np.testing.assert_array_equal(p, [[1.0, 0.0, 0.0]])

    def test_all_identical_records_uniform(self):
        data = make_dataset(x=[2.0, 2.0, 2.0, 2.0], y=[1.0, 1.0, 1.0, 1.0])
        scenario = IntruderScenario(ap_columns=("x",), u_columns=("y",), mc_draws=50, seed=1)
        p = match_probabilities(data, data, scenario)
        assert p.shape == (4, 4)
        np.testing.assert_allclose(p, 0.25, rtol=0, atol=1e-12)

    def test_hand_built_three_record_bayes(self):
        # masked release, intruder truth, and a sought column whose true values
        # are exactly linear in the released available column (zero residual
        # variance -> the integral collapses to a point mass at the prediction)
        masked = make_dataset(x=[1.0, 2.0, 4.0], y=[3.5, 5.0, 8.0], ids=("a", "b", "c"))
        truth = make_dataset(x=[1.1, 2.2, 3.6], y=[3.0, 5.0, 9.0], ids=("a", "b", "c"))
        scenario = IntruderScenario(ap_columns=("x",), u_columns=("y",),
                                    mc_draws=7, seed=0, standardize=False)
        p = match_probabilities(masked, truth, scenario)[0]

        # available-column components for target a (true x = 1.1):
        ap = [1.0 - 0.1 / 2.9, 1.0 - 0.9 / 2.9, 0.0]
        # sought-column components with predictions (3, 5, 9):
        u_a = 1.0 - 0.5 / 5.0              # |3.5-3| over max(|3.5-3|,|5-3|,|8-3|)
        u_b = 1.0                           # |5-5| = 0
        u_c = 1.0 - 1.0 / 5.5               # |8-9| over max(|3.5-9|,|5-9|,|8-9|)
        raw = [ap[0] * u_a / 3, ap[1] * u_b / 3, ap[2] * u_c / 3]
        want = np.array(raw) / sum(raw)
        np.testing.assert_allclose(p, want, atol=1e-9, rtol=0)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(7)
        data = make_dataset(x=rng.normal(0, 1, 20), y=rng.normal(0, 1, 20))
        truth = data.replace_values(x=data.x + rng.normal(0, 0.3, (20, 1)))
        scenario = IntruderScenario(ap_columns=("x",), u_columns=("y",), mc_draws=30, seed=5,
                                    target_ids=("r0", "r7", "r19"))
        p = match_probabilities(data, truth, scenario)
        assert p.shape == (3, 20)
        assert (abs(p.sum(axis=1) - 1.0) <= 1e-9).all()
        assert (p >= 0).all()

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(8)
        x, y = rng.normal(0, 1, 10), rng.normal(0, 1, 10)
        data = make_dataset(x=x, y=y)
        perm = rng.permutation(10)
        permuted = SpatialDataset(
            ids=tuple(data.ids[i] for i in perm),
            locs=data.locs[perm], x=data.x[perm], y=data.y[perm], x_names=("x",),
        )
        scenario = IntruderScenario(ap_columns=("x", "y"), target_ids=("r3",))
        p = match_probabilities(data, data, scenario)
        q = match_probabilities(permuted, permuted, scenario)
        np.testing.assert_allclose(q, p[:, perm], rtol=0, atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(data=st.data(), integer=st.booleans())
    def test_property_permutation_equivariance(self, data, integer):
        n = data.draw(st.integers(2, 30), label="n")
        elements = st.integers(-3, 3).map(float) if integer else st.floats(-1e3, 1e3)
        x = data.draw(hnp.arrays(float, n, elements=elements), label="x")
        y = data.draw(hnp.arrays(float, n, elements=elements), label="y")
        perm = np.array(data.draw(st.permutations(range(n)), label="perm"))
        target = f"r{data.draw(st.integers(0, n - 1), label='target')}"
        dataset = make_dataset(x=x, y=y)
        permuted = SpatialDataset(
            ids=tuple(dataset.ids[i] for i in perm),
            locs=dataset.locs[perm], x=dataset.x[perm], y=dataset.y[perm], x_names=("x",),
        )
        scenario = IntruderScenario(ap_columns=("x", "y"), target_ids=(target,))
        p = match_probabilities(dataset, dataset, scenario)
        q = match_probabilities(permuted, permuted, scenario)
        np.testing.assert_allclose(q, p[:, perm], rtol=0, atol=1e-12)

    def test_one_context_scores_every_target_in_scenario_order(self, monkeypatch):
        rng = np.random.default_rng(16)
        data = make_dataset(x=rng.normal(0, 1, 9), y=rng.normal(0, 1, 9))
        truth = data.replace_values(y=data.y + rng.normal(0, 0.5, 9))
        scenario = IntruderScenario(ap_columns=("x",), u_columns=("y",), mc_draws=10)
        every = match_probabilities(data, truth, scenario)
        assert every.shape == (9, 9)
        build_context, contexts = risk._build_context, []

        def counted(*args):
            contexts.append(args)
            return build_context(*args)

        monkeypatch.setattr(risk, "_build_context", counted)
        subset = dataclasses.replace(scenario, target_ids=("r4", "r0", "r8"))
        p = match_probabilities(data, truth, subset)
        assert len(contexts) == 1
        assert np.array_equal(p, every[[4, 0, 8]])

    def test_scenario_columns_must_cover_release(self):
        data = make_dataset(x=[1.0, 2.0], y=[1.0, 2.0])
        with pytest.raises(ValueError, match="cover"):
            match_probabilities(data, data, IntruderScenario(ap_columns=("x",)))

    def test_unreleased_target_rejected_before_matching(self, monkeypatch):
        def no_matching(*args, **kwargs):
            raise AssertionError("sought-column components computed for an unreleased target")

        monkeypatch.setattr(risk, "u_components", no_matching)
        data = make_dataset(x=[1.0, 2.0, 4.0], y=[1.0, 3.0, 2.0])
        scenario = IntruderScenario(ap_columns=("x",), u_columns=("y",), mc_draws=5,
                                    target_ids=("r9",))
        with pytest.raises(ValueError,
                           match=r"target ids not present in the released data: \['r9'\]"):
            match_probabilities(data, data, scenario)

    def test_check_scenario_fits_rejects_unreleased_target(self):
        data = make_dataset(x=[1.0, 2.0], y=[1.0, 2.0])
        check_scenario_fits(IntruderScenario(ap_columns=("x", "y"), target_ids=("r1",)),
                            data.x_names, data.ids)
        with pytest.raises(ValueError, match="not present"):
            check_scenario_fits(IntruderScenario(ap_columns=("x", "y"), target_ids=("r1", "r9")),
                                data.x_names, data.ids)

    def test_disjoint_columns_required(self):
        with pytest.raises(ValueError, match="disjoint"):
            IntruderScenario(ap_columns=("x",), u_columns=("x",))


class TestExpectedCorrectRate:
    def test_empty_target_ids_rejected(self):
        # an empty tuple would score no targets and divide by zero
        with pytest.raises(ValueError, match="target_ids must name at least one record"):
            IntruderScenario(ap_columns=("x", "y"), target_ids=())

    @pytest.mark.parametrize("fields, message", [
        ({"ap_columns": ("x", "y"), "target_ids": ("a", "b", "a")},
         "target id 'a' is listed twice"),
        ({"ap_columns": ("x", "x"), "u_columns": ("y",)}, "column 'x' is listed twice"),
    ], ids=["target_id", "column"])
    def test_repeated_name_rejected(self, fields, message):
        # a repeated target would be scored, and counted in the rate, twice
        with pytest.raises(ValueError, match=message):
            IntruderScenario(**fields)

    def test_identity_masking_distinct_records_rate_one(self):
        rng = np.random.default_rng(9)
        data = make_dataset(x=rng.permutation(20).astype(float),
                            y=rng.permutation(20).astype(float) + 100)
        scenario = IntruderScenario(ap_columns=("x", "y"))
        assert expected_correct_rate(data, data, scenario) == 1.0

    def test_identical_records_pure_chance(self):
        n = 5
        data = make_dataset(x=np.full(n, 1.0), y=np.full(n, 2.0))
        scenario = IntruderScenario(ap_columns=("x", "y"))
        assert expected_correct_rate(data, data, scenario) == pytest.approx(1.0 / n, rel=1e-12)

    def test_rate_bounds_and_determinism(self):
        rng = np.random.default_rng(10)
        data = make_dataset(x=rng.normal(0, 1, 30), y=rng.normal(0, 1, 30))
        truth = data.replace_values(y=data.y + rng.normal(0, 0.5, 30))
        scenario = IntruderScenario(ap_columns=("x",), u_columns=("y",), mc_draws=40, seed=3)
        r1 = risk_report(data, truth, scenario)
        r2 = risk_report(data, truth, scenario)
        assert 0.0 <= r1.expected_correct_rate <= 1.0
        assert r1.expected_correct_rate == r2.expected_correct_rate
        assert np.array_equal(r1.max_prob, r2.max_prob)
        assert np.array_equal(r1.prob_correct, r2.prob_correct)

    def test_ties_counted_fractionally(self):
        # two pairs of duplicated records: each target ties its duplicate
        data = make_dataset(x=[1.0, 1.0, 5.0, 5.0], y=[2.0, 2.0, 7.0, 7.0])
        scenario = IntruderScenario(ap_columns=("x", "y"))
        report = risk_report(data, data, scenario)
        assert (report.m == 2).all()
        assert report.expected_correct_rate == pytest.approx(0.5, rel=1e-12)

    @pytest.mark.parametrize("gap, m", [(1e-10, 2), (1e-7, 1)])
    def test_tie_tolerance_boundary(self, gap, m):
        # record r1 trails the target's own record by a relative 2 * gap / 5:
        # inside the 1e-9 tie tolerance it shares the argmax set, outside not
        data = make_dataset(x=[0.0, gap, 5.0], y=[0.0, 0.0, 0.0])
        scenario = IntruderScenario(ap_columns=("x", "y"), standardize=False)
        report = risk_report(data, data, scenario)
        assert report.m[0] == m and report.correct_in_argmax[0]

    def test_conservatism_note_present(self):
        data = make_dataset(x=[1.0, 2.0], y=[3.0, 4.0])
        report = risk_report(data, data, IntruderScenario(ap_columns=("x", "y")))
        assert "upper bound" in report.note

    def test_target_subset(self):
        rng = np.random.default_rng(11)
        data = make_dataset(x=rng.normal(0, 1, 10), y=rng.normal(0, 1, 10))
        scenario = IntruderScenario(ap_columns=("x", "y"), target_ids=("r1", "r4"))
        report = risk_report(data, data, scenario)
        assert report.target_ids.tolist() == ["r1", "r4"]

    def test_probability_rows_are_read_only(self):
        rng = np.random.default_rng(13)
        data = make_dataset(x=rng.normal(0, 1, 12), y=rng.normal(0, 1, 12))
        scenario = IntruderScenario(ap_columns=("x",), u_columns=("y",), mc_draws=5)
        report = risk_report(data, data, scenario)
        probs = match_probabilities(data, data, scenario)
        for column in (report.target_ids, report.max_prob, report.m,
                       report.correct_in_argmax, report.prob_correct):
            for index in (0, -1):
                with pytest.raises(ValueError):
                    column[index] = column[0]
        for index in ((0, 0), (-1, 0), 2):
            with pytest.raises(ValueError):
                probs[index] = 1.0

    def test_report_keeps_no_probability_rows(self):
        # one probability row per target would be 2000 * 2000 floats, 32 MB
        rng = np.random.default_rng(15)
        n = 2000
        data = make_dataset(x=rng.normal(0, 1, n), y=rng.normal(0, 1, n))
        truth = data.replace_values(y=data.y + rng.normal(0, 0.5, n))
        scenario = IntruderScenario(ap_columns=("x",), u_columns=("y",), mc_draws=20)
        risk_report(data, truth, dataclasses.replace(scenario, target_ids=("r0",)))  # lazy imports
        tracemalloc.start()
        try:
            report = risk_report(data, truth, scenario)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(report.max_prob) == n
        assert peak < 4 * 2 ** 20

    def test_degenerate_counts_all_identical_records(self):
        n = 6
        data = make_dataset(x=np.full(n, 1.5), y=np.full(n, 2.0))
        report = risk_report(data, data, IntruderScenario(ap_columns=("x", "y")))
        assert report.degenerate == n

    def test_degenerate_zero_for_distinct_records(self):
        rng = np.random.default_rng(14)
        data = make_dataset(x=rng.normal(0, 1, 9), y=rng.normal(0, 1, 9))
        report = risk_report(data, data, IntruderScenario(ap_columns=("x", "y")))
        assert report.degenerate == 0

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), integer=st.booleans(), standardize=st.booleans(),
           seed=st.integers(0, 2**16))
    def test_property_equals_per_target_reference(self, data, integer, standardize, seed):
        n = data.draw(st.integers(2, 60), label="n")
        total = data.draw(st.integers(2, 5), label="columns")
        n_ap = data.draw(st.integers(max(1, total - 2), min(3, total)), label="n_ap")
        names = [f"x{i}" for i in range(total - 1)] + ["y"]
        order = data.draw(st.permutations(names), label="order")
        elements = st.integers(-3, 3).map(float) if integer else st.floats(-1e3, 1e3)
        values = data.draw(hnp.arrays(float, (2, n, total), elements=elements), label="values")
        ids = tuple(f"r{i}" for i in range(n))
        masked, truth = (SpatialDataset(ids=ids, locs=np.zeros((n, 2)), x=v[:, :-1], y=v[:, -1],
                                        x_names=tuple(names[:-1])) for v in values)
        subset = data.draw(st.none() | st.lists(st.sampled_from(ids), min_size=1, max_size=n,
                                                unique=True), label="targets")
        scenario = IntruderScenario(ap_columns=tuple(order[:n_ap]), u_columns=tuple(order[n_ap:]),
                                    mc_draws=5, seed=seed, standardize=standardize,
                                    target_ids=None if subset is None else tuple(subset))
        report = risk_report(masked, truth, scenario)
        probs = match_probabilities(masked, truth, scenario)
        rows, rate, degenerate = per_target_reference(masked, truth, scenario)
        assert len(report.target_ids) == len(rows) == len(probs)
        for i, (got_p, (p, m, correct, prob_correct)) in enumerate(zip(probs, rows)):
            assert np.array_equal(got_p, p, equal_nan=True)
            assert (report.m[i], report.correct_in_argmax[i]) == (m, correct)
            for got, want in ((report.max_prob[i], float(p.max())),
                              (report.prob_correct[i], prob_correct)):
                assert got == want or (math.isnan(want) and math.isnan(got))
        assert report.expected_correct_rate == rate
        assert report.degenerate == degenerate

    @pytest.mark.parametrize("u_dim", [1, 2, 3])
    @pytest.mark.parametrize("targets", [None, ("r7", "r0", "r149", "r64")], ids=["all", "subset"])
    def test_block_budget_changes_no_value(self, monkeypatch, u_dim, targets):
        # rows are scored independently, and the draws are consecutive stretches
        # of one standard_normal stream, so the block size cannot show
        rng = np.random.default_rng(30 + u_dim)
        n = 150
        values = rng.normal(0, 1, (2, n, 4))
        values[1] += values[0]
        names = ("x0", "x1", "x2")
        masked, truth = (SpatialDataset(ids=tuple(f"r{i}" for i in range(n)), locs=np.zeros((n, 2)),
                                        x=v[:, :3], y=v[:, 3], x_names=names) for v in values)
        columns = names + ("y",)
        scenario = IntruderScenario(ap_columns=columns[:4 - u_dim], u_columns=columns[4 - u_dim:],
                                    mc_draws=40, seed=5, target_ids=targets)
        results = []
        for budget in (2 ** 13, 2 ** 15, 2 ** 16, 97):
            monkeypatch.setattr(risk, "_BLOCK_ELEMS", budget)
            report = risk_report(masked, truth, scenario)
            results.append([match_probabilities(masked, truth, scenario), report.max_prob, report.m,
                            report.correct_in_argmax, report.prob_correct,
                            np.float64(report.expected_correct_rate), np.array(report.degenerate)])
        for other in results[1:]:
            for got, want in zip(other, results[0]):
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("standardize", [True, False])
    def test_no_sought_columns_scores_available_columns_alone(self, standardize):
        rng = np.random.default_rng(21)
        masked = make_dataset(x=rng.normal(0, 1, 25), y=rng.poisson(3.0, 25))
        truth = make_dataset(x=rng.normal(0, 1, 25), y=rng.poisson(3.0, 25))
        scenario = IntruderScenario(ap_columns=("x", "y"), u_columns=(), standardize=standardize)
        released = np.column_stack([masked.x[:, 0], masked.y])
        held = np.column_stack([truth.x[:, 0], truth.y])
        if standardize:
            sd = released.std(axis=0)
            sd = np.where(sd > 0.0, sd, 1.0)
            released, held = released / sd, held / sd
        n, total = len(released), 0.0
        probs = match_probabilities(masked, truth, scenario)
        for t in range(n):
            d = np.sqrt(((released - held[t]) ** 2).sum(axis=1))
            prod = (1.0 - d / d.max()) * np.ones(n) / n
            p = prod / prod.sum()
            assert np.array_equal(probs[t], p)
            sel = p >= p.max() * (1.0 - 1e-9)
            total += sel[t] / sel.sum()
        assert expected_correct_rate(masked, truth, scenario) == total / n

    def test_truth_must_cover_released_ids(self):
        data = make_dataset(x=[1.0, 2.0], y=[3.0, 4.0])
        truth = make_dataset(x=[1.0], y=[3.0], ids=("zzz",))
        with pytest.raises(ValueError, match="lacks released record ids"):
            expected_correct_rate(data, truth, IntruderScenario(ap_columns=("x", "y")))


class TestMaskedRiskOrdering:
    def test_stronger_masking_not_more_disclosive(self):
        # informed-kernel release should be easier to match than heavily
        # euclidean-smoothed release on the radial exposure field
        from smoothmask.kernels import EuclideanKernel, RingKernel
        from smoothmask.masking import mask_dataset
        from smoothmask.sim import RadialExposure, sample_locations, simulate_outcomes

        locs = sample_locations(150, seed=21)
        x = RadialExposure().values(locs)
        y = simulate_outcomes(x, -25.0, 4.0, seed=22)
        truth = SpatialDataset(ids=tuple(f"p{i}" for i in range(150)), locs=locs,
                               x=x[:, None], y=y, x_names=("x",))
        scenario = IntruderScenario(ap_columns=("x",), u_columns=("y",), mc_draws=60, seed=9)
        for lam in (0.05, 0.3):
            ring = mask_dataset(truth, RingKernel(), lam)
            euc = mask_dataset(truth, EuclideanKernel(), lam)
            r_ring = expected_correct_rate(ring, truth, scenario)
            r_euc = expected_correct_rate(euc, truth, scenario)
            assert 0.0 <= r_euc <= r_ring <= 1.0
