"""Exposure fields, outcome simulation, and the replicated study harness."""

from __future__ import annotations

import gc
import math
import weakref
from dataclasses import astuple

import numpy as np
import pytest

import smoothmask
from smoothmask import glm, sim
from smoothmask.dataset import Location, SpatialDataset, aggregate
from smoothmask.kernels import BlockRegion, EuclideanKernel, PointSource, RingKernel
from smoothmask.masking import build_operator
from smoothmask.risk import IntruderScenario, expected_correct_rate
from smoothmask.sim import (
    AGGREGATED,
    UNMASKED,
    BlockedExposure,
    DirectionalExposure,
    RadialExposure,
    SimConfig,
    config_from_json,
    default_lambda_grid,
    field_from_json,
    field_to_json,
    profile_csv_text,
    risk_utility_profile,
    run_study,
    sample_locations,
    simulate_outcomes,
    study_csv_text,
)


class TestSampleLocations:
    def test_bounds(self):
        locs = sample_locations(1000, seed=1)
        assert (locs >= -1.0).all() and (locs <= 1.0).all()

    def test_deterministic(self):
        np.testing.assert_array_equal(sample_locations(50, seed=3), sample_locations(50, seed=3))

    def test_uniform_moments(self):
        n = 4000
        locs = sample_locations(n, seed=5)
        tol = 4.0 / math.sqrt(12 * n)  # four sigma of the mean of U(-1, 1)
        assert abs(locs[:, 0].mean()) < tol * 2  # U(-1,1) sd is 2/sqrt(12)
        assert abs(locs[:, 1].mean()) < tol * 2


class TestExposureFields:
    def test_radial_at_source(self):
        assert RadialExposure().values(np.array([[0.0, 0.0]]))[0] == pytest.approx(7.0)

    def test_radial_at_scale_distance(self):
        # squared radius equal to the decay scale gives amplitude / e
        s = np.array([[math.sqrt(2.5), 0.0]])
        assert RadialExposure().values(s)[0] == pytest.approx(7.0 * math.exp(-1.0), rel=1e-12)

    def test_blocked_location_is_zero(self):
        field = BlockedExposure()
        assert field.values(np.array([[0.9, 0.0]]))[0] == 0.0      # blocked wedge
        assert field.values(np.array([[-0.5, 0.0]]))[0] > 0.0      # unblocked

    def test_directional_formula(self):
        field = DirectionalExposure()
        s = np.array([[0.5, 0.0]])  # aligned with the default +x direction
        want = 7.0 * math.exp(-0.25 / 6.0 - 1.0 / 3.0)
        assert field.values(s)[0] == pytest.approx(want, rel=1e-12)

    def test_field_json_round_trip(self):
        fields = (
            RadialExposure(source=PointSource(loc=Location(0.1, 0.2))),
            DirectionalExposure(radial_scale=5.0),
            BlockedExposure(region=BlockRegion(threshold_x=0.3)),
        )
        for f in fields:
            assert field_from_json(field_to_json(f)) == f


class TestSimulateOutcomes:
    def test_constant_rate(self):
        n = 4000
        mu = 1.2
        y = simulate_outcomes(np.zeros(n), mu=mu, beta=0.7, seed=9)
        mean = math.exp(mu)
        assert abs(y.mean() - mean) < 4.0 * math.sqrt(mean / n)

    def test_mean_at_peak_exposure(self):
        # mu=-25, beta=4 at x=7 gives mean e^3
        y = simulate_outcomes(np.full(20000, 7.0), mu=-25.0, beta=4.0, seed=11)
        want = math.exp(3.0)
        assert y.mean() == pytest.approx(want, abs=4.0 * math.sqrt(want / 20000))

    def test_deterministic(self):
        x = np.linspace(0, 7, 100)
        np.testing.assert_array_equal(
            simulate_outcomes(x, -25.0, 4.0, seed=13),
            simulate_outcomes(x, -25.0, 4.0, seed=13),
        )

    def test_overflow_names_record(self):
        x = np.array([1.0, 2.0, 500.0])
        with pytest.raises(ValueError, match="record 2"):
            simulate_outcomes(x, 0.0, 1.0, seed=1)


class TestDefaultLambdaGrid:
    def test_twenty_values_on_unit_range_including_half(self):
        grid = default_lambda_grid()
        assert len(grid) == 20
        assert grid[0] == pytest.approx(0.01)
        assert grid[-1] == pytest.approx(1.0)
        assert 0.5 in grid
        assert all(a < b for a, b in zip(grid, grid[1:]))


def small_config(**overrides) -> SimConfig:
    base = dict(
        field=RadialExposure(),
        kernels=(("ring", RingKernel()), ("euclidean", EuclideanKernel())),
        mu=-25.0,
        beta=4.0,
        n_locations=60,
        replicates=12,
        lambdas=(1e-6, 0.1, 0.5),
        seed=7,
        scenario=IntruderScenario(ap_columns=("x",), u_columns=("y",), mc_draws=20, seed=2),
    )
    base.update(overrides)
    return SimConfig(**base)


@pytest.fixture(scope="module")
def study():
    return run_study(small_config())


class TestRunStudy:
    def test_row_inventory(self, study):
        kernels = {r.kernel for r in study.rows}
        assert kernels == {UNMASKED, AGGREGATED, "ring", "euclidean"}
        assert len(study.rows) == 2 + 2 * 3

    def test_tiny_lambda_matches_unmasked_baseline(self, study):
        base = study.row(UNMASKED)
        for kernel in ("ring", "euclidean"):
            cell = study.row(kernel, 1e-6)
            slack = 2.0 * base.empirical_sd / math.sqrt(12)
            assert abs(cell.mean_estimate - base.mean_estimate) <= max(slack, 1e-9)

    def test_mse_decomposition_identity(self, study):
        for r in study.rows:
            assert r.mse == r.bias ** 2 + r.mean_naive_var

    def test_unmasked_row_uses_unmasked_width(self, study):
        base = study.row(UNMASKED)
        assert base.lam == 0.0
        assert math.isfinite(base.width_ratio) and base.width_ratio > 0

    def test_risk_in_unit_interval(self, study):
        for r in study.rows:
            if r.risk is not None:
                assert 0.0 <= r.risk <= 1.0
        assert study.row(AGGREGATED).risk is None

    def test_determinism(self, study):
        again = run_study(small_config())
        assert again.rows == study.rows

    def test_csv_shapes(self, study):
        text = study_csv_text(study)
        lines = text.strip().splitlines()
        assert lines[0].startswith("# study ")
        assert lines[1].split(",")[0] == "kernel"
        assert len(lines) == 2 + len(study.rows)

    def test_profile_alignment(self, study):
        prof = risk_utility_profile(study)
        assert len(prof) == 2 * 3
        for row in prof:
            cell = study.row(row.kernel, row.lam)
            assert row.mse == cell.mse and row.risk == cell.risk
        text = profile_csv_text(prof)
        assert text.splitlines()[0] == "kernel,lam,mse,risk"

    def test_exclusion_metadata(self, study):
        assert UNMASKED in study.metadata["exclusions"]
        assert study.metadata["risk_note"]

    def test_metadata_version_is_the_package_version(self, study):
        assert study.metadata["version"] == smoothmask.__version__

    def test_level_whose_quantile_is_infinite_gives_infinite_width_ratios(self):
        # 0.5 * (1 + ci_level) rounds to 1, so every naive interval is infinite
        res = run_study(small_config(lambdas=(0.3,), replicates=4, scenario=None,
                                     ci_level=0.9999999999999999))
        assert [r.width_ratio for r in res.rows] == [math.inf] * 4
        assert {line.split(",")[10] for line in study_csv_text(res).splitlines()[2:]} == {"inf"}

    def test_all_failed_rows(self, monkeypatch):
        # one IRLS iteration never converges, so every row has no estimate left
        monkeypatch.setattr(glm, "_MAX_ITER", 1)
        res = run_study(small_config(lambdas=(0.3,), replicates=3))
        summaries = ("mean_estimate", "empirical_sd", "mean_naive_se", "mean_naive_var",
                     "bias", "mse", "pct_lo", "pct_hi", "width_ratio")
        assert len(res.rows) == 4
        for r in res.rows:
            assert r.n_failed == 3 and r.valid is False
            assert all(math.isnan(getattr(r, name)) for name in summaries)
        assert res.row("ring", 0.3).risk is not None and res.row(AGGREGATED).risk is None
        lines = study_csv_text(res).splitlines()
        header = lines[1].split(",")
        for line in lines[2:]:
            cells = dict(zip(header, line.split(",")))
            assert [cells[name] for name in summaries] == ["nan"] * len(summaries)
            assert (cells["n_failed"], cells["valid"]) == ("3", "0")

    def test_single_lambda_single_row_per_kernel(self):
        res = run_study(small_config(lambdas=(0.3,), replicates=3, scenario=None))
        assert len(risk_utility_profile(res)) == 2


class TestSimConfigValidation:
    def test_positive_lambdas_required(self):
        with pytest.raises(ValueError, match="positive"):
            small_config(lambdas=(0.0, 0.1))

    def test_repeated_lambda_rejected(self):
        # 0.10000000000000001 is the same float as 0.1
        with pytest.raises(ValueError, match="^lambda 0.1 is listed twice in lambdas$"):
            small_config(lambdas=(0.1, 0.5, 0.10000000000000001))

    def test_reserved_kernel_names(self):
        with pytest.raises(ValueError, match="reserved"):
            small_config(kernels=((UNMASKED, EuclideanKernel()),))

    def test_config_json_round_trip(self):
        obj = {
            "field": {"type": "radial"},
            "kernels": {"ring": {"family": "ring"}, "euclidean": {"family": "euclidean"}},
            "mu": -25.0,
            "beta": 4.0,
            "n_locations": 60,
            "replicates": 5,
            "lambdas": [0.1, 0.5],
            "seed": 3,
            "scenario": {"ap_columns": ["x"], "u_columns": ["y"], "mc_draws": 10, "seed": 1},
        }
        cfg = config_from_json(obj)
        assert cfg.replicates == 5
        assert cfg.kernels[0][0] == "ring"
        assert cfg.scenario.mc_draws == 10
        res = run_study(cfg)
        assert len(res.rows) == 2 + 2 * 2

    def test_default_grid_when_lambdas_omitted(self):
        obj = {
            "field": {"type": "radial"},
            "kernels": {"euclidean": {"family": "euclidean"}},
            "mu": -25.0, "beta": 4.0,
        }
        cfg = config_from_json(obj)
        assert cfg.lambdas == default_lambda_grid()


class TestStreamedCells:
    def test_one_operator_alive_at_a_time(self, monkeypatch):
        built = []

        def tracked(*args, **kwargs):
            gc.collect()
            assert all(ref() is None for ref in built), "an earlier operator is still alive"
            op = build_operator(*args, **kwargs)
            built.append(weakref.ref(op))
            return op

        monkeypatch.setattr(sim, "build_operator", tracked)
        run_study(small_config(replicates=3))
        assert len(built) == 2 * 3

    def test_scenario_target_ids_reach_risk(self, monkeypatch):
        obj = {
            "field": {"type": "radial"},
            "kernels": {"ring": {"family": "ring"}},
            "mu": -25.0, "beta": 4.0,
            "n_locations": 40, "replicates": 2, "lambdas": [0.1, 0.5],
            "scenario": {"ap_columns": ["x"], "u_columns": ["y"], "mc_draws": 5,
                         "target_ids": ["p000000", "p000003"]},
        }
        cfg = config_from_json(obj)
        assert cfg.scenario.target_ids == ("p000000", "p000003")
        seen = []

        def spy(masked, truth, scenario):
            seen.append(scenario.target_ids)
            return expected_correct_rate(masked, truth, scenario)

        monkeypatch.setattr(sim, "expected_correct_rate", spy)
        run_study(cfg)
        assert seen == [("p000000", "p000003")] * (1 + 2)


def _study_data(cfg: SimConfig) -> tuple[SpatialDataset, list[np.ndarray]]:
    """The unmasked first-replicate release and every replicate's outcomes, drawn
    as run_study draws them."""
    locs = sample_locations(cfg.n_locations, [cfg.seed, 0], cfg.bounds)
    x = cfg.field.values(locs)
    ys = [simulate_outcomes(x, cfg.mu, cfg.beta, seed=[cfg.seed, 1, r])
          for r in range(cfg.replicates)]
    truth = SpatialDataset(ids=sim._study_ids(cfg.n_locations), locs=locs, x=x[:, None],
                           y=ys[0], x_names=("x",))
    return truth, ys


class TestReleases:
    """Each row is scored on the release the package makes of the study data."""

    @pytest.mark.parametrize("overrides", [
        {},
        dict(field=DirectionalExposure(), mu=-36.0, grid_nx=3, grid_ny=4, lambdas=(0.3,),
             replicates=30, scenario=None),
    ], ids=["radial_7x7", "directional_3x4"])
    def test_aggregated_row_is_the_row_of_aggregating_each_replicate(self, overrides):
        cfg = small_config(**overrides)
        truth, ys = _study_data(cfg)
        model = glm.ModelSpec(family="poisson-log", regressors=("x",), intercept=True)
        fits = []
        for y in ys:
            agg = aggregate(truth.replace_values(y=y), cfg.grid())
            fits.append(glm.fit(model, agg.x, agg.y, offset=np.log(agg.n)))
        want = sim._study_row(AGGREGATED, None, None, fits, cfg.beta,
                              glm._critical_value(cfg.ci_level), 0.5 * (1.0 - cfg.ci_level))
        got = run_study(cfg).row(AGGREGATED)
        # repr round-trips a float, so equal reprs are equal bits
        assert list(map(repr, astuple(got))) == list(map(repr, astuple(want)))

    def test_aggregate_runs_once_per_study(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return aggregate(*args)

        monkeypatch.setattr(sim, "aggregate", counted)
        run_study(small_config(replicates=5, lambdas=(0.3,)))
        assert len(calls) == 1

    def test_cell_risk_is_the_risk_of_the_operators_release(self, study):
        cfg = small_config()
        truth, _ = _study_data(cfg)
        for name, kernel in cfg.kernels:
            for lam in cfg.lambdas:
                released = build_operator(truth.locs, kernel, lam).apply(truth)
                want = expected_correct_rate(released, truth, cfg.scenario)
                assert study.row(name, lam).risk == want, (name, lam)
