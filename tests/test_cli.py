"""Command-line surface: every subcommand on toy data, exit codes, determinism."""

from __future__ import annotations

import contextlib
import copy
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothmask import cli
from smoothmask.cli import main
from smoothmask.dataset import CsvSchema, Location, load_csv, write_csv
from smoothmask.glm import ModelSpec
from smoothmask.kernels import (
    BivariateNormalKernel,
    BlockRegion,
    EuclideanKernel,
    PointSource,
    RingAngleKernel,
    RingBlockKernel,
    RingKernel,
    kernel_from_json,
)
from smoothmask.risk import IntruderScenario, risk_report, scenario_from_json
from smoothmask.sim import (
    BlockedExposure,
    DirectionalExposure,
    RadialExposure,
    SimConfig,
    config_from_json,
    default_lambda_grid,
    sample_locations,
    simulate_outcomes,
)

@pytest.fixture
def toy(tmp_path):
    """Toy dataset CSV plus config files for each subcommand."""
    n = 40
    locs = sample_locations(n, seed=31)
    x = RadialExposure().values(locs)
    y = simulate_outcomes(x, -25.0, 4.0, seed=32)
    from smoothmask.dataset import SpatialDataset

    data = SpatialDataset(ids=tuple(f"p{i}" for i in range(n)), locs=locs,
                          x=x[:, None], y=y, x_names=("x1",))
    data_csv = tmp_path / "data.csv"
    write_csv(data, data_csv)

    kernel_json = tmp_path / "kernel.json"
    kernel_json.write_text(json.dumps({"family": "euclidean", "params": {}}))
    ring_json = tmp_path / "ring.json"
    ring_json.write_text(json.dumps({"family": "ring", "params": {}}))

    model_json = tmp_path / "model.json"
    model_json.write_text(json.dumps({
        "schema_version": 1, "family": "poisson-log",
        "regressors": ["x1"], "intercept": True,
    }))
    scenario_json = tmp_path / "scenario.json"
    scenario_json.write_text(json.dumps({
        "schema_version": 1, "ap_columns": ["x1"], "u_columns": ["y"],
        "mc_draws": 20, "seed": 4,
    }))
    sim_json = tmp_path / "sim.json"
    sim_json.write_text(json.dumps({
        "schema_version": 1,
        "field": {"type": "radial"},
        "kernels": {"ring": {"family": "ring"}, "euclidean": {"family": "euclidean"}},
        "mu": -25.0, "beta": 4.0,
        "n_locations": 50, "replicates": 6, "lambdas": [0.1, 0.5], "seed": 5,
        "scenario": {"ap_columns": ["x"], "u_columns": ["y"], "mc_draws": 15, "seed": 2},
    }))
    return {
        "dir": tmp_path, "data": data_csv, "kernel": kernel_json, "ring": ring_json,
        "model": model_json, "scenario": scenario_json, "sim": sim_json, "dataset": data,
    }


class TestMask:
    def test_identity_masking_round_trips_values(self, toy, tmp_path):
        out = tmp_path / "masked.csv"
        rc = main(["mask", "--in", str(toy["data"]), "--kernel", str(toy["kernel"]),
                   "--lambda", "0", "--out", str(out)])
        assert rc == 0
        masked = load_csv(out)
        np.testing.assert_array_equal(masked.y, toy["dataset"].y)
        np.testing.assert_array_equal(masked.x, toy["dataset"].x)
        assert out.read_text().startswith("# masked: ")

    def test_operator_export_is_row_stochastic(self, toy, tmp_path):
        out = tmp_path / "masked.csv"
        op_csv = tmp_path / "operator.csv"
        rc = main(["mask", "--in", str(toy["data"]), "--kernel", str(toy["kernel"]),
                   "--lambda", "0.3", "--out", str(out), "--export-operator", str(op_csv)])
        assert rc == 0
        rows = op_csv.read_text().strip().splitlines()[1:]
        sums = [sum(float(v) for v in line.split(",")) for line in rows]
        assert max(abs(s - 1.0) for s in sums) < 1e-12

    def test_masked_values_are_convex_combinations(self, toy, tmp_path):
        out = tmp_path / "masked.csv"
        main(["mask", "--in", str(toy["data"]), "--kernel", str(toy["kernel"]),
              "--lambda", "0.4", "--out", str(out)])
        masked = load_csv(out)
        orig = toy["dataset"]
        assert masked.y.min() >= orig.y.min() - 1e-12
        assert masked.y.max() <= orig.y.max() + 1e-12

    def test_two_step_masking(self, toy, tmp_path):
        out = tmp_path / "cells.csv"
        rc = main(["mask", "--in", str(toy["data"]), "--kernel", str(toy["kernel"]),
                   "--lambda", "0.2", "--out", str(out), "--grid-nx", "3", "--grid-ny", "3"])
        assert rc == 0
        cells = load_csv(out, CsvSchema(n_col="n"))
        assert cells.n_records <= 9
        assert cells.ids[0].startswith("cell_")

    @pytest.mark.parametrize("column, value, rows", [
        ("s1", 0.5, [(0.5, 0.1), (0.5, 0.7), (0.5, 0.3)]),
        ("s2", -2.0, [(0.1, -2.0), (0.9, -2.0), (0.4, -2.0)]),
    ], ids=["s1", "s2"])
    def test_two_step_on_a_flat_coordinate_exit_1(self, toy, tmp_path, capsys, column, value,
                                                   rows):
        data = tmp_path / "flat.csv"
        data.write_text("id,s1,s2,x1,y\n" + "".join(
            f"r{i},{a},{b},{i},{2 * i}\n" for i, (a, b) in enumerate(rows)))
        out = tmp_path / "cells.csv"
        rc = main(["mask", "--in", str(data), "--kernel", str(toy["kernel"]),
                   "--lambda", "0.2", "--out", str(out), "--grid-nx", "2", "--grid-ny", "2"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "smoothmask: two-step masking needs records spread over both coordinates; "
            f"every {column!r} value is {value!r}\n")
        assert not out.exists()

    def test_two_step_with_an_overflowing_span_exit_1(self, toy, tmp_path, capsys):
        data = tmp_path / "wide.csv"
        data.write_text("id,s1,s2,x1,y\nr0,-1e308,0.2,0.5,3\nr1,1e308,0.4,1.5,8\nr2,0.3,0.9,1.0,5\n")
        out = tmp_path / "cells.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["mask", "--in", str(data), "--kernel", str(toy["kernel"]), "--lambda",
                       "0.2", "--out", str(out), "--grid-nx", "2", "--grid-ny", "2"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "smoothmask: two-step masking: grid spans xmax - xmin and ymax - ymin must be "
            "finite, got [-1e+308, 1e+308] x [0.2, 0.9]\n")
        assert not out.exists()

    @pytest.mark.parametrize("var, limit", [(1e-170, "identity"), (1e300, "uniform")])
    def test_bivariate_normal_at_extreme_variances(self, tmp_path, var, limit):
        # the 2x2 determinant underflows (1e-170) or its off-diagonal overflows (1e300)
        data = tmp_path / "data.csv"
        data.write_text("id,s1,s2,x1,y\nr0,0.1,0.2,0.5,3\nr1,0.7,0.4,1.5,8\nr2,0.3,0.9,1.0,5\n")
        kernel = tmp_path / "kernel.json"
        kernel.write_text(json.dumps({"family": "bivariate_normal",
                                      "params": {"var1": var, "var2": var, "rho": 0.5}}))
        out = tmp_path / "masked.csv"
        rc = main(["mask", "--in", str(data), "--kernel", str(kernel), "--lambda", "0.5",
                   "--out", str(out)])
        assert rc == 0
        orig, masked = load_csv(data), load_csv(out)
        if limit == "identity":
            assert np.array_equal(masked.x, orig.x) and np.array_equal(masked.y, orig.y)
        else:
            np.testing.assert_allclose(masked.x, np.full((3, 1), orig.x.mean()), rtol=1e-15)
            np.testing.assert_allclose(masked.y, np.full(3, orig.y.mean()), rtol=1e-15)

    def test_missing_input_exit_1(self, toy, tmp_path):
        rc = main(["mask", "--in", str(tmp_path / "nope.csv"), "--kernel", str(toy["kernel"]),
                   "--lambda", "0.1", "--out", str(tmp_path / "m.csv")])
        assert rc == 1
        assert not (tmp_path / "m.csv").exists()

    def test_unknown_flag_exit_1(self, toy, tmp_path):
        rc = main(["mask", "--in", str(toy["data"]), "--wat", "1"])
        assert rc == 1

    def test_rejected_count_weight_exit_1_naming_the_file(self, toy, tmp_path, capsys):
        data = tmp_path / "counts.csv"
        data.write_text("id,s1,s2,x1,y,n\na,0,0,1,2,0\nb,0.5,0.1,2,3,4\n")
        out = tmp_path / "m.csv"
        rc = main(["mask", "--in", str(data), "--kernel", str(toy["kernel"]), "--lambda", "0.1",
                   "--n-col", "n", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (f"smoothmask: {data}: count weights must be "
                                           "finite and positive\n")
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--lambda", "nan")])
    def test_bad_flag_value_exit_1(self, toy, tmp_path, capsys, flag, value):
        out = tmp_path / "m.csv"
        rc = main(["mask", "--in", str(toy["data"]), "--kernel", str(toy["kernel"]),
                   "--out", str(out), flag, value])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"smoothmask: {flag} must be a finite number >= 0")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("export", ["{out}", "./{out}", "{dir}/../{dir_name}/{out}"],
                             ids=["same", "dot_slash", "parent_detour"])
    def test_out_and_export_operator_one_file_exit_1(self, toy, tmp_path, capsys, monkeypatch,
                                                      export):
        # both writers would share one output, and the operator would replace the release
        def no_operator(*args):
            raise AssertionError("operator built before the output paths were checked")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "build_operator", no_operator)
        export = export.format(out="m.csv", dir=tmp_path, dir_name=tmp_path.name)
        rc = main(["mask", "--in", str(toy["data"]), "--kernel", str(toy["kernel"]),
                   "--lambda", "0.3", "--out", "m.csv", "--export-operator", export])
        assert rc == 1
        assert capsys.readouterr().err == ("smoothmask: --out and --export-operator name "
                                           "the same file: m.csv\n")
        assert not (tmp_path / "m.csv").exists()
        assert not list(tmp_path.glob("*.tmp"))

    @pytest.mark.parametrize("extra, flags", [
        ([], "--n-col"),
        (["--export-operator", "op.csv"], "--export-operator and --n-col"),
    ], ids=["n_col", "n_col_and_export_operator"])
    def test_two_step_with_count_weights_exit_1(self, toy, tmp_path, capsys, monkeypatch,
                                                 extra, flags):
        # aggregation would make each cell's n its record count and x1 an unweighted mean
        monkeypatch.chdir(tmp_path)
        data = tmp_path / "counts.csv"
        data.write_text("id,s1,s2,x1,y,n\nr0,0.1,0.2,0.5,3,100\nr1,0.7,0.4,1.5,8,200\n"
                        "r2,0.3,0.9,1.0,5,50\nr3,0.6,0.8,2.0,1,10\n")
        rc = main(["mask", "--in", str(data), "--kernel", str(toy["kernel"]), "--lambda", "0.2",
                   "--out", "cells.csv", "--n-col", "n", "--grid-nx", "1", "--grid-ny", "1",
                   *extra])
        assert rc == 1
        assert capsys.readouterr().err == (f"smoothmask: {flags} cannot be used with two-step "
                                           "masking (--grid-nx/--grid-ny)\n")
        assert not (tmp_path / "cells.csv").exists() and not (tmp_path / "op.csv").exists()


    @pytest.mark.parametrize("missing", ["--out", "--export-operator"])
    def test_output_into_missing_directory_exit_1_nothing_written(self, toy, tmp_path,
                                                                   capsys, missing):
        paths = {"--out": tmp_path / "m.csv", "--export-operator": tmp_path / "op.csv"}
        paths[missing] = tmp_path / "nodir" / paths[missing].name
        rc = main(["mask", "--in", str(toy["data"]), "--kernel", str(toy["kernel"]),
                   "--lambda", "0.3", *(a for kv in paths.items() for a in map(str, kv))])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == (f"smoothmask: {missing} {paths[missing]}: "
                       f"{tmp_path / 'nodir'} is not a directory\n")
        assert not any(p.exists() for p in paths.values())
        assert not list(tmp_path.glob("*.tmp"))

    def test_failed_operator_write_leaves_neither_output(self, toy, tmp_path, capsys,
                                                         monkeypatch):
        def disk_full(op, path):
            path.write_text("a_0,a_1\n0.5,")
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "operator_to_csv", disk_full)
        out, op_csv = tmp_path / "m.csv", tmp_path / "op.csv"
        rc = main(["mask", "--in", str(toy["data"]), "--kernel", str(toy["kernel"]),
                   "--lambda", "0.3", "--out", str(out), "--export-operator", str(op_csv)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"smoothmask: cannot write {op_csv}: No space left on device\n")
        assert not out.exists() and not op_csv.exists()
        assert not list(tmp_path.glob("*.tmp"))


class TestFit:
    def test_fit_report_fields(self, toy, tmp_path):
        out = tmp_path / "fit.json"
        rc = main(["fit", "--in", str(toy["data"]), "--model", str(toy["model"]),
                   "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["converged"] is True
        assert set(report["coefficients"]) == {"intercept", "x1"}
        assert report["ci"]["x1"][0] < report["coefficients"]["x1"] < report["ci"]["x1"][1]
        assert report["iterations"] >= 1

    def test_collinear_design_exit_2(self, toy, tmp_path):
        # duplicate the regressor column under a second name
        data = toy["dataset"]
        from smoothmask.dataset import SpatialDataset

        dup = SpatialDataset(ids=data.ids, locs=data.locs,
                             x=np.column_stack([data.x[:, 0], data.x[:, 0]]),
                             y=data.y, x_names=("x1", "x1b"))
        path = toy["dir"] / "dup.csv"
        write_csv(dup, path)
        model = toy["dir"] / "model2.json"
        model.write_text(json.dumps({"family": "poisson-log", "regressors": ["x1", "x1b"]}))
        rc = main(["fit", "--in", str(path), "--model", str(model),
                   "--out", str(toy["dir"] / "f.json")])
        assert rc == 2
        assert not (toy["dir"] / "f.json").exists()

    def test_non_finite_report_exit_2(self, tmp_path, capsys):
        # a gaussian fit to outcomes near +-1e200 has an infinite deviance and
        # infinite standard errors, which strict JSON cannot hold
        data = tmp_path / "huge.csv"
        data.write_text("id,s1,s2,x1,y\n" + "".join(
            f"r{i},{i / 10},{i / 20},{0.3 * i * (-1) ** (i // 3)},{(-1) ** i * 1e200 * (1 + i / 10)}\n"
            for i in range(10)))
        model = tmp_path / "gaussian.json"
        model.write_text(json.dumps({"family": "gaussian-identity", "regressors": ["x1"]}))
        rc = main(["fit", "--in", str(data), "--model", str(model),
                   "--out", str(tmp_path / "fit.json")])
        assert rc == 2
        assert capsys.readouterr().err == ("smoothmask: computation failed: the report holds "
                                           "a non-finite value (NaN or infinity)\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["gaussian.json", "huge.csv"]

    def test_saturated_gaussian_fit_exit_2(self, tmp_path, capsys):
        # two records, two coefficients: no residual degree of freedom, NaN standard errors
        data = tmp_path / "two.csv"
        data.write_text("id,s1,s2,x1,y\nr0,0.1,0.2,0.5,3\nr1,0.7,0.4,1.5,8\n")
        model = tmp_path / "gaussian.json"
        model.write_text(json.dumps({"family": "gaussian-identity", "regressors": ["x1"]}))
        rc = main(["fit", "--in", str(data), "--model", str(model),
                   "--out", str(tmp_path / "fit.json")])
        assert rc == 2
        assert capsys.readouterr().err == ("smoothmask: computation failed: the report holds "
                                           "a non-finite value (NaN or infinity)\n")
        assert not (tmp_path / "fit.json").exists()

    def test_level_whose_quantile_is_infinite_exit_2(self, toy, tmp_path, capsys):
        # 0.5 * (1 + level) rounds to 1: the interval is infinite, not an error
        out = tmp_path / "fit.json"
        rc = main(["fit", "--in", str(toy["data"]), "--model", str(toy["model"]),
                   "--level", "0.9999999999999999", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == ("smoothmask: computation failed: the report holds "
                                           "a non-finite value (NaN or infinity)\n")
        assert not out.exists()

    @pytest.mark.parametrize("family, y, n, column, record, message", [
        ("poisson-log", [2, -1, 3, -4], None, "cases", "c1",
         "poisson outcomes must be nonnegative"),
        ("binomial-logit", [2, 1, 9, 12], [5, 5, 5, 5], "cases", "c2",
         "binomial outcomes must satisfy 0 <= y <= trials"),
        ("binomial-logit", [2, 1, 3, 0], [5, 5, 0, -1], "n", "c2",
         "trial counts must be positive"),
    ], ids=["negative_poisson", "above_trials", "trials_not_positive"])
    def test_out_of_range_data_exit_1_naming_file_column_and_record(
            self, tmp_path, capsys, family, y, n, column, record, message):
        data = tmp_path / "cells.csv"
        data.write_text("id,s1,s2,x1,cases" + ("" if n is None else ",n") + "\n" + "".join(
            f"c{i},{i / 10},{i / 5},{i / 4},{y[i]}" + ("" if n is None else f",{n[i]}") + "\n"
            for i in range(4)))
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"family": family, "regressors": ["x1"]}
                                    | ({} if n is None else {"trials_col": "n"})))
        out = tmp_path / "fit.json"
        rc = main(["fit", "--in", str(data), "--model", str(model), "--out", str(out),
                   "--y-col", "cases"])
        assert rc == 1
        assert capsys.readouterr().err == (f"smoothmask: data file {data}, column '{column}', "
                                           f"record '{record}': {message}\n")
        assert not out.exists()

    def test_malformed_model_json_exit_1(self, toy, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["fit", "--in", str(toy["data"]), "--model", str(bad),
                   "--out", str(tmp_path / "f.json")])
        assert rc == 1

    @pytest.mark.parametrize("model", [
        {"family": "poisson-log", "regressors": 5},
        [1],
    ], ids=["regressors_int", "not_an_object"])
    def test_malformed_model_config_exit_1(self, toy, tmp_path, capsys, model):
        path = tmp_path / "bad_model.json"
        path.write_text(json.dumps(model))
        out = tmp_path / "f.json"
        rc = main(["fit", "--in", str(toy["data"]), "--model", str(path), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"smoothmask: bad model config {path}: ")
        assert err.count("\n") == 1
        assert not out.exists()


class TestRisk:
    def test_risk_report_fields(self, toy, tmp_path):
        masked_csv = tmp_path / "masked.csv"
        main(["mask", "--in", str(toy["data"]), "--kernel", str(toy["ring"]),
              "--lambda", "0.2", "--out", str(masked_csv)])
        out = tmp_path / "risk.json"
        rc = main(["risk", "--masked", str(masked_csv), "--truth", str(toy["data"]),
                   "--scenario", str(toy["scenario"]), "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert 0.0 <= report["expected_correct_rate"] <= 1.0
        assert len(report["per_target"]) == 40
        assert "upper bound" in report["note"]

    def test_target_subset_per_target_in_scenario_order(self, toy, tmp_path):
        masked_csv = tmp_path / "masked.csv"
        main(["mask", "--in", str(toy["data"]), "--kernel", str(toy["ring"]),
              "--lambda", "0.2", "--out", str(masked_csv)])
        targets = ["p7", "p2", "p30"]
        scenario = tmp_path / "subset.json"
        scenario.write_text(json.dumps({"ap_columns": ["x1"], "u_columns": ["y"],
                                        "mc_draws": 20, "seed": 4, "target_ids": targets}))
        out = tmp_path / "risk.json"
        rc = main(["risk", "--masked", str(masked_csv), "--truth", str(toy["data"]),
                   "--scenario", str(scenario), "--out", str(out)])
        assert rc == 0
        per_target = json.loads(out.read_text())["per_target"]
        schema = CsvSchema(x_cols=("x1",))
        report = risk_report(load_csv(masked_csv, schema), load_csv(toy["data"], schema),
                             scenario_from_json(json.loads(scenario.read_text())))
        assert [t["id"] for t in per_target] == targets
        assert all(type(t["m"]) is int and type(t["correct_in_argmax"]) is bool
                   for t in per_target)
        assert [t["m"] for t in per_target] == report.m.tolist()
        assert [t["prob_correct"] for t in per_target] == report.prob_correct.tolist()
        assert [t["max_prob"] for t in per_target] == report.max_prob.tolist()

    def test_identity_masking_full_ap_rate_one(self, toy, tmp_path):
        scenario = tmp_path / "scen2.json"
        scenario.write_text(json.dumps({"ap_columns": ["x1", "y"], "u_columns": []}))
        out = tmp_path / "risk2.json"
        rc = main(["risk", "--masked", str(toy["data"]), "--truth", str(toy["data"]),
                   "--scenario", str(scenario), "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["expected_correct_rate"] == 1.0

    def _risk(self, toy, tmp_path, scenario):
        path = tmp_path / "scen.json"
        path.write_text(json.dumps(scenario))
        out = tmp_path / "risk.json"
        rc = main(["risk", "--masked", str(toy["data"]), "--truth", str(toy["data"]),
                   "--scenario", str(path), "--out", str(out)])
        assert not out.exists()
        return rc

    @pytest.mark.parametrize("scenario", [
        {"ap_columns": ["x1"], "u_columns": ["y"], "mc_draws": None},
        {"ap_columns": 5},
        [1, 2],
    ], ids=["mc_draws_null", "ap_columns_int", "not_an_object"])
    def test_malformed_scenario_exit_1(self, toy, tmp_path, capsys, scenario):
        assert self._risk(toy, tmp_path, scenario) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"smoothmask: bad scenario config {tmp_path / 'scen.json'}: ")
        assert err.count("\n") == 1

    def test_scenario_without_y_exit_1(self, toy, tmp_path, capsys):
        rc = self._risk(toy, tmp_path, {"ap_columns": ["x1"], "u_columns": []})
        assert rc == 1
        assert "must cover exactly the released columns" in capsys.readouterr().err

    def test_unreleased_target_id_exit_1(self, toy, tmp_path, capsys):
        rc = self._risk(toy, tmp_path, {"ap_columns": ["x1", "y"], "target_ids": ["p1", "zz"]})
        assert rc == 1
        assert "target ids not present in the released data: ['zz']" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario, message", [
        ({"ap_columns": ["x1"], "u_columns": []},
         "scenario columns ['x1'] must cover exactly the released columns ['x1', 'y']"),
        ({"ap_columns": ["x1", "y"], "target_ids": ["p1", "zz"]},
         "target ids not present in the released data: ['zz']"),
    ], ids=["columns", "target_ids"])
    def test_scenario_not_fitting_the_release_names_the_file(self, toy, tmp_path, capsys,
                                                            scenario, message):
        assert self._risk(toy, tmp_path, scenario) == 1
        err = capsys.readouterr().err
        assert err == f"smoothmask: bad scenario config {tmp_path / 'scen.json'}: {message}\n"

    @pytest.mark.parametrize("bad", ["masked", "truth"])
    def test_bad_cell_names_its_file(self, toy, tmp_path, capsys, bad):
        lines = toy["data"].read_text().splitlines(keepends=True)
        cells = lines[1].split(",")
        cells[3] = "abc"   # x1 of the first record, on line 2
        broken = tmp_path / f"{bad}.csv"
        broken.write_text("".join([lines[0], ",".join(cells), *lines[2:]]))
        files = {"masked": toy["data"], "truth": toy["data"], bad: broken}
        out = tmp_path / "risk.json"
        rc = main(["risk", "--masked", str(files["masked"]), "--truth", str(files["truth"]),
                   "--scenario", str(toy["scenario"]), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (f"smoothmask: {broken}: line 2: column 'x1' has "
                                           "non-numeric value 'abc'\n")
        assert not out.exists()

    def test_truth_lacking_released_ids_names_the_file(self, toy, tmp_path, capsys):
        from smoothmask.dataset import SpatialDataset

        data = toy["dataset"]
        truth = tmp_path / "truth.csv"
        write_csv(SpatialDataset(ids=data.ids[3:], locs=data.locs[3:], x=data.x[3:],
                                 y=data.y[3:], x_names=data.x_names), truth)
        out = tmp_path / "risk.json"
        rc = main(["risk", "--masked", str(toy["data"]), "--truth", str(truth),
                   "--scenario", str(toy["scenario"]), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (f"smoothmask: truth file {truth} lacks released "
                                           "record ids, e.g. ['p0', 'p1', 'p2']\n")
        assert not out.exists()


class TestBias:
    def test_bias_report(self, toy, tmp_path):
        out = tmp_path / "bias.json"
        rc = main(["bias", "--in", str(toy["data"]), "--kernel", str(toy["kernel"]),
                   "--family", "poisson-log", "--beta=-25,4", "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["beta_prime0"] == [0.0, 0.0]
        assert report["r0_max_abs"] == 0.0
        assert "total bias" in report["caveat"]

    def test_beta_from_fit_report(self, toy, tmp_path):
        fit_out = tmp_path / "fit.json"
        main(["fit", "--in", str(toy["data"]), "--model", str(toy["model"]),
              "--out", str(fit_out)])
        out = tmp_path / "bias2.json"
        rc = main(["bias", "--in", str(toy["data"]), "--kernel", str(toy["ring"]),
                   "--family", "poisson-log", "--beta-from", str(fit_out), "--out", str(out)])
        assert rc == 0

    def test_overflowing_link_reports_exact_zero_in_strict_json(self, tmp_path, capsys):
        data = tmp_path / "three.csv"
        data.write_text("id,s1,s2,x1,y\nr0,0.0,0.0,0.0,1\nr1,0.1,0.2,0.5,2\nr2,0.3,0.1,1.0,0\n")
        kernel = tmp_path / "euclidean.json"
        kernel.write_text(json.dumps({"family": "euclidean", "params": {}}))
        out = tmp_path / "bias.json"
        rc = main(["bias", "--in", str(data), "--kernel", str(kernel), "--beta=800,0",
                   "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().err == ""

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        report = json.loads(out.read_text(), parse_constant=reject)
        assert report["beta_prime0"] == [0.0, 0.0]

    def test_count_column_flag_not_accepted(self, toy, tmp_path, capsys):
        # the first-order bias reads no count weights
        out = tmp_path / "b.json"
        rc = main(["bias", "--in", str(toy["data"]), "--kernel", str(toy["kernel"]),
                   "--beta=-25,4", "--n-col", "x1", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == "smoothmask: unrecognized arguments: --n-col x1\n"
        assert not out.exists()

    def test_requires_beta(self, toy, tmp_path):
        rc = main(["bias", "--in", str(toy["data"]), "--kernel", str(toy["kernel"]),
                   "--out", str(tmp_path / "b.json")])
        assert rc == 1

    def test_unknown_kernel_family_exit_1(self, toy, tmp_path, capsys):
        kernel = tmp_path / "nope.json"
        kernel.write_text(json.dumps({"family": "nope"}))
        out = tmp_path / "b.json"
        rc = main(["bias", "--in", str(toy["data"]), "--kernel", str(kernel),
                   "--beta=-25,4", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"smoothmask: bad kernel config {kernel}: unknown kernel family 'nope'\n"
        assert not out.exists()


class TestFlagErrors:
    """A bad flag value exits 1 with one line naming the flag, before any output."""

    @pytest.mark.parametrize("sub, flags, message", [
        ("bias", ["--beta=abc"],
         "--beta must give 2 finite coefficients (intercept, x1), got ['abc']"),
        ("bias", ["--beta=1,nan"],
         "--beta must give 2 finite coefficients (intercept, x1), got ['1', 'nan']"),
        ("bias", ["--beta=1,2,3"],
         "--beta must give 2 finite coefficients (intercept, x1), got ['1', '2', '3']"),
        ("bias", ["--beta-from", "{dir}/list.json"],
         "the fit report's coefficients must be a JSON object"),
        ("bias", ["--beta-from", "{dir}/text_coef.json"],
         "--beta-from must give 2 finite coefficients (intercept, x1), got ['a', 1.0]"),
        ("fit", ["--level", "2"], "--level must lie in (0, 1), got 2.0"),
        ("fit", ["--level", "nan"], "--level must lie in (0, 1), got nan"),
        ("fit", ["--coord-cols", "s1"], "--coord-cols must name exactly two columns"),
        ("risk", ["--coord-cols", "s1"], "--coord-cols must name exactly two columns"),
        ("mask", ["--grid-nx", "-2", "--grid-ny", "3"],
         "--grid-nx must be a finite number >= 0, got -2"),
        ("mask", ["--grid-nx", "3", "--grid-ny", "3", "--export-operator", "{dir}/op.csv"],
         "--export-operator cannot be used with two-step masking (--grid-nx/--grid-ny)"),
        ("risk", ["--seed", "-1"], "--seed must be a non-negative integer, got -1"),
        ("risk", ["--scenario", "{dir}/negative_seed.json"],
         "negative_seed.json: seed must be a non-negative integer, got -1"),
        ("mask", ["--x-cols", "x1,x1"], "--x-cols: regressor column 'x1' is named twice"),
    ], ids=["beta_text", "beta_nan", "beta_too_long", "beta_from_list",
            "beta_from_text_coefficient", "level_2", "level_nan", "fit_one_coord",
            "risk_one_coord", "grid_nx_negative", "two_step_export_operator",
            "risk_seed_negative", "scenario_seed_negative", "mask_x_cols_repeated"])
    def test_exit_1_one_line_no_output(self, toy, tmp_path, capsys, sub, flags, message):
        (tmp_path / "list.json").write_text("[1, 2]")
        (tmp_path / "text_coef.json").write_text(
            json.dumps({"coefficients": {"intercept": "a", "x1": 1.0}}))
        (tmp_path / "negative_seed.json").write_text(
            json.dumps(json.loads(toy["scenario"].read_text()) | {"seed": -1}))
        inputs = {
            "mask": ["--in", toy["data"], "--kernel", toy["kernel"], "--lambda", "0.2"],
            "fit": ["--in", toy["data"], "--model", toy["model"]],
            "risk": ["--masked", toy["data"], "--truth", toy["data"],
                     "--scenario", toy["scenario"]],
            "bias": ["--in", toy["data"], "--kernel", toy["kernel"]],
        }[sub]
        out = tmp_path / "out.file"
        flags = [f.format(dir=tmp_path) for f in flags]
        rc = main([sub, *map(str, inputs), *flags, "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("smoothmask: ") and message in err
        assert err.count("\n") == 1
        assert not out.exists()
        assert not (tmp_path / "op.csv").exists()


class TestConfigValues:
    """Config values that crashed or were misread exit 1 naming the field."""

    @pytest.mark.parametrize("kernel, message", [
        ({"family": "ring", "params": {"source": {"loc": [0.5]}}},
         "source.loc must be a list of 2 numbers, got [0.5]"),
        ({"family": "ring", "params": {"source": {"direction": 1}}},
         "source.direction must be a list of 2 numbers, got 1"),
    ], ids=["loc_one_number", "direction_not_a_list"])
    def test_kernel_source_pairs(self, toy, tmp_path, capsys, kernel, message):
        path = tmp_path / "k.json"
        path.write_text(json.dumps(kernel))
        out = tmp_path / "m.csv"
        rc = main(["mask", "--in", str(toy["data"]), "--kernel", str(path),
                   "--lambda", "0.2", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"smoothmask: bad kernel config {path}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda cfg: cfg.update(field={"type": "radial", "source": {"loc": [1, 2, 3]}}),
         "source.loc must be a list of 2 numbers, got [1, 2, 3]"),
        (lambda cfg: cfg.update(bounds=[0, 1, 0]),
         "bounds must be a list of 4 numbers, got [0, 1, 0]"),
        (lambda cfg: cfg.update(bounds=[1, 0, 0, 1]),
         "grid bounds must satisfy xmin < xmax and ymin < ymax"),
        (lambda cfg: cfg.update(bounds=[0, float("inf"), 0, 1]),
         "bounds must be finite, got [0.0, inf, 0.0, 1.0]"),
        (lambda cfg: cfg.update(grid={"nx": 0, "ny": 3}),
         "grid must have at least one cell per axis"),
        (lambda cfg: cfg.update(grid={"nx": 1, "ny": 1}),
         "grid must have at least 2 cells, got nx=1, ny=1: the aggregated model fits an "
         "intercept and a slope"),
        (lambda cfg: cfg.update(n_locations=1),
         "n_locations must be at least 2, got 1: the model fits an intercept and a slope"),
        (lambda cfg: cfg["scenario"].update(standardize="false"),
         "standardize must be true or false, got 'false'"),
        (lambda cfg: cfg["scenario"].update(ap_columns="x"),
         "ap_columns must be a list of names, got 'x'"),
        (lambda cfg: cfg["scenario"].update(target_ids="p000001"),
         "target_ids must be a list of names, got 'p000001'"),
    ], ids=["field_loc_three_numbers", "bounds_three_numbers", "bounds_reversed",
            "bounds_infinite", "grid_nx_zero", "grid_one_cell", "one_location",
            "standardize_string", "ap_columns_string", "target_ids_string"])
    def test_study_config(self, toy, tmp_path, capsys, monkeypatch, edit, message):
        monkeypatch.setattr(cli, "run_study", lambda cfg: pytest.fail("study ran"))
        cfg = json.loads(toy["sim"].read_text())
        edit(cfg)
        path = tmp_path / "bad_sim.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "outC"
        rc = main(["simulate", "--config", str(path), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"smoothmask: bad study config {path}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("sub, field, value, message", [
        ("fit", "intercept", "false", "intercept must be true or false, got 'false'"),
        ("fit", "regressors", "x1", "regressors must be a list of names, got 'x1'"),
        ("fit", "log_offset_col", ["n"], "log_offset_col must be a column name, got ['n']"),
        ("risk", "u_columns", "y", "u_columns must be a list of names, got 'y'"),
        ("risk", "standardize", 0, "standardize must be true or false, got 0"),
        ("fit", "regressors", ["x1", "x1"], "regressor 'x1' is named twice"),
        ("risk", "target_ids", ["p1", "p1"], "target id 'p1' is listed twice"),
    ])
    def test_model_and_scenario(self, toy, tmp_path, capsys, sub, field, value, message):
        what, flag = {"fit": ("model", "--model"), "risk": ("scenario", "--scenario")}[sub]
        cfg = json.loads(toy[what].read_text()) | {field: value}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        inputs = {"fit": ["--in", toy["data"]],
                  "risk": ["--masked", toy["data"], "--truth", toy["data"]]}[sub]
        out = tmp_path / "out.json"
        rc = main([sub, *map(str, inputs), flag, str(path), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"smoothmask: bad {what} config {path}: {message}\n"
        assert not out.exists()


class TestOutputCheckedFirst:
    """A bad --out fails before any computation, for every single-file subcommand."""

    @pytest.mark.parametrize("sub, compute", [
        ("fit", "smoothmask.cli.fit"),
        ("risk", "smoothmask.cli.risk_report"),
        ("bias", "smoothmask.bias.first_order_bias"),
        ("profile", "smoothmask.cli._read_table"),
        ("plot", "smoothmask.cli._read_table"),
    ])
    def test_out_in_missing_directory_exit_1_before_computing(
            self, toy, study_dir, tmp_path, capsys, monkeypatch, sub, compute):
        monkeypatch.setattr(compute, lambda *a, **k: pytest.fail(f"{sub} computed"))
        inputs = {
            "fit": ["--in", toy["data"], "--model", toy["model"]],
            "risk": ["--masked", toy["data"], "--truth", toy["data"],
                     "--scenario", toy["scenario"]],
            "bias": ["--in", toy["data"], "--kernel", toy["kernel"], "--beta=-25,4"],
            "profile": ["--study", study_dir / "study.csv"],
            "plot": ["--in", study_dir / "study.csv", "--kind", "estimates"],
        }[sub]
        out = tmp_path / "nodir" / "out.json"
        rc = main([sub, *map(str, inputs), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"smoothmask: --out {out}: {tmp_path / 'nodir'} is not a directory\n")
        assert not out.exists()
        assert not list(tmp_path.rglob("*.tmp"))

    # a name longer than the limit, and names within it whose .tmp sibling is not
    @pytest.mark.parametrize("excess", [45, 0, -3],
                             ids=["name_over_max", "name_at_max", "name_under_max"])
    def test_overlong_out_name_exit_1(self, toy, tmp_path, capsys, monkeypatch, excess):
        monkeypatch.setattr("smoothmask.cli.fit", lambda *a, **k: pytest.fail("fit computed"))
        before = sorted(tmp_path.iterdir())
        out = tmp_path / ("f" * (os.pathconf(tmp_path, "PC_NAME_MAX") + excess))
        rc = main(["fit", "--in", str(toy["data"]), "--model", str(toy["model"]),
                   "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"smoothmask: --out {out}: File name too long\n"
        assert sorted(tmp_path.iterdir()) == before

    def test_overlong_simulate_out_exit_1(self, toy, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_study", lambda cfg: pytest.fail("study ran"))
        before = sorted(tmp_path.iterdir())
        out = tmp_path / ("d" * (os.pathconf(tmp_path, "PC_NAME_MAX") + 45)) / "x"
        rc = main(["simulate", "--config", str(toy["sim"]), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"smoothmask: --out {out}: File name too long\n"
        assert sorted(tmp_path.iterdir()) == before

    def test_overlong_out_name_exit_1_where_path_probes_answer_false(self, toy, tmp_path,
                                                                     capsys, monkeypatch):
        # as on a Python whose Path.exists and Path.is_dir answer False to any OSError
        monkeypatch.setattr(Path, "exists", lambda self: os.path.exists(self))
        monkeypatch.setattr(Path, "is_dir", lambda self: os.path.isdir(self))
        monkeypatch.setattr("smoothmask.cli.fit", lambda *a, **k: pytest.fail("fit computed"))
        monkeypatch.setattr(cli, "run_study", lambda cfg: pytest.fail("study ran"))
        name = "f" * (os.pathconf(tmp_path, "PC_NAME_MAX") + 45)
        for args, out in [(["fit", "--in", str(toy["data"]), "--model", str(toy["model"])],
                           tmp_path / name),
                          (["simulate", "--config", str(toy["sim"])], tmp_path / name / "x")]:
            assert main([*args, "--out", str(out)]) == 1
            assert capsys.readouterr().err == f"smoothmask: --out {out}: File name too long\n"

    def test_unwritable_temporary_is_a_usage_error(self, tmp_path):
        # the cleanup of a temporary that could never be made does not raise
        out = tmp_path / ("f" * (os.pathconf(tmp_path, "PC_NAME_MAX") - 3))
        with pytest.raises(cli.UsageError, match="^cannot write .*: File name too long$"):
            cli._write_outputs({out: "text"})
        assert not list(tmp_path.iterdir())


def _slow_modules_after(code: str) -> str:
    """The scipy modules, and numpy.ma, loaded once ``code`` has run in a fresh
    interpreter. numpy.ma is imported by the first np.percentile, or np.unique
    without return_inverse, and costs about 17 ms."""
    src = Path(cli.__file__).resolve().parents[1]
    code += ("\nprint(sorted(m for m in sys.modules"
             " if m.split('.')[0] == 'scipy' or m == 'numpy.ma'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=os.environ | {"PYTHONPATH": str(src)}, check=True)
    return proc.stdout


def test_import_does_not_load_scipy_stats():
    # no scipy module at all: scipy.stats, scipy.special, scipy.linalg and
    # scipy.spatial each cost tens of MB and most of a second of start-up
    assert _slow_modules_after("import sys, smoothmask") == "[]\n"


def test_import_does_not_load_statistics():
    # the normal quantile's module is imported at the first interval
    assert _slow_modules_after("import sys, smoothmask, smoothmask.cli\n"
                               "print('statistics' in sys.modules)") == "False\n[]\n"


def test_common_commands_do_not_load_scipy(tmp_path):
    """simulate, mask, risk with two sought columns and Poisson and binomial fits
    run on numpy alone, without numpy.ma; scipy is left to near-singular designs
    and three or more sought columns."""
    from smoothmask.dataset import SpatialDataset

    rng = np.random.default_rng(8)
    n = 60
    trials = rng.integers(20, 200, n).astype(float)
    x = np.column_stack([rng.normal(0.0, 1.0, n), rng.uniform(0.0, 1.0, n)])
    data = SpatialDataset(ids=tuple(f"p{i}" for i in range(n)), locs=rng.uniform(-1, 1, (n, 2)),
                          x=x, y=rng.binomial(trials.astype(int), 0.2).astype(float),
                          x_names=("x1", "x2"), n=trials)
    write_csv(data, tmp_path / "data.csv", schema=CsvSchema(x_cols=("x1", "x2"), n_col="n"))
    files = {
        "kernel.json": {"family": "euclidean"},
        "scenario.json": {"ap_columns": ["x1"], "u_columns": ["x2", "y"], "mc_draws": 10},
        "poisson.json": {"family": "poisson-log", "regressors": ["x1", "x2"]},
        "binomial.json": {"family": "binomial-logit", "regressors": ["x2"], "trials_col": "n"},
        "study.json": {"field": {"type": "radial"}, "kernels": {"ring": {"family": "ring"}},
                       "mu": -25.0, "beta": 4.0, "n_locations": 30, "replicates": 3,
                       "lambdas": [0.5],
                       "scenario": {"ap_columns": ["x"], "u_columns": ["y"], "mc_draws": 5}},
    }
    for name, obj in files.items():
        (tmp_path / name).write_text(json.dumps(obj))
    cols = ["--x-cols", "x1,x2", "--n-col", "n"]
    commands = [
        ["simulate", "--config", "study.json", "--out", "study"],
        ["mask", "--in", "data.csv", "--kernel", "kernel.json", "--lambda", "0.3",
         "--out", "masked.csv", *cols],
        ["risk", "--masked", "masked.csv", "--truth", "data.csv", "--scenario", "scenario.json",
         "--out", "risk.json"],
        ["fit", "--in", "data.csv", "--model", "poisson.json", "--out", "poisson_fit.json"],
        ["fit", "--in", "data.csv", "--model", "binomial.json", "--out", "binomial_fit.json"],
    ]
    code = (f"import os, sys\nos.chdir({str(tmp_path)!r})\nfrom smoothmask.cli import main\n"
            f"assert [main(c) for c in {commands!r}] == [0] * {len(commands)}")
    assert _slow_modules_after(code) == "[]\n"
    assert json.loads((tmp_path / "binomial_fit.json").read_text())["converged"] is True


def test_bootstrap_does_not_load_scipy_or_numpy_ma():
    code = ("import sys\nimport numpy as np\nfrom smoothmask import glm, kernels\n"
            "rng = np.random.default_rng(4)\nn = 40\nx = rng.normal(0.0, 1.0, (n, 1))\n"
            "y = 1.0 + x[:, 0] + rng.normal(0.0, 0.5, n)\n"
            "model = glm.ModelSpec('gaussian-identity', ('x',))\n"
            "glm.bootstrap_ci(model, x, y, statistic=1, b=20, seed=1)\n"
            "glm.bootstrap_ci(model, x, y, statistic=1, b=20, seed=1,\n"
            "                 locs=rng.uniform(-1, 1, (n, 2)),\n"
            "                 remask=(kernels.EuclideanKernel(), 0.3))")
    assert _slow_modules_after(code) == "[]\n"


class TestSimulateFailures:
    def _simulate(self, toy, tmp_path, edit):
        cfg = json.loads(toy["sim"].read_text())
        edit(cfg)
        path = tmp_path / "bad_sim.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "outC"
        rc = main(["simulate", "--config", str(path), "--out", str(out)])
        assert not out.exists()
        return rc

    @pytest.mark.parametrize("edit", [
        lambda cfg: cfg.pop("mu"),
        lambda cfg: cfg.update(lambdas=[-1]),
        lambda cfg: cfg.update(field=5),
    ], ids=["missing_mu", "negative_lambda", "field_not_an_object"])
    def test_malformed_config_exit_1(self, toy, tmp_path, capsys, edit):
        assert self._simulate(toy, tmp_path, edit) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"smoothmask: bad study config {tmp_path / 'bad_sim.json'}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("edit, message", [
        (lambda cfg: cfg.update(seed=-1), "seed must be a non-negative integer, got -1"),
        (lambda cfg: cfg["scenario"].update(seed=-1),
         "seed must be a non-negative integer, got -1"),
        (lambda cfg: cfg.update(mu=float("inf")), "mu must be a finite number, got inf"),
        (lambda cfg: cfg.update(beta=float("nan")), "beta must be a finite number, got nan"),
        (lambda cfg: cfg.update(mu=[1]), "mu must be a number, got [1]"),
        (lambda cfg: cfg.update(beta="4"), "beta must be a number, got '4'"),
        (lambda cfg: cfg.update(lambdas=[0.1, 0.1, 0.10000000000000001]),
         "lambda 0.1 is listed twice in lambdas"),
        (lambda cfg: cfg.update(lambdas=[0.1, float("nan")]),
         "lambdas: smoothness parameter must be a finite real >= 0, got nan"),
        (lambda cfg: cfg.update(lambdas=[float("inf")]),
         "lambdas: smoothness parameter must be a finite real >= 0, got inf"),
        # each exposure and region field, checked when the config is read
        (lambda cfg: cfg.update(field={"type": "radial", "amplitude": float("inf")}),
         "amplitude must be finite, got inf"),
        (lambda cfg: cfg.update(field={"type": "radial", "scale": 0}),
         "scale must be positive and finite, got 0.0"),
        (lambda cfg: cfg.update(field={"type": "blocked", "scale": float("nan")}),
         "scale must be positive and finite, got nan"),
        (lambda cfg: cfg.update(field={"type": "directional", "radial_scale": -6}),
         "radial_scale must be positive and finite, got -6.0"),
        (lambda cfg: cfg.update(field={"type": "directional", "direction_scale": float("inf")}),
         "direction_scale must be positive and finite, got inf"),
        (lambda cfg: cfg.update(field={"type": "blocked", "region": {"threshold_x": float("nan")}}),
         "threshold_x must be finite, got nan"),
        (lambda cfg: cfg["kernels"].update(
            block={"family": "ring_block", "params": {"region": {"threshold_cos": float("-inf")}}}),
         "threshold_cos must be finite, got -inf"),
    ], ids=["seed", "scenario_seed", "mu_infinite", "beta_nan", "mu_list", "beta_text",
            "lambda_repeated", "lambda_nan", "lambda_inf", "radial_amplitude", "radial_scale",
            "blocked_scale", "directional_radial_scale", "directional_direction_scale",
            "field_threshold_x", "kernel_threshold_cos"])
    def test_bad_value_exit_1_naming_the_field(self, toy, tmp_path, capsys, monkeypatch,
                                               edit, message):
        monkeypatch.setattr(cli, "run_study", lambda cfg: pytest.fail("study ran"))
        assert self._simulate(toy, tmp_path, edit) == 1
        assert capsys.readouterr().err == (
            f"smoothmask: bad study config {tmp_path / 'bad_sim.json'}: {message}\n")

    def test_negative_seed_flag_exit_1(self, toy, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_study", lambda cfg: pytest.fail("study ran"))
        out = tmp_path / "outS"
        rc = main(["simulate", "--config", str(toy["sim"]), "--out", str(out), "--seed", "-3"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "smoothmask: --seed must be a non-negative integer, got -3\n")
        assert not out.exists()

    def test_out_is_existing_file_exit_1(self, toy, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_study", lambda cfg: pytest.fail("study ran"))
        out = tmp_path / "afile"
        out.write_text("keep me")
        for target in (out, out / "sub"):
            rc = main(["simulate", "--config", str(toy["sim"]), "--out", str(target)])
            assert rc == 1
            err = capsys.readouterr().err
            assert err == f"smoothmask: --out {target}: {out} is not a directory\n"
        assert out.read_text() == "keep me"

    @pytest.mark.parametrize("edit, message", [
        (lambda cfg: cfg.update(scenario={"ap_columns": ["x"]}),
         "scenario columns ['x'] must cover exactly the released columns ['x', 'y']"),
        (lambda cfg: cfg["scenario"].update(target_ids=["p000003", "p000050"]),
         "target ids not present in the released data: ['p000050']"),
        (lambda cfg: cfg["scenario"].update(target_ids=["p3"]),
         "target ids not present in the released data: ['p3']"),
    ], ids=["scenario_without_y", "target_id_beyond_n", "target_id_not_a_study_id"])
    def test_scenario_not_fitting_the_release_exit_1(self, toy, tmp_path, capsys,
                                                      monkeypatch, edit, message):
        monkeypatch.setattr(cli, "run_study", lambda cfg: pytest.fail("study ran"))
        assert self._simulate(toy, tmp_path, edit) == 1
        assert capsys.readouterr().err == (
            f"smoothmask: bad study config {tmp_path / 'bad_sim.json'}: {message}\n")

    def test_overflowing_bounds_exit_1(self, toy, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_study", lambda cfg: pytest.fail("study ran"))
        rc = self._simulate(toy, tmp_path, lambda cfg: cfg.update(bounds=[-1e308, 1e308, -1, 1]))
        assert rc == 1
        assert capsys.readouterr().err == (
            f"smoothmask: bad study config {tmp_path / 'bad_sim.json'}: grid spans xmax - xmin "
            "and ymax - ymin must be finite, got [-1e+308, 1e+308] x [-1.0, 1.0]\n")

    def test_failed_study_leaves_no_directory(self, toy, tmp_path, capsys):
        assert self._simulate(toy, tmp_path, lambda cfg: cfg.update(mu=40.0)) == 2
        assert "outcome mean overflows" in capsys.readouterr().err


class TestOutOfMemory:
    """A computation that runs out of memory is a failed computation: exit 2,
    one stderr line and no output. The allocation failure is simulated; a real
    oversized one could be granted by an overcommitting host and then killed."""

    @pytest.mark.parametrize("error, message", [
        (MemoryError("Unable to allocate 74.5 GiB for an array"),
         "Unable to allocate 74.5 GiB for an array"),
        (MemoryError(), "out of memory"),
    ], ids=["message", "no_message"])
    @pytest.mark.parametrize("sub", ["risk", "simulate"])
    def test_exit_2_one_line_no_output(self, toy, tmp_path, capsys, monkeypatch, sub,
                                       error, message):
        def exhausted(*args, **kwargs):
            raise error

        out = tmp_path / "out"
        if sub == "risk":
            monkeypatch.setattr(cli, "risk_report", exhausted)
            argv = ["risk", "--masked", str(toy["data"]), "--truth", str(toy["data"]),
                    "--scenario", str(toy["scenario"]), "--out", str(out)]
        else:
            monkeypatch.setattr(cli, "run_study", exhausted)
            argv = ["simulate", "--config", str(toy["sim"]), "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"smoothmask: computation failed: {message}\n"
        assert not out.exists()


@pytest.fixture(scope="module")
def study_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("study")
    cfg = {
        "field": {"type": "radial"},
        "kernels": {"ring": {"family": "ring"}, "euclidean": {"family": "euclidean"}},
        "mu": -25.0, "beta": 4.0,
        "n_locations": 50, "replicates": 6, "lambdas": [0.1, 0.5], "seed": 5,
        "scenario": {"ap_columns": ["x"], "u_columns": ["y"], "mc_draws": 15, "seed": 2},
    }
    cfg_path = tmp / "sim.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp / "results"
    rc = main(["simulate", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0
    return out


class TestSimulateProfilePlot:
    def test_three_files_written(self, study_dir):
        assert (study_dir / "study.csv").exists()
        assert (study_dir / "profile.csv").exists()
        assert (study_dir / "metadata.json").exists()

    def test_metadata_content(self, study_dir):
        meta = json.loads((study_dir / "metadata.json").read_text())
        assert meta["seed"] == 5
        assert "exclusions" in meta and "version" in meta

    def test_profile_subcommand_matches_simulate_profile(self, study_dir, tmp_path):
        out = tmp_path / "prof.csv"
        rc = main(["profile", "--study", str(study_dir / "study.csv"), "--out", str(out)])
        assert rc == 0
        assert out.read_text() == (study_dir / "profile.csv").read_text()

    @pytest.mark.parametrize("kind", ["estimates", "mse", "risk", "widthratio"])
    def test_plot_kinds_from_study(self, study_dir, tmp_path, kind):
        out = tmp_path / f"{kind}.svg"
        rc = main(["plot", "--in", str(study_dir / "study.csv"), "--kind", kind,
                   "--out", str(out)])
        assert rc == 0
        svg = out.read_text()
        assert svg.startswith("<svg ")
        assert svg.count("<polyline ") == 2  # one series per kernel

    def test_plot_tradeoff_from_profile(self, study_dir, tmp_path):
        out = tmp_path / "tradeoff.svg"
        rc = main(["plot", "--in", str(study_dir / "profile.csv"), "--kind", "tradeoff",
                   "--out", str(out)])
        assert rc == 0
        svg = out.read_text()
        assert ">MSE<" in svg and ">disclosure risk<" in svg

    def test_plot_estimates_has_reference_lines(self, study_dir, tmp_path):
        out = tmp_path / "est.svg"
        main(["plot", "--in", str(study_dir / "study.csv"), "--kind", "estimates",
              "--out", str(out)])
        svg = out.read_text()
        assert "true coefficient" in svg
        assert "aggregated-data estimate" in svg

    def test_plot_missing_columns_exit_1_no_file(self, study_dir, tmp_path):
        out = tmp_path / "bad.svg"
        rc = main(["plot", "--in", str(study_dir / "profile.csv"), "--kind", "widthratio",
                   "--out", str(out)])
        assert rc == 1
        assert not out.exists()

    def test_plot_empty_table_exit_1(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("kernel,lam,mse,risk\n")
        out = tmp_path / "e.svg"
        rc = main(["plot", "--in", str(empty), "--kind", "tradeoff", "--out", str(out)])
        assert rc == 1
        assert not out.exists()


class TestKernelNamesInTables:
    @pytest.fixture(scope="class")
    def named_study(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("names")
        cfg = {
            "field": {"type": "radial"},
            "kernels": {"ring, wide": {"family": "ring"}, 'say "hi"': {"family": "euclidean"}},
            "mu": -25.0, "beta": 4.0, "n_locations": 40, "replicates": 4,
            "lambdas": [0.1, 0.5], "seed": 3,
            "scenario": {"ap_columns": ["x"], "u_columns": ["y"], "mc_draws": 5},
        }
        (tmp / "sim.json").write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(tmp / "sim.json"), "--out", str(tmp / "r")]) == 0
        return tmp / "r"

    def test_study_rows_keep_their_cells(self, named_study):
        with open(named_study / "study.csv", newline="") as fh:
            rows = list(csv.reader(line for line in fh if not line.startswith("#")))
        assert {len(r) for r in rows} == {len(rows[0])}
        assert [r[0] for r in rows[1:]] == (["unmasked", "aggregated"]
                                            + ["ring, wide"] * 2 + ['say "hi"'] * 2)

    def test_profile_equals_simulate_profile(self, named_study, tmp_path):
        out = tmp_path / "prof.csv"
        assert main(["profile", "--study", str(named_study / "study.csv"),
                     "--out", str(out)]) == 0
        assert out.read_text() == (named_study / "profile.csv").read_text()

    def test_plot_names_each_series(self, named_study, tmp_path):
        out = tmp_path / "mse.svg"
        assert main(["plot", "--in", str(named_study / "study.csv"), "--kind", "mse",
                     "--out", str(out)]) == 0
        svg = out.read_text()
        assert svg.count("<polyline ") == 2
        assert ">ring, wide<" in svg and '>say "hi"<' in svg


class TestTableErrors:
    @pytest.mark.parametrize("body, message", [
        ("kernel,lam,mse,risk\nring,0.1,0.5,0.2,9\n", "{table}: line 2: expected 4 cells, got 5"),
        ("# note\nkernel,lam,mse,risk\nring,0.1,abc,0.2\n",
         "{table}: line 3: column 'mse' has non-numeric value 'abc'"),
        ("# only a comment\n", "{table}: empty table"),
        ("# note\nkernel,lam,mse,risk\nring,0.1," + "1" * 200_000 + ",0.2\n",
         "{table}: line 3: field larger than field limit (131072)"),
        ("kernel,lam,mse," + "r" * 200_000 + "\nring,0.1,0.5,0.2\n",
         "{table}: line 1: field larger than field limit (131072)"),
    ], ids=["extra_cell", "non_numeric", "no_header", "long_cell", "long_header"])
    @pytest.mark.parametrize("sub", ["profile", "plot"])
    def test_malformed_table_exit_1(self, tmp_path, capsys, sub, body, message):
        table = tmp_path / "t.csv"
        table.write_text(body)
        message = message.format(table=table)
        out = tmp_path / "out"
        flags = {"profile": ["--study", str(table)],
                 "plot": ["--in", str(table), "--kind", "tradeoff"]}[sub]
        assert main([sub, *flags, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"smoothmask: {message}\n"
        assert not out.exists()


class TestOverLongCell:
    """A cell over the csv module's field size limit is an input error naming
    the file and line, from the dataset reader as from the table reader."""

    def test_dataset_exit_1(self, toy, tmp_path, capsys):
        data = tmp_path / "long.csv"
        data.write_text("id,s1,s2,x1,y\na,0.1,0.2,1.0,3\nb,0.3,0.4,2.0," + "1" * 200_000 + "\n")
        out = tmp_path / "m.csv"
        assert main(["mask", "--in", str(data), "--kernel", str(toy["kernel"]),
                     "--lambda", "0.2", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"smoothmask: {data}: line 3: field larger than field limit (131072)\n")
        assert not out.exists()


class TestDeterminism:
    def test_simulate_byte_identical(self, toy, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            rc = main(["simulate", "--config", str(toy["sim"]), "--out", str(out)])
            assert rc == 0
        for name in ("study.csv", "profile.csv", "metadata.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_mask_and_risk_byte_identical(self, toy, tmp_path):
        outs = []
        for tag in ("a", "b"):
            masked = tmp_path / f"m{tag}.csv"
            risk = tmp_path / f"r{tag}.json"
            main(["mask", "--in", str(toy["data"]), "--kernel", str(toy["ring"]),
                  "--lambda", "0.25", "--out", str(masked)])
            main(["risk", "--masked", str(masked), "--truth", str(toy["data"]),
                  "--scenario", str(toy["scenario"]), "--out", str(risk)])
            outs.append((masked.read_bytes(), risk.read_bytes()))
        assert outs[0] == outs[1]


class TestHelp:
    @pytest.mark.parametrize("sub", ["mask", "fit", "risk", "bias", "simulate", "profile", "plot"])
    def test_subcommand_help(self, sub, capsys):
        rc = main([sub, "--help"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "--out" in out

    def test_top_level_help(self, capsys):
        assert main(["--help"]) == 0
        captured = capsys.readouterr()
        assert "simulate" in captured.out and captured.err == ""


class TestUsageErrors:
    """argparse's own usage errors are one stderr line with exit 1, like every
    other flag error, with no usage text before it."""

    def test_unrecognized_argument(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["bias", "--in", "d.csv", "--kernel", "k.json", "--beta=1,2",
                     "--n-col", "x", "--out", "b.json"]) == 1
        assert capsys.readouterr().err == "smoothmask: unrecognized arguments: --n-col x\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, message", [
        (["mask", "--in", "d.csv", "--kernel", "k.json", "--out", "m.csv"],
         "the following arguments are required: --lambda"),
        (["mask", "--in", "d.csv", "--kernel", "k.json", "--lambda", "abc", "--out", "m.csv"],
         "argument --lambda: invalid float value: 'abc'"),
        # the list of choices after these is worded differently across Python versions
        (["plot", "--in", "s.csv", "--kind", "pie", "--out", "p.svg"],
         "argument --kind: invalid choice: 'pie' ("),
        (["nope"], "argument command: invalid choice: 'nope' ("),
        ([], "the following arguments are required: command"),
    ], ids=["missing_required", "bad_float", "bad_choice", "unknown_subcommand",
            "no_subcommand"])
    def test_exit_1_one_line(self, tmp_path, capsys, monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"smoothmask: {message}")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []


class TestModelColumnRoles:
    def test_poisson_with_log_offset_column(self, toy, tmp_path):
        # aggregate the toy data, then fit the rate model with offset log(n)
        masked_csv = tmp_path / "cells.csv"
        main(["mask", "--in", str(toy["data"]), "--kernel", str(toy["kernel"]),
              "--lambda", "0.1", "--out", str(masked_csv),
              "--grid-nx", "3", "--grid-ny", "3"])
        model = tmp_path / "rate_model.json"
        model.write_text(json.dumps({
            "family": "poisson-log", "regressors": ["x1"],
            "log_offset_col": "n",
        }))
        out = tmp_path / "fit.json"
        rc = main(["fit", "--in", str(masked_csv), "--model", str(model), "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["converged"] is True
        assert set(report["coefficients"]) == {"intercept", "x1"}

    def test_binomial_with_trials_column(self, tmp_path):
        from scipy.special import expit
        from smoothmask.dataset import SpatialDataset

        rng = np.random.default_rng(71)
        k = 30
        trials = rng.integers(50, 400, k).astype(float)
        frac = rng.uniform(0, 1, k)
        deaths = rng.binomial(trials.astype(int), expit(-2.0 + 0.9 * frac)).astype(float)
        cells = SpatialDataset(ids=tuple(f"c{i}" for i in range(k)),
                               locs=rng.uniform(-1, 1, (k, 2)),
                               x=frac[:, None], y=deaths, x_names=("frac",), n=trials)
        csv_path = tmp_path / "cells.csv"
        write_csv(cells, csv_path)
        model = tmp_path / "bin_model.json"
        model.write_text(json.dumps({
            "family": "binomial-logit", "regressors": ["frac"], "trials_col": "n",
        }))
        out = tmp_path / "fit.json"
        rc = main(["fit", "--in", str(csv_path), "--model", str(model), "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["converged"] is True
        assert abs(report["coefficients"]["frac"] - 0.9) < 0.6

    def test_conflicting_offset_roles_rejected(self, toy, tmp_path):
        model = tmp_path / "conflict.json"
        model.write_text(json.dumps({
            "family": "poisson-log", "regressors": ["x1"],
            "offset_col": "x1", "log_offset_col": "x1",
        }))
        rc = main(["fit", "--in", str(toy["data"]), "--model", str(model),
                   "--out", str(tmp_path / "f.json")])
        assert rc == 1


class TestPlotFromStudyTable:
    def test_tradeoff_accepts_study_csv(self, study_dir, tmp_path):
        out = tmp_path / "tradeoff_study.svg"
        rc = main(["plot", "--in", str(study_dir / "study.csv"), "--kind", "tradeoff",
                   "--out", str(out)])
        assert rc == 0
        assert out.read_text().count("<polyline ") == 2

    def test_unreadable_metadata_comment_is_left_out(self, study_dir, tmp_path):
        lines = (study_dir / "study.csv").read_text().splitlines(keepends=True)
        assert lines[0].startswith("# study ")
        # an integer beyond Python's int-string digit limit
        lines[0] = '# study {"true_beta": 1' + "0" * 5000 + "}\n"
        table = tmp_path / "study.csv"
        table.write_text("".join(lines))
        out = tmp_path / "estimates.svg"
        assert main(["plot", "--in", str(table), "--kind", "estimates", "--out", str(out)]) == 0
        assert "true coefficient" not in out.read_text()


class TestUnparseableJson:
    """JSON that json.load rejects with something other than JSONDecodeError
    still exits 1 with one line naming the file."""

    @pytest.mark.parametrize("text, reason", [
        ('{"seed": 1' + "0" * 5000 + "}", "Exceeds the limit (4300 digits)"),
        ("[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded"),
    ], ids=["integer_beyond_digit_limit", "nesting_too_deep"])
    @pytest.mark.parametrize("sub", ["simulate", "mask", "risk", "fit"])
    def test_exit_1_naming_the_file(self, toy, tmp_path, capsys, monkeypatch, sub, text,
                                    reason):
        monkeypatch.setattr(cli, "run_study", lambda cfg: pytest.fail("study ran"))
        path = tmp_path / "cfg.json"
        path.write_text(text)
        data = str(toy["data"])
        what, argv = {
            "simulate": ("study config", ["--config", str(path)]),
            "mask": ("kernel", ["--in", data, "--kernel", str(path), "--lambda", "0.2"]),
            "risk": ("scenario", ["--masked", data, "--truth", data, "--scenario", str(path)]),
            "fit": ("model", ["--in", data, "--model", str(path)]),
        }[sub]
        out = tmp_path / "out"
        assert main([sub, *argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"smoothmask: {what} file {path} is not valid JSON: ")
        assert reason in err and err.count("\n") == 1
        assert not out.exists()


# Valid configs of every kind `_parse_config` reads; each field of each is mutated.
_SOURCE = {"loc": [0.2, -0.1], "direction": [0.0, 1.0]}
_REGION = {"threshold_x": 0.4, "threshold_cos": 0.6, "source": _SOURCE}
_BVN = {"family": "bivariate_normal", "params": {"var1": 1.0, "var2": 2.0, "rho": 0.3}}
_STUDY = {
    "field": {"type": "directional", "source": _SOURCE, "amplitude": 7.0,
              "radial_scale": 6.0, "direction_scale": 3.0},
    "kernels": {"ring": {"family": "ring", "params": {"source": _SOURCE}}, "bvn": _BVN},
    "mu": -25.0, "beta": 4.0, "n_locations": 50, "replicates": 6, "lambdas": [0.1, 0.5],
    "bounds": [-1.0, 1.0, -1.0, 1.0], "grid": {"nx": 5, "ny": 4}, "seed": 5,
    "ci_level": 0.9,
    "scenario": {"ap_columns": ["x"], "u_columns": ["y"], "mc_draws": 15, "seed": 2,
                 "standardize": False, "target_ids": ["p000001", "p000049"]},
}
_VALID_CONFIGS = [
    ("kernel", kernel_from_json,
     {"family": "ring_angle", "params": {"source": _SOURCE, "angle_scale": 2.0}}),
    ("kernel", kernel_from_json, {"family": "ring_block", "params": {"region": _REGION}}),
    ("kernel", kernel_from_json, _BVN),
    ("model", cli._model_from_json,
     {"family": "poisson-log", "regressors": ["x1", "x2"], "intercept": True,
      "log_offset_col": "n"}),
    ("scenario", scenario_from_json,
     {"ap_columns": ["x1"], "u_columns": ["x2", "y"], "mc_draws": 20, "seed": 4,
      "standardize": True, "target_ids": ["p1", "p2"]}),
    ("study", config_from_json, _STUDY),
    ("study", config_from_json,
     _STUDY | {"field": {"type": "blocked", "region": _REGION, "amplitude": 7.0, "scale": 2.5}}),
]
_DELETE = object()
_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4),
    st.lists(st.one_of(st.integers(), st.floats(), st.text(max_size=3)), max_size=5),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=3),
)


def _field_paths(obj, prefix=()):
    """Key paths of every field and list entry in a JSON value."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) \
        if isinstance(obj, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _field_paths(value, prefix + (key,))


class TestConfigMutations:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_mutated_config_parses_or_is_a_usage_error(self, data):
        what, parse, valid = data.draw(st.sampled_from(_VALID_CONFIGS))
        path = data.draw(st.sampled_from(list(_field_paths(valid))))
        value = data.draw(st.one_of(st.just(_DELETE), _JSON_VALUES))
        obj = copy.deepcopy(valid)
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        if value is _DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
        try:
            cli._parse_config(what, parse, obj, "cfg.json")
        except cli.UsageError as err:
            assert "\n" not in str(err) and str(err).startswith(f"bad {what} config cfg.json: ")


# Valid inputs of the data-file commands, each with exactly the columns its
# command reads, so that any bad cell is an input error
_RECORDS = [("r0", 0.1, 0.2, 0.5, 3, 5), ("r1", 0.7, 0.4, 1.5, 8, 9), ("r2", 0.3, 0.9, 1.0, 5, 6),
            ("r3", -0.4, 0.1, 0.2, 1, 4), ("r4", 0.5, -0.6, 2.0, 0, 3), ("r5", -0.2, -0.3, 0.8, 2, 2)]
_KERNELS = [{"family": "euclidean"}, {"family": "ring"}, {"family": "ring_angle"},
            {"family": "bivariate_normal", "params": {"var1": 1e-20, "var2": 1e-20, "rho": 0.0}}]
_MODELS = [{"family": "poisson-log", "regressors": ["x1"]},
           {"family": "gaussian-identity", "regressors": ["x1"]},
           {"family": "binomial-logit", "regressors": ["x1"], "trials_col": "n"}]
# (text, always an input error in a numeric cell, also in an id cell)
_CELLS = [("nan", True, False), ("inf", True, False), ("-inf", True, False),
          ("-1", False, False), ("-3.5", False, False), ("1e308", False, False),
          ("-1e308", False, False), ("1e-310", False, False), ("5e-324", False, False),
          ("", True, True), ("9" * 200_000, True, True), ("0." + "0" * 400 + "1", False, False)]


def _data_file_command(data, tmp):
    """A valid data-file command in ``tmp``: (argv, its data files, its output)."""
    sub = data.draw(st.sampled_from(["mask", "fit", "risk", "bias"]), label="command")
    model = data.draw(st.sampled_from(_MODELS), label="model") if sub == "fit" else {}
    columns = ["id", "s1", "s2", "x1", "y"] + (["n"] if "trials_col" in model else [])
    text = ",".join(columns) + "\n" + "".join(
        ",".join(str(v) for v in record[:len(columns)]) + "\n" for record in _RECORDS)
    files = [tmp / "data.csv"]
    files[0].write_text(text)
    config = tmp / "config.json"
    out = tmp / ("out.csv" if sub == "mask" else "out.json")
    if sub == "mask":
        config.write_text(json.dumps(data.draw(st.sampled_from(_KERNELS), label="kernel")))
        argv = ["mask", "--in", str(files[0]), "--kernel", str(config), "--lambda", "0.5"]
    elif sub == "fit":
        config.write_text(json.dumps(model))
        argv = ["fit", "--in", str(files[0]), "--model", str(config)]
    elif sub == "risk":
        files.append(tmp / "truth.csv")
        files[1].write_text(text)
        config.write_text(json.dumps({"ap_columns": ["x1"], "u_columns": ["y"], "mc_draws": 5}))
        argv = ["risk", "--masked", str(files[0]), "--truth", str(files[1]),
                "--scenario", str(config)]
    else:
        config.write_text(json.dumps(data.draw(st.sampled_from(_KERNELS), label="kernel")))
        argv = ["bias", "--in", str(files[0]), "--kernel", str(config), "--beta=-2,2"]
    return argv + ["--out", str(out)], files, out


def _mutate(data, path) -> bool:
    """Mutate the data file at ``path``; whether the result is always an input error."""
    raw = path.read_bytes()
    lines = raw.decode().splitlines(keepends=True)
    kind = data.draw(st.sampled_from(["cell", "duplicate id", "extra cell", "non-UTF-8",
                                      "truncated"]), label="mutation")
    row = data.draw(st.integers(1, len(lines) - 1), label="row")
    cells = lines[row].rstrip("\n").split(",")
    if kind == "cell":
        column = data.draw(st.integers(0, len(cells) - 1), label="column")
        cells[column], numeric_error, id_error = data.draw(st.sampled_from(_CELLS), label="cell")
        bad = id_error if column == 0 else numeric_error
    elif kind == "duplicate id":
        other = data.draw(st.integers(1, len(lines) - 1).filter(lambda r: r != row))
        cells[0], bad = lines[other].split(",")[0], True
    elif kind == "extra cell":
        cells, bad = cells + ["1"], True
    if kind in ("cell", "duplicate id", "extra cell"):
        lines[row] = ",".join(cells) + "\n"
        path.write_text("".join(lines))
    elif kind == "non-UTF-8":
        at = data.draw(st.integers(0, len(raw)), label="at")
        path.write_bytes(raw[:at] + data.draw(st.sampled_from([b"\xff", b"\xc3", b"\x80"])) + raw[at:])
        bad = True
    else:
        path.write_bytes(raw[:data.draw(st.integers(0, len(raw) - 1), label="length")])
        bad = False
    return bad


class TestDataFileMutations:
    """Mutated data files of the data-file commands: exit 1 for input errors, 2 for a
    numerical failure (floating-point overflow among them), each as one stderr line
    with no output file; or exit 0 with the output written and nothing on stderr."""

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_mutated_data_file_exit_code_and_one_line(self, data):
        with tempfile.TemporaryDirectory() as name:
            tmp = Path(name)
            argv, files, out = _data_file_command(data, tmp)
            bad = _mutate(data, data.draw(st.sampled_from(files), label="file"))
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                rc = main(argv)
            lines = err.getvalue().splitlines()
            if rc == 0:
                assert not bad and lines == [] and out.exists()
            else:
                assert rc in (1, 2) and (rc == 1 or not bad), (rc, lines)
                assert len(lines) == 1 and lines[0].startswith("smoothmask: "), lines
                assert "Traceback" not in lines[0]
                assert not out.exists()
            assert not list(tmp.glob("*.tmp"))


class TestOverflowingValues:
    """Finite values whose arithmetic would overflow: exit 2 with one stderr
    line, or, where the output is still right, exit 0 with nothing on stderr."""

    _SCENARIO = {"ap_columns": ["x1"], "u_columns": ["y"], "mc_draws": 5}

    def _run(self, tmp_path, capsys, sub, cells, config_flag, config, *flags, truth_cells=None):
        def write(name, cells):
            records = [list(r[:5]) for r in _RECORDS]
            for (row, column), value in cells.items():
                records[row][column] = value
            path = tmp_path / name
            path.write_text("id,s1,s2,x1,y\n" + "".join(
                ",".join(map(str, r)) + "\n" for r in records))
            return str(path)

        data = write("data.csv", cells)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        io_flags = (["--masked", data, "--truth", write("truth.csv", truth_cells or cells)]
                    if sub == "risk" else ["--in", data])
        rc = main([sub, *io_flags, config_flag, str(cfg), *flags, "--out", str(out)])
        return rc, capsys.readouterr().err, out

    @pytest.mark.parametrize("sub, cells, truth_cells, config, flag, message", [
        # r_00 = 1e308 of the pivoted QR: the intercept's r_11 lies far below its tolerance
        ("fit", {(2, 3): "1e308"}, None, _MODELS[0], "--model",
         "design matrix is rank deficient; collinear column(s): ['intercept']"),
        # the deviance overflows to inf: a flagged fit, which strict JSON cannot hold
        ("fit", {(2, 4): "1e308"}, None, _MODELS[0], "--model",
         "the report holds a non-finite value (NaN or infinity)"),
        ("risk", {}, {(2, 3): "1e308"}, _SCENARIO, "--scenario",
         "the risk distance overflows in truth column 'x1'; rescale the column"),
        ("risk", {}, {(2, 4): "-1e308"}, _SCENARIO, "--scenario",
         "the risk distance overflows in truth column 'y'; rescale the column"),
        ("mask", {(2, 1): "1e308"}, None, {"family": "ring"}, "--kernel",
         "the kernel distance overflows at location 2; rescale the locations"),
    ], ids=["fit_x1", "fit_poisson_y", "risk_truth_x1", "risk_truth_y", "mask_ring"])
    def test_exit_2_one_line(self, tmp_path, capsys, sub, cells, truth_cells, config, flag,
                             message):
        extra = ["--lambda", "0.5"] if sub == "mask" else []
        rc, err, out = self._run(tmp_path, capsys, sub, cells, flag, config, *extra,
                                 truth_cells=truth_cells)
        assert (rc, err) == (2, f"smoothmask: computation failed: {message}\n")
        assert not out.exists()

    def test_mask_with_an_overflowing_whitening_is_the_identity(self, tmp_path, capsys):
        # records r0 and r1 are too far out to whiten; the others, at variance
        # 1e-20, have no neighbours either
        cells = {(0, 1): "1e300", (1, 1): "-1e300"}
        rc, err, out = self._run(tmp_path, capsys, "mask", cells, "--kernel", _KERNELS[3],
                                 "--lambda", "0.5")
        assert (rc, err) == (0, "")
        masked = load_csv(out, CsvSchema(x_cols=("x1",)))
        assert masked.x[:, 0].tolist() == [r[3] for r in _RECORDS]
        assert masked.y.tolist() == [r[4] for r in _RECORDS]

    @pytest.mark.parametrize("column", [3, 4], ids=["x1", "y"])
    def test_risk_standardizes_a_huge_released_column(self, tmp_path, capsys, column):
        # its standard deviation is taken on the column divided by its largest |value|
        rc, err, out = self._run(tmp_path, capsys, "risk", {(2, column): "1e308"},
                                 "--scenario", self._SCENARIO)
        assert (rc, err) == (0, "")
        assert 0.0 <= json.loads(out.read_text())["expected_correct_rate"] <= 1.0

    def test_bias_with_an_overflowing_linear_predictor_is_exactly_zero(self, tmp_path, capsys):
        # every built-in kernel's derivative at zero smoothness vanishes, whatever eta
        rc, err, out = self._run(tmp_path, capsys, "bias", {(2, 3): "1e308"}, "--kernel",
                                 {"family": "euclidean"}, "--beta=-2,2")
        assert (rc, err) == (0, "")
        assert json.loads(out.read_text())["beta_prime0"] == [0.0, 0.0]

    def test_euclidean_mask_of_a_far_location_keeps_its_values(self, tmp_path, capsys):
        # its squared distances overflow to inf, whose weight is exactly 0
        rc, err, out = self._run(tmp_path, capsys, "mask", {(2, 1): "1e308"}, "--kernel",
                                 {"family": "euclidean"}, "--lambda", "0.5")
        assert (rc, err) == (0, "")
        rows = list(csv.DictReader(line for line in out.read_text().splitlines()
                                   if line[0] != "#"))
        assert (float(rows[2]["x1"]), float(rows[2]["y"])) == (1.0, 5.0)


# The hand-written codecs the typed walker replaced, frozen as they were. The
# walker must read every valid config, with any of its optional keys left out,
# to the same object: so it keeps the defaults these codecs restated.
def _old_source(obj):
    if obj is None:
        return PointSource()
    s1, s2 = (float(v) for v in obj.get("loc", [0.0, 0.0]))
    return PointSource(loc=Location(s1, s2),
                       direction=tuple(float(v) for v in obj.get("direction", [1.0, 0.0])))


def _old_region(obj):
    if obj is None:
        return BlockRegion()
    return BlockRegion(threshold_x=float(obj.get("threshold_x", 0.4)),
                       threshold_cos=float(obj.get("threshold_cos", 0.625)),
                       source=_old_source(obj.get("source")))


def _old_kernel(obj):
    family = obj.get("family")
    params = obj.get("params") or {}
    if family == "euclidean":
        return EuclideanKernel()
    if family == "ring":
        return RingKernel(source=_old_source(params.get("source")))
    if family == "ring_angle":
        return RingAngleKernel(source=_old_source(params.get("source")),
                               angle_scale=float(params.get("angle_scale", 2.0)))
    if family == "ring_block":
        return RingBlockKernel(region=_old_region(params.get("region")))
    if family == "bivariate_normal":
        return BivariateNormalKernel(var1=float(params.get("var1", 1.0)),
                                     var2=float(params.get("var2", 1.0)),
                                     rho=float(params.get("rho", 0.0)))
    raise ValueError(f"unknown kernel family {family!r}")


def _old_field(obj):
    kind = obj.get("type")
    if kind == "radial":
        return RadialExposure(source=_old_source(obj.get("source")),
                              amplitude=float(obj.get("amplitude", 7.0)),
                              scale=float(obj.get("scale", 2.5)))
    if kind == "directional":
        return DirectionalExposure(source=_old_source(obj.get("source")),
                                   amplitude=float(obj.get("amplitude", 7.0)),
                                   radial_scale=float(obj.get("radial_scale", 6.0)),
                                   direction_scale=float(obj.get("direction_scale", 3.0)))
    if kind == "blocked":
        return BlockedExposure(region=_old_region(obj.get("region")),
                               amplitude=float(obj.get("amplitude", 7.0)),
                               scale=float(obj.get("scale", 2.5)))
    raise ValueError(f"unknown exposure field type {kind!r}")


def _old_scenario(obj):
    return IntruderScenario(
        ap_columns=tuple(obj["ap_columns"]),
        u_columns=tuple(obj.get("u_columns", ())),
        mc_draws=int(obj.get("mc_draws", 100)),
        seed=int(obj.get("seed", 0)),
        standardize=obj.get("standardize", True),
        target_ids=tuple(obj["target_ids"]) if obj.get("target_ids") else None,
    )


def _old_study(obj):
    kernels = tuple((name, _old_kernel(kj)) for name, kj in obj["kernels"].items())
    scenario = _old_scenario(obj["scenario"]) if obj.get("scenario") else None
    grid = obj.get("grid") or {}
    lambdas = obj.get("lambdas")
    return SimConfig(
        field=_old_field(obj["field"]), kernels=kernels,
        mu=float(obj["mu"]), beta=float(obj["beta"]),
        n_locations=int(obj.get("n_locations", 1000)),
        replicates=int(obj.get("replicates", 500)),
        lambdas=tuple(float(v) for v in lambdas) if lambdas else default_lambda_grid(),
        bounds=tuple(float(v) for v in obj.get("bounds", (-1.0, 1.0, -1.0, 1.0))),
        grid_nx=int(grid.get("nx", 7)), grid_ny=int(grid.get("ny", 7)),
        seed=int(obj.get("seed", 0)), scenario=scenario,
        ci_level=float(obj.get("ci_level", 0.95)),
    )


def _old_model(obj):
    model = ModelSpec(family=obj["family"], regressors=tuple(obj.get("regressors", ())),
                      intercept=obj.get("intercept", True))
    return (model, *(obj.get(f) for f in ("offset_col", "log_offset_col", "trials_col")))


_OLD_CODECS = {kernel_from_json: _old_kernel, cli._model_from_json: _old_model,
               scenario_from_json: _old_scenario, config_from_json: _old_study}
# left in place: without them both codecs raise, or an empty scenario object
# was read as no scenario
_REQUIRED_KEYS = {"family", "type", "field", "kernels", "mu", "beta", "ap_columns"}


class TestCodecMatchesHandWritten:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_same_object_with_optional_keys_left_out(self, data):
        what, parse, valid = data.draw(st.sampled_from(_VALID_CONFIGS))
        old = _OLD_CODECS[parse]
        assert parse(valid) == old(valid)
        obj = copy.deepcopy(valid)
        for path in _field_paths(valid):
            optional = isinstance(path[-1], str) and path[-1] not in _REQUIRED_KEYS \
                and path[-2:-1] != ("kernels",)  # a kernel's name is not a field
            if optional and data.draw(st.booleans()):
                parent = obj
                for key in path[:-1]:
                    parent = parent.get(key, {})
                parent.pop(path[-1], None)
        assert _outcome(parse, obj) == _outcome(old, obj)


def _outcome(parse, obj):
    """What a codec makes of obj: the config, or the message of its ValueError."""
    try:
        return parse(obj)
    except ValueError as err:
        return f"ValueError: {err}"


def _study_edit(**changes):
    return "study", lambda cfg: cfg.update(changes)


class TestConfigTypes:
    """Each ill-typed or empty value exits 1 with one line naming its field."""

    @pytest.mark.parametrize("what, edit, message", [
        (*_study_edit(seed=1.9), "seed must be an integer, got 1.9"),
        ("study", lambda cfg: cfg["scenario"].update(mc_draws=2.7),
         "mc_draws must be an integer, got 2.7"),
        (*_study_edit(n_locations=10.9), "n_locations must be an integer, got 10.9"),
        (*_study_edit(replicates="50"), "replicates must be an integer, got '50'"),
        (*_study_edit(ci_level="0.9"), "ci_level must be a number, got '0.9'"),
        (*_study_edit(field={"type": "radial", "amplitude": "7"}),
         "amplitude must be a number, got '7'"),
        ("kernel", lambda cfg: cfg.update(family="ring_angle", params={"angle_scale": "2"}),
         "angle_scale must be a number, got '2'"),
        ("kernel", lambda cfg: cfg.update(family="bivariate_normal", params={"var1": True}),
         "var1 must be a number, got True"),
        (*_study_edit(lambdas=[True]), "lambdas must be a list of numbers, got [True]"),
        (*_study_edit(grid={"nx": True}), "grid.nx must be an integer, got True"),
        (*_study_edit(lambdas="0.1"), "lambdas must be a list of numbers, got '0.1'"),
        (*_study_edit(kernels=[]), "kernels must be an object, got []"),
        (*_study_edit(grid=[1]), "grid must be an object, got [1]"),
        ("kernel", lambda cfg: cfg.update(params=[1]), "params must be an object, got [1]"),
        (*_study_edit(replicates=[1]), "replicates must be an integer, got [1]"),
        ("scenario", lambda cfg: cfg.update(target_ids=[]),
         "target_ids must name at least one record; null targets every record"),
        ("study", lambda cfg: cfg["scenario"].update(target_ids=[]),
         "target_ids must name at least one record; null targets every record"),
    ], ids=["seed_fraction", "mc_draws_fraction", "n_locations_fraction", "replicates_text",
            "ci_level_text", "amplitude_text", "angle_scale_text", "var1_bool", "lambdas_bool",
            "grid_nx_bool", "lambdas_text", "kernels_list", "grid_list", "params_list",
            "replicates_list", "target_ids_empty_risk", "target_ids_empty_simulate"])
    def test_exit_1_naming_the_field(self, toy, tmp_path, capsys, monkeypatch,
                                     what, edit, message):
        monkeypatch.setattr(cli, "run_study", lambda cfg: pytest.fail("study ran"))
        source = {"study": "sim", "kernel": "kernel", "scenario": "scenario"}[what]
        cfg = json.loads(toy[source].read_text())
        edit(cfg)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        data = str(toy["data"])
        argv = {"study": ["simulate", "--config", str(path)],
                "kernel": ["mask", "--in", data, "--kernel", str(path), "--lambda", "0.2"],
                "scenario": ["risk", "--masked", data, "--truth", data, "--scenario", str(path)],
                }[what]
        assert main([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"smoothmask: bad {what} config {path}: {message}\n"
        assert not out.exists()
