"""Command-line surface: every subcommand on toy data, exit codes, determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from smoothmask import cli
from smoothmask.cli import main
from smoothmask.dataset import CsvSchema, load_csv, write_csv
from smoothmask.sim import RadialExposure, sample_locations, simulate_outcomes

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

    def test_missing_input_exit_1(self, toy, tmp_path):
        rc = main(["mask", "--in", str(tmp_path / "nope.csv"), "--kernel", str(toy["kernel"]),
                   "--lambda", "0.1", "--out", str(tmp_path / "m.csv")])
        assert rc == 1
        assert not (tmp_path / "m.csv").exists()

    def test_unknown_flag_exit_1(self, toy, tmp_path):
        rc = main(["mask", "--in", str(toy["data"]), "--wat", "1"])
        assert rc == 1

    @pytest.mark.parametrize("flag, value", [
        ("--sparsify", "-1"), ("--sparsify", "nan"), ("--lambda", "nan"),
    ])
    def test_bad_flag_value_exit_1(self, toy, tmp_path, capsys, flag, value):
        args = {"--lambda": "0.3", "--sparsify": "0"} | {flag: value}
        out = tmp_path / "m.csv"
        rc = main(["mask", "--in", str(toy["data"]), "--kernel", str(toy["kernel"]),
                   "--out", str(out), *(a for kv in args.items() for a in kv)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"smoothmask: {flag} must be a finite number >= 0")
        assert err.count("\n") == 1
        assert not out.exists()


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
        assert err.startswith("smoothmask: bad model config: ")
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
        assert err.startswith("smoothmask: bad scenario config: ")
        assert err.count("\n") == 1

    def test_scenario_without_y_exit_1(self, toy, tmp_path, capsys):
        rc = self._risk(toy, tmp_path, {"ap_columns": ["x1"], "u_columns": []})
        assert rc == 1
        assert "must cover exactly the released columns" in capsys.readouterr().err

    def test_unreleased_target_id_exit_1(self, toy, tmp_path, capsys):
        rc = self._risk(toy, tmp_path, {"ap_columns": ["x1", "y"], "target_ids": ["p1", "zz"]})
        assert rc == 1
        assert "target ids not present in the released data: ['zz']" in capsys.readouterr().err


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
        assert err == "smoothmask: bad kernel config: unknown kernel family 'nope'\n"
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


def test_import_does_not_load_scipy_stats():
    src = Path(cli.__file__).resolve().parents[1]
    code = "import sys, smoothmask; print('scipy.stats' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=os.environ | {"PYTHONPATH": str(src)}, check=True)
    assert proc.stdout == "False\n"


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
        assert err.startswith("smoothmask: bad study config: ")
        assert err.count("\n") == 1

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
        assert capsys.readouterr().err == f"smoothmask: bad study config: {message}\n"

    def test_failed_study_leaves_no_directory(self, toy, tmp_path, capsys):
        assert self._simulate(toy, tmp_path, lambda cfg: cfg.update(mu=40.0)) == 2
        assert "outcome mean overflows" in capsys.readouterr().err


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
        n_cells = 30
        trials = rng.integers(50, 400, n_cells).astype(float)
        frac = rng.uniform(0, 1, n_cells)
        deaths = rng.binomial(trials.astype(int), expit(-2.0 + 0.9 * frac)).astype(float)
        cells = SpatialDataset(ids=tuple(f"c{i}" for i in range(n_cells)),
                               locs=rng.uniform(-1, 1, (n_cells, 2)),
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
