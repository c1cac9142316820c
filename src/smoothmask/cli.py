"""Command-line front end: mask | fit | risk | bias | simulate | profile | plot.

Exit codes: 0 success, 1 validation error (flags, config files, schemas),
2 computation error. No subcommand leaves partial output behind: files are
written to a temporary sibling and renamed only on success. All randomness is
governed by configured seeds, overridable with --seed, so identical
invocations produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import bias as bias_mod
from . import charts
from .dataset import CsvSchema, GridSpec, ParseError, load_csv, write_csv
from .glm import ModelSpec, fit, naive_ci
from .kernels import kernel_from_json
from .masking import build_operator, compose_two_step, operator_to_csv
from .risk import IntruderScenario, check_scenario_fits, risk_report, scenario_from_json
from .sim import (
    config_from_json,
    profile_csv_text,
    risk_utility_profile,
    run_study,
    study_csv_text,
)


class UsageError(Exception):
    """Bad flags, unreadable config, or schema mismatch: exit code 1."""


class ComputationError(Exception):
    """Numerical failure while executing a valid request: exit code 2."""


def _write_outputs(writers: dict[Path, Callable[[Path], None]]) -> None:
    """Run each output's writer on a temporary sibling, then rename them all: a
    failed write leaves neither a partial file nor only some of the outputs."""
    tmps = []
    try:
        for path, write in writers.items():
            tmps.append(path.with_name(path.name + ".tmp"))
            write(tmps[-1])
    except OSError as err:
        for tmp in tmps:
            tmp.unlink(missing_ok=True)
        raise UsageError(f"cannot write {path}: {err.strerror}") from None
    for tmp, path in zip(tmps, writers):
        tmp.replace(path)


def _text_writer(text: str) -> Callable[[Path], None]:
    return lambda tmp: tmp.write_text(text, encoding="utf-8")


def _atomic_write_text(path: Path, text: str) -> None:
    _write_outputs({path: _text_writer(text)})


def _output_path(flag: str, value: str) -> Path:
    """An output file path, checked before any computation."""
    path = Path(value)
    if not path.parent.is_dir():
        raise UsageError(f"{flag} {value}: {path.parent} is not a directory")
    if path.is_dir():
        raise UsageError(f"{flag} {value} is a directory")
    return path


def _load_json(path: str, what: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"{what} file not found: {path}") from None
    except json.JSONDecodeError as err:
        raise UsageError(f"{what} file {path} is not valid JSON: {err}") from None


def _parse_config(what: str, parse, obj):
    """Apply a JSON config parser; a malformed config becomes a one-line usage error."""
    if not isinstance(obj, dict):
        raise UsageError(f"bad {what} config: expected a JSON object, got {type(obj).__name__}")
    try:
        return parse(obj)
    except KeyError as err:
        raise UsageError(f"bad {what} config: missing field {err}") from None
    except (AttributeError, TypeError, ValueError) as err:
        # AttributeError: a nested value that should be an object is not one
        raise UsageError(f"bad {what} config: {err}") from None


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _schema_from_args(args) -> CsvSchema:
    coords = tuple(c.strip() for c in args.coord_cols.split(","))
    if len(coords) != 2:
        raise UsageError("--coord-cols must name exactly two columns")
    x_cols = tuple(c.strip() for c in args.x_cols.split(",") if c.strip())
    if not x_cols:
        raise UsageError("--x-cols must name at least one regressor column")
    return CsvSchema(id_col=args.id_col, coord_cols=coords, x_cols=x_cols,
                     y_col=args.y_col, n_col=args.n_col)


def _add_schema_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--id-col", default="id", help="id column name (default: id)")
    p.add_argument("--coord-cols", default="s1,s2",
                   help="two coordinate column names, comma separated (default: s1,s2)")
    p.add_argument("--x-cols", default="x1",
                   help="regressor column names, comma separated (default: x1)")
    p.add_argument("--y-col", default="y", help="outcome column name (default: y)")
    p.add_argument("--n-col", default=None, help="optional count-weight column name")


def _load_dataset(path: str, schema: CsvSchema):
    try:
        return load_csv(path, schema)
    except FileNotFoundError:
        raise UsageError(f"dataset file not found: {path}") from None
    except ParseError as err:
        raise UsageError(str(err)) from None


# ---------------------------------------------------------------------------
# Subcommand handlers

def _cmd_mask(args) -> int:
    schema = _schema_from_args(args)
    data = _load_dataset(args.input, schema)
    kernel_json = _load_json(args.kernel, "kernel")
    kernel = _parse_config("kernel", kernel_from_json, kernel_json)
    for flag, value in (("--lambda", args.lam), ("--sparsify", args.sparsify)):
        if not (math.isfinite(value) and value >= 0):
            raise UsageError(f"{flag} must be a finite number >= 0, got {value!r}")
    out = _output_path("--out", args.out)
    export = args.export_operator and _output_path("--export-operator", args.export_operator)
    op = None
    try:
        if args.grid_nx or args.grid_ny:
            if not (args.grid_nx and args.grid_ny):
                raise UsageError("two-step masking needs both --grid-nx and --grid-ny")
            bounds = (float(np.min(data.locs[:, 0])), float(np.max(data.locs[:, 0])),
                      float(np.min(data.locs[:, 1])), float(np.max(data.locs[:, 1])))
            grid = GridSpec(*bounds, args.grid_nx, args.grid_ny)
            masked = compose_two_step(data, grid, kernel, args.lam)
            out_schema = CsvSchema(x_cols=data.x_names, n_col="n")
        else:
            op = build_operator(data.locs, kernel, args.lam, args.sparsify)
            masked = op.apply(data)
            out_schema = schema
    except UsageError:
        raise
    except (ValueError, np.linalg.LinAlgError) as err:
        raise ComputationError(str(err)) from None
    provenance = (f"masked: kernel={json.dumps(kernel_json, sort_keys=True)} "
                  f"lambda={args.lam!r}")
    writers = {out: lambda tmp: write_csv(masked, tmp, schema=out_schema, comment=provenance)}
    if export and op is not None:
        writers[export] = lambda tmp: operator_to_csv(op, tmp)
    _write_outputs(writers)
    return 0


def _model_from_json(obj) -> tuple[ModelSpec, str | None, str | None, str | None]:
    model = _parse_config("model", lambda o: ModelSpec(
        family=o["family"],
        regressors=tuple(o.get("regressors", ())),
        intercept=bool(o.get("intercept", True)),
    ), obj)
    return (model, obj.get("offset_col"), obj.get("log_offset_col"), obj.get("trials_col"))


def _cmd_fit(args) -> int:
    out = _output_path("--out", args.out)
    model_json = _load_json(args.model, "model")
    model, offset_col, log_offset_col, trials_col = _model_from_json(model_json)
    extra = tuple(c for c in (offset_col, log_offset_col, trials_col) if c)
    schema = CsvSchema(
        id_col=args.id_col,
        coord_cols=tuple(args.coord_cols.split(",")),
        x_cols=tuple(dict.fromkeys(model.regressors + extra)),
        y_col=args.y_col,
        n_col=None,
    )
    data = _load_dataset(args.input, schema)
    x = np.column_stack([data.column(c) for c in model.regressors]) \
        if model.regressors else None
    offset = None
    if offset_col and log_offset_col:
        raise UsageError("model config sets both offset_col and log_offset_col")
    if offset_col:
        offset = data.column(offset_col)
    elif log_offset_col:
        vals = data.column(log_offset_col)
        if (vals <= 0).any():
            raise UsageError(f"log offset column {log_offset_col!r} must be positive")
        offset = np.log(vals)
    trials = data.column(trials_col) if trials_col else None
    try:
        result = fit(model, x, data.y, trials=trials, offset=offset)
        ci = naive_ci(result, args.level) if result.converged else None
    except (ValueError, np.linalg.LinAlgError) as err:
        raise ComputationError(str(err)) from None
    report = {
        "family": model.family,
        "coefficients": dict(zip(result.coef_names, [float(b) for b in result.beta])),
        "se_naive": dict(zip(result.coef_names, [float(s) for s in result.se])),
        "ci": None if ci is None else {
            name: [float(lo), float(hi)]
            for name, (lo, hi) in zip(result.coef_names, ci)
        },
        "ci_level": args.level,
        "deviance": float(result.deviance),
        "iterations": result.iterations,
        "converged": result.converged,
        "n_obs": result.n_obs,
    }
    _atomic_write_text(out, _json_dumps(report))
    return 0


def _scenario_from_json(obj, seed_override: int | None) -> IntruderScenario:
    scenario = _parse_config("scenario", scenario_from_json, obj)
    if seed_override is not None:
        scenario = replace(scenario, seed=seed_override)
    return scenario


def _cmd_risk(args) -> int:
    out = _output_path("--out", args.out)
    scenario = _scenario_from_json(_load_json(args.scenario, "scenario"), args.seed)
    x_cols = tuple(c for c in (*scenario.ap_columns, *scenario.u_columns) if c != "y")
    schema = CsvSchema(id_col=args.id_col, coord_cols=tuple(args.coord_cols.split(",")),
                       x_cols=x_cols, y_col=args.y_col)
    masked = _load_dataset(args.masked, schema)
    truth = _load_dataset(args.truth, schema)
    try:
        check_scenario_fits(scenario, masked.x_names, masked.ids)
    except ValueError as err:
        raise UsageError(str(err)) from None
    try:
        report = risk_report(masked, truth, scenario)
    except ValueError as err:
        raise ComputationError(str(err)) from None
    payload = {
        "expected_correct_rate": report.expected_correct_rate,
        "note": report.note,
        "per_target": [
            {
                "id": t.target_id,
                "m": t.m,
                "correct_in_argmax": t.correct_in_argmax,
                "prob_correct": t.prob_correct,
                "max_prob": float(t.probabilities.max()),
            }
            for t in report.targets
        ],
    }
    _atomic_write_text(out, _json_dumps(payload))
    return 0


def _cmd_bias(args) -> int:
    out = _output_path("--out", args.out)
    schema = _schema_from_args(args)
    data = _load_dataset(args.input, schema)
    kernel = _parse_config("kernel", kernel_from_json, _load_json(args.kernel, "kernel"))
    if args.beta_from:
        fit_json = _load_json(args.beta_from, "fit report")
        try:
            coeffs = fit_json["coefficients"]
            beta = [coeffs["intercept"]] + [coeffs[c] for c in schema.x_cols]
        except KeyError as err:
            raise UsageError(f"fit report lacks coefficient {err}") from None
    elif args.beta:
        beta = [float(v) for v in args.beta.split(",")]
    else:
        raise UsageError("provide --beta or --beta-from")
    try:
        report = bias_mod.first_order_bias(data, beta, kernel, args.family)
    except (ValueError, np.linalg.LinAlgError) as err:
        raise ComputationError(str(err)) from None
    payload = {
        "family": args.family,
        "beta": beta,
        "beta_prime0": [float(v) for v in report.beta_prime0],
        "r0_max_abs": report.r0_max_abs,
        "caveat": report.caveat,
    }
    _atomic_write_text(out, _json_dumps(payload))
    return 0


def _cmd_simulate(args) -> int:
    cfg = _parse_config("study", config_from_json, _load_json(args.config, "study config"))
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    out_dir = Path(args.out)
    # checked before the study runs: mkdir would fail only after it
    existing = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not existing.is_dir():
        raise UsageError(f"--out {args.out}: {existing} is not a directory")
    try:
        result = run_study(cfg)
    except (ValueError, np.linalg.LinAlgError, RuntimeError) as err:
        raise ComputationError(str(err)) from None
    out_dir.mkdir(parents=True, exist_ok=True)
    texts = {
        "study.csv": study_csv_text(result),
        "profile.csv": profile_csv_text(risk_utility_profile(result)),
        "metadata.json": _json_dumps(result.metadata),
    }
    _write_outputs({out_dir / name: _text_writer(text) for name, text in texts.items()})
    return 0


def _read_table(path: str) -> tuple[dict | None, dict[str, list[str]]]:
    """Read a study/profile CSV into columns; returns (comment metadata, columns)."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            lines = fh.readlines()
    except FileNotFoundError:
        raise UsageError(f"input file not found: {path}") from None
    meta = None
    start = 0
    while start < len(lines) and lines[start].startswith("#"):
        stripped = lines[start][1:].strip()
        if stripped.startswith("study "):
            try:
                meta = json.loads(stripped[len("study "):])
            except json.JSONDecodeError:
                meta = None
        start += 1
    reader = csv.reader(lines[start:])
    try:
        header = next(reader)
    except StopIteration:
        raise UsageError(f"{path}: empty table") from None
    cols: dict[str, list[str]] = {h: [] for h in header}
    for row in reader:
        if not row:
            continue
        for h, v in zip(header, row):
            cols[h].append(v)
    return meta, cols


def _cmd_profile(args) -> int:
    out = _output_path("--out", args.out)
    meta, cols = _read_table(args.study)
    needed = ["kernel", "lam", "mse", "risk"]
    missing = [c for c in needed if c not in cols]
    if missing:
        raise UsageError(f"study table lacks column(s) {missing}")
    lines = ["kernel,lam,mse,risk"]
    for i in range(len(cols["kernel"])):
        if cols["kernel"][i] in ("unmasked", "aggregated"):
            continue
        lines.append(",".join(cols[c][i] for c in needed))
    _atomic_write_text(out, "\n".join(lines) + "\n")
    return 0


_PLOT_KINDS = ("estimates", "mse", "risk", "tradeoff", "widthratio")


def _series_by_kernel(cols, xcol: str, ycol: str) -> list[charts.Series]:
    kernels = []
    for k in cols["kernel"]:
        if k not in kernels and k not in ("unmasked", "aggregated"):
            kernels.append(k)
    series = []
    for k in kernels:
        pts = [
            (float(cols[xcol][i]), float(cols[ycol][i]))
            for i in range(len(cols["kernel"]))
            if cols["kernel"][i] == k and cols[xcol][i] != "" and cols[ycol][i] != ""
        ]
        pts.sort()
        if pts:
            series.append(charts.Series(name=k, x=tuple(p for p, _ in pts),
                                        y=tuple(q for _, q in pts)))
    if not series:
        raise UsageError("no plottable kernel series in the input table")
    return series


def _baseline(cols, kernel: str, column: str) -> float | None:
    for i in range(len(cols["kernel"])):
        if cols["kernel"][i] == kernel and cols[column][i] != "":
            return float(cols[column][i])
    return None


def _cmd_plot(args) -> int:
    out = _output_path("--out", args.out)
    meta, cols = _read_table(args.input)
    kind = args.kind
    required = {
        "estimates": ["kernel", "lam", "mean_estimate"],
        "mse": ["kernel", "lam", "mse"],
        "risk": ["kernel", "lam", "risk"],
        "tradeoff": ["kernel", "mse", "risk"],
        "widthratio": ["kernel", "lam", "width_ratio"],
    }[kind]
    missing = [c for c in required if c not in cols]
    if missing:
        raise UsageError(f"plot kind {kind!r} needs column(s) {missing} in the input")
    ref_lines: list[charts.RefLine] = []
    dots: list[charts.Dot] = []
    if kind == "estimates":
        series = _series_by_kernel(cols, "lam", "mean_estimate")
        if meta and "true_beta" in meta:
            ref_lines.append(charts.RefLine(float(meta["true_beta"]), "true coefficient"))
        agg = _baseline(cols, "aggregated", "mean_estimate")
        if agg is not None:
            ref_lines.append(charts.RefLine(agg, "aggregated-data estimate"))
        title, xlabel, ylabel = "Masked-data estimates", "lambda", "mean estimate"
    elif kind == "mse":
        series = _series_by_kernel(cols, "lam", "mse")
        unm = _baseline(cols, "unmasked", "mse")
        if unm is not None:
            ref_lines.append(charts.RefLine(unm, "unmasked"))
        agg = _baseline(cols, "aggregated", "mse")
        if agg is not None:
            ref_lines.append(charts.RefLine(agg, "aggregated"))
        title, xlabel, ylabel = "MSE of masked-data estimates", "lambda", "MSE"
    elif kind == "risk":
        series = _series_by_kernel(cols, "lam", "risk")
        title, xlabel, ylabel = "Identification disclosure risk", "lambda", "expected correct-match rate"
    elif kind == "tradeoff":
        series = _series_by_kernel(cols, "mse", "risk")
        title, xlabel, ylabel = "Risk-utility trade-off", "MSE", "disclosure risk"
    else:
        series = _series_by_kernel(cols, "lam", "width_ratio")
        unm = _baseline(cols, "unmasked", "width_ratio")
        if unm is not None:
            dots.append(charts.Dot(0.0, unm, "unmasked"))
        title, xlabel, ylabel = "Naive vs. percentile CI width", "lambda", "width ratio"
    try:
        svg = charts.render_chart(series, title=title, xlabel=xlabel, ylabel=ylabel,
                                  ref_lines=ref_lines, dots=dots)
    except ValueError as err:
        raise UsageError(str(err)) from None
    _atomic_write_text(out, svg)
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smoothmask",
        description="Mask spatial datasets by smoothing; quantify utility and disclosure risk.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mask", help="smooth a dataset with a kernel at one lambda")
    p.add_argument("--in", dest="input", required=True, help="input dataset CSV")
    p.add_argument("--kernel", required=True, help="kernel JSON file {family, params}")
    p.add_argument("--lambda", dest="lam", type=float, required=True,
                   help="smoothness parameter (0 = no masking)")
    p.add_argument("--out", required=True, help="masked dataset CSV")
    p.add_argument("--sparsify", type=float, default=0.0,
                   help="drop weights below this fraction of the row max, then renormalize")
    p.add_argument("--export-operator", default=None,
                   help="also write the operator matrix CSV (handle as confidential)")
    p.add_argument("--grid-nx", type=int, default=0,
                   help="two-step masking: aggregate to an nx-by-ny grid first")
    p.add_argument("--grid-ny", type=int, default=0, help="see --grid-nx")
    _add_schema_flags(p)
    p.set_defaults(handler=_cmd_mask)

    p = sub.add_parser("fit", help="fit a GLM and write a report JSON")
    p.add_argument("--in", dest="input", required=True, help="dataset CSV")
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--out", required=True, help="fit report JSON")
    p.add_argument("--level", type=float, default=0.95, help="CI level (default 0.95)")
    p.add_argument("--id-col", default="id")
    p.add_argument("--coord-cols", default="s1,s2")
    p.add_argument("--y-col", default="y")
    p.set_defaults(handler=_cmd_fit)

    p = sub.add_parser("risk", help="identification disclosure risk of a masked release")
    p.add_argument("--masked", required=True, help="released masked CSV")
    p.add_argument("--truth", required=True, help="intruder's true records CSV")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--out", required=True, help="risk report JSON")
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p.add_argument("--id-col", default="id")
    p.add_argument("--coord-cols", default="s1,s2")
    p.add_argument("--y-col", default="y")
    p.set_defaults(handler=_cmd_risk)

    p = sub.add_parser("bias", help="first-order coefficient bias at zero smoothing")
    p.add_argument("--in", dest="input", required=True, help="dataset CSV")
    p.add_argument("--kernel", required=True, help="kernel JSON file")
    p.add_argument("--family", default="poisson-log",
                   choices=("poisson-log", "binomial-logit", "gaussian-identity"))
    p.add_argument("--beta", default=None,
                   help="comma-separated coefficients, intercept first")
    p.add_argument("--beta-from", default=None, help="fit report JSON to take coefficients from")
    p.add_argument("--out", required=True, help="bias report JSON")
    _add_schema_flags(p)
    p.set_defaults(handler=_cmd_bias)

    p = sub.add_parser("simulate", help="run a replicated masking study")
    p.add_argument("--config", required=True, help="study config JSON")
    p.add_argument("--out", required=True,
                   help="output directory (study.csv, profile.csv, metadata.json)")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("profile", help="extract the risk-utility profile from a study CSV")
    p.add_argument("--study", required=True, help="study CSV from `simulate`")
    p.add_argument("--out", required=True, help="profile CSV")
    p.set_defaults(handler=_cmd_profile)

    p = sub.add_parser("plot", help="render a study/profile table as an SVG chart")
    p.add_argument("--in", dest="input", required=True, help="study or profile CSV")
    p.add_argument("--kind", required=True, choices=_PLOT_KINDS)
    p.add_argument("--out", required=True, help="output SVG file")
    p.set_defaults(handler=_cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        # argparse exits 0 for --help and 2 for usage problems; map the latter to 1
        code = err.code if err.code in (0, None) else 1
        if argv is None:
            raise SystemExit(code)
        return int(code or 0)
    try:
        return args.handler(args)
    except UsageError as err:
        print(f"smoothmask: {err}", file=sys.stderr)
        return 1
    except ComputationError as err:
        print(f"smoothmask: computation failed: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
