"""Command-line front end: mask | fit | risk | bias | simulate | profile | plot.

Exit codes: 0 success; 1 for every flag, config, schema or input-file error,
reported as one line on stderr that names the flag or field; 2 when a valid
request fails numerically or runs out of memory, decided in `main` alone. No
subcommand leaves partial output behind: files are written to a temporary
sibling and renamed only on success. All randomness is governed by configured seeds, overridable
with --seed, so identical invocations produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager, suppress
from dataclasses import replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import bias as bias_mod
from . import charts, sim
from .dataset import (
    CsvSchema,
    GridSpec,
    ParseError,
    _csv_rows,
    _from_json,
    _in_file,
    _parse_number,
    load_csv,
    write_csv,
)
from .glm import FAMILIES, ModelSpec, OutOfRangeError, fit, naive_ci
from .kernels import kernel_from_json
from .masking import build_operator, compose_two_step, operator_to_csv
from .risk import check_scenario_fits, risk_report, scenario_from_json
from .sim import (
    config_from_json,
    profile_csv_text,
    risk_utility_profile,
    run_study,
    study_csv_text,
)


class UsageError(Exception):
    """Bad flags, unreadable config, or schema mismatch: exit code 1."""


# output path -> its text, or a function that writes the file at the path it is given
_Outputs = dict[Path, str | Callable[[Path], None]]


def _tmp_sibling(path: Path) -> Path:
    """Where an output is written before it is renamed to its path."""
    return path.with_name(path.name + ".tmp")


def _exists(path: Path) -> bool:
    """Whether path exists. Any error but its absence, such as a name too long to
    look up, raises, where Path.exists may answer False."""
    try:
        path.stat()
    except (FileNotFoundError, NotADirectoryError):
        return False
    return True


def _write_outputs(outputs: _Outputs) -> None:
    """Write each output to a temporary sibling, then rename them all: a failed
    write leaves neither a partial file nor only some of the outputs."""
    tmps = []
    try:
        for path, content in outputs.items():
            tmps.append(_tmp_sibling(path))
            if isinstance(content, str):
                tmps[-1].write_text(content, encoding="utf-8")
            else:
                content(tmps[-1])
    except OSError as err:
        for tmp in tmps:
            with suppress(OSError):   # one never made, or a name too long to make
                tmp.unlink()
        raise UsageError(f"cannot write {path}: {err.strerror}") from None
    for tmp, path in zip(tmps, outputs):
        tmp.replace(path)


def _output_path(flag: str, value: str) -> Path:
    """An output file path, checked before any computation."""
    path = Path(value)
    try:
        if not path.parent.is_dir():
            raise UsageError(f"{flag} {value}: {path.parent} is not a directory")
        if path.is_dir():
            raise UsageError(f"{flag} {value} is a directory")
        _exists(_tmp_sibling(path))   # raises if its name is too long to write
    except OSError as err:
        raise UsageError(f"{flag} {value}: {err.strerror}") from None
    return path


@contextmanager
def _reading(what: str, path: str):
    """Turn a failure to read or parse an input file into a one-line usage error."""
    try:
        yield
    except FileNotFoundError:
        raise UsageError(f"{what} file not found: {path}") from None
    except ParseError as err:
        raise UsageError(str(err)) from None
    except (OSError, UnicodeDecodeError) as err:
        raise UsageError(f"cannot read {what} file {path}: {err}") from None


def _load_json(path: str, what: str) -> dict:
    with _reading(what, path), open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as err:
        # besides malformed JSON: an integer with more digits than Python's
        # int-string limit (ValueError) or nesting too deep to parse
        raise UsageError(f"{what} file {path} is not valid JSON: {err}") from None


def _parse_config(what: str, parse, obj, path: str):
    """Apply a JSON config parser to the contents of the file at ``path``; a
    malformed config becomes a one-line usage error naming the file."""
    if not isinstance(obj, dict):
        raise UsageError(f"bad {what} config {path}: expected a JSON object, "
                         f"got {type(obj).__name__}")
    try:
        return parse(obj)
    except KeyError as err:
        raise UsageError(f"bad {what} config {path}: missing field {err}") from None
    except ValueError as err:
        raise UsageError(f"bad {what} config {path}: {err}") from None


def _json_dumps(obj) -> str:
    """Strict JSON: a NaN or infinite value is a numerical failure, not a token
    that JSON parsers reject."""
    try:
        return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:
        raise ValueError("the report holds a non-finite value (NaN or infinity)") from None


def _schema_from_args(args, x_cols: tuple[str, ...] | None = None) -> CsvSchema:
    """The dataset schema the flags name; fit and risk pass the regressor
    columns their config reads in place of --x-cols."""
    coords = tuple(c.strip() for c in args.coord_cols.split(","))
    if len(coords) != 2:
        raise UsageError("--coord-cols must name exactly two columns")
    if x_cols is None:
        x_cols = tuple(c.strip() for c in args.x_cols.split(",") if c.strip())
        if not x_cols:
            raise UsageError("--x-cols must name at least one regressor column")
    try:
        return CsvSchema(id_col=args.id_col, coord_cols=coords, x_cols=x_cols,
                         y_col=args.y_col, n_col=vars(args).get("n_col"))
    except ValueError as err:   # a repeated regressor column
        raise UsageError(f"--x-cols: {err}") from None


def _add_schema_flags(p: argparse.ArgumentParser, regressor_flags: bool = True) -> None:
    p.add_argument("--id-col", default="id", help="id column name (default: id)")
    p.add_argument("--coord-cols", default="s1,s2",
                   help="two coordinate column names, comma separated (default: s1,s2)")
    p.add_argument("--y-col", default="y", help="outcome column name (default: y)")
    if regressor_flags:
        p.add_argument("--x-cols", default="x1",
                       help="regressor column names, comma separated (default: x1)")


def _seed_override(args) -> int | None:
    """The --seed flag, which replaces the config's seed when given."""
    if args.seed is not None and args.seed < 0:
        raise UsageError(f"--seed must be a non-negative integer, got {args.seed}")
    return args.seed


def _load_dataset(path: str, schema: CsvSchema):
    with _reading("dataset", path):
        return load_csv(path, schema)


# ---------------------------------------------------------------------------
# Subcommand handlers: each checks its inputs and output paths, computes, and
# returns its outputs for `main` to write

def _cmd_mask(args) -> _Outputs:
    schema = _schema_from_args(args)
    data = _load_dataset(args.input, schema)
    kernel_json = _load_json(args.kernel, "kernel")
    kernel = _parse_config("kernel", kernel_from_json, kernel_json, args.kernel)
    for flag, value in (("--lambda", args.lam), ("--grid-nx", args.grid_nx),
                        ("--grid-ny", args.grid_ny)):
        if not (math.isfinite(value) and value >= 0):
            raise UsageError(f"{flag} must be a finite number >= 0, got {value!r}")
    out = _output_path("--out", args.out)
    export = args.export_operator and _output_path("--export-operator", args.export_operator)
    if export and export.resolve() == out.resolve():
        raise UsageError(f"--out and --export-operator name the same file: {args.out}")
    if bool(args.grid_nx) != bool(args.grid_ny):
        raise UsageError("two-step masking needs both --grid-nx and --grid-ny")
    if args.grid_nx:
        unused = [flag for flag, value in (("--export-operator", args.export_operator),
                                           ("--n-col", args.n_col)) if value]
        if unused:
            raise UsageError(f"{' and '.join(unused)} cannot be used with two-step "
                             "masking (--grid-nx/--grid-ny)")
        lo, hi = data.locs.min(axis=0), data.locs.max(axis=0)
        for col, low, high in zip(schema.coord_cols, lo, hi):
            if low == high:   # the records' bounding box, and so the grid, is flat
                raise UsageError("two-step masking needs records spread over both "
                                 f"coordinates; every {col!r} value is {float(low)!r}")
        try:
            grid = GridSpec(float(lo[0]), float(hi[0]), float(lo[1]), float(hi[1]),
                            args.grid_nx, args.grid_ny)
        except ValueError as err:   # the records' bounding box spans too far
            raise UsageError(f"two-step masking: {err}") from None
        masked = compose_two_step(data, grid, kernel, args.lam)
        out_schema = CsvSchema(x_cols=data.x_names, n_col="n")
    else:
        op = build_operator(data.locs, kernel, args.lam)
        masked = op.apply(data)
        out_schema = schema
    provenance = (f"masked: kernel={json.dumps(kernel_json, sort_keys=True)} "
                  f"lambda={args.lam!r}")
    writers = {out: lambda tmp: write_csv(masked, tmp, schema=out_schema, comment=provenance)}
    if export:
        writers[export] = lambda tmp: operator_to_csv(op, tmp)
    return writers


def _model_from_json(obj: dict) -> tuple[ModelSpec, str | None, str | None, str | None]:
    """The model and its offset_col, log_offset_col and trials_col column names."""
    roles = {f: obj.get(f) for f in ("offset_col", "log_offset_col", "trials_col")}
    for field, column in roles.items():
        if not (column is None or isinstance(column, str)):
            raise ValueError(f"{field} must be a column name, got {column!r}")
    return (_from_json(ModelSpec, obj), *roles.values())


def _cmd_fit(args) -> _Outputs:
    out = _output_path("--out", args.out)
    if not 0.0 < args.level < 1.0:
        raise UsageError(f"--level must lie in (0, 1), got {args.level!r}")
    model, offset_col, log_offset_col, trials_col = _parse_config(
        "model", _model_from_json, _load_json(args.model, "model"), args.model)
    extra = tuple(c for c in (offset_col, log_offset_col, trials_col) if c)
    schema = _schema_from_args(args, tuple(dict.fromkeys(model.regressors + extra)))
    data = _load_dataset(args.input, schema)
    x = np.column_stack([data.column(c) for c in model.regressors]) \
        if model.regressors else None
    offset = None
    if offset_col and log_offset_col:
        raise UsageError(f"bad model config {args.model}: "
                         "offset_col and log_offset_col are both set")
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
    except OutOfRangeError as err:
        column = {"y": schema.y_col, "trials": trials_col}[err.role]
        raise UsageError(f"data file {args.input}, column {column!r}, "
                         f"record {data.ids[err.row]!r}: {err}") from None
    ci = naive_ci(result, args.level) if result.converged else None
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
    return {out: _json_dumps(report)}


def _cmd_risk(args) -> _Outputs:
    out = _output_path("--out", args.out)
    scenario = _parse_config("scenario", scenario_from_json,
                             _load_json(args.scenario, "scenario"), args.scenario)
    seed = _seed_override(args)
    if seed is not None:
        scenario = replace(scenario, seed=seed)
    x_cols = tuple(c for c in (*scenario.ap_columns, *scenario.u_columns) if c != "y")
    schema = _schema_from_args(args, x_cols)
    masked = _load_dataset(args.masked, schema)
    truth = _load_dataset(args.truth, schema)
    try:
        check_scenario_fits(scenario, masked.x_names, masked.ids)
    except ValueError as err:
        raise UsageError(f"bad scenario config {args.scenario}: {err}") from None
    truth_ids = set(truth.ids)
    missing = [rid for rid in masked.ids if rid not in truth_ids]
    if missing:
        raise UsageError(f"truth file {args.truth} lacks released record ids, e.g. {missing[:3]}")
    report = risk_report(masked, truth, scenario)
    payload = {
        "expected_correct_rate": report.expected_correct_rate,
        "note": report.note,
        "per_target": [
            {"id": i, "m": m, "correct_in_argmax": c, "prob_correct": p, "max_prob": top}
            for i, m, c, p, top in zip(
                report.target_ids.tolist(), report.m.tolist(),
                report.correct_in_argmax.tolist(), report.prob_correct.tolist(),
                report.max_prob.tolist())
        ],
    }
    return {out: _json_dumps(payload)}


def _coefficients(args, x_cols: tuple[str, ...]) -> list[float]:
    """The --beta or --beta-from coefficients, intercept first, one per design column."""
    if args.beta_from:
        flag, fit_json = "--beta-from", _load_json(args.beta_from, "fit report")
        try:
            raw = [fit_json["coefficients"][c] for c in ("intercept", *x_cols)]
        except KeyError as err:
            raise UsageError(f"fit report lacks coefficient {err}") from None
        except TypeError:
            raise UsageError(f"--beta-from {args.beta_from}: the fit report's "
                             "coefficients must be a JSON object") from None
    elif args.beta:
        flag, raw = "--beta", args.beta.split(",")
    else:
        raise UsageError("provide --beta or --beta-from")
    try:
        beta = [float(v) for v in raw if not isinstance(v, bool)]
    except (OverflowError, TypeError, ValueError):
        beta = []
    if not (len(beta) == len(raw) == 1 + len(x_cols) and all(map(math.isfinite, beta))):
        raise UsageError(f"{flag} must give {1 + len(x_cols)} finite coefficients "
                         f"(intercept, {', '.join(x_cols)}), got {raw}")
    return beta


def _cmd_bias(args) -> _Outputs:
    out = _output_path("--out", args.out)
    schema = _schema_from_args(args)
    data = _load_dataset(args.input, schema)
    kernel = _parse_config("kernel", kernel_from_json, _load_json(args.kernel, "kernel"),
                           args.kernel)
    beta = _coefficients(args, schema.x_cols)
    report = bias_mod.first_order_bias(data, beta, kernel, args.family)
    payload = {
        "family": args.family,
        "beta": beta,
        "beta_prime0": [float(v) for v in report.beta_prime0],
        "r0_max_abs": report.r0_max_abs,
        "caveat": report.caveat,
    }
    return {out: _json_dumps(payload)}


def _cmd_simulate(args) -> _Outputs:
    cfg = _parse_config("study", config_from_json, _load_json(args.config, "study config"),
                        args.config)
    seed = _seed_override(args)
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    out_dir = Path(args.out)
    # checked before the study runs: mkdir would fail only after it
    try:
        existing = next(p for p in (out_dir, *out_dir.parents) if _exists(p))
    except OSError as err:
        raise UsageError(f"--out {args.out}: {err.strerror}") from None
    if not existing.is_dir():
        raise UsageError(f"--out {args.out}: {existing} is not a directory")
    result = run_study(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    return {
        out_dir / "study.csv": study_csv_text(result),
        out_dir / "profile.csv": profile_csv_text(risk_utility_profile(result)),
        out_dir / "metadata.json": _json_dumps(result.metadata),
    }


def _read_table(path: str) -> tuple[dict, list[str], list[dict]]:
    """Read a study or profile CSV: the metadata of its '# study' comment, its
    header, and one dict per row with the kernel name as text and every other
    cell a float, or None where the cell is empty."""
    with _reading("input", path), _in_file(path):
        comments, header, cells = _csv_rows(path)
        if header is None:
            raise ParseError("empty table")
        rows = [{name: (value if name == "kernel" else
                        _parse_number(value, name, line) if value else None)
                 for name, value in zip(header, row)} for line, row in cells]
    meta = {}
    for comment in comments:
        stripped = comment.lstrip()[1:].strip()
        if stripped.startswith("study "):
            with suppress(ValueError, RecursionError):   # unreadable metadata is left out
                meta = json.loads(stripped[len("study "):])
    return meta if isinstance(meta, dict) else {}, header, rows


def _cmd_profile(args) -> _Outputs:
    out = _output_path("--out", args.out)
    _, header, rows = _read_table(args.study)
    missing = [c for c in ("kernel", "lam", "mse", "risk") if c not in header]
    if missing:
        raise UsageError(f"study table lacks column(s) {missing}")
    profile = [sim.ProfileRow(kernel=r["kernel"], lam=r["lam"], mse=r["mse"], risk=r["risk"])
               for r in rows if r["kernel"] not in sim.BASELINES]
    return {out: profile_csv_text(profile)}


# plot kind -> x column, y column, title, x label, y label, and the baseline rows
# drawn as labelled reference lines at their y value
_PLOTS = {
    "estimates": ("lam", "mean_estimate", "Masked-data estimates", "lambda", "mean estimate",
                  ((sim.AGGREGATED, "aggregated-data estimate"),)),
    "mse": ("lam", "mse", "MSE of masked-data estimates", "lambda", "MSE",
            ((sim.UNMASKED, "unmasked"), (sim.AGGREGATED, "aggregated"))),
    "risk": ("lam", "risk", "Identification disclosure risk", "lambda",
             "expected correct-match rate", ()),
    "tradeoff": ("mse", "risk", "Risk-utility trade-off", "MSE", "disclosure risk", ()),
    "widthratio": ("lam", "width_ratio", "Naive vs. percentile CI width", "lambda",
                   "width ratio", ()),
}


def _cmd_plot(args) -> _Outputs:
    out = _output_path("--out", args.out)
    meta, header, rows = _read_table(args.input)
    x, y, title, xlabel, ylabel, baselines = _PLOTS[args.kind]
    missing = [c for c in ("kernel", x, y) if c not in header]
    if missing:
        raise UsageError(f"plot kind {args.kind!r} needs column(s) {missing} in the input")
    base: dict[str, float] = {}
    points: dict[str, list[tuple[float, float]]] = {}
    for r in rows:
        if r["kernel"] in sim.BASELINES:
            if r[y] is not None:
                base.setdefault(r["kernel"], r[y])
            continue
        points.setdefault(r["kernel"], [])
        if r[x] is not None and r[y] is not None:
            points[r["kernel"]].append((r[x], r[y]))
    series = [charts.Series(k, *zip(*sorted(p))) for k, p in points.items() if p]
    if not series:
        raise UsageError("no plottable kernel series in the input table")
    ref_lines = [charts.RefLine(base[k], label) for k, label in baselines if k in base]
    true_beta = meta.get("true_beta")
    if args.kind == "estimates" and isinstance(true_beta, (int, float)):
        ref_lines.insert(0, charts.RefLine(float(true_beta), "true coefficient"))
    dots = ([charts.Dot(0.0, base[sim.UNMASKED], "unmasked")]
            if args.kind == "widthratio" and sim.UNMASKED in base else [])
    try:
        svg = charts.render_chart(series, title=title, xlabel=xlabel, ylabel=ylabel,
                                  ref_lines=ref_lines, dots=dots)
    except ValueError as err:
        raise UsageError(str(err)) from None
    return {out: svg}


# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message: str):   # a usage error, in the subcommand parsers too
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.add_argument("--export-operator", default=None,
                   help="also write the operator matrix CSV (handle as confidential)")
    p.add_argument("--grid-nx", type=int, default=0,
                   help="two-step masking: aggregate to an nx-by-ny grid first")
    p.add_argument("--grid-ny", type=int, default=0, help="see --grid-nx")
    p.add_argument("--n-col", default=None, help="optional count-weight column name")
    _add_schema_flags(p)
    p.set_defaults(handler=_cmd_mask)

    p = sub.add_parser("fit", help="fit a GLM and write a report JSON")
    p.add_argument("--in", dest="input", required=True, help="dataset CSV")
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--out", required=True, help="fit report JSON")
    p.add_argument("--level", type=float, default=0.95, help="CI level (default 0.95)")
    _add_schema_flags(p, regressor_flags=False)
    p.set_defaults(handler=_cmd_fit)

    p = sub.add_parser("risk", help="identification disclosure risk of a masked release")
    p.add_argument("--masked", required=True, help="released masked CSV")
    p.add_argument("--truth", required=True, help="intruder's true records CSV")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--out", required=True, help="risk report JSON")
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    _add_schema_flags(p, regressor_flags=False)
    p.set_defaults(handler=_cmd_risk)

    p = sub.add_parser("bias", help="first-order coefficient bias at zero smoothing")
    p.add_argument("--in", dest="input", required=True, help="dataset CSV")
    p.add_argument("--kernel", required=True, help="kernel JSON file")
    p.add_argument("--family", default="poisson-log", choices=FAMILIES)
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
    p.add_argument("--kind", required=True, choices=tuple(_PLOTS))
    p.add_argument("--out", required=True, help="output SVG file")
    p.set_defaults(handler=_cmd_plot)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _write_outputs(args.handler(args))
    except SystemExit:   # --help; a usage error is a UsageError (see _Parser)
        return 0
    except UsageError as err:
        print(f"smoothmask: {err}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError) as err:  # np.linalg.LinAlgError is a ValueError
        print(f"smoothmask: computation failed: {err}", file=sys.stderr)
        return 2
    except MemoryError as err:
        print(f"smoothmask: computation failed: {str(err) or 'out of memory'}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
