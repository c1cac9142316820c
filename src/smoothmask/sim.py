"""Replicated masking study: exposure fields, outcome simulation, and the
risk-utility summaries per kernel family and smoothness value."""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import MISSING, dataclass, field as dataclass_field
from typing import Sequence

import numpy as np

from . import __version__
from .dataset import (GridSpec, SpatialDataset, _first_repeat, _from_json, _json_object,
                      _grid_cells, _json_value, _registered, _registered_name, _to_json,
                      aggregate)
from .kernels import (
    BlockRegion,
    KernelFamily,
    PointSource,
    _check_finite,
    _check_lambda,
    _direction_cosines,
    _radius_sq,
    _unblocked_mask,
    kernel_from_json,
    kernel_to_json,
)
from .masking import build_operator
from .glm import FitResult, ModelSpec, _critical_value, _percentile_interval, fit
from .risk import (
    IntruderScenario,
    check_scenario_fits,
    expected_correct_rate,
    scenario_from_json,
)

UNMASKED = "unmasked"
AGGREGATED = "aggregated"
# the rows every release is scored against, which are not kernel/lambda cells
BASELINES = (UNMASKED, AGGREGATED)


# ---------------------------------------------------------------------------
# Exposure fields

@dataclass(frozen=True)
class RadialExposure:
    """Exposure decaying symmetrically with squared distance from a point source."""

    source: PointSource = PointSource()
    amplitude: float = 7.0
    scale: float = 2.5

    def __post_init__(self) -> None:
        _check_finite(self, "amplitude")
        _check_finite(self, "scale", positive=True)

    def values(self, locs: np.ndarray) -> np.ndarray:
        return self.amplitude * np.exp(-_radius_sq(locs, self.source) / self.scale)


@dataclass(frozen=True)
class DirectionalExposure:
    """Exposure from a point source skewed toward the source's direction."""

    source: PointSource = PointSource()
    amplitude: float = 7.0
    radial_scale: float = 6.0
    direction_scale: float = 3.0

    def __post_init__(self) -> None:
        _check_finite(self, "amplitude")
        _check_finite(self, "radial_scale", "direction_scale", positive=True)

    def values(self, locs: np.ndarray) -> np.ndarray:
        r = _radius_sq(locs, self.source)
        c = _direction_cosines(locs, self.source)
        return self.amplitude * np.exp(-r / self.radial_scale - c / self.direction_scale)


@dataclass(frozen=True)
class BlockedExposure:
    """Radial exposure zeroed outside the unblocked area (e.g. behind a mountain)."""

    region: BlockRegion = BlockRegion()
    amplitude: float = 7.0
    scale: float = 2.5

    def __post_init__(self) -> None:
        _check_finite(self, "amplitude")
        _check_finite(self, "scale", positive=True)

    def values(self, locs: np.ndarray) -> np.ndarray:
        base = self.amplitude * np.exp(-_radius_sq(locs, self.region.source) / self.scale)
        return base * _unblocked_mask(locs, self.region)


ExposureField = RadialExposure | DirectionalExposure | BlockedExposure


FIELDS = {"radial": RadialExposure, "directional": DirectionalExposure, "blocked": BlockedExposure}


def field_to_json(field_def: ExposureField) -> dict:
    return {"type": _registered_name(FIELDS, field_def, "field"), **_to_json(field_def)}


def field_from_json(obj: dict) -> ExposureField:
    return _from_json(_registered(FIELDS, obj.get("type"), "exposure field type"), obj)


# ---------------------------------------------------------------------------
# Data generation

def sample_locations(n: int, seed, bounds: tuple[float, float, float, float] = (-1.0, 1.0, -1.0, 1.0)) -> np.ndarray:
    """n i.i.d. uniform locations on the study rectangle; deterministic given seed."""
    if n < 1:
        raise ValueError("need at least one location")
    xmin, xmax, ymin, ymax = bounds
    rng = np.random.default_rng(seed)
    out = np.empty((n, 2))
    out[:, 0] = rng.uniform(xmin, xmax, size=n)
    out[:, 1] = rng.uniform(ymin, ymax, size=n)
    return out


def simulate_outcomes(x: np.ndarray, mu: float, beta: float, seed) -> np.ndarray:
    """Independent Poisson outcomes with mean exp(mu + beta * x_i)."""
    x = np.asarray(x, dtype=float).ravel()
    log_mean = mu + beta * x
    bad = ~(log_mean < 30.0)  # poisson means beyond ~1e13 are a configuration error
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(
            f"outcome mean overflows at record {i} (x = {x[i]}, log-mean = {log_mean[i]})"
        )
    rng = np.random.default_rng(seed)
    return rng.poisson(np.exp(log_mean)).astype(float)


def default_lambda_grid() -> tuple[float, ...]:
    """20 smoothness values on [0.01, 1]: a geometric grid with 0.5 inserted."""
    grid = sorted(set(np.geomspace(0.01, 1.0, 19)) | {0.5})
    return tuple(float(v) for v in grid)


# ---------------------------------------------------------------------------
# Study configuration and results

_STUDY_X_NAMES = ("x",)


def _study_ids(n: int) -> tuple[str, ...]:
    """Record ids of a study's released data: p000000, p000001, ..."""
    return tuple(f"p{i:06d}" for i in range(n))


@dataclass(frozen=True)
class SimConfig:
    """Full specification of one replicated masking study."""

    field: ExposureField
    kernels: tuple[tuple[str, KernelFamily], ...]
    mu: float
    beta: float
    n_locations: int = 1000
    replicates: int = 500
    lambdas: tuple[float, ...] = dataclass_field(default_factory=default_lambda_grid)
    bounds: tuple[float, float, float, float] = (-1.0, 1.0, -1.0, 1.0)
    grid_nx: int = 7
    grid_ny: int = 7
    seed: int = 0
    scenario: IntruderScenario | None = None
    ci_level: float = 0.95

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "lambdas", tuple(map(_check_lambda, self.lambdas)))
        except ValueError as err:
            raise ValueError(f"lambdas: {err}") from None
        object.__setattr__(self, "kernels", tuple((str(k), v) for k, v in self.kernels))
        for name in ("mu", "beta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be a finite number, got {getattr(self, name)!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        if self.replicates < 1:
            raise ValueError("need at least one replicate")
        if self.n_locations < 2:
            raise ValueError(f"n_locations must be at least 2, got {self.n_locations}: "
                             "the model fits an intercept and a slope")
        if any(lam <= 0 for lam in self.lambdas):
            raise ValueError("grid smoothness values must be positive; "
                             "the zero baseline is always included")
        if not self.kernels:
            raise ValueError("need at least one kernel to compare")
        if not 0.0 < self.ci_level < 1.0:
            raise ValueError("ci_level must lie in (0, 1)")
        if not all(map(math.isfinite, self.bounds)):
            raise ValueError(f"bounds must be finite, got {list(self.bounds)}")
        self.grid()  # raises unless xmin < xmax, ymin < ymax, finite spans, nx, ny >= 1
        if self.grid_nx * self.grid_ny < 2:
            raise ValueError(f"grid must have at least 2 cells, got nx={self.grid_nx}, "
                             f"ny={self.grid_ny}: the aggregated model fits an intercept "
                             "and a slope")
        repeated = _first_repeat(self.lambdas)
        if repeated is not None:
            raise ValueError(f"lambda {repeated!r} is listed twice in lambdas")
        names = [k for k, _ in self.kernels]
        if len(set(names)) != len(names):
            raise ValueError("kernel names must be unique")
        if set(names) & set(BASELINES):
            raise ValueError(f"kernel names {'/'.join(map(repr, BASELINES))} are reserved")
        if self.scenario is not None:
            # checked here, before any fit, against the release run_study makes
            ids = () if self.scenario.target_ids is None else _study_ids(self.n_locations)
            check_scenario_fits(self.scenario, _STUDY_X_NAMES, ids)

    def grid(self) -> GridSpec:
        xmin, xmax, ymin, ymax = self.bounds
        return GridSpec(xmin, xmax, ymin, ymax, self.grid_nx, self.grid_ny)


@dataclass(frozen=True)
class StudyRow:
    """Summaries for one (kernel, lambda) cell or a baseline row."""

    kernel: str
    lam: float | None
    mean_estimate: float
    empirical_sd: float
    mean_naive_se: float
    mean_naive_var: float
    bias: float
    mse: float
    pct_lo: float
    pct_hi: float
    width_ratio: float
    risk: float | None
    n_failed: int
    valid: bool


@dataclass(frozen=True)
class ProfileRow:
    kernel: str
    lam: float
    mse: float
    risk: float | None


@dataclass(frozen=True)
class StudyResult:
    rows: tuple[StudyRow, ...]
    metadata: dict

    def row(self, kernel: str, lam: float | None = None) -> StudyRow:
        for r in self.rows:
            if r.kernel == kernel and (lam is None or r.lam == lam):
                return r
        raise KeyError(f"no study row for kernel={kernel!r}, lam={lam!r}")


STUDY_COLUMNS = ("kernel", "lam", "mean_estimate", "empirical_sd", "mean_naive_se",
                 "mean_naive_var", "bias", "mse", "pct_lo", "pct_hi", "width_ratio",
                 "risk", "n_failed", "valid")


def _csv_text(columns: Sequence[str], rows) -> str:
    """One CSV line per row object. csv.writer writes a float by its repr and None
    as an empty cell, and quotes a kernel name holding ',' or '"'; bools are 1/0."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for r in rows:
        cells = [getattr(r, c) for c in columns]
        writer.writerow([int(v) if isinstance(v, bool) else v for v in cells])
    return buf.getvalue()


def study_csv_text(result: StudyResult) -> str:
    return ("# study " + json.dumps(result.metadata["model"], sort_keys=True) + "\n"
            + _csv_text(STUDY_COLUMNS, result.rows))


def risk_utility_profile(result: StudyResult) -> tuple[ProfileRow, ...]:
    """The (mse, risk) pairs traced by the kernel/lambda grid."""
    return tuple(
        ProfileRow(kernel=r.kernel, lam=r.lam, mse=r.mse, risk=r.risk)
        for r in result.rows
        if r.kernel not in BASELINES
    )


def profile_csv_text(rows: Sequence[ProfileRow]) -> str:
    return _csv_text(("kernel", "lam", "mse", "risk"), rows)


# ---------------------------------------------------------------------------
# The study itself

def _study_row(kernel: str, lam: float | None, risk: float | None,
               fits: Sequence[FitResult], true_beta: float, z: float,
               alpha: float) -> StudyRow:
    """Summaries of the slope estimates of one row's converged fits."""
    ok = [f for f in fits if f.converged]
    n_failed = len(fits) - len(ok)
    est = np.array([float(f.beta[1]) for f in ok])
    se = np.array([float(f.se[1]) for f in ok])
    if est.size == 0:
        nan = math.nan
        return StudyRow(kernel=kernel, lam=lam, mean_estimate=nan, empirical_sd=nan,
                        mean_naive_se=nan, mean_naive_var=nan, bias=nan, mse=nan,
                        pct_lo=nan, pct_hi=nan, width_ratio=nan, risk=risk,
                        n_failed=n_failed, valid=False)
    mean_est = float(est.mean())
    emp_sd = float(est.std(ddof=1)) if est.size > 1 else 0.0
    mean_se = float(se.mean())
    mean_var = float((se ** 2).mean())
    bias = mean_est - true_beta
    mse = bias ** 2 + mean_var
    lo, hi = _percentile_interval(est, alpha) if est.size > 1 else (mean_est, mean_est)
    naive_width = 2.0 * z * mean_se
    pct_width = float(hi - lo)
    width_ratio = naive_width / pct_width if pct_width > 0 else math.nan
    return StudyRow(
        kernel=kernel, lam=lam, mean_estimate=mean_est, empirical_sd=emp_sd,
        mean_naive_se=mean_se, mean_naive_var=mean_var, bias=bias, mse=mse,
        pct_lo=float(lo), pct_hi=float(hi), width_ratio=width_ratio, risk=risk,
        n_failed=n_failed, valid=n_failed <= 0.1 * len(fits),
    )


def run_study(cfg: SimConfig) -> StudyResult:
    """Run the full replicated study; a pure function of its configuration.

    All replicate outcomes are simulated first, stacked as one n x R matrix,
    and fitted by the individual-level model. The aggregated row takes the cell
    means, counts and log-n offset from one aggregate(truth, grid); each
    replicate adds only its cell sums, by np.bincount over aggregate's cell
    index in record order, so they equal aggregating the replicate bit for bit.
    Then each kernel/lambda cell is run in turn: build its operator (fixed by
    the locations), release the first replicate by MaskingOperator.apply, as
    mask does, mask every replicate with one matrix product, fit each masked
    replicate, drop the operator, and score risk on the release. One n x n
    operator is alive at a time, so memory grows as n^2, not as cells * n^2.
    The operator is held through its fits: freed before them, its block went
    to the fits' temporaries and the peak RSS of the n=1000 study benchmark
    rose from 52.8 to 60.0 MB.
    Disclosure risk is evaluated on the first replicate's masked data: the
    regressor masking is deterministic given the locations and dominates the
    intruder's matching, so replicating risk over outcome draws adds cost
    without moving the summaries (recorded in the metadata).
    """
    locs = sample_locations(cfg.n_locations, [cfg.seed, 0], cfg.bounds)
    x = cfg.field.values(locs)
    if not np.isfinite(x).all():
        raise ValueError("exposure field produced non-finite values")
    ys = [simulate_outcomes(x, cfg.mu, cfg.beta, seed=[cfg.seed, 1, r])
          for r in range(cfg.replicates)]
    Y = np.column_stack(ys)
    truth = SpatialDataset(ids=_study_ids(cfg.n_locations), locs=locs, x=x[:, None],
                           y=ys[0], x_names=_STUDY_X_NAMES)
    scenario = cfg.scenario

    model = ModelSpec(family="poisson-log", regressors=_STUDY_X_NAMES, intercept=True)
    z = _critical_value(cfg.ci_level)
    alpha = 0.5 * (1.0 - cfg.ci_level)
    grid = cfg.grid()
    cells = aggregate(truth, grid)
    log_n = np.log(cells.n)
    # bincount in record order over aggregate's cell index: aggregate's sums, bit for bit
    cell = _grid_cells(locs, grid)[1]

    risk_unmasked = None if scenario is None else expected_correct_rate(truth, truth, scenario)
    rows = [
        _study_row(UNMASKED, 0.0, risk_unmasked, [fit(model, x, y) for y in ys],
                   cfg.beta, z, alpha),
        _study_row(AGGREGATED, None, None,
                   [fit(model, cells.x, np.bincount(cell, weights=y), offset=log_n) for y in ys],
                   cfg.beta, z, alpha),
    ]
    for name, kernel in cfg.kernels:
        for lam in sorted(cfg.lambdas):
            op = build_operator(locs, kernel, lam)
            # risk is scored on this release, not on columns of the product below: the
            # two can round differently, and argmax matching flips a near-tie on a last bit
            released = op.apply(truth)
            fits = [fit(model, released.x, y) for y in (op.a @ Y).T]
            # risk scoring and the next cell's operator must not coexist with this one
            del op
            risk = None if scenario is None else expected_correct_rate(released, truth, scenario)
            rows.append(_study_row(name, lam, risk, fits, cfg.beta, z, alpha))

    metadata = {
        "model": {"true_beta": cfg.beta, "mu": cfg.mu, "ci_level": cfg.ci_level},
        "seed": cfg.seed,
        "n_locations": cfg.n_locations,
        "replicates": cfg.replicates,
        "lambdas": list(sorted(cfg.lambdas)),
        "kernels": {name: kernel_to_json(k) for name, k in cfg.kernels},
        "field": field_to_json(cfg.field),
        "grid": {"nx": cfg.grid_nx, "ny": cfg.grid_ny, "bounds": list(cfg.bounds)},
        "exclusions": {r.kernel if r.kernel in BASELINES else f"{r.kernel}:{r.lam}": r.n_failed
                       for r in rows},
        "risk_note": "risk evaluated on the first replicate's masked data",
        "version": __version__,
    }
    return StudyResult(rows=tuple(rows), metadata=metadata)


# ---------------------------------------------------------------------------
# Config JSON for the command line

def config_from_json(obj: dict) -> SimConfig:
    """A study from its JSON form, which has SimConfig's fields but for five:
    "field" and each named kernel of the "kernels" object are read by their own
    codecs, the scenario's errors name its fields without a "scenario." prefix,
    "grid": {"nx", "ny"} holds grid_nx and grid_ny, and a null or empty
    "lambdas" selects the default grid."""
    kernels = _json_object(obj["kernels"], "kernels")
    scenario = obj.get("scenario")
    grid = _json_object(obj.get("grid"), "grid")
    lambdas = obj.get("lambdas")
    return _from_json(
        SimConfig, obj,
        field=field_from_json(_json_object(obj["field"], "field")),
        kernels=tuple((name, kernel_from_json(_json_object(kernel, f"kernels.{name}")))
                      for name, kernel in kernels.items()),
        scenario=None if scenario is None
        else scenario_from_json(_json_object(scenario, "scenario")),
        lambdas=MISSING if lambdas in (None, [])
        else _json_value(tuple[float, ...], lambdas, "lambdas"),
        **{f"grid_{k}": _json_value(int, grid[k], f"grid.{k}") if k in grid else MISSING
           for k in ("nx", "ny")},
    )
