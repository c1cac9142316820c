"""Identification disclosure risk of a release, a masked SpatialDataset.

An intruder holding the true values of the "available" columns for every
individual matches each of their records against the release. Per-record
matching probabilities combine, via Bayes' rule with a uniform prior:
a distance-based probability on the available columns, a Monte Carlo
integral over the unobserved true values for the sought columns, and a
cross-record term fixed at its upper bound of 1. The dataset-level risk is
the expected percentage of correct matches under argmax matching.

The array work runs on columns and blocks. Distances are summed over
per-column planes (the sought-column draws as contiguous (rows, mc_draws)
planes, the Fortran-ordered available columns as contiguous vectors), and the
targets are normalised, argmax-matched and tie-scored a block of rows at a
time in one reused scratch array. Both kinds of block take the element budget
of a weight-matrix row block (kernels._BLOCK_ELEMS): each is a cache-sized
temporary, and no value depends on its size. Of each target's probability row
only the maximum, the own-record probability and the argmax set's size and
hit are kept, each in one column of the RiskReport, so scoring k targets
against n records holds O(block * n + k) memory; match_probabilities returns
the whole rows instead: k rows of n floats, all from one context, so the
standardization, regression and sought-column components are computed once
per call whatever k. With fewer than 8 available or sought columns every
value is bit-identical to the row-at-a-time form.

Only the convex hull of three to six sought columns needs scipy (Qhull); it
is imported there, so scoring up to two sought columns runs on numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import SpatialDataset, _first_repeat, _from_json
from .kernels import _BLOCK_ELEMS, _sq_distance

_TIE_RTOL = 1e-9
# Qhull's facet count grows steeply with dimension. For 1000 Gaussian points on
# a 2-CPU x86 machine the hull took 0.2 s in 6 dimensions, 2 s in 7 and 20 s in
# 8, while scoring 100 draws per record against every row took about 5 s.
_HULL_MAX_DIM = 6
# The 2-D hull chain keeps every point within this height of the hull's lower
# or upper boundary: _COLLINEAR_RTOL of the y span, or _HULL_ROUND times the
# largest |coordinate|, if larger. Qhull's coplanar points ("Qc") lay within
# 5.7 eps times the largest |coordinate| of a facet on random 2-D sets.
_COLLINEAR_RTOL = 2.0 ** -30
_HULL_ROUND = 2.0 ** 6 * np.finfo(float).eps

UPPER_BOUND_NOTE = (
    "cross-record component fixed at 1; reported probabilities and the "
    "correct-match rate are conservative upper bounds"
)


@dataclass(frozen=True)
class IntruderScenario:
    """What the intruder knows (ap_columns) and seeks (u_columns).

    Column names refer to the released regressor names plus "y" for the
    outcome; together the two groups must cover all released columns.
    Distances are measured on columns standardized by the released data's
    standard deviations unless ``standardize`` is off.
    """

    ap_columns: tuple[str, ...]
    u_columns: tuple[str, ...] = ()
    mc_draws: int = 100
    seed: int = 0
    standardize: bool = True
    target_ids: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "ap_columns", tuple(self.ap_columns))
        object.__setattr__(self, "u_columns", tuple(self.u_columns))
        if set(self.ap_columns) & set(self.u_columns):
            raise ValueError("available and sought columns must be disjoint")
        repeated = _first_repeat(self.ap_columns + self.u_columns)
        if repeated is not None:
            raise ValueError(f"column {repeated!r} is listed twice")
        if not self.ap_columns:
            raise ValueError("the intruder must know at least one column")
        if self.mc_draws < 1:
            raise ValueError("mc_draws must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        if self.target_ids is not None:
            object.__setattr__(self, "target_ids", tuple(self.target_ids))
            if not self.target_ids:
                raise ValueError("target_ids must name at least one record; "
                                 "null targets every record")
            repeated = _first_repeat(self.target_ids)
            if repeated is not None:
                raise ValueError(f"target id {repeated!r} is listed twice")


def scenario_from_json(obj: dict) -> IntruderScenario:
    return _from_json(IntruderScenario, obj)


@dataclass(frozen=True)
class RiskReport:
    """Matching outcome of every target, as read-only columns in target order.

    Only summaries of each target's probability row are kept; the rows
    themselves come from match_probabilities.
    """

    target_ids: np.ndarray       # object array of the targets' record ids
    max_prob: np.ndarray         # largest matching probability over released records
    m: np.ndarray                # size of the argmax set (ties within 1e-9 relative)
    correct_in_argmax: np.ndarray
    prob_correct: np.ndarray
    expected_correct_rate: float
    degenerate: int              # targets whose available-column distances were all zero
    note: str = UPPER_BOUND_NOTE


def _column_block(ds: SpatialDataset, names: tuple[str, ...]) -> np.ndarray:
    if not names:
        return np.empty((ds.n_records, 0))
    return np.column_stack([ds.column(name) for name in names])


def check_scenario_fits(scenario: IntruderScenario, x_names, ids) -> None:
    """Raise ValueError unless the scenario fits the release.

    The release is described by its regressor names and record ids. The
    scenario's columns must cover exactly the released columns, and every
    target id must name a released record.
    """
    released = set(x_names) | {"y"}
    declared = set(scenario.ap_columns) | set(scenario.u_columns)
    if declared != released:
        raise ValueError(
            f"scenario columns {sorted(declared)} must cover exactly the released "
            f"columns {sorted(released)}"
        )
    if scenario.target_ids is not None:
        known = set(ids)
        unknown = [t for t in scenario.target_ids if t not in known]
        if unknown:
            raise ValueError(f"target ids not present in the released data: {unknown[:3]}")


def ap_components(masked_ap: np.ndarray, t_ap: np.ndarray,
                  out: np.ndarray | None = None) -> tuple[np.ndarray, bool]:
    """Distance-based probability of each released record's available columns.

    Returns (components, degenerate). Component j is 1 - d_j / max_k d_k with
    Euclidean d; when every distance is zero the components are all ones and
    the degenerate flag is set (the caller treats the factor as uniform).
    Distances are summed column by column, which reads contiguous memory when
    ``masked_ap`` is in Fortran order. The components are written into
    ``out`` when it is given.
    """
    d = _sq_distance(masked_ap.T, t_ap)
    d = np.sqrt(d, out=d if out is None else out)
    dmax = d.max()
    if dmax == 0.0:
        d[:] = 1.0
        return d, True
    d /= dmax
    return np.subtract(1.0, d, out=d), False


def _hull_chain_2d(pts: np.ndarray) -> np.ndarray:
    """Indices of the points on or near the convex hull of distinct 2-D points.

    ``pts`` is sorted lexicographically, as np.unique returns it. Andrew's
    monotone chain builds the lower hull left to right and the upper hull
    right to left. A point a between chain point o and a later point p is
    dropped only when their cross product is below -tol = -span_x * height,
    the height set by _COLLINEAR_RTOL and _HULL_ROUND. The cross product is
    -(height of a beyond the line o-p) * |p_x - o_x|, and that line lies
    inside the hull, so every point within the height of the boundary stays,
    points on an edge included; a vertex has a cross product >= 0, and its
    rounding error is far below tol. The loop runs over Python floats, which
    is several times faster than over numpy scalars.
    """
    xs, ys = pts[:, 0].tolist(), pts[:, 1].tolist()
    height = max(_COLLINEAR_RTOL * (max(ys) - min(ys)), _HULL_ROUND * float(np.abs(pts).max()))
    tol = (xs[-1] - xs[0]) * height
    keep = set()
    for order in (range(len(xs)), range(len(xs) - 1, -1, -1)):
        chain = []
        for i in order:
            x, y = xs[i], ys[i]
            while len(chain) >= 2:
                o, a = chain[-2], chain[-1]
                ox, oy = xs[o], ys[o]
                # a NaN from an overflowing product keeps the point
                if (xs[a] - ox) * (y - oy) - (ys[a] - oy) * (x - ox) < -tol:
                    chain.pop()
                else:
                    break
            chain.append(i)
        keep.update(chain)
    return np.array(sorted(keep))


def _farthest_candidates(masked_u: np.ndarray) -> np.ndarray:
    """Released points among which the farthest one from any query must lie.

    The farthest point of a finite set from any query is an extreme point of
    the set, so only the convex hull's vertices are needed; in one dimension
    these are the min and the max. Points within roundoff of the hull's
    boundary are kept too, since they may tie the farthest vertex to the last
    ulp. In two dimensions a monotone chain finds them (_hull_chain_2d); in
    three to _HULL_MAX_DIM, Qhull with its coplanar points ("Qc"), imported
    from scipy only then. Sets Qhull cannot triangulate (too few points,
    collinear or flat sets, a constant column) and dimensions above
    _HULL_MAX_DIM fall back to every distinct row.
    """
    # asking for the inverse keeps np.unique from importing numpy.ma (~10 ms)
    pts = np.unique(masked_u, axis=0, return_inverse=True)[0]
    if pts.shape[1] == 1:
        return pts[[0, -1]]
    if pts.shape[1] == 2:
        return pts[_hull_chain_2d(pts)]
    if pts.shape[1] > _HULL_MAX_DIM:
        return pts
    from scipy.spatial import ConvexHull, QhullError

    try:
        hull = ConvexHull(pts, qhull_options="Qc")
    except QhullError:
        return pts
    return pts[np.union1d(hull.vertices, hull.coplanar[:, 0])]


def u_components(masked_u: np.ndarray, preds: np.ndarray, resid_sd: np.ndarray,
                 mc_draws: int, rng: np.random.Generator) -> np.ndarray:
    """Monte Carlo integral of the sought-column match probability per record.

    For record j the unobserved true values are drawn around the regression
    prediction at its released available columns; each draw is scored by
    1 - ||masked_u_j - draw|| / max_k ||masked_u_k - draw||, and draws are
    averaged. Zero residual variance collapses to a point mass at the
    prediction.

    The maximum over k runs over the extreme points of masked_u only
    (_farthest_candidates): the farthest released point from any draw is a
    vertex of their convex hull, found with the points near its boundary kept
    so that ties resolve exactly as over all records (a monotone chain for
    two sought columns, Qhull for three to six). When Qhull fails on a
    degenerate set every distinct row is a candidate instead. The result
    equals the all-records maximum exactly, at O(n * mc_draws * h) cost for
    h candidates instead of O(n^2 * mc_draws).

    Records are scored in row blocks of about _BLOCK_ELEMS draw values, which
    take consecutive stretches of one ``standard_normal((n, mc_draws, u_dim))``
    stream. A block's draws are held as u_dim contiguous (rows, mc_draws)
    planes, and distances are summed over them column by column. The running
    maximum is taken over squared distances and rooted once: a correctly
    rounded square root is monotone, so this is the maximum of the roots.
    For u_dim below 8 every value equals the (n, mc_draws, u_dim) form
    bit for bit; from 8 columns on numpy's pairwise inner-axis sum rounds
    differently, within a few ulp.
    """
    n, u_dim = masked_u.shape
    if u_dim == 0:
        return np.ones(n)
    if np.all(resid_sd == 0.0):
        mc_draws = 1  # all draws identical
    candidates = _farthest_candidates(masked_u)
    out = np.empty(n)
    rows = max(1, _BLOCK_ELEMS // (mc_draws * u_dim))
    for s in range(0, n, rows):
        z = rng.standard_normal((min(rows, n - s), mc_draws, u_dim))
        planes = [preds[s:s + rows, k, None] + z[:, :, k] * resid_sd[k] for k in range(u_dim)]
        del z
        num = np.sqrt(_sq_distance(planes, masked_u[s:s + rows].T[:, :, None]))
        dmax = np.zeros_like(num)
        for c in candidates:
            np.maximum(dmax, _sq_distance(planes, c), out=dmax)
        np.sqrt(dmax, out=dmax)
        with np.errstate(invalid="ignore"):  # inf / inf from overflowing draws
            ratio = np.divide(num, dmax, out=np.zeros_like(num), where=dmax > 0.0)
        out[s:s + rows] = np.clip(1.0 - ratio, 0.0, 1.0).mean(axis=1)
    return out


def _regression(masked_ap: np.ndarray, truth_u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """OLS of the true sought columns on the released available columns.

    Returns (predictions at every released record, residual sd per column).
    lstsq tolerates collinear available columns (minimum-norm solution).
    """
    A = np.hstack([np.ones((masked_ap.shape[0], 1)), masked_ap])
    coef, *_ = np.linalg.lstsq(A, truth_u, rcond=None)
    preds = A @ coef
    resid = truth_u - preds
    dof = max(A.shape[0] - A.shape[1], 1)
    var = (resid ** 2).sum(axis=0) / dof
    scale = 1.0 + (truth_u ** 2).mean(axis=0)
    var = np.where(var < 1e-12 * scale, 0.0, var)
    return preds, np.sqrt(var)


@dataclass(frozen=True)
class _Context:
    ds: SpatialDataset
    truth_rows: np.ndarray       # truth values aligned to released record order
    masked_ap: np.ndarray        # Fortran order: each column is contiguous
    u_comp: np.ndarray           # shared across targets: depends only on record j
    target_indices: tuple[int, ...]


def _build_context(ds: SpatialDataset, truth: SpatialDataset,
                   scenario: IntruderScenario) -> _Context:
    check_scenario_fits(scenario, ds.x_names, ds.ids)
    truth_pos = {rid: i for i, rid in enumerate(truth.ids)}
    missing = [rid for rid in ds.ids if rid not in truth_pos]
    if missing:
        raise ValueError(f"truth dataset lacks released record ids, e.g. {missing[:3]}")
    order = [truth_pos[rid] for rid in ds.ids]

    masked_ap = _column_block(ds, scenario.ap_columns)
    masked_u = _column_block(ds, scenario.u_columns)
    truth_ap = _column_block(truth, scenario.ap_columns)[order]
    truth_u = _column_block(truth, scenario.u_columns)[order]

    if scenario.standardize:
        def sds(block: np.ndarray) -> np.ndarray:
            s = block.std(axis=0)
            return np.where(s > 0.0, s, 1.0)

        ap_sd = sds(masked_ap)
        masked_ap = masked_ap / ap_sd
        truth_ap = truth_ap / ap_sd
        u_sd = sds(masked_u)
        masked_u = masked_u / u_sd
        truth_u = truth_u / u_sd

    # with no sought columns u_components returns ones
    preds, resid_sd = _regression(masked_ap, truth_u)
    rng = np.random.default_rng([scenario.seed])
    u_comp = u_components(masked_u, preds, resid_sd, scenario.mc_draws, rng)

    if scenario.target_ids is None:
        target_indices = tuple(range(ds.n_records))
    else:
        pos = {rid: i for i, rid in enumerate(ds.ids)}
        target_indices = tuple(pos[t] for t in scenario.target_ids)
    return _Context(ds=ds, truth_rows=truth_ap, masked_ap=np.asfortranarray(masked_ap),
                    u_comp=u_comp, target_indices=target_indices)


def _scored_blocks(ctx: _Context):
    """Posterior probabilities of the context's targets, a block of rows at a time.

    Yields (target indices, probabilities, degenerate count) per block of
    about _BLOCK_ELEMS values: the probabilities are a (rows, n) view of one
    scratch array, overwritten by the next block, and the count is how many
    of the block's targets had a degenerate available-column factor. Each row
    gets the elementwise arithmetic and row sum of a lone vector, so blocking
    changes no value.
    """
    n = ctx.ds.n_records
    rows = max(1, _BLOCK_ELEMS // n)
    targets = ctx.target_indices
    scratch = np.empty((min(rows, len(targets)), n))
    for s in range(0, len(targets), rows):
        tix = np.asarray(targets[s:s + rows], dtype=np.intp)
        block = scratch[:len(tix)]
        degenerate = 0
        for row, t in zip(block, tix):
            degenerate += ap_components(ctx.masked_ap, ctx.truth_rows[t], out=row)[1]
        # uniform prior 1/n and cross-record component 1 (upper bound)
        block *= ctx.u_comp
        block /= n
        totals = block.sum(axis=1)
        zero = totals == 0.0
        totals[zero] = 1.0
        block /= totals[:, None]
        block[zero] = 1.0 / n
        yield tix, block, degenerate


def match_probabilities(masked: SpatialDataset, truth: SpatialDataset,
                        scenario: IntruderScenario) -> np.ndarray:
    """Posterior matching probabilities of the scenario's targets over all
    released records, as a read-only (k, n) array.

    Row i belongs to the scenario's i-th target, or to the i-th released
    record when ``target_ids`` is None. Every row comes from one context, so
    the sought-column Monte Carlo integral runs once per call, whatever k.
    """
    ctx = _build_context(masked, truth, scenario)
    p = np.empty((len(ctx.target_indices), masked.n_records))
    s = 0
    for tix, block, _ in _scored_blocks(ctx):
        p[s:s + len(tix)] = block
        s += len(tix)
    p.setflags(write=False)
    return p


def risk_report(masked: SpatialDataset, truth: SpatialDataset,
                scenario: IntruderScenario) -> RiskReport:
    """Match every intruder record and summarize the expected correct-match rate.

    A record is matched to the argmax probability set (ties within 1e-9
    relative); a tie of size m containing the correct record contributes 1/m,
    added in target order. Targets are scored a block of rows at a time
    (_scored_blocks), and of each row only its maximum, its own-record
    probability and its argmax set's size and hit fill the report's columns:
    scoring k targets holds O(block * n + k) memory, not one probability
    vector per target.
    """
    ctx = _build_context(masked, truth, scenario)
    k = len(ctx.target_indices)
    max_prob, prob_correct = np.empty(k), np.empty(k)
    m = np.empty(k, dtype=np.intp)
    correct = np.empty(k, dtype=bool)
    s = degenerate = 0
    for tix, block, block_degenerate in _scored_blocks(ctx):
        degenerate += block_degenerate
        rows = slice(s, s + len(tix))
        max_prob[rows] = block.max(axis=1)
        sel = block >= (max_prob[rows] * (1.0 - _TIE_RTOL))[:, None]
        own = np.arange(len(tix)), tix
        m[rows] = np.count_nonzero(sel, axis=1)
        correct[rows] = sel[own]
        prob_correct[rows] = block[own]
        s += len(tix)
    # a running sum adds each hit's 1/m in target order; np.sum would pair them
    hits = np.cumsum(1.0 / m[correct])
    rate = float(hits[-1]) / k if hits.size else 0.0
    target_ids = np.array(ctx.ds.ids, dtype=object)[list(ctx.target_indices)]
    for column in (target_ids, max_prob, m, correct, prob_correct):
        column.setflags(write=False)
    return RiskReport(target_ids=target_ids, max_prob=max_prob, m=m,
                      correct_in_argmax=correct, prob_correct=prob_correct,
                      expected_correct_rate=rate, degenerate=degenerate)


def expected_correct_rate(masked: SpatialDataset, truth: SpatialDataset,
                          scenario: IntruderScenario) -> float:
    """Dataset-level identification disclosure risk in [0, 1]."""
    return risk_report(masked, truth, scenario).expected_correct_rate
