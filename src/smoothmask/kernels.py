"""Weight-function families defining the form of masking, plus their geometric primitives.

Every built-in family evaluates as exp(-d(u, s) / lambda) for a family-specific
nonnegative internal distance d (infinite across a blocked-region boundary), so
they share one exponential-decay base class. The abstract KernelFamily admits
other decay shapes; the masking operator only requires a weight matrix.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .dataset import Location, _json_numbers, coords_array


@dataclass(frozen=True)
class PointSource:
    """Emission point with a unit direction for directional weights/exposures."""

    loc: Location = Location(0.0, 0.0)
    direction: tuple[float, float] = (1.0, 0.0)

    def __post_init__(self) -> None:
        d1, d2 = float(self.direction[0]), float(self.direction[1])
        norm = math.hypot(d1, d2)
        if not (math.isfinite(norm) and norm > 0):
            raise ValueError("direction must be a nonzero finite vector")
        object.__setattr__(self, "direction", (d1 / norm, d2 / norm))


@dataclass(frozen=True)
class BlockRegion:
    """Unblocked-area predicate: s_x <= threshold_x or cos(angle from +x axis) <= threshold_cos."""

    threshold_x: float = 0.4
    threshold_cos: float = 0.625
    source: PointSource = PointSource()


def _radius_sq(locs: np.ndarray, source: PointSource) -> np.ndarray:
    """Squared Euclidean distance from each location to the point source."""
    d = locs - source.loc.as_array()
    return d[:, 0] ** 2 + d[:, 1] ** 2


def _direction_cosines(locs: np.ndarray, source: PointSource) -> np.ndarray:
    """Cosine of the angle between (s - source) and the source direction per location.

    Defined as 1 at the singular point s == source so weights stay total.
    """
    v = locs - source.loc.as_array()
    norm = np.hypot(v[:, 0], v[:, 1])
    out = np.ones(len(locs))
    nz = norm > 0
    out[nz] = (v[nz, 0] * source.direction[0] + v[nz, 1] * source.direction[1]) / norm[nz]
    return out


def _unblocked_mask(locs: np.ndarray, region: BlockRegion) -> np.ndarray:
    """True where a location lies in the unblocked area.

    The angular condition always measures from the positive first axis at the
    source, independent of the source's own direction vector.
    """
    axis = PointSource(loc=region.source.loc, direction=(1.0, 0.0))
    return (locs[:, 0] <= region.threshold_x) | (
        _direction_cosines(locs, axis) <= region.threshold_cos
    )


class KernelFamily(ABC):
    """A masking weight family W_lambda(u, s)."""

    @abstractmethod
    def weight_matrix(self, locs: np.ndarray, lam: float) -> np.ndarray:
        """(n, n) matrix of W_lambda(locs[i], locs[j]); lam = 0 means the limit weights.

        Returns a new array that the caller may modify in place.
        """


# Element budget of one row block in ExponentialDecayKernel.weight_matrix:
# 2**16 float64 values are 512 KiB, so a block's distance temporaries stay in
# a 2 MiB L2 cache instead of streaming n x n temporaries through memory.
_BLOCK_ELEMS = 2 ** 16


class ExponentialDecayKernel(KernelFamily):
    """Families of the form exp(-d(u, s) / lambda); d may be +inf (hard block)."""

    @abstractmethod
    def distance_matrix(self, locs: np.ndarray, others: np.ndarray | None = None) -> np.ndarray:
        """Internal distances from each row of ``locs`` to each row of ``others``.

        ``others`` defaults to ``locs``; that square form has exact zeros on the
        diagonal and is exactly symmetric. Each entry depends only on its own
        pair of points, so ``distance_matrix(locs[a:b], locs)`` equals
        ``distance_matrix(locs)[a:b]`` exactly.
        """

    def weight_matrix(self, locs: np.ndarray, lam: float) -> np.ndarray:
        """exp(-d / lam) over all pairs, built in row blocks of about _BLOCK_ELEMS entries.

        Blocks keep each distance temporary in cache; the elementwise arithmetic
        is that of the unblocked form, so every weight is bit-identical to it.
        """
        _check_lambda(lam)
        locs = coords_array(locs)
        n = len(locs)
        w = np.empty((n, n))
        rows = max(1, _BLOCK_ELEMS // max(n, 1))
        with np.errstate(over="ignore"):
            for s in range(0, n, rows):
                d = self.distance_matrix(locs[s:s + rows], locs)
                if lam == 0.0:
                    # limit of exp(-d/lam): ties at distance exactly 0 get weight 1
                    w[s:s + rows] = d == 0.0
                else:
                    np.negative(d, out=d)
                    d /= lam
                    np.exp(d, out=w[s:s + rows])
        return w


def _check_lambda(lam: float) -> None:
    if not (isinstance(lam, (int, float)) and math.isfinite(lam) and lam >= 0):
        raise ValueError(f"smoothness parameter must be a finite real >= 0, got {lam!r}")


def _coord_diffs(locs: np.ndarray, others: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # one contiguous array per coordinate, not an (n, m, 2) array read with stride 2
    return locs[:, None, 0] - others[None, :, 0], locs[:, None, 1] - others[None, :, 1]


def _ring_distance(locs: np.ndarray, others: np.ndarray, source: PointSource) -> np.ndarray:
    r = _radius_sq(locs, source)
    r_o = _radius_sq(others, source)
    return np.abs(r[:, None] - r_o[None, :])


@dataclass(frozen=True)
class EuclideanKernel(ExponentialDecayKernel):
    """exp(-||s - u||^2 / lambda): weight by plain Euclidean proximity."""

    def distance_matrix(self, locs: np.ndarray, others: np.ndarray | None = None) -> np.ndarray:
        d1, d2 = _coord_diffs(locs, locs if others is None else others)
        return d1 ** 2 + d2 ** 2


@dataclass(frozen=True)
class RingKernel(ExponentialDecayKernel):
    """exp(-|r_s^2 - r_u^2| / lambda): weight by matching radius from the source."""

    source: PointSource = PointSource()

    def distance_matrix(self, locs: np.ndarray, others: np.ndarray | None = None) -> np.ndarray:
        return _ring_distance(locs, locs if others is None else others, self.source)


@dataclass(frozen=True)
class RingAngleKernel(ExponentialDecayKernel):
    """exp(-(|r_s^2 - r_u^2| + angle_scale * |cos(theta_s) - cos(theta_u)|) / lambda)."""

    source: PointSource = PointSource()
    angle_scale: float = 2.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.angle_scale) and self.angle_scale >= 0):
            raise ValueError("angle_scale must be finite and >= 0")

    def distance_matrix(self, locs: np.ndarray, others: np.ndarray | None = None) -> np.ndarray:
        others = locs if others is None else others
        c = _direction_cosines(locs, self.source)
        c_o = _direction_cosines(others, self.source)
        return (_ring_distance(locs, others, self.source)
                + self.angle_scale * np.abs(c[:, None] - c_o[None, :]))


@dataclass(frozen=True)
class RingBlockKernel(ExponentialDecayKernel):
    """Ring weight restricted to pairs on the same side of the blocked region."""

    region: BlockRegion = BlockRegion()

    def distance_matrix(self, locs: np.ndarray, others: np.ndarray | None = None) -> np.ndarray:
        others = locs if others is None else others
        d = _ring_distance(locs, others, self.region.source)
        ind = _unblocked_mask(locs, self.region)
        ind_o = _unblocked_mask(others, self.region)
        d[ind[:, None] != ind_o[None, :]] = np.inf
        return d


@dataclass(frozen=True)
class BivariateNormalKernel(ExponentialDecayKernel):
    """exp(-(s-u)^T Sigma_lambda^{-1} (s-u) / 2) with Sigma_lambda = lambda * [[v1, rho*sd1*sd2], ...]."""

    var1: float = 1.0
    var2: float = 1.0
    rho: float = 0.0

    def __post_init__(self) -> None:
        if not (self.var1 > 0 and self.var2 > 0 and math.isfinite(self.var1) and math.isfinite(self.var2)):
            raise ValueError("variances must be positive and finite")
        if not (-1.0 < self.rho < 1.0):
            raise ValueError("correlation must lie strictly inside (-1, 1)")

    def _precision(self) -> tuple[float, float, float]:
        # inverse of [[v1, b], [b, v2]] with b = rho * sqrt(v1 v2)
        b = self.rho * math.sqrt(self.var1 * self.var2)
        det = self.var1 * self.var2 - b * b
        return self.var2 / det, -b / det, self.var1 / det

    def distance_matrix(self, locs: np.ndarray, others: np.ndarray | None = None) -> np.ndarray:
        a, b, c = self._precision()
        d1, d2 = _coord_diffs(locs, locs if others is None else others)
        q = a * d1 ** 2 + 2.0 * b * d1 * d2 + c * d2 ** 2
        return np.maximum(q / 2.0, 0.0)


def eval_weight(kernel: KernelFamily, u: Location, s: Location, lam: float) -> float:
    """W_lambda(u, s) for any family; lam = 0 evaluates the limit weights."""
    _check_lambda(lam)
    locs = np.array([u.as_array(), s.as_array()])
    return float(kernel.weight_matrix(locs, lam)[0, 1])


# ---------------------------------------------------------------------------
# JSON form used by CLI configs: {"family": ..., "params": {...}}

def _source_to_json(src: PointSource) -> dict:
    return {"loc": [src.loc.s1, src.loc.s2], "direction": list(src.direction)}


def _source_from_json(obj: dict | None) -> PointSource:
    if obj is None:
        return PointSource()
    s1, s2 = _json_numbers(obj.get("loc", [0.0, 0.0]), "source.loc", 2)
    return PointSource(loc=Location(s1, s2),
                       direction=_json_numbers(obj.get("direction", [1.0, 0.0]),
                                               "source.direction", 2))


def _region_to_json(region: BlockRegion) -> dict:
    return {
        "threshold_x": region.threshold_x,
        "threshold_cos": region.threshold_cos,
        "source": _source_to_json(region.source),
    }


def _region_from_json(obj: dict | None) -> BlockRegion:
    if obj is None:
        return BlockRegion()
    return BlockRegion(
        threshold_x=float(obj.get("threshold_x", 0.4)),
        threshold_cos=float(obj.get("threshold_cos", 0.625)),
        source=_source_from_json(obj.get("source")),
    )


def kernel_to_json(kernel: KernelFamily) -> dict:
    if isinstance(kernel, EuclideanKernel):
        return {"family": "euclidean", "params": {}}
    if isinstance(kernel, RingAngleKernel):
        return {"family": "ring_angle",
                "params": {"source": _source_to_json(kernel.source),
                           "angle_scale": kernel.angle_scale}}
    if isinstance(kernel, RingBlockKernel):
        return {"family": "ring_block", "params": {"region": _region_to_json(kernel.region)}}
    if isinstance(kernel, RingKernel):
        return {"family": "ring", "params": {"source": _source_to_json(kernel.source)}}
    if isinstance(kernel, BivariateNormalKernel):
        return {"family": "bivariate_normal",
                "params": {"var1": kernel.var1, "var2": kernel.var2, "rho": kernel.rho}}
    raise ValueError(f"kernel {type(kernel).__name__} has no JSON form")


def kernel_from_json(obj: dict) -> KernelFamily:
    family = obj.get("family")
    params = obj.get("params") or {}
    if family == "euclidean":
        return EuclideanKernel()
    if family == "ring":
        return RingKernel(source=_source_from_json(params.get("source")))
    if family == "ring_angle":
        return RingAngleKernel(
            source=_source_from_json(params.get("source")),
            angle_scale=float(params.get("angle_scale", 2.0)),
        )
    if family == "ring_block":
        return RingBlockKernel(region=_region_from_json(params.get("region")))
    if family == "bivariate_normal":
        return BivariateNormalKernel(
            var1=float(params.get("var1", 1.0)),
            var2=float(params.get("var2", 1.0)),
            rho=float(params.get("rho", 0.0)),
        )
    raise ValueError(f"unknown kernel family {family!r}")
