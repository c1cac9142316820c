"""Weight-function families defining the form of masking, plus their geometric primitives.

Every built-in family evaluates as exp(-d(u, s) / lambda) for a family-specific
nonnegative internal distance d (infinite across a blocked-region boundary), so
they share one exponential-decay base class. Every such distance is exactly
symmetric, so the base class builds the weight matrix from its upper triangle
and mirrors it: each pair of locations is evaluated once. The Euclidean and
bivariate-normal distances (the latter on whitened coordinates) and risk
scoring share one squared-distance routine and one block budget. The abstract
KernelFamily admits other decay shapes; the masking operator only requires a
weight matrix.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .dataset import (Location, _from_json, _json_object, _registered, _registered_name,
                      _to_json, coords_array)


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
        # a length within 4 eps of 1 (one pass leaves at most 2.5) is kept, so a
        # normalised direction stays as it is; a subnormal input takes two passes
        while abs(norm - 1.0) > 4 * np.finfo(float).eps:
            d1, d2 = d1 / norm, d2 / norm
            norm = math.hypot(d1, d2)
        object.__setattr__(self, "direction", (d1, d2))


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


# Element budget of one row block in weight_matrix and in risk scoring: 2**15
# float64 values are 256 KiB, so a block's temporaries stay in a 2 MiB L2
# cache instead of streaming n x n temporaries through memory. At 2**16 the
# risk scratch block split the heap between a study's successive operators
# and raised its peak RSS by 6 MB on about a third of seeds.
_BLOCK_ELEMS = 2 ** 15


def _sq_distance(planes, point) -> np.ndarray:
    """Squared Euclidean distance from ``point`` to the entries of ``planes``.

    ``planes`` holds one array per coordinate and ``point`` one value (or a
    broadcastable column, (k, 1) against planes of m values for a (k, m)
    block) per coordinate. The squares are added coordinate by coordinate, left
    to right, the order numpy's inner-axis sum uses below 8 columns; as
    (a - b)**2 is (b - a)**2 exactly, swapping the two point sets transposes
    the result bit for bit.
    """
    acc = None
    for plane, c in zip(planes, point):
        diff = plane - c
        diff *= diff
        if acc is None:
            acc = diff
        else:
            acc += diff
    return acc


class ExponentialDecayKernel(KernelFamily):
    """Families of the form exp(-d(u, s) / lambda); d may be +inf (hard block)."""

    @abstractmethod
    def distance_matrix(self, locs: np.ndarray, others: np.ndarray) -> np.ndarray:
        """Internal distances from each row of ``locs`` to each row of ``others``.

        The square form ``distance_matrix(locs, locs)`` has exact zeros on the
        diagonal. Each entry depends only on its own pair of points, so rows a:b
        of the square form are ``distance_matrix(locs[a:b], locs)`` exactly,
        and it is exactly symmetric: ``distance_matrix(a, b)`` equals
        ``distance_matrix(b, a).T`` bit for bit. ``weight_matrix`` relies on
        that symmetry and computes only the upper triangle; a subclass whose
        distances are not exactly symmetric must override ``weight_matrix``.
        """

    def weight_matrix(self, locs: np.ndarray, lam: float) -> np.ndarray:
        """exp(-d / lam) over all pairs, each pair evaluated once.

        Row block [s, e) of about _BLOCK_ELEMS entries copies the weights left
        of its diagonal block, w[s:e, :s], transposed from the rows above it,
        then computes the distances from locs[s:e] to locs[s:] only and writes
        their weights into w[s:e, s:]. Copying into the block's own rows, which
        exp writes next, keeps the writes contiguous and in cache. The
        elementwise arithmetic is that of the full square form (d / -lam is
        -d / lam exactly), and the distances are exactly symmetric, so every
        weight is bit-identical to it.
        """
        _check_lambda(lam)
        locs = coords_array(locs)
        n = len(locs)
        w = np.empty((n, n))
        rows = max(1, _BLOCK_ELEMS // max(n, 1))
        with np.errstate(over="ignore"):
            for s in range(0, n, rows):
                e = min(s + rows, n)
                w[s:e, :s] = w[:s, s:e].T
                d = self.distance_matrix(locs[s:e], locs[s:])
                if lam == 0.0:
                    # limit of exp(-d/lam): ties at distance exactly 0 get weight 1
                    w[s:e, s:] = d == 0.0
                else:
                    np.divide(d, -lam, out=d)
                    np.exp(d, out=w[s:e, s:])
        return w


def _check_lambda(lam: float) -> None:
    if not (isinstance(lam, (int, float)) and math.isfinite(lam) and lam >= 0):
        raise ValueError(f"smoothness parameter must be a finite real >= 0, got {lam!r}")


def _ring_distance(locs: np.ndarray, others: np.ndarray, source: PointSource) -> np.ndarray:
    d = _radius_sq(locs, source)[:, None] - _radius_sq(others, source)[None, :]
    return np.abs(d, out=d)


@dataclass(frozen=True)
class EuclideanKernel(ExponentialDecayKernel):
    """exp(-||s - u||^2 / lambda): weight by plain Euclidean proximity."""

    def distance_matrix(self, locs: np.ndarray, others: np.ndarray) -> np.ndarray:
        # one contiguous plane per coordinate, not the stride-2 columns of an (n, 2) array
        return _sq_distance(np.ascontiguousarray(others.T), locs.T[:, :, None])


@dataclass(frozen=True)
class RingKernel(ExponentialDecayKernel):
    """exp(-|r_s^2 - r_u^2| / lambda): weight by matching radius from the source."""

    source: PointSource = PointSource()

    def distance_matrix(self, locs: np.ndarray, others: np.ndarray) -> np.ndarray:
        return _ring_distance(locs, others, self.source)


@dataclass(frozen=True)
class RingAngleKernel(ExponentialDecayKernel):
    """exp(-(|r_s^2 - r_u^2| + angle_scale * |cos(theta_s) - cos(theta_u)|) / lambda)."""

    source: PointSource = PointSource()
    angle_scale: float = 2.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.angle_scale) and self.angle_scale >= 0):
            raise ValueError("angle_scale must be finite and >= 0")

    def distance_matrix(self, locs: np.ndarray, others: np.ndarray) -> np.ndarray:
        t = _direction_cosines(locs, self.source)[:, None] - _direction_cosines(others, self.source)
        np.abs(t, out=t)
        t *= self.angle_scale
        t += _ring_distance(locs, others, self.source)
        return t


@dataclass(frozen=True)
class RingBlockKernel(ExponentialDecayKernel):
    """Ring weight restricted to pairs on the same side of the blocked region."""

    region: BlockRegion = BlockRegion()

    def distance_matrix(self, locs: np.ndarray, others: np.ndarray) -> np.ndarray:
        d = _ring_distance(locs, others, self.region.source)
        ind = _unblocked_mask(locs, self.region)
        ind_o = _unblocked_mask(others, self.region)
        d[ind[:, None] != ind_o[None, :]] = np.inf
        return d


@dataclass(frozen=True)
class BivariateNormalKernel(ExponentialDecayKernel):
    """exp(-(s-u)^T Sigma_lambda^{-1} (s-u) / 2) with Sigma_lambda = lambda * [[v1, rho*sd1*sd2], ...].

    With u_k = s_k / sqrt(v_k) and whitened z = (u1, (u2 - rho u1) / sqrt(1 - rho^2))
    / sqrt(2), (s-u)^T Sigma^{-1} (s-u) / 2 = |z(s) - z(u)|^2. z is elementwise per
    point, so it is the same in every block: the distances are exactly symmetric,
    with exact zeros on the diagonal. No determinant is formed, so any positive
    finite variances work: tiny ones, which zero every distinct pair's weight,
    give the identity operator on distinct locations; huge ones, which round
    every distance to 0, give the uniform operator (each masked value is its
    column mean).
    """

    var1: float = 1.0
    var2: float = 1.0
    rho: float = 0.0

    def __post_init__(self) -> None:
        if not (self.var1 > 0 and self.var2 > 0 and math.isfinite(self.var1) and math.isfinite(self.var2)):
            raise ValueError("variances must be positive and finite")
        if not (-1.0 < self.rho < 1.0):
            raise ValueError("correlation must lie strictly inside (-1, 1)")

    def _whitened(self, locs: np.ndarray) -> np.ndarray:
        """(2, n) planes of the whitened coordinates z of each location."""
        # sqrt(2) * sqrt(v), as sqrt(2 v) overflows for v near the float maximum
        z1 = locs[:, 0] / (math.sqrt(2.0) * math.sqrt(self.var1))
        z2 = ((locs[:, 1] / (math.sqrt(2.0) * math.sqrt(self.var2)) - self.rho * z1)
              / math.sqrt((1.0 - self.rho) * (1.0 + self.rho)))
        return np.stack((z1, z2))

    def distance_matrix(self, locs: np.ndarray, others: np.ndarray) -> np.ndarray:
        return _sq_distance(self._whitened(others), self._whitened(locs)[:, :, None])


# ---------------------------------------------------------------------------
# JSON form used by CLI configs: {"family": ..., "params": {...}}, where params
# holds the family's dataclass fields (a Location as [s1, s2])

KERNELS = {
    "euclidean": EuclideanKernel,
    "ring": RingKernel,
    "ring_angle": RingAngleKernel,
    "ring_block": RingBlockKernel,
    "bivariate_normal": BivariateNormalKernel,
}


def kernel_to_json(kernel: KernelFamily) -> dict:
    return {"family": _registered_name(KERNELS, kernel, "kernel"), "params": _to_json(kernel)}


def kernel_from_json(obj: dict) -> KernelFamily:
    family = _registered(KERNELS, obj.get("family"), "kernel family")
    return _from_json(family, _json_object(obj.get("params"), "params"))
