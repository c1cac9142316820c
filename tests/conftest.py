"""Shared fixtures: a non-exponential kernel, small dataset builders and a location strategy."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from smoothmask.dataset import SpatialDataset
from smoothmask.kernels import KernelFamily


class PolynomialDecayKernel(KernelFamily):
    """W = 1 / (1 + d / lam) with d = squared separation / scale.

    Unlike the built-in exponential-decay families, the derivative of the
    normalized weights at zero smoothness does not vanish, which makes this
    the reference kernel for exercising the finite-difference bias path.
    """

    def __init__(self, scale: float = 1.0):
        self.scale = scale

    def weight_matrix(self, locs: np.ndarray, lam: float) -> np.ndarray:
        d = locs[:, None, :] - locs[None, :, :]
        dist = (d[..., 0] ** 2 + d[..., 1] ** 2) / self.scale
        if lam == 0.0:
            return (dist == 0.0).astype(float)
        return 1.0 / (1.0 + dist / lam)


@pytest.fixture
def poly_kernel() -> PolynomialDecayKernel:
    return PolynomialDecayKernel(scale=0.01)


def grid_locations(nx: int = 10, ny: int = 5) -> np.ndarray:
    """Well-separated deterministic locations inside the unit study square."""
    gx, gy = np.meshgrid(np.linspace(-0.9, 0.9, nx), np.linspace(-0.8, 0.8, ny))
    return np.column_stack([gx.ravel(), gy.ravel()])


def random_dataset(n: int, p: int = 1, seed: int = 0, with_counts: bool = False) -> SpatialDataset:
    rng = np.random.default_rng(seed)
    return SpatialDataset(
        ids=tuple(f"r{i:04d}" for i in range(n)),
        locs=rng.uniform(-1.0, 1.0, (n, 2)),
        x=rng.normal(0.0, 1.0, (n, p)),
        y=rng.normal(0.0, 1.0, n),
        x_names=tuple(f"x{j + 1}" for j in range(p)),
        n=rng.integers(1, 40, n).astype(float) if with_counts else None,
    )


# coordinates that stress exact symmetry: signed zeros, a repeated radius, and
# points on both sides of the default blocked region (x > 0.4 and a small angle
# from the +x axis is blocked), whose ring_block distance is infinite
SPECIAL_POINTS = ((0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (0.0, 0.5), (-0.0, 0.5),
                  (0.5, 0.0), (0.5, -0.0), (1.0, 0.1), (0.9, -0.2), (0.4, 0.0), (-0.5, -0.5))


@st.composite
def symmetry_locs(draw, max_rows: int = 25) -> np.ndarray:
    point = st.one_of(st.tuples(st.floats(-2, 2), st.floats(-2, 2)),
                      st.sampled_from(SPECIAL_POINTS))
    rows = draw(st.lists(point, min_size=1, max_size=max_rows))
    # duplicated rows, anywhere in the array
    dups = draw(st.lists(st.integers(0, len(rows) - 1), max_size=5))
    return np.array(rows + [rows[i] for i in dups], dtype=float).reshape(-1, 2)
