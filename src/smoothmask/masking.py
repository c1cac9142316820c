"""Row-stochastic masking operators and their application to datasets.

Masked outcomes/regressors are weighted averages of the originals: the
row-transform special case of matrix masking, with one shared operator
applied to the outcome and every regressor column. A masked release is
itself a SpatialDataset, and so is the grid aggregation a two-step release
smooths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import GridSpec, SpatialDataset, _readonly, aggregate, coords_array
from .kernels import KernelFamily, _check_lambda


@dataclass(frozen=True)
class MaskingOperator:
    """Dense n x n row-stochastic matrix and a read-only copy of the locations it was built on."""

    a: np.ndarray
    locs: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.a, dtype=float)
        a.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "locs", _readonly(coords_array(self.locs)))

    @property
    def n(self) -> int:
        return self.a.shape[0]

    def apply(self, data: SpatialDataset) -> SpatialDataset:
        """Smooth the outcome and all regressor columns; count weights pass through."""
        if data.n_records != self.n:
            raise ValueError(f"operator is {self.n} x {self.n} but dataset has {data.n_records} records")
        if not np.array_equal(data.locs, self.locs):
            raise ValueError("operator was built on different locations than this dataset")
        return data.replace_values(x=self.a @ data.x, y=self.a @ data.y)


def build_operator(locs, kernel: KernelFamily, lam: float) -> MaskingOperator:
    """Normalize kernel weights over the given locations into a row-stochastic matrix.

    lam is checked by kernels._check_lambda before the kernel is called. The
    self-weight is included in each row's normalizing sum, which must be
    positive. The operator is the exact dense n x n matrix: 8 n**2 bytes.
    """
    locs = coords_array(locs)
    w = kernel.weight_matrix(locs, _check_lambda(lam))
    sums = w.sum(axis=1)
    dead = ~(sums > 0)
    if dead.any():
        raise ValueError(f"row {int(np.argmax(dead))} has all-zero weights; cannot normalize")
    w /= sums[:, None]
    return MaskingOperator(a=w, locs=locs)


def mask_dataset(data: SpatialDataset, kernel: KernelFamily, lam: float) -> SpatialDataset:
    """Build the operator on the dataset's own locations and apply it."""
    return build_operator(data.locs, kernel, lam).apply(data)


def compose_two_step(data: SpatialDataset, grid: GridSpec, kernel: KernelFamily,
                     lam: float) -> SpatialDataset:
    """Aggregate to grid cells (a SpatialDataset, see aggregate), then smooth the
    cell-level data over the cell centers.

    The cell outcome is smoothed as a rate (y / n), then rescaled back to a
    count by the unsmoothed cell size; counts themselves are never smoothed.
    """
    cells = aggregate(data, grid)
    a = build_operator(cells.locs, kernel, lam).a
    return cells.replace_values(x=a @ cells.x, y=(a @ (cells.y / cells.n)) * cells.n)


def operator_to_csv(op: MaskingOperator, path) -> None:
    """Audit export of the full matrix. Releasing the weights together with the
    smoothness value enables reconstruction of the originals whenever the
    matrix is invertible, so exported operators must be handled as confidential."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(f"a_{j}" for j in range(op.n)) + "\n")
        for row in op.a:   # one row at a time: the text of the whole matrix is never held
            fh.write(",".join(map(repr, row.tolist())) + "\n")
