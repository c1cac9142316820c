"""Spatial data model: records at point locations, CSV ingestion, grid aggregation."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator
import numpy as np


class ParseError(ValueError):
    """Raised when a CSV file cannot be ingested; message carries the file line."""


@dataclass(frozen=True)
class Location:
    """A point in the (dimensionless) study plane."""

    s1: float
    s2: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.s1) and math.isfinite(self.s2)):
            raise ValueError(f"location coordinates must be finite, got ({self.s1}, {self.s2})")

    def as_array(self) -> np.ndarray:
        return np.array([self.s1, self.s2], dtype=float)


def coords_array(locs) -> np.ndarray:
    """Coerce Locations / pairs / an (n, 2) array to a float (n, 2) array."""
    if isinstance(locs, np.ndarray):
        arr = np.asarray(locs, dtype=float)
    else:
        arr = np.array(
            [loc.as_array() if isinstance(loc, Location) else loc for loc in locs],
            dtype=float,
        )
    arr = np.atleast_2d(arr)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"locations must have shape (n, 2), got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("locations contain non-finite coordinates")
    return arr


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class SpatialDataset:
    """N records of (id, location, regressor vector, outcome, optional count weight).

    Arrays are defensively copied and marked read-only; instances are safe to
    share across concurrent tasks.
    """

    ids: tuple[str, ...]
    locs: np.ndarray          # (n, 2)
    x: np.ndarray             # (n, p)
    y: np.ndarray             # (n,)
    x_names: tuple[str, ...]
    n: np.ndarray | None = None  # optional positive count weight, never smoothed

    def __post_init__(self) -> None:
        object.__setattr__(self, "ids", tuple(str(i) for i in self.ids))
        object.__setattr__(self, "locs", _readonly(coords_array(self.locs)))
        x = np.atleast_2d(np.asarray(self.x, dtype=float))
        if x.shape[0] == 1 and len(self.ids) != 1:
            x = x.T
        object.__setattr__(self, "x", _readonly(x))
        object.__setattr__(self, "y", _readonly(np.asarray(self.y, dtype=float).ravel()))
        object.__setattr__(self, "x_names", tuple(self.x_names))
        if self.n is not None:
            object.__setattr__(self, "n", _readonly(np.asarray(self.n, dtype=float).ravel()))
        n_rec = len(self.ids)
        if n_rec < 1:
            raise ValueError("dataset must contain at least one record")
        if len(set(self.ids)) != n_rec:
            raise ValueError("record ids must be unique")
        if self.locs.shape != (n_rec, 2):
            raise ValueError(f"expected {n_rec} locations, got {self.locs.shape}")
        if self.x.shape != (n_rec, len(self.x_names)):
            raise ValueError(
                f"regressor block has shape {self.x.shape}, expected ({n_rec}, {len(self.x_names)})"
            )
        if self.y.shape != (n_rec,):
            raise ValueError("outcome vector length does not match record count")
        for name, arr in (("regressor", self.x), ("outcome", self.y)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} values contain missing or non-finite entries")
        if self.n is not None:
            if self.n.shape != (n_rec,):
                raise ValueError("count vector length does not match record count")
            if not (np.isfinite(self.n).all() and (self.n > 0).all()):
                raise ValueError("count weights must be finite and positive")

    @property
    def n_records(self) -> int:
        return len(self.ids)

    @property
    def n_regressors(self) -> int:
        return len(self.x_names)

    def column(self, name: str) -> np.ndarray:
        """A released data column by name; the outcome is addressed as ``"y"``."""
        if name == "y":
            return self.y
        if name in self.x_names:
            return self.x[:, self.x_names.index(name)]
        raise KeyError(f"unknown column {name!r}; have {list(self.x_names) + ['y']}")

    def replace_values(self, *, x: np.ndarray | None = None, y: np.ndarray | None = None) -> "SpatialDataset":
        """A copy with substituted regressor/outcome values (ids, locations, counts kept)."""
        return SpatialDataset(
            ids=self.ids,
            locs=self.locs,
            x=self.x if x is None else x,
            y=self.y if y is None else y,
            x_names=self.x_names,
            n=self.n,
        )


@dataclass(frozen=True)
class CsvSchema:
    """Column-role mapping for dataset CSV files."""

    id_col: str = "id"
    coord_cols: tuple[str, str] = ("s1", "s2")
    x_cols: tuple[str, ...] = ("x1",)
    y_col: str = "y"
    n_col: str | None = None

    def all_columns(self) -> tuple[str, ...]:
        cols = (self.id_col, *self.coord_cols, *self.x_cols, self.y_col)
        return cols + ((self.n_col,) if self.n_col else ())


def _parse_number(raw: str, column: str, line: int) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ParseError(f"line {line}: column {column!r} has non-numeric value {raw!r}") from None


def _parse_float(raw: str, column: str, line: int) -> float:
    value = _parse_number(raw, column, line)
    if not math.isfinite(value):
        raise ParseError(f"line {line}: column {column!r} has non-finite value {raw!r}")
    return value


def _csv_rows(path) -> tuple[list[str], list[str] | None, Iterator[tuple[int, list[str]]]]:
    """Split a CSV file into its leading '#' comment lines, its header (None when
    there is none) and an iterator over its nonblank rows as (file line, cells).

    Iterating raises ParseError at the first row whose cell count differs from
    the header's, so a caller's checks on the header come first.
    """
    with Path(path).open("r", encoding="utf-8", newline="") as fh:
        lines = fh.readlines()
    offset = 0
    while offset < len(lines) and lines[offset].lstrip().startswith("#"):
        offset += 1
    reader = csv.reader(lines[offset:])
    header = next(reader, None)

    def rows():
        for row in reader:
            line = offset + reader.line_num  # physical line in the file
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise ParseError(f"line {line}: expected {len(header)} cells, got {len(row)}")
            yield line, row

    return lines[:offset], None if header is None else [h.strip() for h in header], rows()


def load_csv(path, schema: CsvSchema = CsvSchema()) -> SpatialDataset:
    """Read a dataset CSV (UTF-8, '.' decimals, header required).

    Leading lines starting with '#' (e.g. masking provenance) are skipped.
    Malformed input raises ParseError naming the offending file line.
    """
    path = Path(path)
    _, header, rows = _csv_rows(path)
    if header is None:
        raise ParseError(f"{path}: no header row found")
    missing = [c for c in schema.all_columns() if c not in header]
    if missing:
        raise ParseError(f"{path}: missing required column(s) {missing}; header is {header}")
    col = {name: header.index(name) for name in header}

    ids: list[str] = []
    locs: list[tuple[float, float]] = []
    xs: list[list[float]] = []
    ys: list[float] = []
    ns: list[float] = []
    seen: set[str] = set()
    for line, row in rows:
        rid = row[col[schema.id_col]].strip()
        if not rid:
            raise ParseError(f"line {line}: empty id")
        if rid in seen:
            raise ParseError(f"line {line}: duplicate id {rid!r}")
        seen.add(rid)
        ids.append(rid)
        locs.append(
            (
                _parse_float(row[col[schema.coord_cols[0]]], schema.coord_cols[0], line),
                _parse_float(row[col[schema.coord_cols[1]]], schema.coord_cols[1], line),
            )
        )
        xs.append([_parse_float(row[col[c]], c, line) for c in schema.x_cols])
        ys.append(_parse_float(row[col[schema.y_col]], schema.y_col, line))
        if schema.n_col:
            ns.append(_parse_float(row[col[schema.n_col]], schema.n_col, line))
    if not ids:
        raise ParseError(f"{path}: no data rows")
    return SpatialDataset(
        ids=tuple(ids),
        locs=np.array(locs),
        x=np.array(xs),
        y=np.array(ys),
        x_names=schema.x_cols,
        n=np.array(ns) if schema.n_col else None,
    )


def write_csv(data: SpatialDataset, path, schema: CsvSchema | None = None,
              comment: str | None = None) -> None:
    """Write a dataset CSV; ``comment`` becomes a leading '#' line (provenance)."""
    if schema is None:
        schema = CsvSchema(x_cols=data.x_names, n_col="n" if data.n is not None else None)
    if tuple(schema.x_cols) != data.x_names:
        raise ValueError("schema regressor columns do not match dataset columns")
    if (schema.n_col is not None) != (data.n is not None):
        raise ValueError("schema count column does not match dataset")
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        if comment:
            fh.write("# " + comment.replace("\n", " ") + "\n")
        writer = csv.writer(fh)
        writer.writerow(schema.all_columns())
        for i in range(data.n_records):
            row = [data.ids[i], repr(float(data.locs[i, 0])), repr(float(data.locs[i, 1]))]
            row += [repr(float(v)) for v in data.x[i]]
            row.append(repr(float(data.y[i])))
            if data.n is not None:
                row.append(repr(float(data.n[i])))
            writer.writerow(row)


@dataclass(frozen=True)
class GridSpec:
    """Rectangular grid partitioning the study area into nx*ny cells.

    Cells are half-open along each axis: a point on an interior boundary
    belongs to the higher-indexed cell; points exactly on the max boundary
    belong to the last cell.
    """

    xmin: float
    xmax: float
    ymin: float
    ymax: float
    nx: int
    ny: int

    def __post_init__(self) -> None:
        if not (self.xmin < self.xmax and self.ymin < self.ymax):
            raise ValueError("grid bounds must satisfy xmin < xmax and ymin < ymax")
        if self.nx < 1 or self.ny < 1:
            raise ValueError("grid must have at least one cell per axis")

    @property
    def n_cells(self) -> int:
        return self.nx * self.ny

    def cell_indices(self, locs: np.ndarray) -> np.ndarray:
        """Row-major cell index (iy * nx + ix) per location; raises if out of bounds."""
        locs = coords_array(locs)
        s1, s2 = locs[:, 0], locs[:, 1]
        bad = (s1 < self.xmin) | (s1 > self.xmax) | (s2 < self.ymin) | (s2 > self.ymax)
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(
                f"record {i} at ({s1[i]}, {s2[i]}) lies outside grid bounds "
                f"[{self.xmin}, {self.xmax}] x [{self.ymin}, {self.ymax}]"
            )
        ix = np.floor((s1 - self.xmin) / (self.xmax - self.xmin) * self.nx).astype(int)
        iy = np.floor((s2 - self.ymin) / (self.ymax - self.ymin) * self.ny).astype(int)
        # max-boundary points belong to the last cell
        ix = np.minimum(ix, self.nx - 1)
        iy = np.minimum(iy, self.ny - 1)
        return iy * self.nx + ix

    def centers(self, cells) -> np.ndarray:
        """(len(cells), 2) centers of the cells with the given row-major indices."""
        cells = np.asarray(cells, dtype=int)
        ix, iy = cells % self.nx, cells // self.nx
        dx = (self.xmax - self.xmin) / self.nx
        dy = (self.ymax - self.ymin) / self.ny
        return np.column_stack([self.xmin + (ix + 0.5) * dx, self.ymin + (iy + 0.5) * dy])


@dataclass(frozen=True)
class AggregatedDataset:
    """Per-cell summaries: member count, summed outcome, mean regressor vector.

    Cells with no members are omitted; the aggregated outcome model has no
    term for an empty cell.
    """

    cell_index: tuple[int, ...]
    n: np.ndarray             # members per cell
    y_plus: np.ndarray        # summed outcome per cell
    x_bar: np.ndarray         # (cells, p) mean regressors
    x_names: tuple[str, ...]
    grid: GridSpec

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _readonly(self.n))
        object.__setattr__(self, "y_plus", _readonly(self.y_plus))
        object.__setattr__(self, "x_bar", _readonly(np.atleast_2d(self.x_bar)))
        object.__setattr__(self, "x_names", tuple(self.x_names))
        object.__setattr__(self, "cell_index", tuple(int(j) for j in self.cell_index))

    @property
    def n_cells(self) -> int:
        return len(self.cell_index)

    def centers(self) -> np.ndarray:
        return self.grid.centers(self.cell_index)

    def as_dataset(self) -> SpatialDataset:
        """Cell-level dataset over centroids: x = means, y = summed outcome, n = counts."""
        return SpatialDataset(
            ids=tuple(f"cell_{j}" for j in self.cell_index),
            locs=self.centers(),
            x=self.x_bar,
            y=self.y_plus,
            x_names=self.x_names,
            n=self.n,
        )


def aggregate(data: SpatialDataset, grid: GridSpec) -> AggregatedDataset:
    """Group records into grid cells: summed outcomes and mean regressors per cell.

    np.bincount adds each cell's records in record order, so the sums equal
    a sequential loop over the records bit for bit.
    """
    occupied, cell = np.unique(grid.cell_indices(data.locs), return_inverse=True)
    counts = np.bincount(cell).astype(float)
    y_plus = np.bincount(cell, weights=data.y)
    x_bar = np.empty((len(occupied), data.n_regressors))
    for k in range(data.n_regressors):
        x_bar[:, k] = np.bincount(cell, weights=data.x[:, k])
    x_bar /= counts[:, None]
    return AggregatedDataset(
        cell_index=tuple(int(j) for j in occupied),
        n=counts,
        y_plus=y_plus,
        x_bar=x_bar,
        x_names=data.x_names,
        grid=grid,
    )


def write_aggregated_csv(agg: AggregatedDataset, path) -> None:
    """Aggregated output CSV: cell_j, n_j, y_plus, x_bar_1..x_bar_p."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["cell_j", "n_j", "y_plus"] + [f"x_bar_{k + 1}" for k in range(len(agg.x_names))]
        )
        for k, j in enumerate(agg.cell_index):
            row = [j, repr(float(agg.n[k])), repr(float(agg.y_plus[k]))]
            row += [repr(float(v)) for v in agg.x_bar[k]]
            writer.writerow(row)


# ---------------------------------------------------------------------------
# Typed values of JSON configs; each check raises a ValueError naming the field

def _json_flag(value, field: str) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"{field} must be true or false, got {value!r}")
    return value


def _json_names(value, field: str) -> tuple[str, ...]:
    if not (isinstance(value, (list, tuple)) and all(isinstance(v, str) for v in value)):
        raise ValueError(f"{field} must be a list of names, got {value!r}")
    return tuple(value)


def _json_numbers(value, field: str, count: int) -> tuple[float, ...]:
    if not (isinstance(value, (list, tuple)) and len(value) == count and all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)):
        raise ValueError(f"{field} must be a list of {count} numbers, got {value!r}")
    return tuple(float(v) for v in value)
