"""Spatial data model: records at point locations, CSV ingestion, and grid
aggregation into a cell-level SpatialDataset."""

from __future__ import annotations

import csv
import math
import sys
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields, is_dataclass
from pathlib import Path
from types import NoneType, UnionType
from typing import Iterator, Union, get_args, get_origin, get_type_hints

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


def _first_repeat(names) -> str | None:
    """The first name in names that an earlier one equals, or None."""
    seen = set()
    for name in names:
        if name in seen:
            return name
        seen.add(name)
    return None


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
        object.__setattr__(self, "x", _readonly(np.atleast_2d(np.asarray(self.x, dtype=float))))
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

    def __post_init__(self) -> None:
        repeated = _first_repeat(self.x_cols)
        if repeated is not None:
            raise ValueError(f"regressor column {repeated!r} is named twice")

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


@contextmanager
def _in_file(path):
    """Re-raise a ValueError from inside, bar a decoding error, as a ParseError naming the file."""
    try:
        yield
    except UnicodeDecodeError:
        raise
    except ValueError as err:
        raise ParseError(f"{path}: {err}") from None


def _csv_rows(path) -> tuple[list[str], list[str] | None, Iterator[tuple[int, list[str]]]]:
    """Split a CSV file into its leading '#' comment lines, its header (None when
    there is none) and an iterator over its nonblank rows as (file line, cells).

    Iterating raises ParseError at the first row whose cell count differs from
    the header's, so a caller's checks on the header come first, or that has a
    cell over the csv module's field size limit (raised here for the header).
    """
    with Path(path).open("r", encoding="utf-8", newline="") as fh:
        lines = fh.readlines()
    offset = 0
    while offset < len(lines) and lines[offset].lstrip().startswith("#"):
        offset += 1
    reader = csv.reader(lines[offset:])

    def split():   # (physical line in the file, cells) per row
        try:
            for row in reader:
                yield offset + reader.line_num, row
        except csv.Error as err:
            raise ParseError(f"line {offset + reader.line_num}: {err}") from None

    cells = split()
    header = next(cells, (0, None))[1]

    def rows():
        for line, row in cells:
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise ParseError(f"line {line}: expected {len(header)} cells, got {len(row)}")
            yield line, row

    return lines[:offset], None if header is None else [h.strip() for h in header], rows()


def load_csv(path, schema: CsvSchema = CsvSchema()) -> SpatialDataset:
    """Read a dataset CSV (UTF-8, '.' decimals, header required).

    Leading lines starting with '#' (e.g. masking provenance) are skipped.
    Malformed input raises ParseError naming the file and, for a bad row,
    its line.
    """
    path = Path(path)
    with _in_file(path):   # a ParseError, or a value SpatialDataset rejects
        _, header, rows = _csv_rows(path)
        if header is None:
            raise ParseError("no header row found")
        missing = [c for c in schema.all_columns() if c not in header]
        if missing:
            raise ParseError(f"missing required column(s) {missing}; header is {header}")
        repeated = _first_repeat(c for c in header if c in schema.all_columns())
        if repeated is not None:
            raise ParseError(f"column {repeated!r} appears twice in the header")
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
            raise ParseError("no data rows")
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
        columns = [data.locs[:, 0], data.locs[:, 1], *data.x.T, data.y]
        if data.n is not None:
            columns.append(data.n)
        # tolist() gives Python floats, whose repr is the shortest round-trip text
        writer.writerows(zip(data.ids, *(map(repr, c.tolist()) for c in columns)))


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
        if not (math.isfinite(self.xmax - self.xmin) and math.isfinite(self.ymax - self.ymin)):
            raise ValueError(f"grid spans xmax - xmin and ymax - ymin must be finite, got "
                             f"[{self.xmin}, {self.xmax}] x [{self.ymin}, {self.ymax}]")
        if self.nx < 1 or self.ny < 1:
            raise ValueError("grid must have at least one cell per axis")

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


def aggregate(data: SpatialDataset, grid: GridSpec) -> SpatialDataset:
    """The cell-level dataset of the records grouped into grid cells.

    Each occupied cell j is a record with id ``cell_{j}`` at the cell center,
    whose x is the members' mean regressors, y their summed outcome and n their
    count. Empty cells are omitted; the aggregated outcome model has no term
    for them. np.bincount adds each cell's records in record order, so the
    sums equal a sequential loop over the records bit for bit.
    """
    occupied, cell = np.unique(grid.cell_indices(data.locs), return_inverse=True)
    counts = np.bincount(cell).astype(float)
    x_sum = np.empty((len(occupied), data.n_regressors))
    for k in range(data.n_regressors):
        x_sum[:, k] = np.bincount(cell, weights=data.x[:, k])
    return SpatialDataset(
        ids=tuple(f"cell_{j}" for j in occupied),
        locs=grid.centers(occupied),
        x=x_sum / counts[:, None],
        y=np.bincount(cell, weights=data.y),
        x_names=data.x_names,
        n=counts,
    )


# ---------------------------------------------------------------------------
# JSON configs: one field walker reads and writes every config dataclass by its
# type annotations; each check raises a ValueError naming the field.

def _is_number(value) -> bool:
    """Whether a JSON value is a number a float holds: not a bool, nor an integer
    beyond the float range."""
    return isinstance(value, float) or (isinstance(value, int) and not isinstance(value, bool)
                                        and abs(value) <= sys.float_info.max)


def _json_numbers(value, field: str, count: int | None = None) -> tuple[float, ...]:
    """A list of numbers, of exactly count of them unless count is None."""
    if not (isinstance(value, list) and count in (None, len(value))
            and all(map(_is_number, value))):
        size = "" if count is None else f"{count} "
        raise ValueError(f"{field} must be a list of {size}numbers, got {value!r}")
    return tuple(map(float, value))


def _json_object(value, field: str) -> dict:
    """A JSON object; null stands for an empty one, whose fields take their defaults."""
    if not isinstance(value, (dict, NoneType)):
        raise ValueError(f"{field} must be an object, got {value!r}")
    return value or {}


# annotation -> whether a JSON value is one, what it must be, and the conversion
_JSON_TYPES = {
    bool: (lambda v: isinstance(v, bool), "true or false", bool),
    int: (lambda v: type(v) is int or isinstance(v, float) and v.is_integer(), "an integer", int),
    float: (_is_number, "a number", float),
    str: (lambda v: isinstance(v, str), "a string", str),
    tuple[str, ...]: (lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v),
                      "a list of names", tuple),
}


def _json_value(hint, value, field: str):
    """value checked against the type annotation hint and converted to that type:
    a Location or a tuple of floats is a list of numbers, a nested dataclass is
    an object, and X | None admits null."""
    if get_origin(hint) in (Union, UnionType):
        if value is None:
            return None
        (hint,) = (arg for arg in get_args(hint) if arg is not NoneType)
    if hint is Location:
        return Location(*_json_numbers(value, field, 2))
    if is_dataclass(hint):
        return _from_json(hint, _json_object(value, field), field + ".")
    if get_origin(hint) is tuple and hint not in _JSON_TYPES:
        args = get_args(hint)
        return _json_numbers(value, field, None if args[-1] is Ellipsis else len(args))
    accepts, what, convert = _JSON_TYPES[hint]
    if not accepts(value):
        raise ValueError(f"{field} must be {what}, got {value!r}")
    return convert(value)


def _from_json(cls, obj: dict, prefix: str = "", **decoded):
    """The dataclass cls read from the JSON object obj, each field from the key
    of its name by _json_value; an error names the field as prefix + name.

    An absent key takes the field's default, and a missing required field
    raises KeyError; unknown keys are ignored. A field given in decoded takes
    that value instead, or its default if the value is MISSING.
    """
    hints = get_type_hints(cls)
    kwargs = {f.name: _json_value(hints[f.name], obj[f.name], prefix + f.name)
              for f in fields(cls) if f.name in obj and f.name not in decoded}
    kwargs.update((name, value) for name, value in decoded.items() if value is not MISSING)
    for f in fields(cls):
        if f.name not in kwargs and f.default is MISSING and f.default_factory is MISSING:
            raise KeyError(prefix + f.name)
    return cls(**kwargs)


def _to_json(value):
    """The JSON form of a config value, which _from_json reads back."""
    if isinstance(value, Location):
        return [value.s1, value.s2]
    if is_dataclass(value):
        return {f.name: _to_json(getattr(value, f.name)) for f in fields(value)}
    return [_to_json(v) for v in value] if isinstance(value, tuple) else value


def _registered(registry: dict, name, what: str) -> type:
    """The class a registry lists under the JSON tag name."""
    if not (isinstance(name, str) and name in registry):
        raise ValueError(f"unknown {what} {name!r}")
    return registry[name]


def _registered_name(registry: dict, obj, what: str) -> str:
    """The JSON tag a registry lists the class of obj under."""
    tags = [name for name, cls in registry.items() if type(obj) is cls]
    if not tags:
        raise ValueError(f"{what} {type(obj).__name__} has no JSON form")
    return tags[0]
