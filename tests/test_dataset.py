"""Dataset ingestion, round trips, and grid aggregation."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from smoothmask.dataset import (
    CsvSchema,
    GridSpec,
    Location,
    ParseError,
    SpatialDataset,
    aggregate,
    load_csv,
    write_csv,
)

from conftest import random_dataset


class TestLoadCsv:
    def test_three_row_echo(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            "id,x1,y,lon,lat\n"
            "a,1.5,2.0,0.1,0.2\n"
            "b,-0.5,3.0,0.3,0.4\n"
            "c,0.0,4.0,-0.5,0.6\n"
        )
        schema = CsvSchema(coord_cols=("lon", "lat"))
        data = load_csv(path, schema)
        assert data.n_records == 3
        assert data.n_regressors == 1
        assert data.ids == ("a", "b", "c")
        np.testing.assert_array_equal(data.x[:, 0], [1.5, -0.5, 0.0])
        np.testing.assert_array_equal(data.y, [2.0, 3.0, 4.0])
        np.testing.assert_array_equal(data.locs[1], [0.3, 0.4])

    def test_blank_outcome_names_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,x1,y,s1,s2\na,1,2,0,0\nb,1,,0,0\n")
        with pytest.raises(ParseError, match="line 3.*'y'"):
            load_csv(path)

    def test_duplicate_id_names_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,x1,y,s1,s2\na,1,2,0,0\na,1,3,0.5,0\n")
        with pytest.raises(ParseError, match="line 3.*duplicate"):
            load_csv(path)

    def test_missing_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,x1,s1,s2\na,1,0,0\n")
        with pytest.raises(ParseError, match="missing required column"):
            load_csv(path)

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,x1,y,s1,s2\na,1,2,0,0\nb,oops,3,0,1\n")
        with pytest.raises(ParseError, match="line 3.*'x1'.*'oops'"):
            load_csv(path)

    @pytest.mark.parametrize("body, n_col, message", [
        ("id,x1,y,s1,s2\na,1,2,0,0\nb,oops,3,0,1\n", None,
         "line 3: column 'x1' has non-numeric value 'oops'"),
        ("id,x1,y,s1,s2,n\na,1,2,0,0,0\n", "n", "count weights must be finite and positive"),
        # reading the first of the two would silently drop the second
        ("id,x1,y,s1,s2,x1\na,1,2,0,0,5\n", None, "column 'x1' appears twice in the header"),
        # cells over the csv module's field size limit, in a row and in the header
        ("# provenance\nid,x1,y,s1,s2\na,1,2,0,0\nb,1," + "7" * 200_000 + ",0,1\n", None,
         "line 4: field larger than field limit (131072)"),
        ("id,x1,y,s1,s2," + "n" * 200_000 + "\na,1,2,0,0,1\n", None,
         "line 1: field larger than field limit (131072)"),
    ], ids=["non_numeric", "count_weight", "repeated_header_column", "long_cell",
            "long_header"])
    def test_error_names_the_file(self, tmp_path, body, n_col, message):
        path = tmp_path / "d.csv"
        path.write_text(body)
        with pytest.raises(ParseError) as err:
            load_csv(path, CsvSchema(n_col=n_col))
        assert str(err.value) == f"{path}: {message}"

    def test_undecodable_file_is_not_a_parse_error(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"id,x1,y,s1,s2\na,1,2,0,\xff\n")
        with pytest.raises(UnicodeDecodeError):
            load_csv(path)

    def test_schema_repeated_regressor_rejected(self):
        with pytest.raises(ValueError, match="regressor column 'x1' is named twice"):
            CsvSchema(x_cols=("x1", "x2", "x1"))

    def test_comment_lines_skipped(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("# provenance note\nid,x1,y,s1,s2\na,1,2,0,0\n")
        data = load_csv(path)
        assert data.n_records == 1

    def test_round_trip_identity(self, tmp_path):
        data = random_dataset(100, p=3, seed=42, with_counts=True)
        schema = CsvSchema(x_cols=data.x_names, n_col="n")
        path = tmp_path / "d.csv"
        write_csv(data, path, schema=schema, comment="round trip")
        back = load_csv(path, schema)
        assert back.ids == data.ids
        np.testing.assert_array_equal(back.locs, data.locs)
        np.testing.assert_array_equal(back.x, data.x)
        np.testing.assert_array_equal(back.y, data.y)
        np.testing.assert_array_equal(back.n, data.n)


class TestDatasetInvariants:
    def test_requires_unique_ids(self):
        with pytest.raises(ValueError, match="unique"):
            SpatialDataset(ids=("a", "a"), locs=[[0, 0], [1, 1]], x=[[1.0], [2.0]],
                           y=[0.0, 1.0], x_names=("x1",))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="missing or non-finite"):
            SpatialDataset(ids=("a",), locs=[[0, 0]], x=[[np.nan]], y=[0.0], x_names=("x1",))

    def test_regressors_must_be_one_row_per_record(self):
        # a 1-D x is one row, not one column: only a single record accepts it
        with pytest.raises(ValueError, match=r"regressor block has shape \(1, 2\), "
                                             r"expected \(2, 1\)"):
            SpatialDataset(ids=("a", "b"), locs=[[0, 0], [1, 1]], x=[1.0, 2.0],
                           y=[0.0, 1.0], x_names=("x1",))
        one = SpatialDataset(ids=("a",), locs=[[0, 0]], x=[1.0, 2.0], y=[0.0],
                             x_names=("x1", "x2"))
        np.testing.assert_array_equal(one.x, [[1.0, 2.0]])

    def test_location_requires_finite(self):
        with pytest.raises(ValueError):
            Location(np.inf, 0.0)

    def test_arrays_read_only(self):
        data = random_dataset(5)
        with pytest.raises(ValueError):
            data.y[0] = 99.0


class TestWriteCsv:
    def test_text_equals_per_record_repr(self, tmp_path):
        # each value is written as the repr of its Python float, one record a line
        values = np.array([0.1, -0.0, 1e-300, 5e-324, -1.7976931348623157e308, 2.0 / 3.0])
        data = SpatialDataset(ids=tuple("abcdef"), locs=np.column_stack([values, values[::-1]]),
                              x=np.column_stack([values[::-1] / 3, values]), y=values / 7,
                              x_names=("x1", "x2"), n=np.arange(1.0, 7.0))
        path = tmp_path / "d.csv"
        write_csv(data, path, comment="prov")
        rows = [(data.ids[i], *data.locs[i], *data.x[i], data.y[i], data.n[i])
                for i in range(data.n_records)]
        lines = ["id,s1,s2,x1,x2,y,n"] + [
            ",".join([rid, *(repr(float(v)) for v in rest)]) for rid, *rest in rows]
        assert path.read_bytes().decode() == "# prov\n" + "".join(line + "\r\n" for line in lines)


class TestAggregate:
    def test_single_cell(self):
        data = random_dataset(20, p=2, seed=1)
        grid = GridSpec(-1, 1, -1, 1, 1, 1)
        agg = aggregate(data, grid)
        assert agg.n_records == 1
        assert agg.n[0] == 20
        np.testing.assert_allclose(agg.y[0], data.y.sum(), rtol=1e-12)
        np.testing.assert_allclose(agg.x[0], data.x.mean(axis=0), rtol=1e-12)

    def test_one_point_per_quadrant(self):
        data = SpatialDataset(
            ids=("a", "b", "c", "d"),
            locs=[[-0.5, -0.5], [0.5, -0.5], [-0.5, 0.5], [0.5, 0.5]],
            x=[[1.0], [2.0], [3.0], [4.0]],
            y=[10.0, 20.0, 30.0, 40.0],
            x_names=("x1",),
        )
        agg = aggregate(data, GridSpec(-1, 1, -1, 1, 2, 2))
        assert agg.n_records == 4
        np.testing.assert_array_equal(agg.n, [1, 1, 1, 1])
        np.testing.assert_array_equal(agg.y, [10.0, 20.0, 30.0, 40.0])
        assert agg.ids == ("cell_0", "cell_1", "cell_2", "cell_3")

    def test_group_by_oracle_1000_points(self):
        data = random_dataset(1000, p=2, seed=7)
        grid = GridSpec(-1, 1, -1, 1, 7, 7)
        agg = aggregate(data, grid)
        assert agg.n.sum() == 1000
        # independent dict-based group-by
        groups: dict[int, list[int]] = {}
        for i in range(1000):
            s1, s2 = data.locs[i]
            ix = min(int((s1 + 1) / 2 * 7), 6)
            iy = min(int((s2 + 1) / 2 * 7), 6)
            groups.setdefault(iy * 7 + ix, []).append(i)
        assert {f"cell_{j}" for j in groups} == set(agg.ids)
        for k, j in enumerate(int(rid.removeprefix("cell_")) for rid in agg.ids):
            members = groups[j]
            assert agg.n[k] == len(members)
            np.testing.assert_allclose(agg.y[k], sum(data.y[i] for i in members), rtol=1e-12)
            np.testing.assert_allclose(
                agg.x[k], data.x[members].mean(axis=0), rtol=1e-10)

    @pytest.mark.parametrize("p", [0, 1, 3])
    @pytest.mark.parametrize("n, nx, ny", [(1000, 7, 7), (30, 9, 9), (200, 1, 1)])
    def test_equals_record_loop_oracle(self, p, n, nx, ny):
        # bit-identical to accumulating the records one by one in record order;
        # 30 points on 81 cells leave most cells empty
        data = random_dataset(n, p=p, seed=n + p)
        grid = GridSpec(-1, 1, -1, 1, nx, ny)
        idx = grid.cell_indices(data.locs)
        occupied = np.unique(idx)
        pos = {int(j): k for k, j in enumerate(occupied)}
        counts = np.zeros(len(occupied))
        y_plus = np.zeros(len(occupied))
        x_bar = np.zeros((len(occupied), p))
        for i in range(n):
            k = pos[int(idx[i])]
            counts[k] += 1
            y_plus[k] += data.y[i]
            x_bar[k] += data.x[i]
        x_bar /= counts[:, None]
        agg = aggregate(data, grid)
        assert agg.ids == tuple(f"cell_{j}" for j in occupied)
        assert np.array_equal(agg.n, counts)
        assert np.array_equal(agg.y, y_plus)
        assert agg.x.shape == (len(occupied), p)
        assert np.array_equal(agg.x, x_bar)
        assert agg.x_names == data.x_names

    def test_conservation(self):
        data = random_dataset(500, p=3, seed=9)
        agg = aggregate(data, GridSpec(-1, 1, -1, 1, 5, 4))
        assert agg.y.sum() == pytest.approx(data.y.sum(), rel=0, abs=1e-10 * abs(data.y).sum())
        totals = (agg.n[:, None] * agg.x).sum(axis=0)
        np.testing.assert_allclose(totals, data.x.sum(axis=0), rtol=1e-10)

    def test_boundary_goes_to_higher_cell(self):
        grid = GridSpec(0, 1, 0, 1, 2, 2)
        idx = grid.cell_indices(np.array([[0.5, 0.25], [0.25, 0.5], [1.0, 1.0]]))
        assert idx[0] == 1   # on the interior x boundary -> right cell
        assert idx[1] == 2   # on the interior y boundary -> upper cell
        assert idx[2] == 3   # max corner -> last cell

    @pytest.mark.parametrize("bounds", [(-1e308, 1e308, 0, 1), (0, 1, -1e308, 1e308),
                                        (-np.inf, 1, 0, 1)], ids=["x", "y", "infinite"])
    def test_overflowing_span_rejected(self, bounds):
        # cell_indices divides by the span; an infinite one gave a garbage index
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="grid spans .* must be finite"):
                GridSpec(*bounds, 2, 2)

    def test_outside_bounds_identifies_record(self):
        data = random_dataset(5, seed=3)
        grid = GridSpec(0, 0.5, 0, 0.5, 2, 2)
        with pytest.raises(ValueError, match="record"):
            aggregate(data, grid)

    def test_empty_cells_dropped(self):
        data = SpatialDataset(ids=("a",), locs=[[0.1, 0.1]], x=[[1.0]], y=[1.0], x_names=("x1",))
        agg = aggregate(data, GridSpec(0, 1, 0, 1, 3, 3))
        assert agg.n_records == 1

    def test_cell_centroids(self):
        data = random_dataset(50, seed=6)
        grid = GridSpec(-1, 1, -1, 1, 2, 2)
        cells = aggregate(data, grid)
        assert cells.n is not None
        assert set(np.abs(cells.locs).ravel()) == {0.5}

    def test_csv_round_trip(self, tmp_path):
        # an aggregated dataset is written and read back by the record CSV
        # dialect, with its counts in the n column, bit for bit
        data = random_dataset(300, p=2, seed=5)
        cells = aggregate(data, GridSpec(-1, 1, -1, 1, 4, 3))
        path = tmp_path / "cells.csv"
        write_csv(cells, path)
        back = load_csv(path, CsvSchema(x_cols=cells.x_names, n_col="n"))
        assert back.ids == cells.ids
        for name in ("locs", "x", "y", "n"):
            assert np.array_equal(getattr(back, name), getattr(cells, name)), name

    def test_centers_equal_per_cell_formula(self):
        # the vectorised centers keep the scalar per-cell arithmetic, so they
        # equal it bit for bit
        grid = GridSpec(-1.3, 2.1, 0.4, 5.0, 7, 3)
        cells = [0, 4, 6, 7, 13, 20]
        dx = (grid.xmax - grid.xmin) / grid.nx
        dy = (grid.ymax - grid.ymin) / grid.ny
        want = [[grid.xmin + (j % grid.nx + 0.5) * dx, grid.ymin + (j // grid.nx + 0.5) * dy]
                for j in cells]
        assert np.array_equal(grid.centers(cells), np.array(want))
