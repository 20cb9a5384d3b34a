import base64
import csv
import json
import math
import re
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ecocast.bricks import BRICK_CLASSES, KernelSpec
from ecocast.datasets import (
    ContextMap,
    TimeSeriesSet,
    build_training_pairs,
    default_scaling,
    flatten_context,
)
from ecocast.cli import main
from ecocast.io import (
    MODEL_VERSION,
    _parse_cells,
    _parse_grid_cells,
    load_model,
    model_from_json,
    model_to_json,
    read_ascii_grid,
    read_timeseries_csv,
    save_model,
    write_ascii_grid,
    write_timeseries_csv,
)
from ecocast.lotka import REFERENCE_PARAMS, simulate_lv
from ecocast.scaling import ScalingSet
from ecocast.stack import BrickConfig, InputSchema, StackedModel, train_stack


class TestTimeseriesCSV:
    def test_minimal_file(self, tmp_path):
        path = tmp_path / "min.csv"
        path.write_text("t,r,f\n0,10,5\n1,11,4\n")
        ts = read_timeseries_csv(path)
        assert ts.names == ("r", "f")
        assert ts.n_points == 2 and ts.dt == 1.0
        assert np.array_equal(ts.values, [[10.0, 11.0], [5.0, 4.0]])

    @pytest.mark.parametrize(
        "stamps, message",
        [
            ("0 1 2.5", "row 4: non-uniform cadence"),
            ("0 1 2 3 5 6", "row 6: non-uniform cadence"),  # a skipped step
            ("0 1 2 2 3", "rows 4 and 5: repeated time stamp '2'"),  # a repeated step
            ("0 1 1.5 2", "row 4: non-uniform cadence"),  # a shrinking step
            ("3 2 1", "row 3: non-uniform cadence"),  # a falling axis
            ("0 1 2.0000000015 3", "row 4: non-uniform cadence"),  # jitter just over 1e-9
        ],
        ids=["longer", "skipped", "repeated", "shrinking", "falling", "jitter"],
    )
    def test_non_uniform_cadence_names_offending_row(self, tmp_path, stamps, message):
        """The reader names the row; a TimeSeriesSet refuses the same axis."""
        times = stamps.split()
        path = tmp_path / "bad.csv"
        path.write_text("t,a\n" + "".join(f"{t},{i}\n" for i, t in enumerate(times)))
        with pytest.raises(ValueError, match=f"^{message}"):
            read_timeseries_csv(path)
        with pytest.raises(ValueError, match="^times must be strictly increasing with uniform"):
            TimeSeriesSet(names=("a",), times=np.array(times, dtype=float),
                          values=np.ones((1, len(times))))

    def test_jitter_within_the_tolerance_is_a_uniform_cadence(self, tmp_path):
        path = tmp_path / "jitter.csv"
        path.write_text("t,a\n0,0\n1,1\n2.0000000005,2\n3,3\n")
        ts = read_timeseries_csv(path)
        assert np.array_equal(ts.times, [0.0, 1.0, 2.0000000005, 3.0])

    def test_non_uniform_cadence_resampled_with_flag(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,a\n0,0\n1,1\n2.5,2.5\n")
        ts = read_timeseries_csv(path, interpolate=True)
        assert ts.n_points == 3
        assert np.allclose(np.diff(ts.times), 1.25)
        assert np.allclose(ts.values[0], ts.times)  # linear stays linear

    def test_dropped_rows_are_resampled_at_the_data_cadence(self, tmp_path):
        traj = simulate_lv(REFERENCE_PARAMS, 10.0, 5.0, 0.05, 600)
        keep = np.r_[0:200, 400:601]  # rows 200-399 dropped: a gap of 200 steps
        ts = TimeSeriesSet(names=("prey", "predators"), times=traj.times,
                           values=np.vstack([traj.prey, traj.predators]))
        path = tmp_path / "gap.csv"
        rows = np.column_stack([ts.times, ts.values.T])[keep].tolist()
        path.write_text("t,prey,predators\n" + "".join(",".join(map(repr, r)) + "\n" for r in rows))
        back = read_timeseries_csv(path, interpolate=True)
        assert back.n_points == 601
        assert back.dt == pytest.approx(0.05, rel=1e-12)
        assert (back.times[0], back.times[-1]) == (0.0, ts.times[-1])
        # the kept rows keep their values
        assert np.allclose(back.values[:, keep], ts.values[:, keep], rtol=1e-12, atol=0.0)

    def test_unsorted_times_with_gap_resampled_with_flag(self, tmp_path):
        path = tmp_path / "shuffled.csv"
        path.write_text("t,a\n0,0\n2,\n1,1\n3,3\n")
        ts = read_timeseries_csv(path, interpolate=True)
        assert np.array_equal(ts.times, [0.0, 1.0, 2.0, 3.0])
        assert np.allclose(ts.values[0], [0.0, 1.0, 2.0, 3.0])

    def test_missing_value_policy(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("t,a\n0,1\n1,\n2,3\n")
        with pytest.raises(ValueError, match="row 3"):
            read_timeseries_csv(path)
        ts = read_timeseries_csv(path, interpolate=True)
        assert ts.values[0, 1] == 2.0

    def test_duplicate_names_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("t,a,a\n0,1,2\n1,3,4\n")
        with pytest.raises(ValueError, match="duplicate"):
            read_timeseries_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("t,a,b\n0,1,2\n1,3\n")
        with pytest.raises(ValueError, match="row 3"):
            read_timeseries_csv(path)

    def test_iso_dates_become_days_since_epoch(self, tmp_path):
        path = tmp_path / "dates.csv"
        path.write_text("date,x\n2020-01-01,1\n2020-01-02,2\n2020-01-03,3\n")
        ts = read_timeseries_csv(path)
        assert ts.epoch == "2020-01-01T00:00:00"
        assert np.array_equal(ts.times, [0.0, 1.0, 2.0])

    @pytest.mark.parametrize("interpolate", [False, True])
    @pytest.mark.parametrize(
        "text, rows, stamp",
        [
            ("t,a\n0,0\n1,1\n1,5\n2,3\n", "rows 3 and 4", "'1'"),
            ("t,a\n0,0\n2,1\n1,1\n2,3\n3,4\n", "rows 3 and 5", "'2'"),
            ("date,x\n2020-01-01,1\n2020-01-02,2\n2020-01-02,3\n", "rows 3 and 4", "'2020-01-02'"),
        ],
    )
    def test_repeated_time_stamp_rejected_naming_both_rows(
        self, tmp_path, text, rows, stamp, interpolate
    ):
        path = tmp_path / "repeat.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{rows}: repeated time stamp {stamp}$"):
            read_timeseries_csv(path, interpolate=interpolate)

    def test_blank_cells_are_missing_values(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("t,a,b\n0,1,10\n1,2,20\n2, , \n3,4,40\n")
        with pytest.raises(ValueError, match="^row 4: missing value"):
            read_timeseries_csv(path)
        ts = read_timeseries_csv(path, interpolate=True)
        assert np.array_equal(ts.values, [[1.0, 2.0, 3.0, 4.0], [10.0, 20.0, 30.0, 40.0]])

    @pytest.mark.parametrize(
        "text, message",
        [
            ("t,a,b\n0,1,2\n1,3,x\n2,5,6\n", "row 3: cannot parse value 'x' for series 'b'"),
            ("t,a,b\n0,1,2\n1,x,4\n2,5\n", "row 3: cannot parse value 'x' for series 'a'"),
            ("t,a,b\n0,1,2\n1,3\n2,x,6\n", "row 3: expected 3 fields, got 2"),
            ("t,a,b\n0,1\n1,2\n", "row 2: expected 3 fields, got 2"),
            ("t,a\n0,1\nnoon,2\n", "row 3: cannot parse time value 'noon'"),
        ],
    )
    def test_first_bad_row_in_file_order_is_named(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{message}$"):
            read_timeseries_csv(path, interpolate=True)

    @pytest.mark.parametrize("interpolate", [False, True])
    @pytest.mark.parametrize(
        "text, message",
        [
            ("t,a\n0,1\n1,1e400\n2,3\n", "row 3: value '1e400' for series 'a' is not finite"),
            ("t,a,b\n0,1,x\n1,inf,2\n", "row 2: cannot parse value 'x' for series 'b'"),
            ("t,a\n0,inf\n1,x\n", "row 2: value 'inf' for series 'a' is not finite"),
            ("t,a,b\n0,1,-inf\n1,2\n", "row 2: value '-inf' for series 'b' is not finite"),
        ],
    )
    def test_infinite_cell_is_named(self, tmp_path, text, message, interpolate):
        path = tmp_path / "inf.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{message}$"):
            read_timeseries_csv(path, interpolate=interpolate)

    @pytest.mark.parametrize("interpolate", [False, True])
    @pytest.mark.parametrize(
        "text, message",
        [
            ("t,a\n0,1\nnan,2\n2,3\n", "row 3: time stamp 'nan' is not finite"),
            ("t,a\n0,1\n1,2\ninf,3\n", "row 4: time stamp 'inf' is not finite"),
            ("t,a\n0,1\n1e400,2\n2,3\n", "row 3: time stamp '1e400' is not finite"),
            # read cell by cell: the first bad cell in file order is named
            ("t,a\n0,1\n-inf,2\n2,x\n", "row 3: time stamp '-inf' is not finite"),
            ("t,a\n0,1\n1,x\nnan,3\n", "row 3: cannot parse value 'x' for series 'a'"),
            ("t,a\n0,inf\nnan,2\n", "row 2: value 'inf' for series 'a' is not finite"),
        ],
    )
    def test_non_finite_time_stamp_is_named(self, tmp_path, text, message, interpolate):
        """Before the cadence check and any resampling, which would warn."""
        path = tmp_path / "t.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match=f"^{message}$"):
                read_timeseries_csv(path, interpolate=interpolate)

    @pytest.mark.parametrize(
        "text, filled_error",
        [
            ("t,a\n0,1\n1,\n2,inf\n3,4\n", "row 4: value 'inf' for series 'a' is not finite"),
            ("t,a,b\n0,1,2\n1,3,\n2,-inf,6\n", "row 4: value '-inf' for series 'a' is not finite"),
            ("t,a\n0,1\n1,nan\n2,1e400\n", "row 4: value '1e400' for series 'a' is not finite"),
            ("t,a\n0,1\n1,\n2,x\n3,4\n", "row 4: cannot parse value 'x' for series 'a'"),
        ],
    )
    def test_missing_cell_is_named_before_a_later_bad_one(self, tmp_path, text, filled_error):
        """Without interpolate the earlier missing cell is the error; with it
        the gap is filled and the later cell stays the error."""
        path = tmp_path / "gap.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="^row 3: missing value"):
            read_timeseries_csv(path)
        with pytest.raises(ValueError, match=f"^{filled_error}$"):
            read_timeseries_csv(path, interpolate=True)

    @pytest.mark.parametrize(
        "text, interpolate, message",
        [
            ("", False, "empty file: a header row is required"),
            ("t\n0\n1\n", False, "header must name a time column and at least one series"),
            ("t,a\n", False, "at least one data row is required"),
            ("t,a\n2020-01-01,1\n1,2\n", False, "time column mixes dates and plain numbers"),
            ("t,a,b\n0,1,2\n1,2,3\n2,,4\n", True,
             "series 'a' is missing its first or last value; cannot interpolate"),
        ],
        ids=["empty", "no-series", "no-rows", "mixed-times", "open-gap"],
    )
    def test_every_file_check_is_reached(self, tmp_path, text, interpolate, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            read_timeseries_csv(path, interpolate=interpolate)
        assert str(info.value) == message

    def test_cells_are_read_as_float_reads_them(self, tmp_path):
        cells = [" 1.5 ", "1_000", "\uff11\uff12", "5e-324", "-0", "\u20034\u2003", "+.5", "1e-400"]
        path = tmp_path / "odd.csv"
        path.write_text("t,a\n" + "".join(f"{j},{c}\n" for j, c in enumerate(cells)))
        values = read_timeseries_csv(path).values[0]
        want = [float(c) for c in cells]
        assert values.tobytes() == np.array(want).tobytes()

    def test_writer_prints_shortest_round_trip_decimals(self, tmp_path):
        ts = TimeSeriesSet(names=("a",), times=np.arange(6.0), values=[PINNED_VALUES])
        path = tmp_path / "pinned.csv"
        write_timeseries_csv(ts, path)
        assert path.read_text() == (
            "t,a\n0.0,5e-324\n1.0,-0.0\n2.0,1e+16\n3.0,1e-05\n"
            "4.0,0.30000000000000004\n5.0,1.7976931348623157e+308\n"
        )
        assert read_timeseries_csv(path).values.tobytes() == np.array([PINNED_VALUES]).tobytes()

    def test_paper_scale_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        ts = TimeSeriesSet(
            names=tuple(f"s{i}" for i in range(40)),
            times=np.arange(3650.0),
            values=rng.standard_normal((40, 3650)) * 10.0 ** rng.integers(-8, 8, (40, 1)),
        )
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_timeseries_csv(ts, p1)
        back = read_timeseries_csv(p1)
        assert back.values.tobytes() == ts.values.tobytes()
        assert back.times.tobytes() == ts.times.tobytes()
        with open(p1, newline="") as fh:
            rows = list(csv.reader(fh))
        times, values, epoch = _parse_cells(rows, list(ts.names))  # the cell-by-cell reference
        assert times.tobytes() == ts.times.tobytes() and epoch is None
        assert values.tobytes() == ts.values.tobytes()
        write_timeseries_csv(back, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_simulated_trajectory_round_trip(self, tmp_path):
        traj = simulate_lv(REFERENCE_PARAMS, 10.0, 5.0, 0.01, 500)
        ts = TimeSeriesSet(
            names=("prey", "predators"),
            times=traj.times,
            values=np.vstack([traj.prey, traj.predators]),
        )
        path = tmp_path / "lv.csv"
        write_timeseries_csv(ts, path)
        back = read_timeseries_csv(path)
        assert np.max(np.abs(back.values - ts.values)) <= 1e-12 * np.max(np.abs(ts.values))
        # write -> read -> write is byte-identical
        path2 = tmp_path / "lv2.csv"
        write_timeseries_csv(back, path2)
        assert path.read_bytes() == path2.read_bytes()

    @given(
        n_series=st.integers(1, 4),
        n_points=st.integers(1, 30),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_round_trip_bit_exact(self, n_series, n_points, seed, tmp_path_factory):
        rng = np.random.default_rng(seed)
        ts = TimeSeriesSet(
            names=tuple(f"s{i}" for i in range(n_series)),
            times=0.1 * np.arange(n_points) - 3.0,
            values=rng.standard_normal((n_series, n_points)) * 10.0 ** rng.integers(-8, 8),
        )
        base = tmp_path_factory.mktemp("csv")
        p1, p2 = base / "a.csv", base / "b.csv"
        write_timeseries_csv(ts, p1)
        back = read_timeseries_csv(p1)
        assert np.array_equal(back.values, ts.values)
        assert np.array_equal(back.times, ts.times)
        write_timeseries_csv(back, p2)
        assert p1.read_bytes() == p2.read_bytes()


# values whose shortest round-trip form is easy to get wrong
PINNED_VALUES = [5e-324, -0.0, 1e16, 1e-05, 0.1 + 0.2, 1.7976931348623157e308]

GRID_TEXT = """ncols 2
nrows 2
xllcorner 0.0
yllcorner 0.0
cellsize 100.0
NODATA_value -9999.0
1.0 1.0
1.0 1.0
"""


class TestAsciiGrid:
    def test_two_by_two_ones(self, tmp_path):
        path = tmp_path / "ones.asc"
        path.write_text(GRID_TEXT)
        cmap = read_ascii_grid(path)
        assert cmap.n_rows == 2 and cmap.n_cols == 2
        assert np.array_equal(cmap.values, np.ones((2, 2)))
        assert cmap.cell_size == 100.0

    def test_nodata_gate_and_policies(self, tmp_path):
        path = tmp_path / "gap.asc"
        path.write_text(GRID_TEXT.replace("1.0 1.0\n1.0 1.0", "1.0 -9999.0\n3.0 1.0"))
        with pytest.raises(ValueError, match="NODATA"):
            read_ascii_grid(path)
        mean_filled = read_ascii_grid(path, nodata_fill="mean")
        assert mean_filled.values[0, 1] == pytest.approx(5.0 / 3.0)
        assert not mean_filled.has_nodata()
        const_filled = read_ascii_grid(path, nodata_fill=0.5)
        assert const_filled.values[0, 1] == 0.5

    @pytest.mark.parametrize("values, marker", [
        ([[1.0, 2.0]], "-9999.0"),
        ([[1.0, -9999.0]], "-10000.0"),
        ([[-10000.0, -9999.0]], "-10001.0"),
    ], ids=["free", "taken", "two-taken"])
    def test_a_map_without_a_marker_reads_back_whatever_its_cells(self, tmp_path, values, marker):
        cmap = ContextMap(name="m", values=np.array(values))
        path = tmp_path / "m.asc"
        write_ascii_grid(cmap, path)
        assert path.read_text().splitlines()[5] == f"NODATA_value {marker}"
        assert read_ascii_grid(path).values.tobytes() == cmap.values.tobytes()

    def test_dtm_flattens_to_ten_thousand_entries(self, tmp_path):
        rng = np.random.default_rng(0)
        dtm = ContextMap(name="dtm", values=rng.uniform(0.0, 800.0, (100, 100)))
        path = tmp_path / "dtm.asc"
        write_ascii_grid(dtm, path)
        back = read_ascii_grid(path)
        vector = flatten_context([back])
        assert vector.size == 10_000
        assert np.array_equal(back.values, dtm.values)

    def test_header_key_mismatch(self, tmp_path):
        path = tmp_path / "bad.asc"
        path.write_text(GRID_TEXT.replace("xllcorner", "xcorner"))
        with pytest.raises(ValueError, match="xllcorner"):
            read_ascii_grid(path)

    def test_cell_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.asc"
        path.write_text(GRID_TEXT.replace("1.0 1.0\n1.0 1.0", "1.0 1.0\n1.0"))
        with pytest.raises(ValueError, match="cell count"):
            read_ascii_grid(path)

    @pytest.mark.parametrize(
        "old, new, fill, message",
        [
            ("NODATA_value -9999.0\n1.0 1.0\n1.0 1.0\n", "", None,
             "grid header must have six lines"),
            ("ncols 2\n", "ncols 2 2\n", None, "malformed header line 'ncols 2 2'"),
            ("nrows 2\n", "nrows two\n", None, "ncols and nrows must be integers"),
            ("cellsize 100.0", "cellsize wide", None, "grid header values must be numeric"),
            ("ncols 2\n", "ncols 0\n", None, "grid dimensions must be positive"),
            ("1.0 1.0\n1.0 1.0\n", "1.0 1.0\n", None,
             "cell count mismatch: expected 2 data rows, got 1"),
            ("1.0 1.0\n1.0 1.0\n", "-9999.0 -9999.0\n-9999.0 -9999.0\n", "mean",
             "grid has no valid cells to average for mean-fill"),
        ],
        ids=["short-header", "header-line", "integer-size", "numeric-header", "empty-grid",
             "row-count", "nothing-to-average"],
    )
    def test_every_file_check_is_reached(self, tmp_path, old, new, fill, message):
        assert old in GRID_TEXT
        path = tmp_path / "bad.asc"
        path.write_text(GRID_TEXT.replace(old, new))
        with pytest.raises(ValueError) as info:
            read_ascii_grid(path, nodata_fill=fill)
        assert str(info.value) == message

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "bad.asc"
        path.write_text(GRID_TEXT.replace("1.0 1.0\n1.0 1.0", "1.0 x\n1.0 1.0"))
        with pytest.raises(ValueError, match="non-numeric"):
            read_ascii_grid(path)

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("1.0 1.0\n1.0 x", "non-numeric cell 'x' on data row 2"),
            ("1.0 x\n1.0", "non-numeric cell 'x' on data row 1"),
            ("1.0\n1.0 x", "cell count mismatch on data row 1: expected 2, got 1"),
            ("1.0\n1.0", "cell count mismatch on data row 1: expected 2, got 1"),
            ("1.0 1.0\n1.0 1e999", "non-finite cell '1e999' on data row 2"),
            ("1.0 -inf\n1.0 nan", "non-finite cell '-inf' on data row 1"),
            ("inf 1.0\n2.0 x", "non-finite cell 'inf' on data row 1"),
            ("1.0 nan\n2.0", "non-finite cell 'nan' on data row 1"),
        ],
    )
    def test_first_bad_data_row_is_named(self, tmp_path, rows, message):
        path = tmp_path / "bad.asc"
        path.write_text(GRID_TEXT.replace("1.0 1.0\n1.0 1.0", rows))
        with pytest.raises(ValueError, match=f"^{message}$"):
            read_ascii_grid(path)

    def test_writer_prints_shortest_round_trip_decimals(self, tmp_path):
        cmap = ContextMap(name="pinned", values=np.reshape(PINNED_VALUES, (2, 3)))
        path = tmp_path / "pinned.asc"
        write_ascii_grid(cmap, path)
        assert path.read_text().splitlines()[6:] == [
            "5e-324 -0.0 1e+16",
            "1e-05 0.30000000000000004 1.7976931348623157e+308",
        ]
        assert read_ascii_grid(path).values.tobytes() == cmap.values.tobytes()

    def test_paper_scale_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(12)
        cmap = ContextMap(name="dtm", values=rng.standard_normal((100, 100)) * 1e3)
        p1, p2 = tmp_path / "a.asc", tmp_path / "b.asc"
        write_ascii_grid(cmap, p1)
        back = read_ascii_grid(p1)
        assert back.values.tobytes() == cmap.values.tobytes()
        lines = p1.read_text().splitlines()[6:]
        assert _parse_grid_cells(lines, 100, -9999.0).tobytes() == cmap.values.tobytes()  # the reference
        write_ascii_grid(back, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_case_insensitive_keys(self, tmp_path):
        path = tmp_path / "case.asc"
        path.write_text(GRID_TEXT.replace("ncols", "NCOLS").replace("nrows", "NROWS"))
        assert read_ascii_grid(path).n_rows == 2

    @given(
        rows=st.integers(1, 8),
        cols=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_round_trip_bit_exact(self, rows, cols, seed, tmp_path_factory):
        rng = np.random.default_rng(seed)
        cmap = ContextMap(
            name="m",
            values=rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-6, 6),
            cell_size=float(rng.uniform(1.0, 500.0)),
            x_origin=float(rng.uniform(-1e5, 1e5)),
            y_origin=float(rng.uniform(-1e5, 1e5)),
        )
        base = tmp_path_factory.mktemp("grid")
        p1, p2 = base / "a.asc", base / "b.asc"
        write_ascii_grid(cmap, p1)
        back = read_ascii_grid(p1)
        assert np.array_equal(back.values, cmap.values)
        write_ascii_grid(back, p2)
        assert p1.read_bytes() == p2.read_bytes()


def small_model(kind, seed=0):
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 4.0, 25)
    values = np.vstack([np.sin(t) + 2.0, np.cos(t) + 3.0])
    ts = TimeSeriesSet(names=("a", "b"), times=t, values=values)
    cmap = ContextMap(name="m", values=rng.uniform(0.0, 1.0, (2, 3)))
    u, v, schema = build_training_pairs(ts, [cmap])
    cfg = BrickConfig(kind=kind, ridge=1e-4, hidden_size=5, hidden_size_a=2, hidden_size_b=3)
    from ecocast.datasets import default_scaling

    return train_stack(
        u, v, schema, cfg, n_bricks=2, seed=seed, scaling=default_scaling(ts, [cmap])
    ), u, cmap


def linear_under_kernels():
    """A linear brick under two kernel bricks, without a context: brick 2 is
    the first brick that retains training inputs."""
    t = np.linspace(0.0, 4.0, 25)
    ts = TimeSeriesSet(names=("a", "b"), times=t,
                       values=np.vstack([np.sin(t) + 2.0, np.cos(t) + 3.0]))
    u, v, schema = build_training_pairs(ts, [])
    configs = [BrickConfig(kind=kind, ridge=1e-4) for kind in ("linear", "kernel", "kernel")]
    return train_stack(u, v, schema, configs, scaling=default_scaling(ts, []))


def payload(d: dict) -> np.ndarray:
    """A model file's array payload decoded as the format defines it."""
    assert set(d) == {"f8", "shape"}
    return np.frombuffer(base64.b64decode(d["f8"]), dtype="<f8").reshape(d["shape"])


class TestModelFile:
    @pytest.mark.parametrize("kind", ["linear", "dsn", "kernel", "tensor", "kernel-tensor"])
    def test_save_load_save_byte_identical(self, tmp_path, kind):
        model, u, cmap = small_model(kind)
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        save_model(model, p1)
        back = load_model(p1)
        save_model(back, p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("kind", ["linear", "dsn", "kernel", "tensor", "kernel-tensor"])
    def test_loaded_model_predicts_identically(self, tmp_path, kind):
        model, u, cmap = small_model(kind)
        path = tmp_path / "m.json"
        save_model(model, path)
        back = load_model(path)
        context = cmap.values.ravel()
        x = u[:2, 3]
        assert np.array_equal(model.predict_one_step(x, context), back.predict_one_step(x, context))
        assert np.array_equal(model.predict_columns(u[:2], context),
                              back.predict_columns(u[:2], context))
        assert np.array_equal(back.last_training_state, model.last_training_state)

    def test_format_guards(self, tmp_path):
        path = tmp_path / "m.json"
        model, _, _ = small_model("linear")
        text = model_to_json(model)
        path.write_text(text.replace("ecocast-stacked-model", "something-else"))
        with pytest.raises(ValueError, match="not a model file"):
            load_model(path)
        assert f'"format_version":{MODEL_VERSION}' in text
        path.write_text(text.replace(f'"format_version":{MODEL_VERSION}', '"format_version":99'))
        with pytest.raises(ValueError, match="version"):
            load_model(path)

    @pytest.mark.parametrize("text", ["[]", "4", '"ecocast-stacked-model"', "null"])
    def test_a_document_that_is_not_an_object_is_not_a_model_file(self, text):
        with pytest.raises(ValueError, match=r"^not a model file \(format None\)$"):
            model_from_json(text)

    def test_a_value_json_cannot_carry_is_refused_not_written(self):
        model, _, _ = small_model("dsn")  # a hand-built brick may hold an infinite trace
        bricks = (replace(model.bricks[0], refine_trace=(math.inf,)), *model.bricks[1:])
        with pytest.raises(ValueError, match="not JSON compliant"):
            model_to_json(replace(model, bricks=bricks))

    def test_a_failed_save_leaves_the_existing_file_as_it_was(self, tmp_path):
        path = tmp_path / "m.json"
        model, _, _ = small_model("dsn")
        save_model(model, path)
        before = path.read_bytes()
        bricks = (replace(model.bricks[0], refine_trace=(math.inf,)), *model.bricks[1:])
        with pytest.raises(ValueError, match="not JSON compliant"):
            save_model(replace(model, bricks=bricks), path)
        assert path.read_bytes() == before

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_a_non_finite_array_is_refused_before_the_file_is_opened(self, tmp_path, value):
        path = tmp_path / "m.json"
        model, _, _ = small_model("kernel")
        save_model(model, path)
        before = path.read_bytes()
        state = np.array(model.last_training_state)
        state[1] = value
        with pytest.raises(ValueError, match="^array values must be finite$"):
            save_model(replace(model, last_training_state=state), path)
        assert path.read_bytes() == before

    @pytest.mark.parametrize("kind", ["kernel", "kernel-tensor"])
    def test_an_infinite_ridge_in_a_model_file_is_refused_naming_the_brick(self, kind):
        model, _, _ = small_model(kind)
        text = model_to_json(model)
        assert text.count('"ridge":0.0001') == 2
        with pytest.raises(ValueError) as info:
            model_from_json(text.replace('"ridge":0.0001', '"ridge":1e999', 1))
        assert str(info.value) == "model file brick 1: the ridge lam must be finite and >= 0; got inf"

    @pytest.mark.parametrize("peak", ["1e999", "-1e999", "-1.0"])
    def test_a_training_abs_max_that_is_not_finite_and_non_negative_is_refused(self, peak):
        model, _, _ = small_model("linear")
        text = model_to_json(model)
        want = f'"training_abs_max":{model.training_abs_max!r}'
        assert want in text
        with pytest.raises(ValueError, match="^training_abs_max must be finite and >= 0"):
            model_from_json(text.replace(want, f'"training_abs_max":{peak}'))

    def test_dsn_refinement_diagnostics_round_trip(self, tmp_path):
        model = pinned_model("dsn-refined")
        save_model(model, tmp_path / "m.json")
        back = load_model(tmp_path / "m.json")
        for brick, loaded in zip(model.bricks, back.bricks):
            assert loaded.refine_converged is brick.refine_converged is not None
            assert loaded.refine_trace == brick.refine_trace and len(brick.refine_trace) > 1

    def test_kernel_model_keeps_training_inputs(self, tmp_path):
        model, u, _ = small_model("kernel")
        path = tmp_path / "m.json"
        save_model(model, path)
        back = load_model(path)
        assert np.array_equal(back.bricks[0].training_inputs, model.bricks[0].training_inputs)

    @pytest.mark.parametrize("kind", ["kernel", "kernel-tensor"])
    def test_file_stores_context_once(self, tmp_path, kind):
        model, u, cmap = small_model(kind)
        save_model(model, tmp_path / "m.json")
        text = (tmp_path / "m.json").read_text()
        assert text.count("\n") == 1  # compact JSON
        doc = json.loads(text)
        assert doc["format_version"] == MODEL_VERSION
        assert np.array_equal(payload(doc["context"]), model.context)
        assert doc["context"]["shape"] == [cmap.pixel_count]
        # brick 1 keeps its series rows only, and brick 2 its previous-output
        # rows only: its series rows are brick 1's
        assert [payload(b["training_inputs"]).shape[0] for b in doc["bricks"]] == [2, 2]
        back = load_model(tmp_path / "m.json")
        assert np.array_equal(back.context, model.context)
        for loaded, brick in zip(back.bricks, model.bricks):
            assert np.array_equal(loaded.training_inputs, brick.training_inputs)

    def test_dual_bricks_with_other_series_rows_are_written_in_full(self, tmp_path):
        model, u, cmap = small_model("kernel")
        second = model.bricks[1]
        inputs = np.array(second.training_inputs)
        inputs[:2] += 0.5  # a hand-built brick 2 whose series rows are not brick 1's
        model = replace(model, bricks=(model.bricks[0], replace(second, training_inputs=inputs)))
        save_model(model, tmp_path / "m.json")
        doc = json.loads((tmp_path / "m.json").read_text())
        assert [payload(b["training_inputs"]).shape[0] for b in doc["bricks"]] == [2, 4]
        back = load_model(tmp_path / "m.json")
        for loaded, brick in zip(back.bricks, model.bricks):
            assert np.array_equal(loaded.training_inputs, brick.training_inputs)
        save_model(back, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == (tmp_path / "m.json").read_bytes()

    def test_the_first_dual_brick_keeps_its_series_rows(self):
        model = linear_under_kernels()
        doc = json.loads(model_to_json(model))
        assert "training_inputs" not in doc["bricks"][0]
        assert [payload(b["training_inputs"]).shape[0] for b in doc["bricks"][1:]] == [4, 2]
        back = model_from_json(model_to_json(model))
        for loaded, brick in zip(back.bricks[1:], model.bricks[1:]):
            assert np.array_equal(loaded.training_inputs, brick.training_inputs)

    def test_a_brick_without_series_rows_and_no_earlier_dual_brick_is_refused(self):
        doc = json.loads(model_to_json(linear_under_kernels()))
        # brick 2 holds the previous output alone, with no earlier brick to
        # take the series rows from
        doc["bricks"][1]["training_inputs"] = array_doc(
            payload(doc["bricks"][1]["training_inputs"])[2:])
        with pytest.raises(ValueError) as info:
            model_from_json(json.dumps(doc))
        assert str(info.value) == (
            "model file brick 2: the training inputs hold 2 rows, the previous output alone,"
            " and no earlier brick retains the series rows")

    def test_a_version_4_brick_2_without_its_series_rows_is_refused(self):
        model, _, _ = small_model("kernel")
        doc = json.loads(model_to_json(model))
        assert payload(doc["bricks"][1]["training_inputs"]).shape[0] == 2
        doc["format_version"] = 4  # version 4 puts back the context rows only
        with pytest.raises(ValueError) as info:
            model_from_json(json.dumps(doc))
        assert str(info.value) == (
            "model file brick 2: kernel spec does not match the training input dimension")

    @pytest.mark.parametrize("kind", ["kernel", "linear", "dsn", "tensor"])
    def test_file_grows_by_the_new_context_values_only(self, tmp_path, kind):
        sizes, counts = [], []
        for shape in ((2, 3), (4, 6)):
            t = np.linspace(0.0, 4.0, 25)
            ts = TimeSeriesSet(names=("a", "b"), times=t,
                               values=np.vstack([np.sin(t) + 2.0, np.cos(t) + 3.0]))
            cmap = ContextMap(name="m", values=np.random.default_rng(0).uniform(0.0, 1.0, shape))
            u, v, schema = build_training_pairs(ts, [cmap])
            cfg = BrickConfig(kind=kind, ridge=1e-4, hidden_size=5, hidden_size_a=2,
                              hidden_size_b=3)
            model = train_stack(u, v, schema, cfg, n_bricks=2, scaling=default_scaling(ts, [cmap]))
            save_model(model, tmp_path / "m.json")
            sizes.append((tmp_path / "m.json").stat().st_size)
            doc = json.loads((tmp_path / "m.json").read_text())
            # the integers that count pixels: schema size, payload shape and
            # kernel slice bounds
            counts.append(json.dumps([doc["schema"]["context_sizes"], doc["context"]["shape"],
                                      [b.get("kernel", {}).get("slices") for b in doc["bricks"]]]))
            assert payload(doc["context"]).size == shape[0] * shape[1]
        new_values = 24 - 6
        # exactly the base64 of 8 bytes per new pixel, plus the longer pixel
        # counts; per-column copies would add 24 pairs x 2 bricks of them, and
        # full-width weights a column per hidden unit or output
        assert sizes[1] - sizes[0] == 8 * new_values * 4 // 3 + len(counts[1]) - len(counts[0])


def truncated(d):
    d["f8"] = d["f8"][:-4]  # one base64 quantum short


def invalid_base64(d):
    d["f8"] = d["f8"][:4] + "*" + d["f8"][4:]  # a lax decoder would skip the "*"


def wrong_byte_count(d):
    d["shape"][0] += 1


def negative_shape(d):
    d["shape"][0] = -d["shape"][0]


def non_integer_shape(d):
    d["shape"][0] = float(d["shape"][0])


def unknown_key(d):
    d["dtype"] = "<f8"


def set_entry(d, index, value):
    a = payload(d).copy()
    a.flat[index] = value
    d["f8"] = base64.b64encode(a.tobytes()).decode("ascii")


def not_a_number(d):
    set_entry(d, 0, np.nan)


def infinite(d):
    set_entry(d, -1, -np.inf)


MALFORMED = {
    not_a_number: "array values must be finite",
    infinite: "array values must be finite",
    truncated: "payload holds",
    invalid_base64: "invalid base64",
    wrong_byte_count: "payload holds",
    negative_shape: "non-negative integers",
    non_integer_shape: "non-negative integers",
    unknown_key: "exactly the keys 'f8' and 'shape'",
}
# where each array lives in a model document -> how load errors name it
PAYLOAD_FIELDS = {
    ("bricks", 1, "dual_coefficients"): "brick 2 field 'dual_coefficients'",
    ("bricks", 0, "training_inputs"): "brick 1 field 'training_inputs'",
    ("context",): "field 'context'",
    ("scaling", "offsets"): "field 'scaling.offsets'",
    ("last_training_state",): "field 'last_training_state'",
}


def malformed_text(model, where, damage) -> str:
    doc = json.loads(model_to_json(model))
    target = doc
    for key in where:
        target = target[key]
    damage(target)
    return json.dumps(doc)


class TestMalformedPayload:
    @pytest.mark.parametrize("damage", list(MALFORMED), ids=lambda f: f.__name__)
    @pytest.mark.parametrize("where", list(PAYLOAD_FIELDS), ids=lambda w: "/".join(map(str, w)))
    def test_rejected_naming_the_field(self, where, damage):
        model, _, _ = small_model("kernel")
        text = malformed_text(model, where, damage)
        with pytest.raises(ValueError) as info:
            model_from_json(text)
        assert PAYLOAD_FIELDS[where] in str(info.value)
        assert MALFORMED[damage] in str(info.value)

    @pytest.mark.parametrize("damage", list(MALFORMED), ids=lambda f: f.__name__)
    def test_cli_predict_exits_with_error_json(self, tmp_path, capsys, damage):
        model, _, cmap = small_model("kernel")
        bad = tmp_path / "bad.json"
        bad.write_text(malformed_text(model, ("bricks", 1, "dual_coefficients"), damage))
        t = np.linspace(0.0, 4.0, 25)
        write_timeseries_csv(TimeSeriesSet(names=("a", "b"), times=t,
                                           values=np.vstack([np.sin(t) + 2.0, np.cos(t) + 3.0])),
                             tmp_path / "s.csv")
        write_ascii_grid(cmap, tmp_path / "m.asc")
        out = tmp_path / "p.csv"
        assert main(["predict", "--model-in", str(bad), "--series", str(tmp_path / "s.csv"),
                     "--grid", str(tmp_path / "m.asc"), "--output", str(out)]) == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "ValueError"
        assert "brick 2 field 'dual_coefficients'" in error["message"]
        assert MALFORMED[damage] in error["message"]
        assert not out.exists()

    @pytest.mark.parametrize("number", ["1e999", "-1e999"])
    def test_a_non_finite_decimal_is_refused_naming_the_field(self, number):
        # a JSON number too large for a float reads as infinite; the constants
        # NaN and Infinity are refused before any field is read
        doc = json.loads((PINNED_DIR / PINNED_FILES[2].format("kernel")).read_text())
        doc["last_training_state"][0] = 1234.5
        text = json.dumps(doc)
        assert text.count("1234.5") == 1
        with pytest.raises(ValueError) as info:
            model_from_json(text.replace("1234.5", number))
        assert str(info.value) == (
            "model file field 'last_training_state': array values must be finite"
        )

    def test_decimal_lists_still_read(self):
        model, _, _ = small_model("kernel")
        doc = json.loads(model_to_json(model))
        brick = doc["bricks"][1]
        brick["dual_coefficients"] = payload(brick["dual_coefficients"]).tolist()
        back = model_from_json(json.dumps(doc))
        assert np.array_equal(back.bricks[1].dual_coefficients, model.bricks[1].dual_coefficients)


def array_doc(a) -> dict:
    """``a`` as a model file's array payload."""
    a = np.ascontiguousarray(a, dtype="<f8")
    return {"f8": base64.b64encode(a.tobytes()).decode("ascii"), "shape": list(a.shape)}


def first_brick(doc, **arrays):
    doc["bricks"][0].update({key: array_doc(a) for key, a in arrays.items()})


def decimals_with(doc: dict, leaf) -> list:
    """The array payload ``doc`` as the nested decimal list of format
    versions 1 and 2, with its first entry replaced by ``leaf``."""
    decimals = payload(doc).tolist()
    row = decimals
    while isinstance(row[0], list):
        row = row[0]
    row[0] = leaf
    return decimals


# an edit to a saved model of the kind named, and the error it makes on load
MODEL_FILE_CHECKS = {
    "no-series": ("linear", lambda d: d["schema"].update(series_names=[]),
                  "model file field 'schema': at least one series is required"),
    "duplicate-series": ("linear", lambda d: d["schema"].update(series_names=["a", "a"]),
                         "model file field 'schema': series names must be unique"),
    "context-names": ("linear", lambda d: d["schema"].update(context_names=["m", "n"]),
                      "model file field 'schema': one name per context dataset is required"),
    "empty-context": ("linear", lambda d: d["schema"].update(context_sizes=[0]),
                      "model file field 'schema': context datasets must have at least one entry"),
    "no-bricks": ("linear", lambda d: d.update(bricks=[]),
                  "a stacked model needs at least one brick"),
    "output-dimension": ("linear",
                         lambda d: first_brick(d, matrix=np.zeros((3, 2)), bias=np.zeros(3)),
                         "brick 1 output dimension 3 != series count 2"),
    "scaling-count": ("linear",
                      lambda d: d.update(scaling={"offsets": array_doc(np.zeros(2)),
                                                  "scales": array_doc(np.ones(2))}),
                      "scaling set does not match the schema's dataset count"),
    "scaling-shape": ("linear", lambda d: d["scaling"].update(offsets=array_doc(np.zeros(2))),
                      "model file field 'scaling': offsets and scales must be 1-d arrays of"
                      " equal length"),
    "zero-scale": ("linear", lambda d: d["scaling"].update(scales=array_doc(np.zeros(3))),
                   "model file field 'scaling': all scale factors must be positive and finite"),
    "state-length": ("linear", lambda d: d.update(last_training_state=array_doc(np.zeros(3))),
                     "last_training_state must have one entry per series"),
    "no-slices": ("kernel", lambda d: d["bricks"][0].update(kernel={"scales": [], "slices": []}),
                  "model file brick 1 field 'kernel': at least one slice is required"),
    "scale-count": ("kernel", lambda d: d["bricks"][0]["kernel"]["scales"].append(1.0),
                    "model file brick 1 field 'kernel': one scale per slice is required"),
    "bias-length": ("linear", lambda d: first_brick(d, bias=np.zeros(3)),
                    "model file brick 1: bias must be a vector of length 2"),
    "linear-1d": ("linear", lambda d: first_brick(d, matrix=np.zeros(4)),
                  "model file brick 1: matrix must be 2-d"),
    "dsn-1d": ("dsn", lambda d: first_brick(d, hidden_weights=np.zeros(10)),
               "model file brick 1: weights must be 2-d"),
    "dsn-hidden": ("dsn", lambda d: first_brick(d, output_weights=np.zeros((2, 4))),
                   "model file brick 1: output weights do not match the hidden layer size"),
    "dual-1d": ("kernel", lambda d: first_brick(d, dual_coefficients=np.zeros(24)),
                "model file brick 1: training inputs and dual coefficients must be 2-d"),
    "dual-columns": ("kernel", lambda d: first_brick(d, dual_coefficients=np.zeros((2, 23))),
                     "model file brick 1: one dual coefficient column per retained training"
                     " input required"),
    "dual-rows": ("kernel", lambda d: first_brick(d, training_inputs=np.zeros((3, 24))),
                  "model file brick 1: kernel spec does not match the training input dimension"),
    "tensor-inputs": ("tensor", lambda d: first_brick(d, hidden_weights_b=np.zeros((3, 3))),
                      "model file brick 1: both hidden layers must share the input dimension"),
    "tensor-features": ("tensor", lambda d: first_brick(d, output_weights=np.zeros((2, 5))),
                        "model file brick 1: output weights do not match the tensor feature"
                        " length"),
    # a version is an integer: JSON true and 4.0 equal 1 and 4 in Python
    "version-true": ("linear", lambda d: d.update(format_version=True),
                     "unsupported model format version True"),
    "version-float": ("linear", lambda d: d.update(format_version=4.0),
                      "unsupported model format version 4.0"),
    # a tuple field is a JSON list, not a string or object that Python iterates
    "series-names-string": ("linear", lambda d: d["schema"].update(series_names="ab"),
                            "model file field 'schema.series_names': expected a list, got 'ab'"),
    "context-sizes-object": ("linear", lambda d: d["schema"].update(context_sizes={"2": 0}),
                             "model file field 'schema.context_sizes': expected a list,"
                             " got {'2': 0}"),
    # each value has its annotation's JSON type: none is converted to fit
    "slice-bound-float": ("kernel",
                          lambda d: d["bricks"][0]["kernel"].update(slices=[[0, 1.9], [1.9, 8]]),
                          "model file brick 1 field 'kernel.slices': expected an integer,"
                          " got 1.9"),
    "slice-bound-true": ("kernel",
                         lambda d: d["bricks"][0]["kernel"].update(slices=[[0, True], [True, 8]]),
                         "model file brick 1 field 'kernel.slices': expected an integer,"
                         " got True"),
    "slice-three-bounds": ("kernel", lambda d: d["bricks"][0]["kernel"].update(slices=[[0, 4, 8]]),
                           "model file brick 1 field 'kernel.slices': expected a list of 2,"
                           " got [0, 4, 8]"),
    "scale-string": ("kernel", lambda d: d["bricks"][0]["kernel"].update(scales=["0.001"]),
                     "model file brick 1 field 'kernel.scales': expected a number, got '0.001'"),
    "ridge-string": ("kernel", lambda d: d["bricks"][1].update(ridge="0.001"),
                     "model file brick 2 field 'ridge': expected a number, got '0.001'"),
    "peak-true": ("linear", lambda d: d.update(training_abs_max=True),
                  "model file field 'training_abs_max': expected a number, got True"),
    "series-names-numbers": ("linear", lambda d: d["schema"].update(series_names=[1, 2]),
                             "model file field 'schema.series_names': expected a string, got 1"),
    "converged-number": ("dsn", lambda d: d["bricks"][0].update(refine_converged=1),
                         "model file brick 1 field 'refine_converged': expected a boolean,"
                         " got 1"),
    # a decimal list (format versions 1 and 2) holds JSON numbers only
    "decimal-string": ("kernel",
                       lambda d: d["scaling"].update(
                           scales=decimals_with(d["scaling"]["scales"], "0.32035630146224875")),
                       "model file field 'scaling.scales': expected a number,"
                       " got '0.32035630146224875'"),
    "decimal-true": ("kernel",
                     lambda d: d["scaling"].update(
                         offsets=decimals_with(d["scaling"]["offsets"], True)),
                     "model file field 'scaling.offsets': expected a number, got True"),
    "decimal-null": ("kernel",
                     lambda d: d["bricks"][1].update(
                         dual_coefficients=decimals_with(d["bricks"][1]["dual_coefficients"],
                                                         None)),
                     "model file brick 2 field 'dual_coefficients': expected a number,"
                     " got None"),
    "unknown-kind": ("linear", lambda d: d["bricks"][0].update(kind="nope"),
                     "model file brick 1 field 'kind': unknown brick kind 'nope'"),
    # a key the file must hold
    "no-ridge": ("kernel", lambda d: d["bricks"][0].pop("ridge"),
                 "model file brick 1 field 'ridge' is missing"),
    "no-kind": ("linear", lambda d: d["bricks"][1].pop("kind"),
                "model file brick 2 field 'kind' is missing"),
    "no-scaling": ("linear", lambda d: d.pop("scaling"), "model file field 'scaling' is missing"),
    "no-context-names": ("linear", lambda d: d["schema"].pop("context_names"),
                         "model file field 'schema.context_names' is missing"),
    "no-kernel-scales": ("kernel", lambda d: d["bricks"][1]["kernel"].pop("scales"),
                         "model file brick 2 field 'kernel.scales' is missing"),
}


class TestModelFileChecks:
    @pytest.mark.parametrize("case", list(MODEL_FILE_CHECKS))
    def test_an_edited_model_file_is_refused_naming_the_brick_or_field(self, case):
        kind, edit, message = MODEL_FILE_CHECKS[case]
        model, _, _ = small_model(kind)
        doc = json.loads(model_to_json(model))
        edit(doc)
        with pytest.raises(ValueError) as info:
            model_from_json(json.dumps(doc))
        assert str(info.value) == message

    @pytest.mark.parametrize("name, edit, token", [
        ("v2_kernel", lambda d: d["bricks"][0]["kernel"].update(scales=[math.inf] * 3),
         "Infinity"),
        ("v2_dsn-refined", lambda d: d["bricks"][0].update(refine_trace=[0.5, math.nan]), "NaN"),
        ("v2_dsn-refined", lambda d: d.update(training_abs_max=-math.inf), "-Infinity"),
    ], ids=["kernel-scales", "refine-trace", "training-abs-max"])
    def test_a_non_standard_json_constant_is_refused_naming_it(self, name, edit, token):
        doc = json.loads((PINNED_DIR / f"model_{name}.json").read_text())
        edit(doc)
        text = json.dumps(doc)
        assert token in text
        with pytest.raises(ValueError) as info:
            model_from_json(text)
        assert str(info.value) == f"model file holds {token}, which is not a JSON number"

    def test_every_field_is_coded_or_json_native(self):
        # a field of another type needs a rule in io._encode and io._decode
        coded = {"np.ndarray", "Activation", "float", "InputSchema", "KernelSpec", "ScalingSet"}
        native = {"str", "bool", "int", "float"}
        for cls in (StackedModel, InputSchema, ScalingSet, KernelSpec, *BRICK_CLASSES.values()):
            for f in fields(cls):
                kind = f.type.removesuffix(" | None")
                if kind.startswith("tuple["):
                    # bricks are coded one by one; other elements are JSON values
                    inner = set(re.findall(r"\w+", kind[len("tuple["):])) - {"tuple"}
                    assert inner <= native or kind == "tuple[Brick, ...]", (cls, f.name)
                else:
                    assert kind in coded | native, (cls, f.name)


# Pinned model files: model_<name>.json are format version 1, written by the
# per-kind model writer that the field-driven one replaced; model_v2_<name>.json
# to model_v4_<name>.json are format versions 2 to 4, written by the writers
# of those versions.  They pin the on-disk formats: never regenerate them.
PINNED_DIR = Path(__file__).parent / "data"
PINNED_FILES = {1: "model_{}.json", 2: "model_v2_{}.json", 3: "model_v3_{}.json",
                4: "model_v4_{}.json"}
# Kernel bricks of older files, and every brick of a version 4 file, predict
# and re-save as fresh training, bit for bit.  The other kinds of versions 1
# to 3 do so within rounding: linear, DSN and tensor bricks fold the context
# out since format version 4, and those of older files were solved on the full
# width; kernel-tensor bricks evaluate one Gaussian over their merged spec, and
# those of older files were solved against the product of two.  This bound is
# relative to each column's largest magnitude.
EXACT = ("kernel",)
FOLD_RTOL = 1e-12


def exact(name: str, version: int) -> bool:
    """Whether the pinned file ``name`` of ``version`` matches fresh training
    bit for bit, not within FOLD_RTOL."""
    return name in EXACT or version >= 4


PINNED = {
    "linear": dict(kind="linear"),
    "dsn": dict(kind="dsn"),
    "dsn-refined": dict(kind="dsn", mode="gradient-refined"),
    "kernel": dict(kind="kernel"),
    "tensor": dict(kind="tensor"),
    "kernel-tensor": dict(kind="kernel-tensor"),
}


def pinned_inputs():
    t = np.linspace(0.0, 2.2, 12)
    ts = TimeSeriesSet(names=("prey", "predators"), times=t,
                       values=np.vstack([np.sin(t) + 2.0, np.cos(t) + 3.0]))
    return ts, ContextMap(name="dtm", values=np.array([[0.25, 0.75]]))


def pinned_model(name):
    ts, cmap = pinned_inputs()
    u, v, schema = build_training_pairs(ts, [cmap])
    cfg = BrickConfig(ridge=1e-3, hidden_size=4, hidden_size_a=2, hidden_size_b=2, **PINNED[name])
    return train_stack(u, v, schema, cfg, n_bricks=2, seed=7, scaling=default_scaling(ts, [cmap]))


def same_content(decimal, binary) -> bool:
    """Whether a version 2 document holds, as decimal lists, exactly the bits
    that a version 3 document holds as array payloads, and equals it
    elsewhere."""
    if isinstance(binary, dict) and set(binary) == {"f8", "shape"}:
        a, b = np.array(decimal, dtype=float), payload(binary)
        return a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(binary, dict):
        return decimal.keys() == binary.keys() and all(
            same_content(decimal[k], binary[k]) for k in binary)
    if isinstance(binary, list):
        return len(decimal) == len(binary) and all(map(same_content, decimal, binary))
    return decimal == binary


def close_to(got: np.ndarray, want: np.ndarray) -> bool:
    """Within FOLD_RTOL of ``want``, relative to each column's largest
    magnitude (to the largest entry for a vector)."""
    scale = np.max(np.abs(want), axis=0)
    return got.shape == want.shape and bool(np.all(np.abs(got - want) <= FOLD_RTOL * scale))


class TestPinnedModelFiles:
    """The pinned files are format versions 1 to 4: they load, predict like
    fresh training, and re-save as the current version.  Kernel bricks and
    version 4 files do so bit for bit; the other kinds within FOLD_RTOL."""

    def check_resave_and_predict(self, tmp_path, name, version):
        pinned = PINNED_DIR / PINNED_FILES[version].format(name)
        assert json.loads(pinned.read_text())["format_version"] == version
        back = load_model(pinned)
        save_model(back, tmp_path / "resaved.json")
        resaved = (tmp_path / "resaved.json").read_bytes()
        assert f'"format_version":{MODEL_VERSION}'.encode() in resaved
        again = load_model(tmp_path / "resaved.json")
        save_model(again, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == resaved
        ts, cmap = pinned_inputs()
        fresh = pinned_model(name)
        context = cmap.values.ravel()
        expected = fresh.predict_columns(ts.values, context)
        for model in (back, again):
            got = model.predict_columns(ts.values, context)
            same = np.array_equal(got, expected)
            assert same if exact(name, version) else close_to(got, expected)

    def check_resaves_as_fresh_training(self, name, version):
        resaved = model_to_json(load_model(PINNED_DIR / PINNED_FILES[version].format(name)))
        fresh = model_to_json(pinned_model(name))
        if exact(name, version):
            assert resaved == fresh
            return
        # the fields of fresh training, with the weights and refinement losses
        # of the full-width or product-kernel fit within FOLD_RTOL; the rest of
        # the file is the same
        resaved_doc, fresh_doc = json.loads(resaved), json.loads(fresh)
        resaved_bricks, fresh_bricks = resaved_doc.pop("bricks"), fresh_doc.pop("bricks")
        assert resaved_doc == fresh_doc and len(resaved_bricks) == len(fresh_bricks)
        for loaded, trained in zip(resaved_bricks, fresh_bricks):
            assert loaded.keys() == trained.keys()
            for key, value in trained.items():
                if key == "refine_trace":
                    assert close_to(np.array(loaded[key]), np.array(value))
                elif isinstance(value, dict) and set(value) == {"f8", "shape"}:
                    assert close_to(payload(loaded[key]).ravel(), payload(value).ravel()), key
                else:
                    assert loaded[key] == value

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_loads_resaves_and_predicts_like_fresh_training(self, tmp_path, name):
        self.check_resave_and_predict(tmp_path, name, 1)

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_v2_loads_resaves_and_predicts_like_fresh_training(self, tmp_path, name):
        self.check_resave_and_predict(tmp_path, name, 2)

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_v3_loads_resaves_and_predicts_like_fresh_training(self, tmp_path, name):
        self.check_resave_and_predict(tmp_path, name, 3)

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_v4_loads_resaves_and_predicts_like_fresh_training(self, tmp_path, name):
        self.check_resave_and_predict(tmp_path, name, 4)

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_v2_file_resaves_as_fresh_training(self, name):
        self.check_resaves_as_fresh_training(name, 2)

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_v3_file_resaves_as_fresh_training(self, name):
        self.check_resaves_as_fresh_training(name, 3)
        # the version 3 payloads hold exactly the bits of version 2's decimals
        decimal, binary = (json.loads((PINNED_DIR / PINNED_FILES[v].format(name)).read_text())
                           for v in (2, 3))
        assert (decimal.pop("format_version"), binary.pop("format_version")) == (2, 3)
        assert same_content(decimal, binary)

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_v4_file_resaves_as_fresh_training(self, name):
        # a version 4 feature brick is folded already: loading folds it once
        # only, so the resaved file is fresh training's, bit for bit
        self.check_resaves_as_fresh_training(name, 4)

    @pytest.mark.parametrize("name", ["kernel", "kernel-tensor"])
    def test_v1_dual_file_resaves_as_fresh_training(self, name):
        back = load_model(PINNED_DIR / f"model_{name}.json")
        fresh = pinned_model(name)
        assert np.array_equal(back.context, fresh.context)
        self.check_resaves_as_fresh_training(name, 1)

    @pytest.mark.parametrize("name", ["linear", "dsn", "tensor"])
    def test_v1_feature_file_records_no_context(self, name):
        back = load_model(PINNED_DIR / f"model_{name}.json")
        assert back.context is None
        ts, _ = pinned_inputs()
        back.predict_columns(ts.values, [9.0, 9.0])  # not checked
