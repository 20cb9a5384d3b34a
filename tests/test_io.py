import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ecocast.datasets import (
    ContextMap,
    TimeSeriesSet,
    build_training_pairs,
    default_scaling,
    flatten_context,
)
from ecocast.io import (
    load_model,
    model_to_json,
    read_ascii_grid,
    read_timeseries_csv,
    save_model,
    write_ascii_grid,
    write_timeseries_csv,
)
from ecocast.lotka import REFERENCE_PARAMS, simulate_lv
from ecocast.stack import BrickConfig, train_stack


class TestTimeseriesCSV:
    def test_minimal_file(self, tmp_path):
        path = tmp_path / "min.csv"
        path.write_text("t,r,f\n0,10,5\n1,11,4\n")
        ts = read_timeseries_csv(path)
        assert ts.names == ("r", "f")
        assert ts.n_points == 2 and ts.dt == 1.0
        assert np.array_equal(ts.values, [[10.0, 11.0], [5.0, 4.0]])

    def test_non_uniform_cadence_names_offending_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,a\n0,1\n1,2\n2.5,3\n")
        with pytest.raises(ValueError, match="row 4"):
            read_timeseries_csv(path)

    def test_non_uniform_cadence_resampled_with_flag(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,a\n0,0\n1,1\n2.5,2.5\n")
        ts = read_timeseries_csv(path, interpolate=True)
        assert ts.n_points == 3
        assert np.allclose(np.diff(ts.times), 1.25)
        assert np.allclose(ts.values[0], ts.times)  # linear stays linear

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

    def test_dtm_flattens_to_ten_thousand_entries(self, tmp_path):
        rng = np.random.default_rng(0)
        dtm = ContextMap(name="dtm", values=rng.uniform(0.0, 800.0, (100, 100)))
        path = tmp_path / "dtm.asc"
        write_ascii_grid(dtm, path)
        back = read_ascii_grid(path)
        vector, _ = flatten_context([back])
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

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "bad.asc"
        path.write_text(GRID_TEXT.replace("1.0 1.0\n1.0 1.0", "1.0 x\n1.0 1.0"))
        with pytest.raises(ValueError, match="non-numeric"):
            read_ascii_grid(path)

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
        assert '"format_version":2' in text
        path.write_text(text.replace('"format_version":2', '"format_version":99'))
        with pytest.raises(ValueError, match="version"):
            load_model(path)

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
        assert doc["format_version"] == 2
        assert doc["context"] == model.context.tolist() and len(doc["context"]) == cmap.pixel_count
        # retained inputs keep their series and previous-output rows only
        assert [len(b["training_inputs"]) for b in doc["bricks"]] == [2, 4]
        back = load_model(tmp_path / "m.json")
        assert np.array_equal(back.context, model.context)
        for loaded, brick in zip(back.bricks, model.bricks):
            assert np.array_equal(loaded.training_inputs, brick.training_inputs)

    def test_file_grows_by_the_new_context_values_only(self, tmp_path):
        sizes = []
        for shape in ((2, 3), (4, 6)):
            t = np.linspace(0.0, 4.0, 25)
            ts = TimeSeriesSet(names=("a", "b"), times=t,
                               values=np.vstack([np.sin(t) + 2.0, np.cos(t) + 3.0]))
            cmap = ContextMap(name="m", values=np.random.default_rng(0).uniform(0.0, 1.0, shape))
            u, v, schema = build_training_pairs(ts, [cmap])
            model = train_stack(u, v, schema, BrickConfig(kind="kernel", ridge=1e-4), n_bricks=2,
                                scaling=default_scaling(ts, [cmap]))
            save_model(model, tmp_path / "m.json")
            sizes.append((tmp_path / "m.json").stat().st_size)
        new_values = 24 - 6
        # at most one shortest-repr double (<= 24 characters) plus a comma per
        # new pixel; per-column copies would add 24 pairs x 2 bricks of them
        assert 0 < sizes[1] - sizes[0] <= 25 * new_values


# Model files written by the per-kind model writer that the field-driven one
# replaced.  They pin the on-disk format: never regenerate them.
PINNED_DIR = Path(__file__).parent / "data"
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


class TestPinnedModelFiles:
    """The pinned files are format version 1: they load, predict like fresh
    training, and re-save as version 2."""

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_loads_resaves_and_predicts_like_fresh_training(self, tmp_path, name):
        pinned = PINNED_DIR / f"model_{name}.json"
        assert json.loads(pinned.read_text())["format_version"] == 1
        back = load_model(pinned)
        save_model(back, tmp_path / "v2.json")
        v2 = (tmp_path / "v2.json").read_bytes()
        assert b'"format_version":2' in v2
        again = load_model(tmp_path / "v2.json")
        save_model(again, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == v2
        ts, cmap = pinned_inputs()
        fresh = pinned_model(name)
        context = cmap.values.ravel()
        expected = fresh.predict_columns(ts.values, context)
        assert np.array_equal(back.predict_columns(ts.values, context), expected)
        assert np.array_equal(again.predict_columns(ts.values, context), expected)

    @pytest.mark.parametrize("name", ["kernel", "kernel-tensor"])
    def test_v1_dual_file_resaves_as_fresh_training(self, name):
        back = load_model(PINNED_DIR / f"model_{name}.json")
        fresh = pinned_model(name)
        assert np.array_equal(back.context, fresh.context)
        assert model_to_json(back) == model_to_json(fresh)

    @pytest.mark.parametrize("name", ["linear", "dsn", "tensor"])
    def test_v1_feature_file_records_no_context(self, name):
        back = load_model(PINNED_DIR / f"model_{name}.json")
        assert back.context is None
        ts, _ = pinned_inputs()
        back.predict_columns(ts.values, [9.0, 9.0])  # not checked
