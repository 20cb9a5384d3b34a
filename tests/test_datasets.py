import re
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ecocast import datasets
from ecocast.bricks import gaussian_kernel, uniform_kernel_spec
from ecocast.datasets import (
    ContextMap,
    TimeSeriesSet,
    build_training_pairs,
    default_scaling,
    flatten_context,
    optimize_scaling,
    training_schema,
    usle_soil_loss,
)
from ecocast.lotka import REFERENCE_PARAMS, simulate_lv
from ecocast.scaling import ScalingSet, adimensionalize
from ecocast.stack import BrickConfig, BrickTrainingError, InputSchema, train_stack


def make_ts(n_series=2, n_points=10, seed=0, names=None):
    rng = np.random.default_rng(seed)
    return TimeSeriesSet(
        names=names or tuple(f"s{i}" for i in range(n_series)),
        times=np.arange(n_points, dtype=float),
        values=rng.standard_normal((n_series, n_points)) + 5.0,
    )


def make_map(name="m", rows=2, cols=2, seed=0, nodata=None):
    rng = np.random.default_rng(seed)
    return ContextMap(name=name, values=rng.standard_normal((rows, cols)), nodata_value=nodata)


def pairs_scaling(u, schema):
    """The default scaling of the series rows and context maps of the
    full-layout pairs ``u``."""
    ns = schema.n_series
    ts = TimeSeriesSet(names=schema.series_names, times=np.arange(u.shape[1], dtype=float),
                       values=u[:ns])
    parts = np.split(u[ns:, 0], np.cumsum(schema.context_sizes)[:-1])
    maps = [ContextMap(name=n, values=p[None, :]) for n, p in zip(schema.context_names, parts)]
    return default_scaling(ts, maps)


class TestTimeSeriesSet:
    def test_validation(self):
        with pytest.raises(ValueError):
            TimeSeriesSet(names=("a", "a"), times=np.arange(3.0), values=np.ones((2, 3)))
        with pytest.raises(ValueError):
            TimeSeriesSet(names=("a",), times=np.array([0.0, 1.0, 1.5]), values=np.ones((1, 3)))
        with pytest.raises(ValueError):
            TimeSeriesSet(names=("a",), times=np.arange(2.0), values=np.array([[1.0, np.nan]]))

    @pytest.mark.parametrize("name", [" a", "a ", "\ta", '"a"', '"a'])
    def test_a_name_the_csv_header_cannot_carry_is_refused(self, name):
        with pytest.raises(ValueError, match=f"^invalid series name {re.escape(repr(name))}: "):
            TimeSeriesSet(names=("b", name), times=np.arange(2.0), values=np.ones((2, 2)))

    def test_window_and_concat_identity(self):
        ts = make_ts(n_points=10)
        left, right = ts.window(0, 6), ts.window(6, 10)
        assert np.array_equal(np.concatenate([left.times, right.times]), ts.times)
        assert np.array_equal(np.hstack([left.values, right.values]), ts.values)


class TestTrainingPairs:
    def test_two_points_give_one_pair(self):
        u, v, schema = build_training_pairs(make_ts(n_points=2))
        assert u.shape[1] == 1 and v.shape[1] == 1
        assert schema.input_dim(1) == 2

    def test_pair_count_is_points_minus_one(self):
        for n in (2, 3, 7, 50):
            u, v, _ = build_training_pairs(make_ts(n_points=n))
            assert u.shape[1] == n - 1 == v.shape[1]

    def test_shift_identity(self):
        ts = make_ts(n_points=9)
        u, v, _ = build_training_pairs(ts)
        assert np.array_equal(u[:2, 1:], v[:, :-1])

    def test_full_dataset_representation(self):
        # 3,650 points x 40 series: inputs and targets jointly cover all
        # 146,000 observed values
        ts = make_ts(n_series=40, n_points=3650, seed=1)
        u, v, schema = build_training_pairs(ts)
        assert ts.values.size == 146_000
        assert np.array_equal(u[:40], ts.values[:, :-1])
        assert np.array_equal(v, ts.values[:, 1:])

    def test_context_appended_to_every_column(self):
        ts = make_ts(n_points=5)
        cmap = make_map(rows=3, cols=2)
        u, _, schema = build_training_pairs(ts, [cmap])
        assert schema.context_sizes == (6,)
        for j in range(u.shape[1]):
            assert np.array_equal(u[2:, j], cmap.values.ravel())

    def test_single_point_rejected(self):
        with pytest.raises(ValueError):
            build_training_pairs(make_ts(n_points=1))

    def test_single_shot_measurement_as_one_pixel_map(self):
        # campaign-style single values ride along as 1x1 constant context
        ts = make_ts(n_points=4)
        shot = ContextMap(name="soil-drilling-7", values=np.array([[3.25]]))
        u, _, schema = build_training_pairs(ts, [shot])
        assert schema.context_sizes == (1,)
        assert np.all(u[2, :] == 3.25)

    def test_series_pairs_with_the_map_schema_are_the_full_pairs_split(self):
        ts = make_ts(n_points=6)
        maps = [make_map("dtm", rows=2, cols=3), make_map("shot", rows=1, cols=1, seed=4)]
        u, v, schema = build_training_pairs(ts, maps)
        series, targets, bare = build_training_pairs(ts)
        assert training_schema(ts, maps) == schema and training_schema(ts) == bare
        assert series.tobytes() == u[:2].tobytes() and targets.tobytes() == v.tobytes()
        assert np.array_equal(schema.split_context(u)[1], flatten_context(maps))


class TestFlattenContext:
    def test_hundred_by_hundred_gives_ten_thousand(self):
        cmap = make_map(rows=100, cols=100)
        vector = flatten_context([cmap])
        assert vector.size == 10_000

    def test_zero_maps(self):
        vector = flatten_context([])
        assert vector.size == 0

    def test_two_maps_slices(self):
        a, b = make_map("a", 2, 2), make_map("b", 3, 1)
        vector = flatten_context([a, b])
        assert vector.size == 7
        assert np.array_equal(vector[:4], a.values.ravel())
        assert np.array_equal(vector[4:], b.values.ravel())

    def test_row_major_round_trip(self):
        cmap = make_map(rows=4, cols=3, seed=5)
        vector = flatten_context([cmap])
        assert np.array_equal(vector.reshape(4, 3), cmap.values)

    def test_unresolved_nodata_rejected(self):
        values = np.array([[1.0, -9999.0], [2.0, 3.0]])
        cmap = ContextMap(name="m", values=values, nodata_value=-9999.0)
        with pytest.raises(ValueError):
            flatten_context([cmap])


class TestAdimensionalize:
    def test_simple_scale(self):
        schema = InputSchema(series_names=("a",))
        s = ScalingSet(offsets=np.array([0.0]), scales=np.array([2.0]))
        series, context = adimensionalize(np.array([[4.0]]), np.empty(0), s, schema)
        assert series[0, 0] == 2.0 and context.size == 0

    def test_mean_offset_centers_training_data(self):
        ts = make_ts(n_points=50, seed=3)
        s = default_scaling(ts)
        scaled, _ = adimensionalize(ts.values, np.empty(0), s, training_schema(ts))
        assert np.allclose(scaled.mean(axis=1), 0.0, atol=1e-12)
        assert np.allclose(scaled.std(axis=1), 1.0, atol=1e-12)

    def test_kernel_invariance(self):
        rng = np.random.default_rng(4)
        schema = InputSchema(series_names=("a", "b", "c"))
        s = ScalingSet(offsets=np.zeros(3), scales=np.array([2.0, 0.5, 3.0]))
        spec_raw = uniform_kernel_spec(3, 1.0)
        from ecocast.bricks import KernelSpec

        spec_scaled = KernelSpec(scales=(2.0, 0.5, 3.0), slices=((0, 1), (1, 2), (2, 3)))
        scaled = lambda y: adimensionalize(y[:, None], np.empty(0), s, schema)[0][:, 0]
        for _ in range(20):
            x, z = rng.standard_normal(3), rng.standard_normal(3)
            raw = gaussian_kernel(x, z, spec_scaled)
            flat = gaussian_kernel(scaled(x), scaled(z), spec_raw)
            assert abs(raw - flat) < 1e-12

    def test_broadcast_equals_the_per_slice_formula_bit_for_bit(self):
        rng = np.random.default_rng(7)
        schema = InputSchema(
            series_names=("a", "b"), context_names=("m1", "m2"), context_sizes=(4, 3)
        )
        s = ScalingSet(offsets=rng.standard_normal(4) * 50.0, scales=rng.uniform(0.01, 30.0, 4))
        series, context = rng.standard_normal((2, 6)) * 100.0, rng.standard_normal(7) * 100.0
        x = schema.full_input(series, context)
        forward = np.empty_like(x)
        for d, (a, b) in enumerate(((0, 1), (1, 2), (2, 6), (6, 9))):
            forward[a:b] = (x[a:b] - s.offsets[d]) / s.scales[d]
        got_series, got_context = adimensionalize(series, context, s, schema)
        assert got_series.tobytes() == forward[:2].tobytes()
        assert got_context.tobytes() == forward[2:, 0].tobytes()

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            ScalingSet(offsets=np.zeros(2), scales=np.array([1.0, 0.0]))

    def test_constant_dataset_gets_unit_scale(self):
        ts = TimeSeriesSet(names=("a",), times=np.arange(4.0), values=np.full((1, 4), 3.0))
        cmap = ContextMap(name="m", values=np.full((2, 2), 7.0))
        s = default_scaling(ts, [cmap])
        assert np.array_equal(s.scales, [1.0, 1.0])
        assert np.array_equal(s.offsets, [3.0, 7.0])


class TestUSLE:
    def make_factors(self, seed=0):
        rng = np.random.default_rng(seed)
        return [
            ContextMap(name=n, values=rng.uniform(0.1, 2.0, (3, 4)))
            for n in ("R", "K", "LS", "C", "P")
        ]

    def test_all_ones(self):
        ones = [ContextMap(name=n, values=np.ones((2, 2))) for n in "abcde"]
        out = usle_soil_loss(*ones)
        assert np.array_equal(out.values, np.ones((2, 2)))

    def test_zero_factor_zeroes_pixel(self):
        maps = self.make_factors()
        values = np.array(maps[2].values)
        values[1, 2] = 0.0
        maps[2] = ContextMap(name="LS", values=values)
        out = usle_soil_loss(*maps)
        assert out.values[1, 2] == 0.0

    def test_matches_elementwise_oracle(self):
        maps = self.make_factors(seed=9)
        out = usle_soil_loss(*maps)
        for i in range(3):
            for j in range(4):
                expected = 1.0
                for m in maps:
                    expected *= m.values[i, j]
                assert out.values[i, j] == expected

    def test_grid_mismatch_rejected(self):
        maps = self.make_factors()
        maps[4] = ContextMap(name="P", values=np.ones((2, 2)))
        with pytest.raises(ValueError):
            usle_soil_loss(*maps)

    def test_nodata_propagates(self):
        maps = self.make_factors()
        values = np.array(maps[0].values)
        values[0, 1] = -9999.0
        maps[0] = ContextMap(name="R", values=values, nodata_value=-9999.0)
        out = usle_soil_loss(*maps)
        assert out.values[0, 1] == -9999.0
        assert out.nodata_value == -9999.0
        assert out.values[0, 0] != -9999.0


def lv_pairs(points=81, maps=()):
    return build_training_pairs(simulate_lv(REFERENCE_PARAMS, 10.0, 5.0, 0.05, points - 1), maps)


def reference_search(u, v, schema, configs, grid, split_fraction, initial, seed=0, max_passes=20):
    """The scale search from ``initial`` with every candidate retrained by
    train_stack; also returns each candidate evaluated, as (scales, ridges),
    in order and with repeats."""
    n_train = int(round(u.shape[1] * split_fraction))
    u_train, u_val, v_train, v_val = u[:, :n_train], u[:, n_train:], v[:, :n_train], v[:, n_train:]
    ns = schema.n_series
    norm = np.std(v_train, axis=1)
    norm[norm <= 0.0] = 1.0
    candidates = []

    def evaluate(scaling, ridges):
        candidates.append((tuple(scaling.scales.tolist()), tuple(ridges)))
        cfgs = [replace(c, ridge=r) for c, r in zip(configs, ridges)]
        model = train_stack(u_train, v_train, schema, cfgs, seed=seed, scaling=scaling)
        err = (model.predict_columns(u_val[:ns], u[ns:, 0]) - v_val) / norm[:, None]
        return float(np.sqrt(np.mean(err * err)))

    scaling = initial
    ridges = [c.ridge for c in configs]
    best = evaluate(scaling, ridges)
    trace = [best]
    for _ in range(max_passes):
        improved = False
        for d in range(schema.n_datasets):
            current = float(scaling.scales[d])
            for g in grid:
                if current * g != current:
                    cand = scaling.with_scale(d, current * g)
                    loss = evaluate(cand, ridges)
                    if loss < best:
                        best, scaling, improved = loss, cand, True
                        trace.append(best)
        for k in range(len(configs)):
            current = ridges[k]
            for g in grid:
                if current * g != current:
                    cand = list(ridges)
                    cand[k] = current * g
                    loss = evaluate(scaling, cand)
                    if loss < best:
                        best, ridges, improved = loss, cand, True
                        trace.append(best)
        if not improved:
            break
    return scaling, tuple(ridges), tuple(trace), candidates


class TestOptimizeScaling:
    def pairs(self, mis_scale=None, n_points=40, seed=0):
        ts = make_ts(n_series=2, n_points=n_points, seed=seed)
        values = np.array(ts.values)
        if mis_scale:
            values[0] *= mis_scale
        ts = TimeSeriesSet(names=ts.names, times=ts.times, values=values)
        return build_training_pairs(ts)

    def test_unit_grid_returns_initial_unchanged(self):
        u, v, schema = self.pairs()
        initial = pairs_scaling(u[:, :30], schema)
        result = optimize_scaling(
            u, v, schema, BrickConfig(kind="kernel", ridge=1e-4), grid=(1.0,),
            split_fraction=0.75, n_bricks=1, initial=initial,
        )
        assert np.array_equal(result.scaling.scales, initial.scales)
        assert len(result.loss_trace) == 1

    def test_loss_trace_non_increasing(self):
        u, v, schema = self.pairs(seed=2)
        result = optimize_scaling(
            u, v, schema, BrickConfig(kind="kernel", ridge=1e-3),
            grid=(0.25, 0.5, 2.0, 4.0), split_fraction=0.75, n_bricks=1,
            initial=pairs_scaling(u, schema),
        )
        trace = result.loss_trace
        assert all(a >= b for a, b in zip(trace, trace[1:]))

    def test_recovers_from_deliberate_mis_scaling(self):
        u, v, schema = self.pairs(seed=3)
        initial = pairs_scaling(u[:, :30], schema)
        # a 100x too-wide distance scale washes out the first series
        broken = initial.with_scale(0, float(initial.scales[0]) * 100.0)
        result = optimize_scaling(
            u, v, schema, BrickConfig(kind="kernel", ridge=1e-3),
            grid=(0.01, 0.1, 1.0, 10.0), split_fraction=0.75, n_bricks=1, initial=broken,
        )
        assert result.loss_trace[-1] < result.loss_trace[0]

    def test_config_list_must_match_n_bricks(self):
        u, v, schema = self.pairs()
        with pytest.raises(ValueError, match="expected 3 brick configs"):
            optimize_scaling(u, v, schema, [BrickConfig(kind="kernel")] * 2, grid=(0.5, 2.0),
                             split_fraction=0.75, n_bricks=3, initial=pairs_scaling(u, schema))

    def test_empty_grid_rejected(self):
        u, v, schema = self.pairs()
        with pytest.raises(ValueError):
            optimize_scaling(u, v, schema, BrickConfig(kind="kernel"), grid=(),
                             split_fraction=0.75, n_bricks=1, initial=pairs_scaling(u, schema))

    @pytest.mark.parametrize("bad, message", [
        *((bad, "grid multipliers must be positive and finite") for bad in (np.inf, np.nan, 0.0, -2.0)),
        (0.5, r"^scale-search grid multipliers must be distinct; got \(0\.5, 0\.5\)$"),
    ], ids=["inf", "nan", "0.0", "-2.0", "repeated"])
    def test_bad_grid_multiplier_rejected_before_any_evaluation(self, monkeypatch, bad, message):
        u, v, schema = self.pairs()

        def no_training(*args, **kwargs):
            raise AssertionError("a candidate was trained")

        monkeypatch.setattr(datasets, "_train_stack", no_training)
        with pytest.raises(ValueError, match=message):
            optimize_scaling(u, v, schema, BrickConfig(kind="kernel", ridge=1e-3),
                             grid=(0.5, bad), split_fraction=0.75, n_bricks=1,
                             initial=pairs_scaling(u, schema))

    @pytest.mark.parametrize("columns", [slice(-5, None), slice(0, 1)], ids=["validation", "training"])
    def test_context_varying_between_columns_is_rejected_before_any_evaluation(
        self, monkeypatch, columns
    ):
        u, v, schema = lv_pairs(points=61, maps=[make_map("dtm", 1, 2, seed=1)])
        initial = pairs_scaling(u, schema)
        u[schema.context_rows, columns] += 100.0

        def no_training(*args, **kwargs):
            raise AssertionError("a candidate was trained")

        monkeypatch.setattr(datasets, "_train_stack", no_training)
        with pytest.raises(ValueError, match="context rows must hold the same value"):
            optimize_scaling(u, v, schema, BrickConfig(kind="kernel", ridge=1e-3),
                             grid=(0.5, 2.0), n_bricks=1, initial=initial)

    def test_reports_a_search_cut_by_max_passes(self, monkeypatch):
        u, v, schema = lv_pairs(points=121)
        cfg = BrickConfig(kind="kernel", ridge=1e-3)
        initial = pairs_scaling(u, schema)
        with monkeypatch.context() as patch:
            patch.setattr(datasets, "_MAX_PASSES", 1)
            cut = optimize_scaling(u, v, schema, cfg, grid=(0.5, 1e300), n_bricks=1,
                                   initial=initial)
        assert (cut.passes, cut.converged) == (1, False)
        assert len(cut.loss_trace) > 1
        done = optimize_scaling(u, v, schema, cfg, grid=(0.5, 2.0), n_bricks=1, initial=initial)
        assert done.converged and 1 <= done.passes < 20

    def test_never_tries_a_product_that_overflows(self, monkeypatch):
        u, v, schema = lv_pairs(points=121)
        tried = []
        train = datasets._train_stack

        def recording(*args):
            cfgs, scaling = args[3], args[5]
            tried.append([*scaling.scales, *(c.ridge for c in cfgs)])
            return train(*args)

        monkeypatch.setattr(datasets, "_train_stack", recording)
        # from the scaling of the 96 training pairs, the search takes x1e300
        result = optimize_scaling(u, v, schema, BrickConfig(kind="kernel", ridge=1e-3),
                                  grid=(0.5, 1e300), n_bricks=1,
                                  initial=pairs_scaling(u[:, :96], schema))
        # x1e300 is accepted once; a second x1e300 would overflow
        assert result.scaling.scales.max() > 1e299
        assert np.isfinite(tried).all() and result.converged
        assert result.rejected == 0

    def test_rejects_candidates_whose_training_meets_non_finite_values(self, monkeypatch):
        u, v, schema = lv_pairs(points=121)
        failures = []
        train = datasets._train_stack

        def recording(*args):
            try:
                return train(*args)
            except BrickTrainingError as exc:
                failures.append(str(exc))
                raise

        monkeypatch.setattr(datasets, "_train_stack", recording)
        # x1e-200 scales overflow the kernel distances: brick 1's solve gives
        # non-finite dual coefficients
        with np.errstate(over="ignore", invalid="ignore"):
            result = optimize_scaling(u, v, schema, BrickConfig(kind="kernel", ridge=1e-3),
                                      grid=(1e-200, 1e200), n_bricks=2,
                                      initial=pairs_scaling(u, schema))
        assert failures and set(failures) == {
            "brick 1: the kernel solve gave non-finite dual coefficients"
        }
        assert result.rejected >= len(failures)
        assert result.evaluations > result.rejected
        assert np.isfinite(result.loss_trace).all() and len(result.loss_trace) > 1
        assert np.isfinite(result.scaling.scales).all() and np.isfinite(result.ridges).all()

    def test_initial_configuration_still_fails_loudly(self):
        u, v, schema = lv_pairs(points=121)
        initial = pairs_scaling(u, schema)
        tiny = ScalingSet(offsets=initial.offsets, scales=initial.scales * 1e-200)
        cfg = BrickConfig(kind="kernel", ridge=1e-3)
        with np.errstate(over="ignore", invalid="ignore"):
            for n_bricks in (2, 1):
                with pytest.raises(BrickTrainingError, match="brick 1: the kernel solve gave non-finite"):
                    optimize_scaling(u, v, schema, cfg, grid=(0.5, 2.0), n_bricks=n_bricks,
                                     initial=tiny)

    @pytest.mark.parametrize("configs", [
        [BrickConfig(kind="kernel", ridge=1e-3)] * 2,
        [BrickConfig(kind="kernel-tensor", ridge=1e-3)] * 2,
        [BrickConfig(kind="dsn", ridge=1e-3, hidden_size=6), BrickConfig(kind="kernel", ridge=1e-3)],
    ], ids=["kernel", "kernel-tensor", "dsn-kernel"])
    def test_matches_retraining_every_candidate_bit_for_bit(self, monkeypatch, configs):
        u, v, schema = lv_pairs(maps=[make_map("dtm", 2, 2, seed=1)])
        grid = (0.5, 2.0)  # x0.5 after an accepted x2 returns to a scored candidate
        trainings = []
        train = datasets._train_stack
        monkeypatch.setattr(datasets, "_train_stack", lambda *a: trainings.append(a) or train(*a))
        initial = pairs_scaling(u, schema)
        result = optimize_scaling(u, v, schema, configs, grid=grid, seed=3, initial=initial)
        scaling, ridges, trace, candidates = reference_search(u, v, schema, configs, grid, 0.8,
                                                              initial, 3)
        assert result.scaling.scales.tobytes() == scaling.scales.tobytes()
        assert result.ridges == ridges
        assert result.loss_trace == trace
        assert result.evaluations == len(candidates)
        assert len(trace) > 2 and len(trainings) < len(candidates)
        # each candidate trains once, when it is first evaluated
        trained = [(tuple(a[5].scales.tolist()), tuple(c.ridge for c in a[3])) for a in trainings]
        assert trained == list(dict.fromkeys(candidates))

    def test_an_initial_scaling_of_another_dataset_count_is_refused(self):
        u, v, schema = lv_pairs(maps=[make_map("dtm", 2, 2, seed=1)])
        full = pairs_scaling(u, schema)
        for n in (schema.n_datasets - 1, schema.n_datasets + 1):
            initial = ScalingSet(offsets=np.resize(full.offsets, n), scales=np.resize(full.scales, n))
            with pytest.raises(ValueError, match="^scaling set does not match the schema's dataset count$"):
                optimize_scaling(u, v, schema, BrickConfig(kind="kernel", ridge=1e-3),
                                 grid=(0.5, 2.0), n_bricks=1, initial=initial)

    def test_context_apart_searches_as_the_full_layout(self):
        u, v, schema = lv_pairs(maps=[make_map("dtm", 2, 2, seed=1)])
        context = u[schema.context_rows, 0]
        initial = pairs_scaling(u, schema)
        configs = [BrickConfig(kind="dsn", ridge=1e-3, hidden_size=6),
                   BrickConfig(kind="kernel", ridge=1e-3)]
        full = optimize_scaling(u, v, schema, configs, grid=(0.5, 2.0), seed=3, initial=initial)
        apart = optimize_scaling(np.array(u[:2]), v, schema, configs, grid=(0.5, 2.0), seed=3,
                                 initial=initial, context=context)
        assert (apart.evaluations, apart.loss_trace) == (full.evaluations, full.loss_trace)
        assert apart.scaling.offsets.tobytes() == full.scaling.offsets.tobytes()
        assert apart.scaling.scales.tobytes() == full.scaling.scales.tobytes()
        assert apart.ridges == full.ridges and len(full.loss_trace) > 2

    def test_context_of_another_length_is_rejected_before_any_evaluation(self, monkeypatch):
        u, v, schema = lv_pairs(maps=[make_map("dtm", 2, 2, seed=1)])

        def no_training(*args, **kwargs):
            raise AssertionError("a candidate was trained")

        monkeypatch.setattr(datasets, "_train_stack", no_training)
        with pytest.raises(ValueError, match="^the context has 3 entries, not 4$"):
            optimize_scaling(u[:2], v, schema, BrickConfig(kind="kernel", ridge=1e-3),
                             grid=(0.5, 2.0), n_bricks=1, initial=pairs_scaling(u, schema),
                             context=u[2:5, 0])

    def test_keeps_at_most_one_gram_per_brick(self, monkeypatch):
        u, v, schema = lv_pairs(maps=[make_map("dtm", 2, 2, seed=1)])
        grams = []
        live = []
        train = datasets._train_stack

        def counting(*args):
            live.append(len({id(ref()) for ref in grams if ref() is not None}))
            model, fits = train(*args)
            grams.extend(weakref.ref(f.gram) for f in fits if f.gram is not None)
            return model, fits

        monkeypatch.setattr(datasets, "_train_stack", counting)
        configs = [BrickConfig(kind="kernel", ridge=1e-3)] * 3
        result = optimize_scaling(u, v, schema, configs, grid=(0.5, 2.0),
                                  initial=pairs_scaling(u, schema))
        assert len(live) > 20 and len(result.loss_trace) > 2
        assert max(live) == 3
