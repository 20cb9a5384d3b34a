import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ecocast.bricks import (
    Activation,
    LinearBrick,
    train_dsn_brick,
    train_kernel_brick,
    train_kt_brick,
    uniform_kernel_spec,
)
from ecocast.datasets import ContextMap, TimeSeriesSet, build_training_pairs, default_scaling
from ecocast.linalg import NonFiniteError
from ecocast.lotka import REFERENCE_PARAMS, simulate_lv
from ecocast.scaling import ScalingSet, adimensionalize
from ecocast.stack import (
    BrickConfig,
    BrickTrainingError,
    InputSchema,
    StackedModel,
    _train_stack,
    count_free_parameters,
    take_training_predictions,
    train_stack,
)

SCHEMA_40_DTM = InputSchema(
    series_names=tuple(f"s{i}" for i in range(40)),
    context_names=("dtm",),
    context_sizes=(10_000,),
)


class TestSchema:
    def test_forty_series_one_dtm_higher_brick(self):
        assert SCHEMA_40_DTM.input_dim(2) == 10_080

    def test_forty_series_one_dtm_first_brick(self):
        assert SCHEMA_40_DTM.input_dim(1) == 10_040

    def test_no_context_three_series(self):
        assert InputSchema(series_names=("a", "b", "c")).input_dim(2) == 6

    @given(
        n_series=st.integers(1, 6),
        sizes=st.lists(st.integers(1, 30), max_size=3),
        brick_index=st.integers(1, 4),
    )
    @settings(max_examples=80, deadline=None)
    def test_schema_arithmetic(self, n_series, sizes, brick_index):
        schema = InputSchema(
            series_names=tuple(f"s{i}" for i in range(n_series)),
            context_names=tuple(f"m{i}" for i in range(len(sizes))),
            context_sizes=tuple(sizes),
        )
        size = n_series + sum(sizes) + (n_series if brick_index >= 2 else 0)
        assert schema.input_dim(brick_index) == size


def lv_like_pairs(n_series=2, n_pairs=60, context_size=0, seed=0):
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 6.0, n_pairs + 1)
    rows = [np.sin(t + i) + 2.0 + 0.01 * rng.standard_normal(t.size) for i in range(n_series)]
    values = np.vstack(rows)
    context = rng.standard_normal(context_size)
    u = values[:, :-1]
    if context_size:
        u = np.vstack([u, np.repeat(context[:, None], n_pairs, axis=1)])
    names = tuple(f"s{i}" for i in range(n_series))
    schema = InputSchema(
        series_names=names,
        context_names=("m0",) if context_size else (),
        context_sizes=(context_size,) if context_size else (),
    )
    return u, values[:, 1:], schema, context


def pairs_scaling(u, schema):
    """The default scaling of the series rows and the context of the
    full-layout pairs ``u`` (at most one context map)."""
    ns = schema.n_series
    ts = TimeSeriesSet(names=schema.series_names, times=np.arange(u.shape[1], dtype=float),
                       values=u[:ns])
    maps = [ContextMap(name="m0", values=u[ns:, :1].T)] if schema.context_total else []
    return default_scaling(ts, maps)


def lv_series_with_tiny_scales():
    """Pairs of the 121-point LV series (dt 0.05) with their unit-variance
    scales times 1e-200."""
    traj = simulate_lv(REFERENCE_PARAMS, 10.0, 5.0, 0.05, 120)
    u, v, schema = build_training_pairs(traj)
    scaling = default_scaling(traj)
    return u, v, schema, ScalingSet(offsets=scaling.offsets, scales=scaling.scales * 1e-200)


class TestTrainStack:
    def test_single_brick_stack_equals_bare_brick(self):
        u, v, schema, _ = lv_like_pairs()
        model = train_stack(u, v, schema, BrickConfig(kind="kernel", ridge=1e-3), n_bricks=1, seed=0)
        bare = train_kernel_brick(u, v, uniform_kernel_spec(schema.input_dim(1)), 1e-3)
        x = u[:, 5]
        assert np.array_equal(model.predict_one_step(x), bare.apply(x))

    @pytest.mark.parametrize("layout", ["strided", "fortran", "c"])
    def test_stack_brick_predicts_the_bare_brick_bits_in_every_layout(self, layout):
        u, v, schema, _ = lv_like_pairs()  # u is a strided view of the series
        u = {"strided": u, "fortran": np.asfortranarray(u), "c": np.ascontiguousarray(u)}[layout]
        model = train_stack(u, v, schema, BrickConfig(kind="kernel", ridge=1e-3), n_bricks=1)
        bare = train_kernel_brick(u, v, uniform_kernel_spec(schema.input_dim(1)), 1e-3)
        assert model.bricks[0].dual_coefficients.tobytes() == bare.dual_coefficients.tobytes()
        for x in (u, u[:, 5:6], u[:, ::3], np.ascontiguousarray(u[:, ::3])):
            assert model.predict_columns(x).tobytes() == bare.apply_columns(x).tobytes()

    @pytest.mark.parametrize("kind", ["kernel", "kernel-tensor"])
    def test_each_dual_brick_has_one_unit_segment(self, kind):
        # the scaling set carries the distance scales, so the specs carry none
        u, v, schema, _ = lv_like_pairs(context_size=4)
        model = train_stack(u, v, schema, BrickConfig(kind=kind, ridge=1e-3), n_bricks=3,
                            scaling=pairs_scaling(u, schema))
        for k, brick in enumerate(model.bricks, start=1):
            specs = (brick.spec,) if kind == "kernel" else (brick.spec_a, brick.spec_b)
            for spec in specs:
                assert spec.scales == (1.0,) and spec.slices == ((0, schema.input_dim(k)),)

    def test_deterministic_given_seed(self):
        u, v, schema, _ = lv_like_pairs()
        cfg = BrickConfig(kind="dsn", hidden_size=7, ridge=1e-6)
        a = train_stack(u, v, schema, cfg, n_bricks=3, seed=42)
        b = train_stack(u, v, schema, cfg, n_bricks=3, seed=42)
        for ba, bb in zip(a.bricks, b.bricks):
            assert ba.hidden_weights.tobytes() == bb.hidden_weights.tobytes()
            assert ba.output_weights.tobytes() == bb.output_weights.tobytes()

    def test_kernel_stack_beats_linear_baseline_on_training_rmse(self):
        u, v, schema, context = lv_like_pairs(context_size=5, seed=3)
        kernel = train_stack(
            u, v, schema, BrickConfig(kind="kernel", ridge=1e-8), n_bricks=3, seed=0
        )
        linear = train_stack(u, v, schema, BrickConfig(kind="linear"), n_bricks=1, seed=0)

        def rmse(model):
            pred = model.predict_columns(u[:2], context)
            return np.sqrt(np.mean((pred - v) ** 2))

        assert rmse(kernel) <= rmse(linear)

    def test_interpolating_kernel_stack_reproduces_training_column(self):
        u, v, schema, context = lv_like_pairs(n_pairs=40, context_size=3, seed=4)
        model = train_stack(u, v, schema, BrickConfig(kind="kernel", ridge=0.0), n_bricks=2, seed=0)
        pred = model.predict_one_step(u[:2, 7], context)
        assert np.linalg.norm(pred - v[:, 7]) < 1e-6

    def test_brick_failure_carries_index(self):
        # x1e-200 scales overflow the kernel distances of brick 2; the linear
        # brick 1 below it trains
        u, v, schema, tiny = lv_series_with_tiny_scales()
        bad = [BrickConfig(kind="linear"), BrickConfig(kind="kernel", ridge=1e-3)]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(BrickTrainingError, match="non-finite dual coefficients") as err:
                train_stack(u, v, schema, bad, seed=0, scaling=tiny)
        assert err.value.brick_index == 2
        assert isinstance(err.value.__cause__, NonFiniteError)

    def test_kernel_solve_with_non_finite_results_fails_loudly(self):
        u, v, schema, tiny = lv_series_with_tiny_scales()
        cfg = BrickConfig(kind="kernel", ridge=1e-3)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(BrickTrainingError, match="non-finite dual coefficients") as err:
                train_stack(u, v, schema, cfg, n_bricks=1, scaling=tiny)
        assert err.value.brick_index == 1
        assert isinstance(err.value.__cause__, NonFiniteError)

    def test_scaled_stack_round_trips_units(self):
        u, v, schema, context = lv_like_pairs(n_pairs=50, context_size=4, seed=5)
        offsets = np.array([2.0, 2.0, 0.0])
        scales = np.array([0.5, 0.5, 1.0])
        scaling = ScalingSet(offsets=offsets, scales=scales)
        model = train_stack(
            u, v, schema, BrickConfig(kind="kernel", ridge=0.0), n_bricks=1, seed=0, scaling=scaling
        )
        pred = model.predict_one_step(u[:2, 9], context)
        assert np.linalg.norm(pred - v[:, 9]) < 1e-6

    def test_context_rows_must_be_constant_across_columns(self):
        u, v, schema, _ = lv_like_pairs(n_pairs=25, context_size=3, seed=9)
        u = np.array(u)
        u[3, 7] += 1.0
        with pytest.raises(ValueError, match="same value in every training column"):
            train_stack(u, v, schema, BrickConfig(kind="linear"), n_bricks=1)

    @pytest.mark.parametrize("kind", ["dsn", "tensor"])
    def test_folded_hidden_weights_are_the_full_width_draw(self, kind):
        u, v, schema, _ = lv_like_pairs(n_pairs=30, context_size=4, seed=13)
        scaling = pairs_scaling(u, schema)
        cfg = BrickConfig(kind=kind, hidden_size=5, hidden_size_a=2, hidden_size_b=3)
        model = train_stack(u, v, schema, cfg, n_bricks=3, seed=20, scaling=scaling)
        rows = schema.context_rows
        for k, brick in enumerate(model.bricks, start=1):
            assert brick.input_dim == schema.input_dim(k) - 4
            rng = np.random.default_rng(20 + k)
            width = schema.input_dim(k)
            bound = 1.0 / math.sqrt(width)
            layers = (("hidden_weights", "hidden_bias", 5),) if kind == "dsn" else (
                ("hidden_weights_a", "hidden_bias_a", 2), ("hidden_weights_b", "hidden_bias_b", 3))
            for weights, bias, size in layers:
                draw = rng.uniform(-bound, bound, size=(size, width))
                assert getattr(brick, weights).tobytes() == np.delete(draw, rows, axis=1).tobytes()
                assert getattr(brick, bias).tobytes() == (draw[:, rows] @ model.context).tobytes()

    def test_folded_refinement_follows_the_full_width_one(self):
        u, v, schema, _ = lv_like_pairs(n_pairs=30, context_size=3, seed=14)
        scaling = pairs_scaling(u, schema)
        cfg = BrickConfig(kind="dsn", hidden_size=4, mode="gradient-refined", ridge=1e-6)
        folded = train_stack(u, v, schema, cfg, n_bricks=1, seed=2, scaling=scaling).bricks[0]
        scaled = schema.full_input(*adimensionalize(*schema.split_context(u), scaling, schema))
        full = train_dsn_brick(scaled, (v - scaling.offsets[:2, None])
                               / scaling.scales[:2, None], 4, Activation.SIGMOID,
                               "gradient-refined", cfg.ridge, seed=3)
        assert full.input_dim == folded.input_dim + 3 and folded.hidden_bias is not None
        # the same descent in exact arithmetic; the steps agree to rounding
        assert len(folded.refine_trace) == len(full.refine_trace) > 10
        assert np.allclose(folded.refine_trace, full.refine_trace, rtol=1e-10, atol=0.0)
        assert folded.refine_converged == full.refine_converged

    @pytest.mark.parametrize("kind", ["linear", "dsn", "tensor"])
    def test_a_zero_context_adds_no_bias(self, kind):
        u, v, schema, _ = lv_like_pairs(n_pairs=30, context_size=3, seed=15)
        u[2:] = 7.0  # a flat map, which scales to zeros
        scaling = pairs_scaling(u, schema)
        cfg = BrickConfig(kind=kind, ridge=1e-6, hidden_size=4, hidden_size_a=2, hidden_size_b=2)
        model = train_stack(u, v, schema, cfg, n_bricks=2, seed=0, scaling=scaling)
        assert not np.any(model.context)
        for k, brick in enumerate(model.bricks, start=1):
            assert brick.input_dim == schema.input_dim(k) - 3
            assert all(getattr(brick, f) is None for f in vars(brick) if "bias" in f)

    def test_all_brick_kinds_train_and_predict(self):
        u, v, schema, context = lv_like_pairs(n_pairs=30, context_size=2, seed=6)
        for kind in ("linear", "dsn", "kernel", "tensor", "kernel-tensor"):
            cfg = BrickConfig(kind=kind, ridge=1e-6, hidden_size=6, hidden_size_a=3, hidden_size_b=3)
            model = train_stack(u, v, schema, cfg, n_bricks=2, seed=1)
            out = model.predict_one_step(u[:2, 0], context)
            assert out.shape == (2,) and np.all(np.isfinite(out))


class TestInputLayouts:
    """The series rows with the context vector apart train the model that the
    full first-brick layout trains, bit for bit."""

    @pytest.mark.parametrize("scaled", [False, True], ids=["raw", "scaled"])
    @pytest.mark.parametrize("kind", ["linear", "dsn", "kernel", "tensor", "kernel-tensor"])
    def test_context_apart_trains_the_full_layout_model(self, kind, scaled):
        u, v, schema, context = lv_like_pairs(n_pairs=40, context_size=5, seed=21)
        scaling = pairs_scaling(u, schema) if scaled else None
        cfg = BrickConfig(kind=kind, ridge=1e-6, hidden_size=6, hidden_size_a=3, hidden_size_b=2)
        full = train_stack(u, v, schema, cfg, n_bricks=2, seed=4, scaling=scaling)
        apart = train_stack(np.array(u[:2]), v, schema, cfg, n_bricks=2, seed=4, scaling=scaling,
                            context=context)
        probe = u[:2, ::3] + 0.05
        want = full.predict_columns(probe, context)
        assert apart.predict_columns(probe, context).tobytes() == want.tobytes()
        assert brick_bits(apart) == brick_bits(full)
        assert apart.context.tobytes() == full.context.tobytes()
        want = take_training_predictions(full)
        assert take_training_predictions(apart).tobytes() == want.tobytes()

    def test_context_of_another_length_is_rejected(self):
        u, v, schema, context = lv_like_pairs(n_pairs=20, context_size=5, seed=2)
        with pytest.raises(ValueError, match="^the context has 4 entries, not 5$"):
            train_stack(u[:2], v, schema, BrickConfig(kind="linear"), n_bricks=1,
                        context=context[:4])

    @pytest.mark.parametrize("rows, apart", [
        (1, False), (2, False), (8, False), (1, True), (3, True), (7, True),
    ])
    def test_inputs_whose_rows_fit_neither_layout_are_rejected(self, rows, apart):
        _, v, schema, context = lv_like_pairs(n_pairs=20, context_size=5, seed=2)
        inputs = np.ones((rows, v.shape[1]))
        message = f"^inputs have {rows} rows; the schema expects 7, or 2 with the context given"
        with pytest.raises(ValueError, match=message):
            train_stack(inputs, v, schema, BrickConfig(kind="linear"), n_bricks=1,
                        context=context if apart else None)


def brick_bits(model):
    return [
        (type(b), getattr(b, "ridge", None), *(getattr(b, f).tobytes() for f in vars(b)
                                               if isinstance(getattr(b, f), np.ndarray)))
        for b in model.bricks
    ]


class TestGramOutputs:
    """Dual bricks feed the next brick from their Gram matrix; the stack is
    the one that ``apply_columns`` on the training inputs gives."""

    @pytest.mark.parametrize("ridge", [1e-3, 0.0], ids=["ridge", "pseudo-inverse"])
    @pytest.mark.parametrize("kind", ["kernel", "kernel-tensor"])
    def test_stack_equals_the_apply_columns_loop_bit_for_bit(self, kind, ridge):
        u, v, schema, _ = lv_like_pairs(n_pairs=40, context_size=3, seed=11)
        scaling = ScalingSet(offsets=np.array([2.0, 2.0, 0.0]), scales=np.array([0.5, 0.7, 1.0]))
        model = train_stack(u, v, schema, BrickConfig(kind=kind, ridge=ridge), n_bricks=3,
                            scaling=scaling)
        us = schema.full_input(*adimensionalize(*schema.split_context(u), scaling, schema))
        vs = (v - 2.0) / np.array([[0.5], [0.7]])
        x = us
        for k, brick in enumerate(model.bricks, start=1):
            spec = uniform_kernel_spec(schema.input_dim(k))
            want = (train_kernel_brick(x, vs, spec, ridge) if kind == "kernel"
                    else train_kt_brick(x, vs, spec, spec, ridge))
            assert want.dual_coefficients.tobytes() == brick.dual_coefficients.tobytes()
            x = np.vstack([us, want.apply_columns(x)])

    @pytest.mark.parametrize("configs", [
        [BrickConfig(kind="kernel", ridge=1e-3)] * 3,
        [BrickConfig(kind="kernel-tensor", ridge=1e-3)] * 3,
        [BrickConfig(kind="dsn", ridge=1e-3, hidden_size=6), BrickConfig(kind="kernel", ridge=1e-3),
         BrickConfig(kind="kernel", ridge=1e-3)],
    ], ids=["kernel", "kernel-tensor", "dsn-kernel"])
    def test_reused_fits_give_the_model_of_a_fresh_fit(self, configs):
        u, v, schema, _ = lv_like_pairs(n_pairs=40, context_size=2, seed=12)
        scaling = ScalingSet(offsets=np.zeros(3), scales=np.array([0.9, 1.1, 1.0]))
        _, fits = _train_stack(u, v, schema, configs, 0, scaling, reuse=())
        assert all((f.gram is not None) == (f.cfg.kind != "dsn") for f in fits)
        for k in range(3):
            changed = list(configs)
            changed[k] = replace(configs[k], ridge=0.25)
            model, refits = _train_stack(u, v, schema, changed, 0, scaling, reuse=fits)
            assert all(a is b for a, b in zip(refits[:k], fits[:k]))
            assert not any(a is b for a, b in zip(refits[k:], fits[k:]))
            fresh = train_stack(u, v, schema, changed, seed=0, scaling=scaling)
            assert brick_bits(model) == brick_bits(fresh)

    @pytest.mark.parametrize("context_size", [0, 3], ids=["no-context", "context"])
    @pytest.mark.parametrize("n_bricks", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["linear", "dsn", "kernel", "tensor", "kernel-tensor"])
    def test_training_predictions_are_those_of_predict_columns(self, kind, n_bricks, context_size):
        u, v, schema, context = lv_like_pairs(n_pairs=40, context_size=context_size, seed=13)
        scaling = pairs_scaling(u, schema)
        cfg = BrickConfig(kind=kind, ridge=1e-6, hidden_size=6, hidden_size_a=3, hidden_size_b=3)
        model = train_stack(u, v, schema, cfg, n_bricks=n_bricks, seed=2, scaling=scaling)
        got = take_training_predictions(model)
        assert got.tobytes() == model.predict_columns(u[:2], context).tobytes()
        assert take_training_predictions(model) is None

    def test_a_one_off_fit_keeps_no_gram(self):
        u, v, schema, _ = lv_like_pairs(n_pairs=30)
        _, fits = _train_stack(u, v, schema, [BrickConfig(kind="kernel", ridge=1e-3)] * 2, 0, None)
        assert all(f.gram is None for f in fits)


class TestPredict:
    def test_identity_linear_model_returns_state(self):
        schema = InputSchema(series_names=("a", "b"), context_names=("m",), context_sizes=(3,))
        matrix = np.hstack([np.eye(2), np.zeros((2, 3))])
        model = StackedModel(bricks=(LinearBrick(matrix),), schema=schema)
        state = np.array([4.0, -1.0])
        assert np.array_equal(model.predict_one_step(state, np.ones(3)), state)

    def test_previous_output_is_trailing_segment(self):
        schema = InputSchema(series_names=("a", "b"), context_names=("m",), context_sizes=(3,))
        rng = np.random.default_rng(0)
        first = LinearBrick(rng.standard_normal((2, 5)))
        take_previous = LinearBrick(np.hstack([np.zeros((2, 5)), np.eye(2)]))
        model = StackedModel(bricks=(first, take_previous), schema=schema)
        series, context = rng.standard_normal((2, 4)), rng.standard_normal(3)
        x = np.vstack([series, np.repeat(context[:, None], 4, axis=1)])
        assert np.array_equal(model.predict_columns(series, context), first.apply(x))

    def test_prediction_is_deterministic(self):
        u, v, schema, context = lv_like_pairs(n_pairs=25, context_size=2, seed=7)
        model = train_stack(u, v, schema, BrickConfig(kind="dsn", hidden_size=5), n_bricks=2, seed=3)
        x = u[:2, 3]
        a = model.predict_one_step(x, context)
        b = model.predict_one_step(x, context)
        assert np.array_equal(a, b)

    def test_dimension_validation(self):
        schema = InputSchema(series_names=("a", "b"))
        model = StackedModel(bricks=(LinearBrick(np.eye(2)),), schema=schema)
        with pytest.raises(ValueError):
            model.predict_one_step(np.ones(3))
        with pytest.raises(ValueError):
            model.predict_one_step(np.ones(2), np.ones(1))

    def test_trained_model_rejects_a_different_context(self):
        u, v, schema, context = lv_like_pairs(n_pairs=25, context_size=3, seed=8)
        scaling = ScalingSet(offsets=np.array([2.0, 2.0, 0.5]), scales=np.array([0.5, 0.5, 2.0]))
        for kind in ("linear", "dsn", "tensor", "kernel"):
            model = train_stack(u, v, schema, BrickConfig(kind=kind, ridge=1e-6), n_bricks=2,
                                seed=0, scaling=scaling)
            assert np.array_equal(model.context, (context - 0.5) / 2.0)
            model.predict_columns(u[:2], context)
            with pytest.raises(ValueError, match="trained on"):
                model.predict_columns(np.empty((2, 0)), context + 1.0)  # nothing to predict
            other = np.array(context)
            other[1] += 1e-9
            with pytest.raises(ValueError, match="trained on"):
                model.predict_columns(u[:2], other)

    def test_recorded_context_must_match_retained_inputs(self):
        u, v, schema, context = lv_like_pairs(n_pairs=25, context_size=3, seed=10)
        model = train_stack(u, v, schema, BrickConfig(kind="kernel", ridge=1e-6), n_bricks=1)
        with pytest.raises(ValueError, match="model context"):
            StackedModel(bricks=model.bricks, schema=schema, context=context + 1.0)
        with pytest.raises(ValueError, match="one entry per context pixel"):
            StackedModel(bricks=model.bricks, schema=schema, context=context[:2])

    @pytest.mark.parametrize("peak", [math.inf, math.nan, -1.0])
    def test_a_training_abs_max_that_is_not_finite_and_non_negative_is_refused(self, peak):
        schema = InputSchema(series_names=("a", "b"))
        bricks = (LinearBrick(np.eye(2)),)
        with pytest.raises(ValueError, match="^training_abs_max must be finite and >= 0"):
            StackedModel(bricks=bricks, schema=schema, training_abs_max=peak)
        for fine in (None, 0.0, 3.0):
            assert StackedModel(bricks=bricks, schema=schema, training_abs_max=fine)

    def test_model_brick_dimension_checks(self):
        schema = InputSchema(series_names=("a", "b"))
        with pytest.raises(ValueError):
            StackedModel(bricks=(LinearBrick(np.eye(3)),), schema=schema)

    def test_a_folded_brick_needs_the_recorded_context(self):
        schema = InputSchema(series_names=("a", "b"), context_names=("m",), context_sizes=(3,))
        folded = LinearBrick(np.eye(2), bias=np.ones(2))
        with pytest.raises(ValueError, match="must record it"):
            StackedModel(bricks=(folded,), schema=schema)
        model = StackedModel(bricks=(folded,), schema=schema, context=np.zeros(3))
        state = np.array([4.0, -1.0])
        assert np.array_equal(model.predict_one_step(state, np.zeros(3)), [5.0, 0.0])


class TestPeakMemory:
    """Training a dual stack and predicting over its training columns hold at
    most about two n x n matrices at a time: a Gram matrix and the kernel
    being evaluated or solved against it."""

    @pytest.mark.parametrize("kind, n_bricks", [("kernel", 3), ("kernel-tensor", 2)])
    def test_peak_stays_under_two_and_a_half_grams(self, kind, n_bricks):
        n = 800
        u, v, schema, _ = lv_like_pairs(n_pairs=n, seed=16)
        tracemalloc.start()
        try:
            model = train_stack(u, v, schema, BrickConfig(kind=kind, ridge=1e-6), n_bricks=n_bricks)
            model.predict_columns(u[:2])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * n * n * 8


class TestCounting:
    def test_shared_scaling_single_kernel(self):
        counts = count_free_parameters(SCHEMA_40_DTM, n_bricks=4, brick_kind="kernel")
        assert counts.scaling_factors == 41

    def test_per_brick_dual_kernel_totals(self):
        counts = count_free_parameters(
            SCHEMA_40_DTM,
            n_bricks=4,
            brick_kind="kernel-tensor",
            per_brick_scaling=True,
            series_length=3650,
        )
        assert counts.scaling_factors == 328
        assert counts.ridge_coefficients == 4
        assert counts.total_unknowns == 332
        assert counts.series_data_points == 146_000
        assert counts.context_data_points == 10_000
        assert counts.total_data_points == 156_000

    def test_no_context(self):
        schema = InputSchema(series_names=("a", "b", "c"))
        counts = count_free_parameters(schema, n_bricks=2, brick_kind="kernel", series_length=10)
        assert counts.scaling_factors == 3
        assert counts.total_unknowns == 5
        assert counts.series_data_points == 30
        assert counts.total_data_points == 30

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            count_free_parameters(SCHEMA_40_DTM, n_bricks=0, brick_kind="kernel")
        with pytest.raises(ValueError):
            count_free_parameters(SCHEMA_40_DTM, n_bricks=1, brick_kind="nope")
