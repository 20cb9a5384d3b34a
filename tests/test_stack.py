import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ecocast.bricks import LinearBrick, train_kernel_brick
from ecocast.scaling import ScalingSet
from ecocast.stack import (
    BrickConfig,
    BrickTrainingError,
    InputSchema,
    StackedModel,
    count_free_parameters,
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
        slices, owners = schema.dataset_slices(brick_index)
        assert slices[-1][1] == size
        assert len(slices) == len(owners)


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


class TestTrainStack:
    def test_single_brick_stack_equals_bare_brick(self):
        u, v, schema, _ = lv_like_pairs()
        model = train_stack(u, v, schema, BrickConfig(kind="kernel", ridge=1e-3), n_bricks=1, seed=0)
        bare = train_kernel_brick(u, v, schema.kernel_spec(1), 1e-3)
        x = u[:, 5]
        assert np.array_equal(model.predict_one_step(x), bare.apply(x))

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
        from ecocast.linalg import truncated

        u, v, schema, _ = lv_like_pairs()
        # rank 6 exceeds the 5-row hidden feature matrix only at train time
        bad = [
            BrickConfig(kind="kernel", ridge=1e-6),
            BrickConfig(kind="dsn", hidden_size=5, inverse=truncated(6)),
        ]
        with pytest.raises(BrickTrainingError) as err:
            train_stack(u, v, schema, bad, seed=0)
        assert err.value.brick_index == 2

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

    def test_per_brick_kernel_scales(self):
        # distance scales may vary per brick (and per kernel) on top of the
        # shared adimensionalization
        u, v, schema, context = lv_like_pairs(n_pairs=35, context_size=2, seed=8)
        shared = train_stack(
            u, v, schema, BrickConfig(kind="kernel", ridge=1e-4), n_bricks=2, seed=0
        )
        varied = train_stack(
            u,
            v,
            schema,
            [
                BrickConfig(kind="kernel", ridge=1e-4, kernel_scales=(0.5, 1.0, 2.0)),
                BrickConfig(kind="kernel", ridge=1e-4, kernel_scales=(3.0, 1.0, 0.7)),
            ],
            seed=0,
        )
        assert varied.bricks[0].spec.scales != varied.bricks[1].spec.scales[:3]
        x = u[:2, 4]
        assert not np.array_equal(
            shared.predict_one_step(x, context), varied.predict_one_step(x, context)
        )

    def test_context_rows_must_be_constant_across_columns(self):
        u, v, schema, _ = lv_like_pairs(n_pairs=25, context_size=3, seed=9)
        u = np.array(u)
        u[3, 7] += 1.0
        with pytest.raises(ValueError, match="same value in every training column"):
            train_stack(u, v, schema, BrickConfig(kind="linear"), n_bricks=1)

    def test_all_brick_kinds_train_and_predict(self):
        u, v, schema, context = lv_like_pairs(n_pairs=30, context_size=2, seed=6)
        for kind in ("linear", "dsn", "kernel", "tensor", "kernel-tensor"):
            cfg = BrickConfig(kind=kind, ridge=1e-6, hidden_size=6, hidden_size_a=3, hidden_size_b=3)
            model = train_stack(u, v, schema, cfg, n_bricks=2, seed=1)
            out = model.predict_one_step(u[:2, 0], context)
            assert out.shape == (2,) and np.all(np.isfinite(out))


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
        for kind in ("linear", "kernel"):
            model = train_stack(u, v, schema, BrickConfig(kind=kind, ridge=1e-6), n_bricks=2,
                                seed=0, scaling=scaling)
            assert np.array_equal(model.context, (context - 0.5) / 2.0)
            model.predict_columns(u[:2], context)
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

    def test_model_brick_dimension_checks(self):
        schema = InputSchema(series_names=("a", "b"))
        with pytest.raises(ValueError):
            StackedModel(bricks=(LinearBrick(np.eye(3)),), schema=schema)


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
