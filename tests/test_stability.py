from pathlib import Path

import numpy as np
import pytest

from ecocast.bricks import LinearBrick
from ecocast.datasets import ContextMap, TimeSeriesSet, build_training_pairs, default_scaling
from ecocast.io import load_model
from ecocast.lotka import REFERENCE_PARAMS, simulate_lv
from ecocast.scaling import ScalingSet
from ecocast.stack import BrickConfig, InputSchema, StackedModel, train_stack
from ecocast.stability import (
    estimate_horizon,
    linear_stability,
    rollout,
    split_train_validate,
)


def linear_model(matrix, names=None):
    matrix = np.asarray(matrix, dtype=float)
    schema = InputSchema(series_names=names or tuple(f"s{i}" for i in range(matrix.shape[0])))
    return StackedModel(bricks=(LinearBrick(matrix),), schema=schema)


def lv_series(n_points=200, dt=0.05):
    traj = simulate_lv(REFERENCE_PARAMS, 10.0, 5.0, dt, n_points - 1)
    return TimeSeriesSet(
        names=("prey", "predators"),
        times=traj.times,
        values=np.vstack([traj.prey, traj.predators]),
    )


class ReplayModel:
    """Oracle stub that plays back a fixed sequence of states."""

    def __init__(self, states):
        self.states = np.asarray(states, dtype=float)
        self.cursor = 0
        self.last_training_state = None
        self.training_abs_max = float(np.max(np.abs(self.states)))

    def predict_one_step(self, series_values, context_values=()):
        out = self.states[:, self.cursor % self.states.shape[1]]
        self.cursor += 1
        return out

    def prepare(self, context_values=()):
        return lambda columns: self.predict_one_step(columns[:, 0], context_values)[:, None]


class TestRollout:
    def test_geometric_decay_is_exact(self):
        model = linear_model(0.5 * np.eye(3))
        x0 = np.array([8.0, -4.0, 2.0])
        result = rollout(model, x0, steps=20)
        for k in range(20):
            assert np.array_equal(result.predictions[:, k], 0.5 ** (k + 1) * x0)
        assert not result.diverged

    def test_geometric_growth_trips_divergence_flag(self):
        model = linear_model(2.0 * np.eye(2))
        x0 = np.ones(2)
        result = rollout(model, x0, steps=1000)
        assert result.diverged
        # bound = 1e6 * max(1, ||x0||_inf): 2^k exceeds it within ceil(log2 1e6)
        assert result.steps_completed <= int(np.ceil(np.log2(1e6)))

    def test_error_curve_against_reference(self):
        model = linear_model(np.eye(2))
        x0 = np.array([1.0, 3.0])
        ref = np.column_stack([x0, x0 + 1.0, x0 + 2.0])
        result = rollout(model, x0, steps=5, reference=ref)
        assert result.errors.shape == (3,)
        assert result.errors[0] == 0.0
        assert result.errors[1] == pytest.approx(1.0)

    def test_trained_stack_rollout_bit_identical_across_runs(self):
        ts = lv_series(120)
        u, v, schema = build_training_pairs(ts)
        model = train_stack(u, v, schema, BrickConfig(kind="kernel", ridge=1e-6), n_bricks=2, seed=0)
        ref = ts.values[:, 80:]
        a = rollout(model, ts.values[:, 79], steps=30, reference=ref)
        b = rollout(model, ts.values[:, 79], steps=30, reference=ref)
        assert np.array_equal(a.predictions, b.predictions)
        assert np.array_equal(a.errors, b.errors)

    def test_steps_validation(self):
        with pytest.raises(ValueError):
            rollout(linear_model(np.eye(2)), np.ones(2), steps=0)


def one_step_loop(model, start, context, steps):
    """A rollout's predictions from a plain predict_one_step loop."""
    x, out = np.asarray(start, dtype=float), []
    for _ in range(steps):
        x = model.predict_one_step(x, context)
        out.append(x)
    return np.array(out).T


def lv_with_map(n_points=80):
    ts = lv_series(n_points)
    return ts, ContextMap(name="dtm", values=np.array([[150.0, 250.0], [120.0, 310.0]]))


class TestPreparedRollout:
    """A rollout prepares the context once and then gives, step by step, the
    bits of ``predict_one_step``."""

    def check(self, model, start, context, steps=25):
        result = rollout(model, start, context, steps=steps)
        assert result.stop_reason == "completed"
        want = one_step_loop(model, start, context, steps)
        assert result.predictions.tobytes() == want.tobytes()

    @pytest.mark.parametrize("scaled", [False, True], ids=["unscaled", "scaled"])
    @pytest.mark.parametrize("kind", ["linear", "dsn", "kernel", "tensor", "kernel-tensor"])
    def test_trained_stack_equals_the_one_step_loop(self, kind, scaled):
        ts, cmap = lv_with_map()
        u, v, schema = build_training_pairs(ts, [cmap])
        scaling = default_scaling(ts, [cmap]) if scaled else None
        cfg = BrickConfig(kind=kind, ridge=1e-6, hidden_size=6, hidden_size_a=3, hidden_size_b=3)
        model = train_stack(u, v, schema, cfg, n_bricks=2, seed=1, scaling=scaling)
        self.check(model, ts.values[:, -1], cmap.values.ravel())

    @pytest.mark.parametrize("name", ["linear", "dsn", "tensor"])
    def test_full_width_v1_file_equals_the_one_step_loop(self, name):
        model = load_model(Path(__file__).parent / "data" / f"model_{name}.json")
        assert model.context is None
        for context in ([0.25, 0.75], [0.3, 0.6]):
            self.check(model, np.array([2.0, 3.5]), context)

    @pytest.mark.parametrize("scaled", [False, True], ids=["unscaled", "scaled"])
    def test_hand_built_model_without_a_context_equals_the_one_step_loop(self, scaled):
        schema = InputSchema(series_names=("a", "b"), context_names=("m",), context_sizes=(3,))
        rng = np.random.default_rng(3)
        first = LinearBrick(0.3 * rng.standard_normal((2, 5)))
        second = LinearBrick(0.3 * rng.standard_normal((2, 7)))
        scaling = None
        if scaled:
            scaling = ScalingSet(offsets=np.array([1.0, -1.0, 0.5]), scales=np.array([2, 0.5, 4]))
        model = StackedModel(bricks=(first, second), schema=schema, scaling=scaling)
        self.check(model, np.array([0.5, -0.2]), np.array([0.1, 0.7, -0.4]))

    def test_a_different_context_is_rejected_before_any_step(self):
        ts, cmap = lv_with_map()
        u, v, schema = build_training_pairs(ts, [cmap])
        model = train_stack(u, v, schema, BrickConfig(kind="kernel", ridge=1e-6), n_bricks=2,
                            scaling=default_scaling(ts, [cmap]))
        other = cmap.values.ravel().copy()
        other[2] += 1e-9
        with pytest.raises(ValueError, match="trained on"):
            rollout(model, ts.values[:, -1], other, steps=3)


class TestStopReason:
    @pytest.mark.parametrize("scale, reason, stopped_at, completed", [
        (0.5, "completed", 30, 30),
        (2.0, "bound", 20, 20),  # 10 * 2^20 is the first step over 1e6 * 10
        (1e308, "non-finite", 1, 0),  # the first prediction overflows and is dropped
        (np.nan, "non-finite", 1, 0),
    ])
    def test_reason_and_step(self, scale, reason, stopped_at, completed):
        with np.errstate(over="ignore"):
            result = rollout(linear_model(scale * np.eye(2)), np.array([1.0, 10.0]), steps=30)
        assert (result.stop_reason, result.stopped_at) == (reason, stopped_at)
        assert result.steps_completed == completed
        assert result.diverged == (reason != "completed")

    @pytest.mark.parametrize("bound", [-1.0, 0.0, float("nan")])
    def test_bound_must_be_positive(self, bound):
        with pytest.raises(ValueError, match="bound must be positive"):
            rollout(linear_model(0.5 * np.eye(2)), np.array([1.0, 10.0]), steps=5, bound=bound)

    def test_infinite_bound_turns_the_check_off(self):
        result = rollout(linear_model(2.0 * np.eye(2)), np.array([1.0, 10.0]), steps=30,
                         bound=float("inf"))
        assert (result.stop_reason, result.steps_completed) == ("completed", 30)


class TestSplit:
    def test_eighty_twenty(self):
        ts = lv_series(100)
        train, val = split_train_validate(ts, 0.8)
        assert train.n_points == 80 and val.n_points == 20

    def test_ordering_invariant(self):
        train, val = split_train_validate(lv_series(50), 0.6)
        assert train.times[-1] < val.times[0]

    def test_concatenation_reproduces_original(self):
        ts = lv_series(37)
        train, val = split_train_validate(ts, 0.5)
        assert np.array_equal(np.concatenate([train.times, val.times]), ts.times)
        assert np.array_equal(np.hstack([train.values, val.values]), ts.values)

    def test_too_short_parts_rejected(self):
        with pytest.raises(ValueError):
            split_train_validate(lv_series(10), 0.95)
        with pytest.raises(ValueError):
            split_train_validate(lv_series(10), 0.05)


class TestHorizon:
    def test_replay_oracle_reaches_full_validation_length(self):
        ts = lv_series(60)
        train, val = split_train_validate(ts, 0.8)
        model = ReplayModel(val.values)
        report = estimate_horizon(model, val, epsilon=0.2, start=train.values[:, -1])
        assert report.horizon == val.n_points
        assert np.max(report.error_curve) == 0.0

    def test_infinite_epsilon_means_never(self):
        ts = lv_series(60)
        train, val = split_train_validate(ts, 0.8)
        model = linear_model(2.0 * np.eye(2), names=("prey", "predators"))
        report = estimate_horizon(model, val, epsilon=np.inf, start=train.values[:, -1])
        assert report.horizon == val.n_points

    def test_persistence_model_matches_direct_scan_oracle(self):
        ts = lv_series(300, dt=0.05)
        train, val = split_train_validate(ts, 0.5)
        model = linear_model(np.eye(2), names=("prey", "predators"))
        start = train.values[:, -1]
        epsilon = 0.2
        report = estimate_horizon(model, val, epsilon=epsilon, start=start)
        # independent scan: persistence predicts the start state forever
        sigma = np.std(val.values, axis=1)
        curve = np.sqrt(np.mean(((start[:, None] - val.values) / sigma[:, None]) ** 2, axis=0))
        above = np.nonzero(curve > epsilon)[0]
        oracle = int(above[0]) + 1 if above.size else val.n_points
        assert report.horizon == oracle
        assert 1 <= report.horizon < val.n_points

    def test_horizon_monotone_in_epsilon(self):
        ts = lv_series(300, dt=0.05)
        train, val = split_train_validate(ts, 0.5)
        model = linear_model(np.eye(2), names=("prey", "predators"))
        start = train.values[:, -1]
        horizons = [
            estimate_horizon(model, val, epsilon=eps, start=start).horizon
            for eps in (0.05, 0.1, 0.2, 0.5)
        ]
        assert all(h1 <= h2 for h1, h2 in zip(horizons, horizons[1:]))

    def test_no_validation_leakage_into_rollout_inputs(self):
        ts = lv_series(200, dt=0.05)
        train, val = split_train_validate(ts, 0.5)
        start = train.values[:, -1]

        class SpyModel:
            """Persistence-with-drift model that records every input it sees."""

            def __init__(self):
                self.seen = []

            def predict_one_step(self, series_values, context_values=()):
                self.seen.append(np.array(series_values))
                return np.asarray(series_values) * 1.01

            def prepare(self, context_values=()):
                return lambda columns: self.predict_one_step(columns[:, 0])[:, None]

        spy = SpyModel()
        report = estimate_horizon(spy, val, epsilon=0.2, start=start)
        assert 1 <= report.horizon <= val.n_points
        # every rollout input is either the start state or the model's own
        # previous output; none may equal a validation column
        assert np.array_equal(spy.seen[0], start)
        for k, seen in enumerate(spy.seen[1:], start=1):
            assert np.array_equal(seen, spy.seen[k - 1] * 1.01)
        for seen in spy.seen:
            assert not any(np.array_equal(seen, val.values[:, j]) for j in range(val.n_points))

    def test_a_run_that_stops_non_finite_reads_the_step_it_stopped_at(self):
        ts = lv_series(60)
        train, val = split_train_validate(ts, 0.8)
        start = train.values[:, -1]
        # a NaN at step 1: no prediction is kept, and the horizon is that step
        nan_first = LinearBrick(np.nan * np.eye(2))
        take_previous = LinearBrick(np.hstack([np.zeros((2, 2)), np.eye(2)]))
        model = StackedModel(bricks=(nan_first, take_previous),
                             schema=InputSchema(series_names=("prey", "predators")))
        report = estimate_horizon(model, val, start=start)
        assert (report.rollout.stop_reason, report.rollout.stopped_at) == ("non-finite", 1)
        assert report.error_curve.size == 0 and report.horizon == 1
        # two exact steps, then a NaN at step 3
        states = np.hstack([val.values[:, :2], np.full((2, 1), np.nan)])
        report = estimate_horizon(ReplayModel(states), val, start=start)
        assert report.rollout.stopped_at == 3 and np.array_equal(report.error_curve, [0.0, 0.0])
        assert report.horizon == 3

    def test_epsilon_validation(self):
        ts = lv_series(40)
        train, val = split_train_validate(ts, 0.5)
        model = linear_model(np.eye(2), names=("prey", "predators"))
        with pytest.raises(ValueError):
            estimate_horizon(model, val, epsilon=0.0, start=train.values[:, -1])

    def test_missing_start_rejected(self):
        ts = lv_series(40)
        _, val = split_train_validate(ts, 0.5)
        model = linear_model(np.eye(2), names=("prey", "predators"))
        with pytest.raises(ValueError):
            estimate_horizon(model, val, epsilon=0.2)

    def test_validation_series_must_match_the_model(self):
        ts = lv_series(40)
        train, val = split_train_validate(ts, 0.5)
        prey_only = TimeSeriesSet(names=("prey",), times=val.times, values=val.values[:1])
        model = linear_model(np.eye(2), names=("prey", "predators"))
        with pytest.raises(ValueError, match="one series per model series"):
            estimate_horizon(model, prey_only, start=train.values[:, -1])


class TestLinearStability:
    def test_scaled_identity(self):
        est = linear_stability(linear_model(0.9 * np.eye(3)))
        assert est.radius == pytest.approx(0.9, abs=1e-9)

    def test_context_columns_excluded(self):
        schema = InputSchema(series_names=("a", "b"), context_names=("m",), context_sizes=(2,))
        matrix = np.hstack([0.7 * np.eye(2), np.full((2, 2), 5.0)])
        model = StackedModel(bricks=(LinearBrick(matrix),), schema=schema)
        assert linear_stability(model).radius == pytest.approx(0.7, abs=1e-9)

    def test_kernel_stack_not_applicable(self):
        ts = lv_series(40)
        u, v, schema = build_training_pairs(ts)
        model = train_stack(u, v, schema, BrickConfig(kind="kernel", ridge=1e-6), n_bricks=1, seed=0)
        assert linear_stability(model) is None

    def test_multi_brick_linear_not_applicable(self):
        ts = lv_series(40)
        u, v, schema = build_training_pairs(ts)
        model = train_stack(u, v, schema, BrickConfig(kind="linear"), n_bricks=2, seed=0)
        assert linear_stability(model) is None

    def test_random_matrix_matches_dense_eigenvalue_oracle(self):
        rng = np.random.default_rng(17)
        for trial in range(10):
            m = rng.standard_normal((6, 6)) * 0.4
            model = linear_model(m)
            oracle = float(np.max(np.abs(np.linalg.eigvals(m))))
            assert abs(linear_stability(model).radius - oracle) < 1e-6


class TestBoundedness:
    def test_contractive_rotation_runs_ten_thousand_steps(self):
        theta = 0.7
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        model = linear_model(0.9 * rot)
        result = rollout(model, np.array([3.0, 4.0]), steps=10_000)
        assert not result.diverged
        assert result.steps_completed == 10_000
        norms = np.linalg.norm(result.predictions, axis=0)
        assert np.all(np.diff(norms) <= 1e-12)

    def test_non_normal_contraction_eventually_decreases(self):
        m = np.array([[0.9, 0.8], [0.0, 0.85]])
        model = linear_model(m)
        result = rollout(model, np.array([0.0, 1.0]), steps=10_000)
        assert not result.diverged
        norms = np.linalg.norm(result.predictions, axis=0)
        assert np.all(np.diff(norms[200:]) <= 1e-12)

    def test_expanding_map_with_dominant_start_trips_flag(self):
        model = linear_model(1.1 * np.eye(2))
        result = rollout(model, np.ones(2), steps=10_000)
        assert result.diverged
        assert result.steps_completed <= int(np.ceil(np.log(1e6) / np.log(1.1))) + 1
