import math
import tracemalloc
import warnings
from dataclasses import fields

import numpy as np
import pytest

from ecocast import bricks
from ecocast.bricks import (
    Activation,
    KernelSpec,
    _gaussian,
    activate,
    dsn_objective,
    dsn_objective_gradient,
    fold_context,
    gaussian_kernel,
    kernel_matrix,
    merge_kernel_specs,
    train_dsn_brick,
    train_kernel_brick,
    train_kt_brick,
    train_linear_brick,
    train_tensor_brick,
    uniform_kernel_spec,
)
from ecocast.linalg import EXACT_SVD, NonFiniteError, tikhonov


class TestActivations:
    def test_relu(self):
        out = activate(Activation.RELU, np.array([-3.0, 0.0, 2.0]))
        assert np.array_equal(out, [0.0, 0.0, 2.0])

    def test_sigmoid_at_zero(self):
        assert activate(Activation.SIGMOID, np.array([0.0]))[0] == 0.5

    def test_sigmoid_saturates_without_overflow(self):
        out = activate(Activation.SIGMOID, np.array([-1000.0, 1000.0]))
        assert out[0] == 0.0 and out[1] == 1.0

    @staticmethod
    def ten_call_sigmoid(x):
        """The sigmoid as ``activate`` computed it in ten numpy calls."""
        z = np.abs(x, out=np.empty_like(x))
        np.exp(np.negative(z, out=z), out=z)
        d = np.add(1.0, z, out=np.empty_like(x))
        np.divide(z, d, out=z)
        np.copyto(z, np.divide(1.0, d, out=d), where=x >= 0.0)
        return z

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_sigmoid_has_the_bits_of_the_ten_call_version(self, order):
        edges = [0.0, 5e-324, 1e-310, 36.7, 709.8, 745.2, 1000.0, np.inf]
        x = np.concatenate([
            [sign * v for v in edges for sign in (1.0, -1.0)] + [np.nan],
            np.random.default_rng(11).standard_normal(100_000) * 50.0,
        ])[:100_000].reshape(400, 250)
        x = np.asarray(x, order=order)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = activate(Activation.SIGMOID, x)
            want = self.ten_call_sigmoid(x)
        assert got.tobytes() == want.tobytes()
        assert got.flags.f_contiguous == (order == "F")

    def test_step_indicator_of_nonnegative(self):
        out = activate(Activation.STEP, np.array([-1e-9, 0.0, 1e-9]))
        assert np.array_equal(out, [0.0, 1.0, 1.0])

    def test_identity(self):
        x = np.array([-1.5, 2.5])
        assert np.array_equal(activate(Activation.IDENTITY, x), x)


class TestLinearBrick:
    def test_recovers_generating_map(self):
        rng = np.random.default_rng(0)
        m_true = rng.standard_normal((5, 5))
        u = rng.standard_normal((5, 50))
        v = m_true @ u
        brick = train_linear_brick(u, v)
        assert np.linalg.norm(brick.matrix @ u - v) <= 1e-8

    def test_identity_inputs_give_targets(self):
        v = np.arange(12.0).reshape(3, 4)
        brick = train_linear_brick(np.eye(4), v)
        assert np.allclose(brick.matrix, v, atol=1e-12)

    def test_least_squares_optimality_against_perturbations(self):
        # inconsistent system: no perturbation of the solution may fit better
        rng = np.random.default_rng(1)
        u = rng.standard_normal((4, 9))
        v = rng.standard_normal((3, 9))
        brick = train_linear_brick(u, v)
        base = np.linalg.norm(brick.matrix @ u - v)
        for _ in range(100):
            e = rng.standard_normal(brick.matrix.shape) * rng.uniform(1e-4, 1.0)
            assert np.linalg.norm((brick.matrix + e) @ u - v) >= base

    def test_apply_identity_and_zero(self):
        x = np.array([1.0, -2.0, 3.0])
        assert np.array_equal(train_linear_brick(np.eye(3), np.eye(3)).apply(x), x)
        zero = train_linear_brick(np.eye(3), np.zeros((3, 3)))
        assert np.array_equal(zero.apply(x), np.zeros(3))

    def test_training_column_reproduced(self):
        rng = np.random.default_rng(2)
        u = rng.standard_normal((5, 50))
        v = rng.standard_normal((2, 5)) @ u
        brick = train_linear_brick(u, v)
        assert np.linalg.norm(brick.apply(u[:, 3]) - v[:, 3]) < 1e-8

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            train_linear_brick(np.ones((3, 4)), np.ones((2, 5)))
        brick = train_linear_brick(np.eye(3), np.eye(3))
        with pytest.raises(ValueError):
            brick.apply(np.ones(4))


class TestDSNBrick:
    def test_identity_activation_reduces_to_linear(self):
        rng = np.random.default_rng(3)
        u = rng.standard_normal((4, 30))
        v = rng.standard_normal((2, 30))
        linear = train_linear_brick(u, v)
        dsn = train_dsn_brick(
            u, v, hidden_size=4, activation=Activation.IDENTITY, hidden_weights=np.eye(4)
        )
        x = rng.standard_normal(4)
        assert np.linalg.norm(dsn.apply(x) - linear.apply(x)) < 1e-10

    def test_residual_orthogonal_to_hidden_rows(self):
        rng = np.random.default_rng(4)
        u = rng.standard_normal((6, 40))
        v = rng.standard_normal((3, 40))
        brick = train_dsn_brick(u, v, hidden_size=8, seed=7)
        h = activate(brick.activation, brick.hidden_weights @ u)
        resid = brick.output_weights @ h - v
        bound = 1e-6 * np.linalg.norm(v) * np.linalg.norm(h)
        assert np.linalg.norm(resid @ h.T) <= bound

    def test_gradient_matches_central_finite_differences(self):
        rng = np.random.default_rng(5)
        u = rng.standard_normal((6, 40))
        v = rng.standard_normal((3, 40))
        w = rng.standard_normal((5, 6)) * 0.5
        act = Activation.SIGMOID
        grad = dsn_objective_gradient(w, u, v, act)
        step = 1e-6
        fd = np.empty_like(w)
        for i in range(w.shape[0]):
            for j in range(w.shape[1]):
                wp, wm = w.copy(), w.copy()
                wp[i, j] += step
                wm[i, j] -= step
                fd[i, j] = (dsn_objective(wp, u, v, act) - dsn_objective(wm, u, v, act)) / (2 * step)
        rel = np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-8)
        assert np.max(rel) < 1e-4

    @pytest.mark.parametrize("act, hidden", [(Activation.RELU, 4), (Activation.IDENTITY, 2)])
    def test_gradient_matches_central_finite_differences_for_relu_and_identity(self, act, hidden):
        # with as many identity units as input rows the objective is flat in w
        rng = np.random.default_rng(5)
        u = rng.standard_normal((3, 40))
        v = rng.standard_normal((2, 40))
        w = rng.standard_normal((hidden, 3)) * 0.5
        grad = dsn_objective_gradient(w, u, v, act)
        step = 1e-6
        fd = np.empty_like(w)
        for i in range(w.shape[0]):
            for j in range(w.shape[1]):
                wp, wm = w.copy(), w.copy()
                wp[i, j] += step
                wm[i, j] -= step
                fd[i, j] = (dsn_objective(wp, u, v, act) - dsn_objective(wm, u, v, act)) / (2 * step)
        assert np.max(np.abs(fd)) > 0.1
        assert np.max(np.abs(grad - fd)) < 1e-6 * np.max(np.abs(fd))

    def test_the_step_activation_has_a_zero_gradient(self):
        rng = np.random.default_rng(6)
        u, v = rng.standard_normal((3, 40)), rng.standard_normal((2, 40))
        w = rng.standard_normal((4, 3))
        assert not np.any(dsn_objective_gradient(w, u, v, Activation.STEP))

    def test_refinement_on_zero_targets_stops_at_once_as_converged(self):
        u = np.random.default_rng(6).standard_normal((3, 40))
        brick = train_dsn_brick(u, np.zeros((2, 40)), hidden_size=4, mode="gradient-refined")
        assert brick.refine_converged is True and brick.refine_trace == (0.0,)

    def test_refinement_never_increases_objective(self):
        rng = np.random.default_rng(6)
        u = rng.standard_normal((5, 30))
        v = rng.standard_normal((2, 30))
        brick = train_dsn_brick(u, v, hidden_size=4, mode="gradient-refined", seed=1)
        trace = brick.refine_trace
        assert trace is not None and len(trace) >= 1
        assert all(a >= b for a, b in zip(trace, trace[1:]))

    def test_refinement_improves_over_fixed_random(self):
        rng = np.random.default_rng(7)
        u = rng.standard_normal((5, 60))
        v = rng.standard_normal((2, 5)) @ np.tanh(u) + 0.01 * rng.standard_normal((2, 60))
        fixed = train_dsn_brick(u, v, hidden_size=3, seed=2)
        refined = train_dsn_brick(u, v, hidden_size=3, mode="gradient-refined", seed=2)
        def loss(b):
            h = activate(b.activation, b.hidden_weights @ u)
            return np.linalg.norm(b.output_weights @ h - v)
        assert loss(refined) <= loss(fixed) + 1e-12

    def test_training_column_within_residual(self):
        rng = np.random.default_rng(8)
        u = rng.standard_normal((4, 25))
        v = rng.standard_normal((2, 25))
        brick = train_dsn_brick(u, v, hidden_size=6, seed=3)
        resid = brick.apply_columns(u) - v
        assert np.linalg.norm(brick.apply(u[:, 0]) - v[:, 0]) <= np.linalg.norm(resid) + 1e-12

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(9)
        u = rng.standard_normal((4, 20))
        v = rng.standard_normal((2, 20))
        a = train_dsn_brick(u, v, hidden_size=5, seed=11)
        b = train_dsn_brick(u, v, hidden_size=5, seed=11)
        assert a.hidden_weights.tobytes() == b.hidden_weights.tobytes()
        assert a.output_weights.tobytes() == b.output_weights.tobytes()

    def test_stalled_refinement_keeps_best_weights_and_reports(self, monkeypatch):
        rng = np.random.default_rng(10)
        u = rng.standard_normal((5, 30))
        v = rng.standard_normal((2, 30))
        monkeypatch.setattr(bricks, "_MAX_REFINE_STEPS", 1)
        monkeypatch.setattr(bricks, "_REFINE_TOL", 0.0)
        brick = train_dsn_brick(u, v, hidden_size=4, mode="gradient-refined", seed=5)
        assert brick.refine_converged is False
        assert brick.refine_trace is not None
        # the retained weights are the best seen: objective equals the trace end
        final = dsn_objective(brick.hidden_weights, u, v, brick.activation)
        assert final == pytest.approx(brick.refine_trace[-1], rel=1e-12)

    def test_a_step_the_line_search_cut_deeply_is_a_stall_not_convergence(self):
        """With a large folded context the bias step carries ||c||^2, so the
        line search halves the step about 20 times before it accepts a tiny
        improvement that meets the tolerance."""
        rng = np.random.default_rng(1)
        u, v = rng.standard_normal((4, 800)), rng.standard_normal((2, 800))
        c = rng.standard_normal(1600)
        brick = train_dsn_brick(u, v, hidden_size=64, mode="gradient-refined", seed=1,
                                context=c, context_row=2)
        assert len(brick.refine_trace) == 4
        assert brick.refine_trace[-1] < brick.refine_trace[0]
        assert brick.refine_converged is False

    def test_a_full_step_that_meets_the_tolerance_is_convergence(self, monkeypatch):
        rng = np.random.default_rng(0)
        u, v = rng.standard_normal((3, 40)), rng.standard_normal((2, 40))
        monkeypatch.setattr(bricks, "_REFINE_TOL", 1.0)
        brick = train_dsn_brick(u, v, hidden_size=4, mode="gradient-refined", seed=0)
        assert len(brick.refine_trace) == 2 and brick.refine_converged is True

    def test_invalid_hidden_size(self):
        with pytest.raises(ValueError):
            train_dsn_brick(np.ones((2, 3)), np.ones((1, 3)), hidden_size=0)


class TestGaussianKernel:
    def test_equal_points_give_one(self):
        spec = uniform_kernel_spec(3, 2.0)
        x = np.array([1.0, 2.0, 3.0])
        assert gaussian_kernel(x, x, spec) == 1.0

    def test_distance_equal_to_scale(self):
        spec = uniform_kernel_spec(2, 5.0)
        x = np.zeros(2)
        z = np.array([3.0, 4.0])  # norm 5 = scale
        assert gaussian_kernel(x, z, spec) == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_two_datasets_equal_prescaled_single_kernel(self):
        rng = np.random.default_rng(10)
        spec = KernelSpec(scales=(2.0, 5.0), slices=((0, 3), (3, 7)))
        flat = uniform_kernel_spec(7, 1.0)
        for _ in range(20):
            x, z = rng.standard_normal(7), rng.standard_normal(7)
            xs, zs = x.copy(), z.copy()
            xs[:3] /= 2.0
            xs[3:] /= 5.0
            zs[:3] /= 2.0
            zs[3:] /= 5.0
            assert gaussian_kernel(x, z, spec) == pytest.approx(
                gaussian_kernel(xs, zs, flat), rel=1e-12
            )

    def test_dimension_mismatch_and_bad_scale(self):
        spec = uniform_kernel_spec(3)
        with pytest.raises(ValueError):
            gaussian_kernel(np.ones(2), np.ones(2), spec)
        with pytest.raises(ValueError):
            KernelSpec(scales=(0.0,), slices=((0, 2),))
        with pytest.raises(ValueError):
            KernelSpec(scales=(1.0, 1.0), slices=((0, 2), (3, 4)))

    def test_gram_matrices_positive_semidefinite(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            u = rng.standard_normal((5, 12))
            spec_a = KernelSpec(scales=(1.3, 0.7), slices=((0, 2), (2, 5)))
            spec_b = uniform_kernel_spec(5, 2.0)
            for gram in (
                kernel_matrix(spec_a, u, u),
                kernel_matrix(spec_a, u, u) * kernel_matrix(spec_b, u, u),
            ):
                eigs = np.linalg.eigvalsh(gram)
                assert eigs.min() >= -1e-10 * np.trace(gram)


class TestMergedSegments:
    """Adjacent segments of equal scale are one segment: a spec is its
    per-row scales."""

    def test_equal_adjacent_scales_are_one_segment(self):
        assert KernelSpec(scales=(1.0, 1.0), slices=((0, 2), (2, 5))) == uniform_kernel_spec(5)

    def test_distinct_adjacent_scales_keep_their_segments(self):
        spec = KernelSpec(scales=(1.3, 0.7, 0.7, 1.3), slices=((0, 2), (2, 3), (3, 4), (4, 6)))
        assert spec.scales == (1.3, 0.7, 1.3)
        assert spec.slices == ((0, 2), (2, 4), (4, 6))

    def test_merged_unit_specs_are_one_segment_with_the_same_row_scales(self):
        # one unit segment per dataset, as a stack's kernel specs once had
        unit = KernelSpec(scales=(1.0, 1.0, 1.0), slices=((0, 1), (1, 2), (2, 5)))
        merged = merge_kernel_specs(unit, unit)
        assert merged == uniform_kernel_spec(5, 0.7071067811865475)
        assert merged._row_scales.tobytes() == np.full(5, 0.7071067811865475).tobytes()


class TestKernelBrick:
    def test_single_pair_interpolates_exactly(self):
        u = np.array([[1.0], [2.0]])
        v = np.array([[3.0], [-1.0]])
        brick = train_kernel_brick(u, v, uniform_kernel_spec(2), lam=0.0)
        assert np.array_equal(brick.apply(u[:, 0]), v[:, 0])

    def test_large_lam_shrinks_predictions(self):
        rng = np.random.default_rng(12)
        u = rng.standard_normal((3, 20))
        v = rng.standard_normal((2, 20))
        spec = uniform_kernel_spec(3)
        x = rng.standard_normal(3)
        norms = [
            np.linalg.norm(train_kernel_brick(u, v, spec, lam).apply(x))
            for lam in (1e0, 1e2, 1e4, 1e6)
        ]
        assert all(n1 > n2 for n1, n2 in zip(norms, norms[1:]))

    def test_matches_dense_solve_oracle(self):
        rng = np.random.default_rng(13)
        u = rng.standard_normal((4, 30))
        v = rng.standard_normal((3, 30))
        spec = KernelSpec(scales=(1.2, 0.8), slices=((0, 2), (2, 4)))
        lam = 0.05
        brick = train_kernel_brick(u, v, spec, lam)
        gram = kernel_matrix(spec, u, u)
        inv = np.linalg.inv(gram + lam * np.eye(30))
        for _ in range(10):
            x = rng.standard_normal(4)
            k = np.array([gaussian_kernel(u[:, j], x, spec) for j in range(30)])
            oracle = v @ inv @ k
            assert np.linalg.norm(brick.apply(x) - oracle) < 1e-8

    def test_training_points_reproduced_at_zero_ridge(self):
        rng = np.random.default_rng(14)
        u = rng.standard_normal((3, 15))
        v = rng.standard_normal((2, 15))
        brick = train_kernel_brick(u, v, uniform_kernel_spec(3), lam=0.0)
        assert np.linalg.norm(brick.apply_columns(u) - v) < 1e-6

    def test_far_inputs_decay_to_zero(self):
        rng = np.random.default_rng(15)
        u = rng.standard_normal((3, 10))
        v = rng.standard_normal((2, 10))
        brick = train_kernel_brick(u, v, uniform_kernel_spec(3, 0.5), lam=1e-3)
        x = u[:, 0] + 100.0
        row_sums = np.abs(brick.dual_coefficients).sum(axis=1).max()
        assert np.linalg.norm(brick.apply(x), np.inf) <= 1e-6 * row_sums

    @pytest.mark.parametrize("lam", [math.inf, math.nan, -1e-3])
    def test_a_ridge_that_is_not_finite_and_non_negative_is_refused(self, lam):
        u, v, spec = np.eye(2), np.ones((1, 2)), uniform_kernel_spec(2)
        with pytest.raises(ValueError, match="^the ridge lam must be finite and >= 0"):
            train_kernel_brick(u, v, spec, lam)
        with pytest.raises(ValueError, match="^the ridge lam must be finite and >= 0"):
            train_kt_brick(u, v, spec, spec, lam)

    @pytest.mark.parametrize("lam", [math.inf, math.nan, -1e-3])
    def test_a_dual_brick_refuses_a_ridge_that_is_not_finite_and_non_negative(self, lam):
        spec = uniform_kernel_spec(2)
        fit = dict(training_inputs=np.eye(2), dual_coefficients=np.ones((1, 2)), ridge=lam)
        with pytest.raises(ValueError, match="^the ridge lam must be finite and >= 0"):
            bricks.KernelBrick(spec=spec, **fit)
        with pytest.raises(ValueError, match="^the ridge lam must be finite and >= 0"):
            bricks.KernelTensorBrick(spec_a=spec, spec_b=spec, **fit)

    def test_singular_gram_zero_ridge_falls_back(self):
        u = np.array([[1.0, 1.0], [2.0, 2.0]])  # duplicated training point
        v = np.array([[1.0, 1.0]])
        brick = train_kernel_brick(u, v, uniform_kernel_spec(2), lam=0.0)
        assert np.isfinite(brick.dual_coefficients).all()
        assert brick.apply(u[:, 0]) == pytest.approx(1.0, abs=1e-9)


class TestTensorBrick:
    def test_feature_length(self):
        rng = np.random.default_rng(16)
        u = rng.standard_normal((3, 20))
        v = rng.standard_normal((2, 20))
        brick = train_tensor_brick(u, v, hidden_size_a=3, hidden_size_b=4, seed=0)
        assert brick.output_weights.shape == (2, 12)

    def test_unit_first_branch_reduces_to_dsn(self):
        # step activation with a zero first layer gives a constant 1 factor
        rng = np.random.default_rng(17)
        u = rng.standard_normal((4, 25))
        v = rng.standard_normal((2, 25))
        w = rng.standard_normal((5, 4))
        tensor = train_tensor_brick(
            u,
            v,
            hidden_size_a=1,
            hidden_size_b=5,
            activation=Activation.STEP,
            hidden_weights_a=np.zeros((1, 4)),
            hidden_weights_b=w,
        )
        dsn = train_dsn_brick(
            u, v, hidden_size=5, activation=Activation.STEP, hidden_weights=w
        )
        x = rng.standard_normal(4)
        assert np.linalg.norm(tensor.apply(x) - dsn.apply(x)) < 1e-10

    def test_matches_explicit_feature_normal_equations_oracle(self):
        rng = np.random.default_rng(18)
        u = rng.standard_normal((3, 30))
        v = rng.standard_normal((2, 30))
        lam = 1e-3
        brick = train_tensor_brick(
            u, v, hidden_size_a=3, hidden_size_b=4, cfg=tikhonov(lam), seed=5
        )
        ha = activate(brick.activation, brick.hidden_weights_a @ u)
        hb = activate(brick.activation, brick.hidden_weights_b @ u)
        feats = np.vstack([ha[i] * hb[j] for i in range(3) for j in range(4)])
        oracle_w = v @ feats.T @ np.linalg.inv(feats @ feats.T + lam * np.eye(12))
        x = rng.standard_normal(3)
        fa = activate(brick.activation, brick.hidden_weights_a @ x)
        fb = activate(brick.activation, brick.hidden_weights_b @ x)
        oracle = oracle_w @ np.outer(fa, fb).ravel()
        assert np.linalg.norm(brick.apply(x) - oracle) < 1e-8

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(19)
        u = rng.standard_normal((3, 10))
        v = rng.standard_normal((1, 10))
        a = train_tensor_brick(u, v, 2, 3, seed=4)
        b = train_tensor_brick(u, v, 2, 3, seed=4)
        assert a.output_weights.tobytes() == b.output_weights.tobytes()

    def test_invalid_hidden_sizes(self):
        with pytest.raises(ValueError):
            train_tensor_brick(np.ones((2, 3)), np.ones((1, 3)), 0, 2)


class TestKernelTensorBrick:
    def test_flat_second_kernel_equals_plain_kernel_brick(self):
        rng = np.random.default_rng(20)
        u = rng.standard_normal((4, 18))
        v = rng.standard_normal((2, 18))
        spec = KernelSpec(scales=(1.5, 0.9), slices=((0, 2), (2, 4)))
        flat = KernelSpec(scales=(np.inf, np.inf), slices=((0, 2), (2, 4)))
        kt = train_kt_brick(u, v, spec, flat, lam=0.2)
        plain = train_kernel_brick(u, v, spec, lam=0.2)
        for _ in range(10):
            x = rng.standard_normal(4)
            assert np.linalg.norm(kt.apply(x) - plain.apply(x)) < 1e-10

    def test_equal_points_give_unit_product_kernel(self):
        spec_a = uniform_kernel_spec(3, 1.0)
        spec_b = uniform_kernel_spec(3, 2.0)
        x = np.array([0.3, -0.7, 1.1])
        k = gaussian_kernel(x, x, spec_a) * gaussian_kernel(x, x, spec_b)
        assert k == 1.0

    @pytest.mark.parametrize("spec_b", [
        KernelSpec(scales=(1.7, 0.6), slices=((0, 2), (2, 3))),
        KernelSpec(scales=(np.inf, 2.5), slices=((0, 2), (2, 3))),
    ], ids=["different-slices", "one-infinite-side"])
    def test_predicts_as_a_kernel_brick_over_the_merged_spec_bit_for_bit(self, spec_b):
        rng = np.random.default_rng(22)
        u, v = rng.standard_normal((3, 30)), rng.standard_normal((2, 30))
        x = rng.standard_normal((3, 7))
        spec_a = KernelSpec(scales=(0.8, 1.3), slices=((0, 1), (1, 3)))
        merged = merge_kernel_specs(spec_a, spec_b)
        assert merged.slices == ((0, 1), (1, 2), (2, 3))
        brick = train_kt_brick(u, v, spec_a, spec_b, lam=1e-3)
        plain = train_kernel_brick(u, v, merged, lam=1e-3)
        assert brick.dual_coefficients.tobytes() == plain.dual_coefficients.tobytes()
        assert brick.apply_columns(x).tobytes() == plain.apply_columns(x).tobytes()
        # the merged kernel is the product of the two, up to rounding
        product = kernel_matrix(spec_a, u, x) * kernel_matrix(spec_b, u, x)
        assert np.allclose(kernel_matrix(merged, u, x), product, rtol=1e-13, atol=0.0)

    def test_merged_scales_sum_inverse_squares_and_take_a_finite_side_exactly(self):
        a = KernelSpec(scales=(1.0, 3.0, np.inf), slices=((0, 1), (1, 2), (2, 3)))
        b = KernelSpec(scales=(1.0, np.inf, np.inf), slices=((0, 1), (1, 2), (2, 3)))
        merged = merge_kernel_specs(a, b)
        assert merged.scales[0] == pytest.approx(math.sqrt(0.5), rel=1e-15)
        assert merged.scales[1:] == (3.0, np.inf)
        tiny = merge_kernel_specs(uniform_kernel_spec(2, 1e-200), uniform_kernel_spec(2, 1e-200))
        assert tiny.scales[0] == pytest.approx(1e-200 / math.sqrt(2.0), rel=1e-15)
        with pytest.raises(ValueError, match="kernel spec dimensions differ"):
            merge_kernel_specs(uniform_kernel_spec(2), uniform_kernel_spec(3))

    def test_product_gram_equals_pointwise_kernel_products(self):
        rng = np.random.default_rng(21)
        u = rng.standard_normal((3, 8))
        spec_a = uniform_kernel_spec(3, 1.4)
        spec_b = KernelSpec(scales=(0.6, 2.2), slices=((0, 1), (1, 3)))
        gram = kernel_matrix(spec_a, u, u) * kernel_matrix(spec_b, u, u)
        for i in range(8):
            for j in range(8):
                want = gaussian_kernel(u[:, i], u[:, j], spec_a) * gaussian_kernel(
                    u[:, i], u[:, j], spec_b
                )
                assert gram[i, j] == pytest.approx(want, rel=1e-12, abs=1e-15)

    @staticmethod
    def _trig_features(spec, cols, draws, seed):
        # random trigonometric features: E[z(x) . z(y)] = exp(-||x - y||^2)
        # in the kernel-spec scaled space (frequency variance 2 matches that width)
        w = np.random.default_rng(seed).normal(0.0, np.sqrt(2.0), size=(draws, spec.dim))
        z = w @ spec.scale(np.asarray(cols, dtype=float))
        return np.vstack([np.cos(z), np.sin(z)]) / np.sqrt(draws)

    def test_matches_explicit_tensor_feature_oracle(self):
        rng = np.random.default_rng(22)
        u = rng.standard_normal((3, 15))
        v = rng.standard_normal((2, 15))
        spec_a = uniform_kernel_spec(3, 1.5)
        spec_b = KernelSpec(scales=(0.8, 2.0), slices=((0, 1), (1, 3)))
        lam = 0.5
        brick = train_kt_brick(u, v, spec_a, spec_b, lam)
        xs = rng.standard_normal((3, 6))

        def oracle(seed_a, seed_b):
            # 44 features per kernel -> 1936 explicit tensor features
            za_t = self._trig_features(spec_a, u, 22, seed_a)
            zb_t = self._trig_features(spec_b, u, 22, seed_b)
            feats = (za_t[:, None, :] * zb_t[None, :, :]).reshape(44 * 44, 15)
            w = v @ feats.T @ np.linalg.inv(feats @ feats.T + lam * np.eye(44 * 44))
            za_x = self._trig_features(spec_a, xs, 22, seed_a)
            zb_x = self._trig_features(spec_b, xs, 22, seed_b)
            fx = (za_x[:, None, :] * zb_x[None, :, :]).reshape(44 * 44, 6)
            return w @ fx

        first = oracle(100, 200)
        second = oracle(300, 400)
        # the oracle's own scatter measures the feature-approximation error
        tolerance = 3.0 * (np.linalg.norm(first - second) + 1e-6)
        exact = brick.apply_columns(xs)
        assert np.linalg.norm(exact - first) <= tolerance

    def test_reduction_chain_to_sample_mean_ridge(self):
        rng = np.random.default_rng(23)
        u = rng.standard_normal((3, 12))
        v = rng.standard_normal((2, 12))
        lam = 1.0
        x = rng.standard_normal(3)
        # with the constant-one kernel the ridge solution is the shrunk sample mean
        mean_ridge = v.sum(axis=1) / (12 + lam)
        deviations = []
        for rho in (1e2, 1e3, 1e4, np.inf):
            brick = train_kernel_brick(u, v, uniform_kernel_spec(3, rho), lam)
            deviations.append(np.linalg.norm(brick.apply(x) - mean_ridge))
        assert deviations[0] > deviations[-1]
        assert deviations[-1] < 1e-12

    def test_deterministic(self):
        rng = np.random.default_rng(24)
        u = rng.standard_normal((2, 9))
        v = rng.standard_normal((1, 9))
        spec = uniform_kernel_spec(2)
        a = train_kt_brick(u, v, spec, spec, lam=0.1)
        b = train_kt_brick(u, v, spec, spec, lam=0.1)
        assert a.dual_coefficients.tobytes() == b.dual_coefficients.tobytes()


def kernel_formula(spec, a, b):
    """The Gaussian cross-kernel as one expression, with no cached inputs."""
    sa, sb = spec.scale(a), spec.scale(b)
    d2 = np.sum(sa * sa, axis=0)[:, None] + np.sum(sb * sb, axis=0)[None, :] - 2.0 * (sa.T @ sb)
    return np.exp(-np.maximum(d2, 0.0))


class TestCachedDualApply:
    @pytest.mark.parametrize("n_specs", [1, 2])
    def test_cached_apply_equals_uncached_kernel_matrix_formula(self, n_specs):
        rng = np.random.default_rng(25)
        u = rng.standard_normal((5, 30)) * 3.0 + 100.0
        v = rng.standard_normal((2, 30))
        specs = (
            KernelSpec(scales=(1.5, 40.0), slices=((0, 2), (2, 5))),
            KernelSpec(scales=(0.7, np.inf), slices=((0, 2), (2, 5))),
        )[:n_specs]
        if n_specs == 1:
            brick, spec = train_kernel_brick(u, v, specs[0], 1e-3), specs[0]
        else:
            brick, spec = train_kt_brick(u, v, *specs, 1e-3), merge_kernel_specs(*specs)
        gram = kernel_formula(spec, u, u.copy())
        dual = np.linalg.solve(gram + 1e-3 * np.eye(30), v.T).T
        assert np.array_equal(brick.dual_coefficients, dual)
        x = rng.standard_normal((5, 7)) * 3.0 + 100.0
        # the first apply fills the cache, the later ones read it
        for cols in (x, x, x[:, :1], x[:, 0]):
            cols2d = np.reshape(cols, (5, -1))
            cross = kernel_formula(spec, u, cols2d)
            assert np.array_equal(kernel_matrix(spec, u, cols2d), cross)
            want = brick.dual_coefficients @ cross
            assert np.array_equal(brick.apply(cols), want[:, 0] if cols.ndim == 1 else want)


class TestUnitScales:
    """A unit-scale spec skips the division, and one buffer never stands on
    both sides of the kernel's matrix product: numpy's symmetric (syrk) path
    for ``s.T @ s`` rounds differently, at this size among others."""

    SPEC = KernelSpec(scales=(1.0, 1.0), slices=((0, 2), (2, 5)))

    def data(self):
        rng = np.random.default_rng(25)
        return rng.standard_normal((5, 30)) * 3.0 + 100.0, rng.standard_normal((2, 30))

    def test_scaling_gives_the_bits_and_layout_of_a_division_by_one(self):
        u = self.data()[0]
        u[0, :3] = (-0.0, np.inf, -np.inf)
        for x in (u, np.asfortranarray(u), u[:, ::2], u[:, 1:], u[:, 4]):
            got, want = self.SPEC.scale(x), x / 1.0
            assert got.tobytes() == want.tobytes()
            assert got.strides == want.strides
        assert self.SPEC.scale(u) is u

    def test_gram_equals_the_formula_on_a_copy_bit_for_bit(self):
        u = self.data()[0]
        assert np.array_equal(kernel_matrix(self.SPEC, u, u), kernel_formula(self.SPEC, u, u.copy()))

    def test_apply_to_the_retained_inputs_equals_the_formula_bit_for_bit(self):
        u, v = self.data()
        brick = train_kernel_brick(u, v, self.SPEC, 1e-3)
        x = brick.training_inputs
        want = brick.dual_coefficients @ kernel_formula(self.SPEC, x, x.copy())
        assert np.array_equal(brick.apply_columns(x), want)


class TestTrainingGram:
    """A dual brick trains on the ridge-free Gram matrix it is given."""

    SPECS = (
        KernelSpec(scales=(1.5, 40.0), slices=((0, 2), (2, 5))),
        KernelSpec(scales=(0.7, 3.0), slices=((0, 2), (2, 5))),
    )

    def train(self, n_specs, u, v, lam, gram=None):
        if n_specs == 1:
            return train_kernel_brick(u, v, self.SPECS[0], lam, gram)
        return train_kt_brick(u, v, *self.SPECS, lam, gram)

    def data(self):
        rng = np.random.default_rng(26)
        return rng.standard_normal((5, 30)) * 3.0 + 100.0, rng.standard_normal((2, 30))

    def gram(self, n_specs, u):
        spec = self.SPECS[0] if n_specs == 1 else merge_kernel_specs(*self.SPECS)
        return kernel_matrix(spec, u, u)

    @pytest.mark.parametrize("lam", [1e-3, 0.0], ids=["ridge", "pseudo-inverse"])
    @pytest.mark.parametrize("n_specs", [1, 2])
    def test_gram_outputs_equal_apply_columns_bit_for_bit(self, n_specs, lam):
        u, v = self.data()
        gram = self.gram(n_specs, u)
        brick = self.train(n_specs, u, v, lam, gram)
        want = brick.apply_columns(u)
        assert (brick.dual_coefficients @ gram).tobytes() == want.tobytes()

    @pytest.mark.parametrize("n_specs", [1, 2])
    def test_gram_comes_back_with_its_diagonal_restored(self, n_specs):
        u, v = self.data()
        gram = self.gram(n_specs, u)
        before = gram.copy()
        self.train(n_specs, u, v, 0.5, gram)
        assert gram.tobytes() == before.tobytes()

    @pytest.mark.parametrize("n_specs", [1, 2])
    def test_a_new_ridge_from_a_kept_gram_equals_training_afresh(self, n_specs):
        u, v = self.data()
        gram = self.gram(n_specs, u)
        self.train(n_specs, u, v, 1e-3, gram)
        for lam in (0.25, 1e-6, 0.0):
            kept = self.train(n_specs, u, v, lam, gram)
            fresh = self.train(n_specs, u, v, lam)
            assert type(kept) is type(fresh) and kept.ridge == fresh.ridge
            assert kept.training_inputs.tobytes() == fresh.training_inputs.tobytes()
            assert kept.dual_coefficients.tobytes() == fresh.dual_coefficients.tobytes()

    def test_a_gram_of_the_wrong_shape_is_rejected(self):
        u, v = self.data()
        with pytest.raises(ValueError, match="Gram matrix must be 30 x 30"):
            self.train(1, u, v, 1e-3, self.gram(1, u[:, :29]))


class TestGaussianBuffer:
    """``_gaussian`` finishes the kernel in the buffer of its one matrix
    product, with the rounding of the one-expression formula."""

    @pytest.mark.parametrize("n, m, k, gram", [
        (1600, 1600, 2, True),
        (1600, 1600, 4, True),
        (1600, 2001, 4, False),
        (400, 501, 403, False),
        (192, 192, 102, True),
    ])
    def test_equals_the_one_expression_formula_bit_for_bit(self, n, m, k, gram):
        rng = np.random.default_rng(n + m + k)
        sa = rng.standard_normal((k, n))
        # a Gram matrix's right-hand side is a copy of the left-hand side
        sb = sa.copy() if gram else rng.standard_normal((k, m))
        na, nb = np.sum(sa * sa, axis=0), np.sum(sb * sb, axis=0)
        want = np.exp(-np.maximum(na[:, None] + nb[None, :] - 2.0 * (sa.T @ sb), 0))
        assert _gaussian(sa, na, sb, nb).tobytes() == want.tobytes()

    @pytest.mark.parametrize("n, m, shared", [
        (50, 0, False),
        (1600, 1, False),
        (100, 300, False),
        (400, 300, False),
        (400, 400, True),
    ], ids=["m=0", "m=1", "one-block", "several-blocks", "shared-buffer-gram"])
    def test_finite_entries_keep_the_bits_of_the_negated_form(self, n, m, shared):
        """Four passes form min(2k - s, 0) where the formula negates
        max(s - 2k, 0): every finite entry has the same bits, and a NaN stays
        NaN (only its sign bit differs)."""
        rng = np.random.default_rng(n + m)
        sa = rng.standard_normal((3, n)) * 4.0
        sb = sa if shared else rng.standard_normal((3, m)) * 4.0
        if m:
            sa[1, n // 2] = np.nan
        na, nb = np.sum(sa * sa, axis=0), np.sum(sb * sb, axis=0)
        got = _gaussian(sa, na, sb, nb)
        want = np.exp(-np.maximum(na[:, None] + nb[None, :] - 2.0 * (sa.T @ sb.copy()), 0))
        assert got.shape == (n, m)
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert nan.any() == (m > 0)
        assert got[~nan].tobytes() == want[~nan].tobytes()

    def test_a_cross_kernel_apply_holds_one_n_by_m_buffer(self):
        n, m = 800, 600
        rng = np.random.default_rng(27)
        u, v = rng.standard_normal((4, n)), rng.standard_normal((2, n))
        brick = train_kernel_brick(u, v, uniform_kernel_spec(4, 2.0), 1e-3)
        x = rng.standard_normal((4, m))
        brick.apply_columns(x[:, :1])  # any lazy state is in place
        tracemalloc.start()
        try:
            brick.apply_columns(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * n * m * 8


CONTEXT = np.array([0.4, -1.3])


class TestContextFold:
    """A constant context folded out of the feature kinds predicts as the
    full-width brick up to rounding: 1e-12 relative to each column's largest
    magnitude on these well-conditioned draws."""

    @staticmethod
    def pairs(seed):
        rng = np.random.default_rng(seed)
        u, v = rng.standard_normal((3, 40)), rng.standard_normal((2, 40))
        x = rng.standard_normal((3, 6))
        return u, v, x

    @staticmethod
    def full(rows):
        """``rows`` with CONTEXT in every column after the first two rows."""
        block = np.repeat(CONTEXT[:, None], rows.shape[1], axis=1)
        return np.vstack([rows[:2], block, rows[2:]])

    def assert_close(self, got, want):
        assert np.all(np.abs(got - want) <= 1e-12 * np.max(np.abs(want), axis=0))

    @pytest.mark.parametrize("cfg", [EXACT_SVD, tikhonov(1e-3)], ids=["exact-svd", "tikhonov"])
    def test_linear_bias_row_solves_as_the_full_width(self, cfg):
        u, v, x = self.pairs(30)
        folded = train_linear_brick(u, v, cfg, context=CONTEXT)
        full = train_linear_brick(self.full(u), v, cfg)
        want = full.apply_columns(self.full(x))
        assert folded.input_dim == 3 and folded.bias.shape == (2,)
        self.assert_close(folded.apply_columns(x), want)
        self.assert_close(fold_context(full, CONTEXT, 2).apply_columns(x), want)

    @pytest.mark.parametrize("train", [
        lambda u, v, **kw: train_dsn_brick(u, v, hidden_size=6, seed=4, **kw),
        lambda u, v, **kw: train_tensor_brick(u, v, 2, 3, seed=4, **kw),
    ], ids=["dsn", "tensor"])
    def test_hidden_bias_stands_for_the_context_columns(self, train):
        u, v, x = self.pairs(31)
        folded = train(u, v, context=CONTEXT, context_row=2)
        full = train(self.full(u), v)
        want = full.apply_columns(self.full(x))
        self.assert_close(folded.apply_columns(x), want)
        self.assert_close(fold_context(full, CONTEXT, 2).apply_columns(x), want)

    def test_a_zero_context_folds_to_no_bias(self):
        u, v, _ = self.pairs(32)
        zero = np.zeros(2)
        assert train_linear_brick(u, v, context=zero).bias is None
        assert train_dsn_brick(u, v, hidden_size=3, context=zero, context_row=2).hidden_bias is None
        brick = train_tensor_brick(u, v, 2, 2, context=zero, context_row=2)
        assert brick.hidden_bias_a is None and brick.hidden_bias_b is None

    def test_a_non_finite_context_is_rejected(self):
        u, v, _ = self.pairs(33)
        with pytest.raises(NonFiniteError):
            train_dsn_brick(u, v, hidden_size=3, context=np.array([1.0, np.inf]), context_row=2)


class TestZeroRidgeIsExact:
    """``tikhonov(0.0)`` trains every feature kind to the bits of
    ``EXACT_SVD``, on inputs of rank 2 in 3 rows."""

    @pytest.mark.parametrize("train", [
        lambda u, v, cfg: train_linear_brick(u, v, cfg),
        lambda u, v, cfg: train_dsn_brick(u, v, hidden_size=6, cfg=cfg, seed=2),
        lambda u, v, cfg: train_dsn_brick(u, v, hidden_size=6, mode="gradient-refined",
                                          cfg=cfg, seed=2),
        lambda u, v, cfg: train_tensor_brick(u, v, 2, 3, cfg=cfg, seed=2),
    ], ids=["linear", "dsn", "dsn-refined", "tensor"])
    def test_zero_ridge_trains_the_exact_brick_bit_for_bit(self, train, monkeypatch):
        monkeypatch.setattr(bricks, "_MAX_REFINE_STEPS", 5)  # a few steps show the refined path
        rng = np.random.default_rng(41)
        u = rng.standard_normal((3, 2)) @ rng.standard_normal((2, 30))
        v = rng.standard_normal((2, 30))
        exact, zero = train(u, v, EXACT_SVD), train(u, v, tikhonov(0.0))
        for f in fields(exact):
            a, b = getattr(exact, f.name), getattr(zero, f.name)
            assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b, f.name


class TestBrickProtocol:
    @pytest.mark.parametrize("train", [
        lambda u, v: train_linear_brick(u, v),
        lambda u, v: train_dsn_brick(u, v, hidden_size=4),
        lambda u, v: train_kernel_brick(u, v, uniform_kernel_spec(3), 1e-3),
        lambda u, v: train_tensor_brick(u, v, 2, 3),
        lambda u, v: train_kt_brick(u, v, uniform_kernel_spec(3), uniform_kernel_spec(3, 2.0), 1e-3),
        lambda u, v: train_linear_brick(u, v, context=CONTEXT),
        lambda u, v: train_dsn_brick(u, v, hidden_size=4, context=CONTEXT, context_row=2),
        lambda u, v: train_tensor_brick(u, v, 2, 3, context=CONTEXT, context_row=2),
    ], ids=["linear", "dsn", "kernel", "tensor", "kernel-tensor", "linear-folded", "dsn-folded",
            "tensor-folded"])
    def test_array_fields_are_read_only_copies(self, train):
        rng = np.random.default_rng(0)
        u, v = rng.standard_normal((3, 12)), rng.standard_normal((2, 12))
        brick = train(u, v)
        arrays = [getattr(brick, f) for f in vars(brick) if isinstance(getattr(brick, f), np.ndarray)]
        assert arrays and not any(a.flags.writeable for a in arrays)
        assert u.flags.writeable and v.flags.writeable
        x = rng.standard_normal((3, 5))
        # one vector and a batch differ only by BLAS rounding
        assert np.allclose(brick.apply(x[:, 1]), brick.apply_columns(x)[:, 1], rtol=1e-12, atol=1e-12)
