import numpy as np
import pytest

from ecocast.bricks import (
    Activation,
    KernelSpec,
    activate,
    dsn_objective,
    dsn_objective_gradient,
    gaussian_kernel,
    kernel_matrix,
    train_dsn_brick,
    train_kernel_brick,
    train_kt_brick,
    train_linear_brick,
    train_tensor_brick,
    uniform_kernel_spec,
)
from ecocast.linalg import tikhonov


class TestActivations:
    def test_relu(self):
        out = activate(Activation.RELU, np.array([-3.0, 0.0, 2.0]))
        assert np.array_equal(out, [0.0, 0.0, 2.0])

    def test_sigmoid_at_zero(self):
        assert activate(Activation.SIGMOID, np.array([0.0]))[0] == 0.5

    def test_sigmoid_saturates_without_overflow(self):
        out = activate(Activation.SIGMOID, np.array([-1000.0, 1000.0]))
        assert out[0] == 0.0 and out[1] == 1.0

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

    def test_stalled_refinement_keeps_best_weights_and_reports(self):
        rng = np.random.default_rng(10)
        u = rng.standard_normal((5, 30))
        v = rng.standard_normal((2, 30))
        brick = train_dsn_brick(
            u, v, hidden_size=4, mode="gradient-refined", seed=5,
            max_refine_steps=1, refine_tol=0.0,
        )
        assert brick.refine_converged is False
        assert brick.refine_trace is not None
        # the retained weights are the best seen: objective equals the trace end
        final = dsn_objective(brick.hidden_weights, u, v, brick.activation)
        assert final == pytest.approx(brick.refine_trace[-1], rel=1e-12)

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
            brick = train_kernel_brick(u, v, specs[0], 1e-3)
        else:
            brick = train_kt_brick(u, v, *specs, 1e-3)
        gram = kernel_formula(specs[0], u, u.copy())
        for spec in specs[1:]:
            gram = gram * kernel_formula(spec, u, u.copy())
        dual = np.linalg.solve(gram + 1e-3 * np.eye(30), v.T).T
        assert np.array_equal(brick.dual_coefficients, dual)
        x = rng.standard_normal((5, 7)) * 3.0 + 100.0
        # the first apply fills the cache, the later ones read it
        for cols in (x, x, x[:, :1], x[:, 0]):
            cols2d = np.reshape(cols, (5, -1))
            cross = kernel_formula(specs[0], u, cols2d)
            assert np.array_equal(kernel_matrix(specs[0], u, cols2d), cross)
            for spec in specs[1:]:
                cross = cross * kernel_formula(spec, u, cols2d)
            want = brick.dual_coefficients @ cross
            assert np.array_equal(brick.apply(cols), want[:, 0] if cols.ndim == 1 else want)


class TestBrickProtocol:
    @pytest.mark.parametrize("train", [
        lambda u, v: train_linear_brick(u, v),
        lambda u, v: train_dsn_brick(u, v, hidden_size=4),
        lambda u, v: train_kernel_brick(u, v, uniform_kernel_spec(3), 1e-3),
        lambda u, v: train_tensor_brick(u, v, 2, 3),
        lambda u, v: train_kt_brick(u, v, uniform_kernel_spec(3), uniform_kernel_spec(3, 2.0), 1e-3),
    ], ids=["linear", "dsn", "kernel", "tensor", "kernel-tensor"])
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
