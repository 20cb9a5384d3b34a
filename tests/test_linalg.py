import numpy as np
import pytest

from ecocast.linalg import (
    EXACT_SVD,
    pseudo_inverse,
    spectral_radius,
    tikhonov,
)


def random_matrix(rng, rows, cols, rank=None):
    if rank is None:
        return rng.standard_normal((rows, cols))
    left = rng.standard_normal((rows, rank))
    right = rng.standard_normal((rank, cols))
    return left @ right


def penrose_residuals(a, a_pinv):
    aa = a @ a_pinv
    pa = a_pinv @ a
    return (
        np.linalg.norm(a @ pa - a) / max(np.linalg.norm(a), 1e-300),
        np.linalg.norm(a_pinv @ aa - a_pinv) / max(np.linalg.norm(a_pinv), 1e-300),
        np.linalg.norm(aa - aa.T) / max(np.linalg.norm(aa), 1e-300),
        np.linalg.norm(pa - pa.T) / max(np.linalg.norm(pa), 1e-300),
    )


class TestPseudoInverse:
    def test_identity(self):
        assert np.allclose(pseudo_inverse(np.eye(3)), np.eye(3), atol=1e-14)

    def test_singular_diagonal(self):
        got = pseudo_inverse(np.diag([2.0, 0.0]))
        assert np.allclose(got, np.diag([0.5, 0.0]), atol=1e-14)

    def test_scalar_tikhonov(self):
        # 1x1 ridge inverse: u / (u^2 + lam) = 1 / 2
        got = pseudo_inverse(np.array([[1.0]]), tikhonov(1.0))
        assert got == pytest.approx(0.5, abs=1e-15)

    def test_penrose_identities_random(self):
        rng = np.random.default_rng(3)
        for trial in range(40):
            rows = int(rng.integers(1, 51))
            cols = int(rng.integers(1, 31))
            rank = None if trial % 2 == 0 else int(rng.integers(1, min(rows, cols) + 1))
            a = random_matrix(rng, rows, cols, rank)
            residuals = penrose_residuals(a, pseudo_inverse(a, EXACT_SVD))
            assert max(residuals) < 1e-8

    def test_tikhonov_matches_normal_equations(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((12, 5))
        lam = 0.3
        oracle = np.linalg.inv(a.T @ a + lam * np.eye(5)) @ a.T
        got = pseudo_inverse(a, tikhonov(lam))
        assert np.linalg.norm(got - oracle) / np.linalg.norm(oracle) < 1e-12

    def test_tikhonov_lam_zero_rank_deficient_falls_back(self):
        rng = np.random.default_rng(11)
        a = random_matrix(rng, 8, 6, rank=3)
        got = pseudo_inverse(a, tikhonov(0.0))
        assert max(penrose_residuals(a, got)) < 1e-8
        # a zero ridge is the exact inverse, bit for bit
        assert tikhonov(0.0) == EXACT_SVD == 0.0
        assert np.array_equal(got, pseudo_inverse(a, EXACT_SVD))

    def test_tikhonov_continuity(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((20, 8))
        exact = pseudo_inverse(a, EXACT_SVD)
        gaps = [
            np.linalg.norm(pseudo_inverse(a, tikhonov(lam)) - exact)
            for lam in (1e-1, 1e-2, 1e-3, 1e-4, 1e-6, 1e-8)
        ]
        assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-6 * np.linalg.norm(exact)

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            pseudo_inverse(np.empty((0, 3)))
        with pytest.raises(ValueError):
            pseudo_inverse(np.array([[1.0, np.nan]]))

    @pytest.mark.parametrize("lam", [-1.0, -1e-300, np.nan, np.inf, -np.inf])
    def test_config_rejects_a_negative_or_non_finite_ridge(self, lam):
        with pytest.raises(ValueError, match="lam"):
            pseudo_inverse(np.eye(2), lam)
        with pytest.raises(ValueError, match="lam"):
            tikhonov(lam)


class TestSpectralRadius:
    def test_diagonal(self):
        est = spectral_radius(np.diag([0.5, -0.9]))
        assert est.radius == pytest.approx(0.9, abs=1e-15)
        assert est.iterations_used == 1

    def test_identity(self):
        assert spectral_radius(np.eye(4)).radius == pytest.approx(1.0, abs=1e-15)

    def test_random_matches_dense_eigenvalue_oracle(self):
        rng = np.random.default_rng(8)
        for trial in range(20):
            m = rng.standard_normal((10, 10))
            oracle = float(np.max(np.abs(np.linalg.eigvals(m))))
            assert abs(spectral_radius(m).radius - oracle) < 1e-12 * max(oracle, 1.0)

    def test_known_spectrum_with_near_tied_runner_up(self):
        # radius 0.95 and a runner-up of modulus 0.949, behind an orthogonal
        # similarity; iterating on m converges too slowly to resolve the pair
        rng = np.random.default_rng(0)
        spectrum = np.concatenate([[0.95, -0.949], rng.uniform(-0.9, 0.9, 38)])
        q, _ = np.linalg.qr(rng.standard_normal((40, 40)))
        est = spectral_radius((q * spectrum) @ q.T)
        assert abs(est.radius - 0.95) < 1e-12 * 0.95

    def test_zero_matrix(self):
        assert spectral_radius(np.zeros((3, 3))).radius == 0.0

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            spectral_radius(np.ones((2, 3)))
