"""Regularized linear algebra shared by every learner in the package.

A single SVD backbone drives the exact and ridge pseudo-inverses; they
differ only in how singular values are filtered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EXACT_SVD",
    "NonFiniteError",
    "SpectralEstimate",
    "pseudo_inverse",
    "spectral_radius",
    "tikhonov",
]

# Singular values below RANK_CUTOFF * sigma_max count as zero (numerical rank).
RANK_CUTOFF = 1e-12

# The ridge of the exact inverse to numerical rank.
EXACT_SVD = 0.0


def readonly(a) -> np.ndarray:
    """Write-protected float copy of ``a``, so the caller's array stays writable.

    C order normalizes the memory layout, so BLAS rounding cannot depend on
    whether an array arrived as a transposed view or a reloaded copy.
    """
    a = np.array(a, dtype=float, order="C")
    a.setflags(write=False)
    return a


def tikhonov(lam: float) -> float:
    """The ridge ``lam`` as a float, refused unless it is finite and >= 0:
    the one rule for every ridge in the package."""
    lam = float(lam)
    if not (math.isfinite(lam) and lam >= 0.0):
        raise ValueError(f"the ridge lam must be finite and >= 0; got {lam}")
    return lam


@dataclass(frozen=True)
class SpectralEstimate:
    """Spectral radius with the number of eigensolves that produced it."""

    radius: float
    iterations_used: int

    def __post_init__(self) -> None:
        if self.radius < 0.0:
            raise ValueError("radius must be nonnegative")


class NonFiniteError(ValueError):
    """Raised when data handed to a solve or a training step holds NaN or
    infinite values."""


def _as_matrix(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise ValueError(f"{name} must be a nonempty 2-d matrix")
    if not np.all(np.isfinite(a)):
        raise NonFiniteError(f"{name} contains non-finite entries")
    return a


def pseudo_inverse(a, lam: float = EXACT_SVD) -> np.ndarray:
    """Regularized Moore-Penrose inverse of ``a`` with the ridge ``lam``.

    With ``lam = 0`` it satisfies the four Penrose identities to numerical
    rank.  With ``lam > 0`` it equals ``(a.T a + lam I)^-1 a.T`` through the
    singular-value filter ``s / (s^2 + lam)``.
    """
    a = _as_matrix(a, "a")
    lam = tikhonov(lam)
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    if lam > 0.0:
        filt = s / (s * s + lam)
    else:
        keep = s > RANK_CUTOFF * s[0]
        filt = np.where(keep, 1.0 / np.where(keep, s, 1.0), 0.0)
    return (vt.T * filt) @ u.T


def spectral_radius(m) -> SpectralEstimate:
    """Largest eigenvalue magnitude of a square matrix, from one dense
    eigensolve."""
    m = _as_matrix(m, "m")
    if m.shape[0] != m.shape[1]:
        raise ValueError("m must be square")
    return SpectralEstimate(float(np.max(np.abs(np.linalg.eigvals(m)))), 1)
