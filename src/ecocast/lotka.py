"""Predator-prey laboratory: simulate the classic two-species model and fit
its four rate constants from an observed trajectory; simulating with fitted
constants predicts forward.

The coupled system is

    d(prey)/dt      = prey * (alpha - beta * predators)
    d(predators)/dt = predators * (delta * prey - gamma)

which is nonlinear in the populations but linear in the rate constants, so
parameter estimation reduces to a stacked least-squares solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datasets import TimeSeriesSet
from .linalg import pseudo_inverse

__all__ = [
    "DegenerateFitError",
    "LVParams",
    "PopulationTrajectory",
    "REFERENCE_PARAMS",
    "first_integral",
    "fit_lv",
    "simulate_lv",
]

# Relative singular-value floor below which the stacked fit is degenerate.
_DEGENERATE_RTOL = 1e-10


class DegenerateFitError(ValueError):
    """The stacked regression matrix is rank-deficient, e.g. because the
    trajectory sits at equilibrium and carries no parameter information."""


@dataclass(frozen=True)
class LVParams:
    """Rate constants of the predator-prey model.

    alpha: prey growth rate in the absence of predators (1/time)
    beta:  predator attack rate (1/(predator*time))
    gamma: predator death rate in the absence of prey (1/time)
    delta: prey-induced predator birth rate (1/(prey*time))

    ``clamped`` records whether negative estimates were clamped to zero at
    fit time; all four values must be finite.
    """

    alpha: float
    beta: float
    gamma: float
    delta: float
    clamped: bool = False

    def __post_init__(self) -> None:
        if not all(np.isfinite(v) for v in self.as_array()):
            raise ValueError("all four rate constants must be finite")

    def as_array(self) -> np.ndarray:
        return np.array([self.alpha, self.beta, self.gamma, self.delta])


REFERENCE_PARAMS = LVParams(alpha=1.1, beta=0.4, gamma=0.4, delta=0.1)


class PopulationTrajectory(TimeSeriesSet):
    """Prey and predator populations: the series set named
    ``("prey", "predators")``."""

    def __init__(self, times, prey, predators) -> None:
        super().__init__(names=("prey", "predators"), times=times, values=np.vstack([prey, predators]))

    @property
    def prey(self) -> np.ndarray:
        return self.values[0]

    @property
    def predators(self) -> np.ndarray:
        return self.values[1]


def simulate_lv(p: LVParams, r0: float, f0: float, dt: float, steps: int) -> PopulationTrajectory:
    """Integrate the predator-prey system with fixed-step classical RK4.

    Returns ``steps + 1`` samples starting from ``(r0, f0)`` at time 0.
    """
    if not (np.isfinite(r0) and np.isfinite(f0)):
        raise ValueError("initial populations must be finite")
    if r0 < 0.0 or f0 < 0.0:
        raise ValueError("initial populations must be nonnegative")
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    a, b, g, d = p.alpha, p.beta, p.gamma, p.delta
    prey = np.empty(steps + 1)
    pred = np.empty(steps + 1)
    prey[0], pred[0] = r0, f0
    r, f = float(r0), float(f0)
    for i in range(steps):
        k1r = r * (a - b * f)
        k1f = f * (d * r - g)
        r2, f2 = r + 0.5 * dt * k1r, f + 0.5 * dt * k1f
        k2r = r2 * (a - b * f2)
        k2f = f2 * (d * r2 - g)
        r3, f3 = r + 0.5 * dt * k2r, f + 0.5 * dt * k2f
        k3r = r3 * (a - b * f3)
        k3f = f3 * (d * r3 - g)
        r4, f4 = r + dt * k3r, f + dt * k3f
        k4r = r4 * (a - b * f4)
        k4f = f4 * (d * r4 - g)
        r += (dt / 6.0) * (k1r + 2.0 * (k2r + k3r) + k4r)
        f += (dt / 6.0) * (k1f + 2.0 * (k2f + k3f) + k4f)
        prey[i + 1], pred[i + 1] = r, f
    return PopulationTrajectory(dt * np.arange(steps + 1), prey, pred)


def fit_lv(
    traj: PopulationTrajectory,
    clamp_nonneg: bool = False,
    derivatives: tuple[np.ndarray, np.ndarray] | None = None,
) -> LVParams:
    """Least-squares estimate of the four rate constants from a trajectory.

    Each consecutive sample pair contributes one 2x4 block that is linear in
    (alpha, beta, gamma, delta); the right-hand side holds forward-difference
    derivatives unless explicit ``derivatives = (d_prey, d_predators)`` arrays
    evaluated at the left sample of each pair are supplied.

    With ``clamp_nonneg`` negative estimates are clamped to zero and the
    result's ``clamped`` flag is set.
    """
    n = traj.n_points
    if n < 3:
        raise ValueError("trajectory must have at least 3 samples")
    r = traj.prey[:-1]
    f = traj.predators[:-1]
    if derivatives is None:
        drdt = np.diff(traj.prey) / traj.dt
        dfdt = np.diff(traj.predators) / traj.dt
    else:
        drdt = np.asarray(derivatives[0], dtype=float)
        dfdt = np.asarray(derivatives[1], dtype=float)
        if drdt.shape != r.shape or dfdt.shape != f.shape:
            raise ValueError("derivative arrays must have one entry per sample pair")
    g_mat = np.zeros((2 * (n - 1), 4))
    g_mat[0::2, 0] = r
    g_mat[0::2, 1] = -r * f
    g_mat[1::2, 2] = -f
    g_mat[1::2, 3] = r * f
    rhs = np.empty(2 * (n - 1))
    rhs[0::2] = drdt
    rhs[1::2] = dfdt
    sv = np.linalg.svd(g_mat, compute_uv=False)
    if sv[-1] <= _DEGENERATE_RTOL * sv[0]:
        raise DegenerateFitError(
            "stacked regression matrix is rank-deficient; "
            "the trajectory carries no parameter information"
        )
    p = pseudo_inverse(g_mat) @ rhs
    clamped = bool(clamp_nonneg and np.any(p < 0.0))
    if clamp_nonneg:
        p = np.maximum(p, 0.0)
    return LVParams(float(p[0]), float(p[1]), float(p[2]), float(p[3]), clamped=clamped)


def first_integral(p: LVParams, prey, predators) -> np.ndarray:
    """Conserved quantity of the exact flow, evaluated elementwise.

    ``delta * r - gamma * log(r) + beta * f - alpha * log(f)`` is constant
    along exact trajectories with positive populations, which makes its drift
    a sharp integration-quality diagnostic.
    """
    r = np.asarray(prey, dtype=float)
    f = np.asarray(predators, dtype=float)
    if np.any(r <= 0.0) or np.any(f <= 0.0):
        raise ValueError("the conserved quantity requires positive populations")
    return p.delta * r - p.gamma * np.log(r) + p.beta * f - p.alpha * np.log(f)
