import numpy as np
import pytest

from ecocast.datasets import TimeSeriesSet
from ecocast.io import write_timeseries_csv
from ecocast.lotka import (
    DegenerateFitError,
    LVParams,
    PopulationTrajectory,
    REFERENCE_PARAMS,
    first_integral,
    fit_lv,
    simulate_lv,
)

P = REFERENCE_PARAMS  # alpha=1.1 beta=0.4 gamma=0.4 delta=0.1


def analytic_derivatives(p, prey, predators):
    """Right-hand sides of the coupled system, the oracle for exact fits."""
    return prey * (p.alpha - p.beta * predators), predators * (p.delta * prey - p.gamma)


class TestSimulate:
    def test_no_predators_grows_exponentially(self):
        traj = simulate_lv(P, 3.0, 0.0, 1e-3, 5000)
        exact = 3.0 * np.exp(P.alpha * traj.times)
        assert np.max(np.abs(traj.prey - exact) / exact) < 1e-6
        assert np.all(traj.predators == 0.0)

    def test_equilibrium_is_stationary(self):
        r_eq, f_eq = P.gamma / P.delta, P.alpha / P.beta  # the stationary point
        traj = simulate_lv(P, r_eq, f_eq, 1e-2, 2000)
        assert np.max(np.abs(traj.prey - r_eq)) < 1e-9 * r_eq
        assert np.max(np.abs(traj.predators - f_eq)) < 1e-9 * f_eq

    def test_conserved_quantity_symbolically_conserved(self):
        # independent check that d/dt of the invariant vanishes under the flow
        import sympy as sp

        r, f, a, b, g, d = sp.symbols("r f alpha beta gamma delta", positive=True)
        h = d * r - g * sp.log(r) + b * f - a * sp.log(f)
        dr = r * (a - b * f)
        df = f * (d * r - g)
        dh_dt = sp.diff(h, r) * dr + sp.diff(h, f) * df
        assert sp.simplify(dh_dt) == 0

    def test_conserved_quantity_numerically_constant(self):
        traj = simulate_lv(P, 10.0, 5.0, 1e-3, 20000)
        h = first_integral(P, traj.prey, traj.predators)
        assert (h.max() - h.min()) / abs(h[0]) < 1e-6

    def test_nonnegative_populations_at_coarse_step(self):
        for r0, f0 in ((10.0, 5.0), (0.5, 8.0), (0.0, 3.0)):
            traj = simulate_lv(P, r0, f0, 1e-2, 3000)
            assert np.all(traj.prey >= 0.0)
            assert np.all(traj.predators >= 0.0)

    def test_periodicity_witness(self):
        # leaves the start, then returns within 1% of it inside a window
        # covering the orbital period (about 10.8 time units here)
        traj = simulate_lv(P, 10.0, 5.0, 1e-3, 20000)
        start = traj.values[:, 0]
        dist = np.hypot(traj.prey - start[0], traj.predators - start[1])
        dist /= np.linalg.norm(start)
        left = int(np.argmax(dist > 0.05))
        assert left > 0
        assert np.min(dist[left:]) < 0.01

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            simulate_lv(P, -1.0, 5.0, 1e-3, 10)
        with pytest.raises(ValueError):
            simulate_lv(P, 1.0, 5.0, 0.0, 10)
        with pytest.raises(ValueError):
            LVParams(np.nan, 0.4, 0.4, 0.1)

    def test_trajectory_is_a_series_set_written_as_before(self, tmp_path):
        traj = simulate_lv(P, 10.0, 5.0, 0.05, 200)
        assert isinstance(traj, TimeSeriesSet)
        assert traj.names == ("prey", "predators")
        assert traj.n_points == 201
        # the set the simulate command wrote before trajectories were series sets
        rebuilt = TimeSeriesSet(
            names=("prey", "predators"),
            times=traj.times,
            values=np.vstack([traj.prey, traj.predators]),
        )
        write_timeseries_csv(traj, tmp_path / "traj.csv")
        write_timeseries_csv(rebuilt, tmp_path / "rebuilt.csv")
        assert (tmp_path / "traj.csv").read_bytes() == (tmp_path / "rebuilt.csv").read_bytes()

    def test_trajectory_validation(self):
        with pytest.raises(ValueError):
            PopulationTrajectory(np.array([0.0, 1.0, 1.5]), np.ones(3), np.ones(3))
        with pytest.raises(ValueError):
            PopulationTrajectory(np.array([0.0, 1.0]), np.ones(3), np.ones(2))


class TestFit:
    def test_exact_derivatives_recover_parameters(self):
        traj = simulate_lv(P, 10.0, 5.0, 1e-2, 500)
        d_prey, d_pred = analytic_derivatives(P, traj.prey[:-1], traj.predators[:-1])
        fitted = fit_lv(traj, derivatives=(d_prey, d_pred))
        assert np.max(np.abs(fitted.as_array() - P.as_array())) < 1e-10
        assert not fitted.clamped

    def test_simulate_then_fit_round_trip(self):
        traj = simulate_lv(P, 10.0, 5.0, 1e-3, 20000)
        fitted = fit_lv(traj)
        rel = np.abs(fitted.as_array() - P.as_array()) / P.as_array()
        assert np.max(rel) < 0.02

    def test_equilibrium_trajectory_is_degenerate(self):
        r_eq, f_eq = P.gamma / P.delta, P.alpha / P.beta
        traj = simulate_lv(P, r_eq, f_eq, 1e-2, 50)
        with pytest.raises(DegenerateFitError):
            fit_lv(traj)

    def test_fit_error_shrinks_with_dt(self):
        errors = []
        for dt in (1e-1, 1e-2, 1e-3):
            traj = simulate_lv(P, 10.0, 5.0, dt, int(round(20.0 / dt)))
            fitted = fit_lv(traj)
            errors.append(np.max(np.abs(fitted.as_array() - P.as_array()) / P.as_array()))
        assert errors[0] > errors[1] > errors[2]

    def test_clamping_flags_negatives(self):
        rng = np.random.default_rng(0)
        times = 0.05 * np.arange(40)
        prey = 5.0 + rng.uniform(0.0, 0.05, 40)
        preds = 3.0 + rng.uniform(0.0, 0.05, 40)
        traj = PopulationTrajectory(times, prey, preds)
        free = fit_lv(traj)
        if np.any(free.as_array() < 0.0):
            clamped = fit_lv(traj, clamp_nonneg=True)
            assert clamped.clamped
            assert np.all(clamped.as_array() >= 0.0)

    def test_too_short_rejected(self):
        traj = PopulationTrajectory(np.array([0.0, 0.1]), np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            fit_lv(traj)


class TestPredict:
    def test_zero_steps_returns_initial_state(self):
        traj = simulate_lv(P, 4.0, 2.0, 0.1, 0)
        assert traj.n_points == 1
        assert traj.prey[0] == 4.0 and traj.predators[0] == 2.0

    def test_forecast_with_fitted_parameters(self):
        traj = simulate_lv(P, 10.0, 5.0, 1e-3, 20000)
        fitted = fit_lv(traj)
        horizon = simulate_lv(fitted, 10.0, 5.0, 1e-3, 5000)
        truth = simulate_lv(P, 10.0, 5.0, 1e-3, 5000)
        for got, ref in ((horizon.prey, truth.prey), (horizon.predators, truth.predators)):
            amplitude = ref.max() - ref.min()
            rmse = np.sqrt(np.mean((got - ref) ** 2))
            assert rmse <= 0.05 * amplitude
