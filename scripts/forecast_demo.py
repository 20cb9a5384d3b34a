"""End-to-end demo on synthetic data: a two-species trajectory plus one
static context map, stacked predictors of every brick kind, and the
reliability horizon of each on the held-out suffix.  Each model is also
saved and loaded back, and rolled out across the suffix; the script exits
with status 1 unless every reloaded model predicts bit for bit as the trained
one and every rollout, which prepares the context once, gives the bits of a
plain ``predict_one_step`` loop.

Usage: python scripts/forecast_demo.py [--points 400] [--bricks 3] [--epsilon 0.2]
"""

import argparse
import sys
import tempfile
from pathlib import Path

import numpy as np

from ecocast.bricks import Activation
from ecocast.datasets import ContextMap, TimeSeriesSet, build_training_pairs, default_scaling
from ecocast.io import load_model, save_model
from ecocast.lotka import REFERENCE_PARAMS, simulate_lv
from ecocast.stack import BrickConfig, train_stack
from ecocast.stability import estimate_horizon, rollout, split_train_validate


def make_dataset(points: int, dt: float) -> tuple[TimeSeriesSet, ContextMap]:
    ts = simulate_lv(REFERENCE_PARAMS, 10.0, 5.0, dt, points - 1)
    rng = np.random.default_rng(0)
    dtm = ContextMap(name="dtm", values=rng.uniform(0.0, 400.0, (10, 10)), cell_size=100.0)
    return ts, dtm


def reloads_identically(model, path: Path, series_columns, context) -> bool:
    """Whether ``model``, saved to ``path`` and loaded back, predicts the same
    bits on ``series_columns``."""
    save_model(model, path)
    back = load_model(path)
    return bool(
        np.array_equal(back.predict_columns(series_columns, context),
                       model.predict_columns(series_columns, context))
    )


def rollout_matches_one_step_loop(model, start, context, steps: int) -> bool:
    """Whether ``rollout`` gives the bits of a ``predict_one_step`` loop."""
    result = rollout(model, start, context, steps=steps)
    x, loop = start, []
    for _ in range(result.steps_completed):
        x = model.predict_one_step(x, context)
        loop.append(x)
    return result.predictions.tobytes() == np.array(loop).T.tobytes()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=400)
    parser.add_argument("--dt", type=float, default=0.05)
    parser.add_argument("--bricks", type=int, default=3)
    parser.add_argument("--epsilon", type=float, default=0.2)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    ts, dtm = make_dataset(args.points, args.dt)
    train_ts, val_ts = split_train_validate(ts, 0.8)
    inputs, targets, schema = build_training_pairs(train_ts, [dtm])
    scaling = default_scaling(train_ts, [dtm])
    context = dtm.values.ravel()
    print(
        f"{ts.n_points} points, {train_ts.n_points}/{val_ts.n_points} split, "
        f"{schema.input_dim(2)} entries per higher-brick input"
    )

    configs = {
        "linear": BrickConfig(kind="linear"),
        "dsn": BrickConfig(kind="dsn", hidden_size=40, ridge=1e-8, activation=Activation.SIGMOID),
        "kernel": BrickConfig(kind="kernel", ridge=1e-6),
        "tensor": BrickConfig(kind="tensor", hidden_size_a=8, hidden_size_b=8, ridge=1e-8),
        "kernel-tensor": BrickConfig(kind="kernel-tensor", ridge=1e-6),
    }
    print(f"\n{'stack':<16}{'train rmse':>12}{'val rmse':>12}{'horizon':>9}{'radius':>9}"
          f"{'reload':>8}{'rollout':>9}")
    mismatched, unstepped = [], []
    with tempfile.TemporaryDirectory() as workdir:
        for label, cfg in configs.items():
            n_bricks = 1 if label == "linear" else args.bricks
            model = train_stack(
                inputs, targets, schema, cfg, n_bricks=n_bricks, seed=args.seed, scaling=scaling
            )
            pred = model.predict_columns(inputs[: schema.n_series], context)
            train_rmse = float(np.sqrt(np.mean((pred - targets) ** 2)))
            val_in, val_t, _ = build_training_pairs(val_ts, [dtm])
            val_pred = model.predict_columns(val_in[: schema.n_series], context)
            val_rmse = float(np.sqrt(np.mean((val_pred - val_t) ** 2)))
            report = estimate_horizon(model, val_ts, context, epsilon=args.epsilon)
            radius = "-" if report.spectral_radius is None else f"{report.spectral_radius:.3f}"
            series = np.hstack([inputs[: schema.n_series], val_in[: schema.n_series]])
            same = reloads_identically(model, Path(workdir) / f"{label}.json", series, context)
            if not same:
                mismatched.append(label)
            stepped = rollout_matches_one_step_loop(
                model, train_ts.values[:, -1], context, val_ts.n_points
            )
            if not stepped:
                unstepped.append(label)
            print(
                f"{label:<16}{train_rmse:>12.3e}{val_rmse:>12.3e}"
                f"{report.horizon:>6}/{val_ts.n_points:<3}{radius:>8}"
                f"{'same' if same else 'DIFFERS':>8}{'same' if stepped else 'DIFFERS':>9}"
            )
    if mismatched:
        print(f"reloaded models predict differently: {', '.join(mismatched)}", file=sys.stderr)
    if unstepped:
        print(f"rollouts differ from the one-step loop: {', '.join(unstepped)}", file=sys.stderr)
    if mismatched or unstepped:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
