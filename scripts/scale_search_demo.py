"""Coordinate-descent scale search on a deliberately mis-scaled dataset:
one series' distance scale starts 100x too wide, and the search walks the
validation loss back down.

Usage: python scripts/scale_search_demo.py [--grid 0.01,0.1,1,10]
"""

import argparse

import numpy as np

from ecocast.datasets import build_training_pairs, default_scaling, optimize_scaling
from ecocast.lotka import REFERENCE_PARAMS, simulate_lv
from ecocast.stack import BrickConfig


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--grid", default="0.01,0.1,1,10")
    parser.add_argument("--points", type=int, default=120)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    grid = tuple(float(g) for g in args.grid.split(","))

    traj = simulate_lv(REFERENCE_PARAMS, 10.0, 5.0, 0.05, args.points - 1)
    inputs, targets, schema = build_training_pairs(traj)
    initial = default_scaling(traj)
    broken = initial.with_scale(0, float(initial.scales[0]) * 100.0)
    print("initial scales:", np.round(broken.scales, 4))

    result = optimize_scaling(
        inputs,
        targets,
        schema,
        BrickConfig(kind="kernel", ridge=1e-3),
        grid=grid,
        split_fraction=0.75,
        n_bricks=1,
        seed=args.seed,
        initial=broken,
    )
    print("optimized scales:", np.round(result.scaling.scales, 4))
    print("ridges:", result.ridges)
    state = "converged" if result.converged else "stopped at the pass limit"
    print(f"{result.evaluations} evaluations in {result.passes} passes ({state}), loss trace:")
    for i, loss in enumerate(result.loss_trace):
        print(f"  {i:>3}  {loss:.6e}")


if __name__ == "__main__":
    main()
