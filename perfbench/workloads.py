"""Workload definitions of the ecocast benchmark.

Every workload simulates the Lotka-Volterra system with the reference rate
constants at dt = 0.05, trains on the leading 80 % of the points and keeps
the trailing 20 % for validation and the horizon.  A chain is the user-facing
command sequence ``train -> predict -> rollout -> horizon`` for one stack
configuration; a workload runs each of its chains on each of its input draws.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

DT = 0.05
SPLIT_FRACTION = 0.8
# Relative spread of the seeded initial populations around (10, 5).
JITTER = 0.02
# Seeded grid values are drawn uniformly from this range (elevation-like).
GRID_RANGE = (100.0, 300.0)


@dataclass(frozen=True)
class Chain:
    """One stack configuration and the rollout length used with it."""

    tag: str
    train_args: tuple[str, ...]
    rollout_steps: int


@dataclass(frozen=True)
class Workload:
    """Sizes and chains of one workload.

    ``grids`` lists ``(name, rows, cols)`` context maps.  ``draws`` is the
    number of independently seeded input sets; every chain runs on each.
    """

    name: str
    points: int
    grids: tuple[tuple[str, int, int], ...]
    chains: tuple[Chain, ...]
    draws: int = 1


def _stack(kind: str, bricks: int, ridge: str, *extra: str) -> tuple[str, ...]:
    return ("--brick-kind", kind, "--bricks", str(bricks), "--ridge", ridge, *extra)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="kernel-series",
            points=2001,
            grids=(),
            chains=(
                Chain("kernel", _stack("kernel", 3, "1e-6"), 400),
                Chain("kernel-tensor", _stack("kernel-tensor", 2, "1e-6"), 400),
            ),
        ),
        Workload(
            name="kernel-context",
            points=501,
            grids=(("dtm", 20, 20), ("campaign", 1, 1)),
            chains=(Chain("kernel", _stack("kernel", 3, "1e-6"), 100),),
        ),
        Workload(
            name="feature-context",
            points=1001,
            grids=(("dtm", 40, 40),),
            chains=(
                Chain("linear", _stack("linear", 1, "0"), 200),
                Chain("dsn", _stack("dsn", 3, "1e-8", "--hidden-size", "64"), 200),
                Chain(
                    "tensor",
                    _stack("tensor", 2, "1e-8", "--hidden-size-a", "8", "--hidden-size-b", "8"),
                    200,
                ),
            ),
        ),
        Workload(
            name="scale-search",
            points=301,
            grids=(("dtm", 10, 10),),
            chains=(
                Chain(
                    "kernel",
                    _stack("kernel", 2, "1e-3", "--rho-grid", "0.25,0.5,2,4"),
                    40,
                ),
            ),
            draws=6,
        ),
    )
}


def tiny(w: Workload) -> Workload:
    """The same chains at sizes that run in well under a second."""
    return replace(
        w,
        points=61,
        grids=tuple((name, min(rows, 3), min(cols, 3)) for name, rows, cols in w.grids),
        chains=tuple(replace(c, rollout_steps=10) for c in w.chains),
        draws=min(w.draws, 2),
    )


def get(name: str, size: str) -> Workload:
    w = WORKLOADS[name]
    return tiny(w) if size == "tiny" else w
