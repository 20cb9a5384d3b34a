"""Data model for the forecasting pipeline: named time series with a uniform
cadence, static context maps ("almost-constant parameters"), training-pair
construction, default adimensionalization, the pointwise soil-loss map
product, and the derivative-free scale search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .linalg import NonFiniteError, readonly
from .scaling import ScalingSet
from .stack import BrickTrainingError, InputSchema, _train_stack, brick_config_list

__all__ = [
    "ContextMap",
    "ScalingSearchResult",
    "TimeSeriesSet",
    "build_training_pairs",
    "cadence_break",
    "default_scaling",
    "flatten_context",
    "optimize_scaling",
    "training_schema",
    "usle_soil_loss",
]

# Relative spacing jitter tolerated on a time axis.
_UNIFORM_RTOL = 1e-9

# Sweeps after which the scale search stops, converged or not.
_MAX_PASSES = 20


def cadence_break(times: np.ndarray) -> int | None:
    """Index of the first step of ``times`` that breaks the uniform cadence
    its first step sets, or None: every step must lie within ``_UNIFORM_RTOL``
    of the first, relative, and the first must be positive (else 0)."""
    steps = np.diff(times)
    if steps.size == 0:
        return None
    dt = steps[0]
    if dt <= 0.0:
        return 0
    off = np.flatnonzero(np.abs(steps - dt) > _UNIFORM_RTOL * abs(dt))
    return int(off[0]) if off.size else None


@dataclass(frozen=True)
class TimeSeriesSet:
    """Named series sharing one uniformly sampled time axis.

    ``values`` has shape (n_series, n_points); ``epoch`` records the calendar
    date of time zero when the set was ingested from dated files.  Missing
    values are resolved at ingestion, so all values are finite here.
    """

    names: tuple[str, ...]
    times: np.ndarray
    values: np.ndarray
    epoch: str | None = None

    def __post_init__(self) -> None:
        names = tuple(str(n) for n in self.names)
        object.__setattr__(self, "names", names)
        times = readonly(self.times)
        values = readonly(self.values)
        if not names:
            raise ValueError("at least one series is required")
        if len(set(names)) != len(names):
            raise ValueError("series names must be unique")
        for n in names:  # each name must read back from a CSV header as it is
            if not n or n != n.strip() or any(ch in n for ch in ',"\n\r'):
                raise ValueError(
                    f"invalid series name {n!r}: a CSV header cannot carry surrounding "
                    "whitespace, a comma, a double quote or a line break"
                )
        if times.ndim != 1 or times.size == 0:
            raise ValueError("times must be a nonempty 1-d array")
        if not np.all(np.isfinite(times)):
            raise ValueError("times must be finite")
        if values.shape != (len(names), times.size):
            raise ValueError(
                f"values must have shape (n_series, n_points) = ({len(names)}, {times.size})"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("series values must be finite (resolve missing values at ingestion)")
        if cadence_break(times) is not None:
            raise ValueError("times must be strictly increasing with uniform cadence")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @property
    def n_series(self) -> int:
        return len(self.names)

    @property
    def n_points(self) -> int:
        return self.times.size

    @property
    def dt(self) -> float:
        if self.n_points < 2:
            raise ValueError("dt is undefined for a single time point")
        return float(self.times[1] - self.times[0])

    def series(self, name: str) -> np.ndarray:
        return self.values[self.names.index(name)]

    def window(self, start: int, stop: int) -> "TimeSeriesSet":
        """Consecutive sub-range [start, stop) with the same names."""
        if not 0 <= start < stop <= self.n_points:
            raise ValueError(f"invalid window [{start}, {stop}) for {self.n_points} points")
        return TimeSeriesSet(
            names=self.names,
            times=self.times[start:stop],
            values=self.values[:, start:stop],
            epoch=self.epoch,
        )


@dataclass(frozen=True)
class ContextMap:
    """Static 2-d raster; row 0 is the northernmost row.

    Cells equal to ``nodata_value`` are missing; they must be resolved (by an
    ingestion fill policy) before the map can feed brick inputs.
    """

    name: str
    values: np.ndarray
    cell_size: float = 1.0
    x_origin: float = 0.0
    y_origin: float = 0.0
    nodata_value: float | None = None

    def __post_init__(self) -> None:
        values = readonly(self.values)
        if values.ndim != 2 or values.size == 0:
            raise ValueError("map values must be a nonempty 2-d array")
        if not np.all(np.isfinite(values)):
            raise ValueError("map values must be finite")
        if not self.cell_size > 0.0:
            raise ValueError("cell_size must be positive")
        if not self.name:
            raise ValueError("maps must be named")
        object.__setattr__(self, "values", values)

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]

    @property
    def pixel_count(self) -> int:
        return self.values.size

    def nodata_mask(self) -> np.ndarray:
        if self.nodata_value is None:
            return np.zeros(self.values.shape, dtype=bool)
        return self.values == self.nodata_value

    def has_nodata(self) -> bool:
        return bool(self.nodata_mask().any())

    def grid_signature(self) -> tuple:
        return (self.n_rows, self.n_cols, self.cell_size, self.x_origin, self.y_origin)


def flatten_context(maps) -> np.ndarray:
    """Row-major concatenation of map pixels, in map order."""
    parts = []
    for m in maps:
        if m.has_nodata():
            raise ValueError(f"map {m.name!r} has unresolved nodata cells")
        parts.append(m.values.ravel())
    return np.concatenate(parts) if parts else np.empty(0)


def training_schema(ts: TimeSeriesSet, maps=()) -> InputSchema:
    """The input schema of ``ts``'s series with ``maps`` as the context."""
    return InputSchema(
        series_names=ts.names,
        context_names=tuple(m.name for m in maps),
        context_sizes=tuple(m.pixel_count for m in maps),
    )


def build_training_pairs(
    ts: TimeSeriesSet, maps=()
) -> tuple[np.ndarray, np.ndarray, InputSchema]:
    """Supervised one-step pairs: column j is ``(T(t_j), context)`` with
    target ``T(t_{j+1})``; N time points give N - 1 pairs.  Without maps
    the columns hold the series rows only."""
    if ts.n_points < 2:
        raise ValueError("at least 2 time points are required to form pairs")
    maps = tuple(maps)
    context = flatten_context(maps)
    ns = ts.n_series
    inputs = np.empty((ns + context.size, ts.n_points - 1))
    inputs[:ns] = ts.values[:, :-1]
    inputs[ns:] = context[:, None]
    targets = np.array(ts.values[:, 1:])
    return inputs, targets, training_schema(ts, maps)


def default_scaling(ts: TimeSeriesSet, maps=()) -> ScalingSet:
    """Unit-variance initialization measured per series and per map: offset =
    mean and scale = standard deviation, with scale 1 for a constant one."""
    segments = list(ts.values)
    for m in maps:
        if m.has_nodata():
            raise ValueError(f"map {m.name!r} has unresolved nodata cells")
        segments.append(m.values)
    offsets = []
    scales = []
    for seg in segments:
        offsets.append(float(np.mean(seg)))
        sd = float(np.std(seg))
        scales.append(sd if sd > 0.0 else 1.0)
    return ScalingSet(offsets=np.array(offsets), scales=np.array(scales))


def usle_soil_loss(
    rainfall: ContextMap,
    erodibility: ContextMap,
    slope: ContextMap,
    cover: ContextMap,
    practice: ContextMap,
) -> ContextMap:
    """Pointwise product of the five factor maps, named soil-loss; nodata propagates."""
    maps = (rainfall, erodibility, slope, cover, practice)
    base = maps[0]
    for m in maps[1:]:
        if m.grid_signature() != base.grid_signature():
            raise ValueError(
                f"factor map {m.name!r} grid does not match {base.name!r}"
            )
    mask = np.zeros(base.values.shape, dtype=bool)
    for m in maps:
        mask |= m.nodata_mask()
    product = maps[0].values * maps[1].values * maps[2].values * maps[3].values * maps[4].values
    nodata = next((m.nodata_value for m in maps if m.nodata_value is not None), None)
    if mask.any():
        product = np.array(product)
        product[mask] = nodata
    return ContextMap(
        name="soil-loss",
        values=product,
        cell_size=base.cell_size,
        x_origin=base.x_origin,
        y_origin=base.y_origin,
        nodata_value=nodata,
    )


@dataclass(frozen=True)
class ScalingSearchResult:
    """Outcome of the coordinate-descent scale search.  ``passes`` counts the
    sweeps over all coordinates; ``converged`` is False when the search
    stopped at ``_MAX_PASSES`` sweeps with the last sweep still improving;
    ``rejected`` counts the evaluations that scored +inf because training met
    non-finite values or the validation loss was not finite."""

    scaling: ScalingSet
    ridges: tuple[float, ...]
    loss_trace: tuple[float, ...]
    evaluations: int
    passes: int
    converged: bool
    rejected: int


def _steps(current: float, grid: tuple[float, ...]) -> list[float]:
    """The grid multiples of ``current`` worth trying: those that differ from
    it and are positive and finite."""
    return [c for c in (current * g for g in grid) if c != current and 0.0 < c < math.inf]


def optimize_scaling(
    inputs,
    targets,
    schema: InputSchema,
    configs,
    grid,
    split_fraction: float = 0.8,
    n_bricks: int | None = None,
    seed: int = 0,
    *,
    initial: ScalingSet,
    context=None,
) -> ScalingSearchResult:
    """Coordinate descent over one point: the per-dataset scales in schema
    order, then the per-brick ridges.

    ``inputs`` and ``context`` are read as :func:`~ecocast.stack.train_stack`
    reads them, and the context is checked once, before anything trains.
    Pairs are split consecutively; each candidate is a stack trained on the
    leading split and scored by one-step RMSE on the trailing split
    (per-series, normalized by the training-segment standard deviation so
    candidates are comparable).  Each coordinate sweeps the multiplicative
    ``grid``, whose multipliers must be distinct; only strict improvements
    are accepted and passes repeat until a full sweep accepts nothing.  The
    search starts from the ``initial`` scaling and the configs' ridges; the
    loss trace starts at that point and is non-increasing by construction.

    A scale candidate retrains the whole stack.  A ridge candidate for brick
    k reuses the accepted point's bricks 1..k-1 and re-solves brick k from
    its kept Gram matrix (dual kinds) before training the bricks above; a
    candidate scored before returns its stored loss.  Both give the bits of
    a full retrain, and every candidate counts in ``evaluations``.

    A multiple that overflows to infinity or underflows to zero is never
    tried.  A candidate whose training meets non-finite values, or whose
    validation loss is not finite, scores +inf and counts in ``rejected``;
    the initial point, scored once before the sweep, raises instead.
    """
    grid = tuple(float(g) for g in grid)
    if not grid:
        raise ValueError("the candidate grid must not be empty")
    if not all(0.0 < g < math.inf for g in grid):
        raise ValueError(f"scale-search grid multipliers must be positive and finite; got {grid}")
    if len(set(grid)) != len(grid):
        raise ValueError(f"scale-search grid multipliers must be distinct; got {grid}")
    u = np.asarray(inputs, dtype=float)
    v = np.asarray(targets, dtype=float)
    if u.ndim != 2 or v.ndim != 2 or u.shape[1] != v.shape[1]:
        raise ValueError("inputs and targets must be column-sample matrices of equal width")
    n = u.shape[1]
    if not 0.0 < split_fraction < 1.0:
        raise ValueError("split_fraction must be in (0, 1)")
    n_train = int(round(n * split_fraction))
    if n_train < 1 or n - n_train < 1:
        raise ValueError("the split leaves an empty training or validation part")
    # every candidate trains on the series rows and this context
    series, c = schema.split_context(u, context)
    u_train, u_val = series[:, :n_train], series[:, n_train:]
    v_train, v_val = v[:, :n_train], v[:, n_train:]
    config_list = brick_config_list(configs, n_bricks)
    nd = initial.n_datasets
    norm = np.std(v_train, axis=1)
    norm[norm <= 0.0] = 1.0

    def train(point: tuple, reuse: tuple) -> tuple[float, tuple]:
        """The validation loss and brick fits of the stack at ``point``."""
        scaling = ScalingSet(offsets=initial.offsets, scales=np.array(point[:nd]))
        cfgs = [replace(cfg, ridge=r) for cfg, r in zip(config_list, point[nd:])]
        model, fits = _train_stack(u_train, v_train, schema, cfgs, seed, scaling, reuse, c)
        err = (model.predict_columns(u_val, c) - v_val) / norm[:, None]
        return float(np.sqrt(np.mean(err * err))), fits

    point = (*initial.scales.tolist(), *(cfg.ridge for cfg in config_list))
    best, accepted = train(point, ())
    if not math.isfinite(best):
        raise ValueError(f"the initial scaling gives a non-finite validation loss ({best})")
    trace, scored = [best], {point: best}
    evaluations, rejected, passes, converged = 1, 0, 0, False
    while passes < _MAX_PASSES and not converged:
        passes += 1
        converged = True
        for i in range(len(point)):
            for x in _steps(point[i], grid):
                cand = (*point[:i], x, *point[i + 1:])
                evaluations += 1
                # Only the accepted point's fits outlive a candidate, and a
                # candidate scored before never beats the best loss, so an
                # accepted candidate comes with its fits.
                loss, fits = scored.get(cand), ()
                if loss is None:
                    try:  # a ridge candidate reuses the accepted fits
                        loss, fits = train(cand, accepted if i >= nd else ())
                    except BrickTrainingError as exc:
                        if not isinstance(exc.__cause__, NonFiniteError):
                            raise
                        loss = math.inf
                    if not math.isfinite(loss):
                        loss, fits = math.inf, ()
                    scored[cand] = loss
                rejected += loss == math.inf
                if loss < best:
                    best, point, accepted = loss, cand, fits
                    trace.append(best)
                    converged = False
    return ScalingSearchResult(
        scaling=ScalingSet(offsets=initial.offsets, scales=np.array(point[:nd])),
        ridges=point[nd:],
        loss_trace=tuple(trace),
        evaluations=evaluations,
        passes=passes,
        converged=converged,
        rejected=rejected,
    )
