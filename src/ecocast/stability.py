"""Rollout stability analysis.

A trained one-step predictor is iterated on its own output (context held
fixed) and scored against a held-out suffix of the observed series; the
reliability horizon is the first step whose normalized error exceeds the
unreliability threshold.  For single-brick linear models the spectral radius
of the series-to-series block is the matching analytic diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bricks import LinearBrick
from .datasets import TimeSeriesSet
from .linalg import SpectralEstimate, readonly, spectral_radius

__all__ = [
    "RolloutResult",
    "StabilityReport",
    "estimate_horizon",
    "linear_stability",
    "rollout",
    "split_train_validate",
]


@dataclass(frozen=True)
class RolloutResult:
    """Self-fed prediction run.

    ``predictions`` holds one column per completed step; ``errors`` (present
    when a reference was supplied) is the per-step RMSE across series, with
    length ``min(completed steps, reference length)``.  The run ended at step
    ``stopped_at`` (1-based) for ``stop_reason``: ``completed``, ``non-finite``
    (that prediction is dropped) or ``bound`` (its magnitude exceeded the
    divergence bound; it is kept).  ``diverged`` means one of the last two.
    """

    predictions: np.ndarray
    errors: np.ndarray | None
    stop_reason: str
    stopped_at: int
    steps_requested: int

    @property
    def steps_completed(self) -> int:
        return self.predictions.shape[1]

    @property
    def diverged(self) -> bool:
        return self.stop_reason != "completed"


def rollout(
    model,
    start,
    context_values=(),
    steps: int = 1,
    reference=None,
    bound: float | None = None,
) -> RolloutResult:
    """Iterate the one-step predictor from ``start``, feeding each prediction
    back as the next input with the context held fixed.

    ``model.prepare`` checks, scales and lays out the context once; each step
    predicts one column with what it returns.  The default divergence bound
    is 1e6 times the model's largest absolute training value (falling back to
    the start vector's scale for hand-built models without training metadata);
    an explicit ``bound`` must be positive, and ``inf`` turns the check off.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if bound is not None and not bound > 0.0:
        raise ValueError("bound must be positive")
    x = np.asarray(start, dtype=float)
    if x.ndim != 1 or not np.all(np.isfinite(x)):
        raise ValueError("start must be a finite 1-d series vector")
    if bound is None:
        base = getattr(model, "training_abs_max", None)
        if base is None or not base > 0.0:
            base = max(1.0, float(np.max(np.abs(x))))
        bound = 1e6 * float(base)
    predict = model.prepare(context_values)
    preds = []
    reason = "completed"
    for step in range(1, steps + 1):
        y = predict(x[:, None])[:, 0]
        peak = float(np.abs(y).max())  # NaN or inf exactly when y is not finite
        if not peak < np.inf:
            reason = "non-finite"
            break
        preds.append(y)
        if peak > bound:
            reason = "bound"
            break
        x = y
    predictions = np.array(preds).T if preds else np.empty((x.size, 0))
    errors = None
    if reference is not None:
        ref = np.asarray(reference, dtype=float)
        if ref.ndim != 2 or ref.shape[0] != predictions.shape[0]:
            raise ValueError("reference must be a series matrix with one row per series")
        span = min(predictions.shape[1], ref.shape[1])
        diff = predictions[:, :span] - ref[:, :span]
        errors = np.sqrt(np.mean(diff * diff, axis=0))
    return RolloutResult(predictions, errors, reason, step, steps)


def split_train_validate(ts: TimeSeriesSet, fraction: float) -> tuple[TimeSeriesSet, TimeSeriesSet]:
    """Consecutive (unshuffled) split; the leading ``fraction`` of the points
    is the training segment.  Both parts must keep at least 2 points."""
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must be in (0, 1)")
    n_train = int(round(ts.n_points * fraction))
    if n_train < 2 or ts.n_points - n_train < 2:
        raise ValueError(
            f"fraction {fraction} leaves a segment with fewer than 2 of {ts.n_points} points"
        )
    return ts.window(0, n_train), ts.window(n_train, ts.n_points)


@dataclass(frozen=True)
class StabilityReport:
    """Reliability-horizon report.

    ``horizon`` is the first rollout step whose normalized error exceeds
    ``epsilon``.  When none does, it is the step at which a diverged rollout
    stopped (a non-finite prediction is dropped, so no error scores that
    step), else the validation length.  ``rollout`` is the run it was read
    from.  ``spectral_radius`` is present only for single-brick linear
    models.
    """

    horizon: int
    error_curve: np.ndarray
    epsilon: float
    rollout: RolloutResult
    spectral_radius: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "error_curve", readonly(self.error_curve))


def linear_stability(model) -> SpectralEstimate | None:
    """Spectral radius of the series-to-series block of a single-brick linear
    model; None for stacked or nonlinear models.

    The context does not enter: a folded brick carries it as a bias, and
    the context columns of a full-width one are left out.  Any scaling acts
    as a diagonal similarity on the series block, so the radius is the
    raw-unit iteration rate either way.
    """
    bricks = getattr(model, "bricks", None)
    if not bricks or len(bricks) != 1 or not isinstance(bricks[0], LinearBrick):
        return None
    ns = model.schema.n_series
    block = bricks[0].matrix[:, :ns]
    return spectral_radius(block)


def estimate_horizon(
    model,
    validation: TimeSeriesSet,
    context_values=(),
    epsilon: float = 0.2,
    start=None,
) -> StabilityReport:
    """Reliability horizon of the model on a held-out suffix.

    The model rolls out from the final training state (stored on the model,
    or passed explicitly via ``start``) across the validation window; the
    rollout never reads validation values, which enter only the error score.
    Each step is scored as the RMS over series of the error divided by that
    series' validation standard deviation, and the horizon is the first step
    whose score exceeds ``epsilon``.  ``epsilon = inf`` means "never", i.e.
    the full validation length.
    """
    if not epsilon > 0.0:
        raise ValueError("epsilon must be positive")
    if validation.n_points < 2:
        raise ValueError("validation needs at least 2 points")
    if start is None:
        start = getattr(model, "last_training_state", None)
        if start is None:
            raise ValueError("model records no final training state; pass start explicitly")
    ref = validation.values
    result = rollout(model, start, context_values, steps=validation.n_points)
    if ref.shape[0] != result.predictions.shape[0]:
        raise ValueError("validation must hold one series per model series")
    sigma = np.std(ref, axis=1)
    sigma[sigma <= 0.0] = 1.0
    span = result.steps_completed
    diff = (result.predictions[:, :span] - ref[:, :span]) / sigma[:, None]
    curve = np.sqrt(np.mean(diff * diff, axis=0))
    exceeded = np.nonzero(curve > epsilon)[0]
    if exceeded.size:
        horizon = int(exceeded[0]) + 1
    elif result.diverged:
        horizon = result.stopped_at
    else:
        horizon = validation.n_points
    estimate = linear_stability(model)
    return StabilityReport(
        horizon=horizon,
        error_curve=curve,
        epsilon=float(epsilon),
        rollout=result,
        spectral_radius=None if estimate is None else estimate.radius,
    )
