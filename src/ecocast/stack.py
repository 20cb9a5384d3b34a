"""Stacked one-step predictor.

Bricks are trained bottom-up; every brick after the first consumes the
replicated raw series, the static context, and the previous brick's output,
so the lower brick's output vector reappears verbatim as the trailing
segment of the next brick's input.  The context is the same in every
column, so a trained model records it once, and the linear, DSN and tensor
bricks fold it out: they read the series and previous-output rows only and
carry the context's contribution as a bias.  Kernel bricks read the full
layout, context rows included.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .bricks import (
    BRICK_CLASSES,
    Activation,
    Brick,
    kernel_matrix,
    merge_kernel_specs,
    train_dsn_brick,
    train_kernel_brick,
    train_kt_brick,
    train_linear_brick,
    train_tensor_brick,
    uniform_kernel_spec,
)
from .linalg import readonly, tikhonov
from .scaling import ScalingSet, adimensionalize

__all__ = [
    "BrickConfig",
    "BrickTrainingError",
    "InputSchema",
    "ParameterCounts",
    "StackedModel",
    "count_free_parameters",
    "take_training_predictions",
    "train_stack",
]


class BrickTrainingError(RuntimeError):
    """Raised when a brick-level training step fails; carries the 1-based
    brick index in ``brick_index``."""

    def __init__(self, brick_index: int, message: str) -> None:
        super().__init__(f"brick {brick_index}: {message}")
        self.brick_index = brick_index


@dataclass(frozen=True)
class InputSchema:
    """Input layout shared by every brick of a stack.

    Brick 1 sees ``(series, context)``; brick k >= 2 sees
    ``(series, context, previous_output)`` where the previous output has one
    entry per series.  Datasets are the individual series plus the context
    maps; the previous-output segment reuses the series datasets' scales.
    This is the full layout.  A brick that folds the context out reads the
    folded layout: the same rows without the context rows.
    """

    series_names: tuple[str, ...]
    context_names: tuple[str, ...] = ()
    context_sizes: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "series_names", tuple(str(n) for n in self.series_names))
        object.__setattr__(self, "context_names", tuple(str(n) for n in self.context_names))
        object.__setattr__(self, "context_sizes", tuple(int(s) for s in self.context_sizes))
        if not self.series_names:
            raise ValueError("at least one series is required")
        if len(set(self.series_names)) != len(self.series_names):
            raise ValueError("series names must be unique")
        if len(self.context_names) != len(self.context_sizes):
            raise ValueError("one name per context dataset is required")
        if any(s < 1 for s in self.context_sizes):
            raise ValueError("context datasets must have at least one entry")

    @property
    def n_series(self) -> int:
        return len(self.series_names)

    @property
    def context_total(self) -> int:
        return sum(self.context_sizes)

    @property
    def n_datasets(self) -> int:
        return self.n_series + len(self.context_sizes)

    @property
    def context_rows(self) -> slice:
        """Rows of every brick input that hold the context."""
        return slice(self.n_series, self.n_series + self.context_total)

    def split_context(self, inputs: np.ndarray, context=None) -> tuple[np.ndarray, np.ndarray]:
        """The series rows of first-brick ``inputs`` and the context vector,
        given apart or read from the full layout, whose context rows must hold
        the same value in every column."""
        if inputs.shape[0] != (self.input_dim(1) if context is None else self.n_series):
            raise ValueError(
                f"inputs have {inputs.shape[0]} rows; the schema expects {self.input_dim(1)},"
                f" or {self.n_series} with the context given apart"
            )
        if context is None:
            context = inputs[self.context_rows]
            if np.any(context != context[:, :1]):
                raise ValueError("context rows must hold the same value in every training column")
            context = context[:, 0]
        context = np.asarray(context, dtype=float).reshape(-1)
        if context.size != self.context_total:
            raise ValueError(f"the context has {context.size} entries, not {self.context_total}")
        return inputs[: self.n_series], context

    def input_dim(self, brick_index: int) -> int:
        """Full-layout input length for the given 1-based brick index."""
        if brick_index < 1:
            raise ValueError("brick indices are 1-based")
        extra = self.n_series if brick_index >= 2 else 0
        return self.n_series + self.context_total + extra

    def full_input(self, rows: np.ndarray, context: np.ndarray) -> np.ndarray:
        """Folded-layout column samples ``rows`` in the full layout: the
        ``context`` vector repeated in every column after the series rows."""
        if not context.size:
            return rows
        ns, end = self.n_series, self.n_series + context.size
        full = np.empty((rows.shape[0] + context.size, rows.shape[1]))
        full[:ns] = rows[:ns]
        full[ns:end] = context[:, None]
        full[end:] = rows[ns:]
        return full


@dataclass(frozen=True)
class BrickConfig:
    """Hyperparameters for one brick.

    ``ridge`` is the per-brick regularization: the Gram ridge for kernel
    kinds, a Tikhonov parameter on the feature solve otherwise.
    """

    kind: str = "kernel"
    ridge: float = 0.0
    hidden_size: int = 32
    hidden_size_a: int = 8
    hidden_size_b: int = 8
    activation: Activation = Activation.SIGMOID
    mode: str = "fixed-random"

    def __post_init__(self) -> None:
        if self.kind not in BRICK_CLASSES:
            raise ValueError(
                f"unknown brick kind {self.kind!r}; expected one of {tuple(BRICK_CLASSES)}"
            )
        tikhonov(self.ridge)


@dataclass(frozen=True)
class StackedModel:
    """Ordered bricks plus the input schema and optional scaling.

    When a scaling set is present, inputs are adimensionalized before the
    bricks run and the final output is mapped back to raw series units.
    ``training_abs_max`` (largest absolute raw target seen at training,
    finite and >= 0) seeds the default rollout divergence bound; ``last_training_state`` is the raw
    final training target, the natural start for held-out rollouts.
    ``context`` is the training context as the bricks see it (adimensionalized
    when a scaling set is present).  When it is recorded, every brick that
    retains training inputs holds it in each column, and predictions reject
    any other context; hand-built models may leave it out.

    A brick's ``input_dim`` says which layout of the schema it reads: the full
    layout (kernel kinds, and linear, DSN or tensor bricks of version 1 files
    or built by hand) or the folded one, whose bricks carry the context as a
    bias and so require a recorded context.  ``prepare`` readies a context
    once for many predictions; ``predict_columns`` goes through it too.
    """

    bricks: tuple[Brick, ...]
    schema: InputSchema
    scaling: ScalingSet | None = None
    training_abs_max: float | None = None
    last_training_state: np.ndarray | None = None
    context: np.ndarray | None = None

    def __post_init__(self) -> None:
        bricks = tuple(self.bricks)
        object.__setattr__(self, "bricks", bricks)
        if not bricks:
            raise ValueError("a stacked model needs at least one brick")
        ns = self.schema.n_series
        n_context = self.schema.context_total
        for k, b in enumerate(bricks, start=1):
            full = self.schema.input_dim(k)
            if b.input_dim != full:
                # only a brick that retains no inputs may read the folded layout
                if b.input_dim != full - n_context or hasattr(b, "training_inputs"):
                    raise ValueError(
                        f"brick {k} input dimension {b.input_dim} != schema layout {full}"
                    )
                if self.context is None:
                    raise ValueError(f"brick {k} folds the context out; the model must record it")
            if b.output_dim != ns:
                raise ValueError(f"brick {k} output dimension {b.output_dim} != series count {ns}")
        if self.scaling is not None and self.scaling.n_datasets != self.schema.n_datasets:
            raise ValueError("scaling set does not match the schema's dataset count")
        peak = self.training_abs_max
        if peak is not None and not (math.isfinite(peak) and peak >= 0.0):
            raise ValueError(f"training_abs_max must be finite and >= 0; got {peak}")
        if self.last_training_state is not None:
            state = readonly(self.last_training_state)
            if state.shape != (ns,):
                raise ValueError("last_training_state must have one entry per series")
            object.__setattr__(self, "last_training_state", state)
        if self.context is not None:
            context = readonly(self.context)
            if context.shape != (self.schema.context_total,):
                raise ValueError("context must have one entry per context pixel")
            rows = self.schema.context_rows
            for k, b in enumerate(bricks, start=1):
                retained = getattr(b, "training_inputs", None)
                if retained is not None and np.any(retained[rows] != context[:, None]):
                    raise ValueError(f"brick {k} training inputs do not hold the model context")
            object.__setattr__(self, "context", context)

    def prepare(self, context_values=()) -> Callable[[np.ndarray], np.ndarray]:
        """The one-step map for one context, from series columns to their
        predictions: the context is checked, scaled, compared with the
        recorded one and laid out here, once, and each call does the rest."""
        schema, scaling = self.schema, self.scaling
        ns = schema.n_series
        context = np.array(context_values, dtype=float).reshape(-1)  # a copy: it is kept
        if context.size != schema.context_total:
            raise ValueError(f"expected {schema.context_total} context entries, got {context.size}")
        if scaling is not None:
            _, context = adimensionalize(np.empty((ns, 0)), context, scaling, schema)
            # the series rows of adimensionalize, and of the output's way back
            offsets, scales = scaling.offsets[:ns, None], scaling.scales[:ns, None]
        if self.context is not None and np.any(context != self.context):
            raise ValueError("context values differ from the context the model was trained on")
        # each brick's bound apply and whether it reads the full layout
        steps = [(b.apply_columns, b.input_dim == schema.input_dim(k))
                 for k, b in enumerate(self.bricks, 1)]  # fmt: skip
        any_full = any(full_layout for _, full_layout in steps)

        def predict(series_columns) -> np.ndarray:
            series = np.asarray(series_columns, dtype=float)
            if series.ndim != 2 or series.shape[0] != ns:
                raise ValueError(f"expected {ns} series rows, got shape {series.shape}")
            x = series if scaling is None else (series - offsets) / scales
            full = schema.full_input(x, context) if any_full else None
            y = None
            for apply, full_layout in steps:
                rows = full if full_layout else x
                y = apply(rows if y is None else np.concatenate((rows, y)))
            return y if scaling is None else y * scales + offsets

        return predict

    def predict_columns(self, series_columns, context_values=()) -> np.ndarray:
        """One-step predictions for many present states at once (columns)."""
        return self.prepare(context_values)(series_columns)

    def predict_one_step(self, series_values, context_values=()) -> np.ndarray:
        """Predict the next series vector from the present one."""
        series = np.asarray(series_values, dtype=float)
        if series.ndim != 1:
            raise ValueError("series_values must be a 1-d vector")
        return self.predict_columns(series[:, None], context_values)[:, 0]


def brick_config_list(configs, n_bricks: int | None) -> list[BrickConfig]:
    """One config per brick from a single config (``n_bricks`` required) or
    from a sequence (``n_bricks``, when given, must match its length)."""
    if isinstance(configs, BrickConfig):
        if n_bricks is None:
            raise ValueError("n_bricks is required when a single config is given")
        config_list = [configs] * n_bricks
    else:
        config_list = list(configs)
        if n_bricks is not None and len(config_list) != n_bricks:
            raise ValueError(f"expected {n_bricks} brick configs, got {len(config_list)}")
    if not config_list:
        raise ValueError("n_bricks must be >= 1")
    return config_list


def _train_one(
    cfg: BrickConfig,
    inputs: np.ndarray,
    context: np.ndarray,
    targets: np.ndarray,
    schema: InputSchema,
    seed: int,
    gram: np.ndarray | None = None,
) -> tuple[Brick, np.ndarray | None]:
    """One brick on folded-layout ``inputs`` whose full layout holds
    ``context`` in every column, with the ridge-free Gram matrix of its solve
    (None for the feature kinds): the feature kinds fold the context out, the
    kernel kinds read the full layout.  ``gram`` is that matrix kept from an
    earlier fit of a dual brick on the same inputs."""
    ns = schema.n_series
    if cfg.kind == "linear":
        return train_linear_brick(inputs, targets, cfg.ridge, context=context), None
    if cfg.kind == "dsn":
        brick = train_dsn_brick(
            inputs,
            targets,
            hidden_size=cfg.hidden_size,
            activation=cfg.activation,
            mode=cfg.mode,
            cfg=cfg.ridge,
            seed=seed,
            context=context,
            context_row=ns,
        )
        return brick, None
    if cfg.kind == "tensor":
        brick = train_tensor_brick(
            inputs,
            targets,
            hidden_size_a=cfg.hidden_size_a,
            hidden_size_b=cfg.hidden_size_b,
            activation=cfg.activation,
            cfg=cfg.ridge,
            seed=seed,
            context=context,
            context_row=ns,
        )
        return brick, None
    full = schema.full_input(inputs, context)
    # the scaling set carries the distance scales: the spec is one unit segment
    spec = uniform_kernel_spec(full.shape[0])
    if gram is None:
        # a kernel-tensor brick's two kernels both have this spec
        merged = spec if cfg.kind == "kernel" else merge_kernel_specs(spec, spec)
        gram = kernel_matrix(merged, full, full)
    if cfg.kind == "kernel":
        return train_kernel_brick(full, targets, spec, cfg.ridge, gram), gram
    return train_kt_brick(full, targets, spec, spec, cfg.ridge, gram), gram


def train_stack(
    inputs,
    targets,
    schema: InputSchema,
    configs,
    n_bricks: int | None = None,
    seed: int = 0,
    scaling: ScalingSet | None = None,
    context=None,
) -> StackedModel:
    """Train bricks in order on ``(input, next-step target)`` column pairs.

    ``inputs`` columns hold the series rows and ``context`` the vector they
    share, or, without ``context``, the first-brick layout ``(series,
    context)`` with one value across all columns in each context row: the
    same bits either way.  ``targets`` columns are the raw next-step series.
    Brick k >= 2 trains on the raw input plus brick k-1's predictions over the
    training set (its own outputs, not the targets).  ``configs`` is one
    BrickConfig applied to all bricks or a sequence of per-brick configs;
    per-brick seeds derive from ``seed`` so identical calls give
    bit-identical models.
    """
    config_list = brick_config_list(configs, n_bricks)
    return _train_stack(inputs, targets, schema, config_list, seed, scaling, context=context)[0]


@dataclass(frozen=True)
class _Fit:
    """One trained brick of a stack with what reusing it takes: its config,
    the folded-layout input of the next brick (None for the last) and, for
    dual kinds kept for reuse, the ridge-free Gram matrix of the brick's own
    input."""

    cfg: BrickConfig
    brick: Brick
    next_input: np.ndarray | None
    gram: np.ndarray | None


def _train_stack(
    inputs,
    targets,
    schema: InputSchema,
    config_list: list[BrickConfig],
    seed: int,
    scaling: ScalingSet | None,
    reuse: tuple[_Fit, ...] | None = None,
    context=None,
) -> tuple[StackedModel, tuple[_Fit, ...]]:
    """:func:`train_stack` on a config list, returning the model with its
    per-brick fits; ``inputs`` and ``context`` are read as there.

    ``reuse`` is None for a one-off fit.  Otherwise it holds the fits of an
    earlier call on the same pairs, schema, seed and scaling (empty when there
    is none), and the returned fits keep their Gram matrices for later calls.
    The leading bricks whose configs are unchanged are taken as they are; the
    first brick that differs only in its ridge is re-solved from its kept
    Gram matrix; every brick from there on trains afresh.  The model is the
    same, bit for bit, as without ``reuse``.
    """
    u = np.asarray(inputs, dtype=float)
    v = np.asarray(targets, dtype=float)
    if u.ndim != 2 or v.ndim != 2 or u.shape[1] != v.shape[1]:
        raise ValueError("inputs and targets must be column-sample matrices of equal width")
    if u.shape[1] == 0:
        raise ValueError("at least one training pair is required")
    if v.shape[0] != schema.n_series:
        raise ValueError(f"targets have {v.shape[0]} rows, schema expects {schema.n_series}")

    # the series rows and the context vector, as the bricks see them
    ns = schema.n_series
    (us, c), vs = schema.split_context(u, context), v
    if scaling is not None:
        us, c = adimensionalize(us, c, scaling, schema)
        offsets, scales = scaling.offsets[:ns, None], scaling.scales[:ns, None]
        vs = (v - offsets) / scales

    earlier = reuse or ()
    n_kept = 0
    while n_kept < min(len(earlier), len(config_list)) and earlier[n_kept].cfg == config_list[n_kept]:
        n_kept += 1
    fits = list(earlier[:n_kept])
    x = fits[-1].next_input if fits else us
    for k in range(n_kept + 1, len(config_list) + 1):
        cfg = config_list[k - 1]
        # only the first changed brick still trains on its earlier input; a
        # dual brick that differs only in its ridge solves against its kept Gram
        old = earlier[k - 1] if k == n_kept + 1 and k <= len(earlier) else None
        kept = old.gram if old is not None and replace(old.cfg, ridge=cfg.ridge) == cfg else None
        try:
            brick, gram = _train_one(cfg, x, c, vs, schema, seed + k, kept)
        except Exception as exc:
            raise BrickTrainingError(k, str(exc)) from exc
        # a dual brick's outputs on its own training inputs from its Gram
        # matrix: the product that apply_columns forms, on the same bits
        y = brick.apply_columns(x) if gram is None else brick.dual_coefficients @ gram
        next_input = np.vstack([us, y]) if k < len(config_list) else None
        fits.append(_Fit(cfg, brick, next_input, gram if reuse is not None else None))
        # a one-off fit keeps no Gram matrix: drop it before the next brick
        # trains, so that two are never held at once
        del gram
        x = next_input
    model = StackedModel(
        bricks=tuple(f.brick for f in fits),
        schema=schema,
        scaling=scaling,
        training_abs_max=float(np.max(np.abs(v))),
        last_training_state=v[:, -1],
        context=c,
    )
    if reuse is None:
        model.__dict__[_PREDICTIONS_KEY] = y if scaling is None else y * scales + offsets
    return model, tuple(fits)


_PREDICTIONS_KEY = "_training_predictions"  # instance-dict key


def take_training_predictions(model: StackedModel) -> np.ndarray | None:
    """Detach the predictions over its training columns that a model fresh
    from :func:`train_stack` carries (None for other models and once taken),
    formed from the fit: the bits of ``predict_columns`` on those columns."""
    return model.__dict__.pop(_PREDICTIONS_KEY, None)


@dataclass(frozen=True)
class ParameterCounts:
    """Free-parameter and data-point bookkeeping for a stack layout."""

    n_datasets: int
    kernels_per_brick: int
    scaling_factors: int
    ridge_coefficients: int
    total_unknowns: int
    context_data_points: int
    series_data_points: int | None = None
    total_data_points: int | None = None


def count_free_parameters(
    schema: InputSchema,
    n_bricks: int,
    brick_kind: str = "kernel",
    per_brick_scaling: bool = False,
    series_length: int | None = None,
) -> ParameterCounts:
    """Count the unknowns of a stack layout and the data points constraining
    them.

    Scaling factors come one per dataset and per kernel (two kernels for the
    ``kernel-tensor`` kind, one set otherwise), replicated per brick when
    ``per_brick_scaling`` is set; each brick contributes one ridge
    coefficient.  ``series_length`` adds data-point totals: series points are
    ``n_series * series_length`` and every context pixel counts once.
    """
    if brick_kind not in BRICK_CLASSES:
        raise ValueError(f"unknown brick kind {brick_kind!r}")
    if n_bricks < 1:
        raise ValueError("n_bricks must be >= 1")
    kernels = 2 if brick_kind == "kernel-tensor" else 1
    factor_sets = n_bricks if per_brick_scaling else 1
    scaling_factors = schema.n_datasets * kernels * factor_sets
    ridge_coefficients = n_bricks
    context_points = schema.context_total
    series_points = None
    total_points = None
    if series_length is not None:
        if series_length < 1:
            raise ValueError("series_length must be >= 1")
        series_points = schema.n_series * series_length
        total_points = series_points + context_points
    return ParameterCounts(
        n_datasets=schema.n_datasets,
        kernels_per_brick=kernels,
        scaling_factors=scaling_factors,
        ridge_coefficients=ridge_coefficients,
        total_unknowns=scaling_factors + ridge_coefficients,
        context_data_points=context_points,
        series_data_points=series_points,
        total_data_points=total_points,
    )
