"""Stacked one-step predictor.

Bricks are trained bottom-up; every brick after the first consumes the
replicated raw series, the static context, and the previous brick's output,
so the lower brick's output vector reappears verbatim as the trailing
segment of the next brick's input.  The context is the same in every
column, so a trained model records it once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bricks import (
    Activation,
    Brick,
    KernelSpec,
    train_dsn_brick,
    train_kernel_brick,
    train_kt_brick,
    train_linear_brick,
    train_tensor_brick,
)
from .linalg import EXACT_SVD, InverseConfig, readonly, tikhonov
from .scaling import ScalingSet, adimensionalize

__all__ = [
    "BrickConfig",
    "BrickTrainingError",
    "InputSchema",
    "ParameterCounts",
    "StackedModel",
    "count_free_parameters",
    "train_stack",
]

_BRICK_KINDS = ("linear", "dsn", "kernel", "tensor", "kernel-tensor")


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

    def input_dim(self, brick_index: int) -> int:
        """Assembled input length for the given 1-based brick index."""
        if brick_index < 1:
            raise ValueError("brick indices are 1-based")
        extra = self.n_series if brick_index >= 2 else 0
        return self.n_series + self.context_total + extra

    def dataset_slices(
        self, brick_index: int = 1
    ) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
        """Contiguous dataset segments of the brick input, with the dataset
        index that owns each segment (the previous-output segment maps back
        to the series datasets)."""
        if brick_index < 1:
            raise ValueError("brick indices are 1-based")
        slices: list[tuple[int, int]] = []
        owners: list[int] = []
        pos = 0
        for i in range(self.n_series):
            slices.append((pos, pos + 1))
            owners.append(i)
            pos += 1
        for j, size in enumerate(self.context_sizes):
            slices.append((pos, pos + size))
            owners.append(self.n_series + j)
            pos += size
        if brick_index >= 2:
            for i in range(self.n_series):
                slices.append((pos, pos + 1))
                owners.append(i)
                pos += 1
        return tuple(slices), tuple(owners)

    def kernel_spec(self, brick_index: int, dataset_scales=None) -> KernelSpec:
        """Kernel spec over the brick's input layout.

        ``dataset_scales`` holds one distance scale per dataset (defaults to
        all ones); the previous-output segment reuses the series scales.
        """
        slices, owners = self.dataset_slices(brick_index)
        if dataset_scales is None:
            scales = np.ones(self.n_datasets)
        else:
            scales = np.asarray(dataset_scales, dtype=float)
            if scales.shape != (self.n_datasets,):
                raise ValueError(f"expected {self.n_datasets} dataset scales, got {scales.shape}")
        return KernelSpec(
            scales=tuple(float(scales[d]) for d in owners),
            slices=slices,
        )


@dataclass(frozen=True)
class BrickConfig:
    """Hyperparameters for one brick.

    ``ridge`` is the per-brick regularization: the Gram ridge for kernel
    kinds, a Tikhonov parameter on the feature solve otherwise (``inverse``
    overrides the derived solve policy).  ``kernel_scales`` (and
    ``kernel_scales_b`` for the second kernel of ``kernel-tensor``) hold one
    distance scale per dataset.
    """

    kind: str = "kernel"
    ridge: float = 0.0
    hidden_size: int = 32
    hidden_size_a: int = 8
    hidden_size_b: int = 8
    activation: Activation = Activation.SIGMOID
    mode: str = "fixed-random"
    kernel_scales: tuple[float, ...] | None = None
    kernel_scales_b: tuple[float, ...] | None = None
    inverse: InverseConfig | None = None

    def __post_init__(self) -> None:
        if self.kind not in _BRICK_KINDS:
            raise ValueError(f"unknown brick kind {self.kind!r}; expected one of {_BRICK_KINDS}")
        if not self.ridge >= 0.0:
            raise ValueError("ridge must be >= 0")

    def solve_config(self) -> InverseConfig:
        if self.inverse is not None:
            return self.inverse
        return tikhonov(self.ridge) if self.ridge > 0.0 else EXACT_SVD


@dataclass(frozen=True)
class StackedModel:
    """Ordered bricks plus the input schema and optional scaling.

    When a scaling set is present, inputs are adimensionalized before the
    bricks run and the final output is mapped back to raw series units.
    ``training_abs_max`` (largest absolute raw target seen at training) seeds
    the default rollout divergence bound; ``last_training_state`` is the raw
    final training target, the natural start for held-out rollouts.
    ``context`` is the training context as the bricks see it (adimensionalized
    when a scaling set is present).  When it is recorded, every brick that
    retains training inputs holds it in each column, and predictions reject
    any other context; hand-built models may leave it out.
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
        for k, b in enumerate(bricks, start=1):
            if b.input_dim != self.schema.input_dim(k):
                raise ValueError(
                    f"brick {k} input dimension {b.input_dim} != schema layout {self.schema.input_dim(k)}"
                )
            if b.output_dim != ns:
                raise ValueError(f"brick {k} output dimension {b.output_dim} != series count {ns}")
        if self.scaling is not None and self.scaling.n_datasets != self.schema.n_datasets:
            raise ValueError("scaling set does not match the schema's dataset count")
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

    @property
    def n_bricks(self) -> int:
        return len(self.bricks)

    def predict_columns(self, series_columns, context_values=()) -> np.ndarray:
        """One-step predictions for many present states at once (columns)."""
        series = np.asarray(series_columns, dtype=float)
        if series.ndim != 2 or series.shape[0] != self.schema.n_series:
            raise ValueError(
                f"expected {self.schema.n_series} series rows, got shape {series.shape}"
            )
        context = np.asarray(context_values, dtype=float).reshape(-1)
        if context.size != self.schema.context_total:
            raise ValueError(
                f"expected {self.schema.context_total} context entries, got {context.size}"
            )
        n = series.shape[1]
        x = np.vstack([series, np.repeat(context[:, None], n, axis=1)]) if context.size else series.copy()
        if self.scaling is not None:
            x = adimensionalize(x, self.scaling, self.schema)
        rows = self.schema.context_rows
        if self.context is not None and np.any(x[rows, :1] != self.context[:, None]):
            raise ValueError("context values differ from the context the model was trained on")
        y = self.bricks[0].apply_columns(x)
        for b in self.bricks[1:]:
            y = b.apply_columns(np.vstack([x, y]))
        if self.scaling is not None:
            ns = self.schema.n_series
            y = y * self.scaling.scales[:ns, None] + self.scaling.offsets[:ns, None]
        return y

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
    targets: np.ndarray,
    schema: InputSchema,
    brick_index: int,
    seed: int,
) -> Brick:
    if cfg.kind == "linear":
        return train_linear_brick(inputs, targets, cfg.solve_config())
    if cfg.kind == "dsn":
        return train_dsn_brick(
            inputs,
            targets,
            hidden_size=cfg.hidden_size,
            activation=cfg.activation,
            mode=cfg.mode,
            cfg=cfg.solve_config(),
            seed=seed,
        )
    if cfg.kind == "kernel":
        spec = schema.kernel_spec(brick_index, cfg.kernel_scales)
        return train_kernel_brick(inputs, targets, spec, cfg.ridge)
    if cfg.kind == "tensor":
        return train_tensor_brick(
            inputs,
            targets,
            hidden_size_a=cfg.hidden_size_a,
            hidden_size_b=cfg.hidden_size_b,
            activation=cfg.activation,
            cfg=cfg.solve_config(),
            seed=seed,
        )
    spec_a = schema.kernel_spec(brick_index, cfg.kernel_scales)
    spec_b = schema.kernel_spec(brick_index, cfg.kernel_scales_b)
    return train_kt_brick(inputs, targets, spec_a, spec_b, cfg.ridge)


def train_stack(
    inputs,
    targets,
    schema: InputSchema,
    configs,
    n_bricks: int | None = None,
    seed: int = 0,
    scaling: ScalingSet | None = None,
) -> StackedModel:
    """Train bricks in order on ``(input, next-step target)`` column pairs.

    ``inputs`` columns follow the first-brick layout ``(series, context)``;
    ``targets`` columns are the raw next-step series.  Brick k >= 2 trains on
    the raw input plus brick k-1's predictions over the training set (its own
    outputs, not the targets).  The context rows must hold one value across
    all columns; the model records that context once.  ``configs`` is one
    BrickConfig applied to all bricks or a sequence of per-brick configs;
    per-brick seeds derive from ``seed`` so identical calls give
    bit-identical models.
    """
    u = np.asarray(inputs, dtype=float)
    v = np.asarray(targets, dtype=float)
    if u.ndim != 2 or v.ndim != 2 or u.shape[1] != v.shape[1]:
        raise ValueError("inputs and targets must be column-sample matrices of equal width")
    if u.shape[1] == 0:
        raise ValueError("at least one training pair is required")
    if u.shape[0] != schema.input_dim(1):
        raise ValueError(f"inputs have {u.shape[0]} rows, schema expects {schema.input_dim(1)}")
    if v.shape[0] != schema.n_series:
        raise ValueError(f"targets have {v.shape[0]} rows, schema expects {schema.n_series}")
    context = u[schema.context_rows]
    if np.any(context != context[:, :1]):
        raise ValueError("context rows must hold the same value in every training column")
    config_list = brick_config_list(configs, n_bricks)

    if scaling is not None:
        us = adimensionalize(u, scaling, schema)
        ns = schema.n_series
        vs = (v - scaling.offsets[:ns, None]) / scaling.scales[:ns, None]
    else:
        us, vs = u, v

    bricks: list[Brick] = []
    x = us
    for k, cfg in enumerate(config_list, start=1):
        try:
            brick = _train_one(cfg, x, vs, schema, k, seed + k)
        except Exception as exc:
            raise BrickTrainingError(k, str(exc)) from exc
        bricks.append(brick)
        if k < len(config_list):
            x = np.vstack([us, brick.apply_columns(x)])
    return StackedModel(
        bricks=tuple(bricks),
        schema=schema,
        scaling=scaling,
        training_abs_max=float(np.max(np.abs(v))),
        last_training_state=v[:, -1],
        context=us[schema.context_rows, 0],
    )


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
    if brick_kind not in _BRICK_KINDS:
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
