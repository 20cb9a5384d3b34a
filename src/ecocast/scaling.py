"""Per-dataset adimensionalization.

Every input dataset (each named series, each context map) carries an offset
and a positive scale factor; transforming ``(x - offset) / scale`` per
dataset makes all brick inputs dimensionless, and the same factors double as
the Gaussian-kernel distance scales.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import readonly

__all__ = ["ScalingSet", "adimensionalize"]


@dataclass(frozen=True)
class ScalingSet:
    """One ``(offset, scale)`` pair per dataset, in schema order
    (series first, then context maps)."""

    offsets: np.ndarray
    scales: np.ndarray

    def __post_init__(self) -> None:
        offsets = readonly(self.offsets)
        scales = readonly(self.scales)
        if offsets.ndim != 1 or scales.shape != offsets.shape:
            raise ValueError("offsets and scales must be 1-d arrays of equal length")
        if not np.all(np.isfinite(offsets)):
            raise ValueError("offsets must be finite")
        if not np.all(np.isfinite(scales) & (scales > 0.0)):
            raise ValueError("all scale factors must be positive and finite")
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "scales", scales)

    @property
    def n_datasets(self) -> int:
        return self.offsets.size

    def with_scale(self, dataset_index: int, scale: float) -> "ScalingSet":
        scales = np.array(self.scales)
        scales[dataset_index] = scale
        return ScalingSet(offsets=self.offsets, scales=scales)


def adimensionalize(series, context, scaling: ScalingSet, schema):
    """Per-dataset ``(x_d - offset_d) / scale_d`` of the first-brick layout,
    given as its series rows (column samples) and the context vector that
    every column holds; returns the two scaled apart."""
    if scaling.n_datasets != schema.n_datasets:
        raise ValueError("scaling set does not match the schema's dataset count")
    ns = schema.n_series
    series = np.asarray(series, dtype=float)
    context = np.asarray(context, dtype=float)
    offsets = np.repeat(scaling.offsets[ns:], schema.context_sizes)
    scales = np.repeat(scaling.scales[ns:], schema.context_sizes)
    return (
        (series - scaling.offsets[:ns, None]) / scaling.scales[:ns, None],
        (context - offsets) / scales,
    )
