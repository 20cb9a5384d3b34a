"""File formats: time-series CSV, ASCII-grid rasters, and JSON model files.

All writers emit numbers in shortest round-trip decimal form, so a
write-read-write cycle is byte-identical and reloaded values are bit-exact.
"""

from __future__ import annotations

import csv
import json
from dataclasses import fields
from datetime import datetime

import numpy as np

from .bricks import (
    Activation,
    DSNBrick,
    KernelBrick,
    KernelSpec,
    KernelTensorBrick,
    LinearBrick,
    TensorBrick,
)
from .datasets import _UNIFORM_RTOL, ContextMap, TimeSeriesSet
from .scaling import ScalingSet
from .stack import InputSchema, StackedModel

__all__ = [
    "load_model",
    "read_ascii_grid",
    "read_timeseries_csv",
    "save_model",
    "write_ascii_grid",
    "write_timeseries_csv",
]

MODEL_FORMAT = "ecocast-stacked-model"
MODEL_VERSION = 1


def _fmt(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# time-series CSV: header "t,<name>,...", one row per time point


def write_timeseries_csv(ts: TimeSeriesSet, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("t," + ",".join(ts.names) + "\n")
        for j in range(ts.n_points):
            cells = [_fmt(ts.times[j])] + [_fmt(v) for v in ts.values[:, j]]
            fh.write(",".join(cells) + "\n")


def _parse_time_cell(cell: str, row: int):
    """A time cell is a real number or an ISO-8601 date/datetime."""
    try:
        return float(cell), None
    except ValueError:
        pass
    try:
        return None, datetime.fromisoformat(cell)
    except ValueError:
        raise ValueError(f"row {row}: cannot parse time value {cell!r}") from None


def _interpolate_missing(values: np.ndarray, times: np.ndarray, name: str) -> np.ndarray:
    good = np.isfinite(values)
    if good.all():
        return values
    if not good[0] or not good[-1]:
        raise ValueError(f"series {name!r} is missing its first or last value; cannot interpolate")
    return np.interp(times, times[good], values[good])


def read_timeseries_csv(path, interpolate: bool = False) -> TimeSeriesSet:
    """Parse a header-first CSV time series.

    The first column is the time axis (real numbers or ISO-8601 dates, which
    become days since the first date with that date recorded as the epoch).
    Without ``interpolate``, missing cells and non-uniform cadence are errors
    naming the offending row; with it, gaps are filled linearly and
    non-uniform times are resampled onto a uniform grid.
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows = [r for r in rows if r]
    if not rows:
        raise ValueError("empty file: a header row is required")
    header = rows[0]
    if len(header) < 2:
        raise ValueError("header must name a time column and at least one series")
    names = [h.strip() for h in header[1:]]
    if len(set(names)) != len(names):
        raise ValueError("duplicate series names in header")
    if len(rows) < 2:
        raise ValueError("at least one data row is required")
    n_points = len(rows) - 1
    times = np.empty(n_points)
    dates: list[datetime | None] = []
    values = np.empty((len(names), n_points))
    for j, row in enumerate(rows[1:]):
        line_no = j + 2
        if len(row) != len(header):
            raise ValueError(f"row {line_no}: expected {len(header)} fields, got {len(row)}")
        num, date = _parse_time_cell(row[0].strip(), line_no)
        dates.append(date)
        times[j] = np.nan if num is None else num
        for i, cell in enumerate(row[1:]):
            cell = cell.strip()
            if cell == "":
                values[i, j] = np.nan
            else:
                try:
                    values[i, j] = float(cell)
                except ValueError:
                    raise ValueError(
                        f"row {line_no}: cannot parse value {cell!r} for series {names[i]!r}"
                    ) from None
    epoch = None
    if any(d is not None for d in dates):
        if not all(d is not None for d in dates):
            raise ValueError("time column mixes dates and plain numbers")
        first = dates[0]
        epoch = first.isoformat()
        times = np.array([(d - first).total_seconds() / 86400.0 for d in dates])

    if interpolate and n_points >= 2 and np.any(np.diff(times) <= 0.0):
        # gap-filling interpolates over the time axis, which must be sorted
        order = np.argsort(times, kind="stable")
        times, values = times[order], values[:, order]

    if np.isnan(values).any():
        if not interpolate:
            bad = int(np.where(np.isnan(values).any(axis=0))[0][0])
            raise ValueError(f"row {bad + 2}: missing value (pass interpolate to gap-fill)")
        for i in range(len(names)):
            values[i] = _interpolate_missing(values[i], times, names[i])

    if n_points >= 2:
        steps = np.diff(times)
        dt = steps[0]
        bad = dt <= 0.0 or np.any(np.abs(steps - dt) > _UNIFORM_RTOL * abs(dt))
        if bad and not interpolate:
            if dt <= 0.0:
                row = 3
            else:
                row = int(np.nonzero(np.abs(steps - dt) > _UNIFORM_RTOL * abs(dt))[0][0]) + 3
            raise ValueError(f"row {row}: non-uniform cadence (pass interpolate to resample)")
        if bad:
            uniform = np.linspace(times[0], times[-1], n_points)
            values = np.vstack([np.interp(uniform, times, values[i]) for i in range(len(names))])
            times = uniform

    return TimeSeriesSet(names=tuple(names), times=times, values=values, epoch=epoch)


# ---------------------------------------------------------------------------
# ESRI-style ASCII grid


_GRID_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value")
_GRID_LABELS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "NODATA_value")
_DEFAULT_NODATA = -9999.0


def write_ascii_grid(cmap: ContextMap, path) -> None:
    nodata = cmap.nodata_value if cmap.nodata_value is not None else _DEFAULT_NODATA
    header_values = (
        str(cmap.n_cols),
        str(cmap.n_rows),
        _fmt(cmap.x_origin),
        _fmt(cmap.y_origin),
        _fmt(cmap.cell_size),
        _fmt(nodata),
    )
    with open(path, "w", newline="") as fh:
        for label, value in zip(_GRID_LABELS, header_values):
            fh.write(f"{label} {value}\n")
        for row in cmap.values:
            fh.write(" ".join(_fmt(v) for v in row) + "\n")


def read_ascii_grid(path, nodata_fill=None, name: str | None = None) -> ContextMap:
    """Parse a six-header-line ASCII grid (row 1 northernmost).

    Header keys must appear in order (case-insensitive): ncols, nrows,
    xllcorner, yllcorner, cellsize, NODATA_value.  Cells equal to the nodata
    marker are an error unless ``nodata_fill`` resolves them: ``"mean"``
    fills with the mean of the valid cells, a number fills with that value.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    if len(lines) < 6:
        raise ValueError("grid header must have six lines")
    header = {}
    for expected, line in zip(_GRID_KEYS, lines[:6]):
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"malformed header line {line!r}")
        key, value = parts
        if key.lower() != expected:
            raise ValueError(f"expected header key {expected!r}, got {key!r}")
        header[expected] = value
    try:
        n_cols = int(header["ncols"])
        n_rows = int(header["nrows"])
    except ValueError:
        raise ValueError("ncols and nrows must be integers") from None
    try:
        x_origin = float(header["xllcorner"])
        y_origin = float(header["yllcorner"])
        cell_size = float(header["cellsize"])
        nodata = float(header["nodata_value"])
    except ValueError:
        raise ValueError("grid header values must be numeric") from None
    if n_cols < 1 or n_rows < 1:
        raise ValueError("grid dimensions must be positive")

    data_lines = [ln for ln in lines[6:] if ln.strip()]
    if len(data_lines) != n_rows:
        raise ValueError(f"cell count mismatch: expected {n_rows} data rows, got {len(data_lines)}")
    values = np.empty((n_rows, n_cols))
    for i, line in enumerate(data_lines):
        cells = line.split()
        if len(cells) != n_cols:
            raise ValueError(
                f"cell count mismatch on data row {i + 1}: expected {n_cols}, got {len(cells)}"
            )
        for j, cell in enumerate(cells):
            try:
                values[i, j] = float(cell)
            except ValueError:
                raise ValueError(f"non-numeric cell {cell!r} on data row {i + 1}") from None

    mask = values == nodata
    nodata_value: float | None = nodata
    if mask.any():
        if nodata_fill is None:
            raise ValueError(
                "grid contains NODATA cells; pass nodata_fill='mean' or a constant to resolve them"
            )
        if nodata_fill == "mean":
            if mask.all():
                raise ValueError("grid has no valid cells to average for mean-fill")
            values[mask] = values[~mask].mean()
        else:
            values[mask] = float(nodata_fill)
        nodata_value = None  # resolved; the marker no longer labels any cell
    map_name = name if name is not None else _stem(path)
    return ContextMap(
        name=map_name,
        values=values,
        cell_size=cell_size,
        x_origin=x_origin,
        y_origin=y_origin,
        nodata_value=nodata_value,
    )


def _stem(path) -> str:
    text = str(path)
    base = text.replace("\\", "/").rsplit("/", 1)[-1]
    return base.rsplit(".", 1)[0] if "." in base else base


# ---------------------------------------------------------------------------
# model file: versioned JSON, kernel bricks keep their training inputs


def _spec_dict(spec: KernelSpec) -> dict:
    return {"scales": list(spec.scales), "slices": [list(s) for s in spec.slices]}


def _spec_from(d: dict) -> KernelSpec:
    return KernelSpec(scales=d["scales"], slices=d["slices"])


_BRICK_CLASSES = {
    cls.kind: cls for cls in (LinearBrick, DSNBrick, KernelBrick, TensorBrick, KernelTensorBrick)
}

# model-file key of a brick field, where it differs from the field name
_KEYS = {"spec": "kernel", "spec_a": "kernel_a", "spec_b": "kernel_b"}

# (to JSON, from JSON) per annotated field type; other fields are stored as is
_PLAIN = (lambda v: v, lambda v: v)
_CODECS = {
    "np.ndarray": (lambda a: a.tolist(), lambda v: np.array(v, dtype=float)),
    "KernelSpec": (_spec_dict, _spec_from),
    "Activation": (lambda a: a.value, Activation),
    "float": (float, float),
    "tuple[float, ...] | None": (list, tuple),
}


def _brick_dict(brick) -> dict:
    """One entry per brick field; fields holding None are left out."""
    d = {}
    for f in fields(brick):
        value = getattr(brick, f.name)
        if value is not None:
            d[_KEYS.get(f.name, f.name)] = _CODECS.get(f.type, _PLAIN)[0](value)
    return d


def _brick_from(d: dict):
    cls = _BRICK_CLASSES.get(d["kind"])
    if cls is None:
        raise ValueError(f"unknown brick kind {d['kind']!r} in model file")
    kwargs = {}
    for f in fields(cls):
        key = _KEYS.get(f.name, f.name)
        if f.init and key in d:
            kwargs[f.name] = _CODECS.get(f.type, _PLAIN)[1](d[key])
    return cls(**kwargs)


def model_to_json(model: StackedModel) -> str:
    doc = {
        "format": MODEL_FORMAT,
        "format_version": MODEL_VERSION,
        "schema": {
            "series_names": list(model.schema.series_names),
            "context_names": list(model.schema.context_names),
            "context_sizes": list(model.schema.context_sizes),
        },
        "scaling": None
        if model.scaling is None
        else {
            "offsets": [float(v) for v in model.scaling.offsets],
            "scales": [float(v) for v in model.scaling.scales],
        },
        "training_abs_max": None
        if model.training_abs_max is None
        else float(model.training_abs_max),
        "last_training_state": None
        if model.last_training_state is None
        else [float(v) for v in model.last_training_state],
        "bricks": [_brick_dict(b) for b in model.bricks],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def model_from_json(text: str) -> StackedModel:
    doc = json.loads(text)
    if doc.get("format") != MODEL_FORMAT:
        raise ValueError(f"not a model file (format {doc.get('format')!r})")
    if doc.get("format_version") != MODEL_VERSION:
        raise ValueError(f"unsupported model format version {doc.get('format_version')!r}")
    schema = InputSchema(
        series_names=tuple(doc["schema"]["series_names"]),
        context_names=tuple(doc["schema"]["context_names"]),
        context_sizes=tuple(doc["schema"]["context_sizes"]),
    )
    scaling = None
    if doc["scaling"] is not None:
        scaling = ScalingSet(
            offsets=np.array(doc["scaling"]["offsets"], dtype=float),
            scales=np.array(doc["scaling"]["scales"], dtype=float),
        )
    state = doc["last_training_state"]
    return StackedModel(
        bricks=tuple(_brick_from(b) for b in doc["bricks"]),
        schema=schema,
        scaling=scaling,
        training_abs_max=doc["training_abs_max"],
        last_training_state=None if state is None else np.array(state, dtype=float),
    )


def save_model(model: StackedModel, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(model_to_json(model))


def load_model(path) -> StackedModel:
    with open(path) as fh:
        return model_from_json(fh.read())
