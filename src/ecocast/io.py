"""File formats: time-series CSV, ASCII-grid rasters, and JSON model files.

The CSV and grid writers emit numbers in shortest round-trip decimal form,
and model files store arrays as their raw float64 bytes, so every
write-read-write cycle is byte-identical and reloaded values are bit-exact.
"""

from __future__ import annotations

import base64
import csv
import json
import math
from dataclasses import fields
from datetime import datetime

import numpy as np

from .bricks import BRICK_CLASSES, Activation, KernelSpec, fold_context
from .datasets import ContextMap, TimeSeriesSet, cadence_break
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
MODEL_VERSION = 4


def _fmt(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# time-series CSV: header "t,<name>,...", one row per time point


def write_timeseries_csv(ts: TimeSeriesSet, path) -> None:
    table = np.column_stack([ts.times, ts.values.T]).tolist()
    with open(path, "w", newline="") as fh:
        fh.write("t," + ",".join(ts.names) + "\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in table)


def _parse_time_cell(cell: str, row: int):
    """A time cell is a finite real number or an ISO-8601 date/datetime."""
    try:
        t = float(cell)
    except ValueError:
        pass
    else:
        if not math.isfinite(t):
            raise ValueError(f"row {row}: time stamp {cell!r} is not finite")
        return t, None
    try:
        return None, datetime.fromisoformat(cell)
    except ValueError:
        raise ValueError(f"row {row}: cannot parse time value {cell!r}") from None


def _parse_cells(rows: list[list[str]], names: list[str], interpolate: bool = False):
    """Times, values and epoch of the data rows, parsed cell by cell: blank
    cells become NaN, and the first bad cell in file order (unparsable, a
    time stamp that is not finite, an infinite value or, without
    ``interpolate``, a missing one) is named in the error."""
    header = rows[0]
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
            try:
                values[i, j] = float(cell) if cell else np.nan
            except ValueError:
                raise ValueError(
                    f"row {line_no}: cannot parse value {cell!r} for series {names[i]!r}"
                ) from None
            if math.isinf(values[i, j]):
                raise ValueError(
                    f"row {line_no}: value {cell!r} for series {names[i]!r} is not finite"
                )
            if math.isnan(values[i, j]) and not interpolate:
                raise ValueError(f"row {line_no}: missing value (pass interpolate to gap-fill)")
    epoch = None
    if any(d is not None for d in dates):
        if not all(d is not None for d in dates):
            raise ValueError("time column mixes dates and plain numbers")
        first = dates[0]
        epoch = first.isoformat()
        times = np.array([(d - first).total_seconds() / 86400.0 for d in dates])
    return times, values, epoch


def _reject_repeated_times(rows: list[list[str]], times: np.ndarray, order: np.ndarray) -> None:
    """Raise naming the first row that repeats an earlier row's time stamp,
    and that earlier row; ``order`` is the stable argsort of ``times``."""
    repeats = np.nonzero(np.diff(times[order]) == 0.0)[0]
    if repeats.size:
        k = repeats[np.argmin(order[repeats + 1])]
        earlier, later = int(order[k]) + 2, int(order[k + 1]) + 2  # file row numbers
        stamp = rows[later - 1][0].strip()
        raise ValueError(f"rows {earlier} and {later}: repeated time stamp {stamp!r}")


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
    non-uniform times are resampled onto a uniform grid.  A time stamp that
    is not finite and an infinite value cell are errors either way, and the
    first bad cell in file order is named.
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
    try:
        # numpy parses each str cell exactly as float() does
        table = np.array(rows[1:], dtype=float)
    except ValueError:  # ragged rows, blank cells, dates or bad cells
        table = None
    if table is not None and table.shape[1] == len(header) and np.isfinite(table).all():
        times, values, epoch = table[:, 0], table[:, 1:].T, None
    else:  # the cell-by-cell reader names the first bad cell
        times, values, epoch = _parse_cells(rows, names, interpolate)

    if n_points >= 2 and np.any(np.diff(times) <= 0.0):
        order = np.argsort(times, kind="stable")
        _reject_repeated_times(rows, times, order)
        if interpolate:
            # gap-filling interpolates over the time axis, which must be sorted
            times, values = times[order], values[:, order]

    if interpolate and np.isnan(values).any():
        for i in range(len(names)):
            values[i] = _interpolate_missing(values[i], times, names[i])

    broken = cadence_break(times)
    if broken is not None:
        if not interpolate:
            raise ValueError(f"row {broken + 3}: non-uniform cadence (pass interpolate to resample)")
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
    nodata = cmap.nodata_value
    if nodata is None:  # a marker that no cell holds, so every cell reads back
        nodata = _DEFAULT_NODATA
        while np.any(cmap.values == nodata):
            nodata -= 1.0
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
        fh.writelines(" ".join(map(repr, row)) + "\n" for row in cmap.values.tolist())


def _parse_grid_cells(data_lines: list[str], n_cols: int, nodata: float) -> np.ndarray:
    """The cell table parsed cell by cell, naming the first data row that
    cannot be read or holds a non-finite value other than ``nodata``."""
    values = np.empty((len(data_lines), n_cols))
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
            if not (math.isfinite(values[i, j]) or values[i, j] == nodata):
                raise ValueError(f"non-finite cell {cell!r} on data row {i + 1}")
    return values


def read_ascii_grid(path, nodata_fill=None) -> ContextMap:
    """Parse a six-header-line ASCII grid (row 1 northernmost).

    Header keys must appear in order (case-insensitive): ncols, nrows,
    xllcorner, yllcorner, cellsize, NODATA_value.  Cells equal to the nodata
    marker are an error unless ``nodata_fill`` resolves them: ``"mean"``
    fills with the mean of the valid cells, a number fills with that value.
    The map is named after the file stem.
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
    try:
        values = np.array([ln.split() for ln in data_lines], dtype=float)
    except ValueError:  # ragged rows or bad cells
        values = None
    if (values is None or values.shape != (n_rows, n_cols)
            or not (np.isfinite(values) | (values == nodata)).all()):
        values = _parse_grid_cells(data_lines, n_cols, nodata)  # names the first bad cell

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
    return ContextMap(
        name=_stem(path),
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
# model file: compact, sorted-key, versioned JSON, each field coded by its
# annotation (``_encode``).  Versions 3 and 4 store every array as a payload
# object {"f8": <base64 of its raw little-endian float64 bytes>, "shape": [...]};
# version 2 held the same arrays as nested decimal lists; all of them finite.
# Versions 2-4 store the model's context once, at the top level, and each
# brick that retains training inputs without their context rows; loading puts
# them back bit for bit.  Version 4 linear, DSN and tensor bricks store the
# weights of their non-context rows and the bias that the context adds; in
# versions 2 and 3 they hold full-width weights, which are folded on load into
# those weights and bias.  Version 1 files (indented decimal lists, full
# retained inputs, no top-level context) still load: their context is read
# from column 0 of the first brick that retains inputs, and their feature
# bricks fold only when one does.  Saving always writes version 4.


def _finite(a: np.ndarray) -> np.ndarray:
    if not np.isfinite(a).all():
        raise ValueError("array values must be finite")
    return a


def _array_doc(a: np.ndarray) -> dict:
    a = _finite(np.ascontiguousarray(a, dtype="<f8"))
    return {"f8": base64.b64encode(a.tobytes()).decode("ascii"), "shape": list(a.shape)}


def _array_from(value) -> np.ndarray:
    """Inverse of ``_array_doc`` (a read-only view of the decoded bytes); the
    nested decimal lists of format versions 1 and 2 are read as well.  The
    payload is checked as outside input."""
    if isinstance(value, list):
        return _finite(np.array(value, dtype=float))
    if not isinstance(value, dict) or set(value) != {"f8", "shape"}:
        raise ValueError("expected an array payload with exactly the keys 'f8' and 'shape'")
    shape = value["shape"]
    if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)):
        raise ValueError(f"shape must be a list of non-negative integers, got {shape!r}")
    try:
        raw = base64.b64decode(value["f8"], validate=True)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"invalid base64 payload ({exc})") from None
    need = 8 * math.prod(shape)
    if len(raw) != need:
        raise ValueError(f"payload holds {len(raw)} bytes, shape {shape} needs {need}")
    return _finite(np.frombuffer(raw, dtype="<f8").reshape(shape))


# the classes a model file holds as objects of their fields
_OBJECTS = {cls.__name__: cls for cls in (InputSchema, KernelSpec, ScalingSet)}
# the kinds a model file holds as a JSON value of another kind
_DECODERS = {"np.ndarray": _array_from, "Activation": Activation}
# model-file key of a field, where it differs from the field name
_KEYS = {"spec": "kernel", "spec_a": "kernel_a", "spec_b": "kernel_b"}


def _encode(value, annotation: str):
    """``value`` as the model file holds a field annotated ``annotation``:
    arrays as payloads, ``_OBJECTS`` as objects of their fields, an
    ``Activation`` by its value, floats as floats, tuples as lists, None and
    anything else as it is."""
    kind = annotation.removesuffix(" | None")
    if value is None:
        return None
    if kind == "np.ndarray":
        return _array_doc(value)
    if kind in _OBJECTS:
        return {f.name: _encode(getattr(value, f.name), f.type) for f in fields(value)}
    if kind == "Activation":
        return value.value
    if kind == "float":
        return float(value)
    return list(value) if kind.startswith("tuple[") else value


def _decoded(decode, value, where: str):
    """``decode(value)``, with any ValueError or TypeError raised as a
    ValueError naming where in the model file it arose."""
    try:
        return decode(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"model file {where}: {exc}") from None


# the JSON types a scalar field takes, and their name; a boolean is no number
_SCALARS = {"float": ((int, float), "a number"), "int": ((int,), "an integer"),
            "str": ((str,), "a string"), "bool": ((bool,), "a boolean")}


def _typed(value, kind: str):
    """``value`` as a field annotated ``kind`` holds it, once its JSON type is
    that of ``kind``: a scalar by ``_SCALARS`` (a float as a float), a tuple
    from a list whose elements follow their own annotations (any number for
    ``tuple[X, ...]``, one per annotation otherwise); other kinds as they are."""
    if kind in _SCALARS:
        types, name = _SCALARS[kind]
        if not isinstance(value, types) or (kind != "bool" and type(value) is bool):
            raise ValueError(f"expected {name}, got {value!r}")
        return float(value) if kind == "float" else value
    if not kind.startswith("tuple["):
        return value
    if not isinstance(value, list):
        raise ValueError(f"expected a list, got {value!r}")
    inner = kind[len("tuple[") : -1]
    items = [inner[: -len(", ...")]] * len(value) if inner.endswith(", ...") else inner.split(", ")
    if len(value) != len(items):
        raise ValueError(f"expected a list of {len(items)}, got {value!r}")
    return tuple(map(_typed, value, items))


def _decode(value, annotation: str, part: str, path: str):
    """Inverse of ``_encode`` for the field at ``path`` (dotted if nested) of
    the file's ``part`` ("" or "brick 2 "), naming it in errors; each value's
    JSON type is checked against its annotation, none is converted to fit."""
    kind = annotation.removesuffix(" | None")
    if value is None and kind != annotation:
        return None
    if kind in _OBJECTS:
        cls = _OBJECTS[kind]
        decode, value = (lambda kw: cls(**kw)), _fields_from(cls, value, part, f"{path}.")
    else:
        decode = _DECODERS.get(kind, lambda v: _typed(v, kind))
    return _decoded(decode, value, f"{part}field {path!r}")


def _fields_from(cls, doc, part: str, path: str = "", may_lack=()) -> dict:
    """The init fields of ``cls`` decoded from the object ``doc`` (one that is
    not an object lacks them all); only the keys in ``may_lack`` may be absent."""
    doc, kwargs = doc if isinstance(doc, dict) else {}, {}
    for f in fields(cls):
        key = _KEYS.get(f.name, f.name)
        if f.init and key in doc:
            kwargs[f.name] = _decode(doc[key], f.type, part, path + key)
        elif f.init and key not in may_lack:
            raise ValueError(f"model file {part}field {path + key!r} is missing")
    return kwargs


def _brick_dict(brick, context_rows: slice | None) -> dict:
    """One entry per brick field; fields holding None are left out, and
    retained training inputs leave out ``context_rows`` when given."""
    d = {}
    for f in fields(brick):
        value = getattr(brick, f.name)
        if f.name == "training_inputs" and context_rows is not None:
            value = np.delete(value, context_rows, axis=0)
        if value is not None:
            d[_KEYS.get(f.name, f.name)] = _encode(value, f.type)
    return d


def _brick_from(d, index: int, schema: InputSchema, context: np.ndarray | None):
    """Inverse of ``_brick_dict`` for the ``index``-th (1-based) brick: a
    recorded ``context`` is put back into every column of the retained
    training inputs."""
    part = f"brick {index} "
    if not isinstance(d, dict) or "kind" not in d:
        raise ValueError(f"model file {part}field 'kind' is missing")
    cls = BRICK_CLASSES.get(d["kind"]) if isinstance(d["kind"], str) else None
    if cls is None:
        raise ValueError(f"model file {part}field 'kind': unknown brick kind {d['kind']!r}")
    optional = [_KEYS.get(f.name, f.name) for f in fields(cls) if f.type.endswith(" | None")]

    def build(kw: dict):
        if context is not None and np.ndim(kw.get("training_inputs")) == 2:
            kw["training_inputs"] = schema.full_input(kw["training_inputs"], context)
        return cls(**kw)

    return _decoded(build, _fields_from(cls, d, part, may_lack=optional), f"brick {index}")


def model_to_json(model: StackedModel) -> str:
    rows = None if model.context is None else model.schema.context_rows
    doc = {f.name: _encode(getattr(model, f.name), f.type) for f in fields(model)}
    doc.update(format=MODEL_FORMAT, format_version=MODEL_VERSION)
    doc["bricks"] = [_brick_dict(b, rows) for b in model.bricks]  # brick by brick
    return json.dumps(doc, separators=(",", ":"), sort_keys=True, allow_nan=False) + "\n"


def model_from_json(text: str) -> StackedModel:
    doc = json.loads(text)
    form = doc.get("format") if isinstance(doc, dict) else None
    if form != MODEL_FORMAT:
        raise ValueError(f"not a model file (format {form!r})")
    version = doc.get("format_version")
    if type(version) is not int or version not in (1, 2, 3, MODEL_VERSION):
        raise ValueError(f"unsupported model format version {version!r}")
    kwargs = _fields_from(StackedModel, doc, "", may_lack=("context",))
    schema, context = kwargs["schema"], kwargs.get("context")
    bricks = [_brick_from(b, k, schema, context) for k, b in enumerate(kwargs["bricks"], start=1)]
    if version == 1:  # the context is column 0 of the first retained training inputs
        retained = [b.training_inputs for b in bricks if hasattr(b, "training_inputs")]
        context = retained[0][schema.context_rows, 0] if retained else None
    if version < MODEL_VERSION and context is not None:
        bricks = [fold_context(b, context, schema.n_series) for b in bricks]
    return StackedModel(**{**kwargs, "bricks": bricks, "context": context})


def save_model(model: StackedModel, path) -> None:
    """Write ``model`` to ``path``; a model that JSON cannot carry raises
    before the file is opened, so an existing file keeps its bytes."""
    text = model_to_json(model)
    with open(path, "w", newline="") as fh:
        fh.write(text)


def load_model(path) -> StackedModel:
    with open(path) as fh:
        return model_from_json(fh.read())
