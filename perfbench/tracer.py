"""Spans around calls into ecocast's public functions and methods.

The tracer wraps module functions and class methods of the installed
``ecocast`` package at run time; the package's source is not modified.  A
span records its name, start, end, parent span, the run id and the group
(set-up or one repetition) it belongs to, plus counts computed at the
boundary from argument and result shapes.  Spans stay in memory and are
written once, at the end of the run.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict

BRICK_KINDS = ("linear", "dsn", "kernel", "tensor", "kernel-tensor")


# -- counts computed from shapes ("computed": derived, not measured) --------


def _kernel_matrix_counts(args, kwargs, result):
    # kernel_matrix(spec, a, b): column samples a (d x na), b (d x nb).
    # Flops: the cross product 2*d*na*nb plus about 4 per output entry
    # (norm sums, subtraction, clamp, exp counted as one).  Bytes: both
    # inputs read once and the output written once, in float64.
    a, b = args[1], args[2]
    d, na = a.shape
    nb = b.shape[1]
    return {
        "flops": 2 * d * na * nb + 4 * na * nb,
        "bytes": 8 * (d * na + d * nb + na * nb),
    }


def _pseudo_inverse_counts(args, kwargs, result):
    # Thin SVD of an m x n matrix (m >= n) by the R-SVD count 6mn^2 + 20n^3
    # (Golub and Van Loan, table 8.6.1), plus 2mn^2 to form V diag(f) U^T.
    m, n = max(args[0].shape), min(args[0].shape)
    return {"flops": 6 * m * n * n + 20 * n**3 + 2 * m * n * n}


def _training_pairs_counts(args, kwargs, result):
    inputs, targets, schema = result
    return {
        "bytes": inputs.nbytes + targets.nbytes,
        "input_bytes": inputs.nbytes,
        "context_bytes": schema.context_total * inputs.shape[1] * inputs.itemsize,
    }


def _save_model_counts(args, kwargs, result):
    model, path = args[0], args[1]
    retained = sum(
        b.training_inputs.nbytes for b in model.bricks if hasattr(b, "training_inputs")
    )
    return {"model_bytes": os.path.getsize(path), "retained_bytes": retained}


def _optimize_scaling_counts(args, kwargs, result):
    return {"evaluations": result.evaluations, "accepted": len(result.loss_trace) - 1}


def _spectral_radius_counts(args, kwargs, result):
    return {"iterations": result.iterations_used}


def _rollout_counts(args, kwargs, result):
    return {"steps_completed": result.steps_completed, "steps_requested": result.steps_requested}


# (module, attribute, span name, counter); attribute "Class.method" wraps a method.
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("io", "save_model", "io.save_model", _save_model_counts),
    ("io", "load_model", "io.load_model", None),
    ("io", "read_timeseries_csv", "io.read_timeseries_csv", None),
    ("io", "read_ascii_grid", "io.read_ascii_grid", None),
    ("io", "write_timeseries_csv", "io.write_timeseries_csv", None),
    ("datasets", "build_training_pairs", "datasets.build_training_pairs", _training_pairs_counts),
    ("datasets", "default_scaling", "datasets.default_scaling", None),
    ("datasets", "optimize_scaling", "datasets.optimize_scaling", _optimize_scaling_counts),
    ("scaling", "adimensionalize", "scaling.adimensionalize", None),
    ("stack", "train_stack", "stack.train_stack", None),
    ("stack", "StackedModel.predict_columns", "stack.predict_columns", None),
    ("bricks", "train_linear_brick", "bricks.train.linear", None),
    ("bricks", "train_dsn_brick", "bricks.train.dsn", None),
    ("bricks", "train_kernel_brick", "bricks.train.kernel", None),
    ("bricks", "train_tensor_brick", "bricks.train.tensor", None),
    ("bricks", "train_kt_brick", "bricks.train.kernel-tensor", None),
    ("bricks", "LinearBrick.apply_columns", "bricks.apply.linear", None),
    ("bricks", "DSNBrick.apply_columns", "bricks.apply.dsn", None),
    ("bricks", "KernelBrick.apply_columns", "bricks.apply.kernel", None),
    ("bricks", "TensorBrick.apply_columns", "bricks.apply.tensor", None),
    ("bricks", "KernelTensorBrick.apply_columns", "bricks.apply.kernel-tensor", None),
    ("bricks", "kernel_matrix", "bricks.kernel_matrix", _kernel_matrix_counts),
    ("bricks", "KernelSpec.scale", "bricks.KernelSpec.scale", None),
    ("linalg", "pseudo_inverse", "linalg.pseudo_inverse", _pseudo_inverse_counts),
    ("linalg", "spectral_radius", "linalg.spectral_radius", _spectral_radius_counts),
    ("stability", "rollout", "stability.rollout", _rollout_counts),
    ("stability", "estimate_horizon", "stability.estimate_horizon", None),
    ("lotka", "simulate_lv", "lotka.simulate_lv", None),
)


class Tracer:
    """In-memory span recorder that patches ecocast while installed."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.group = "setup"
        # (span id, parent id, name, start, end, group, counts)
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._wrappers: dict[int, object] = {}
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, counter):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span_id = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)  # reserve the id; children append after it
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span_id] = (span_id, parent, name, start, end, self.group, None)
            if counter is not None:
                counts = counter(args, kwargs, result)
                spans[span_id] = spans[span_id][:6] + (counts,)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrapper(self, fn, name: str, counter):
        """One wrapper per original, reused across installs."""
        if id(fn) not in self._wrappers:
            self._wrappers[id(fn)] = self._wrap(fn, name, counter)
        return self._wrappers[id(fn)]

    def install(self) -> None:
        """Replace every reference to a target inside the ecocast package."""
        modules = [m for n, m in sys.modules.items() if n == "ecocast" or n.startswith("ecocast.")]
        for module_name, attr, name, counter in TARGETS:
            owner = sys.modules[f"ecocast.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._restore.append((cls, method, original))
                setattr(cls, method, self._wrapper(original, name, counter))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrapper(original, name, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "fields": SPAN_FIELDS, "spans": self.spans}, fh)


SPAN_FIELDS = ("id", "parent", "name", "start", "end", "group", "counts")


def group_totals(spans, group: str) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive and self seconds, and summed counts."""
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s[5] == group and s[1] is not None:
            child_time[s[1]] += s[4] - s[3]
    totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s in spans:
        if s[5] != group:
            continue
        t = totals[s[2]]
        t["calls"] += 1
        t["incl_s"] += s[4] - s[3]
        t["self_s"] += s[4] - s[3] - child_time[s[0]]
        for key, value in (s[6] or {}).items():
            t[key] += value
    return totals


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(totals, setup_totals) -> dict[str, float]:
    """Per-layer metrics of one traced repetition (times are self times)."""

    def get(name: str, key: str) -> float:
        return totals[name][key] if name in totals else 0.0

    m: dict[str, float] = {}
    for name in (
        "io.save_model",
        "io.load_model",
        "io.read_timeseries_csv",
        "io.read_ascii_grid",
        "io.write_timeseries_csv",
        "datasets.build_training_pairs",
        "datasets.default_scaling",
        "datasets.optimize_scaling",
        "scaling.adimensionalize",
        "stack.train_stack",
        "stack.predict_columns",
        "bricks.kernel_matrix",
        "bricks.KernelSpec.scale",
        "linalg.pseudo_inverse",
        "linalg.spectral_radius",
        "stability.estimate_horizon",
    ):
        m[f"{name}.s"] = get(name, "self_s")
    for kind in BRICK_KINDS:
        m[f"bricks.train.{kind}.s"] = get(f"bricks.train.{kind}", "self_s")
        m[f"bricks.apply.{kind}.s"] = get(f"bricks.apply.{kind}", "self_s")
    for name in ("scaling.adimensionalize", "stack.train_stack", "stack.predict_columns",
                 "bricks.kernel_matrix", "linalg.pseudo_inverse"):
        m[f"{name}.calls"] = get(name, "calls")
    m["io.model_bytes"] = get("io.save_model", "model_bytes")
    m["bricks.retained_bytes"] = get("io.save_model", "retained_bytes")
    m["datasets.build_training_pairs.bytes"] = get("datasets.build_training_pairs", "bytes")
    m["datasets.context_share"] = _ratio(
        get("datasets.build_training_pairs", "context_bytes"),
        get("datasets.build_training_pairs", "input_bytes"),
    )
    evaluations = get("datasets.optimize_scaling", "evaluations")
    m["datasets.optimize_scaling.evaluations"] = evaluations
    m["datasets.optimize_scaling.eval_ms"] = 1e3 * _ratio(
        get("datasets.optimize_scaling", "incl_s"), evaluations
    )
    # the first evaluation scores the start point; only the rest can be accepted
    m["datasets.optimize_scaling.accept_ratio"] = _ratio(
        get("datasets.optimize_scaling", "accepted"),
        evaluations - get("datasets.optimize_scaling", "calls"),
    )
    m["stack.predict_columns.ms_per_call"] = 1e3 * _ratio(
        get("stack.predict_columns", "incl_s"), get("stack.predict_columns", "calls")
    )
    m["bricks.kernel_matrix.flops"] = get("bricks.kernel_matrix", "flops")
    m["bricks.kernel_matrix.bytes"] = get("bricks.kernel_matrix", "bytes")
    m["linalg.pseudo_inverse.flops"] = get("linalg.pseudo_inverse", "flops")
    m["linalg.spectral_radius.iterations"] = get("linalg.spectral_radius", "iterations")
    completed = get("stability.rollout", "steps_completed")
    m["stability.rollout.step_ms"] = 1e3 * _ratio(get("stability.rollout", "incl_s"), completed)
    m["stability.rollout.completed_ratio"] = _ratio(
        completed, get("stability.rollout", "steps_requested")
    )
    m["cli.self_s"] = get("cli.main", "self_s")
    m["lotka.simulate_lv.s"] = (
        setup_totals["lotka.simulate_lv"]["self_s"] if "lotka.simulate_lv" in setup_totals else 0.0
    )
    return m


def _unit(name: str) -> tuple[str, str]:
    if name.endswith((".calls", ".evaluations", ".iterations")):
        return "count", "lower"
    if name.endswith("bytes"):
        return "bytes", "lower"
    if name.endswith(".flops"):
        return "flop", "lower"
    if name.endswith(("_ms", ".ms_per_call")):
        return "ms", "lower"
    if name.endswith(("accept_ratio", "completed_ratio")):
        return "ratio", "higher"
    if name.endswith(("_share", "_frac")):
        return "ratio", "lower"
    return "s", "lower"


def _layer_names() -> list[str]:
    empty: dict = defaultdict(lambda: defaultdict(float))
    return sorted(layer_metrics(empty, empty)) + ["trace.overhead_frac"]


# name -> (unit, better) for every per-layer metric the traced run emits
LAYER_METRICS = {name: _unit(name) for name in _layer_names()}

# Derived from shapes rather than measured; they repeat exactly.
COMPUTED = (
    "bricks.kernel_matrix.flops",
    "bricks.kernel_matrix.bytes",
    "bricks.retained_bytes",
    "datasets.build_training_pairs.bytes",
    "datasets.context_share",
    "linalg.pseudo_inverse.flops",
)
