"""Shallow one-layer learners ("bricks").

Five brick kinds share one recipe: map the input through a fixed feature
stage, then solve the output weights in closed form with a regularized
pseudo-inverse.

* linear        - no feature stage, the predictor is a single matrix
* dsn           - random (optionally gradient-refined) hidden layer plus
                  activation
* kernel        - Gaussian-kernel ridge in dual form, with per-dataset
                  distance scales
* tensor        - two hidden layers combined through a flattened outer
                  product per sample
* kernel-tensor - dual-form product of two Gaussian kernels, which is one
                  Gaussian kernel over the two specs merged

The brick protocol: every kind is a frozen dataclass whose array fields
are stored as read-only float copies.  A kind defines ``input_dim``,
``output_dim`` and ``apply_columns``, which maps a column-sample matrix
(one input vector per column) to one output column per sample; ``apply``
also takes a single vector.  The ``kind`` field names the kind, and each
dataclass field is one entry of the model file.  The kernel and
kernel-tensor kinds are one dual-form brick over one kernel spec, given or
merged.  Training is deterministic given the seed.

A constant vector that every input column holds (a stack's context) is
folded out of the linear, DSN and tensor kinds: they read the other rows
and carry the context's contribution as a bias, which ``fold_context``
derives from full-width weights.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .linalg import EXACT_SVD, NonFiniteError, pseudo_inverse, readonly, tikhonov

__all__ = [
    "BRICK_CLASSES",
    "DSN_MODES",
    "Activation",
    "Brick",
    "DSNBrick",
    "KernelBrick",
    "KernelSpec",
    "KernelTensorBrick",
    "LinearBrick",
    "TensorBrick",
    "activate",
    "activation_derivative",
    "fold_context",
    "gaussian_kernel",
    "kernel_matrix",
    "merge_kernel_specs",
    "train_dsn_brick",
    "train_kernel_brick",
    "train_kt_brick",
    "train_linear_brick",
    "train_tensor_brick",
    "uniform_kernel_spec",
]


class Activation(enum.Enum):
    """Elementwise nonlinearity for hidden layers.

    ``step`` maps negatives to 0 and everything else to 1 (so step(0) = 1,
    the indicator of x >= 0); ``identity`` is the no-op that reduces a DSN
    brick to the plain linear predictor.
    """

    STEP = "step"
    SIGMOID = "sigmoid"
    RELU = "relu"
    IDENTITY = "identity"


# train_dsn_brick's hidden layer: drawn at random, or drawn and then refined
DSN_MODES = ("fixed-random", "gradient-refined")


def activate(a: Activation, x) -> np.ndarray:
    """Apply the activation elementwise."""
    x = np.asarray(x, dtype=float)
    if a is Activation.STEP:
        return (x >= 0.0).astype(float)
    if a is Activation.SIGMOID:
        # e = exp(-|x|) cannot overflow; e / (1 + e), then 1 / (1 + e) where x >= 0
        z = np.copysign(x, -1.0, out=np.empty_like(x))
        np.exp(z, out=z)
        d = np.add(1.0, z)
        np.divide(z, d, out=z)
        np.divide(1.0, d, out=z, where=x >= 0.0)
        return z
    if a is Activation.RELU:
        return np.maximum(x, 0.0)
    return np.array(x, dtype=float)


def activation_derivative(a: Activation, x) -> np.ndarray:
    """Elementwise derivative at ``x`` (zero almost everywhere for step)."""
    x = np.asarray(x, dtype=float)
    if a is Activation.SIGMOID:
        s = activate(a, x)
        return s * (1.0 - s)
    if a is Activation.RELU:
        return (x > 0.0).astype(float)
    if a is Activation.IDENTITY:
        return np.ones_like(x)
    return np.zeros_like(x)


@dataclass(frozen=True)
class KernelSpec:
    """Per-dataset scale factors for the Gaussian kernel distance.

    ``slices`` partitions the input vector into contiguous dataset segments;
    segment d is divided by ``scales[d]`` before squared distances are
    accumulated, so the kernel is
    ``exp(-sum_d ||(x_d - z_d) / scales[d]||^2)``.  An infinite scale switches
    its segment of finite inputs off, which in the all-infinite limit turns
    the kernel into the constant-one kernel.  Adjacent segments of equal
    scale are merged into one, so a spec is fully described by its per-row
    scales: two specs with the same row scales are equal.
    """

    scales: tuple[float, ...]
    slices: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        scales = tuple(float(s) for s in self.scales)
        slices = tuple((int(a), int(b)) for a, b in self.slices)
        if not slices:
            raise ValueError("at least one slice is required")
        if len(scales) != len(slices):
            raise ValueError("one scale per slice is required")
        pos = 0
        for a, b in slices:
            if a != pos or b <= a:
                raise ValueError("slices must contiguously partition the input vector")
            pos = b
        for s in scales:
            if not s > 0.0:
                raise ValueError("all scales must be positive")
        keep = [i for i in range(len(scales)) if i == 0 or scales[i] != scales[i - 1]]
        starts = [slices[i][0] for i in keep]
        object.__setattr__(self, "scales", tuple(scales[i] for i in keep))
        object.__setattr__(self, "slices", tuple(zip(starts, [*starts[1:], pos])))

    @property
    def dim(self) -> int:
        return self.slices[-1][1]

    @functools.cached_property
    def _row_scales(self) -> np.ndarray:
        return np.repeat(self.scales, [b - a for a, b in self.slices])

    @functools.cached_property
    def _unit(self) -> bool:
        return all(s == 1.0 for s in self.scales)

    def scale(self, x) -> np.ndarray:
        """Divide each dataset segment by its scale (rows are the vector axis).
        Under unit scales a C-contiguous input comes back as it is, with the
        bits and layout of ``x / 1.0``."""
        x = np.asarray(x, dtype=float)
        if x.shape[0] != self.dim:
            raise ValueError(f"input dimension {x.shape[0]} != kernel spec dimension {self.dim}")
        if self._unit and x.flags.c_contiguous:
            return x
        return x / self._row_scales.reshape((-1,) + (1,) * (x.ndim - 1))


def uniform_kernel_spec(dim: int, scale: float = 1.0) -> KernelSpec:
    """Single-dataset spec covering a ``dim``-long vector with one scale."""
    return KernelSpec(scales=(scale,), slices=((0, dim),))


def merge_kernel_specs(spec_a: KernelSpec, spec_b: KernelSpec) -> KernelSpec:
    """The spec whose Gaussian kernel is the product of those of ``spec_a``
    and ``spec_b``: the common refinement of their slices, with 1/s^2 summed
    per slice.  An infinite scale adds 0, so where one side is infinite the
    merged slice takes the other side's scale exactly."""
    if spec_a.dim != spec_b.dim:
        raise ValueError(f"kernel spec dimensions differ: {spec_a.dim} != {spec_b.dim}")
    ends = sorted({b for _, b in spec_a.slices} | {b for _, b in spec_b.slices})
    slices = tuple(zip([0, *ends[:-1]], ends))
    scales = []
    for a, _ in slices:
        lo, hi = sorted(spec._row_scales[a] for spec in (spec_a, spec_b))
        # lo / sqrt(1 + (lo/hi)^2) is 1 / sqrt(lo^-2 + hi^-2) without overflow
        scales.append(lo if math.isinf(lo) else lo / math.hypot(1.0, lo / hi))
    return KernelSpec(scales=tuple(scales), slices=slices)


def gaussian_kernel(x, z, spec: KernelSpec) -> float:
    """Gaussian kernel value for two vectors under per-dataset scaling."""
    dx = spec.scale(x) - spec.scale(z)
    return float(np.exp(-np.dot(dx, dx)))


def _scaled(spec: KernelSpec, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The column samples ``x`` scaled, and their squared norms."""
    s = spec.scale(x)
    return s, np.add.reduce(s * s, axis=0)


def _gaussian(sa: np.ndarray, na: np.ndarray, sb: np.ndarray, nb: np.ndarray) -> np.ndarray:
    """``exp(min(2 sa_i . sb_j - (na_i + nb_j), 0))`` from scaled column samples
    and their squared norms in one n x m buffer: one matrix product (split up,
    it would round differently), then four passes in place, about 32k entries
    at a time.  As a - b is exactly -(b - a), only a NaN's sign bit differs
    from ``np.exp(-np.maximum(na + nb - 2.0 * (sa.T @ sb), 0))``.
    One buffer on both sides of the product would take numpy's symmetric
    (syrk) path, which rounds differently, so ``sb`` is then copied."""
    if np.may_share_memory(sa, sb):
        sb = sb.copy(order="K")
    k = sa.T @ sb
    step = max(1, (1 << 15) // max(1, k.shape[1]))
    for i in range(0, k.shape[0], step):
        block = k[i : i + step]
        block *= 2.0
        block -= na[i : i + step, None] + nb[None, :]
        np.minimum(block, 0.0, out=block)
        np.exp(block, out=block)
    return k


def kernel_matrix(spec: KernelSpec, a, b) -> np.ndarray:
    """Gram/cross matrix ``K[i, j] = k(a[:, i], b[:, j])`` for column samples;
    the Gram matrix ``kernel_matrix(spec, a, a)`` scales ``a`` once."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("kernel_matrix expects 2-d column-sample matrices")
    scaled_a = _scaled(spec, a)
    return _gaussian(*scaled_a, *(scaled_a if b is a else _scaled(spec, b)))


# annotations of the array fields; the optional ones are the biases
_ARRAY_TYPES = ("np.ndarray", "np.ndarray | None")

# Gradient refinement stops after this many descent steps, or once a step
# improves the objective by less than this fraction of it.  That stop counts
# as convergence only if the line search did not cut the step below this
# fraction of the step it started from: a step cut that far is a stall.
_MAX_REFINE_STEPS = 200
_REFINE_TOL = 1e-8
_STALL_FRACTION = 2.0**-10


def _affine(w: np.ndarray, bias: np.ndarray | None, x: np.ndarray) -> np.ndarray:
    """``w @ x``, plus ``bias`` in every column when there is one."""
    z = w @ x
    if bias is not None:
        z += bias[:, None]
    return z


def _check_bias(bias: np.ndarray | None, rows: int, name: str) -> None:
    if bias is not None and bias.shape != (rows,):
        raise ValueError(f"{name} must be a vector of length {rows}")


@dataclass(frozen=True)
class _Brick:
    """The brick protocol: array fields are stored as read-only copies, and
    ``apply`` also takes a single input vector."""

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type in _ARRAY_TYPES and value is not None:
                object.__setattr__(self, f.name, readonly(value))

    def _columns(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        cols = x[:, None] if x.ndim == 1 else x
        if cols.ndim != 2 or cols.shape[0] != self.input_dim:
            raise ValueError(
                f"{self.kind} brick: expected input dimension {self.input_dim}, got shape {x.shape}"
            )
        return cols

    def apply(self, x) -> np.ndarray:
        """Apply the brick to one input vector or to a column-sample matrix."""
        out = self.apply_columns(x)
        return out[:, 0] if np.ndim(x) == 1 else out


@dataclass(frozen=True)
class LinearBrick(_Brick):
    """One-step predictor ``y = matrix @ x + bias`` (``matrix @ x`` without
    a bias)."""

    matrix: np.ndarray
    bias: np.ndarray | None = None
    kind: str = field(default="linear", init=False)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.matrix.ndim != 2:
            raise ValueError("matrix must be 2-d")
        _check_bias(self.bias, self.matrix.shape[0], "bias")

    @property
    def input_dim(self) -> int:
        return self.matrix.shape[1]

    @property
    def output_dim(self) -> int:
        return self.matrix.shape[0]

    def apply_columns(self, x) -> np.ndarray:
        return _affine(self.matrix, self.bias, self._columns(x))


@dataclass(frozen=True)
class DSNBrick(_Brick):
    """Random-hidden-layer brick
    ``y = output_weights @ act(hidden_weights @ x + hidden_bias)``."""

    hidden_weights: np.ndarray
    output_weights: np.ndarray
    activation: Activation
    hidden_bias: np.ndarray | None = None
    refine_converged: bool | None = None
    refine_trace: tuple[float, ...] | None = None
    kind: str = field(default="dsn", init=False)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.hidden_weights.ndim != 2 or self.output_weights.ndim != 2:
            raise ValueError("weights must be 2-d")
        if self.output_weights.shape[1] != self.hidden_weights.shape[0]:
            raise ValueError("output weights do not match the hidden layer size")
        _check_bias(self.hidden_bias, self.hidden_weights.shape[0], "hidden_bias")

    @property
    def input_dim(self) -> int:
        return self.hidden_weights.shape[1]

    @property
    def output_dim(self) -> int:
        return self.output_weights.shape[0]

    def apply_columns(self, x) -> np.ndarray:
        z = _affine(self.hidden_weights, self.hidden_bias, self._columns(x))
        return self.output_weights @ activate(self.activation, z)


@dataclass(frozen=True)
class _DualBrick(_Brick):
    """Dual-form ridge over the Gaussian kernel of ``spec``.

    Retains exactly the training inputs seen at fit time; prediction is
    ``dual_coefficients @ k(training_inputs, x)``.  The first apply scales
    the training inputs and keeps them with their squared column norms, so
    each apply scales only its new columns and evaluates the kernel in one
    n x m buffer; the arithmetic is that of ``kernel_matrix``, bit for bit.
    """

    training_inputs: np.ndarray
    dual_coefficients: np.ndarray

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.training_inputs.ndim != 2 or self.dual_coefficients.ndim != 2:
            raise ValueError("training inputs and dual coefficients must be 2-d")
        if self.dual_coefficients.shape[1] != self.training_inputs.shape[1]:
            raise ValueError("one dual coefficient column per retained training input required")
        if self.spec.dim != self.training_inputs.shape[0]:
            raise ValueError("kernel spec does not match the training input dimension")
        tikhonov(self.ridge)

    @property
    def input_dim(self) -> int:
        return self.training_inputs.shape[0]

    @property
    def output_dim(self) -> int:
        return self.dual_coefficients.shape[0]

    # each kind still defines apply_columns in its own body: the benchmark
    # tracer (perfbench/tracer.py) patches it per class
    def _apply_dual(self, x) -> np.ndarray:
        cols = _scaled(self.spec, self._columns(x))
        return self.dual_coefficients @ _gaussian(*self._scaled_training_inputs, *cols)

    @functools.cached_property
    def _scaled_training_inputs(self) -> tuple[np.ndarray, np.ndarray]:
        return _scaled(self.spec, self.training_inputs)


@dataclass(frozen=True)
class KernelBrick(_DualBrick):
    """Dual-form Gaussian-kernel ridge brick (the one-kernel dual brick)."""

    spec: KernelSpec
    ridge: float
    kind: str = field(default="kernel", init=False)

    def apply_columns(self, x) -> np.ndarray:
        return self._apply_dual(x)


def _tensor_features(wa, ba, wb, bb, a: Activation, cols: np.ndarray) -> np.ndarray:
    """Per-sample ``act(wa @ x + ba) (outer) act(wb @ x + bb)`` flattened
    row-major."""
    ha = activate(a, _affine(wa, ba, cols))
    hb = activate(a, _affine(wb, bb, cols))
    return (ha[:, None, :] * hb[None, :, :]).reshape(ha.shape[0] * hb.shape[0], cols.shape[1])


@dataclass(frozen=True)
class TensorBrick(_Brick):
    """Split-hidden-layer brick over flattened outer-product features.

    Per sample the feature vector is
    ``act(w_a @ x + b_a) (outer) act(w_b @ x + b_b)`` flattened row-major to
    length ``h_a * h_b``; a hidden bias left out counts as zero.
    """

    hidden_weights_a: np.ndarray
    hidden_weights_b: np.ndarray
    output_weights: np.ndarray
    activation: Activation
    hidden_bias_a: np.ndarray | None = None
    hidden_bias_b: np.ndarray | None = None
    kind: str = field(default="tensor", init=False)

    def __post_init__(self) -> None:
        super().__post_init__()
        ha, hb = self.hidden_weights_a.shape[0], self.hidden_weights_b.shape[0]
        if self.hidden_weights_a.shape[1] != self.hidden_weights_b.shape[1]:
            raise ValueError("both hidden layers must share the input dimension")
        if self.output_weights.shape[1] != ha * hb:
            raise ValueError("output weights do not match the tensor feature length")
        _check_bias(self.hidden_bias_a, ha, "hidden_bias_a")
        _check_bias(self.hidden_bias_b, hb, "hidden_bias_b")

    @property
    def input_dim(self) -> int:
        return self.hidden_weights_a.shape[1]

    @property
    def output_dim(self) -> int:
        return self.output_weights.shape[0]

    def apply_columns(self, x) -> np.ndarray:
        cols = self._columns(x)
        feats = _tensor_features(
            self.hidden_weights_a,
            self.hidden_bias_a,
            self.hidden_weights_b,
            self.hidden_bias_b,
            self.activation,
            cols,
        )
        return self.output_weights @ feats


@dataclass(frozen=True)
class KernelTensorBrick(_DualBrick):
    """Dual-form brick over the product of two Gaussian kernels.

    The tensor product of two feature maps induces the elementwise product
    of their kernels, ``k_a * k_b``, which is the one Gaussian kernel of
    ``spec``, the two specs merged.
    """

    spec_a: KernelSpec
    spec_b: KernelSpec
    ridge: float
    kind: str = field(default="kernel-tensor", init=False)

    @functools.cached_property
    def spec(self) -> KernelSpec:
        return merge_kernel_specs(self.spec_a, self.spec_b)

    def apply_columns(self, x) -> np.ndarray:
        return self._apply_dual(x)


Brick = LinearBrick | DSNBrick | KernelBrick | TensorBrick | KernelTensorBrick

# every brick kind by its name, in the order the command line lists them
BRICK_CLASSES = {
    cls.kind: cls for cls in (LinearBrick, DSNBrick, KernelBrick, TensorBrick, KernelTensorBrick)
}


def _as_pairs(inputs, targets) -> tuple[np.ndarray, np.ndarray]:
    u = np.asarray(inputs, dtype=float)
    v = np.asarray(targets, dtype=float)
    if u.ndim != 2 or v.ndim != 2:
        raise ValueError("inputs and targets must be 2-d with one sample per column")
    if u.shape[1] != v.shape[1]:
        raise ValueError(f"sample count mismatch: {u.shape[1]} inputs vs {v.shape[1]} targets")
    if u.shape[1] == 0:
        raise ValueError("at least one training column is required")
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
        raise NonFiniteError("training data contains non-finite values")
    return u, v


def _as_context(context) -> np.ndarray | None:
    """A folded context as a checked vector (None for no context)."""
    if context is None:
        return None
    c = np.asarray(context, dtype=float)
    if c.ndim != 1:
        raise ValueError("the context must be a vector")
    if not np.all(np.isfinite(c)):
        raise NonFiniteError("training data contains non-finite values")
    return c


def _fold(w: np.ndarray, context: np.ndarray | None, at: int):
    """Full-width weights ``w`` as the columns of the rows around the context
    rows ``at:at + context.size`` and the bias ``w_c @ context`` that the
    context rows add; no bias when the context is absent or zero."""
    if context is None:
        return w, None
    rows = slice(at, at + context.size)
    bias = w[:, rows] @ context if np.linalg.norm(context) else None
    return np.delete(w, rows, axis=1), bias


def fold_context(brick: Brick, context, at: int) -> Brick:
    """A full-width linear, DSN or tensor brick whose input rows
    ``at:at + context.size`` always hold ``context``, as the brick that reads
    the other rows and adds the context's contribution as a bias: the same
    predictions up to rounding.  Kernel kinds are returned as they are."""
    c = np.asarray(context, dtype=float)
    if isinstance(brick, LinearBrick):
        matrix, bias = _fold(brick.matrix, c, at)
        return replace(brick, matrix=matrix, bias=bias)
    if isinstance(brick, DSNBrick):
        w, b = _fold(brick.hidden_weights, c, at)
        return replace(brick, hidden_weights=w, hidden_bias=b)
    if isinstance(brick, TensorBrick):
        wa, ba = _fold(brick.hidden_weights_a, c, at)
        wb, bb = _fold(brick.hidden_weights_b, c, at)
        return replace(
            brick, hidden_weights_a=wa, hidden_bias_a=ba, hidden_weights_b=wb, hidden_bias_b=bb
        )
    return brick


def train_linear_brick(
    inputs, targets, cfg: float = EXACT_SVD, context=None
) -> LinearBrick:
    """Closed-form linear predictor ``targets @ pinv(inputs)``.

    Among all linear maps this minimizes the Frobenius training residual
    (with the configured regularization applied to the inverse).
    ``context`` is a constant vector that every input column also holds,
    left out of ``inputs``.  It enters the solve as one bias row of value
    ``||context||``, which leaves the full-width ``U^T U`` unchanged, so the
    brick predicts as the full-width solve would, up to rounding.  A zero
    context adds no bias.
    """
    u, v = _as_pairs(inputs, targets)
    c = _as_context(context)
    norm = 0.0 if c is None else float(np.linalg.norm(c))
    if not norm:
        return LinearBrick(matrix=v @ pseudo_inverse(u, cfg))
    m = v @ pseudo_inverse(np.vstack([u, np.full((1, u.shape[1]), norm)]), cfg)
    return LinearBrick(matrix=m[:, :-1], bias=m[:, -1] * norm)


def _hidden_layer(rng: np.random.Generator, rows: int, cols: int, given=None) -> np.ndarray:
    """Seeded hidden weights, or ``given`` after a shape check."""
    if given is None:
        # scaled uniform in [-1/sqrt(fan_in), 1/sqrt(fan_in)]
        bound = 1.0 / math.sqrt(cols)
        return rng.uniform(-bound, bound, size=(rows, cols))
    w = np.array(given, dtype=float)
    if w.shape != (rows, cols):
        raise ValueError("hidden weights must have shape (hidden_size, input_dim)")
    return w


def _output_solve_loss(
    w: np.ndarray,
    b: np.ndarray | None,
    u: np.ndarray,
    v: np.ndarray,
    a: Activation,
    cfg: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Closed-form output weights for hidden weights ``w`` and bias ``b``,
    the hidden pre-activation and the output residual they give, plus the
    refined objective value (data residual plus the ridge term, zero for the
    exact solve)."""
    pre = _affine(w, b, u)
    h = activate(a, pre)
    out = v @ pseudo_inverse(h, cfg)
    resid = out @ h - v
    loss = float(np.sum(resid * resid) + cfg * np.sum(out * out))
    return out, pre, resid, loss


def _refine_hidden_weights(
    w: np.ndarray,
    b: np.ndarray | None,
    cc: float,
    u: np.ndarray,
    v: np.ndarray,
    a: Activation,
    cfg: float,
) -> tuple[np.ndarray, np.ndarray | None, tuple[float, ...], bool]:
    """Gradient descent on the reduced objective Q(w) with the output weights
    re-solved in closed form each step.

    Because the output weights minimize the same objective, the gradient of
    Q equals the partial gradient through the hidden layer with the output
    weights held fixed (envelope argument).  Backtracking line search accepts
    only improvements, so the returned w is the best seen.

    A bias ``b`` stands for folded context columns ``W_c`` with
    ``b = W_c @ c`` and ``cc = ||c||^2``.  Their gradient is the outer
    product of the bias gradient ``g_b`` with ``c``, so a step moves the
    bias by ``cc`` times ``g_b`` and the step's squared norm gains
    ``cc * ||g_b||^2``: the full-width descent in exact arithmetic.
    """
    out, pre, resid, loss = _output_solve_loss(w, b, u, v, a, cfg)
    trace = [loss]
    step = 1.0
    converged = False
    for _ in range(_MAX_REFINE_STEPS):
        d = 2.0 * ((out.T @ resid) * activation_derivative(a, pre))
        grad = d @ u.T
        gnorm2 = float(np.sum(grad * grad))
        grad_b = None
        if b is not None:
            grad_b = d.sum(axis=1)
            gnorm2 += cc * float(np.sum(grad_b * grad_b))
        if gnorm2 == 0.0:
            converged = True
            break
        accepted, start = False, step
        while step > 1e-16:
            w_new = w - step * grad
            b_new = None if b is None else b - (step * cc) * grad_b
            out_new, pre_new, resid_new, loss_new = _output_solve_loss(w_new, b_new, u, v, a, cfg)
            if loss_new <= loss - 1e-4 * step * gnorm2:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        improvement, stalled = loss - loss_new, step < _STALL_FRACTION * start
        w, b, out, pre, resid, loss = w_new, b_new, out_new, pre_new, resid_new, loss_new
        trace.append(loss)
        step *= 2.0
        if improvement < _REFINE_TOL * max(abs(loss), 1e-300):
            converged = not stalled
            break
    return w, b, tuple(trace), converged


def train_dsn_brick(
    inputs,
    targets,
    hidden_size: int,
    activation: Activation = Activation.SIGMOID,
    mode: str = "fixed-random",
    cfg: float = EXACT_SVD,
    seed: int = 0,
    hidden_weights=None,
    context=None,
    context_row: int = 0,
) -> DSNBrick:
    """Train a DSN brick: seeded random hidden layer, closed-form output solve.

    ``mode = "gradient-refined"`` additionally improves the hidden weights by
    backtracking gradient descent on the training objective.
    ``refine_converged`` is True only when a step met the tolerance that the
    line search had not cut below 1/1024 of the step it started from;
    refinement that stalls or runs out of steps reports False, with the best
    weights so far retained.  ``hidden_weights`` overrides the random
    initialization.

    ``context`` is a constant vector that every input column also holds, in
    rows ``context_row`` onwards of the full-width input that ``inputs``
    leaves it out of.  The hidden weights are drawn (or given) over the full
    width; the brick keeps the columns of the rows in ``inputs`` and, as a
    hidden bias, what the context rows add (none for a zero context).
    """
    u, v = _as_pairs(inputs, targets)
    c = _as_context(context)
    if hidden_size < 1:
        raise ValueError("hidden_size must be >= 1")
    if mode not in DSN_MODES:
        raise ValueError(f"unknown dsn training mode {mode!r}")
    rng = np.random.default_rng(seed)
    width = u.shape[0] + (0 if c is None else c.size)
    w, b = _fold(_hidden_layer(rng, hidden_size, width, hidden_weights), c, context_row)
    refine_trace: tuple[float, ...] | None = None
    refine_converged: bool | None = None
    if mode == "gradient-refined":
        cc = 0.0 if b is None else float(c @ c)
        w, b, refine_trace, refine_converged = _refine_hidden_weights(
            w, b, cc, u, v, activation, cfg
        )
    out = _output_solve_loss(w, b, u, v, activation, cfg)[0]
    return DSNBrick(
        hidden_weights=w,
        output_weights=out,
        activation=activation,
        hidden_bias=b,
        refine_converged=refine_converged,
        refine_trace=refine_trace,
    )


def dsn_objective_gradient(
    weights, inputs, targets, activation: Activation, cfg: float = EXACT_SVD
) -> np.ndarray:
    """Analytic gradient of the refined DSN objective at the given hidden
    weights (output weights re-solved in closed form).  Exposed for gradient
    checking against finite differences."""
    u, v = _as_pairs(inputs, targets)
    w = np.asarray(weights, dtype=float)
    out, pre, resid, _ = _output_solve_loss(w, None, u, v, activation, cfg)
    return 2.0 * ((out.T @ resid) * activation_derivative(activation, pre)) @ u.T


def dsn_objective(weights, inputs, targets, activation: Activation, cfg: float = EXACT_SVD) -> float:
    """Refined DSN objective Q(w) with output weights re-solved in closed form."""
    u, v = _as_pairs(inputs, targets)
    w = np.asarray(weights, dtype=float)
    return _output_solve_loss(w, None, u, v, activation, cfg)[3]


def _train_dual(v: np.ndarray, lam: float, gram: np.ndarray) -> tuple[np.ndarray, float]:
    """The coefficients ``v @ (gram + lam I)^-1`` and the ridge, from the
    ridge-free Gram matrix of the inputs, which comes back as it went in: the
    saved diagonal is written back after the solve."""
    lam = tikhonov(lam)
    if lam > 0.0:
        # gram + lam I in place: the off-diagonal entries are >= 0, so the
        # zeros that sum would add leave them unchanged
        diagonal = gram.diagonal().copy()
        gram.flat[:: gram.shape[0] + 1] += lam
        try:
            dual = np.linalg.solve(gram, v.T).T
        finally:
            gram.flat[:: gram.shape[0] + 1] = diagonal
        if not np.all(np.isfinite(dual)):
            raise NonFiniteError("the kernel solve gave non-finite dual coefficients")
        return dual, lam
    # ridge-free fit: exact interpolation when the Gram matrix allows it,
    # minimum-norm pseudo-inverse solution otherwise
    return v @ pseudo_inverse(gram), lam


def _fit_dual(spec: KernelSpec, inputs, targets, lam: float, gram: np.ndarray | None) -> dict:
    """The array fields and ridge of a dual brick with the kernel of
    ``spec``, solved against ``gram``, the ridge-free Gram matrix of the
    inputs (evaluated here when None), which comes back as it went in."""
    u, v = _as_pairs(inputs, targets)
    if gram is None:
        gram = kernel_matrix(spec, u, u)
    elif gram.shape != (u.shape[1], u.shape[1]):
        raise ValueError(f"the Gram matrix must be {u.shape[1]} x {u.shape[1]}, got {gram.shape}")
    dual, lam = _train_dual(v, lam, gram)
    return dict(training_inputs=u, dual_coefficients=dual, ridge=lam)


def train_kernel_brick(
    inputs, targets, spec: KernelSpec, lam: float, gram: np.ndarray | None = None
) -> KernelBrick:
    """Kernel ridge in dual form: coefficients ``targets @ (K + lam I)^-1``.
    ``gram`` is K when the caller has it: a writable n x n matrix, whose
    diagonal the solve changes and then restores."""
    return KernelBrick(spec=spec, **_fit_dual(spec, inputs, targets, lam, gram))


def train_kt_brick(
    inputs,
    targets,
    spec_a: KernelSpec,
    spec_b: KernelSpec,
    lam: float,
    gram: np.ndarray | None = None,
) -> KernelTensorBrick:
    """Kernel-tensor brick: dual-form ridge on the product kernel ``K_a * K_b``,
    the kernel of the merged spec, given as ``gram`` as in
    :func:`train_kernel_brick`."""
    fit = _fit_dual(merge_kernel_specs(spec_a, spec_b), inputs, targets, lam, gram)
    return KernelTensorBrick(spec_a=spec_a, spec_b=spec_b, **fit)


def train_tensor_brick(
    inputs,
    targets,
    hidden_size_a: int,
    hidden_size_b: int,
    activation: Activation = Activation.SIGMOID,
    cfg: float = EXACT_SVD,
    seed: int = 0,
    hidden_weights_a=None,
    hidden_weights_b=None,
    context=None,
    context_row: int = 0,
) -> TensorBrick:
    """Train a tensor brick on flattened outer-product features.

    Both hidden layers are drawn from the seeded generator (a first, then b);
    explicit weights override the random initialization.  ``context`` and
    ``context_row`` fold a constant context out of both layers as in
    :func:`train_dsn_brick`.
    """
    u, v = _as_pairs(inputs, targets)
    c = _as_context(context)
    if hidden_size_a < 1 or hidden_size_b < 1:
        raise ValueError("hidden sizes must be >= 1")
    rng = np.random.default_rng(seed)
    width = u.shape[0] + (0 if c is None else c.size)
    wa, ba = _fold(_hidden_layer(rng, hidden_size_a, width, hidden_weights_a), c, context_row)
    wb, bb = _fold(_hidden_layer(rng, hidden_size_b, width, hidden_weights_b), c, context_row)
    out = v @ pseudo_inverse(_tensor_features(wa, ba, wb, bb, activation, u), cfg)
    return TensorBrick(
        hidden_weights_a=wa,
        hidden_weights_b=wb,
        output_weights=out,
        activation=activation,
        hidden_bias_a=ba,
        hidden_bias_b=bb,
    )
