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
* kernel-tensor - dual-form product of two Gaussian kernels (the kernel
                  analogue of the tensor brick)

The brick protocol: every kind is a frozen dataclass whose array fields
are stored as read-only float copies.  A kind defines ``input_dim``,
``output_dim`` and ``apply_columns``, which maps a column-sample matrix
(one input vector per column) to one output column per sample; ``apply``
also takes a single vector.  The ``kind`` field names the kind, and each
dataclass field is one entry of the model file.  The kernel and
kernel-tensor kinds are the one- and two-kernel cases of one dual-form
brick.  Training is deterministic given the seed.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .linalg import EXACT_SVD, InverseConfig, pseudo_inverse, readonly

__all__ = [
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
    "gaussian_kernel",
    "kernel_matrix",
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


def activate(a: Activation, x) -> np.ndarray:
    """Apply the activation elementwise."""
    x = np.asarray(x, dtype=float)
    if a is Activation.STEP:
        return (x >= 0.0).astype(float)
    if a is Activation.SIGMOID:
        # exp of a nonpositive argument only, so large |x| cannot overflow
        z = np.exp(-np.abs(x))
        return np.where(x >= 0.0, 1.0 / (1.0 + z), z / (1.0 + z))
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
    its segment off, which in the all-infinite limit turns the kernel into
    the constant-one kernel.
    """

    scales: tuple[float, ...]
    slices: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        scales = tuple(float(s) for s in self.scales)
        slices = tuple((int(a), int(b)) for a, b in self.slices)
        object.__setattr__(self, "scales", scales)
        object.__setattr__(self, "slices", slices)
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

    @property
    def dim(self) -> int:
        return self.slices[-1][1]

    def scale(self, x) -> np.ndarray:
        """Divide each dataset segment by its scale (rows are the vector axis)."""
        x = np.asarray(x, dtype=float)
        if x.shape[0] != self.dim:
            raise ValueError(f"input dimension {x.shape[0]} != kernel spec dimension {self.dim}")
        out = np.empty_like(x)
        for (a, b), s in zip(self.slices, self.scales):
            out[a:b] = 0.0 if math.isinf(s) else x[a:b] / s
        return out


def uniform_kernel_spec(dim: int, scale: float = 1.0) -> KernelSpec:
    """Single-dataset spec covering a ``dim``-long vector with one scale."""
    return KernelSpec(scales=(scale,), slices=((0, dim),))


def gaussian_kernel(x, z, spec: KernelSpec) -> float:
    """Gaussian kernel value for two vectors under per-dataset scaling."""
    dx = spec.scale(x) - spec.scale(z)
    return float(np.exp(-np.dot(dx, dx)))


def _scaled(specs, x: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per spec: the column samples ``x`` scaled, and their squared norms."""
    out = []
    for spec in specs:
        s = spec.scale(x)
        out.append((s, np.sum(s * s, axis=0)))
    return out


def _gaussian(sa: np.ndarray, na: np.ndarray, sb: np.ndarray, nb: np.ndarray) -> np.ndarray:
    """``exp(-max(na_i + nb_j - 2 sa_i . sb_j, 0))`` from scaled column samples
    and their squared norms.  The steps run in place on two buffers, because
    the allocator maps and faults in every fresh large temporary anew; the
    rounding is that of ``np.exp(-np.maximum(na + nb - 2.0 * (sa.T @ sb), 0))``."""
    d2 = na[:, None] + nb[None, :]
    cross = sa.T @ sb
    cross *= 2.0
    d2 -= cross
    np.maximum(d2, 0.0, out=d2)
    np.negative(d2, out=d2)
    return np.exp(d2, out=d2)


def _product_gaussian(left, right) -> np.ndarray:
    """Elementwise product over specs of the Gaussian kernels between scaled
    column samples, each side given as ``_scaled`` returns it."""
    kernels = (_gaussian(*a, *b) for a, b in zip(left, right))
    return functools.reduce(lambda k, k_next: np.multiply(k, k_next, out=k), kernels)


def kernel_matrix(spec: KernelSpec, a, b) -> np.ndarray:
    """Gram/cross matrix ``K[i, j] = k(a[:, i], b[:, j])`` for column samples."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("kernel_matrix expects 2-d column-sample matrices")
    return _product_gaussian(_scaled((spec,), a), _scaled((spec,), b))


@dataclass(frozen=True)
class _Brick:
    """The brick protocol: fields annotated ``np.ndarray`` are stored as
    read-only copies, and ``apply`` also takes a single input vector."""

    def __post_init__(self) -> None:
        for f in fields(self):
            if f.type == "np.ndarray":
                object.__setattr__(self, f.name, readonly(getattr(self, f.name)))

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
    """One-step predictor ``y = matrix @ x``."""

    matrix: np.ndarray
    kind: str = field(default="linear", init=False)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.matrix.ndim != 2:
            raise ValueError("matrix must be 2-d")

    @property
    def input_dim(self) -> int:
        return self.matrix.shape[1]

    @property
    def output_dim(self) -> int:
        return self.matrix.shape[0]

    def apply_columns(self, x) -> np.ndarray:
        return self.matrix @ self._columns(x)


@dataclass(frozen=True)
class DSNBrick(_Brick):
    """Random-hidden-layer brick ``y = output_weights @ act(hidden_weights @ x)``."""

    hidden_weights: np.ndarray
    output_weights: np.ndarray
    activation: Activation
    refine_converged: bool | None = None
    refine_trace: tuple[float, ...] | None = None
    kind: str = field(default="dsn", init=False)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.hidden_weights.ndim != 2 or self.output_weights.ndim != 2:
            raise ValueError("weights must be 2-d")
        if self.output_weights.shape[1] != self.hidden_weights.shape[0]:
            raise ValueError("output weights do not match the hidden layer size")

    @property
    def input_dim(self) -> int:
        return self.hidden_weights.shape[1]

    @property
    def output_dim(self) -> int:
        return self.output_weights.shape[0]

    def apply_columns(self, x) -> np.ndarray:
        return self.output_weights @ activate(self.activation, self.hidden_weights @ self._columns(x))


@dataclass(frozen=True)
class _DualBrick(_Brick):
    """Dual-form ridge over the product of the Gaussian kernels in ``specs``.

    Retains exactly the training inputs seen at fit time; prediction is
    ``dual_coefficients @ prod_s k_s(training_inputs, x)``.  The scaled
    training inputs and their squared column norms are computed once per
    brick, on first use, so each apply scales only its new columns; the
    arithmetic is that of ``kernel_matrix``, bit for bit.
    """

    training_inputs: np.ndarray
    dual_coefficients: np.ndarray

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.training_inputs.ndim != 2 or self.dual_coefficients.ndim != 2:
            raise ValueError("training inputs and dual coefficients must be 2-d")
        if self.dual_coefficients.shape[1] != self.training_inputs.shape[1]:
            raise ValueError("one dual coefficient column per retained training input required")
        if any(spec.dim != self.training_inputs.shape[0] for spec in self.specs):
            raise ValueError("kernel spec does not match the training input dimension")
        if not self.ridge >= 0.0:
            raise ValueError("ridge must be >= 0")

    @property
    def input_dim(self) -> int:
        return self.training_inputs.shape[0]

    @property
    def output_dim(self) -> int:
        return self.dual_coefficients.shape[0]

    # each kind still defines apply_columns in its own body: the benchmark
    # tracer (perfbench/tracer.py) patches it per class
    def _apply_dual(self, x) -> np.ndarray:
        cols = _scaled(self.specs, self._columns(x))
        return self.dual_coefficients @ _product_gaussian(self._scaled_training_inputs, cols)

    @functools.cached_property
    def _scaled_training_inputs(self) -> list[tuple[np.ndarray, np.ndarray]]:
        return _scaled(self.specs, self.training_inputs)


@dataclass(frozen=True)
class KernelBrick(_DualBrick):
    """Dual-form Gaussian-kernel ridge brick (the one-kernel dual brick)."""

    spec: KernelSpec
    ridge: float
    kind: str = field(default="kernel", init=False)

    @property
    def specs(self) -> tuple[KernelSpec, ...]:
        return (self.spec,)

    def apply_columns(self, x) -> np.ndarray:
        return self._apply_dual(x)


def _tensor_features(wa: np.ndarray, wb: np.ndarray, a: Activation, cols: np.ndarray) -> np.ndarray:
    """Per-sample ``act(wa @ x) (outer) act(wb @ x)`` flattened row-major."""
    ha = activate(a, wa @ cols)
    hb = activate(a, wb @ cols)
    return (ha[:, None, :] * hb[None, :, :]).reshape(ha.shape[0] * hb.shape[0], cols.shape[1])


@dataclass(frozen=True)
class TensorBrick(_Brick):
    """Split-hidden-layer brick over flattened outer-product features.

    Per sample the feature vector is ``act(w_a @ x) (outer) act(w_b @ x)``
    flattened row-major to length ``h_a * h_b``.
    """

    hidden_weights_a: np.ndarray
    hidden_weights_b: np.ndarray
    output_weights: np.ndarray
    activation: Activation
    kind: str = field(default="tensor", init=False)

    def __post_init__(self) -> None:
        super().__post_init__()
        ha, hb = self.hidden_weights_a.shape[0], self.hidden_weights_b.shape[0]
        if self.hidden_weights_a.shape[1] != self.hidden_weights_b.shape[1]:
            raise ValueError("both hidden layers must share the input dimension")
        if self.output_weights.shape[1] != ha * hb:
            raise ValueError("output weights do not match the tensor feature length")

    @property
    def input_dim(self) -> int:
        return self.hidden_weights_a.shape[1]

    @property
    def output_dim(self) -> int:
        return self.output_weights.shape[0]

    def apply_columns(self, x) -> np.ndarray:
        cols = self._columns(x)
        feats = _tensor_features(self.hidden_weights_a, self.hidden_weights_b, self.activation, cols)
        return self.output_weights @ feats


@dataclass(frozen=True)
class KernelTensorBrick(_DualBrick):
    """Dual-form brick over the product of two Gaussian kernels.

    The tensor product of two feature maps induces the elementwise product
    of their kernels, so the Gram matrix is ``K_a * K_b`` and prediction is
    ``dual_coefficients @ (k_a(U, x) * k_b(U, x))``.
    """

    spec_a: KernelSpec
    spec_b: KernelSpec
    ridge: float
    kind: str = field(default="kernel-tensor", init=False)

    @property
    def specs(self) -> tuple[KernelSpec, ...]:
        return (self.spec_a, self.spec_b)

    def apply_columns(self, x) -> np.ndarray:
        return self._apply_dual(x)


Brick = LinearBrick | DSNBrick | KernelBrick | TensorBrick | KernelTensorBrick


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
        raise ValueError("training data contains non-finite values")
    return u, v


def train_linear_brick(inputs, targets, cfg: InverseConfig = EXACT_SVD) -> LinearBrick:
    """Closed-form linear predictor ``targets @ pinv(inputs)``.

    Among all linear maps this minimizes the Frobenius training residual
    (with the configured regularization applied to the inverse).
    """
    u, v = _as_pairs(inputs, targets)
    return LinearBrick(matrix=v @ pseudo_inverse(u, cfg))


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
    w: np.ndarray, u: np.ndarray, v: np.ndarray, a: Activation, cfg: InverseConfig
) -> tuple[np.ndarray, np.ndarray, float]:
    """Closed-form output weights for hidden weights ``w`` plus the refined
    objective value (data residual plus the ridge term when cfg carries one)."""
    h = activate(a, w @ u)
    out = v @ pseudo_inverse(h, cfg)
    resid = out @ h - v
    lam = cfg.lam if (cfg.mode == "tikhonov" and cfg.lam) else 0.0
    loss = float(np.sum(resid * resid) + lam * np.sum(out * out))
    return out, h, loss


def _refine_hidden_weights(
    w: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    a: Activation,
    cfg: InverseConfig,
    max_steps: int,
    rel_tol: float,
) -> tuple[np.ndarray, tuple[float, ...], bool]:
    """Gradient descent on the reduced objective Q(w) with the output weights
    re-solved in closed form each step.

    Because the output weights minimize the same objective, the gradient of
    Q equals the partial gradient through the hidden layer with the output
    weights held fixed (envelope argument).  Backtracking line search accepts
    only improvements, so the returned w is the best seen.
    """
    out, h, loss = _output_solve_loss(w, u, v, a, cfg)
    trace = [loss]
    step = 1.0
    converged = False
    for _ in range(max_steps):
        z = w @ u
        grad = 2.0 * ((out.T @ (out @ h - v)) * activation_derivative(a, z)) @ u.T
        gnorm2 = float(np.sum(grad * grad))
        if gnorm2 == 0.0:
            converged = True
            break
        accepted = False
        while step > 1e-16:
            w_new = w - step * grad
            out_new, h_new, loss_new = _output_solve_loss(w_new, u, v, a, cfg)
            if loss_new <= loss - 1e-4 * step * gnorm2:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        improvement = loss - loss_new
        w, out, h, loss = w_new, out_new, h_new, loss_new
        trace.append(loss)
        step *= 2.0
        if improvement < rel_tol * max(abs(loss), 1e-300):
            converged = True
            break
    return w, tuple(trace), converged


def train_dsn_brick(
    inputs,
    targets,
    hidden_size: int,
    activation: Activation = Activation.SIGMOID,
    mode: str = "fixed-random",
    cfg: InverseConfig = EXACT_SVD,
    seed: int = 0,
    hidden_weights=None,
    max_refine_steps: int = 200,
    refine_tol: float = 1e-8,
) -> DSNBrick:
    """Train a DSN brick: seeded random hidden layer, closed-form output solve.

    ``mode = "gradient-refined"`` additionally improves the hidden weights by
    backtracking gradient descent on the training objective; refinement that
    stalls before the tolerance is reported through ``refine_converged`` with
    the best weights so far retained.  ``hidden_weights`` overrides the random
    initialization.
    """
    u, v = _as_pairs(inputs, targets)
    if hidden_size < 1:
        raise ValueError("hidden_size must be >= 1")
    if mode not in ("fixed-random", "gradient-refined"):
        raise ValueError(f"unknown dsn training mode {mode!r}")
    w = _hidden_layer(np.random.default_rng(seed), hidden_size, u.shape[0], hidden_weights)
    refine_trace: tuple[float, ...] | None = None
    refine_converged: bool | None = None
    if mode == "gradient-refined":
        w, refine_trace, refine_converged = _refine_hidden_weights(
            w, u, v, activation, cfg, max_refine_steps, refine_tol
        )
    out, _, _ = _output_solve_loss(w, u, v, activation, cfg)
    return DSNBrick(
        hidden_weights=w,
        output_weights=out,
        activation=activation,
        refine_converged=refine_converged,
        refine_trace=refine_trace,
    )


def dsn_objective_gradient(brick_or_weights, inputs, targets, activation=None, cfg=EXACT_SVD):
    """Analytic gradient of the refined DSN objective at the given hidden
    weights (output weights re-solved in closed form).  Exposed for gradient
    checking against finite differences."""
    if isinstance(brick_or_weights, DSNBrick):
        w = np.asarray(brick_or_weights.hidden_weights, dtype=float)
        activation = brick_or_weights.activation
    else:
        w = np.asarray(brick_or_weights, dtype=float)
        if activation is None:
            raise ValueError("activation is required when passing raw weights")
    u, v = _as_pairs(inputs, targets)
    out, h, _ = _output_solve_loss(w, u, v, activation, cfg)
    return 2.0 * ((out.T @ (out @ h - v)) * activation_derivative(activation, w @ u)) @ u.T


def dsn_objective(weights, inputs, targets, activation: Activation, cfg: InverseConfig = EXACT_SVD) -> float:
    """Refined DSN objective Q(w) with output weights re-solved in closed form."""
    u, v = _as_pairs(inputs, targets)
    w = np.asarray(weights, dtype=float)
    return _output_solve_loss(w, u, v, activation, cfg)[2]


def _train_dual(inputs, targets, specs, lam: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Dual-form ridge on the product kernel of ``specs``: returns the retained
    inputs, the coefficients ``targets @ (K + lam I)^-1`` and the ridge."""
    u, v = _as_pairs(inputs, targets)
    if any(spec.dim != u.shape[0] for spec in specs):
        raise ValueError("kernel spec does not match the input dimension")
    if not lam >= 0.0:
        raise ValueError("lam must be >= 0")
    lam = float(lam)
    scaled = _scaled(specs, u)
    # a separate right-hand copy keeps numpy's general matrix product: for
    # ``s.T @ s`` on one buffer it switches to a symmetric product that
    # rounds differently
    gram = _product_gaussian(scaled, [(s.copy(), n) for s, n in scaled])
    if lam > 0.0:
        # gram + lam I in place: the off-diagonal entries are >= 0, so the
        # zeros that sum would add leave them unchanged
        gram.flat[:: gram.shape[0] + 1] += lam
        return u, np.linalg.solve(gram, v.T).T, lam
    # ridge-free fit: exact interpolation when the Gram matrix allows it,
    # minimum-norm pseudo-inverse solution otherwise
    return u, v @ pseudo_inverse(gram, EXACT_SVD), lam


def train_kernel_brick(inputs, targets, spec: KernelSpec, lam: float) -> KernelBrick:
    """Kernel ridge in dual form: coefficients ``targets @ (K + lam I)^-1``."""
    u, dual, lam = _train_dual(inputs, targets, (spec,), lam)
    return KernelBrick(training_inputs=u, dual_coefficients=dual, spec=spec, ridge=lam)


def train_kt_brick(
    inputs, targets, spec_a: KernelSpec, spec_b: KernelSpec, lam: float
) -> KernelTensorBrick:
    """Kernel-tensor brick: dual-form ridge on the product kernel ``K_a * K_b``."""
    u, dual, lam = _train_dual(inputs, targets, (spec_a, spec_b), lam)
    return KernelTensorBrick(
        training_inputs=u, dual_coefficients=dual, spec_a=spec_a, spec_b=spec_b, ridge=lam
    )


def train_tensor_brick(
    inputs,
    targets,
    hidden_size_a: int,
    hidden_size_b: int,
    activation: Activation = Activation.SIGMOID,
    cfg: InverseConfig = EXACT_SVD,
    seed: int = 0,
    hidden_weights_a=None,
    hidden_weights_b=None,
) -> TensorBrick:
    """Train a tensor brick on flattened outer-product features.

    Both hidden layers are drawn from the seeded generator (a first, then b);
    explicit weights override the random initialization.
    """
    u, v = _as_pairs(inputs, targets)
    if hidden_size_a < 1 or hidden_size_b < 1:
        raise ValueError("hidden sizes must be >= 1")
    rng = np.random.default_rng(seed)
    wa = _hidden_layer(rng, hidden_size_a, u.shape[0], hidden_weights_a)
    wb = _hidden_layer(rng, hidden_size_b, u.shape[0], hidden_weights_b)
    out = v @ pseudo_inverse(_tensor_features(wa, wb, activation, u), cfg)
    return TensorBrick(
        hidden_weights_a=wa, hidden_weights_b=wb, output_weights=out, activation=activation
    )
