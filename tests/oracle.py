"""A reference for trained stacks, built from their definition alone.

It shares no code with the library's training or prediction paths, and takes
none of their shortcuts: no folded context, no merged spec, no unit-scale
skip, no norm expansion.  It covers the dual kinds, ``kernel`` and
``kernel-tensor``:

* each dataset is scaled as ``(x - offset) / scale``: a series row by its
  own pair of the scaling set, a context pixel by its map's;
* brick 1 reads ``[series; context]`` and brick k >= 2 reads
  ``[series; context; previous output]``, the previous output being brick
  k - 1's on the same columns (on the training columns, its fit to them);
* ``K[i, j] = exp(-sum_r (x[r, i] - z[r, j]) ** 2)``, formed from direct
  differences, so a context row that every column shares adds exactly 0; a
  kernel-tensor brick's kernel is the product of two such kernels, ``K ** 2``;
* the dual coefficients ``A`` solve ``(K + ridge I) A.T = V.T``.
"""

from __future__ import annotations

import numpy as np

DUAL_KINDS = ("kernel", "kernel-tensor")


def gaussian(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``K[i, j]`` for the columns ``x[:, i]`` and ``z[:, j]``, one row of
    squared differences at a time."""
    d2 = np.zeros((x.shape[1], z.shape[1]))
    for xr, zr in zip(x, z):
        d2 += (xr[:, None] - zr[None, :]) ** 2
    return np.exp(-d2)


def dual_stack_predictions(kind, n_bricks, ridge, inputs, targets, queries, schema, scaling,
                           context=()) -> list[np.ndarray]:
    """Raw one-step predictions at the raw series columns ``queries`` of the
    ``kind`` stacks of 1 to ``n_bricks`` bricks at ``ridge``, each trained on
    the raw series columns ``inputs`` and their next states ``targets``, all
    with the raw ``context`` vector."""
    if kind not in DUAL_KINDS:
        raise ValueError(f"the oracle covers {DUAL_KINDS}, not {kind!r}")
    ns = schema.n_series
    offsets, scales = scaling.offsets[:ns, None], scaling.scales[:ns, None]
    pixel_offsets = np.repeat(scaling.offsets[ns:], schema.context_sizes)
    pixel_scales = np.repeat(scaling.scales[ns:], schema.context_sizes)
    context = (np.asarray(context, dtype=float) - pixel_offsets) / pixel_scales

    def first_layout(series: np.ndarray) -> np.ndarray:
        scaled = (series - offsets) / scales
        return np.vstack([scaled, np.repeat(context[:, None], series.shape[1], axis=1)])

    power = 1 if kind == "kernel" else 2
    x, q = first_layout(inputs), first_layout(queries)
    v = (targets - offsets) / scales
    n, x_k, q_k, predictions = x.shape[1], x, q, []
    for _ in range(n_bricks):
        k = gaussian(x_k, np.hstack([x_k, q_k])) ** power
        gram, cross = k[:, :n], k[:, n:]
        dual = np.linalg.solve(gram + ridge * np.eye(n), v.T).T
        fit, out = dual @ gram, dual @ cross
        predictions.append(out * scales + offsets)
        x_k, q_k = np.vstack([x, fit]), np.vstack([q, out])
    return predictions
