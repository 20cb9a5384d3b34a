"""Trained kernel and kernel-tensor stacks against their definition
(``oracle.py``), on the validation columns of a 301-point Lotka-Volterra run
(dt 0.05, the leading 80 % for training) with no map or one map drawn from
U(100, 300), under the default scaling."""

import numpy as np
import pytest
from oracle import DUAL_KINDS, dual_stack_predictions

from ecocast.datasets import (
    ContextMap,
    build_training_pairs,
    default_scaling,
    flatten_context,
    training_schema,
)
from ecocast.lotka import REFERENCE_PARAMS, simulate_lv
from ecocast.stability import split_train_validate
from ecocast.stack import BrickConfig, train_stack

# The largest deviation from the oracle, relative to each series' largest
# magnitude, over both kinds and 1-3 bricks, per map side and ridge: the
# deviation measured when the bound was set, rounded up to one significant
# digit.  The map adds only rounding (its rows cancel in every distance), yet
# the library's distances ||a||^2 + ||b||^2 - 2 a.b carry the map's norm, so
# its deviation grows with the pixel count.  Tighten a bound; never loosen it.
BOUNDS = {
    (0, 1e-6): 4e-13,  # measured 3.6e-13
    (0, 1e-3): 2e-14,  # 1.3e-14
    (10, 1e-6): 7e-12,  # 6.3e-12
    (10, 1e-3): 2e-13,  # 1.7e-13
    (40, 1e-6): 3e-10,  # 2.7e-10
    (40, 1e-3): 2e-11,  # 1.0e-11
}


def relative_deviation(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.max(np.max(np.abs(got - want), axis=1) / np.max(np.abs(want), axis=1)))


@pytest.mark.parametrize("side, ridge", BOUNDS, ids=[f"map{s}-ridge{r:g}" for s, r in BOUNDS])
@pytest.mark.parametrize("kind", DUAL_KINDS)
def test_stack_predicts_as_its_definition(kind, side, ridge):
    lv = simulate_lv(REFERENCE_PARAMS, 10.0, 5.0, 0.05, 300)
    train_ts, val_ts = split_train_validate(lv, 0.8)
    values = np.random.default_rng(side).uniform(100.0, 300.0, (side, side))
    maps = [ContextMap(name="dtm", values=values)] if side else []
    inputs, targets, _ = build_training_pairs(train_ts)
    schema, context = training_schema(train_ts, maps), flatten_context(maps)
    scaling = default_scaling(train_ts, maps)
    queries = val_ts.values
    oracle = dual_stack_predictions(kind, 3, ridge, inputs, targets, queries, schema, scaling,
                                    context)
    for n_bricks, want in enumerate(oracle, start=1):
        model = train_stack(inputs, targets, schema, BrickConfig(kind=kind, ridge=ridge),
                            n_bricks=n_bricks, scaling=scaling, context=context)
        got = model.predict_columns(queries, context)
        assert relative_deviation(got, want) <= BOUNDS[side, ridge], n_bricks
