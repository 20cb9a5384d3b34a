"""Command-line surface.

Subcommands: simulate, fit-lv, train, predict, rollout, horizon,
count-params, usle.  Every run echoes its fully resolved configuration
(seed included) into a JSON report, so any report can be replayed
bit-identically.  Module errors exit nonzero with a machine-readable error
JSON on stderr.

Environment overrides (the only ones): ECOCAST_OUTPUT_DIR prefixes relative
output paths, ECOCAST_VERBOSE enables progress lines on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from .bricks import Activation
from .datasets import (
    TimeSeriesSet,
    build_training_pairs,
    default_scaling,
    flatten_context,
    optimize_scaling,
    usle_soil_loss,
)
from .io import (
    load_model,
    read_ascii_grid,
    read_timeseries_csv,
    save_model,
    write_ascii_grid,
    write_timeseries_csv,
)
from .linalg import EXACT_SVD, InverseConfig, tikhonov, truncated
from .lotka import LVParams, PopulationTrajectory, first_integral, fit_lv, simulate_lv
from .stack import BrickConfig, InputSchema, count_free_parameters, train_stack
from .stability import estimate_horizon, rollout, split_train_validate

__all__ = ["RunConfig", "config_from_dict", "main", "run"]

_OUTPUT_DIR_ENV = "ECOCAST_OUTPUT_DIR"
_VERBOSE_ENV = "ECOCAST_VERBOSE"


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run configuration; mirrored 1:1 by the CLI flags."""

    command: str
    seed: int = 0
    # paths
    series: str | None = None
    grids: tuple[str, ...] = ()
    model_in: str | None = None
    model_out: str | None = None
    output: str | None = None
    errors_output: str | None = None
    report: str | None = None
    reference: str | None = None
    # simulator / fit
    alpha: float = 1.1
    beta: float = 0.4
    gamma: float = 0.4
    delta: float = 0.1
    prey0: float = 10.0
    predators0: float = 5.0
    dt: float = 1e-3
    steps: int = 1000
    clamp_nonneg: bool = False
    inverse_mode: str = "exact-svd"
    truncation_rank: int | None = None
    truncation_threshold: float | None = None
    tikhonov_lam: float = 0.0
    # stack
    brick_kind: str = "kernel"
    bricks: int = 1
    ridge: float = 0.0
    ridges: tuple[float, ...] | None = None
    hidden_size: int = 32
    hidden_size_a: int = 8
    hidden_size_b: int = 8
    activation: str = "sigmoid"
    dsn_mode: str = "fixed-random"
    rho_grid: tuple[float, ...] = ()
    split_fraction: float = 1.0
    epsilon: float = 0.2
    bound: float | None = None
    # ingestion
    interpolate: bool = False
    nodata_fill: str | None = None
    # counting
    series_count: int | None = None
    map_pixels: tuple[int, ...] = ()
    series_length: int | None = None
    per_brick_scaling: bool = False


def config_from_dict(d: dict) -> RunConfig:
    """Rebuild a RunConfig from the ``config`` block of an emitted report."""
    kwargs = {}
    for f in dataclasses.fields(RunConfig):
        if f.name not in d:
            continue
        value = d[f.name]
        if isinstance(value, list):
            value = tuple(value)
        kwargs[f.name] = value
    return RunConfig(**kwargs)


def _verbose() -> bool:
    value = os.environ.get(_VERBOSE_ENV, "")
    return value not in ("", "0")


def _log(message: str) -> None:
    if _verbose():
        print(message, file=sys.stderr)


def _emit_report(cfg: RunConfig, outputs: dict) -> dict:
    doc = {"command": cfg.command, "config": dataclasses.asdict(cfg), "outputs": outputs}
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if cfg.report:
        with open(cfg.report, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return doc


def _inverse_config(cfg: RunConfig) -> InverseConfig:
    if cfg.inverse_mode == "exact-svd":
        return EXACT_SVD
    if cfg.inverse_mode == "truncated-svd":
        if cfg.truncation_rank is not None:
            return truncated(int(cfg.truncation_rank))
        if cfg.truncation_threshold is not None:
            return truncated(float(cfg.truncation_threshold))
        raise ValueError("truncated-svd needs --truncation-rank or --truncation-threshold")
    if cfg.inverse_mode == "tikhonov":
        return tikhonov(cfg.tikhonov_lam)
    raise ValueError(f"unknown inverse mode {cfg.inverse_mode!r}")


def _nodata_fill(cfg: RunConfig):
    if cfg.nodata_fill is None:
        return None
    if cfg.nodata_fill == "mean":
        return "mean"
    return float(cfg.nodata_fill)


def _read_maps(cfg: RunConfig):
    return tuple(read_ascii_grid(p, nodata_fill=_nodata_fill(cfg)) for p in cfg.grids)


def _context_for(model, maps) -> np.ndarray:
    sizes = tuple(m.pixel_count for m in maps)
    if sizes != model.schema.context_sizes:
        raise ValueError(
            f"context grids {sizes} do not match the model schema {model.schema.context_sizes}"
        )
    return flatten_context(maps)[0]


def _brick_configs(cfg: RunConfig) -> list[BrickConfig]:
    if cfg.bricks < 1:
        raise ValueError("--bricks must be >= 1")
    if cfg.ridges is not None and len(cfg.ridges) != cfg.bricks:
        raise ValueError(f"--ridges needs {cfg.bricks} comma-separated values")
    ridges = cfg.ridges if cfg.ridges is not None else (cfg.ridge,) * cfg.bricks
    activation = Activation(cfg.activation)
    return [
        BrickConfig(
            kind=cfg.brick_kind,
            ridge=float(r),
            hidden_size=cfg.hidden_size,
            hidden_size_a=cfg.hidden_size_a,
            hidden_size_b=cfg.hidden_size_b,
            activation=activation,
            mode=cfg.dsn_mode,
        )
        for r in ridges
    ]


def _require(cfg: RunConfig, **paths) -> None:
    for flag, value in paths.items():
        if not value:
            raise ValueError(f"--{flag.replace('_', '-')} is required for {cfg.command}")


def _write_curve_csv(path, times, curve, label: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"step,t,{label}\n")
        for i, e in enumerate(curve):
            fh.write(f"{i + 1},{repr(float(times[i]))},{repr(float(e))}\n")


def _trajectory_set(traj: PopulationTrajectory) -> TimeSeriesSet:
    return TimeSeriesSet(
        names=("prey", "predators"),
        times=traj.times,
        values=np.vstack([traj.prey, traj.predators]),
    )


def _cmd_simulate(cfg: RunConfig) -> dict:
    _require(cfg, output=cfg.output)
    params = LVParams(cfg.alpha, cfg.beta, cfg.gamma, cfg.delta)
    traj = simulate_lv(params, cfg.prey0, cfg.predators0, cfg.dt, cfg.steps)
    write_timeseries_csv(_trajectory_set(traj), cfg.output)
    outputs: dict = {"csv": cfg.output, "points": len(traj)}
    if np.all(traj.prey > 0.0) and np.all(traj.predators > 0.0):
        h = first_integral(params, traj.prey, traj.predators)
        outputs["first_integral_drift"] = float((h.max() - h.min()) / abs(h[0]))
    return outputs


def _traj_from_csv(cfg: RunConfig) -> PopulationTrajectory:
    """The trajectory of a CSV whose series are named prey and predators,
    in either column order."""
    ts = read_timeseries_csv(cfg.series, interpolate=cfg.interpolate)
    if sorted(ts.names) != ["predators", "prey"]:
        raise ValueError(
            f"fit-lv expects exactly the series 'prey' and 'predators'; file has {ts.names}"
        )
    return PopulationTrajectory(
        times=ts.times, prey=ts.series("prey"), predators=ts.series("predators")
    )


def _cmd_fit_lv(cfg: RunConfig) -> dict:
    _require(cfg, series=cfg.series)
    traj = _traj_from_csv(cfg)
    params = fit_lv(traj, clamp_nonneg=cfg.clamp_nonneg, cfg=_inverse_config(cfg))
    return {
        "alpha": params.alpha,
        "beta": params.beta,
        "gamma": params.gamma,
        "delta": params.delta,
        "clamped": params.clamped,
    }


def _one_step_rmse(model, inputs, targets, context) -> float:
    ns = model.schema.n_series
    pred = model.predict_columns(inputs[:ns], context)
    diff = pred - targets
    return float(np.sqrt(np.mean(diff * diff)))


def _cmd_train(cfg: RunConfig) -> dict:
    _require(cfg, series=cfg.series, model_out=cfg.model_out)
    ts = read_timeseries_csv(cfg.series, interpolate=cfg.interpolate)
    maps = _read_maps(cfg)
    if cfg.split_fraction >= 1.0:
        train_ts, val_ts = ts, None
    else:
        train_ts, val_ts = split_train_validate(ts, cfg.split_fraction)
    inputs, targets, schema = build_training_pairs(train_ts, maps)
    configs = _brick_configs(cfg)
    scaling = default_scaling(train_ts, maps)
    outputs: dict = {}
    if cfg.rho_grid:
        _log("searching scale factors over the candidate grid")
        search = optimize_scaling(
            inputs,
            targets,
            schema,
            configs,
            grid=cfg.rho_grid,
            split_fraction=min(cfg.split_fraction, 0.8),
            seed=cfg.seed,
            initial=scaling,
        )
        scaling = search.scaling
        configs = [dataclasses.replace(c, ridge=r) for c, r in zip(configs, search.ridges)]
        outputs["scale_search"] = {
            "loss_trace": list(search.loss_trace),
            "evaluations": search.evaluations,
            "ridges": list(search.ridges),
        }
    _log(f"training {cfg.bricks} brick(s) on {inputs.shape[1]} pairs")
    model = train_stack(
        inputs, targets, schema, configs, n_bricks=cfg.bricks, seed=cfg.seed, scaling=scaling
    )
    save_model(model, cfg.model_out)
    context = _context_for(model, maps)
    outputs["model"] = cfg.model_out
    outputs["training_pairs"] = int(inputs.shape[1])
    outputs["training_rmse"] = _one_step_rmse(model, inputs, targets, context)
    if val_ts is not None:
        val_inputs, val_targets, _ = build_training_pairs(val_ts, maps)
        outputs["validation_points"] = int(val_ts.n_points)
        outputs["validation_rmse"] = _one_step_rmse(model, val_inputs, val_targets, context)
    return outputs


def _model_series(model, path, cfg: RunConfig) -> TimeSeriesSet:
    """A series CSV that carries the model's series names in its order."""
    ts = read_timeseries_csv(path, interpolate=cfg.interpolate)
    if ts.names != model.schema.series_names:
        raise ValueError(
            f"series names {ts.names} in {path} do not match the model schema "
            f"{model.schema.series_names}"
        )
    return ts


def _model_inputs(cfg: RunConfig):
    """The model, the series set and the context vector of a model command."""
    model = load_model(cfg.model_in)
    ts = _model_series(model, cfg.series, cfg)
    return model, ts, _context_for(model, _read_maps(cfg))


def _cmd_predict(cfg: RunConfig) -> dict:
    _require(cfg, series=cfg.series, model_in=cfg.model_in, output=cfg.output)
    model, ts, context = _model_inputs(cfg)
    predictions = model.predict_columns(ts.values, context)
    out = TimeSeriesSet(
        names=model.schema.series_names,
        times=ts.times + ts.dt,
        values=predictions,
        epoch=ts.epoch,
    )
    write_timeseries_csv(out, cfg.output)
    return {"csv": cfg.output, "points": out.n_points}


def _cmd_rollout(cfg: RunConfig) -> dict:
    _require(cfg, series=cfg.series, model_in=cfg.model_in, output=cfg.output)
    model, ts, context = _model_inputs(cfg)
    reference = None
    if cfg.reference:
        reference = _model_series(model, cfg.reference, cfg).values
    result = rollout(
        model,
        ts.values[:, -1],
        context,
        steps=cfg.steps,
        reference=reference,
        bound=cfg.bound,
    )
    k = result.steps_completed
    times = ts.times[-1] + ts.dt * np.arange(1, k + 1)
    if k:
        out = TimeSeriesSet(
            names=model.schema.series_names, times=times, values=result.predictions, epoch=ts.epoch
        )
        write_timeseries_csv(out, cfg.output)
    outputs: dict = {
        "csv": cfg.output,
        "steps_requested": cfg.steps,
        "steps_completed": k,
        "diverged": result.diverged,
    }
    if result.errors is not None:
        outputs["errors"] = [float(e) for e in result.errors]
        if cfg.errors_output:
            _write_curve_csv(cfg.errors_output, times, result.errors, "rmse")
            outputs["errors_csv"] = cfg.errors_output
    return outputs


def _cmd_horizon(cfg: RunConfig) -> dict:
    _require(cfg, series=cfg.series, model_in=cfg.model_in)
    if not 0.0 < cfg.split_fraction < 1.0:
        raise ValueError("horizon needs --split-fraction in (0, 1)")
    model, ts, context = _model_inputs(cfg)
    train_ts, val_ts = split_train_validate(ts, cfg.split_fraction)
    report = estimate_horizon(
        model,
        val_ts,
        context,
        epsilon=cfg.epsilon,
        start=train_ts.values[:, -1],
    )
    outputs: dict = {
        "horizon": report.horizon,
        "epsilon": report.epsilon,
        "validation_points": int(val_ts.n_points),
        "spectral_radius": report.spectral_radius,
        "error_curve": [float(e) for e in report.error_curve],
    }
    if cfg.errors_output:
        span = report.error_curve.size
        _write_curve_csv(cfg.errors_output, val_ts.times[:span], report.error_curve, "normalized_rmse")
        outputs["errors_csv"] = cfg.errors_output
    return outputs


def _cmd_count_params(cfg: RunConfig) -> dict:
    if cfg.series_count is None or cfg.series_count < 1:
        raise ValueError("--series-count must be a positive integer")
    schema = InputSchema(
        series_names=tuple(f"s{i}" for i in range(cfg.series_count)),
        context_names=tuple(f"map{i}" for i in range(len(cfg.map_pixels))),
        context_sizes=cfg.map_pixels,
    )
    counts = count_free_parameters(
        schema,
        n_bricks=cfg.bricks,
        brick_kind=cfg.brick_kind,
        per_brick_scaling=cfg.per_brick_scaling,
        series_length=cfg.series_length,
    )
    return dataclasses.asdict(counts)


def _cmd_usle(cfg: RunConfig) -> dict:
    _require(cfg, output=cfg.output)
    if len(cfg.grids) != 5:
        raise ValueError("usle needs exactly five --grid maps in order R, K, LS, C, P")
    maps = _read_maps(cfg)
    product = usle_soil_loss(*maps)
    write_ascii_grid(product, cfg.output)
    return {"grid": cfg.output, "rows": product.n_rows, "cols": product.n_cols}


_COMMANDS = {
    "simulate": _cmd_simulate,
    "fit-lv": _cmd_fit_lv,
    "train": _cmd_train,
    "predict": _cmd_predict,
    "rollout": _cmd_rollout,
    "horizon": _cmd_horizon,
    "count-params": _cmd_count_params,
    "usle": _cmd_usle,
}


def run(cfg: RunConfig) -> dict:
    """Execute one command and emit its report; returns the report document."""
    handler = _COMMANDS.get(cfg.command)
    if handler is None:
        raise ValueError(f"unknown command {cfg.command!r}")
    outputs = handler(cfg)
    return _emit_report(cfg, outputs)


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(",") if v.strip())


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecocast",
        description="One-step ecosystem forecasting from stacked shallow learners",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--report", help="write the JSON report here instead of stdout")

    def add_model_inputs(p: argparse.ArgumentParser) -> None:
        p.add_argument("--series", required=True)
        p.add_argument("--model-in", required=True)
        p.add_argument("--grid", dest="grids", action="append", default=[],
                       help="context map (repeatable)")
        p.add_argument("--interpolate", action="store_true")
        p.add_argument("--nodata-fill", help="'mean' or a constant for NODATA cells")

    p = sub.add_parser("simulate", help="integrate the predator-prey model to CSV")
    add_common(p)
    p.add_argument("--alpha", type=float, default=1.1)
    p.add_argument("--beta", type=float, default=0.4)
    p.add_argument("--gamma", type=float, default=0.4)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--prey0", type=float, default=10.0)
    p.add_argument("--predators0", type=float, default=5.0)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--output", required=True, help="trajectory CSV path")

    p = sub.add_parser("fit-lv", help="fit predator-prey rate constants from a CSV")
    add_common(p)
    p.add_argument("--series", required=True, help="CSV with prey and predator columns")
    p.add_argument("--clamp-nonneg", action="store_true")
    p.add_argument("--interpolate", action="store_true")
    p.add_argument("--inverse-mode", default="exact-svd",
                   choices=["exact-svd", "truncated-svd", "tikhonov"])
    p.add_argument("--truncation-rank", type=int)
    p.add_argument("--truncation-threshold", type=float)
    p.add_argument("--tikhonov-lam", type=float, default=0.0)

    p = sub.add_parser("train", help="train a stacked one-step predictor")
    add_common(p)
    p.add_argument("--series", required=True)
    p.add_argument("--grid", dest="grids", action="append", default=[],
                   help="context map (repeatable)")
    p.add_argument("--bricks", type=int, default=1)
    p.add_argument("--brick-kind", default="kernel",
                   choices=["linear", "dsn", "kernel", "tensor", "kernel-tensor"])
    p.add_argument("--ridge", type=float, default=0.0)
    p.add_argument("--ridges", type=_floats, help="comma-separated per-brick ridges")
    p.add_argument("--hidden-size", type=int, default=32)
    p.add_argument("--hidden-size-a", type=int, default=8)
    p.add_argument("--hidden-size-b", type=int, default=8)
    p.add_argument("--activation", default="sigmoid",
                   choices=[a.value for a in Activation])
    p.add_argument("--dsn-mode", default="fixed-random",
                   choices=["fixed-random", "gradient-refined"])
    p.add_argument("--rho-grid", type=_floats, default=(),
                   help="comma-separated multipliers; enables the scale search")
    p.add_argument("--split-fraction", type=float, default=1.0,
                   help="train on the leading fraction (1.0 = use everything)")
    p.add_argument("--interpolate", action="store_true")
    p.add_argument("--nodata-fill", help="'mean' or a constant for NODATA cells")
    p.add_argument("--model-out", required=True)

    p = sub.add_parser("predict", help="one-step predictions for every input state")
    add_common(p)
    add_model_inputs(p)
    p.add_argument("--output", required=True)

    p = sub.add_parser("rollout", help="iterate the predictor from the last input state")
    add_common(p)
    add_model_inputs(p)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--reference", help="CSV with ground-truth series for the error curve")
    p.add_argument("--bound", type=float, help="divergence bound override")
    p.add_argument("--output", required=True, help="predicted trajectory CSV")
    p.add_argument("--errors-output", help="per-step error curve CSV")

    p = sub.add_parser("horizon", help="reliability horizon against a held-out suffix")
    add_common(p)
    add_model_inputs(p)
    p.add_argument("--split-fraction", type=float, default=0.8)
    p.add_argument("--epsilon", type=float, default=0.2)
    p.add_argument("--errors-output", help="normalized error curve CSV")

    p = sub.add_parser("count-params", help="free-parameter and data-point arithmetic")
    add_common(p)
    p.add_argument("--series-count", type=int, required=True)
    p.add_argument("--map-pixels", dest="map_pixels", type=int, action="append", default=[],
                   help="pixel count of one context map (repeatable)")
    p.add_argument("--bricks", type=int, default=1)
    p.add_argument("--brick-kind", default="kernel",
                   choices=["linear", "dsn", "kernel", "tensor", "kernel-tensor"])
    p.add_argument("--per-brick-scaling", action="store_true")
    p.add_argument("--series-length", type=int)

    p = sub.add_parser("usle", help="pointwise soil-loss product of five factor maps")
    add_common(p)
    p.add_argument("--grid", dest="grids", action="append", default=[], required=True,
                   help="factor maps in order R, K, LS, C, P (five times)")
    p.add_argument("--nodata-fill")
    p.add_argument("--output", required=True)

    return parser


def _apply_output_dir(cfg: RunConfig) -> RunConfig:
    out_dir = os.environ.get(_OUTPUT_DIR_ENV)
    if not out_dir:
        return cfg
    updates = {}
    for name in ("output", "errors_output", "report", "model_out"):
        value = getattr(cfg, name)
        if value and not os.path.isabs(value):
            updates[name] = os.path.join(out_dir, value)
    return dataclasses.replace(cfg, **updates) if updates else cfg


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    values = {k: v for k, v in vars(args).items() if v is not None}
    cfg = _apply_output_dir(config_from_dict(values))
    try:
        run(cfg)
    except Exception as exc:  # CLI boundary: every module error becomes error JSON
        doc = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(doc, sort_keys=True), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
