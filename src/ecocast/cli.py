"""Command-line surface.

Subcommands: simulate, fit-lv, train, predict, rollout, horizon,
count-params, usle.  Every run echoes its fully resolved configuration
(seed included) into a JSON report, so any report can be replayed
bit-identically.  Rollout and horizon reports say why and where the rollout
stopped in a diagnostics block, and a searched train with a validation split
gives there the validation RMSE of its starting point.  Module errors exit
nonzero with a machine-readable error JSON on stderr.

Environment overrides (the only ones): ECOCAST_OUTPUT_DIR prefixes relative
output paths, ECOCAST_VERBOSE enables progress lines on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bricks import BRICK_CLASSES, DSN_MODES, Activation
from .datasets import (
    TimeSeriesSet,
    build_training_pairs,
    default_scaling,
    flatten_context,
    optimize_scaling,
    training_schema,
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
from .lotka import (
    REFERENCE_PARAMS,
    LVParams,
    PopulationTrajectory,
    first_integral,
    fit_lv,
    simulate_lv,
)
from .stack import (
    BrickConfig,
    InputSchema,
    count_free_parameters,
    take_training_predictions,
    train_stack,
)
from .stability import estimate_horizon, rollout, split_train_validate

__all__ = ["RunConfig", "config_from_dict", "main", "run"]

_OUTPUT_DIR_ENV = "ECOCAST_OUTPUT_DIR"
_VERBOSE_ENV = "ECOCAST_VERBOSE"


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run configuration; mirrored 1:1 by the CLI flags, whose
    defaults all live here.  ``steps`` (100 for rollout, else 1000) and
    ``split_fraction`` (0.8 for horizon, else 1.0) resolve from the command."""

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
    alpha: float = REFERENCE_PARAMS.alpha
    beta: float = REFERENCE_PARAMS.beta
    gamma: float = REFERENCE_PARAMS.gamma
    delta: float = REFERENCE_PARAMS.delta
    prey0: float = 10.0
    predators0: float = 5.0
    dt: float = 1e-3
    steps: int | None = None
    clamp_nonneg: bool = False
    # stack
    brick_kind: str = BrickConfig.kind
    bricks: int = 1
    ridge: float = BrickConfig.ridge
    hidden_size: int = BrickConfig.hidden_size
    hidden_size_a: int = BrickConfig.hidden_size_a
    hidden_size_b: int = BrickConfig.hidden_size_b
    activation: str = BrickConfig.activation.value
    dsn_mode: str = BrickConfig.mode
    rho_grid: tuple[float, ...] = ()
    split_fraction: float | None = None
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

    def __post_init__(self) -> None:
        if self.steps is None:
            object.__setattr__(self, "steps", 100 if self.command == "rollout" else 1000)
        if self.split_fraction is None:
            object.__setattr__(self, "split_fraction", 0.8 if self.command == "horizon" else 1.0)


# Retired keys, which older reports hold, with the one value of each that
# replays unchanged: fit-lv's solver keys, which the exact solve honours, and
# the per-brick ridges, which --ridge covers
_RETIRED_KEYS = {"inverse_mode": "exact-svd", "truncation_rank": None,
                 "truncation_threshold": None, "tikhonov_lam": 0.0, "ridges": None}


def config_from_dict(d: dict) -> RunConfig:
    """Rebuild a RunConfig from the ``config`` block of an emitted report.
    A key that RunConfig lacks raises ``ValueError``, unless it is a retired
    key at its old default, which changes nothing."""
    names = {f.name for f in dataclasses.fields(RunConfig)}
    kwargs = {}
    for key, value in d.items():
        if key in names:
            kwargs[key] = tuple(value) if isinstance(value, list) else value
        elif key not in _RETIRED_KEYS:
            raise ValueError(f"unknown config key {key!r}")
        elif value != _RETIRED_KEYS[key]:
            raise ValueError(f"retired config key {key!r} replays only as {_RETIRED_KEYS[key]!r}")
    return RunConfig(**kwargs)


def _verbose() -> bool:
    value = os.environ.get(_VERBOSE_ENV, "")
    return value not in ("", "0")


def _log(message: str) -> None:
    if _verbose():
        print(message, file=sys.stderr)


def _emit_report(cfg: RunConfig, outputs: dict, diagnostics: dict | None = None) -> dict:
    doc = {"command": cfg.command, "config": dataclasses.asdict(cfg), "outputs": outputs}
    if diagnostics is not None:
        doc["diagnostics"] = diagnostics
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if cfg.report:
        with open(cfg.report, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return doc


def _nodata_fill(cfg: RunConfig):
    if cfg.nodata_fill in (None, "mean"):
        return cfg.nodata_fill
    try:
        return float(cfg.nodata_fill)
    except ValueError:
        raise ValueError(f"--nodata-fill takes 'mean' or a number; got {cfg.nodata_fill!r}") from None


def _read_maps(cfg: RunConfig):
    fill = _nodata_fill(cfg)
    return tuple(read_ascii_grid(p, nodata_fill=fill) for p in cfg.grids)


def _context_for(model, maps) -> np.ndarray:
    sizes = tuple(m.pixel_count for m in maps)
    if sizes != model.schema.context_sizes:
        raise ValueError(
            f"context grids {sizes} do not match the model schema {model.schema.context_sizes}"
        )
    return flatten_context(maps)


def _brick_config(cfg: RunConfig) -> BrickConfig:
    if cfg.bricks < 1:
        raise ValueError("--bricks must be >= 1")
    return BrickConfig(
        kind=cfg.brick_kind,
        ridge=float(cfg.ridge),
        hidden_size=cfg.hidden_size,
        hidden_size_a=cfg.hidden_size_a,
        hidden_size_b=cfg.hidden_size_b,
        activation=Activation(cfg.activation),
        mode=cfg.dsn_mode,
    )


def _require(cfg: RunConfig, **paths) -> None:
    for flag, value in paths.items():
        if not value:
            raise ValueError(f"--{flag.replace('_', '-')} is required for {cfg.command}")


def _write_curve_csv(path, times, curve, label: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"step,t,{label}\n")
        for i, e in enumerate(curve):
            fh.write(f"{i + 1},{repr(float(times[i]))},{repr(float(e))}\n")


def _cmd_simulate(cfg: RunConfig) -> dict:
    _require(cfg, output=cfg.output)
    params = LVParams(cfg.alpha, cfg.beta, cfg.gamma, cfg.delta)
    traj = simulate_lv(params, cfg.prey0, cfg.predators0, cfg.dt, cfg.steps)
    write_timeseries_csv(traj, cfg.output)
    outputs: dict = {"csv": cfg.output, "points": traj.n_points}
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
    params = fit_lv(traj, clamp_nonneg=cfg.clamp_nonneg)
    return {
        "alpha": params.alpha,
        "beta": params.beta,
        "gamma": params.gamma,
        "delta": params.delta,
        "clamped": params.clamped,
    }


def _rmse(predictions, targets) -> float:
    diff = predictions - targets
    return float(np.sqrt(np.mean(diff * diff)))


def _cmd_train(cfg: RunConfig) -> dict:
    _require(cfg, series=cfg.series, model_out=cfg.model_out)
    if not 0.0 < cfg.split_fraction <= 1.0:
        raise ValueError("train needs --split-fraction in (0, 1]")
    ts = read_timeseries_csv(cfg.series, interpolate=cfg.interpolate)
    maps = _read_maps(cfg)
    if cfg.split_fraction >= 1.0:
        train_ts, val_ts = ts, None
    else:
        train_ts, val_ts = split_train_validate(ts, cfg.split_fraction)
    inputs, targets, _ = build_training_pairs(train_ts)
    schema, context = training_schema(train_ts, maps), flatten_context(maps)
    configs = _brick_config(cfg)
    scaling = default_scaling(train_ts, maps)

    def fit(scaling, configs):
        return train_stack(inputs, targets, schema, configs, n_bricks=cfg.bricks, seed=cfg.seed,
                           scaling=scaling, context=context)

    def validation_rmse(model) -> float:
        return _rmse(model.predict_columns(val_ts.values[:, :-1], context), val_ts.values[:, 1:])

    outputs: dict = {}
    diagnostics = None
    if cfg.rho_grid and val_ts is not None:
        # the model without the search, so that a search that harms shows
        diagnostics = {"initial_validation_rmse": validation_rmse(fit(scaling, configs))}
    if cfg.rho_grid:
        _log("searching scale factors over the candidate grid")
        search = optimize_scaling(
            inputs,
            targets,
            schema,
            configs,
            grid=cfg.rho_grid,
            split_fraction=min(cfg.split_fraction, 0.8),
            n_bricks=cfg.bricks,
            seed=cfg.seed,
            initial=scaling,
            context=context,
        )
        scaling = search.scaling
        configs = [dataclasses.replace(configs, ridge=r) for r in search.ridges]
        outputs["scale_search"] = {
            "loss_trace": list(search.loss_trace),
            "evaluations": search.evaluations,
            "ridges": list(search.ridges),
            "passes": search.passes,
            "converged": search.converged,
            "rejected": search.rejected,
        }
    _log(f"training {cfg.bricks} brick(s) on {inputs.shape[1]} pairs")
    model = fit(scaling, configs)
    outputs["training_rmse"] = _rmse(take_training_predictions(model), targets)
    save_model(model, cfg.model_out)
    outputs["model"] = cfg.model_out
    outputs["training_pairs"] = int(inputs.shape[1])
    if val_ts is not None:
        outputs["validation_points"] = int(val_ts.n_points)
        outputs["validation_rmse"] = validation_rmse(model)
    return outputs if diagnostics is None else (outputs, diagnostics)


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
    finite = np.isfinite(predictions).all(axis=0)
    if not finite.all():  # the model's fault, not the series'
        j = int(np.argmin(finite))
        t = float(ts.times[j])
        raise ValueError(f"series row {j + 2} (t = {t!r}): the model's forecast is not finite")
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
    else:
        # no forecast: a file at the path from an earlier run must not pass for one
        Path(cfg.output).unlink(missing_ok=True)
    outputs: dict = {
        "csv": cfg.output if k else None,
        "steps_requested": cfg.steps,
        "steps_completed": k,
        "diverged": result.diverged,
    }
    if result.errors is not None:
        outputs["errors"] = [float(e) for e in result.errors]
        if cfg.errors_output:
            _write_curve_csv(cfg.errors_output, times, result.errors, "rmse")
            outputs["errors_csv"] = cfg.errors_output
    return outputs, {"stop_reason": result.stop_reason, "stopped_at": result.stopped_at}


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
    stop = report.rollout
    return outputs, {"stop_reason": stop.stop_reason, "stopped_at": stop.stopped_at}


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
    result = handler(cfg)  # the outputs, or the outputs and the diagnostics
    return _emit_report(cfg, *(result if isinstance(result, tuple) else (result,)))


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(",") if v.strip())


# Argparse reads a value such as "-1e-3" or "-inf" as a flag, because its
# pattern for negative numbers takes only forms like "-1" and "-0.5".  That
# pattern is the private attribute ``_negative_number_matcher`` of each parser;
# this one takes every negative decimal number and the negative infinities and
# NaN that ``float`` reads, in any case, so such a value reaches its own check.
_NEGATIVE_NUMBER = re.compile(r"^-(?:(?:\d+\.?\d*|\.\d+)(?:e[+-]?\d+)?|inf(?:inity)?|nan)$", re.I)


@functools.cache  # built once per process; parse_args leaves the parser unchanged
def _build_parser() -> argparse.ArgumentParser:
    """Every command's flags; one left out takes its default from RunConfig."""
    parser = argparse.ArgumentParser(
        prog="ecocast",
        description="One-step ecosystem forecasting from stacked shallow learners",
        allow_abbrev=False,  # a retired flag must not live on as a prefix of a live one
    )
    parser._negative_number_matcher = _NEGATIVE_NUMBER
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS, allow_abbrev=False)
        p._negative_number_matcher = _NEGATIVE_NUMBER
        p.add_argument("--seed", type=int)
        p.add_argument("--report", help="write the JSON report here instead of stdout")
        return p

    def add_model_inputs(p: argparse.ArgumentParser) -> None:
        p.add_argument("--series", required=True)
        p.add_argument("--model-in", required=True)
        p.add_argument("--grid", dest="grids", action="append", help="context map (repeatable)")
        p.add_argument("--interpolate", action="store_true")
        p.add_argument("--nodata-fill", help="'mean' or a constant for NODATA cells")

    p = add_command("simulate", "integrate the predator-prey model to CSV")
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--prey0", type=float)
    p.add_argument("--predators0", type=float)
    p.add_argument("--dt", type=float)
    p.add_argument("--steps", type=int)
    p.add_argument("--output", required=True, help="trajectory CSV path")

    p = add_command("fit-lv", "fit predator-prey rate constants from a CSV")
    p.add_argument("--series", required=True, help="CSV with prey and predator columns")
    p.add_argument("--clamp-nonneg", action="store_true")
    p.add_argument("--interpolate", action="store_true")

    p = add_command("train", "train a stacked one-step predictor")
    p.add_argument("--series", required=True)
    p.add_argument("--grid", dest="grids", action="append", help="context map (repeatable)")
    p.add_argument("--bricks", type=int)
    p.add_argument("--brick-kind", choices=BRICK_CLASSES)
    p.add_argument("--ridge", type=float)
    p.add_argument("--hidden-size", type=int)
    p.add_argument("--hidden-size-a", type=int)
    p.add_argument("--hidden-size-b", type=int)
    p.add_argument("--activation", choices=[a.value for a in Activation])
    p.add_argument("--dsn-mode", choices=DSN_MODES)
    p.add_argument("--rho-grid", type=_floats,
                   help="comma-separated multipliers; enables the scale search")
    p.add_argument("--split-fraction", type=float,
                   help="train on the leading fraction (1.0 = use everything)")
    p.add_argument("--interpolate", action="store_true")
    p.add_argument("--nodata-fill", help="'mean' or a constant for NODATA cells")
    p.add_argument("--model-out", required=True)

    p = add_command("predict", "one-step predictions for every input state")
    add_model_inputs(p)
    p.add_argument("--output", required=True)

    p = add_command("rollout", "iterate the predictor from the last input state")
    add_model_inputs(p)
    p.add_argument("--steps", type=int)
    p.add_argument("--reference", help="CSV with ground-truth series for the error curve")
    p.add_argument("--bound", type=float, help="divergence bound override")
    p.add_argument("--output", required=True, help="predicted trajectory CSV")
    p.add_argument("--errors-output", help="per-step error curve CSV")

    p = add_command("horizon", "reliability horizon against a held-out suffix")
    add_model_inputs(p)
    p.add_argument("--split-fraction", type=float)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--errors-output", help="normalized error curve CSV")

    p = add_command("count-params", "free-parameter and data-point arithmetic")
    p.add_argument("--series-count", type=int, required=True)
    p.add_argument("--map-pixels", dest="map_pixels", type=int, action="append",
                   help="pixel count of one context map (repeatable)")
    p.add_argument("--bricks", type=int)
    p.add_argument("--brick-kind", choices=BRICK_CLASSES)
    p.add_argument("--per-brick-scaling", action="store_true")
    p.add_argument("--series-length", type=int)

    p = add_command("usle", "pointwise soil-loss product of five factor maps")
    p.add_argument("--grid", dest="grids", action="append", required=True,
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
    cfg = _apply_output_dir(config_from_dict(vars(args)))
    try:
        run(cfg)
    except Exception as exc:  # CLI boundary: every module error becomes error JSON
        doc = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(doc, sort_keys=True), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
