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
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

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


def _write_curve_csv(path, times, curve, label: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"step,t,{label}\n")
        for i, e in enumerate(curve):
            fh.write(f"{i + 1},{repr(float(times[i]))},{repr(float(e))}\n")


def _cmd_simulate(cfg: RunConfig) -> dict:
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
        outputs["scale_search"] = {f.name: getattr(search, f.name)
                                   for f in dataclasses.fields(search) if f.name != "scaling"}
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
    if cfg.series_count < 1:
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
    if len(cfg.grids) != 5:
        raise ValueError("usle needs exactly five --grid maps in order R, K, LS, C, P")
    maps = _read_maps(cfg)
    product = usle_soil_loss(*maps)
    write_ascii_grid(product, cfg.output)
    return {"grid": cfg.output, "rows": product.n_rows, "cols": product.n_cols}


class _Command(NamedTuple):
    handler: Callable[[RunConfig], dict | tuple]
    help: str
    required: tuple[str, ...]  # RunConfig fields without which the command fails
    optional: tuple[str, ...]


_INPUT_SETTINGS = ("grids", "interpolate", "nodata_fill")

# The commands, each with the RunConfig fields it takes besides seed and report,
# which every command takes; the parser gives each field one flag (``_flag``)
_COMMANDS = {
    "simulate": _Command(_cmd_simulate, "integrate the predator-prey model to CSV", ("output",),
                         ("alpha", "beta", "gamma", "delta", "prey0", "predators0", "dt", "steps")),
    "fit-lv": _Command(_cmd_fit_lv, "fit predator-prey rate constants from a CSV", ("series",),
                       ("clamp_nonneg", "interpolate")),
    "train": _Command(_cmd_train, "train a stacked one-step predictor", ("series", "model_out"),
                      (*_INPUT_SETTINGS, "bricks", "brick_kind", "ridge", "hidden_size",
                       "hidden_size_a", "hidden_size_b", "activation", "dsn_mode", "rho_grid",
                       "split_fraction")),
    "predict": _Command(_cmd_predict, "one-step predictions for every input state",
                        ("series", "model_in", "output"), _INPUT_SETTINGS),
    "rollout": _Command(_cmd_rollout, "iterate the predictor from the last input state",
                        ("series", "model_in", "output"),
                        (*_INPUT_SETTINGS, "steps", "reference", "bound", "errors_output")),
    "horizon": _Command(_cmd_horizon, "reliability horizon against a held-out suffix",
                        ("series", "model_in"),
                        (*_INPUT_SETTINGS, "split_fraction", "epsilon", "errors_output")),
    "count-params": _Command(_cmd_count_params, "free-parameter and data-point arithmetic",
                             ("series_count",),
                             ("map_pixels", "bricks", "brick_kind", "per_brick_scaling",
                              "series_length")),
    "usle": _Command(_cmd_usle, "pointwise soil-loss product of five factor maps",
                     ("grids", "output"), ("nodata_fill",)),
}


def _flag(name: str) -> str:
    """The flag of a RunConfig field: its name with dashes, where ``grids``
    is given one ``--grid`` at a time."""
    return "--" + ("grid" if name == "grids" else name).replace("_", "-")


def run(cfg: RunConfig) -> dict:
    """Execute one command and emit its report; returns the report document."""
    command = _COMMANDS.get(cfg.command)
    if command is None:
        raise ValueError(f"unknown command {cfg.command!r}")
    for name in command.required:
        if getattr(cfg, name) in (None, "", ()):
            raise ValueError(f"{_flag(name)} is required for {cfg.command}")
    result = command.handler(cfg)  # the outputs, or the outputs and the diagnostics
    return _emit_report(cfg, *(result if isinstance(result, tuple) else (result,)))


def _floats(text: str) -> tuple[float, ...]:
    values = tuple(float(v) for v in text.split(",") if v.strip())
    if not values:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers; got {text!r}")
    return values


# Argparse reads a value such as "-1e-3" or "-inf" as a flag, because its
# pattern for negative numbers takes only forms like "-1" and "-0.5".  That
# pattern is the private attribute ``_negative_number_matcher`` of each parser;
# this one takes every negative decimal number and the negative infinities and
# NaN that ``float`` reads, in any case, so such a value reaches its own check.
_NEGATIVE_NUMBER = re.compile(r"^-(?:(?:\d+\.?\d*|\.\d+)(?:e[+-]?\d+)?|inf(?:inity)?|nan)$", re.I)

# How a flag reads its value, by the annotation of its RunConfig field: a flag
# of any other field stores its text
_ACTIONS = {"bool": "store_true", "tuple[str, ...]": "append", "tuple[int, ...]": "append"}
_TYPES = {"int": int, "float": float, "tuple[int, ...]": int, "tuple[float, ...]": _floats}
_CHOICES = {"brick_kind": BRICK_CLASSES, "activation": [a.value for a in Activation],
            "dsn_mode": DSN_MODES}
_HELP = {
    "series": "time-series CSV (for fit-lv, one with prey and predators columns)",
    "grids": "context map (repeatable); for usle the five factor maps R, K, LS, C, P in order",
    "output": "output path: the CSV of simulate, predict and rollout, the grid of usle",
    "errors_output": "per-step error curve CSV (normalized for horizon)",
    "report": "write the JSON report here instead of stdout",
    "reference": "CSV with ground-truth series for the error curve",
    "nodata_fill": "'mean' or a constant for NODATA cells",
    "bound": "divergence bound override",
    "rho_grid": "comma-separated multipliers; enables the scale search",
    "split_fraction": "leading fraction of the series to train on (1.0 = all of it) "
                      "or, for horizon, to start the rollout from",
    "map_pixels": "pixel count of one context map (repeatable)",
}


@functools.cache  # built once per process; parse_args leaves the parser unchanged
def _build_parser() -> argparse.ArgumentParser:
    """Every command's flags, read off ``_COMMANDS`` and RunConfig's
    annotations; one left out takes its default from RunConfig."""
    parser = argparse.ArgumentParser(
        prog="ecocast",
        description="One-step ecosystem forecasting from stacked shallow learners",
        allow_abbrev=False,  # a retired flag must not live on as a prefix of a live one
    )
    parser._negative_number_matcher = _NEGATIVE_NUMBER
    sub = parser.add_subparsers(dest="command", required=True)
    kinds = {f.name: f.type.removesuffix(" | None") for f in dataclasses.fields(RunConfig)}
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help, argument_default=argparse.SUPPRESS,
                           allow_abbrev=False)
        p._negative_number_matcher = _NEGATIVE_NUMBER
        for field in ("seed", "report", *command.required, *command.optional):
            options = {"action": _ACTIONS.get(kinds[field]), "type": _TYPES.get(kinds[field]),
                       "choices": _CHOICES.get(field), "help": _HELP.get(field)}
            p.add_argument(_flag(field), dest=field, required=field in command.required,
                           **{k: v for k, v in options.items() if v is not None})
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
