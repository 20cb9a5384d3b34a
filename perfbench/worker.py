"""One workload process of the ecocast benchmark.

Generates the workload's inputs from the seed, then repeats the workload's
chains through ``ecocast.cli.main`` (one command at a time, one client) until
the time budget is spent, checks every output, and prints one JSON document
as the last line of standard output.  run.py starts it; run it directly only
to debug a workload:

    PYTHONPATH=src python3 perfbench/worker.py --workload kernel-series --seed 0 \
        --seconds 5 --trace 0 --out-dir .perfbench_out

``--setup-only`` stops after input generation, so run.py can time set-up in
fresh processes; ``--record`` runs the chains once and prints the checked
outputs that ``reference.npz`` stores.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import sys
import time
import uuid
from dataclasses import dataclass, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from ecocast import cli  # noqa: E402
from ecocast.datasets import ContextMap  # noqa: E402
from ecocast.io import write_ascii_grid  # noqa: E402
from ecocast.lotka import REFERENCE_PARAMS  # noqa: E402

REFERENCE_FILE = HERE / "reference.npz"
# Reference outputs cover seeds 0 .. REFERENCE_SEEDS - 1.  A run on another
# seed is additionally checked by one untimed pass on seed % REFERENCE_SEEDS,
# and its timed repetitions are compared with its own first repetition.
REFERENCE_SEEDS = 4
# Tolerances against the reference.  With the BLAS build and thread count
# the reference was recorded with, every output repeats bit for bit; the
# tolerances leave room for a change of summation order (blocking, fused
# products).  Array outputs (predictions, rollout, error curve) are compared
# element by element, relative to the reference column's largest magnitude.
# The scale search accepts loss steps at rounding level, so its path is only
# reproducible with the same BLAS rounding: with 1 instead of 2 BLAS threads,
# seed 3's first draw took 201 evaluations instead of 241.  Its evaluation
# count must match exactly and its loss trace within LOSS_TRACE_RTOL.  The
# horizon is an integer step count and may move by one step when the error
# curve sits on the threshold.
ARRAY_RTOL = 1e-4
VALIDATION_RMSE_RTOL = 1e-4
LOSS_TRACE_RTOL = 1e-6
HORIZON_STEPS_TOL = 1
# Output checked -> the command that produces it.
CHECKED_FIELDS = {
    "validation_rmse": "train",
    "evaluations": "train",
    "loss_trace": "train",
    "predict": "predict",
    "rollout": "rollout",
    "error_curve": "horizon",
    "horizon_steps": "horizon",
}
COMMANDS = ("train", "predict", "rollout", "horizon")


@dataclass(frozen=True)
class InputSet:
    draw: int
    series: str
    grid_args: tuple[str, ...]


@dataclass
class Op:
    """One CLI command of a repetition, checked after the repetition ends."""

    key: str
    command: str
    rc: int
    report: str
    output: str | None = None


def generate_inputs(w: workloads.Workload, seed: int, workdir: Path) -> tuple[list[InputSet], list[Op]]:
    """Seeded inputs: ``ecocast simulate`` writes the series, io writes the grids."""
    p = REFERENCE_PARAMS
    sets, ops = [], []
    for draw in range(w.draws):
        rng = np.random.default_rng([seed, draw])
        prey0 = 10.0 * (1.0 + workloads.JITTER * rng.uniform(-1.0, 1.0))
        predators0 = 5.0 * (1.0 + workloads.JITTER * rng.uniform(-1.0, 1.0))
        series = str(workdir / f"series-{draw}.csv")
        report = str(workdir / f"simulate-{draw}.json")
        argv = [
            "simulate", "--alpha", repr(p.alpha), "--beta", repr(p.beta),
            "--gamma", repr(p.gamma), "--delta", repr(p.delta),
            "--prey0", repr(prey0), "--predators0", repr(predators0),
            "--dt", repr(workloads.DT), "--steps", str(w.points - 1),
            "--output", series, "--report", report,
        ]  # fmt: skip
        ops.append(Op(f"setup/{draw}", "simulate", cli.main(argv), report, series))
        grid_args: list[str] = []
        for name, rows, cols in w.grids:
            path = workdir / f"{name}-{draw}.asc"
            values = rng.uniform(*workloads.GRID_RANGE, size=(rows, cols))
            write_ascii_grid(ContextMap(name=name, values=values), path)
            grid_args += ["--grid", str(path)]
        sets.append(InputSet(draw, series, tuple(grid_args)))
    return sets, ops


def run_rep(w: workloads.Workload, inputs: list[InputSet], seed: int, workdir: Path):
    """Run every chain on every input set once; returns times and ops."""
    times = dict.fromkeys(COMMANDS, 0.0)
    ops: list[Op] = []
    clock = time.perf_counter
    rep_start = clock()
    for inp in inputs:
        for chain in w.chains:
            key = f"{chain.tag}/{inp.draw}"
            stem = str(workdir / f"{chain.tag}-{inp.draw}")
            model = stem + ".model.json"
            common = ["--series", inp.series, *inp.grid_args]
            split = ["--split-fraction", repr(workloads.SPLIT_FRACTION)]
            steps = ["--steps", str(chain.rollout_steps)]
            commands = (
                ("train", [*chain.train_args, *split, "--seed", str(seed), "--model-out"], model),
                ("predict", ["--model-in", model, "--output"], f"{stem}.predict.csv"),
                ("rollout", ["--model-in", model, *steps, "--output"], f"{stem}.rollout.csv"),
                ("horizon", ["--model-in", model, *split], None),
            )
            for command, args, output in commands:
                report = f"{stem}.{command}.json"
                argv = [command, *common, *args, *([output] if output else []), "--report", report]
                start = clock()
                rc = cli.main(argv)
                times[command] += clock() - start
                ops.append(Op(key, command, rc, report, output))
    times["pipeline"] = clock() - rep_start
    return times, ops


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def read_values(path: str) -> np.ndarray:
    """The value columns of a CSV that ecocast writes (time column dropped)."""
    values = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, 1:]
    if not np.all(np.isfinite(values)):
        raise ValueError("non-finite value")
    return values


def check_op(op: Op, seen: dict) -> str | None:
    """Validate one op; returns a failure message or None.  ``seen`` collects
    the per-chain outputs (CHECKED_FIELDS) the reference comparison needs."""
    if op.rc != 0:
        return f"{op.key} {op.command}: exit code {op.rc}"
    try:
        with open(op.report) as fh:
            outputs = json.load(fh)["outputs"]
        entry = seen.setdefault(op.key, {})
        if op.command == "simulate":
            read_values(op.output)
        elif op.command == "train":
            rmse = outputs["validation_rmse"]
            if not _finite(outputs["training_rmse"], rmse):
                return f"{op.key} train: non-finite RMSE"
            entry["validation_rmse"] = rmse
            entry["model_bytes"] = os.path.getsize(op.output)
            if "scale_search" in outputs:
                entry["evaluations"] = outputs["scale_search"]["evaluations"]
                entry["loss_trace"] = np.asarray(outputs["scale_search"]["loss_trace"], float)
        elif op.command == "predict":
            entry["predict"] = read_values(op.output)
        elif op.command == "rollout":
            if outputs["diverged"] or outputs["steps_completed"] != outputs["steps_requested"]:
                return f"{op.key} rollout: stopped at step {outputs['steps_completed']}"
            values = read_values(op.output)
            if values.shape[0] != outputs["steps_requested"]:
                return f"{op.key} rollout: {values.shape[0]} rows for {outputs['steps_requested']} steps"
            entry["rollout"] = values
        elif op.command == "horizon":
            if not (isinstance(outputs["horizon"], int) and outputs["horizon"] >= 1):
                return f"{op.key} horizon: invalid horizon {outputs['horizon']!r}"
            if not _finite(*outputs["error_curve"]):
                return f"{op.key} horizon: non-finite error curve"
            entry["error_curve"] = np.asarray(outputs["error_curve"], float)
            entry["horizon_steps"] = outputs["horizon"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"{op.key} {op.command}: {type(exc).__name__}: {exc}"
    return None


def compare_field(field: str, got, ref) -> str | None:
    """How one checked output differs from its reference, or None."""
    if field in ("predict", "rollout", "error_curve"):
        got, ref = np.asarray(got), np.asarray(ref)
        if got.shape != ref.shape:
            return f"shape {got.shape} != reference {ref.shape}"
        scale = np.maximum(np.abs(ref).max(axis=0), np.finfo(float).tiny)
        worst = float(np.max(np.abs(got - ref) / scale))
        if worst > ARRAY_RTOL:
            return f"relative difference {worst:.3g} > {ARRAY_RTOL}"
    elif field == "validation_rmse":
        if abs(got - ref) > VALIDATION_RMSE_RTOL * abs(ref):
            return f"{got!r} != reference {float(ref)!r}"
    elif field == "evaluations":
        if got != ref:
            return f"{got} != reference {int(ref)}"
    elif field == "loss_trace":
        if got.shape != ref.shape:
            return f"{got.size} accepted steps != reference {ref.size}"
        worst = float(np.max(np.abs(got - ref) / np.abs(ref)))
        if worst > LOSS_TRACE_RTOL:
            return f"relative difference {worst:.3g} > {LOSS_TRACE_RTOL}"
    elif field == "horizon_steps":
        if abs(got - ref) > HORIZON_STEPS_TOL:
            return f"{got} != reference {int(ref)}"
    return None


def compare_reference(key: str, got: dict, ref: dict) -> list[tuple[str, str, str]]:
    """(field, command, message) for each way one chain's outputs differ
    from its reference; a field the reference holds but the run lacks is a
    difference too."""
    problems = []
    for field, expected in ref.items():
        command = CHECKED_FIELDS[field]
        if field not in got:
            problems.append((field, command, f"{key} {command}: no {field} to compare"))
            continue
        problem = compare_field(field, got[field], expected)
        if problem:
            problems.append((field, command, f"{key} {command} {field}: {problem}"))
    return problems


def load_reference(size: str, workload: str, seed: int) -> dict | None:
    """{chain key: {field: value}} recorded for this seed, or None."""
    if not REFERENCE_FILE.exists():
        return None
    prefix = f"{size}/{workload}/{seed}/"
    table: dict = {}
    with np.load(REFERENCE_FILE) as doc:
        for name in doc.files:
            if name.startswith(prefix):
                key, field = name[len(prefix):].rsplit("/", 1)
                value = doc[name]
                table.setdefault(key, {})[field] = value.item() if value.ndim == 0 else value
    return table or None


def reference_environment() -> dict | None:
    """The environment the reference was recorded in."""
    if not REFERENCE_FILE.exists():
        return None
    with np.load(REFERENCE_FILE) as doc:
        return json.loads(str(doc["environment"])) if "environment" in doc.files else None


class Checker:
    """Counts attempted and failed operations across the run, and how many
    outputs of each checked field were compared with a recorded reference."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.compared = dict.fromkeys(CHECKED_FIELDS, 0)

    def check(self, ops: list[Op], reference: dict | None, recorded: bool = True) -> dict:
        """Check a batch of ops, then compare them with ``reference`` (when
        given; ``recorded`` is False for a run's own first repetition); an op
        that fails several ways counts once."""
        seen: dict = {}
        failed_ops = set()
        for op in ops:
            self.attempted += 1
            problem = check_op(op, seen)
            if problem:
                self._fail(problem)
                failed_ops.add((op.key, op.command))
        if reference is not None:
            for key, got in seen.items():
                if key.startswith("setup/"):
                    continue
                if key not in reference:
                    self._fail(f"{key}: no reference for this chain")
                    continue
                for field, command, problem in compare_reference(key, got, reference[key]):
                    if (key, command) not in failed_ops:
                        failed_ops.add((key, command))
                        self._fail(problem)
                if recorded:
                    for field in reference[key]:
                        self.compared[field] += 1
        return seen

    def _fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(problem)


def setup(w, seed: int, workdir: Path, spawned_at: float):
    workdir.mkdir(parents=True, exist_ok=True)
    inputs, ops = generate_inputs(w, seed, workdir)
    return inputs, ops, time.monotonic() - spawned_at


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--spawned-at", type=float, default=None)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    spawned_at = time.monotonic() if args.spawned_at is None else args.spawned_at

    w = workloads.get(args.workload, args.size)
    run_id = f"{args.workload}-s{args.seed}-t{args.trace}-{uuid.uuid4().hex[:8]}"
    out_dir = Path(args.out_dir)
    workdir = out_dir / run_id
    tracer = tracing.Tracer(run_id) if args.trace else None
    try:
        if tracer:
            tracer.install()
        inputs, setup_ops, setup_s = setup(w, args.seed, workdir, spawned_at)
        if tracer:
            tracer.uninstall()
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        checker = Checker()
        if args.record:
            _, ops = run_rep(w, inputs, args.seed, workdir)
            seen = checker.check(setup_ops + ops, None)
            if checker.failed:
                print("\n".join(checker.failures), file=sys.stderr)
                return 1
            print(json.dumps({key: _listed(_checked(outputs)) for key, outputs in seen.items()
                              if not key.startswith("setup/")}))  # fmt: skip
            return 0

        reference = load_reference(args.size, args.workload, args.seed)
        checker.check(setup_ops, None)
        reps = []
        quality = baseline = None
        deadline = time.monotonic() + args.seconds
        while not reps or (tracer and len(reps) < 2) or time.monotonic() < deadline:
            traced = bool(tracer) and len(reps) % 2 == 1
            if traced:
                tracer.group = f"rep{len(reps)}"
                tracer.install()
            try:
                times, ops = run_rep(w, inputs, args.seed, workdir)
            finally:
                if traced:
                    tracer.uninstall()
            if reference is None:
                seen = checker.check(ops, baseline, recorded=False)
                # no recorded reference: later repetitions must repeat the first
                baseline = baseline or {key: _checked(outputs) for key, outputs in seen.items()}
            else:
                seen = checker.check(ops, reference)
            if quality is None:
                quality = seen
            reps.append({"traced": traced, **{f"{k}_s": v for k, v in times.items()}})

        reference_seed = args.seed
        if reference is None:
            # No table for this seed: one untimed pass of the first draw on a
            # seed that has one.
            reference_seed = args.seed % REFERENCE_SEEDS
            fallback = load_reference(args.size, args.workload, reference_seed)
            if fallback is not None:
                fb_dir = workdir / "reference"
                fb_w = replace(w, draws=1)
                fb_inputs, fb_setup, _ = setup(fb_w, reference_seed, fb_dir, time.monotonic())
                _, fb_ops = run_rep(fb_w, fb_inputs, reference_seed, fb_dir)
                checker.check(fb_setup + fb_ops, fallback)
        result = {
            "run_id": run_id,
            "setup_s": setup_s,
            "reps": reps,
            "attempted": checker.attempted,
            "failed": checker.failed,
            "failures": checker.failures,
            "reference_seed": reference_seed,
            "reference_compared": checker.compared,
            "reference_environment": reference_environment(),
            "model_mb": sum(v.get("model_bytes", 0) for v in quality.values()) / 1e6,
            "validation_rmse": sum(v.get("validation_rmse", 0.0) for v in quality.values()),
            "horizon_steps": sum(v.get("horizon_steps", 0) for v in quality.values()),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "numpy": np.__version__,
            "blas": _blas_name(),
        }
        if tracer:
            result["layers"] = _trace_summary(tracer, reps)
            spans_path = out_dir / f"{run_id}.spans.json"
            tracer.write(spans_path)
            result["spans_file"] = str(spans_path)
        print(json.dumps(result))
        return 0
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)


def _checked(outputs: dict) -> dict:
    return {field: value for field, value in outputs.items() if field in CHECKED_FIELDS}


def _listed(outputs: dict) -> dict:
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in outputs.items()}


def _median(values):
    return float(np.median(values)) if len(values) else 0.0


def _trace_summary(tracer: tracing.Tracer, reps: list[dict]) -> dict[str, float]:
    setup_totals = tracing.group_totals(tracer.spans, "setup")
    per_rep = [
        tracing.layer_metrics(tracing.group_totals(tracer.spans, f"rep{i}"), setup_totals)
        for i, rep in enumerate(reps)
        if rep["traced"]
    ]
    layers = {name: _median([m[name] for m in per_rep]) for name in per_rep[0]}
    traced = _median([r["pipeline_s"] for r in reps if r["traced"]])
    untraced = _median([r["pipeline_s"] for r in reps if not r["traced"]])
    layers["trace.overhead_frac"] = traced / untraced - 1.0
    return layers


def _blas_name() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


if __name__ == "__main__":
    sys.exit(main())
