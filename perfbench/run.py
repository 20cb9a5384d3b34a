"""Benchmark of the ecocast train -> predict -> rollout -> horizon chain.

Run from the root of a checkout (the directory that holds ``src/ecocast``):

    python3 perfbench/run.py --workload kernel-series --seed 0 --seconds 20 --trace 0

The load is a closed loop with one client: the workload runs in its own
process, one CLI command at a time, with BLAS threads capped at the number of
usable cores.  ``--trace 0`` reports the end-to-end metrics: set-up time is
the median over several fresh processes, every other time is the median over
the repetitions of the workload's chains within ``--seconds``.  ``--trace 1``
reports per-layer metrics from spans recorded around calls into ecocast,
taken from every other repetition; the repetitions in between run untraced
and give the tracing overhead.

Every operation is checked: exit code 0, a report that parses, finite
outputs, and every row of the predictions, the rollout and the horizon's
error curve, the validation RMSE, the horizon and the scale search's
evaluation count and loss trace against ``reference.npz``, within the
tolerances stated in worker.py.  Human-readable lines,
including the run environment, come first; the last line of standard output
is the JSON result.  Each run also leaves its full result, and for a traced
run its spans, under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_PROCESSES = 7
# BLAS threads are capped at the usable cores and at the count the reference
# was recorded with, because scale-search's search path depends on BLAS
# rounding (see worker.py).
REFERENCE_BLAS_THREADS = 2
# A run ends within this many seconds or fails, inside a three-minute limit.
RUN_LIMIT_S = 170.0

END_TO_END = {
    # name: (unit, better)
    "setup_s": ("s", "lower"),  # process start, imports and input generation
    "pipeline_s": ("s", "lower"),  # wall time of every chain of the workload
    "train_s": ("s", "lower"),  # ecocast train, scale search included
    "predict_s": ("s", "lower"),  # ecocast predict over the full series
    "rollout_s": ("s", "lower"),  # ecocast rollout for the stated steps
    "horizon_s": ("s", "lower"),  # ecocast horizon
    "model_mb": ("MB", "lower"),  # size of the model files train writes
    "peak_rss_mb": ("MB", "lower"),  # peak resident memory of the workload process
    "horizon_steps": ("steps", "higher"),  # reliability horizon from the horizon reports
}


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    threads = str(min(len(os.sched_getaffinity(0)), REFERENCE_BLAS_THREADS))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _run_worker(extra: list[str], deadline: float) -> dict:
    """Start one workload process, wait for it and parse its last line."""
    timeout = deadline - time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), *extra, "--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"the run exceeded {RUN_LIMIT_S:.0f} s")
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}:\n{err.strip()}")
    return json.loads(out.strip().splitlines()[-1])


def _command_output(*cmd: str) -> str | None:
    # git must not look above the checkout for a repository
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 and done.stdout.strip() else None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ecocast").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(args, worker: dict) -> dict:
    llc = _command_output("getconf", "LEVEL3_CACHE_SIZE") or _command_output(
        "getconf", "LEVEL2_CACHE_SIZE"
    )
    return {
        "python": platform.python_version(),
        "numpy": worker["numpy"],
        "blas": worker["blas"],
        "blas_threads": child_env()["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "llc_bytes": int(llc) if llc and llc.isdigit() else None,
        "git_commit": _command_output("git", "rev-parse", "HEAD"),
        "src_sha256": _src_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
    }


def _summary(values: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples beyond it
    (none below twenty samples), the maximum and the sample count."""
    n = len(values)
    s = {"median": statistics.median(values), "max": max(values), "n": n}
    if n >= 20:
        p = 100 * (1 - 10 / n)
        s[f"p{p:g}"] = statistics.quantiles(values, n=1000, method="inclusive")[int(10 * p) - 1]
    return s


def end_to_end(worker: dict, setup_samples: list[float]) -> tuple[dict, dict]:
    reps = [r for r in worker["reps"] if not r["traced"]]
    samples = {"setup_s": setup_samples}
    for name in ("pipeline_s", "train_s", "predict_s", "rollout_s", "horizon_s"):
        samples[name] = [r[name] for r in reps]
    values = {name: statistics.median(v) for name, v in samples.items()}
    for name in ("model_mb", "peak_rss_mb", "horizon_steps"):
        values[name] = worker[name]
    return values, {name: _summary(v) for name, v in samples.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs the same chains at toy sizes (self-test)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        return _fail("--seed must be >= 0")
    if not args.seconds > 0:
        return _fail("--seconds must be positive")
    if not (ROOT / "src" / "ecocast" / "cli.py").is_file():
        return _fail(f"no ecocast sources under {ROOT / 'src'}; run from a full checkout")

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
              "--out-dir", str(out_dir)]  # fmt: skip
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        setup_samples = []
        if not args.trace:
            for _ in range(SETUP_PROCESSES - 1):
                setup_samples.append(_run_worker([*common, "--setup-only"], deadline)["setup_s"])
        worker = _run_worker(
            [*common, "--seconds", repr(args.seconds), "--trace", str(args.trace)], deadline
        )
    except (RuntimeError, json.JSONDecodeError, IndexError, KeyError) as exc:
        return _fail(str(exc))
    setup_samples.append(worker["setup_s"])

    env = environment(args, worker)
    # correct also needs every checked output compared with a recorded
    # reference at least once; the scale search only where a chain searches
    compared = worker["reference_compared"]
    searches = any("--rho-grid" in c.train_args for c in workloads.WORKLOADS[args.workload].chains)
    required = [f for f in compared if searches or f not in ("evaluations", "loss_trace")]
    correct = worker["failed"] == 0 and all(compared[f] > 0 for f in required)
    print(f"ecocast benchmark run {worker['run_id']}")
    print("environment " + json.dumps(env, sort_keys=True))
    if args.trace:
        metrics = {
            name: {"value": worker["layers"][name], "unit": tracer.LAYER_METRICS[name][0]}
            for name in sorted(tracer.LAYER_METRICS)
        }
        for name, m in metrics.items():
            label = " (computed)" if name in tracer.COMPUTED else ""
            print(f"  {name:<42} {m['value']:>14.6g} {m['unit']}{label}")
        print(f"spans {worker['spans_file']}")
    else:
        values, summaries = end_to_end(worker, setup_samples)
        metrics = {name: {"value": values[name], "unit": END_TO_END[name][0]} for name in END_TO_END}
        for name, m in metrics.items():
            extra = " ".join(f"{k}={v:.6g}" for k, v in summaries.get(name, {}).items())
            print(f"  {name:<16} {m['value']:>14.6g} {m['unit']:<12} {extra}")
    # A quality guard without a bound: its spread across seeds is wide on
    # scale-search, so it is checked per seed against the reference instead.
    print(f"  validation_rmse  {worker['validation_rmse']:>14.6g} series_units")
    print(f"  ops_failed_frac  {worker['failed'] / worker['attempted']:>14.6g} fraction"
          f"     failed={worker['failed']} attempted={worker['attempted']}"
          f" reference_seed={worker['reference_seed']}")  # fmt: skip
    for problem in worker["failures"]:
        print(f"  FAILED {problem}")
    recorded = worker["reference_environment"]
    if worker["failed"] and recorded and any(recorded[k] != env[k] for k in recorded):
        print("  note: the reference was recorded with " + json.dumps(recorded, sort_keys=True))

    result = {
        "correct": correct,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": metrics,
    }
    with open(out_dir / f"{worker['run_id']}.json", "w") as fh:
        json.dump({"environment": env, "worker": worker, "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
