"""Smoke self-test of the benchmark harness.

Runs every workload at tiny sizes, untraced and traced, and asserts that
each run passes its output checks against the reference, compares every
checked output (the scale search on scale-search only), and emits exactly
the metrics BENCHMARK.json declares, with their units.  It also asserts
that the comparison reports each checked output when changed a little, and
that the benchmark refuses to run without the ecocast sources.  Run it from
the root of a checkout after changing the benchmark; it takes about a minute:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import run
import tracer
import worker
import workloads

ROOT = run.ROOT


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_manifest() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        manifest = json.load(fh)
    assert [w["name"] for w in manifest["workloads"]] == list(workloads.WORKLOADS)
    declared = {m["name"]: (m["unit"], m["better"]) for m in manifest["end_to_end"]}
    assert declared == run.END_TO_END, declared
    declared = {m["name"]: (m["unit"], m["better"]) for m in manifest["per_layer"]}
    assert declared == tracer.LAYER_METRICS, set(declared) ^ set(tracer.LAYER_METRICS)
    return manifest


def check_run(manifest: dict, workload: str, trace: int) -> dict:
    done = _run(ROOT, "--workload", workload, "--seed", "0", "--seconds", "0.5",
                "--trace", str(trace), "--size", "tiny")  # fmt: skip
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    # correct means every op passed and the reference comparison ran
    assert result["correct"] is True and result["failed"] == 0, done.stdout
    assert result["attempted"] >= 1
    expected = manifest["per_layer" if trace else "end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in expected}, set(got) ^ {m["name"] for m in expected}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    run_id = done.stdout.splitlines()[0].split()[-1]
    with open(ROOT / ".perfbench_out" / f"{run_id}.json") as fh:
        compared = json.load(fh)["worker"]["reference_compared"]
    searched = workload == "scale-search"
    for field, count in compared.items():
        assert (count > 0) == (searched or field not in ("evaluations", "loss_trace")), (field, count)
    return result["metrics"]


def check_comparison_catches_changes() -> None:
    """Each checked output, changed a little, is reported as a difference."""
    reference = worker.load_reference("tiny", "scale-search", 0)
    key, ref = next(iter(reference.items()))
    assert set(ref) == set(worker.CHECKED_FIELDS), set(ref)
    assert worker.compare_reference(key, ref, ref) == []
    changed = {
        "validation_rmse": ref["validation_rmse"] * (1 + 1e-3),
        "evaluations": ref["evaluations"] + 1,
        "loss_trace": ref["loss_trace"][:-1],
        "horizon_steps": ref["horizon_steps"] - 2,
    }
    for field in ("predict", "rollout", "error_curve"):
        values = np.array(ref[field], dtype=float)
        values[values.shape[0] // 2] += 1e-3 * np.abs(values).max(axis=0)  # one row only
        changed[field] = values
    for field, value in changed.items():
        problems = worker.compare_reference(key, {**ref, field: value}, ref)
        assert [p[0] for p in problems] == [field], (field, problems)
    missing = {f: v for f, v in ref.items() if f != "evaluations"}
    assert [p[0] for p in worker.compare_reference(key, missing, ref)] == ["evaluations"]


def check_refuses_without_sources() -> None:
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_out") as tmp:
        shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench")
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        done = _run(Path(tmp), "--workload", "kernel-series", "--seed", "0", "--seconds", "1",
                    "--trace", "0")  # fmt: skip
        assert done.returncode != 0 and not done.stdout.strip(), done.stdout


def main() -> int:
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    manifest = check_manifest()
    check_comparison_catches_changes()
    print("ok output comparison reports changed outputs")
    for name in workloads.WORKLOADS:
        check_run(manifest, name, 0)
        layers = check_run(manifest, name, 1)
        searched = layers["datasets.optimize_scaling.evaluations"]["value"] > 0
        assert searched == (name == "scale-search"), name
        print(f"ok {name}")
    check_refuses_without_sources()
    print("ok refuses to run without the ecocast sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
