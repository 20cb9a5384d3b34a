"""Record the output reference that the benchmark checks every run against.

Runs each workload's chains once per seed, at both sizes, and writes
perfbench/reference.npz: every checked output of every chain (see
CHECKED_FIELDS in worker.py), with the environment it was recorded in.  Run
it from the root of a checkout of the commit whose forecasts are the
reference, on the machine the benchmark runs on, and commit the file only
together with a benchmark change that says why the reference moved.  Naming
workloads re-records only those and keeps the other entries:

    python3 perfbench/record_reference.py [workload ...]
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile

import numpy as np

import run
import workloads
from worker import REFERENCE_FILE, REFERENCE_SEEDS, _blas_name

# Large arrays are stored in single precision, far inside the comparison
# tolerance; scalars and loss traces keep full precision.
SINGLE = ("predict", "rollout", "error_curve")


def record(name: str, size: str, seed: int, out_dir: str) -> dict:
    cmd = [sys.executable, str(run.HERE / "worker.py"), "--workload", name, "--seed", str(seed),
           "--size", size, "--out-dir", out_dir, "--record"]  # fmt: skip
    done = subprocess.run(cmd, cwd=run.ROOT, env=run.child_env(), capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{name} seed {seed} ({size}) failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv: list[str]) -> int:
    names = argv or sorted(workloads.WORKLOADS)
    unknown = set(names) - set(workloads.WORKLOADS)
    if unknown:
        raise SystemExit(f"unknown workloads: {sorted(unknown)}")
    arrays: dict[str, np.ndarray] = {}
    if argv and REFERENCE_FILE.exists():
        with np.load(REFERENCE_FILE) as doc:
            arrays = {k: doc[k] for k in doc.files if k != "environment" and k.split("/")[1] not in names}
    with tempfile.TemporaryDirectory(dir=run.ROOT) as out_dir:
        for size in ("tiny", "full"):
            for name in names:
                for seed in range(REFERENCE_SEEDS):
                    for key, outputs in record(name, size, seed, out_dir).items():
                        for field, value in outputs.items():
                            dtype = np.float32 if field in SINGLE else None
                            arrays[f"{size}/{name}/{seed}/{key}/{field}"] = np.asarray(value, dtype)
                print(f"recorded {size} {name}", flush=True)
    environment = {
        "numpy": np.__version__,
        "blas": _blas_name(),
        "blas_threads": run.child_env()["OPENBLAS_NUM_THREADS"],
    }
    arrays["environment"] = np.asarray(json.dumps(environment, sort_keys=True))
    np.savez_compressed(REFERENCE_FILE, **arrays)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
