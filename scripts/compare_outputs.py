"""Compare every output of the benchmark workloads between two source trees.

Each tree runs every workload's chains (train, predict, rollout, horizon)
once per seed, at full size unless ``--size tiny`` is given, in one process
per tree with that tree's ``src`` first on the import path and 2 BLAS
threads, through the tree's own ``perfbench/worker.py`` (``generate_inputs``
and ``run_rep``).  Both run in the same relative working paths, so paths
written into reports agree.  Each tree then loads every model file it wrote
with its own ``ecocast.io.load_model``, and writes every array of the loaded
model beside it (``<name>.model.loaded.json``): the context, the scaling,
``last_training_state`` and each brick's array fields.

The script then lists every command or model load that failed in either
tree, every CSV, grid and model file whose bytes differ, every model file
whose loaded arrays differ (compared exactly, array by array, next to the
bytes: a format change that keeps every array reads "every loaded array
equal"), every report whose ``outputs`` or ``diagnostics`` block differs, and
every file that only one tree wrote.  It says how large each difference is:
- a CSV, each array payload of a model file and each loaded array, by the
  largest difference relative to the parent column's largest magnitude (the
  rule of ``ARRAY_RTOL`` in ``perfbench/worker.py``);
- a report block, and the rest of a model file, by each differing number
  with its difference relative to the parent's value (for a list of numbers,
  how many differ and the largest relative difference).
It exits 1 on any failed command or difference and 0 when every command
succeeded and the two trees agree bit for bit.

Usage: python scripts/compare_outputs.py PARENT CHANGE [--seeds 0,1,2,3]
       [--workloads kernel-series,kernel-context,feature-context,scale-search]
       [--size full|tiny]
"""

from __future__ import annotations

import argparse
import base64
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np

WORKLOADS = "kernel-series,kernel-context,feature-context,scale-search"
BLAS_THREADS = "2"
# report blocks compared; the config and environment blocks hold the run's own settings
REPORT_BLOCKS = ("outputs", "diagnostics")
MODEL, LOADED = ".model.json", ".model.loaded.json"


def produce(tree: Path, out: Path, seeds: list[int], names: list[str], size: str) -> list[str]:
    """Run the chains of ``tree`` into ``out``; returns the failed commands."""
    sys.path[:0] = [str(tree / "perfbench"), str(tree / "src")]
    import worker
    import workloads

    os.chdir(out)
    failed = []
    for name in names:
        w = workloads.get(name, size)
        for seed in seeds:
            workdir = Path(name) / str(seed)
            workdir.mkdir(parents=True)
            inputs, setup_ops = worker.generate_inputs(w, seed, workdir)
            _, ops = worker.run_rep(w, inputs, seed, workdir)
            failed += [f"{workdir}: {op.key} {op.command} exited {op.rc}"
                       for op in setup_ops + ops if op.rc != 0]  # fmt: skip
    models = sorted(Path().rglob(f"*{MODEL}"))
    if models:  # the tree's own loader, once its src is on the path
        from ecocast.io import load_model
    for path in models:
        try:
            write_loaded(path, load_model)
        except Exception as exc:
            failed.append(f"{path}: load_model failed: {exc}")
    return failed


def write_loaded(path: Path, load_model) -> None:
    """Write every array of the model that ``load_model`` reads from the model
    file ``path`` beside it, as array payloads keyed by ``loaded_arrays``."""
    docs = {where: _payload_doc(a) for where, a in loaded_arrays(load_model(path)).items()}
    loaded_path(path).write_text(json.dumps(docs, sort_keys=True))


def loaded_arrays(value, where: str = "") -> dict[str, np.ndarray]:
    """Every array that ``value``, a loaded model, holds, keyed by its path of
    fields and brick indices ("context", "bricks[1].training_inputs")."""
    if isinstance(value, np.ndarray):
        return {where: value}
    if is_dataclass(value):
        items = [(f"{where}.{f.name}".lstrip("."), getattr(value, f.name)) for f in fields(value)]
    elif isinstance(value, tuple):
        items = [(f"{where}[{i}]", x) for i, x in enumerate(value)]
    else:
        return {}
    return {k: a for path, x in items for k, a in loaded_arrays(x, path).items()}


def loaded_path(model: Path) -> Path:
    """Where the arrays loaded from the model file ``model`` are written."""
    return model.with_name(model.name.removesuffix(MODEL) + LOADED)


def _payload_doc(a: np.ndarray) -> dict:
    a = np.ascontiguousarray(a, dtype="<f8")
    return {"f8": base64.b64encode(a.tobytes()).decode("ascii"), "shape": list(a.shape)}


def run_tree(tree: Path, out: Path, seeds: str, names: str, size: str) -> bool:
    """Run the chains of ``tree`` into ``out`` in a child process; True when
    the child finished and every command in it exited 0."""
    out.mkdir()
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    cmd = [sys.executable, __file__, str(tree), str(out), "--produce",
           "--seeds", seeds, "--workloads", names, "--size", size]  # fmt: skip
    done = subprocess.run(cmd, env=env, capture_output=True, text=True)
    print(f"{tree}: {done.stdout.strip()}")
    if done.returncode != 0:
        print(f"compare_outputs: the run of {tree} failed:\n{done.stderr}")
    return done.returncode == 0


def column_difference(a: np.ndarray | None, b: np.ndarray | None) -> float | None:
    """The largest ``|b - a|`` relative to the largest magnitude of ``a``'s
    column (of all of ``a`` for a vector), or None when either is missing,
    empty, or the shapes differ."""
    if a is None or b is None or a.shape != b.shape or a.size == 0:
        return None
    scale = np.maximum(np.abs(a).max(axis=0), np.finfo(float).tiny)
    return float(np.max(np.abs(b - a) / scale))


def csv_values(path: Path) -> np.ndarray | None:
    """Every cell below the header row of a CSV as numbers, or None when some
    cell is not one or the rows differ in length."""
    try:
        return np.array([line.split(",") for line in path.read_text().splitlines()[1:]], float)
    except ValueError:
        return None


def _same(a, b) -> bool:
    """Equal as JSON text, so that 1 and 1.0, or 0.0 and -0.0, differ."""
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_payload(x) -> bool:
    return isinstance(x, dict) and set(x) == {"f8", "shape"}


def _payload(x) -> np.ndarray:
    return np.frombuffer(base64.b64decode(x["f8"]), dtype="<f8").reshape(x["shape"])


def _relative(a: float, b: float) -> float:
    return abs(b - a) / max(abs(a), np.finfo(float).tiny)


def json_differences(a, b, where: str) -> list[str]:
    """One line per differing leaf of two JSON documents, ``a`` the parent's:
    an array payload by ``column_difference``, a number by its relative
    difference, a list of numbers by how many differ and the largest."""
    if _same(a, b):
        return []
    if _is_payload(a) and _is_payload(b):
        worst = column_difference(_payload(a), _payload(b))
        if worst is None:
            return [f"{where}: shape {a['shape']} -> {b['shape']}"]
        return [f"{where}: largest relative difference {worst:.3g}"]
    if isinstance(a, dict) and isinstance(b, dict):
        found = []
        for key in sorted(a.keys() | b.keys()):
            if key in a and key in b:
                found += json_differences(a[key], b[key], f"{where}.{key}")
            else:
                found.append(f"{where}.{key}: only in {'the parent' if key in a else 'the change'}")
        return found
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return [f"{where}: {len(a)} items -> {len(b)} items"]
        if a and all(map(_is_number, a + b)):
            rel = [_relative(x, y) for x, y in zip(a, b)]
            worst = max(range(len(rel)), key=rel.__getitem__)
            n_diff = sum(not _same(x, y) for x, y in zip(a, b))
            return [f"{where}: {n_diff} of {len(a)} numbers differ, "
                    f"largest relative difference {rel[worst]:.3g} at [{worst}]"]  # fmt: skip
        return [line for i, (x, y) in enumerate(zip(a, b))
                for line in json_differences(x, y, f"{where}[{i}]")]  # fmt: skip
    if _is_number(a) and _is_number(b):
        return [f"{where}: {a!r} -> {b!r} (relative {_relative(a, b):.3g})"]
    return [f"{where}: {json.dumps(a)} -> {json.dumps(b)}"]


def _with_details(head: str, details: list[str]) -> str:
    return "\n    ".join([head, *details])


def differences(a: Path, b: Path) -> list[str]:
    """One entry per file that differs between the output trees ``a`` (the
    parent's) and ``b``; an entry's indented lines say by how much."""
    files = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files |= {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    # the loaded arrays are compared with their model file
    files = {rel for rel in files if not rel.name.endswith(LOADED)}
    found = []
    for rel in sorted(files):
        pa, pb = a / rel, b / rel
        if not (pa.exists() and pb.exists()):
            found.append(f"{rel}: only in {'the parent' if pa.exists() else 'the change'}")
        elif rel.name.endswith(MODEL):
            found += model_differences(rel, pa, pb)
        elif rel.suffix == ".json":
            doc_a, doc_b = json.loads(pa.read_text()), json.loads(pb.read_text())
            for block in REPORT_BLOCKS:
                details = json_differences(doc_a.get(block), doc_b.get(block), block)
                if details:
                    found.append(_with_details(f"{rel}: {block} differs", details))
        elif pa.read_bytes() != pb.read_bytes():
            if rel.suffix == ".csv":
                worst = column_difference(csv_values(pa), csv_values(pb))
                details = [] if worst is None else [f"largest relative difference {worst:.3g}"]
            else:
                details = []
            found.append(_with_details(f"{rel}: bytes differ", details))
    return found


def model_differences(rel: Path, pa: Path, pb: Path) -> list[str]:
    """The entry of the model file ``rel`` when it differs: by its bytes, and
    by the arrays that each tree loaded from it, where either tree wrote them."""
    heads, details = [], []
    if pa.read_bytes() != pb.read_bytes():
        heads.append("bytes differ")
        details = json_differences(json.loads(pa.read_text()), json.loads(pb.read_text()), "model")
    dumps = loaded_path(pa), loaded_path(pb)
    if all(d.exists() for d in dumps):
        loaded = json_differences(*(json.loads(d.read_text()) for d in dumps), "loaded")
        if loaded or heads:
            heads.append("loaded arrays differ" if loaded else "every loaded array equal")
        details += loaded
    elif any(d.exists() for d in dumps):  # one tree could not load it
        heads.append(f"loaded arrays only in {'the parent' if dumps[0].exists() else 'the change'}")
    return [_with_details(f"{rel}: {', '.join(heads)}", details)] if heads else []


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seeds", default="0,1,2,3")
    parser.add_argument("--workloads", default=WORKLOADS)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--produce", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    names = args.workloads.split(",")
    if args.produce:  # the child of run_tree: parent is the tree, change the output directory
        failed = produce(args.parent.resolve(), args.change, seeds, names, args.size)
        for line in failed:
            print(line)
        print(f"{len(names)} workloads x {len(seeds)} seeds run, {len(failed)} commands failed")
        return 1 if failed else 0
    with tempfile.TemporaryDirectory() as tmp:
        outs = Path(tmp) / "parent", Path(tmp) / "change"
        ran = [run_tree(tree.resolve(), out, args.seeds, args.workloads, args.size)
               for tree, out in zip((args.parent, args.change), outs)]  # fmt: skip
        found = differences(*outs)
        n_files = sum(1 for p in outs[0].rglob("*") if p.is_file() and not p.name.endswith(LOADED))
    for line in found:
        print(line)
    print(f"{n_files} files compared: {len(found)} differences")
    return 0 if all(ran) and not found else 1


if __name__ == "__main__":
    sys.exit(main())
