"""Compare every output of the benchmark workloads between two source trees.

Each tree runs every workload's chains (train, predict, rollout, horizon)
once per seed, at full size unless ``--size tiny`` is given, in one process
per tree with that tree's ``src`` first on the import path and 2 BLAS
threads, through the tree's own ``perfbench/worker.py`` (``generate_inputs``
and ``run_rep``).  Both run in the same relative working paths, so paths
written into reports agree.  The script then lists every command that failed
in either tree, every CSV, grid and model file whose bytes differ, every
report whose ``outputs`` or ``diagnostics`` block differs, and every file
that only one tree wrote.  It exits 1 on any failed command or difference
and 0 when every command succeeded and the two trees agree bit for bit.

Usage: python scripts/compare_outputs.py PARENT CHANGE [--seeds 0,1,2,3]
       [--workloads kernel-series,kernel-context,feature-context,scale-search]
       [--size full|tiny]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = "kernel-series,kernel-context,feature-context,scale-search"
BLAS_THREADS = "2"
# report blocks compared; the config block holds the run's own settings
REPORT_BLOCKS = ("outputs", "diagnostics")


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
    return failed


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


def report_blocks(path: Path) -> dict[str, str]:
    """The compared blocks of a report, each as its exact JSON text."""
    doc = json.loads(path.read_text())
    return {block: json.dumps(doc.get(block), sort_keys=True) for block in REPORT_BLOCKS}


def differences(a: Path, b: Path) -> list[str]:
    files = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files |= {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    found = []
    for rel in sorted(files):
        pa, pb = a / rel, b / rel
        if not (pa.exists() and pb.exists()):
            found.append(f"{rel}: only in {'the parent' if pa.exists() else 'the change'}")
        elif rel.suffix == ".json" and not rel.name.endswith(".model.json"):
            blocks_a, blocks_b = report_blocks(pa), report_blocks(pb)
            found += [f"{rel}: {block} differs" for block in REPORT_BLOCKS
                      if blocks_a[block] != blocks_b[block]]  # fmt: skip
        elif pa.read_bytes() != pb.read_bytes():
            found.append(f"{rel}: bytes differ")
    return found


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
        n_files = sum(1 for p in outs[0].rglob("*") if p.is_file())
    for line in found:
        print(line)
    print(f"{n_files} files compared: {len(found)} differences")
    return 0 if all(ran) and not found else 1


if __name__ == "__main__":
    sys.exit(main())
