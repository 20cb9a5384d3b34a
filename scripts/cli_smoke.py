"""Run the installed ``ecocast`` console script end to end.

simulate -> fit-lv -> train --grid -> predict -> rollout -> horizon, then a
DSN train and a scale-search train on the same grid, one process per
command, in a temporary directory.  Each command must exit 0 and write a
report whose outputs make sense; before them, ``--help`` must exit 0 for the
program and each of its eight commands, and an abbreviated flag must exit 2;
``train --ridge -inf`` must exit 1 with the ridge error.
The first failure stops the run with a nonzero exit status.

Usage: python scripts/cli_smoke.py   (after ``pip install -e .``, which puts
``ecocast`` on PATH)
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = ("simulate", "fit-lv", "train", "predict", "rollout", "horizon", "count-params", "usle")

GRID = """ncols 3
nrows 2
xllcorner 0.0
yllcorner 0.0
cellsize 10.0
NODATA_value -9999.0
120.0 180.0 240.0
150.0 210.0 270.0
"""


def check(ok: bool, what: str) -> None:
    if not ok:
        sys.exit(f"cli_smoke: {what}")


def ecocast(exe: str, workdir: Path, command: str, *args: str) -> dict:
    """Run one command in its own process; returns its report's outputs."""
    report = workdir / f"{command}.json"
    proc = subprocess.run(
        [exe, command, *args, "--report", str(report)], capture_output=True, text=True
    )
    check(proc.returncode == 0, f"ecocast {command} exited {proc.returncode}: {proc.stderr.strip()}")
    doc = json.loads(report.read_text())
    check(doc["command"] == command, f"the {command} report names command {doc['command']!r}")
    print(f"ecocast {command}: exit 0, report written")
    return doc["outputs"]


def exit_status(exe: str, *args: str) -> int:
    return subprocess.run([exe, *args], capture_output=True).returncode


def main() -> None:
    exe = shutil.which("ecocast")
    check(exe is not None, "no ecocast console script on PATH; run pip install -e . first")
    for args in (["--help"], *([command, "--help"] for command in COMMANDS)):
        status = exit_status(exe, *args)
        check(status == 0, f"ecocast {' '.join(args)} exited {status}")
    print(f"ecocast --help: exit 0 for the program and its {len(COMMANDS)} commands")
    # --series-len abbreviates --series-length; every flag must be spelled in full
    status = exit_status(exe, "count-params", "--series-count", "2", "--series-len", "9")
    check(status == 2, f"the abbreviated flag --series-len exited {status}, not 2")
    print("ecocast count-params --series-len: exit 2, an abbreviated flag is refused")
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        series, grid, model = str(d / "series.csv"), str(d / "dtm.asc"), str(d / "model.json")
        (d / "dtm.asc").write_text(GRID)
        inputs = ["--series", series, "--grid", grid]

        out = ecocast(exe, d, "simulate", "--dt", "0.05", "--steps", "200", "--output", series)
        check(out["points"] == 201, f"simulate wrote {out['points']} points, not 201")

        # a negative infinity is a value that reaches the ridge check, not a flag
        proc = subprocess.run([exe, "train", "--series", series, "--model-out", model,
                               "--ridge", "-inf"], capture_output=True, text=True)  # fmt: skip
        check(proc.returncode == 1, f"train --ridge -inf exited {proc.returncode}, not 1")
        message = json.loads(proc.stderr)["error"]["message"]
        want = "the ridge lam must be finite and >= 0; got -inf"
        check(message == want, f"train --ridge -inf says {message!r}, not {want!r}")
        print("ecocast train --ridge -inf: exit 1 with the ridge error")

        # the simulator's default rate constants, recovered from its own series
        out = ecocast(exe, d, "fit-lv", "--series", series)
        for name, truth in (("alpha", 1.1), ("beta", 0.4), ("gamma", 0.4), ("delta", 0.1)):
            check(abs(out[name] - truth) <= 0.05 * truth,
                  f"fit-lv {name} = {out[name]}, not within 5 % of {truth}")
        check(out["clamped"] is False, "fit-lv clamped an estimate")

        out = ecocast(
            exe, d, "train", *inputs, "--brick-kind", "kernel", "--bricks", "3",
            "--ridge", "1e-6", "--split-fraction", "0.8", "--model-out", model,
        )  # fmt: skip
        check(out["training_pairs"] == 160, f"train used {out['training_pairs']} pairs, not 160")
        check(math.isfinite(out["validation_rmse"]), "train reports no finite validation RMSE")

        out = ecocast(exe, d, "predict", *inputs, "--model-in", model,
                      "--output", str(d / "predict.csv"))  # fmt: skip
        check(out["points"] == 201, f"predict wrote {out['points']} points, not 201")

        out = ecocast(exe, d, "rollout", *inputs, "--model-in", model, "--steps", "40",
                      "--output", str(d / "rollout.csv"))  # fmt: skip
        check(out["steps_completed"] == 40, f"rollout completed {out['steps_completed']} of 40 steps")

        out = ecocast(exe, d, "horizon", *inputs, "--model-in", model, "--split-fraction", "0.8")
        check(out["horizon"] >= 1, f"horizon is {out['horizon']}")

        # the feature-kind and scale-search training paths, on the same grid
        dsn_model, searched = str(d / "dsn.model.json"), str(d / "searched.model.json")
        out = ecocast(
            exe, d, "train", *inputs, "--brick-kind", "dsn", "--bricks", "2",
            "--hidden-size", "16", "--ridge", "1e-6", "--split-fraction", "0.8",
            "--model-out", dsn_model,
        )  # fmt: skip
        check(out["training_pairs"] == 160, f"dsn train used {out['training_pairs']} pairs")
        check(math.isfinite(out["validation_rmse"]), "dsn train reports no finite RMSE")
        check(Path(dsn_model).stat().st_size > 0, "dsn train wrote no model")

        out = ecocast(
            exe, d, "train", *inputs, "--brick-kind", "kernel", "--bricks", "2",
            "--ridge", "1e-3", "--split-fraction", "0.8", "--rho-grid", "0.5,2",
            "--model-out", searched,
        )  # fmt: skip
        search = out["scale_search"]
        check(search["evaluations"] > 1, f"the scale search ran {search['evaluations']} times")
        trace = search["loss_trace"]
        check(all(math.isfinite(x) for x in trace), "the scale search loss trace is not finite")
        check(all(a >= b for a, b in zip(trace, trace[1:])), "the scale search loss trace rises")
        check(math.isfinite(out["validation_rmse"]), "searched train reports no finite RMSE")
        check(Path(searched).stat().st_size > 0, "searched train wrote no model")
    print("cli_smoke: all eight commands passed")


if __name__ == "__main__":
    main()
