"""scripts/compare_outputs.py: what its comparison flags, and that a failed
command fails the comparison even where both trees fail alike."""

import base64
import importlib.util
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np

from ecocast.io import load_model, model_to_json

REPO = Path(__file__).resolve().parents[1]
SCRIPT = REPO / "scripts" / "compare_outputs.py"
PINNED_V4 = REPO / "tests" / "data" / "model_v4_kernel.json"


def load_script():
    spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


COMPARE = load_script()
REPORT = {"config": {"seed": 0}, "outputs": {"rmse": 0.5}, "diagnostics": {"steps": 3}}


def write_report(path: Path, **blocks) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({**REPORT, **blocks}))


def run(*args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(SCRIPT), *map(str, args)],
                          capture_output=True, text=True, timeout=300)  # fmt: skip


class TestDifferences:
    def trees(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for tree in (a, b):
            write_report(tree / "w" / "same.train.json")
            (tree / "w" / "same.csv").write_text("1,2\n")
        return a, b

    def test_identical_trees_have_no_differences(self, tmp_path):
        assert COMPARE.differences(*self.trees(tmp_path)) == []

    def test_a_file_in_one_tree_only(self, tmp_path):
        a, b = self.trees(tmp_path)
        (a / "w" / "extra.csv").write_text("1\n")
        (b / "w" / "other.csv").write_text("1\n")
        assert COMPARE.differences(a, b) == [
            "w/extra.csv: only in the parent", "w/other.csv: only in the change"]

    def test_differing_bytes(self, tmp_path):
        a, b = self.trees(tmp_path)
        (b / "w" / "same.csv").write_text("1,2.0\n")
        assert COMPARE.differences(a, b) == ["w/same.csv: bytes differ"]

    def test_differing_outputs_and_diagnostics_are_flagged(self, tmp_path):
        a, b = self.trees(tmp_path)
        write_report(b / "w" / "same.train.json", outputs={"rmse": 0.25})
        write_report(b / "w" / "more.horizon.json")
        write_report(a / "w" / "more.horizon.json", diagnostics={"steps": 4})
        assert COMPARE.differences(a, b) == [
            "w/more.horizon.json: diagnostics differs\n    diagnostics.steps: 4 -> 3 (relative 0.25)",
            "w/same.train.json: outputs differs\n    outputs.rmse: 0.5 -> 0.25 (relative 0.5)"]

    def test_a_report_whose_config_alone_differs_is_not_flagged(self, tmp_path):
        a, b = self.trees(tmp_path)
        write_report(b / "w" / "same.train.json", config={"seed": 1, "model_out": "x"})
        assert COMPARE.differences(a, b) == []

    def test_a_model_file_is_compared_by_bytes(self, tmp_path):
        a, b = self.trees(tmp_path)
        # the same JSON document, written with other whitespace
        write_report(a / "w" / "k.model.json")
        (b / "w" / "k.model.json").write_text(json.dumps(REPORT, indent=1))
        assert COMPARE.differences(a, b) == ["w/k.model.json: bytes differ"]


def payload(values) -> dict:
    a = np.asarray(values, dtype="<f8")
    return {"f8": base64.b64encode(a.tobytes()).decode("ascii"), "shape": list(a.shape)}


class TestDifferenceSizes:
    """How large each difference is: CSV columns and model-file payloads by
    the largest difference relative to the parent column's largest
    magnitude, report numbers each by its own relative difference."""

    def pair(self, tmp_path, name, parent, change):
        a, b = tmp_path / "a", tmp_path / "b"
        for tree, text in ((a, parent), (b, change)):
            (tree / "w").mkdir(parents=True)
            (tree / "w" / name).write_text(text)
        return COMPARE.differences(a, b)

    def test_a_csv_is_measured_per_column(self, tmp_path):
        # 2 -> 3 is half of column a's largest magnitude, though only 0.005
        # of the table's; column b moves by 1e-4 of its own
        found = self.pair(tmp_path, "x.csv", "t,a,b\n0,1,100\n1,2,200\n",
                          "t,a,b\n0,1,100\n1,3,200.02\n")
        assert found == ["w/x.csv: bytes differ\n    largest relative difference 0.5"]

    def test_a_csv_of_another_shape_is_not_measured(self, tmp_path):
        found = self.pair(tmp_path, "x.csv", "t,a\n0,1\n", "t,a\n0,1\n1,2\n")
        assert found == ["w/x.csv: bytes differ"]

    def test_a_model_file_is_measured_per_payload_and_per_number(self, tmp_path):
        parent = {"ridge": 0.001, "bricks": [{"w": payload([[1.0, 100.0], [4.0, 50.0]]),
                                              "b": payload([1.0, 2.0])}]}
        change = {"ridge": 0.002, "bricks": [{"w": payload([[1.0, 100.0], [5.0, 50.0]]),
                                              "b": payload([1.0, 2.0])}]}
        found = self.pair(tmp_path, "k.model.json", json.dumps(parent), json.dumps(change))
        assert found == ["w/k.model.json: bytes differ"
                         "\n    model.bricks[0].w: largest relative difference 0.25"
                         "\n    model.ridge: 0.001 -> 0.002 (relative 1)"]

    def test_report_numbers_each_with_their_relative_difference(self, tmp_path):
        parent = {**REPORT, "outputs": {"rmse": 0.5, "horizon": 4, "curve": [1.0, 2.0, 4.0],
                                        "errors": [1.0], "stop": "completed"}}
        change = {**REPORT, "outputs": {"rmse": 0.5000005, "horizon": 4, "curve": [1.0, 2.0, 4.000004],
                                        "errors": [1.0, 2.0], "stop": "diverged"}}
        found = self.pair(tmp_path, "r.horizon.json", json.dumps(parent), json.dumps(change))
        assert found == ["w/r.horizon.json: outputs differs"
                         "\n    outputs.curve: 1 of 3 numbers differ, largest relative difference 1e-06 at [2]"
                         "\n    outputs.errors: 1 items -> 2 items"
                         "\n    outputs.rmse: 0.5 -> 0.5000005 (relative 1e-06)"
                         '\n    outputs.stop: "completed" -> "diverged"']


class TestLoadedModels:
    """Each tree's model files are compared by the arrays that its loader
    reads, next to their bytes."""

    def trees(self, tmp_path, parent_text, change_text):
        a, b = tmp_path / "a", tmp_path / "b"
        for tree, text in ((a, parent_text), (b, change_text)):
            (tree / "w").mkdir(parents=True)
            (tree / "w" / "k.model.json").write_text(text)
            COMPARE.write_loaded(tree / "w" / "k.model.json", load_model)
        return a, b

    def test_the_loaded_arrays_are_every_array_of_the_model(self):
        model = load_model(PINNED_V4)
        arrays = COMPARE.loaded_arrays(model)
        assert sorted(arrays) == [
            "bricks[0].dual_coefficients", "bricks[0].training_inputs",
            "bricks[1].dual_coefficients", "bricks[1].training_inputs",
            "context", "last_training_state", "scaling.offsets", "scaling.scales"]
        assert arrays["bricks[1].training_inputs"] is model.bricks[1].training_inputs

    def test_a_format_change_that_keeps_every_array_reads_as_equal_after_load(self, tmp_path):
        v4 = PINNED_V4.read_text()
        v5 = model_to_json(load_model(PINNED_V4))  # series rows of brick 2 stored once
        assert COMPARE.differences(*self.trees(tmp_path, v4, v5)) == [
            "w/k.model.json: bytes differ, every loaded array equal"
            "\n    model.bricks[1].training_inputs: shape [4, 11] -> [2, 11]"
            "\n    model.format_version: 4 -> 5 (relative 0.25)"]

    def test_a_loaded_array_that_differs_is_measured(self, tmp_path):
        doc = json.loads(PINNED_V4.read_text())
        state = np.frombuffer(base64.b64decode(doc["last_training_state"]["f8"]), dtype="<f8")
        doc["last_training_state"] = payload(1.5 * state)
        found = COMPARE.differences(*self.trees(tmp_path, PINNED_V4.read_text(), json.dumps(doc)))
        assert found == ["w/k.model.json: bytes differ, loaded arrays differ"
                         "\n    model.last_training_state: largest relative difference 0.5"
                         "\n    loaded.last_training_state: largest relative difference 0.5"]

    def test_the_same_bytes_loaded_alike_are_no_difference(self, tmp_path):
        text = PINNED_V4.read_text()
        assert COMPARE.differences(*self.trees(tmp_path, text, text)) == []


def test_a_tiny_self_comparison_of_the_checkout_agrees(tmp_path):
    done = run(REPO, REPO, "--size", "tiny", "--workloads", "kernel-series", "--seeds", "0")
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.strip().endswith(" 0 differences")
    assert "0 commands failed" in done.stdout


def test_a_failed_command_fails_the_comparison_of_trees_that_agree(tmp_path):
    tree = tmp_path / "tree"
    (tree / "src").mkdir(parents=True)
    (tree / "perfbench").mkdir()
    (tree / "perfbench" / "workloads.py").write_text("def get(name, size):\n    return name\n")
    (tree / "perfbench" / "worker.py").write_text(textwrap.dedent("""\
        from types import SimpleNamespace

        def generate_inputs(w, seed, workdir):
            return [], [SimpleNamespace(key="setup/0", command="simulate", rc=0)]

        def run_rep(w, inputs, seed, workdir):
            (workdir / "train.csv").write_text("1\\n")
            return {}, [SimpleNamespace(key="kernel/0", command="train", rc=1)]
        """))
    done = run(tree, tree, "--size", "tiny", "--workloads", "kernel-series", "--seeds", "0")
    assert done.returncode == 1, done.stdout + done.stderr
    assert "kernel-series/0: kernel/0 train exited 1" in done.stdout
    assert "1 commands failed" in done.stdout
    assert done.stdout.strip().endswith(" 0 differences")
