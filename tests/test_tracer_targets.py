"""The benchmark tracer (perfbench/tracer.py) names ecocast functions and
methods by string; every name must resolve the way ``Tracer.install`` looks
it up, and every counter must read what its target returns, or the traced
benchmark run fails."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from ecocast import cli

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = load_tracer()
TARGETS = TRACER.TARGETS


@pytest.mark.parametrize("module_name, attr", [t[:2] for t in TARGETS], ids=[t[2] for t in TARGETS])
def test_target_resolves(module_name, attr):
    owner = importlib.import_module(f"ecocast.{module_name}")
    if "." in attr:
        cls_name, method = attr.split(".")
        # install patches the entry in the class's own body, never an inherited one
        assert inspect.isfunction(vars(getattr(owner, cls_name)).get(method))
    else:
        assert inspect.isfunction(getattr(owner, attr))


def test_every_counted_span_carries_its_counts(tmp_path):
    series, model = tmp_path / "series.csv", tmp_path / "model.json"
    chain = [
        ["simulate", "--dt", "0.05", "--steps", "60", "--output", series],
        ["train", "--series", series, "--brick-kind", "linear", "--model-out", model],
        ["horizon", "--series", series, "--model-in", model, "--split-fraction", "0.8"],
        ["train", "--series", series, "--ridge", "1e-3", "--split-fraction", "0.8",
         "--rho-grid", "0.5,2", "--model-out", model],
        ["rollout", "--series", series, "--model-in", model, "--steps", "5",
         "--output", tmp_path / "roll.csv"],
    ]
    tracer = TRACER.Tracer("test")
    tracer.install()
    try:
        # a counter that raises turns into a failed command with error JSON
        codes = [cli.main([str(a) for a in argv] + ["--report", str(tmp_path / "report.json")])
                 for argv in chain]
    finally:
        tracer.uninstall()
    assert codes == [0] * len(chain)
    counted = {name for _, _, name, counter in TARGETS if counter is not None}
    seen = set()
    for span in tracer.spans:
        name, counts = span[2], span[6]
        if name in counted:
            seen.add(name)
            assert counts and all(isinstance(v, (int, float)) for v in counts.values()), name
    assert seen == counted


def test_a_traced_train_times_the_scaling_transform(tmp_path):
    series, model = tmp_path / "series.csv", tmp_path / "model.json"
    report = ["--report", str(tmp_path / "report.json")]
    assert cli.main(["simulate", "--dt", "0.05", "--steps", "60", "--output", str(series)]
                    + report) == 0
    tracer = TRACER.Tracer("test")
    tracer.install()
    try:
        code = cli.main(["train", "--series", str(series), "--model-out", str(model)] + report)
    finally:
        tracer.uninstall()
    assert code == 0
    assert any(span[2] == "scaling.adimensionalize" for span in tracer.spans)


@pytest.mark.parametrize("kind, span_name", [("kernel", "bricks.apply.kernel"),
                                             ("dsn", "bricks.apply.dsn")])
def test_every_rollout_step_applies_each_brick_through_its_traced_method(tmp_path, kind,
                                                                          span_name):
    """A step that bypassed ``apply_columns`` would leave the per-layer
    ``bricks.apply.*`` metrics blind: 5 steps of 2 bricks are 10 spans."""
    series, model = tmp_path / "series.csv", tmp_path / "model.json"
    report = ["--report", str(tmp_path / "report.json")]
    assert cli.main(["simulate", "--dt", "0.05", "--steps", "60", "--output", str(series)]
                    + report) == 0
    assert cli.main(["train", "--series", str(series), "--brick-kind", kind, "--bricks", "2",
                     "--ridge", "1e-6", "--model-out", str(model)] + report) == 0
    tracer = TRACER.Tracer("test")
    tracer.install()
    try:
        code = cli.main(["rollout", "--series", str(series), "--model-in", str(model),
                         "--steps", "5", "--output", str(tmp_path / "roll.csv")] + report)
    finally:
        tracer.uninstall()
    assert code == 0
    names = [span[2] for span in tracer.spans]
    assert names.count(span_name) == 10
    assert not any(n.startswith("bricks.apply.") and n != span_name for n in names)
