"""The benchmark tracer (perfbench/tracer.py) names ecocast functions and
methods by string; every name must resolve the way ``Tracer.install`` looks
it up, or the traced benchmark run fails."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = tracer_targets()


@pytest.mark.parametrize("module_name, attr", [t[:2] for t in TARGETS], ids=[t[2] for t in TARGETS])
def test_target_resolves(module_name, attr):
    owner = importlib.import_module(f"ecocast.{module_name}")
    if "." in attr:
        cls_name, method = attr.split(".")
        # install patches the entry in the class's own body, never an inherited one
        assert inspect.isfunction(vars(getattr(owner, cls_name)).get(method))
    else:
        assert inspect.isfunction(getattr(owner, attr))
