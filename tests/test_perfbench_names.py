"""Every name the benchmark's tracer patches must exist where it patches it."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()
PATCHED = sorted(
    {(mod, attr) for attr, mods in tracer.TRACED.values() for mod in mods}
    | {("cli", attr) for attr in tracer.PIPELINE_FACTORIES}
)


@pytest.mark.parametrize("module, name", PATCHED)
def test_traced_name_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"onofftomo.{module}"), name))
