"""The benchmark's tracer patches names that exist, and a traced run writes
exactly what an untraced one does."""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from onofftomo.cli import main

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


def test_traced_bootstrap_run_matches_untraced(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "state": {"kind": "coherent", "z": 1.0},
        "modulation": {"amps": [0.5], "n_phases": 4},
        "grid": {"k": 8, "eta_max": 0.67},
        "shots": 5000,
        "seed": 1,
        "em": {"tol": 1e-10, "max_iter": 200, "accelerate": False},
        "targets": ["pn", "wigner", "dm"],
        "dm": {"s_max": 1, "m_max": 3},
    }))
    data = tmp_path / "data"
    assert main(["simulate", "--config", str(cfg), "--out", str(data)]) == 0
    args = ["reconstruct", "--config", str(cfg), "--data", str(data / "dataset.json"),
            "--bootstrap", "2", "--out"]
    with tracer.Tracer().patch():
        assert main(args + [str(tmp_path / "traced")]) == 0
    assert main(args + [str(tmp_path / "plain")]) == 0
    names = sorted(p.name for p in (tmp_path / "plain").iterdir())
    assert names == ["diagnostics.json", "dm.csv", "pn.csv", "wigner.csv"]
    for name in names:
        assert (tmp_path / "traced" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()
