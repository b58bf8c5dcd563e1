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


RECONSTRUCT_FILES = ["diagnostics.json", "dm.csv", "pn.csv", "wigner.csv"]


def write_config(tmp_path):
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
    return cfg


def assert_traced_matches_plain(tmp_path, args, names):
    """Run ``args + [out dir]`` inside the tracer's patches and without them;
    both runs write ``names`` and nothing else, with the same bytes.  Returns
    the tracer's call counts."""
    with tracer.Tracer().patch() as traced:
        assert main(args + [str(tmp_path / "traced")]) == 0
    assert main(args + [str(tmp_path / "plain")]) == 0
    for run in ("traced", "plain"):
        assert sorted(p.name for p in (tmp_path / run).iterdir()) == names
    for name in names:
        assert (tmp_path / "traced" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()
    return traced.counts


def test_traced_bootstrap_run_matches_untraced(tmp_path):
    cfg = write_config(tmp_path)
    data = tmp_path / "data"
    assert main(["simulate", "--config", str(cfg), "--out", str(data)]) == 0
    args = ["reconstruct", "--config", str(cfg), "--data", str(data / "dataset.json"),
            "--bootstrap", "2", "--out"]
    assert_traced_matches_plain(tmp_path, args, RECONSTRUCT_FILES)


def test_traced_simulate_matches_untraced(tmp_path):
    args = ["simulate", "--config", str(write_config(tmp_path)), "--out"]
    counts = assert_traced_matches_plain(tmp_path, args, ["dataset.json"])
    assert counts["fock.displaced_photon_distribution_auto.calls"] == 4
    assert counts["fock.displacement_matrix.calls"] >= 4


def test_traced_exact_run_matches_untraced(tmp_path):
    args = ["reconstruct", "--config", str(write_config(tmp_path)), "--exact", "--out"]
    counts = assert_traced_matches_plain(tmp_path, args, RECONSTRUCT_FILES)
    assert counts["fock.displacement_matrix.calls"] >= 4
    assert counts["inversion.build_kernel.calls"] == 2
