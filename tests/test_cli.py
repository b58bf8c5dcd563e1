"""Command-line workflow: files, determinism, exit codes."""

import json
import math
import os

import numpy as np
import pytest

from onofftomo.cli import main
from onofftomo.datafile import read_csv, read_dataset_file


def write_config(path, **overrides):
    doc = {
        "state": {"kind": "vacuum"},
        "modulation": {"amps": [0.0], "n_phases": 1},
        "grid": {"k": 25, "eta_max": 0.67},
        "shots": 2000,
        "seed": 1,
        "em": {"tol": 1e-9, "max_iter": 2000, "accelerate": True},
        "targets": ["wigner"],
        "output": {"dir": str(path.parent / "out")},
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return doc


class TestSimulate:
    def test_vacuum_all_off(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        assert main(["simulate", "--config", str(cfg)]) == 0
        bundle = read_dataset_file(str(tmp_path / "out" / "dataset.json"))
        assert all(np.all(c == 2000) for c in bundle.counts.values())

    def test_byte_identical_reruns(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, state={"kind": "thermal", "n_th": 1.1}, shots=5000)
        out = tmp_path / "out" / "dataset.json"
        assert main(["simulate", "--config", str(cfg)]) == 0
        first = out.read_bytes()
        assert main(["simulate", "--config", str(cfg)]) == 0
        assert out.read_bytes() == first
        assert main(["simulate", "--config", str(cfg), "--seed", "9"]) == 0
        assert out.read_bytes() != first

    def test_record_structure(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(
            cfg,
            state={"kind": "thermal", "n_th": 2.4},
            modulation={"amps": [0.0, 0.5], "n_phases": 2},
            grid={"k": 25, "eta_max": 0.29},
            shots=30000,
        )
        assert main(["simulate", "--config", str(cfg)]) == 0
        bundle = read_dataset_file(str(tmp_path / "out" / "dataset.json"))
        assert len(bundle.counts) == 4
        for counts in bundle.counts.values():
            assert counts.size == 25
            assert np.all(counts <= 30000)


class TestReconstruct:
    def test_vacuum_wigner_with_bootstrap(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, em={"n_max": 6, "tol": 1e-9, "max_iter": 2000})
        assert main(["simulate", "--config", str(cfg)]) == 0
        data = str(tmp_path / "out" / "dataset.json")
        assert main(["reconstruct", "--config", str(cfg), "--data", data, "--bootstrap", "8"]) == 0
        header, rows = read_csv(str(tmp_path / "out" / "wigner.csv"))
        idx = {h: i for i, h in enumerate(header)}
        assert len(rows) == 1
        assert float(rows[0][idx["wigner"]]) == pytest.approx(1.0, abs=1e-3)
        assert float(rows[0][idx["stderr"]]) <= 1e-9

    def test_dm_rows_for_phase_modulated_run(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(
            cfg,
            state={"kind": "coherent", "z": 1.8},
            modulation={"amps": [0.1], "n_phases": 12},
            shots=30000,
            targets=["dm"],
            dm={"s_max": 1, "m_max": 10},
            em={"tol": 1e-12, "max_iter": 1500, "accelerate": False},
        )
        assert main(["simulate", "--config", str(cfg)]) == 0
        data = str(tmp_path / "out" / "dataset.json")
        assert main(["reconstruct", "--config", str(cfg), "--data", data]) == 0
        header, rows = read_csv(str(tmp_path / "out" / "dm.csv"))
        idx = {h: i for i, h in enumerate(header)}
        s_values = {int(r[idx["s"]]) for r in rows}
        assert s_values == {0, 1}
        diag0 = [r for r in rows if r[idx["n"]] == "0" and r[idx["m"]] == "0"][0]
        assert float(diag0[idx["real"]]) == pytest.approx(math.exp(-3.24), abs=0.05)

    def test_exact_mode_without_dataset(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(
            cfg,
            state={"kind": "coherent", "z": 1.8},
            modulation={"amps": [0.1], "n_phases": 12},
            targets=["dm"],
            dm={"s_max": 1, "m_max": None},
        )
        assert main(["reconstruct", "--config", str(cfg), "--exact"]) == 0
        header, rows = read_csv(str(tmp_path / "out" / "dm.csv"))
        idx = {h: i for i, h in enumerate(header)}
        sub = [r for r in rows if r[idx["n"]] == "1" and r[idx["m"]] == "0"][0]
        assert float(sub[idx["real"]]) == pytest.approx(math.exp(-3.24) * 1.8, abs=1e-6)

    def test_exact_plus_bootstrap_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        assert main(["reconstruct", "--config", str(cfg), "--exact", "--bootstrap", "4"]) == 2

    def test_end_to_end_determinism(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(
            cfg,
            state={"kind": "thermal", "n_th": 1.4},
            modulation={"amps": [0.0, 0.6], "n_phases": 1},
            shots=3000,
            targets=["pn", "wigner"],
            em={"tol": 1e-8, "max_iter": 500, "accelerate": False},
        )
        assert main(["simulate", "--config", str(cfg)]) == 0
        data = str(tmp_path / "out" / "dataset.json")
        assert main(["reconstruct", "--config", str(cfg), "--data", data]) == 0
        files = ["pn.csv", "wigner.csv", "diagnostics.json"]
        snap = {f: (tmp_path / "out" / f).read_bytes() for f in files}
        assert main(["reconstruct", "--config", str(cfg), "--data", data]) == 0
        for f in files:
            assert (tmp_path / "out" / f).read_bytes() == snap[f]

    def test_partial_failure_manifest(self, tmp_path):
        # a hopeless svd cutoff trips rank deficiency -> manifest + exit 3
        cfg = tmp_path / "cfg.json"
        write_config(
            cfg,
            state={"kind": "coherent", "z": 0.8},
            modulation={"amps": [0.2], "n_phases": 8},
            shots=2000,
            targets=["dm", "wigner"],
            dm={"s_max": 1, "m_max": 8, "svd_cutoff": 0.99},
            em={"tol": 1e-8, "max_iter": 300, "accelerate": False},
        )
        assert main(["simulate", "--config", str(cfg)]) == 0
        data = str(tmp_path / "out" / "dataset.json")
        assert main(["reconstruct", "--config", str(cfg), "--data", data]) == 3
        diag = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
        assert diag["failures"]
        assert (tmp_path / "out" / "wigner.csv").exists()

    def _partial_failure_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(
            cfg,
            state={"kind": "coherent", "z": 0.8},
            modulation={"amps": [0.2], "n_phases": 8},
            shots=2000,
            targets=["dm", "wigner"],
            dm={"s_max": 1, "m_max": 8, "svd_cutoff": 0.99},
            em={"tol": 1e-8, "max_iter": 300, "accelerate": False},
        )
        assert main(["simulate", "--config", str(cfg)]) == 0
        return cfg, str(tmp_path / "out" / "dataset.json")

    def test_partial_failure_manifest_with_bootstrap(self, tmp_path):
        cfg, data = self._partial_failure_config(tmp_path)
        args = ["reconstruct", "--config", str(cfg), "--data", data, "--bootstrap", "4"]
        assert main(args) == 3
        diag = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
        assert [f["target"] for f in diag["failures"]] == ["dm"]
        # the dm failure leaves the wigner bootstrap standing
        header, rows = read_csv(str(tmp_path / "out" / "wigner.csv"))
        assert len(rows) == 8 and all(r[header.index("stderr")] for r in rows)
        assert diag["bootstrap"]["outcomes"] == [
            {"amp": 0.2, "target": "wigner", "succeeded": 4, "failed": 0}
        ]

    def test_bootstrap_failure_is_recorded(self, tmp_path, monkeypatch):
        # a BootstrapError after a successful point estimate keeps the point
        # estimate's rows and lands in the failure manifest
        from onofftomo import cli
        from onofftomo.errors import BootstrapError

        def failing_bootstrap(*args, **kwargs):
            raise BootstrapError("3/4 bootstrap replicas failed to reconstruct")

        monkeypatch.setattr(cli, "bootstrap", failing_bootstrap)
        cfg = tmp_path / "cfg.json"
        write_config(cfg, em={"n_max": 6, "tol": 1e-9, "max_iter": 2000})
        assert main(["simulate", "--config", str(cfg)]) == 0
        data = str(tmp_path / "out" / "dataset.json")
        assert main(["reconstruct", "--config", str(cfg), "--data", data, "--bootstrap", "4"]) == 3
        diag = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
        assert diag["failures"] == [
            {"amp": 0.0, "target": "wigner",
             "error": "3/4 bootstrap replicas failed to reconstruct"}
        ]
        assert diag["bootstrap"]["outcomes"] == []
        header, rows = read_csv(str(tmp_path / "out" / "wigner.csv"))
        assert len(rows) == 1 and rows[0][header.index("stderr")] == ""

    def test_dm_bootstrap_with_automatic_m_range(self, tmp_path):
        # with m_max null the replicas fit the same m range as the point
        # estimate, so every dm.csv row (up to n = m = n_max) gets a stderr
        cfg = tmp_path / "cfg.json"
        write_config(
            cfg,
            state={"kind": "coherent", "z": 1.8},
            modulation={"amps": [0.1], "n_phases": 12},
            shots=30000,
            targets=["pn", "dm"],
            dm={"s_max": 1, "m_max": None},
            em={"n_max": None, "tol": 1e-12, "max_iter": 3000, "accelerate": False},
        )
        assert main(["simulate", "--config", str(cfg)]) == 0
        data = str(tmp_path / "out" / "dataset.json")
        assert main(["reconstruct", "--config", str(cfg), "--data", data, "--bootstrap", "3"]) == 0
        header, rows = read_csv(str(tmp_path / "out" / "dm.csv"))
        idx = {h: i for i, h in enumerate(header)}
        n_max = json.loads((tmp_path / "out" / "diagnostics.json").read_text())["em"][0]["n_max"]
        assert ["0", str(n_max), str(n_max)] in [[r[idx["s"]], r[idx["n"]], r[idx["m"]]] for r in rows]
        assert all(r[idx["stderr"]] for r in rows)
        diag = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
        assert diag["bootstrap"]["outcomes"] == [
            {"amp": 0.1, "target": "dm", "succeeded": 3, "failed": 0}
        ]


class TestReport:
    def _prepare(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(
            cfg,
            state={"kind": "thermal", "n_th": 1.4},
            modulation={"amps": [0.9, 0.0, 0.45], "n_phases": 1},
            shots=4000,
            targets=["pn", "wigner"],
            em={"tol": 1e-8, "max_iter": 400, "accelerate": False},
        )
        assert main(["simulate", "--config", str(cfg)]) == 0
        data = str(tmp_path / "out" / "dataset.json")
        assert main(["reconstruct", "--config", str(cfg), "--data", data]) == 0
        return cfg

    def test_radial_table_sorted(self, tmp_path, capsys):
        self._prepare(tmp_path)
        assert main(["report", "--results", str(tmp_path / "out")]) == 0
        header, rows = read_csv(str(tmp_path / "out" / "wigner_radial.csv"))
        amps = [float(r[0]) for r in rows]
        assert amps == sorted(amps)

    def test_report_is_idempotent(self, tmp_path):
        self._prepare(tmp_path)
        assert main(["report", "--results", str(tmp_path / "out")]) == 0
        snap = (tmp_path / "out" / "wigner_radial.csv").read_bytes()
        assert main(["report", "--results", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "wigner_radial.csv").read_bytes() == snap

    def test_delta_table_with_theory(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(
            cfg,
            state={"kind": "thermal", "n_th": 1.4},
            modulation={"amps": [1.33], "n_phases": 12},
            shots=20000,
            targets=["dm"],
            dm={"s_max": 1, "m_max": 8},
            em={"tol": 1e-12, "max_iter": 1500, "accelerate": False},
        )
        assert main(["simulate", "--config", str(cfg)]) == 0
        data = str(tmp_path / "out" / "dataset.json")
        assert main(["reconstruct", "--config", str(cfg), "--data", data]) == 0
        assert main(["report", "--results", str(tmp_path / "out"), "--config", str(cfg)]) == 0
        header, rows = read_csv(str(tmp_path / "out" / "delta.csv"))
        assert header == ["n", "m", "delta"]
        assert all(float(r[2]) >= 0 for r in rows)

    def test_empty_results_dir_rejected(self, tmp_path):
        os.makedirs(tmp_path / "nothing")
        assert main(["report", "--results", str(tmp_path / "nothing")]) == 2


class TestExitCodes:
    def test_unknown_config_field(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        doc = write_config(cfg)
        doc["surprise"] = 1
        cfg.write_text(json.dumps(doc))
        assert main(["simulate", "--config", str(cfg)]) == 2

    def test_bad_state_kind(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, state={"kind": "squeezed", "r": 1.0})
        assert main(["simulate", "--config", str(cfg)]) == 2

    def test_missing_dataset_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        assert main(["reconstruct", "--config", str(cfg), "--data", str(tmp_path / "no.json")]) == 4

    def test_malformed_json(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert main(["simulate", "--config", str(cfg)]) == 4

    def test_selftest_passes(self):
        assert main(["selftest"]) == 0

    def test_env_output_dir(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        doc = write_config(cfg)
        doc.pop("output")
        cfg.write_text(json.dumps(doc))
        monkeypatch.setenv("ONOFFTOMO_OUT", str(tmp_path / "envout"))
        assert main(["simulate", "--config", str(cfg)]) == 0
        assert (tmp_path / "envout" / "dataset.json").exists()
