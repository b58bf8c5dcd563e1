"""Command-line workflow: files, determinism, exit codes."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

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
        assert all(np.all(ds.off_counts == 2000) for ds in bundle.records)

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
        assert len(bundle.records) == 4
        for ds in bundle.records:
            assert ds.off_counts.size == 25
            assert np.all(ds.off_counts <= 30000)


    def test_explicit_state_truncation_is_recorded(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, state={"kind": "thermal", "n_th": 0.5, "n_max": 25})
        assert main(["simulate", "--config", str(cfg)]) == 0
        assert read_dataset_file(str(tmp_path / "out" / "dataset.json")).truncation == 25


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

    def test_exact_mode_grows_truncation_to_m_max(self, tmp_path):
        # the automatic truncation (n_max 30) is below m_max + s_max = 41
        cfg = tmp_path / "cfg.json"
        write_config(
            cfg,
            state={"kind": "coherent", "z": 1.8},
            modulation={"amps": [0.5], "n_phases": 4},
            targets=["pn", "dm"],
            dm={"s_max": 1, "m_max": 40},
        )
        assert main(["reconstruct", "--config", str(cfg), "--exact"]) == 0
        _, pn_rows = read_csv(str(tmp_path / "out" / "pn.csv"))
        assert len(pn_rows) == 4 * 42
        header, rows = read_csv(str(tmp_path / "out" / "dm.csv"))
        idx = {h: i for i, h in enumerate(header)}
        for s in (0, 1):
            ms = [int(r[idx["m"]]) for r in rows if r[idx["s"]] == str(s)]
            assert ms == list(range(41))

    def test_exact_mode_shares_one_truncation_across_phases(self, tmp_path):
        # |4.5 e^(i phi)| is 4.500000000000001 at one of the 8 phases, whose
        # displaced tail picks truncation 66 where the others pick 65
        cfg = tmp_path / "cfg.json"
        write_config(
            cfg,
            state={"kind": "coherent", "z": 0.5},
            modulation={"amps": [4.5], "n_phases": 8},
            targets=["pn", "dm"],
            dm={"s_max": 1},
        )
        assert main(["reconstruct", "--config", str(cfg), "--exact"]) == 0
        _, pn_rows = read_csv(str(tmp_path / "out" / "pn.csv"))
        assert len(pn_rows) == 8 * 67
        header, rows = read_csv(str(tmp_path / "out" / "dm.csv"))
        idx = {h: i for i, h in enumerate(header)}
        value = {(r[idx["n"]], r[idx["m"]]): float(r[idx["real"]]) for r in rows}
        assert value[("0", "0")] == pytest.approx(math.exp(-0.25), abs=1e-4)
        assert value[("1", "0")] == pytest.approx(0.5 * math.exp(-0.25), abs=1e-4)

    # SHA-256 of each exact-mode output file: they pin the displacement ->
    # kernel -> inversion chain byte for byte (numpy 2.4, OpenBLAS)
    EXACT_GOLDEN = {
        "pn.csv": "9027ed00e27d8d5b65fa65b4b5dc001ff040354ba05a3ca3bd15e85ede78d29c",
        "wigner.csv": "32732faae717d01f8ab71b10505a620538e18aa117707a1fb2c577781d47248b",
        "dm.csv": "b483c64923935b1d2e66d5424d03e4332719015e1d7a6e26eb38a490a474894d",
    }

    def test_exact_mode_golden_hashes(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(
            cfg,
            state={"kind": "thermal", "n_th": 1.0},
            modulation={"amps": [1.0], "n_phases": 8},
            targets=["pn", "wigner", "dm"],
            dm={"s_max": 3},
        )
        assert main(["reconstruct", "--config", str(cfg), "--exact"]) == 0
        digests = {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
                   for name in self.EXACT_GOLDEN}
        assert digests == self.EXACT_GOLDEN

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

    def test_default_em_converges_on_finite_shots(self, tmp_path):
        # no "em" section: the accelerated defaults (tol 1e-9) reach their stop
        cfg = tmp_path / "cfg.json"
        doc = write_config(
            cfg,
            state={"kind": "thermal", "n_th": 2.4},
            modulation={"amps": [0.0, 1.0, 2.0, 3.0], "n_phases": 1},
            shots=30000,
            targets=["pn", "wigner"],
        )
        doc.pop("em")
        cfg.write_text(json.dumps(doc))
        assert main(["simulate", "--config", str(cfg)]) == 0
        data = str(tmp_path / "out" / "dataset.json")
        assert main(["reconstruct", "--config", str(cfg), "--data", data]) == 0
        em = json.loads((tmp_path / "out" / "diagnostics.json").read_text())["em"]
        assert len(em) == 4
        assert all(r["converged"] and r["iterations"] <= 100 for r in em)

    @pytest.mark.parametrize("accelerate", [True, False])
    def test_em_records_carry_the_entropy_weight(self, tmp_path, accelerate):
        # lam = 1/sqrt(shots) for the accelerated solve; plain records have no lam
        cfg = tmp_path / "cfg.json"
        write_config(
            cfg,
            state={"kind": "thermal", "n_th": 1.0},
            modulation={"amps": [0.5], "n_phases": 2},
            shots=40000,
            targets=["pn"],
            em={"tol": 1e-9, "max_iter": 200, "accelerate": accelerate},
        )
        assert main(["simulate", "--config", str(cfg)]) == 0
        data = str(tmp_path / "out" / "dataset.json")
        assert main(["reconstruct", "--config", str(cfg), "--data", data]) == 0
        em = json.loads((tmp_path / "out" / "diagnostics.json").read_text())["em"]
        assert [r.get("lam") for r in em] == [0.005 if accelerate else None] * 2

    def test_one_em_call_for_every_amplitude(self, tmp_path, monkeypatch):
        from onofftomo import cli

        calls = []

        def counting(datasets, *args, **kwargs):
            calls.append(len(datasets))
            return solve(datasets, *args, **kwargs)

        solve = cli.reconstruct_pn_batch
        monkeypatch.setattr(cli, "reconstruct_pn_batch", counting)
        cfg = tmp_path / "cfg.json"
        write_config(
            cfg,
            state={"kind": "thermal", "n_th": 1.4},
            modulation={"amps": [0.0, 1.5], "n_phases": 2},
            shots=3000,
            targets=["pn", "wigner"],
            em={"tol": 1e-8, "max_iter": 300, "accelerate": False},
        )
        assert main(["simulate", "--config", str(cfg)]) == 0
        data = str(tmp_path / "out" / "dataset.json")
        assert main(["reconstruct", "--config", str(cfg), "--data", data]) == 0
        assert calls == [4]
        em = json.loads((tmp_path / "out" / "diagnostics.json").read_text())["em"]
        n_max = {amp: {e["n_max"] for e in em if e["amp"] == amp} for amp in (0.0, 1.5)}
        assert len(n_max[0.0]) == len(n_max[1.5]) == 1 and n_max[0.0] != n_max[1.5]

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

        # the CLI summarizes its replicas with uncertainty.summarize, which
        # raises this error when too many replicas fail
        monkeypatch.setattr(cli, "summarize", failing_bootstrap)
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

    def test_replicas_apply_the_point_estimate_kernels(self, tmp_path, monkeypatch):
        # one kernel per harmonic, built for the point estimate and applied
        # to every replica
        from onofftomo import inversion

        built = []
        build = inversion.build_kernel

        def counting(*args, **kwargs):
            built.append(args[0])
            return build(*args, **kwargs)

        monkeypatch.setattr(inversion, "build_kernel", counting)
        cfg = tmp_path / "cfg.json"
        write_config(
            cfg,
            state={"kind": "coherent", "z": 1.0},
            modulation={"amps": [0.3], "n_phases": 4},
            shots=5000,
            targets=["dm"],
            dm={"s_max": 1, "m_max": None},
            em={"n_max": 8, "tol": 1e-12, "max_iter": 300, "accelerate": False},
        )
        assert main(["simulate", "--config", str(cfg)]) == 0
        data = str(tmp_path / "out" / "dataset.json")
        assert main(["reconstruct", "--config", str(cfg), "--data", data, "--bootstrap", "3"]) == 0
        assert built == [0, 1]
        header, rows = read_csv(str(tmp_path / "out" / "dm.csv"))
        assert rows and all(r[header.index("stderr")] for r in rows)

    def test_conventional_wigner_column(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, state={"kind": "coherent", "z": 0.8},
                     modulation={"amps": [0.0, 0.5, 1.0], "n_phases": 2})
        assert main(["reconstruct", "--config", str(cfg), "--exact", "--conventional-wigner"]) == 0
        header, rows = read_csv(str(tmp_path / "out" / "wigner.csv"))
        assert header[-1] == "conventional" and len(rows) == 6
        for row in rows:
            wigner = float(row[header.index("wigner")])
            assert float(row[header.index("conventional")]) == (2.0 / math.pi) * wigner

    def test_one_amplitude_em_failure_keeps_the_others(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(
            cfg,
            modulation={"amps": [0.0, 0.5], "n_phases": 1},
            grid={"k": 4, "eta_max": 1.0},
            shots=10,
            targets=["pn", "wigner"],
            em={"n_max": 10, "tol": 1e-12, "max_iter": 3000, "accelerate": False},
        )
        assert main(["simulate", "--config", str(cfg)]) == 0
        data = tmp_path / "out" / "dataset.json"
        doc = json.loads(data.read_text())
        for rec in doc["records"]:
            if rec["amp_index"] == 2:
                rec["off_counts"] = [5, 3, 1, 0]
        data.write_text(json.dumps(doc))
        assert main(["reconstruct", "--config", str(cfg), "--data", str(data)]) == 3
        diag = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
        assert [{k: f[k] for k in ("amp", "target")} for f in diag["failures"]] == [
            {"amp": 0.5, "target": "em"}]
        for name, count in (("pn.csv", 11), ("wigner.csv", 1)):
            header, rows = read_csv(str(tmp_path / "out" / name))
            assert len(rows) == count and {r[header.index("amp")] for r in rows} == {"0.0"}

    def test_wigner_row_per_record_at_shared_alpha(self, tmp_path):
        # at amp 0 every phase record has alpha 0; each still gets its own row,
        # value and stderr
        cfg = tmp_path / "cfg.json"
        write_config(
            cfg,
            state={"kind": "thermal", "n_th": 1.0},
            modulation={"amps": [0.0, 0.5], "n_phases": 4},
            shots=30000,
            seed=3,
            targets=["pn", "wigner"],
            em={"tol": 1e-10, "max_iter": 500, "accelerate": False},
        )
        assert main(["simulate", "--config", str(cfg)]) == 0
        data = str(tmp_path / "out" / "dataset.json")
        assert main(["reconstruct", "--config", str(cfg), "--data", data, "--bootstrap", "4"]) == 0
        header, rows = read_csv(str(tmp_path / "out" / "wigner.csv"))
        idx = {h: i for i, h in enumerate(header)}
        assert len(rows) == 8 and all(r[idx["stderr"]] for r in rows)
        parity: dict = {}
        for amp, phase, n, p in read_csv(str(tmp_path / "out" / "pn.csv"))[1]:
            parity[(amp, phase)] = parity.get((amp, phase), 0.0) + (-1) ** int(n) * float(p)
        assert len(parity) == 8
        for r in rows:
            assert float(r[idx["wigner"]]) == pytest.approx(
                parity[(r[idx["amp"]], r[idx["phase"]])], abs=1e-12)

    def test_dm_bootstrap_over_two_amplitudes(self, tmp_path):
        # each amplitude's dm rows carry the stderr of that amplitude's bootstrap
        cfg = tmp_path / "cfg.json"
        write_config(
            cfg,
            state={"kind": "coherent", "z": 1.0},
            modulation={"amps": [0.3, 0.6], "n_phases": 4},
            shots=30000,
            targets=["dm"],
            dm={"s_max": 1, "m_max": 4},
            em={"tol": 1e-12, "max_iter": 500, "accelerate": False},
        )
        assert main(["simulate", "--config", str(cfg)]) == 0
        data = str(tmp_path / "out" / "dataset.json")
        assert main(["reconstruct", "--config", str(cfg), "--data", data, "--bootstrap", "3"]) == 0
        header, rows = read_csv(str(tmp_path / "out" / "dm.csv"))
        idx = {h: i for i, h in enumerate(header)}
        assert rows and all(r[idx["stderr"]] for r in rows)
        stderr = {amp: {(r[idx["n"]], r[idx["m"]]): r[idx["stderr"]]
                        for r in rows if r[idx["amp"]] == amp} for amp in ("0.3", "0.6")}
        assert stderr["0.3"].keys() == stderr["0.6"].keys() and len(stderr["0.3"]) == 10
        assert all(stderr["0.3"][k] != stderr["0.6"][k] for k in stderr["0.3"])
        diag = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
        assert [(o["amp"], o["target"]) for o in diag["bootstrap"]["outcomes"]] == [
            (0.3, "dm"), (0.6, "dm")]

    def test_wigner_and_dm_share_one_bootstrap(self, tmp_path, monkeypatch):
        # both targets read out the same replicas, and each amplitude solves
        # its records and its replicas in one EM call, so a run holds one
        # amplitude's likelihood histories at a time
        from onofftomo import cli, uncertainty

        calls = []

        def counting(datasets, *args, **kwargs):
            calls.append(len(datasets))
            return solve(datasets, *args, **kwargs)

        solve = cli.reconstruct_pn_batch
        monkeypatch.setattr(cli, "reconstruct_pn_batch", counting)
        monkeypatch.setattr(uncertainty, "reconstruct_pn_batch", counting)
        cfg = tmp_path / "cfg.json"
        write_config(
            cfg,
            state={"kind": "coherent", "z": 1.0},
            modulation={"amps": [0.3, 0.6], "n_phases": 4},
            shots=30000,
            targets=["pn", "wigner", "dm"],
            dm={"s_max": 1, "m_max": 4},
            em={"tol": 1e-12, "max_iter": 500, "accelerate": False},
        )
        assert main(["simulate", "--config", str(cfg)]) == 0
        data = str(tmp_path / "out" / "dataset.json")
        assert main(["reconstruct", "--config", str(cfg), "--data", data, "--bootstrap", "4"]) == 0
        assert calls == [4 + 4 * 4, 4 + 4 * 4]
        for name, count in (("wigner.csv", 8), ("dm.csv", 20)):
            header, rows = read_csv(str(tmp_path / "out" / name))
            assert len(rows) == count and all(r[header.index("stderr")] for r in rows)
        diag = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
        assert diag["bootstrap"]["outcomes"] == [
            {"amp": amp, "target": target, "succeeded": 4, "failed": 0}
            for amp in (0.3, 0.6) for target in ("wigner", "dm")]

    def test_pn_only_bootstrap_solves_no_replicas(self, tmp_path, monkeypatch):
        # pn has no bootstrap read-out, so no replica is drawn or solved
        from onofftomo import cli

        calls = []

        def counting(datasets, *args, **kwargs):
            calls.append(len(datasets))
            return solve(datasets, *args, **kwargs)

        solve = cli.reconstruct_pn_batch
        monkeypatch.setattr(cli, "reconstruct_pn_batch", counting)
        cfg = tmp_path / "cfg.json"
        write_config(cfg, state={"kind": "thermal", "n_th": 1.0},
                     modulation={"amps": [0.0, 0.5], "n_phases": 2}, targets=["pn"],
                     em={"tol": 1e-12, "max_iter": 200, "accelerate": False})
        assert main(["simulate", "--config", str(cfg)]) == 0
        data = str(tmp_path / "out" / "dataset.json")
        assert main(["reconstruct", "--config", str(cfg), "--data", data, "--bootstrap", "5"]) == 0
        assert calls == [4]
        diag = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
        assert diag["bootstrap"]["outcomes"] == []

    def test_bootstrap_stderr_matches_the_library_bootstrap(self, tmp_path):
        # the CLI solves each amplitude's replicas in one block with its point
        # estimates; the library solves the replicas alone
        from onofftomo import (EMConfig, bootstrap, dm_pipeline, reconstruct_density_matrix,
                               reconstruct_pn_batch, wigner_pipeline)
        from onofftomo.emrecon import default_truncation
        from onofftomo.uncertainty import dm_tag, wigner_tag

        cfg = tmp_path / "cfg.json"
        em = {"n_max": None, "tol": 1e-12, "max_iter": 800, "accelerate": False}
        write_config(cfg, state={"kind": "coherent", "z": 1.0},
                     modulation={"amps": [0.3, 0.6], "n_phases": 4}, shots=30000,
                     targets=["wigner", "dm"], dm={"s_max": 1, "m_max": 4}, em=em)
        assert main(["simulate", "--config", str(cfg)]) == 0
        data = str(tmp_path / "out" / "dataset.json")
        args = ["reconstruct", "--config", str(cfg), "--data", data, "--bootstrap", "5"]
        assert main(args + ["--seed", "9"]) == 0
        got = {}
        header, rows = read_csv(str(tmp_path / "out" / "wigner.csv"))
        idx = {h: i for i, h in enumerate(header)}
        for r in rows:
            amp, phase = float(r[idx["amp"]]), float(r[idx["phase"]])
            got[(amp, wigner_tag(amp, phase))] = r[idx["stderr"]]
        header, rows = read_csv(str(tmp_path / "out" / "dm.csv"))
        idx = {h: i for i, h in enumerate(header)}
        for r in rows:
            got[(float(r[idx["amp"]]), dm_tag(int(r[idx["n"]]), int(r[idx["m"]])))] = r[idx["stderr"]]
        want = {}
        for amp, datasets in read_dataset_file(data).by_amp().items():
            n_max = max(default_truncation(ds) for ds in datasets)
            em_cfg = EMConfig(n_max=n_max, tol=1e-12, max_iter=800, accelerate=False)
            dists = [r.distribution for r in reconstruct_pn_batch(datasets, em_cfg)]
            fit = reconstruct_density_matrix(dists, amp, s_max=1, m_max=4)
            for pipe in (wigner_pipeline(em_cfg), dm_pipeline(fit, em_cfg)):
                for rep in bootstrap(datasets, pipe, 5, 9):
                    want[(amp, rep.tag)] = rep.stddev
        assert got.keys() == want.keys() and len(got) == 2 * (4 + 10)
        for key, stddev in want.items():
            assert abs(float(got[key]) - stddev) <= 1e-12

    def test_bootstrap_moves_point_estimates_by_rounding_only(self, tmp_path):
        # with --bootstrap 4 each point estimate shares a block with its 4
        # replicas, which may take another matrix-product path than the
        # 16-row block of a run without it; the README bounds the change by 1e-12
        cfg = tmp_path / "cfg.json"
        write_config(cfg, state={"kind": "thermal", "n_th": 2.4},
                     modulation={"amps": [round(a, 12) for a in np.linspace(0.0, 3.0, 16)],
                                 "n_phases": 1},
                     shots=30000, targets=["pn", "wigner"],
                     em={"n_max": None, "tol": 1e-12, "max_iter": 3000, "accelerate": False})
        assert main(["simulate", "--config", str(cfg)]) == 0
        data = str(tmp_path / "out" / "dataset.json")
        for out, extra in (("plain", []), ("boot", ["--bootstrap", "4"])):
            args = ["reconstruct", "--config", str(cfg), "--data", data, "--out"]
            assert main(args + [str(tmp_path / out)] + extra) == 0
        for name, column in (("pn.csv", "p"), ("wigner.csv", "wigner")):
            values = {}
            for out in ("plain", "boot"):
                header, rows = read_csv(str(tmp_path / out / name))
                values[out] = np.array([float(r[header.index(column)]) for r in rows])
            assert values["plain"].size == values["boot"].size > 0
            assert np.abs(values["plain"] - values["boot"]).max() <= 1e-12


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
        # a rejected report creates no --out directory
        out = tmp_path / "r4"
        assert main(["report", "--results", str(tmp_path / "nothere"), "--out", str(out)]) == 2
        assert not out.exists()

    def test_header_only_pn_table(self, tmp_path, capsys):
        # reconstruct writes a header-only pn.csv when every amplitude's EM fails
        (tmp_path / "pn.csv").write_text("amp,phase,n,p\n")
        assert main(["report", "--results", str(tmp_path)]) == 0
        assert read_csv(str(tmp_path / "pn_table.csv")) == (["amp", "phase", "n", "p"], [])
        assert "photon distribution" not in capsys.readouterr().out

    def test_missing_column_rejected(self, tmp_path, capsys):
        path = tmp_path / "wigner.csv"
        path.write_text("amp,phase,wigner\n0.0,0.0,0.5\n")
        capsys.readouterr()
        assert main(["report", "--results", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "'stderr'" in err and err.count("\n") == 1

    def test_row_width_differing_from_header_rejected(self, tmp_path, capsys):
        path = tmp_path / "pn.csv"
        path.write_text("amp,phase,n,p\n0.0,0.0,0,1.0\n0.0,0.0,1\n")
        capsys.readouterr()
        assert main(["report", "--results", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            f"invalid input: {path}: a row's width differs from the header's\n")
        assert not (tmp_path / "pn_table.csv").exists()

    def test_empty_results_file_rejected(self, tmp_path, capsys):
        (tmp_path / "dm.csv").write_text("")
        capsys.readouterr()
        assert main(["report", "--results", str(tmp_path)]) == 2
        assert "dm.csv is empty" in capsys.readouterr().err


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

    @pytest.mark.parametrize("seed", ["-3", str(2**64), "1.5", "abc"])
    @pytest.mark.parametrize("command", ["simulate", "reconstruct"])
    def test_bad_seed_exits_before_any_work(self, tmp_path, capsys, monkeypatch, command, seed):
        # the config's seed rule, 0 <= seed < 2**64, checked while parsing
        from onofftomo import cli

        def no_work(*args, **kwargs):
            raise AssertionError("work started before --seed was checked")

        monkeypatch.setattr(cli, "load_config", no_work)
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        args = [command, "--config", str(cfg), "--seed", seed, "--out", str(tmp_path / "run")]
        if command == "reconstruct":
            args += ["--data", str(tmp_path / "dataset.json"), "--bootstrap", "3"]
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_info:
            main(args)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "argument --seed" in err and "0 <= seed < 2**64" in err and repr(seed) in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seed_range_ends_are_accepted(self, seed):
        from onofftomo.cli import build_parser

        for command in (["simulate"], ["reconstruct", "--exact"]):
            args = build_parser().parse_args(command + ["--config", "c.json", "--seed", str(seed)])
            assert args.seed == seed

    @pytest.mark.parametrize("replicas", ["1", "0", "-1"])
    def test_bootstrap_needs_two_replicas(self, tmp_path, capsys, replicas):
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        assert main(["simulate", "--config", str(cfg)]) == 0
        data = str(tmp_path / "out" / "dataset.json")
        rec = tmp_path / "rec"
        capsys.readouterr()
        args = ["reconstruct", "--config", str(cfg), "--data", data, "--out", str(rec),
                "--bootstrap", replicas]
        assert main(args) == 2
        assert not rec.exists()
        err = capsys.readouterr().err
        assert "B >= 2" in err and err.count("\n") == 1

    @pytest.mark.parametrize("overrides, phases, amp, reason", [
        ({"modulation": {"amps": [0.0, 0.5], "n_phases": 4}}, None, "0.0",
         "zero displacement"),
        ({"dm": {"s_max": 1, "m_max": 40}}, None, "0.5", "too small for m_max + s"),
        ({"modulation": {"amps": [0.5], "n_phases": 2}}, None, "0.5", "cannot resolve"),
        ({}, [0.0, 1.0, 2.0, 3.0], "0.5", "uniform phase grid"),
    ], ids=["amp0", "m_max", "aliasing", "phases"])
    def test_dm_preconditions_checked_before_em(self, tmp_path, capsys, monkeypatch,
                                                overrides, phases, amp, reason):
        from onofftomo import cli

        def no_em(*args, **kwargs):
            raise AssertionError("EM ran before the dm preconditions were checked")

        cfg = tmp_path / "cfg.json"
        doc = {"state": {"kind": "coherent", "z": 1.8},
               "modulation": {"amps": [0.5], "n_phases": 4},
               "grid": {"k": 6, "eta_max": 0.67}, "shots": 2000,
               "targets": ["pn", "wigner", "dm"], "dm": {"s_max": 1}, **overrides}
        write_config(cfg, **doc)
        assert main(["simulate", "--config", str(cfg)]) == 0
        data = tmp_path / "out" / "dataset.json"
        if phases is not None:
            bundle = json.loads(data.read_text())
            bundle["modulation"]["phases"] = phases
            data.write_text(json.dumps(bundle))
        monkeypatch.setattr(cli, "reconstruct_pn_batch", no_em)
        rec = tmp_path / "rec"
        capsys.readouterr()
        args = ["reconstruct", "--config", str(cfg), "--data", str(data), "--out", str(rec)]
        assert main(args) == 2
        assert not rec.exists()
        err = capsys.readouterr().err
        assert f"amp {amp}" in err and reason in err and err.count("\n") == 1

    @pytest.mark.parametrize("overrides, message", [
        ({"modulation": {"amps": [0.0], "n_phases": [3]}}, None),
        ({"shots": None}, None),
        ({"em": {"n_max": "abc"}}, None),
        # integers are not truncated and booleans are not coerced
        ({"modulation": {"amps": [0.0], "n_phases": 2.7}}, None),
        ({"shots": 1000.9}, None),
        ({"em": {"max_iter": 200.5}}, None),
        ({"state": {"kind": "fock", "n": 2.5}}, None),
        ({"em": {"accelerate": "false"}}, None),
        # numbers are JSON numbers: strings and booleans are not cast
        ({"shots": "1000"}, None),
        ({"modulation": {"amps": [0.0], "n_phases": True}}, None),
        ({"grid": {"k": 25, "eta_max": "0.5"}}, None),
        ({"modulation": {"amps": ["0.5"], "n_phases": 1}}, None),
        ({"em": {"tol": True}}, None),
        # range errors name the field as type errors do
        ({"em": {"tol": 0}}, "invalid input: em.tol must be > 0\n"),
        ({"em": {"max_iter": 0}}, "invalid input: em.max_iter must be >= 1\n"),
        # a NaN or negative bound marks every fit unreliable, an infinite one every fit reliable
        *(({"dm": {"residual_bound": bound}},
           "invalid input: dm.residual_bound must be finite and >= 0\n")
          for bound in (math.nan, -1.0, math.inf)),
        # off counts are int64
        *(({"shots": shots}, "invalid input: shots must be < 2**63\n")
          for shots in (2**63, 10**19)),
        ({"grid": [25, 0.67]}, "invalid input: grid must be a JSON object, got [25, 0.67]\n"),
        ({"state": {"z": 1.0}}, "invalid input: config needs a state section with a 'kind'\n"),
        ({"state": {"kind": "coherent"}},
         "invalid input: state 'coherent' missing parameter(s): ['z']\n"),
        # JSON's Infinity and NaN are numbers to Python's json module
        *(({"state": {"kind": "thermal", "n_th": n_th}},
           "invalid input: state.n_th must be finite and >= 0\n")
          for n_th in (math.inf, math.nan, -1.0)),
        *(({"state": {"kind": kind, "z": z}}, "invalid input: state.z must be finite\n")
          for kind, z in (("coherent", math.inf), ("phase_averaged_coherent", math.nan))),
        ({"modulation": {"amps": 0.5}}, "invalid input: modulation.amps must be a list, got 0.5\n"),
        *(({"modulation": {"amps": amps}}, "invalid input: modulation.amps must be finite and >= 0\n")
          for amps in ([], [-0.5], [math.nan])),
        ({"modulation": {"amps": [0.5, 0.5]}}, "invalid input: modulation.amps must be distinct\n"),
        ({"grid": {"k": 1}}, "invalid input: grid.k must be >= 2\n"),
        ({"shots": 0}, "invalid input: shots must be >= 1\n"),
        ({"modulation": {"n_phases": 0}}, "invalid input: modulation.n_phases must be >= 1\n"),
        *(({"grid": {"eta_max": eta_max}}, "invalid input: grid.eta_max must lie in (0, 1]\n")
          for eta_max in (0.0, 1.5)),
        *(({"seed": seed}, "invalid input: seed must fit in 64 bits\n") for seed in (-1, 2**64)),
        *(({"targets": targets},
           f"invalid input: targets must be a non-empty subset of pn|wigner|dm, got {targets!r}\n")
          for targets in ([], ["pn", "rho"], "pn")),
        *(({"dm": {"svd_cutoff": cutoff}}, "invalid input: dm.svd_cutoff must lie in (0, 1)\n")
          for cutoff in (0.0, 1.0)),
        ({"output": {"dir": 5}}, "invalid input: output.dir must be a string, got 5\n"),
    ], ids=["n_phases_list", "shots_null", "em_n_max_string", "n_phases_fraction",
            "shots_fraction", "em_max_iter_fraction", "fock_n_fraction", "accelerate_string",
            "shots_string", "n_phases_bool", "eta_max_string", "amp_string", "em_tol_bool",
            "em_tol_zero", "em_max_iter_zero", "residual_bound_nan", "residual_bound_negative",
            "residual_bound_inf", "shots_2_63", "shots_1e19", "section_not_object",
            "state_kind_missing", "state_parameter_missing", "n_th_inf", "n_th_nan",
            "n_th_negative", "z_inf", "z_nan", "amps_not_list", "amps_empty",
            "amps_negative", "amps_nan", "amps_repeated", "grid_k_one", "shots_zero",
            "n_phases_zero", "eta_max_zero", "eta_max_above_one", "seed_negative", "seed_2_64",
            "targets_empty", "targets_unknown", "targets_string", "svd_cutoff_zero",
            "svd_cutoff_one", "output_dir_number"])
    def test_malformed_config(self, tmp_path, capsys, overrides, message):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, **overrides)
        capsys.readouterr()
        assert main(["simulate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid input: ") and err.count("\n") == 1
        if message is not None:
            assert err == message

    def test_reconstruct_needs_data_or_exact(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        capsys.readouterr()
        assert main(["reconstruct", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            "invalid input: reconstruct needs --data FILE (or --exact)\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("edit", [
        lambda doc: doc.update(records=[5]),
        lambda doc: doc.update(meta=None),
        lambda doc: doc["modulation"].update(phases=None),
        lambda doc: doc["records"][0]["off_counts"].__setitem__(0, 1.5),
        lambda doc: doc["meta"].update(shots=5000.7),
        lambda doc: doc["records"][0].update(phase_index=1.5),
        lambda doc: doc["meta"].update(shots="2000"),
        lambda doc: doc["records"][0].update(phase_index=True),
        lambda doc: doc["modulation"].update(amp="0.0"),
        lambda doc: doc["modulation"].update(phases=["0.0"]),
        # off counts are int64
        lambda doc: doc["meta"].update(shots=2**64),
    ], ids=["records_int", "meta_null", "phases_null", "off_count_fraction",
            "meta_shots_fraction", "phase_index_fraction", "meta_shots_string",
            "phase_index_bool", "amp_string", "phase_string", "meta_shots_2_64"])
    def test_malformed_dataset(self, tmp_path, capsys, edit):
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        assert main(["simulate", "--config", str(cfg)]) == 0
        data = tmp_path / "out" / "dataset.json"
        doc = json.loads(data.read_text())
        edit(doc)
        data.write_text(json.dumps(doc))
        rec = tmp_path / "rec"
        capsys.readouterr()
        args = ["reconstruct", "--config", str(cfg), "--data", str(data), "--out", str(rec)]
        assert main(args) == 2
        assert not rec.exists()
        err = capsys.readouterr().err
        assert err.startswith("invalid input: ") and err.count("\n") == 1

    @pytest.mark.parametrize("field, value", [("n_max", "8"), ("tol", True), ("max_iter", 1.5)])
    def test_em_field_errors_name_the_section(self, tmp_path, capsys, field, value):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, em={field: value})
        capsys.readouterr()
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith(f"invalid input: em.{field} must be ")

    def test_config_without_em_section_uses_the_em_defaults(self):
        from onofftomo import EMConfig
        from onofftomo.cli import RunConfig

        assert RunConfig.from_dict({"state": {"kind": "vacuum"}}).em == EMConfig()

    def test_kernel_svd_failure_fails_only_dm(self, tmp_path, monkeypatch):
        # LAPACK's LinAlgError is a ValueError; a kernel's becomes a per-target
        # numerical failure, so the wigner rows are still written
        cfg = tmp_path / "cfg.json"
        write_config(
            cfg,
            state={"kind": "coherent", "z": 0.8},
            modulation={"amps": [0.2], "n_phases": 4},
            targets=["dm", "wigner"],
            dm={"s_max": 1, "m_max": 3},
            em={"n_max": 8, "tol": 1e-8, "max_iter": 300, "accelerate": False},
        )
        assert main(["simulate", "--config", str(cfg)]) == 0

        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        data = str(tmp_path / "out" / "dataset.json")
        assert main(["reconstruct", "--config", str(cfg), "--data", data]) == 3
        diag = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
        assert [f["target"] for f in diag["failures"]] == ["dm"]
        assert "did not converge" in diag["failures"][0]["error"]
        _, rows = read_csv(str(tmp_path / "out" / "wigner.csv"))
        assert len(rows) == 4

    def test_em_linalg_error_is_a_numerical_failure(self, tmp_path, capsys, monkeypatch):
        from onofftomo import emrecon

        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(emrecon.np.linalg, "solve", singular)
        cfg = tmp_path / "cfg.json"
        write_config(cfg, state={"kind": "coherent", "z": 1.0},
                     modulation={"amps": [0.5], "n_phases": 1},
                     em={"n_max": 10, "tol": 1e-12, "max_iter": 500, "accelerate": True})
        assert main(["simulate", "--config", str(cfg)]) == 0
        capsys.readouterr()
        data = str(tmp_path / "out" / "dataset.json")
        assert main(["reconstruct", "--config", str(cfg), "--data", data]) == 3
        assert capsys.readouterr().err == "numerical failure: Singular matrix\n"

    def test_log_level_info_shows_max_iter(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, modulation={"amps": [0.0, 0.5], "n_phases": 2},
                     em={"tol": 1e-12, "max_iter": 3, "accelerate": False}, targets=["pn"])
        assert main(["simulate", "--config", str(cfg)]) == 0
        data = tmp_path / "out" / "dataset.json"
        args = ["reconstruct", "--config", str(cfg), "--data", str(data)]
        capsys.readouterr()
        assert main(args) == 0
        quiet = capsys.readouterr()
        assert "EM hit max_iter" not in quiet.err
        assert main(args + ["--log-level", "info"]) == 0
        loud = capsys.readouterr()
        assert "INFO onofftomo.emrecon: EM hit max_iter=3" in loud.err
        # each line names its record: row of the EM call, amplitude and phase
        hits = [ln.split(" on ", 1)[1] for ln in loud.err.splitlines() if "EM hit max_iter" in ln]
        assert hits == ["row 0 (amp 0, phase 0)", "row 1 (amp 0, phase 3.14159)",
                        "row 2 (amp 0.5, phase 0)", "row 3 (amp 0.5, phase 3.14159)"]
        assert loud.out == quiet.out

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


class TestStartup:
    """The CLI starts on numpy alone; sampling loads only scipy.special, and only for
    cells neither numpy CDF certifies, a data-mode reconstruct loads neither scipy nor
    numpy.ma, and no EM run loads multiprocessing."""

    SCRIPT = """
import sys
import onofftomo.cli
print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))
from onofftomo import ModulationSpec, make_thermal, simulate_dataset, uniform_grid
simulate_dataset(make_thermal(1.0, 30), ModulationSpec.uniform(0.5, 2), uniform_grid(0.67, 5),
                 shots=10**12, seed=3)
print('scipy.stats' in sys.modules)
"""

    def test_cli_import_leaves_scipy_unloaded(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        out = subprocess.run([sys.executable, "-c", self.SCRIPT], env=env, check=True,
                             capture_output=True, text=True).stdout.splitlines()
        assert out == ["[]", "False"]

    SIMULATE = """
import sys
from onofftomo import ModulationSpec, make_thermal, simulate_dataset, uniform_grid
for shots in (30000, 10**12, 10**6):
    simulate_dataset(make_thermal(1.0, 30), ModulationSpec.uniform(0.5, 2), uniform_grid(0.67, 25),
                     shots=shots, seed=3)
    print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))
"""

    def test_simulate_loads_scipy_special_only_above_the_window(self):
        # 30000 shots are sampled on the numpy window and these 10^12-shot
        # cells on the Edgeworth CDF, all 50 of them certified; at 10^6 shots
        # every cell has n p q < 10^6 and goes to betainc, which loads
        # scipy.special (with what it imports itself) and no other scipy module
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        special = ("import sys, scipy.special; "
                   "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        want = subprocess.run([sys.executable, "-c", special], env=env, check=True,
                              capture_output=True, text=True).stdout.splitlines()
        out = subprocess.run([sys.executable, "-c", self.SIMULATE], env=env, check=True,
                             capture_output=True, text=True).stdout.splitlines()
        assert out == ["[]", "[]"] + want

    DATA_RECONSTRUCT = """
import json, sys
import onofftomo.cli
doc = {"state": {"kind": "coherent", "z": 1.0}, "modulation": {"amps": [0.3], "n_phases": 4},
       "grid": {"k": 25, "eta_max": 0.67}, "shots": 30000, "seed": 1,
       "em": {"n_max": None, "tol": 1e-12, "max_iter": 50, "accelerate": False},
       "targets": ["pn", "wigner", "dm"], "dm": {"s_max": 1, "m_max": 4},
       "output": {"dir": sys.argv[1]}}
cfg = sys.argv[1] + "/cfg.json"
json.dump(doc, open(cfg, "w"))
for args in (["simulate"], ["reconstruct", "--data", sys.argv[1] + "/dataset.json",
                            "--bootstrap", "2"]):
    assert onofftomo.cli.main(args + ["--config", cfg]) == 0
print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m.split('.')[:2] == ['numpy', 'ma']))
"""

    def test_data_reconstruct_loads_neither_scipy_nor_numpy_ma(self, tmp_path):
        # the automatic truncation takes its median without np.median, whose
        # first call imports numpy.ma (about 13 ms)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        out = subprocess.run([sys.executable, "-c", self.DATA_RECONSTRUCT, str(tmp_path)],
                             env=env, check=True, capture_output=True, text=True).stdout
        assert out.splitlines()[-1] == "[]"

    EM_RUNS = """
import json, sys
import onofftomo.cli
doc = {"state": {"kind": "thermal", "n_th": 1.0}, "modulation": {"amps": [0.0, 0.5], "n_phases": 2},
       "grid": {"k": 25, "eta_max": 0.67}, "shots": 30000, "seed": 1,
       "em": {"tol": 1e-12, "max_iter": 50, "accelerate": False}, "targets": ["pn"],
       "output": {"dir": sys.argv[1]}}
cfg = sys.argv[1] + "/cfg.json"
json.dump(doc, open(cfg, "w"))
for args in (["simulate"], ["reconstruct", "--data", sys.argv[1] + "/dataset.json"]):
    assert onofftomo.cli.main(args + ["--config", cfg]) == 0
from onofftomo import EMConfig, reconstruct_pn_batch
from onofftomo.datafile import read_dataset_file
records = read_dataset_file(sys.argv[1] + "/dataset.json").records
reconstruct_pn_batch(records, EMConfig(n_max=8))
reconstruct_pn_batch(records, EMConfig(), n_max=[8, 8, 12, 12])
print('multiprocessing' in sys.modules)
"""

    def test_no_em_run_loads_multiprocessing(self, tmp_path):
        # plain, accelerated at one truncation and accelerated at two all
        # solve in this process
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        out = subprocess.run([sys.executable, "-c", self.EM_RUNS, str(tmp_path)], env=env,
                             check=True, capture_output=True, text=True).stdout.splitlines()
        assert out[-1] == "False"
