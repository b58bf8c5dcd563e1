"""Maximum-likelihood recovery of photon distributions from off frequencies."""

import hashlib
import json
import math

import numpy as np
import pytest

from onofftomo import (
    EMConfig,
    IllConditionedError,
    ModulationSpec,
    OnOffDataset,
    PhotonDistribution,
    default_truncation,
    em_step,
    log_likelihood,
    make_coherent,
    make_phase_averaged_coherent,
    make_thermal,
    reconstruct_pn,
    reconstruct_pn_batch,
    simulate_dataset,
    uniform_grid,
)
from onofftomo.cli import main
from conftest import exact_dataset, geometric_pmf, poisson_pmf


def normalized(v):
    return PhotonDistribution(np.asarray(v) / np.sum(v))


class TestEmStep:
    def test_exact_data_is_fixed_point(self, high_grid):
        # P_off ratios are all 1, so the update bracket is constant and the
        # renormalization restores the iterate exactly
        truth = normalized(geometric_pmf(1.0, 12))
        data = exact_dataset(truth.probs, high_grid)
        stepped = em_step(truth, data)
        assert np.abs(stepped.probs - truth.probs).max() < 1e-14

    def test_vacuum_data_pushes_to_ground(self, high_grid):
        shots = 30000
        counts = np.full(high_grid.size, shots, dtype=np.int64)
        data = OnOffDataset(grid=high_grid, shots=shots, off_counts=counts, amp=0.0, phase=0.0)
        p = normalized(np.ones(8))
        history = [p.probs[0]]
        for _ in range(6):
            p = em_step(p, data)
            history.append(p.probs[0])
        assert all(b > a for a, b in zip(history, history[1:]))

    def test_iterates_stay_positive_and_normalized(self, high_grid):
        rng = np.random.default_rng(4)
        counts = rng.integers(10_000, 30_000, size=high_grid.size)
        counts = np.sort(counts)[::-1].astype(np.int64)
        data = OnOffDataset(grid=high_grid, shots=30_000, off_counts=counts, amp=0.0, phase=0.0)
        p = normalized(np.ones(15))
        for _ in range(20):
            p = em_step(p, data)
            assert np.all(p.probs > 0)
            assert p.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_division_guard(self):
        # eta = 1 with zero ground population makes the model off probability 0
        grid = uniform_grid(1.0, 4)
        probs = np.zeros(5)
        probs[1] = 1.0
        dist = PhotonDistribution(probs)
        counts = np.full(4, 5, dtype=np.int64)
        data = OnOffDataset(grid=grid, shots=10, off_counts=counts, amp=0.0, phase=0.0)
        with pytest.raises(IllConditionedError):
            em_step(dist, data)


class TestReconstruct:
    def test_vacuum_dataset(self, high_grid):
        shots = 30000
        counts = np.full(high_grid.size, shots, dtype=np.int64)
        data = OnOffDataset(grid=high_grid, shots=shots, off_counts=counts, amp=0.0, phase=0.0)
        res = reconstruct_pn(data, EMConfig(n_max=10, tol=1e-10))
        assert res.converged
        assert res.distribution.probs[0] == pytest.approx(1.0, abs=1e-4)

    def test_oracle_poisson(self, high_grid):
        truth = normalized(poisson_pmf(1.0, 20))
        data = exact_dataset(truth.probs, high_grid)
        res = reconstruct_pn(data, EMConfig(n_max=20, tol=1e-12, max_iter=50_000))
        tv = 0.5 * np.abs(res.distribution.probs - truth.probs).sum()
        assert tv <= 1e-3

    def test_oracle_fock2(self, high_grid):
        truth = normalized(np.eye(21)[2])
        data = exact_dataset(truth.probs, high_grid)
        res = reconstruct_pn(data, EMConfig(n_max=20, tol=1e-12, max_iter=50_000))
        tv = 0.5 * np.abs(res.distribution.probs - truth.probs).sum()
        assert tv <= 1e-3

    def test_non_convergence_is_flagged(self, high_grid):
        truth = normalized(poisson_pmf(1.0, 20))
        data = exact_dataset(truth.probs, high_grid)
        res = reconstruct_pn(data, EMConfig(n_max=20, tol=1e-12, max_iter=3))
        assert not res.converged
        assert res.iterations == 3
        assert math.isfinite(res.residual)

    def test_thermal_mean_recovered(self, high_grid):
        # Monte Carlo over 10 seeds: reconstructed mean within 10% of 1.4
        rho = make_thermal(1.4, 60)
        mod = ModulationSpec.uniform(0.0, 1)
        means = []
        for seed in range(10):
            ds = simulate_dataset(rho, mod, high_grid, 30000, seed=seed)[0]
            cfg = EMConfig(n_max=default_truncation(ds), tol=1e-12, max_iter=3000, accelerate=False)
            means.append(reconstruct_pn(ds, cfg).distribution.mean)
        assert abs(np.mean(means) - 1.4) <= 0.14

    def test_displaced_phase_averaged_mean(self, high_grid):
        # mean of the displaced state is z^2 + |alpha|^2 = 4.41 + 5.02
        rho = make_phase_averaged_coherent(2.1, 40)
        amp = math.sqrt(5.02)
        mod = ModulationSpec.uniform(amp, 1)
        means = []
        for seed in range(6):
            ds = simulate_dataset(rho, mod, high_grid, 30000, seed=seed)[0]
            cfg = EMConfig(n_max=default_truncation(ds), tol=1e-12, max_iter=3000, accelerate=False)
            means.append(reconstruct_pn(ds, cfg).distribution.mean)
        assert abs(np.mean(means) - 9.43) <= 0.943

    def test_ll_history_recorded(self, high_grid):
        truth = normalized(poisson_pmf(0.8, 15))
        data = exact_dataset(truth.probs, high_grid)
        res = reconstruct_pn(data, EMConfig(n_max=15, tol=1e-10, max_iter=2000))
        assert res.ll_history.size == res.iterations + 1
        assert res.final_ll == res.ll_history[-1]
        assert res.ll_decreases >= 0

    def test_published_iterates_normalized(self, high_grid):
        truth = normalized(geometric_pmf(0.9, 18))
        data = exact_dataset(truth.probs, high_grid)
        res = reconstruct_pn(data, EMConfig(n_max=18, tol=1e-9, max_iter=500))
        assert res.distribution.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_requires_two_efficiencies(self):
        grid = uniform_grid(0.5, 2)
        counts = np.array([5, 4], dtype=np.int64)
        data = OnOffDataset(grid=grid, shots=10, off_counts=counts, amp=0.0, phase=0.0)
        res = reconstruct_pn(data, EMConfig(n_max=3, tol=1e-6, max_iter=100))
        assert res.distribution.probs.size == 4


class TestLogLikelihood:
    def test_vacuum_on_vacuum_is_zero(self, high_grid):
        shots = 1000
        counts = np.full(high_grid.size, shots, dtype=np.int64)
        data = OnOffDataset(grid=high_grid, shots=shots, off_counts=counts, amp=0.0, phase=0.0)
        vac = PhotonDistribution(np.array([1.0, 0.0, 0.0]))
        assert log_likelihood(vac, data) == 0.0

    def test_additive_over_grid_rows(self):
        # LL over the full grid equals LL over a prefix plus the missing terms
        from onofftomo import EfficiencyGrid

        full = uniform_grid(0.6, 6)
        truth = normalized(poisson_pmf(1.1, 12))
        data_full = exact_dataset(truth.probs, full)
        sub = EfficiencyGrid(full.etas[:-1])
        data_sub = OnOffDataset(
            grid=sub,
            shots=data_full.shots,
            off_counts=data_full.off_counts[:-1],
            amp=0.0,
            phase=0.0,
        )
        candidate = normalized(poisson_pmf(0.9, 12))
        n = np.arange(13)
        p_last = float(np.power(1 - full.etas[-1], n) @ candidate.probs)
        c = int(data_full.off_counts[-1])
        term = c * math.log(p_last) + (data_full.shots - c) * math.log1p(-p_last)
        assert log_likelihood(candidate, data_full) == pytest.approx(
            log_likelihood(candidate, data_sub) + term, rel=1e-12
        )
        assert log_likelihood(candidate, data_full) < log_likelihood(candidate, data_sub)

    def test_truth_beats_perturbations(self, high_grid):
        truth = normalized(geometric_pmf(1.0, 14))
        data = exact_dataset(truth.probs, high_grid)
        base = log_likelihood(truth, data)
        for n in (0, 3, 9):
            for delta in (1e-3, -1e-3):
                probs = truth.probs.copy()
                if probs[n] + delta <= 0:
                    continue
                probs[n] += delta
                assert log_likelihood(normalized(probs), data) <= base


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EMConfig(n_max=0)
        with pytest.raises(ValueError):
            EMConfig(tol=0.0)
        with pytest.raises(ValueError):
            EMConfig(max_iter=0)

    def test_default_truncation_tracks_energy(self, high_grid):
        low = exact_dataset(normalized(poisson_pmf(0.2, 10)).probs, high_grid)
        high = exact_dataset(normalized(poisson_pmf(8.0, 40)).probs, high_grid)
        assert default_truncation(low) < default_truncation(high)
        assert default_truncation(high) >= 8


def _same_result(a, b):
    return (
        np.array_equal(a.distribution.probs, b.distribution.probs)
        and np.array_equal(a.ll_history, b.ll_history)
        and (a.iterations, a.converged, a.residual, a.prenorm_sum, a.ll_decreases)
        == (b.iterations, b.converged, b.residual, b.prenorm_sum, b.ll_decreases)
    )


class TestBatch:
    def _mixed_records(self, grid):
        # twelve noisy phase records plus two that stop early: vacuum data
        # and exact Poisson data
        rho = make_coherent(1.8, 40)
        data = simulate_dataset(rho, ModulationSpec.uniform(0.1, 12), grid, 30000, seed=1)
        vacuum = OnOffDataset(grid=grid, shots=30000, off_counts=np.full(grid.size, 30000),
                              amp=0.0, phase=0.0)
        return data + [vacuum, exact_dataset(normalized(poisson_pmf(1.0, 20)).probs, grid)]

    def test_plain_block_matches_single_rows(self, high_grid):
        records = self._mixed_records(high_grid)
        cfg = EMConfig(n_max=20, tol=1e-5, max_iter=1500, accelerate=False)
        batch = reconstruct_pn_batch(records, cfg)
        iterations = set()
        for ds, got in zip(records, batch):
            one = reconstruct_pn(ds, cfg)
            assert np.abs(got.distribution.probs - one.distribution.probs).max() <= 1e-12
            assert got.iterations == one.iterations
            assert got.converged == one.converged
            assert got.ll_history.size == one.ll_history.size == got.iterations + 1
            assert got.final_ll == pytest.approx(one.final_ll, rel=1e-12)
            assert got.prenorm_sum == pytest.approx(one.prenorm_sum, abs=1e-12)
            iterations.add(got.iterations)
        # rows left the block at different passes
        assert len(iterations) > 1
        assert {r.converged for r in batch} == {True, False}

    def test_records_grouped_by_truncation(self, high_grid):
        # n_max=None: each record gets its own default truncation, results
        # come back in input order
        records = [
            exact_dataset(normalized(poisson_pmf(mean, 40)).probs, high_grid)
            for mean in (0.3, 4.0, 0.3, 1.5)
        ]
        cfg = EMConfig(tol=1e-12, max_iter=200, accelerate=False)
        batch = reconstruct_pn_batch(records, cfg)
        assert [r.distribution.n_max for r in batch] == [default_truncation(ds) for ds in records]
        for ds, got in zip(records, batch):
            one = reconstruct_pn(ds, cfg)
            assert np.abs(got.distribution.probs - one.distribution.probs).max() <= 1e-12

    def test_accelerated_rows_identical_to_single_calls(self, high_grid):
        records = [
            exact_dataset(normalized(probs).probs, high_grid)
            for probs in (poisson_pmf(1.0, 20), np.eye(21)[2], geometric_pmf(0.5, 20))
        ]
        cfg = EMConfig(n_max=20, tol=1e-11, max_iter=3000, accelerate=True)
        batch = reconstruct_pn_batch(records, cfg)
        for ds, got in zip(records, batch):
            assert _same_result(got, reconstruct_pn(ds, cfg))

    # Accelerated solves of acceptance criterion 5's exact records (numpy 2.4,
    # OpenBLAS 0.3.31, x86-64): passes, final log-likelihood and safeguard
    # rejections.  The Anderson safeguard compares log-likelihoods that often
    # differ only by rounding, so changing the shape of a BLAS call in
    # `_model_off` or `_Anderson` moves these numbers (Poisson(1) to hundreds
    # of passes), even though batched and one-row calls still agree.
    ACCELERATED_PINS = {
        "Poisson(1)": (61, -1.2179716042349062e17, 0),
        "thermal(1)": (1250, -1.16183584300863e17, 130),
        "Fock(2)": (11, -1.2328941263648022e17, 0),
    }

    def test_accelerated_iterates_pinned(self, high_grid):
        truths = {
            "Poisson(1)": poisson_pmf(1.0, 20),
            "thermal(1)": geometric_pmf(1.0, 20),
            "Fock(2)": np.eye(21)[2],
        }
        cfg = EMConfig(n_max=20, tol=1e-13, max_iter=50_000, accelerate=True)
        records = [exact_dataset(p / p.sum(), high_grid) for p in truths.values()]
        for name, res in zip(truths, reconstruct_pn_batch(records, cfg)):
            assert res.converged
            assert (res.iterations, res.final_ll, res.ll_decreases) == self.ACCELERATED_PINS[name]

    def test_empty_batch(self):
        assert reconstruct_pn_batch([], EMConfig(n_max=4, accelerate=False)) == []


# SHA-256 of dataset.json written by `simulate` for the README example config
README_DATASET_SHA256 = "593326935b1f8f1e448499331aab4b115933e24541044aad693e4dc6162d06e6"


def test_readme_dataset_golden_hash(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "state": {"kind": "coherent", "z": 1.8},
        "modulation": {"amps": [0.1], "n_phases": 12},
        "grid": {"k": 25, "eta_max": 0.67},
        "shots": 30000,
        "seed": 1,
        "em": {"n_max": None, "tol": 1e-12, "max_iter": 3000, "accelerate": False},
        "targets": ["pn", "dm"],
        "dm": {"s_max": 1, "m_max": 12},
        "output": {"dir": str(tmp_path / "out")},
    }))
    assert main(["simulate", "--config", str(cfg)]) == 0
    digest = hashlib.sha256((tmp_path / "out" / "dataset.json").read_bytes()).hexdigest()
    assert digest == README_DATASET_SHA256
