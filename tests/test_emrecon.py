"""Maximum-likelihood recovery of photon distributions from off frequencies."""

import dataclasses
import hashlib
import json
import logging
import math
import re
import tracemalloc

import numpy as np
import pytest

from onofftomo import (
    EfficiencyGrid,
    EMConfig,
    IllConditionedError,
    ModulationSpec,
    OnOffDataset,
    PhotonDistribution,
    default_truncation,
    em_step,
    make_coherent,
    make_phase_averaged_coherent,
    make_thermal,
    reconstruct_pn,
    reconstruct_pn_batch,
    simulate_dataset,
    uniform_grid,
)
from onofftomo.cli import build_state, main
from onofftomo.uncertainty import resample
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
        # a tol below rounding: the last stage stalls and is flagged, early
        res = reconstruct_pn(data, EMConfig(n_max=20, tol=1e-300, max_iter=2000))
        assert not res.converged
        assert res.iterations < 2000
        assert 0 < res.residual < 1e-13

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

    def test_accelerated_decreases_count_the_stage_objective(self, high_grid):
        # the Newton solve trades the binomial l against entropy, so l itself
        # may fall on a step; the objective l/N + lam H of each stage never does
        cfg = EMConfig(n_max=20, tol=1e-13, max_iter=50_000, accelerate=True)
        exact = [exact_dataset(normalized(probs).probs, high_grid)
                 for probs in (poisson_pmf(1.0, 20), geometric_pmf(1.0, 20), np.eye(21)[2])]
        results = [reconstruct_pn(ds, cfg) for ds in exact]
        # oracle-like records: thermal n_th 1 at |alpha| 1, 2, 3 and 10^12 shots
        rho = make_thermal(1.0, 40)
        oracle = [ds for amp in (1.0, 2.0, 3.0)
                  for ds in simulate_dataset(rho, ModulationSpec.uniform(amp, 8), high_grid,
                                             10**12, seed=1)]
        results += reconstruct_pn_batch(oracle, EMConfig())
        assert [r.ll_decreases for r in results] == [0] * 27
        assert all(r.lam == 1.0 / math.sqrt(ds.shots) for ds, r in zip(exact + oracle, results))

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


def _binomial_ll_reference(data, dist):
    """sum_k c_k ln P_off,k + (N - c_k) ln(1 - P_off,k), terms of count 0 left out."""
    p_off = np.power.outer(1.0 - data.grid.etas, np.arange(dist.n_max + 1)) @ dist.probs
    off = data.off_counts.astype(float)
    on = data.shots - off
    return float(off[off > 0] @ np.log(p_off[off > 0]) + on[on > 0] @ np.log1p(-p_off[on > 0]))


class TestLikelihoodHistory:
    """Both estimators record the binomial log-likelihood of their iterates."""

    @pytest.mark.parametrize("accelerate, shots, amp", [
        (False, 30000, 0.0), (True, 30000, 0.0), (True, 10**12, 2.0)])
    def test_final_ll_is_the_binomial_log_likelihood(self, high_grid, accelerate, shots, amp):
        data = simulate_dataset(make_thermal(1.0, 40), ModulationSpec.uniform(amp, 1),
                                high_grid, shots, seed=1)[0]
        res = reconstruct_pn(data, EMConfig(n_max=default_truncation(data), tol=1e-12,
                                            max_iter=3000, accelerate=accelerate))
        want = _binomial_ll_reference(data, res.distribution)
        assert res.final_ll == pytest.approx(want, rel=1e-12, abs=0.0)


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

    @pytest.mark.parametrize("k", [2, 3, 25])
    def test_default_truncation_takes_the_median(self, k):
        # the middle of the sorted estimates (the mean of two for K = 2) gives
        # every n_max that np.median of the three smallest grid points gives
        grid = uniform_grid(0.67, k)
        rng = np.random.default_rng(k)
        for shots in (100, 30000):
            for _ in range(200):
                counts = np.sort(rng.integers(0, shots + 1, size=k))[::-1]
                ds = OnOffDataset(grid=grid, shots=shots, off_counts=counts, amp=0.0, phase=0.0)
                f = np.clip(ds.frequencies, 1.0 / (2.0 * shots), 1.0)
                est = max(float(np.median(-np.log(f[:3]) / grid.etas[:3])), 0.0)
                want = min(max(math.ceil(est + 6.0 * math.sqrt(est)) + 5, 1), 200)
                assert default_truncation(ds) == want


def _same_result(a, b):
    return (
        np.array_equal(a.distribution.probs, b.distribution.probs)
        and np.float64(a.final_ll).tobytes() == np.float64(b.final_ll).tobytes()
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
            assert got.ll_decreases == one.ll_decreases
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

    def test_underflow_record_converges_at_every_truncation(self):
        # the plain EM drives p_0 of this record to its positivity floor and
        # fails; the entropy term keeps p_0 away from 0 at every n_max
        bad = self._underflowing_record()
        cfg = EMConfig(tol=1e-12, max_iter=3000, accelerate=True)
        batch = reconstruct_pn_batch([bad] * 24, cfg, n_max=list(range(1, 25)))
        for res in batch:
            assert res.converged and res.iterations <= 20
            assert res.residual <= cfg.tol
            assert res.distribution.probs[0] > 1e-4

    def test_on_counts_at_zero_efficiency_fail_the_accelerated_record(self):
        # every distribution is off at eta = 0, so no p reaches on counts there
        grid = EfficiencyGrid(np.array([0.0, 0.5, 1.0]))
        bad = OnOffDataset(grid=grid, shots=10, off_counts=np.array([9, 4, 2]), amp=0.0, phase=0.0)
        good = dataclasses.replace(bad, off_counts=np.array([10, 4, 2]))
        batch = reconstruct_pn_batch([bad, good], EMConfig(n_max=4, accelerate=True))
        assert isinstance(batch[0], IllConditionedError) and "eta = 0" in str(batch[0])
        assert batch[1].converged

    def test_accelerated_results_meet_their_kkt_conditions(self, high_grid):
        # at the maximum of l(p)/N + lam H(p) on the simplex, lam = 1/sqrt(N),
        # every component of the gradient d(l/N)/dp_n - lam (ln p_n + 1) equals
        # the multiplier of sum_n p_n = 1; at tol 1e-13 the measured spread is
        # at most 2e-6 on these records, and the test allows 1e-5
        exact = [exact_dataset(normalized(probs).probs, high_grid)
                 for probs in (poisson_pmf(1.0, 20), geometric_pmf(1.0, 20), np.eye(21)[2])]
        shot = [simulate_dataset(rho, ModulationSpec.uniform(amp, 1), high_grid, 30000, seed=1)[0]
                for rho, amp in ((make_coherent(1.8, 40), 0.1), (make_thermal(2.4, 60), 1.0))]
        records = exact + shot
        n_max = [20] * 3 + [default_truncation(ds) for ds in shot]
        cfg = EMConfig(tol=1e-13, max_iter=50_000, accelerate=True)
        for ds, res in zip(records, reconstruct_pn_batch(records, cfg, n_max=n_max)):
            assert res.converged and res.prenorm_sum == 1.0
            p = res.distribution.probs
            A = np.power.outer(1.0 - ds.grid.etas, np.arange(p.size))
            q, f = A @ p, ds.frequencies
            grad = A.T @ (f / q - (1 - f) / (1 - q)) - (np.log(p) + 1) / math.sqrt(ds.shots)
            assert grad.max() - grad.min() <= 1e-5

    def test_empty_batch(self):
        assert reconstruct_pn_batch([], EMConfig(n_max=4, accelerate=False)) == []

    def test_rows_of_every_truncation_share_one_block(self, high_grid):
        # n_max 17..35 in one call: zero-padded rows run their own estimator
        records = self._mixed_records(high_grid)
        n_maxes = [17 + round(18 * i / (len(records) - 1)) for i in range(len(records))]
        assert (min(n_maxes), max(n_maxes)) == (17, 35)
        cfg = EMConfig(tol=1e-5, max_iter=1500, accelerate=False)
        batch = reconstruct_pn_batch(records, cfg, n_max=n_maxes)
        for ds, n_max, got in zip(records, n_maxes, batch):
            one = reconstruct_pn(ds, dataclasses.replace(cfg, n_max=n_max))
            assert got.distribution.probs.size == one.distribution.probs.size == n_max + 1
            assert np.abs(got.distribution.probs - one.distribution.probs).max() <= 1e-12
            assert got.iterations == one.iterations
            assert got.converged == one.converged
            assert got.ll_decreases == one.ll_decreases
        assert {r.converged for r in batch} == {True, False}

    @staticmethod
    def _underflowing_record():
        # test_division_guard's grid, with no off counts at eta = 1: the plain
        # EM drives p_0 to the positivity floor until the off probability at
        # eta = 1 underflows (a record with off counts there converges instead)
        grid = uniform_grid(1.0, 4)
        return OnOffDataset(grid=grid, shots=10, off_counts=np.array([5, 3, 1, 0]),
                            amp=0.0, phase=0.0)

    def test_failed_row_leaves_the_block_alone(self):
        bad = self._underflowing_record()
        healthy = [dataclasses.replace(bad, off_counts=np.array(c)) for c in ([8, 6, 5, 4],
                                                                             [9, 8, 7, 6])]
        cfg = EMConfig(tol=1e-12, max_iter=3000, accelerate=False)
        records, n_maxes = [healthy[0], bad, healthy[1]], [4, 10, 8]
        batch = reconstruct_pn_batch(records, cfg, n_max=n_maxes)
        assert isinstance(batch[1], IllConditionedError)
        assert "underflowed" in str(batch[1])
        for i in (0, 2):
            one = reconstruct_pn(records[i], dataclasses.replace(cfg, n_max=n_maxes[i]))
            assert np.abs(batch[i].distribution.probs - one.distribution.probs).max() <= 1e-12
            assert (batch[i].iterations, batch[i].converged) == (one.iterations, one.converged)
            assert batch[i].ll_decreases == one.ll_decreases

    def test_reconstruct_pn_raises_on_failed_record(self):
        cfg = EMConfig(n_max=10, tol=1e-12, max_iter=3000, accelerate=False)
        with pytest.raises(IllConditionedError, match="underflowed"):
            reconstruct_pn(self._underflowing_record(), cfg)

    def test_likelihood_falls_are_counted_and_logged(self, caplog):
        # the binomial likelihood of this record falls on most plain-EM passes
        record = dataclasses.replace(self._underflowing_record(), off_counts=np.array([8, 6, 5, 4]))
        cfg = EMConfig(n_max=4, tol=1e-12, max_iter=3000, accelerate=False)
        with caplog.at_level(logging.DEBUG, logger="onofftomo.emrecon"):
            res = reconstruct_pn(record, cfg)
        assert 0 < res.ll_decreases < res.iterations
        [message] = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
        assert re.fullmatch(rf"log-likelihood decreased on {res.ll_decreases}/{res.iterations} "
                            r"steps \(worst -\d\.\d{3}e-\d\d\)", message)

    def test_plain_em_memory_does_not_grow_with_the_pass_budget(self, high_grid):
        # the bootstrap block of `reconstruct --bootstrap 3` on the README dm
        # dataset: 12 phase records and 3 replicas of each, 48 rows; at tol
        # 1e-15 every row runs the whole budget
        rho, _ = build_state({"kind": "coherent", "z": 1.8})
        data = simulate_dataset(rho, ModulationSpec.uniform(0.1, 12), high_grid, 30000, seed=1)
        records = data + [ds for rep in resample(data, 3, 1) for ds in rep]
        n_max = [max(default_truncation(ds) for ds in data)] * len(records)
        peaks = []
        for max_iter in (300, 3000):
            cfg = EMConfig(tol=1e-15, max_iter=max_iter, accelerate=False)
            tracemalloc.start()
            try:
                batch = reconstruct_pn_batch(records, cfg, n_max=n_max)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert [r.iterations for r in batch] == [max_iter] * 48
        assert peaks[1] - peaks[0] <= 128 * 1024


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


# SHA-256 of dataset.json from a small fixed-seed run at 10^12 shots: pins the
# sampler's CDF inversion at the trial counts of the oracle-scale datasets
HIGH_SHOTS_DATASET_SHA256 = "07c844f397245e6253b963a2f1a8500925c7e2ff113dc1af67595805905584a8"


def test_high_shots_dataset_golden_hash(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "state": {"kind": "thermal", "n_th": 1.0},
        "modulation": {"amps": [1.0], "n_phases": 4},
        "grid": {"k": 8, "eta_max": 0.67},
        "shots": 10**12,
        "seed": 5,
        "targets": ["pn"],
        "output": {"dir": str(tmp_path / "out")},
    }))
    assert main(["simulate", "--config", str(cfg)]) == 0
    digest = hashlib.sha256((tmp_path / "out" / "dataset.json").read_bytes()).hexdigest()
    assert digest == HIGH_SHOTS_DATASET_SHA256


def _per_pass_rows_ll(counts, on, p_off):
    log_on = np.log1p(-p_off, where=on > 0, out=np.zeros_like(p_off))
    return (counts * np.log(p_off) + on * log_on).sum(axis=1)


def _per_pass_solve_rows(datasets, n_maxes, cfg):
    """The plain-EM block loop as it was before batched scoring: the
    likelihood of every live row is scored on every pass."""
    from onofftomo.detector import _thinning_matrix
    from onofftomo.emrecon import _DIV_FLOOR, _row_failures, _update

    A = _thinning_matrix(datasets[0].grid.etas, max(n_maxes))
    W = A / A.sum(axis=0, keepdims=True)
    sizes = np.array(n_maxes)[:, None] + 1
    floor = np.where(np.arange(A.shape[1]) < sizes, _DIV_FLOOR, 0.0)
    F = np.array([ds.frequencies for ds in datasets])
    counts = np.array([ds.off_counts for ds in datasets], dtype=float)
    on = np.array([float(ds.shots) for ds in datasets])[:, None] - counts
    P = (floor > 0) / sizes
    P_off = P @ A.T
    ll_hist = np.empty((cfg.max_iter + 1, len(datasets)))
    live = np.arange(len(datasets))
    results = [None] * len(datasets)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ll_hist[0] = _per_pass_rows_ll(counts, on, P_off)
        for it in range(1, cfg.max_iter + 1):
            new, prenorm = _update(P, P_off, F, W)
            residual = np.abs(new - P).max(axis=1)
            P = np.maximum(new, floor)
            P /= P.sum(axis=1, keepdims=True)
            P_off = P @ A.T
            quiet = residual.min() >= cfg.tol and P_off.min() >= _DIV_FLOOR
            failed = {} if quiet else _row_failures(prenorm, P_off)
            ll_hist[it, live] = _per_pass_rows_ll(counts, on, P_off)
            if it < cfg.max_iter and quiet:
                continue
            done = residual < cfg.tol
            keep = ~done if it < cfg.max_iter else np.zeros_like(done)
            keep[list(failed)] = False
            for j in np.flatnonzero(~keep):
                i = live[j]
                results[i] = failed[j] if j in failed else (
                    P[j, : n_maxes[i] + 1], it, bool(done[j]), residual[j], prenorm[j],
                    ll_hist[: it + 1, i].copy())
            if not keep.any():
                break
            P, P_off, F, counts, on, floor, live = (
                x[keep] for x in (P, P_off, F, counts, on, floor, live))
    return results


class TestBatchedLikelihood:
    """The plain EM scores its likelihood once per 64 passes (fewer where 64
    passes exceed 2^14 off probabilities) and before any row leaves the block;
    every row keeps the bits of per-pass scoring."""

    @staticmethod
    def _assert_same_bits(datasets, n_maxes, cfg):
        from onofftomo.emrecon import _solve_rows

        got = _solve_rows(datasets, n_maxes, cfg)
        want = _per_pass_solve_rows(datasets, n_maxes, cfg)
        for g, w in zip(got, want):
            if isinstance(w, IllConditionedError):
                assert isinstance(g, IllConditionedError) and str(g) == str(w)
                continue
            p, iterations, converged, residual, prenorm, ll, falls, worst, lam = g
            assert (iterations, converged, lam) == (*w[1:3], None)
            assert p.tobytes() == w[0].tobytes()
            history = w[5]
            assert np.float64(ll).tobytes() == history[-1].tobytes()
            change = np.diff(history)
            fell = change < -1e-12 * np.maximum(1.0, np.abs(history[:-1]))
            assert falls == fell.sum()
            want_worst = change[fell].min() if fell.any() else 0.0
            assert np.float64(worst).tobytes() == np.float64(want_worst).tobytes()
            assert np.float64(residual).tobytes() == np.float64(w[3]).tobytes()
            assert np.float64(prenorm).tobytes() == np.float64(w[4]).tobytes()
        return got

    @pytest.mark.parametrize("max_iter", [1, 63, 64, 65, 200])
    def test_budget_around_the_batch_length(self, high_grid, max_iter):
        # ten rows of 25 off probabilities: 64 passes per call
        records = TestBatch()._mixed_records(high_grid)[-10:]
        cfg = EMConfig(tol=1e-12, max_iter=max_iter, accelerate=False)
        self._assert_same_bits(records, [20] * len(records), cfg)

    def test_rows_that_converge_inside_a_batch(self, high_grid):
        # rows stop at passes 470 to 1240, most of them inside a batch (46
        # passes for 14 rows), and two run the 1500-pass budget; truncations
        # 17..35 pad the block
        records = TestBatch()._mixed_records(high_grid)
        n_maxes = [17 + round(18 * i / (len(records) - 1)) for i in range(len(records))]
        cfg = EMConfig(tol=1e-5, max_iter=1500, accelerate=False)
        got = self._assert_same_bits(records, n_maxes, cfg)
        stops = {res[1] for res in got}
        assert any(it % 64 for it in stops) and len(stops) > 1

    def test_underflow_failure_inside_a_batch(self):
        bad = TestBatch._underflowing_record()
        healthy = [dataclasses.replace(bad, off_counts=np.array(c)) for c in ([8, 6, 5, 4],
                                                                             [9, 8, 7, 6])]
        # the underflowing row fails at pass 2329, 25 passes into a batch
        cfg = EMConfig(tol=1e-12, max_iter=3000, accelerate=False)
        got = self._assert_same_bits([healthy[0], bad, healthy[1]], [4, 10, 8], cfg)
        assert isinstance(got[1], IllConditionedError)

    def test_block_above_the_buffer_scores_every_pass(self, high_grid):
        # 700 rows of 25 off probabilities exceed 2^14 floats in one pass
        records = TestBatch()._mixed_records(high_grid) * 50
        cfg = EMConfig(tol=1e-12, max_iter=70, accelerate=False)
        self._assert_same_bits(records, [20] * len(records), cfg)

    def test_one_row_block(self, high_grid):
        record = TestBatch()._mixed_records(high_grid)[0]
        cfg = EMConfig(tol=1e-12, max_iter=3000, accelerate=False)
        self._assert_same_bits([record], [default_truncation(record)], cfg)
