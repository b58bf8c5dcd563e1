"""Maximum-likelihood recovery of photon distributions from off frequencies."""

import dataclasses
import hashlib
import json
import logging
import math
import os

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

    # One-record accelerated solves (iterations, final log-likelihood,
    # likelihood decreases) of eight 10^12-shot records of thermal(1) at
    # |alpha| = 2 (seed 3) and a vacuum record, every one at n_max 23, as
    # solved one at a time before accelerated records shared a block.  The
    # block must reproduce them exactly; the vacuum record has a count at N.
    BLOCK_PINS = [
        (496, -13490518583068.666, 12),
        (496, -13490518739084.355, 7),
        (652, -13490517767383.871, 16),
        (691, -13490516844595.285, 11),
        (270, -13490517649258.822, 12),
        (267, -13490512733542.562, 15),
        (62, -13490515993861.465, 25),
        (199, -13490514624049.324, 16),
        (16, -419548981.44086486, 0),
    ]

    def test_accelerated_block_reproduces_one_record_pins(self, high_grid, monkeypatch):
        from onofftomo import emrecon

        shots = 10**12
        data = simulate_dataset(make_thermal(1.0, 60), ModulationSpec.uniform(2.0, 8), high_grid,
                                shots, seed=3)
        vacuum = OnOffDataset(grid=high_grid, shots=shots,
                              off_counts=np.full(high_grid.size, shots), amp=0.0, phase=0.0)
        records = data + [vacuum]
        blocks = []
        solve_block = emrecon._solve_block
        monkeypatch.setattr(emrecon, "_solve_block",
                            lambda ds, *a: blocks.append(len(ds)) or solve_block(ds, *a))
        cfg = EMConfig(n_max=23)
        batch = reconstruct_pn_batch(records, cfg)
        assert blocks == [9]
        assert [(r.iterations, r.final_ll, r.ll_decreases) for r in batch] == self.BLOCK_PINS
        assert all(r.converged for r in batch)
        for i in (6, 8):
            assert _same_result(batch[i], reconstruct_pn(records[i], cfg))

    def test_failed_row_leaves_an_accelerated_block_alone(self):
        # at n_max 5 the accelerated solve of the underflowing record fails
        # after a few Anderson steps; the healthy rows run on to max_iter
        bad = self._underflowing_record()
        records = [dataclasses.replace(bad, off_counts=np.array(c))
                   for c in ([8, 6, 5, 4], [9, 8, 7, 6], [7, 5, 3, 2])]
        records.insert(1, bad)
        cfg = EMConfig(n_max=5, tol=1e-12, max_iter=3000, accelerate=True)
        batch = reconstruct_pn_batch(records, cfg)
        assert isinstance(batch[1], IllConditionedError)
        assert "underflowed" in str(batch[1])
        with pytest.raises(IllConditionedError, match="underflowed"):
            reconstruct_pn(bad, cfg)
        for i in (0, 2, 3):
            assert _same_result(batch[i], reconstruct_pn(records[i], cfg))
        assert {r.iterations for r in batch if not isinstance(r, Exception)} == {100, 3000}

    # (25, 34) is the oracle's tallest block; (4, 5) has 6 rows, so its
    # least-squares problems are underdetermined from history width 7 on
    @pytest.mark.parametrize("k, n_max", [(25, 16), (25, 20), (25, 21), (25, 23), (25, 34), (4, 5)])
    def test_rowwise_products_match_one_record_products(self, k, n_max):
        # accelerated blocks are bit-identical to one-record solves only
        # because every stacked product and solve rounds as its one-record
        # counterpart; a numpy, BLAS or LAPACK change that breaks this must
        # fail here, not by moving the pins above
        from onofftomo.detector import _thinning_matrix
        from onofftomo.emrecon import _Anderson, _binomial_ll, _lstsq_rows

        rng = np.random.default_rng(k * 100 + n_max)
        A = _thinning_matrix(uniform_grid(0.67, k).etas, n_max)
        W = A / A.sum(axis=0, keepdims=True)
        P = rng.dirichlet(np.ones(n_max + 1), size=16)
        X = rng.uniform(0.5, 2.0, size=(16, k))
        S = rng.normal(size=(16, n_max + 1, 10))
        G = rng.normal(size=(16, 10))
        counts = rng.integers(1, 10**12, size=(16, k)).astype(float)
        on = 10.0**12 - counts
        P_off = np.vecmat(P, A.T)
        ll = _Anderson(A, counts, on, P).ll(P_off)
        stacked = np.matmul(S, G[:, :, None])[:, :, 0]
        message = ("row-wise stacked products no longer round as one-record products on this "
                   "numpy/BLAS: accelerated blocks would not reproduce one-record solves")
        for i in range(16):
            assert np.array_equal(P_off[i], A @ P[i]), message
            assert np.array_equal(np.vecmat(X, W)[i], X[i] @ W), message
            assert np.array_equal(stacked[i], S[i] @ G[i]), message
            assert ll[i] == _binomial_ll(counts[i], on[i], P_off[i]), message
            assert np.array_equal(P.sum(axis=1)[i], P[i].sum()), message

        # the stacked least-squares solve of every history width, on windows
        # of a wider buffer as the Anderson step passes them: even rows carry
        # a duplicated column (rank-deficient), rows 4j+1 a column that
        # differs from another by 1e-12 relative, between lstsq's default
        # rcond and a looser one
        message = ("numpy's stacked lstsq gufunc no longer solves each row as np.linalg.lstsq "
                   "does on this numpy/LAPACK: accelerated blocks would not reproduce "
                   "one-record solves")
        buffer = rng.normal(size=(16, n_max + 1, 20))
        r = rng.normal(size=(16, n_max + 1))
        for m in range(1, 11):
            dR = buffer.copy()[..., 3 : 3 + m]
            if m > 1:
                dR[::2, :, -1] = dR[::2, :, 0]
                dR[1::4, :, -1] = dR[1::4, :, 0] * (1 + 1e-12 * rng.normal(size=(4, n_max + 1)))
            gamma = _lstsq_rows(dR, r)
            assert gamma.shape == (16, m, 1)
            for i in range(16):
                one = np.linalg.lstsq(dR[i], r[i], rcond=None)[0]
                assert np.array_equal(gamma[i, :, 0], one), message
        with pytest.raises(np.linalg.LinAlgError):
            _lstsq_rows(np.full((2, n_max + 1, 3), np.nan), r[:2])

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
            assert got.ll_history.size == one.ll_history.size
        assert {r.converged for r in batch} == {True, False}

    @staticmethod
    def _underflowing_record():
        # test_division_guard's grid, with no off counts at eta = 1: p_0 is
        # driven to the positivity floor until the off probability at eta = 1
        # underflows (a record with off counts there converges instead)
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
            assert batch[i].ll_history.size == one.ll_history.size

    def test_reconstruct_pn_raises_on_failed_record(self):
        cfg = EMConfig(n_max=10, tol=1e-12, max_iter=3000, accelerate=False)
        with pytest.raises(IllConditionedError, match="underflowed"):
            reconstruct_pn(self._underflowing_record(), cfg)


class TestWorkerPool:
    """Accelerated batches of several blocks, each block split into two row
    chunks and solved in two forked workers, give the results of the serial
    solve."""

    CFG = EMConfig(tol=1e-12, max_iter=600, accelerate=True)

    @staticmethod
    def _records():
        # three blocks of five rows at n_max 2, 3 and 5; the underflowing
        # record fails at n_max 2 and 5, most rows stop at max_iter
        bad = TestBatch._underflowing_record()
        counts = [[5, 3, 1, 0], [8, 6, 5, 4], [9, 8, 7, 6], [7, 5, 3, 2], [6, 4, 2, 1],
                  [9, 7, 5, 3], [8, 5, 3, 2], [7, 6, 4, 3], [9, 9, 8, 7], [6, 5, 3, 2],
                  [5, 3, 1, 0], [5, 4, 3, 2], [7, 4, 2, 1], [9, 8, 6, 5], [8, 6, 4, 2]]
        records = [dataclasses.replace(bad, off_counts=np.array(c), amp=0.1 * i, phase=0.2 * i)
                   for i, c in enumerate(counts)]
        return records, [2, 5, 3] * 5

    @staticmethod
    def _cpus(monkeypatch, n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)

    def _solve(self, monkeypatch, caplog, n_cpus):
        self._cpus(monkeypatch, n_cpus)
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="onofftomo.emrecon"):
            records, n_max = self._records()
            batch = reconstruct_pn_batch(records, self.CFG, n_max=n_max)
        return batch, [(r.name, r.levelno, r.getMessage()) for r in caplog.records]

    def test_pooled_results_identical_to_serial(self, monkeypatch, caplog):
        serial, serial_log = self._solve(monkeypatch, caplog, 1)
        pooled, pooled_log = self._solve(monkeypatch, caplog, 2)
        failed = [i for i, r in enumerate(serial) if isinstance(r, IllConditionedError)]
        assert failed == [0, 10]
        assert {r.converged for r in serial if not isinstance(r, Exception)} == {True, False}
        for one, other in zip(serial, pooled):
            if isinstance(one, Exception):
                assert (type(other), str(other)) == (type(one), str(one))
                continue
            assert _same_result(other, one)
            assert not other.distribution.probs.flags.writeable
            assert not other.ll_history.flags.writeable
        assert any("EM hit max_iter" in msg for _, level, msg in serial_log if level == logging.INFO)
        assert pooled_log == serial_log

    def _fail_in_workers(self, monkeypatch, fail):
        from onofftomo import emrecon

        parent, solve = os.getpid(), emrecon._lstsq_rows
        monkeypatch.setattr(emrecon, "_lstsq_rows",
                            lambda dR, r: fail() if os.getpid() != parent else solve(dR, r))
        self._cpus(monkeypatch, 2)
        return self._records()

    def test_worker_linalg_error_reaches_the_caller(self, monkeypatch):
        def fail():
            raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")

        records, n_max = self._fail_in_workers(monkeypatch, fail)
        with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
            reconstruct_pn_batch(records, self.CFG, n_max=n_max)

    def test_dead_worker_raises_instead_of_hanging(self, monkeypatch):
        from concurrent.futures.process import BrokenProcessPool

        records, n_max = self._fail_in_workers(monkeypatch, lambda: os._exit(1))
        with pytest.raises(BrokenProcessPool):
            reconstruct_pn_batch(records, self.CFG, n_max=n_max)

    def test_two_workers_and_only_for_several_blocks(self, monkeypatch):
        import concurrent.futures

        made = []

        class Recording(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers, *args, **kwargs):
                made.append(max_workers)
                super().__init__(max_workers, *args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
        self._cpus(monkeypatch, 8)
        records, n_max = self._records()
        reconstruct_pn_batch(records, self.CFG, n_max=n_max)
        assert made == [2]
        # one block (every row at n_max 3) is solved in this process
        reconstruct_pn_batch(records[2::3], self.CFG, n_max=n_max[2::3])
        assert made == [2]

    def test_daemonic_caller_solves_in_process(self, monkeypatch, caplog):
        # a daemonic process may not fork workers of its own
        import multiprocessing

        serial, _ = self._solve(monkeypatch, caplog, 1)
        self._cpus(monkeypatch, 2)
        ctx = multiprocessing.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)

        def run():
            records, n_max = self._records()
            try:
                send.send(reconstruct_pn_batch(records, self.CFG, n_max=n_max))
            except BaseException as exc:
                send.send(exc)

        daemon = ctx.Process(target=run, daemon=True)
        daemon.start()
        assert recv.poll(60)
        got = recv.recv()
        daemon.join()
        assert isinstance(got, list), got
        for one, other in zip(serial, got, strict=True):
            if isinstance(one, Exception):
                assert str(other) == str(one)
            else:
                assert _same_result(other, one)

    KILLED = """
import os, sys, time
import numpy as np
from onofftomo import EMConfig, OnOffDataset, reconstruct_pn_batch, uniform_grid
from onofftomo import emrecon

def stall(*args):
    os.write(1, b"%d\\n" % os.getpid())  # one write, so the two workers' lines stay whole
    time.sleep(120)

emrecon._solve_rows = stall
os.sched_getaffinity = lambda pid: {0, 1}
record = OnOffDataset(grid=uniform_grid(1.0, 4), shots=10, off_counts=np.array([8, 6, 5, 4]),
                      amp=0.0, phase=0.0)
reconstruct_pn_batch([record] * 4, EMConfig(accelerate=True), n_max=[2, 2, 3, 3])
"""

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
    def test_workers_end_with_a_killed_caller(self, tmp_path):
        import signal
        import subprocess
        import sys
        import time

        def running(pid):
            try:
                with open(f"/proc/{pid}/stat") as fh:
                    return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
            except FileNotFoundError:
                return False

        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        caller = subprocess.Popen([sys.executable, "-c", self.KILLED], env=env, cwd=tmp_path,
                                  stdout=subprocess.PIPE, text=True)
        workers = set()
        try:
            workers.update(int(caller.stdout.readline()) for _ in range(2))
            assert len(workers) == 2 and all(map(running, workers))
            caller.send_signal(signal.SIGKILL)
            caller.wait()
            deadline = time.monotonic() + 20
            while any(map(running, workers)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(map(running, workers))
        finally:
            caller.kill()
            caller.stdout.close()
            for pid in filter(running, workers):
                os.kill(pid, signal.SIGKILL)


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
