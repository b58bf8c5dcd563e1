"""Bootstrap error propagation and delta maps."""

import cmath
import math

import numpy as np
import pytest

from onofftomo import (
    BootstrapError,
    EMConfig,
    ErrorReport,
    IllConditionedError,
    ModulationSpec,
    ReconstructionError,
    bootstrap,
    delta_map,
    displaced_photon_distribution,
    dm_pipeline,
    make_coherent,
    make_fock,
    make_thermal,
    reconstruct_density_matrix,
    reconstruct_pn_batch,
    simulate_dataset,
    wigner_pipeline,
)
from onofftomo.uncertainty import EMPipeline, dm_readout, dm_tag, wigner_readout


def mean_frequency_pipeline(datasets):
    return {"f_mean": float(np.mean([ds.frequencies.mean() for ds in datasets]))}


def point_fit(datasets, cfg, amp, m_max, **kwargs):
    """The density-matrix point estimate of one amplitude's phase records."""
    dists = [r.distribution for r in reconstruct_pn_batch(datasets, cfg)]
    return reconstruct_density_matrix(dists, amp, s_max=1, m_max=m_max, **kwargs)


class TestBootstrap:
    def test_degenerate_counts_have_zero_spread(self, high_grid):
        # frequencies of 0 or 1 resample to themselves
        data = simulate_dataset(
            make_fock(0, 0), ModulationSpec.uniform(0.0, 1), high_grid, 2000, seed=9
        )
        cfg = EMConfig(n_max=6, tol=1e-10, max_iter=2000)
        reports = bootstrap(data, wigner_pipeline(cfg), n_replicas=16, seed=1)
        assert len(reports) == 1
        assert reports[0].stddev <= 1e-9
        assert reports[0].replicas == 16

    def test_deterministic_under_seed(self, high_grid):
        data = simulate_dataset(
            make_thermal(1.0, 40), ModulationSpec.uniform(0.0, 1), high_grid, 5000, seed=3
        )
        a = bootstrap(data, mean_frequency_pipeline, n_replicas=32, seed=5)
        b = bootstrap(data, mean_frequency_pipeline, n_replicas=32, seed=5)
        assert a == b
        c = bootstrap(data, mean_frequency_pipeline, n_replicas=32, seed=6)
        assert a[0].mean != c[0].mean or a[0].stddev != c[0].stddev

    def test_wigner_spread_in_expected_band(self, high_grid):
        data = simulate_dataset(
            make_thermal(2.4, 60), ModulationSpec.uniform(0.0, 1), high_grid, 30000, seed=42
        )
        cfg = EMConfig(n_max=17, tol=1e-12, max_iter=2000, accelerate=False)
        reports = bootstrap(data, wigner_pipeline(cfg), n_replicas=48, seed=7)
        assert 1e-4 <= reports[0].stddev <= 5e-2

    def test_replica_independence_across_seeds(self, high_grid):
        data = simulate_dataset(
            make_thermal(1.5, 50), ModulationSpec.uniform(0.0, 1), high_grid, 20000, seed=11
        )

        draws = {}
        for seed in (100, 200):
            vals = []

            def capture(datasets, _vals=vals):
                v = float(np.mean([ds.frequencies.mean() for ds in datasets]))
                _vals.append(v)
                return {"v": v}

            bootstrap(data, capture, n_replicas=100, seed=seed)
            draws[seed] = np.array(vals)
        corr = np.corrcoef(draws[100], draws[200])[0, 1]
        assert abs(corr) <= 0.2

    def test_failure_accounting(self, high_grid):
        data = simulate_dataset(
            make_thermal(1.0, 40), ModulationSpec.uniform(0.0, 1), high_grid, 5000, seed=3
        )

        calls = {"n": 0}

        def sometimes_fails(datasets):
            calls["n"] += 1
            if calls["n"] % 10 == 0:
                raise ReconstructionError("synthetic failure")
            return mean_frequency_pipeline(datasets)

        reports = bootstrap(data, sometimes_fails, n_replicas=20, seed=1)
        assert reports[0].replicas == 18

        def always_fails(_datasets):
            raise ReconstructionError("synthetic failure")

        with pytest.raises(BootstrapError):
            bootstrap(data, always_fails, n_replicas=10, seed=1)

    def test_needs_two_replicas(self, high_grid):
        data = simulate_dataset(
            make_thermal(1.0, 40), ModulationSpec.uniform(0.0, 1), high_grid, 100, seed=3
        )
        with pytest.raises(ValueError):
            bootstrap(data, mean_frequency_pipeline, n_replicas=1, seed=0)

    def test_dm_pipeline_tags(self, high_grid):
        rho = make_coherent(1.0, 30)
        mod = ModulationSpec.uniform(0.4, 6)
        data = simulate_dataset(rho, mod, high_grid, 20000, seed=2)
        cfg = EMConfig(n_max=14, tol=1e-12, max_iter=500, accelerate=False)
        pipe = dm_pipeline(point_fit(data, cfg, 0.4, 5), em_config=cfg)
        reports = bootstrap(data, pipe, n_replicas=8, seed=4)
        tags = {r.tag for r in reports}
        assert "dm[0,0]" in tags and "dm[1,0]" in tags
        assert all(r.stddev >= 0 for r in reports)

    def test_dm_pipeline_reports_the_fits_elements(self, high_grid):
        # at svd_cutoff 1e-4 the s = 0 kernel keeps m <= 29 of n_max 30;
        # kernels built at the default cutoff would keep m <= 30
        rho = make_coherent(1.0, 30)
        data = simulate_dataset(rho, ModulationSpec.uniform(2.0, 4), high_grid, 20000, seed=2)
        cfg = EMConfig(n_max=30, tol=1e-12, max_iter=200, accelerate=False)
        fit = point_fit(data, cfg, 2.0, None, svd_cutoff=1e-4)
        assert fit.fit(0).kernel.m_max == 29
        reports = bootstrap(data, dm_pipeline(fit, cfg), n_replicas=4, seed=4)
        assert [r.tag for r in reports] == [dm_tag(m + f.s, m) for f in fit.fits
                                            for m in range(f.values.size)]
        assert {r.replicas for r in reports} == {4}


class TestOneBlockBootstrap:
    """An EM pipeline's replicas are solved in one EM call."""

    @staticmethod
    def _data(grid):
        rho = make_coherent(1.0, 30)
        return simulate_dataset(rho, ModulationSpec.uniform(0.4, 6), grid, 20000, seed=2)

    @pytest.mark.parametrize("target", ["wigner", "dm"])
    def test_matches_per_replica_reference(self, high_grid, target):
        data = self._data(high_grid)
        cfg = EMConfig(n_max=14, tol=1e-12, max_iter=500, accelerate=False)
        pipe = (wigner_pipeline(cfg) if target == "wigner"
                else dm_pipeline(point_fit(data, cfg, 0.4, 5), cfg))
        block = bootstrap(data, pipe, n_replicas=8, seed=4)
        # a plain callable runs the same pipeline once per replica
        reference = bootstrap(data, lambda datasets: pipe(datasets), n_replicas=8, seed=4)
        assert [r.tag for r in block] == [r.tag for r in reference]
        for got, want in zip(block, reference):
            assert got.replicas == want.replicas == 8
            assert got.stddev == pytest.approx(want.stddev, rel=1e-12, abs=1e-300)
            assert abs(got.mean - want.mean) <= 1e-12 * max(1.0, abs(want.mean))

    def test_both_readouts_match_single_target_bootstraps(self, high_grid):
        # one EM solve per replica serves both read-outs with unchanged reports
        data = self._data(high_grid)
        cfg = EMConfig(n_max=14, tol=1e-12, max_iter=500, accelerate=False)
        wigner = bootstrap(data, wigner_pipeline(cfg), n_replicas=8, seed=4)
        fit = point_fit(data, cfg, 0.4, 5)
        dm = bootstrap(data, dm_pipeline(fit, cfg), n_replicas=8, seed=4)
        both = EMPipeline(cfg, (wigner_readout, dm_readout([f.kernel for f in fit.fits])))
        assert bootstrap(data, both, n_replicas=8, seed=4) == wigner + dm

    def test_dm_replica_builds_no_kernel(self, high_grid, monkeypatch):
        from onofftomo import inversion

        cfg = EMConfig(n_max=14, tol=1e-12, max_iter=200, accelerate=False)
        data = self._data(high_grid)
        pipe = dm_pipeline(point_fit(data, cfg, 0.4, None), cfg)
        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(inversion, "displacement_matrix", counted(inversion.displacement_matrix))
        monkeypatch.setattr(np.linalg, "svd", counted(np.linalg.svd))
        reports = bootstrap(data, pipe, n_replicas=4, seed=4)
        assert calls == []
        assert {r.replicas for r in reports} == {4} and "dm[1,0]" in {r.tag for r in reports}

    def test_one_failed_row_fails_one_replica(self, high_grid, monkeypatch):
        from onofftomo import uncertainty

        solve = uncertainty.reconstruct_pn_batch
        calls = []

        def one_row_fails(datasets, config=None):
            calls.append(len(datasets))
            results = solve(datasets, config)
            results[9] = IllConditionedError("synthetic row failure")  # replica 1, record 3
            return results

        monkeypatch.setattr(uncertainty, "reconstruct_pn_batch", one_row_fails)
        data = self._data(high_grid)
        cfg = EMConfig(n_max=14, tol=1e-12, max_iter=200, accelerate=False)
        reports = bootstrap(data, wigner_pipeline(cfg), n_replicas=5, seed=4)
        assert calls == [5 * 6]
        assert {r.replicas for r in reports} == {4}


class TestErrorReport:
    def test_validation(self):
        with pytest.raises(ValueError):
            ErrorReport(tag="x", mean=0.0, stddev=-1.0, replicas=5)
        with pytest.raises(ValueError):
            ErrorReport(tag="x", mean=0.0, stddev=0.1, replicas=1)


class TestDeltaMap:
    def _result(self, z=1.1, amp=0.4, m_max=6):
        rho = make_coherent(z, 30)
        dists = [
            displaced_photon_distribution(rho, amp * cmath.exp(2j * math.pi * l / 10), 25)
            for l in range(10)
        ]
        return reconstruct_density_matrix(dists, amp, s_max=1, m_max=m_max)

    def test_noiseless_round_trip_is_zero(self):
        # the fit must span the state's support, so let m_max auto-widen
        res = self._result(m_max=None)
        theory = make_coherent(1.1, 30)
        dm = delta_map(res, theory)
        assert np.nanmax(dm.values) < 1e-6

    def test_symmetric(self):
        res = self._result()
        theory = make_coherent(1.1, 30)
        values = delta_map(res, theory).values
        # exactly the reconstructed elements and their mirrors are covered
        assert {tuple(nm) for nm in np.argwhere(~np.isnan(values)).tolist()} == {
            nm for nm, _ in res.items()}
        dim = values.shape[0]
        for n in range(dim):
            for m in range(dim):
                if not math.isnan(values[n, m]):
                    assert values[n, m] == pytest.approx(values[m, n], abs=1e-15)

    def test_incompatible_ranges(self):
        res = self._result()
        small_theory = make_coherent(1.1, 3, tail_tol=0.9)
        with pytest.raises(ValueError):
            delta_map(res, small_theory)
