"""On/off detector model and synthetic dataset generation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onofftomo import (
    EfficiencyGrid,
    ModulationSpec,
    OnOffDataset,
    PhotonDistribution,
    make_fock,
    make_phase_averaged_coherent,
    make_thermal,
    off_probabilities,
    off_probability,
    simulate_dataset,
    uniform_grid,
)
from onofftomo.detector import (
    _CDF_EPS,
    _EDGEWORTH_MIN_VAR,
    _WINDOW_MAX_TRIALS,
    _betainc_inverse,
    _binomial_inverse,
    _edgeworth_cdf,
    _edgeworth_inverse,
    _window_cdf,
    _window_inverse,
)
from onofftomo.errors import IllConditionedError
from conftest import geometric_pmf, poisson_pmf


class TestOffProbability:
    def test_eta_zero_is_one(self):
        dist = PhotonDistribution(poisson_pmf(2.0, 40))
        assert off_probability(dist, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_eta_one_is_ground_population(self):
        dist = PhotonDistribution(poisson_pmf(2.0, 40))
        assert off_probability(dist, 1.0) == dist.probs[0]

    def test_poisson_closed_form(self):
        mu = 1.69
        dist = PhotonDistribution(poisson_pmf(mu, 60))
        for eta in (0.1, 0.29, 0.67, 0.95):
            assert off_probability(dist, eta) == pytest.approx(math.exp(-eta * mu), abs=1e-12)

    def test_thermal_closed_form(self):
        n_th = 1.4
        dist = make_thermal(n_th, 200).diagonal_distribution()
        for eta in (0.1, 0.29, 0.67, 0.95):
            assert off_probability(dist, eta) == pytest.approx(1 / (1 + eta * n_th), abs=1e-10)

    def test_rejects_out_of_range_eta(self):
        dist = PhotonDistribution(np.array([1.0]))
        with pytest.raises(ValueError):
            off_probability(dist, 1.5)

    @given(
        mean=st.floats(min_value=0.05, max_value=3.0),
        eta_lo=st.floats(min_value=0.01, max_value=0.5),
        gap=st.floats(min_value=0.01, max_value=0.49),
    )
    @settings(max_examples=40, deadline=None)
    def test_strictly_decreasing_in_eta(self, mean, eta_lo, gap):
        dist = PhotonDistribution(poisson_pmf(mean, 60))
        assert off_probability(dist, eta_lo) > off_probability(dist, eta_lo + gap)

    def test_linear_in_distribution(self):
        a = PhotonDistribution(poisson_pmf(0.7, 50))
        b = PhotonDistribution(geometric_pmf(1.9, 50) / geometric_pmf(1.9, 50).sum())
        w = 0.3
        mix = PhotonDistribution(w * a.probs + (1 - w) * b.probs)
        for eta in (0.2, 0.5, 0.9):
            expect = w * off_probability(a, eta) + (1 - w) * off_probability(b, eta)
            assert off_probability(mix, eta) == pytest.approx(expect, abs=1e-12)

    def test_vector_version_matches(self, high_grid):
        dist = PhotonDistribution(poisson_pmf(1.3, 40))
        vec = off_probabilities(dist, high_grid)
        for k, eta in enumerate(high_grid.etas):
            assert vec[k] == pytest.approx(off_probability(dist, eta), abs=1e-14)


class TestGrids:
    def test_minimal_grid_accepted(self):
        grid = uniform_grid(0.29, 2)
        assert grid.size == 2

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            EfficiencyGrid(np.array([0.5]))
        with pytest.raises(ValueError):
            EfficiencyGrid(np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            EfficiencyGrid(np.array([0.5, 1.5]))


class TestModulationSpec:
    def test_uniform_phases(self):
        mod = ModulationSpec.uniform(0.5, 4)
        assert np.allclose(mod.phases, [0, math.pi / 2, math.pi, 3 * math.pi / 2])
        assert mod.alpha(1) == pytest.approx(0.5j)

    def test_rejects_duplicate_phases(self):
        with pytest.raises(ValueError):
            ModulationSpec(amp=1.0, phases=np.array([0.1, 0.1 + 2 * math.pi]))

    def test_rejects_negative_amp(self):
        with pytest.raises(ValueError):
            ModulationSpec(amp=-0.5, phases=np.array([0.0]))


class TestDataset:
    def test_count_bounds_enforced(self, high_grid):
        counts = np.full(25, 31, dtype=np.int64)
        with pytest.raises(ValueError):
            OnOffDataset(grid=high_grid, shots=30, off_counts=counts, amp=0.0, phase=0.0)

    def test_requires_integer_counts(self, high_grid):
        with pytest.raises(ValueError):
            OnOffDataset(
                grid=high_grid, shots=30, off_counts=np.ones(25), amp=0.0, phase=0.0
            )

    def test_frequencies(self, high_grid):
        counts = np.full(25, 15, dtype=np.int64)
        ds = OnOffDataset(grid=high_grid, shots=30, off_counts=counts, amp=0.0, phase=0.0)
        assert np.all(ds.frequencies == 0.5)


class TestSimulation:
    def test_deterministic_under_seed(self, high_grid):
        rho = make_thermal(1.4, 40)
        mod = ModulationSpec.uniform(0.5, 3)
        a = simulate_dataset(rho, mod, high_grid, 30000, seed=11)
        b = simulate_dataset(rho, mod, high_grid, 30000, seed=11)
        for x, y in zip(a, b):
            assert np.array_equal(x.off_counts, y.off_counts)
        c = simulate_dataset(rho, mod, high_grid, 30000, seed=12)
        assert any(not np.array_equal(x.off_counts, y.off_counts) for x, y in zip(a, c))

    def test_vacuum_always_off(self, high_grid):
        data = simulate_dataset(
            make_fock(0, 0), ModulationSpec.uniform(0.0, 1), high_grid, 30000, seed=3
        )
        assert np.all(data[0].off_counts == 30000)

    def test_binomial_concentration(self, high_grid):
        # |f - P_off| <= 5 sigma in >= 99% of cells at N = 1e6
        rho = make_phase_averaged_coherent(1.5, 40)
        mod = ModulationSpec.uniform(0.8, 6)
        shots = 10**6
        data = simulate_dataset(rho, mod, high_grid, shots, seed=21)
        violations = 0
        total = 0
        from onofftomo.fock import displaced_photon_distribution

        for ds in data:
            dist = displaced_photon_distribution(rho, ds.alpha, 60)
            p = off_probabilities(dist, high_grid)
            sigma = np.sqrt(p * (1 - p) / shots)
            violations += int(np.sum(np.abs(ds.frequencies - p) > 5 * sigma))
            total += p.size
        assert violations <= math.ceil(0.01 * total)

    def test_frequency_bias_over_seeds(self, high_grid):
        # averaged over 100 seeds, |mean(f) - P| <= 3 sqrt(P(1-P)/(100 N))
        rho = make_thermal(1.1, 60)
        mod = ModulationSpec.uniform(0.0, 1)
        shots = 30000
        n_seeds = 100
        acc = np.zeros(high_grid.size)
        for seed in range(n_seeds):
            acc += simulate_dataset(rho, mod, high_grid, shots, seed=seed)[0].frequencies
        mean_f = acc / n_seeds
        p = off_probabilities(rho.diagonal_distribution(), high_grid)
        bound = 3 * np.sqrt(p * (1 - p) / (n_seeds * shots))
        assert np.all(np.abs(mean_f - p) <= bound)

    def test_truncation_grows_past_the_state(self, high_grid):
        # |0> is stored at n_max 0; its displacement needs more rows, and the
        # automatic truncation supplies them: P_off = exp(-eta |alpha|^2)
        rho = make_fock(0, 0)
        data = simulate_dataset(rho, ModulationSpec.uniform(0.3, 1), high_grid, 10**12, seed=5)
        assert data[0].off_counts.size == high_grid.size
        assert np.abs(data[0].frequencies - np.exp(-0.09 * high_grid.etas)).max() < 1e-5

    @pytest.mark.parametrize("shots", [2**63, 10**19])
    def test_shots_outside_int64_counts_rejected(self, high_grid, shots):
        with pytest.raises(ValueError, match=r"^shots must be < 2\*\*63$"):
            simulate_dataset(make_thermal(1.0, 40), ModulationSpec.uniform(0.3, 1), high_grid, shots)

    def test_largest_shot_count(self, high_grid):
        shots = 2**63 - 1
        data = simulate_dataset(make_thermal(1.0, 40), ModulationSpec.uniform(0.3, 1), high_grid,
                                shots, seed=5)
        assert data[0].shots == shots and np.all(data[0].off_counts <= shots)


class TestBinomialInverse:
    """The vectorised CDF inversion against scipy.stats.binom.ppf, cell for cell."""

    @pytest.mark.parametrize("n", [1, 7, 30000, 10**8, 10**10, 10**12])
    def test_matches_scipy_ppf(self, n):
        from scipy import stats

        rng = np.random.default_rng(n)
        u = rng.random(4000)
        edge = 10 ** rng.uniform(-15, 0, 2000)
        p = np.concatenate([rng.random(2000), edge[:1000], 1.0 - edge[1000:]])
        want = np.clip(stats.binom.ppf(u, n, p), 0, n).astype(np.int64)
        assert np.array_equal(_binomial_inverse(u, n, p), want)

    @pytest.mark.parametrize("n", [1, 2, 7, 1000, 30000, 120000, _WINDOW_MAX_TRIALS])
    def test_window_matches_betainc(self, n):
        # the numpy window settles nearly every cell, and every count it
        # settles is the betainc inversion's
        rng = np.random.default_rng(n + 1)
        u = rng.random(2000)
        p = np.concatenate([rng.random(1700), np.repeat([1e-15, 1 - 1e-15, 1e-300], 100)])
        assert _window_inverse(u, n, p)[1].mean() > 0.99
        assert np.array_equal(_binomial_inverse(u, n, p), _betainc_inverse(u, n, p))

    def test_window_error_is_far_below_the_margin(self):
        # _CDF_EPS is at least 30 times the window CDF's rounding bound at
        # its widest (12 * width * 2^-53 at n = _WINDOW_MAX_TRIALS, p = 1/2),
        # its measured distance from betainc there and its tail bounds
        from scipy.special import betainc

        n = _WINDOW_MAX_TRIALS
        width = _window_cdf(n, np.array([0.5]))[1].shape[1]
        assert 30 * 12 * width * 2.0**-53 <= _CDF_EPS
        rng = np.random.default_rng(0)
        edge = 10 ** rng.uniform(-15, 0, 128)
        worst = 0.0
        for p in np.split(np.concatenate([rng.random(384), edge[:64], 1 - edge[64:]]), 8):
            lo, F, below, above = _window_cdf(n, p)
            assert F.shape[1] <= width
            j = rng.integers(0, F.shape[1], size=(p.size, 16))
            k = lo[:, None] + j
            kk = np.minimum(k, n - 1)
            want = np.where(k >= n, 1.0, betainc(n - kk, kk + 1, (1.0 - p)[:, None]))
            worst = max(worst, np.abs(np.take_along_axis(F, j, axis=1) - want).max())
            assert 30 * max(below.max(), above.max()) <= _CDF_EPS
        assert 30 * worst <= _CDF_EPS

    def test_u_within_margin_of_a_step_falls_back(self):
        from scipy.special import betainc

        n, k = 30000, 9000
        p = np.full(7, 0.3)
        step = betainc(n - k, k + 1, 1.0 - 0.3)  # CDF(k)
        u = step + np.array([-10.0, -0.5, -0.1, 0.0, 0.1, 0.5, 10.0]) * _CDF_EPS
        certified = _window_inverse(u, n, p)[1]
        assert certified.tolist() == [True] + [False] * 5 + [True]
        counts = _binomial_inverse(u, n, p)
        assert counts.tolist() == [k] * 4 + [k + 1] * 3
        assert np.array_equal(counts, _betainc_inverse(u, n, p))

    @pytest.mark.parametrize("n", [10**7, 10**9, 10**12])
    def test_edgeworth_matches_betainc(self, n):
        # above the window the Edgeworth CDF settles nearly every cell with
        # n p q >= 10^6 and no other, and every count it settles is the
        # betainc inversion's
        rng = np.random.default_rng(n + 1)
        u = rng.random(3000)
        edge = 10 ** rng.uniform(-15, 0, 1000)
        p = np.concatenate([rng.random(2000), edge[:500], 1.0 - edge[500:]])
        q = 1.0 - p
        eligible = n * (1.0 - q) * q >= _EDGEWORTH_MIN_VAR
        counts, certified = _edgeworth_inverse(u, n, p)
        assert not certified[~eligible].any() and certified[eligible].mean() > 0.99
        want = _betainc_inverse(u, n, p)
        assert np.array_equal(counts[certified], want[certified])
        assert np.array_equal(_binomial_inverse(u, n, p), want)

    def test_edgeworth_error_is_far_below_the_margin(self):
        # _CDF_EPS is at least 20 times betainc's distance from the Edgeworth
        # CDF at 10^12 trials, where that distance is largest, on counts to
        # +-8 sd and p within 10^-4 of 0 or 1 as well as uniform
        from scipy.special import betainc

        n = 10**12
        rng = np.random.default_rng(0)
        edge = 10 ** rng.uniform(-6, -4, 2000)
        p = np.concatenate([rng.random(8000), edge[:1000], 1.0 - edge[1000:]])
        p = p[n * p * (1.0 - p) >= _EDGEWORTH_MIN_VAR]
        assert p.size > 9900
        c = np.floor(n * p + rng.uniform(-8, 8, p.size) * np.sqrt(n * p * (1.0 - p)))
        want = betainc(n - c, c + 1, 1.0 - p)
        assert 20 * np.abs(_edgeworth_cdf(c, n, p) - want).max() <= _CDF_EPS

    def test_u_within_margin_of_a_step_falls_back_above_the_window(self):
        from scipy.special import betainc

        n, k = 10**12, 3 * 10**11 + 10**5
        p = np.full(7, 0.3)
        step = betainc(n - k, k + 1, 1.0 - 0.3)  # CDF(k)
        u = step + np.array([-10.0, -0.5, -0.1, 0.0, 0.1, 0.5, 10.0]) * _CDF_EPS
        certified = _edgeworth_inverse(u, n, p)[1]
        assert certified.tolist() == [True] + [False] * 5 + [True]
        counts = _binomial_inverse(u, n, p)
        assert counts.tolist() == [k] * 4 + [k + 1] * 3
        assert np.array_equal(counts, _betainc_inverse(u, n, p))

    def test_edges(self):
        u = np.array([0.0, 0.3, 0.999, 0.0, 0.7, 0.0, 0.5])
        p = np.array([0.0, 0.0, 1.0, 1.0, 0.4, 0.4, 1e-300])
        assert _binomial_inverse(u, 50, p).tolist() == [0, 0, 50, 50, 22, 0, 0]

    def test_non_finite_cdf_raises(self):
        with pytest.raises(IllConditionedError):
            _binomial_inverse(np.array([0.5, 0.5]), 100, np.array([0.3, np.nan]))
