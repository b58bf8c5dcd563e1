"""Wigner parity sums and phase-Fourier density-matrix inversion."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onofftomo import (
    AliasingError,
    EMConfig,
    IllConditionedError,
    ModulationSpec,
    PhotonDistribution,
    RankDeficiencyError,
    TruncationError,
    build_kernel,
    default_truncation,
    displaced_photon_distribution,
    make_coherent,
    make_fock,
    make_phase_averaged_coherent,
    make_thermal,
    parity_wigner_point,
    phase_fourier,
    reconstruct_density_matrix,
    reconstruct_pn_batch,
    simulate_dataset,
    uniform_grid,
    wigner_map_exact,
    wigner_map_from_data,
)
from onofftomo.detector import uniform_phases
from onofftomo.inversion import check_dm_input
from conftest import (
    geometric_pmf,
    wigner_phase_averaged,
    wigner_thermal,
    wigner_vacuum,
)


def uniform_dists(rho, amp, n_phi, n_max, tail_tol=1e-6):
    return [
        displaced_photon_distribution(
            rho, amp * cmath.exp(2j * math.pi * l / n_phi), n_max, tail_tol=tail_tol
        )
        for l in range(n_phi)
    ]


class TestParityPoint:
    def test_vacuum(self):
        assert parity_wigner_point(make_fock(0, 0).diagonal_distribution()) == 1.0

    def test_thermal_origin(self):
        dist = make_thermal(2.4, 100, tail_tol=1e-8).diagonal_distribution()
        assert parity_wigner_point(dist, tail_bound=1e-6) == pytest.approx(
            1 / (1 + 2 * 2.4), abs=1e-8
        )
        assert parity_wigner_point(dist, tail_bound=1e-6) == pytest.approx(0.172414, abs=1e-6)

    def test_phase_averaged_origin(self):
        dist = make_phase_averaged_coherent(2.1, 40).diagonal_distribution()
        assert parity_wigner_point(dist) == pytest.approx(math.exp(-8.82), abs=1e-9)

    def test_tail_violation_raises(self):
        fat = PhotonDistribution(geometric_pmf(3.0, 6))
        with pytest.raises(TruncationError):
            parity_wigner_point(fat)

    @given(
        weights=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=30)
    )
    @settings(max_examples=40, deadline=None)
    def test_parity_bound(self, weights):
        total = sum(weights)
        if total <= 0:
            return
        dist = PhotonDistribution(np.array(weights) / total)
        value = parity_wigner_point(dist, tail_bound=1.1)
        assert abs(value) <= 1 + 1e-6


class TestWignerMaps:
    radii = np.linspace(0.0, 3.0, 13)

    def test_vacuum_profile(self):
        wmap = wigner_map_exact(make_fock(0, 0), self.radii)
        ref = np.array([wigner_vacuum(r) for r in self.radii])
        assert np.abs(wmap.values() - ref).max() < 1e-6
        assert wmap.points[0].value == pytest.approx(1.0, abs=1e-12)
        assert wmap.values()[4] == pytest.approx(math.exp(-2.0), abs=1e-9)  # r = 1

    def test_thermal_profile(self):
        rho = make_thermal(2.4, 80, tail_tol=1e-8)
        wmap = wigner_map_exact(rho, self.radii, tail_tol=1e-7)
        ref = np.array([wigner_thermal(r, 2.4) for r in self.radii])
        assert np.abs(wmap.values() - ref).max() < 1e-6

    def test_thermal_closed_form_against_high_truncation_oracle(self):
        # oracle: exact-mode parity sum at nbar = 200
        rho = make_thermal(2.4, 200, tail_tol=1e-12)
        for r in (0.0, 1.0, 2.5):
            dist = displaced_photon_distribution(rho, r, 260, tail_tol=1e-9)
            signs = (-1.0) ** np.arange(dist.probs.size)
            assert float(signs @ dist.probs) == pytest.approx(wigner_thermal(r, 2.4), abs=1e-9)

    def test_phase_averaged_profile_and_ring(self):
        z = 2.1
        rho = make_phase_averaged_coherent(z, 40, tail_tol=1e-8)
        wmap = wigner_map_exact(rho, self.radii, tail_tol=1e-7)
        ref = np.array([wigner_phase_averaged(r, z) for r in self.radii])
        assert np.abs(wmap.values() - ref).max() < 1e-6
        fine = np.linspace(1.5, 2.7, 121)
        vals = wigner_map_exact(rho, fine, tail_tol=1e-7).values()
        assert abs(fine[np.argmax(vals)] - z) <= 0.1

    def test_data_mode_lookup_and_missing(self):
        # one point per (alpha, distribution) pair, in order, even when pairs
        # share an alpha; no pairs give no points
        vac = make_fock(0, 0).diagonal_distribution()
        one = make_fock(1, 1).diagonal_distribution()
        wmap = wigner_map_from_data([(0j, vac), (1 + 0j, vac), (0j, one)])
        assert [pt.alpha for pt in wmap.points] == [0j, 1 + 0j, 0j]
        assert wmap.values().tolist() == [1.0, 1.0, -1.0]
        assert wigner_map_from_data([]).points == ()

    def test_data_mode_flags_fat_tails(self):
        fat = PhotonDistribution(geometric_pmf(3.0, 6))
        wmap = wigner_map_from_data([(0j, fat)])
        assert wmap.points[0].flagged


class TestPhaseFourier:
    def test_s_zero_is_plain_average(self):
        rho = make_coherent(1.2, 30)
        dists = uniform_dists(rho, 0.3, 8, 25)
        out = phase_fourier(dists, 0)
        ref = np.mean([d.probs for d in dists], axis=0)
        assert np.abs(out - ref).max() < 1e-15

    def test_phase_symmetric_state_has_no_harmonics(self):
        rho = make_thermal(1.4, 60)
        dists = uniform_dists(rho, 1.0, 12, 30, tail_tol=1e-4)
        for s in (1, 2, 3):
            assert np.abs(phase_fourier(dists, s)).max() < 1e-12

    def test_forward_model_consistency(self):
        # p-tilde^(1) of a coherent state equals G^(1) applied to the true subdiagonal
        z, amp, n_phi, n_max = 1.2, 0.9, 12, 30
        rho = make_coherent(z, 40)
        dists = uniform_dists(rho, amp, n_phi, n_max, tail_tol=1e-5)
        ptilde = phase_fourier(dists, 1)
        kern = build_kernel(1, amp, n_max, 12)
        sub = np.array([rho.entries[m + 1, m] for m in range(13)])
        assert np.abs(kern.forward @ sub - ptilde).max() < 1e-5

    def test_aliasing_guard(self):
        dists = [make_fock(0, 4).diagonal_distribution()] * 4
        with pytest.raises(AliasingError):
            phase_fourier(dists, 2)

    def test_length_mismatch(self):
        a = make_fock(0, 4).diagonal_distribution()
        b = make_fock(0, 5).diagonal_distribution()
        with pytest.raises(ValueError):
            phase_fourier([a, b], 0)


class TestKernel:
    def test_zero_amp_s0_is_identity(self):
        kern = build_kernel(0, 0.0, 12, 8)
        assert np.abs(kern.forward - np.eye(13)[:, :9]).max() == 0.0

    def test_pseudo_inverse_identity(self):
        kern = build_kernel(1, 1.0, 30, 8)
        assert np.abs(kern.inverse @ kern.forward - np.eye(9)).max() < 1e-8

    def test_zero_amp_rejects_off_diagonals(self):
        with pytest.raises(ValueError):
            build_kernel(1, 0.0, 10, 5)

    def test_real_amplitude_with_rounding_residue(self):
        # displacement_matrix(12.0, 260) carries ~1e-14 imaginary rounding
        # residue; a real amp still builds its kernel
        kern = build_kernel(0, 12.0, 259, 5)
        assert kern.forward.shape == (260, 6) and np.isfinite(kern.condition)

    def test_complex_amplitude_rejected(self):
        with pytest.raises(ValueError, match="real amplitude"):
            build_kernel(1, np.complex128(0.5 + 0.1j), 10, 3)

    def test_dimension_precondition(self):
        with pytest.raises(ValueError):
            build_kernel(2, 0.5, 8, 8)

    def test_rank_deficiency_names_safe_m(self):
        with pytest.raises(RankDeficiencyError) as err:
            build_kernel(0, 1.0, 20, 15, svd_cutoff=0.5)
        assert 0 <= err.value.largest_safe_m < 15

    @pytest.mark.parametrize("amp, n_max, s, m", [
        (4.0, 40, 0, 37), (4.0, 40, 1, 37), (6.0, 12, 0, 3), (6.0, 12, 1, 3), (6.0, 12, 2, 4),
    ])
    def test_automatic_range_shrinks_to_widest_supported_m(self, amp, n_max, s, m):
        auto = build_kernel(s, amp, n_max)
        assert auto.m_max == m < n_max - s
        explicit = build_kernel(s, amp, n_max, m)
        for field in ("forward", "inverse", "singular_values"):
            assert getattr(auto, field).tobytes() == getattr(explicit, field).tobytes()
        assert auto.condition == explicit.condition
        with pytest.raises(RankDeficiencyError):
            build_kernel(s, amp, n_max, m + 1)

    def test_svd_failure_is_ill_conditioned(self, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        with pytest.raises(IllConditionedError, match="did not converge"):
            build_kernel(1, 0.5, 10)

    def test_coherent_round_trip_subdiagonal(self):
        # forward-model p-tilde^(1) then invert: analytic coherent elements
        z, amp = 1.8, 0.1
        rho = make_coherent(z, 40)
        dists = uniform_dists(rho, amp, 12, 30)
        ptilde = phase_fourier(dists, 1)
        kern = build_kernel(1, amp, 30, 20)
        coeffs = kern.apply(ptilde)
        ref0 = math.exp(-z * z) * z
        assert abs(coeffs[0] - ref0) < 1e-6
        assert coeffs[0].real == pytest.approx(0.0705, abs=1e-3)
        for m in range(8):
            ref = math.exp(-z * z) * z ** (2 * m + 1) / math.sqrt(
                math.factorial(m) * math.factorial(m + 1)
            )
            assert abs(coeffs[m] - ref) < 1e-6


class TestDensityMatrix:
    def test_thermal_noiseless(self):
        n_th, amp = 1.4, math.sqrt(1.77)
        rho = make_thermal(n_th, 60)
        dists = uniform_dists(rho, amp, 12, 32, tail_tol=1e-5)
        res = reconstruct_density_matrix(dists, amp, s_max=1)
        for m in range(8):
            assert abs(res.element(m, m) - n_th**m / (1 + n_th) ** (m + 1)) < 1e-6
            assert abs(res.element(m + 1, m)) < 1e-8

    def test_coherent_noiseless_master_regression(self):
        z, amp = 1.8, 0.1
        rho = make_coherent(z, 40)
        dists = uniform_dists(rho, amp, 12, 30)
        res = reconstruct_density_matrix(dists, amp, s_max=1)
        for m in range(8):
            diag = math.exp(-z * z) * z ** (2 * m) / math.factorial(m)
            sub = math.exp(-z * z) * z ** (2 * m + 1) / math.sqrt(
                math.factorial(m) * math.factorial(m + 1)
            )
            assert abs(res.element(m, m) - diag) < 1e-6
            assert abs(res.element(m + 1, m) - sub) < 1e-6
        # diagonal reconstructed through s = 0 stays real
        assert max(abs(res.element(m, m).imag) for m in range(8)) < 1e-8

    def test_vacuum_input(self):
        rho = make_fock(0, 20)
        dists = uniform_dists(rho, 0.1, 12, 20)
        res = reconstruct_density_matrix(dists, 0.1, s_max=1, m_max=7)
        assert abs(res.element(0, 0) - 1) < 1e-8
        others = [abs(v) for (n, m), v in res.items() if (n, m) != (0, 0)]
        assert max(others) < 1e-8

    def test_hermitian_by_construction(self):
        rho = make_coherent(1.1, 30)
        dists = uniform_dists(rho, 0.4, 10, 25)
        res = reconstruct_density_matrix(dists, 0.4, s_max=2, m_max=6)
        for (n, m), v in res.items():
            assert res.element(m, n) == pytest.approx(np.conj(v), abs=0)

    def test_nyquist_guard(self):
        rho = make_coherent(0.8, 25)
        dists = uniform_dists(rho, 0.3, 2, 20)
        with pytest.raises(AliasingError):
            reconstruct_density_matrix(dists, 0.3, s_max=1, m_max=5)

    def test_residual_flagging(self):
        # a distribution inconsistent with the kernel model is marked unreliable
        rho = make_thermal(1.0, 40)
        dists = uniform_dists(rho, 0.9, 8, 25, tail_tol=1e-4)
        broken = [PhotonDistribution(np.roll(d.probs, 3)) for d in dists]
        res = reconstruct_density_matrix(broken, 0.9, s_max=0, m_max=10, residual_bound=1e-4)
        assert not res.fit(0).reliable

    @pytest.mark.parametrize("rho, amp", [
        (make_coherent(1.8, 40), 0.1),
        (make_thermal(1.4, 60), 1.33),
        (make_fock(2, 2), 1.0),
    ], ids=["coherent", "thermal", "fock2"])
    def test_automatic_range_leaves_s0_no_residual(self, rho, amp):
        # the automatic m range makes the s = 0 kernel square, so its residual
        # is zero by construction and reliable cannot turn false at s = 0
        data = simulate_dataset(rho, ModulationSpec.uniform(amp, 12), uniform_grid(0.67, 25),
                                30000, seed=1)
        n_max = max(default_truncation(ds) for ds in data)
        results = reconstruct_pn_batch(data, EMConfig(max_iter=300, accelerate=False),
                                       n_max=[n_max] * len(data))
        res = reconstruct_density_matrix([r.distribution for r in results], amp, s_max=1)
        fit = res.fit(0)
        assert fit.kernel.m_max == n_max
        assert fit.residual <= 1e-12 and fit.reliable

    def test_element_outside_range(self):
        rho = make_coherent(0.9, 25)
        dists = uniform_dists(rho, 0.3, 8, 20)
        res = reconstruct_density_matrix(dists, 0.3, s_max=1, m_max=4)
        with pytest.raises(KeyError):
            res.element(9, 8)
        with pytest.raises(KeyError):
            res.element(8, 4)

    def test_to_matrix_marks_uncovered(self):
        rho = make_coherent(0.9, 25)
        dists = uniform_dists(rho, 0.3, 8, 20)
        res = reconstruct_density_matrix(dists, 0.3, s_max=1, m_max=4)
        mat = res.to_matrix()
        assert not np.isnan(mat[0, 0])
        assert not np.isnan(mat[1, 0]) and not np.isnan(mat[0, 1])
        assert np.isnan(mat[5, 0])


class TestUniformPhases:
    def test_accepts_uniform(self):
        phases = [2 * math.pi * l / 12 for l in range(12)]
        assert np.allclose(uniform_phases(12), phases, rtol=0, atol=1e-15)
        check_dm_input(0.5, 2, None, 20, phases)

    def test_rejects_non_uniform(self):
        with pytest.raises(ValueError, match="uniform phase grid"):
            check_dm_input(0.5, 0, None, 20, [0.0, 1.0, 2.0])
