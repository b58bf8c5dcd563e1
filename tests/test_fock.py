"""Fock-space numerics: displacement elements, displaced distributions, factories."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onofftomo import (
    FockDensityMatrix,
    PhotonDistribution,
    TruncationError,
    displaced_photon_distribution,
    displacement_element,
    displacement_matrix,
    make_coherent,
    make_fock,
    make_phase_averaged_coherent,
    make_thermal,
)
from conftest import poisson_pmf


class TestDisplacementElement:
    def test_zero_displacement_is_identity(self):
        assert displacement_element(3, 3, 0) == 1.0
        assert displacement_element(2, 5, 0) == 0.0
        assert displacement_element(5, 2, 0.0 + 0.0j) == 0.0

    def test_vacuum_overlap(self):
        for a in (0.3, 1.3, 2.0 - 1.0j):
            assert displacement_element(0, 0, a) == pytest.approx(
                math.exp(-abs(a) ** 2 / 2), abs=1e-15
            )

    def test_coherent_expansion_column(self):
        a = 0.7 + 0.2j
        for n in range(8):
            ref = a**n * cmath.exp(-abs(a) ** 2 / 2) / math.sqrt(math.factorial(n))
            assert displacement_element(n, 0, a) == pytest.approx(ref, abs=1e-14)

    def test_column_unitarity_oracle(self):
        # direct summation at nbar = 200 as the oracle
        for a in (0.5, 1.7, 3.0):
            for m in (0, 3, 10):
                total = sum(abs(displacement_element(n, m, a)) ** 2 for n in range(201))
                assert total == pytest.approx(1.0, abs=1e-10)

    def test_rejects_negative_indices(self):
        with pytest.raises(ValueError):
            displacement_element(-1, 0, 0.5)


class TestDisplacementMatrix:
    def test_matches_scalar_elements(self):
        a = 0.9 - 0.4j
        mat = displacement_matrix(a, 25)
        for n in (0, 3, 11, 24):
            for m in (0, 7, 16, 24):
                assert mat[n, m] == pytest.approx(displacement_element(n, m, a), abs=1e-13)

    def test_matches_scalar_at_large_dimension(self):
        # the regime where naive recurrences lose all accuracy
        a = 3.5
        mat = displacement_matrix(a, 154)
        for n, m in [(80, 80), (60, 62), (0, 80), (120, 40), (150, 150)]:
            assert mat[n, m] == pytest.approx(displacement_element(n, m, a), abs=1e-12)

    def test_zero_is_identity(self):
        assert np.array_equal(displacement_matrix(0.0, 9), np.eye(9))

    def test_unitary_well_inside_truncation(self):
        mat = displacement_matrix(1.2 + 0.7j, 60)
        gram = mat @ mat.conj().T
        assert np.abs(gram[:25, :25] - np.eye(25)).max() < 1e-12

    @pytest.mark.parametrize("a", [0.4 + 0.3j, -1.1 + 1.7j, 3.0 * cmath.exp(2.2j)])
    def test_leading_block_independent_of_dimension(self, a):
        # every element has its own recurrence, so a displaced distribution
        # needs no working space beyond the rows it returns
        assert np.array_equal(displacement_matrix(a, 30), displacement_matrix(a, 120)[:30, :30])

    @pytest.mark.parametrize("a", [0.7, -1.3, 0.5j, -2j, 0.4 + 0.9j, 3.0 * cmath.exp(2.2j),
                                   5.5 - 4j, -6.0 + 0.1j])
    @pytest.mark.parametrize("dim", [1, 2, 40, 236, 260])
    def test_adjoint_is_negated_displacement_exactly(self, a, dim):
        # D(-a) = D(a)^dagger bit for bit, underflowed entries and signed
        # zeros included; on the real diagonal only the zero imaginary
        # part's sign flips under conjugation
        neg, adj = displacement_matrix(-a, dim), displacement_matrix(a, dim).conj().T
        off = ~np.eye(dim, dtype=bool)
        assert neg[off].tobytes() == adj[off].tobytes()
        assert neg.diagonal().real.tobytes() == adj.diagonal().real.tobytes()
        assert not neg.diagonal().imag.any() and not adj.diagonal().imag.any()


class TestDisplacedDistribution:
    def test_zero_displacement_returns_diagonal(self):
        rho = make_thermal(1.2, 40)
        dist = displaced_photon_distribution(rho, 0.0, 30, tail_tol=1e-4)
        assert np.allclose(dist.probs, rho.entries.diagonal().real[:31])

    def test_displaced_vacuum_is_poisson(self):
        vac = make_fock(0, 0)
        for a in (0.5, 1.5j, -2.0):
            dist = displaced_photon_distribution(vac, a, 40)
            assert np.abs(dist.probs - poisson_pmf(abs(a) ** 2, 40)).max() < 1e-14

    def test_displaced_coherent_is_shifted_poisson(self):
        # oracle: overlap |<n|z + a>|^2 for real z, a
        z, a = 1.8, 0.4
        rho = make_coherent(z, 40)
        dist = displaced_photon_distribution(rho, a, 40)
        assert np.abs(dist.probs - poisson_pmf((z + a) ** 2, 40)).max() < 1e-13

    def test_truncation_too_small_raises(self):
        rho = make_coherent(2.0, 50)
        with pytest.raises(TruncationError):
            displaced_photon_distribution(rho, 2.0, 4)

    def test_non_psd_state_rejected(self):
        # Hermitian with eigenvalue -0.1: no truncation makes its displaced
        # diagonal non-negative, so this is a ValueError, not a TruncationError
        rho = FockDensityMatrix(np.array([[0.5, 0.6], [0.6, 0.5]]))
        with pytest.raises(ValueError, match="not positive semidefinite") as err:
            displaced_photon_distribution(rho, 1.0, 10)
        assert not isinstance(err.value, TruncationError)

    def test_round_trip_forward_and_back(self):
        # displacing by alpha then -alpha at padded dimension restores rho
        rho = make_thermal(1.4, 20, tail_tol=1e-2)
        for a in (0.6, 1.1 + 0.9j, 2.0):
            pad = 21 + 80
            fwd = displacement_matrix(a, pad)
            back = displacement_matrix(-a, pad)
            emb = np.zeros((pad, pad), dtype=complex)
            emb[:21, :21] = rho.entries
            out = back @ (fwd @ emb @ fwd.conj().T) @ back.conj().T
            assert np.abs(out[:21, :21] - rho.entries).max() < 1e-8

    def test_displaced_mean_identity(self):
        # mean(p_alpha) = mean(rho) + 2 Re(conj(alpha) <a>) + |alpha|^2
        a = 0.8 + 0.3j
        for rho in (make_coherent(1.2, 40), make_thermal(1.1, 60)):
            dist = displaced_photon_distribution(rho, a, 70, tail_tol=1e-8)
            expect = (
                rho.mean_photon
                + 2.0 * (np.conj(a) * rho.field_expectation).real
                + abs(a) ** 2
            )
            assert dist.mean == pytest.approx(expect, abs=1e-6)


class TestFactories:
    def test_coherent_zero_is_vacuum(self):
        rho = make_coherent(0.0, 5)
        assert rho.entries[0, 0] == 1.0
        assert np.abs(rho.entries).sum() == 1.0

    def test_coherent_ground_population(self):
        rho = make_coherent(1.8, 40)
        assert rho.entries[0, 0].real == pytest.approx(math.exp(-3.24), rel=1e-12)

    def test_coherent_trace_tail_bound(self):
        # Poisson tail bound: nbar >= |z|^2 + 6 sqrt(|z|^2) + 10 keeps the trace
        for z in (0.7, 1.8, 2.5):
            n_max = math.ceil(z * z + 6 * z + 10)
            rho = make_coherent(z, n_max)
            assert rho.trace >= 1 - 1e-6

    def test_coherent_truncation_error(self):
        with pytest.raises(TruncationError):
            make_coherent(2.5, 4)

    def test_thermal_values(self):
        rho = make_thermal(2.4, 60)
        assert rho.entries[0, 0].real == pytest.approx(1 / 3.4, rel=1e-12)
        assert rho.entries[1, 0] == 0
        assert rho.mean_photon == pytest.approx(2.4, abs=1e-6)

    def test_thermal_zero_is_vacuum(self):
        rho = make_thermal(0.0, 4)
        assert rho.entries[0, 0] == 1.0

    def test_phase_averaged_matches_quadrature_oracle(self):
        # oracle: numerical phase integral of |<n|z e^{i theta}>|^2
        z = 2.1
        rho = make_phase_averaged_coherent(z, 30)
        thetas = np.linspace(0, 2 * math.pi, 4096, endpoint=False)
        for n in (0, 2, 5, 9):
            overlap = np.exp(-z * z) * z ** (2 * n) / math.factorial(n)
            quad = np.mean(np.full_like(thetas, overlap))  # |<n|z e^{i t}>|^2 is t-independent
            assert rho.entries[n, n].real == pytest.approx(quad, rel=1e-12)
        off = rho.entries - np.diag(rho.entries.diagonal())
        assert np.abs(off).max() == 0.0

    def test_phase_averaged_diagonal_is_poisson(self):
        rho = make_phase_averaged_coherent(2.1, 40)
        assert np.abs(rho.entries.diagonal().real - poisson_pmf(4.41, 40)).max() < 1e-15

    def test_phase_averaged_zero_is_vacuum(self):
        rho = make_phase_averaged_coherent(0.0, 4)
        assert rho.entries[0, 0] == 1.0
        assert np.abs(rho.entries).sum() == 1.0

    def test_fock_projector(self):
        rho = make_fock(2, 6)
        assert rho.entries[2, 2] == 1.0
        assert np.abs(rho.entries).sum() == 1.0

    def test_fock_parity(self):
        dist = make_fock(2, 6).diagonal_distribution()
        signs = (-1.0) ** np.arange(7)
        assert float(signs @ dist.probs) == 1.0

    def test_fock_needs_room(self):
        with pytest.raises(ValueError):
            make_fock(5, 3)


class TestValueObjects:
    def test_distribution_rejects_negative(self):
        with pytest.raises(ValueError):
            PhotonDistribution(np.array([0.5, -0.1, 0.6]))

    def test_distribution_clips_roundoff(self):
        dist = PhotonDistribution(np.array([1.0, -1e-13]))
        assert dist.probs[1] == 0.0

    def test_distribution_rejects_supranormalized(self):
        with pytest.raises(ValueError):
            PhotonDistribution(np.array([0.7, 0.4]))

    def test_density_matrix_requires_hermitian(self):
        m = np.zeros((2, 2), dtype=complex)
        m[0, 1] = 1j
        m[0, 0] = 1.0
        with pytest.raises(ValueError):
            FockDensityMatrix(m)

    def test_immutability(self):
        rho = make_thermal(1.0, 10, tail_tol=1e-2)
        with pytest.raises(ValueError):
            rho.entries[0, 0] = 0.5

    @given(z=st.floats(min_value=0.0, max_value=2.2), phase=st.floats(min_value=0, max_value=2 * math.pi))
    @settings(max_examples=25, deadline=None)
    def test_coherent_factory_invariants(self, z, phase):
        amp = z * cmath.exp(1j * phase)
        rho = make_coherent(amp, 40)
        assert np.array_equal(rho.entries, rho.entries.conj().T)
        assert np.all(rho.entries.diagonal().real >= 0)
        assert 1 - 1e-6 <= rho.trace <= 1 + 1e-12

    @given(n_th=st.floats(min_value=0.0, max_value=3.0))
    @settings(max_examples=25, deadline=None)
    def test_thermal_factory_invariants(self, n_th):
        rho = make_thermal(n_th, 150)
        assert np.array_equal(rho.entries, rho.entries.conj().T)
        assert 1 - 1e-6 <= rho.trace <= 1 + 1e-12

    def test_displaced_sum_within_tail(self):
        rho = make_phase_averaged_coherent(1.3, 30)
        dist = displaced_photon_distribution(rho, 1.0, 40)
        assert dist.probs.sum() >= 1 - 1e-6
        assert dist.tail <= 1e-6
