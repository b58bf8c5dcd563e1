"""Fock-space numerics: displacement matrices, displaced distributions, factories."""

import cmath
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onofftomo import (
    FockDensityMatrix,
    PhotonDistribution,
    TruncationError,
    displaced_photon_distribution,
    displacement_matrix,
    make_coherent,
    make_fock,
    make_phase_averaged_coherent,
    make_thermal,
)
from onofftomo import fock
from onofftomo.cli import build_state
from onofftomo.detector import uniform_phases
from conftest import displacement_reference, poisson_pmf


class TestDisplacementElement:
    def test_zero_displacement_is_identity(self):
        assert displacement_matrix(0, 6)[3, 3] == 1.0
        assert displacement_matrix(0, 6)[2, 5] == 0.0
        assert displacement_matrix(0.0 + 0.0j, 6)[5, 2] == 0.0

    def test_vacuum_overlap(self):
        for a in (0.3, 1.3, 2.0 - 1.0j):
            assert displacement_matrix(a, 1)[0, 0] == pytest.approx(
                math.exp(-abs(a) ** 2 / 2), abs=1e-15
            )

    def test_coherent_expansion_column(self):
        a = 0.7 + 0.2j
        column = displacement_matrix(a, 8)[:, 0]
        for n in range(8):
            ref = a**n * cmath.exp(-abs(a) ** 2 / 2) / math.sqrt(math.factorial(n))
            assert column[n] == pytest.approx(ref, abs=1e-14)

    def test_column_unitarity_oracle(self):
        # direct summation at nbar = 200 as the oracle
        for a in (0.5, 1.7, 3.0):
            mat = displacement_matrix(a, 201)
            for m in (0, 3, 10):
                total = sum(abs(mat[n, m]) ** 2 for n in range(201))
                assert total == pytest.approx(1.0, abs=1e-10)

    def test_rejects_negative_indices(self):
        # a truncation of zero rows holds no index at all
        with pytest.raises(ValueError):
            displacement_matrix(0.5, 0)


class TestDisplacementMatrix:
    def test_matches_scalar_elements(self):
        a = 0.9 - 0.4j
        mat = displacement_matrix(a, 25)
        for n in (0, 3, 11, 24):
            for m in (0, 7, 16, 24):
                assert mat[n, m] == pytest.approx(displacement_reference(n, m, a), abs=1e-13)

    def test_matches_scalar_at_large_dimension(self):
        # the regime where naive recurrences lose all accuracy
        a = 3.5
        mat = displacement_matrix(a, 154)
        for n, m in [(80, 80), (60, 62), (0, 80), (120, 40), (150, 150)]:
            assert mat[n, m] == pytest.approx(displacement_reference(n, m, a), abs=1e-12)

    @pytest.mark.parametrize("a, dim, entries", [
        # at dim 450 the recurrence of the widest offsets passes the rescale
        # threshold; (1000, 550) at |alpha| 8 is a rescaled element of order 1e-2
        (1.0, 450, [(449, 449), (225, 224), (300, 200), (100, 90), (0, 449)]),
        (8.0, 1001, [(1000, 550), (990, 540), (950, 500), (450, 1000)]),
    ])
    def test_rescaled_recurrence_matches_scalar_elements(self, a, dim, entries):
        mat = displacement_matrix(a, dim)
        for n, m in entries:
            assert mat[n, m] == pytest.approx(displacement_reference(n, m, a), rel=1e-12, abs=1e-300)
        assert max(abs(mat[n, m]) for n, m in entries) > 1e-3
        gram = mat @ mat.conj().T
        lead = dim // 3
        assert np.abs(gram[:lead, :lead] - np.eye(lead)).max() < 1e-12

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


# the oracle's displacements: amplitudes 1, 2 and 3 at 16 uniform phases
ORACLE_ALPHAS = [amp * cmath.exp(1j * phase)
                 for amp in (1.0, 2.0, 3.0) for phase in uniform_phases(16)]


def reference_displacement_matrix(alpha, dim):
    """D(alpha) column by column: the same recurrence and arithmetic as
    ``displacement_matrix``, with each column's logs, exps and phase
    products evaluated in a loop and nothing cached."""
    a = complex(alpha)
    abs_a, x = abs(a), abs(a) ** 2
    d = np.arange(dim, dtype=float)
    lgfact = np.array([math.lgamma(i + 1.0) for i in range(dim + 1)])
    unit, unit_back = (a / abs_a) ** np.arange(dim), (-a / abs_a) ** np.arange(dim)
    out = np.zeros((dim, dim), dtype=complex)
    prev, cur, scale = np.ones(dim), 1.0 + d - x, np.zeros(dim)
    for m in range(dim):
        if m >= 2:
            k = m - 1
            prev, cur = cur, ((2 * k + 1 + d - x) * cur - (k + d) * prev) / (k + 1)
            big = np.maximum(np.abs(prev), np.abs(cur))
            high, low = big > fock._RESCALE, (big > 0) & (big < 1.0 / fock._RESCALE)
            prev[high] /= fock._RESCALE
            cur[high] /= fock._RESCALE
            scale[high] += fock._LOG_RESCALE
            prev[low] *= fock._RESCALE
            cur[low] *= fock._RESCALE
            scale[low] -= fock._LOG_RESCALE
        mant, dv = (prev if m == 0 else cur), slice(0, dim - m)
        with np.errstate(divide="ignore", over="ignore", under="ignore"):
            logmag = (0.5 * (lgfact[m] - lgfact[m:dim]) + d[dv] * math.log(abs_a) - 0.5 * x
                      + scale[dv] + np.log(np.abs(mant[dv])))
            vals = np.sign(mant[dv]) * np.exp(logmag)
        out[m:, m] = vals * unit[dv]
        out[m, m + 1:] = np.conj(vals * unit_back[dv])[1:]
    return out


class TestMagnitudeCache:
    """Magnitudes cached per exact |alpha| give the bits of a fresh recurrence."""

    @pytest.fixture(autouse=True)
    def empty_cache(self, monkeypatch):
        monkeypatch.setattr(fock, "_MAGNITUDES", {})

    @staticmethod
    def fresh(a, dim):
        fock._MAGNITUDES.clear()
        return displacement_matrix(a, dim)

    @pytest.mark.parametrize("dim", [37, 38, 51, 53, 91])
    def test_oracle_alphas_from_cache(self, dim):
        cached = [displacement_matrix(a, dim) for a in ORACLE_ALPHAS]
        assert len(fock._MAGNITUDES) == 4
        for a, mat in zip(ORACLE_ALPHAS, cached):
            assert mat.tobytes() == self.fresh(a, dim).tobytes()

    @pytest.mark.parametrize("a, small, large", [
        (0.9 - 0.4j, 20, 91),
        (3.0 * cmath.exp(2.2j), 1, 53),
        # the signed zeros of the tiny imaginary parts hold too
        (0.001 * cmath.exp(0.7j), 600, 640),
    ])
    def test_small_dim_sliced_from_larger_entry(self, a, small, large):
        displacement_matrix(-a, large)  # the same modulus, bit for bit
        served = displacement_matrix(a, small)
        assert fock._MAGNITUDES[abs(a)].shape == (large, large)
        assert served.tobytes() == self.fresh(a, small).tobytes()

    def test_nearby_moduli_keep_their_own_entries(self):
        # the oracle's amplitude 3 has two |alpha| floats across its phases
        moduli = {abs(a) for a in ORACLE_ALPHAS[32:]}
        assert moduli == {3.0, 2.9999999999999996}
        mats = {r: displacement_matrix(r * 1j, 51) for r in moduli}
        assert set(fock._MAGNITUDES) == moduli
        assert mats[3.0].tobytes() != mats[2.9999999999999996].tobytes()
        for r, mat in mats.items():
            assert mat.tobytes() == self.fresh(r * 1j, 51).tobytes()

    def test_larger_dim_replaces_the_entry_and_oldest_goes_first(self):
        displacement_matrix(0.5, 10)
        displacement_matrix(0.5j, 30)
        assert fock._MAGNITUDES[0.5].shape == (30, 30)
        assert not fock._MAGNITUDES[0.5].flags.writeable
        for r in range(1, 10):
            displacement_matrix(float(r), 5)
        assert list(fock._MAGNITUDES) == [float(r) for r in range(2, 10)]

    def test_oracle_distributions_run_one_recurrence_per_modulus_and_size(self, monkeypatch):
        recurrences = []

        def counting(abs_a, dim):
            recurrences.append((abs_a, dim))
            return magnitudes(abs_a, dim)

        magnitudes = fock._displacement_magnitudes
        monkeypatch.setattr(fock, "_displacement_magnitudes", counting)
        rho, _ = build_state({"kind": "thermal", "n_th": 1.0})
        for a in ORACLE_ALPHAS:
            fock.displaced_photon_distribution_auto(rho, a)
        # 4 moduli, each grown at most once (80 recurrences without the cache)
        assert len(recurrences) <= 7

    @pytest.mark.parametrize("a, dim", [
        (ORACLE_ALPHAS[5], 37), (ORACLE_ALPHAS[21], 38), (ORACLE_ALPHAS[37], 91),
        (-1.3, 40), (0.5j, 2), (3.5, 154), (1.0, 450),
        # (1000, 550) is a rescaled element
        (8.0 * cmath.exp(0.4j), 1001),
        # tiny imaginary parts round to signed zeros
        (0.001 * cmath.exp(0.7j), 300), (0.001 * cmath.exp(-2.5j), 600),
    ])
    def test_same_bits_as_the_column_loop(self, a, dim):
        assert displacement_matrix(a, dim).tobytes() == reference_displacement_matrix(a, dim).tobytes()

    def test_threads_share_the_cache(self):
        # more threads than moduli kept, with a short switch interval: every
        # matrix keeps its bits and the cache still ends within its bound
        alphas = [r * cmath.exp(0.3j * k) for r in np.linspace(0.5, 5.0, 12) for k in range(3)]
        want = [self.fresh(a, 40).tobytes() for a in alphas]
        got, errors = {}, []

        def work(offset):
            try:
                for i in range(len(alphas)):
                    j = (i + offset) % len(alphas)
                    got[offset, j] = displacement_matrix(alphas[j], 40).tobytes()
            except Exception as err:  # reported by the assertion below
                errors.append(err)

        fock._MAGNITUDES.clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k * 5,)) for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not any(t.is_alive() for t in threads)
        assert all(got[k * 5, j] == want[j] for k in range(6) for j in range(len(alphas)))
        assert len(fock._MAGNITUDES) <= fock._MAGNITUDES_KEPT


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
        # mean(p_alpha) = mean(rho) + 2 Re(conj(alpha) <a>) + |alpha|^2, with
        # the closed-form <a>: z for the coherent state, 0 for the thermal one
        a = 0.8 + 0.3j
        for rho, field in ((make_coherent(1.2, 40), 1.2), (make_thermal(1.1, 60), 0.0)):
            dist = displaced_photon_distribution(rho, a, 70, tail_tol=1e-8)
            expect = rho.mean_photon + 2.0 * (np.conj(a) * field).real + abs(a) ** 2
            assert dist.mean == pytest.approx(expect, abs=1e-6)

    def test_auto_truncation_never_exceeds_the_cap(self, monkeypatch):
        # thermal 2.4 at |alpha| 10 first guesses n_max 213; with the cap at 60
        # no try, the first included, asks for more than 61 rows, and a tail
        # the cap cannot hold raises
        requested = []

        def recording(alpha, dim):
            requested.append(dim)
            return full(alpha, dim)

        full = fock.displacement_matrix
        monkeypatch.setattr(fock, "_MAX_DISPLACED_DIM", 60)
        monkeypatch.setattr(fock, "displacement_matrix", recording)
        with pytest.raises(TruncationError):
            fock.displaced_photon_distribution_auto(make_thermal(2.4, 60), 10.0)
        assert requested and max(requested) <= 61


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
