"""Shared oracle helpers for the test suite.

Oracles are written independently of the code paths they check: Poisson
probabilities by direct factorial evaluation, phase averages by quadrature,
closed-form Wigner profiles from special functions, displacement matrix
elements in 40-digit arithmetic.
"""

import math

import mpmath
import numpy as np
import pytest

from onofftomo import EfficiencyGrid, OnOffDataset, uniform_grid


def poisson_pmf(mean: float, n_max: int) -> np.ndarray:
    """Poisson probabilities by direct (log-factorial) evaluation."""
    n = np.arange(n_max + 1)
    logs = n * math.log(mean) - mean - np.array([math.lgamma(k + 1) for k in n]) if mean > 0 else None
    if mean == 0:
        out = np.zeros(n_max + 1)
        out[0] = 1.0
        return out
    return np.exp(logs)


def geometric_pmf(n_th: float, n_max: int) -> np.ndarray:
    n = np.arange(n_max + 1)
    return (n_th / (1.0 + n_th)) ** n / (1.0 + n_th)


def displacement_reference(n: int, m: int, alpha) -> complex:
    """<n|D(alpha)|m> from its closed form, evaluated in mpmath at 40 digits.

    For n >= m it is sqrt(m!/n!) alpha^(n-m) e^(-|alpha|^2/2) L_m^(n-m)(|alpha|^2)
    (Cahill & Glauber, Phys. Rev. 177, 1857, 1969); n < m follows from
    D(alpha)^dagger = D(-alpha).
    """
    if n < m:
        return displacement_reference(m, n, -complex(alpha)).conjugate()
    with mpmath.workdps(40):
        a = mpmath.mpc(complex(alpha))
        x = abs(a) ** 2
        value = (mpmath.sqrt(mpmath.factorial(m) / mpmath.factorial(n)) * a ** (n - m)
                 * mpmath.exp(-x / 2) * mpmath.laguerre(m, n - m, x))
        return complex(value)


def wigner_vacuum(r: float) -> float:
    return math.exp(-2.0 * r * r)


def wigner_thermal(r: float, n_th: float) -> float:
    return math.exp(-2.0 * r * r / (1.0 + 2.0 * n_th)) / (1.0 + 2.0 * n_th)


def wigner_phase_averaged(r: float, z: float) -> float:
    from scipy.special import i0e

    return float(i0e(4.0 * z * r) * math.exp(-2.0 * (r - z) ** 2))


def exact_dataset(probs: np.ndarray, grid: EfficiencyGrid, amp: float = 0.0, phase: float = 0.0) -> OnOffDataset:
    """Dataset whose frequencies equal the model off-probabilities exactly.

    Counts are integers, so shots = 2**53 makes every frequency c/N an exact
    binary fraction within 2^-54 of the model value.
    """
    shots = 2**53
    n = np.arange(probs.size)
    p_off = np.power.outer(1.0 - grid.etas, n) @ probs
    counts = np.rint(p_off * shots).astype(np.int64)
    return OnOffDataset(grid=grid, shots=shots, off_counts=counts, amp=amp, phase=phase)


@pytest.fixture
def high_grid() -> EfficiencyGrid:
    return uniform_grid(0.67, 25)


@pytest.fixture
def low_grid() -> EfficiencyGrid:
    return uniform_grid(0.29, 25)
