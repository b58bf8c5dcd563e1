"""On/off detector model and synthetic click-statistics generation.

A Geiger-mode detector of quantum efficiency eta stays silent ("off") on a
state with photon distribution p_n with probability sum_n (1-eta)^n p_n.
Datasets pair an efficiency grid with binomial off-click counts at each
modulation point (displacement amplitude and phase).

Sampling is counter-based: each (seed, phase_index, efficiency_index) cell
owns a Philox substream and draws its count by inverting the binomial CDF on
a single uniform, so results do not depend on iteration order or thread
count.  The inversion is vectorised over the cells of a phase record: the
CDF is the regularized incomplete beta (scipy.special.betainc), each count
starts from a normal-approximation guess and steps by one until it is the
smallest c with CDF(c) >= u.  scipy.special is imported only when counts are
sampled, so the rest of the package runs on numpy alone.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import IllConditionedError
from .fock import (
    DEFAULT_TAIL_TOL,
    FockDensityMatrix,
    PhotonDistribution,
    _freeze,
    displaced_photon_distribution,
    displaced_photon_distribution_auto,
)

DEFAULT_SHOTS = 30_000
DEFAULT_GRID_SIZE = 25
LOW_EFFICIENCY_MAX = 0.29
HIGH_EFFICIENCY_MAX = 0.67

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class EfficiencyGrid:
    """Strictly increasing detector efficiencies eta_k in [0, 1], K >= 2."""

    etas: np.ndarray

    def __post_init__(self):
        e = np.array(self.etas, dtype=float, copy=True)
        if e.ndim != 1 or e.size < 2:
            raise ValueError("grid needs at least 2 efficiencies")
        if not np.all(np.isfinite(e)):
            raise ValueError("efficiencies must be finite")
        if e[0] < 0.0 or e[-1] > 1.0:
            raise ValueError("efficiencies must lie in [0, 1]")
        if np.any(np.diff(e) <= 0):
            raise ValueError("efficiencies must be strictly increasing")
        object.__setattr__(self, "etas", _freeze(e))

    @property
    def size(self) -> int:
        return self.etas.size


@dataclass(frozen=True)
class ModulationSpec:
    """Displacement modulus |alpha| plus the phase grid phi_l, l = 1..N_phi."""

    amp: float
    phases: np.ndarray

    def __post_init__(self):
        if not (math.isfinite(self.amp) and self.amp >= 0):
            raise ValueError("amp must be finite and >= 0")
        ph = np.array(self.phases, dtype=float, copy=True)
        if ph.ndim != 1 or ph.size < 1:
            raise ValueError("need at least one modulation phase")
        if not np.all(np.isfinite(ph)):
            raise ValueError("phases must be finite")
        reduced = np.sort(np.mod(ph, _TWO_PI))
        if ph.size > 1:
            gaps = np.diff(np.append(reduced, reduced[0] + _TWO_PI))
            if gaps.min() < 1e-9:
                raise ValueError("phases must be distinct modulo 2*pi")
        object.__setattr__(self, "phases", _freeze(ph))

    @classmethod
    def uniform(cls, amp: float, n_phases: int) -> "ModulationSpec":
        """phi_l = 2*pi*(l-1)/N_phi — the grid that makes the phase average a DFT."""
        if n_phases < 1:
            raise ValueError("n_phases must be >= 1")
        return cls(amp=amp, phases=_TWO_PI * np.arange(n_phases) / n_phases)

    @property
    def n_phases(self) -> int:
        return self.phases.size

    def alpha(self, index: int) -> complex:
        return self.amp * cmath.exp(1j * self.phases[index])


@dataclass(frozen=True)
class OnOffDataset:
    """Off-click counts across the efficiency grid at one modulation point."""

    grid: EfficiencyGrid
    shots: int
    off_counts: np.ndarray
    amp: float
    phase: float

    def __post_init__(self):
        if self.shots < 1:
            raise ValueError("shots must be >= 1")
        c = np.array(self.off_counts, copy=True)
        if not np.issubdtype(c.dtype, np.integer):
            raise ValueError("off_counts must be integers")
        c = c.astype(np.int64)
        if c.shape != (self.grid.size,):
            raise ValueError("off_counts length must match the efficiency grid")
        if np.any(c < 0) or np.any(c > self.shots):
            raise ValueError("off_counts must lie in [0, shots]")
        if not (math.isfinite(self.amp) and self.amp >= 0):
            raise ValueError("amp must be finite and >= 0")
        if not math.isfinite(self.phase):
            raise ValueError("phase must be finite")
        object.__setattr__(self, "off_counts", _freeze(c))

    @property
    def frequencies(self) -> np.ndarray:
        """Empirical off frequencies f_k = c_k / N."""
        return self.off_counts / float(self.shots)

    @property
    def alpha(self) -> complex:
        return self.amp * cmath.exp(1j * self.phase)


def off_probability(dist: PhotonDistribution, eta: float) -> float:
    """P_off(eta) = sum_n (1 - eta)^n p_n."""
    if not (0.0 <= eta <= 1.0):
        raise ValueError("eta must lie in [0, 1]")
    n = np.arange(dist.probs.size)
    return float(np.power(1.0 - eta, n) @ dist.probs)


def off_probabilities(dist: PhotonDistribution, grid: EfficiencyGrid) -> np.ndarray:
    """Vectorized off probability over a whole efficiency grid."""
    n = np.arange(dist.probs.size)
    return np.power.outer(1.0 - grid.etas, n) @ dist.probs


def uniform_grid(eta_max: float, k: int = DEFAULT_GRID_SIZE) -> EfficiencyGrid:
    """K uniformly spaced efficiencies eta_j = j*eta_max/K on (0, eta_max].

    eta = 0 is deliberately excluded: its datum P_off = 1 carries no
    information and creates a degenerate factor in the ML iteration.
    """
    if not (0.0 < eta_max <= 1.0):
        raise ValueError("eta_max must lie in (0, 1]")
    if k < 2:
        raise ValueError("k must be >= 2")
    return EfficiencyGrid(eta_max * np.arange(1, k + 1) / k)


def default_grids(k: int = DEFAULT_GRID_SIZE) -> tuple[EfficiencyGrid, EfficiencyGrid]:
    """The two stock grids: eta_max = 0.29 and eta_max = 0.67."""
    return uniform_grid(LOW_EFFICIENCY_MAX, k), uniform_grid(HIGH_EFFICIENCY_MAX, k)


def _cell_uniform(seed: int, phase_index: int, eta_index: int) -> float:
    """One uniform deviate from the Philox substream keyed on (seed, l, k)."""
    key = (int(seed) << 64) | (int(phase_index) << 32) | int(eta_index)
    gen = np.random.Generator(np.random.Philox(key=key))
    return float(gen.random())


def _binomial_inverse(u: np.ndarray, n: int, p: np.ndarray) -> np.ndarray:
    """Smallest c in [0, n] with BinomialCDF(c; n, p) >= u, cell by cell.

    CDF(c) = I_{1-p}(n - c, c + 1), the regularized incomplete beta.  Each
    cell starts from the normal guess floor(n p + ndtri(u) sqrt(n p (1 - p)))
    and every unsettled cell steps by one together until
    CDF(c - 1) < u <= CDF(c); from 7 to 10^12 trials that takes at most
    about three steps.  A non-finite CDF value raises instead of returning
    the guess.
    """
    from scipy.special import betainc, ndtri

    u = np.asarray(u, dtype=float)
    p = np.asarray(p, dtype=float)
    counts = np.where(p >= 1.0, n, 0).astype(np.int64)
    live = ~((p >= 1.0) | (p <= 0.0))
    u, p = u[live], p[live]

    def cdf(c):
        k = np.clip(c, 0, n - 1)
        val = np.where(c < 0, 0.0, np.where(c >= n, 1.0, betainc(n - k, k + 1, 1.0 - p)))
        if not np.all(np.isfinite(val)):
            raise IllConditionedError(f"binomial CDF is not finite at n={n}")
        return val

    with np.errstate(invalid="ignore"):
        guess = np.floor(n * p + ndtri(u) * np.sqrt(n * p * (1.0 - p)))
    c = np.clip(np.nan_to_num(guess), 0, n).astype(np.int64)
    while True:
        step = (cdf(c) < u).astype(np.int64) - ((c > 0) & (cdf(c - 1) >= u))
        if not step.any():
            break
        c += step
    counts[live] = c
    return counts


def simulate_dataset(
    rho: FockDensityMatrix,
    modulation: ModulationSpec,
    grid: EfficiencyGrid,
    shots: int = DEFAULT_SHOTS,
    seed: int = 0,
    *,
    n_max: int | None = None,
    tail_tol: float = DEFAULT_TAIL_TOL,
) -> list[OnOffDataset]:
    """Simulate off-click counts for every (phase, efficiency) cell.

    For each modulation phase phi_l the displaced distribution
    p_n(|alpha| e^(i phi_l)) is computed, and each efficiency cell draws its
    count from Binomial(shots, P_off(eta_k)) on its own (seed, l, k) substream.
    Fixed seed => byte-identical datasets, independent of evaluation order.

    Args:
        n_max: truncation for the displaced distributions; default sizes it
            from the state energy and |alpha| so the tail fits tail_tol.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if not (0 <= int(seed) < 2**64):
        raise ValueError("seed must fit in 64 bits")
    datasets = []
    for l in range(modulation.n_phases):
        if n_max is None:
            dist = displaced_photon_distribution_auto(
                rho, modulation.alpha(l), tail_tol=tail_tol
            )
        else:
            dist = displaced_photon_distribution(
                rho, modulation.alpha(l), n_max, tail_tol=tail_tol
            )
        p_off = off_probabilities(dist, grid)
        u = np.array([_cell_uniform(seed, l + 1, k + 1) for k in range(grid.size)])
        counts = _binomial_inverse(u, shots, p_off)
        datasets.append(
            OnOffDataset(
                grid=grid,
                shots=shots,
                off_counts=counts,
                amp=modulation.amp,
                phase=float(modulation.phases[l]),
            )
        )
    return datasets
