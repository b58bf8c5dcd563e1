"""On/off detector model and synthetic click-statistics generation.

A Geiger-mode detector of quantum efficiency eta stays silent ("off") on a
state with photon distribution p_n with probability sum_n (1-eta)^n p_n.
Datasets pair an efficiency grid with binomial off-click counts at each
modulation point (displacement amplitude and phase).

Sampling is counter-based: each (seed, phase_index, efficiency_index) cell
owns a Philox substream and draws its count by inverting the binomial CDF on
a single uniform, so results do not depend on iteration order or thread
count.  A count is the smallest c with CDF(c) >= u, where CDF is the
regularized incomplete beta of scipy.special.betainc.  Up to 10^5 shots a
numpy CDF, summed over a window of counts about n p, settles nearly every
cell without scipy.  It keeps a count only when u lies more than 10^-9 from
the CDF's bounds on either side of the step.  The window's rounding error
is bounded below 3e-12, and betainc's distance from the window, measured
over 10^5 random cells at 10^5 shots, stays below 10^-12, so betainc picks
the same count and no dataset depends on the path.  That agreement rests
on this measurement of betainc, not on a proof.  Cells the window cannot
certify (about 2.5 in 10^6 at 30000 shots), every cell above 10^5 shots and
non-finite probabilities go to the betainc inversion, which imports
scipy.special when first needed; the rest of the package runs on numpy
alone.
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
    displaced_photon_distribution_auto,
)
from .fock import displaced_photon_distribution  # noqa: F401  (perfbench/tracer.py patches it here)

DEFAULT_SHOTS = 30_000
DEFAULT_GRID_SIZE = 25

_TWO_PI = 2.0 * math.pi


def uniform_phases(n: int) -> np.ndarray:
    """phi_l = 2*pi*(l-1)/N for l = 1..N, the grid that makes the phase average a DFT."""
    return _TWO_PI * np.arange(n) / n


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
        """The :func:`uniform_phases` grid at modulus ``amp``."""
        return cls(amp=amp, phases=uniform_phases(n_phases))

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


def _thinning_matrix(etas: np.ndarray, n_max: int) -> np.ndarray:
    """A_kn = (1 - eta_k)^n, shape (K, n_max + 1): P_off = A @ p."""
    n = np.arange(n_max + 1)
    return np.power.outer(1.0 - etas, n)


def off_probabilities(dist: PhotonDistribution, grid: EfficiencyGrid) -> np.ndarray:
    """Vectorized off probability over a whole efficiency grid."""
    return _thinning_matrix(grid.etas, dist.n_max) @ dist.probs


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


def _cell_uniform(seed: int, phase_index: int, eta_index: int) -> float:
    """One uniform deviate from the Philox substream keyed on (seed, l, k)."""
    key = (int(seed) << 64) | (int(phase_index) << 32) | int(eta_index)
    gen = np.random.Generator(np.random.Philox(key=key))
    return float(gen.random())


# The window CDF is used up to _WINDOW_MAX_TRIALS trials, where it costs
# about 1.3 ms per 25-cell record against 0.2 ms for betainc: a simulate
# of 48 records at 10^5 shots ran 0.38 s against 0.47 s with the betainc
# inversion and its scipy.special import, and broke even near 100 records
# (near 280 at 30000 shots).  Its rounding error is at most
# 12 * width * 2^-53, 3.0e-12 at the widest window there (2,239 counts).
# betainc's largest distance from it, measured over 10^5 random cells at
# n = 10^5 (ten counts each, p uniform with a fifth within 10^-15 to 1 of 0
# or 1), is 8.7e-13, mostly the mass outside the window.  The
# certification margin _CDF_EPS is over 300 times both.
_WINDOW_MAX_TRIALS = 10**5
_CDF_EPS = 1e-9
_WINDOW_SD = 7.0  # window half-width in standard deviations, plus 12 counts
_WINDOW_ROWS = 64  # cells per window chunk: 64 x 2,239 entries at 10^5 trials


def _window_cdf(n: int, p: np.ndarray) -> tuple[np.ndarray, ...]:
    """Binomial CDF of each cell on a window of counts about n p, in numpy.

    Returns ``(lo, F, below, above)``.  ``F[i, j]`` is the pmf of cell i
    summed from ``lo[i]`` to ``lo[i] + j`` and divided by its sum over the
    whole window, so the last entry is 1; ``below`` and ``above``, in the
    same units, bound the mass under and over the window, and the CDF at
    count lo + j lies in [F - above, F + below].  The pmf is built by
    cumprod of pmf(k + 1) / pmf(k) = (n - k) / (k + 1) * s / t from 1 at
    the window's low end, with s = min(p, q) and q = 1 - p as betainc's
    argument rounds it: for p > 1/2 the window is built for n - c and
    reversed, so the product never passes exp(100) and cannot overflow.
    Past either end the pmf falls at least geometrically, by its ratio at
    that end, which gives ``below`` and ``above``.  F's relative rounding
    error is at most (10 * width + 1) * 2^-53: four roundings per pmf ratio
    and one per cumsum step in each of its two sums, and the division.
    Each window spans n s +- (7 sd + 12) within [0, n]; all cells take the
    widest one's width, shifted down where it would pass n.
    """
    q = 1.0 - p
    p = 1.0 - q  # the success probability of betainc's binomial
    flip = p > 0.5
    s, t = np.where(flip, q, p), np.where(flip, p, q)
    mean = n * s
    half = np.ceil(_WINDOW_SD * np.sqrt(mean * t) + 12.0)
    lo = np.clip(np.floor(mean) - half, 0, n)
    width = int((np.clip(np.floor(mean) + half, 0, n) - lo).max()) + 1
    lo = np.minimum(lo, n + 1 - width)
    hi = lo + width - 1
    odds = s / t
    k = lo[:, None] + np.arange(width - 1)
    pmf = np.ones((p.size, width))
    np.cumprod((n - k) / (k + 1) * odds[:, None], axis=1, out=pmf[:, 1:])
    # pmf(lo - 1) / pmf(lo), below 1 as lo < n s (and 0 at lo = 0, where s may be 0)
    rho = np.divide(lo, (n - lo + 1) * odds, out=np.zeros_like(odds), where=lo > 0)
    sigma = (n - hi) / (hi + 1) * odds  # pmf(hi + 1) / pmf(hi), below 1 as hi > n s
    below, above = pmf[:, 0] * rho / (1.0 - rho), pmf[:, -1] * sigma / (1.0 - sigma)
    pmf[flip] = pmf[flip, ::-1]
    below, above = np.where(flip, above, below), np.where(flip, below, above)
    F = np.cumsum(pmf, axis=1)
    total = F[:, -1].copy()
    F /= total[:, None]
    return np.where(flip, n - hi, lo).astype(np.int64), F, below / total, above / total


def _window_inverse(u: np.ndarray, n: int, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(counts, certified)``: the counts of :func:`_window_cdf` it can vouch for.

    A cell's count c is the first window entry with F >= u.  It is certified
    when F(c) - above - eps >= u > F(c - 1) + below + eps, with
    eps = ``_CDF_EPS``: betainc's CDF stays within eps of F (see
    ``_WINDOW_MAX_TRIALS``), so it is below u up to c - 1 and at least u
    from c on, within the window.  For eps < u < 1 - eps the betainc
    inversion's normal guess lies within 6 sd of n p, inside the window,
    and it walks one count at a time to the same c.  A cell with a
    non-finite p is not certified.
    """
    counts = np.zeros(u.size, dtype=np.int64)
    certified = np.zeros(u.size, dtype=bool)
    finite = np.flatnonzero(np.isfinite(p))
    for start in range(0, finite.size, _WINDOW_ROWS):
        idx = finite[start:start + _WINDOW_ROWS]
        lo, F, below, above = _window_cdf(n, p[idx])
        rows = np.arange(idx.size)
        c = np.minimum(np.count_nonzero(F < u[idx, None], axis=1), F.shape[1] - 1)
        at = F[rows, c] - above
        before = np.where(c > 0, F[rows, c - 1], 0.0) + below
        certified[idx] = (at - _CDF_EPS >= u[idx]) & (u[idx] > before + _CDF_EPS)
        counts[idx] = lo + c
    return counts, certified


def _betainc_inverse(u: np.ndarray, n: int, p: np.ndarray) -> np.ndarray:
    """Smallest c in [0, n] with CDF(c) >= u for 0 < p < 1, by betainc.

    CDF(c) = I_{1-p}(n - c, c + 1), the regularized incomplete beta.  Each
    cell starts from the normal guess floor(n p + ndtri(u) sqrt(n p (1 - p)))
    and steps by one until CDF(c - 1) < u <= CDF(c); from 7 to 10^12 trials
    that takes at most about three steps.  Each cell's CDF is evaluated at
    its guess and the count below it, then once per step: a step carries the
    known value across, and settled cells drop out.  A non-finite CDF value
    raises instead of returning the guess.
    """
    from scipy.special import betainc, ndtri

    def cdf(c, p):
        k = np.clip(c, 0, n - 1)
        val = np.where(c < 0, 0.0, np.where(c >= n, 1.0, betainc(n - k, k + 1, 1.0 - p)))
        if not np.all(np.isfinite(val)):
            raise IllConditionedError(f"binomial CDF is not finite at n={n}")
        return val

    with np.errstate(invalid="ignore"):
        guess = np.floor(n * p + ndtri(u) * np.sqrt(n * p * (1.0 - p)))
    c = np.clip(np.nan_to_num(guess), 0, n).astype(np.int64)
    lo, hi = cdf(c - 1, p), cdf(c, p)  # CDF(c - 1) and CDF(c) of every cell
    moving = np.arange(c.size)
    while moving.size:
        step = (hi[moving] < u[moving]).astype(np.int64) - (
            (c[moving] > 0) & (lo[moving] >= u[moving]))
        moving, step = moving[step != 0], step[step != 0]
        c[moving] += step
        # a step up knows its new CDF(c - 1), a step down its new CDF(c)
        new = cdf(c[moving] - (step < 0), p[moving])
        lo[moving], hi[moving] = (np.where(step > 0, hi[moving], new),
                                  np.where(step > 0, new, lo[moving]))
    return c


def _binomial_inverse(u: np.ndarray, n: int, p: np.ndarray) -> np.ndarray:
    """The count of every cell: the smallest c in [0, n] with CDF(c) >= u.

    The count is the one :func:`_betainc_inverse` returns; p <= 0 and
    p >= 1 give 0 and n.  Up to ``_WINDOW_MAX_TRIALS`` trials,
    :func:`_window_inverse` sets every count it can certify in numpy, and
    only the others go to the betainc inversion, so scipy.special is
    imported only above 10^5 trials, for a non-finite p, or for the rare
    cell whose u lies within ``_CDF_EPS`` of a CDF step.  Certification
    makes both paths return the same count as long as betainc stays within
    ``_CDF_EPS`` of the window, as it did with a wide margin on the sample
    described at ``_WINDOW_MAX_TRIALS``.
    """
    u = np.asarray(u, dtype=float)
    p = np.asarray(p, dtype=float)
    counts = np.where(p >= 1.0, n, 0).astype(np.int64)
    todo = np.flatnonzero(~((p >= 1.0) | (p <= 0.0)))
    if n <= _WINDOW_MAX_TRIALS:
        window, certified = _window_inverse(u[todo], n, p[todo])
        counts[todo[certified]] = window[certified]
        todo = todo[~certified]
    if todo.size:
        counts[todo] = _betainc_inverse(u[todo], n, p[todo])
    return counts


def simulate_dataset(
    rho: FockDensityMatrix,
    modulation: ModulationSpec,
    grid: EfficiencyGrid,
    shots: int = DEFAULT_SHOTS,
    seed: int = 0,
) -> list[OnOffDataset]:
    """Simulate off-click counts for every (phase, efficiency) cell.

    For each modulation phase phi_l the displaced distribution
    p_n(|alpha| e^(i phi_l)) is computed, its truncation grown from the state
    energy and |alpha| until the tail fits ``DEFAULT_TAIL_TOL``, and each
    efficiency cell draws its count from Binomial(shots, P_off(eta_k)) on its
    own (seed, l, k) substream.  Fixed seed => byte-identical datasets,
    independent of evaluation order.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if shots >= 2**63:  # off counts are int64
        raise ValueError("shots must be < 2**63")
    if not (0 <= int(seed) < 2**64):
        raise ValueError("seed must fit in 64 bits")
    datasets = []
    for l in range(modulation.n_phases):
        dist = displaced_photon_distribution_auto(
            rho, modulation.alpha(l), tail_tol=DEFAULT_TAIL_TOL
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
