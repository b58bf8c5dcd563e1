"""On/off detector model and synthetic click-statistics generation.

A Geiger-mode detector of quantum efficiency eta stays silent ("off") on a
state with photon distribution p_n with probability sum_n (1-eta)^n p_n.
Datasets pair an efficiency grid with binomial off-click counts at each
modulation point (displacement amplitude and phase).

Sampling is counter-based: each (seed, phase_index, efficiency_index) cell
owns a Philox substream and draws its count by inverting the binomial CDF on
a single uniform, so results do not depend on iteration order or thread
count.  A count is the smallest c with CDF(c) >= u, where CDF is the
regularized incomplete beta of scipy.special.betainc.  Numpy keeps a count
only when u lies more than 10^-9 from its own CDF's bounds on either side
of the step.  Up to 10^5 shots that CDF sums the pmf over a window about
n p, with rounding error below 3e-12; from there to 10^12 shots, for cells
with n p q >= 10^6, it is a two-term Edgeworth expansion.  betainc's
measured distance from them, below 10^-12 and 4.7e-11, lets it pick the
same count, so no dataset depends on the path; that rests on measurement,
not on a proof.  Uncertified cells (about 2.5 in 10^6 at 30000 shots and
under 1 in 100 at 10^12), every other cell above 10^5 shots and non-finite
probabilities go to the betainc inversion, which imports scipy.special
when first needed; the rest of the package runs on numpy alone.
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
        if self.shots >= 2**63:  # off counts are int64
            raise ValueError("shots must be < 2**63")
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


# Above _WINDOW_MAX_TRIALS, cells with n p q >= _EDGEWORTH_MIN_VAR use the
# Edgeworth CDF, whose truncation error falls as (n p q)^-3/2.  betainc's
# largest distance from it, over 20,000 random cells per decade from 10^7
# to 10^12 trials and 150,000 more at 10^12 (counts to +-8 sd, a tenth of p
# within 10^-4 of 0 or 1), is 1.4e-11 up to 10^11 and 4.7e-11 at 10^12, 21
# times inside _CDF_EPS.  It grows about as sqrt(n) above 10^10, as
# betainc's own rounding does, so the path stops at 10^12.
_EDGEWORTH_MAX_TRIALS = 10**12
_EDGEWORTH_MIN_VAR = 1e6
_SPLIT = 2.0**27 + 1.0  # Veltkamp's splitter: 26-bit heads of binary64


def _edgeworth_cdf(c: np.ndarray, n: int, p: np.ndarray) -> np.ndarray:
    """The two-term lattice Edgeworth CDF of Binomial(n, p) at counts c.

    With continuity correction (Esseen, Acta Math. 77, 1945), F(c) = Phi(z)
    - phi(z) [g (z^2 - 1) / 6 + k (z^3 - 3 z) / 24 + g^2 (z^5 - 10 z^3
    + 15 z) / 72 - z / (24 s^2)], with z = (c + 1/2 - n p) / s, s^2 = n p q,
    g = (q - p) / s, k = (1 - 6 p q) / s^2 and p rounded as betainc's
    argument rounds it.  n p is held as Dekker's exact product x + y (Numer.
    Math. 18, 1971), so near n p the difference c + 1/2 - x is exact and z
    is rounded only by subtracting y and dividing by s.
    """
    q = 1.0 - p
    p = 1.0 - q
    x = n * p
    n1, p1 = (_SPLIT * v - (_SPLIT * v - v) for v in (float(n), p))
    y = (n - n1) * (p - p1) - (((x - n1 * p1) - (n - n1) * p1) - n1 * (p - p1))
    var = x * q
    g, k = (q - p) / np.sqrt(var), (1.0 - 6.0 * p * q) / var
    z = ((c + 0.5 - x) - y) / np.sqrt(var)
    z2 = z * z
    upper = np.frompyfunc(math.erfc, 1, 1)(z * -math.sqrt(0.5)).astype(float)
    poly = (g * (z2 - 1.0) / 6.0 + k * z * (z2 - 3.0) / 24.0
            + g * g * z * (z2 * z2 - 10.0 * z2 + 15.0) / 72.0 - z / (24.0 * var))
    return 0.5 * upper - np.exp(-0.5 * z2) / math.sqrt(_TWO_PI) * poly


def _edgeworth_inverse(u: np.ndarray, n: int, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(counts, certified)`` on :func:`_edgeworth_cdf`, F.

    Each cell with n p q >= ``_EDGEWORTH_MIN_VAR`` and eps < u < 1 - eps
    starts from a normal quantile good to 4.5e-4 (Abramowitz and Stegun
    26.2.23) and steps to where the line through F(c - 1) and F(c) meets u,
    until F(c - 1) < u <= F(c): at most three passes over 20,000 random
    cells at each of 10^7, 10^9 and 10^12 trials.  It is certified, as in
    :func:`_window_inverse`, when F(c) - eps >= u > F(c - 1) + eps.
    """
    counts = np.zeros(u.size, dtype=np.int64)
    certified = np.zeros(u.size, dtype=bool)
    q = 1.0 - p
    live = np.flatnonzero((n * (1.0 - q) * q >= _EDGEWORTH_MIN_VAR)
                          & (u > _CDF_EPS) & (u < 1.0 - _CDF_EPS))
    u, p = u[live], p[live]
    t = np.sqrt(-2.0 * np.log(np.minimum(u, 1.0 - u)))
    z = t - (2.515517 + t * (0.802853 + 0.010328 * t)) / (
        1.0 + t * (1.432788 + t * (0.189269 + 0.001308 * t)))
    c = np.clip(np.floor(n * p + np.copysign(z, u - 0.5) * np.sqrt(n * p * (1.0 - p))), 0, n)
    moving = np.arange(live.size)
    for _ in range(10):  # a cell still moving after ten passes goes to betainc
        pm, um = p[moving], u[moving]
        lo, hi = _edgeworth_cdf(c[moving] - 1.0, n, pm), _edgeworth_cdf(c[moving], n, pm)
        certified[live[moving]] = (hi - _CDF_EPS >= um) & (um > lo + _CDF_EPS)
        with np.errstate(divide="ignore", invalid="ignore"):  # 0 once F(c - 1) < u <= F(c)
            step = np.nan_to_num(np.ceil((um - lo) / (hi - lo)) - 1.0)
        c[moving] = np.clip(c[moving] + step, 0, n)
        moving = moving[step != 0]
        if not moving.size:
            break
    counts[live] = c
    return counts, certified


def _binomial_inverse(u: np.ndarray, n: int, p: np.ndarray) -> np.ndarray:
    """The count of every cell: the smallest c in [0, n] with CDF(c) >= u.

    The count is the one :func:`_betainc_inverse` returns; p <= 0 and
    p >= 1 give 0 and n.  :func:`_window_inverse` up to
    ``_WINDOW_MAX_TRIALS`` trials, and :func:`_edgeworth_inverse` from there
    to ``_EDGEWORTH_MAX_TRIALS``, set every count they can certify in numpy;
    only the others go to the betainc inversion.  Certification makes both
    paths return betainc's count as long as betainc stays within
    ``_CDF_EPS`` of their CDF.  Its largest measured distance is 8.7e-13
    from the window and 4.7e-11 from the Edgeworth CDF, on the samples
    described at those two constants: the identity rests on these
    measurements, not on a proof.
    """
    u = np.asarray(u, dtype=float)
    p = np.asarray(p, dtype=float)
    counts = np.where(p >= 1.0, n, 0).astype(np.int64)
    todo = np.flatnonzero(~((p >= 1.0) | (p <= 0.0)))
    if n <= _EDGEWORTH_MAX_TRIALS:
        numpy_inverse = _window_inverse if n <= _WINDOW_MAX_TRIALS else _edgeworth_inverse
        found, certified = numpy_inverse(u[todo], n, p[todo])
        counts[todo[certified]] = found[certified]
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
    own (seed, l, k) substream; all cells are inverted in one call.  Fixed
    seed => byte-identical datasets, independent of evaluation order.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if shots >= 2**63:  # off counts are int64
        raise ValueError("shots must be < 2**63")
    if not (0 <= int(seed) < 2**64):
        raise ValueError("seed must fit in 64 bits")
    p_off = np.array([
        off_probabilities(displaced_photon_distribution_auto(
            rho, modulation.alpha(l), tail_tol=DEFAULT_TAIL_TOL), grid)
        for l in range(modulation.n_phases)])
    u = np.array([[_cell_uniform(seed, l + 1, k + 1) for k in range(grid.size)]
                  for l in range(modulation.n_phases)])
    counts = _binomial_inverse(u.ravel(), shots, p_off.ravel()).reshape(u.shape)
    return [OnOffDataset(grid=grid, shots=shots, off_counts=counts[l], amp=modulation.amp,
                         phase=float(modulation.phases[l]))
            for l in range(modulation.n_phases)]
