"""Truncated Fock-space numerics.

State factories, displacement-operator matrix elements and photon-number
distributions of displaced states.  Everything is dimensionless; a state
truncated at ``n_max`` keeps Fock components 0..n_max and declares the
probability mass it dropped as its ``tail``.

Results depend on the inputs alone.  Displacement magnitudes are cached per
exact |alpha| in read-only arrays, updated by single dict operations, so the
cache is thread-safe; the value objects copy their arrays and mark them
read-only, so instances are safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import TruncationError

DEFAULT_TAIL_TOL = 1e-6

_DIAG_NEG_TOL = 1e-12
_TRACE_SLACK = 1e-12
_RESCALE = 1e250
_LOG_RESCALE = math.log(_RESCALE)
_MAX_DISPLACED_DIM = 4000  # cap on the grown truncation of a displaced state

# displacement magnitudes of the last _MAGNITUDES_KEPT moduli, keyed on the
# exact |alpha|; entries over _MAGNITUDES_MAX_DIM (8 MiB) are not kept
_MAGNITUDES: dict[float, np.ndarray] = {}
_MAGNITUDES_KEPT, _MAGNITUDES_MAX_DIM = 8, 1024


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class PhotonDistribution:
    """Photon-number probabilities p_n, n = 0..n_max, plus declared tail mass.

    Invariants enforced at construction: every entry non-negative (entries
    above -1e-12 are clipped to zero, anything more negative is an error) and
    total mass sum(probs) + tail consistent with 1 up to 1e-9.
    """

    probs: np.ndarray
    tail: float | None = None

    def __post_init__(self):
        p = np.array(self.probs, dtype=float, copy=True)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("probs must be a non-empty 1-d vector")
        if not np.all(np.isfinite(p)):
            raise ValueError("probs must be finite")
        neg = p < 0
        if np.any(p < -_DIAG_NEG_TOL):
            raise ValueError(
                f"negative probability below -{_DIAG_NEG_TOL:g}: min={p.min():.3e}"
            )
        p[neg] = 0.0
        total = float(p.sum())
        if total > 1.0 + _TRACE_SLACK:
            raise ValueError(f"probabilities sum to {total!r} > 1")
        tail = self.tail
        if tail is None:
            tail = max(0.0, 1.0 - total)
        elif tail < 0 or abs((1.0 - total) - tail) > 1e-9:
            raise ValueError(
                f"declared tail {tail!r} inconsistent with sum {total!r}"
            )
        object.__setattr__(self, "probs", _freeze(p))
        object.__setattr__(self, "tail", float(tail))

    @property
    def n_max(self) -> int:
        return self.probs.size - 1

    @property
    def mean(self) -> float:
        return float(np.arange(self.probs.size) @ self.probs)

    @property
    def edge_mass(self) -> float:
        """Mass at or beyond the truncation edge (parity sums are sensitive to it).

        The last entry proxies the continuation of a decaying distribution;
        a single-entry vector (the vacuum) has no continuation to proxy.
        """
        edge = float(self.probs[-1]) if self.probs.size > 1 else 0.0
        return edge + self.tail

    def normalized(self) -> "PhotonDistribution":
        total = float(self.probs.sum())
        if total <= 0:
            raise ValueError("cannot normalize an all-zero distribution")
        return PhotonDistribution(self.probs / total)


@dataclass(frozen=True)
class FockDensityMatrix:
    """Density matrix in the number basis, truncated at dim - 1 photons.

    ``entries`` is Hermitian exactly as stored, with real non-negative
    diagonal; the trace may fall short of 1 by at most ``tail_tol`` (the
    declared truncation tail mass).
    """

    entries: np.ndarray
    tail_tol: float = DEFAULT_TAIL_TOL

    def __post_init__(self):
        m = np.array(self.entries, dtype=complex, copy=True)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
            raise ValueError("entries must be a square non-empty matrix")
        if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
            raise ValueError("entries must be finite")
        if not np.array_equal(m, m.conj().T):
            raise ValueError("entries must be Hermitian exactly as stored")
        diag = m.diagonal().real
        if np.any(diag < -_DIAG_NEG_TOL):
            raise ValueError(
                f"diagonal entry below -{_DIAG_NEG_TOL:g}: min={diag.min():.3e}"
            )
        # Round-off negatives clip to zero; anything larger errored above.
        if np.any(diag < 0):
            idx = np.where(diag < 0)[0]
            m[idx, idx] = 0.0
        tr = float(m.diagonal().real.sum())
        if tr > 1.0 + _TRACE_SLACK:
            raise ValueError(f"trace {tr!r} exceeds 1")
        if tr < 1.0 - self.tail_tol:
            raise TruncationError(
                f"trace {tr!r} below 1 - tail_tol ({self.tail_tol:g}); "
                "increase the truncation dimension"
            )
        object.__setattr__(self, "entries", _freeze(m))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def trace(self) -> float:
        return float(self.entries.diagonal().real.sum())

    @property
    def tail(self) -> float:
        """Declared truncation tail mass (1 - trace, floored at 0)."""
        return max(0.0, 1.0 - self.trace)

    @property
    def mean_photon(self) -> float:
        return float(np.arange(self.dim) @ self.entries.diagonal().real)

    def diagonal_distribution(self) -> PhotonDistribution:
        return PhotonDistribution(self.entries.diagonal().real, tail=self.tail)


def _displacement_magnitudes(abs_a: float, dim: int) -> np.ndarray:
    """Real <m+d|D(|alpha|)|m> at [m, d] for m + d < dim (zero elsewhere).

    Every entry comes from its own log-scaled Laguerre recurrence
    (vectorized over the offset d), so it does not depend on ``dim`` and
    round-off never propagates between entries; naive row/column
    recurrences blow up where the matrix elements grow from tiny seeds.
    """
    x = abs_a * abs_a
    d = np.arange(dim, dtype=float)
    prev, cur, scale = np.ones(dim), 1.0 + d - x, np.zeros(dim)  # L_0^(d), L_1^(d)
    # row m holds L_m^(d)(x) as mantissa * exp(scale), for every d at once
    mant, scales = np.empty((dim, dim)), np.zeros((dim, dim))
    mant[0] = prev
    mant[1:2] = cur  # no row 1 at dim 1
    for m in range(2, dim):
        k = m - 1
        prev, cur = cur, ((2 * k + 1 + d - x) * cur - (k + d) * prev) / (k + 1)
        big = np.maximum(np.abs(prev), np.abs(cur))
        high = big > _RESCALE
        if np.any(high):
            prev[high] /= _RESCALE
            cur[high] /= _RESCALE
            scale[high] += _LOG_RESCALE
        low = (big > 0) & (big < 1.0 / _RESCALE)
        if np.any(low):
            prev[low] *= _RESCALE
            cur[low] *= _RESCALE
            scale[low] -= _LOG_RESCALE
        mant[m], scales[m] = cur, scale
    lgfact = np.array([math.lgamma(i + 1.0) for i in range(2 * dim - 1)])
    with np.errstate(divide="ignore", over="ignore", under="ignore", invalid="ignore"):
        # the window view holds ln (m + d)! at [m, d]
        logmag = (0.5 * (lgfact[:dim, None] - sliding_window_view(lgfact, dim))
                  + d * math.log(abs_a) - 0.5 * x + scales + np.log(np.abs(mant)))
        vals = np.sign(mant) * np.exp(logmag)
    m = np.arange(dim)
    vals[m[:, None] >= dim - m] = 0.0  # m + d >= dim lies outside the matrix
    vals.flags.writeable = False
    return vals


def displacement_matrix(alpha, dim: int) -> np.ndarray:
    """Dense (dim x dim) truncation of D(alpha) in the number basis.

    The real magnitudes (:func:`_displacement_magnitudes`) depend on
    |alpha| alone and are cached per exact, unrounded |alpha|, so all phases
    of one modulus share one recurrence; a smaller ``dim`` slices a larger
    entry (the same bits) and a larger one replaces it.  Column m's
    magnitudes times (alpha/|alpha|)^d give its lower part, and times
    (-alpha/|alpha|)^d, conjugated, row m's upper part, by D(alpha)^dagger
    = D(-alpha); both products are formed in the [m, d] layout and then
    scattered, which keeps the signs of zeros.  Entry [n, m], n >= m, is
    the closed form sqrt(m!/n!) alpha^(n-m) e^(-|alpha|^2/2) L_m^(n-m)(|alpha|^2)
    (Cahill & Glauber, Phys. Rev. 177, 1857, 1969) up to round-off, at any
    dimension.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    a = complex(alpha)
    if a == 0:
        return np.eye(dim, dtype=complex)
    abs_a = abs(a)
    vals = _MAGNITUDES.get(abs_a)
    if vals is None or vals.shape[0] < dim:
        vals = _displacement_magnitudes(abs_a, dim)
        if dim <= _MAGNITUDES_MAX_DIM:
            _MAGNITUDES[abs_a] = vals
            for stale in list(_MAGNITUDES)[:-_MAGNITUDES_KEPT]:
                _MAGNITUDES.pop(stale, None)
    vals = vals[:dim, :dim]
    out = np.empty((dim, dim), dtype=complex)
    n, m = np.tril_indices(dim)
    # the diagonal is written twice and keeps the lower part's value
    out[m, n] = np.conj(vals * (-a / abs_a) ** np.arange(dim))[m, n - m]
    out[n, m] = (vals * (a / abs_a) ** np.arange(dim))[m, n - m]
    return out


def displaced_photon_distribution(
    rho: FockDensityMatrix,
    alpha,
    n_max: int,
    *,
    tail_tol: float | None = None,
) -> PhotonDistribution:
    """Diagonal of D(alpha) rho D(alpha)^dagger truncated to n_max.

    D(alpha) is built only as large as rho and the kept rows n <= n_max
    need: each element comes from its own recurrence, so the kept rows do
    not depend on that size.  The returned vector must capture all but
    ``tail_tol`` of the mass, otherwise a TruncationError reports that n_max
    is too small for this displacement.

    Raises:
        ValueError: if the displaced diagonal goes negative, which no
            truncation can cause: rho is not positive semidefinite.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    tol = rho.tail_tol if tail_tol is None else tail_tol
    disp = displacement_matrix(alpha, max(rho.dim, n_max + 1))[: n_max + 1, : rho.dim]
    p = np.einsum("nk,nk->n", disp @ rho.entries, disp.conj()).real
    tail = 1.0 - float(p.sum())
    if np.any(p < -_DIAG_NEG_TOL):
        raise ValueError(
            f"displaced diagonal went negative ({p.min():.3e}); "
            "the state is not positive semidefinite"
        )
    p[p < 0] = 0.0
    tail = max(0.0, tail)
    if tail > tol:
        raise TruncationError(
            f"displaced distribution keeps only {1.0 - tail:.9f} of the mass at "
            f"n_max={n_max} (tail {tail:.3e} > {tol:g}); increase n_max"
        )
    return PhotonDistribution(p, tail=tail)


def displaced_photon_distribution_auto(
    rho: FockDensityMatrix,
    alpha,
    *,
    tail_tol: float | None = None,
) -> PhotonDistribution:
    """Displaced distribution with the truncation grown until the tail fits.

    Starts from the energy-based guess (enough for Poisson-like tails) and
    widens geometrically for heavier ones, e.g. displaced thermal states.
    Every try, the first included, stays within ``_MAX_DISPLACED_DIM``.
    """
    bound = (math.sqrt(max(rho.mean_photon, 0.0)) + abs(complex(alpha))) ** 2
    trunc = min(_MAX_DISPLACED_DIM, math.ceil(bound + 6.0 * math.sqrt(bound) + 10.0))
    while True:
        try:
            return displaced_photon_distribution(rho, alpha, trunc, tail_tol=tail_tol)
        except TruncationError:
            if trunc >= _MAX_DISPLACED_DIM:
                raise
            trunc = min(_MAX_DISPLACED_DIM, math.ceil(trunc * 1.6) + 10)


def _poisson_vector(mean: float, n_max: int) -> np.ndarray:
    """Poisson probabilities 0..n_max by the stable upward recurrence."""
    q = np.empty(n_max + 1)
    q[0] = math.exp(-mean)
    for n in range(n_max):
        q[n + 1] = q[n] * mean / (n + 1)
    return q


def make_coherent(z, n_max: int, *, tail_tol: float = DEFAULT_TAIL_TOL) -> FockDensityMatrix:
    """Coherent-state projector |z><z| truncated at n_max.

    rho_km = e^(-|z|^2) z^k conj(z)^m / sqrt(k! m!); the truncated trace is the
    Poisson CDF of |z|^2, so n_max must be large enough for the tail to fit
    within tail_tol.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    zc = complex(z)
    amps = np.empty(n_max + 1, dtype=complex)
    amps[0] = math.exp(-0.5 * abs(zc) ** 2)
    for n in range(n_max):
        amps[n + 1] = amps[n] * zc / math.sqrt(n + 1)
    # mirror the strict lower triangle so Hermiticity holds exactly as stored
    # (vectorized complex products may leave FMA residue in the upper copy)
    proj = np.tril(np.outer(amps, amps.conj()), -1)
    proj = proj + proj.conj().T
    np.fill_diagonal(proj, amps.real**2 + amps.imag**2)
    return FockDensityMatrix(proj, tail_tol=tail_tol)


def make_thermal(n_th: float, n_max: int, *, tail_tol: float = DEFAULT_TAIL_TOL) -> FockDensityMatrix:
    """Thermal state with mean photon number n_th: geometric diagonal."""
    if n_th < 0:
        raise ValueError("n_th must be >= 0")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    n = np.arange(n_max + 1)
    ratio = n_th / (1.0 + n_th) if n_th > 0 else 0.0
    diag = np.power(ratio, n) / (1.0 + n_th)
    return FockDensityMatrix(np.diag(diag.astype(complex)), tail_tol=tail_tol)


def make_phase_averaged_coherent(
    z: float, n_max: int, *, tail_tol: float = DEFAULT_TAIL_TOL
) -> FockDensityMatrix:
    """Coherent state with uniformly randomized phase.

    The uniform phase average kills every coherence, leaving the Poisson
    diagonal with mean z^2 and exactly zero off-diagonal entries.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    mean = float(z) ** 2
    diag = _poisson_vector(mean, n_max)
    return FockDensityMatrix(np.diag(diag.astype(complex)), tail_tol=tail_tol)


def make_fock(n: int, n_max: int, *, tail_tol: float = DEFAULT_TAIL_TOL) -> FockDensityMatrix:
    """Projector on the number state |n>."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n_max < n:
        raise ValueError(f"n_max={n_max} cannot hold |{n}>")
    m = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    m[n, n] = 1.0
    return FockDensityMatrix(m, tail_tol=tail_tol)
