"""Wigner function and Fock-basis density matrix from displaced distributions.

Two read-outs of the same inputs p_n(|alpha| e^(i phi)):

* parity sum  W(alpha) = sum_n (-1)^n p_n(alpha), the phase-space quasi
  probability in the parity convention (|W| <= 1);
* phase Fourier transform at harmonic s followed by a least-squares kernel
  inversion, recovering the subdiagonal <m+s|rho|m>.

Convention notes: the implemented parity value equals (pi/2) times the
conventional Wigner function evaluated at -alpha; the sign is irrelevant for
phase-symmetric states and `conventional_wigner_value` performs the (2/pi)
rescale when asked.  The Fourier factor is e^(+i s phi_l), fixed so that a
real-amplitude coherent state recovers a positive real subdiagonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AliasingError, RankDeficiencyError, TruncationError
from .fock import (
    FockDensityMatrix,
    PhotonDistribution,
    _freeze,
    displaced_photon_distribution_auto,
    displacement_matrix,
)

PARITY_BOUND_SLACK = 1e-6
DEFAULT_TAIL_BOUND = 1e-4
DEFAULT_SVD_CUTOFF = 1e-8
DEFAULT_RESIDUAL_BOUND = 0.05
DEFAULT_S_MAX = 2


def _alternating_sum(probs: np.ndarray) -> float:
    signs = np.where(np.arange(probs.size) % 2 == 0, 1.0, -1.0)
    return float(signs @ probs)


def parity_wigner_point(dist: PhotonDistribution, *, tail_bound: float = DEFAULT_TAIL_BOUND) -> float:
    """W(alpha) = sum_n (-1)^n p_n for the distribution at that alpha.

    The alternating sum is tail-sensitive, so distributions carrying more
    than ``tail_bound`` of mass at or beyond the truncation edge are
    rejected.
    """
    if dist.edge_mass > tail_bound:
        raise TruncationError(
            f"edge mass {dist.edge_mass:.3e} exceeds {tail_bound:g}; "
            "parity sum would be unreliable"
        )
    return _alternating_sum(dist.probs)


@dataclass(frozen=True)
class WignerPoint:
    alpha: complex
    value: float
    flagged: bool = False

    def __post_init__(self):
        if abs(self.value) > 1.0 + PARITY_BOUND_SLACK:
            raise ValueError(f"parity value {self.value!r} outside [-1, 1]")


@dataclass(frozen=True)
class WignerMap:
    """Parity-convention Wigner values over a grid of displacements."""

    points: tuple[WignerPoint, ...]

    def values(self) -> np.ndarray:
        return np.array([pt.value for pt in self.points])


def conventional_wigner_value(parity_value: float) -> float:
    """Rescale a parity value to the conventional (2/pi) normalization."""
    return (2.0 / math.pi) * parity_value


def wigner_map_exact(
    rho: FockDensityMatrix,
    alphas,
    *,
    tail_tol: float = 1e-6,
) -> WignerMap:
    """Analytic-path Wigner map: displaced distributions from rho itself.

    This is the oracle route; the truncation grows per grid node until the
    displaced tail fits within tail_tol.
    """
    return WignerMap(points=tuple(
        WignerPoint(alpha=complex(a), value=_alternating_sum(
            displaced_photon_distribution_auto(rho, a, tail_tol=tail_tol).probs))
        for a in np.asarray(alphas, dtype=complex)
    ))


def wigner_map_from_data(pairs) -> WignerMap:
    """Data-path Wigner map: one point per (alpha, distribution) pair, in order.

    Several pairs may share an alpha (every phase record at amplitude 0 does);
    each keeps its own point.  Points whose distribution presses against its
    truncation edge (mass above ``DEFAULT_TAIL_BOUND``) are flagged rather
    than dropped.
    """
    return WignerMap(points=tuple(
        WignerPoint(alpha=complex(a), value=_alternating_sum(dist.probs),
                    flagged=dist.edge_mass > DEFAULT_TAIL_BOUND)
        for a, dist in pairs
    ))


def phase_fourier(dists, s: int) -> np.ndarray:
    """Discrete phase Fourier component at harmonic s.

    Args:
        dists: distributions at the uniform phases phi_l = 2*pi*(l-1)/N_phi,
            in that order, all truncated at the same n_max.
        s: harmonic order; requires N_phi > 2*s (Nyquist), else the component
            aliases onto lower ones.

    Returns:
        Complex vector N_phi^(-1) sum_l p_n(|alpha| e^(i phi_l)) e^(i s phi_l).
    """
    probs = [d.probs for d in dists]
    n_phi = len(probs)
    if n_phi < 1:
        raise ValueError("need at least one distribution")
    if s < 0:
        raise ValueError("s must be >= 0")
    sizes = {p.size for p in probs}
    if len(sizes) != 1:
        raise ValueError("all distributions must share the same truncation")
    if n_phi <= 2 * s:
        raise AliasingError(
            f"N_phi={n_phi} cannot resolve harmonic s={s} (need N_phi > 2s)"
        )
    stack = np.stack(probs)
    phases = 2.0 * math.pi * np.arange(n_phi) / n_phi
    return np.exp(1j * s * phases) @ stack / n_phi


def _check_inversion(amp: float, s: int, m_max: int | None, n_max: int | None,
                     n_phi: int | None = None) -> None:
    """The rules an inversion up to harmonic s needs, checked before any work.

    ``m_max`` None stands for the automatic range (m >= 0); ``n_max`` or
    ``n_phi`` None skips the rules that need them.
    """
    need = s + (m_max or 0)
    if s < 0:
        raise ValueError("s must be >= 0")
    if n_max is not None and n_max < need:
        raise ValueError(f"distribution truncation n_max={n_max} too small for m_max + s = {need}")
    if n_phi is not None and n_phi <= 2 * s:
        raise AliasingError(f"N_phi={n_phi} cannot resolve harmonic s={s} (need N_phi > 2s)")
    if s > 0 and amp == 0:
        raise ValueError("zero displacement carries no off-diagonal information")


@dataclass(frozen=True)
class KernelInverse:
    """Forward kernel G^(s) and its SVD pseudo-inverse F at fixed |alpha|.

    G relates the phase-Fourier data to the subdiagonal:
    ptilde^(s) = G rho^(s), with G_nm = <n|D(|alpha|)|m+s> <n|D(|alpha|)|m>.
    F is the minimum-norm least-squares inverse restricted to singular values
    above the relative cutoff; ``condition`` is the ratio of the extreme
    retained singular values.
    """

    s: int
    amp: float
    n_max: int
    m_max: int
    forward: np.ndarray
    inverse: np.ndarray
    condition: float
    singular_values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "forward", _freeze(np.asarray(self.forward, float)))
        object.__setattr__(self, "inverse", _freeze(np.asarray(self.inverse, float)))
        object.__setattr__(
            self, "singular_values", _freeze(np.asarray(self.singular_values, float))
        )

    def apply(self, ptilde: np.ndarray) -> np.ndarray:
        """Least-squares solve for the subdiagonal coefficients."""
        return self.inverse @ np.asarray(ptilde)

    def residual(self, ptilde: np.ndarray, coeffs: np.ndarray) -> float:
        """|| G coeffs - ptilde ||_2, the unexplained part of the data."""
        return float(np.linalg.norm(self.forward @ coeffs - np.asarray(ptilde)))


def build_kernel(
    s: int,
    amp: float,
    n_max: int,
    m_max: int,
    *,
    svd_cutoff: float = DEFAULT_SVD_CUTOFF,
) -> KernelInverse:
    """Assemble G^(s) and its pseudo-inverse for subdiagonal order s.

    Requires a real amp, amp > 0 when s > 0 (zero displacement carries no
    off-diagonal information) and n_max >= m_max + s.

    Raises:
        RankDeficiencyError: if fewer than m_max + 1 singular values survive
            the relative cutoff; the error names the largest safe m.
    """
    if complex(amp).imag != 0:
        raise ValueError("kernel displacement must have real amplitude")
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    if amp < 0 or not math.isfinite(amp):
        raise ValueError("amp must be finite and >= 0")
    _check_inversion(amp, s, m_max, n_max)
    d = displacement_matrix(amp, n_max + 1).real
    G = d[:, s : m_max + s + 1] * d[:, : m_max + 1]
    u, sg, vt = np.linalg.svd(G, full_matrices=False)
    keep = sg > svd_cutoff * sg[0]
    n_keep = int(keep.sum())
    if n_keep < m_max + 1:
        raise RankDeficiencyError(
            f"kernel rank {n_keep} below requested m_max + 1 = {m_max + 1}; "
            f"largest safely recoverable m is {n_keep - 1}",
            largest_safe_m=n_keep - 1,
        )
    F = (vt[keep].T / sg[keep]) @ u[:, keep].T
    condition = float(sg[keep][0] / sg[keep][-1])
    return KernelInverse(
        s=s,
        amp=amp,
        n_max=n_max,
        m_max=m_max,
        forward=G,
        inverse=F,
        condition=condition,
        singular_values=sg,
    )


@dataclass(frozen=True)
class SubdiagonalFit:
    """Recovered <m+s|rho|m> for one harmonic, with inversion diagnostics."""

    s: int
    values: np.ndarray
    condition: float
    residual: float
    reliable: bool

    def __post_init__(self):
        object.__setattr__(self, "values", _freeze(np.asarray(self.values, complex)))


@dataclass(frozen=True)
class DensityMatrixResult:
    """Near-diagonal density-matrix elements, Hermitian by construction.

    Stored values cover (m+s, m) for each fitted harmonic s and its m range;
    the mirrored elements follow by conjugation through :meth:`element`.
    """

    amp: float
    fits: tuple[SubdiagonalFit, ...]

    def fit(self, s: int) -> SubdiagonalFit:
        for f in self.fits:
            if f.s == s:
                return f
        raise KeyError(f"harmonic s={s} was not reconstructed")

    def element(self, n: int, m: int) -> complex:
        if n < m:
            return complex(np.conj(self.element(m, n)))
        f = self.fit(n - m)
        if m >= f.values.size:
            raise KeyError(f"element ({n},{m}) outside the reconstructed range")
        return complex(f.values[m])

    def items(self):
        """Yield ((n, m), value) over every reconstructed element and mirror."""
        for f in self.fits:
            for m, v in enumerate(f.values):
                yield (m + f.s, m), complex(v)
                if f.s > 0:
                    yield (m, m + f.s), complex(np.conj(v))

    def to_matrix(self) -> np.ndarray:
        """Dense complex matrix with NaN at unreconstructed positions."""
        dim = max(f.s + f.values.size for f in self.fits)
        out = np.full((dim, dim), np.nan + 0j)
        for (n, m), v in self.items():
            out[n, m] = v
        return out


def reconstruct_density_matrix(
    dists,
    amp: float,
    s_max: int = DEFAULT_S_MAX,
    m_max: int | None = None,
    *,
    svd_cutoff: float = DEFAULT_SVD_CUTOFF,
    residual_bound: float = DEFAULT_RESIDUAL_BOUND,
) -> DensityMatrixResult:
    """Phase Fourier transform plus kernel inversion for s = 0..s_max.

    Args:
        dists: distributions at uniform phases (see :func:`phase_fourier`),
            all truncated at the same n_max with n_max >= m_max + s_max.
        amp: displacement modulus shared by all phases.
        m_max: largest recovered index m.  None fits the widest range the
            kernel rank supports (up to n_max - s per harmonic); the fit must
            span the state's support, or truncating the model columns biases
            the low-m elements.  An explicit m_max beyond the kernel rank
            raises RankDeficiencyError.
        residual_bound: fits whose data residual exceeds this are marked
            unreliable (kept, never hidden).
    """
    dists = list(dists)
    if not dists:
        raise ValueError("need at least one distribution")
    n_max = dists[0].n_max
    _check_inversion(amp, s_max, m_max, n_max, len(dists))
    auto_m = m_max is None
    fits = []
    for s in range(s_max + 1):
        ptilde = phase_fourier(dists, s)
        target = n_max - s if auto_m else m_max
        while True:
            try:
                kern = build_kernel(s, amp, n_max, target, svd_cutoff=svd_cutoff)
                break
            except RankDeficiencyError as err:
                if not auto_m or err.largest_safe_m < 0:
                    raise
                target = err.largest_safe_m
        coeffs = kern.apply(ptilde)
        resid = kern.residual(ptilde, coeffs)
        fits.append(
            SubdiagonalFit(
                s=s,
                values=coeffs,
                condition=kern.condition,
                residual=resid,
                reliable=resid <= residual_bound,
            )
        )
    return DensityMatrixResult(amp=amp, fits=tuple(fits))
