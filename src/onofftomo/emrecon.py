"""Photon-number distribution recovery from off-click frequencies.

The estimator is the multiplicative maximum-likelihood iteration for the
linear click model f_k ~ P_off(eta_k) = sum_n A_kn p_n with loss weights
A_kn = (1 - eta_k)^n:

    p_n  <-  p_n * sum_k (A_kn / sum_j A_jn) * (f_k / p_off_k[p]),

where the inner sum over j runs over the efficiency grid, so the update
weights form a convex combination and exact model data is a fixed point.
Each published iterate is renormalized to unit sum; the pre-normalization sum
is kept as a diagnostic of how far the raw update drifts from mass
conservation.

The efficiency grid maps Fock components to off probabilities through a
severely ill-conditioned (Vandermonde-like) matrix, so the plain iteration
crawls through flat likelihood directions.  ``reconstruct_pn`` therefore
supports Anderson extrapolation over the log-iterates: candidate steps are
accepted only when they do not lose log-likelihood against the plain update,
which leaves the fixed points (and the exact-data invariance) untouched while
cutting the iteration count by orders of magnitude.

The plain iteration runs on a block of records at once: rows that share an
efficiency grid and a truncation form an (R, n_max + 1) array, so one pass
is two matrix products for the whole block.  Every row keeps its own
stopping test and diagnostics.  Anderson extrapolation stays per record.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .detector import OnOffDataset
from .errors import IllConditionedError
from .fock import PhotonDistribution, _freeze

logger = logging.getLogger(__name__)

DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 100_000

_DIV_FLOOR = 1e-300
_TRUNCATION_CAP = 200
_LOG_FLOOR = -700.0
_ANDERSON_MEMORY = 10
_SAFEGUARD_SLACK = 1e-12


@dataclass(frozen=True)
class EMConfig:
    """Iteration controls.

    ``n_max`` is the reconstruction truncation (None = data-driven default),
    ``tol`` the max-norm stopping threshold on the plain update, ``max_iter``
    the cap on update passes.  With ``accelerate`` every pass also evaluates
    one Anderson candidate (two model evaluations per pass); without it the
    loop is the bare multiplicative iteration.
    """

    n_max: int | None = None
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER
    accelerate: bool = True

    def __post_init__(self):
        if self.n_max is not None and self.n_max < 1:
            raise ValueError("n_max must be >= 1")
        if not (self.tol > 0):
            raise ValueError("tol must be > 0")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass(frozen=True)
class EMResult:
    """Converged (or capped) reconstruction plus diagnostics.

    ``ll_history[i]`` is the binomial log-likelihood of iterate i (0 = the
    uniform start); ``residual`` is the max-norm plain update at the last
    pass and ``prenorm_sum`` the final pre-normalization mass.
    """

    distribution: PhotonDistribution
    iterations: int
    final_ll: float
    converged: bool
    residual: float
    ll_history: np.ndarray
    prenorm_sum: float
    ll_decreases: int

    def __post_init__(self):
        total = float(self.distribution.probs.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"EM iterate not normalized: sum={total!r}")
        object.__setattr__(self, "ll_history", _freeze(np.asarray(self.ll_history, float)))


def _thinning_matrix(etas: np.ndarray, n_max: int) -> np.ndarray:
    """A_kn = (1 - eta_k)^n, shape (K, n_max + 1)."""
    n = np.arange(n_max + 1)
    return np.power.outer(1.0 - etas, n)


def _binomial_ll(counts: np.ndarray, shots: int, p_off: np.ndarray) -> float:
    """sum_k [c_k ln p_k + (N - c_k) ln(1 - p_k)], degenerate terms dropped.

    A count at the boundary (c = 0 or c = N) drops the factor whose
    multiplier vanishes, so all-off vacuum data scores exactly 0.
    """
    on = shots - counts
    off_mask, on_mask = counts > 0, on > 0
    with np.errstate(divide="ignore"):
        off_ll = float(counts[off_mask] @ np.log(p_off[off_mask]))
        return off_ll + float(on[on_mask] @ np.log1p(-p_off[on_mask]))


def log_likelihood(p: PhotonDistribution, data: OnOffDataset) -> float:
    """Binomial log-likelihood of the observed off counts under p."""
    A = _thinning_matrix(data.grid.etas, p.n_max)
    return _binomial_ll(data.off_counts, data.shots, A @ p.probs)


def default_truncation(data: OnOffDataset) -> int:
    """Data-driven reconstruction truncation n_max.

    The mean photon number is estimated from the small-efficiency decay of
    the off frequency (-ln f_k / eta_k -> <n> as eta -> 0, since
    dP_off/deta|_0 = -<n>), taking the median over the three smallest grid
    points; the truncation then allows six standard deviations of Poisson
    headroom plus a fixed margin: ceil(m + 6 sqrt(m)) + 5.
    """
    f = np.clip(data.frequencies, 1.0 / (2.0 * data.shots), 1.0)
    k = min(3, data.grid.size)
    est = -np.log(f[:k]) / data.grid.etas[:k]
    mean_est = max(float(np.median(est)), 0.0)
    n_max = math.ceil(mean_est + 6.0 * math.sqrt(mean_est)) + 5
    return min(max(n_max, 1), _TRUNCATION_CAP)


def _model_off(A: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Off probabilities of every row of P, shape (R, K).

    ``P @ A.T`` on the transposed view: for one row this equals the
    matrix-vector product ``A @ p`` bit for bit, so the accelerated
    iteration, whose accept decisions and pass counts follow the rounding,
    does not depend on the block form.
    """
    p_off = P @ A.T
    if p_off.min() < _DIV_FLOOR:
        raise IllConditionedError(
            f"model off probability underflowed ({p_off.min():.3e}); "
            "iteration abandoned"
        )
    return p_off


def _rows_ll(counts: np.ndarray, on: np.ndarray, p_off: np.ndarray) -> np.ndarray:
    """:func:`_binomial_ll` of every row of a block, summed row-wise."""
    with np.errstate(divide="ignore"):
        log_on = np.log1p(-p_off, where=on > 0, out=np.zeros_like(p_off))
    return (counts * np.log(p_off) + on * log_on).sum(axis=1)


def _update(P: np.ndarray, P_off: np.ndarray, F: np.ndarray, W: np.ndarray):
    """One multiplicative update of every row of P, renormalized.

    Returns (new rows, update bracket, pre-normalization sums).  A row whose
    raw mass is not positive and finite fails the whole block.
    """
    bracket = (F / P_off) @ W
    new = P * bracket
    prenorm = new.sum(axis=1)
    for total in prenorm.tolist():
        if not (total > 0 and math.isfinite(total)):
            raise IllConditionedError(f"update produced non-finite mass {total!r}")
    new /= prenorm[:, None]
    return new, bracket, prenorm


def em_step(p: PhotonDistribution, data: OnOffDataset) -> PhotonDistribution:
    """Apply one multiplicative update to p and renormalize.

    Zeros of p are absorbing under the update, so the iterate should be
    strictly positive wherever mass may be needed.
    """
    A = _thinning_matrix(data.grid.etas, p.n_max)
    W = A / A.sum(axis=0, keepdims=True)
    P = p.probs[None]
    new, _, _ = _update(P, _model_off(A, P), data.frequencies[None], W)
    return PhotonDistribution(new[0])


class _Anderson:
    """Safeguarded Anderson extrapolation over the log-iterates of one record.

    It works on 1-d rows with :func:`_binomial_ll`: the accept test compares
    log-likelihoods that often differ only by rounding, so evaluating a block
    of records with other BLAS call shapes would change which steps pass.
    """

    def __init__(self, A: np.ndarray, data: OnOffDataset, p: np.ndarray):
        self.A, self.counts, self.shots = A, data.off_counts, data.shots
        self.log_p = np.log(p)
        self.prev_log_p = self.prev_r = None
        self.dx: list[np.ndarray] = []
        self.dr: list[np.ndarray] = []

    def ll(self, p_off: np.ndarray) -> float:
        return _binomial_ll(self.counts, self.shots, p_off)

    def step(self, bracket: np.ndarray, plain: np.ndarray, plain_off: np.ndarray):
        """Next (p, p_off, ll): the extrapolated candidate if it keeps the
        log-likelihood of the plain update, else the plain update."""
        r = np.log(np.clip(bracket, _DIV_FLOOR, None))
        if self.prev_log_p is not None:
            self.dx.append(self.log_p - self.prev_log_p)
            self.dr.append(r - self.prev_r)
            if len(self.dx) > _ANDERSON_MEMORY:
                del self.dx[0], self.dr[0]
        self.prev_log_p, self.prev_r = self.log_p, r
        p, p_off, ll = plain, plain_off, self.ll(plain_off)
        if self.dx:
            dX = np.stack(self.dx, axis=1)
            dR = np.stack(self.dr, axis=1)
            gamma, *_ = np.linalg.lstsq(dR, r, rcond=None)
            x_cand = np.clip(self.log_p + r - (dX + dR) @ gamma, _LOG_FLOOR, 50.0)
            cand = np.exp(x_cand - x_cand.max())
            cand /= cand.sum()
            cand = np.clip(cand, _DIV_FLOOR, None)
            cand /= cand.sum()
            cand_off = _model_off(self.A, cand[None])[0]
            cand_ll = self.ll(cand_off)
            if cand_ll >= ll - _SAFEGUARD_SLACK * max(1.0, abs(ll)):
                p, p_off, ll = cand, cand_off, cand_ll
        self.log_p = np.log(p)
        return p, p_off, ll


def _result(p, iterations, converged, residual, prenorm, ll_hist, cfg) -> EMResult:
    if not converged:
        logger.info(
            "EM hit max_iter=%d with residual %.3e (tol %.1e)",
            cfg.max_iter,
            residual,
            cfg.tol,
        )
    ll = np.asarray(ll_hist)
    drops = np.diff(ll) < -1e-12 * np.maximum(1.0, np.abs(ll[:-1]))
    n_drops = int(drops.sum())
    if n_drops:
        logger.debug(
            "log-likelihood decreased on %d/%d steps (worst %.3e)",
            n_drops,
            ll.size - 1,
            float(np.diff(ll)[drops].min()),
        )
    return EMResult(
        distribution=PhotonDistribution(p),
        iterations=iterations,
        final_ll=float(ll[-1]),
        converged=converged,
        residual=float(residual),
        ll_history=ll,
        prenorm_sum=float(prenorm),
        ll_decreases=n_drops,
    )


def _solve_block(datasets: list[OnOffDataset], n_max: int, cfg: EMConfig) -> list[EMResult]:
    """EM on an (R, n_max + 1) block of records that share one efficiency grid.

    Every row starts from the uniform distribution and keeps its own
    stopping test, pre-normalization sum and likelihood history; a row that
    converges leaves the block.  With ``cfg.accelerate`` the block must be a
    single record.
    """
    A = _thinning_matrix(datasets[0].grid.etas, n_max)
    W = A / A.sum(axis=0, keepdims=True)
    F = np.array([ds.frequencies for ds in datasets])
    counts = np.array([ds.off_counts for ds in datasets], dtype=float)
    on = np.array([float(ds.shots) for ds in datasets])[:, None] - counts

    P = np.full((len(datasets), n_max + 1), 1.0 / (n_max + 1))
    P_off = _model_off(A, P)
    anderson = _Anderson(A, datasets[0], P[0]) if cfg.accelerate else None
    # log-likelihood of iterate t of record i in ll_hist[t, i]; doubled as needed
    ll_hist = np.empty((min(cfg.max_iter, 1023) + 1, len(datasets)))
    ll_hist[0] = anderson.ll(P_off[0]) if anderson is not None else _rows_ll(counts, on, P_off)
    live = np.arange(len(datasets))  # input index of each block row
    results: list[EMResult | None] = [None] * len(datasets)

    for it in range(1, cfg.max_iter + 1):
        plain, bracket, prenorm = _update(P, P_off, F, W)
        residual = np.abs(plain - P).max(axis=1)
        plain = np.clip(plain, _DIV_FLOOR, None)
        plain /= plain.sum(axis=1, keepdims=True)
        plain_off = _model_off(A, plain)
        if it == ll_hist.shape[0]:
            ll_hist = np.concatenate([ll_hist, np.empty_like(ll_hist)])
        if anderson is not None:
            p, p_off, ll = anderson.step(bracket[0], plain[0], plain_off[0])
            P, P_off = p[None], p_off[None]
        else:
            P, P_off = plain, plain_off
            ll = _rows_ll(counts, on, P_off)
        ll_hist[it, live] = ll

        if it < cfg.max_iter and residual.min() >= cfg.tol:
            continue
        done = residual < cfg.tol
        keep = ~done if it < cfg.max_iter else np.zeros_like(done)
        for j in np.flatnonzero(~keep):
            i = live[j]
            results[i] = _result(P[j], it, bool(done[j]), residual[j], prenorm[j],
                                 ll_hist[: it + 1, i], cfg)
        if not keep.any():
            break
        P, P_off, F, counts, on, live = (x[keep] for x in (P, P_off, F, counts, on, live))
    return results


def reconstruct_pn_batch(datasets, config: EMConfig | None = None) -> list[EMResult]:
    """:func:`reconstruct_pn` for every record, results in input order.

    Plain records (``accelerate=False``) that share an efficiency grid and a
    truncation are iterated together as one block, which costs about as much
    as a single record; each keeps its own stopping test and diagnostics.
    Accelerated records run one at a time.  A numerical failure of any
    record raises for the whole call.
    """
    cfg = config or EMConfig()
    datasets = list(datasets)
    blocks: dict = {}
    for i, ds in enumerate(datasets):
        n_max = cfg.n_max if cfg.n_max is not None else default_truncation(ds)
        key = i if cfg.accelerate else (n_max, ds.grid.etas.tobytes())
        blocks.setdefault(key, (n_max, []))[1].append(i)
    results: list[EMResult | None] = [None] * len(datasets)
    for n_max, idx in blocks.values():
        for i, res in zip(idx, _solve_block([datasets[i] for i in idx], n_max, cfg)):
            results[i] = res
    return results


def reconstruct_pn(data: OnOffDataset, config: EMConfig | None = None) -> EMResult:
    """Iterate from the uniform distribution until the update stalls.

    Stops when the max-norm plain update falls below ``config.tol`` or after
    ``config.max_iter`` passes; non-convergence is flagged in the result,
    never silent.  The binomial log-likelihood of every published iterate is
    recorded; it is expected (not guaranteed) to be non-decreasing, and
    decreases are counted and logged.
    """
    return reconstruct_pn_batch([data], config)[0]
