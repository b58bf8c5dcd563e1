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
efficiency grid form an (R, n_max + 1) array, zero-padded up to the largest
truncation among them, so one pass is two matrix products for the whole
block.  Every row keeps its own stopping test and diagnostics, and a row
that fails numerically leaves the block with its error.  Anderson
extrapolation stays per record.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .detector import OnOffDataset, _thinning_matrix
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
    return P @ A.T


def _row_failures(prenorm: np.ndarray, p_off: np.ndarray) -> dict[int, IllConditionedError]:
    """The error of every row whose model off probability underflowed or whose
    update mass is not positive and finite, keyed by row."""
    low = p_off.min(axis=1)
    bad = (low < _DIV_FLOOR) | ~((prenorm > 0) & (prenorm < np.inf))
    return {
        j: IllConditionedError(
            f"model off probability underflowed ({low[j]:.3e}); iteration abandoned"
            if low[j] < _DIV_FLOOR
            else f"update produced non-finite mass {float(prenorm[j])!r}"
        )
        for j in np.flatnonzero(bad).tolist()
    }


def _rows_ll(counts: np.ndarray, on: np.ndarray, p_off: np.ndarray) -> np.ndarray:
    """:func:`_binomial_ll` of every row of a block, summed row-wise.

    Called with divide-by-zero warnings off (an off probability of 1).
    """
    log_on = np.log1p(-p_off, where=on > 0, out=np.zeros_like(p_off))
    return (counts * np.log(p_off) + on * log_on).sum(axis=1)


def _update(P: np.ndarray, P_off: np.ndarray, F: np.ndarray, W: np.ndarray):
    """One multiplicative update of every row of P, renormalized.

    Returns (new rows, update bracket, pre-normalization sums).  A row whose
    raw mass is not positive and finite comes out non-finite;
    :func:`_row_failures` names it.
    """
    bracket = (F / P_off) @ W
    new = P * bracket
    prenorm = new.sum(axis=1)
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
    P_off = _model_off(A, P)
    with np.errstate(divide="ignore", invalid="ignore"):
        new, _, prenorm = _update(P, P_off, data.frequencies[None], W)
    failed = _row_failures(prenorm, P_off)
    if failed:
        raise failed[0]
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
        log-likelihood of the plain update, else the plain update.  A
        candidate whose model off probability underflows is rejected."""
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
            cand_ll = self.ll(cand_off) if cand_off.min() >= _DIV_FLOOR else -math.inf
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


def _solve_block(datasets: list[OnOffDataset], n_maxes: list[int],
                 cfg: EMConfig) -> list[EMResult | IllConditionedError]:
    """EM on a block of records that share one efficiency grid.

    Row i holds record i's distribution over 0..n_maxes[i], zero-padded up to
    the block's largest truncation.  Zeros are absorbing under the update
    and the positivity floor covers each row's own support only, so each row
    runs its own estimator; only the rounding of the block's sums differs.
    Every row starts from the uniform distribution on its support and keeps
    its own stopping test, pre-normalization sum and likelihood history.  A
    row leaves the block when it converges, and also when its update mass
    is not positive and finite or its model off probability underflows; its
    result is then that IllConditionedError.  With ``cfg.accelerate`` the
    block must be a single record.
    """
    A = _thinning_matrix(datasets[0].grid.etas, max(n_maxes))
    W = A / A.sum(axis=0, keepdims=True)
    sizes = np.array(n_maxes)[:, None] + 1
    floor = np.where(np.arange(A.shape[1]) < sizes, _DIV_FLOOR, 0.0)
    F = np.array([ds.frequencies for ds in datasets])
    counts = np.array([ds.off_counts for ds in datasets], dtype=float)
    on = np.array([float(ds.shots) for ds in datasets])[:, None] - counts

    # uniform on each row's support: its off probabilities are at least
    # 1 / (n_max + 1), so the start needs no underflow check
    P = (floor > 0) / sizes
    P_off = _model_off(A, P)
    anderson = _Anderson(A, datasets[0], P[0]) if cfg.accelerate else None
    # log-likelihood of iterate t of record i in ll_hist[t, i]; doubled as
    # needed, up to the max_iter + 1 iterates a row can have
    ll_hist = np.empty((min(cfg.max_iter, 1023) + 1, len(datasets)))
    live = np.arange(len(datasets))  # input index of each block row
    results: list[EMResult | IllConditionedError | None] = [None] * len(datasets)

    # a failed row computes non-finite values until the end of its pass
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ll_hist[0] = anderson.ll(P_off[0]) if anderson is not None else _rows_ll(counts, on, P_off)
        for it in range(1, cfg.max_iter + 1):
            plain, bracket, prenorm = _update(P, P_off, F, W)
            residual = np.abs(plain - P).max(axis=1)
            plain = np.maximum(plain, floor)
            plain /= plain.sum(axis=1, keepdims=True)
            plain_off = _model_off(A, plain)
            # a row whose update mass is not positive and finite has a NaN
            # residual, so a quiet pass has no failed row
            quiet = residual.min() >= cfg.tol and plain_off.min() >= _DIV_FLOOR
            failed = {} if quiet else _row_failures(prenorm, plain_off)
            if it == ll_hist.shape[0]:
                ll_hist = np.concatenate(
                    [ll_hist, np.empty((min(it, cfg.max_iter + 1 - it), len(datasets)))])
            if anderson is not None and not failed:
                p, p_off, ll = anderson.step(bracket[0], plain[0], plain_off[0])
                P, P_off = p[None], p_off[None]
            else:
                P, P_off = plain, plain_off
                ll = _rows_ll(counts, on, P_off)
            ll_hist[it, live] = ll

            if it < cfg.max_iter and quiet:
                continue
            done = residual < cfg.tol
            keep = ~done if it < cfg.max_iter else np.zeros_like(done)
            keep[list(failed)] = False
            for j in np.flatnonzero(~keep):
                i = live[j]
                results[i] = failed[j] if j in failed else _result(
                    P[j, : n_maxes[i] + 1], it, bool(done[j]), residual[j], prenorm[j],
                    ll_hist[: it + 1, i], cfg)
            if not keep.any():
                break
            P, P_off, F, counts, on, floor, live = (
                x[keep] for x in (P, P_off, F, counts, on, floor, live))
    return results


def reconstruct_pn_batch(datasets, config: EMConfig | None = None,
                         n_max=None) -> list[EMResult | IllConditionedError]:
    """:func:`reconstruct_pn` for every record, results in input order.

    ``n_max`` gives each record its own truncation in place of
    ``config.n_max`` (where that is None, each record's default).  Plain
    records (``accelerate=False``) that share an efficiency grid are
    iterated together as one block whatever their truncations, which costs
    about as much as a single record; each keeps its own stopping test and
    diagnostics.  Accelerated records run one at a time.  A record whose
    iteration fails numerically gets its IllConditionedError in place of a
    result; the other records are unaffected.
    """
    cfg = config or EMConfig()
    datasets = list(datasets)
    if n_max is None:
        n_max = [cfg.n_max or default_truncation(ds) for ds in datasets]
    blocks: dict = {}
    for i, ds in enumerate(datasets):
        blocks.setdefault(i if cfg.accelerate else ds.grid.etas.tobytes(), []).append(i)
    results: list = [None] * len(datasets)
    for idx in blocks.values():
        solved = _solve_block([datasets[i] for i in idx], [n_max[i] for i in idx], cfg)
        for i, res in zip(idx, solved):
            results[i] = res
    return results


def reconstruct_pn(data: OnOffDataset, config: EMConfig | None = None) -> EMResult:
    """Iterate from the uniform distribution until the update stalls.

    Stops when the max-norm plain update falls below ``config.tol`` or after
    ``config.max_iter`` passes; non-convergence is flagged in the result,
    never silent.  The binomial log-likelihood of every published iterate is
    recorded; it is expected (not guaranteed) to be non-decreasing, and
    decreases are counted and logged.  A numerical failure raises
    IllConditionedError.
    """
    result = reconstruct_pn_batch([data], config)[0]
    if isinstance(result, IllConditionedError):
        raise result
    return result
