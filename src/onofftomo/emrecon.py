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
that fails numerically leaves the block with its error.

Accelerated records that share a grid and a truncation form a block too,
but there each row's arithmetic is that of its one-record solve, bit for
bit: the Anderson safeguard compares log-likelihoods that often differ only
by rounding, so a 2-d block product, which rounds differently from the
one-record matrix-vector product, would change which steps pass.  So their
products run as one matrix-vector call per row, and one stacked ``lstsq``
call solves each row's least-squares problem as ``np.linalg.lstsq`` would.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
# the gufunc behind np.linalg.lstsq, which refuses stacks of matrices; it runs
# the same gelsd call on each matrix of a stack, so each rounds as if alone
from numpy.linalg._umath_linalg import lstsq as _stacked_lstsq

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
_EPS = float(np.finfo(float).eps)


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


def _binomial_ll(counts: np.ndarray, on: np.ndarray, p_off: np.ndarray) -> float:
    """sum_k [c_k ln p_k + (N - c_k) ln(1 - p_k)], degenerate terms dropped;
    ``on`` holds the N - c_k.

    A count at the boundary (c = 0 or c = N) drops the factor whose
    multiplier vanishes, so all-off vacuum data scores exactly 0.
    """
    off_mask, on_mask = counts > 0, on > 0
    with np.errstate(divide="ignore"):
        off_ll = float(counts[off_mask] @ np.log(p_off[off_mask]))
        return off_ll + float(on[on_mask] @ np.log1p(-p_off[on_mask]))


def log_likelihood(p: PhotonDistribution, data: OnOffDataset) -> float:
    """Binomial log-likelihood of the observed off counts under p."""
    A = _thinning_matrix(data.grid.etas, p.n_max)
    return _binomial_ll(data.off_counts, data.shots - data.off_counts, A @ p.probs)


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


def _model_off(A: np.ndarray, P: np.ndarray, matmul=np.matmul) -> np.ndarray:
    """Off probabilities of every row of P, shape (R, K).

    ``P @ A.T`` on the transposed view, as one 2-d product for a plain
    block; with ``matmul=np.vecmat`` (accelerated blocks), one
    matrix-vector call per row, each row equals ``A @ p`` bit for bit.
    """
    return matmul(P, A.T)


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


def _update(P: np.ndarray, P_off: np.ndarray, F: np.ndarray, W: np.ndarray, matmul=np.matmul):
    """One multiplicative update of every row of P, renormalized.

    Returns (new rows, update bracket, pre-normalization sums).  A row whose
    raw mass is not positive and finite comes out non-finite;
    :func:`_row_failures` names it.  ``matmul`` forms the bracket as in
    :func:`_model_off`.
    """
    bracket = matmul(F / P_off, W)
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


def _lstsq_rows(dR: np.ndarray, r: np.ndarray) -> np.ndarray:
    """``np.linalg.lstsq(dR[j], r[j], rcond=None)[0]`` of every row j in one
    call, shape (R, m, 1): the same rcond, gelsd call and LinAlgError."""
    def failed(err, flag):
        raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")
    with np.errstate(call=failed, invalid="call"):
        return _stacked_lstsq(dR, r[:, :, None], _EPS * max(dR.shape[1:]), signature="ddd->ddid")[0]


class _Anderson:
    """Safeguarded Anderson extrapolation over the log-iterates of a block of
    records that share one truncation.

    The log-iterates must be finite, so the block has no zero-padded rows.
    Every row's arithmetic is that of the record solved alone, bit for bit,
    because the accept test compares log-likelihoods that often differ only
    by rounding.  So the matrix products (model off probabilities and the
    extrapolation ``(dX + dR) @ gamma``) run one matrix-vector call per row;
    all rows' least-squares problems go to one :func:`_lstsq_rows` call; and
    the log-likelihood is a row-wise dot only on rows with no count at 0 or
    N, where it equals :func:`_binomial_ll`'s masked dot.  The other rows
    take that masked dot itself.
    """

    def __init__(self, A: np.ndarray, counts: np.ndarray, on: np.ndarray, P: np.ndarray):
        self.A, self.counts, self.on = A, counts, on
        self.edge = np.flatnonzero(((counts == 0) | (on == 0)).any(axis=1)).tolist()
        self.log_p = np.log(P)
        self.prev_log_p = self.prev_r = None
        # differences of the last passes per row, oldest first, in the `m` columns
        # from `start` (lstsq rounds by column order); shifted once per window
        self.dx = np.empty(P.shape + (2 * _ANDERSON_MEMORY,))
        self.dr = np.empty_like(self.dx)
        self.start = self.m = 0

    def keep(self, rows: np.ndarray) -> None:
        """Drop the rows that leave the block."""
        for name in ("counts", "on", "log_p", "prev_log_p", "prev_r", "dx", "dr"):
            setattr(self, name, getattr(self, name)[rows])
        self.edge = np.flatnonzero(np.isin(np.flatnonzero(rows), self.edge)).tolist()

    def ll(self, P_off: np.ndarray) -> np.ndarray:
        """:func:`_binomial_ll` of every row.

        Called with divide-by-zero warnings off (an off probability of 1).
        """
        ll = np.vecdot(self.counts, np.log(P_off)) + np.vecdot(self.on, np.log1p(-P_off))
        for j in self.edge:
            ll[j] = _binomial_ll(self.counts[j], self.on[j], P_off[j])
        return ll

    def step(self, bracket: np.ndarray, plain: np.ndarray, plain_off: np.ndarray, skip):
        """Next (P, P_off, ll): per row, the extrapolated candidate if it
        keeps the log-likelihood of the plain update, else the plain update.
        A candidate whose model off probability underflows is rejected, and
        rows in ``skip`` (failed this pass) take the plain update unsolved."""
        r = np.log(np.maximum(bracket, _DIV_FLOOR))
        if self.prev_log_p is not None:
            if self.m < _ANDERSON_MEMORY:
                self.m += 1
            else:
                self.start += 1
            if self.start + self.m > self.dx.shape[-1]:  # at the end: the newest m - 1 go first
                for h in (self.dx, self.dr):
                    h[..., : self.m - 1] = h[..., self.start :]
                self.start = 0
            np.subtract(self.log_p, self.prev_log_p, out=self.dx[..., self.start + self.m - 1])
            np.subtract(r, self.prev_r, out=self.dr[..., self.start + self.m - 1])
        self.prev_log_p, self.prev_r = self.log_p, r
        P, P_off, ll = plain, plain_off, self.ll(plain_off)
        if self.m:
            dX, dR = (h[..., self.start : self.start + self.m] for h in (self.dx, self.dr))
            gamma = np.zeros((len(r), self.m, 1)) if skip else _lstsq_rows(dR, r)
            if skip:  # failed rows stay out of the solve, at gamma 0
                rows = [j for j in range(len(r)) if j not in skip]
                gamma[rows] = _lstsq_rows(dR[rows], r[rows])
            x_cand = self.log_p + r - np.matmul(dX + dR, gamma)[:, :, 0]
            np.minimum(np.maximum(x_cand, _LOG_FLOOR, out=x_cand), 50.0, out=x_cand)
            cand = np.exp(x_cand - x_cand.max(axis=1, keepdims=True))
            cand /= cand.sum(axis=1, keepdims=True)
            np.maximum(cand, _DIV_FLOOR, out=cand)
            cand /= cand.sum(axis=1, keepdims=True)
            cand_off = _model_off(self.A, cand, np.vecmat)
            cand_ll = np.where(cand_off.min(axis=1) >= _DIV_FLOOR, self.ll(cand_off), -math.inf)
            take = cand_ll >= ll - _SAFEGUARD_SLACK * np.maximum(1.0, np.abs(ll))
            if take.all():
                P, P_off, ll = cand, cand_off, cand_ll
            elif take.any():
                P = np.where(take[:, None], cand, plain)
                P_off = np.where(take[:, None], cand_off, plain_off)
                ll = np.where(take, cand_ll, ll)
        self.log_p = np.log(P)
        return P, P_off, ll


def _result(p, iterations, converged, residual, prenorm, ll_hist) -> EMResult:
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
    result is then that IllConditionedError.  With ``cfg.accelerate`` every
    row has the same truncation and runs through :class:`_Anderson`, whose
    products are row-wise.
    """
    matmul = np.vecmat if cfg.accelerate else np.matmul
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
    P_off = _model_off(A, P, matmul)
    anderson = _Anderson(A, counts, on, P) if cfg.accelerate else None
    # log-likelihood of iterate t of record i in ll_hist[t, i]; doubled as
    # needed, up to the max_iter + 1 iterates a row can have
    ll_hist = np.empty((min(cfg.max_iter, 1023) + 1, len(datasets)))
    live = np.arange(len(datasets))  # input index of each block row
    results: list[EMResult | IllConditionedError | None] = [None] * len(datasets)

    # a failed row computes non-finite values until the end of its pass
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ll_hist[0] = anderson.ll(P_off) if anderson is not None else _rows_ll(counts, on, P_off)
        for it in range(1, cfg.max_iter + 1):
            plain, bracket, prenorm = _update(P, P_off, F, W, matmul)
            residual = np.abs(plain - P).max(axis=1)
            plain = np.maximum(plain, floor)
            plain /= plain.sum(axis=1, keepdims=True)
            plain_off = _model_off(A, plain, matmul)
            # a row whose update mass is not positive and finite has a NaN
            # residual, so a quiet pass has no failed row
            quiet = residual.min() >= cfg.tol and plain_off.min() >= _DIV_FLOOR
            failed = {} if quiet else _row_failures(prenorm, plain_off)
            if it == ll_hist.shape[0]:
                ll_hist = np.concatenate(
                    [ll_hist, np.empty((min(it, cfg.max_iter + 1 - it), len(datasets)))])
            if anderson is not None:
                P, P_off, ll = anderson.step(bracket, plain, plain_off, failed)
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
                    ll_hist[: it + 1, i])
            if not keep.any():
                break
            P, P_off, F, counts, on, floor, live = (
                x[keep] for x in (P, P_off, F, counts, on, floor, live))
            if anderson is not None:
                anderson.keep(keep)
    return results


def reconstruct_pn_batch(datasets, config: EMConfig | None = None,
                         n_max=None) -> list[EMResult | IllConditionedError]:
    """:func:`reconstruct_pn` for every record, results in input order.

    ``n_max`` gives each record its own truncation in place of
    ``config.n_max`` (where that is None, each record's default).  Plain
    records (``accelerate=False``) that share an efficiency grid are
    iterated together as one block whatever their truncations, which costs
    about as much as a single record; each keeps its own stopping test and
    diagnostics.  Accelerated records form one block per grid and
    truncation (Anderson works on log-iterates, so zero-padded rows cannot
    join); their products run row by row, so each result is bit-identical to
    the record's one-record solve.  A record that stops at ``max_iter`` is
    logged at INFO with its row in ``datasets``, amplitude and phase.  A
    record whose iteration fails numerically gets its IllConditionedError in
    place of a result; the other records are unaffected.
    """
    cfg = config or EMConfig()
    datasets = list(datasets)
    if n_max is None:
        n_max = [cfg.n_max or default_truncation(ds) for ds in datasets]
    blocks: dict = {}
    for i, ds in enumerate(datasets):
        grid = ds.grid.etas.tobytes()
        blocks.setdefault((grid, n_max[i]) if cfg.accelerate else grid, []).append(i)
    results: list = [None] * len(datasets)
    for idx in blocks.values():
        solved = _solve_block([datasets[i] for i in idx], [n_max[i] for i in idx], cfg)
        for i, res in zip(idx, solved):
            results[i] = res
            if isinstance(res, EMResult) and not res.converged:
                logger.info("EM hit max_iter=%d with residual %.3e (tol %.1e) on row %d "
                            "(amp %.6g, phase %.6g)", cfg.max_iter, res.residual, cfg.tol, i,
                            datasets[i].amp, datasets[i].phase)
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
