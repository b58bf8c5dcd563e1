"""Photon-number distribution recovery from off-click frequencies.

The click model is linear: f_k ~ P_off(eta_k) = sum_n A_kn p_n with loss
weights A_kn = (1 - eta_k)^n.  Two estimators recover p from the off counts
c_k of N shots each.

The plain estimator is the multiplicative iteration

    p_n  <-  p_n * sum_k (A_kn / sum_j A_jn) * (f_k / p_off_k[p]),

where the inner sum over j runs over the efficiency grid, so the update
weights form a convex combination and exact model data is a fixed point.
Its fixed points are stationary points of the Poisson-type likelihood
sum_k [f_k ln P_k - P_k] of the off frequencies (Shepp & Vardi, IEEE TMI 1,
113, 1982), not the binomial maximum-likelihood estimate.
Each published iterate is renormalized to unit sum; the pre-normalization sum
is kept as a diagnostic of how far the raw update drifts from mass
conservation.  It runs on a block of records at once: rows that share an
efficiency grid form an (R, n_max + 1) array, zero-padded up to the largest
truncation among them, so one pass is two matrix products for the whole
block.  Every row keeps its own stopping test and diagnostics, and a row
that fails numerically leaves the block with its error.  Each iterate's
likelihood is scored in batches of up to 64 passes, and before any row
stops, with the same bits as scoring every pass.  Stopped after a fixed pass
budget, it is the finite-shot estimator.

The likelihood alone does not pick an estimate.  The grid maps Fock
components to off probabilities through a severely ill-conditioned
(Vandermonde-like) matrix, so the maximum-likelihood set is a flat face of
distributions whose off probabilities agree to the shot noise but whose
parity sums (the Wigner values) differ by tenths.  The accelerated
estimator therefore maximizes the strictly concave

    l(p) / N + lam * H(p),    H(p) = -sum_n p_n ln p_n,

over the simplex (maximum-likelihood maximum-entropy), where l is the
binomial log-likelihood.  Its optimum is unique.  The weight lam =
1 / sqrt(N) is the size of the shot noise in the off frequencies, so the
data decide every direction they resolve and the entropy the flat ones; it
is a heuristic that fits the 30000- and 10^12-shot data measured, not a
derivation.  It is solved by Newton's method with the equality constraint
sum_n p_n = 1: one dense KKT system per step, a backtracking step that
keeps p > 0 and 0 < A p < 1, and lam followed down from 0.1 by factors of
10, each stage warm-started, until half the squared Newton decrement is at
most ``tol``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .detector import OnOffDataset, _thinning_matrix
from .errors import IllConditionedError
from .fock import PhotonDistribution

logger = logging.getLogger(__name__)

DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 100_000

_DIV_FLOOR = 1e-300
_TRUNCATION_CAP = 200
_ARMIJO = 0.25  # share of the predicted gain a Newton step must realize
_HALVINGS = 60  # backtracking halvings before a step counts as stalled
_LL_BATCH = 64  # plain-EM passes scored in one likelihood call, with at most
_LL_FLOATS = 2**14  # off probabilities: temporaries > 128 KiB fault in fresh pages


@dataclass(frozen=True)
class EMConfig:
    """Estimator controls.

    ``n_max`` is the reconstruction truncation (None = data-driven default).
    Without ``accelerate``, the plain multiplicative iteration stops when
    its max-norm update falls below ``tol`` or after ``max_iter`` passes.
    With it, the entropy-regularized Newton solve (module docstring) stops
    when half its squared Newton decrement is at most ``tol`` or after
    ``max_iter`` Newton steps; its weight lam = 1 / sqrt(shots) comes from
    the data.
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

    ``final_ll`` is the binomial log-likelihood of the last iterate; the
    accelerated solve scores its objective's likelihood term
    N sum_k w_k ln (M p)_k, the same sum up to rounding (see
    :func:`_newton_solve`).  Each solver scores its likelihood as it goes and
    counts its falls; no per-pass history is kept.  For the plain iteration
    ``iterations`` counts passes, ``residual`` is the max-norm update at the
    last pass and ``prenorm_sum`` the final pre-normalization mass; ``ll_decreases`` counts passes that
    lowered the log-likelihood.  For the accelerated solve ``iterations``
    counts Newton steps, ``residual`` is half the squared Newton decrement,
    ``prenorm_sum`` is 1.0, ``lam`` the final entropy weight 1 / sqrt(N),
    and ``ll_decreases`` counts steps that lowered their stage's objective
    l / N + lam H, since l alone is traded against entropy.
    """

    distribution: PhotonDistribution
    iterations: int
    final_ll: float
    converged: bool
    residual: float
    prenorm_sum: float
    ll_decreases: int
    lam: float | None = None

    def __post_init__(self):
        total = float(self.distribution.probs.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"EM iterate not normalized: sum={total!r}")


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
    est = np.sort(-np.log(f[:k]) / data.grid.etas[:k])
    # np.median's value (a NaN sorts last), without the numpy.ma import it makes
    median = np.nan if np.isnan(est[-1]) else 0.5 * (est[(k - 1) // 2] + est[k // 2])
    mean_est = max(float(median), 0.0)
    n_max = math.ceil(mean_est + 6.0 * math.sqrt(mean_est)) + 5
    return min(max(n_max, 1), _TRUNCATION_CAP)


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
    """sum_k [c_k ln p_k + (N - c_k) ln(1 - p_k)] of every row of an (R, K) block
    or (T, R, K) stack; ``on`` holds the N - c_k, and an on count of 0 adds 0.

    Same bits either way; called with divide-by-zero warnings off (p_off = 1).
    """
    log_on = np.log1p(-p_off, where=on > 0, out=np.zeros_like(p_off))
    return (counts * np.log(p_off) + on * log_on).sum(axis=-1)


def _update(P: np.ndarray, P_off: np.ndarray, F: np.ndarray, W: np.ndarray):
    """One multiplicative update of every row of P, renormalized.

    Returns (new rows, pre-normalization sums).  A row whose raw mass is not
    positive and finite comes out non-finite; :func:`_row_failures` names it.
    """
    new = P * ((F / P_off) @ W)
    prenorm = new.sum(axis=1)
    new /= prenorm[:, None]
    return new, prenorm


def em_step(p: PhotonDistribution, data: OnOffDataset) -> PhotonDistribution:
    """Apply one multiplicative update to p and renormalize.

    Zeros of p are absorbing under the update, so the iterate should be
    strictly positive wherever mass may be needed.
    """
    A = _thinning_matrix(data.grid.etas, p.n_max)
    W = A / A.sum(axis=0, keepdims=True)
    P = p.probs[None]
    P_off = P @ A.T
    with np.errstate(divide="ignore", invalid="ignore"):
        new, prenorm = _update(P, P_off, data.frequencies[None], W)
    failed = _row_failures(prenorm, P_off)
    if failed:
        raise failed[0]
    return PhotonDistribution(new[0])


def _falls(before, after):
    """after - before where it is a fall, below -1e-12 max(1, |before|), else 0."""
    change = after - before
    return np.where(change < -1e-12 * np.maximum(1.0, np.abs(before)), change, 0.0)


def _solve_rows(datasets: list[OnOffDataset], n_maxes: list[int],
                cfg: EMConfig) -> list[tuple | IllConditionedError]:
    """EM on a block of records that share one efficiency grid.

    Row i holds record i's distribution over 0..n_maxes[i], zero-padded up to
    the block's largest truncation.  Zeros are absorbing under the update
    and the positivity floor covers each row's own support only, so each row
    runs its own estimator; only the rounding of the block's sums differs.
    Every row starts from the uniform distribution on its support and keeps
    its own stopping test and pre-normalization sum.  Its likelihood is
    scored at every pass and its falls counted, but not stored.  A row
    leaves the block when it converges, and also when its update mass is
    not positive and finite or its model off probability underflows.  Each
    row's outcome is (p, passes, converged, residual, prenorm_sum, final_ll,
    falls, worst fall, None), :func:`_newton_solve`'s tuple without a lam,
    or that IllConditionedError.
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
    P_off = P @ A.T
    live = np.arange(len(datasets))  # input index of each block row
    results: list[tuple | IllConditionedError | None] = [None] * len(datasets)
    falls, worst = np.zeros(len(datasets), int), np.zeros(len(datasets))  # per input row
    # the off probabilities of passes first..it
    buf, first = np.empty((min(_LL_BATCH, max(1, _LL_FLOATS // P_off.size)), *P_off.shape)), 1

    # a failed row computes non-finite values until the end of its pass
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ll = _rows_ll(counts, on, P_off)  # of each block row's last scored iterate
        for it in range(1, cfg.max_iter + 1):
            new, prenorm = _update(P, P_off, F, W)
            residual = np.abs(new - P).max(axis=1)
            P = np.maximum(new, floor)
            P /= P.sum(axis=1, keepdims=True)
            P_off = np.matmul(P, A.T, out=buf[it - first])
            # a row whose update mass is not positive and finite has a NaN
            # residual, so a quiet pass has no failed row
            quiet = residual.min() >= cfg.tol and P_off.min() >= _DIV_FLOOR and it < cfg.max_iter
            if quiet and it - first < len(buf) - 1:
                continue
            scored = np.concatenate([ll[None], _rows_ll(counts, on, buf[: it + 1 - first])])
            fell = _falls(scored[:-1], scored[1:])
            falls[live] += (fell < 0).sum(axis=0)
            worst[live] = np.minimum(worst[live], fell.min(axis=0))
            ll, first = scored[-1], it + 1
            if quiet:
                continue

            failed = _row_failures(prenorm, P_off)
            done = residual < cfg.tol
            keep = ~done if it < cfg.max_iter else np.zeros_like(done)
            keep[list(failed)] = False
            for j in np.flatnonzero(~keep):
                i = live[j]
                results[i] = failed[j] if j in failed else (
                    P[j, : n_maxes[i] + 1], it, bool(done[j]), residual[j], prenorm[j],
                    ll[j], falls[i], worst[i], None)
            if not keep.any():
                break
            P, P_off, F, counts, on, floor, live, ll = (
                x[keep] for x in (P, P_off, F, counts, on, floor, live, ll))
            buf = np.empty((len(buf), *P_off.shape))
    return results


def _newton_solve(data: OnOffDataset, n_max: int, cfg: EMConfig) -> tuple | IllConditionedError:
    """Maximize l(p) / N + lam H(p) over the simplex for one record.

    The likelihood per shot is sum_k w_k ln (M p)_k: the rows of A weighted
    by f_k and the rows of 1 - A (on probabilities, exact when p_0 is near 1)
    weighted by 1 - f_k, rows of weight 0 left out; N times it, the binomial
    log-likelihood l on the simplex, is scored after every step, and the
    falls of the stage objective counted, not stored.  Starts from the
    uniform distribution and follows lam from 0.1 down by factors of 10 to
    1 / sqrt(N).  Returns (p, steps, converged, half the squared decrement,
    1.0, final l, falls, worst fall, lam), or an IllConditionedError when no
    distribution reaches the counts (an on count at eta = 0).  A stage also
    ends when ``_HALVINGS`` halvings find no step that realizes its share of
    the predicted gain; the result is unconverged when that happens at the
    last stage, or after ``cfg.max_iter`` Newton steps.
    """
    A = _thinning_matrix(data.grid.etas, n_max)
    f = data.frequencies
    M = np.vstack([A[f > 0], 1.0 - A[f < 1]])
    w = np.concatenate([f[f > 0], 1.0 - f[f < 1]])
    p = np.full(n_max + 1, 1.0 / (n_max + 1))
    mp = M @ p
    if not (mp > 0).all():
        return IllConditionedError("on counts at eta = 0: no distribution reaches the data")
    lam_end = 1.0 / math.sqrt(data.shots)
    kkt = np.zeros((n_max + 2, n_max + 2))
    kkt[-1, :-1] = kkt[:-1, -1] = 1.0
    ll, steps, falls, worst = float(w @ np.log(mp)), 0, 0, 0.0  # ll per shot
    for lam in [10.0**-j for j in range(1, 20) if 10.0**-j > lam_end] + [lam_end]:
        while True:
            grad = M.T @ (w / mp) - lam * (np.log(p) + 1.0)
            kkt[:-1, :-1] = hess = (M.T * (w / mp**2)) @ M + np.diag(lam / p)
            step = np.linalg.solve(kkt, np.append(grad, 0.0))[:-1]
            dec = 0.5 * float(step @ hess @ step)
            if dec <= cfg.tol or steps >= cfg.max_iter:
                break
            # halve until p and M p stay positive and the step realizes a
            # share of its predicted gain 2 dec; the gain is summed from
            # log1p of relative changes, so it stays exact near the optimum
            rel_mp, rel_p, t = (M @ step) / mp, step / p, 1.0
            for _ in range(_HALVINGS):
                new = p + t * step
                if (new > 0).all() and (M @ new > 0).all():
                    gain = w @ np.log1p(t * rel_mp) - lam * (
                        new @ np.log1p(t * rel_p) + t * step @ np.log(p))
                    if gain >= _ARMIJO * t * 2.0 * dec:
                        break
                t *= 0.5
            else:  # no step gains at this precision: on to the next stage
                break
            before = ll - lam * float(p @ np.log(p))
            p = new / new.sum()
            mp = M @ p
            ll, steps = float(w @ np.log(mp)), steps + 1
            fell = float(_falls(before, ll - lam * float(p @ np.log(p))))
            falls, worst = falls + (fell < 0), min(worst, fell)
    return p, steps, dec <= cfg.tol, dec, 1.0, data.shots * ll, falls, worst, lam_end


def reconstruct_pn_batch(datasets, config: EMConfig | None = None,
                         n_max=None) -> list[EMResult | IllConditionedError]:
    """:func:`reconstruct_pn` for every record, results in input order.

    ``n_max`` gives each record its own truncation in place of
    ``config.n_max`` (where that is None, each record's default).  Plain
    records (``accelerate=False``) that share an efficiency grid are
    iterated together as one block whatever their truncations, which costs
    about as much as a single record; each keeps its own stopping test and
    diagnostics.  Accelerated records are solved one at a time, each in a
    few dozen Newton steps.  A record that stops unconverged is logged at
    INFO with its row in ``datasets``, amplitude and phase.  A record whose
    iteration fails numerically gets its IllConditionedError in place of a
    result; the other records are unaffected.
    """
    cfg = config or EMConfig()
    datasets = list(datasets)
    if n_max is None:
        n_max = [cfg.n_max or default_truncation(ds) for ds in datasets]
    if cfg.accelerate:
        solved = [_newton_solve(ds, m, cfg) for ds, m in zip(datasets, n_max)]
    else:
        blocks: dict = {}
        for i, ds in enumerate(datasets):
            blocks.setdefault(ds.grid.etas.tobytes(), []).append(i)
        solved = [None] * len(datasets)
        for idx in blocks.values():
            rows = _solve_rows([datasets[i] for i in idx], [n_max[i] for i in idx], cfg)
            for i, res in zip(idx, rows):
                solved[i] = res
    results: list = []
    for i, res in enumerate(solved):
        if not isinstance(res, IllConditionedError):
            p, iterations, converged, residual, prenorm, ll, falls, worst, lam = res
            if falls:
                logger.debug("%s decreased on %d/%d steps (worst %.3e)",
                             "objective l/N + lam H" if cfg.accelerate else "log-likelihood",
                             falls, iterations, worst)
            res = EMResult(distribution=PhotonDistribution(p), iterations=iterations,
                           final_ll=float(ll), converged=converged, residual=float(residual),
                           prenorm_sum=float(prenorm), ll_decreases=int(falls), lam=lam)
            if not res.converged:
                logger.info("EM hit max_iter=%d with residual %.3e (tol %.1e) on row "
                            "%d (amp %.6g, phase %.6g)", cfg.max_iter, res.residual,
                            cfg.tol, i, datasets[i].amp, datasets[i].phase)
        results.append(res)
    return results


def reconstruct_pn(data: OnOffDataset, config: EMConfig | None = None) -> EMResult:
    """Estimate one record's distribution from the uniform start.

    The plain iteration stops when its max-norm update falls below
    ``config.tol`` or after ``config.max_iter`` passes; the accelerated
    solve when half its squared Newton decrement is at most ``config.tol``
    or after ``config.max_iter`` steps.  Non-convergence is flagged in the
    result, never silent.  The binomial log-likelihood of every published
    iterate is scored and its decreases counted and logged, not stored; the
    plain iteration is expected (not guaranteed) to raise it at every pass,
    and the accelerated one trades it against entropy, so there the stage
    objective's decreases are counted.  ``final_ll`` is the last iterate's.
    A numerical failure raises IllConditionedError.
    """
    result = reconstruct_pn_batch([data], config)[0]
    if isinstance(result, IllConditionedError):
        raise result
    return result
