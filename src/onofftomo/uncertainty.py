"""Bootstrap error propagation and comparison against theoretical states.

Replicas resample every off count from Binomial(N, f_k) — the same mechanism
that generated the data — and push the resampled datasets through the chosen
reconstruction pipeline.  Per-replica substreams are keyed on
(seed, replica, record), so a parallel run would reproduce the sequential
results exactly.

Both targets are read-outs of the same displaced photon-number
distributions: :func:`wigner_readout` takes their parities and
:func:`dm_readout` inverts their phase harmonics.  An :class:`EMPipeline`
holds an EM configuration and any number of read-outs, so one bootstrap
solves each replica's EM once and reads it out for every target.
"""

from __future__ import annotations

import dataclasses
import logging
from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

import numpy as np

from .detector import OnOffDataset
from .emrecon import EMConfig, reconstruct_pn_batch
from .emrecon import reconstruct_pn  # noqa: F401  (perfbench/tracer.py patches it here)
from .errors import BootstrapError, ReconstructionError
from .fock import FockDensityMatrix, _freeze
from .inversion import (
    DEFAULT_SVD_CUTOFF,
    DensityMatrixResult,
    reconstruct_density_matrix,
    wigner_map_from_data,
)

logger = logging.getLogger(__name__)

_MAX_FAILURE_FRACTION = 0.2  # failed replicas beyond this share abort the bootstrap


@dataclass(frozen=True)
class ErrorReport:
    """Bootstrap mean and spread of one reconstructed quantity."""

    tag: str
    mean: complex
    stddev: float
    replicas: int

    def __post_init__(self):
        if self.stddev < 0:
            raise ValueError("stddev must be >= 0")
        if self.replicas < 2:
            raise ValueError("need at least 2 replicas")


def wigner_tag(amp: float, phase: float) -> str:
    return f"wigner[{amp:.12g},{phase:.12g}]"


def dm_tag(n: int, m: int) -> str:
    return f"dm[{n},{m}]"


def wigner_readout(datasets, dists) -> dict:
    """Parity value at each dataset's own modulation point."""
    wmap = wigner_map_from_data((ds.alpha, d) for ds, d in zip(datasets, dists))
    return {wigner_tag(ds.amp, ds.phase): pt.value for ds, pt in zip(datasets, wmap.points)}


def dm_readout(
    amp: float, s_max: int, m_max: int | None, svd_cutoff: float = DEFAULT_SVD_CUTOFF
) -> Callable[[list, list], dict]:
    """Phase Fourier + kernel inversion -> lower-triangle element table.

    The distributions must be the phase records of a single amplitude,
    ordered by phase, on one shared truncation.  ``m_max`` (None fits the
    widest range the kernel rank supports) and ``svd_cutoff`` go to
    :func:`reconstruct_density_matrix` as given, so with the point
    estimate's values every replica runs the point estimate's estimator.
    The kernel depends on the inputs here and the truncation alone, so a
    replica's read-out fails only where the point estimate's did.
    """

    def readout(_datasets, dists):
        result = reconstruct_density_matrix(
            dists, amp, s_max=s_max, m_max=m_max, svd_cutoff=svd_cutoff
        )
        return {dm_tag(n, m): v for (n, m), v in result.items() if n >= m}

    return readout


@dataclass(frozen=True)
class EMPipeline:
    """EM on every record, then each ``readout(datasets, distributions)`` -> {tag: value}.

    :func:`bootstrap` solves the EM of all replicas in one call and applies
    :meth:`read` to each replica, so every read-out shares one EM solve.
    """

    em_config: EMConfig | None
    readouts: tuple[Callable[[list, list], dict], ...]

    def read(self, datasets, results) -> dict:
        """The union of the read-outs of solved records; a failed record
        raises its error."""
        for res in results:
            if isinstance(res, ReconstructionError):
                raise res
        dists = [res.distribution for res in results]
        return {tag: value for readout in self.readouts
                for tag, value in readout(datasets, dists).items()}

    def __call__(self, datasets) -> dict:
        return self.read(datasets, reconstruct_pn_batch(datasets, self.em_config))


def wigner_pipeline(em_config: EMConfig | None = None) -> EMPipeline:
    """EM -> parity value at each dataset's own modulation point."""
    return EMPipeline(em_config, (wigner_readout,))


def dm_pipeline(
    amp: float,
    s_max: int,
    m_max: int | None,
    em_config: EMConfig,
    *,
    svd_cutoff: float = DEFAULT_SVD_CUTOFF,
) -> EMPipeline:
    """EM per phase -> :func:`dm_readout`.

    The EM truncation must be pinned in ``em_config`` so every phase shares it.
    """
    if em_config.n_max is None:
        raise ValueError("dm_pipeline needs a fixed em_config.n_max")
    return EMPipeline(em_config, (dm_readout(amp, s_max, m_max, svd_cutoff),))


def _resample(ds: OnOffDataset, seed: int, replica: int, record: int) -> OnOffDataset:
    rng = np.random.default_rng([seed, replica, record])
    counts = rng.binomial(ds.shots, ds.frequencies).astype(np.int64)
    return dataclasses.replace(ds, off_counts=counts)


def bootstrap(
    datasets,
    pipeline,
    n_replicas: int,
    seed: int,
) -> list[ErrorReport]:
    """Nonparametric error bars for everything the pipeline reports.

    Args:
        datasets: the measured records to resample.
        pipeline: callable mapping a list of datasets to {tag: value}.
        n_replicas: B >= 2 bootstrap replications.
        seed: base seed; fixed seed => identical reports.

    An :class:`EMPipeline` has the records of all replicas solved in one EM
    call, then reads out each replica; any other pipeline runs once per
    replica.  A replica fails when one of its records or read-outs fails,
    and then for every read-out; more than a fifth of failed replicas aborts
    with BootstrapError.
    """
    datasets = list(datasets)
    if n_replicas < 2:
        raise ValueError("need at least 2 replicas")
    if not datasets:
        raise ValueError("need at least one dataset")
    replicas = [[_resample(ds, seed, b, r) for r, ds in enumerate(datasets)]
                for b in range(n_replicas)]
    if isinstance(pipeline, EMPipeline):
        solved = reconstruct_pn_batch([ds for rep in replicas for ds in rep], pipeline.em_config)
        size = len(datasets)
        runs = [partial(pipeline.read, rep, solved[b * size:(b + 1) * size])
                for b, rep in enumerate(replicas)]
    else:
        runs = [partial(pipeline, rep) for rep in replicas]
    samples: dict[str, list[complex]] = defaultdict(list)
    failures = 0
    for b, run in enumerate(runs):
        try:
            values = run()
        except ReconstructionError as exc:
            failures += 1
            logger.warning("bootstrap replica %d failed: %s", b, exc)
            continue
        for tag, value in values.items():
            samples[tag].append(value)
    if failures > _MAX_FAILURE_FRACTION * n_replicas:
        raise BootstrapError(
            f"{failures}/{n_replicas} bootstrap replicas failed to reconstruct"
        )
    successes = n_replicas - failures
    reports = []
    for tag, vals in samples.items():
        arr = np.asarray(vals)
        mean = arr.mean()
        spread = float(np.sqrt(np.sum(np.abs(arr - mean) ** 2) / (arr.size - 1)))
        mean_out = float(mean.real) if np.isrealobj(arr) else complex(mean)
        reports.append(ErrorReport(tag=tag, mean=mean_out, stddev=spread, replicas=successes))
    return reports


@dataclass(frozen=True)
class DeltaMap:
    """Entrywise |rho_exp - rho_theory| over the reconstructed index set.

    NaN marks positions the reconstruction did not cover; the map is
    symmetric because both inputs are Hermitian.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, float)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError("delta map must be square")
        with np.errstate(invalid="ignore"):
            if np.any(v < 0):
                raise ValueError("delta entries must be >= 0")
        object.__setattr__(self, "values", _freeze(v))

    def max(self) -> float:
        return float(np.nanmax(self.values))

    def rows(self):
        """Yield (n, m, delta) over covered entries, row-major."""
        dim = self.values.shape[0]
        for n in range(dim):
            for m in range(dim):
                if not np.isnan(self.values[n, m]):
                    yield n, m, float(self.values[n, m])


def delta_map(exp: DensityMatrixResult, theory: FockDensityMatrix) -> DeltaMap:
    """Absolute differences between reconstructed and theoretical elements."""
    dim = max(f.s + f.values.size for f in exp.fits)
    if theory.dim < dim:
        raise ValueError(
            f"theory truncation {theory.dim} too small for reconstructed range {dim}"
        )
    out = np.full((dim, dim), np.nan)
    for (n, m), v in exp.items():
        out[n, m] = abs(v - theory.entries[n, m])
    return DeltaMap(out)
