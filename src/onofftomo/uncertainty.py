"""Bootstrap error propagation and comparison against theoretical states.

Replicas resample every off count from Binomial(N, f_k) — the same mechanism
that generated the data — and push the resampled datasets through the chosen
reconstruction pipeline.  Per-replica substreams are keyed on
(seed, replica, record), so a parallel run would reproduce the sequential
results exactly.

Both targets are read-outs of the same displaced photon-number
distributions: :func:`wigner_readout` takes their parities and
:func:`dm_readout` inverts their phase harmonics through the point
estimate's kernels.  An :class:`EMPipeline` holds an EM configuration and
any number of read-outs, so one bootstrap solves each replica's EM once and
reads it out for every target.
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
    DensityMatrixResult,
    build_kernel,
    check_dm_input,
    phase_fourier,
    wigner_map_from_data,
)
from .inversion import reconstruct_density_matrix  # noqa: F401  (perfbench/tracer.py patches it here)

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


def dm_readout(kernels) -> Callable[[list, list], dict]:
    """Phase Fourier + one given kernel per harmonic -> lower-triangle
    element table.

    The distributions must be the phase records of a single amplitude,
    ordered by phase, on the kernels' truncation.  Given the point
    estimate's kernels (``[f.kernel for f in result.fits]``), every replica
    applies the point estimate's inversion and builds no kernel.
    """

    def readout(_datasets, dists):
        return {dm_tag(m + k.s, m): complex(v) for k in kernels
                for m, v in enumerate(k.apply(phase_fourier(dists, k.s)))}

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

    def runs(self, replicas, solved) -> list[Callable[[], dict]]:
        """One :meth:`read` per replica, from the results of all their records in order."""
        size = len(replicas[0])
        return [partial(self.read, rep, solved[b * size:(b + 1) * size])
                for b, rep in enumerate(replicas)]


def wigner_pipeline(em_config: EMConfig | None = None) -> EMPipeline:
    """EM -> parity value at each dataset's own modulation point."""
    return EMPipeline(em_config, (wigner_readout,))


def dm_pipeline(amp: float, s_max: int, m_max: int | None, em_config: EMConfig) -> EMPipeline:
    """EM per phase -> :func:`dm_readout` of kernels built once here.

    The EM truncation must be pinned in ``em_config`` so every phase shares it.
    """
    if em_config.n_max is None:
        raise ValueError("dm_pipeline needs a fixed em_config.n_max")
    check_dm_input(amp, s_max, m_max, em_config.n_max)
    kernels = [build_kernel(s, amp, em_config.n_max, m_max) for s in range(s_max + 1)]
    return EMPipeline(em_config, (dm_readout(kernels),))


def resample(datasets, n_replicas: int, seed: int) -> list[list[OnOffDataset]]:
    """``n_replicas`` replicas of the records: every off count redrawn from
    Binomial(N, f_k), record r of replica b from substream (seed, b, r)."""
    datasets = list(datasets)
    if n_replicas < 2:
        raise ValueError("need at least 2 replicas")
    if not datasets:
        raise ValueError("need at least one dataset")
    return [[dataclasses.replace(ds, off_counts=np.random.default_rng([seed, b, r]).binomial(
                ds.shots, ds.frequencies).astype(np.int64))
             for r, ds in enumerate(datasets)] for b in range(n_replicas)]


def summarize(runs) -> list[ErrorReport]:
    """Mean and spread of every tag over ``runs``, one callable per replica
    returning {tag: value}.  A replica whose call raises ReconstructionError
    fails for every tag; more than a fifth of them raises BootstrapError."""
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
    if failures > _MAX_FAILURE_FRACTION * len(runs):
        raise BootstrapError(
            f"{failures}/{len(runs)} bootstrap replicas failed to reconstruct"
        )
    successes = len(runs) - failures
    reports = []
    for tag, vals in samples.items():
        arr = np.asarray(vals)
        mean = arr.mean()
        spread = float(np.sqrt(np.sum(np.abs(arr - mean) ** 2) / (arr.size - 1)))
        mean_out = float(mean.real) if np.isrealobj(arr) else complex(mean)
        reports.append(ErrorReport(tag=tag, mean=mean_out, stddev=spread, replicas=successes))
    return reports


def bootstrap(datasets, pipeline, n_replicas: int, seed: int) -> list[ErrorReport]:
    """Nonparametric error bars for everything the pipeline reports.

    Args:
        datasets: the measured records to resample.
        pipeline: callable mapping a list of datasets to {tag: value}.
        n_replicas: B >= 2 bootstrap replications.
        seed: base seed; fixed seed => identical reports.

    An :class:`EMPipeline` has the records of all replicas solved in one EM
    call, then reads out each replica; any other pipeline runs once per
    replica.  :func:`summarize` says when a replica fails.
    """
    replicas = resample(datasets, n_replicas, seed)
    if isinstance(pipeline, EMPipeline):
        solved = reconstruct_pn_batch([ds for rep in replicas for ds in rep], pipeline.em_config)
        return summarize(pipeline.runs(replicas, solved))
    return summarize([partial(pipeline, rep) for rep in replicas])


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


def delta_map(exp: DensityMatrixResult, theory: FockDensityMatrix) -> DeltaMap:
    """Absolute differences between reconstructed and theoretical elements."""
    rho_exp = exp.to_matrix()
    dim = rho_exp.shape[0]
    if theory.dim < dim:
        raise ValueError(
            f"theory truncation {theory.dim} too small for reconstructed range {dim}"
        )
    diff = rho_exp - theory.entries[:dim, :dim]
    # hypot rounds as abs() of each complex entry does; np.abs on a complex
    # array may differ from it in the last bit
    return DeltaMap(np.hypot(diff.real, diff.imag))
