"""State reconstruction from on/off photodetection of modulated light.

The toolkit simulates binary (click / no-click) detection of coherently
displaced field states over a grid of quantum efficiencies, recovers the
photon-number distribution from the off-click frequencies (a multiplicative
iteration on the Poisson-type likelihood, or a Newton solve of the binomial
likelihood plus an entropy term), and assembles the results into Wigner-function
values (photon-parity sums) and Fock-basis density-matrix elements (phase
Fourier transform plus least-squares kernel inversion), with bootstrap error
propagation.
"""

from .detector import (
    DEFAULT_SHOTS,
    EfficiencyGrid,
    ModulationSpec,
    OnOffDataset,
    off_probabilities,
    off_probability,
    simulate_dataset,
    uniform_grid,
)
from .emrecon import (
    EMConfig,
    EMResult,
    default_truncation,
    em_step,
    reconstruct_pn,
    reconstruct_pn_batch,
)
from .errors import (
    AliasingError,
    BootstrapError,
    ConfigError,
    IllConditionedError,
    RankDeficiencyError,
    ReconstructionError,
    TruncationError,
)
from .fock import (
    DEFAULT_TAIL_TOL,
    FockDensityMatrix,
    PhotonDistribution,
    displaced_photon_distribution,
    displacement_matrix,
    make_coherent,
    make_fock,
    make_phase_averaged_coherent,
    make_thermal,
)
from .inversion import (
    DensityMatrixResult,
    KernelInverse,
    SubdiagonalFit,
    WignerMap,
    WignerPoint,
    build_kernel,
    conventional_wigner_value,
    parity_wigner_point,
    phase_fourier,
    reconstruct_density_matrix,
    wigner_map_exact,
    wigner_map_from_data,
)
from .uncertainty import DeltaMap, ErrorReport, bootstrap, delta_map, dm_pipeline, wigner_pipeline

__all__ = [
    "AliasingError",
    "BootstrapError",
    "ConfigError",
    "DEFAULT_SHOTS",
    "DEFAULT_TAIL_TOL",
    "DeltaMap",
    "DensityMatrixResult",
    "EMConfig",
    "EMResult",
    "EfficiencyGrid",
    "ErrorReport",
    "FockDensityMatrix",
    "IllConditionedError",
    "KernelInverse",
    "ModulationSpec",
    "OnOffDataset",
    "PhotonDistribution",
    "RankDeficiencyError",
    "ReconstructionError",
    "SubdiagonalFit",
    "TruncationError",
    "WignerMap",
    "WignerPoint",
    "bootstrap",
    "build_kernel",
    "conventional_wigner_value",
    "default_truncation",
    "delta_map",
    "displaced_photon_distribution",
    "displacement_matrix",
    "dm_pipeline",
    "em_step",
    "make_coherent",
    "make_fock",
    "make_phase_averaged_coherent",
    "make_thermal",
    "off_probabilities",
    "off_probability",
    "parity_wigner_point",
    "phase_fourier",
    "reconstruct_density_matrix",
    "reconstruct_pn",
    "reconstruct_pn_batch",
    "simulate_dataset",
    "uniform_grid",
    "wigner_map_exact",
    "wigner_map_from_data",
    "wigner_pipeline",
]

__version__ = "0.1.0"
