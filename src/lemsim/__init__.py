"""lemsim: exact-diagonalization study of decoherence suppression for
quantum information stored in the ground state and a local energy minimum
of a small interacting pseudo-spin cluster."""

from ._version import __version__
from .cluster import (
    ClusterParams,
    MAX_SPINS,
    bits_to_config,
    build_hamiltonian,
    classical_energies,
    classical_energy,
    config_to_bits,
    hamming_distance,
    uniform_couplings,
)
from .config import RunConfig, parse_config, render_config
# after .config, which imports .dynamics first (see .sweep)
from .collective import block_eigenvalues, collective_form, symmetric_dressed
from .dynamics import (
    CoherenceTrace,
    TrajectoryConfig,
    default_time_step,
    evolve_superposition,
)
from .errors import (
    CapacityError,
    ConfigError,
    DegeneracyError,
    InsufficientDataError,
    IntegrationError,
    NumericalError,
    SimulationError,
    StrongMixingError,
    ValidationError,
)
from .perturbation import (
    PathSumResult,
    multiphoton_path_sum,
    scaling_exponent,
)
from .spectrum import (
    DressedState,
    EigenSystem,
    LandscapeReport,
    LocalMinimum,
    OverlapDecay,
    cluster_eigensystem,
    cluster_eigenvalues,
    degeneracy_tolerance,
    diagonalize,
    dress,
    eigenvalues,
    find_local_minima,
    overlap_decay,
    require_own_vector,
    typical_level_spacing,
)
from .sweep import (
    ClusterProblem,
    ScalingFit,
    SweepGrid,
    SweepRow,
    fit_size_scaling,
    run_sweep,
    uniform_ferromagnet,
)
from .transition import (
    CouplingSpec,
    RateReport,
    check_bound,
    lifetime_extension,
    matrix_element,
)

__all__ = [name for name in dir() if not name.startswith("_")]
