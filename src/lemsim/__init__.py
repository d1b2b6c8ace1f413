"""lemsim: exact-diagonalization study of decoherence suppression for
quantum information stored in the ground state and a local energy minimum
of a small interacting pseudo-spin cluster."""

from types import ModuleType as _ModuleType

from ._version import __version__
from .cluster import (
    ClusterParams,
    bits_to_config,
    build_hamiltonian,
    classical_energies,
    classical_energy,
    config_to_bits,
    hamming_distance,
    uniform_couplings,
)
from .config import parse_config, render_config
# after .config, which imports .dynamics first: importing .collective
# ahead of it raises the start-up peak RSS by 0.3 MB (see .sweep)
from .collective import block_eigenvalues, cluster_levels
from .dynamics import (
    CoherenceTrace,
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
    UnderflowError,
    ValidationError,
)
from .perturbation import multiphoton_path_sum, scaling_exponent
from .spectrum import (
    cluster_eigensystem,
    cluster_eigenvalues,
    degeneracy_tolerance,
    diagonalize,
    dress,
    eigenvalues,
    find_local_minima,
    overlap_decay,
    typical_level_spacing,
)
from .sweep import (
    ClusterProblem,
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

# the re-exported names, not the submodules that importing them binds here
__all__ = [
    name
    for name, value in sorted(globals().items())
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
