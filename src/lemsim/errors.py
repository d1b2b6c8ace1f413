"""Exception taxonomy shared by all modules.

Every error carries an ``exit_status`` so the command line surface can map
failures onto a stable set of process exit codes, and a ``code`` that names
its kind in a sweep row's ``error`` column:

    1  validation errors (bad input, bad config, domain violations)
    2  numerical errors (degeneracies, strong mixing, integrator trouble)
    3  capacity errors (problem size over the dense-matrix budget)
"""


class SimulationError(Exception):
    """Base class for all errors raised by this package."""

    exit_status = 1
    code = "validation"


class ValidationError(SimulationError):
    """Invalid input: wrong dimensions, out-of-range values, domain violations."""

    exit_status = 1
    code = "validation"


class ConfigError(ValidationError):
    """Malformed or inconsistent run configuration text."""


class InsufficientDataError(ValidationError):
    """Not enough usable points for a requested fit."""

    code = "insufficient_data"


class NumericalError(SimulationError):
    """A numerical procedure failed or its preconditions do not hold."""

    exit_status = 2
    code = "numerical"


class DegeneracyError(NumericalError):
    """An energy denominator or level gap is degenerate within tolerance."""

    code = "degeneracy"


class StrongMixingError(NumericalError):
    """No eigenstate retains majority overlap with the requested anchor."""

    code = "strong_mixing"


class IntegrationError(NumericalError):
    """Step-size instability detected during time integration."""


class CapacityError(SimulationError):
    """Problem size exceeds the configured dense-matrix or path budget."""

    exit_status = 3
    code = "capacity"
