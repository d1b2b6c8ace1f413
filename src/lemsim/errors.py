"""Exception taxonomy shared by all modules.

Every error carries an ``exit_status`` so the command line surface can map
failures onto a stable set of process exit codes, and a ``code`` that names
its kind in a sweep row's ``error`` column:

    1  validation errors (bad input, bad config, domain violations)
    2  numerical errors (degeneracies, strong mixing, integrator trouble,
       results below the double range)
    3  capacity errors (more spins than doubles can count, or more memory
       than is available)
"""

import sys

import numpy as np


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


class UnderflowError(NumericalError):
    """A result that is not exactly zero fell below the normal double range."""

    code = "underflow"


def require_normal(value: float, what: str) -> None:
    """Raise UnderflowError when ``value``, which is not exactly zero, came
    out 0 or subnormal: printed, it would read as data."""
    if abs(value) < sys.float_info.min:
        raise UnderflowError(f"{what} underflows the double range: {value!r}")


def is_integer(value) -> bool:
    """Whether ``value`` is an integer, Python's or numpy's, and not a bool,
    which Python counts as one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


class CapacityError(SimulationError):
    """Problem size exceeds the spin count doubles can count, a route's spin
    budget or the memory available."""

    exit_status = 3
    code = "capacity"
