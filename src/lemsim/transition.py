"""Golden-rule matrix elements between dressed states and the size bound.

The transition rate between two dressed states under fluctuating on-site
(sigma^z channel) and tunneling (sigma^x channel) couplings is proportional
to the squared static matrix element evaluated with unit-amplitude noise.
All rates are dimensionless ratios to an overall constant that absorbs the
noise spectral weight; the acceptance suite pins that constant against a
trajectory simulation (``tests/calibration.py``, criterion 7).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .cluster import ClusterParams, sign_table
from .errors import ValidationError
from .spectrum import DressedState, same_eigenstate

DEFAULT_SAFETY_FACTOR = 100.0  # the size bound carries an unspecified prefactor

NOISE_KINDS = ("ou", "white")


@dataclass(frozen=True)
class CouplingSpec:
    """Noise coupling amplitudes and the noise-process model.

    Attributes:
        z_noise: length-n non-negative amplitudes of on-site energy
            fluctuations (sigma^z channel).
        x_noise: length-n non-negative amplitudes of tunneling fluctuations
            (sigma^x channel).
        kind: "ou" for exponentially correlated unit-variance noise,
            "white" for delta-correlated noise of unit strength.
        correlation_time: correlation time for the "ou" kind; None is
            10 / A_typ, filled in by ``ClusterProblem.trajectories`` when
            there is noise.
    """

    z_noise: np.ndarray = field(repr=False)
    x_noise: np.ndarray = field(repr=False)
    kind: str = "ou"
    correlation_time: float | None = None

    def __post_init__(self):
        f = np.array(self.z_noise, dtype=float)
        g = np.array(self.x_noise, dtype=float)
        if f.ndim != 1 or g.ndim != 1 or f.shape != g.shape:
            raise ValidationError("noise amplitude vectors must be 1-d and equally long")
        for name, arr in (("z_noise", f), ("x_noise", g)):
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"{name} contains non-finite entries")
            if np.any(arr < 0):
                raise ValidationError(f"{name} amplitudes must be non-negative")
        if self.kind not in NOISE_KINDS:
            raise ValidationError(f"noise kind must be one of {NOISE_KINDS}, got {self.kind!r}")
        if self.correlation_time is not None and not self.correlation_time > 0:
            raise ValidationError("correlation time must be positive")
        f.setflags(write=False)
        g.setflags(write=False)
        object.__setattr__(self, "z_noise", f)
        object.__setattr__(self, "x_noise", g)

    @property
    def n(self) -> int:
        return len(self.z_noise)

    @property
    def has_noise(self) -> bool:
        """Whether either channel has a nonzero amplitude."""
        return bool(np.any(self.z_noise) or np.any(self.x_noise))


@dataclass(frozen=True)
class RateReport:
    """Matrix element, rate ratio and per-spin channel breakdown.

    The bound fields are filled in by :func:`check_bound`.
    """

    matrix_element: float
    rate_ratio: float
    z_channel: tuple[float, ...]
    x_channel: tuple[float, ...]
    bound: float | None = None
    bound_satisfied: bool | None = None
    bound_margin: float | None = None


def matrix_element(
    ground: DressedState, lem: DressedState, coupling: CouplingSpec
) -> RateReport:
    """Exact coupling matrix element between two dressed states.

    Evaluates <ground| sum_i f_i sigma^z_i + sum_i g_i sigma^x_i |lem> from
    the amplitude tables with unit noise variables; the rate ratio is its
    square.  The per-spin contributions of both channels are reported and
    sum to the total by construction.
    """
    if len(ground.amplitudes) != len(lem.amplitudes):
        raise ValidationError("dressed states live in different Hilbert spaces")
    if same_eigenstate(ground, lem):
        raise ValidationError(
            f"both dressed states are the eigenstate at {ground.energy:.8f}; "
            "the transition element needs two distinct eigenstates"
        )
    n = ground.n
    if coupling.n != n:
        raise ValidationError(f"coupling is for {coupling.n} spins, states have {n}")
    a = ground.amplitudes
    b = lem.amplitudes
    signs = sign_table(n)  # (dim, n)
    prod = a * b
    z_parts = coupling.z_noise * (prod @ signs)
    idx = np.arange(1 << n)
    x_parts = np.array(
        [coupling.x_noise[i] * float(a[idx ^ (1 << i)] @ b) for i in range(n)]
    )
    element = math.fsum(z_parts.tolist() + x_parts.tolist())
    return RateReport(
        matrix_element=element,
        rate_ratio=element**2,
        z_channel=tuple(float(v) for v in z_parts),
        x_channel=tuple(float(v) for v in x_parts),
    )


def check_bound(
    report: RateReport, params: ClusterParams, coupling: CouplingSpec, a_typ: float
) -> RateReport:
    """Fill in the size bound ``coupling_ratio(...) ** n`` and its verdict.

    The bound is an order-of-magnitude statement, so the verdict allows a
    factor of ``DEFAULT_SAFETY_FACTOR``; the margin is
    log10(bound / rate_ratio).
    """
    bound = coupling_ratio(params, coupling, a_typ) ** params.n
    satisfied = bool(report.rate_ratio <= bound * DEFAULT_SAFETY_FACTOR)
    if report.rate_ratio == 0.0:
        margin = math.inf
    elif bound == 0.0:
        margin = -math.inf
    else:
        margin = math.log10(bound / report.rate_ratio)
    return replace(report, bound=bound, bound_satisfied=satisfied, bound_margin=margin)


def coupling_ratio(params: ClusterParams, coupling: CouplingSpec, a_typ: float) -> float:
    """max(C_typ, g_typ) / A_typ, the ratio the size bound raises to the n-th power.

    C_typ is the largest |tunneling| entry, g_typ the largest sigma^x noise
    amplitude, and ``a_typ`` the typical level spacing A_typ
    (``ClusterProblem.a_typ``, at the LEM anchor).
    """
    return max(float(np.abs(params.tunneling).max()), float(coupling.x_noise.max())) / a_typ


def lifetime_extension(n: int, ratio: float) -> float:
    """Orders of magnitude of lifetime gained by an n-spin cluster: n*log10(1/ratio)."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValidationError(f"cluster size must be a positive integer, got {n!r}")
    if not 0.0 < ratio < 1.0:
        raise ValidationError(
            f"coupling ratio must lie strictly between 0 and 1, got {ratio!r} "
            "(ratios >= 1 are outside the perturbative regime)"
        )
    return n * (-math.log10(ratio))
