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
from .errors import ValidationError, is_integer, require_normal
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
            if not np.isfinite(arr).all():
                raise ValidationError(f"{name} contains non-finite entries")
            if (arr < 0).any():
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
    sum to the total by construction.  Two symmetric-sector states are
    summed on their chains G and L: every spin carries 1/n of the
    collective element, so

        z_i = f_i/n · Σ_k (2k − n) G_k L_k,
        x_i = g_i/n · Σ_k √((k+1)(n−k)) (G_k L_{k+1} + G_{k+1} L_k),

    the diagonal of M = Σ σ^z and the off-diagonal of 2 S_x on the chain.
    UnderflowError is raised for an element that comes out subnormal, or 0
    where a product of nonzero numbers underflowed on the way, and for a
    rate ratio that comes out 0 or subnormal from a nonzero element.  An
    element that cancels to 0 (no noise, bare anchors at zero tunneling, or
    a symmetry) prints 0.
    """
    n = ground.n
    if lem.n != n:
        raise ValidationError("dressed states live in different Hilbert spaces")
    if same_eigenstate(ground, lem):
        raise ValidationError(
            f"both dressed states are the eigenstate at {ground.energy:.8f}; "
            "the transition element needs two distinct eigenstates"
        )
    if coupling.n != n:
        raise ValidationError(f"coupling is for {coupling.n} spins, states have {n}")
    underflows = []  # a product or quotient of nonzero numbers came out 0 or subnormal
    with np.errstate(under="call", call=lambda *_: underflows.append(True)):
        if ground.chain is not None and lem.chain is not None:
            g, l = ground.chain, lem.chain
            k = np.arange(n)
            z_terms = (np.arange(n + 1) * 2 - n) * g * l
            x_terms = np.sqrt((k + 1.0) * (n - k)) * (g[:-1] * l[1:] + g[1:] * l[:-1])
            # numpy scalars, so that dividing them by n reports an underflow too
            z_sum, x_sum = (np.float64(math.fsum(t.tolist())) for t in (z_terms, x_terms))
            z_parts = coupling.z_noise * (z_sum / n)
            x_parts = coupling.x_noise * (x_sum / n)
        else:
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
    # without noise nothing that underflowed reaches the element
    if element or (underflows and coupling.has_noise):
        require_normal(element, "the matrix element")
    rate_ratio = element**2
    if element:
        require_normal(rate_ratio, "the rate ratio")
    return RateReport(
        matrix_element=element,
        rate_ratio=rate_ratio,
        z_channel=tuple(float(v) for v in z_parts),
        x_channel=tuple(float(v) for v in x_parts),
    )


def check_bound(
    report: RateReport, params: ClusterParams, coupling: CouplingSpec, a_typ: float
) -> RateReport:
    """Fill in the size bound ``coupling_ratio(...) ** n`` and its verdict.

    The bound is an order-of-magnitude statement, so the verdict allows a
    factor of ``DEFAULT_SAFETY_FACTOR``; the margin is
    log10(bound / rate_ratio).  A bound past the largest double is inf; one
    from a nonzero ratio that comes out 0 or subnormal raises UnderflowError.
    """
    ratio = coupling_ratio(params, coupling, a_typ)
    try:
        bound = ratio**params.n
    except OverflowError:
        bound = math.inf
    if ratio:
        require_normal(bound, "the size bound")
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
    if not is_integer(n) or n < 1:
        raise ValidationError(f"cluster size must be a positive integer, got {n!r}")
    if not 0.0 < ratio < 1.0:
        raise ValidationError(
            f"coupling ratio must lie strictly between 0 and 1, got {ratio!r} "
            "(ratios >= 1 are outside the perturbative regime)"
        )
    return n * (-math.log10(ratio))
