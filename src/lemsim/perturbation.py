"""Stationary perturbation theory cross-checks.

The d-th order multiphoton path sum, whose size governs the rate of a
d-spin transition, lives here with the fit of its decay with d.  The sum is
built from classical energies only (no eigensolver) to cross-check the
exact diagonalization results, so it deliberately shares no code with
``spectrum``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

from .cluster import (
    ClusterParams,
    classical_energy,
    config_to_bits,
    degeneracy_tolerance,
    hamming_distance,
    validate_config,
)
from .errors import (
    CapacityError,
    DegeneracyError,
    InsufficientDataError,
    ValidationError,
)
from .fitting import fit_line

PATH_SUM_MAX_SPINS = 8  # d! path enumeration budget


@dataclass(frozen=True)
class PathSumResult:
    """Effective d-th order matrix element between two configurations."""

    source: int
    target: int
    order: int
    amplitude: float
    path_count: int
    rate_ratio: float  # amplitude^2 / g_typ^2, dimensionless


def multiphoton_path_sum(
    params: ClusterParams,
    x_noise,
    source: int,
    target: int,
    tolerance: float | None = None,
) -> PathSumResult:
    """Sum the d! shortest flip orderings connecting source to target.

    Each ordering of the d distinct flips contributes the product of the
    per-spin coupling amplitudes divided by the product of the d-1
    intermediate energy denominators, measured from the source energy.
    Backtracking paths are higher order and excluded.  A degenerate
    intermediate denominator is a hard error, never regularized.

    Args:
        x_noise: length-n sequence of sigma^x channel coupling amplitudes.
    """
    if params.n > PATH_SUM_MAX_SPINS:
        raise CapacityError(
            f"path enumeration supports up to {PATH_SUM_MAX_SPINS} spins, got n={params.n}"
        )
    source = validate_config(params.n, source, "source")
    target = validate_config(params.n, target, "target")
    g = [float(v) for v in x_noise]
    if len(g) != params.n:
        raise ValidationError(f"coupling vector must have length {params.n}, got {len(g)}")
    d = hamming_distance(source, target)
    if d < 1:
        raise ValidationError("source and target must differ on at least one spin")
    if tolerance is None:
        tolerance = degeneracy_tolerance(params)

    flips = [i for i in range(params.n) if (source ^ target) >> i & 1]
    e_src = classical_energy(params, source)
    energy_cache: dict[int, float] = {}

    def energy(cfg: int) -> float:
        if cfg not in energy_cache:
            energy_cache[cfg] = classical_energy(params, cfg)
        return energy_cache[cfg]

    terms = []
    for perm in permutations(flips):
        numer = 1.0
        denom = 1.0
        cfg = source
        for k, bit in enumerate(perm):
            numer *= g[bit]
            cfg ^= 1 << bit
            if k == d - 1:
                break  # final state carries no resolvent
            gap = e_src - energy(cfg)
            if abs(gap) <= tolerance:
                raise DegeneracyError(
                    f"degenerate intermediate energy on path {list(perm)} at "
                    f"configuration {config_to_bits(cfg, params.n)}: "
                    f"denominator {gap:.3e}"
                )
            denom *= gap
        terms.append(numer / denom)
    amplitude = math.fsum(terms)  # fixed enumeration order: deterministic
    g_typ = max(abs(v) for v in g)
    rate_ratio = (amplitude / g_typ) ** 2 if g_typ > 0 else 0.0
    return PathSumResult(
        source=source,
        target=target,
        order=d,
        amplitude=amplitude,
        path_count=math.factorial(d),
        rate_ratio=rate_ratio,
    )


def scaling_exponent(points) -> float:
    """Least-squares slope of log10|amplitude| against order d.

    Zero or sub-floor amplitudes are excluded; at least three distinct
    orders must survive.
    """
    usable: dict[int, list[float]] = {}
    for d, amp in points:
        a = abs(float(amp))
        if not math.isfinite(a) or a < 1e-300:
            continue
        usable.setdefault(int(d), []).append(math.log10(a))
    if len(usable) < 3:
        raise InsufficientDataError(
            f"scaling fit needs at least 3 distinct orders with nonzero amplitude, "
            f"got {len(usable)}"
        )
    xs, ys = [], []
    for d in sorted(usable):
        for y in usable[d]:
            xs.append(d)
            ys.append(y)
    return fit_line(xs, ys)[0]
