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
from functools import cache
from itertools import chain, permutations

import numpy as np

from .cluster import (
    ClusterParams,
    classical_energies,
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
from .fitting import fit_line, log10_points

PATH_SUM_MAX_SPINS = 8  # d! path enumeration budget


@cache
def _orderings(d: int) -> np.ndarray:
    """All orderings of range(d) as a read-only int8 (d!, d) table, in the
    order of ``itertools.permutations(range(d))``."""
    flat = chain.from_iterable(permutations(range(d)))
    table = np.fromiter(flat, np.int8, d * math.factorial(d)).reshape(-1, d)
    table.setflags(write=False)
    return table


@dataclass(frozen=True)
class PathSumResult:
    """Effective d-th order matrix element between two configurations."""

    source: int
    target: int
    order: int
    amplitude: float
    path_count: int
    rate_ratio: float  # amplitude^2 / g_typ^2, dimensionless


def multiphoton_path_sum(params: ClusterParams, x_noise, source: int, target: int) -> PathSumResult:
    """Sum the d! shortest flip orderings connecting source to target.

    Each ordering of the d distinct flips contributes the product of the
    per-spin coupling amplitudes divided by the product of the d-1
    intermediate energy denominators, measured from the source energy.
    Backtracking paths are higher order and excluded.  A degenerate
    intermediate denominator, one within ``degeneracy_tolerance(params)`` of
    zero, is a hard error, never regularized.

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

    flips = [i for i in range(params.n) if (source ^ target) >> i & 1]
    # energies of source ^ (the flips in subset S), S a d-bit mask; S = 0 is the source
    subsets = np.arange(1 << d)
    configs = np.full(1 << d, source)
    for b, spin in enumerate(flips):
        configs ^= (subsets >> b & 1) << spin
    energies = classical_energies(params)[configs]
    gaps = energies[0] - energies
    degenerate = np.abs(gaps) <= degeneracy_tolerance(params)
    orders = _orderings(d)
    if degenerate[1:-1].any():  # an intermediate: neither the source nor the target
        _raise_first_degenerate(params.n, orders, flips, configs, gaps, degenerate)

    # each ordering's numerator and denominator, multiplied in path order
    coupling = np.array([g[spin] for spin in flips])
    masks = 1 << np.arange(d)
    numer = coupling[orders[:, 0]]
    denom = np.ones(len(orders))
    subset = np.zeros(len(orders), dtype=np.intp)
    for k in range(1, d):
        subset |= masks[orders[:, k - 1]]
        denom *= gaps[subset]  # final state carries no resolvent
        numer *= coupling[orders[:, k]]
    np.divide(numer, denom, out=numer)
    amplitude = math.fsum(memoryview(numer))  # exactly rounded: independent of order
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


def _raise_first_degenerate(n, orders, flips, configs, gaps, degenerate) -> None:
    """Raise DegeneracyError at the first ordering, in enumeration order, that
    passes a degenerate intermediate, and at its first such step."""
    for order in orders:
        subset = 0
        for b in order[:-1]:
            subset |= 1 << int(b)
            if degenerate[subset]:
                raise DegeneracyError(
                    f"degenerate intermediate energy on path {[flips[b] for b in order]} at "
                    f"configuration {config_to_bits(int(configs[subset]), n)}: "
                    f"denominator {gaps[subset]:.3e}"
                )


def scaling_exponent(points) -> float:
    """Least-squares slope of log10|amplitude| against order d, over the
    points sorted by order.

    Amplitudes a log fit cannot use (``fitting.log10_points``) are excluded;
    at least three distinct orders must survive.
    """
    points = sorted(((int(d), float(amp)) for d, amp in points), key=lambda point: point[0])
    xs, ys, _ = log10_points([d for d, _ in points], [amp for _, amp in points])
    if len(set(xs)) < 3:
        raise InsufficientDataError(
            f"scaling fit needs at least 3 distinct orders with nonzero amplitude, "
            f"got {len(set(xs))}"
        )
    return fit_line(xs, ys)[0]
