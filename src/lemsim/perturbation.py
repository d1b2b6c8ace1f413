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
from .fitting import fit_slope, log10_points

PATH_SUM_MAX_SPINS = 8  # d! path enumeration budget


def require_path_sum_size(n: int) -> None:
    """Raise CapacityError for a cluster over ``PATH_SUM_MAX_SPINS`` spins."""
    if n > PATH_SUM_MAX_SPINS:
        raise CapacityError(
            f"path enumeration supports up to {PATH_SUM_MAX_SPINS} spins, got n={n}"
        )


# passes of exact_sum before the residuals go to math.fsum: each pass takes
# about 53 - log2(N + 2) bits off the largest residual
EXACT_SUM_PASSES = 8


def exact_sum(x: np.ndarray) -> float:
    """``math.fsum(x)``, bit for bit, of a float64 array, which is spent as scratch.

    Error-free extraction (Rump, Ogita & Oishi, "Accurate floating-point
    summation", SIAM J. Sci. Comput. 2008): with sigma a power of two at
    least (N + 2) times every |r_i|, each q_i = (r_i + sigma) - sigma is a
    multiple of sigma's last bit no larger than sigma / (N + 2), so the array
    sum of the q_i is exact in any order, and so is r_i - q_i.  Each pass adds
    its exact total and leaves the residuals r_i - q_i; ``math.fsum`` rounds
    the few totals once.  Non-finite or all-zero input, a sigma past the
    double range, or residuals left after ``EXACT_SUM_PASSES`` passes go to
    ``math.fsum`` as they are.
    """
    headroom = (x.size + 1).bit_length()  # 2^headroom >= N + 2
    scratch = np.empty_like(x)
    totals = []
    for _ in range(EXACT_SUM_PASSES):
        top = max(x.max(), -x.min()) if x.size else 0.0
        if top == 0.0 and totals:
            return math.fsum(totals)
        exponent = math.frexp(top)[1] + headroom  # top < 2^(exponent - headroom)
        if not math.isfinite(top) or top == 0.0 or exponent > 1022:
            break  # sigma = 2^exponent would overflow, or r + sigma might
        sigma = math.ldexp(1.0, exponent)
        np.add(x, sigma, out=scratch)
        scratch -= sigma
        totals.append(float(scratch.sum()))
        x -= scratch
    return math.fsum(chain(totals, memoryview(x)))


@cache
def _prefix_tree(d: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The distinct ordering prefixes of d flips, level by level.

    Level L (L = 1..d) holds the d!/(d-L)! prefixes of L flips in the order of
    ``itertools.permutations(range(d))``: each prefix of level L - 1 followed
    by its d - L + 1 children, which append the unused flips in increasing
    order.  A level is the appended flip and the subset mask of the whole
    prefix, as read-only uint8 arrays (d <= 8).
    """
    flips = np.arange(d, dtype=np.uint8)
    levels = [(flips, np.left_shift(1, flips, dtype=np.uint8))]
    for width in range(d - 1, 0, -1):
        masks = levels[-1][1]
        unused = (masks[:, None] >> flips & 1) == 0
        child = np.broadcast_to(flips, unused.shape)[unused]
        levels.append((child, np.repeat(masks, width) | np.left_shift(1, child, dtype=np.uint8)))
    for a in chain.from_iterable(levels):
        a.setflags(write=False)
    return tuple(levels)


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
    require_path_sum_size(params.n)
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
    if degenerate[1:-1].any():  # an intermediate: neither the source nor the target
        _raise_first_degenerate(params.n, flips, configs, gaps, degenerate)

    # each ordering's numerator and denominator, multiplied in path order, one
    # level of shared prefixes at a time: a prefix's products are formed once
    # and broadcast over its children (``take`` reads uint8 indices at intp speed)
    coupling = np.array([g[spin] for spin in flips])
    levels = _prefix_tree(d)
    numer = coupling.take(levels[0][0])
    denom = gaps.take(levels[0][1])
    for width, (child, masks) in zip(range(d - 1, 0, -1), levels[1:]):
        step = coupling.take(child).reshape(-1, width)
        step *= numer[:, None]
        numer = step.ravel()
        if width > 1:  # the final state carries no resolvent
            step = gaps.take(masks).reshape(-1, width)
            step *= denom[:, None]
            denom = step.ravel()
    if d > 1:
        numer /= denom
    amplitude = exact_sum(numer)  # exactly rounded, so independent of order
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


def _raise_first_degenerate(n, flips, configs, gaps, degenerate) -> None:
    """Raise DegeneracyError at the first ordering, in enumeration order, that
    passes a degenerate intermediate, and at its first such step."""
    for order in permutations(range(len(flips))):
        subset = 0
        for b in order[:-1]:
            subset |= 1 << b
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
    return fit_slope(xs, ys)
