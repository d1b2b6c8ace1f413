"""Exact solves of collective clusters in their total-spin blocks.

A cluster is collective when every pair coupling equals one ``j``, every
bias one ``b`` and every tunneling entry one ``c``.  With M = sum_i s_i =
2 S_z its Hamiltonian is

    H = j/2 (M^2 - n) + b M + 2 c S_x,

which commutes with every permutation of the spins and with the total spin
S^2.  H therefore splits into total-spin blocks.  For 2S = n, n - 2, ... the
block is a (2S+1)-dimensional tridiagonal in m = -S..S with diagonal
j/2 (4m^2 - n) + 2 b m and off-diagonal c sqrt(S(S+1) - m(m+1)), and it
occurs C(n, k) - C(n, k-1) times, k = n/2 - S.  ``block_eigenvalues``
assembles all 2^n levels from these blocks, exact multiplets included,
without a 2^n x 2^n matrix.  ``cluster_levels`` gives any cluster's
spectrum: the blocks' when the cluster is collective, a dense values-only
solve otherwise.

The S = n/2 block is the symmetric (Dicke) chain.  Its state k, k = 0..n,
is the normalised sum of the C(n, k) configurations with k up spins, so both
fully polarized configurations (0 and 2^n - 1) lie in it, and so do the
exact eigenstates dressed from them.  ``symmetric_dressed`` finds such a
state.  It takes the chain eigenvalue E whose eigenvector has the largest
overlap with the anchor, under the strong-mixing rule of ``spectrum.dress``.
It then builds the amplitudes from continued-fraction ratios run from the
far chain end toward the anchor,

    R_k = t_k / (E - D_k - t_{k-1} R_{k-1}),

each a well-conditioned quotient, so every amplitude keeps its relative
precision however small it is.  (A dense eigensolver carries an absolute
error of about eps·||H|| in every amplitude.)  The chain amplitudes c_k are
expanded to the 2^n table as c_k / sqrt(C(n, k)), so ``overlap_decay`` and
``transition.matrix_element`` work on the result unchanged.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from .cluster import ClusterParams, config_to_bits, popcounts, validate_config
from .errors import ValidationError
from .spectrum import DressedState, cluster_eigenvalues, require_dominant_overlap


def collective_form(params: ClusterParams) -> tuple[float, float, float] | None:
    """``(j, b, c)`` when all pair couplings, all biases and all tunneling
    entries are exactly equal, None otherwise.  A single spin has j = 0."""
    pairs = params.couplings[~np.eye(params.n, dtype=bool)]
    for values in (pairs, params.bias, params.tunneling):
        if np.any(values != values[:1]):
            return None
    j = float(pairs[0]) if pairs.size else 0.0
    return j, float(params.bias[0]), float(params.tunneling[0])


def _block(n: int, twice_s: int, j: float, b: float, c: float) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the total-spin block 2S = ``twice_s``,
    in ascending M = 2m = -2S, -2S + 2, ..., 2S."""
    big_m = np.arange(-twice_s, twice_s + 1, 2)
    diagonal = j / 2 * (big_m**2 - n) + b * big_m
    # S(S+1) - m(m+1) = (2S (2S+2) - M (M+2)) / 4, exact in integers
    lower = big_m[:-1]
    off = c * np.sqrt((twice_s * (twice_s + 2) - lower * (lower + 2)) / 4)
    return diagonal, off


def block_eigenvalues(n: int, j: float, b: float, c: float) -> np.ndarray:
    """All 2^n eigenvalues (ascending) of the collective cluster ``(j, b, c)``,
    each total-spin block's levels repeated by the block's multiplicity."""
    levels = []
    for k in range(n // 2 + 1):
        multiplicity = math.comb(n, k) - (math.comb(n, k - 1) if k else 0)
        values = scipy.linalg.eigh_tridiagonal(*_block(n, n - 2 * k, j, b, c), eigvals_only=True)
        levels.append(np.repeat(values, multiplicity))
    return np.sort(np.concatenate(levels))


def cluster_levels(params: ClusterParams) -> np.ndarray:
    """All 2^n eigenvalues (ascending) of the cluster: from the total-spin
    blocks when it is collective, from ``spectrum.cluster_eigenvalues``
    otherwise."""
    form = collective_form(params)
    return cluster_eigenvalues(params) if form is None else block_eigenvalues(params.n, *form)


def _chain_amplitudes(diagonal: np.ndarray, off: np.ndarray, energy: float, end: int) -> np.ndarray:
    """Unit eigenvector of the chain at ``energy``, positive at chain end ``end``.

    The chain is turned so the anchor is its last site; then R_k = c_k / c_{k+1}
    follows from row k of (H - E) c = 0 as t_k / (E - D_k - t_{k-1} R_{k-1}),
    run from site 0, and c_k = R_k c_{k+1} from the anchor's c = 1 down.
    """
    if end == 0:
        diagonal, off = diagonal[::-1], off[::-1]
    ratios = np.empty(len(off))
    ratio = 0.0
    for k in range(len(off)):
        ratio = off[k] / (energy - diagonal[k] - (off[k - 1] * ratio if k else 0.0))
        ratios[k] = ratio
    amps = np.empty(len(diagonal))
    amps[-1] = 1.0
    for k in range(len(off) - 1, -1, -1):
        amps[k] = ratios[k] * amps[k + 1]
    amps /= math.sqrt(math.fsum(amps**2))
    return amps[::-1] if end == 0 else amps


def symmetric_dressed(params: ClusterParams, anchor: int) -> DressedState:
    """The dressed state of a fully polarized anchor of a collective cluster,
    solved in the (n+1)-dimensional symmetric sector.

    Raises StrongMixingError, as ``dress`` does, when the best overlap^2 with
    the anchor is below 0.5.
    """
    n = params.n
    anchor = validate_config(n, anchor, "anchor")
    form = collective_form(params)
    if form is None or anchor not in (0, params.dim - 1):
        raise ValidationError(
            "the symmetric sector holds only fully polarized anchors of collective clusters"
        )
    diagonal, off = _block(n, n, *form)
    values, vectors = scipy.linalg.eigh_tridiagonal(diagonal, off)
    end = 0 if anchor == 0 else n
    index = int(np.argmax(np.abs(vectors[end])))
    require_dominant_overlap(float(vectors[end, index] ** 2), config_to_bits(anchor, n))
    with np.errstate(divide="ignore", invalid="ignore"):
        chain = _chain_amplitudes(diagonal, off, float(values[index]), end)
    if not np.all(np.isfinite(chain)):
        # a far site degenerate with the anchor (b = 0) zeroes a denominator;
        # the chain's own eigenvector stands in
        chain = vectors[:, index] * np.sign(vectors[end, index])
    per_config = chain / np.sqrt([math.comb(n, k) for k in range(n + 1)])
    amps = per_config[popcounts(np.arange(params.dim), n)]
    amps.setflags(write=False)
    return DressedState(
        anchor=anchor,
        overlap_sq=float(chain[end] ** 2),
        energy=float(values[index]),
        amplitudes=amps,
    )
