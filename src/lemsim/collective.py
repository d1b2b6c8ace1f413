"""Exact solves of collective clusters in their total-spin blocks.

A cluster is collective when every pair coupling equals one ``j``, every
bias one ``b`` and every tunneling entry one ``c``; ``ClusterParams.collective``
holds that ``(j, b, c)``, found by one scan of the couplings per cluster, and
every function here reads it.  With M = sum_i s_i = 2 S_z its Hamiltonian is

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
exact eigenstates dressed from them.  Its diagonal holds the classical
energies, one per k, from which ``chain_anchors`` reads the tunneling-free
landscape, tolerance and A_typ that the 2^n energy table would give.
``symmetric_chain`` solves the chain once, and ``SymmetricChain.dressed``
dresses either polarized anchor from that solve.  It takes the chain
eigenvalue E whose eigenvector has the largest overlap with the anchor,
under the strong-mixing rule of ``spectrum.dress``.  It then builds the amplitudes
from continued-fraction ratios run from the far chain end toward the
anchor,

    R_k = t_k / (E - D_k - t_{k-1} R_{k-1}),

each a well-conditioned quotient, so every amplitude keeps its relative
precision however small it is.  (A dense eigensolver carries an absolute
error of about eps·||H|| in every amplitude.)  The state keeps the n+1 chain
amplitudes c_k: ``overlap_decay`` reads its maxima and
``transition.matrix_element`` sums two such states on the chain, and only a
reader of the 2^n ``amplitudes`` (the trajectories) spreads them over the
configurations as c_k / sqrt(C(n, k)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cluster import ClusterParams, _spread_tolerance, config_to_bits, require_scale, validate_config
from .errors import ValidationError, require_normal
from .spectrum import (
    DressedState,
    _check_info,
    cluster_eigenvalues,
    geometric_gap,
    lapack,
    require_dominant_overlap,
)


def _block(n: int, twice_s: int, j: float, b: float, c: float) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the total-spin block 2S = ``twice_s``,
    in ascending M = 2m = -2S, -2S + 2, ..., 2S."""
    # S(S+1) - m(m+1) = (2S (2S+2) - M (M+2)) / 4, exact in integers
    lower = np.arange(-twice_s, twice_s, 2)
    off = c * np.sqrt((twice_s * (twice_s + 2) - lower * (lower + 2)) / 4)
    return _diagonal(n, twice_s, j, b), off


def _diagonal(n: int, twice_s: int, j: float, b: float) -> np.ndarray:
    """The classical energies j/2 (M^2 - n) + b M on the block's diagonal."""
    big_m = np.arange(-twice_s, twice_s + 1, 2)
    # M^2 - n is even; halving it, not j, keeps a subnormal j from underflowing
    return j * ((big_m**2 - n) // 2) + b * big_m


def block_eigenvalues(n: int, j: float, b: float, c: float) -> np.ndarray:
    """All 2^n eigenvalues (ascending) of the collective cluster ``(j, b, c)``,
    each total-spin block's levels repeated by the block's multiplicity.

    A block of two or more rows is solved by LAPACK ``dstevd`` without
    vectors, the call ``scipy.linalg.eigh_tridiagonal(d, e,
    eigvals_only=True)`` makes, so its levels are that call's bit for bit; a
    1-row block's level is its diagonal entry, as in scipy's quick exit
    (f2py refuses an empty off-diagonal).  The blocks go to LAPACK
    unchecked: ``(j, b, c)`` is a ``ClusterParams.collective``, and
    ``cluster.ENERGY_SCALE_LIMIT`` bounds every block entry by its energy
    scale, so each is finite.
    """
    levels = []
    for k in range(n // 2 + 1):
        multiplicity = math.comb(n, k) - (math.comb(n, k - 1) if k else 0)
        values, off = _block(n, n - 2 * k, j, b, c)
        if off.size:  # a 1-row block's diagonal is its level
            values, _, info = lapack.dstevd(values, off, compute_v=0)
            _check_info("dstevd", info, len(values))
        levels.append(np.repeat(values, multiplicity))
    return np.sort(np.concatenate(levels))


def cluster_levels(params: ClusterParams) -> np.ndarray:
    """All 2^n eigenvalues (ascending) of the cluster: from the total-spin
    blocks when it is collective, from ``spectrum.cluster_eigenvalues``
    otherwise."""
    form = params.collective
    return cluster_eigenvalues(params) if form is None else block_eigenvalues(params.n, *form)


def _chain_amplitudes(diagonal: np.ndarray, off: np.ndarray, energy: float, end: int):
    """Unit eigenvector of the chain at ``energy``, positive at chain end
    ``end``, or None when a denominator vanishes or an amplitude is not finite;
    UnderflowError when an amplitude that is not exactly 0 comes out 0 or
    subnormal.

    The chain is turned so the anchor is its last site; then R_k = c_k / c_{k+1}
    follows from row k of (H - E) c = 0 as t_k / (E - D_k - t_{k-1} R_{k-1}),
    run from site 0, and c_k = R_k c_{k+1} from the anchor's c = 1 down.  The
    recursion runs on Python floats, which round as numpy's do.
    """
    diagonal, off = diagonal.tolist(), off.tolist()
    if end == 0:
        diagonal.reverse()
        off.reverse()
    ratios = []
    ratio = 0.0
    try:
        for k, link in enumerate(off):
            ratio = link / (energy - diagonal[k] - (off[k - 1] * ratio if k else 0.0))
            ratios.append(ratio)
    except ZeroDivisionError:
        return None
    amps = [1.0]
    for ratio in reversed(ratios):
        amps.append(ratio * amps[-1])
    norm = math.sqrt(math.fsum(a * a for a in amps))
    chain = np.array(amps if end == 0 else amps[::-1]) / norm
    if not np.isfinite(chain).all():
        return None
    # no amplitude between the anchor and the first zero link is exactly 0
    reach = next((k for k, link in enumerate(reversed(off)) if link == 0), len(off))
    if reach:
        require_normal(min(map(abs, amps[1 : reach + 1])) / norm, "a chain amplitude")
    return chain


def chain_anchors(n: int, j: float, b: float) -> tuple[int, int, float] | None:
    """``(ground, lem, a_typ)`` of the tunneling-free collective cluster
    ``(j, b)``, from the n+1 energies of its symmetric chain (the diagonal of
    ``_block``), or None when the landscape has no local minimum besides the
    global one.

    Every configuration with k up spins has chain energy E_k, and its
    single-flip neighbours lie at sites k - 1 and k + 1.  The anchors,
    tolerance and spacing are those ``spectrum.find_local_minima`` and
    ``spectrum.typical_level_spacing`` take from the 2^n table when each
    table entry equals its site's energy: the tolerance is 1e-9 of the
    chain's spread, the ground is the lowest configuration index at the
    lowest level, and the LEM the lowest (energy, index) among the other
    strict minima.  A site's lowest index is 2^k - 1; the global site's
    own other configurations are minima too, the lowest of them with bit
    k - 1 moved up to bit k.  A_typ is the geometric mean of the LEM's n
    single-flip gaps (DegeneracyError when one is within the tolerance).
    A cluster whose energy scale |j| n(n-1)/2 + |b| n breaks
    ``cluster.ENERGY_SCALE_LIMIT`` raises ValidationError, as its
    ``ClusterParams`` would, before an energy overflows.
    """
    require_scale(abs(j) * (n * (n - 1) // 2) + abs(b) * n)
    diagonal = _diagonal(n, n, j, b)
    tolerance = _spread_tolerance(diagonal)
    energies = diagonal.tolist()
    ground_site = energies.index(min(energies))
    candidates = []
    for k, energy in enumerate(energies):
        if k > 0 and not energies[k - 1] - energy > tolerance:
            continue
        if k < n and not energies[k + 1] - energy > tolerance:
            continue
        if k != ground_site:
            candidates.append((energy, (1 << k) - 1, k))
        elif 0 < k < n:
            candidates.append((energy, ((1 << (k + 1)) - 1) ^ (1 << (k - 1)), k))
    if not candidates:
        return None
    energy, lem, site = min(candidates)
    gaps = [abs(energies[site - 1 if lem >> i & 1 else site + 1] - energy) for i in range(n)]
    a_typ = geometric_gap(np.array(gaps), tolerance, config_to_bits(lem, n))
    return (1 << ground_site) - 1, lem, a_typ


_SECTOR_ONLY = "the symmetric sector holds only fully polarized anchors of collective clusters"


@dataclass(frozen=True, eq=False)
class SymmetricChain:
    """The symmetric (Dicke) chain of a collective cluster, solved once for
    both fully polarized anchors: the chain's diagonal and off-diagonal
    (``_block``) and its levels and eigenvectors (LAPACK ``dstevd``)."""

    n: int
    diagonal: np.ndarray = field(repr=False)
    off: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    vectors: np.ndarray = field(repr=False)

    def dressed(self, anchor: int) -> DressedState:
        """The dressed state of a fully polarized anchor (0 or 2^n - 1).

        Raises StrongMixingError, as ``dress`` does, when the best overlap^2
        with the anchor is below 0.5.
        """
        n = self.n
        anchor = validate_config(n, anchor, "anchor")
        if anchor not in (0, (1 << n) - 1):
            raise ValidationError(_SECTOR_ONLY)
        end = 0 if anchor == 0 else n
        index = int(np.argmax(np.abs(self.vectors[end])))
        require_dominant_overlap(float(self.vectors[end, index] ** 2), config_to_bits(anchor, n))
        chain = _chain_amplitudes(self.diagonal, self.off, float(self.values[index]), end)
        if chain is None:
            # a far site degenerate with the anchor (b = 0) zeroes a denominator;
            # the chain's own eigenvector stands in
            chain = self.vectors[:, index] * np.sign(self.vectors[end, index])
        chain.setflags(write=False)
        return DressedState(anchor, float(chain[end] ** 2), float(self.values[index]), n, chain)


def symmetric_chain(params: ClusterParams) -> SymmetricChain:
    """The solved symmetric chain of a collective cluster; ValidationError
    for any other cluster."""
    form = params.collective
    if form is None:
        raise ValidationError(_SECTOR_ONLY)
    diagonal, off = _block(params.n, params.n, *form)
    # the LAPACK routine scipy.linalg.eigh_tridiagonal runs on a whole chain
    values, vectors, info = lapack.dstevd(diagonal, off, compute_v=1)
    _check_info("dstevd", info, params.n + 1)
    return SymmetricChain(params.n, diagonal, off, values, vectors)

