"""Exact diagonalization, landscape analysis and dressed eigenstates.

The classical landscape (tunneling switched off) determines the global
minimum and any strict local energy minima; with weak tunneling each of
those configurations is associated with the exact eigenstate of maximal
overlap ("dressed" state).  The decay of dressed-state amplitudes with
Hamming distance from the anchor is measured here as a log-linear fit.

Every solve calls LAPACK through scipy's compiled f2py module, which
``lapack`` holds (``_load_lapack``); scipy's Python wrappers are not
imported.  ``cluster_eigenvalues(params)`` computes the spectrum alone
through ``eigenvalues``, a values-only ``dsyevr`` (the route of
``collective.cluster_levels`` off collective clusters), called as
``scipy.linalg.eigh(h, eigvals_only=True)`` calls it.
``cluster_eigensystem(params, anchors)`` computes what dressing needs
through ``diagonalize``: the levels whose eigenvector can have overlap² ≥ ½
with an anchor, and their vectors.  ``diagonalize`` runs the steps ``dsyevr``
takes for a value range (``dsytrd``, ``dstebz``, ``dstein``, ``dormqr`` on
the m solved columns, then its selection sort), so its levels and vectors
are ``scipy.linalg.eigh(h, subset_by_value=...)``'s bit for bit, without the
dim x dim eigenvector array scipy's wrapper allocates for a value range.
``dress`` picks an anchor's state from them and refuses strong mixing and a
shared repeated level; it refuses a matrix whose row count is not a power
of two outright, so every dressed state is a state of n spins, while
``diagonalize`` and ``eigenvalues`` solve any real symmetric matrix.  For
u = e_a and ρ = h_aa, ‖(H − ρ)u‖² = Σ_k (v_kᵀu)² (λ_k − ρ)², so such a
level lies within √2·s of ρ, s the norm of row a off the diagonal (Parlett,
*The Symmetric Eigenvalue Problem*, §4 and §11).  Matrices of at most
``WHOLE_SOLVE_ROWS`` rows are solved whole.

The cluster solves assemble H once, as scratch LAPACK overwrites.  They
hold one dim x dim array, 8·4^n bytes, and raise CapacityError before
assembly when H alone exceeds the memory available
(``cluster._require_memory``).  A value range's m columns, 16·2^n·m bytes
with the copy ``dormqr`` works in, are checked once bisection has counted
them, before they are allocated.  The scratch H is
symmetric and finite by construction and goes to LAPACK unchecked.
``eigenvalues`` and ``diagonalize`` copy a caller's matrix, leaving it
unmodified, check that the copy is real, square, non-empty, finite and
symmetric, and agree bit for bit with the cluster solves.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .cluster import (
    ClusterParams,
    _require_memory,
    _spread_tolerance,
    build_hamiltonian,
    classical_energies,
    config_to_bits,
    degeneracy_tolerance,
    hamming_distance,
    popcounts,
    validate_config,
)
from .errors import (
    DegeneracyError,
    NumericalError,
    StrongMixingError,
    ValidationError,
    is_integer,
    require_normal,
)
from .fitting import fit_slope, log10_points

OVERLAP_THRESHOLD = 0.5  # below this the anchor label is meaningless
OVERLAP_ROUNDING = 1e-9  # overlap^2 this close above the threshold is refused too
REPEATED_LEVEL_WEIGHT = 1e-9  # anchor overlap^2 a repeated level may carry off its chosen vector
# solved whole up to this size, and CLI rates holds collective clusters of at
# most this size dense (cli._cmd_rates): perfbench/test_harness.py finds the
# toy rates-n4 element (16 rows) by the reference's text, the last digits of
# dsyevr's whole (MRRR) solve; once that test reads the value from the CSV,
# both holds go with this constant (ROADMAP item 2a)
WHOLE_SOLVE_ROWS = 16


def _load_lapack():
    """scipy's compiled LAPACK module, ``scipy.linalg._flapack``, loaded by
    itself from scipy's install directory (``importlib.util.find_spec``)
    without running ``scipy.linalg``'s package, which imports 328 modules
    more, numpy's testing, f2py, masked-array and random packages among
    them.  The module is registered in ``sys.modules`` under its own name,
    so a later ``import scipy.linalg`` reuses it, and ``scipy.linalg.lapack``'s
    routines are its routines.  ImportError names the directory searched
    when the extension is not there."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")
    where = os.path.join(scipy.submodule_search_locations[0], "linalg") if scipy else None
    loaders = (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES)
    spec = importlib.machinery.FileFinder(where, loaders).find_spec(name) if where else None
    if spec is None:
        raise ImportError(
            f"scipy's LAPACK extension {name} was not found in {where or 'sys.path (no scipy)'}",
            name=name,
        )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


lapack = _load_lapack()


@dataclass(frozen=True, eq=False)
class SolvedLevels:
    """The levels of a dense symmetric H that ``diagonalize`` solved for its
    anchors, ascending, with their eigenvectors as the columns of
    ``vectors``; ``tolerance`` (1e-9 of H's diagonal spread) tells repeated
    levels apart."""

    values: np.ndarray = field(repr=False)
    vectors: np.ndarray = field(repr=False)
    anchors: tuple[int, ...]
    tolerance: float


@dataclass(frozen=True)
class LocalMinimum:
    config: int
    energy: float
    distance_to_global: int


@dataclass(frozen=True)
class LandscapeReport:
    """Classical energy landscape summary."""

    global_config: int
    global_energy: float
    local_minima: tuple[LocalMinimum, ...]
    degenerate: bool


@dataclass(frozen=True, eq=False)
class DressedState:
    """Exact eigenstate anchored to a classical configuration by maximal overlap.

    A dense state (``dense``) holds its 2^n ``amplitudes``.  A state of the
    symmetric sector (``collective.SymmetricChain.dressed``) holds the n+1
    amplitudes ``chain`` of the Dicke chain, c_k on the normalised sum of the
    C(n, k) configurations with k up spins; its 2^n ``amplitudes``,
    c_k / sqrt(C(n, k)) on each of them, are formed on first read.  The sign
    is fixed so the anchor's amplitude is positive.
    """

    anchor: int
    overlap_sq: float
    energy: float
    n: int
    chain: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def dense(cls, anchor: int, overlap_sq: float, energy: float, amplitudes) -> DressedState:
        """A state of a dense solve, from its 2^n amplitudes."""
        state = cls(anchor, overlap_sq, energy, len(amplitudes).bit_length() - 1)
        vars(state)["amplitudes"] = amplitudes
        return state

    @cached_property
    def site_amplitudes(self) -> np.ndarray:
        """c_k / sqrt(C(n, k)), k = 0..n: a sector state's amplitude on each
        configuration with k up spins.  UnderflowError when one whose c_k is
        not 0 comes out 0 or subnormal."""
        # binomials as doubles: past n = 67 some exceed 2^64, which numpy
        # would hold as Python objects
        sites = self.chain / np.sqrt([float(math.comb(self.n, k)) for k in range(self.n + 1)])
        live = np.abs(sites[self.chain != 0])
        if live.size:
            require_normal(float(live.min()), "an amplitude on one configuration")
        return sites

    @cached_property
    def amplitudes(self) -> np.ndarray:
        amps = self.site_amplitudes[popcounts(np.arange(1 << self.n), self.n)]
        amps.setflags(write=False)
        return amps


@dataclass(frozen=True)
class OverlapDecay:
    """Per-distance amplitude maxima and the fitted log10 decay slope."""

    anchor: int
    distances: tuple[int, ...]  # 0..n
    max_amplitudes: tuple[float, ...]
    slope: float | None  # None when fewer than two usable distances


class _Scratch(np.ndarray):
    """A freshly assembled matrix that the solve may overwrite: the cluster
    solves' H, which LAPACK then works in uncopied and unchecked.
    ``build_hamiltonian`` assembles it exactly symmetric, and
    ``cluster.ENERGY_SCALE_LIMIT`` keeps its entries finite."""


def _checked_symmetric(h: np.ndarray) -> tuple[np.ndarray, float]:
    """``h`` as a column-major float array that LAPACK may overwrite, and its
    largest magnitude.  For the cluster solves' scratch H the array is its
    F-contiguous transpose, which is H, unchecked (see ``_Scratch``).  A
    caller's matrix is refused when complex, then copied, and the copy is
    checked to be square, non-empty, finite and symmetric.
    """
    if isinstance(h, _Scratch):
        a = np.asarray(h).T
        return a, max(float(a.max()), -float(a.min()))
    h = np.asarray(h)
    if np.iscomplexobj(h):
        raise ValidationError(f"Hamiltonian must be real, got {h.dtype}")
    a = np.array(h, dtype=float, order="F")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"Hamiltonian must be a square matrix, got shape {a.shape}")
    if a.size == 0:
        raise ValidationError("Hamiltonian must not be empty")
    # a NaN makes both reductions NaN, and with them the peak
    peak = max(float(a.max()), -float(a.min()))
    if not math.isfinite(peak):
        # the message scipy's check_finite gives
        raise ValueError("array must not contain infs or NaNs")
    skew = a - a.T
    if float(np.abs(skew, out=skew).max()) > 1e-12 * max(1.0, peak):
        raise ValidationError("Hamiltonian is not symmetric")
    return a, peak


def _check_info(routine: str, info: int, dim: int) -> None:
    """Raise NumericalError when LAPACK's ``routine`` returned a nonzero ``info``."""
    if info != 0:
        raise NumericalError(f"{routine} failed on a {dim}x{dim} matrix: info {info}")


def _solve_window(a: np.ndarray, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """The levels of ``a`` in (lo, hi], ascending, and their eigenvectors as
    the columns of a dim x m array, by the steps ``dsyevr`` takes for a value
    range: bit for bit ``scipy.linalg.eigh(a, subset_by_value=(lo, hi))``.

    ``a``'s lower triangle is reduced in place, and its Householder
    reflectors are applied to the m columns alone.  The columns, 16·dim·m
    bytes with ``dormqr``'s copy of them, are checked against the memory
    available before ``dstein`` allocates them.
    """
    dim = len(a)
    # dsyevr's workspace, shared out as dsyevr does: another size changes
    # dsytrd's block size, and with it the bits
    lwork = int(lapack.dsyevr_lwork(dim, lower=1)[0])
    a, d, e, tau, info = lapack.dsytrd(a, lower=1, lwork=lwork - 5 * dim, overwrite_a=1)
    _check_info("dsytrd", info, dim)
    m, values, block, split, info = lapack.dstebz(d, e, 1, lo, hi, 0, 0, 0.0, "B")
    _check_info("dstebz", info, dim)
    _require_memory(16 * dim * m, f"a window of {m} eigenvectors of a {dim}x{dim} matrix")
    values = values[:m]
    vectors, info = lapack.dstein(d, e, values, block, split)
    _check_info("dstein", info, dim)
    # the reflectors below row 1, addressed in H's buffer with leading
    # dimension dim: f2py would copy a sliced view
    reflectors = a.reshape(-1, order="F")[1 : 1 + dim * (dim - 1)].reshape((dim, dim - 1), order="F")
    rest, _, info = lapack.dormqr("L", "N", reflectors, tau, vectors[1:], lwork - 2 * dim, overwrite_c=1)
    _check_info("dormqr", info, dim)
    vectors[1:] = rest
    # dsyevr's closing selection sort: strict <, so exactly repeated levels
    # keep bisection's order, and the columns move with their levels
    for j in range(m - 1):
        i = j + 1 + int(np.argmin(values[j + 1 :]))
        if values[i] < values[j]:
            values[[j, i]] = values[[i, j]]
            vectors[:, [j, i]] = vectors[:, [i, j]]
    return values, vectors


def _eigh(a: np.ndarray, compute_v: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Every level of ``a``'s lower triangle, which ``dsyevr`` overwrites,
    ascending, and with ``compute_v`` their eigenvectors as columns: the call
    ``scipy.linalg.eigh``'s default ``evr`` driver makes, with its workspace
    sizes, so bit for bit its values and vectors."""
    dim = len(a)
    lwork, liwork, _ = lapack.dsyevr_lwork(dim, lower=1)
    values, vectors, _, _, info = lapack.dsyevr(
        a, compute_v, lower=1, overwrite_a=1, lwork=int(lwork), liwork=int(liwork)
    )
    _check_info("dsyevr", info, dim)
    return values, vectors


def eigenvalues(h: np.ndarray) -> np.ndarray:
    """Eigenvalues (ascending) of a dense real symmetric matrix; ``h`` is left unmodified."""
    return _eigh(_checked_symmetric(h)[0], compute_v=0)[0]


def diagonalize(h: np.ndarray, anchors) -> SolvedLevels:
    """The levels of a dense symmetric H that can carry a dressed state of one
    of ``anchors`` (basis indices), with their eigenvectors, from one
    value-range solve (``_solve_window``; see the module docstring).

    H is first scaled by a power of two, which is exact, so that max |h_ij|
    lies in [1/2, 1) and ``dsyevr``'s steps never scale it.  Anchor a's
    window is h_aa ± (√2·s + slack + tolerance), s the norm of row a off the
    diagonal; the slack, 4·N·eps·‖H‖_F with ‖H‖_F ≥ ‖H‖₂, bounds the
    solver's backward error and the rounding of s.  The tolerance keeps
    every level that repeats the dominant one inside the window.  A matrix
    of at most ``WHOLE_SOLVE_ROWS`` rows has every level solved by one
    ``dsyevr`` call (``_eigh``), as ``scipy.linalg.eigh`` solves it.  A
    value range adds its m solved columns, twice while ``dormqr`` works on
    them (16·N·m bytes), and raises CapacityError before allocating them
    when they do not fit.  A caller's ``h`` is checked on a copy and left
    unmodified; the cluster solves' scratch H is overwritten unchecked.
    """
    a, peak = _checked_symmetric(h)
    dim, anchors = len(a), tuple(anchors)
    if not anchors:
        raise ValidationError("no anchor to solve for")
    for anchor in anchors:
        if not is_integer(anchor) or not 0 <= anchor < dim:
            raise ValidationError(f"anchor {anchor!r} is not a basis index of a {dim}x{dim} matrix")
    tolerance = _spread_tolerance(np.diagonal(a))
    exponent = math.frexp(peak)[1]
    np.ldexp(a, -exponent, out=a)
    # ‖H‖_F ≥ max |h_ij| ≥ 1/2 unless H = 0, whose window this keeps open
    slack = 4 * dim * np.finfo(float).eps * max(float(np.linalg.norm(a)), 0.5)
    lo, hi = math.inf, -math.inf
    for anchor in anchors:
        row = a[:, anchor].copy()
        rho = float(row[anchor])
        row[anchor] = 0.0
        radius = math.sqrt(2.0) * float(np.linalg.norm(row)) + slack + math.ldexp(tolerance, -exponent)
        lo, hi = min(lo, rho - radius), max(hi, rho + radius)
    values, vectors = _eigh(a) if dim <= WHOLE_SOLVE_ROWS else _solve_window(a, lo, hi)
    return SolvedLevels(np.ldexp(values, exponent), vectors, tuple(map(int, anchors)), tolerance)


def cluster_eigenvalues(params: ClusterParams) -> np.ndarray:
    """Eigenvalues (ascending) of the cluster Hamiltonian.

    Equal bit for bit to ``eigenvalues(build_hamiltonian(params))``, but the
    only dim x dim array it holds is the Hamiltonian, which LAPACK overwrites
    unchecked.  Raises CapacityError before assembly when H alone, 8·4^n
    bytes, does not fit in memory.
    """
    _require_memory(8 * params.dim**2, f"dense eigenvalues of a {params.n}-spin cluster")
    return eigenvalues(build_hamiltonian(params).view(_Scratch))


def cluster_eigensystem(params: ClusterParams, anchors) -> SolvedLevels:
    """The levels of the cluster Hamiltonian that ``anchors`` dress onto, as
    ``diagonalize`` returns them.

    Equal bit for bit to ``diagonalize(build_hamiltonian(params), anchors)``,
    but the only dim x dim array it holds is the Hamiltonian, which LAPACK
    overwrites unchecked; the solved columns add 16·dim·m bytes.  Raises
    CapacityError before assembly when H alone, 8·4^n bytes, does not fit in
    memory, and before the columns are allocated when they do not.
    """
    _require_memory(8 * params.dim**2, f"dense eigensystem of a {params.n}-spin cluster")
    return diagonalize(build_hamiltonian(params).view(_Scratch), anchors)


def find_local_minima(params: ClusterParams) -> LandscapeReport:
    """Enumerate all 2^n configurations and classify strict single-flip minima.

    A configuration is a local minimum iff every single-flip neighbour lies
    higher in classical energy by more than ``degeneracy_tolerance(params)``,
    and the landscape is ``degenerate`` when two minima lie within it.  The
    global minimum is reported separately and excluded from the local list.
    """
    e = classical_energies(params)
    tolerance = degeneracy_tolerance(params)
    idx = np.arange(params.dim)
    is_min = np.ones(params.dim, dtype=bool)
    for i in range(params.n):
        is_min &= (e[idx ^ (1 << i)] - e) > tolerance
    g = int(np.argmin(e))
    locals_ = [
        LocalMinimum(int(x), float(e[x]), hamming_distance(int(x), g))
        for x in np.nonzero(is_min)[0]
        if int(x) != g
    ]
    locals_.sort(key=lambda m: (m.energy, m.config))
    minima_energies = sorted([float(e[g])] + [m.energy for m in locals_])
    degenerate = any(
        b - a <= tolerance for a, b in zip(minima_energies, minima_energies[1:])
    )
    return LandscapeReport(
        global_config=g,
        global_energy=float(e[g]),
        local_minima=tuple(locals_),
        degenerate=degenerate,
    )


def require_dominant_overlap(overlap_sq: float, label: str) -> None:
    """Raise StrongMixingError when the best overlap^2 with an anchor, named
    ``label``, is below 0.5, or above it by no more than
    ``OVERLAP_ROUNDING``: an anchor mixed half and half is refused whichever
    side rounding puts it on."""
    if overlap_sq < OVERLAP_THRESHOLD + OVERLAP_ROUNDING:
        relation = "<" if overlap_sq < OVERLAP_THRESHOLD else "within rounding of"
        raise StrongMixingError(
            f"anchor {label} mixes strongly: "
            f"best overlap^2 = {overlap_sq:.6f} {relation} {OVERLAP_THRESHOLD}"
        )


def dress(eig: SolvedLevels, anchor: int) -> DressedState:
    """Return the solved eigenstate with maximal overlap on the anchor
    configuration, one of the anchors ``eig`` was solved for.  A solve of
    a matrix whose row count is not a power of two is refused with
    ValidationError first: it dresses no state of n spins.

    Of the levels solved, it takes the one whose eigenvector has the largest
    overlap with the anchor (the lowest level on a tie); a vector with
    overlap² ≥ ½ is always among them.  It raises StrongMixingError when
    that overlap² is not clear of 0.5: the anchor label then identifies no
    single eigenstate and all perturbative scaling statements are void.  The
    overlap² reported is the best among the solved levels; one of overlap²
    w < ½ may lie s/√w from h_aa, outside the windows.

    It then raises DegeneracyError when the level is repeated and the anchor
    has weight on it beyond its own vector.  Solved levels within
    ``eig.tolerance`` of the dressed one form one eigenspace, whose basis
    the solver picks at will; the anchor's window holds all of them.  The
    anchor's weight on it, Σ (v_pᵀe_anchor)² over its vectors, does not
    depend on that basis; when it exceeds the dressed overlap² by more than
    ``REPEATED_LEVEL_WEIGHT``, another basis gives another dressed state.
    An anchor whose weight lies all on one vector, as at zero tunneling,
    dresses.  ``same_eigenstate`` compares dressed states.
    """
    dim = len(eig.vectors)
    n = dim.bit_length() - 1
    if dim != 1 << n:
        raise ValidationError(f"a solve of {dim} rows dresses no state of n spins, which has 2^n rows")
    if anchor not in eig.anchors:
        raise ValidationError(f"anchor {anchor!r} is not one the eigensystem was solved for")
    anchor = int(anchor)
    label = config_to_bits(anchor, n)
    overlaps = eig.vectors[anchor]
    k = int(np.argmax(np.abs(overlaps)))
    overlap_sq = float(overlaps[k] ** 2)
    require_dominant_overlap(overlap_sq, label)
    energy = float(eig.values[k])
    repeated = np.flatnonzero(np.abs(eig.values - energy) <= eig.tolerance)
    if len(repeated) > 1:
        weights = overlaps[repeated]
        rest = float(weights @ weights) - overlap_sq
        if rest > REPEATED_LEVEL_WEIGHT:
            raise DegeneracyError(
                f"anchor {label} dresses onto a level at "
                f"{energy:.8f} of multiplicity {len(repeated)} within tol {eig.tolerance:.3e}; "
                f"the rest of that eigenspace carries overlap^2 {rest:.6f}"
            )
    amps = eig.vectors[:, k].copy()
    if amps[anchor] < 0:
        np.negative(amps, out=amps)
    amps.setflags(write=False)
    return DressedState.dense(anchor, overlap_sq, energy, amps)


def same_eigenstate(first: DressedState, second: DressedState) -> bool:
    """Whether two dressed states of one H are the same eigenvector: distinct
    eigenvectors are orthogonal, whichever solves dressed them.  Two sector
    states compare their chains."""
    if first.chain is not None and second.chain is not None:
        return abs(float(first.chain @ second.chain)) > 0.5
    return abs(float(first.amplitudes @ second.amplitudes)) > 0.5


def overlap_decay(dressed: DressedState) -> OverlapDecay:
    """Group dressed amplitudes by Hamming distance from the anchor and fit
    the least-squares slope of log10(max |amplitude|) against distance over
    distances 1..n.  Maxima a log fit cannot use (``fitting.log10_points``)
    are excluded.  A sector state's maximum at distance d is its one
    amplitude there, |c_k| / sqrt(C(n, k)) with k the chain site d flips
    from the anchor, read without spreading the chain."""
    n = dressed.n
    if dressed.chain is not None:
        sites = np.abs(dressed.site_amplitudes)
        maxima = (sites if dressed.anchor == 0 else sites[::-1]).tolist()
    else:
        dist = popcounts(np.arange(len(dressed.amplitudes)) ^ dressed.anchor, n)
        maxima = [float(np.abs(dressed.amplitudes[dist == k]).max()) for k in range(n + 1)]
    used, logs, _ = log10_points(range(1, n + 1), maxima[1:])
    slope = fit_slope(used, logs) if len(used) >= 2 else None
    return OverlapDecay(
        anchor=dressed.anchor,
        distances=tuple(range(n + 1)),
        max_amplitudes=tuple(maxima),
        slope=slope,
    )


def typical_level_spacing(params: ClusterParams, anchor: int) -> float:
    """Geometric mean of the n single-flip classical energy gaps at the anchor.

    This is the energy scale entering perturbative denominators.  Any gap at
    or below ``degeneracy_tolerance(params)`` is a hard error.
    """
    anchor = validate_config(params.n, anchor, "anchor")
    configs = [anchor] + [anchor ^ (1 << i) for i in range(params.n)]
    energies = classical_energies(params)[configs]
    gaps = np.abs(energies[1:] - energies[0])
    return geometric_gap(gaps, degeneracy_tolerance(params), config_to_bits(anchor, params.n))


def geometric_gap(gaps: np.ndarray, tolerance: float, label: str) -> float:
    """Geometric mean of the single-flip gaps at the anchor named ``label``,
    one per spin in spin order; DegeneracyError when one is at or below
    ``tolerance``."""
    if np.any(gaps <= tolerance):
        i = int(np.argmin(gaps))
        raise DegeneracyError(
            f"single-flip gap on spin {i} at anchor {label} "
            f"is degenerate ({gaps[i]:.3e} <= tol {tolerance:.3e})"
        )
    return float(np.exp(np.mean(np.log(gaps))))
