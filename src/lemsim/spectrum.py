"""Exact diagonalization, landscape analysis and dressed eigenstates.

The classical landscape (tunneling switched off) determines the global
minimum and any strict local energy minima; with weak tunneling each of
those configurations is associated with the exact eigenstate of maximal
overlap ("dressed" state).  The decay of dressed-state amplitudes with
Hamming distance from the anchor is measured here as a log-linear fit.

Dense solves come in two pairs.  ``cluster_eigenvalues(params)`` computes
the spectrum alone (what the ``spectrum`` subcommand writes for a cluster
that is not collective; ``collective.block_eigenvalues`` serves the others)
and skips the eigenvectors and their back-transformation;
``cluster_eigensystem(params)`` computes the full eigensystem that dressing
needs.  Both assemble H once and
solve it through ``eigenvalues``/``diagonalize``, marked as scratch that
LAPACK may overwrite in place, so they hold one (values) or two (vectors)
dim x dim arrays at their peak, 8·4^n or 16·4^n bytes, and they raise
CapacityError before assembly when that footprint exceeds the memory
available (``MemAvailable``, lowered to any memory cgroup limit's
headroom).  ``eigenvalues(h)`` and ``diagonalize(h)`` called on a matrix
the caller built leave it unmodified, at the cost of one copy; on a cluster
Hamiltonian they agree bit for bit with the cluster solves.  All four check
that the matrix is square, finite and symmetric over row bands, without a
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
    classical_energy,
    config_to_bits,
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


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues (ascending) and orthonormal eigenvectors (columns)."""

    values: np.ndarray = field(repr=False)
    vectors: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return len(self.values)

    @property
    def n(self) -> int:
        return self.dim.bit_length() - 1


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
    """Raise CapacityError when a dense solve of ``params`` cannot fit in memory.

    The footprint is the Hamiltonian (8·4^n bytes), the eigenvector matrix
    when asked for (another 8·4^n) and the symmetry check's band buffer
    (4^n/2); LAPACK's workspace, O(2^n), is left out.
    """
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
    """A freshly assembled, exactly symmetric matrix that the solve may overwrite.

    The cluster solves hand their Hamiltonian to ``eigenvalues`` and
    ``diagonalize`` as this view, so LAPACK works in its buffer without a copy.
    """


def _checked_symmetric(h: np.ndarray) -> np.ndarray:
    """``h`` as a float array, after checking that it is square, finite and symmetric.

    The check runs over row bands of dim/16 rows with one band-sized buffer,
    so it never holds a second dim x dim array.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValidationError(f"Hamiltonian must be a square matrix, got shape {h.shape}")
    dim = h.shape[0]
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
    return h


def _eigh(h: np.ndarray, eigvals_only: bool):
    scratch = isinstance(h, _Scratch)
    h = _checked_symmetric(h)
    if scratch:
        # exactly symmetric, so its F-contiguous transpose is H itself, which
        # LAPACK may overwrite without the copy f2py makes of C-ordered input
        h = h.T
    try:
        return scipy.linalg.eigh(h, eigvals_only=eigvals_only, overwrite_a=scratch, check_finite=False)
    except (scipy.linalg.LinAlgError, np.linalg.LinAlgError) as exc:
        raise NumericalError(f"eigensolver failed on a {h.shape[0]}x{h.shape[0]} matrix: {exc}") from exc


def eigenvalues(h: np.ndarray) -> np.ndarray:
    """Eigenvalues (ascending) of a dense symmetric matrix, without eigenvectors.

    ``h`` is left unmodified.
    """
    return _eigh(h, eigvals_only=True)


def diagonalize(h: np.ndarray) -> EigenSystem:
    """Dense symmetric eigendecomposition with deterministic sign choice.

    Each eigenvector's sign is fixed so its largest-magnitude component is
    positive (the first such component on ties), making repeated runs
    byte-reproducible.  ``h`` is left unmodified.
    """
    values, vectors = _eigh(h, eigvals_only=False)
    # a column's peak is its maximum or its minimum; on a magnitude tie the
    # first index wins, as argmax(abs(vectors), axis=0) would choose, but
    # without a dim x dim abs copy
    cols = np.arange(vectors.shape[1])
    top = np.argmax(vectors, axis=0)
    bottom = np.argmin(vectors, axis=0)
    high = vectors[top, cols]
    low = -vectors[bottom, cols]
    flip = (low > high) | ((low == high) & (bottom < top))
    np.negative(vectors, out=vectors, where=flip)
    return EigenSystem(values=values, vectors=vectors)


def cluster_eigenvalues(params: ClusterParams) -> np.ndarray:
    """Eigenvalues (ascending) of the cluster Hamiltonian.

    Equal bit for bit to ``eigenvalues(build_hamiltonian(params))``, but the
    only dim x dim array it holds is the Hamiltonian, which LAPACK overwrites.
    Raises CapacityError before assembly when that does not fit in memory.
    """
    _require_memory(params, vectors=False)
    return eigenvalues(build_hamiltonian(params).view(_Scratch))


def cluster_eigensystem(params: ClusterParams) -> EigenSystem:
    """Eigensystem of the cluster Hamiltonian, signs fixed as in ``diagonalize``.

    Equal bit for bit to ``diagonalize(build_hamiltonian(params))``, but it
    holds at most two dim x dim arrays: the Hamiltonian, which LAPACK
    overwrites, and the eigenvectors.  Raises CapacityError before assembly
    when they do not fit in memory.
    """
    _require_memory(params, vectors=True)
    return diagonalize(build_hamiltonian(params).view(_Scratch))


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
    """Raise StrongMixingError when the best overlap^2 with an anchor is below 0.5."""
    if overlap_sq < OVERLAP_THRESHOLD:
        raise StrongMixingError(
            f"anchor {config_to_bits(anchor, n)} mixes strongly: "
            f"best overlap^2 = {overlap_sq:.6f} < {OVERLAP_THRESHOLD}"
        )


def dress(eig: EigenSystem, anchor: int) -> DressedState:
    """Return the eigenstate with maximal overlap on the anchor configuration.

    Raises StrongMixingError when the best overlap^2 falls below 0.5: the
    anchor label then no longer identifies a single eigenstate and all
    perturbative scaling statements are void.
    """
    anchor = validate_config(eig.n, anchor, "anchor")
    overlaps = eig.vectors[anchor, :]
    k = int(np.argmax(np.abs(overlaps)))
    overlap_sq = float(overlaps[k] ** 2)
    require_dominant_overlap(overlap_sq, anchor, eig.n)
    amps = eig.vectors[:, k].copy()
    if amps[anchor] < 0:
        amps = -amps
    amps.setflags(write=False)
    return DressedState(
        anchor=anchor,
        eigenindex=k,
        overlap_sq=overlap_sq,
        energy=float(eig.values[k]),
        amplitudes=amps,
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
    e0 = classical_energy(params, anchor)
    gaps = np.array(
        [abs(classical_energy(params, anchor ^ (1 << i)) - e0) for i in range(params.n)]
    )
    if np.any(gaps <= tolerance):
        i = int(np.argmin(gaps))
        raise DegeneracyError(
            f"single-flip gap on spin {i} at anchor {config_to_bits(anchor, params.n)} "
            f"is degenerate ({gaps[i]:.3e} <= tol {tolerance:.3e})"
        )
    return float(np.exp(np.mean(np.log(gaps))))
