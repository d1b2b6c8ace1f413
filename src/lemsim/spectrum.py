"""Exact diagonalization, landscape analysis and dressed eigenstates.

The classical landscape (tunneling switched off) determines the global
minimum and any strict local energy minima; with weak tunneling each of
those configurations is associated with the exact eigenstate of maximal
overlap ("dressed" state).  The decay of dressed-state amplitudes with
Hamming distance from the anchor is measured here as a log-linear fit.

Dense solves come in two pairs.  ``cluster_eigenvalues(params)`` computes
the spectrum alone (what the ``spectrum`` subcommand writes for a cluster
that is not collective; ``collective.block_eigenvalues`` serves the others)
through ``eigenvalues``, a values-only ``scipy.linalg.eigh``.
``cluster_eigensystem(params)`` computes the eigensystem that dressing needs
through ``diagonalize``, which runs the steps of LAPACK's ``dsyevr`` (the
routine behind ``eigh``) one by one and stops early: it reduces H to a
tridiagonal T = Qᵀ H Q with ``dsytrd``, keeping Q as its Householder
reflectors, and solves T with ``dstemr`` (MRRR, all eigenvectors of T in
O(N²)) or, where that fails, with ``dstebz`` (bisection, values only).  The
eigenvectors of T that ``dsyevr`` would then compute by inverse iteration
(``dstein``) are computed only where they are read.

``dress`` reads one eigenvector: the one whose overlap² with the anchor is
at least ½.  For u = Qᵀ e_anchor and any centre ρ, ‖(T − ρ)u‖² =
Σ_k (z_kᵀu)² (λ_k − ρ)² over T's eigenpairs, so with ρ = uᵀTu and
s = ‖(T − ρ)u‖ such a vector's level lies within √2·s of ρ (Parlett, *The
Symmetric Eigenvalue Problem*, §4 and §11).  ``dress`` takes the
eigenvectors of T for the levels in that window only (a slice of MRRR's, or
``dstein`` on the window's values), picks the best overlap, and
back-transforms that one column in O(N²) through ``dormqr``, where the full
back-transformation costs 2N³.  It takes the best of every eigenvector of
T instead where the window cannot stand for the full run: when no vector in
it is dominant, or when the dominant one belongs to a cluster of levels
whose vectors ``dstein`` computes together.  No eigenvector matrix of H is
ever formed; each dressed state lies within 8·eps of the matching column
of ``scipy.linalg.eigh``.

Both cluster solves assemble H once, marked as scratch that LAPACK may
overwrite in place, so they hold one (values) or two (H holding the
reflectors, and ``dstemr``'s eigenvectors of T) dim x dim arrays at their peak,
8·4^n or 16·4^n bytes, and they raise CapacityError before assembly when
that footprint exceeds the memory available (``MemAvailable``, lowered to
any memory cgroup limit's headroom).  ``eigenvalues(h)`` and
``diagonalize(h)`` called on a matrix the caller built leave it
unmodified, at the cost of one copy; on a cluster Hamiltonian they agree
bit for bit with the cluster solves.  All four check that the matrix is
square, non-empty, finite and symmetric over row bands, without a second
dim x dim array.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

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
REPEATED_LEVEL_WEIGHT = 1e-9  # anchor overlap^2 a repeated level may carry off its chosen vector


# dsyevr's scaling range for max |H_ij| (DLAMCH's safe minimum and precision)
_SMLNUM = np.finfo(float).tiny / np.finfo(float).eps
_RMIN = math.sqrt(_SMLNUM)
_RMAX = min(math.sqrt(1.0 / _SMLNUM), 1.0 / math.sqrt(math.sqrt(np.finfo(float).tiny)))


def _row_sums(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Each row's |d_i| + |e_{i-1}| + |e_i| for the tridiagonal (d, e): their
    maximum is the Gershgorin (and 1-) norm that ``dstebz`` and ``dstein`` use."""
    sums = np.abs(d)
    sums[:-1] += np.abs(e)
    sums[1:] += np.abs(e)
    return sums


def _gamma(k: int) -> float:
    """Higham's γ_k = k·u/(1 − k·u), u the unit roundoff: the relative error
    bound of k successive roundings."""
    unit = np.finfo(float).eps / 2
    return k * unit / (1 - k * unit)


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Eigenvalues (ascending) of a dense symmetric H and its eigenvectors,
    held as LAPACK's tridiagonal reduction H = Q T Qᵀ.

    T has diagonal ``d`` and off-diagonal ``e``; it is the reduction of H
    times ``dsyevr``'s scale factor when H's entries leave its range.
    ``solver_values`` are T's eigenvalues in the order the tridiagonal
    solver returned them, and ``swaps`` are the column swaps of
    ``dsyevr``'s closing selection sort, which bring them, unscaled, into
    the order of ``values``.  Q is ``diag(1, Q')``, with Q' the product of
    the Householder reflectors in ``reflectors`` (rows 2..N of the reduced
    matrix, a view into H's buffer with leading dimension N) and ``tau``.

    ``route`` names the tridiagonal solver that ran: "mrrr" (``dstemr``,
    whose eigenvectors of T are ``mrrr_z``) or "bisection" (``dstebz``,
    ``dsyevr``'s fallback when ``dstemr`` fails, which orders the values by
    the diagonal ``block`` of T they belong to; ``split`` ends each block).
    On the bisection route no eigenvector of T exists until one is read:
    ``z``, all of them in solver order, runs ``dsyevr``'s ``dstein`` call on
    every value on first access, and ``dress`` runs ``dstein`` on the
    values of its window only.
    """

    values: np.ndarray = field(repr=False)
    route: str
    swaps: tuple[tuple[int, int], ...] = field(repr=False)
    reflectors: np.ndarray = field(repr=False)
    tau: np.ndarray = field(repr=False)
    d: np.ndarray = field(repr=False)
    e: np.ndarray = field(repr=False)
    solver_values: np.ndarray = field(repr=False)
    mrrr_z: np.ndarray | None = field(repr=False)
    block: np.ndarray | None = field(repr=False)
    split: np.ndarray | None = field(repr=False)

    @property
    def dim(self) -> int:
        return len(self.values)

    @property
    def n(self) -> int:
        return self.dim.bit_length() - 1

    @cached_property
    def _levels(self) -> np.ndarray:
        """The index into ``values`` of each solver position (column of ``z``)."""
        columns = np.arange(self.dim)  # the solver position of each of ``values``
        for j, i in self.swaps:
            columns[[j, i]] = columns[[i, j]]
        levels = np.empty(self.dim, dtype=np.intp)
        levels[columns] = np.arange(self.dim)
        return levels

    def _tridiagonal_vectors(self, positions: np.ndarray) -> np.ndarray:
        """Eigenvectors of T for ascending solver positions, one per column:
        MRRR's, or ``dstein`` on those values alone, each in its block."""
        if self.mrrr_z is not None:
            return self.mrrr_z[:, positions]
        block = np.zeros_like(self.block)  # dstein reads its first len(positions) entries
        block[: len(positions)] = self.block[positions]
        z, info = lapack.dstein(self.d, self.e, self.solver_values[positions], block, self.split)
        if info != 0:
            dim = self.dim
            raise NumericalError(f"eigensolver failed on a {dim}x{dim} matrix: bisection info {info}")
        return z

    @cached_property
    def z(self) -> np.ndarray:
        """All eigenvectors of T in solver order: ``mrrr_z``, or ``dstein`` on
        every value as ``dsyevr`` runs it, in one new dim x dim array."""
        if self.mrrr_z is not None:
            return self.mrrr_z
        return self._tridiagonal_vectors(np.arange(self.dim))

    def _apply_q(self, rest: np.ndarray, trans: str) -> np.ndarray:
        """Q' (``trans`` "N") or Q'ᵀ ("T") applied in place to ``rest``, rows
        2..N of some columns as a Fortran-ordered (N-1) x m array."""
        if self.dim == 1:
            return rest
        lwork = _syevr_lwork(self.dim) - 2 * self.dim  # what dsyevr gives dormtr
        out, _, info = lapack.dormqr("L", trans, self.reflectors, self.tau, rest, lwork, overwrite_c=1)
        if info != 0:
            raise NumericalError(f"dormqr failed on a {self.dim}x{self.dim} matrix: info {info}")
        return out

    def _rotated(self, index: int) -> np.ndarray:
        """Qᵀ e_index, O(N²)."""
        unit = np.zeros(self.dim)
        unit[index] = 1.0
        unit[1:] = self._apply_q(unit[1:, None], "T")[:, 0]
        return unit

    def _back_transformed(self, z_column: np.ndarray) -> np.ndarray:
        """Q z for one eigenvector z of T, as a new array, O(N²)."""
        vector = z_column.copy()
        vector[1:] = self._apply_q(vector[1:, None], "N")[:, 0]
        return vector

    def _window(self, u: np.ndarray) -> np.ndarray:
        """Ascending solver positions of every level whose eigenvector of T can
        have overlap² ≥ ½ with u = Qᵀ e_anchor, in O(N).

        For any centre ρ and any u, ‖(T − ρ)u‖² = Σ_k (z_kᵀu)² (λ_k − ρ)²
        over T's exact eigenpairs, so a level whose vector has (z_kᵀu)² ≥ ½
        lies within √2·‖(T − ρ)u‖ of ρ; ρ = uᵀTu makes that radius smallest,
        and neither ρ's rounding nor u's from unit length needs a term.  The
        slack covers two errors:

        - the computed s: each entry of (T − ρ)u is a sum of four products,
          within γ₄ of ((|T| + |ρ|)|u|)_i, and ‖·‖ adds a sum of N squares
          and a square root, within γ_{N+1} of s (Higham's γ_k);
        - ``dstebz``'s values, each within 7·ulp·‖T‖ of an eigenvalue of T,
          ‖T‖ bounded by its Gershgorin norm: the midpoint of a last
          interval no wider than 2·ulp·‖T‖ (ulp·‖T‖), the off-diagonals it
          drops as negligible (ulp·‖T‖), and Sturm counts that are exact for
          off-diagonals perturbed by 2.5 ulp (Kahan; 5·ulp·‖T‖).

        The window is taken in T's units, against the solver's own values,
        so the unscaling of ``values`` adds no rounding to it.
        """
        d, e = self.d, self.e
        r = d * u
        r[:-1] += e * u[1:]
        r[1:] += e * u[:-1]
        rho = float(u @ r)
        r -= rho * u
        s = float(np.linalg.norm(r))
        tnorm = float(_row_sums(d, e).max())
        ds = _gamma(4) * (tnorm + abs(rho)) * float(np.linalg.norm(u)) + _gamma(self.dim + 1) * s
        ulp = np.finfo(float).eps
        # (1 + γ₄): the rounding of the radius itself and of each |λ − ρ|
        radius = (math.sqrt(2.0) * (s + ds) + 7 * ulp * tnorm) * (1 + _gamma(4))
        return np.flatnonzero(np.abs(self.solver_values - rho) <= radius)

    def _alone(self, position: int) -> bool:
        """Whether ``dstein`` computes the eigenvector at this solver position
        on its own: the neighbouring values in its block lie more than twice
        ``dstein``'s reorthogonalization distance (10⁻³ of the block's
        1-norm) away.  Then no Gram–Schmidt step or value perturbation
        touches it and inverse iteration converges from any starting vector,
        so the window's run and the full run give the same vector up to
        rounding.  A level in a cluster gets a vector that depends on the
        other vectors of the run, its random start among them."""
        if self.mrrr_z is not None:
            return True
        block = self.block[position]
        start = self.split[block - 2] if block > 1 else 0
        stop = self.split[block - 1]
        reach = 2 * 1e-3 * float(_row_sums(self.d[start:stop], self.e[start : stop - 1]).max())
        value = self.solver_values[position]
        return all(
            abs(self.solver_values[p] - value) > reach
            for p in (position - 1, position + 1)
            if 0 <= p < self.dim and self.block[p] == block
        )

    def window(self, index: int) -> np.ndarray:
        """Ascending indices into ``values`` of every level whose eigenvector can
        have overlap² ≥ ½ with basis state ``index``: the levels ``dress``
        computes eigenvectors for."""
        return np.sort(self._levels[self._window(self._rotated(index))])


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

    The footprint is the Hamiltonian (8·4^n bytes), the tridiagonal's
    eigenvectors when asked for (another 8·4^n) and the symmetry check's band buffer
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


def _checked_symmetric(h: np.ndarray) -> tuple[np.ndarray, float]:
    """``h`` as a float array and its largest magnitude, after checking that
    it is square, non-empty, finite and symmetric.

    The check runs over row bands of dim/16 rows with one band-sized buffer,
    so it never holds a second dim x dim array.
    """
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
    return h, peak


def eigenvalues(h: np.ndarray) -> np.ndarray:
    """Eigenvalues (ascending) of a dense symmetric matrix, without eigenvectors.

    ``h`` is left unmodified.
    """
    scratch = isinstance(h, _Scratch)
    h, _ = _checked_symmetric(h)
    if scratch:
        # exactly symmetric, so its F-contiguous transpose is H itself, which
        # LAPACK may overwrite without the copy f2py makes of C-ordered input
        h = h.T
    try:
        return scipy.linalg.eigh(h, eigvals_only=True, overwrite_a=scratch, check_finite=False)
    except (scipy.linalg.LinAlgError, np.linalg.LinAlgError) as exc:
        raise NumericalError(f"eigensolver failed on a {h.shape[0]}x{h.shape[0]} matrix: {exc}") from exc


def _syevr_lwork(dim: int) -> int:
    """The workspace ``scipy.linalg.eigh`` hands ``dsyevr``; its steps get parts of it."""
    return int(lapack.dsyevr_lwork(dim)[0])


def _selection_sort(values: np.ndarray) -> tuple[np.ndarray, tuple[tuple[int, int], ...]]:
    """``dsyevr``'s closing sort: the ascending values and its column swaps.

    Each step swaps in the first smallest later value when it is strictly
    smaller, so exactly repeated levels keep the solver's order; a stable
    argsort would reorder them.
    """
    values = values.copy()
    swaps = []
    for j in range(len(values) - 1):
        i = j + 1 + int(np.argmin(values[j + 1 :]))
        if values[i] < values[j]:
            values[[j, i]] = values[[i, j]]
            swaps.append((j, i))
    return values, tuple(swaps)


def _solve_tridiagonal(
    d: np.ndarray, e: np.ndarray
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None, np.ndarray | None]:
    """Eigenvalues of the tridiagonal (d, e) as ``dsyevr`` computes them, with
    ``dstemr``'s eigenvectors, or, where ``dstemr`` fails, ``dstebz``'s values
    (block order) with their blocks and splits and no eigenvectors."""
    dim = len(d)
    e_work = np.append(e, 0.0)  # dstemr takes N entries and works in the last
    _, values, z, info = lapack.dstemr(d, e_work, 0, 0.0, 0.0, 0, 0)
    if info == 0:
        return values, z, None, None
    del z  # before the caller holds anything else
    m, values, block, split, info = lapack.dstebz(d, e, 0, 0.0, 0.0, 0, 0, 0.0, "B")
    if info != 0:
        raise NumericalError(f"eigensolver failed on a {dim}x{dim} matrix: bisection info {info}")
    return values[:m], None, block, split


def diagonalize(h: np.ndarray) -> EigenSystem:
    """Dense symmetric eigensystem by ``dsyevr``'s steps, stopped before
    ``dstein`` and the back-transformation (see the module docstring).

    The values are ``scipy.linalg.eigh``'s bit for bit, scaling included when
    max |h_ij| leaves ``dsyevr``'s range.  ``h`` is left unmodified; the
    cluster solves' scratch H is overwritten and holds the reflectors.
    """
    scratch = isinstance(h, _Scratch)
    h, peak = _checked_symmetric(h)
    dim = h.shape[0]
    # the lower triangle, column-major: H itself when exactly symmetric
    a = h.T if scratch else np.array(h, order="F")
    sigma = None
    if dim > 1:  # dsyevr returns a 1x1 matrix unscaled
        # dsyevr's norm is max |h_ij| over the lower triangle, the whole
        # matrix's when it is exactly symmetric
        norm = peak if scratch else max(float(np.abs(a[j:, j]).max()) for j in range(dim))
        if 0.0 < norm < _RMIN:
            sigma = _RMIN / norm
        elif norm > _RMAX:
            sigma = _RMAX / norm
    if sigma is not None:
        a *= sigma
    lwork = _syevr_lwork(dim)
    a, d, e, tau, info = lapack.dsytrd(a, lower=1, lwork=lwork - 5 * dim, overwrite_a=1)
    if info != 0:
        raise NumericalError(f"dsytrd failed on a {dim}x{dim} matrix: info {info}")
    solver_values, z, block, split = _solve_tridiagonal(d, e)
    values = solver_values if sigma is None else solver_values * (1.0 / sigma)
    values, swaps = _selection_sort(values)
    # the reflectors below row 1, addressed in place with leading dimension N
    reflectors = a.reshape(-1, order="F")[1 : 1 + dim * (dim - 1)].reshape((dim, dim - 1), order="F")
    return EigenSystem(
        values=values,
        route="mrrr" if z is not None else "bisection",
        swaps=swaps,
        reflectors=reflectors,
        tau=tau,
        d=d,
        e=e,
        solver_values=solver_values,
        mrrr_z=z,
        block=block,
        split=split,
    )


def cluster_eigenvalues(params: ClusterParams) -> np.ndarray:
    """Eigenvalues (ascending) of the cluster Hamiltonian.

    Equal bit for bit to ``eigenvalues(build_hamiltonian(params))``, but the
    only dim x dim array it holds is the Hamiltonian, which LAPACK overwrites.
    Raises CapacityError before assembly when that does not fit in memory.
    """
    _require_memory(params, vectors=False)
    return eigenvalues(build_hamiltonian(params).view(_Scratch))


def cluster_eigensystem(params: ClusterParams) -> EigenSystem:
    """Eigensystem of the cluster Hamiltonian, as ``diagonalize`` returns it.

    Equal bit for bit to ``diagonalize(build_hamiltonian(params))``, but it
    holds at most two dim x dim arrays: the Hamiltonian, which LAPACK
    overwrites with the reflectors, and ``dstemr``'s eigenvectors of the
    tridiagonal, which the bisection route releases.  Dressing adds a dim x
    (window) array; ``z`` on the bisection route adds a dim x dim array.
    Raises CapacityError before assembly when the two do not fit in memory.
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

    It computes the eigenvectors of T only for the levels in the anchor's
    window (``eig.window``), takes the one of largest overlap (the lowest
    level on a tie) and back-transforms that one column.  It reads ``eig.z``
    and takes the best of all of it by the same rule, as ``eigh`` would,
    only when no vector in the window reaches overlap² ½, or the one that
    does belongs to a cluster of levels whose vectors ``dstein`` computes
    together.  It raises StrongMixingError, reporting the best overlap²,
    when that falls below 0.5: the anchor label then no longer identifies
    a single eigenstate and all perturbative scaling statements are void.
    On a repeated level the vector is one of the solver's basis of that
    eigenspace; ``require_own_vector`` tells whether that choice matters.
    """
    anchor = validate_config(eig.n, anchor, "anchor")
    u = eig._rotated(anchor)
    for full in (False, True):
        positions = np.arange(eig.dim) if full else eig._window(u)
        z = eig.z if full else eig._tridiagonal_vectors(positions)
        overlaps = z.T @ u
        levels = eig._levels[positions]
        best = min(range(len(positions)), key=lambda j: (-abs(overlaps[j]), levels[j]), default=None)
        if best is not None and overlaps[best] ** 2 >= OVERLAP_THRESHOLD and eig._alone(positions[best]):
            break
    k = int(levels[best])
    overlap_sq = float(overlaps[best] ** 2)
    require_dominant_overlap(overlap_sq, anchor, eig.n)
    amps = eig._back_transformed(z[:, best])
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


def require_own_vector(eig: EigenSystem, dressed: DressedState) -> None:
    """Raise DegeneracyError when the dressed level is repeated and the anchor
    has weight on the repeated level beyond its own vector.

    Levels within the degeneracy tolerance of the dressed one (1e-9 of the
    spread of ``values``, as for classical energies) form one eigenspace,
    whose basis the solver picks at will.  The anchor's weight on it,
    Σ (z_pᵀu)² over its vectors, does not depend on that basis; when it
    exceeds the dressed overlap² by more than ``REPEATED_LEVEL_WEIGHT``,
    another basis gives another dressed state.  An anchor whose weight lies
    all on one vector, as at zero tunneling, passes.  A simple level costs
    two comparisons.
    """
    values, k = eig.values, dressed.eigenindex
    tolerance = _spread_tolerance(values)
    lo = hi = k
    while lo > 0 and values[k] - values[lo - 1] <= tolerance:
        lo -= 1
    while hi + 1 < eig.dim and values[hi + 1] - values[k] <= tolerance:
        hi += 1
    if lo == hi:
        return
    positions = np.flatnonzero((eig._levels >= lo) & (eig._levels <= hi))
    overlaps = eig._tridiagonal_vectors(positions).T @ eig._rotated(dressed.anchor)
    rest = float(overlaps @ overlaps) - dressed.overlap_sq
    if rest > REPEATED_LEVEL_WEIGHT:
        raise DegeneracyError(
            f"anchor {config_to_bits(dressed.anchor, eig.n)} dresses onto level {k} at "
            f"{values[k]:.8f}, repeated at levels {lo}..{hi} within tol {tolerance:.3e}; "
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
