"""Exact diagonalization, landscape analysis and dressed eigenstates.

The classical landscape (tunneling switched off) determines the global
minimum and any strict local energy minima; with weak tunneling each of
those configurations is associated with the exact eigenstate of maximal
overlap ("dressed" state).  The decay of dressed-state amplitudes with
Hamming distance from the anchor is measured here as a log-linear fit.

Two dense solves are offered: ``eigenvalues`` computes the spectrum alone
(what the ``spectrum`` subcommand writes) and skips the eigenvectors and
their back-transformation; ``diagonalize`` computes the full eigensystem
that dressing needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .cluster import (
    ClusterParams,
    classical_energies,
    classical_energy,
    config_to_bits,
    hamming_distance,
    popcounts,
    validate_config,
)
from .errors import (
    DegeneracyError,
    NumericalError,
    StrongMixingError,
    ValidationError,
)

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


def _spread_tolerance(energies: np.ndarray) -> float:
    return 1e-9 * float(energies.max() - energies.min())


def degeneracy_tolerance(params: ClusterParams) -> float:
    """Default tolerance separating true degeneracy from floating-point ties."""
    return _spread_tolerance(classical_energies(params))


def _checked_symmetric(h: np.ndarray) -> np.ndarray:
    """``h`` as a float array, after checking that it is square and symmetric."""
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValidationError(f"Hamiltonian must be a square matrix, got shape {h.shape}")
    scale = max(1.0, float(np.abs(h).max()))
    if float(np.abs(h - h.T).max()) > 1e-12 * scale:
        raise ValidationError("Hamiltonian is not symmetric")
    return h


def _eigh(h: np.ndarray, eigvals_only: bool):
    try:
        return scipy.linalg.eigh(h, eigvals_only=eigvals_only)
    except (scipy.linalg.LinAlgError, np.linalg.LinAlgError) as exc:
        raise NumericalError(f"eigensolver failed on a {h.shape[0]}x{h.shape[0]} matrix: {exc}") from exc


def eigenvalues(h: np.ndarray) -> np.ndarray:
    """Eigenvalues (ascending) of a dense symmetric matrix, without eigenvectors."""
    return _eigh(_checked_symmetric(h), eigvals_only=True)


def diagonalize(h: np.ndarray) -> EigenSystem:
    """Dense symmetric eigendecomposition with deterministic sign choice.

    Each eigenvector's sign is fixed so its largest-magnitude component is
    positive (the first such component on ties), making repeated runs
    byte-reproducible.
    """
    values, vectors = _eigh(_checked_symmetric(h), eigvals_only=False)
    peak = np.argmax(np.abs(vectors), axis=0)
    flip = vectors[peak, np.arange(vectors.shape[1])] < 0
    np.negative(vectors, out=vectors, where=flip)
    return EigenSystem(values=values, vectors=vectors)


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
    if overlap_sq < OVERLAP_THRESHOLD:
        raise StrongMixingError(
            f"anchor {config_to_bits(anchor, eig.n)} mixes strongly: "
            f"best overlap^2 = {overlap_sq:.6f} < {OVERLAP_THRESHOLD}"
        )
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
    slope = None
    if len(used) >= 2:
        slope = float(np.polyfit(used, logs, 1)[0])
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
