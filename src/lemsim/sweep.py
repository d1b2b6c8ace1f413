"""Parameter sweeps over cluster size and coupling ratio.

The workhorse family is the fully connected uniform ferromagnet with a
small uniform bias: the two fully polarized configurations are then the
global and the local minimum, and all couplings are set to a fixed fraction
of the typical level spacing so a single dimensionless ratio labels each
grid point.  Per-point failures are recorded inline as error codes; a sweep
never aborts half way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from .cluster import ClusterParams, MAX_SPINS, uniform_couplings
from .dynamics import (
    MAX_DYNAMICS_SPINS,
    TrajectoryConfig,
    default_time_step,
    evolve_superposition,
)
from .errors import CapacityError, InsufficientDataError, SimulationError, ValidationError
from .perturbation import PATH_SUM_MAX_SPINS, multiphoton_path_sum, scaling_exponent
from .spectrum import (
    cluster_eigensystem,
    dress,
    find_local_minima,
    overlap_decay,
    typical_level_spacing,
)
from .transition import CouplingSpec, check_bound, matrix_element

CHANNELS = ("overlaps", "rates", "pathsum", "dynamics")


@dataclass(frozen=True)
class FamilyPoint:
    """One concrete cluster plus coupling realization of the sweep family."""

    params: ClusterParams
    coupling: CouplingSpec
    ground_anchor: int
    lem_anchor: int
    a_typ: float
    ratio: float


@dataclass(frozen=True)
class SweepGrid:
    """Grid of cluster sizes and coupling ratios with requested channels."""

    n_values: tuple[int, ...]
    ratio_values: tuple[float, ...]
    channels: tuple[str, ...] = ("overlaps", "rates", "pathsum")
    family: str = "uniform"
    bias: float = 0.1
    coupling_j: float = -1.0
    trajectory_count: int = 200

    def __post_init__(self):
        object.__setattr__(self, "n_values", tuple(int(v) for v in self.n_values))
        object.__setattr__(self, "ratio_values", tuple(float(v) for v in self.ratio_values))
        object.__setattr__(self, "channels", tuple(self.channels))
        if not self.n_values:
            raise ValidationError("sweep grid needs at least one cluster size")
        if not self.ratio_values:
            raise ValidationError("sweep grid needs at least one coupling ratio")
        for n in self.n_values:
            if n < 1 or n > MAX_SPINS:
                raise ValidationError(f"cluster size {n} outside 1..{MAX_SPINS}")
        for r in self.ratio_values:
            if not 0.0 < r < 1.0:
                raise ValidationError(f"coupling ratio {r} must lie strictly in (0, 1)")
        for ch in self.channels:
            if ch not in CHANNELS:
                raise ValidationError(f"unknown channel {ch!r}; choose from {CHANNELS}")
        if self.family != "uniform":
            raise ValidationError(f"unknown sweep family {self.family!r}")


@dataclass(frozen=True)
class SweepRow:
    """One grid point of results; optional columns stay None on errors."""

    n: int
    ratio: float
    a_typ: float | None = None
    matrix_element: float | None = None
    rate_ratio: float | None = None
    rate_bound: float | None = None
    bound_margin: float | None = None
    overlap_slope: float | None = None
    pathsum_slope: float | None = None
    fitted_dynamics_rate: float | None = None
    seed: int | None = None
    error: str = ""

    @staticmethod
    def columns() -> tuple[str, ...]:
        return (
            "n",
            "ratio",
            "a_typ",
            "matrix_element",
            "rate_ratio",
            "rate_bound",
            "bound_margin",
            "overlap_slope",
            "pathsum_slope",
            "fitted_dynamics_rate",
            "seed",
            "error",
        )


@dataclass(frozen=True)
class ScalingFit:
    slope: float
    intercept: float
    r_squared: float
    points_used: int
    points_excluded: int


def uniform_ferromagnet(
    n: int, ratio: float, bias: float = 0.1, coupling_j: float = -1.0
) -> FamilyPoint:
    """Fully connected ferromagnet with all couplings a fixed fraction of A_typ.

    The typical level spacing is evaluated at the local-minimum anchor on
    the tunneling-free landscape (tunneling does not shift the diagonal),
    then tunneling and both noise channels are set to ratio * A_typ.
    """
    bare = ClusterParams(
        n=n,
        couplings=uniform_couplings(n, coupling_j),
        bias=np.full(n, float(bias)),
        tunneling=np.zeros(n),
    )
    landscape = find_local_minima(bare)
    if not landscape.local_minima:
        raise ValidationError(
            f"uniform family with n={n}, bias={bias}, j={coupling_j} has no local minimum"
        )
    ground = landscape.global_config
    lem = landscape.local_minima[0].config
    a_typ = typical_level_spacing(bare, lem, landscape.tolerance)
    amp = ratio * a_typ
    params = replace(bare, tunneling=np.full(n, amp))
    coupling = CouplingSpec(
        z_noise=np.full(n, amp),
        x_noise=np.full(n, amp),
        kind="ou",
        correlation_time=10.0 / a_typ,
    )
    return FamilyPoint(
        params=params,
        coupling=coupling,
        ground_anchor=ground,
        lem_anchor=lem,
        a_typ=a_typ,
        ratio=float(ratio),
    )


def run_sweep(grid: SweepGrid, master_seed: int = 0) -> list[SweepRow]:
    """Evaluate every grid point, recording per-row error codes on failure.

    Point sub-seeds derive deterministically from the master seed and the
    grid position, so identical grids and seeds reproduce rows bit for bit.
    """
    if not isinstance(master_seed, (int, np.integer)) or not 0 <= int(master_seed) < 2**64:
        raise ValidationError("master seed must be an unsigned 64-bit integer")
    rows: list[SweepRow] = []
    points = list(product(grid.n_values, grid.ratio_values))
    for index, (n, ratio) in enumerate(points):
        child = np.random.SeedSequence(entropy=int(master_seed), spawn_key=(index,))
        point_seed = int(child.generate_state(1, dtype=np.uint64)[0])
        errors: list[str] = []
        row = SweepRow(n=n, ratio=ratio, seed=point_seed)
        try:
            fam = uniform_ferromagnet(n, ratio, bias=grid.bias, coupling_j=grid.coupling_j)
        except SimulationError as exc:
            rows.append(replace(row, error=f"family:{exc.code}"))
            continue
        row = replace(row, a_typ=fam.a_typ)

        eig = None
        dressed_ground = None
        dressed_lem = None

        def _dressed():
            nonlocal eig, dressed_ground, dressed_lem
            if eig is None:
                eig = cluster_eigensystem(fam.params)
            if dressed_ground is None:
                dressed_ground = dress(eig, fam.ground_anchor)
            if dressed_lem is None:
                dressed_lem = dress(eig, fam.lem_anchor)
            return dressed_ground, dressed_lem

        if "overlaps" in grid.channels:
            try:
                dg, _ = _dressed()
                row = replace(row, overlap_slope=overlap_decay(dg).slope)
            except SimulationError as exc:
                errors.append(f"overlaps:{exc.code}")
        if "rates" in grid.channels:
            try:
                dg, dl = _dressed()
                report = matrix_element(dg, dl, fam.coupling)
                report = check_bound(
                    report, fam.params, fam.coupling, anchor=fam.lem_anchor, a_typ=fam.a_typ
                )
                row = replace(
                    row,
                    matrix_element=report.matrix_element,
                    rate_ratio=report.rate_ratio,
                    rate_bound=report.bound,
                    bound_margin=report.bound_margin,
                )
            except SimulationError as exc:
                errors.append(f"rates:{exc.code}")
        if "pathsum" in grid.channels:
            try:
                if n > PATH_SUM_MAX_SPINS:
                    raise CapacityError(f"pathsum channel limited to n<={PATH_SUM_MAX_SPINS}")
                points_d = []
                for d in range(1, n + 1):
                    target = fam.ground_anchor ^ ((1 << d) - 1)
                    res = multiphoton_path_sum(
                        fam.params, fam.coupling.x_noise, fam.ground_anchor, target
                    )
                    points_d.append((d, res.amplitude))
                row = replace(row, pathsum_slope=scaling_exponent(points_d))
            except SimulationError as exc:
                errors.append(f"pathsum:{exc.code}")
        if "dynamics" in grid.channels:
            try:
                if n > MAX_DYNAMICS_SPINS:
                    raise CapacityError(f"dynamics channel limited to n<={MAX_DYNAMICS_SPINS}")
                if eig is None:
                    eig = cluster_eigensystem(fam.params)
                tcfg = TrajectoryConfig(
                    noise=fam.coupling,
                    time_step=default_time_step(fam.a_typ),
                    trajectory_count=grid.trajectory_count,
                    seed=point_seed,
                )
                trace = evolve_superposition(
                    fam.params, eig, tcfg, fam.ground_anchor, fam.lem_anchor
                )
                row = replace(row, fitted_dynamics_rate=trace.fitted_rate)
            except SimulationError as exc:
                errors.append(f"dynamics:{exc.code}")
        rows.append(replace(row, error=";".join(errors)))
    return rows


def fit_size_scaling(rows, column: str) -> ScalingFit:
    """Least-squares fit of log10(column) against cluster size n.

    Rows must share a single coupling ratio; rows with missing, zero or
    non-finite values are excluded and counted.  At least three distinct
    sizes must survive.
    """
    rows = list(rows)
    if not rows:
        raise InsufficientDataError("no rows to fit")
    if column not in SweepRow.columns():
        raise ValidationError(f"unknown sweep column {column!r}")
    ratios = {row.ratio for row in rows}
    if len(ratios) != 1:
        raise ValidationError(f"size-scaling fit needs rows sharing one ratio, got {sorted(ratios)}")
    xs, ys = [], []
    excluded = 0
    for row in rows:
        value = getattr(row, column)
        if value is None or not math.isfinite(value) or abs(value) < 1e-300:
            excluded += 1
            continue
        xs.append(row.n)
        ys.append(math.log10(abs(value)))
    if len(set(xs)) < 3:
        raise InsufficientDataError(
            f"size-scaling fit needs at least 3 distinct sizes with usable values, "
            f"got {len(set(xs))} ({excluded} rows excluded)"
        )
    xarr = np.asarray(xs, dtype=float)
    yarr = np.asarray(ys, dtype=float)
    slope, intercept = np.polyfit(xarr, yarr, 1)
    pred = slope * xarr + intercept
    ss_res = float(((yarr - pred) ** 2).sum())
    ss_tot = float(((yarr - yarr.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return ScalingFit(
        slope=float(slope),
        intercept=float(intercept),
        r_squared=r2,
        points_used=len(xs),
        points_excluded=excluded,
    )
