"""Parameter sweeps over cluster size and coupling ratio.

The workhorse family is the fully connected uniform ferromagnet with a
small uniform bias: the two fully polarized configurations are then the
global and the local minimum, and all couplings are set to a fixed fraction
of the typical level spacing so a single dimensionless ratio labels each
grid point.  Per-point failures are recorded inline as error codes; a sweep
never aborts half way.  Each grid point is a ``ClusterProblem``, the object
the command line runs its channels on too.  Each degeneracy check on a point
computes its tolerance where it is made, from the point's one energy table
(``ClusterParams`` caches it and ``with_tunneling`` shares it).

The family is permutation symmetric and both anchors are fully polarized,
so ``uniform_ferromagnet`` marks its problems ``symmetric`` and their dressed
states come from the (n+1)-dimensional symmetric sector
(``collective.symmetric_dressed``): no channel solves the 2^n x 2^n
eigensystem or needs a dense memory budget, and the ``rates`` channel prints
matrix elements at full relative precision far below the dense eigensolver's
absolute floor.  The ``dynamics`` channel integrates the same two dressed
states: independent noise on each spin breaks the symmetry of the
evolution, which runs on the full 2^n basis, not of the starting states.
Its spectrum comes from the total-spin blocks (``collective.cluster_levels``).
``ClusterProblem.anchored``, the command line's constructor, marks every
collective cluster symmetric by the same rule as ``lemsim spectrum``.  Any
other problem dresses both anchors from one dense solve
(``spectrum.cluster_eigensystem``).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import cached_property
from itertools import product

import numpy as np

from .cluster import MAX_SPINS, ClusterParams, bits_to_config, uniform_couplings
from .dynamics import (
    MAX_DYNAMICS_SPINS,
    CoherenceTrace,
    TrajectoryConfig,
    default_time_step,
    evolve_superposition,
)
from .errors import CapacityError, InsufficientDataError, SimulationError, ValidationError
from .fitting import fit_line, log10_points
from .perturbation import PathSumResult, multiphoton_path_sum, scaling_exponent
from .spectrum import (
    DressedState,
    SolvedLevels,
    cluster_eigensystem,
    dress,
    find_local_minima,
    overlap_decay,
    typical_level_spacing,
)
from .transition import CouplingSpec, RateReport, check_bound, matrix_element

# after .dynamics, which imports .collective itself: importing .collective
# here first raises the peak RSS of ``import lemsim.cli`` from 56.6 to
# 57.0 MB (median of 30 alternating runs on a 2-core Xeon; the import time
# did not differ beyond the runs' spread)
from .collective import collective_form, symmetric_dressed

CHANNELS = ("overlaps", "rates", "pathsum", "dynamics")


@dataclass(eq=False)
class ClusterProblem:
    """One cluster, its noise coupling and its ground and local-minimum anchors.

    The typical level spacing ``a_typ`` at the LEM anchor and the two
    dressed states are computed on first use and kept; a dense solve keeps
    only the m levels it solved and their columns.  A spacing already known
    (an override, the sweep family's) is given as ``known_a_typ``.  Every
    degeneracy check reads ``degeneracy_tolerance(params)`` where it is made.  A
    ``symmetric`` problem (a collective cluster) whose anchors are the two
    fully polarized configurations dresses both in the symmetric sector;
    every other problem dresses both states from one dense value-subset
    solve.  A state that does not dress raises its error on every read, so
    it fails only the channels that read it.  Every channel reads the same
    dressed pair, so none learns which route ran; ``route`` names it for the
    logs.
    ``anchored`` sets ``symmetric`` from ``collective.collective_form``.
    """

    params: ClusterParams
    coupling: CouplingSpec
    ground_anchor: int
    lem_anchor: int
    known_a_typ: float | None = None
    symmetric: bool = False  # every spin permutation leaves H unchanged

    @classmethod
    def anchored(cls, params, coupling, anchors=None, a_typ=None) -> ClusterProblem:
        """The problem on explicit ``(ground, lem)`` bitstrings or, when
        ``anchors`` is None, on the landscape's global and lowest local minimum."""
        if anchors is not None:
            ground, lem = (bits_to_config(bits) for bits in anchors)
        else:
            landscape = find_local_minima(params)
            if not landscape.local_minima:
                raise ValidationError(
                    "landscape has no local minimum; set dynamics.anchors explicitly"
                )
            ground, lem = landscape.global_config, landscape.local_minima[0].config
        return cls(params, coupling, ground, lem, a_typ, collective_form(params) is not None)

    @cached_property
    def a_typ(self) -> float:
        if self.known_a_typ is not None:
            return self.known_a_typ
        return typical_level_spacing(self.params, self.lem_anchor)

    @cached_property
    def _in_sector(self) -> bool:
        # both anchors in the symmetric sector, or both dense: never one of each
        polarized = {0, self.params.dim - 1}
        return self.symmetric and {self.ground_anchor, self.lem_anchor} == polarized

    @cached_property
    def _solved(self) -> SolvedLevels:
        """One dense solve for both anchors."""
        return cluster_eigensystem(self.params, (self.ground_anchor, self.lem_anchor))

    @property
    def route(self) -> str:
        """The route that dressed the pair: "sector" or "dense"."""
        return "sector" if self._in_sector else "dense"

    def _dressed(self, anchor: int) -> DressedState:
        if self._in_sector:
            return symmetric_dressed(self.params, anchor)
        return dress(self._solved, anchor)

    @cached_property
    def dressed_ground(self) -> DressedState:
        return self._dressed(self.ground_anchor)

    @cached_property
    def dressed_lem(self) -> DressedState:
        return self._dressed(self.lem_anchor)

    def rates(self) -> RateReport:
        """Golden-rule matrix element between the dressed anchors, with the size bound."""
        report = matrix_element(self.dressed_ground, self.dressed_lem, self.coupling)
        return check_bound(report, self.params, self.coupling, self.a_typ)

    def path_sums(self) -> list[PathSumResult]:
        """Path sums from the ground anchor, one per order d: the target flips
        the first d spins, in index order, on which the two anchors differ."""
        results = []
        target = self.ground_anchor
        for i in range(self.params.n):
            if (self.ground_anchor ^ self.lem_anchor) >> i & 1:
                target ^= 1 << i
                results.append(
                    multiphoton_path_sum(self.params, self.coupling.x_noise, self.ground_anchor, target)
                )
        return results

    def trajectories(
        self, trajectory_count: int, seed: int, time_step=None, total_time=None
    ) -> CoherenceTrace:
        """Noisy trajectories of the superposition of the two dressed states.
        ``time_step`` None is 0.01 / A_typ, and OU noise with no correlation
        time gets 10 / A_typ; A_typ is not evaluated when neither is needed,
        and a run without noise needs no correlation time.
        A cluster over ``MAX_DYNAMICS_SPINS`` is refused before anything is
        dressed."""
        if self.params.n > MAX_DYNAMICS_SPINS:
            raise CapacityError(
                f"trajectory evolution supports up to {MAX_DYNAMICS_SPINS} spins, "
                f"got n={self.params.n}"
            )
        noise = self.coupling
        # A_typ only where it sets something: it is undefined on a zero gap
        if noise.has_noise and noise.kind == "ou" and noise.correlation_time is None:
            noise = replace(noise, correlation_time=10.0 / self.a_typ)
        tcfg = TrajectoryConfig(
            noise=noise,
            time_step=default_time_step(self.a_typ) if time_step is None else time_step,
            total_time=total_time,
            trajectory_count=trajectory_count,
            seed=seed,
        )
        return evolve_superposition(self.params, self.dressed_ground, self.dressed_lem, tcfg)


@dataclass(frozen=True)
class SweepGrid:
    """Grid of cluster sizes and coupling ratios with requested channels.

    A size above ``MAX_SPINS`` raises CapacityError, as ``cluster.n`` does.
    """

    n_values: tuple[int, ...]
    ratio_values: tuple[float, ...]
    channels: tuple[str, ...] = ("overlaps", "rates", "pathsum")
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
            if n < 1:
                raise ValidationError(f"cluster size {n} must be at least 1")
            if n > MAX_SPINS:
                raise CapacityError(f"cluster size {n} exceeds the limit of {MAX_SPINS} spins")
        for r in self.ratio_values:
            if not 0.0 < r < 1.0:
                raise ValidationError(f"coupling ratio {r} must lie strictly in (0, 1)")
        for ch in self.channels:
            if ch not in CHANNELS:
                raise ValidationError(f"unknown channel {ch!r}; choose from {CHANNELS}")


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
        return tuple(f.name for f in fields(SweepRow))


@dataclass(frozen=True)
class ScalingFit:
    slope: float
    r_squared: float
    points_used: int
    points_excluded: int


def uniform_ferromagnet(
    n: int, ratio: float, bias: float = 0.1, coupling_j: float = -1.0
) -> ClusterProblem:
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
    a_typ = typical_level_spacing(bare, lem)
    amp = ratio * a_typ
    params = bare.with_tunneling(np.full(n, amp))
    coupling = CouplingSpec(
        z_noise=np.full(n, amp),
        x_noise=np.full(n, amp),
        kind="ou",
        correlation_time=10.0 / a_typ,
    )
    return ClusterProblem(params, coupling, ground, lem, a_typ, symmetric=True)


def run_sweep(grid: SweepGrid, master_seed: int = 0) -> list[SweepRow]:
    """Evaluate every grid point, recording per-row error codes on failure.

    Point sub-seeds derive deterministically from the master seed and the
    grid position, so identical grids and seeds reproduce rows bit for bit.
    Every channel of a point runs on the point's one ``ClusterProblem``.
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

        if "overlaps" in grid.channels:
            try:
                row = replace(row, overlap_slope=overlap_decay(fam.dressed_ground).slope)
            except SimulationError as exc:
                errors.append(f"overlaps:{exc.code}")
        if "rates" in grid.channels:
            try:
                report = fam.rates()
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
                points_d = [(r.order, r.amplitude) for r in fam.path_sums()]
                row = replace(row, pathsum_slope=scaling_exponent(points_d))
            except SimulationError as exc:
                errors.append(f"pathsum:{exc.code}")
        if "dynamics" in grid.channels:
            try:
                trace = fam.trajectories(grid.trajectory_count, point_seed)
                if trace.rate_is_upper_limit:  # no decay resolved: not a fitted rate
                    errors.append(f"dynamics:{InsufficientDataError.code}")
                else:
                    row = replace(row, fitted_dynamics_rate=trace.fitted_rate)
            except SimulationError as exc:
                errors.append(f"dynamics:{exc.code}")
        rows.append(replace(row, error=";".join(errors)))
    return rows


def fit_size_scaling(rows, column: str) -> ScalingFit:
    """Least-squares fit of log10(column) against cluster size n.

    Rows must share a single coupling ratio; rows whose value a log fit
    cannot use (``fitting.log10_points``) are excluded and counted.  At
    least three distinct sizes must survive.
    """
    rows = list(rows)
    if not rows:
        raise InsufficientDataError("no rows to fit")
    if column not in SweepRow.columns():
        raise ValidationError(f"unknown sweep column {column!r}")
    ratios = {row.ratio for row in rows}
    if len(ratios) != 1:
        raise ValidationError(f"size-scaling fit needs rows sharing one ratio, got {sorted(ratios)}")
    xs, ys, excluded = log10_points([row.n for row in rows], [getattr(row, column) for row in rows])
    if len(set(xs)) < 3:
        raise InsufficientDataError(
            f"size-scaling fit needs at least 3 distinct sizes with usable values, "
            f"got {len(set(xs))} ({excluded} rows excluded)"
        )
    slope, _, r2 = fit_line(xs, ys)
    return ScalingFit(
        slope=slope,
        r_squared=1.0 if r2 is None else r2,
        points_used=len(xs),
        points_excluded=excluded,
    )
