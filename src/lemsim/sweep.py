"""Parameter sweeps over cluster size and coupling ratio.

The workhorse family is the fully connected uniform ferromagnet with a
small uniform bias: the two fully polarized configurations are then the
global and the local minimum, and all couplings are set to a fixed fraction
of the typical level spacing so a single dimensionless ratio labels each
grid point.  ``run_sweep`` checks all of its arguments before the first
point; after that, per-point failures are recorded inline as error codes
and a sweep never aborts half way.  Each grid point is a ``ClusterProblem``,
the object the command line runs its channels on too.

A problem works out its own route.  When its cluster is collective
(``ClusterParams.collective``) and its anchors are the two fully
polarized configurations, both dressed states come from one solve of the
symmetric (Dicke) chain (``collective.symmetric_chain``); every other
problem, and one built with ``dense=True``, dresses both anchors from one
dense solve (``spectrum.cluster_eigensystem``).

The family is permutation symmetric and both anchors are fully polarized,
so every configuration with k up spins has one energy, and the n+1 energies
of the chain give the family its landscape, tolerance and A_typ
(``collective.chain_anchors``) before its one cluster is built; its rows
take the sector route.  The chain-dressed states keep their n+1 chain
amplitudes: ``overlaps`` and ``rates`` read them there, so their rows form
no 2^n array, solve no 2^n x 2^n eigensystem and need no dense memory
budget, and ``rates`` prints matrix elements at full relative precision far
below the dense eigensolver's absolute floor.  Such rows run at any size up
to ``cluster.MAX_SPINS``; one whose chain amplitudes, element, rate ratio
or bound leave the double range records ``underflow`` instead of printing
0 or a subnormal number.  The energy table is built
only for the channels that read it, ``pathsum`` and ``dynamics``.  The
``dynamics`` channel integrates the same two dressed states, spread over
the 2^n basis: independent noise on each spin breaks the symmetry of the
evolution, which runs on the full basis, not of the starting states.
Its spectrum comes from the total-spin blocks (``collective.cluster_levels``).
``ClusterProblem.anchored``, the command line's constructor, takes a
collective cluster's anchors and A_typ from ``chain_anchors`` as the family
does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import cached_property
from itertools import product

import numpy as np

from .cluster import ClusterParams, bits_to_config, require_size, uniform_couplings
from .dynamics import (
    CoherenceTrace,
    default_time_step,
    evolve_superposition,
    require_dynamics_size,
)
from .errors import InsufficientDataError, SimulationError, ValidationError, is_integer
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
# here first raises the peak RSS of ``import lemsim.cli`` from 31.3 to
# 31.5 MB (medians of 20 and 24 alternating runs on a 2-core Xeon, quartiles
# 0.06 MB apart or less; the import time did not differ beyond the runs' spread)
from .collective import SymmetricChain, chain_anchors, symmetric_chain

CHANNELS = ("overlaps", "rates", "pathsum", "dynamics")


@dataclass(eq=False)
class ClusterProblem:
    """One cluster, its noise coupling and its ground and local-minimum anchors.

    The typical level spacing ``a_typ`` at the LEM anchor and the two
    dressed states are computed on first use and kept; a dense solve keeps
    only the m levels it solved and their columns.  A spacing already known
    (an override, the sweep family's) is given as ``known_a_typ``.  Every
    degeneracy check reads ``degeneracy_tolerance(params)`` where it is made.
    The route follows from the problem: a collective cluster
    (``ClusterParams.collective``) whose anchors are the two fully
    polarized configurations dresses both from one solve of the symmetric
    chain, and every other problem, or one built with ``dense=True``,
    dresses both from one dense value-subset solve.  A state that does not
    dress raises its error on every read, so it fails only the channels
    that read it.  Every channel reads the same dressed pair, so none learns
    which route ran; ``route`` names it for the logs.
    """

    params: ClusterParams
    coupling: CouplingSpec
    ground_anchor: int
    lem_anchor: int
    known_a_typ: float | None = None
    dense: bool = False  # the dense route even where the sector holds the pair

    @classmethod
    def anchored(cls, params, coupling, anchors=None, a_typ=None) -> ClusterProblem:
        """The problem on explicit ``(ground, lem)`` bitstrings or, when
        ``anchors`` is None, on the landscape's global and lowest local minimum.
        A collective cluster's landscape and A_typ come from the n+1 energies of
        its symmetric chain (``collective.chain_anchors``), any other's from
        the 2^n energy table; an ``a_typ`` given wins."""
        if anchors is not None:
            ground, lem = (bits_to_config(bits) for bits in anchors)
        else:
            if params.collective is not None:
                found = chain_anchors(params.n, *params.collective[:2])
            else:
                landscape = find_local_minima(params)
                found = None
                if landscape.local_minima:
                    found = (landscape.global_config, landscape.local_minima[0].config, None)
            if found is None:
                raise ValidationError(
                    "landscape has no local minimum; set dynamics.anchors explicitly"
                )
            ground, lem, landscape_a_typ = found
            a_typ = landscape_a_typ if a_typ is None else a_typ
        return cls(params, coupling, ground, lem, a_typ)

    @cached_property
    def a_typ(self) -> float:
        if self.known_a_typ is not None:
            return self.known_a_typ
        return typical_level_spacing(self.params, self.lem_anchor)

    @cached_property
    def _in_sector(self) -> bool:
        # both anchors in the symmetric sector, or both dense: never one of each
        polarized = {self.ground_anchor, self.lem_anchor} == {0, self.params.dim - 1}
        return not self.dense and polarized and self.params.collective is not None

    @cached_property
    def _solved(self) -> SolvedLevels:
        """One dense solve for both anchors."""
        return cluster_eigensystem(self.params, (self.ground_anchor, self.lem_anchor))

    @property
    def route(self) -> str:
        """The route that dressed the pair: "sector" or "dense"."""
        return "sector" if self._in_sector else "dense"

    @cached_property
    def _chain(self) -> SymmetricChain:
        """One chain solve for both anchors."""
        return symmetric_chain(self.params)

    def _dressed(self, anchor: int) -> DressedState:
        if self._in_sector:
            return self._chain.dressed(anchor)
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
        """Noisy trajectories of the superposition of the two dressed states,
        one ``evolve_superposition`` call, which checks the run values once
        both states are dressed.  ``time_step`` None is 0.01 / A_typ, and OU
        noise with no correlation time gets 10 / A_typ; A_typ is not
        evaluated when neither is needed, and a run without noise needs no
        correlation time.  A cluster over ``MAX_DYNAMICS_SPINS`` is refused
        before anything is dressed."""
        require_dynamics_size(self.params.n)
        noise = self.coupling
        # A_typ only where it sets something: it is undefined on a zero gap
        if noise.has_noise and noise.kind == "ou" and noise.correlation_time is None:
            noise = replace(noise, correlation_time=10.0 / self.a_typ)
        if time_step is None:
            time_step = default_time_step(self.a_typ)
        return evolve_superposition(
            self.params, self.dressed_ground, self.dressed_lem, noise, time_step=time_step,
            trajectory_count=trajectory_count, seed=seed, total_time=total_time,
        )


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

    The anchors and the typical level spacing at the local-minimum anchor
    come from the tunneling-free landscape (tunneling does not shift the
    diagonal), read off the n+1 energies of the symmetric chain
    (``collective.chain_anchors``); then the one cluster is built with
    tunneling and both noise channels at ratio * A_typ.  No energy table is
    built: the cluster builds its own when a channel reads it.
    """
    anchors = chain_anchors(n, float(coupling_j), float(bias))
    if anchors is None:
        raise ValidationError(
            f"uniform family with n={n}, bias={bias}, j={coupling_j} has no local minimum"
        )
    ground, lem, a_typ = anchors
    amps = np.full(n, ratio * a_typ)  # each of the three keeps its own copy
    params = ClusterParams(
        n=n, couplings=uniform_couplings(n, coupling_j), bias=np.full(n, float(bias)), tunneling=amps
    )
    coupling = CouplingSpec(z_noise=amps, x_noise=amps, kind="ou", correlation_time=10.0 / a_typ)
    return ClusterProblem(params, coupling, ground, lem, a_typ)


def run_sweep(
    n_values, ratio_values, channels=("overlaps", "rates", "pathsum"), *, bias: float = 0.1,
    coupling_j: float = -1.0, trajectory_count: int = 200, master_seed: int = 0,
) -> list[SweepRow]:
    """Evaluate every point of the size x ratio grid of the uniform family,
    recording per-row error codes on failure.

    Every argument is checked before the first point is built: an empty
    grid, a size that is not an integer (a bool included) or is below 1, a
    ratio outside (0, 1), an unknown channel, a
    master seed outside 64 unsigned bits, a trajectory count that is not a
    positive integer or a non-finite bias or coupling raises ValidationError,
    and a size above ``cluster.MAX_SPINS`` raises CapacityError, as
    ``cluster.n`` does.  The family checks the rest per point.  Point
    sub-seeds derive deterministically from the master seed and the grid
    position, so identical grids and seeds reproduce rows bit for bit.
    Every channel of a point runs on the point's one ``ClusterProblem``.
    """
    n_values = tuple(n_values)
    ratio_values = tuple(float(v) for v in ratio_values)
    channels = tuple(channels)
    if not n_values:
        raise ValidationError("sweep grid needs at least one cluster size")
    if not ratio_values:
        raise ValidationError("sweep grid needs at least one coupling ratio")
    for n in n_values:
        if not is_integer(n):
            raise ValidationError(f"cluster size {n!r} must be an integer")
        if n < 1:
            raise ValidationError(f"cluster size {n} must be at least 1")
        require_size(n)
    n_values = tuple(map(int, n_values))
    for r in ratio_values:
        if not 0.0 < r < 1.0:
            raise ValidationError(f"coupling ratio {r} must lie strictly in (0, 1)")
    for ch in channels:
        if ch not in CHANNELS:
            raise ValidationError(f"unknown channel {ch!r}; choose from {CHANNELS}")
    if not is_integer(master_seed) or not 0 <= int(master_seed) < 2**64:
        raise ValidationError("master seed must be an unsigned 64-bit integer")
    if not is_integer(trajectory_count) or trajectory_count < 1:
        raise ValidationError("trajectory count must be a positive integer")
    for name, value in (("bias", bias), ("coupling j", coupling_j)):
        if not math.isfinite(value):
            raise ValidationError(f"sweep {name} must be finite, got {value!r}")
    rows: list[SweepRow] = []
    points = list(product(n_values, ratio_values))
    for index, (n, ratio) in enumerate(points):
        child = np.random.SeedSequence(entropy=int(master_seed), spawn_key=(index,))
        point_seed = int(child.generate_state(1, dtype=np.uint64)[0])
        errors: list[str] = []
        try:
            fam = uniform_ferromagnet(n, ratio, bias=bias, coupling_j=coupling_j)
        except SimulationError as exc:
            rows.append(SweepRow(n=n, ratio=ratio, seed=point_seed, error=f"family:{exc.code}"))
            continue
        values = {"a_typ": fam.a_typ}

        if "overlaps" in channels:
            try:
                values["overlap_slope"] = overlap_decay(fam.dressed_ground).slope
            except SimulationError as exc:
                errors.append(f"overlaps:{exc.code}")
        if "rates" in channels:
            try:
                report = fam.rates()
                values.update(
                    matrix_element=report.matrix_element,
                    rate_ratio=report.rate_ratio,
                    rate_bound=report.bound,
                    bound_margin=report.bound_margin,
                )
            except SimulationError as exc:
                errors.append(f"rates:{exc.code}")
        if "pathsum" in channels:
            try:
                points_d = [(r.order, r.amplitude) for r in fam.path_sums()]
                values["pathsum_slope"] = scaling_exponent(points_d)
            except SimulationError as exc:
                errors.append(f"pathsum:{exc.code}")
        if "dynamics" in channels:
            try:
                trace = fam.trajectories(trajectory_count, point_seed)
                if trace.rate_is_upper_limit:  # no decay resolved: not a fitted rate
                    errors.append(f"dynamics:{InsufficientDataError.code}")
                else:
                    values["fitted_dynamics_rate"] = trace.fitted_rate
            except SimulationError as exc:
                errors.append(f"dynamics:{exc.code}")
        rows.append(SweepRow(n=n, ratio=ratio, seed=point_seed, error=";".join(errors), **values))
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
