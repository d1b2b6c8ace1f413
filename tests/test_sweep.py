"""Sweep orchestration: grids, rows, error codes, size-scaling fits."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import lemsim.cluster
import lemsim.collective
import lemsim.dynamics
import lemsim.spectrum
import lemsim.sweep
from lemsim import (
    CapacityError,
    ClusterParams,
    ClusterProblem,
    ConfigError,
    CouplingSpec,
    DegeneracyError,
    InsufficientDataError,
    IntegrationError,
    NumericalError,
    SimulationError,
    StrongMixingError,
    UnderflowError,
    SweepRow,
    ValidationError,
    cluster_eigensystem,
    cluster_levels,
    dress,
    evolve_superposition,
    fit_size_scaling,
    run_sweep,
    uniform_ferromagnet,
)
from lemsim.sweep import CHANNELS

from conftest import count_calls, count_table_builds


def test_family_construction():
    fam = uniform_ferromagnet(3, 0.01)
    assert fam.ground_anchor == 0b000
    assert fam.lem_anchor == 0b111
    assert fam.a_typ == pytest.approx(3.8)
    assert np.allclose(fam.params.tunneling, 0.01 * fam.a_typ)
    assert np.allclose(fam.coupling.x_noise, 0.01 * fam.a_typ)
    assert np.allclose(fam.coupling.z_noise, 0.01 * fam.a_typ)
    assert fam.coupling.correlation_time == pytest.approx(10.0 / fam.a_typ)


def test_missing_local_minimum_needs_explicit_anchors():
    p = ClusterParams(n=1, couplings=np.zeros((1, 1)), bias=np.array([0.5]), tunneling=np.zeros(1))
    quiet = CouplingSpec(z_noise=np.zeros(1), x_noise=np.zeros(1))
    with pytest.raises(ValidationError, match="local minimum"):
        ClusterProblem.anchored(p, quiet)
    problem = ClusterProblem.anchored(p, quiet, anchors=("0", "1"))
    assert (problem.ground_anchor, problem.lem_anchor) == (0, 1)


def test_one_row_solves_the_chain_once(monkeypatch):
    # all four channels of a grid point share the point's one chain solve and
    # its one dressed pair; the family reads its landscape off the chain, and
    # the energy table is built once, because pathsum and dynamics read it
    calls = {
        name: count_calls(monkeypatch, lemsim.sweep, name)
        for name in ("cluster_eigensystem", "find_local_minima", "symmetric_chain", "dress")
    }
    builds = count_table_builds(monkeypatch)
    rows = run_sweep((3,), (0.3,), CHANNELS, trajectory_count=4, master_seed=2)
    assert rows[0].error == ""
    assert None not in (rows[0].overlap_slope, rows[0].rate_ratio, rows[0].pathsum_slope)
    assert rows[0].fitted_dynamics_rate is not None
    assert {name: len(sizes) for name, sizes in calls.items()} == {
        "cluster_eigensystem": 0,
        "find_local_minima": 0,
        "symmetric_chain": 1,
        "dress": 0,
    }
    assert builds == [3]
    # without pathsum and dynamics nothing reads the table
    rows = run_sweep((3, 4), (0.01, 0.3), ("overlaps", "rates"), master_seed=2)
    assert [row.error for row in rows] == [""] * 4
    assert len(calls["symmetric_chain"]) == 5
    assert builds == [3]


def test_n14_overlaps_and_rates_rows_form_no_full_size_array(monkeypatch):
    # every row runs on the (n+1)-site chain: the peak stays below one
    # 2^14-entry array of doubles, and no energy table is built
    builds = count_table_builds(monkeypatch)
    tracemalloc.start()
    try:
        rows = run_sweep((14,), (0.0025, 0.01, 0.05), ("overlaps", "rates"), master_seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [row.error for row in rows] == [""] * 3
    assert builds == []
    assert peak < 8 * 2**14


def test_dense_trajectories_integrate_the_dense_dressed_pair(monkeypatch):
    # a non-collective cluster: the trajectories run on the dense dressed pair
    # and the values-only spectrum
    spectra = count_calls(monkeypatch, lemsim.collective, "cluster_eigenvalues")
    params = ClusterParams(
        n=3,
        couplings=np.array([[0.0, -0.9, 0.35], [-0.9, 0.0, -0.6], [0.35, -0.6, 0.0]]),
        bias=np.array([0.21, -0.13, 0.07]),
        tunneling=np.array([0.05, 0.11, 0.03]),
    )
    coupling = CouplingSpec(z_noise=np.full(3, 0.04), x_noise=np.full(3, 0.04), correlation_time=2.0)
    problem = ClusterProblem.anchored(params, coupling, anchors=("010", "101"))
    assert not problem.symmetric
    trace = problem.trajectories(6, 11, time_step=0.01, total_time=2.0)
    eig = cluster_eigensystem(params, (0b010, 0b101))
    direct = evolve_superposition(
        params, dress(eig, 0b010), dress(eig, 0b101), coupling, time_step=0.01, total_time=2.0,
        trajectory_count=6, seed=11,
    )
    for field in dataclasses.fields(trace):
        assert np.array_equal(getattr(trace, field.name), getattr(direct, field.name)), field.name
    assert spectra == [3, 3]


def test_overlaps_and_rates_rows_need_no_eigensystem(monkeypatch):
    # the uniform family's anchors are both polarized: the symmetric sector dresses them
    calls = count_calls(monkeypatch, lemsim.sweep, "cluster_eigensystem")
    rows = run_sweep((2, 5), (0.01, 0.05), ("overlaps", "rates"), master_seed=3)
    assert [row.error for row in rows] == [""] * 4
    assert calls == []


def test_symmetric_problem_with_unpolarized_anchors_dresses_densely(monkeypatch):
    calls = count_calls(monkeypatch, lemsim.sweep, "cluster_eigensystem")
    family = uniform_ferromagnet(3, 0.05)
    assert family.symmetric
    problem = dataclasses.replace(family, lem_anchor=0b011)
    eig = cluster_eigensystem(problem.params, (0, 0b011))
    assert np.array_equal(problem.dressed_ground.amplitudes, dress(eig, 0).amplitudes)
    assert problem.dressed_ground.energy == dress(eig, 0).energy
    # the three one-down configurations are degenerate, so 011 mixes strongly, densely
    with pytest.raises(StrongMixingError) as info:
        problem.dressed_lem
    with pytest.raises(StrongMixingError) as dense:
        dress(eig, 0b011)
    assert str(info.value) == str(dense.value)
    assert calls == [3]


def test_dense_problem_solves_once_for_both_anchors(monkeypatch):
    # one value-subset solve dresses the pair; at n=10, r=0.01 it holds the
    # two levels of the polarized anchors and no other
    solves = []
    diagonalize = lemsim.spectrum.diagonalize

    def counted(h, anchors):
        eig = diagonalize(h, anchors)
        solves.append((anchors, len(eig.values)))
        return eig

    monkeypatch.setattr(lemsim.spectrum, "diagonalize", counted)
    calls = count_calls(monkeypatch, lemsim.sweep, "cluster_eigensystem")
    problem = dataclasses.replace(uniform_ferromagnet(10, 0.01), symmetric=False)
    problem.rates()
    assert problem.route == "dense"
    assert calls == [10]
    assert solves == [((0, 2**10 - 1), 2)]


@pytest.mark.parametrize("lem_anchor", [2**9 - 1, 1], ids=["dressed", "strong-mixing"])
def test_dense_problem_keeps_only_its_solved_columns(lem_anchor):
    # the problem keeps its value-subset solve, never a dim x dim array; a
    # one-flip LEM mixes strongly with its degenerate partners, so its
    # window holds more columns
    family = uniform_ferromagnet(9, 0.05)
    problem = dataclasses.replace(family, lem_anchor=lem_anchor, symmetric=False)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ground = problem.dressed_ground
        try:
            problem.dressed_lem
        except StrongMixingError:
            assert lem_anchor == 1
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert problem.route == "dense"
    assert ground.energy == pytest.approx(cluster_levels(problem.params)[0], abs=1e-12)
    assert held < 0.1 * 8 * (2**9) ** 2


def test_unresolved_dynamics_rate_is_not_a_fitted_rate(monkeypatch):
    # too few steps for the coherence to reach the fit window: the trace's
    # rate is an upper limit, which the row must not print as a fitted rate
    monkeypatch.setattr(lemsim.dynamics, "MAX_STEPS", 20)
    (row,) = run_sweep((2,), (0.3,), ("dynamics",), trajectory_count=4, master_seed=0)
    assert row.fitted_dynamics_rate is None
    assert row.error == "dynamics:insufficient_data"


def test_n14_rates_row_fits_without_a_dense_budget(monkeypatch):
    # a dense n=14 eigensystem would need 4.3 GB; the row needs no N^2 array at all
    monkeypatch.setattr(lemsim.cluster, "_available_memory", lambda: 10**8)
    tracemalloc.start()
    try:
        rows = run_sweep((14,), (0.01,), ("rates",), master_seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows[0].error == ""
    assert rows[0].matrix_element < 0
    assert peak < 0.01 * 8 * (2**14) ** 2


def test_grid_validation():
    with pytest.raises(ValidationError, match="sweep grid needs at least one cluster size"):
        run_sweep((), (0.01,))
    with pytest.raises(ValidationError, match="sweep grid needs at least one coupling ratio"):
        run_sweep((2,), ())
    with pytest.raises(ValidationError, match=r"coupling ratio 1.5 must lie strictly in \(0, 1\)"):
        run_sweep((2,), (1.5,))
    with pytest.raises(ValidationError, match="unknown channel 'nope'; choose from"):
        run_sweep((2,), (0.01,), ("nope",))
    with pytest.raises(ValidationError, match="master seed must be an unsigned 64-bit integer"):
        run_sweep((2,), (0.01,), master_seed=-1)


def test_grid_size_cap_is_a_capacity_error():
    with pytest.raises(CapacityError, match="cluster size 1024 exceeds 1023 spins"):
        run_sweep((3, 1024), (0.01,))
    with pytest.raises(ValidationError, match="cluster size 0 must be at least 1"):
        run_sweep((0, 3), (0.01,))
    # both ends of the size range are accepted: the n=1 row fails in the family
    rows = run_sweep((1, 1023), (0.01,), ())
    assert [(row.n, row.error) for row in rows] == [(1, "family:validation"), (1023, "")]


@pytest.mark.parametrize(
    "bad",
    [
        {"ratio_values": (0.01, 0.05, 1.0)},
        {"channels": ("rates", "nope")},
        {"master_seed": 2**64},
        {"channels": ("rates", "dynamics"), "trajectory_count": 0},
        {"trajectory_count": 2.5},
        {"bias": float("nan")},
        {"coupling_j": float("-inf")},
    ],
    ids=[
        "last-ratio", "unknown-channel", "master-seed", "no-trajectories",
        "fractional-trajectories", "nan-bias", "infinite-j",
    ],
)
def test_bad_arguments_are_refused_before_any_point(monkeypatch, bad):
    # run_sweep looks the family up as a module global, where the benchmark's
    # tracer patches it too
    points = []
    family = lemsim.sweep.uniform_ferromagnet

    def counted(n, ratio, **kwargs):
        points.append(n)
        return family(n, ratio, **kwargs)

    monkeypatch.setattr(lemsim.sweep, "uniform_ferromagnet", counted)
    grid = {"n_values": (2, 3), "ratio_values": (0.01,), "channels": ("rates",)}
    with pytest.raises(ValidationError):
        run_sweep(**(grid | bad))
    assert points == []
    run_sweep(**grid)  # the accepted grid builds both points through the same name
    assert points == [2, 3]


def test_empty_channel_set_populates_mandatory_columns():
    rows = run_sweep((2, 3), (0.05,), (), master_seed=1)
    assert len(rows) == 2
    for row in rows:
        assert row.a_typ is not None and row.seed is not None
        assert row.matrix_element is None
        assert row.rate_ratio is None
        assert row.error == ""


def test_sweep_rows_are_reproducible():
    grid = ((2, 3), (0.05, 0.01), ("overlaps", "rates"))
    a = run_sweep(*grid, master_seed=33)
    b = run_sweep(*grid, master_seed=33)
    assert a == b
    c = run_sweep(*grid, master_seed=34)
    assert [r.seed for r in a] != [r.seed for r in c]


def test_headline_bound_point():
    rows = run_sweep((5,), (0.01,), ("rates",), master_seed=0)
    assert len(rows) == 1
    assert rows[0].rate_bound == pytest.approx(1e-10, rel=1e-12)
    assert rows[0].error == ""


def test_rate_ratio_monotone_in_size():
    rows = run_sweep((2, 3, 4), (0.01,), ("rates",), master_seed=0)
    ratios = [row.rate_ratio for row in rows]
    for a, b in zip(ratios, ratios[1:]):
        assert b < a / 10.0
    for row in rows:
        assert row.bound_margin >= -2.0


def test_pathsum_insufficient_orders_recorded_inline():
    # n=2 offers only two orders, not enough for a slope; the row records the
    # error code instead of aborting the sweep
    rows = run_sweep((2, 3), (0.05,), ("pathsum",), master_seed=5)
    assert rows[0].error == "pathsum:insufficient_data"
    assert rows[0].pathsum_slope is None
    assert rows[1].error == ""
    assert rows[1].pathsum_slope is not None


def test_overlaps_channel_needs_only_the_ground_state():
    # at n=8, ratio 0.275 the LEM mixes strongly but the ground state dresses
    rows = run_sweep((8,), (0.275,), ("overlaps", "rates"), master_seed=0)
    assert rows[0].overlap_slope is not None
    assert rows[0].error == "rates:strong_mixing"


@pytest.mark.parametrize(
    "n, ratio, error",
    [
        (14, 1e-12, "rates:underflow"),  # the rate ratio would print subnormal
        (14, 1e-20, "rates:underflow"),  # the rate ratio would print 0
        (14, 1e-25, "overlaps:underflow;rates:underflow"),  # the far chain amplitude is 0
        (100, 0.0025, "rates:underflow"),
        (150, 0.0025, "overlaps:underflow;rates:underflow"),
    ],
)
def test_underflowed_results_are_refused_not_printed(n, ratio, error):
    (row,) = run_sweep((n,), (ratio,), ("overlaps", "rates"), master_seed=0)
    assert row.error == error
    assert row.matrix_element is None and row.rate_ratio is None and row.rate_bound is None


def test_chain_rows_past_14_spins_print_normal_numbers():
    rows = run_sweep((15, 30, 60, 100, 150), (0.0025, 0.01, 0.05), ("overlaps", "rates"))
    printed = [
        value
        for row in rows
        for value in (row.matrix_element, row.rate_ratio, row.rate_bound, row.overlap_slope)
        if value is not None
    ]
    assert all(abs(value) >= np.finfo(float).tiny for value in printed)
    failed = [(row.n, row.ratio) for row in rows if row.error]
    assert failed == [(100, 0.0025), (150, 0.0025), (150, 0.01)]


def test_capacity_limited_channels_record_errors():
    rows = run_sweep((9,), (0.05,), ("pathsum", "dynamics"), master_seed=5)
    assert rows[0].error == "pathsum:capacity;dynamics:capacity"


@pytest.mark.parametrize(
    "cls, code",
    [
        (SimulationError, "validation"),
        (ValidationError, "validation"),
        (ConfigError, "validation"),
        (InsufficientDataError, "insufficient_data"),
        (NumericalError, "numerical"),
        (IntegrationError, "numerical"),
        (DegeneracyError, "degeneracy"),
        (StrongMixingError, "strong_mixing"),
        (CapacityError, "capacity"),
        (UnderflowError, "underflow"),
    ],
)
def test_error_classes_carry_row_codes(cls, code):
    assert cls.code == code
    assert cls("x").code == code


def test_fit_size_scaling_synthetic_exact():
    rows = [
        dataclasses.replace(SweepRow(n=n, ratio=0.01), rate_ratio=0.01 ** (2 * n))
        for n in range(2, 7)
    ]
    fit = fit_size_scaling(rows, "rate_ratio")
    assert fit.slope == pytest.approx(-4.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0)
    assert fit.points_used == 5


def test_fit_size_scaling_excludes_unusable_rows():
    rows = [
        SweepRow(n=2, ratio=0.01, rate_ratio=1e-4),
        SweepRow(n=3, ratio=0.01, rate_ratio=0.0),
        SweepRow(n=4, ratio=0.01, rate_ratio=1e-8),
        SweepRow(n=5, ratio=0.01, rate_ratio=None),
        SweepRow(n=6, ratio=0.01, rate_ratio=1e-12),
    ]
    fit = fit_size_scaling(rows, "rate_ratio")
    assert fit.points_used == 3
    assert fit.points_excluded == 2


def test_fit_size_scaling_requires_three_sizes():
    rows = [
        SweepRow(n=4, ratio=0.01, rate_ratio=1e-4),
        SweepRow(n=4, ratio=0.01, rate_ratio=2e-4),
        SweepRow(n=4, ratio=0.01, rate_ratio=3e-4),
    ]
    with pytest.raises(InsufficientDataError):
        fit_size_scaling(rows, "rate_ratio")


def test_fit_size_scaling_requires_single_ratio():
    rows = [
        SweepRow(n=2, ratio=0.01, rate_ratio=1e-4),
        SweepRow(n=3, ratio=0.02, rate_ratio=1e-6),
        SweepRow(n=4, ratio=0.01, rate_ratio=1e-8),
    ]
    with pytest.raises(ValidationError):
        fit_size_scaling(rows, "rate_ratio")
