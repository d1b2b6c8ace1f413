"""Sweep orchestration: grids, rows, error codes, size-scaling fits."""

import dataclasses

import numpy as np
import pytest

from lemsim import (
    CapacityError,
    ConfigError,
    DegeneracyError,
    InsufficientDataError,
    IntegrationError,
    NumericalError,
    SimulationError,
    StrongMixingError,
    SweepGrid,
    SweepRow,
    ValidationError,
    fit_size_scaling,
    run_sweep,
    uniform_ferromagnet,
)


def test_family_construction():
    fam = uniform_ferromagnet(3, 0.01)
    assert fam.ground_anchor == 0b000
    assert fam.lem_anchor == 0b111
    assert fam.a_typ == pytest.approx(3.8)
    assert np.allclose(fam.params.tunneling, 0.01 * fam.a_typ)
    assert np.allclose(fam.coupling.x_noise, 0.01 * fam.a_typ)
    assert np.allclose(fam.coupling.z_noise, 0.01 * fam.a_typ)
    assert fam.coupling.correlation_time == pytest.approx(10.0 / fam.a_typ)


def test_grid_validation():
    with pytest.raises(ValidationError):
        SweepGrid(n_values=(), ratio_values=(0.01,))
    with pytest.raises(ValidationError):
        SweepGrid(n_values=(2,), ratio_values=(1.5,))
    with pytest.raises(ValidationError):
        SweepGrid(n_values=(2,), ratio_values=(0.01,), channels=("nope",))
    with pytest.raises(ValidationError):
        SweepGrid(n_values=(2,), ratio_values=(0.01,), family="chain")


def test_empty_channel_set_populates_mandatory_columns():
    grid = SweepGrid(n_values=(2, 3), ratio_values=(0.05,), channels=())
    rows = run_sweep(grid, master_seed=1)
    assert len(rows) == 2
    for row in rows:
        assert row.a_typ is not None and row.seed is not None
        assert row.matrix_element is None
        assert row.rate_ratio is None
        assert row.error == ""


def test_sweep_rows_are_reproducible():
    grid = SweepGrid(n_values=(2, 3), ratio_values=(0.05, 0.01), channels=("overlaps", "rates"))
    a = run_sweep(grid, master_seed=33)
    b = run_sweep(grid, master_seed=33)
    assert a == b
    c = run_sweep(grid, master_seed=34)
    assert [r.seed for r in a] != [r.seed for r in c]


def test_headline_bound_point():
    grid = SweepGrid(n_values=(5,), ratio_values=(0.01,), channels=("rates",))
    rows = run_sweep(grid, master_seed=0)
    assert len(rows) == 1
    assert rows[0].rate_bound == pytest.approx(1e-10, rel=1e-12)
    assert rows[0].error == ""


def test_rate_ratio_monotone_in_size():
    grid = SweepGrid(n_values=(2, 3, 4), ratio_values=(0.01,), channels=("rates",))
    rows = run_sweep(grid, master_seed=0)
    ratios = [row.rate_ratio for row in rows]
    for a, b in zip(ratios, ratios[1:]):
        assert b < a / 10.0
    for row in rows:
        assert row.bound_margin >= -2.0


def test_pathsum_insufficient_orders_recorded_inline():
    # n=2 offers only two orders, not enough for a slope; the row records the
    # error code instead of aborting the sweep
    grid = SweepGrid(n_values=(2, 3), ratio_values=(0.05,), channels=("pathsum",))
    rows = run_sweep(grid, master_seed=5)
    assert rows[0].error == "pathsum:insufficient_data"
    assert rows[0].pathsum_slope is None
    assert rows[1].error == ""
    assert rows[1].pathsum_slope is not None


def test_capacity_limited_channels_record_errors():
    grid = SweepGrid(n_values=(9,), ratio_values=(0.05,), channels=("pathsum", "dynamics"))
    rows = run_sweep(grid, master_seed=5)
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
