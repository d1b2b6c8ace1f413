"""Transition matrix elements, the size bound, lifetime extension."""

import math

import numpy as np
import pytest

from lemsim import (
    ClusterParams,
    CouplingSpec,
    RateReport,
    ValidationError,
    build_hamiltonian,
    check_bound,
    diagonalize,
    dress,
    lifetime_extension,
    matrix_element,
    typical_level_spacing,
)
from lemsim.sweep import uniform_ferromagnet
from lemsim.transition import DEFAULT_SAFETY_FACTOR, coupling_ratio

from conftest import make_params


def coupling(n, f=0.0, g=0.0, **kw):
    return CouplingSpec(z_noise=np.full(n, float(f)), x_noise=np.full(n, float(g)), **kw)


# ------------------------------------------------------------ selection rules


def test_z_channel_vanishes_between_number_states():
    # no tunneling: dressed states are orthogonal number states and the
    # diagonal channel cannot connect them
    p = make_params(3, b=0.1, c=0.0)
    eig = diagonalize(build_hamiltonian(p), (0b000, 0b111))
    g = dress(eig, 0b000)
    l = dress(eig, 0b111)
    report = matrix_element(g, l, coupling(3, f=0.7, g=0.0))
    assert abs(report.matrix_element) <= 1e-14
    assert all(abs(v) <= 1e-14 for v in report.z_channel)


def test_x_channel_vanishes_beyond_single_flip():
    p = make_params(3, b=0.1, c=0.0)
    eig = diagonalize(build_hamiltonian(p), (0b000, 0b011))
    g = dress(eig, 0b000)
    l = dress(eig, 0b011)  # distance 2
    report = matrix_element(g, l, coupling(3, f=0.0, g=0.9))
    assert abs(report.matrix_element) <= 1e-14


def test_x_channel_single_flip_is_bare_amplitude():
    p = make_params(3, b=0.1, c=0.0)
    eig = diagonalize(build_hamiltonian(p), (0b000, 0b010))
    g = dress(eig, 0b000)
    l = dress(eig, 0b010)
    report = matrix_element(g, l, coupling(3, f=0.0, g=0.25))
    assert abs(report.matrix_element) == pytest.approx(0.25, abs=1e-14)


# ------------------------------------------------------------- matrix element


def test_channel_breakdown_sums_to_total():
    fam = uniform_ferromagnet(4, 0.05)
    eig = diagonalize(build_hamiltonian(fam.params), (fam.ground_anchor, fam.lem_anchor))
    g = dress(eig, fam.ground_anchor)
    l = dress(eig, fam.lem_anchor)
    report = matrix_element(g, l, fam.coupling)
    total = math.fsum(list(report.z_channel) + list(report.x_channel))
    assert report.matrix_element == pytest.approx(total, abs=1e-12)
    assert report.rate_ratio == report.matrix_element**2
    # with weak tunneling switched on, the diagonal channel is small but nonzero
    assert 0 < sum(abs(v) for v in report.z_channel) < sum(abs(v) for v in report.x_channel)


def test_bilinearity_in_each_channel():
    fam = uniform_ferromagnet(3, 0.05)
    eig = diagonalize(build_hamiltonian(fam.params), (fam.ground_anchor, fam.lem_anchor))
    g = dress(eig, fam.ground_anchor)
    l = dress(eig, fam.lem_anchor)
    n = 3
    base_f = matrix_element(g, l, coupling(n, f=0.2, g=0.0)).matrix_element
    base_g = matrix_element(g, l, coupling(n, f=0.0, g=0.2)).matrix_element
    for s in (0.5, 3.0):
        assert matrix_element(g, l, coupling(n, f=0.2 * s, g=0.0)).matrix_element == pytest.approx(
            s * base_f, rel=1e-12, abs=1e-18
        )
        assert matrix_element(g, l, coupling(n, f=0.0, g=0.2 * s)).matrix_element == pytest.approx(
            s * base_g, rel=1e-12, abs=1e-18
        )
    both = matrix_element(g, l, coupling(n, f=0.2, g=0.2)).matrix_element
    assert both == pytest.approx(base_f + base_g, rel=1e-12)


def test_weak_coupling_element_scale():
    # four spins, absolute couplings well under the level spacing: the element
    # carries three powers of the small ratio
    p = make_params(4, b=0.1, c=0.01)
    eig = diagonalize(build_hamiltonian(p), (0b0000, 0b1111))
    g = dress(eig, 0b0000)
    l = dress(eig, 0b1111)
    report = matrix_element(g, l, coupling(4, f=0.01, g=0.01))
    a_typ = typical_level_spacing(p, 0b1111)
    scale = (0.01 / a_typ) ** 3
    assert 1e-14 < abs(report.matrix_element) <= 100.0 * scale


def test_identical_eigenindices_rejected():
    p = make_params(3, b=0.1, c=0.01)
    eig = diagonalize(build_hamiltonian(p), (0b000,))
    g = dress(eig, 0b000)
    with pytest.raises(ValidationError):
        matrix_element(g, g, coupling(3, f=0.1, g=0.1))


def test_states_from_separate_solves_are_told_apart_by_their_vectors():
    # each anchor solved on its own: both states are the lowest level of
    # their solve, yet distinct; the same state from two solves is refused
    p = make_params(5, b=0.1, c=0.05)
    h = build_hamiltonian(p)
    g = dress(diagonalize(h, (0,)), 0)
    lem_eig = diagonalize(h, (31,))
    lem = dress(lem_eig, 31)
    assert lem.energy == lem_eig.values[0] > g.energy
    both = diagonalize(h, (0, 31))
    spec = coupling(5, f=0.1, g=0.1)
    joint = matrix_element(dress(both, 0), dress(both, 31), spec).matrix_element
    assert matrix_element(g, lem, spec).matrix_element == pytest.approx(joint, rel=1e-9)
    with pytest.raises(ValidationError, match="both dressed states are the eigenstate"):
        matrix_element(g, dress(both, 0), spec)


def test_element_size_scaling_with_cluster_size():
    # log10|element| falls roughly linearly in n; compare the overall fit
    # against the first step as the calibration
    import numpy as np

    sizes = (2, 3, 4, 5, 6)
    logs = []
    for n in sizes:
        fam = uniform_ferromagnet(n, 0.01)
        eig = diagonalize(build_hamiltonian(fam.params), (fam.ground_anchor, fam.lem_anchor))
        g = dress(eig, fam.ground_anchor)
        l = dress(eig, fam.lem_anchor)
        rep = matrix_element(g, l, fam.coupling)
        logs.append(math.log10(abs(rep.matrix_element)))
    slope = np.polyfit(sizes, logs, 1)[0]
    first_step = logs[1] - logs[0]
    assert slope < 0
    assert slope == pytest.approx(first_step, rel=0.3)
    # every extra spin suppresses the squared element by well over 10x
    for a, b in zip(logs, logs[1:]):
        assert 2 * (b - a) < -1.0


# -------------------------------------------------------------------- bounds


def test_bound_values_for_simple_ratios():
    # uncoupled biased spins give an exact spacing, so the ratio is exact
    for n, c_val, expected in ((5, 0.02, 1e-10), (4, 0.002, 1e-12)):
        p = ClusterParams(
            n=n,
            couplings=np.zeros((n, n)),
            bias=np.full(n, 1.0),
            tunneling=np.full(n, c_val),
        )
        eig = diagonalize(build_hamiltonian(p), (0, (1 << n) - 1))
        g = dress(eig, 0)
        l = dress(eig, (1 << n) - 1)
        report = matrix_element(g, l, coupling(n, f=0.0, g=c_val))
        a_typ = typical_level_spacing(p, (1 << n) - 1)
        report = check_bound(report, p, coupling(n, f=0.0, g=c_val), a_typ)
        assert report.bound == pytest.approx(expected, rel=1e-12)
        assert report.bound_satisfied


def test_coupling_ratio_takes_the_larger_of_tunneling_and_x_noise():
    # the z noise does not enter; |tunneling| does
    p = ClusterParams(n=2, couplings=np.zeros((2, 2)), bias=np.full(2, 2.0), tunneling=np.array([0.01, -0.03]))
    assert coupling_ratio(p, coupling(2, f=0.5, g=0.02), 2.0) == 0.015
    assert coupling_ratio(p, coupling(2, f=0.5, g=0.04), 2.0) == 0.02


def test_has_noise_reads_both_channels():
    assert not coupling(3).has_noise
    assert coupling(3, f=0.1).has_noise
    assert coupling(3, g=0.1).has_noise


def test_bound_trivial_when_couplings_vanish():
    p = make_params(3, b=0.1, c=0.0)
    eig = diagonalize(build_hamiltonian(p), (0b000, 0b111))
    g = dress(eig, 0b000)
    l = dress(eig, 0b111)
    spec = coupling(3, f=0.0, g=0.0)
    report = matrix_element(g, l, spec)
    report = check_bound(report, p, spec, typical_level_spacing(p, 0b111))
    assert report.rate_ratio == 0.0
    assert report.bound_satisfied
    assert report.bound_margin == math.inf


def test_bound_margin_on_family_points():
    for n in (2, 3, 4):
        fam = uniform_ferromagnet(n, 0.01)
        eig = diagonalize(build_hamiltonian(fam.params), (fam.ground_anchor, fam.lem_anchor))
        g = dress(eig, fam.ground_anchor)
        l = dress(eig, fam.lem_anchor)
        report = matrix_element(g, l, fam.coupling)
        report = check_bound(report, fam.params, fam.coupling, fam.a_typ)
        assert report.bound == pytest.approx(0.01**n, rel=1e-12)
        assert report.bound_margin >= -2.0
        assert report.bound_satisfied


def test_bound_verdict_allows_the_default_safety_factor():
    # bound = (0.1 / 1)^2; the verdict passes up to DEFAULT_SAFETY_FACTOR times it
    p = make_params(2, b=0.1, c=0.1)
    spec = coupling(2, f=0.1, g=0.1)
    bound = 0.1**2
    for factor, satisfied in ((0.5, True), (0.99, True), (1.01, False), (3.0, False)):
        rate_ratio = factor * DEFAULT_SAFETY_FACTOR * bound
        report = RateReport(
            matrix_element=math.sqrt(rate_ratio), rate_ratio=rate_ratio, z_channel=(), x_channel=()
        )
        report = check_bound(report, p, spec, 1.0)
        assert report.bound == pytest.approx(bound, rel=1e-15)
        assert report.bound_satisfied is satisfied
        assert report.bound_margin == pytest.approx(-math.log10(factor * DEFAULT_SAFETY_FACTOR))


# ---------------------------------------------------------------- extension


def test_lifetime_extension_values():
    assert lifetime_extension(5, 0.01) == 10.0
    assert lifetime_extension(4, 0.001) == 12.0
    assert lifetime_extension(1, 0.1) == pytest.approx(1.0)


def test_lifetime_extension_domain():
    with pytest.raises(ValidationError):
        lifetime_extension(3, 1.0)
    with pytest.raises(ValidationError):
        lifetime_extension(3, -0.1)
    with pytest.raises(ValidationError):
        lifetime_extension(3, 0.0)


# ------------------------------------------------------------- coupling spec


def test_coupling_spec_validation():
    with pytest.raises(ValidationError):
        CouplingSpec(z_noise=np.array([0.1, -0.2]), x_noise=np.array([0.1, 0.1]))
    with pytest.raises(ValidationError):
        CouplingSpec(z_noise=np.array([0.1]), x_noise=np.array([0.1, 0.1]))
    with pytest.raises(ValidationError):
        CouplingSpec(z_noise=np.zeros(2), x_noise=np.zeros(2), kind="pink")
    with pytest.raises(ValidationError):
        CouplingSpec(z_noise=np.zeros(2), x_noise=np.zeros(2), correlation_time=0.0)
