"""Path sums, scaling exponents and first-order amplitudes against exact eigenstates."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from lemsim import (
    CapacityError,
    ClusterParams,
    DegeneracyError,
    InsufficientDataError,
    ValidationError,
    build_hamiltonian,
    diagonalize,
    dress,
    multiphoton_path_sum,
    scaling_exponent,
    uniform_couplings,
)
from lemsim.cluster import degeneracy_tolerance
from lemsim.perturbation import _orderings
from lemsim.sweep import uniform_ferromagnet

from oracles import brute_energy, left_to_right_energy, path_sum_by_orderings, rs_amplitudes


def make_params(n, j=-1.0, b=0.0, c=0.0):
    return ClusterParams(
        n=n,
        couplings=uniform_couplings(n, j),
        bias=np.full(n, float(b)),
        tunneling=np.full(n, float(c)),
    )


# ----------------------------------------------------------------- path sums


def test_path_sum_single_flip_is_bare_coupling():
    p = make_params(3, b=0.1)
    g = [0.3, 0.4, 0.5]
    res = multiphoton_path_sum(p, g, 0b000, 0b010)
    assert res.amplitude == pytest.approx(0.4)
    assert res.path_count == 1
    assert res.order == 1


def test_path_sum_two_flip_hand_evaluation():
    # two spins, degeneracy lifted by a small bias; sum the two orderings by hand
    p = make_params(2, j=-1.0, b=0.05)
    g = [0.2, 0.2]
    j, b = p.couplings, p.bias
    e_src = brute_energy(j, b, 0b00)
    expected = sum(
        g[0] * g[1] / (e_src - brute_energy(j, b, mid)) for mid in (0b01, 0b10)
    )
    res = multiphoton_path_sum(p, g, 0b00, 0b11)
    assert res.amplitude == pytest.approx(expected, rel=1e-12)
    assert res.path_count == 2


def test_path_sum_homogeneity():
    p = make_params(4, b=0.1)
    g = np.array([0.1, 0.2, 0.3, 0.4])
    base = multiphoton_path_sum(p, g, 0b0000, 0b1111)
    for s in (2.0, 0.125, 7.5):
        scaled = multiphoton_path_sum(p, s * g, 0b0000, 0b1111)
        assert scaled.amplitude == pytest.approx(s**base.order * base.amplitude, rel=1e-12)


def test_path_sum_permutation_symmetry():
    # bias-free uniform ferromagnet with uniform couplings: all orderings equal
    p = make_params(4, j=-1.0, b=0.0)
    g = [0.1] * 4
    res = multiphoton_path_sum(p, g, 0b0000, 0b0111)
    d = 3
    j, b = p.couplings, p.bias
    e_src = brute_energy(j, b, 0b0000)
    single = g[0] ** 3 / (
        (e_src - brute_energy(j, b, 0b0001)) * (e_src - brute_energy(j, b, 0b0011))
    )
    assert res.amplitude == pytest.approx(math.factorial(d) * single, rel=1e-12)


@pytest.mark.parametrize(
    "bias, source, target",
    [
        # flipping the free spin first passes through a configuration
        # degenerate with the source: the first ordering, at its first step
        ([0.0, 0.4], 0b00, 0b11),
        # only the flips {1, 2} together return to the source energy: the
        # fourth ordering, (1, 2, 0), at its second step
        ([0.5, 0.3, -0.3], 0b000, 0b111),
    ],
)
def test_path_sum_degenerate_intermediate_names_path(bias, source, target):
    n = len(bias)
    p = ClusterParams(n=n, couplings=np.zeros((n, n)), bias=np.array(bias), tunneling=np.zeros(n))
    g = [0.1] * n
    with pytest.raises(DegeneracyError, match="path") as exc:
        multiphoton_path_sum(p, g, source, target)
    with pytest.raises(ValueError) as ref:
        path_sum_by_orderings(p.couplings, p.bias, g, source, target, degeneracy_tolerance(p))
    assert str(exc.value) == str(ref.value)


@pytest.mark.parametrize("d", range(1, 9))
def test_ordering_table_is_itertools_permutations(d):
    table = _orderings(d)
    assert table.dtype == np.int8 and table.shape == (math.factorial(d), d)
    assert not table.flags.writeable
    assert list(map(tuple, table.tolist())) == list(itertools.permutations(range(d)))


@pytest.mark.parametrize("n", range(1, 8))
def test_path_sum_matches_the_per_ordering_loop_bit_for_bit(n):
    rng = np.random.default_rng(2000 + n)
    mixed = 0
    for trial in range(6):
        j = np.triu(rng.normal(size=(n, n)), 1)
        p = ClusterParams(n=n, couplings=j + j.T, bias=rng.normal(size=n), tunneling=np.zeros(n))
        g = list(rng.normal(size=n))
        source = int(rng.integers(p.dim))
        # every spin flipped on the first trial, a random set on the others
        target = source ^ (p.dim - 1 if trial == 0 else int(rng.integers(1, p.dim)))
        tolerance = degeneracy_tolerance(p)
        expected = path_sum_by_orderings(p.couplings, p.bias, g, source, target, tolerance)
        assert multiphoton_path_sum(p, g, source, target, tolerance).amplitude == expected
        e_src = left_to_right_energy(p.couplings, p.bias, source)
        flips = source ^ target
        signs = {
            e_src > left_to_right_energy(p.couplings, p.bias, source ^ sub)
            for sub in range(1, flips)
            if sub & flips == sub
        }
        mixed += len(signs) == 2
    if n >= 3:
        assert mixed  # some source sits between its intermediates


def test_path_sum_memory_at_eight_spins():
    p = make_params(8, b=0.3, c=0.134)
    _orderings.cache_clear()  # the table's own construction is counted too
    tracemalloc.start()
    try:
        result = multiphoton_path_sum(p, p.tunneling, 0, 255)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.path_count == 40320
    assert peak <= 2.5 * (1 << 20)


def test_path_sum_capacity():
    p = make_params(9, b=0.1)
    with pytest.raises(CapacityError):
        multiphoton_path_sum(p, [0.1] * 9, 0, (1 << 9) - 1)


def test_path_sum_identical_configs_rejected():
    p = make_params(3, b=0.1)
    with pytest.raises(ValidationError):
        multiphoton_path_sum(p, [0.1] * 3, 0b101, 0b101)


def test_path_sum_suppression_ratio():
    # |amp(d+1)| / |amp(d)| <= (d+1) g / (smallest source gap)
    fam = uniform_ferromagnet(6, 0.01)
    p = fam.params
    g = fam.coupling.x_noise
    j, b = p.couplings, p.bias
    energies = [brute_energy(j, b, x) for x in range(64)]
    e_src = energies[fam.ground_anchor]
    gap_min = min(
        abs(energies[x] - e_src) for x in range(64) if x != fam.ground_anchor
    )
    prev = None
    for d in range(1, 7):
        target = fam.ground_anchor ^ ((1 << d) - 1)
        amp = abs(multiphoton_path_sum(p, g, fam.ground_anchor, target).amplitude)
        if prev is not None:
            assert amp / prev <= (d + 1) * g.max() / gap_min
        prev = amp


# ---------------------------------------------------------- scaling exponent


def test_scaling_exponent_synthetic_geometric():
    pts = [(d, 0.01**d) for d in range(1, 6)]
    assert scaling_exponent(pts) == pytest.approx(-2.0, abs=1e-12)


def test_scaling_exponent_flat():
    pts = [(d, 0.37) for d in range(1, 5)]
    assert scaling_exponent(pts) == pytest.approx(0.0, abs=1e-12)


def test_scaling_exponent_needs_three_orders():
    with pytest.raises(InsufficientDataError):
        scaling_exponent([(1, 0.1), (2, 0.01)])
    with pytest.raises(InsufficientDataError):
        scaling_exponent([(1, 0.1), (2, 0.01), (2, 0.02)])
    with pytest.raises(InsufficientDataError):
        scaling_exponent([(1, 0.1), (2, 0.0), (3, 0.0)])


def test_path_sum_slope_five_spin_ferromagnet():
    # slope of log10|amplitude| against order is near log10(g / A_typ)
    fam = uniform_ferromagnet(5, 0.01)
    pts = []
    for d in range(1, 6):
        target = fam.ground_anchor ^ ((1 << d) - 1)
        res = multiphoton_path_sum(fam.params, fam.coupling.x_noise, fam.ground_anchor, target)
        pts.append((d, res.amplitude))
    slope = scaling_exponent(pts)
    assert slope == pytest.approx(-2.0, rel=0.3)


# ------------------------------------------------- agreement with eigenstates


def test_first_order_matches_exact_eigenvector():
    # relative error against the exact amplitude ratio is second order small
    for r in (0.1, 0.03, 0.01, 0.001):
        fam = uniform_ferromagnet(4, r)
        p = fam.params
        eig = diagonalize(build_hamiltonian(p), (fam.ground_anchor,))
        d = dress(eig, fam.ground_anchor)
        rs = rs_amplitudes(p.couplings, p.bias, p.tunneling, fam.ground_anchor)
        tol = 10.0 * r**2
        for i in range(4):
            z = fam.ground_anchor ^ (1 << i)
            exact = d.amplitude(z) / d.amplitude(fam.ground_anchor)
            predicted = rs[z]
            assert abs(exact - predicted) / abs(predicted) <= tol


# ------------------------------------------ agreement with the RS oracle


def test_rs_oracle_matches_path_sum():
    # two routes to the same lowest-order amplitudes: the oracle's recursion
    # over distance shells against the library's per-ordering enumeration
    rng = np.random.default_rng(97)
    for n in (3, 4, 5):
        j = rng.normal(size=(n, n))
        j = j + j.T
        np.fill_diagonal(j, 0.0)
        p = ClusterParams(n=n, couplings=j, bias=rng.normal(size=n), tunneling=rng.normal(size=n))
        anchor = int(rng.integers(0, 2**n))
        amps = rs_amplitudes(p.couplings, p.bias, p.tunneling, anchor)
        e_a = brute_energy(p.couplings, p.bias, anchor)
        for z in range(2**n):
            d = bin(z ^ anchor).count("1")
            if d == 0:
                continue
            path = multiphoton_path_sum(p, p.tunneling, anchor, z).amplitude
            final = e_a - brute_energy(p.couplings, p.bias, z)
            assert amps[z] * final == pytest.approx(path, rel=1e-10, abs=1e-14)
