"""Path sums, scaling exponents and first-order amplitudes against exact eigenstates."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
)
from lemsim.cluster import degeneracy_tolerance
from lemsim.fitting import LOG_FLOOR, fit_line, log10_points
from lemsim.perturbation import EXACT_SUM_PASSES, _prefix_tree, exact_sum
from lemsim.sweep import uniform_ferromagnet

from oracles import brute_energy, left_to_right_energy, path_sum_by_orderings, rs_amplitudes

from conftest import make_params


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


@pytest.mark.parametrize("n", range(1, 9))
def test_path_sum_matches_the_per_ordering_loop_bit_for_bit(n):
    rng = np.random.default_rng(2000 + n)
    mixed = 0
    for trial in range(2 if n == 8 else 6):
        j = np.triu(rng.normal(size=(n, n)), 1)
        p = ClusterParams(n=n, couplings=j + j.T, bias=rng.normal(size=n), tunneling=np.zeros(n))
        g = list(rng.normal(size=n))
        source = int(rng.integers(p.dim))
        # every spin flipped on the first trial, a random set on the others
        target = source ^ (p.dim - 1 if trial == 0 else int(rng.integers(1, p.dim)))
        expected = path_sum_by_orderings(p.couplings, p.bias, g, source, target, degeneracy_tolerance(p))
        assert multiphoton_path_sum(p, g, source, target).amplitude == expected
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
    _prefix_tree.cache_clear()  # the tree's own construction is counted too
    tracemalloc.start()
    try:
        result = multiphoton_path_sum(p, p.tunneling, 0, 255)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.path_count == 40320
    assert peak <= 2.5 * (1 << 20)


def _same_float(a: float, b: float) -> bool:
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b) or a != a and b != b


_SPREAD_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-1e-300, max_value=1e-300),  # subnormals among them
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**100, -(2.0**-100), 1.0, -1.0]),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(_SPREAD_FLOATS, max_size=60), st.booleans())
@example([1.0, -1.0], True)  # exact cancellation, negated copies appended below too
@example([-0.0, -0.0], False)  # all zeros: math.fsum's own sign of zero
@example([1.7976931348623157e308, 1.7976931348623157e308], False)  # fsum overflows
@example([2.0**1000, 2.0**-1000, 5e-324, -(2.0**1000)], False)
def test_exact_sum_is_fsum_bit_for_bit(values, cancel):
    if cancel:  # each value and its negation: the exact sum is 0
        values = values + [-v for v in values]
    try:
        expected = math.fsum(values)
    except OverflowError:
        with pytest.raises(OverflowError):
            exact_sum(np.array(values, dtype=float))
        return
    assert _same_float(exact_sum(np.array(values, dtype=float)), expected)


def test_exact_sum_is_fsum_bit_for_bit_on_long_arrays():
    # up to 50,000 terms: the extraction's headroom grows with the length
    rng = np.random.default_rng(29)
    for trial in range(120):
        size = int(rng.integers(1, 50_000)) if trial % 4 else int(rng.integers(1, 300))
        low, high = [(-1074, 1000), (-1080, -1000), (-60, 60), (-200, 200)][trial % 4]
        values = rng.normal(size=size) * 2.0 ** rng.integers(low, high, size=size)
        if trial % 3 == 0:  # cancelling pairs and one small survivor
            values = np.concatenate([values, -values[: size // 2], [1e-300]])
            rng.shuffle(values)
        assert _same_float(exact_sum(values.copy()), math.fsum(values.tolist())), trial


@pytest.mark.parametrize(
    "values",
    [[math.inf, 1.0], [-math.inf, 2.0**-1074], [math.nan, 0.0], [math.inf, -math.inf]],
)
def test_exact_sum_leaves_non_finite_input_to_fsum(values):
    try:
        expected = math.fsum(values)
    except ValueError:
        with pytest.raises(ValueError):
            exact_sum(np.array(values))
        return
    assert _same_float(exact_sum(np.array(values)), expected)


def test_exact_sum_hands_residuals_to_fsum_after_its_passes():
    # magnitudes 130 bits apart: each pass takes one of them, and 16 exceed the passes
    values = np.array([(-1) ** k * 2.0 ** (1000 - 130 * k) for k in range(16)] + [3.0])
    assert len(values) - 1 > EXACT_SUM_PASSES
    assert _same_float(exact_sum(values.copy()), math.fsum(values.tolist()))


@pytest.mark.parametrize("d", range(1, 9))
def test_prefix_tree_leaves_are_itertools_permutations(d):
    levels = _prefix_tree(d)
    paths = [[int(f)] for f in levels[0][0]]
    for width, (child, masks) in zip(range(d - 1, 0, -1), levels[1:]):
        paths = [path + [int(f)] for path, f in zip((p for p in paths for _ in range(width)), child)]
        assert masks.tolist() == [sum(1 << f for f in path) for path in paths]
    assert paths == list(map(list, itertools.permutations(range(d))))
    assert all(a.dtype == np.uint8 and not a.flags.writeable for level in levels for a in level)


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


def test_scaling_exponent_fits_points_sorted_by_order():
    # the fit sees the usable points ordered by d, ties in input order, so
    # the slope does not depend on the order the points come in
    pts = [(3, -2e-6), (1, 0.011), (2, float("nan")), (3, 1.5e-6), (2, 1.2e-4), (4, 0.0), (1, 0.009)]
    ordered = [(1, 0.011), (1, 0.009), (2, 1.2e-4), (3, -2e-6), (3, 1.5e-6)]
    expected = fit_line([d for d, _ in ordered], [math.log10(abs(a)) for _, a in ordered])[0]
    assert scaling_exponent(pts) == expected


def test_log10_points_leaves_out_what_a_log_fit_cannot_use():
    xs = [0, 1, 2, 3, 4, 5, 6, 7]
    values = [None, -0.01, math.inf, 1e-301, 0.0, math.nan, LOG_FLOOR, 100]
    assert log10_points(xs, values) == ([1, 6, 7], [-2.0, -300.0, 2.0], 5)


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
            exact = d.amplitudes[z] / d.amplitudes[fam.ground_anchor]
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
