"""Diagonalization, landscape detection, dressed states, overlap decay."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import lemsim.perturbation
import lemsim.spectrum
from lemsim import (
    CapacityError,
    ClusterParams,
    DegeneracyError,
    NumericalError,
    StrongMixingError,
    ValidationError,
    bits_to_config,
    build_hamiltonian,
    classical_energies,
    cluster_eigensystem,
    cluster_eigenvalues,
    config_to_bits,
    degeneracy_tolerance,
    diagonalize,
    dress,
    eigenvalues,
    find_local_minima,
    multiphoton_path_sum,
    overlap_decay,
    typical_level_spacing,
)
from lemsim.sweep import uniform_ferromagnet

from oracles import brute_landscape, kron_hamiltonian, rs_amplitudes

from conftest import make_params


# ------------------------------------------------------------- diagonalize


def test_single_spin_eigenvalues():
    p = ClusterParams(
        n=1, couplings=np.zeros((1, 1)), bias=np.array([0.3]), tunneling=np.array([0.4])
    )
    eig = diagonalize(build_hamiltonian(p), (0, 1))
    assert eig.values == pytest.approx([-0.5, 0.5], abs=1e-12)


def test_two_spin_low_splitting_is_second_order():
    # J12=-1, B=0, C=0.1: the two lowest levels split by about 2*C^2; a
    # matrix this small is solved whole
    p = make_params(2, c=0.1)
    eig = diagonalize(build_hamiltonian(p), (0b00, 0b11))
    assert len(eig.values) == 4
    split = eig.values[1] - eig.values[0]
    assert 0.01 <= split <= 0.04


def test_polarized_windows_hold_the_two_lowest_levels_only():
    # five spins, past WHOLE_SOLVE_ROWS: the polarized anchors' windows, ±0.32
    # wide, hold the split pair near -10 and none of the one-flip levels near -2
    p = make_params(5, c=0.1)
    assert p.dim > lemsim.spectrum.WHOLE_SOLVE_ROWS
    eig = diagonalize(build_hamiltonian(p), (0, p.dim - 1))
    assert len(eig.values) == 2
    assert 0 < eig.values[1] - eig.values[0] <= 0.01


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_small_matrices_solve_whole_as_eigh_does(n):
    # up to WHOLE_SOLVE_ROWS rows every level is solved, bit for bit as
    # eigh's whole (MRRR) solve gives it; past that, a value subset
    h = build_hamiltonian(make_params(n, b=0.1, c=0.058))
    eig = diagonalize(h, (0,))
    if len(h) > lemsim.spectrum.WHOLE_SOLVE_ROWS:
        assert len(eig.values) < len(h)
        return
    values, vectors = scipy.linalg.eigh(h)
    assert np.array_equal(eig.values, values)
    assert np.array_equal(eig.vectors, vectors)


def test_diagonal_limit_reproduces_classical_multiset():
    # without tunneling each window is one level wide, repeats included
    p = make_params(3, b=0.2, c=0.0)
    eig = diagonalize(build_hamiltonian(p), range(p.dim))
    assert np.allclose(eig.values, np.sort(classical_energies(p)), atol=1e-12)


def _random_cluster(rng, n):
    j = rng.normal(size=(n, n))
    j = j + j.T
    np.fill_diagonal(j, 0.0)
    return j, rng.normal(size=n), rng.normal(size=n)


def _nearest(values, reference):
    """How far each of ``values`` lies from the nearest of ``reference``."""
    return np.abs(np.asarray(values)[:, None] - reference).min(axis=1)


def test_matches_kron_oracle_spectra():
    rng = np.random.default_rng(2024)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        j, b, c = _random_cluster(rng, n)
        p = ClusterParams(n=n, couplings=j, bias=b, tunneling=c)
        eig = diagonalize(build_hamiltonian(p), range(p.dim))
        oracle = np.linalg.eigvalsh(kron_hamiltonian(j, b, c))
        assert np.all(np.diff(eig.values) >= 0)
        assert _nearest(eig.values, oracle).max() <= 1e-10


def _dress_or_refusal(eig, anchor):
    """The anchor's dressed state, or the StrongMixingError or DegeneracyError
    with which ``dress`` refuses it."""
    try:
        return dress(eig, anchor)
    except (StrongMixingError, DegeneracyError) as err:
        return err


def test_eigen_residuals_and_orthonormality():
    # every dominant anchor's dressed state is an eigenvector of its level,
    # and the distinct ones are orthonormal; so is every solved column,
    # those of the repeated levels that dress refuses included
    p = make_params(5, b=0.1, c=0.07)
    h = build_hamiltonian(p)
    eig = diagonalize(h, range(p.dim))
    scale = np.abs(h).max()
    assert np.abs(h @ eig.vectors - eig.vectors * eig.values).max() <= 1e-10 * scale
    assert np.abs(eig.vectors.T @ eig.vectors - np.eye(p.dim)).max() <= 1e-10
    states = [_dress_or_refusal(eig, anchor) for anchor in range(p.dim)]
    states = [state for state in states if not isinstance(state, Exception)]
    assert len(states) >= 2
    for state in states:
        residual = np.abs(h @ state.amplitudes - state.energy * state.amplitudes).max()
        assert residual <= 1e-10 * scale
    distinct = {state.energy: state.amplitudes for state in states}
    vectors = np.column_stack(list(distinct.values()))
    assert len(distinct) >= 2
    gram = vectors.T @ vectors
    assert np.abs(gram - np.eye(len(distinct))).max() <= 1e-10
    assert np.all(np.diff(eig.values) >= 0)


def test_variational_bound():
    p = make_params(4, b=0.1, c=0.3)
    assert eigenvalues(build_hamiltonian(p))[0] <= classical_energies(p).min() + 1e-12


def test_diagonalize_rejects_asymmetric():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValidationError):
        diagonalize(m, (0,))


@pytest.mark.parametrize("anchor", [2, -1, 0.0])
def test_diagonalize_refuses_an_anchor_outside_the_basis(anchor):
    with pytest.raises(ValidationError, match="is not a basis index of a 2x2 matrix"):
        diagonalize(np.eye(2), (0, anchor))


@pytest.mark.parametrize("dim", [2, 20])  # a whole solve and a value range
def test_diagonalize_refuses_no_anchors(dim):
    with pytest.raises(ValidationError, match="no anchor to solve for"):
        diagonalize(np.eye(dim), ())


def test_dress_refuses_an_anchor_it_was_not_solved_for():
    eig = diagonalize(build_hamiltonian(make_params(3, b=0.1, c=0.01)), (0b000,))
    dress(eig, 0b000)
    with pytest.raises(ValidationError, match="not one the eigensystem was solved for"):
        dress(eig, 0b111)


def test_eigenvalues_match_kron_oracle_and_diagonalize():
    rng = np.random.default_rng(77)
    for n in (3, 4, 5, 6, 7, 8):
        j, b, c = _random_cluster(rng, n)
        h = build_hamiltonian(ClusterParams(n=n, couplings=j, bias=b, tunneling=c))
        values = eigenvalues(h)
        tol = 100 * np.finfo(float).eps * np.linalg.norm(h, 2)
        assert values.shape == (2**n,)
        assert np.all(np.diff(values) >= 0)
        assert np.abs(values - np.linalg.eigvalsh(kron_hamiltonian(j, b, c))).max() <= tol
        assert _nearest(diagonalize(h, range(2**n)).values, values).max() <= tol


def _solve(h):
    """``diagonalize`` for basis state 0; the matrix checks run first."""
    return diagonalize(h, (0,))


@pytest.mark.parametrize(
    "m",
    [np.zeros((2, 3)), np.zeros(4), np.array([[0.0, 1.0], [0.0, 0.0]])],
    ids=["non-square", "vector", "asymmetric"],
)
def test_eigenvalues_rejects_like_diagonalize(m):
    with pytest.raises(ValidationError) as full:
        _solve(m)
    with pytest.raises(ValidationError) as only:
        eigenvalues(m)
    assert str(only.value) == str(full.value)


def test_eigenvalues_rejects_nan():
    h = build_hamiltonian(make_params(3, b=0.1, c=0.05))
    h[2, 2] = np.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        eigenvalues(h)


def _route_cases():
    # ferromagnets at r = 0.01, n = 8 and 9, whose spectra repeat levels
    # exactly; a ferromagnet at r = 0.05 and two random clusters
    for n in (8, 9):
        yield f"ferromagnet n={n}", build_hamiltonian(uniform_ferromagnet(n, 0.01).params)
    yield "ferromagnet n=6", build_hamiltonian(uniform_ferromagnet(6, 0.05).params)
    rng = np.random.default_rng(12)
    for n in (3, 7):
        j, b, c = _random_cluster(rng, n)
        yield f"random n={n}", build_hamiltonian(ClusterParams(n=n, couplings=j, bias=b, tunneling=c))


EPS = np.finfo(float).eps
# c of the Davis–Kahan bound c·eps·‖H‖₁/gap on a dressed state's distance from
# eigh's column, and of c·eps·‖H‖₁ on its energy's; over 30,000 random inputs
# like the hypothesis sweep's the largest ratios were 23 and 39
DAVIS_KAHAN = 128


def _gaps(values):
    """Each level's distance to its nearest other level."""
    gaps = np.full(len(values), np.inf)
    if len(values) > 1:
        steps = np.diff(values)
        gaps[:-1] = steps
        gaps[1:] = np.minimum(gaps[1:], steps)
    return gaps


def _davis_kahan(norm, gap):
    return DAVIS_KAHAN * EPS * norm / gap if gap > 0 else math.inf


def _assert_davis_kahan(name, h, anchors, scale=1.0):
    """Dress ``anchors`` from one solve of h·scale and compare each with
    ``scipy.linalg.eigh`` of h: the level of eigh's largest overlap, within
    c·eps·‖H‖₁ of its value, and on a simple level within c·eps·‖H‖₁/gap of
    its column (Davis–Kahan: sin θ ≤ ‖r‖/gap, ‖r‖ ≲ eps·‖H‖ for either
    solver).  An anchor that mixes strongly has no overlap² clear of ½ by
    that bound, and one refused for a shared repeated level has its eigh
    level solved and repeated within the solve's tolerance.  Returns how
    many anchors dressed."""
    values, vectors = scipy.linalg.eigh(h)
    gaps = _gaps(values)
    norm = float(np.abs(h).sum(axis=0).max())
    eig = diagonalize(h * scale, anchors)
    dressed = 0
    for anchor in anchors:
        k = int(np.argmax(np.abs(vectors[anchor])))
        bound = _davis_kahan(norm, gaps[k])
        state = _dress_or_refusal(eig, anchor)
        if isinstance(state, StrongMixingError):
            assert vectors[anchor, k] ** 2 < 0.5 + lemsim.spectrum.OVERLAP_ROUNDING + 2 * bound, name
            continue
        if isinstance(state, DegeneracyError):
            assert gaps[k] <= eig.tolerance / scale, name
            assert _nearest([values[k]], eig.values / scale)[0] <= DAVIS_KAHAN * EPS * norm, name
            continue
        dressed += 1
        assert abs(state.energy / scale - values[k]) <= DAVIS_KAHAN * EPS * norm, name
        column = vectors[:, k] * np.sign(vectors[anchor, k])
        assert np.linalg.norm(state.amplitudes - column) <= bound, name
    return dressed


def test_route_cases_dress_within_davis_kahan_of_eigh():
    for name, h in _route_cases():
        anchors = (0, 1, h.shape[0] // 3, h.shape[0] - 1)
        assert _assert_davis_kahan(name, h, anchors), name


def test_every_anchor_of_small_clusters_dresses_within_davis_kahan_of_eigh():
    for p in _bit_identity_clusters():
        _assert_davis_kahan(f"n={p.n}", build_hamiltonian(p), range(p.dim))


@pytest.mark.parametrize("exponent", [-600, 0, 600])
def test_power_of_two_scaling_is_exact(exponent):
    # H enters the solve scaled into [1/2, 1) by a power of two, so 2^k·H
    # solves to 2^k times the same values and to the same vectors
    h = build_hamiltonian(uniform_ferromagnet(6, 0.05).params)
    anchors = (0, h.shape[0] - 1)
    eig, scaled = diagonalize(h, anchors), diagonalize(np.ldexp(h, exponent), anchors)
    assert np.array_equal(np.ldexp(eig.values, exponent), scaled.values)
    assert np.array_equal(eig.vectors, scaled.vectors)


@pytest.mark.parametrize("scale", [1e100, 1e300, 1e-150])
def test_scaled_matrices_dress_within_davis_kahan_of_eigh(scale):
    # H is scaled by a power of two into [1/2, 1) before the solve, so no
    # scaling inside dsyevr touches it
    rng = np.random.default_rng(3)
    a = rng.normal(size=(24, 24))
    assert _assert_davis_kahan("random", np.diag(np.arange(24.0)) + 0.1 * (a + a.T), range(24), scale)
    h = build_hamiltonian(uniform_ferromagnet(9, 0.01).params)
    assert _assert_davis_kahan("ferromagnet n=9", h, (0, h.shape[0] - 1), scale) == 2


@pytest.mark.parametrize("entry", [-0.7, 1e200, 0.0])
def test_one_by_one_matches_eigh(entry):
    h = np.array([[entry]])
    eig = diagonalize(h, (0,))
    assert eig.values.tolist() == [entry] == scipy.linalg.eigh(h)[0].tolist()
    assert dress(eig, 0).amplitudes.tolist() == [1.0]


def test_zero_matrix_solves_every_level():
    eig = diagonalize(np.zeros((4, 4)), range(4))
    assert eig.values.tolist() == [0.0] * 4
    for anchor in range(4):
        # one level repeated four times, each anchor its own vector
        assert dress(eig, anchor).overlap_sq == 1.0


def test_empty_matrix_is_refused():
    for solve in (_solve, eigenvalues):
        with pytest.raises(ValidationError, match="must not be empty"):
            solve(np.zeros((0, 0)))


@pytest.mark.parametrize(
    "h", [np.array([[1, 0.5j], [-0.5j, 1]]), [[1, 0.5j], [-0.5j, 1]]], ids=["array", "list"]
)
def test_complex_matrix_is_refused_not_truncated(h):
    # a cast to float would drop the imaginary part: levels [1, 1], not [0.5, 1.5]
    for solve in (_solve, eigenvalues):
        with pytest.raises(ValidationError, match="^Hamiltonian must be real, got complex128$"):
            solve(h)


# the best overlap² over every eigenvector, as dressing reported it when it
# read them all; the anchor's window holds that vector too
_MIXED_MESSAGES = {
    0: "anchor 000000000 mixes strongly: best overlap^2 = 0.393952 < 0.5",
    511: "anchor 111111111 mixes strongly: best overlap^2 = 0.384886 < 0.5",
}


@pytest.mark.parametrize("anchor", list(_MIXED_MESSAGES))
def test_strong_mixing_reports_the_best_overlap_of_every_level(anchor):
    p = uniform_ferromagnet(9, 0.3).params
    eig = cluster_eigensystem(p, (anchor,))
    assert 0 < len(eig.values) < p.dim
    with pytest.raises(StrongMixingError) as err:
        dress(eig, anchor)
    assert str(err.value) == _MIXED_MESSAGES[anchor]


@st.composite
def _diagonal_heavy_matrices(draw):
    """Small symmetric matrices whose diagonal spread competes with their
    off-diagonal part, so some basis states dominate an eigenvector and some
    do not; a few exactly repeated diagonal entries.  Returns the matrix and
    a scale to solve it at."""
    dim = draw(st.integers(1, 32))  # past WHOLE_SOLVE_ROWS, windows decide
    diagonal = draw(st.lists(st.integers(-4, 4), min_size=dim, max_size=dim))
    seed = draw(st.integers(0, 2**32 - 1))
    strength = draw(st.sampled_from([0.0, 1e-9, 0.01, 0.1, 0.5, 2.0]))
    scale = draw(st.sampled_from([1.0, 1e-3, 1e100, 1e-160]))
    a = np.random.default_rng(seed).normal(size=(dim, dim))
    return np.diag(np.array(diagonal, dtype=float)) + strength * (a + a.T) / 2, scale


@settings(max_examples=200, deadline=None)
@given(_diagonal_heavy_matrices())
def test_every_dominant_eigh_vector_lies_inside_the_window(case):
    # each basis state solved on its own: the level of any eigh vector it
    # dominates, by more than the Davis–Kahan bound, is solved, and dress
    # finds that vector, or refuses it as a level repeated within the
    # solve's tolerance
    h, scale = case
    values, vectors = scipy.linalg.eigh(h)
    gaps = _gaps(values)
    norm = float(np.abs(h).sum(axis=0).max())
    for index in range(h.shape[0]):
        k = int(np.argmax(np.abs(vectors[index])))
        bound = _davis_kahan(norm, gaps[k])
        if vectors[index, k] ** 2 < 0.5 + lemsim.spectrum.OVERLAP_ROUNDING + 2 * bound:
            continue
        eig = diagonalize(h * scale, (index,))
        assert _nearest([values[k]], eig.values / scale)[0] <= DAVIS_KAHAN * EPS * norm
        try:
            state = dress(eig, index)
        except DegeneracyError:
            assert gaps[k] <= eig.tolerance / scale + 2 * DAVIS_KAHAN * EPS * norm
            continue
        assert abs(state.energy / scale - values[k]) <= DAVIS_KAHAN * EPS * norm
        column = vectors[:, k] * np.sign(vectors[index, k])
        assert np.linalg.norm(state.amplitudes - column) <= bound


@pytest.mark.parametrize("order", ["C", "F"])
def test_solvers_leave_input_unmodified(order):
    # LAPACK works in place on a Fortran-ordered array it is allowed to overwrite
    h = np.asarray(build_hamiltonian(make_params(5, b=0.1, c=0.07)), order=order)
    before = h.copy()
    diagonalize(h, (0, 31))
    assert np.array_equal(h, before)
    eigenvalues(h)
    assert np.array_equal(h, before)


def _bit_identity_clusters():
    rng = np.random.default_rng(404)
    for n in range(1, 10):
        j, b, c = _random_cluster(rng, n)
        yield ClusterParams(n=n, couplings=j, bias=b, tunneling=c)
    for n in (4, 5, 6):
        # the unbiased ferromagnets' eigenvectors tie exactly in magnitude
        yield make_params(n, c=0.3)


def _window_cases():
    """(name, cluster, anchors) solved on a value range: polarized pairs of
    ferromagnets at n = 5 to 11, random clusters at n = 5 to 9, and
    ferromagnets up to r = 1 and unbiased ones with three anchor sets each,
    whose windows hold up to hundreds of levels, exact repeats among them."""
    for n in (5, 6, 8, 9, 10, 11):
        for r in (0.01, 0.05):
            p = uniform_ferromagnet(n, r).params
            yield f"ferromagnet n={n} r={r}", p, (0, p.dim - 1)
    rng = np.random.default_rng(48)
    for n in (5, 6, 7, 8, 9) * 2 + (7, 9):
        j, b, c = _random_cluster(rng, n)
        yield f"random n={n}", ClusterParams(n=n, couplings=j, bias=b, tunneling=c), (0, 2**n // 3)
    clusters = [(f"ferromagnet n={n} r={r}", uniform_ferromagnet(n, r).params)
                for n in (7, 8, 9) for r in (0.01, 0.3, 1.0)]
    clusters += [(f"unbiased n={n}", make_params(n, c=0.3)) for n in (6, 7, 8)]
    for name, p in clusters:
        for anchors in ((0,), (p.dim - 1,), (1, p.dim // 3)):
            yield name, p, anchors


def test_window_solve_is_eighs_value_subset_bit_for_bit(monkeypatch):
    # the same scaled matrix and window handed to scipy.linalg.eigh: the
    # levels, and the columns of exactly repeated levels too, are its bits
    solve_window = lemsim.spectrum._solve_window
    widths, repeats = [], 0

    def compared(a, lo, hi):
        values, vectors = scipy.linalg.eigh(a.copy(order="F"), subset_by_value=(lo, hi))
        got = solve_window(a, lo, hi)
        assert np.array_equal(got[0], values), name
        assert np.array_equal(got[1], vectors), name
        widths.append(len(values))
        return got

    monkeypatch.setattr(lemsim.spectrum, "_solve_window", compared)
    for name, p, anchors in _window_cases():
        eig = cluster_eigensystem(p, anchors)
        repeats += int(np.any(np.diff(eig.values) == 0))
    assert len(widths) == 60 and max(widths) > 400 and repeats >= 10


def test_hamiltonian_is_exactly_symmetric():
    # the in-place cluster solves hand LAPACK H.T in place of H
    for p in _bit_identity_clusters():
        h = build_hamiltonian(p)
        assert np.array_equal(h, h.T)


def _assert_same_dressing(eig, other):
    """Every anchor dresses to the same state, bit for bit, or is refused with
    the same error and message, on both solves."""
    assert eig.anchors == other.anchors
    for anchor in eig.anchors:
        state, twin = _dress_or_refusal(eig, anchor), _dress_or_refusal(other, anchor)
        if isinstance(state, Exception):
            assert (type(state), str(state)) == (type(twin), str(twin))
            continue
        assert (state.energy, state.overlap_sq) == (twin.energy, twin.overlap_sq)
        assert np.array_equal(state.amplitudes, twin.amplitudes)


def test_cluster_solves_match_public_solves_bit_for_bit():
    for p in _bit_identity_clusters():
        anchors = range(p.dim)
        full = diagonalize(build_hamiltonian(p), anchors)
        eig = cluster_eigensystem(p, anchors)
        assert np.array_equal(eig.values, full.values)
        assert eig.tolerance == full.tolerance == degeneracy_tolerance(p)
        _assert_same_dressing(eig, full)
        assert np.array_equal(cluster_eigenvalues(p), eigenvalues(build_hamiltonian(p)))


def test_asymmetry_in_the_last_row_band_is_found():
    # 32 rows make bands of 2: the skewed pair (31, 30)/(30, 31) sits in the last one
    rng = np.random.default_rng(8)
    a = rng.normal(size=(32, 32))
    h = a + a.T
    h[31, 30] += 1e-6
    for solve in (_solve, eigenvalues):
        with pytest.raises(ValidationError, match="not symmetric"):
            solve(h)


def test_scale_from_the_last_row_band_sets_the_symmetry_tolerance():
    # 33 rows make bands of 2 and a last band of one row, which holds the only
    # large entry: a skew of 5e-11 passes under 1e-12 * 100, not under 1e-12 * 1
    rng = np.random.default_rng(9)
    a = rng.uniform(-0.4, 0.4, size=(33, 33))
    h = a + a.T
    h[32, 32] = 100.0
    h[1, 0] += 5e-11
    assert np.abs(np.delete(h, 32, axis=0)).max() < 1.0
    _solve(h)
    eigenvalues(h)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entry_in_the_last_row_band_raises(bad):
    h = build_hamiltonian(make_params(5, b=0.1, c=0.05))
    h[-1, -1] = bad
    for solve in (_solve, eigenvalues):
        with pytest.raises(ValueError, match="infs or NaNs"):
            solve(h)


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n", [9, 10])
def test_cluster_solves_hold_at_most_one_dense_array(n):
    # tracemalloc sees numpy's buffers, f2py's copies and the LAPACK workspace
    p = uniform_ferromagnet(n, 0.01).params
    matrix = 8 * p.dim**2
    anchors = (0, p.dim - 1)
    assert _traced_peak(cluster_eigensystem, p, anchors) <= 1.1 * matrix
    assert _traced_peak(cluster_eigenvalues, p) <= 1.1 * matrix

    def solve_and_dress(params):
        eig = cluster_eigensystem(params, anchors)
        dress(eig, 0)
        dress(eig, params.dim - 1)

    assert _traced_peak(solve_and_dress, p) <= 1.1 * matrix
    # the solve keeps its two columns, in an array of their own
    vectors = cluster_eigensystem(p, anchors).vectors
    assert vectors.shape == (p.dim, 2) and vectors.flags.owndata


def test_capacity_preflight_raises_before_assembly(monkeypatch):
    p = make_params(6, b=0.1, c=0.05)
    # either solve needs one dense array, H, and nothing more before assembly
    monkeypatch.setattr(lemsim.spectrum, "_available_memory", lambda: 8 * p.dim**2 - 1)
    with pytest.raises(CapacityError, match="needs 32768 bytes, 32767 bytes of memory available"):
        cluster_eigenvalues(p)
    with pytest.raises(CapacityError, match="eigensystem of a 6-spin cluster needs 32768 bytes"):
        cluster_eigensystem(p, (0,))
    monkeypatch.setattr(lemsim.spectrum, "_available_memory", lambda: 8 * p.dim**2)
    assert np.array_equal(cluster_eigenvalues(p), eigenvalues(build_hamiltonian(p)))
    cluster_eigensystem(p, (0,))


def test_eigensystem_fits_in_little_more_than_one_dense_array(monkeypatch):
    # H and two columns fit in 1.2 matrices
    p = uniform_ferromagnet(10, 0.01).params
    monkeypatch.setattr(lemsim.spectrum, "_available_memory", lambda: int(1.2 * 8 * p.dim**2))
    eig = cluster_eigensystem(p, (0, p.dim - 1))
    assert eig.vectors.shape == (p.dim, 2)


def test_window_too_wide_for_its_columns_is_refused_before_they_exist(monkeypatch):
    # the n=9 ferromagnet's anchors 1 and 170 span a window of 501 levels:
    # H (2097152 bytes) fits, the columns (16·512·501) do not
    p = uniform_ferromagnet(9, 0.01).params

    def forbidden(*args, **kwargs):
        raise AssertionError("dstein ran")

    monkeypatch.setattr(lemsim.spectrum, "_available_memory", lambda: 3_000_000)
    monkeypatch.setattr(lemsim.spectrum.lapack, "dstein", forbidden)
    with pytest.raises(CapacityError) as err:
        cluster_eigensystem(p, (1, 170))
    assert str(err.value) == (
        "a window of 501 eigenvectors of a 512x512 matrix needs 4104192 bytes, "
        "3000000 bytes of memory available"
    )


@pytest.mark.parametrize("routine", ["dsytrd", "dstebz", "dstein", "dormqr"])
def test_window_solve_failures_raise_numerical_error(monkeypatch, routine):
    original = getattr(lemsim.spectrum.lapack, routine)

    def failing(*args, **kwargs):
        return (*original(*args, **kwargs)[:-1], 1)

    monkeypatch.setattr(lemsim.spectrum.lapack, routine, failing)
    with pytest.raises(NumericalError, match=f"^{routine} failed on a 32x32 matrix: info 1$"):
        cluster_eigensystem(make_params(5, b=0.1, c=0.05), (0, 31))


def test_unknown_available_memory_skips_the_preflight(monkeypatch):
    monkeypatch.setattr(lemsim.spectrum, "_available_memory", lambda: None)
    p = make_params(4, b=0.1, c=0.05)
    anchors = (0, p.dim - 1)
    eig, full = cluster_eigensystem(p, anchors), diagonalize(build_hamiltonian(p), anchors)
    assert np.array_equal(eig.values, full.values)
    _assert_same_dressing(eig, full)


def test_available_memory_probe_reads_a_byte_count_or_nothing():
    available = lemsim.spectrum._available_memory()
    assert available is None or (isinstance(available, int) and available > 0)


def _fake_kernel(tmp_path, cgroup_lines, files):
    """A /proc and a cgroup mount under tmp_path: MemAvailable of 1000 kB,
    the given /proc/self/cgroup lines and cgroup files {relative path: text}."""
    proc, cgroup_fs = tmp_path / "proc", tmp_path / "cgroup"
    (proc / "self").mkdir(parents=True)
    (proc / "meminfo").write_text("MemTotal:  4000 kB\nMemAvailable:  1000 kB\n")
    (proc / "self" / "cgroup").write_text("".join(line + "\n" for line in cgroup_lines))
    for rel, text in files.items():
        path = cgroup_fs / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text + "\n")
    return lemsim.spectrum._available_memory(str(proc), str(cgroup_fs))


@pytest.mark.parametrize("mount", ["", "unified/"])  # unified-only and hybrid layouts
def test_available_memory_is_lowered_to_a_cgroup_v2_limit(tmp_path, mount):
    files = {f"{mount}job/memory.max": "600000", f"{mount}job/memory.current": "100000"}
    assert _fake_kernel(tmp_path, ["0::/job"], files) == 500000


def test_available_memory_sees_a_cgroup_v1_limit_on_an_ancestor(tmp_path):
    files = {
        "memory/a/memory.limit_in_bytes": "300000",
        "memory/a/memory.usage_in_bytes": "100000",
        "memory/a/b/memory.limit_in_bytes": "9223372036854771712",
        "memory/a/b/memory.usage_in_bytes": "50000",
    }
    lines = ["5:cpu,cpuacct:/a/b", "4:memory:/a/b", "0::/"]
    assert _fake_kernel(tmp_path, lines, files) == 200000


def test_available_memory_without_a_cgroup_limit_is_mem_available(tmp_path):
    files = {"job/memory.max": "max", "job/memory.current": "100000"}
    assert _fake_kernel(tmp_path, ["0::/job"], files) == 1000 * 1024
    # a limit above MemAvailable does not raise it
    files = {"job/memory.max": "9000000", "job/memory.current": "0"}
    assert _fake_kernel(tmp_path / "hybrid", ["0::/job"], files) == 1000 * 1024


def test_available_memory_is_unknown_without_kernel_files(tmp_path):
    assert lemsim.spectrum._available_memory(str(tmp_path / "proc"), str(tmp_path / "cgroup")) is None


# ---------------------------------------------------------------- landscape


def test_three_spin_ferromagnet_landscape():
    p = make_params(3, b=0.1)
    report = find_local_minima(p)
    assert report.global_config == bits_to_config("000")
    assert report.global_energy == pytest.approx(-3.3)
    assert len(report.local_minima) == 1
    lem = report.local_minima[0]
    assert lem.config == bits_to_config("111")
    assert lem.energy == pytest.approx(-2.7)
    assert lem.distance_to_global == 3
    assert not report.degenerate


def test_unbiased_pair_is_degenerate():
    p = make_params(2, b=0.0)
    report = find_local_minima(p)
    assert report.degenerate
    assert report.global_energy == pytest.approx(-1.0)
    assert len(report.local_minima) == 1
    assert report.local_minima[0].energy == pytest.approx(-1.0)


def test_single_spin_has_no_lem():
    p = ClusterParams(
        n=1, couplings=np.zeros((1, 1)), bias=np.array([0.5]), tunneling=np.zeros(1)
    )
    report = find_local_minima(p)
    assert report.global_config == 0
    assert report.local_minima == ()


def test_landscape_matches_enumeration_oracle():
    rng = np.random.default_rng(99)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        j = rng.normal(size=(n, n))
        j = j + j.T
        np.fill_diagonal(j, 0.0)
        b = rng.normal(size=n)
        p = ClusterParams(n=n, couplings=j, bias=b, tunneling=np.zeros(n))
        report = find_local_minima(p)
        g, minima = brute_landscape(j, b)
        assert report.global_config == g
        assert {m.config for m in report.local_minima} == minima


# -------------------------------------------------------------------- dress


def test_dress_diagonal_limit_is_delta():
    p = make_params(3, b=0.1, c=0.0)
    eig = diagonalize(build_hamiltonian(p), (bits_to_config("111"),))
    d = dress(eig, bits_to_config("111"))
    assert d.overlap_sq == pytest.approx(1.0, abs=1e-12)
    expected = np.zeros(8)
    expected[0b111] = 1.0
    assert np.allclose(d.amplitudes, expected, atol=1e-12)


def test_dress_four_spin_weak_tunneling():
    p = make_params(4, b=0.1, c=0.01)
    eig = diagonalize(build_hamiltonian(p), (bits_to_config("1111"), bits_to_config("0000")))
    d = dress(eig, bits_to_config("1111"))
    assert d.overlap_sq >= 0.999
    g = dress(eig, bits_to_config("0000"))
    assert g.energy == eig.values[0] < d.energy


def test_dress_normalization():
    p = make_params(4, b=0.1, c=0.05)
    eig = diagonalize(build_hamiltonian(p), (0,))
    d = dress(eig, 0)
    assert math.fsum((d.amplitudes**2).tolist()) == pytest.approx(1.0, abs=1e-10)
    assert d.amplitudes[d.anchor] > 0


def _star(dim):
    """A basis state coupled to every other, with unequal diagonal entries."""
    h = np.diag([0.3, -0.2, 0.1, -0.4][: dim - 1] + [0.0])
    h[-1, :-1] = h[:-1, -1] = 1.0
    return h


@pytest.mark.parametrize(
    "dim, message",
    [
        (3, "anchor 2 mixes strongly: best overlap^2 = 0.494056 < 0.5"),
        (5, "anchor 4 mixes strongly: best overlap^2 = 0.497362 < 0.5"),
    ],
)
def test_anchors_of_matrices_without_2n_rows_are_named_by_index(dim, message):
    with pytest.raises(StrongMixingError) as err:
        dress(diagonalize(_star(dim), (dim - 1,)), dim - 1)
    assert str(err.value) == message


@pytest.mark.parametrize("n, overlap", [(2, "0.500000"), (3, "0.375")])
def test_dress_strong_mixing_error_reports_overlap(n, overlap):
    # large tunneling destroys the perturbative anchor labelling: the best
    # overlap² is about 0.375 at n=3, and exactly 1/2 at n=2, refused on
    # whichever side of 1/2 rounding puts it
    p = make_params(n, j=-0.01, b=0.0, c=5.0)
    eig = diagonalize(build_hamiltonian(p), (0,))
    with pytest.raises(StrongMixingError, match=rf"overlap\^2 = {overlap}"):
        dress(eig, 0)


@pytest.mark.parametrize("coupling", [1.0, 3.0])
def test_an_exactly_half_mixed_anchor_is_refused_on_a_value_subset(coupling):
    # basis states 0 and 1, both at energy 0, mix half and half, far from
    # the other 22 levels; rounding leaves overlap² just under ½ at one
    # coupling and just over it at the other
    h = np.diag(np.concatenate([[0.0, 0.0], np.arange(1.0, 23.0) * 10]))
    h[0, 1] = h[1, 0] = coupling
    eig = diagonalize(h, (0,))
    assert len(eig.values) == 2
    for overlap_sq in eig.vectors[0] ** 2:
        assert abs(overlap_sq - 0.5) <= 1e-15
    with pytest.raises(StrongMixingError, match=r"overlap\^2 = 0\.500000"):
        dress(eig, 0)


@pytest.mark.parametrize("c, owned", [(0.038, (0b000, 0b111)), (0.0, tuple(range(8)))])
def test_dress_refuses_a_shared_repeated_level(c, owned):
    # c > 0: the S=1/2 levels repeat, and the anchors that dress onto them
    # overlap both vectors of their plane; the polarized anchors sit on simple
    # levels.  c = 0: every level with k up spins repeats, but each anchor is
    # its own eigenvector
    p = make_params(3, j=-1.0, b=0.1, c=c)
    eig = cluster_eigensystem(p, range(8))
    for anchor in range(8):
        try:
            dress(eig, anchor)
        except StrongMixingError:
            assert anchor not in owned
        except DegeneracyError as err:
            assert anchor not in owned
            assert str(err).startswith(f"anchor {config_to_bits(anchor, 3)} dresses")
        else:
            assert anchor in owned


def test_an_anchor_window_holds_every_repeat_of_its_level():
    # 011 dresses onto an S=1/2 level that repeats; solved on its own, its
    # window still holds both copies, so dress sees the repeat
    p = make_params(3, j=-1.0, b=0.1, c=0.038)
    eig = cluster_eigensystem(p, (0b110,))
    level = eig.values[np.argmax(np.abs(eig.vectors[0b110]))]
    assert np.count_nonzero(np.abs(eig.values - level) <= eig.tolerance) == 2
    with pytest.raises(DegeneracyError, match="at 1.10697663 of multiplicity 2"):
        dress(eig, 0b110)


def test_a_window_past_whole_solve_size_holds_every_repeat_of_its_level():
    # five spins: each one-flip anchor weighs 4/5 on an S=3/2 level repeated
    # four times; solved on its own, its window holds all four copies, so
    # dress sees the repeat whichever vector the solver picked
    p = make_params(5, j=-1.0, b=0.1, c=0.038)
    assert p.dim > lemsim.spectrum.WHOLE_SOLVE_ROWS
    for anchor in [1 << i for i in range(5)] + [31 ^ (1 << i) for i in range(5)]:
        eig = cluster_eigensystem(p, (anchor,))
        counts = [np.count_nonzero(np.abs(eig.values - v) <= eig.tolerance) for v in eig.values]
        assert max(counts) == 4 and len(eig.values) < p.dim
        with pytest.raises((StrongMixingError, DegeneracyError)) as info:
            dress(eig, anchor)
        if info.errisinstance(DegeneracyError):
            assert "of multiplicity 4" in str(info.value)


# ------------------------------------------------------------ overlap decay


def test_overlap_decay_zero_tunneling():
    p = make_params(3, b=0.1, c=0.0)
    eig = diagonalize(build_hamiltonian(p), (0,))
    decay = overlap_decay(dress(eig, 0))
    assert decay.max_amplitudes[0] == pytest.approx(1.0)
    assert all(a == pytest.approx(0.0, abs=1e-12) for a in decay.max_amplitudes[1:])


def test_overlap_decay_first_order_amplitude():
    # the distance-1 maximum matches the first-order perturbative estimate
    p = make_params(3, b=0.1, c=0.01)
    eig = diagonalize(build_hamiltonian(p), (0,))
    decay = overlap_decay(dress(eig, 0))
    predicted = abs(rs_amplitudes(p.couplings, p.bias, p.tunneling, 0)[1])
    assert decay.max_amplitudes[1] == pytest.approx(predicted, rel=5e-3)


def test_overlap_decay_slope_tracks_coupling_ratio():
    # fixed absolute tunneling well below the level spacing
    p = make_params(4, b=0.1, c=0.01)
    eig = diagonalize(build_hamiltonian(p), (bits_to_config("1111"),))
    decay = overlap_decay(dress(eig, bits_to_config("1111")))
    a_typ = typical_level_spacing(p, bits_to_config("1111"))
    target = math.log10(0.01 / a_typ)
    assert decay.slope == pytest.approx(target, rel=0.3)


def test_overlap_decay_steepens_as_tunneling_shrinks():
    slopes = []
    for r in (0.1, 0.03, 0.01):
        fam = uniform_ferromagnet(4, r)
        eig = diagonalize(build_hamiltonian(fam.params), (fam.ground_anchor,))
        slopes.append(overlap_decay(dress(eig, fam.ground_anchor)).slope)
    assert slopes[0] > slopes[1] > slopes[2]


def test_amplitude_bounded_by_minimum_gap_power():
    # |amp(k)| <= (C_max / smallest gap from the anchor)^k for small C
    for n in (3, 4, 5):
        fam = uniform_ferromagnet(n, 0.01)
        p = fam.params
        eig = diagonalize(build_hamiltonian(p), (fam.ground_anchor,))
        decay = overlap_decay(dress(eig, fam.ground_anchor))
        energies = classical_energies(p)
        e0 = energies[fam.ground_anchor]
        gaps = np.abs(np.delete(energies - e0, fam.ground_anchor))
        bound_base = p.tunneling.max() / gaps.min()
        for k in range(1, n + 1):
            assert decay.max_amplitudes[k] <= bound_base**k


# --------------------------------------------------------------- level gaps


def test_typical_spacing_three_spins():
    p = make_params(3, b=0.1)
    assert typical_level_spacing(p, bits_to_config("111")) == pytest.approx(3.8)


def test_typical_spacing_single_spin():
    p = ClusterParams(
        n=1, couplings=np.zeros((1, 1)), bias=np.array([0.7]), tunneling=np.zeros(1)
    )
    assert typical_level_spacing(p, 1) == pytest.approx(1.4)


def test_typical_spacing_unbiased_pair():
    p = make_params(2, b=0.0)
    assert typical_level_spacing(p, 0) == pytest.approx(2.0)


def test_typical_spacing_degenerate_gap():
    # a single unbiased, uncoupled spin has a zero gap
    p = ClusterParams(
        n=2, couplings=np.zeros((2, 2)), bias=np.array([0.0, 1.0]), tunneling=np.zeros(2)
    )
    with pytest.raises(DegeneracyError):
        typical_level_spacing(p, 0)


def test_degeneracy_tolerance_scales_with_spread():
    p = make_params(3, b=0.1)
    spread = classical_energies(p).max() - classical_energies(p).min()
    assert degeneracy_tolerance(p) == pytest.approx(1e-9 * spread)


def test_one_degeneracy_tolerance_serves_spectrum_and_perturbation():
    # it lives in cluster, so perturbation imports nothing from spectrum, and it
    # stays importable from spectrum, where tracers look it up
    import lemsim.cluster

    tolerance = lemsim.cluster.degeneracy_tolerance
    assert lemsim.spectrum.degeneracy_tolerance is tolerance
    assert lemsim.perturbation.degeneracy_tolerance is tolerance


def test_landscape_spacing_and_path_sum_read_the_one_tolerance(monkeypatch):
    # a tolerance above every gap: the LEM, A_typ and the path sum all fail
    p = make_params(3, b=0.1)
    assert find_local_minima(p).local_minima
    for module in (lemsim.spectrum, lemsim.perturbation):
        monkeypatch.setattr(module, "degeneracy_tolerance", lambda params: 1e300)
    assert find_local_minima(p).local_minima == ()
    with pytest.raises(DegeneracyError):
        typical_level_spacing(p, 0b111)
    with pytest.raises(DegeneracyError):
        multiphoton_path_sum(p, [0.1] * 3, 0b000, 0b111)
