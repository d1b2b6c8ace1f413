"""Diagonalization, landscape detection, dressed states, overlap decay."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack

import lemsim.spectrum
from lemsim import (
    CapacityError,
    ClusterParams,
    DegeneracyError,
    EigenSystem,
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
    overlap_decay,
    require_own_vector,
    typical_level_spacing,
    uniform_couplings,
)
from lemsim.sweep import uniform_ferromagnet

from oracles import brute_landscape, kron_hamiltonian, rs_amplitudes


def make_params(n, j=-1.0, b=0.0, c=0.0):
    return ClusterParams(
        n=n,
        couplings=uniform_couplings(n, j),
        bias=np.full(n, float(b)),
        tunneling=np.full(n, float(c)),
    )


# ------------------------------------------------------------- diagonalize


def test_single_spin_eigenvalues():
    p = ClusterParams(
        n=1, couplings=np.zeros((1, 1)), bias=np.array([0.3]), tunneling=np.array([0.4])
    )
    eig = diagonalize(build_hamiltonian(p))
    assert eig.values == pytest.approx([-0.5, 0.5], abs=1e-12)


def test_two_spin_low_splitting_is_second_order():
    # J12=-1, B=0, C=0.1: the two lowest levels split by about 2*C^2
    p = make_params(2, c=0.1)
    eig = diagonalize(build_hamiltonian(p))
    split = eig.values[1] - eig.values[0]
    assert 0.01 <= split <= 0.04


def test_diagonal_limit_reproduces_classical_multiset():
    p = make_params(3, b=0.2, c=0.0)
    eig = diagonalize(build_hamiltonian(p))
    assert np.allclose(eig.values, np.sort(classical_energies(p)), atol=1e-12)


def _random_cluster(rng, n):
    j = rng.normal(size=(n, n))
    j = j + j.T
    np.fill_diagonal(j, 0.0)
    return j, rng.normal(size=n), rng.normal(size=n)


def test_matches_kron_oracle_spectra():
    rng = np.random.default_rng(2024)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        j, b, c = _random_cluster(rng, n)
        p = ClusterParams(n=n, couplings=j, bias=b, tunneling=c)
        eig = diagonalize(build_hamiltonian(p))
        oracle = np.linalg.eigvalsh(kron_hamiltonian(j, b, c))
        assert np.allclose(eig.values, oracle, atol=1e-10)


def _dress_or_message(eig, anchor):
    """The anchor's dressed state, or the message of its StrongMixingError."""
    try:
        return dress(eig, anchor)
    except StrongMixingError as err:
        return str(err)


def test_eigen_residuals_and_orthonormality():
    # every dominant anchor's dressed state is an eigenvector of its level,
    # and the distinct ones are orthonormal
    p = make_params(5, b=0.1, c=0.07)
    h = build_hamiltonian(p)
    eig = diagonalize(h)
    scale = np.abs(h).max()
    states = [_dress_or_message(eig, anchor) for anchor in range(p.dim)]
    states = [state for state in states if not isinstance(state, str)]
    assert len(states) >= 2
    for state in states:
        residual = np.abs(h @ state.amplitudes - state.energy * state.amplitudes).max()
        assert residual <= 1e-10 * scale
    distinct = {state.eigenindex: state.amplitudes for state in states}
    vectors = np.column_stack(list(distinct.values()))
    assert len(distinct) >= 2
    gram = vectors.T @ vectors
    assert np.abs(gram - np.eye(len(distinct))).max() <= 1e-10
    assert np.all(np.diff(eig.values) >= 0)


def test_variational_bound():
    p = make_params(4, b=0.1, c=0.3)
    eig = diagonalize(build_hamiltonian(p))
    assert eig.values[0] <= classical_energies(p).min() + 1e-12


def test_diagonalize_rejects_asymmetric():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValidationError):
        diagonalize(m)


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
        assert np.abs(values - diagonalize(h).values).max() <= tol


@pytest.mark.parametrize(
    "m",
    [np.zeros((2, 3)), np.zeros(4), np.array([[0.0, 1.0], [0.0, 0.0]])],
    ids=["non-square", "vector", "asymmetric"],
)
def test_eigenvalues_rejects_like_diagonalize(m):
    with pytest.raises(ValidationError) as full:
        diagonalize(m)
    with pytest.raises(ValidationError) as only:
        eigenvalues(m)
    assert str(only.value) == str(full.value)


def test_eigenvalues_rejects_nan():
    h = build_hamiltonian(make_params(3, b=0.1, c=0.05))
    h[2, 2] = np.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        eigenvalues(h)


def _reference_signs(h):
    """The per-column sign fix, one column at a time."""
    values, vectors = scipy.linalg.eigh(h)
    for k in range(vectors.shape[1]):
        col = vectors[:, k]
        if col[np.argmax(np.abs(col))] < 0:
            vectors[:, k] = -col
    return values, vectors


def _route_cases():
    # ferromagnets at r = 0.01, n = 8 and 9: dstemr fails and dsyevr falls
    # back to bisection, on exactly repeated levels; the others run MRRR
    for n in (8, 9):
        yield f"ferromagnet n={n}", build_hamiltonian(uniform_ferromagnet(n, 0.01).params)
    yield "ferromagnet n=6", build_hamiltonian(uniform_ferromagnet(6, 0.05).params)
    rng = np.random.default_rng(12)
    for n in (3, 7):
        j, b, c = _random_cluster(rng, n)
        yield f"random n={n}", build_hamiltonian(ClusterParams(n=n, couplings=j, bias=b, tunneling=c))


def test_both_lapack_routes_match_eigh_bit_for_bit():
    routes = set()
    repeated = False
    for name, h in _route_cases():
        values = scipy.linalg.eigh(h)[0]
        eig = diagonalize(h)
        assert np.array_equal(eig.values, values), name
        routes.add(eig.route)
        repeated |= eig.route == "bisection" and bool(np.any(np.diff(values) == 0))
    assert routes == {"mrrr", "bisection"}
    assert repeated


@pytest.mark.parametrize("scale", [1e100, 1e-150], ids=["above", "below"])
def test_scaled_matrices_match_eigh_bit_for_bit(scale):
    # max |h_ij| outside dsyevr's range [sqrt(tiny/eps), tiny^-1/4]: scaled in and out
    rng = np.random.default_rng(3)
    a = rng.normal(size=(24, 24))
    h = (a + a.T) * scale
    eig = diagonalize(h)
    assert np.array_equal(eig.values, scipy.linalg.eigh(h)[0])


@pytest.mark.parametrize("entry", [-0.7, 1e200])
def test_one_by_one_matches_eigh(entry):
    h = np.array([[entry]])
    eig = diagonalize(h)
    assert eig.values.tolist() == [entry] == scipy.linalg.eigh(h)[0].tolist()
    assert dress(eig, 0).amplitudes.tolist() == [1.0]


def test_empty_matrix_is_refused():
    for solve in (diagonalize, eigenvalues):
        with pytest.raises(ValidationError, match="must not be empty"):
            solve(np.zeros((0, 0)))


def _assert_dressed_like_eigh(name, h, eig, anchors):
    """Each anchor that dresses takes the column of ``eigh`` of largest
    overlap (the first on a tie) and lies within 8 eps of it; returns how
    many dressed."""
    _, vectors = _reference_signs(h)
    eps = np.finfo(float).eps
    dressed = 0
    for anchor in anchors:
        state = _dress_or_message(eig, anchor)
        if isinstance(state, str):
            continue
        dressed += 1
        column = vectors[:, state.eigenindex]
        assert state.eigenindex == int(np.argmax(np.abs(vectors[anchor]))), name
        gap = np.abs(state.amplitudes - column * np.sign(column[anchor])).max()
        assert gap <= 8 * eps, name
    return dressed


def test_dress_matches_one_column_of_eigh():
    for name, h in _route_cases():
        eig = diagonalize(h)
        anchors = (0, 1, h.shape[0] // 3, h.shape[0] - 1)
        assert _assert_dressed_like_eigh(name, h, eig, anchors), name


@pytest.fixture
def dstein_sizes(monkeypatch):
    """The number of values each ``dstein`` call is given, in call order."""
    sizes = []
    dstein = lapack.dstein

    def counted(d, e, w, *rest):
        sizes.append(len(w))
        return dstein(d, e, w, *rest)

    monkeypatch.setattr(lapack, "dstein", counted)
    return sizes


@pytest.fixture
def failing_dstemr(monkeypatch):
    """``dstemr`` reporting the failure it gives on exactly repeated levels,
    so that ``diagonalize`` takes ``dsyevr``'s bisection route."""
    dstemr = lapack.dstemr

    def failing(*args):
        m, w, z, _ = dstemr(*args)
        return m, w, z, 22

    monkeypatch.setattr(lapack, "dstemr", failing)


def _dominant_anchors(h):
    """The first and last basis states whose best overlap² is at least ½."""
    _, vectors = scipy.linalg.eigh(h)
    dominant = np.flatnonzero((vectors**2).max(axis=1) >= 0.5)
    return int(dominant[0]), int(dominant[-1])


def _check_windowed_dressing(name, eig, anchors, dstein_sizes, monkeypatch):
    """Dress each anchor, then check it against the full run, which an empty
    window forces to take the best of all of ``z``: same level, energy and
    overlap², amplitudes within 8 eps, and no eigenvector of T computed
    outside the windows."""
    dstein_sizes.clear()
    states = [dress(eig, anchor) for anchor in anchors]
    assert "z" not in vars(eig), name  # no dressing fell back to every vector
    windows = [eig.window(anchor) for anchor in anchors]
    assert len(dstein_sizes) == (len(anchors) if eig.route == "bisection" else 0), name
    for size, window in zip(dstein_sizes, windows):
        assert size <= len(window), name
    with monkeypatch.context() as patch:
        patch.setattr(EigenSystem, "_window", lambda self, u: np.arange(0))
        full_runs = [dress(eig, anchor) for anchor in anchors]
    assert "z" in vars(eig), name
    eps = np.finfo(float).eps
    for state, full, window in zip(states, full_runs, windows):
        k = full.eigenindex
        assert state.eigenindex == k and k in window, name
        assert state.energy == full.energy == eig.values[k], name
        assert state.overlap_sq == full.overlap_sq, name
        assert np.abs(state.amplitudes - full.amplitudes).max() <= 8 * eps, name


def test_ferromagnet_dressing_runs_inverse_iteration_only_in_its_window(dstein_sizes, monkeypatch):
    routes = []
    for n in (8, 9, 10, 11):
        for r in (0.01, 0.05):
            p = uniform_ferromagnet(n, r).params
            eig = cluster_eigensystem(p)
            routes.append(eig.route)
            _check_windowed_dressing(f"n={n} r={r}", eig, (0, p.dim - 1), dstein_sizes, monkeypatch)
    # n = 9..11 take the bisection route on one BLAS thread and on two
    assert routes.count("bisection") >= 6


def test_route_cases_dress_inside_their_windows(dstein_sizes, monkeypatch):
    routes = set()
    for name, h in _route_cases():
        eig = diagonalize(h)
        routes.add(eig.route)
        _check_windowed_dressing(name, eig, _dominant_anchors(h), dstein_sizes, monkeypatch)
    assert routes == {"mrrr", "bisection"}


@pytest.mark.parametrize("scale", [1e100, 1e-150], ids=["above", "below"])
def test_scaled_bisection_windows_are_taken_in_the_units_of_t(scale, dstein_sizes, request, monkeypatch):
    # dstemr does not fail on the copies scaled below dsyevr's range, so it is
    # made to report its failure there
    if scale < 1:
        request.getfixturevalue("failing_dstemr")
    h = build_hamiltonian(uniform_ferromagnet(9, 0.01).params) * scale
    eig = diagonalize(h)
    assert eig.route == "bisection"
    # T is the reduction of H scaled into dsyevr's range
    ratio = np.abs(eig.solver_values).max() / np.abs(eig.values).max()
    assert ratio < 1e-20 if scale > 1 else ratio > 10
    anchors = (0, h.shape[0] - 1)
    _check_windowed_dressing(f"x{scale}", eig, anchors, dstein_sizes, monkeypatch)
    assert _assert_dressed_like_eigh(f"x{scale}", h, eig, anchors) == 2


@pytest.mark.parametrize("case", ["mrrr", "bisection", "above", "below"])
def test_windowed_dress_equals_the_full_run_on_many_anchors(case, request, monkeypatch):
    # the full run is forced by an empty window: dress then takes the best of all
    # of z.  On the MRRR route the window's overlaps come from a slice of z and
    # the full run's from all of it, two BLAS calls whose sums may round apart:
    # overlap² then differs in its last few bits
    if case == "mrrr":
        j, b, c = _random_cluster(np.random.default_rng(12), 7)
        h = build_hamiltonian(ClusterParams(n=7, couplings=j, bias=b, tunneling=0.1 * c))
    else:
        if case == "below":
            request.getfixturevalue("failing_dstemr")
        scale = {"bisection": 1.0, "above": 1e100, "below": 1e-150}[case]
        h = build_hamiltonian(uniform_ferromagnet(9, 0.01).params) * scale
    eig = diagonalize(h)
    assert eig.route == ("mrrr" if case == "mrrr" else "bisection")
    anchors = [*range(0, eig.dim, 8), eig.dim - 1]
    windowed = [_dress_or_message(eig, anchor) for anchor in anchors]
    monkeypatch.setattr(EigenSystem, "_window", lambda self, u: np.arange(0))
    full_runs = [_dress_or_message(eig, anchor) for anchor in anchors]
    eps = np.finfo(float).eps
    dressed = 0
    for state, full in zip(windowed, full_runs):
        if isinstance(full, str):
            assert state == full
            continue
        dressed += 1
        assert state.eigenindex == full.eigenindex
        assert abs(state.overlap_sq - full.overlap_sq) <= 8 * eps
        assert np.abs(state.amplitudes - full.amplitudes).max() <= 8 * eps
    assert dressed >= 2


# the best overlap² over every eigenvector of T, as dressing reported it before
# the window existed; a window that holds no dominant vector cannot give it
_MIXED_MESSAGES = {
    0: "anchor 000000000 mixes strongly: best overlap^2 = 0.393952 < 0.5",
    511: "anchor 111111111 mixes strongly: best overlap^2 = 0.384886 < 0.5",
}


def test_strong_mixing_falls_back_to_every_vector_of_t(dstein_sizes):
    eig = cluster_eigensystem(uniform_ferromagnet(9, 0.3).params)
    assert eig.route == "bisection"
    for anchor, message in _MIXED_MESSAGES.items():
        window = eig.window(anchor)
        assert 0 < len(window) < eig.dim  # vectors in the window, none dominant
        dstein_sizes.clear()
        with pytest.raises(StrongMixingError) as err:
            dress(eig, anchor)
        assert str(err.value) == message
        # the window's vectors, then every vector once; z is then cached
        assert dstein_sizes == ([len(window), eig.dim] if anchor == 0 else [len(window)])


def test_empty_window_falls_back_to_every_vector_of_t(monkeypatch):
    eig = cluster_eigensystem(uniform_ferromagnet(9, 0.3).params)
    windowed = dress(diagonalize(build_hamiltonian(uniform_ferromagnet(9, 0.01).params)), 0)
    monkeypatch.setattr(EigenSystem, "_window", lambda self, u: np.arange(0))
    for anchor, message in _MIXED_MESSAGES.items():
        with pytest.raises(StrongMixingError) as err:
            dress(eig, anchor)
        assert str(err.value) == message
    # a dominant anchor dresses from all of z instead, to the same state
    eig = diagonalize(build_hamiltonian(uniform_ferromagnet(9, 0.01).params))
    fallback = dress(eig, 0)
    assert "z" in vars(eig)
    assert (fallback.eigenindex, fallback.overlap_sq) == (windowed.eigenindex, windowed.overlap_sq)
    assert np.abs(fallback.amplitudes - windowed.amplitudes).max() <= 8 * np.finfo(float).eps


def test_clustered_levels_dress_from_every_vector_of_t(monkeypatch, dstein_sizes):
    p = uniform_ferromagnet(9, 0.01).params
    eig = cluster_eigensystem(p)
    assert eig.route == "bisection"
    # dstein computes exactly repeated values of one block together
    repeated = [
        q
        for q in range(eig.dim - 1)
        if eig.block[q] == eig.block[q + 1] and eig.solver_values[q] == eig.solver_values[q + 1]
    ]
    assert repeated and not any(eig._alone(q) or eig._alone(q + 1) for q in repeated)
    windowed = [dress(eig, anchor) for anchor in (0, p.dim - 1)]
    positions = [int(np.flatnonzero(eig._levels == state.eigenindex)[0]) for state in windowed]
    assert all(eig._alone(position) for position in positions)
    monkeypatch.setattr(EigenSystem, "_alone", lambda self, position: False)
    for state in windowed:
        eig = cluster_eigensystem(p)
        dstein_sizes.clear()
        full = dress(eig, state.anchor)
        assert dstein_sizes == [len(eig.window(state.anchor)), p.dim]
        assert (full.eigenindex, full.overlap_sq) == (state.eigenindex, state.overlap_sq)
        assert np.abs(full.amplitudes - state.amplitudes).max() <= 8 * np.finfo(float).eps


@st.composite
def _diagonal_heavy_matrices(draw):
    """Small symmetric matrices whose diagonal spread competes with their
    off-diagonal part, so some basis states dominate an eigenvector and some
    do not; a few exactly repeated diagonal entries."""
    dim = draw(st.integers(1, 12))
    diagonal = draw(st.lists(st.integers(-4, 4), min_size=dim, max_size=dim))
    seed = draw(st.integers(0, 2**32 - 1))
    strength = draw(st.sampled_from([0.0, 1e-9, 0.01, 0.1, 0.5, 2.0]))
    scale = draw(st.sampled_from([1.0, 1e-3, 1e100, 1e-160]))
    a = np.random.default_rng(seed).normal(size=(dim, dim))
    return (np.diag(np.array(diagonal, dtype=float)) + strength * (a + a.T) / 2) * scale


@settings(max_examples=200, deadline=None)
@given(_diagonal_heavy_matrices())
def test_every_dominant_eigh_vector_lies_inside_the_window(h):
    _, vectors = scipy.linalg.eigh(h)
    eig = diagonalize(h)
    for index in range(h.shape[0]):
        dominant = np.flatnonzero(vectors[index] ** 2 >= 0.5)
        assert set(dominant.tolist()) <= set(eig.window(index).tolist())


@pytest.mark.parametrize("order", ["C", "F"])
def test_solvers_leave_input_unmodified(order):
    # LAPACK works in place on a Fortran-ordered array it is allowed to overwrite
    h = np.asarray(build_hamiltonian(make_params(5, b=0.1, c=0.07)), order=order)
    before = h.copy()
    diagonalize(h)
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


def test_hamiltonian_is_exactly_symmetric():
    # the in-place cluster solves hand LAPACK H.T in place of H
    for p in _bit_identity_clusters():
        h = build_hamiltonian(p)
        assert np.array_equal(h, h.T)


def _assert_same_dressing(eig, other):
    """Every anchor dresses to the same state, bit for bit, or fails with the
    same message, on both eigensystems."""
    for anchor in range(eig.dim):
        state, twin = _dress_or_message(eig, anchor), _dress_or_message(other, anchor)
        if isinstance(state, str):
            assert state == twin
            continue
        assert (state.eigenindex, state.overlap_sq) == (twin.eigenindex, twin.overlap_sq)
        assert np.array_equal(state.amplitudes, twin.amplitudes)


def test_cluster_solves_match_public_solves_bit_for_bit():
    for p in _bit_identity_clusters():
        full = diagonalize(build_hamiltonian(p))
        eig = cluster_eigensystem(p)
        assert np.array_equal(eig.values, full.values)
        _assert_same_dressing(eig, full)
        assert np.array_equal(cluster_eigenvalues(p), eigenvalues(build_hamiltonian(p)))


def test_asymmetry_in_the_last_row_band_is_found():
    # 32 rows make bands of 2: the skewed pair (31, 30)/(30, 31) sits in the last one
    rng = np.random.default_rng(8)
    a = rng.normal(size=(32, 32))
    h = a + a.T
    h[31, 30] += 1e-6
    for solve in (diagonalize, eigenvalues):
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
    diagonalize(h)
    eigenvalues(h)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entry_in_the_last_row_band_raises(bad):
    h = build_hamiltonian(make_params(5, b=0.1, c=0.05))
    h[-1, -1] = bad
    for solve in (diagonalize, eigenvalues):
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
def test_cluster_solves_hold_at_most_one_or_two_dense_arrays(n):
    # tracemalloc sees numpy's buffers, f2py's copies and the LAPACK workspace
    p = uniform_ferromagnet(n, 0.01).params
    matrix = 8 * p.dim**2
    assert _traced_peak(cluster_eigensystem, p) <= 2.1 * matrix
    assert _traced_peak(cluster_eigenvalues, p) <= 1.1 * matrix

    def solve_and_dress(params):
        eig = cluster_eigensystem(params)
        dress(eig, 0)
        dress(eig, params.dim - 1)

    assert _traced_peak(solve_and_dress, p) <= 2.1 * matrix


def test_capacity_preflight_raises_before_assembly(monkeypatch):
    p = make_params(6, b=0.1, c=0.05)
    monkeypatch.setattr(lemsim.spectrum, "_available_memory", lambda: 8 * p.dim**2)
    # the eigenvalues need one dense array and the symmetry check's band of
    # 64/16 rows, the eigenvectors two arrays and the band
    with pytest.raises(CapacityError, match="needs 34816 bytes, 32768 bytes of memory available"):
        cluster_eigenvalues(p)
    with pytest.raises(CapacityError, match="eigensystem of a 6-spin cluster"):
        cluster_eigensystem(p)
    monkeypatch.setattr(lemsim.spectrum, "_available_memory", lambda: 3 * 8 * p.dim**2)
    assert np.array_equal(cluster_eigenvalues(p), eigenvalues(build_hamiltonian(p)))
    cluster_eigensystem(p)


def test_unknown_available_memory_skips_the_preflight(monkeypatch):
    monkeypatch.setattr(lemsim.spectrum, "_available_memory", lambda: None)
    p = make_params(4, b=0.1, c=0.05)
    eig, full = cluster_eigensystem(p), diagonalize(build_hamiltonian(p))
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
    eig = diagonalize(build_hamiltonian(p))
    d = dress(eig, bits_to_config("111"))
    assert d.overlap_sq == pytest.approx(1.0, abs=1e-12)
    expected = np.zeros(8)
    expected[0b111] = 1.0
    assert np.allclose(d.amplitudes, expected, atol=1e-12)


def test_dress_four_spin_weak_tunneling():
    p = make_params(4, b=0.1, c=0.01)
    eig = diagonalize(build_hamiltonian(p))
    d = dress(eig, bits_to_config("1111"))
    assert d.overlap_sq >= 0.999
    g = dress(eig, bits_to_config("0000"))
    assert g.eigenindex == 0
    assert g.eigenindex != d.eigenindex


def test_dress_normalization():
    p = make_params(4, b=0.1, c=0.05)
    eig = diagonalize(build_hamiltonian(p))
    d = dress(eig, 0)
    assert math.fsum((d.amplitudes**2).tolist()) == pytest.approx(1.0, abs=1e-10)
    assert d.amplitude(d.anchor) > 0


def test_dress_strong_mixing_error_reports_overlap():
    # large tunneling destroys the perturbative anchor labelling
    p = make_params(2, j=-0.01, b=0.0, c=5.0)
    eig = diagonalize(build_hamiltonian(p))
    with pytest.raises(StrongMixingError, match="overlap"):
        dress(eig, 0)


@pytest.mark.parametrize("c, owned", [(0.038, (0b000, 0b111)), (0.0, tuple(range(8)))])
def test_require_own_vector_refuses_a_shared_repeated_level(c, owned):
    # c > 0: the S=1/2 levels repeat, and the anchors that dress onto them
    # overlap both vectors of their plane; the polarized anchors sit on simple
    # levels.  c = 0: every level with k up spins repeats, but each anchor is
    # its own eigenvector
    p = make_params(3, j=-1.0, b=0.1, c=c)
    eig = cluster_eigensystem(p)
    for anchor in range(8):
        try:
            dressed = dress(eig, anchor)
        except StrongMixingError:
            assert anchor not in owned
            continue
        if anchor in owned:
            require_own_vector(eig, dressed)
        else:
            with pytest.raises(DegeneracyError, match=f"anchor {config_to_bits(anchor, 3)} dresses"):
                require_own_vector(eig, dressed)


# ------------------------------------------------------------ overlap decay


def test_overlap_decay_zero_tunneling():
    p = make_params(3, b=0.1, c=0.0)
    eig = diagonalize(build_hamiltonian(p))
    decay = overlap_decay(dress(eig, 0))
    assert decay.max_amplitudes[0] == pytest.approx(1.0)
    assert all(a == pytest.approx(0.0, abs=1e-12) for a in decay.max_amplitudes[1:])


def test_overlap_decay_first_order_amplitude():
    # the distance-1 maximum matches the first-order perturbative estimate
    p = make_params(3, b=0.1, c=0.01)
    eig = diagonalize(build_hamiltonian(p))
    decay = overlap_decay(dress(eig, 0))
    predicted = abs(rs_amplitudes(p.couplings, p.bias, p.tunneling, 0)[1])
    assert decay.max_amplitudes[1] == pytest.approx(predicted, rel=5e-3)


def test_overlap_decay_slope_tracks_coupling_ratio():
    # fixed absolute tunneling well below the level spacing
    p = make_params(4, b=0.1, c=0.01)
    eig = diagonalize(build_hamiltonian(p))
    decay = overlap_decay(dress(eig, bits_to_config("1111")))
    a_typ = typical_level_spacing(p, bits_to_config("1111"))
    target = math.log10(0.01 / a_typ)
    assert decay.slope == pytest.approx(target, rel=0.3)


def test_overlap_decay_steepens_as_tunneling_shrinks():
    slopes = []
    for r in (0.1, 0.03, 0.01):
        fam = uniform_ferromagnet(4, r)
        eig = diagonalize(build_hamiltonian(fam.params))
        slopes.append(overlap_decay(dress(eig, fam.ground_anchor)).slope)
    assert slopes[0] > slopes[1] > slopes[2]


def test_amplitude_bounded_by_minimum_gap_power():
    # |amp(k)| <= (C_max / smallest gap from the anchor)^k for small C
    for n in (3, 4, 5):
        fam = uniform_ferromagnet(n, 0.01)
        p = fam.params
        eig = diagonalize(build_hamiltonian(p))
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
    import lemsim.perturbation

    tolerance = lemsim.cluster.degeneracy_tolerance
    assert lemsim.spectrum.degeneracy_tolerance is tolerance
    assert lemsim.perturbation.degeneracy_tolerance is tolerance


def test_landscape_tolerance_is_the_default_tolerance():
    rng = np.random.default_rng(31)
    for n in (2, 5, 9):
        j, b, _ = _random_cluster(rng, n)
        p = ClusterParams(n=n, couplings=j, bias=b, tunneling=np.zeros(n))
        assert find_local_minima(p).tolerance == degeneracy_tolerance(p)
        assert find_local_minima(p, tolerance=0.25).tolerance == 0.25
