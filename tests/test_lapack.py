"""The LAPACK binding (``lemsim._lapack``) against scipy's f2py wrappers of the
same routines, bit for bit, or, where f2py reports LAPACK's failure code, a
NumericalError naming that code.  scipy is imported here alone, as an oracle
that calls LAPACK in its own OpenBLAS, which the binding's one-thread pin
does not reach: it runs on however many BLAS threads the process runs,
except where noted."""

import contextlib

import numpy as np
import pytest
import scipy.linalg.lapack as f2py
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lemsim import NumericalError, diagonalize
from lemsim import _lapack as lapack

from conftest import one_blas_thread, report_info_1

ENTRIES = st.floats(-100.0, 100.0, allow_nan=False)


@st.composite
def symmetric(draw):
    n = draw(st.integers(1, 40))
    x = draw(arrays(np.float64, (n, n), elements=ENTRIES))
    return np.tril(x) + np.tril(x, -1).T


@st.composite
def tridiagonal(draw):
    n = draw(st.integers(1, 40))
    return draw(arrays(np.float64, n, elements=ENTRIES)), draw(arrays(np.float64, n - 1, elements=ENTRIES))


def _random_symmetric(n, seed):
    a = np.random.default_rng(seed).normal(size=(n, n))
    return a + a.T


def _same(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g is None if w is None else np.array_equal(g, w)


def _agree(routine, n, call, want):
    """The binding's outputs, ``call()``, against f2py's, ``want``, whose last
    entry is LAPACK's info K.  When K is 0 the outputs are equal bit for bit
    and are returned.  Otherwise the binding raises NumericalError naming K,
    and None is returned: the comparison stops there."""
    *want, info = want
    if info:
        with pytest.raises(NumericalError, match=f"^{routine} failed on a {n}x{n} matrix: info {info}$"):
            call()
        return None
    got = call()
    _same(got, want)
    return got


@pytest.mark.parametrize("n", [*range(0, 41), 64, 512, 1000])
def test_workspace_query_is_scipys(n):
    assert lapack.dsyevr_lwork(n) == tuple(map(int, f2py.dsyevr_lwork(n, lower=1)[:2]))


def _check_dsyevr(h):
    n = len(h)
    lwork, liwork = lapack.dsyevr_lwork(n)
    for compute_v in (0, 1):
        w, z, *_, info = f2py.dsyevr(h, compute_v, lower=1, lwork=lwork, liwork=liwork)
        want = (w, z if compute_v else None, info)
        _agree("dsyevr", n, lambda: lapack.dsyevr(np.array(h, order="F"), compute_v), want)


def _check_window(h, lo, hi):
    """The steps of a value-range solve, each against scipy's with the
    workspace shares of dsyevr's query: ``dsytrd``, ``dstebz`` on (lo, hi],
    ``dstein``, and ``dormtr`` against ``dormqr`` on rows 1.. of the
    columns.  The first step whose f2py call reports a failure ends the
    comparison."""
    n = len(h)
    lwork = lapack.dsyevr_lwork(n)[0]
    a = np.array(h, order="F")
    reduced = _agree("dsytrd", n, lambda: (a, *lapack.dsytrd(a)), f2py.dsytrd(h, lower=1, lwork=lwork - 5 * n))
    if reduced is None or n == 1:  # at n == 1 f2py refuses the empty off-diagonal
        return
    _, d, e, tau = reduced
    m, w, iblock, isplit, info = f2py.dstebz(d, e, 1, lo, hi, 0, 0, 0.0, "B")
    levels = _agree("dstebz", n, lambda: lapack.dstebz(d, e, lo, hi), (w[:m], iblock, isplit, info))
    if levels is None:
        return
    want = f2py.dstein(d, e, levels[0], *(x.astype(np.int32) for x in levels[1:]))
    vectors = _agree("dstein", n, lambda: (lapack.dstein(d, e, *levels),), want)
    if vectors is None:
        return
    z = vectors[0]
    first = z[0].copy()

    def turn():
        assert lapack.dormtr(a, tau, z) is None  # z is turned in place
        return z[1:], z[0]

    turned, _, info = f2py.dormqr("L", "N", a[1:, :-1], tau, z[1:], lwork - 2 * n)
    _agree("dormtr", n, turn, (turned, first, info))


# a draw on whose window of three levels, two of them equal to rounding,
# dstein reports info 1: the binding raises, as scipy's eigh raises LinAlgError
_UNCONVERGED = np.full((5, 5), 6.056640625)
_UNCONVERGED[3, 4] = _UNCONVERGED[4, 3] = -70.13346730932514


@example(_UNCONVERGED, 0.0, 0.3125)
@settings(max_examples=150, deadline=None)
@given(symmetric(), st.floats(-1.0, 1.0), st.floats(0.01, 1.0))
def test_symmetric_solves_are_scipys(h, centre, width):
    _check_dsyevr(h)
    # a window around a point of the spectrum's range, at most all of it
    bound = max(float(np.abs(h).sum(axis=0).max()), 1.0)
    _check_window(h, centre * bound - width * bound, centre * bound + width * bound)


@pytest.mark.parametrize("n", [64, 512])
def test_blocked_reductions_are_scipys(n):
    # from 64 rows on, dsytrd reduces in blocks.  The binding runs these
    # sizes on one thread, and on more scipy's OpenBLAS would split the
    # blocked updates of 512 rows (dsytrd's, and dormqr's dgemm under
    # dormtr) its own way; so scipy runs on one thread too, where both
    # builds run the same arithmetic.  test_spectrum checks the window
    # solve against dsyevr's own in numpy's OpenBLAS.
    h = _random_symmetric(n, n)
    with one_blas_thread():
        _check_dsyevr(h)
        levels = np.linalg.eigvalsh(h)
        _check_window(h, levels[n // 3], levels[n // 2])


@settings(max_examples=150, deadline=None)
@given(tridiagonal())
def test_tridiagonal_solves_are_scipys(chain):
    d, e = chain
    kept = d.copy(), e.copy()
    for compute_v in (0, 1):
        # f2py asks for an off-diagonal of at least one entry
        w, z, info = f2py.dstevd(d, e if len(d) > 1 else np.zeros(1), compute_v=compute_v)
        got = _agree("dstevd", len(d), lambda: lapack.dstevd(d, e, compute_v), (w, z if compute_v else None, info))
        # the levels own their n entries, not a view of LAPACK's workspace
        assert got is None or got[0].base is None and got[0].shape == (len(d),)
    assert np.array_equal(d, kept[0]) and np.array_equal(e, kept[1])


def test_a_matrix_without_contiguous_columns_is_refused():
    a = np.eye(4)
    with pytest.raises(ValueError, match="float64 matrix with contiguous columns"):
        lapack.dsytrd(a[::2, ::2])
    with pytest.raises(ValueError, match="float64 matrix with contiguous columns"):
        lapack.dsytrd(np.eye(4, dtype=np.float32))


def _four_rows():
    """A 4 x 4 symmetric matrix, column-major, that LAPACK may overwrite."""
    return np.array(_random_symmetric(4, 4), order="F")


def _chain():
    return np.arange(4.0), np.ones(3)


def _levels(d, e):
    """``dstein``'s arguments for every level of the tridiagonal ``(d, e)``."""
    return (d, e, *lapack.dstebz(d, e, -100.0, 100.0))


def _turned():
    a = _four_rows()
    d, e, tau = lapack.dsytrd(a)
    lapack.dormtr(a, tau, lapack.dstein(*_levels(d, e)))


@pytest.mark.parametrize(
    "routine, skip, call",
    [
        pytest.param("dsyevr", 0, lambda: lapack.dsyevr_lwork(4), id="dsyevr_lwork"),
        # the first dsyevr call is the binding's workspace query
        pytest.param("dsyevr", 1, lambda: lapack.dsyevr(_four_rows(), 0), id="dsyevr-values"),
        pytest.param("dsyevr", 1, lambda: lapack.dsyevr(_four_rows(), 1), id="dsyevr-vectors"),
        pytest.param("dsytrd", 0, lambda: lapack.dsytrd(_four_rows()), id="dsytrd"),
        pytest.param("dstebz", 0, lambda: lapack.dstebz(*_chain(), -100.0, 100.0), id="dstebz"),
        pytest.param("dstein", 0, lambda: lapack.dstein(*_levels(*_chain())), id="dstein"),
        pytest.param("dormtr", 0, _turned, id="dormtr"),
        pytest.param("dstevd", 0, lambda: lapack.dstevd(*_chain(), 0), id="dstevd-values"),
        pytest.param("dstevd", 0, lambda: lapack.dstevd(*_chain(), 1), id="dstevd-vectors"),
    ],
)
def test_a_failure_code_raises_numerical_error(monkeypatch, routine, skip, call):
    call()  # runs clean
    report_info_1(monkeypatch, routine, skip)
    with pytest.raises(NumericalError, match=f"^{routine} failed on a 4x4 matrix: info 1$"):
        call()


@contextlib.contextmanager
def _threads(count):
    """numpy's OpenBLAS on ``count`` threads inside the block, on its own
    count again after it."""
    before = lapack._get_threads()
    lapack._set_threads(count)
    try:
        yield
    finally:
        lapack._set_threads(before)


def test_a_512_row_solve_has_the_same_bits_on_one_and_two_threads():
    h = _random_symmetric(512, 512)
    solves = []
    for count in (1, 2):
        with _threads(count):
            solves.append(diagonalize(h, (0, 300)))
    first, second = solves
    assert len(first.values) > 400
    assert np.array_equal(first.values, second.values)
    assert np.array_equal(first.vectors, second.vectors)


@pytest.mark.parametrize("n, during", [(512, 1), (513, 2)])
def test_calls_of_at_most_512_rows_run_on_one_thread(monkeypatch, n, during):
    seen, original = [], lapack._call["dsytrd"]

    def recorded(*args):
        seen.append(lapack._get_threads())
        original(*args)

    monkeypatch.setitem(lapack._call, "dsytrd", recorded)
    with _threads(2):
        lapack.dsytrd(np.array(_random_symmetric(n, n), order="F"))
        assert lapack._get_threads() == 2
    assert seen == [during]


def test_a_failing_call_restores_the_thread_count(monkeypatch):
    report_info_1(monkeypatch, "dsytrd")
    with _threads(2):
        with pytest.raises(NumericalError, match="^dsytrd failed"):
            lapack.dsytrd(_four_rows())
        assert lapack._get_threads() == 2
