"""The LAPACK binding (``lemsim._lapack``) against scipy's f2py wrappers of the
same routines, bit for bit.  scipy is imported here alone, as an oracle that
calls LAPACK in its own OpenBLAS, on however many BLAS threads the process
runs, except where noted."""

import contextlib

import numpy as np
import pytest
import scipy.linalg.lapack as f2py
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lemsim import _lapack as lapack

from conftest import one_blas_thread

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
        assert np.array_equal(g, w)


@pytest.mark.parametrize("n", [*range(0, 41), 64, 512, 1000])
def test_workspace_query_is_scipys(n):
    assert lapack.dsyevr_lwork(n) == tuple(map(int, f2py.dsyevr_lwork(n, lower=1)))


def _check_dsyevr(h):
    lwork, liwork, _ = lapack.dsyevr_lwork(len(h))
    for compute_v in (0, 1):
        a = np.array(h, order="F")
        w, z, info = lapack.dsyevr(a, compute_v, lwork, liwork)
        want = f2py.dsyevr(h, compute_v, lower=1, lwork=lwork, liwork=liwork)
        assert np.array_equal(w, want[0]) and info == want[-1] == 0
        assert np.array_equal(z, want[1]) if compute_v else z is None


def _check_window(h, lo, hi, back_transform_threads=contextlib.nullcontext):
    """The steps of a value-range solve, each against scipy's: ``dsytrd``,
    ``dstebz`` on (lo, hi], ``dstein`` and ``dormqr`` on rows 1.. of the
    columns, which the binding turns in place; both ``dormqr`` calls run
    inside ``back_transform_threads()``."""
    n = len(h)
    lwork = lapack.dsyevr_lwork(n)[0]
    a = np.array(h, order="F")
    reduced = lapack.dsytrd(a, lwork - 5 * n)
    want = f2py.dsytrd(h, lower=1, lwork=lwork - 5 * n)
    _same(reduced, want)
    assert reduced[0] is a
    _, d, e, tau, _ = reduced
    if n == 1:  # f2py refuses an empty off-diagonal
        return
    m, w, iblock, isplit, info = found = lapack.dstebz(d, e, lo, hi)
    _same(found, f2py.dstebz(d, e, 1, lo, hi, 0, 0, 0.0, "B"))
    z, info = lapack.dstein(d, e, w[:m], iblock, isplit)
    want = f2py.dstein(d, e, w[:m], iblock.astype(np.int32), isplit.astype(np.int32))
    _same((z, info), want)
    rows = z[1:]
    with back_transform_threads():
        turned = f2py.dormqr("L", "N", a[1:, :-1], tau, rows, lwork - 2 * n)
        c, info = lapack.dormqr(a[1:, :-1], tau, rows, lwork - 2 * n)
    assert c is rows  # a view of z, turned in place
    assert np.array_equal(c, turned[0]) and info == turned[-1] == 0


@settings(max_examples=150, deadline=None)
@given(symmetric(), st.floats(-1.0, 1.0), st.floats(0.01, 1.0))
def test_symmetric_solves_are_scipys(h, centre, width):
    _check_dsyevr(h)
    # a window around a point of the spectrum's range, at most all of it
    bound = max(float(np.abs(h).sum(axis=0).max()), 1.0)
    _check_window(h, centre * bound - width * bound, centre * bound + width * bound)


@pytest.mark.parametrize("n", [64, 512])
def test_blocked_reductions_are_scipys(n):
    # from 64 rows on, dsytrd reduces in blocks.  At 512 rows dormqr's
    # blocked update of the 86 columns is a dgemm of 511 rows that numpy's
    # OpenBLAS (0.3.31) and scipy's (0.3.30) split over several threads each
    # their own way, and the last bits differ: that call compares on one
    # thread, where both builds run the same arithmetic.  test_spectrum
    # checks the window solve against dsyevr's own in numpy's OpenBLAS on
    # any thread count.
    h = _random_symmetric(n, n)
    _check_dsyevr(h)
    levels = np.linalg.eigvalsh(h)
    _check_window(h, levels[n // 3], levels[n // 2], one_blas_thread if n == 512 else contextlib.nullcontext)


@settings(max_examples=150, deadline=None)
@given(tridiagonal())
def test_tridiagonal_solves_are_scipys(chain):
    d, e = chain
    kept = d.copy(), e.copy()
    for compute_v in (0, 1):
        w, z, info = lapack.dstevd(d, e, compute_v)
        # f2py asks for an off-diagonal of at least one entry
        want = f2py.dstevd(d, e if len(d) > 1 else np.zeros(1), compute_v=compute_v)
        assert np.array_equal(w, want[0]) and info == want[-1] == 0
        assert np.array_equal(z, want[1]) if compute_v else z is None
        # the levels own their n entries, not a view of LAPACK's workspace
        assert w.base is None and w.shape == (len(d),)
    assert np.array_equal(d, kept[0]) and np.array_equal(e, kept[1])


def test_a_matrix_without_contiguous_columns_is_refused():
    a = np.eye(4)
    with pytest.raises(ValueError, match="float64 matrix with contiguous columns"):
        lapack.dsytrd(a[::2, ::2], 1)
    with pytest.raises(ValueError, match="float64 matrix with contiguous columns"):
        lapack.dsytrd(np.eye(4, dtype=np.float32), 1)
