"""The LAPACK routines of lemsim's eigensolvers, called in numpy's own OpenBLAS.

numpy's PyPI wheels for Linux (numpy >= 2.0) bundle scipy-openblas64, an
ILP64 OpenBLAS whose routines are exported as ``scipy_<routine>_64_``, in
``numpy.libs``; it is mapped once numpy is imported, and this module calls
it through ctypes.  A numpy built or packaged otherwise (conda-forge, a
distribution's package, a source build, the macOS wheels that link
Accelerate) ships no such library, and importing this module raises
ImportError.

Each routine here takes only the arguments lemsim varies and returns only
its outputs.  It sizes its own workspace, and a nonzero ``info`` raises
NumericalError, "<routine> failed on a NxN matrix: info K", N the
routine's row count.  A call on at most ``ONE_THREAD_ROWS`` rows runs on
one thread of this OpenBLAS, whose count is restored after it, so its bits
do not depend on the process's BLAS thread count; a larger call runs on
that count, where a blocked routine's dgemm splits its work by thread and
the last bits may move.  On one thread the outputs are those of the f2py
routine of the same name in ``scipy.linalg.lapack`` (scipy wraps no
``dormtr``: it is ``dormqr`` on the rows below the first) bit for bit for
the same workspace sizes: both OpenBLAS builds run LAPACK's reference
arithmetic there.

The calls follow gfortran's convention: every argument is passed by
reference, every integer is an int64, and each character argument adds its
length, a size_t, at the end of the call.  Matrices are float64 with
contiguous columns, their leading dimension read from the column stride,
so a view such as ``c[1:]`` of a column-major ``c`` is passed in place.
"""

from __future__ import annotations

import ctypes
import glob
import os

import numpy as np

from .errors import NumericalError

# where auditwheel puts the libraries a numpy wheel bundles
_PLACE = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
# the largest row count whose calls run on one BLAS thread: 2^9, a 9-spin H
ONE_THREAD_ROWS = 512
# each routine's arguments: the pointers, info last, then one length per character argument
_ROUTINES = {
    "dsyevr": (21, 3),
    "dsytrd": (10, 1),
    "dstebz": (18, 2),
    "dstein": (13, 0),
    "dormtr": (13, 3),
    "dstevd": (11, 1),
}


def _load():
    """numpy's OpenBLAS routines by name, their argument types declared, and
    the library's thread-count getter and setter; ImportError names the
    place searched when the library is not there, and the library when a
    routine or a thread-count function is missing from it."""
    paths = sorted(glob.glob(os.path.join(_PLACE, "*scipy_openblas64_*")))
    if not paths:
        raise ImportError(
            f"numpy's OpenBLAS, libscipy_openblas64_, was not found in {_PLACE}: "
            "lemsim needs numpy >= 2.0 installed from its PyPI wheel for Linux"
        )
    library = ctypes.CDLL(paths[0])

    def symbol(name, argtypes, restype):
        try:
            function = getattr(library, name)
        except AttributeError:
            raise ImportError(f"{paths[0]} exports no {name}") from None
        function.argtypes, function.restype = argtypes, restype
        return function

    routines = {
        name: symbol(f"scipy_{name}_64_", [ctypes.c_void_p] * pointers + [ctypes.c_size_t] * lengths, None)
        for name, (pointers, lengths) in _ROUTINES.items()
    }
    get_threads = symbol("scipy_openblas_get_num_threads64_", [], ctypes.c_int)
    set_threads = symbol("scipy_openblas_set_num_threads64_", [ctypes.c_int], None)
    return routines, get_threads, set_threads


_call, _get_threads, _set_threads = _load()
_INT = ctypes.c_int64


def _int(value: int = 0) -> ctypes._CArgObject:
    """An integer argument, by reference."""
    return ctypes.byref(_INT(value))


def _float(value: float = 0.0) -> ctypes._CArgObject:
    """A float argument, by reference."""
    return ctypes.byref(ctypes.c_double(value))


def _at(x: np.ndarray) -> int:
    """The address of ``x``'s first element: read from its buffer when ``x``
    is contiguous, non-empty and writable, at a third of the cost of
    ``ndarray.ctypes``, which reads it otherwise.  The address is bare: an
    array not held by a name across the call is freed before LAPACK
    writes into it."""
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(x if x.flags.c_contiguous else x.T))
    except (TypeError, ValueError, BufferError):
        return x.ctypes.data


def _matrix(x: np.ndarray) -> tuple[int, ctypes._CArgObject]:
    """The address and leading dimension of a float64 matrix whose columns are contiguous."""
    rows, cols = x.shape
    if x.dtype != np.float64 or (rows > 1 and cols and x.strides[0] != 8):
        raise ValueError(f"LAPACK takes a float64 matrix with contiguous columns, got {x.dtype} {x.strides}")
    return _at(x), _int(max(x.strides[1] // 8 if cols > 1 else rows, 1))


def _run(routine: str, n: int, *args) -> None:
    """Call LAPACK's ``routine`` on ``args``, then its ``info`` and one
    length per character argument, on one BLAS thread when n is at most
    ``ONE_THREAD_ROWS``; NumericalError names the routine, its n x n matrix
    and the code when ``info`` is not 0."""
    info = _INT()
    threads = _get_threads() if n <= ONE_THREAD_ROWS else 1
    if threads > 1:
        _set_threads(1)
    try:
        _call[routine](*args, ctypes.byref(info), *[1] * _ROUTINES[routine][1])
    finally:
        if threads > 1:
            _set_threads(threads)
    if info.value:
        raise NumericalError(f"{routine} failed on a {n}x{n} matrix: info {info.value}")


def dsyevr_lwork(n: int) -> tuple[int, int]:
    """``(lwork, liwork)``: the workspace sizes ``dsyevr`` asks for an n x n
    matrix, from its query (lwork = liwork = -1)."""
    work, iwork = ctypes.c_double(), _INT()
    none = _float()  # the one element of every array the query does not read
    _run(
        "dsyevr", n, b"N", b"A", b"L", _int(n), none, _int(max(n, 1)), none, none, _int(), _int(), none,
        _int(), none, none, _int(1), _int(), ctypes.byref(work), _int(-1), ctypes.byref(iwork), _int(-1),
    )
    return int(work.value), iwork.value


def dsyevr(a: np.ndarray, compute_v: int):
    """``(w, z)``: every level of ``a``'s lower triangle, ascending, and
    with ``compute_v`` their eigenvectors as the columns of ``z`` (else
    None), in the workspace of ``dsyevr``'s query.  ``a`` is overwritten."""
    n = len(a)
    lwork, liwork = dsyevr_lwork(n)
    w, isuppz = np.empty(n), np.empty(2 * n, np.int64)
    z = np.empty((n, n), order="F") if compute_v else np.empty((1, 1))
    work, iwork = np.empty(lwork), np.empty(liwork, np.int64)
    _run(
        "dsyevr", n, b"V" if compute_v else b"N", b"A", b"L", _int(n), *_matrix(a), _float(), _float(),
        _int(), _int(), _float(), _int(), _at(w), *_matrix(z), _at(isuppz), _at(work), _int(lwork),
        _at(iwork), _int(liwork),
    )
    return w, z if compute_v else None


def dsytrd(a: np.ndarray):
    """``(d, e, tau)``: ``a``'s lower triangle reduced in place to the
    tridiagonal ``(d, e)``, its Householder reflectors below the subdiagonal
    with factors ``tau``, in the share of ``dsyevr``'s workspace that
    ``dsyevr`` gives it: another size changes the block size, and with it
    the bits."""
    n = len(a)
    d, e, tau = np.empty(n), np.empty(max(n - 1, 0)), np.empty(max(n - 1, 0))
    lwork = dsyevr_lwork(n)[0] - 5 * n
    work = np.empty(lwork)
    _run("dsytrd", n, b"L", _int(n), *_matrix(a), _at(d), _at(e), _at(tau), _at(work), _int(lwork))
    return d, e, tau


def dstebz(d: np.ndarray, e: np.ndarray, vl: float, vu: float):
    """``(w, iblock, isplit)``: the levels of the tridiagonal ``(d, e)`` in
    (vl, vu] by bisection, ordered by split-off block (ORDER = 'B'), with
    their block numbers and the blocks' ends."""
    n = len(d)
    # zeroed, as f2py's are: LAPACK writes none past the m levels and the blocks' ends
    w, iblock, isplit = np.zeros(n), np.zeros(n, np.int64), np.zeros(n, np.int64)
    work, iwork, m = np.empty(4 * n), np.empty(3 * n, np.int64), _INT()
    _run(
        "dstebz", n, b"V", b"B", _int(n), _float(vl), _float(vu), _int(), _int(), _float(), _at(d), _at(e),
        ctypes.byref(m), _int(), _at(w), _at(iblock), _at(isplit), _at(work), _at(iwork),
    )
    return w[: m.value], iblock, isplit


def dstein(d: np.ndarray, e: np.ndarray, w: np.ndarray, iblock: np.ndarray, isplit: np.ndarray):
    """The eigenvectors of the tridiagonal ``(d, e)`` at its levels ``w``,
    as ``dstebz`` returned them, the columns of a column-major n x m array."""
    n, m = len(d), len(w)
    z, work = np.empty((n, m), order="F"), np.empty(5 * n)
    iwork, ifail = np.empty(n, np.int64), np.empty(m, np.int64)
    _run(
        "dstein", n, _int(n), _at(d), _at(e), _int(m), _at(w), _at(iblock), _at(isplit), *_matrix(z), _at(work),
        _at(iwork), _at(ifail),
    )
    return z


def dormtr(a: np.ndarray, tau: np.ndarray, c: np.ndarray) -> None:
    """Overwrite ``c``, n x m, by Q c (SIDE = 'L', UPLO = 'L', TRANS = 'N'),
    Q the orthogonal matrix of ``dsytrd``'s reduction of ``a``, n x n, with
    factors ``tau``, in the share of ``dsyevr``'s workspace that ``dsyevr``
    gives it."""
    n = len(a)
    lwork = dsyevr_lwork(n)[0] - 2 * n
    work = np.empty(lwork)
    _run(
        "dormtr", n, b"L", b"L", b"N", _int(c.shape[0]), _int(c.shape[1]), *_matrix(a), _at(tau), *_matrix(c),
        _at(work), _int(lwork),
    )


def dstevd(d: np.ndarray, e: np.ndarray, compute_v: int):
    """``(w, z)``: the levels of the tridiagonal ``(d, e)``, n >= 1 rows,
    ascending, and with ``compute_v`` their eigenvectors as the columns of
    ``z`` (else None), with LAPACK's least workspace.  ``d`` and ``e`` are
    left unmodified: LAPACK works on copies."""
    n = len(d)
    lwork, liwork = (1 + 4 * n + n * n, 3 + 5 * n) if compute_v else (1, 1)
    # d's copy becomes the levels, e's is scratch
    w, off = np.array(d, dtype=np.float64), np.array(e, dtype=np.float64)
    z = np.empty((n, n) if compute_v else (1, 1), order="F")
    work, iwork = np.empty(lwork), np.empty(liwork, np.int64)
    _run(
        "dstevd", n, b"V" if compute_v else b"N", _int(n), _at(w), _at(off), *_matrix(z), _at(work), _int(lwork),
        _at(iwork), _int(liwork),
    )
    return w, z if compute_v else None
