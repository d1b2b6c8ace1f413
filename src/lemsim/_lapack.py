"""The LAPACK routines of lemsim's eigensolvers, called in numpy's own OpenBLAS.

numpy's PyPI wheels for Linux (numpy >= 2.0) bundle scipy-openblas64, an
ILP64 OpenBLAS whose routines are exported as ``scipy_<routine>_64_``, in
``numpy.libs``; it is mapped once numpy is imported, and this module calls
it through ctypes.  A numpy built or packaged otherwise (conda-forge, a
distribution's package, a source build, the macOS wheels that link
Accelerate) ships no such library, and importing this module raises
ImportError.  Each routine here takes the arguments lemsim varies and
returns what the f2py routine of the same name in ``scipy.linalg.lapack``
returns, with ``info`` last: bit for bit for the same workspace sizes on
one BLAS thread, where both OpenBLAS builds run LAPACK's reference
arithmetic.  On several threads each build splits a large dgemm its own
way, and a blocked routine on a few hundred rows may differ in the last
bits.

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

# where auditwheel puts the libraries a numpy wheel bundles
_PLACE = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
# each routine's arguments: the pointers, then one length per character argument
_ROUTINES = {
    "dsyevr": (21, 3),
    "dsytrd": (10, 1),
    "dstebz": (18, 2),
    "dstein": (13, 0),
    "dormqr": (13, 2),
    "dstevd": (11, 1),
}


def _load():
    """numpy's OpenBLAS routines by name, their argument types declared;
    ImportError names the place searched when the library is not there, and
    the library when a routine is missing from it."""
    paths = sorted(glob.glob(os.path.join(_PLACE, "*scipy_openblas64_*")))
    if not paths:
        raise ImportError(
            f"numpy's OpenBLAS, libscipy_openblas64_, was not found in {_PLACE}: "
            "lemsim needs numpy >= 2.0 installed from its PyPI wheel for Linux"
        )
    library = ctypes.CDLL(paths[0])
    routines = {}
    for name, (pointers, lengths) in _ROUTINES.items():
        try:
            routine = routines[name] = getattr(library, f"scipy_{name}_64_")
        except AttributeError:
            raise ImportError(f"{paths[0]} exports no scipy_{name}_64_") from None
        routine.argtypes = [ctypes.c_void_p] * pointers + [ctypes.c_size_t] * lengths
        routine.restype = None
    return routines


_call = _load()
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
    ``ndarray.ctypes``, which reads it otherwise."""
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


def dsyevr_lwork(n: int) -> tuple[int, int, int]:
    """``(lwork, liwork, info)``: the workspace sizes ``dsyevr`` asks for an
    n x n matrix, from its query (lwork = liwork = -1)."""
    work, iwork, info = ctypes.c_double(), _INT(), _INT()
    none = _float()  # the one element of every array the query does not read
    _call["dsyevr"](
        b"N", b"A", b"L", _int(n), none, _int(max(n, 1)), none, none, _int(), _int(), none, _int(), none,
        none, _int(1), _int(), ctypes.byref(work), _int(-1), ctypes.byref(iwork), _int(-1),
        ctypes.byref(info), 1, 1, 1,
    )
    return int(work.value), iwork.value, info.value


def dsyevr(a: np.ndarray, compute_v: int, lwork: int, liwork: int):
    """``(w, z, info)``: every level of ``a``'s lower triangle, ascending,
    and with ``compute_v`` their eigenvectors as the columns of ``z`` (else
    None).  ``a`` is overwritten."""
    n = len(a)
    w, isuppz = np.empty(n), np.empty(2 * n, np.int64)
    z = np.empty((n, n), order="F") if compute_v else np.empty((1, 1))
    work, iwork, info = np.empty(lwork), np.empty(liwork, np.int64), _INT()
    _call["dsyevr"](
        b"V" if compute_v else b"N", b"A", b"L", _int(n), *_matrix(a), _float(), _float(), _int(), _int(),
        _float(), _int(), _at(w), *_matrix(z), _at(isuppz), _at(work), _int(lwork), _at(iwork), _int(liwork),
        ctypes.byref(info), 1, 1, 1,
    )
    return w, z if compute_v else None, info.value


def dsytrd(a: np.ndarray, lwork: int):
    """``(a, d, e, tau, info)``: ``a``'s lower triangle reduced in place to
    the tridiagonal ``(d, e)``, its Householder reflectors below the
    subdiagonal with factors ``tau``."""
    n = len(a)
    d, e, tau = np.empty(n), np.empty(max(n - 1, 0)), np.empty(max(n - 1, 0))
    work, info = np.empty(lwork), _INT()
    _call["dsytrd"](
        b"L", _int(n), *_matrix(a), _at(d), _at(e), _at(tau), _at(work), _int(lwork), ctypes.byref(info), 1
    )
    return a, d, e, tau, info.value


def dstebz(d: np.ndarray, e: np.ndarray, vl: float, vu: float):
    """``(m, w, iblock, isplit, info)``: the m levels of the tridiagonal
    ``(d, e)`` in (vl, vu] by bisection, ``w[:m]``, ordered by split-off
    block (ORDER = 'B'), with their block numbers and the blocks' ends."""
    n = len(d)
    # zeroed, as f2py's are: LAPACK writes none past the m levels and the blocks' ends
    w, iblock, isplit = np.zeros(n), np.zeros(n, np.int64), np.zeros(n, np.int64)
    work, iwork, m, info = np.empty(4 * n), np.empty(3 * n, np.int64), _INT(), _INT()
    _call["dstebz"](
        b"V", b"B", _int(n), _float(vl), _float(vu), _int(), _int(), _float(), _at(d), _at(e),
        ctypes.byref(m), _int(), _at(w), _at(iblock), _at(isplit), _at(work), _at(iwork), ctypes.byref(info),
        1, 1,
    )
    return m.value, w, iblock, isplit, info.value


def dstein(d: np.ndarray, e: np.ndarray, w: np.ndarray, iblock: np.ndarray, isplit: np.ndarray):
    """``(z, info)``: the eigenvectors of the tridiagonal ``(d, e)`` at its
    levels ``w``, as ``dstebz`` returned them, the columns of a
    column-major n x m ``z``."""
    n, m = len(d), len(w)
    z, work = np.empty((n, m), order="F"), np.empty(5 * n)
    iwork, ifail, info = np.empty(n, np.int64), np.empty(m, np.int64), _INT()
    _call["dstein"](
        _int(n), _at(d), _at(e), _int(m), _at(w), _at(iblock), _at(isplit), *_matrix(z), _at(work),
        _at(iwork), _at(ifail), ctypes.byref(info),
    )
    return z, info.value


def dormqr(a: np.ndarray, tau: np.ndarray, c: np.ndarray, lwork: int):
    """``(c, info)``: ``c`` overwritten by Q c, Q the product of the
    Householder reflectors stored in ``a``'s columns with factors ``tau``
    (SIDE = 'L', TRANS = 'N')."""
    work, info = np.empty(lwork), _INT()
    _call["dormqr"](
        b"L", b"N", _int(c.shape[0]), _int(c.shape[1]), _int(len(tau)), *_matrix(a), _at(tau), *_matrix(c),
        _at(work), _int(lwork), ctypes.byref(info), 1, 1,
    )
    return c, info.value


def dstevd(d: np.ndarray, e: np.ndarray, compute_v: int):
    """``(w, z, info)``: the levels of the tridiagonal ``(d, e)``, n >= 1
    rows, ascending, and with ``compute_v`` their eigenvectors as the
    columns of ``z`` (else None), with LAPACK's least workspace.  ``d`` and
    ``e`` are left unmodified: LAPACK works on copies."""
    n = len(d)
    lwork, liwork = (1 + 4 * n + n * n, 3 + 5 * n) if compute_v else (1, 1)
    # d's copy becomes the levels, e's is scratch
    w, off = np.array(d, dtype=np.float64), np.array(e, dtype=np.float64)
    z = np.empty((n, n) if compute_v else (1, 1), order="F")
    work, iwork, info = np.empty(lwork), np.empty(liwork, np.int64), _INT()
    _call["dstevd"](
        b"V" if compute_v else b"N", _int(n), _at(w), _at(off), *_matrix(z), _at(work), _int(lwork),
        _at(iwork), _int(liwork), ctypes.byref(info), 1,
    )
    return w, z if compute_v else None, info.value
