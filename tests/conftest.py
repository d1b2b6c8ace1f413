"""Helpers shared by the test modules."""

import contextlib
import ctypes
import functools
import itertools
import os
import warnings

import numpy as np
import pytest

import lemsim._lapack
import lemsim.cluster
from lemsim import ClusterParams, uniform_couplings

# A failing @given example makes hypothesis's pytest plugin import this module,
# whose libcst import warns DeprecationWarning (mypy_extensions.TypedDict).
# Under filterwarnings = "error" that warning ends the session with
# INTERNALERROR and every later test goes unrun; imported once here with the
# warning ignored, the plugin's import is a cache hit.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401


def make_params(n, j=-1.0, b=0.0, c=0.0):
    """A fully connected cluster with uniform coupling, bias and tunneling."""
    return ClusterParams(
        n=n,
        couplings=uniform_couplings(n, j),
        bias=np.full(n, float(b)),
        tunneling=np.full(n, float(c)),
    )


def count_calls(monkeypatch, module, name, calls=None):
    """Wrap ``module.name``, a function whose first argument is a
    ``ClusterParams``, so that every call appends that cluster's size to
    ``calls`` before running the original.  Returns ``calls``, a new list
    when none is given; pass one list to count several patched names together.
    """
    calls = [] if calls is None else calls
    original = getattr(module, name)

    def counted(params, *args, **kwargs):
        calls.append(params.n)
        return original(params, *args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def report_info_1(monkeypatch, routine, skip=0):
    """Make LAPACK's ``routine`` report info 1 on each of its calls after the
    first ``skip``: the call runs, then its ``info``, passed by reference
    before the character lengths, is set to 1."""
    original, lengths = lemsim._lapack._call[routine], lemsim._lapack._ROUTINES[routine][1]
    calls = itertools.count()

    def failing(*args):
        original(*args)
        if next(calls) >= skip:
            args[-1 - lengths]._obj.value = 1

    monkeypatch.setitem(lemsim._lapack._call, routine, failing)


def count_table_builds(monkeypatch):
    """Wrap the energy-table builder so that every build appends its cluster
    size to the returned list."""
    builds = []
    original = lemsim.cluster._energy_table

    def counted(couplings, bias):
        builds.append(len(bias))
        return original(couplings, bias)

    monkeypatch.setattr(lemsim.cluster, "_energy_table", counted)
    return builds


def count_cluster_builds(monkeypatch):
    """Wrap ``ClusterParams`` validation so that every cluster constructed
    appends its size to the returned list."""
    builds = []
    original = lemsim.cluster.ClusterParams.__post_init__

    def counted(params):
        builds.append(params.n)
        original(params)

    monkeypatch.setattr(lemsim.cluster.ClusterParams, "__post_init__", counted)
    return builds


def count_collective_scans(monkeypatch):
    """Wrap the scan behind ``ClusterParams.collective`` so that every
    evaluation appends its cluster to the returned list."""
    scans = []
    original = lemsim.cluster.ClusterParams.collective.func

    def counted(params):
        scans.append(params)
        return original(params)

    scan = functools.cached_property(counted)
    scan.__set_name__(lemsim.cluster.ClusterParams, "collective")
    monkeypatch.setattr(lemsim.cluster.ClusterParams, "collective", scan)
    return scans


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with every OpenBLAS mapped into the process on one
    thread, and restore each one's thread count after it.

    lemsim calls LAPACK in numpy's OpenBLAS and scipy in its own, another
    build.  lemsim runs its calls of at most ``lemsim._lapack.ONE_THREAD_ROWS``
    rows on one thread of its library, and on one thread both builds run
    LAPACK's reference arithmetic, so a comparison of their bits holds.  On
    more, each build splits the blocked updates of a few hundred rows
    (``dsytrd``'s, ``dormtr``'s dgemm) its own way, and the last bits
    differ.  A call made past ``lemsim._lapack._run``, as the oracle
    ``dsyevr_window`` makes it, runs on its library's count unless this
    block sets it.  Where the process map cannot be read, the block runs on
    the libraries' own thread counts."""
    libraries = []
    if os.path.exists("/proc/self/maps"):
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.rsplit("/", 1)[-1]})
        for path in paths:
            library = ctypes.CDLL(path)
            for suffix in ("64_", ""):
                get = getattr(library, f"scipy_openblas_get_num_threads{suffix}", None)
                if get is not None:
                    libraries.append((getattr(library, f"scipy_openblas_set_num_threads{suffix}"), get()))
                    break
    for set_threads, _ in libraries:
        set_threads(1)
    try:
        yield
    finally:
        for set_threads, threads in libraries:
            set_threads(threads)


@pytest.fixture
def no_child_process():
    """Fail the test when a child process of this one outlives it: a
    trajectory run reaps every worker it forks, also when it fails.
    ``os.waitpid(-1, WNOHANG)`` raises ChildProcessError only when the
    process has no child, running or exited."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a child process outlived the test ({f'pid {pid}, exited' if pid else 'running'})")
