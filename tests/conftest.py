"""Helpers shared by the test modules."""

import contextlib
import warnings

import numpy as np

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
