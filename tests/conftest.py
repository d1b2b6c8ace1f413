"""Helpers shared by the test modules."""


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
