"""Fixtures shared by the test modules, and the hypothesis profile they run
under: derandomized and without an example database, so that two runs draw
the same examples.  Each @given test sets its own max_examples."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")


@pytest.fixture
def linalg_calls(monkeypatch):
    """Live counts of np.linalg.eigh and np.linalg.eigvalsh calls made while
    the test runs, through counting wrappers around the real functions."""
    calls = {"eigh": 0, "eigvalsh": 0}

    def counting(name):
        real = getattr(np.linalg, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in list(calls):
        monkeypatch.setattr(np.linalg, name, counting(name))
    return calls


@pytest.fixture
def hermitize_calls(monkeypatch):
    """Live counts of hermitize calls made while the test runs, per module of
    the verdict layer that imports it (bipartite, discord), through a counting
    wrapper patched over each module's name for it.  factorization does not
    import hermitize: a row's mass outside the range of X_j is read off the
    factor row itself, with no range projector to symmetrize."""
    from qcorr import bipartite, discord
    from qcorr.matlib import hermitize

    calls = {"bipartite": 0, "discord": 0}

    def counting(name):
        def wrapper(a):
            calls[name] += 1
            return hermitize(a)
        return wrapper

    for module in (bipartite, discord):
        name = module.__name__.rsplit(".", 1)[1]
        monkeypatch.setattr(module, "hermitize", counting(name))
    return calls
