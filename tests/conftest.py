"""Fixtures shared by the test modules."""
from __future__ import annotations

import numpy as np
import pytest


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
