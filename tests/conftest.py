"""Fixtures shared across the test tree."""

import sys

import pytest


@pytest.fixture(params=["python", "numpy"])
def numpy_presence(request, monkeypatch):
    """Run a test with ``import numpy`` blocked, then with numpy loaded.

    Batched execution once switched to a vectorised numpy loop whenever
    numpy was importable.  It is pure python now, and its results must not
    depend on whether numpy is installed: the ``python`` case makes any
    ``import numpy`` raise ``ImportError``; the ``numpy`` case runs with
    numpy already imported, as in a user's analysis session.
    """
    if request.param == "python":
        monkeypatch.setitem(sys.modules, "numpy", None)
    else:
        pytest.importorskip("numpy")
    return request.param
