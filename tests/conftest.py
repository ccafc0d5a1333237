"""Shared fixtures and helpers."""

import sys

import numpy as np
import pytest

import lpk.core
from lpk.core import Filter, MultiFilter


def signals_allclose(a, b, rtol=1e-12, atol=1e-12) -> bool:
    """Two ``KSignal``s on one grid whose values agree to the tolerances."""
    return a.grid == b.grid and bool(np.allclose(a.values, b.values, rtol=rtol, atol=atol))


@pytest.fixture
def no_filter_objects(monkeypatch):
    """Make building a ``Filter`` or ``MultiFilter``, checked or not (by
    either constructor, ``MultiFilter.from_array``, or ``_unchecked`` in any
    lpk module), fail the test: for paths that must run on tap arrays
    alone."""

    def refuse(*args, **kwargs):
        raise AssertionError("a Filter or MultiFilter was built on a tap-array path")

    unchecked = lpk.core._unchecked

    def guarded(cls, **fields):
        if cls in (Filter, MultiFilter):
            refuse()
        return unchecked(cls, **fields)

    for cls in (Filter, MultiFilter):
        monkeypatch.setattr(cls, "__init__", refuse)
    monkeypatch.setattr(MultiFilter, "from_array", refuse)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "lpk" and hasattr(module, "_unchecked"):
            monkeypatch.setattr(module, "_unchecked", guarded)
