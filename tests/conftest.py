"""Shared fixtures, helpers and test oracles."""

import sys

import numpy as np
import pytest
from scipy import signal as _sps

import lpk.core
from lpk.core import Filter, KGrid, KSignal, MultiFilter, MultiKSignal
from lpk.phantom import Modulator, Phantom, Primitive, _check_fov, spatial_profile
from lpk.quadrature import merge_edges, piecewise_quad


def signals_allclose(a, b, rtol=1e-12, atol=1e-12) -> bool:
    """Two ``KSignal``s on one grid whose values agree to the tolerances."""
    return a.grid == b.grid and bool(np.allclose(a.values, b.values, rtol=rtol, atol=atol))


def conv_response(data: MultiKSignal, mf: MultiFilter) -> KSignal:
    """Joint response ``sum_q sum_k h_q[k] x_q[n-k]`` on the valid range,
    by direct convolution: the reference the bank operators, the fits and
    the separations are tested against."""
    if mf.q_count != data.q_count:
        raise ValueError("filter channel count does not match data")
    if mf.dims != data.grid.dims:
        raise ValueError("filter dims do not match data dims")
    parts = [
        _sps.convolve(x, h, mode="valid", method="direct") for x, h in zip(data.values, mf.taps)
    ]
    return KSignal(data.grid.valid_for(mf.L, mf.P), sum(parts[1:], parts[0]))


def quadrature_samples(
    phantom: Phantom,
    grid: KGrid,
    modulator: Modulator | None = None,
) -> KSignal:
    """Numerical-quadrature route to (modulated) Fourier samples, 1D.

    Independent oracle for ``phantom.fourier_samples`` and
    ``phantom.modulated_samples``: integrates
    ``c(x) rho(x) exp(-i 2 pi n x/B)`` by edge-aligned piecewise trapezoid
    quadrature with Richardson extrapolation.
    """
    _check_fov(phantom, grid)
    if phantom.dims != 1:
        raise ValueError("quadrature_samples is 1D only")
    b = phantom.fov[0]
    n = grid.index_vectors()[0]
    edges = merge_edges(phantom.support_edges(), -b / 2, b / 2)

    def integrand(x, mid):
        rho = spatial_profile(phantom, x, mid)
        if modulator is not None:
            rho = rho * modulator.eval_spatial(x, (b,))
        return rho[:, None] * np.exp(-2j * np.pi * np.multiply.outer(x, n) / b)

    vals = piecewise_quad(integrand, edges)
    return KSignal(grid, vals)


def formula_samples(p: Primitive, mesh, fov) -> np.ndarray:
    """A point's or boxcar's closed form evaluated as written, complex
    products and all: the oracle ``phantom.primitive_samples`` equals
    bitwise."""
    phase = np.zeros(np.broadcast_shapes(*(m.shape for m in mesh)))
    for n, c, b in zip(mesh, p.center, fov):
        phase = phase - 2.0 * np.pi * n * c / b
    out = p.amplitude * np.exp(1j * phase)
    if p.kind == "boxcar":
        for n, w, b in zip(mesh, p.extent, fov):
            out = out * (2.0 * w) * np.sinc(2.0 * w * n / b)
    return out


def lhs_energy(sample_fns, taps, L: int, P: int, grid: KGrid) -> float:
    """An identity check's sample-side energy in one piece, by complex
    convolution: the reference for the chunked real-arithmetic sum
    ``lp._lhs_energy``."""
    n = np.arange(grid.n_min[0], grid.n_max[0] + 1)
    resp = sum(np.convolve(fn(n), t, mode="valid") for fn, t in zip(sample_fns, taps))
    return float(np.sum(np.abs(resp) ** 2))


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
