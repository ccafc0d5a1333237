"""Analytic phantoms, spatial modulators, and their exact Fourier samples.

A phantom is a finite sum of support-limited primitives on the field of
view ``[-B/2, B/2]`` per axis.  Its samples are

    rho[n] = integral rho(x) exp(-i 2 pi n x / B) dx,

evaluated in closed form:

* ``boxcar`` (1D interval / 2D rectangle), half-widths ``w``:
  ``amp * prod_a exp(-i 2 pi n_a c_a / B_a) * 2 w_a * sinc(2 w_a n_a / B_a)``
  with ``sinc(t) = sin(pi t) / (pi t)``.
* ``point`` at ``c``: ``amp * prod_a exp(-i 2 pi n_a c_a / B_a)``.
* ``ellipse`` in 2D (flat top, semi-axes ``w``): the circular aperture
  transform ``amp * exp(.) * w0 w1 * J1(2 pi g) / g`` with
  ``g = hypot(w0 n0 / B0, w1 n1 / B1)`` (value ``pi w0 w1`` at ``g = 0``).
  In 1D the ellipse is the half-ellipse bump
  ``amp * sqrt(1 - ((x - c)/w)^2)`` with transform
  ``amp * exp(.) * pi w J1(z) / z``, ``z = 2 pi w n / B``.

A modulator represents a smooth spatial weighting

    c(x) = (1 / prod B) * sum_m coeffs[m] exp(+i 2 pi m x / B),

and modulating a phantom convolves sample sequences:
``(c rho)[n] = (1 / prod B) * sum_m coeffs[m] rho[n - m]``, which this
module evaluates exactly through the closed forms above.  The tests pin
the closed forms to an independent numerical route to the same integrals
(edge-aligned piecewise trapezoid quadrature over ``spatial_profile``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import signal as _sps
from scipy import special as _spec

from .core import KGrid, KSignal, _axes_float, _axes_int, _rebuilt

_KINDS = ("boxcar", "ellipse", "point")


@dataclass(frozen=True)
class Primitive:
    """One support-limited building block of a phantom."""

    kind: str
    center: tuple[float, ...]
    extent: tuple[float, ...]
    amplitude: complex

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown primitive kind {self.kind!r}")
        object.__setattr__(self, "center", _axes_float(self.center, "center"))
        object.__setattr__(self, "extent", _axes_float(self.extent, "extent"))
        object.__setattr__(self, "amplitude", complex(self.amplitude))
        if len(self.center) != len(self.extent):
            raise ValueError("center and extent must agree in length")
        if self.kind == "point":
            if any(e != 0.0 for e in self.extent):
                raise ValueError("point primitives must have zero extent")
        elif any(e <= 0.0 for e in self.extent):
            raise ValueError(f"{self.kind} extent must be positive")

    @property
    def dims(self) -> int:
        return len(self.center)


@dataclass(frozen=True)
class Phantom:
    """Sum of primitives, all supported inside the field of view."""

    primitives: tuple[Primitive, ...]
    fov: tuple[float, ...]

    def __post_init__(self):
        prims = tuple(self.primitives)
        if not prims:
            raise ValueError("phantom needs at least one primitive")
        object.__setattr__(self, "primitives", prims)
        object.__setattr__(self, "fov", _axes_float(self.fov, "fov"))
        if any(b <= 0 for b in self.fov):
            raise ValueError("fov must be positive")
        for p in prims:
            if p.dims != self.dims:
                raise ValueError("primitive dims do not match phantom fov")
            for c, w, b in zip(p.center, p.extent, self.fov):
                if abs(c) + w > b / 2 + 1e-12 * b:
                    raise ValueError(
                        f"primitive at {p.center} with extent {p.extent} leaves the field of view"
                    )

    @property
    def dims(self) -> int:
        return len(self.fov)

    def support_edges(self) -> list[float]:
        """Discontinuity locations along the first axis (1D quadrature splits here)."""
        edges = []
        for p in self.primitives:
            if p.kind == "point":
                continue
            edges.extend((p.center[0] - p.extent[0], p.center[0] + p.extent[0]))
        return edges


def _check_fov(phantom: Phantom, grid: KGrid) -> None:
    if phantom.dims != grid.dims:
        raise ValueError("phantom dims do not match grid dims")
    for bp, bg in zip(phantom.fov, grid.fov):
        if abs(bp - bg) > 1e-12 * bp:
            raise ValueError(f"phantom fov {phantom.fov} does not match grid fov {grid.fov}")


def _disk_ratio(z: np.ndarray) -> np.ndarray:
    """J1(z)/z with the z -> 0 limit 1/2 filled in."""
    z = np.asarray(z, dtype=float)
    out = np.full(z.shape, 0.5)
    nz = z != 0.0
    out[nz] = _spec.j1(z[nz]) / z[nz]
    return out


def _sinc(x: np.ndarray) -> np.ndarray:
    """``np.sinc`` of a fresh float64 array, by its own steps, in place."""
    x *= np.pi
    x[x == 0.0] = np.finfo(np.float64).eps
    return np.divide(np.sin(x), x, out=x)


def primitive_samples(p: Primitive, mesh, fov) -> np.ndarray:
    """Closed-form samples of one primitive on index arrays ``mesh``.

    Every sample is bitwise the formula above evaluated as written, one
    complex product at a time, up to the sign of a zero: an axis whose
    centre is 0 adds no phase term, so a centred primitive takes no
    ``exp``; and a boxcar's real factors (``2 w``, then the sinc, per
    axis) scale the real and imaginary parts in the formula's order, with
    the sinc computed by ``np.sinc``'s own steps.
    """
    shape = np.broadcast_shapes(*(m.shape for m in mesh))
    shifted = [(n, c, b) for n, c, b in zip(mesh, p.center, fov) if c != 0.0]
    if shifted:
        phase = np.zeros(shape)
        for n, c, b in shifted:
            phase = phase - 2.0 * np.pi * n * c / b
        out = np.asarray(p.amplitude * np.exp(1j * phase))
    else:
        out = np.full(shape, p.amplitude)
    if p.kind == "point":
        return out
    if p.kind == "boxcar":
        parts = out.reshape(shape + (1,)).view(np.float64)
        for n, w, b in zip(mesh, p.extent, fov):
            x = np.multiply(2.0 * w, n, out=np.empty(np.shape(n)))
            x /= b
            parts *= 2.0 * w
            parts *= _sinc(x)[..., None]
        return out
    if len(mesh) == 1:
        w, b = p.extent[0], fov[0]
        z = 2.0 * np.pi * w * np.abs(mesh[0]) / b
        return out * np.pi * w * _disk_ratio(z)
    w0, w1 = p.extent
    b0, b1 = fov
    g = 2.0 * np.pi * np.hypot(w0 * mesh[0] / b0, w1 * mesh[1] / b1)
    return out * 2.0 * np.pi * p.extent[0] * p.extent[1] * _disk_ratio(g)


def fourier_samples(phantom: Phantom, grid: KGrid) -> KSignal:
    """Exact Fourier samples of the phantom on every grid index.

    Args:
        phantom: the analytic scene; its fov must match the grid's.
        grid: target index range (any window; closed forms are global).

    Returns:
        ``KSignal`` with one exact sample per index.
    """
    _check_fov(phantom, grid)
    return KSignal(grid, samples_at(phantom, grid.index_mesh()))


def samples_at(phantom: Phantom, mesh) -> np.ndarray:
    """Closed-form samples at arbitrary integer index arrays (no grid)."""
    mesh = tuple(np.asarray(m) for m in mesh)
    total = np.zeros(np.broadcast_shapes(*(m.shape for m in mesh)), dtype=np.complex128)
    for p in phantom.primitives:
        total += primitive_samples(p, mesh, phantom.fov)
    return total


def spatial_profile(phantom: Phantom, x: np.ndarray, ref: float) -> np.ndarray:
    """Evaluate ``rho(x)`` (1D) with support membership decided at ``ref``.

    Quadrature segments are aligned to support edges; deciding membership
    at the segment midpoint keeps the integrand single-sided there.
    """
    if phantom.dims != 1:
        raise ValueError("spatial_profile is 1D only")
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape, dtype=np.complex128)
    for p in phantom.primitives:
        if p.kind == "point":
            raise ValueError("point primitives have no pointwise spatial profile")
        c, w = p.center[0], p.extent[0]
        if not (c - w < ref < c + w):
            continue
        if p.kind == "boxcar":
            out += p.amplitude
        else:
            u = (x - c) / w
            out += p.amplitude * np.sqrt(np.clip(1.0 - u * u, 0.0, None))
    return out


@dataclass(frozen=True, eq=False)
class Modulator:
    """Trigonometric coefficients of a smooth spatial weighting.

    ``coeffs[i]`` holds the coefficient of index ``m = n_min + i`` per
    axis; the represented function is
    ``c(x) = (1 / prod B) * sum_m coeffs[m] exp(+i 2 pi m x / B)``.
    """

    coeffs: np.ndarray
    n_min: tuple[int, ...]

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=np.complex128)
        if arr.ndim not in (1, 2):
            raise ValueError("coeffs must be 1D or 2D")
        if not np.all(np.isfinite(arr.view(np.float64))):
            raise ValueError("coeffs contain non-finite entries")
        if not np.any(arr):
            raise ValueError("at least one coefficient must be nonzero")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)
        object.__setattr__(self, "n_min", _axes_int(self.n_min, "n_min"))
        if len(self.n_min) != arr.ndim:
            raise ValueError("n_min length must match coeffs dims")

    __reduce__ = _rebuilt(None, "coeffs", "n_min")

    @property
    def dims(self) -> int:
        return self.coeffs.ndim

    @property
    def n_max(self) -> tuple[int, ...]:
        return tuple(lo + s - 1 for lo, s in zip(self.n_min, self.coeffs.shape))

    def eval_spatial(self, points, fov) -> np.ndarray:
        """Evaluate ``c(x)`` on spatial coordinates (1D array or 2D mesh tuple)."""
        fov = _axes_float(fov, "fov")
        if self.dims == 1:
            x = np.asarray(points, dtype=float)
            m = np.arange(self.n_min[0], self.n_max[0] + 1)
            basis = np.exp(2j * np.pi * np.multiply.outer(x, m) / fov[0])
            return basis @ self.coeffs / fov[0]
        x0, x1 = (np.asarray(p, dtype=float) for p in points)
        m0 = np.arange(self.n_min[0], self.n_max[0] + 1)
        m1 = np.arange(self.n_min[1], self.n_max[1] + 1)
        e0 = np.exp(2j * np.pi * np.multiply.outer(x0, m0) / fov[0])
        e1 = np.exp(2j * np.pi * np.multiply.outer(x1, m1) / fov[1])
        return e0 @ self.coeffs @ e1.T / (fov[0] * fov[1])


def modulated_samples(phantom: Phantom, modulator: Modulator, grid: KGrid) -> KSignal:
    """Exact samples of the weighted scene ``c(x) * rho(x)``.

    Modulation in space is convolution of sample sequences:
    ``out[n] = (1 / prod B) * sum_m coeffs[m] * rho[n - m]``, with the
    phantom's closed forms supplying ``rho`` on the extended index range,
    so the result is exact on the whole requested grid.
    """
    _check_fov(phantom, grid)
    if modulator.dims != grid.dims:
        raise ValueError("modulator dims do not match grid dims")
    ext = tuple(
        np.arange(glo - mhi, ghi - mlo + 1)
        for glo, ghi, mlo, mhi in zip(grid.n_min, grid.n_max, modulator.n_min, modulator.n_max)
    )
    base = samples_at(phantom, np.meshgrid(*ext, indexing="ij"))
    out = _sps.convolve(base, modulator.coeffs, mode="valid", method="direct")
    return KSignal(grid, out / np.prod(phantom.fov))


def make_sensitivities(
    q_count: int,
    bandwidth: int,
    seed: int,
    fov=1.0,
    dims: int = 1,
) -> tuple[Modulator, ...]:
    """Draw smooth random channel weightings with bounded sum of squares.

    Coefficients decay like ``1 / (1 + |m|)`` and the zero-order term is
    biased positive, then the whole draw is redone until the spatial
    sum-of-squares over the channels satisfies ``min >= 0.1 * max`` on a
    dense evaluation grid.  Deterministic for a given seed.
    """
    if q_count < 1 or bandwidth < 0 or dims not in (1, 2):
        raise ValueError("bad sensitivity parameters")
    fov = _axes_float(fov if not np.isscalar(fov) else (fov,) * dims, "fov")
    if len(fov) != dims:
        raise ValueError("fov length must match dims")
    rng = np.random.default_rng(seed)
    shape = (2 * bandwidth + 1,) * dims
    center = (bandwidth,) * dims
    mesh = np.meshgrid(*(np.arange(-bandwidth, bandwidth + 1),) * dims, indexing="ij")
    decay = 1.0 / (1.0 + np.sqrt(sum(m.astype(float) ** 2 for m in mesh)))
    scale = float(np.prod(fov))
    if dims == 1:
        xs = (np.linspace(-fov[0] / 2, fov[0] / 2, 512, endpoint=False),)
    else:
        xs = tuple(np.linspace(-b / 2, b / 2, 64, endpoint=False) for b in fov)

    for _ in range(100):
        mods = []
        for _q in range(q_count):
            g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            g = 0.5 * g * decay
            g[center] += 1.5
            mods.append(Modulator(scale * g, (-bandwidth,) * dims))
        sos = sum(np.abs(m.eval_spatial(xs if dims == 2 else xs[0], fov)) ** 2 for m in mods)
        if sos.min() >= 0.1 * sos.max():
            return tuple(mods)
    raise RuntimeError("could not draw sensitivities with bounded sum of squares")


def phantom_to_json(phantom: Phantom) -> dict:
    return {
        "kind": "phantom",
        "fov": list(phantom.fov),
        "primitives": [
            {
                "kind": p.kind,
                "center": list(p.center),
                "extent": list(p.extent),
                "amplitude": [p.amplitude.real, p.amplitude.imag],
            }
            for p in phantom.primitives
        ],
    }


def phantom_from_json(doc: dict) -> Phantom:
    prims = tuple(
        Primitive(
            kind=p["kind"],
            center=tuple(p["center"]),
            extent=tuple(p["extent"]),
            amplitude=complex(p["amplitude"][0], p["amplitude"][1]),
        )
        for p in doc["primitives"]
    )
    return Phantom(prims, tuple(doc["fov"]))


def _pairs(arr: np.ndarray):
    if arr.ndim == 1:
        return [[v.real, v.imag] for v in arr]
    return [[[v.real, v.imag] for v in row] for row in arr]


def _unpairs(data) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.ndim not in (2, 3) or arr.shape[-1] != 2:
        raise ValueError("coefficient list must hold [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def modulator_to_json(mod: Modulator) -> dict:
    return {"n_min": list(mod.n_min), "coeffs": _pairs(mod.coeffs)}


def modulator_from_json(doc: dict) -> Modulator:
    return Modulator(_unpairs(doc["coeffs"]), tuple(doc["n_min"]))
