"""Index grids, Fourier-sample signals, sampling masks, and prediction filters.

All data in this package lives on integer index grids: a signal stores one
complex double per index ``n`` with ``n_min <= n <= n_max`` along each axis.
Filters store taps ``h[k]`` for ``k in [-L, P]`` and act by discrete
convolution restricted to the fully-covered (valid) output range, so no
wraparound or zero-padding assumption ever enters a prediction residual.

Everything here is a plain immutable value type; operations return new
objects and never mutate their inputs, so instances are safe to share
across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np
from scipy import signal as _sps


class GridMismatchError(ValueError):
    """Two objects that must share an index grid do not."""


def _axes_int(value, name: str) -> tuple[int, ...]:
    if np.isscalar(value):
        value = (value,)
    out = tuple(int(v) for v in value)
    for v, raw in zip(out, value):
        if v != raw:
            raise ValueError(f"{name} entries must be integers, got {raw!r}")
    return out


def _axes_float(value, name: str) -> tuple[float, ...]:
    if np.isscalar(value):
        value = (value,)
    out = tuple(float(v) for v in value)
    if not all(np.isfinite(out)):
        raise ValueError(f"{name} entries must be finite, got {value!r}")
    return out


@dataclass(frozen=True)
class KGrid:
    """Integer index range per axis plus the field of view it discretizes.

    Args:
        n_min: lowest index per axis (scalar for 1D).
        n_max: highest index per axis.
        fov: field-of-view extent ``B`` per axis; samples at index ``n``
            correspond to the frequency ``n / B``.

    A directly constructed grid must contain index 0 and at least two
    points per axis.  Derived ranges that need not contain 0 (valid
    regions of a convolution, extrapolated extensions) are built with
    :meth:`KGrid.window`.
    """

    n_min: tuple[int, ...]
    n_max: tuple[int, ...]
    fov: tuple[float, ...]

    def __post_init__(self):
        self._normalize()
        for lo, hi in zip(self.n_min, self.n_max):
            if not (lo <= 0 <= hi):
                raise ValueError(f"grid [{lo}, {hi}] does not contain index 0")
            if hi - lo + 1 < 2:
                raise ValueError(f"grid [{lo}, {hi}] has fewer than 2 points")

    def _normalize(self):
        object.__setattr__(self, "n_min", _axes_int(self.n_min, "n_min"))
        object.__setattr__(self, "n_max", _axes_int(self.n_max, "n_max"))
        object.__setattr__(self, "fov", _axes_float(self.fov, "fov"))
        if not (len(self.n_min) == len(self.n_max) == len(self.fov)):
            raise ValueError("n_min, n_max, fov must agree in length")
        if len(self.n_min) not in (1, 2):
            raise ValueError("only 1D and 2D grids are supported")
        for lo, hi in zip(self.n_min, self.n_max):
            if lo > hi:
                raise ValueError(f"empty index range [{lo}, {hi}]")
        if any(b <= 0 for b in self.fov):
            raise ValueError("fov must be positive")

    @classmethod
    def window(cls, n_min, n_max, fov) -> "KGrid":
        """Index range that need not contain 0 (derived windows only)."""
        g = object.__new__(cls)
        object.__setattr__(g, "n_min", n_min)
        object.__setattr__(g, "n_max", n_max)
        object.__setattr__(g, "fov", fov)
        g._normalize()
        return g

    @property
    def dims(self) -> int:
        return len(self.n_min)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(hi - lo + 1 for lo, hi in zip(self.n_min, self.n_max))

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))

    @property
    def contains_origin(self) -> bool:
        return all(lo <= 0 <= hi for lo, hi in zip(self.n_min, self.n_max))

    def index_vectors(self) -> tuple[np.ndarray, ...]:
        """Ascending index array per axis."""
        return tuple(np.arange(lo, hi + 1) for lo, hi in zip(self.n_min, self.n_max))

    def index_mesh(self) -> tuple[np.ndarray, ...]:
        return tuple(np.meshgrid(*self.index_vectors(), indexing="ij"))

    def pos(self, n) -> tuple[int, ...]:
        """Array position of index tuple ``n``."""
        n = _axes_int(n, "n")
        p = tuple(ni - lo for ni, lo in zip(n, self.n_min))
        if any(pi < 0 or pi >= s for pi, s in zip(p, self.shape)):
            raise IndexError(f"index {n} outside grid")
        return p

    def contains(self, n) -> bool:
        n = _axes_int(n, "n")
        return all(lo <= ni <= hi for ni, lo, hi in zip(n, self.n_min, self.n_max))

    def valid_for(self, L: int, P: int) -> "KGrid":
        """Output range of a ``[-L, P]`` filter applied without wraparound."""
        lo = tuple(m + P for m in self.n_min)
        hi = tuple(m - L for m in self.n_max)
        if any(a > b for a, b in zip(lo, hi)):
            raise ValueError(f"filter [-{L}, {P}] leaves no valid output on {self.shape}")
        return KGrid.window(lo, hi, self.fov)


def centered_grid(shape, fov) -> KGrid:
    """Grid of ``shape[a]`` indices per axis centered on 0: ``[-s//2, s - s//2 - 1]``."""
    shape = _axes_int(shape, "shape")
    return KGrid(
        tuple(-(s // 2) for s in shape),
        tuple(s - s // 2 - 1 for s in shape),
        fov if not np.isscalar(fov) else (float(fov),) * len(shape),
    )


def _unchecked(cls, **fields):
    """An instance of the frozen dataclass ``cls`` holding ``fields`` as
    given, without ``__post_init__``: for values already checked as a
    whole, such as the channels of one validated stack."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _as_complex(values, shape, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.complex128)
    if arr.shape != shape:
        raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
    if not np.all(np.isfinite(arr.view(np.float64))):
        raise ValueError(f"{name} contains non-finite entries")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class KSignal:
    """Complex Fourier samples on a :class:`KGrid`, stored ascending-index."""

    grid: KGrid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _as_complex(self.values, self.grid.shape, "values"))

    def at(self, n) -> complex:
        return complex(self.values[self.grid.pos(n)])

    def energy(self) -> float:
        return float(np.sum(np.abs(self.values) ** 2))


@dataclass(frozen=True, eq=False)
class MultiKSignal:
    """Channel stack of :class:`KSignal` objects on one shared grid."""

    channels: tuple[KSignal, ...]

    def __post_init__(self):
        chans = tuple(self.channels)
        if not chans:
            raise ValueError("at least one channel required")
        for ch in chans[1:]:
            if ch.grid != chans[0].grid:
                raise GridMismatchError("channels must share one grid")
        object.__setattr__(self, "channels", chans)

    @classmethod
    def from_array(cls, grid: KGrid, stacked) -> "MultiKSignal":
        """Channels from a ``[Q, *shape]`` stack, validated as one array;
        each channel's values are a read-only view of the checked copy."""
        stacked = np.asarray(stacked, dtype=np.complex128)
        if stacked.shape[1:] != grid.shape:
            raise ValueError(f"stacked shape {stacked.shape} does not match grid {grid.shape}")
        if not len(stacked):
            raise ValueError("at least one channel required")
        stacked = _as_complex(stacked, stacked.shape, "values")
        chans = tuple(_unchecked(KSignal, grid=grid, values=s) for s in stacked)
        return _unchecked(cls, channels=chans)

    @property
    def grid(self) -> KGrid:
        return self.channels[0].grid

    @property
    def q_count(self) -> int:
        return len(self.channels)

    def stack(self) -> np.ndarray:
        return np.stack([ch.values for ch in self.channels])

    def energy(self) -> float:
        return float(sum(ch.energy() for ch in self.channels))


@dataclass(frozen=True, eq=False)
class Filter:
    """Prediction/annihilation taps ``h[k]`` for ``k in [-L, P]`` per axis.

    ``taps`` is stored ascending in ``k``; position ``L`` (per axis) is the
    ``k = 0`` anchor.  When ``anchor_fixed`` is set the anchor tap must be
    exactly ``-1``: the filter output ``sum_k h[k] x[n-k]`` is then the
    prediction residual ``-x[n] + sum_{k != 0} h[k] x[n-k]``.
    """

    taps: np.ndarray
    L: int
    P: int
    anchor_fixed: bool = False

    def __post_init__(self):
        L, P = int(self.L), int(self.P)
        if L < 0 or P < 0:
            raise ValueError("L and P must be nonnegative")
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "P", P)
        taps = np.asarray(self.taps, dtype=np.complex128)
        if taps.ndim not in (1, 2):
            raise ValueError("taps must be 1D or 2D")
        width = L + P + 1
        if taps.shape != (width,) * taps.ndim:
            raise ValueError(f"taps shape {taps.shape} does not match [-{L}, {P}]")
        if not np.all(np.isfinite(taps.view(np.float64))):
            raise ValueError("taps contain non-finite entries")
        if not np.any(taps):
            raise ValueError("at least one tap must be nonzero")
        if self.anchor_fixed and taps[(L,) * taps.ndim] != -1:
            raise ValueError("anchor_fixed requires the k=0 tap to equal -1 exactly")
        taps = taps.copy()
        taps.setflags(write=False)
        object.__setattr__(self, "taps", taps)

    @property
    def dims(self) -> int:
        return self.taps.ndim

    def tap(self, k) -> complex:
        k = _axes_int(k, "k")
        return complex(self.taps[tuple(ki + self.L for ki in k)])

    def k_vectors(self) -> tuple[np.ndarray, ...]:
        return tuple(np.arange(-self.L, self.P + 1) for _ in range(self.dims))


@dataclass(frozen=True, eq=False)
class MultiFilter:
    """One filter per channel, sharing a common ``[-L, P]`` support.

    At most one channel may carry the ``anchor_fixed`` convention; that
    channel is the prediction target of the joint relation
    ``sum_q sum_k h_q[k] x_q[n-k] ~ 0``.
    """

    filters: tuple[Filter, ...]

    def __post_init__(self):
        filts = tuple(self.filters)
        if not filts:
            raise ValueError("at least one channel filter required")
        f0 = filts[0]
        for f in filts[1:]:
            if (f.L, f.P, f.dims) != (f0.L, f0.P, f0.dims):
                raise ValueError("channel filters must share L, P, and dims")
        if sum(f.anchor_fixed for f in filts) > 1:
            raise ValueError("at most one channel may carry the anchor")
        object.__setattr__(self, "filters", filts)

    @property
    def q_count(self) -> int:
        return len(self.filters)

    @property
    def L(self) -> int:
        return self.filters[0].L

    @property
    def P(self) -> int:
        return self.filters[0].P

    @property
    def dims(self) -> int:
        return self.filters[0].dims

    @property
    def anchor_channel(self) -> int | None:
        for q, f in enumerate(self.filters):
            if f.anchor_fixed:
                return q
        return None

    def stack(self) -> np.ndarray:
        return np.stack([f.taps for f in self.filters])


def _normalize_calib(calib, grid: KGrid):
    if calib is None:
        return None
    if grid.dims == 1 and len(calib) == 2 and np.isscalar(calib[0]):
        calib = (calib,)
    out = tuple((int(lo), int(hi)) for lo, hi in calib)
    if len(out) != grid.dims:
        raise ValueError("calib interval count must match grid dims")
    for (lo, hi), glo, ghi in zip(out, grid.n_min, grid.n_max):
        if lo > hi:
            raise ValueError(f"empty calib interval [{lo}, {hi}]")
        if lo < glo or hi > ghi:
            raise ValueError(f"calib interval [{lo}, {hi}] outside grid [{glo}, {ghi}]")
    return out


@dataclass(frozen=True, eq=False)
class SamplingMask:
    """Acquired-index indicator on a grid, with an optional calibration block.

    ``calib`` is a contiguous, fully-acquired index interval per axis
    (a rectangle in 2D), given as ``(lo, hi)`` inclusive bounds.
    """

    grid: KGrid
    acquired: np.ndarray
    calib: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self):
        acq = np.asarray(self.acquired)
        if acq.dtype != np.bool_:
            if not np.all((acq == 0) | (acq == 1)):
                raise ValueError("acquired must be boolean")
            acq = acq.astype(bool)
        if acq.shape != self.grid.shape:
            raise ValueError(f"acquired shape {acq.shape} does not match grid {self.grid.shape}")
        acq = acq.copy()
        acq.setflags(write=False)
        object.__setattr__(self, "acquired", acq)
        calib = _normalize_calib(self.calib, self.grid)
        if calib is not None and not np.all(acq[self.calib_slices(calib)]):
            raise ValueError("calibration region must be fully acquired")
        object.__setattr__(self, "calib", calib)

    def calib_slices(self, calib=None) -> tuple[slice, ...]:
        calib = self.calib if calib is None else calib
        if calib is None:
            raise ValueError("mask has no calibration region")
        return tuple(
            slice(lo - glo, hi - glo + 1) for (lo, hi), glo in zip(calib, self.grid.n_min)
        )

    @property
    def acquired_count(self) -> int:
        return int(np.count_nonzero(self.acquired))

    def missing_positions(self) -> np.ndarray:
        """(count, dims) array of array positions of unacquired indices."""
        return np.argwhere(~self.acquired)


def zero_fill(data: Union[KSignal, MultiKSignal], mask: SamplingMask):
    """Zero every unacquired entry; acquired entries pass through.

    Idempotent: applying twice equals applying once.
    """
    if isinstance(data, MultiKSignal):
        return MultiKSignal(tuple(zero_fill(ch, mask) for ch in data.channels))
    if data.grid != mask.grid:
        raise GridMismatchError("data and mask grids differ")
    return KSignal(data.grid, np.where(mask.acquired, data.values, 0.0))


def conv_apply(data: KSignal, filt: Filter) -> KSignal:
    """Apply ``y[n] = sum_k h[k] x[n-k]`` on the fully-covered output range.

    The output grid shrinks to ``[n_min + P, n_max - L]`` per axis so that
    every term of the sum references an index inside the input grid.

    Args:
        data: input samples.
        filt: taps on ``[-L, P]``; dims must match the data.

    Returns:
        The valid-region response on the shrunken window grid.
    """
    if filt.dims != data.grid.dims:
        raise ValueError("filter dims do not match data dims")
    out_grid = data.grid.valid_for(filt.L, filt.P)
    out = _sps.convolve(data.values, filt.taps, mode="valid", method="direct")
    return KSignal(out_grid, out)


def conv_response(data: MultiKSignal, mf: MultiFilter) -> KSignal:
    """Joint response ``sum_q sum_k h_q[k] x_q[n-k]`` on the valid range."""
    if mf.q_count != data.q_count:
        raise ValueError("filter channel count does not match data")
    parts = [conv_apply(ch, f) for ch, f in zip(data.channels, mf.filters)]
    total = parts[0].values.copy()
    for p in parts[1:]:
        total = total + p.values
    return KSignal(parts[0].grid, total)


def signals_allclose(a: KSignal, b: KSignal, rtol=1e-12, atol=1e-12) -> bool:
    return a.grid == b.grid and bool(np.allclose(a.values, b.values, rtol=rtol, atol=atol))
