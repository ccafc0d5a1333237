"""Index grids, Fourier-sample signals, sampling masks, and prediction filters.

All data in this package lives on integer index grids: a signal stores one
complex double per index ``n`` with ``n_min <= n <= n_max`` along each axis.
A channel stack stores its samples ``x_q[n]`` as one ``[Q, *N]`` array, so
functions that take either kind act on ``values`` alone.  Filters store
taps ``h[k]`` for ``k in [-L, P]``; every routine that applies them keeps
to the fully-covered (valid) output range (:meth:`KGrid.valid_for`), so no
wraparound or zero-padding assumption ever enters a prediction residual.
A joint filter stores its channels' taps as one ``[Q, *W]`` array, and
one routine checks every tap array: a filter's ``[*W]``, a joint filter's
``[Q, *W]`` and a bank's ``[F, Q, *W]``.

Each input rule the modules share is stated here once: a ``[-L, P]``
window (``_window``), an index (``_index``), a weight (``_weight``), the
data and the one mask its channels share (``_as_multi``,
``_shared_acquired``), a calibration box (``_box``), a valid range
(:meth:`KGrid.valid_for`), a tap array (``_check_taps``) and an anchor.

Everything here is a plain immutable value type; operations return new
objects and never mutate their inputs, so instances are safe to share
across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np


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


def _integer(key: str, value):
    """``value`` if it is an integer (not a bool), else a ``ValueError``
    naming ``key``: a float is never truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return value


def _window(L, P) -> tuple[int, int]:
    """``(L, P)`` of a ``[-L, P]`` tap window: two nonnegative integers."""
    L, P = int(_integer("L", L)), int(_integer("P", P))
    if L < 0 or P < 0:
        raise ValueError("L and P must be nonnegative")
    return L, P


def _index(key: str, value, count: int) -> int:
    """``value`` if it is an integer in ``[0, count)``, else a ``ValueError`` naming ``key``."""
    value = int(_integer(key, value))
    if not 0 <= value < count:
        raise ValueError(f"{key} must lie in [0, {count}), got {value}")
    return value


def _weight(key: str, value):
    """``value`` if it is finite and nonnegative, else a ``ValueError`` naming ``key``."""
    if not 0.0 <= value < np.inf:
        raise ValueError(f"{key} must be finite and nonnegative, not {value}")
    return value


@dataclass(frozen=True)
class KGrid:
    """Integer index range per axis plus the field of view it discretizes.

    Args:
        n_min: lowest index per axis (scalar for 1D).
        n_max: highest index per axis.
        fov: field-of-view extent ``B`` per axis; samples at index ``n``
            correspond to the frequency ``n / B``.

    A directly constructed grid must contain index 0 and at least two
    points per axis.  Derived ranges that need not contain 0 (the valid
    region of a filter, a shifted copy) are built with
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

    def index_vectors(self) -> tuple[np.ndarray, ...]:
        """Ascending index array per axis."""
        return tuple(np.arange(lo, hi + 1) for lo, hi in zip(self.n_min, self.n_max))

    def index_mesh(self) -> tuple[np.ndarray, ...]:
        return tuple(np.meshgrid(*self.index_vectors(), indexing="ij"))

    def valid_for(self, L: int, P: int) -> "KGrid":
        """Output range of a ``[-L, P]`` filter applied without wraparound."""
        lo = tuple(m + P for m in self.n_min)
        hi = tuple(m - L for m in self.n_max)
        if any(a > b for a, b in zip(lo, hi)):
            raise ValueError(f"filter [-{L}, {P}] leaves no valid output on {self.shape}")
        return KGrid.window(lo, hi, self.fov)


def _box(intervals, grid: KGrid) -> tuple[slice, ...]:
    """The array slices of inclusive ``(lo, hi)`` index intervals on ``grid``."""
    return tuple(slice(lo - glo, hi - glo + 1) for (lo, hi), glo in zip(intervals, grid.n_min))


def _centered_interval(width: int) -> tuple[int, int]:
    """Inclusive bounds of ``width`` indices centered on 0:
    ``[-(w // 2), w - w // 2 - 1]``."""
    return -(width // 2), width - width // 2 - 1


def centered_grid(shape, fov) -> KGrid:
    """Grid of ``shape[a]`` indices per axis centered on 0 (see
    :func:`_centered_interval`)."""
    bounds = [_centered_interval(s) for s in _axes_int(shape, "shape")]
    return KGrid(
        tuple(lo for lo, _ in bounds),
        tuple(hi for _, hi in bounds),
        fov if not np.isscalar(fov) else (float(fov),) * len(bounds),
    )


def _unchecked(cls, **fields):
    """An instance of the frozen dataclass ``cls`` holding ``fields`` as
    given, without ``__post_init__``: for values already checked as a
    whole, such as the filters of one validated bank."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _rebuilt(build: str | None, *names: str):
    """A ``__reduce__`` that makes ``pickle`` and ``copy`` rebuild a value
    by calling its class (``build`` None) or the classmethod ``build`` on
    the fields ``names``.  A field-by-field restore would skip the checks
    and give back writeable arrays; this goes through them, so a copy's
    arrays are read-only copies like the original's."""

    def __reduce__(self):
        cls = type(self)
        return cls if build is None else getattr(cls, build), tuple(getattr(self, n) for n in names)

    return __reduce__


def _as_complex(values, shape, name: str) -> np.ndarray:
    """A read-only C-ordered copy of ``values``, checked for shape and finiteness."""
    arr = np.array(values, dtype=np.complex128, order="C")
    if arr.shape != shape:
        raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
    if not np.all(np.isfinite(arr.view(np.float64))):
        raise ValueError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class KSignal:
    """Complex Fourier samples on a :class:`KGrid`, stored ascending-index."""

    grid: KGrid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _as_complex(self.values, self.grid.shape, "values"))

    __reduce__ = _rebuilt(None, "grid", "values")


@dataclass(frozen=True, eq=False, init=False)
class MultiKSignal:
    """Channel stack on one shared grid: ``values`` is one read-only
    ``[Q, *N]`` array, the stack ``x_q[n]`` every solver works on.

    ``MultiKSignal(channels)`` checks that the :class:`KSignal` channels
    share a grid and stacks them once; :meth:`from_array` checks a
    ``[Q, *N]`` stack as one array.
    """

    grid: KGrid
    values: np.ndarray

    def __init__(self, channels):
        chans = tuple(channels)
        if not chans:
            raise ValueError("at least one channel required")
        if any(ch.grid != chans[0].grid for ch in chans[1:]):
            raise GridMismatchError("channels must share one grid")
        stacked = np.stack([ch.values for ch in chans])
        object.__setattr__(self, "grid", chans[0].grid)
        object.__setattr__(self, "values", _as_complex(stacked, stacked.shape, "values"))

    @classmethod
    def from_array(cls, grid: KGrid, stacked) -> "MultiKSignal":
        """The stack of a ``[Q, *shape]`` array, checked as one array."""
        stacked = np.asarray(stacked, dtype=np.complex128)
        if stacked.shape[1:] != grid.shape:
            raise ValueError(f"stacked shape {stacked.shape} does not match grid {grid.shape}")
        if not len(stacked):
            raise ValueError("at least one channel required")
        return _unchecked(cls, grid=grid, values=_as_complex(stacked, stacked.shape, "values"))

    __reduce__ = _rebuilt("from_array", "grid", "values")

    @property
    def q_count(self) -> int:
        return len(self.values)

    def stack(self) -> np.ndarray:
        """A writable copy of ``values``."""
        return self.values.copy()


def _as_multi(data) -> MultiKSignal:
    """``data`` as a channel stack: a :class:`KSignal` is one channel."""
    if isinstance(data, KSignal):
        return MultiKSignal((data,))
    if isinstance(data, MultiKSignal):
        return data
    raise TypeError("expected KSignal or MultiKSignal")


def _like(data, values):
    """``values`` on ``data``'s grid, as the kind of signal ``data`` is: a
    :class:`KSignal`, or a :class:`MultiKSignal` for a ``[Q, *N]`` stack."""
    if isinstance(data, MultiKSignal):
        return MultiKSignal.from_array(data.grid, values)
    return KSignal(data.grid, values)


def _check_taps(taps, L, P, lead: int) -> tuple[np.ndarray, int, int]:
    """``(taps, L, P)`` checked, ``taps`` a read-only copy: the one check of
    every tap array.  ``L, P >= 0``; ``lead`` nonempty leading axes (the
    ``[*W]``, ``[Q, *W]`` or ``[F, Q, *W]`` layout), then 1 or 2 tap axes of
    width ``L + P + 1``; finite; each filter nonzero on some channel."""
    L, P = _window(L, P)
    taps = np.asarray(taps, dtype=np.complex128)
    if taps.ndim - lead not in (1, 2) or 0 in taps.shape[:lead]:
        raise ValueError(
            f"taps must be a nonempty {('[*W]', '[Q, *W]', '[F, Q, *W]')[lead]} array, "
            f"got shape {taps.shape}"
        )
    taps = _as_complex(taps, taps.shape[:lead] + (L + P + 1,) * (taps.ndim - lead), "taps")
    per_filter = taps.reshape(taps.shape[: max(lead - 1, 0)] + (-1,))
    if not np.all(np.any(per_filter, axis=-1)):
        raise ValueError("every filter needs a nonzero tap")
    return taps, L, P


def _check_anchor(taps: np.ndarray, L: int, anchor, name: str = "filter") -> int | None:
    """``anchor`` as a channel of the one-filter ``[Q, *W]`` array ``taps``
    whose ``k = 0`` tap is exactly -1, or None."""
    if anchor is None:
        return None
    a = int(_integer(f"{name} anchor", anchor))
    if not (0 <= a < len(taps) and taps[(a,) + (L,) * (taps.ndim - 1)] == -1):
        raise ValueError(f"{name} anchor {a}: not a channel with k=0 tap exactly -1")
    return a


@dataclass(frozen=True, eq=False)
class Filter:
    """Prediction/annihilation taps ``h[k]`` for ``k in [-L, P]`` per axis.

    ``taps`` is stored ascending in ``k``; position ``L`` (per axis) is
    ``k = 0``.  A single-channel filter carries no anchor: which tap is
    pinned to -1 is recorded on joint filters only
    (:attr:`MultiFilter.anchor_channel`, ``lp.FilterBank.anchors``).
    """

    taps: np.ndarray
    L: int
    P: int

    def __post_init__(self):
        taps, L, P = _check_taps(self.taps, self.L, self.P, 0)
        self.__dict__.update(taps=taps, L=L, P=P)

    __reduce__ = _rebuilt(None, "taps", "L", "P")

    @property
    def dims(self) -> int:
        return self.taps.ndim


@dataclass(frozen=True, eq=False, init=False)
class MultiFilter:
    """One joint filter: a read-only ``[Q, *W]`` tap array, ``taps[q]`` the
    taps on channel ``q`` over the shared ``[-L, P]`` support.

    ``anchor_channel``, if not None, is the channel whose ``k = 0`` tap is
    exactly -1: the prediction target of the joint relation
    ``sum_q sum_k h_q[k] x_q[n-k] ~ 0``.  ``MultiFilter(filters)`` stacks
    one :class:`Filter` per channel and has no anchor; :meth:`from_array`
    takes the stack as it is, with the anchor the anchored fits set.
    Either checks the stack once, and ``filters`` are views of ``taps[q]``.
    """

    taps: np.ndarray
    L: int
    P: int
    anchor_channel: int | None

    def __init__(self, filters):
        filts = tuple(filters)
        if not filts or len({(f.L, f.P) for f in filts}) > 1:
            raise ValueError("channel filters must share L and P")
        taps = np.stack([f.taps for f in filts])
        self.__dict__.update(vars(MultiFilter.from_array(taps, filts[0].L, filts[0].P)))

    @classmethod
    def from_array(cls, taps, L: int, P: int, anchor: int | None = None) -> "MultiFilter":
        """The joint filter of a ``[Q, *W]`` tap array, checked as one array."""
        taps, L, P = _check_taps(taps, L, P, 1)
        return _unchecked(
            cls, taps=taps, L=L, P=P, anchor_channel=_check_anchor(taps, L, anchor)
        )

    __reduce__ = _rebuilt("from_array", "taps", "L", "P", "anchor_channel")

    @property
    def q_count(self) -> int:
        return len(self.taps)

    @property
    def dims(self) -> int:
        return self.taps.ndim - 1

    @property
    def filters(self) -> tuple[Filter, ...]:
        """Channel ``q`` as a :class:`Filter` viewing ``taps[q]``."""
        return tuple(_unchecked(Filter, taps=t, L=self.L, P=self.P) for t in self.taps)


def _normalize_calib(calib, grid: KGrid):
    if calib is None:
        return None
    if grid.dims == 1 and len(calib) == 2 and np.isscalar(calib[0]):
        calib = (calib,)
    out = tuple(
        (int(_integer("calib bound", lo)), int(_integer("calib bound", hi))) for lo, hi in calib
    )
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
        # A read-only view of a read-only private copy: numpy refuses to
        # make the view writeable again, so stored groups of its missing
        # samples (``lp.missing_patterns``) cannot go stale.
        acq = acq.copy()
        acq.setflags(write=False)
        acq = acq.view()
        object.__setattr__(self, "acquired", acq)
        calib = _normalize_calib(self.calib, self.grid)
        if calib is not None and not np.all(acq[_box(calib, self.grid)]):
            raise ValueError("calibration region must be fully acquired")
        object.__setattr__(self, "calib", calib)

    __reduce__ = _rebuilt(None, "grid", "acquired", "calib")

    def calib_slices(self) -> tuple[slice, ...]:
        """The array slices of the calibration box (``ValueError`` if none)."""
        if self.calib is None:
            raise ValueError("mask has no calibration region")
        return _box(self.calib, self.grid)

    def missing_positions(self) -> np.ndarray:
        """(count, dims) array of array positions of unacquired indices."""
        return np.argwhere(~self.acquired)


def _shared_acquired(mask: SamplingMask, data) -> np.ndarray:
    """The acquired array of the one mask ``data``'s channels share, as ``values``' shape."""
    if not isinstance(mask, SamplingMask):
        raise TypeError(f"expected one SamplingMask for all channels, not {type(mask).__name__}")
    if mask.grid != data.grid:
        raise GridMismatchError("mask grid differs from data grid")
    return np.broadcast_to(mask.acquired, data.values.shape)


def zero_fill(data: Union[KSignal, MultiKSignal], mask: SamplingMask):
    """Zero every unacquired entry; acquired entries pass through.

    Idempotent: applying twice equals applying once.
    """
    return _like(data, np.where(_shared_acquired(mask, data), data.values, 0.0))

