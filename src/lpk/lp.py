"""Fitting and applying linear-prediction relations to Fourier samples.

The central object is the calibration matrix: one row per window position
``n`` whose window ``[n - P, n + L]`` fits inside the calibration region,
one column per (channel, tap) pair, entry ``x_q[n - k]``.  A stacked
filter dotted with a row gives the joint prediction residual at that
position, so least-squares fits, pattern-aware interpolation kernels, and
nullspace filter banks are all small dense problems over this matrix.

One Parseval convention links samples and space.  Taps ``h`` applied to
the samples ``x[n] = integral rho(x) exp(-i 2 pi n x / B) dx`` leave a
response energy over all ``n`` of ``B integral |rho(x) H(x)|^2 dx``, with
``H(x) = sum_k h[k] exp(+i 2 pi k x / B)``; the identity checks compare it
with what a finite grid sums.  For a phantom made of intervals,
``g[m] = B integral |rho(x)|^2 exp(+i 2 pi x m / B) dx`` has a closed
form, the Hermitian ``G[k, n] = g[n - k]`` gives the energy as
``h^H G h``, and its smallest eigenvectors are the best-annihilating
unit-norm sequences.

Filters stay tap arrays from fit to file to solver.  The anchored fits
return a ``MultiFilter`` built from one ``[Q, *W]`` array.  A
:class:`FilterBank` is one read-only ``[F, Q, *W]`` array, checked once as
a whole by the tap check filters share; its ``filters`` are
``MultiFilter`` views of ``taps[f]``.
Pattern-aware interpolation (one kernel per local sampling pattern, as in
GRAPPA) keeps each pattern's filters as one read-only ``[Q, Q, *W]`` tap
array, ``[m]`` the filter anchored at channel ``m``: the fit returns it
and the imputation applies it as is.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass
from typing import Mapping

import numpy as np
from scipy.linalg import lapack as _lapack

from .core import (
    Filter,
    KGrid,
    MultiFilter,
    MultiKSignal,
    SamplingMask,
    _as_multi,
    _axes_int,
    _box,
    _check_anchor,
    _check_taps,
    _index,
    _integer,
    _normalize_calib,
    _rebuilt,
    _shared_acquired,
    _unchecked,
    _weight,
    _window,
)
from .phantom import Phantom, samples_at
from .quadrature import merge_edges, piecewise_quad
from . import phantom as _ph


class SingularFitError(ValueError):
    """Normal equations are singular and no ridge was allowed."""


class UncoveredPatternError(ValueError):
    """A pattern's filter has a nonzero tap on an unacquired offset."""


@dataclass(frozen=True, eq=False)
class CalibMatrix:
    """Windowed prediction system assembled from calibration data."""

    matrix: np.ndarray
    grid: KGrid
    calib: tuple[tuple[int, int], ...]
    L: int
    P: int
    q_count: int

    @property
    def dims(self) -> int:
        return self.grid.dims

    @property
    def tap_shape(self) -> tuple[int, ...]:
        return (self.L + self.P + 1,) * self.dims

    @property
    def taps_per_channel(self) -> int:
        return int(np.prod(self.tap_shape))

    @property
    def rows(self) -> int:
        return self.matrix.shape[0]

    def col_index(self, q: int, k) -> int:
        k = (k,) if np.isscalar(k) else tuple(k)
        flat = 0
        for ki in k:
            if not -self.L <= ki <= self.P:
                raise ValueError(f"tap {k} outside [-{self.L}, {self.P}]")
            flat = flat * (self.L + self.P + 1) + (ki + self.L)
        return q * self.taps_per_channel + flat


@functools.lru_cache(maxsize=32)
def _window_geometry(shape: tuple[int, ...], L: int, P: int):
    """``(starts, offsets, count)`` of a ``[Q, *N]`` stack, shared and so
    read-only.  Window ``v`` reads column ``c`` at ``starts[v] + offsets[c]``,
    summed per use so no ``V × QΠW`` array is kept, and ``count[n]`` counts
    the cells that read sample ``n``."""
    grid = shape[1:]
    width = L + P + 1
    flat = np.arange(int(np.prod(shape))).reshape(shape)
    starts = flat[(0,) + tuple(slice(0, n - width + 1) for n in grid)].ravel()
    # Tap k = j - L of the window at v reads v + P - k = v + width - 1 - j,
    # so ascending k is the window axes reversed.
    offsets = flat[(slice(None),) + (slice(width - 1, None, -1),) * len(grid)].ravel()
    cells = np.add.outer(starts, offsets[: width ** len(grid)]).ravel()
    count = np.bincount(cells, minlength=int(np.prod(grid))).reshape(grid).astype(float)
    for arr in (starts, offsets, count):
        arr.flags.writeable = False
    return starts, offsets, count


def _window_rows(stack: np.ndarray, L: int, P: int) -> np.ndarray:
    """Every window of a ``[Q, *shape]`` stack as one row, ``x_q[n - k]``
    across channel-major, ascending-``k`` columns."""
    starts, offsets, _ = _window_geometry(stack.shape, L, P)
    return stack.reshape(-1)[np.add.outer(starts, offsets)]


def _checked_calib(grid: KGrid, calib, L: int, P: int):
    """Normalized calibration intervals (the whole grid for None) that fit
    at least two ``[-L, P]`` windows per axis."""
    L, P = _window(L, P)
    if calib is None:
        calib = tuple(zip(grid.n_min, grid.n_max))
    calib = _normalize_calib(calib, grid)
    for lo, hi in calib:
        if hi - lo + 1 < P + L + 2:
            raise ValueError(
                f"calibration interval [{lo}, {hi}] smaller than P + L + 2 = {P + L + 2}"
            )
    return calib


def build_calib_matrix(data, calib=None, L: int = 0, P: int = 1) -> CalibMatrix:
    """Assemble the calibration matrix over a fully-sampled region.

    Args:
        data: samples on the grid (single- or multi-channel).
        calib: inclusive ``(lo, hi)`` interval per axis, or None for the
            whole grid.  Must contain at least ``P + L + 2`` points per
            axis so at least two windows fit.
        L: future-side tap extent (``k`` down to ``-L``).
        P: past-side tap extent (``k`` up to ``P``).

    Returns:
        The assembled :class:`CalibMatrix`.
    """
    ms = _as_multi(data)
    calib = _checked_calib(ms.grid, calib, L, P)
    region = ms.values[(slice(None),) + _box(calib, ms.grid)]
    return CalibMatrix(_window_rows(region, L, P), ms.grid, calib, L, P, ms.q_count)


def _ridge(gram: np.ndarray, ridge: float | None) -> float:
    """The ridge every fit adds to its Gram matrix ``gram``: ``ridge`` as
    given, or for None ``1e-9 *`` its largest diagonal entry (0 for no
    column); one that is negative or not finite is a ``ValueError``."""
    if ridge is None:
        return 1e-9 * float(np.max(gram.diagonal().real, initial=0.0))
    return _weight("ridge", ridge)


def _ridge_solve(A: np.ndarray, y: np.ndarray, ridge: float | None):
    """Least-squares solve with optional ridge; errors on singular + ridge 0."""
    gram = A.conj().T @ A
    ridge = _ridge(gram, ridge)
    if A.shape[1] == 0:
        return np.zeros(0, dtype=np.complex128), float(np.linalg.norm(y))
    if ridge == 0.0:
        coef, _res, rank, _sv = np.linalg.lstsq(A, y, rcond=None)
        if rank < A.shape[1]:
            raise SingularFitError(
                "normal equations are singular; pass a positive ridge to regularize"
            )
    else:
        coef = np.linalg.solve(gram + ridge * np.eye(A.shape[1]), A.conj().T @ y)
    resid = float(np.linalg.norm(A @ coef - y))
    return coef, resid


def _anchored_fit(A, shape, target: int, L: int, P: int, ridge):
    """``(filter, residual norm)`` of the ridge fit predicting channel
    ``target``'s ``k = 0`` column of ``A`` (columns: the ``shape = [Q, *W]``
    taps, channel-major) from every other column."""
    tgt = int(np.ravel_multi_index((target,) + (L,) * (len(shape) - 1), shape))
    free = [j for j in range(A.shape[1]) if j != tgt]
    coef, resid = _ridge_solve(A[:, free], A[:, tgt], ridge)
    taps = np.zeros(A.shape[1], dtype=np.complex128)
    taps[free] = coef
    taps[tgt] = -1.0
    return MultiFilter.from_array(taps.reshape(shape), L, P, target), resid


def fit_prediction_filter(
    calib: CalibMatrix,
    target: int = 0,
    ridge: float | None = None,
) -> tuple[MultiFilter, float]:
    """Fit the anchored prediction relation for one target channel.

    Solves ``min_a || A_free a - y ||^2 (+ ridge ||a||^2)`` where ``y`` is
    the target channel's ``k = 0`` column and ``A_free`` holds every
    other column, then packs the coefficients into a
    :class:`MultiFilter` with the target tap fixed at -1.

    Args:
        calib: assembled calibration matrix.
        target: channel index whose ``k = 0`` sample is predicted.
        ridge: Tikhonov weight; None picks ``1e-9 *`` the largest
            normal-equation diagonal, 0 demands an exact least-squares
            solve and raises :class:`SingularFitError` if rank-deficient.

    Returns:
        ``(filter, residual)`` with residual the RMS prediction error
        over the calibration rows.
    """
    target = _index("target channel", target, calib.q_count)
    mf, resid = _anchored_fit(
        calib.matrix, (calib.q_count,) + calib.tap_shape, target, calib.L, calib.P, ridge
    )
    return mf, resid / np.sqrt(calib.rows)


@dataclass(frozen=True, eq=False)
class FilterBank:
    """Joint filters as one read-only ``[F, Q, *W]`` tap array, ``W = L + P + 1``
    on 1 or 2 axes and ``taps[f, q]`` filter ``f`` on channel ``q``, each
    filter nonzero on some channel, with one residual per filter: ascending
    from the nullspace producers, in slice order for separators.
    ``anchors[f]`` is the channel filter ``f`` predicts, its ``k = 0`` tap
    there exactly -1, or None."""

    taps: np.ndarray
    L: int
    P: int
    residuals: tuple[float, ...]
    anchors: tuple[int | None, ...] | None = None

    def __post_init__(self):
        taps, L, P = _check_taps(self.taps, self.L, self.P, 2)
        res = tuple(float(r) for r in self.residuals)
        anchors = (None,) * len(taps) if self.anchors is None else tuple(self.anchors)
        if not len(res) == len(anchors) == len(taps):
            raise ValueError("one residual and one anchor (or None) per filter required")
        anchors = tuple(
            _check_anchor(t, L, a, f"filter {f}") for f, (t, a) in enumerate(zip(taps, anchors))
        )
        self.__dict__.update(L=L, P=P, taps=taps, residuals=res, anchors=anchors)

    __reduce__ = _rebuilt(None, "taps", "L", "P", "residuals", "anchors")

    @property
    def q_count(self) -> int:
        return self.taps.shape[1]

    @property
    def filters(self) -> tuple[MultiFilter, ...]:
        """Filter ``f`` as a :class:`MultiFilter` viewing ``taps[f]``, built
        unchecked: the bank checked it."""
        return tuple(
            _unchecked(MultiFilter, taps=t, L=self.L, P=self.P, anchor_channel=a)
            for t, a in zip(self.taps, self.anchors)
        )


def nullspace_filter_bank(
    data,
    calib=None,
    L: int = 0,
    P: int = 1,
    tau: float = 0.05,
    limit: int | None = None,
) -> FilterBank:
    """Extract annihilating filters from the calibration matrix nullspace.

    Right singular vectors with singular value at most ``tau`` times the
    largest become bank filters (always at least the very smallest one),
    orthonormal by construction, residuals ascending.  ``limit``, if not
    None, keeps the first ``limit >= 1`` of them.  A negative or
    non-finite ``tau`` is a ``ValueError``.
    """
    if limit is not None and _integer("limit", limit) < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    _weight("tau", tau)
    cm = build_calib_matrix(data, calib, L, P)
    _u, s, vh = np.linalg.svd(cm.matrix, full_matrices=True)
    n_cols = cm.matrix.shape[1]
    s_full = np.concatenate([s, np.zeros(n_cols - len(s))])
    keep = np.flatnonzero(s_full <= tau * (s_full[0] if len(s_full) else 0.0))
    if keep.size == 0:
        keep = np.array([n_cols - 1])
    order = keep[np.argsort(s_full[keep])]
    if limit is not None:
        order = order[:limit]
    taps = np.conj(vh[order]).reshape((len(order), cm.q_count) + cm.tap_shape)
    return FilterBank(taps, cm.L, cm.P, s_full[order] / np.sqrt(cm.rows))


def pattern_signature(mask: SamplingMask, n, L: int, P: int) -> str:
    """Acquired/missing bit pattern of the window ``[n - P, n + L]``.

    One character per window offset in ascending index order (row-major
    across axes in 2D); offsets outside the grid read as ``0``.
    """
    L, P = _window(L, P)
    n = _axes_int(n, "n")
    if len(n) != mask.grid.dims:
        raise ValueError(f"index {n} does not match a {mask.grid.dims}D grid")
    width = L + P + 1
    bits = np.zeros((width,) * len(n), dtype=bool)
    src, dst = [], []
    for ni, lo, size in zip(n, mask.grid.n_min, mask.grid.shape):
        start = ni - lo - P  # array index of offset -P
        a = max(start, 0)
        b = max(min(start + width, size), a)
        src.append(slice(a, b))
        dst.append(slice(a - start, b - start))
    bits[tuple(dst)] = mask.acquired[tuple(src)]
    return (bits.view(np.uint8) + ord("0")).tobytes().decode("ascii")


# Groups of each live mask, by (L, P).  A SamplingMask's acquired array
# is a read-only copy and its hash is its identity, so its groups cannot
# go stale; the weak keys drop them with the mask.  Their values hold no
# reference to the mask.  Two threads grouping one mask at once both
# compute it, and either result is the stored one.
_GROUPS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def missing_patterns(mask: SamplingMask, L: int, P: int) -> dict[str, np.ndarray]:
    """Missing samples grouped by local pattern, in sorted signature order.

    Maps each :func:`pattern_signature` to the read-only ``(count, dims)``
    array positions of the missing samples whose window has it.  A mask
    is grouped once per ``(L, P)`` while it lives; each call returns a
    fresh dict over those arrays, so the fit, the imputation and the
    ``interp`` engine share one grouping of a mask.
    """
    # A float L or P fails here, not on an integer's stored groups.
    key = _window(L, P)
    by_window = _GROUPS.setdefault(mask, {})
    if key not in by_window:
        by_window[key] = _group_missing(mask, *key)
    return dict(by_window[key])


def _group_missing(mask: SamplingMask, L: int, P: int) -> dict[str, np.ndarray]:
    missing = mask.missing_positions()
    if missing.size == 0:
        return {}
    dims = mask.grid.dims
    padded = np.pad(mask.acquired, [(P, L)] * dims)
    windows = np.lib.stride_tricks.sliding_window_view(padded, (L + P + 1,) * dims)
    bits = windows[tuple(missing.T)].reshape(len(missing), -1)
    # Big-endian packed rows sort bytewise like the 0/1 strings they
    # spell, so groups come out sorted.  Viewed as one void scalar each,
    # the rows compare bytewise too, and one 1-D sort groups them.
    packed = np.packbits(bits, axis=1)
    _, first, inverse, counts = np.unique(
        packed.view(np.dtype((np.void, packed.shape[1]))).ravel(),
        return_index=True, return_inverse=True, return_counts=True,
    )
    # A stable sort keeps each group's positions in ascending order.  The
    # groups are views of one read-only array, so none can be made
    # writable again.
    ordered = missing[np.argsort(inverse.reshape(-1), kind="stable")]
    ordered.setflags(write=False)
    members = np.split(ordered, np.cumsum(counts)[:-1])
    groups = {}
    for i, pos in zip(first, members):
        n = tuple(int(p + lo) for p, lo in zip(missing[i], mask.grid.n_min))
        groups[pattern_signature(mask, n, L, P)] = pos
    return groups


def _source_taps(sig: str) -> np.ndarray:
    """Flat boolean tap mask: tap ``k`` reads window offset ``-k``, so the
    reversed signature marks the taps that land on acquired samples."""
    return np.array(list(sig[::-1])) == "1"


def fit_interpolation_filters(
    data,
    mask: SamplingMask,
    L: int = 1,
    P: int = 1,
    ridge: float | None = None,
):
    """Fit one anchored filter per channel for each missing-sample pattern.

    Missing samples are grouped by the signature of their local window
    (:func:`missing_patterns`, whose grouping of ``mask`` a later
    :func:`interpolate_missing` on the same mask reuses); each distinct
    pattern gets one fit.  All fits share one calibration Gram matrix.
    A missing sample's own ``k = 0`` tap reads the sample itself, so it
    is never a source, and every channel's fit uses the same source
    columns: the pattern's acquired offsets in every channel.  Each
    pattern therefore costs one Cholesky factorization of that Gram block
    plus ``ridge`` (None: ``1e-9 *`` the largest Gram diagonal) on its
    diagonal, shared by every channel, with one right-hand side per
    channel's ``k = 0`` column.  Requires ``mask.calib``; a negative or
    non-finite ``ridge`` is a ValueError.  A block not positive definite,
    as with all-zero data and no positive ridge, raises SingularFitError.

    Returns ``(filters, quality)``.  ``filters`` maps each signature to
    that pattern's read-only ``[Q, Q, *W]`` tap array (``W = L + P + 1``
    per axis): ``[m]`` is the filter anchored at channel ``m``, whose own
    ``k = 0`` tap ``[m, m, L, ...]`` is -1, and taps on unacquired offsets
    are zero.  ``quality`` maps each signature to ``(rel_resid,
    coef_energy)``: the worst channel's relative calibration residual and
    squared coefficient norm (the noise-amplification factor of one
    imputation).
    """
    ms = _as_multi(data)
    _shared_acquired(mask, ms)
    if mask.calib is None:
        raise ValueError("pattern fitting requires a calibration region")
    cm = build_calib_matrix(ms, mask.calib, L, P)
    gram = cm.matrix.conj().T @ cm.matrix
    ridge = _ridge(gram, ridge)
    q_count, per = cm.q_count, cm.taps_per_channel
    channels = np.arange(q_count)
    tgts = channels * per + cm.col_index(0, (0,) * cm.dims)
    tt = gram[tgts, tgts].real
    live = tt > 0
    gram.flat[:: len(gram) + 1] += ridge

    out: dict[str, np.ndarray] = {}
    quality: dict[str, tuple[float, float]] = {}
    for sig in missing_patterns(mask, L, P):
        src_flat = np.flatnonzero(_source_taps(sig))
        if not src_flat.size:
            continue  # fully missing neighborhood admits no filter
        src_cols = (channels[:, None] * per + src_flat).ravel()
        # A fresh Fortran-ordered block, which zposv factors in place; rhs
        # holds no ridged diagonal entry, since a target is never a source.
        block = gram.T[np.ix_(src_cols, src_cols)].T
        rhs = gram[np.ix_(src_cols, tgts)]
        _chol, coef, info = _lapack.zposv(block, rhs, lower=1, overwrite_a=1)
        if info:
            raise SingularFitError(f"pattern {sig}: Gram block is singular; pass a positive ridge")
        taps = np.zeros((q_count, q_count * per), dtype=np.complex128)
        taps[:, src_cols] = coef.T
        taps[channels, tgts] = -1.0
        if not np.isfinite(taps.view(np.float64)).all():
            raise ValueError("taps contain non-finite entries")
        taps = taps.reshape((q_count, q_count) + cm.tap_shape)
        taps.setflags(write=False)
        out[sig] = taps
        # ||A_src c_m - a_m||^2 per channel m through the Gram: with
        # (G_src + ridge) c_m = r_m it is t_m - Re(c_m^H r_m) - ridge |c_m|^2.
        energy = np.sum(np.abs(coef) ** 2, axis=0)
        rsq = tt - np.einsum("im,im->m", coef.conj(), rhs).real - ridge * energy
        rel = np.sqrt(np.maximum(rsq[live], 0.0) / tt[live])
        quality[sig] = (float(np.max(rel, initial=0.0)), float(np.max(energy)))
    return out, quality


def interpolate_missing(
    data,
    mask: SamplingMask,
    filters: Mapping[str, np.ndarray],
    L: int,
    P: int,
) -> MultiKSignal:
    """Impute every missing sample from acquired neighbors in one pass.

    Missing samples are grouped by local pattern signature
    (:func:`missing_patterns` with the fit's ``L`` and ``P``, the grouping
    :func:`fit_interpolation_filters` made of the same mask); each
    group's ``[Q, Q, *W]`` tap array, as :func:`fit_interpolation_filters`
    returns it, supplies ``x_m[n] = sum_{(q,k) != (m,0)} h[m, q, k]
    x_q[n-k]`` for the whole group at once.  The anchor taps ``h[m, m,
    k=0]`` are not read.  Acquired samples pass through untouched, and so
    do missing samples whose signature has no filter in ``filters``.

    Raises:
        ValueError: a tap array is not ``[Q, Q, *W]`` for the data's
            ``Q`` channels and ``W = L + P + 1`` per axis.
        UncoveredPatternError: a filter has a nonzero tap on an
            unacquired offset of its pattern.
    """
    ms = _as_multi(data)
    L, P = _window(L, P)
    stacked = ms.values
    out = stacked.copy()
    if _shared_acquired(mask, ms).all():
        return MultiKSignal.from_array(ms.grid, out)

    groups = missing_patterns(mask, L, P)

    dims = ms.grid.dims
    q_count = ms.q_count
    shape = (q_count, q_count) + (L + P + 1,) * dims
    # Window j of the padded data at position p holds x[p - P + j], which
    # tap k = L + P - j (the flipped tap array) multiplies.
    padded = np.pad(stacked, [(0, 0)] + [(P, L)] * dims)
    windows = np.lib.stride_tricks.sliding_window_view(
        padded, (L + P + 1,) * dims, axis=tuple(range(1, dims + 1))
    )
    # [*N, Q, *W]: a group's gather is one C-ordered [count, Q·ΠW] block.
    windows = np.moveaxis(windows, 0, dims)
    anchors = (np.arange(q_count), np.arange(q_count)) + (L,) * dims
    for sig, pos in groups.items():
        if sig not in filters:
            continue
        # taps[m, q] is channel q of the filter anchored at m; only the
        # anchor's own k = 0 tap may sit on an unacquired offset.
        taps = np.array(filters[sig], dtype=np.complex128)
        if taps.shape != shape:
            raise ValueError(f"filters for pattern {sig} have shape {taps.shape}, expected {shape}")
        taps[anchors] = 0.0
        if np.any((taps != 0) & ~_source_taps(sig).reshape(shape[2:])):
            raise UncoveredPatternError(
                f"no filter covers local pattern(s): {sig} (tap on unacquired offset)"
            )
        taps = np.flip(taps, axis=tuple(range(2, dims + 2))).reshape(q_count, -1)
        win = windows[tuple(pos.T)].reshape(len(pos), -1)
        out[(slice(None),) + tuple(pos.T)] = taps @ win.T
    return MultiKSignal.from_array(ms.grid, out)


@dataclass(frozen=True, eq=False)
class GramOperator:
    """Hermitian tap-domain energy operator of a phantom."""

    matrix: np.ndarray
    L: int
    P: int


def _squared_boxcar_phantom(phantom: Phantom) -> Phantom:
    """Primitive list representing ``|rho(x)|^2`` for interval phantoms."""
    for p in phantom.primitives:
        if p.kind == "point":
            raise ValueError("point primitives have no square-integrable profile")
        if p.kind != "boxcar":
            raise ValueError("closed-form squared magnitude needs boxcar primitives")
    pieces = []
    for pj in phantom.primitives:
        for pl in phantom.primitives:
            lo = max(pj.center[0] - pj.extent[0], pl.center[0] - pl.extent[0])
            hi = min(pj.center[0] + pj.extent[0], pl.center[0] + pl.extent[0])
            if hi - lo <= 0:
                continue
            amp = pj.amplitude * np.conj(pl.amplitude)
            pieces.append(
                _ph.Primitive("boxcar", ((lo + hi) / 2,), ((hi - lo) / 2,), amp)
            )
    if not pieces:
        raise ValueError("phantom has identically zero squared magnitude")
    return Phantom(tuple(pieces), phantom.fov)


def gram_operator(phantom: Phantom, L: int, P: int) -> GramOperator:
    """Closed-form ``G[k, n] = g[n - k]`` for an interval phantom, 1D.

    ``g[m] = B integral |rho(x)|^2 exp(+i 2 pi x m / B) dx`` is evaluated
    exactly by squaring the interval decomposition (pairwise overlaps are
    intervals again).  ``h^H G h`` is the response energy of any tap
    vector over every index, ``B integral |rho(x) H(x)|^2 dx``.
    """
    if phantom.dims != 1:
        raise ValueError("gram_operator is 1D only")
    L, P = _window(L, P)
    sq = _squared_boxcar_phantom(phantom)
    width = L + P + 1
    b = phantom.fov[0]
    m = np.arange(-(width - 1), width)
    g = b * samples_at(sq, (-m,))
    idx = np.subtract.outer(np.arange(width), np.arange(width))  # k - n
    G = g[(width - 1) - idx]  # g[n - k]
    return GramOperator(G, L, P)


def smallest_eigensequences(gram: GramOperator, count: int) -> FilterBank:
    """Unit-norm tap sequences spanning the least spatial energy.

    Eigenvectors of the Gram operator for the ``count`` smallest
    eigenvalues, each phase-normalized so its first nonzero component is
    positive real.  Residuals are the eigenvalues, ascending: response
    energies over every index, which an identity check's lhs approaches.
    """
    width = gram.L + gram.P + 1
    if not 1 <= count <= width:
        raise ValueError(f"count must lie in [1, {width}]")
    vals, vecs = np.linalg.eigh(gram.matrix)
    v = vecs[:, :count].T
    mag = np.abs(v)
    lead = v[np.arange(count), np.argmax(mag > 1e-12 * mag.max(axis=1, keepdims=True), axis=1)]
    taps = v * (np.abs(lead) / lead)[:, None]
    return FilterBank(taps[:, None], gram.L, gram.P, vals[:count])


@dataclass(frozen=True)
class IdentityCheck:
    """Both sides of a sample-domain/spatial-domain energy identity."""

    lhs: float
    rhs: float
    tail_bound: float


def _decay_constant(phantom: Phantom) -> float:
    """C with |rho[n]| <= C / |n| for every n != 0."""
    c = 0.0
    for p in phantom.primitives:
        b = phantom.fov[0]
        if p.kind == "boxcar":
            c += abs(p.amplitude) * b / np.pi
        elif p.kind == "ellipse":
            c += 0.6 * abs(p.amplitude) * b  # |J1| <= 0.6 everywhere
        else:
            raise ValueError("tail bound needs bounded primitives (no points)")
    return c


def _tail(c_tot: float, kmax: int, valid: KGrid) -> float:
    """Bound on the response energy that a filter's 1D valid range
    ``valid`` (:meth:`KGrid.valid_for`) leaves out, for a response with
    ``|r[n]| <= c_tot / (|n| - kmax)``; inf unless the range reaches past
    ``kmax`` on both sides."""
    lo_v, hi_v = valid.n_min[0], valid.n_max[0]
    if hi_v - kmax < 1 or -lo_v - kmax < 1:
        return float(np.inf)
    return c_tot**2 * (1.0 / (hi_v - kmax) + 1.0 / (-lo_v - kmax))


# Indices per chunk of the sample-side energy sum, bounding its memory.
# Theorem 1 on 2^20 points (9 taps) on a 2-vCPU Xeon VM, median time and
# traced peak per chunk: 2^12 38 ms 0.6 MiB; 2^13 32 ms 0.7 MiB; 2^14 33 ms
# 1.4 MiB; 2^15 47 ms 2.8 MiB; 2^16 48 ms 5.5 MiB; 2^18 51 ms 22 MiB; 2^20
# 79 ms 72 MiB.  From 2^15 on a chunk's arrays come back as fresh pages:
# a check took about 9,000 minor page faults there, and 300 at 2^14.  The
# lhs moves by < 1e-14 relative up to 2^17 and by 1e-13 at 2^20.
_CHUNK = 1 << 14


def _lhs_energy(sample_fns, taps, L: int, P: int, grid: KGrid) -> float:
    """Sum of |summed filter responses|^2 over the valid range, in chunks.

    ``sample_fns[j]`` maps a consecutive index array to closed-form
    samples convolved with the tap array ``taps[j]`` on ``[-L, P]``.  The
    samples enter unchanged.  Each response is four real convolutions of
    their real and imaginary parts, and each chunk's energy one ``vdot``,
    so the sum differs from that of the complex convolution by round-off
    alone: 5.7e-16 relative on the benchmark's theorem-1 check.
    """
    valid = grid.valid_for(L, P)
    lo, hi = valid.n_min[0], valid.n_max[0]
    total = 0.0
    start = lo
    while start <= hi:
        stop = min(start + _CHUNK - 1, hi)
        n_ext = np.arange(start - P, stop + L + 1)
        resp = np.zeros(stop - start + 1, dtype=np.complex128)
        for fn, t in zip(sample_fns, taps):
            x = fn(n_ext)
            resp.real += np.convolve(x.real, t.real, mode="valid")
            resp.real -= np.convolve(x.imag, t.imag, mode="valid")
            resp.imag += np.convolve(x.real, t.imag, mode="valid")
            resp.imag += np.convolve(x.imag, t.real, mode="valid")
        total += float(np.vdot(resp, resp).real)
        start = stop + 1
    return total


def _energy_identity(
    sample_fns, profiles, taps, L: int, P: int, phantoms, grid: KGrid,
    c_tot: float, kmax: int,
) -> IdentityCheck:
    """Both sides of ``sum_n |sum_j (h_j * x_j)[n]|^2 = B integral |sum_j H_j u_j|^2``.

    ``sample_fns[j]`` maps consecutive indices to the closed-form samples
    of the profile ``u_j = profiles[j](x, mid)``, filtered by ``taps[j]`` on
    ``[-L, P]``.  lhs sums the grid's valid range; rhs integrates over
    ``[-B/2, B/2]`` split at the phantoms' support edges; the tail bound is
    :func:`_tail` for responses with ``|r[n]| <= c_tot / (|n| - kmax)``.
    """
    for p in phantoms:
        _ph._check_fov(p, grid)
    b = phantoms[0].fov[0]
    lhs = _lhs_energy(sample_fns, taps, L, P, grid)

    k = np.arange(-L, P + 1)
    edges = merge_edges([e for p in phantoms for e in p.support_edges()], -b / 2, b / 2)

    def integrand(x, mid):
        basis = np.exp(2j * np.pi * np.multiply.outer(x, k) / b)
        return np.abs(sum((basis @ t) * u(x, mid) for t, u in zip(taps, profiles))) ** 2

    rhs = b * float(piecewise_quad(integrand, edges))
    return IdentityCheck(lhs, rhs, _tail(c_tot, kmax, grid.valid_for(L, P)))


def check_annihilation_identity(
    phantom: Phantom,
    filt: Filter,
    grid: KGrid,
) -> IdentityCheck:
    """Compare truncated response energy with the spatial energy integral.

    lhs sums ``|sum_k h[k] rho[n-k]|^2`` over every valid ``n`` in the
    grid; rhs integrates ``B |rho(x) H(x)|^2`` by edge-aligned quadrature
    with ``H(x) = sum_k h[k] exp(+i 2 pi k x / B)``, so both sides equal
    the response energy over every ``n`` up to what the grid leaves out.
    The reported tail bound dominates that part of the infinite sum.
    """
    if phantom.dims != 1 or grid.dims != 1 or filt.dims != 1:
        raise ValueError("identity check is 1D only")
    c_tot = float(np.sum(np.abs(filt.taps))) * _decay_constant(phantom)
    return _energy_identity(
        [lambda n: samples_at(phantom, (n,))],
        [lambda x, mid: _ph.spatial_profile(phantom, x, mid)],
        [filt.taps], filt.L, filt.P, (phantom,), grid,
        c_tot, max(filt.L, filt.P),
    )


def bank_to_json(bank: FilterBank) -> dict:
    """The ``.filters.json`` document: per filter its residual, anchor and
    taps, a list of ``[re, im]`` pairs per channel in row-major order."""
    pairs = bank.taps.view(np.float64).reshape(bank.taps.shape[:2] + (-1, 2)).tolist()
    return {
        "version": 1,
        "kind": "filterbank",
        "dims": bank.taps.ndim - 2,
        "L": bank.L,
        "P": bank.P,
        "q_count": bank.q_count,
        "filters": [
            {"residual": r, "anchor": a, "taps": t}
            for t, r, a in zip(pairs, bank.residuals, bank.anchors)
        ],
    }


def bank_from_json(doc: dict) -> FilterBank:
    """The bank of a :func:`bank_to_json` document; ``ValueError`` if it is malformed."""
    (L, P), dims = _window(doc["L"], doc["P"]), _integer("dims", doc["dims"])
    entries = doc["filters"]
    pairs = np.array([e["taps"] for e in entries], dtype=np.float64)
    width = L + P + 1
    if pairs.ndim != 4 or pairs.shape[2:] != (width**dims, 2):
        raise ValueError(f"tap pairs of shape {pairs.shape} do not fit [-{L}, {P}] in {dims}D")
    return FilterBank(
        pairs.view(np.complex128).reshape(pairs.shape[:2] + (width,) * dims), L, P,
        [e["residual"] for e in entries], [e.get("anchor") for e in entries],
    )
