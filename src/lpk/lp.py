"""Fitting and applying linear-prediction relations to Fourier samples.

The central object is the calibration matrix: one row per window position
``n`` whose window ``[n - P, n + L]`` fits inside the calibration region,
one column per (channel, tap) pair, entry ``x_q[n - k]``.  A stacked
filter dotted with a row gives the joint prediction residual at that
position, so least-squares fits, pattern-aware interpolation kernels, and
nullspace filter banks are all small dense problems over this matrix.

The Gram route works on the analytic scene instead of its samples: for a
phantom made of intervals, ``g[m] = (1/B^2) integral |rho(x)|^2
exp(+i 2 pi x m / B) dx`` has a closed form, the Hermitian matrix
``G[k, n] = g[n - k]`` expresses the spatial energy ``(1/B) integral
|rho h|^2`` of any tap sequence as ``(1/B) h^H G h``, and its smallest
eigenvectors are the best-annihilating unit-norm sequences.

Pattern-aware interpolation (one kernel per local sampling pattern, as in
GRAPPA) solves and checks each pattern's filters as one ``[Q, Q, *W]``
tap array; the :class:`~lpk.core.Filter` objects it returns are
read-only views of that array, so the per-object checks are not repeated
``Q * Q`` times per pattern.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import (
    Filter,
    GridMismatchError,
    KGrid,
    KSignal,
    MultiFilter,
    MultiKSignal,
    SamplingMask,
    _axes_int,
    _normalize_calib,
    _unchecked,
)
from .phantom import Phantom, samples_at
from .quadrature import merge_edges, piecewise_quad
from . import phantom as _ph


class SingularFitError(ValueError):
    """Normal equations are singular and no ridge was allowed."""


class UncoveredPatternError(ValueError):
    """A missing sample's local pattern has no filter in the supplied map."""

    def __init__(self, signatures):
        self.signatures = tuple(sorted(signatures))
        super().__init__(f"no filter covers local pattern(s): {', '.join(self.signatures)}")


def _as_multi(data) -> MultiKSignal:
    if isinstance(data, KSignal):
        return MultiKSignal((data,))
    if isinstance(data, MultiKSignal):
        return data
    raise TypeError("expected KSignal or MultiKSignal")


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

    def col_keys(self) -> list[tuple[int, tuple[int, ...]]]:
        ks = [np.arange(-self.L, self.P + 1)] * self.dims
        taps = [tuple(int(v) for v in t) for t in np.stack(np.meshgrid(*ks, indexing="ij"), -1).reshape(-1, self.dims)]
        return [(q, k) for q in range(self.q_count) for k in taps]

    def row_index(self) -> np.ndarray:
        """(rows, dims) array of window positions n, row-major ascending."""
        axes = [
            np.arange(lo + self.P, hi - self.L + 1)
            for (lo, hi) in self.calib
        ]
        return np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, self.dims)


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
    if L < 0 or P < 0:
        raise ValueError("L and P must be nonnegative")
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
    region = ms.stack()[(slice(None),) + tuple(
        slice(lo - glo, hi - glo + 1) for (lo, hi), glo in zip(calib, ms.grid.n_min)
    )]
    return CalibMatrix(_window_rows(region, L, P), ms.grid, calib, L, P, ms.q_count)


def _ridge_solve(A: np.ndarray, y: np.ndarray, ridge: float | None):
    """Least-squares solve with optional ridge; errors on singular + ridge 0."""
    if A.shape[1] == 0:
        return np.zeros(0, dtype=np.complex128), float(np.linalg.norm(y))
    gram = A.conj().T @ A
    if ridge is None:
        ridge = 1e-9 * float(np.max(gram.diagonal().real)) if gram.size else 0.0
    if ridge < 0:
        raise ValueError("ridge must be nonnegative")
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


def _pattern_filters(taps: np.ndarray, L: int, P: int) -> tuple[MultiFilter, ...]:
    """The filters of one pattern's ``[Q, Q, *W]`` taps, ``[m]`` anchored
    at channel ``m`` (its own ``k = 0`` tap is -1).

    Makes the checks :class:`Filter` makes once for the whole array and
    builds the objects around read-only views of it.
    """
    q_count = taps.shape[0]
    if not np.isfinite(taps.view(np.float64)).all():
        raise ValueError("taps contain non-finite entries")
    if not taps.reshape(q_count, q_count, -1).any(axis=2).all():
        raise ValueError("at least one tap must be nonzero")
    taps.setflags(write=False)
    return tuple(
        _unchecked(MultiFilter, filters=tuple(
            _unchecked(Filter, taps=t, L=L, P=P, anchor_fixed=(q == m))
            for q, t in enumerate(taps[m])
        ))
        for m in range(q_count)
    )


def fit_prediction_filter(
    calib: CalibMatrix,
    target: int = 0,
    zeroed: Iterable = (),
    ridge: float | None = None,
) -> tuple[MultiFilter, float]:
    """Fit the anchored prediction relation for one target channel.

    Solves ``min_a || A_free a - y ||^2 (+ ridge ||a||^2)`` where ``y`` is
    the target channel's ``k = 0`` column and ``A_free`` holds every
    column not zeroed out, then packs the coefficients into a
    :class:`MultiFilter` with the target tap fixed at -1.

    Args:
        calib: assembled calibration matrix.
        target: channel index whose ``k = 0`` sample is predicted.
        zeroed: ``(q, k)`` pairs forced to zero (taps on unacquired
            offsets, for pattern-aware fits).
        ridge: Tikhonov weight; None picks ``1e-9 *`` the largest
            normal-equation diagonal, 0 demands an exact least-squares
            solve and raises :class:`SingularFitError` if rank-deficient.

    Returns:
        ``(filter, residual)`` with residual the RMS prediction error
        over the calibration rows.
    """
    if not 0 <= target < calib.q_count:
        raise ValueError(f"target channel {target} out of range")
    tgt_col = calib.col_index(target, (0,) * calib.dims)
    dead = {tgt_col}
    for q, k in zeroed:
        c = calib.col_index(q, k)
        if c == tgt_col:
            raise ValueError("cannot zero the target tap")
        dead.add(c)
    free = [j for j in range(calib.matrix.shape[1]) if j not in dead]
    y = calib.matrix[:, tgt_col]
    coef, resid = _ridge_solve(calib.matrix[:, free], y, ridge)
    taps = np.zeros(calib.matrix.shape[1], dtype=np.complex128)
    taps[free] = coef
    taps[tgt_col] = -1.0
    mf = MultiFilter(tuple(
        Filter(t, calib.L, calib.P, anchor_fixed=(q == target))
        for q, t in enumerate(taps.reshape((calib.q_count,) + calib.tap_shape))
    ))
    return mf, resid / np.sqrt(calib.rows)


@dataclass(frozen=True, eq=False)
class FilterBank:
    """Joint filters with their calibration residuals; the nullspace
    producers return them ascending, separators come in slice order."""

    filters: tuple[MultiFilter, ...]
    residuals: tuple[float, ...]

    def __post_init__(self):
        filts = tuple(self.filters)
        res = tuple(float(r) for r in self.residuals)
        if not filts:
            raise ValueError("bank needs at least one filter")
        if len(filts) != len(res):
            raise ValueError("one residual per filter required")
        f0 = filts[0]
        for f in filts[1:]:
            if (f.L, f.P, f.q_count, f.dims) != (f0.L, f0.P, f0.q_count, f0.dims):
                raise ValueError("bank filters must share shape and channel count")
        object.__setattr__(self, "filters", filts)
        object.__setattr__(self, "residuals", res)

    @property
    def L(self) -> int:
        return self.filters[0].L

    @property
    def P(self) -> int:
        return self.filters[0].P

    @property
    def q_count(self) -> int:
        return self.filters[0].q_count


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
    orthonormal by construction, residuals ascending.
    """
    cm = data if isinstance(data, CalibMatrix) else build_calib_matrix(data, calib, L, P)
    _u, s, vh = np.linalg.svd(cm.matrix, full_matrices=True)
    n_cols = cm.matrix.shape[1]
    s_full = np.concatenate([s, np.zeros(n_cols - len(s))])
    keep = np.flatnonzero(s_full <= tau * (s_full[0] if len(s_full) else 0.0))
    if keep.size == 0:
        keep = np.array([n_cols - 1])
    order = keep[np.argsort(s_full[keep])]
    if limit is not None:
        order = order[:limit]
    filters = []
    residuals = []
    for j in order:
        vec = np.conj(vh[j])
        taps = vec.reshape((cm.q_count,) + cm.tap_shape)
        filters.append(MultiFilter(tuple(Filter(t, cm.L, cm.P) for t in taps)))
        residuals.append(float(s_full[j]) / np.sqrt(cm.rows))
    return FilterBank(tuple(filters), tuple(residuals))


def pattern_signature(mask: SamplingMask, n, L: int, P: int) -> str:
    """Acquired/missing bit pattern of the window ``[n - P, n + L]``.

    One character per window offset in ascending index order (row-major
    across axes in 2D); offsets outside the grid read as ``0``.
    """
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


def missing_patterns(mask: SamplingMask, L: int, P: int) -> dict[str, np.ndarray]:
    """Missing samples grouped by local pattern, in sorted signature order.

    Maps each :func:`pattern_signature` to the ``(count, dims)`` array
    positions of the missing samples whose window has it.
    """
    if L < 0 or P < 0:
        raise ValueError("L and P must be nonnegative")
    missing = mask.missing_positions()
    if missing.size == 0:
        return {}
    dims = mask.grid.dims
    padded = np.pad(mask.acquired, [(P, L)] * dims)
    windows = np.lib.stride_tricks.sliding_window_view(padded, (L + P + 1,) * dims)
    bits = windows[tuple(missing.T)].reshape(len(missing), -1)
    # Big-endian packed rows sort bytewise like the 0/1 strings they
    # spell, so groups come out sorted.
    packed = np.packbits(bits, axis=1)
    _, first, inverse, counts = np.unique(
        packed, axis=0, return_index=True, return_inverse=True, return_counts=True
    )
    # A stable sort keeps each group's positions in ascending order.
    order = np.argsort(inverse.reshape(-1), kind="stable")
    members = np.split(missing[order], np.cumsum(counts)[:-1])
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
    return_quality: bool = False,
):
    """Fit one anchored filter per channel for each missing-sample pattern.

    Missing samples are grouped by the signature of their local window
    (:func:`missing_patterns`); each distinct pattern gets one fit.  All
    fits share one calibration Gram matrix.  A missing sample's own
    ``k = 0`` tap reads the sample itself, so it is never a source, and
    every channel's fit uses the same source columns: the pattern's
    acquired offsets in every channel.  Each pattern therefore costs one
    factorization of that Gram block, shared by every channel, with one
    right-hand side per channel's ``k = 0`` column.  Requires
    ``mask.calib``.

    Each pattern's filters are solved and checked as one ``[Q, Q, *W]``
    tap array, whose ``[m]`` is the filter anchored at channel ``m``; the
    returned :class:`Filter` objects are read-only views of it.

    With ``return_quality`` also returns a per-signature ``(rel_resid,
    coef_energy)`` map: the worst channel's relative calibration residual
    and squared coefficient norm (the noise-amplification factor of one
    imputation).
    """
    ms = _as_multi(data)
    if ms.grid != mask.grid:
        raise GridMismatchError("data and mask grids differ")
    if mask.calib is None:
        raise ValueError("pattern fitting requires a calibration region")
    cm = build_calib_matrix(ms, mask.calib, L, P)
    gram = cm.matrix.conj().T @ cm.matrix
    if ridge is None:
        ridge = 1e-9 * float(np.max(gram.diagonal().real))
    q_count, per = cm.q_count, cm.taps_per_channel
    channels = np.arange(q_count)
    tgts = channels * per + cm.col_index(0, (0,) * cm.dims)
    tt = gram[tgts, tgts].real
    live = tt > 0

    out: dict[str, tuple[MultiFilter, ...]] = {}
    quality: dict[str, tuple[float, float]] = {}
    for sig in missing_patterns(mask, L, P):
        src_flat = np.flatnonzero(_source_taps(sig))
        if not src_flat.size:
            continue  # fully missing neighborhood admits no filter
        src_cols = (channels[:, None] * per + src_flat).ravel()
        sub = gram[np.ix_(src_cols, src_cols)]
        rhs = gram[np.ix_(src_cols, tgts)]
        coef = np.linalg.solve(sub + ridge * np.eye(len(src_cols)), rhs)
        taps = np.zeros((q_count, q_count * per), dtype=np.complex128)
        taps[:, src_cols] = coef.T
        taps[channels, tgts] = -1.0
        out[sig] = _pattern_filters(taps.reshape((q_count, q_count) + cm.tap_shape), cm.L, cm.P)
        if return_quality:
            # ||A_src c_m - a_m||^2 per channel m, expanded through the Gram.
            rsq = tt + np.einsum("im,im->m", coef.conj(), sub @ coef - 2 * rhs).real
            rel = np.sqrt(np.maximum(rsq[live], 0.0) / tt[live])
            energy = np.sum(np.abs(coef) ** 2, axis=0)
            quality[sig] = (float(np.max(rel, initial=0.0)), float(np.max(energy)))
    if return_quality:
        return out, quality
    return out


def interpolate_missing(
    data,
    mask: SamplingMask,
    filters: Mapping[str, Sequence[MultiFilter]],
    strict: bool = True,
) -> MultiKSignal:
    """Impute every missing sample from acquired neighbors in one pass.

    Missing samples are grouped by local pattern signature
    (:func:`missing_patterns`); each group's filters, one anchored at
    each channel, supply ``x_m[n] = sum_{(q,k) != (m,0)} h_q[k]
    x_q[n-k]`` for the whole group at once.  Acquired samples pass
    through untouched.  With ``strict=False`` missing samples whose
    signature has no filter keep their input values instead of raising.

    Each pattern's filters are applied as one ``[Q, Q, *W]`` tap array,
    ``[m]`` the filter anchored at channel ``m``.

    Raises:
        UncoveredPatternError: in strict mode, a missing index's
            signature has no filter; in any mode, a matched filter has a
            nonzero tap on an unacquired offset.
    """
    ms = _as_multi(data)
    if ms.grid != mask.grid:
        raise GridMismatchError("data and mask grids differ")
    stacked = ms.stack()
    out = stacked.copy()
    if mask.acquired.all():
        return MultiKSignal.from_array(ms.grid, out)

    first = next((mf for mfs in filters.values() for mf in mfs), None)
    if first is None:
        if strict:
            raise UncoveredPatternError(["<empty filter map>"])
        return MultiKSignal.from_array(ms.grid, out)
    L, P = first.L, first.P

    groups = missing_patterns(mask, L, P)
    uncovered = [sig for sig in groups if sig not in filters]
    if uncovered and strict:
        raise UncoveredPatternError(uncovered)

    dims = ms.grid.dims
    q_count = ms.q_count
    # Window j of the padded data at position p holds x[p - P + j], which
    # tap k = L + P - j (the flipped tap array) multiplies.
    padded = np.pad(stacked, [(0, 0)] + [(P, L)] * dims)
    windows = np.lib.stride_tricks.sliding_window_view(
        padded, (L + P + 1,) * dims, axis=tuple(range(1, dims + 1))
    )
    anchors = (np.arange(q_count), np.arange(q_count)) + (L,) * dims
    for sig, pos in groups.items():
        if sig not in filters:
            continue
        by_anchor = {}
        for mf in filters[sig]:
            if mf.anchor_channel is None:
                raise ValueError("interpolation filters must carry an anchor channel")
            by_anchor[mf.anchor_channel] = mf
        for m in range(q_count):
            if m not in by_anchor:
                raise UncoveredPatternError([f"{sig} (channel {m})"])
        # taps[m, q] is channel q of the filter anchored at m; only the
        # anchor's own k = 0 tap may sit on an unacquired offset.
        taps = np.stack([by_anchor[m].stack() for m in range(q_count)])
        taps[anchors] = 0.0
        if np.any((taps != 0) & ~_source_taps(sig).reshape(taps.shape[2:])):
            raise UncoveredPatternError([f"{sig} (tap on unacquired offset)"])
        taps = np.flip(taps, axis=tuple(range(2, dims + 2))).reshape(q_count, q_count, -1)
        at = (slice(None),) + tuple(pos.T)
        win = windows[at].reshape(q_count, len(pos), -1)
        out[at] = np.einsum("mqj,qcj->mc", taps, win)
    return MultiKSignal.from_array(ms.grid, out)


def extrapolate(seed: KSignal, coeffs: Filter, steps: int, direction: str = "+") -> KSignal:
    """Run the pure prediction recursion beyond the seed range, 1D.

    With anchored taps on ``[0, P]`` the recursion is
    ``x[n] = sum_{k=1..P} h[k] x[n-k]`` forward, or solved for the
    earliest term backward (which needs ``h[P] != 0``).

    Returns:
        The ``steps`` new samples on the adjacent index window.
    """
    if seed.grid.dims != 1:
        raise ValueError("extrapolate is 1D only")
    if coeffs.dims != 1 or coeffs.L != 0:
        raise ValueError("extrapolation filter must have L = 0")
    if not coeffs.anchor_fixed:
        raise ValueError("extrapolation filter must carry the anchor convention")
    if steps < 1:
        raise ValueError("steps must be positive")
    P = coeffs.P
    if seed.grid.size < P:
        raise ValueError(f"seed holds {seed.grid.size} samples, needs at least P = {P}")
    alpha = np.asarray(coeffs.taps[1:])  # h[1..P]
    fov = seed.grid.fov
    lo, hi = seed.grid.n_min[0], seed.grid.n_max[0]
    if direction == "+":
        buf = list(seed.values[len(seed.values) - P :]) if P else []
        new = []
        for _ in range(steps):
            val = sum(alpha[k - 1] * buf[-k] for k in range(1, P + 1)) if P else 0.0
            new.append(val)
            buf.append(val)
        return KSignal(KGrid.window((hi + 1,), (hi + steps,), fov), np.asarray(new, dtype=np.complex128))
    if direction != "-":
        raise ValueError("direction must be '+' or '-'")
    if P == 0 or coeffs.taps[P] == 0:
        raise ValueError("backward recursion needs a nonzero highest-order coefficient")
    buf = list(seed.values[:P])
    new = []
    for _ in range(steps):
        # Solve x[m] from x[m+P] = sum_{k=1..P} h[k] x[m+P-k].
        acc = buf[-1]
        for k in range(1, P):
            acc = acc - alpha[k - 1] * buf[P - 1 - k]
        val = acc / alpha[P - 1]
        new.insert(0, val)
        buf = [val] + buf[:-1]
    return KSignal(
        KGrid.window((lo - steps,), (lo - 1,), fov), np.asarray(new, dtype=np.complex128)
    )


def highpass_weight(data: KSignal) -> KSignal:
    """Multiply samples by ``i 2 pi n / B`` (spatial-derivative weighting)."""
    if data.grid.dims != 1:
        raise ValueError("highpass weighting is 1D only")
    n = data.grid.index_vectors()[0]
    w = 1j * 2.0 * np.pi * n / data.grid.fov[0]
    return KSignal(data.grid, data.values * w)


def highpass_unweight(data: KSignal, *, dc: complex) -> KSignal:
    """Invert :func:`highpass_weight`; the destroyed ``n = 0`` value must be supplied."""
    if data.grid.dims != 1:
        raise ValueError("highpass weighting is 1D only")
    n = data.grid.index_vectors()[0]
    w = 1j * 2.0 * np.pi * n / data.grid.fov[0]
    out = np.empty_like(data.values)
    nz = n != 0
    out[nz] = data.values[nz] / w[nz]
    if np.any(~nz):
        out[~nz] = dc
    return KSignal(data.grid, out)


@dataclass(frozen=True, eq=False)
class GramOperator:
    """Hermitian tap-domain energy operator of a phantom."""

    matrix: np.ndarray
    L: int
    P: int
    fov: float


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

    ``g[m] = (1/B^2) integral |rho(x)|^2 exp(+i 2 pi x m / B) dx`` is
    evaluated exactly by squaring the interval decomposition (pairwise
    overlaps are intervals again).  ``(1/B) h^H G h`` equals the spatial
    energy ``(1/B) integral |rho(x) h(x)|^2 dx`` of any tap vector.
    """
    if phantom.dims != 1:
        raise ValueError("gram_operator is 1D only")
    if L < 0 or P < 0:
        raise ValueError("L and P must be nonnegative")
    sq = _squared_boxcar_phantom(phantom)
    width = L + P + 1
    b = phantom.fov[0]
    m = np.arange(-(width - 1), width)
    g = samples_at(sq, (-m,)) / b**2
    idx = np.subtract.outer(np.arange(width), np.arange(width))  # k - n
    G = g[(width - 1) - idx]  # g[n - k]
    return GramOperator(G, L, P, b)


def smallest_eigensequences(gram: GramOperator, count: int) -> FilterBank:
    """Unit-norm tap sequences spanning the least spatial energy.

    Eigenvectors of the Gram operator for the ``count`` smallest
    eigenvalues, each phase-normalized so its first nonzero component is
    positive real; residuals are the eigenvalues themselves, ascending.
    """
    width = gram.L + gram.P + 1
    if not 1 <= count <= width:
        raise ValueError(f"count must lie in [1, {width}]")
    vals, vecs = np.linalg.eigh(gram.matrix)
    filters = []
    residuals = []
    for j in range(count):
        v = vecs[:, j]
        nz = np.flatnonzero(np.abs(v) > 1e-12 * np.abs(v).max())
        lead = v[nz[0]]
        v = v * (np.abs(lead) / lead)
        filters.append(MultiFilter((Filter(v, gram.L, gram.P),)))
        residuals.append(float(vals[j]))
    return FilterBank(tuple(filters), tuple(residuals))


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


def _lhs_energy(sample_fns, filters, grid: KGrid, chunk: int = 1 << 20) -> float:
    """Sum of |summed filter responses|^2 over the valid range, in chunks.

    ``sample_fns[j]`` maps a consecutive index array to closed-form
    samples convolved with ``filters[j]``; all filters share (L, P).
    """
    L, P = filters[0].L, filters[0].P
    lo, hi = grid.n_min[0] + P, grid.n_max[0] - L
    if lo > hi:
        raise ValueError("grid too small for the filter")
    total = 0.0
    start = lo
    while start <= hi:
        stop = min(start + chunk - 1, hi)
        n_ext = np.arange(start - P, stop + L + 1)
        resp = None
        for fn, filt in zip(sample_fns, filters):
            r = np.convolve(fn(n_ext), filt.taps, mode="valid")
            resp = r if resp is None else resp + r
        total += float(np.sum(np.abs(resp) ** 2))
        start = stop + 1
    return total


def check_annihilation_identity(
    phantom: Phantom,
    filt: Filter,
    grid: KGrid,
    quadrature_points: int = 4096,
) -> IdentityCheck:
    """Compare truncated response energy with the spatial energy integral.

    lhs sums ``|sum_k h[k] rho[n-k]|^2`` over every valid ``n`` in the
    grid; rhs integrates ``(1/B) |rho(x) h(x)|^2`` by edge-aligned
    quadrature with ``h(x) = (1/B) sum_k h[k] exp(+i 2 pi k x / B)``.
    The reported tail bound dominates the part of the infinite sum the
    grid truncates away.
    """
    if phantom.dims != 1 or grid.dims != 1 or filt.dims != 1:
        raise ValueError("identity check is 1D only")
    b = phantom.fov[0]
    lhs = _lhs_energy([lambda n: samples_at(phantom, (n,))], [filt], grid)

    k = np.arange(-filt.L, filt.P + 1)
    edges = merge_edges(phantom.support_edges(), -b / 2, b / 2)

    def integrand(x, mid):
        rho = _ph.spatial_profile(phantom, x, mid)
        h = (np.exp(2j * np.pi * np.multiply.outer(x, k) / b) @ filt.taps) / b
        return np.abs(rho * h) ** 2

    rhs = float(piecewise_quad(integrand, edges, points=quadrature_points)) / b

    c = _decay_constant(phantom)
    norm1 = float(np.sum(np.abs(filt.taps)))
    kmax = max(filt.L, filt.P)
    lo_v, hi_v = grid.n_min[0] + filt.P, grid.n_max[0] - filt.L
    if hi_v - kmax < 1 or -lo_v - kmax < 1:
        tail = np.inf
    else:
        tail = (norm1 * c) ** 2 * (1.0 / (hi_v - kmax) + 1.0 / (-lo_v - kmax))
    return IdentityCheck(lhs, rhs, float(tail))


def bank_to_json(bank: FilterBank) -> dict:
    def tap_list(f: Filter):
        flat = f.taps.reshape(-1)
        return [[v.real, v.imag] for v in flat]

    return {
        "version": 1,
        "kind": "filterbank",
        "dims": bank.filters[0].dims,
        "L": bank.L,
        "P": bank.P,
        "q_count": bank.q_count,
        "filters": [
            {
                "residual": r,
                "anchor": mf.anchor_channel,
                "taps": [tap_list(f) for f in mf.filters],
            }
            for mf, r in zip(bank.filters, bank.residuals)
        ],
    }


def bank_from_json(doc: dict) -> FilterBank:
    L, P, dims = int(doc["L"]), int(doc["P"]), int(doc["dims"])
    width = L + P + 1
    shape = (width,) * dims
    filters = []
    for entry in doc["filters"]:
        chans = []
        for q, taps in enumerate(entry["taps"]):
            arr = np.asarray([complex(re, im) for re, im in taps]).reshape(shape)
            chans.append(Filter(arr, L, P, anchor_fixed=(q == entry.get("anchor"))))
        filters.append(MultiFilter(tuple(chans)))
    return FilterBank(tuple(filters), tuple(float(e["residual"]) for e in doc["filters"]))


def save_bank(path, bank: FilterBank) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(bank_to_json(bank), fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_bank(path) -> FilterBank:
    with open(path, "r", encoding="utf-8") as fh:
        return bank_from_json(json.load(fh))
