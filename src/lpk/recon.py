"""Recovering missing Fourier samples from linear-prediction structure.

Two complementary routes:

* Lift the samples into a window-structured matrix whose rank deficiency
  encodes the prediction relations, alternate between rank truncation and
  data consistency (``lowrank_complete``).  The truncation projects the
  rows onto the leading eigenvectors of the small Gram matrix ``CᴴC``
  (one column per channel tap), so no SVD of the tall lifted matrix is
  taken.  The sweep runs on ``[Q, *N]`` arrays: the window index and the
  per-sample cell count are built once per call, and each sweep is one
  gather through the index and one ``np.add.at`` scatter-add back over
  the count.  ``lift`` and ``StructuredMatrix.unlift`` are the same
  gather and scatter behind validated value types, for callers at the
  API edge and as the oracle the sweep is tested against; the first
  sweep goes through them.
* Fix a bank of annihilating filters and solve the quadratic problem
  "acquired samples stay put, total filter response energy is minimal"
  by conjugate gradients (``annihilation_recon``).  Each CG step applies
  the whole bank forward and back as one operator (``_BankOperator``)
  with exact valid-range responses and no wraparound.  It takes a stacked
  ``[F, Q, *W]`` tap array, and ``pf_recon`` and the slice separation of
  ``multi.sms_separate`` solve with it too.  It has two exact
  evaluations, chosen once per solve from the size of the lifted window
  matrix: small matrices take one window gather (the gather of ``lift``)
  and two GEMMs with the taps, whose cost is all arithmetic; large ones
  take cropped, zero-padded FFTs with the filter spectra computed once,
  whose cost grows only as ``N log N`` but carries a fixed overhead per
  call.  A solve that stops short of its tolerance says why in the
  report's ``notes``.

Both come back with a :class:`ReconReport` describing what the solver
did.  Conjugate-symmetry tricks (virtual conjugate channels, the
symmetric lifting variant) let the same machinery fill one-sided partial
coverage (``pf_recon``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.fft
import scipy.linalg

from .core import (
    GridMismatchError,
    KGrid,
    MultiKSignal,
    SamplingMask,
)
from .lp import (
    FilterBank,
    _as_multi,
    _checked_calib,
    _window_geometry,
    build_calib_matrix,  # noqa: F401  bench/layers.py wraps lpk.recon:build_calib_matrix
    nullspace_filter_bank,
)


@dataclass(frozen=True)
class ReconReport:
    """What a reconstruction run did and how it went."""

    method: str
    iterations: int
    converged: bool
    objective_trace: tuple[float, ...] = ()
    rank: int | None = None
    # Leading singular values of the last lifted matrix, taken as square
    # roots of its Gram eigenvalues: entries below about 1e-8 of the first
    # are round-off, not spectrum.
    spectrum_head: tuple[float, ...] = ()
    degenerate: bool = False
    conditioning: float | None = None
    notes: tuple[str, ...] = ()


def report_to_json(report: ReconReport) -> dict:
    return {
        "version": 1,
        "kind": "reconreport",
        "method": report.method,
        "iterations": report.iterations,
        "converged": report.converged,
        "objective_trace": list(report.objective_trace),
        "rank": report.rank,
        "spectrum_head": list(report.spectrum_head),
        "degenerate": report.degenerate,
        "conditioning": report.conditioning,
        "notes": list(report.notes),
    }


def report_from_json(doc: dict) -> ReconReport:
    return ReconReport(
        method=doc["method"],
        iterations=int(doc["iterations"]),
        converged=bool(doc["converged"]),
        objective_trace=tuple(float(v) for v in doc["objective_trace"]),
        rank=None if doc.get("rank") is None else int(doc["rank"]),
        spectrum_head=tuple(float(v) for v in doc.get("spectrum_head", ())),
        degenerate=bool(doc.get("degenerate", False)),
        conditioning=None if doc.get("conditioning") is None else float(doc["conditioning"]),
        notes=tuple(doc.get("notes", ())),
    )


def _reflect_values(arr: np.ndarray, grid: KGrid, fill=0):
    """out[..., n] = arr[..., -n] where -n lies in the grid, else fill.

    The grid spans the trailing axes; leading axes (channels) ride along.
    """
    out = np.full_like(arr, fill)
    src = []
    dst = []
    for lo, hi in zip(grid.n_min, grid.n_max):
        n = np.arange(lo, hi + 1)
        ok = (-n >= lo) & (-n <= hi)
        dst.append(np.flatnonzero(ok))
        src.append((-n[ok]) - lo)
    out[(Ellipsis,) + np.ix_(*dst)] = arr[(Ellipsis,) + np.ix_(*src)]
    return out


def _with_mirrors(x: np.ndarray, grid: KGrid) -> np.ndarray:
    """A ``[Q, *N]`` stack followed by its conjugate-mirrored channels."""
    return np.concatenate([x, _reflect_values(np.conj(x), grid)])


def unpaired_positions(grid: KGrid) -> np.ndarray:
    """Boolean array marking indices n whose mirror -n falls off the grid."""
    marks = np.zeros(grid.shape, dtype=bool)
    for ax, (lo, hi) in enumerate(zip(grid.n_min, grid.n_max)):
        n = np.arange(lo, hi + 1)
        bad = (-n < lo) | (-n > hi)
        shape = [1] * grid.dims
        shape[ax] = len(n)
        marks |= bad.reshape(shape)
    return marks


def virtual_conjugate(data) -> MultiKSignal:
    """Append the conjugate-mirrored copy of every channel.

    The mirror of channel ``q`` holds ``conj(x_q[-n])``; if an object has
    slowly varying phase those channels obey the same prediction
    relations as the originals and double the usable equations.  Indices
    whose mirror falls outside the grid are zero-filled with a warning.
    """
    ms = _as_multi(data)
    if np.any(unpaired_positions(ms.grid)):
        warnings.warn(
            "grid is asymmetric; unpaired edge indices of the conjugate copy are zero-filled",
            stacklevel=2,
        )
    return MultiKSignal.from_array(ms.grid, _with_mirrors(ms.stack(), ms.grid))


def reflect_mask(mask: SamplingMask) -> SamplingMask:
    """Mask of the conjugate-mirrored copy: acquired at n iff -n was acquired."""
    acq = _reflect_values(mask.acquired, mask.grid, fill=False)
    calib = None
    if mask.calib is not None:
        refl = tuple(
            (max(-hi, lo_g), min(-lo, hi_g))
            for (lo, hi), lo_g, hi_g in zip(mask.calib, mask.grid.n_min, mask.grid.n_max)
        )
        if all(lo <= hi for lo, hi in refl):
            sl = tuple(slice(lo - g, hi - g + 1) for (lo, hi), g in zip(refl, mask.grid.n_min))
            if bool(np.all(acq[sl])):
                calib = refl
    return SamplingMask(mask.grid, acq, calib)


def _check_lift(grid: KGrid, L: int, P: int, variant: str) -> None:
    """The checks :func:`lift` makes: a known variant, and room for at
    least two windows per axis."""
    if variant not in ("C", "S"):
        raise ValueError("variant must be 'C' or 'S'")
    _checked_calib(grid, None, L, P)


@dataclass(frozen=True, eq=False)
class StructuredMatrix:
    """Window-lifted matrix of a (possibly conjugate-augmented) signal set."""

    matrix: np.ndarray
    grid: KGrid
    L: int
    P: int
    q_count: int
    variant: str

    @property
    def taps_per_channel(self) -> int:
        return (self.L + self.P + 1) ** self.grid.dims

    def unlift(self) -> MultiKSignal:
        """Average every matrix cell back onto the sample it was read from.

        Exact inverse of :func:`lift` up to floating-point averaging; for
        the symmetric variant mirrored cells contribute through their
        conjugate at the reflected index.  The API-edge form of the
        array scatter that ``lowrank_complete`` sweeps with: one
        scatter-add, in window order, through the positions :func:`lift`
        reads, over the per-sample cell count.
        """
        index, count = _lift_geometry(self.grid, self.q_count, self.L, self.P, self.variant)
        acc = _average_back(self.matrix, self.grid, self.q_count, index, count, self.variant)
        return MultiKSignal.from_array(self.grid, acc)


def _lift_geometry(grid: KGrid, q_count: int, L: int, P: int, variant: str):
    """``(index, count)`` of the stack a variant lifts, ``[Q, *N]`` for
    ``"C"`` and the mirrored ``[2Q, *N]`` for ``"S"``.  ``index[v, c]`` is
    the flat position that column ``c`` of window row ``v`` reads, and
    ``count[n]`` the number of cells that average back onto sample ``n``,
    mirrored cells included."""
    blocks = q_count if variant == "C" else 2 * q_count
    starts, offsets, count = _window_geometry((blocks,) + grid.shape, L, P)
    if variant != "C":
        count = count + _reflect_values(count, grid)
    return np.add.outer(starts, offsets), count


def _gather(x: np.ndarray, grid: KGrid, index: np.ndarray, variant: str) -> np.ndarray:
    """The lifted matrix of a ``[Q, *N]`` stack: one gather through ``index``."""
    return (_with_mirrors(x, grid) if variant == "S" else x).reshape(-1)[index]


def _scatter_add(shape: tuple[int, ...], index: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """A zero complex stack of ``shape`` with every cell added at its flat
    position in ``index``, in the order of ``index``."""
    acc = np.zeros(shape, dtype=np.complex128)
    np.add.at(acc.reshape(-1), index.reshape(-1), cells.reshape(index.size))
    return acc


def _average_back(
    matrix: np.ndarray, grid: KGrid, q_count: int, index: np.ndarray, count: np.ndarray,
    variant: str,
) -> np.ndarray:
    """The ``[Q, *N]`` stack a lifted matrix averages back to (see
    :meth:`StructuredMatrix.unlift`)."""
    blocks = q_count if variant == "C" else 2 * q_count
    acc = _scatter_add((blocks,) + count.shape, index, matrix)
    if variant != "C":
        # Mirrored cells land, conjugated, on the reflected index.
        acc = acc[:q_count] + _reflect_values(np.conj(acc[q_count:]), grid)
    return acc / count


def lift(data, L: int, P: int, variant: str = "C") -> StructuredMatrix:
    """Arrange all prediction windows of the data as matrix rows.

    Row ``n`` (one per window position whose ``[n - P, n + L]`` block
    fits in the grid) holds ``x_q[n - k]`` across channel-major,
    ascending-``k`` columns; any filter annihilating the data is a
    nullspace vector of this matrix.  Variant ``"S"`` first appends the
    conjugate-mirrored channels so conjugate symmetry shows up as extra
    rank deficiency.  The API-edge form of the array gather that
    ``lowrank_complete`` sweeps with.
    """
    ms = _as_multi(data)
    _check_lift(ms.grid, L, P, variant)
    index, _ = _lift_geometry(ms.grid, ms.q_count, L, P, variant)
    matrix = _gather(ms.stack(), ms.grid, index, variant)
    return StructuredMatrix(matrix, ms.grid, L, P, ms.q_count, variant)


def _norm_masks(mask, q_count: int, grid: KGrid) -> list[SamplingMask]:
    masks = [mask] * q_count if isinstance(mask, SamplingMask) else list(mask)
    if len(masks) != q_count:
        raise ValueError(f"expected {q_count} masks, got {len(masks)}")
    for m in masks:
        if m.grid != grid:
            raise GridMismatchError("mask grid differs from data grid")
    return masks


def lowrank_complete(
    data,
    mask,
    L: int = 2,
    P: int = 2,
    rank: int | None = None,
    tau: float = 0.05,
    variant: str = "C",
    tol: float = 1e-9,
    max_iters: int = 100,
) -> tuple[MultiKSignal, ReconReport]:
    """Fill missing samples by alternating rank truncation and consistency.

    Each sweep lifts the current estimate to ``C``, truncates it to
    ``rank`` (chosen on the first sweep as the count of singular values
    above ``tau`` times the largest when not given), averages the matrix
    back to samples, and restores the acquired values.  Stops when the
    relative update falls below ``tol``.  The singular values are the
    square roots of the eigenvalues of the Hermitian Gram ``CᴴC``, and
    the truncation is ``(C V_r) V_rᴴ`` with ``V_r`` its leading
    eigenvectors, which equals ``U_r S_r V_rᴴ`` of the thin SVD.  With
    ``max_iters < 1`` no sweep runs and the zero-filled data come back;
    the variant and the window are checked against the grid either way.

    The sweeps run on arrays, through a window index and cell count built
    once per call; only the first goes through :func:`lift` and
    :meth:`StructuredMatrix.unlift`, which do the same gather and scatter,
    so every sweep gives bitwise what a sweep of public calls gives.

    Returns:
        ``(completed, report)``; the report carries the final leading
        spectrum, and its ``degenerate`` flag is set when the spectrum
        shows no clear gap at the chosen rank.  Squaring before the
        eigendecomposition leaves spectrum entries below about
        ``1e-8`` times the largest at round-off level.  A run stopped by
        ``max_iters`` says so in ``notes``, with its last relative change.
    """
    ms = _as_multi(data)
    grid, q_count = ms.grid, ms.q_count
    masks = _norm_masks(mask, q_count, grid)
    _check_lift(grid, L, P, variant)
    acq = np.array([m.acquired for m in masks])
    ref = ms.stack()
    x = np.where(acq, ref, 0.0)
    ref_acq = ref[acq]
    index, count = _lift_geometry(grid, q_count, L, P, variant)
    trace = []
    converged = False
    chosen = rank
    s_final = np.zeros(0)
    it = 0
    for it in range(1, max_iters + 1):
        # Sweep 1 goes through the public lift and unlift, which keeps
        # their benchmark spans measured; later sweeps do the same gather
        # and scatter on arrays.
        edge = it == 1
        if edge:
            c = lift(MultiKSignal.from_array(grid, x), L, P, variant).matrix
        else:
            c = _gather(x, grid, index, variant)
        lam, v = np.linalg.eigh(c.conj().T @ c)
        v = v[:, ::-1]
        s = np.sqrt(np.maximum(lam[::-1], 0.0))[: min(c.shape)]
        if chosen is None:
            chosen = max(1, int(np.sum(s > tau * s[0])))
            chosen = min(chosen, len(s))
        if not 1 <= chosen <= len(s):
            raise ValueError(f"rank must lie in [1, {len(s)}]")
        s_final = s
        vr = v[:, :chosen]
        # Rebinding frees C before the scatter.
        c = (c @ vr) @ vr.conj().T
        if edge:
            x_new = StructuredMatrix(c, grid, L, P, q_count, variant).unlift().stack()
        else:
            x_new = _average_back(c, grid, q_count, index, count, variant)
        x_new[acq] = ref_acq
        denom = max(float(np.linalg.norm(x)), np.finfo(float).tiny)
        change = float(np.linalg.norm(x_new - x)) / denom
        trace.append(change)
        x = x_new
        if change <= tol:
            converged = True
            break
    degenerate = bool(
        chosen is not None
        and chosen < len(s_final)
        and s_final[chosen] > 0.999 * s_final[chosen - 1]
    )
    report = ReconReport(
        method=f"lowrank-{variant}",
        iterations=it,
        converged=converged,
        objective_trace=tuple(trace),
        rank=chosen,
        spectrum_head=tuple(float(v) for v in s_final[: min(32, len(s_final))]),
        degenerate=degenerate,
        notes=() if converged or not trace else (
            f"lowrank stopped at the sweep cap ({max_iters}); "
            f"last relative change {trace[-1]:.3g} (tol {tol:.3g})",
        ),
    )
    return MultiKSignal.from_array(grid, x), report


# Largest lifted window matrix, ``V·Q·ΠW`` cells (valid windows times
# channel taps), that ``_BankOperator`` applies by window gather and
# GEMM; above it the FFT evaluation is cheaper.  Measured as one normal
# apply ``Aᴴ(A x)`` over the missing half of the samples, one BLAS
# thread, W = 5, F = Q, on a 2-vCPU x86-64 host (µs, window / FFT):
#
#   1D  Q=4   N=64       1,200 cells      37 /   120
#   1D  Q=4   N=512     10,160 cells     143 /   281
#   1D  Q=4   N=2048    40,880 cells     670 / 1,106
#   2D  Q=8   N=12²     12,800 cells     182 /   221
#   2D  Q=8   N=16²     28,800 cells     291 /   316
#   2D  Q=8   N=20²     51,200 cells     541 /   539
#   2D  Q=8   N=24²     80,000 cells     975 /   642
#   2D  Q=8   N=48²    387,200 cells   5,894 / 3,651
#   2D  Q=8   N=64²    720,000 cells  11,539 / 7,281
#
# The GEMMs cost ``F·V·Q·ΠW`` products per apply and the FFTs
# ``O(F·Q·ΠN log ΠN)``, but four FFT calls carry ~15-20 µs of fixed cost
# each, which small matrices never earn back.  Long 1D grids still
# favour the windows past the bound.
_WINDOW_CELLS = 2**15


class _BankOperator:
    """A stacked ``[F, Q, *W]`` tap array applied jointly as one linear map.

    The filter bank of ``annihilation_recon``, ``pf_recon`` and
    ``multi.sms_separate``.  ``W`` taps on every axis, ascending in ``k``;
    the operator reads only the width, since where ``k = 0`` sits only
    labels the valid range.
    ``forward`` takes a stacked signal ``x[Q, *N]`` to the per-filter joint
    responses ``r[F, *valid]``, ``r_f = sum_q conv_valid(x_q, h_fq)``;
    ``adjoint`` takes them back to ``[Q, *N]``.  Two exact evaluations of
    the same valid-range map, picked once from the size of the lifted
    window matrix (``V`` valid windows by ``Q·ΠW`` channel taps):

    * ``"window"`` (up to ``_WINDOW_CELLS`` cells): ``forward`` gathers
      every window of ``x`` through one flat index array (the cached
      positions :func:`lift` reads, transposed) and multiplies by the
      ``[F, Q·ΠW]`` taps; ``adjoint`` multiplies by their conjugate
      transpose and scatter-adds the cells back onto the samples they
      were read from, in one ``np.add.at`` (the scatter of
      :meth:`StructuredMatrix.unlift`).  Two small GEMMs and no FFT,
      which wins while the fixed cost of an FFT call outweighs the
      arithmetic.
    * ``"fft"``: zero-padded FFTs of length ``next_fast_len(N + W - 1)``
      per axis, long enough that no product wraps around, cropped to the
      exact valid (forward) or full (adjoint) range, so no padding reaches
      a residual.  The filter spectra are computed once per operator.
      Its cost grows as ``ΠN log ΠN`` instead of ``V·ΠW``, so it wins on
      large grids.
    """

    def __init__(self, taps: np.ndarray, shape: Sequence[int]):
        q_count, *grid_shape = shape
        if taps.ndim - 2 != len(grid_shape):
            raise ValueError(f"taps are {taps.ndim - 2}D, data is {len(grid_shape)}D")
        if taps.shape[1] != q_count:
            raise ValueError(f"taps have {taps.shape[1]} channels, data has {q_count}")
        width = taps.shape[2:]
        if any(w > n for w, n in zip(width, grid_shape)):
            raise ValueError(f"filter width {width} exceeds data shape {tuple(grid_shape)}")
        self.shape = tuple(shape)
        valid = tuple(n - w + 1 for n, w in zip(grid_shape, width))
        self.resp_shape = (taps.shape[0],) + valid
        if int(np.prod(valid)) * taps[0].size <= _WINDOW_CELLS:
            self.evaluation = "window"
            # The geometry reads only the width L + P + 1.
            starts, offsets, _ = _window_geometry(self.shape, width[0] - 1, 0)
            # index[j, v]: the flat sample that column j of window row v reads.
            self.index = np.add.outer(offsets, starts)
            self.taps = taps.reshape(taps.shape[0], -1)
            self.taps_h = self.taps.conj().T
        else:
            self.evaluation = "fft"
            self.axes = tuple(range(-len(grid_shape), 0))
            self.fft_shape = tuple(
                scipy.fft.next_fast_len(n + w - 1) for n, w in zip(grid_shape, width)
            )
            lead = (slice(None),)
            self.valid = lead + tuple(slice(w - 1, n) for w, n in zip(width, grid_shape))
            self.full = lead + tuple(slice(0, n) for n in grid_shape)
            self.spectra = scipy.fft.fftn(taps, s=self.fft_shape, axes=self.axes)
            self.spectra_conj = self.spectra.conj()

    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.evaluation == "window":
            return (self.taps @ x.reshape(-1)[self.index]).reshape(self.resp_shape)
        spec = scipy.fft.fftn(x, s=self.fft_shape, axes=self.axes)
        joint = np.einsum("fq...,q...->f...", self.spectra, spec)
        return scipy.fft.ifftn(joint, axes=self.axes)[self.valid]

    def adjoint(self, resp: np.ndarray) -> np.ndarray:
        if self.evaluation == "window":
            cells = self.taps_h @ resp.reshape(self.resp_shape[0], -1)  # [Q·ΠW, V]
            return _scatter_add(self.shape, self.index, cells)
        embed = np.zeros((resp.shape[0],) + self.fft_shape, dtype=np.complex128)
        embed[self.valid] = resp
        spec = scipy.fft.fftn(embed, axes=self.axes)
        joint = np.einsum("fq...,f...->q...", self.spectra_conj, spec)
        return scipy.fft.ifftn(joint, axes=self.axes)[self.full]


def _cg(apply_a, b: np.ndarray, tol: float, max_iters: int):
    """Conjugate gradients on a Hermitian PSD system.

    Returns ``(x, iterations, converged, alphas, betas, step_drops, notes)``
    where ``step_drops[j] = alpha_j * ||r_j||^2`` is the exact decrease
    of the quadratic objective at step ``j``, and ``notes`` is empty on
    convergence and otherwise names why the solve stopped (the iteration
    cap, or a step with ``pᴴAp <= 0``) and the relative residual reached.
    """
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rs = float(np.real(np.vdot(r, r)))
    b_norm = np.sqrt(rs)
    alphas: list[float] = []
    betas: list[float] = []
    drops: list[float] = []
    if b_norm == 0.0:
        return x, 0, True, alphas, betas, drops, ()
    converged = False
    cause = f"at the iteration cap ({max_iters})"
    it = 0
    for it in range(1, max_iters + 1):
        ap = apply_a(p)
        pap = float(np.real(np.vdot(p, ap)))
        if pap <= 0.0:
            it -= 1
            cause = f"on non-positive curvature at step {it + 1}"
            break
        alpha = rs / pap
        x += alpha * p
        r -= alpha * ap
        drops.append(alpha * rs)
        rs_new = float(np.real(np.vdot(r, r)))
        beta = rs_new / rs
        alphas.append(alpha)
        betas.append(beta)
        rs = rs_new
        if np.sqrt(rs) <= tol * b_norm:
            converged = True
            break
        p = r + beta * p
    notes = () if converged else (
        f"CG stopped {cause}; relative residual {np.sqrt(rs) / b_norm:.3g} (tol {tol:.3g})",
    )
    return x, it, converged, alphas, betas, drops, notes


def _ritz_conditioning(alphas: Sequence[float], betas: Sequence[float]) -> float | None:
    """Condition estimate from the tridiagonal system CG built implicitly."""
    m = len(alphas)
    if m == 0:
        return None
    diag = np.empty(m)
    off = np.empty(max(m - 1, 0))
    for j in range(m):
        diag[j] = 1.0 / alphas[j] + (betas[j - 1] / alphas[j - 1] if j > 0 else 0.0)
        if j < m - 1:
            off[j] = np.sqrt(betas[j]) / alphas[j]
    vals = scipy.linalg.eigvalsh_tridiagonal(diag, off) if m > 1 else diag
    lo, hi = float(np.min(vals)), float(np.max(vals))
    if lo <= 0:
        return None
    return hi / lo


def annihilation_recon(
    data,
    mask,
    bank: FilterBank,
    lam: float = 0.0,
    tol: float = 1e-9,
    max_iters: int = 500,
) -> tuple[MultiKSignal, ReconReport]:
    """Recover missing samples by minimizing bank response energy.

    With ``lam == 0`` the acquired samples are hard constraints and the
    solver runs conjugate gradients over the missing entries alone, so
    the recorded objective (total squared response) decreases
    monotonically.  With ``lam > 0`` all samples relax and the objective
    becomes ``||x - y||^2`` on acquired entries plus ``lam`` times the
    response energy.

    Args:
        data: measured samples (values at missing positions ignored).
        mask: one mask shared by all channels, or one per channel.
        bank: annihilating filters, channel count matching the data.

    Returns:
        ``(recovered, report)``; the report includes a spectral
        condition estimate of the normal system from the CG recursion.
    """
    ms = _as_multi(data)
    masks = _norm_masks(mask, ms.q_count, ms.grid)
    acq = np.array([m.acquired for m in masks])
    ref = ms.stack()
    base = np.where(acq, ref, 0.0)
    shape = base.shape

    if lam < 0:
        raise ValueError("lam must be nonnegative")

    op = _BankOperator(np.stack([mf.stack() for mf in bank.filters]), shape)
    if lam == 0.0:
        miss = ~acq

        def scatter(vec):
            x = base.copy()
            x[miss] = vec
            return x

        def apply_a(vec):
            x = np.zeros(shape, dtype=np.complex128)
            x[miss] = vec
            return op.adjoint(op.forward(x))[miss]

        resp0 = op.forward(base)
        f0 = float(np.sum(np.abs(resp0) ** 2))
        grad0 = op.adjoint(resp0)
        b = -grad0[miss]
        # The FFT evaluation's round-off leaves ~eps-sized entries where
        # the residual's gradient vanishes exactly (e.g. a bank that never
        # couples a missing sample to an acquired one); CG must not step
        # on them.
        eps = np.finfo(float).eps
        if np.linalg.norm(b) <= 64 * eps * np.linalg.norm(grad0):
            b = np.zeros_like(b)
        sol, iters, converged, alphas, betas, drops, notes = _cg(apply_a, b, tol, max_iters)
        x = scatter(sol)
        trace = [f0]
        for d in drops:
            trace.append(trace[-1] - d)
        method = "annihilation-hard"
    else:

        def apply_a(vec):
            x = vec.reshape(shape)
            out = np.where(acq, x, 0.0) + lam * op.adjoint(op.forward(x))
            return out.reshape(-1)

        f0 = float(np.sum(np.abs(base[acq]) ** 2))
        sol, iters, converged, alphas, betas, drops, notes = _cg(
            apply_a, base.reshape(-1), tol, max_iters
        )
        x = sol.reshape(shape)
        trace = [f0]
        for d in drops:
            trace.append(trace[-1] - d)
        method = "annihilation-soft"

    report = ReconReport(
        method=method,
        iterations=iters,
        converged=converged,
        objective_trace=tuple(trace),
        conditioning=_ritz_conditioning(alphas, betas),
        notes=notes,
    )
    return MultiKSignal.from_array(ms.grid, x), report


def pf_recon(
    data,
    mask,
    method: str = "annihilation-vc",
    L: int | None = None,
    P: int | None = None,
    rank: int | None = None,
    tau: float = 0.05,
    tol: float = 1e-9,
    max_iters: int = 500,
) -> tuple[MultiKSignal, ReconReport]:
    """Fill one-sided partial coverage using conjugate symmetry.

    ``"annihilation-vc"`` appends conjugate-mirrored channels (measured
    wherever the mirrored index was acquired), fits a nullspace filter
    bank on the calibration region, and solves the hard-constrained
    annihilation problem over the augmented channel set.
    ``"lowrank-S"`` runs alternating-projection completion on the
    symmetric lifting.  Either way only the original channels are
    returned.
    """
    ms = _as_multi(data)
    masks = _norm_masks(mask, ms.q_count, ms.grid)
    if method == "lowrank-S":
        out, report = lowrank_complete(
            ms, masks, L=2 if L is None else L, P=2 if P is None else P,
            rank=rank, tau=tau, variant="S", tol=tol, max_iters=max_iters,
        )
        return out, report
    if method != "annihilation-vc":
        raise ValueError("method must be 'annihilation-vc' or 'lowrank-S'")
    L = 0 if L is None else L
    P = 0 if P is None else P
    if any(m.calib is None for m in masks):
        raise ValueError("annihilation-vc needs masks with a calibration region")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        aug = virtual_conjugate(ms)
    aug_masks = masks + [reflect_mask(m) for m in masks]
    # Fit where the calibration region overlaps its own mirror.
    rm = reflect_mask(masks[0])
    if rm.calib is None:
        raise ValueError("calibration region does not cover its own mirror")
    calib = tuple(
        (max(a, c), min(b, d))
        for (a, b), (c, d) in zip(masks[0].calib, rm.calib)
    )
    if any(lo > hi for lo, hi in calib):
        raise ValueError("calibration region does not straddle the center")
    bank = nullspace_filter_bank(aug, calib, L, P, tau=tau)
    out, report = annihilation_recon(
        aug, aug_masks, bank, lam=0.0, tol=tol, max_iters=max_iters
    )
    kept = MultiKSignal(tuple(out.channels[: ms.q_count]))
    report = ReconReport(
        method="annihilation-vc",
        iterations=report.iterations,
        converged=report.converged,
        objective_trace=report.objective_trace,
        conditioning=report.conditioning,
        notes=report.notes,
    )
    return kept, report
