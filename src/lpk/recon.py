"""Recovering missing Fourier samples from linear-prediction structure.

Two complementary routes:

* Lift the samples into a window-structured matrix whose rank deficiency
  encodes the prediction relations, alternate between rank truncation and
  data consistency (``lowrank_complete``).  The truncation projects the
  rows onto the leading eigenvectors of the small Gram matrix ``CᴴC``
  (one column per channel tap), so no SVD of the tall lifted matrix is
  taken.  The Gram is one Hermitian rank-k update (BLAS ``zherk``) that
  fills only its lower triangle, the triangle ``eigh`` reads.  The sweep
  runs on ``[Q, *N]`` arrays: the window index and the per-sample cell
  count are built once per call, and each sweep is one gather through
  the index and one ``np.add.at`` scatter-add back over the count.
  ``lift`` and ``StructuredMatrix.unlift`` are the same gather and
  scatter behind validated value types, for callers at the API edge and
  as the oracle the sweep is tested against; the first sweep goes
  through them.
* Fix a bank of annihilating filters ``H`` and choose the samples so
  that the total filter response energy is minimal.  One routine,
  ``_bank_solve``, poses that as one least-squares problem,
  ``min ||D x - y||² + w ||H x||²`` over the ``free`` samples of a start
  ``x``, where ``D`` sums each seen sample's run of channels.  Hard
  recovery sees nothing, weighs ``w = 1``, starts from the zero-filled
  data and frees the missing samples, so the acquired ones are
  constraints; soft recovery sees the acquired samples, weighs
  ``w = lam``, starts from zero and frees every sample.  Past that
  statement both of its solvers read only ``(free, x, w, D)``.  It has
  three users: ``annihilation_recon``, ``pf_recon`` over virtual
  conjugate channels, and the undersampled ``multi.sms_separate``,
  whose ``D`` sums the slices.  The solver is chosen from the count of
  unknowns alone.  Small problems (every 1D benchmark solve) assemble
  the normal matrix from the window rows that read an unknown and solve
  it at once: by Cholesky, or by an eigendecomposition for the
  minimum-norm solution when it is singular.  Large ones run conjugate
  gradients, each step applying the whole bank forward and back as one
  operator (``_BankOperator``) on the bank's ``[F, Q, *W]`` tap array:
  cropped, zero-padded FFTs with the filter spectra computed once, exact
  valid-range responses and no wraparound.  A CG solve that stops short
  of its tolerance says why in the report's ``notes``.

Both come back with a :class:`ReconReport` describing what the solver
did.  Conjugate symmetry lets the same machinery fill one-sided partial
coverage: ``pf_recon`` solves the annihilation problem over virtual
conjugate channels, and ``lowrank_complete(variant="S")`` is the
symmetric low-rank route.
"""

from __future__ import annotations

import functools
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
    _integer,
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


@functools.lru_cache(maxsize=32)
def _reflection(n_min: tuple[int, ...], n_max: tuple[int, ...]):
    """``(dst, src)`` slices per grid axis: index ``n`` at ``dst`` reads
    ``-n`` at ``src``, over the ``n`` whose mirror lies in the grid."""
    dst, src = [], []
    for lo, hi in zip(n_min, n_max):
        a, b = max(lo, -hi), min(hi, -lo)
        if a > b:
            dst.append(slice(0, 0))
            src.append(slice(0, 0))
            continue
        dst.append(slice(a - lo, b - lo + 1))
        stop = -b - lo - 1
        src.append(slice(-a - lo, None if stop < 0 else stop, -1))
    return (Ellipsis,) + tuple(dst), (Ellipsis,) + tuple(src)


def _reflect_values(arr: np.ndarray, grid: KGrid, fill=0):
    """out[..., n] = arr[..., -n] where -n lies in the grid, else fill.

    The grid spans the trailing axes; leading axes (channels) ride along.
    """
    dst, src = _reflection(grid.n_min, grid.n_max)
    out = np.full_like(arr, fill)
    out[dst] = arr[src]
    return out


def _with_mirrors(x: np.ndarray, grid: KGrid) -> np.ndarray:
    """A ``[Q, *N]`` stack followed by its conjugate-mirrored channels."""
    return np.concatenate([x, _reflect_values(np.conj(x), grid)])


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
    matrix = _gather(ms.values, ms.grid, index, variant)
    return StructuredMatrix(matrix, ms.grid, L, P, ms.q_count, variant)


def _shared_acquired(mask: SamplingMask, ms: MultiKSignal) -> np.ndarray:
    """The ``[Q, *N]`` acquired view of the one mask all channels share."""
    if not isinstance(mask, SamplingMask):
        raise TypeError(f"expected one SamplingMask for all channels, not {type(mask).__name__}")
    if mask.grid != ms.grid:
        raise GridMismatchError("mask grid differs from data grid")
    return np.broadcast_to(mask.acquired, ms.values.shape)


# The Gram of a C-ordered ``C`` as one Hermitian rank-k update: BLAS
# reads ``C.T`` (Fortran-ordered, so no copy) and forms ``C.T conj(C) =
# conj(CᴴC)``, lower triangle only, in half the products of a GEMM.
# Measured per Gram, one BLAS thread, OpenBLAS 0.3.31 on a 2-vCPU x86-64
# host (ms, ``c.conj().T @ c`` / ``zherk``):
#
#   [3600, 200]   17.7 / 10.7   (demo2d)
#   [1936, 200]    8.8 /  5.3   (random2d)
#   [60, 20]     0.006 / 0.004  (sweep1d)
def _gram_eigh(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of ``CᴴC``, descending, and their eigenvectors as
    columns."""
    gram = scipy.linalg.blas.zherk(1.0, c.T, trans=0, lower=1)
    # eigh reads the lower triangle; the eigenvectors of conj(CᴴC) are
    # the conjugates of those of CᴴC.
    lam, v = np.linalg.eigh(gram, UPLO="L")
    return lam[::-1], v[:, ::-1].conj()


def lowrank_complete(
    data,
    mask: SamplingMask,
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
    square roots of the eigenvalues of the Hermitian Gram ``CᴴC``, which
    is formed as one Hermitian rank-k update that fills only the lower
    triangle, the triangle ``eigh`` reads.  The truncation is
    ``(C V_r) V_rᴴ`` with ``V_r`` the Gram's leading eigenvectors, which
    equals ``U_r S_r V_rᴴ`` of the thin SVD.  One mask, a
    :class:`SamplingMask`, is shared by all channels.  A ``rank`` other
    than None or an integer is a ``ValueError``.  With ``max_iters < 1``
    no sweep runs and the zero-filled data come back; the rank, the
    variant and the window are checked either way.

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
    acq = _shared_acquired(mask, ms)
    _check_lift(grid, L, P, variant)
    if rank is not None:
        _integer("rank", rank)
    ref = ms.values
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
        lam, v = _gram_eigh(c)
        s = np.sqrt(np.maximum(lam, 0.0))[: min(c.shape)]
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


def _check_bank(taps: np.ndarray, shape: Sequence[int]) -> None:
    """A ``[F, Q, *W]`` bank of other dims or channels than a ``[Q, *N]``
    stack, or wider than its grid, is a ``ValueError``."""
    q_count, *grid_shape = shape
    if taps.ndim - 2 != len(grid_shape):
        raise ValueError(f"taps are {taps.ndim - 2}D, data is {len(grid_shape)}D")
    if taps.shape[1] != q_count:
        raise ValueError(f"taps have {taps.shape[1]} channels, data has {q_count}")
    width = taps.shape[2:]
    if any(w > n for w, n in zip(width, grid_shape)):
        raise ValueError(f"filter width {width} exceeds data shape {tuple(grid_shape)}")


class _BankOperator:
    """A bank's ``[F, Q, *W]`` tap array applied jointly as one linear map.

    The filter bank that ``_bank_solve``'s CG minimizes the response of.
    ``W`` taps on every axis, ascending in ``k``; the operator reads only
    the width, since where ``k = 0`` sits only labels the valid range.
    ``forward`` takes a stacked signal ``x[Q, *N]`` to the per-filter joint
    responses ``r[F, *valid]``, ``r_f = sum_q conv_valid(x_q, h_fq)``;
    ``adjoint`` takes them back to ``[Q, *N]``.  Both are zero-padded FFTs
    of length ``next_fast_len(N + W - 1)`` per axis, long enough that no
    product wraps around, cropped to the exact valid (forward) or full
    (adjoint) range, so no padding reaches a residual.  The filter spectra
    are computed once per operator.
    """

    def __init__(self, taps: np.ndarray, shape: Sequence[int]):
        _check_bank(taps, shape)
        self.shape = tuple(shape)
        grid_shape, width = self.shape[1:], taps.shape[2:]
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
        spec = scipy.fft.fftn(x, s=self.fft_shape, axes=self.axes)
        joint = np.einsum("fq...,q...->f...", self.spectra, spec)
        return scipy.fft.ifftn(joint, axes=self.axes)[self.valid]

    def adjoint(self, resp: np.ndarray) -> np.ndarray:
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
    """Condition estimate from the tridiagonal system CG built implicitly:
    the ratio of its extreme eigenvalues, None unless both are positive.
    Only the two extremes are computed (by bisection)."""
    a = np.asarray(alphas, dtype=float)
    m = a.size
    if m == 0:
        return None
    b = np.asarray(betas, dtype=float)[: m - 1]
    diag = 1.0 / a
    diag[1:] += b / a[:-1]
    off = np.sqrt(b) / a[:-1]
    lo, hi = (
        float(scipy.linalg.eigvalsh_tridiagonal(diag, off, select="i", select_range=(j, j))[0])
        for j in (0, m - 1)
    )
    if lo <= 0:
        return None
    return hi / lo


# Largest number of unknowns that ``_bank_solve`` solves by one dense
# solve of its normal matrix; above it, CG on the FFT evaluation.
# Measured as one whole ``_bank_solve`` (assembly included) on the
# nullspace bank of a demo scene, F = Q, W = 5, random masks with noise
# at 1e-3, tol 1e-9 and 500 CG steps, one BLAS thread, OpenBLAS 0.3.31 on
# a 2-vCPU x86-64 host (ms; a dash where the matrix is singular and the
# Cholesky branch falls through to ``eigh``):
#
#   unknowns  grid              Cholesky   eigh   CG (steps)
#      108    1D Q=4 N=64          0.8      2.4    19.6 (232)
#      136    1D Q=4 N=64          0.8      4.4    46.1 (500, capped)
#      236    1D Q=4 N=128         1.7     13.0    23.7 (285)
#      304    1D Q=4 N=128         4.8     37.3    58.8 (500, capped)
#      476    1D Q=4 N=192        15.2    106.9    66.7 (500, capped)
#      128    2D Q=8 N=8²            -      4.7    50.6 (242)
#      288    2D Q=8 N=10²           -     24.0    84.8 (500, capped)
#      528    2D Q=8 N=12²           -    182.7   101.4 (500, capped)
#
# The dense solve costs ``O(n³)`` and CG ``O(steps · F·Q·ΠN log ΠN)``;
# up to the bound even the ``eigh`` branch beats CG by about 2x.
_DIRECT_UNKNOWNS = 256
# Window cells gathered at a time to evaluate a response energy, so a
# direct solve on a large, mostly acquired grid never holds its whole
# lifted window matrix.
_GATHER_CELLS = 1 << 14


def _bank_geometry(taps: np.ndarray, shape: tuple[int, ...]):
    """``(starts, offsets, t)``: window ``v`` of a ``[Q, *N]`` stack reads
    the cell that column ``c`` of the ``[F, Q·ΠW]`` tap matrix ``t``
    multiplies at flat position ``starts[v] + offsets[c]``."""
    # The geometry reads only the width L + P + 1.
    starts, offsets, _ = _window_geometry(shape, taps.shape[2] - 1, 0)
    return starts, offsets, taps.reshape(taps.shape[0], -1)


def _response_energy(
    t: np.ndarray, x: np.ndarray, starts: np.ndarray, offsets: np.ndarray,
) -> float:
    """``||H x||²`` over every valid window, a block of windows at a time."""
    flat = x.reshape(-1)
    step = max(1, _GATHER_CELLS // offsets.size)
    return sum(
        float(np.sum(np.abs(flat[np.add.outer(starts[i:i + step], offsets)] @ t.T) ** 2))
        for i in range(0, starts.size, step)
    )


def _normal_system(
    taps: np.ndarray, free: np.ndarray, x: np.ndarray, w: float, d: np.ndarray, r: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """``(m, b)``: the normal equations ``m u = b`` of the problem
    ``_bank_solve`` states, ``min ||D x - y||² + w ||H x||²`` over a step
    ``u`` on the samples ``free`` marks on the ``[Q, *N]`` start ``x``, in
    flat order.  Row ``s`` of ``d`` holds the flat positions, all of them
    ``free``, whose sum ``(D x)[s]`` is compared with ``y[s]``, and ``r``
    is the residual ``y - D x``.

    ``m = w Hᵤᴴ Hᵤ + Dᵤᴴ Dᵤ`` and ``b = Dᵤᴴ r - w Hᵤᴴ H x``.  The
    bank's part comes from the windows that read an unknown: two unknown
    cells ``c, c'`` of one window add ``(tᴴt)[c, c']``, so no row of ``H``
    is formed and the matrix is ``n × n``.
    """
    starts, offsets, t = _bank_geometry(taps, x.shape)
    unknown = np.flatnonzero(free)
    # Windows whose footprint, on any channel, holds an unknown: the
    # first ``ΠW`` offsets are channel 0's, which index the grid alone.
    hit = free.any(axis=0).reshape(-1)
    starts = starts[hit[np.add.outer(starts, offsets[: t.shape[1] // x.shape[0]])].any(axis=1)]
    n = unknown.size
    pos = np.full(x.size, -1)
    pos[unknown] = np.arange(n)
    cells = np.add.outer(starts, offsets)  # [V, Q·ΠW] flat positions
    cols = pos[cells]
    win, cell = np.nonzero(cols >= 0)
    col = cols[win, cell]
    # Pair every unknown cell with each unknown cell of its window (itself
    # included): ``left`` repeats a cell once per partner, and ``right``
    # counts through the partners from the window's first unknown cell.
    per_window = np.bincount(win, minlength=starts.size)
    reps = per_window[win]
    left = np.repeat(np.arange(win.size), reps)
    since = np.arange(left.size) - np.repeat(np.cumsum(reps) - reps, reps)
    right = np.repeat((np.cumsum(per_window) - per_window)[win], reps) + since
    pair = (t.conj().T @ t)[cell[left], cell[right]]
    at = col[left] * n + col[right]
    m = (np.bincount(at, pair.real, n * n) + 1j * np.bincount(at, pair.imag, n * n)).reshape(n, n)
    m *= w
    # Each unknown cell's tap column against its window's response to x.
    resp = x.reshape(-1)[cells] @ t.T
    g = np.sum(resp[win] * t[:, cell].T.conj(), axis=1)
    b = -w * (np.bincount(col, g.real, n) + 1j * np.bincount(col, g.imag, n))
    # The data term: the unknowns of one run pair with each other and see
    # its residual.
    u = pos[d]
    m[u[:, :, None], u[:, None, :]] += 1.0
    b[u] += r[:, None]
    return m, b


def _dense_solve(m: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """``(x, kappa)`` for the Hermitian PSD system ``m x = b``.

    By Cholesky (LAPACK ``zpotrf``/``zpotrs``), with ``kappa`` the
    reciprocal of ``zpocon``'s 1-norm estimate, unless ``m`` is
    numerically singular: the factorization fails or that estimate is
    below ``n·eps``.  Then ``x`` is the minimum-norm solution over the
    eigenvalues above ``n·eps`` times the largest, the limit CG reaches
    from zero, and ``kappa`` is the ratio of the extreme eigenvalues kept.
    """
    n = b.size
    cut = n * np.finfo(float).eps
    chol, info = scipy.linalg.lapack.zpotrf(m, lower=1)
    if info == 0:
        rcond, _ = scipy.linalg.lapack.zpocon(chol, np.abs(m).sum(axis=0).max(), uplo="L")
        if rcond > cut:
            x, _ = scipy.linalg.lapack.zpotrs(chol, b, lower=1)
            return x, 1.0 / rcond
    vals, vecs = np.linalg.eigh(m)
    keep = vals > cut * vals[-1]
    vals, vecs = vals[keep], vecs[:, keep]
    return vecs @ ((vecs.conj().T @ b) / vals), float(vals[-1] / vals[0])


def _bank_solve(
    taps: np.ndarray, shape: tuple[int, ...], y: np.ndarray, acq: np.ndarray, lam: float,
    tol: float, max_iters: int, method: str,
) -> tuple[np.ndarray, ReconReport]:
    """Fill a ``[Q, *N]`` stack so a ``[F, Q, *W]`` bank responds least.

    The one solve behind ``annihilation_recon``, ``pf_recon`` and the
    undersampled ``multi.sms_separate``.  The data ``y`` and mask ``acq``
    are ``[G, *N]``, and the data term sees each of the ``G`` equal runs
    of consecutive channels summed: ``G = Q`` is every channel itself,
    ``G = 1`` the slice sum.

    It poses one problem, ``min ||D x - y||² + w ||H x||²`` over the
    ``free`` samples of a start ``x``, with ``H`` the bank and ``D`` the
    run sums at the ``seen`` samples.  Hard (``lam == 0``, only
    ``G = Q``): nothing is seen, ``w = 1``, the start is the zero-filled
    data and the missing samples are free, so acquired samples are
    constraints.  Soft: the acquired samples are seen, ``w = lam``, the
    start is zero and every sample is free.  Only that statement reads
    ``lam``; both solvers read ``(free, x, w, D)`` and add their step to
    the start's ``free`` samples.

    Up to ``_DIRECT_UNKNOWNS`` unknowns the normal equations are
    assembled and solved at once (:func:`_dense_solve`): the report has
    ``iterations`` 1 (0 when the start already solves them),
    ``converged`` true, the matrix's condition number, and the objective
    trace ``(f0, f(x))`` recomputed from the responses.  Larger problems
    run CG on the FFT evaluation of the bank: ``tol`` is its relative
    residual, ``iterations`` its steps, ``conditioning`` the Ritz estimate
    of its recursion, and the trace falls from ``f0`` by CG's exact step
    decreases.  ``f0`` is the objective at the start, and
    ``max_iters < 1`` takes no step on either path.
    """
    _check_bank(taps, shape)
    y = np.where(acq, y, 0.0)
    if lam == 0.0:
        seen, w, x, free = np.zeros_like(acq), 1.0, y.copy(), ~acq
    else:
        seen, w = acq, lam
        x, free = np.zeros(shape, dtype=np.complex128), np.ones(shape, dtype=bool)
    # Row s of d: the flat positions of the run whose sum D compares with y[s].
    runs = np.arange(x.size).reshape((y.shape[0], -1) + y.shape[1:])
    d, y = np.moveaxis(runs, 1, -1)[seen], y[seen]

    def residual(x):
        return y - x.reshape(-1)[d].sum(axis=1)

    def objective(x, energy):
        return float(np.sum(np.abs(residual(x)) ** 2)) + w * energy

    direct = np.count_nonzero(free) <= _DIRECT_UNKNOWNS
    if direct:
        starts, offsets, t = _bank_geometry(taps, shape)
        trace = [objective(x, _response_energy(t, x, starts, offsets))]
        m, b = _normal_system(taps, free, x, w, d, residual(x))
        if not b.any():
            # The start is the minimum-norm solution.
            return x, ReconReport(method, 0, True, tuple(trace))
        if max_iters < 1:
            return x, ReconReport(
                method, 0, False, tuple(trace),
                notes=(f"direct solve not taken at the iteration cap ({max_iters})",),
            )
        sol, kappa = _dense_solve(m, b)
        iters, converged, notes = 1, True, ()
    else:
        op = _BankOperator(taps, shape)

        def apply_a(vec):
            z = np.zeros(shape, dtype=np.complex128)
            z[free] = vec
            # ``w *`` makes a fresh array, so its flat view writes through.
            az = w * op.adjoint(op.forward(z))
            az.reshape(-1)[d] += z.reshape(-1)[d].sum(axis=1)[:, None]
            return az[free]

        resp0 = op.forward(x)
        f0 = objective(x, float(np.sum(np.abs(resp0) ** 2)))
        grad0 = w * op.adjoint(resp0)
        b = -grad0
        b.reshape(-1)[d] += residual(x)[:, None]
        b = b[free]
        # The FFT evaluation's round-off leaves ~eps-sized entries where
        # the residual's gradient vanishes exactly (e.g. a bank that never
        # couples a missing sample to an acquired one); CG must not step
        # on them.
        if np.linalg.norm(b) <= 64 * np.finfo(float).eps * np.linalg.norm(grad0):
            b = np.zeros_like(b)
        sol, iters, converged, alphas, betas, drops, notes = _cg(apply_a, b, tol, max_iters)
        trace = [f0]
        for drop in drops:
            trace.append(trace[-1] - drop)
        kappa = _ritz_conditioning(alphas, betas)
    x[free] += sol
    if direct:
        trace.append(objective(x, _response_energy(t, x, starts, offsets)))
    return x, ReconReport(method, iters, converged, tuple(trace), conditioning=kappa, notes=notes)


def annihilation_recon(
    data,
    mask: SamplingMask,
    bank: FilterBank,
    lam: float = 0.0,
    tol: float = 1e-9,
    max_iters: int = 500,
) -> tuple[MultiKSignal, ReconReport]:
    """Recover missing samples by minimizing bank response energy.

    With ``lam == 0`` the acquired samples are hard constraints and the
    missing entries alone are unknowns, so the recorded objective (total
    squared response) decreases monotonically.  With ``lam > 0`` all
    samples relax and the objective becomes ``||x - y||^2`` on acquired
    entries plus ``lam`` times the response energy.  Up to
    ``_DIRECT_UNKNOWNS`` unknowns the normal equations are solved at
    once (one iteration); larger problems run conjugate gradients to
    ``tol`` within ``max_iters`` steps.  A negative or non-finite ``lam``
    is a ``ValueError``.

    Args:
        data: measured samples (values at missing positions ignored).
        mask: one mask shared by all channels.
        bank: annihilating filters, channel count matching the data.

    Returns:
        ``(recovered, report)``; the report includes the condition
        number of the normal system: LAPACK's estimate for a direct
        solve, a spectral estimate from the recursion for CG.
    """
    ms = _as_multi(data)
    acq = _shared_acquired(mask, ms)
    ref = ms.values

    if not 0.0 <= lam < np.inf:
        raise ValueError(f"lam must be finite and nonnegative, not {lam}")

    x, report = _bank_solve(
        bank.taps, ref.shape, ref, acq, lam, tol, max_iters,
        "annihilation-hard" if lam == 0.0 else "annihilation-soft",
    )
    return MultiKSignal.from_array(ms.grid, x), report


def pf_recon(
    data,
    mask: SamplingMask,
    L: int = 0,
    P: int = 0,
    tau: float = 0.05,
    tol: float = 1e-9,
    max_iters: int = 500,
) -> tuple[MultiKSignal, ReconReport]:
    """Fill one-sided partial coverage with virtual conjugate channels.

    One mask, a :class:`SamplingMask`, is shared by all channels.  The
    conjugate-mirrored channels are appended (measured wherever the
    mirrored index was acquired), a nullspace filter bank is fitted where
    the calibration region overlaps its own mirror, and the
    hard-constrained annihilation problem is solved over the augmented
    channel set.  Only the original channels are returned.  The
    symmetric low-rank route is ``lowrank_complete(variant="S")``.
    """
    ms = _as_multi(data)
    acq = _shared_acquired(mask, ms)
    if mask.calib is None:
        raise ValueError("pf_recon needs a mask with a calibration region")
    # Fit where the calibration box overlaps its own mirror.
    calib = tuple((max(lo, -hi), min(hi, -lo)) for lo, hi in mask.calib)
    if any(lo > hi for lo, hi in calib):
        raise ValueError("calibration region does not straddle the center")
    # A mirrored channel is acquired at n iff -n was.  Mirrors that fall
    # off the grid are zero here and unacquired, so the solve fills them.
    aug = MultiKSignal.from_array(ms.grid, _with_mirrors(ms.values, ms.grid))
    bank = nullspace_filter_bank(aug, calib, L, P, tau=tau)
    mirrored = _reflect_values(mask.acquired, mask.grid, fill=False)
    aug_acq = np.concatenate([acq, np.broadcast_to(mirrored, acq.shape)])
    x, report = _bank_solve(
        bank.taps, aug.values.shape, aug.values, aug_acq, 0.0, tol, max_iters,
        "annihilation-vc",
    )
    return MultiKSignal.from_array(ms.grid, x[: ms.q_count]), report
