"""Scenes with several receive channels or superposed slices.

A multi-channel scene pairs one object with per-channel spatial
modulators; its samples follow from the base samples by coefficient
convolution, so everything stays closed-form.  A superposition scene
holds several objects whose samples are only observed summed; short
separator filters applied to the sum recover the individual objects
whenever each filter's spatial response is near one on its own object's
support and near zero on the others.  A fully sampled sum is split by
valid-range convolution; an undersampled one by the annihilation
solve (``recon._bank_solve``): the separator relations are one filter
bank over the stacked slices, and the data term sees the slices summed.

The identity checks run on the single-image one's routine
(``lp._energy_identity``): a truncated response energy on the sample side
against ``B integral |sum_j H_j u_j|^2`` on the spatial side, ``u_j`` the
profiles the filtered samples come from (``c_q rho`` per channel; the
slice sum and the target slice), with a bound on the truncated tail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import signal as _sps

from .core import (
    Filter, KGrid, KSignal, MultiFilter, MultiKSignal, SamplingMask, _as_multi, _index, _like,
    _shared_acquired, _weight, _window,
)
from .lp import (
    IdentityCheck, _anchored_fit, _decay_constant as _decay, _energy_identity, _ridge_solve,
    build_calib_matrix,
)
from .phantom import (
    Modulator,
    Phantom,
    fourier_samples,
    modulated_samples,
    modulator_from_json,
    modulator_to_json,
    phantom_from_json,
    phantom_to_json,
    samples_at,
    spatial_profile,
)
from .quadrature import piecewise_quad  # noqa: F401  bench/layers.py wraps lpk.multi:piecewise_quad
from .recon import ReconReport, _bank_solve


@dataclass(frozen=True, eq=False)
class MultiScene:
    """One object observed through per-channel spatial modulators."""

    phantom: Phantom
    sensitivities: tuple[Modulator, ...]

    def __post_init__(self):
        sens = tuple(self.sensitivities)
        if not sens:
            raise ValueError("scene needs at least one channel")
        object.__setattr__(self, "sensitivities", sens)

    @property
    def q_count(self) -> int:
        return len(self.sensitivities)


@dataclass(frozen=True, eq=False)
class SmsScene:
    """Several objects on a shared field of view, observed superposed."""

    slices: tuple[Phantom, ...]
    sensitivities: tuple[Modulator, ...] | None = None

    def __post_init__(self):
        slices = tuple(self.slices)
        if len(slices) < 2:
            raise ValueError("superposition scene needs at least two slices")
        fov = slices[0].fov
        for s in slices[1:]:
            if s.fov != fov:
                raise ValueError("slices must share the field of view")
        object.__setattr__(self, "slices", slices)
        if self.sensitivities is not None:
            object.__setattr__(self, "sensitivities", tuple(self.sensitivities))


def scene_samples(scene: MultiScene, grid: KGrid) -> MultiKSignal:
    """Closed-form samples of every channel of a multi-channel scene."""
    return MultiKSignal(
        tuple(modulated_samples(scene.phantom, c, grid) for c in scene.sensitivities)
    )


def sms_slice_samples(scene: SmsScene, grid: KGrid):
    """Per-slice samples: a tuple of KSignal, or of MultiKSignal with coils."""
    if scene.sensitivities is None:
        return tuple(fourier_samples(p, grid) for p in scene.slices)
    return tuple(
        MultiKSignal(
            tuple(modulated_samples(p, c, grid) for c in scene.sensitivities)
        )
        for p in scene.slices
    )


def sms_superpose(slices):
    """Sum per-slice data into the observed superposed samples.

    Every slice must be the same kind of signal on the same grid with the
    same channel count.
    """
    slices = tuple(slices)
    if len(slices) < 2:
        raise ValueError("superposition needs at least two slices")
    first = slices[0]
    # Same grid and same values shape: a KSignal's values lack the channel axis.
    if any(s.grid != first.grid or s.values.shape != first.values.shape for s in slices[1:]):
        raise ValueError("slices must share the signal kind, grid and channel count")
    return _like(first, sum((s.values for s in slices[1:]), first.values))


def smash_fit(
    sensitivities: Sequence[Modulator],
    L: int,
    P: int,
    target: int = 0,
    fov: float = 1.0,
    ridge: float | None = None,
) -> tuple[MultiFilter, float]:
    """Fit channel/tap weights whose modulator combination cancels, 1D.

    Minimizes the spatial residual of
    ``sum_q sum_k h_q[k] c_q(x) exp(i 2 pi k x / B)`` with the target
    channel's ``k = 0`` weight anchored at -1, sampled on a uniform
    1024-point spatial grid.  A small residual makes the filter annihilate
    the samples of any object seen through these modulators, whatever the
    object.

    Returns:
        ``(filter, residual)`` with residual the RMS spatial error.
    """
    sens = tuple(sensitivities)
    if not sens:
        raise ValueError("need at least one modulator")
    b = float(fov)
    if b <= 0:
        raise ValueError("fov must be positive")
    L, P = _window(L, P)
    target = _index("target channel", target, len(sens))
    points = 1024
    x = (np.arange(points) / points - 0.5) * b
    k = np.arange(-L, P + 1)
    basis = np.exp(2j * np.pi * np.multiply.outer(x, k) / b)
    cols = []
    for q, c in enumerate(sens):
        cvals = c.eval_spatial(x, (b,))
        for j in range(len(k)):
            cols.append(cvals * basis[:, j])
    A = np.stack(cols, axis=1)
    mf, resid = _anchored_fit(A, (len(sens), L + P + 1), target, L, P, ridge)
    return mf, resid / np.sqrt(points)


@dataclass(frozen=True)
class SeparatorReport:
    """Fit quality of a slice separator."""

    residual: float
    leakage: float
    mu: float
    rows: int


def sms_fit_separator(
    slices: Sequence[KSignal],
    target: int,
    L: int = 1,
    P: int = 0,
    calib=None,
    mu: float = 1.0,
    ridge: float | None = None,
) -> tuple[Filter, SeparatorReport]:
    """Single-coil separator: the one-coil case of :func:`sms_fit_separator_coils`."""
    mf, report = sms_fit_separator_coils(
        [_as_multi(s) for s in slices], target, 0, L, P, calib, mu, ridge
    )
    return mf.filters[0], report


def sms_fit_separator_coils(
    slices: Sequence[MultiKSignal],
    target_slice: int,
    target_coil: int,
    L: int = 1,
    P: int = 0,
    calib=None,
    mu: float = 1.0,
    ridge: float | None = None,
) -> tuple[MultiFilter, SeparatorReport]:
    """Fit a separator reproducing one slice/coil from all coils' sums.

    Least squares over calibration windows: the filter applied to the
    sum should return the target slice's samples on the target coil
    (reproduction rows), and applied to each other slice alone should
    return zero (leakage rows, weighted by ``sqrt(mu)``).

    Returns:
        ``(filter, report)`` with RMS reproduction residual and RMS
        unweighted leakage.
    """
    slices = tuple(slices)
    if len(slices) < 2:
        raise ValueError("need at least two slices")
    q = slices[0].q_count
    target_slice = _index("target slice", target_slice, len(slices))
    target_coil = _index("target coil", target_coil, q)
    _weight("mu", mu)
    summed = sms_superpose(slices)
    cm_sum = build_calib_matrix(summed, calib, L, P)
    rows = cm_sum.rows
    cm_t = build_calib_matrix(slices[target_slice], calib, L, P)
    y = cm_t.matrix[:, cm_t.col_index(target_coil, (0,) * cm_t.dims)]
    blocks_a = [cm_sum.matrix]
    blocks_y = [y]
    leak_mats = []
    for r, s in enumerate(slices):
        if r == target_slice:
            continue
        cm_r = build_calib_matrix(s, calib, L, P)
        leak_mats.append(cm_r.matrix)
        if mu > 0:
            blocks_a.append(np.sqrt(mu) * cm_r.matrix)
            blocks_y.append(np.zeros(rows, dtype=np.complex128))
    A = np.concatenate(blocks_a, axis=0)
    yy = np.concatenate(blocks_y)
    coef, _ = _ridge_solve(A, yy, ridge)
    repro = float(np.linalg.norm(cm_sum.matrix @ coef - y)) / np.sqrt(rows)
    leak_sq = sum(float(np.sum(np.abs(m @ coef) ** 2)) for m in leak_mats)
    leakage = np.sqrt(leak_sq / (rows * max(len(leak_mats), 1)))
    mf = MultiFilter.from_array(coef.reshape((q,) + cm_sum.tap_shape), L, P)
    return mf, SeparatorReport(repro, float(leakage), mu, rows)


# The undersampled split's relation weight and solve budget
# (``recon._bank_solve``'s ``lam``, ``tol`` and ``max_iters``).
_SMS_LAM = 1.0
_SMS_TOL = 1e-9
_SMS_MAX_ITERS = 500


def sms_separate(
    summed: KSignal,
    separators: Sequence[Filter],
    mask: SamplingMask | None = None,
) -> tuple[MultiKSignal, ReconReport]:
    """Split superposed single-channel samples into slices, one separator each.

    Fully sampled data is split directly: slice ``m`` is separator ``m``
    convolved with the sum on its valid range, the shrunken grid
    ``summed.grid.valid_for(L, P)``.  With a mask, the slices become
    joint unknowns of the annihilation solve (``recon._bank_solve``)
    with the slice sum as its data: its least squares balance summed
    data consistency on acquired indices against each slice's separator
    relation, ``f_m`` over the sum less slice ``m`` (weighted by
    ``_SMS_LAM``; ``_SMS_TOL`` and ``_SMS_MAX_ITERS`` bound the
    iterative solve), returning slices on the full grid.  The
    benchmark's two 64-sample slices are 128 unknowns, solved at once;
    their normal matrix is singular, so the answer is its minimum-norm
    solution.

    That split is limited by the model: summed over ``m`` the relations
    leave ``conv_valid(sum_q x_q, sum_m f_m - δ₀)``, and separators that
    split well add up to nearly ``δ₀``, so the sum is barely constrained
    where it was not acquired.  On the benchmark's two-slice scene the
    direct split scores 0.100 and the joint one 0.27 for any weight in
    [0.01, 100]; its sum is 126% off at missing indices.
    """
    if not isinstance(summed, KSignal):
        raise ValueError(
            f"sms_separate splits one single-channel KSignal, got {type(summed).__name__}"
        )
    seps = tuple(separators)
    if not seps:
        raise ValueError("need one separator per slice")
    L, P = seps[0].L, seps[0].P
    for f in seps[1:]:
        if (f.L, f.P) != (L, P):
            raise ValueError("separators must share tap support")
    if any(f.dims != summed.grid.dims for f in seps):
        raise ValueError("filter dims do not match data dims")
    acq = None if mask is None else _shared_acquired(mask, summed)
    if acq is None or bool(np.all(acq)):
        grid = summed.grid.valid_for(L, P)
        outs = [_sps.convolve(summed.values, f.taps, mode="valid", method="direct") for f in seps]
        return MultiKSignal.from_array(grid, outs), ReconReport(
            method="sms-direct", iterations=0, converged=True
        )
    shape = (len(seps),) + summed.grid.shape
    # Relation m is one filter over the slices: h[m, q] = f_m - [q = m] δ₀,
    # δ₀ the k = 0 tap.
    taps = np.repeat(np.stack([f.taps for f in seps])[:, None], len(seps), axis=1)
    for m in range(len(seps)):
        taps[(m, m) + (L,) * summed.grid.dims] -= 1.0
    x, report = _bank_solve(
        taps, shape, summed.values[None], acq[None],
        _SMS_LAM, _SMS_TOL, _SMS_MAX_ITERS, "sms-joint",
    )
    return MultiKSignal.from_array(summed.grid, x), report


def check_multichannel_identity(
    phantom: Phantom,
    sensitivities: Sequence[Modulator],
    mfilt: MultiFilter,
    grid: KGrid,
) -> IdentityCheck:
    """Joint response energy against its spatial integral, several channels.

    lhs sums ``|sum_q sum_k h_q[k] x_q[n-k]|^2`` over the grid's valid
    indices with each channel's samples closed-form; rhs integrates
    ``B |sum_q H_q(x) c_q(x) rho(x)|^2`` with
    ``H_q(x) = sum_k h_q[k] exp(+i 2 pi k x / B)``.
    """
    sens = tuple(sensitivities)
    if phantom.dims != 1 or grid.dims != 1:
        raise ValueError("identity check is 1D only")
    if len(sens) != mfilt.q_count:
        raise ValueError("one modulator per filter channel required")
    b = phantom.fov[0]

    def sample_fn(c):
        return lambda n: modulated_samples(
            phantom, c, KGrid.window((int(n[0]),), (int(n[-1]),), (b,))
        ).values

    def profile(c):
        return lambda x, mid: spatial_profile(phantom, x, mid) * c.eval_spatial(x, (b,))

    c_rho = _decay(phantom)
    c_tot = sum(
        float(np.sum(np.abs(t))) * float(np.sum(np.abs(c.coeffs))) * c_rho / b
        for c, t in zip(sens, mfilt.taps)
    )
    m_max = max(max(abs(c.n_min[0]), abs(c.n_max[0])) for c in sens)
    return _energy_identity(
        [sample_fn(c) for c in sens], [profile(c) for c in sens],
        mfilt.taps, mfilt.L, mfilt.P, (phantom,), grid,
        c_tot, max(mfilt.L, mfilt.P) + m_max,
    )


def check_superposition_identity(
    slices: Sequence[Phantom],
    target: int,
    filt: Filter,
    grid: KGrid,
) -> IdentityCheck:
    """Separator error energy against its spatial integral.

    lhs sums ``|sum_k h[k] s[n-k] - x_m[n]|^2`` over valid indices with
    ``s`` the summed slices; rhs integrates ``B |H(x) s(x) - rho_m(x)|^2``
    over the field of view with ``H(x) = sum_k h[k] exp(+i 2 pi k x / B)``.
    """
    slices = tuple(slices)
    target = _index("target slice", target, len(slices))
    if any(p.dims != 1 for p in slices) or grid.dims != 1:
        raise ValueError("identity check is 1D only")
    if any(p.fov != slices[0].fov for p in slices[1:]):
        raise ValueError("slices must share the field of view")

    def sum_fn(n):
        return sum(samples_at(p, (n,)) for p in slices)

    def sum_profile(x, mid):
        return sum(spatial_profile(p, x, mid) for p in slices)

    delta = np.zeros(filt.L + filt.P + 1, dtype=np.complex128)
    delta[filt.L] = -1.0
    c_sum = sum(_decay(p) for p in slices)
    c_tot = float(np.sum(np.abs(filt.taps))) * c_sum + _decay(slices[target])
    return _energy_identity(
        [sum_fn, lambda n: samples_at(slices[target], (n,))],
        [sum_profile, lambda x, mid: spatial_profile(slices[target], x, mid)],
        [filt.taps, delta], filt.L, filt.P, slices, grid,
        c_tot, max(filt.L, filt.P),
    )


def scene_to_json(scene) -> dict:
    if isinstance(scene, MultiScene):
        return {
            "version": 1,
            "kind": "scene",
            "phantom": phantom_to_json(scene.phantom),
            "sensitivities": [modulator_to_json(c) for c in scene.sensitivities],
        }
    if isinstance(scene, SmsScene):
        doc = {
            "version": 1,
            "kind": "sms-scene",
            "slices": [phantom_to_json(p) for p in scene.slices],
        }
        if scene.sensitivities is not None:
            doc["sensitivities"] = [modulator_to_json(c) for c in scene.sensitivities]
        return doc
    raise TypeError("expected MultiScene or SmsScene")


def scene_from_json(doc: dict):
    kind = doc.get("kind")
    if kind == "scene":
        return MultiScene(
            phantom_from_json(doc["phantom"]),
            tuple(modulator_from_json(c) for c in doc["sensitivities"]),
        )
    if kind == "sms-scene":
        sens = doc.get("sensitivities")
        return SmsScene(
            tuple(phantom_from_json(p) for p in doc["slices"]),
            None if sens is None else tuple(modulator_from_json(c) for c in sens),
        )
    raise ValueError(f"unknown scene kind: {kind!r}")
