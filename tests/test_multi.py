"""Channel fits and slice separation: SMASH fits, separator fits, and
both separation paths against direct convolution and the closed form;
the channel and slice identity checks; scene JSON round trips."""

import contextlib
import json

import numpy as np
import pytest
import scipy.signal
from hypothesis import given, settings, strategies as st

import lpk.multi
import lpk.recon
from conftest import conv_response
from lpk.core import (
    Filter,
    GridMismatchError,
    KGrid,
    KSignal,
    MultiFilter,
    MultiKSignal,
    SamplingMask,
    centered_grid,
)
from lpk.harness import MaskSpec, gen_mask, make_sensitivities
from lpk.io import read_json, write_json
from lpk.multi import (
    MultiScene,
    SmsScene,
    check_multichannel_identity,
    check_superposition_identity,
    scene_from_json,
    scene_samples,
    scene_to_json,
    smash_fit,
    sms_fit_separator,
    sms_fit_separator_coils,
    sms_separate,
    sms_slice_samples,
    sms_superpose,
)
from lpk.phantom import Modulator, Phantom, Primitive, modulated_samples


def two_slices():
    slices = (
        Phantom((Primitive("boxcar", (-0.08,), (0.12,), 1.0),), (1.0,)),
        Phantom(
            (
                Primitive("boxcar", (0.42,), (0.05,), 0.8),
                Primitive("ellipse", (-0.4,), (0.06,), 0.7j),
            ),
            (1.0,),
        ),
    )
    return sms_slice_samples(SmsScene(slices), centered_grid(48, 1.0))


@pytest.mark.parametrize("coils", [None, 2], ids=["single-coil", "coils"])
def test_slice_samples_check_the_grid_fov(coils):
    slices = (Phantom((Primitive("boxcar", (-0.08,), (0.12,), 1.0),), (1.0,)),) * 2
    sens = None if coils is None else make_sensitivities(2, coils, seed=3)
    with pytest.raises(ValueError, match=r"phantom fov \(1.0,\) does not match grid fov \(2.0,\)"):
        sms_slice_samples(SmsScene(slices, sens), centered_grid(32, 2.0))


@pytest.mark.parametrize("target", [0, 1])
@pytest.mark.parametrize("mu", [0.0, 0.5])
def test_single_coil_fit_is_the_one_coil_case(target, mu):
    slices = two_slices()
    calib = ((-8, 8),)
    filt, report = sms_fit_separator(slices, target, 2, 1, calib, mu)
    mf, coils_report = sms_fit_separator_coils(
        [MultiKSignal((s,)) for s in slices], target, 0, 2, 1, calib, mu
    )
    assert len(mf.filters) == 1
    assert np.array_equal(filt.taps, mf.filters[0].taps)
    assert (filt.L, filt.P) == (2, 1)
    assert report == coils_report


def test_zero_coil_gets_zero_separator_taps():
    # A coil that sees nothing in any slice contributes nothing: its taps
    # are exactly zero and the live coil's are the single-coil fit.
    slices = two_slices()
    coils = [MultiKSignal.from_array(s.grid, np.stack([s.values, 0 * s.values])) for s in slices]
    mf, report = sms_fit_separator_coils(coils, 0, 0, 2, 1, ((-8, 8),), 0.5)
    alone, alone_report = sms_fit_separator(slices, 0, 2, 1, ((-8, 8),), 0.5)
    assert mf.taps.shape == (2, 4) and mf.anchor_channel is None
    assert np.all(mf.taps[1] == 0)
    assert np.allclose(mf.taps[0], alone.taps, rtol=1e-9, atol=1e-12)
    assert report.residual == pytest.approx(alone_report.residual, rel=1e-9)


def test_negative_mu_is_rejected_by_both_fits():
    slices = two_slices()
    with pytest.raises(ValueError, match="mu"):
        sms_fit_separator(slices, 0, mu=-1.0)
    with pytest.raises(ValueError, match="mu"):
        sms_fit_separator_coils([MultiKSignal((s,)) for s in slices], 0, 0, mu=-1.0)


def bench_slices():
    """The two-slice scene of the benchmark's separation check."""
    return (
        Phantom(
            (
                Primitive("boxcar", (-0.08,), (0.12,), 1.0),
                Primitive("ellipse", (0.1,), (0.07,), 0.6),
            ),
            (1.0,),
        ),
        Phantom(
            (
                Primitive("boxcar", (0.42,), (0.05,), 0.8),
                Primitive("boxcar", (-0.41,), (0.06,), 0.7j),
            ),
            (1.0,),
        ),
    )


def rel(est, ref):
    return float(np.linalg.norm(est - ref) / np.linalg.norm(ref))


def test_smash_fit_finds_the_exact_annihilator():
    # For trigonometric modulators c0, c1 the filter pair (c1, -c0) cancels
    # exactly; with c1's taps spanning [-2, 2] it is the only one, up to the
    # scale that anchors channel 0's k = 0 tap at -1.
    sens = make_sensitivities(2, 2, seed=3)
    mf, residual = smash_fit(sens, 2, 2, target=0, ridge=0.0)
    c0, c1 = sens[0].coeffs, sens[1].coeffs
    assert residual <= 1e-13
    assert np.allclose(mf.filters[0].taps, -c1 / c1[2], rtol=0, atol=1e-13)
    assert np.allclose(mf.filters[1].taps, c0 / c1[2], rtol=0, atol=1e-13)
    # It annihilates the samples of any object seen through the modulators.
    grid = centered_grid(64, 1.0)
    for ph in bench_slices():
        data = MultiKSignal(tuple(modulated_samples(ph, c, grid) for c in sens))
        resp = conv_response(data, mf).values
        assert np.linalg.norm(resp) <= 1e-12 * np.linalg.norm(data.stack())


@pytest.mark.parametrize("mask", [None, "full"])
def test_fully_sampled_separation_is_the_separators_applied(mask):
    grid = centered_grid(64, 1.0)
    truth = sms_slice_samples(SmsScene(bench_slices()), grid)
    summed = sms_superpose(truth)
    seps = [sms_fit_separator(truth, m, 2, 2, ((-6, 5),))[0] for m in range(2)]
    if mask == "full":
        mask = gen_mask(MaskSpec("full", 1), grid)
    out, report = sms_separate(summed, seps, mask)
    assert (report.method, report.iterations, report.converged) == ("sms-direct", 0, True)
    for m, f in enumerate(seps):
        want = conv_response(MultiKSignal((summed,)), MultiFilter((f,)))
        assert out.channels[m].grid == want.grid == grid.valid_for(2, 2)
        assert np.array_equal(out.channels[m].values, want.values)


@pytest.mark.parametrize("window", [False, True], ids=["centred", "shifted"])
@pytest.mark.parametrize("L,P", [(0, 0), (0, 2), (2, 1)])
@pytest.mark.parametrize("dims", [1, 2])
def test_the_direct_split_is_each_separators_valid_range_convolution(dims, L, P, window):
    # Slice m is numpy's valid-range convolution of the sum with f_m on
    # [n_min + P, n_max - L]; the grid need not contain index 0.
    rng = np.random.default_rng(100 * dims + 10 * L + P)
    shape = (9, 7)[:dims]
    lo = (3, -2)[:dims] if window else centered_grid(shape, 1.0).n_min
    grid = KGrid.window(lo, tuple(a + n - 1 for a, n in zip(lo, shape)), (1.0,) * dims)
    summed = KSignal(grid, cplx(rng, shape))
    seps = [Filter(cplx(rng, (L + P + 1,) * dims), L, P) for _ in range(3)]
    out, report = sms_separate(summed, seps)
    assert report.method == "sms-direct"
    assert (out.grid.n_min, out.grid.n_max) == (
        tuple(a + P for a in lo), tuple(a + n - 1 - L for a, n in zip(lo, shape))
    )
    for m, f in enumerate(seps):
        want = summed.values
        if dims == 1:
            want = np.convolve(want, f.taps, mode="valid")
        else:
            want = scipy.signal.convolve2d(want, f.taps, mode="valid")
        assert np.allclose(out.values[m], want, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("n_min,values,taps,out_range,bound", [
    # rho[n] = 1 + (-1)^n satisfies rho[n] = rho[n-2].
    (-4, 1.0 + (-1.0) ** np.arange(-4, 5), [-1.0, 0.0, 1.0], ((-2,), (4,)), None),
    # A point source at x = 1/4 gives rho[n] = -i rho[n-1].
    (0, np.array([1, -1j, -1, 1j]), [-1.0, -1j], ((1,), (3,)), 1e-15),
], ids=["period-two", "point-source"])
def test_the_direct_split_annihilates_what_its_separator_predicts(
        n_min, values, taps, out_range, bound):
    # The output is zero on the valid range: exactly, or below bound if one is given.
    signal = KSignal(KGrid.window((n_min,), (n_min + len(values) - 1,), (1.0,)), values)
    out, _ = sms_separate(signal, [Filter(np.array(taps), 0, len(taps) - 1)])
    assert (out.grid.n_min, out.grid.n_max) == out_range
    err = np.max(np.abs(out.values))
    assert err == 0.0 if bound is None else err < bound


def test_undersampled_separation_recovers_the_bench_scene():
    grid = centered_grid(64, 1.0)
    truth = sms_slice_samples(SmsScene(bench_slices()), grid)
    mask = gen_mask(MaskSpec("uniform", 2, 12), grid)
    seps = [sms_fit_separator(truth, m, 2, 2, mask.calib)[0] for m in range(2)]
    out, report = sms_separate(sms_superpose(truth), seps, mask)
    assert report.method == "sms-joint"
    assert report.converged and report.notes == ()
    ref = np.array([t.values for t in truth])
    # The benchmark's nrmse.sms; pinned so a change to the joint solve shows.
    assert rel(out.stack(), ref) == pytest.approx(0.271565, abs=1e-5)
    # The solve honours the summed data where it was acquired.
    total = out.stack().sum(axis=0)
    summed = sms_superpose(truth).values
    assert rel(total[mask.acquired], summed[mask.acquired]) <= 0.05
    # A capped joint solve says so.
    with forced("fft"), split_constants(max_iters=5):
        _, capped = sms_separate(sms_superpose(truth), seps, mask)
    assert (capped.converged, capped.iterations) == (False, 5)
    (note,) = capped.notes
    assert note.startswith("CG stopped at the iteration cap (5); relative residual ")


@pytest.mark.parametrize("lam,max_iters", [(1.0, 1), (1.0, 4), (1.0, 500), (0.1, 500)])
def test_joint_separation_trace_ends_at_its_objective(lam, max_iters):
    # A capped run returns that step's CG iterate.
    summed, mask, seps = bench_split()
    with forced("fft"), split_constants(lam=lam, max_iters=max_iters):
        out, report = sms_separate(summed, seps, mask)
    trace = report.objective_trace
    assert len(trace) == report.iterations + 1
    assert abs(trace[-1] - split_objective(out, summed, mask, seps, lam)) <= 1e-9 * trace[0]


def bench_split():
    """The benchmark's undersampled two-slice split: the summed samples,
    the uniform R=2 mask and the separators fitted on its calibration."""
    grid = centered_grid(64, 1.0)
    truth = sms_slice_samples(SmsScene(bench_slices()), grid)
    mask = gen_mask(MaskSpec("uniform", 2, 12), grid)
    seps = [sms_fit_separator(truth, m, 2, 2, mask.calib)[0] for m in range(2)]
    return sms_superpose(truth), mask, seps


def split_objective(out, summed, mask, seps, lam):
    """The objective recomputed at the slices with numpy's convolution:
    summed data consistency where acquired, plus lam times each separator
    relation conv(sum, f_m) - x_m over the valid range."""
    n = summed.grid.shape[0]
    total = KSignal(summed.grid, out.values.sum(axis=0))
    data_term = np.sum(np.abs(total.values - summed.values)[mask.acquired] ** 2)
    relations = sum(
        np.sum(np.abs(np.convolve(total.values, f.taps, "valid") - x[f.P:n - f.L]) ** 2)
        for f, x in zip(seps, out.values)
    )
    return data_term + lam * relations


def test_direct_split_is_the_minimum_norm_least_squares():
    # The bench split's normal matrix is exactly singular: zpotrf fails,
    # and four eigenvalues sit at round-off, about 1e-16 against 4.4.
    # The direct solve then takes the minimum-norm solution over the
    # rest, which gelsd gives with the matching cut on singular values
    # (gelsd's own cut keeps round-off null directions: 100% off).
    summed, mask, seps = bench_split()
    out, report = sms_separate(summed, seps, mask)
    assert (report.iterations, report.converged, report.notes) == (1, True, ())
    trace = report.objective_trace
    assert trace[0] == pytest.approx(np.sum(np.abs(summed.values[mask.acquired]) ** 2), rel=1e-14)
    assert trace[1] == pytest.approx(split_objective(out, summed, mask, seps, 1.0), rel=1e-9)
    rows, rhs = loop_rows(seps, mask.acquired, 1.0, summed.values)
    n = rows.shape[1]
    want = scipy.linalg.lstsq(rows, rhs, cond=np.sqrt(n * EPS), lapack_driver="gelsd")[0]
    got = out.stack().reshape(-1)
    # Measured: 1.6e-10, against kappa eps = 4.4e-10.
    assert np.linalg.norm(got - want) <= 4 * report.conditioning * EPS * np.linalg.norm(want)
    # The condition number over the range: the extreme eigenvalues kept.
    taps, acq = split_taps(seps), mask.acquired[None]
    y = np.where(acq, summed.values, 0.0)
    shape = (2,) + acq.shape[1:]
    d = np.flatnonzero(acq)[:, None] + acq.size * np.arange(2)
    free, x = np.ones(shape, dtype=bool), np.zeros(shape, dtype=complex)
    m, _ = lpk.recon._normal_system(taps, free, x, 1.0, d, y[acq])
    assert scipy.linalg.lapack.zpotrf(m, lower=1)[1] > 0
    sv = np.linalg.svd(m, compute_uv=False)
    kept = sv[sv > n * EPS * sv[0]]
    assert sv.size - kept.size == 4
    kappa = report.conditioning
    assert kappa == pytest.approx(kept[0] / kept[-1], rel=n * EPS * kappa)


EPS = np.finfo(float).eps


def split_taps(seps):
    """The split's ``[R, R, *W]`` bank: ``h[m, q] = f_m - [q = m] δ₀``."""
    taps = np.repeat(np.stack([f.taps for f in seps])[:, None], len(seps), axis=1)
    for m, f in enumerate(seps):
        taps[(m, m) + (f.L,) * f.taps.ndim] -= 1.0
    return taps


def test_bench_separators_bound_the_joint_split():
    # nrmse.sms = 0.27 is a limit of the separator model, not of the solve.
    grid = centered_grid(64, 1.0)
    truth = sms_slice_samples(SmsScene(bench_slices()), grid)
    summed = sms_superpose(truth)
    mask = gen_mask(MaskSpec("uniform", 2, 12), grid)
    seps = [sms_fit_separator(truth, m, 2, 2, mask.calib)[0] for m in range(2)]
    # The fully sampled split, on its valid grid, is the best the separators do.
    direct, _ = sms_separate(summed, seps)
    valid = grid.valid_for(2, 2)
    ref = np.array([t.values[2:2 + valid.shape[0]] for t in truth])
    assert rel(direct.stack(), ref) == pytest.approx(0.100, abs=5e-4)
    # They add up to nearly the k = 0 tap, so summed over m the relations
    # hardly constrain the sum where it was not acquired.
    delta = np.zeros(5)
    delta[2] = 1.0
    assert np.linalg.norm(seps[0].taps + seps[1].taps - delta) < 0.01
    out, _ = sms_separate(summed, seps, mask)
    total, acq = out.stack().sum(axis=0), mask.acquired
    assert rel(total[~acq], summed.values[~acq]) > 1.0
    assert rel(total[acq], summed.values[acq]) < 1e-4


@pytest.mark.parametrize(
    "spec", [MaskSpec("full", 1), MaskSpec("uniform", 2, 12)], ids=["full", "uniform"]
)
def test_mask_on_another_grid_is_rejected(spec):
    grid = centered_grid(64, 1.0)
    summed = sms_superpose(sms_slice_samples(SmsScene(bench_slices()), grid))
    seps = [Filter(np.array([0.5, 0.0, 0.1]), 1, 1), Filter(np.array([0.5, 1.0, 0.0]), 1, 1)]
    with pytest.raises(GridMismatchError):
        sms_separate(summed, seps, gen_mask(spec, centered_grid(48, 1.0)))


@pytest.mark.parametrize(
    "spec", [MaskSpec("full", 1), MaskSpec("uniform", 2, 12)], ids=["full", "uniform"]
)
def test_a_sum_of_coil_stacks_is_rejected(spec):
    # Both paths split one single-channel sum; a coil stack would fail
    # inside scipy (full) or with an IndexError (undersampled).
    grid = centered_grid(64, 1.0)
    scene = SmsScene(bench_slices(), make_sensitivities(2, 2, seed=3))
    summed = sms_superpose(sms_slice_samples(scene, grid))
    seps = [Filter(np.array([0.5, 0.0, 0.1]), 1, 1), Filter(np.array([0.5, 1.0, 0.0]), 1, 1)]
    with pytest.raises(ValueError, match="^sms_separate splits one single-channel KSignal, got "
                                         "MultiKSignal$"):
        sms_separate(summed, seps, gen_mask(spec, grid))


def test_separators_that_do_not_fit_the_sum_are_rejected():
    summed = KSignal(KGrid((-1,), (1,), (1.0,)), np.ones(3))
    with pytest.raises(ValueError, match="^filter \\[-2, 2\\] leaves no valid output on"):
        sms_separate(summed, [Filter(np.ones(5), 2, 2)])
    with pytest.raises(ValueError, match="^filter dims do not match data dims$"):
        sms_separate(summed, [Filter(np.ones((2, 2)), 0, 1)])


def loop_normal(seps, acq, lam):
    """The joint split's normal operator as a loop over the separators:
    relation ``m`` is the valid-mode convolution of the sum with ``f_m``
    less slice ``m`` on the valid range, and goes back by full-mode
    convolution with the conjugate-reversed taps."""
    L = seps[0].L
    vsl = tuple(slice(seps[0].P, n - L) for n in acq.shape)
    shape = (len(seps),) + acq.shape

    def apply_a(vec):
        x = vec.reshape(shape)
        t = x.sum(axis=0)
        out = np.broadcast_to(np.where(acq, t, 0.0), shape).copy()
        for m, f in enumerate(seps):
            resp = scipy.signal.convolve(t, f.taps, mode="valid", method="direct") - x[m][vsl]
            rev = np.conj(f.taps[(slice(None, None, -1),) * f.taps.ndim])
            out += lam * scipy.signal.convolve(resp, rev, mode="full", method="direct")
            out[m][vsl] -= lam * resp
        return out.reshape(-1)

    return apply_a


def loop_rows(seps, acq, lam, summed):
    """The joint split's least-squares rows on identity columns, and its
    right-hand side: the sum at acquired samples, then ``sqrt(lam)`` times
    each separator relation from the loop of :func:`loop_normal`."""
    L = seps[0].L
    vsl = tuple(slice(seps[0].P, n - L) for n in acq.shape)
    shape = (len(seps),) + acq.shape

    def rows(vec):
        x = vec.reshape(shape)
        t = x.sum(axis=0)
        relations = [
            scipy.signal.convolve(t, f.taps, mode="valid", method="direct") - x[m][vsl]
            for m, f in enumerate(seps)
        ]
        return np.concatenate([t[acq]] + [np.sqrt(lam) * r.ravel() for r in relations])

    eye = np.eye(int(np.prod(shape)))
    matrix = np.array([rows(e) for e in eye]).T
    rhs = np.zeros(matrix.shape[0], dtype=complex)
    rhs[: int(acq.sum())] = summed[acq]
    return matrix, rhs


def cplx(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@st.composite
def separation_cases(draw):
    """Random separators, a random mask with samples missing and a
    weight: 1D or 2D, R in 2..3, L != P, on grids of 24 samples and up
    (1D) or 5 past the tap width (2D)."""
    dims = draw(st.sampled_from([1, 2]))
    r_count = draw(st.integers(2, 3))
    L = draw(st.integers(0, 3))
    P = draw(st.integers(0, 3).filter(lambda p: p != L))
    width = L + P + 1
    low = 24 if dims == 1 else width + 5
    shape = tuple(draw(st.integers(low, low + 6)) for _ in range(dims))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    seps = [Filter(cplx(rng, (width,) * dims), L, P) for _ in range(r_count)]
    acq = rng.random(shape) < draw(st.floats(0.2, 0.8))
    acq.flat[rng.integers(acq.size)] = False
    return rng, seps, acq, draw(st.sampled_from([0.5, 1.0, 2.0]))


# A bound on the unknowns that forces each path of ``recon._bank_solve``
# by the bank evaluation it runs on: the normal matrix assembled from
# window rows and solved directly, or CG on the FFT evaluation.
FORCING = {"window": 2**62, "fft": -1}


@contextlib.contextmanager
def forced(evaluation):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lpk.recon, "_DIRECT_UNKNOWNS", FORCING[evaluation])
        yield


@contextlib.contextmanager
def split_constants(lam=None, tol=None, max_iters=None):
    """The undersampled split's relation weight and solve budget, patched
    for one block the way ``forced`` patches the direct-solve bound."""
    values = {"_SMS_LAM": lam, "_SMS_TOL": tol, "_SMS_MAX_ITERS": max_iters}
    with pytest.MonkeyPatch.context() as mp:
        for name, value in values.items():
            if value is not None:
                mp.setattr(lpk.multi, name, value)
        yield


def solved_normal(seps, acq, lam):
    """The normal operator ``sms_separate`` hands to CG, taken from a
    solve of zero data (which takes no step)."""
    grid = centered_grid(acq.shape, 1.0)
    seen = []
    cg = lpk.recon._cg

    def spy(apply_a, *args):
        seen.append(apply_a)
        return cg(apply_a, *args)

    with pytest.MonkeyPatch.context() as mp, forced("fft"), split_constants(lam=lam):
        mp.setattr(lpk.recon, "_cg", spy)
        zeros = KSignal(grid, np.zeros(acq.shape, complex))
        sms_separate(zeros, seps, SamplingMask(grid, acq))
    (apply_a,) = seen
    return apply_a


def assembled_normal(seps, acq, lam):
    """The normal matrix the direct solve assembles for the split."""
    y = np.zeros((1,) + acq.shape, dtype=complex)
    shape = (len(seps),) + acq.shape
    free = np.ones(shape, dtype=bool)
    d = np.flatnonzero(acq)[:, None] + acq.size * np.arange(len(seps))
    x = np.zeros(shape, dtype=complex)
    m, _ = lpk.recon._normal_system(split_taps(seps), free, x, lam, d, y[0][acq])
    return lambda vec: m @ vec


@settings(derandomize=True, max_examples=40, deadline=None)
@given(case=separation_cases())
def test_joint_normal_operator_matches_the_separator_loop(case):
    # The CG operator on a random vector, and the assembled matrix on
    # every identity column of the draws the direct solve takes (every
    # 1D one) and on the random vector above that.
    rng, seps, acq, lam = case
    vec = cplx(rng, (len(seps),) + acq.shape).reshape(-1)
    small = vec.size <= lpk.recon._DIRECT_UNKNOWNS
    columns = np.eye(vec.size, dtype=complex) if small else vec[:, None]
    loop = loop_normal(seps, acq, lam)
    for vecs, normal in ((vec[:, None], solved_normal), (columns, assembled_normal)):
        want = np.array([loop(v) for v in vecs.T]).T
        got = np.array([normal(seps, acq, lam)(v) for v in vecs.T]).T
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(case=separation_cases())
def test_joint_solve_matches_cg_on_the_separator_loop(case):
    # Ten steps: CG's iterates on these systems amplify round-off after
    # about fifteen.  Over 200 cases drawn like these, scaling the loop
    # operator by 1 + 2^-52 moved the 25th iterate by up to 7e-3 and the
    # tenth by at most 1e-14.
    rng, seps, acq, lam = case
    grid = centered_grid(acq.shape, 1.0)
    summed = KSignal(grid, cplx(rng, acq.shape))
    shape = (len(seps),) + acq.shape
    b = np.broadcast_to(np.where(acq, summed.values, 0.0), shape).reshape(-1)
    want, iters, *_ = lpk.recon._cg(loop_normal(seps, acq, lam), b.copy(), 1e-30, 10)
    assert iters == 10
    with forced("fft"), split_constants(lam=lam, tol=1e-30, max_iters=10):
        out, report = sms_separate(summed, seps, SamplingMask(grid, acq))
    assert report.iterations == iters
    got = out.stack().reshape(-1)
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def test_coil_separation_is_the_per_coil_convolution_sum():
    grid = centered_grid(64, 1.0)
    truth = sms_slice_samples(SmsScene(bench_slices(), make_sensitivities(2, 2, seed=3)), grid)
    summed = sms_superpose(truth)
    L = P = 2
    seps = [
        [sms_fit_separator_coils(truth, m, c, L, P, ((-8, 8),))[0] for c in range(2)]
        for m in range(2)
    ]
    # Slice m, coil c is separator (m, c) applied jointly to the summed coils.
    out = [MultiKSignal(tuple(conv_response(summed, mf) for mf in per_slice)) for per_slice in seps]
    valid = grid.valid_for(L, P)
    lo = valid.n_min[0] - grid.n_min[0]
    for m, per_slice in enumerate(seps):
        for c, mf in enumerate(per_slice):
            want = sum(np.convolve(x, t, mode="valid") for x, t in zip(summed.values, mf.taps))
            assert out[m].channels[c].grid == valid
            assert np.allclose(out[m].channels[c].values, want, rtol=0, atol=1e-13)
        # Two coils separate this scene far better than one coil does (0.10).
        ref = truth[m].stack()[:, lo:lo + valid.shape[0]]
        assert rel(out[m].stack(), ref) <= 0.03


def slices_2d():
    return (
        Phantom(
            (
                Primitive("ellipse", (-0.1, 0.05), (0.15, 0.2), 1.0),
                Primitive("boxcar", (0.12, -0.1), (0.06, 0.08), 0.5j),
            ),
            (1.0, 1.0),
        ),
        Phantom(
            (
                Primitive("boxcar", (0.4, 0.38), (0.05, 0.06), 0.8),
                Primitive("ellipse", (-0.4, -0.38), (0.06, 0.05), 0.7j),
            ),
            (1.0, 1.0),
        ),
    )


def test_separator_fits_in_2d():
    # Fitted on the whole grid, each coil's report is the RMS of the filter
    # over the sum less the target coil, and over the other slice alone.
    grid = centered_grid((32, 32), 1.0)
    L = P = 2
    inner = (slice(L, -P),) * 2  # the valid grid within the full one
    truth = sms_slice_samples(SmsScene(slices_2d(), make_sensitivities(2, 1, seed=3, dims=2)), grid)
    summed = sms_superpose(truth)
    for m in range(2):
        for c in range(2):
            mf, report = sms_fit_separator_coils(truth, m, c, L, P)
            assert mf.taps.shape == (2, 5, 5)
            repro = conv_response(summed, mf).values - truth[m].channels[c].values[inner]
            leak = conv_response(truth[1 - m], mf).values
            assert report.rows == repro.size == 28 * 28
            assert report.residual == pytest.approx(np.sqrt(np.mean(np.abs(repro) ** 2)), rel=1e-9)
            assert report.leakage == pytest.approx(np.sqrt(np.mean(np.abs(leak) ** 2)), rel=1e-9)
    # One coil, a central calibration block: the direct split of the sum
    # recovers both slices (nrmse 0.005 and 0.015).
    single = sms_slice_samples(SmsScene(slices_2d()), grid)
    seps = [sms_fit_separator(single, m, L, P, ((-6, 5), (-6, 5)))[0] for m in range(2)]
    out, _ = sms_separate(sms_superpose(single), seps)
    for m in range(2):
        assert rel(out.channels[m].values, single[m].values[inner]) <= 0.03


def test_superpose_rejects_slices_of_another_kind_grid_or_coil_count():
    grid = centered_grid(32, 1.0)
    scene = SmsScene(bench_slices(), make_sensitivities(3, 2, seed=3))
    three = sms_slice_samples(scene, grid)
    two = MultiKSignal(three[0].channels[:2])
    other_fov = MultiKSignal.from_array(centered_grid(32, 2.0), three[1].values)
    for slices in (
        (two, three[1]),  # a 3-coil slice after a 2-coil one
        (three[0], other_fov),  # coil stacks on fov 1 and fov 2
        (three[0].channels[0], MultiKSignal(three[1].channels[:1])),  # KSignal, then a stack
    ):
        with pytest.raises(ValueError):
            sms_superpose(slices)
    summed = sms_superpose(three)
    assert summed.q_count == 3
    assert np.array_equal(summed.values, three[0].values + three[1].values)


@pytest.mark.parametrize("b", [1.0, 2.0])
def test_multichannel_identity_with_nonzero_energy(b):
    # A filter that does not cancel the modulators leaves energy on both
    # sides; they agree at any field of view B, well within a small tail.
    phantom = Phantom((Primitive("boxcar", (0.1 * b,), (b / 4,), 1.0),), (b,))
    sens = (
        Modulator(b * np.array([1.0, 0.5j]), (0,)),
        Modulator(b * np.array([0.3, 1.0, -0.4j]), (-1,)),
    )
    mf = MultiFilter((
        Filter(np.array([0.2, 1.0, -0.5j]), 1, 1),
        Filter(np.array([0.7j, -0.3, 0.1]), 1, 1),
    ))
    chk = check_multichannel_identity(phantom, sens, mf, centered_grid(1 << 16, b))
    assert chk.tail_bound < 1e-3 * chk.rhs
    assert abs(chk.lhs - chk.rhs) <= max(1e-6 * chk.rhs, chk.tail_bound)


def test_superposition_identity_rejects_slices_on_other_fovs():
    slices = (
        Phantom((Primitive("boxcar", (0.0,), (0.04,), 1.0),), (1.0,)),
        Phantom((Primitive("boxcar", (-0.45,), (0.04,), 1.0),), (2.0,)),
    )
    with pytest.raises(ValueError, match="slices must share the field of view"):
        check_superposition_identity(
            slices, 0, Filter(np.array([0.5, 0.5]), 1, 0), centered_grid(1024, 1.0)
        )


@st.composite
def phantoms(draw, fov):
    """One to three primitives of any kind, inside the field of view."""
    prims = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["boxcar", "ellipse", "point"]))
        extent = tuple(
            0.0 if kind == "point" else draw(st.floats(0.01 * b, 0.25 * b)) for b in fov
        )
        center = tuple(draw(st.floats(-(b / 2 - w), b / 2 - w)) for b, w in zip(fov, extent))
        amp = complex(draw(st.floats(-5, 5)), draw(st.floats(-5, 5)))
        prims.append(Primitive(kind, center, extent, amp))
    return Phantom(tuple(prims), fov)


@st.composite
def modulators(draw, dims):
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    shape = tuple(draw(st.integers(1, 3)) for _ in range(dims))
    coeffs = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return Modulator(coeffs, tuple(draw(st.integers(-2, 0)) for _ in range(dims)))


@st.composite
def scenes(draw):
    """A multi-channel scene, or a superposition scene with or without
    coils, in 1D or 2D, on an irregular field of view."""
    dims = draw(st.sampled_from([1, 2]))
    fov = tuple(draw(st.floats(0.5, 3.0)) for _ in range(dims))
    coils = tuple(draw(modulators(dims)) for _ in range(draw(st.integers(1, 3))))
    if draw(st.booleans()):
        return MultiScene(draw(phantoms(fov)), coils)
    slices = tuple(draw(phantoms(fov)) for _ in range(draw(st.integers(2, 3))))
    return SmsScene(slices, coils if draw(st.booleans()) else None)


def scene_stacks(scene, grid):
    """Every closed-form sample array a scene yields on a grid."""
    if isinstance(scene, MultiScene):
        return [scene_samples(scene, grid).stack()]
    slices = sms_slice_samples(scene, grid)
    return [s.values if isinstance(s, KSignal) else s.stack() for s in slices]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(scene=scenes())
def test_scene_json_round_trip_keeps_samples(scene):
    back = scene_from_json(json.loads(json.dumps(scene_to_json(scene))))
    assert type(back) is type(scene)
    fov = (scene.phantom if isinstance(scene, MultiScene) else scene.slices[0]).fov
    grid = centered_grid((9,) if len(fov) == 1 else (6, 5), fov)
    got, want = scene_stacks(back, grid), scene_stacks(scene, grid)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("which", ["multi", "sms", "sms-coils"])
def test_scene_file_round_trip(tmp_path, which):
    coils = make_sensitivities(3, 2, seed=4, dims=2)
    fov = (1.0, 1.25)
    slices = tuple(
        Phantom((Primitive("ellipse", (c, 0.1), (0.2, 0.15), 2.0 - 1j),
                 Primitive("boxcar", (-0.2, c), (0.1, 0.05), 0.5)), fov)
        for c in (0.05, -0.1)
    )
    scene = {
        "multi": MultiScene(slices[0], coils),
        "sms": SmsScene(slices),
        "sms-coils": SmsScene(slices, coils),
    }[which]
    write_json(tmp_path / "scene.json", scene_to_json(scene))
    back = scene_from_json(read_json(tmp_path / "scene.json"))
    assert type(back) is type(scene)
    assert scene_to_json(back) == scene_to_json(scene)
    grid = centered_grid((6, 5), fov)
    for g, w in zip(scene_stacks(back, grid), scene_stacks(scene, grid), strict=True):
        assert g.tobytes() == w.tobytes()
