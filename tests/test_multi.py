"""Channel fits and slice separation: SMASH fits, separator fits, and
both separation paths against direct convolution and the closed form;
scene JSON round trips."""

import contextlib
import json

import numpy as np
import pytest
import scipy.signal
from hypothesis import given, settings, strategies as st

import lpk.recon
from lpk.core import (
    Filter,
    GridMismatchError,
    KSignal,
    MultiKSignal,
    SamplingMask,
    centered_grid,
    conv_apply,
    conv_response,
)
from lpk.harness import MaskSpec, gen_mask, make_sensitivities
from lpk.multi import (
    MultiScene,
    SmsScene,
    _joint_normal,
    scene_from_json,
    scene_samples,
    scene_to_json,
    smash_fit,
    sms_fit_separator,
    sms_fit_separator_coils,
    sms_separate,
    sms_separate_coils,
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
        want = conv_apply(summed, f)
        assert out.channels[m].grid == want.grid
        assert np.array_equal(out.channels[m].values, want.values)


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
    _, capped = sms_separate(sms_superpose(truth), seps, mask, max_iters=5)
    assert (capped.converged, capped.iterations) == (False, 5)
    (note,) = capped.notes
    assert note.startswith("CG stopped at the iteration cap (5); relative residual ")


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


# A bound on the lifted window matrix that forces each evaluation of
# ``recon._BankOperator``.
FORCING = {"window": 2**62, "fft": 0}


@contextlib.contextmanager
def forced(evaluation):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lpk.recon, "_WINDOW_CELLS", FORCING[evaluation])
        yield


@settings(derandomize=True, max_examples=40, deadline=None)
@given(case=separation_cases())
def test_joint_normal_operator_matches_the_separator_loop(case):
    rng, seps, acq, lam = case
    vec = cplx(rng, (len(seps),) + acq.shape).reshape(-1)
    want = loop_normal(seps, acq, lam)(vec)
    for evaluation in FORCING:
        with forced(evaluation):
            got = _joint_normal(seps, acq, lam)(vec)
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
    for evaluation in FORCING:
        with forced(evaluation):
            out, report = sms_separate(
                summed, seps, SamplingMask(grid, acq), lam=lam, tol=1e-30, max_iters=10
            )
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
    out = sms_separate_coils(summed, seps)
    valid = grid.valid_for(L, P)
    lo = valid.n_min[0] - grid.n_min[0]
    for m, per_slice in enumerate(seps):
        for c, mf in enumerate(per_slice):
            want = sum(conv_apply(summed.channels[q], f).values for q, f in enumerate(mf.filters))
            assert out[m].channels[c].grid == valid
            assert np.allclose(out[m].channels[c].values, want, rtol=0, atol=1e-13)
        # Two coils separate this scene far better than one coil does (0.10).
        ref = truth[m].stack()[:, lo:lo + valid.shape[0]]
        assert rel(out[m].stack(), ref) <= 0.03


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
