"""Channel fits and slice separation: SMASH fits, separator fits, and
both separation paths against direct convolution and the closed form."""

import numpy as np
import pytest

from lpk.core import MultiKSignal, centered_grid, conv_apply, conv_response
from lpk.harness import MaskSpec, gen_mask, make_sensitivities
from lpk.multi import (
    SmsScene,
    smash_fit,
    sms_fit_separator,
    sms_fit_separator_coils,
    sms_separate,
    sms_separate_coils,
    sms_slice_samples,
    sms_superpose,
)
from lpk.phantom import Phantom, Primitive, modulated_samples


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
