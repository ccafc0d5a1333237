"""Slice-separator fits: the single-coil fit is the one-coil coils fit."""

import numpy as np
import pytest

from lpk.core import MultiKSignal, centered_grid
from lpk.multi import SmsScene, sms_fit_separator, sms_fit_separator_coils, sms_slice_samples
from lpk.phantom import Phantom, Primitive


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
