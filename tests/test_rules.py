"""Each input rule of ``lpk.core`` at every entry point that takes the input.

A window ``[-L, P]`` is two nonnegative integers (``core._window``), a
channel, slice or coil is an integer index below the count
(``core._index``), and a weight is finite and nonnegative
(``core._weight``).  Each table row calls one public entry point with
one bad value; the error must be a ``ValueError`` that names the input,
raised before any work, never a truncated value or a failure inside
numpy.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from lpk.core import Filter, KSignal, MultiFilter, MultiKSignal, centered_grid
from lpk.harness import MaskSpec, add_noise, demo_scene_1d, gen_mask
from lpk.lp import (
    FilterBank,
    build_calib_matrix,
    fit_interpolation_filters,
    fit_prediction_filter,
    gram_operator,
    interpolate_missing,
    missing_patterns,
    nullspace_filter_bank,
    pattern_signature,
)
from lpk.multi import (
    check_superposition_identity,
    scene_samples,
    smash_fit,
    sms_fit_separator,
    sms_fit_separator_coils,
)
from lpk.phantom import Phantom, Primitive
from lpk.recon import annihilation_recon, lift, lowrank_complete, pf_recon


@pytest.fixture(scope="module")
def x():
    """Valid inputs on a 32-point grid: two channels, a uniform R = 2 mask
    with an 8-wide calibration block, and the pieces built from them."""
    scene = demo_scene_1d()
    grid = centered_grid(32, 1.0)
    full = scene_samples(scene, grid)
    data = MultiKSignal.from_array(full.grid, full.values[:2])
    mask = gen_mask(MaskSpec("uniform", 2, 8), grid)
    box = Phantom((Primitive("boxcar", (0.0,), (0.25,), 1.0),), (1.0,))
    return SimpleNamespace(
        data=data,
        mask=mask,
        sens=scene.sensitivities[:2],
        slices=[KSignal(grid, v) for v in data.values],
        coil_slices=[data, MultiKSignal.from_array(grid, data.values[::-1])],
        cm=build_calib_matrix(data, None, 1, 1),
        bank=nullspace_filter_bank(data, mask.calib, 1, 1),
        box=box,
        phantoms=(box, Phantom((Primitive("boxcar", (0.4,), (0.05,), 1.0),), (1.0,))),
    )


WINDOWS = {
    "Filter": lambda x, L: Filter(np.ones(2), L, 0),
    "MultiFilter.from_array": lambda x, L: MultiFilter.from_array(np.ones((2, 2)), L, 0),
    "FilterBank": lambda x, L: FilterBank(np.ones((1, 2, 2)), L, 0, [0.0]),
    "build_calib_matrix": lambda x, L: build_calib_matrix(x.data, None, L, 1),
    "nullspace_filter_bank": lambda x, L: nullspace_filter_bank(x.data, None, L, 1),
    "pattern_signature": lambda x, L: pattern_signature(x.mask, 0, L, 1),
    "missing_patterns": lambda x, L: missing_patterns(x.mask, L, 1),
    "fit_interpolation_filters": lambda x, L: fit_interpolation_filters(x.data, x.mask, L, 1),
    "interpolate_missing": lambda x, L: interpolate_missing(x.data, x.mask, {}, L, 1),
    "gram_operator": lambda x, L: gram_operator(x.box, L, 1),
    "lift": lambda x, L: lift(x.data, L, 1),
    "lowrank_complete": lambda x, L: lowrank_complete(x.data, x.mask, L, 1, max_iters=0),
    "pf_recon": lambda x, L: pf_recon(x.data, x.mask, L, 0),
    "smash_fit": lambda x, L: smash_fit(x.sens, L, 1),
    "sms_fit_separator": lambda x, L: sms_fit_separator(x.slices, 0, L, 0),
}


@pytest.mark.parametrize("L", [1.5, True, -1], ids=["float", "bool", "negative"])
@pytest.mark.parametrize("call", WINDOWS.values(), ids=WINDOWS.keys())
def test_every_window_is_two_nonnegative_integers(x, call, L):
    # Filter, the bank file and the calibration routines truncated 1.5 and
    # True to 1; smash_fit failed inside numpy on -1.
    with pytest.raises(ValueError, match="^L (must be an integer|and P must be nonnegative)"):
        call(x, L)


# (entry point, what it calls the index, how many there are)
TARGETS = {
    "fit_prediction_filter": (
        lambda x, t: fit_prediction_filter(x.cm, t), "target channel", 2),
    "smash_fit": (lambda x, t: smash_fit(x.sens, 1, 1, t), "target channel", 2),
    "sms_fit_separator": (lambda x, t: sms_fit_separator(x.slices, t, 1, 0), "target slice", 2),
    "sms_fit_separator_coils-slice": (
        lambda x, t: sms_fit_separator_coils(x.coil_slices, t, 0, 1, 0), "target slice", 2),
    "sms_fit_separator_coils-coil": (
        lambda x, t: sms_fit_separator_coils(x.coil_slices, 0, t, 1, 0), "target coil", 2),
    "check_superposition_identity": (
        lambda x, t: check_superposition_identity(
            x.phantoms, t, Filter(np.array([0.5, 0.5]), 1, 0), centered_grid(64, 1.0)
        ),
        "target slice", 2),
}


@pytest.mark.parametrize("bad", [True, 0.5, -1, "count"])
@pytest.mark.parametrize("call,key,count", TARGETS.values(), ids=TARGETS.keys())
def test_every_target_is_an_integer_below_the_count(x, call, key, count, bad):
    # True anchored channel 1 and 0.5 failed inside numpy.
    bad = count if bad == "count" else bad
    with pytest.raises(ValueError, match=f"^{key} must (be an integer|lie in \\[0, {count}\\))"):
        call(x, bad)


# (entry point, the weight's name)
WEIGHTS = {
    "fit_prediction_filter": (lambda x, w: fit_prediction_filter(x.cm, ridge=w), "ridge"),
    "fit_interpolation_filters": (
        lambda x, w: fit_interpolation_filters(x.data, x.mask, 1, 1, w), "ridge"),
    "smash_fit": (lambda x, w: smash_fit(x.sens, 1, 1, ridge=w), "ridge"),
    "sms_fit_separator-ridge": (
        lambda x, w: sms_fit_separator(x.slices, 0, 1, 0, ridge=w), "ridge"),
    "sms_fit_separator-mu": (lambda x, w: sms_fit_separator(x.slices, 0, 1, 0, mu=w), "mu"),
    "annihilation_recon": (
        lambda x, w: annihilation_recon(x.data, x.mask, x.bank, lam=w), "lam"),
    "add_noise": (lambda x, w: add_noise(x.data, w, 0), "sigma"),
    "nullspace_filter_bank": (lambda x, w: nullspace_filter_bank(x.data, None, 1, 1, w), "tau"),
    "lowrank_complete": (lambda x, w: lowrank_complete(x.data, x.mask, 1, 1, tau=w), "tau"),
    "pf_recon": (lambda x, w: pf_recon(x.data, x.mask, 1, 0, tau=w), "tau"),
}


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
@pytest.mark.parametrize("call,key", WEIGHTS.values(), ids=WEIGHTS.keys())
def test_every_weight_is_finite_and_nonnegative(x, call, key, bad):
    # A NaN tau kept one filter or picked rank 1, and a NaN mu dropped the
    # leakage rows, without a word.
    with pytest.raises(ValueError, match=f"^{key} must be finite and nonnegative, not {bad}$"):
        call(x, bad)


@pytest.mark.parametrize("anchor", [True, 0.5])
def test_an_anchor_is_an_integer(anchor):
    # Channel 1's k = 0 tap is -1, so True was read as channel 1 and 0.5
    # as channel 0.
    taps = np.array([[-1.0, 0.5], [-1.0, 0.5]])
    with pytest.raises(ValueError, match=f"^filter anchor must be an integer, got {anchor}$"):
        MultiFilter.from_array(taps, 0, 1, anchor)
