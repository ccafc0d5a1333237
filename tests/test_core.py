"""Grid, signal, filter, and mask invariants, zero fill, and the joint
response oracle ``conftest.conv_response``."""

import copy
import pickle

import numpy as np
import pytest
import scipy.signal
from hypothesis import given, settings, strategies as st

from conftest import conv_response, signals_allclose
from lpk.core import (
    Filter,
    GridMismatchError,
    KGrid,
    KSignal,
    MultiFilter,
    MultiKSignal,
    SamplingMask,
    centered_grid,
    zero_fill,
)


def grid1d(lo, hi, fov=1.0):
    return KGrid((lo,), (hi,), (fov,))


class TestKGrid:
    def test_contains_origin_required(self):
        with pytest.raises(ValueError):
            KGrid((1,), (4,), (1.0,))
        with pytest.raises(ValueError):
            KGrid((-4,), (-1,), (1.0,))

    def test_minimum_two_points(self):
        with pytest.raises(ValueError):
            KGrid((0,), (0,), (1.0,))

    def test_positive_fov(self):
        with pytest.raises(ValueError):
            KGrid((-2,), (2,), (0.0,))
        with pytest.raises(ValueError):
            KGrid((-2,), (2,), (-1.0,))

    def test_window_skips_origin_check(self):
        g = KGrid.window((3,), (5,), (1.0,))
        assert (g.n_min, g.n_max, g.shape) == ((3,), (5,), (3,))

    def test_shape_size_2d(self):
        g = KGrid((-2, -1), (2, 3), (1.0, 2.0))
        assert g.dims == 2
        assert g.shape == (5, 5)
        assert g.size == 25

    def test_centered_grid_even_odd(self):
        assert centered_grid(16, 1.0).n_min == (-8,)
        assert centered_grid(16, 1.0).n_max == (7,)
        assert centered_grid(17, 1.0).n_min == (-8,)
        assert centered_grid(17, 1.0).n_max == (8,)

    def test_valid_for_shrinks_range(self):
        g = grid1d(-4, 4)
        v = g.valid_for(1, 2)
        assert (v.n_min, v.n_max) == ((-2,), (3,))
        with pytest.raises(ValueError):
            grid1d(-1, 1).valid_for(2, 2)


class TestKSignal:
    def test_length_must_match_grid(self):
        with pytest.raises(ValueError):
            KSignal(grid1d(-2, 2), np.zeros(4))

    def test_rejects_non_finite(self):
        vals = np.array([1.0, np.nan, 0.0, 0.0, 0.0], dtype=complex)
        with pytest.raises(ValueError):
            KSignal(grid1d(-2, 2), vals)
        vals = np.array([1.0, np.inf, 0.0, 0.0, 0.0], dtype=complex)
        with pytest.raises(ValueError):
            KSignal(grid1d(-2, 2), vals)

    def test_values_read_only(self):
        s = KSignal(grid1d(-1, 1), np.ones(3))
        with pytest.raises(ValueError):
            s.values[0] = 5.0


class TestMultiKSignal:
    def test_channels_share_grid(self):
        a = KSignal(grid1d(-1, 1), np.ones(3))
        b = KSignal(grid1d(-1, 2), np.ones(4))
        with pytest.raises(ValueError):
            MultiKSignal((a, b))

    def test_q_count_and_stack(self):
        g = grid1d(-1, 1)
        ms = MultiKSignal(
            (KSignal(g, np.array([1, 2, 3.0])), KSignal(g, np.array([4, 5, 6.0])))
        )
        assert ms.q_count == 2
        assert ms.stack().shape == (2, 3)
        rebuilt = MultiKSignal.from_array(g, ms.stack())
        assert signals_allclose(rebuilt.channels[1], ms.channels[1])

    def test_needs_at_least_one_channel(self):
        with pytest.raises(ValueError):
            MultiKSignal(())

    def test_values_are_one_read_only_stack_the_channels_view(self):
        g = centered_grid((4, 3), 1.0)
        rng = np.random.default_rng(0)
        arr = rng.standard_normal((2,) + g.shape) + 1j * rng.standard_normal((2,) + g.shape)
        for ms in (
            MultiKSignal.from_array(g, arr),
            MultiKSignal(tuple(KSignal(g, a) for a in arr)),
        ):
            assert ms.values.shape == (2, 4, 3) and ms.values.dtype == np.complex128
            assert not ms.values.flags.writeable
            assert np.array_equal(ms.values, arr)
            for q, ch in enumerate(ms.channels):
                assert ch.grid == g
                assert np.shares_memory(ch.values, ms.values)
                assert np.array_equal(ch.values, arr[q])
            # stack() stays a fresh writable copy.
            copy = ms.stack()
            assert copy.flags.writeable and not np.shares_memory(copy, ms.values)
        # The input array is copied, not kept.
        assert not np.shares_memory(MultiKSignal.from_array(g, arr).values, arr)


class TestFilter:
    def test_tap_length_matches_support(self):
        with pytest.raises(ValueError):
            Filter(np.ones(3), 0, 1)

    def test_all_zero_taps_rejected(self):
        with pytest.raises(ValueError):
            Filter(np.zeros(3), 1, 1)

    def test_2d_taps_square(self):
        f = Filter(np.ones((3, 3)), 1, 1)
        assert f.dims == 2
        with pytest.raises(ValueError):
            Filter(np.ones((3, 2)), 1, 1)


class TestMultiFilter:
    def test_shared_support_required(self):
        a = Filter(np.ones(2), 0, 1)
        b = Filter(np.ones(3), 1, 1)
        with pytest.raises(ValueError):
            MultiFilter((a, b))

    def test_stacks_the_filters_into_one_read_only_array(self):
        a = Filter(np.array([-1.0, 0.5j]), 0, 1)
        b = Filter(np.array([0.25, 0.0]), 0, 1)
        mf = MultiFilter([a, b])
        assert np.array_equal(mf.taps, np.stack([a.taps, b.taps]))
        assert not mf.taps.flags.writeable and not np.shares_memory(mf.taps, a.taps)
        # An anchor is set by the anchored fits through from_array only.
        assert (mf.L, mf.P, mf.q_count, mf.dims, mf.anchor_channel) == (0, 1, 2, 1, None)

    def test_from_array_copies_once_and_views_its_channels(self):
        taps = np.zeros((2, 3, 3), dtype=complex)
        taps[1, 1, 1] = -1.0
        mf = MultiFilter.from_array(taps, 1, 1, anchor=1)
        taps[1, 0, 0] = 5.0
        assert mf.taps[1, 0, 0] == 0 and not mf.taps.flags.writeable
        assert (mf.q_count, mf.dims, mf.anchor_channel) == (2, 2, 1)
        # A joint filter may be zero on a channel, as long as it is nonzero on one.
        for q, f in enumerate(mf.filters):
            assert np.shares_memory(f.taps, mf.taps) and np.array_equal(f.taps, mf.taps[q])
            assert (f.L, f.P) == (1, 1)
        assert MultiFilter.from_array(taps, 1, 1).anchor_channel is None


def test_strided_and_transposed_inputs_are_stored_c_ordered():
    # The finiteness check views the complex array as float64 pairs, which
    # needs a contiguous last axis; inputs need not have one.
    x = np.arange(16) * (1 + 1j)
    sig = KSignal(grid1d(-4, 3), x[::2])
    taps = np.arange(9.0).reshape(3, 3) - 4.0
    filt = Filter(taps.T, 1, 1)
    mf = MultiFilter.from_array(np.stack([taps, taps])[:, ::-1], 1, 1)
    for arr, want in ((sig.values, x[::2]), (filt.taps, taps.T), (mf.taps[0], taps[::-1])):
        assert arr.flags.c_contiguous and np.array_equal(arr, want)


# Every way of building taps runs one check: (per-channel taps, L, P, anchored, message).
# Only joint filters and banks carry an anchor.
BAD_TAPS = [
    (np.ones(2), -1, 2, False, "nonnegative"),
    (np.ones((2, 2, 2)), 0, 1, False, "nonempty"),
    (np.array(1.0), 0, 0, False, "nonempty"),
    (np.ones(3), 0, 1, False, "has shape"),
    (np.ones((2, 3)), 0, 1, False, "has shape"),
    (np.array([1.0, np.nan]), 0, 1, False, "non-finite"),
    (np.array([np.inf, 1.0]), 0, 1, False, "non-finite"),
    (np.zeros(3), 1, 1, False, "nonzero tap"),
    (np.array([1.0, 1.0]), 0, 1, True, "k=0 tap exactly -1"),
]


@pytest.mark.parametrize("taps,L,P,anchored,message", BAD_TAPS)
def test_filter_multifilter_and_bank_share_one_tap_check(taps, L, P, anchored, message):
    from lpk.lp import FilterBank

    anchor = 0 if anchored else None
    builds = [
        lambda: MultiFilter.from_array(taps[None], L, P, anchor),
        lambda: FilterBank(taps[None, None], L, P, (0.0,), (anchor,)),
    ]
    if not anchored:
        builds.append(lambda: Filter(taps, L, P))
    for build in builds:
        with pytest.raises(ValueError, match=message):
            build()


class TestSamplingMask:
    def test_acquired_length_checked(self):
        with pytest.raises(ValueError):
            SamplingMask(grid1d(-2, 2), np.ones(4, dtype=bool))

    def test_calib_inside_grid(self):
        g = grid1d(-4, 3)
        with pytest.raises(ValueError):
            SamplingMask(g, np.ones(8, dtype=bool), ((-5, 0),))

    def test_calib_bounds_must_be_integers(self):
        g = grid1d(-4, 3)
        with pytest.raises(ValueError, match="calib bound must be an integer, got -1.5"):
            SamplingMask(g, np.ones(8, dtype=bool), ((-1.5, 1.9),))
        with pytest.raises(ValueError, match="calib bound must be an integer, got 1.0"):
            SamplingMask(g, np.ones(8, dtype=bool), ((-1, 1.0),))
        m = SamplingMask(g, np.ones(8, dtype=bool), ((np.int64(-1), np.int32(1)),))
        assert m.calib == ((-1, 1),) and all(type(b) is int for b in m.calib[0])

    def test_calib_must_be_acquired(self):
        g = grid1d(-4, 3)
        acq = np.ones(8, dtype=bool)
        acq[2] = False  # index -2
        with pytest.raises(ValueError):
            SamplingMask(g, acq, ((-3, -1),))

    def test_calib_slices_and_counts(self):
        g = grid1d(-8, 7)
        acq = np.zeros(16, dtype=bool)
        acq[4:9] = True
        m = SamplingMask(g, acq, ((-4, 0),))
        assert m.calib_slices() == (slice(4, 9),)
        assert np.count_nonzero(m.acquired) == 5
        assert m.missing_positions().shape == (11, 1)

    def test_acquired_cannot_be_made_writeable(self):
        m = SamplingMask(grid1d(-4, 3), np.arange(8) % 2 == 0)
        with pytest.raises(ValueError):
            m.acquired.setflags(write=True)
        with pytest.raises(ValueError):
            m.acquired[0] = False


def value_objects():
    """One of each frozen value type that holds a read-only array."""
    from lpk.lp import FilterBank
    from lpk.phantom import Modulator

    g = grid1d(-4, 3)
    return [
        KSignal(g, np.arange(8.0)),
        MultiKSignal.from_array(g, np.ones((2, 8))),
        SamplingMask(g, np.arange(8) % 2 == 0, ((0, 0),)),
        Filter(np.array([0.5, -1.0, 0.25]), 1, 1),
        MultiFilter.from_array(np.array([[0.5, -1.0, 0.5], [1.0, 0.0, 0.0]]), 1, 1, 0),
        FilterBank(np.ones((2, 1, 3)), 1, 1, (0.1, 0.2)),
        Modulator(np.array([1.0, 2.0j]), (0,)),
    ]


@pytest.mark.parametrize("dup", [
    copy.deepcopy, copy.copy, lambda obj: pickle.loads(pickle.dumps(obj)),
], ids=["deepcopy", "copy", "pickle"])
@pytest.mark.parametrize("obj", value_objects(), ids=lambda obj: type(obj).__name__)
def test_copies_are_rebuilt_with_read_only_arrays(dup, obj):
    # A field-by-field restore gave back writeable arrays.
    twin = dup(obj)
    assert type(twin) is type(obj) and vars(twin).keys() == vars(obj).keys()
    for name, value in vars(obj).items():
        got = getattr(twin, name)
        if isinstance(value, np.ndarray):
            assert np.array_equal(got, value) and got.dtype == value.dtype
            assert not got.flags.writeable
        else:
            assert got == value


def test_a_copied_mask_cannot_leave_its_stored_groups_stale():
    from lpk.lp import missing_patterns

    mask = copy.deepcopy(SamplingMask(grid1d(-4, 3), np.arange(8) % 2 == 0))
    groups = missing_patterns(mask, 1, 1)
    with pytest.raises(ValueError):
        mask.acquired.setflags(write=True)
    assert sum(len(p) for p in groups.values()) == len(mask.missing_positions())


class TestZeroFill:
    def test_example_values(self):
        g = grid1d(-1, 1)
        data = KSignal(g, np.array([1.0, 2.0, 3.0]))
        mask = SamplingMask(g, np.array([True, False, True]))
        out = zero_fill(data, mask)
        assert np.array_equal(out.values, [1.0, 0.0, 3.0])

    def test_full_mask_is_identity(self):
        g = grid1d(-1, 1)
        data = KSignal(g, np.array([1.0, 2.0, 3.0]))
        out = zero_fill(data, SamplingMask(g, np.ones(3, dtype=bool)))
        assert signals_allclose(out, data)

    def test_empty_mask_zeroes_everything(self):
        g = grid1d(-1, 1)
        data = KSignal(g, np.array([1.0, 2.0, 3.0]))
        out = zero_fill(data, SamplingMask(g, np.zeros(3, dtype=bool)))
        assert np.array_equal(out.values, np.zeros(3))

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        g = grid1d(-8, 7)
        data = KSignal(g, rng.normal(size=16) + 1j * rng.normal(size=16))
        mask = SamplingMask(g, rng.random(16) < 0.5)
        once = zero_fill(data, mask)
        twice = zero_fill(once, mask)
        assert np.array_equal(once.values, twice.values)

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(data=st.data())
    def test_idempotent_on_random_masks(self, data):
        dims = data.draw(st.sampled_from([1, 2]))
        shape = tuple(data.draw(st.integers(2, 9)) for _ in range(dims))
        q_count = data.draw(st.integers(1, 3))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        g = centered_grid(shape, 1.0)
        mask = SamplingMask(g, rng.random(shape) < data.draw(st.floats(0.0, 1.0)))
        values = rng.normal(size=(q_count,) + shape) + 1j * rng.normal(size=(q_count,) + shape)
        sig = MultiKSignal.from_array(g, values) if q_count > 1 else KSignal(g, values[0])
        once = zero_fill(sig, mask)
        twice = zero_fill(once, mask)
        stack = (lambda s: s.stack()) if q_count > 1 else (lambda s: s.values[None])
        assert stack(twice).tobytes() == stack(once).tobytes()
        assert np.array_equal(stack(once), np.where(mask.acquired, values, 0.0))

    def test_grid_mismatch_rejected(self):
        data = KSignal(grid1d(-1, 1), np.ones(3))
        mask = SamplingMask(grid1d(-2, 2), np.ones(5, dtype=bool))
        with pytest.raises(GridMismatchError):
            zero_fill(data, mask)

    def test_multichannel_path(self):
        g = grid1d(-1, 1)
        ms = MultiKSignal.from_array(g, np.arange(6.0).reshape(2, 3))
        mask = SamplingMask(g, np.array([True, False, True]))
        out = zero_fill(ms, mask)
        assert np.array_equal(out.stack()[:, 1], [0.0, 0.0])


class TestConvResponse:
    def test_sums_channel_responses(self):
        g = grid1d(-3, 3)
        rng = np.random.default_rng(5)
        ms = MultiKSignal.from_array(g, rng.normal(size=(2, 7)) * (1 + 1j))
        f1 = Filter(rng.normal(size=3), 1, 1)
        f2 = Filter(rng.normal(size=3), 1, 1)
        out = conv_response(ms, MultiFilter((f1, f2)))
        expect = sum(np.convolve(x, f.taps, mode="valid") for x, f in zip(ms.values, (f1, f2)))
        assert out.grid == g.valid_for(1, 1)
        assert np.allclose(out.values, expect)

    def test_2d_response_is_the_sum_of_channel_convolutions(self):
        g = KGrid((-3, -2), (3, 4), (1.0, 1.0))
        rng = np.random.default_rng(6)
        x = rng.normal(size=(3, 7, 7)) + 1j * rng.normal(size=(3, 7, 7))
        taps = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
        out = conv_response(MultiKSignal.from_array(g, x), MultiFilter.from_array(taps, 0, 1))
        expect = sum(scipy.signal.convolve2d(x[q], taps[q], mode="valid") for q in range(3))
        assert out.grid == g.valid_for(0, 1)
        assert np.allclose(out.values, expect, rtol=1e-13, atol=1e-13)

    def test_dims_mismatch(self):
        ms = MultiKSignal.from_array(grid1d(-3, 3), np.ones((1, 7)))
        with pytest.raises(ValueError, match="dims"):
            conv_response(ms, MultiFilter.from_array(np.ones((1, 2, 2)), 0, 1))

    def test_channel_count_mismatch(self):
        g = grid1d(-3, 3)
        ms = MultiKSignal.from_array(g, np.ones((2, 7)))
        with pytest.raises(ValueError):
            conv_response(ms, MultiFilter((Filter(np.ones(3), 1, 1),)))
