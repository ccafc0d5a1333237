"""Filter fitting, extrapolation, interpolation, and the Gram machinery.

Derived expectations use independent oracles: hand-enumerated matrices,
polynomial root construction for exponential annihilators, a
Faddeev-LeVerrier characteristic polynomial for eigenvalues, and the
quadrature route for spatial energies.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lpk.core import Filter, KGrid, KSignal, MultiFilter, MultiKSignal, SamplingMask, centered_grid
from lpk.lp import (
    SingularFitError,
    UncoveredPatternError,
    build_calib_matrix,
    check_annihilation_identity,
    extrapolate,
    fit_interpolation_filters,
    fit_prediction_filter,
    gram_operator,
    highpass_unweight,
    highpass_weight,
    interpolate_missing,
    load_bank,
    missing_patterns,
    nullspace_filter_bank,
    pattern_signature,
    save_bank,
    smallest_eigensequences,
)
from lpk.phantom import Phantom, Primitive, fourier_samples, samples_at


def boxcar(center=0.0, half=0.25, amp=1.0, fov=1.0):
    return Phantom((Primitive("boxcar", (center,), (half,), amp),), (fov,))


def point_phantom(locs, amps, fov=1.0):
    prims = tuple(Primitive("point", (x,), (0.0,), a) for x, a in zip(locs, amps))
    return Phantom(prims, (fov,))


def exp_signal(lo, hi, x0=0.25, fov=1.0):
    """Single point source at x0: rho[n] = exp(-i 2 pi n x0 / B)."""
    n = np.arange(lo, hi + 1)
    return KSignal(
        KGrid.window((lo,), (hi,), (fov,)), np.exp(-2j * np.pi * n * x0 / fov)
    )


def charpoly_eigenvalues(A):
    """Eigenvalues via Faddeev-LeVerrier + companion roots.

    Independent of the LAPACK Hermitian eigensolver: builds the
    characteristic polynomial from trace recursions, then takes its
    roots.
    """
    n = A.shape[0]
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0] = 1.0
    M = np.zeros_like(A)
    c = 1.0
    for k in range(1, n + 1):
        M = A @ M + c * np.eye(n)
        c = -np.trace(A @ M) / k
        coeffs[k] = c
    return np.sort(np.roots(coeffs).real)


class TestCalibMatrix:
    def test_hand_enumerated_rows(self):
        sig = KSignal(KGrid.window((0,), (3,), (1.0,)), np.array([1.0, 2, 3, 4]))
        cm = build_calib_matrix(sig, None, 0, 1)
        assert cm.matrix.shape == (3, 2)
        assert np.array_equal(cm.matrix.real, [[2, 1], [3, 2], [4, 3]])

    def test_degenerate_window_is_data_column(self):
        sig = KSignal(KGrid.window((0,), (3,), (1.0,)), np.array([1.0, 2, 3, 4]))
        cm = build_calib_matrix(sig, None, 0, 0)
        assert cm.matrix.shape == (4, 1)
        assert np.array_equal(cm.matrix.real[:, 0], [1, 2, 3, 4])

    def test_constant_two_channel_rank_one(self):
        g = centered_grid(8, 1.0)
        ms = MultiKSignal.from_array(g, np.ones((2, 8)))
        cm = build_calib_matrix(ms, None, 0, 1)
        s = np.linalg.svd(cm.matrix, compute_uv=False)
        assert s[0] > 1.0
        assert s[1] <= 1e-12 * s[0]

    def test_too_small_calib_rejected(self):
        sig = KSignal(centered_grid(8, 1.0), np.ones(8))
        with pytest.raises(ValueError, match="P \\+ L \\+ 2"):
            build_calib_matrix(sig, ((-1, 1),), 1, 1)

    def test_entries_match_source_2d(self):
        rng = np.random.default_rng(0)
        g = centered_grid((6, 6), (1.0, 1.0))
        sig = KSignal(g, rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
        cm = build_calib_matrix(sig, None, 1, 1)
        # Row for window position n = (0, 0), column for k = (1, 1).
        row = cm.row_index().tolist().index([0, 0])
        col = cm.col_index(0, (1, 1))
        assert cm.matrix[row, col] == sig.at((-1, -1))

    @pytest.mark.parametrize("L,P", [(0, 0), (0, 2), (2, 0), (1, 3), (3, 1)])
    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(data=st.data())
    def test_gather_matches_per_tap_loop(self, L, P, data):
        dims = data.draw(st.sampled_from([1, 2]))
        q_count = data.draw(st.integers(1, 4))
        least = L + P + 2  # smallest calibration block per axis
        top = least + (9 if dims == 1 else 4)
        shape = tuple(data.draw(st.integers(least, top)) for _ in range(dims))
        n_min = tuple(data.draw(st.integers(-6, 2)) for _ in range(dims))
        grid = KGrid.window(n_min, tuple(lo + s - 1 for lo, s in zip(n_min, shape)), (1.0,) * dims)
        # An off-centre calibration block, from the smallest that fits up
        # to the whole grid.
        calib = []
        for lo, s in zip(n_min, shape):
            size = data.draw(st.integers(least, s))
            start = lo + data.draw(st.integers(0, s - size))
            calib.append((start, start + size - 1))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        ms = MultiKSignal.from_array(
            grid, rng.normal(size=(q_count,) + shape) + 1j * rng.normal(size=(q_count,) + shape)
        )
        got = build_calib_matrix(ms, tuple(calib), L, P)
        assert got.matrix.flags.c_contiguous
        assert np.array_equal(got.matrix, loop_calib_matrix(ms, tuple(calib), L, P))


def loop_calib_matrix(ms, calib, L, P):
    """One column slice per (channel, tap): the oracle for the window gather."""
    grid = ms.grid
    stacked = ms.stack()
    rows = int(np.prod([hi - lo + 1 - P - L for lo, hi in calib]))
    per = (L + P + 1) ** grid.dims
    out = np.empty((rows, ms.q_count * per), dtype=np.complex128)
    ks = np.stack(np.meshgrid(*[np.arange(-L, P + 1)] * grid.dims, indexing="ij"), -1)
    for q in range(ms.q_count):
        for j, k in enumerate(ks.reshape(-1, grid.dims)):
            sl = tuple(
                slice(lo + P - ki - glo, hi - L - ki - glo + 1)
                for (lo, hi), ki, glo in zip(calib, k, grid.n_min)
            )
            out[:, q * per + j] = stacked[q][sl].reshape(-1)
    return out


class TestFitPredictionFilter:
    def test_single_exponential_tap(self):
        sig = exp_signal(-4, 4)
        cm = build_calib_matrix(sig, None, 0, 1)
        mf, resid = fit_prediction_filter(cm, ridge=0.0)
        assert resid <= 1e-12
        assert mf.filters[0].tap((0,)) == -1.0
        assert mf.filters[0].tap((1,)) == pytest.approx(-1j, abs=1e-12)

    def test_harmonic_pair_cross_channel_tap(self):
        base = fourier_samples(boxcar(), centered_grid(19, 1.0))
        g = centered_grid(17, 1.0)
        n = np.arange(-8, 9)
        ch1 = KSignal(g, base.values[1:-1])
        ch2 = KSignal(g, base.values[:-2])  # ch2[n] = ch1[n-1]
        ms = MultiKSignal((ch1, ch2))
        cm = build_calib_matrix(ms, None, 1, 1)
        zeroed = [(0, (-1,)), (0, (1,))]
        mf, resid = fit_prediction_filter(cm, target=0, zeroed=zeroed, ridge=0.0)
        assert resid <= 1e-12
        assert mf.filters[1].tap((-1,)) == pytest.approx(1.0, abs=1e-10)
        assert abs(mf.filters[1].tap((0,))) <= 1e-10
        assert abs(mf.filters[1].tap((1,))) <= 1e-10
        # Zeroed taps are exactly zero, not merely small.
        assert mf.filters[0].tap((-1,)) == 0.0
        assert mf.filters[0].tap((1,)) == 0.0

    def test_all_zero_data_singular_without_ridge(self):
        sig = KSignal(centered_grid(8, 1.0), np.zeros(8))
        cm = build_calib_matrix(sig, None, 0, 2)
        with pytest.raises(SingularFitError):
            fit_prediction_filter(cm, ridge=0.0)

    def test_ridge_resolves_singularity(self):
        sig = KSignal(centered_grid(8, 1.0), np.zeros(8))
        cm = build_calib_matrix(sig, None, 0, 2)
        mf, resid = fit_prediction_filter(cm, ridge=1e-6)
        assert resid == 0.0


class TestExtrapolate:
    def test_exponential_recursion(self):
        seed = KSignal(KGrid.window((0,), (0,), (1.0,)), np.array([1.0]))
        filt = Filter(np.array([-1.0, -1j]), 0, 1, anchor_fixed=True)
        out = extrapolate(seed, filt, 3, "+")
        assert np.allclose(out.values, [-1j, -1, 1j])
        assert (out.grid.n_min, out.grid.n_max) == ((1,), (3,))

    def test_period_two_recursion(self):
        seed = KSignal(KGrid.window((0,), (1,), (1.0,)), np.array([2.0, 0.0]))
        filt = Filter(np.array([-1.0, 0.0, 1.0]), 0, 2, anchor_fixed=True)
        out = extrapolate(seed, filt, 4, "+")
        assert np.allclose(out.values, [2, 0, 2, 0])

    def test_backward_direction(self):
        seed = exp_signal(0, 1)
        filt = Filter(np.array([-1.0, -1j]), 0, 1, anchor_fixed=True)
        out = extrapolate(seed, filt, 2, "-")
        n = np.arange(-2, 0)
        assert np.allclose(out.values, np.exp(-1j * np.pi * n / 2), atol=1e-12)
        assert out.grid.n_max == (-1,)

    def test_seed_shorter_than_p_rejected(self):
        seed = KSignal(KGrid.window((0,), (1,), (1.0,)), np.ones(2))
        filt = Filter(np.array([-1.0, 0, 0, 1.0]), 0, 3, anchor_fixed=True)
        with pytest.raises(ValueError):
            extrapolate(seed, filt, 1)

    def test_nonzero_l_rejected(self):
        seed = KSignal(KGrid.window((0,), (3,), (1.0,)), np.ones(4))
        filt = Filter(np.array([1.0, -1.0, 1.0]), 1, 1)
        with pytest.raises(ValueError):
            extrapolate(seed, filt, 1)

    def test_boxcar_extrapolation_degrades(self):
        """A non-exponential signal extrapolates imperfectly by design."""
        ph = boxcar()
        sig = fourier_samples(ph, centered_grid(17, 1.0))
        cm = build_calib_matrix(sig, None, 0, 6)
        mf, _ = fit_prediction_filter(cm, ridge=0.0)
        ext = extrapolate(sig, mf.filters[0], 8, "+")
        truth = samples_at(ph, (np.arange(9, 17),))
        # Relative to the DC value 0.5; visibly wrong but not divergent.
        err = abs(ext.values[-1] - truth[-1]) / 0.5
        assert 1e-6 < err < 10.0


class TestInterpolateMissing:
    @staticmethod
    def harmonic_pair(grid):
        wide = centered_grid(grid.size + 2, 1.0)
        base = fourier_samples(boxcar(), wide)
        ch1 = KSignal(grid, base.values[1:-1])
        ch2 = KSignal(grid, base.values[:-2])
        return MultiKSignal((ch1, ch2))

    @staticmethod
    def shift_filters():
        """Hand-built imputation map for the uniform "101" pattern."""
        ch0 = MultiFilter(
            (
                Filter(np.array([0, -1.0, 0]), 1, 1, anchor_fixed=True),
                Filter(np.array([1.0, 0, 0]), 1, 1),  # rho1[n] = rho2[n+1]
            )
        )
        ch1 = MultiFilter(
            (
                Filter(np.array([0, 0, 1.0]), 1, 1),  # rho2[n] = rho1[n-1]
                Filter(np.array([0, -1.0, 0]), 1, 1, anchor_fixed=True),
            )
        )
        return {"101": (ch0, ch1)}

    def test_exact_recovery_from_shift_identity(self):
        g = centered_grid(17, 1.0)
        ms = self.harmonic_pair(g)
        acq = (np.arange(-8, 9) % 2) == 0
        mask = SamplingMask(g, acq)
        masked = MultiKSignal.from_array(g, np.where(acq, ms.stack(), 0.0))
        out = interpolate_missing(masked, mask, self.shift_filters())
        assert np.max(np.abs(out.stack() - ms.stack())) <= 1e-12

    def test_fully_sampled_is_identity(self):
        g = centered_grid(9, 1.0)
        ms = self.harmonic_pair(g)
        mask = SamplingMask(g, np.ones(9, dtype=bool))
        out = interpolate_missing(ms, mask, {})
        assert np.array_equal(out.stack(), ms.stack())

    def test_uncovered_signature_raises(self):
        g = centered_grid(9, 1.0)
        ms = self.harmonic_pair(g)
        acq = np.ones(9, dtype=bool)
        acq[3:6] = False  # window around index 0 fully missing
        masked = MultiKSignal.from_array(g, np.where(acq, ms.stack(), 0.0))
        with pytest.raises(UncoveredPatternError):
            interpolate_missing(masked, SamplingMask(g, acq), self.shift_filters())

    def test_fitted_filters_recover_calibrated_pattern(self):
        g = centered_grid(33, 1.0)
        ms = self.harmonic_pair(g)
        n = np.arange(-16, 17)
        acq = (n % 2 == 0) | (np.abs(n) <= 3)
        mask = SamplingMask(g, acq, ((-3, 3),))
        masked = MultiKSignal.from_array(g, np.where(acq, ms.stack(), 0.0))
        fmap = fit_interpolation_filters(masked, mask, L=1, P=1, ridge=0.0)
        out = interpolate_missing(masked, mask, fmap)
        assert np.max(np.abs(out.stack() - ms.stack())) <= 1e-10

    def test_pattern_signature_reads_window(self):
        g = centered_grid(9, 1.0)
        acq = np.zeros(9, dtype=bool)
        acq[4] = True  # index 0 only
        mask = SamplingMask(g, acq)
        assert pattern_signature(mask, (0,), 1, 1) == "010"
        # Off-grid offsets read as 0.
        assert pattern_signature(mask, (-4,), 1, 1) == "000"

    def wide_fit(self):
        """Fitted L = P = 2 map for uniform R = 2 outside a calibration block."""
        g = centered_grid(33, 1.0)
        ms = self.harmonic_pair(g)
        n = np.arange(-16, 17)
        acq = (n % 2 == 0) | (np.abs(n) <= 4)
        mask = SamplingMask(g, acq, ((-4, 4),))
        masked = MultiKSignal.from_array(g, np.where(acq, ms.stack(), 0.0))
        return masked, mask, fit_interpolation_filters(masked, mask, L=2, P=2)

    # "01010": taps k = -2, 0, 2 read unacquired offsets.
    @pytest.mark.parametrize(
        "anchor,channel,k",
        [(0, 1, 2), (1, 0, -2), (0, 1, 0), (1, 0, 0), (0, 0, 2)],
    )
    def test_tap_on_unacquired_offset_raises(self, anchor, channel, k):
        masked, mask, fmap = self.wide_fit()
        mfs = list(fmap["01010"])
        mf = mfs[anchor]
        filters = list(mf.filters)
        taps = filters[channel].taps.copy()
        taps[k + mf.L] = 0.25
        filters[channel] = Filter(taps, mf.L, mf.P, anchor_fixed=filters[channel].anchor_fixed)
        mfs[anchor] = MultiFilter(tuple(filters))
        fmap["01010"] = tuple(mfs)
        with pytest.raises(UncoveredPatternError) as err:
            interpolate_missing(masked, mask, fmap)
        assert str(err.value) == "no filter covers local pattern(s): 01010 (tap on unacquired offset)"

    def test_anchor_tap_on_missing_sample_is_allowed(self):
        masked, mask, fmap = self.wide_fit()
        for m, mf in enumerate(fmap["01010"]):
            assert mf.anchor_channel == m
            assert mf.filters[m].tap((0,)) == -1.0
        out = interpolate_missing(masked, mask, fmap).stack()
        truth = self.harmonic_pair(mask.grid).stack()
        # The default ridge biases the fit slightly (measured 3.4e-6).
        assert np.max(np.abs(out - truth)) <= 1e-4 * np.max(np.abs(truth))


def loop_signature(mask, n, L, P):
    """Per-offset ``contains``/``pos`` signature: the oracle for the gather."""
    n = (n,) if np.isscalar(n) else tuple(n)
    axes = [range(ni - P, ni + L + 1) for ni in n]
    bits = []
    for idx in np.stack(np.meshgrid(*[list(a) for a in axes], indexing="ij"), -1).reshape(-1, len(n)):
        inside = mask.grid.contains(tuple(idx))
        bits.append("1" if inside and bool(mask.acquired[mask.grid.pos(tuple(idx))]) else "0")
    return "".join(bits)


def per_channel_fit(data, mask, L, P, ridge):
    """One solve per pattern per channel: the oracle for the shared solve.

    Returns per signature the ``[anchor, channel, *taps]`` stack and the
    worst channel's ``(rel_resid, coef_energy)``.
    """
    cm = build_calib_matrix(data, mask.calib, L, P)
    gram = cm.matrix.conj().T @ cm.matrix
    if ridge is None:
        ridge = 1e-9 * float(np.max(gram.diagonal().real))
    per = cm.taps_per_channel
    taps, quality = {}, {}
    for sig in missing_patterns(mask, L, P):
        src = np.flatnonzero(np.array(list(sig[::-1])) == "1")
        if not src.size:
            continue
        src_cols = (np.arange(cm.q_count)[:, None] * per + src).ravel()
        stack = np.zeros((cm.q_count, cm.q_count * per), dtype=complex)
        worst_resid = worst_energy = 0.0
        for m in range(cm.q_count):
            tgt = cm.col_index(m, (0,) * cm.dims)
            cols = src_cols[src_cols != tgt]
            sub = gram[np.ix_(cols, cols)]
            coef = np.linalg.solve(sub + ridge * np.eye(len(cols)), gram[cols, tgt])
            tt = float(gram[tgt, tgt].real)
            rsq = tt - 2 * float((coef.conj() @ gram[cols, tgt]).real) + float(
                (coef.conj() @ (sub @ coef)).real
            )
            worst_resid = max(worst_resid, np.sqrt(max(rsq, 0.0) / tt) if tt > 0 else 0.0)
            worst_energy = max(worst_energy, float(np.sum(np.abs(coef) ** 2)))
            stack[m, cols] = coef
            stack[m, tgt] = -1.0
        taps[sig] = stack.reshape((cm.q_count, cm.q_count) + cm.tap_shape)
        quality[sig] = (worst_resid, worst_energy)
    return taps, quality


class TestPatternSignature:
    @pytest.mark.parametrize("L,P", [(0, 2), (2, 0), (1, 1), (1, 3)])
    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(data=st.data())
    def test_gather_matches_per_offset_loop(self, L, P, data):
        dims = data.draw(st.sampled_from([1, 2]))
        shape = tuple(data.draw(st.integers(2, 9 if dims == 1 else 6)) for _ in range(dims))
        bits = data.draw(
            st.lists(st.booleans(), min_size=int(np.prod(shape)), max_size=int(np.prod(shape)))
        )
        mask = SamplingMask(centered_grid(shape, 1.0), np.reshape(bits, shape))
        # Every index whose window overlaps the grid, off every edge, and
        # some whose window misses it entirely.
        pad = L + P + 1
        axes = [range(lo - pad, hi + pad + 1) for lo, hi in zip(mask.grid.n_min, mask.grid.n_max)]
        for n in np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, dims):
            n = tuple(int(v) for v in n)
            assert pattern_signature(mask, n, L, P) == loop_signature(mask, n, L, P)
        if dims == 1:
            assert pattern_signature(mask, 0, L, P) == loop_signature(mask, 0, L, P)

    def test_index_must_match_grid(self):
        mask = SamplingMask(centered_grid((4, 4), (1.0, 1.0)), np.ones((4, 4), dtype=bool))
        with pytest.raises(ValueError, match="2D grid"):
            pattern_signature(mask, (0,), 1, 1)
        with pytest.raises(ValueError, match="integers"):
            pattern_signature(mask, (0.5, 0), 1, 1)


class TestSharedPatternSolve:
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_per_channel_solves(self, data):
        from lpk.harness import MaskSpec, gen_mask

        dims = data.draw(st.sampled_from([1, 2]))
        q_count = data.draw(st.integers(1, 4))
        pairs = [(0, 1), (1, 0), (1, 1), (0, 2), (2, 1), (1, 3)] if dims == 1 else [
            (0, 1), (1, 0), (1, 1), (0, 2), (2, 0)
        ]
        L, P = data.draw(st.sampled_from(pairs))
        ridge = data.draw(st.sampled_from([None, 1e-6, 0.5]))
        seed = data.draw(st.integers(0, 2**16))
        # Overdetermined calibration (rows > columns), so residuals are
        # well above round-off and comparable to a relative tolerance.
        grid = centered_grid((96,) if dims == 1 else (16, 14), 1.0)
        mask = gen_mask(MaskSpec("random", 3, 32 if dims == 1 else 12, seed=seed), grid)
        rng = np.random.default_rng(seed)
        shape = (q_count,) + grid.shape
        ms = MultiKSignal.from_array(grid, rng.normal(size=shape) + 1j * rng.normal(size=shape))

        fmap, quality = fit_interpolation_filters(ms, mask, L, P, ridge, return_quality=True)
        want_taps, want_quality = per_channel_fit(ms, mask, L, P, ridge)
        assert list(fmap) == list(want_taps) and list(quality) == list(want_quality)
        for sig, mfs in fmap.items():
            assert [mf.anchor_channel for mf in mfs] == list(range(q_count))
            got = np.array([[f.taps for f in mf.filters] for mf in mfs])
            want = want_taps[sig]
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
            np.testing.assert_allclose(quality[sig], want_quality[sig], rtol=1e-12, atol=0)


def per_tap_gather(stacked, mask, filters, L, P):
    """Per-sample, per-tap imputation: the oracle for the batched gather."""
    out = stacked.copy()
    for pos in mask.missing_positions():
        n = tuple(int(p + lo) for p, lo in zip(pos, mask.grid.n_min))
        sig = loop_signature(mask, n, L, P)
        for mf in filters.get(sig, ()):
            m = mf.anchor_channel
            acc = 0.0
            for q, filt in enumerate(mf.filters):
                for tap_pos in np.argwhere(filt.taps != 0):
                    k = tap_pos - L
                    if q == m and not k.any():
                        continue
                    acc += filt.taps[tuple(tap_pos)] * stacked[q][tuple(pos - k)]
            out[(m,) + tuple(pos)] = acc
    return out


class TestMissingPatterns:
    @pytest.mark.parametrize("L,P", [(0, 2), (2, 0), (1, 1), (1, 3)])
    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(data=st.data())
    def test_groups_match_per_index_signatures(self, L, P, data):
        dims = data.draw(st.sampled_from([1, 2]))
        shape = tuple(data.draw(st.integers(2, 12 if dims == 1 else 7)) for _ in range(dims))
        bits = data.draw(
            st.lists(st.booleans(), min_size=int(np.prod(shape)), max_size=int(np.prod(shape)))
        )
        mask = SamplingMask(centered_grid(shape, 1.0), np.reshape(bits, shape))
        groups = missing_patterns(mask, L, P)
        assert list(groups) == sorted(groups)
        seen = []
        for sig, positions in groups.items():
            assert positions.shape[1:] == (dims,)
            for pos in positions:
                n = tuple(int(p + lo) for p, lo in zip(pos, mask.grid.n_min))
                assert pattern_signature(mask, n, L, P) == sig
                seen.append(tuple(int(p) for p in pos))
        assert len(seen) == len(set(seen))
        assert sorted(seen) == sorted(map(tuple, mask.missing_positions().tolist()))

    @settings(derandomize=True, max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_batched_imputation_matches_per_tap_gather(self, seed):
        from lpk.harness import MaskSpec, gen_mask

        L, P = 1, 2
        grid = centered_grid((14, 12), 1.0)
        mask = gen_mask(MaskSpec("random", 2, 10, seed=seed), grid)
        rng = np.random.default_rng(seed)
        stacked = rng.normal(size=(2,) + grid.shape) + 1j * rng.normal(size=(2,) + grid.shape)
        data = MultiKSignal.from_array(grid, stacked)
        fmap = fit_interpolation_filters(data, mask, L, P)
        # Leave one pattern uncovered; its samples must keep their input.
        fmap.pop(sorted(fmap)[-1])
        # Junk at the missing entries shows any read of an unacquired sample.
        stacked[:, ~mask.acquired] = 1e3 * (1 + 2j)
        data = MultiKSignal.from_array(grid, stacked)
        got = interpolate_missing(data, mask, fmap, strict=False).stack()
        want = per_tap_gather(stacked, mask, fmap, L, P)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


class TestHighpass:
    def test_boxcar_values(self):
        sig = fourier_samples(boxcar(), centered_grid(9, 1.0))
        w = highpass_weight(sig)
        assert w.at((1,)) == pytest.approx(2j, abs=1e-14)
        assert w.at((2,)) == pytest.approx(0.0, abs=1e-14)

    def test_dc_always_zero(self):
        rng = np.random.default_rng(6)
        sig = KSignal(centered_grid(11, 2.0), rng.normal(size=11) * (1 + 1j))
        assert highpass_weight(sig).at((0,)) == 0.0

    def test_weight_unweight_identity(self):
        rng = np.random.default_rng(7)
        sig = KSignal(centered_grid(11, 1.5), rng.normal(size=11) + 1j * rng.normal(size=11))
        back = highpass_unweight(highpass_weight(sig), dc=sig.at((0,)))
        assert np.max(np.abs(back.values - sig.values)) <= 1e-14


class TestGramOperator:
    def test_full_fov_identity(self):
        G = gram_operator(boxcar(half=0.5), 0, 4).matrix
        assert np.max(np.abs(G - np.eye(5))) <= 1e-14

    def test_half_fov_entries(self):
        G = gram_operator(boxcar(), 0, 3).matrix
        expect = [0.5, 1 / np.pi, 0.0, -1 / (3 * np.pi)]
        # g[m] appears along the m-th subdiagonal: G[k, n] = g[n - k].
        col = [G[0, m] for m in range(4)]
        assert np.allclose(col, expect, atol=1e-14)
        assert np.allclose(G, G.conj().T, atol=1e-15)

    def test_point_primitive_rejected(self):
        with pytest.raises(ValueError):
            gram_operator(point_phantom([0.1], [1.0]), 0, 2)

    def test_smallest_eigenvalue_matches_charpoly_oracle(self):
        G = gram_operator(boxcar(), 2, 2).matrix
        oracle = charpoly_eigenvalues(G)[0]
        bank = smallest_eigensequences(gram_operator(boxcar(), 2, 2), 1)
        assert abs(bank.residuals[0] - oracle) <= 1e-10

    def test_quadratic_form_equals_spatial_energy(self):
        # (1/B) h^H G h equals the Theorem-1 rhs for unit-norm taps.
        rng = np.random.default_rng(8)
        ph = boxcar()
        gram = gram_operator(ph, 2, 2)
        taps = rng.normal(size=5) + 1j * rng.normal(size=5)
        taps /= np.linalg.norm(taps)
        quad = float((taps.conj() @ gram.matrix @ taps).real) / ph.fov[0]
        chk = check_annihilation_identity(
            ph, Filter(taps, 2, 2), centered_grid(513, 1.0)
        )
        assert abs(quad - chk.rhs) <= 1e-9


class TestSmallestEigensequences:
    def test_full_fov_no_concentration(self):
        bank = smallest_eigensequences(gram_operator(boxcar(half=0.5), 2, 2), 5)
        assert np.allclose(bank.residuals, 1.0, atol=1e-10)

    def test_half_fov_concentration_gap(self):
        bank = smallest_eigensequences(gram_operator(boxcar(), 2, 2), 5)
        assert bank.residuals[0] < 0.05 * bank.residuals[-1]

    def test_orthonormal(self):
        bank = smallest_eigensequences(gram_operator(boxcar(), 4, 4), 4)
        V = np.stack([mf.filters[0].taps for mf in bank.filters])
        G = V.conj() @ V.T
        assert np.max(np.abs(G - np.eye(4))) <= 1e-10

    def test_residuals_ascending(self):
        bank = smallest_eigensequences(gram_operator(boxcar(), 3, 3), 7)
        assert np.all(np.diff(bank.residuals) >= -1e-15)

    def test_count_exceeding_dimension_rejected(self):
        with pytest.raises(ValueError):
            smallest_eigensequences(gram_operator(boxcar(), 1, 1), 4)

    def test_subspace_invariant_under_global_phase(self):
        a = smallest_eigensequences(gram_operator(boxcar(amp=1.0), 3, 3), 2)
        b = smallest_eigensequences(
            gram_operator(boxcar(amp=np.exp(0.7j)), 3, 3), 2
        )
        Va = np.stack([mf.filters[0].taps for mf in a.filters]).T
        Vb = np.stack([mf.filters[0].taps for mf in b.filters]).T
        # Principal angles between the two spans.
        s = np.linalg.svd(Va.conj().T @ Vb, compute_uv=False)
        assert np.max(np.abs(s - 1.0)) <= 1e-8


class TestAnnihilationIdentity:
    def test_identity_filter_is_parseval(self):
        ph = boxcar()
        chk = check_annihilation_identity(
            ph, Filter(np.array([1.0]), 0, 0), centered_grid(513, 1.0)
        )
        assert chk.rhs == pytest.approx(0.5, rel=1e-9)  # (1/B) integral |rho|^2
        rel = abs(chk.lhs - chk.rhs) / chk.rhs
        assert rel <= max(1e-6, chk.tail_bound / chk.rhs)

    def test_eigensequence_matches_eigenvalue_to_tail(self):
        ph = boxcar()
        bank = smallest_eigensequences(gram_operator(ph, 4, 4), 1)
        filt = bank.filters[0].filters[0]
        chk = check_annihilation_identity(ph, filt, centered_grid(8193, 1.0))
        assert abs(chk.lhs - bank.residuals[0]) <= chk.tail_bound + 1e-9
        rel = abs(chk.lhs - chk.rhs) / chk.rhs
        assert rel <= max(1e-6, chk.tail_bound / chk.rhs)

    def test_support_complement_filter_small_both_sides(self):
        # h(x) approximates the indicator of the complement of the support,
        # so rho h is nearly zero and both sides drop well below the
        # signal energy while still agreeing.
        ph = boxcar()
        k = np.arange(-4, 5)
        taps = np.zeros(9, dtype=complex)
        for j, kk in enumerate(k):
            if kk == 0:
                taps[j] = 0.5
                continue
            w = 2j * np.pi * kk
            seg = lambda a, b: (np.exp(-w * b) - np.exp(-w * a)) / (-w)
            taps[j] = seg(-0.5, -0.25) + seg(0.25, 0.5)
        chk = check_annihilation_identity(ph, Filter(taps, 4, 4), centered_grid(513, 1.0))
        assert chk.rhs < 0.05  # well below the 0.5 Parseval energy
        rel = abs(chk.lhs - chk.rhs) / chk.rhs
        assert rel <= max(1e-6, chk.tail_bound / chk.rhs)

    def test_point_primitive_rejected(self):
        with pytest.raises(ValueError):
            check_annihilation_identity(
                point_phantom([0.0], [1.0]),
                Filter(np.array([1.0]), 0, 0),
                centered_grid(64, 1.0),
            )


class TestNullspaceFilterBank:
    @staticmethod
    def two_point_signal(size=32):
        ph = point_phantom([0.0, -0.5], [1.0, 1.0])
        return fourier_samples(ph, centered_grid(size, 1.0))

    def test_filters_annihilate_exactly_low_rank_data(self):
        sig = self.two_point_signal()
        bank = nullspace_filter_bank(sig, None, 0, 2)
        from lpk.core import conv_response

        ms = MultiKSignal((sig,))
        for mf in bank.filters:
            resp = conv_response(ms, mf)
            assert np.max(np.abs(resp.values)) <= 1e-12

    def test_orthonormal_and_ascending(self):
        sig = self.two_point_signal()
        bank = nullspace_filter_bank(sig, None, 2, 2)
        V = np.stack([mf.stack().reshape(-1) for mf in bank.filters])
        assert V.shape[0] == 3  # width 5 minus rank 2
        gram = V.conj() @ V.T
        assert np.max(np.abs(gram - np.eye(len(V)))) <= 1e-10
        assert np.all(np.diff(bank.residuals) >= -1e-15)

    def test_limit_caps_count(self):
        sig = self.two_point_signal()
        bank = nullspace_filter_bank(sig, None, 2, 2, limit=1)
        assert len(bank.filters) == 1

    def test_always_returns_at_least_one(self):
        rng = np.random.default_rng(9)
        sig = KSignal(centered_grid(16, 1.0), rng.normal(size=16) * (1 + 0.5j))
        bank = nullspace_filter_bank(sig, None, 1, 1, tau=1e-12)
        assert len(bank.filters) >= 1


class TestBankJson:
    def test_round_trip(self, tmp_path):
        sig = TestNullspaceFilterBank.two_point_signal()
        bank = nullspace_filter_bank(sig, None, 1, 2)
        path = tmp_path / "b.filters.json"
        save_bank(path, bank)
        back = load_bank(path)
        assert back.L == bank.L and back.P == bank.P
        assert back.residuals == bank.residuals
        for a, b in zip(back.filters, bank.filters):
            assert np.array_equal(a.stack(), b.stack())
            assert a.anchor_channel == b.anchor_channel

    def test_anchor_round_trips(self, tmp_path):
        sig = exp_signal(-4, 4)
        cm = build_calib_matrix(sig, None, 0, 1)
        mf, resid = fit_prediction_filter(cm, ridge=0.0)
        from lpk.lp import FilterBank

        bank = FilterBank((mf,), (resid,))
        path = tmp_path / "a.filters.json"
        save_bank(path, bank)
        back = load_bank(path)
        assert back.filters[0].anchor_channel == 0
        assert back.filters[0].filters[0].tap((0,)) == -1.0


    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(data=st.data())
    def test_random_banks_round_trip_exactly(self, data):
        from lpk.lp import FilterBank, bank_from_json, bank_to_json

        dims = data.draw(st.sampled_from([1, 2]))
        L, P = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
        q_count = data.draw(st.integers(1, 3))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        filters = []
        for _ in range(data.draw(st.integers(1, 4))):
            taps = rng.normal(size=(q_count,) + (L + P + 1,) * dims) * (1 - 0.5j)
            anchor = data.draw(st.sampled_from([None] + list(range(q_count))))
            if anchor is not None:
                taps[(anchor,) + (L,) * dims] = -1.0
            filters.append(MultiFilter(tuple(
                Filter(t, L, P, anchor_fixed=(q == anchor)) for q, t in enumerate(taps)
            )))
        residuals = tuple(np.sort(rng.random(len(filters))))
        bank = FilterBank(tuple(filters), residuals)
        # Through JSON text, as save_bank and load_bank carry it.
        back = bank_from_json(json.loads(json.dumps(bank_to_json(bank))))
        assert (back.L, back.P, back.q_count) == (bank.L, bank.P, bank.q_count)
        assert back.residuals == bank.residuals
        for a, b in zip(back.filters, bank.filters, strict=True):
            assert a.stack().tobytes() == b.stack().tobytes()
            assert a.anchor_channel == b.anchor_channel


class TestExponentialAnnihilation:
    """Sums of K point sources against the closed-form root filter."""

    @pytest.mark.parametrize("K", [1, 2, 3, 4])
    def test_root_filter_annihilates_and_fit_recovers_it(self, K):
        rng = np.random.default_rng(2024 + K)
        locs = np.sort(rng.uniform(-0.45, 0.45, size=K))
        while np.any(np.diff(locs) < 0.05):
            locs = np.sort(rng.uniform(-0.45, 0.45, size=K))
        amps = rng.uniform(0.5, 1.5, size=K) * np.exp(2j * np.pi * rng.random(K))
        ph = point_phantom(locs, amps)
        sig = fourier_samples(ph, centered_grid(2 * K + 2, 1.0))

        mus = np.exp(-2j * np.pi * locs)
        closed = -np.poly(mus)  # anchored taps: h[0] = -1, h[1..K] = alpha
        filt = Filter(closed, 0, K, anchor_fixed=True)
        from lpk.core import conv_apply

        resp = conv_apply(sig, filt)
        scale = np.sqrt(np.mean(np.abs(sig.values) ** 2))
        assert np.max(np.abs(resp.values)) <= 1e-10 * scale

        cm = build_calib_matrix(sig, None, 0, K)
        mf, resid = fit_prediction_filter(cm, ridge=0.0)
        assert resid / scale <= 1e-10
        assert np.max(np.abs(mf.filters[0].taps - closed)) <= 1e-8
