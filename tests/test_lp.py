"""Filter fitting, pattern interpolation, and the Gram machinery.

Derived expectations use independent oracles: hand-enumerated matrices,
polynomial root construction for exponential annihilators, a
Faddeev-LeVerrier characteristic polynomial for eigenvalues, and the
quadrature route for spatial energies.
"""

import argparse
import gc
import json
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import conv_response, lhs_energy
from lpk.core import (
    Filter, KGrid, KSignal, MultiFilter, MultiKSignal, SamplingMask, centered_grid, zero_fill,
)
from lpk.harness import ENGINES, MaskSpec, add_noise, demo_scene_1d, demo_scene_2d, gen_mask
from lpk.io import read_json, write_json
from lpk import cli, harness, lp
from lpk.lp import (
    FilterBank,
    SingularFitError,
    UncoveredPatternError,
    _decay_constant,
    bank_from_json,
    bank_to_json,
    build_calib_matrix,
    check_annihilation_identity,
    fit_interpolation_filters,
    fit_prediction_filter,
    gram_operator,
    interpolate_missing,
    missing_patterns,
    nullspace_filter_bank,
    pattern_signature,
    smallest_eigensequences,
)
from lpk.multi import check_multichannel_identity, scene_samples
from lpk.recon import annihilation_recon
from lpk.phantom import Modulator, Phantom, Primitive, fourier_samples, samples_at


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
        # Row for window position n = (0, 0), column for k = (1, 1); the
        # rows run row-major over n in [-2, 1] per axis.
        row = np.ravel_multi_index((2, 2), (4, 4))
        col = cm.col_index(0, (1, 1))
        assert cm.matrix[row, col] == sig.values[2, 2]  # n = (-1, -1) on [-3, 2]^2

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
        assert mf.taps[0, 0] == -1.0  # k = 0
        assert mf.taps[0, 1] == pytest.approx(-1j, abs=1e-12)

    def test_harmonic_pair_cross_channel_tap(self):
        base = fourier_samples(boxcar(), centered_grid(19, 1.0))
        g = centered_grid(17, 1.0)
        n = np.arange(-8, 9)
        ch1 = KSignal(g, base.values[1:-1])
        ch2 = KSignal(g, base.values[:-2])  # ch2[n] = ch1[n-1]
        ms = MultiKSignal((ch1, ch2))
        cm = build_calib_matrix(ms, None, 1, 0)
        mf, resid = fit_prediction_filter(cm, target=0, ridge=0.0)
        assert resid <= 1e-12
        # Taps k = -1, 0 per channel.
        assert mf.taps[1, 0] == pytest.approx(1.0, abs=1e-10)
        assert abs(mf.taps[1, 1]) <= 1e-10
        assert abs(mf.taps[0, 0]) <= 1e-10

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

    def test_zero_channel_gets_zero_taps(self):
        # An all-zero channel predicts nothing: its taps are exactly zero and
        # the other channel's are the fit on that channel alone.
        g = centered_grid(32, 1.0)
        sig = fourier_samples(boxcar(), g)
        data = MultiKSignal.from_array(g, np.stack([sig.values, np.zeros(32)]))
        mf, resid = fit_prediction_filter(build_calib_matrix(data, ((-8, 7),), 1, 2))
        alone, alone_resid = fit_prediction_filter(build_calib_matrix(sig, ((-8, 7),), 1, 2))
        assert mf.anchor_channel == 0 and mf.taps.shape == (2, 4)
        assert np.all(mf.taps[1] == 0)
        assert np.allclose(mf.taps[0], alone.taps[0], rtol=1e-9, atol=1e-12)
        assert resid == pytest.approx(alone_resid, rel=1e-9)


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
        """Hand-built L = P = 1 imputation map for the uniform "101" pattern:
        ``[anchor, channel, k + 1]`` taps."""
        taps = np.array(
            [
                [[0, -1.0, 0], [1.0, 0, 0]],  # rho1[n] = rho2[n+1]
                [[0, 0, 1.0], [0, -1.0, 0]],  # rho2[n] = rho1[n-1]
            ],
            dtype=complex,
        )
        return {"101": taps}

    def test_exact_recovery_from_shift_identity(self):
        g = centered_grid(17, 1.0)
        ms = self.harmonic_pair(g)
        acq = (np.arange(-8, 9) % 2) == 0
        mask = SamplingMask(g, acq)
        masked = MultiKSignal.from_array(g, np.where(acq, ms.stack(), 0.0))
        out = interpolate_missing(masked, mask, self.shift_filters(), 1, 1)
        assert np.max(np.abs(out.stack() - ms.stack())) <= 1e-12

    def test_fully_sampled_is_identity(self):
        g = centered_grid(9, 1.0)
        ms = self.harmonic_pair(g)
        mask = SamplingMask(g, np.ones(9, dtype=bool))
        out = interpolate_missing(ms, mask, {}, 1, 1)
        assert np.array_equal(out.stack(), ms.stack())

    def test_uncovered_signature_raises(self):
        g = centered_grid(9, 1.0)
        ms = self.harmonic_pair(g)
        acq = np.ones(9, dtype=bool)
        acq[3:6] = False  # window around index 0 fully missing
        masked = MultiKSignal.from_array(g, np.where(acq, ms.stack(), 0.0))
        with pytest.raises(UncoveredPatternError):
            interpolate_missing(masked, SamplingMask(g, acq), self.shift_filters(), 1, 1)

    def test_fitted_filters_recover_calibrated_pattern(self):
        g = centered_grid(33, 1.0)
        ms = self.harmonic_pair(g)
        n = np.arange(-16, 17)
        acq = (n % 2 == 0) | (np.abs(n) <= 3)
        mask = SamplingMask(g, acq, ((-3, 3),))
        masked = MultiKSignal.from_array(g, np.where(acq, ms.stack(), 0.0))
        fmap, _ = fit_interpolation_filters(masked, mask, L=1, P=1, ridge=0.0)
        out = interpolate_missing(masked, mask, fmap, 1, 1)
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
        return masked, mask, fit_interpolation_filters(masked, mask, L=2, P=2)[0]

    # "01010": taps k = -2, 0, 2 read unacquired offsets.
    @pytest.mark.parametrize(
        "anchor,channel,k",
        [(0, 1, 2), (1, 0, -2), (0, 1, 0), (1, 0, 0), (0, 0, 2)],
    )
    def test_tap_on_unacquired_offset_raises(self, anchor, channel, k):
        masked, mask, fmap = self.wide_fit()
        taps = fmap["01010"].copy()
        taps[anchor, channel, k + 2] = 0.25
        fmap["01010"] = taps
        with pytest.raises(UncoveredPatternError) as err:
            interpolate_missing(masked, mask, fmap, 2, 2)
        assert str(err.value) == "no filter covers local pattern(s): 01010 (tap on unacquired offset)"

    def test_taps_for_another_channel_count_are_rejected(self):
        masked, mask, fmap = self.wide_fit()
        with pytest.raises(ValueError, match=r"have shape \(2, 2, 5\), expected \(1, 1, 5\)"):
            interpolate_missing(masked.channels[0], mask, fmap, 2, 2, strict=False)

    def test_anchor_tap_on_missing_sample_is_allowed(self):
        masked, mask, fmap = self.wide_fit()
        taps = fmap["01010"]
        for m in range(len(taps)):
            assert taps[m, m, 2] == -1.0  # k = 0 of L = 2, on the missing sample
        out = interpolate_missing(masked, mask, fmap, 2, 2).stack()
        truth = self.harmonic_pair(mask.grid).stack()
        # The default ridge biases the fit slightly (measured 3.4e-6).
        assert np.max(np.abs(out - truth)) <= 1e-4 * np.max(np.abs(truth))


def loop_signature(mask, n, L, P):
    """Per-offset signature, one bounds check and lookup per index: the
    oracle for the gather."""
    n = (n,) if np.isscalar(n) else tuple(n)
    axes = [range(ni - P, ni + L + 1) for ni in n]
    g = mask.grid
    bits = []
    for idx in np.stack(np.meshgrid(*[list(a) for a in axes], indexing="ij"), -1).reshape(-1, len(n)):
        inside = all(lo <= i <= hi for i, lo, hi in zip(idx, g.n_min, g.n_max))
        pos = tuple(i - lo for i, lo in zip(idx, g.n_min))
        bits.append("1" if inside and bool(mask.acquired[pos]) else "0")
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

    @pytest.mark.parametrize("L,P", [(-1, 1), (-3, 1), (1, -1)])
    def test_negative_lengths_are_rejected_as_by_the_grouping(self, L, P):
        mask = SamplingMask(centered_grid(8, 1.0), np.arange(8) % 2 == 0)
        with pytest.raises(ValueError, match="^L and P must be nonnegative$"):
            pattern_signature(mask, 0, L, P)
        with pytest.raises(ValueError, match="^L and P must be nonnegative$"):
            missing_patterns(mask, L, P)


class TestSharedPatternSolve:
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_per_channel_solves(self, data):
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

        fmap, quality = fit_interpolation_filters(ms, mask, L, P, ridge)
        want_taps, want_quality = per_channel_fit(ms, mask, L, P, ridge)
        assert list(fmap) == list(want_taps) and list(quality) == list(want_quality)
        for sig, got in fmap.items():
            want = want_taps[sig]
            assert got.shape == want.shape
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
            np.testing.assert_allclose(quality[sig], want_quality[sig], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_engine_matches_per_channel_solves_on_a_bench_case(self, seed, monkeypatch):
        # The random2d workload scaled to 24 x 24: eight coils, random R=3
        # lines, calibration 16, noise 1e-3 of the RMS sample, the default
        # ridge and one pass.  144 calibration rows against 200 taps leave
        # the ridge to condition each block (measured: 7e-11 relative).
        grid = centered_grid((24, 24), 1.0)
        truth = scene_samples(demo_scene_2d(), grid)
        rms = float(np.sqrt(np.mean(np.abs(truth.stack()) ** 2)))
        mask = gen_mask(MaskSpec("random", 3, 16, seed=seed), grid)
        measured = zero_fill(add_noise(truth, 1e-3 * rms, seed), mask)
        est, report = ENGINES["interp"](measured, mask, {"passes": 1})
        monkeypatch.setattr(
            harness, "fit_interpolation_filters",
            lambda data, mask, L, P, ridge: per_channel_fit(data, mask, L, P, ridge),
        )
        want, want_report = ENGINES["interp"](measured, mask, {"passes": 1})
        assert report == want_report and report.iterations == 1
        assert np.linalg.norm(est.stack() - want.stack()) <= 1e-8 * np.linalg.norm(want.stack())

    @pytest.mark.parametrize("ridge", [None, 0.0])
    def test_a_singular_pattern_block_names_the_pattern(self, ridge):
        grid = centered_grid((16, 16), 1.0)
        mask = gen_mask(MaskSpec("uniform", 2, 8), grid)
        data = MultiKSignal.from_array(grid, np.zeros((2,) + grid.shape, dtype=complex))
        first = next(iter(missing_patterns(mask, 2, 2)))
        with pytest.raises(SingularFitError, match=f"pattern {first}: .*pass a positive ridge"):
            fit_interpolation_filters(data, mask, 2, 2, ridge)
        assert fit_interpolation_filters(data, mask, 2, 2, 1e-3)[0]

    @pytest.mark.parametrize("ridge", [-1e-12, -1e-3])
    def test_a_negative_ridge_is_rejected_before_any_fit(self, ridge):
        grid = centered_grid(16, 1.0)
        mask = gen_mask(MaskSpec("uniform", 2, 6), grid)
        rng = np.random.default_rng(5)
        stacked = rng.normal(size=(2, 16)) + 1j * rng.normal(size=(2, 16))
        data = MultiKSignal.from_array(grid, np.where(mask.acquired, stacked, 0.0))
        with pytest.raises(ValueError, match="^ridge must be nonnegative$"):
            fit_interpolation_filters(data, mask, 1, 1, ridge)
        with pytest.raises(ValueError, match="^ridge must be nonnegative$"):
            ENGINES["interp"](data, mask, {"L": 1, "P": 1, "ridge": ridge})


def per_tap_gather(stacked, mask, filters, L, P):
    """Per-sample, per-tap imputation: the oracle for the batched gather."""
    out = stacked.copy()
    for pos in mask.missing_positions():
        n = tuple(int(p + lo) for p, lo in zip(pos, mask.grid.n_min))
        sig = loop_signature(mask, n, L, P)
        if sig not in filters:
            continue
        for m, anchored in enumerate(filters[sig]):
            acc = 0.0
            for q, taps in enumerate(anchored):
                for tap_pos in np.argwhere(taps != 0):
                    k = tap_pos - L
                    if q == m and not k.any():
                        continue
                    acc += taps[tuple(tap_pos)] * stacked[q][tuple(pos - k)]
            out[(m,) + tuple(pos)] = acc
    return out


class TestMissingPatterns:
    # (4, 4) packs a 2D window into 81 bits, rows of 11 bytes.
    @pytest.mark.parametrize("L,P", [(0, 2), (2, 0), (1, 1), (1, 3), (4, 4)])
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

    def test_stored_groups_are_read_only_private_and_die_with_the_mask(self):
        grid = centered_grid((12, 10), 1.0)
        bits = gen_mask(MaskSpec("random", 2, 4, seed=3), grid).acquired.copy()
        source = bits.copy()
        mask = SamplingMask(grid, source)
        got = missing_patterns(mask, 1, 2)
        assert len(got) > 1
        for pos in got.values():
            assert not pos.flags.writeable
            with pytest.raises(ValueError):
                pos.setflags(write=True)
        # A caller's edits to the dict it got reach no other caller.
        dropped = next(iter(got))
        del got[dropped]
        got["junk"] = np.zeros((0, 2), dtype=np.intp)
        # The mask holds a copy, so editing its source array changes nothing.
        source[:] = True
        for L, P in [(1, 2), (2, 0)]:
            again = missing_patterns(mask, L, P)
            fresh = missing_patterns(SamplingMask(grid, bits), L, P)
            assert list(again) == list(fresh)
            assert all(np.array_equal(again[s], fresh[s]) for s in fresh)
        assert dropped in missing_patterns(mask, 1, 2)
        # Equal to the stored key (1, 2), but not an integer window.
        with pytest.raises(TypeError):
            missing_patterns(mask, 1.0, 2)
        # The table keeps no mask alive: each entry goes with its mask, and
        # an engine call leaves none of its pass masks' entries behind.
        held = weakref.ref(mask)
        assert mask in lp._GROUPS
        del mask
        gc.collect()
        assert held() is None
        entries = len(lp._GROUPS)
        run_mask = gen_mask(MaskSpec("random", 2, 8), grid)
        measured = zero_fill(scene_samples(demo_scene_2d(), grid), run_mask)
        assert ENGINES["interp"](measured, run_mask, {"passes": 2})[1].iterations == 2
        gc.collect()
        assert len(lp._GROUPS) == entries

    @settings(derandomize=True, max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_batched_imputation_matches_per_tap_gather(self, seed):
        L, P = 1, 2
        grid = centered_grid((14, 12), 1.0)
        mask = gen_mask(MaskSpec("random", 2, 10, seed=seed), grid)
        rng = np.random.default_rng(seed)
        stacked = rng.normal(size=(2,) + grid.shape) + 1j * rng.normal(size=(2,) + grid.shape)
        data = MultiKSignal.from_array(grid, stacked)
        fmap, _ = fit_interpolation_filters(data, mask, L, P)
        # Leave one pattern uncovered; its samples must keep their input.
        fmap.pop(sorted(fmap)[-1])
        # Junk at the missing entries shows any read of an unacquired sample.
        stacked[:, ~mask.acquired] = 1e3 * (1 + 2j)
        data = MultiKSignal.from_array(grid, stacked)
        got = interpolate_missing(data, mask, fmap, L, P, strict=False).stack()
        want = per_tap_gather(stacked, mask, fmap, L, P)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


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

    @pytest.mark.parametrize("fov", [1.0, 2.0])
    def test_quadratic_form_equals_spatial_energy(self, fov):
        # h^H G h equals the Theorem-1 rhs, B integral |rho H|^2, at any B.
        rng = np.random.default_rng(8)
        ph = boxcar(half=0.25 * fov, fov=fov)
        gram = gram_operator(ph, 2, 2)
        taps = rng.normal(size=5) + 1j * rng.normal(size=5)
        taps /= np.linalg.norm(taps)
        quad = float((taps.conj() @ gram.matrix @ taps).real)
        chk = check_annihilation_identity(
            ph, Filter(taps, 2, 2), centered_grid(513, fov)
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
        assert chk.rhs == pytest.approx(0.5, rel=1e-9)  # B integral |rho|^2
        rel = abs(chk.lhs - chk.rhs) / chk.rhs
        assert rel <= max(1e-6, chk.tail_bound / chk.rhs)

    @pytest.mark.parametrize("fov", [1.0, 2.0])
    def test_eigensequence_matches_eigenvalue_to_tail(self, fov):
        ph = boxcar(half=0.25 * fov, fov=fov)
        bank = smallest_eigensequences(gram_operator(ph, 4, 4), 1)
        filt = bank.filters[0].filters[0]
        chk = check_annihilation_identity(ph, filt, centered_grid(8193, fov))
        # The eigenvalue is the spatial energy itself, to quadrature accuracy.
        # At this grid the tail bound exceeds the eigenvalue, so the lhs
        # comparison below cannot catch a wrong scale on its own.
        assert abs(chk.rhs - bank.residuals[0]) <= 1e-8 * chk.rhs
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

    def test_grid_fov_must_match_the_phantom(self):
        with pytest.raises(ValueError, match="does not match grid fov"):
            check_annihilation_identity(
                boxcar(), Filter(np.array([1.0]), 0, 0), centered_grid(65, 2.0)
            )

    def test_point_primitive_rejected(self):
        with pytest.raises(ValueError):
            check_annihilation_identity(
                point_phantom([0.0], [1.0]),
                Filter(np.array([1.0]), 0, 0),
                centered_grid(64, 1.0),
            )

    @pytest.mark.parametrize("kind,center,half", [
        ("boxcar", 0.1, 0.12), ("ellipse", 0.1, 0.07), ("ellipse", -0.2, 0.3),
        ("ellipse", 0.0, 0.02),
    ])
    @pytest.mark.parametrize("fov", [1.0, 2.0])
    def test_decay_constant_bounds_every_sample(self, kind, center, half, fov):
        ph = Phantom((Primitive(kind, (center * fov,), (half * fov,), 0.6 + 0.2j),), (fov,))
        n = np.concatenate([np.arange(-20000, 0), np.arange(1, 20001)])
        scaled = np.abs(samples_at(ph, (n,))) * np.abs(n)
        c = _decay_constant(ph)
        assert np.max(scaled) <= c
        # Tight enough to matter: the worst sample reaches about half of it
        # (0.48 for ellipses; 0.998 for the boxcar).
        assert np.max(scaled) >= 0.45 * c

    @staticmethod
    def identity_check(case, grid):
        """An ``lpk verify`` scene, or one with complex samples and taps."""
        if case.startswith("theorem"):
            args = argparse.Namespace(fov=None, grid=grid, L=4, P=4)
            return getattr(cli, f"_theorem_scene_{case[-1]}")(args)[0]
        g = centered_grid(grid, 1.0)
        if case == "ellipse":
            ph = Phantom((Primitive("ellipse", (0.1,), (0.2,), 0.6 + 0.2j),), (1.0,))
            return check_annihilation_identity(ph, Filter(np.array([0.5, -1.0, 0.25j]), 1, 1), g)
        # Two channels: complex modulators and taps, two nonzero responses.
        ph = Phantom((Primitive("ellipse", (-0.1,), (0.2,), 0.8 - 0.3j),), (1.0,))
        sens = (Modulator(np.array([1.0, 0.3j]), (0,)), Modulator(np.array([0.5 - 0.2j]), (-1,)))
        mf = MultiFilter.from_array(np.array([[0.5, -1.0j, 0.2], [0.3j, 1.0, -0.4]]), 1, 1)
        return check_multichannel_identity(ph, sens, mf, g)

    @pytest.mark.parametrize("case", ["theorem1", "theorem2", "theorem3", "ellipse", "two-channel"])
    @pytest.mark.parametrize("grid", [40, 65])
    def test_chunk_seams_drop_and_double_no_term(self, case, grid, monkeypatch):
        # The chunked real-arithmetic sum against the complex convolution in
        # one piece.  Chunks of 7 indices then put several seams, and a
        # partial last chunk, inside the valid range; the sum must be the
        # one-chunk sum.
        calls = []
        fast = lp._lhs_energy

        def spy(*args):
            calls.append(args)
            return fast(*args)

        monkeypatch.setattr(lp, "_lhs_energy", spy)
        whole = self.identity_check(case, grid).lhs
        assert whole == pytest.approx(lhs_energy(*calls[0]), rel=1e-13, abs=0.0)
        monkeypatch.setattr(lp, "_CHUNK", 7)
        assert self.identity_check(case, grid).lhs == pytest.approx(whole, rel=1e-13, abs=0.0)

    def test_a_long_grid_is_summed_in_small_chunks(self):
        # The benchmark's theorem-1 check: 2^20 indices.  One chunk of the
        # whole grid traced a 72 MiB peak.
        ph = boxcar()
        filt = smallest_eigensequences(gram_operator(ph, 4, 4), 1).filters[0].filters[0]
        grid = centered_grid(1 << 20, 1.0)
        tracemalloc.start()
        try:
            check_annihilation_identity(ph, filt, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("grid", [33, 65, 257])
    def test_tail_bound_covers_the_truncated_ellipse_energy(self, grid):
        # A narrow ellipse keeps a large share of its energy past a small
        # grid: 6.9% of the bound at 33 points, 0.7% at 257.
        ph = Phantom((Primitive("ellipse", (0.1,), (0.02,), 0.6),), (1.0,))
        filt = Filter(np.array([1.0]), 0, 0)
        small = check_annihilation_identity(ph, filt, centered_grid(grid, 1.0))
        large = check_annihilation_identity(ph, filt, centered_grid(1 << 18, 1.0))
        gap = large.lhs - small.lhs
        assert 0.0 < gap <= small.tail_bound
        assert gap >= 0.005 * small.tail_bound


class TestNullspaceFilterBank:
    @staticmethod
    def two_point_signal(size=32):
        ph = point_phantom([0.0, -0.5], [1.0, 1.0])
        return fourier_samples(ph, centered_grid(size, 1.0))

    def test_filters_annihilate_exactly_low_rank_data(self):
        sig = self.two_point_signal()
        bank = nullspace_filter_bank(sig, None, 0, 2)

        ms = MultiKSignal((sig,))
        for mf in bank.filters:
            resp = conv_response(ms, mf)
            assert np.max(np.abs(resp.values)) <= 1e-12

    def test_orthonormal_and_ascending(self):
        sig = self.two_point_signal()
        bank = nullspace_filter_bank(sig, None, 2, 2)
        V = np.stack([mf.taps.reshape(-1) for mf in bank.filters])
        assert V.shape[0] == 3  # width 5 minus rank 2
        gram = V.conj() @ V.T
        assert np.max(np.abs(gram - np.eye(len(V)))) <= 1e-10
        assert np.all(np.diff(bank.residuals) >= -1e-15)

    def test_limit_caps_count(self):
        sig = self.two_point_signal()
        bank = nullspace_filter_bank(sig, None, 2, 2, limit=1)
        assert len(bank.filters) == 1
        assert len(nullspace_filter_bank(sig, None, 2, 2, limit=np.int64(2)).filters) == 2

    @pytest.mark.parametrize("limit,message", [
        (-1, "limit must be at least 1, got -1"),
        (0, "limit must be at least 1, got 0"),
        (True, "limit must be an integer, got True"),
        (2.5, "limit must be an integer, got 2.5"),
    ])
    def test_a_limit_that_is_not_a_positive_integer_is_rejected(self, limit, message):
        # The limit slices the ascending filters: -1 would drop the last
        # one and True keep one; 0 leaves an empty bank.
        with pytest.raises(ValueError) as err:
            nullspace_filter_bank(self.two_point_signal(), None, 2, 2, limit=limit)
        assert str(err.value) == message

    def test_residuals_are_the_rms_response_over_the_calibration_block(self):
        # Noisy 4-channel data on a 24-sample block: 20 windows for 20 taps,
        # so every singular value, and every residual, is nonzero.
        g = centered_grid(64, 1.0)
        data = add_noise(scene_samples(demo_scene_1d(), g), 1e-3, 1)
        lo, hi = -12, 11
        bank = nullspace_filter_bank(data, ((lo, hi),), 2, 2, tau=1.0)
        block = MultiKSignal.from_array(
            KGrid.window((lo,), (hi,), g.fov), data.values[:, lo - g.n_min[0]:hi - g.n_min[0] + 1]
        )
        rms = []
        for mf in bank.filters:
            resp = conv_response(block, mf).values
            rms.append(np.linalg.norm(resp) / np.sqrt(resp.size))
        assert len(rms) == 20 and min(rms) > 1e-8 * max(rms)
        assert np.allclose(bank.residuals, rms, rtol=1e-9, atol=1e-12 * max(rms))

    def test_always_returns_at_least_one(self):
        rng = np.random.default_rng(9)
        sig = KSignal(centered_grid(16, 1.0), rng.normal(size=16) * (1 + 0.5j))
        bank = nullspace_filter_bank(sig, None, 1, 1, tau=1e-12)
        assert len(bank.filters) >= 1

    def test_zero_channel_runs_from_fit_to_file(self, tmp_path):
        """An all-zero channel leaves nullspace vectors that vanish on the
        other channel; the bank must still fit, solve, save and load, and
        ``lpk fit`` must write it."""
        from lpk.cli import main
        from lpk.io import write_lpk

        g = centered_grid(32, 1.0)
        data = MultiKSignal.from_array(
            g, np.stack([fourier_samples(boxcar(), g).values, np.zeros(32)])
        )
        bank = nullspace_filter_bank(data, None, 0, 1)
        flat = bank.taps.reshape(len(bank.taps), bank.q_count, -1)
        assert not np.all(flat.any(axis=2))  # some filter is zero on a channel
        mask = SamplingMask(g, np.arange(32) % 2 == 0)
        est, _ = annihilation_recon(data, mask, bank, max_iters=20)
        assert np.array_equal(est.stack()[:, mask.acquired], data.stack()[:, mask.acquired])
        write_json(tmp_path / "z.filters.json", bank_to_json(bank))
        back = bank_from_json(read_json(tmp_path / "z.filters.json"))
        assert back.taps.tobytes() == bank.taps.tobytes()
        assert back.residuals == bank.residuals
        write_lpk(tmp_path / "z.lpk", data)
        assert main([
            "fit", str(tmp_path / "z.lpk"), "--mode", "nullspace", "--L", "0", "--P", "1",
            "--out", str(tmp_path / "cli.filters.json"),
        ]) == 0

    def test_fit_solve_and_file_build_no_filter_objects(self, no_filter_objects, tmp_path):
        sig = self.two_point_signal()
        data = MultiKSignal.from_array(sig.grid, np.stack([sig.values, 0.5j * sig.values]))
        bank = nullspace_filter_bank(data, None, 1, 2)
        mask = SamplingMask(sig.grid, np.arange(32) % 3 != 1)
        annihilation_recon(data, mask, bank, max_iters=5)
        write_json(tmp_path / "b.filters.json", bank_to_json(bank))
        back = bank_from_json(read_json(tmp_path / "b.filters.json"))
        assert back.taps.tobytes() == bank.taps.tobytes()


class TestFilterBank:
    @staticmethod
    def fields(**change):
        """A valid one-filter, two-channel bank anchored at channel 0, changed."""
        base = dict(
            taps=np.array([[[-1.0, 0.5j], [0.25, 0.0]]]), L=0, P=1, residuals=(0.1,), anchors=(0,)
        )
        return {**base, **change}

    @pytest.mark.parametrize("change,match", [
        (dict(L=-1, P=2), "nonnegative"),
        (dict(taps=np.ones((1, 2))), r"nonempty \[F, Q, \*W\]"),
        (dict(taps=np.ones((1, 1, 2, 2, 2))), r"nonempty \[F, Q, \*W\]"),
        (dict(taps=np.ones((0, 2, 2)), residuals=(), anchors=()), r"nonempty \[F, Q, \*W\]"),
        (dict(taps=np.ones((1, 0, 2))), r"nonempty \[F, Q, \*W\]"),
        (dict(taps=-np.ones((1, 2, 3))), "has shape"),
        (dict(taps=-np.ones((1, 2, 2, 3))), "has shape"),
        (dict(taps=np.array([[[-1.0, np.nan], [0.0, 0.0]]])), "non-finite"),
        (dict(taps=np.array([[[-1.0, 0.0], [np.inf, 0.0]]])), "non-finite"),
        (dict(taps=np.zeros((1, 2, 2)), anchors=None), "nonzero tap"),
        (dict(residuals=(0.1, 0.2)), "one residual"),
        (dict(anchors=(0, None)), "one anchor"),
        (dict(anchors=(2,)), "not a channel"),
        (dict(anchors=(1,)), "k=0 tap exactly -1"),
    ])
    def test_rejects(self, change, match):
        with pytest.raises(ValueError, match=match):
            FilterBank(**self.fields(**change))

    def test_a_filter_may_be_zero_on_some_channels(self):
        taps = np.array([[[0.0, 0.0], [0.25, 1j]], [[-1.0, 0.5], [0.0, 0.0]]])
        bank = FilterBank(taps, 0, 1, (0.0, 0.1), (None, 0))
        assert bank.anchors == (None, 0)

    def test_holds_a_read_only_copy_and_views_it(self):
        f = self.fields()
        bank = FilterBank(**f)
        f["taps"][0, 0, 1] = 7.0
        assert bank.taps[0, 0, 1] == 0.5j and not bank.taps.flags.writeable
        assert (bank.L, bank.P, bank.q_count, bank.taps.shape) == (0, 1, 2, (1, 2, 2))
        (mf,) = bank.filters
        assert (mf.L, mf.P, mf.anchor_channel) == (0, 1, 0)
        for q, filt in enumerate(mf.filters):
            assert np.shares_memory(filt.taps, bank.taps)
            assert np.array_equal(filt.taps, bank.taps[0, q])
        unanchored = FilterBank(**self.fields(anchors=None))
        assert unanchored.anchors == (None,)
        assert unanchored.filters[0].anchor_channel is None


# Golden ``.filters.json`` documents, one per kind of bank ``lpk fit``
# writes.  The format is fixed: these bytes must not change.  The taps are
# exact literals, not fits, so the documents pin the layout (filter, then
# channel, then row-major taps as [re, im]) and not a LAPACK build.
GOLDEN_BANKS = [
    pytest.param(
        lambda: FilterBank(np.array([[[-1.0, 0.1 + 0.2 - 0.3j]]]), 0, 1, (1 / 3,), (0,)),
        {"L": 0, "P": 1, "dims": 1, "filters": [
            {"anchor": 0, "residual": 0.3333333333333333,
             "taps": [[[-1.0, 0.0], [0.30000000000000004, -0.3]]]},
        ], "kind": "filterbank", "q_count": 1, "version": 1},
        id="predict",
    ),
    pytest.param(
        lambda: FilterBank(np.array([[
            [[0.6, -0.0], [0.0, 0.8j]], [[-1 / 3, 2.5e-17 - 1j], [-0.0j, 1e-300]],
        ]]), 0, 1, (0.0,)),
        {"L": 0, "P": 1, "dims": 2, "filters": [
            {"anchor": None, "residual": 0.0, "taps": [
                [[0.6, 0.0], [-0.0, 0.0], [0.0, 0.0], [0.0, 0.8]],
                [[-0.3333333333333333, 0.0], [2.5e-17, -1.0], [-0.0, -0.0], [1e-300, 0.0]],
            ]},
        ], "kind": "filterbank", "q_count": 2, "version": 1},
        id="nullspace-2ch-2d",
    ),
    pytest.param(
        lambda: FilterBank(
            np.array([[[0.25, complex(0.5, -0.0), 0.25j]], [[-0.5, 1 / 7, -0.125 + 2.0j]]]),
            1, 1, (5.25774769689e-3, 5.19662775565e-3),
        ),
        {"L": 1, "P": 1, "dims": 1, "filters": [
            {"anchor": None, "residual": 0.00525774769689,
             "taps": [[[0.25, 0.0], [0.5, -0.0], [0.0, 0.25]]]},
            {"anchor": None, "residual": 0.00519662775565,
             "taps": [[[-0.5, 0.0], [0.14285714285714285, 0.0], [-0.125, 2.0]]]},
        ], "kind": "filterbank", "q_count": 1, "version": 1},
        id="sms-sep",
    ),
]


class TestBankJson:
    @pytest.mark.parametrize("make,golden", GOLDEN_BANKS)
    def test_file_matches_the_golden_document(self, tmp_path, make, golden):
        bank = make()
        path = tmp_path / "g.filters.json"
        write_json(path, bank_to_json(bank))
        assert path.read_text(encoding="utf-8") == json.dumps(golden, sort_keys=True, indent=1) + "\n"
        back = bank_from_json(read_json(path))
        assert back.taps.tobytes() == bank.taps.tobytes()
        assert (back.residuals, back.anchors) == (bank.residuals, bank.anchors)

    def test_round_trip(self, tmp_path):
        sig = TestNullspaceFilterBank.two_point_signal()
        bank = nullspace_filter_bank(sig, None, 1, 2)
        path = tmp_path / "b.filters.json"
        write_json(path, bank_to_json(bank))
        back = bank_from_json(read_json(path))
        assert back.L == bank.L and back.P == bank.P
        assert back.residuals == bank.residuals
        for a, b in zip(back.filters, bank.filters):
            assert np.array_equal(a.taps, b.taps)
            assert a.anchor_channel == b.anchor_channel

    def test_anchor_round_trips(self, tmp_path):
        sig = exp_signal(-4, 4)
        cm = build_calib_matrix(sig, None, 0, 1)
        mf, resid = fit_prediction_filter(cm, ridge=0.0)
        from lpk.lp import FilterBank

        bank = FilterBank(mf.taps[None], mf.L, mf.P, (resid,), (mf.anchor_channel,))
        path = tmp_path / "a.filters.json"
        write_json(path, bank_to_json(bank))
        back = bank_from_json(read_json(path))
        assert back.filters[0].anchor_channel == 0
        assert back.taps[0, 0, 0] == -1.0  # k = 0 of L = 0


    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(data=st.data())
    def test_random_banks_round_trip_exactly(self, data):
        dims = data.draw(st.sampled_from([1, 2]))
        L, P = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
        q_count = data.draw(st.integers(1, 3))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        filters, anchors = [], []
        for _ in range(data.draw(st.integers(1, 4))):
            taps = rng.normal(size=(q_count,) + (L + P + 1,) * dims) * (1 - 0.5j)
            anchor = data.draw(st.sampled_from([None] + list(range(q_count))))
            if anchor is not None:
                taps[(anchor,) + (L,) * dims] = -1.0
            filters.append(taps)
            anchors.append(anchor)
        residuals = tuple(np.sort(rng.random(len(filters))))
        bank = FilterBank(np.stack(filters), L, P, residuals, tuple(anchors))
        # Through JSON text, as write_json and read_json carry it.
        back = bank_from_json(json.loads(json.dumps(bank_to_json(bank))))
        assert (back.L, back.P, back.taps.shape) == (bank.L, bank.P, bank.taps.shape)
        assert back.residuals == bank.residuals
        assert back.anchors == bank.anchors
        assert back.taps.tobytes() == bank.taps.tobytes()


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
        resp = np.convolve(sig.values, closed, mode="valid")
        scale = np.sqrt(np.mean(np.abs(sig.values) ** 2))
        assert np.max(np.abs(resp)) <= 1e-10 * scale

        cm = build_calib_matrix(sig, None, 0, K)
        mf, resid = fit_prediction_filter(cm, ridge=0.0)
        assert resid / scale <= 1e-10
        assert np.max(np.abs(mf.filters[0].taps - closed)) <= 1e-8
