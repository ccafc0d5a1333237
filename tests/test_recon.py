"""Structured lifting, completion solvers, and conjugate-symmetry helpers."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.signal
from hypothesis import given, settings, strategies as st

import lpk.recon
from conftest import conv_response
from lpk.core import (
    KGrid,
    KSignal,
    MultiKSignal,
    SamplingMask,
    centered_grid,
    zero_fill,
)
from lpk.harness import MaskSpec, add_noise, demo_scene_1d, demo_scene_2d, gen_mask
from lpk.lp import FilterBank, build_calib_matrix, nullspace_filter_bank
from lpk.multi import scene_samples
from lpk.phantom import Phantom, Primitive, fourier_samples
from lpk.recon import (
    ReconReport,
    StructuredMatrix,
    _BankOperator,
    _ritz_conditioning,
    annihilation_recon,
    lift,
    lowrank_complete,
    pf_recon,
    report_from_json,
    report_to_json,
)


def rel_err(est, truth):
    return float(np.linalg.norm(est - truth) / np.linalg.norm(truth))


def two_point_phantom():
    return Phantom(
        (
            Primitive("point", (0.1,), (0.0,), 1.0),
            Primitive("point", (-0.3,), (0.0,), 0.8 * np.exp(0.6j)),
        ),
        (1.0,),
    )


@pytest.fixture
def masked_two_point():
    g = centered_grid(32, 1.0)
    sig = fourier_samples(two_point_phantom(), g)
    mask = gen_mask(MaskSpec("random", r=2, calib=4, seed=1), g)
    masked = KSignal(g, np.where(mask.acquired, sig.values, 0))
    return sig, mask, masked


def window_counts(grid, L, P):
    """How many lifted cells read each sample, computed by enumeration."""
    count = np.zeros(grid.shape)
    lo, hi = grid.n_min[0], grid.n_max[0]
    for n in range(lo + P, hi - L + 1):
        for k in range(-L, P + 1):
            count[n - k - lo] += 1
    return count


class TestLift:
    def test_rows_hold_windows(self):
        g = centered_grid(8, 1.0)
        sig = KSignal(g, np.arange(1.0, 9.0) + 0j)
        m = lift(sig, 1, 1)
        # First row is the window at n = -3: x[-2], x[-3], x[-4].
        assert np.array_equal(m.matrix[0].real, [3, 2, 1])
        assert m.matrix.shape == (6, 3)

    def test_two_point_rank(self):
        g = centered_grid(32, 1.0)
        sig = fourier_samples(two_point_phantom(), g)
        s = np.linalg.svd(lift(sig, 0, 2).matrix, compute_uv=False)
        assert s[2] <= 1e-12 * s[0]
        assert s[1] > 1e-3 * s[0]

    def test_conjugate_augmentation_preserves_rank(self):
        # The mirrored-conjugate channels obey the same prediction
        # relations, so doubling the columns must not raise the rank.
        g = centered_grid(33, 1.0)
        sig = fourier_samples(two_point_phantom(), g)
        sC = np.linalg.svd(lift(sig, 2, 2, "C").matrix, compute_uv=False)
        sS = np.linalg.svd(lift(sig, 2, 2, "S").matrix, compute_uv=False)
        assert sS.shape[0] > sC.shape[0] or lift(sig, 2, 2, "S").matrix.shape[1] == 10
        assert sC[2] <= 1e-12 * sC[0]
        assert sS[2] <= 1e-12 * sS[0]

    def test_unlift_inverts_lift(self):
        rng = np.random.default_rng(11)
        g = centered_grid(16, 1.0)
        ms = MultiKSignal.from_array(
            g, rng.normal(size=(2, 16)) + 1j * rng.normal(size=(2, 16))
        )
        for variant in ("C", "S"):
            back = lift(ms, 1, 2, variant).unlift()
            assert np.max(np.abs(back.stack() - ms.stack())) <= 1e-14

    def test_unlift_is_count_normalized_adjoint(self):
        rng = np.random.default_rng(12)
        g = centered_grid(16, 1.0)
        x = MultiKSignal.from_array(g, rng.normal(size=(1, 16)) + 1j * rng.normal(size=(1, 16)))
        lifted = lift(x, 1, 2)
        M = StructuredMatrix(
            rng.normal(size=lifted.matrix.shape) + 1j * rng.normal(size=lifted.matrix.shape),
            g, 1, 2, 1, "C",
        )
        counts = window_counts(g, 1, 2)
        lhs = np.vdot(M.matrix, lifted.matrix)
        rhs = np.vdot(counts * M.unlift().stack()[0], x.stack()[0])
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    @pytest.mark.parametrize("variant", ["C", "S"])
    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(data=st.data())
    def test_unlift_inverts_lift_on_symmetric_grids(self, variant, data):
        # Odd sizes centred on 0, so every index has its mirror on the grid.
        dims = data.draw(st.sampled_from([1, 2]))
        L, P = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
        half = L + P + 1
        shape = tuple(2 * data.draw(st.integers(half // 2 + 1, half + 4)) + 1 for _ in range(dims))
        q_count = data.draw(st.integers(1, 4))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        x = MultiKSignal.from_array(centered_grid(shape, 1.0), cplx(rng, (q_count,) + shape))
        back = lift(x, L, P, variant).unlift().stack()
        assert np.max(np.abs(back - x.stack())) <= 1e-14 * np.max(np.abs(x.stack()))

    def test_bad_variant_rejected(self):
        g = centered_grid(8, 1.0)
        with pytest.raises(ValueError):
            lift(KSignal(g, np.ones(8)), 1, 1, "Q")

    @pytest.mark.parametrize("L,P", [(0, 0), (0, 2), (2, 0), (1, 3), (3, 1)])
    @pytest.mark.parametrize("variant", ["C", "S"])
    @settings(derandomize=True, max_examples=15, deadline=None)
    @given(data=st.data())
    def test_unlift_matches_per_block_loop(self, L, P, variant, data):
        dims = data.draw(st.sampled_from([1, 2]))
        q_count = data.draw(st.integers(1, 4))
        width = L + P + 1
        top = width + (9 if dims == 1 else 4)
        shape = tuple(data.draw(st.integers(width, top)) for _ in range(dims))
        n_min = tuple(data.draw(st.integers(-(s // 2) - 2, -(s // 2) + 2)) for s in shape)
        grid = KGrid.window(n_min, tuple(lo + s - 1 for lo, s in zip(n_min, shape)), (1.0,) * dims)
        rows = int(np.prod([s - L - P for s in shape]))
        cols = (2 if variant == "S" else 1) * q_count * width**dims
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        sm = StructuredMatrix(cplx(rng, (rows, cols)), grid, L, P, q_count, variant)
        assert np.array_equal(sm.unlift().stack(), loop_unlift(sm))


def strided_window_rows(stack, L, P):
    """The ``sliding_window_view`` copy that lifted a stack before the
    window positions were cached: the oracle for the gather."""
    dims = stack.ndim - 1
    windows = np.lib.stride_tricks.sliding_window_view(
        stack, (L + P + 1,) * dims, axis=tuple(range(1, dims + 1))
    )
    windows = windows[(Ellipsis,) + (slice(None, None, -1),) * dims]
    windows = np.moveaxis(windows, 0, dims)
    rows = int(np.prod(windows.shape[:dims]))
    return np.ascontiguousarray(windows).reshape(rows, -1)


def per_tap_unlift(sm):
    """One slice-add per tap, counting in the same loop: the oracle for the
    ``np.add.at`` scatter."""
    grid, shape, q_count = sm.grid, sm.grid.shape, sm.q_count
    blocks = q_count if sm.variant == "C" else 2 * q_count
    width = sm.L + sm.P + 1
    per = width ** sm.grid.dims
    cells = sm.matrix.reshape(-1, blocks, per).T.reshape(
        (per, blocks) + tuple(n - width + 1 for n in shape)
    )
    acc = np.zeros((blocks,) + shape, dtype=np.complex128)
    count = np.zeros(shape)
    for j, js in enumerate(np.ndindex((width,) * grid.dims)):
        sl = tuple(slice(width - 1 - i, n - i) for i, n in zip(js, shape))
        acc[(slice(None),) + sl] += cells[j]
        count[sl] += 1.0
    if sm.variant != "C":
        acc = acc[:q_count] + lpk.recon._reflect_values(np.conj(acc[q_count:]), grid)
        count = count + lpk.recon._reflect_values(count, grid)
    return acc / count


@st.composite
def window_cases(draw):
    """Random samples on a shifted 1D or 2D grid: Q in 1..4, L != P,
    variants C and S, grids from two windows up."""
    dims = draw(st.sampled_from([1, 2]))
    q_count = draw(st.integers(1, 4))
    L = draw(st.integers(0, 3))
    P = draw(st.integers(0, 3).filter(lambda p: p != L))
    variant = draw(st.sampled_from(["C", "S"]))
    least = L + P + 2
    shape = tuple(draw(st.integers(least, least + (12 if dims == 1 else 5))) for _ in range(dims))
    n_min = tuple(draw(st.integers(-(s // 2) - 2, -(s // 2) + 2)) for s in shape)
    grid = KGrid.window(n_min, tuple(lo + s - 1 for lo, s in zip(n_min, shape)), (1.0,) * dims)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    return MultiKSignal.from_array(grid, cplx(rng, (q_count,) + shape)), L, P, variant, rng


class TestWindowGeometry:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(case=window_cases())
    def test_lift_matches_strided_windows(self, case):
        ms, L, P, variant, _ = case
        x = ms.stack()
        src = lpk.recon._with_mirrors(x, ms.grid) if variant == "S" else x
        got = lift(ms, L, P, variant).matrix
        want = strided_window_rows(src, L, P)
        assert got.shape == want.shape and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(case=window_cases())
    def test_unlift_matches_per_tap_loop(self, case):
        ms, L, P, variant, rng = case
        shape = lift(ms, L, P, variant).matrix.shape
        sm = StructuredMatrix(cplx(rng, shape), ms.grid, L, P, ms.q_count, variant)
        assert sm.unlift().stack().tobytes() == per_tap_unlift(sm).tobytes()

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(case=window_cases(), data=st.data())
    def test_calib_sub_region_matches_strided_windows(self, case, data):
        ms, L, P, _, _ = case
        # A block strictly inside the grid on some axis, so the region is
        # not contiguous in memory.
        calib, sl = [], []
        for lo, s in zip(ms.grid.n_min, ms.grid.shape):
            size = data.draw(st.integers(L + P + 2, s))
            start = data.draw(st.integers(0, s - size))
            calib.append((lo + start, lo + start + size - 1))
            sl.append(slice(start, start + size))
        region = ms.stack()[(slice(None),) + tuple(sl)]
        got = build_calib_matrix(ms, tuple(calib), L, P).matrix
        assert got.tobytes() == strided_window_rows(region, L, P).tobytes()

    def test_cached_arrays_are_read_only(self):
        geometry = lpk.lp._window_geometry((3, 9, 8), 1, 2)
        assert geometry is lpk.lp._window_geometry((3, 9, 8), 1, 2)
        for arr in geometry:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[...] = 0

    def test_written_lift_leaves_the_next_lift_alone(self):
        rng = np.random.default_rng(5)
        ms = MultiKSignal.from_array(centered_grid((10, 9), 1.0), cplx(rng, (2, 10, 9)))
        for variant in ("C", "S"):
            first = lift(ms, 2, 1, variant).matrix
            want = first.copy()
            first[...] = np.nan
            assert lift(ms, 2, 1, variant).matrix.tobytes() == want.tobytes()
            back = StructuredMatrix(want, ms.grid, 2, 1, 2, variant).unlift().stack()
            assert np.max(np.abs(back - ms.stack())) <= 1e-14 * np.max(np.abs(ms.stack()))


def loop_unlift(sm):
    """Per-(tap, block) accumulation: the oracle for the per-tap unlift."""
    blocks = 2 * sm.q_count if sm.variant == "S" else sm.q_count
    acc = np.zeros((blocks,) + sm.grid.shape, dtype=np.complex128)
    count = np.zeros(sm.grid.shape)
    valid = sm.grid.valid_for(sm.L, sm.P)
    ks = np.stack(np.meshgrid(*[np.arange(-sm.L, sm.P + 1)] * sm.grid.dims, indexing="ij"), -1)
    per = (sm.L + sm.P + 1) ** sm.grid.dims
    for j, k in enumerate(ks.reshape(-1, sm.grid.dims)):
        sl = tuple(
            slice(vlo - ki - glo, vhi - ki - glo + 1)
            for vlo, vhi, ki, glo in zip(valid.n_min, valid.n_max, k, sm.grid.n_min)
        )
        for q in range(blocks):
            acc[q][sl] += sm.matrix[:, q * per + j].reshape(valid.shape)
        count[sl] += 1.0
    if sm.variant == "C":
        return acc / count
    count_refl = lpk.recon._reflect_values(count, sm.grid, fill=0.0)
    return np.array([
        (acc[q] + lpk.recon._reflect_values(np.conj(acc[sm.q_count + q]), sm.grid))
        / (count + count_refl)
        for q in range(sm.q_count)
    ])


def svd_lowrank_complete(data, mask, L, P, rank, tau, variant, max_iters, tol=1e-9):
    """The sweep through a thin SVD of the lifted matrix: the oracle for the
    Gram-eigendecomposition sweep."""
    acq = mask.acquired
    ref = data.stack()
    x = np.where(acq, ref, 0.0)
    converged, chosen, it = False, rank, 0
    for it in range(1, max_iters + 1):
        u, s, vh = np.linalg.svd(lift(MultiKSignal.from_array(data.grid, x), L, P, variant).matrix,
                                 full_matrices=False)
        if chosen is None:
            chosen = min(max(1, int(np.sum(s > tau * s[0]))), len(s))
        trunc = (u[:, :chosen] * s[:chosen]) @ vh[:chosen]
        x_new = StructuredMatrix(trunc, data.grid, L, P, data.q_count, variant).unlift().stack()
        x_new[:, acq] = ref[:, acq]
        denom = max(float(np.linalg.norm(x)), np.finfo(float).tiny)
        change = float(np.linalg.norm(x_new - x)) / denom
        x = x_new
        if change <= tol:
            converged = True
            break
    degenerate = bool(chosen < len(s) and s[chosen] > 0.999 * s[chosen - 1])
    report = lpk.recon.ReconReport(
        method=f"lowrank-{variant}", iterations=it, converged=converged, rank=chosen,
        spectrum_head=tuple(float(v) for v in s[:32]), degenerate=degenerate,
    )
    return MultiKSignal.from_array(data.grid, x), report


@st.composite
def sweep_cases(draw):
    """Noisy sums of a few exponentials on a random mask: 1D or 2D, Q in
    1..3, L != P, variants C and S, given or automatic rank.  A "wide"
    case shrinks the grid until the lifted matrix has fewer rows than
    columns."""
    dims = draw(st.sampled_from([1, 2]))
    q_count = draw(st.integers(1, 3))
    variant = draw(st.sampled_from(["C", "S"]))
    wide = draw(st.booleans())
    L, P = draw(
        st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(
            lambda lp: lp[0] != lp[1] and (not wide or lp[0] + lp[1] >= 2)
        )
    )
    width = L + P + 1
    if wide:
        shape = (width + 1,) * dims
    else:
        shape = tuple(draw(st.integers(width + 3, 20 if dims == 1 else 9)) for _ in range(dims))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    modes = draw(st.integers(1, 3))
    grid = centered_grid(shape, 1.0)
    axes = np.meshgrid(*[np.arange(lo, hi + 1) for lo, hi in zip(grid.n_min, grid.n_max)],
                       indexing="ij")
    phase = sum(np.multiply.outer(rng.uniform(-np.pi, np.pi, modes), n) for n in axes)
    amps = cplx(rng, (q_count, modes))
    clean = np.tensordot(amps, np.exp(1j * phase), axes=1)
    values = clean + 0.01 * np.std(clean) * cplx(rng, clean.shape)
    acquired = rng.uniform(size=shape) < 0.6
    data = MultiKSignal.from_array(grid, np.where(acquired, values, 0.0))
    rows = int(np.prod([s - L - P for s in shape]))
    cols = (2 if variant == "S" else 1) * q_count * width**dims
    assert not wide or rows < cols
    rank = draw(st.sampled_from([None, min(modes, rows, cols)]))
    kwargs = dict(L=L, P=P, rank=rank, variant=variant, max_iters=draw(st.integers(1, 6)))
    return data, SamplingMask(grid, acquired), kwargs


class TestLowrankComplete:
    def test_exact_completion(self, masked_two_point):
        sig, mask, masked = masked_two_point
        out, rep = lowrank_complete(masked, mask, L=3, P=3, rank=2, tol=1e-12, max_iters=500)
        assert rel_err(out.values[0], sig.values) <= 1e-9
        assert rep.converged
        assert rep.iterations <= 200

    def test_narrow_window_variant_converges_slower_but_low(self, masked_two_point):
        sig, mask, masked = masked_two_point
        out, rep = lowrank_complete(masked, mask, L=0, P=3, rank=2, tol=1e-12, max_iters=500)
        assert rel_err(out.values[0], sig.values) <= 1e-9
        assert rep.converged

    def test_acquired_entries_exact_at_output(self, masked_two_point):
        sig, mask, masked = masked_two_point
        out, _ = lowrank_complete(masked, mask, L=2, P=2, rank=2, max_iters=30)
        got = out.values[0][mask.acquired]
        assert np.array_equal(got, sig.values[mask.acquired])

    def test_capped_run_says_so(self, masked_two_point):
        _, mask, masked = masked_two_point
        _, rep = lowrank_complete(masked, mask, L=2, P=2, rank=2, max_iters=4)
        assert not rep.converged
        assert rep.notes == (
            "lowrank stopped at the sweep cap (4); "
            f"last relative change {rep.objective_trace[-1]:.3g} (tol 1e-09)",
        )

    def test_converged_and_unswept_runs_have_no_notes(self, masked_two_point):
        _, mask, masked = masked_two_point
        _, rep = lowrank_complete(masked, mask, L=3, P=3, rank=2, tol=1e-12, max_iters=500)
        assert rep.converged and rep.notes == ()
        _, rep = lowrank_complete(masked, mask, L=3, P=3, max_iters=0)
        assert rep.notes == ()

    def test_fully_sampled_returns_input(self, masked_two_point):
        sig, _, _ = masked_two_point
        full = SamplingMask(sig.grid, np.ones(32, dtype=bool))
        out, rep = lowrank_complete(sig, full, L=2, P=2, rank=5, max_iters=50)
        assert rep.iterations == 1
        assert np.array_equal(out.values[0], sig.values)

    def test_full_rank_truncation_keeps_zero_fill(self, masked_two_point):
        _, mask, masked = masked_two_point
        out, rep = lowrank_complete(masked, mask, L=0, P=2, rank=3, max_iters=50)
        assert rep.converged
        assert np.max(np.abs(out.values[0] - masked.values)) <= 1e-14

    def test_auto_rank_detects_model_order(self, masked_two_point):
        sig, _, _ = masked_two_point
        full = SamplingMask(sig.grid, np.ones(32, dtype=bool))
        _, rep = lowrank_complete(sig, full, L=0, P=3, rank=None, max_iters=5)
        assert rep.rank == 2
        assert not rep.degenerate

    def test_flat_spectrum_flags_degenerate(self):
        g = centered_grid(32, 1.0)
        delta = KSignal(g, (np.arange(-16, 16) == 0).astype(complex))
        full = SamplingMask(g, np.ones(32, dtype=bool))
        _, rep = lowrank_complete(delta, full, L=0, P=3, rank=2, max_iters=5)
        assert rep.degenerate
        assert rep.spectrum_head[0] == pytest.approx(rep.spectrum_head[3], rel=1e-12)

    def test_rank_out_of_range_rejected(self, masked_two_point):
        _, mask, masked = masked_two_point
        with pytest.raises(ValueError):
            lowrank_complete(masked, mask, L=0, P=2, rank=7)

    @pytest.mark.parametrize("rank", [2.0, True, "2"])
    @pytest.mark.parametrize("max_iters", [0, 3])
    def test_rank_other_than_an_integer_rejected(self, masked_two_point, rank, max_iters):
        _, mask, masked = masked_two_point
        with pytest.raises(ValueError, match=f"^rank must be an integer, got {rank!r}$"):
            lowrank_complete(masked, mask, L=0, P=2, rank=rank, max_iters=max_iters)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(case=sweep_cases())
    def test_gram_sweep_matches_svd_sweep(self, case):
        data, mask, kwargs = case
        tau = 0.05
        got, rep = lowrank_complete(data, mask, tau=tau, **kwargs)
        want, ref = svd_lowrank_complete(data, mask, tau=tau, **kwargs)
        got, want = got.stack(), want.stack()
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
        assert (rep.rank, rep.iterations, rep.converged, rep.degenerate) == (
            ref.rank, ref.iterations, ref.converged, ref.degenerate
        )
        head, ref_head = np.array(rep.spectrum_head), np.array(ref.spectrum_head)
        assert head.shape == ref_head.shape
        # Entries far below s[0] come from square roots of eigenvalues at
        # round-off level, so only the leading ones agree in relative terms.
        big = ref_head > tau * ref_head[0]
        np.testing.assert_allclose(head[big], ref_head[big], rtol=1e-9, atol=0)
        np.testing.assert_allclose(head, ref_head, rtol=0, atol=1e-7 * ref_head[0])

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(case=sweep_cases())
    def test_sweep_matches_public_lift_and_unlift(self, case):
        data, mask, kwargs = case
        got, rep = lowrank_complete(data, mask, **kwargs)
        want, ref = object_lowrank_complete(data, mask, **kwargs)
        assert got.stack().tobytes() == want.stack().tobytes()
        assert rep == ref


def assert_matches_eigh(c):
    """``_gram_eigh(c)`` against ``np.linalg.eigh`` of the GEMM Gram."""
    lam, leading = lpk.recon._gram_eigh(c)
    want_lam, want_v = np.linalg.eigh(c.conj().T @ c)
    want_lam, want_v = want_lam[::-1], want_v[:, ::-1]
    n = c.shape[1]
    assert lam.shape == (n,)
    assert np.max(np.abs(lam - want_lam)) <= 1e-13 * want_lam[0]
    # Two Grams that differ by round-off fix a rank-r projector only up to
    # about eps·λ_max over the gap below it, so projectors are compared
    # where that gap is wide (and at r = n, the identity); in a wide
    # matrix's round-off nullspace they may differ by O(1).
    wide_gap = [r for r in range(1, n) if want_lam[r - 1] - want_lam[r] > 1e-4 * want_lam[0]]
    for r in wide_gap + [n]:
        v = leading(r)
        assert v.shape == (n, r)
        assert np.max(np.abs(v.conj().T @ v - np.eye(r))) <= 1e-12
        want = want_v[:, :r] @ want_v[:, :r].conj().T
        assert np.max(np.abs(v @ v.conj().T - want)) <= 1e-12


class TestGramEigh:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(case=sweep_cases())
    def test_matches_eigh_of_the_gemm_gram(self, case):
        # sweep_cases lifts 1D and 2D data, variants C and S, to matrices
        # with more and with fewer rows than columns.
        data, _, kwargs = case
        assert_matches_eigh(lift(data, kwargs["L"], kwargs["P"], kwargs["variant"]).matrix)

    @pytest.mark.parametrize("L, P, variant, size", [
        (0, 0, "C", 16),  # a 1x1 Gram
        (2, 3, "C", 7),  # wide: 2 rows, 6 columns
        (1, 2, "S", 16),
    ])
    def test_matches_eigh_at_the_edges(self, L, P, variant, size):
        g = centered_grid(size, 1.0)
        x = KSignal(g, cplx(np.random.default_rng(size), size))
        assert_matches_eigh(lift(x, L, P, variant).matrix)

    @pytest.mark.parametrize("routine", ["zhetrd_lwork", "zhetrd", "dstevd", "zunmqr"])
    def test_a_nonzero_info_is_a_linalg_error(self, monkeypatch, routine):
        real = getattr(scipy.linalg.lapack, routine)

        def failing(*args, **kwargs):
            return real(*args, **kwargs)[:-1] + (1,)

        monkeypatch.setattr(scipy.linalg.lapack, routine, failing)
        c = lift(KSignal(centered_grid(16, 1.0), cplx(np.random.default_rng(0), 16)), 1, 2).matrix
        with pytest.raises(np.linalg.LinAlgError, match=f"^{routine} failed with info 1$"):
            lpk.recon._gram_eigh(c)[1](2)

    def test_the_sweep_takes_no_full_eigendecomposition(self, monkeypatch, masked_two_point):
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.eigh called")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        _, mask, masked = masked_two_point
        lowrank_complete(masked, mask, L=2, P=2, max_iters=3)


def object_lowrank_complete(data, mask, L, P, rank, variant, max_iters, tau=0.05, tol=1e-9):
    """The Gram sweep with every lift and unlift through the public
    ``lift`` and ``StructuredMatrix.unlift``, rebuilding the signal
    objects each sweep: ``lowrank_complete`` must match it bitwise
    whatever shortcuts its sweep takes.  Its eigenvalues and its ``rank``
    leading eigenvectors come from the sweep's own ``_gram_eigh``, which
    ``TestGramEigh`` pins to ``np.linalg.eigh``."""
    acq = mask.acquired
    ref = data.stack()
    x = np.where(acq, ref, 0.0)
    trace, converged, chosen, it = [], False, rank, 0
    for it in range(1, max_iters + 1):
        c = lift(MultiKSignal.from_array(data.grid, x), L, P, variant).matrix
        lam, leading = lpk.recon._gram_eigh(c)
        s = np.sqrt(np.clip(lam, 0.0, None))[: min(c.shape)]
        if chosen is None:
            chosen = min(max(1, int(np.sum(s > tau * s[0]))), len(s))
        vr = leading(chosen)
        trunc = (c @ vr) @ vr.conj().T
        x_new = StructuredMatrix(trunc, data.grid, L, P, data.q_count, variant).unlift().stack()
        x_new[:, acq] = ref[:, acq]
        change = float(np.linalg.norm(x_new - x)) / max(float(np.linalg.norm(x)), np.finfo(float).tiny)
        trace.append(change)
        x = x_new
        if change <= tol:
            converged = True
            break
    report = lpk.recon.ReconReport(
        method=f"lowrank-{variant}", iterations=it, converged=converged,
        objective_trace=tuple(trace), rank=chosen,
        spectrum_head=tuple(float(v) for v in s[:32]),
        degenerate=bool(chosen < len(s) and s[chosen] > 0.999 * s[chosen - 1]),
        notes=() if converged else (
            f"lowrank stopped at the sweep cap ({max_iters}); "
            f"last relative change {trace[-1]:.3g} (tol {tol:.3g})",
        ),
    )
    return MultiKSignal.from_array(data.grid, x), report


# Cases shaped like the benchmark's: (scene, grid, calibration, sweeps).
BENCH_SHAPES = {
    "sweep1d": (demo_scene_1d, (64,), 12, 100),
    "random2d": (demo_scene_2d, (48, 48), 16, 3),
}


@pytest.fixture(scope="module")
def bench_cases():
    """Each bench-shaped case on a random R=3 mask with noise at 1e-3 of
    the RMS sample, built from the public functions as the benchmark
    builds it, with its sweep count."""
    cases = {}
    for name, (scene, shape, calib, sweeps) in BENCH_SHAPES.items():
        grid = centered_grid(shape, 1.0)
        truth = scene_samples(scene(), grid)
        rms = float(np.sqrt(np.mean(np.abs(truth.stack()) ** 2)))
        mask = gen_mask(MaskSpec("random", 3, calib, seed=7), grid)
        measured = zero_fill(add_noise(truth, 1e-3 * rms, 8), mask)
        cases[name] = measured, mask, sweeps
    return cases


@pytest.mark.parametrize("variant", ["C", "S"])
@pytest.mark.parametrize("name", list(BENCH_SHAPES))
class TestBenchShapes:
    """The sweep and its lift and unlift at the benchmark's shapes, far
    above the hypothesis grids: ``[4, 64]`` with 100 sweeps and
    ``[8, 48, 48]`` with 3."""

    def test_sweep_matches_public_lift_and_unlift(self, bench_cases, name, variant):
        measured, mask, sweeps = bench_cases[name]
        kwargs = dict(L=2, P=2, rank=None, variant=variant, max_iters=sweeps)
        got, rep = lowrank_complete(measured, mask, **kwargs)
        want, ref = object_lowrank_complete(measured, mask, **kwargs)
        assert got.stack().tobytes() == want.stack().tobytes()
        assert rep == ref
        assert rep.iterations == sweeps

    def test_lift_and_unlift_match_the_loops(self, bench_cases, name, variant):
        measured, _, _ = bench_cases[name]
        x = measured.stack()
        src = lpk.recon._with_mirrors(x, measured.grid) if variant == "S" else x
        sm = lift(measured, 2, 2, variant)
        assert sm.matrix.tobytes() == strided_window_rows(src, 2, 2).tobytes()
        assert sm.unlift().stack().tobytes() == per_tap_unlift(sm).tobytes()


def trace_case():
    g = centered_grid(64, 1.0)
    mask = gen_mask(MaskSpec("uniform", 2, 12), g)
    data = zero_fill(add_noise(scene_samples(demo_scene_1d(), g), 1e-3, 2), mask)
    return data, mask, nullspace_filter_bank(data, mask.calib, 2, 2, limit=4)


def public_objective(est, data, mask, bank, lam):
    """The solve's objective recomputed with the public convolution: the
    bank's response energy (hard), or the acquired-sample misfit plus
    ``lam`` times it (soft)."""
    energy = sum(np.sum(np.abs(conv_response(est, mf).values) ** 2) for mf in bank.filters)
    misfit = np.sum(np.abs(est.values - data.values)[:, mask.acquired] ** 2)
    return energy if lam == 0.0 else misfit + lam * energy


class TestAnnihilationRecon:
    def test_exact_bank_recovers_hard_mode(self, masked_two_point):
        sig, mask, masked = masked_two_point
        bank = nullspace_filter_bank(sig, None, 0, 2)
        out, rep = annihilation_recon(masked, mask, bank, tol=1e-12, max_iters=200)
        assert rel_err(out.values[0], sig.values) <= 1e-8
        assert rep.converged

    def test_objective_trace_monotone(self, masked_two_point):
        sig, mask, masked = masked_two_point
        bank = nullspace_filter_bank(sig, None, 0, 2)
        _, rep = annihilation_recon(masked, mask, bank, tol=1e-12, max_iters=200)
        tr = np.array(rep.objective_trace)
        slack = 1e-12 * max(tr[0], 1.0)
        assert np.all(np.diff(tr) <= slack)

    @pytest.mark.parametrize("lam", [0.0, 0.5])
    @pytest.mark.parametrize("max_iters", [1, 3, 500])
    def test_objective_trace_ends_at_the_objective_of_the_estimate(
        self, lam, max_iters, monkeypatch
    ):
        # A capped CG run returns that step's iterate, so the short runs
        # check the first trace entries too.
        monkeypatch.setattr(lpk.recon, "_DIRECT_UNKNOWNS", FORCING["fft"])
        data, mask, bank = trace_case()
        est, rep = annihilation_recon(data, mask, bank, lam=lam, max_iters=max_iters)
        trace = rep.objective_trace
        assert len(trace) == rep.iterations + 1
        assert abs(trace[-1] - public_objective(est, data, mask, bank, lam)) <= 1e-9 * trace[0]

    def test_acquired_entries_untouched(self, masked_two_point):
        sig, mask, masked = masked_two_point
        bank = nullspace_filter_bank(sig, None, 0, 2)
        out, _ = annihilation_recon(masked, mask, bank, tol=1e-3, max_iters=3)
        got = out.values[0][mask.acquired]
        assert np.array_equal(got, sig.values[mask.acquired])

    def test_nothing_missing_is_identity(self, masked_two_point):
        sig, _, _ = masked_two_point
        bank = nullspace_filter_bank(sig, None, 0, 2)
        full = SamplingMask(sig.grid, np.ones(32, dtype=bool))
        out, rep = annihilation_recon(sig, full, bank, max_iters=50)
        assert rep.iterations == 0
        assert np.array_equal(out.values[0], sig.values)

    def test_anchor_only_bank_gives_zero_fill(self, masked_two_point):
        _, mask, masked = masked_two_point
        bank = FilterBank(np.array([[[-1.0]]]), 0, 0, (0.0,), (0,))
        out, rep = annihilation_recon(masked, mask, bank, tol=1e-12, max_iters=50)
        assert rep.iterations == 0
        assert np.array_equal(out.values[0], masked.values)

    def test_soft_penalty_approaches_hard_constraint(self, masked_two_point):
        sig, mask, masked = masked_two_point
        bank = nullspace_filter_bank(sig, None, 0, 2)
        hard, _ = annihilation_recon(masked, mask, bank, tol=1e-12, max_iters=200)
        soft, _ = annihilation_recon(masked, mask, bank, lam=1e6, tol=1e-14, max_iters=500)
        assert rel_err(soft.values[0], hard.values[0]) <= 1e-4

    def test_agrees_with_lowrank_on_liftable_data(self, masked_two_point):
        sig, mask, masked = masked_two_point
        bank = nullspace_filter_bank(sig, None, 3, 3)
        anni, _ = annihilation_recon(masked, mask, bank, tol=1e-12, max_iters=500)
        lowr, _ = lowrank_complete(masked, mask, L=3, P=3, rank=2, tol=1e-12, max_iters=500)
        assert rel_err(lowr.values[0], anni.values[0]) <= 1e-6

    @pytest.mark.parametrize("lam", [0.0, 0.5])
    def test_capped_solve_says_why(self, masked_two_point, lam, monkeypatch):
        sig, mask, masked = masked_two_point
        bank = nullspace_filter_bank(sig, None, 0, 2)
        monkeypatch.setattr(lpk.recon, "_DIRECT_UNKNOWNS", FORCING["fft"])
        _, rep = annihilation_recon(masked, mask, bank, lam=lam, tol=1e-12, max_iters=2)
        assert (rep.converged, rep.iterations) == (False, 2)
        (note,) = rep.notes
        head = "CG stopped at the iteration cap (2); relative residual "
        assert note.startswith(head) and note.endswith(" (tol 1e-12)")
        assert float(note[len(head):].split()[0]) > 1e-12

    @pytest.mark.parametrize("lam", [0.0, 0.5])
    def test_converged_solve_has_no_notes(self, masked_two_point, lam):
        sig, mask, masked = masked_two_point
        bank = nullspace_filter_bank(sig, None, 0, 2)
        _, rep = annihilation_recon(masked, mask, bank, lam=lam, tol=1e-8, max_iters=500)
        assert rep.converged
        assert rep.notes == ()

    @pytest.mark.parametrize("evaluation,rtol", [("window", 1e-9), ("fft", 1e-2)])
    def test_weakly_coupled_missing_sample_is_solved(self, evaluation, rtol, monkeypatch):
        # Taps [1, d] couple the one missing sample x[0] to the acquired
        # ones only through d, so ||b|| / ||grad0|| is about 1e-13: above
        # the round-off guard of 64 eps, and an exact zero is wrong.  The
        # minimizer of |x[0] + d y[-1]|^2 + |y[1] + d x[0]|^2 is closed form.
        g = centered_grid(16, 1.0)
        y = cplx(np.random.default_rng(0), 16)
        acq = np.ones(16, dtype=bool)
        acq[8] = False  # n = 0 on [-8, 7]
        y[~acq] = 0.0
        d = 1e-12
        bank = FilterBank(np.array([[[1.0, d]]]), 0, 1, (0.0,))
        monkeypatch.setattr(lpk.recon, "_DIRECT_UNKNOWNS", FORCING[evaluation])
        out, rep = annihilation_recon(KSignal(g, y), SamplingMask(g, acq), bank, tol=1e-12)
        want = -d * (y[7] + y[9]) / (1 + d * d)  # n = -1 and 1
        assert rep.converged
        assert out.values[0, 8] == pytest.approx(want, rel=rtol, abs=0.0)

    @pytest.mark.parametrize("evaluation", ["window", "fft"])
    def test_uncoupled_missing_samples_keep_the_zero_fill(self, evaluation, monkeypatch):
        # Taps [1, 0, 0] make each response one sample, so no response
        # mixes a missing sample with an acquired one and the gradient at
        # the missing samples is exactly zero.  The window rows give that
        # zero exactly and the direct solve takes no step; the FFT
        # evaluation leaves round-off there, which CG must not step on.
        g = centered_grid(16, 1.0)
        acq = np.arange(16) % 2 == 0
        y = np.where(acq, cplx(np.random.default_rng(0), 16), 0.0)
        bank = FilterBank(np.array([[[1.0, 0.0, 0.0]]]), 1, 1, (0.0,))
        monkeypatch.setattr(lpk.recon, "_DIRECT_UNKNOWNS", FORCING[evaluation])
        out, rep = annihilation_recon(KSignal(g, y), SamplingMask(g, acq), bank, tol=1e-12)
        assert (rep.iterations, rep.converged) == (0, True)
        assert np.array_equal(out.values[0], y)

    def test_non_positive_curvature_is_named(self):
        # Indefinite diag(2, -1): one step goes through, the next has pᴴAp < 0.
        a = np.array([2.0, -1.0])
        _, it, converged, *_, notes = lpk.recon._cg(
            lambda v: a * v, np.ones(2, complex), tol=1e-12, max_iters=10
        )
        assert (it, converged) == (1, False)
        assert notes == (
            "CG stopped on non-positive curvature at step 2; relative residual 3 (tol 1e-12)",
        )


def direct_forward(x, taps):
    """Per-(filter, channel) valid-mode convolutions, summed over channels."""
    return np.array([
        sum(scipy.signal.convolve(x[q], t, mode="valid", method="direct") for q, t in enumerate(row))
        for row in taps
    ])


def direct_adjoint(resps, taps, shape):
    """Full-mode convolutions with the conjugate-reversed taps."""
    grad = np.zeros(shape, dtype=np.complex128)
    for row, r in zip(taps, resps):
        for q, t in enumerate(row):
            rev = np.conj(t[(slice(None, None, -1),) * t.ndim])
            grad[q] += scipy.signal.convolve(r, rev, mode="full", method="direct")
    return grad


class DirectBank:
    """Drop-in for ``_BankOperator`` that runs the direct loops."""

    def __init__(self, taps, shape):
        self.taps = taps
        self.shape = tuple(shape)

    def forward(self, x):
        return direct_forward(x, self.taps)

    def adjoint(self, resp):
        return direct_adjoint(resp, self.taps, self.shape)


def random_bank(rng, F, Q, L, P, dims):
    shape = (L + P + 1,) * dims
    taps = [
        [rng.normal(size=shape) + 1j * rng.normal(size=shape) for _ in range(Q)]
        for _ in range(F)
    ]
    return FilterBank(np.array(taps), L, P, (0.0,) * F)


def cplx(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@st.composite
def bank_cases(draw):
    """A random bank and data shape: 1D or 2D, F and Q in 1..4, L != P,
    grids from the tap width up."""
    dims = draw(st.sampled_from([1, 2]))
    F = draw(st.integers(1, 4))
    Q = draw(st.integers(1, 4))
    L = draw(st.integers(0, 3))
    P = draw(st.integers(0, 3).filter(lambda p: p != L))
    width = L + P + 1
    grid = tuple(draw(st.integers(width, width + 6)) for _ in range(dims))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    return rng, random_bank(rng, F, Q, L, P, dims), (Q,) + grid


# A bound on the unknowns that forces each path of ``_bank_solve`` by
# the bank evaluation it runs on: the normal matrix assembled from window
# rows and solved directly, or CG on the FFT evaluation.
FORCING = {"window": 2**62, "fft": -1}

# The benchmark mask each bench shape is solved on, and its soft weight:
# sweep1d's densest mask, the 2D engines' masks, and the sms solve over
# the slice sum.
BENCH_SOLVES = {
    (4, 64): (MaskSpec("random", 3, 12, seed=0), 0.0),
    (8, 48, 48): (MaskSpec("random", 3, 16, seed=0), 0.0),
    (8, 64, 64): (MaskSpec("uniform", 2, 16), 0.0),
    (2, 64): (MaskSpec("uniform", 2, 12), 1.0),
}


def lanczos_tridiagonal(alphas, betas):
    """The tridiagonal matrix CG builds implicitly, entry by entry."""
    m = len(alphas)
    T = np.zeros((m, m))
    for j in range(m):
        T[j, j] = 1.0 / alphas[j] + (betas[j - 1] / alphas[j - 1] if j > 0 else 0.0)
        if j < m - 1:
            T[j, j + 1] = T[j + 1, j] = np.sqrt(betas[j]) / alphas[j]
    return T


class TestRitzConditioning:
    @pytest.mark.parametrize("m", [2, 3, 17, 200])
    def test_matches_the_dense_spectrum(self, m):
        rng = np.random.default_rng(m)
        alphas, betas = rng.uniform(0.05, 2.0, m), rng.uniform(0.01, 0.95, m)
        vals = np.linalg.eigvalsh(lanczos_tridiagonal(alphas, betas))
        assert vals[0] > 0
        np.testing.assert_allclose(
            _ritz_conditioning(list(alphas), list(betas)), vals[-1] / vals[0], rtol=1e-10
        )

    def test_full_cg_run_recovers_the_condition_number(self):
        # After n steps on an n x n SPD system the Ritz values are its eigenvalues.
        a = np.array([0.5, 1.0, 2.0, 3.0, 7.0, 10.0])
        _, _, converged, alphas, betas, *_ = lpk.recon._cg(
            lambda v: a * v, np.ones(6, complex), tol=1e-13, max_iters=6
        )
        assert converged and len(alphas) == 6
        assert _ritz_conditioning(alphas, betas) == pytest.approx(20.0, rel=1e-8)

    def test_empty_and_single_step(self):
        assert _ritz_conditioning([], []) is None
        assert _ritz_conditioning([0.25], [0.5]) == 1.0

    @pytest.mark.parametrize("alphas,betas", [([-0.5], [0.1]), ([1.0, -0.5], [0.25, 0.1])])
    def test_non_positive_minimum_gives_none(self, alphas, betas):
        assert np.linalg.eigvalsh(lanczos_tridiagonal(alphas, betas))[0] <= 0
        assert _ritz_conditioning(alphas, betas) is None


@pytest.mark.parametrize(
    "report",
    [
        ReconReport(method="zero-fill", iterations=0, converged=True),
        ReconReport(
            method="annihilation-hard", iterations=3, converged=False,
            objective_trace=(4.0, 2.5, 1.25, 1.0), conditioning=123.5,
            notes=("CG stopped at the iteration cap (3); relative residual 0.1 (tol 1e-09)",),
        ),
        ReconReport(
            method="lowrank-C", iterations=7, converged=True, objective_trace=(1.0, 0.5),
            rank=2, spectrum_head=(3.0, 1.5, 1e-9), degenerate=True,
            notes=("first note", "second note"),
        ),
    ],
)
def test_report_json_round_trip(report):
    assert report_from_json(report_to_json(report)) == report
    assert report_from_json(json.loads(json.dumps(report_to_json(report)))) == report


class TestBankOperator:
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(case=bank_cases())
    def test_matches_direct_loops(self, case):
        rng, bank, shape = case
        x = cplx(rng, shape)
        want_fwd = direct_forward(x, bank.taps)
        r = cplx(rng, want_fwd.shape)
        want_adj = direct_adjoint(r, bank.taps, shape)
        op = _BankOperator(bank.taps, shape)
        got = op.forward(x)
        assert got.shape == want_fwd.shape
        assert np.linalg.norm(got - want_fwd) <= 1e-13 * np.linalg.norm(want_fwd)
        got = op.adjoint(r)
        assert got.shape == shape
        assert np.linalg.norm(got - want_adj) <= 1e-13 * np.linalg.norm(want_adj)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(case=bank_cases())
    def test_adjointness(self, case):
        rng, bank, shape = case
        x = cplx(rng, shape)
        op = _BankOperator(bank.taps, shape)
        ax = op.forward(x)
        y = cplx(rng, ax.shape)
        lhs = np.vdot(y, ax)
        rhs = np.vdot(op.adjoint(y), x)
        assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(ax) * np.linalg.norm(y)

    @pytest.mark.parametrize("shape,L,P,F,evaluation", [
        ((4, 64), 2, 2, 4, "window"),  # sweep1d: 136 unknowns, solved directly
        ((8, 48, 48), 2, 2, 8, "fft"),  # random2d: 12,288 unknowns, CG
        ((8, 64, 64), 2, 2, 8, "fft"),  # demo2d: 15,872 unknowns, CG
        ((2, 64), 2, 2, 2, "window"),  # sms, R = 2: 128 unknowns, solved directly
    ])
    def test_bench_shapes_keep_their_evaluation(self, shape, L, P, F, evaluation, monkeypatch):
        # Each bench shape on its benchmark mask: the path is chosen from
        # the count of unknowns alone, and one step shows which ran.
        bank = random_bank(np.random.default_rng(0), F, shape[0], L, P, len(shape) - 1)
        spec, lam = BENCH_SOLVES[shape]
        acq = gen_mask(spec, centered_grid(shape[1:], 1.0)).acquired
        acq = acq[None] if lam else np.broadcast_to(acq, shape)
        y = np.where(acq, cplx(np.random.default_rng(1), acq.shape), 0.0)
        seen = []
        for name in ("_dense_solve", "_cg"):
            solve = getattr(lpk.recon, name)
            monkeypatch.setattr(
                lpk.recon, name, lambda *a, solve=solve, name=name: seen.append(name) or solve(*a)
            )
        lpk.recon._bank_solve(bank.taps, shape, y, acq, lam, 1e-9, 1, "guard")
        assert seen == [{"window": "_dense_solve", "fft": "_cg"}[evaluation]]

    def test_mismatches_rejected(self):
        rng = np.random.default_rng(0)
        bank2d = random_bank(rng, 2, 3, 1, 2, 2)
        with pytest.raises(ValueError, match="2D"):
            _BankOperator(bank2d.taps, (3, 16))
        with pytest.raises(ValueError, match="channels"):
            _BankOperator(bank2d.taps, (2, 8, 8))
        with pytest.raises(ValueError, match="width"):
            _BankOperator(bank2d.taps, (3, 8, 3))
        g = centered_grid(16, 1.0)
        data = MultiKSignal.from_array(g, cplx(rng, (3, 16)))
        mask = SamplingMask(g, np.arange(16) % 2 == 0)
        with pytest.raises(ValueError, match="2D"):
            annihilation_recon(data, mask, bank2d)
        with pytest.raises(ValueError, match="channels"):
            annihilation_recon(data, mask, random_bank(rng, 2, 2, 1, 2, 1))

    @staticmethod
    def demo_2d_case(shape):
        grid = centered_grid(shape, 1.0)
        truth = scene_samples(demo_scene_2d(), grid)
        mask = gen_mask(MaskSpec("random", 2, 8, seed=4), grid)
        measured = zero_fill(truth, mask)
        return measured, mask, nullspace_filter_bank(measured, mask.calib, 1, 2, limit=4)

    @pytest.mark.parametrize("lam", [0.0, 0.5])
    def test_recon_matches_direct_oracle(self, lam, monkeypatch):
        # Twenty-five CG steps on the FFT evaluation and on the direct loops.
        measured, mask, bank = self.demo_2d_case((20, 18))
        monkeypatch.setattr(lpk.recon, "_DIRECT_UNKNOWNS", FORCING["fft"])
        got, rep = annihilation_recon(measured, mask, bank, lam=lam, tol=1e-30, max_iters=25)
        monkeypatch.setattr(lpk.recon, "_BankOperator", DirectBank)
        want, ref = annihilation_recon(measured, mask, bank, lam=lam, tol=1e-30, max_iters=25)
        assert rep.iterations == ref.iterations == 25
        got, want = got.stack(), want.stack()
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    @pytest.mark.parametrize("lam", [0.0, 0.5])
    def test_window_recon_matches_direct_oracle(self, lam, monkeypatch):
        # The direct solve against the minimum-norm least-squares solution
        # of the direct loops' rows, on a 2D grid of 104 (hard) and 720
        # (soft, above the bound) unknowns; both normal matrices are
        # singular, so this is the eigh branch.
        measured, mask, bank = self.demo_2d_case((10, 9))
        monkeypatch.setattr(lpk.recon, "_DIRECT_UNKNOWNS", FORCING["window"])
        got, rep = annihilation_recon(measured, mask, bank, lam=lam)
        acq = np.broadcast_to(mask.acquired, measured.values.shape)
        want = oracle_min_norm(bank.taps, measured.values, acq, lam)
        assert (rep.iterations, rep.converged) == (1, True)
        assert rel_err(got.values, want) <= rep.conditioning * EPS


EPS = np.finfo(float).eps


def oracle_min_norm(taps, y, acq, lam):
    """The minimizer ``_bank_solve`` returns, from the direct loops: the
    minimum-norm least-squares solution (LAPACK gelsd) over the unknowns
    of the loops' responses to identity columns, below the identity rows
    of the acquired samples when soft.  Its cut on singular values,
    ``sqrt(n eps)`` of the largest, is the direct solve's ``n eps`` on
    the eigenvalues of the normal matrix; gelsd's own cut, the unit
    round-off, keeps round-off null directions of an exactly singular
    system."""
    shape = y.shape
    y = np.where(acq, y, 0.0).reshape(-1)
    unknown = np.flatnonzero(~acq) if lam == 0.0 else np.arange(y.size)
    eye = np.eye(y.size)
    rows = np.array([direct_forward(eye[a].reshape(shape), taps).ravel() for a in unknown]).T
    if lam == 0.0:
        rhs = -direct_forward(y.reshape(shape), taps).ravel()
        x = y.copy()
    else:
        data = eye[acq.reshape(-1)]
        rows = np.vstack([data, np.sqrt(lam) * rows])
        rhs = np.concatenate([data @ y, np.zeros(rows.shape[0] - len(data))])
        x = np.zeros_like(y)
    x[unknown] = scipy.linalg.lstsq(
        rows, rhs, cond=np.sqrt(unknown.size * EPS), lapack_driver="gelsd"
    )[0]
    return x.reshape(shape)


def derived_seed(*parts):
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def sweep1d_cases(seed):
    """The benchmark's 36 ``sweep1d`` cases at one seed, built from the
    public functions as ``bench/workloads.py`` builds them:
    ``(label, measured, mask)``."""
    grid = centered_grid(64, 1.0)
    truth = scene_samples(demo_scene_1d(), grid)
    rms = float(np.sqrt(np.mean(np.abs(truth.stack()) ** 2)))
    for d in range(6):
        for mi, (kind, r) in enumerate([("uniform", 2), ("random", 2), ("random", 3)]):
            mask = gen_mask(MaskSpec(kind, r, 12, seed=derived_seed(seed, 0, d, mi)), grid)
            for si, rel in enumerate([0.0, 1e-3]):
                noisy = add_noise(truth, rel * rms, derived_seed(seed, 0, d, mi, si, 1))
                yield f"d{d}-{kind}R{r}-s{rel:g}", zero_fill(noisy, mask), mask


class TestDirectSolve:
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(case=bank_cases(), lam=st.sampled_from([0.0, 0.5]), frac=st.floats(0.2, 0.8))
    def test_normal_system_matches_direct_loops(self, case, lam, frac):
        # The assembled matrix is the direct loops' rows on identity
        # columns, multiplied out over the unknowns (plus the data rows
        # when soft), and the right-hand side their answer at the start.
        rng, bank, shape = case
        acq = rng.random(shape) < frac
        y = np.where(acq, cplx(rng, shape), 0.0)
        free = ~acq if lam == 0.0 else np.ones(shape, dtype=bool)
        x = y if lam == 0.0 else np.zeros_like(y)
        d = np.flatnonzero(acq)[:, None] if lam else np.empty((0, 1), dtype=int)
        m, b = lpk.recon._normal_system(bank.taps, free, x, lam or 1.0, d, y.reshape(-1)[d[:, 0]])
        unknown = np.flatnonzero(free)
        eye = np.eye(y.size)
        rows = np.array([direct_forward(e.reshape(shape), bank.taps).ravel() for e in eye]).T
        if lam == 0.0:
            want_m = rows[:, unknown].conj().T @ rows[:, unknown]
            want_b = -(rows[:, unknown].conj().T @ (rows @ y.reshape(-1)))
        else:
            want_m = np.diag(acq.reshape(-1).astype(float)) + lam * rows.conj().T @ rows
            want_b = y.reshape(-1)
        assert np.linalg.norm(m - want_m) <= 1e-13 * np.linalg.norm(want_m)
        assert np.linalg.norm(b - want_b) <= 1e-13 * np.linalg.norm(want_b)

    @pytest.mark.parametrize("seed", [1, 2, 21])
    def test_sweep1d_solves_are_the_minimum_norm_least_squares(self, seed):
        # Over these 108 cases the relative difference read at most
        # 0.025 kappa eps, kappa up to 4.5e12.
        for label, measured, mask in sweep1d_cases(seed):
            bank = nullspace_filter_bank(measured, mask.calib, 2, 2, limit=4)
            got, rep = annihilation_recon(measured, mask, bank)
            acq = np.broadcast_to(mask.acquired, measured.values.shape)
            want = oracle_min_norm(bank.taps, measured.values, acq, 0.0)
            assert (rep.iterations, rep.converged, rep.notes) == (1, True, ()), label
            assert rel_err(got.values[~acq], want[~acq]) <= rep.conditioning * EPS, label

    def test_conditioning_is_that_of_the_factored_matrix(self):
        # zpocon estimates the 1-norm condition number, which lies within
        # a factor n of the 2-norm one that np.linalg.cond takes; on these
        # cases the two read 2.1-3.9 apart.
        for label, measured, mask in sweep1d_cases(21):
            bank = nullspace_filter_bank(measured, mask.calib, 2, 2, limit=4)
            _, rep = annihilation_recon(measured, mask, bank)
            acq = np.broadcast_to(mask.acquired, measured.values.shape)
            y = np.where(acq, measured.values, 0.0)
            nothing_seen = np.empty((0, 1), dtype=int)
            m, _ = lpk.recon._normal_system(bank.taps, ~acq, y, 1.0, nothing_seen, np.empty(0))
            cond = np.linalg.cond(m)
            assert cond / m.shape[0] <= rep.conditioning <= m.shape[0] * cond, label

    @pytest.mark.parametrize("lam", [0.0, 0.5])
    def test_objective_trace_is_the_start_and_the_estimate(self, lam):
        # (f0, f(x)), each recomputed: the zero-filled (hard) or zero
        # (soft) start's objective and the estimate's.
        data, mask, bank = trace_case()
        est, rep = annihilation_recon(data, mask, bank, lam=lam)
        start = data if lam == 0.0 else MultiKSignal.from_array(mask.grid, 0 * data.values)
        want = [public_objective(x, data, mask, bank, lam) for x in (start, est)]
        assert rep.iterations == 1
        assert rep.objective_trace == pytest.approx(want, rel=1e-12, abs=1e-9 * want[0])

    def test_no_step_below_one_iteration(self, masked_two_point):
        sig, mask, masked = masked_two_point
        bank = nullspace_filter_bank(sig, None, 0, 2)
        out, rep = annihilation_recon(masked, mask, bank, max_iters=0)
        assert (rep.iterations, rep.converged, rep.conditioning) == (0, False, None)
        assert rep.notes == ("direct solve not taken at the iteration cap (0)",)
        assert np.array_equal(out.values[0], masked.values)

    def test_a_mostly_acquired_2d_grid_stays_small(self):
        # Four missing samples on 64 x 64, eight coils: the assembly reads
        # the windows around them only.  The grid's lifted [V, Q·ΠW]
        # window matrix is 11.5 MB, and the [F·V, Q·ΠN] matrix of the
        # bank's rows 15 GB.
        grid = centered_grid((64, 64), 1.0)
        truth = scene_samples(demo_scene_2d(), grid)
        acq = np.ones(grid.shape, dtype=bool)
        acq[[3, 20, 41, 60], [50, 7, 33, 12]] = False
        mask = SamplingMask(grid, acq)
        bank = random_bank(np.random.default_rng(0), 8, 8, 2, 2, 2)
        measured = zero_fill(truth, mask)
        tracemalloc.start()
        est, rep = annihilation_recon(measured, mask, bank)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert (rep.iterations, rep.converged) == (1, True)
        assert peak <= 2**22
        assert np.array_equal(est.values[:, acq], measured.values[:, acq])


REFLECTION_GRIDS = [
    ((-4,), (4,)), ((-4,), (3,)), ((-3,), (5,)), ((0,), (5,)), ((1,), (4,)),
    ((-5,), (-1,)), ((-5,), (0,)), ((-2, 0), (3, 4)), ((-3, -5), (2, -1)), ((-2, 1), (2, 3)),
]


@pytest.mark.parametrize("n_min,n_max", REFLECTION_GRIDS)
def test_reflection_matches_the_per_index_loop(n_min, n_max):
    grid = KGrid.window(n_min, n_max, (1.0,) * len(n_min))
    x = cplx(np.random.default_rng(3), (2,) + grid.shape)
    want = np.zeros_like(x)
    for idx in np.ndindex(grid.shape):
        # The position of index -n, if that index is on the grid.
        mirror = tuple(-(i + lo) - lo for i, lo in zip(idx, grid.n_min))
        if all(0 <= m < s for m, s in zip(mirror, grid.shape)):
            want[(slice(None),) + idx] = x[(slice(None),) + mirror]
    assert lpk.recon._reflect_values(x, grid).tobytes() == want.tobytes()


class TestVirtualConjugate:
    """The conjugate-mirrored channels that ``pf_recon`` and
    ``lowrank_complete(variant="S")`` append, from ``_with_mirrors``."""

    def test_mirrored_values(self):
        g = centered_grid(5, 1.0)
        vals = np.array([1 - 1j, 2.0, 3 + 2j, 4.0, 5 + 1j])
        vc = lpk.recon._with_mirrors(vals[None], g)
        assert vc.shape == (2, 5)
        assert np.array_equal(vc[0], vals)
        assert np.array_equal(vc[1], np.conj(vals[::-1]))

    def test_zero_phase_copy_is_identical(self):
        g = centered_grid(33, 1.0)
        sig = fourier_samples(
            Phantom((Primitive("boxcar", (0.0,), (0.2,), 1.5),), (1.0,)), g
        )
        vc = lpk.recon._with_mirrors(sig.values[None], g)
        assert np.max(np.abs(vc[1] - vc[0])) <= 1e-14

    def test_asymmetric_grid_zero_fills_edge(self):
        g = centered_grid(4, 1.0)  # indices -2..1; n = -2 has no mirror
        vals = np.arange(1.0, 5.0) + 1j
        vc = lpk.recon._with_mirrors(vals[None], g)
        assert vc[1, 0] == 0.0
        assert np.array_equal(vc[1, 1:], np.conj(vals[:0:-1]))


class TestReflectMask:
    """The mirrored mask ``pf_recon`` appends for the conjugate channels."""

    def test_acquired_mirrored(self):
        g = centered_grid(5, 1.0)
        acq = np.array([True, True, False, False, True])
        r = lpk.recon._reflect_values(SamplingMask(g, acq).acquired, g, fill=False)
        assert r.tolist() == [True, False, False, True, True]


def two_channels_two_masks():
    """Two channels whose masks differ; the second one's calibration block
    is off center and misses indices -1..1."""
    g = centered_grid(32, 1.0)
    data = MultiKSignal.from_array(g, cplx(np.random.default_rng(1), (2, 32)))
    m0 = gen_mask(MaskSpec("random", 2, 8, seed=0), g)
    n = np.arange(-16, 16)
    acq = (n % 2 == 0) | ((n >= 4) & (n <= 11))
    m1 = SamplingMask(g, acq, ((4, 11),))
    return zero_fill(data, m0), m0, m1


@pytest.mark.parametrize("solve", [
    lambda data, masks: lowrank_complete(data, masks, max_iters=1),
    lambda data, masks: annihilation_recon(
        data, masks, random_bank(np.random.default_rng(0), 2, 2, 1, 1, 1), max_iters=1
    ),
    lambda data, masks: pf_recon(data, masks),
    lambda data, masks: lowrank_complete(data, masks, variant="S", max_iters=1),
], ids=["lowrank", "annihilation", "pf-annihilation-vc", "pf-lowrank-S"])
@pytest.mark.parametrize("kind", [list, tuple])
def test_one_mask_per_channel_is_a_type_error(solve, kind):
    data, m0, m1 = two_channels_two_masks()
    with pytest.raises(TypeError, match="one SamplingMask"):
        solve(data, kind([m0, m1]))


@pytest.mark.parametrize("lam", [-1.0, np.nan, np.inf, -np.inf])
def test_a_lam_that_is_not_finite_and_nonnegative_is_rejected(masked_two_point, lam):
    # nan and inf reached the dense solve and ended in an IndexError.
    _, mask, masked = masked_two_point
    bank = nullspace_filter_bank(masked, mask.calib, 1, 1)
    with pytest.raises(ValueError, match="^lam must be finite and nonnegative, not "):
        annihilation_recon(masked, mask, bank, lam=lam)


class TestPfRecon:
    @staticmethod
    def pf_case():
        g = centered_grid(33, 1.0)
        ph = Phantom(
            (
                Primitive("boxcar", (0.05,), (0.18,), 1.0),
                Primitive("boxcar", (-0.22,), (0.07,), 0.6),
            ),
            (1.0,),
        )
        sig = fourier_samples(ph, g)
        mask = gen_mask(MaskSpec("random_pf", r=1, calib=7, pf=0.625, seed=0), g)
        masked = KSignal(g, np.where(mask.acquired, sig.values, 0))
        return sig, mask, masked

    def test_zero_phase_exact_via_conjugate_channels(self):
        sig, mask, masked = self.pf_case()
        out, rep = pf_recon(masked, mask, tol=1e-12, max_iters=200)
        assert out.q_count == 1
        assert rel_err(out.values[0], sig.values) <= 1e-12
        assert rep.converged

    def test_capped_solve_note_is_forwarded(self, monkeypatch):
        _, mask, masked = self.pf_case()
        monkeypatch.setattr(lpk.recon, "_DIRECT_UNKNOWNS", FORCING["fft"])
        _, rep = pf_recon(masked, mask, L=1, P=1, tol=1e-12, max_iters=2)
        assert not rep.converged
        assert len(rep.notes) == 1 and rep.notes[0].startswith("CG stopped at the iteration cap (2);")

    def test_report_is_the_inner_solve_report_renamed(self, monkeypatch):
        _, mask, masked = self.pf_case()
        inner = []
        solve = lpk.recon._bank_solve

        def spy(*args, **kwargs):
            out = solve(*args, **kwargs)
            inner.append(out[1])
            return out

        monkeypatch.setattr(lpk.recon, "_bank_solve", spy)
        _, rep = pf_recon(masked, mask, L=1, P=1, max_iters=2)
        (want,) = inner
        assert rep.method == "annihilation-vc"
        for field in dataclasses.fields(ReconReport):
            assert getattr(rep, field.name) == getattr(want, field.name), field.name

    def test_symmetric_lowrank_route_improves_on_zero_fill(self):
        sig, mask, masked = self.pf_case()
        out, rep = lowrank_complete(masked, mask, variant="S", tol=1e-10, max_iters=300)
        err = rel_err(out.values[0], sig.values)
        assert err <= 0.5 * rel_err(masked.values, sig.values)
        assert err <= 5e-2

    def test_needs_calibration_region(self):
        sig, _, _ = self.pf_case()
        g = sig.grid
        mask = gen_mask(MaskSpec("random_pf", r=1, calib=0, pf=0.625, seed=0), g)
        masked = KSignal(g, np.where(mask.acquired, sig.values, 0))
        with pytest.raises(ValueError, match="calibration"):
            pf_recon(masked, mask)

    def test_fit_region_is_the_calibration_box_within_its_mirror(self):
        # Only -3..3 of the box -3..5 has its mirror in the box, so the two
        # masks fit the same bank and give the same solve.
        sig, mask, _ = self.pf_case()
        g = sig.grid
        n = g.index_vectors()[0]
        acq = mask.acquired | ((n >= -3) & (n <= 5))
        masked = KSignal(g, np.where(acq, sig.values, 0))
        wide, wide_rep = pf_recon(masked, SamplingMask(g, acq, ((-3, 5),)), L=1, P=1)
        box, box_rep = pf_recon(masked, SamplingMask(g, acq, ((-3, 3),)), L=1, P=1)
        assert np.array_equal(wide.values, box.values)
        assert wide_rep == box_rep

    def test_calibration_box_off_center_rejected(self):
        sig, mask, _ = self.pf_case()
        g = sig.grid
        n = g.index_vectors()[0]
        acq = mask.acquired | ((n >= 1) & (n <= 7))
        masked = KSignal(g, np.where(acq, sig.values, 0))
        with pytest.raises(ValueError, match="straddle"):
            pf_recon(masked, SamplingMask(g, acq, ((1, 7),)))

    @pytest.mark.parametrize("kwargs", [{"rank": 3}, {"method": "annihilation-vc"}])
    def test_removed_parameters_are_type_errors(self, kwargs):
        _, mask, masked = self.pf_case()
        with pytest.raises(TypeError):
            pf_recon(masked, mask, **kwargs)
