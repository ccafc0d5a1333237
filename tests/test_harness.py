"""Engine registry and experiment runner.

The ``interp`` engine is checked against per-index oracles: acquired
samples pass through, convergence means full coverage, and the pattern
set it fits equals a per-index :func:`pattern_signature` pass.  Its
array passes are pinned bitwise to the same passes run through the
public, object-returning fit and imputation.
"""

import csv

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lpk.core import MultiKSignal, SamplingMask, centered_grid, zero_fill
from lpk.harness import (
    ENGINES,
    MaskSpec,
    add_noise,
    demo_scene_1d,
    demo_scene_2d,
    gen_mask,
    run_experiment,
)
from lpk.lp import (
    fit_interpolation_filters,
    interpolate_missing,
    missing_patterns,
    pattern_signature,
)
from lpk.multi import scene_samples
from lpk.recon import ReconReport


def small_2d_case(seed):
    grid = centered_grid((24, 20), 1.0)
    truth = scene_samples(demo_scene_2d(), grid)
    mask = gen_mask(MaskSpec("random", 2, 8, seed=seed), grid)
    return zero_fill(truth, mask), mask


class TestInterpEngine:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("params", [{}, {"passes": 1}])
    def test_keeps_acquired_and_converges_iff_covered(self, seed, params):
        measured, mask = small_2d_case(seed)
        est, report = ENGINES["interp"](measured, mask, params)
        acq = mask.acquired
        assert np.array_equal(est.stack()[:, acq], measured.stack()[:, acq])
        left = bool(np.any(est.stack()[:, ~acq] == 0))
        assert report.converged is (not left)
        assert 1 <= report.iterations <= params.get("passes", 4)

    def test_fitted_patterns_match_per_index_signatures(self):
        measured, mask = small_2d_case(0)
        oracle = set()
        for pos in mask.missing_positions():
            n = tuple(int(p + lo) for p, lo in zip(pos, mask.grid.n_min))
            oracle.add(pattern_signature(mask, n, 2, 2))
        # A fully missing window admits no filter.
        oracle.discard("0" * 25)
        assert set(fit_interpolation_filters(measured, mask, 2, 2)) == oracle

    def test_pass_that_imputes_nothing_is_not_counted(self):
        grid = centered_grid(64, 1.0)
        truth = scene_samples(demo_scene_1d(), grid)
        mask = gen_mask(MaskSpec("uniform", 2, 12), grid)
        est, report = ENGINES["interp"](zero_fill(truth, mask), mask, {"max_resid": 0.0})
        assert report.iterations == 0
        assert report.converged is False
        assert report.notes == ("uncovered indices left at zero-fill",)
        assert np.array_equal(est.stack(), zero_fill(truth, mask).stack())



def object_interp(measured, mask, params):
    """The interp engine's passes written out over the public fit,
    imputation and grouping, each grouping the samples on its own: the
    engine must match it bitwise whatever shortcuts it takes."""
    L, P = params.get("L", 2), params.get("P", 2)
    max_resid = params.get("max_resid", 0.05)
    gain_ratio = params.get("gain_ratio", 50.0)
    grid = measured.grid
    cur = MultiKSignal.from_array(grid, np.where(mask.acquired, measured.stack(), 0.0))
    eff = mask.acquired.copy()
    done = 0
    for done in range(1, params.get("passes", 4) + 1):
        if eff.all():
            done -= 1
            break
        eff_mask = SamplingMask(grid, eff, mask.calib)
        fmap, quality = fit_interpolation_filters(
            cur, eff_mask, L, P, params.get("ridge"), return_quality=True
        )
        fitted = {s for s in fmap if quality[s][0] <= max_resid}
        anchor = min((quality[s][1] for s in fitted), default=0.0)
        useful = {
            s: mfs for s, mfs in fmap.items()
            if s in fitted and quality[s][1] <= gain_ratio * max(anchor, 1e-3)
        }
        if not useful:
            done -= 1
            break
        cur = interpolate_missing(cur, eff_mask, useful, strict=False)
        for sig, pos in missing_patterns(eff_mask, L, P).items():
            if sig in useful:
                eff[tuple(pos.T)] = True
    covered = bool(eff.all())
    notes = () if covered else ("uncovered indices left at zero-fill",)
    return cur, ReconReport(method="interp", iterations=done, converged=covered, notes=notes)


@st.composite
def interp_cases(draw):
    """Demo scenes on small 1D/2D grids, random or uniform masks, L != P,
    1..4 passes, and gates tight enough to hold some patterns back."""
    dims = draw(st.sampled_from([1, 2]))
    L, P = draw(st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(lambda lp: lp[0] != lp[1]))
    if dims == 1:
        grid = centered_grid(draw(st.integers(24, 48)), 1.0)
        truth = scene_samples(demo_scene_1d(), grid)
    else:
        grid = centered_grid((draw(st.integers(14, 20)), draw(st.integers(12, 18))), 1.0)
        truth = scene_samples(demo_scene_2d(), grid)
    spec = MaskSpec(
        draw(st.sampled_from(["random", "uniform"])), draw(st.integers(2, 3)),
        draw(st.integers(L + P + 2, 10)), seed=draw(st.integers(0, 2**16)),
    )
    mask = gen_mask(spec, grid)
    sigma = draw(st.sampled_from([0.0, 0.05]))
    measured = zero_fill(add_noise(truth, sigma, draw(st.integers(0, 99))), mask)
    params = {
        "L": L, "P": P, "passes": draw(st.integers(1, 4)),
        "max_resid": draw(st.sampled_from([1e-3, 0.02, 0.05, 0.3])),
        "gain_ratio": draw(st.sampled_from([1.0, 4.0, 50.0])),
    }
    return measured, mask, params


class TestInterpPasses:
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(case=interp_cases())
    def test_matches_the_public_object_loop(self, case):
        measured, mask, params = case
        est, report = ENGINES["interp"](measured, mask, params)
        want, want_report = object_interp(measured, mask, params)
        assert est.stack().tobytes() == want.stack().tobytes()
        assert (report.iterations, report.converged, report.notes) == (
            want_report.iterations, want_report.converged, want_report.notes,
        )


class TestLowrankEngine:
    @pytest.mark.parametrize("rank", [None, 2])
    def test_no_sweep_returns_zero_fill(self, rank):
        measured, mask = small_2d_case(0)
        params = {"max_iters": 0} if rank is None else {"max_iters": 0, "rank": rank}
        est, report = ENGINES["lowrank"](measured, mask, params)
        assert np.array_equal(est.stack(), measured.stack())
        assert report.iterations == 0
        assert report.converged is False
        assert report.rank == rank
        assert report.spectrum_head == ()
        assert report.degenerate is False

def test_experiment_rows_carry_convergence(tmp_path):
    config = {
        "scene": "demo1d",
        "grid": 64,
        "mask": {"kind": "uniform", "accel": 2, "calib": 12},
        "methods": [{"name": "annihilation", "max_iters": 1}, "zero-fill"],
    }
    doc = run_experiment(config, out_dir=str(tmp_path))
    by_method = {row["method"]: row for row in doc["rows"]}
    assert by_method["annihilation"]["iterations"] == 1
    assert by_method["annihilation"]["converged"] is False
    assert by_method["zero-fill"]["converged"] is True
    with open(tmp_path / "report.csv", newline="") as fh:
        table = list(csv.DictReader(fh))
    header = list(table[0])
    assert header.index("converged") == header.index("iterations") + 1
    assert {r["method"]: r["converged"] for r in table} == {
        "annihilation": "False",
        "zero-fill": "True",
    }


def test_experiment_rows_and_csv_carry_notes(tmp_path):
    config = {
        "scene": "demo1d",
        "grid": 64,
        "mask": {"kind": "uniform", "accel": 2, "calib": 12},
        "methods": [{"name": "lowrank", "max_iters": 3}, "interp"],
    }
    doc = run_experiment(config, out_dir=str(tmp_path))
    cap = "lowrank stopped at the sweep cap (3); last relative change "
    by_method = {row["method"]: row for row in doc["rows"]}
    assert by_method["lowrank"]["notes"].startswith(cap)
    assert by_method["interp"]["converged"] is True and by_method["interp"]["notes"] == ""
    for row, case in zip(doc["rows"], doc["cases"]):
        assert row["notes"] == "; ".join(case["report"]["notes"])
    with open(tmp_path / "report.csv", newline="") as fh:
        table = list(csv.DictReader(fh))
    assert {r["method"]: r["notes"] for r in table} == {
        "lowrank": by_method["lowrank"]["notes"],
        "interp": "",
    }
