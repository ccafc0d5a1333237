"""Engine registry and experiment runner.

The ``interp`` engine is checked against per-index oracles: acquired
samples pass through, convergence means full coverage, and the pattern
set it fits equals a per-index :func:`pattern_signature` pass.
"""

import csv

import numpy as np
import pytest

from lpk.core import centered_grid, zero_fill
from lpk.harness import (
    ENGINES,
    MaskSpec,
    demo_scene_1d,
    demo_scene_2d,
    gen_mask,
    run_experiment,
)
from lpk.lp import fit_interpolation_filters, pattern_signature
from lpk.multi import scene_samples


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
