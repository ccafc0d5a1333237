"""Mask rules, engine registry and experiment runner.

The ``interp`` engine is checked against per-index oracles: acquired
samples pass through, convergence means full coverage, and the pattern
set it fits equals a per-index :func:`pattern_signature` pass.  Its
passes are pinned bitwise to the same passes written out over the public
fit, imputation and grouping, and no ``Filter`` or ``MultiFilter`` is
built on its path.
"""

import csv

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lpk.core import KSignal, MultiKSignal, SamplingMask, centered_grid, zero_fill
from lpk.harness import (
    ENGINES,
    MaskSpec,
    add_noise,
    demo_scene_1d,
    demo_scene_2d,
    gen_mask,
    run_experiment,
)
from lpk import lp
from lpk.lp import (
    SingularFitError,
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


@pytest.mark.parametrize("multi", [False, True])
def test_add_noise_is_the_per_channel_draw(multi):
    # Per channel a real draw, then an imaginary one, from one generator:
    # the stream every benchmark input was drawn from.
    truth = scene_samples(demo_scene_2d(), centered_grid((12, 10), 1.0))
    data = truth if multi else KSignal(truth.grid, truth.values[1])
    sigma, seed = 0.3, 17
    rng = np.random.default_rng(seed)
    s = sigma / np.sqrt(2.0)
    want = [
        v + s * (rng.standard_normal(v.shape) + 1j * rng.standard_normal(v.shape))
        for v in (truth.values if multi else (data.values,))
    ]
    got = add_noise(data, sigma, seed)
    assert type(got) is type(data) and got.grid == data.grid
    assert (got.stack() if multi else got.values).tobytes() == np.array(want).tobytes()


class TestGenMask:
    """The line rules of ``gen_mask``, each against its own oracle."""

    @staticmethod
    def lines(mask):
        # The first-axis indices whose whole line is acquired.
        rows = mask.acquired.reshape(mask.acquired.shape[0], -1).all(axis=1)
        return list(np.flatnonzero(rows) + mask.grid.n_min[0])

    def test_lowres_keeps_the_centered_fraction(self):
        mask = gen_mask(MaskSpec("lowres", 4, 0), centered_grid((32, 6), 1.0))
        assert self.lines(mask) == list(range(-4, 4))
        assert mask.acquired.sum() == 8 * 6 and mask.calib is None

    def test_uniform_keeps_every_rth_line_from_zero(self):
        mask = gen_mask(MaskSpec("uniform", 3, 0), centered_grid(32, 1.0))
        assert self.lines(mask) == list(range(-15, 16, 3))

    @pytest.mark.parametrize("seed", [0, 5])
    def test_random_draws_a_ceiling_share_of_lines(self, seed):
        grid = centered_grid(33, 1.0)
        mask = gen_mask(MaskSpec("random", 4, 0, seed=seed), grid)
        pick = np.random.default_rng(seed).choice(33, size=9, replace=False)
        assert self.lines(mask) == sorted(pick - 16)

    def test_random_pf_draws_past_its_boundary(self):
        # n_max - round(0.75 * 32) + 1 = -8; ceil(24 / 2) lines from there.
        mask = gen_mask(MaskSpec("random_pf", 2, 0, 0.75, seed=1), centered_grid(32, 1.0))
        pick = np.random.default_rng(1).choice(24, size=12, replace=False)
        assert self.lines(mask) == sorted(pick - 8)
        with pytest.raises(ValueError, match="pf boundary -2 excludes the calibration block"):
            gen_mask(MaskSpec("random_pf", 2, 8), centered_grid(32, 1.0))

    def test_stencil_must_match_the_grid(self):
        with pytest.raises(ValueError, match=r"stencil shape \(4,\) does not match grid \(8,\)"):
            gen_mask(MaskSpec("stencil", stencil=(True,) * 4), centered_grid(8, 1.0))

    def test_stencil_takes_its_bitmap_and_a_given_calib_only(self):
        grid = centered_grid((8, 6), 1.0)
        bitmap = np.zeros(grid.shape, dtype=bool)
        bitmap[2:6, 1:5] = True
        for calib, box in ((None, None), (0, None), (4, ((-2, 1), (-2, 1)))):
            mask = gen_mask(MaskSpec("stencil", calib=calib, stencil=bitmap), grid)
            assert np.array_equal(mask.acquired, bitmap) and mask.calib == box

    @pytest.mark.parametrize("kind,pf", [("uniform", None), ("random", None), ("random_pf", 1.0), ("lowres", None)])
    def test_calib_block_is_forced_on(self, kind, pf):
        grid = centered_grid((16, 12), 1.0)
        mask = gen_mask(MaskSpec(kind, 8, 6, pf, seed=2), grid)
        assert mask.calib == ((-3, 2), (-3, 2))
        assert mask.acquired[8 - 3:8 + 3, 6 - 3:6 + 3].all()
        # The default width is an eighth of the first axis.
        assert gen_mask(MaskSpec(kind, 8, None, pf, seed=2), grid).calib == ((-1, 0), (-1, 0))

    def test_label_names_every_set_field(self):
        assert MaskSpec("uniform", 2).label() == "uniform-R2"
        assert MaskSpec("random_pf", 2, 8, 0.75, seed=3).label() == "random_pf-R2-C8-F0.75-S3"
        assert MaskSpec("random", 3, 0).label() == "random-R3-C0-S0"


@pytest.mark.parametrize(
    "kind,field,message",
    [
        ("uniform", {"r": True}, "mask accel must be an integer, got True"),
        ("random", {"r": 2.5}, "mask accel must be an integer, got 2.5"),
        ("uniform", {"calib": True}, "mask calib must be an integer, got True"),
        ("uniform", {"calib": 4.0}, "mask calib must be an integer, got 4.0"),
        ("random", {"seed": 1.5}, "mask seed must be an integer, got 1.5"),
        ("random", {"seed": False}, "mask seed must be an integer, got False"),
    ],
)
def test_a_mask_spec_integer_given_otherwise_names_its_field(kind, field, message):
    # A bool is an int to Python: r=True would acquire every line and
    # calib=True draw the box ((0, 0),).  Floats would fail inside numpy.
    with pytest.raises(ValueError) as err:
        MaskSpec(kind, **field)
    assert str(err.value) == message


def test_the_mask_config_takes_accel_only():
    config = {"scene": "demo1d", "grid": 32, "mask": {"kind": "uniform", "r": 2}}
    with pytest.raises(ValueError, match=r"unknown mask fields: \['r'\]"):
        run_experiment(config)


@pytest.mark.parametrize(
    "field,value,message",
    [
        ({"accel": 2.5}, 2.5, "mask accel"),
        ({"accel": True}, True, "mask accel"),
        ({"calib": 8.0}, 8.0, "mask calib"),
        ({"calib": False}, False, "mask calib"),
        ({"seed": 1.7}, 1.7, "mask seed"),
        ({"seed": True}, True, "mask seed"),
        ({"seeds": [0, 1.5]}, 1.5, "seeds[1]"),
        ({"seeds": [True]}, True, "seeds[0]"),
    ],
)
def test_a_mask_integer_given_otherwise_names_its_key(field, value, message):
    config = {
        "scene": "demo1d",
        "grid": 32,
        "mask": {"kind": "random", "accel": 2, "calib": 8, "seed": 1},
        "methods": ["zero-fill"],
    }
    if "seeds" in field:
        config.update(field)
    else:
        config["mask"].update(field)
    with pytest.raises(ValueError) as err:
        run_experiment(config)
    assert str(err.value) == f"{message} must be an integer, got {value!r}"


def test_mask_integers_and_a_null_calib_run():
    config = {
        "scene": "demo1d",
        "grid": 32,
        "mask": {"kind": "random", "accel": 2, "calib": None, "seed": np.int64(1)},
        "methods": ["zero-fill"],
        "seeds": [0, np.int64(1)],
    }
    doc = run_experiment(config)
    assert [row["mask"] for row in doc["rows"]] == ["random-R2-S1"] * 2
    assert [case["error"] for case in doc["cases"]] == [None, None]


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
        assert set(fit_interpolation_filters(measured, mask, 2, 2)[0]) == oracle

    def test_builds_no_filter_objects(self, no_filter_objects):
        """Fit, imputation and engine run on tap arrays alone: building a
        ``Filter`` or ``MultiFilter``, checked or not, fails the test."""
        measured, mask = small_2d_case(0)
        L, P = 1, 2
        fmap, _ = fit_interpolation_filters(measured, mask, L, P)
        assert fmap
        shape = (measured.q_count, measured.q_count, L + P + 1, L + P + 1)
        for taps in fmap.values():
            assert isinstance(taps, np.ndarray) and taps.shape == shape
            assert not taps.flags.writeable
            for m in range(measured.q_count):
                assert taps[m, m, L, L] == -1.0
        est = interpolate_missing(measured, mask, fmap, L, P)
        assert not np.array_equal(est.stack(), measured.stack())
        ENGINES["interp"](measured, mask, {"L": L, "P": P})

    def test_all_zero_data_is_a_singular_fit(self):
        # Zero calibration data give zero Gram blocks, and the default
        # ridge scales with the Gram diagonal, so it is zero too.
        grid = centered_grid((16, 16), 1.0)
        mask = gen_mask(MaskSpec("uniform", 2, 8), grid)
        measured = MultiKSignal.from_array(grid, np.zeros((2,) + grid.shape, dtype=complex))
        with pytest.raises(SingularFitError, match=r"pattern [01]{25}: .*positive ridge"):
            ENGINES["interp"](measured, mask, {})

    def test_pass_that_imputes_nothing_is_not_counted(self):
        grid = centered_grid(64, 1.0)
        truth = scene_samples(demo_scene_1d(), grid)
        mask = gen_mask(MaskSpec("uniform", 2, 12), grid)
        est, report = ENGINES["interp"](zero_fill(truth, mask), mask, {"max_resid": 0.0})
        assert report.iterations == 0
        assert report.converged is False
        assert report.notes == ("uncovered indices left at zero-fill",)
        assert np.array_equal(est.stack(), zero_fill(truth, mask).stack())



def public_interp(measured, mask, params):
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
        fmap, quality = fit_interpolation_filters(cur, eff_mask, L, P, params.get("ridge"))
        fitted = {s for s in fmap if quality[s][0] <= max_resid}
        anchor = min((quality[s][1] for s in fitted), default=0.0)
        useful = {
            s: taps for s, taps in fmap.items()
            if s in fitted and quality[s][1] <= gain_ratio * max(anchor, 1e-3)
        }
        if not useful:
            done -= 1
            break
        cur = interpolate_missing(cur, eff_mask, useful, L, P)
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
    def test_matches_the_public_loop(self, case):
        measured, mask, params = case
        est, report = ENGINES["interp"](measured, mask, params)
        want, want_report = public_interp(measured, mask, params)
        assert est.stack().tobytes() == want.stack().tobytes()
        assert (report.iterations, report.converged, report.notes) == (
            want_report.iterations, want_report.converged, want_report.notes,
        )

    def test_groups_each_pass_mask_once(self, monkeypatch):
        """The fit, the imputation and the coverage update of a pass share
        one grouping of its mask: one ``pattern_signature`` call per group."""
        grid = centered_grid(64, 1.0)
        mask = gen_mask(MaskSpec("random", 3, 12, seed=0), grid)
        measured = zero_fill(scene_samples(demo_scene_1d(), grid), mask)
        signature = lp.pattern_signature
        calls = []

        def counted(m, n, L, P):
            calls.append(m)
            return signature(m, n, L, P)

        monkeypatch.setattr(lp, "pattern_signature", counted)
        _, report = ENGINES["interp"](measured, mask, {})
        monkeypatch.undo()
        pass_masks = list({id(m): m for m in calls}.values())
        assert report.iterations == len(pass_masks) == 4
        groups = [
            {
                signature(m, tuple(int(p + lo) for p, lo in zip(pos, grid.n_min)), 2, 2)
                for pos in m.missing_positions()
            }
            for m in pass_masks
        ]
        assert [sum(c is m for c in calls) for m in pass_masks] == [len(g) for g in groups]
        assert len(calls) == sum(len(g) for g in groups)


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
        "methods": [
            {"name": "annihilation", "max_iters": 1}, {"name": "lowrank", "max_iters": 1},
            "zero-fill",
        ],
    }
    doc = run_experiment(config, out_dir=str(tmp_path))
    by_method = {row["method"]: row for row in doc["rows"]}
    # 104 unknowns: the annihilation solve is one direct step.
    assert by_method["annihilation"]["iterations"] == 1
    assert by_method["annihilation"]["converged"] is True
    assert by_method["lowrank"]["iterations"] == 1
    assert by_method["lowrank"]["converged"] is False
    assert by_method["zero-fill"]["converged"] is True
    with open(tmp_path / "report.csv", newline="") as fh:
        table = list(csv.DictReader(fh))
    header = list(table[0])
    assert header.index("converged") == header.index("iterations") + 1
    assert {r["method"]: r["converged"] for r in table} == {
        "annihilation": "True",
        "lowrank": "False",
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


def test_a_key_the_engine_does_not_take_is_a_case_error():
    config = {
        "scene": "demo1d",
        "grid": 32,
        "mask": {"kind": "uniform", "accel": 2, "calib": 8},
        "methods": [{"name": "annihilation", "max_iter": 4}, {"name": "annihilation", "max_iters": 4}],
    }
    doc = run_experiment(config)
    bad, good = doc["cases"]
    assert bad == {
        "error": "ValueError: annihilation engine: got an unexpected keyword argument 'max_iter'",
        "report": None,
    }
    # 48 unknowns: solved at once, within the cap of 4.
    assert good["error"] is None and good["report"]["iterations"] == 1


def test_an_integer_parameter_given_as_a_float_is_a_case_error():
    config = {
        "scene": "demo1d",
        "grid": 32,
        "mask": {"kind": "uniform", "accel": 2, "calib": 8},
        "methods": [
            {"name": "interp", "passes": 2.0},
            {"name": "annihilation", "L": 1.0},
            {"name": "lowrank", "max_iters": 3.0},
            {"name": "lowrank", "max_iters": True},
            {"name": "lowrank", "max_iters": 3},
        ],
    }
    errors = [case["error"] for case in run_experiment(config)["cases"]]
    assert errors == [
        "ValueError: annihilation engine: L must be an integer, got 1.0",
        "ValueError: interp engine: passes must be an integer, got 2.0",
        "ValueError: lowrank engine: max_iters must be an integer, got 3.0",
        "ValueError: lowrank engine: max_iters must be an integer, got True",
        None,
    ]


def test_a_lowrank_rank_given_as_a_float_is_a_case_error():
    config = {
        "scene": "demo1d",
        "grid": 32,
        "mask": {"kind": "uniform", "accel": 2, "calib": 8},
        "methods": [
            {"name": "lowrank", "rank": 2.0, "max_iters": 3},
            {"name": "lowrank", "rank": True, "max_iters": 3},
            {"name": "lowrank", "rank": None, "max_iters": 3},
            {"name": "lowrank", "rank": 2, "max_iters": 3},
        ],
    }
    cases = run_experiment(config)["cases"]
    assert [case["error"] for case in cases] == [
        "ValueError: rank must be an integer, got 2.0",
        "ValueError: rank must be an integer, got True",
        None,
        None,
    ]
    assert cases[3]["report"]["rank"] == 2 and cases[3]["report"]["iterations"] == 3


@pytest.mark.parametrize("name", ["zero-fill", "interp", "annihilation", "lowrank"])
def test_no_engine_takes_a_bank_limit(name):
    # annihilation fits one filter per channel; lpk fit --limit caps a bank.
    g = centered_grid(32, 1.0)
    mask = gen_mask(MaskSpec("uniform", 2, 8), g)
    measured = zero_fill(scene_samples(demo_scene_1d(), g), mask)
    with pytest.raises(ValueError, match=f"^{name} engine: .*'limit'$"):
        ENGINES[name](measured, mask, {"limit": 4})


def test_a_2d_run_renders_each_estimate_as_a_16_bit_pgm(tmp_path):
    config = {
        "scene": "demo2d",
        "grid": [12, 10],
        "mask": {"kind": "uniform", "accel": 2, "calib": 4},
        "methods": ["zero-fill"],
    }
    run_experiment(config, out_dir=tmp_path)
    (path,) = tmp_path.glob("*.pgm")
    assert path.name == "demo2d_uniform-R2-C4_zero-fill_sg0_sd0.pgm"
    raw = path.read_bytes()
    header = b"P5\n10 12\n65535\n"  # width (second axis), then height
    assert raw[: len(header)] == header
    pixels = np.frombuffer(raw[len(header):], dtype=">u2")
    assert pixels.size == 12 * 10
    assert pixels.max() == 65535


def test_registered_engine_runs_in_experiments(tmp_path):
    calls = []

    def toy(measured, mask, params):
        calls.append(params)
        return measured, ReconReport(method="toy", iterations=7, converged=True, notes=("toy ran",))

    before = dict(ENGINES)
    try:
        ENGINES["toy"] = toy
        config = {
            "scene": "demo1d",
            "grid": 32,
            "mask": {"kind": "uniform", "accel": 2, "calib": 8},
            "methods": [{"name": "toy", "knob": 3}],
            "seeds": [0, 1],
        }
        doc = run_experiment(config, out_dir=str(tmp_path))
    finally:
        ENGINES.pop("toy", None)
    assert ENGINES == before
    assert calls == [{"knob": 3}, {"knob": 3}]
    assert [(r["method"], r["iterations"], r["notes"]) for r in doc["rows"]] == [("toy", 7, "toy ran")] * 2
    assert all(case["error"] is None for case in doc["cases"])
