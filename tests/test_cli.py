"""``lpk`` command line: identity verdicts and exit codes."""

import csv
import json

import numpy as np
import pytest

import lpk.cli
from lpk.cli import main
from lpk.core import conv_apply
from lpk.io import read_lpk
from lpk.lp import IdentityCheck, load_bank


def verify(capsys, *argv):
    code = main(["verify", *argv])
    lines = dict(line.split(" ", 1) for line in capsys.readouterr().out.splitlines())
    return code, lines


@pytest.mark.parametrize("theorem", [1, 2, 3])
def test_default_grids_agree(capsys, theorem):
    code, out = verify(capsys, "--theorem", str(theorem), "--strict")
    assert code == 0
    assert out["agree"] == "true"
    rhs = float(out["rhs"])
    if rhs > 0:
        assert float(out["tail"]) / rhs < 0.1
    else:  # theorem 2: the filter annihilates exactly, both sides are zero
        assert float(out["absolute"]) == 0.0


def test_loose_tail_bound_is_inconclusive(capsys):
    code, out = verify(capsys, "--theorem", "3", "--grid", "1024")
    assert code == 0
    assert out["agree"] == "inconclusive"
    assert float(out["tail"]) > float(out["rhs"])


def test_inconclusive_fails_under_strict(capsys):
    assert main(["verify", "--theorem", "3", "--grid", "1024", "--strict"]) == 3
    captured = capsys.readouterr()
    assert "agree inconclusive" in captured.out
    assert "inconclusive" in captured.err


def test_gap_beyond_the_tail_bound_is_false_even_when_loose(capsys, monkeypatch):
    # tail/rhs 0.5 is inconclusive, but a relative gap of 1 exceeds it.
    monkeypatch.setattr(
        lpk.cli, "_theorem_scene_3", lambda args: (IdentityCheck(2.0, 1.0, 0.5), None)
    )
    code, out = verify(capsys, "--theorem", "3")
    assert (code, out["agree"]) == (0, "false")
    assert main(["verify", "--theorem", "3", "--strict"]) == 3


def test_unknown_flag_is_a_usage_error(capsys):
    assert main(["verify", "--theorem", "1", "--no-such-flag"]) == 1
    assert "no-such-flag" in capsys.readouterr().err


def test_unreadable_input_is_a_data_error(tmp_path, capsys):
    missing = tmp_path / "absent.phantom.json"
    assert main(["phantom", str(missing), "--out", str(tmp_path / "out.lpk")]) == 2
    assert "cannot read" in capsys.readouterr().err


@pytest.fixture(scope="module")
def sampled(tmp_path_factory):
    """phantom -> sample on the shipped 1D scene: uniform R=2, 12-wide calib."""
    from lpk.harness import demo_scene_1d
    from lpk.multi import save_scene

    d = tmp_path_factory.mktemp("cli")
    save_scene(d / "scene.json", demo_scene_1d())
    assert main(["phantom", str(d / "scene.json"), "--grid", "64", "--out", str(d / "full.lpk")]) == 0
    assert main([
        "sample", str(d / "full.lpk"), "--mask-kind", "uniform", "--accel", "2",
        "--calib", "12", "--out", str(d / "meas.lpk"), "--mask-out", str(d / "mask.lpk"),
    ]) == 0
    return d


def recon(capsys, d, *argv):
    code = main([
        "recon", str(d / "meas.lpk"), "--mask", str(d / "mask.lpk"),
        "--truth", str(d / "full.lpk"), *argv,
    ])
    captured = capsys.readouterr()
    return code, dict(line.split(" ", 1) for line in captured.out.splitlines()), captured.err


# (engine, extra flags, printed iterations, printed convergence)
GOLDEN = [
    ("zero-fill", [], 0, "true"),
    ("interp", [], 2, "true"),  # the engine's own 4-pass cap; covered after 2
    ("interp", ["--max-iters", "1"], 1, "false"),  # --max-iters caps the passes
    ("annihilation", ["--max-iters", "7"], 7, "false"),
    ("lowrank", [], 100, "false"),  # the engine's own 100-sweep cap, not 500
    ("lowrank", ["--max-iters", "3"], 3, "false"),
]


@pytest.mark.parametrize("engine,flags,iterations,converged", GOLDEN)
def test_recon_prints_the_engine_run(capsys, sampled, engine, flags, iterations, converged):
    code, out, _ = recon(capsys, sampled, "--engine", engine, *flags)
    assert code == 0
    assert out["engine"] == engine
    assert int(out["iterations"]) == iterations
    assert out["converged"] == converged
    # Every engine beats the zero fill's 0.14 on this scene.
    assert 0.0 < float(out["nrmse"]) <= 0.1401


# (engine, extra flags, every printed note)
NOTES = [
    ("interp", [], []),
    ("interp", ["--max-iters", "1"], ["uncovered indices left at zero-fill"]),
    ("annihilation", ["--max-iters", "7"],
     ["CG stopped at the iteration cap (7); relative residual 0.125 (tol 1e-09)"]),
    ("lowrank", [],
     ["lowrank stopped at the sweep cap (100); last relative change 0.000294 (tol 1e-09)"]),
    ("lowrank", ["--max-iters", "3"],
     ["lowrank stopped at the sweep cap (3); last relative change 0.0045 (tol 1e-09)"]),
]


@pytest.mark.parametrize("engine,flags,notes", NOTES)
def test_recon_prints_every_report_note(capsys, sampled, engine, flags, notes):
    code = main([
        "recon", str(sampled / "meas.lpk"), "--mask", str(sampled / "mask.lpk"),
        "--engine", engine, *flags,
    ])
    printed = capsys.readouterr().out.splitlines()
    assert code == 0
    # One line per note, right after the engine, iterations and convergence.
    assert [line.split(" ", 1)[0] for line in printed] == (
        ["engine", "iterations", "converged"] + ["note"] * len(notes)
    )
    assert [line[len("note "):] for line in printed[3:]] == notes


def test_capped_lowrank_fails_under_strict(capsys, sampled):
    code, out, err = recon(capsys, sampled, "--engine", "lowrank", "--max-iters", "3", "--strict")
    assert code == 3
    assert out["iterations"] == "3" and out["converged"] == "false"
    assert "lowrank did not converge" in err


def run(capsys, *argv):
    """Exit code, printed lines as (key, value) pairs, and stderr."""
    code = main(list(argv))
    captured = capsys.readouterr()
    lines = [tuple(line.rsplit(" ", 1)) for line in captured.out.splitlines()]
    return code, lines, captured.err


# (mode, input, flags, printed keys, filters in the written bank)
FITS = [
    ("predict", "full.lpk", ["--L", "0", "--P", "1", "--calib", "12"], ["residual"], 1),
    ("nullspace", "full.lpk", ["--L", "2", "--P", "2", "--calib", "12", "--limit", "4"],
     ["filters", "residual"], 4),
    ("smash", "scene.json", ["--L", "2", "--P", "2"], ["residual"], 1),
]


@pytest.mark.parametrize("mode,source,flags,keys,count", FITS)
def test_fit_prints_and_writes_the_bank(capsys, sampled, mode, source, flags, keys, count):
    out = sampled / f"{mode}.filters.json"
    code, lines, _ = run(
        capsys, "fit", str(sampled / source), "--mode", mode, *flags, "--out", str(out)
    )
    assert code == 0
    assert [k for k, _ in lines] == keys + ["wrote"]
    printed = dict(lines)
    assert printed["wrote"] == str(out)
    bank = load_bank(out)
    assert len(bank.filters) == count
    assert float(printed["residual"]) == pytest.approx(bank.residuals[0], rel=1e-11)
    if "filters" in printed:
        assert int(printed["filters"]) == count
    # Both scenes are exactly predictable on the calibration block (noise-free
    # closed-form samples), so every fit leaves a small residual.
    assert float(printed["residual"]) <= 1e-4


def test_fit_errors(capsys, sampled, tmp_path):
    code, _, err = run(capsys, "fit", str(sampled / "mask.lpk"))
    assert code == 2 and "not a mask" in err
    code, _, err = run(capsys, "fit", str(sampled / "full.lpk"), "--mode", "bogus")
    assert code == 1 and "invalid choice" in err
    code, _, err = run(capsys, "fit", str(tmp_path / "absent.lpk"))
    assert code == 2 and "cannot read" in err


def sms_slices():
    from lpk.phantom import Phantom, Primitive

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


@pytest.fixture(scope="module")
def sms_dir(tmp_path_factory):
    """Two 1D slice phantoms, their superposition scene and sampled files."""
    from lpk.multi import SmsScene, save_scene
    from lpk.phantom import phantom_to_json

    d = tmp_path_factory.mktemp("sms")
    save_scene(d / "sms.json", SmsScene(sms_slices()))
    assert main(["phantom", str(d / "sms.json"), "--grid", "64", "--out", str(d / "scene-sum.lpk")]) == 0
    for i, ph in enumerate(sms_slices()):
        (d / f"slice{i}.json").write_text(json.dumps(phantom_to_json(ph)))
        assert main(["phantom", str(d / f"slice{i}.json"), "--grid", "64", "--out", str(d / f"slice{i}.lpk")]) == 0
    return d


def test_sms_superpose_fit_and_separate(capsys, sms_dir):
    d = sms_dir
    code, lines, _ = run(
        capsys, "sms", "superpose", str(d / "slice0.lpk"), str(d / "slice1.lpk"),
        "--out", str(d / "sum.lpk"),
    )
    assert (code, lines) == (0, [("wrote", str(d / "sum.lpk"))])
    summed = read_lpk(d / "sum.lpk")
    assert np.allclose(summed.values, read_lpk(d / "scene-sum.lpk").values, rtol=0, atol=1e-15)

    code, lines, _ = run(
        capsys, "fit", str(d / "sms.json"), "--mode", "sms-sep", "--L", "2", "--P", "2",
        "--calib", "12", "--target", "0", "--out", str(d / "sep0.filters.json"),
    )
    assert code == 0
    assert [k for k, _ in lines] == ["slice 0 residual", "slice 0 leakage", "wrote"]
    printed = dict(lines)
    assert float(printed["slice 0 residual"]) == pytest.approx(5.25774769689e-3, rel=1e-6)
    assert float(printed["slice 0 leakage"]) == pytest.approx(5.10999486728e-3, rel=1e-6)

    code, lines, _ = run(
        capsys, "sms", "separate", str(d / "sum.lpk"),
        "--filters", str(d / "sep0.filters.json"), "--out", str(d / "sep.lpk"),
    )
    assert (code, lines) == (
        0, [("slices", "1"), ("converged", "true"), ("wrote", str(d / "sep.lpk"))]
    )
    sep = read_lpk(d / "sep.lpk")
    want = conv_apply(summed, load_bank(d / "sep0.filters.json").filters[0].filters[0])
    assert sep.channels[0].grid == want.grid
    assert np.array_equal(sep.channels[0].values, want.values)


def fit_every_slice(capsys, d):
    out = d / "seps.filters.json"
    code, lines, err = run(
        capsys, "fit", str(d / "sms.json"), "--mode", "sms-sep", "--L", "2", "--P", "2",
        "--calib", "12", "--out", str(out),
    )
    assert code == 0, err
    return out, lines


def test_sms_fit_of_every_slice_writes_one_bank(capsys, sms_dir):
    out, lines = fit_every_slice(capsys, sms_dir)
    assert [k for k, _ in lines] == [
        "slice 0 residual", "slice 0 leakage", "slice 1 residual", "slice 1 leakage", "wrote",
    ]
    printed = dict(lines)
    bank = load_bank(out)
    assert len(bank.filters) == 2
    # In slice order, although this scene's residuals descend.
    assert bank.residuals == (
        pytest.approx(float(printed["slice 0 residual"]), rel=1e-11),
        pytest.approx(float(printed["slice 1 residual"]), rel=1e-11),
    )
    assert bank.residuals[0] > bank.residuals[1]


def test_sms_separate_with_the_two_slice_bank_matches_conv_apply(capsys, sms_dir):
    d = sms_dir
    bank_path, _ = fit_every_slice(capsys, d)
    code, lines, _ = run(
        capsys, "sms", "separate", str(d / "scene-sum.lpk"),
        "--filters", str(bank_path), "--out", str(d / "seps.lpk"),
    )
    assert (code, lines) == (
        0, [("slices", "2"), ("converged", "true"), ("wrote", str(d / "seps.lpk"))]
    )
    summed = read_lpk(d / "scene-sum.lpk")
    sep = read_lpk(d / "seps.lpk")
    for ch, mf in zip(sep.channels, load_bank(bank_path).filters, strict=True):
        want = conv_apply(summed, mf.filters[0])
        assert ch.grid == want.grid
        assert np.array_equal(ch.values, want.values)


def test_sms_errors(capsys, sms_dir, tmp_path):
    d = sms_dir
    code, _, err = run(capsys, "sms", "separate", str(d / "slice0.lpk"), "--out", str(tmp_path / "x.lpk"))
    assert code == 1 and "--filters" in err
    code, _, err = run(capsys, "sms", "split", str(d / "slice0.lpk"), "--out", str(tmp_path / "x.lpk"))
    assert code == 1 and "invalid choice" in err
    code, _, err = run(
        capsys, "sms", "separate", str(d / "slice0.lpk"), str(d / "slice1.lpk"),
        "--filters", str(tmp_path / "absent.json"), "--out", str(tmp_path / "x.lpk"),
    )
    assert code == 2 and "exactly one" in err
    code, _, err = run(
        capsys, "sms", "separate", str(d / "slice0.lpk"),
        "--filters", str(tmp_path / "absent.json"), "--out", str(tmp_path / "x.lpk"),
    )
    assert code == 2 and "cannot read" in err
    code, _, err = run(
        capsys, "sms", "superpose", str(tmp_path / "absent.lpk"), str(d / "slice1.lpk"),
        "--out", str(tmp_path / "x.lpk"),
    )
    assert code == 2 and "cannot read" in err


def test_bench_prints_one_row_per_case(capsys, tmp_path):
    config = {
        "scene": "demo1d",
        "grid": 64,
        "mask": {"kind": "uniform", "accel": 2, "calib": 12},
        "methods": ["zero-fill", {"name": "annihilation", "max_iters": 7},
                    {"name": "lowrank", "max_iters": 3}],
        "sigmas": [0.0],
        "seeds": [0],
    }
    (tmp_path / "exp.json").write_text(json.dumps(config))
    out = tmp_path / "out"
    code = main(["bench", str(tmp_path / "exp.json"), "--out", str(out)])
    printed = capsys.readouterr().out.splitlines()
    assert code == 0
    rows = [line.split() for line in printed[:-1]]
    # Rows come sorted by method: (method, nrmse).
    assert [(r[0], r[1:6]) for r in rows] == [
        (m, ["sigma", "0", "seed", "0", "nrmse"]) for m in ("annihilation", "lowrank", "zero-fill")
    ]
    nrmse = {r[0]: float(r[6]) for r in rows}
    assert nrmse["zero-fill"] == pytest.approx(0.14009213866, rel=1e-9)
    assert nrmse["annihilation"] < nrmse["lowrank"] < nrmse["zero-fill"]
    assert printed[-1] == f"wrote {out}/report.json"
    with open(out / "report.csv", newline="") as fh:
        table = list(csv.DictReader(fh))
    assert [(t["method"], t["iterations"], t["converged"]) for t in table] == [
        ("annihilation", "7", "False"), ("lowrank", "3", "False"), ("zero-fill", "0", "True"),
    ]
    doc = json.loads((out / "report.json").read_text())
    (note,) = doc["cases"][0]["report"]["notes"]
    assert note.startswith("CG stopped at the iteration cap (7);")


def test_bench_errors(capsys, tmp_path):
    code, _, err = run(capsys, "bench")
    assert code == 1 and "config" in err
    code, _, err = run(capsys, "bench", str(tmp_path / "absent.json"))
    assert code == 2 and "cannot read" in err
    (tmp_path / "bad.json").write_text("{not json")
    code, _, err = run(capsys, "bench", str(tmp_path / "bad.json"))
    assert code == 2 and "parse error" in err
