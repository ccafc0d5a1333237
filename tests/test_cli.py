"""``lpk`` command line: identity verdicts and exit codes."""

import argparse
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lpk
import lpk.cli
from conftest import conv_response
from lpk.cli import main
from lpk.core import MultiKSignal
from lpk.io import read_json, read_lpk, write_json
from lpk.lp import IdentityCheck, bank_from_json


def verify(capsys, *argv):
    code = main(["verify", *argv])
    lines = dict(line.split(" ", 1) for line in capsys.readouterr().out.splitlines())
    return code, lines


def theorems_at(*fovs):
    """(theorem, fov) cases; at fov 1 theorem ``t`` keeps the plain id ``t``."""
    return [
        pytest.param(t, b, id=str(t) if b == 1.0 else f"{t}-fov{b:g}")
        for b in fovs
        for t in (1, 2, 3)
    ]


@pytest.mark.parametrize("theorem,fov", theorems_at(1.0, 0.5, 2.0))
def test_default_grids_agree(capsys, theorem, fov):
    # Each scene scales with the field of view, so the verdict must not
    # depend on it: one Parseval convention holds for every B.
    code, out = verify(capsys, "--theorem", str(theorem), "--fov", str(fov), "--strict")
    assert code == 0
    assert out["agree"] == "true"
    rhs = float(out["rhs"])
    if rhs > 0:
        assert float(out["tail"]) / rhs < 0.1
    else:  # theorem 2: the filter annihilates exactly, both sides are zero
        assert float(out["absolute"]) == 0.0


@pytest.mark.parametrize("theorem,fov", theorems_at(1.0, 2.0))
def test_tail_bound_covers_what_the_grid_truncates(theorem, fov):
    # The valid range of the 1025 grid lies inside that of the 2^18 grid,
    # so the gap is the response energy the smaller grid leaves out, as
    # far as 2^18 reaches.  The bounds are loose: at fov 1 the gaps are
    # 2.2e-8, 0 and 1.1e-5 against tails of 2.4e-3, 1.6e-3 and 3.6e-3.
    scene = getattr(lpk.cli, f"_theorem_scene_{theorem}")
    small, _ = scene(argparse.Namespace(grid=1025, fov=fov, L=4, P=4))
    large, _ = scene(argparse.Namespace(grid=1 << 18, fov=fov, L=4, P=4))
    assert 0.0 <= large.lhs - small.lhs <= small.tail_bound


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


def test_the_module_runs_as_the_lpk_command(tmp_path):
    # ``python -m lpk.cli`` enters through ``cli.entry``, as the installed
    # ``lpk`` script does, and exits with ``main``'s code.
    src = str(Path(lpk.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))

    def lpk_command(*argv):
        return subprocess.run(
            [sys.executable, "-m", "lpk.cli", *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
        )

    done = lpk_command("verify", "--theorem", "1")
    assert done.returncode == 0, done.stderr
    assert done.stdout.endswith("agree true\n")
    done = lpk_command("phantom", "absent.json", "--out", "out.lpk")
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == (
        "error: cannot read absent.json: [Errno 2] No such file or directory: 'absent.json'\n"
    )


@pytest.fixture(scope="module")
def sampled(tmp_path_factory):
    """phantom -> sample on the shipped 1D scene: uniform R=2, 12-wide calib."""
    from lpk.harness import demo_scene_1d
    from lpk.multi import scene_to_json

    d = tmp_path_factory.mktemp("cli")
    write_json(d / "scene.json", scene_to_json(demo_scene_1d()))
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
    ("annihilation", ["--max-iters", "7"], 1, "true"),  # 104 unknowns: solved at once
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
    ("annihilation", ["--max-iters", "7"], []),
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


@pytest.mark.parametrize("engine", ["annihilation", "interp"])
def test_noisy_samples_converge_under_strict(capsys, sampled, tmp_path, engine):
    assert main([
        "sample", str(sampled / "full.lpk"), "--mask-kind", "uniform", "--accel", "2",
        "--calib", "12", "--sigma", "0.001", "--out", str(tmp_path / "meas.lpk"),
        "--mask-out", str(tmp_path / "mask.lpk"),
    ]) == 0
    capsys.readouterr()
    code = main([
        "recon", str(tmp_path / "meas.lpk"), "--mask", str(tmp_path / "mask.lpk"),
        "--engine", engine, "--truth", str(sampled / "full.lpk"), "--strict",
    ])
    out = dict(line.split(" ", 1) for line in capsys.readouterr().out.splitlines())
    assert code == 0
    assert out["converged"] == "true"
    assert float(out["nrmse"]) <= 0.02


def test_capped_lowrank_fails_under_strict(capsys, sampled):
    code, out, err = recon(capsys, sampled, "--engine", "lowrank", "--max-iters", "3", "--strict")
    assert code == 3
    assert out["iterations"] == "3" and out["converged"] == "false"
    assert "lowrank did not converge" in err


# (engine, a flag it has no parameter for, the key that flag passes)
REJECTED = [
    ("lowrank", ["--max-iters", "3", "--lambda", "5"], "lam"),
    ("annihilation", ["--max-iters", "3", "--rank", "2"], "rank"),
    ("interp", ["--tol", "1e-6"], "tol"),
    ("zero-fill", ["--max-iters", "3"], "max_iters"),
]


@pytest.mark.parametrize("engine,flags,key", REJECTED)
def test_a_flag_the_engine_does_not_take_is_a_data_error(capsys, sampled, engine, flags, key):
    code, out, err = recon(capsys, sampled, "--engine", engine, *flags)
    assert code == 2
    assert out == {}
    assert err == f"error: {engine} engine: got an unexpected keyword argument {key!r}\n"


@pytest.mark.parametrize("lam", ["nan", "inf", "-1"])
def test_a_lambda_that_is_not_finite_and_nonnegative_is_a_data_error(capsys, sampled, lam):
    # nan and inf ended in an IndexError traceback, exit 1.
    code, out, err = recon(capsys, sampled, "--engine", "annihilation", "--lambda", lam)
    assert code == 2
    assert out == {}
    assert err == f"error: lam must be finite and nonnegative, not {float(lam)}\n"


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
    bank = bank_from_json(read_json(out))
    assert len(bank.filters) == count
    assert float(printed["residual"]) == pytest.approx(bank.residuals[0], rel=1e-11)
    if "filters" in printed:
        assert int(printed["filters"]) == count
    # Both scenes are exactly predictable on the calibration block (noise-free
    # closed-form samples), so every fit leaves a small residual.
    assert float(printed["residual"]) <= 1e-4


@pytest.mark.parametrize("limit,message", [
    ("-1", "limit must be at least 1, got -1"),
    ("0", "limit must be at least 1, got 0"),
])
def test_a_nullspace_limit_below_one_is_a_data_error(capsys, sampled, limit, message):
    out = sampled / "limit.filters.json"
    code, lines, err = run(
        capsys, "fit", str(sampled / "full.lpk"), "--mode", "nullspace", "--L", "2", "--P", "2",
        "--calib", "12", "--limit", limit, "--out", str(out),
    )
    assert (code, lines, err) == (2, [], f"error: {message}\n")
    assert not out.exists()


def test_fit_eigen_prints_the_smallest_eigenvalues(capsys, tmp_path):
    from lpk.lp import gram_operator, smallest_eigensequences
    from lpk.phantom import Phantom, Primitive, phantom_to_json

    ph = Phantom((Primitive("boxcar", (0.05,), (0.2,), 1.0),), (1.0,))
    write_json(tmp_path / "ph.json", phantom_to_json(ph))
    out = tmp_path / "eigen.filters.json"
    code, lines, _ = run(
        capsys, "fit", str(tmp_path / "ph.json"), "--mode", "eigen", "--L", "2", "--P", "2",
        "--count", "3", "--out", str(out),
    )
    assert code == 0
    want = smallest_eigensequences(gram_operator(ph, 2, 2), 3)
    assert lines == [("eigenvalue", lpk.cli._fmt(r)) for r in want.residuals] + [("wrote", str(out))]
    bank = bank_from_json(read_json(out))
    assert bank.residuals == want.residuals
    assert bank.taps.tobytes() == want.taps.tobytes()


def test_fit_errors(capsys, sampled, tmp_path):
    code, _, err = run(capsys, "fit", str(sampled / "mask.lpk"))
    assert code == 2 and "not a mask" in err
    code, _, err = run(capsys, "fit", str(sampled / "full.lpk"), "--mode", "bogus")
    assert code == 1 and "invalid choice" in err
    code, _, err = run(capsys, "fit", str(tmp_path / "absent.lpk"))
    assert code == 2 and "cannot read" in err


@pytest.mark.parametrize("field,value,message", [
    ("n_min", 5, "bad grid in header: "),
    ("n_min", [-2.5], "bad grid in header: n_min entries must be integers"),
    ("calib", 5, "bad calib in header: "),
    ("calib", [[-1.5, 1.9]], "bad calib in header: calib bound must be an integer, got -1.5"),
], ids=["n_min-int", "n_min-float", "calib-int", "calib-float"])
def test_a_malformed_header_field_is_a_data_error_naming_the_file(
    capsys, sampled, tmp_path, field, value, message
):
    header, payload = (sampled / "mask.lpk").read_bytes().split(b"\n", 1)
    doc = json.loads(header)
    doc[field] = value
    bad = tmp_path / "bad.lpk"
    bad.write_bytes(json.dumps(doc).encode() + b"\n" + payload)
    code, lines, err = run(capsys, "recon", str(sampled / "meas.lpk"), "--mask", str(bad))
    assert code == 2
    assert lines == []
    assert err.startswith(f"error: {bad}: {message}")


# Every place a command reads samples: a mask there exits 2 naming the file.
MASK_AS_SAMPLES = {
    "recon-input": ["recon", "{mask}", "--mask", "{mask}"],
    "recon-truth": ["recon", "{meas}", "--mask", "{mask}", "--truth", "{mask}"],
    "sample": ["sample", "{mask}", "--out", "{out}"],
    "fit-predict": ["fit", "{mask}", "--mode", "predict"],
    "fit-nullspace": ["fit", "{mask}", "--mode", "nullspace"],
    "sms-superpose": ["sms", "superpose", "{meas}", "{mask}", "--out", "{out}"],
}


@pytest.mark.parametrize("argv", MASK_AS_SAMPLES.values(), ids=MASK_AS_SAMPLES.keys())
def test_a_mask_given_as_samples_is_a_data_error(capsys, sampled, tmp_path, argv):
    paths = {"mask": str(sampled / "mask.lpk"), "meas": str(sampled / "meas.lpk"),
             "out": str(tmp_path / "out.lpk")}
    code, lines, err = run(capsys, *[a.format(**paths) for a in argv])
    assert code == 2 and lines == []
    assert err.startswith(f"error: {paths['mask']}: expected samples, not a mask")
    assert not (tmp_path / "out.lpk").exists()


def test_bench_with_a_missing_scene_file_is_a_data_error(capsys, tmp_path):
    config = tmp_path / "exp.json"
    config.write_text(json.dumps(
        {"scene": str(tmp_path / "absent.json"), "grid": 32, "mask": {"kind": "full"}}
    ))
    code, lines, err = run(capsys, "bench", str(config))
    assert code == 2 and lines == []
    assert err.startswith(f"error: {config}: cannot read scene {tmp_path / 'absent.json'}: ")


# A bench config whose scene file is bad: (file bytes, the error after the
# config's path, ``{scene}`` the scene file's).  "è" is two bytes, so the
# parse error's byte offset (19) is one past its character offset.
BAD_SCENE_FILES = {
    "truncated": (
        '{"kind": "scène", '.encode(),
        "parse error in {scene} at byte offset 19: Expecting property name enclosed in double quotes",
    ),
    "not-utf-8": (
        b"\xff{}",
        "{scene} is not UTF-8: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
    ),
    "no-phantom": (b'{"kind": "scene", "sensitivities": []}', "{scene}: missing field 'phantom'"),
    "a-list": (b"[1, 2]", "{scene}: malformed document: 'list' object has no attribute 'get'"),
    "no-primitives": (
        b'{"kind": "scene", "phantom": {"kind": "phantom", "fov": [1.0], "primitives": []},'
        b' "sensitivities": []}',
        "{scene}: phantom needs at least one primitive",
    ),
}


@pytest.mark.parametrize("raw,message", BAD_SCENE_FILES.values(), ids=BAD_SCENE_FILES.keys())
def test_bench_names_a_bad_scene_file(capsys, tmp_path, raw, message):
    scene, config = tmp_path / "scene.json", tmp_path / "exp.json"
    scene.write_bytes(raw)
    config.write_text(json.dumps({"scene": str(scene), "grid": 32, "mask": {"kind": "full"}}))
    code, lines, err = run(capsys, "bench", str(config))
    assert code == 2 and lines == []
    assert err == f"error: {config}: {message.format(scene=scene)}\n"


@pytest.mark.parametrize("command,argv,out", [
    ("phantom", ["{scene}", "--grid", "16"], "x.lpk"),
    ("fit", ["{full}", "--mode", "nullspace", "--L", "1", "--P", "1"], "x.json"),
])
def test_a_file_that_cannot_be_written_is_a_data_error(
    capsys, sampled, tmp_path, command, argv, out
):
    path = tmp_path / "nodir" / out
    paths = {"scene": sampled / "scene.json", "full": sampled / "full.lpk"}
    code, _, err = run(capsys, command, *[a.format(**paths) for a in argv], "--out", str(path))
    assert code == 2
    assert err == f"error: cannot write {path}: [Errno 2] No such file or directory: '{path}'\n"


def test_an_unknown_mask_kind_is_a_data_error(capsys, sampled, tmp_path):
    out = tmp_path / "out.lpk"
    code, lines, err = run(
        capsys, "sample", str(sampled / "full.lpk"), "--mask-kind", "random_nocalib",
        "--accel", "2", "--out", str(out),
    )
    assert code == 2 and lines == []
    assert err == "error: unknown mask kind 'random_nocalib'\n"
    assert not out.exists()


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
    from lpk.multi import SmsScene, scene_to_json
    from lpk.phantom import phantom_to_json

    d = tmp_path_factory.mktemp("sms")
    write_json(d / "sms.json", scene_to_json(SmsScene(sms_slices())))
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
    bank = bank_from_json(read_json(d / "sep0.filters.json"))
    want = conv_response(MultiKSignal((summed,)), bank.filters[0])
    assert sep.grid == want.grid
    assert np.array_equal(sep.values[0], want.values)


@pytest.mark.parametrize("argv", [
    ["phantom", "sms.json", "--grid", "32", "--fov", "2", "--out", "bad.lpk"],
    ["fit", "sms.json", "--mode", "sms-sep", "--L", "1", "--P", "1", "--calib", "12",
     "--grid", "32", "--fov", "2"],
], ids=["phantom", "fit"])
def test_sms_scene_on_a_grid_of_another_fov_exits_2(capsys, sms_dir, argv, monkeypatch):
    monkeypatch.chdir(sms_dir)
    code, lines, err = run(capsys, *argv)
    assert code == 2 and lines == []
    assert "does not match grid fov" in err
    assert not (sms_dir / "bad.lpk").exists()


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
    bank = bank_from_json(read_json(out))
    assert len(bank.filters) == 2
    # In slice order, although this scene's residuals descend.
    assert bank.residuals == (
        pytest.approx(float(printed["slice 0 residual"]), rel=1e-11),
        pytest.approx(float(printed["slice 1 residual"]), rel=1e-11),
    )
    assert bank.residuals[0] > bank.residuals[1]


def test_sms_separate_with_the_two_slice_bank_matches_the_valid_convolution(capsys, sms_dir):
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
    for values, mf in zip(sep.values, bank_from_json(read_json(bank_path)).filters, strict=True):
        want = conv_response(MultiKSignal((summed,)), mf)
        assert sep.grid == want.grid
        assert np.array_equal(values, want.values)


def _nan_tap(doc):
    doc["filters"][0]["taps"][0][1] = [float("nan"), 0.0]


def _drop_tap(doc):
    for entry in doc["filters"]:
        entry["taps"][0].pop()


def _ragged_taps(doc):
    doc["filters"][1]["taps"][0].pop()


def _anchor_off_minus_one(doc):
    doc["filters"][0]["anchor"] = 0


def _zero_filter(doc):
    doc["filters"][1]["taps"] = [[[0.0, 0.0] for _ in ch] for ch in doc["filters"][1]["taps"]]


def _two_channels(doc):
    for entry in doc["filters"]:
        entry["taps"].append(entry["taps"][0])


# (corruption of a written separator bank, what the error says)
BAD_BANKS = [
    (_nan_tap, "non-finite"),
    (_drop_tap, "do not fit"),
    (_ragged_taps, ""),  # numpy's message
    (_anchor_off_minus_one, "k=0 tap exactly -1"),
    (_zero_filter, "nonzero tap"),
    (_two_channels, "single-channel"),
]


@pytest.mark.parametrize("corrupt,message", BAD_BANKS, ids=[c.__name__[1:] for c, _ in BAD_BANKS])
def test_sms_separate_rejects_a_corrupted_bank(capsys, sms_dir, tmp_path, corrupt, message):
    bank_path, _ = fit_every_slice(capsys, sms_dir)
    doc = json.loads(bank_path.read_text())
    corrupt(doc)
    if corrupt is not _two_channels:
        with pytest.raises(ValueError, match=message or None):
            bank_from_json(json.loads(json.dumps(doc)))
    bad = tmp_path / "bad.filters.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run(
        capsys, "sms", "separate", str(sms_dir / "scene-sum.lpk"),
        "--filters", str(bad), "--out", str(tmp_path / "x.lpk"),
    )
    assert code == 2 and message in err
    assert not (tmp_path / "x.lpk").exists()


def _half_integer_L(doc):
    doc["L"] += 0.5


def _bool_L(doc):
    doc["P"] += doc["L"] - 1
    doc["L"] = True


def _float_dims(doc):
    doc["dims"] += 0.9


def _float_anchor(doc):
    entry = doc["filters"][0]
    entry["taps"][0][doc["L"]] = [-1.0, 0.0]
    entry["anchor"] = 0.7


# (corruption that int() would have read as a valid bank, what the error says)
TRUNCATED_BANKS = [
    (_half_integer_L, "L must be an integer, got 2.5"),
    (_bool_L, "L must be an integer, got True"),
    (_float_dims, "dims must be an integer, got 1.9"),
    (_float_anchor, "filter 0 anchor must be an integer, got 0.7"),
]


@pytest.mark.parametrize(
    "corrupt,message", TRUNCATED_BANKS, ids=[c.__name__[1:] for c, _ in TRUNCATED_BANKS]
)
def test_sms_separate_rejects_a_bank_field_that_is_not_an_integer(
    capsys, sms_dir, tmp_path, corrupt, message
):
    # Each ran as the bank int() made of it and exited 0.
    bank_path, _ = fit_every_slice(capsys, sms_dir)
    doc = json.loads(bank_path.read_text())
    corrupt(doc)
    bad = tmp_path / "bad.filters.json"
    bad.write_text(json.dumps(doc))
    code, lines, err = run(
        capsys, "sms", "separate", str(sms_dir / "scene-sum.lpk"),
        "--filters", str(bad), "--out", str(tmp_path / "x.lpk"),
    )
    assert (code, lines, err) == (2, [], f"error: {bad}: {message}\n")
    assert not (tmp_path / "x.lpk").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
@pytest.mark.parametrize("mode,key", [("predict", "ridge"), ("nullspace", "tau"), ("sms-sep", "mu")])
def test_a_fit_weight_that_is_not_finite_and_nonnegative_is_a_data_error(
    capsys, sampled, sms_dir, tmp_path, mode, key, value
):
    # A NaN tau kept 1 filter where 0.05 keeps 7, a NaN mu dropped the
    # leakage rows, and a NaN ridge was reported as non-finite taps.
    source = sms_dir / "sms.json" if mode == "sms-sep" else sampled / "full.lpk"
    out = tmp_path / "w.filters.json"
    code, lines, err = run(
        capsys, "fit", str(source), "--mode", mode, "--L", "1", "--P", "1",
        f"--{key}", value, "--out", str(out),
    )
    assert (code, lines) == (2, [])
    assert err == f"error: {key} must be finite and nonnegative, not {float(value)}\n"
    assert not out.exists()


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


# Where each command reads a JSON document.
DOC_COMMANDS = {
    "sms": ["sms", "separate", "{sig}", "--filters", "{doc}", "--out", "{out}"],
    "phantom": ["phantom", "{doc}", "--out", "{out}"],
    "eigen": ["fit", "{doc}", "--mode", "eigen"],
    "bench": ["bench", "{doc}"],
}
# JSON that parses but has the wrong structure: (command, document, message).
MALFORMED = [
    *[
        (command, doc, message)
        for command in ("sms", "phantom", "eigen")
        for doc, message in (
            ({"L": 2, "P": 2, "dims": 1}, "missing field"),
            ([1, 2], "malformed document"),
        )
    ],
    ("phantom", {"kind": "scene"}, "missing field 'phantom'"),
    ("eigen", {"kind": "scene"}, "missing field 'phantom'"),
    ("bench", {"grid": 32, "mask": {"kind": "full"}}, "lacks field 'scene'"),
    ("bench", [1, 2], "an experiment config is a JSON object"),
    ("bench", {"scene": "demo1d", "grid": 32, "mask": {"kind": "uniform", "accel": 2.5}},
     "mask accel must be an integer, got 2.5"),
]


@pytest.mark.parametrize("command,doc,message", MALFORMED)
def test_malformed_document_is_a_data_error(capsys, tmp_path, command, doc, message):
    from lpk.core import KSignal, centered_grid
    from lpk.io import write_lpk

    paths = {name: str(tmp_path / name) for name in ("sig.lpk", "doc.json", "out.lpk")}
    write_lpk(paths["sig.lpk"], KSignal(centered_grid(16, 1.0), np.ones(16)))
    (tmp_path / "doc.json").write_text(json.dumps(doc))
    argv = [
        a.format(sig=paths["sig.lpk"], doc=paths["doc.json"], out=paths["out.lpk"])
        for a in DOC_COMMANDS[command]
    ]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {paths['doc.json']}: ") and message in err


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
        ("annihilation", "1", "True"), ("lowrank", "3", "False"), ("zero-fill", "0", "True"),
    ]
    doc = json.loads((out / "report.json").read_text())
    assert doc["cases"][0]["report"]["notes"] == []
    (note,) = doc["cases"][1]["report"]["notes"]
    assert note.startswith("lowrank stopped at the sweep cap (3);")


def test_bench_prints_why_a_case_failed(capsys, tmp_path):
    config = {
        "scene": "demo1d",
        "grid": 32,
        "mask": {"kind": "uniform", "accel": 2, "calib": 8},
        "methods": ["nosuch", {"name": "annihilation", "max_iter": 4}, "zero-fill"],
    }
    (tmp_path / "exp.json").write_text(json.dumps(config))
    code = main(["bench", str(tmp_path / "exp.json")])
    printed = capsys.readouterr().out.splitlines()
    assert code == 0
    assert printed[:2] == [
        "annihilation sigma 0 seed 0 nrmse nan error ValueError: annihilation engine: "
        "got an unexpected keyword argument 'max_iter'",
        "nosuch sigma 0 seed 0 nrmse nan error ValueError: unknown engine 'nosuch'",
    ]
    assert printed[2].startswith("zero-fill sigma 0 seed 0 nrmse 0.")
    assert len(printed) == 3


def test_bench_errors(capsys, tmp_path):
    code, _, err = run(capsys, "bench")
    assert code == 1 and "config" in err
    code, _, err = run(capsys, "bench", str(tmp_path / "absent.json"))
    assert code == 2 and "cannot read" in err
    (tmp_path / "bad.json").write_text("{not json")
    code, _, err = run(capsys, "bench", str(tmp_path / "bad.json"))
    assert code == 2 and "parse error" in err
