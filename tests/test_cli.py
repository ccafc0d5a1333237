"""``lpk`` command line: identity verdicts and exit codes."""

import pytest

import lpk.cli
from lpk.cli import main
from lpk.lp import IdentityCheck


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


def test_capped_lowrank_fails_under_strict(capsys, sampled):
    code, out, err = recon(capsys, sampled, "--engine", "lowrank", "--max-iters", "3", "--strict")
    assert code == 3
    assert out["iterations"] == "3" and out["converged"] == "false"
    assert "lowrank did not converge" in err
