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
