"""Self-tests of the benchmark on tiny inputs.

Run with ``PYTHONPATH=src python -m pytest -q bench``.
"""

from __future__ import annotations

import json
import os
import sys
from types import ModuleType, SimpleNamespace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from spans import Hook, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    GATED,
    TAIL_REPEATS,
    WORKLOADS,
    Tally,
    build_inputs,
    estimate_problem,
    identity_problem,
    run_pass,
    tiny,
)


@pytest.fixture
def lpk_modules():
    """Give the test the benchmark's fresh lpk import, then put the suite's back."""
    saved = {k: v for k, v in sys.modules.items() if k == "lpk" or k.startswith("lpk.")}
    try:
        yield
    finally:
        for k in [k for k in sys.modules if k == "lpk" or k.startswith("lpk.")]:
            del sys.modules[k]
        sys.modules.update(saved)


def _spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_lists_what_the_code_emits():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(GATED)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(lpk_modules, name, trace):
    report, result = run.run(tiny(WORKLOADS[name]), seed=3, seconds=1e-3, trace=trace, setup_reps=1)
    assert result["correct"] and result["failed"] == 0, report["failures"]
    assert result["attempted"] >= 1
    spec = _spec()
    want = spec["per_layer"] if trace else spec["end_to_end"]
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if report["missing_hooks"]:
        pytest.skip(f"layer hooks missing: {report['missing_hooks']}")
    assert got == {m["name"]: m["unit"] for m in want}
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    assert report["end_to_end"]["error_rate"]["value"] == 0.0
    assert set(report["meta"]) >= {"commit", "numpy", "scipy", "blas", "blas_threads", "nproc", "budgets"}


def test_corrupted_estimates_fail_the_output_check(lpk_modules):
    lpk = run.fresh_lpk()
    inputs = build_inputs(lpk, tiny(WORKLOADS["demo2d"]), seed=0)
    case = inputs.cases[0]
    est, _ = lpk.harness.ENGINES["lowrank"](case.measured, case.mask, {"max_iters": 2})
    assert estimate_problem(est, case.measured, case.mask) is None

    arr = est.stack()
    shifted = arr.copy()
    shifted[0][case.mask.acquired] += 1e-3
    bad = lpk.core.MultiKSignal.from_array(est.grid, shifted)
    assert "acquired" in estimate_problem(bad, case.measured, case.mask)

    # lpk's signal types refuse NaN, so a stand-in carries the hole.
    holed = arr.copy()
    holed[0][~case.mask.acquired] = np.nan
    bad = SimpleNamespace(grid=est.grid, stack=lambda: holed)
    assert "finite" in estimate_problem(bad, case.measured, case.mask)

    other = lpk.core.centered_grid((8, 8), 1.0)
    bad = SimpleNamespace(grid=other, stack=lambda: arr)
    assert "grid" in estimate_problem(bad, case.measured, case.mask)

    assert identity_problem(1.0, 1.0, 0.0) is None
    assert identity_problem(1.5, 1.0, 0.1) is not None
    assert identity_problem(float("nan"), 1.0, 0.1) is not None


def test_a_failed_check_counts_and_the_pass_goes_on(lpk_modules):
    lpk = run.fresh_lpk()
    inputs = build_inputs(lpk, tiny(WORKLOADS["demo2d"]), seed=0)
    engines = lpk.harness.ENGINES
    real = engines["interp"]

    def corrupt(measured, mask, params):
        est, report = real(measured, mask, params)
        return lpk.core.MultiKSignal.from_array(est.grid, est.stack() * 2.0), report

    engines["interp"] = corrupt
    try:
        tally = Tally()
        run_pass(lpk, inputs, 0, tally)
    finally:
        engines["interp"] = real
    assert tally.failed == 1
    assert tally.failures[0].startswith("interp/")
    assert any(k.startswith("lowrank/") for k in tally.nrmse)
    assert tally.attempted == 3 + (2 + 3) * TAIL_REPEATS


def _masks(name, seed):
    lpk = run.fresh_lpk()
    return [c.mask.acquired for c in build_inputs(lpk, WORKLOADS[name], seed).cases]


def test_seed_moves_random_masks_only(lpk_modules):
    for name in ("random2d", "sweep1d"):
        a, b = _masks(name, 1), _masks(name, 2)
        assert any(not np.array_equal(x, y) for x, y in zip(a, b)), name
        assert all(np.array_equal(x, y) for x, y in zip(a, _masks(name, 1))), name
    a, b = _masks("demo2d", 1), _masks("demo2d", 2)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_missing_hook_is_reported_not_raised(monkeypatch):
    layer = ModuleType("fake_layer")
    layer.present = lambda x: x + 1
    layer.Holder = type("Holder", (), {"method": lambda self: 7})
    layer.changed = lambda: None
    monkeypatch.setitem(sys.modules, "fake_layer", layer)
    real = layer.present
    tracer = Tracer()
    tracer.install(
        [
            Hook("gone", ("fake_layer:renamed", "no_such_module:f", "fake_layer:Nope.f")),
            Hook("present", ("fake_layer:present", "fake_layer:Holder.method")),
            Hook("changed", ("fake_layer:changed",), lambda t, a, k, r: len(r)),
        ]
    )
    try:
        assert len(tracer.missing) == 3
        assert layer.present(1) == 2 and layer.Holder().method() == 7
        assert tracer.calls["present"] == 2
        assert layer.changed() is None
        assert len(tracer.missing) == 4 and "changed counter" in tracer.missing[-1]
    finally:
        tracer.uninstall()
    assert layer.present is real


def test_self_time_excludes_child_spans():
    import time as _time

    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: _time.sleep(0.02), None)
    outer = tracer.wrap("outer", lambda: (inner(), _time.sleep(0.01)), None)
    outer()
    assert tracer.calls == {"inner": 1, "outer": 1}
    assert 0.005 < tracer.self_s["outer"] < 0.018
    assert tracer.self_s["inner"] >= 0.02


def test_calibration_uses_the_bursts_nearest_to_the_call():
    from calibrate import NEIGHBOURS, REF_SECONDS, SHARE, Reference

    ref = Reference(warmup=0)
    ref.at = [float(t) for t in range(NEIGHBOURS)] + [100.0 + t for t in range(NEIGHBOURS)]
    ref.took = [2 * REF_SECONDS] * NEIGHBOURS + [REF_SECONDS] * NEIGHBOURS
    assert ref.factor(0.0, 1.0) == pytest.approx(0.5)
    assert ref.factor(105.0, 107.0) == pytest.approx(1.0)

    ref = Reference(warmup=0)
    ref.after(0.2)
    assert ref.spent >= SHARE * 0.2 and len(ref.took) == len(ref.at) >= 1
