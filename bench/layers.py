"""The layers the traced run measures, and the per-layer metrics.

Each hook lists every module attribute the engines look the function up
through (``from .lp import pattern_signature`` in ``harness`` makes a
second binding that must be wrapped too).  ``per_layer`` turns the
traced totals into per-pass numbers; the end-to-end metric each layer
feeds is named in README.md.
"""

from __future__ import annotations

from spans import Hook


def _bank_size(t, args, kwargs, result):
    t.add("bank.filters", len(result.filters))


def _cells(t, args, kwargs, result):
    t.add("calib.cells", result.matrix.size)


def _annihilation(t, args, kwargs, result):
    report = result[1]
    t.add("annihilation.iters", report.iterations)
    if report.conditioning is not None:
        t.add("annihilation.cond_sum", report.conditioning)
        t.add("annihilation.cond_n", 1)


def _lowrank(t, args, kwargs, result):
    report = result[1]
    t.add("lowrank.iters", report.iterations)
    t.add("lowrank.rank", report.rank)


def _fitted(t, args, kwargs, result):
    fmap = result[0] if isinstance(result, tuple) else result
    t.add("interp.fitted", len(fmap))


def _imputed(t, args, kwargs, result):
    filters = args[2] if len(args) > 2 else kwargs["filters"]
    t.add("interp.used", len(filters))


def _sms_iters(t, args, kwargs, result):
    t.add("sms.iters", result[1].iterations)


HOOKS = (
    Hook("multi.scene_samples", ("lpk.multi:scene_samples", "lpk.harness:scene_samples")),
    Hook("harness.gen_mask", ("lpk.harness:gen_mask",)),
    Hook("harness.add_noise", ("lpk.harness:add_noise",)),
    Hook(
        "lp.nullspace_filter_bank",
        ("lpk.lp:nullspace_filter_bank", "lpk.harness:nullspace_filter_bank",
         "lpk.recon:nullspace_filter_bank"),
        _bank_size,
    ),
    Hook(
        "recon.annihilation_recon",
        ("lpk.recon:annihilation_recon", "lpk.harness:annihilation_recon"),
        _annihilation,
    ),
    Hook(
        "recon.lowrank_complete",
        ("lpk.recon:lowrank_complete", "lpk.harness:lowrank_complete"),
        _lowrank,
    ),
    Hook("recon.lift", ("lpk.recon:lift",)),
    Hook("recon.unlift", ("lpk.recon:StructuredMatrix.unlift",)),
    Hook(
        "lp.build_calib_matrix",
        ("lpk.lp:build_calib_matrix", "lpk.recon:build_calib_matrix",
         "lpk.multi:build_calib_matrix"),
        _cells,
    ),
    Hook("lp.pattern_signature", ("lpk.lp:pattern_signature", "lpk.harness:pattern_signature")),
    Hook(
        "lp.fit_interpolation_filters",
        ("lpk.lp:fit_interpolation_filters", "lpk.harness:fit_interpolation_filters"),
        _fitted,
    ),
    Hook(
        "lp.interpolate_missing",
        ("lpk.lp:interpolate_missing", "lpk.harness:interpolate_missing"),
        _imputed,
    ),
    Hook("multi.sms_fit_separator", ("lpk.multi:sms_fit_separator",)),
    Hook("multi.sms_separate", ("lpk.multi:sms_separate",), _sms_iters),
    Hook(
        "lp.check_identity",
        ("lpk.lp:check_annihilation_identity", "lpk.multi:check_multichannel_identity",
         "lpk.multi:check_superposition_identity"),
    ),
    Hook(
        "quadrature.piecewise_quad",
        ("lpk.quadrature:piecewise_quad", "lpk.lp:piecewise_quad", "lpk.multi:piecewise_quad"),
    ),
)

SETUP_LAYERS = ("multi.scene_samples", "harness.gen_mask", "harness.add_noise")

# name -> unit, in the order BENCHMARK.json lists them.
PER_LAYER = {
    "multi.scene_samples.s": "s",
    "harness.gen_mask.s": "s",
    "harness.add_noise.s": "s",
    "lp.nullspace_filter_bank.s": "s",
    "lp.nullspace_filter_bank.filters": "count",
    "recon.annihilation_recon.s": "s",
    "recon.annihilation_recon.iters": "count",
    "recon.annihilation_recon.ms_per_iter": "ms",
    "recon.annihilation_recon.conditioning": "1",
    "recon.lowrank_complete.s": "s",
    "recon.lowrank_complete.iters": "count",
    "recon.lowrank_complete.ms_per_sweep": "ms",
    "recon.lowrank_complete.rank": "count",
    "recon.lift.calls": "count",
    "recon.lift.s": "s",
    "recon.unlift.s": "s",
    "lp.build_calib_matrix.calls": "count",
    "lp.build_calib_matrix.s": "s",
    "lp.build_calib_matrix.cells": "count",
    "lp.pattern_signature.calls": "count",
    "lp.pattern_signature.s": "s",
    "lp.fit_interpolation_filters.s": "s",
    "lp.fit_interpolation_filters.patterns": "count",
    "lp.interpolate_missing.s": "s",
    "lp.interp.useful_ratio": "1",
    "multi.sms_fit_separator.s": "s",
    "multi.sms_separate.s": "s",
    "multi.sms_separate.iters": "count",
    "lp.check_identity.s": "s",
    "quadrature.piecewise_quad.calls": "count",
    "quadrature.piecewise_quad.s": "s",
    "trace.overhead_frac": "1",
}


def _ratio(num: float, den: float, scale: float = 1.0):
    return num / den * scale if den else None


def per_layer(setup, traced, n: int, overhead_frac: float) -> dict:
    """Per-layer metrics: setup spans once, pass spans averaged over ``n`` passes.

    ``setup`` and ``traced`` are tracers; spans that never ran (a hook
    that is missing, or a layer the workload does not reach) are left
    out rather than reported as zero.
    """
    s, c, k = traced.self_s, traced.calls, traced.counters
    values = {f"{name}.s": setup.self_s[name] for name in SETUP_LAYERS if setup.calls[name]}

    def span(name, *fields):
        if not c[name]:
            return
        for f in fields:
            if f == "s":
                values[f"{name}.s"] = s[name] / n
            elif f == "calls":
                values[f"{name}.calls"] = c[name] / n

    span("lp.nullspace_filter_bank", "s")
    values["lp.nullspace_filter_bank.filters"] = _ratio(k["bank.filters"], c["lp.nullspace_filter_bank"])
    span("recon.annihilation_recon", "s")
    values["recon.annihilation_recon.iters"] = _ratio(k["annihilation.iters"], c["recon.annihilation_recon"])
    values["recon.annihilation_recon.ms_per_iter"] = _ratio(
        s["recon.annihilation_recon"], k["annihilation.iters"], 1e3
    )
    values["recon.annihilation_recon.conditioning"] = _ratio(
        k["annihilation.cond_sum"], k["annihilation.cond_n"]
    )
    span("recon.lowrank_complete", "s")
    values["recon.lowrank_complete.iters"] = _ratio(k["lowrank.iters"], c["recon.lowrank_complete"])
    values["recon.lowrank_complete.ms_per_sweep"] = _ratio(
        s["recon.lowrank_complete"], k["lowrank.iters"], 1e3
    )
    values["recon.lowrank_complete.rank"] = _ratio(k["lowrank.rank"], c["recon.lowrank_complete"])
    span("recon.lift", "calls", "s")
    span("recon.unlift", "s")
    span("lp.build_calib_matrix", "calls", "s")
    if c["lp.build_calib_matrix"]:
        values["lp.build_calib_matrix.cells"] = k["calib.cells"] / n
    span("lp.pattern_signature", "calls", "s")
    span("lp.fit_interpolation_filters", "s")
    if c["lp.fit_interpolation_filters"]:
        values["lp.fit_interpolation_filters.patterns"] = k["interp.fitted"] / n
    span("lp.interpolate_missing", "s")
    values["lp.interp.useful_ratio"] = _ratio(k["interp.used"], k["interp.fitted"])
    span("multi.sms_fit_separator", "s")
    span("multi.sms_separate", "s")
    if c["multi.sms_separate"]:
        values["multi.sms_separate.iters"] = k["sms.iters"] / n
    span("lp.check_identity", "s")
    span("quadrature.piecewise_quad", "calls", "s")
    values["trace.overhead_frac"] = overhead_frac
    return {
        name: (value, PER_LAYER[name])
        for name, value in values.items()
        if value is not None
    }
