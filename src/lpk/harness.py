"""Sampling patterns, noise, metrics, and batch experiments.

Masks come from a small declarative spec so any pattern is reproducible
bit-exactly from (spec, grid).  Reconstruction engines live in a
registry keyed by name.  An engine's signature (samples, one mask all
channels share, keyword parameters with defaults) is the only place its
parameters are declared, and a key it has no parameter for is an error.
An experiment config fans out over methods, noise levels, and seeds,
scores every case against the closed-form truth, and emits JSON + CSV
tables (plus PGM renderings for 2D scenes).

Undersampling acts along the first axis: in 2D a "sample" is a full
line of constant row index, which is how acceleration is usually laid
out, and it keeps local patterns learnable.
"""

from __future__ import annotations

import csv
import functools
import inspect
import os
import time
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    KGrid,
    SamplingMask,
    _as_multi,
    _box,
    _centered_interval,
    _integer,
    _like,
    _weight,
    centered_grid,
    zero_fill,
)
from .io import _from_doc, read_json, write_json
from .lp import (
    fit_interpolation_filters,
    interpolate_missing,
    missing_patterns,
    nullspace_filter_bank,
    pattern_signature,  # noqa: F401  bench/layers.py wraps lpk.harness:pattern_signature
)
from .multi import MultiScene, scene_from_json, scene_samples
from .phantom import Phantom, Primitive, make_sensitivities
from .recon import ReconReport, annihilation_recon, lowrank_complete, report_to_json

MASK_KINDS = ("full", "lowres", "uniform", "random", "random_pf", "stencil")


@dataclass(frozen=True)
class MaskSpec:
    """Declarative sampling pattern; every field is reproducibility input.

    ``calib`` and ``pf`` may be None to pick the defaults at generation
    time (an eighth of the grid, and 9/16); ``calib=0`` leaves the
    calibration block out.  ``r``, ``seed`` and a given ``calib`` are
    integers (not bools); anything else is a ``ValueError`` naming the
    field as an experiment config does (``mask accel``, ``mask calib``,
    ``mask seed``).
    """

    kind: str
    r: int = 1
    calib: int | None = None
    pf: float | None = None
    seed: int = 0
    stencil: tuple | None = None

    def __post_init__(self):
        if self.kind not in MASK_KINDS:
            raise ValueError(f"unknown mask kind {self.kind!r}")
        _integer("mask accel", self.r)
        if self.calib is not None:
            _integer("mask calib", self.calib)
        _integer("mask seed", self.seed)
        if self.r < 1:
            raise ValueError("acceleration must be at least 1")
        if self.pf is not None:
            if self.kind != "random_pf":
                raise ValueError("pf fraction applies to random_pf only")
            if not 0.5 < self.pf <= 1.0:
                raise ValueError("pf fraction must lie in (0.5, 1]")
        if self.calib is not None and self.calib < 0:
            raise ValueError("calib width must be nonnegative")
        if self.kind == "stencil" and self.stencil is None:
            raise ValueError("stencil kind needs a bitmap")

    def label(self) -> str:
        parts = [self.kind, f"R{self.r}"]
        if self.calib is not None:
            parts.append(f"C{self.calib}")
        if self.pf is not None:
            parts.append(f"F{self.pf:g}")
        if self.kind.startswith("random"):
            parts.append(f"S{self.seed}")
        return "-".join(parts)


def gen_mask(spec: MaskSpec, grid: KGrid) -> SamplingMask:
    """Generate the sampling pattern a spec describes, deterministically.

    Rules act on first-axis indices (full lines in 2D): ``uniform``
    keeps every r-th line counted from index 0, ``random`` draws
    ``ceil(lines / r)`` lines without replacement, ``lowres`` keeps the
    centered ``1/r`` fraction, and ``random_pf`` first restricts
    candidates to ``n >= n_max - round(pf * lines) + 1``.  The calib
    block (centered, all axes) is forced on afterwards unless
    ``calib=0``.  ``stencil`` uses the supplied bitmap verbatim.
    """
    size0 = grid.shape[0]
    n0 = np.arange(grid.n_min[0], grid.n_max[0] + 1)
    want_calib = spec.kind != "stencil"
    cw = spec.calib if spec.calib is not None else (size0 // 8 if want_calib else 0)
    if cw > min(grid.shape):
        raise ValueError(f"calib width {cw} exceeds grid extent {min(grid.shape)}")
    calib = (_centered_interval(cw),) * grid.dims if cw > 0 else None

    if spec.kind == "stencil":
        bitmap = np.asarray(spec.stencil, dtype=bool)
        if bitmap.shape != grid.shape:
            raise ValueError(
                f"stencil shape {bitmap.shape} does not match grid {grid.shape}"
            )
        return SamplingMask(grid, bitmap, calib)

    if spec.kind == "random_pf":
        f = spec.pf if spec.pf is not None else 9.0 / 16.0
        boundary = grid.n_max[0] - int(round(f * size0)) + 1
        keep = n0 >= boundary
        if calib is not None and calib[0][0] < boundary:
            raise ValueError(
                f"pf boundary {boundary} excludes the calibration block"
            )
    else:
        keep = np.ones(size0, dtype=bool)

    lines = np.zeros(size0, dtype=bool)
    if spec.kind == "full":
        lines[:] = True
    elif spec.kind == "lowres":
        count = -(-size0 // spec.r)
        lo, hi = _centered_interval(count)
        lines[(n0 >= lo) & (n0 <= hi)] = True
    elif spec.kind == "uniform":
        lines[(n0 % spec.r == 0) & keep] = True
    elif spec.kind.startswith("random"):
        pool = np.flatnonzero(keep)
        count = min(-(-len(pool) // spec.r), len(pool))
        rng = np.random.default_rng(spec.seed)
        pick = rng.choice(pool, size=count, replace=False)
        lines[np.sort(pick)] = True
    else:
        raise ValueError(f"unhandled kind {spec.kind!r}")

    acquired = np.zeros(grid.shape, dtype=bool)
    acquired[lines] = True
    if calib is not None:
        acquired[_box(calib, grid)] = True
    return SamplingMask(grid, acquired, calib)


def add_noise(data, sigma: float, seed: int):
    """Add circular complex Gaussian noise, variance ``sigma**2`` per sample."""
    if _weight("sigma", sigma) == 0:
        return data
    lead = data.values.shape[: -data.grid.dims]
    # Per channel a real block, then an imaginary block.
    z = np.random.default_rng(seed).standard_normal(lead + (2,) + data.grid.shape)
    re, im = np.moveaxis(z, len(lead), 0)
    return _like(data, data.values + sigma / np.sqrt(2.0) * (re + 1j * im))


def nrmse(estimate, truth) -> float:
    """``||estimate - truth|| / ||truth||``; infinity when truth is all zero."""
    est, tru = estimate.values, truth.values
    if est.shape != tru.shape:
        raise ValueError("estimate and truth shapes differ")
    denom = float(np.linalg.norm(tru))
    if denom == 0.0:
        return float(np.inf)
    return float(np.linalg.norm(est - tru)) / denom


def _engine_zero_fill(measured, mask):
    return _as_multi(zero_fill(measured, mask)), ReconReport(method="zero-fill", iterations=0, converged=True)


def _engine_interp(
    measured, mask, L=2, P=2, ridge=None, passes=4, max_resid=0.05, gain_ratio=50.0
):
    """Up to ``passes`` rounds of pattern fits and imputation.

    Each pass fits one ``[Q, Q, *W]`` tap array per local pattern of the
    samples still missing (:func:`fit_interpolation_filters`), keeps the
    arrays whose fit passes the residual and gain gates below, imputes
    their samples (:func:`interpolate_missing`) and counts them as
    acquired for the next pass.  All three read one pass mask, so they
    share its one :func:`missing_patterns` grouping.
    """
    cur = zero_fill(_as_multi(measured), mask)
    grid = cur.grid
    eff = mask.acquired.copy()
    done = 0
    for done in range(1, passes + 1):
        if bool(np.all(eff)):
            done -= 1
            break
        eff_mask = SamplingMask(grid, eff, mask.calib)
        fmap, quality = fit_interpolation_filters(cur, eff_mask, L, P, ridge)
        # Impute only where the calibration fit generalizes: tight
        # residual, and coefficient energy within gain_ratio of the most
        # stable pattern this pass (energies far above it mark overfit
        # filters that explode off the calibration region).  Gated-out
        # patterns wait for a later pass with a denser effective mask.
        fitted = {s for s in fmap if quality[s][0] <= max_resid}
        anchor = min((quality[s][1] for s in fitted), default=0.0)
        useful = {
            sig: taps
            for sig, taps in fmap.items()
            if sig in fitted and quality[sig][1] <= gain_ratio * max(anchor, 1e-3)
        }
        if not useful:
            done -= 1
            break
        cur = interpolate_missing(cur, eff_mask, useful, L, P)
        for sig, pos in missing_patterns(eff_mask, L, P).items():
            if sig in useful:
                eff[tuple(pos.T)] = True
    covered = bool(np.all(eff))
    notes = () if covered else ("uncovered indices left at zero-fill",)
    return cur, ReconReport(
        method="interp", iterations=done, converged=covered, notes=notes
    )


def _engine_annihilation(measured, mask, L=2, P=2, tau=0.05, lam=0.0, tol=1e-9, max_iters=500):
    if mask.calib is None:
        raise ValueError("annihilation engine needs a calibration region")
    ms = _as_multi(measured)
    # One relation per channel, mirroring per-channel kernels.
    bank = nullspace_filter_bank(ms, mask.calib, L, P, tau=tau, limit=ms.q_count)
    return annihilation_recon(ms, mask, bank, lam=lam, tol=tol, max_iters=max_iters)


@functools.wraps(lowrank_complete)
def _engine_lowrank(*args, **kwargs):
    # Looked up here at each call, so a wrapper installed on this
    # module's ``lowrank_complete`` sees every engine run.
    return lowrank_complete(*args, **kwargs)


def _engine(name: str, fn: Callable) -> Callable:
    """``fn(measured, mask, **params)`` as a ``(measured, mask, params)``
    engine; a key ``fn`` has no parameter for, or a value other than an
    integer for a parameter whose default is one, is a ``ValueError``."""
    signature = inspect.signature(fn)
    int_keys = [k for k, p in signature.parameters.items() if type(p.default) is int]

    def run(measured, mask, params):
        try:
            bound = signature.bind(measured, mask, **params)
        except TypeError as exc:
            raise ValueError(f"{name} engine: {exc}") from None
        for key in int_keys:
            _integer(f"{name} engine: {key}", bound.arguments.get(key, 0))
        return fn(*bound.args, **bound.kwargs)

    return run


ENGINES: dict[str, Callable] = {
    name: _engine(name, fn) for name, fn in (
        ("zero-fill", _engine_zero_fill), ("interp", _engine_interp),
        ("annihilation", _engine_annihilation), ("lowrank", _engine_lowrank),
    )
}


def demo_scene_1d() -> MultiScene:
    """Four-channel 1D scene used by the shipped experiments."""
    phantom = Phantom(
        (
            Primitive("boxcar", (-0.15,), (0.2,), 90.0),
            Primitive("boxcar", (0.22,), (0.1,), 60.0 * np.exp(1j * np.pi / 5)),
            Primitive("ellipse", (0.05,), (0.18,), 40.0),
        ),
        (1.0,),
    )
    return MultiScene(phantom, make_sensitivities(4, 2, seed=11))


def demo_scene_2d() -> MultiScene:
    """Eight-coil 64x64 scene used by the shipped experiments."""
    phantom = Phantom(
        (
            Primitive("ellipse", (0.0, 0.0), (0.32, 0.27), 100.0),
            Primitive("ellipse", (-0.08, 0.05), (0.12, 0.1), -35.0),
            Primitive("boxcar", (0.15, -0.12), (0.07, 0.09), 55.0 * np.exp(1j * np.pi / 7)),
        ),
        (1.0, 1.0),
    )
    return MultiScene(phantom, make_sensitivities(8, 2, seed=5, dims=2))


_NAMED_SCENES = {"demo1d": demo_scene_1d, "demo2d": demo_scene_2d}


def resolve_scene(entry):
    """Scene from a registry name, an inline JSON document, or a file path.

    A scene file that cannot be read or parsed, that lacks a field, or
    that holds a malformed document (a list where an object belongs, a
    bad value) is a ``ValueError`` naming that file.
    """
    if isinstance(entry, str):
        if entry in _NAMED_SCENES:
            return _NAMED_SCENES[entry](), entry
        try:
            doc = read_json(entry)
        except OSError as exc:
            raise ValueError(f"cannot read scene {entry}: {exc}") from exc
        return _from_doc(entry, scene_from_json, doc), entry
    return scene_from_json(entry), str(entry.get("kind", "scene"))


def write_pgm(path, magnitude: np.ndarray) -> None:
    """16-bit max-normalized P5 rendering of a 2D magnitude array."""
    mag = np.asarray(magnitude, dtype=float)
    if mag.ndim != 2:
        raise ValueError("PGM rendering needs a 2D array")
    peak = float(mag.max())
    scaled = np.zeros(mag.shape, dtype=">u2")
    if peak > 0:
        scaled = np.round(mag / peak * 65535).astype(">u2")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{mag.shape[1]} {mag.shape[0]}\n65535\n".encode("ascii"))
        fh.write(scaled.tobytes())


def image_magnitude(data) -> np.ndarray:
    """Root-sum-of-squares spatial magnitude of (multi-channel) samples."""
    ms = _as_multi(data)
    axes = tuple(range(1, ms.grid.dims + 1))
    # Roll index n to array slot n mod N so ifftn sees DFT ordering.
    img = np.fft.ifftn(np.roll(ms.values, ms.grid.n_min, axis=axes), axes=axes)
    return np.sqrt(np.sum(np.abs(np.fft.fftshift(img, axes=axes)) ** 2, axis=0))


def _method_entry(m) -> tuple[str, dict]:
    if isinstance(m, str):
        return m, {}
    m = dict(m)
    return m.pop("name"), m


def run_experiment(config: dict, out_dir=None) -> dict:
    """Fan an experiment config out over methods, noise levels, and seeds.

    Config keys: ``scene`` (registry name, path, or inline document),
    ``grid`` (size or per-axis list), ``fov``, ``mask`` (spec fields),
    ``methods`` (names or ``{"name": ..., params}``), ``sigmas``,
    ``seeds``, optional ``timing`` to record wall time.  A config of
    the wrong structure raises ``ValueError``, as does an integer field
    (the mask's ``accel``, ``calib`` and ``seed``, each entry of
    ``seeds``) given as a bool or a non-integer, naming the field;
    per-case failures are recorded and the run continues.

    Returns the report document; with ``out_dir`` also writes
    ``report.json``, ``report.csv``, and per-case PGM renderings for 2D
    scenes.  Each row's ``notes`` joins its report's notes with ``"; "``
    (empty when there are none).
    """
    try:
        scene, scene_label = resolve_scene(config["scene"])
        if not isinstance(scene, MultiScene):
            raise ValueError("experiments run on multi-channel scenes")
        shape = config["grid"]
        fov = config.get("fov", 1.0)
        grid = centered_grid(shape, fov)
        mask_cfg = dict(config["mask"])
        spec = MaskSpec(
            kind=mask_cfg.pop("kind"),
            r=mask_cfg.pop("accel", 1),
            calib=mask_cfg.pop("calib", None),
            pf=mask_cfg.pop("pf", None),
            seed=mask_cfg.pop("seed", 0),
            stencil=mask_cfg.pop("stencil", None),
        )
        if mask_cfg:
            raise ValueError(f"unknown mask fields: {sorted(mask_cfg)}")
        mask = gen_mask(spec, grid)
        methods = [_method_entry(m) for m in config.get("methods", [])]
        sigmas = [float(s) for s in config.get("sigmas", [0.0])]
        seeds = [_integer(f"seeds[{i}]", s) for i, s in enumerate(config.get("seeds", [0]))]
        timing = bool(config.get("timing", False))
    except KeyError as exc:
        raise ValueError(f"experiment config lacks field {exc}") from exc
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"malformed experiment config: {exc}") from exc
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)

    if not methods:
        warnings.warn("empty method list; emitting an empty table", stacklevel=2)

    truth = scene_samples(scene, grid)
    rows = []
    case_reports = []
    for name, params in methods:
        for sigma in sigmas:
            for seed in seeds:
                noisy = add_noise(truth, sigma, seed)
                measured = zero_fill(noisy, mask)
                row = {
                    "scene": scene_label,
                    "mask": spec.label(),
                    "method": name,
                    "sigma": sigma,
                    "seed": seed,
                    "nrmse": float("nan"),
                    "iterations": 0,
                    "converged": False,
                    "wall_ms": 0.0,
                    "notes": "",
                }
                detail = {"error": None, "report": None}
                try:
                    if name not in ENGINES:
                        raise ValueError(f"unknown engine {name!r}")
                    t0 = time.perf_counter()
                    est, report = ENGINES[name](measured, mask, params)
                    elapsed = (time.perf_counter() - t0) * 1000.0
                    row["nrmse"] = nrmse(est, truth)
                    row["iterations"] = report.iterations
                    row["converged"] = report.converged
                    row["notes"] = "; ".join(report.notes)
                    if timing:
                        row["wall_ms"] = elapsed
                    detail["report"] = report_to_json(report)
                    if out_dir is not None and grid.dims == 2:
                        stem = f"{scene_label}_{spec.label()}_{name}_sg{sigma:g}_sd{seed}"
                        write_pgm(
                            f"{out_dir}/{stem}.pgm", image_magnitude(est)
                        )
                except Exception as exc:  # per-case isolation is the contract
                    detail["error"] = f"{type(exc).__name__}: {exc}"
                rows.append(row)
                case_reports.append(detail)

    order = sorted(
        range(len(rows)),
        key=lambda i: (
            rows[i]["scene"], rows[i]["mask"], rows[i]["method"],
            rows[i]["sigma"], rows[i]["seed"],
        ),
    )
    rows = [rows[i] for i in order]
    case_reports = [case_reports[i] for i in order]
    doc = {
        "version": 1,
        "kind": "experiment-report",
        "rows": rows,
        "cases": case_reports,
    }
    if out_dir is not None:
        write_json(f"{out_dir}/report.json", doc)
        with open(f"{out_dir}/report.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["scene", "mask", "method", "sigma", "seed", "nrmse", "iterations",
                 "converged", "wall_ms", "notes"]
            )
            for row in rows:
                writer.writerow(
                    [
                        row["scene"], row["mask"], row["method"],
                        f"{row['sigma']:g}", row["seed"],
                        repr(row["nrmse"]), row["iterations"], row["converged"],
                        f"{row['wall_ms']:g}", row["notes"],
                    ]
                )
    return doc
