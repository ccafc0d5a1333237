"""Command-line front end for reproducible sampling/fitting/recon runs.

Every invocation is fully determined by its flags and input files; there
are no environment variables and no hidden state, so identical commands
produce byte-identical outputs.  Exit codes: 0 success, 1 usage error,
2 data error (unreadable or malformed inputs), 3 numerical failure when
``--strict`` demanded convergence or a conclusive identity check.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .core import (
    Filter,
    KSignal,
    MultiFilter,
    SamplingMask,
    _as_multi,
    _centered_interval,
    centered_grid,
    zero_fill,
)
from .harness import ENGINES, MaskSpec, add_noise, gen_mask, nrmse, run_experiment
from .io import LpkFormatError, _from_doc, read_json, read_lpk, write_json, write_lpk
from .lp import (
    FilterBank,
    bank_from_json,
    bank_to_json,
    build_calib_matrix,
    fit_prediction_filter,
    gram_operator,
    nullspace_filter_bank,
    smallest_eigensequences,
    check_annihilation_identity,
)
from .multi import (
    MultiScene,
    SmsScene,
    check_multichannel_identity,
    check_superposition_identity,
    scene_from_json,
    scene_samples,
    smash_fit,
    sms_fit_separator,
    sms_separate,
    sms_slice_samples,
    sms_superpose,
)
from .phantom import Modulator, Phantom, Primitive, phantom_from_json, fourier_samples


class _UsageError(Exception):
    def __init__(self, message, parser):
        super().__init__(message)
        self.parser = parser


class _NumericalError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message, self)


def _fmt(x) -> str:
    return f"{float(x):.12g}"


def _load(read, path):
    """``read(path)`` (``read_lpk`` or ``read_json``), with an unreadable
    file or a malformed ``.lpk`` file a ``ValueError`` that names ``path``."""
    try:
        return read(path)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except LpkFormatError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _save(write, path, obj) -> None:
    """``write(path, obj)`` (``write_lpk`` or ``write_json``), with a file
    that cannot be written a ``ValueError`` that names ``path``."""
    try:
        write(path, obj)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from exc


def _load_samples(path):
    """The samples in the ``.lpk`` file ``path``; a mask there is a ``ValueError``."""
    data = _load(read_lpk, path)
    if isinstance(data, SamplingMask):
        raise ValueError(f"{path}: expected samples, not a mask")
    return data


def _load_scene_doc(path):
    doc = _load(read_json, path)
    if isinstance(doc, dict) and doc.get("kind") in ("scene", "sms-scene"):
        return _from_doc(path, scene_from_json, doc)
    return _from_doc(path, phantom_from_json, doc)


def _signal_grid(args, fallback_fov=None):
    # Dimensionality comes from the document; --grid/--fov are per-axis.
    ref = fallback_fov if fallback_fov is not None else args.fov
    dims = len(ref) if ref is not None and not np.isscalar(ref) else 1
    fov = args.fov if args.fov is not None else fallback_fov
    if fov is None:
        fov = 1.0
    if np.isscalar(fov):
        fov = (float(fov),) * dims
    return centered_grid((int(args.grid),) * dims, fov)


def _mask_spec(args) -> MaskSpec:
    return MaskSpec(
        kind=args.mask_kind,
        r=args.accel,
        calib=args.calib,
        pf=args.pf,
        seed=args.seed,
    )


def _cmd_phantom(args) -> int:
    obj = _load_scene_doc(args.input)
    if isinstance(obj, Phantom):
        grid = _signal_grid(args, obj.fov)
        out = fourier_samples(obj, grid)
    elif isinstance(obj, MultiScene):
        grid = _signal_grid(args, obj.phantom.fov)
        out = scene_samples(obj, grid)
    elif isinstance(obj, SmsScene):
        grid = _signal_grid(args, obj.slices[0].fov)
        out = sms_superpose(sms_slice_samples(obj, grid))
    else:
        raise ValueError(f"unsupported scene document in {args.input}")
    _save(write_lpk, args.out, out)
    print(f"wrote {args.out}")
    return 0


def _cmd_sample(args) -> int:
    data = _load_samples(args.input)
    spec = _mask_spec(args)
    mask = gen_mask(spec, data.grid)
    noisy = add_noise(data, args.sigma, args.seed)
    measured = zero_fill(noisy, mask)
    _save(write_lpk, args.out, measured)
    print(f"wrote {args.out}")
    if args.mask_out:
        _save(write_lpk, args.mask_out, mask)
        print(f"wrote {args.mask_out}")
    print(f"acquired {int(mask.acquired.sum())} of {mask.grid.size}")
    return 0


def _calib_arg(args, grid):
    if args.calib is None or args.calib == 0:
        return None
    return (_centered_interval(args.calib),) * grid.dims


def _cmd_fit(args) -> int:
    if args.mode == "predict":
        data = _load_samples(args.input)
        cm = build_calib_matrix(data, _calib_arg(args, data.grid), args.L, args.P)
        tgt = 0 if args.target is None else args.target
        mf, resid = fit_prediction_filter(cm, target=tgt, ridge=args.ridge)
        bank = FilterBank(mf.taps[None], mf.L, mf.P, (resid,), (mf.anchor_channel,))
        print(f"residual {_fmt(resid)}")
    elif args.mode == "nullspace":
        data = _load_samples(args.input)
        bank = nullspace_filter_bank(
            data, _calib_arg(args, data.grid), args.L, args.P,
            tau=args.tau, limit=args.limit,
        )
        print(f"filters {len(bank.taps)}")
        print(f"residual {_fmt(bank.residuals[0])}")
    elif args.mode == "eigen":
        obj = _load_scene_doc(args.input)
        if not isinstance(obj, Phantom):
            raise ValueError("eigen mode fits against a phantom document")
        gram = gram_operator(obj, args.L, args.P)
        bank = smallest_eigensequences(gram, args.count)
        for r in bank.residuals:
            print(f"eigenvalue {_fmt(r)}")
    elif args.mode == "smash":
        obj = _load_scene_doc(args.input)
        if not isinstance(obj, MultiScene):
            raise ValueError("smash mode fits against a multi-channel scene")
        mf, resid = smash_fit(
            obj.sensitivities, args.L, args.P,
            target=0 if args.target is None else args.target,
            fov=obj.phantom.fov[0], ridge=args.ridge,
        )
        bank = FilterBank(mf.taps[None], mf.L, mf.P, (resid,), (mf.anchor_channel,))
        print(f"residual {_fmt(resid)}")
    elif args.mode == "sms-sep":
        obj = _load_scene_doc(args.input)
        if not isinstance(obj, SmsScene):
            raise ValueError("sms-sep mode fits against a superposition scene")
        grid = _signal_grid(args, obj.slices[0].fov)
        slices = sms_slice_samples(obj, grid)
        if not isinstance(slices[0], KSignal):
            raise ValueError("sms-sep fitting expects a single-coil scene")
        targets = (
            range(len(slices)) if args.target is None else (args.target,)
        )
        taps, resids = [], []
        for tgt in targets:
            filt, rep = sms_fit_separator(
                slices, tgt, args.L, args.P,
                calib=_calib_arg(args, grid), mu=args.mu, ridge=args.ridge,
            )
            taps.append(filt.taps)
            resids.append(rep.residual)
            print(f"slice {tgt} residual {_fmt(rep.residual)}")
            print(f"slice {tgt} leakage {_fmt(rep.leakage)}")
        # One single-channel filter per slice, so one format carries every fit flavor.
        bank = FilterBank(np.stack(taps)[:, None], args.L, args.P, resids)
    else:
        raise ValueError(f"unknown fit mode {args.mode!r}")
    if args.out:
        _save(write_json, args.out, bank_to_json(bank))
        print(f"wrote {args.out}")
    return 0


def _cmd_recon(args) -> int:
    data = _load_samples(args.input)
    mask = _load(read_lpk, args.mask)
    if not isinstance(mask, SamplingMask):
        raise ValueError(f"{args.mask} does not hold a mask")
    truth = _as_multi(_load_samples(args.truth)) if args.truth else None
    if args.engine not in ENGINES:
        raise ValueError(f"unknown engine {args.engine!r}")
    params = {"L": args.L, "P": args.P, "tol": args.tol, "rank": args.rank, "lam": args.lam}
    # interp caps its refit passes; the solvers cap their iterations.
    params["passes" if args.engine == "interp" else "max_iters"] = args.max_iters
    # Only the flags given reach the engine, which rejects a key it lacks.
    params = {key: value for key, value in params.items() if value is not None}
    est, report = ENGINES[args.engine](data, mask, params)
    print(f"engine {args.engine}")
    print(f"iterations {report.iterations}")
    print(f"converged {str(report.converged).lower()}")
    for note in report.notes:
        print(f"note {note}")
    if truth is not None:
        print(f"nrmse {_fmt(nrmse(est, truth))}")
    if args.out:
        _save(write_lpk, args.out, est)
        print(f"wrote {args.out}")
    if args.strict and not report.converged:
        raise _NumericalError(f"{args.engine} did not converge")
    return 0


def _cmd_sms(args) -> int:
    if args.action == "superpose":
        parts = [_load_samples(p) for p in args.inputs]
        out = sms_superpose(parts)
        _save(write_lpk, args.out, out)
        print(f"wrote {args.out}")
        return 0
    if args.action == "separate":
        if args.filters is None:
            raise _UsageError("separate needs --filters", args.parser)
        if len(args.inputs) != 1:
            raise ValueError("separate takes exactly one superposed input")
        data = _load(read_lpk, args.inputs[0])
        if not isinstance(data, KSignal):
            raise ValueError("separate expects a single-channel signal")
        bank = _from_doc(args.filters, bank_from_json, _load(read_json, args.filters))
        if bank.q_count != 1:
            raise ValueError("separator filters must be single-channel")
        out, report = sms_separate(data, [Filter(t, bank.L, bank.P) for t in bank.taps[:, 0]])
        print(f"slices {out.q_count}")
        print(f"converged {str(report.converged).lower()}")
        _save(write_lpk, args.out, out)
        print(f"wrote {args.out}")
        return 0
    raise ValueError(f"unknown sms action {args.action!r}")


def _theorem_scene_1(args):
    b = args.fov if args.fov is not None else 1.0
    phantom = Phantom((Primitive("boxcar", (0.0,), (b / 4.0,), 1.0),), (b,))
    gram = gram_operator(phantom, args.L, args.P)
    bank = smallest_eigensequences(gram, 1)
    filt = bank.filters[0].filters[0]
    grid = centered_grid(args.grid, b)
    return check_annihilation_identity(phantom, filt, grid), bank.residuals[0]


def _theorem_scene_2(args):
    b = args.fov if args.fov is not None else 1.0
    phantom = Phantom((Primitive("boxcar", (0.0,), (b / 4.0,), 1.0),), (b,))
    sens = (
        Modulator(np.array([b]), (0,)),
        Modulator(np.array([b]), (1,)),
    )
    mf = MultiFilter.from_array(np.array([[0.0, 1.0], [-1.0, 0.0]]), 0, 1)
    grid = centered_grid(args.grid, b)
    return check_multichannel_identity(phantom, sens, mf, grid), None


def _theorem_scene_3(args):
    b = args.fov if args.fov is not None else 1.0
    slices = (
        Phantom((Primitive("boxcar", (0.0,), (0.04 * b,), 1.0),), (b,)),
        Phantom((Primitive("boxcar", (-0.45 * b,), (0.04 * b,), 1.0),), (b,)),
    )
    # two-tap separator: passes the slice near x = 0, nulls x = -B/2
    filt = Filter(np.array([0.5, 0.5]), 1, 0)
    grid = centered_grid(args.grid, b)
    return check_superposition_identity(slices, 0, filt, grid), None


# The tail bound falls as 1/grid; at these sizes it is under a tenth of rhs
# (theorem 1 reads 0.049, theorem 3 0.080; theorem 2 has rhs = 0).
_VERIFY_GRIDS = {1: 1 << 24, 2: 1024, 3: 16384}
# Agreement within a tail bound this large against rhs shows nothing.
_MAX_TAIL_RATIO = 0.1


def _cmd_verify(args) -> int:
    if args.theorem == 1:
        check, extra = _theorem_scene_1(args)
    elif args.theorem == 2:
        check, extra = _theorem_scene_2(args)
    elif args.theorem == 3:
        check, extra = _theorem_scene_3(args)
    else:
        raise ValueError(f"unknown theorem {args.theorem}")
    print(f"lhs {_fmt(check.lhs)}")
    print(f"rhs {_fmt(check.rhs)}")
    print(f"tail {_fmt(check.tail_bound)}")
    if extra is not None:
        print(f"eigenvalue {_fmt(extra)}")
    if check.rhs > 1e-15:
        rel = abs(check.lhs - check.rhs) / check.rhs
        ratio = check.tail_bound / check.rhs
        print(f"relative {_fmt(rel)}")
        # A gap beyond the tail bound refutes the identity at any ratio, but
        # agreement proves little when the bound is not small against rhs.
        if rel > max(1e-6, ratio):
            verdict = "false"
        elif ratio >= _MAX_TAIL_RATIO:
            verdict = "inconclusive"
        else:
            verdict = "true"
    else:
        print(f"absolute {_fmt(abs(check.lhs - check.rhs))}")
        verdict = "true" if abs(check.lhs - check.rhs) <= 1e-12 else "false"
    print(f"agree {verdict}")
    if args.strict and verdict == "false":
        raise _NumericalError("identity check outside tolerance")
    if args.strict and verdict == "inconclusive":
        raise _NumericalError(
            f"identity check inconclusive: tail/rhs {_fmt(ratio)} >= {_MAX_TAIL_RATIO}; raise --grid"
        )
    return 0


def _cmd_bench(args) -> int:
    config = _load(read_json, args.config)
    if not isinstance(config, dict):
        raise ValueError(f"{args.config}: an experiment config is a JSON object")
    if args.timing:
        config = dict(config, timing=True)
    # Cases fail one by one inside the run, so a ValueError is the config's.
    try:
        doc = run_experiment(config, out_dir=args.out)
    except ValueError as exc:
        raise ValueError(f"{args.config}: {exc}") from exc
    for row, case in zip(doc["rows"], doc["cases"]):
        value = "nan" if np.isnan(row["nrmse"]) else _fmt(row["nrmse"])
        error = "" if case["error"] is None else f" error {case['error']}"
        print(
            f"{row['method']} sigma {row['sigma']:g} seed {row['seed']} nrmse {value}{error}"
        )
    if args.out:
        print(f"wrote {args.out}/report.json")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="lpk", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common_grid(p):
        p.add_argument("--grid", type=int, default=64, help="grid size per axis (centered on 0)")
        p.add_argument("--fov", type=float, default=None, help="field of view B (default: from input)")

    p = sub.add_parser("phantom", help="emit closed-form samples of a phantom or scene")
    p.add_argument("input", help="path to a .phantom.json or .scene.json document")
    common_grid(p)
    p.add_argument("--out", required=True, help="output .lpk path")
    p.set_defaults(func=_cmd_phantom)

    p = sub.add_parser("sample", help="apply a sampling mask and optional noise")
    p.add_argument("input", help="input .lpk samples")
    p.add_argument("--mask-kind", default="uniform", help="mask kind (full, lowres, uniform, random, random_pf); --calib 0 leaves out the calibration block")
    p.add_argument("--accel", type=int, default=1, help="acceleration factor R")
    p.add_argument("--calib", type=int, default=None, help="calibration width (default: an eighth of the grid)")
    p.add_argument("--pf", type=float, default=None, help="partial-coverage fraction in (0.5, 1]")
    p.add_argument("--seed", type=int, default=0, help="seed for mask draw and noise")
    p.add_argument("--sigma", type=float, default=0.0, help="complex noise standard deviation")
    p.add_argument("--out", required=True, help="output .lpk for masked samples")
    p.add_argument("--mask-out", default=None, help="optional output .lpk for the mask itself")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("fit", help="estimate prediction/annihilation filters")
    p.add_argument("input", help=".lpk samples, .phantom.json, or .scene.json depending on mode")
    p.add_argument("--mode", default="predict", choices=["predict", "nullspace", "eigen", "smash", "sms-sep"], help="fit flavor")
    p.add_argument("--L", type=int, default=0, help="future-side tap extent")
    p.add_argument("--P", type=int, default=1, help="past-side tap extent")
    p.add_argument("--target", type=int, default=None, help="target channel or slice (sms-sep default: every slice)")
    p.add_argument("--calib", type=int, default=None, help="centered calibration width (default: whole grid)")
    p.add_argument("--ridge", type=float, default=None, help="ridge weight (default: scaled automatic)")
    p.add_argument("--tau", type=float, default=0.05, help="nullspace threshold fraction")
    p.add_argument("--limit", type=int, default=None, help="cap on nullspace filters")
    p.add_argument("--count", type=int, default=1, help="eigensequence count")
    p.add_argument("--mu", type=float, default=1.0, help="leakage weight for sms-sep")
    common_grid(p)
    p.add_argument("--out", default=None, help="output .filters.json path")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("recon", help="reconstruct missing samples with a registry engine")
    p.add_argument("input", help="measured .lpk samples")
    p.add_argument("--mask", required=True, help="mask .lpk path")
    p.add_argument("--engine", default="lowrank", help="engine name (zero-fill, interp, annihilation, lowrank)")
    p.add_argument("--L", type=int, default=None, help="future-side tap extent (default: the engine's own)")
    p.add_argument("--P", type=int, default=None, help="past-side tap extent (default: the engine's own)")
    p.add_argument("--rank", type=int, default=None, help="lifted-matrix rank (lowrank engine)")
    p.add_argument("--lambda", dest="lam", type=float, default=None, help="soft consistency weight (annihilation engine)")
    p.add_argument("--tol", type=float, default=None, help="solver tolerance (default: the engine's own)")
    p.add_argument("--max-iters", type=int, default=None, help="iteration cap: CG steps for annihilation, which solves up to 256 unknowns in one step; passes for interp (default: the engine's own)")
    p.add_argument("--truth", default=None, help="reference .lpk for an nrmse line")
    p.add_argument("--strict", action="store_true", help="exit 3 if the solver did not converge")
    p.add_argument("--out", default=None, help="output .lpk path")
    p.set_defaults(func=_cmd_recon)

    p = sub.add_parser("sms", help="superpose slices or separate a superposition")
    p.add_argument("action", choices=["superpose", "separate"], help="operation")
    p.add_argument("inputs", nargs="+", help="input .lpk paths")
    p.add_argument("--filters", default=None, help=".filters.json with per-slice separators")
    p.add_argument("--out", required=True, help="output .lpk path")
    p.set_defaults(func=_cmd_sms, parser=p)

    p = sub.add_parser("verify", help="check a sample-domain/spatial-domain energy identity")
    p.add_argument("--theorem", type=int, required=True, choices=[1, 2, 3], help="which identity to check")
    p.add_argument("--grid", type=int, default=None, help="grid size (default per theorem: 2^24, 1024, 16384)")
    p.add_argument("--fov", type=float, default=None, help="field of view B (default 1)")
    p.add_argument("--L", type=int, default=4, help="eigensequence tap extent (theorem 1)")
    p.add_argument("--P", type=int, default=4, help="eigensequence tap extent (theorem 1)")
    p.add_argument("--strict", action="store_true", help="exit 3 when the check fails or is inconclusive (tail/rhs >= 0.1)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bench", help="run a batch experiment from a JSON config")
    p.add_argument("config", help="experiment config JSON path")
    p.add_argument("--out", default=None, help="output directory for report.json/report.csv/PGMs")
    p.add_argument("--timing", action="store_true", help="record wall-clock times (non-deterministic)")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "verify" and args.grid is None:
            args.grid = _VERIFY_GRIDS[args.theorem]
        return args.func(args)
    except _UsageError as exc:
        exc.parser.print_usage(sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except _NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
