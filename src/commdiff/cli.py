"""Command-line front end: verification campaigns per family, curve
extraction, partner construction, lattice sweeps, and JSON reports.

Exit codes: 0 all checks passed, 1 a check failed, 2 usage or domain error.
Reports are deterministic (the library's doc() values encoded by
numcore.to_json at the working precision, sorted keys, no timestamps) and
are written to files named by a content hash of the configuration, the
parsed value of each option the command reads; an existing report is left
in place unless --rerun is given.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from mpmath import mp

from . import __version__
from .errors import CommdiffError
from .numcore import (
    DEFAULT_PRECISION_BITS,
    check_precision,
    get_precision,
    scalar,
    to_json,
)
from .opalg import commutator_residual, op_to_json
from . import dressing
from .families import FAMILY_PARAMS, FamilySpec, build_case
from .spectral import extract_curve
from .lame import (
    MIN_SLOPE,
    WeierstrassContext,
    continuum_slope,
    lame_curve_independence,
)
from .rank2 import verify_rank2


# every family's parameter flags, each once, in FAMILY_PARAMS order
PARAM_FLAGS = tuple(dict.fromkeys(k for params in FAMILY_PARAMS.values() for k in params))


def _family_from_args(args) -> FamilySpec:
    """Every family flag that is set, --seed too; FamilySpec supplies the
    defaults and names a missing required one and any the family does not
    read."""
    params = {k: getattr(args, k) for k in PARAM_FLAGS if getattr(args, k) is not None}
    return FamilySpec(args.family, args.g, params, args.seed)


def _config_doc(args, command, spec=None) -> dict:
    """The parsed value of each option the command reads, so that one run
    has one content hash however its decimals were spelled."""
    doc = {
        "command": command,
        "version": __version__,
        # resolved value, so the content hash tracks the effective precision
        "precision_bits": get_precision(),
    }
    doc.update((k, v) for k, v in vars(args).items() if k in ("tolerance", "window"))
    if spec is not None:
        doc["family"] = spec.doc()
        if spec.seed is not None:
            doc["seed"] = spec.seed
    if command == "lame":
        doc["lame"] = {
            "g2": args.g2,
            "g3": args.g3,
            "eps": args.eps,
            "x0": args.x0,
            "g_list": args.g_list,
        }
    return doc


def _report_path(outdir: Path, command: str, config: dict) -> Path:
    blob = to_json(config).encode()
    digest = hashlib.sha256(blob).hexdigest()[:12]
    return outdir / f"{command}-{digest}.json"


def _emit(args, command, config, payload, passed) -> int:
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    path = _report_path(outdir, command, config)
    doc = {"config": config, "report": payload, "pass": bool(passed)}
    text = to_json(doc, indent=1)
    if path.exists() and not args.rerun:
        print(f"report exists (use --rerun to overwrite): {path}")
    else:
        path.write_text(text + "\n")
        print(f"wrote {path}")
    print(f"pass: {bool(passed)}")
    return 0 if passed else 1


def cmd_verify(args) -> int:
    tol = args.tolerance
    spec = _family_from_args(args)
    config = _config_doc(args, "verify", spec)
    L2, partner, state, extras = build_case(spec, args.window)
    lo, hi = args.window

    master_rel, linear_rel, skew_rel = dressing.identity_residuals(
        state, (lo, hi), skew=spec.even
    )
    comm, comm_rel = commutator_residual(L2, partner)
    clo, chi_ = comm.window
    window_ok = clo <= lo and chi_ >= hi
    monic = partner.is_monic()

    checks = {
        "master_residual_rel": master_rel,
        "linear_residual_rel": linear_rel,
        "commutator_residual_rel": comm_rel,
        "commutator_window_covers": window_ok,
        "partner_order": partner.order,
        "partner_monic": monic,
        "curve": state.curve.c,
    }
    if skew_rel is not None:
        checks["skew_residual_rel"] = skew_rel
    checks.update(extras)
    passed = (
        master_rel <= tol
        and linear_rel <= tol
        and comm_rel <= tol
        and window_ok
        and monic
        and (skew_rel is None or skew_rel <= tol)
    )
    return _emit(args, "verify", config, checks, passed)


def cmd_curve(args) -> int:
    spec = _family_from_args(args)
    config = _config_doc(args, "curve", spec)
    L2, partner, state, extras = build_case(spec, args.window)
    report = extract_curve(L2, partner)
    payload = {
        "spectral": report.doc(),
        "dressing_curve": state.curve.c,
        "curve_agreement_abs": report.agreement(state.curve.c),
    }
    payload.update(extras)
    return _emit(args, "curve", config, payload, report.passes(state.curve.c))


def cmd_partner(args) -> int:
    spec = _family_from_args(args)
    config = _config_doc(args, "partner", spec)
    L2, partner, state, extras = build_case(spec, args.window)
    _, comm_rel = commutator_residual(L2, partner)
    monic = partner.is_monic()
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    op_path = _report_path(outdir, "partner-op", config)
    op_path.write_text(op_to_json(partner) + "\n")
    payload = {
        "operator_file": str(op_path),
        "order": partner.order,
        "monic": monic,
        "commutator_residual_rel": comm_rel,
        "state": state.doc(),
    }
    payload.update(extras)
    return _emit(args, "partner", config, payload, comm_rel <= args.tolerance and monic)


def cmd_lame(args) -> int:
    if not args.g_list and len(args.eps) < 2:
        raise CommdiffError("nothing to check: give --g-list a genus or --eps two steps")
    if len(set(args.eps)) < len(args.eps):
        raise CommdiffError("--eps steps must be distinct")
    config = _config_doc(args, "lame")
    ctx = WeierstrassContext(args.g2, args.g3)
    slopes = {}
    ok = True
    for g in args.g_list:
        slope, errs = continuum_slope(ctx, g, x=args.x0)
        slopes[str(g)] = {"slope": slope, "defects": errs}
        ok = ok and slope >= MIN_SLOPE
    payload = {
        "omega1": ctx.omega1,
        "continuum": slopes,
    }
    if len(args.eps) >= 2:
        rep = lame_curve_independence(ctx, args.eps, args.x0)
        payload["independence"] = rep.doc()
        ok = ok and rep.passes()
    return _emit(args, "lame", config, payload, ok)


def cmd_rank2(args) -> int:
    config = _config_doc(args, "rank2")
    report = verify_rank2()
    passed = report["commutation_pass"] and report["curve_pass"]
    return _emit(args, "rank2", config, report, passed)


def _add_common(p):
    p.add_argument("--precision", type=int, default=DEFAULT_PRECISION_BITS,
                   help="significand bits (>= 53)")
    p.add_argument("--out", type=str, default="reports")
    p.add_argument("--rerun", action="store_true", help="overwrite an existing report")
    p.add_argument("--config", type=str, default=None,
                   help="JSON file with defaults for any of the above")


def _add_family(p):
    # required, but a --config file may supply them: main checks after the merge
    p.add_argument("--family", choices=tuple(FAMILY_PARAMS))
    p.add_argument("--g", type=int)
    for name in PARAM_FLAGS:
        p.add_argument(f"--{name}", type=str, default=None)
    p.add_argument("--seed", type=int, default=None,
                   help="seeds the elliptic family's random gamma_n (default 1234)")
    p.add_argument("--window", type=int, nargs=2, default=(-24, 24),
                   metavar=("N_MIN", "N_MAX"))


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="commdiff",
        description="verify and analyze positive one-point commuting difference operators",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    for name, fn, text in (
        ("verify", cmd_verify, "run the identity and commutation checks for a family"),
        ("curve", cmd_curve, "extract the spectral curve via action matrices"),
        ("partner", cmd_partner, "construct and save the commuting partner operator"),
    ):
        p = sub.add_parser(name, help=text)
        _add_family(p)
        if fn is not cmd_curve:  # the curve verdict reads no residual bound
            p.add_argument("--tolerance", type=str, default="1e-9")
        _add_common(p)
        p.set_defaults(fn=fn)

    p = sub.add_parser("lame", help="lattice operator continuum and curve-stability checks")
    p.add_argument("--g2", type=str, default="4")
    p.add_argument("--g3", type=str, default="0")
    p.add_argument("--eps", type=str, nargs="*", default=("0.1", "0.05"),
                   help="step sizes, space-separated")
    p.add_argument("--x0", type=str, default="0.73")
    p.add_argument("--g-list", dest="g_list", type=int, nargs="*", default=(1, 2, 3))
    _add_common(p)
    p.set_defaults(fn=cmd_lame)

    p = sub.add_parser("rank2", help="verify the explicit order-(4,6) pair")
    _add_common(p)
    p.set_defaults(fn=cmd_rank2)
    return ap


def _config_argv(args) -> list:
    """The flags that the --config file of a parsed command stands for.

    Each key names an option of the command ("g-list" or "g_list" for
    --g-list); a list value gives a multi-value option its arguments, true
    is a bare flag and false none.  A key that names no option is a usage
    error."""
    doc = json.loads(Path(args.config).read_text())
    if not isinstance(doc, dict):
        raise CommdiffError("a --config file holds one JSON object")
    argv = []
    for key, val in doc.items():
        attr = key.replace("-", "_")
        # command, fn and config are namespace entries, not options
        if attr in ("command", "fn", "config") or attr not in vars(args):
            raise CommdiffError(f"unknown config key {key!r} for {args.command}")
        flag = "--" + attr.replace("_", "-")
        if isinstance(val, list):
            argv += [flag, *map(str, val)]
        elif val is True:
            argv.append(flag)
        elif val is not False:
            argv.append(f"{flag}={val}")
    return argv


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.config is not None:
            # the file's flags go first, so a command-line flag beats them
            args = ap.parse_args(argv[:1] + _config_argv(args) + argv[1:])
        opts = vars(args)
        # lame and rank2 have neither option
        missing = [f"--{k}" for k in ("family", "g") if k in opts and opts[k] is None]
        if missing:
            raise CommdiffError(f"the following arguments are required: {', '.join(missing)}")
        with mp.workprec(check_precision(args.precision)):
            # a decimal's value depends on --precision, so argparse keeps the text
            for key in ("tolerance", "g2", "g3", "x0", "eps"):
                if key in opts:
                    opts[key] = [*map(scalar, opts[key])] if key == "eps" else scalar(opts[key])
            if "tolerance" in opts and args.tolerance <= 0:
                raise CommdiffError("tolerance must be positive")
            if "window" in opts and args.window[1] < args.window[0]:
                raise CommdiffError("empty window")
            return args.fn(args)
    except (CommdiffError, ValueError, OSError) as err:
        # OSError: an unreadable --config file or an unwritable --out
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
