"""Command-line front end: verification campaigns per family, curve
extraction, partner construction, lattice sweeps, and JSON reports.

Exit codes: 0 all checks passed, 1 a check failed, 2 usage or domain error.
Reports are deterministic (decimal serialization pinned to the working
precision, sorted keys, no timestamps) and are written to files named by a
content hash of the configuration; an existing report is left in place
unless --rerun is given.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from mpmath import mpf

from . import __version__
from .errors import CommdiffError
from .numcore import (
    default_precision_bits,
    get_precision,
    mpf_to_str,
    scalar,
    set_precision,
)
from .opalg import commutator_scale, op_commutator, op_to_json
from . import dressing
from .families import FamilySpec, build_case
from .spectral import extract_curve
from .lame import (
    WeierstrassContext,
    continuum_slope,
    lame_curve_independence,
    select_a2_interpretation,
)
from .rank2 import verify_rank2

DEFAULT_TOLERANCE = "1e-9"
DEFAULT_WINDOW = (-24, 24)


def _family_from_args(args) -> FamilySpec:
    kind = args.family
    params = {}
    if kind == "trig":
        if args.r1 is None:
            raise CommdiffError("trig family needs --r1")
        params["r1"] = scalar(args.r1)
    elif kind == "poly":
        if args.a2 is None:
            raise CommdiffError("poly family needs --a2")
        params["a2"] = scalar(args.a2)
        params["a0"] = scalar(args.a0 if args.a0 is not None else 0)
        params["a1"] = scalar(args.a1 if args.a1 is not None else 0)
        if params["a2"] == 0:
            raise CommdiffError("poly family needs a2 != 0")
    elif kind == "geom":
        if args.a is None or args.beta is None:
            raise CommdiffError("geom family needs --a and --beta")
        params["a"] = scalar(args.a)
        params["beta"] = scalar(args.beta)
    elif kind == "elliptic":
        params["c2"] = scalar(args.c2 if args.c2 is not None else 0)
        params["c1"] = scalar(args.c1 if args.c1 is not None else -1)
        params["c0"] = scalar(args.c0 if args.c0 is not None else 0)
        if args.g != 1:
            raise CommdiffError("elliptic family supports genus 1 only")
    else:
        raise CommdiffError(f"unknown family {kind!r}")
    return FamilySpec(kind, args.g, params)


def _config_doc(args, command) -> dict:
    doc = {
        "command": command,
        "version": __version__,
        # resolved value, so the content hash tracks the effective precision
        "precision_bits": get_precision(),
        "tolerance": args.tolerance,
        "window": list(args.window),
        "z_interval": list(args.z_interval),
    }
    if getattr(args, "family", None):
        doc["family"] = {
            "kind": args.family,
            "g": args.g,
            "params": {
                k: mpf_to_str(v) for k, v in sorted(_family_from_args(args).params.items())
            },
        }
        if args.family == "elliptic":
            doc["seed"] = args.seed
    if command == "lame":
        doc["lame"] = {
            "g2": args.g2,
            "g3": args.g3,
            "eps": args.eps,
            "x0": args.x0,
            "g_list": args.g_list,
            "a2_interpretation": args.a2_interpretation,
        }
    return doc


def _report_path(outdir: Path, command: str, config: dict) -> Path:
    blob = json.dumps(config, sort_keys=True).encode()
    digest = hashlib.sha256(blob).hexdigest()[:12]
    return outdir / f"{command}-{digest}.json"


def _emit(args, command, config, payload, passed) -> int:
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    path = _report_path(outdir, command, config)
    doc = {"config": config, "report": payload, "pass": bool(passed)}
    text = json.dumps(doc, sort_keys=True, indent=1)
    if path.exists() and not args.rerun:
        print(f"report exists (use --rerun to overwrite): {path}")
    else:
        path.write_text(text + "\n")
        print(f"wrote {path}")
    print(f"pass: {bool(passed)}")
    return 0 if passed else 1


def cmd_verify(args) -> int:
    tol = scalar(args.tolerance)
    spec = _family_from_args(args)
    config = _config_doc(args, "verify")
    L2, partner, state, extras = build_case(spec, args.window, args.seed)
    lo, hi = args.window

    master_rel = mpf(0)
    linear_rel = mpf(0)
    s_lo, s_hi = state.window
    for n in range(max(lo, s_lo + 1), min(hi, s_hi - 1) + 1):
        master_rel = max(
            master_rel, dressing.verify_master(state, n) / dressing.master_scale(state, n)
        )
    for n in range(max(lo, s_lo + 1), min(hi, s_hi - 2) + 1):
        linear_rel = max(
            linear_rel,
            dressing.residual_linear(state, n).sup_norm() / dressing.linear_scale(state, n),
        )
    comm = op_commutator(L2, partner)
    comm_rel = comm.sup_norm() / commutator_scale(L2, partner)
    clo, chi_ = comm.window
    window_ok = clo <= lo and chi_ >= hi

    skew_rel = None
    even = spec.kind == "trig" or (spec.kind == "poly" and spec.params.get("a1", mpf(0)) == 0)
    if even:
        skew_rel = mpf(0)
        reach = min(hi, s_hi - 2, -(s_lo + 2))
        for n in range(0, reach + 1):
            r = dressing.residual_linear(state, n) + dressing.residual_linear(state, -n - 1)
            skew_rel = max(skew_rel, r.sup_norm() / dressing.linear_scale(state, n))

    checks = {
        "master_residual_rel": mpf_to_str(master_rel),
        "linear_residual_rel": mpf_to_str(linear_rel),
        "commutator_residual_rel": mpf_to_str(comm_rel),
        "commutator_window_covers": window_ok,
        "partner_order": partner.order,
        "partner_monic": partner.is_monic(),
        "curve": [mpf_to_str(c) for c in state.curve.c],
    }
    if skew_rel is not None:
        checks["skew_residual_rel"] = mpf_to_str(skew_rel)
    checks.update(extras)
    passed = (
        master_rel <= tol
        and linear_rel <= tol
        and comm_rel <= tol
        and window_ok
        and (skew_rel is None or skew_rel <= tol)
    )
    return _emit(args, "verify", config, checks, passed)


def cmd_curve(args) -> int:
    tol = scalar(args.tolerance)
    curve_tol = mpf("1e-8")
    spec = _family_from_args(args)
    config = _config_doc(args, "curve")
    L2, partner, state, extras = build_case(spec, args.window, args.seed)
    report = extract_curve(
        L2,
        partner,
        n0_list=(-1, 0, 1),
        z_interval=tuple(args.z_interval),
        commutation_tol=curve_tol,
    )
    matched = report.matched_curve
    dev = None
    if matched is not None:
        dev = max(abs(a - b) for a, b in zip(matched.c, state.curve.c))
    payload = {
        "spectral": json.loads(report.to_json()),
        "dressing_curve": [mpf_to_str(c) for c in state.curve.c],
        "curve_agreement_abs": mpf_to_str(dev) if dev is not None else None,
    }
    payload.update(extras)
    scale = max(report.det_poly.sup_norm(), mpf(1))
    passed = (
        matched is not None
        and report.trace_poly.sup_norm() <= curve_tol * scale
        and report.base_independence_residual <= curve_tol * scale
        and dev is not None
        and dev <= curve_tol * max(mpf(1), max(abs(c) for c in state.curve.c))
    )
    return _emit(args, "curve", config, payload, passed)


def cmd_partner(args) -> int:
    tol = scalar(args.tolerance)
    spec = _family_from_args(args)
    config = _config_doc(args, "partner")
    L2, partner, state, extras = build_case(spec, args.window, args.seed)
    comm_rel = op_commutator(L2, partner).sup_norm() / commutator_scale(L2, partner)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    op_path = _report_path(outdir, "partner-op", config)
    op_path.write_text(op_to_json(partner) + "\n")
    payload = {
        "operator_file": str(op_path),
        "order": partner.order,
        "monic": partner.is_monic(),
        "commutator_residual_rel": mpf_to_str(comm_rel),
        "state": json.loads(state.to_json()),
    }
    payload.update(extras)
    return _emit(args, "partner", config, payload, comm_rel <= tol)


def cmd_lame(args) -> int:
    if getattr(args, "g", None):
        args.g_list = [args.g]
    args.eps = [tok for item in args.eps for tok in str(item).split(",") if tok]
    config = _config_doc(args, "lame")
    ctx = WeierstrassContext(scalar(args.g2), scalar(args.g3))
    x0 = scalar(args.x0)
    interp = args.a2_interpretation
    if interp == "auto":
        interp = select_a2_interpretation(ctx)
    slopes = {}
    ok = True
    for g in args.g_list:
        slope, errs = continuum_slope(ctx, g, a2_interpretation=interp, x=x0)
        slopes[str(g)] = {
            "slope": mpf_to_str(slope),
            "defects": [mpf_to_str(e) for e in errs],
        }
        ok = ok and slope >= mpf("0.8")
    payload = {
        "omega1": mpf_to_str(ctx.omega1),
        "a2_interpretation": interp,
        "continuum": slopes,
    }
    eps_list = [scalar(e) for e in args.eps]
    if len(eps_list) >= 2:
        rep = lame_curve_independence(ctx, eps_list, x0)
        payload["independence"] = json.loads(rep.to_json())
        ok = ok and rep.curve_deviation <= mpf("1e-4")
        ok = ok and all(e["newton_residual"] <= mpf("1e-8") for e in rep.entries)
    return _emit(args, "lame", config, payload, ok)


def cmd_rank2(args) -> int:
    config = _config_doc(args, "rank2")
    report = verify_rank2()
    passed = report["commutation_pass"] and report["curve_pass"]
    return _emit(args, "rank2", config, report, passed)


def _add_common(p):
    # defaults resolve after the config file merge: flags > config > built-ins
    p.add_argument("--precision", type=int, default=None, help="significand bits (>= 53)")
    p.add_argument("--tolerance", type=str, default=None)
    p.add_argument("--window", type=int, nargs=2, default=None,
                   metavar=("N_MIN", "N_MAX"))
    p.add_argument("--z-interval", dest="z_interval", type=float, nargs=2,
                   default=None, metavar=("Z_LO", "Z_HI"))
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--rerun", action="store_true", help="overwrite an existing report")
    p.add_argument("--config", type=str, default=None,
                   help="JSON file with defaults for any of the above")


def _add_family(p):
    p.add_argument("--family", required=True, choices=("trig", "poly", "geom", "elliptic"))
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--r1", type=str, default=None)
    p.add_argument("--a2", type=str, default=None)
    p.add_argument("--a1", type=str, default=None)
    p.add_argument("--a0", type=str, default=None)
    p.add_argument("--a", type=str, default=None)
    p.add_argument("--beta", type=str, default=None)
    p.add_argument("--c2", type=str, default=None)
    p.add_argument("--c1", type=str, default=None)
    p.add_argument("--c0", type=str, default=None)
    p.add_argument("--seed", type=int, default=1234,
                   help="seeds the elliptic family's random gamma_n")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="commdiff",
        description="verify and analyze positive one-point commuting difference operators",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the identity and commutation checks for a family")
    _add_family(p)
    _add_common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("curve", help="extract the spectral curve via action matrices")
    _add_family(p)
    _add_common(p)
    p.set_defaults(fn=cmd_curve)

    p = sub.add_parser("partner", help="construct and save the commuting partner operator")
    _add_family(p)
    _add_common(p)
    p.set_defaults(fn=cmd_partner)

    p = sub.add_parser("lame", help="lattice operator continuum and curve-stability checks")
    p.add_argument("--g2", type=str, default="4")
    p.add_argument("--g3", type=str, default="0")
    p.add_argument("--eps", type=str, nargs="*", default=["0.1", "0.05"],
                   help="step sizes; space- or comma-separated")
    p.add_argument("--x0", type=str, default="0.73")
    p.add_argument("--g", type=int, default=None,
                   help="single genus (shorthand for --g-list G)")
    p.add_argument("--g-list", dest="g_list", type=int, nargs="*", default=[1, 2, 3])
    p.add_argument("--a2-interpretation", dest="a2_interpretation",
                   choices=("auto", "full", "split"), default="auto")
    _add_common(p)
    p.set_defaults(fn=cmd_lame)

    p = sub.add_parser("rank2", help="verify the explicit order-(4,6) pair")
    _add_common(p)
    p.set_defaults(fn=cmd_rank2)
    return ap


def _apply_config_file(args):
    if getattr(args, "config", None):
        doc = json.loads(Path(args.config).read_text())
        for key, val in doc.items():
            attr = key.replace("-", "_")
            if hasattr(args, attr) and getattr(args, attr) is None:
                setattr(args, attr, val)
    if args.tolerance is None:
        args.tolerance = DEFAULT_TOLERANCE
    if args.window is None:
        args.window = list(DEFAULT_WINDOW)
    if args.z_interval is None:
        args.z_interval = [-4.0, 4.0]
    if args.out is None:
        args.out = "reports"


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        _apply_config_file(args)
        set_precision(args.precision if args.precision else default_precision_bits())
        if scalar(args.tolerance) <= 0:
            raise CommdiffError("tolerance must be positive")
        if args.window[1] < args.window[0]:
            raise CommdiffError("empty window")
        return args.fn(args)
    except CommdiffError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
