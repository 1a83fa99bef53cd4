"""One benchmark pass, run by run.py in a fresh interpreter.

Imports commdiff from the checkout's src/, builds the pass inputs from the
seed, runs and checks every case, and prints one JSON line: set-up time,
per-case outcome and wall time, peak RSS, the environment and, when traced,
the layer metrics.

    python3 benchmarks/passrun.py --workload verify --seed 1 --pass-index 0 --tmp DIR [--trace]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

import tracing
import workloads

CLI_TOL = 1e-9
CURVE_TOL = 1e-8
RANK2_TOL = 1e-7
NEWTON_TOL = 1e-8
LAME_CURVE_TOL = 1e-4
MIN_SLOPE = 0.8
# the reference loop: this many 113-bit mpf multiply-adds, then this many
# small-int steps.  Under contention from other tenants the mpf loop alone
# slows more than commdiff does and the int loop alone less; this mix slowed
# by the same factor as a curve extraction while host speed varied 2.7-fold.
REFERENCE_MPF_STEPS = 500
REFERENCE_INT_STEPS = 11250
REFERENCE_INTERVAL_S = 0.1
# samples taken just before and just after each case; a short case has no
# others, and one sample each side leaves its reference time noisy
REFERENCE_EDGE_SAMPLES = 2


def _digits(rel: float) -> float:
    return tracing.digits_lost(rel, workloads.PRECISION_BITS)


def reference_s() -> float:
    """Wall time of a fixed mix of mpf and int arithmetic: how fast the host
    runs this kind of code right now."""
    from mpmath import mp, mpf

    with mp.workprec(workloads.PRECISION_BITS):
        x, y, acc = mpf(1) / 3, mpf(2) / 7, mpf(0)
        t0 = time.perf_counter()
        for _ in range(REFERENCE_MPF_STEPS):
            acc = acc * x + y
        n = 0
        for i in range(REFERENCE_INT_STEPS):
            n = (n * 31 + i) % 1000003
        return time.perf_counter() - t0


class CaseTimer:
    """Times cases and samples the reference loop around and during each.

    Host speed on a shared machine drifts by tens of percent within
    seconds, so every case also records the median reference time seen
    while it ran.  With `sample_during`, an interval timer runs the
    reference every REFERENCE_INTERVAL_S inside the case, and the time
    those samples take is subtracted from the case's wall time.  Traced
    passes leave it off, so that no sample lands in a layer's span.
    """

    def __init__(self, sample_during: bool):
        self.sample_during = sample_during
        self.samples = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(reference_s())
        self.spent += time.perf_counter() - t0

    def case(self, name: str, fn) -> dict:
        """Time fn(); a raised exception or a failed check fails the case."""
        self.samples = [reference_s() for _ in range(REFERENCE_EDGE_SAMPLES)]
        self.spent = 0.0
        if self.sample_during:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, REFERENCE_INTERVAL_S, REFERENCE_INTERVAL_S)
        t0 = time.perf_counter()
        try:
            ok, error, rel, extra = fn()
        except Exception as err:  # the case fails; the pass goes on
            ok, error, rel, extra = False, f"{type(err).__name__}: {err}", None, {}
        finally:
            if self.sample_during:
                signal.setitimer(signal.ITIMER_REAL, 0)
            seconds = time.perf_counter() - t0 - self.spent
        self.samples += [reference_s() for _ in range(REFERENCE_EDGE_SAMPLES)]
        out = {"name": name, "seconds": seconds, "ref_s": statistics.median(self.samples),
               "ref_samples": len(self.samples), "ok": bool(ok), "error": error,
               "digits_lost": _digits(rel) if ok and rel is not None else None}
        out.update(extra)
        return out


# -- CLI workloads -----------------------------------------------------------


def cli_case(cli, case: dict, tmp: str):
    outdir = tempfile.mkdtemp(prefix="out-", dir=tmp)
    argv = case["argv"] + ["--out", outdir, "--rerun"]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    if code != 0:
        msg = stderr.getvalue().strip() or stdout.getvalue().strip()
        return False, f"exit {code}: {msg}", None, {}
    reports = list(Path(outdir).glob("verify-*.json"))
    if len(reports) != 1:
        return False, f"expected one report, found {len(reports)}", None, {}
    text = reports[0].read_text()
    ok, error, rel, wrong = check_verify_report(json.loads(text))
    extra = {"report_bytes": len(text.encode())}
    if wrong:
        extra["wrong"] = True
    return ok, error, rel, extra


def check_verify_report(doc: dict):
    """(ok, error, commutator residual, wrong) for one `verify` report.

    Every check failing fails the case, which then counts in fail_frac.
    The report is wrong, not merely failed, when it says pass while a check
    that the CLI's own pass rule includes fails: then the program's output
    contradicts itself.  A monic partner is not part of that rule (the
    report states it in partner_monic), so a non-monic partner fails the
    case without making the output wrong.
    """
    rep = doc["report"]
    rel = float(rep["commutator_residual_rel"])
    skew = rep.get("skew_residual_rel")
    implied_by_pass = [
        (doc["config"]["precision_bits"] == workloads.PRECISION_BITS, "precision not pinned"),
        (rel <= CLI_TOL, f"commutator residual {rel:.3e}"),
        (float(rep["master_residual_rel"]) <= CLI_TOL, "master residual"),
        (float(rep["linear_residual_rel"]) <= CLI_TOL, "linear residual"),
        (skew is None or float(skew) <= CLI_TOL, "skew residual"),
        (rep["commutator_window_covers"] is True, "commutator window"),
    ]
    stricter = [
        (doc["pass"] is True, "report says pass: false"),
        (rep["partner_monic"] is True, "partner not monic"),
    ]
    contradicted = [msg for good, msg in implied_by_pass if not good]
    bad = [msg for good, msg in stricter if not good] + contradicted
    wrong = doc["pass"] is True and bool(contradicted)
    return not bad, "; ".join(bad) or None, rel, wrong


def run_cli_workload(inputs, tmp, timer):
    from commdiff import cli

    return [timer.case(c["name"], lambda c=c: cli_case(cli, c, tmp)) for c in inputs]


# -- curve-lattice -------------------------------------------------------------


def build_pair(cd, spec: dict, window):
    """Operator pair (L2, partner, state) through the library pipeline."""
    from mpmath import mpf

    g = spec["g"]
    state_win, uw, gwin = workloads.pair_windows(g, window)
    params = {k: mpf(v) for k, v in spec["params"].items()}
    if spec["kind"] == "elliptic":
        gamma = cd.opalg.CoeffSeq(gwin[0], [mpf(v) for v in spec["gamma"]])
        _U, _W, partner = cd.families.elliptic_family(
            params["c2"], params["c1"], params["c0"], gamma)
        curve = cd.numcore.HyperellipticCurve(1, (params["c0"], params["c1"], params["c2"]))
        state = cd.dressing.elliptic_dressing_state(curve, gamma, window=state_win)
        return state.l2(), partner, state
    fspec = cd.families.FamilySpec(spec["kind"], g, params)
    U, W = cd.families.family_from_spec(fspec, uw)
    result = cd.dressing.ansatz_solve(cd.families.basis_for(fspec), U, W)
    state = result.state(U, W, state_win)
    L2 = state.l2()
    return L2, cd.dressing.build_partner_op(state, L2), state


def extract_case(cd, pair):
    if isinstance(pair, str):
        return False, f"pair not built: {pair}", None, {}
    L2, partner, state = pair
    rep = cd.spectral.extract_curve(L2, partner, n0_list=(-1, 0, 1))
    if rep.matched_curve is None:
        return False, "no curve matched", None, {}
    scale = max(float(rep.det_poly.sup_norm()), 1.0)
    cscale = max([1.0] + [abs(float(c)) for c in state.curve.c])
    dev = max(abs(float(a - b)) for a, b in zip(rep.matched_curve.c, state.curve.c))
    trace = float(rep.trace_poly.sup_norm())
    base = float(rep.base_independence_residual)
    checks = [
        (trace <= CURVE_TOL * scale, f"trace {trace:.3e}"),
        (base <= CURVE_TOL * scale, f"base independence {base:.3e}"),
        (dev <= CURVE_TOL * cscale, f"curve deviation {dev:.3e}"),
    ]
    bad = [msg for good, msg in checks if not good]
    return not bad, "; ".join(bad) or None, max(trace / scale, base / scale, dev / cscale), {}


def rank2_case(cd):
    rep = cd.rank2.verify_rank2()
    mism = float(rep["curve_mismatch_rel"])
    ok = rep["commutation_pass"] and rep["curve_pass"] and mism <= RANK2_TOL
    return ok, None if ok else f"rank-2 mismatch {mism:.3e}", mism, {}


def slope_case(cd, ctx, g, x0):
    slope, _errs = cd.lame.continuum_slope(ctx, g, x=x0)
    ok = float(slope) >= MIN_SLOPE
    return ok, None if ok else f"slope {float(slope):.3f}", None, {}


def independence_case(cd, ctx, eps_list, x0):
    rep = cd.lame.lame_curve_independence(ctx, eps_list, x0)
    newton = max(float(e["newton_residual"]) for e in rep.entries)
    dev = float(rep.curve_deviation)
    ok = newton <= NEWTON_TOL and dev <= LAME_CURVE_TOL
    return ok, None if ok else f"newton {newton:.3e}, curve deviation {dev:.3e}", None, {}


def setup_curve_lattice(cd, inputs):
    from mpmath import mpf

    pairs = []
    for spec in inputs["pairs"]:
        try:
            pair = build_pair(cd, spec, inputs["window"])
        except Exception as err:  # reported by the pair's extraction case
            pair = f"{type(err).__name__}: {err}"
        pairs.append((f"extract-{spec['kind']}-g{spec['g']}", pair))
    lam = inputs["lame"]
    ctx = cd.lame.WeierstrassContext(mpf(lam["g2"]), mpf(lam["g3"]))
    return pairs, ctx, mpf(lam["x0"]), [mpf(e) for e in lam["eps"]]


def run_curve_lattice(cd, inputs, prepared, timer):
    pairs, ctx, x0, eps_list = prepared
    results = [timer.case(name, lambda p=pair: extract_case(cd, p)) for name, pair in pairs]
    results.append(timer.case("rank2", lambda: rank2_case(cd)))
    for g in inputs["lame"]["slope_genera"]:
        results.append(timer.case(f"slope-g{g}", lambda g=g: slope_case(cd, ctx, g, x0)))
    results.append(timer.case("independence",
                              lambda: independence_case(cd, ctx, eps_list, x0)))
    return results


# -- entry point -------------------------------------------------------------------


def environment(cd) -> dict:
    import mpmath

    return {
        "python": sys.version.split()[0],
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "precision_bits": cd.numcore.get_precision(),
        "commdiff_file": cd.__file__,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass-index", type=int, default=0)
    ap.add_argument("--tmp", required=True, help="directory for this pass's CLI reports")
    ap.add_argument("--trace", action="store_true", help="wrap the layer functions")
    args = ap.parse_args(argv)
    if "COMMDIFF_PRECISION_BITS" in os.environ:
        print("COMMDIFF_PRECISION_BITS must not be set for a benchmark pass", file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    import commdiff
    import commdiff.cli  # noqa: F401  (loads every module before wrapping)

    commdiff.numcore.set_precision(workloads.PRECISION_BITS)
    tracer = tracing.install(workloads.PRECISION_BITS) if args.trace else None
    inputs = workloads.make_inputs(args.workload, args.seed, args.pass_index)
    prepared = setup_curve_lattice(commdiff, inputs) if args.workload == "curve-lattice" else None
    setup_s = time.perf_counter() - t0

    timer = CaseTimer(sample_during=tracer is None)
    if args.workload == "curve-lattice":
        cases = run_curve_lattice(commdiff, inputs, prepared, timer)
    else:
        cases = run_cli_workload(inputs, args.tmp, timer)

    doc = {
        "setup_s": setup_s,
        "cases": cases,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "env": environment(commdiff),
    }
    if tracer is not None:
        layers = tracer.metrics()
        layers["cli.report_bytes"] = sum(c.get("report_bytes", 0) for c in cases)
        doc["layers"] = layers
        doc["error_types"] = {k: v for k, v in tracer.errors.items() if v}
        doc["missing_targets"] = tracer.missing
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
