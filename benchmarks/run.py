"""commdiff benchmark: one workload, closed loop, one pass per fresh interpreter.

    python3 benchmarks/run.py --workload verify --seed 1 --seconds 25 --trace 0

Runs passes of the workload one after another, each in a new interpreter
(benchmarks/passrun.py) importing commdiff from the checkout's src/: as
many passes as took about --seconds when this benchmark was added.  Every
case's output is checked.  Prints a full report (all metrics with units and
sample counts, the environment, failed cases) and, as the last line, the
JSON summary whose metrics are the end_to_end list of BENCHMARK.json
(--trace 0) or its per_layer list (--trace 1).  The gated case timings are
in reference-loop units ("ref", see passrun.CaseTimer), and setup_s is
set-up time at a fixed nominal host speed; plain wall-time versions sit
beside them in the full report.  --trace 1 alternates untraced
and traced passes on the same inputs, which gives the tracing overhead.

Exit codes: 0 the run completed (failed cases are counted, not fatal),
2 the checkout or the environment is unusable, 3 the traced self-check
found a layer with no calls on a workload it dominates.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

# Typical wall time of one pass, interpreter start to exit, when this
# benchmark was added (2-core x86 VM).  A run makes round(--seconds /
# nominal) passes, so the number of samples behind each statistic is set by
# --seconds alone and stays the same when the program gets faster.
NOMINAL_PASS_S = {"verify": 3.5, "odd-ext": 10.0, "curve-lattice": 1.8}
# enough passes for the tail rule on the workload with fewest cases
MIN_PASSES = 3
# an untraced plus a traced pass, in nominal passes
TRACED_PAIR_COST = 2.2
# median time of passrun.reference_s() on the host where this benchmark was
# added; setup_s is set-up time in reference units times this
NOMINAL_REFERENCE_S = 0.0027
RUN_DEADLINE_S = 170.0
TMP_DIRNAME = ".bench_tmp"


def fail(msg: str, code: int = 2):
    print(f"benchmark: {msg}", file=sys.stderr)
    sys.exit(code)


def child_env(tmp: Path) -> dict:
    env = dict(os.environ)
    env.pop("COMMDIFF_PRECISION_BITS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(tmp)
    return env


def src_line_count() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))


def run_pass(workload, seed, index, tmp, env, deadline, *flags):
    cmd = [sys.executable, str(HERE / "passrun.py"), "--workload", workload,
           "--seed", str(seed), "--pass-index", str(index), "--tmp", str(tmp), *flags]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_DEADLINE_S:.0f} s")
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        fail(f"pass exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    doc["wall_s"] = wall
    return doc


def check_env(env_doc: dict) -> None:
    src = (ROOT / "src" / "commdiff").resolve()
    if Path(env_doc["commdiff_file"]).resolve().parent != src:
        fail(f"commdiff imported from {env_doc['commdiff_file']}, not from {src}")
    if env_doc["precision_bits"] != workloads.PRECISION_BITS:
        fail(f"working precision is {env_doc['precision_bits']} bits, "
             f"not {workloads.PRECISION_BITS}")


def tail(values, beyond: int = 10):
    """Value at the highest percentile with at least `beyond` samples above it.

    Sorted ascending, the sample of rank r (1-based) has n - r samples beyond
    it, so the answer is rank n - beyond at percentile 100 (n - beyond) / n.
    Returns (value, percentile, n), or None with too few samples.
    """
    xs = sorted(values)
    n = len(xs)
    rank = n - beyond
    if rank < 1:
        return None
    return xs[rank - 1], 100.0 * rank / n, n


def wall_time(case: dict) -> float:
    return case["seconds"]


def ref_time(case: dict) -> float:
    """Case wall time in units of the reference loop timed around it
    (passrun.CaseTimer), which cancels most drift in host speed."""
    return case["seconds"] / case["ref_s"]


def setup_time(p: dict) -> float:
    """A pass's set-up time at nominal host speed: its wall time divided by
    the pass's median reference time, sampled throughout its cases, times
    NOMINAL_REFERENCE_S."""
    return p["setup_s"] / statistics.median(c["ref_s"] for c in p["cases"]) * NOMINAL_REFERENCE_S


def campaign(passes: list, time_of) -> float:
    """Mean over passes of the pass's total case time."""
    return statistics.mean(sum(time_of(c) for c in p["cases"]) for p in passes)


def per_case(passes: list) -> dict:
    """Median times and outcomes of each case over the run's passes."""
    by_case = {}
    for c in (c for p in passes for c in p["cases"]):
        by_case.setdefault(c["name"], []).append(c)
    return {name: {"median_s": statistics.median(map(wall_time, cs)),
                   "median_ref": statistics.median(map(ref_time, cs)),
                   "passed": sum(c["ok"] for c in cs), "runs": len(cs)}
            for name, cs in by_case.items()}


def end_to_end(passes: list) -> dict:
    """The user-visible metrics of a set of untraced passes, each with its
    unit and sample count.  The *_ref timings are in reference-loop units,
    setup_s is at nominal host speed (setup_time), the other *_s timings are
    plain wall time."""
    cases = [c for p in passes for c in p["cases"]]
    ok = [c for c in cases if c["ok"]]
    wall = sum(p["wall_s"] for p in passes)
    digits = [c["digits_lost"] for c in ok if c["digits_lost"] is not None]

    def metric(value, unit, samples, **more):
        return dict(value=value, unit=unit, samples=samples, **more)

    def p50(time_of, unit):
        values = [time_of(c) for c in ok]
        return metric(statistics.median(values) if values else None, unit, len(values))

    def tail_metric(time_of, unit):
        values = [time_of(c) for c in ok]
        t = tail(values)
        if t is None:
            return metric(None, unit, len(values))
        return metric(t[0], unit, t[2], percentile=t[1])

    return {
        "setup_s": metric(statistics.median(map(setup_time, passes)), "s", len(passes)),
        "setup_wall_s": metric(statistics.median(p["setup_s"] for p in passes), "s",
                               len(passes)),
        "pass_s": metric(statistics.median(p["wall_s"] for p in passes), "s", len(passes)),
        "campaign_s": metric(campaign(passes, wall_time), "s", len(passes)),
        "campaign_ref": metric(campaign(passes, ref_time), "ref", len(passes)),
        "case_s.p50": p50(wall_time, "s"),
        "case_s.tail": tail_metric(wall_time, "s"),
        "case_ref.p50": p50(ref_time, "ref"),
        "case_ref.tail": tail_metric(ref_time, "ref"),
        "ref_s": metric(statistics.median(c["ref_s"] for c in cases), "s", len(cases)),
        "verified_per_min": metric(len(ok) / (wall / 60), "1/min", len(passes)),
        "fail_frac": metric((len(cases) - len(ok)) / len(cases), "ratio", len(cases)),
        "digits_lost_max": metric(max(digits) if digits else None, "digits", len(digits)),
        "peak_rss_mb": metric(statistics.median(p["peak_rss_mb"] for p in passes), "MB",
                              len(passes)),
    }


def per_layer(traced: list, untraced: list, workload: str):
    layers = {}
    for key in traced[0]["layers"]:
        layers[key] = statistics.median(p["layers"][key] for p in traced)
    # traced minus untraced case time per pass, compared in reference units
    # so that host drift between the two kinds of pass cancels, then put
    # back into seconds at the run's median reference time
    extra_ref = campaign(traced, ref_time) - campaign(untraced, ref_time)
    ref_s = statistics.median(c["ref_s"] for p in traced + untraced for c in p["cases"])
    layers["trace.overhead_s"] = extra_ref * ref_s
    layers["trace.overhead_frac"] = extra_ref / campaign(untraced, ref_time)
    missing = sorted({m for p in traced for m in p["missing_targets"]})
    # a span whose function is gone from the package cannot record calls
    silent = [name for name, where in tracing.DOMINATES.items()
              if workload in where and layers[f"{name}.calls"] == 0
              and not any(f"{mod}.{path}" in missing for mod, path in tracing.SPANS[name])]
    errors = {}
    for p in traced:
        for layer, kinds in p["error_types"].items():
            for kind, count in kinds.items():
                errors.setdefault(layer, {}).setdefault(kind, 0)
                errors[layer][kind] += count
    return layers, {"missing_targets": missing, "silent_spans": silent,
                    "error_types": errors}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="commdiff benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--report", help="also write the full report to this JSON file")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "commdiff" / "__init__.py").is_file():
        fail(f"no commdiff package under {ROOT / 'src'}")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    deadline = time.monotonic() + RUN_DEADLINE_S
    nominal = NOMINAL_PASS_S[args.workload]
    (ROOT / TMP_DIRNAME).mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / TMP_DIRNAME))
    try:
        env = child_env(tmp)
        # discarded: the first import in a fresh checkout byte-compiles
        warm = subprocess.run([sys.executable, "-c", "import commdiff.cli"], env=env,
                              cwd=ROOT, capture_output=True, text=True, timeout=60)
        if warm.returncode != 0:
            fail(f"cannot import commdiff: {warm.stderr.strip()[-2000:]}")
        if args.trace:
            count = max(1, round(args.seconds / (TRACED_PAIR_COST * nominal)))
        else:
            count = max(MIN_PASSES, round(args.seconds / nominal))
        untraced, traced = [], []
        for i in range(count):
            job = (args.workload, args.seed, i, tmp, env, deadline)
            untraced.append(run_pass(*job))
            if args.trace:
                traced.append(run_pass(*job, "--trace"))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            (ROOT / TMP_DIRNAME).rmdir()
        except OSError:
            pass

    everything = untraced + traced
    for p in everything:
        check_env(p["env"])
    cases = [c for p in everything for c in p["cases"]]
    failed = [c for c in cases if not c["ok"]]
    wrong = [c for c in cases if c.get("wrong")]
    report = {
        "workload": args.workload,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == args.workload),
        "seed": args.seed,
        "environment": dict(untraced[0]["env"], nproc=os.cpu_count(),
                            src_lines=src_line_count()),
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "end_to_end": end_to_end(untraced),
        "failed_cases": sorted({f"{c['name']}: {c['error']}" for c in failed}),
        "cases": per_case(untraced),
    }
    self_check_ok = True
    if args.trace:
        layers, notes = per_layer(traced, untraced, args.workload)
        report["per_layer"] = layers
        report["trace_notes"] = notes
        self_check_ok = not notes["silent_spans"]
    source = report["per_layer"] if args.trace else {
        k: v["value"] for k, v in report["end_to_end"].items()}
    metrics = {}
    for m in wanted:
        value = source.get(m["name"])
        if value is None:
            fail(f"metric {m['name']} has no value on workload {args.workload}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    print(json.dumps(report, indent=1, sort_keys=True))
    if args.report:
        # the file also keeps every pass's raw records
        full = dict(report, raw_passes={"untraced": untraced, "traced": traced})
        Path(args.report).write_text(json.dumps(full, indent=1, sort_keys=True) + "\n")
    if not self_check_ok:
        print("self-check: spans with no calls on a workload they dominate: "
              + ", ".join(report["trace_notes"]["silent_spans"]), file=sys.stderr)
    # failed cases are counted in "failed"; "correct" is false only when an
    # output contradicts itself (passrun.check_verify_report) or a traced
    # layer is silent where it dominates
    summary = {"correct": not wrong and self_check_ok, "attempted": len(cases),
               "failed": len(failed), "metrics": metrics}
    print(json.dumps(summary))
    return 0 if self_check_ok else 3


if __name__ == "__main__":
    sys.exit(main())
