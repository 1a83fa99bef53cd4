"""Tests of the benchmark's own logic: inputs, statistics, span accounting.

    python3 -m unittest discover -s benchmarks -p "test_*.py"

The last test class imports commdiff from src/ and is skipped without
mpmath; everything else is stdlib only.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import types
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import passrun  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class InputsTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for w in workloads.WORKLOADS:
            self.assertEqual(workloads.make_inputs(w, 7, 2), workloads.make_inputs(w, 7, 2))
            self.assertNotEqual(workloads.make_inputs(w, 7, 2), workloads.make_inputs(w, 8, 2))
            self.assertNotEqual(workloads.make_inputs(w, 7, 2), workloads.make_inputs(w, 7, 3))

    def test_workload_shapes(self):
        verify = workloads.make_inputs("verify", 1)
        self.assertEqual(len(verify), 13)
        self.assertTrue(all("--precision" in c["argv"] for c in verify))
        odd = workloads.make_inputs("odd-ext", 1)
        self.assertEqual([c["name"] for c in odd], [f"poly-g{g}" for g in range(1, 6)])
        self.assertTrue(all("--a1" in c["argv"] for c in odd))

    def test_ranges(self):
        for seed in range(50):
            for case in workloads.make_inputs("verify", seed):
                if "--a" in case["argv"]:
                    a = float(case["argv"][case["argv"].index("--a") + 1])
                    self.assertTrue(1.5 <= a <= 3, a)
            for case in workloads.make_inputs("odd-ext", seed):
                a1 = float(case["argv"][case["argv"].index("--a1") + 1])
                self.assertTrue(0.25 <= a1 <= 0.75)

    def test_lame_x0_off_the_lattice(self):
        for seed in range(500):
            lam = workloads.make_inputs("curve-lattice", seed)["lame"]
            x0 = float(lam["x0"])
            self.assertTrue(workloads.LAME_X0_RANGE[0] < x0 < workloads.LAME_X0_RANGE[1])
            period = 2 * workloads.LEMNISCATIC_OMEGA1
            lo, hi = workloads.LAME_SITE_REACH
            for eps in map(float, lam["eps"]):
                for k in range(lo, hi + 1):
                    x = x0 + k * eps
                    gap = abs(x - period * round(x / period))
                    self.assertGreaterEqual(gap, workloads.LAME_LATTICE_MARGIN, (seed, k, eps))

    def test_lattice_guard_rejects_lattice_sites(self):
        self.assertFalse(workloads.lame_sites_clear(0.7))   # 0.7 - 7 * 0.1 = 0
        self.assertFalse(workloads.lame_sites_clear(0.705))
        self.assertTrue(workloads.lame_sites_clear(0.73))

    def test_half_period_matches_agm(self):
        # omega1 = pi / (2 agm(sqrt(e1 - e3), sqrt(e1 - e2))) with roots 1, 0, -1
        a, b = math.sqrt(2), 1.0
        for _ in range(30):
            a, b = (a + b) / 2, math.sqrt(a * b)
        self.assertAlmostEqual(workloads.LEMNISCATIC_OMEGA1, math.pi / (2 * a), places=12)

    def test_elliptic_gamma_covers_its_window(self):
        inputs = workloads.make_inputs("curve-lattice", 3)
        glo, ghi = workloads.pair_windows(1)[2]
        self.assertEqual(len(inputs["pairs"][-1]["gamma"]), ghi - glo + 1)


class TailTest(unittest.TestCase):
    def test_ten_samples_beyond(self):
        value, pct, n = run.tail([float(v) for v in range(20, 0, -1)])
        self.assertEqual((value, pct, n), (10.0, 50.0, 20))

    def test_eleven_samples_is_the_minimum(self):
        self.assertIsNone(run.tail(range(10)))
        value, pct, n = run.tail(range(11))
        self.assertEqual((value, n), (0, 11))
        self.assertAlmostEqual(pct, 100 / 11)

    def test_many_samples(self):
        value, pct, _ = run.tail(range(1000))
        self.assertEqual(value, 989)
        self.assertAlmostEqual(pct, 99.0)


class EndToEndTest(unittest.TestCase):
    def test_failures_count_but_only_passed_cases_are_timed(self):
        def case(name, seconds, ref, ok, digits=None):
            return {"name": name, "seconds": seconds, "ref_s": ref, "ok": ok,
                    "digits_lost": digits}

        passes = [{"setup_s": 0.1 * i, "wall_s": 4.0, "peak_rss_mb": 30.0,
                   "cases": [case("a", 1.0, 0.5, True, 3.0), case("b", 3.0, 1.0, False)]}
                  for i in (1, 2, 3)]
        m = run.end_to_end(passes)
        self.assertEqual(m["fail_frac"]["value"], 0.5)
        self.assertEqual(m["campaign_ref"]["value"], 5.0)   # failed time still counts
        self.assertEqual(m["campaign_s"]["value"], 4.0)
        self.assertEqual(m["case_ref.p50"]["value"], 2.0)
        self.assertEqual(m["case_ref.p50"]["samples"], 3)
        self.assertIsNone(m["case_ref.tail"]["value"])      # 3 samples < 11
        self.assertEqual(m["digits_lost_max"]["value"], 3.0)
        # each pass's median reference time is 0.75 s
        self.assertAlmostEqual(m["setup_s"]["value"], 0.2 / 0.75 * run.NOMINAL_REFERENCE_S)
        self.assertAlmostEqual(m["setup_wall_s"]["value"], 0.2)
        self.assertEqual(m["verified_per_min"]["value"], 3 / (12.0 / 60))


class VerifyReportTest(unittest.TestCase):
    def report(self, passed=True, comm="1e-30", monic=True):
        return {"config": {"precision_bits": 113}, "pass": passed,
                "report": {"commutator_residual_rel": comm, "master_residual_rel": "1e-31",
                           "linear_residual_rel": "1e-31", "commutator_window_covers": True,
                           "partner_monic": monic}}

    def test_clean_report_passes(self):
        self.assertEqual(passrun.check_verify_report(self.report()), (True, None, 1e-30, False))

    def test_non_monic_partner_fails_the_case_without_being_wrong(self):
        ok, error, _, wrong = passrun.check_verify_report(self.report(monic=False))
        self.assertEqual((ok, error, wrong), (False, "partner not monic", False))

    def test_pass_with_a_residual_over_tolerance_is_wrong(self):
        ok, _, _, wrong = passrun.check_verify_report(self.report(comm="1e-5"))
        self.assertEqual((ok, wrong), (False, True))

    def test_reported_failure_is_failed_not_wrong(self):
        ok, _, _, wrong = passrun.check_verify_report(self.report(passed=False, comm="1e-5"))
        self.assertEqual((ok, wrong), (False, False))


class CompareTest(unittest.TestCase):
    def report(self, backend="python", prec=113, value=1.0):
        return {"workload": "verify",
                "environment": {"mpmath_backend": backend, "precision_bits": prec},
                "end_to_end": {"case_s.p50": {"value": value, "unit": "s"}}}

    def test_refuses_other_backend_or_precision(self):
        self.assertEqual(compare.comparable(self.report(), self.report()), [])
        self.assertTrue(compare.comparable(self.report(), self.report(backend="gmpy")))
        self.assertTrue(compare.comparable(self.report(), self.report(prec=160)))

    def test_ratio(self):
        rows = list(compare.rows(self.report(), self.report(value=1.5)))
        self.assertEqual(rows, [("case_s.p50", 1.0, 1.5, 1.5)])


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class SpanAccountingTest(unittest.TestCase):
    def setUp(self):
        self.clock = FakeClock()
        self.saved = tracing.perf_counter
        tracing.perf_counter = self.clock

    def tearDown(self):
        tracing.perf_counter = self.saved

    def test_self_time_of_nested_spans(self):
        tr = tracing.Tracer(113, span_names=("linalg.outer", "linalg.inner", "opalg.leaf"))
        clock = self.clock

        def leaf():
            clock.now += 1.0

        def inner():
            clock.now += 2.0
            leaf()
            clock.now += 0.5

        def outer():
            clock.now += 3.0
            inner()
            inner()
            leaf()

        leaf = tr.wrap("opalg.leaf", leaf)
        inner = tr.wrap("linalg.inner", inner)
        outer = tr.wrap("linalg.outer", outer)
        outer()
        spans = tr.spans
        self.assertEqual(spans["opalg.leaf"].calls, 3)
        self.assertEqual(spans["opalg.leaf"].self_s, 3.0)
        self.assertEqual(spans["linalg.inner"].calls, 2)
        self.assertEqual(spans["linalg.inner"].total_s, 7.0)
        self.assertEqual(spans["linalg.inner"].self_s, 5.0)
        self.assertEqual(spans["linalg.outer"].total_s, 11.0)
        self.assertEqual(spans["linalg.outer"].self_s, 3.0)
        # self times partition the root span
        self.assertEqual(sum(s.self_s for s in spans.values()), 11.0)
        self.assertEqual(tr.stack, [])

    def test_recursion_into_the_same_span(self):
        tr = tracing.Tracer(113, span_names=("linalg.rec",))
        clock = self.clock

        def rec(depth):
            clock.now += 1.0
            if depth:
                rec(depth - 1)

        rec = tr.wrap("linalg.rec", rec)
        rec(3)
        span = tr.spans["linalg.rec"]
        self.assertEqual((span.calls, span.self_s), (4, 4.0))

    def test_error_counted_once_per_layer(self):
        tr = tracing.Tracer(113, span_names=("linalg.a", "linalg.b", "dressing.c"))

        def b():
            raise ValueError("boom")

        b = tr.wrap("linalg.b", b)
        a = tr.wrap("linalg.a", lambda: b())
        c = tr.wrap("dressing.c", lambda: a())
        with self.assertRaises(ValueError):
            c()
        self.assertEqual(tr.errors["linalg"], {"ValueError": 1})
        self.assertEqual(tr.errors["dressing"], {"ValueError": 1})
        self.assertEqual(tr.stack, [])
        self.assertEqual(tr.spans["dressing.c"].calls, 1)


class RebindTest(unittest.TestCase):
    """A wrapper must reach every binding site of the wrapped object."""

    def test_from_import_copies_and_method_aliases(self):
        def target():
            return 42

        class Op:
            def mul(self):
                return 7

            rmul = mul

        home = types.ModuleType("commdiff._bench_home")
        home.target, home.Op = target, Op
        Op.__module__ = "commdiff._bench_home"
        user = types.ModuleType("commdiff._bench_user")
        user.target = target  # what `from home import target` leaves behind
        sys.modules.update({home.__name__: home, user.__name__: user})
        try:
            calls = []

            def spy(fn):
                def wrapper(*a):
                    calls.append(fn.__name__)
                    return fn(*a)
                return wrapper

            self.assertEqual(tracing._rebind_everywhere(target, spy(target)), 2)
            self.assertEqual(tracing._rebind_everywhere(Op.__dict__["mul"], spy(Op.mul)), 2)
            self.assertEqual(user.target(), 42)
            self.assertEqual(home.target(), 42)
            self.assertEqual(Op().rmul(), 7)
            self.assertEqual(calls, ["target", "target", "mul"])
        finally:
            del sys.modules[home.__name__], sys.modules[user.__name__]


try:
    import mpmath  # noqa: F401
    HAVE_MPMATH = True
except ImportError:
    HAVE_MPMATH = False


# Run in a child interpreter, so the wrappers never reach other tests.
_PROBE = """
import json, tracing
import commdiff.cli
from commdiff import rank2, spectral
tr = tracing.install(113)
assert rank2.rank2_curve_check is spectral.rank2_curve_check
rank2.verify_rank2(window=(-6, 6))
print(json.dumps({"missing": tr.missing,
                  "calls": {k: v.calls for k, v in tr.spans.items()}}))
"""


@unittest.skipUnless(HAVE_MPMATH, "needs mpmath")
class InstallOnPackageTest(unittest.TestCase):
    def test_rank2_check_is_traced_through_its_import_site(self):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(HERE), str(HERE.parent / "src")]))
        proc = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                              capture_output=True, text=True, timeout=120)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        doc = json.loads(proc.stdout)
        self.assertEqual(doc["missing"], [])
        self.assertEqual(doc["calls"]["spectral.rank2_curve_check"], 1)
        self.assertEqual(doc["calls"]["rank2.build"], 2)
        self.assertGreater(doc["calls"]["opalg.commutator"], 0)


if __name__ == "__main__":
    unittest.main()
