"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s to see them inline).  The
commutation cases of criterion 1 are built once and shared with criterion 2.
"""

import random
import time

from mpmath import mpf, cos, sin

from commdiff.numcore import ZPoly
from commdiff.opalg import DiffOp, commutator_residual, op_commutator
from commdiff.dressing import (
    EvenPowerBasis,
    GeomBasis,
    TrigBasis,
    ansatz_solve,
    identity_residuals,
)
from commdiff.families import FamilySpec, build_case, geom_family, poly_family, trig_family
from commdiff.lame import MIN_SLOPE, WeierstrassContext, continuum_slope, lame_curve_independence
from commdiff.rank2 import verify_rank2
from commdiff.spectral import extract_curve

N_WINDOW = 24
ELLIPTIC_SEED = 20250808


def _emit(num, name, passed, detail) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status} ({detail})")
    assert passed, f"criterion {num} [{name}] failed: {detail}"


CRITERION_1_PARAMS = {
    "trig": {"r1": 1},
    "poly": {"a2": 1, "a0": 0, "a1": 0},
    "geom": {"beta": 1, "a": 2},
    "elliptic": {"c2": 0, "c1": -1, "c0": 0},
}


def _build_case(kind, g):
    lo, hi = -N_WINDOW, N_WINDOW
    t0 = time.perf_counter()
    seed = ELLIPTIC_SEED if kind == "elliptic" else None
    spec = FamilySpec(kind, g, CRITERION_1_PARAMS[kind], seed)
    L2, partner, state, _extras = build_case(spec, (lo, hi))
    comm, rel = commutator_residual(L2, partner)
    elapsed = time.perf_counter() - t0
    covers = comm.window[0] <= lo and comm.window[1] >= hi
    return {
        "kind": kind,
        "g": g,
        "state": state,
        # (master, linear, skew) worst relative residuals on the window;
        # skew only for the families even in n
        "identities": identity_residuals(state, (lo, hi), skew=spec.even),
        "L2": L2,
        "partner": partner,
        "commutator_rel": rel,
        "covers": covers,
        "seconds": elapsed,
    }


_CASES = None


def rank1_cases():
    global _CASES
    if _CASES is None:
        cases = []
        for kind in ("trig", "poly", "geom"):
            for g in (1, 2, 3, 4):
                cases.append(_build_case(kind, g))
        cases.append(_build_case("elliptic", 1))
        _CASES = cases
    return _CASES


def test_criterion_1_commutation_rank1():
    worst_rel, worst_case, worst_time = mpf(0), "", 0.0
    ok = True
    for case in rank1_cases():
        label = f"{case['kind']} g={case['g']}"
        if case["commutator_rel"] > worst_rel:
            worst_rel, worst_case = case["commutator_rel"], label
        worst_time = max(worst_time, case["seconds"])
        ok = ok and case["covers"] and case["commutator_rel"] <= mpf("1e-9")
        ok = ok and case["seconds"] <= 60.0
    _emit(
        1,
        "rank-1 commutation",
        ok,
        f"worst rel residual {float(worst_rel):.2e} at {worst_case}, "
        f"slowest case {worst_time:.1f}s",
    )


def test_criterion_2_master_and_linear_identities():
    worst_m, worst_l = mpf(0), mpf(0)
    for case in rank1_cases():
        master_rel, linear_rel, _skew = case["identities"]
        worst_m = max(worst_m, master_rel)
        worst_l = max(worst_l, linear_rel)
    ok = worst_m <= mpf("1e-9") and worst_l <= mpf("1e-9")
    _emit(
        2,
        "master and linear identities",
        ok,
        f"worst master {float(worst_m):.2e}, worst linear {float(worst_l):.2e}",
    )


def test_criterion_3_closed_form_fixtures():
    tol = mpf("1e-10")
    failures = []

    # trig g=1: S_n = A1(z) cos(n) + A3 cos(3n) against the closed-form
    # profiles A1 = -z + a1_const and A3 = a3_closed; the profiles' constant
    # coefficients are read off S_0 = A1 + A3 and S_1 = A1 cos 1 + A3 cos 3
    U, W = trig_family(1, 1, (-14, 14))
    state = ansatz_solve(TrigBasis(1), U, W).state(U, W, (-14, 14))
    a3_closed = sin(mpf(1) / 2) ** 2 / (1 - 2 * cos(1)) ** 3
    a1_const = -(5 * cos(1) - 2 * cos(2) - 3) / (2 * (1 - 2 * cos(1)) ** 2)
    s0, s1 = state.s(0), state.s(1)
    a3 = [(s1.coeff(k) - s0.coeff(k) * cos(1)) / (cos(3) - cos(1)) for k in (0, 1)]
    a1 = [s0.coeff(k) - a3[k] for k in (0, 1)]
    if abs(a3[0] - a3_closed) > tol * abs(a3_closed):
        failures.append("trig A3")
    if abs(a1[0] - a1_const) > tol * abs(a1_const) or abs(a1[1] + 1) > tol:
        failures.append("trig A1")
    for n in range(-14, 15):
        p1, p3 = a1_const * cos(n), a3_closed * cos(3 * n)
        if abs(state.s(n).coeff(0) - (p1 + p3)) > tol * (abs(p1) + abs(p3)):
            failures.append(f"trig S_{n} constant")
        if abs(state.s(n).coeff(1) + cos(n)) > tol:
            failures.append(f"trig S_{n} lead")

    # quartic family g=1 (a2=1, a0=0)
    U, W = poly_family(1, 1, 0, 0, (-16, 16))
    res = ansatz_solve(EvenPowerBasis(1), U, W)
    state = res.state(U, W, (-12, 12))
    for n in range(-10, 11):
        s_closed = ZPoly([mpf(n) ** 4 - mpf(9) / 4 * n**2 + mpf(1) / 4, -mpf(n) ** 2])
        q_closed = ZPoly([mpf(3) / 4 - n * (n - 1), 1])
        if (state.s(n) - s_closed).sup_norm() > tol * max(s_closed.sup_norm(), mpf(1)):
            failures.append(f"quartic S_{n}")
        if (state.q(n) - q_closed).sup_norm() > tol * q_closed.sup_norm():
            failures.append(f"quartic Q_{n}")

    # geometric family g=1 (a=2, beta=1)
    U, W = geom_family(1, 1, 2, window=(-16, 16))
    res = ansatz_solve(GeomBasis(1, 2), U, W)
    state = res.state(U, W, (-12, 12))
    for n in range(-10, 11):
        s_closed = ZPoly([mpf(4) / 27 * mpf(8) ** n, -mpf(2) ** n])
        q_closed = ZPoly([-mpf(4) ** n / 9, 1])
        if (state.s(n) - s_closed).sup_norm() > tol * s_closed.sup_norm():
            failures.append(f"geometric S_{n}")
        if (state.q(n) - q_closed).sup_norm() > tol * q_closed.sup_norm():
            failures.append(f"geometric Q_{n}")

    _emit(
        3,
        "closed-form fixtures",
        not failures,
        "all profiles within 1e-10" if not failures else "; ".join(failures[:4]),
    )


def test_criterion_4_spectral_curves():
    cases = {c["kind"]: c for c in rank1_cases() if c["g"] == 1}
    expected = {
        "poly": ZPoly([mpf(1) / 16, mpf(9) / 16, mpf(3) / 2, 1]),
        "geom": ZPoly([0, 0, 0, 1]),
    }
    dbl = 4 * sin(mpf(1) / 2) ** 4 / (1 - 2 * cos(1)) ** 2
    smp = (1 - 2 * cos(1) + cos(2)) / (1 - 2 * cos(1)) ** 2
    expected["trig"] = ZPoly([-dbl, 1]) * ZPoly([-dbl, 1]) * ZPoly([-smp, 1])
    worst = mpf(0)
    ok = True
    for kind in ("poly", "geom", "trig"):
        case = cases[kind]
        rep = extract_curve(case["L2"], case["partner"], n0_list=(-1, 0, 1))
        curve_c = [expected[kind].coeff(k) for k in range(3)]
        ok = ok and rep.passes(curve_c)
        dev = rep.agreement(curve_c)
        if dev is not None:
            worst = max(worst, dev / max(expected[kind].sup_norm(), mpf(1)))
    _emit(4, "spectral curves", ok, f"worst curve deviation {float(worst):.2e}")


def test_criterion_5_skew_symmetry():
    tol = mpf("1e-10")
    worst = mpf(0)
    for case in rank1_cases():
        if case["kind"] not in ("trig", "poly"):
            continue
        worst = max(worst, case["identities"][2])
    _emit(5, "skew symmetry", worst <= tol, f"worst {float(worst):.2e}")


def test_criterion_6_odd_extension_conjecture():
    # quadratic family with a linear term: verified per genus, reported as a
    # finding; the checks mirror criteria 1 and 2.  At g = 6..9 the commutator
    # is below 7e-34 and the identities below 5e-21 (113 bits, |n| <= 24)
    lo, hi = -N_WINDOW, N_WINDOW
    tol = mpf("1e-9")
    findings = []
    worst = mpf(0)
    for g in range(1, 10):
        spec = FamilySpec("poly", g, {"a2": 1, "a0": 0, "a1": mpf(1) / 2})
        L2, partner, state, _extras = build_case(spec, (lo, hi))
        comm, rel = commutator_residual(L2, partner)
        master_rel, linear_rel, _skew = identity_residuals(state, (lo, hi))
        worst = max(worst, rel)
        covers = comm.window[0] <= lo and comm.window[1] >= hi
        if not (rel <= tol and master_rel <= tol and linear_rel <= tol):
            findings.append(f"g={g}: commutator {float(rel):.2e}, master "
                            f"{float(master_rel):.2e}, linear {float(linear_rel):.2e}")
        if not (covers and partner.is_monic()):
            findings.append(f"g={g}: partner window {comm.window} or lead not monic")
    detail = (
        f"commutation and identities hold for g=1..9 (worst commutator {float(worst):.2e})"
        if not findings
        else "finding: " + "; ".join(findings)
    )
    _emit(6, "odd-extension conjecture", not findings, detail)


def test_criterion_7_rank2():
    rep = verify_rank2()
    ok = rep["commutation_pass"] and rep["curve_pass"]
    _emit(
        7,
        "rank-2 pair",
        ok,
        f"commutator {float(rep['commutator_residual_rel']):.2e}, "
        f"char-poly mismatch {float(rep['curve_mismatch_rel']):.2e}",
    )


def test_criterion_8_continuum_limit():
    t0 = time.perf_counter()
    ctx = WeierstrassContext(4, 0)
    slopes = {}
    ok = True
    for g in (1, 2, 3):
        slope, _ = continuum_slope(ctx, g, x=mpf("0.7"))
        slopes[g] = float(slope)
        ok = ok and slope >= MIN_SLOPE
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed <= 120.0
    _emit(
        8,
        "continuum limit",
        ok,
        f"slopes {slopes}, {elapsed:.1f}s",
    )


def test_criterion_9_step_independence():
    ctx = WeierstrassContext(4, 0)
    rep = lame_curve_independence(ctx, [mpf("0.1"), mpf("0.05")], mpf("0.73"))
    worst_chain = max(e["newton_residual"] for e in rep.entries)
    _emit(
        9,
        "step independence",
        rep.passes(),
        f"curve deviation from the cubic {float(rep.curve_deviation):.2e}, "
        f"worst chain residual {float(worst_chain):.2e}",
    )


def test_criterion_10_property_suites():
    t0 = time.perf_counter()
    rng = random.Random(55)
    ok = True
    detail = []

    # operator antisymmetry is structurally exact
    win = (-16, 16)
    for _ in range(4):
        A = DiffOp.build(
            {1: (lambda n, c=rng.uniform(-2, 2): mpf(c)), 0: lambda n: mpf(n) / 5}, win
        )
        B = DiffOp.build({2: 1, 0: (lambda n, c=rng.uniform(-2, 2): mpf(c) * n)}, win)
        if (op_commutator(A, B) + op_commutator(B, A)).sup_norm() != 0:
            ok = False
            detail.append("antisymmetry")

    # Jacobi identity
    def rnd_op():
        return DiffOp.build(
            {
                0: (lambda n, c=rng.uniform(-2, 2): mpf(c) * n / 7),
                1: (lambda n, c=rng.uniform(-2, 2): mpf(c)),
                2: 1,
            },
            win,
        )

    for _ in range(3):
        A, B, C = rnd_op(), rnd_op(), rnd_op()
        J = (
            op_commutator(A, op_commutator(B, C))
            + op_commutator(B, op_commutator(C, A))
            + op_commutator(C, op_commutator(A, B))
        )
        scale = A.sup_norm() * B.sup_norm() * C.sup_norm()
        if J.sup_norm() > mpf("1e-12") * scale:
            ok = False
            detail.append("jacobi")

    # polynomial division round trips
    from commdiff.numcore import poly_mul
    from oracles import poly_div_exact

    for _ in range(4):
        deg = rng.randint(1, 5)
        p = ZPoly([rng.uniform(-3, 3) for _ in range(deg)] + [1])
        den = ZPoly([rng.uniform(-2, 2), 1])
        num = poly_mul(p, den)
        qq, r = poly_div_exact(num, den)
        if r > mpf("1e-25") * num.sup_norm():
            ok = False
            detail.append("division")

    # zeta / wp consistency at finite differences
    ctx = WeierstrassContext(4, 0)
    h = mpf("1e-6")
    for xs in ("0.35", "0.7", "1.05"):
        x = mpf(xs)
        zd = (ctx.zeta(x + h) - ctx.zeta(x - h)) / (2 * h)
        if abs(zd + ctx.wp(x)) > mpf("1e-8"):
            ok = False
            detail.append("zeta-wp")

    elapsed = time.perf_counter() - t0
    ok = ok and elapsed <= 30.0
    _emit(
        10,
        "property suites",
        ok,
        f"{elapsed:.1f}s" + ("" if not detail else "; " + ",".join(detail)),
    )
