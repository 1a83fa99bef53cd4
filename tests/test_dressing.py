import random

import pytest
from mpmath import mpf, cos, sin

from commdiff.errors import (
    DegenerateDenominatorError,
    InconsistentDataError,
)
from commdiff.numcore import HyperellipticCurve, ZPoly
from commdiff.opalg import CoeffSeq, commutator_scale, op_commutator
from commdiff.dressing import (
    DressingState,
    EvenPowerBasis,
    GeomBasis,
    TrigBasis,
    ansatz_solve,
    ba_sequence,
    baker_akhiezer,
    build_partner_op,
    chi_eval,
    curve_point,
    elliptic_dressing_state,
    factorization_check,
    l2_operator,
    linear_scale,
    master_scale,
    q_from_s,
    residual_linear,
    solve_partner_recursive,
    verify_master,
)
from commdiff.families import geom_family, poly_family, trig_family

WIN = (-30, 30)


def geometric_fixture(window=WIN):
    """a = 2, beta = 1: closed forms for U, W, S, Q and the cubic curve z^3."""
    a, beta = mpf(2), mpf(1)
    U, W = geom_family(1, beta, a, w_sign=1, window=window)
    curve = HyperellipticCurve(1, (0, 0, 0))
    lo, hi = window

    def s_poly(n):
        return ZPoly([(a - 1) ** 2 * beta**3 * a ** (3 * n + 2) / (a * a - a + 1) ** 3,
                      -beta * a**n])

    def q_poly(n):
        return ZPoly([-((a - 1) ** 2) * beta**2 * a ** (2 * n) / (a * a - a + 1) ** 2, 1])

    S = {n: s_poly(n) for n in range(lo, hi + 1)}
    state = DressingState.from_s_table(U, W, S, curve=curve)
    return state, q_poly


def quartic_fixture(window=WIN):
    """a2 = 1, a0 = 0: S_n = n^4 + (1/4)(-9 - 4z) n^2 + 1/4."""
    U, W = poly_family(1, 1, 0, 0, window)
    lo, hi = window

    def s_poly(n):
        return ZPoly([mpf(1) / 4, -mpf(n) ** 2], trim=False) + ZPoly(
            [mpf(n) ** 4 - mpf(9) / 4 * n**2]
        )

    S = {n: s_poly(n) for n in range(lo, hi + 1)}
    curve = HyperellipticCurve(1, (mpf(1) / 16, mpf(9) / 16, mpf(3) / 2))
    return DressingState.from_s_table(U, W, S, curve=curve)


def test_q_from_s_pure_leading():
    s = ZPoly([0, 0, -mpf(3)])  # -U z^g with U = 3, g = 2
    q = q_from_s(s, s, 3, 3)
    assert q.degree == 2
    assert abs(q.coeff(2) - 1) <= mpf("1e-30")
    assert abs(q.coeff(0)) + abs(q.coeff(1)) <= mpf("1e-30")


def test_q_from_s_geometric_fixture():
    # Q_1 = z - (a-1)^2 beta^2 a^2 / (a^2 - a + 1)^2 = z - 4/9 at a=2, beta=1
    state, q_poly = geometric_fixture()
    q1 = state.q(1)
    assert abs(q1.coeff(0) + mpf(4) / 9) <= mpf("1e-30")
    for n in range(-8, 9):
        assert (state.q(n) - q_poly(n)).sup_norm() <= mpf("1e-28") * q_poly(n).sup_norm()


def test_q_from_s_quartic_fixture():
    # the consistent closed form is z - (1/4) a2 (8 a0 + a2 (4 n (n-1) - 3));
    # at n = 0 this is z + 3/4
    state = quartic_fixture()
    assert abs(state.q(0).coeff(0) - mpf(3) / 4) <= mpf("1e-30")
    for n in range(-6, 7):
        expected = ZPoly([mpf(3) / 4 - n * (n - 1), 1])
        assert (state.q(n) - expected).sup_norm() <= mpf("1e-28") * expected.sup_norm()


def test_q_from_s_degenerate():
    s = ZPoly([1, -1])
    with pytest.raises(DegenerateDenominatorError):
        q_from_s(s, s, 1, -1)


def test_verify_master_fixtures():
    state, _ = geometric_fixture()
    for n in range(-20, 21):
        assert verify_master(state, n) <= mpf("1e-20") * master_scale(state, n)
    state = quartic_fixture()
    for n in range(-20, 21):
        assert verify_master(state, n) <= mpf("1e-20") * master_scale(state, n)


def test_verify_master_detects_corruption():
    state, _ = geometric_fixture()
    bad = dict(state.S)
    bad[0] = bad[0] + ZPoly([1])
    corrupted = DressingState(state.U, state.W, state.curve, bad, state.Q)
    assert verify_master(corrupted, 0) >= mpf("0.5")


def test_residual_linear_valid_families():
    state, _ = geometric_fixture()
    for n in range(-15, 16):
        assert residual_linear(state, n).sup_norm() <= mpf("1e-12") * linear_scale(state, n)


def test_residual_linear_zero_state():
    # S = 0, U = 1, W = 0: every term carries an S factor
    U = CoeffSeq.constant(1, WIN)
    W = CoeffSeq.constant(0, WIN)
    curve = HyperellipticCurve(1, (0, 0, 0))
    S = {n: ZPoly.zero() for n in range(-10, 11)}
    Q = {n: ZPoly([0, 1]) for n in range(-9, 11)}
    state = DressingState(U, W, curve, S, Q)
    assert residual_linear(state, 0).sup_norm() == 0


def test_skew_symmetry_for_arbitrary_even_data():
    # the skew relation R_n = -R_{-n-1} is an identity of the four-term form
    # whenever U, W, S are even in n, solution or not
    rng = random.Random(21)
    uv = {n: mpf(rng.uniform(1, 2)) for n in range(0, 16)}
    wv = {n: mpf(rng.uniform(-1, 1)) for n in range(0, 16)}
    U = CoeffSeq.tabulate(lambda n: uv[abs(n)], (-15, 15))
    W = CoeffSeq.tabulate(lambda n: wv[abs(n)], (-15, 15))
    sv = {n: [mpf(rng.uniform(-1, 1)), -uv[abs(n)]] for n in range(0, 16)}
    S = {n: ZPoly(sv[abs(n)]) for n in range(-15, 16)}
    curve = HyperellipticCurve(1, (0, 0, 0))
    state = DressingState.from_s_table(U, W, S, curve=curve)
    for n in range(0, 10):
        r = residual_linear(state, n) + residual_linear(state, -n - 1)
        assert r.sup_norm() <= mpf("1e-25") * linear_scale(state, n)


def test_solve_partner_recursive_geometric():
    state, _ = geometric_fixture((-14, 14))
    rec = solve_partner_recursive(
        state.U, state.W, state.curve, (state.s(-1), state.s(0)), 0, (-10, 10)
    )
    for n in range(-10, 11):
        dev = (rec.s(n) - state.s(n)).sup_norm()
        assert dev <= mpf("1e-15") * max(state.s(n).sup_norm(), mpf(1))


def test_solve_partner_recursive_quartic():
    state = quartic_fixture((-14, 14))
    rec = solve_partner_recursive(
        state.U, state.W, state.curve, (state.s(-1), state.s(0)), 0, (-10, 10)
    )
    for n in range(-10, 11):
        dev = (rec.s(n) - state.s(n)).sup_norm()
        assert dev <= mpf("1e-15") * max(state.s(n).sup_norm(), mpf(1))


def test_solve_partner_recursive_rejects_bad_seed():
    state, _ = geometric_fixture((-14, 14))
    with pytest.raises(InconsistentDataError):
        solve_partner_recursive(
            state.U,
            state.W,
            state.curve,
            (state.s(-1), state.s(0) + ZPoly([mpf("0.37")])),
            0,
            (-10, 10),
        )


def test_ansatz_trig_g1_closed_form():
    U, W = trig_family(1, 1, (-12, 12))
    result = ansatz_solve(TrigBasis(1), U, W)
    # closed forms: A3 = sin(1/2)^2 / (1 - 2 cos 1)^3,
    # A1 = -z - (5 cos 1 - 2 cos 2 - 3) / (2 (1 - 2 cos 1)^2)
    a3_expected = sin(mpf(1) / 2) ** 2 / (1 - 2 * cos(1)) ** 3
    a1_const = -(5 * cos(1) - 2 * cos(2) - 3) / (2 * (1 - 2 * cos(1)) ** 2)
    a3 = result.coeff_polys[1]
    a1 = result.coeff_polys[0]
    assert abs(a3.coeff(0) - a3_expected) <= mpf("1e-10") * abs(a3_expected)
    assert abs(a3.coeff(1)) <= mpf("1e-20")
    assert abs(a1.coeff(1) + 1) <= mpf("1e-10")
    assert abs(a1.coeff(0) - a1_const) <= mpf("1e-10") * abs(a1_const)


def test_ansatz_quartic_g1_closed_form():
    U, W = poly_family(1, 1, 0, 0, (-14, 14))
    result = ansatz_solve(EvenPowerBasis(1), U, W)
    b0, b2, b4 = result.coeff_polys
    assert (b4 - ZPoly([1])).sup_norm() <= mpf("1e-10")
    assert (b2 - ZPoly([-mpf(9) / 4, -1])).sup_norm() <= mpf("1e-10")
    assert (b0 - ZPoly([mpf(1) / 4])).sup_norm() <= mpf("1e-10")


def test_ansatz_geometric_g1_closed_form():
    U, W = geom_family(1, 1, 2, w_sign=1, window=(-12, 12))
    result = ansatz_solve(GeomBasis(1, 2), U, W)
    g1, g3 = result.coeff_polys
    assert (g1 - ZPoly([0, -1])).sup_norm() <= mpf("1e-10")
    assert (g3 - ZPoly([mpf(4) / 27])).sup_norm() <= mpf("1e-10")
    assert max(abs(c) for c in result.curve.c) <= mpf("1e-10")  # w^2 = z^3


def test_ansatz_rejects_mismatched_basis():
    U, W = poly_family(1, 1, 0, 0, (-12, 12))
    with pytest.raises(InconsistentDataError):
        ansatz_solve(TrigBasis(1), U, W)


def test_leading_coefficient_law():
    U, W = trig_family(2, 1, (-14, 14))
    result = ansatz_solve(TrigBasis(2), U, W)
    state = result.state(U, W, (-10, 10))
    for n in range(-10, 11):
        assert abs(state.s(n).coeff(2) + U.at(n)) <= mpf("1e-25") * max(1, abs(U.at(n)))


def test_recursive_matches_ansatz():
    U, W = trig_family(1, 1, (-16, 16))
    result = ansatz_solve(TrigBasis(1), U, W)
    state = result.state(U, W, (-12, 12))
    rec = solve_partner_recursive(
        U, W, result.curve, (state.s(-1), state.s(0)), 0, (-12, 12)
    )
    for n in range(-12, 13):
        dev = (rec.s(n) - state.s(n)).sup_norm()
        assert dev <= mpf("1e-9") * max(state.s(n).sup_norm(), mpf(1))


def test_chi_factorization_equation():
    state, _ = geometric_fixture()
    rng = random.Random(17)
    for _ in range(10):
        z = mpf(rng.uniform(0.5, 4.0))
        P = curve_point(state.curve, z, 1 if rng.random() < 0.5 else -1)
        for n in (-3, 0, 4):
            r = (
                -P.z
                + state.U.at(n) ** 2
                + state.W.at(n)
                + chi_eval(state, n, P)
                * (state.U.at(n) + state.U.at(n + 1) + chi_eval(state, n + 1, P))
            )
            assert abs(r) <= mpf("1e-12") * max(1, abs(P.z))


def test_chi_branch_product():
    state, _ = geometric_fixture()
    P = curve_point(state.curve, mpf(3), 1)
    Pc = P.conjugate()
    for n in (-2, 0, 3):
        lhs = chi_eval(state, n, P) * chi_eval(state, n, Pc) * state.q(n).eval(P.z) ** 2
        rhs = -(P.z - state.U.at(n) ** 2 - state.W.at(n)) * state.q(n + 1).eval(
            P.z
        ) * state.q(n).eval(P.z)
        assert abs(lhs - rhs) <= mpf("1e-25") * max(1, abs(rhs))


def test_chi_pole_guard():
    state, _ = geometric_fixture()
    # Q_0 = z - 1/9 vanishes at z = 1/9
    P = curve_point(state.curve, mpf(1) / 9, 1)
    with pytest.raises(DegenerateDenominatorError):
        chi_eval(state, 0, P)


def test_baker_akhiezer_normalization_and_ratio():
    state, _ = geometric_fixture()
    P = curve_point(state.curve, mpf(2), 1)
    assert baker_akhiezer(state, P, 0) == 1
    assert abs(baker_akhiezer(state, P, 1) - chi_eval(state, 0, P)) <= mpf("1e-30")


def test_baker_akhiezer_blocked_inverse_product():
    # at z a root of Q_0 with w chosen so S_{-1}(z) + w = 0, the point lies on
    # the curve (master identity at n = -1) and chi_{-1} vanishes: the inverse
    # product for n < 0 must refuse
    state, _ = geometric_fixture()
    z = mpf(1) / 9
    from commdiff.dressing import CurvePoint

    P = CurvePoint(z, -state.s(-1).eval(z))
    assert abs(P.w**2 - state.curve.eval(z)) <= mpf("1e-30")
    with pytest.raises(DegenerateDenominatorError):
        baker_akhiezer(state, P, -1)


def test_baker_akhiezer_eigen_relations():
    state, _ = geometric_fixture()
    L2 = l2_operator(state.U, state.W)
    L3 = build_partner_op(state, L2)
    P = curve_point(state.curve, mpf(2), 1)
    psi = ba_sequence(state, P, (-13, 13))
    l2psi = L2.apply(psi)
    l3psi = L3.apply(psi)
    scale = max(abs(psi.at(n)) for n in range(-10, 11)) * max(1, abs(P.z), abs(P.w))
    for n in range(-10, 11):
        assert abs(l2psi.at(n) - P.z * psi.at(n)) <= mpf("1e-10") * scale
        assert abs(l3psi.at(n) - P.w * psi.at(n)) <= mpf("1e-10") * scale


def test_build_partner_geometric_printed_coefficients():
    # T^3 + 7 * 2^n T^2 + (14/3) 4^n T + (8/27) 8^n at a=2, beta=1
    state, _ = geometric_fixture()
    L3 = build_partner_op(state)
    assert L3.order == 3
    assert L3.is_positive and L3.is_monic()
    for n in range(-6, 7):
        for expected, j in (
            (7 * mpf(2) ** n, 2),
            (mpf(14) / 3 * mpf(4) ** n, 1),
            (mpf(8) / 27 * mpf(8) ** n, 0),
        ):
            assert abs(L3.coeff(j).at(n) - expected) <= mpf("1e-12") * abs(expected)


def test_build_partner_elliptic_matches_closed_form():
    from commdiff.families import elliptic_family

    gamma = CoeffSeq.tabulate(
        lambda n: mpf(2) + mpf(n * 38196601125 % 100000000000) / mpf(2e11), (-16, 17)
    )
    curve = HyperellipticCurve(1, (0, -1, 0))
    state = elliptic_dressing_state(curve, gamma, window=(-15, 15))
    L2 = l2_operator(state.U, state.W)
    built = build_partner_op(state, L2)
    _, _, closed = elliptic_family(0, -1, 0, gamma)
    dev = (built - closed).sup_norm()
    assert dev <= mpf("1e-20") * max(closed.sup_norm(), mpf(1))


def test_build_partner_trig_commutes():
    U, W = trig_family(1, 1, (-20, 20))
    result = ansatz_solve(TrigBasis(1), U, W)
    state = result.state(U, W, (-18, 18))
    L2 = l2_operator(U, W)
    L3 = build_partner_op(state, L2)
    rel = op_commutator(L2, L3).sup_norm() / commutator_scale(L2, L3)
    assert rel <= mpf("1e-10")


def test_factorization_check_cases():
    state, _ = geometric_fixture()
    L2 = l2_operator(state.U, state.W)
    P = curve_point(state.curve, mpf(2), 1)
    psi = ba_sequence(state, P, (-10, 10))
    scale = L2.sup_norm() * psi.sup_norm()
    assert factorization_check(state, L2, P, psi) <= mpf("1e-12") * scale
    rng = random.Random(23)
    f = CoeffSeq.tabulate(lambda n: mpf(rng.uniform(-1, 1)), (-10, 10))
    assert factorization_check(state, L2, P, f) <= mpf("1e-12") * L2.sup_norm() * f.sup_norm()
    delta = CoeffSeq.tabulate(lambda n: mpf(1) if n == 2 else mpf(0), (-10, 10))
    assert factorization_check(state, L2, P, delta) <= mpf("1e-12") * L2.sup_norm()


def test_genus2_recursion_and_eigen_relations():
    # higher-genus path: degree-2 dressing polynomials, degree-3 divisors in
    # the recursion, order-5 partner, eigenfunction products
    U, W = trig_family(2, 1, (-18, 18))
    result = ansatz_solve(TrigBasis(2), U, W)
    state = result.state(U, W, (-14, 14))
    rec = solve_partner_recursive(
        U, W, result.curve, (state.s(-1), state.s(0)), 0, (-10, 10)
    )
    for n in range(-10, 11):
        dev = (rec.s(n) - state.s(n)).sup_norm()
        assert dev <= mpf("1e-12") * max(state.s(n).sup_norm(), mpf(1))

    L2 = l2_operator(U, W)
    L5 = build_partner_op(state, L2)
    assert L5.order == 5 and L5.is_monic() and L5.is_positive
    P = curve_point(state.curve, mpf(30), 1)  # above the largest branch point
    psi = ba_sequence(state, P, (-9, 12))
    l2psi = L2.apply(psi)
    l5psi = L5.apply(psi)
    scale = max(abs(psi.at(n)) for n in range(-6, 7)) * max(abs(P.z), abs(P.w))
    for n in range(-6, 7):
        assert abs(l2psi.at(n) - P.z * psi.at(n)) <= mpf("1e-10") * scale
        assert abs(l5psi.at(n) - P.w * psi.at(n)) <= mpf("1e-10") * scale
    assert factorization_check(state, L2, P, psi) <= mpf("1e-12") * L2.sup_norm() * psi.sup_norm()


def test_fixture_checks_hold_at_minimum_precision():
    # 53-bit significand is the selectable floor; desk-scale windows still
    # clear the 1e-9 tolerances there
    from commdiff.numcore import set_precision

    set_precision(53)
    try:
        state = quartic_fixture((-10, 10))
        for n in range(-8, 9):
            assert verify_master(state, n) <= mpf("1e-9") * master_scale(state, n)
    finally:
        set_precision(113)


def test_state_json_roundtrip():
    state, _ = geometric_fixture((-6, 6))
    back = DressingState.from_json(state.to_json())
    assert back.window == state.window
    for n in range(-5, 6):
        assert (back.s(n) - state.s(n)).sup_norm() == 0
    assert verify_master(back, 0) <= mpf("1e-20") * master_scale(back, 0)
