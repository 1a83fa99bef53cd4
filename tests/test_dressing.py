import re
import random
from fractions import Fraction

import pytest
from mpmath import ldexp, lu_solve, matrix, mp, mpf, cos, sin
from mpmath.libmp import fone

from commdiff.errors import (
    DegenerateDenominatorError,
    InconsistentDataError,
    RankDeficiencyError,
    WindowError,
)
from commdiff import dressing, linalg
from commdiff.numcore import HyperellipticCurve, ZPoly, poly_mul, raw_ints, rround
from commdiff.opalg import CoeffSeq, DiffOp, commutator_residual
from commdiff.dressing import (
    RECURSION_GUARD_BITS,
    DressingState,
    EvenPowerBasis,
    GeomBasis,
    PowerBasis,
    TrigBasis,
    _pin_top_row,
    ansatz_solve,
    build_partner_op,
    elliptic_dressing_state,
    identity_residuals,
    l2_operator,
    q_from_s,
    residual_linear,
    verify_master,
)
from oracles import (
    CurvePoint,
    baker_akhiezer,
    chi_eval,
    curve_point,
    _fraction,
    _fraction_compose,
    _fraction_sum,
    _reference_lstsq,
    apply_scalars,
    exact_identity_residuals,
    exact_table,
    exact_linear,
    exact_master,
    exact_partner,
    factorization_check,
    fraction_curve,
    fraction_four_term,
    fraction_march,
    fraction_of,
    fraction_op,
    fraction_pair_rule,
    fraction_row,
    fraction_table,
    poly_dev,
    raws,
    rounded_fraction,
    rounded_op,
    rounded_poly,
    solve_partner_recursive,
    trap_values,
)
from commdiff.families import (
    FamilySpec,
    basis_for,
    build_case,
    family_from_spec,
    geom_family,
    poly_family,
    trig_family,
)

WIN = (-30, 30)


def geometric_fixture(window=WIN):
    """a = 2, beta = 1: closed forms for U, W, S, Q and the cubic curve z^3."""
    a, beta = mpf(2), mpf(1)
    U, W = geom_family(1, beta, a, window=window)
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
        return ZPoly([mpf(1) / 4 + (mpf(n) ** 4 - mpf(9) / 4 * n**2), -mpf(n) ** 2])

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
        assert poly_dev(state.q(n), q_poly(n)) <= mpf("1e-28") * q_poly(n).sup_norm()


def test_q_from_s_quartic_fixture():
    # the consistent closed form is z - (1/4) a2 (8 a0 + a2 (4 n (n-1) - 3));
    # at n = 0 this is z + 3/4
    state = quartic_fixture()
    assert abs(state.q(0).coeff(0) - mpf(3) / 4) <= mpf("1e-30")
    for n in range(-6, 7):
        expected = ZPoly([mpf(3) / 4 - n * (n - 1), 1])
        assert poly_dev(state.q(n), expected) <= mpf("1e-28") * expected.sup_norm()


def test_q_from_s_degenerate():
    s = ZPoly([1, -1])
    with pytest.raises(DegenerateDenominatorError):
        q_from_s(s, s, 1, -1)


def test_pair_rule_failures_name_stage_and_n():
    # a = -1 makes every U_{n-1} + U_n vanish; the first one the solver
    # forms is at n = lo + 1
    U = CoeffSeq.tabulate(lambda n: mpf(-1) ** n, (-12, 12))
    W = CoeffSeq.tabulate(lambda n: mpf(1), (-12, 12))
    with pytest.raises(DegenerateDenominatorError, match=r"^ansatz_solve at n=-11: "):
        ansatz_solve(GeomBasis(1, -1), U, W)
    # a table that is non-monic by construction: U_{n-1} + U_n = 2 against
    # |U_n| near 1000, so S_3's lead, 1e-4 off -U_3, passes the lead check
    # (1e-6 of |U_3|) but leaves Q_3's lead 5e-5 off 1
    U = CoeffSeq.tabulate(lambda n: 1000 * mpf(-1) ** n + 1, (-6, 6))
    W = CoeffSeq.tabulate(lambda n: mpf(0), (-6, 6))
    S = {n: ZPoly([0, -U.at(n) + (mpf("1e-4") if n == 3 else 0)]) for n in range(-6, 7)}
    with pytest.raises(InconsistentDataError,
                       match=r"^state assembly at n=3: pair rule produced a non-monic"):
        DressingState.from_s_table(U, W, S, curve=HyperellipticCurve(1, (0, 0, 0)))


def test_pin_fit_roundoff_breaks_the_monic_lead_of_geom_g5():
    # the z^g row of S is the pin fit of -U_n, whose roundoff grows as
    # a^((2g+1) n): at 113 bits this geometric g = 5 table misses the monic
    # Q lead by 5e-6 at n = 14, at 160 bits it builds
    spec = FamilySpec("geom", 5, {"a": mpf("2.272327"), "beta": mpf("1.614327")})
    with mp.workprec(113):
        with pytest.raises(InconsistentDataError,
                           match=r"^state assembly at n=14: pair rule produced a non-monic"):
            build_case(spec, (-4, 4))
    with mp.workprec(160):
        build_case(spec, (-4, 4))


def test_pair_rule_lead_is_judged_exactly():
    # Q's lead 1 +- S_LEAD_TOL passes and one unit of the tolerance's last
    # bit past it fails, on leads that need more than the working precision
    t = dressing.S_LEAD_TOL
    unit = mpf(2) ** t._mpf_[2]
    half = mpf(1) / 2
    with mp.workprec(400):
        cases = [(1 + t, True), (1 + t + unit, False), (1 - t, True), (1 - t - unit, False)]
        cases = [(ZPoly([0, -lead / 2]), ok) for lead, ok in cases]
    for s, ok in cases:
        if ok:
            q_from_s(s, s, half, half)
        else:
            with pytest.raises(InconsistentDataError, match="non-monic"):
                q_from_s(s, s, half, half)


@pytest.mark.parametrize("bits", (53, 113))
def test_s_lead_is_judged_exactly(bits):
    # |s_{n,g} + U_n| at S_LEAD_TOL times max(1, |U_n|, |S_n|) = 1 passes;
    # one unit of the tolerance's last bit past it fails, and so does 2^-200
    # past it, which a sum rounded at the working precision would drop; the
    # pair rule's lead test, the same ratio at |U_n| = 1, passes at the bound
    t = dressing.S_LEAD_TOL
    unit = mpf(2) ** t._mpf_[2]
    curve = HyperellipticCurve(1, (0, 0, 0))
    for u in (1, -1):
        U = CoeffSeq(0, [u] * 4)
        with mp.workprec(400):
            cases = [(t, True), (t + unit, False), (t + mpf(2) ** -200, False)]
            cases = [({n: ZPoly([0, -u + u * gap]) for n in range(4)}, ok) for gap, ok in cases]
        for S, ok in cases:
            with mp.workprec(bits):
                if ok:
                    DressingState.from_s_table(U, U, S, curve=curve)
                else:
                    with pytest.raises(InconsistentDataError, match=r"^S_0 has z\^1 coeff"):
                        DressingState.from_s_table(U, U, S, curve=curve)


def test_pair_rule_rounds_a_near_tie_once():
    # q_0 = M + 1/2 + 2^-20 / 3 for an even p-bit M lies just above a tie:
    # rounded once it goes up to M + 1; a rounding in between that lands
    # on the tie sends it down to the even M
    p = mp.prec
    M = 2 ** (p - 1) + 2
    with mp.workprec(p + 40):
        s_prev = ZPoly([-(3 * M + mpf(3) / 2 + mpf(2) ** -20), mpf(-3) / 2])
    q = q_from_s(s_prev, ZPoly([0, mpf(-3) / 2]), 1, 2)
    assert q.raw == [rround(M + 1, 0, p), fone]


# one state of each kind: trig, dyadic and non-dyadic poly, geom and elliptic,
# as (kind, genus, parameters); each test reads its FamilySpec at its working
# precision, so that a non-dyadic family's tables are as wide as it
STATE_SPECS = [
    ("trig", 2, {"r1": "1.3"}),
    ("poly", 2, {"a2": 1, "a0": "0.25", "a1": "0.5"}),
    ("poly", 2, {"a2": "0.886695", "a1": "0.708451", "a0": "0.234504"}),
    ("geom", 2, {"a": "1.764235", "beta": "0.895178"}),
    ("elliptic", 1, {}),
]
STATE_IDS = ["trig", "poly", "poly-nondyadic", "geom", "elliptic"]


@pytest.mark.parametrize("bits", (53, 113, 160, 1100))
@pytest.mark.parametrize("spec", STATE_SPECS, ids=STATE_IDS)
def test_pair_rule_is_the_fraction_ratio_rounded_once(spec, bits):
    # every Q_n of the state: -(S_{n-1} + S_n) / (U_{n-1} + U_n) over
    # Fractions of the stored values, each coefficient rounded once
    with mp.workprec(bits):
        _L2, _partner, state, _extras = build_case(FamilySpec(*spec), (-3, 3))
        for n in state.Q:
            assert state.q(n).raw == rounded_poly(fraction_pair_rule(state, n)), n
            assert q_from_s(state.s(n - 1), state.s(n), state.U.at(n - 1),
                            state.U.at(n)).raw == state.q(n).raw


@pytest.mark.parametrize("bits", (53, 113, 160, 1100))
@pytest.mark.parametrize("spec", STATE_SPECS, ids=STATE_IDS)
def test_recovered_curve_is_the_fraction_master_rounded_once(spec, bits):
    # a state assembled with no curve reads it from the master identity at
    # n0 = 0 clamped into [lo + 1, hi - 2]: S_n0^2 + (z - U^2 - W) Q_n0 Q_n0+1
    # over Fractions of the stored values, each coefficient over the lead
    # rounded once
    with mp.workprec(bits):
        _L2, _partner, built, _extras = build_case(FamilySpec(*spec), (-3, 3))
        lo, hi = built.window
        for window, n0 in (((lo, hi), 0), ((3, hi), 4), ((-4, -1), -3)):
            S = {n: built.s(n) for n in range(window[0], window[1] + 1)}
            state = DressingState.from_s_table(built.U, built.W, S)
            want = fraction_curve(state, n0)
            assert raws(state.curve.c) == raws(want), window


def test_curve_recovery_compares_n0_and_n0_plus_1_exactly():
    # the master polynomials at n0 and n0 + 1 must agree within
    # CURVE_RECOVERY_TOL of the larger of 1 and their largest |coefficient|:
    # one S_n0+2 coefficient off just past that bound fails, and one off
    # just inside it passes
    _L2, _partner, built, _extras = build_case(FamilySpec("trig", 1, {"r1": 1}), (-3, 3))
    S = {n: built.s(n) for n in range(-2, 4)}
    DressingState.from_s_table(built.U, built.W, S)
    for off, ok in ((mpf("1e-4"), False), (mpf("1e-12"), True)):
        bad = dict(S)
        bad[2] = ZPoly([S[2].coeff(0) + off, *S[2].coeffs[1:]])
        if ok:
            DressingState.from_s_table(built.U, built.W, bad)
        else:
            with pytest.raises(InconsistentDataError, match="between n=0 and n=1"):
                DressingState.from_s_table(built.U, built.W, bad)


def test_verify_master_fixtures():
    state, _ = geometric_fixture()
    assert identity_residuals(state, (-20, 20))[0] <= mpf("1e-20")
    state = quartic_fixture()
    assert identity_residuals(state, (-20, 20))[0] <= mpf("1e-20")


def test_verify_master_detects_corruption():
    state, _ = geometric_fixture()
    bad = dict(state.S)
    bad[0] = ZPoly([bad[0].coeff(0) + 1, *bad[0].coeffs[1:]])
    corrupted = DressingState(state.U, state.W, state.curve, bad, state.Q)
    assert verify_master(corrupted, 0) >= mpf("0.5")


def test_residual_linear_valid_families():
    state, _ = geometric_fixture()
    assert identity_residuals(state, (-15, 15))[1] <= mpf("1e-12")


def test_residual_linear_zero_state():
    # S = 0, U = 1, W = 0: every term carries an S factor
    U = CoeffSeq.constant(1, WIN)
    W = CoeffSeq.constant(0, WIN)
    curve = HyperellipticCurve(1, (0, 0, 0))
    S = {n: ZPoly() for n in range(-10, 11)}
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
    # skew over n = 0..9
    assert identity_residuals(state, (0, 9), skew=True)[2] <= mpf("1e-25")


@pytest.mark.parametrize("kind, g, params", [
    ("trig", 3, {"r1": 1}), ("poly", 2, {"a2": "0.886695", "a0": "0.234504"}),
])
def test_skew_is_exactly_zero_on_symmetric_tables(kind, g, params):
    # tables even under n -> -n - 1 bit for bit give R_n + R_{-n-1} = 0
    # exactly, which a check that rounds its sums need not see
    _L2, _partner, state, _extras = build_case(FamilySpec(kind, g, params), (-12, 12))
    _master, linear, skew_rel = identity_residuals(state, (-12, 12), skew=True)
    assert skew_rel == 0 and linear > 0
    assert exact_identity_residuals(state, (-12, 12), skew=True)[2] == 0


def test_exact_residuals_fall_with_the_precision():
    # a non-dyadic state built at 113 and at 177 bits: the checks measure
    # the state, not their own rounding, so every residual falls by about
    # 2^-64
    spec = FamilySpec("poly", 3, {"a2": "0.886695", "a1": "0.708451", "a0": "0.234504"})
    rels = []
    for bits in (113, 177):
        with mp.workprec(bits):
            _L2, _partner, state, _extras = build_case(spec, (-12, 12))
            rels.append(identity_residuals(state, (-12, 12)))
    (m113, l113, _), (m177, l177, _) = rels
    assert 0 < m177 <= m113 * mpf(2) ** -50
    assert 0 < l177 <= l113 * mpf(2) ** -50


def test_skew_is_none_without_a_mirror_pair():
    # a state on [3, 15] holds no pair (n, -n-1): the skew compares nothing
    spec = FamilySpec("trig", 1, {"r1": 1})
    _L2, _partner, state, _extras = build_case(spec, (5, 10))
    assert state.window[0] == 3
    master, linear, skew_rel = identity_residuals(state, (5, 10), skew=True)
    assert skew_rel is None
    assert master <= mpf("1e-25") and linear <= mpf("1e-25")


def test_identity_residuals_refuse_a_window_that_holds_no_row():
    # the state lies on [-10, 15]; (100, 120) once read as a pass, with a
    # skew from n = 0..8 outside it, and (14, 15) holds a master site but
    # no linear row
    _L2, _partner, state, _extras = build_case(FamilySpec("trig", 2, {"r1": "1.3"}), (-8, 8))
    assert state.window == (-10, 15)
    for window in ((100, 120), (-40, -11), (14, 15), (5, 4)):
        for skew in (False, True):
            with pytest.raises(WindowError, match=rf"window \[{window[0]}, {window[1]}\] holds "
                                                  r"no row .* on \[-10, 15\]"):
                identity_residuals(state, window, skew=skew)
    # one linear row left, at n = 13
    assert identity_residuals(state, (13, 20))[1] >= 0


def test_single_site_checks_name_n_and_the_reach_of_their_identity():
    # on the state window [-10, 15] the master identity reaches [-9, 14] and
    # the linear relation [-9, 13]; a site past either is a WindowError that
    # names n and that reach, not an IndexError or an error about W's window
    _L2, _partner, state, _extras = build_case(FamilySpec("trig", 2, {"r1": "1.3"}), (-8, 8))
    assert state.window == (-10, 15)
    assert verify_master(state, 14) <= mpf("1e-25") and verify_master(state, -9) <= mpf("1e-25")
    assert residual_linear(state, 13).sup_norm() <= mpf("1e-25")
    assert residual_linear(state, -9).sup_norm() <= mpf("1e-25")
    for n in (15, -10, 40):
        with pytest.raises(WindowError, match=rf"^the master identity at n={n} is outside its "
                                              r"reach \[-9, 14\] on the state window \[-10, 15\]$"):
            verify_master(state, n)
    for n in (14, 15, -10):
        with pytest.raises(WindowError, match=rf"^the linear relation at n={n} is outside its "
                                              r"reach \[-9, 13\] on the state window \[-10, 15\]$"):
            residual_linear(state, n)


@pytest.mark.parametrize(
    "kind,params",
    [("trig", {"r1": 1}), ("poly", {"a2": 1, "a0": 0, "a1": mpf(1) / 2})],
)
def test_identity_residuals_match_per_n_maxima(kind, params):
    # one pass over the window gives the very values of the per-n ratios,
    # each exact, the worst rounded once
    spec = FamilySpec(kind, 2, params)
    _L2, _partner, state, _extras = build_case(spec, (-12, 12))
    for window in ((-12, 12), (-40, 40)):
        for skew in (False, True):
            got = identity_residuals(state, window, skew=skew)
            assert got == exact_identity_residuals(state, window, skew)
            assert got[1] <= mpf("1e-9")


def test_solve_partner_recursive_geometric():
    state, _ = geometric_fixture((-14, 14))
    rec = solve_partner_recursive(
        state.U, state.W, state.curve, (state.s(-1), state.s(0)), 0, (-10, 10)
    )
    for n in range(-10, 11):
        dev = poly_dev(rec.s(n), state.s(n))
        assert dev <= mpf("1e-15") * max(state.s(n).sup_norm(), mpf(1))


def test_solve_partner_recursive_quartic():
    state = quartic_fixture((-14, 14))
    rec = solve_partner_recursive(
        state.U, state.W, state.curve, (state.s(-1), state.s(0)), 0, (-10, 10)
    )
    for n in range(-10, 11):
        dev = poly_dev(rec.s(n), state.s(n))
        assert dev <= mpf("1e-15") * max(state.s(n).sup_norm(), mpf(1))


def test_solve_partner_recursive_rejects_bad_seed():
    state, _ = geometric_fixture((-14, 14))
    with pytest.raises(InconsistentDataError):
        solve_partner_recursive(
            state.U,
            state.W,
            state.curve,
            (state.s(-1), ZPoly([state.s(0).coeff(0) + mpf("0.37"), *state.s(0).coeffs[1:]])),
            0,
            (-10, 10),
        )


def _profiles(state, basis, ns):
    """The z-polynomials A_j with S_n = sum_j A_j(z) phi_j(n), read off the
    S table at the basis.size values ns."""
    M = matrix([list(map(mp.make_mpf, basis.functions(n))) for n in ns])
    by_k = [lu_solve(M, [state.s(n).coeff(k) for n in ns]) for k in range(basis.g + 1)]
    return [ZPoly([col[j] for col in by_k]) for j in range(basis.size)]


def test_ansatz_trig_g1_closed_form():
    U, W = trig_family(1, 1, (-12, 12))
    state = ansatz_solve(TrigBasis(1), U, W).state(U, W, (-12, 12))
    # closed forms: S_n = A1(z) cos(n) + A3 cos(3n) with
    # A3 = sin(1/2)^2 / (1 - 2 cos 1)^3,
    # A1 = -z - (5 cos 1 - 2 cos 2 - 3) / (2 (1 - 2 cos 1)^2)
    a3_expected = sin(mpf(1) / 2) ** 2 / (1 - 2 * cos(1)) ** 3
    a1_const = -(5 * cos(1) - 2 * cos(2) - 3) / (2 * (1 - 2 * cos(1)) ** 2)
    a1, a3 = _profiles(state, TrigBasis(1), (0, 1))
    assert abs(a3.coeff(0) - a3_expected) <= mpf("1e-10") * abs(a3_expected)
    assert abs(a3.coeff(1)) <= mpf("1e-20")
    assert abs(a1.coeff(1) + 1) <= mpf("1e-10")
    assert abs(a1.coeff(0) - a1_const) <= mpf("1e-10") * abs(a1_const)
    # and the whole table follows the profiles
    for n in range(-12, 13):
        p1, p3 = a1_const * cos(n), a3_expected * cos(3 * n)
        assert abs(state.s(n).coeff(0) - (p1 + p3)) <= mpf("1e-10") * (abs(p1) + abs(p3))
        assert abs(state.s(n).coeff(1) + cos(n)) <= mpf("1e-10")


def test_ansatz_quartic_g1_closed_form():
    U, W = poly_family(1, 1, 0, 0, (-14, 14))
    state = ansatz_solve(EvenPowerBasis(1), U, W).state(U, W, (-14, 14))
    # S_n = B0 + B2(z) n^2 + B4 n^4 with B0 = 1/4, B2 = -9/4 - z, B4 = 1
    b0, b2, b4 = _profiles(state, EvenPowerBasis(1), (0, 1, 2))
    assert poly_dev(b4, ZPoly([1])) <= mpf("1e-10")
    assert poly_dev(b2, ZPoly([-mpf(9) / 4, -1])) <= mpf("1e-10")
    assert poly_dev(b0, ZPoly([mpf(1) / 4])) <= mpf("1e-10")
    for n in range(-14, 15):
        n2 = mpf(n) ** 2
        closed = ZPoly([mpf(1) / 4 - mpf(9) / 4 * n2 + n2**2, -n2])
        assert poly_dev(state.s(n), closed) <= mpf("1e-10") * (1 + n2 + n2**2)


def test_ansatz_geometric_g1_closed_form():
    U, W = geom_family(1, 1, 2, window=(-12, 12))
    result = ansatz_solve(GeomBasis(1, 2), U, W)
    state = result.state(U, W, (-12, 12))
    # S_n = G1(z) 2^n + G3 8^n with G1 = -z, G3 = 4/27
    g1, g3 = _profiles(state, GeomBasis(1, 2), (0, 1))
    assert poly_dev(g1, ZPoly([0, -1])) <= mpf("1e-10")
    assert poly_dev(g3, ZPoly([mpf(4) / 27])) <= mpf("1e-10")
    for n in range(-12, 13):
        closed = ZPoly([mpf(4) / 27 * mpf(8) ** n, -mpf(2) ** n])
        assert poly_dev(state.s(n), closed) <= mpf("1e-10") * (mpf(2) ** n + mpf(8) ** n)
    assert max(abs(c) for c in state.curve.c) <= mpf("1e-10")  # w^2 = z^3


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


def _solved_table(spec, window, fine=False):
    """The S table of ansatz_solve; with fine, the marches read U and W
    tabulated as build_case tabulates them for it."""
    U, W = family_from_spec(spec, window)
    tables = None
    if fine:
        with mp.workprec(mp.prec + RECURSION_GUARD_BITS):
            tables = family_from_spec(spec, window)
    basis = basis_for(spec)
    return basis, U, ansatz_solve(basis, U, W, tables).S


ODD5 = {"a2": "0.886695", "a1": "0.708451", "a0": "0.234504"}
ODD3 = {"a2": "1.5981", "a1": "0.569648", "a0": "0.47858"}


@pytest.mark.parametrize(
    "kind, g, params, window, fine, bound",
    [
        # dyadic parameters: the working tables of U and W are exact
        ("poly", 4, {"a2": 1, "a0": 0}, (-16, 24), False, "1e-29"),
        ("poly", 5, {"a2": 1, "a0": 0, "a1": "0.5"}, (-16, 26), False, "1e-29"),
        ("trig", 4, {"r1": 1}, (-16, 24), False, "1e-29"),
        ("geom", 4, {"a": 2, "beta": 1}, (-16, 24), False, "1e-29"),
        # rounded tables, with build_case's fine tables for the marches
        ("poly", 5, ODD5, (-28, 39), True, "1e-27"),
        ("poly", 3, ODD3, (-28, 39), True, "1e-29"),
        ("geom", 3, {"a": "2.272327", "beta": "1.614327"}, (-10, 20), True, "1e-29"),
        # rounded tables alone: the recursion amplifies their rounding
        # towards the table's edges (2.9e-20 and 2.7e-26 measured; the dense
        # solve this replaced gave 3.1e-25 and 1.5e-30)
        ("poly", 5, ODD5, (-28, 39), False, "1e-19"),
        ("poly", 3, ODD3, (-28, 39), False, "1e-25"),
    ],
)
def test_ansatz_table_matches_320_bit_solve(kind, g, params, window, fine, bound):
    spec = FamilySpec(kind, g, params)
    _, _, S = _solved_table(spec, window, fine)
    with mp.workprec(320):
        # the same family: the parameters as rounded at the working precision
        _, _, ref = _solved_table(FamilySpec(kind, g, spec.params), window)
        for n, p in S.items():
            dev = max(abs(a - b) for a, b in zip(p.coeffs, ref[n].coeffs))
            assert dev <= mpf(bound) * ref[n].sup_norm(), (n, dev)


def test_ansatz_rejects_fine_tables_of_another_family():
    # fine tables of another family differ at every site, and fine tables
    # of the same family moved by 1e-6 at two sites: the first site that
    # differs is named, U's before W's
    spec = FamilySpec("poly", 2, ODD3)
    U, W = family_from_spec(spec, (-12, 12))
    with mp.workprec(mp.prec + RECURSION_GUARD_BITS):
        other = family_from_spec(FamilySpec("poly", 2, {**ODD3, "a0": "0.5"}), (-12, 12))
        fine = family_from_spec(spec, (-12, 12))
        cases = [(other, "U", -12)]
        for name, sites, named in (("U", (5, -3), -3), ("W", (7, 2), 2)):
            moved, table = list(fine), "UW".index(name)
            vals = list(fine[table].values)
            for n in sites:
                vals[n + 12] *= 1 + mpf("1e-6")
            moved[table] = CoeffSeq(-12, vals)
            cases.append((moved, name, named))
    for tables, name, named in cases:
        with pytest.raises(InconsistentDataError,
                           match=f"^fine table of {name} disagrees with {name} at n={named}$"):
            ansatz_solve(basis_for(spec), U, W, tables)


@pytest.mark.parametrize("bits", (53, 113))
def test_fine_table_check_is_exact_at_its_bound(bits):
    # a fine value off the working one by exactly ANSATZ_TOL max(|v|, 1)
    # passes the check and one a hair further fails it, for |v| above 1
    # and below it
    spec = FamilySpec("poly", 2, ODD3)
    with mp.workprec(bits):
        U, W = family_from_spec(spec, (-12, 12))
    with mp.workprec(4 * bits):
        fine = family_from_spec(spec, (-12, 12))
        for name, n in (("U", 7), ("W", 0), ("U", 0)):
            table = U if name == "U" else W
            v = table.at(n)
            bound = dressing.ANSATZ_TOL * max(abs(v), 1)
            for extra, fails in ((0, False), (mpf(2) ** (-3 * bits), True)):
                vals = list(table.values)
                vals[n - table.n_min] = v + bound + extra
                seq = CoeffSeq(table.n_min, vals)
                tables = (seq, fine[1]) if name == "U" else (fine[0], seq)
                with mp.workprec(bits):
                    if fails:
                        with pytest.raises(InconsistentDataError,
                                           match=f"fine table of {name} .* n={n}$"):
                            ansatz_solve(basis_for(spec), U, W, tables)
                    else:
                        # a fine table this far off may leave no solution,
                        # but the check itself passes
                        try:
                            ansatz_solve(basis_for(spec), U, W, tables)
                        except InconsistentDataError as err:
                            assert "fine table" not in str(err)


@pytest.mark.parametrize("bits", (53, 113, 1100))
def test_power_bases_round_the_exact_integer_powers(bits):
    # mpf(n ** j) rounds the exact power once, as mpf(n) ** j does while the
    # power has fewer than 1000 bits; 2^35 is past every window used here
    with mp.workprec(bits):
        for g in (1, 6, 12):
            for n in (*range(-60, 61), 2**35 - 1, -(3**20)):
                x = mpf(n)
                want = [(x**j if j else mpf(1))._mpf_ for j in range(2 * g + 3)]
                assert PowerBasis(g).functions(n) == want, (g, n)
                assert EvenPowerBasis(g).functions(n) == want[::2][:g + 2]


PIN_SPECS = (
    FamilySpec("trig", 3, {"r1": "1.3"}),
    FamilySpec("poly", 3, {"a2": 1, "a0": "0.25", "a1": "0.5"}),
    FamilySpec("geom", 2, {"a": "1.764235", "beta": "0.895178"}),
)


def _reference_top_row(basis, U, sites):
    """{n: phi(n) . x} for the x of _reference_lstsq on the basis rows and
    -U_n of the pin-fit grid, each dot product an mpf sum from its first
    term, each product and sum rounded at the working precision."""
    reach = basis.size + 2
    grid = range(-reach, reach + 1)
    x, _ref = _reference_lstsq([list(map(mp.make_mpf, basis.functions(n))) for n in grid],
                               [-U.at(n) for n in grid])
    row = {}
    for n in sites:
        terms = [mp.make_mpf(phi) * c for phi, c in zip(basis.functions(n), x)]
        lead = terms[0]
        for t in terms[1:]:
            lead += t
        row[n] = lead._mpf_
    return row


@pytest.mark.parametrize("bits", (53, 113, 160, 1100))
def test_ansatz_top_row_is_the_pin_fit(bits):
    # the one check of the z^g row of S, which every other test of the
    # solver leaves out
    for spec in PIN_SPECS:
        with mp.workprec(bits):
            basis, U, S = _solved_table(spec, (-12, 16))
            want = _reference_top_row(basis, U, S)
            assert {n: p.raw[spec.g] for n, p in S.items()} == want, spec


@pytest.mark.parametrize("bits", (53, 113, 1100))
def test_pin_fit_matches_the_mpf_loop_bit_for_bit(bits):
    # _pin_top_row on the grid and on tables that reach past it on either
    # side; U tabulated at twice the precision holds values that the
    # negation rounds
    for spec in PIN_SPECS:
        for build_bits in (bits, 2 * bits):
            with mp.workprec(build_bits):
                U, _W = family_from_spec(spec, (-20, 20))
            with mp.workprec(bits):
                basis = basis_for(spec)
                for lo, hi in ((-3, 3), (-20, 4), (-1, 20)):
                    row = _pin_top_row(basis, U, lo, hi)
                    reach = basis.size + 2
                    sites = range(min(lo, -reach), max(hi, reach) + 1)
                    assert row == _reference_top_row(basis, U, sites), (spec, build_bits, lo)


@pytest.mark.parametrize("bits", (53, 113))
def test_pin_fit_refuses_exactly_above_its_tolerance(bits):
    # U_0 moved off the basis span by about the tolerance: the fit refuses
    # exactly when max |phi(n) . x + U_n| over the grid, in Fractions,
    # exceeds ANSATZ_TOL times the larger of 1 and max |U_n|
    with mp.workprec(bits):
        U, _W = trig_family(2, "1.3", (-8, 8))
        basis = TrigBasis(2)
        reach = basis.size + 2
        verdicts = set()
        for k in range(-12, 13):
            vals = list(U.values)
            vals[8] += mpf("1.6e-9") * (1 + mpf(k) / 20)
            bent = CoeffSeq(-8, vals)
            row = _reference_top_row(basis, bent, range(-reach, reach + 1))
            resid = max(abs(_fraction(row[n]) + fraction_of(bent.at(n))) for n in row)
            scale = max(Fraction(1), *(abs(fraction_of(bent.at(n))) for n in row))
            refuse = resid > fraction_of(dressing.ANSATZ_TOL) * scale
            verdicts.add(refuse)
            if refuse:
                with pytest.raises(InconsistentDataError, match="not in the span of basis 'trig'"):
                    _pin_top_row(basis, bent, -8, 8)
            else:
                _pin_top_row(basis, bent, -8, 8)
        assert verdicts == {False, True}


def test_ansatz_rejects_perturbed_w():
    U, W = trig_family(2, 1, (-14, 14))
    W = CoeffSeq.tabulate(lambda n: W.at(n) * (1 + mpf("1e-6")), W.window)
    with pytest.raises(InconsistentDataError, match="n="):
        ansatz_solve(TrigBasis(2), U, W)


def test_ansatz_singular_constant_fit_is_a_rank_error():
    # the genus-1 quadratic family has a one-parameter set of genus-2
    # solutions, S_n (z + alpha), so the constants are not determined
    U, W = poly_family(1, 1, 0, 0, (-14, 14))
    with pytest.raises(RankDeficiencyError, match="ansatz constant fit"):
        ansatz_solve(EvenPowerBasis(2), U, W)


class _Anchor(Exception):
    """Carries the n0 that ansatz_solve hands to its constant fit."""


@pytest.mark.parametrize("bits", (53, 113, 160))
def test_ansatz_anchor_is_the_first_smallest_abs_u(monkeypatch, bits):
    # n0 is the first n of smallest |U_n| as mpf's abs rounds it, clamped
    # into the relation rows [lo + 1, hi - 2]: ties of either sign, a value
    # wider than bits that rounds onto a later exact 1, exact zeros, and a
    # smallest value at the window's edge
    def stop(dc, D, inv, top, g, n0, span):
        raise _Anchor(n0)

    monkeypatch.setattr(dressing, "_fit_rows", stop)
    # the tables below are no family: skip the basis fit of -U_n
    monkeypatch.setattr(dressing, "_pin_top_row", lambda basis, U, lo, hi: {})
    with mp.workprec(bits):
        U, W = poly_family(2, 1, 0, 0, (-12, 12))
        with mp.workprec(2 * bits):
            above, below = 1 + mpf(2) ** -(bits + 3), 1 - mpf(2) ** -(bits + 3)
        assert all(v._mpf_[3] > bits and +v == 1 for v in (above, below))
        base = [mpf(3 + (n % 5)) for n in range(-12, 13)]

        def with_values(**at):
            vals = list(base)
            for n, v in at.items():
                vals[int(n[1:]) * (-1 if n[0] == "m" else 1) + 12] = v
            return CoeffSeq(-12, vals)

        tables = [
            U,
            with_values(m7=mpf(-1), p4=mpf(1)),
            with_values(m5=above, p2=mpf(1)),
            with_values(m5=mpf(1), p2=below),
            with_values(p8=mpf(0), p10=mpf(0), m3=mpf("0.5")),
            with_values(m12=mpf("0.25"), p3=mpf("0.5")),
            with_values(p12=mpf("0.25"), p11=mpf("0.5")),
        ]
        picks = []
        for table in tables:
            with pytest.raises(_Anchor) as got:
                ansatz_solve(EvenPowerBasis(2), table, W)
            want = min(range(-12, 13), key=lambda n: abs(table.at(n)))
            assert got.value.args[0] == min(max(want, -11), 10)
            picks.append(got.value.args[0])
        assert picks == [0, -7, -5, -5, 8, -11, 10]


def test_ansatz_solve_assembles_no_state(monkeypatch):
    # the solve returns the S table only; each state recovers its own curve
    calls = []
    assemble = DressingState.from_s_table.__func__

    def counted(cls, *args, **kwargs):
        calls.append(args)
        return assemble(cls, *args, **kwargs)

    monkeypatch.setattr(DressingState, "from_s_table", classmethod(counted))
    U, W = trig_family(2, 1, (-14, 14))
    result = ansatz_solve(TrigBasis(2), U, W)
    assert calls == []
    assert not hasattr(result, "curve")


@pytest.mark.parametrize("bits", (53, 113, 160))
@pytest.mark.parametrize("spec", [
    FamilySpec("trig", 2, {"r1": "1.3"}),
    FamilySpec("poly", 3, ODD5),
    FamilySpec("geom", 2, {"a": 2, "beta": 1}),
], ids=("trig", "poly", "geom"))
def test_state_curve_is_read_at_n0(spec, bits):
    # a window holding n = -1..2 recovers its curve from S_{-1..2}, as the
    # state on (-2, 3) does, whatever its width
    with mp.workprec(bits):
        U, W = family_from_spec(spec, (-12, 16))
        result = ansatz_solve(basis_for(spec), U, W)
        want = raws(result.state(U, W, (-2, 3)).curve.c)
        for window in ((-1, 2), (-10, 14), (-12, 16), (-3, 9)):
            got = result.state(U, W, window).curve.c
            assert raws(got) == want, window


def test_state_without_n0_reads_its_curve_at_lo_plus_1():
    # an S table on (3, 17) holds no n = 0: the curve comes from the master
    # identity at n = 4, the first site whose Q_n, Q_{n+1} and Q_{n+2} are
    # tabulated, each coefficient the Fraction ratio rounded once
    U, W = trig_family(2, mpf("1.3"), (-12, 20))
    result = ansatz_solve(TrigBasis(2), U, W)
    state = DressingState.from_s_table(U, W, {n: result.S[n] for n in range(3, 18)})
    assert raws(state.curve.c) == raws(fraction_curve(state, 4))
    assert raws(state.curve.c) != raws(fraction_curve(state, 5))
    assert verify_master(state, 4) <= mpf("1e-30")


@pytest.mark.parametrize("bits", (53, 113))
def test_off_centre_state_takes_the_curve_at_n0(bits):
    # geom S_n grows as 8^n: the master identity at n = 19 is a difference
    # of terms near 8^38, so a state on (18, 29) takes the curve the table's
    # sites -2..3 give, and its master identity holds to working precision
    spec = FamilySpec("geom", 1, {"a": 2, "beta": 1})
    with mp.workprec(bits):
        U, W = family_from_spec(spec, (-5, 31))
        result = ansatz_solve(basis_for(spec), U, W)
        want = raws(result.state(U, W, (-2, 3)).curve.c)
        state = result.state(U, W, (18, 29))
        assert raws(state.curve.c) == want
        for n in range(19, 28):
            # the largest |coefficient| of S_n^2
            (s,), e = raw_ints([state.s(n).raw])
            scale = mp.make_mpf(rround(max(map(abs, poly_mul(s, s))), 2 * e, bits))
            assert verify_master(state, n) <= mpf(2) ** (10 - bits) * scale, n


def test_curve_recovery_needs_four_sites():
    U, W = trig_family(1, 1, (-12, 12))
    result = ansatz_solve(TrigBasis(1), U, W)
    want = raws(result.state(U, W, (-2, 3)).curve.c)
    for window in ((5, 5), (-1, 1), (4, 7)):
        state = result.state(U, W, window)
        assert raws(state.curve.c) == want, window
    # a table of three sites names the four the recovery reads, from its low end
    for lo, hi, sites in ((-1, 1, "[-1, 2]"), (5, 5, "[5, 8]"), (-9, -7, "[-9, -6]")):
        with pytest.raises(WindowError, match=re.escape(
                f"curve recovery reads S at the four sites {sites}; the S table holds [{lo}, {hi}]")):
            DressingState.from_s_table(U, W, {n: result.S[n] for n in range(lo, hi + 1)})


def test_ansatz_state_outside_the_table():
    U, W = trig_family(1, 1, (-12, 12))
    result = ansatz_solve(TrigBasis(1), U, W)
    assert result.state(U, W, (-12, 12)).window == (-12, 12)
    with pytest.raises(WindowError):
        result.state(U, W, (-13, 10))


def test_ansatz_small_table_asks_for_a_wider_one():
    # U and W cover the pin grid |n| <= 8 and give 17 relation rows for the
    # 15 constants, which they do not determine
    U, W = trig_family(5, 1, (-10, 10))
    with pytest.raises(RankDeficiencyError, match="wider window"):
        ansatz_solve(TrigBasis(5), U, W)
    U, W = trig_family(5, 1, (-10, 12))
    assert ansatz_solve(TrigBasis(5), U, W).info["resid_rel"] <= mpf("1e-25")


def test_ansatz_needs_3g_relation_rows():
    # rows n = -7..6 of the four-term relation for 15 constants
    U, W = trig_family(5, 1, (-8, 8))
    with pytest.raises(WindowError, match="14 relation rows for 15 constants"):
        ansatz_solve(TrigBasis(5), U, W)


def test_recursive_matches_ansatz():
    U, W = trig_family(1, 1, (-16, 16))
    result = ansatz_solve(TrigBasis(1), U, W)
    state = result.state(U, W, (-12, 12))
    rec = solve_partner_recursive(
        U, W, state.curve, (state.s(-1), state.s(0)), 0, (-12, 12)
    )
    for n in range(-12, 13):
        dev = poly_dev(rec.s(n), state.s(n))
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
    Pc = CurvePoint(P.z, -P.w)
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
    P = CurvePoint(z, -state.s(-1).eval(z))
    assert abs(P.w**2 - state.curve.fpoly().eval(z)) <= mpf("1e-30")
    with pytest.raises(DegenerateDenominatorError):
        baker_akhiezer(state, P, -1)


def test_baker_akhiezer_eigen_relations():
    state, _ = geometric_fixture()
    L2 = l2_operator(state.U, state.W)
    L3 = build_partner_op(state, L2)
    P = curve_point(state.curve, mpf(2), 1)
    psi = CoeffSeq.tabulate(lambda n: baker_akhiezer(state, P, n), (-13, 13))
    l2psi = apply_scalars(L2, psi)
    l3psi = apply_scalars(L3, psi)
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
    # elliptic_family's L3 is the partner of its own full-window state; the
    # partner of a narrower state agrees with it, and test_families checks
    # both against the closed form
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
    _, rel = commutator_residual(L2, L3)
    assert rel <= mpf("1e-10")


def test_factorization_check_cases():
    state, _ = geometric_fixture()
    L2 = l2_operator(state.U, state.W)
    P = curve_point(state.curve, mpf(2), 1)
    psi = CoeffSeq.tabulate(lambda n: baker_akhiezer(state, P, n), (-10, 10))
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
        U, W, state.curve, (state.s(-1), state.s(0)), 0, (-10, 10)
    )
    for n in range(-10, 11):
        dev = poly_dev(rec.s(n), state.s(n))
        assert dev <= mpf("1e-12") * max(state.s(n).sup_norm(), mpf(1))

    L2 = l2_operator(U, W)
    L5 = build_partner_op(state, L2)
    assert L5.order == 5 and L5.is_monic() and L5.is_positive
    P = curve_point(state.curve, mpf(30), 1)  # above the largest branch point
    psi = CoeffSeq.tabulate(lambda n: baker_akhiezer(state, P, n), (-9, 12))
    l2psi = apply_scalars(L2, psi)
    l5psi = apply_scalars(L5, psi)
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
        assert identity_residuals(state, (-8, 8))[0] <= mpf("1e-9")
    finally:
        set_precision(113)


# ---------------------------------------------------------------------------
# bit-identity oracles: each value the exact one over Fractions, rounded
# once, and the level recursion marched over Fractions
# ---------------------------------------------------------------------------


def _on_fractions(march):
    """The Fraction march of oracles (fraction_march) with the exact-table
    interface of `_march`: its tables converted to Fractions and back."""
    def exact_march(dc, D, inv, top, seeds, n0, span):
        a, b = span
        fd, fi = ({n: v for n, (v,) in fraction_table(t, a + 1).items()} for t in (D, inv))
        seeds = [[[v * Fraction(2) ** e for v in vec] for vec in seed] for seed, e in seeds]
        top = {n: v for n, v in fraction_table(top, a).items() if n <= b}
        levels = march(fraction_table(dc, a + 1), fd, fi, top, seeds, n0, span)
        return [exact_table(lv) for lv in levels]

    return exact_march


def _once(x):
    """The Fraction x rounded once at mp.prec, as a Fraction."""
    return fraction_of(rounded_fraction(x))


def _recursion_inputs(U, W, g, fine=None):
    """ansatz_solve's recursion inputs as Fractions: the four d_i c_i, D_n
    and 1 / (D_n D_{n+2}), each exact over the stored fine tables (U and W
    without them; the factors by oracles.fraction_four_term) and rounded
    once RECURSION_GUARD_BITS above mp.prec, dc and the inverses on the
    relation's rows, D on lo + 1..hi; level g, the exact -U_n on [lo, hi];
    n0, the first argmin |U_n| at mp.prec clamped into the rows; and the
    span of the constant fit's march."""
    lo, hi = max(U.window[0], W.window[0]), min(U.window[1], W.window[1])
    rlo, rhi = lo + 1, hi - 2
    n0 = min(max(min(range(lo, hi + 1), key=lambda n: abs(U.at(n))), rlo), rhi)
    span = max(rlo, n0 - 3 * g - 2) - 1, min(rhi, n0 + 3 * g + 2) + 2
    Uf, Wf = fine or (U, W)
    u = {n: fraction_of(Uf.at(n)) for n in range(lo, hi + 1)}
    D = {n: u[n - 1] + u[n] for n in range(lo + 1, hi + 1)}
    with mp.workprec(mp.prec + RECURSION_GUARD_BITS):
        dc = {n: [_once(d * c) for _s, c, d in fraction_four_term(Uf, Wf, n)]
              for n in range(rlo, rhi + 1)}
        inv = {n: _once(1 / (D[n] * D[n + 2])) for n in dc}
        D = {n: _once(v) for n, v in D.items()}
    return dc, D, inv, {n: [-v] for n, v in u.items()}, n0, span


def _exact_inputs(dc, D, inv, top, a):
    """The inputs of _recursion_inputs as dressing's exact tables for a
    march from n = a: top from a, the others from a + 1."""
    def table(t, start):
        return exact_table({n: v for n, v in t.items() if n >= start})

    return (table(dc, a + 1), table({n: [v] for n, v in D.items()}, a + 1),
            table({n: [v] for n, v in inv.items()}, a + 1), table(top, a))


def _column_seeds(g):
    """The seeds of a march of all 3g + 1 columns: level m's the unit
    vectors of entries 1 + 3 (g - 1 - m) + i, as Fractions."""
    return [[[Fraction(int(k == i)) for k in range(j + 3)] for i in range(j, j + 3)]
            for j in range(1, 3 * g + 1, 3)]


def _every_column(dc, D, inv, top, g, n0, span):
    """Level 0 of the 3g + 1 fit columns marched apart over Fractions
    (oracles.fraction_march) on span = [a, b], and its z^0 rows at n = a +
    1..b - 2, exact."""
    s0 = fraction_march(dc, D, inv, top, _column_seeds(g), n0, span)[-1]
    return s0, {n: fraction_row(dc[n], [s0[n + k] for k in (-1, 0, 1, 2)])
                for n in range(span[0] + 1, span[1] - 1)}


def _worst_z0_ratio(U, W, dc, levels):
    """ansatz_solve's worst z^0 ratio over Fractions: at each row n of dc,
    |R_n| from level 0 of levels (g down to 0, each {n: [Fraction]}) over
    max_i |d_i| max(|c_i|, 1) max_m |s_{n+s_i,m}|, the factors those of
    oracles.fraction_four_term; exact."""
    return max(abs(fraction_row(dc[n], [levels[-1][n + k] for k in (-1, 0, 1, 2)])[0])
               / max(abs(d) * max(abs(c), 1) * max(abs(lv[n + s][0]) for lv in levels)
                     for s, c, d in fraction_four_term(U, W, n))
               for n in dc)


FIT_FAMILIES = [("trig", {"r1": "1.3"}), ("poly", {"a2": "0.886695", "a0": "0.234504"}),
                ("poly", ODD5), ("geom", {"a": "1.764235", "beta": "0.895178"})]


@pytest.mark.parametrize("bits", (53, 113, 160, 1100))
@pytest.mark.parametrize("kind, params", FIT_FAMILIES)
def test_fit_rows_match_the_march_of_every_column_bit_for_bit(kind, params, bits):
    # the 3g + 1 fit columns marched apart over Fractions, on every genus up
    # to 6: the level map is the same at every level, so the exact
    # four-column march holds each level's constant columns of level 0 at
    # level g - 1 - m, exactly; each fit-row entry is the exact entry
    # rounded once at the guard precision the fit runs at; and some level-0
    # value needs more bits than that precision
    for g in range(1, 7):
        with mp.workprec(bits):
            U, W = family_from_spec(FamilySpec(kind, g, params), (-10, 12))
            dc, D, inv, top, n0, span = _recursion_inputs(U, W, g)
        s0, exact_rows = _every_column(dc, D, inv, top, g, n0, span)
        tables = _exact_inputs(dc, D, inv, top, span[0])
        units = [[0, *(int(k == i) for k in range(3))] for i in range(3)], 0
        four = dressing._march(*tables, [units, *[([[0] * 4] * 3, 0)] * (g - 1)], n0, span)
        low, cols = (fraction_table(four[-1], span[0]),
                     [fraction_table(lv, span[0]) for lv in four[:0:-1]])
        for n in range(span[0], span[1] + 1):
            assert [low[n][0], *(v for lv in cols for v in lv[n][1:])] == s0[n], (g, n)
        with mp.workprec(bits + RECURSION_GUARD_BITS):
            rows = dressing._fit_rows(*tables, g, n0, span)
            assert rows == {n: raws(map(rounded_fraction, r)) for n, r in exact_rows.items()}, g
            assert any(_once(v) != v for vs in s0.values() for v in vs), g
        assert len(rows[n0]) == 3 * g + 1


def _reference_ansatz_solve(g, U, W, fine=None):
    """ansatz_solve's coefficients below z^g and its worst z^0 ratio, with
    its recursion over Fractions on the solver's rounded inputs
    (_recursion_inputs): the fit rows of _every_column, each entry rounded
    once at the guard precision and the rows scaled and fitted as the
    solver does; the scalar march over Fractions, each coefficient below
    z^g rounded once at the working precision; and the exact worst ratio
    (_worst_z0_ratio).  Checks and messages are left out.  Returns {n: the
    raw coefficients of z^0..z^(g-1)} and the ratio; the z^g row is the pin
    fit's, which test_ansatz_top_row_is_the_pin_fit checks."""
    dc, D, inv, top, n0, span = _recursion_inputs(U, W, g, fine)
    with mp.workprec(mp.prec + RECURSION_GUARD_BITS):
        rows, rhs = [], []
        for r in _every_column(dc, D, inv, top, g, n0, span)[1].values():
            r = [rounded_fraction(v) for v in r]
            row, b = r[1:], -r[0]
            big = max(abs(v) for v in row)
            if big:
                # a power of two puts the largest |entry| in [1/2, 1), exactly
                k = -sum(big._mpf_[2:])
                row, b = [ldexp(v, k) for v in row], ldexp(b, k)
            rows.append(raws(row))
            rhs.append(b._mpf_)
        x = [_fraction(v) for v in linalg.lstsq(rows, rhs)[0]]
    seeds = [([x[j]], [x[j + 1]], [x[j + 2]]) for j in range(0, 3 * g, 3)]
    levels = fraction_march(dc, D, inv, top, seeds, n0, (min(top), max(top)))
    below = {n: raws(rounded_fraction(lv[n][0]) for lv in levels[:0:-1]) for n in top}
    return below, _worst_z0_ratio(*(fine or (U, W)), dc, levels)


TRAP_FAMILIES = [("poly", 3, ODD5), ("trig", 2, {"r1": "1.3"})]


@pytest.mark.parametrize("bits", (53, 113, 160, 1100))
def test_verify_master_and_residual_linear_are_exact(bits):
    # tables of trap values (exact 0 and +-1, negative and wide values): each
    # coefficient of R_n, and the largest |coefficient| of the master
    # residual, is the Fraction value rounded once
    rng = random.Random(bits + 3)
    pool = trap_values(rng, bits)
    with mp.workprec(bits):
        for g in (1, 2, 3):
            U, W = (CoeffSeq(-4, [rng.choice(pool) for _ in range(9)]) for _ in range(2))
            S = {n: ZPoly([rng.choice(pool) for _ in range(g + 1)]) for n in range(-4, 5)}
            Q = {n: ZPoly([*(rng.choice(pool) for _ in range(g)), 1]) for n in range(-3, 5)}
            curve = HyperellipticCurve(g, [rng.choice(pool) for _ in range(2 * g + 1)])
            state = DressingState(U, W, curve, S, Q)
            for n in range(-3, 4):
                r, _scale = exact_master(state, n)
                ref = rounded_fraction(max(map(abs, r)))
                assert verify_master(state, n)._mpf_ == ref._mpf_, n
            for n in range(-3, 3):
                r, _scale = exact_linear(state, n)
                ref = [rounded_fraction(v) for v in r]
                while ref and ref[-1] == 0:
                    ref.pop()
                assert residual_linear(state, n).raw == raws(ref), n


@pytest.mark.parametrize("bits", (53, 113, 160, 1100))
def test_four_term_factors_are_the_fraction_factors_exactly(bits):
    # family tables at the working precision and at twice it, and tables of
    # trap values (exact 0 and +-1, negative and wide values), read as ints
    # the way _exact_checks and ansatz_solve read them: each c_i and d_i is
    # the Fraction factor of the stored U and W, with no rounding
    rng = random.Random(bits + 11)
    pool = trap_values(rng, bits)
    tables = [(CoeffSeq(-6, [rng.choice(pool) for _ in range(13)]),
               CoeffSeq(-6, [rng.choice(pool) for _ in range(13)])) for _ in range(4)]
    for kind, g, params in TRAP_FAMILIES:
        for build_bits in (bits, 2 * bits):
            with mp.workprec(build_bits):
                tables.append(family_from_spec(FamilySpec(kind, g, params), (-6, 6)))
    with mp.workprec(bits):
        for U, W in tables:
            ((u,), eu), ((w,), ew) = raw_ints([U.values_on(-6, 6)]), raw_ints([W.values_on(-6, 6)])
            ec = min(2 * eu, ew)
            # the factor columns of the rows n = -5.. from U_{-6..} and W_{-5..}
            factors = dressing._four_term(u, w[1:], 2 * eu - ec, ew - ec)
            for n in range(-5, 4):
                got = [(s, c[n + 5] * Fraction(2) ** ec, d[n + 5] * Fraction(2) ** eu)
                       for s, (c, d) in zip((-1, 0, 1, 2), factors)]
                assert got == list(fraction_four_term(U, W, n)), n


@pytest.mark.parametrize("bits", (53, 113, 160, 1100))
@pytest.mark.parametrize("kind, g, params", TRAP_FAMILIES)
def test_ansatz_solve_is_the_fraction_recursion_bit_for_bit(kind, g, params, bits):
    # the working tables, build_case's fine ones, and tables tabulated at
    # twice the precision, whose negation rounds; the parameters are read
    # at the working precision, so that the tables are as wide as it
    window = (-12, 16)
    with mp.workprec(bits):
        spec = FamilySpec(kind, g, params)
        basis = basis_for(spec)
        U, W = family_from_spec(spec, window)
        with mp.workprec(bits + RECURSION_GUARD_BITS):
            fine = family_from_spec(spec, window)
        with mp.workprec(2 * bits):
            wide = family_from_spec(spec, window)
        for tables, extra in (((U, W), None), ((U, W), fine), (wide, None)):
            result = ansatz_solve(basis, *tables, extra)
            below, worst = _reference_ansatz_solve(g, *tables, extra)
            assert sorted(result.S) == sorted(below)
            for n, coeffs in below.items():
                assert raws(result.S[n].coeff(k) for k in range(g)) == coeffs, n
            assert result.info["resid_rel"]._mpf_ == rounded_fraction(worst)._mpf_


@pytest.mark.parametrize("bits", (53, 113, 160))
def test_ansatz_residual_is_the_exact_worst_ratio_rounded_once(monkeypatch, bits):
    # the scalar march's exact level-0 values, recorded as the solver
    # marched them, give each z^0 row's residual over Fractions, and with
    # the exact factors d_i and c_i its scale; info["resid_rel"] is the
    # worst ratio rounded once at the working precision
    march, calls = dressing._march, []

    def recording(*args):
        calls.append((args, march(*args)))
        return calls[-1][1]

    monkeypatch.setattr(dressing, "_march", recording)
    for kind, g, params in (("trig", 4, {"r1": "1.3"}), ("poly", 3, ODD3),
                            ("geom", 2, {"a": "2", "beta": "1"})):
        spec = FamilySpec(kind, g, params)
        with mp.workprec(bits):
            U, W = family_from_spec(spec, (-12, 16))
            result = ansatz_solve(basis_for(spec), U, W)
            (dc, *_, (a, _b)), levels = calls[-1]
            worst = _worst_z0_ratio(U, W, fraction_table(dc, a + 1),
                                    [fraction_table(lv, a) for lv in levels])
            assert worst > 0
            assert result.info["resid_rel"]._mpf_ == rounded_fraction(worst)._mpf_, kind


@pytest.mark.parametrize("sites, row", [((12,), 12), ((-12,), -13), ((12, -12), -13)],
                         ids=["12-12", "-12--13", "12,-12--13"])
def test_ansatz_rejects_a_z0_row_above_tolerance_naming_n(sites, row):
    # W off by 1e-6 at sites outside the fit rows: the constants fit, and
    # the first z^0 row whose exact residual exceeds ANSATZ_TOL times its
    # scale is named, with its ratio, the lower one of two off sites
    U, W = trig_family(2, 1, (-14, 14))
    vals = list(W.values)
    for site in sites:
        vals[site - W.n_min] *= 1 + mpf("1e-6")
    with pytest.raises(InconsistentDataError, match=(
            rf"z\^0 row of the four-term relation at n={row} has relative residual 0\.0+[1-9]")):
        ansatz_solve(TrigBasis(2), U, CoeffSeq(W.n_min, vals))


@pytest.mark.parametrize("bits", (53, 113, 160, 1100))
@pytest.mark.parametrize("kind, g, params", [
    *TRAP_FAMILIES, ("geom", 2, {"a": "1.764235", "beta": "0.895178"}), ("elliptic", 1, {}),
])
def test_identity_residuals_are_exact_ratios_rounded_once(kind, g, params, bits):
    # states built at the working precision and at twice it, each from
    # parameters read at its own precision, whose curve coefficients and
    # tables carry bits that abs and negation round, on windows inside the
    # state and clipped at its low end, its high end and both; (6, 8) lies
    # above n = 0, and its skew still compares n = 0.. ; the last two hold
    # one linear row, and end past the last linear row at the last master site
    for build_bits in (bits, 2 * bits):
        with mp.workprec(build_bits):
            _L2, _partner, state, _extras = build_case(FamilySpec(kind, g, params), (-4, 4))
        s_hi = state.window[1]
        with mp.workprec(bits):
            for window in ((-4, 4), (-40, 1), (-1, 40), (-40, 40), (6, 8), (s_hi - 2, s_hi + 5),
                           (s_hi - 4, s_hi - 1)):
                for skew in (False, True):
                    got = identity_residuals(state, window, skew=skew)
                    ref = exact_identity_residuals(state, window, skew)
                    assert raws(got) == raws(ref), (build_bits, window, skew)


def _exact_l2(U, W):
    """(T + U_n)^2 + W_n in Fractions: the square rounded once at the
    working precision, then the sum with W rounded once."""
    t_u = fraction_op(DiffOp.build({1: 1, 0: U}, U.window))
    sq = rounded_op(_fraction_compose(t_u, t_u), mp.prec)
    return rounded_op(_fraction_sum(fraction_op(sq), fraction_op(DiffOp({0: W}))), mp.prec)


def _assert_same_op(L, ref):
    assert L.window == ref.window and sorted(L.terms) == sorted(ref.terms)
    for j, t in L.terms.items():
        assert raws(t.values) == raws(ref.terms[j].values), j


def _assert_mpf_only(L2, partner, state):
    for op in (L2, partner):
        assert all(type(v) is mpf for t in op.terms.values() for v in t.values)
    for table in (state.S, state.Q):
        assert all(type(c) is mpf for p in table.values() for c in p.coeffs)
    assert all(type(v) is mpf for seq in (state.U, state.W) for v in seq.values)


@pytest.mark.parametrize("bits", (113, 160))
@pytest.mark.parametrize("kind, params", [
    ("trig", {"r1": "1.3"}),
    ("poly", ODD5),
    ("geom", {"a": "1.764235", "beta": "0.895178"}),
])
def test_pipeline_matches_dense_references_bit_for_bit(monkeypatch, kind, params, bits):
    for g in range(1, 6):
        with mp.workprec(bits):
            spec = FamilySpec(kind, g, params)
            L2, partner, state, extras = build_case(spec, (-4, 4))
            _assert_mpf_only(L2, partner, state)
            _assert_same_op(partner, exact_partner(state, L2))
            with monkeypatch.context() as m:
                m.setattr(dressing, "_march", _on_fractions(fraction_march))
                _, _, ref_state, ref_extras = build_case(spec, (-4, 4))
            assert extras == ref_extras
            assert state.window == ref_state.window
            for n in range(state.window[0], state.window[1] + 1):
                assert raws(state.s(n).coeffs) == raws(ref_state.s(n).coeffs), (g, n)
            assert raws(state.curve.c) == raws(ref_state.curve.c)


@pytest.mark.parametrize("bits", (113, 160))
def test_elliptic_state_and_partner_match_references_bit_for_bit(bits):
    # s_n = sigma_n sqrt(F1(gamma_n)), formed once per n, against the
    # per-use evaluation of the curve polynomial
    with mp.workprec(bits):
        curve = HyperellipticCurve(1, (mpf("0.2"), mpf("-1.1"), mpf("0.3")))
        gamma = CoeffSeq.tabulate(lambda n: mpf(2) + mpf(n * 7 % 11) / 13, (-12, 13))
        sigma = CoeffSeq.tabulate(lambda n: mpf((-1) ** (n // 3)), (-12, 13))
        for sig in (None, sigma):
            state = elliptic_dressing_state(curve, gamma, sig)
            L2 = state.l2()
            partner = build_partner_op(state, L2)
            _assert_mpf_only(L2, partner, state)
            _assert_same_op(partner, exact_partner(state, L2))

            def s_ref(n):
                root = mp.sqrt(curve.fpoly().eval(gamma.at(n)))
                return root if sig is None else sig.at(n) * root

            for n in range(-12, 13):
                u = -(s_ref(n) + s_ref(n + 1)) / (gamma.at(n) - gamma.at(n + 1))
                ref = ZPoly([s_ref(n) + u * gamma.at(n), -u])
                assert raws(state.s(n).coeffs) == raws(ref.coeffs), n


def _wide(vals, p):
    """Some value of vals has more than p significant bits."""
    return any(v._mpf_[3] > p for v in vals)


def _rounded(seq):
    """seq's values rounded to the working precision."""
    return CoeffSeq(seq.n_min, [+v for v in seq.values])


@pytest.mark.parametrize("bits", (53, 113, 160))
def test_l2_operator_window_and_bits_match_the_exact_square_and_sum(bits):
    rng = random.Random(bits)
    with mp.workprec(2 * bits):
        def seq(window):
            return CoeffSeq.tabulate(lambda n: mpf(rng.uniform(-3, 3)) / 7, window)

        tables = [(seq((-12, 12)), seq((-8, 8))), (seq((-5, 6)), seq((-9, 10)))]
    with mp.workprec(bits):
        # U wider than W, then W wider than U; each table at twice bits and
        # rounded to bits, with the square and the sum each exact and
        # rounded once
        for U2, W2 in tables:
            _assert_same_op(l2_operator(U2, W2), _exact_l2(U2, W2))
            U, W = _rounded(U2), _rounded(W2)
            _assert_same_op(l2_operator(U, W), _exact_l2(U, W))
        assert [l2_operator(U, W).window for U, W in tables] == [(-8, 8), (-5, 5)]
        assert _wide(tables[0][0].values, bits)


def test_l2_operator_on_too_small_a_window_is_a_window_error():
    U = CoeffSeq.tabulate(lambda n: mpf(n) / 3, (0, 4))
    W = CoeffSeq.tabulate(lambda n: mpf(n) / 5, (-3, 6))
    with pytest.raises(WindowError):
        l2_operator(CoeffSeq(2, [mpf(1) / 3]), W)  # no U_{n+1}
    with pytest.raises(WindowError):
        l2_operator(U, CoeffSeq(4, [mpf(1) / 5]))  # U_5 missing
    with pytest.raises(WindowError):
        l2_operator(U, CoeffSeq(-4, [mpf(1) / 5]))  # disjoint
    assert l2_operator(U, W).window == (0, 3)


@pytest.mark.parametrize("bits", (53, 113, 160, 1100))
@pytest.mark.parametrize("kind, g, params", [
    ("trig", 2, {"r1": "1.3"}), ("poly", 3, ODD5), ("geom", 2, {"a": "2.272327", "beta": "1.614327"}),
])
def test_partner_of_a_wider_state_is_the_exact_assembly(kind, g, params, bits):
    # the state's tables at 2p, and an L2 at 2p, enter the exact assembly
    # unrounded; each coefficient of the partner is rounded once.  The
    # partner lies on [max(s_lo + 1, L2_lo), min(s_hi, L2_hi - 2g - 1)]: the
    # state cut to S on [-7, 6], and L2 cut to start one or two sites inside
    # its left end and to end from 3 sites before its right end to 3 sites
    # past the end at which L2_hi - 2g - 1 reaches it, or to leave the
    # partner one site or none, a WindowError
    with mp.workprec(2 * bits):
        wide_l2, _, state, _ = build_case(FamilySpec(kind, g, params), (-6, 6))
    slo, shi = -7, 6
    cut = DressingState(state.U, state.W, state.curve,
                        {n: state.S[n] for n in range(slo, shi + 1)},
                        {n: state.Q[n] for n in range(slo + 1, shi + 1)})
    windows = [(lo, hi) for lo in (slo + 1, slo + 2) for hi in range(shi - 3, shi + 2 * g + 5)]
    with mp.workprec(bits):
        for L2 in (l2_operator(_rounded(state.U), _rounded(state.W)), wide_l2):
            _assert_same_op(build_partner_op(state, L2), exact_partner(state, L2))
        for lo, hi in windows + [(slo + 1, slo + 2 * g + 2)]:
            L2 = DiffOp(wide_l2.terms, (lo, hi))
            partner = build_partner_op(cut, L2)
            assert partner.window == (max(slo + 1, lo), min(shi, hi - 2 * g - 1))
            _assert_same_op(partner, exact_partner(cut, L2))
        with pytest.raises(WindowError):
            build_partner_op(cut, DiffOp(wide_l2.terms, (slo + 1, slo + 2 * g + 1)))
        assert _wide((c for table in (state.S, state.Q) for p in table.values()
                      for c in p.coeffs), bits)
        assert _wide((v for t in wide_l2.terms.values() for v in t.values), bits)


def _elliptic_gamma(at0=None):
    """gamma_n = 2 + (n mod 3) / 7 on [-4, 5], gamma_0 = at0 when given."""
    vals = [mpf(2) + mpf(n % 3) / 7 for n in range(-4, 6)]
    vals[4] = vals[4] if at0 is None else mpf(at0)
    return CoeffSeq(-4, vals)


def _s_table(sites):
    """S_n = -z on the given sites, a table no state check reaches."""
    return {n: ZPoly([0, -1]) for n in sites}


def _lead_table(U, off):
    """S_n = -(U_n + off_n) z on U's window, off_n = 0 at the sites off leaves out."""
    lo, hi = U.window
    return {n: ZPoly([0, -(U.at(n) + off.get(n, 0))]) for n in range(lo, hi + 1)}


ELLIPTIC = HyperellipticCurve(1, (0, -1, 0))
UNIT = CoeffSeq(-4, [1] * 10)
# U_{n-1} + U_n = 2 against |U_n| near 1000: S's lead 1e-4 off -U_n passes
# the lead check and leaves Q's lead 5e-5 off 1
ALTERNATING = CoeffSeq.tabulate(lambda n: 1000 * mpf(-1) ** n + 1, (-6, 6))


@pytest.mark.parametrize("make, error, fragment", [
    (lambda: elliptic_dressing_state(HyperellipticCurve(2, (0,) * 5), _elliptic_gamma()),
     ValueError, "needs genus 1"),
    (lambda: elliptic_dressing_state(ELLIPTIC, _elliptic_gamma(), window=(-4, 5)), WindowError,
     "window needs gamma on [lo, hi+1]"),
    (lambda: elliptic_dressing_state(ELLIPTIC, _elliptic_gamma("0.5")),
     InconsistentDataError, "F1(gamma_0) = -0.375 < 0"),
    (lambda: DressingState(UNIT, UNIT, ELLIPTIC, _s_table([0, 1, 3]), {}), WindowError,
     "S table has gaps"),
    (lambda: DressingState(UNIT, UNIT, ELLIPTIC, _s_table([0, 1, 2]), _s_table([0, 1, 2])),
     WindowError, "Q table must cover [lo+1, hi]"),
    # tables off at two sites: the lower one is named
    (lambda: DressingState.from_s_table(UNIT, UNIT, _lead_table(UNIT, {3: 1, 1: mpf("0.5")}),
                                        curve=ELLIPTIC),
     InconsistentDataError, "S_1 has z^1 coefficient -1.5, expected -1.0"),
    (lambda: DressingState.from_s_table(ALTERNATING, ALTERNATING, _lead_table(ALTERNATING, {
        4: mpf("-1e-4"), -2: mpf("-1e-4")}), curve=ELLIPTIC),
     InconsistentDataError, "state assembly at n=-2: pair rule produced a non-monic polynomial "
                            "(lead = 0.99995"),
], ids=["genus-2", "window-past-gamma", "no-real-branch", "s-gap", "q-off-window",
        "s-lead-first-of-two", "pair-lead-first-of-two"])
def test_state_constructors_refuse_what_they_cannot_build(make, error, fragment):
    with pytest.raises(error) as got:
        make()
    assert fragment in str(got.value)
