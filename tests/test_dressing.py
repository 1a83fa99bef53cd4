import operator
import random

import pytest
from mpmath import lu_solve, matrix, mp, mpf, cos, sin
from mpmath.libmp import fone, fzero

from commdiff.errors import (
    DegenerateDenominatorError,
    InconsistentDataError,
    RankDeficiencyError,
    WindowError,
)
from commdiff import dressing, linalg
from commdiff.numcore import HyperellipticCurve, ZPoly
from commdiff.opalg import CoeffSeq, DiffOp, commutator_residual
from commdiff.dressing import (
    RECURSION_GUARD_BITS,
    DressingState,
    EvenPowerBasis,
    GeomBasis,
    PowerBasis,
    TrigBasis,
    _pin_top_coefficients,
    _term_coeffs,
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
    _reference_lstsq,
    factorization_check,
    shift,
    solve_partner_recursive,
)
from test_opalg import _reference_compose, _reference_scale_left
from test_numcore import (
    _reference_add,
    _reference_poly_mul,
    _reference_sub,
    _reference_sup_norm,
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
        return ZPoly([mpf(1) / 4, -mpf(n) ** 2]) + ZPoly(
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


def test_pair_rule_failures_name_stage_and_n():
    # a = -1 makes every U_{n-1} + U_n vanish; the first one the solver
    # forms is at n = lo + 1
    U = CoeffSeq.tabulate(lambda n: mpf(-1) ** n, (-12, 12))
    W = CoeffSeq.tabulate(lambda n: mpf(1), (-12, 12))
    with pytest.raises(DegenerateDenominatorError, match=r"^ansatz_solve at n=-11: "):
        ansatz_solve(GeomBasis(1, -1), U, W)
    # at 113 bits this geometric g = 5 S table misses the monic Q lead by
    # 5e-6 at n = 14 (it passes at 160 bits)
    spec = FamilySpec("geom", 5, {"a": mpf("2.272327"), "beta": mpf("1.614327")})
    with mp.workprec(113):
        with pytest.raises(InconsistentDataError,
                           match=r"^state assembly at n=14: pair rule produced a non-monic"):
            build_case(spec, (-4, 4))


def test_verify_master_fixtures():
    state, _ = geometric_fixture()
    assert identity_residuals(state, (-20, 20))[0] <= mpf("1e-20")
    state = quartic_fixture()
    assert identity_residuals(state, (-20, 20))[0] <= mpf("1e-20")


def test_verify_master_detects_corruption():
    state, _ = geometric_fixture()
    bad = dict(state.S)
    bad[0] = bad[0] + ZPoly([1])
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
    # skew over n = 0..9
    assert identity_residuals(state, (0, 9), skew=True)[2] <= mpf("1e-25")


def test_skew_is_none_without_a_mirror_pair():
    # a state on [3, 15] holds no pair (n, -n-1): the skew compares nothing
    spec = FamilySpec("trig", 1, {"r1": 1})
    _L2, _partner, state, _extras = build_case(spec, (5, 10))
    assert state.window[0] == 3
    master, linear, skew_rel = identity_residuals(state, (5, 10), skew=True)
    assert skew_rel is None
    assert master <= mpf("1e-25") and linear <= mpf("1e-25")


def _old_scale_maxima(state, window, skew):
    """The per-n maxima written out with verify_master, residual_linear and
    the scale formulas identity_residuals replaced."""
    lo, hi = window
    s_lo, s_hi = state.window

    def master_scale(n):
        lin = ZPoly([-(state.U.at(n) ** 2) - state.W.at(n), 1])
        prod = lin * state.q(n) * state.q(n + 1)
        return max(state.curve.fpoly().sup_norm(), (state.s(n) * state.s(n)).sup_norm(),
                   prod.sup_norm(), mpf(1))

    def linear_scale(n):
        U, W = state.U.at, state.W.at
        terms = (
            state.s(n - 1) * ZPoly([-(U(n) ** 2) - W(n), 1]) * (U(n + 1) + U(n + 2)),
            state.s(n) * ZPoly([U(n) * U(n + 1) + U(n - 1) * (U(n) + U(n + 1)) - W(n), 1])
            * (U(n + 1) + U(n + 2)),
            state.s(n + 1) * ZPoly([U(n) * U(n + 1) + (U(n) + U(n + 1)) * U(n + 2) - W(n + 1), 1])
            * (U(n - 1) + U(n)),
            state.s(n + 2) * ZPoly([-(U(n + 1) ** 2) - W(n + 1), 1]) * (U(n - 1) + U(n)),
        )
        return max(max(t.sup_norm() for t in terms), mpf(1))

    master = max(
        (verify_master(state, n) / master_scale(n)
         for n in range(max(lo, s_lo + 1), min(hi, s_hi - 1) + 1)),
        default=mpf(0),
    )
    linear = max(
        (residual_linear(state, n).sup_norm() / linear_scale(n)
         for n in range(max(lo, s_lo + 1), min(hi, s_hi - 2) + 1)),
        default=mpf(0),
    )
    if not skew:
        return master, linear, None
    skew_rel = max(
        ((residual_linear(state, n) + residual_linear(state, -n - 1)).sup_norm() / linear_scale(n)
         for n in range(0, min(hi, s_hi - 2, -(s_lo + 2)) + 1)),
        default=mpf(0),
    )
    return master, linear, skew_rel


def test_term_coeffs_match_the_product_bit_for_bit():
    # d (z + c) A(z) coefficient-wise rounds as A * [c, 1] through poly_mul,
    # then scaled by d: the same operations in the same order
    rng = random.Random(5)
    for deg in range(6):
        a = [mpf(rng.uniform(-3, 3)) / 7 for _ in range(deg + 1)]
        c, d = mpf(rng.uniform(-2, 2)) / 3, mpf(rng.uniform(-2, 2)) / 11
        product = ZPoly(a) * ZPoly([c, 1]) * d
        got = _term_coeffs([v._mpf_ for v in a], c._mpf_, d._mpf_)
        assert got == [v._mpf_ for v in product.coeffs]


@pytest.mark.parametrize(
    "kind,params",
    [("trig", {"r1": 1}), ("poly", {"a2": 1, "a0": 0, "a1": mpf(1) / 2})],
)
def test_identity_residuals_match_per_n_maxima(kind, params):
    # one pass over the window gives the very values of the per-n loops
    spec = FamilySpec(kind, 2, params)
    _L2, _partner, state, _extras = build_case(spec, (-12, 12))
    for window in ((-12, 12), (-40, 40)):
        for skew in (False, True):
            got = identity_residuals(state, window, skew=skew)
            assert got == _old_scale_maxima(state, window, skew)
            assert got[1] <= mpf("1e-9")


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
    assert (b4 - ZPoly([1])).sup_norm() <= mpf("1e-10")
    assert (b2 - ZPoly([-mpf(9) / 4, -1])).sup_norm() <= mpf("1e-10")
    assert (b0 - ZPoly([mpf(1) / 4])).sup_norm() <= mpf("1e-10")
    for n in range(-14, 15):
        n2 = mpf(n) ** 2
        closed = ZPoly([mpf(1) / 4 - mpf(9) / 4 * n2 + n2**2, -n2])
        assert (state.s(n) - closed).sup_norm() <= mpf("1e-10") * (1 + n2 + n2**2)


def test_ansatz_geometric_g1_closed_form():
    U, W = geom_family(1, 1, 2, window=(-12, 12))
    result = ansatz_solve(GeomBasis(1, 2), U, W)
    state = result.state(U, W, (-12, 12))
    # S_n = G1(z) 2^n + G3 8^n with G1 = -z, G3 = 4/27
    g1, g3 = _profiles(state, GeomBasis(1, 2), (0, 1))
    assert (g1 - ZPoly([0, -1])).sup_norm() <= mpf("1e-10")
    assert (g3 - ZPoly([mpf(4) / 27])).sup_norm() <= mpf("1e-10")
    for n in range(-12, 13):
        closed = ZPoly([mpf(4) / 27 * mpf(8) ** n, -mpf(2) ** n])
        assert (state.s(n) - closed).sup_norm() <= mpf("1e-10") * (mpf(2) ** n + mpf(8) ** n)
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
    spec = FamilySpec("poly", 2, ODD3)
    U, W = family_from_spec(spec, (-12, 12))
    with mp.workprec(mp.prec + RECURSION_GUARD_BITS):
        other = family_from_spec(FamilySpec("poly", 2, {**ODD3, "a0": "0.5"}), (-12, 12))
    with pytest.raises(InconsistentDataError, match="fine table of U .* n=-12"):
        ansatz_solve(basis_for(spec), U, W, other)


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


def test_ansatz_top_row_is_the_pin_fit():
    for spec in (
        FamilySpec("trig", 3, {"r1": "1.3"}),
        FamilySpec("poly", 3, {"a2": 1, "a0": "0.25", "a1": "0.5"}),
        FamilySpec("geom", 2, {"a": "1.764235", "beta": "0.895178"}),
    ):
        basis, U, S = _solved_table(spec, (-12, 16))
        reach = basis.size + 2
        pinned, _resid = _pin_top_coefficients(
            basis, U, {n: basis.functions(n) for n in range(-reach, reach + 1)})
        for n, p in S.items():
            lead = ZPoly.zero()
            for c, phi in zip(pinned, basis.functions(n)):
                lead = lead + ZPoly([mp.make_mpf(c)]).scale(mp.make_mpf(phi))
            assert p.coeff(spec.g)._mpf_ == lead.coeff(0)._mpf_


@pytest.mark.parametrize("bits", (53, 113, 1100))
def test_pin_fit_matches_the_mpf_loop_bit_for_bit(bits):
    # the pinned coefficients and the fit residual against the mpf loop of
    # _reference_lstsq on the basis rows and -U_n; U tabulated at twice the
    # precision holds values that the negation rounds
    for spec in (
        FamilySpec("trig", 3, {"r1": "1.3"}),
        FamilySpec("poly", 3, {"a2": 1, "a0": "0.25", "a1": "0.5"}),
        FamilySpec("geom", 2, {"a": "1.764235", "beta": "0.895178"}),
    ):
        for build_bits in (bits, 2 * bits):
            with mp.workprec(build_bits):
                U, _W = family_from_spec(spec, (-12, 16))
            with mp.workprec(bits):
                basis = basis_for(spec)
                reach = basis.size + 2
                phi = {n: basis.functions(n) for n in range(-reach, reach + 1)}
                pinned, resid = _pin_top_coefficients(basis, U, phi)
                rows = [list(map(mp.make_mpf, phi[n])) for n in phi]
                x, ref = _reference_lstsq(rows, [-U.at(n) for n in phi])
                assert pinned == [v._mpf_ for v in x], (spec, build_bits)
                assert resid == ref["resid_inf"]._mpf_, (spec, build_bits)


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
        want = [c._mpf_ for c in result.state(U, W, (-2, 3)).curve.c]
        for window in ((-1, 2), (-10, 14), (-12, 16), (-3, 9)):
            got = result.state(U, W, window).curve.c
            assert [c._mpf_ for c in got] == want, window


def test_state_without_n0_reads_its_curve_at_lo_plus_1():
    # an S table on (3, 17) holds no n = 0: the curve comes from the master
    # identity at n = 4, the first site whose Q_n, Q_{n+1} and Q_{n+2} are
    # tabulated
    U, W = trig_family(2, mpf("1.3"), (-12, 20))
    result = ansatz_solve(TrigBasis(2), U, W)
    state = DressingState.from_s_table(U, W, {n: result.S[n] for n in range(3, 18)})
    f4 = dressing._master_fpoly(state, 4)
    want = HyperellipticCurve.from_fpoly(f4, 2, tol_rel=dressing.CURVE_RECOVERY_TOL)
    assert [c._mpf_ for c in state.curve.c] == [c._mpf_ for c in want.c]
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
        want = [c._mpf_ for c in result.state(U, W, (-2, 3)).curve.c]
        state = result.state(U, W, (18, 29))
        assert [c._mpf_ for c in state.curve.c] == want
        for n in range(19, 28):
            scale = (state.s(n) * state.s(n)).sup_norm()
            assert verify_master(state, n) <= mpf(2) ** (10 - bits) * scale, n


def test_curve_recovery_needs_four_sites():
    U, W = trig_family(1, 1, (-12, 12))
    result = ansatz_solve(TrigBasis(1), U, W)
    want = [c._mpf_ for c in result.state(U, W, (-2, 3)).curve.c]
    for window in ((5, 5), (-1, 1), (4, 7)):
        state = result.state(U, W, window)
        assert [c._mpf_ for c in state.curve.c] == want, window
    with pytest.raises(WindowError):
        DressingState.from_s_table(U, W, {n: result.S[n] for n in range(-1, 2)})


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
    assert abs(P.w**2 - state.curve.eval(z)) <= mpf("1e-30")
    with pytest.raises(DegenerateDenominatorError):
        baker_akhiezer(state, P, -1)


def test_baker_akhiezer_eigen_relations():
    state, _ = geometric_fixture()
    L2 = l2_operator(state.U, state.W)
    L3 = build_partner_op(state, L2)
    P = curve_point(state.curve, mpf(2), 1)
    psi = CoeffSeq.tabulate(lambda n: baker_akhiezer(state, P, n), (-13, 13))
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
        dev = (rec.s(n) - state.s(n)).sup_norm()
        assert dev <= mpf("1e-12") * max(state.s(n).sup_norm(), mpf(1))

    L2 = l2_operator(U, W)
    L5 = build_partner_op(state, L2)
    assert L5.order == 5 and L5.is_monic() and L5.is_positive
    P = curve_point(state.curve, mpf(30), 1)  # above the largest branch point
    psi = CoeffSeq.tabulate(lambda n: baker_akhiezer(state, P, n), (-9, 12))
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
        assert identity_residuals(state, (-8, 8))[0] <= mpf("1e-9")
    finally:
        set_precision(113)


# ---------------------------------------------------------------------------
# bit-identity oracles: the loops the pipeline ran before it skipped its
# arithmetic on exact zeros and ones
# ---------------------------------------------------------------------------


def _reference_comb(f, vs):
    """The mpf loop that `_comb` runs on raw values."""
    (f1, f2, f3, f4), (v1, v2, v3, v4) = f, vs
    return [f1 * a + f2 * b + f3 * c + f4 * d for a, b, c, d in zip(v1, v2, v3, v4)]


def _reference_march(dc, D, top, seeds, n0, span):
    """The dense level march of mpfs that `_march` must reproduce bit for
    bit: every affine vector padded with exact 0s to the full 3g + 1 entries."""
    full = max(len(v) for seed in seeds for v in seed)

    def pad(v):
        return v + [mpf(0)] * (full - len(v))

    a, b = span
    levels = [{n: pad(v) for n, v in top.items()}]
    for q0, q1, s0 in seeds:
        up = levels[-1]
        step = {}
        for n in range(a + 1, b - 1):
            inv = 1 / (D[n] * D[n + 2])
            step[n] = [v * inv for v in _reference_comb(dc[n], [up[n + k] for k in (-1, 0, 1, 2)])]
        q = {n0: pad(q0), n0 + 1: pad(q1)}
        for n in range(n0, b - 1):
            q[n + 2] = [x - y for x, y in zip(q[n], step[n])]
        for n in range(n0 - 1, a, -1):
            q[n] = [x + y for x, y in zip(q[n + 2], step[n])]
        s = {n0: pad(s0)}
        for n in range(n0 + 1, b + 1):
            s[n] = [-D[n] * x - y for x, y in zip(q[n], s[n - 1])]
        for n in range(n0, a, -1):
            s[n - 1] = [-D[n] * x - y for x, y in zip(q[n], s[n])]
        levels.append(s)
    return levels


def _on_raw_values(march):
    """march, which takes and returns mpfs, with the raw-value interface of
    `_march`."""
    def raw_march(dc, D, top, seeds, n0, span):
        make = mp.make_mpf
        dc = {n: [make(v) for v in f] for n, f in dc.items()}
        D = {n: make(v) for n, v in D.items()}
        top = {n: [make(v) for v in vs] for n, vs in top.items()}
        seeds = [[[make(v) for v in vs] for vs in seed] for seed in seeds]
        levels = march(dc, D, top, seeds, n0, span)
        return [{n: [v._mpf_ for v in vs] for n, vs in lv.items()} for lv in levels]

    return raw_march


def _fit_march_inputs(U, W, g):
    """dc, D, the level-g row, n0 and the march span of the constant fit,
    formed from U and W as ansatz_solve forms them."""
    lo, hi = max(U.window[0], W.window[0]), min(U.window[1], W.window[1])
    rlo, rhi = lo + 1, hi - 2
    n0 = min(max(min(range(lo, hi + 1), key=lambda n: abs(U.at(n))), rlo), rhi)
    a, b = max(rlo, n0 - 3 * g - 2) - 1, min(rhi, n0 + 3 * g + 2) + 2
    D = {n: (U.at(n - 1) + U.at(n))._mpf_ for n in range(lo + 1, hi + 1)}
    dc = {n: [(c * d)._mpf_ for _s, c, d in _reference_four_term_factors(U, W, n)]
          for n in range(rlo, rhi + 1)}
    top = {n: [(-U.at(n))._mpf_] for n in range(a, b + 1)}
    return dc, D, top, n0, (a, b)


def _reference_fit_rows(dc, D, top, g, n0, span):
    """The z^0 fit rows as the affine march of all 3g + 1 columns formed
    them: level m's seeds the unit vectors of entries 1 + 3 (g - 1 - m) + i,
    every entry marched through every level below its own."""
    def units(j):
        return [[fone if k == i else fzero for k in range(j + 3)] for i in range(j, j + 3)]

    seeds = [units(j) for j in range(1, 3 * g + 1, 3)]
    s0 = _on_raw_values(_reference_march)(dc, D, top, seeds, n0, span)[-1]

    def mpfs(vals):
        return [mp.make_mpf(v) for v in vals]

    rows = {n: _reference_comb(mpfs(dc[n]), [mpfs(s0[n + k]) for k in (-1, 0, 1, 2)])
            for n in range(span[0] + 1, span[1] - 1)}
    return {n: [v._mpf_ for v in row] for n, row in rows.items()}


FIT_FAMILIES = [("trig", {"r1": "1.3"}), ("poly", {"a2": "0.886695", "a0": "0.234504"}),
                ("poly", ODD5), ("geom", {"a": "1.764235", "beta": "0.895178"})]


@pytest.mark.parametrize("bits", (53, 113, 160, 1100))
@pytest.mark.parametrize("kind, params", FIT_FAMILIES)
def test_fit_rows_match_the_march_of_every_column_bit_for_bit(kind, params, bits):
    # one march of four columns against the 3g + 1 columns marched apart, at
    # the guard precision the fit runs at, on every genus up to 6
    for g in range(1, 7):
        with mp.workprec(bits):
            U, W = family_from_spec(FamilySpec(kind, g, params), (-10, 12))
        with mp.workprec(bits + RECURSION_GUARD_BITS):
            dc, D, top, n0, span = _fit_march_inputs(U, W, g)
            rows = dressing._fit_rows(dc, D, top, g, n0, span)
            assert rows == _reference_fit_rows(dc, D, top, g, n0, span), g
            assert len(rows[n0]) == 3 * g + 1


def _reference_ansatz_solve(basis, U, W, fine=None):
    """ansatz_solve as its mpf loops ran: the march, the fit rows, the z^0
    rows and their maxima on mpf objects (checks and messages left out)."""
    g = basis.g
    reach = basis.size + 2
    pinned, _resid = dressing._pin_top_coefficients(
        basis, U, {n: basis.functions(n) for n in range(-reach, reach + 1)})
    lo, hi = max(U.window[0], W.window[0]), min(U.window[1], W.window[1])
    rlo, rhi = lo + 1, hi - 2
    ncon = 3 * g
    n0 = min(range(lo, hi + 1), key=lambda n: abs(U.at(n)))
    n0 = min(max(n0, rlo), rhi)
    flo, fhi = max(rlo, n0 - ncon - 2), min(rhi, n0 + ncon + 2)
    Uf, Wf = (U, W) if fine is None else fine
    with mp.workprec(mp.prec + RECURSION_GUARD_BITS):
        D = {n: Uf.at(n - 1) + Uf.at(n) for n in range(lo + 1, hi + 1)}
        fac = {n: _reference_four_term_factors(Uf, Wf, n) for n in range(rlo, rhi + 1)}
        dc = {n: [d * c for _s, c, d in f] for n, f in fac.items()}

        def units(j):
            return [[mpf(int(k == i)) for k in range(j + 3)] for i in range(j, j + 3)]

        span = (flo - 1, fhi + 2)
        top = {n: [-Uf.at(n)] for n in range(span[0], span[1] + 1)}
        seeds = [units(j) for j in range(1, ncon + 1, 3)]
        s0 = _reference_march(dc, D, top, seeds, n0, span)[-1]
        rows, rhs = [], []
        for n in range(flo, fhi + 1):
            r = _reference_comb(dc[n], [s0[n + k] for k in (-1, 0, 1, 2)])
            row, b = r[1:], -r[0]
            big = max(abs(v) for v in row)
            if big:
                row, b = [v / big for v in row], b / big
            rows.append([v._mpf_ for v in row])
            rhs.append(b._mpf_)
        x = [mp.make_mpf(v) for v in linalg.lstsq(rows, rhs)[0]]

        top = {n: [-Uf.at(n)] for n in range(lo, hi + 1)}
        seeds = [([x[j]], [x[j + 1]], [x[j + 2]]) for j in range(0, ncon, 3)]
        levels = _reference_march(dc, D, top, seeds, n0, (lo, hi))
        coeffs = {n: [lv[n][0] for lv in reversed(levels)] for n in range(lo, hi + 1)}
        sup = {n: max(abs(v) for v in cs) for n, cs in coeffs.items()}
        resid_rel = mpf(0)
        for n, f in fac.items():
            r = sum(v * coeffs[n + k][0] for v, k in zip(dc[n], (-1, 0, 1, 2)))
            scale = max(abs(d) * max(abs(c), 1) * sup[n + s] for s, c, d in f)
            resid_rel = max(resid_rel, abs(r) / scale)

    S = {}
    for n in range(lo, hi + 1):
        lead = mpf(0)
        for p, phi in zip(pinned, basis.functions(n)):
            lead += mp.make_mpf(p) * mp.make_mpf(phi)
        S[n] = ZPoly([+v for v in coeffs[n][:g]] + [lead])
    return S, +resid_rel


def _reference_four_term_factors(U, W, n):
    """The mpf expressions that `_four_term_factors` rounds on raw values."""
    Um1, U0, U1, U2 = U.at(n - 1), U.at(n), U.at(n + 1), U.at(n + 2)
    W0, W1 = W.at(n), W.at(n + 1)
    right, left = U1 + U2, Um1 + U0
    return (
        (-1, -(U0**2) - W0, right),
        (0, U0 * U1 + Um1 * (U0 + U1) - W0, right),
        (1, U0 * U1 + (U0 + U1) * U2 - W1, -left),
        (2, -(U1**2) - W1, -left),
    )


def _reference_term_coeffs(a, c, d):
    """The mpf loop that `_term_coeffs` runs on raw values."""
    if not a:
        return []
    return [d * (c * a[0]), *(d * (lo + c * hi) for lo, hi in zip(a, a[1:])), d * a[-1]]


def _reference_identity_residuals(state, window, skew):
    """identity_residuals as its mpf loops ran: the products, sums and sup
    norms by the reference loops, each maximum by max()."""
    lo, hi = window
    s_lo, s_hi = state.window
    fpoly = state.curve.fpoly()
    fnorm = _reference_sup_norm(fpoly)
    add, sup = _reference_add, _reference_sup_norm
    master_rel = mpf(0)
    for n in range(max(lo, s_lo + 1), min(hi, s_hi - 1) + 1):
        lin = ZPoly([-(state.U.at(n) ** 2) - state.W.at(n), 1])
        s2 = _reference_poly_mul(state.s(n), state.s(n))
        prod = _reference_poly_mul(_reference_poly_mul(lin, state.q(n)), state.q(n + 1))
        scale = max(fnorm, sup(s2), sup(prod), mpf(1))
        master_rel = max(master_rel, sup(_reference_sub(fpoly, add(s2, prod))) / scale)

    def linear_at(n):
        terms = [ZPoly(_reference_term_coeffs(state.s(n + s).coeffs, c, d))
                 for s, c, d in _reference_four_term_factors(state.U, state.W, n)]
        t1, t2, t3, t4 = terms
        return add(add(add(t1, t2), t3), t4), max(max(sup(t) for t in terms), mpf(1))

    linear_rel = mpf(0)
    for n in range(max(lo, s_lo + 1), min(hi, s_hi - 2) + 1):
        r, scale = linear_at(n)
        linear_rel = max(linear_rel, sup(r) / scale)
    if not skew:
        return master_rel, linear_rel, None
    skew_rel = mpf(0)
    for n in range(0, min(hi, s_hi - 2, -(s_lo + 2)) + 1):
        r, scale = linear_at(n)
        skew_rel = max(skew_rel, sup(add(r, linear_at(-n - 1)[0])) / scale)
    return master_rel, linear_rel, skew_rel


def _raw_tuple(vals):
    return tuple(None if v is None else v._mpf_ for v in vals)


TRAP_FAMILIES = [("poly", 3, ODD5), ("trig", 2, {"r1": "1.3"})]


@pytest.mark.parametrize("bits", (53, 113, 160, 1100))
def test_term_coeffs_match_the_mpf_loop_bit_for_bit(bits):
    rng = random.Random(bits + 3)
    pool = trap_values(rng, bits)
    with mp.workprec(bits):
        for deg in range(6):
            a = [rng.choice(pool) for _ in range(deg + 1)]
            for c, d in ((rng.choice(pool), rng.choice(pool)) for _ in range(8)):
                got = _term_coeffs([v._mpf_ for v in a], c._mpf_, d._mpf_)
                assert got == [v._mpf_ for v in _reference_term_coeffs(a, c, d)]


@pytest.mark.parametrize("bits", (53, 113, 160, 1100))
def test_four_term_factors_match_the_mpf_expressions_bit_for_bit(bits):
    # family tables at the working precision and at twice it, and tables of
    # trap values (exact 0 and +-1, negative and wide values)
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
            got = dressing._four_term_factors(U, W, -5, 3)
            assert sorted(got) == list(range(-5, 4))
            for n in range(-5, 4):
                ref = [(s, c._mpf_, d._mpf_) for s, c, d in _reference_four_term_factors(U, W, n)]
                assert list(got[n]) == ref, n


@pytest.mark.parametrize("bits", (53, 113, 160, 1100))
@pytest.mark.parametrize("kind, g, params", TRAP_FAMILIES)
def test_ansatz_solve_matches_the_mpf_loops_bit_for_bit(kind, g, params, bits):
    # the working tables, build_case's fine ones, and tables tabulated at
    # twice the precision, whose negation rounds
    spec = FamilySpec(kind, g, params)
    basis, window = basis_for(spec), (-12, 16)
    with mp.workprec(bits):
        U, W = family_from_spec(spec, window)
        with mp.workprec(bits + RECURSION_GUARD_BITS):
            fine = family_from_spec(spec, window)
        with mp.workprec(2 * bits):
            wide = family_from_spec(spec, window)
        for tables, extra in (((U, W), None), ((U, W), fine), (wide, None)):
            result = ansatz_solve(basis, *tables, extra)
            S, resid_rel = _reference_ansatz_solve(basis, *tables, extra)
            assert sorted(result.S) == sorted(S)
            for n, p in S.items():
                assert _raw_poly(result.S[n]) == _raw_poly(p), n
            assert result.info["resid_rel"]._mpf_ == resid_rel._mpf_


@pytest.mark.parametrize("bits", (53, 113, 160, 1100))
@pytest.mark.parametrize("kind, g, params", [
    *TRAP_FAMILIES, ("geom", 2, {"a": "1.764235", "beta": "0.895178"}), ("elliptic", 1, {}),
])
def test_identity_residuals_match_the_mpf_loops_bit_for_bit(kind, g, params, bits):
    # states built at the working precision and at twice it, whose curve
    # coefficients and tables carry bits that abs and negation round, on
    # windows inside the state and clipped at its low end, its high end
    # and both
    spec = FamilySpec(kind, g, params)
    for build_bits in (bits, 2 * bits):
        with mp.workprec(build_bits):
            _L2, _partner, state, _extras = build_case(spec, (-4, 4))
        with mp.workprec(bits):
            for window in ((-4, 4), (-40, 1), (-1, 40), (-40, 40)):
                for skew in (False, True):
                    got = identity_residuals(state, window, skew=skew)
                    ref = _reference_identity_residuals(state, window, skew)
                    assert _raw_tuple(got) == _raw_tuple(ref), (build_bits, window, skew)


def _op(window, terms):
    """The DiffOp on window whose term j holds the mpf list terms[j]."""
    return DiffOp({j: CoeffSeq(window[0], vals) for j, vals in terms.items()}, window)


def _reference_termwise(x, y, op):
    """op of two (window, terms) operators, termwise on the common window;
    a term missing on one side reads as 0 there."""
    (xlo, xhi), xt = x
    (ylo, yhi), yt = y
    lo, hi = max(xlo, ylo), min(xhi, yhi)
    zeros = [mpf(0)] * (hi - lo + 1)
    out = {}
    for j in sorted({*xt, *yt}):
        a = xt[j][lo - xlo:hi - xlo + 1] if j in xt else zeros
        b = yt[j][lo - ylo:hi - ylo + 1] if j in yt else zeros
        out[j] = list(map(op, a, b))
    return (lo, hi), out


def _reference_l2(U, W):
    """(T + U_n)^2 + W_n with the mpf loops, the 1s of T multiplied out."""
    t_u = DiffOp.build({1: 1, 0: U}, U.window)
    return _reference_termwise(_reference_compose(t_u, t_u), (W.window, {0: list(W.values)}),
                               operator.add)


def _reference_partner(state, L2):
    """sum_k q_{n,k} (T o L2^k) - s_{n,k} L2^k with the mpf loops: T o L2^k
    and L2^(k+1) = L2 o L2^k multiply by their exact 1s, q_{n,k} and s_{n,k}
    are left factors, and the difference and the sum go termwise."""
    qs_window = (state.window[0] + 1, state.window[1])
    T = shift(L2.window)
    acc, l2k = None, DiffOp.identity(L2.window)
    for k in range(state.curve.g + 1):
        qk = CoeffSeq.tabulate(lambda n: state.q(n).coeff(k), qs_window)
        sk = CoeffSeq.tabulate(lambda n: state.s(n).coeff(k), qs_window)
        term = _reference_termwise(
            _reference_scale_left(_op(*_reference_compose(T, l2k)), qk),
            _reference_scale_left(l2k, sk), operator.sub)
        acc = term if acc is None else _reference_termwise(acc, term, operator.add)
        if k < state.curve.g:
            l2k = _op(*_reference_compose(L2, l2k))
    return _op(*acc)


def _raw_poly(p):
    return [c._mpf_ for c in p.coeffs]


def _assert_same_op(L, ref):
    assert L.window == ref.window and sorted(L.terms) == sorted(ref.terms)
    for j, t in L.terms.items():
        assert [v._mpf_ for v in t.values] == [v._mpf_ for v in ref.terms[j].values], j


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
            _assert_same_op(partner, _reference_partner(state, L2))
            with monkeypatch.context() as m:
                m.setattr(dressing, "_march", _on_raw_values(_reference_march))
                _, _, ref_state, ref_extras = build_case(spec, (-4, 4))
            assert extras == ref_extras
            assert state.window == ref_state.window
            for n in range(state.window[0], state.window[1] + 1):
                assert _raw_poly(state.s(n)) == _raw_poly(ref_state.s(n)), (g, n)
            assert [c._mpf_ for c in state.curve.c] == [c._mpf_ for c in ref_state.curve.c]


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
            _assert_same_op(partner, _reference_partner(state, L2))

            def s_ref(n):
                root = mp.sqrt(curve.fpoly().eval(gamma.at(n)))
                return root if sig is None else sig.at(n) * root

            for n in range(-12, 13):
                u = -(s_ref(n) + s_ref(n + 1)) / (gamma.at(n) - gamma.at(n + 1))
                ref = ZPoly([s_ref(n) + u * gamma.at(n), -u])
                assert _raw_poly(state.s(n)) == _raw_poly(ref), n


def _wide(vals, p):
    """Some value of vals has more than p significant bits."""
    return any(v._mpf_[3] > p for v in vals)


def _rounded(seq):
    """seq's values rounded to the working precision."""
    return CoeffSeq(seq.n_min, [+v for v in seq.values])


@pytest.mark.parametrize("bits", (53, 113, 160))
def test_l2_operator_window_and_bits_match_the_mpf_loops(bits):
    rng = random.Random(bits)
    with mp.workprec(2 * bits):
        def seq(window):
            return CoeffSeq.tabulate(lambda n: mpf(rng.uniform(-3, 3)) / 7, window)

        tables = [(seq((-12, 12)), seq((-8, 8))), (seq((-5, 6)), seq((-9, 10)))]
    with mp.workprec(bits):
        # U wider than W, then W wider than U; each table at twice bits,
        # rounded as the formula multiplies by the 1s of T
        for U2, W2 in tables:
            for U, W in ((U2, W2), (_rounded(U2), _rounded(W2))):
                _assert_same_op(l2_operator(U, W), _op(*_reference_l2(U, W)))
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


@pytest.mark.parametrize("bits", (113, 160))
@pytest.mark.parametrize("kind, g, params", [
    ("trig", 2, {"r1": "1.3"}), ("poly", 3, ODD5), ("geom", 2, {"a": "2.272327", "beta": "1.614327"}),
])
def test_partner_of_a_wider_state_matches_the_mpf_loops(kind, g, params, bits):
    # the state's tables at 2p enter each product unrounded, s_{n,k} too,
    # and are rounded once, by the product; an L2 at 2p is rounded where
    # L2^1 = L2 o I multiplies it by 1
    with mp.workprec(2 * bits):
        wide_l2, _, state, _ = build_case(FamilySpec(kind, g, params), (-6, 6))
    with mp.workprec(bits):
        for L2 in (l2_operator(_rounded(state.U), _rounded(state.W)), wide_l2):
            _assert_same_op(build_partner_op(state, L2), _reference_partner(state, L2))
        assert _wide((c for table in (state.S, state.Q) for p in table.values()
                      for c in p.coeffs), bits)
        assert _wide((v for t in wide_l2.terms.values() for v in t.values), bits)
