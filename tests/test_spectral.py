import functools
from fractions import Fraction

import pytest
from mpmath import mp, mpf, cos, sin

from commdiff.errors import CommutationError, WindowError
from commdiff.numcore import ZPoly
from commdiff.opalg import CoeffSeq, DiffOp, commutator_residual
from commdiff.dressing import identity_residuals, l2_operator
from commdiff.families import FamilySpec, build_case, poly_family
from commdiff.rank2 import Rank2Params, build_l4, build_l6_special, expected_curve_poly
from oracles import (
    CRITERION_1_PARAMS,
    baker_akhiezer,
    curve_point,
    exact_curve,
    exact_z,
    fraction_action_matrix,
    fraction_apply,
    fraction_char_poly,
    fraction_kernel,
    fraction_of,
    fraction_z,
    rounded_fraction,
    rounded_poly,
)
from commdiff.spectral import (
    CurveReport,
    action_matrix,
    char_poly_coeffs,
    extract_curve,
    kernel_extend,
    rank2_curve_check,
)

WIN = (-26, 26)


def make_pair(kind, g=1):
    """(L2, partner, state) of criterion 1's parameters for kind, commuting
    on [-8, 8]."""
    L2, partner, state, _extras = build_case(FamilySpec(kind, g, CRITERION_1_PARAMS[kind]),
                                             (-8, 8))
    return L2, partner, state


ONE, ZERO = ([1], 0), ([], 0)


def test_kernel_extend_pure_shift_square():
    # T^2 psi = z psi from psi(0) = 1, psi(1) = 0: psi(2k) = z^k, psi(2k+1) = 0
    L = DiffOp.build({2: 1, 1: 0, 0: 0}, WIN)
    psi = kernel_extend(L, 0, (ONE, ZERO), 11)
    assert [fraction_z(x) for x in psi] == [[0] * (n // 2) + [1] if n % 2 == 0 else []
                                            for n in range(11)]


def test_kernel_extend_satisfies_recurrence():
    # (L2 - z) psi = 0 exactly: L2 psi(n) = z psi(n), coefficient by coefficient
    U, W = poly_family(1, 1, 0, 0, WIN)
    L2 = l2_operator(U, W)
    init = (exact_z(ZPoly([mpf("0.7"), mpf("-0.3")])), exact_z(ZPoly([mpf("-0.2")])))
    psi = kernel_extend(L2, -3, init, 16)
    assert len(fraction_z(psi[-1])) == 9  # psi(n0 + 15) has degree 8 in z
    out = L2.apply(CoeffSeq._from_raw(-3, psi))
    assert out.window == (-3, 10)
    for n, v in zip(range(-3, 11), out.raw):
        assert fraction_z(v) == [0, *fraction_z(psi[n + 3])], n


def test_kernel_extend_zero_init():
    U, W = poly_family(1, 1, 0, 0, WIN)
    L2 = l2_operator(U, W)
    assert all(not any(c) for c, _e in kernel_extend(L2, 0, (ZERO, ZERO), 10))


def test_kernel_extend_window_guard():
    L = DiffOp.build({2: 1, 0: 0}, (0, 3))
    with pytest.raises(WindowError):
        kernel_extend(L, 0, (ONE, ZERO), 12)


def test_extract_curve_window_guard_names_the_base_point():
    # genus 1: base point n0 reads L_base on [n0, n0 + ACTION_PAD + 2] and
    # L_act on [n0, n0 + ACTION_PAD + 1], for n0 = -1, 0, 1
    L2, L3, _ = make_pair("poly")
    base, act = DiffOp(L2.terms, (-1, 6)), DiffOp(L3.terms, (-1, 5))
    assert extract_curve(base, act).matched_curve is not None
    with pytest.raises(WindowError, match=r"base point n0=1 needs L_base on \[1, 6\]"):
        extract_curve(DiffOp(L2.terms, (-1, 5)), act)
    with pytest.raises(WindowError, match=r"base point n0=-1 .* L_act on \[-1, 3\]"):
        extract_curve(base, DiffOp(L3.terms, (0, 5)))
    with pytest.raises(WindowError, match=r"base point n0=1 .* L_act on \[1, 5\]"):
        extract_curve(base, DiffOp(L3.terms, (-1, 4)))


def action_at(L_base, L_act, z, n0):
    """The polynomial action matrix evaluated at the scalar z."""
    M, _defect = action_matrix(L_base, L_act, n0)
    return [[ZPoly._from_raw(rounded_poly(fraction_z(p))).eval(z) for p in row] for row in M]


def test_action_matrix_self_is_z_identity():
    L2, L3, _ = make_pair("poly")
    z = mpf("1.75")
    M = action_at(L2, L2, z, 0)
    assert abs(M[0][0] - z) <= mpf("1e-25")
    assert abs(M[1][1] - z) <= mpf("1e-25")
    assert abs(M[0][1]) + abs(M[1][0]) <= mpf("1e-25")


def test_action_matrix_identity_operator():
    L2, _, _ = make_pair("poly")
    I = DiffOp.build({0: 1}, L2.window)
    M = action_at(L2, I, mpf(2), 0)
    assert abs(M[0][0] - 1) <= mpf("1e-28")
    assert abs(M[1][1] - 1) <= mpf("1e-28")


def test_action_matrix_geometric_char_poly():
    # at z = 2 the characteristic polynomial is w^2 - 8 (curve w^2 = z^3)
    L2, L3, _ = make_pair("geom")
    M = action_at(L2, L3, mpf(2), 0)
    tr = M[0][0] + M[1][1]
    det = M[0][0] * M[1][1] - M[0][1] * M[1][0]
    assert abs(tr) <= mpf("1e-10")
    assert abs(det + 8) <= mpf("1e-10")


def test_extract_curve_rejects_non_commuting():
    L2, _, _ = make_pair("poly")
    junk = DiffOp.build({3: 1, 0: lambda n: mpf(n)}, L2.window)
    with pytest.raises(CommutationError):
        extract_curve(L2, junk)


def test_char_poly_coeffs_small_matrix():
    # companion matrix of w^3 - 6 w^2 + 11 w - 6 = (w-1)(w-2)(w-3)
    M = [[([v], 0) for v in row] for row in ([0, 0, 6], [1, 0, -11], [0, 1, 6])]
    assert [fraction_z(c) for c in char_poly_coeffs(M)] == [[-6], [11], [-6], [1]]
    # 2 x 2: determinant and minus the trace, exactly
    vals = [mpf(1) / 3, mpf(2) / 7, mpf(-5) / 11, mpf(3) / 13]
    a, b, c, d = (fraction_of(v) for v in vals)
    (ea, eb), (ec, ed) = [[exact_z(ZPoly([v])) for v in vals[k:k + 2]] for k in (0, 2)]
    got = char_poly_coeffs([[ea, eb], [ec, ed]])
    assert [fraction_z(x) for x in got] == [[a * d - b * c], [-(a + d)], [1]]


def test_extract_curve_quartic_family():
    # (1/16)(z + 1)(4z + 1)^2 = z^3 + (3/2) z^2 + (9/16) z + 1/16
    L2, L3, state = make_pair("poly")
    report = extract_curve(L2, L3, n0_list=(-1, 0, 1))
    expected = (mpf(1) / 16, mpf(9) / 16, mpf(3) / 2)
    assert report.matched_curve is not None
    for c, e in zip(report.matched_curve.c, expected):
        assert abs(c - e) <= mpf("1e-8")
    scale = max(report.det_poly.sup_norm(), mpf(1))
    assert report.trace_poly.sup_norm() <= mpf("1e-8") * scale
    assert report.base_independence_residual <= mpf("1e-8") * scale


def test_curve_report_passes_needs_the_reference_curve():
    L2, L3, state = make_pair("poly")
    report = extract_curve(L2, L3, n0_list=(-1, 0, 1))
    exact = [mpf(1) / 16, mpf(9) / 16, mpf(3) / 2]
    assert report.passes(exact)
    assert report.passes(state.curve.c)
    for k in range(3):
        off = list(exact)
        off[k] += mpf("1e-6")
        assert report.agreement(off) >= mpf("0.9e-6")
        assert not report.passes(off)
    unmatched = CurveReport(
        report.g, report.trace_poly, report.det_poly, report.base_independence_residual,
        report.closure_defect, None, report.commutator_residual_rel,
    )
    assert unmatched.agreement(exact) is None
    assert not unmatched.passes(exact)


def test_extract_curve_geometric_family():
    L2, L3, _ = make_pair("geom")
    report = extract_curve(L2, L3, n0_list=(-1, 0, 1))
    for c in report.matched_curve.c:
        assert abs(c) <= mpf("1e-8")  # w^2 = z^3


def test_extract_curve_trig_family():
    # double root at 4 sin^4(1/2)/(1-2cos1)^2, simple root (1-2cos1+cos2)/(1-2cos1)^2
    L2, L3, _ = make_pair("trig")
    dbl = 4 * sin(mpf(1) / 2) ** 4 / (1 - 2 * cos(1)) ** 2
    smp = (1 - 2 * cos(1) + cos(2)) / (1 - 2 * cos(1)) ** 2
    # (z - smp) (z - dbl)^2, expanded
    fexp = ZPoly([-dbl * dbl * smp, dbl * dbl + 2 * dbl * smp, -2 * dbl - smp, 1])
    report = extract_curve(L2, L3, n0_list=(-1, 0, 1))
    scale = fexp.sup_norm()
    for k in range(3):
        assert abs(report.matched_curve.c[k] - fexp.coeff(k)) <= mpf("1e-8") * scale


def test_extract_curve_genus2_invariants():
    # no closed-form curve at this genus; the structural invariants hold:
    # vanishing trace, monic -det of degree exactly 2g+1, base independence,
    # and agreement with the curve recovered from the dressing identity
    L2, L5, state = make_pair("trig", 2)
    rep = extract_curve(L2, L5, n0_list=(-1, 0, 1))
    assert rep.matched_curve is not None
    scale = max(rep.det_poly.sup_norm(), mpf(1))
    assert rep.trace_poly.sup_norm() <= mpf("1e-8") * scale
    assert rep.det_poly.degree == 5
    assert rep.base_independence_residual <= mpf("1e-8") * scale
    for a, b in zip(rep.matched_curve.c, state.curve.c):
        assert abs(a - b) <= mpf("1e-8") * scale


def test_extract_curve_eigen_consistency():
    # the eigenfunction sequence is an eigenvector of the action matrix
    L2, L3, state = make_pair("geom")
    z = mpf(3)
    P = curve_point(state.curve, z, 1)
    M = action_at(L2, L3, z, 0)
    v0, v1 = baker_akhiezer(state, P, 0), baker_akhiezer(state, P, 1)
    r0 = M[0][0] * v0 + M[0][1] * v1 - P.w * v0
    r1 = M[1][0] * v0 + M[1][1] * v1 - P.w * v1
    scale = max(abs(P.w * v0), abs(P.w * v1), mpf(1))
    assert abs(r0) <= mpf("1e-8") * scale
    assert abs(r1) <= mpf("1e-8") * scale


def test_extract_curve_base_points_required():
    L2, L3, _ = make_pair("poly")
    with pytest.raises(ValueError):
        extract_curve(L2, L3, n0_list=(0,))
    # one point twice compares a curve with itself: residual 0, nothing checked
    with pytest.raises(ValueError, match="distinct"):
        extract_curve(L2, L3, n0_list=(0, 0))


@pytest.mark.parametrize("kind, params", [
    ("trig", {"r1": 1}),
    ("geom", {"a": 2, "beta": 1}),
    ("poly", {"a2": 1, "a0": 0, "a1": mpf(1) / 2}),
])
def test_extract_curve_residuals_are_roundoff(kind, params):
    # the trace, the base-point spread and the closure defect are rounding
    # errors, not modelling errors: 47 more bits shrink each by at least 2^30
    # unless it is already exactly 0
    measured = []
    for bits in (113, 160):
        with mp.workprec(bits):
            L2, partner, _state, _extras = build_case(FamilySpec(kind, 2, params), (-8, 8))
            rep = extract_curve(L2, partner)
            measured.append(
                (rep.trace_poly.sup_norm(), rep.base_independence_residual, rep.closure_defect)
            )
    for at113, at160 in zip(*measured):
        assert at113 == 0 or at160 <= at113 / 2**30


@pytest.mark.parametrize("kind, g, params", [
    ("trig", 2, {"r1": 1}),
    ("poly", 3, {"a2": 1, "a0": 0, "a1": mpf(1) / 2}),
    ("geom", 2, {"a": 2, "beta": 1}),
    # the longest marches: odd extension g = 5 and trig g = 4
    ("poly", 5, {"a2": 1, "a0": 0, "a1": mpf(1) / 2}),
    ("trig", 4, {"r1": 1}),
    ("geom", 3, {"a": 2, "beta": 1}),
    ("geom", 4, {"a": 2, "beta": 1}),
])
def test_verify_residuals_are_roundoff(kind, g, params):
    # the master, linear and commutator residuals that verify reports shrink
    # by at least 2^30 under 47 more bits, unless already below 2^-113
    measured = []
    for bits in (113, 160):
        with mp.workprec(bits):
            L2, partner, state, _extras = build_case(FamilySpec(kind, g, params), (-8, 8))
            master, linear, _skew = identity_residuals(state, (-8, 8))
            measured.append((master, linear, commutator_residual(L2, partner)[1]))
    for at113, at160 in zip(*measured):
        assert at113 <= mpf(2) ** -113 or at160 <= at113 / 2**30


def test_extract_curve_catches_a_perturbed_partner():
    # 1e-6 on the partner's T^1 coefficient at n = 0 breaks commutation; with
    # the commutation guard lifted, the base points disagree by about 1e-6
    # (2.3e-33 unperturbed) and the report fails
    L2, partner, state, _extras = build_case(FamilySpec("trig", 2, {"r1": 1}), (-10, 10))
    t1 = partner.terms[1]
    lo = t1.window[0]
    terms = dict(partner.terms)
    terms[1] = CoeffSeq(lo, [v + mpf("1e-6") if lo + i == 0 else v
                             for i, v in enumerate(t1.values)])
    bumped = DiffOp(terms, partner.window)
    with pytest.raises(CommutationError):
        extract_curve(L2, bumped)
    clean = extract_curve(L2, partner)
    rep = extract_curve(L2, bumped, commutation_tol=1)
    assert clean.passes(state.curve.c)
    assert clean.base_independence_residual <= mpf("1e-30")
    assert rep.base_independence_residual >= mpf("1e-6")
    assert not rep.passes(state.curve.c)


# ---------------------------------------------------------------------------
# exactness against the Fraction oracles: the kernel, the apply, the action
# matrix and its characteristic polynomial are exact, and every reported
# value is the exact one rounded once
# ---------------------------------------------------------------------------


EXACT_CASES = [
    ("trig", 2, (("r1", "1"),)),
    ("poly", 2, (("a2", "1"), ("a0", "0"))),
    ("poly", 2, (("a2", "0.886695"), ("a1", "0.708451"), ("a0", "0.234504"))),
    ("geom", 2, (("a", "2"), ("beta", "1"))),
    ("elliptic", 1, ()),
]
EXACT_IDS = ["trig", "poly", "poly-nondyadic", "geom", "elliptic"]


@functools.lru_cache(maxsize=None)
def _built(kind, g, params, bits):
    """build_case's (L2, partner) on [-8, 8] at bits, built once per test session."""
    with mp.workprec(bits):
        return build_case(FamilySpec(kind, g, dict(params)), (-8, 8))[:2]


def _exact_or_error(action, L_base, L_act, n0):
    """The action matrix and defect as Fractions, or "WindowError"."""
    try:
        M, defect = action(L_base, L_act, n0)
    except WindowError:
        return "WindowError"
    if isinstance(defect, tuple):  # the package's exact z-polynomials and int ratio
        return [[fraction_z(x) for x in row] for row in M], Fraction(*defect)
    return M, defect


def _assert_kernel_and_apply_exact(L, ops, n0, init, length):
    """kernel_extend from init and each of ops applied to the kernel equal
    the Fraction recurrence and sums, exactly."""
    psi = kernel_extend(L, n0, init, length)
    want = fraction_kernel(L, n0, [fraction_z(x) for x in init], length)
    assert [fraction_z(x) for x in psi] == want
    for op in ops:
        got = op.apply(CoeffSeq._from_raw(n0, psi))
        lo, vals = fraction_apply(op, want, n0)
        assert got.window[0] == lo and [fraction_z(x) for x in got.raw] == vals


@pytest.mark.parametrize("bits", (53, 113, 160, 1100))
@pytest.mark.parametrize("kind, g, params", EXACT_CASES, ids=EXACT_IDS)
def test_kernel_and_apply_are_exact(kind, g, params, bits):
    L2, partner = _built(kind, g, params, bits)
    with mp.workprec(bits):
        inits = [(ONE, ZERO), (ZERO, ONE), (ZERO, ZERO),
                 (exact_z(ZPoly([mpf("0.7"), mpf("-0.3")])), exact_z(ZPoly([0, 0, mpf(1) / 3])))]
        for n0 in (L2.window[0], -1, 0, 3):
            for init in inits:
                _assert_kernel_and_apply_exact(L2, (L2, partner), n0, init, 12)


@pytest.mark.parametrize("bits", (53, 113, 160, 1100))
@pytest.mark.parametrize("kind, g, params", EXACT_CASES, ids=EXACT_IDS)
def test_action_matrix_and_char_poly_are_exact(kind, g, params, bits):
    # the partner, L2 itself (M = z I), an operator with an exact-zero term,
    # zero sites and exact 1s, and one with a negative-degree term, whose
    # action needs kernel values below the base point (a WindowError on
    # both sides); L2.window[0] lies below the partner's window
    L2, partner = _built(kind, g, params, bits)
    with mp.workprec(bits):
        zeros = DiffOp.build({0: lambda n: 0 if n % 2 else mpf(n) / 7, 1: 0, 2: 1,
                              3: lambda n: mpf(1) / (n + 40)}, L2.window)
        negative = DiffOp.build({-1: lambda n: mpf(n) / 5, 0: 0, 1: 1}, L2.window)
        made = 0
        for L_act in (partner, L2, zeros, negative):
            for n0 in (-1, 0, 1, L2.window[0]):
                got = _exact_or_error(action_matrix, L2, L_act, n0)
                assert got == _exact_or_error(fraction_action_matrix, L2, L_act, n0), n0
                if got != "WindowError":
                    made += 1
                    M, _defect = action_matrix(L2, L_act, n0)
                    assert [fraction_z(x) for x in char_poly_coeffs(M)] == \
                        fraction_char_poly(got[0])
        assert made == 11


@pytest.mark.parametrize("bits", (53, 113, 160, 1100))
@pytest.mark.parametrize("kind, g, params", EXACT_CASES, ids=EXACT_IDS)
def test_each_reported_extraction_value_is_the_exact_one_rounded_once(kind, g, params, bits):
    L2, partner = _built(kind, g, params, bits)
    with mp.workprec(bits):
        # commutation_tol=1: at 53 bits a stored pair may not pass the guard
        rep = extract_curve(L2, partner, commutation_tol=1)
        trace, det, spread, worst = exact_curve(L2, partner)
        assert rep.trace_poly.raw == rounded_poly(trace)
        assert rep.det_poly.raw == rounded_poly(det)
        assert rep.base_independence_residual == rounded_fraction(spread)
        assert rep.closure_defect == rounded_fraction(worst)


@pytest.mark.parametrize("bits", (53, 113, 160))
def test_kernel_and_apply_are_exact_on_zeros_negative_degrees_and_wide_data(bits):
    with mp.workprec(bits):
        # a negative-degree term, a zero coefficient and exact 1s
        L = DiffOp.build({-2: lambda n: mpf(n) / 7, 0: 0, 1: 1, 3: lambda n: mpf(1) / (n + 40)},
                         (-20, 20))
        # T^2 with exact-zero lower coefficients, T^2 alone, and a general L2
        S = DiffOp.build({2: 1, 1: 0, 0: 0}, (-20, 20))
        P = DiffOp.build({2: 1}, (-20, 20))
        R = DiffOp.build({2: 1, 1: lambda n: mpf(n) / 7, 0: lambda n: mpf(1) / (n + 40)},
                         (-20, 20))
        # initial data wider than bits, used as given
        with mp.workprec(2 * bits):
            wide = (exact_z(ZPoly([mp.sqrt(2), -mp.sqrt(3)])), exact_z(ZPoly([mp.sqrt(5)])))
        assert max(len(bin(v)) for x in wide for v in x[0]) > bits
        for base in (S, P, R):
            for n0, init in ((-3, (ONE, ZERO)), (0, (ZERO, ZERO)), (0, wide), (-3, wide)):
                _assert_kernel_and_apply_exact(base, (L, base), n0, init, 9)
        # no step at all: the initial data back
        assert kernel_extend(S, 18, wide, 2) == list(wide)


@pytest.mark.parametrize("bits", (53, 113, 160, 1100))
@pytest.mark.parametrize("params", [(2, 0, 0), ("0.3", "1.7", "-0.45")])
def test_rank2_action_and_char_poly_are_exact(params, bits):
    # at (2, 0, 0) the pair commutes and its report holds exact values; the
    # non-dyadic L4 with the same L6 (which then does not commute with it)
    # gives a 4 x 4 action whose entries and characteristic polynomial are
    # exact all the same
    with mp.workprec(bits):
        L4, L6 = build_l4(Rank2Params(*params), (-20, 20)), build_l6_special((-20, 20))
        units = [tuple(ONE if j == i else ZERO for j in range(4)) for i in range(4)]
        mixed = (exact_z(ZPoly([mpf("0.7"), mpf("-0.3")])), ZERO,
                 exact_z(ZPoly([0, 0, mpf(1) / 3])), exact_z(ZPoly([mpf(-2) / 7])))
        for n0 in (-12, -1, 0, 3):
            for init in (*units, mixed):
                _assert_kernel_and_apply_exact(L4, (L4, L6), n0, init, 14)
        M, defect = action_matrix(L4, L6, 0)
        fM, fdefect = fraction_action_matrix(L4, L6, 0)
        assert len(M) == 4 and [[fraction_z(x) for x in row] for row in M] == fM
        assert Fraction(*defect) == fdefect
        got = char_poly_coeffs(M)
        assert [fraction_z(x) for x in got] == fraction_char_poly(fM)
        if params == (2, 0, 0):
            r = expected_curve_poly(Rank2Params(*params))
            rep = rank2_curve_check(L4, L6, r)
            assert {k: p.raw for k, p in rep.char_polys.items()} == {
                k: rounded_poly(fraction_z(x)) for k, x in enumerate(got[:4])}
            assert rep.closure_defect == rounded_fraction(fdefect) == 0
            assert rep.mismatch_rel == 0


def _partner(order):
    """A monic positive operator of the given order on WIN."""
    return DiffOp.build({order: 1, 0: lambda n: mpf(n) / 5}, WIN)


@pytest.mark.parametrize("make, fragment", [
    (lambda: kernel_extend(DiffOp.build({2: 1, -1: 1}, WIN), 0, [ONE, ZERO], 6),
     "needs a positive operator"),
    (lambda: kernel_extend(DiffOp.build({2: 2, 0: 1}, WIN), 0, [ONE, ZERO], 6),
     "needs a monic operator"),
    (lambda: kernel_extend(_partner(2), 0, [ONE], 6), "order 2 needs 2 initial values"),
    (lambda: kernel_extend(_partner(2), 0, [ONE, ZERO], 1), "length must cover"),
    (lambda: extract_curve(_partner(3), _partner(5)), "fixes the base operator at order 2"),
    (lambda: extract_curve(_partner(2), _partner(4)), "must have odd order"),
], ids=["non-positive", "non-monic", "init-count", "short-length", "base-order",
        "even-partner"])
def test_kernel_and_extraction_refuse_operators_they_do_not_take(make, fragment):
    with pytest.raises(ValueError) as got:
        make()
    assert fragment in str(got.value)
