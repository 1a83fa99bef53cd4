import pytest
from mpmath import mp, mpf, cos, sin
from mpmath.libmp import fzero

from commdiff.errors import CommutationError, WindowError
from commdiff.numcore import ZPoly
from commdiff.opalg import CoeffSeq, DiffOp, commutator_residual
from commdiff.dressing import (
    GeomBasis,
    TrigBasis,
    EvenPowerBasis,
    ansatz_solve,
    build_partner_op,
    identity_residuals,
    l2_operator,
)
from commdiff.families import FamilySpec, build_case, geom_family, poly_family, trig_family
from commdiff import spectral
from commdiff.rank2 import Rank2Params, build_l4, build_l6_special
from oracles import baker_akhiezer, curve_point
from test_numcore import _raw, _reference_add, _reference_poly_mul
from commdiff.spectral import (
    CurveReport,
    action_matrix,
    char_poly_coeffs,
    extract_curve,
    kernel_extend,
)

WIN = (-26, 26)


def make_pair(kind, g=1):
    if kind == "trig":
        U, W = trig_family(g, 1, WIN)
        basis = TrigBasis(g)
    elif kind == "poly":
        U, W = poly_family(g, 1, 0, 0, WIN)
        basis = EvenPowerBasis(g)
    else:
        U, W = geom_family(g, 1, 2, window=WIN)
        basis = GeomBasis(g, 2)
    result = ansatz_solve(basis, U, W)
    state = result.state(U, W, (-22, 22))
    L2 = l2_operator(U, W)
    return L2, build_partner_op(state, L2), state


def test_kernel_extend_pure_shift_square():
    # T^2 psi = z psi from psi(0) = 1, psi(1) = 0: psi(2k) = z^k, psi(2k+1) = 0
    L = DiffOp.build({2: 1, 1: 0, 0: 0}, WIN)
    psi = kernel_extend(L, 0, (ZPoly([1]), ZPoly.zero()), 11)
    assert len(psi) == 6
    for j, c in enumerate(psi):
        for n in range(11):
            assert c.at(n) == (1 if n == 2 * j else 0)


def test_kernel_extend_satisfies_recurrence():
    # (L2 - z) psi = 0 coefficient by coefficient: L2 psi_0 = 0 and
    # L2 psi_k = psi_{k-1}
    U, W = poly_family(1, 1, 0, 0, WIN)
    L2 = l2_operator(U, W)
    init = (ZPoly([mpf("0.7"), mpf("-0.3")]), ZPoly([mpf("-0.2")]))
    psi = kernel_extend(L2, -3, init, 16)
    assert len(psi) == 9  # psi(n0 + 14) has degree 8 in z
    scale = L2.sup_norm() * max(c.sup_norm() for c in psi)
    for k, c in enumerate(psi):
        out = L2.apply(c)
        for n in range(out.window[0], out.window[1] + 1):
            below = psi[k - 1].at(n) if k else 0
            assert abs(out.at(n) - below) <= mpf("1e-28") * scale


def test_kernel_extend_zero_init():
    U, W = poly_family(1, 1, 0, 0, WIN)
    L2 = l2_operator(U, W)
    psi = kernel_extend(L2, 0, (ZPoly.zero(), ZPoly.zero()), 10)
    assert not any(c.sup_norm() for c in psi)


def test_kernel_extend_window_guard():
    L = DiffOp.build({2: 1, 0: 0}, (0, 3))
    with pytest.raises(WindowError):
        kernel_extend(L, 0, (ZPoly([1]), ZPoly.zero()), 12)


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
    return [[p.eval(z) for p in row] for row in M]


def test_action_matrix_self_is_z_identity():
    L2, L3, _ = make_pair("poly")
    z = mpf("1.75")
    M = action_at(L2, L2, z, 0)
    assert abs(M[0][0] - z) <= mpf("1e-25")
    assert abs(M[1][1] - z) <= mpf("1e-25")
    assert abs(M[0][1]) + abs(M[1][0]) <= mpf("1e-25")


def test_action_matrix_identity_operator():
    L2, _, _ = make_pair("poly")
    I = DiffOp.identity(L2.window)
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
    M = [[0, 0, 6], [1, 0, -11], [0, 1, 6]]
    cs = char_poly_coeffs(M)
    expected = [-6, 11, -6, 1]
    assert max(abs(a - b) for a, b in zip(cs, expected)) <= mpf("1e-25")
    # 2 x 2: determinant and minus the trace, exactly
    a, b, c, d = mpf(1) / 3, mpf(2) / 7, mpf(-5) / 11, mpf(3) / 13
    assert char_poly_coeffs([[a, b], [c, d]]) == [a * d - b * c, -(a + d), 1]


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
    expected = (
        dbl * dbl * ZPoly([-smp, 1])
        + ZPoly([0])
    )
    fexp = ZPoly([-smp, 1]) * ZPoly([-dbl, 1]) * ZPoly([-dbl, 1])
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
    assert (-rep.det_poly).degree == 5
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
# bit-identity oracles: the loops that multiplied z psi by ZPoly([0, 1]),
# read every value through .at(), summed from mpf(0) and validated every
# computed value again
# ---------------------------------------------------------------------------


def _reference_kernel_extend(L, n0, init, length):
    """The kernel recurrence that `kernel_extend` must reproduce bit for bit."""
    m = L.order
    vals = list(init)
    for n in range(n0, n0 + length - m):
        acc = ZPoly([0, 1]) * vals[n - n0]
        for j, u in L.terms.items():
            if j == m:
                continue
            acc -= u.at(n) * vals[n - n0 + j]
        vals.append(acc)
    width = max(len(v.coeffs) for v in vals)
    return [CoeffSeq(n0, [v.coeff(k) for v in vals]) for k in range(width)]


def _reference_apply(L, f):
    """The per-site loop that `DiffOp.apply` must reproduce bit for bit."""
    lo = max(L.window[0], f.window[0] - L.min_degree)
    hi = min(L.window[1], f.window[1] - L.order)
    vals = []
    for n in range(lo, hi + 1):
        acc = mpf(0)
        for j, u in L.terms.items():
            acc += u.at(n) * f.at(n + j)
        vals.append(acc)
    return CoeffSeq(lo, vals)


def _raw_seq(f):
    return f.window, [v._mpf_ for v in f.values]


def _raw_seqs(seqs):
    return [_raw_seq(f) for f in seqs]


ORACLE_CASES = [
    ("trig", {"r1": "1"}),
    ("poly", {"a2": "1", "a0": "0"}),
    ("geom", {"a": "2", "beta": "1"}),
    ("poly", {"a2": "0.886695", "a1": "0.708451", "a0": "0.234504"}),
]


@pytest.mark.parametrize("bits", (53, 113, 160))
@pytest.mark.parametrize("kind, params", ORACLE_CASES)
def test_kernel_extend_and_apply_match_reference_loops_bit_for_bit(kind, params, bits):
    with mp.workprec(bits):
        L2, partner, _state, _extras = build_case(FamilySpec(kind, 2, params), (-6, 6))
        inits = [
            (ZPoly([1]), ZPoly.zero()),
            (ZPoly.zero(), ZPoly([1])),
            (ZPoly.zero(), ZPoly.zero()),
            (ZPoly([mpf("0.7"), mpf("-0.3")]), ZPoly([mpf("-0.2"), 0, mpf(1) / 3])),
        ]
        for n0 in (L2.window[0], -1, 0, 3):
            for init in inits:
                psi = kernel_extend(L2, n0, init, 12)
                assert _raw_seqs(psi) == _raw_seqs(_reference_kernel_extend(L2, n0, init, 12))
                for op in (L2, partner):
                    for f in psi:
                        assert _raw_seq(op.apply(f)) == _raw_seq(_reference_apply(op, f))


@pytest.mark.parametrize("bits", (53, 113, 160))
def test_apply_matches_the_reference_loop_on_exact_zeros_and_negative_degrees(bits):
    with mp.workprec(bits):
        # a negative-degree term, a zero coefficient and exact 1s
        L = DiffOp.build({-2: lambda n: mpf(n) / 7, 0: 0, 1: 1, 3: lambda n: mpf(1) / (n + 40)},
                         (-20, 20))
        f = CoeffSeq.tabulate(lambda n: 0 if n % 3 == 0 else mpf(n) / 11 - mpf(1) / 3, (-15, 18))
        assert any(v == 0 for v in f.values)
        assert _raw_seq(L.apply(f)) == _raw_seq(_reference_apply(L, f))
        # T^2 with exact zero lower coefficients: psi holds exact zeros
        S = DiffOp.build({2: 1, 1: 0, 0: 0}, (-20, 20))
        psi = kernel_extend(S, -3, (ZPoly([1]), ZPoly.zero()), 15)
        assert _raw_seqs(psi) == _raw_seqs(
            _reference_kernel_extend(S, -3, (ZPoly([1]), ZPoly.zero()), 15))
        for c in psi:
            assert _raw_seq(L.apply(c)) == _raw_seq(_reference_apply(L, c))
        # T^2 alone, from zero data: psi = 0 has no coefficients at all
        P = DiffOp.build({2: 1}, (-20, 20))
        zero = (ZPoly.zero(), ZPoly.zero())
        assert kernel_extend(P, 0, zero, 9) == _reference_kernel_extend(P, 0, zero, 9) == []
        # no step at all: the initial data back, as sequences
        init = (ZPoly([mpf(1) / 3, 1]), ZPoly([0, 0, mpf(2) / 7]))
        assert _raw_seqs(kernel_extend(S, 18, init, 2)) == _raw_seqs(
            _reference_kernel_extend(S, 18, init, 2))
        # initial data wider than bits under exact-zero lower coefficients:
        # z psi is an exact shift and a zero coefficient subtracts nothing,
        # so psi(n + 2) = z psi(n) keeps every bit
        with mp.workprec(2 * bits):
            wide = (ZPoly([mp.sqrt(2), -mp.sqrt(3)]), ZPoly([mp.sqrt(5)]))
        psi = kernel_extend(S, 0, wide, 6)
        for r in range(2, 6):
            got = [s.at(r)._mpf_ for s in psi]
            want = [fzero] * (r // 2) + wide[r % 2].raw
            assert got == want + [fzero] * (len(got) - len(want)), r


@pytest.mark.parametrize("bits", (53, 113, 160))
@pytest.mark.parametrize("kind, params", ORACLE_CASES)
def test_action_matrix_matches_the_reference_loops_bit_for_bit(monkeypatch, kind, params, bits):
    with mp.workprec(bits):
        L2, partner, _state, _extras = build_case(FamilySpec(kind, 2, params), (-6, 6))
        for n0 in (-1, 0, 1):
            M, defect = action_matrix(L2, partner, n0)
            with monkeypatch.context() as m:
                m.setattr(spectral, "kernel_extend", _reference_kernel_extend)
                m.setattr(DiffOp, "apply", _reference_apply)
                M_ref, defect_ref = action_matrix(L2, partner, n0)
            assert [[[c._mpf_ for c in p.coeffs] for p in row] for row in M] == [
                [[c._mpf_ for c in p.coeffs] for p in row] for row in M_ref
            ]
            assert defect._mpf_ == defect_ref._mpf_


# the rank-two L4: order 4, the dyadic pair of rank2 and a non-dyadic L4
RANK2_CASES = [(2, 0, 0), ("0.3", "1.7", "-0.45")]


def _reference_total(polys):
    """p_1 + p_2 + ... left to right, each sum the mpf loop of ZPoly's +."""
    acc = polys[0]
    for p in polys[1:]:
        acc = _reference_add(acc, p)
    return acc


def _reference_char_poly(A):
    """The Faddeev-LeVerrier loop over ZPoly entries that `char_poly_coeffs`
    must reproduce bit for bit above 2 x 2: traces of A^1..A^m, then Newton's
    identities, c_{m-k} = -(p_k + c_{m-1} p_{k-1} + ...) / k."""
    m = len(A)
    Mk = A
    traces = [_reference_total([A[i][i] for i in range(m)])]
    for _ in range(m - 1):
        Mk = [[_reference_total([_reference_poly_mul(Mk[i][k], A[k][j]) for k in range(m)])
               for j in range(m)] for i in range(m)]
        traces.append(_reference_total([Mk[i][i] for i in range(m)]))
    coeffs = [None] * m + [mpf(1)]
    for k in range(1, m + 1):
        acc = traces[k - 1]
        for i in range(1, k):
            acc = _reference_add(acc, _reference_poly_mul(coeffs[m - i], traces[k - i - 1]))
        coeffs[m - k] = ZPoly([-c / k for c in acc.coeffs])
    return coeffs


@pytest.mark.parametrize("bits", (53, 113, 160, 1100))
@pytest.mark.parametrize("params", RANK2_CASES)
def test_kernel_extend_of_the_rank2_l4_matches_the_reference_loop_bit_for_bit(params, bits):
    with mp.workprec(bits):
        L4 = build_l4(Rank2Params(*params), (-12, 12))
        units = [tuple(ZPoly([1]) if j == i else ZPoly.zero() for j in range(4))
                 for i in range(4)]
        mixed = (ZPoly([mpf("0.7"), mpf("-0.3")]), ZPoly.zero(), ZPoly([0, 0, mpf(1) / 3]),
                 ZPoly([mpf(-2) / 7]))
        for n0 in (-12, -1, 0, 3):
            for init in (*units, mixed):
                psi = kernel_extend(L4, n0, init, 14)
                assert _raw_seqs(psi) == _raw_seqs(_reference_kernel_extend(L4, n0, init, 14))


@pytest.mark.parametrize("bits", (53, 113, 160, 1100))
@pytest.mark.parametrize("params", RANK2_CASES)
def test_char_poly_of_the_rank2_action_matrix_matches_faddeev_leverrier_bit_for_bit(params,
                                                                                    bits):
    # at (2, 0, 0) the 4 x 4 action of L6 on ker(L4 - z) is exact; the
    # non-dyadic L4 with the same L6 (which then does not commute with it)
    # gives entries that round
    with mp.workprec(bits):
        L4 = build_l4(Rank2Params(*params), (-20, 20))
        M, _defect = action_matrix(L4, build_l6_special((-20, 20)), 0)
        assert len(M) == 4 and all(len(row) == 4 for row in M)
        got, want = char_poly_coeffs(M), _reference_char_poly(M)
        assert [_raw(c) for c in got[:4]] == [_raw(c) for c in want[:4]]
        assert got[4] == want[4] == 1
