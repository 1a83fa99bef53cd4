import pytest
from mpmath import mpf, cos, sin

from commdiff.errors import CommutationError, WindowError
from commdiff.numcore import ZPoly
from commdiff.opalg import DiffOp
from commdiff.dressing import (
    GeomBasis,
    TrigBasis,
    EvenPowerBasis,
    ansatz_solve,
    ba_sequence,
    build_partner_op,
    curve_point,
    l2_operator,
)
from commdiff.families import geom_family, poly_family, trig_family
from commdiff.spectral import (
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
        U, W = geom_family(g, 1, 2, w_sign=1, window=WIN)
        basis = GeomBasis(g, 2)
    result = ansatz_solve(basis, U, W)
    state = result.state(U, W, (-22, 22))
    L2 = l2_operator(U, W)
    return L2, build_partner_op(state, L2), state


def test_kernel_extend_pure_shift_square():
    L = DiffOp.build({2: 1, 1: 0, 0: 0}, WIN)
    z = mpf("2.5")
    psi = kernel_extend(L, z, 0, (1, 0), 11)
    for k in range(5):
        assert psi.at(2 * k) == z**k
        assert psi.at(2 * k + 1) == 0


def test_kernel_extend_satisfies_recurrence():
    U, W = poly_family(1, 1, 0, 0, WIN)
    L2 = l2_operator(U, W)
    z = mpf(1)
    psi = kernel_extend(L2, z, -3, (mpf("0.7"), mpf("-0.2")), 16)
    out = L2.apply(psi)
    scale = L2.sup_norm() * psi.sup_norm()
    for n in range(out.window[0], out.window[1] + 1):
        assert abs(out.at(n) - z * psi.at(n)) <= mpf("1e-14") * scale


def test_kernel_extend_zero_init():
    U, W = poly_family(1, 1, 0, 0, WIN)
    L2 = l2_operator(U, W)
    psi = kernel_extend(L2, mpf(2), 0, (0, 0), 10)
    assert psi.sup_norm() == 0


def test_kernel_extend_window_guard():
    L = DiffOp.build({2: 1, 0: 0}, (0, 3))
    with pytest.raises(WindowError):
        kernel_extend(L, mpf(1), 0, (1, 0), 12)


def test_action_matrix_self_is_z_identity():
    L2, L3, _ = make_pair("poly")
    z = mpf("1.75")
    M = action_matrix(L2, L2, z, 0)
    assert abs(M.entries[0][0] - z) <= mpf("1e-25")
    assert abs(M.entries[1][1] - z) <= mpf("1e-25")
    assert abs(M.entries[0][1]) + abs(M.entries[1][0]) <= mpf("1e-25")


def test_action_matrix_identity_operator():
    L2, _, _ = make_pair("poly")
    I = DiffOp.identity(L2.window)
    M = action_matrix(L2, I, mpf(2), 0)
    assert abs(M.entries[0][0] - 1) <= mpf("1e-28")
    assert abs(M.entries[1][1] - 1) <= mpf("1e-28")


def test_action_matrix_geometric_char_poly():
    # at z = 2 the characteristic polynomial is w^2 - 8 (curve w^2 = z^3)
    L2, L3, _ = make_pair("geom")
    M = action_matrix(L2, L3, mpf(2), 0)
    tr = M.entries[0][0] + M.entries[1][1]
    det = M.entries[0][0] * M.entries[1][1] - M.entries[0][1] * M.entries[1][0]
    assert abs(tr) <= mpf("1e-10")
    assert abs(det + 8) <= mpf("1e-10")


def test_action_matrix_rejects_non_commuting():
    L2, _, _ = make_pair("poly")
    junk = DiffOp.build({3: 1, 0: lambda n: mpf(n)}, L2.window)
    with pytest.raises(CommutationError):
        action_matrix(L2, junk, mpf(1), 0)


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
    M = action_matrix(L2, L3, z, 0)
    psi = ba_sequence(state, P, (0, 1))
    v0, v1 = psi.at(0), psi.at(1)
    r0 = M.entries[0][0] * v0 + M.entries[0][1] * v1 - P.w * v0
    r1 = M.entries[1][0] * v0 + M.entries[1][1] * v1 - P.w * v1
    scale = max(abs(P.w * v0), abs(P.w * v1), mpf(1))
    assert abs(r0) <= mpf("1e-8") * scale
    assert abs(r1) <= mpf("1e-8") * scale


def test_extract_curve_base_points_required():
    L2, L3, _ = make_pair("poly")
    with pytest.raises(ValueError):
        extract_curve(L2, L3, n0_list=(0,))
