from fractions import Fraction

import pytest
from mpmath import mp, mpf
from mpmath.libmp import fone

from commdiff import rank2
from commdiff.errors import CommutationError
from commdiff.numcore import poly_mul, raw_ints, rround
from commdiff.opalg import CoeffSeq, DiffOp, commutator_residual
from commdiff.rank2 import (
    Rank2Params,
    build_l4,
    build_l6_special,
    expected_curve_poly,
    verify_rank2,
)
from commdiff.spectral import rank2_curve_check
from oracles import _fpmul, fraction_of, raws, rounded_fraction

WIN = (-28, 28)


def test_l4_coefficient_values():
    p = Rank2Params(1, 1, 1)
    L4 = build_l4(p, WIN)
    assert L4.coeff(3).at(0) == 1  # a0 at n = 0
    p2 = Rank2Params(2, 0, 0)
    L42 = build_l4(p2, WIN)
    assert L42.coeff(3).at(1) == 2
    assert L42.is_monic() and L42.order == 4


def test_l4_degenerate_parameters():
    L4 = build_l4(Rank2Params(0, 0, 0), WIN)
    # all sub-leading coefficients vanish: pure fourth-power shift
    for j in range(4):
        assert L4.coeff(j).sup_norm() == 0


def test_l6_coefficient_values():
    L6 = build_l6_special(WIN)
    assert L6.coeff(5).at(0) == 8
    assert L6.coeff(0).at(0) == 0
    assert L6.is_monic() and L6.order == 6


def test_expected_curve_specialized():
    # at (2, 0, 0) the curve polynomial collapses to z^2 (z + 9/4)
    r = expected_curve_poly(Rank2Params(2, 0, 0))
    assert abs(r.coeff(3) - 1) <= mpf("1e-30")
    assert abs(r.coeff(2) - mpf(9) / 4) <= mpf("1e-30")
    assert abs(r.coeff(1)) + abs(r.coeff(0)) <= mpf("1e-30")
    # value at z = 1: (1/262144) * 32^2 * (256 + 576)
    assert abs(r.eval(1) - mpf(851968) / 262144) <= mpf("1e-28")


@pytest.mark.parametrize("bits", (53, 113, 160))
def test_expected_curve_is_the_exact_product_rounded_once(bits):
    # the factors' constants are the published formulas in mpf at the
    # working precision; their product is exact, each coefficient rounded once
    with mp.workprec(bits):
        p = Rank2Params("0.3", "1.7", "-0.45")
        a2, a1, a0 = p.a2, p.a1, p.a0
        inner1 = (a0 - a1) * (a0 - a2) * (a0 * (2 * a0 - a1) - 2 * (a0 + a1) * a2)
        inner2 = (-2 * a0**2 + a1**2 + 4 * a0 * a2 + 3 * (a1 - 2 * a2) * a2) ** 2
        lin1, lin2 = [fraction_of(inner1), 32], [fraction_of(inner2), 256]
        want = [v / 2 ** 18 for v in _fpmul(_fpmul(lin1, lin1), lin2)]
        assert raws(expected_curve_poly(p).coeffs) == raws(map(rounded_fraction, want))


def test_pair_commutes():
    L4 = build_l4(Rank2Params(2, 0, 0), WIN)
    L6 = build_l6_special(WIN)
    _, rel = commutator_residual(L4, L6)
    assert rel <= mpf("1e-10")


def test_char_poly_squared_structure():
    # the pair's coefficients are dyadic, so the polynomial action matrix and
    # its characteristic polynomial come out exactly, w^4 - 2 R w^2 + R^2,
    # from 53 bits up
    for bits in (53, 113, 160):
        with mp.workprec(bits):
            L4 = build_l4(Rank2Params(2, 0, 0), WIN)
            L6 = build_l6_special(WIN)
            r = expected_curve_poly(Rank2Params(2, 0, 0))
            report = rank2_curve_check(L4, L6, r)
            assert report.mismatch_rel == 0, bits
            assert report.closure_defect == 0, bits
            (ri,), e = raw_ints([r.raw])
            r2 = [mp.make_mpf(rround(v, 2 * e, bits)) for v in poly_mul(ri, ri)]
            assert report.char_polys[0].coeffs == tuple(r2), bits
            assert report.char_polys[2].coeffs == tuple(-2 * c for c in r.coeffs), bits
            assert report.char_polys[1].raw == report.char_polys[3].raw == [], bits


def test_verify_rank2_report():
    report = verify_rank2()
    assert report["commutation_pass"]
    assert report["curve_pass"]


def test_verify_rank2_rejects_perturbed_partner(monkeypatch):
    # L6 + 1e-3 n T: the whole-operator scale puts this commutator at 1e-18
    def perturbed(window):
        L6 = build_l6_special(window)
        return L6 + DiffOp({1: CoeffSeq.tabulate(lambda n: mpf("1e-3") * n, window)}, window)

    monkeypatch.setattr(rank2, "build_l6_special", perturbed)
    with pytest.raises(CommutationError):
        verify_rank2()


def test_true_pair_commutes_coefficient_by_coefficient():
    # the coefficients of L4 L6 on WIN are integers of up to 84 bits: the
    # commutator is exactly 0 at 113 and 160 bits, and one rounding at 53
    for bits, bound in ((53, mpf(2) ** -51), (113, 0), (160, 0)):
        with mp.workprec(bits):
            L4 = build_l4(Rank2Params(2, 0, 0), WIN)
            L6 = build_l6_special(WIN)
            report = rank2_curve_check(L4, L6, expected_curve_poly(Rank2Params(2, 0, 0)))
        assert report.commutator_residual_rel <= bound, bits


def _closed_forms(a2, a1, a0, one):
    """The closed forms of L4's and L6's lower coefficients, {order: {j: f}},
    in the order of operations that the mpf tabulation used, for one =
    mpf(1), or exactly, for one = Fraction(1) and Fraction parameters."""
    return {4: {
        3: lambda n: a2 * n * n + a1 * n + a0,
        2: lambda n: (one * 3 / 8 * (a1 + a2 * (n - 1)) * n
                      * (2 * a0 + a1 * (n - 1) + a2 * (n * n - n - 2))),
        1: lambda n: -one / 16 * (a0 + a1 * (n - 1) + a2 * (n - 2) * n) * (
            2 * a0**2 - a1**2 * (n - 2) * n - a0 * (a1 + 2 * a2 * (n - 1) ** 2 + 2 * a1 * n)
            - a1 * a2 * (2 * n**3 - 6 * n**2 - n + 2) - a2**2 * n * (n**3 - 4 * n**2 - n + 10)),
        0: lambda n: one / 256 * (a1 + a2 * (n - 3)) * n * (
            2 * a0 - 4 * a2 + (n - 3) * (a1 + a2 * n)) * (
            -4 * a0**2 + a1**2 * (n - 2) * (n - 1)
            + a2**2 * (n - 2) * (n - 1) * ((n - 3) * n - 6)
            + 2 * a0 * (a1 * n + a2 * ((n - 3) * n + 4))
            + a1 * a2 * (6 + n * (5 + n * (2 * n - 9)))),
    }, 6: {
        5: lambda n: one * 3 * n * n + 6 * n + 8,
        4: lambda n: one / 4 * (n * (n + 1) * (32 + 15 * n * (n + 1)) - 6),
        3: lambda n: one / 2 * n**2 * (n**2 - 2) * (5 * n**2 + 7),
        2: lambda n: (one / 16 * (n - 2) * (n - 1) * n * (n + 1)
                      * ((n - 1) * n * (15 * (n - 1) * n - 38) - 36)),
        1: lambda n: (one / 16 * (n - 2) ** 2 * n**2
                      * (12 + (n - 2) * n * ((n - 2) * n - 5) * (3 * (n - 2) * n - 11))),
        0: lambda n: (one / 64 * (n - 4) * (n - 3) * (n - 2) * (n - 1) * n * (n + 1)
                      * ((n - 3) * n - 6) * ((n - 4) * (n - 3) * n * (n + 1) - 6)),
    }}


def _terms(L):
    return {j: t.raw for j, t in L.terms.items()}


def _tabulated(forms, order, convert):
    lo, hi = WIN
    return {order: [fone] * (hi - lo + 1),
            **{j: [convert(f(n)) for n in range(lo, hi + 1)] for j, f in forms.items()}}


@pytest.mark.parametrize("bits", (53, 113))
def test_the_dyadic_pair_tabulates_as_the_mpf_closed_forms(bits):
    # the integer closed forms, each shifted by its dyadic constant and
    # rounded once, give the bits of the mpf formulas on WIN
    with mp.workprec(bits):
        forms = _closed_forms(mpf(2), mpf(0), mpf(0), mpf(1))
        raw = lambda v: mpf(v)._mpf_
        assert _terms(build_l4(Rank2Params(2, 0, 0), WIN)) == _tabulated(forms[4], 4, raw)
        assert _terms(build_l6_special(WIN)) == _tabulated(forms[6], 6, raw)


@pytest.mark.parametrize("bits", (53, 113, 160))
@pytest.mark.parametrize("params", [("0.3", "1.7", "-0.45"), ("1e-9", "-3", "7.25")])
def test_l4_coefficients_are_the_exact_closed_forms_rounded_once(params, bits):
    with mp.workprec(bits):
        p = Rank2Params(*params)
        a2, a1, a0 = (fraction_of(v) for v in (p.a2, p.a1, p.a0))
        forms = _closed_forms(a2, a1, a0, Fraction(1))[4]
        assert _terms(build_l4(p, WIN)) == _tabulated(forms, 4, lambda v: rounded_fraction(v)._mpf_)


def test_verify_rank2_reports_exact_zeros():
    report = verify_rank2()
    for key in ("commutator_residual_rel", "curve_mismatch_rel", "closure_defect"):
        assert report[key] == 0 and type(report[key]) is mpf, key
