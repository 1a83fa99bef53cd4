import random

import pytest
from mpmath import mpf

from commdiff.errors import DegenerateDenominatorError, NonFiniteError
from commdiff.numcore import (
    HyperellipticCurve,
    ZPoly,
    get_precision,
    poly_div_exact,
    poly_mul,
    scalar,
    set_precision,
)


def test_precision_configurable():
    assert get_precision() == 113
    set_precision(53)
    assert get_precision() == 53
    set_precision(113)
    with pytest.raises(ValueError):
        set_precision(32)


def test_scalar_rejects_non_finite():
    with pytest.raises(NonFiniteError):
        scalar(float("inf"))
    with pytest.raises(NonFiniteError):
        scalar(float("nan"))


def test_poly_eval_basics():
    p = ZPoly([1, 0, 1])  # z^2 + 1
    assert p.eval(2) == 5
    assert ZPoly.zero().eval(17) == 0
    f1 = HyperellipticCurve(1, (0, 0, 0)).fpoly()  # monic cubic
    assert f1.eval(3) == 27


def test_poly_mul_basics():
    p = ZPoly([1, 1])   # z + 1
    q = ZPoly([-1, 1])  # z - 1
    r = poly_mul(p, q)
    assert r.coeffs == (mpf(-1), mpf(0), mpf(1))
    assert poly_mul(p, ZPoly.zero()).is_zero


def test_poly_mul_pointwise_oracle():
    # quartic-family S at n=0 (a2=1, a0=0) is the constant 1/4
    s0 = ZPoly([mpf(1) / 4])
    prod = poly_mul(s0, s0)
    points = [mpf(-3), mpf("-1.7"), mpf(0), mpf("0.45"), mpf("2.9")]
    for z in points:
        assert abs(prod.eval(z) - s0.eval(z) ** 2) <= mpf("1e-30")
    # and a generic polynomial, squared, against sampled evaluation
    s2 = ZPoly([mpf(1) / 4, -mpf(13) / 4, 0, 1])
    prod2 = poly_mul(s2, s2)
    for z in points:
        ref = s2.eval(z) ** 2
        assert abs(prod2.eval(z) - ref) <= mpf("1e-28") * max(1, abs(ref))


def test_poly_degree_law():
    rng = random.Random(7)
    for _ in range(20):
        p = ZPoly([rng.uniform(-2, 2) for _ in range(rng.randint(1, 5))] + [1])
        q = ZPoly([rng.uniform(-2, 2) for _ in range(rng.randint(1, 5))] + [1])
        assert poly_mul(p, q).degree == p.degree + q.degree


def test_trailing_exact_zeros_trimmed():
    p = ZPoly([1, 2, 0, 0])
    assert p.degree == 1
    assert ZPoly([0, 0]).is_zero


def test_poly_div_exact_basics():
    q, r = poly_div_exact(ZPoly([-1, 0, 1]), ZPoly([-1, 1]))  # (z^2-1)/(z-1)
    assert q.coeffs == (mpf(1), mpf(1))
    assert r == 0
    q, r = poly_div_exact(ZPoly([0, 0, 1]), ZPoly([-1, 1]))  # z^2/(z-1)
    assert q.coeffs == (mpf(1), mpf(1))
    assert r == 1
    with pytest.raises(DegenerateDenominatorError):
        poly_div_exact(ZPoly([1, 1]), ZPoly.zero())


def test_poly_div_exact_geometric_fixture():
    # genus-1 geometric fixture at n=0 (a=2, beta=1): curve w^2 = z^3,
    # S_0 = -z + 4/27, U_0 = 1, W_0 = -5/9, Q_0 = z - 1/9; the quotient is
    # Q_1 = z - 4/9 with numerically zero remainder
    f = ZPoly([0, 0, 0, 1])
    s0 = ZPoly([mpf(4) / 27, -1])
    u0, w0 = mpf(1), -mpf(5) / 9
    q0 = ZPoly([-mpf(1) / 9, 1])
    num = f - poly_mul(s0, s0)
    den = poly_mul(ZPoly([-(u0**2) - w0, 1]), q0)
    q1, resid = poly_div_exact(num, den)
    scale = num.sup_norm()
    assert resid <= mpf("1e-20") * scale
    assert abs(q1.coeff(0) + mpf(4) / 9) <= mpf("1e-30")
    assert abs(q1.coeff(1) - 1) <= mpf("1e-30")


def test_div_mul_roundtrip_residual_zero():
    rng = random.Random(3)
    for _ in range(10):
        den = ZPoly([rng.uniform(-2, 2) for _ in range(3)] + [1])
        quo = ZPoly([rng.uniform(-2, 2) for _ in range(4)] + [1])
        num = poly_mul(quo, den)
        q, r = poly_div_exact(num, den)
        assert r <= mpf("1e-30") * num.sup_norm()
        assert max(abs(q.coeff(k) - quo.coeff(k)) for k in range(6)) <= mpf("1e-30")


def test_ring_axioms_property():
    rng = random.Random(5)
    for _ in range(12):
        def rnd():
            return ZPoly([rng.uniform(-2, 2) for _ in range(rng.randint(1, 4))])

        a, b, c = rnd(), rnd(), rnd()
        lhs = poly_mul(poly_mul(a, b), c)
        rhs = poly_mul(a, poly_mul(b, c))
        scale = max(lhs.sup_norm(), mpf(1))
        assert (lhs - rhs).sup_norm() <= mpf("1e-12") * scale
        lhs = poly_mul(a, b + c)
        rhs = poly_mul(a, b) + poly_mul(a, c)
        scale = max(lhs.sup_norm(), mpf(1))
        assert (lhs - rhs).sup_norm() <= mpf("1e-12") * scale


def test_curve_validation():
    with pytest.raises(ValueError):
        HyperellipticCurve(0, ())
    with pytest.raises(ValueError):
        HyperellipticCurve(1, (1, 2))
    with pytest.raises(ValueError):
        HyperellipticCurve.from_fpoly(ZPoly([0, 0, 0, 2]), 1)  # lead 2: not monic
    c = HyperellipticCurve.from_fpoly(ZPoly([4, 0, 0, 1]), 1)
    assert c.eval(2) == 12
