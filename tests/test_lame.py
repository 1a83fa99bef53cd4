import pytest
from mpmath import mpf

from commdiff.errors import LatticeProximityError
from commdiff.lame import (
    LameDiscretization,
    WeierstrassContext,
    ag_build,
    continuum_check,
    continuum_slope,
    lame_curve_independence,
    lame_l2,
    lemniscatic_context,
    select_a2_interpretation,
)

CTX = lemniscatic_context()


def test_roots_and_half_period():
    assert abs(CTX.e1 - 1) <= mpf("1e-30")
    assert abs(CTX.e2) <= mpf("1e-30")
    assert abs(CTX.e3 + 1) <= mpf("1e-30")
    # lemniscatic half period 1.31102877714605990523...
    assert abs(CTX.omega1 - mpf("1.311028777146059905232419794945559")) <= mpf("1e-25")


def test_wp_laurent_leading():
    x = mpf("1e-3")
    # wp(x) = 1/x^2 + g2 x^2 / 20 + O(x^6)
    assert abs(CTX.wp(x) - 1 / x**2 - CTX.g2 * x**2 / 20) <= mpf("1e-12") * abs(CTX.wp(x))
    assert abs(CTX.wp(x) - 1 / x**2) <= CTX.g2 * x**2 / 20 * mpf("1.01")


def test_parity():
    for xs in ("0.41", "0.9", "1.2"):
        x = mpf(xs)
        assert abs(CTX.zeta(-x) + CTX.zeta(x)) <= mpf("1e-12")
        assert abs(CTX.wp(-x) - CTX.wp(x)) <= mpf("1e-12") * abs(CTX.wp(x))


def test_zeta_derivative_is_minus_wp():
    h = mpf("1e-6")
    for xs in ("0.35", "0.7", "1.1"):
        x = mpf(xs)
        zd = (CTX.zeta(x + h) - CTX.zeta(x - h)) / (2 * h)
        assert abs(zd + CTX.wp(x)) <= mpf("1e-8")


def test_wp_differential_equation():
    for xs in ("0.3", "0.8"):
        x = mpf(xs)
        p, dp, _ = CTX.triple(x)
        resid = dp**2 - (4 * p**3 - CTX.g2 * p - CTX.g3)
        assert abs(resid) <= mpf("1e-25") * max(1, abs(p) ** 3)


def test_wp_at_half_period():
    assert abs(CTX.wp(CTX.omega1 - mpf("1e-9")) - CTX.e1) <= mpf("1e-8")


def test_quasi_periodicity():
    x = mpf("0.52")
    lhs = CTX.zeta(x + 2 * CTX.omega1) - CTX.zeta(x) - 2 * CTX.eta1
    assert abs(lhs) <= mpf("1e-28")


def test_lattice_proximity_guard():
    with pytest.raises(LatticeProximityError):
        CTX.zeta(mpf("1e-8"))
    with pytest.raises(LatticeProximityError):
        CTX.wp(2 * CTX.omega1 + mpf("1e-9"))


def test_rectangular_lattice_required():
    with pytest.raises(ValueError):
        WeierstrassContext(1, 1)  # discriminant < 0


def test_a1_formula():
    eps = mpf("0.1")
    A1 = ag_build(CTX, 1, eps)
    x = mpf("0.7")
    expected = -2 * CTX.zeta(eps) - CTX.zeta(x - eps) + CTX.zeta(x + eps)
    assert A1(x) == expected


def test_a3_product_structure():
    eps = mpf("0.05")
    A1 = ag_build(CTX, 1, eps)
    A3 = ag_build(CTX, 3, eps)
    x = mpf("0.7")
    factor = 1 + (CTX.zeta(x - 3 * eps) - CTX.zeta(x + 3 * eps)) / (
        CTX.zeta(eps) + CTX.zeta(5 * eps)
    )
    assert abs(A3(x) - A1(x) * factor) <= mpf("1e-25") * abs(A3(x))


def test_a1_small_eps_limit():
    # eps * A1 -> -2 with an O(eps^2) defect
    x = mpf("0.7")
    for es in ("0.1", "0.05", "0.025"):
        eps = mpf(es)
        A1 = ag_build(CTX, 1, eps)
        assert abs(eps * A1(x) + 2) <= 3 * eps**2 * abs(CTX.wp(x))


def test_lame_l2_structure():
    eps = mpf("0.05")
    disc = LameDiscretization(1, eps, mpf("0.73"))
    L2 = lame_l2(disc, CTX, (-24, 24))
    wp_eps = CTX.wp(eps)
    for n in (-24, 0, 24):
        assert L2.coeff(0).at(n) == wp_eps
        assert L2.coeff(2).at(n) == 1 / eps**2
    monic = L2 * eps**2
    assert monic.is_monic()


def test_lame_l2_lattice_hit_detected():
    # x0 = 0.7 with eps = 0.05 puts a zeta argument exactly on the lattice
    # at n = -13 (x_n - eps = 0); the guard must fire
    disc = LameDiscretization(1, mpf("0.05"), mpf("0.7"))
    with pytest.raises(LatticeProximityError):
        lame_l2(disc, CTX, (-24, 24))


def test_continuum_zero_function():
    disc = LameDiscretization(1, mpf("0.1"), mpf("0.7"))
    z = lambda t: mpf(0)
    assert continuum_check(disc, CTX, z, z, mpf("0.7")) == 0


def test_continuum_slopes():
    for g in (1, 2, 3):
        slope, errs = continuum_slope(CTX, g)
        assert slope >= mpf("0.8")
        assert errs[0] > errs[-1]


def test_continuum_slope_coarse_g1():
    slope, _ = continuum_slope(CTX, 1, [mpf("0.1"), mpf("0.05"), mpf("0.025")])
    assert mpf("0.8") <= slope <= mpf("2.2")


def test_a2_interpretation_selection():
    assert select_a2_interpretation(CTX) == "full"
    bad_slope, _ = continuum_slope(CTX, 2, a2_interpretation="split")
    good_slope, _ = continuum_slope(CTX, 2, a2_interpretation="full")
    assert good_slope >= mpf("0.8")
    assert bad_slope < mpf("0.8")


def test_curve_independence_g1():
    rep = lame_curve_independence(CTX, [mpf("0.1"), mpf("0.05")], mpf("0.73"))
    assert rep.curve_deviation <= mpf("1e-4")
    for e in rep.entries:
        assert e["newton_residual"] <= mpf("1e-8")
        assert e["commutator_residual_rel"] <= mpf("1e-7")
    # the unnormalized curve should be eps-free; both entries agree closely
    a = rep.entries[0]["curve_unnormalized"]
    b = rep.entries[1]["curve_unnormalized"]
    assert max(abs(x - y) for x, y in zip(a, b)) <= mpf("1e-4")


def test_curve_independence_detects_broken_operator():
    # perturbing the T-coefficient breaks the Newton match / commutation
    from commdiff.opalg import DiffOp, op_commutator, commutator_scale
    from commdiff.families import elliptic_family

    eps = mpf("0.1")
    x0 = mpf("0.73")
    rep = lame_curve_independence(CTX, [eps], x0)
    entry = rep.entries[0]
    gam0 = entry["params"][3]
    # rebuild the monic operator with a bumped T-coefficient and check the
    # partner from the unperturbed parameters no longer commutes
    A1 = ag_build(CTX, 1, eps)
    u0 = eps**2 * CTX.wp(eps)
    l2_bad = DiffOp.build(
        {2: 1, 1: lambda n: eps * A1(x0 + n * eps) + mpf("0.01"), 0: u0}, (-8, 8)
    )
    from commdiff.opalg import CoeffSeq
    from commdiff.lame import _gamma_u_s_chains

    gam, _, s = _gamma_u_s_chains(
        entry["params"], lambda n: eps * A1(x0 + n * eps), u0, (-6, 9)
    )
    gamma_seq = CoeffSeq(-6, [gam[n] for n in range(-6, 9)])
    sigma_seq = CoeffSeq(-6, [mpf(1) if s[n] >= 0 else mpf(-1) for n in range(-6, 9)])
    _, _, L3 = elliptic_family(entry["params"][0], entry["params"][1],
                               entry["params"][2], gamma_seq, sigma_seq)
    rel = op_commutator(l2_bad, L3).sup_norm() / commutator_scale(l2_bad, L3)
    assert rel >= mpf("1e-2") * mpf("0.001")
