import pytest
from mpmath import cos, ellipfun, log, mp, mpf, sqrt

from commdiff.errors import LatticeProximityError
from commdiff.lame import (
    CHAIN_SITES,
    NEWTON_TOL,
    LameIndependenceReport,
    WeierstrassContext,
    _fit_slope,
    _genus1_chains,
    _genus1_state,
    ag_build,
    continuum_check,
    continuum_slope,
    lame_curve_independence,
    lame_l2,
)

CTX = WeierstrassContext(4, 0)


def test_ag_build_needs_positive_genus():
    # g = 0 would otherwise take the even branch: the genus-2 profile
    for g in (0, -1):
        with pytest.raises(ValueError):
            ag_build(CTX, g, mpf("0.1"))


def test_roots_and_half_period():
    assert abs(CTX.e1 - 1) <= mpf("1e-30")
    assert abs(CTX.e2) <= mpf("1e-30")
    assert abs(CTX.e3 + 1) <= mpf("1e-30")
    # lemniscatic half period 1.31102877714605990523...
    assert abs(CTX.omega1 - mpf("1.311028777146059905232419794945559")) <= mpf("1e-25")


INVARIANTS = [(4, 0), (10, 2), (3, "-0.5"), (7, 1)]


@pytest.mark.parametrize("g2, g3", INVARIANTS)
def test_branch_points_are_ordered_roots(g2, g3):
    ctx = WeierstrassContext(g2, g3)
    for e in (ctx.e1, ctx.e2, ctx.e3):
        assert abs(4 * e**3 - ctx.g2 * e - ctx.g3) <= mpf("1e-30")
    assert ctx.e1 > ctx.e2 > ctx.e3


@pytest.mark.parametrize("g2, g3", INVARIANTS)
def test_wp_matches_jacobi_sn(g2, g3):
    # wp(x) = e3 + (e1 - e3) / sn(x sqrt(e1 - e3) | m)^2, m = (e2 - e3)/(e1 - e3)
    ctx = WeierstrassContext(g2, g3)
    m = (ctx.e2 - ctx.e3) / (ctx.e1 - ctx.e3)
    for xs in ("0.05", "0.35", "1.05", "-1.7", "2.9", "5.3"):
        x = mpf(xs)
        sn = ellipfun("sn", x * sqrt(ctx.e1 - ctx.e3), m=m)
        expected = ctx.e3 + (ctx.e1 - ctx.e3) / sn**2
        assert abs(ctx.wp(x) - expected) <= mpf("1e-28") * abs(expected)


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
    # wp' by a central difference quotient of wp, whose O(h^2) error is
    # about 2e-18 of |wp|^3 at h = 1e-10; a wrong scale or sign of wp gives O(1)
    h = mpf("1e-10")
    for xs in ("0.3", "0.8"):
        x = mpf(xs)
        p = CTX.wp(x)
        dp = (CTX.wp(x + h) - CTX.wp(x - h)) / (2 * h)
        resid = dp**2 - (4 * p**3 - CTX.g2 * p - CTX.g3)
        assert abs(resid) <= mpf("1e-16") * max(1, abs(p) ** 3)


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
    L2 = lame_l2(CTX, 1, eps, mpf("0.73"), (-24, 24))
    wp_eps = CTX.wp(eps)
    for n in (-24, 0, 24):
        assert L2.coeff(0).at(n) == wp_eps
        assert L2.coeff(2).at(n) == 1 / eps**2
    monic = L2 * eps**2
    assert monic.is_monic()


def test_lame_l2_lattice_hit_detected():
    # x0 = 0.7 with eps = 0.05 puts a zeta argument exactly on the lattice
    # at n = -13 (x_n - eps = 0); the guard must fire
    with pytest.raises(LatticeProximityError):
        lame_l2(CTX, 1, mpf("0.05"), mpf("0.7"), (-24, 24))


def test_continuum_zero_function():
    z = lambda t: mpf(0)
    assert continuum_check(CTX, 1, mpf("0.1"), z, z, mpf("0.7")) == 0


def test_continuum_slopes():
    for g in (1, 2, 3):
        slope, errs = continuum_slope(CTX, g)
        assert slope >= mpf("0.8")
        assert errs[0] > errs[-1]


@pytest.mark.parametrize("g, slope", [
    (1, "0.99352210466151477431"),
    (2, "0.95306689852040424356"),
    (3, "0.87631744236920451238"),
])
def test_continuum_slope_pinned(g, slope):
    # values from a Laurent-series evaluation of zeta and wp
    got, _ = continuum_slope(CTX, g, x=mpf("0.73"))
    assert abs(got - mpf(slope)) <= mpf("1e-15")


def test_continuum_slope_coarse_g1():
    # the fit of continuum_slope over coarser steps than DEFAULT_SLOPE_EPS
    steps = [mpf("0.1"), mpf("0.05"), mpf("0.025")]
    errs = [continuum_check(CTX, 1, eps, cos, lambda t: -cos(t), mpf("0.7")) for eps in steps]
    slope = _fit_slope([log(e) for e in steps], [log(e) for e in errs])
    assert mpf("0.8") <= slope <= mpf("2.2")


def test_curve_independence_g1():
    rep = lame_curve_independence(CTX, [mpf("0.1"), mpf("0.05")], mpf("0.73"))
    assert rep.passes()
    assert rep.curve_deviation <= mpf("1e-4")
    for e in rep.entries:
        assert e["newton_residual"] <= mpf("1e-8")
        assert e["commutator_residual_rel"] <= mpf("1e-7")
    # the unnormalized curve should be eps-free; both entries agree closely
    a = rep.entries[0]["curve_unnormalized"]
    b = rep.entries[1]["curve_unnormalized"]
    assert max(abs(x - y) for x, y in zip(a, b)) <= mpf("1e-4")


def test_curve_independence_detects_broken_operator():
    # a T-coefficient bumped by 0.01 leaves the closed-form parameters off the
    # genus-1 chain, which fails the report, and breaks commutation with the
    # partner of their dressing state
    from commdiff.dressing import build_partner_op
    from commdiff.opalg import DiffOp, commutator_residual

    eps = mpf("0.1")
    x0 = mpf("0.73")
    rep = lame_curve_independence(CTX, [eps], x0)
    assert rep.passes()
    entry = rep.entries[0]
    A1 = ag_build(CTX, 1, eps)
    u0 = eps**2 * CTX.wp(eps)
    bumped = lambda n: eps * A1(x0 + n * eps) + mpf("0.01")
    _U, _delta, chain = _genus1_chains(entry["params"], bumped, u0, (0, CHAIN_SITES))
    broken = dict(entry, newton_residual=chain)
    assert broken["newton_residual"] > NEWTON_TOL
    assert not LameIndependenceReport(
        rep.g2, rep.g3, rep.x0, [broken], rep.curve_deviation
    ).passes()
    # rebuild the monic operator with the bumped T-coefficient and check the
    # partner from the unperturbed parameters no longer commutes
    l2_bad = DiffOp.build({2: 1, 1: bumped, 0: u0}, (-8, 8))
    U, delta, _chain = _genus1_chains(
        entry["params"], lambda n: eps * A1(x0 + n * eps), u0, (-6, 10)
    )
    state = _genus1_state(entry["params"], U, delta, u0, (-6, 8))
    L3 = build_partner_op(state)
    _, rel = commutator_residual(l2_bad, L3)
    assert rel >= mpf("1e-2") * mpf("0.001")


def test_lame_residuals_are_roundoff():
    # the chain residuals (about 1e-36 at 113 bits) and the curve deviation
    # (about 2e-24) are rounding errors: 47 more bits shrink each by at
    # least 2^40
    measured = []
    for bits in (113, 160):
        with mp.workprec(bits):
            ctx = WeierstrassContext(4, 0)
            rep = lame_curve_independence(ctx, [mpf("0.1"), mpf("0.05")], mpf("0.73"))
            assert rep.passes()
            measured.append([e["newton_residual"] for e in rep.entries] + [rep.curve_deviation])
    for at113, at160 in zip(*measured):
        assert at160 <= at113 / 2**40


@pytest.mark.parametrize("g2, g3", [(4, 0), (10, 2), (3, "-0.5")])
@pytest.mark.parametrize("x0", ["0.73", "0.91"])
@pytest.mark.parametrize("eps_list", [("0.1", "0.05"), ("0.1", "0.0125")])
def test_curve_independence_residuals_at_roundoff(g2, g3, x0, eps_list):
    # the partner comes from the chain's dressing state, with no divided
    # differences of gamma: over these 12 configs the commutator stays below
    # 1.03e-33 and the curve deviation below 1.92e-25 at 113 bits
    rep = lame_curve_independence(WeierstrassContext(g2, g3), [mpf(e) for e in eps_list], mpf(x0))
    assert rep.passes()
    for e in rep.entries:
        assert e["commutator_residual_rel"] <= mpf("1e-31")
    assert rep.curve_deviation <= mpf("1e-23")
