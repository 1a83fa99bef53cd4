import re

import pytest
from mpmath import cos, ellipfun, jtheta, ldexp, log, mag, mp, mpf, sqrt

from oracles import fraction_of

from commdiff.errors import LatticeProximityError
from commdiff.lame import (
    CHAIN_SITES,
    LATTICE_PROXIMITY,
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
from commdiff.opalg import CoeffSeq

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


def _theta_quotient(ctx, name, x):
    """wp(x) or zeta(x) from ctx's constants by mpmath.jtheta at the working
    precision, with v = k x rounded at it, and the scale of its error: wp
    itself, or for zeta the larger of |eta1 x / omega1| and |k theta1'/theta1|,
    since zeta cancels near its zeros.  200 bits past the context's
    precision v is exact and this is the reference; at it, the evaluation
    the context made with three jtheta calls per value."""
    v = ctx._k * x
    t1 = jtheta(1, v, ctx._q)
    if name == "wp":
        value = ctx.e1 + (ctx._c * jtheta(2, v, ctx._q) / t1) ** 2
        return value, value
    drift, pole = ctx.eta1 * x / ctx.omega1, ctx._k * jtheta(1, v, ctx._q, 1) / t1
    return drift + pole, max(abs(drift), abs(pole))


# the largest error in ulps of the scale for a value rounded once (zeta's
# sum can carry one more bit than its larger term), and the slack over the
# jtheta path's error: the sums' own error, which can move a value across
# a rounding boundary only from within that distance of it
THETA_ULPS = {"wp": mpf("0.5"), "zeta": mpf(1)}
THETA_SLACK = mpf(1) / 16


@pytest.mark.parametrize("bits", (53, 113, 160))
@pytest.mark.parametrize("g2, g3", INVARIANTS)
def test_theta_sums_are_the_quotients_rounded_once(g2, g3, bits):
    # lattice sites x0 + k eps, sites past the first period (argument
    # reduction) and sites 1e-5 from a lattice point, where theta1 is small
    with mp.workprec(bits):
        ctx = WeierstrassContext(g2, g3)
        period, near = 2 * ctx.omega1, mpf("1e-5")
        sites = [mpf("0.73") + k * mpf("0.05") for k in range(-8, 13)]
        sites += [period + mpf("0.3"), 3 * ctx.omega1 + mpf("0.2"), 2 * period - mpf("0.4"),
                  -period - mpf("0.5"), mpf("3.9")]
        sites += [near, -near, period + near, period - near, -period + near]
        for x in sites:
            for name in ("wp", "zeta"):
                got = getattr(ctx, name)(x)
                jtheta_path, _ = _theta_quotient(ctx, name, x)
                with mp.workprec(bits + 200):
                    ref, scale = _theta_quotient(ctx, name, x)
                    ulp = ldexp(1, mag(scale) - bits)
                    err, jtheta_err = abs(got - ref) / ulp, abs(jtheta_path - ref) / ulp
                assert err <= THETA_ULPS[name] + THETA_SLACK, (name, x, err)
                assert err <= jtheta_err + THETA_SLACK, (name, x, err, jtheta_err)


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


@pytest.mark.parametrize("name", ("wp", "zeta"))
def test_repeated_values_are_the_first_call_bits(name):
    ctx = WeierstrassContext(10, 2)
    for xs in ("0.35", "-1.7", "2.9"):
        first = getattr(WeierstrassContext(10, 2), name)(mpf(xs))
        for _ in range(2):
            assert getattr(ctx, name)(mpf(xs))._mpf_ == first._mpf_


@pytest.mark.parametrize("name", ("wp", "zeta"))
def test_values_follow_the_working_precision(name):
    with mp.workprec(160):
        ctx = WeierstrassContext(4, 0)
        x = mpf(1) / 3
        with mp.workprec(113):
            low = getattr(ctx, name)(x)
        high = getattr(ctx, name)(x)
        assert high._mpf_ != low._mpf_
        assert high._mpf_ == getattr(WeierstrassContext(4, 0), name)(x)._mpf_


@pytest.mark.parametrize("g2, g3", [(4, 0), (10, 2), (3, "-0.5")])
def test_another_precision_reads_a_context_built_at_it(g2, g3):
    # a 113-bit context asked at 160 bits gives a fresh 160-bit context's
    # values, and its attributes keep the 113-bit constants
    ctx, ref = WeierstrassContext(g2, g3), WeierstrassContext(g2, g3)
    with mp.workprec(160):
        fresh = WeierstrassContext(g2, g3)
        for x in (mpf(1) / 3, mpf("-1.7"), mpf("2.9")):
            assert ctx.wp(x)._mpf_ == fresh.wp(x)._mpf_
            assert ctx.zeta(x)._mpf_ == fresh.zeta(x)._mpf_
    for name in ("e1", "e2", "e3", "omega1", "omega2_mag", "eta1"):
        assert getattr(ctx, name)._mpf_ == getattr(ref, name)._mpf_
        assert getattr(ctx, name)._mpf_ != getattr(fresh, name)._mpf_
    assert ctx.wp(mpf(1) / 3)._mpf_ == ref.wp(mpf(1) / 3)._mpf_


def test_lattice_proximity_is_raised_on_every_call():
    ctx = WeierstrassContext(4, 0)
    for x in (mpf("1e-8"), 2 * ctx.omega1 + mpf("1e-9")):
        for _ in range(2):
            for fn in (ctx.wp, ctx.zeta):
                with pytest.raises(LatticeProximityError):
                    fn(x)


@pytest.mark.parametrize("bits", (53, 113, 160))
def test_lattice_guard_at_its_bound(bits):
    # sites LATTICE_PROXIMITY (1 +- 1e-10) and (1 +- 1e-6) away on either
    # side of the lattice points 0, 2 omega1 and -4 omega1: a site whose
    # exact distance lies inside the bound is refused, the message naming
    # the point, and one outside is admitted; omega1, half-way between 0
    # and 2 omega1, is admitted
    with mp.workprec(bits):
        ctx = WeierstrassContext(10, 2)
        bound = fraction_of(LATTICE_PROXIMITY)
        for m in (0, 1, -2):
            point = 2 * m * ctx.omega1
            refused = admitted = 0
            for rel in ("1e-10", "1e-6"):
                for scale in (1 - mpf(rel), 1 + mpf(rel)):
                    for side in (1, -1):
                        x = point + side * LATTICE_PROXIMITY * scale
                        inside = abs(fraction_of(x) - fraction_of(point)) < bound
                        if rel == "1e-6":  # resolved at every precision here
                            assert inside == (scale < 1), (bits, m, x)
                        if inside:
                            with pytest.raises(LatticeProximityError,
                                               match=f"of lattice point {re.escape(str(point))}$"):
                                ctx.zeta(x)
                            refused += 1
                        else:
                            ctx.zeta(x)
                            admitted += 1
            assert refused and admitted, (m, refused, admitted)
        ctx.zeta(ctx.omega1)


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
    monic = L2.scale_left(CoeffSeq.constant(eps**2, L2.window))
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
        slope, errs = continuum_slope(CTX, g, x=mpf("0.7"))
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
