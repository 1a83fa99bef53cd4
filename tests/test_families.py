import random
from collections import Counter

import pytest
from mpmath import mp, mpf, cos, sin, sqrt
from mpmath.libmp import fzero, mpf_add, mpf_pow_int, mpf_sub
from test_acceptance import CRITERION_1_PARAMS

from commdiff import cli, dressing, families, numcore
from commdiff.errors import DegenerateDenominatorError, InconsistentDataError
from commdiff.opalg import CoeffSeq, DiffOp, commutator_residual, op_commutator
from commdiff.dressing import (
    EvenPowerBasis,
    GeomBasis,
    PowerBasis,
    TrigBasis,
    ansatz_solve,
    build_partner_op,
    identity_residuals,
    l2_operator,
)
from commdiff.families import (
    ELLIPTIC_SEED,
    FamilySpec,
    basis_for,
    build_case,
    elliptic_family,
    geom_family,
    poly_family,
    trig_family,
)
from commdiff.spectral import extract_curve

WIN = (-28, 28)


def golden_gamma(window):
    """Quasi-random values in [2, 3] with adjacent differences bounded away
    from zero (golden rotation)."""
    phi = (sqrt(mpf(5)) - 1) / 2
    lo, hi = window
    return CoeffSeq.tabulate(lambda n: 2 + (mpf(n) * phi + mpf(1) / 3) % 1, window)


def closed_form_l3(U, W, gamma, s, window):
    """The order-3 partner of the elliptic family in the paper's closed form,

        T^3 + (U_n + U_{n+1} + U_{n+2}) T^2
            + (U_n^2 + U_{n+1}^2 + U_n U_{n+1} + W_n - gamma_{n+2}) T
            + (U_n (U_n^2 + W_n - gamma_n) - s_n),

    with s_n = S_n(gamma_n) = sigma_n sqrt(F1(gamma_n)) the value of S_n at
    its own divisor point."""
    return DiffOp.build(
        {
            3: 1,
            2: lambda n: U.at(n) + U.at(n + 1) + U.at(n + 2),
            1: lambda n: U.at(n) ** 2 + U.at(n + 1) ** 2 + U.at(n) * U.at(n + 1)
            + W.at(n) - gamma.at(n + 2),
            0: lambda n: U.at(n) * (U.at(n) ** 2 + W.at(n) - gamma.at(n)) - s(n),
        },
        window,
    )


def closed_form_deviation(L3, closed):
    """max |L3 - closed| coefficient by coefficient on the common window,
    relative to max(|closed coefficient|, 1)."""
    lo = max(L3.window[0], closed.window[0])
    hi = min(L3.window[1], closed.window[1])
    assert lo < hi
    return max(
        abs(L3.coeff(j).at(n) - closed.coeff(j).at(n))
        / max(abs(closed.coeff(j).at(n)), mpf(1))
        for j in range(4)
        for n in range(lo, hi + 1)
    )


def commutation_rel(U, W, basis, state_window):
    result = ansatz_solve(basis, U, W)
    state = result.state(U, W, state_window)
    L2 = l2_operator(U, W)
    partner = build_partner_op(state, L2)
    return commutator_residual(L2, partner)[1]


def _reference_tables(kind, g, params, window):
    """The raw values of the mpf expressions that trig_family, poly_family
    and geom_family evaluate on raw values."""
    if kind == "trig":
        r1 = params["r1"]
        amp = r1**2 * sin(mpf(g)) * sin(mpf(g + 1)) / (2 * cos(g + mpf(1) / 2) ** 2)
        fns = (lambda n: r1 * cos(n), lambda n: amp * cos(2 * n))
    elif kind == "poly":
        a2, a1, a0 = params["a2"], params["a1"], params["a0"]
        fns = (lambda n: a2 * n * n + a1 * n + a0,
               lambda n: -g * (g + 1) * a2 * n * (a2 * n + a1))
    else:
        a, beta = params["a"], params["beta"]
        amp = -(a ** (2 * g + 2) - 1) * (a ** (2 * g) - 1) / (a ** (2 * g + 1) + 1) ** 2 * beta**2
        fns = (lambda n: beta * a**n, lambda n: amp * a ** (2 * n))
    return [[f(n)._mpf_ for n in range(window[0], window[1] + 1)] for f in fns]


@pytest.mark.parametrize("bits", (53, 113, 1100))
def test_family_tables_match_the_mpf_expressions_bit_for_bit(bits):
    # non-dyadic parameters at the working precision and at twice it, whose
    # products and sums round; a zero linear term; a negative ratio
    cases = [("trig", 3, {"r1": "1.3"}), ("poly", 4, {"a2": "0.886695", "a1": "0.708451",
             "a0": "0.234504"}), ("poly", 2, {"a2": "-1.5981", "a1": "0", "a0": "0.47858"}),
             ("geom", 3, {"a": "1.764235", "beta": "0.895178"}),
             ("geom", 2, {"a": "-0.4", "beta": "2.5"})]
    tabulators = {"trig": trig_family, "poly": poly_family, "geom": geom_family}
    for kind, g, params in cases:
        for param_bits in (bits, 2 * bits):
            with mp.workprec(param_bits):
                values = {k: mpf(v) for k, v in params.items()}
            with mp.workprec(bits):
                U, W = tabulators[kind](g, window=(-30, 30), **values)
                want = _reference_tables(kind, g, values, (-30, 30))
                assert [U.raw, W.raw] == want, (kind, g, param_bits)


def test_trig_values():
    U, W = trig_family(1, 1, (-4, 4))
    assert U.at(0) == 1
    expected_w0 = sin(mpf(1)) * sin(mpf(2)) / (2 * cos(mpf(3) / 2) ** 2)
    assert abs(W.at(0) - expected_w0) <= mpf("1e-30")


def test_trig_parity():
    U, W = trig_family(2, mpf("1.5"), (-10, 10))
    for n in range(1, 11):
        assert U.at(n) == U.at(-n)
        assert W.at(n) == W.at(-n)


def test_trig_pipeline_commutes():
    for g in (1, 2):
        U, W = trig_family(g, 1, WIN)
        rel = commutation_rel(U, W, TrigBasis(g), (-24, 24))
        assert rel <= mpf("1e-9")


def test_poly_values():
    U, W = poly_family(1, 1, 0, 0, (-6, 6))
    assert U.at(2) == 4
    assert W.at(0) == 0
    assert W.at(3) == -2 * 9  # -g(g+1) a2^2 n^2


def test_poly_requires_a2():
    with pytest.raises(ValueError):
        poly_family(1, 0, 1, 0, (-4, 4))


def test_poly_pipeline_commutes():
    U, W = poly_family(1, 1, 0, 0, WIN)
    assert commutation_rel(U, W, EvenPowerBasis(1), (-24, 24)) <= mpf("1e-9")


def test_poly_odd_extension_commutes():
    # conjectural a1 != 0 case, small genus
    for g in (1, 2):
        U, W = poly_family(g, 1, 0, mpf(1) / 2, WIN)
        assert commutation_rel(U, W, PowerBasis(g), (-24, 24)) <= mpf("1e-9")


def test_geom_w_closed_form_sign():
    # W is the closed form with the leading minus; the dressing solve
    # rejects the opposite sign, built exactly by negating W
    for g in (1, 2, 3, 4):
        for a in (mpf(2), mpf(1) / 2, mpf(-2)):
            U, W = geom_family(g, 1, a, window=(-g - 6, g + 6))
            amp = -(a ** (2 * g + 2) - 1) * (a ** (2 * g) - 1) / (a ** (2 * g + 1) + 1) ** 2
            assert all(W.at(n) == amp * a ** (2 * n) for n in range(-g - 6, g + 7))
            with pytest.raises(InconsistentDataError):
                ansatz_solve(GeomBasis(g, a), U, -W)


def test_geom_validation():
    with pytest.raises(ValueError):
        geom_family(1, 0, 2, window=(-4, 4))
    with pytest.raises(ValueError):
        geom_family(1, 1, 1, window=(-4, 4))


def test_geom_beta_homogeneity():
    U1, W1 = geom_family(1, 1, 2, window=(-6, 6))
    U2, W2 = geom_family(1, 3, 2, window=(-6, 6))
    for n in range(-5, 6):
        assert abs(U2.at(n) - 3 * U1.at(n)) <= mpf("1e-28") * abs(U2.at(n))
        assert abs(W2.at(n) - 9 * W1.at(n)) <= mpf("1e-28") * abs(W2.at(n))


def test_geom_small_ratio_commutes():
    U, W = geom_family(1, 1, mpf(1) / 2, window=WIN)
    assert commutation_rel(U, W, GeomBasis(1, mpf(1) / 2), (-24, 24)) <= mpf("1e-9")


def test_elliptic_commutes_random_gamma():
    rng = random.Random(1234)
    gamma = CoeffSeq.tabulate(lambda n: mpf(2) + mpf(rng.random()), (-26, 27))
    U, W, L3 = elliptic_family(0, -1, 0, gamma)
    L2 = l2_operator(U, W)
    _, rel = commutator_residual(L2, L3)
    assert rel <= mpf("1e-10")


def test_elliptic_w_definition_exact():
    gamma = golden_gamma((-10, 11))
    c2 = mpf("0.3")
    U, W, _ = elliptic_family(c2, -1, 0, gamma)
    # defining relation, up to reassociation roundoff (a few ulps)
    for n in range(-10, 10):
        assert abs(W.at(n) + c2 + gamma.at(n) + gamma.at(n + 1)) <= mpf("1e-32")


def test_elliptic_curve_extraction_matches_input():
    gamma = golden_gamma((-12, 13))
    U, W, L3 = elliptic_family(0, -1, 0, gamma)
    L2 = l2_operator(U, W)
    report = extract_curve(L2, L3, n0_list=(-1, 0, 1))
    assert report.matched_curve is not None
    expected = (0, -1, 0)
    for c, e in zip(report.matched_curve.c, expected):
        assert abs(c - e) <= mpf("1e-8")


def test_elliptic_alternating_branch_signs():
    # caller-supplied branch signs: an alternating pattern still satisfies
    # all identities when U, W, and the partner share it
    from commdiff.dressing import elliptic_dressing_state
    from commdiff.numcore import HyperellipticCurve

    gamma = golden_gamma((-14, 15))
    sigma = CoeffSeq.tabulate(lambda n: mpf(1) if n % 2 == 0 else mpf(-1), (-14, 15))
    U, W, L3 = elliptic_family(0, -1, 0, gamma, sigma)
    L2 = l2_operator(U, W)
    _, rel = commutator_residual(L2, L3)
    assert rel <= mpf("1e-10")
    curve = HyperellipticCurve(1, (0, -1, 0))
    state = elliptic_dressing_state(curve, gamma, sigma, window=(-12, 12))
    assert identity_residuals(state, (-10, 10))[0] <= mpf("1e-20")


@pytest.mark.parametrize("seed", [1234, 7, 99])
def test_build_case_elliptic_partner_matches_closed_form(seed):
    # the partner build_partner_op assembles from the elliptic state is the
    # closed form up to roundoff (1.5e-33 measured at 113 bits)
    _L2, partner, state, extras = build_case(FamilySpec("elliptic", 1, {}, seed), (-24, 24))
    rng = random.Random(seed)
    gamma = CoeffSeq.tabulate(lambda n: mpf(2) + mpf(rng.random()), extras["gamma_window"])
    s = lambda n: sqrt(gamma.at(n) ** 3 - gamma.at(n))
    glo, ghi = gamma.window
    closed = closed_form_l3(state.U, state.W, gamma, s, (glo, ghi - 3))
    assert closed_form_deviation(partner, closed) <= mpf("1e-30")


@pytest.mark.parametrize("alternating", [False, True])
def test_elliptic_family_partner_matches_closed_form(alternating):
    gamma = golden_gamma((-14, 15))
    sigma = None
    if alternating:
        sigma = CoeffSeq.tabulate(lambda n: mpf(1) if n % 2 == 0 else mpf(-1), (-14, 15))
    U, W, L3 = elliptic_family(0, -1, 0, gamma, sigma)

    def s(n):
        sign = 1 if sigma is None else sigma.at(n)
        return sign * sqrt(gamma.at(n) ** 3 - gamma.at(n))

    closed = closed_form_l3(U, W, gamma, s, (-14, 12))
    assert closed_form_deviation(L3, closed) <= mpf("1e-30")


def test_elliptic_verify_residuals_are_roundoff():
    # the identity and commutator residuals of the elliptic verify case are
    # rounding errors: 47 more bits shrink the master and linear residuals
    # by at least 2^40 (2^46 and 2^47 measured) and the commutator by at
    # least 2^36 (2^40 measured)
    measured = []
    for bits in (113, 160):
        with mp.workprec(bits):
            L2, partner, state, _extras = build_case(FamilySpec("elliptic", 1, {}), (-24, 24))
            master, linear, _ = identity_residuals(state, (-24, 24))
            _, comm = commutator_residual(L2, partner)
            measured.append((master, linear, comm))
    (m113, l113, c113), (m160, l160, c160) = measured
    assert m160 <= m113 / 2**40
    assert l160 <= l113 / 2**40
    assert c160 <= c113 / 2**36


def test_elliptic_degenerate_gamma():
    gamma = CoeffSeq.constant(2, (0, 8))
    with pytest.raises(DegenerateDenominatorError):
        elliptic_family(0, -1, 0, gamma)


def test_elliptic_flipped_constant_term_fails():
    # same data, but the zero-degree coefficient of the partner built with
    # the opposite branch pairing: commutation breaks by many orders
    gamma = golden_gamma((-14, 15))
    U, W, L3 = elliptic_family(0, -1, 0, gamma)
    L2 = l2_operator(U, W)
    _, good = commutator_residual(L2, L3)
    F = lambda z: z**3 - z
    wrong = DiffOp.build(
        {
            3: 1,
            2: lambda n: U.at(n) + U.at(n + 1) + U.at(n + 2),
            1: lambda n: U.at(n) ** 2 + U.at(n + 1) ** 2 + U.at(n) * U.at(n + 1)
            + W.at(n) - gamma.at(n + 2),
            0: lambda n: U.at(n) * (U.at(n) ** 2 + W.at(n) - gamma.at(n))
            + sqrt(F(gamma.at(n))),
        },
        L3.window,
    )
    _, bad = commutator_residual(L2, wrong)
    assert good <= mpf("1e-12")
    assert bad >= mpf(1e6) * good


def test_commutator_residual_is_the_normalized_sup_norm():
    for kind, params in (("trig", {"r1": 1}), ("geom", {"beta": 1, "a": 2})):
        L2, partner, _state, _extras = build_case(FamilySpec(kind, 2, params), (-10, 10))
        comm, rel = commutator_residual(L2, partner)
        old = op_commutator(L2, partner)
        assert rel == old.sup_norm() / (L2.sup_norm() * partner.sup_norm())
        assert (comm - old).sup_norm() == 0


def test_trig_cases_compute_each_cosine_once(monkeypatch):
    # two trig cases in one process tabulate U and W at p and p + 32 bits and
    # the basis profiles at p, over overlapping windows: mpmath's cos, where
    # any module binds it, meets each (argument, precision) at most once
    calls = Counter()

    def counted(x):
        calls[x, mp.prec] += 1
        return cos(x)

    for module in (numcore, families, dressing):
        monkeypatch.setattr(module, "cos", counted, raising=False)
    build_case(FamilySpec("trig", 3, {"r1": mpf("0.7")}), (-6, 6))
    build_case(FamilySpec("trig", 4, {"r1": mpf("1.3")}), (-6, 6))
    assert calls and max(calls.values()) == 1, calls.most_common(3)


def test_verify_cases_keep_short_sums_in_the_kernels_and_compute_each_power_once(
        monkeypatch, tmp_path):
    # the criterion-1 verify configurations in one process: no sum or
    # difference of two finite operands of at most p bits reaches libmp's
    # mpf_add or mpf_sub where numcore binds them, and mpf_pow_int meets each
    # (a, e, p) at most once
    leaks, powers = [], Counter()

    def watched(op):
        def call(s, t, prec, rnd):
            if all((v[1] or v == fzero) and v[3] <= prec for v in (s, t)):
                leaks.append((op.__name__, s, t, prec))
            return op(s, t, prec, rnd)
        return call

    def counted(a, e, prec, rnd):
        powers[a, e, prec] += 1
        return mpf_pow_int(a, e, prec, rnd)

    monkeypatch.setattr(numcore, "mpf_add", watched(mpf_add))
    monkeypatch.setattr(numcore, "mpf_sub", watched(mpf_sub))
    monkeypatch.setattr(numcore, "mpf_pow_int", counted)
    numcore.pow_int.cache_clear()
    for kind, params in CRITERION_1_PARAMS.items():
        for g in (1,) if kind == "elliptic" else (1, 2, 3, 4):
            argv = ["verify", "--family", kind, "--g", str(g), "--out", str(tmp_path)]
            for key, val in params.items():
                argv.append(f"--{key}={val}")
            assert cli.main(argv) == 0, argv
    assert not leaks, (len(leaks), leaks[:3])
    assert powers and max(powers.values()) == 1, powers.most_common(3)


def test_basis_for_selects_odd_extension():
    spec = FamilySpec("poly", 2, {"a2": mpf(1), "a0": mpf(0), "a1": mpf(1) / 2})
    assert isinstance(basis_for(spec), PowerBasis)
    spec2 = FamilySpec("poly", 2, {"a2": mpf(1), "a0": mpf(0), "a1": mpf(0)})
    assert isinstance(basis_for(spec2), EvenPowerBasis)


def test_family_spec_fills_defaults_and_names_missing_parameters():
    spec = FamilySpec("poly", 2, {"a2": 1, "a0": 0})
    assert spec.params == {"a2": 1, "a1": 0, "a0": 0}
    assert spec.even
    assert FamilySpec("elliptic", 1, {}).params == {"c2": 0, "c1": -1, "c0": 0}
    with pytest.raises(ValueError, match="needs a and beta"):
        FamilySpec("geom", 1, {})
    with pytest.raises(ValueError, match="no parameter"):
        FamilySpec("trig", 1, {"r1": 1, "a2": 1})
    with pytest.raises(ValueError, match="genus 1 only"):
        FamilySpec("elliptic", 2, {})


def test_family_spec_seed_belongs_to_the_elliptic_family():
    assert FamilySpec("elliptic", 1, {}).seed == ELLIPTIC_SEED == 1234
    assert FamilySpec("elliptic", 1, {}, 7).seed == 7
    assert FamilySpec("trig", 1, {"r1": 1}).seed is None
    for kind, params in (("trig", {"r1": 1}), ("poly", {"a2": 1}), ("geom", {"a": 2, "beta": 1})):
        with pytest.raises(ValueError, match=f"{kind} family takes no seed"):
            FamilySpec(kind, 1, params, seed=1234)


@pytest.mark.parametrize("g", [1, 2, 3])
@pytest.mark.parametrize("a, beta", [("2", "1"), ("2.272327", "1.614327")])
def test_geometric_curve_is_a_pure_power(g, a, beta):
    # the shift maps the geometric L2 to a^2 L2 conjugated by a^n, so the
    # curve is invariant under z -> a^2 z and F = z^(2g+1) exactly: every
    # lower coefficient of the solver's curve is roundoff, at most 1e-32 at
    # 113 bits (7.7e-34 measured) and 2^40 smaller at 160 bits
    worst = []
    for bits in (113, 160):
        with mp.workprec(bits):
            _L2, _partner, state, _extras = build_case(
                FamilySpec("geom", g, {"a": a, "beta": beta}), (-12, 6)
            )
            worst.append(max(abs(c) for c in state.curve.c))
    assert worst[0] <= mpf("1e-32")
    assert worst[1] <= worst[0] / 2**40
