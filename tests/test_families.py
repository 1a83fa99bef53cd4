import random

import pytest
from mpmath import mpf, cos, sin, sqrt

from commdiff.errors import DegenerateDenominatorError, InconsistentDataError
from commdiff.opalg import CoeffSeq, DiffOp, commutator_scale, op_commutator
from commdiff.dressing import (
    EvenPowerBasis,
    GeomBasis,
    PowerBasis,
    TrigBasis,
    ansatz_solve,
    build_partner_op,
    l2_operator,
)
from commdiff.families import (
    FamilySpec,
    basis_for,
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


def commutation_rel(U, W, basis, state_window):
    result = ansatz_solve(basis, U, W)
    state = result.state(U, W, state_window)
    L2 = l2_operator(U, W)
    partner = build_partner_op(state, L2)
    return op_commutator(L2, partner).sup_norm() / commutator_scale(L2, partner)


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
    # the default W is the +1 closed form; the dressing solve rejects -1
    for g in (1, 2, 3, 4):
        for a in (mpf(2), mpf(1) / 2, mpf(-2)):
            U, W = geom_family(g, 1, a, window=(-g - 6, g + 6))
            amp = -(a ** (2 * g + 2) - 1) * (a ** (2 * g) - 1) / (a ** (2 * g + 1) + 1) ** 2
            assert all(W.at(n) == amp * a ** (2 * n) for n in range(-g - 6, g + 7))
            U, W = geom_family(g, 1, a, w_sign=-1, window=(-g - 6, g + 6))
            with pytest.raises(InconsistentDataError):
                ansatz_solve(GeomBasis(g, a), U, W)


def test_geom_validation():
    with pytest.raises(ValueError):
        geom_family(1, 0, 2, w_sign=1, window=(-4, 4))
    with pytest.raises(ValueError):
        geom_family(1, 1, 1, w_sign=1, window=(-4, 4))


def test_geom_beta_homogeneity():
    U1, W1 = geom_family(1, 1, 2, w_sign=1, window=(-6, 6))
    U2, W2 = geom_family(1, 3, 2, w_sign=1, window=(-6, 6))
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
    rel = op_commutator(L2, L3).sup_norm() / commutator_scale(L2, L3)
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
    from commdiff.dressing import elliptic_dressing_state, master_scale, verify_master
    from commdiff.numcore import HyperellipticCurve

    gamma = golden_gamma((-14, 15))
    sigma = CoeffSeq.tabulate(lambda n: mpf(1) if n % 2 == 0 else mpf(-1), (-14, 15))
    U, W, L3 = elliptic_family(0, -1, 0, gamma, sigma)
    L2 = l2_operator(U, W)
    rel = op_commutator(L2, L3).sup_norm() / commutator_scale(L2, L3)
    assert rel <= mpf("1e-10")
    curve = HyperellipticCurve(1, (0, -1, 0))
    state = elliptic_dressing_state(curve, gamma, sigma, window=(-12, 12))
    for n in range(-10, 11):
        assert verify_master(state, n) <= mpf("1e-20") * master_scale(state, n)


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
    good = op_commutator(L2, L3).sup_norm() / commutator_scale(L2, L3)
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
    bad = op_commutator(L2, wrong).sup_norm() / commutator_scale(L2, wrong)
    assert good <= mpf("1e-12")
    assert bad >= mpf(1e6) * good


def test_family_spec_json_roundtrip():
    spec = FamilySpec("geom", 2, {"beta": mpf(1), "a": mpf(2)})
    back = FamilySpec.from_json(spec.to_json())
    assert back.kind == "geom" and back.g == 2
    assert back.params["a"] == 2


def test_basis_for_selects_odd_extension():
    spec = FamilySpec("poly", 2, {"a2": mpf(1), "a0": mpf(0), "a1": mpf(1) / 2})
    assert isinstance(basis_for(spec), PowerBasis)
    spec2 = FamilySpec("poly", 2, {"a2": mpf(1), "a0": mpf(0), "a1": mpf(0)})
    assert isinstance(basis_for(spec2), EvenPowerBasis)
