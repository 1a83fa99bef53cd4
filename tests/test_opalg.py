import json
import operator
import random

import pytest
from mpmath import mp, mpf
from mpmath.libmp import fzero

from commdiff.errors import NonFiniteError, WindowError
from commdiff.opalg import (
    CoeffSeq,
    DiffOp,
    commutator_residual,
    exact_form,
    exact_sum,
    op_commutator,
    op_from_json,
    op_to_json,
)
from oracles import (
    _fraction,
    _fraction_compose,
    _fraction_sum,
    exact_commutator,
    exact_commutator_rel,
    fraction_apply,
    fraction_form,
    fraction_op,
    apply_scalars,
    raws,
    rounded_op,
    rounded_poly,
    shift,
    trap_values,
)

WIN = (-24, 24)


def quartic_l2(a2, a0, window):
    """(T + a2 n^2 + a0)^2 - 2 a2^2 n^2, expanded."""
    a2, a0 = mpf(a2), mpf(a0)
    u = lambda n: a2 * n * n + a0
    return DiffOp.build(
        {2: 1, 1: lambda n: u(n) + u(n + 1), 0: lambda n: u(n) ** 2 - 2 * a2**2 * n * n},
        window,
    )


def quartic_l3(a2, a0, window):
    """The order-3 partner of quartic_l2 in closed form."""
    a2, a0 = mpf(a2), mpf(a0)
    return DiffOp.build(
        {
            3: 1,
            2: lambda n: a2 * (3 * n * n + 6 * n + 5) + 3 * a0,
            1: lambda n: mpf(1) / 4 * (a2 * (2 * n * n + 2 * n + 1) + 2 * a0)
            * (a2 * (6 * n * n + 6 * n - 1) + 6 * a0),
            0: lambda n: mpf(1) / 4 * (a2 * (2 * n * n - 2 * n - 1) + 2 * a0)
            * (a2 * (n * n - 1) + a0) * (a2 * (2 * n * n + 2 * n - 1) + 2 * a0),
        },
        window,
    )


def geometric_l2(beta, a, window):
    beta, a = mpf(beta), mpf(a)
    u = lambda n: beta * a**n
    amp = (a**2 + a**4 - a**6 - 1) / (a**3 + 1) ** 2 * beta**2
    return DiffOp.build(
        {2: 1, 1: lambda n: u(n) + u(n + 1), 0: lambda n: u(n) ** 2 + amp * a ** (2 * n)},
        window,
    )


def geometric_l3(beta, a, window):
    beta, a = mpf(beta), mpf(a)
    return DiffOp.build(
        {
            3: 1,
            2: lambda n: (a * a + a + 1) * beta * a**n,
            1: lambda n: (a * a + a + 1) * beta**2 * a ** (2 * n + 1) / (a * a - a + 1),
            0: lambda n: beta**3 * a ** (3 * n + 3) / (a * a - a + 1) ** 3,
        },
        window,
    )


def test_apply_shift():
    L = shift(WIN)
    f = CoeffSeq.tabulate(lambda n: mpf(n), (-30, 30))
    out = apply_scalars(L, f)
    for n in range(-20, 21):
        assert out.at(n) == n + 1


def test_apply_constant_l2():
    # (T + U)^2 + W with U = W = 0 is T^2; on 2^n it multiplies by 4
    L = DiffOp.build({2: 1, 1: 0, 0: 0}, WIN)
    f = CoeffSeq.tabulate(lambda n: mpf(2) ** n, (-30, 30))
    out = apply_scalars(L, f)
    for n in range(-20, 21):
        assert out.at(n) == 4 * mpf(2) ** n


def test_apply_quartic_partner_to_ones():
    L3 = quartic_l3(1, 0, WIN)
    f = CoeffSeq.constant(1, (-30, 30))
    out = apply_scalars(L3, f)
    expected = sum(L3.coeff(j).at(0) for j in range(4))
    assert abs(out.at(0) - expected) <= mpf("1e-30")


def test_mul_shifts():
    T = shift(WIN)
    assert (T * T).order == 2
    assert (T * T).coeff(2).at(0) == 1


def test_mul_variable_coefficients():
    # (T + n)(T - n) = T^2 - T - n^2
    A = DiffOp.build({1: 1, 0: lambda n: mpf(n)}, WIN)
    B = DiffOp.build({1: 1, 0: lambda n: -mpf(n)}, WIN)
    prod = A * B
    for n in range(-20, 20):
        assert prod.coeff(2).at(n) == 1
        assert prod.coeff(1).at(n) == -1
        assert prod.coeff(0).at(n) == -n * n
    # oracle: apply both sides to delta sequences
    for k in range(-4, 5):
        delta = CoeffSeq.tabulate(lambda n, k=k: mpf(1) if n == k else mpf(0), (-30, 30))
        lhs = apply_scalars(prod, delta)
        rhs = apply_scalars(A, apply_scalars(B, delta))
        lo = max(lhs.window[0], rhs.window[0])
        hi = min(lhs.window[1], rhs.window[1])
        assert max(abs(lhs.at(n) - rhs.at(n)) for n in range(lo, hi + 1)) == 0


def test_mul_and_scale_left_match_elementwise_reference():
    # every coefficient is the exact per-index sum, rounded once
    rng = random.Random(21)
    A = DiffOp.build({-1: lambda n: mpf(rng.uniform(-2, 2)), 0: lambda n: mpf(n) / 3,
                      2: lambda n: mpf(rng.uniform(-2, 2))}, (-20, 22))
    B = DiffOp.build({0: lambda n: mpf(rng.uniform(-2, 2)), 1: 1,
                      3: lambda n: mpf(n) / 7}, (-24, 18))
    prod = A * B
    _assert_op_is(prod, *_exact_compose(A, B))
    assert prod.window == (-20, 16)
    c = CoeffSeq.tabulate(lambda n: mpf(rng.uniform(-2, 2)), (-15, 30))
    scaled = A.scale_left(c)
    assert scaled.window == (-15, 22)
    # c(n) u_j(n), one product each, is the mpf product
    for j, t in A.terms.items():
        assert list(scaled.terms[j].values) == [c.at(n) * t.at(n) for n in range(-15, 23)]


def test_square_plus_w_expansion():
    # (T + U_n)^2 + W_n = T^2 + (U_n + U_{n+1}) T + (U_n^2 + W_n)
    rng = random.Random(4)
    uvals = {n: mpf(rng.uniform(-2, 2)) for n in range(-28, 29)}
    wvals = {n: mpf(rng.uniform(-2, 2)) for n in range(-28, 29)}
    U = CoeffSeq.tabulate(lambda n: uvals[n], (-28, 28))
    A = DiffOp.build({1: 1, 0: lambda n: uvals[n]}, (-28, 28))
    sq = A * A + DiffOp.build({0: lambda n: wvals[n]}, (-28, 28))
    expect = DiffOp.build(
        {2: 1, 1: lambda n: uvals[n] + uvals[n + 1], 0: lambda n: uvals[n] ** 2 + wvals[n]},
        sq.window,
    )
    assert (sq - expect).sup_norm() <= mpf("1e-30")


def _is_zero(x) -> bool:
    """Every value of the exact form x is exactly 0."""
    return not any(map(any, x[1].values()))


def test_commutator_trivial():
    A = DiffOp.build({1: 1, 0: lambda n: mpf(n) / 3}, WIN)
    assert _is_zero(op_commutator(exact_form(A), exact_form(A)))
    T = shift(WIN)
    T3 = shift(WIN, 3)
    assert _is_zero(op_commutator(exact_form(T), exact_form(T3)))


@pytest.mark.parametrize("bits", (53, 113, 160))
def test_commutator_is_exact_against_the_fraction_reference(bits):
    # operators on different windows, with a negative degree, exact 1s and
    # values built at twice bits: [A, B] holds the exact values, [A, A] is
    # exactly 0, and the residual is the exact ratio rounded once
    rng = random.Random(bits + 3)
    pool = trap_values(rng, bits)
    with mp.workprec(bits):
        def seq(window):
            return CoeffSeq.tabulate(
                lambda n: rng.choice(pool) if rng.random() < 0.5 else mpf(rng.uniform(-3, 3)) / 7,
                window)

        A = DiffOp({-1: seq((-12, 12)), 0: seq((-12, 12)), 2: CoeffSeq.constant(1, (-12, 12))})
        B = DiffOp({0: seq((-10, 14)), 1: seq((-10, 14)), 3: seq((-10, 14))})
        assert any(v._mpf_[3] > bits for t in A.terms.values() for v in t.values)
        for X, Y in ((A, B), (B, A), (A, A)):
            comm = op_commutator(exact_form(X), exact_form(Y))
            assert fraction_form(comm) == exact_commutator(X, Y)
            window, rel = commutator_residual(X, Y)
            assert window == comm[0] == (X * Y - Y * X).window
            assert rel._mpf_ == exact_commutator_rel(X, Y)._mpf_
        assert _is_zero(op_commutator(exact_form(A), exact_form(A)))
        assert commutator_residual(A, A)[1]._mpf_ == fzero


def test_commutator_quartic_pair():
    L2 = quartic_l2(1, 0, (-30, 30))
    L3 = quartic_l3(1, 0, (-30, 30))
    window, rel = commutator_residual(L2, L3)
    assert window[0] <= -20 and window[1] >= 20
    assert rel <= mpf("1e-15")


def test_commutator_geometric_pair():
    L2 = geometric_l2(1, 2, (-26, 26))
    L3 = geometric_l3(1, 2, (-26, 26))
    _, rel = commutator_residual(L2, L3)
    assert rel <= mpf("1e-15")


def test_residual_norm_zero_cases():
    T = shift(WIN)
    assert (T - T).sup_norm() == 0
    Z = DiffOp.build({0: 0}, WIN)
    assert Z.sup_norm() == 0


def test_antisymmetry_exact():
    rng = random.Random(8)
    for _ in range(5):
        A = DiffOp.build(
            {1: lambda n: mpf(rng.uniform(-2, 2)), 0: lambda n: mpf(rng.uniform(-2, 2))},
            (-20, 20),
        )
        B = DiffOp.build(
            {2: 1, 0: lambda n: mpf(rng.uniform(-2, 2))},
            (-20, 20),
        )
        a, b = exact_form(A), exact_form(B)
        assert _is_zero(exact_sum(op_commutator(a, b), op_commutator(b, a)))


def test_jacobi_identity_property():
    # exact, as the commutators of exact forms round nothing
    rng = random.Random(12)
    win = (-18, 18)

    def rnd_op():
        return DiffOp.build(
            {
                0: (lambda n, c=rng.uniform(-2, 2): mpf(c) * n / 7),
                1: (lambda n, c=rng.uniform(-2, 2): mpf(c)),
                2: 1,
            },
            win,
        )

    for _ in range(4):
        a, b, c = (exact_form(rnd_op()) for _ in range(3))
        J = exact_sum(exact_sum(op_commutator(a, op_commutator(b, c)),
                                op_commutator(b, op_commutator(c, a))),
                      op_commutator(c, op_commutator(a, b)))
        assert _is_zero(J)


def test_apply_mul_coherence_property():
    rng = random.Random(13)
    A = quartic_l2(1, mpf(1) / 3, (-24, 24))
    B = quartic_l3(1, mpf(1) / 3, (-24, 24))
    f = CoeffSeq.tabulate(lambda n: mpf(rng.uniform(-1, 1)), (-30, 30))
    lhs = apply_scalars(A * B, f)
    rhs = apply_scalars(A, apply_scalars(B, f))
    lo = max(lhs.window[0], rhs.window[0])
    hi = min(lhs.window[1], rhs.window[1])
    scale = A.sup_norm() * B.sup_norm() * f.sup_norm()
    assert max(abs(lhs.at(n) - rhs.at(n)) for n in range(lo, hi + 1)) <= mpf("1e-12") * scale


def test_positivity_closure():
    A = DiffOp.build({3: 1, 1: lambda n: mpf(n)}, WIN)
    B = DiffOp.build({2: 1, 1: lambda n: mpf(1) / (n + 40)}, WIN)
    prod = A * B
    assert prod.is_positive
    assert prod.min_degree == A.min_degree + B.min_degree
    assert prod.order == A.order + B.order


def test_window_errors_name_indices():
    f = CoeffSeq.tabulate(lambda n: mpf(n), (0, 5))
    with pytest.raises(WindowError) as err:
        f.at(9)
    assert "9" in str(err.value) and "[0, 5]" in str(err.value)
    L = shift((0, 5), 3)
    with pytest.raises(WindowError):
        L.apply(CoeffSeq.tabulate(lambda n: mpf(n), (10, 12)))


def test_negative_degrees_representable():
    L = DiffOp.build({-1: 1, 1: 1}, WIN)
    assert not L.is_positive
    f = CoeffSeq.tabulate(lambda n: mpf(n) ** 2, (-30, 30))
    out = apply_scalars(L, f)
    assert out.at(0) == (mpf(1) + mpf(1))  # (n-1)^2 + (n+1)^2 at n=0


def test_serialization_roundtrip():
    L = quartic_l2(1, mpf("0.25"), (-6, 6))
    back = op_from_json(op_to_json(L))
    assert back.window == L.window
    assert (back - L).sup_norm() == 0


def _seven_site_doc():
    # a 7-site operator on (-3, 3), as op_to_json writes it
    L = DiffOp.build({0: lambda n: mpf(n) / 3, 1: 2, 2: 1}, (-3, 3))
    return json.loads(op_to_json(L))


def test_op_from_json_refuses_a_cut_term():
    doc = _seven_site_doc()
    doc["terms"]["1"] = doc["terms"]["1"][:4]
    with pytest.raises(WindowError, match=r"term 1 holds 4 values on window \[-3, 3\]"):
        op_from_json(json.dumps(doc))


def test_op_from_json_refuses_a_window_its_terms_do_not_fill():
    doc = _seven_site_doc()
    doc["window"] = [-10, 10]
    with pytest.raises(WindowError, match=r"term 0 holds 7 values on window \[-10, 10\]"):
        op_from_json(json.dumps(doc))


def test_op_from_json_refuses_an_order_that_is_not_the_top_term():
    doc = _seven_site_doc()
    assert op_from_json(json.dumps(doc)).order == doc["order"] == 2
    doc["order"] = 3
    with pytest.raises(ValueError, match="order 3 is not the top term's degree, term 2"):
        op_from_json(json.dumps(doc))


NON_FINITE = (float("inf"), float("nan"), mpf("inf"), mpf("-inf"), mpf("nan"))


def test_public_constructors_reject_non_finite():
    for bad in NON_FINITE:
        with pytest.raises(NonFiniteError):
            CoeffSeq(0, [1, bad])
        with pytest.raises(NonFiniteError):
            CoeffSeq.tabulate(lambda n, bad=bad: bad if n == 2 else mpf(n), (0, 3))
        with pytest.raises(NonFiniteError):
            DiffOp.build({0: bad, 1: 1}, (0, 3))
        with pytest.raises(NonFiniteError):
            DiffOp.build({0: lambda n, bad=bad: bad, 1: 1}, (0, 3))
    for text in ("inf", "-inf", "nan"):
        doc = '{"order": 1, "window": [0, 1], "terms": {"0": ["1", "%s"], "1": ["1", "1"]}}'
        with pytest.raises(NonFiniteError):
            op_from_json(doc % text)


def _all_mpf(L):
    return all(type(v) is mpf for t in L.terms.values() for v in t.values)


def test_results_hold_mpf():
    rng = random.Random(8)
    A = DiffOp.build({0: lambda n: mpf(rng.uniform(-2, 2)) / 3, 1: 1}, (-10, 12))
    B = DiffOp.build({-1: lambda n: mpf(n) / 7, 2: lambda n: mpf(rng.uniform(-2, 2))}, (-8, 10))
    c = CoeffSeq.tabulate(lambda n: mpf(n) / 9, (-9, 9))
    f = A.coeff(0)
    assert all(type(v) is mpf for v in f.restrict((0, 3)).values)
    for L in (A * B, A + B, A - B, A.scale_left(c)):
        assert _all_mpf(L)


@pytest.mark.parametrize("op", (operator.mul, operator.add, operator.sub))
def test_operands_other_than_operators_are_a_type_error(op):
    A = DiffOp.build({0: lambda n: mpf(n) / 3, 1: 1}, (-4, 4))
    for other in (2, mpf("0.5"), A.coeff(0)):
        with pytest.raises(TypeError):
            op(A, other)
        with pytest.raises(TypeError):
            op(other, A)


def test_empty_composition_and_sum_windows_are_window_errors():
    # disjoint windows; and windows that overlap, but where A's T^2 needs
    # the right factor beyond its window
    A = DiffOp.build({0: lambda n: mpf(n) / 3, 2: 1}, (0, 5))
    B = DiffOp.build({1: 1}, (7, 9))
    C = DiffOp.build({0: 1}, (5, 6))
    for X, Y in ((A, B), (B, A)):
        for op in (operator.add, operator.sub):
            with pytest.raises(WindowError, match="^term windows have empty intersection$"):
                op(X, Y)
    for X, Y in ((A, B), (B, A), (A, C)):
        with pytest.raises(WindowError, match="^composition window empty$"):
            X * Y
    with pytest.raises(WindowError, match="^composition window empty$"):
        A.scale_left(B.coeff(1))
    assert (A + C).window == (C * A).window == (5, 5)


def test_difference_matches_the_sum_with_the_negation_bit_for_bit():
    # -Y as (-1) o Y, an exact negation; both sides are the exact sum
    # rounded once
    rng = random.Random(13)
    A = DiffOp.build({0: lambda n: mpf(rng.uniform(-2, 2)) / 3,
                      1: lambda n: mpf(rng.uniform(-2, 2)) / 7}, (-10, 12))
    B = DiffOp.build({-1: lambda n: mpf(rng.uniform(-2, 2)) / 11, 1: 1}, (-8, 14))
    for X, Y in ((A, B), (B, A), (A * B, B * A)):
        diff = X - Y
        _assert_op_is(diff, *_exact_sum(X, Y, -1))
        ref = X + Y.scale_left(CoeffSeq.constant(-1, Y.window))
        _assert_op_is(diff, *_terms_of(ref))


def test_terms_on_the_window_are_shared_not_copied():
    L = DiffOp.build({0: lambda n: mpf(n) / 3, 2: 1}, (-5, 5))
    same = DiffOp(L.terms, L.window)
    assert all(same.terms[j] is t for j, t in L.terms.items())
    cut = DiffOp(L.terms, (-5, 3))
    assert cut.window == (-5, 3) and cut.terms[0].values == L.terms[0].values[:-2]


# ---------------------------------------------------------------------------
# bit-identity oracles: the Fraction references of the exact operator
# arithmetic, each coefficient rounded once
# ---------------------------------------------------------------------------


def _mpfs_on(seq, lo, hi):
    return [mp.make_mpf(v) for v in seq.values_on(lo, hi)]


def _terms_of(L):
    return L.window, {j: t.values for j, t in L.terms.items()}


def _exact_compose(A, B):
    """A o B in Fractions, each coefficient rounded once at the working precision."""
    return _terms_of(rounded_op(_fraction_compose(fraction_op(A), fraction_op(B)), mp.prec))


def _exact_sum(A, B, sign=1):
    """A + sign B in Fractions, each coefficient rounded once at the working precision."""
    return _terms_of(rounded_op(_fraction_sum(fraction_op(A), fraction_op(B), sign), mp.prec))


def _assert_op_is(L, window, terms):
    assert L.window == window and sorted(L.terms) == sorted(terms)
    for j, vals in terms.items():
        assert raws(L.terms[j].values) == raws(vals), j


@pytest.mark.parametrize("bits", (53, 113, 160, 1100))
def test_operator_kernels_match_their_references_bit_for_bit(bits):
    rng = random.Random(bits + 11)
    pool = trap_values(rng, bits)
    with mp.workprec(bits):
        def seq(window):
            return CoeffSeq.tabulate(
                lambda n: rng.choice(pool) if rng.random() < 0.6 else mpf(rng.uniform(-3, 3)) / 7,
                window)

        for _ in range(4):
            x, y = seq((-9, 12)), seq((-11, 8))
            assert x.sup_norm()._mpf_ == max(abs(v) for v in x.values)._mpf_
            A = DiffOp({-1: seq((-12, 12)), 0: seq((-12, 12)), 2: seq((-12, 12))})
            B = DiffOp({0: seq((-10, 14)), 1: seq((-10, 14)), 3: seq((-10, 14))})
            for X, Y in ((A, B), (B, A), (A, A)):
                _assert_op_is(X * Y, *_exact_compose(X, Y))
                _assert_op_is(X + Y, *_exact_sum(X, Y))
                _assert_op_is(X - Y, *_exact_sum(X, Y, -1))
            assert (A * B).window == (-9, 12) and (B * A).window == (-10, 9)
            # a scale is the composition c(n) o L: one exact product per
            # coefficient, rounded once, so c(n) u_j(n) is the mpf product,
            # on the windows' intersection
            _assert_op_is(A.scale_left(x), *_exact_compose(DiffOp({0: x}), A))
            c = seq((-8, 30))
            scaled = A.scale_left(c)
            assert scaled.window == (-8, 12)
            for j, t in A.terms.items():
                assert raws(scaled.terms[j].values) == \
                    raws([c.at(n) * t.at(n) for n in range(-8, 13)]), j
            # terms of exact 1s on either side, against factors that hold a
            # value wider than bits, which the exact arithmetic rounds only
            # in the result
            ones = CoeffSeq.constant(1, (-12, 14))
            wide = CoeffSeq(-12, [pool[4], *_mpfs_on(x, -9, 12), pool[5]])
            A1 = DiffOp({**A.terms, 0: wide, 2: ones})
            B1 = DiffOp({0: ones, 1: wide, 3: ones})
            for L, R in ((A1, B), (B, A1), (A, B1), (B1, A), (A1, B1), (B1, A1), (A1, A1)):
                _assert_op_is(L * R, *_exact_compose(L, R))
                _assert_op_is(L + R, *_exact_sum(L, R))
            for L, c in ((A1, x), (B1, wide), (B1, x)):
                _assert_op_is(L.scale_left(c), *_exact_compose(DiffOp({0: c}), L))
            # the apply is exact, each value rounded once
            lo, vals = fraction_apply(B, [[_fraction(v)] for v in y.raw], y.n_min)
            got = apply_scalars(B, y)
            assert got.window[0] == lo and got.raw == [(rounded_poly(v) or [fzero])[0]
                                                       for v in vals]
            assert A.sup_norm()._mpf_ == max(abs(v) for t in A.terms.values()
                                             for v in t.values)._mpf_


@pytest.mark.parametrize("make, error, fragment", [
    (lambda: CoeffSeq(0, []), WindowError, "empty coefficient window"),
    (lambda: CoeffSeq.tabulate(mpf, (3, 2)), WindowError, "empty window [3, 2]"),
    (lambda: DiffOp({}), ValueError, "at least one term"),
    (lambda: DiffOp({0: CoeffSeq(0, [1, 2]), 1: CoeffSeq(5, [1])}), WindowError,
     "term windows have empty intersection"),
], ids=["no-values", "empty-tabulate", "no-term", "disjoint-terms"])
def test_sequence_and_operator_constructors_refuse_empty_windows(make, error, fragment):
    with pytest.raises(error) as got:
        make()
    assert fragment in str(got.value)
