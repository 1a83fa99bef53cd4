import operator
import random

import pytest
from mpmath import mp, mpf

from commdiff.errors import NonFiniteError, WindowError
from commdiff.opalg import (
    CoeffSeq,
    DiffOp,
    commutator_residual,
    op_commutator,
    op_from_json,
    op_to_json,
)
from oracles import shift
from test_numcore import trap_values

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
    out = L.apply(f)
    for n in range(-20, 21):
        assert out.at(n) == n + 1


def test_apply_constant_l2():
    # (T + U)^2 + W with U = W = 0 is T^2; on 2^n it multiplies by 4
    L = DiffOp.build({2: 1, 1: 0, 0: 0}, WIN)
    f = CoeffSeq.tabulate(lambda n: mpf(2) ** n, (-30, 30))
    out = L.apply(f)
    for n in range(-20, 21):
        assert out.at(n) == 4 * mpf(2) ** n


def test_apply_quartic_partner_to_ones():
    L3 = quartic_l3(1, 0, WIN)
    f = CoeffSeq.constant(1, (-30, 30))
    out = L3.apply(f)
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
        lhs = prod.apply(delta)
        rhs = A.apply(B.apply(delta))
        lo = max(lhs.window[0], rhs.window[0])
        hi = min(lhs.window[1], rhs.window[1])
        assert max(abs(lhs.at(n) - rhs.at(n)) for n in range(lo, hi + 1)) == 0


def test_mul_and_scale_left_match_elementwise_reference():
    # the sliced products must equal the per-index sums, in the same order
    rng = random.Random(21)
    A = DiffOp.build({-1: lambda n: mpf(rng.uniform(-2, 2)), 0: lambda n: mpf(n) / 3,
                      2: lambda n: mpf(rng.uniform(-2, 2))}, (-20, 22))
    B = DiffOp.build({0: lambda n: mpf(rng.uniform(-2, 2)), 1: 1,
                      3: lambda n: mpf(n) / 7}, (-24, 18))
    prod = A * B
    lo, hi = prod.window
    ref = {}
    for i, a in A.terms.items():
        for j, b in B.terms.items():
            contrib = [a.at(n) * b.at(n + i) for n in range(lo, hi + 1)]
            old = ref.get(i + j)
            ref[i + j] = contrib if old is None else [x + y for x, y in zip(old, contrib)]
    assert sorted(prod.terms) == sorted(ref)
    assert all(list(prod.terms[k].values) == v for k, v in ref.items())
    c = CoeffSeq.tabulate(lambda n: mpf(rng.uniform(-2, 2)), (-15, 30))
    scaled = A.scale_left(c)
    assert scaled.window == (-15, 22)
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


def test_commutator_trivial():
    A = DiffOp.build({1: 1, 0: lambda n: mpf(n) / 3}, WIN)
    assert op_commutator(A, A).sup_norm() == 0
    T = shift(WIN)
    T3 = shift(WIN, 3)
    assert op_commutator(T, T3).sup_norm() == 0


def test_commutator_quartic_pair():
    L2 = quartic_l2(1, 0, (-30, 30))
    L3 = quartic_l3(1, 0, (-30, 30))
    comm, rel = commutator_residual(L2, L3)
    assert comm.window[0] <= -20 and comm.window[1] >= 20
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
        assert (op_commutator(A, B) + op_commutator(B, A)).sup_norm() == 0


def test_jacobi_identity_property():
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
        A, B, C = rnd_op(), rnd_op(), rnd_op()
        J = (
            op_commutator(A, op_commutator(B, C))
            + op_commutator(B, op_commutator(C, A))
            + op_commutator(C, op_commutator(A, B))
        )
        scale = A.sup_norm() * B.sup_norm() * C.sup_norm()
        assert J.sup_norm() <= mpf("1e-12") * scale


def test_apply_mul_coherence_property():
    rng = random.Random(13)
    A = quartic_l2(1, mpf(1) / 3, (-24, 24))
    B = quartic_l3(1, mpf(1) / 3, (-24, 24))
    f = CoeffSeq.tabulate(lambda n: mpf(rng.uniform(-1, 1)), (-30, 30))
    lhs = (A * B).apply(f)
    rhs = A.apply(B.apply(f))
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
    out = L.apply(f)
    assert out.at(0) == (mpf(1) + mpf(1))  # (n-1)^2 + (n+1)^2 at n=0


def test_serialization_roundtrip():
    L = quartic_l2(1, mpf("0.25"), (-6, 6))
    back = op_from_json(op_to_json(L))
    assert back.window == L.window
    assert (back - L).sup_norm() == 0


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
        with pytest.raises(NonFiniteError):
            CoeffSeq(0, [1, 2]) * bad
    for text in ("inf", "-inf", "nan"):
        doc = '{"order": 1, "window": [0, 1], "terms": {"0": ["1", "%s"], "1": ["1", "1"]}}'
        with pytest.raises(NonFiniteError):
            op_from_json(doc % text)


def _all_mpf(L):
    return all(type(v) is mpf for t in L.terms.values() for v in t.values)


def test_results_hold_mpf_and_scalar_operands_are_coerced():
    rng = random.Random(8)
    A = DiffOp.build({0: lambda n: mpf(rng.uniform(-2, 2)) / 3, 1: 1}, (-10, 12))
    B = DiffOp.build({-1: lambda n: mpf(n) / 7, 2: lambda n: mpf(rng.uniform(-2, 2))}, (-8, 10))
    c = CoeffSeq.tabulate(lambda n: mpf(n) / 9, (-9, 9))
    f = A.coeff(0)
    for seq in (f * 2, 2 * f, f * 0.75, f + c, f - c, f * c, -f, f.restrict((0, 3)),
                A.apply(c)):
        assert all(type(v) is mpf for v in seq.values)
    for L in (A * 3, 0.5 * A, A * B, A + B, A - B, -A, A.scale_left(c)):
        assert _all_mpf(L)


def test_difference_matches_the_sum_with_the_negation_bit_for_bit():
    rng = random.Random(13)
    A = DiffOp.build({0: lambda n: mpf(rng.uniform(-2, 2)) / 3,
                      1: lambda n: mpf(rng.uniform(-2, 2)) / 7}, (-10, 12))
    B = DiffOp.build({-1: lambda n: mpf(rng.uniform(-2, 2)) / 11, 1: 1}, (-8, 14))
    for X, Y in ((A, B), (B, A), (A * B, B * A)):
        diff, ref = X - Y, X + (-Y)
        assert diff.window == ref.window and sorted(diff.terms) == sorted(ref.terms)
        for j, t in diff.terms.items():
            assert [v._mpf_ for v in t.values] == [v._mpf_ for v in ref.terms[j].values]


def test_terms_on_the_window_are_shared_not_copied():
    L = DiffOp.build({0: lambda n: mpf(n) / 3, 2: 1}, (-5, 5))
    same = DiffOp(L.terms, L.window)
    assert all(same.terms[j] is t for j, t in L.terms.items())
    cut = DiffOp(L.terms, (-5, 3))
    assert cut.window == (-5, 3) and cut.terms[0].values == L.terms[0].values[:-2]


# ---------------------------------------------------------------------------
# bit-identity oracles: the mpf-object loops that the coefficient and
# operator arithmetic runs on raw libmp values
# ---------------------------------------------------------------------------


def _mpfs_on(seq, lo, hi):
    return [mp.make_mpf(v) for v in seq.values_on(lo, hi)]


def _reference_binop(x, y, op):
    lo, hi = max(x.window[0], y.window[0]), min(x.window[1], y.window[1])
    return list(map(op, _mpfs_on(x, lo, hi), _mpfs_on(y, lo, hi)))


def _reference_compose(A, B):
    lo = max(A.window[0], B.window[0] - A.min_degree)
    hi = min(A.window[1], B.window[1] - A.order)
    out = {}
    for i, a in A.terms.items():
        av = _mpfs_on(a, lo, hi)
        for j, b in B.terms.items():
            contrib = map(operator.mul, av, _mpfs_on(b, lo + i, hi + i))
            k = i + j
            out[k] = list(map(operator.add, out[k], contrib)) if k in out else list(contrib)
    return (lo, hi), out


def _reference_scale_left(L, c):
    lo, hi = max(c.window[0], L.window[0]), min(c.window[1], L.window[1])
    cv = _mpfs_on(c, lo, hi)
    return (lo, hi), {j: list(map(operator.mul, cv, _mpfs_on(t, lo, hi)))
                      for j, t in L.terms.items()}


def _reference_apply(L, f):
    lo = max(L.window[0], f.window[0] - L.min_degree)
    hi = min(L.window[1], f.window[1] - L.order)
    vals = None
    for j, u in L.terms.items():
        prods = map(operator.mul, _mpfs_on(u, lo, hi), _mpfs_on(f, lo + j, hi + j))
        vals = list(prods) if vals is None else list(map(operator.add, vals, prods))
    return lo, vals


def _raw_vals(vals):
    return [v._mpf_ for v in vals]


def _assert_op_is(L, window, terms):
    assert L.window == window and sorted(L.terms) == sorted(terms)
    for j, vals in terms.items():
        assert _raw_vals(L.terms[j].values) == _raw_vals(vals), j


@pytest.mark.parametrize("bits", (53, 113, 160, 1100))
def test_coefficient_and_operator_kernels_match_the_mpf_loops_bit_for_bit(bits):
    rng = random.Random(bits + 11)
    pool = trap_values(rng, bits)
    with mp.workprec(bits):
        def seq(window):
            return CoeffSeq.tabulate(
                lambda n: rng.choice(pool) if rng.random() < 0.6 else mpf(rng.uniform(-3, 3)) / 7,
                window)

        for _ in range(4):
            x, y, c = seq((-9, 12)), seq((-11, 8)), rng.choice(pool)
            for got, op in ((x + y, operator.add), (x - y, operator.sub), (x * y, operator.mul)):
                assert _raw_vals(got.values) == _raw_vals(_reference_binop(x, y, op))
            assert _raw_vals((x * c).values) == _raw_vals([c * v for v in x.values])
            assert _raw_vals((-x).values) == _raw_vals([-v for v in x.values])
            assert x.sup_norm()._mpf_ == max(abs(v) for v in x.values)._mpf_
            A = DiffOp({-1: seq((-12, 12)), 0: seq((-12, 12)), 2: seq((-12, 12))})
            B = DiffOp({0: seq((-10, 14)), 1: seq((-10, 14)), 3: seq((-10, 14))})
            _assert_op_is(A * B, *_reference_compose(A, B))
            _assert_op_is(B * A, *_reference_compose(B, A))
            _assert_op_is(A.scale_left(x), *_reference_scale_left(A, x))
            # terms of exact 1s on either side, against factors that hold a
            # value wider than bits, which a product with 1 rounds
            ones = CoeffSeq.constant(1, (-12, 14))
            wide = CoeffSeq(-12, [pool[4], *_mpfs_on(x, -9, 12), pool[5]])
            A1 = DiffOp({**A.terms, 0: wide, 2: ones})
            B1 = DiffOp({0: ones, 1: wide, 3: ones})
            for L, R in ((A1, B), (B, A1), (A, B1), (B1, A), (A1, B1), (B1, A1), (A1, A1)):
                _assert_op_is(L * R, *_reference_compose(L, R))
            for L, c in ((A1, x), (B1, wide), (B1, x)):
                _assert_op_is(L.scale_left(c), *_reference_scale_left(L, c))
            lo, vals = _reference_apply(B, y)
            got = B.apply(y)
            assert got.window[0] == lo and _raw_vals(got.values) == _raw_vals(vals)
            assert A.sup_norm()._mpf_ == max(abs(v) for t in A.terms.values()
                                             for v in t.values)._mpf_
