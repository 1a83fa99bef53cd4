import random

import pytest
from mpmath import mpf

from commdiff.errors import WindowError
from commdiff.opalg import (
    CoeffSeq,
    DiffOp,
    commutator_scale,
    op_commutator,
    op_from_json,
    op_to_json,
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
    L = DiffOp.shift(WIN)
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
    T = DiffOp.shift(WIN)
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
    T = DiffOp.shift(WIN)
    T3 = DiffOp.shift(WIN, 3)
    assert op_commutator(T, T3).sup_norm() == 0


def test_commutator_quartic_pair():
    L2 = quartic_l2(1, 0, (-30, 30))
    L3 = quartic_l3(1, 0, (-30, 30))
    comm = op_commutator(L2, L3)
    assert comm.window[0] <= -20 and comm.window[1] >= 20
    rel = comm.sup_norm() / commutator_scale(L2, L3)
    assert rel <= mpf("1e-15")


def test_commutator_geometric_pair():
    L2 = geometric_l2(1, 2, (-26, 26))
    L3 = geometric_l3(1, 2, (-26, 26))
    rel = op_commutator(L2, L3).sup_norm() / commutator_scale(L2, L3)
    assert rel <= mpf("1e-15")


def test_residual_norm_zero_cases():
    T = DiffOp.shift(WIN)
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
    L = DiffOp.shift((0, 5), 3)
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
