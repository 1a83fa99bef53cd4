import json
import operator
import random

import pytest
from mpmath import cos, mp, mpf
from mpmath.libmp import (
    finf, fnan, fninf, fone, from_man_exp, fzero, mpf_abs, mpf_add, mpf_div, mpf_gt, mpf_mul,
    mpf_neg, mpf_sub, round_nearest,
)

from oracles import poly_div_exact

from commdiff.errors import DegenerateDenominatorError, NonFiniteError
from commdiff.numcore import (
    HyperellipticCurve,
    ZPoly,
    cos_int,
    get_precision,
    mpf_to_str,
    poly_mul,
    pow_int,
    radd,
    raw_max,
    rdiv,
    rdot,
    rmac,
    rmul,
    rpoly_add,
    rpoly_mul,
    rpoly_sub,
    rsub,
    scalar,
    set_precision,
    to_json,
)


def test_precision_configurable():
    assert get_precision() == 113
    set_precision(53)
    assert get_precision() == 53
    set_precision(113)
    with pytest.raises(ValueError):
        set_precision(32)


def test_scalar_rejects_non_finite():
    for bad in (float("inf"), float("nan"), mpf("nan"), mpf("inf"), mpf("-inf")):
        with pytest.raises(NonFiniteError):
            scalar(bad)


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


def _reference_poly_mul(p, q):
    """The zero-started convolution that `poly_mul` must reproduce bit for bit."""
    if p.is_zero or q.is_zero:
        return ZPoly.zero()
    out = [mpf(0)] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, ai in enumerate(p.coeffs):
        for j, bj in enumerate(q.coeffs):
            out[i + j] += ai * bj
    return ZPoly(out)


def _raw(poly):
    return [c._mpf_ for c in poly.coeffs]


# the mpf-object loops that ZPoly's arithmetic runs on raw libmp values

def _reference_add(p, q):
    a, b = p.coeffs, q.coeffs
    if len(a) < len(b):
        a, b = b, a
    return ZPoly((*map(operator.add, a, b), *a[len(b):]))


def _reference_sub(p, q):
    a, b = p.coeffs, q.coeffs
    return ZPoly((*map(operator.sub, a, b), *a[len(b):], *(-c for c in b[len(a):])))


def _reference_scale(p, c):
    c = scalar(c)
    return ZPoly(tuple(c * x for x in p.coeffs))


def _reference_sup_norm(p):
    return max((abs(c) for c in p.coeffs), default=mpf(0))


def trap_values(rng, bits):
    """Exact 0 and +-1, negative values, and values built at twice `bits`,
    which mpf's unary minus and abs round to the working precision."""
    with mp.workprec(2 * bits):
        wide = [mpf(rng.uniform(-3, 3)) * mp.sqrt(2) * mpf(10) ** rng.randint(-6, 6)
                for _ in range(4)]
    return [mpf(0), mpf(1), mpf(-1), -mpf(rng.uniform(0, 3)) / 7, *wide]


@pytest.mark.parametrize("bits", (53, 113, 160, 1100))
def test_poly_kernels_match_the_mpf_loops_bit_for_bit(bits):
    rng = random.Random(bits + 7)
    pool = trap_values(rng, bits)
    assert all(v._mpf_[3] > bits for v in pool[4:])
    with mp.workprec(bits):
        def draw():
            return ZPoly([rng.choice(pool) if rng.random() < 0.6 else mpf(rng.uniform(-3, 3)) / 7
                          for _ in range(rng.randint(1, 7))])

        for _ in range(60):
            p, q, c = draw(), draw(), rng.choice(pool)
            assert _raw(poly_mul(p, q)) == _raw(_reference_poly_mul(p, q))
            assert _raw(p + q) == _raw(_reference_add(p, q))
            assert _raw(p - q) == _raw(_reference_sub(p, q))
            assert _raw(q - p) == _raw(_reference_sub(q, p))
            assert _raw(p.scale(c)) == _raw(_reference_scale(p, c))
            assert _raw(-p) == _raw(ZPoly([-x for x in p.coeffs]))
            assert p.sup_norm()._mpf_ == _reference_sup_norm(p)._mpf_
        # the first largest, as max() picks it; with prec, of the rounded |v|
        raws = [v._mpf_ for v in pool]
        assert raw_max(raws) == max(pool)._mpf_
        assert raw_max(raws, bits) == max(abs(v) for v in pool)._mpf_


@pytest.mark.parametrize("bits", (53, 113, 160, 1100))
def test_raw_vector_helpers_match_the_mpf_loops_bit_for_bit(bits):
    # trap values (exact 0 and +-1, values wider than bits), empty vectors,
    # and pairs whose top coefficients cancel to an exact 0, which the
    # helpers trim as ZPoly does
    rng = random.Random(bits + 13)
    pool = trap_values(rng, bits)
    with mp.workprec(bits):
        def draw():
            return [rng.choice(pool) for _ in range(rng.randint(0, 6))]

        pairs = [(draw(), draw()) for _ in range(80)]
        for a, _b in pairs[:20]:
            tail = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
            pairs += [(a + tail, a + tail), (a + tail, a + [-v for v in tail]), (a, [])]
        for a, b in pairs:
            p, q = ZPoly(a), ZPoly(b)
            a, b = p.raw, q.raw  # trimmed, as ZPoly's operands always are
            assert rpoly_mul(a, b, bits) == _raw(_reference_poly_mul(p, q))
            assert rpoly_add(a, b, bits) == _raw(_reference_add(p, q))
            assert rpoly_sub(a, b, bits) == _raw(_reference_sub(p, q))
            assert rpoly_sub(b, a, bits) == _raw(_reference_sub(q, p))
        # a cancelled top coefficient leaves no exact zero behind
        one = [fone, fone]
        assert rpoly_sub(one, one, bits) == [] and rpoly_add(one, [fone, mpf_neg(fone)], bits) == [
            radd(fone, fone, bits)]


# ---------------------------------------------------------------------------
# the round-to-nearest kernels against libmp, the oracle they reimplement
# ---------------------------------------------------------------------------

KERNELS = ((rmul, mpf_mul), (radd, mpf_add), (rsub, mpf_sub))


def _check_kernels(pairs, p, kernels=KERNELS):
    pairs = list(pairs)
    for kernel, libmp_op in kernels:
        got = [kernel(s, t, p) for s, t in pairs]
        want = [libmp_op(s, t, p, round_nearest) for s, t in pairs]
        bad = [(s, t) for (s, t), x, y in zip(pairs, got, want) if x != y]
        assert not bad, (kernel.__name__, p, bad[:3])


@pytest.mark.parametrize("p", range(1, 7))
def test_kernels_match_libmp_on_every_short_mantissa(p):
    # every odd mantissa below 2^7 of either sign against every one at an
    # exponent offset of -10..10: ties, sticky bits, carries to 2^p and exact
    # cancellations all occur at these precisions.  A product's rounding does
    # not depend on the exponents, so products run at offset 0 only; sums run
    # with s > 0 and differences with s < 0, which between them meet every
    # sign pattern of the two operands, as rsub(s, t) is radd(s, -t).
    odd = range(1, 128, 2)
    for off in range(-10, 11):
        t = [from_man_exp(sign * m, off) for m in odd for sign in (1, -1)]
        for sign, kernels in ((1, KERNELS[1:2]), (-1, KERNELS[2:])):
            _check_kernels(((from_man_exp(sign * m, 0), y) for m in odd for y in t), p, kernels)
        if off == 0:
            _check_kernels(((x, y) for x in t for y in t), p, KERNELS[:1])
    # a carry to 2^p and an exact cancellation, by name
    assert rmul(from_man_exp(2 ** p - 1, 0), from_man_exp(2 ** p + 1, 0), p) == (0, 1, 2 * p, 1)
    assert radd(from_man_exp(2 ** p - 1, 0), from_man_exp(1, -1), p) == (0, 1, p, 1)
    assert rsub(from_man_exp(-5, 3), from_man_exp(-5, 3), p) == fzero


@pytest.mark.parametrize("p", (53, 113, 145, 1100))
def test_kernels_match_libmp_on_random_operands(p):
    # p-bit mantissas, mantissas of twice p (as trap_values builds them) and
    # others of random width, at exponent gaps within libmp's exact reach
    rng = random.Random(p)

    def draw():
        width = rng.choice((p, 2 * p, rng.randint(1, 3 * p)))
        man = rng.getrandbits(width) | 1 | (1 << (width - 1))
        return from_man_exp(rng.choice((1, -1)) * man, rng.randint(-60, 60) - width)

    _check_kernels(((draw(), draw()) for _ in range(1500)), p)
    with mp.workprec(p):
        pool = [v._mpf_ for v in trap_values(rng, p)]
    _check_kernels(((s, t) for s in pool for t in pool), p)


def test_kernels_match_libmp_on_zeros_and_specials():
    # every pair, so a zero meets partners of at most p bits, which the
    # kernels answer themselves, wider ones, which libmp rounds, and specials
    rng = random.Random(17)
    for p in (1, 53, 113, 1100):
        values = [fzero, finf, fninf, fnan, fone, from_man_exp(-3, -7), from_man_exp(2 ** 60 + 1, 4)]
        for width in (p // 2 or 1, p, p + 1, 2 * p):
            man = rng.getrandbits(width) | 1 | (1 << (width - 1))
            values += [from_man_exp(man, -width), from_man_exp(-man, rng.randint(-90, 90))]
        _check_kernels(((s, t) for s in values for t in values), p)


@pytest.mark.parametrize("gap", (99, 100, 101, 300))
def test_kernels_match_libmp_across_exponent_gaps(gap):
    # past a gap of 100 bits libmp perturbs the larger operand when the
    # smaller lies wholly below its precision (big and small), and adds
    # exactly when the smaller one's mantissa reaches up into it (big and long)
    rng = random.Random(gap)
    for p in (53, 113):
        big = from_man_exp(rng.getrandbits(p) | 1 | (1 << (p - 1)), gap)
        small = from_man_exp(rng.getrandbits(20) | 1, 0)
        long = from_man_exp(rng.getrandbits(gap + p) | 1 | (1 << (gap + p - 1)), -p)
        short = (from_man_exp(1, gap), from_man_exp(-1, 0), from_man_exp(3, gap),
                 from_man_exp(-1, -1))
        for a in (big, small, long, *short):
            for b in (big, small, long, *short):
                _check_kernels([(a, b), (mpf_neg(a), b), (a, mpf_neg(b))], p)


@pytest.mark.parametrize("p", (53, 113, 145, 1100))
@pytest.mark.parametrize("gap", (90, 101, 102, 150, 250, 400))
def test_far_sums_match_libmp_in_both_regimes(gap, p):
    # operands gap bits apart in exponent: the smaller one's mantissa reaches
    # up to within p + 4 bits of the larger one's top (libmp adds exactly) or
    # lies wholly below it (libmp perturbs the larger, which rounds back to
    # it when it fits in p bits); larger operands of one bit (a power of two,
    # whose binade below is finer), of p bits and wider than p; both orders
    # and every sign pattern
    rng = random.Random(gap * 7 + p)

    def odd(bits):
        return rng.getrandbits(bits) | 1 | (1 << (bits - 1))

    larger = [from_man_exp(1, gap), from_man_exp(3, gap), from_man_exp(odd(p), gap),
              from_man_exp(odd(p // 2), gap), from_man_exp(odd(p + 1), gap),
              from_man_exp(odd(2 * p), gap)]
    # mantissas of gap + top - reach bits reach up to top - reach bits below
    # the larger operand's top, at exponent 0
    smaller = [from_man_exp(1, 0), from_man_exp(odd(20), 0), from_man_exp(odd(p), 0)]
    for big in larger:
        top = big[2] + big[3]
        for reach in (p + 5, p + 4, p + 3, p, 1, 0):
            width = top - reach
            if width > 0:
                smaller.append(from_man_exp(odd(width), 0))
    pairs = []
    for a in larger:
        for b in smaller:
            for x, y in ((a, b), (b, a)):
                pairs += [(x, y), (mpf_neg(x), y), (x, mpf_neg(y)), (mpf_neg(x), mpf_neg(y))]
    _check_kernels(pairs, p, KERNELS[1:])
    # 0 +- 0, by name
    assert radd(fzero, fzero, p) == rsub(fzero, fzero, p) == fzero


def _check_rdiv(pairs, p):
    pairs = list(pairs)
    bad = [(s, t) for s, t in pairs if rdiv(s, t, p) != mpf_div(s, t, p, round_nearest)]
    assert not bad, (p, bad[:3])


@pytest.mark.parametrize("p", range(1, 7))
def test_rdiv_matches_libmp_on_every_short_mantissa(p):
    # every odd mantissa below 2^7 of either sign over every one: exact and
    # inexact quotients, ties that only an exact quotient makes, carries to
    # 2^p, and the divisor 1, which libmp rounds itself
    odd = range(1, 128, 2)
    vals = [from_man_exp(sign * m, off) for m in odd for sign in (1, -1) for off in (-3, 0, 5)]
    _check_rdiv(((s, t) for s in vals for t in vals), p)


@pytest.mark.parametrize("p", (53, 113, 145, 1100))
def test_rdiv_matches_libmp(p):
    # random operands of p bits, 2p bits (wider than p) and random width;
    # quotients that are exact, exact at p bits and ties; divisors that are
    # powers of two; zero and special operands
    rng = random.Random(p + 29)

    def odd(bits):
        return rng.getrandbits(bits) | 1 | (1 << (bits - 1))

    def draw():
        width = rng.choice((p, 2 * p, rng.randint(1, 3 * p)))
        return from_man_exp(rng.choice((1, -1)) * odd(width), rng.randint(-60, 60) - width)

    pairs = [(draw(), draw()) for _ in range(1500)]
    for _ in range(200):
        t, q = draw(), draw()
        # t q / t is q, exactly
        pairs.append((from_man_exp(t[1] * q[1] * (-1) ** q[0], t[2] + q[2]), t))
    for width in (p, p + 1, p + 2):
        # a quotient of width p + 1 ending in 1 lies halfway between two p-bit values
        pairs += [(from_man_exp(odd(width) * 3, -5), from_man_exp(3, 2)) for _ in range(40)]
    pairs += [(draw(), from_man_exp(rng.choice((1, -1)), rng.randint(-90, 90)))
              for _ in range(100)]
    with mp.workprec(p):
        pool = [v._mpf_ for v in trap_values(rng, p)]
    pairs += [(s, t) for s in pool for t in pool if t != fzero]
    specials = [fzero, finf, fninf, fnan, fone, draw(), draw()]
    pairs += [(s, t) for s in specials for t in specials if t != fzero]
    _check_rdiv(pairs, p)
    for s in specials:
        with pytest.raises(ZeroDivisionError):
            rdiv(s, fzero, p)


@pytest.mark.parametrize("p", (53, 113, 145, 1100))
def test_pow_int_is_mpf_power_at_p_bits(p):
    # pow_int(a, e, p) is a ** e under mp.workprec(p): negative, zero, small
    # and large exponents, a of one bit, of p bits and wider than p
    with mp.workprec(2 * p):
        wide = mpf(2) ** mpf("0.5") * 3
    for a in (mpf(2), mpf(-3), mpf("1.764235"), mpf("-0.4"), wide):
        for e in (-2000, -301, -37, -2, -1, 0, 1, 2, 3, 37, 301, 2000):
            with mp.workprec(p):
                want = (a ** e)._mpf_
            assert pow_int(a._mpf_, e, p) == want, (a, e, p)
            assert pow_int(a._mpf_, e, p) is pow_int(a._mpf_, e, p)


def _check_rmac(triples, p):
    """rmac(acc, s, t, p) and its subtracting form against the two calls it
    fuses, on the raw triples (acc, s, t)."""
    triples = list(triples)
    for neg, fused in ((0, radd), (1, rsub)):
        bad = [(a, s, t) for a, s, t in triples
               if rmac(a, s, t, p, neg) != fused(a, rmul(s, t, p), p)]
        assert not bad, (neg, p, bad[:3])


@pytest.mark.parametrize("p", range(1, 7))
def test_rmac_matches_the_kernels_on_every_short_mantissa(p):
    # every product of two odd mantissas below 2^5, rounded at p (ties,
    # sticky bits, carries to 2^p and the trailing zeros they leave), plus
    # every odd mantissa below 2^4 of either sign at exponents -10..10 as the
    # accumulator: rmac(acc, s, t) with s t > 0 and both signs of acc, added
    # and subtracted, meets every sign pattern of the sum
    odd = range(1, 32, 2)
    accs = [from_man_exp(sign * m, off) for off in range(-10, 11)
            for m in range(1, 16, 2) for sign in (1, -1)]
    prods = [(from_man_exp(m, 0), from_man_exp(k, 0)) for m in odd for k in odd if k <= m]
    _check_rmac(((a, s, t) for s, t in prods for a in accs), p)
    # a product that carries to 2^p, cancelled exactly and added to
    s, t = from_man_exp(2 ** p - 1, 0), from_man_exp(2 ** p + 1, 0)
    assert rmac(from_man_exp(-1, 2 * p), s, t, p) == fzero
    assert rmac(from_man_exp(1, 2 * p), s, t, p) == (0, 1, 2 * p + 1, 1)


@pytest.mark.parametrize("p", (53, 113, 145, 1100))
def test_rmac_matches_the_kernels_on_random_operands(p):
    # p-bit, 2p-bit and random-width mantissas, and the trap_values pool
    rng = random.Random(p + 5)

    def draw():
        width = rng.choice((p, 2 * p, rng.randint(1, 3 * p)))
        man = rng.getrandbits(width) | 1 | (1 << (width - 1))
        return from_man_exp(rng.choice((1, -1)) * man, rng.randint(-60, 60) - width)

    _check_rmac(((draw(), draw(), draw()) for _ in range(1500)), p)
    with mp.workprec(p):
        pool = [v._mpf_ for v in trap_values(rng, p)]
    _check_rmac(((a, s, t) for a in pool for s in pool for t in pool), p)


def test_rmac_matches_the_kernels_on_zeros_and_specials():
    values = [fzero, finf, fninf, fnan, fone, from_man_exp(-3, -7), from_man_exp(2 ** 60 + 1, 4)]
    for p in (1, 53, 113):
        _check_rmac(((a, s, t) for a in values for s in values for t in values), p)


@pytest.mark.parametrize("gap", (99, 100, 101, 300))
def test_rmac_matches_the_kernels_across_exponent_gaps(gap):
    # accumulators gap bits above and below the product's stripped exponent,
    # short, p-bit and longer than the gap, for a product that fits, one
    # that rounds, and one that rounds to a power of two: its rounded
    # mantissa has p trailing zeros, so its stripped exponent lies p bits
    # above the one rmac adds at, and an accumulator past libmp's limit of
    # 100 bits below the one can lie within it from the other
    rng = random.Random(gap + 1)
    for p in (53, 113, 145):
        def odd(bits):
            return rng.getrandbits(bits) | 1 | (1 << (bits - 1))

        factors = [(from_man_exp(odd(p // 2), 0), from_man_exp(odd(p // 2), 3)),
                   (from_man_exp(odd(p), 0), from_man_exp(-odd(p), -p)),
                   (from_man_exp(2 ** p - 1, 0), from_man_exp(2 ** p + 1, 0))]
        for s, t in factors:
            exp = rmul(s, t, p)[2]
            accs = [from_man_exp(m, exp + off) for off in (gap, -gap, gap - 7, -gap - 7)
                    for m in (1, -3, odd(p), -odd(gap + p))]
            # wider than p, its bits below the top p 0111..1: a product that
            # reaches above its last bit carries into the half bit, which
            # libmp's perturbation past 100 bits leaves out
            accs.append(from_man_exp((odd(p) << 21) + (1 << 20) - 1, exp + gap))
            _check_rmac([(a, s, t) for a in accs] + [(a, t, s) for a in accs], p)


def _reference_raw_max(vals, prec=None):
    """The libmp loop that `raw_max` shortcuts: mpf_gt on every pair."""
    it = iter(vals) if prec is None else (mpf_abs(v, prec, round_nearest) for v in vals)
    best = next(it)
    for v in it:
        if mpf_gt(v, best):
            best = v
    return best


def _reference_rdot(xs, ys, p, add=mpf_add, mul=mpf_mul):
    """The loop that rdot replaces: every sum of products from fzero, by
    libmp's round-to-nearest operations or by the kernels."""
    acc = fzero
    for x, y in zip(xs, ys):
        acc = add(acc, mul(x, y, p, round_nearest), p, round_nearest)
    return acc


@pytest.mark.parametrize("p", (53, 113, 1100))
def test_rdot_is_the_sum_from_zero(p):
    # no products, one, zero products first, last and throughout, and
    # random draws from trap_values, whose wide values need rounding at p
    rng = random.Random(p + 11)
    with mp.workprec(p):
        pool = [v._mpf_ for v in trap_values(rng, p)]
    wide = pool[4:]
    cases = [([], []), ([wide[0]], [wide[1]]), ([fzero], [wide[0]]),
             ([fzero, wide[0], wide[1]], [wide[2], wide[3], fone]),
             ([wide[0], wide[1], fzero], [wide[2], wide[3], wide[0]]),
             ([fzero, fzero], [wide[0], wide[1]])]
    for k in range(1, 9):
        cases += [(rng.choices(pool, k=k), rng.choices(pool, k=k)) for _ in range(20)]

    def kernel_add(s, t, p, _rnd):
        return radd(s, t, p)

    def kernel_mul(s, t, p, _rnd):
        return rmul(s, t, p)

    for xs, ys in cases:
        want = _reference_rdot(xs, ys, p)
        assert rdot(xs, ys, p) == want, (xs, ys)
        assert rdot(iter(xs), iter(ys), p) == want
        assert _reference_rdot(xs, ys, p, kernel_add, kernel_mul) == want


def test_raw_max_matches_the_libmp_loop():
    rng = random.Random(3)
    p = 53
    x = from_man_exp(rng.getrandbits(p) | 1, -20)
    wide = [from_man_exp(rng.getrandbits(2 * p) | 1 | (1 << (2 * p - 1)), -p - k) for k in range(3)]
    # (m << p) + d, of 2p bits, rounds to the p-bit m at p for every odd |d|
    # below 2^(p-1): ties that only the rounding makes, among themselves and
    # with m; carry rounds up to 2^p and ties with the one-bit 1
    m = rng.getrandbits(p) | 1 | (1 << (p - 1))
    ties = [from_man_exp((m << p) + d, -2 * p) for d in (1, -1, 3, (1 << (p - 1)) - 1)]
    carry = from_man_exp(((2 ** p - 1) << p) + (1 << (p - 1)) + 1, -2 * p)
    assert {mpf_abs(v, p, round_nearest) for v in ties} == {from_man_exp(m, -p)}
    assert mpf_abs(carry, p, round_nearest) == fone
    pool = [fzero, finf, fninf, fnan, fone, x, mpf_neg(x), from_man_exp(1, p - 20), *wide,
            *(mpf_neg(w) for w in wide), from_man_exp(rng.getrandbits(p) | 1, -20),
            *ties, mpf_neg(ties[1]), from_man_exp(m, -p), carry, mpf_neg(carry)]
    # lists led by nothing in particular, by a zero and by each special
    for lead in ((), (fzero,), (finf,), (fninf,), (fnan,)):
        for _ in range(400):
            vals = [*lead, *(rng.choice(pool) for _ in range(rng.randint(1, 6)))]
            for prec in (None, p, 2 * p):
                assert raw_max(vals, prec) == _reference_raw_max(vals, prec), (vals, prec)
    # equal values: the first one is returned, as max() returns it
    a, b = (0, 3, -1, 2), (0, 3, -1, 2)
    assert raw_max([fone, a, b]) is a
    assert raw_max([from_man_exp(-3, -1), a]) is a
    # equal magnitudes of opposite sign: with prec both give the same |v|
    assert raw_max([mpf_neg(x), x], p) == x == raw_max([x, mpf_neg(x)], p)
    assert raw_max([mpf_neg(x), x]) is x
    # a value wider than prec is rounded before it is compared
    assert raw_max([wide[0], fzero], p) == mpf_abs(wide[0], p, round_nearest)
    assert raw_max([mpf_neg(carry), fone], p) == fone == raw_max([fone, carry], p)
    # inf after finite values wins, nan does not
    assert raw_max([*ties, fninf, fnan], p) == finf
    assert raw_max([fzero, *ties, fnan], p) == from_man_exp(m, -p)


@pytest.mark.parametrize("bits", (53, 113, 145, 1100))
def test_cos_int_is_mpmath_cos_at_the_working_precision(bits):
    with mp.workprec(bits):
        for j in range(-400, 401):
            assert cos_int(j)._mpf_ == cos(j)._mpf_, (bits, j)


def test_cos_int_keys_its_cache_on_the_working_precision():
    with mp.workprec(113):
        at_113 = cos_int(29)
    with mp.workprec(145):
        at_145 = cos_int(-29)
        assert at_145._mpf_ == cos(29)._mpf_ != at_113._mpf_
    with mp.workprec(113):
        assert cos_int(-29) is at_113


@pytest.mark.parametrize("bits", (113, 160))
def test_products_and_sums_match_the_reference_loops_bit_for_bit(bits):
    # non-dyadic coefficients of mixed magnitude, so that every rounding shows
    rng = random.Random(bits)
    with mp.workprec(bits):
        def draw():
            return ZPoly([mpf(rng.uniform(-3, 3)) / 7 * mpf(10) ** rng.randint(-9, 9)
                          for _ in range(rng.randint(1, 8))])

        for _ in range(60):
            p, q = draw(), draw()
            prod = poly_mul(p, q)
            assert _raw(prod) == _raw(_reference_poly_mul(p, q))
            assert all(type(c) is mpf for c in prod.coeffs)
            assert _raw(p - q) == _raw(p + (-q))
            assert _raw(q - p) == _raw(q + (-p))


def test_values_stay_mpf_and_scalar_operands_are_coerced():
    p = ZPoly([mpf(1) / 3, 2])
    for r in (p * 2, 2 * p, p.scale(0.5), p.scale(3) + p, p - p.scale(7), -p,
              poly_mul(p, p)):
        assert all(type(c) is mpf for c in r.coeffs)
    for bad in (float("inf"), float("nan")):
        with pytest.raises(NonFiniteError):
            p.scale(bad)


def test_public_constructors_reject_non_finite():
    for bad in (float("inf"), float("nan"), mpf("inf"), mpf("-inf"), mpf("nan"), "inf"):
        with pytest.raises(NonFiniteError):
            ZPoly([1, bad])


def test_curve_eval_is_the_horner_of_fpoly():
    with mp.workprec(160):
        curve = HyperellipticCurve(2, [mpf(k) / 7 - mpf("0.3") for k in range(5)])
        for z in (mpf(-2) / 3, mpf("0.1"), mpf(13) / 11):
            assert curve.eval(z)._mpf_ == curve.fpoly().eval(z)._mpf_


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


@pytest.mark.parametrize("bits", [53, 160])
def test_to_json_writes_mpf_as_mpf_to_str(bits):
    with mp.workprec(bits):
        third, big = mpf(1) / 3, mpf(2) ** 300 / 7
        doc = {"z": (third, [big, None]), "a": {"n": 3, "x": -third, "ok": True}}
        plain = {"z": [mpf_to_str(third), [mpf_to_str(big), None]],
                 "a": {"n": 3, "x": mpf_to_str(-third), "ok": True}}
        assert to_json(doc) == json.dumps(plain, sort_keys=True)
        assert to_json(doc, indent=1) == json.dumps(plain, sort_keys=True, indent=1)
        # enough digits to read back exactly at the precision of the call
        assert scalar(json.loads(to_json(third))) == third


def test_to_json_rejects_other_objects():
    with pytest.raises(TypeError, match="ZPoly"):
        to_json({"p": ZPoly([1, 2])})
