import json
import random
from fractions import Fraction

import pytest
from mpmath import cos, mp, mpf
from mpmath.libmp import (
    finf, fnan, fninf, fone, from_man_exp, from_rational, fzero, mpf_abs, mpf_add, mpf_gt,
    mpf_mul, mpf_neg, mpf_pos, mpf_sub, round_nearest,
)

from oracles import (
    _fpmul, _fpsum, _fraction_poly, fraction_of, poly_div_exact, raws, rounded_fraction,
    trap_values,
)

from commdiff.errors import DegenerateDenominatorError, NonFiniteError
from commdiff.numcore import (
    HyperellipticCurve,
    ZPoly,
    cos_int,
    exceeds,
    get_precision,
    maxpy,
    mdot,
    mpf_to_str,
    poly_mul,
    pow_int,
    raw_ints,
    raw_max,
    raw_split,
    rratio,
    rround,
    scalar,
    set_precision,
    to_json,
    worst_ratio,
    zsum,
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
    assert ZPoly().eval(17) == 0
    f1 = HyperellipticCurve(1, (0, 0, 0)).fpoly()  # monic cubic
    assert f1.eval(3) == 27


def test_poly_mul_basics():
    assert poly_mul([1, 1], [-1, 1]) == [-1, 0, 1]  # (z + 1)(z - 1)
    assert poly_mul([0, 2], [0, 0, -3]) == [0, 0, 0, -6]
    assert poly_mul([1, 1], []) == poly_mul([], [3]) == poly_mul([], []) == []


def _horner(p, z):
    acc = 0
    for c in reversed(p):
        acc = acc * z + c
    return acc


def test_poly_mul_pointwise_oracle():
    # the product's value is the product of the values, exactly, at integer
    # and rational points, on ints of both signs, zeros and 3000-bit widths
    rng = random.Random(17)
    points = [Fraction(-3), Fraction(-17, 10), Fraction(0), Fraction(9, 20), Fraction(29, 10)]
    for width in (1, 64, 3000):
        def draw():
            return [rng.choice((1, -1, 0)) * rng.getrandbits(width)
                    for _ in range(rng.randint(1, 6))]

        for _ in range(10):
            a, b = draw(), draw()
            prod = poly_mul(a, b)
            assert len(prod) == len(a) + len(b) - 1
            for z in points:
                assert _horner(prod, z) == _horner(a, z) * _horner(b, z)


def _reference_sup_norm(p):
    return max((abs(c) for c in p.coeffs), default=mpf(0))


@pytest.mark.parametrize("bits", (53, 113, 160, 1100))
def test_poly_kernels_match_the_mpf_loops_bit_for_bit(bits):
    rng = random.Random(bits + 7)
    pool = trap_values(rng, bits)
    assert all(v._mpf_[3] > bits for v in pool[4:])
    with mp.workprec(bits):
        for _ in range(60):
            p = ZPoly([rng.choice(pool) if rng.random() < 0.6 else mpf(rng.uniform(-3, 3)) / 7
                       for _ in range(rng.randint(1, 7))])
            assert p.sup_norm()._mpf_ == _reference_sup_norm(p)._mpf_
        # the first largest of the |v| rounded at prec, as max() picks it
        assert raw_max(raws(pool), bits) == max(abs(v) for v in pool)._mpf_


@pytest.mark.parametrize("bits", (53, 113, 160, 1100))
def test_raw_vector_helpers_match_the_mpf_loops_bit_for_bit(bits):
    # trap values (exact 0 and +-1, values wider than bits), empty vectors,
    # and pairs whose top coefficients cancel to an exact 0: the product,
    # sum and difference of two raw vectors, read exactly (raw_ints), formed
    # by poly_mul and zsum and each coefficient rounded once (rround), equal
    # the mpf loops run wide enough to be exact, each coefficient then
    # rounded once at bits, trimmed as ZPoly trims
    rng = random.Random(bits + 13)
    pool = trap_values(rng, bits)
    with mp.workprec(bits):
        def draw():
            return [rng.choice(pool) for _ in range(rng.randint(0, 6))]

        pairs = [(draw(), draw()) for _ in range(80)]
        for a, _b in pairs[:20]:
            tail = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
            pairs += [(a + tail, a + tail), (a + tail, a + [-v for v in tail]), (a, [])]

    def rounded(vals):
        # unary plus rounds at the working precision
        return ZPoly([+v for v in vals]).raw

    for a, b in pairs:
        (x, y), e = raw_ints([ZPoly(a).raw, ZPoly(b).raw])
        p, q = ZPoly(a).coeffs, ZPoly(b).coeffs
        with mp.workprec(10 * bits + 400):
            prod = [mpf(0)] * (len(p) + len(q) - 1) if p and q else []
            for i, u in enumerate(p):
                for j, v in enumerate(q):
                    prod[i + j] += u * v
            pad = max(len(p), len(q))
            p, q = [*p, *[mpf(0)] * (pad - len(p))], [*q, *[mpf(0)] * (pad - len(q))]
            sums = [[u + v for u, v in zip(p, q)], [u - v for u, v in zip(p, q)]]
        with mp.workprec(bits):
            assert ZPoly._from_raw([rround(v, 2 * e, bits) for v in poly_mul(x, y)]).raw == \
                rounded(prod)
            for sign, want in zip((1, -1), sums):
                got, f = zsum([(1, x, e), (sign, y, e)])
                assert ZPoly._from_raw([rround(v, f, bits) for v in got]).raw == rounded(want)


# ---------------------------------------------------------------------------
# the round-to-nearest kernels against libmp, the oracle they reimplement
# ---------------------------------------------------------------------------

def _unnormalized(vals, shift):
    """The column (mans, exps) of the raw vals, each mantissa shifted up by
    shift bits and its exponent down: the same values, with trailing zeros
    (a power of two shifted by p is the carry 2^p), a zero's exponent
    stale."""
    mans, exps = raw_split(vals)
    return [m << shift for m in mans], [e - shift for e in exps]


def _check_columns(pairs, p):
    # the column kernels on the pairs whose operands are zeros or finite
    # values of at most p bits, their entries normalized or not: s + t,
    # s - t and s t, and s + s t and s - s t with the product rounded first,
    # against libmp's round-to-nearest mul, add and sub
    pairs = [(s, t) for s, t in pairs if all(v[3] <= p and (v[1] or not v[2]) for v in (s, t))]
    if not pairs:
        return
    rnd = round_nearest
    want = [[mpf_add(s, t, p, rnd) for s, t in pairs], [mpf_sub(s, t, p, rnd) for s, t in pairs],
            [mpf_mul(s, t, p, rnd) for s, t in pairs],
            [mpf_add(s, mpf_mul(s, t, p, rnd), p, rnd) for s, t in pairs],
            [mpf_sub(s, mpf_mul(s, t, p, rnd), p, rnd) for s, t in pairs]]
    xs, ys = zip(*pairs)
    for shift in (0, p):
        (sm, se), (tm, te) = _unnormalized(xs, shift), _unnormalized(ys, shift + 3)
        cols = list(zip(xs, sm, se, tm, te))
        got = [[rround(m, e, p) for m, e in zip(*maxpy(fone, sm, se, tm, te, p))],
               [rround(m, e, p) for m, e in zip(*maxpy(mpf_neg(fone), tm, te, sm, se, p))],
               [mdot([a], [ae], [b], [be], p) for _s, a, ae, b, be in cols],
               [mdot([a, a], [ae, ae], [b, 1], [be, 0], p) for _s, a, ae, b, be in cols],
               [rround(*(v[0] for v in maxpy(mpf_neg(s), [b], [be], [a], [ae], p)), p)
                for s, a, ae, b, be in cols]]
        for name, g, w in zip(("sum", "difference", "product", "dot", "update"), got, want):
            bad = [(s, t, x, y) for (s, t), x, y in zip(pairs, g, w) if x != y]
            assert not bad, (name, p, shift, bad[:3])


@pytest.mark.parametrize("p", range(1, 7))
def test_kernels_match_libmp_on_every_short_mantissa(p):
    # every odd mantissa below 2^7 of either sign against every one at an
    # exponent offset of -10..10, the operands of at most p bits in the
    # column kernels: ties, sticky bits, carries to 2^p and exact
    # cancellations all occur at these precisions.  A product's rounding does
    # not depend on the exponents, so all pairs run at offset 0; the others
    # run with the first operand at exponent 0, of either sign.
    odd = range(1, 128, 2)
    for off in range(-10, 11):
        t = [from_man_exp(sign * m, off) for m in odd for sign in (1, -1)]
        for sign in (1, -1):
            _check_columns(((from_man_exp(sign * m, 0), y) for m in odd for y in t), p)
        if off == 0:
            _check_columns(((x, y) for x in t for y in t), p)
    # by name: a carry to 2^p in a product (of p >= 3 bits), in a sum of
    # products, in an update, and an exact cancellation
    top = 2 ** p - 1
    if p >= 3:
        assert mdot([2 ** (p - 1) + 1], [0], [2 ** (p - 1) - 1], [0], p) == (0, 1, 2 * p - 2, 1)
    assert mdot([top, top], [0, 0], [1, 1], [p, 0], p) == (0, 1, 2 * p, 1)
    assert rround(*(c[0] for c in maxpy(fone, [1], [-1], [top], [0], p)), p) == (0, 1, p, 1)
    assert rround(*(c[0] for c in maxpy(mpf_neg(fone), [top], [3], [top], [3], p)), p) == fzero


@pytest.mark.parametrize("p", (53, 113, 145, 1100))
def test_kernels_match_libmp_on_random_operands(p):
    # p-bit mantissas, mantissas of twice p (as trap_values builds them) and
    # others of random width, at exponent gaps within libmp's exact reach
    rng = random.Random(p)

    def draw():
        width = rng.choice((p, 2 * p, rng.randint(1, 3 * p)))
        man = rng.getrandbits(width) | 1 | (1 << (width - 1))
        return from_man_exp(rng.choice((1, -1)) * man, rng.randint(-60, 60) - width)

    _check_columns(((draw(), draw()) for _ in range(1500)), p)
    with mp.workprec(p):
        pool = raws(trap_values(rng, p))
    _check_columns(((s, t) for s in pool for t in pool), p)


def test_kernels_match_libmp_on_zeros_and_specials():
    # every pair, so a zero meets partners of at most p bits, which the
    # column kernels take, and wider ones and specials, which they never see
    rng = random.Random(17)
    for p in (1, 53, 113, 1100):
        values = [fzero, finf, fninf, fnan, fone, from_man_exp(-3, -7), from_man_exp(2 ** 60 + 1, 4)]
        for width in (p // 2 or 1, p, p + 1, 2 * p):
            man = rng.getrandbits(width) | 1 | (1 << (width - 1))
            values += [from_man_exp(man, -width), from_man_exp(-man, rng.randint(-90, 90))]
        _check_columns(((s, t) for s in values for t in values), p)


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
                _check_columns([(a, b), (mpf_neg(a), b), (a, mpf_neg(b))], p)


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
    _check_columns(pairs, p)
    # 0 + 0, by name
    assert mdot([0], [0], [0], [0], p) == fzero
    assert rround(*(c[0] for c in maxpy(fone, [0], [0], [0], [0], p)), p) == fzero


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


def _reference_raw_max(vals, prec):
    """The libmp loop that `raw_max` runs: mpf_abs of every value at prec,
    then the first strict mpf_gt."""
    it = (mpf_abs(v, prec, round_nearest) for v in vals)
    best = next(it)
    for v in it:
        if mpf_gt(v, best):
            best = v
    return best


def _reference_dot(xs, ys, p):
    """The loop that mdot replaces: every sum of products from fzero, by
    libmp's round-to-nearest operations."""
    acc = fzero
    for x, y in zip(xs, ys):
        acc = mpf_add(acc, mpf_mul(x, y, p, round_nearest), p, round_nearest)
    return acc


@pytest.mark.parametrize("p", (53, 113, 1100))
def test_mdot_is_the_sum_from_zero(p):
    # no products, one, zero products first, last and throughout, and
    # random draws from trap_values, each rounded to p bits (the kernels'
    # operands have at most p); every sum of products of a length, summed
    # one column at a time by maxpy from zero columns (the pin fit's z^g
    # row), is the same sum
    rng = random.Random(p + 11)
    with mp.workprec(p):
        pool = [mpf_pos(v, p, round_nearest) for v in raws(trap_values(rng, p))]
    wide = pool[4:]
    cases = [([], []), ([wide[0]], [wide[1]]), ([fzero], [wide[0]]),
             ([fzero, wide[0], wide[1]], [wide[2], wide[3], fone]),
             ([wide[0], wide[1], fzero], [wide[2], wide[3], wide[0]]),
             ([fzero, fzero], [wide[0], wide[1]])]
    for k in range(1, 9):
        xs = rng.choices(pool, k=k)
        rows = [rng.choices(pool, k=k) for _ in range(20)]
        cases += [(xs, ys) for ys in rows]
        acc = [0] * len(rows), [0] * len(rows)
        for a, col in zip(xs, zip(*rows)):
            acc = maxpy(a, *raw_split(col), *acc, p)
        assert [rround(m, e, p) for m, e in zip(*acc)] == \
            [_reference_dot(xs, ys, p) for ys in rows], (k, xs)

    for xs, ys in cases:
        want = _reference_dot(xs, ys, p)
        assert mdot(*raw_split(xs), *raw_split(ys), p) == want, (xs, ys)
        assert mdot(*map(iter, raw_split(xs) + raw_split(ys)), p) == want


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
            for prec in (p, 2 * p):
                assert raw_max(vals, prec) == _reference_raw_max(vals, prec), (vals, prec)
    # equal values: the first one is returned, as max() returns it
    a, b = (0, 3, -1, 2), (0, 3, -1, 2)
    assert raw_max([fone, a, b], p) is a
    # equal magnitudes of opposite sign give the same |v|
    assert raw_max([mpf_neg(x), x], p) == x == raw_max([x, mpf_neg(x)], p)
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


@pytest.mark.parametrize("bits", (53, 113, 160, 1100))
def test_products_and_sums_match_the_reference_loops_bit_for_bit(bits):
    # non-dyadic coefficients of mixed magnitude; trap values (exact 0 and
    # +-1, values wider than bits), empty vectors and pairs whose top
    # coefficients cancel to an exact 0: read exactly (raw_ints), poly_mul
    # and zsum give the Fraction convolution and sums of the stored values,
    # and each coefficient rounded once (rround), trimmed as ZPoly trims, is
    # that Fraction rounded once at bits
    rng = random.Random(bits)
    pool = trap_values(rng, bits)
    with mp.workprec(bits):
        def mixed():
            return [mpf(rng.uniform(-3, 3)) / 7 * mpf(10) ** rng.randint(-9, 9)
                    for _ in range(rng.randint(1, 8))]

        def trap():
            return [rng.choice(pool) for _ in range(rng.randint(0, 6))]

        pairs = [(mixed(), mixed()) for _ in range(60)] + [(trap(), trap()) for _ in range(80)]
        for a, _b in pairs[60:80]:
            tail = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
            pairs += [(a + tail, a + tail), (a + tail, a + [-v for v in tail]), (a, [])]

        def rounded(fracs):
            return ZPoly(map(rounded_fraction, fracs)).raw

        for a, b in pairs:
            p, q = ZPoly(a), ZPoly(b)
            (x, y), e = raw_ints([p.raw, q.raw])
            fp, fq = _fraction_poly(p), _fraction_poly(q)
            prod, want = poly_mul(x, y), _fpmul(fp, fq)
            assert [v * Fraction(2) ** (2 * e) for v in prod] == want
            assert ZPoly._from_raw([rround(v, 2 * e, bits) for v in prod]).raw == rounded(want)
            for sign in (1, -1):
                got, f = zsum([(1, x, e), (sign, y, e)])
                want = _fpsum(fp, [sign * v for v in fq])
                assert [v * Fraction(2) ** f for v in got] == want
                assert ZPoly._from_raw([rround(v, f, bits) for v in got]).raw == rounded(want)


def test_values_stay_mpf_and_scalar_operands_are_coerced():
    # ints, floats, strings and mpfs enter ZPoly and HyperellipticCurve as mpf
    p = ZPoly([1, 0.5, "0.25", mpf(1) / 3])
    assert p.coeffs[:3] == (mpf(1), mpf(0.5), mpf("0.25"))
    for v in (*p.coeffs, p.lead, p.coeff(0), p.coeff(9), p.sup_norm(), p.eval(2)):
        assert type(v) is mpf
    curve = HyperellipticCurve(1, (1, 0.5, "2"))
    assert all(type(c) is mpf for c in curve.c) and type(curve.fpoly().eval(1)) is mpf
    for bad in (float("inf"), float("nan")):
        with pytest.raises(NonFiniteError):
            HyperellipticCurve(1, (0, 0, bad))


def test_public_constructors_reject_non_finite():
    for bad in (float("inf"), float("nan"), mpf("inf"), mpf("-inf"), mpf("nan"), "inf"):
        with pytest.raises(NonFiniteError):
            ZPoly([1, bad])


def test_poly_degree_law():
    rng = random.Random(7)
    for _ in range(20):
        p = [rng.randint(-9, 9) for _ in range(rng.randint(1, 5))] + [rng.choice((1, -3))]
        q = [rng.randint(-9, 9) for _ in range(rng.randint(1, 5))] + [rng.choice((1, 7))]
        assert len(poly_mul(p, q)) - 1 == (len(p) - 1) + (len(q) - 1)


def test_trailing_exact_zeros_trimmed():
    p = ZPoly([1, 2, 0, 0])
    assert p.degree == 1
    assert ZPoly([0, 0]).raw == [] and ZPoly([0, 0]).degree == -1


def _fractions(*vals):
    return [Fraction(v) for v in vals]


def test_poly_div_exact_basics():
    q, r = poly_div_exact(_fractions(-1, 0, 1), _fractions(-1, 1))  # (z^2-1)/(z-1)
    assert q == [1, 1]
    assert r == 0
    q, r = poly_div_exact(_fractions(0, 0, 1), _fractions(-1, 1))  # z^2/(z-1)
    assert q == [1, 1]
    assert r == 1
    q, r = poly_div_exact(_fractions(3), _fractions(-1, 1))  # a lower degree: q = 0
    assert q == [] and r == 3
    with pytest.raises(DegenerateDenominatorError):
        poly_div_exact(_fractions(1, 1), [])


def test_poly_div_exact_geometric_fixture():
    # genus-1 geometric fixture at n=0 (a=2, beta=1): curve w^2 = z^3,
    # S_0 = -z + 4/27, U_0 = 1, W_0 = -5/9, Q_0 = z - 1/9; the quotient is
    # Q_1 = z - 4/9, exactly
    f = _fractions(0, 0, 0, 1)
    s0 = [Fraction(4, 27), Fraction(-1)]
    u0, w0 = Fraction(1), Fraction(-5, 9)
    q0 = [Fraction(-1, 9), Fraction(1)]
    num = _fpsum(f, [-v for v in _fpmul(s0, s0)])
    den = _fpmul([-(u0**2) - w0, Fraction(1)], q0)
    q1, resid = poly_div_exact(num, den)
    assert resid == 0
    assert q1 == [Fraction(-4, 9), 1]


def test_div_mul_roundtrip_residual_zero():
    rng = random.Random(3)
    for _ in range(10):
        den = [Fraction(rng.uniform(-2, 2)) for _ in range(3)] + [Fraction(1)]
        quo = [Fraction(rng.uniform(-2, 2)) for _ in range(4)] + [Fraction(1)]
        q, r = poly_div_exact(_fpmul(quo, den), den)
        assert r == 0 and q == quo


def test_ring_axioms_property():
    # associativity and distributivity of poly_mul, exactly
    rng = random.Random(5)
    for _ in range(12):
        def rnd():
            return [rng.choice((1, -1)) * rng.getrandbits(rng.choice((3, 120)))
                    for _ in range(rng.randint(1, 4))]

        a, b, c = rnd(), rnd(), rnd()
        assert poly_mul(poly_mul(a, b), c) == poly_mul(a, poly_mul(b, c))
        b_plus_c = zsum([(1, b, 0), (1, c, 0)])[0]
        assert poly_mul(a, b_plus_c) == zsum([(1, poly_mul(a, b), 0), (1, poly_mul(a, c), 0)])[0]


def test_curve_validation():
    with pytest.raises(ValueError):
        HyperellipticCurve(0, ())
    with pytest.raises(ValueError):
        HyperellipticCurve(1, (1, 2))
    with pytest.raises(ValueError, match="not monic"):
        HyperellipticCurve.from_exact(([0, 0, 0, 2], 0), 1, mpf("1e-9"))  # lead 2
    with pytest.raises(ValueError, match="expected degree 3, got 2"):
        HyperellipticCurve.from_exact(([0, 0, 1, 0], 0), 1, mpf("1e-9"))
    c = HyperellipticCurve.from_exact(([4, 0, 0, 1, 0, 0], 0), 1, mpf("1e-9"))
    assert c.fpoly().eval(2) == 12
    # z^3 + z / 2 on 2^-1 is the ints [0, 1, 0, 2]; on 2^3 the lead is 8
    assert HyperellipticCurve.from_exact(([0, 1, 0, 2], -1), 1, mpf("1e-9")).c == (0, 0.5, 0)
    with pytest.raises(ValueError, match="lead=8"):
        HyperellipticCurve.from_exact(([3, 0, 0, 1], 3), 1, mpf("1e-9"))


@pytest.mark.parametrize("bits", (53, 113, 160, 1100))
def test_from_exact_rounds_each_coefficient_once(bits):
    # each c_k is the Fraction f_k / lead rounded once, for ints up to 3100
    # bits wide, on exponents down to -3000; the lead is judged exactly, on
    # either side of 1, against tol times the larger of 1 and the largest
    # |coefficient|
    rng = random.Random(bits + 41)
    tol = mpf("1e-6")
    t = fraction_of(tol)
    with mp.workprec(bits):
        for exp in (-3000, -bits, -20, -1):
            one = 1 << -exp
            for _ in range(20):
                f = [rng.choice((1, -1, 0)) * rng.getrandbits(rng.randint(1, 3100))
                     for _ in range(5)]
                f.append(one + rng.randint(-(one >> 30), one >> 30))
                curve = HyperellipticCurve.from_exact((f, exp), 2, tol)
                assert raws(curve.c) == [
                    from_rational(v, f[-1], bits, round_nearest) for v in f[:5]]
            # the largest lead above 1 and the least below it that pass
            above, below = int(t * one / (1 - t)), int(t * one)
            for lead, ok in ((one + above, True), (one + above + 1, False),
                             (one - below, True), (one - below - 1, False)):
                if ok:
                    HyperellipticCurve.from_exact(([0] * 5 + [lead], exp), 2, tol)
                else:
                    with pytest.raises(ValueError, match="not monic"):
                        HyperellipticCurve.from_exact(([0] * 5 + [lead], exp), 2, tol)
            # a coefficient larger than 1 widens the lead's bound with it
            wide = [0, 0, 0, 0, 1000 * one]
            HyperellipticCurve.from_exact((wide + [one + 500 * below], exp), 2, tol)


@pytest.mark.parametrize("bits", (3, 53, 113))
def test_worst_ratio_is_the_largest_ratio_rounded_once(bits):
    # the exact largest num / den rounded by from_rational, which is also
    # the largest of the ratios each rounded at p: ratios that round alike
    # but differ exactly, equal ratios on different ints, zero numerators
    rng = random.Random(bits + 7)
    for _ in range(40):
        ratios = [(rng.getrandbits(rng.randint(0, 3 * bits)), rng.getrandbits(2 * bits) | 1)
                  for _ in range(rng.randint(1, 9))]
        n, d = ratios[0]
        ratios += [(n << 1 | 1, d << 1), (3 * n, 3 * d), (0, d)]
        rng.shuffle(ratios)
        top = max(Fraction(n, d) for n, d in ratios)
        want = from_rational(top.numerator, top.denominator, bits, round_nearest)
        assert worst_ratio(ratios, bits) == want
        assert want == max((from_rational(n, d, bits, round_nearest) for n, d in ratios),
                           key=mp.make_mpf)
    assert worst_ratio([], bits) == worst_ratio([(0, 5)], bits) == fzero


@pytest.mark.parametrize("bits", (3, 53, 113))
def test_worst_ratio_matches_the_fraction_maximum_on_adversarial_lists(bits):
    # worst_ratio orders two ratios by their bit lengths only when those lie
    # two or more bits apart: lists of ratios with equal bit lengths, of
    # ratios whose larger bit length holds the smaller value (one bit apart),
    # of ratios one unit apart in the last place, zero numerators and equal
    # ratios on different terms, in every order, give the Fraction maximum
    rng = random.Random(bits + 13)
    for _ in range(60):
        w, k = rng.randint(2, 3 * bits), rng.randint(0, bits)
        d = rng.getrandbits(w - 1) | 1 << (w - 1)
        n = rng.getrandbits(w + k - 1) | 1 << (w + k - 1)
        # 2^(w+k) / (2^w - 1) has one bit more than (2^(w+k) - 1) / 2^(w-1)
        # and about half its value
        flipped = [((1 << (w + k)), (1 << w) - 1), ((1 << (w + k)) - 1, 1 << (w - 1))]
        same_bits = [(n ^ rng.getrandbits(w + k - 2), d) for _ in range(3)]
        ulp = [(n, d), (n + 1, d), (n * d + 1, d * d), (n * d - 1, d * d)]
        equal = [(3 * n, 3 * d), (n << 5, d << 5), (n, d)]
        for ratios in (flipped, same_bits, ulp, equal, flipped + ulp + equal + [(0, d), (0, 1)]):
            for order in (ratios, ratios[::-1], rng.sample(ratios, len(ratios))):
                top = max(Fraction(a, b) for a, b in order)
                want = from_rational(top.numerator, top.denominator, bits, round_nearest)
                assert worst_ratio(order, bits) == want, order
        assert Fraction(*flipped[0]) < Fraction(*flipped[1])
        assert flipped[0][0].bit_length() - flipped[0][1].bit_length() == k + 1
        assert flipped[1][0].bit_length() - flipped[1][1].bit_length() == k
    assert worst_ratio([(0, 3), (0, 1 << 90)], bits) == fzero


def test_exceeds_is_the_exact_comparison():
    for tol in (mpf("1e-6"), mpf(3), mpf(2) ** -200, mpf(1) / 3):
        t = fraction_of(tol)
        for den in (1, 7, 2 ** 90 + 1):
            edge = t * den
            for num in {int(edge) - 1, int(edge), int(edge) + 1, 0}:
                if num >= 0:
                    assert exceeds(num, den, tol) == (num > edge), (tol, num, den)


@pytest.mark.parametrize("bits", (*range(1, 7), 53, 113, 160, 1100))
def test_rratio_is_from_rational_bit_for_bit(bits):
    # every pair of ints below 2^7 of both signs, zero numerators among
    # them, and of powers of two up to 2^40 and three times them: exact and
    # inexact quotients, ties that only an exact quotient makes, sticky
    # bits, carries to 2^p and |den| = 1, which the small precisions meet
    short = [*range(-127, 128),
             *(s * m << k for k in range(7, 41) for m in (1, 3) for s in (1, -1))]
    bad = [(n, d) for n in short for d in short
           if d and rratio(n, d, bits) != from_rational(n, d, bits, round_nearest)]
    assert not bad, (bits, bad[:3])
    # numerators and denominators of both signs, zero numerators, |den| = 1,
    # powers of two (even, unnormalized mantissas), ties, exact quotients
    # and ints up to 3000 bits wide
    rng = random.Random(bits + 53)
    nums, dens = [0, 1, -1, 2, -6, 3 << 200], [1, -1, 2, -4, 3, 2 ** 64, -(2 ** 3000)]
    for width in (1, 2, max(bits - 1, 1), bits, bits + 1, 2 * bits, 3000):
        for _ in range(12):
            v = rng.getrandbits(width) | (1 << (width - 1))
            v <<= rng.choice((0, 0, 1, 37))
            nums.append(rng.choice((1, -1)) * v)
            dens.append(rng.choice((1, -1)) * (v | 1 if rng.random() < 0.5 else v))
    # exact quotients and ties: d * q and d * q + d / 2 over d
    for d in dens[2:12]:
        q = rng.getrandbits(bits + 3)
        nums += [d * q, d * q + d // 2, -d * q]
    pairs = [(n, d) for n in nums for d in rng.sample(dens, 8)]
    for n, d in pairs:
        assert rratio(n, d, bits) == from_rational(n, d, bits, round_nearest), (n, d)


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


@pytest.mark.parametrize("bits", (53, 113, 160, 1100))
def test_rround_matches_from_man_exp_bit_for_bit(bits):
    # zero, both signs, mantissas 1 to 3p bits wide, even ones, ties to even
    # (an odd and an even kept part, exactly half below it) and ties with a
    # sticky bit, and the carry to 2^p
    rng = random.Random(bits + 31)
    p = bits
    mans = [0, 1, 2, 3, 2 ** p, 2 ** p - 1, 2 ** (p + 1) - 1]
    for width in range(1, 3 * p + 1, max(1, p // 16)):
        m = rng.getrandbits(width) | (1 << (width - 1))
        mans += [m, m << rng.randint(1, 9)]
    for n in (1, 2, 5, p):
        for kept in (rng.getrandbits(p - 1) | (1 << (p - 1)), (2 ** p) - 1):
            for last in (0, 1):
                tie = ((kept & ~1 | last) << n) | (1 << (n - 1))
                mans += [tie, tie + 1, tie - 1]
    for m in mans:
        for exp in (-2 * p - 3, -p, -1, 0, 7, p + 5):
            for v in (m, -m):
                assert rround(v, exp, p) == from_man_exp(v, exp, p, round_nearest), (v, exp)


def test_raw_ints_are_exact():
    vals = [[fzero, fone, from_man_exp(-3, -7)], [],
            [from_man_exp(5, 4), from_man_exp(2 ** 70 + 1, -90)]]
    ints, exp = raw_ints(vals)
    assert exp == -90
    assert [[v * Fraction(2) ** exp for v in row] for row in ints] == [
        [(-1) ** s * m * Fraction(2) ** e for s, m, e, _ in row] for row in vals]
    # exponents above 0 are read on 0, so 1 is an int
    assert raw_ints([[from_man_exp(3, 4)]]) == ([[48]], 0)
    assert raw_ints([]) == ([], 0)
