"""Numeric substrate: configurable-precision scalars, dense polynomials in the
spectral parameter z, and the JSON encoder that writes every report's
decimals.

Values are raw libmp tuples, the only thing ZPoly stores.  The family tables
compute on them with libmp's round-to-nearest mpf_mul and mpf_add; the pin
fit (linalg.lstsq_mpf and the z^g row of S it gives) redoes those two bit for
bit on ints, as the column kernels mdot (a dot product) and maxpy (y + a x)
on columns of int mantissas and exponents (raw_split), and takes libmp's
quotients, roots and differences.  raw_max, the largest magnitude of float
values at p bits, is libmp's loop: mpf_abs, then the first strict mpf_gt.
cos_int is mpmath's cos at an integer, computed once per argument and
precision for the trig family and basis, and pow_int libmp's integer power,
once per (base, exponent, precision) for the geometric family and basis.
mpmath floats appear where a value enters (scalar, ZPoly's constructor) or
leaves (coeffs, lead, sup_norm, reports).
ZPoly stores a polynomial and has no arithmetic.  Polynomials are computed
on exactly, as z-polynomials (ints, exp), an int vector on one exponent
that raw_ints reads from raw values, zsum adds and poly_mul, the one
polynomial product, multiplies; spectral's kernels and action matrices
hold each packed into one int instead, sum_k ints[k] 2^(k w) (pack), read
back as balanced w-bit digits (unpack).  Operator arithmetic (opalg's
composition, sum and commutator, and so the partner), dressing's S-lead
check, pair rule, four-term factors, identity checks, curve recovery and
level recursion (its inputs each formed exactly, then rounded once), and
spectral's curve extraction run on those ints and round each result once:
an int times a power of two by rround, a ratio of ints by rratio, which
divides the ints itself and gives libmp's from_rational bit for bit, the
worst of several ratios by worst_ratio, compared on bit lengths and
cross-multiplied only within one bit, then rounded once; exceeds and, over
a column, first_exceeding compare ratios of ints with a tolerance exactly.
Every function computes at the caller's mpmath precision, mp.prec, which
the caller scopes with mp.workprec; importing the package leaves it alone.
The CLI runs at DEFAULT_PRECISION_BITS, a 113-bit significand (quad-like),
unless --precision says otherwise: the dressing recursion sheds digits at
every step, so the headroom above double precision is what keeps
window-wide residual checks below 1e-9 tolerances.
ZPolys are never mutated once built and every function here is pure.
"""

from __future__ import annotations

import json
from functools import lru_cache

from mpmath import cos, mp, mpf
from mpmath.libmp import finf, fnan, fninf, fzero, mpf_abs, mpf_gt, mpf_pow_int
from mpmath.libmp import round_nearest as RND

from .errors import NonFiniteError

DEFAULT_PRECISION_BITS = 113
MIN_PRECISION_BITS = 53


def check_precision(bits: int) -> int:
    """bits as an int, if it is a valid significand size (>= 53)."""
    bits = int(bits)
    if bits < MIN_PRECISION_BITS:
        raise ValueError(f"precision must be at least {MIN_PRECISION_BITS} bits, got {bits}")
    return bits


def set_precision(bits: int) -> int:
    """Set the working significand size in bits (>= 53). Returns the value set."""
    mp.prec = check_precision(bits)
    return mp.prec


def get_precision() -> int:
    return mp.prec


_NON_FINITE = (finf, fninf, fnan)


def _finite(v: mpf) -> bool:
    """v is no inf or nan: its raw value against libmp's three specials,
    cheaper than mpmath.isfinite."""
    return v._mpf_ not in _NON_FINITE


def scalar(x) -> mpf:
    """Coerce to an mpf at working precision; reject non-finite values."""
    v = mpf(x) if not isinstance(x, mpf) else x
    if not _finite(v):
        raise NonFiniteError(f"non-finite scalar {x!r}")
    return v


def raw_max(vals, prec):
    """max(abs(v) for v in vals) of the raw values vals, as mpf's abs rounds
    at prec: the first largest by mpf_gt, as max() picks it.  A positive
    value of at most prec bits is its own abs, so it is the object returned."""
    best = None
    for v in vals:
        if v[0] or v[3] > prec:
            v = mpf_abs(v, prec, RND)
        if best is None or mpf_gt(v, best):
            best = v
    return best


def cos_int(j: int) -> mpf:
    """cos(j) in radians for an integer j at the working precision, mpmath's
    cos(j), computed once per (|j|, mp.prec) while a bounded cache holds it:
    libmp reduces |j| and gives cos(-j) the same bits."""
    return _cos_at(abs(j), mp.prec)


@lru_cache(maxsize=1024)
def _cos_at(j: int, prec: int) -> mpf:
    # prec, mp.prec at the call, is only the key
    return cos(j)


@lru_cache(maxsize=1024)
def pow_int(a, e: int, p: int):
    """a ** e at p bits for a raw a and an integer e, mpf_pow_int(a, e, p,
    round_nearest), computed once per (a, e, p) while a bounded cache holds
    it: the geometric family and basis meet the same powers at every call."""
    return mpf_pow_int(a, e, p, RND)


# The pin fit's round-to-nearest kernels: libmp's mpf_mul and mpf_add, the
# exact product or sum cut to p bits with ties to even, the bits past the half
# bit sticky.  Past a 100-bit exponent gap libmp adds exactly when the
# magnitudes lie within p + 4 bits, else perturbs the larger operand by one
# unit p + 4 bits below it, which rounds away when that operand fits in p
# bits: on operands of at most p bits the exact result cut once is libmp's,
# zeros and far gaps included.  mdot and maxpy take columns (raw_split) of at
# most p bits; rround normalizes their entries (trailing zeros, a carry to
# 2^p, stale zeros).


def mdot(xs, xe, ys, ye, p):
    """The sum of the products x y of two columns at p bits, each product
    rounded, then each sum, left to right: libmp's loop from fzero, raw."""
    acc = ea = 0
    for a, e, b, f in zip(xs, xe, ys, ye):
        m, e = a * b, e + f
        n = m.bit_length() - p
        if n > 0:
            h = m >> n - 1
            m = (h >> 1) + 1 if h & 1 and (h & 2 or m & (1 << n - 1) - 1) else h >> 1
            e += n
        if e > ea:
            m, e = m << e - ea, ea
        acc, ea = m + (acc << ea - e), e
        n = acc.bit_length() - p
        if n > 0:
            h = acc >> n - 1
            acc = (h >> 1) + 1 if h & 1 and (h & 2 or acc & (1 << n - 1) - 1) else h >> 1
            ea += n
    return rround(acc, ea, p)


def maxpy(a, xs, xe, ys, ye, p):
    """The column y + a x at p bits for a raw a, each product rounded first."""
    (a,), (ae,) = raw_split([a])
    om, oe = [], []
    for b, f, t, et in zip(xs, xe, ys, ye):
        m, e = a * b, ae + f
        n = m.bit_length() - p
        if n > 0:
            h = m >> n - 1
            m = (h >> 1) + 1 if h & 1 and (h & 2 or m & (1 << n - 1) - 1) else h >> 1
            e += n
        if e > et:
            m, e = m << e - et, et
        m += t << et - e
        n = m.bit_length() - p
        if n > 0:
            h = m >> n - 1
            m = (h >> 1) + 1 if h & 1 and (h & 2 or m & (1 << n - 1) - 1) else h >> 1
            e += n
        om.append(m)
        oe.append(e)
    return om, oe


def rround(man: int, exp: int, p):
    """The int man times 2^exp at p bits, as from_man_exp(man, exp, p,
    round_nearest): the cut to p bits with ties to even (a carry to 2^p),
    then the trailing zeros stripped."""
    if not man:
        return fzero
    sign, man = (1, -man) if man < 0 else (0, man)
    n = man.bit_length() - p
    if n > 0:
        h = man >> (n - 1)
        man = (h >> 1) + 1 if h & 1 and (h & 2 or man & ((1 << (n - 1)) - 1)) else h >> 1
        exp += n
    z = (man & -man).bit_length() - 1
    return sign, man >> z, exp + z, (man >> z).bit_length()


def rratio(num: int, den: int, p):
    """num / den at p bits for ints num and den != 0, as from_rational(num,
    den, p, round_nearest): libmp's division of the two ints, the quotient
    of |num| shifted by its extra bits, max(p - bc(num) + bc(den) + 5, 5),
    a nonzero remainder kept as a sticky last bit, then rounded once by
    rround.  num = 0 gives fzero and |den| = 1 an exact quotient, which
    rround strips of the shift."""
    extra = max(p - num.bit_length() + den.bit_length() + 5, 5)
    man, rem = divmod(abs(num) << extra, abs(den))
    if rem:
        man, extra = man << 1 | 1, extra + 1
    return rround(-man if (num < 0) != (den < 0) else man, -extra, p)


def worst_ratio(ratios, p):
    """The largest num / den over the pairs of ints ratios (num >= 0, den >
    0), compared exactly, rounded once at p bits by rratio; fzero for none.
    A ratio lies within a factor of 2 of 2^k, k its numerator's bit length
    less its denominator's: two whose k lie 2 or more apart are ordered by
    k, and only others are cross-multiplied.  Rounding to nearest is
    monotone, so it is also the largest of the ratios each rounded at p."""
    num, den, top = 0, 1, None
    for n, d in ratios:
        k = n.bit_length() - d.bit_length()
        if n and (top is None or k > top + 1 or k >= top - 1 and n * den > num * d):
            num, den, top = n, d, k
    return rratio(num, den, p)


def first_exceeding(ratios, tol, over=True):
    """The index of the first pair of ints (num >= 0, den >= 0) of ratios
    whose num / den > tol exactly, for a positive mpf tol, or with over false
    of the first whose num / den <= tol; None for none.  One column pass."""
    _, man, exp, _ = tol._mpf_
    a, b = max(-exp, 0), max(exp, 0)
    return next((i for i, (num, den) in enumerate(ratios)
                 if (num << a > man * den << b) == over), None)


def exceeds(num: int, den: int, tol) -> bool:
    """num / den > tol exactly, for ints num >= 0 and den > 0 and a positive
    mpf tol: first_exceeding on one pair."""
    return first_exceeding([(num, den)], tol) == 0


def raw_ints(vecs):
    """The raw vectors vecs exactly as (ints, exp), ints[k][i] * 2^exp being
    vecs[k][i]: exp is their least exponent or 0, so that 1 is 1 << -exp."""
    exp = min(0, min((v[2] for vec in vecs for v in vec), default=0))
    return [[-m << (e - exp) if s else m << (e - exp) for s, m, e, _ in vec]
            for vec in vecs], exp


def raw_split(vec):
    """The raw finite values vec as mdot's and maxpy's columns (mans, exps)."""
    return [-m if s else m for s, m, _e, _b in vec], [e for _s, _m, e, _b in vec]


def poly_mul(a, b):
    """The product of two int coefficient vectors, exactly; [] when either is
    empty.  The package's one polynomial product."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b, i):
            out[j] += x * y
    return out


def zsum(terms):
    """sum k v 2^e over terms (k, v, e), k an int and v an int vector, as the
    exact z-polynomial (ints, exp), ints[i] 2^exp the z^i coefficient."""
    exp = min([e for _k, _v, e in terms], default=0)
    out = [0] * max([len(v) for _k, v, _e in terms], default=0)
    for k, v, e in terms:
        for i, x in enumerate(v):
            out[i] += k * x << e - exp
    return out, exp


def pack(ints, w: int) -> int:
    """The int vector ints as one int, sum_k ints[k] 2^(k w): the
    z-polynomial at z = 2^w (Kronecker substitution), which unpack inverts
    while every |ints[k]| < 2^(w - 1).  z times it is a shift by w, an int
    times it one product and a sum of such values one add."""
    x = 0
    for c in reversed(ints):
        x = (x << w) + c
    return x


def unpack(x: int, w: int, n: int) -> list:
    """The n balanced w-bit digits of x, low first, each in [-2^(w - 1),
    2^(w - 1)): pack's inverse.  A ValueError when anything is left above
    the top slot, which a coefficient too wide for w can leave."""
    half, full, out = 1 << w - 1, 1 << w, []
    for _ in range(n):
        d = x & full - 1
        x >>= w
        if d >= half:
            d -= full
            x += 1
        out.append(d)
    if x:
        raise ValueError(f"packed value does not fit in {n} slots of {w} bits")
    return out


def mpf_to_str(x: mpf) -> str:
    """Decimal string round-trippable at the current precision."""
    return mp.nstr(x, mp.dps + 4, strip_zeros=True)


def _encode(v):
    if isinstance(v, mpf):
        return mpf_to_str(v)
    raise TypeError(f"{type(v).__name__} is not JSON serializable")


def to_json(doc, indent=None) -> str:
    """doc as JSON text with sorted keys, every mpf written by mpf_to_str at
    the current precision; any other non-JSON value is a TypeError."""
    return json.dumps(doc, sort_keys=True, indent=indent, default=_encode)


# ---------------------------------------------------------------------------
# dense polynomials in z
# ---------------------------------------------------------------------------


def rtrimmed(out: list) -> list:
    """out, a list of raw values, with its trailing exact zeros popped."""
    while out and out[-1] == fzero:
        out.pop()
    return out


class ZPoly:
    """Dense polynomial in z; ``raw[k]``, a libmp value, multiplies z^k.

    raw, a list never mutated once built, ends in no exact zero.  Only exact
    zeros are trimmed: coefficient families with exponential n-dependence
    carry true leading coefficients hundreds of orders below the largest one,
    so any magnitude-relative trim would corrupt degrees; every degree in this
    pipeline is structural, never a roundoff artifact.
    """

    __slots__ = ("raw",)

    def __init__(self, coeffs=()):
        self.raw = rtrimmed([scalar(c)._mpf_ for c in coeffs])

    @classmethod
    def _from_raw(cls, vec: list) -> "ZPoly":
        """Built from a list of finite raw values, which it trims in place and keeps."""
        p = cls.__new__(cls)
        p.raw = rtrimmed(vec)
        return p

    @property
    def coeffs(self) -> tuple:
        return tuple(map(mp.make_mpf, self.raw))

    @property
    def degree(self) -> int:
        return len(self.raw) - 1

    @property
    def lead(self) -> mpf:
        return self.coeff(len(self.raw) - 1)

    def coeff(self, k: int) -> mpf:
        if 0 <= k < len(self.raw):
            return mp.make_mpf(self.raw[k])
        return mpf(0)

    def sup_norm(self) -> mpf:
        return mp.make_mpf(raw_max(self.raw, mp.prec)) if self.raw else mpf(0)

    def eval(self, z) -> mpf:
        z = scalar(z)
        acc = mpf(0)
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def __repr__(self):
        return f"ZPoly(deg={self.degree})"


# ---------------------------------------------------------------------------
# hyperelliptic curves  w^2 = z^(2g+1) + c_{2g} z^(2g) + ... + c_0
# ---------------------------------------------------------------------------


class HyperellipticCurve:
    """Monic odd-degree curve data: genus g and coefficients c_0..c_{2g}."""

    __slots__ = ("g", "c")

    def __init__(self, g: int, c):
        g = int(g)
        if g < 1:
            raise ValueError(f"genus must be >= 1, got {g}")
        c = tuple(scalar(x) for x in c)
        if len(c) != 2 * g + 1:
            raise ValueError(f"genus {g} needs {2 * g + 1} coefficients, got {len(c)}")
        self.g = g
        self.c = c

    def fpoly(self) -> ZPoly:
        return ZPoly(self.c + (mpf(1),))

    @classmethod
    def from_exact(cls, poly, g: int, tol) -> "HyperellipticCurve":
        """The curve of the exact z-polynomial poly = (ints, exp) of degree
        2g + 1, whose lead must lie within tol times the larger of 1 and its
        largest |coefficient| of 1, compared exactly: each c_k = f_k / lead
        is rounded once at the working precision."""
        f, exp = list(poly[0]), poly[1]
        while f and not f[-1]:
            f.pop()
        deg = 2 * g + 1
        if len(f) != deg + 1:
            raise ValueError(f"expected degree {deg}, got {len(f) - 1}")
        # 1 on the polynomial's exponent, or the polynomial on 1's
        one, f = (1 << -exp, f) if exp <= 0 else (1, [v << exp for v in f])
        if exceeds(abs(f[-1] - one), max(one, *map(abs, f)), tol):
            lead = mp.make_mpf(rround(f[-1], min(exp, 0), mp.prec))
            raise ValueError(f"polynomial is not monic within tolerance (lead={lead})")
        p = mp.prec
        return cls(g, tuple(mp.make_mpf(rratio(v, f[-1], p)) for v in f[:deg]))

    def __repr__(self):
        return f"HyperellipticCurve(g={self.g})"
