"""Numeric substrate: configurable-precision scalars, dense polynomials in the
spectral parameter z, and the JSON encoder that writes every report's
decimals.

Values are raw libmp tuples, the only thing ZPoly stores, computed on by
the kernels rmul, radd, rsub and rdiv below, libmp's round-to-nearest
mpf_mul, mpf_add, mpf_sub and mpf_div reimplemented bit for bit with
int.bit_length, and by rmac, their multiply-accumulate
radd(acc, rmul(s, t, p), p) in one call, so this module is the one that
knows how a result is rounded.  A zero operand stays in the kernels (libmp's
answer, the other operand or fzero, needs no rounding when the other
operand fits in p bits), and so does a sum over an exponent gap past 100
bits: added exactly when the magnitudes lie within p + 4 bits, otherwise
the larger operand, to which libmp's perturbation rounds back when it fits
in p bits.  raw_max compares magnitudes in place, rounding only what
mpf_abs must.  cos_int is mpmath's cos at an integer, computed once per
argument and precision for the trig family and basis, and pow_int libmp's
integer power, computed once per (base, exponent, precision) for the
geometric family and basis.  mpmath floats appear where a value enters
(scalar, ZPoly's constructor) or leaves (coeffs, lead, sup_norm, reports).
Polynomial products, sums and differences exist once, as rpoly_mul,
rpoly_add and rpoly_sub on raw coefficient vectors: ZPoly's *, + and -
wrap them, and dressing's identity checks call them directly.  Composition (opalg's DiffOp.__mul__, which scale_left and the L2
and partner assemblies of dressing are built on) forms no product with a
term of exact 1s: 1 times v at p bits is v itself when v fits in p bits,
and a wider v is rounded as rmul(fone, v, p) rounds it.
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
from itertools import repeat

from mpmath import cos, mp, mpf
from mpmath.libmp import (
    finf, fnan, fninf, fzero, mpf_abs, mpf_add, mpf_div, mpf_gt, mpf_mul, mpf_neg, mpf_pow_int,
    mpf_sub,
)
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


def raw_max(vals, prec=None):
    """The first largest of the raw values vals, as max() picks it; with prec,
    of their mpf_abs at prec: max(abs(v) for v in vals), as mpf's abs rounds.
    Without prec, two nonzero finite values of sign 0 compare on exponent plus
    bit count, the binary order of magnitude, and ties, zeros, specials and
    signs go to libmp's mpf_gt.  With prec, magnitudes are compared in place:
    exponent plus bit count first, on a tie the mantissas shifted to a common
    length; only zeros, specials and values wider than prec are rounded by
    mpf_abs, and the winner's abs is returned."""
    if prec is None:
        it = iter(vals)
        best = next(it)
        for v in it:
            if v[1] and best[1] and not (v[0] or best[0]):
                d = v[2] + v[3] - best[2] - best[3]
                if d:
                    if d > 0:
                        best = v
                    continue
            if mpf_gt(v, best):
                best = v
        return best
    # best is the winner, or its abs when mpf_abs made it; bman, btop and bbc
    # are its mantissa (0 for a zero or special), exponent plus bit count and
    # bit count
    best, bman = None, 0
    for v in vals:
        _, man, exp, bc = v
        if not man or bc > prec:
            v = mpf_abs(v, prec, RND)
            _, man, exp, bc = v
            if not man:
                # a zero or nan never wins after the first; inf beats finite
                if best is None or v == finf and (bman or best == fzero):
                    best, bman = v, 0
                continue
        top = exp + bc
        if bman:
            if top < btop or top == btop and (
                    man <= bman << (bc - bbc) if bc >= bbc else man << (bbc - bc) <= bman):
                continue
        elif best is not None and best != fzero:
            continue
        best, bman, btop, bbc = v, man, top, bc
    return (0, bman, best[2], bbc) if best[0] else best


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


# Round-to-nearest kernels: libmp's result for normalized raw values, the
# mantissa cut to p bits with ties to even and the bits past the half bit
# sticky, a carry to 2^p stored as mantissa 1, trailing zeros stripped, an
# exact cancellation fzero.  A zero operand stays here: times a finite value
# it gives fzero, in a sum the other operand when that fits in p bits, and
# 0 +- 0 is fzero.  Where exponents lie over 100 bits apart, libmp adds
# exactly when the magnitudes lie within p + 4 bits, and so do the kernels;
# otherwise it perturbs the larger operand by one unit p + 4 bits below it,
# which rounds away when that operand fits in p bits, so the kernels return
# it.  Special operands, a zero beside a value wider than p, and a larger
# operand wider than p beside a far smaller one go to libmp itself.


def rmul(s, t, p):
    """s * t at p bits, as mpf_mul(s, t, p, round_nearest)."""
    sign, sman, sexp, _ = s
    tsign, tman, texp, _ = t
    man = sman * tman
    if not man:
        # a zero times a finite value; a special goes to libmp
        return fzero if (sman or not sexp) and (tman or not texp) else mpf_mul(s, t, p, RND)
    bc, exp = man.bit_length(), sexp + texp
    if bc > p:
        # odd mantissas have an odd product, so only a rounding leaves zeros
        n = bc - p
        h = man >> (n - 1)
        man = (h >> 1) + 1 if h & 1 and (h & 2 or man & ((1 << (n - 1)) - 1)) else h >> 1
        exp, bc = exp + n, p
        if not man & 1:
            z = (man & -man).bit_length() - 1
            man, exp, bc = man >> z, exp + z, p - z or 1
    return sign ^ tsign, man, exp, bc


def radd(s, t, p, _neg=0):
    """s + t at p bits, as mpf_add(s, t, p, round_nearest); s - t with _neg."""
    sign, sman, sexp, sbc = s
    tsign, tman, texp, tbc = t
    if not (sman and tman):
        # s +- 0 is s (a zero too), and 0 +- t is +-t, when that fits in p bits
        if not (tman or texp):
            if (sman or not sexp) and sbc <= p:
                return s
        elif not (sman or sexp) and tman and tbc <= p:
            return (tsign ^ 1, tman, texp, tbc) if _neg else t
        return (mpf_sub if _neg else mpf_add)(s, t, p, RND)
    off = sexp - texp
    # one operand wholly below the other's p + 4 bits, past a 100-bit gap
    if off > 100 and off + sbc - tbc > p + 4:
        return s if sbc <= p else (mpf_sub if _neg else mpf_add)(s, t, p, RND)
    if off < -100 and tbc - sbc - off > p + 4:
        if tbc <= p:
            return (tsign ^ 1, tman, texp, tbc) if _neg else t
        return (mpf_sub if _neg else mpf_add)(s, t, p, RND)
    if off >= 0:
        sman, exp = sman << off, texp
    else:
        tman, exp = tman << -off, sexp
    if sign == tsign ^ _neg:
        man = sman + tman
    else:
        man = sman - tman
        if man < 0:
            man, sign = -man, sign ^ 1
        elif not man:
            return fzero
    bc = man.bit_length()
    if bc > p:
        n = bc - p
        h = man >> (n - 1)
        man = (h >> 1) + 1 if h & 1 and (h & 2 or man & ((1 << (n - 1)) - 1)) else h >> 1
        exp, bc = exp + n, p
    if not man & 1:
        z = (man & -man).bit_length() - 1
        man, exp, bc = man >> z, exp + z, bc - z or 1
    return sign, man, exp, bc


def rsub(s, t, p):
    """s - t at p bits, as mpf_sub(s, t, p, round_nearest)."""
    return radd(s, t, p, 1)


def rdiv(s, t, p):
    """s / t at p bits, as mpf_div(s, t, p, round_nearest): the quotient of
    the mantissas shifted by libmp's extra bits, a nonzero remainder kept as
    a sticky last bit, rounded once.  A zero s over a finite nonzero t is
    fzero, and an s of at most p bits over a power of two (mantissa 1) is
    an exact shift; special operands, a zero divisor and a wider s over a
    power of two go to libmp."""
    sign, sman, sexp, sbc = s
    tsign, tman, texp, tbc = t
    if tman < 2 or not sman:
        if tman == 1 and sman and sbc <= p:
            return sign ^ tsign, sman, sexp - texp, sbc
        return fzero if tman and not (sman or sexp) else mpf_div(s, t, p, RND)
    extra = max(p - sbc + tbc + 5, 5)
    man, rem = divmod(sman << extra, tman)
    exp = sexp - texp - extra
    if rem:
        man, exp = man << 1 | 1, exp - 1
    # the quotient has p + 5 bits or more, so it is always cut
    n = man.bit_length() - p
    h = man >> (n - 1)
    man = (h >> 1) + 1 if h & 1 and (h & 2 or man & ((1 << (n - 1)) - 1)) else h >> 1
    exp, bc = exp + n, p
    if not man & 1:
        z = (man & -man).bit_length() - 1
        man, exp, bc = man >> z, exp + z, p - z or 1
    return sign ^ tsign, man, exp, bc


def rmac(acc, s, t, p, _neg=0):
    """acc + s * t at p bits, the product rounded at p first, in one call:
    radd(acc, rmul(s, t, p), p, _neg) bit for bit; acc - s * t with _neg.
    The rounded product keeps its trailing zeros, which the exact sum and
    its rounding do not see.  Zero and special operands, and exponent gaps
    past 100 bits from the unstripped product, go to the two kernels.  The
    stripped product can lie over 100 bits above acc when this one does
    not; it has at most p bits then, and libmp's perturbation of it rounds
    as the exact sum does."""
    sign, sman, sexp, _ = s
    tsign, tman, texp, _ = t
    asign, aman, aexp, _ = acc
    man = sman * tman
    if not (man and aman):
        return radd(acc, rmul(s, t, p), p, _neg)
    exp = sexp + texp
    bc = man.bit_length()
    if bc > p:
        n = bc - p
        h = man >> (n - 1)
        man = (h >> 1) + 1 if h & 1 and (h & 2 or man & ((1 << (n - 1)) - 1)) else h >> 1
        exp += n
    off = aexp - exp
    if off > 100 or off < -100:
        return radd(acc, rmul(s, t, p), p, _neg)
    if off >= 0:
        aman <<= off
    else:
        man, exp = man << -off, aexp
    if asign == sign ^ tsign ^ _neg:
        man += aman
    else:
        man = aman - man
        if man < 0:
            man, asign = -man, asign ^ 1
        elif not man:
            return fzero
    bc = man.bit_length()
    if bc > p:
        n = bc - p
        h = man >> (n - 1)
        man = (h >> 1) + 1 if h & 1 and (h & 2 or man & ((1 << (n - 1)) - 1)) else h >> 1
        exp, bc = exp + n, p
    if not man & 1:
        z = (man & -man).bit_length() - 1
        man, exp, bc = man >> z, exp + z, bc - z or 1
    return asign, man, exp, bc


def rdot(xs, ys, p):
    """The sum of rmul(x, y, p) over the pairs of xs and ys at p bits, left to
    right from the first product (fzero for none): the sum from fzero bit for
    bit, since a product rounded at p needs no further rounding at p."""
    pairs = zip(xs, ys)
    for x, y in pairs:
        acc = rmul(x, y, p)
        break
    else:
        return fzero
    for x, y in pairs:
        acc = rmac(acc, x, y, p)
    return acc


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
        self.raw = _rtrimmed([scalar(c)._mpf_ for c in coeffs])

    @classmethod
    def _from_raw(cls, vec: list) -> "ZPoly":
        """Built from a list of finite raw values, which it trims in place and keeps."""
        p = cls.__new__(cls)
        p.raw = _rtrimmed(vec)
        return p

    @classmethod
    def zero(cls) -> "ZPoly":
        return cls._from_raw([])

    @property
    def coeffs(self) -> tuple:
        return tuple(map(mp.make_mpf, self.raw))

    @property
    def degree(self) -> int:
        return len(self.raw) - 1

    @property
    def is_zero(self) -> bool:
        return not self.raw

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

    def __add__(self, other: "ZPoly") -> "ZPoly":
        return ZPoly._from_raw(rpoly_add(self.raw, other.raw, mp.prec))

    def __sub__(self, other: "ZPoly") -> "ZPoly":
        return ZPoly._from_raw(rpoly_sub(self.raw, other.raw, mp.prec))

    def __neg__(self) -> "ZPoly":
        p = mp.prec
        return ZPoly._from_raw([mpf_neg(v, p, RND) for v in self.raw])

    def scale(self, c) -> "ZPoly":
        c, p = scalar(c)._mpf_, mp.prec
        return ZPoly._from_raw([rmul(c, v, p) for v in self.raw])

    def __mul__(self, other):
        if not isinstance(other, ZPoly):
            return self.scale(other)
        return poly_mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, c) -> "ZPoly":
        """Divide every coefficient by the scalar c, each rounded once."""
        c, p = scalar(c)._mpf_, mp.prec
        return ZPoly._from_raw([rdiv(v, c, p) for v in self.raw])

    def __repr__(self):
        return f"ZPoly(deg={self.degree})"


def poly_mul(p: ZPoly, q: ZPoly) -> ZPoly:
    """Convolution product; degrees add when leading coefficients survive."""
    return ZPoly._from_raw(rpoly_mul(p.raw, q.raw, mp.prec))


# Raw polynomial vectors: lists of libmp values, coefficient k multiplying
# z^k, as ZPoly stores them.  Each result is trimmed of its trailing exact
# zeros, as ZPoly's are.


def _rtrimmed(out: list) -> list:
    while out and out[-1] == fzero:
        out.pop()
    return out


def rpoly_mul(a, b, p) -> list:
    """The convolution of a and b at p bits, each out[k] the sum of its
    products a_i b_j in ascending i from the first one, not from 0, which is
    the sum from 0 bit for bit; [] when either vector is empty."""
    if not (a and b):
        return []
    out = [rmul(a[0], bj, p) for bj in b]
    for i, ai in enumerate(a[1:], 1):
        out.append(rmul(ai, b[-1], p))
        for j, bj in enumerate(b[:-1]):
            out[i + j] = rmac(out[i + j], ai, bj, p)
    return _rtrimmed(out)


def rpoly_add(a, b, p) -> list:
    """a + b at p bits; the longer vector's tail is copied unrounded."""
    if len(a) < len(b):
        a, b = b, a
    return _rtrimmed([*map(radd, a, b, repeat(p)), *a[len(b):]])


def rpoly_sub(a, b, p) -> list:
    """a - b at p bits; a's tail is copied unrounded, b's negated at p."""
    out = [*map(rsub, a, b, repeat(p)), *a[len(b):]]
    if len(b) > len(a):
        out += [mpf_neg(v, p, RND) for v in b[len(a):]]
    return _rtrimmed(out)


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

    def eval(self, z) -> mpf:
        return self.fpoly().eval(z)

    @classmethod
    def from_fpoly(cls, p: ZPoly, g: int, tol_rel=mpf("1e-9")) -> "HyperellipticCurve":
        """Build from a numerically monic polynomial of degree 2g+1."""
        deg = 2 * g + 1
        if p.degree != deg:
            raise ValueError(f"expected degree {deg}, got {p.degree}")
        lead = p.lead
        if abs(lead - 1) > tol_rel * max(mpf(1), p.sup_norm()):
            raise ValueError(f"polynomial is not monic within tolerance (lead={lead})")
        return cls(g, tuple(c / lead for c in p.coeffs[:deg]))

    def __repr__(self):
        return f"HyperellipticCurve(g={self.g})"
