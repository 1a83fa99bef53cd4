"""Numeric substrate: configurable-precision scalars, dense polynomials in the
spectral parameter z, division with residual, and the JSON encoder that
writes every report's decimals.

Values are mpmath floats.  The hot loops of the package run on their raw
tuples through the kernels rmul, radd and rsub below, libmp's
round-to-nearest mpf_mul, mpf_add and mpf_sub reimplemented bit for bit
with int.bit_length, so this module is the one that knows how a result is
rounded.  The working precision defaults to a 113-bit significand
(quad-like); the dressing recursion sheds digits at every step, so the
headroom above double precision is what keeps window-wide residual checks
below 1e-9 tolerances.  Values are immutable once built and every function
here is pure.
"""

from __future__ import annotations

import json
from itertools import repeat

from mpmath import mp, mpf
from mpmath.libmp import finf, fnan, fninf, fzero, mpf_abs, mpf_add, mpf_gt, mpf_mul, mpf_sub
from mpmath.libmp import round_nearest as RND

from .errors import DegenerateDenominatorError, NonFiniteError

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


# module import must not leave mpmath at its 53-bit default
if mp.prec < DEFAULT_PRECISION_BITS:
    set_precision(DEFAULT_PRECISION_BITS)


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


def ensure_finite(v: mpf, what: str = "value") -> mpf:
    if not _finite(v):
        raise NonFiniteError(f"{what} is not finite")
    return v


def raw_max(vals, prec=None):
    """The first largest of the raw values vals, as max() picks it; with prec,
    of their mpf_abs at prec: max(abs(v) for v in vals), as mpf's abs rounds.
    Two nonzero finite values of sign 0 compare on exponent plus bit count,
    the binary order of magnitude; ties, zeros, specials and signs go to
    libmp."""
    if prec is not None:
        # a value that fits in prec bits needs no rounding, only its sign cleared
        vals = (mpf_abs(v, prec, RND) if not v[1] or v[3] > prec else
                (0, v[1], v[2], v[3]) if v[0] else v for v in vals)
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


# Round-to-nearest kernels: libmp's result for normalized raw values, the
# mantissa cut to p bits with ties to even and the bits past the half bit
# sticky, a carry to 2^p stored as mantissa 1, trailing zeros stripped, an
# exact cancellation fzero.  Zero and special operands, and sums whose
# exponents lie over 100 apart (where libmp perturbs), go to libmp itself.


def rmul(s, t, p):
    """s * t at p bits, as mpf_mul(s, t, p, round_nearest)."""
    sign, sman, sexp, _ = s
    tsign, tman, texp, _ = t
    man = sman * tman
    if not man:
        return mpf_mul(s, t, p, RND)
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
    sign, sman, sexp, _ = s
    tsign, tman, texp, _ = t
    off = sexp - texp
    if not (sman and tman) or off > 100 or off < -100:
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


def rdot(xs, ys, p):
    """The sum of rmul(x, y, p) over the pairs of xs and ys at p bits, left to
    right from the first product (fzero for none): the sum from fzero bit for
    bit, since a product rounded at p needs no further rounding at p."""
    prods = map(rmul, xs, ys, repeat(p))
    acc = next(prods, fzero)
    for t in prods:
        acc = radd(acc, t, p)
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


def _trimmed(coeffs: tuple) -> tuple:
    # Only exact zeros are dropped.  Coefficient families with exponential
    # n-dependence carry true leading coefficients hundreds of orders below
    # the largest one, so any magnitude-relative trim would corrupt degrees;
    # every degree in this pipeline is structural, never a roundoff artifact.
    k = len(coeffs)
    while k > 0 and coeffs[k - 1]._mpf_ == fzero:
        k -= 1
    return coeffs[:k]


class ZPoly:
    """Dense polynomial in z; ``coeffs[k]`` multiplies z^k."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        self.coeffs = _trimmed(tuple(scalar(c) for c in coeffs))

    @classmethod
    def _computed(cls, coeffs: tuple) -> "ZPoly":
        """Built from values that +, - and * made of finite mpfs: finite, so unchecked."""
        p = cls.__new__(cls)
        p.coeffs = _trimmed(coeffs)
        return p

    @classmethod
    def zero(cls) -> "ZPoly":
        return cls(())

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self) -> mpf:
        if not self.coeffs:
            return mpf(0)
        return self.coeffs[-1]

    def coeff(self, k: int) -> mpf:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return mpf(0)

    def sup_norm(self) -> mpf:
        if not self.coeffs:
            return mpf(0)
        return mp.make_mpf(raw_max((c._mpf_ for c in self.coeffs), mp.prec))

    def eval(self, z) -> mpf:
        z = scalar(z)
        acc = mpf(0)
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return ensure_finite(acc, "polynomial value")

    def __add__(self, other: "ZPoly") -> "ZPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return ZPoly._computed((*raw_map(radd, a, b), *a[len(b):]))

    def __sub__(self, other: "ZPoly") -> "ZPoly":
        a, b = self.coeffs, other.coeffs
        return ZPoly._computed((*raw_map(rsub, a, b), *a[len(b):], *(-c for c in b[len(a):])))

    def __neg__(self) -> "ZPoly":
        return ZPoly._computed(tuple(-c for c in self.coeffs))

    def scale(self, c) -> "ZPoly":
        return ZPoly._computed(tuple(raw_map(rmul, repeat(scalar(c)), self.coeffs)))

    def __mul__(self, other):
        if not isinstance(other, ZPoly):
            return self.scale(other)
        return poly_mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, c) -> "ZPoly":
        """Divide every coefficient by the scalar c, each rounded once."""
        c = scalar(c)
        return ZPoly(tuple(x / c for x in self.coeffs))

    def __repr__(self):
        return f"ZPoly(deg={self.degree})"


def raw_map(op, xs, ys) -> list:
    """[op(x, y) for x, y in zip(xs, ys)] for mpfs, by the raw kernel op as mpf rounds."""
    prec, make = mp.prec, mp.make_mpf
    return [make(op(x._mpf_, y._mpf_, prec)) for x, y in zip(xs, ys)]


def poly_mul(p: ZPoly, q: ZPoly) -> ZPoly:
    """Convolution product; degrees add when leading coefficients survive."""
    if p.is_zero or q.is_zero:
        return ZPoly.zero()
    # each sum starts from its first product, not from 0, in the same order
    prec, a, b = mp.prec, [c._mpf_ for c in p.coeffs], [c._mpf_ for c in q.coeffs]
    out = [rmul(a[0], bj, prec) for bj in b]
    for i, ai in enumerate(a[1:], 1):
        out.append(rmul(ai, b[-1], prec))
        for j, bj in enumerate(b[:-1]):
            out[i + j] = radd(out[i + j], rmul(ai, bj, prec), prec)
    return ZPoly._computed(tuple(map(mp.make_mpf, out)))


def poly_div_exact(num: ZPoly, den: ZPoly):
    """Long division num = q*den + r; returns (q, max |r coefficient|).

    The caller judges whether the residual norm is small enough to call the
    division exact.  Raises if den is numerically zero.
    """
    if den.is_zero:
        raise DegenerateDenominatorError("division by numerically zero polynomial")
    rem = list(num.coeffs)
    dn = den.coeffs
    dd = len(dn) - 1
    lead = dn[-1]
    if len(rem) - 1 < dd:
        return ZPoly.zero(), num.sup_norm()
    qn = [mpf(0)] * (len(rem) - dd)
    for k in range(len(rem) - 1, dd - 1, -1):
        f = rem[k] / lead
        qn[k - dd] = f
        if f != 0:
            for j in range(dd + 1):
                rem[k - dd + j] -= f * dn[j]
        rem[k] = mpf(0)
    resid = max((abs(c) for c in rem), default=mpf(0))
    return ZPoly(qn), ensure_finite(resid, "division residual")


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
