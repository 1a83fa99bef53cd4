"""Numeric substrate: configurable-precision scalars, dense polynomials in the
spectral parameter z, and division with residual.

All arithmetic runs on mpmath floats.  The working precision defaults to a
113-bit significand (quad-like); the dressing recursion sheds digits at every
step, so the headroom above double precision is what keeps window-wide
residual checks below 1e-9 tolerances.  Values are immutable once built and
every function here is pure.
"""

from __future__ import annotations

from mpmath import mp, mpf
from mpmath.libmp import finf, fnan, fninf

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


def mpf_to_str(x: mpf) -> str:
    """Decimal string round-trippable at the current precision."""
    return mp.nstr(x, mp.dps + 4, strip_zeros=True)


# ---------------------------------------------------------------------------
# dense polynomials in z
# ---------------------------------------------------------------------------


def _trimmed(coeffs: tuple) -> tuple:
    # Only exact zeros are dropped.  Coefficient families with exponential
    # n-dependence carry true leading coefficients hundreds of orders below
    # the largest one, so any magnitude-relative trim would corrupt degrees;
    # every degree in this pipeline is structural, never a roundoff artifact.
    k = len(coeffs)
    while k > 0 and coeffs[k - 1] == 0:
        k -= 1
    return coeffs[:k]


class ZPoly:
    """Dense polynomial in z; ``coeffs[k]`` multiplies z^k."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=(), trim: bool = True):
        cs = tuple(scalar(c) for c in coeffs)
        self.coeffs = _trimmed(cs) if trim else cs

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
        return max(abs(c) for c in self.coeffs)

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
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return ZPoly(out)

    def __sub__(self, other: "ZPoly") -> "ZPoly":
        return self + (-other)

    def __neg__(self) -> "ZPoly":
        return ZPoly(tuple(-c for c in self.coeffs), trim=False)

    def scale(self, c) -> "ZPoly":
        c = scalar(c)
        return ZPoly(tuple(c * x for x in self.coeffs))

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


def poly_mul(p: ZPoly, q: ZPoly) -> ZPoly:
    """Convolution product; degrees add when leading coefficients survive."""
    if p.is_zero or q.is_zero:
        return ZPoly.zero()
    a, b = p.coeffs, q.coeffs
    out = [mpf(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return ZPoly(out)


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
        return ZPoly(self.c + (mpf(1),), trim=False)

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
