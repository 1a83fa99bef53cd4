"""Numeric substrate: configurable-precision scalars, dense polynomials in the
spectral parameter z, Chebyshev interpolation, and division with residual.

All arithmetic runs on mpmath floats.  The working precision defaults to a
113-bit significand (quad-like); the dressing recursion sheds digits at every
step, so the headroom above double precision is what keeps window-wide
residual checks below 1e-9 tolerances.  Values are immutable once built and
every function here is pure.
"""

from __future__ import annotations

import os

from mpmath import mp, mpf, cos, pi, isfinite

from .errors import (
    DegenerateDenominatorError,
    InterpolationError,
    NonFiniteError,
)
from . import linalg

DEFAULT_PRECISION_BITS = 113
MIN_PRECISION_BITS = 53

_PRECISION_ENV = "COMMDIFF_PRECISION_BITS"


def set_precision(bits: int) -> int:
    """Set the working significand size in bits (>= 53). Returns the value set."""
    bits = int(bits)
    if bits < MIN_PRECISION_BITS:
        raise ValueError(f"precision must be at least {MIN_PRECISION_BITS} bits, got {bits}")
    mp.prec = bits
    return bits


def get_precision() -> int:
    return mp.prec


def default_precision_bits() -> int:
    """Default precision, honouring the environment override."""
    env = os.environ.get(_PRECISION_ENV)
    if env:
        return max(MIN_PRECISION_BITS, int(env))
    return DEFAULT_PRECISION_BITS


# module import must not leave mpmath at its 53-bit default
if mp.prec < DEFAULT_PRECISION_BITS:
    set_precision(default_precision_bits())


def scalar(x) -> mpf:
    """Coerce to an mpf at working precision; reject non-finite values."""
    v = mpf(x) if not isinstance(x, mpf) else x
    if not isfinite(v):
        raise NonFiniteError(f"non-finite scalar {x!r}")
    return v


def ensure_finite(v: mpf, what: str = "value") -> mpf:
    if not isfinite(v):
        raise NonFiniteError(f"{what} is not finite")
    return v


def trim_rel_threshold() -> mpf:
    """Relative threshold for near-coincidence tests (interpolation nodes,
    rank decisions), scaled to the working precision."""
    return mpf(2) ** (-(7 * mp.prec) // 8)


def mpf_to_str(x: mpf) -> str:
    """Decimal string round-trippable at the current precision."""
    return mp.nstr(x, mp.dps + 4, strip_zeros=True)


def str_to_mpf(s: str) -> mpf:
    return scalar(mpf(s))


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

    __call__ = eval

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


def chebyshev_nodes(count: int, interval=(-4, 4)) -> list:
    """count Chebyshev points scaled to the interval (default [-4, 4])."""
    lo, hi = scalar(interval[0]), scalar(interval[1])
    mid, half = (lo + hi) / 2, (hi - lo) / 2
    return [mid + half * cos(pi * (2 * i + 1) / (2 * count)) for i in range(count)]


def poly_interpolate(samples, degree_bound: int):
    """Least-squares polynomial of degree <= degree_bound through the samples.

    samples: iterable of (z, value).  Needs at least degree_bound + 1 distinct
    nodes; extra samples feed the consistency residual.  Returns
    (ZPoly, residual) with residual = max |p(z_i) - v_i|.
    """
    pts = [(scalar(z), scalar(v)) for z, v in samples]
    n = degree_bound + 1
    if len(pts) < n:
        raise InterpolationError(
            f"need at least {n} samples for degree bound {degree_bound}, got {len(pts)}"
        )
    zs = [z for z, _ in pts]
    dup_tol = trim_rel_threshold() * (1 + max(abs(z) for z in zs))
    for i in range(len(zs)):
        for j in range(i + 1, len(zs)):
            if abs(zs[i] - zs[j]) <= dup_tol:
                raise InterpolationError(f"duplicate interpolation nodes at z={zs[i]}")
    # rescale nodes to O(1) for Vandermonde conditioning
    s = max(max(abs(z) for z in zs), mpf(1))
    rows, rhs = [], []
    for z, v in pts:
        zh = z / s
        row, zp = [], mpf(1)
        for _ in range(n):
            row.append(zp)
            zp *= zh
        rows.append(row)
        rhs.append(v)
    x, _info = linalg.lstsq(rows, rhs)
    coeffs, f = [], mpf(1)
    for k in range(n):
        coeffs.append(x[k] / f)
        f *= s
    p = ZPoly(coeffs)
    resid = max(abs(p.eval(z) - v) for z, v in pts)
    return p, resid


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

    __call__ = eval

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
