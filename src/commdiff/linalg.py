"""Dense least squares on mpmath floats.

The least-squares path is a column-pivoted Householder QR with column
equilibration; pivots expose rank loss, which callers treat as an error
beyond the normalization freedom they expect.  It holds the matrix as
columns of raw mpf tuples and runs every operation at the working precision
with round-to-nearest, in a fixed order: products, sums and differences
through the kernels of `numcore`, the rest through `mpmath.libmp`.  Each sum
of products is `numcore.rdot`, left to right from its first product, and
each entry t - f v_i of a Householder update is one `numcore.rmac`.  Each
pivot is the first column of largest float norm, each entry read as the
double nearest its value.  So the result is a function of the input and
the precision alone, bit for bit: the same x, R diagonal, residual and pivot
order as the plain row-major loop of mpf objects that `tests/test_linalg.py`
keeps as its oracle.
"""

from __future__ import annotations

from math import fsum, ldexp
from operator import mul

from mpmath import mp, mpf
from mpmath.libmp import (
    fone, fzero, mpf_abs, mpf_div, mpf_gt, mpf_neg, mpf_shift, mpf_sqrt, round_nearest,
)

from .errors import NonFiniteError, RankDeficiencyError
from .numcore import raw_max, rdot, rmac, rsub


def lstsq(rows, rhs):
    """Minimize ||A x - b||_2 by column-pivoted Householder QR.

    rows: list of rows of A (m x n, m >= n); rhs: length-m vector.
    Returns (x, info) with info = {rank, n, rdiag, resid_inf, pivot}.
    Rank counts the pivots above 2^(-3p/4) times the largest one.

    Step k pivots on the first column whose float norm over rows k.. is
    the largest: the fsum of the squares of its entries, each the double
    nearest its value.  A nan or an infinity in A or b is a NonFiniteError.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    if m < n:
        raise ValueError(f"underdetermined system: {m} equations, {n} unknowns")
    prec, rnd = mp.prec, round_nearest

    def sumsq(col, k):
        return rdot(col[k:], col[k:], prec)

    cols = [[mpf(row[j])._mpf_ for row in rows] for j in range(n)]
    b = [mpf(v)._mpf_ for v in rhs]
    # a special value has no mantissa and a nonzero exponent
    if any(not t[1] and t[2] for col in cols + [b] for t in col):
        raise NonFiniteError("least-squares system has a nan or an infinite entry")

    # column equilibration
    colscale = []
    for col in cols:
        s = raw_max(map(mpf_abs, col))
        s = s if mpf_gt(s, fzero) else fone
        colscale.append(s)
        col[:] = [mpf_div(t, s, prec, rnd) for t in col]

    perm = list(range(n))
    rdiag = []
    for k in range(n):
        # pivot on the first column of largest float norm
        sq = [_float_sumsq(col[k:]) for col in cols[k:]]
        j = k + max(range(n - k), key=sq.__getitem__)
        if j != k:
            cols[k], cols[j] = cols[j], cols[k]
            perm[k], perm[j] = perm[j], perm[k]
        # Householder on column k
        ck = cols[k]
        alpha = mpf_sqrt(sumsq(ck, k), prec, rnd)
        if alpha == fzero:
            rdiag.append(mpf(0))
            continue
        if mpf_gt(ck[k], fzero):
            alpha = mpf_neg(alpha)
        v = ck[k:]
        v[0] = rsub(v[0], alpha, prec)
        vnorm2 = sumsq(v, 0)
        ck[k:] = [alpha] + [fzero] * (m - k - 1)
        if mpf_gt(vnorm2, fzero):
            for col in cols[k + 1:] + [b]:
                f = mpf_div(mpf_shift(rdot(v, col[k:], prec), 1), vnorm2, prec, rnd)
                col[k:] = [rmac(t, f, vi, prec, 1) for vi, t in zip(v, col[k:])]
        rdiag.append(mp.make_mpf(alpha))

    r0 = max((abs(d) for d in rdiag), default=mpf(0))
    rank_tol = mpf(2) ** (-(3 * mp.prec) // 4)
    rank = sum(1 for d in rdiag if abs(d) > rank_tol * r0) if r0 > 0 else 0

    x = [fzero] * n
    for k in range(min(rank, n) - 1, -1, -1):
        acc = rdot([cols[j][k] for j in range(k + 1, n)], x[k + 1:], prec)
        x[k] = mpf_div(rsub(b[k], acc, prec), cols[k][k], prec, rnd)

    out = [fzero] * n
    for k in range(n):
        out[perm[k]] = mpf_div(x[k], colscale[perm[k]], prec, rnd)

    resid = fzero
    for row, y in zip(rows, rhs):
        r = mpf_abs(rsub(rdot(map(_exact, row), out, prec), _exact(y), prec))
        if mpf_gt(r, resid):
            resid = r

    resid = mp.make_mpf(resid)
    info = {"rank": rank, "n": n, "rdiag": rdiag, "resid_inf": resid, "pivot": perm}
    return [mp.make_mpf(t) for t in out], info


def _float_sumsq(col):
    """fsum of the squares of the doubles nearest the raw finite values in
    col.  A mantissa past 1000 bits, too long for a float, is first cut by
    its own excess through true division, which rounds once, as float()."""
    fl = [
        ldexp(t[1], t[2]) if t[3] <= 1000
        else ldexp(t[1] / (1 << (t[3] - 1000)), t[2] + t[3] - 1000)
        for t in col
    ]
    return fsum(map(mul, fl, fl))


def _exact(v):
    """The raw value of v itself, unrounded, as mpf arithmetic reads it."""
    return v._mpf_ if isinstance(v, mpf) else mp.convert(v)._mpf_


def require_full_rank(info, context: str = "linear system"):
    if info["rank"] < info["n"]:
        raise RankDeficiencyError(
            f"{context}: rank {info['rank']} < {info['n']} unknowns"
        )
