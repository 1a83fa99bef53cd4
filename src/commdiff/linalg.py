"""Dense least squares on raw mpmath values.

The least-squares path is a column-pivoted Householder QR with column
equilibration; pivots expose rank loss, which callers treat as an error
beyond the normalization freedom they expect.  It takes rows of raw libmp
values, holds the matrix as columns of them and runs every operation at the
working precision with round-to-nearest, in a fixed order: products, sums,
differences and quotients through the kernels of `numcore`, square roots
and the doubling of a dot product through `mpmath.libmp`.  Each sum of
products is `numcore.rdot`, left to right from its first product, and each
entry t - f v_i of a Householder update is one `numcore.rmac`.  Each pivot
is the first column of largest float norm, each entry read as the double
nearest its value.  So the result is a function of the input and the
precision alone, bit for bit: the same x, R diagonal and pivot order as the
plain row-major loop of mpf objects that the tests keep as their oracle
(`_reference_lstsq` in `tests/oracles.py`).
"""

from __future__ import annotations

from math import fsum, ldexp
from operator import mul

from mpmath import mp
from mpmath.libmp import fone, fzero, mpf_abs, mpf_gt, mpf_neg, mpf_shift, mpf_sqrt, round_nearest

from .errors import NonFiniteError, RankDeficiencyError
from .numcore import raw_max, rdiv, rdot, rmac, rsub


def lstsq(rows, rhs):
    """Minimize ||A x - b||_2 by column-pivoted Householder QR.

    rows: list of rows of A (m x n, m >= n); rhs: length-m vector; every
    entry a raw value of at most mp.prec bits.  Returns (x, info), x raw,
    with info = {rank, n, rdiag, pivot}, rdiag the raw R diagonal.  Rank
    counts the pivots above 2^floor(-3p/4) times the largest one.

    Step k pivots on the first column whose float norm over rows k.. is
    the largest: the fsum of the squares of its entries, each the double
    nearest its value.  A nan or an infinity in A or b is a NonFiniteError.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    if m < n:
        raise ValueError(f"underdetermined system: {m} equations, {n} unknowns")
    prec = mp.prec

    def sumsq(col, k):
        return rdot(col[k:], col[k:], prec)

    cols = [list(col) for col in zip(*rows)]
    b = list(rhs)
    # a special value has no mantissa and a nonzero exponent
    if any(not t[1] and t[2] for col in cols + [b] for t in col):
        raise NonFiniteError("least-squares system has a nan or an infinite entry")

    # column equilibration
    colscale = []
    for col in cols:
        s = raw_max(map(mpf_abs, col))
        s = s if mpf_gt(s, fzero) else fone
        colscale.append(s)
        col[:] = [rdiv(t, s, prec) for t in col]

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
        alpha = mpf_sqrt(sumsq(ck, k), prec, round_nearest)
        if alpha == fzero:
            rdiag.append(fzero)
            continue
        if mpf_gt(ck[k], fzero):
            alpha = mpf_neg(alpha)
        v = ck[k:]
        v[0] = rsub(v[0], alpha, prec)
        vnorm2 = sumsq(v, 0)
        ck[k:] = [alpha] + [fzero] * (m - k - 1)
        if mpf_gt(vnorm2, fzero):
            for col in cols[k + 1:] + [b]:
                f = rdiv(mpf_shift(rdot(v, col[k:], prec), 1), vnorm2, prec)
                col[k:] = [rmac(t, f, vi, prec, 1) for vi, t in zip(v, col[k:])]
        rdiag.append(alpha)

    # |d| > 2^floor(-3p/4) r0, the product exact as a shift
    r0 = raw_max(rdiag, prec) if rdiag else fzero
    tol = mpf_shift(r0, -(3 * prec) // 4)
    rank = sum(1 for d in rdiag if mpf_gt(mpf_abs(d), tol)) if r0 != fzero else 0

    x = [fzero] * n
    for k in range(min(rank, n) - 1, -1, -1):
        acc = rdot([cols[j][k] for j in range(k + 1, n)], x[k + 1:], prec)
        x[k] = rdiv(rsub(b[k], acc, prec), cols[k][k], prec)

    out = [fzero] * n
    for k in range(n):
        out[perm[k]] = rdiv(x[k], colscale[perm[k]], prec)
    return out, {"rank": rank, "n": n, "rdiag": rdiag, "pivot": perm}


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


def require_full_rank(info, context: str = "linear system"):
    if info["rank"] < info["n"]:
        raise RankDeficiencyError(
            f"{context}: rank {info['rank']} < {info['n']} unknowns"
        )
