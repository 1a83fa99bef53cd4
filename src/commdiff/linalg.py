"""Dense least squares for the ansatz solve's two fits: column-pivoted
Householder QR on rows of raw libmp values, whose pivots expose rank loss.

`lstsq` runs in fixed point, on Python ints (see its docstring).  Its one
caller is `dressing.ansatz_solve`'s fit of the 3g integration constants.

`lstsq_mpf` equilibrates the columns and runs every operation at the working
precision with round-to-nearest, in a fixed order: products and sums through
the kernels of `numcore`, differences, quotients, square roots and the
doubling of a dot product through `mpmath.libmp`.  Each sum of products is
`numcore.rdot`, left to right from its first product, and each entry
t - f v_i of a Householder update is `radd(t, rmul(f, v_i, p), p, 1)`, the
product rounded first.  Each pivot is the first column of largest exact
norm over the rows left, as in `lstsq`.  So the result is a function of the
input and the precision alone, bit for bit: the same x, R diagonal and
pivot order as the plain row-major loop of mpf objects that the tests keep
as their oracle (`_reference_lstsq` in `tests/oracles.py`).  Its one caller
is `dressing._pin_top_row`, whose bits set the leads of Q; ROADMAP item 2b
deletes the pin fit and this solver with it.
"""

from __future__ import annotations

from math import isqrt
from operator import mul

from mpmath import mp
from mpmath.libmp import (
    fone, fzero, mpf_abs, mpf_div, mpf_gt, mpf_neg, mpf_shift, mpf_sqrt, mpf_sub,
)
from mpmath.libmp import round_nearest as RND

from .errors import NonFiniteError, RankDeficiencyError
from .numcore import radd, raw_ints, raw_max, rdot, rmul, rround


def lstsq(rows, rhs):
    """Minimize ||A x - b||_2 by column-pivoted Householder QR in fixed point.

    rows: list of rows of A (m x n, m >= n); rhs: length-m vector; every
    entry a raw value.  Returns (x, info), x raw, with info = {rank, n,
    rdiag, pivot}, rdiag the raw R diagonal of the shifted columns.  Rank
    counts the pivots above 2^floor(-3p/4) times the largest, p = mp.prec.

    Each column of A and b is held as ints on 2^-F, F = p + 16, after the
    shift that puts its largest |entry| in [1/2, 1) (_fixed).  Step k pivots
    on the first column of largest exact norm over rows k..; alpha is the
    isqrt of that norm, and each entry t of a column is updated to
    t - ((f v_i) >> F), f = floor(2^(F+1) (v . t) / (v . v)).  The
    back-substitution floors each quotient on 2^-2F, and each x is rounded
    once at p by numcore.rround.  A nan or an infinity in A or b is a
    NonFiniteError.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    if m < n:
        raise ValueError(f"underdetermined system: {m} equations, {n} unknowns")
    p = mp.prec
    F = p + 16
    raw = [*zip(*rows), rhs]
    if any(not t[1] and t[2] for col in raw for t in col):
        raise NonFiniteError("least-squares system has a nan or an infinite entry")
    (*cols, b), (*tops, btop) = zip(*(_fixed(col, F) for col in raw))

    perm = list(range(n))
    rdiag = []
    for k in range(n):
        norms = [sum(map(mul, col[k:], col[k:])) for col in cols[k:]]
        j = k + norms.index(max(norms))
        cols[k], cols[j] = cols[j], cols[k]
        perm[k], perm[j] = perm[j], perm[k]
        ck = cols[k]
        alpha = isqrt(norms[j - k])
        if ck[k] > 0:
            alpha = -alpha
        rdiag.append(alpha)
        if not alpha:
            continue
        v = ck[k:]
        v[0] -= alpha
        vnorm2 = sum(map(mul, v, v))
        ck[k:] = [alpha] + [0] * (m - k - 1)
        for col in cols[k + 1:] + [b]:
            f = (sum(map(mul, v, col[k:])) << F + 1) // vnorm2
            col[k:] = [t - (f * vi >> F) for vi, t in zip(v, col[k:])]

    # |d| 2^ceil(3p/4) > max |d|: one bit more than (3p)//4 when 4 does not divide 3p
    r0, shift = max(map(abs, rdiag), default=0), -(-3 * p // 4)
    rank = sum(1 for d in rdiag if abs(d) << shift > r0)

    # y on 2^-2F: r_kj y_j on 2^-3F, b_k shifted up to it
    y = [0] * n
    for k in range(rank - 1, -1, -1):
        num = (b[k] << 2 * F) - sum(cols[j][k] * y[j] for j in range(k + 1, rank))
        y[k] = num // cols[k][k]
    x = [fzero] * n
    for yk, j in zip(y, perm):
        x[j] = rround(yk, btop - tops[j] - 2 * F, p)
    return x, {"rank": rank, "n": n, "rdiag": [rround(d, -F, p) for d in rdiag], "pivot": perm}


def _fixed(col, F):
    """The raw finite values of col as ints on 2^-F after the shift by
    2^-top that puts the largest |entry| in [1/2, 1), each rounded to the
    nearest int, halves up: (ints, top), top 0 for an all-zero column."""
    top = max((e + bc for _s, man, e, bc in col if man), default=0)
    out = []
    for s, man, e, _bc in col:
        sh = e - top + F
        v = man << sh if sh >= 0 else (man >> -sh - 1) + 1 >> 1
        out.append(-v if s else v)
    return out, top


def lstsq_mpf(rows, rhs):
    """Minimize ||A x - b||_2 by column-pivoted Householder QR.

    rows: list of rows of A (m x n, m >= n); rhs: length-m vector; every
    entry a raw value of at most mp.prec bits.  Returns (x, info), x raw,
    with info = {rank, n, rdiag, pivot}, rdiag the raw R diagonal.  Rank
    counts the pivots above 2^floor(-3p/4) times the largest one.

    Each column is first divided by its largest |entry| (equilibration).
    Step k pivots on the first column whose exact norm over rows k.. is the
    largest: the sum of the squares of its entries there, read as ints on
    one exponent (numcore.raw_ints).  A nan or an infinity in A or b is a
    NonFiniteError.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    if m < n:
        raise ValueError(f"underdetermined system: {m} equations, {n} unknowns")
    prec = mp.prec
    cols = [list(col) for col in zip(*rows)]
    b = list(rhs)
    # a special value has no mantissa and a nonzero exponent
    if any(not t[1] and t[2] for col in cols + [b] for t in col):
        raise NonFiniteError("least-squares system has a nan or an infinite entry")

    # column equilibration
    colscale = []
    for col in cols:
        s = raw_max(col, prec)
        s = s if mpf_gt(s, fzero) else fone
        colscale.append(s)
        col[:] = [mpf_div(t, s, prec, RND) for t in col]

    perm = list(range(n))
    rdiag = []
    for k in range(n):
        # pivot on the first column of largest exact norm over rows k..
        norms = [sum(map(mul, c, c)) for c in raw_ints([col[k:] for col in cols[k:]])[0]]
        j = k + norms.index(max(norms))
        cols[k], cols[j] = cols[j], cols[k]
        perm[k], perm[j] = perm[j], perm[k]
        # Householder on column k
        ck = cols[k]
        alpha = mpf_sqrt(rdot(ck[k:], ck[k:], prec), prec, RND)
        if mpf_gt(ck[k], fzero):
            alpha = mpf_neg(alpha)
        rdiag.append(alpha)
        if alpha == fzero:
            continue
        v = ck[k:]
        v[0] = mpf_sub(v[0], alpha, prec, RND)
        vnorm2 = rdot(v, v, prec)
        ck[k:] = [alpha] + [fzero] * (m - k - 1)
        if mpf_gt(vnorm2, fzero):
            for col in cols[k + 1:] + [b]:
                f = mpf_div(mpf_shift(rdot(v, col[k:], prec), 1), vnorm2, prec, RND)
                col[k:] = [radd(t, rmul(f, vi, prec), prec, 1) for vi, t in zip(v, col[k:])]

    # |d| > 2^floor(-3p/4) r0, the product exact as a shift
    r0 = raw_max(rdiag, prec) if rdiag else fzero
    tol = mpf_shift(r0, -(3 * prec) // 4)
    rank = sum(1 for d in rdiag if mpf_gt(mpf_abs(d), tol)) if r0 != fzero else 0

    x = [fzero] * n
    for k in range(min(rank, n) - 1, -1, -1):
        acc = rdot([cols[j][k] for j in range(k + 1, n)], x[k + 1:], prec)
        x[k] = mpf_div(mpf_sub(b[k], acc, prec, RND), cols[k][k], prec, RND)

    out = [fzero] * n
    for k in range(n):
        out[perm[k]] = mpf_div(x[k], colscale[perm[k]], prec, RND)
    return out, {"rank": rank, "n": n, "rdiag": rdiag, "pivot": perm}


def require_full_rank(info, context: str = "linear system"):
    if info["rank"] < info["n"]:
        raise RankDeficiencyError(
            f"{context}: rank {info['rank']} < {info['n']} unknowns"
        )
