"""Dense least squares for the ansatz solve's two fits: column-pivoted
Householder QR on rows of raw libmp values, whose pivots expose rank loss.

`lstsq` runs in fixed point, on Python ints (see its docstring).  Its one
caller is `dressing.ansatz_solve`'s fit of the 3g integration constants.

`lstsq_mpf` equilibrates the columns and runs every operation at the working
precision with round-to-nearest, in a fixed order, on columns of signed int
mantissas and exponents: each sum of products is `numcore.mdot`, left to
right from its first product, and each entry t - f v_i of a Householder
update is `numcore.maxpy` with -f, the product rounded first; differences,
quotients and square roots are libmp's.  Each pivot is the first column of
largest exact norm over the rows left, as in `lstsq`.  So the result is a
function of the input and the precision alone, bit for bit: the same x, R
diagonal and pivot order as the plain row-major loop of mpf objects that
the tests keep as their oracle (`_reference_lstsq` in `tests/oracles.py`).
Its one caller is `dressing._pin_top_row`, whose bits set the leads of Q;
ROADMAP item 2b deletes the pin fit and this solver with it.
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
from .numcore import maxpy, mdot, raw_max, raw_split, rround


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

    Each column is divided by its largest |entry|, then split by
    numcore.raw_split, b last.  Step k pivots on the first column of largest
    exact norm over rows k.. (the sum of the squares of its entries there, on
    their least exponent).  A nan or an infinity in A or b is a NonFiniteError.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    if m < n:
        raise ValueError(f"underdetermined system: {m} equations, {n} unknowns")
    prec = mp.prec
    cols = [list(col) for col in zip(*rows)] + [list(rhs)]
    # a special value has no mantissa and a nonzero exponent
    if any(not t[1] and t[2] for col in cols for t in col):
        raise NonFiniteError("least-squares system has a nan or an infinite entry")

    # column equilibration
    colscale = []
    for col in cols[:n]:
        s = raw_max(col, prec)
        s = s if mpf_gt(s, fzero) else fone
        colscale.append(s)
        col[:] = [mpf_div(t, s, prec, RND) for t in col]
    cols = [raw_split(col) for col in cols]

    perm = list(range(n))
    rdiag = []
    for k in range(n):
        # pivot on the first column of largest exact norm over rows k..
        low = min(e for _cm, ce in cols[k:n] for e in ce[k:])
        norms = [sum(t * t << 2 * (e - low) for t, e in zip(cm[k:], ce[k:]))
                 for cm, ce in cols[k:n]]
        j = k + norms.index(max(norms))
        cols[k], cols[j] = cols[j], cols[k]
        perm[k], perm[j] = perm[j], perm[k]
        # Householder on column k: |v_0| >= |alpha| > 0 keeps vnorm2 > 0
        cm, ce = cols[k]
        alpha = mpf_sqrt(mdot(cm[k:], ce[k:], cm[k:], ce[k:], prec), prec, RND)
        if cm[k] > 0:
            alpha = mpf_neg(alpha)
        rdiag.append(alpha)
        if alpha == fzero:
            continue
        (v0,), (e0,) = raw_split([mpf_sub(rround(cm[k], ce[k], prec), alpha, prec, RND)])
        vm, ve = [v0, *cm[k + 1:]], [e0, *ce[k + 1:]]
        vnorm2 = mdot(vm, ve, vm, ve, prec)
        for tm, te in cols[k + 1:]:
            f = mpf_div(mpf_shift(mdot(vm, ve, tm[k:], te[k:], prec), 1), vnorm2, prec, RND)
            tm[k:], te[k:] = maxpy(mpf_neg(f), vm, ve, tm[k:], te[k:], prec)

    # |d| > 2^floor(-3p/4) r0, the product exact as a shift
    r0 = raw_max(rdiag, prec) if rdiag else fzero
    tol = mpf_shift(r0, -(3 * prec) // 4)
    rank = sum(1 for d in rdiag if mpf_gt(mpf_abs(d), tol)) if r0 != fzero else 0

    bm, be = cols[n]
    x = [fzero] * n
    for k in range(min(rank, n) - 1, -1, -1):
        r = [cm[k] for cm, _ce in cols[k + 1:n]], [ce[k] for _cm, ce in cols[k + 1:n]]
        acc = mdot(*r, *raw_split(x[k + 1:]), prec)
        x[k] = mpf_div(mpf_sub(rround(bm[k], be[k], prec), acc, prec, RND), rdiag[k], prec, RND)

    out = [fzero] * n
    for k in range(n):
        out[perm[k]] = mpf_div(x[k], colscale[perm[k]], prec, RND)
    return out, {"rank": rank, "n": n, "rdiag": rdiag, "pivot": perm}


def require_full_rank(info, context: str = "linear system"):
    if info["rank"] < info["n"]:
        raise RankDeficiencyError(
            f"{context}: rank {info['rank']} < {info['n']} unknowns"
        )
