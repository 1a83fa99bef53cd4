import random
from math import fsum

import pytest
from mpmath import mp, mpf, sqrt

from commdiff.errors import NonFiniteError, RankDeficiencyError
from commdiff.linalg import lstsq, require_full_rank


def _reference_lstsq(rows, rhs, rank_tol=None):
    """The row-major mpf loop that `lstsq` must reproduce bit for bit."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    if rank_tol is None:
        rank_tol = mpf(2) ** (-(3 * mp.prec) // 4)

    A = [[mpf(v) for v in row] for row in rows]
    b = [mpf(v) for v in rhs]

    colscale = []
    for j in range(n):
        s = max(abs(A[i][j]) for i in range(m))
        s = s if s > 0 else mpf(1)
        colscale.append(s)
        for i in range(m):
            A[i][j] /= s

    perm = list(range(n))
    rdiag = []
    for k in range(n):
        # the first column of largest float norm over rows k..
        best, best_j = -1.0, k
        for j in range(k, n):
            cn = fsum(float(A[i][j]) * float(A[i][j]) for i in range(k, m))
            if cn > best:
                best, best_j = cn, j
        if best_j != k:
            for i in range(m):
                A[i][k], A[i][best_j] = A[i][best_j], A[i][k]
            perm[k], perm[best_j] = perm[best_j], perm[k]
        alpha = sqrt(sum(A[i][k] ** 2 for i in range(k, m)))
        if alpha == 0:
            rdiag.append(mpf(0))
            continue
        if A[k][k] > 0:
            alpha = -alpha
        v = [A[i][k] for i in range(k, m)]
        v[0] -= alpha
        vnorm2 = sum(t * t for t in v)
        A[k][k] = alpha
        for i in range(k + 1, m):
            A[i][k] = mpf(0)
        if vnorm2 > 0:
            for j in range(k + 1, n):
                dot = sum(v[i - k] * A[i][j] for i in range(k, m))
                f = 2 * dot / vnorm2
                for i in range(k, m):
                    A[i][j] -= f * v[i - k]
            dot = sum(v[i - k] * b[i] for i in range(k, m))
            f = 2 * dot / vnorm2
            for i in range(k, m):
                b[i] -= f * v[i - k]
        rdiag.append(alpha)

    r0 = max((abs(d) for d in rdiag), default=mpf(0))
    rank = sum(1 for d in rdiag if abs(d) > rank_tol * r0) if r0 > 0 else 0

    x = [mpf(0)] * n
    for k in range(min(rank, n) - 1, -1, -1):
        s = b[k] - sum(A[k][j] * x[j] for j in range(k + 1, n))
        x[k] = s / A[k][k]

    out = [mpf(0)] * n
    for k in range(n):
        out[perm[k]] = x[k] / colscale[perm[k]]

    resid = mpf(0)
    for i in range(m):
        r = sum(rows[i][j] * out[j] for j in range(n)) - rhs[i]
        resid = max(resid, abs(r))

    info = {"rank": rank, "n": n, "rdiag": rdiag, "resid_inf": resid, "pivot": perm}
    return out, info


def _random_tall(rng, m, n):
    rows = [[mpf(rng.uniform(-4, 4)) for _ in range(n)] for _ in range(m)]
    return rows, [mpf(rng.uniform(-4, 4)) for _ in range(m)]


def _scaled_columns(rng, m, n):
    rows, rhs = _random_tall(rng, m, n)
    scales = [mpf(10) ** (24 * j // (n - 1) - 12) for j in range(n)]
    return [[v * s for v, s in zip(row, scales)] for row in rows], rhs


def _rank_deficient(rng, m, n):
    rows, rhs = _random_tall(rng, m, n - 2)
    # two columns that are combinations of the others
    return [row + [row[0] - 3 * row[1], row[2] / 7 + row[0]] for row in rows], rhs


def _geometric(a, g):
    # the geometric basis a^((2k+1) n) sampled on the pin-fit grid
    a = mpf(a)
    ns = range(-(g + 3), g + 4)
    rows = [[a ** ((2 * k + 1) * n) for k in range(g + 1)] for n in ns]
    return rows, [mpf(n) / 3 - a ** n for n in ns]


def _ties(rng, m):
    # equal norms: a column, its reversal, its negation, and a permuted copy
    c = [mpf(rng.uniform(-1, 1)) for _ in range(m)]
    d = list(c)
    rng.shuffle(d)
    cols = [c, c[::-1], [-t for t in c], d, [mpf(rng.uniform(-1, 1)) for _ in range(m)]]
    rows = [list(r) for r in zip(*cols)]
    return rows, [mpf(rng.uniform(-1, 1)) for _ in range(m)]


def _near_ties(rng, m):
    # norms that differ in the last bits: floats tie some of these columns,
    # and the first of them is the pivot
    c = [mpf(rng.uniform(-1, 1)) for _ in range(m)]
    cols = [c, [t * (1 + mpf(2) ** -50) for t in c], [t * (1 - mpf(2) ** -70) for t in c[::-1]]]
    cols.append([mpf(rng.uniform(-1, 1)) for _ in range(m)])
    rows = [list(r) for r in zip(*cols)]
    return rows, [mpf(rng.uniform(-1, 1)) for _ in range(m)]


def _float_misorder(rng):
    # every entry 1 - 2^-54 + 2^-81 of the first column rounds up to 1.0 in
    # floats, so in floats the first column leads and is the pivot, although
    # in truth the second does (the integer entries also reach the residual
    # loop unconverted)
    a = 1 - mpf(2) ** -54 + mpf(2) ** -81
    cols = [[1] + [a] * 7, [1] * 7 + [1 - 3 * mpf(2) ** -53]]
    cols.append([mpf(rng.uniform(-1, 1)) / 4 for _ in range(8)])
    rows = [list(r) for r in zip(*cols)]
    return rows, [mpf(rng.uniform(-1, 1)) for _ in range(8)]


def _zero_column(rng, m, n):
    rows, rhs = _random_tall(rng, m, n)
    for row in rows:
        row[n // 2] = mpf(0)
    return rows, rhs


def _midpoints(rng, m):
    # below a leading 1, entries s 2^-e (1 + 2^-53 -/+ 2^-1050): at 1100 bits
    # the first column's round down to s 2^-e as floats and the second's up,
    # so the second column is the pivot; where 2^-1050 is lost, both are the
    # midpoint or s 2^-e and the first column is.  The entries with e past
    # 1022 are subnormal or 0 as floats.
    es = [rng.randint(1, 4) if i % 2 else rng.randint(1025, 1080) for i in range(m - 1)]
    signs = [rng.choice((-1, 1)) for _ in range(m - 1)]
    cols = [
        [mpf(1)] + [s * mpf(2) ** -e * (1 + mpf(2) ** -53 + d * mpf(2) ** -1050)
                    for s, e in zip(signs, es)]
        for d in (-1, 1)
    ]
    cols.append([mpf(1)] + [mpf(rng.uniform(-1, 1)) / 2**30 for _ in range(m - 1)])
    rows = [list(r) for r in zip(*cols)]
    return rows, [mpf(rng.uniform(-1, 1)) for _ in range(m)]


def _oracle_cases():
    rng = random.Random(4)
    return [
        ("tall-40x9", *_random_tall(rng, 40, 9)),
        ("tall-12x3", *_random_tall(rng, 12, 3)),
        ("square-6", *_random_tall(rng, 6, 6)),
        ("scales-24-digits", *_scaled_columns(rng, 20, 5)),
        ("rank-deficient", *_rank_deficient(rng, 18, 7)),
        ("geom-a2-g4", *_geometric(2, 4)),
        ("geom-a2.7-g4", *_geometric("2.7", 4)),
        ("geom-a2.7-g5", *_geometric("2.7", 5)),
        ("exact-ties", *_ties(rng, 11)),
        ("near-ties", *_near_ties(rng, 9)),
        ("float-misorder", *_float_misorder(rng)),
        ("zero-column", *_zero_column(rng, 15, 5)),
        ("midpoints", *_midpoints(rng, 12)),
    ]


def _raw(values):
    return [v._mpf_ for v in values]


# 1100 bits: mantissas longer than a float's range reach the pivot rule
@pytest.mark.parametrize("bits", [53, 113, 160, 1100])
def test_lstsq_matches_reference_bit_for_bit(bits):
    with mp.workprec(bits):
        for name, rows, rhs in _oracle_cases():
            x, info = lstsq(rows, rhs)
            x_ref, ref = _reference_lstsq(rows, rhs)
            assert _raw(x) == _raw(x_ref), name
            assert _raw(info["rdiag"]) == _raw(ref["rdiag"]), name
            assert info["resid_inf"]._mpf_ == ref["resid_inf"]._mpf_, name
            assert info["pivot"] == ref["pivot"], name
            assert (info["rank"], info["n"]) == (ref["rank"], ref["n"]), name


@pytest.mark.parametrize("where, bad", [("A", "nan"), ("A", "-inf"), ("b", "inf")])
def test_lstsq_rejects_non_finite_entries(where, bad):
    rows, rhs = _random_tall(random.Random(5), 10, 5)
    if where == "A":
        rows[3][2] = mpf(bad)
    else:
        rhs[7] = mpf(bad)
    with pytest.raises(NonFiniteError):
        lstsq(rows, rhs)


def test_lstsq_square_exact():
    rows = [[mpf(2), mpf(1)], [mpf(1), mpf(3)]]
    rhs = [mpf(5), mpf(10)]
    x, info = lstsq(rows, rhs)
    assert info["rank"] == 2
    assert abs(x[0] - 1) <= mpf("1e-30")
    assert abs(x[1] - 3) <= mpf("1e-30")
    assert info["resid_inf"] <= mpf("1e-30")


def test_lstsq_overdetermined_consistent():
    rng = random.Random(2)
    xs = [mpf(rng.uniform(-2, 2)) for _ in range(3)]
    rows, rhs = [], []
    for _ in range(12):
        row = [mpf(rng.uniform(-4, 4)) for _ in range(3)]
        rows.append(row)
        rhs.append(sum(r * x for r, x in zip(row, xs)))
    x, info = lstsq(rows, rhs)
    assert max(abs(a - b) for a, b in zip(x, xs)) <= mpf("1e-28")


def test_lstsq_rank_deficiency_detected():
    rows = [[mpf(1), mpf(2)], [mpf(2), mpf(4)], [mpf(3), mpf(6)]]
    x, info = lstsq(rows, [mpf(1), mpf(2), mpf(3)])
    assert info["rank"] == 1
    with pytest.raises(RankDeficiencyError):
        require_full_rank(info)


def test_lstsq_badly_scaled_columns():
    # column scales spanning ~24 digits stay within the 113-bit significand;
    # equilibration keeps the small-column solution accurate
    rows, rhs = [], []
    rng = random.Random(9)
    for _ in range(8):
        a, b = mpf(rng.uniform(-1, 1)), mpf(rng.uniform(-1, 1))
        rows.append([a * mpf("1e12"), b * mpf("1e-12")])
        rhs.append(a * mpf("1e12") * 3 + b * mpf("1e-12") * 5)
    x, info = lstsq(rows, rhs)
    assert abs(x[0] - 3) <= mpf("1e-8")
    assert abs(x[1] - 5) <= mpf("1e-8")

