import random
from fractions import Fraction

import pytest
from mpmath import fsum, mp, mpf
from oracles import _fraction, _reference_lstsq, exact_lstsq

from commdiff import linalg
from commdiff.errors import NonFiniteError, RankDeficiencyError
from commdiff.families import FamilySpec, build_case
from commdiff.linalg import lstsq, lstsq_mpf, require_full_rank


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
    # norms 2^-50 and 2^-70 apart, relatively: exact norms order columns
    # that the float norm of a double per entry would tie
    c = [mpf(rng.uniform(-1, 1)) for _ in range(m)]
    cols = [c, [t * (1 + mpf(2) ** -50) for t in c], [t * (1 - mpf(2) ** -70) for t in c[::-1]]]
    cols.append([mpf(rng.uniform(-1, 1)) for _ in range(m)])
    rows = [list(r) for r in zip(*cols)]
    return rows, [mpf(rng.uniform(-1, 1)) for _ in range(m)]


def _float_misorder(rng):
    # every entry 1 - 2^-54 + 2^-81 of the first column rounds up to 1.0 as
    # a double, so a float norm puts the first column first; its exact norm
    # is the smaller, and the second column leads wherever the working
    # precision holds the entry (at 53 bits it rounds to 1, and the first
    # column leads)
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
    # the second column's exact norm is the larger and it is the pivot;
    # where 2^-1050 is lost the columns are equal and the first is.  As
    # doubles, the entries lie at midpoints that 2^-1050 decides, and those
    # with e past 1022 are subnormal or 0.
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


def _tiny_norms(rng, m):
    # c, c + 2^-700 r2, c + 2^-600 r1: at 1100 bits the columns differ by
    # about 2^-700 and 2^-600, far above the rank threshold, where the float
    # squares of what is left after the first step would underflow to 0;
    # below 600 bits the differences are lost and the columns are equal
    c, r1, r2 = ([mpf(rng.uniform(-1, 1)) for _ in range(m)] for _ in range(3))
    cols = [c, [x + mpf(2) ** -700 * y for x, y in zip(c, r2)],
            [x + mpf(2) ** -600 * y for x, y in zip(c, r1)]]
    rows = [list(r) for r in zip(*cols)]
    return rows, [mpf(rng.uniform(-1, 1)) for _ in range(m)]


def _cancelled_entry(rng):
    # the first step pivots on (1, 1, 1, 1, 0, 0) (alpha = -2, v = (3, 1, 1,
    # 1, 0, 0)) and updates (3/4, 3/4, 3/4, 3/4, 1, 1/2) by f = 3/4: rows 1
    # to 3 of the second pivot column cancel to exact zeros, on a lower
    # exponent than the entries 1 and 1/2 below them; the third column, near
    # (1, 1/2, 1/2, 1/2, 0, 0), keeps less of its norm
    third = [mpf(v) + mpf(rng.uniform(-1, 1)) * 2**-20 for v in (1, 0.5, 0.5, 0.5, 0, 0)]
    ones = [mpf(1)] * 4 + [mpf(0)] * 2
    rows = [list(r) for r in zip(ones, [mpf(3) / 4] * 4 + [mpf(1), mpf(1) / 2], third)]
    return rows, [mpf(rng.uniform(-1, 1)) for _ in range(6)]


def _carry(rng):
    # the first step pivots on the column of ones and updates (2^-(p+1), 1,
    # -1/2, -1/2) by f = 2^-p / 3, rounded: 1 - f at row 1 rounds up to 1,
    # a mantissa of all ones carried to 2^p, in the second pivot column
    p = mp.prec
    third = [mpf(v) + mpf(rng.uniform(-1, 1)) * 2**-20 for v in ("0.96875", 0.5, 0.5, 0.5)]
    half = mpf(1) / 2
    rows = [list(r) for r in zip([mpf(1)] * 4, [mpf(2) ** -(p + 1), mpf(1), -half, -half], third)]
    return rows, [mpf(rng.uniform(-1, 1)) for _ in range(4)]


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
        ("tiny-norms", *_tiny_norms(rng, 8)),
        ("cancelled-entry", *_cancelled_entry(rng)),
        ("carry", *_carry(rng)),
    ]


def _raw(values):
    return [mpf(v)._mpf_ for v in values]


def _solve(rows, rhs, solver=lstsq):
    """solver on the raw values of rows and rhs (mpfs or ints at the working
    precision), x returned as mpfs."""
    x, info = solver([_raw(row) for row in rows], _raw(rhs))
    return [mp.make_mpf(v) for v in x], info


# lstsq_mpf, the pin fit's solver; 1100 bits: mantissas longer than a
# double's range reach the exact pivot rule; the fit residual is checked
# where it is formed, in the pin fit (tests/test_dressing.py)
@pytest.mark.parametrize("bits", [53, 113, 160, 1100])
def test_lstsq_matches_reference_bit_for_bit(bits):
    with mp.workprec(bits):
        for name, rows, rhs in _oracle_cases():
            x, info = _solve(rows, rhs, lstsq_mpf)
            x_ref, ref = _reference_lstsq(rows, rhs)
            assert _raw(x) == _raw(x_ref), name
            assert info["rdiag"] == _raw(ref["rdiag"]), name
            assert info["pivot"] == ref["pivot"], name
            assert (info["rank"], info["n"]) == (ref["rank"], ref["n"]), name


def test_lstsq_pivots_by_norm_where_float_squares_underflow():
    # the remaining norms 2^-600 and 2^-700 lie far above the rank threshold
    # at 1100 bits, where float squares would read 0; both solvers compare
    # exact norms, but of other columns: lstsq shifts each column by a power
    # of two, lstsq_mpf divides it by its largest entry
    for solver, order in ((lstsq, [0, 2, 1]), (lstsq_mpf, [2, 1, 0])):
        with mp.workprec(1100):
            rows, rhs = _tiny_norms(random.Random(6), 8)
            _x, info = _solve(rows, rhs, solver)
            d = [abs(mp.make_mpf(v)) for v in info["rdiag"]]
        assert info["pivot"] == order and info["rank"] == 3, solver.__name__
        assert d[0] > 1
        assert mpf(2) ** -604 < d[1] < mpf(2) ** -596
        assert mpf(2) ** -704 < d[2] < mpf(2) ** -696


@pytest.mark.parametrize("where, bad", [("A", "nan"), ("A", "-inf"), ("b", "inf")])
def test_lstsq_rejects_non_finite_entries(where, bad):
    rows, rhs = _random_tall(random.Random(5), 10, 5)
    if where == "A":
        rows[3][2] = mpf(bad)
    else:
        rhs[7] = mpf(bad)
    with pytest.raises(NonFiniteError):
        _solve(rows, rhs)


def test_lstsq_square_exact():
    rows = [[mpf(2), mpf(1)], [mpf(1), mpf(3)]]
    rhs = [mpf(5), mpf(10)]
    x, info = _solve(rows, rhs)
    assert info["rank"] == 2
    assert abs(x[0] - 1) <= mpf("1e-30")
    assert abs(x[1] - 3) <= mpf("1e-30")
    assert max(abs(fsum(a * b for a, b in zip(row, x)) - y) for row, y in zip(rows, rhs)) \
        <= mpf("1e-30")


def test_lstsq_overdetermined_consistent():
    rng = random.Random(2)
    xs = [mpf(rng.uniform(-2, 2)) for _ in range(3)]
    rows, rhs = [], []
    for _ in range(12):
        row = [mpf(rng.uniform(-4, 4)) for _ in range(3)]
        rows.append(row)
        rhs.append(sum(r * x for r, x in zip(row, xs)))
    x, info = _solve(rows, rhs)
    assert max(abs(a - b) for a, b in zip(x, xs)) <= mpf("1e-28")


def test_lstsq_rank_deficiency_detected():
    rows = [[mpf(1), mpf(2)], [mpf(2), mpf(4)], [mpf(3), mpf(6)]]
    x, info = _solve(rows, [mpf(1), mpf(2), mpf(3)])
    assert info["rank"] == 1
    with pytest.raises(RankDeficiencyError):
        require_full_rank(info)


# 145: the constant fit's precision at 113 bits (RECURSION_GUARD_BITS above)
@pytest.mark.parametrize("bits", [53, 113, 145, 1100])
def test_lstsq_rank_threshold_is_two_to_the_floor_of_minus_three_quarters_p(bits):
    # the second pivot is about e times the first: rank 2 for e half a bit
    # above 2^floor(-3p/4), rank 1 half a bit below it
    k = (-3 * bits) // 4
    with mp.workprec(bits):
        for solver in (lstsq, lstsq_mpf):
            for e, rank in ((mpf(2) ** (k + mpf("0.5")), 2), (mpf(2) ** (k - mpf("0.5")), 1)):
                _x, info = _solve([[1, 1], [0, e]], [1, 1], solver)
                assert info["rank"] == rank, (solver.__name__, bits, e)


def test_lstsq_badly_scaled_columns():
    # column scales spanning ~24 digits stay within the 113-bit significand;
    # equilibration keeps the small-column solution accurate
    rows, rhs = [], []
    rng = random.Random(9)
    for _ in range(8):
        a, b = mpf(rng.uniform(-1, 1)), mpf(rng.uniform(-1, 1))
        rows.append([a * mpf("1e12"), b * mpf("1e-12")])
        rhs.append(a * mpf("1e12") * 3 + b * mpf("1e-12") * 5)
    x, info = _solve(rows, rhs)
    assert abs(x[0] - 3) <= mpf("1e-8")
    assert abs(x[1] - 5) <= mpf("1e-8")



# lstsq against the exact least-squares solution of the same rows: its
# relative distance, in columns scaled to their largest |entry|, is within
# the final rounding 2^-p plus EXACT_LS_MULTIPLE 2^-F kappa, F = p + 16 and
# kappa the ratio of the largest to the smallest |R diagonal| entry within
# the rank (at most 63 over these cases)
EXACT_LS_MULTIPLE = 2**8


def _exact_distance(rows, rhs, solver=lstsq):
    """(distance, bound) of solver's x from exact_lstsq on the columns that
    solver's rank keeps, x being 0 on the others."""
    x, info = solver(rows, rhs)
    keep = sorted(info["pivot"][:info["rank"]])
    sub = [[row[j] for j in keep] for row in rows]
    ref = exact_lstsq(sub, rhs)
    scale = [max(abs(_fraction(row[j])) for row in sub) for j in range(len(keep))]
    dist = max(abs(_fraction(x[j]) - r) * s for j, r, s in zip(keep, ref, scale)) / max(
        abs(r) * s for r, s in zip(ref, scale))
    assert all(x[j] == (0, 0, 0, 0) for j in set(range(len(x))) - set(keep))
    d = [abs(_fraction(v)) for v in info["rdiag"][:info["rank"]]]
    p = mp.prec
    return dist, Fraction(1, 2**p) + EXACT_LS_MULTIPLE * max(d) / min(d) / 2 ** (p + 16)


@pytest.mark.parametrize("bits", [53, 113, 145, 1100])
def test_lstsq_is_near_the_exact_least_squares_solution(bits):
    with mp.workprec(bits):
        for name, rows, rhs in _oracle_cases():
            dist, bound = _exact_distance([_raw(row) for row in rows], _raw(rhs))
            assert dist <= bound, (name, float(dist), float(bound))


# the constant fits of build_case tables on [-24, 24] at 113 bits
BUILD_CASE_FITS = [
    FamilySpec("trig", 4, {"r1": "1.3"}),
    FamilySpec("poly", 5, {"a2": "0.886695", "a1": "0.708451", "a0": "0.234504"}),
    FamilySpec("geom", 3, {"a": 2, "beta": "0.5"}),
    FamilySpec("trig", 8, {"r1": "1.3"}),
    FamilySpec("poly", 8, {"a2": "0.886695", "a1": "0.708451", "a0": "0.234504"}),
]


@pytest.mark.parametrize("spec", BUILD_CASE_FITS, ids=repr)
def test_constant_fit_is_no_farther_from_exact_least_squares_than_lstsq_mpf(spec, monkeypatch):
    fits = []

    def capture(rows, rhs):
        fits.append((rows, rhs, mp.prec))
        return lstsq(rows, rhs)

    monkeypatch.setattr(linalg, "lstsq", capture)
    with mp.workprec(113):
        build_case(spec, (-24, 24))
    (rows, rhs, prec), = fits
    with mp.workprec(prec):
        dist, bound = _exact_distance(rows, rhs)
        dist_mpf, _bound = _exact_distance(rows, rhs, lstsq_mpf)
    assert dist <= bound, (float(dist), float(bound))
    assert dist <= dist_mpf, (float(dist), float(dist_mpf))


@pytest.mark.parametrize("solve, rows, rhs, error, fragment", [
    (lstsq, [[1, 2, 3], [4, 5, 6]], [1, 2], ValueError, "underdetermined system: 2 equations"),
    (lstsq_mpf, [[1, 2, 3], [4, 5, 6]], [1, 2], ValueError,
     "underdetermined system: 2 equations"),
    (lstsq_mpf, [[1, 2], [3, "nan"], [5, 6]], [1, 2, 3], NonFiniteError, "nan or an infinite"),
    (lstsq_mpf, [[1, 2], [3, 4], [5, 6]], [1, "-inf", 3], NonFiniteError, "nan or an infinite"),
], ids=["lstsq-underdetermined", "lstsq_mpf-underdetermined", "lstsq_mpf-nan",
        "lstsq_mpf-inf-rhs"])
def test_solvers_refuse_what_they_cannot_solve(solve, rows, rhs, error, fragment):
    with pytest.raises(error) as got:
        _solve(rows, rhs, solve)
    assert fragment in str(got.value)
