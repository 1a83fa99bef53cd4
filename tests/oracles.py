"""Independent oracles that only the tests call.

The package builds S_n by the level recursion in z (dressing.ansatz_solve);
the tests keep a second construction, the forward/backward march of the
master identity F_g = S_n^2 + (z - U_n^2 - W_n) Q_n Q_{n+1} from seed data
(solve_partner_recursive, each step exact over Fractions of the stored
values), and the eigenfunction side of the theory: points of the curve,
the ratio chi_n(P) = (S_n(z) + w) / Q_n(z), the Baker-Akhiezer products of
consecutive ratios and the factorization of L2 - z.  shift(window, degree)
is the operator T^degree on window.  poly_div_exact, the exact long
division of Fraction lists that the partner march divides by,
_reference_lstsq, the mpf loop that linalg.lstsq_mpf reproduces bit for
bit, and exact_lstsq, the exact least-squares solution that linalg.lstsq
is measured against, live here too.  Curve extraction has Fraction
references, site by site: the kernel recurrence, the apply, the action matrix and its closure defect
(fraction_kernel, fraction_apply, fraction_action_matrix), the
characteristic polynomial by principal minors (fraction_char_poly) and the
reported trace, determinant, base spread and defect (exact_curve);
apply_scalars applies an operator to a scalar sequence through the exact
DiffOp.apply, each value rounded once.  The exact operator algebra
has Fraction references: the commutator and its residual ratio
(exact_commutator, exact_commutator_rel) and the partner assembly
(exact_partner), each value a Fraction, per site, rounded once at the end,
and so do the identity checks (exact_master, exact_linear and
exact_identity_residuals): each per-n ratio a Fraction, the worst of each
identity rounded once; fraction_four_term gives the four-term relation's
factors d_i and c_i, which exact_linear reads.  The pair rule (fraction_pair_rule) and the curve
that the master identity gives (fraction_curve) are Fraction ratios of the
stored values; poly_dev measures two ZPolys' distance.  The level
recursion of the ansatz solve has one too (fraction_march), on the
solver's rounded inputs, with fraction_table and exact_table converting
its exact column tables to Fractions and back.  test_dressing runs it once over
all 3g + 1 fit columns per case and checks both the exact four-column
march and the rounded fit rows against that one march; its reference
solve reads the same inputs and fit rows.

Helpers that several test modules share live here as well, so that no
test module imports another and none keeps its own copy: trap_values, a
pool of values that the arithmetic must not special-case wrongly (exact 0
and +-1, negative values and values wider than the working precision);
CRITERION_1_PARAMS, the parameters of each family in acceptance criterion
1, which other tests build and run through the CLI too; and the value
converters _fraction (a raw libmp value as a Fraction), fraction_of (an
mpf as a Fraction) and raws (mpfs as their raw values, for bit-for-bit
comparisons).

Import them as `from oracles import ...`; pytest's default import mode puts
this directory on sys.path.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import combinations, permutations, repeat, zip_longest

from mpmath import mp, mpf, sqrt
from mpmath.libmp import from_rational, fzero, round_nearest

from commdiff.dressing import DEGENERACY_REL, DressingState
from commdiff.errors import DegenerateDenominatorError, InconsistentDataError, WindowError
from commdiff.numcore import HyperellipticCurve, ZPoly, raw_ints, rround, scalar
from commdiff.opalg import CoeffSeq, DiffOp
from commdiff.spectral import ACTION_PAD


def shift(window, degree: int = 1) -> DiffOp:
    return DiffOp.build({degree: 1}, window)


def trap_values(rng, bits):
    """Exact 0 and +-1, negative values, and values built at twice `bits`,
    which mpf's unary minus and abs round to the working precision."""
    with mp.workprec(2 * bits):
        wide = [mpf(rng.uniform(-3, 3)) * mp.sqrt(2) * mpf(10) ** rng.randint(-6, 6)
                for _ in range(4)]
    return [mpf(0), mpf(1), mpf(-1), -mpf(rng.uniform(0, 3)) / 7, *wide]


CRITERION_1_PARAMS = {
    "trig": {"r1": 1},
    "poly": {"a2": 1, "a0": 0, "a1": 0},
    "geom": {"beta": 1, "a": 2},
    "elliptic": {"c2": 0, "c1": -1, "c0": 0},
}


# ---------------------------------------------------------------------------
# curve points
# ---------------------------------------------------------------------------


class CurvePoint:
    """A point (z, w) with w^2 = F_g(z)."""

    __slots__ = ("z", "w")

    def __init__(self, z, w):
        self.z = scalar(z)
        self.w = scalar(w)

    def __repr__(self):
        return f"CurvePoint(z={mp.nstr(self.z, 8)}, w={mp.nstr(self.w, 8)})"


def curve_point(curve: HyperellipticCurve, z, branch: int = 1) -> CurvePoint:
    """Lift z to the curve on the requested branch; needs F_g(z) >= 0."""
    z = scalar(z)
    fz = curve.fpoly().eval(z)
    if fz < 0:
        raise InconsistentDataError(f"F(z) = {fz} < 0 at z = {z}: no real branch")
    return CurvePoint(z, branch * sqrt(fz))


# ---------------------------------------------------------------------------
# recursive partner solve
# ---------------------------------------------------------------------------


DIVISION_TOL = Fraction(1, 10 ** 20)


def poly_div_exact(num, den):
    """Long division num = q den + r of Fraction coefficient lists (z^k
    coefficient at k), exactly; returns (q, max |r coefficient|), q trimmed
    of trailing zeros.  The caller judges whether the remainder is small
    enough to call the division exact.  Raises if den is zero.
    """
    den = _trimmed(list(den))
    if not den:
        raise DegenerateDenominatorError("division by the zero polynomial")
    rem, dd = list(num), len(den) - 1
    q = [Fraction(0)] * max(len(rem) - dd, 0)
    for k in range(len(rem) - 1, dd - 1, -1):
        f = q[k - dd] = rem[k] / den[-1]
        for j in range(dd + 1):
            rem[k - dd + j] -= f * den[j]
    return _trimmed(q), _fpsup(rem)


def solve_partner_recursive(
    U: CoeffSeq,
    W: CoeffSeq,
    curve: HyperellipticCurve,
    s_init,
    n0: int,
    n_range,
) -> DressingState:
    """March the master identity from seed polynomials (S_{n0-1}, S_{n0}).

    Each step at n divides F - S_n^2 by (z - U_n^2 - W_n) times the Q that
    S_n and its known neighbour give by the pair rule: Q_n marching forward
    (n = n0..hi-1), Q_{n+1} backward (n = n0-1 down to lo+1).  The quotient
    is the other Q, from which the pair rule gives the new neighbour.  Each
    step is exact over Fractions of the stored values, and each new S
    coefficient is rounded once at mp.prec, as a stored S table is.  A
    pair-rule denominator within DEGENERACY_REL of cancelling, or a
    division residual above DIVISION_TOL times the local scale, is an error
    naming n.
    """
    lo, hi = int(n_range[0]), int(n_range[1])
    n0 = int(n0)
    if not (lo <= n0 - 1 and n0 <= hi):
        raise WindowError(f"seed index {n0} incompatible with range [{lo}, {hi}]")
    fp = _fraction_poly(curve.fpoly())
    S = {n0 - 1: s_init[0], n0: s_init[1]}
    u = {n: fraction_of(U.at(n)) for n in range(lo, hi + 1)}

    for n, d in [*zip(range(n0, hi), repeat(1)), *zip(range(n0 - 1, lo, -1), repeat(-1))]:
        k = max(n, n - d)  # the Q index between S_n and its known neighbour
        den = u[k - 1] + u[k]
        if abs(den) <= fraction_of(DEGENERACY_REL) * max(abs(u[k - 1]), abs(u[k])):
            raise DegenerateDenominatorError(f"partner march at n={k}: U_{k - 1} + U_{k} = {den}")
        Qk = [-v / den for v in _fpsum(_fraction_poly(S[k - 1]), _fraction_poly(S[k]))]
        sn = _fraction_poly(S[n])
        num = _fpsum(fp, [-v for v in _fpmul(sn, sn)])
        lin = [-u[n] ** 2 - fraction_of(W.at(n)), Fraction(1)]
        Qother, resid = poly_div_exact(num, _fpmul(lin, Qk))
        if resid > DIVISION_TOL * max(_fpsup(num), _fpsup(fp), 1):
            raise InconsistentDataError(
                f"inconsistent data: division residual {rounded_fraction(resid)} at n={n}"
            )
        S[n + d] = ZPoly._from_raw(rounded_poly(_fpsum(
            [-(u[n] + u[n + d]) * v for v in Qother], [-v for v in sn])))
    return DressingState.from_s_table(U, W, S, curve=curve)


# ---------------------------------------------------------------------------
# chi, the eigenfunction products, factorization
# ---------------------------------------------------------------------------


def chi_eval(state: DressingState, n: int, P: CurvePoint) -> mpf:
    """chi_n(P) = (S_n(z) + w) / Q_n(z); errors on the divisor of Q_n."""
    qv = state.q(n).eval(P.z)
    qscale = state.q(n).sup_norm() * max(mpf(1), abs(P.z)) ** state.curve.g
    if abs(qv) <= DEGENERACY_REL * qscale:
        raise DegenerateDenominatorError(
            f"Q_{n}(z) = {qv} vanishes at z = {P.z}: chi has a pole there"
        )
    return (state.s(n).eval(P.z) + P.w) / qv


def baker_akhiezer(state: DressingState, P: CurvePoint, n: int) -> mpf:
    """psi(n, P) as the product of consecutive chi ratios, psi(0) = 1."""
    n = int(n)
    if n == 0:
        return mpf(1)
    acc = mpf(1)
    if n > 0:
        for k in range(n):
            acc *= chi_eval(state, k, P)
        return acc
    for k in range(n, 0):
        # the inverse product hits a zero of chi when S_k(z) cancels w
        num = state.s(k).eval(P.z) + P.w
        nscale = max(abs(state.s(k).eval(P.z)), abs(P.w))
        if nscale == 0 or abs(num) <= DEGENERACY_REL * nscale:
            raise DegenerateDenominatorError(
                f"chi_{k}(P) vanishes (S + w = {num}): inverse product undefined"
            )
        acc /= chi_eval(state, k, P)
    return acc


def factorization_check(state: DressingState, L2: DiffOp, P: CurvePoint, f: CoeffSeq) -> mpf:
    """Sup difference of (L2 - z) f and (T + U_n + U_{n+1} + chi_{n+1})(T - chi_n) f."""
    l2f = apply_scalars(L2, f)
    lhs = CoeffSeq.tabulate(lambda n: l2f.at(n) - f.at(n) * P.z, l2f.window)
    qlo, qhi = state.window[0] + 1, state.window[1]
    glo = max(f.window[0], qlo)
    ghi = min(f.window[1] - 1, qhi)
    inner = CoeffSeq.tabulate(
        lambda n: f.at(n + 1) - chi_eval(state, n, P) * f.at(n), (glo, ghi)
    )
    rlo = max(glo, state.U.window[0], qlo - 1)
    rhi = min(ghi - 1, state.U.window[1] - 1, qhi - 1)
    rhs = CoeffSeq.tabulate(
        lambda n: inner.at(n + 1)
        + (state.U.at(n) + state.U.at(n + 1) + chi_eval(state, n + 1, P)) * inner.at(n),
        (rlo, rhi),
    )
    lo = max(lhs.window[0], rhs.window[0])
    hi = min(lhs.window[1], rhs.window[1])
    if hi < lo:
        raise WindowError("factorization check window is empty")
    return max(abs(lhs.at(n) - rhs.at(n)) for n in range(lo, hi + 1))


# ---------------------------------------------------------------------------
# exact curve extraction
# ---------------------------------------------------------------------------


def apply_scalars(L: DiffOp, f: CoeffSeq) -> CoeffSeq:
    """L f for a scalar sequence f through DiffOp.apply, each value of f a
    constant exact z-polynomial, each value of L f rounded once at mp.prec."""
    (vals,), exp = raw_ints([f.raw])
    out = L.apply(CoeffSeq._from_raw(f.n_min, [([v], exp) for v in vals]))
    return CoeffSeq._from_raw(out.n_min, [rround(sum(c), e, mp.prec) for c, e in out.raw])


def exact_z(p: ZPoly):
    """The ZPoly p as an exact z-polynomial (ints, exp)."""
    (ints,), exp = raw_ints([p.raw])
    return ints, exp


def _trimmed(p: list) -> list:
    while p and not p[-1]:
        p.pop()
    return p


def fraction_z(x) -> list:
    """The exact z-polynomial x = (ints, exp) as Fractions, trailing zeros trimmed."""
    return _trimmed([v * Fraction(2) ** x[1] for v in x[0]])


def rounded_poly(p) -> list:
    """The raw coefficients of the Fraction list p, each rounded once at
    mp.prec, trailing exact zeros trimmed as ZPoly trims them."""
    out = [from_rational(v.numerator, v.denominator, mp.prec, round_nearest) for v in p]
    while out and out[-1] == fzero:
        out.pop()
    return out


def fraction_kernel(L: DiffOp, n0: int, init, length: int) -> list:
    """psi(n0), psi(n0 + 1), ... of (L - z) psi = 0 as Fraction lists, site by
    site from the Fraction lists init: psi(n + m) = z psi(n) - sum_j u_j(n)
    psi(n + j), trailing zeros trimmed; a WindowError where L's window ends."""
    m = L.order
    if n0 < L.window[0] or n0 + length - 1 - m > L.window[1]:
        raise WindowError(f"kernel rows [{n0}, {n0 + length - 1 - m}] outside {L.window}")
    vals = [list(v) for v in init]
    for i in range(length - m):
        vals.append(_trimmed(_fpsum([Fraction(0), *vals[i]], *(
            [-_fraction(u.raw[n0 + i - u.n_min]) * c for c in vals[i + j]]
            for j, u in L.terms.items() if j != m))))
    return vals


def fraction_apply(L: DiffOp, psi: list, n0: int):
    """(lo, values) of L psi for the Fraction lists psi(n0), psi(n0 + 1), ...:
    sum_j u_j(n) psi(n + j) at each n of DiffOp.apply's window."""
    lo = max(L.window[0], n0 - L.min_degree)
    hi = min(L.window[1], n0 + len(psi) - 1 - L.order)
    return lo, [_trimmed(_fpsum([], *([_fraction(u.raw[n - u.n_min]) * c for c in psi[n + j - n0]]
                                      for j, u in L.terms.items()))) for n in range(lo, hi + 1)]


def fraction_action_matrix(L_base: DiffOp, L_act: DiffOp, n0: int):
    """(M, defect) of spectral.action_matrix in Fractions: M as rows of
    Fraction lists, and the closure defect, the largest |coefficient| of
    L_act psi minus the kernel continuation of its first m values over the
    largest |coefficient| of L_act psi (1 if 0), on the ACTION_PAD values
    past them; a WindowError where a window ends."""
    m = L_base.order
    count = m + ACTION_PAD
    cols, defect, vscale = [], Fraction(0), Fraction(0)
    for i in range(m):
        unit = [[Fraction(1)] if j == i else [] for j in range(m)]
        lo, v = fraction_apply(L_act, fraction_kernel(L_base, n0, unit, count + L_act.order), n0)
        if lo > n0 or len(v) < n0 - lo + count:
            raise WindowError(f"L_act psi on [{n0}, {n0 + count - 1}] needs more kernel values")
        v = v[n0 - lo:n0 - lo + count]
        cols.append(v[:m])
        w = fraction_kernel(L_base, n0, v[:m], count)
        for r in range(m, count):
            defect = max(defect, _fpsup(_fpsum(v[r], [-x for x in w[r]])))
            vscale = max(vscale, _fpsup(v[r]))
    return [[cols[i][r] for i in range(m)] for r in range(m)], defect / (vscale or 1)


def fraction_char_poly(M) -> list:
    """det(w - M) of a matrix of Fraction lists (polynomials in z), as the
    coefficients of w^0..w^m: the coefficient of w^(m-k) is (-1)^k times the
    sum of the principal k x k minors, each by the Leibniz formula."""
    m = len(M)
    out = []
    for k in range(m + 1):
        acc = []
        for rows in combinations(range(m), k):
            for cols in permutations(rows):
                term = [Fraction((-1) ** (k + sum(a > b for a, b in combinations(cols, 2))))]
                for r, c in zip(rows, cols):
                    term = _fpmul(term, M[r][c])
                acc = _fpsum(acc, term)
        out.append(_trimmed(acc))
    return out[::-1]


def exact_curve(L_base: DiffOp, L_act: DiffOp, n0_list=(-1, 0, 1)):
    """(trace, det, spread, defect) of spectral.extract_curve in Fractions:
    the trace and the determinant of M(z) at n0_list[0] as Fraction lists,
    the largest |coefficient| difference of either from those at the other
    base points, and the worst closure defect."""
    per, worst = [], Fraction(0)
    for n0 in n0_list:
        M, defect = fraction_action_matrix(L_base, L_act, n0)
        worst = max(worst, defect)
        det, neg_tr, _ = fraction_char_poly(M)
        per.append(([-v for v in neg_tr], det))
    spread = max(_fpsup(_fpsum(x, [-v for v in y]))
                 for other in per[1:] for x, y in zip(other, per[0]))
    return (*per[0], spread, worst)


# ---------------------------------------------------------------------------
# least squares
# ---------------------------------------------------------------------------


def _reference_lstsq(rows, rhs, rank_tol=None):
    """The row-major mpf loop that `lstsq_mpf` must reproduce bit for bit,
    each pivot the first column of largest exact norm, summed in Fractions."""
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
        # the first column of largest exact norm over rows k..
        best, best_j = -1, k
        for j in range(k, n):
            cn = sum(fraction_of(A[i][j]) ** 2 for i in range(k, m))
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
    return out, {"rank": rank, "n": n, "rdiag": rdiag, "pivot": perm}


def exact_lstsq(rows, rhs):
    """The least-squares solution of the raw rows and rhs, of full column
    rank, as Fractions: the normal equations A^T A y = A^T b over the ints
    that hold each column on its own exponent (numcore.raw_ints), reduced
    by fraction-free (Bareiss) elimination, then solved back over
    Fractions."""
    cols = [raw_ints([col]) for col in zip(*rows)]
    ((b,), eb), n = raw_ints([rhs]), len(cols)
    M = [[sum(map(operator.mul, c, d)) for (d,), _e in cols] + [sum(map(operator.mul, c, b))]
         for (c,), _e in cols]
    prev = 1
    for k in range(n):
        piv = next(i for i in range(k, n) if M[i][k])
        M[k], M[piv] = M[piv], M[k]
        for i in range(k + 1, n):
            M[i] = [0] * (k + 1) + [(M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
                                    for j in range(k + 1, n + 1)]
        prev = M[k][k]
    y = [Fraction(0)] * n
    for k in range(n - 1, -1, -1):
        y[k] = (M[k][n] - sum(M[k][j] * y[j] for j in range(k + 1, n))) / Fraction(M[k][k])
    return [v * Fraction(2) ** (eb - e) for v, (_c, e) in zip(y, cols)]


# ---------------------------------------------------------------------------
# exact operator algebra
# ---------------------------------------------------------------------------


def _fraction(v) -> Fraction:
    """The raw libmp value v as an exact Fraction."""
    sign, man, exp, _ = v
    f = man * Fraction(2) ** exp
    return -f if sign else f


def fraction_of(x) -> Fraction:
    """The mpf x as an exact Fraction."""
    return _fraction(x._mpf_)


def raws(vals) -> list:
    """The raw libmp values of the mpfs vals, a None kept as None."""
    return [None if v is None else v._mpf_ for v in vals]


def fraction_op(L: DiffOp):
    """L as (window, terms) with every value an exact Fraction."""
    return L.window, {j: [_fraction(v) for v in t.raw] for j, t in L.terms.items()}


def fraction_form(x):
    """The exact form (window, terms, exp) of opalg as (window, terms) with
    every value an exact Fraction."""
    window, terms, exp = x
    scale = Fraction(2) ** exp
    return window, {j: [v * scale for v in t] for j, t in terms.items()}


def _fraction_compose(x, y):
    """x o y of two Fraction operators, site by site: the T^(i+j) coefficient
    at n sums x_i(n) y_j(n+i), on composition's window."""
    ((xlo, xhi), xt), ((ylo, yhi), yt) = x, y
    lo, hi = max(xlo, ylo - min(xt)), min(xhi, yhi - max(xt))
    assert lo <= hi
    out = {}
    for n in range(lo, hi + 1):
        for i, a in xt.items():
            for j, b in yt.items():
                vals = out.setdefault(i + j, [Fraction(0)] * (hi - lo + 1))
                vals[n - lo] += a[n - xlo] * b[n + i - ylo]
    return (lo, hi), out


def _fraction_sum(x, y, sign=1):
    """x + sign y termwise on the common window, a missing term read as 0."""
    ((xlo, xhi), xt), ((ylo, yhi), yt) = x, y
    lo, hi = max(xlo, ylo), min(xhi, yhi)
    zeros = [Fraction(0)] * (hi - lo + 1)
    return (lo, hi), {
        j: [a + sign * b for a, b in zip(xt[j][lo - xlo:] if j in xt else zeros,
                                         yt[j][lo - ylo:] if j in yt else zeros)]
        for j in sorted({*xt, *yt})
    }


def rounded_op(x, prec: int) -> DiffOp:
    """The DiffOp of the Fraction operator x, each value rounded once at prec."""
    (lo, hi), terms = x
    return DiffOp({j: CoeffSeq(lo, [mp.make_mpf(from_rational(
        f.numerator, f.denominator, prec, round_nearest)) for f in vals])
        for j, vals in terms.items()}, (lo, hi))


def exact_commutator(A: DiffOp, B: DiffOp):
    """[A, B] = A B - B A in Fractions: (window, terms)."""
    a, b = fraction_op(A), fraction_op(B)
    return _fraction_sum(_fraction_compose(a, b), _fraction_compose(b, a), -1)


def _fraction_sup(x) -> Fraction:
    return max(abs(v) for vals in x[1].values() for v in vals)


def exact_commutator_rel(A: DiffOp, B: DiffOp) -> mpf:
    """sup|[A, B]| / (sup|A| sup|B|) as a Fraction, rounded once at mp.prec."""
    r = _fraction_sup(exact_commutator(A, B)) / (
        _fraction_sup(fraction_op(A)) * _fraction_sup(fraction_op(B)))
    return mp.make_mpf(from_rational(r.numerator, r.denominator, mp.prec, round_nearest))


def exact_partner(state: DressingState, L2: DiffOp) -> DiffOp:
    """sum_k (q_{n,k} T - s_{n,k}) o L2^k in Fractions, L2^0 the identity on
    L2's window and L2^k = L2 o L2^(k-1), each value rounded once at mp.prec."""
    lo, hi = state.window[0] + 1, state.window[1]
    l2 = fraction_op(L2)
    l2k = (L2.window, {0: [Fraction(1)] * (L2.window[1] - L2.window[0] + 1)})
    acc = None
    for k in range(state.curve.g + 1):
        if k:
            l2k = _fraction_compose(l2, l2k)
        pk = ((lo, hi), {1: [fraction_of(state.q(n).coeff(k)) for n in range(lo, hi + 1)],
                         0: [-fraction_of(state.s(n).coeff(k)) for n in range(lo, hi + 1)]})
        term = _fraction_compose(pk, l2k)
        acc = term if acc is None else _fraction_sum(acc, term)
    return rounded_op(acc, mp.prec)


# ---------------------------------------------------------------------------
# exact identity checks
# ---------------------------------------------------------------------------


def _fraction_poly(p: ZPoly) -> list:
    return [_fraction(v) for v in p.raw]


def _fpmul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _fpsum(*polys):
    """The coefficient-wise sum of polys, a missing coefficient read as 0."""
    out = [Fraction(0)] * max(map(len, polys))
    for p in polys:
        for k, v in enumerate(p):
            out[k] += v
    return out


def _fpsup(p) -> Fraction:
    return max(map(abs, p), default=Fraction(0))


def _master_terms(state: DressingState, n: int):
    """S_n^2 and (z - U_n^2 - W_n) Q_n Q_{n+1} in Fractions."""
    S = _fraction_poly(state.s(n))
    U, W = fraction_of(state.U.at(n)), fraction_of(state.W.at(n))
    return _fpmul(S, S), _fpmul(_fpmul([-U ** 2 - W, Fraction(1)], _fraction_poly(state.q(n))),
                                _fraction_poly(state.q(n + 1)))


def exact_master(state: DressingState, n: int):
    """(r, scale) in Fractions: r = F_g - S_n^2 - (z - U_n^2 - W_n) Q_n Q_{n+1}
    and scale the largest |coefficient| of F_g, the two products and 1."""
    F, (s2, prod) = _fraction_poly(state.curve.fpoly()), _master_terms(state, n)
    r = _fpsum(F, [-v for v in s2], [-v for v in prod])
    return r, max(_fpsup(F), _fpsup(s2), _fpsup(prod), 1)


def fraction_curve(state: DressingState, n: int) -> list:
    """The curve coefficients c_0..c_2g that the master identity at n gives:
    the Fraction polynomial S_n^2 + (z - U_n^2 - W_n) Q_n Q_{n+1} over its
    lead, each ratio rounded once at mp.prec."""
    f = _fpsum(*_master_terms(state, n))
    return [rounded_fraction(v / f[-1]) for v in f[:-1]]


def fraction_pair_rule(state: DressingState, n: int) -> list:
    """Q_n = -(S_{n-1} + S_n) / (U_{n-1} + U_n) in Fractions of the stored
    values, trailing zeros trimmed."""
    den = fraction_of(state.U.at(n - 1)) + fraction_of(state.U.at(n))
    return _trimmed([-v / den for v in _fpsum(_fraction_poly(state.s(n - 1)),
                                             _fraction_poly(state.s(n)))])


def poly_dev(p: ZPoly, q: ZPoly) -> mpf:
    """The largest |coefficient| of p - q, a missing coefficient read as 0."""
    return max((abs(a - b) for a, b in zip_longest(p.coeffs, q.coeffs, fillvalue=mpf(0))),
               default=mpf(0))


def fraction_four_term(U, W, n: int):
    """((s_i, c_i, d_i), i = 1..4) in Fractions of the stored U and W: the
    four-term relation R_n = sum_i d_i (z + c_i) S_{n+s_i}."""
    Um1, U0, U1, U2 = (fraction_of(U.at(k)) for k in range(n - 1, n + 3))
    W0, W1 = (fraction_of(W.at(k)) for k in (n, n + 1))
    right, left = U1 + U2, Um1 + U0
    return ((-1, -U0 ** 2 - W0, right), (0, U0 * U1 + Um1 * (U0 + U1) - W0, right),
            (1, U0 * U1 + (U0 + U1) * U2 - W1, -left), (2, -U1 ** 2 - W1, -left))


def exact_linear(state: DressingState, n: int):
    """(R_n, scale) in Fractions: the four-term relation R_n = sum_i d_i
    (z + c_i) S_{n+s_i} and the largest |coefficient| of its terms and 1."""
    terms = [_fpmul([d * c, d], _fraction_poly(state.s(n + s)))
             for s, c, d in fraction_four_term(state.U, state.W, n)]
    return _fpsum(*terms), max(max(map(_fpsup, terms)), 1)


def rounded_fraction(x: Fraction) -> mpf:
    """x rounded once at mp.prec."""
    return mp.make_mpf(from_rational(x.numerator, x.denominator, mp.prec, round_nearest))


def exact_identity_residuals(state: DressingState, window, skew: bool = False):
    """identity_residuals in Fractions: max |r| / scale of exact_master at
    each n, of exact_linear, and |R_n + R_{-n-1}| over exact_linear's scale
    at n, on identity_residuals' ranges; each ratio exact, the worst of each
    identity rounded once at mp.prec (skew_rel None without skew or without
    a pair)."""
    lo, hi = window
    s_lo, s_hi = state.window

    def worst(pairs):
        return rounded_fraction(max((_fpsup(r) / scale for r, scale in pairs),
                                    default=Fraction(0)))

    master_rel = worst(exact_master(state, n)
                       for n in range(max(lo, s_lo + 1), min(hi, s_hi - 1) + 1))
    linear_rel = worst(exact_linear(state, n)
                       for n in range(max(lo, s_lo + 1), min(hi, s_hi - 2) + 1))
    mirrored = range(0, min(hi, s_hi - 2, -(s_lo + 2)) + 1)
    if not (skew and mirrored):
        return master_rel, linear_rel, None
    skew_rel = worst((_fpsum(exact_linear(state, n)[0], exact_linear(state, -n - 1)[0]),
                      exact_linear(state, n)[1]) for n in mirrored)
    return master_rel, linear_rel, skew_rel


# ---------------------------------------------------------------------------
# exact level recursion
# ---------------------------------------------------------------------------


def fraction_row(f, vs):
    """sum_i f_i vs_i over four Fraction vectors, the S_{n-1..n+2} of a level."""
    return [sum(map(operator.mul, f, col)) for col in zip(*vs)]


def fraction_march(dc, D, inv, top, seeds, n0, span):
    """The level recursion of dressing._march over Fractions, on the
    solver's rounded inputs: dc maps n to the four d_i c_i, D to D_n and inv
    to 1 / (D_n D_{n+2}) as the solver rounded it; top is level g and seeds
    holds (q0, q1, s0) per level below it.  Every affine vector is padded
    with zeros to the widest seed's width; every level is {n: [Fraction]}."""
    full = max(len(v) for seed in seeds for v in seed)

    def pad(v):
        return list(v) + [Fraction(0)] * (full - len(v))

    a, b = span
    levels = [{n: pad(v) for n, v in top.items()}]
    for q0, q1, s0 in seeds:
        up = levels[-1]
        step = {n: [v * inv[n] for v in fraction_row(dc[n], [up[n + k] for k in (-1, 0, 1, 2)])]
                for n in range(a + 1, b - 1)}
        q = {n0: pad(q0), n0 + 1: pad(q1)}
        for n in range(n0, b - 1):
            q[n + 2] = [x - y for x, y in zip(q[n], step[n])]
        for n in range(n0 - 1, a, -1):
            q[n] = [x + y for x, y in zip(q[n + 2], step[n])]
        s = {n0: pad(s0)}
        for n in range(n0 + 1, b + 1):
            s[n] = [-D[n] * x - y for x, y in zip(q[n], s[n - 1])]
        for n in range(n0, a, -1):
            s[n - 1] = [-D[n] * x - y for x, y in zip(q[n], s[n])]
        levels.append(s)
    return levels


def fraction_table(table, start: int) -> dict:
    """An exact table of dressing's level recursion, (columns, exp) with
    each column a list of ints over n = start, start + 1, ..., as {n:
    [Fraction]}, one entry per column."""
    cols, exp = table
    scale = Fraction(2) ** exp
    return {start + i: [v * scale for v in row] for i, row in enumerate(zip(*cols))}


def exact_table(fracs: dict):
    """{n: [Fraction]} of dyadic values on consecutive n as an exact table
    (columns, exp), columns over the n in order and exp the least exponent
    the values need, at most 0."""
    exp = -max((v.denominator.bit_length() - 1 for vs in fracs.values() for v in vs), default=0)
    rows = [[int(v * 2 ** -exp) for v in fracs[n]] for n in sorted(fracs)]
    return [list(col) for col in zip(*rows)], exp
