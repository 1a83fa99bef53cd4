"""Independent spectral-curve extraction for commuting operator pairs.

For commuting (L_base, L_act) with L_base monic of order m, the kernel of
L_base - z is m-dimensional and L_act preserves it; reading the action off in
the basis of unit initial data gives an m x m matrix M(z) whose
characteristic polynomial is z-polynomial data of the joint spectrum.  L_base
is positive, so its kernel recurrence runs forward only and every kernel
value, every entry of M(z) and every coefficient of its characteristic
polynomial is a polynomial in z; they are computed as such, with z kept
symbolic, never sampled, and exactly, the stored operators being dyadic:
each is an int vector on one exponent (numcore.zsum), and each reported
value is rounded once.  For a hyperelliptic pair of orders (2, 2g+1) the
trace vanishes and -det M(z) is the monic curve polynomial F_g; base-point
independence of the coefficients is the well-definedness check, and the
closure defect (distance of L_act psi from the kernel, as a polynomial
identity) turns the commutation hypothesis into a measured quantity.
"""

from __future__ import annotations

from mpmath import mp, mpf

from .errors import CommutationError, WindowError
from .numcore import (
    HyperellipticCurve, ZPoly, poly_mul, raw_ints, rratio, rround, worst_ratio, zsum,
)
from .opalg import CoeffSeq, DiffOp, commutator_residual, exact_compose, exact_form, exact_sum

# relative bound on the trace, the base-point spread and the distance from
# the reference curve in CurveReport.passes, and on the trace and the
# determinant's lead for extract_curve to match a curve
CURVE_TOL = mpf("1e-8")
# kernel values past the m initial ones that the closure defect reads
ACTION_PAD = 3
# coefficient-wise commutator bound of the rank-two pair
RANK2_COMMUTATION_TOL = mpf("1e-10")


def kernel_extend(L: DiffOp, n0: int, init, length: int) -> list:
    """Solve (L - z) psi = 0 forward from initial data, with z symbolic, exactly.

    L must be monic positive of order m; init supplies psi(n0..n0+m-1) as
    exact z-polynomials (ints, exp), sum_k ints[k] 2^exp z^k.  The result is
    psi(n0), psi(n0 + 1), ... to the requested length, each such a pair:
    psi(n + m) = z psi(n) - sum_j u_j(n) psi(n + j) by numcore.zsum, the
    lower u_j read once, as ints on the rows stepped over (raw_ints).
    """
    if not L.is_positive:
        raise ValueError("kernel recurrence needs a positive operator")
    m = L.order
    if not L.is_monic():
        raise ValueError("kernel recurrence needs a monic operator")
    n0 = int(n0)
    if len(init) != m:
        raise ValueError(f"operator of order {m} needs {m} initial values")
    if length < m:
        raise ValueError("length must cover the initial data")
    lo_needed, hi_needed = n0, n0 + length - 1 - m
    if lo_needed < L.window[0] or hi_needed > L.window[1]:
        raise WindowError(
            f"kernel extension needs operator coefficients on [{lo_needed}, {hi_needed}], "
            f"window is {L.window}"
        )
    js = [j for j in L.terms if j != m] if length > m else []
    lower, eu = raw_ints([L.terms[j].values_on(lo_needed, hi_needed) for j in js])
    vals = list(init)
    for i in range(length - m):
        c, e = vals[i]
        # z psi(n), its coefficients one place up, less each u_j(n) psi(n + j)
        terms = [(-u[i], x, eu + f) for u, (x, f) in zip(lower, [vals[i + j] for j in js]) if u[i]]
        vals.append(zsum([(1, [0, *c], e), *terms]))
    return vals


def _sup(polys):
    """The largest |coefficient| of the exact z-polynomials polys, as (int, exp)."""
    e = min(f for _c, f in polys)
    return max((abs(x) << f - e for c, f in polys for x in c), default=0), e


def _ratio(a, b):
    """a / b of two magnitudes (int, exp) as a pair of ints."""
    (x, e), (y, f) = a, b
    return x << max(e - f, 0), y << max(f - e, 0)


def _rounded(x, sign=1) -> ZPoly:
    """The exact z-polynomial sign * x as a ZPoly, each coefficient rounded once."""
    return ZPoly._from_raw([rround(sign * v, x[1], mp.prec) for v in x[0]])


def action_matrix(L_base: DiffOp, L_act: DiffOp, n0: int):
    """The action of L_act on ker(L_base - z) in the basis of unit initial
    data at base point n0, exactly: M(z) as rows of exact z-polynomials, and
    the relative closure defect as a pair of ints, the largest coefficient
    of L_act psi minus the kernel continuation of its first m values, over
    the largest coefficient of L_act psi (1 if that is 0), on the ACTION_PAD
    values past them.  Commutation is not checked here; extract_curve and
    rank2_curve_check guard it."""
    m = L_base.order
    count = m + ACTION_PAD
    cols, gaps, vals = [], [], []
    for i in range(m):
        unit = [([1], 0) if j == i else ([], 0) for j in range(m)]
        psi = CoeffSeq._from_raw(n0, kernel_extend(L_base, n0, unit, count + L_act.order))
        v = L_act.apply(psi).values_on(n0, n0 + count - 1)
        cols.append(v[:m])
        # closure defect: L_act psi must satisfy the same kernel recurrence
        w = kernel_extend(L_base, n0, v[:m], count)
        gaps += [zsum([(1, *v[r]), (-1, *w[r])]) for r in range(m, count)]
        vals += v[m:]
    vscale = _sup(vals)
    return ([[cols[i][r] for i in range(m)] for r in range(m)],
            _ratio(_sup(gaps), vscale if vscale[0] else (1, 0)))


def char_poly_coeffs(entries) -> list:
    """Characteristic polynomial coefficients (monic, low to high) of a
    matrix of exact z-polynomials, each exact: the determinant and minus
    the trace for 2 x 2, Faddeev-LeVerrier above.  With the entries on one
    exponent e, the coefficient of w^(m-k) is an integer polynomial in them
    on k e, so Newton's identities divide by k exactly."""
    m = len(entries)
    e = min((f for row in entries for c, f in row if c), default=0)
    A = [[[x << f - e for x in c] for c, f in row] for row in entries]
    if m == 2:
        (a, b), (c, d) = A
        det = zsum([(1, poly_mul(a, d), 2 * e), (-1, poly_mul(b, c), 2 * e)])
        return [det, zsum([(-1, a, e), (-1, d, e)]), ([1], 0)]

    def total(vs):
        return zsum([(1, v, 0) for v in vs])[0]

    # traces of A^1..A^m
    Mk, traces = A, [total(A[i][i] for i in range(m))]
    for _ in range(m - 1):
        Mk = [[total(poly_mul(Mk[i][k], A[k][j]) for k in range(m)) for j in range(m)]
              for i in range(m)]
        traces.append(total(Mk[i][i] for i in range(m)))
    # Newton's identities: p_k + c_{m-1} p_{k-1} + ... + k c_{m-k} = 0
    coeffs = [None] * m + [[1]]
    for k in range(1, m + 1):
        acc = total([traces[k - 1], *(poly_mul(coeffs[m - i], traces[k - i - 1])
                                      for i in range(1, k))])
        coeffs[m - k] = [-v // k for v in acc]
    return [(c, (m - i) * e) for i, c in enumerate(coeffs)]


class CurveReport:
    """Trace and determinant of M(z), as polynomials in z, for a
    hyperelliptic pair."""

    def __init__(self, g, trace_poly, det_poly, base_independence_residual,
                 closure_defect, matched_curve, commutator_residual_rel):
        self.g = g
        self.trace_poly = trace_poly
        self.det_poly = det_poly
        self.base_independence_residual = base_independence_residual
        self.closure_defect = closure_defect
        self.matched_curve = matched_curve
        self.commutator_residual_rel = commutator_residual_rel

    def agreement(self, curve_c):
        """Largest |coefficient difference| between the matched curve and
        the reference coefficients c_0..c_{2g}; None when no curve matched."""
        if self.matched_curve is None:
            return None
        return max(abs(a - b) for a, b in zip(self.matched_curve.c, curve_c))

    def passes(self, curve_c) -> bool:
        """A curve matched, and the trace and the base-point spread are
        within CURVE_TOL of the determinant's scale, and the agreement with
        curve_c within CURVE_TOL of that curve's scale."""
        dev = self.agreement(curve_c)
        if dev is None:
            return False
        scale = max(self.det_poly.sup_norm(), mpf(1))
        return (
            self.trace_poly.sup_norm() <= CURVE_TOL * scale
            and self.base_independence_residual <= CURVE_TOL * scale
            and dev <= CURVE_TOL * max(mpf(1), max(abs(c) for c in curve_c))
        )

    def doc(self) -> dict:
        """The report as data for to_json: mpf values and coefficient tuples."""
        return {
            "g": self.g,
            "trace": self.trace_poly.coeffs,
            "det": self.det_poly.coeffs,
            "curve": self.matched_curve.c if self.matched_curve else None,
            "base_independence_residual": self.base_independence_residual,
            "closure_defect": self.closure_defect,
            "commutator_residual_rel": self.commutator_residual_rel,
        }


def extract_curve(
    L_base: DiffOp,
    L_act: DiffOp,
    n0_list=(-1, 0, 1),
    commutation_tol=mpf("1e-8"),
) -> CurveReport:
    """Trace and determinant of M(z) at each base point, and the curve they
    give; at least two distinct base points feed the independence residual.
    A base point whose action matrix reads past either operator's window is
    a WindowError naming it, raised before any arithmetic."""
    if L_base.order != 2:
        raise ValueError("curve extraction here fixes the base operator at order 2")
    if L_act.order % 2 == 0:
        raise ValueError("partner operator must have odd order")
    g = (L_act.order - 1) // 2
    if len(set(map(int, n0_list))) < 2:
        raise ValueError("need at least two distinct base points")
    for n0 in map(int, n0_list):
        # action_matrix's reach: the kernel recurrence of L_base, and L_act on
        # the m + ACTION_PAD kernel values from n0 (m = 2)
        base, act = [n0, n0 + ACTION_PAD + L_act.order - 1], [n0, n0 + 1 + ACTION_PAD]
        (blo, bhi), (alo, ahi) = L_base.window, L_act.window
        if n0 < max(blo, alo) or base[1] > bhi or act[1] > ahi:
            raise WindowError(
                f"curve extraction at base point n0={n0} needs L_base on {base} and L_act on "
                f"{act}; the pair's windows are {list(L_base.window)} and {list(L_act.window)}")

    _, comm_rel = commutator_residual(L_base, L_act)
    if comm_rel > commutation_tol:
        raise CommutationError(
            f"operators do not commute: relative residual {comm_rel}"
        )

    actions = [action_matrix(L_base, L_act, int(n0)) for n0 in n0_list]
    # (det, -trace) per base point
    (det, neg_tr), *others = [char_poly_coeffs(M)[:2] for M, _defect in actions]
    worst = mp.make_mpf(worst_ratio((d for _M, d in actions), mp.prec))
    spread = _sup([zsum([(1, *x), (-1, *y)]) for xs in others for x, y in zip(xs, (det, neg_tr))])
    tr_poly, det_poly = _rounded(neg_tr, -1), _rounded(det)

    det_scale = max(det_poly.sup_norm(), mpf(1))
    matched = None
    if (
        tr_poly.sup_norm() <= CURVE_TOL * det_scale
        and det_poly.degree == 2 * g + 1
        and abs(det_poly.lead + 1) <= CURVE_TOL
    ):
        matched = HyperellipticCurve.from_exact(([-v for v in det[0]], det[1]), g, CURVE_TOL)
    return CurveReport(g, tr_poly, det_poly, mp.make_mpf(rround(*spread, mp.prec)), worst,
                       matched, comm_rel)


class Rank2CurveReport:
    """Characteristic data of the 4x4 action for the order-(4, 6) pair."""

    def __init__(self, char_polys, expected_r, mismatch_rel, closure_defect,
                 commutator_residual_rel):
        self.char_polys = char_polys          # dict: w-power -> ZPoly in z
        self.expected_r = expected_r          # ZPoly R(z)
        self.mismatch_rel = mismatch_rel
        self.closure_defect = closure_defect
        self.commutator_residual_rel = commutator_residual_rel


def _coefficient_commutator_rel(A: DiffOp, B: DiffOp) -> mpf:
    """max over (j, n) of |(AB - BA)_j(n)| / max(|AB_j(n)|, |BA_j(n)|), with
    AB and BA exact, on the windows of A * B - B * A, the worst rounded once."""
    a, b = exact_form(A), exact_form(B)
    ab, ba = exact_compose(a, b), exact_compose(b, a)
    (lo, _), comm, _ = exact_sum(ab, ba, -1)
    ((alo, _), abt, _), ((blo, _), bat, _) = ab, ba
    # v != 0 needs a non-zero product coefficient
    return mp.make_mpf(worst_ratio(
        ((abs(v), max(abs(x), abs(y))) for j, c in comm.items()
         for v, x, y in zip(c, abt[j][lo - alo:], bat[j][lo - blo:]) if v), mp.prec))


def rank2_curve_check(L4: DiffOp, L6: DiffOp, expected_r: ZPoly) -> Rank2CurveReport:
    """Verify the 4x4 action characteristic polynomial equals (w^2 - R(z))^2.

    The action is read at base point 0 as a matrix of exact z-polynomials, and
    Faddeev-LeVerrier on ints gives each coefficient of the characteristic
    polynomial exactly.  The squared factor is the rank-two expectation; it
    is verified coefficient by coefficient against the supplied R, read
    exactly, never assumed, and the mismatch ratio is rounded once.
    Commutation is judged coefficient by coefficient too: each coefficient
    of [L4, L6] against the same coefficient of L4 L6 and L6 L4, within
    RANK2_COMMUTATION_TOL.  A scale taken from the whole operators would be
    set by the largest coefficient of L6 at the window edge and would hide
    a broken partner.
    """
    comm_rel = _coefficient_commutator_rel(L4, L6)
    if comm_rel > RANK2_COMMUTATION_TOL:
        raise CommutationError(f"rank-2 pair does not commute: {comm_rel}")

    M, defect = action_matrix(L4, L6, 0)
    c = char_poly_coeffs(M)
    (r,), er = raw_ints([expected_r.raw])
    r2 = poly_mul(r, r), 2 * er
    # (w^2 - R)^2 = w^4 - 2 R w^2 + R^2
    mism = _sup([zsum([(1, *c[0]), (-1, *r2)]), c[1], zsum([(1, *c[2]), (2, r, er)]), c[3]])
    rel = rratio(*_ratio(mism, _sup([r2, ([1], 0)])), mp.prec)
    return Rank2CurveReport({k: _rounded(x) for k, x in enumerate(c[:4])}, expected_r,
                            mp.make_mpf(rel), mp.make_mpf(rratio(*defect, mp.prec)),
                            comm_rel)
