"""Independent spectral-curve extraction for commuting operator pairs.

For commuting (L_base, L_act) with L_base monic of order m, the kernel of
L_base - z is m-dimensional and L_act preserves it; reading the action off in
the basis of unit initial data gives an m x m matrix M(z) whose
characteristic polynomial is z-polynomial data of the joint spectrum.  L_base
is positive, so its kernel recurrence runs forward only and every kernel
value, every entry of M(z) and every coefficient of its characteristic
polynomial is a polynomial in z; they are computed as such, with z kept
symbolic, never sampled.  For a hyperelliptic pair of orders (2, 2g+1) the
trace vanishes and -det M(z) is the monic curve polynomial F_g; base-point
independence of the coefficients is the well-definedness check, and the
closure defect (distance of L_act psi from the kernel, as a polynomial
identity) turns the commutation hypothesis into a measured quantity.
"""

from __future__ import annotations

from functools import reduce
from operator import add

from mpmath import mp, mpf
from mpmath.libmp import fzero

from .errors import CommutationError, WindowError
from .numcore import HyperellipticCurve, ZPoly, rmul, rpoly_sub, scalar
from .opalg import CoeffSeq, DiffOp, commutator_residual

# relative bound on the trace, the base-point spread and the distance from
# the reference curve in CurveReport.passes, and on the trace and the
# determinant's lead for extract_curve to match a curve
CURVE_TOL = mpf("1e-8")
# kernel values past the m initial ones that the closure defect reads
ACTION_PAD = 3
# coefficient-wise commutator bound of the rank-two pair
RANK2_COMMUTATION_TOL = mpf("1e-10")


def kernel_extend(L: DiffOp, n0: int, init, length: int):
    """Solve (L - z) psi = 0 forward from initial data, with z symbolic.

    L must be monic positive of order m; init supplies the ZPoly values
    psi(n0..n0+m-1) and the recurrence fills out to the requested length.
    The result is the list of z-coefficient sequences [psi_0, psi_1, ...] of
    psi = sum_k psi_k z^k, to which an operator free of z applies one by one.
    Each step shifts the raw vector of psi(n) up one place for z psi(n) and
    subtracts u_j(n) psi(n + j), rmul's products, by rpoly_sub in degree
    order; each lower u_j is read once, as one raw slice.
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
    lower = [(j, u.values_on(lo_needed, hi_needed))
             for j, u in L.terms.items() if j != m] if length > m else []
    p = mp.prec
    vals = [v.raw for v in init]
    for i in range(length - m):
        # z psi(n): the coefficients one place up; psi = 0 stays empty
        acc = [fzero, *vals[i]] if vals[i] else []
        for j, uv in lower:
            u = uv[i]
            if u != fzero:
                acc = rpoly_sub(acc, [rmul(u, v, p) for v in vals[i + j]], p)
        vals.append(acc)
    width = max(map(len, vals))
    return [CoeffSeq._from_raw(n0, [v[k] if k < len(v) else fzero for v in vals])
            for k in range(width)]


def _z_values(seqs, n0: int, count: int) -> list:
    """The ZPoly values at n0..n0+count-1 of z-coefficient sequences."""
    cols = [s.values_on(n0, n0 + count - 1) for s in seqs]
    return [ZPoly._from_raw([c[r] for c in cols]) for r in range(count)]


def action_matrix(L_base: DiffOp, L_act: DiffOp, n0: int):
    """The action of L_act on ker(L_base - z) in the basis of unit initial
    data at base point n0: M(z) as rows of ZPoly entries, and the relative
    closure defect, the largest coefficient of L_act psi minus the kernel
    continuation of its first m values, over the largest coefficient of
    L_act psi, on the ACTION_PAD values past them.  Commutation is not
    checked here; extract_curve and rank2_curve_check guard it."""
    m = L_base.order
    count = m + ACTION_PAD
    cols = []
    defect = mpf(0)
    vscale = mpf(0)
    for i in range(m):
        unit = [ZPoly([1]) if j == i else ZPoly.zero() for j in range(m)]
        psi = kernel_extend(L_base, n0, unit, count + L_act.order)
        v = _z_values([L_act.apply(s) for s in psi], n0, count)
        cols.append(v[:m])
        # closure defect: L_act psi must satisfy the same kernel recurrence
        w = _z_values(kernel_extend(L_base, n0, v[:m], count), n0, count)
        for r in range(m, count):
            defect = max(defect, (v[r] - w[r]).sup_norm())
            vscale = max(vscale, v[r].sup_norm())
    rel = defect / vscale if vscale > 0 else defect
    return [[cols[i][r] for i in range(m)] for r in range(m)], rel


def char_poly_coeffs(entries) -> list:
    """Characteristic polynomial coefficients (monic, low to high) of a
    matrix of scalars or of ZPoly entries: the determinant and trace in
    closed form for 2 x 2, Faddeev-LeVerrier above."""
    m = len(entries)
    A = [[v if isinstance(v, ZPoly) else scalar(v) for v in row] for row in entries]
    if m == 2:
        (a, b), (c, d) = A
        return [a * d - b * c, -(a + d), mpf(1)]
    # traces of A^1..A^m
    Mk = A
    traces = [reduce(add, (A[i][i] for i in range(m)))]
    for _ in range(m - 1):
        Mk = [
            [reduce(add, (Mk[i][k] * A[k][j] for k in range(m))) for j in range(m)]
            for i in range(m)
        ]
        traces.append(reduce(add, (Mk[i][i] for i in range(m))))
    # Newton's identities: p_k + c_{m-1} p_{k-1} + ... + k c_{m-k} = 0
    coeffs = [None] * m + [mpf(1)]
    for k in range(1, m + 1):
        acc = traces[k - 1]
        for i in range(1, k):
            acc = acc + coeffs[m - i] * traces[k - i - 1]
        coeffs[m - k] = -acc / k
    return coeffs


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

    per_base = []
    worst_defect = mpf(0)
    for n0 in n0_list:
        M, defect = action_matrix(L_base, L_act, int(n0))
        worst_defect = max(worst_defect, defect)
        det_poly, neg_tr, _ = char_poly_coeffs(M)
        per_base.append((-neg_tr, det_poly))

    tr_poly, det_poly = per_base[0]
    base_dev = mpf(0)
    for tp, dp in per_base[1:]:
        base_dev = max(base_dev, (tp - tr_poly).sup_norm(), (dp - det_poly).sup_norm())

    det_scale = max(det_poly.sup_norm(), mpf(1))
    matched = None
    neg_det = -det_poly
    if (
        tr_poly.sup_norm() <= CURVE_TOL * det_scale
        and neg_det.degree == 2 * g + 1
        and abs(neg_det.lead - 1) <= CURVE_TOL
    ):
        matched = HyperellipticCurve.from_fpoly(neg_det, g, tol_rel=CURVE_TOL)
    return CurveReport(
        g, tr_poly, det_poly, base_dev, worst_defect, matched, comm_rel
    )


class Rank2CurveReport:
    """Characteristic data of the 4x4 action for the order-(4, 6) pair."""

    def __init__(self, char_polys, expected_r, mismatch_rel, closure_defect,
                 commutator_residual_rel):
        self.char_polys = char_polys          # dict: w-power -> ZPoly in z
        self.expected_r = expected_r          # ZPoly R(z)
        self.mismatch_rel = mismatch_rel
        self.closure_defect = closure_defect
        self.commutator_residual_rel = commutator_residual_rel


def _coefficient_commutator_rel(AB: DiffOp, BA: DiffOp) -> mpf:
    """max over (j, n) of |(AB - BA)_j(n)| / max(|AB_j(n)|, |BA_j(n)|)."""
    comm = AB - BA
    lo, hi = comm.window
    worst = mpf(0)
    for j, c in comm.terms.items():
        ab, ba = AB.coeff(j), BA.coeff(j)
        for n, v in zip(range(lo, hi + 1), c.values):
            # v != 0 needs a non-zero product coefficient
            if v:
                worst = max(worst, abs(v) / max(abs(ab.at(n)), abs(ba.at(n))))
    return worst


def rank2_curve_check(L4: DiffOp, L6: DiffOp, expected_r: ZPoly) -> Rank2CurveReport:
    """Verify the 4x4 action characteristic polynomial equals (w^2 - R(z))^2.

    The action is read at base point 0 as a matrix of polynomials in z, and
    Faddeev-LeVerrier over ZPoly gives each coefficient of the characteristic
    polynomial as a polynomial in z.  The squared factor is the rank-two
    expectation; it is verified coefficient by coefficient against the
    supplied R, never assumed.  Commutation is judged coefficient by
    coefficient too: each coefficient of [L4, L6] against the same
    coefficient of L4 L6 and L6 L4, within RANK2_COMMUTATION_TOL.  A scale
    taken from the whole operators would be set by the largest coefficient
    of L6 at the window edge and would hide a broken partner.
    """
    comm_rel = _coefficient_commutator_rel(L4 * L6, L6 * L4)
    if comm_rel > RANK2_COMMUTATION_TOL:
        raise CommutationError(f"rank-2 pair does not commute: {comm_rel}")

    M, defect = action_matrix(L4, L6, 0)
    c = char_poly_coeffs(M)
    char_polys = dict(enumerate(c[:4]))
    # (w^2 - R)^2 = w^4 - 2 R w^2 + R^2
    r2 = expected_r * expected_r
    mism = max(
        (c[0] - r2).sup_norm(),
        c[1].sup_norm(),
        (c[2] + expected_r.scale(2)).sup_norm(),
        c[3].sup_norm(),
    )
    sup = max(r2.sup_norm(), mpf(1))
    return Rank2CurveReport(char_polys, expected_r, mism / sup, defect, comm_rel)
