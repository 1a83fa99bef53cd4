"""Independent spectral-curve extraction for commuting operator pairs.

For commuting (L_base, L_act) with L_base monic of order m, the kernel of
L_base - z is m-dimensional and L_act preserves it; reading the action off in
the basis of unit initial data gives an m x m matrix M(z) whose
characteristic polynomial is z-polynomial data of the joint spectrum.  For a
hyperelliptic pair of orders (2, 2g+1) the trace vanishes and -det M(z) is
the monic curve polynomial F_g; base-point independence of the coefficients
is the well-definedness check, and the closure defect (distance of
L_act psi from the kernel) turns the commutation hypothesis into a measured
quantity.
"""

from __future__ import annotations

import json

from mpmath import mpf

from .errors import CommutationError, InterpolationError, WindowError
from .numcore import (
    HyperellipticCurve,
    ZPoly,
    chebyshev_nodes,
    mpf_to_str,
    poly_interpolate,
    scalar,
)
from .opalg import CoeffSeq, DiffOp, commutator_scale, op_commutator

DEFAULT_GUARD_NODES = 4


def kernel_extend(L: DiffOp, z, n0: int, init, length: int) -> CoeffSeq:
    """Solve (L - z) psi = 0 forward from initial data.

    L must be monic positive of order m; init supplies psi(n0..n0+m-1) and
    the recurrence fills out to the requested length.
    """
    if not L.is_positive:
        raise ValueError("kernel recurrence needs a positive operator")
    m = L.order
    if not L.is_monic():
        raise ValueError("kernel recurrence needs a monic operator")
    z = scalar(z)
    n0 = int(n0)
    init = [scalar(v) for v in init]
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
    vals = list(init)
    for n in range(n0, n0 + length - m):
        acc = z * vals[n - n0]
        for j, u in L.terms.items():
            if j == m:
                continue
            acc -= u.at(n) * vals[n - n0 + j]
        vals.append(acc)
    return CoeffSeq(n0, vals)


class ActionMatrix:
    """Action of L_act on ker(L_base - z) in the unit-initial-data basis."""

    __slots__ = ("z", "n0", "entries", "closure_defect")

    def __init__(self, z, n0, entries, closure_defect):
        self.z = z
        self.n0 = n0
        self.entries = entries
        self.closure_defect = closure_defect

    @property
    def size(self):
        return len(self.entries)


def _action_matrix_raw(L_base: DiffOp, L_act: DiffOp, z, n0: int, pad: int = 3) -> ActionMatrix:
    m = L_base.order
    length = m + L_act.order + pad
    cols = []
    defect = mpf(0)
    vscale = mpf(0)
    for i in range(m):
        init = [mpf(1) if j == i else mpf(0) for j in range(m)]
        psi = kernel_extend(L_base, z, n0, init, length)
        v = L_act.apply(psi)
        if v.window[0] > n0 or v.window[1] < n0 + m - 1 + pad:
            raise WindowError(
                f"action needs L_act psi on [{n0}, {n0 + m - 1 + pad}], got {v.window}"
            )
        cols.append([v.at(n0 + r) for r in range(m)])
        # closure defect: L_act psi must satisfy the same kernel recurrence
        w = kernel_extend(L_base, z, n0, [v.at(n0 + r) for r in range(m)], m + pad)
        for r in range(m, m + pad):
            defect = max(defect, abs(v.at(n0 + r) - w.at(n0 + r)))
            vscale = max(vscale, abs(v.at(n0 + r)))
    rel = defect / vscale if vscale > 0 else defect
    entries = [[cols[i][r] for i in range(m)] for r in range(m)]
    return ActionMatrix(z, n0, entries, rel)


def action_matrix(
    L_base: DiffOp,
    L_act: DiffOp,
    z,
    n0: int,
    commutation_tol=mpf("1e-8"),
    pad: int = 3,
) -> ActionMatrix:
    """Build M(z) at base point n0, checking commutation first."""
    comm = op_commutator(L_base, L_act)
    scale = commutator_scale(L_base, L_act)
    resid = comm.sup_norm()
    if resid > commutation_tol * scale:
        raise CommutationError(
            f"operators do not commute: residual {resid} > {commutation_tol} * {scale}"
        )
    return _action_matrix_raw(L_base, L_act, scalar(z), int(n0), pad)


def _char_poly_samples(L_base: DiffOp, L_act: DiffOp, z_nodes, n0: int):
    """Per coefficient k, the samples (z, c_k(z)) of the characteristic
    polynomial of M(z) over z_nodes, and the worst closure defect."""
    samples = [[] for _ in range(L_base.order + 1)]
    worst_defect = mpf(0)
    for z in z_nodes:
        M = _action_matrix_raw(L_base, L_act, z, n0)
        worst_defect = max(worst_defect, M.closure_defect)
        for k, c in enumerate(char_poly_coeffs(M.entries)):
            samples[k].append((z, c))
    return samples, worst_defect


def char_poly_coeffs(entries) -> list:
    """Characteristic polynomial coefficients (monic, low to high): the
    determinant and trace in closed form for 2 x 2, Faddeev-LeVerrier above."""
    m = len(entries)
    A = [[scalar(v) for v in row] for row in entries]
    if m == 2:
        (a, b), (c, d) = A
        return [a * d - b * c, -(a + d), mpf(1)]
    # c[m] = 1, recursion on traces of powers
    coeffs = [mpf(0)] * (m + 1)
    coeffs[m] = mpf(1)
    Mk = [[A[i][j] for j in range(m)] for i in range(m)]  # A^1
    traces = []
    for _ in range(m):
        traces.append(sum(Mk[i][i] for i in range(m)))
        Mk = [
            [sum(Mk[i][k] * A[k][j] for k in range(m)) for j in range(m)]
            for i in range(m)
        ]
    # Newton's identities: p_k + c_{m-1} p_{k-1} + ... + k c_{m-k} = 0
    for k in range(1, m + 1):
        acc = traces[k - 1]
        for i in range(1, k):
            acc += coeffs[m - i] * traces[k - i - 1]
        coeffs[m - k] = -acc / k
    return coeffs


class CurveReport:
    """Interpolated trace/det data for a hyperelliptic pair."""

    def __init__(self, g, trace_poly, det_poly, base_independence_residual,
                 closure_defect, matched_curve, commutator_residual_rel):
        self.g = g
        self.trace_poly = trace_poly
        self.det_poly = det_poly
        self.base_independence_residual = base_independence_residual
        self.closure_defect = closure_defect
        self.matched_curve = matched_curve
        self.commutator_residual_rel = commutator_residual_rel

    def to_json(self) -> str:
        doc = {
            "g": self.g,
            "trace": [mpf_to_str(c) for c in self.trace_poly.coeffs],
            "det": [mpf_to_str(c) for c in self.det_poly.coeffs],
            "curve": [mpf_to_str(c) for c in self.matched_curve.c]
            if self.matched_curve
            else None,
            "base_independence_residual": mpf_to_str(self.base_independence_residual),
            "closure_defect": mpf_to_str(self.closure_defect),
            "commutator_residual_rel": mpf_to_str(self.commutator_residual_rel),
        }
        return json.dumps(doc, sort_keys=True)


def extract_curve(
    L_base: DiffOp,
    L_act: DiffOp,
    z_nodes=None,
    n0_list=(-1, 0, 1),
    commutation_tol=mpf("1e-8"),
    fit_tol=mpf("1e-8"),
    z_interval=(-4, 4),
) -> CurveReport:
    """Interpolate trace and determinant of M(z) and match the curve.

    Needs enough nodes for the degree-(2g+1) determinant plus guard nodes
    that expose non-polynomial behaviour; at least two base points feed the
    independence residual.
    """
    if L_base.order != 2:
        raise ValueError("curve extraction here fixes the base operator at order 2")
    if L_act.order % 2 == 0:
        raise ValueError("partner operator must have odd order")
    g = (L_act.order - 1) // 2
    if z_nodes is None:
        z_nodes = chebyshev_nodes(2 * g + 2 + DEFAULT_GUARD_NODES, z_interval)
    z_nodes = [scalar(z) for z in z_nodes]
    if len(z_nodes) < 2 * g + 2:
        raise InterpolationError(f"need at least {2 * g + 2} z nodes, got {len(z_nodes)}")
    if len(n0_list) < 2:
        raise ValueError("need at least two base points")

    comm = op_commutator(L_base, L_act)
    scale = commutator_scale(L_base, L_act)
    comm_rel = comm.sup_norm() / scale
    if comm_rel > commutation_tol:
        raise CommutationError(
            f"operators do not commute: relative residual {comm_rel}"
        )

    per_base = []
    worst_defect = mpf(0)
    for n0 in n0_list:
        (det_samples, neg_tr_samples, _), defect = _char_poly_samples(
            L_base, L_act, z_nodes, int(n0)
        )
        worst_defect = max(worst_defect, defect)
        tr_samples = [(z, -c) for z, c in neg_tr_samples]
        tr_poly, tr_res = poly_interpolate(tr_samples, g)
        det_poly, det_res = poly_interpolate(det_samples, 2 * g + 1)
        det_scale = max(det_poly.sup_norm(), mpf(1))
        if det_res > fit_tol * det_scale or tr_res > fit_tol * det_scale:
            raise InterpolationError(
                f"non-polynomial action data at base {n0}: residuals "
                f"trace {tr_res}, det {det_res} vs scale {det_scale}"
            )
        per_base.append((tr_poly, det_poly))

    tr_poly, det_poly = per_base[0]
    base_dev = mpf(0)
    width = 2 * g + 2
    for tp, dp in per_base[1:]:
        for k in range(width):
            base_dev = max(base_dev, abs(tp.coeff(k) - tr_poly.coeff(k)))
            base_dev = max(base_dev, abs(dp.coeff(k) - det_poly.coeff(k)))

    det_scale = max(det_poly.sup_norm(), mpf(1))
    matched = None
    neg_det = -det_poly
    if (
        tr_poly.sup_norm() <= fit_tol * det_scale
        and neg_det.degree == 2 * g + 1
        and abs(neg_det.lead - 1) <= fit_tol
    ):
        matched = HyperellipticCurve.from_fpoly(neg_det, g, tol_rel=fit_tol)
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

    def to_json(self) -> str:
        doc = {
            "char": {
                str(k): [mpf_to_str(c) for c in p.coeffs]
                for k, p in self.char_polys.items()
            },
            "expected_r": [mpf_to_str(c) for c in self.expected_r.coeffs],
            "mismatch_rel": mpf_to_str(self.mismatch_rel),
            "closure_defect": mpf_to_str(self.closure_defect),
            "commutator_residual_rel": mpf_to_str(self.commutator_residual_rel),
        }
        return json.dumps(doc, sort_keys=True)


def rank2_curve_check(
    L4: DiffOp,
    L6: DiffOp,
    expected_r: ZPoly,
    z_nodes=None,
    n0: int = 0,
    commutation_tol=mpf("1e-9"),
    z_interval=(-4, 4),
) -> Rank2CurveReport:
    """Verify the 4x4 action characteristic polynomial equals (w^2 - R(z))^2.

    The squared factor is the rank-two expectation; it is verified
    coefficient-by-coefficient against the supplied R, never assumed.
    """
    comm = op_commutator(L4, L6)
    scale = commutator_scale(L4, L6)
    comm_rel = comm.sup_norm() / scale
    if comm_rel > commutation_tol:
        raise CommutationError(f"rank-2 pair does not commute: {comm_rel}")

    deg_r = expected_r.degree
    if z_nodes is None:
        z_nodes = chebyshev_nodes(2 * deg_r + 4, z_interval)
    z_nodes = [scalar(z) for z in z_nodes]

    samples, worst_defect = _char_poly_samples(L4, L6, z_nodes, n0)
    bounds = {0: 2 * deg_r, 1: deg_r, 2: deg_r, 3: 2}
    char_polys = {}
    fit_resid = mpf(0)
    for k in range(4):
        p, res = poly_interpolate(samples[k], bounds[k])
        char_polys[k] = p
        fit_resid = max(fit_resid, res)

    # (w^2 - R)^2 = w^4 - 2 R w^2 + R^2
    r2 = expected_r * expected_r
    sup = max(r2.sup_norm(), mpf(1))
    mism = fit_resid  # non-polynomial coefficient data counts against the match
    for k in range(2 * deg_r + 1):
        mism = max(mism, abs(char_polys[0].coeff(k) - r2.coeff(k)))
    two_r = expected_r.scale(2)
    for k in range(deg_r + 1):
        mism = max(mism, abs(char_polys[2].coeff(k) + two_r.coeff(k)))
        mism = max(mism, abs(char_polys[1].coeff(k)))
    for k in range(3):
        mism = max(mism, abs(char_polys[3].coeff(k)))
    return Rank2CurveReport(char_polys, expected_r, mism / sup, worst_defect, comm_rel)
