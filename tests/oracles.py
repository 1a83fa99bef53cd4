"""Independent oracles that only the tests call.

The package builds S_n by the level recursion in z (dressing.ansatz_solve);
the tests keep a second construction, the forward/backward march of the
master identity F_g = S_n^2 + (z - U_n^2 - W_n) Q_n Q_{n+1} from seed data
(solve_partner_recursive), and the eigenfunction side of the theory: points
of the curve, the ratio chi_n(P) = (S_n(z) + w) / Q_n(z), the Baker-Akhiezer
products of consecutive ratios and the factorization of L2 - z.  shift(window,
degree) is the operator T^degree on window.  poly_div_exact, the long
division the partner march divides by, and _reference_lstsq, the mpf loop
that linalg.lstsq reproduces bit for bit, live here too.

Import them as `from oracles import ...`; pytest's default import mode puts
this directory on sys.path.
"""

from __future__ import annotations

from itertools import repeat
from math import fsum

from mpmath import mp, mpf, sqrt

from commdiff.dressing import DEGENERACY_REL, DressingState, q_from_s
from commdiff.errors import DegenerateDenominatorError, InconsistentDataError, WindowError
from commdiff.numcore import HyperellipticCurve, ZPoly, scalar
from commdiff.opalg import CoeffSeq, DiffOp


def shift(window, degree: int = 1) -> DiffOp:
    return DiffOp.build({degree: 1}, window)


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
    fz = curve.eval(z)
    if fz < 0:
        raise InconsistentDataError(f"F(z) = {fz} < 0 at z = {z}: no real branch")
    return CurvePoint(z, branch * sqrt(fz))


# ---------------------------------------------------------------------------
# recursive partner solve
# ---------------------------------------------------------------------------


DIVISION_TOL = mpf("1e-20")


def poly_div_exact(num: ZPoly, den: ZPoly):
    """Long division num = q*den + r; returns (q, max |r coefficient|).

    The caller judges whether the residual norm is small enough to call the
    division exact.  Raises if den is numerically zero.
    """
    if den.is_zero:
        raise DegenerateDenominatorError("division by numerically zero polynomial")
    rem = list(num.coeffs)
    dn = den.coeffs
    dd = len(dn) - 1
    lead = dn[-1]
    if len(rem) - 1 < dd:
        return ZPoly.zero(), num.sup_norm()
    qn = [mpf(0)] * (len(rem) - dd)
    for k in range(len(rem) - 1, dd - 1, -1):
        f = rem[k] / lead
        qn[k - dd] = f
        if f != 0:
            for j in range(dd + 1):
                rem[k - dd + j] -= f * dn[j]
        rem[k] = mpf(0)
    resid = max((abs(c) for c in rem), default=mpf(0))
    return ZPoly(qn), resid


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
    S_n and its known neighbour give: Q_n marching forward (n = n0..hi-1),
    Q_{n+1} backward (n = n0-1 down to lo+1).  The quotient is the other Q,
    from which the pair rule gives the new neighbour.  A division residual
    above DIVISION_TOL times the local scale means the seed data is
    inconsistent, reported with the offending n.
    """
    lo, hi = int(n_range[0]), int(n_range[1])
    n0 = int(n0)
    if not (lo <= n0 - 1 and n0 <= hi):
        raise WindowError(f"seed index {n0} incompatible with range [{lo}, {hi}]")
    fp = curve.fpoly()
    S = {n0 - 1: s_init[0], n0: s_init[1]}

    def step_scale(num):
        return max(num.sup_norm(), fp.sup_norm(), mpf(1))

    for n, d in [*zip(range(n0, hi), repeat(1)), *zip(range(n0 - 1, lo, -1), repeat(-1))]:
        k = max(n, n - d)  # the Q index between S_n and its known neighbour
        Qk = q_from_s(S[k - 1], S[k], U.at(k - 1), U.at(k), f"partner march at n={k}")
        num = fp - S[n] * S[n]
        den = ZPoly([-(U.at(n) ** 2) - W.at(n), 1]) * Qk
        Qother, resid = poly_div_exact(num, den)
        if resid > DIVISION_TOL * step_scale(num):
            raise InconsistentDataError(
                f"inconsistent data: division residual {resid} at n={n}"
            )
        S[n + d] = (-(U.at(n) + U.at(n + d))) * Qother - S[n]
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
    lhs = L2.apply(f) - f * P.z
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
# least squares
# ---------------------------------------------------------------------------


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
