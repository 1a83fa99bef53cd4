"""Dressing machinery for second-order operators L2 = (T + U_n)^2 + W_n.

The central objects are the degree-g polynomial pairs (S_n, Q_n) that encode
the eigenfunction ratio chi_n(P) = (S_n(z) + w) / Q_n(z) on the curve
w^2 = F_g(z).  They satisfy

    Q_n = -(S_{n-1} + S_n) / (U_{n-1} + U_n)                    (pair rule)
    F_g(z) = S_n^2 + (z - U_n^2 - W_n) Q_n Q_{n+1}              (master identity)

plus a linear four-term relation in S obtained by eliminating F_g between
consecutive n (residual_linear below).  Solvers here construct S either by a
forward/backward recursion from consistent seed data, or by sampling the
linear relation over an (n, z) grid against a closed-form coefficient basis
and solving in least squares.  From a valid state the commuting odd-order
partner, the eigenfunction products, and the factorization checks follow.

States are immutable once assembled; construction is sequential in n by
nature, every verification here is pure and parallelizes over (n, z, P).
"""

from __future__ import annotations

from mpmath import mp, mpf, sqrt, cos

from . import linalg
from .errors import (
    DegenerateDenominatorError,
    InconsistentDataError,
    WindowError,
)
from .numcore import (
    HyperellipticCurve,
    ZPoly,
    chebyshev_nodes,
    mpf_to_str,
    poly_div_exact,
    scalar,
    str_to_mpf,
)
from .opalg import CoeffSeq, DiffOp

DEGENERACY_REL = mpf("1e-8")


# ---------------------------------------------------------------------------
# curve points
# ---------------------------------------------------------------------------


class CurvePoint:
    """A point (z, w) with w^2 = F_g(z)."""

    __slots__ = ("z", "w")

    def __init__(self, z, w):
        self.z = scalar(z)
        self.w = scalar(w)

    def conjugate(self) -> "CurvePoint":
        return CurvePoint(self.z, -self.w)

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
# L2 and the pair rule
# ---------------------------------------------------------------------------


def l2_operator(U: CoeffSeq, W: CoeffSeq) -> DiffOp:
    """(T + U_n)^2 + W_n = T^2 + (U_n + U_{n+1}) T + (U_n^2 + W_n), on every
    n where U_{n+1} and W_n are tabulated."""
    lo = max(U.window[0], W.window[0])
    hi = min(U.window[1] - 1, W.window[1])
    if hi < lo:
        raise WindowError("window too small to assemble L2")
    return DiffOp.build(
        {
            2: 1,
            1: lambda n: U.at(n) + U.at(n + 1),
            0: lambda n: U.at(n) ** 2 + W.at(n),
        },
        (lo, hi),
    )


def q_from_s(S_prev: ZPoly, S_cur: ZPoly, U_prev, U_cur) -> ZPoly:
    """Pair rule Q = -(S_prev + S_cur) / (U_prev + U_cur).

    The z^g-coefficient normalization of S makes the result monic; a
    denominator below the general-position threshold is an error.
    """
    U_prev, U_cur = scalar(U_prev), scalar(U_cur)
    den = U_prev + U_cur
    # degeneracy means cancellation between the two values, not small size
    dscale = max(abs(U_prev), abs(U_cur))
    if dscale == 0 or abs(den) <= DEGENERACY_REL * dscale:
        raise DegenerateDenominatorError(
            f"U_prev + U_cur = {den} is degenerate (scale {dscale})"
        )
    q = (S_prev + S_cur).scale(-1 / den)
    if abs(q.lead - 1) > mpf("1e-6"):
        raise InconsistentDataError(
            f"pair rule produced a non-monic polynomial (lead = {q.lead}); "
            "S normalization is broken"
        )
    return q


# ---------------------------------------------------------------------------
# dressing state
# ---------------------------------------------------------------------------


S_LEAD_TOL = mpf("1e-6")


class DressingState:
    """U, W, the curve, and the polynomial tables S_n, Q_n.

    S is tabulated on window = [lo, hi]; Q, which consumes S_{n-1}, lives on
    [lo+1, hi].  meta carries solver diagnostics and is not serialized.
    """

    __slots__ = ("U", "W", "curve", "S", "Q", "window", "meta")

    def __init__(self, U, W, curve, S: dict, Q: dict, meta=None):
        self.U, self.W, self.curve = U, W, curve
        self.S, self.Q = dict(S), dict(Q)
        lo, hi = min(self.S), max(self.S)
        if sorted(self.S) != list(range(lo, hi + 1)):
            raise WindowError("S table has gaps")
        if sorted(self.Q) != list(range(lo + 1, hi + 1)):
            raise WindowError("Q table must cover [lo+1, hi]")
        self.window = (lo, hi)
        self.meta = dict(meta or {})

    @classmethod
    def from_s_table(cls, U, W, S: dict, curve=None, meta=None):
        """Assemble a state from an S table; Q follows from the pair rule.

        Validates the z^g-coefficient normalization of S against -U_n, within
        S_LEAD_TOL of the larger of 1, |U_n| and |S_n|, and,
        when no curve is given, recovers it from the master identity at the
        window center (cross-checked one step to the right).
        """
        lo, hi = min(S), max(S)
        g = max(p.degree for p in S.values())
        for n in range(lo, hi + 1):
            lead = S[n].coeff(g)
            u = U.at(n)
            if abs(lead + u) > S_LEAD_TOL * max(mpf(1), abs(u), S[n].sup_norm()):
                raise InconsistentDataError(
                    f"S_{n} has z^{g} coefficient {lead}, expected {-u}"
                )
        Q = {
            n: q_from_s(S[n - 1], S[n], U.at(n - 1), U.at(n))
            for n in range(lo + 1, hi + 1)
        }
        state = cls(U, W, curve, S, Q, meta=meta)
        if curve is None:
            n0 = (lo + hi) // 2
            n0 = min(max(n0, lo + 1), hi - 2)
            f0 = _master_fpoly(state, n0)
            f1 = _master_fpoly(state, n0 + 1)
            dev = max(abs(a - b) for a, b in zip(_padded(f0, 2 * g + 2), _padded(f1, 2 * g + 2)))
            if dev > mpf("1e-6") * max(f0.sup_norm(), mpf(1)):
                raise InconsistentDataError(
                    f"curve recovery: master identity differs between n={n0} and "
                    f"n={n0 + 1} by {dev}; the S table is not a valid dressing"
                )
            state.curve = HyperellipticCurve.from_fpoly(f0, g, tol_rel=mpf("1e-6"))
            state.meta["curve_recovery_dev"] = dev
        return state

    def s(self, n: int) -> ZPoly:
        try:
            return self.S[int(n)]
        except KeyError:
            raise WindowError(f"S_{n} outside state window {self.window}") from None

    def q(self, n: int) -> ZPoly:
        try:
            return self.Q[int(n)]
        except KeyError:
            raise WindowError(f"Q_{n} not tabulated (state window {self.window})") from None

    @property
    def g(self) -> int:
        return self.curve.g

    def l2(self) -> DiffOp:
        return l2_operator(self.U, self.W)

    def doc(self) -> dict:
        """The state as JSON-ready data: curve, window and decimal tables."""
        lo, hi = self.window
        return {
            "g": self.curve.g,
            "curve": [mpf_to_str(c) for c in self.curve.c],
            "window": [lo, hi],
            "S": [[mpf_to_str(c) for c in self.S[n].coeffs] for n in range(lo, hi + 1)],
            "Q": [[mpf_to_str(c) for c in self.Q[n].coeffs] for n in range(lo + 1, hi + 1)],
            "U": [mpf_to_str(self.U.at(n)) for n in range(lo, hi + 1)],
            "W": [mpf_to_str(self.W.at(n)) for n in range(lo, hi + 1)],
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "DressingState":
        lo, hi = int(doc["window"][0]), int(doc["window"][1])
        g = int(doc["g"])
        curve = HyperellipticCurve(g, [str_to_mpf(s) for s in doc["curve"]])
        U = CoeffSeq(lo, [str_to_mpf(s) for s in doc["U"]])
        W = CoeffSeq(lo, [str_to_mpf(s) for s in doc["W"]])
        S = {lo + i: ZPoly([str_to_mpf(c) for c in cs]) for i, cs in enumerate(doc["S"])}
        Q = {lo + 1 + i: ZPoly([str_to_mpf(c) for c in cs]) for i, cs in enumerate(doc["Q"])}
        return cls(U, W, curve, S, Q)

    def __repr__(self):
        return f"DressingState(g={self.curve.g if self.curve else '?'}, window={self.window})"


def _padded(p: ZPoly, n: int):
    return [p.coeff(k) for k in range(n)]


def _master_terms(state: DressingState, n: int):
    """S_n^2 and (z - U_n^2 - W_n) Q_n Q_{n+1}, the two master-identity terms."""
    lin = ZPoly([-(state.U.at(n) ** 2) - state.W.at(n), 1], trim=False)
    return state.s(n) * state.s(n), lin * state.q(n) * state.q(n + 1)


def _master_fpoly(state: DressingState, n: int) -> ZPoly:
    """S_n^2 + (z - U_n^2 - W_n) Q_n Q_{n+1}, the curve polynomial."""
    s2, prod = _master_terms(state, n)
    return s2 + prod


def verify_master(state: DressingState, n: int) -> mpf:
    """Max |coefficient| of F_g - S_n^2 - (z - U_n^2 - W_n) Q_n Q_{n+1}."""
    return (state.curve.fpoly() - _master_fpoly(state, n)).sup_norm()


def _linear_terms(state: DressingState, n: int):
    """The four products whose signed sum is the linearized relation."""
    U, W = state.U.at, state.W.at
    t1 = state.s(n - 1) * ZPoly([-(U(n) ** 2) - W(n), 1]) * (U(n + 1) + U(n + 2))
    t2 = state.s(n) * ZPoly(
        [U(n) * U(n + 1) + U(n - 1) * (U(n) + U(n + 1)) - W(n), 1]
    ) * (U(n + 1) + U(n + 2))
    t3 = state.s(n + 1) * ZPoly(
        [U(n) * U(n + 1) + (U(n) + U(n + 1)) * U(n + 2) - W(n + 1), 1]
    ) * (U(n - 1) + U(n))
    t4 = state.s(n + 2) * ZPoly([-(U(n + 1) ** 2) - W(n + 1), 1]) * (U(n - 1) + U(n))
    return t1, t2, t3, t4


def residual_linear(state: DressingState, n: int) -> ZPoly:
    """Four-term linear relation in S_{n-1..n+2}; zero for valid states.

    For coefficient families even in n the result is skew under
    n -> -n - 1, which identity_residuals measures when asked.
    """
    t1, t2, t3, t4 = _linear_terms(state, n)
    return t1 + t2 - t3 - t4


def identity_residuals(state: DressingState, window, skew: bool = False):
    """(master_rel, linear_rel, skew_rel or None): the worst relative
    residual of each identity over `window`, clipped to the state's reach.

    The master identity is checked on [max(lo, s_lo+1), min(hi, s_hi-1)]
    against the largest of |F_g|, |S_n^2|, |(z - U_n^2 - W_n) Q_n Q_{n+1}|
    and 1; the linear relation on [max(lo, s_lo+1), min(hi, s_hi-2)] against
    its largest term and 1.  With skew, |R_n + R_{-n-1}| over the linear
    scale at n is checked for n = 0..min(hi, s_hi-2, -(s_lo+2)).  Each
    product is formed once per n, and the skew pass reuses the linear one.
    """
    lo, hi = int(window[0]), int(window[1])
    s_lo, s_hi = state.window
    fpoly = state.curve.fpoly()
    fnorm = fpoly.sup_norm()
    master_rel = mpf(0)
    for n in range(max(lo, s_lo + 1), min(hi, s_hi - 1) + 1):
        s2, prod = _master_terms(state, n)
        scale = max(fnorm, s2.sup_norm(), prod.sup_norm(), mpf(1))
        master_rel = max(master_rel, (fpoly - (s2 + prod)).sup_norm() / scale)

    linear = {}

    def linear_at(n):
        if n not in linear:
            terms = _linear_terms(state, n)
            t1, t2, t3, t4 = terms
            scale = max(max(t.sup_norm() for t in terms), mpf(1))
            linear[n] = (t1 + t2 - t3 - t4, scale)
        return linear[n]

    linear_rel = mpf(0)
    for n in range(max(lo, s_lo + 1), min(hi, s_hi - 2) + 1):
        r, scale = linear_at(n)
        linear_rel = max(linear_rel, r.sup_norm() / scale)
    if not skew:
        return master_rel, linear_rel, None
    skew_rel = mpf(0)
    for n in range(0, min(hi, s_hi - 2, -(s_lo + 2)) + 1):
        r, scale = linear_at(n)
        skew_rel = max(skew_rel, (r + linear_at(-n - 1)[0]).sup_norm() / scale)
    return master_rel, linear_rel, skew_rel


# ---------------------------------------------------------------------------
# recursive partner solve
# ---------------------------------------------------------------------------


DIVISION_TOL = mpf("1e-20")


def solve_partner_recursive(
    U: CoeffSeq,
    W: CoeffSeq,
    curve: HyperellipticCurve,
    s_init,
    n0: int,
    n_range,
) -> DressingState:
    """March the master identity from seed polynomials (S_{n0-1}, S_{n0}).

    Each forward step divides F - S_n^2 by (z - U_n^2 - W_n) Q_n; a division
    residual above DIVISION_TOL times the local scale means the seed data is
    inconsistent, reported with the offending n.  The backward march mirrors
    the same identity.
    """
    lo, hi = int(n_range[0]), int(n_range[1])
    n0 = int(n0)
    if not (lo <= n0 - 1 and n0 <= hi):
        raise WindowError(f"seed index {n0} incompatible with range [{lo}, {hi}]")
    fp = curve.fpoly()
    S = {n0 - 1: s_init[0], n0: s_init[1]}
    div_resids = []

    def step_scale(num):
        return max(num.sup_norm(), fp.sup_norm(), mpf(1))

    for n in range(n0, hi):
        Qn = q_from_s(S[n - 1], S[n], U.at(n - 1), U.at(n))
        num = fp - S[n] * S[n]
        den = ZPoly([-(U.at(n) ** 2) - W.at(n), 1]) * Qn
        Qnext, resid = poly_div_exact(num, den)
        div_resids.append(resid / step_scale(num))
        if resid > DIVISION_TOL * step_scale(num):
            raise InconsistentDataError(
                f"inconsistent data: division residual {resid} at n={n}"
            )
        S[n + 1] = (-(U.at(n) + U.at(n + 1))) * Qnext - S[n]
    for n in range(n0 - 1, lo, -1):
        Qnext = q_from_s(S[n], S[n + 1], U.at(n), U.at(n + 1))
        num = fp - S[n] * S[n]
        den = ZPoly([-(U.at(n) ** 2) - W.at(n), 1]) * Qnext
        Qn, resid = poly_div_exact(num, den)
        div_resids.append(resid / step_scale(num))
        if resid > DIVISION_TOL * step_scale(num):
            raise InconsistentDataError(
                f"inconsistent data: division residual {resid} at n={n}"
            )
        S[n - 1] = (-(U.at(n - 1) + U.at(n))) * Qn - S[n]
    meta = {"division_residual_max": max(div_resids, default=mpf(0))}
    return DressingState.from_s_table(U, W, S, curve=curve, meta=meta)


# ---------------------------------------------------------------------------
# coefficient bases and the sampled linear solve
# ---------------------------------------------------------------------------


class AnsatzBasis:
    """A finite family of n-profiles phi_j(n) spanning the S coefficients."""

    name = "abstract"

    def __init__(self, g: int):
        self.g = int(g)

    @property
    def size(self) -> int:
        raise NotImplementedError

    def functions(self, n: int):
        raise NotImplementedError


class TrigBasis(AnsatzBasis):
    """cos((2k+1) n), k = 0..g; integer arguments in radians."""

    name = "trig"

    @property
    def size(self):
        return self.g + 1

    def functions(self, n):
        return [cos((2 * k + 1) * mpf(n)) for k in range(self.g + 1)]


class EvenPowerBasis(AnsatzBasis):
    """n^(2k), k = 0..g+1."""

    name = "even-power"

    @property
    def size(self):
        return self.g + 2

    def functions(self, n):
        n = mpf(n)
        return [n ** (2 * k) if k else mpf(1) for k in range(self.g + 2)]


class PowerBasis(AnsatzBasis):
    """n^j, j = 0..2g+2; needed when the quadratic family has an odd part."""

    name = "power"

    @property
    def size(self):
        return 2 * self.g + 3

    def functions(self, n):
        n = mpf(n)
        return [n**j if j else mpf(1) for j in range(2 * self.g + 3)]


class GeomBasis(AnsatzBasis):
    """a^((2k+1) n), k = 0..g."""

    name = "geometric"

    def __init__(self, g: int, a):
        super().__init__(g)
        self.a = scalar(a)

    @property
    def size(self):
        return self.g + 1

    def functions(self, n):
        return [self.a ** ((2 * k + 1) * n) for k in range(self.g + 1)]


class AnsatzResult:
    """Solved basis coefficients A_j(z) with deg <= g and the recovered curve."""

    def __init__(self, basis, coeff_polys, curve, info):
        self.basis = basis
        self.coeff_polys = list(coeff_polys)
        self.curve = curve
        self.info = dict(info)

    @property
    def g(self):
        return self.basis.g

    def s_poly(self, n: int) -> ZPoly:
        phis = self.basis.functions(n)
        acc = ZPoly.zero()
        for aj, phi in zip(self.coeff_polys, phis):
            acc = acc + aj.scale(phi)
        return acc

    def state(self, U, W, window) -> DressingState:
        """S_n on the window; the curve is recovered when none is known yet."""
        lo, hi = int(window[0]), int(window[1])
        S = {n: self.s_poly(n) for n in range(lo, hi + 1)}
        return DressingState.from_s_table(
            U, W, S, curve=self.curve, meta={"ansatz": self.info}
        )


def _pin_top_coefficients(basis, U, n_grid):
    """Fit -U_n in the basis span: these are the pinned z^g coefficients."""
    rows = [basis.functions(n) for n in n_grid]
    rhs = [-U.at(n) for n in n_grid]
    x, info = linalg.lstsq(rows, rhs)
    scale = max(max(abs(v) for v in rhs), mpf(1))
    if info["resid_inf"] > mpf("1e-9") * scale:
        raise InconsistentDataError(
            f"coefficient family is not in the span of basis '{basis.name}' "
            f"(fit residual {info['resid_inf']})"
        )
    return x


ANSATZ_TOL = mpf("1e-9")


def ansatz_solve(basis: AnsatzBasis, U: CoeffSeq, W: CoeffSeq) -> AnsatzResult:
    """Determine S_n = sum_j A_j(z) phi_j(n) from the sampled linear relation.

    Assembles the four-term relation on the grid |n| <= size + 2 times
    g + 3 Chebyshev nodes in z, pins the z^g coefficient of every A_j so
    that the top coefficient of S_n is -U_n, and solves the rest in least
    squares.  Rank loss beyond that normalization or a residual above
    ANSATZ_TOL is an error; the recovered curve comes from the master
    identity evaluated as a polynomial product.
    """
    g = basis.g
    nb = basis.size
    reach = nb + 2
    n_grid = list(range(-reach, reach + 1))
    z_nodes = chebyshev_nodes(g + 3)
    pinned = _pin_top_coefficients(basis, U, n_grid)

    unknowns = [(j, m) for j in range(nb) for m in range(g)]
    rows, rhs = [], []
    for n in n_grid:
        Um1, U0, U1, U2 = (U.at(n - 1), U.at(n), U.at(n + 1), U.at(n + 2))
        W0, W1 = W.at(n), W.at(n + 1)
        phis = [basis.functions(n + d) for d in (-1, 0, 1, 2)]
        for z in z_nodes:
            p1 = (U1 + U2) * (z - U0**2 - W0)
            p2 = (U1 + U2) * (z + U0 * U1 + Um1 * (U0 + U1) - W0)
            p3 = (Um1 + U0) * (z + U0 * U1 + (U0 + U1) * U2 - W1)
            p4 = (Um1 + U0) * (z - U1**2 - W1)
            G = [
                p1 * phis[0][j] + p2 * phis[1][j] - p3 * phis[2][j] - p4 * phis[3][j]
                for j in range(nb)
            ]
            zpow = [mpf(1)]
            for _ in range(g):
                zpow.append(zpow[-1] * z)
            rows.append([zpow[m] * G[j] for (j, m) in unknowns])
            rhs.append(-sum(pinned[j] * zpow[g] * G[j] for j in range(nb)))

    x, info = linalg.lstsq(rows, rhs)
    linalg.require_full_rank(info, "ansatz system")
    scale = max(max(abs(v) for v in rhs), mpf(1))
    if info["resid_inf"] > ANSATZ_TOL * scale:
        raise InconsistentDataError(
            f"no solution in basis '{basis.name}': sampled residual "
            f"{info['resid_inf']} exceeds {ANSATZ_TOL} * {scale}"
        )

    coeff_polys = []
    for j in range(nb):
        cs = [x[unknowns.index((j, m))] for m in range(g)] + [pinned[j]]
        coeff_polys.append(ZPoly(cs))
    result = AnsatzResult(
        basis,
        coeff_polys,
        None,
        {"resid_rel": info["resid_inf"] / scale, "rank": info["rank"]},
    )
    # the state on [-2, 3] recovers the curve at its centre n = 0 and
    # cross-checks it at n = 1
    probe = result.state(U, W, (-2, 3))
    result.curve = probe.curve
    result.info["curve_dev"] = probe.meta["curve_recovery_dev"]
    return result


# ---------------------------------------------------------------------------
# elliptic (g = 1) closed-form state
# ---------------------------------------------------------------------------


def elliptic_uw(curve: HyperellipticCurve, gamma: CoeffSeq, sigma=None):
    """(U, W, s) of the genus-1 family on w^2 = F1(z) with parameter gamma_n.

    s_n = sigma_n sqrt(F1(gamma_n)) (branch signs default +1),
    U_n = -(s_n + s_{n+1}) / (gamma_n - gamma_{n+1}) and
    W_n = -c2 - gamma_n - gamma_{n+1}, tabulated on [glo, ghi - 1]; s is
    returned as a function of n.
    """
    glo, ghi = gamma.window

    def sgn(n):
        if sigma is None:
            return mpf(1)
        v = sigma.at(n) if isinstance(sigma, CoeffSeq) else sigma(n)
        return scalar(v)

    def s_val(n):
        f = curve.eval(gamma.at(n))
        if f < 0:
            raise InconsistentDataError(
                f"F1(gamma_{n}) = {f} < 0: divisor point has no real branch"
            )
        return sgn(n) * sqrt(f)

    def u_val(n):
        dg = gamma.at(n) - gamma.at(n + 1)
        if abs(dg) <= DEGENERACY_REL * max(mpf(1), abs(gamma.at(n))):
            raise DegenerateDenominatorError(
                f"gamma_{n} - gamma_{n + 1} = {dg}: functional parameter is degenerate"
            )
        return -(s_val(n) + s_val(n + 1)) / dg

    U = CoeffSeq.tabulate(u_val, (glo, ghi - 1))
    W = CoeffSeq.tabulate(
        lambda n: -curve.c[2] - gamma.at(n) - gamma.at(n + 1), (glo, ghi - 1)
    )
    return U, W, s_val


def elliptic_dressing_state(
    curve: HyperellipticCurve, gamma: CoeffSeq, sigma=None, window=None
) -> DressingState:
    """Genus-1 state with Q_n = z - gamma_n for a functional parameter gamma.

    sigma gives the branch sign of S_n at its own divisor point,
    S_n(gamma_n) = sigma_n sqrt(F1(gamma_n)); default all +1.
    """
    if curve.g != 1:
        raise ValueError("elliptic dressing state needs genus 1")
    glo, ghi = gamma.window
    lo, hi = (glo, ghi - 1) if window is None else (int(window[0]), int(window[1]))
    if lo < glo or hi > ghi - 1:
        raise WindowError("window needs gamma on [lo, hi+1]")
    U, W, s_val = elliptic_uw(curve, gamma, sigma)
    S = {}
    for n in range(lo, hi + 1):
        delta0 = s_val(n) + U.at(n) * gamma.at(n)
        S[n] = ZPoly([delta0, -U.at(n)])
    return DressingState.from_s_table(U, W, S, curve=curve)


# ---------------------------------------------------------------------------
# chi, the eigenfunction products, factorization, partner assembly
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


def ba_sequence(state: DressingState, P: CurvePoint, window) -> CoeffSeq:
    lo, hi = int(window[0]), int(window[1])
    return CoeffSeq.tabulate(lambda n: baker_akhiezer(state, P, n), (lo, hi))


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


def build_partner_op(state: DressingState, L2: DiffOp | None = None) -> DiffOp:
    """Assemble the commuting partner of order 2g+1 from the state tables.

    On eigenfunctions, w psi(n) = Q_n(z) psi(n+1) - S_n(z) psi(n); replacing
    powers of z by powers of L2 yields the positive monic operator

        sum_k q_{n,k} (T o L2^k)  -  sum_k s_{n,k} L2^k,

    with q_{n,k}, s_{n,k} the z^k coefficients of Q_n, S_n acting as
    left multipliers.
    """
    if L2 is None:
        L2 = state.l2()
    g = state.curve.g
    slo, shi = state.window
    qs_window = (slo + 1, shi)
    acc = None
    l2k = DiffOp.identity(L2.window)
    T = DiffOp.shift(L2.window)
    for k in range(g + 1):
        qk = CoeffSeq.tabulate(lambda n, k=k: state.q(n).coeff(k), qs_window)
        sk = CoeffSeq.tabulate(lambda n, k=k: state.s(n).coeff(k), qs_window)
        term = (T * l2k).scale_left(qk) - l2k.scale_left(sk)
        acc = term if acc is None else acc + term
        if k < g:
            l2k = L2 * l2k
    return acc
