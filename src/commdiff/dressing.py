"""Dressing machinery for second-order operators L2 = (T + U_n)^2 + W_n.

The central objects are the degree-g polynomial pairs (S_n, Q_n) that encode
the eigenfunction ratio chi_n(P) = (S_n(z) + w) / Q_n(z) on the curve
w^2 = F_g(z).  They satisfy

    Q_n = -(S_{n-1} + S_n) / (U_{n-1} + U_n)                    (pair rule)
    F_g(z) = S_n^2 + (z - U_n^2 - W_n) Q_n Q_{n+1}              (master identity)

plus the linear four-term relation R_n(z) = sum_i d_i (z + c_i) S_{n+s_i}(z),
s_i = -1..2, obtained by eliminating F_g between consecutive n
(_four_term_factors, residual_linear).  ansatz_solve constructs S by the
level recursion in z: the z^(m+1) coefficients of R_n step the z^m
coefficients of Q_n by 2 in n, the pair rule gives those of S_n, and 3g
constants are fitted on the z^0 coefficients.  From a valid state the
commuting odd-order partner follows (build_partner_op).

States are immutable once assembled; construction is sequential in n by
nature, every verification here is pure and parallelizes over (n, z).
"""

from __future__ import annotations

from mpmath import mp, mpf, sqrt
from mpmath.libmp import fone, from_int, fzero, mpf_abs, mpf_gt, mpf_neg, mpf_pos, mpf_rdiv_int
from mpmath.libmp import round_nearest as RND

from . import linalg
from .errors import DegenerateDenominatorError, InconsistentDataError, WindowError
from .numcore import (
    HyperellipticCurve,
    ZPoly,
    cos_int,
    pow_int,
    radd,
    raw_max,
    rdiv,
    rdot,
    rmac,
    rmul,
    rpoly_add,
    rpoly_mul,
    rpoly_sub,
    rsub,
    scalar,
)
from .opalg import CoeffSeq, DiffOp

DEGENERACY_REL = mpf("1e-8")
S_LEAD_TOL = mpf("1e-6")
CURVE_RECOVERY_TOL = mpf("1e-6")


# ---------------------------------------------------------------------------
# L2 and the pair rule
# ---------------------------------------------------------------------------


def l2_operator(U: CoeffSeq, W: CoeffSeq) -> DiffOp:
    """(T + U_n)^2 + W_n = T^2 + (U_n + U_{n+1}) T + (U_n^2 + W_n), on every
    n where U_{n+1} and W_n are tabulated, formed as written: the square is a
    composition, whose exact-one rule copies U where it meets T's 1s (so a U
    wider than the working precision is rounded before U_n + U_{n+1})."""
    t_u = DiffOp.build({1: 1, 0: U}, U.window)
    return t_u * t_u + DiffOp({0: W})


def _pair_denominator(u_prev, u_cur, p, where: str):
    """u_prev + u_cur at p bits, the pair rule's denominator, for raw values;
    an error below the general-position threshold, whose message starts
    with where."""
    den = radd(u_prev, u_cur, p)
    # degeneracy means cancellation between the two values, not small size
    dscale = raw_max((u_prev, u_cur), p)
    if dscale == fzero or not mpf_gt(mpf_abs(den), rmul(DEGENERACY_REL._mpf_, dscale, p)):
        make = mp.make_mpf
        raise DegenerateDenominatorError(
            f"{where}: U_prev + U_cur = {make(den)} is degenerate (scale {make(dscale)})"
        )
    return den


def q_from_s(S_prev: ZPoly, S_cur: ZPoly, U_prev, U_cur, where: str = "q_from_s") -> ZPoly:
    """Pair rule Q = -(S_prev + S_cur) / (U_prev + U_cur).

    The z^g-coefficient normalization of S makes the result monic; a
    denominator below the general-position threshold is an error; where
    names the stage and the index n of Q_n in its message.
    """
    return _pair_rule(S_prev.raw, S_cur.raw, scalar(U_prev)._mpf_, scalar(U_cur)._mpf_, where)


def _pair_rule(s_prev, s_cur, u_prev, u_cur, where: str) -> ZPoly:
    """q_from_s on the raw coefficients of S_prev and S_cur and raw U values."""
    p = mp.prec
    inv = mpf_rdiv_int(-1, _pair_denominator(u_prev, u_cur, p, where), p, RND)
    q = ZPoly._from_raw([rmul(inv, v, p) for v in rpoly_add(s_prev, s_cur, p)])
    lead = q.raw[-1] if q.raw else fzero
    if mpf_gt(mpf_abs(rsub(lead, fone, p)), S_LEAD_TOL._mpf_):
        raise InconsistentDataError(
            f"{where}: pair rule produced a non-monic polynomial (lead = {q.lead}); "
            "S normalization is broken"
        )
    return q


# ---------------------------------------------------------------------------
# dressing state
# ---------------------------------------------------------------------------


class DressingState:
    """U, W, the curve, and the polynomial tables S_n, Q_n.

    S is tabulated on window = [lo, hi]; Q, which consumes S_{n-1}, lives on
    [lo+1, hi].
    """

    __slots__ = ("U", "W", "curve", "S", "Q", "window")

    def __init__(self, U, W, curve, S: dict, Q: dict):
        self.U, self.W, self.curve = U, W, curve
        self.S, self.Q = dict(S), dict(Q)
        lo, hi = min(self.S), max(self.S)
        if sorted(self.S) != list(range(lo, hi + 1)):
            raise WindowError("S table has gaps")
        if sorted(self.Q) != list(range(lo + 1, hi + 1)):
            raise WindowError("Q table must cover [lo+1, hi]")
        self.window = (lo, hi)

    @classmethod
    def from_s_table(cls, U, W, S: dict, curve=None):
        """Assemble a state from an S table; Q follows from the pair rule.

        Validates the z^g-coefficient normalization of S against -U_n, within
        S_LEAD_TOL of the larger of 1, |U_n| and |S_n|, and,
        when no curve is given, recovers it from the master identity at
        n = 0 clamped into [lo + 1, hi - 2] (four sites at least), so from
        S_{-1..2} on any window holding them, cross-checked at n + 1 within
        CURVE_RECOVERY_TOL; its error grows as |S_n|^2 at the site it reads.
        """
        lo, hi = min(S), max(S)
        g = max(p.degree for p in S.values())
        prec, tol, us = mp.prec, S_LEAD_TOL._mpf_, U.values_on(lo, hi)
        for n, u in zip(range(lo, hi + 1), us):
            s = S[n].raw
            lead = s[g] if g < len(s) else fzero
            if mpf_gt(mpf_abs(radd(lead, u, prec)), rmul(tol, raw_max((fone, u, *s), prec), prec)):
                raise InconsistentDataError(
                    f"S_{n} has z^{g} coefficient {S[n].coeff(g)}, expected {-U.at(n)}"
                )
        Q = {
            n: _pair_rule(S[n - 1].raw, S[n].raw, us[n - 1 - lo], us[n - lo],
                          f"state assembly at n={n}")
            for n in range(lo + 1, hi + 1)
        }
        state = cls(U, W, curve, S, Q)
        if curve is None:
            n0 = min(max(0, lo + 1), hi - 2)
            f0 = _master_fpoly(state, n0)
            f1 = _master_fpoly(state, n0 + 1)
            dev = (f0 - f1).sup_norm()
            if dev > CURVE_RECOVERY_TOL * max(f0.sup_norm(), mpf(1)):
                raise InconsistentDataError(
                    f"curve recovery: master identity differs between n={n0} and "
                    f"n={n0 + 1} by {dev}; the S table is not a valid dressing"
                )
            state.curve = HyperellipticCurve.from_fpoly(f0, g, tol_rel=CURVE_RECOVERY_TOL)
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

    def l2(self) -> DiffOp:
        return l2_operator(self.U, self.W)

    def doc(self) -> dict:
        """The state as data for to_json: curve, window and the mpf tables."""
        lo, hi = self.window
        return {
            "g": self.curve.g,
            "curve": self.curve.c,
            "window": [lo, hi],
            "S": [self.S[n].coeffs for n in range(lo, hi + 1)],
            "Q": [self.Q[n].coeffs for n in range(lo + 1, hi + 1)],
            "U": [self.U.at(n) for n in range(lo, hi + 1)],
            "W": [self.W.at(n) for n in range(lo, hi + 1)],
        }

    def __repr__(self):
        return f"DressingState(g={self.curve.g if self.curve else '?'}, window={self.window})"


def _master_fpoly(state: DressingState, n: int) -> ZPoly:
    """S_n^2 + (z - U_n^2 - W_n) Q_n Q_{n+1}, the curve polynomial."""
    lin = ZPoly([-(state.U.at(n) ** 2) - state.W.at(n), 1])
    return state.s(n) * state.s(n) + lin * state.q(n) * state.q(n + 1)


def verify_master(state: DressingState, n: int) -> mpf:
    """Max |coefficient| of F_g - S_n^2 - (z - U_n^2 - W_n) Q_n Q_{n+1}."""
    return (state.curve.fpoly() - _master_fpoly(state, n)).sup_norm()


def _four_term_factors(U: CoeffSeq, W: CoeffSeq, lo: int, hi: int, D=None) -> dict:
    """{n: ((s_i, c_i, d_i), i = 1..4)} for n = lo..hi, with R_n(z) =
    sum_i d_i (z + c_i) S_{n+s_i}(z) the four-term relation at n, c_i and d_i
    raw.  With D_n = U_{n-1} + U_n and E_n = W_n + U_n^2, each formed once
    per n and shared by the neighbouring rows, d = (D_{n+2}, D_{n+2}, -D_n,
    -D_n), c_1 = -E_n and c_4 = -E_{n+1}; E_n is one rmac, which equals mpf's
    U_n ** 2 + W_n bit for bit, round-to-nearest being symmetric and libmp's
    sum commutative.  D, when given, maps n = lo..hi + 2 to D_n."""
    p = mp.prec
    Uv, Wv = U.values_on(lo - 1, hi + 2), W.values_on(lo, hi + 1)
    if D is None:
        D = {n: radd(Uv[n - lo], Uv[n - lo + 1], p) for n in range(lo, hi + 3)}
    E = [rmac(w, u, u, p) for w, u in zip(Wv, Uv[1:])]
    out = {}
    for i, n in enumerate(range(lo, hi + 1)):
        Um1, U0, U1, U2 = Uv[i:i + 4]
        right, left, u01 = D[n + 2], mpf_neg(D[n]), rmul(U0, U1, p)
        out[n] = (
            (-1, mpf_neg(E[i]), right),
            (0, rsub(rmac(u01, Um1, D[n + 1], p), Wv[i], p), right),
            (1, rsub(rmac(u01, D[n + 1], U2, p), Wv[i + 1], p), left),
            (2, mpf_neg(E[i + 1]), left),
        )
    return out


def _term_coeffs(a, c, d):
    """The coefficients of d (z + c) A(z) as raw values, A given by its raw
    coefficients a and c, d raw, each formed as d (a_{k-1} + c a_k), the
    order of a product with [c, 1]; the exact zeros past both ends of a are
    left out, and trailing exact zeros are kept."""
    if not a:
        return []
    p = mp.prec
    mid = (rmul(d, rmac(lo, c, hi, p), p) for lo, hi in zip(a, a[1:]))
    return [rmul(d, rmul(c, a[0], p), p), *mid, rmul(d, a[-1], p)]


def _linear_terms(factors, n: int, S: dict):
    """The four terms d_i (z + c_i) S_{n+s_i} whose sum is R_n, as raw
    vectors, for the factors at n; S maps k to the raw coefficients of S_k."""
    return [_term_coeffs(S[n + s], c, d) for s, c, d in factors]


def _linear_sum(terms, p):
    """t1 + t2 + t3 + t4 at p, trimmed.  A term's trailing exact zeros need
    no trim first: every value they meet is a product or sum at p bits,
    which radd leaves as it is, as the sum of the trimmed terms copies it."""
    t1, t2, t3, t4 = terms
    return rpoly_add(rpoly_add(rpoly_add(t1, t2, p), t3, p), t4, p)


def residual_linear(state: DressingState, n: int) -> ZPoly:
    """Four-term linear relation in S_{n-1..n+2}; zero for valid states.

    For coefficient families even in n the result is skew under
    n -> -n - 1, which identity_residuals measures when asked.
    """
    S = {k: state.s(k).raw for k in range(n - 1, n + 3)}
    factors = _four_term_factors(state.U, state.W, n, n)[n]
    return ZPoly._from_raw(_linear_sum(_linear_terms(factors, n, S), mp.prec))


def identity_residuals(state: DressingState, window, skew: bool = False):
    """(master_rel, linear_rel, skew_rel or None): the worst relative
    residual of each identity over `window`, clipped to the state's reach.

    The master identity is checked on [max(lo, s_lo+1), min(hi, s_hi-1)]
    against the largest of |F_g|, |S_n^2|, |(z - U_n^2 - W_n) Q_n Q_{n+1}|
    and 1; the linear relation on [max(lo, s_lo+1), min(hi, s_hi-2)] against
    its largest term and 1.  With skew, |R_n + R_{-n-1}| over the linear
    scale at n is checked for n = 0..min(hi, s_hi-2, -(s_lo+2)); skew_rel
    is None without skew or when that range is empty, as no pair (n, -n-1)
    is compared.

    Everything runs on raw libmp vectors: each S_n and Q_n is read once, U
    and W on the master's sites as one raw slice each, and the products,
    sums and differences are numcore's rpoly_mul, rpoly_add and rpoly_sub,
    which ZPoly's arithmetic wraps, so the values are those of the ZPoly
    expressions bit for bit, and only the three results become mpfs.  Each
    product is formed once per n, the four-term factors once on one span
    over the linear rows and the mirrored pairs, and the skew pass reuses
    the linear one.
    """
    lo, hi = int(window[0]), int(window[1])
    s_lo, s_hi = state.window
    p = mp.prec
    f = state.curve.fpoly().raw
    fnorm = raw_max(f, p)
    S = {n: v.raw for n, v in state.S.items()}
    Q = {n: v.raw for n, v in state.Q.items()}

    # a scale is the first largest of head, each |coefficient| and 1
    def scale_of(vecs, head=fzero):
        return raw_max((head, *(c for v in vecs for c in v), fone), p)

    def worst(acc, r, scale):
        return raw_max((acc, rdiv(raw_max(r, p) if r else fzero, scale, p)))

    master_rel = fzero
    sites = range(max(lo, s_lo + 1), min(hi, s_hi - 1) + 1)
    uw = zip(state.U.values_on(sites[0], sites[-1]),
             state.W.values_on(sites[0], sites[-1])) if sites else ()
    for n, (u, w) in zip(sites, uw):
        lin = [mpf_neg(rmac(w, u, u, p)), fone]
        s2 = rpoly_mul(S[n], S[n], p)
        prod = rpoly_mul(rpoly_mul(lin, Q[n], p), Q[n + 1], p)
        master_rel = worst(master_rel, rpoly_sub(f, rpoly_add(s2, prod, p), p),
                           scale_of((s2, prod), fnorm))

    rows = range(max(lo, s_lo + 1), min(hi, s_hi - 2) + 1)
    mirrored = range(0, min(hi, s_hi - 2, -(s_lo + 2)) + 1) if skew else range(0)
    # the factors on one span over the rows and the mirrored pairs
    need = [*rows, *mirrored, *(-n - 1 for n in mirrored)]
    fac = _four_term_factors(state.U, state.W, min(need), max(need)) if need else {}
    linear = {}

    def linear_at(n):
        if n not in linear:
            terms = _linear_terms(fac[n], n, S)
            linear[n] = (_linear_sum(terms, p), scale_of(terms))
        return linear[n]

    linear_rel = fzero
    for n in rows:
        linear_rel = worst(linear_rel, *linear_at(n))
    make = mp.make_mpf
    if not mirrored:
        return make(master_rel), make(linear_rel), None
    skew_rel = fzero
    for n in mirrored:
        r, scale = linear_at(n)
        skew_rel = worst(skew_rel, rpoly_add(r, linear_at(-n - 1)[0], p), scale)
    return make(master_rel), make(linear_rel), make(skew_rel)


# ---------------------------------------------------------------------------
# coefficient bases and the level recursion in z
# ---------------------------------------------------------------------------


class AnsatzBasis:
    """A finite family of n-profiles phi_j(n) spanning the z^g coefficients
    -U_n of S, which the pin fit matches; functions(n) gives their raw
    values at the working precision."""

    name = "abstract"

    def __init__(self, g: int):
        self.g = int(g)


class TrigBasis(AnsatzBasis):
    """cos((2k+1) n), k = 0..g; integer arguments in radians."""

    name = "trig"

    @property
    def size(self):
        return self.g + 1

    def functions(self, n):
        return [cos_int((2 * k + 1) * n)._mpf_ for k in range(self.g + 1)]


class EvenPowerBasis(AnsatzBasis):
    """n^(2k), k = 0..g+1."""

    name = "even-power"

    @property
    def size(self):
        return self.g + 2

    def functions(self, n):
        return [from_int(n ** (2 * k), mp.prec, RND) for k in range(self.g + 2)]


class PowerBasis(AnsatzBasis):
    """n^j, j = 0..2g+2; needed when the quadratic family has an odd part."""

    name = "power"

    @property
    def size(self):
        return 2 * self.g + 3

    def functions(self, n):
        return [from_int(n**j, mp.prec, RND) for j in range(2 * self.g + 3)]


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
        a, p = self.a._mpf_, mp.prec
        return [pow_int(a, (2 * k + 1) * n, p) for k in range(self.g + 1)]


class AnsatzResult:
    """S_n tabulated on the common window of U and W, and info["resid_rel"],
    the worst relative residual of the four-term relation's z^0 rows over
    that window (see ansatz_solve)."""

    def __init__(self, S: dict, info):
        self.S = dict(S)
        self.info = dict(info)

    def state(self, U, W, window) -> DressingState:
        """The S table sliced to window, as a state.  A window without
        n = -1..2 takes the curve of the table's sites -2..3: a growing S_n
        (geom) would swamp the master identity at the window's own sites."""
        lo, hi = int(window[0]), int(window[1])
        if lo not in self.S or hi not in self.S:
            raise WindowError(
                f"state window [{lo}, {hi}] outside the solved S table "
                f"[{min(self.S)}, {max(self.S)}]"
            )
        S = {n: self.S[n] for n in range(lo, hi + 1)}
        curve = None if lo <= -1 and hi >= 2 else self.state(U, W, (-2, 3)).curve
        return DressingState.from_s_table(U, W, S, curve=curve)


def _pin_top_coefficients(basis, U, phi):
    """Fit -U_n in the basis span on the grid of phi, which maps the
    consecutive n to the raw basis functions at n: the raw pinned z^g
    coefficients x and the fit residual max_n |phi(n) . x + U_n|, each dot
    product by rdot, which must not exceed ANSATZ_TOL times the largest of 1
    and the |U_n|."""
    p = mp.prec
    rows = list(phi.values())
    rhs = [mpf_neg(u, p, RND) for u in U.values_on(min(phi), max(phi))]
    x, _info = linalg.lstsq(rows, rhs)
    resid = raw_max([mpf_abs(rsub(rdot(row, x, p), y, p)) for row, y in zip(rows, rhs)])
    if mpf_gt(resid, rmul(ANSATZ_TOL._mpf_, raw_max((*rhs, fone), p), p)):
        raise InconsistentDataError(
            f"coefficient family is not in the span of basis '{basis.name}' "
            f"(fit residual {mp.make_mpf(resid)})"
        )
    return x, resid


ANSATZ_TOL = mpf("1e-9")
# The marches add one increment per step and level, and the level-0 values
# that the constant fit reads cancel heavily at high genus, so the marches
# and the fit run this many bits above the working precision and the table
# is rounded once at the end; build_case tabulates its fine U and W (see
# ansatz_solve) this much finer too.  Without them the master residual of the
# odd-extension g=5 case (verify on [-24, 24], 113 bits) rises from 1.9e-31
# to 2.7e-22.
RECURSION_GUARD_BITS = 32


def _comb(f, vs, p):
    """sum_i f_i vs_i over the four raw vectors S_{n-1..n+2} of one level, at p."""
    (f1, f2, f3, f4), (v1, v2, v3, v4) = f, vs
    return [rmac(rmac(rmac(rmul(f1, a, p), f2, b, p), f3, c, p), f4, d, p)
            for a, b, c, d in zip(v1, v2, v3, v4)]


def _march(dc, D, top, seeds, n0, span):
    """S levels g..0 on span = [a, b] by the level recursion.

    Values are raw coefficient vectors at the working precision: affine
    vectors over the fit's constants, or one entry once those are known; a
    level's seeds may be longer than the level above, whose width its steps
    keep, and the q march carries the seeds' entries past it unchanged.  With
    D_n = U_{n-1} + U_n and dc[n] the products d_i c_i, level m - 1 follows
    from level m in two marches: the z^m row of the four-term relation,

        D_n D_{n+2} (q_{n+2,m-1} - q_{n,m-1}) = -sum_i d_i c_i s_{n+s_i,m},

    steps q from n0 and n0 + 1, and the pair rule
    s_{n,m-1} = -D_n q_{n,m-1} - s_{n-1,m-1} steps s from n0.  seeds holds
    the three starting values per level, top the level-g row.  Neither
    relation reads m: every level is the same affine map of the one above,
    linear in it and in the level's seeds, which _fit_rows exploits.  So
    1 / (D_n D_{n+2}) and -D_n are formed once per call, not per level.
    """
    p, (a, b) = mp.prec, span
    neg_d = {n: mpf_neg(D[n], p, RND) for n in range(a + 1, b + 1)}
    inv = {n: mpf_rdiv_int(1, rmul(D[n], D[n + 2], p), p, RND) for n in range(a + 1, b - 1)}
    levels = [top]
    for q0, q1, s0 in seeds:
        up = levels[-1]
        width = len(up[a])
        # the division comes after the sum, which cancels heavily
        step = {}
        for n in range(a + 1, b - 1):
            comb = _comb(dc[n], [up[n + k] for k in (-1, 0, 1, 2)], p)
            step[n] = [rmul(v, inv[n], p) for v in comb]
        q = {n0: q0, n0 + 1: q1}
        for n in range(n0, b - 1):
            q[n + 2] = [rsub(x, y, p) for x, y in zip(q[n], step[n])] + q[n][width:]
        for n in range(n0 - 1, a, -1):
            q[n] = [radd(x, y, p) for x, y in zip(q[n + 2], step[n])] + q[n + 2][width:]
        s = {n0: s0}
        for n in range(n0 + 1, b + 1):
            s[n] = [rsub(rmul(neg_d[n], x, p), y, p) for x, y in zip(q[n], s[n - 1])]
        for n in range(n0, a, -1):
            s[n - 1] = [rsub(rmul(neg_d[n], x, p), y, p) for x, y in zip(q[n], s[n])]
        levels.append(s)
    return levels


def _fit_rows(dc, D, top, g, n0, span):
    """The z^0 rows of the four-term relation at n = a + 1..b - 2 of span =
    [a, b], as raw affine vectors over the 3g constants: entry 0 the
    inhomogeneous part, entry 1 + 3 (g - 1 - m) + i the coefficient of the
    i-th constant of level m (q_{n0,m}, q_{n0+1,m}, s_{n0,m}).

    The march's level map Lambda is the same at every level (_march), so a
    constant's column at level 0 is Lambda^m H(e_i), H(e_i) the march of a
    unit seed under a zero level.  One march of four columns, [the
    inhomogeneous part, H(e_1), H(e_2), H(e_3)] with zero seeds after its
    first step, holds Lambda^m H(e_i) at level g - 1 - m: each level's three
    constant columns, bit for bit the entries that a march of all 3g + 1
    columns gives at level 0.
    """
    units = [[fzero, *(fone if k == i else fzero for k in range(3))] for i in range(3)]
    zeros = [[fzero] * 4] * 3
    levels = _march(dc, D, top, [units, *[zeros] * (g - 1)], n0, span)
    p, (a, b), low = mp.prec, span, levels[-1]
    s0 = {n: [low[n][0], *(v for lv in reversed(levels[1:]) for v in lv[n][1:])]
          for n in range(a, b + 1)}
    return {n: _comb(dc[n], [s0[n + k] for k in (-1, 0, 1, 2)], p) for n in range(a + 1, b - 1)}


def ansatz_solve(basis: AnsatzBasis, U: CoeffSeq, W: CoeffSeq, fine=None) -> AnsatzResult:
    """S_n on the whole common window of U and W, by the level recursion in z.

    Starting from s_{n,g} = -U_n (Q monic), each level m = g-1..0 follows
    from the one above (_march) up to three constants, q_{n0,m},
    q_{n0+1,m} and s_{n0,m}, with n0 = argmin |U_n| clamped into the
    relation's rows, so that the marches run away from the small end.  The
    z^0 rows of the relation with |n - n0| <= 3g + 2 fix the 3g constants:
    affine vectors over them are marched on that window only, in four
    columns (_fit_rows: the level map does not depend on the level, so
    every level's constants share one march of unit seeds), each row is
    divided by its largest |entry| (linalg.lstsq equilibrates the columns),
    and a fit of rank below 3g is a RankDeficiencyError.  Scalars are then
    marched over the whole table; a z^0 row whose residual exceeds
    ANSATZ_TOL times max_i |d_i| max(|c_i|, 1) |S_{n+s_i}|, a bound on the
    largest coefficient of the relation's four terms there, is an
    InconsistentDataError naming n, and the worst ratio is
    info["resid_rel"].  The marches and the fit run RECURSION_GUARD_BITS
    above the working precision, on raw libmp values.

    fine, when given, is (U, W) tabulated from the same closed forms
    RECURSION_GUARD_BITS above the working precision on at least the same
    window; the marches and the z^0 rows then read it.  Each level is
    marched from differences of the one above, so the rounding of U_n and
    W_n reaches S with a gain that grows with |n - n0| and with g, which
    guard bits in the arithmetic cannot undo: for the quadratic family
    with (a2, a1, a0) = (0.886695, 0.708451, 0.234504), g = 5, on [-28, 39]
    at 113 bits, S is off the 320-bit table by 2.9e-20 from the working
    tables alone and by 1.7e-28 with fine ones.  Tables that are exact at
    the working precision (dyadic parameters) need none.

    U and W must cover the pin fit's grid |n| <= size + 2 and give at least
    3g relation rows (a WindowError otherwise).  Near that minimum the
    constants can be undetermined: trig g = 5 on [-10, 10] is a
    RankDeficiencyError, on [-10, 12] it solves.  build_case tabulates
    [lo - 4, hi + 2g + 5] or that grid, whichever is wider.

    The table's z^g row is the basis fit of -U_n on |n| <= size + 2
    (_pin_top_coefficients) evaluated at each n, so the leads of Q are
    those of the fit.
    """
    g = basis.g
    reach = basis.size + 2
    lo, hi = max(U.window[0], W.window[0]), min(U.window[1], W.window[1])
    phi = {n: basis.functions(n) for n in range(min(lo, -reach), max(hi, reach) + 1)}
    pinned, _resid = _pin_top_coefficients(
        basis, U, {n: phi[n] for n in range(-reach, reach + 1)})
    rlo, rhi = lo + 1, hi - 2
    ncon = 3 * g
    if rhi - rlo + 1 < ncon:
        raise WindowError(
            f"U and W on [{lo}, {hi}] give {max(rhi - rlo + 1, 0)} relation rows "
            f"for {ncon} constants"
        )
    n0 = min(range(lo, hi + 1), key=lambda n: abs(U.at(n)))
    n0 = min(max(n0, rlo), rhi)
    # 3g + 3 rows or more, or every row: at least 3g either way
    flo, fhi = max(rlo, n0 - ncon - 2), min(rhi, n0 + ncon + 2)

    Uf, Wf = (U, W) if fine is None else fine
    make, p, tol = mp.make_mpf, mp.prec, ANSATZ_TOL._mpf_
    # without fine tables, each value would be checked against itself
    cols = [x.values_on(lo, hi) for x in (U, Uf, W, Wf)] if fine is not None else [()] * 4
    for n, u, uf, w, wf in zip(range(lo, hi + 1), *cols):
        for name, v, vf in (("U", u, uf), ("W", w, wf)):
            if mpf_gt(mpf_abs(rsub(vf, v, p)), rmul(tol, raw_max((v, fone), p), p)):
                raise InconsistentDataError(
                    f"fine table of {name} disagrees with {name} at n={n}"
                )
    with mp.workprec(mp.prec + RECURSION_GUARD_BITS):
        p, Uv = mp.prec, Uf.values_on(lo, hi)
        D = {
            n: _pair_denominator(Uv[n - 1 - lo], Uv[n - lo], p, f"ansatz_solve at n={n}")
            for n in range(lo + 1, hi + 1)
        }
        fac = _four_term_factors(Uf, Wf, rlo, rhi, D)
        dc = {n: [rmul(d, c, p) for _s, c, d in f] for n, f in fac.items()}

        def tops(a, b):
            return {n: [mpf_neg(Uv[n - lo], p, RND)] for n in range(a, b + 1)}

        rows, rhs = [], []
        for r in _fit_rows(dc, D, tops(flo - 1, fhi + 2), g, n0, (flo - 1, fhi + 2)).values():
            row, b = r[1:], mpf_neg(r[0], p, RND)
            big = raw_max(row, p)
            if big != fzero:
                row, b = [rdiv(v, big, p) for v in row], rdiv(b, big, p)
            rows.append(row)
            rhs.append(b)
        x, info = linalg.lstsq(rows, rhs)
        linalg.require_full_rank(
            info,
            f"ansatz constant fit on the z^0 rows [{flo}, {fhi}] (U and W on a "
            "wider window may determine it)",
        )

        # scalar march over the whole table, then the z^0 rows there
        seeds = [([x[j]], [x[j + 1]], [x[j + 2]]) for j in range(0, ncon, 3)]
        levels = _march(dc, D, tops(lo, hi), seeds, n0, (lo, hi))
        coeffs = {n: [lv[n][0] for lv in reversed(levels)] for n in range(lo, hi + 1)}
        sup = {n: raw_max(cs, p) for n, cs in coeffs.items()}
        resid_rel = fzero
        for n, f in fac.items():
            r = rdot(dc[n], [coeffs[n + k][0] for k in (-1, 0, 1, 2)], p)
            # a bound on the largest coefficient of d_i (z + c_i) S_{n+s_i}
            scale = raw_max(rmul(rmul(mpf_abs(d, p, RND), raw_max((c, fone), p), p), sup[n + s], p)
                            for s, c, d in f)
            rel = rdiv(mpf_abs(r, p, RND), scale, p)
            if mpf_gt(rel, ANSATZ_TOL._mpf_):
                raise InconsistentDataError(
                    f"no genus-{g} S for this U and W: the z^0 row of the "
                    f"four-term relation at n={n} has relative residual {make(rel)}"
                )
            resid_rel = raw_max((resid_rel, rel))

    S, p = {}, mp.prec
    for n in range(lo, hi + 1):
        lead = rdot(pinned, phi[n], p)
        S[n] = ZPoly._from_raw([*(mpf_pos(v, p, RND) for v in coeffs[n][:g]), lead])
    return AnsatzResult(S, {"resid_rel": +make(resid_rel)})


# ---------------------------------------------------------------------------
# elliptic (g = 1) closed-form state
# ---------------------------------------------------------------------------


def elliptic_dressing_state(
    curve: HyperellipticCurve, gamma: CoeffSeq, sigma: CoeffSeq | None = None, window=None
) -> DressingState:
    """Genus-1 state with Q_n = z - gamma_n for a functional parameter gamma.

    s_n = sigma_n sqrt(F1(gamma_n)) is S_n at its own divisor point (branch
    signs default +1), U_n = -(s_n + s_{n+1}) / (gamma_n - gamma_{n+1}) and
    W_n = -c2 - gamma_n - gamma_{n+1}, tabulated on [glo, ghi - 1]; then
    S_n = s_n + U_n gamma_n - U_n z on window, by default [glo, ghi - 1].
    """
    if curve.g != 1:
        raise ValueError("elliptic dressing state needs genus 1")
    glo, ghi = gamma.window
    lo, hi = (glo, ghi - 1) if window is None else (int(window[0]), int(window[1]))
    if lo < glo or hi > ghi - 1:
        raise WindowError("window needs gamma on [lo, hi+1]")

    def s_val(n):
        f = curve.eval(gamma.at(n))
        if f < 0:
            raise InconsistentDataError(
                f"F1(gamma_{n}) = {f} < 0: divisor point has no real branch"
            )
        return sqrt(f) if sigma is None else scalar(sigma.at(n)) * sqrt(f)

    s = CoeffSeq.tabulate(s_val, (glo, ghi))

    def u_val(n):
        dg = gamma.at(n) - gamma.at(n + 1)
        if abs(dg) <= DEGENERACY_REL * max(mpf(1), abs(gamma.at(n))):
            raise DegenerateDenominatorError(
                f"gamma_{n} - gamma_{n + 1} = {dg}: functional parameter is degenerate"
            )
        return -(s.at(n) + s.at(n + 1)) / dg

    U = CoeffSeq.tabulate(u_val, (glo, ghi - 1))
    W = CoeffSeq.tabulate(
        lambda n: -curve.c[2] - gamma.at(n) - gamma.at(n + 1), (glo, ghi - 1)
    )
    S = {}
    for n in range(lo, hi + 1):
        delta0 = s.at(n) + U.at(n) * gamma.at(n)
        S[n] = ZPoly([delta0, -U.at(n)])
    return DressingState.from_s_table(U, W, S, curve=curve)


# ---------------------------------------------------------------------------
# partner assembly
# ---------------------------------------------------------------------------


def build_partner_op(state: DressingState, L2: DiffOp | None = None) -> DiffOp:
    """Assemble the commuting partner of order 2g+1 from the state tables.

    On eigenfunctions, w psi(n) = Q_n(z) psi(n+1) - S_n(z) psi(n); replacing
    powers of z by powers of L2 yields the positive monic operator

        sum_k (q_{n,k} T - s_{n,k}) o L2^k,

    with q_{n,k}, s_{n,k} the z^k coefficients of Q_n, S_n, L2^0 the
    identity on L2's window and L2^k = L2 o L2^(k-1).  Every product is a
    composition, whose exact-one rule copies the other factor where it meets
    the identity's 1s or those of the top term of L2^k; so L2^1 = L2 o I holds
    L2's values (rounded to p bits where wider) on the identity's window less
    L2's order.  Starting from L2 itself would widen the partner by two
    sites, which carry the pair's largest commutator residuals.  s_{n,k} is
    negated exactly, so a state wider than p is rounded once, in the
    products.  The powers are summed, not nested (Horner), which would round
    differently and on other windows.
    """
    if L2 is None:
        L2 = state.l2()
    qs_window = (state.window[0] + 1, state.window[1])
    acc, l2k = None, DiffOp.identity(L2.window)
    for k in range(state.curve.g + 1):
        if k:
            l2k = L2 * l2k
        qk = CoeffSeq.tabulate(lambda n: _raw_coeff(state.Q[n], k), qs_window, raw=True)
        neg_sk = CoeffSeq.tabulate(lambda n: mpf_neg(_raw_coeff(state.S[n], k)), qs_window,
                                   raw=True)
        term = DiffOp({1: qk, 0: neg_sk}) * l2k
        acc = term if acc is None else acc + term
    return acc


def _raw_coeff(poly: ZPoly, k: int):
    """The raw z^k coefficient of poly, fzero past its degree."""
    return poly.raw[k] if k < len(poly.raw) else fzero
