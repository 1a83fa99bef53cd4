"""Dressing machinery for second-order operators L2 = (T + U_n)^2 + W_n.

The central objects are the degree-g polynomial pairs (S_n, Q_n) that encode
the eigenfunction ratio chi_n(P) = (S_n(z) + w) / Q_n(z) on the curve
w^2 = F_g(z).  They satisfy

    Q_n = -(S_{n-1} + S_n) / (U_{n-1} + U_n)                    (pair rule)
    F_g(z) = S_n^2 + (z - U_n^2 - W_n) Q_n Q_{n+1}              (master identity)

plus the linear four-term relation R_n(z) = sum_i d_i (z + c_i) S_{n+s_i}(z),
s_i = -1..2, obtained by eliminating F_g between consecutive n, whose
factors d_i and c_i one helper forms exactly (_four_term).  Both run
exactly on ints (numcore's z-polynomials) and round each result once: the
pair rule gives each coefficient of Q_n as a ratio of ints, the identity
checks form both identities, and a state built without a curve reads F_g
off the master polynomial at one site.  ansatz_solve constructs S by the
level recursion in z on the same exact factors, each recursion input
rounded once: the z^(m+1) coefficients of R_n step the z^m coefficients of
Q_n by 2 in n, the pair rule gives those of S_n, and 3g constants are
fitted on the z^0 coefficients.  From a valid state the commuting odd-order
partner follows (build_partner_op).

States are immutable once assembled; construction is sequential in n by
nature, every verification here is pure and parallelizes over (n, z).
"""

from __future__ import annotations

from itertools import accumulate, repeat, zip_longest
from operator import add, mul, sub

from mpmath import mp, mpf, sqrt
from mpmath.libmp import from_int, fzero, mpf_abs, mpf_neg, mpf_shift
from mpmath.libmp import round_nearest as RND

from . import linalg
from .errors import DegenerateDenominatorError, InconsistentDataError, WindowError
from .numcore import (
    HyperellipticCurve,
    ZPoly,
    cos_int,
    exceeds,
    first_exceeding,
    maxpy,
    poly_mul,
    pow_int,
    raw_ints,
    raw_split,
    rratio,
    rround,
    scalar,
    worst_ratio,
)
from .opalg import CoeffSeq, DiffOp, exact_compose, exact_form, exact_op, exact_sum

DEGENERACY_REL = mpf("1e-8")
S_LEAD_TOL = mpf("1e-6")
CURVE_RECOVERY_TOL = mpf("1e-6")


# ---------------------------------------------------------------------------
# L2 and the pair rule
# ---------------------------------------------------------------------------


def l2_operator(U: CoeffSeq, W: CoeffSeq) -> DiffOp:
    """(T + U_n)^2 + W_n = T^2 + (U_n + U_{n+1}) T + (U_n^2 + W_n), on every
    n where U_{n+1} and W_n are tabulated, formed as written: the square is
    one exact composition and adding W one exact sum, each of whose
    coefficients is rounded once, so U_n + U_{n+1} is rounded once and
    U_n^2 + W_n twice."""
    t_u = DiffOp.build({1: 1, 0: U}, U.window)
    return t_u * t_u + DiffOp({0: W})


def _denominators(u: list, exp: int, where) -> list:
    """The pair rule's denominators u_k + u_{k+1} of the U values u, ints on
    2^exp; the first not above DEGENERACY_REL times the larger |U| (degeneracy
    is cancellation, not small size) is an error whose message starts with where(k)."""
    den, scale = list(map(add, u, u[1:])), list(map(max, map(abs, u), map(abs, u[1:])))
    k = first_exceeding(zip(map(abs, den), scale), DEGENERACY_REL, over=False)
    if k is not None:
        make, p = mp.make_mpf, mp.prec
        raise DegenerateDenominatorError(
            f"{where(k)}: U_prev + U_cur = {make(rround(den[k], exp, p))} is degenerate "
            f"(scale {make(rround(scale[k], exp, p))})")
    return den


def q_from_s(S_prev: ZPoly, S_cur: ZPoly, U_prev, U_cur, where: str = "q_from_s") -> ZPoly:
    """Pair rule Q = -(S_prev + S_cur) / (U_prev + U_cur).

    The z^g-coefficient normalization of S makes the result monic; a
    denominator below the general-position threshold is an error; where
    names the stage and the index n of Q_n in its message.
    """
    (a, b, us), exp = raw_ints([S_prev.raw, S_cur.raw, [scalar(U_prev)._mpf_, scalar(U_cur)._mpf_]])
    return _pair_rule(list(zip_longest(a, b, fillvalue=0)), us, exp, lambda k: where)[0]


def _pair_rule(cols, us, exp: int, where) -> list:
    """q_from_s along a table, a column at a time: S's coefficient columns
    cols (cols[j][i] its z^j coefficient at site i) and U's values us, ints
    on 2^exp, give the list of Q from the sites k and k + 1; the first k
    whose denominator is degenerate or whose lead lies more than S_LEAD_TOL
    from 1, compared exactly, is an error whose message starts with where(k)."""
    den, num = list(map(add, us, us[1:])), [list(map(add, c, c[1:])) for c in cols]
    # each site's last nonzero numerator, 0 for none
    lead = [next(filter(None, reversed(r)), 0) for r in zip(*num, [0] * len(den))]
    k, p = first_exceeding(zip(map(abs, map(add, lead, den)), map(abs, den)), S_LEAD_TOL), mp.prec
    # a degenerate denominator at or before the first non-monic lead is named
    _denominators(us if k is None else us[:k + 2], exp, where)
    if k is not None:
        q = ZPoly._from_raw([rratio(c[k], -den[k], p) for c in num])
        raise InconsistentDataError(f"{where(k)}: pair rule produced a non-monic polynomial "
                                    f"(lead = {q.lead}); S normalization is broken")
    return [ZPoly._from_raw(list(q)) for q in zip(*([rratio(v, -d, p) for v, d in zip(c, den)]
                                                    for c in num))]


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
        S_LEAD_TOL of the larger of 1, |U_n| and |S_n|, compared exactly (one
        pass over S's coefficient columns, as the pair rule's), and,
        when no curve is given, recovers it from the master identity at
        n = 0 clamped into [lo + 1, hi - 2] (a WindowError below four sites),
        so from S_{-1..2} on any window holding them: the exact polynomial
        S_n^2 + (z - U_n^2 - W_n) Q_n Q_{n+1} of _exact_checks, which must
        equal the one at n + 1 within CURVE_RECOVERY_TOL of the larger of
        its largest |coefficient| and 1, compared exactly, gives the curve
        (HyperellipticCurve.from_exact); its error grows as |S_n|^2 at the
        site it reads.
        """
        lo, hi = min(S), max(S)
        g = max(p.degree for p in S.values())
        prec, sites = mp.prec, range(lo, hi + 1)
        # every S row and U value as ints on one exponent, read once for both checks
        (*rows, us), e = raw_ints([*(S[n].raw for n in sites), U.values_on(lo, hi)])
        cols = list(zip_longest(*rows, fillvalue=0))
        sup = map(max, repeat(1 << -e), map(abs, us), *(map(abs, c) for c in cols))
        k = first_exceeding(zip(map(abs, map(add, cols[g], us)), sup), S_LEAD_TOL)
        if k is not None:
            n = lo + k
            raise InconsistentDataError(f"S_{n} has z^{g} coefficient {S[n].coeff(g)}, "
                                        f"expected {-U.at(n)}")
        Q = _pair_rule(cols, us, e, lambda k: f"state assembly at n={lo + 1 + k}")
        state = cls(U, W, curve, S, dict(zip(sites[1:], Q)))
        if curve is None:
            # with no curve, F = 0 and the master residual is minus the curve polynomial
            n0 = max(min(0, hi - 2), lo + 1)
            if hi - lo < 3:
                raise WindowError(f"curve recovery reads S at the four sites [{n0 - 1}, {n0 + 2}]"
                                  f"; the S table holds [{lo}, {hi}]")
            ((f0, f1), _scale), _linear, exp, _lexp = _exact_checks(state, range(n0, n0 + 2),
                                                                   range(0))
            dev = max(map(abs, map(sub, f0, f1)))
            if exceeds(dev, max(1 << -exp, *map(abs, f0)), CURVE_RECOVERY_TOL):
                raise InconsistentDataError(
                    f"curve recovery: master identity differs between n={n0} and "
                    f"n={n0 + 1} by {mp.make_mpf(rround(dev, exp, prec))}; the S table "
                    "is not a valid dressing"
                )
            state.curve = HyperellipticCurve.from_exact(([-v for v in f0], exp), g,
                                                        CURVE_RECOVERY_TOL)
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


def _four_term(u: list, w: list, ku: int, kw: int):
    """[(c_i, d_i), i = 1..4], the factors of the four-term relation R_n(z) =
    sum_i d_i (z + c_i) S_{n+s_i}(z), s_i = -1..2, exactly, as columns over
    the rows n = m.. that u (U_{m-1}.. as ints on 2^eu) and w (W_m.. on
    2^ew) reach: d_i on 2^eu, c_i on 2^ec, ec = min(2 eu, ew), ku = 2 eu - ec
    and kw = ew - ec.  With D_n = U_{n-1} + U_n and E_n = U_n^2 + W_n, d =
    (D_{n+2}, D_{n+2}, -D_n, -D_n), c_1 = -E_n, c_2 = U_n U_{n+1} + U_{n-1}
    (U_n + U_{n+1}) - W_n, c_3 = U_n U_{n+1} + (U_n + U_{n+1}) U_{n+2} -
    W_{n+1} and c_4 = -E_{n+1}."""
    ws = [v << kw for v in w]
    rows = [(-(w0 + (u0 * u0 << ku)), (u0 * u1 + um1 * (u0 + u1) << ku) - w0,
             (u0 * u1 + (u0 + u1) * u2 << ku) - w1, -(w1 + (u1 * u1 << ku)), u1 + u2, -(um1 + u0))
            for um1, u0, u1, u2, w0, w1 in zip(u, u[1:], u[2:], u[3:], ws, ws[1:])]
    c1, c2, c3, c4, right, left = map(list, zip(*rows)) if rows else [[]] * 6
    return [(c1, right), (c2, right), (c3, left), (c4, left)]


def _relation(f, x):
    """sum_i f_i x_{n+s_i} at the rows n of the four columns f, x from n - 1."""
    return [a * v + b * y + c * z + d * t
            for a, b, c, d, v, y, z, t in zip(*f, x, x[1:], x[2:], x[3:])]


def _zmul(c, cols, k):
    """The coefficient columns of (z + c_i) v_i, z's coefficient 1 << k, for
    the int column c and vectors v_i of coefficient columns cols."""
    zero = [0] * len(c)
    return [[x * y + (v << k) for x, y, v in zip(c, cur, prev)]
            for cur, prev in zip([*cols, zero], [zero, *cols])]


def _exact_checks(state: DressingState, sites: range, rows: range):
    """(master, linear, mexp, lexp): the identity checks on exact ints.

    U, W, S, Q and F_g are read once where sites and rows reach, each table
    as ints on its own exponent <= 0 (numcore.raw_ints), aligned by shifts
    where products meet; a state with no curve yet reads F_g = 0.  master
    is (r, scale), lists over sites on 2^mexp: r[k] the coefficients of F_g
    - S_n^2 - (z - U_n^2 - W_n) Q_n Q_{n+1}, scale[k] the largest
    |coefficient| of F_g, the two products and 1; linear the same over rows
    on 2^lexp for R_n, its terms d_i (z + c_i) S_{n+s_i} (_four_term's d_i
    and c_i) and 1.  S_n^2 and Q_n Q_{n+1} are one poly_mul per site; the
    rest runs in passes over whole coefficient columns, zero-padded."""
    s_lo, s_hi = state.window
    a, b = min([*sites, *rows]), max([*sites, *rows])
    ulo, uhi, whi = max(a - 1, s_lo), min(b + 2, s_hi), min(b + 1, s_hi - 1)
    fraw = state.curve.fpoly().raw if state.curve else []
    ((u,), eu), ((w,), ew), ((f,), ef), (s, es), (q, eq) = map(raw_ints, (
        [state.U.values_on(ulo, uhi)], [state.W.values_on(a, whi)], [fraw],
        [state.s(n).raw for n in range(ulo, uhi + 1)],
        [state.q(n).raw for n in range(a, min(b + 1, s_hi) + 1)]))
    # U_n^2 + W_n and the c_i lie on ec, the master's terms on mexp, R_n's on lexp
    ec = min(2 * eu, ew)
    ku, kw, mexp, lexp = 2 * eu - ec, ew - ec, min(ef, 2 * es, ec + 2 * eq), eu + ec + es
    ks, kp = 2 * es - mexp, ec + 2 * eq - mexp
    F = [v << ef - mexp for v in f]
    fscale = max([1 << -mexp, *map(abs, F)])

    # the master identity at n = k + sites.start from S's row i + k and Q's j + k
    i, j, m = sites.start - ulo, sites.start - a, len(sites)
    s2 = [[v << ks for v in c] for c in zip_longest(*map(poly_mul, s[i:i + m], s[i:i + m]),
                                                    fillvalue=0)]
    prod = _zmul([-((x << kw) + (y * y << ku)) << kp for x, y in zip(w[j:j + m], u[i:i + m])],
                 list(zip_longest(*map(poly_mul, q[j:j + m], q[j + 1:j + m + 1]), fillvalue=0)),
                 kp - ec)
    r = [[x - y - z for x, y, z in zip(fc, sc, pc)]
         for fc, sc, pc in zip_longest(map(repeat, F), s2, prod, fillvalue=[0] * m)]
    master = list(zip(*r)), list(map(max, repeat(fscale), *(map(abs, c) for c in s2 + prod)))

    # the four-term relation's rows n = k + rows.start, from row o + k of its factors
    o, m = rows.start - ulo - 1, len(rows)
    cols = list(zip_longest(*s, fillvalue=0))
    terms = [_zmul(c[o:o + m], [[e * x for e, x in zip(d[o:o + m], col[o + t:])] for col in cols],
                   -ec) for t, (c, d) in enumerate(_four_term(u, w[ulo + 1 - a:], ku, kw))]
    r = [[x + y + z + v for x, y, z, v in zip(*t)] for t in zip(*terms)]
    linear = list(zip(*r)), list(map(max, repeat(1 << -lexp),
                                     *(map(abs, c) for t in terms for c in t)))
    return master, linear, mexp, lexp


def _reach(state: DressingState, n: int, short: int, identity: str) -> range:
    """range(n, n + 1) for n in [lo + 1, hi - short], the identity's reach on
    the state window [lo, hi]; a WindowError naming n and that reach otherwise."""
    lo, hi, n = state.window[0] + 1, state.window[1] - short, int(n)
    if not lo <= n <= hi:
        raise WindowError(f"the {identity} at n={n} is outside its reach [{lo}, {hi}] "
                          f"on the state window {list(state.window)}")
    return range(n, n + 1)


def verify_master(state: DressingState, n: int) -> mpf:
    """Max |coefficient| of F_g - S_n^2 - (z - U_n^2 - W_n) Q_n Q_{n+1}, rounded once."""
    ((r,), _scale), _linear, exp, _lexp = _exact_checks(
        state, _reach(state, n, 1, "master identity"), range(0))
    return mp.make_mpf(rround(max(map(abs, r)), exp, mp.prec))


def residual_linear(state: DressingState, n: int) -> ZPoly:
    """Four-term linear relation in S_{n-1..n+2}, each coefficient exact and
    rounded once; zero for valid states.

    For coefficient families even in n the result is skew under
    n -> -n - 1, which identity_residuals measures when asked.
    """
    _master, ((r,), _scale), _mexp, exp = _exact_checks(
        state, range(0), _reach(state, n, 2, "linear relation"))
    return ZPoly._from_raw([rround(v, exp, mp.prec) for v in r])


def identity_residuals(state: DressingState, window, skew: bool = False):
    """(master_rel, linear_rel, skew_rel or None): the worst relative
    residual of each identity over `window`, clipped to the state's reach.

    The master identity is checked on [max(lo, s_lo+1), min(hi, s_hi-1)]
    against the largest of |F_g|, |S_n^2|, |(z - U_n^2 - W_n) Q_n Q_{n+1}|
    and 1; the linear relation on [max(lo, s_lo+1), min(hi, s_hi-2)] against
    its largest term and 1.  With skew, |R_n + R_{-n-1}| over the linear
    scale at n is checked for n = 0..min(hi, s_hi-2, -(s_lo+2)); skew_rel
    is None without skew or when that range is empty, as no pair (n, -n-1)
    is compared.  A window that holds no row of the linear relation, and so
    none of the master identity either, is a WindowError.

    Every residual and scale is exact (_exact_checks' column passes, the
    linear one over the hull of the rows and the pairs), and the worst of
    the per-n ratios |r| / scale of each identity, compared exactly, is
    rounded once at mp.prec, by numcore.worst_ratio.
    """
    (lo, hi), (s_lo, s_hi) = map(int, window), state.window
    sites = range(max(lo, s_lo + 1), min(hi, s_hi - 1) + 1)
    rows = range(sites.start, min(hi, s_hi - 2) + 1)
    if not rows:
        raise WindowError(f"window [{lo}, {hi}] holds no row of the identities of the state "
                          f"on [{s_lo}, {s_hi}]")
    mirrored = range(0, min(hi, s_hi - 2, -(s_lo + 2)) + 1) if skew else range(0)
    # the linear pass runs from the first row or pair to the last row
    at = min([rows.start, *(-n - 1 for n in mirrored)])
    master, (lr, ls), *_exps = _exact_checks(state, sites, range(at, rows.stop))

    def worst(r, scale):
        return mp.make_mpf(worst_ratio(((max(map(abs, v)), x) for v, x in zip(r, scale)), mp.prec))

    master_rel, linear_rel = worst(*master), worst(lr[rows.start - at:], ls[rows.start - at:])
    return master_rel, linear_rel, worst(
        [list(map(add, lr[n - at], lr[-n - 1 - at])) for n in mirrored],
        [ls[n - at] for n in mirrored]) if mirrored else None


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
            raise WindowError(f"state window [{lo}, {hi}] outside the solved S table "
                              f"[{min(self.S)}, {max(self.S)}]")
        S = {n: self.S[n] for n in range(lo, hi + 1)}
        curve = None if lo <= -1 and hi >= 2 else self.state(U, W, (-2, 3)).curve
        return DressingState.from_s_table(U, W, S, curve=curve)


def _pin_top_row(basis, U, lo, hi):
    """The z^g row of S: -U_n fitted in the basis span on the grid |n| <=
    size + 2 (linalg.lstsq_mpf on the raw basis functions and -U_n rounded
    at the working precision), {n: phi(n) . x} on the hull of the grid and
    [lo, hi], summed by numcore.maxpy a basis column at a time.  The fit
    residual max |phi(n) . x + U_n| over the grid, compared exactly on the
    ints of the row and U, must not exceed ANSATZ_TOL times max(1, max |U_n|)."""
    p, reach = mp.prec, basis.size + 2
    us = U.values_on(-reach, reach)
    phi = {n: basis.functions(n) for n in range(min(lo, -reach), max(hi, reach) + 1)}
    x, _info = linalg.lstsq_mpf([phi[n] for n in range(-reach, reach + 1)],
                                [mpf_neg(u, p, RND) for u in us])
    row = [0] * len(phi), [0] * len(phi)
    for a, col in zip(x, zip(*phi.values())):
        row = maxpy(a, *raw_split(col), *row, p)
    row = {n: rround(m, e, p) for n, m, e in zip(phi, *row)}
    (r, u), e = raw_ints([[row[n] for n in range(-reach, reach + 1)], us])
    resid = max(abs(a + b) for a, b in zip(r, u))
    if exceeds(resid, max(1 << -e, *map(abs, u)), ANSATZ_TOL):
        raise InconsistentDataError(
            f"coefficient family is not in the span of basis '{basis.name}' "
            f"(fit residual {mp.make_mpf(rround(resid, e, p))})"
        )
    return row


ANSATZ_TOL = mpf("1e-9")
# The level recursion is exact, but not its inputs: d_i c_i, D_n and
# 1 / (D_n D_{n+2}) are each formed exactly from the fine U and W and rounded
# once (see ansatz_solve), and the constant fit reads level-0 values that
# cancel heavily at high genus.  So build_case's fine tables, those inputs
# and the fit carry this many bits above the working precision; without
# them the master residual of odd-extension g=5 (verify on [-24, 24], 113
# bits) rises from 1.9e-31 to 3.1e-22.
RECURSION_GUARD_BITS = 32


def _two_step(x0, x1, k, v):
    """x on 0..len(v) - 1 from x[k] = x0, x[k + 1] = x1 and x[i] = x[i - 2] +
    v[i] (v[0], v[1] unread): each parity's prefix sums from its seed."""
    x = [0] * len(v)
    for i, seed in ((k, x0), (k + 1, x1)):
        steps, c = v[i % 2 + 2::2], i // 2
        back = list(accumulate(steps[:c][::-1], sub, initial=seed))
        x[i % 2::2] = back[:0:-1] + list(accumulate(steps[c:], initial=seed))
    return x


def _march(dc, D, inv, top, seeds, n0, span):
    """S levels g..0 on span = [a, b] by the level recursion, exactly.

    Tables are (columns, exp), lists over n of ints on 2^exp (numcore's
    raw_ints), and may run past b: top holds level g from n = a; dc the four
    d_i c_i, D the D_n = U_{n-1} + U_n and inv the 1 / (D_n D_{n+2}) from
    a + 1; seeds each lower level's ((q0, q1, s0), exp).  Level m - 1
    follows from level m by the z^m row of the four-term relation,

        D_n D_{n+2} (q_{n+2,m-1} - q_{n,m-1}) = -sum_i d_i c_i s_{n+s_i,m},

    and the pair rule s_{n,m-1} = t_n - s_{n-1,m-1}, t_n = -D_n q_{n,m-1}:
    both step by 2 in n from n0 and n0 + 1 (s_{n,m-1} - s_{n-2,m-1} = t_n -
    t_{n-1}), each march a prefix sum over a whole column (_two_step) in int
    products and sums, exponents aligned by shifts.  Entries are affine in
    the fit's constants, a column each; a seed entry past the columns of the
    level above takes no steps.  Neither relation reads m: every level is
    the same affine map of the one above, which _fit_rows exploits.
    """
    (f, edc), ((dn,), ed), ((iv,), einv) = dc, D, inv
    k, size = n0 - span[0], span[1] - span[0]
    levels = [([c[:size + 1] for c in top[0]], top[1])]
    for (q0, q1, s0), e in seeds:
        up, eup = levels[-1]
        # the steps inv_n sum_i dc_i s_{n+s_i} lie on estep, q on eq, s on es
        estep = einv + edc + eup
        eq = min(estep, e)
        es = min(ed + eq, e)
        minus_inv = [-v << estep - eq for v in iv]
        d = [-v << ed + eq - es for v in dn]
        cols = []
        for j, (x0, x1, y0) in enumerate(zip(q0, q1, s0)):
            x0, x1, y0 = x0 << e - eq, x1 << e - eq, y0 << e - es
            # q on a + 1..b, s on a..b
            steps = ([0, 0] + [x * y for x, y in zip(minus_inv, _relation(f, up[j]))]
                     if j < len(up) else [0] * size)
            q = _two_step(x0, x1, k - 1, steps)
            t = [x * y for x, y in zip(d, q)]
            cols.append(_two_step(y0, t[k] - y0, k, [0, 0] + [x - y for x, y in zip(t[1:], t)]))
        levels.append((cols, es))
    return levels


def _fit_rows(dc, D, inv, top, g, n0, span):
    """{n: the z^0 row of the four-term relation} at n = a + 1..b - 2 of
    span = [a, b], as raw affine vectors over the 3g constants: entry 0 the
    inhomogeneous part, entry 1 + 3 (g - 1 - m) + i the coefficient of the
    i-th constant of level m (q_{n0,m}, q_{n0+1,m}, s_{n0,m}), from
    _march's tables, each formed exactly and rounded once at mp.prec, an
    entry's whole column at a time.

    The level map Lambda is the same at every level (_march), so a
    constant's column at level 0 is Lambda^m H(e_i), H(e_i) the march of a
    unit seed under a zero level.  One march of four columns, [the
    inhomogeneous part, H(e_1), H(e_2), H(e_3)] with zero seeds after its
    first step, holds Lambda^m H(e_i) at level g - 1 - m: exactly the
    entries that a march of all 3g + 1 columns gives at level 0.
    """
    units = [[0, *(int(k == i) for k in range(3))] for i in range(3)], 0
    zeros = [[0] * 4] * 3, 0
    levels = _march(dc, D, inv, top, [units, *[zeros] * (g - 1)], n0, span)
    # each entry's column and its exponent
    cols = [(levels[-1][0][0], levels[-1][1]),
            *((c[j], e) for c, e in reversed(levels[1:]) for j in (1, 2, 3))]
    p, (a, b), (f, edc) = mp.prec, span, dc
    entries = [[rround(v, edc + e, p) for v in _relation(f, c)] for c, e in cols]
    return dict(zip(range(a + 1, b - 1), map(list, zip(*entries))))


def ansatz_solve(basis: AnsatzBasis, U: CoeffSeq, W: CoeffSeq, fine=None) -> AnsatzResult:
    """S_n on the whole common window of U and W, by the level recursion in z.

    Starting from s_{n,g} = -U_n (Q monic), each level m = g-1..0 follows
    from the one above (_march) up to three constants, q_{n0,m}, q_{n0+1,m}
    and s_{n0,m}, n0 the first argmin |U_n| clamped into the relation's
    rows, so that the marches run away from the small end.  The z^0 rows
    with |n - n0| <= 3g + 2 fix the 3g constants: affine vectors over them
    are marched on that window only, in four columns (_fit_rows: the level
    map does not depend on the level), each row shifted by the power of two
    that puts its largest |entry| in [1/2, 1) for linalg.lstsq, and a fit of
    rank below 3g is a RankDeficiencyError.  Scalars are then marched over
    the whole table; a z^0 row whose residual exceeds ANSATZ_TOL times
    max_i |d_i| max(|c_i|, 1) |S_{n+s_i}|, a bound on the largest
    coefficient of the relation's four terms, is an InconsistentDataError
    naming n, and the worst ratio, compared on bit lengths first
    (numcore.worst_ratio), is info["resid_rel"].

    Each table is one list over the window, or a list of such columns, on
    one exponent.  The fine U and W are read once as ints; D_n, d_i c_i
    (from _four_term's columns, which the identity checks read too) and
    1 / (D_n D_{n+2}) are each formed exactly and rounded once
    RECURSION_GUARD_BITS above the working precision; the marches are exact;
    each fit-row entry is rounded once at that precision, and each
    coefficient below z^g once at the working precision, a column at a time.

    fine, when given, is (U, W) tabulated from the same closed forms
    RECURSION_GUARD_BITS above the working precision on at least the same
    window, each value within ANSATZ_TOL max(|v|, 1) of the working v
    (compared exactly); the marches and the z^0 rows then read it.  Each
    level is marched from differences of the one above, so the rounding of
    U_n and W_n reaches S with a gain that grows with |n - n0| and with g:
    for the quadratic family with (a2, a1, a0) = (0.886695, 0.708451,
    0.234504), g = 5, on [-28, 39] at 113 bits, S is off the 320-bit table
    by 2.9e-20 from the working tables alone and by 1.0e-28 with fine ones.
    Tables that are exact at the working precision (dyadic parameters) need
    none.

    U and W must cover the pin fit's grid |n| <= size + 2 and give at least
    3g relation rows (a WindowError otherwise).  Near that minimum the
    constants can be undetermined: trig g = 5 on [-10, 10] is a
    RankDeficiencyError, on [-10, 12] it solves.  build_case tabulates
    [lo - 4, hi + 2g + 5] or that grid, whichever is wider.

    The table's z^g row is the basis fit of -U_n on |n| <= size + 2
    evaluated at each n (_pin_top_row), so the leads of Q are those of the
    fit.
    """
    g = basis.g
    lo, hi = max(U.window[0], W.window[0]), min(U.window[1], W.window[1])
    top_row = _pin_top_row(basis, U, lo, hi)
    rlo, rhi = lo + 1, hi - 2
    ncon = 3 * g
    if rhi - rlo + 1 < ncon:
        raise WindowError(f"U and W on [{lo}, {hi}] give {max(rhi - rlo + 1, 0)} relation rows "
                          f"for {ncon} constants")
    # each |U_n| as mpf's abs rounds it, as ints: the first smallest is n0
    (mags,), _e = raw_ints([[mpf_abs(u, mp.prec, RND) for u in U.values_on(lo, hi)]])
    n0 = min(max(lo + mags.index(min(mags)), rlo), rhi)
    # 3g + 3 rows or more, or every row: at least 3g either way
    flo, fhi = max(rlo, n0 - ncon - 2), min(rhi, n0 + ncon + 2)

    Uf, Wf = (U, W) if fine is None else fine
    make, p_out = mp.make_mpf, mp.prec
    # without fine tables, each value would be checked against itself
    for name, x, xf in (("U", U, Uf), ("W", W, Wf)) if fine is not None else ():
        (vs, fs), e = raw_ints([x.values_on(lo, hi), xf.values_on(lo, hi)])
        scale = map(max, map(abs, vs), repeat(1 << -e))
        k = first_exceeding(zip(map(abs, map(sub, fs, vs)), scale), ANSATZ_TOL)
        if k is not None:
            raise InconsistentDataError(f"fine table of {name} disagrees with {name} at n={lo + k}")
    with mp.workprec(mp.prec + RECURSION_GUARD_BITS):
        # the fine U and W as ints, read once: D_n, the four-term factors and
        # so every input of the recursion are exact, each rounded once, each
        # table one list over the window (D, dc and inv from lo + 1)
        p = mp.prec
        ((u,), eu), ((w,), ew) = (raw_ints([t.values_on(lo, hi)]) for t in (Uf, Wf))
        ec = min(2 * eu, ew)
        Dx = _denominators(u, eu, lambda k: f"ansatz_solve at n={lo + 1 + k}")
        fac = _four_term(u, w[1:], 2 * eu - ec, ew - ec)
        dc = raw_ints([[rround(d * c, eu + ec, p) for c, d in zip(*t)] for t in fac])
        D = raw_ints([[rround(v, eu, p) for v in Dx]])
        inv = raw_ints([[rratio(1 << -2 * eu, x * y, p) for x, y in zip(Dx, Dx[2:])]])
        top = [[-v for v in u]], eu

        rows, rhs, o = [], [], flo - 1 - lo
        fit = [([c[o:] for c in cols], e) for cols, e in (dc, D, inv, top)]
        for r in _fit_rows(*fit, g, n0, (flo - 1, fhi + 2)).values():
            # the largest |entry| shifted into [1/2, 1), exactly: each has
            # at most p bits, so the largest has the top exponent plus bit count
            peak = max((e + bc for _s, man, e, bc in r[1:] if man), default=0)
            rows.append([mpf_shift(v, -peak) for v in r[1:]])
            rhs.append(mpf_shift(mpf_neg(r[0], p, RND), -peak))
        x, info = linalg.lstsq(rows, rhs)
        linalg.require_full_rank(info, f"ansatz constant fit on the z^0 rows [{flo}, {fhi}] "
                                       "(U and W on a wider window may determine it)")

        # scalar march over the whole table, then the z^0 rows there
        (xv,), ex = raw_ints([x])
        seeds = [(([xv[j]], [xv[j + 1]], [xv[j + 2]]), ex) for j in range(0, ncon, 3)]
        levels = _march(dc, D, inv, top, seeds, n0, (lo, hi))
        ((s0,), e0), (f, edc) = levels[-1], dc
        # |S_n|, the largest |coefficient| at n, on e0, the least level exponent
        sup = list(map(max, *([abs(v) << e - e0 for v in c] for (c,), e in levels)))
        # r lies on 2^(edc + e0), the scale on 2^(eu + ec + e0); the scale
        # bounds the largest coefficient of the terms d_i (z + c_i) S_{n+s_i}
        shift, one = edc - eu - ec, 1 << -ec
        weights = zip(*([abs(d) * max(abs(c), one) for c, d in zip(*t)] for t in fac))
        scales = (max(map(mul, row, sups)) << max(-shift, 0)
                  for row, sups in zip(weights, zip(sup, sup[1:], sup[2:], sup[3:])))
        ratios = list(zip((abs(v) << max(shift, 0) for v in _relation(f, s0)), scales))
        k = first_exceeding(ratios, ANSATZ_TOL)
        if k is not None:
            raise InconsistentDataError(f"no genus-{g} S for this U and W: the z^0 row of "
                                        f"the four-term relation at n={rlo + k} has relative "
                                        f"residual {make(rratio(*ratios[k], p))}")

    below = zip(*([rround(v, e, p_out) for v in c] for (c,), e in reversed(levels[1:])))
    S = {n: ZPoly._from_raw([*row, top_row[n]]) for n, row in zip(range(lo, hi + 1), below)}
    return AnsatzResult(S, {"resid_rel": make(worst_ratio(ratios, p_out))})


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
    f, c2 = curve.fpoly(), curve.c[2]
    signs = [None] * (ghi - glo + 1) if sigma is None else sigma.values_on(glo, ghi)
    U, W, S = [], [], {}
    # one pass: s_n at each n, then U, W and S at n - 1 from (gamma, s) at n - 1 and n
    for n, x, sign in zip(range(glo, ghi + 1), gamma.values, signs):
        fx = f.eval(x)
        if fx < 0:
            raise InconsistentDataError(f"F1(gamma_{n}) = {fx} < 0: divisor point has no "
                                        "real branch")
        s = sqrt(fx) if sign is None else mp.make_mpf(sign) * sqrt(fx)
        if n > glo:
            dg = x0 - x
            if abs(dg) <= DEGENERACY_REL * max(mpf(1), abs(x0)):
                raise DegenerateDenominatorError(f"gamma_{n - 1} - gamma_{n} = {dg}: functional "
                                                 "parameter is degenerate")
            u = -(s0 + s) / dg
            U.append(u)
            W.append(-c2 - x0 - x)
            if lo <= n - 1 <= hi:
                S[n - 1] = ZPoly([s0 + u * x0, -u])
        x0, s0 = x, s
    return DressingState.from_s_table(CoeffSeq(glo, U), CoeffSeq(glo, W), S, curve=curve)


# ---------------------------------------------------------------------------
# partner assembly
# ---------------------------------------------------------------------------


def build_partner_op(state: DressingState, L2: DiffOp | None = None) -> DiffOp:
    """Assemble the commuting partner of order 2g+1 from the state tables.

    On eigenfunctions, w psi(n) = Q_n(z) psi(n+1) - S_n(z) psi(n); replacing
    powers of z by powers of L2 yields the positive monic operator

        sum_k (q_{n,k} T - s_{n,k}) o L2^k,

    with q_{n,k}, s_{n,k} the z^k coefficients of Q_n, S_n, nested by
    Horner's rule: acc = c_g, then acc o L2 + c_k for k = g - 1, ..., 0, with
    c_k = q_{n,k} T - s_{n,k}.  Each composition and sum is exact, on opalg's
    exact forms: L2's raw values and the tables' z^k coefficients, read once
    per k as ints (numcore.raw_ints), enter at whatever width they hold, and
    each coefficient is rounded once, at the working precision, by rround.
    The tables are read, and the partner lies, on the window of the sum of
    powers, each power built from the identity on L2's window:
    [max(s_lo + 1, L2_lo), min(s_hi, L2_hi - 2g - 1)], [s_lo, s_hi] the
    state's.  The nested sum on [s_lo + 1, s_hi] would reach two sites
    further right, to L2_hi - 2g + 1, and those sites carry the pair's
    largest commutator residuals.
    """
    L2 = state.l2() if L2 is None else L2
    g, l2, acc = state.curve.g, exact_form(L2), None
    (slo, shi), (llo, lhi) = state.window, L2.window
    window = lo, hi = max(slo + 1, llo), min(shi, lhi - 2 * g - 1)
    tables = [[t[n].raw for n in range(lo, hi + 1)] for t in (state.Q, state.S)]
    for k in range(g, -1, -1):
        (qk, sk), exp = raw_ints([[v[k] if k < len(v) else fzero for v in t] for t in tables])
        ck = (window, {1: qk, 0: [-v for v in sk]}, exp)
        acc = ck if acc is None else exact_sum(exact_compose(acc, l2), ck)
    return exact_op(acc, mp.prec)
