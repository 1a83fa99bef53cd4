"""Discrete second-order operators on an eps-lattice built from Weierstrass
zeta differences, their continuum limit, and the genus-1 spectral-curve
stability check across step sizes.

wp and zeta are evaluated from the Laurent expansion around 0 (recursive
coefficients in g2, g3) followed by argument duplication, with real-axis
reduction by the period 2*omega1 and the quasi-period shift for zeta.  The
classical differential equation (wp')^2 = 4 wp^3 - g2 wp - g3 and
zeta' = -wp pin the conventions; the consistency checks in the test-suite
verify both numerically.
"""

from __future__ import annotations

import json

from mpmath import mpf, sqrt, pi, agm, polyroots, floor, log, cos

from . import linalg
from .errors import InconsistentDataError, LatticeProximityError
from .numcore import mpf_to_str, scalar
from .opalg import CoeffSeq, DiffOp, commutator_scale, op_commutator
from .families import elliptic_family
from .spectral import extract_curve

LATTICE_PROXIMITY = mpf("1e-6")

A2_INTERPRETATIONS = ("full", "split")

# The continuum defect changes sign around eps ~ 0.03..0.1 for genus >= 2,
# so order fitting needs steps past the crossing.
DEFAULT_SLOPE_EPS = ("0.0125", "0.00625", "0.003125")


class WeierstrassContext:
    """Evaluators for wp, wp', zeta on the real line for invariants (g2, g3).

    Requires a positive discriminant (three real branch points) so the real
    period lattice is rectangular; complex lattices are out of scope.
    """

    def __init__(self, g2, g3, nterms: int = 48):
        self.g2, self.g3 = scalar(g2), scalar(g3)
        disc = self.g2**3 - 27 * self.g3**2
        if disc <= 0:
            raise ValueError(f"need g2^3 - 27 g3^2 > 0 for a real lattice, got {disc}")
        roots = polyroots([mpf(4), mpf(0), -self.g2, -self.g3])
        reals = sorted((r.real for r in roots), reverse=True)
        self.e1, self.e2, self.e3 = reals
        self.omega1 = pi / (2 * agm(sqrt(self.e1 - self.e3), sqrt(self.e1 - self.e2)))
        self.omega2_mag = pi / (2 * agm(sqrt(self.e1 - self.e3), sqrt(self.e2 - self.e3)))
        c = {2: self.g2 / 20, 3: self.g3 / 28}
        for k in range(4, nterms + 1):
            c[k] = (
                mpf(3)
                / ((2 * k + 1) * (k - 3))
                * sum(c[m] * c[k - m] for m in range(2, k - 1))
            )
        self._c = c
        self._nterms = nterms
        self._r0 = mpf("0.35") * 2 * min(self.omega1, self.omega2_mag)
        self._eta1 = None
        self._eta1 = self._eval_reduced(self.omega1)[2]

    @property
    def eta1(self) -> mpf:
        return self._eta1

    def _series(self, t):
        t2 = t * t
        p = 1 / t2
        dp = -2 / (t2 * t)
        zt = 1 / t
        tpow = t2
        for k in range(2, self._nterms + 1):
            ck = self._c[k]
            p += ck * tpow
            dp += (2 * k - 2) * ck * tpow / t
            zt -= ck * tpow * t / (2 * k - 1)
            tpow *= t2
        return p, dp, zt

    def _duplicate(self, p, dp, zt):
        r = 6 * p * p - self.g2 / 2
        s = 12 * p * dp
        zt2 = 2 * zt + r / (2 * dp)
        p2 = (r / (2 * dp)) ** 2 - 2 * p
        dp2 = r * (s * dp - r * r) / (4 * dp**3) - dp
        return p2, dp2, zt2

    def _eval_reduced(self, x):
        sign = 1
        if x < 0:
            x, sign = -x, -1
        halvings = 0
        while x / 2**halvings > self._r0:
            halvings += 1
        p, dp, zt = self._series(x / 2**halvings)
        for _ in range(halvings):
            p, dp, zt = self._duplicate(p, dp, zt)
        if sign < 0:
            dp, zt = -dp, -zt
        return p, dp, zt

    def triple(self, x):
        """(wp(x), wp'(x), zeta(x)) with real-axis lattice reduction."""
        x = scalar(x)
        m = int(floor(x / (2 * self.omega1) + mpf(1) / 2))
        xr = x - 2 * m * self.omega1
        if abs(xr) < LATTICE_PROXIMITY:
            raise LatticeProximityError(
                f"argument {x} is within {LATTICE_PROXIMITY} of lattice point "
                f"{2 * m * self.omega1}"
            )
        p, dp, zt = self._eval_reduced(xr)
        return p, dp, zt + 2 * m * self._eta1

    def wp(self, x) -> mpf:
        return self.triple(x)[0]

    def wp_prime(self, x) -> mpf:
        return self.triple(x)[1]

    def zeta(self, x) -> mpf:
        return self.triple(x)[2]


class LameDiscretization:
    """Lattice data: genus, step eps, base point x0, and the bracket reading
    for the even-genus seed term (see ag_build)."""

    __slots__ = ("g", "eps", "x0", "a2_interpretation")

    def __init__(self, g: int, eps, x0, a2_interpretation: str = "full"):
        self.g = int(g)
        self.eps = scalar(eps)
        self.x0 = scalar(x0)
        if a2_interpretation not in A2_INTERPRETATIONS:
            raise ValueError(f"a2_interpretation must be one of {A2_INTERPRETATIONS}")
        self.a2_interpretation = a2_interpretation


def ag_build(ctx: WeierstrassContext, g: int, eps, a2_interpretation: str = "full"):
    """The T-coefficient profile A_g(x, eps) as a callable of x.

    A_1 = -2 zeta(eps) - zeta(x - eps) + zeta(x + eps); for genus >= 3 the odd
    and even product formulas extend A_1 / A_2.  The even-genus seed is
    published with an unbalanced bracket, so both readings ship:
    'full' applies -3/2 to the whole sum (the reading the continuum limit
    selects), 'split' applies it to the constant pair only.
    """
    g = int(g)
    eps = scalar(eps)
    z = ctx.zeta

    def a1(x):
        return -2 * z(eps) - z(x - eps) + z(x + eps)

    def a2(x):
        core = z(eps) + z(3 * eps) + z(x - 2 * eps) - z(x + 2 * eps)
        if a2_interpretation == "full":
            return -mpf(3) / 2 * core
        return -mpf(3) / 2 * (z(eps) + z(3 * eps)) + z(x - 2 * eps) - z(x + 2 * eps)

    if g == 1:
        return a1
    if g == 2:
        return a2
    if g % 2 == 1:
        g1 = (g - 1) // 2

        def a_odd(x):
            acc = a1(x)
            for k in range(1, g1 + 1):
                num = z(x - (2 * k + 1) * eps) - z(x + (2 * k + 1) * eps)
                den = z(eps) + z((4 * k + 1) * eps)
                acc *= 1 + num / den
            return acc

        return a_odd
    g1 = g // 2

    def a_even(x):
        acc = a2(x)
        for k in range(2, g1 + 1):
            num = z(x - 2 * k * eps) - z(x + 2 * k * eps)
            den = z(eps) + z((4 * k - 1) * eps)
            acc *= 1 + num / den
        return acc

    return a_even


def lame_l2(disc: LameDiscretization, ctx: WeierstrassContext, window) -> DiffOp:
    """T^2/eps^2 + A_g(x_n, eps) T/eps + wp(eps) on the lattice x_n = x0 + n eps."""
    eps = disc.eps
    A = ag_build(ctx, disc.g, eps, disc.a2_interpretation)
    wp_eps = ctx.wp(eps)
    return DiffOp.build(
        {
            2: 1 / eps**2,
            1: lambda n: A(disc.x0 + n * eps) / eps,
            0: wp_eps,
        },
        window,
    )


def continuum_check(disc: LameDiscretization, ctx: WeierstrassContext, f, d2f, x) -> mpf:
    """|(L2 f)(x) - f''(x) + g(g+1) wp(x) f(x)| for a smooth test function."""
    eps = disc.eps
    x = scalar(x)
    A = ag_build(ctx, disc.g, eps, disc.a2_interpretation)
    lf = f(x + 2 * eps) / eps**2 + A(x) * f(x + eps) / eps + ctx.wp(eps) * f(x)
    target = d2f(x) - disc.g * (disc.g + 1) * ctx.wp(x) * f(x)
    return abs(lf - target)


def _fit_slope(xs, ys):
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = sum((x - mx) ** 2 for x in xs)
    return num / den


def continuum_slope(
    ctx: WeierstrassContext,
    g: int,
    eps_list=None,
    x=mpf("0.7"),
    f=cos,
    d2f=lambda t: -cos(t),
    a2_interpretation: str = "full",
):
    """Fitted convergence order of the continuum defect across an eps sweep."""
    if eps_list is None:
        eps_list = [mpf(e) for e in DEFAULT_SLOPE_EPS]
    errs = []
    for eps in eps_list:
        disc = LameDiscretization(g, eps, x, a2_interpretation)
        errs.append(continuum_check(disc, ctx, f, d2f, scalar(x)))
    slope = _fit_slope([log(scalar(e)) for e in eps_list], [log(e) for e in errs])
    return slope, errs


def select_a2_interpretation(ctx: WeierstrassContext, eps_list=None, x=mpf("0.7")) -> str:
    """Pick the even-genus bracket reading by the g=2 convergence order."""
    best, best_slope = None, mpf("-inf")
    for interp in A2_INTERPRETATIONS:
        slope, _ = continuum_slope(ctx, 2, eps_list, x, a2_interpretation=interp)
        if slope > best_slope:
            best, best_slope = interp, slope
    if best_slope < mpf("0.8"):
        raise InconsistentDataError(
            f"no bracket reading reaches convergence order 0.8 (best {best_slope})"
        )
    return best


# ---------------------------------------------------------------------------
# genus-1 parameter recovery and eps-independence
# ---------------------------------------------------------------------------


def _recover_dressing_parameters(u1, u0, newton_n, init, target=mpf("1e-10")):
    """Solve for (c2, c1, c0, gamma0, U0) matching the monic operator data.

    The master identity for a genus-1 state with Q_n = z - gamma_n reduces,
    coefficient by coefficient in z, to a three-term chain: gamma advances by
    gamma_{n+1} = U_n^2 - u0 - c2 - gamma_n, the linear coefficient determines
    the S constant term delta_n, and the z^0 coefficient leaves one residual
    per lattice site.  Damped Newton with finite differences closes it.
    """

    def residuals(v):
        c2, c1, c0, g_cur, U_cur = v
        res = []
        for n in range(newton_n):
            if abs(U_cur) < mpf("1e-8"):
                return None
            g_next = U_cur**2 - u0 - c2 - g_cur
            delta = (g_cur * g_next + u0 * (g_cur + g_next) - c1) / (2 * U_cur)
            res.append(delta**2 - u0 * g_cur * g_next - c0)
            U_cur = u1(n) - U_cur
            g_cur = g_next
        return res

    x, info = linalg.damped_newton(residuals, init, max_iter=80, target_inf=target)
    return x, info


def _gamma_u_s_chains(params, u1, u0, window):
    """Tabulate gamma, U, and S(gamma) values on the window from the solve."""
    c2, c1, c0, g0, U0 = params
    lo, hi = int(window[0]), int(window[1])
    gam = {0: g0}
    U = {0: U0}
    for n in range(0, hi):
        U[n + 1] = u1(n) - U[n]
        gam[n + 1] = U[n] ** 2 - u0 - c2 - gam[n]
    for n in range(0, lo, -1):
        U[n - 1] = u1(n - 1) - U[n]
        gam[n - 1] = U[n - 1] ** 2 - u0 - c2 - gam[n]

    def delta(n):
        return (gam[n] * gam[n + 1] + u0 * (gam[n] + gam[n + 1]) - c1) / (2 * U[n])

    s = {n: -U[n] * gam[n] + delta(n) for n in range(lo, hi)}
    return gam, U, s


class LameIndependenceReport:
    def __init__(self, g2, g3, x0, entries, curve_deviation):
        self.g2, self.g3, self.x0 = g2, g3, x0
        self.entries = entries
        self.curve_deviation = curve_deviation

    def to_json(self) -> str:
        doc = {
            "invariants": {"g2": mpf_to_str(self.g2), "g3": mpf_to_str(self.g3)},
            "x0": mpf_to_str(self.x0),
            "cross_eps_curve_deviation": mpf_to_str(self.curve_deviation),
            "per_eps": [
                {
                    "eps": mpf_to_str(e["eps"]),
                    "newton_residual": mpf_to_str(e["newton_residual"]),
                    "newton_iterations": e["newton_iterations"],
                    "commutator_residual_rel": mpf_to_str(e["commutator_residual_rel"]),
                    "curve_monic": [mpf_to_str(c) for c in e["curve_monic"]],
                    "curve_unnormalized": [mpf_to_str(c) for c in e["curve_unnormalized"]],
                }
                for e in self.entries
            ],
        }
        return json.dumps(doc, sort_keys=True)


def lame_curve_independence(
    ctx: WeierstrassContext,
    eps_list,
    x0,
    newton_n: int = 10,
    l3_window=(-5, 5),
    newton_target=mpf("1e-22"),
) -> LameIndependenceReport:
    """Check that the extracted curve does not depend on the lattice step.

    For each eps the monic operator eps^2 L2 = T^2 + eps A_1(x_n) T +
    eps^2 wp(eps) is matched to the elliptic coefficient family by a damped
    Newton recovery of (c2, c1, c0, gamma0, U0); the order-3 partner then
    comes from the closed form and the curve from the action-matrix
    extraction.  Monicization scales the spectral parameter by eps^2, so
    curves are compared after mapping z back (coefficients divided by
    eps^2, eps^4, eps^6).
    """
    x0 = scalar(x0)
    wlo, whi = int(l3_window[0]), int(l3_window[1])
    entries = []
    for eps in eps_list:
        eps = scalar(eps)
        A1 = ag_build(ctx, 1, eps)
        u0 = eps**2 * ctx.wp(eps)
        # zeta evaluations are the expensive part: tabulate the T-coefficient
        # once, covering both the Newton sites and the partner window
        tab_lo = min(wlo - 2, -1)
        tab_hi = max(whi + 4, newton_n + 1)
        u1_tab = {n: eps * A1(x0 + n * eps) for n in range(tab_lo, tab_hi + 1)}
        u1 = u1_tab.__getitem__

        init = [
            mpf(0),
            -ctx.g2 / 4 * eps**4,
            -ctx.g3 / 4 * eps**6,
            eps**2 * ctx.wp(x0),
            eps * (ctx.zeta(x0) - ctx.zeta(x0 - eps) - ctx.zeta(eps)),
        ]
        params, ninfo = _recover_dressing_parameters(
            u1, u0, newton_n, init, target=newton_target
        )
        c2, c1, c0 = params[0], params[1], params[2]

        gam, _U, s = _gamma_u_s_chains(params, u1, u0, (wlo - 1, whi + 4))
        gamma_seq = CoeffSeq(wlo - 1, [gam[n] for n in range(wlo - 1, whi + 4)])
        sigma_seq = CoeffSeq(
            wlo - 1, [mpf(1) if s[n] >= 0 else mpf(-1) for n in range(wlo - 1, whi + 4)]
        )
        Ue, We, L3 = elliptic_family(c2, c1, c0, gamma_seq, sigma_seq)

        l2m = DiffOp.build({2: 1, 1: u1, 0: u0}, (wlo - 1, whi + 3))
        comm_rel = op_commutator(l2m, L3).sup_norm() / commutator_scale(l2m, L3)

        zscale = 4 * max(abs(params[3]), eps**2)
        report = extract_curve(
            l2m,
            L3,
            n0_list=(-1, 0, 1),
            commutation_tol=mpf("1e-7"),
            z_interval=(-zscale, zscale),
        )
        if report.matched_curve is None:
            raise InconsistentDataError(
                "extracted action data did not match a hyperelliptic curve"
            )
        cm = report.matched_curve.c
        unnorm = (cm[0] / eps**6, cm[1] / eps**4, cm[2] / eps**2)
        entries.append(
            {
                "eps": eps,
                "newton_residual": ninfo["resid_inf"],
                "newton_iterations": ninfo["iterations"],
                "params": params,
                "commutator_residual_rel": comm_rel,
                "curve_monic": cm,
                "curve_unnormalized": unnorm,
            }
        )

    dev = mpf(0)
    base = entries[0]["curve_unnormalized"]
    for e in entries[1:]:
        for a, b in zip(base, e["curve_unnormalized"]):
            dev = max(dev, abs(a - b))
    return LameIndependenceReport(ctx.g2, ctx.g3, x0, entries, dev)


def lemniscatic_context() -> WeierstrassContext:
    """Default invariants g2 = 4, g3 = 0: a square real lattice."""
    return WeierstrassContext(4, 0)
