"""Discrete second-order operators on an eps-lattice built from Weierstrass
zeta differences, their continuum limit, and the genus-1 spectral-curve
stability check across step sizes, whose order-3 partner build_partner_op
assembles from the dressing state of the genus-1 chain.

wp and zeta are Jacobi theta quotients (DLMF 23.6) with the nome of the
rectangular real lattice, summed from the theta series (DLMF 20.2.1-2): one
fixed-point pass per site gives the sums for theta1, theta2 and theta1',
and each value is one ratio of ints rounded once; mpmath.jtheta gives the
constants only.  The branch points e1 > e2 > e3, the roots of
4 e^3 - g2 e - g3, come from Viete's trigonometric form.  The test-suite
pins the conventions numerically: the Laurent expansion
wp(x) = 1/x^2 + g2 x^2/20 + ..., zeta' = -wp, the differential equation
(wp')^2 = 4 wp^3 - g2 wp - g3 through a difference quotient of wp, and
both values against the same quotients by mpmath.jtheta 200 bits finer.
"""

from __future__ import annotations

from itertools import count, repeat

from mpmath import mp, mpf, sqrt, pi, agm, acos, exp, jtheta, log, cos
from mpmath.libmp import fzero, mpf_cos_sin, mpf_mul
from mpmath.libmp import round_nearest as RND

from .errors import InconsistentDataError, LatticeProximityError
from .dressing import DressingState, build_partner_op
from .numcore import HyperellipticCurve, ZPoly, rratio, scalar
from .opalg import CoeffSeq, DiffOp
from .spectral import extract_curve

LATTICE_PROXIMITY = mpf("1e-6")

# fixed-point bits of the theta sums past the working precision, besides
# those that theta1 loses near a lattice point (see WeierstrassContext)
THETA_GUARD_BITS = 12

# verdict thresholds: the fitted continuum order, the distance of each step's
# curve from the Weierstrass cubic, and the genus-1 chain residual (named for
# the report key newton_residual that carries it)
MIN_SLOPE = mpf("0.8")
CURVE_DEVIATION_TOL = mpf("1e-4")
NEWTON_TOL = mpf("1e-8")

# The continuum defect changes sign around eps ~ 0.03..0.1 for genus >= 2,
# so order fitting needs steps past the crossing.
DEFAULT_SLOPE_EPS = ("0.0125", "0.00625", "0.003125")


def _signed(v):
    """The raw value v as (signed mantissa, exponent), exactly."""
    sign, man, exp, _ = v
    return -man if sign else man, exp


def _fixed(man: int, exp: int, bits: int) -> int:
    """man 2^exp as the nearest int on 2^-bits, halves rounded up."""
    shift = exp + bits
    return man << shift if shift >= 0 else ((man >> (-shift - 1)) + 1) >> 1


def _ratio(a: int, ea: int, b: int, eb: int, den: int, p):
    """(a 2^ea + b 2^eb) / den for ints a, b and den != 0, rounded once at p
    bits by rratio."""
    e = min(ea, eb)
    sign, man, exp, bc = rratio((a << (ea - e)) + (b << (eb - e)), den, p)
    return (sign, man, exp + e, bc) if man else fzero


class WeierstrassContext:
    """Evaluators for wp and zeta on the real line for invariants (g2, g3).

    Requires a positive discriminant (three real branch points) so the real
    period lattice is rectangular; complex lattices are out of scope.  With
    k = pi / (2 omega1), the nome q = exp(-pi omega2_mag / omega1) and
    v = k x (theta_j at nome q, primes in v):

        wp(x)   = e1 + (c theta2(v) / theta1(v))^2,  c = k theta3(0) theta4(0)
        zeta(x) = eta1 x / omega1 + k theta1'(v) / theta1(v)
        eta1    = zeta(omega1) = -k^2 omega1 theta1'''(0) / (3 theta1'(0))

    The constants e1, omega1, k, q, c and eta1 are mpmath values at the
    precision of construction.  With the theta series

        theta1(v)  = 2 q^(1/4) sum (-1)^n q^(n(n+1)) sin((2n+1) v)
        theta2(v)  = 2 q^(1/4) sum q^(n(n+1)) cos((2n+1) v)
        theta1'(v) = 2 q^(1/4) sum (-1)^n (2n+1) q^(n(n+1)) cos((2n+1) v)

    a site needs the three sums S1, C2 and D1 without the factor
    2 q^(1/4), which cancels from

        zeta(x) = (eta1 x S1 + k omega1 D1) / (omega1 S1)
        wp(x)   = (e1 S1^2 + c^2 C2^2) / S1^2,

    each one ratio of ints rounded once.  The sums are fixed point on
    2^-bits: the ints q^(n(n+1)) down to the last nonzero one, rounded once
    from the exact power of q, meet cos and sin of (2n+1) v, which start
    from mpmath's cos_sin of the exact product k x and step by the rotation
    through 2 v.  bits is the precision plus THETA_GUARD_BITS plus the bits
    of 1 / (k LATTICE_PROXIMITY): theta1 falls to about k d at a distance d
    from a lattice point while the sums are absolute, so those bits keep its
    relative error below 2^-prec at the closest site the guard admits, in
    one exact comparison of ints (_site).  wp and zeta at another precision
    read a context built at that one, once; each context caches its values
    per site.
    """

    def __init__(self, g2, g3):
        self.g2, self.g3 = scalar(g2), scalar(g3)
        disc = self.g2**3 - 27 * self.g3**2
        if disc <= 0:
            raise ValueError(f"need g2^3 - 27 g3^2 > 0 for a real lattice, got {disc}")
        t = acos(3 * sqrt(3) * self.g3 / self.g2 ** (mpf(3) / 2)) / 3
        r = 2 * sqrt(self.g2 / 12)
        self.e1, self.e2, self.e3 = (r * cos(t - 2 * pi * j / 3) for j in range(3))
        self.omega1 = pi / (2 * agm(sqrt(self.e1 - self.e3), sqrt(self.e1 - self.e2)))
        self.omega2_mag = pi / (2 * agm(sqrt(self.e1 - self.e3), sqrt(self.e2 - self.e3)))
        self._k = pi / (2 * self.omega1)
        self._q = q = exp(-pi * self.omega2_mag / self.omega1)
        self._c = self._k * jtheta(3, 0, q) * jtheta(4, 0, q)
        self.eta1 = -self._k**2 * self.omega1 * jtheta(1, 0, q, 3) / (3 * jtheta(1, 0, q, 1))
        self._prec = mp.prec
        self._bits = bits = (mp.prec + THETA_GUARD_BITS
                             + int(1 / (self._k * LATTICE_PROXIMITY)).bit_length())
        # the weights of term n in S1, C2 and D1: (-1)^n Q_n, Q_n and
        # (-1)^n (2n+1) Q_n, with Q_n = q^(n(n+1)) on 2^-bits
        qm, qe = _signed(q._mpf_)
        self._terms = []
        for n in count():
            big_q = _fixed(qm ** (n * (n + 1)), qe * n * (n + 1), bits)
            if not big_q:
                break
            sq = -big_q if n % 2 else big_q
            self._terms.append((sq, big_q, (2 * n + 1) * sq))
        # the ratios' constants as signed mantissas and exponents: omega1;
        # zeta's eta1 and k omega1, omega1's exponent divided out; wp's e1
        # and c^2
        self._om = om, oe = _signed(self.omega1._mpf_)
        eta, eta_exp = _signed(self.eta1._mpf_)
        km, ke = _signed(self._k._mpf_)
        cm, ce = _signed(self._c._mpf_)
        self._zeta_consts = (eta, eta_exp - oe, km * om, ke)
        self._wp_consts = (*_signed(self.e1._mpf_), cm * cm, 2 * ce)
        self._values = {}
        self._by_prec = {mp.prec: self}

    def _site(self, x: mpf) -> mpf:
        """x, refused within LATTICE_PROXIMITY of the nearest real lattice
        point 2 m omega1, m = floor((x + omega1) / (2 omega1)): x, omega1
        and the bound as ints on one exponent, m and the distance exact."""
        om, oe = self._om
        xm, xe = _signed(x._mpf_)
        lm, le = _signed(LATTICE_PROXIMITY._mpf_)
        e = min(xe, oe, le)
        xm, om = xm << (xe - e), om << (oe - e)
        m = (xm + om) // (2 * om)
        if abs(xm - 2 * m * om) < lm << (le - e):
            raise LatticeProximityError(
                f"argument {x} is within {LATTICE_PROXIMITY} of lattice point "
                f"{2 * m * self.omega1}"
            )
        return x

    def _cached(self, fn, x) -> mpf:
        """fn(x) once per (fn, x) in the working precision's context; only a
        value _site admits is cached, so a refused argument is refused on
        every call."""
        ctx = self._by_prec.get(mp.prec)
        if ctx is None:
            ctx = self._by_prec[mp.prec] = WeierstrassContext(self.g2, self.g3)
        x = scalar(x)
        key = (fn, x._mpf_)
        if key not in ctx._values:
            ctx._values[key] = mp.make_mpf(fn(ctx, ctx._site(x)))
        return ctx._values[key]

    def _sums(self, x):
        """(S1, C2, D1) at v = k x, on 2^-2bits."""
        bits = self._bits
        cos_v, sin_v = mpf_cos_sin(mpf_mul(self._k._mpf_, x._mpf_), bits, RND)
        c, s = _fixed(*_signed(cos_v), bits), _fixed(*_signed(sin_v), bits)
        # cos 2v and sin 2v, which step (2n+1) v to (2n+3) v
        c2, s2 = (c * c - s * s) >> bits, (c * s) >> (bits - 1)
        s1 = c2_sum = d1 = 0
        for sq, big_q, dq in self._terms:
            s1 += sq * s
            c2_sum += big_q * c
            d1 += dq * c
            c, s = (c * c2 - s * s2) >> bits, (s * c2 + c * s2) >> bits
        return s1, c2_sum, d1

    def _wp(self, x):
        s1, c2, _ = self._sums(x)
        e1, e1_exp, cc, cc_exp = self._wp_consts
        return _ratio(e1 * s1 * s1, e1_exp, cc * c2 * c2, cc_exp, s1 * s1, self._prec)

    def _zeta(self, x):
        s1, _, d1 = self._sums(x)
        eta, eta_exp, kw, k_exp = self._zeta_consts
        xm, xe = _signed(x._mpf_)
        return _ratio(eta * xm * s1, eta_exp + xe, kw * d1, k_exp, self._om[0] * s1,
                      self._prec)

    def wp(self, x) -> mpf:
        """wp(x) = (e1 S1^2 + c^2 C2^2) / S1^2, cached per context."""
        return self._cached(WeierstrassContext._wp, x)

    def zeta(self, x) -> mpf:
        """zeta(x) = (eta1 x S1 + k omega1 D1) / (omega1 S1), cached per context."""
        return self._cached(WeierstrassContext._zeta, x)


def ag_build(ctx: WeierstrassContext, g: int, eps):
    """The T-coefficient profile A_g(x, eps) as a callable of x; g >= 1.

    A_1 = -2 zeta(eps) - zeta(x - eps) + zeta(x + eps); for genus >= 3 the odd
    and even product formulas extend A_1 / A_2.  The even-genus seed
    A_2 = -3/2 (zeta(eps) + zeta(3 eps) + zeta(x - 2 eps) - zeta(x + 2 eps))
    is published with an unbalanced bracket; -3/2 applies to the whole sum.
    That is the reading with a continuum limit: over the default slope steps
    the g=2 defect falls with order 0.943-0.947 for (g2, g3) in {(4, 0),
    (10, 2), (3, -0.5), (7, 1)}, while applying -3/2 to the constant pair
    alone gives order -0.002.
    """
    g = int(g)
    if g < 1:
        raise ValueError(f"Lame operator needs genus >= 1, got {g}")
    eps = scalar(eps)
    z = ctx.zeta
    # the x-independent zeta values, once per call: the seed's constants and
    # each product factor's (shift, denominator)
    z_eps = z(eps)
    if g % 2 == 1:
        def seed(x):
            return -2 * z_eps - z(x - eps) + z(x + eps)

        factors = [((2 * k + 1) * eps, z_eps + z((4 * k + 1) * eps))
                   for k in range(1, (g - 1) // 2 + 1)]
    else:
        a2_const = z_eps + z(3 * eps)

        def seed(x):
            return -mpf(3) / 2 * (a2_const + z(x - 2 * eps) - z(x + 2 * eps))

        factors = [(2 * k * eps, z_eps + z((4 * k - 1) * eps)) for k in range(2, g // 2 + 1)]

    def a_g(x):
        acc = seed(x)
        for shift, den in factors:
            acc *= 1 + (z(x - shift) - z(x + shift)) / den
        return acc

    return a_g


def lame_l2(ctx: WeierstrassContext, g: int, eps, x0, window) -> DiffOp:
    """T^2/eps^2 + A_g(x_n, eps) T/eps + wp(eps) on the lattice x_n = x0 + n eps."""
    eps, x0 = scalar(eps), scalar(x0)
    A = ag_build(ctx, g, eps)
    wp_eps = ctx.wp(eps)
    return DiffOp.build(
        {
            2: 1 / eps**2,
            1: lambda n: A(x0 + n * eps) / eps,
            0: wp_eps,
        },
        window,
    )


def continuum_check(ctx: WeierstrassContext, g: int, eps, f, d2f, x) -> mpf:
    """|(L2 f)(x) - f''(x) + g(g+1) wp(x) f(x)| for a smooth test function."""
    g = int(g)
    eps, x = scalar(eps), scalar(x)
    A = ag_build(ctx, g, eps)
    lf = f(x + 2 * eps) / eps**2 + A(x) * f(x + eps) / eps + ctx.wp(eps) * f(x)
    target = d2f(x) - g * (g + 1) * ctx.wp(x) * f(x)
    return abs(lf - target)


def _fit_slope(xs, ys):
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = sum((x - mx) ** 2 for x in xs)
    return num / den


def continuum_slope(ctx: WeierstrassContext, g: int, x):
    """Fitted convergence order of the continuum defect across the
    DEFAULT_SLOPE_EPS sweep, on the test function cos."""
    eps_list = [mpf(e) for e in DEFAULT_SLOPE_EPS]
    errs = [continuum_check(ctx, g, eps, cos, lambda t: -cos(t), x) for eps in eps_list]
    slope = _fit_slope([log(scalar(e)) for e in eps_list], [log(e) for e in errs])
    return slope, errs


# ---------------------------------------------------------------------------
# genus-1 parameters and eps-independence
# ---------------------------------------------------------------------------


# the lattice sites of the chain residual, and the window of the order-3
# partner whose curve is extracted
CHAIN_SITES = 10
L3_WINDOW = (-5, 5)


def _genus1_parameters(ctx: WeierstrassContext, eps, x0):
    """(c2, c1, c0, gamma0, U0) of the genus-1 state whose L2 is the monic
    operator eps^2 L2 = T^2 + eps A_1(x_n) T + eps^2 wp(eps), in closed form.

    The curve is the Weierstrass cubic in the spectral parameter t = z/eps^2
    of L2 itself: w^2 = (eps^6/4)(4 t^3 - g2 t - g3), so c2 = 0,
    c1 = -g2 eps^4/4 and c0 = -g3 eps^6/4.  The divisor point at n = 0 is
    gamma0 = eps^2 wp(x0 - eps), and U0 = eps (zeta(x0) - zeta(x0 - eps) -
    zeta(eps)).
    """
    return (
        mpf(0),
        -ctx.g2 / 4 * eps**4,
        -ctx.g3 / 4 * eps**6,
        eps**2 * ctx.wp(x0 - eps),
        eps * (ctx.zeta(x0) - ctx.zeta(x0 - eps) - ctx.zeta(eps)),
    )


def _genus1_chains(params, u1, u0, window):
    """U_n and the S constant terms delta_n on the window, marched from the
    closed-form (gamma0, U0), and the chain residual: the largest z^0
    residual of the genus-1 master identity over CHAIN_SITES lattice sites
    from n = 0, which the window must cover.

    The master identity for a genus-1 state with S_n = delta_n - U_n z and
    Q_n = z - gamma_n reduces, coefficient by coefficient in z, to a
    three-term chain: gamma advances by gamma_{n+1} = U_n^2 - u0 - c2 -
    gamma_n, the linear coefficient determines delta_n, and the z^0
    coefficient leaves one residual per lattice site.  U is tabulated on
    [lo, hi], delta on [lo, hi - 1].
    """
    c2, c1, c0, g0, U0 = params
    lo, hi = int(window[0]), int(window[1])
    gam = {0: g0}
    U = {0: U0}
    for n, d in [*zip(range(0, hi), repeat(1)), *zip(range(0, lo, -1), repeat(-1))]:
        m = min(n, n + d)  # the bond between n and n + d
        U[n + d] = u1(m) - U[n]
        gam[n + d] = U[m] ** 2 - u0 - c2 - gam[n]
    delta = {
        n: (gam[n] * gam[n + 1] + u0 * (gam[n] + gam[n + 1]) - c1) / (2 * U[n])
        for n in range(lo, hi)
    }
    residual = max(
        abs(delta[n] ** 2 - u0 * gam[n] * gam[n + 1] - c0) for n in range(CHAIN_SITES)
    )
    return U, delta, residual


def _genus1_state(params, U, delta, u0, window) -> DressingState:
    """The chain's dressing state on window: S_n = delta_n - U_n z and
    W_n = u0 - U_n^2 on the curve (c0, c1, c2); Q_n follows from the pair
    rule."""
    c2, c1, c0 = params[:3]
    lo, hi = int(window[0]), int(window[1])
    ns = range(lo, hi + 1)
    return DressingState.from_s_table(
        CoeffSeq(lo, [U[n] for n in ns]),
        CoeffSeq(lo, [u0 - U[n] ** 2 for n in ns]),
        {n: ZPoly([delta[n], -U[n]]) for n in ns},
        curve=HyperellipticCurve(1, (c0, c1, c2)),
    )


# the report keys of a step; one off the genus-1 chain has no partner, and
# its last three are null
PER_EPS_KEYS = ("eps", "newton_residual", "commutator_residual_rel", "curve_monic",
                "curve_unnormalized")


class LameIndependenceReport:
    def __init__(self, g2, g3, x0, entries, curve_deviation):
        self.g2, self.g3, self.x0 = g2, g3, x0
        self.entries = entries
        self.curve_deviation = curve_deviation

    def passes(self) -> bool:
        """Every step's curve is within CURVE_DEVIATION_TOL of the
        Weierstrass cubic and every chain residual within NEWTON_TOL."""
        return self.curve_deviation <= CURVE_DEVIATION_TOL and all(
            e["newton_residual"] <= NEWTON_TOL for e in self.entries
        )

    def doc(self) -> dict:
        """The report as data for to_json, with mpf values."""
        return {
            "invariants": {"g2": self.g2, "g3": self.g3},
            "x0": self.x0,
            "cross_eps_curve_deviation": self.curve_deviation,
            "per_eps": [{k: e.get(k) for k in PER_EPS_KEYS} for e in self.entries],
        }


def lame_curve_independence(ctx: WeierstrassContext, eps_list, x0) -> LameIndependenceReport:
    """Check that the extracted curve does not depend on the lattice step.

    For each eps the monic operator eps^2 L2 = T^2 + eps A_1(x_n) T +
    eps^2 wp(eps) is matched to a genus-1 dressing state by the closed-form
    parameters (c2, c1, c0, gamma0, U0), and the chain residual measures the
    match.  The chain's U_n and delta_n give the state S_n = delta_n - U_n z
    and W_n = u0 - U_n^2 on the curve (c0, c1, c2); build_partner_op assembles
    the order-3 partner from it, and the action-matrix extraction gives the
    curve.  Monicization scales the spectral parameter by eps^2, so each
    curve is mapped back (coefficients divided by eps^6, eps^4, eps^2) and
    compared with the Weierstrass cubic's (-g3/4, -g2/4, 0).  A step whose
    chain residual exceeds NEWTON_TOL gets an entry with that residual and no
    partner or curve, which fails the report.
    """
    x0 = scalar(x0)
    wlo, whi = L3_WINDOW
    cubic = (-ctx.g3 / 4, -ctx.g2 / 4, mpf(0))
    entries = []
    dev = mpf(0)
    for eps in eps_list:
        eps = scalar(eps)
        A1 = ag_build(ctx, 1, eps)
        u0 = eps**2 * ctx.wp(eps)
        # the T-coefficient, tabulated once on the chain window, which covers
        # both the chain sites and the partner window
        chain_window = (wlo - 1, max(whi + 4, CHAIN_SITES))
        u1_tab = {n: eps * A1(x0 + n * eps) for n in range(*chain_window)}
        u1 = u1_tab.__getitem__

        params = _genus1_parameters(ctx, eps, x0)
        U, delta, chain_residual = _genus1_chains(params, u1, u0, chain_window)
        entry = {"eps": eps, "newton_residual": chain_residual, "params": params}
        entries.append(entry)
        if chain_residual > NEWTON_TOL:
            # off the genus-1 chain the state need not be a dressing:
            # no partner, no curve, and the report fails
            continue
        state = _genus1_state(params, U, delta, u0, (wlo - 1, whi))
        l2m = DiffOp.build({2: 1, 1: u1, 0: u0}, (wlo - 1, whi + 3))
        L3 = build_partner_op(state, l2m)
        report = extract_curve(l2m, L3, commutation_tol=mpf("1e-7"))
        if report.matched_curve is None:
            raise InconsistentDataError(
                "extracted action data did not match a hyperelliptic curve"
            )
        cm = report.matched_curve.c
        unnorm = (cm[0] / eps**6, cm[1] / eps**4, cm[2] / eps**2)
        dev = max([dev] + [abs(a - b) for a, b in zip(unnorm, cubic)])
        entry.update(commutator_residual_rel=report.commutator_residual_rel,
                     curve_monic=cm, curve_unnormalized=unnorm)
    return LameIndependenceReport(ctx.g2, ctx.g3, x0, entries, dev)
