"""Closed-form coefficient families (U_n, W_n) that admit odd-order commuting
partners: trigonometric, quadratic-in-n, geometric, and the elliptic family
with a free functional parameter.

Each constructor returns tabulated sequences ready for the dressing solvers;
the elliptic constructor also returns its order-3 partner, which
build_partner_op assembles from the family's dressing state like every other
family's.
"""

from __future__ import annotations

import random

from mpmath import mp, mpf, cos, sin
from mpmath.libmp import from_int

from . import dressing
from .errors import DegenerateDenominatorError
from .numcore import HyperellipticCurve, cos_int, pow_int, radd, rmul, scalar
from .opalg import CoeffSeq

# each family's parameters: None marks a required one, a value its default;
# the elliptic family is genus 1 only
FAMILY_PARAMS = {
    "trig": {"r1": None},
    "poly": {"a2": None, "a1": 0, "a0": 0},
    "geom": {"a": None, "beta": None},
    "elliptic": {"c2": 0, "c1": -1, "c0": 0},
}

# the elliptic family's default seed for its random gamma_n
ELLIPTIC_SEED = 1234


class FamilySpec:
    """Declarative family description: kind, genus, named parameters, with
    the FAMILY_PARAMS defaults filled in, and the elliptic family's seed for
    its random gamma_n (ELLIPTIC_SEED by default; no other family takes one)."""

    __slots__ = ("kind", "g", "params", "seed")

    def __init__(self, kind: str, g: int, params: dict, seed=None):
        if kind not in FAMILY_PARAMS:
            raise ValueError(f"unknown family kind {kind!r}")
        self.kind = kind
        self.g = int(g)
        if self.g < 1:
            raise ValueError("genus must be >= 1")
        if kind == "elliptic" and self.g != 1:
            raise ValueError("elliptic family supports genus 1 only")
        table = FAMILY_PARAMS[kind]
        unknown = set(params) - set(table)
        if unknown:
            raise ValueError(f"{kind} family has no parameter {sorted(unknown)}")
        missing = [k for k, d in table.items() if d is None and k not in params]
        if missing:
            raise ValueError(f"{kind} family needs {' and '.join(missing)}")
        self.params = {k: scalar(params.get(k, d)) for k, d in table.items()}
        if kind != "elliptic" and seed is not None:
            raise ValueError(f"{kind} family takes no seed: only the elliptic draws gamma_n")
        self.seed = ELLIPTIC_SEED if kind == "elliptic" and seed is None else seed

    @property
    def even(self) -> bool:
        """U and W even in n: trig, or poly without a linear term."""
        return self.kind == "trig" or (self.kind == "poly" and self.params["a1"] == 0)

    def doc(self) -> dict:
        """The spec as data for to_json: kind, genus and mpf parameters."""
        return {"kind": self.kind, "g": self.g, "params": dict(self.params)}

    def __repr__(self):
        return f"FamilySpec({self.kind}, g={self.g})"


def trig_family(g: int, r1, window) -> tuple:
    """U_n = r1 cos(n), W_n = r1^2 sin(g) sin(g+1) / (2 cos^2(g+1/2)) cos(2n).

    Radian trig at integer arguments; mpmath reduces arguments at working
    precision, so no digits are lost across the window.
    """
    r1 = scalar(r1)
    if r1 == 0:
        raise ValueError("trig family needs r1 != 0")
    g = int(g)
    amp = r1**2 * sin(mpf(g)) * sin(mpf(g + 1)) / (2 * cos(g + mpf(1) / 2) ** 2)
    r1, amp, p = r1._mpf_, amp._mpf_, mp.prec
    U = CoeffSeq.tabulate(lambda n: rmul(r1, cos_int(n)._mpf_, p), window, raw=True)
    W = CoeffSeq.tabulate(lambda n: rmul(amp, cos_int(2 * n)._mpf_, p), window, raw=True)
    return U, W


def poly_family(g: int, a2, a0, a1, window) -> tuple:
    """U_n = a2 n^2 + a1 n + a0, W_n = -g(g+1) a2 n (a2 n + a1).

    a1 = 0 is the proven even case; a1 != 0 is the conjectural extension,
    verified per genus by the commutation checks rather than assumed.
    """
    a2, a1, a0 = scalar(a2), scalar(a1), scalar(a0)
    if a2 == 0:
        raise ValueError("quadratic family needs a2 != 0")
    g = int(g)
    a2, a1, a0, p = a2._mpf_, a1._mpf_, a0._mpf_, mp.prec
    c = rmul(a2, from_int(-g * (g + 1)), p)

    # in mpf's order: (a2 n) n + a1 n + a0 and (c n) (a2 n + a1), c = -g (g + 1) a2
    def u(n):
        m = from_int(n)
        return radd(radd(rmul(rmul(a2, m, p), m, p), rmul(a1, m, p), p), a0, p)

    def w(n):
        m = from_int(n)
        return rmul(rmul(c, m, p), radd(rmul(a2, m, p), a1, p), p)

    return CoeffSeq.tabulate(u, window, raw=True), CoeffSeq.tabulate(w, window, raw=True)


def geom_family(g: int, beta, a, window) -> tuple:
    """U_n = beta a^n with W_n proportional to a^(2n).

    W_n = -(a^(2g+2) - 1)(a^(2g) - 1) / (a^(2g+1) + 1)^2 * beta^2 a^(2n).
    Only this sign admits an S family (the dressing solve rejects -W_n);
    the commutation checks guard it.
    """
    beta, a = scalar(beta), scalar(a)
    g = int(g)
    if beta == 0:
        raise ValueError("geometric family needs beta != 0")
    if a in (mpf(0), mpf(1), mpf(-1)):
        raise ValueError("geometric family needs a outside {0, 1, -1}")
    den = a ** (2 * g + 1) + 1
    if abs(den) <= mpf("1e-12"):
        raise DegenerateDenominatorError(f"a^(2g+1) + 1 = {den} is degenerate")
    amp = -(a ** (2 * g + 2) - 1) * (a ** (2 * g) - 1) / den**2 * beta**2
    beta, a, amp, p = beta._mpf_, a._mpf_, amp._mpf_, mp.prec
    U = CoeffSeq.tabulate(lambda n: rmul(beta, pow_int(a, n, p), p), window, raw=True)
    W = CoeffSeq.tabulate(lambda n: rmul(amp, pow_int(a, 2 * n, p), p), window, raw=True)
    return U, W


def elliptic_family(c2, c1, c0, gamma: CoeffSeq, sigma=None) -> tuple:
    """Genus-1 family on w^2 = z^3 + c2 z^2 + c1 z + c0 with parameter gamma_n.

    U_n = -(s_n + s_{n+1}) / (gamma_n - gamma_{n+1}) with
    s_n = sigma_n sqrt(F1(gamma_n)) (branch signs default +1), and
    W_n = -c2 - gamma_n - gamma_{n+1}.  Returns (U, W, L3), where L3 is the
    commuting order-3 partner that build_partner_op assembles from the
    family's dressing state (elliptic_dressing_state), valid on
    [glo + 1, ghi - 5]; a narrower gamma window raises WindowError.
    """
    curve = HyperellipticCurve(1, (c0, c1, c2))
    state = dressing.elliptic_dressing_state(curve, gamma, sigma)
    return state.U, state.W, dressing.build_partner_op(state)


def family_from_spec(spec: FamilySpec, window):
    """Instantiate (U, W) for a FamilySpec; the elliptic family needs an
    explicit gamma sequence, which build_case draws."""
    # looked up per call, so that a wrapped module attribute is the one called
    tabulators = {"trig": trig_family, "poly": poly_family, "geom": geom_family}
    if spec.kind not in tabulators:
        raise ValueError(f"family {spec.kind!r} needs an explicit gamma sequence")
    return tabulators[spec.kind](spec.g, window=window, **spec.params)


def basis_for(spec: FamilySpec) -> dressing.AnsatzBasis:
    if spec.kind == "trig":
        return dressing.TrigBasis(spec.g)
    if spec.kind == "poly":
        if spec.even:
            return dressing.EvenPowerBasis(spec.g)
        return dressing.PowerBasis(spec.g)
    if spec.kind == "geom":
        return dressing.GeomBasis(spec.g, spec.params["a"])
    raise ValueError(f"no coefficient basis for family {spec.kind!r}")


def build_case(spec: FamilySpec, window):
    """Family -> (L2, partner, state, extras) on tables wide enough that the
    commutator of the pair is valid on `window`.

    The state covers [lo - 2, hi + 2g + 3]; U and W two more on each side
    and at least the pin fit's grid; the elliptic gamma_n = 2 + u_n
    (u_n drawn from random.Random(spec.seed)) one more on the right.  extras
    holds the report entries the pipeline adds: w_sign (geom),
    ansatz_residual_rel (ansatz solve) and gamma_window (elliptic).
    """
    lo, hi = int(window[0]), int(window[1])
    slo, shi = lo - 2, hi + 2 * spec.g + 3
    uw_window = (slo - 2, shi + 2)
    if spec.kind == "elliptic":
        rng = random.Random(spec.seed)
        gamma = CoeffSeq.tabulate(
            lambda n: mpf(2) + mpf(rng.random()), (uw_window[0], uw_window[1] + 1)
        )
        c2, c1, c0 = spec.params["c2"], spec.params["c1"], spec.params["c0"]
        curve = HyperellipticCurve(1, (c0, c1, c2))
        state = dressing.elliptic_dressing_state(curve, gamma, window=(slo, shi))
        extras = {"gamma_window": list(gamma.window)}
    else:
        basis = basis_for(spec)
        # the pin fit reads U on |n| <= size + 2, whatever the window
        reach = basis.size + 2
        uw_window = (min(uw_window[0], -reach), max(uw_window[1], reach))
        U, W = family_from_spec(spec, uw_window)
        with mp.workprec(mp.prec + dressing.RECURSION_GUARD_BITS):
            fine = family_from_spec(spec, uw_window)
        # the solver's no-solution threshold stays fixed; callers' tolerances
        # govern their own checks only
        result = dressing.ansatz_solve(basis, U, W, fine)
        state = result.state(U, W, (slo, shi))
        extras = {"ansatz_residual_rel": result.info["resid_rel"]}
        if spec.kind == "geom":
            extras["w_sign"] = 1
    L2 = state.l2()
    return L2, dressing.build_partner_op(state, L2), state, extras
