"""Closed-form coefficient families (U_n, W_n) that admit odd-order commuting
partners: trigonometric, quadratic-in-n, geometric, and the elliptic family
with a free functional parameter.

Each constructor returns tabulated sequences ready for the dressing solvers;
the elliptic constructor also assembles its order-3 partner in closed form.
"""

from __future__ import annotations

import json
import random

from mpmath import mpf, cos, sin

from . import dressing
from .errors import DegenerateDenominatorError
from .numcore import HyperellipticCurve, mpf_to_str, scalar, str_to_mpf
from .opalg import CoeffSeq, DiffOp

FAMILY_KINDS = ("trig", "poly", "geom", "elliptic")


class FamilySpec:
    """Declarative family description: kind, genus, named parameters."""

    __slots__ = ("kind", "g", "params")

    def __init__(self, kind: str, g: int, params: dict):
        if kind not in FAMILY_KINDS:
            raise ValueError(f"unknown family kind {kind!r}")
        self.kind = kind
        self.g = int(g)
        if self.g < 1:
            raise ValueError("genus must be >= 1")
        self.params = {k: scalar(v) for k, v in params.items()}

    def to_json(self) -> str:
        return json.dumps(
            {
                "kind": self.kind,
                "g": self.g,
                "params": {k: mpf_to_str(v) for k, v in sorted(self.params.items())},
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "FamilySpec":
        doc = json.loads(text)
        return cls(doc["kind"], doc["g"], {k: str_to_mpf(v) for k, v in doc["params"].items()})

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
    U = CoeffSeq.tabulate(lambda n: r1 * cos(n), window)
    W = CoeffSeq.tabulate(lambda n: amp * cos(2 * n), window)
    return U, W


def poly_family(g: int, a2, a0, a1=0, window=None) -> tuple:
    """U_n = a2 n^2 + a1 n + a0, W_n = -g(g+1) a2 n (a2 n + a1).

    a1 = 0 is the proven even case; a1 != 0 is the conjectural extension,
    verified per genus by the commutation checks rather than assumed.
    """
    a2, a1, a0 = scalar(a2), scalar(a1), scalar(a0)
    if a2 == 0:
        raise ValueError("quadratic family needs a2 != 0")
    g = int(g)
    U = CoeffSeq.tabulate(lambda n: a2 * n * n + a1 * n + a0, window)
    W = CoeffSeq.tabulate(lambda n: -g * (g + 1) * a2 * n * (a2 * n + a1), window)
    return U, W


def geom_family(g: int, beta, a, w_sign=1, window=None) -> tuple:
    """U_n = beta a^n with W_n proportional to a^(2n).

    W_n = -s (a^(2g+2) - 1)(a^(2g) - 1) / (a^(2g+1) + 1)^2 * beta^2 a^(2n).
    Only s = +1 admits an S family (the dressing solve rejects w_sign = -1);
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
    amp = -scalar(w_sign) * (a ** (2 * g + 2) - 1) * (a ** (2 * g) - 1) / den**2 * beta**2
    U = CoeffSeq.tabulate(lambda n: beta * a**n, window)
    W = CoeffSeq.tabulate(lambda n: amp * a ** (2 * n), window)
    return U, W


def elliptic_family(c2, c1, c0, gamma: CoeffSeq, sigma=None) -> tuple:
    """Genus-1 family on w^2 = z^3 + c2 z^2 + c1 z + c0 with parameter gamma_n.

    U_n = -(s_n + s_{n+1}) / (gamma_n - gamma_{n+1}) with
    s_n = sigma_n sqrt(F1(gamma_n)) (branch signs default +1), and
    W_n = -c2 - gamma_n - gamma_{n+1}.  Returns (U, W, L3) where L3 is the
    commuting order-3 partner assembled in closed form:

        T^3 + (U_n + U_{n+1} + U_{n+2}) T^2
            + (U_n^2 + U_{n+1}^2 + U_n U_{n+1} + W_n - gamma_{n+2}) T
            + (U_n (U_n^2 + W_n - gamma_n) - s_n).

    The sign of the s_n term in the zero-degree coefficient is forced by the
    branch convention in U_n; commutation verifies the pairing.
    """
    curve = HyperellipticCurve(1, (c0, c1, c2))
    glo, ghi = gamma.window
    if ghi - glo < 3:
        raise ValueError("gamma window too small for the order-3 partner")
    U, W, s_val = dressing.elliptic_uw(curve, gamma, sigma)
    l3_window = (glo, ghi - 3)
    L3 = DiffOp.build(
        {
            3: 1,
            2: lambda n: U.at(n) + U.at(n + 1) + U.at(n + 2),
            1: lambda n: U.at(n) ** 2 + U.at(n + 1) ** 2 + U.at(n) * U.at(n + 1)
            + W.at(n) - gamma.at(n + 2),
            0: lambda n: U.at(n) * (U.at(n) ** 2 + W.at(n) - gamma.at(n)) - s_val(n),
        },
        l3_window,
    )
    return U, W, L3


def family_from_spec(spec: FamilySpec, window):
    """Instantiate (U, W) for a FamilySpec; elliptic needs gamma in params via
    gamma_lo/gamma_step or is built by the caller with an explicit sequence."""
    if spec.kind == "trig":
        return trig_family(spec.g, spec.params["r1"], window)
    if spec.kind == "poly":
        return poly_family(
            spec.g,
            spec.params["a2"],
            spec.params.get("a0", mpf(0)),
            spec.params.get("a1", mpf(0)),
            window,
        )
    if spec.kind == "geom":
        return geom_family(spec.g, spec.params["beta"], spec.params["a"], window=window)
    raise ValueError(f"family {spec.kind!r} needs an explicit gamma sequence")


def basis_for(spec: FamilySpec) -> dressing.AnsatzBasis:
    if spec.kind == "trig":
        return dressing.TrigBasis(spec.g)
    if spec.kind == "poly":
        if spec.params.get("a1", mpf(0)) != 0:
            return dressing.PowerBasis(spec.g)
        return dressing.EvenPowerBasis(spec.g)
    if spec.kind == "geom":
        return dressing.GeomBasis(spec.g, spec.params["a"])
    raise ValueError(f"no sampled basis for family {spec.kind!r}")


def build_case(spec: FamilySpec, window, seed: int = 1234):
    """Family -> (L2, partner, state, extras) on tables wide enough that the
    commutator of the pair is valid on `window`.

    The state covers [lo - 2, hi + 2g + 3], U and W two more on each side,
    and the elliptic gamma_n = 2 + u_n (u_n drawn from random.Random(seed))
    one more on the right.  extras holds the report entries the pipeline
    adds: w_sign (geom), ansatz_residual_rel (sampled solve) and
    gamma_window (elliptic).
    """
    lo, hi = int(window[0]), int(window[1])
    slo, shi = lo - 2, hi + 2 * spec.g + 3
    uw_window = (slo - 2, shi + 2)
    if spec.kind == "elliptic":
        rng = random.Random(seed)
        gamma = CoeffSeq.tabulate(
            lambda n: mpf(2) + mpf(rng.random()), (uw_window[0], uw_window[1] + 1)
        )
        c2, c1, c0 = spec.params["c2"], spec.params["c1"], spec.params["c0"]
        _U, _W, partner = elliptic_family(c2, c1, c0, gamma)
        curve = HyperellipticCurve(1, (c0, c1, c2))
        state = dressing.elliptic_dressing_state(curve, gamma, window=(slo, shi))
        return state.l2(), partner, state, {"gamma_window": list(gamma.window)}
    U, W = family_from_spec(spec, uw_window)
    # the solver's no-solution threshold stays fixed; callers' tolerances
    # govern their own checks only
    result = dressing.ansatz_solve(basis_for(spec), U, W)
    state = result.state(U, W, (slo, shi))
    L2 = state.l2()
    extras = {"ansatz_residual_rel": mpf_to_str(result.info["resid_rel"])}
    if spec.kind == "geom":
        extras["w_sign"] = 1
    return L2, dressing.build_partner_op(state, L2), state, extras
