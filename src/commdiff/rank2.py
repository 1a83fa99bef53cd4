"""The concrete rank-two pair: a fourth-order operator with quadratic top
coefficient and, at (a2, a1, a0) = (2, 0, 0), its explicit order-6 partner.

Only the specialized pair is verified end to end; reconstructing the partner
for general parameters would need the vector eigenfunction machinery that is
out of scope here.
"""

from __future__ import annotations

from mpmath import mpf

from .numcore import ZPoly, scalar
from .opalg import DiffOp
from .spectral import RANK2_COMMUTATION_TOL, rank2_curve_check


class Rank2Params:
    __slots__ = ("a2", "a1", "a0")

    def __init__(self, a2, a1, a0):
        self.a2, self.a1, self.a0 = scalar(a2), scalar(a1), scalar(a0)


def build_l4(p: Rank2Params, window) -> DiffOp:
    """Monic positive order-4 operator of the rank-two family."""
    a2, a1, a0 = p.a2, p.a1, p.a0

    def c3(n):
        return a2 * n * n + a1 * n + a0

    def c2(n):
        return (
            mpf(3) / 8 * (a1 + a2 * (n - 1)) * n
            * (2 * a0 + a1 * (n - 1) + a2 * (n * n - n - 2))
        )

    def c1(n):
        return -mpf(1) / 16 * (a0 + a1 * (n - 1) + a2 * (n - 2) * n) * (
            2 * a0**2
            - a1**2 * (n - 2) * n
            - a0 * (a1 + 2 * a2 * (n - 1) ** 2 + 2 * a1 * n)
            - a1 * a2 * (2 * n**3 - 6 * n**2 - n + 2)
            - a2**2 * n * (n**3 - 4 * n**2 - n + 10)
        )

    def c0(n):
        return mpf(1) / 256 * (a1 + a2 * (n - 3)) * n * (
            2 * a0 - 4 * a2 + (n - 3) * (a1 + a2 * n)
        ) * (
            -4 * a0**2
            + a1**2 * (n - 2) * (n - 1)
            + a2**2 * (n - 2) * (n - 1) * ((n - 3) * n - 6)
            + 2 * a0 * (a1 * n + a2 * ((n - 3) * n + 4))
            + a1 * a2 * (6 + n * (5 + n * (2 * n - 9)))
        )

    return DiffOp.build({4: 1, 3: c3, 2: c2, 1: c1, 0: c0}, window)


def build_l6_special(window) -> DiffOp:
    """The order-6 partner at (a2, a1, a0) = (2, 0, 0)."""

    def c5(n):
        return mpf(3) * n * n + 6 * n + 8

    def c4(n):
        return mpf(1) / 4 * (n * (n + 1) * (32 + 15 * n * (n + 1)) - 6)

    def c3(n):
        return mpf(1) / 2 * n**2 * (n**2 - 2) * (5 * n**2 + 7)

    def c2(n):
        return (
            mpf(1) / 16 * (n - 2) * (n - 1) * n * (n + 1)
            * ((n - 1) * n * (15 * (n - 1) * n - 38) - 36)
        )

    def c1(n):
        return (
            mpf(1) / 16 * (n - 2) ** 2 * n**2
            * (12 + (n - 2) * n * ((n - 2) * n - 5) * (3 * (n - 2) * n - 11))
        )

    def c0(n):
        return (
            mpf(1) / 64 * (n - 4) * (n - 3) * (n - 2) * (n - 1) * n * (n + 1)
            * ((n - 3) * n - 6) * ((n - 4) * (n - 3) * n * (n + 1) - 6)
        )

    return DiffOp.build({6: 1, 5: c5, 4: c4, 3: c3, 2: c2, 1: c1, 0: c0}, window)


def expected_curve_poly(p: Rank2Params) -> ZPoly:
    """R(z) with w^2 = R(z): the published product of a squared linear factor
    and a linear factor, expanded to a monic-normalizable cubic."""
    a2, a1, a0 = p.a2, p.a1, p.a0
    inner1 = (a0 - a1) * (a0 - a2) * (a0 * (2 * a0 - a1) - 2 * (a0 + a1) * a2)
    inner2 = (-2 * a0**2 + a1**2 + 4 * a0 * a2 + 3 * (a1 - 2 * a2) * a2) ** 2
    lin1 = ZPoly([inner1, 32])
    lin2 = ZPoly([inner2, 256])
    return (lin1 * lin1 * lin2).scale(mpf(1) / 262144)


def verify_rank2(window=(-20, 20)) -> dict:
    """Commutation and curve check for the specialized pair; returns a report."""
    lo, hi = int(window[0]), int(window[1])
    pad = 8
    p = Rank2Params(2, 0, 0)
    L4 = build_l4(p, (lo - pad, hi + pad))
    L6 = build_l6_special((lo - pad, hi + pad))
    r = expected_curve_poly(p)
    curve_report = rank2_curve_check(L4, L6, r)
    comm_rel = curve_report.commutator_residual_rel
    report = {
        "params": {"a2": "2", "a1": "0", "a0": "0"},
        "window": [lo, hi],
        "commutator_residual_rel": comm_rel,
        "commutation_pass": bool(comm_rel <= RANK2_COMMUTATION_TOL),
        "curve_mismatch_rel": curve_report.mismatch_rel,
        "curve_pass": bool(curve_report.mismatch_rel <= mpf("1e-7")),
        "closure_defect": curve_report.closure_defect,
        "expected_r": r.coeffs,
    }
    return report
