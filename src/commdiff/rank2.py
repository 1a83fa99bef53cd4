"""The concrete rank-two pair: a fourth-order operator with quadratic top
coefficient and, at (a2, a1, a0) = (2, 0, 0), its explicit order-6 partner.

Only the specialized pair is verified end to end; reconstructing the partner
for general parameters would need the vector eigenfunction machinery that is
out of scope here.
"""

from __future__ import annotations

from mpmath import mp, mpf

from .numcore import ZPoly, poly_mul, raw_ints, rround, scalar
from .opalg import CoeffSeq, DiffOp
from .spectral import RANK2_COMMUTATION_TOL, rank2_curve_check


class Rank2Params:
    __slots__ = ("a2", "a1", "a0")

    def __init__(self, a2, a1, a0):
        self.a2, self.a1, self.a0 = scalar(a2), scalar(a1), scalar(a0)


def _monic(order: int, forms: dict, window) -> DiffOp:
    """T^order plus the closed forms {j: (f, e)}, each f(n) 2^e rounded once."""
    p = mp.prec
    seqs = {j: CoeffSeq.tabulate(lambda n, f=f, e=e: rround(f(n), e, p), window, raw=True)
            for j, (f, e) in forms.items()}
    return DiffOp.build({order: 1, **seqs}, window)


def build_l4(p: Rank2Params, window) -> DiffOp:
    """Monic positive order-4 operator of the rank-two family: each closed
    form evaluated exactly on the parameters' ints, a = A 2^e (raw_ints), its
    dyadic constant a shift, and rounded once."""
    ((a2, a1, a0),), e = raw_ints([[p.a2._mpf_, p.a1._mpf_, p.a0._mpf_]])

    def c2(n):
        return 3 * (a1 + a2 * (n - 1)) * n * (2 * a0 + a1 * (n - 1) + a2 * (n * n - n - 2))

    def c1(n):
        return -(a0 + a1 * (n - 1) + a2 * (n - 2) * n) * (
            2 * a0**2
            - a1**2 * (n - 2) * n
            - a0 * (a1 + 2 * a2 * (n - 1) ** 2 + 2 * a1 * n)
            - a1 * a2 * (2 * n**3 - 6 * n**2 - n + 2)
            - a2**2 * n * (n**3 - 4 * n**2 - n + 10)
        )

    def c0(n):
        return (a1 + a2 * (n - 3)) * n * (
            2 * a0 - 4 * a2 + (n - 3) * (a1 + a2 * n)
        ) * (
            -4 * a0**2
            + a1**2 * (n - 2) * (n - 1)
            + a2**2 * (n - 2) * (n - 1) * ((n - 3) * n - 6)
            + 2 * a0 * (a1 * n + a2 * ((n - 3) * n + 4))
            + a1 * a2 * (6 + n * (5 + n * (2 * n - 9)))
        )

    # the constants 3/8, -1/16 and 1/256: 3 and the sign in c2 and c1, the rest shifts
    return _monic(4, {3: (lambda n: a2 * n * n + a1 * n + a0, e), 2: (c2, 2 * e - 3),
                      1: (c1, 3 * e - 4), 0: (c0, 4 * e - 8)}, window)


def build_l6_special(window) -> DiffOp:
    """The order-6 partner at (a2, a1, a0) = (2, 0, 0), each closed form an
    int times a dyadic constant, rounded once."""

    def c4(n):
        return n * (n + 1) * (32 + 15 * n * (n + 1)) - 6

    def c3(n):
        return n**2 * (n**2 - 2) * (5 * n**2 + 7)

    def c2(n):
        return (n - 2) * (n - 1) * n * (n + 1) * ((n - 1) * n * (15 * (n - 1) * n - 38) - 36)

    def c1(n):
        return (n - 2) ** 2 * n**2 * (12 + (n - 2) * n * ((n - 2) * n - 5) * (3 * (n - 2) * n - 11))

    def c0(n):
        return ((n - 4) * (n - 3) * (n - 2) * (n - 1) * n * (n + 1)
                * ((n - 3) * n - 6) * ((n - 4) * (n - 3) * n * (n + 1) - 6))

    # the constants 1/4, 1/2, 1/16, 1/16 and 1/64 as shifts
    return _monic(6, {5: (lambda n: 3 * n * n + 6 * n + 8, 0), 4: (c4, -2), 3: (c3, -1),
                      2: (c2, -4), 1: (c1, -4), 0: (c0, -6)}, window)


def expected_curve_poly(p: Rank2Params) -> ZPoly:
    """R(z) with w^2 = R(z): the published product of a squared linear factor
    and a linear factor, expanded to a monic-normalizable cubic.  The
    factors' constants are rounded at the working precision; the product is
    exact (numcore.poly_mul) and each coefficient rounded once."""
    a2, a1, a0 = p.a2, p.a1, p.a0
    inner1 = (a0 - a1) * (a0 - a2) * (a0 * (2 * a0 - a1) - 2 * (a0 + a1) * a2)
    inner2 = (-2 * a0**2 + a1**2 + 4 * a0 * a2 + 3 * (a1 - 2 * a2) * a2) ** 2
    (lin1, lin2), e = raw_ints([ZPoly([inner1, 32]).raw, ZPoly([inner2, 256]).raw])
    # the factors' leads 32 and 256 give R the lead 2^18
    return ZPoly._from_raw([rround(v, 3 * e - 18, mp.prec)
                            for v in poly_mul(poly_mul(lin1, lin1), lin2)])


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
