"""Algebra of difference operators sum_j u_j(n) T^j with n-dependent
coefficients: application to sequences, composition, commutators, and the
positivity / order / residual diagnostics built on them.

T is the unit shift, (T f)(n) = f(n+1), so composition obeys
T^i (a(n) T^j) = a(n+i) T^(i+j).  Every operation computes the exact shrunken
validity window of its result and refuses evaluation outside it; silent
zero-padding would corrupt commutator checks at the window edges.

Sequences tabulate at construction (nothing lazy) and operators never mutate,
so values are safe to share across workers.
"""

from __future__ import annotations

import json
import operator

from mpmath import mpf

from .errors import WindowError
from .numcore import mpf_to_str, scalar


class CoeffSeq:
    """A coefficient sequence n -> scalar, tabulated on an integer window."""

    __slots__ = ("n_min", "values")

    def __init__(self, n_min: int, values):
        self.n_min = int(n_min)
        self.values = tuple(scalar(v) for v in values)
        if not self.values:
            raise WindowError("empty coefficient window")

    @classmethod
    def tabulate(cls, fn, window) -> "CoeffSeq":
        lo, hi = int(window[0]), int(window[1])
        if hi < lo:
            raise WindowError(f"empty window [{lo}, {hi}]")
        return cls(lo, [fn(n) for n in range(lo, hi + 1)])

    @classmethod
    def constant(cls, value, window) -> "CoeffSeq":
        lo, hi = int(window[0]), int(window[1])
        return cls(lo, [scalar(value)] * (hi - lo + 1))

    @property
    def window(self):
        return (self.n_min, self.n_min + len(self.values) - 1)

    def at(self, n: int) -> mpf:
        i = int(n) - self.n_min
        if i < 0 or i >= len(self.values):
            lo, hi = self.window
            raise WindowError(f"index {n} outside sequence window [{lo}, {hi}]")
        return self.values[i]

    def restrict(self, window) -> "CoeffSeq":
        lo, hi = int(window[0]), int(window[1])
        return CoeffSeq(lo, self.values_on(lo, hi))

    def values_on(self, lo: int, hi: int) -> tuple:
        """The values on [lo, hi], which must lie inside the window."""
        slo, shi = self.window
        if lo < slo or hi > shi:
            raise WindowError(f"[{lo}, {hi}] is outside sequence window [{slo}, {shi}]")
        return self.values[lo - slo : hi - slo + 1]

    def sup_norm(self) -> mpf:
        return max(abs(v) for v in self.values)

    def window_intersect(self, other) -> tuple:
        lo = max(self.window[0], other.window[0])
        hi = min(self.window[1], other.window[1])
        if hi < lo:
            raise WindowError("disjoint sequence windows")
        return (lo, hi)

    def binop(self, other, op) -> "CoeffSeq":
        lo, hi = self.window_intersect(other)
        return CoeffSeq(lo, map(op, self.values_on(lo, hi), other.values_on(lo, hi)))

    def __add__(self, other):
        return self.binop(other, operator.add)

    def __sub__(self, other):
        return self.binop(other, operator.sub)

    def __mul__(self, other):
        if isinstance(other, CoeffSeq):
            return self.binop(other, operator.mul)
        c = scalar(other)
        return CoeffSeq(self.n_min, [c * v for v in self.values])

    __rmul__ = __mul__

    def __neg__(self):
        return CoeffSeq(self.n_min, [-v for v in self.values])

    def __repr__(self):
        lo, hi = self.window
        return f"CoeffSeq([{lo}, {hi}])"


def _common_window(seqs, requested=None):
    lo = max(s.window[0] for s in seqs)
    hi = min(s.window[1] for s in seqs)
    if requested is not None:
        lo, hi = max(lo, int(requested[0])), min(hi, int(requested[1]))
    if hi < lo:
        raise WindowError("term windows have empty intersection")
    return lo, hi


MONIC_TOL = mpf("1e-12")


class DiffOp:
    """Finite sum of shift terms u_j(n) T^j with a shared validity window.

    Negative shift degrees are representable (a commutator check needs to
    see stray terms wherever they land), but the constructors used for the
    operator families assert positivity.
    """

    __slots__ = ("terms", "window")

    def __init__(self, terms: dict, window=None):
        items = {int(j): t for j, t in terms.items()}
        if not items:
            raise ValueError("operator needs at least one term")
        lo, hi = _common_window(list(items.values()), window)
        self.terms = {j: items[j].restrict((lo, hi)) for j in sorted(items)}
        self.window = (lo, hi)

    @classmethod
    def build(cls, coeffs: dict, window) -> "DiffOp":
        """coeffs maps shift degree to a CoeffSeq, a callable of n, or a constant."""
        lo, hi = int(window[0]), int(window[1])
        terms = {}
        for j, v in coeffs.items():
            if isinstance(v, CoeffSeq):
                terms[j] = v
            elif callable(v):
                terms[j] = CoeffSeq.tabulate(v, (lo, hi))
            else:
                terms[j] = CoeffSeq.constant(v, (lo, hi))
        return cls(terms, (lo, hi))

    @classmethod
    def identity(cls, window) -> "DiffOp":
        return cls.build({0: 1}, window)

    @classmethod
    def shift(cls, window, degree: int = 1) -> "DiffOp":
        return cls.build({degree: 1}, window)

    @property
    def order(self) -> int:
        return max(self.terms)

    @property
    def min_degree(self) -> int:
        return min(self.terms)

    @property
    def is_positive(self) -> bool:
        return self.min_degree >= 0

    def coeff(self, j: int) -> CoeffSeq:
        if j in self.terms:
            return self.terms[j]
        return CoeffSeq.constant(0, self.window)

    def is_monic(self) -> bool:
        """Every top coefficient within MONIC_TOL of 1."""
        top = self.terms[self.order]
        return all(abs(v - 1) <= MONIC_TOL for v in top.values)

    def sup_norm(self) -> mpf:
        """max |u_j(n)| over the window; the yardstick for 'numerically zero'."""
        return max(t.sup_norm() for t in self.terms.values())

    def apply(self, f: CoeffSeq) -> CoeffSeq:
        """(L f)(n) = sum_j u_j(n) f(n+j) on the exact shrunken window."""
        lo = max(self.window[0], f.window[0] - self.min_degree)
        hi = min(self.window[1], f.window[1] - self.order)
        if hi < lo:
            raise WindowError(
                f"application window empty: operator on {self.window} with degrees "
                f"[{self.min_degree}, {self.order}] needs f beyond [{f.window[0]}, {f.window[1]}]"
            )
        vals = []
        for n in range(lo, hi + 1):
            acc = mpf(0)
            for j, u in self.terms.items():
                acc += u.at(n) * f.at(n + j)
            vals.append(acc)
        return CoeffSeq(lo, vals)

    def __mul__(self, other):
        if not isinstance(other, DiffOp):
            c = scalar(other)
            return DiffOp({j: t * c for j, t in self.terms.items()}, self.window)
        # composition: coefficient of T^(i+j) picks up b_j shifted by i
        lo = max(self.window[0], other.window[0] - self.min_degree)
        hi = min(self.window[1], other.window[1] - self.order)
        if hi < lo:
            raise WindowError("composition window empty")
        out: dict = {}
        for i, a in self.terms.items():
            av = a.values_on(lo, hi)
            for j, b in other.terms.items():
                contrib = map(operator.mul, av, b.values_on(lo + i, hi + i))
                k = i + j
                out[k] = list(map(operator.add, out[k], contrib)) if k in out else list(contrib)
        return DiffOp({k: CoeffSeq(lo, v) for k, v in out.items()}, (lo, hi))

    __rmul__ = __mul__

    def scale_left(self, c: CoeffSeq) -> "DiffOp":
        """Multiply by the zero-degree coefficient c(n) from the left."""
        lo, hi = _common_window([c], self.window)
        cv = c.values_on(lo, hi)
        return DiffOp(
            {j: CoeffSeq(lo, map(operator.mul, cv, t.values_on(lo, hi)))
             for j, t in self.terms.items()},
            (lo, hi),
        )

    def __add__(self, other: "DiffOp") -> "DiffOp":
        lo, hi = _common_window(
            list(self.terms.values()) + list(other.terms.values())
        )
        out = dict(self.terms)
        for j, t in other.terms.items():
            out[j] = out[j] + t if j in out else t
        return DiffOp(out, (lo, hi))

    def __sub__(self, other: "DiffOp") -> "DiffOp":
        return self + (-other)

    def __neg__(self) -> "DiffOp":
        return DiffOp({j: -t for j, t in self.terms.items()}, self.window)

    def __repr__(self):
        return f"DiffOp(order={self.order}, window={self.window})"


def op_commutator(A: DiffOp, B: DiffOp) -> DiffOp:
    return A * B - B * A


def commutator_residual(A: DiffOp, B: DiffOp):
    """([A, B], its sup norm over |A| |B|): the commutator and its
    dimensionless residual."""
    comm = op_commutator(A, B)
    return comm, comm.sup_norm() / (A.sup_norm() * B.sup_norm())


def op_to_json(L: DiffOp) -> str:
    lo, hi = L.window
    doc = {
        "order": L.order,
        "window": [lo, hi],
        "terms": {
            str(j): [mpf_to_str(v) for v in t.values] for j, t in L.terms.items()
        },
    }
    return json.dumps(doc, sort_keys=True)


def op_from_json(text: str) -> DiffOp:
    doc = json.loads(text)
    lo, hi = int(doc["window"][0]), int(doc["window"][1])
    terms = {
        int(j): CoeffSeq(lo, [scalar(s) for s in vals])
        for j, vals in doc["terms"].items()
    }
    return DiffOp(terms, (lo, hi))
