"""Algebra of difference operators sum_j u_j(n) T^j with n-dependent
coefficients: application to sequences, composition, commutators, and the
positivity / order / residual diagnostics built on them.

T is the unit shift, (T f)(n) = f(n+1), so composition obeys
T^i (a(n) T^j) = a(n+i) T^(i+j).  Every operation computes the exact shrunken
validity window of its result and refuses evaluation outside it; silent
zero-padding would corrupt commutator checks at the window edges.

Sequences store raw libmp values, on which numcore's kernels compute, and
tabulate at construction (nothing lazy); neither they nor operators mutate,
so values are safe to share across workers.
"""

from __future__ import annotations

import json
import operator
from itertools import repeat

from mpmath import mp, mpf
from mpmath.libmp import fone, mpf_neg
from mpmath.libmp import round_nearest as RND

from .errors import WindowError
from .numcore import radd, raw_max, rmac, rmul, rsub, scalar, to_json


class CoeffSeq:
    """A coefficient sequence n -> scalar, tabulated on an integer window:
    raw, a list never mutated once built, holds its values as libmp tuples."""

    __slots__ = ("n_min", "raw")

    def __init__(self, n_min: int, values):
        self.n_min = int(n_min)
        self.raw = [scalar(v)._mpf_ for v in values]
        if not self.raw:
            raise WindowError("empty coefficient window")

    @classmethod
    def _from_raw(cls, n_min: int, raw: list) -> "CoeffSeq":
        """Built from a non-empty list of finite raw values, which it keeps."""
        seq = cls.__new__(cls)
        seq.n_min, seq.raw = n_min, raw
        return seq

    @classmethod
    def tabulate(cls, fn, window, raw=False) -> "CoeffSeq":
        """fn(n) on window; with raw, fn gives finite raw values, kept as they are."""
        lo, hi = int(window[0]), int(window[1])
        if hi < lo:
            raise WindowError(f"empty window [{lo}, {hi}]")
        vals = [fn(n) for n in range(lo, hi + 1)]
        return cls._from_raw(lo, vals) if raw else cls(lo, vals)

    @classmethod
    def constant(cls, value, window) -> "CoeffSeq":
        lo, hi = int(window[0]), int(window[1])
        return cls(lo, [scalar(value)] * (hi - lo + 1))

    @property
    def values(self) -> tuple:
        return tuple(map(mp.make_mpf, self.raw))

    @property
    def window(self):
        return (self.n_min, self.n_min + len(self.raw) - 1)

    def at(self, n: int) -> mpf:
        i = int(n) - self.n_min
        if i < 0 or i >= len(self.raw):
            lo, hi = self.window
            raise WindowError(f"index {n} outside sequence window [{lo}, {hi}]")
        return mp.make_mpf(self.raw[i])

    def restrict(self, window) -> "CoeffSeq":
        lo, hi = int(window[0]), int(window[1])
        if (lo, hi) == self.window:
            return self
        return CoeffSeq._from_raw(lo, self.values_on(lo, hi))

    def values_on(self, lo: int, hi: int) -> list:
        """The raw values on [lo, hi], which must be non-empty and inside the window."""
        slo, shi = self.window
        if hi < lo or lo < slo or hi > shi:
            raise WindowError(f"[{lo}, {hi}] is empty or outside sequence window [{slo}, {shi}]")
        return self.raw[lo - slo : hi - slo + 1]

    def sup_norm(self) -> mpf:
        return mp.make_mpf(raw_max(self.raw, mp.prec))

    def binop(self, other, op) -> "CoeffSeq":
        """self op other on the common window; op is a raw kernel of numcore."""
        lo, hi = _common_window([self, other])
        vals = map(op, self.values_on(lo, hi), other.values_on(lo, hi), repeat(mp.prec))
        return CoeffSeq._from_raw(lo, list(vals))

    def __add__(self, other):
        return self.binop(other, radd)

    def __sub__(self, other):
        return self.binop(other, rsub)

    def __mul__(self, other):
        if isinstance(other, CoeffSeq):
            return self.binop(other, rmul)
        c, p = scalar(other)._mpf_, mp.prec
        return CoeffSeq._from_raw(self.n_min, [rmul(c, v, p) for v in self.raw])

    __rmul__ = __mul__

    def __neg__(self):
        p = mp.prec
        return CoeffSeq._from_raw(self.n_min, [mpf_neg(v, p, RND) for v in self.raw])

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


def _all_ones(vals) -> bool:
    """Every raw value in vals is exactly 1."""
    return vals.count(fone) == len(vals)


def _one_times(vals, p) -> list:
    """rmul(fone, v, p) for the raw values vals: v itself when it fits in p
    bits, so no product is formed then."""
    return [v if v[3] <= p else rmul(fone, v, p) for v in vals]


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
        """Every top coefficient within MONIC_TOL of 1; an exact 1 passes
        on its raw value, with no subtraction."""
        top = self.terms[self.order]
        return all(v == fone or abs(mp.make_mpf(v) - 1) <= MONIC_TOL for v in top.raw)

    def sup_norm(self) -> mpf:
        """max |u_j(n)| over the window; the yardstick for 'numerically zero'."""
        return max(t.sup_norm() for t in self.terms.values())

    def apply(self, f: CoeffSeq) -> CoeffSeq:
        """(L f)(n) = sum_j u_j(n) f(n+j) on the exact shrunken window, each sum
        from its first product in degree order, terms and f read as slices."""
        lo = max(self.window[0], f.window[0] - self.min_degree)
        hi = min(self.window[1], f.window[1] - self.order)
        if hi < lo:
            raise WindowError(
                f"application window empty: operator on {self.window} with degrees "
                f"[{self.min_degree}, {self.order}] needs f beyond [{f.window[0]}, {f.window[1]}]"
            )
        prec, vals = mp.prec, None
        for j, u in self.terms.items():
            uv, fv = u.values_on(lo, hi), f.values_on(lo + j, hi + j)
            vals = ([rmul(x, y, prec) for x, y in zip(uv, fv)] if vals is None else
                    [rmac(acc, x, y, prec) for acc, x, y in zip(vals, uv, fv)])
        return CoeffSeq._from_raw(lo, vals)

    def __mul__(self, other):
        if not isinstance(other, DiffOp):
            c = scalar(other)
            return DiffOp({j: t * c for j, t in self.terms.items()}, self.window)
        # composition: coefficient of T^(i+j) picks up b_j shifted by i; a
        # product with a term of exact 1s is the other factor's values
        lo = max(self.window[0], other.window[0] - self.min_degree)
        hi = min(self.window[1], other.window[1] - self.order)
        if hi < lo:
            raise WindowError("composition window empty")
        prec, olo, width = mp.prec, other.window[0], hi - lo + 1
        raw = {j: b.raw for j, b in other.terms.items()}
        ones = {j for j, bv in raw.items() if _all_ones(bv)}
        out: dict = {}
        for i, a in self.terms.items():
            av = a.values_on(lo, hi)
            a_ones = _all_ones(av)
            for j, bv in raw.items():
                bv = bv[lo + i - olo:lo + i - olo + width]
                k = i + j
                if a_ones or j in ones:
                    contrib = _one_times(bv if a_ones else av, prec)
                    out[k] = ([radd(x, y, prec) for x, y in zip(out[k], contrib)]
                              if k in out else contrib)
                elif k in out:
                    out[k] = [rmac(acc, x, y, prec) for acc, x, y in zip(out[k], av, bv)]
                else:
                    out[k] = [rmul(x, y, prec) for x, y in zip(av, bv)]
        return DiffOp({k: CoeffSeq._from_raw(lo, v) for k, v in out.items()}, (lo, hi))

    __rmul__ = __mul__

    def scale_left(self, c: CoeffSeq) -> "DiffOp":
        """c(n) o self, the zero-degree coefficient c as a left factor: a
        composition, so a term of exact 1s takes c's values."""
        return DiffOp({0: c}) * self

    def _termwise(self, other: "DiffOp", op, alone) -> "DiffOp":
        lo, hi = _common_window([*self.terms.values(), *other.terms.values()])
        out = dict(self.terms)
        for j, t in other.terms.items():
            out[j] = op(out[j], t) if j in out else alone(t)
        return DiffOp(out, (lo, hi))

    def __add__(self, other: "DiffOp") -> "DiffOp":
        return self._termwise(other, operator.add, lambda t: t)

    def __sub__(self, other: "DiffOp") -> "DiffOp":
        return self._termwise(other, operator.sub, operator.neg)

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
        # text keys, sorted as text: "10" comes before "2"
        "terms": {str(j): t.values for j, t in L.terms.items()},
    }
    return to_json(doc)


def op_from_json(text: str) -> DiffOp:
    doc = json.loads(text)
    lo, hi = int(doc["window"][0]), int(doc["window"][1])
    terms = {
        int(j): CoeffSeq(lo, [scalar(s) for s in vals])
        for j, vals in doc["terms"].items()
    }
    return DiffOp(terms, (lo, hi))
