"""Algebra of difference operators sum_j u_j(n) T^j with n-dependent
coefficients: application to sequences, composition, commutators, and the
positivity / order / residual diagnostics built on them.

T is the unit shift, (T f)(n) = f(n+1), so composition obeys
T^i (a(n) T^j) = a(n+i) T^(i+j).  Every operation computes the exact shrunken
validity window of its result and refuses evaluation outside it; silent
zero-padding would corrupt commutator checks at the window edges.

Sequences store raw libmp values, on which numcore's kernels compute, and
tabulate at construction (nothing lazy); neither they nor operators mutate,
so values are safe to share across workers.  Operators have one
arithmetic: an exact form (exact_form: raw values as signed ints on one
exponent) composes and sums with no rounding, and exact_op rounds each
value once.  DiffOp's *, + and - are one such composition or sum of their
operands, and the commutator and dressing's partner are formed so too;
apply sums exactly on exact z-polynomials, as spectral's kernels are held.
"""

from __future__ import annotations

import json
import operator

from mpmath import mp, mpf
from mpmath.libmp import fone

from .errors import WindowError
from .numcore import raw_ints, raw_max, rratio, rround, scalar, to_json, zsum


class CoeffSeq:
    """A coefficient sequence n -> scalar, tabulated on an integer window:
    raw, a list never mutated once built, holds its values as libmp tuples, or
    exact z-polynomials (ints, exp) in a sequence for DiffOp.apply."""

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

    def __repr__(self):
        lo, hi = self.window
        return f"CoeffSeq([{lo}, {hi}])"


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
        lo = max(t.window[0] for t in items.values())
        hi = min(t.window[1] for t in items.values())
        if window is not None:
            lo, hi = max(lo, int(window[0])), min(hi, int(window[1]))
        if hi < lo:
            raise WindowError("term windows have empty intersection")
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
        """(L f)(n) = sum_j u_j(n) f(n+j) on the exact shrunken window, exactly,
        for f a sequence of exact z-polynomials (ints, exp), as
        spectral.kernel_extend gives them: each value one numcore.zsum, the
        terms read once, as ints on that window (raw_ints)."""
        lo = max(self.window[0], f.window[0] - self.min_degree)
        hi = min(self.window[1], f.window[1] - self.order)
        if hi < lo:
            raise WindowError(
                f"application window empty: operator on {self.window} with degrees "
                f"[{self.min_degree}, {self.order}] needs f beyond [{f.window[0]}, {f.window[1]}]"
            )
        us, eu = raw_ints([u.values_on(lo, hi) for u in self.terms.values()])
        fs = [f.values_on(lo + j, hi + j) for j in self.terms]
        return CoeffSeq._from_raw(lo, [zsum([(u, x, eu + e) for u, (x, e) in zip(un, fn) if u])
                                       for un, fn in zip(zip(*us), zip(*fs))])

    def __mul__(self, other):
        """self o other, exactly, each coefficient rounded once."""
        if not isinstance(other, DiffOp):
            return NotImplemented
        return exact_op(exact_compose(exact_form(self), exact_form(other)), mp.prec)

    def scale_left(self, c: CoeffSeq) -> "DiffOp":
        """c(n) o self, the zero-degree coefficient c as a left factor."""
        return DiffOp({0: c}) * self

    def __add__(self, other: "DiffOp") -> "DiffOp":
        """self + other termwise, exactly, each coefficient rounded once."""
        if not isinstance(other, DiffOp):
            return NotImplemented
        return exact_op(exact_sum(exact_form(self), exact_form(other)), mp.prec)

    def __sub__(self, other: "DiffOp") -> "DiffOp":
        if not isinstance(other, DiffOp):
            return NotImplemented
        return exact_op(exact_sum(exact_form(self), exact_form(other), -1), mp.prec)

    def __repr__(self):
        return f"DiffOp(order={self.order}, window={self.window})"


def exact_form(L: DiffOp):
    """L exactly as (window, terms, exp): terms[j][i] times 2^exp is the raw
    value i of L's term j, on numcore.raw_ints' exponent."""
    ints, exp = raw_ints([t.raw for t in L.terms.values()])
    return L.window, dict(zip(L.terms, ints)), exp


def exact_compose(a, b):
    """a o b of two exact forms, exactly, on DiffOp.__mul__'s window: the
    coefficient of T^(i+j) is the sum of a_i(n) b_j(n+i)."""
    ((alo, ahi), at, ae), ((blo, bhi), bt, be) = a, b
    lo, hi = max(alo, blo - min(at)), min(ahi, bhi - max(at))
    if hi < lo:
        raise WindowError("composition window empty")
    out: dict = {}
    for i, av in at.items():
        av = av[lo - alo:hi - alo + 1]
        for j, bv in bt.items():
            prod = map(operator.mul, av, bv[lo + i - blo:hi + i - blo + 1])
            out[i + j] = [*map(operator.add, out[i + j], prod)] if i + j in out else [*prod]
    return (lo, hi), out, ae + be


def exact_sum(a, b, sign=1):
    """a + sign * b of two exact forms, exactly, termwise on the common window."""
    ((alo, ahi), at, ae), ((blo, bhi), bt, be) = a, b
    lo, hi = max(alo, blo), min(ahi, bhi)
    if hi < lo:
        raise WindowError("term windows have empty intersection")
    exp = min(ae, be)
    out = {j: [v << (ae - exp) for v in t[lo - alo:hi - alo + 1]] for j, t in at.items()}
    for j, t in bt.items():
        t = [sign * v << (be - exp) for v in t[lo - blo:hi - blo + 1]]
        out[j] = [*map(operator.add, out[j], t)] if j in out else t
    return (lo, hi), out, exp


def exact_op(x, prec: int) -> DiffOp:
    """The DiffOp of the exact form x, each value rounded once at prec bits."""
    (lo, hi), terms, exp = x
    return DiffOp({j: CoeffSeq._from_raw(lo, [rround(v, exp, prec) for v in t])
                   for j, t in terms.items()}, (lo, hi))


def op_commutator(a, b):
    """[a, b] = a o b - b o a of two exact forms, exactly, on the window of
    A * B - B * A for the operators A and B they hold."""
    return exact_sum(exact_compose(a, b), exact_compose(b, a), -1)


def _int_sup(terms) -> int:
    return max(max(map(abs, t)) for t in terms.values())


def commutator_residual(A: DiffOp, B: DiffOp):
    """(window, rel): the window of [A, B] and the dimensionless residual
    rel = sup|[A, B]| / (|A| |B|), the sups over exact values, so a ratio of
    two ints, rounded once at mp.prec."""
    a, b = exact_form(A), exact_form(B)
    window, comm, _ = op_commutator(a, b)
    # [a, b] carries the exponent of a times b, which cancels in the ratio
    rel = rratio(_int_sup(comm), _int_sup(a[1]) * _int_sup(b[1]), mp.prec)
    return window, mp.make_mpf(rel)


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
    """The operator op_to_json wrote: each term one value per site of the
    window, the order its top term's degree, else a WindowError or ValueError
    that names the term."""
    doc = json.loads(text)
    lo, hi = int(doc["window"][0]), int(doc["window"][1])
    for j, vals in doc["terms"].items():
        if len(vals) != hi - lo + 1:
            raise WindowError(f"term {j} holds {len(vals)} values on window [{lo}, {hi}]")
    L = DiffOp({int(j): CoeffSeq(lo, vals) for j, vals in doc["terms"].items()}, (lo, hi))
    if L.order != int(doc["order"]):
        raise ValueError(f"order {doc['order']} is not the top term's degree, term {L.order}")
    return L
