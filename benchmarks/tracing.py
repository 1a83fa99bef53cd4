"""Layer spans for the traced benchmark run.

The package is left unchanged: ``install`` replaces the public functions
named in ``SPANS`` by timing wrappers, on the defining module or class and
at every place the same object is bound (``from X import name`` copies,
re-exports in ``commdiff/__init__``, method aliases such as ``__rmul__``).

Spans nest.  A span's self time is its wall time minus the wall time of the
spans opened inside it, so the self times of one pass add up to at most the
traced wall time.
"""

from __future__ import annotations

import math
import sys
from time import perf_counter

LAYERS = ("linalg", "numcore", "opalg", "dressing", "families", "spectral",
          "lame", "rank2", "cli")

# span name -> (module, attribute path) targets
SPANS = {
    "linalg.lstsq": [("commdiff.linalg", "lstsq")],
    "linalg.damped_newton": [("commdiff.linalg", "damped_newton")],
    "numcore.poly_mul": [("commdiff.numcore", "poly_mul")],
    "numcore.poly_interpolate": [("commdiff.numcore", "poly_interpolate")],
    "opalg.compose": [("commdiff.opalg", "DiffOp.__mul__")],
    "opalg.add_scale": [("commdiff.opalg", "DiffOp.__add__"),
                        ("commdiff.opalg", "DiffOp.scale_left")],
    "opalg.commutator": [("commdiff.opalg", "op_commutator")],
    "opalg.apply": [("commdiff.opalg", "DiffOp.apply")],
    "dressing.ansatz_solve": [("commdiff.dressing", "ansatz_solve")],
    "dressing.state": [("commdiff.dressing", "AnsatzResult.state"),
                       ("commdiff.dressing", "DressingState.from_s_table"),
                       ("commdiff.dressing", "elliptic_dressing_state")],
    "dressing.build_partner_op": [("commdiff.dressing", "build_partner_op")],
    "dressing.checks": [("commdiff.dressing", "verify_master"),
                        ("commdiff.dressing", "master_scale"),
                        ("commdiff.dressing", "residual_linear"),
                        ("commdiff.dressing", "linear_scale")],
    "families.tabulate": [("commdiff.families", "trig_family"),
                          ("commdiff.families", "poly_family"),
                          ("commdiff.families", "geom_family"),
                          ("commdiff.families", "elliptic_family")],
    "families.geom_sign": [("commdiff.families", "resolve_geom_w_sign")],
    "spectral.kernel_extend": [("commdiff.spectral", "kernel_extend")],
    "spectral.extract_curve": [("commdiff.spectral", "extract_curve")],
    "spectral.rank2_curve_check": [("commdiff.spectral", "rank2_curve_check")],
    "lame.triple": [("commdiff.lame", "WeierstrassContext.triple")],
    "lame.continuum_slope": [("commdiff.lame", "continuum_slope")],
    "lame.lame_curve_independence": [("commdiff.lame", "lame_curve_independence")],
    "rank2.build": [("commdiff.rank2", "build_l4"), ("commdiff.rank2", "build_l6_special")],
    "cli.main": [("commdiff.cli", "main")],
}

# The workloads on which each span must record calls; the traced run fails
# its self-check when one of them records none there.
DOMINATES = {
    "linalg.lstsq": ("verify", "odd-ext", "curve-lattice"),
    "linalg.damped_newton": ("curve-lattice",),
    "numcore.poly_mul": ("verify", "odd-ext"),
    "numcore.poly_interpolate": ("curve-lattice",),
    "opalg.compose": ("verify", "odd-ext"),
    "opalg.add_scale": ("verify", "odd-ext"),
    "opalg.commutator": ("verify", "odd-ext", "curve-lattice"),
    "opalg.apply": ("curve-lattice",),
    "dressing.ansatz_solve": ("verify", "odd-ext"),
    "dressing.state": ("verify", "odd-ext"),
    "dressing.build_partner_op": ("verify", "odd-ext"),
    "dressing.checks": ("verify", "odd-ext"),
    "families.tabulate": ("verify", "odd-ext", "curve-lattice"),
    "families.geom_sign": ("verify",),
    "spectral.kernel_extend": ("curve-lattice",),
    "spectral.extract_curve": ("curve-lattice",),
    "spectral.rank2_curve_check": ("curve-lattice",),
    "lame.triple": ("curve-lattice",),
    "lame.continuum_slope": ("curve-lattice",),
    "lame.lame_curve_independence": ("curve-lattice",),
    "rank2.build": ("curve-lattice",),
    "cli.main": ("verify", "odd-ext"),
}


class Span:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Span statistics plus the per-span extras the layer metrics need."""

    def __init__(self, prec_bits: int, span_names=SPANS):
        self.prec_bits = prec_bits
        self.spans = {name: Span() for name in span_names}
        self.errors = {layer: {} for layer in LAYERS}
        self.extra = {
            "linalg.lstsq.cells": 0,
            "linalg.damped_newton.iters": 0,
            "opalg.compose.coeffs": 0,
            "dressing.ansatz_solve.rows": 0,
            "dressing.ansatz_solve.cols": 0,
            "families.geom_sign.trial_solves": 0,
        }
        self.ansatz_digits = []
        self.useful_solves = 0  # solves whose result later fed a state
        self.missing = []       # targets not found in the package
        # one frame per open span: [span name, child seconds, scratch dict]
        self.stack = []

    # -- span bookkeeping ------------------------------------------------

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self.stack)

    def enclosing(self, name: str):
        for frame in reversed(self.stack):
            if frame[0] == name:
                return frame
        return None

    def record_error(self, name: str, err: BaseException) -> None:
        layer = name.split(".", 1)[0]
        try:
            seen = err.__dict__.setdefault("_bench_layers", set())
        except AttributeError:
            seen = set()
        if layer in seen:
            return
        seen.add(layer)
        kinds = self.errors.setdefault(layer, {})
        kinds[type(err).__name__] = kinds.get(type(err).__name__, 0) + 1

    def wrap(self, name: str, fn):
        span = self.spans[name]
        stack = self.stack
        before = _BEFORE.get(name)
        after = _AFTER.get(name)

        def wrapper(*args, **kwargs):
            frame = [name, 0.0, {}]
            if before is not None:
                before(self, frame, args)
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                self.record_error(name, err)
                raise
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                span.calls += 1
                span.total_s += dt
                span.self_s += dt - frame[1]
            if after is not None:
                after(self, frame, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict:
        out = {}
        for name, span in self.spans.items():
            out[f"{name}.calls"] = span.calls
            out[f"{name}.self_s"] = span.self_s
        out.update(self.extra)
        solves = self.spans["dressing.ansatz_solve"].calls
        out["dressing.ansatz_solve.useful_frac"] = (
            self.useful_solves / solves if solves else 1.0
        )
        out["dressing.ansatz.digits_lost_max"] = (
            max(self.ansatz_digits) if self.ansatz_digits else 0.0
        )
        for layer, kinds in self.errors.items():
            out[f"{layer}.errors"] = sum(kinds.values())
        return out


def digits_lost(rel: float, prec_bits: int) -> float:
    """log10(rel / 2^-prec): decimal digits a relative residual sits above
    the unit roundoff.  A zero residual loses none."""
    if rel <= 0:
        return 0.0
    return math.log10(rel) + prec_bits * math.log10(2)


# -- per-span hooks ----------------------------------------------------------


def _lstsq_before(tracer, frame, args):
    rows = args[0]
    m = len(rows)
    n = len(rows[0]) if m else 0
    tracer.extra["linalg.lstsq.cells"] += m * n
    owner = tracer.enclosing("dressing.ansatz_solve")
    if owner is not None and m * n > owner[2].get("cells", -1):
        owner[2].update(cells=m * n, rows=m, cols=n)


def _ansatz_before(tracer, frame, args):
    if tracer.inside("families.geom_sign"):
        tracer.extra["families.geom_sign.trial_solves"] += 1


def _ansatz_after(tracer, frame, args, result):
    tracer.extra["dressing.ansatz_solve.rows"] += frame[2].get("rows", 0)
    tracer.extra["dressing.ansatz_solve.cols"] += frame[2].get("cols", 0)
    result._bench_solved = True
    rel = result.info.get("resid_rel")
    if rel is not None:
        tracer.ansatz_digits.append(digits_lost(float(rel), tracer.prec_bits))


def _state_before(tracer, frame, args):
    # AnsatzResult.state(self, ...) outside a solve feeds a real state; the
    # solver's own curve probe does not count
    res = args[0] if args else None
    if (getattr(res, "_bench_solved", False) and not getattr(res, "_bench_fed", False)
            and not tracer.inside("dressing.ansatz_solve")):
        res._bench_fed = True
        tracer.useful_solves += 1


def _newton_after(tracer, frame, args, result):
    tracer.extra["linalg.damped_newton.iters"] += int(result[1]["iterations"])


def _compose_after(tracer, frame, args, result):
    lo, hi = result.window
    tracer.extra["opalg.compose.coeffs"] += len(result.terms) * (hi - lo + 1)


_BEFORE = {
    "linalg.lstsq": _lstsq_before,
    "dressing.ansatz_solve": _ansatz_before,
    "dressing.state": _state_before,
}
_AFTER = {
    "dressing.ansatz_solve": _ansatz_after,
    "linalg.damped_newton": _newton_after,
    "opalg.compose": _compose_after,
}


# -- installation ----------------------------------------------------------


def _lookup(module_name: str, path: str):
    """(owner, attribute name, raw object) for a dotted target, or None."""
    owner = sys.modules.get(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    if owner is None:
        return None
    attr = parts[-1]
    raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if raw is None:
        return None
    return owner, attr, raw


def _rebind_everywhere(orig, replacement) -> int:
    """Point every commdiff module global and class attribute that holds
    `orig` at `replacement`.  Returns the number of binding sites."""
    sites = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "commdiff" or mod_name.startswith("commdiff.")):
            continue
        for key, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, key, replacement)
                sites += 1
            elif isinstance(val, type) and val.__module__.startswith("commdiff"):
                for ckey, cval in list(val.__dict__.items()):
                    if cval is orig:
                        setattr(val, ckey, replacement)
                        sites += 1
    return sites


def install(prec_bits: int) -> Tracer:
    """Wrap every span target; the package must already be imported."""
    tracer = Tracer(prec_bits)
    for name, targets in SPANS.items():
        for module_name, path in targets:
            found = _lookup(module_name, path)
            if found is None:
                tracer.missing.append(f"{module_name}.{path}")
                continue
            owner, attr, raw = found
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(tracer.wrap(name, raw.__func__))
                setattr(owner, attr, wrapped)
                continue
            _rebind_everywhere(raw, tracer.wrap(name, raw))
    return tracer
