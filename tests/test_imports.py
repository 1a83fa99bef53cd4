import ast
import importlib
import inspect
import re
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "commdiff"
# __init__.py imports to export
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# the test modules and the tools, whose imports the same guard checks
SCRIPTS = sorted(p for d in ("tests", "tools") for p in (PACKAGE.parent.parent / d).glob("*.py"))


def unused_imports(source: str) -> list:
    """The names that source imports and never reads, in import order; a
    dotted `import a.b` binds a, and __future__ imports bind nothing."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


def test_unused_imports_are_found():
    src = "from __future__ import annotations\nimport os.path\nfrom a import b, c as d\nd(os)\n"
    assert unused_imports(src) == ["b"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_package_modules_import_no_unused_name(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_test_modules_and_tools_import_no_unused_name(path):
    assert unused_imports(path.read_text()) == []


BENCH_PASSRUN = PACKAGE.parent.parent / "benchmarks" / "passrun.py"


def _package_chains(tree) -> list:
    """The attribute chains cd.<module>.<name> and commdiff.<module>.<name>
    in tree (cd being the package as passrun's functions receive it), as
    (module, name, the Call node when the chain is called, else None)."""
    called = {id(n.func): n for n in ast.walk(tree) if isinstance(n, ast.Call)}
    return [
        (node.value.attr, node.attr, called.get(id(node)))
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
        and isinstance(node.value.value, ast.Name) and node.value.value.id in ("cd", "commdiff")
    ]


def test_what_the_benchmark_calls_resolves_and_binds():
    # benchmarks/passrun.py calls the package by attribute chains, so a
    # renamed or deleted function fails only when the benchmark runs
    from commdiff.dressing import AnsatzResult, ansatz_solve

    chains = _package_chains(ast.parse(BENCH_PASSRUN.read_text()))
    assert len(chains) >= 16
    for module, name, call in chains:
        target = getattr(importlib.import_module(f"commdiff.{module}"), name, None)
        assert target is not None, f"{module}.{name}"
        if call is not None:
            args = [None] * len(call.args)
            inspect.signature(target).bind(*args, **{k.arg: None for k in call.keywords})
    for args in (("basis", "U", "W"), ("basis", "U", "W", "fine")):
        inspect.signature(ansatz_solve).bind(*args)
    inspect.signature(AnsatzResult.state).bind("self", "U", "W", "window")


BENCH_TRACING = PACKAGE.parent.parent / "benchmarks" / "tracing.py"
# the tracer's targets whose functions left the package; CI's bench-smoke
# job expects the traced benchmark to report exactly these as missing
STALE_TARGETS = [
    "commdiff.dressing.linear_scale", "commdiff.dressing.master_scale",
    "commdiff.families.resolve_geom_w_sign", "commdiff.lame.WeierstrassContext.triple",
    "commdiff.linalg.damped_newton", "commdiff.numcore.poly_interpolate",
]


def _resolves(module: str, path: str) -> bool:
    """The dotted path names an attribute chain of the imported module."""
    obj = importlib.import_module(module)
    for name in path.split("."):
        obj = getattr(obj, name, None)
    return obj is not None


def _tracer_table(name: str):
    """The value of the tracer's module-level table name (SPANS or
    DOMINATES), read from its source, which stays unedited."""
    tree = ast.parse(BENCH_TRACING.read_text())
    (table,) = [ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
                and [t.id for t in node.targets if isinstance(t, ast.Name)] == [name]]
    return table


def _missing_span_targets() -> list:
    """The targets of the tracer's SPANS table that do not resolve in the
    package, as dotted names in table order."""
    return [f"{module}.{path}" for targets in _tracer_table("SPANS").values()
            for module, path in targets if not _resolves(module, path)]


def test_every_traced_target_resolves_but_the_stale_ones():
    # a renamed or deleted function unhooks its span, and the traced
    # benchmark fails when a span that a workload needs records no calls
    assert sorted(_missing_span_targets()) == STALE_TARGETS


def _count_at_every_binding(monkeypatch, module: str, path: str, calls: dict):
    """Count the calls of a span target wherever the tracer would wrap it:
    a classmethod or staticmethod on its class, any other object at every
    commdiff module global and class attribute that holds it."""
    *owners, attr = path.split(".")
    owner = importlib.import_module(module)
    for name in owners:
        owner = getattr(owner, name)
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    key = f"{module}.{path}"
    calls[key] = 0

    def counting(fn):
        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return counted

    if isinstance(raw, (classmethod, staticmethod)):
        monkeypatch.setattr(owner, attr, type(raw)(counting(raw.__func__)))
        return
    wrapper = counting(raw)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or mod_name.split(".")[0] != "commdiff":
            continue
        for name, value in list(vars(mod).items()):
            if value is raw:
                monkeypatch.setattr(mod, name, wrapper)
            elif isinstance(value, type) and value.__module__.startswith("commdiff"):
                for cname, cvalue in list(vars(value).items()):
                    if cvalue is raw:
                        monkeypatch.setattr(value, cname, wrapper)


def _silent_spans(monkeypatch, workloads, run):
    """(needed, silent): the tracer's spans that dominate one of workloads
    and have no stale target, and those of them that record no call while
    run() runs, each counted at every binding the tracer would wrap; a span
    records a call when any of its targets does."""
    spans, dominates = _tracer_table("SPANS"), _tracer_table("DOMINATES")
    needed = {name: targets for name, targets in spans.items()
              if set(workloads) & set(dominates.get(name, ()))
              and all(_resolves(module, path) for module, path in targets)}
    calls = {}
    for targets in needed.values():
        for module, path in targets:
            _count_at_every_binding(monkeypatch, module, path, calls)
    run()
    return needed, [name for name, targets in needed.items()
                    if not any(calls[f"{module}.{path}"] for module, path in targets)]


def test_every_span_the_cli_workloads_need_records_calls(monkeypatch, tmp_path):
    # the traced benchmark fails when a span that dominates verify or
    # odd-ext records no call there; a function called through a binding
    # the tracer cannot rewrap (a local alias, a default argument) records
    # none, which only the benchmark would notice.  As the benchmark's own
    # check, a span with a stale target is exempt, and a span records a
    # call when any of its targets does: trig and odd poly reach no
    # elliptic or geometric tabulation
    import commdiff.cli

    out = str(tmp_path / "reports")

    def run():
        for family in (["trig", "--g", "2", "--r1", "1.3"],
                       ["poly", "--g", "2", "--a2", "1", "--a1", "0.5", "--a0", "0.25"]):
            assert commdiff.cli.main(["verify", "--family", *family, "--window", "-4", "4",
                                      "--out", out]) == 0

    needed, silent = _silent_spans(monkeypatch, ("verify", "odd-ext"), run)
    assert "numcore.poly_mul" in needed and "dressing.state" in needed
    assert silent == []


def test_every_span_the_library_workload_needs_records_calls(monkeypatch):
    # the same for curve-lattice, on a small library pass: one pair's curve
    # extraction, the rank-two check, the genus-1 continuum slope and the
    # Lame step independence on two steps; every call goes through a module
    # attribute, as the benchmark's calls do
    from mpmath import mpf

    import commdiff.families
    import commdiff.lame
    import commdiff.rank2
    import commdiff.spectral

    def run():
        spec = commdiff.families.FamilySpec("poly", 1, {"a2": 1, "a0": 0})
        L2, partner = commdiff.families.build_case(spec, (-8, 8))[:2]
        assert commdiff.spectral.extract_curve(L2, partner).matched_curve is not None
        assert commdiff.rank2.verify_rank2()["curve_pass"]
        ctx = commdiff.lame.WeierstrassContext(mpf(4), mpf(0))
        commdiff.lame.continuum_slope(ctx, 1, x=mpf("0.91"))
        commdiff.lame.lame_curve_independence(ctx, [mpf("0.1"), mpf("0.05")], mpf("0.91"))

    needed, silent = _silent_spans(monkeypatch, ("curve-lattice",), run)
    assert {"spectral.kernel_extend", "opalg.apply", "rank2.build"} <= set(needed)
    assert silent == []


@pytest.mark.parametrize("module, owner, name", [
    ("spectral", None, "kernel_extend"), ("opalg", "DiffOp", "apply"),
    ("rank2", None, "build_l4"), ("opalg", None, "op_commutator"),
])
def test_a_renamed_curve_lattice_target_is_reported(monkeypatch, module, owner, name):
    target = importlib.import_module(f"commdiff.{module}")
    monkeypatch.delattr(getattr(target, owner) if owner else target, name)
    dotted = f"commdiff.{module}.{owner + '.' if owner else ''}{name}"
    assert dotted in _missing_span_targets()


REPO = PACKAGE.parent.parent
# public entry points that no code in the repository calls, with the reason
# each stays: q_from_s is the pair rule for callers holding ZPolys and mpf
# values, op_from_json reads back the operator files that op_to_json writes
# (the partner command's partner-op report), and lame_l2 builds the paper's Lame lattice
# operator T^2/eps^2 + A_g T/eps + wp(eps) for a caller's own lattice
WITHOUT_CALLER = {"q_from_s", "op_from_json", "lame_l2"}
_WORD = re.compile(r"[A-Za-z_]\w*")


def dead_definitions(sources: dict, package: set) -> list:
    """The functions, classes and methods defined in the files named in
    package whose name appears nowhere in sources (path -> text) outside
    their own definition: not as a name, an attribute or a word of a string
    that is not a docstring.  Dunder methods, which Python calls, count as
    named.  Each as 'file:line name'."""
    uses, defs = [], []
    for path, text in sources.items():
        tree = ast.parse(text)
        docs = {id(node.body[0].value) for node in ast.walk(tree)
                if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                     ast.AsyncFunctionDef))
                and node.body and isinstance(node.body[0], ast.Expr)
                and isinstance(node.body[0].value, ast.Constant)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.append((path, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                uses.append((path, node.lineno, node.attr))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and id(node) not in docs:
                uses += [(path, node.lineno, w) for w in _WORD.findall(node.value)]
            if path in package and isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append((path, node.lineno, node.end_lineno, node.name))
    named = {}
    for path, line, name in uses:
        named.setdefault(name, []).append((path, line))
    return [f"{path}:{a} {name}" for path, a, b, name in defs
            if not (name.startswith("__") and name.endswith("__"))
            and not any(p != path or not a <= line <= b for p, line in named.get(name, ()))]


def test_dead_definitions_are_found():
    src = {
        "pkg.py": ('def used():\n    """used() is named only here."""\n    return used()\n'
                   'def called():\n    pass\nclass Box:\n    def __len__(self):\n        return 0\n'
                   '    def helper(self):\n        return 1\n'),
        "other.py": 'import pkg\npkg.called()\nTARGETS = ["pkg.Box.helper"]\n',
    }
    assert dead_definitions(src, {"pkg.py"}) == ["pkg.py:1 used"]


def test_every_package_definition_is_named_outside_itself():
    # a function, class or method of the package that nothing in src/,
    # benchmarks/ or tools/ names is dead code, unless it is a listed entry
    # point
    sources = {str(p.relative_to(REPO)): p.read_text()
               for d in ("src", "benchmarks", "tools") for p in sorted((REPO / d).rglob("*.py"))}
    package = {k for k in sources if k.startswith("src/")}
    dead = dead_definitions(sources, package)
    assert sorted(d.split()[1] for d in dead if d.split()[1] in WITHOUT_CALLER) == \
        sorted(WITHOUT_CALLER)
    assert [d for d in dead if d.split()[1] not in WITHOUT_CALLER] == []


TESTS = Path(__file__).resolve().parent


def test_no_test_module_imports_another():
    # a module that imports a test module fails to collect whenever that
    # module does; shared helpers live in oracles.py
    for path in sorted(TESTS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = [node.module or ""] if isinstance(node, ast.ImportFrom) else \
                [a.name for a in node.names] if isinstance(node, ast.Import) else []
            assert not any(n.split(".")[0].startswith("test_") for n in names), \
                (path.name, node.lineno)


# the float kernels: each rounds every product or sum it forms, where the
# rest of the package forms values exactly and rounds them once; a kernel
# the package retires leaves this list.  libmp's ops (mpf_*) round only when
# given a precision: without one they are exact and call no kernel
FLOAT_KERNELS = {"mpf_mul", "mpf_mul_int", "mpf_add", "mdot", "maxpy", "pow_int", "lstsq_mpf"}
# the package functions that may call one, as module.function or
# module.Class.method: the family tables, and the pin fit (which gives the
# z^g row of S) with its solver, the two callers of the column kernels
FLOAT_CALLERS = {
    "families.trig_family", "families.poly_family", "families.geom_family",
    "dressing.GeomBasis.functions", "dressing._pin_top_row", "linalg.lstsq_mpf",
}


def float_callers(sources: dict, kernels: set) -> set:
    """The functions and methods in sources (module name -> text) that call
    one of kernels by name or attribute, a libmp op with a precision (a
    third argument or prec), nested functions and lambdas included, as
    module.function or module.Class.method; a call outside any of them
    counts as module.Class or module.<module>."""

    def rounds(call):
        name = getattr(call.func, "id", getattr(call.func, "attr", None))
        return name in kernels and (not name.startswith("mpf_") or len(call.args) > 2
                                    or any(k.arg == "prec" for k in call.keywords))

    found = set()
    for module, text in sources.items():
        scopes = []
        for node in ast.parse(text).body:
            if isinstance(node, ast.ClassDef):
                scopes += [(f"{node.name}.{f.name}" if isinstance(f, ast.FunctionDef)
                            else node.name, f) for f in node.body]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scopes.append((node.name, node))
            else:
                scopes.append(("<module>", node))
        for name, scope in scopes:
            if any(isinstance(n, ast.Call) and rounds(n) for n in ast.walk(scope)):
                found.add(f"{module}.{name}")
    return found


def test_float_callers_are_found():
    # mpf_mul with no precision is exact; every other call rounds
    src = ("def f(x):\n    return [lambda n: mpf_mul(n, n, 53, RND)]\n"
           "class C:\n    def m(self):\n        return linalg.lstsq_mpf([], [])\n"
           "    def k(self):\n        return rround(1, 0, 53)\n"
           "    def e(self, x):\n        return libmp.mpf_mul(x, x)\n"
           "def g():\n    def inner():\n        return mpf_add(1, 2, 53, RND)\n    return inner\n"
           "def h(x):\n    return mpf_mul_int(x, 3, prec=53)\n"
           "ONE = pow_int(1, 2, 53)\n")
    assert float_callers({"mod": src}, FLOAT_KERNELS) == {"mod.f", "mod.C.m", "mod.g", "mod.h",
                                                          "mod.<module>"}
    # a new package function that adds at a precision is a new float path
    sources = {p.stem: p.read_text() for p in MODULES}
    sources["families"] += "\ndef double(x):\n    return mpf_add(x, x, 53, RND)\n"
    assert float_callers(sources, FLOAT_KERNELS) - FLOAT_CALLERS == {"families.double"}


def test_only_the_listed_functions_call_the_float_kernels():
    # a new caller of a float kernel is a new float path; a listed function
    # that leaves the package leaves the list, so that retiring the pin fit
    # or the float family tables shrinks it
    sources = {p.stem: p.read_text() for p in MODULES}
    assert float_callers(sources, FLOAT_KERNELS) <= FLOAT_CALLERS
    for name in sorted(FLOAT_CALLERS):
        module, path = name.split(".", 1)
        assert _resolves(f"commdiff.{module}", path), name
