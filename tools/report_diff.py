"""Compare the CLI reports of two source trees, residual by residual.

Both trees run the configuration list of tools/report_hashes.py (its
run_listing), each in a temporary directory of its own.  The reports are
paired by file name, which hashes the parsed configuration, and the tool
prints, per report:

- each exit-code change of a configuration;
- each verdict flip (a true/false field such as pass or partner_monic);
- each changed residual field, with its value before and after, the ratio
  after / before, and whether both lie below 2^-p at the report's
  precision p;
- the count of other changed fields (curve coefficients, state tables,
  operator terms).

Summary counts come last, with the largest residual growth among the
fields that do not both lie below 2^-p (the quantity a precision-relative
gate bounds), then the largest of all: each with its field, report and
configuration, its values before and after, the ratio, and whether both
lie below 2^-p, or "none" when no such residual grew.  The exit
status is 1 when a configuration of the new tree exits 2 (a usage or
domain error), and 0 otherwise, whatever the differences: the tool
describes a report change, it does not judge it.

    python3 tools/report_diff.py --base OLD/src --new NEW/src

Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import tempfile
from decimal import Decimal, localcontext
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from report_hashes import run_listing  # noqa: E402

# a numeric field whose key (or the key of the list holding it) matches is
# a residual: a quantity that a correct run drives towards 0
RESIDUAL_KEY = re.compile(r"resid|defect|deviation|mismatch|agreement")
REPORT_PATH = re.compile(r"reports/(\S+\.json)")


def collect(src, tmp: Path) -> dict:
    """The listing's runs on src and the report documents they wrote:
    {"runs": [[label, exit code, report file or None], ...],
     "reports": {file name: document}}, plus "errors", the stderr of each
    run that exited 2."""
    runs, errors = [], {}
    for label, code, out, err in run_listing(src, tmp):
        named = REPORT_PATH.findall(out)
        runs.append([label, code, named[-1] if named else None])
        if code == 2:
            errors[label] = err.strip()
    reports = {path.name: json.loads(path.read_text())
               for path in sorted((tmp / "reports").glob("*.json"))}
    return {"runs": runs, "reports": reports, "errors": errors}


def _leaves(doc, path=(), key=""):
    """(path, key, value) of every scalar in doc; key is the nearest dict key."""
    if isinstance(doc, dict):
        for k in sorted(doc):
            yield from _leaves(doc[k], (*path, k), k)
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from _leaves(v, (*path, str(i)), key)
    else:
        yield "/".join(path), key, doc


def _number(v):
    if isinstance(v, bool) or not isinstance(v, (int, float, str)):
        return None
    try:
        d = Decimal(str(v))
    except ArithmeticError:
        return None
    return d if d.is_finite() else None


def diff_report(base: dict, new: dict) -> dict:
    """The differences between two documents of one report file:
    {"flips": [(path, before, after)], "residuals": [(path, before, after,
    ratio, both below 2^-p or None)], "compared": residual fields in both,
    "other": changed fields that are neither, "smaller"/"larger": counts
    of changed residuals by magnitude}.  Pure; the precision p is the
    config's precision_bits, and None stands for the below-2^-p test of a
    document without one."""
    bits = base.get("config", {}).get("precision_bits")
    old = {path: v for path, _key, v in _leaves(base)}
    out = {"flips": [], "residuals": [], "compared": 0, "other": 0, "smaller": 0, "larger": 0}
    seen = set()
    for path, key, after in _leaves(new):
        seen.add(path)
        if path not in old:
            out["other"] += 1
            continue
        before = old[path]
        residual = RESIDUAL_KEY.search(key) and _number(before) is not None \
            and _number(after) is not None
        out["compared"] += bool(residual)
        if before == after:
            continue
        if isinstance(before, bool) and isinstance(after, bool):
            out["flips"].append((path, before, after))
        elif residual:
            b, a = abs(_number(before)), abs(_number(after))
            with localcontext() as ctx:
                ctx.prec = 50
                ratio = a / b if b else Decimal("Infinity") if a else Decimal(1)
                below = None if bits is None else max(a, b) < Decimal(2) ** -int(bits)
            out["residuals"].append((path, before, after, ratio, below))
            if a != b:
                out["smaller" if a < b else "larger"] += 1
        else:
            out["other"] += 1
    out["other"] += sum(path not in seen for path in old)
    return out


def compare(base: dict, new: dict) -> tuple:
    """(lines, counts): the table for two collect() results, the summary
    last, ending in "no change" or "reports changed".  Pure."""
    lines = []
    counts = dict.fromkeys(("exit changes", "verdict flips", "residuals compared",
                            "residuals changed", "smaller", "larger", "other fields changed",
                            "files only in base", "files only in new"), 0)
    if [r[0] for r in base["runs"]] != [r[0] for r in new["runs"]]:
        raise ValueError("the two trees ran different listings")
    # the largest growth of all, and of the fields not both below 2^-p
    label_of, growth, growth_above = {}, None, None
    for (label, code0, _f0), (_label, code1, file1) in zip(base["runs"], new["runs"]):
        if file1 is not None:
            label_of.setdefault(file1, label)
        if code0 != code1:
            counts["exit changes"] += 1
            lines.append(f"exit {code0} -> {code1}: {label}")
    for name in sorted(set(base["reports"]) | set(new["reports"])):
        if name not in new["reports"]:
            counts["files only in base"] += 1
            lines.append(f"{name}: only in base")
            continue
        if name not in base["reports"]:
            counts["files only in new"] += 1
            lines.append(f"{name}: only in new")
            continue
        d = diff_report(base["reports"][name], new["reports"][name])
        counts["residuals compared"] += d["compared"]
        counts["residuals changed"] += len(d["residuals"])
        counts["verdict flips"] += len(d["flips"])
        for key in ("smaller", "larger"):
            counts[key] += d[key]
        counts["other fields changed"] += d["other"]
        if not (d["flips"] or d["residuals"] or d["other"]):
            continue
        label = label_of.get(name)
        where = f"{name}" + (f" ({label})" if label else "")
        lines.append(where)
        for path, before, after in d["flips"]:
            lines.append(f"  flip {path}: {json.dumps(before)} -> {json.dumps(after)}")
        for path, before, after, ratio, below in d["residuals"]:
            flag = {True: "yes", False: "no", None: "?"}[below]
            lines.append(f"  {path}: {before} -> {after}  ratio {float(ratio):.3g}"
                         f"  both below 2^-p: {flag}")
            if ratio > 1:
                entry = ratio, f"{path} in {where}: {before} -> {after}, both below 2^-p: {flag}"
                if growth is None or ratio > growth[0]:
                    growth = entry
                if not below and (growth_above is None or ratio > growth_above[0]):
                    growth_above = entry
        if d["other"]:
            lines.append(f"  {d['other']} other fields changed")
    c = counts
    lines += [
        f"summary: {len(new['runs'])} runs, {len(new['reports'])} files",
        f"  exit changes {c['exit changes']}, verdict flips {c['verdict flips']}, files only "
        f"in base {c['files only in base']}, files only in new {c['files only in new']}",
        f"  residual fields: {c['residuals compared']} compared, {c['residuals changed']} "
        f"changed ({c['smaller']} smaller, {c['larger']} larger)",
        f"  other fields changed: {c['other fields changed']}",
        *(f"  {title}: " + (f"ratio {float(g[0]):.3g}, {g[1]}" if g else "none")
          for title, g in (("largest residual growth not both below 2^-p", growth_above),
                           ("largest residual growth", growth))),
    ]
    unchanged = not any(v for k, v in c.items()
                        if k not in ("residuals compared", "smaller", "larger"))
    lines.append("no change" if unchanged else "reports changed")
    return lines, counts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", type=Path, required=True, help="the source tree before")
    ap.add_argument("--new", type=Path, required=True, help="the source tree after")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="report-diff-") as tmp:
        docs = []
        for side in ("base", "new"):
            (Path(tmp) / side).mkdir()
            docs.append(collect(getattr(args, side), Path(tmp) / side))
    lines, _counts = compare(*docs)
    print("\n".join(lines))
    status = 0
    for label, err in docs[1]["errors"].items():
        print(f"new tree exits 2: {label}\n{err}")
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
