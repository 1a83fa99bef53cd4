"""Compare two full reports written by ``run.py --report FILE``.

    python3 benchmarks/compare.py BASE.json NEW.json

Prints each metric of BASE next to NEW with their ratio.  Refuses, with exit
code 2, to compare reports of different workloads, mpmath backends or
working precisions: their figures do not measure the same thing.
"""

from __future__ import annotations

import json
import sys

PINNED = ("mpmath_backend", "precision_bits")


def comparable(base: dict, new: dict) -> list:
    """Reasons the two reports cannot be compared; empty when they can."""
    reasons = []
    if base["workload"] != new["workload"]:
        reasons.append(f"workload {base['workload']} vs {new['workload']}")
    for key in PINNED:
        a, b = base["environment"].get(key), new["environment"].get(key)
        if a != b:
            reasons.append(f"{key} {a} vs {b}")
    return reasons


def rows(base: dict, new: dict):
    for section in ("end_to_end", "per_layer"):
        a, b = base.get(section, {}), new.get(section, {})
        for name in sorted(set(a) & set(b)):
            va, vb = a[name], b[name]
            if isinstance(va, dict):
                va, vb = va["value"], vb["value"]
            ratio = vb / va if isinstance(va, (int, float)) and va else None
            yield name, va, vb, ratio


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[0]) as fa, open(argv[1]) as fb:
        base, new = json.load(fa), json.load(fb)
    reasons = comparable(base, new)
    if reasons:
        print("refusing to compare: " + "; ".join(reasons), file=sys.stderr)
        return 2
    for name, va, vb, ratio in rows(base, new):
        shown = f"{ratio:8.3f}" if ratio is not None else "       -"
        print(f"{name:40s} {va!s:>24} {vb!s:>24} {shown}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
