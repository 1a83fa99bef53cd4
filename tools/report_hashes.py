"""Print the sha256 of every CLI report for a fixed list of configurations.

Two checkouts that print the same lines write byte-identical reports and
partner-operator files for every configuration below.  Each command runs in
a fresh interpreter on the given source tree, in a temporary directory, with
a relative output directory, so that no absolute path reaches a report.

    python3 tools/report_hashes.py [--src PATH/TO/src]

Stdlib only.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CRITERION_1 = (
    [["verify", "--family", "trig", "--g", str(g), "--r1", "1"] for g in (1, 2, 3, 4)]
    + [["verify", "--family", "poly", "--g", str(g), "--a2", "1", "--a0", "0"]
       for g in (1, 2, 3, 4)]
    + [["verify", "--family", "geom", "--g", str(g), "--a", "2", "--beta", "1"]
       for g in (1, 2, 3, 4)]
    + [["verify", "--family", "elliptic", "--g", "1"]]
)

ODD_EXTENSION = [
    ["verify", "--family", "poly", "--g", str(g), "--a2", "1", "--a0", "0", "--a1", "0.5"]
    for g in (1, 2, 3)
]

CURVES = (
    [["curve", "--family", "trig", "--g", str(g), "--r1", "1"] for g in (1, 2)]
    + [["curve", "--family", "poly", "--g", str(g), "--a2", "1", "--a0", "0"] for g in (1, 2)]
    + [["curve", "--family", "geom", "--g", str(g), "--a", "2", "--beta", "1"] for g in (1, 2)]
    + [["curve", "--family", "elliptic", "--g", "1"]]
)

PARTNERS = [
    ["partner", "--family", "geom", "--g", "1", "--a", "2", "--beta", "1"],
    ["partner", "--family", "elliptic", "--g", "1"],
]

OTHERS = [["rank2"], ["lame"]]

CONFIGS = CRITERION_1 + ODD_EXTENSION + CURVES + PARTNERS + OTHERS


def main(argv=None) -> int:
    default_src = Path(__file__).resolve().parent.parent / "src"
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, default=default_src,
                    help="source tree holding the commdiff package (default: this checkout)")
    args = ap.parse_args(argv)

    env = dict(os.environ)
    env.pop("COMMDIFF_PRECISION_BITS", None)
    env["PYTHONPATH"] = str(args.src.resolve())
    status = 0
    with tempfile.TemporaryDirectory(prefix="report-hashes-") as tmp:
        for argv_ in CONFIGS:
            cmd = [sys.executable, "-m", "commdiff.cli", *argv_, "--out", "reports"]
            proc = subprocess.run(cmd, cwd=tmp, env=env, capture_output=True, text=True)
            print(f"exit {proc.returncode}: {' '.join(argv_)}")
            if proc.returncode == 2:
                status = 1
                print(proc.stderr.strip())
        for path in sorted((Path(tmp) / "reports").glob("*.json")):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.name}")
    return status


if __name__ == "__main__":
    sys.exit(main())
