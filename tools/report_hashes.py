"""Print the sha256 of every CLI report for a fixed list of configurations.

Two checkouts that print the same lines write byte-identical reports and
partner-operator files for every configuration below, including the ones
that read their options from a --config file.  Each command runs in
a fresh interpreter on the given source tree, in a temporary directory, with
a relative output directory, so that no absolute path reaches a report.

    python3 tools/report_hashes.py [--src PATH/TO/src]

Stdlib only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
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

# g = 4 and 5 solve the 135x44 and 186x65 ansatz systems
ODD_EXTENSION = [
    ["verify", "--family", "poly", "--g", str(g), "--a2", "1", "--a0", "0", "--a1", "0.5"]
    for g in (1, 2, 3, 4, 5)
]

# a geometric pair whose partner lead misses 1 by more than is_monic allows
NON_MONIC = [
    ["verify", "--family", "geom", "--g", "2", "--a", "1.764235", "--beta", "0.895178"],
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

# genus 3 curve extraction (geometric, and quadratic with a linear term) and
# a trig partner
MORE = [
    ["curve", "--family", "trig", "--g", "3", "--r1", "1"],
    ["curve", "--family", "geom", "--g", "3", "--a", "2", "--beta", "1"],
    ["curve", "--family", "poly", "--g", "3", "--a2", "1", "--a0", "0", "--a1", "0.5"],
    ["partner", "--family", "trig", "--g", "2", "--r1", "1"],
]

# the lame configs vary x0, the invariants (g3 < 0 in the last) and the step
# down to eps = 0.0125
OTHERS = [
    ["rank2"],
    ["lame"],
    ["lame", "--g-list", "1", "2", "--eps", "0.1", "0.05", "--x0", "0.91"],
    ["lame", "--g-list", "1", "--eps", "0.1", "0.0125", "--x0", "0.91",
     "--g2", "10", "--g3", "2"],
    ["lame", "--g-list", "1", "--eps", "0.1", "0.0125", "--x0", "1.27",
     "--g2", "4", "--g3", "0"],
    ["lame", "--g2", "3", "--g3", "-0.5", "--g-list", "1", "2", "3",
     "--eps", "0.1", "0.05", "--x0", "0.8"],
]

CONFIGS = CRITERION_1 + ODD_EXTENSION + NON_MONIC + CURVES + PARTNERS + MORE + OTHERS

# commands that read options from a --config file: each pairs its argv with
# the file's JSON object, written to config-<i>.json in the temporary directory
CONFIG_FILES = [
    (["verify", "--family", "poly", "--g", "2"],
     {"a2": "1", "a0": "0", "window": [-10, 10]}),
    (["lame"], {"g-list": [1, 2], "eps": ["0.1", "0.05"]}),
]


def main(argv=None) -> int:
    default_src = Path(__file__).resolve().parent.parent / "src"
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, default=default_src,
                    help="source tree holding the commdiff package (default: this checkout)")
    args = ap.parse_args(argv)

    env = dict(os.environ)
    env["PYTHONPATH"] = str(args.src.resolve())
    status = 0
    with tempfile.TemporaryDirectory(prefix="report-hashes-") as tmp:
        runs = [(argv_, None) for argv_ in CONFIGS] + CONFIG_FILES
        for i, (argv_, config) in enumerate(runs):
            if config is not None:
                name = f"config-{i}.json"
                (Path(tmp) / name).write_text(json.dumps(config))
                argv_ = [*argv_, "--config", name]
            cmd = [sys.executable, "-m", "commdiff.cli", *argv_, "--out", "reports"]
            proc = subprocess.run(cmd, cwd=tmp, env=env, capture_output=True, text=True)
            suffix = f" with {json.dumps(config)}" if config is not None else ""
            print(f"exit {proc.returncode}: {' '.join(argv_)}{suffix}")
            if proc.returncode == 2:
                status = 1
                print(proc.stderr.strip())
        for path in sorted((Path(tmp) / "reports").glob("*.json")):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.name}")
    return status


if __name__ == "__main__":
    sys.exit(main())
