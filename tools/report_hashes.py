"""Print the sha256 of every CLI report for a fixed list of configurations.

Two checkouts that print the same lines write byte-identical reports and
partner-operator files for every configuration below, including the ones
that read their options from a --config file, and give other spellings of
one run the same report name.  Each command runs in
a fresh interpreter on the given source tree, in a temporary directory, with
a relative output directory, so that no absolute path reaches a report.

    python3 tools/report_hashes.py [--src PATH/TO/src]

tools/report_hashes.txt holds this checkout's listing, and CI fails when the
tool's output differs from it; a change that alters a report regenerates it
with `python3 tools/report_hashes.py > tools/report_hashes.txt`, and
tools/report_diff.py, which runs the same listing (run_listing) on two
trees, lists what changed.  Stdlib only.
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

# g = 4 and 5 march the most levels: their pin fits are 27x11 and 31x13, their
# fits of the 3g recursion constants 29x12 and 35x15
ODD_EXTENSION = [
    ["verify", "--family", "poly", "--g", str(g), "--a2", "1", "--a0", "0", "--a1", "0.5"]
    for g in (1, 2, 3, 4, 5)
]

# a geometric pair whose partner lead misses 1 by more than is_monic allows:
# the pin fit's roundoff at 113 bits (the pair passes at 226 bits), so its
# reports change when the pin becomes a closed form; verify and partner both
# fail it
NON_MONIC = [
    ["verify", "--family", "geom", "--g", "2", "--a", "1.764235", "--beta", "0.895178"],
    ["partner", "--family", "geom", "--g", "2", "--a", "1.764235", "--beta", "0.895178"],
]

# parameters that do not round exactly at the working precision, so that a
# changed rounding order shows on the quadratic, trigonometric and geometric
# paths too
NON_DYADIC = [
    ["verify", "--family", "poly", "--g", "5", "--a2", "0.886695", "--a1", "0.708451",
     "--a0", "0.234504"],
    ["verify", "--family", "trig", "--g", "4", "--r1", "1.3"],
    ["verify", "--family", "geom", "--g", "1", "--a", "2.272327", "--beta", "1.614327"],
]

# above 1000 bits: tables whose mantissas are longer than a double can hold,
# through both fits (each pivots on exact norms) and the recursion
HIGH_PRECISION = [
    ["verify", "--family", "poly", "--g", "3", "--a2", "1", "--a0", "0", "--a1", "0.5",
     "--precision", "1100"],
    ["verify", "--family", "trig", "--g", "3", "--r1", "1.3", "--precision", "1100"],
]

CURVES = (
    [["curve", "--family", "trig", "--g", str(g), "--r1", "1"] for g in (1, 2)]
    + [["curve", "--family", "poly", "--g", str(g), "--a2", "1", "--a0", "0"] for g in (1, 2)]
    + [["curve", "--family", "geom", "--g", str(g), "--a", "2", "--beta", "1"] for g in (1, 2)]
    + [["curve", "--family", "elliptic", "--g", "1"]]
)

# the last three are the widest partners, whose nested sums compose by L2
# the most times and at the longest mantissas: a non-dyadic odd quintic and
# a geometric partner at 1100 bits, and a non-dyadic trig partner of genus 4
PARTNERS = [
    ["partner", "--family", "geom", "--g", "1", "--a", "2", "--beta", "1"],
    ["partner", "--family", "elliptic", "--g", "1"],
    ["partner", "--family", "poly", "--g", "5", "--a2", "0.886695", "--a1", "0.708451",
     "--a0", "0.234504", "--precision", "1100"],
    ["partner", "--family", "trig", "--g", "4", "--r1", "1.3"],
    ["partner", "--family", "geom", "--g", "3", "--a", "2", "--beta", "1", "--precision", "1100"],
]

# genus 3 curve extraction (geometric, and quadratic with a linear term), a
# trig partner, and an order-11 partner, whose operator file's term keys
# "10" and "11" sort as text between "1" and "2"
MORE = [
    ["curve", "--family", "trig", "--g", "3", "--r1", "1"],
    ["curve", "--family", "geom", "--g", "3", "--a", "2", "--beta", "1"],
    ["curve", "--family", "poly", "--g", "3", "--a2", "1", "--a0", "0", "--a1", "0.5"],
    ["partner", "--family", "trig", "--g", "2", "--r1", "1"],
    ["partner", "--family", "poly", "--g", "5", "--a2", "1", "--a0", "0", "--a1", "0.5"],
]

# the lame configs vary x0, the invariants (g3 < 0 in the last) and the step
# down to eps = 0.0125; x0 = 3.9 lies past the first period (2 omega1 = 2.62
# for g2 = 4, g3 = 0), so its lattice sites reduce their argument k x past pi
OTHERS = [
    ["rank2"],
    ["lame"],
    ["lame", "--x0", "3.9"],
    ["lame", "--g-list", "1", "2", "--eps", "0.1", "0.05", "--x0", "0.91"],
    ["lame", "--g-list", "1", "--eps", "0.1", "0.0125", "--x0", "0.91",
     "--g2", "10", "--g3", "2"],
    ["lame", "--g-list", "1", "--eps", "0.1", "0.0125", "--x0", "1.27",
     "--g2", "4", "--g3", "0"],
    ["lame", "--g2", "3", "--g3", "-0.5", "--g-list", "1", "2", "3",
     "--eps", "0.1", "0.05", "--x0", "0.8"],
]

# the curve-extraction and Weierstrass paths at a non-dyadic parameter, at
# 1100 bits and at 160 bits; the non-dyadic geometric pair at g = 2 is left
# out, because its verify exits 2.  The last two pack the widest ints of the
# action matrices: the longest kernels (g = 3) and the 4 x 4 rank-two action,
# at 1100 bits
EXTRACTION = [
    ["curve", "--family", "trig", "--g", "2", "--r1", "1.3"],
    ["curve", "--family", "poly", "--g", "2", "--a2", "0.886695", "--a1", "0.708451",
     "--a0", "0.234504"],
    ["curve", "--family", "trig", "--g", "2", "--r1", "1.3", "--precision", "1100"],
    ["lame", "--precision", "160", "--g-list", "1", "2", "--eps", "0.1", "0.05",
     "--x0", "0.91"],
    ["rank2", "--precision", "160"],
    ["curve", "--family", "geom", "--g", "3", "--a", "2", "--beta", "1", "--precision", "1100"],
    ["rank2", "--precision", "1100"],
]

# below the default precision, where a changed rounding order shows in almost
# every printed digit (curve extraction, the Lame lattice and rank2 too, so
# that no module constant made at import moves a 53-bit verdict), one at
# 160 bits, between the default and 1100, and the first again at 177 bits:
# its exact identity residuals measure the state, so the listing pins them
# at two precisions
LOW_PRECISION = [
    ["verify", "--family", "trig", "--g", "2", "--r1", "1.3", "--precision", "53"],
    ["verify", "--family", "trig", "--g", "2", "--r1", "1.3", "--precision", "177"],
    ["verify", "--family", "poly", "--g", "3", "--a2", "0.886695", "--a1", "0.708451",
     "--a0", "0.234504", "--precision", "53"],
    ["verify", "--family", "elliptic", "--g", "1", "--precision", "53"],
    ["verify", "--family", "poly", "--g", "3", "--a2", "0.886695", "--a1", "0.708451",
     "--a0", "0.234504", "--precision", "160"],
    ["partner", "--family", "poly", "--g", "2", "--a2", "1", "--a0", "0.3", "--precision", "53"],
    ["curve", "--family", "trig", "--g", "2", "--r1", "1.3", "--precision", "53"],
    ["lame", "--precision", "53"],
    ["rank2", "--precision", "53"],
]

# the largest constant fits at the default precision, whose affine marches
# carry the most columns: 18 constants at g = 6 and a non-dyadic g = 5
WIDE_FITS = [
    ["verify", "--family", "poly", "--g", "6", "--a2", "1", "--a0", "0", "--a1", "0.5"],
    ["verify", "--family", "trig", "--g", "5", "--r1", "1.3"],
]

# non-dyadic partners of genus 3, whose operator files carry L2^1..L2^3 and
# the products of every q_{n,k} and s_{n,k} with them, at 113 and 160 bits
GENUS3_PARTNERS = [
    ["partner", "--family", "trig", "--g", "3", "--r1", "1.3"],
    ["partner", "--family", "poly", "--g", "3", "--a2", "0.886695", "--a1", "0.708451",
     "--a0", "0.234504"],
    ["partner", "--family", "trig", "--g", "3", "--r1", "1.3", "--precision", "160"],
]

# state windows that hold no n = 0 ([3, 17] for trig g = 2 on [5, 10],
# [18, 29] for geom g = 1 on [20, 24]): each takes the curve of the solved
# table's sites -2..3, where a growing geom S_n has not swamped the master
# identity
OFF_CENTRE = [
    ["verify", "--family", "trig", "--g", "2", "--r1", "1.3", "--window", "5", "10"],
    ["verify", "--family", "geom", "--g", "1", "--a", "2", "--beta", "1",
     "--window", "20", "24"],
    ["verify", "--family", "geom", "--g", "1", "--a", "2", "--beta", "1",
     "--window", "20", "24", "--precision", "53"],
]

# the widest exact level recursions: eight levels of ints below z^8, on
# the trigonometric family and the quadratic one with a linear term
HIGH_GENUS = [
    ["verify", "--family", "trig", "--g", "8", "--r1", "1.3"],
    ["verify", "--family", "poly", "--g", "8", "--a2", "1", "--a0", "0", "--a1", "0.5"],
]

CONFIGS = CRITERION_1+ ODD_EXTENSION + NON_MONIC + NON_DYADIC + CURVES + PARTNERS + MORE + OTHERS

# commands that read options from a --config file: each pairs its argv with
# the file's JSON object, written to config-<i>.json in the temporary
# directory, i its index in this list
CONFIG_FILES = [
    (["verify", "--family", "poly", "--g", "2"],
     {"a2": "1", "a0": "0", "window": [-10, 10]}),
    (["lame"], {"g-list": [1, 2], "eps": ["0.1", "0.05"]}),
]

# other spellings of runs listed above: a report is named by the parsed
# values of its options, so each finds the report of its run in place and
# adds an exit line and no file line; a config entry's file is
# config-<i>.json, i counting on from CONFIG_FILES
ALIASES = [
    (["verify", "--family", "trig", "--g", "1", "--r1", "1", "--tolerance", "1.0e-9"], None),
    (["verify", "--family", "trig", "--g", "1", "--r1", "1"], {"tolerance": 1e-9}),
    (["lame", "--eps", "0.10", "0.050", "--x0", "0.730"], None),
    (["verify", "--family", "elliptic", "--g", "1", "--seed", "1234"], None),
    (["verify", "--family", "elliptic", "--g", "1"], {"seed": 1234}),
]


def run_listing(src: Path, tmp: Path) -> list:
    """Run every configuration above on the commdiff package under src, in
    the directory tmp, writing to its relative output directory reports.

    Returns one (label, exit code, stdout, stderr) per run, in listing
    order; the label is the argv, with the JSON of its --config file when
    it has one."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(src).resolve())
    runs = ([(argv_, None) for argv_ in CONFIGS] + CONFIG_FILES
            + [(argv_, None)
               for argv_ in (HIGH_PRECISION + EXTRACTION + LOW_PRECISION + WIDE_FITS
                             + GENUS3_PARTNERS + OFF_CENTRE + HIGH_GENUS)]
            + ALIASES)
    results, files = [], 0
    for argv_, config in runs:
        if config is not None:
            name = f"config-{files}.json"
            files += 1
            (Path(tmp) / name).write_text(json.dumps(config))
            argv_ = [*argv_, "--config", name]
        cmd = [sys.executable, "-m", "commdiff.cli", *argv_, "--out", "reports"]
        proc = subprocess.run(cmd, cwd=tmp, env=env, capture_output=True, text=True)
        suffix = f" with {json.dumps(config)}" if config is not None else ""
        results.append((f"{' '.join(argv_)}{suffix}", proc.returncode, proc.stdout, proc.stderr))
    return results


def main(argv=None) -> int:
    default_src = Path(__file__).resolve().parent.parent / "src"
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, default=default_src,
                    help="source tree holding the commdiff package (default: this checkout)")
    args = ap.parse_args(argv)

    status = 0
    with tempfile.TemporaryDirectory(prefix="report-hashes-") as tmp:
        for label, code, _out, err in run_listing(args.src, Path(tmp)):
            print(f"exit {code}: {label}")
            if code == 2:
                status = 1
                print(err.strip())
        for path in sorted((Path(tmp) / "reports").glob("*.json")):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.name}")
    return status


if __name__ == "__main__":
    sys.exit(main())
