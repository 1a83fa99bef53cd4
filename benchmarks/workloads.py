"""Seed -> pass inputs for the three benchmark workloads.

Stdlib only and free of commdiff imports, so the inputs of a run can be
generated, inspected and tested without the package.  Each pass of a run
draws its own parameters from ``random.Random`` seeded with the workload,
the run's seed and the pass index, so one run samples the parameter ranges
several times and the same seed always gives the same inputs.  Parameters
reach the program as decimal strings: as CLI arguments for the ``verify``
and ``odd-ext`` workloads, as tabulated library input for ``curve-lattice``.
"""

from __future__ import annotations

import math
import random

PRECISION_BITS = 113
VERIFY_WINDOW = (-24, 24)
# curve extraction reads the pair near n = -1..1 only
PAIR_WINDOW = (-10, 10)
LAME_EPS = ("0.1", "0.05")
LAME_X0_RANGE = (0.6, 0.95)
# Real half-period of the lemniscatic lattice g2 = 4, g3 = 0 that the Lame
# cases use: omega1 = Gamma(1/4)^2 / (4 sqrt(2 pi)).  Lattice points are
# the multiples 2 m omega1.
LEMNISCATIC_OMEGA1 = math.gamma(0.25) ** 2 / (4 * math.sqrt(2 * math.pi))
# lame_curve_independence samples zeta at x0 + k eps for k in about -8..12;
# the reach below covers that with room to spare.
LAME_SITE_REACH = (-12, 16)
# distance kept between any sampled site and a lattice point, far above the
# 1e-6 at which the code refuses an argument
LAME_LATTICE_MARGIN = 0.02

WORKLOADS = ("verify", "odd-ext", "curve-lattice")


def _draw(rng: random.Random, lo: float, hi: float) -> str:
    return f"{rng.uniform(lo, hi):.6f}"


def lame_sites_clear(x0: float, eps_list=LAME_EPS, margin=LAME_LATTICE_MARGIN) -> bool:
    """True when every site x0 + k eps stays `margin` away from the lattice."""
    lo, hi = LAME_SITE_REACH
    period = 2 * LEMNISCATIC_OMEGA1
    for eps in eps_list:
        e = float(eps)
        for k in range(lo, hi + 1):
            x = x0 + k * e
            if abs(x - period * round(x / period)) < margin:
                return False
    return True


def draw_lame_x0(rng: random.Random) -> str:
    while True:
        x0 = round(rng.uniform(*LAME_X0_RANGE), 6)
        if lame_sites_clear(x0):
            return f"{x0:.6f}"


def _cli(family: str, g: int, params: dict) -> dict:
    argv = ["verify", "--family", family, "--g", str(g)]
    for key, val in params.items():
        argv += [f"--{key}", str(val)]
    argv += [
        "--window", str(VERIFY_WINDOW[0]), str(VERIFY_WINDOW[1]),
        "--precision", str(PRECISION_BITS),
    ]
    return {"name": f"{family}-g{g}", "argv": argv}


# verify: the user-facing CLI campaign of criterion 1 (dense QR, poly_mul
# identity checks, DiffOp composition, geometric W-sign trial solves).
def verify_inputs(seed: int, pass_index: int = 0) -> list:
    rng = random.Random(f"verify:{seed}:{pass_index}")
    cases = []
    for g in (1, 2, 3, 4):
        cases.append(_cli("trig", g, {"r1": _draw(rng, 0.5, 2)}))
    for g in (1, 2, 3, 4):
        cases.append(_cli("poly", g, {"a2": _draw(rng, 0.5, 2), "a0": _draw(rng, -1, 1)}))
    for g in (1, 2, 3, 4):
        cases.append(_cli("geom", g, {"a": _draw(rng, 1.5, 3), "beta": _draw(rng, 0.5, 2)}))
    cases.append(_cli("elliptic", 1, {"seed": rng.randrange(2**31)}))
    return cases


# odd-ext: the tall least-squares systems (up to 248x65) that a QR kernel
# change or the level recursion in z must speed up.
def odd_ext_inputs(seed: int, pass_index: int = 0) -> list:
    rng = random.Random(f"odd-ext:{seed}:{pass_index}")
    cases = []
    for g in (1, 2, 3, 4, 5):
        params = {
            "a2": _draw(rng, 0.5, 2),
            "a1": _draw(rng, 0.25, 0.75),
            "a0": _draw(rng, -0.5, 0.5),
        }
        cases.append(_cli("poly", g, params))
    return cases


def pair_windows(g: int, window=PAIR_WINDOW):
    """(state window, U/W window, gamma window) for a pair of genus g, laid
    out as the CLI lays them out: the commutator stays valid on `window`."""
    lo, hi = window
    state = (lo - 2, hi + 2 * g + 3)
    uw = (state[0] - 2, state[1] + 2)
    return state, uw, (uw[0], uw[1] + 1)


# curve-lattice: the library path with no large solve (kernel recurrences,
# action matrices, the Weierstrass triple, damped Newton).
def curve_lattice_inputs(seed: int, pass_index: int = 0) -> dict:
    """Pair specs for extraction plus the rank-2 and Lame cases."""
    rng = random.Random(f"curve-lattice:{seed}:{pass_index}")
    pairs = []
    for g in (1, 2, 3):
        pairs.append({"kind": "trig", "g": g, "params": {"r1": _draw(rng, 0.5, 2)}})
    for g in (1, 2, 3):
        pairs.append({"kind": "poly", "g": g,
                      "params": {"a2": _draw(rng, 0.5, 2), "a0": _draw(rng, -1, 1)}})
    for g in (1, 2, 3):
        pairs.append({"kind": "geom", "g": g,
                      "params": {"a": _draw(rng, 1.5, 3), "beta": _draw(rng, 0.5, 2)}})
    # gamma_n = 2 + u_n on the elliptic pair's window, as the CLI draws it
    glo, ghi = pair_windows(1)[2]
    gamma = [f"{2 + rng.random():.12f}" for _ in range(ghi - glo + 1)]
    pairs.append({"kind": "elliptic", "g": 1,
                  "params": {"c2": "0", "c1": "-1", "c0": "0"}, "gamma": gamma})
    return {
        "pairs": pairs,
        "window": list(PAIR_WINDOW),
        "lame": {"g2": "4", "g3": "0", "x0": draw_lame_x0(rng),
                 "eps": list(LAME_EPS), "slope_genera": [1, 2, 3]},
    }


def make_inputs(workload: str, seed: int, pass_index: int = 0):
    if workload == "verify":
        return verify_inputs(seed, pass_index)
    if workload == "odd-ext":
        return odd_ext_inputs(seed, pass_index)
    if workload == "curve-lattice":
        return curve_lattice_inputs(seed, pass_index)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
