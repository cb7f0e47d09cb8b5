"""Seeded workload configs for `mcnls run`.

Each workload is a function of a seed that returns the JSON config the
program receives; the same seed always gives the same config.  The
sizes are fixed per workload, the seed only draws the physical
parameters (boost, amplitude, width, centre, drift).  Every draw keeps
the mass well inside the box, so no run trips the boundary warning.
"""

from __future__ import annotations

import copy
import math
import random

L = 16.0
DK = math.pi / L  # frequency lattice spacing of the box [-L, L)
WEIGHTS = {"M": 8, "R": 4}  # the morawetz-2d weight family, also used by layer probes


def soliton_1d(rng: random.Random) -> dict:
    # |xi0| <= 4 dk moves the soliton by at most 1.6 over t = 1.
    xi0 = rng.randint(-4, 4) * DK
    return {
        "scenario": "simulate",
        "grid": {"d": 1, "n": 512, "L": L},
        "evolution": {"mu": -1, "dt": 1e-4, "t_end": 1.0, "stride": 100},
        "initial": {"kind": "boosted-soliton", "xi0": [xi0]},
        "output": {"emit_snapshots": True},
    }


def gaussian_2d(rng: random.Random) -> dict:
    # centre + drift + spread stay below 7 out of a half-width of 16.
    return {
        "scenario": "simulate",
        "grid": {"d": 2, "n": 256, "L": L},
        "evolution": {"mu": 1, "dt": 1e-3, "t_end": 0.5, "stride": 10},
        "initial": {
            "kind": "gaussian",
            "amplitude": rng.uniform(0.8, 1.5),
            "width": rng.uniform(1.0, 1.5),
            "center": [rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)],
            "k0": [rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)],
        },
        "output": {"emit_snapshots": True},
    }


def morawetz_2d(rng: random.Random) -> dict:
    xi0 = [rng.randint(-3, 3) * DK, rng.randint(-3, 3) * DK]
    return {
        "scenario": "morawetz",
        "grid": {"d": 2, "n": 128, "L": L},
        "evolution": {"mu": -1, "dt": 1e-3, "t_end": 0.1, "stride": 10},
        "weights": dict(WEIGHTS),
        "initial": {"kind": "boosted-soliton", "xi0": xi0},
        "output": {},
    }


WORKLOADS = {
    "soliton-1d": soliton_1d,
    "gaussian-2d": gaussian_2d,
    "morawetz-2d": morawetz_2d,
}


def make_config(workload: str, seed: int, outdir: str) -> dict:
    cfg = WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
    cfg["output"]["dir"] = outdir
    return cfg


def setup_variant(cfg: dict, outdir: str) -> dict:
    """The same run with t_end = 0: start, import, initial data, one sample."""
    zero = copy.deepcopy(cfg)
    zero["evolution"]["t_end"] = 0.0
    zero["output"]["dir"] = outdir
    return zero


def initial_field(cfg: dict):
    """The run's initial field, built from the package's public functions."""
    import numpy as np

    import mcnls

    g = cfg["grid"]
    grid = mcnls.make_grid(g["d"], g["n"], g["L"])
    init = cfg["initial"]
    if init["kind"] == "gaussian":
        xm = grid.x_mesh()
        r2 = sum((x - c) ** 2 for x, c in zip(xm, init["center"]))
        phase = sum(x * k for x, k in zip(xm, init["k0"]))
        vals = init["amplitude"] * np.exp(-r2 / (2.0 * init["width"] ** 2) + 1j * phase)
        return mcnls.Field(grid, vals)
    q = mcnls.closed_form_1d(grid) if grid.d == 1 else mcnls.solve_petviashvili(grid)
    return mcnls.galilean_boost(q.field, np.asarray(init["xi0"]), 0.0)
