"""Checks on the artifacts of one `mcnls run`, independent of the package.

A run passes when it exited 0, its manifest reports every check passed
and the scenario's success outcome, its CSV holds the expected samples up
to t_end, and the physics recomputed from the CSV holds at the program's
own tolerances.  Drifts are pass/fail only: they move at roundoff level
under legitimate reordering of floating-point work.
"""

from __future__ import annotations

import csv
import json
import struct
from pathlib import Path

import numpy as np

MASS_DRIFT_TOL = 1e-10  # the simulate scenario's mass_drift threshold
DECOMPOSITION_TOL = 1e-8  # the morawetz scenario's decomposition_consistent threshold
SNAPSHOT_MASS_TOL = 1e-12
SUCCESS_OUTCOME = {"simulate": "completed", "morawetz": "ok"}


def energy_tol(dt: float) -> float:
    """The simulate scenario's energy_drift budget: 1e-6 at dt = 1e-4, scaled by dt^2."""
    return max(1e-6, 1e-6 * (dt / 1e-4) ** 2)


def sample_steps(cfg: dict) -> tuple:
    ev = cfg["evolution"]
    nsteps = int(round(ev["t_end"] / ev["dt"]))
    stride = ev["stride"]
    steps = [0] + [s for s in range(1, nsteps + 1) if s % stride == 0 or s == nsteps]
    return nsteps, len(steps)


def _read_csv(path: Path) -> dict:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise ValueError(f"{path.name} has no rows")
    return {k: np.array([float(r[k]) for r in rows]) for k in rows[0] if k != "flags"}


def snapshot_mass(path: Path, grid: dict) -> float:
    """Mass of an MCNLS1 snapshot, after checking its header against the grid."""
    raw = path.read_bytes()
    magic, version, d, n, half = struct.unpack("<6sBBId", raw[:20])
    if (magic, version, d, n, half) != (b"MCNLS1", 1, grid["d"], grid["n"], grid["L"]):
        raise ValueError(f"{path.name}: header {magic!r} v{version} d={d} n={n} L={half}")
    vals = np.frombuffer(raw, dtype="<f8", offset=20)
    if vals.size != 2 * n ** d:
        raise ValueError(f"{path.name}: {vals.size // 2} samples, expected {n ** d}")
    h = 2.0 * half / n
    return float(h ** d * np.sum(vals * vals))


def check_run(cfg: dict, outdir: Path, exit_code: int) -> list:
    """Return the list of problems found; empty means the run is correct."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        return _check_artifacts(cfg, outdir)
    except (OSError, ValueError, KeyError, struct.error) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def _check_artifacts(cfg: dict, outdir: Path) -> list:
    problems = []
    manifest = json.loads((outdir / "manifest.json").read_text())
    checks = manifest["checks"]
    failed = sorted(k for k, v in checks.items() if not v["passed"])
    if not checks or failed or manifest["failure"]:
        problems.append(f"manifest checks failed: {failed or manifest['failure']}")
    scenario = cfg["scenario"]
    if manifest["outcome"] != SUCCESS_OUTCOME[scenario]:
        problems.append(f"outcome {manifest['outcome']!r}")

    ev = cfg["evolution"]
    nsteps, nsamples = sample_steps(cfg)
    table = _read_csv(outdir / ("diagnostics.csv" if scenario == "simulate" else "morawetz.csv"))
    t = table["t"]
    if t.size != nsamples:
        problems.append(f"{t.size} samples, expected {nsamples}")
    if abs(t[-1] - ev["t_end"]) > 1e-9 * max(1.0, ev["t_end"]):
        problems.append(f"final t {t[-1]!r}, expected {ev['t_end']!r}")

    if scenario == "simulate":
        mass, en, kin = table["mass"], table["energy"], table["kinetic"]
        drift = float(np.max(np.abs(mass - mass[0])) / mass[0])
        if not drift <= MASS_DRIFT_TOL:
            problems.append(f"mass drift {drift:.3e} > {MASS_DRIFT_TOL:.0e}")
        scale = max(abs(en[0]), 0.5 * kin[0], 1e-300)
        edrift = float(np.max(np.abs(en - en[0])) / scale)
        if not edrift <= energy_tol(ev["dt"]):
            problems.append(f"energy drift {edrift:.3e} > {energy_tol(ev['dt']):.0e}")
        if cfg["output"].get("emit_snapshots"):
            m_snap = snapshot_mass(outdir / "final.mcnls", cfg["grid"])
            if not abs(m_snap - mass[-1]) <= SNAPSHOT_MASS_TOL * mass[-1]:
                problems.append(f"final snapshot mass {m_snap!r} != CSV mass {mass[-1]!r}")
    else:
        parts = table["coercive"] + table["tail"] + table["curvature"] + table["envelope_drift"]
        flux = table["flux"]
        err = np.abs(parts - flux) / np.maximum(np.abs(flux), 1e-12)
        if not np.all(err <= DECOMPOSITION_TOL):
            problems.append(f"flux decomposition off by {float(np.max(err)):.3e} (relative)")
    return problems
