"""Scenario runner: reproducible experiments driven by a JSON config.

One table, `_SCENARIOS`, names each scenario's runner and the
`section.key`s it reads (with `_INITIAL_KINDS` for each initial.kind).
The config is parsed once: every given key is typed against `_SCHEMA`,
then a key the scenario does not read and a missing key it needs are hard
errors, and the runner gets exactly what it reads.  Every run writes a
JSON manifest (even on failure).  Each output format has one writer: run
tables go through `grid.write_csv`, the manifest through `_write_json`,
snapshots through `grid.write_snapshot`.  Exit codes: 0 all enabled checks
passed, 1 a check failed, 2 usage or config error.  Each manifest check
certifies one fact by a value that can fail it (README, "Manifest
checks").  A run imports only the modules its scenario needs.

BLAS runs one thread unless the environment says otherwise.  The defaults
are set before numpy loads, so OpenBLAS sees them; threaded, it splits
the Morawetz pairings' `np.vdot`, which is slower on these sizes and
changes the sums' rounding with the thread count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np

from . import __version__
from .evolution import EvolutionConfig, _Observed
from .grid import (
    BOUNDARY_ANNULUS,
    BOUNDARY_MASS_WARN,
    Field,
    _mass_fraction,
    _snapshot_grid,
    boundary_mass_fraction,
    dealias_mask,
    make_grid,
    r2_mesh,
    read_snapshot,
    write_csv,
    write_snapshot,
)
from .observables import energy, kinetic

class ConfigError(ValueError):
    pass


# Every config key, per section: its default, or its type when it has none.
_SCHEMA = {
    "grid": {"d": int, "n": int, "L": float},
    "evolution": {"mu": int, "dt": float, "t_end": float, "stride": 1, "dealias": True},
    "initial": {"kind": str, "amplitude": 1.0, "width": 1.0, "center": list, "k0": list,
                "xi0": list, "t0": -1.0, "path": str},
    "weights": {"M": float, "R": float},
    "envelope": {"m": 1, "input": str},
    "output": {"dir": "mcnls-out", "emit_snapshots": False},
}
# The initial.<key>s each initial.kind reads ("?" as in `_SCENARIOS`).
_INITIAL_KINDS = {"gaussian": ("amplitude", "width", "center?", "k0?"), "soliton": (),
                  "boosted-soliton": ("xi0",), "pseudoconformal": ("t0",), "snapshot": ("path",)}
_KIND_NAMES = {int: "an integer", float: "a finite number", bool: "true or false",
               str: "a string", list: "a list of numbers"}
# Morawetz pairings work on the doubled grid (at a 2D peak, about ten (2n) x (n+1)
# complex half spectra), so a grid is capped well below memory.
MAX_GRID_POINTS = 2 ** 20
# The 2D weight table takes 160 radii per unit of [0, 2M], so its build time and
# memory grow linearly in M: about 1 s and 19 MiB at the cap.
MAX_WEIGHTS_M = 256


def _finite(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _typed(value, kind, name: str):
    """value read as kind: 512.0 is an integer, true is not a number, and a list
    becomes a float array (in 1D a bare number is one)."""
    ok = {int: _finite(value) and float(value).is_integer(), float: _finite(value),
          list: _finite(value) or isinstance(value, list) and all(map(_finite, value)),
          }.get(kind, isinstance(value, kind))
    if not ok:
        raise ConfigError(f"{name} must be {_KIND_NAMES[kind]}, got {value!r}")
    return np.atleast_1d(np.asarray(value, dtype=float)) if kind is list else kind(value)


def _reads(scenario: str, kind=None) -> dict:
    """{section.key: may it be omitted} for the keys `scenario` reads: output.dir,
    those `_SCENARIOS` names and, with initial.kind, that kind's (all kinds' if None)."""
    keys = ("output.dir", *_SCENARIOS[scenario][1])
    if "initial.kind" in keys:
        kinds = [kind] if kind else _INITIAL_KINDS
        keys += tuple(f"initial.{k}" for kd in kinds for k in _INITIAL_KINDS[kd])
    return {k.rstrip("?"): k.endswith("?") for k in keys}


def _parse(raw) -> dict:
    """The keys raw's scenario reads, typed, with the defaults filled in (None for
    an omitted key that may be omitted).  Types are checked before the scenario's
    reads, so a wrong kind of value is named as such wherever it stands."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    scenario = raw.get("scenario")
    for name in raw:
        if name != "scenario" and name not in _SCHEMA:
            raise ConfigError(f"unknown config key: {name!r}")
    if scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r}; choose one of {', '.join(SCENARIOS)}")
    given = {}
    for name, schema in _SCHEMA.items():
        sec = raw.get(name, {})
        if not isinstance(sec, dict):
            raise ConfigError(f"config section {name!r} must be an object, got {sec!r}")
        for key, value in sec.items():
            if key not in schema:
                raise ConfigError(f"unknown config key: {name}.{key}")
            spec = schema[key]
            given[f"{name}.{key}"] = _typed(value, spec if isinstance(spec, type) else type(spec),
                                            f"{name}.{key}")
    kind = given.get("initial.kind")
    if kind is not None and kind not in _INITIAL_KINDS:
        raise ConfigError(f"unknown initial kind {kind!r}; "
                          f"choose one of {', '.join(_INITIAL_KINDS)}")
    reads = _reads(scenario, kind)
    for name in raw:
        if name != "scenario" and not any(k.startswith(name + ".") for k in reads):
            raise ConfigError(f"the {scenario} scenario does not read a {name!r} section")
    for key in given:
        if key not in reads:
            raise ConfigError(f"the {scenario} scenario does not read {key}"
                              + (f" of initial.kind {kind!r}" if key.startswith("initial.") else ""))
    cfg = {"scenario": scenario}
    for key, optional in reads.items():
        name, k = key.split(".")
        spec = _SCHEMA[name][k]
        if key not in given and isinstance(spec, type) and not optional:
            raise ConfigError(f"the {scenario} scenario requires {key}")
        cfg.setdefault(name, {})[k] = given.get(key, None if isinstance(spec, type) else spec)
    for name in raw:
        if raw[name] == {}:
            raise ConfigError(f"config section {name!r} is empty")
    return cfg


def _read_input(read, path, name: str):
    """read(path) for the input file named by `name`.  A file that does not
    exist stays FileNotFoundError ('missing file:'); any other failure to
    open or read it (a directory, no permission) is a config error."""
    try:
        return read(path)
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise ConfigError(f"{name} {str(path)!r} cannot be read: {exc.strerror or exc}") from exc


def _load_json(path):
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
            raise ConfigError(f"{path} is not valid JSON: {exc}") from exc


def _valid(build, *args, **kwargs):
    """build(*args, **kwargs), reporting an invalid value (TypeError, ValueError) as ConfigError."""
    try:
        return build(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _grid_from(cfg: dict):
    grid = _valid(make_grid, **cfg["grid"])
    if grid.npoints > MAX_GRID_POINTS:
        raise ConfigError(f"grid.n = {grid.n} gives {grid.npoints} points in {grid.d}D, "
                          f"more than {MAX_GRID_POINTS}")
    return grid


def _evolution_from(cfg: dict) -> EvolutionConfig:
    econf = _valid(EvolutionConfig, **cfg["evolution"])
    # the run takes round(t_end/dt) steps: any other t_end would be changed silently
    steps = econf.t_end / econf.dt
    if abs(steps - round(steps)) > 1e-9 * max(steps, 1.0):
        raise ConfigError(f"evolution.t_end {econf.t_end!r} is not a whole number of "
                          f"steps of evolution.dt {econf.dt!r}")
    return econf


def _weights_from(cfg: dict) -> dict:
    """The weights section, checked before any weight table is built."""
    if cfg["weights"]["M"] > MAX_WEIGHTS_M:
        raise ConfigError(f"weights.M = {cfg['weights']['M']!r} is more than {MAX_WEIGHTS_M}")
    return cfg["weights"]


def _vector(v: np.ndarray, name: str, d: int) -> np.ndarray:
    if v.shape != (d,):
        raise ConfigError(f"initial.{name} must have {d} entries, got {v.tolist()!r}")
    return v


def _held(f: Field, what: str) -> Field:
    """f, unless more than BOUNDARY_MASS_WARN of its mass lies at the box boundary."""
    if boundary_mass_fraction(f) > BOUNDARY_MASS_WARN:
        raise ConfigError(f"{what} places too much mass at the box boundary")
    return f


def _initial_field(cfg: dict, grid) -> Field:
    return _held(_valid(_initial_from, cfg["initial"], grid), "initial data")


def _snapshot_on(grid, path) -> Field:
    """The snapshot at path; one on another grid is rejected from its header,
    before its payload is read."""
    with open(path, "rb") as fh:
        held = _snapshot_grid(fh)
    if held != grid:
        raise ConfigError(f"initial.path holds a snapshot on {held}, not on the "
                          f"config grid {grid}")
    return read_snapshot(path)


def _initial_from(init: dict, grid) -> Field:
    kind = init["kind"]
    if kind == "gaussian":
        # center and k0 default to the zero vector of the grid's dimension
        center, k0 = (_vector(np.zeros(grid.d) if init[k] is None else init[k], k, grid.d)
                      for k in ("center", "k0"))
        xm = grid.x_mesh()
        r2 = sum((x - c) ** 2 for x, c in zip(xm, center))
        phase = sum(x * k for x, k in zip(xm, k0))
        return Field(grid, init["amplitude"] * np.exp(-r2 / (2.0 * init["width"] ** 2))
                     * np.exp(1j * phase))
    if kind in ("soliton", "boosted-soliton"):
        from .ground_state import closed_form_1d
        from .symmetries import galilean_boost

        f = (closed_form_1d(grid) if grid.d == 1 else _ground_state(grid)).field
        if kind == "boosted-soliton":
            f = galilean_boost(f, _vector(init["xi0"], "xi0", grid.d), 0.0)
        return f
    if kind == "pseudoconformal":
        from .ground_state import closed_form_1d
        from .symmetries import pseudoconformal_sample

        if grid.d != 1:
            raise ConfigError("the pseudoconformal sample is exposed for d = 1")
        return pseudoconformal_sample(init["t0"], grid, closed_form_1d(grid))
    return _read_input(lambda path: _snapshot_on(grid, path), init["path"], "initial.path")


class Checks(dict):
    """name -> {passed, value, threshold}.  A check passes when value <= threshold
    (a NaN value fails)."""

    def add(self, name: str, value, threshold):
        value, threshold = float(value), float(threshold)
        self[name] = {"passed": value <= threshold, "value": value, "threshold": threshold}


def _observe(f0: Field, econf: EvolutionConfig, outdir: Path, each=lambda s: None) -> tuple:
    """(series, final field, detail) of one `_Observed` run of f0 that calls each(sample)
    per sample and writes diagnostics.csv.  detail adds t_final, dealias_loss (the initial
    spectral mass fraction outside the 2/3 box, None without dealiasing), mass_drift and
    energy_drift (README, "Manifest checks"; None unless the run completed)."""
    run, loss = _Observed(f0, econf), None
    for s in run:
        if s.step == 0 and econf.dealias:
            loss = _mass_fraction(s.sdens, dealias_mask(f0.grid) == 0)
        each(s)
        del s  # else it stays alive while the observer computes the next sample
    series = run.series
    series.to_csv(outdir / "diagnostics.csv")
    m0, e0 = series.mass[0], series.energy[0]
    scale = max(abs(e0), 0.5 * series.kinetic[0], 1e-300)
    return series, Field(f0.grid, run.last), {
        "outcome": series.outcome, "boundary_breach": series.boundary_breach,
        "samples": len(series.t), "t_final": series.t[-1], "dealias_loss": loss,
        "mass_drift": max(abs(m - m0) for m in series.mass) / max(m0, 1e-300),
        "energy_drift": max(abs(e - e0) for e in series.energy) / scale
        if series.outcome == "completed" else None}


def _scenario_simulate(cfg, outdir: Path, checks: Checks) -> dict:
    grid = _grid_from(cfg)
    econf = _evolution_from(cfg)
    f0 = _initial_field(cfg, grid)
    emit = cfg["output"]["emit_snapshots"]
    if emit:
        write_snapshot(f0, outdir / "initial.mcnls")
    _, final, detail = _observe(f0, econf, outdir)
    if emit:
        write_snapshot(final, outdir / "final.mcnls")
    # simulate gates its drifts: each moves from the detail to the checks
    checks.add("mass_drift", detail.pop("mass_drift"), 1e-10)
    edrift = detail.pop("energy_drift")
    if edrift is not None:
        # second-order splitting: budget 1e-6 at dt = 1e-4, scaled by dt^2
        checks.add("energy_drift", edrift, max(1e-6, 1e-6 * (econf.dt / 1e-4) ** 2))
    return detail


def _ground_state(grid):
    """Q on grid; a box that cannot hold Q is a config error naming grid.L."""
    from .ground_state import PetviashviliError, _start, solve_petviashvili

    what = f"the ground state on grid.L = {grid.L!r}"
    try:
        q = solve_petviashvili(grid)
    except PetviashviliError:
        # Q spreads wider than the iteration's start: a box that does not hold
        # the start cannot hold Q, and any other failure is the solver's
        _held(Field(grid, _start(grid)), what)
        raise
    _held(q.field, what)
    return q


def _scenario_ground_state(cfg, outdir: Path, checks: Checks) -> dict:
    from .ground_state import gn_ratio, pohozaev_check

    grid = _grid_from(cfg)
    q = _ground_state(grid)
    write_snapshot(q.field, outdir / "ground_state.mcnls")
    checks.add("ode_residual", q.residual / np.sqrt(q.mass_sq), 1e-8)
    r1, r2 = pohozaev_check(q)
    checks.add("pohozaev_energy", r1, 1e-6)
    checks.add("pohozaev_dilation", r2, 1e-6)
    # Q's GN ratio is 1 - E(Q)/(kinetic(Q)/2): this also certifies Q as the extremizer
    checks.add("zero_energy", abs(energy(q.field, -1)) / (0.5 * kinetic(q.field)), 1e-6)
    rng = np.random.default_rng(20240 + grid.d)
    worst = 0.0
    xm = grid.x_mesh()
    env = np.exp(-r2_mesh(grid) / (2.0 * (grid.L / 6.0) ** 2))
    for _ in range(20):
        vals = np.zeros(grid.shape, dtype=complex)
        for _k in range(4):
            k0 = rng.integers(-4, 5, size=grid.d) * grid.dk
            amp = rng.normal() + 1j * rng.normal()
            vals += amp * np.exp(1j * sum(x * kk for x, kk in zip(xm, k0)))
        worst = max(worst, gn_ratio(Field(grid, vals * env), q))
    checks.add("random_field_ratio", worst, 1.0 + 1e-6)
    return {"mass_sq": q.mass_sq, "gn_constant": q.gn_constant, "residual": q.residual,
            "gn_ratio": gn_ratio(q.field, q), "worst_random_ratio": worst}


def _scenario_morawetz(cfg, outdir: Path, checks: Checks) -> dict:
    from .morawetz import _flux_terms, build_weights

    grid = _grid_from(cfg)
    econf = _evolution_from(cfg)
    weights = _weights_from(cfg)
    f0 = _initial_field(cfg, grid)
    w = _valid(build_weights, grid.d, **weights)
    reps, ratios = [], []  # per sample: its MorawetzReport, |A| / (2 M R ||p||_1 ||rho||_1)
    wq = grid.h ** grid.d

    def pair(s):
        rep, p = _flux_terms(grid, s.u, s.spec, 1.0, 0.0, econf.mu, w, s.dens)
        reps.append(rep)
        p1 = sum(wq * np.sum(np.abs(pj)) for pj in p)
        bound = 2.0 * w.M * w.R * p1 * wq * np.sum(s.dens)
        if not np.isfinite(bound):
            raise ConfigError(f"weights.R = {w.R!r} makes the action kernel bound "
                              f"2 M R ||p||_1 ||rho||_1 read {float(bound)!r}")
        ratios.append(abs(rep.action) / bound if rep.action else 0.0)

    series, _, detail = _observe(f0, econf, outdir, pair)  # its drifts are reported, not gated
    cols = ("action", "flux", "coercive", "tail", "curvature", "envelope_drift")
    write_csv(outdir / "morawetz.csv", ("t", *cols),
              ([t, *(getattr(rep, c) for c in cols)] for t, rep in zip(series.t, reps)))
    checks.add("action_kernel_bound", np.max(ratios), 1.0 + 1e-9)  # a NaN ratio stays NaN
    if detail["outcome"] == "completed":
        detail["outcome"] = "ok"
    return detail


def _load_envelope(path: str):
    """The envelope named by envelope.input; a corrupt file is a config error."""
    from .envelope import read_envelope_csv, sawtooth_envelope

    if path == "bundled:sawtooth":
        return sawtooth_envelope(200)
    return _valid(_read_input, read_envelope_csv, path, "envelope.input")


def _scenario_smooth_envelope(cfg, outdir: Path, checks: Checks) -> dict:
    from .envelope import _CERTIFY_SLACK, _certify, smooth, write_envelope_csv

    env = cfg["envelope"]
    e = _load_envelope(env["input"])
    m = env["m"]
    if m < 1:  # the certificate needs a pass
        raise ConfigError(f"envelope.m must be at least 1, got {m}")
    em = smooth(e, m)
    write_envelope_csv(em, outdir / "envelope_smoothed.csv")
    variation_m, hsum0, cert_excess = _certify(e, em, m)
    checks.add("certify_bound", cert_excess, _CERTIFY_SLACK)
    excess = float(np.max(em.heights - e.heights))
    checks.add("pointwise_domination", excess, 1e-15)
    return {"variation_m": variation_m, "smallinterval_height_sum": hsum0, "passes": m}


def _scenario_weight_check(cfg, outdir: Path, checks: Checks) -> dict:
    from .morawetz import build_weights, weight_family_checks

    d = cfg["grid"]["d"]
    # the unit radius: no profile checked here depends on R
    w = _valid(build_weights, 1 if d is None else d, R=1.0, **_weights_from(cfg))
    for name, (value, bound, _) in weight_family_checks(w).items():
        checks.add(f"family_{name}", value, bound)
    return {"checks": len(checks)}


_GRID = ("grid.d", "grid.n", "grid.L")
_TRAJECTORY = (*_GRID, "evolution.mu", "evolution.dt", "evolution.t_end", "evolution.stride",
               "evolution.dealias", "initial.kind")
# Each scenario's runner and the section.keys it reads besides output.dir, which
# every run reads; with initial.kind it reads that kind's keys (`_INITIAL_KINDS`).
# A trailing "?" marks a key that may be omitted although `_SCHEMA` gives it no
# default; `_parse` then sets it to None.  Any other key is a config error.
_SCENARIOS = {
    "simulate": (_scenario_simulate, (*_TRAJECTORY, "output.emit_snapshots")),
    "ground-state": (_scenario_ground_state, _GRID),
    "morawetz": (_scenario_morawetz, (*_TRAJECTORY, "weights.M", "weights.R")),
    "smooth-envelope": (_scenario_smooth_envelope, ("envelope.m", "envelope.input")),
    "weight-check": (_scenario_weight_check, ("grid.d?", "weights.M")),
}
SCENARIOS = tuple(_SCENARIOS)


def run_scenario(config_path) -> int:
    t_start = time.monotonic()
    outdir = Path("mcnls-out")
    manifest = {"config_path": str(config_path), "outcome": None, "failure": None,
                "versions": {"mcnls": __version__, "numpy": np.__version__}}
    code = 2
    checks = Checks()
    try:
        raw = _read_input(_load_json, config_path, "config")
        manifest["config"] = raw
        # the manifest of a config that fails to parse still goes to a usable output.dir
        out_cfg = raw.get("output") if isinstance(raw, dict) else None
        if isinstance(out_cfg, dict) and isinstance(out_cfg.get("dir"), str):
            outdir = Path(out_cfg["dir"])
        cfg = _parse(raw)
        outdir.mkdir(parents=True, exist_ok=True)
        detail = _SCENARIOS[cfg["scenario"]][0](cfg, outdir, checks)
        manifest["detail"] = detail
        if detail.get("boundary_breach"):
            warn = np.format_float_scientific(BOUNDARY_MASS_WARN, trim="-", exp_digits=1)
            print(f"mcnls: warning: outermost {100 * BOUNDARY_ANNULUS:g}% annulus held more "
                  f"than {warn} of the mass during the run", file=sys.stderr)
        manifest["outcome"] = detail.get("outcome", "ok")
        failed = [k for k, v in checks.items() if not v["passed"]]
        code = 1 if failed else 0
        if failed:
            manifest["failure"] = f"checks failed: {', '.join(failed)}"
    except ConfigError as exc:
        manifest["failure"] = f"config error: {exc}"
    except FileNotFoundError as exc:
        manifest["failure"] = f"missing file: {exc}"
    except Exception as exc:  # noqa: BLE001 - manifest must record any failure
        manifest["failure"] = f"{type(exc).__name__}: {exc}"
        code = 1
    manifest["checks"] = checks
    manifest["wall_time_s"] = time.monotonic() - t_start
    manifest["peak_rss_mib"] = _peak_rss_mib()
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        _write_json(outdir / "manifest.json", manifest)
    except OSError:
        print("warning: could not write manifest", file=sys.stderr)
    if manifest["failure"]:
        print(f"mcnls: {manifest['failure']}", file=sys.stderr)
    return code


def _write_json(path, obj) -> None:
    """obj as JSON with sorted keys, one-space indent, LF endings and a final newline."""
    with open(path, "w", newline="\n") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _peak_rss_mib() -> float:
    """This process's peak resident set so far, in MiB (ru_maxrss: KiB on Linux, bytes on macOS)."""
    import resource

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2.0 ** (20 if sys.platform == "darwin" else 10)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mcnls",
        description="Scenario runner for the mass-critical NLS laboratory. Scenarios: "
                    + " | ".join(SCENARIOS) + ".",
    )
    parser.add_argument("--version", action="version", version=f"mcnls {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run a scenario from a JSON config file")
    runp.add_argument("config", help="path to the JSON config")
    return run_scenario(parser.parse_args(argv).config)


if __name__ == "__main__":
    sys.exit(main())
