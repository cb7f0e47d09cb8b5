"""The traced run: per-layer numbers from spans, in the benchmark's own process.

`mcnls.cli.run_scenario` runs on the workload's config, alternately with
the tracer installed and without it, so `trace.overhead_frac` compares
like with like.  Before every call the package's process-level caches are
emptied, because each `mcnls run` process starts with them empty.

Two kinds of span source, named in the report:
- scenario: spans recorded while the scenario ran;
- probe: for an entry point the scenario never calls, the benchmark calls
  it on the workload's own grid and initial field, so every per-layer
  time is a measurement.
`evolve` is always probed, twice per round in alternating order: at the
workload's stride and at stride = nsteps.  Their paired difference splits
its time into a per-step and a per-sample cost.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import END, NOTE, START, Tracer, total_s
from verify import check_run
from workloads import WEIGHTS, initial_field

EVOLVE = "mcnls.evolution.evolve"
STEP_STRANG = "mcnls.evolution.step_strang"
BUILD_WEIGHTS = "mcnls.morawetz.build_weights"
FLUX = "mcnls.morawetz.interaction_flux"
IMPORT_REPEATS = 3
STEP_STRANG_PROBE_CALLS = 50
IMPORT_SNIPPET = ("import time; t = time.perf_counter(); import mcnls.cli; "
                  "print(repr(time.perf_counter() - t))")


def clear_package_caches() -> None:
    """Empty memo tables in mcnls modules: `lru_cache`s and module-level *CACHE* dicts."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "mcnls" or name.startswith("mcnls.")):
            continue
        for attr, val in vars(mod).items():
            if callable(getattr(val, "cache_clear", None)):
                val.cache_clear()
            elif isinstance(val, dict) and "CACHE" in attr.upper():
                val.clear()


def _durations(spans) -> list:
    return [s[END] - s[START] for s in spans]


def summarize(tr: Tracer) -> dict:
    """Per-layer totals of one traced call tree (one scenario or one probe)."""
    fft = tr.outer("grid")
    obs = tr.outer("observables")
    return {
        "grid.transforms": len(fft),
        "grid.fft_s": total_s(fft),
        "grid.bytes_computed": sum(s[NOTE] for s in fft),
        "observables.calls": len(obs),
        "observables.s": total_s(obs),
        "evolve": [(s[END] - s[START], *s[NOTE]) for s in tr.outer("evolution", EVOLVE)],
        "step_strang": _durations(tr.outer("evolution", STEP_STRANG)),
        "ground_state": _durations(tr.outer("ground_state")),
        "ground_state.transforms": len(tr.within("grid", "ground_state")),
        "weights": _durations(tr.outer("morawetz", BUILD_WEIGHTS)),
        "flux": _durations(tr.outer("morawetz", FLUX)),
        "conv": _durations(tr.outer("morawetz.conv")),
    }


def _import_s(env: dict) -> float:
    out = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


class LayerRun:
    def __init__(self, cfg: dict, cfg_path: Path):
        import mcnls
        import mcnls.cli

        self.mcnls = mcnls
        self.cli = mcnls.cli
        self.cfg = cfg
        self.cfg_path = cfg_path
        self.tracer = Tracer()
        self.attempted = 0
        self.failed = 0
        self.problems = []
        ev = cfg["evolution"]
        self.econf = mcnls.EvolutionConfig(mu=ev["mu"], dt=ev["dt"], t_end=ev["t_end"],
                                           stride=ev["stride"])
        self.nsteps = int(round(ev["t_end"] / ev["dt"]))
        self.f0 = None
        self.last_spans = []

    def scenario(self, traced: bool):
        """One in-process run_scenario; returns (run_s, summary), None for a failed run."""
        outdir = Path(self.cfg["output"]["dir"])
        shutil.rmtree(outdir, ignore_errors=True)
        clear_package_caches()
        self.tracer.reset()
        if traced:
            with self.tracer:
                code = self.cli.run_scenario(str(self.cfg_path))
        else:
            code = self.cli.run_scenario(str(self.cfg_path))
        self.attempted += 1
        problems = check_run(self.cfg, outdir, code)
        self.failed += bool(problems)
        self.problems += [f"{'traced' if traced else 'untraced'} run: {p}" for p in problems]
        if problems:
            return None, None
        run_s = json.loads((outdir / "manifest.json").read_text())["wall_time_s"]
        if not traced:
            return run_s, None
        self.last_spans = self.tracer.spans
        return run_s, summarize(self.tracer)

    def probe(self, key: str) -> dict:
        """Traced call of one entry point on the workload's grid and initial field."""
        m, ev = self.mcnls, self.cfg["evolution"]
        if self.f0 is None:
            self.f0 = initial_field(self.cfg)
        f0 = self.f0
        calls = {
            "evolve": lambda: m.evolve(f0, self.econf),
            "evolve_sparse": lambda: m.evolve(
                f0, dataclasses.replace(self.econf, stride=max(1, self.nsteps))),
            "step_strang": lambda: [m.step_strang(f0, ev["dt"], ev["mu"], dealias=True)
                                    for _ in range(STEP_STRANG_PROBE_CALLS)],
            "ground_state": lambda: m.solve_petviashvili(f0.grid),
            "weights": lambda: m.build_weights(f0.grid.d, WEIGHTS["M"], WEIGHTS["R"]),
            "flux": lambda: m.interaction_flux(
                f0, 1.0, 0.0, ev["mu"], m.build_weights(f0.grid.d, WEIGHTS["M"], WEIGHTS["R"])),
        }
        clear_package_caches()
        self.tracer.reset()
        with self.tracer:
            calls[key]()
        return summarize(self.tracer)


def measure_layers(cfg: dict, cfg_path: Path, env: dict, seconds: float, spans_path: Path):
    """Return (metrics or None, attempted, failed, problems, report) of the traced run.

    The spans of the last traced scenario are written to `spans_path`, one
    [layer, name, parent, start, end, active_layers, note] list per call.
    """
    t0 = time.perf_counter()
    import_s = [_import_s(env) for _ in range(IMPORT_REPEATS)]
    run = LayerRun(cfg, cfg_path)
    run.scenario(traced=False)  # warm-up: lazy imports and first-call costs
    run_s, first = run.scenario(traced=True)
    if first is None:
        return None, run.attempted, run.failed, run.problems, {}
    reps, plain, traced = [first], [], [run_s]
    sources = {k: "scenario" if first[k] else "probe"
               for k in ("step_strang", "ground_state", "weights", "flux")}
    probes = {k: run.probe(k) for k, src in sources.items() if src == "probe"}
    evolve_pairs = []
    rnd = 0
    while True:
        t_round = time.perf_counter()
        for is_traced in ((False, True) if rnd % 2 == 0 else (True, False)):
            run_s, summary = run.scenario(traced=is_traced)
            if run_s is not None:
                (traced if is_traced else plain).append(run_s)
            if summary is not None:
                reps.append(summary)
        pair = ("evolve", "evolve_sparse") if rnd % 2 == 0 else ("evolve_sparse", "evolve")
        calls = {k: run.probe(k)["evolve"][0] for k in pair}
        evolve_pairs.append((calls["evolve"], calls["evolve_sparse"]))
        rnd += 1
        now = time.perf_counter()
        if now - t0 + (now - t_round) > seconds:
            break
    if not plain:
        return None, run.attempted, run.failed, run.problems, {}
    spans_path.write_text(json.dumps(run.last_spans) + "\n")
    metrics = derive(reps, sources, probes, evolve_pairs, import_s, plain, traced)
    report = {"sources": sources, "import_s": import_s, "evolve_pairs": evolve_pairs,
              "run_s_untraced": plain, "run_s_traced": traced}
    return metrics, run.attempted, run.failed, run.problems, report


def derive(reps, sources, probes, evolve_pairs, import_s, plain, traced) -> dict:
    med = statistics.median

    def per_run(key, layer=None):
        """This layer's per-run values: one per traced scenario, or the one probe."""
        layer = layer or key
        return [r[key] for r in reps] if sources[layer] == "scenario" else [probes[layer][key]]

    # evolve pairs: (seconds, samples, steps) at the workload's stride and at stride nsteps
    _, samples, steps = evolve_pairs[0][0]
    extra = samples - evolve_pairs[0][1][1]
    sample_s = [(d[0] - s[0]) / extra if extra else 0.0 for d, s in evolve_pairs]
    step_s = [(s[0] - s[1] * q) / max(1, steps) for (_, s), q in zip(evolve_pairs, sample_s)]
    return {
        "cli.import_s": med(import_s),
        "grid.transforms": med(r["grid.transforms"] for r in reps),
        "grid.fft_s": med(r["grid.fft_s"] for r in reps),
        "grid.bytes_computed": med(r["grid.bytes_computed"] for r in reps),
        "evolution.evolve_s": med(d[0] for d, _ in evolve_pairs),
        "evolution.steps": steps,
        "evolution.samples": samples,
        "evolution.step_us": 1e6 * med(step_s),
        "evolution.sample_us": 1e6 * med(sample_s),
        "evolution.step_strang_us": 1e6 * med(d for c in per_run("step_strang") for d in c),
        "observables.calls": med(r["observables.calls"] for r in reps),
        "observables.s": med(r["observables.s"] for r in reps),
        "ground_state.solve_s": med(sum(c) for c in per_run("ground_state")),
        "ground_state.transforms": med(per_run("ground_state.transforms", "ground_state")),
        "morawetz.weights_s": med(sum(c) for c in per_run("weights")),
        "morawetz.flux_calls": med(len(c) for c in per_run("flux")),
        "morawetz.flux_ms": 1e3 * med(d for c in per_run("flux") for d in c),
        "morawetz.conv_calls": med(len(c) for c in per_run("conv", "flux")),
        "morawetz.conv_s": med(sum(c) for c in per_run("conv", "flux")),
        "trace.overhead_frac": (med(traced) - med(plain)) / med(plain),
    }
