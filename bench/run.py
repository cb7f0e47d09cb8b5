#!/usr/bin/env python3
"""Benchmark of `mcnls run` on seeded workloads.

    python3 bench/run.py --workload soliton-1d --seed 1 --seconds 40 --trace 0

Run from the repository root.  The program is used from source (`src/`).
With `--trace 0` the benchmark drives `mcnls run` as a user would, in a
closed loop with one client: each run is a fresh interpreter, and the next
starts only when the previous one has exited.  One warm-up run of the
zero-length (t_end = 0) variant is discarded; then each round runs the
full config and the zero-length variant, in alternating order, until
`--seconds` is used up.
With `--trace 1` the per-layer numbers come from spans in this process
(see traced.py).  Every run's output is verified (see verify.py).

Human-readable lines go first; the last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`.
Artifacts and a full report go to `.bench_work/` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from verify import check_run
from workloads import WORKLOADS, make_config, setup_variant

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 150
MIB = 1024.0  # ru_maxrss is in KiB on Linux


class ChildTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ChildTimeout


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in THREAD_VARS:
        env.setdefault(var, "1")
    return env


def spawn_run(cfg: dict, cfg_path: Path, env: dict) -> dict:
    """One `mcnls run` process: wall time from spawn to exit, its own peak RSS."""
    outdir = Path(cfg["output"]["dir"])
    shutil.rmtree(outdir, ignore_errors=True)
    with open(outdir.with_suffix(".log"), "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "mcnls.cli", "run", str(cfg_path)],
                                stdout=log, stderr=subprocess.STDOUT, env=env, cwd=WORK)
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except ChildTimeout:
            proc.kill()
            proc.wait()
            return {"problems": [f"no exit within {CHILD_TIMEOUT_S} s"]}
        finally:
            signal.alarm(0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    problems = check_run(cfg, outdir, proc.returncode)
    rec = {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / MIB, "problems": problems}
    if not problems:
        rec["run_s"] = json.loads((outdir / "manifest.json").read_text())["wall_time_s"]
    return rec


def measure_e2e(cfg: dict, cfg_path: Path, zero: dict, zero_path: Path, env: dict,
                seconds: float):
    t0 = time.perf_counter()
    # the zero-length run imports and compiles everything the full one does
    warmup = spawn_run(zero, zero_path, env)
    runs = {"full": [], "setup": []}
    rnd = 0
    while True:
        t_round = time.perf_counter()
        for kind in (("full", "setup") if rnd % 2 == 0 else ("setup", "full")):
            c, p = (cfg, cfg_path) if kind == "full" else (zero, zero_path)
            runs[kind].append(spawn_run(c, p, env))
        rnd += 1
        now = time.perf_counter()
        if now - t0 + (now - t_round) > seconds:
            break
    every = [warmup, *runs["full"], *runs["setup"]]
    problems = [p for r in every for p in r["problems"]]
    failed = sum(1 for r in every if r["problems"])
    ok_full = [r for r in runs["full"] if not r["problems"]]
    ok_setup = [r for r in runs["setup"] if not r["problems"]]
    samples = {
        "wall_s": [r["wall_s"] for r in ok_full],
        "run_s": [r["run_s"] for r in ok_full],
        "setup_s": [r["wall_s"] for r in ok_setup],
        "peak_rss_mb": [r["peak_rss_mb"] for r in ok_full],
    }
    return samples, len(every), failed, problems


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def environment(env: dict) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "threads": {v: env.get(v) for v in THREAD_VARS},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)

    if not (SRC / "mcnls" / "__init__.py").is_file():
        print(f"bench: no package source at {SRC / 'mcnls'}; run from a full checkout",
              file=sys.stderr)
        return 2

    runs_dir = WORK / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    cfg = make_config(args.workload, args.seed, str(runs_dir / "full"))
    zero = setup_variant(cfg, str(runs_dir / "setup"))
    cfg_path, zero_path = runs_dir / "full.json", runs_dir / "setup.json"
    cfg_path.write_text(json.dumps(cfg, indent=1) + "\n")
    zero_path.write_text(json.dumps(zero, indent=1) + "\n")
    env = child_env()
    signal.signal(signal.SIGALRM, _on_alarm)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    print(f"workload {args.workload} seed {args.seed}: {json.dumps(cfg['initial'])}")
    report = {"workload": args.workload, "seed": args.seed, "config": cfg,
              "environment": environment(env)}
    if args.trace:
        sys.path.insert(0, str(SRC))
        import mcnls

        if Path(mcnls.__file__).resolve().parent != (SRC / "mcnls").resolve():
            print(f"bench: imported mcnls from {mcnls.__file__}, not {SRC}", file=sys.stderr)
            return 2
        from traced import measure_layers

        values, attempted, failed, problems, trace = measure_layers(
            cfg, cfg_path, env, args.seconds, WORK / f"spans-{args.workload}.json")
        report["trace"] = trace
        values = values or {}
        for name, unit in units.items():
            if name in values:
                print(f"  {name:26s} {values[name]:14.6g}  {unit}")
        if values:
            print(f"  spans from: {json.dumps(trace['sources'])}; run_s samples untraced "
                  f"{len(trace['run_s_untraced'])}, traced {len(trace['run_s_traced'])}")
    else:
        samples, attempted, failed, problems = measure_e2e(
            cfg, cfg_path, zero, zero_path, env, args.seconds)
        report["samples"] = samples
        values = {}
        print(f"  {'metric':12s} {'median':>12s} {'q1':>12s} {'q3':>12s}  n  unit")
        for name, unit in units.items():
            if not samples.get(name):
                continue
            q1, med, q3 = quartiles(samples[name])
            values[name] = med
            print(f"  {name:12s} {med:12.6g} {q1:12.6g} {q3:12.6g} {len(samples[name]):2d}  {unit}")
    print(f"  failed_frac {failed / attempted:.4g} ({failed} of {attempted} runs)")
    for p in problems:
        print(f"bench: {p}", file=sys.stderr)
    print(f"environment: {json.dumps(report['environment'])}")
    (WORK / f"report-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n")
    correct = failed == 0 and all(k in values for k in units)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items() if k in values},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
