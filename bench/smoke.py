#!/usr/bin/env python3
"""Smoke check of the benchmark itself: short runs at a fixed seed.

    python3 bench/smoke.py

From the repository root.  For every workload in BENCHMARK.json it runs
`bench/run.py` with tracing off and on for one second (each run still
completes its warm-up and one measured round), and checks that
- the same seed gives the same config and another seed a different one;
- the run exits 0 and its last line is the result object, correct, with
  exactly the metrics and units BENCHMARK.json declares;
- from a directory holding only BENCHMARK.json and the benchmark, the
  run exits non-zero without printing a result.
Takes a few minutes; exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7


def fail(msg: str) -> None:
    print(f"smoke: FAIL {msg}")
    sys.exit(1)


def bench(cwd: Path, workload: str, trace: int):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import make_config

    for wl in spec["workloads"]:
        name = wl["name"]
        if make_config(name, SEED, "x") != make_config(name, SEED, "x"):
            fail(f"{name}: seed {SEED} gives two different configs")
        if make_config(name, SEED, "x") == make_config(name, SEED + 1, "x"):
            fail(f"{name}: seeds {SEED} and {SEED + 1} give the same config")
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            out = bench(ROOT, name, trace)
            if out.returncode != 0:
                fail(f"{name} trace {trace}: exit {out.returncode}\n{out.stderr}")
            res = json.loads(out.stdout.strip().splitlines()[-1])
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{name} trace {trace}: result keys {sorted(res)}")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                fail(f"{name} trace {trace}: {res}\n{out.stderr}")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            want = {m["name"]: m["unit"] for m in declared}
            if got != want:
                fail(f"{name} trace {trace}: metrics {got}, declared {want}")
            print(f"smoke: ok {name} trace {trace} ({res['attempted']} runs)")

    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    out = bench(bare, spec["workloads"][0]["name"], 0)
    shutil.rmtree(bare)
    if out.returncode == 0 or out.stdout.strip():
        fail(f"without the package source: exit {out.returncode}, stdout {out.stdout!r}")
    print("smoke: ok bare directory fails without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
