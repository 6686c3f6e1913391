"""Record the benchmark's baseline, perfbench/BENCH_0.json.

    python3 perfbench/baseline.py

Run from the root of a checkout.  Every run is ``perfbench/run.py`` with
the ``run_seconds`` of BENCHMARK.json, in this order:

1. spread set A: one plain run per seed 1..10 and workload;
2. RUNS plain and TRACED_RUNS traced runs of each of seeds 0 and 1, per
   workload;
3. spread set B: set A again.

Within a spread set the workloads alternate seed by seed, so that each
workload's runs span the whole set.  For each set and end-to-end metric
it prints the median and the quartile spread (q3 - q1) / median, and the
shift of set B's median from set A's, beside the metric's bound.  All of
it goes to BENCH_0.json, with the Python version, the commit whose src/
was measured and the run counts.
"""

from __future__ import annotations

import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
BOUNDS = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
SEEDS = (0, 1)
SPREAD_SEEDS = tuple(range(1, 11))
RUNS = 3
TRACED_RUNS = 2


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = [*BENCH["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    diag = json.loads(lines[-2])["diag"]
    diag["elapsed_s"] = elapsed
    if not result["correct"]:
        raise SystemExit(f"{' '.join(cmd)} reported incorrect output: {result}")
    return result, diag


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def summarise(runs: list[tuple[dict, dict]]) -> dict:
    names = runs[0][0]["metrics"]
    return {
        "metrics": {
            name: {"unit": runs[0][0]["metrics"][name]["unit"],
                   **summary([r["metrics"][name]["value"] for r, _ in runs])}
            for name in names
        },
        "digest": sorted({d["digest"] for _, d in runs}),
        "speed_probe_s": [d["speed_probe_s"] for _, d in runs],
    }


def spread_set(label: str) -> dict:
    runs = {w: [] for w in WORKLOADS}
    for seed in SPREAD_SEEDS:
        for workload in WORKLOADS:
            result, diag = run(workload, seed, 0)
            runs[workload].append((result, diag))
            print(f"set {label} {workload} seed {seed} ({diag['elapsed_s']:.0f} s): " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    out = {}
    for workload, rs in runs.items():
        out[workload] = summarise(rs)
        for s in out[workload]["metrics"].values():
            s["spread"] = (s["q3"] - s["q1"]) / s["median"]
    return out


def report(a: dict, b: dict) -> None:
    print(f"{'workload':9s} {'metric':13s} {'median A':>10s} {'spread A':>8s} {'median B':>10s}"
          f" {'spread B':>8s} {'shift':>7s} {'bound':>5s}")
    for workload in WORKLOADS:
        for name, sa in a[workload]["metrics"].items():
            sb = b[workload]["metrics"][name]
            sb["shift_from_a"] = sb["median"] / sa["median"] - 1
            worst = max(sa["spread"], sb["spread"], sb["shift_from_a"])
            flag = "ok" if worst < BOUNDS[name] / 3 else (
                "within bound" if worst <= BOUNDS[name] else "OUTSIDE BOUND")
            print(f"{workload:9s} {name:13s} {sa['median']:10.5g} {sa['spread']:8.4f}"
                  f" {sb['median']:10.5g} {sb['spread']:8.4f} {sb['shift_from_a']:+7.3f}"
                  f" {BOUNDS[name]:5.2f}  {flag}", flush=True)


def main() -> None:
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                            text=True).stdout.strip() or None
    set_a = spread_set("A")
    per_seed = {w: {} for w in WORKLOADS}
    for seed in SEEDS:
        for workload in WORKLOADS:
            plain, traced = [], []
            for i in range(RUNS):
                plain.append(run(workload, seed, 0))
                if i < TRACED_RUNS:
                    traced.append(run(workload, seed, 1))
            per_seed[workload][str(seed)] = {
                "end_to_end": summarise(plain),
                "per_layer": summarise(traced),
            }
            print(f"recorded {workload} seed {seed}", flush=True)
    set_b = spread_set("B")
    report(set_a, set_b)
    out = {
        "name": "BENCH_0",
        "python": platform.python_version(),
        "commit": commit,
        "run_seconds": BENCH["run_seconds"],
        "runs_per_seed": RUNS,
        "traced_runs_per_seed": TRACED_RUNS,
        "note": "median and quartiles (statistics.quantiles, n=4) over repeated runs of one seed; "
                "speed_probe_s is a diagnostic loop timed before and after each run; a spread "
                "set has one plain run per seed in spread_seeds, spread = (q3 - q1) / median, "
                "and set B, made after the per-seed runs, gives shift_from_a = its median / "
                "set A's median - 1",
        "spread_seeds": list(SPREAD_SEEDS),
        "spread_set_a": set_a,
        "spread_set_b": set_b,
        "workloads": per_seed,
    }
    (HERE / "BENCH_0.json").write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    sys.exit(main())
