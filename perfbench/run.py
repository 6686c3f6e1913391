"""taucycles benchmark: one command per workload, seed and mode.

    python3 perfbench/run.py --workload ring --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Every pass runs in a fresh single-threaded child process, so caches start
cold.  Passes repeat until ``--seconds`` have elapsed; ``setup_s`` is the
upper quartile of its samples and so are the other times over the passes
(see ``upper_quartile``).  For ``cli`` a pass is a round of cold processes;
its aggregates are medians and its task latencies CPU times (see
``measure_cli``).  With ``--trace 0`` the last line of stdout is a
JSON object carrying the end-to-end metrics; with ``--trace 1`` it carries
the per-layer metrics of a traced pass instead.  Lines before it are a
readable table and one ``diag`` JSON line (machine-speed probe, output
digest, sample counts), which no metric is derived from.  The exit code
is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("ring", "counting", "cli")
RUN_DEADLINE_S = 170  # a run must end within 180 s, hung children included
MIN_SETUPS = 5
MIN_REPS = {"ring": 3, "counting": 3}
MIN_CLI_ROUNDS = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "rerun_wall_s": "s",
    "task_p50_ms": "ms",
    "task_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONIOENCODING"] = "utf-8"
    return env


STARTED = time.monotonic()


def run_process(cmd: list[str], stdin: str = "") -> subprocess.CompletedProcess:
    """Run one child in its own session; past the deadline kill the whole group and reap it."""
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(
            stdin.encode(), timeout=max(1.0, STARTED + RUN_DEADLINE_S - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return subprocess.CompletedProcess(cmd, proc.returncode, stdout.decode(), stderr.decode())


def run_script(cmd: list[str], stdin: str = "") -> dict:
    proc = run_process(cmd, stdin)
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[1:]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_child(*args: object, stdin: str = "") -> dict:
    return run_script([sys.executable, str(HERE / "child.py"), *map(str, args)], stdin)


def process_wall(code: str) -> tuple[float, str]:
    """Wall time of one ``python -c CODE`` process from spawn to exit, and its stdout."""
    t0 = time.monotonic()
    proc = run_process([sys.executable, "-c", code])
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"probe {code!r} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return wall, proc.stdout


def import_probe() -> tuple[float, float]:
    """Spawn-to-exit wall of a cold ``import taucycles.cli`` and the import alone."""
    wall, out = process_wall(
        "import time; t = time.perf_counter(); import taucycles.cli; "
        "print(time.perf_counter() - t)"
    )
    return wall, float(out)


def speed_probe() -> float:
    """A fixed pure-Python loop that does not touch taucycles; a diagnostic only."""
    t = time.perf_counter()
    acc = 0
    for i in range(1_500_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t


def upper_quartile(samples) -> float:
    """Upper quartile of a run's samples (``statistics.quantiles``, inclusive).

    On a shared host the CPU speed switches between two levels some 50%
    apart every few to twenty seconds, and the slow level holds most of
    the time.  A mean or a median over one run's passes moves with the
    share of fast passes in it, which differs from run to run; the upper
    quartile lands on the slow level whenever a quarter of the passes do,
    which is nearly every run.
    """
    ordered = list(samples)
    if len(ordered) == 1:
        return ordered[0]
    return statistics.quantiles(ordered, n=4, method="inclusive")[2]


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Tally:
    """Task executions attempted and failed, over every pass of every child.

    The first child's per-task output digests are the reference; a later
    child whose output differs fails those tasks.  A task that raised,
    failed its check or differs from the reference fails in every pass
    its child ran; a rerun whose output differs from the cold pass fails
    once more.
    """

    def __init__(self):
        self.reference: list[str] | None = None
        self.attempted = 0
        self.failed = 0
        self.checked = False

    def add(self, result: dict, passes: int) -> None:
        digests = result["digests"]
        if self.reference is None:
            self.reference = digests
        self.attempted += passes * len(digests)
        if len(digests) != len(self.reference):
            bad = set(range(len(digests)))
        else:
            bad = set(result["errors"]) | set(result.get("check_failed", []))
            bad |= {i for i, (d, ref) in enumerate(zip(digests, self.reference)) if d != ref}
        self.failed += passes * len(bad) + len(set(result.get("rerun_mismatch", [])) - bad)
        self.checked |= "check_failed" in result

    @property
    def correct(self) -> bool:
        return self.checked and not self.failed

    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.reference or []).encode()).hexdigest()


def metric_values(metrics: dict) -> dict:
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}


def measure_cli(seed: int, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """Rounds of cold invocations from the lean spawner, each followed by a child with warm passes.

    A cold invocation takes some 0.17 s of CPU time.  On a shared host its
    wall time also carries stalls that are not the program's: in busy
    spells the slowest decile of one round's wall times ran at 1.7 to 2.3
    times their CPU time, while the CPU times' slowest decile stayed within
    some 10%.  So the per-invocation latencies behind ``task_p50_ms`` and
    ``task_p90_ms`` are CPU times, each the median over the rounds;
    ``wall_s`` and ``setup_s`` stay wall times, medians over the rounds
    and the import probes.  The import probes and the warm in-process
    passes run beside every round, so that their samples span the run;
    the child after the first round also checks that round's output.
    """
    start = time.monotonic()
    argvs = json.dumps(run_child("argv", seed)["argv"])
    setups, rounds, reruns = [], [], []
    while len(rounds) < MIN_CLI_ROUNDS or time.monotonic() - start < seconds:
        setups += [import_probe()[0] for _ in range(MIN_SETUPS)]
        rounds.append(run_script([sys.executable, "-S", str(HERE / "spawn.py")], argvs))
        result = run_child("cli", seed, int(len(rounds) == 1), stdin=json.dumps(rounds[-1]))
        tally.add(result, passes=2)
        reruns += result["rerun_s"]
    task_ms = [statistics.median(t) * 1e3 for t in zip(*(r["task_cpu_s"] for r in rounds))]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "rerun_wall_s": upper_quartile(reruns),
        "task_p50_ms": percentile(task_ms, 0.5),
        "task_p90_ms": percentile(task_ms, 0.9),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }
    diag = {
        "passes": len(rounds),
        "setups": len(setups),
        "tasks_per_pass": len(task_ms),
        "wall_s_per_pass": [r["wall_s"] for r in rounds],
        "rerun_s": reruns,
        "task_wall_p50_p90_ms": [
            [percentile(r["task_s"], q) * 1e3 for q in (0.5, 0.9)] for r in rounds],
        "setup_s_samples": setups,
        "floor_rss_mb": max(r["floor_rss_mb"] for r in rounds),
        "failed_frac": tally.failed / tally.attempted,
    }
    return metric_values(metrics), diag


def measure(workload: str, seed: int, seconds: float, tally: Tally) -> tuple[dict, dict]:
    if workload == "cli":
        return measure_cli(seed, seconds, tally)
    start = time.monotonic()
    setups, reps = [], []
    while len(reps) < MIN_REPS[workload] or time.monotonic() - start < seconds:
        result = run_child("work", workload, seed, time.monotonic(), int(not reps), 0)
        setups.append(result["setup_s"])
        tally.add(result, passes=2)
        reps.append(result)
    while len(setups) < MIN_SETUPS:
        setups.append(run_child("setup", workload, seed, time.monotonic())["setup_s"])
    metrics = {
        "setup_s": upper_quartile(setups),
        "wall_s": upper_quartile(r["wall_s"] for r in reps),
        "rerun_wall_s": upper_quartile(r["rerun_wall_s"] for r in reps),
        "task_p50_ms": upper_quartile(percentile(r["task_s"], 0.5) * 1e3 for r in reps),
        "task_p90_ms": upper_quartile(percentile(r["task_s"], 0.9) * 1e3 for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    diag = {
        "passes": len(reps),
        "setups": len(setups),
        "tasks_per_pass": len(reps[0]["task_s"]),
        "wall_s_per_pass": [r["wall_s"] for r in reps],
        "setup_s_samples": setups,
        "failed_frac": tally.failed / tally.attempted,
    }
    return metric_values(metrics), diag


def measure_traced(workload: str, seed: int, seconds: float, tally: Tally) -> tuple[dict, dict]:
    from tracing import PER_LAYER

    start = time.monotonic()
    OUT.mkdir(exist_ok=True)
    plain, traced = [], []
    stem = OUT / f"{workload}-seed{seed}"
    while not traced or time.monotonic() - start < seconds:
        check = int(not plain)
        if workload == "cli":
            plain.append(run_child("inproc", seed, check, 0))
            tally.add(plain[-1], passes=1)
            traced.append(run_child("inproc", seed, 0, 1, stem))
        else:
            plain.append(run_child("work", workload, seed, time.monotonic(), check, 0))
            tally.add(plain[-1], passes=2)
            traced.append(run_child("work", workload, seed, time.monotonic(), 0, 1, stem))
        tally.add(traced[-1], passes=1)
    values = {}
    for name in traced[0]["per_layer"]:
        samples = [t["per_layer"][name] for t in traced]
        values[name] = samples[0] if PER_LAYER[name][0] != "s" else statistics.median(samples)
    probes = [import_probe() for _ in range(MIN_SETUPS)]
    values["cli.interpreter_s"] = statistics.median(
        process_wall("pass")[0] for _ in range(MIN_SETUPS))
    values["cli.import_s"] = statistics.median(p[1] for p in probes)
    values["trace.overhead_s"] = statistics.median(t["wall_s"] for t in traced) - statistics.median(
        p["wall_s"] for p in plain)
    counts_repeat = all(
        t["per_layer"][n] == traced[0]["per_layer"][n]
        for t in traced for n in t["per_layer"] if PER_LAYER[n][0] != "s"
    )
    metrics = {
        name: {"value": values[name], "unit": PER_LAYER[name][0]}
        for name in PER_LAYER if name in values
    }
    diag = {
        "traced_passes": len(traced),
        "absent": traced[0]["absent"],
        "counts_repeat": counts_repeat,
        "untraced_wall_s": statistics.median(p["wall_s"] for p in plain),
        "failed_frac": tally.failed / tally.attempted,
    }
    return metrics, diag


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "taucycles" / "__init__.py").is_file():
        print(f"error: no taucycles sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2

    probe_before = speed_probe()
    tally = Tally()
    run = measure_traced if args.trace else measure
    metrics, diag = run(args.workload, args.seed, args.seconds, tally)
    diag.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        python=platform.python_version(),
        digest=tally.digest(),
        speed_probe_s=[probe_before, speed_probe()],
    )
    for name, m in metrics.items():
        print(f"{name:42s} {m['value']:>14.6g} {m['unit']}")
    print(f"{'failed_frac':42s} {diag['failed_frac']:>14.6g} share")
    print(json.dumps({"diag": diag}))
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if tally.correct else 1


if __name__ == "__main__":
    sys.exit(main())
