"""Run cold ``python -m taucycles`` invocations one at a time; print one JSON line.

    python3 -S perfbench/spawn.py < argv-lists.json

Reads a JSON list of argument lists on stdin and runs each as a fresh
``python -m taucycles`` process, from spawn to exit.  On Linux a process
inherits, at exec, the peak RSS of the process that started it as the
floor of its own ``ru_maxrss``.  This spawner therefore imports neither
the package nor the rest of the benchmark, and runs without ``site``, so
that floor stays below the peak of any invocation and ``peak_rss_mb`` is
the invocations' memory, not the harness's.  ``floor_rss_mb`` is the
``ru_maxrss`` of a bare ``python -S -c pass`` started the same way first,
which shows the floor.  ``task_s`` is each invocation's wall time from
spawn to exit, ``task_cpu_s`` its user plus system CPU time.
"""

import json
import os
import resource
import subprocess
import sys
import time

INVOCATION_TIMEOUT_S = 60


def children_maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024  # Linux reports KiB


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def main() -> dict:
    argvs = json.load(sys.stdin)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)
    floor = children_maxrss_mb()
    outcomes, latencies, cpu = [], [], []
    start = time.perf_counter()
    for argv in argvs:
        t, c = time.perf_counter(), children_cpu_s()
        proc = subprocess.run(
            [sys.executable, "-m", "taucycles", *argv],
            capture_output=True, cwd=root, timeout=INVOCATION_TIMEOUT_S,
        )
        latencies.append(time.perf_counter() - t)
        cpu.append(children_cpu_s() - c)  # one child at a time, so the delta is its own
        outcomes.append([proc.returncode, proc.stdout.decode(), proc.stderr.decode()])
    wall_s = time.perf_counter() - start
    return {
        "wall_s": wall_s,
        "task_s": latencies,
        "task_cpu_s": cpu,
        "peak_rss_mb": children_maxrss_mb(),
        "floor_rss_mb": floor,
        "outcomes": outcomes,
    }


if __name__ == "__main__":
    print(json.dumps(main()))
