"""One fresh, single-threaded benchmark process; prints one JSON line.

Usage (run.py starts these; the checkout's ``src`` must be on PYTHONPATH):

    child.py work <ring|counting> SEED T0 CHECK TRACE [SPANS_STEM]
    child.py setup <ring|counting> SEED T0
    child.py argv SEED
    child.py cli SEED CHECK < spawn.py output
    child.py inproc SEED CHECK TRACE [SPANS_STEM]

``T0`` is the CLOCK_MONOTONIC reading taken by the parent just before it
started this process, so ``setup_s`` covers interpreter start-up, the
package import and input generation.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import resource
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import workloads

WARM_PASSES = 5  # per round of cold processes; in-process passes are short


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _maxrss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


def _timed_pass(tasks, tracer=None) -> tuple[float, list[float], list]:
    results, latencies = [], []
    start = time.perf_counter()
    for i, task in enumerate(tasks):
        if tracer is not None:
            tracer.task = i
            frame = tracer.enter("task")
        t = time.perf_counter()
        try:
            results.append(task.run())
        except Exception as exc:  # a raised task counts as failed, the run goes on
            results.append(exc)
        latencies.append(time.perf_counter() - t)
        if tracer is not None:
            tracer.exit(frame, False)
    return time.perf_counter() - start, latencies, results


def _text(task, result) -> str:
    if isinstance(result, Exception):
        return f"error: {type(result).__name__}: {result}"
    return task.text(result)


def _check(task, result) -> bool:
    if isinstance(result, Exception):
        return False
    try:
        return bool(task.check(result))
    except Exception:  # a reference that cannot be met is a failed check
        return False


def work(workload: str, seed: int, t0: float, check: bool, trace: bool, spans_stem: str) -> dict:
    tasks = workloads.tasks_for(workload, seed)
    setup_s = time.monotonic() - t0
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.start()
    wall_s, latencies, results = _timed_pass(tasks, tracer)
    out = {"setup_s": setup_s, "wall_s": wall_s, "task_s": latencies}
    if tracer is not None:
        tracer.stop()
        out["per_layer"], out["absent"] = tracer.metrics()
        if spans_stem:
            tracer.write_spans(spans_stem)
    else:
        out["rerun_wall_s"], _, rerun = _timed_pass(tasks)
    out["peak_rss_mb"] = _maxrss_mb(resource.RUSAGE_SELF)
    texts = [_text(task, r) for task, r in zip(tasks, results)]
    out["digests"] = [_sha(t) for t in texts]
    out["errors"] = [i for i, r in enumerate(results) if isinstance(r, Exception)]
    if tracer is None:
        out["rerun_mismatch"] = [
            i for i, (task, r, t) in enumerate(zip(tasks, rerun, texts)) if _text(task, r) != t
        ]
    if check:
        out["check_failed"] = [i for i, (task, r) in enumerate(zip(tasks, results)) if not _check(task, r)]
    return out


def setup(workload: str, seed: int, t0: float) -> dict:
    workloads.tasks_for(workload, seed)
    return {"setup_s": time.monotonic() - t0}


def _run_in_process(argv) -> tuple[int, str, str]:
    from taucycles import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse exits on bad arguments
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


def _outcome(code: int, stdout: str, stderr: str) -> str:
    return _sha(f"{code}\n{stdout}\n{stderr}")


def _checked(invocations, outcomes) -> list[int]:
    failed = []
    for i, (inv, (code, stdout, stderr)) in enumerate(zip(invocations, outcomes)):
        try:
            ok = code == 0 and not stderr and inv.check(stdout)
        except Exception:  # unparsable output is a failed check
            ok = False
        if not ok:
            failed.append(i)
    return failed


def argv_lists(seed: int) -> dict:
    """The CLI invocations' argument lists, for ``spawn.py``."""
    return {"argv": [list(inv.argv) for inv in workloads.cli_invocations(seed)]}


def cli(seed: int, check: bool, cold: dict) -> dict:
    """Warm in-process passes and checks over one round of cold processes that ``spawn.py`` timed."""
    invocations = workloads.cli_invocations(seed)
    outcomes = [tuple(o) for o in cold["outcomes"]]
    for inv in invocations:  # warm every cache this process can hold
        _run_in_process(inv.argv)
    reruns = []
    for _ in range(WARM_PASSES):
        start = time.perf_counter()
        warm = [_run_in_process(inv.argv) for inv in invocations]
        reruns.append(time.perf_counter() - start)
    digests = [_outcome(*o) for o in outcomes]
    out = {
        "rerun_s": reruns,
        "digests": digests,
        "errors": [i for i, o in enumerate(outcomes) if o[0] != 0],
        "rerun_mismatch": [i for i, (o, d) in enumerate(zip(warm, digests)) if _outcome(*o) != d],
    }
    if check:
        out["check_failed"] = _checked(invocations, outcomes)
    return out


def inproc(seed: int, check: bool, trace: bool, spans_stem: str) -> dict:
    """One in-process pass over the CLI invocations, caches cold, optionally traced."""
    invocations = workloads.cli_invocations(seed)
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.start()
    outcomes = []
    start = time.perf_counter()
    for i, inv in enumerate(invocations):
        if tracer is not None:
            tracer.task = i
        outcomes.append(_run_in_process(inv.argv))
    out = {"wall_s": time.perf_counter() - start}
    if tracer is not None:
        tracer.stop()
        out["per_layer"], out["absent"] = tracer.metrics()
        if spans_stem:
            tracer.write_spans(spans_stem)
    out["digests"] = [_outcome(*o) for o in outcomes]
    out["errors"] = [i for i, o in enumerate(outcomes) if o[0] != 0]
    if check:
        out["check_failed"] = _checked(invocations, outcomes)
    return out


def main(argv: list[str]) -> dict:
    mode, rest = argv[0], argv[1:]
    if mode == "work":
        workload, seed, t0, check, trace = rest[:5]
        stem = rest[5] if len(rest) > 5 else ""
        return work(workload, int(seed), float(t0), check == "1", trace == "1", stem)
    if mode == "setup":
        return setup(rest[0], int(rest[1]), float(rest[2]))
    if mode == "argv":
        return argv_lists(int(rest[0]))
    if mode == "cli":
        return cli(int(rest[0]), rest[1] == "1", json.load(sys.stdin))
    if mode == "inproc":
        stem = rest[3] if len(rest) > 3 else ""
        return inproc(int(rest[0]), rest[1] == "1", rest[2] == "1", stem)
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        raise SystemExit("child.py expects PYTHONHASHSEED=0 so that traced counts repeat")
    print(json.dumps(main(sys.argv[1:])))
