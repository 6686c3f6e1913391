"""Per-layer tracing, installed from outside the package.

The tracer wraps module functions, class methods and the names that other
modules bring in with ``from .x import y`` (every module attribute that is
the same object is replaced).  Three kinds of wrapper exist:

* ``span``: a timed call with a parent, kept in memory and written out at
  the end; self time is the span's duration minus its child spans;
* ``count``: a call counter, for methods too hot to time (``__hash__``,
  ``__init__``);
* ``gen``: counts the items a generator yields to callers outside the
  generator itself, so recursive enumerators are counted once per item.

A target that no longer exists is recorded as missing, and every metric
that depends on it is reported absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

# (kind, target, span or counter name); targets are module[.Class].attribute
TARGETS = [
    ("span", "combinat.count_m", "combinat.count_m"),
    ("gen", "combinat.partitions", "combinat.partitions"),
    ("gen", "combinat.set_partitions", "combinat.set_partitions"),
    ("count", "combinat.MultVec.__init__", "combinat.MultVec.init"),
    ("count", "divisors.Divisor.__init__", "divisors.Divisor.init"),
    ("span", "cycle_algebra.CycleSum.__mul__", "cycle_algebra.CycleSum.mul"),
    ("count", "cycle_algebra.CycleSum.__init__", "cycle_algebra.CycleSum.init"),
    ("count", "cycle_algebra.TauBasis.__hash__", "cycle_algebra.TauBasis.hash"),
    ("count", "cycle_algebra.structure_constants", "cycle_algebra.structure_constants"),
    ("span", "series.CycleSeries.__mul__", "series.CycleSeries.mul"),
    ("span", "series.CycleSeries.inverse", "series.CycleSeries.inverse"),
    ("route", "sheaves.s_tame", "sheaves.s_tame"),
    ("route", "sheaves.s_skyscraper", "sheaves.s_skyscraper"),
    ("route", "sheaves._constant_rank_verified", "sheaves.constant_rank"),
    ("route", "sheaves._tame_closed", "sheaves.closed_route"),
    ("route", "sheaves._skyscraper_closed", "sheaves.closed_route"),
    ("route", "sheaves._constant_rank_closed", "sheaves.closed_route"),
    ("route", "sheaves._assert_match", "sheaves.assert_match"),
    ("span", "sheaves.pushforward_partition", "sheaves.pushforward_partition"),
    ("span", "sheaves.pushforward_composition", "sheaves.pushforward_composition"),
    ("span", "index._infer_degrees_cached", "index.infer_degrees"),
    ("span", "index.index_matrix", "index.index_matrix"),
    ("sweep", "index.compositions", "index.verify_sweep"),
    ("span", "geometry.singularity_certificate", "geometry.singularity_certificate"),
    ("site", "geometry.partitions", "geometry.certificate_enum"),
    ("span", "cli.main", "cli.main"),
    ("span", "cli._emit", "cli.render"),
    ("span", "cycle_algebra.TauBasis.render", "cli.render"),
    ("span", "cycle_algebra.TauBasis.latex", "cli.render"),
    ("span", "cycle_algebra.CycleSum.render", "cli.render"),
    ("span", "cycle_algebra.CycleSum.latex", "cli.render"),
    ("span", "series.CycleSeries.render", "cli.render"),
    ("span", "series.CycleSeries.latex", "cli.render"),
]

CACHES = {
    "combinat.count_cache": "combinat._count_binary_matrices",
    "cycle_algebra.sc_cache": "cycle_algebra._structure_constants_items",
    "sheaves.constant_rank_cache": "sheaves._constant_rank_verified",
    "index.infer_cache": "index._infer_degrees_cached",
}

PRODUCT_ROUTE = ("sheaves.s_tame", "sheaves.s_skyscraper", "sheaves.constant_rank")

# metric -> (unit, better, targets it needs); the trace.* and cli probe
# metrics are measured by the caller and merged in afterwards
PER_LAYER = {
    "combinat.count_m.calls": ("count", "lower", ["combinat.count_m"]),
    "combinat.count_m.self_s": ("s", "lower", ["combinat.count_m"]),
    "combinat.count_cache.hit_ratio": ("ratio", "higher", [CACHES["combinat.count_cache"]]),
    "combinat.count_cache.entries": ("count", "lower", [CACHES["combinat.count_cache"]]),
    "combinat.partitions.yielded": ("count", "lower", ["combinat.partitions"]),
    "combinat.set_partitions.yielded": ("count", "lower", ["combinat.set_partitions"]),
    "combinat.MultVec.init.calls": ("count", "lower", ["combinat.MultVec.__init__"]),
    "divisors.Divisor.init.calls": ("count", "lower", ["divisors.Divisor.__init__"]),
    "cycle_algebra.CycleSum.mul.calls": ("count", "lower", ["cycle_algebra.CycleSum.__mul__"]),
    "cycle_algebra.CycleSum.mul.self_s": ("s", "lower", ["cycle_algebra.CycleSum.__mul__"]),
    "cycle_algebra.CycleSum.mul.term_pairs": ("count", "lower", ["cycle_algebra.CycleSum.__mul__"]),
    "cycle_algebra.CycleSum.init.calls": ("count", "lower", ["cycle_algebra.CycleSum.__init__"]),
    "cycle_algebra.TauBasis.hash.calls": ("count", "lower", ["cycle_algebra.TauBasis.__hash__"]),
    "cycle_algebra.structure_constants.calls": (
        "count", "lower", ["cycle_algebra.structure_constants"]),
    "cycle_algebra.sc_cache.hit_ratio": ("ratio", "higher", [CACHES["cycle_algebra.sc_cache"]]),
    "cycle_algebra.sc_cache.entries": ("count", "lower", [CACHES["cycle_algebra.sc_cache"]]),
    "series.CycleSeries.mul.calls": ("count", "lower", ["series.CycleSeries.__mul__"]),
    "series.CycleSeries.mul.self_s": ("s", "lower", ["series.CycleSeries.__mul__"]),
    "series.CycleSeries.inverse.self_s": ("s", "lower", ["series.CycleSeries.inverse"]),
    "sheaves.product_route.self_s": (
        "s", "lower", ["sheaves.s_tame", "sheaves.s_skyscraper", "sheaves._constant_rank_verified"]),
    "sheaves.closed_route.self_s": (
        "s", "lower", ["sheaves._tame_closed", "sheaves._skyscraper_closed",
                       "sheaves._constant_rank_closed"]),
    "sheaves.assert_match.self_s": ("s", "lower", ["sheaves._assert_match"]),
    "sheaves.assert_match.coeffs_compared": ("count", "lower", ["sheaves._assert_match"]),
    "sheaves.constant_rank_cache.hit_ratio": (
        "ratio", "higher", [CACHES["sheaves.constant_rank_cache"]]),
    "sheaves.pushforward_partition.self_s": ("s", "lower", ["sheaves.pushforward_partition"]),
    "sheaves.pushforward_composition.self_s": ("s", "lower", ["sheaves.pushforward_composition"]),
    "index.infer_degrees.self_s": ("s", "lower", ["index._infer_degrees_cached"]),
    "index.infer_cache.hit_ratio": ("ratio", "higher", [CACHES["index.infer_cache"]]),
    "index.index_matrix.self_s": ("s", "lower", ["index.index_matrix"]),
    "index.verify_sweep.compositions": ("count", "lower", ["index.compositions"]),
    "index.verify_sweep.distinct_ratio": ("ratio", "higher", ["index.compositions"]),
    "geometry.singularity_certificate.self_s": (
        "s", "lower", ["geometry.singularity_certificate"]),
    "geometry.certificate_enum.partitions": ("count", "lower", ["geometry.partitions"]),
    "cli.interpreter_s": ("s", "lower", []),
    "cli.import_s": ("s", "lower", []),
    "cli.main.self_s": ("s", "lower", ["cli.main"]),
    "cli.render.self_s": (
        "s", "lower", ["cli._emit", "cycle_algebra.CycleSum.render", "series.CycleSeries.render"]),
    "trace.overhead_s": ("s", "lower", []),
}


def _resolve(target: str):
    """Return (owner, attribute name, object) for ``module[.Class].attr``, or None."""
    parts = target.split(".")
    try:
        owner = importlib.import_module("taucycles." + parts[0])
        for name in parts[1:-1]:
            owner = getattr(owner, name)
        return owner, parts[-1], getattr(owner, parts[-1])
    except (ImportError, AttributeError):
        return None


class Tracer:
    """Spans and counters for one traced pass, all kept in memory."""

    def __init__(self):
        self.on = False
        self.task = -1
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_task = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[list] = []  # [index, name, start, child time, route child time]
        self.route_stack: list[list] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.route_self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self.caches: dict[str, object] = {}
        self.cache_start: dict[str, tuple[int, int]] = {}
        self._gen_depth: Counter = Counter()
        self._sweep_seen: list[set] = []

    # -- spans ------------------------------------------------------------

    def enter(self, name: str) -> list:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1][0] if self.stack else -1)
        self.span_task.append(self.task)
        self.span_end.append(0.0)
        frame = [index, name, 0.0, 0.0, 0.0]
        self.stack.append(frame)
        start = perf_counter()
        self.span_start.append(start)
        frame[2] = start
        return frame

    def exit(self, frame: list, route: bool) -> None:
        end = perf_counter()
        index, name, start, child, route_child = frame
        duration = end - start
        self.span_end[index] = end
        self.stack.pop()
        self.calls[name] += 1
        self.self_s[name] += duration - child
        if self.stack:
            self.stack[-1][3] += duration
        if route:
            self.route_stack.pop()
            self.route_self_s[name] += duration - route_child
            if self.route_stack:
                self.route_stack[-1][4] += duration

    # -- wrappers ---------------------------------------------------------

    def span(self, name: str, fn, route: bool = False, hook=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            if hook is not None:
                hook(tracer.counts, *args)
            frame = tracer.enter(name)
            if route:
                tracer.route_stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit(frame, route)

        return wrapper

    def count(self, name: str, fn):
        tracer = self
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.on:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def gen(self, names: tuple[str, ...], fn, key: str, sweep: bool = False):
        """Wrap a generator; items count only when no call of ``key`` is already running."""
        tracer = self
        counts = self.counts
        depth = self._gen_depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            outer = tracer.on and depth[key] == 0
            seen: set = set()
            if outer and sweep:
                tracer._sweep_seen.append(seen)
            while True:
                depth[key] += 1
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    depth[key] -= 1
                if outer:
                    for name in names:
                        counts[name] += 1
                    if sweep:
                        seen.add(tuple(sorted(item)))
                yield item

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for label, target in CACHES.items():
            resolved = _resolve(target)
            if resolved is None or not hasattr(resolved[2], "cache_info"):
                self.missing.append(target)
            else:
                self.caches[label] = resolved[2]
        for kind, target, name in TARGETS:
            resolved = _resolve(target)
            if resolved is None:
                self.missing.append(target)
                continue
            owner, attr, original = resolved
            if kind == "sweep":
                setattr(owner, attr, self.gen(("index.verify_sweep.compositions",), original,
                                              target, sweep=True))
                continue
            if kind == "site":
                # one module's use of a shared generator, counted on top of the global count
                key = "combinat." + attr
                setattr(owner, attr, self.gen((key + ".yielded", name + "." + attr), original, key))
                continue
            if kind in ("span", "route"):
                wrapper = self.span(name, original, route=kind == "route", hook=_HOOKS.get(target))
            elif kind == "count":
                wrapper = self.count(name + ".calls", original)
            else:
                wrapper = self.gen((name + ".yielded",), original, name)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                continue
            for module in list(sys.modules.values()):
                if module.__name__.partition(".")[0] == "taucycles":
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)

    def start(self) -> None:
        for label, cache in self.caches.items():
            info = cache.cache_info()
            self.cache_start[label] = (info.hits, info.misses)
        self.on = True

    def stop(self) -> None:
        self.on = False
        self.cache_end = {label: cache.cache_info() for label, cache in self.caches.items()}

    # -- results ----------------------------------------------------------

    def metrics(self) -> tuple[dict[str, float], list[str]]:
        """Per-layer metrics of the traced pass, and the names reported absent."""
        values: dict[str, float] = {}
        for label, info in self.cache_end.items():
            hits0, misses0 = self.cache_start[label]
            hits, lookups = info.hits - hits0, info.hits + info.misses - hits0 - misses0
            values[label + ".hit_ratio"] = hits / lookups if lookups else 0.0
            values[label + ".entries"] = info.currsize
        values.update(self.counts)
        for metric in PER_LAYER:
            span, _, stat = metric.rpartition(".")
            if stat == "self_s":
                values[metric] = self.self_s[span]
            elif stat == "calls" and span in self.calls:
                values[metric] = self.calls[span]
        values["sheaves.product_route.self_s"] = sum(self.route_self_s[n] for n in PRODUCT_ROUTE)
        compositions = self.counts["index.verify_sweep.compositions"]
        distinct = sum(len(seen) for seen in self._sweep_seen)
        values["index.verify_sweep.distinct_ratio"] = distinct / compositions if compositions else 0.0
        absent = [
            metric for metric, (_, _, needs) in PER_LAYER.items()
            if any(target in self.missing for target in needs)
        ]
        out = {}
        for metric in PER_LAYER:
            if metric in absent or metric.startswith(("trace.", "cli.interpreter", "cli.import")):
                continue
            out[metric] = values.get(metric, 0)
        return out, absent

    def write_spans(self, path_stem) -> None:
        """Write the spans as five binary arrays plus a JSON header naming them."""
        with open(f"{path_stem}.spans", "wb") as f:
            for column in (self.span_name, self.span_parent, self.span_task,
                           self.span_start, self.span_end):
                column.tofile(f)
        header = {
            "spans": len(self.span_start),
            "columns": [["name", "i"], ["parent", "i"], ["task", "i"],
                        ["start_s", "d"], ["end_s", "d"]],
            "names": self.names,
        }
        with open(f"{path_stem}.json", "w") as f:
            json.dump(header, f)


def _term_pairs(counts, left, right) -> None:
    if hasattr(right, "terms"):  # integer scaling goes through __mul__ too
        counts["cycle_algebra.CycleSum.mul.term_pairs"] += len(left.terms()) * len(right.terms())


def _coeffs_compared(counts, product_route, closed_route, label) -> None:
    counts["sheaves.assert_match.coeffs_compared"] += closed_route.max_degree + 1


_HOOKS = {
    "cycle_algebra.CycleSum.__mul__": _term_pairs,
    "sheaves._assert_match": _coeffs_compared,
}
