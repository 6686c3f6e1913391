"""The per-layer tracer in ``perfbench/tracing.py`` must find every name it wraps.

The tracer patches the package from outside, by dotted name.  A target
that is renamed, deleted or only inherited makes a traced benchmark run
report metrics as absent, or patch the wrong class.  The file is loaded
here read-only; nothing is installed.
"""

import types
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    # compiled from its text, so no bytecode is written next to it
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), vars(module))
    return module


def test_every_target_resolves(tracing):
    unresolved = [target for _, target, _ in tracing.TARGETS if tracing._resolve(target) is None]
    assert unresolved == []


def test_every_cache_resolves_with_cache_info(tracing):
    for label, target in tracing.CACHES.items():
        resolved = tracing._resolve(target)
        assert resolved is not None, label
        assert callable(getattr(resolved[2], "cache_info", None)), label


def test_class_targets_are_defined_on_their_own_class(tracing):
    # patching an inherited method would replace it on the subclass only,
    # and patching object.__init__ or object.__hash__ would count nothing
    class_targets = []
    for _, target, _ in tracing.TARGETS:
        owner, attr, _ = tracing._resolve(target)
        if isinstance(owner, type):
            class_targets.append(target)
            assert attr in vars(owner), target
    assert {
        "combinat.MultVec.__init__",
        "divisors.Divisor.__init__",
        "cycle_algebra.CycleSum.__init__",
        "cycle_algebra.CycleSum.__mul__",
        "cycle_algebra.TauBasis.__hash__",
        "series.CycleSeries.__mul__",
        "series.CycleSeries.inverse",
    } <= set(class_targets)
