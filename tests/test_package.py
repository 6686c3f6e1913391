import ast
import importlib
import os
import subprocess
import sys
import types
from collections.abc import Iterable
from pathlib import Path

import pytest

import taucycles


def test_every_public_name_is_its_module_attribute():
    for name in taucycles.__all__:
        value = getattr(taucycles, name)
        if name == "__version__":
            continue
        home = sys.modules[value.__module__]
        assert home.__name__.startswith("taucycles.")
        assert getattr(home, name) is value


def test_every_export_is_in_its_module_all():
    # a name deleted from its module, or dropped from the module's __all__, leaves no stale export
    for module, names in taucycles._EXPORTS.items():
        home = importlib.import_module(f"taucycles.{module}")
        assert set(names) <= set(home.__all__), module


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from taucycles import *", namespace)
    for name in taucycles.__all__:
        assert namespace[name] is getattr(taucycles, name)


def test_dir_lists_the_public_names():
    assert set(dir(taucycles)) >= set(taucycles.__all__)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        taucycles.no_such_name
    assert not hasattr(taucycles, "no_such_name")


@pytest.mark.parametrize(
    "script, args",
    [
        ("acyclicity_grid.py", ["--max-genus", "2", "--max-rank", "2", "--window", "2"]),
        ("index_table.py", ["--genus", "2", "--max-n", "3"]),
    ],
)
def test_scripts_run_on_the_public_api(script, args):
    # the README's scripts import from the package; a dropped export breaks them
    path = Path(__file__).resolve().parents[1] / "scripts" / script
    src = str(Path(taucycles.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, path, *args], capture_output=True, env=env, timeout=20)
    assert proc.returncode == 0
    assert proc.stderr == b""
    assert proc.stdout


def _unused_imports(source: str, exported: Iterable[str] = ()) -> list[str]:
    # names bound by an import that the module neither reads nor lists as
    # exported; an import on a line marked "noqa: F401" is a deliberate re-export
    tree = ast.parse(source)
    lines = source.splitlines()
    exported = set(exported)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
            isinstance(node, ast.ImportFrom) and node.module == "__future__"
        ):
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if "noqa: F401" in lines[alias.lineno - 1]:
                continue
            if name not in used and name not in exported:
                unused.append(name)
    return unused


def test_the_unused_import_scan_finds_one():
    source = "import os\nimport sys  # noqa: F401\nfrom math import comb, gcd\n"
    assert _unused_imports(source + "print(comb)\n", exported=["gcd"]) == ["os"]


def test_every_import_in_the_package_is_used():
    src = Path(taucycles.__file__).resolve().parent
    unused = {}
    for path in sorted(src.glob("*.py")):
        dotted = "taucycles" if path.stem == "__init__" else f"taucycles.{path.stem}"
        module = importlib.import_module(dotted)
        names = _unused_imports(path.read_text(), getattr(module, "__all__", ()))
        if names:
            unused[path.name] = names
    assert unused == {}



def _reexports(source: str, module: str) -> list[str]:
    # "module.name" for each name imported on a line marked "noqa: F401"
    lines = source.splitlines()
    return [
        f"{module}.{alias.asname or alias.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if "noqa: F401" in lines[alias.lineno - 1]
    ]


def test_the_reexport_scan_finds_one():
    source = "import os\nfrom .combinat import partitions  # noqa: F401 - kept\n"
    assert _reexports(source, "geometry") == ["geometry.partitions"]


def test_every_noqa_reexport_is_a_tracer_target():
    # a "noqa: F401" import in the package exists only so that the benchmark
    # tracer can wrap the name where the module uses it; once the tracer no
    # longer resolves that name, the re-export is dead and this flags it
    tracing_path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    tracing = types.ModuleType("perfbench_tracing")
    exec(compile(tracing_path.read_text(), str(tracing_path), "exec"), vars(tracing))
    resolved = {target for _, target, _ in tracing.TARGETS} | set(tracing.CACHES.values())
    src = Path(taucycles.__file__).resolve().parent
    reexports = {
        name for path in sorted(src.glob("*.py")) for name in _reexports(path.read_text(), path.stem)
    }
    assert reexports - resolved == set()


# The one cache allowed without a literal bound, and why.
UNBOUNDED_CACHES = {
    "combinat._count_binary_matrices": (
        "its entries are the states of the count recursion, which the CLI reaches through "
        "count matrices no larger than MAX_TABLE_N and pushforwards no heavier than "
        "MAX_PUSHFORWARD_WEIGHT; a bound would evict states the recursion shares"
    ),
}


def _unbounded_caches(source: str, module: str) -> list[str]:
    # every functools cache without a literal positive integer maxsize, as
    # "module.function" for a decorator and "module:line" for any other use
    tree = ast.parse(source)
    factories = {  # the name the module binds -> functools.lru_cache or functools.cache
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "functools"
        for alias in node.names
        if alias.name in ("lru_cache", "cache")
    }
    parent, decorated = {}, {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parent[child] = node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            decorated.update((decorator, node.name) for decorator in node.decorator_list)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in factories:
            kind = factories[node.id]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and (
            node.value.id == "functools" and node.attr in ("lru_cache", "cache")
        ):
            kind = node.attr
        else:
            continue
        use, size = node, None
        if isinstance(parent.get(node), ast.Call) and parent[node].func is node:
            use = parent[node]
            sizes = [k.value for k in use.keywords if k.arg == "maxsize"] + use.args[:1]
            size = sizes[0] if sizes else None
        literal = isinstance(size, ast.Constant) and type(size.value) is int and size.value > 0
        if kind == "cache" or not literal:
            where = decorated[use] if use in decorated else None
            found.append(f"{module}.{where}" if where else f"{module}:{use.lineno}")
    return sorted(found)


def test_the_cache_scan_finds_unbounded_caches():
    source = (
        "import functools\n"
        "from functools import cache as cached, lru_cache as memo\n"
        "@memo(maxsize=None)\ndef a(): pass\n"
        "@memo\ndef b(): pass\n"
        "@functools.cache\ndef c(): pass\n"
        "@cached\ndef d(): pass\n"
        "@functools.lru_cache()\ndef e(): pass\n"
        "@memo(maxsize=8)\ndef f(): pass\n"
        "@functools.lru_cache(16)\ndef g(): pass\n"
        "h = memo(maxsize=True)(len)\n"
        "i = memo(maxsize=2)(len)\n"
        "cache_size = 4\n"
    )
    assert _unbounded_caches(source, "m") == ["m.a", "m.b", "m.c", "m.d", "m.e", "m:17"]


def test_every_cache_in_the_package_is_bounded():
    # every cache has a bound a reader can find in the source, but the one listed above
    src = Path(taucycles.__file__).resolve().parent
    found = [
        name
        for path in sorted(src.glob("*.py"))
        for name in _unbounded_caches(path.read_text(), path.stem)
    ]
    assert found == sorted(UNBOUNDED_CACHES)
