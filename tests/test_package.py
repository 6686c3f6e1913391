import ast
import importlib
import os
import subprocess
import sys
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
