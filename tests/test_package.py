import importlib
import os
import subprocess
import sys
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
