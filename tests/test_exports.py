"""Every exported name resolves, so a deletion cannot leave one dangling."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import mgstrat

MODULES = sorted(info.name for info in pkgutil.iter_modules(mgstrat.__path__))


def test_every_module_is_found():
    assert {"engine", "stats", "cli"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"mgstrat.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), exported
    assert [item for item in exported if not hasattr(module, item)] == []


def test_package_reexports_resolve():
    # Read from the source, so a name is checked against the module it is
    # imported from, not only against the package namespace.
    tree = ast.parse(Path(mgstrat.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"mgstrat.{node.module}")
        for alias in node.names:
            assert hasattr(module, alias.name), (node.module, alias.name)
            assert getattr(mgstrat, alias.asname or alias.name) is getattr(module, alias.name)
