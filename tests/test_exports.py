"""The package's export lists against what its modules define.

A removed function must leave no stale name behind: in its module's
``__all__`` or in what ``regcert/__init__.py`` re-exports.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import regcert

# The entry point runs the CLI on import.
MODULES = [m.name for m in pkgutil.iter_modules(regcert.__path__) if m.name != "__main__"]


def test_every_module_defines_its_all():
    for name in MODULES:
        module = importlib.import_module(f"regcert.{name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, (name, missing)


def test_package_imports_only_exported_names():
    tree = ast.parse(Path(regcert.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"regcert.{node.module}")
        stale = [a.name for a in node.names if a.name not in module.__all__]
        assert not stale, (node.module, stale)
