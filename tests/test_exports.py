"""Every module's ``__all__`` resolves, names each export once, and covers
everything the package ``__init__`` imports from that module."""

import ast
import importlib
from pathlib import Path

import pytest

import su3kahler

PACKAGE_DIR = Path(su3kahler.__file__).resolve().parent
MODULES = sorted(p.stem for p in PACKAGE_DIR.glob("*.py") if p.stem != "__init__")


def _init_imports() -> dict[str, list[str]]:
    """Names imported by ``su3kahler/__init__.py``, per relative module."""
    tree = ast.parse((PACKAGE_DIR / "__init__.py").read_text())
    out: dict[str, list[str]] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out.setdefault(node.module, []).extend(alias.name for alias in node.names)
    return out


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves_and_names_each_export_once(name):
    module = importlib.import_module(f"su3kahler.{name}")
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), sorted(n for n in exported if exported.count(n) > 1)
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"su3kahler.{name}.__all__ names {missing}, which do not resolve"


def test_package_imports_only_exported_names():
    imports = _init_imports()
    assert imports, "su3kahler/__init__.py imports nothing from its modules"
    for name, names in imports.items():
        module = importlib.import_module(f"su3kahler.{name}")
        unlisted = [n for n in names if n not in getattr(module, "__all__", ())]
        assert not unlisted, f"su3kahler imports {unlisted} from {name}, which are not in its __all__"
