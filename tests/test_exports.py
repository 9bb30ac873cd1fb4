"""Every module's ``__all__`` resolves, names each export once, and covers
everything the package ``__init__`` imports from that module. The float
layer's names resolve on first access, and the exact commands run without
numpy."""

import ast
import importlib
import json
import os
import subprocess
import sys
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


# --- the float layer loads on first use ---------------------------------------------


def test_lazy_names_resolve_to_the_float_layer():
    from su3kahler import quadric

    listed = dir(su3kahler)
    for name in sorted(su3kahler._QUADRIC_NAMES):
        assert name in quadric.__all__ and name in listed, name
        assert getattr(su3kahler, name) is getattr(quadric, name), name


def test_unknown_attribute_raises_without_loading_the_float_layer(monkeypatch):
    monkeypatch.delitem(sys.modules, "su3kahler.quadric", raising=False)
    monkeypatch.delattr(su3kahler, "quadric", raising=False)
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        su3kahler.no_such_name
    assert "su3kahler.quadric" not in sys.modules


# Runs in a fresh interpreter, because this one already holds numpy: the
# exact commands through cli.main, then the modules loaded, then verify and
# enumerate; prints each run's exit code, stdout length and digest.
_FRESH_RUN = """\
import contextlib, hashlib, io, json, sys
import su3kahler
from su3kahler import cli

def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    data = out.getvalue().encode()
    return [code, len(data), hashlib.blake2b(data, digest_size=16).hexdigest()]

exact, numeric = json.loads(sys.argv[1])
results = [run(argv) for argv in exact]
loaded = [m for m in ("numpy", "su3kahler.quadric") if m in sys.modules]
results += [run(argv) for argv in numeric]
print(json.dumps({"loaded": loaded, "results": results}))
"""


def test_exact_commands_never_load_numpy():
    """check, isotropy, cohomology and generate on the README configs load
    neither numpy nor su3kahler.quadric; verify and enumerate, run after
    them in the same process, still give their pinned stdout."""
    from test_cli_golden import GOLDEN

    exact = [p.values for p in GOLDEN if p.values[0][0] in ("check", "isotropy", "cohomology", "generate")]
    numeric = [p.values for p in GOLDEN if p.id in ("verify", "enumerate")]
    assert len(exact) == 8 and len(numeric) == 2
    runs = exact + numeric
    path = os.pathsep.join(filter(None, (str(PACKAGE_DIR.parent), os.environ.get("PYTHONPATH"))))
    argvs = json.dumps([[list(r[0]) for r in exact], [list(r[0]) for r in numeric]])
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", _FRESH_RUN, argvs],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=300,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    report = json.loads(proc.stdout)
    assert report["loaded"] == []
    for (argv, *pinned), got in zip(runs, report["results"]):
        assert got == pinned, argv
