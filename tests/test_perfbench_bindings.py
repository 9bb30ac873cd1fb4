"""The benchmark's tracer wraps package functions by name, its self-tests
read a few bindings directly, and its ops and golden regeneration read
package attributes untraced. Every such name must still resolve, or
``perfbench/run.py`` and ``perfbench/make_golden.py`` break.

``perfbench/tracing.py`` is loaded from its file and only read: nothing is
installed or wrapped. It imports only the standard library. The untraced
reads are collected from the ASTs of ``perfbench/workloads.py`` and
``perfbench/make_golden.py``, which are never imported here.
"""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"
_spec = importlib.util.spec_from_file_location("perfbench_tracing", BENCH_DIR / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

# bindings that perfbench/test_perfbench.py reads without the tracer
READ_BY_SELF_TESTS = ("weights.in_cone2", "isotropy.cone_condition_holds", "quadric.positive_combination")

TRACED = [
    f"{mod}.{fn}" for table in (tracing.SPANNED, tracing.COUNTED) for mod, fns in table.items() for fn in fns
]


@pytest.mark.parametrize("name", TRACED + list(READ_BY_SELF_TESTS))
def test_benchmark_name_resolves_to_a_function(name):
    mod_name, fn_name = name.split(".")
    module = importlib.import_module(f"{tracing.PACKAGE}.{mod_name}")
    assert callable(getattr(module, fn_name, None)), f"{name} is gone but the benchmark reads it"


def _package_reads(path: Path) -> set[str]:
    """Dotted attribute chains that ``path`` reads on the package or its
    modules, e.g. ``isotropy.Classification.FREE_FLAG_CASE``, with each
    name bound by ``import`` replaced by the module path it stands for."""
    tree = ast.parse(path.read_text())
    bound: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                if top == tracing.PACKAGE:  # "import a.b" binds a, "import a.b as c" binds a.b
                    bound[alias.asname or top] = alias.name if alias.asname else top
        elif isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == tracing.PACKAGE:
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    reads = set()
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id in bound:
            reads.add(".".join([bound[node.id], *reversed(chain)]))
    return reads


UNTRACED_READS = sorted(
    set().union(*(_package_reads(BENCH_DIR / name) for name in ("workloads.py", "make_golden.py")))
)


def test_untraced_reads_are_collected():
    assert {
        "su3kahler.isotropy.Classification.FREE_FLAG_CASE",
        "su3kahler.WeightSystem.from_json",
        "su3kahler.derive",
        "su3kahler.cone_condition_holds",
        "su3kahler.cli.main",
    } <= set(UNTRACED_READS)


@pytest.mark.parametrize("chain", UNTRACED_READS)
def test_benchmark_attribute_read_resolves(chain):
    """Every package attribute the sweep op, the audit and certify ops and
    golden regeneration read outside the tracer still exists."""
    pkgutil.resolve_name(chain)  # imports the modules of the chain, raises if a name is gone
