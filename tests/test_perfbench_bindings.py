"""The benchmark's tracer wraps package functions by name, and its
self-tests read a few bindings directly. Every such name must still
resolve, or ``perfbench/run.py`` breaks.

``perfbench/tracing.py`` is loaded from its file and only read: nothing is
installed or wrapped. It imports only the standard library.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracing", Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
)
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
