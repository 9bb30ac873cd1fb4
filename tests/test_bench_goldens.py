"""The benchmark's own op runner and correctness gate on a fixed sample of
its golden pools, so that a change to any output the benchmark pins fails
here as well as in a benchmark run.

``perfbench/workloads.py`` is loaded from its file and only read: every op
runs through its ``execute`` and is judged by its ``gate``. The sample is
every 10th audit item per (category, command), every sweep slice (the
whole bound-3 stream with its classifications) and about 6 verify triples
per certify category.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads", Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
)
workloads = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = workloads  # dataclasses look up their module while being built
_spec.loader.exec_module(workloads)

Op = workloads.Op


def audit_ops(golden):
    for category, pool in golden["categories"].items():
        for command in sorted(pool["expected"]):
            for index in range(0, len(pool["items"]), 10):
                item = pool["items"][index]
                if command == "cohomology":
                    argv = ("cohomology", *item)
                else:
                    config = item if isinstance(item, str) else workloads.ws_config(item)
                    argv = (command, "--config", config)
                yield Op(category, index, command, argv)


def sweep_ops(golden):
    for index in range(len(golden["expected"])):
        yield Op("slice", index, "slice")


def certify_ops(golden):
    for category, triples in golden["categories"].items():
        for index in range(0, len(triples), len(triples) // 6):
            config, samples, seed = triples[index]
            argv = ("verify", "--config", config, "--samples", str(samples), "--seed", str(seed))
            yield Op(category, index, "verify", argv, samples)


SAMPLES = {"audit": audit_ops, "sweep": sweep_ops, "certify": certify_ops}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_benchmark_ops_pass_their_golden_gate(name):
    golden = workloads.load_golden(name)
    ops = list(SAMPLES[name](golden))
    failed = [
        outcome.detail
        for op in ops
        if not (outcome := workloads.gate(name, golden, op, workloads.execute(op))).ok
    ]
    assert len(ops) > 20
    assert not failed, f"{len(failed)} of {len(ops)} {name} ops fail their golden gate: {failed[:3]}"
