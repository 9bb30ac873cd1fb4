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

from su3kahler import cli, isotropy

_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads", Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
)
workloads = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = workloads  # dataclasses look up their module while being built
_spec.loader.exec_module(workloads)

Op = workloads.Op


def audit_ops(golden, stride=10):
    for category, pool in golden["categories"].items():
        for command in sorted(pool["expected"]):
            for index in range(0, len(pool["items"]), stride):
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


def test_one_audit_pass_evicts_from_no_cache():
    """One pass of check and isotropy over every audit-pool item, from
    empty caches, passes every golden gate and evicts nothing: each
    lru_cache of cli, and isotropy's _shared_report and
    _group_from_divisors, ends with as many entries as misses, within its
    size. The keys met are the counts the caches' comments give."""
    golden = workloads.load_golden("audit")
    caches = [f for f in vars(cli).values() if hasattr(f, "cache_info")]
    caches += [isotropy._shared_report, isotropy._group_from_divisors]
    for f in caches:
        f.cache_clear()
    ops = [op for op in audit_ops(golden, stride=1) if op.command != "cohomology"]
    failed = [op.argv for op in ops if not workloads.gate("audit", golden, op, workloads.execute(op)).ok]
    assert len(ops) == 10670 and not failed, failed[:3]
    info = {f.__name__: f.cache_info() for f in caches}
    for name, i in info.items():
        assert i.misses == i.currsize <= i.maxsize, (name, i)
    met = {name: i.currsize for name, i in info.items() if name in ("_condition_frame", "_table_template")}
    assert met == {"_condition_frame": 9, "_table_template": 93}
    assert (info["_shared_report"].currsize, info["_group_from_divisors"].currsize) == (429, 34)
