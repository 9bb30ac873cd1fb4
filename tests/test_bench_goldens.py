"""The benchmark's own op runner and correctness gate on a fixed sample of
its golden pools, so that a change to any output the benchmark pins fails
here as well as in a benchmark run.

``perfbench/workloads.py`` is loaded from its file and only read: every op
runs through its ``execute`` and is judged by its ``gate``. The sample is
every 10th audit item per (category, command), every sweep slice (the
whole bound-3 stream with its classifications) and about 6 verify triples
per certify category.

The certify gate checks structure, not digits, so the verify output is
also pinned here byte for byte: each sampled triple by its exit code, byte
length and BLAKE2b-128 digest (``workloads.digest``), and the whole pool
by one pool digest (:func:`pool_digest` of ``certify_ops(golden, 1)``).
"""

import hashlib
import importlib.util
import json
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


def certify_ops(golden, stride=None):
    """Every stride-th verify triple of each category, in pool order; by
    default every (category size // 6)-th, about 6 per category."""
    for category, triples in golden["categories"].items():
        for index in range(0, len(triples), stride or len(triples) // 6):
            config, samples, seed = triples[index]
            argv = ("verify", "--config", config, "--samples", str(samples), "--seed", str(seed))
            yield Op(category, index, "verify", argv, samples)


SAMPLES = {"audit": audit_ops, "sweep": sweep_ops, "certify": certify_ops}


def pool_digest(ops) -> str:
    """BLAKE2b-128 of the lines ``workloads.digest(code, stdout)``, each
    ended by a newline, of the ops run in order."""
    h = hashlib.blake2b(digest_size=16)
    for op in ops:
        h.update((workloads.digest(*workloads.execute(op)) + "\n").encode())
    return h.hexdigest()


# workloads.digest of each verify op of certify_ops(golden), by (category,
# index): every certificate's regularity margin is printed, so these pin
# its bits.
# A 5-sample op certifies fixed points only; a 20- or 50-sample op also
# certifies the sample's closed-form points, which these entries pin.
CERTIFY_DIGESTS = {
    ("orbifold", 0): "0:1385:a22e1bc1bfe9fe731069a1bafbb7e025",
    ("orbifold", 6): "0:1385:d9433be84131e85fe3a65d8d017b883a",
    ("orbifold", 12): "0:1385:50e8df30649f5d863303880264244c31",
    ("orbifold", 18): "0:1385:84e9c84990c4366b2531f6a09ae60690",
    ("orbifold", 24): "0:1385:0f8825febd1c479b1ac0fc1e0a567f12",
    ("orbifold", 30): "0:1387:ad03027e57942eea3b5676fc77c048b3",
    ("round", 0): "0:1383:274754aa96b42d15e39efbeb0388bde5",
    ("round", 6): "0:1383:8eebf505291b64cf3a05b05ad69cba5f",
    ("round", 12): "0:1383:3981c9e9547507f2a36fab27b6e0e554",
    ("round", 18): "0:1383:acf74c57bf97af731a4ffa31fc9105bf",
    ("round", 24): "0:1383:382eaf04999ab9ef7e80a4340833864e",
    ("round", 30): "0:1385:baa412531c26eadb653141aeb3257837",
    ("bound2", 0): "0:1730:0ffe0542cb18cf7e374b5f2fb4b84961",
    ("bound2", 119): "0:10657:2b5bcc040b098b569c4122ba84bbd50e",
    ("bound2", 238): "0:4708:8067faae15778de54cc6882ebf520d51",
    ("bound2", 357): "0:1730:d7d3f1416d52a9c0b835ef31ee3a27de",
    ("bound2", 476): "0:10690:24bc74395761194d582e342a0316e8ca",
    ("bound2", 595): "0:4711:bc1fd62cd6f356c1556f8a154c256435",
    ("bound3", 0): "0:1750:b0664d498212dbbbc7df9442f7c92674",
    ("bound3", 168): "0:1732:8196e40836119c4804a70b1394df4c49",
    ("bound3", 336): "0:1750:ffc66a394ba314a5f231e21ab7b036b3",
    ("bound3", 504): "0:1725:70d59e05a9d55fa230c194a40a59116f",
    ("bound3", 672): "0:1748:653bd1b5d4e600fccaa7e8b8f8b222d8",
    ("bound3", 840): "0:1749:571a44f2c4af6238481eac88dafc7660",
    ("bound3", 1008): "0:1758:58ab97f4c55ac1a88e3fd279a703835b",
}
# pool_digest(certify_ops(golden, 1)): all 1796 triples.
CERTIFY_POOL_DIGEST = "318a6aaeb5648003128f15fd3e5c8b05"


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


def test_certify_sample_prints_its_recorded_bytes():
    golden = workloads.load_golden("certify")
    got = {(op.category, op.index): workloads.digest(*workloads.execute(op)) for op in certify_ops(golden)}
    assert got == CERTIFY_DIGESTS


def test_certify_pool_prints_its_recorded_bytes():
    assert pool_digest(certify_ops(workloads.load_golden("certify"), 1)) == CERTIFY_POOL_DIGEST


def test_every_pool_config_is_one_kind():
    """Every config of the audit and certify pools is exactly a weight
    system {wL, wR} or cone data {A, B}, the two kinds the CLI reads."""
    configs = [
        item if isinstance(item, str) else workloads.ws_config(item)
        for pool in workloads.load_golden("audit")["categories"].values()
        if "cohomology" not in pool["expected"]
        for item in pool["items"]
    ]
    configs += [t[0] for triples in workloads.load_golden("certify")["categories"].values() for t in triples]
    assert len(configs) == 5335 + 1796
    assert {tuple(sorted(json.loads(c))) for c in configs} == {("A", "B"), ("wL", "wR")}


def test_one_audit_pass_evicts_from_no_cache():
    """One pass of check and isotropy over every audit-pool item, from
    empty caches, passes every golden gate and evicts nothing: each
    lru_cache of cli, and isotropy's _group_from_divisors, which the census
    entries read on a miss, ends with as many entries as misses, within its
    size. The keys met are the counts the caches' comments give."""
    golden = workloads.load_golden("audit")
    caches = [f for f in vars(cli).values() if hasattr(f, "cache_info")]
    caches += [isotropy._group_from_divisors]
    for f in caches:
        f.cache_clear()
    ops = [op for op in audit_ops(golden, stride=1) if op.command != "cohomology"]
    failed = [op.argv for op in ops if not workloads.gate("audit", golden, op, workloads.execute(op)).ok]
    assert len(ops) == 10670 and not failed, failed[:3]
    info = {f.__name__: f.cache_info() for f in caches}
    for name, i in info.items():
        assert i.misses == i.currsize <= i.maxsize, (name, i)
    prefixes = ("_condition", "_table", "_census", "_leaf")
    met = {name: i.currsize for name, i in info.items() if name.startswith(prefixes)}
    assert met == {
        "_condition_frame": 9, "_table_template": 93, "_census_entry_template": 46, "_census_entry": 615,
        "_leaf_template": 4,  # weights, derived, and freeness free and orbifold
    }
    assert info["_group_from_divisors"].currsize == 34
