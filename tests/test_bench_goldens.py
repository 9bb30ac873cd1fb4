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
    ("orbifold", 0): "0:1334:412f3f9b4c2c2191389add4a674c04fe",
    ("orbifold", 6): "0:1334:8c98488b45b82bcb7e150c4b471f8637",
    ("orbifold", 12): "0:1334:ab280f971518bcfb274b42e51977dbb1",
    ("orbifold", 18): "0:1334:71a51afb89a73342de2cfc3ebab35d80",
    ("orbifold", 24): "0:1334:dedd728c376ef119da95c36d69411a5e",
    ("orbifold", 30): "0:1336:65d0d2378da3b5427b1941c0e0e697ae",
    ("round", 0): "0:1332:55719a96a9919fee58e6534fa1a8dc9b",
    ("round", 6): "0:1332:c23de93cb5e495f6f2041304a7b38332",
    ("round", 12): "0:1332:74218d3b3464473b8e45a7e5c9896cd0",
    ("round", 18): "0:1332:b2a8f2aceb2c5ebbe2d21c799e7b9afd",
    ("round", 24): "0:1332:ff0e29dc42c59b5a2ec5da19c6a76e25",
    ("round", 30): "0:1334:90ece5fc59088d47dda82afef331dba2",
    ("bound2", 0): "0:1678:41b0a7c9737a74bce1401e4e45eaecfc",
    ("bound2", 119): "0:10590:ffe021e7895bebf6a7763a044ea4e2c1",
    ("bound2", 238): "0:4653:4f687cd86df6d8fbc78f1639d235bd5c",
    ("bound2", 357): "0:1674:fc4286df8b0ea1c5aed3b5559b93af78",
    ("bound2", 476): "0:10618:f3b7b6dc3a9e6763c9f83220126f26c8",
    ("bound2", 595): "0:4654:5102848c6ef8c1f402c9e380c796f0c0",
    ("bound3", 0): "0:1680:28058677bb0b3352e07d76b1fed253d6",
    ("bound3", 168): "0:1684:6e9c173a73186bae4a2837636eac42ee",
    ("bound3", 336): "0:1684:7935f75fba19d34b192354f37ccf0664",
    ("bound3", 504): "0:1679:e52fb51dcac35596f789f103faf7bf5b",
    ("bound3", 672): "0:1680:a0526c2d6157b3d7a1970cfa3c4eb9d0",
    ("bound3", 840): "0:1678:73ac1896ffb6516c487cee4fd0e54c3b",
    ("bound3", 1008): "0:1687:9626ad2a6b57aa709401517ed5826107",
}
# pool_digest(certify_ops(golden, 1)): all 1796 triples.
CERTIFY_POOL_DIGEST = "96480d2a1a290150e144f178adb348ee"


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
