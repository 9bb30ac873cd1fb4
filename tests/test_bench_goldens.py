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
    ("orbifold", 0): "0:1367:f50e9b59076e257e4fb03b0f92787b2b",
    ("orbifold", 6): "0:1367:ea5007443bc045d03a050c2446d066c7",
    ("orbifold", 12): "0:1367:ba2fc9142829e7fae9e8ce5b7f30631f",
    ("orbifold", 18): "0:1367:32e1954889b665268b255e5ccd8aa667",
    ("orbifold", 24): "0:1367:2a99a4dd48591c4f8dd542fc2ec36eaa",
    ("orbifold", 30): "0:1369:a10a275444344a0be8915837c15caa41",
    ("round", 0): "0:1365:e797f8c3ebad7f1353d4b91ecb36bde3",
    ("round", 6): "0:1365:b0d24061092068fe703c988f45848f15",
    ("round", 12): "0:1365:9d266da69e43b8cfcc868d1263532b33",
    ("round", 18): "0:1365:b4c73dc1d3521a6d6436c36972f6ecfe",
    ("round", 24): "0:1365:c91b3fa289faedf923c12dd50014d0f1",
    ("round", 30): "0:1367:c62d3fcb198756f53c0c510ae080809f",
    ("bound2", 0): "0:1711:df7533a4c9fe4c46adca133d1dfb3d8b",
    ("bound2", 119): "0:10642:aa01bc73df8e027d3a107de66d7f5914",
    ("bound2", 238): "0:4705:444ee416e25c9cf4e5f41c73f5e80e59",
    ("bound2", 357): "0:1707:c2559f1ec0d1e30a874739da3165a507",
    ("bound2", 476): "0:10670:431e04c8ab7b832d5ad636eabaadea86",
    ("bound2", 595): "0:4705:bcd52cbeb6cc58ac1b2a2124a0efb9be",
    ("bound3", 0): "0:1713:ce0a3ddeba0e9abe48e5b13cafb9c112",
    ("bound3", 168): "0:1717:ae53feb5b7cb79f0a6078ec342d95a91",
    ("bound3", 336): "0:1717:5d3790300bca11f5f625e70169909e18",
    ("bound3", 504): "0:1712:630f93af76fd61d12b517cca0bd5357e",
    ("bound3", 672): "0:1713:c5bab14fc30d40d1a13811ce626f69f8",
    ("bound3", 840): "0:1711:88bad3e51a2a5650c3ec0ec83896a6b5",
    ("bound3", 1008): "0:1720:6c92c10614ed47fdc365c7328a47f155",
}
# pool_digest(certify_ops(golden, 1)): all 1796 triples.
CERTIFY_POOL_DIGEST = "f367ee91adabe51d94e9f8ff5c62011d"


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
