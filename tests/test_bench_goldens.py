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
# index): every float of a certificate is printed, so these pin its bits.
# A 5-sample op certifies fixed points only; a 20- or 50-sample op also
# certifies the sample's closed-form points, which these entries pin.
CERTIFY_DIGESTS = {
    ("orbifold", 0): "0:2796:2916dc2b9397955d8d18c31318f5cfa3",
    ("orbifold", 6): "0:2796:27ae74a3d310eeaae1e99481585717dd",
    ("orbifold", 12): "0:2796:ad903e4127a43ee8cdcee9f8cdf13657",
    ("orbifold", 18): "0:2796:d9c2d4e3f1ed6623903a23153f210c0c",
    ("orbifold", 24): "0:2796:18e96a9b8476aebb92ba5a27d7e024f7",
    ("orbifold", 30): "0:2798:77b5be10dfa085e42b8ad7a917d9a1aa",
    ("round", 0): "0:2738:366d0158a07bdd41bfdf502f03da59dd",
    ("round", 6): "0:2738:c23c1bfd22cb8ec4aa7bf6fb0d642f0f",
    ("round", 12): "0:2738:18572ae7f4706319b0d620f291c895a4",
    ("round", 18): "0:2738:ed40676be5d7a569b604ea6d99441ebf",
    ("round", 24): "0:2738:405e8c30e46765a71bdd09c778a981b1",
    ("round", 30): "0:2740:76ec2b2df485bef4ef0663fac4de8ea5",
    ("bound2", 0): "0:3370:09c1dc15dfb5f60b686b6877b45a5e71",
    ("bound2", 119): "0:29061:5ba9c6f260c86e8087298d3c0d485add",
    ("bound2", 238): "0:11950:e461ce36525b5b40d6464f5c932b31a3",
    ("bound2", 357): "0:3219:8af22a5dc27b255e79ef30a69d45981c",
    ("bound2", 476): "0:29065:ba7af84575ef5dc00d9340b876fc54c7",
    ("bound2", 595): "0:11969:157a13f0e27cc70bae41e917ee716dcb",
    ("bound3", 0): "0:3431:b1158a52dec4e43182804e07bd4fa01c",
    ("bound3", 168): "0:3459:125ee04824a56d071af90ddb51af2073",
    ("bound3", 336): "0:3330:7c2eb405fb9cbe3af050d9dc0f50342e",
    ("bound3", 504): "0:3233:e672d4d1d8d3d04490b5b103c726632a",
    ("bound3", 672): "0:3390:e8c2411670ff363132d0e602998d51aa",
    ("bound3", 840): "0:3431:4fbfd79d13e1ccc7a787e989717c7ec5",
    ("bound3", 1008): "0:3305:43b32bcf53b332c99d7af0ac298adb3d",
}
# pool_digest(certify_ops(golden, 1)): all 1796 triples.
CERTIFY_POOL_DIGEST = "9c5736fec0eecf49217eaaa1608e82bd"


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
