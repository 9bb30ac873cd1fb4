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
    ("orbifold", 0): "0:1385:1469515ca14f078029ecf708206355ac",
    ("orbifold", 6): "0:1385:e33f1ee0465f1249c8bee2f22a625cff",
    ("orbifold", 12): "0:1385:a049256441570fe38d1f65150e28a081",
    ("orbifold", 18): "0:1385:ce584b599830ec43a476856d2ada5b86",
    ("orbifold", 24): "0:1385:ef245d5d9ad8ef211ae9f9ba79caae51",
    ("orbifold", 30): "0:1387:e7f95b65ba2347539d891b7a59264aeb",
    ("round", 0): "0:1383:67d38cb948fb0ac0d80d29ee116c0107",
    ("round", 6): "0:1383:7f0ef6e19bcc4ca6ce75fd55c7d6ac99",
    ("round", 12): "0:1383:1a30fdf80199baed2a36b09e51e525ab",
    ("round", 18): "0:1383:bca44e964b6bc953f8acf1f47874842f",
    ("round", 24): "0:1383:5a2bed8190fc52e1b4f3db10f759660c",
    ("round", 30): "0:1385:a3d0ef7393fa2dea039fb91f9e1e3337",
    ("bound2", 0): "0:1729:c9e7b360bf9c15af918455afe7478b1e",
    ("bound2", 119): "0:10660:fa8830492ccd7c74c1e60908908e9f13",
    ("bound2", 238): "0:4723:16f98c53298c268845cc50705bcd63dc",
    ("bound2", 357): "0:1725:0804986b3cd6689fe129e6a506b7ac8a",
    ("bound2", 476): "0:10688:7b4079660dc3cfac60aaea53903cca17",
    ("bound2", 595): "0:4723:980525109d9b16260008e1d6d18f4885",
    ("bound3", 0): "0:1731:14225fe39dfb6fe08470aafa7b021235",
    ("bound3", 168): "0:1735:3b327b702b3b8cfd3e4af0a712e18d08",
    ("bound3", 336): "0:1735:bba8515d708f4ac68042254e36ccc18b",
    ("bound3", 504): "0:1730:af67e1bceb0db0180c96018de0053c16",
    ("bound3", 672): "0:1731:9d0a46f60d80ad1991128b1ab8e4dd5b",
    ("bound3", 840): "0:1729:762435fb1855122840b32b90242bddda",
    ("bound3", 1008): "0:1738:500ffc9642dce800a8ff4adb2e35beed",
}
# pool_digest(certify_ops(golden, 1)): all 1796 triples.
CERTIFY_POOL_DIGEST = "56a5ca1dce6693913b82a35d04f11a95"


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
