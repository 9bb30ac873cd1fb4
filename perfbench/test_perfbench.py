"""Tests of the benchmark itself: gates, op lists, tracing, bare checkout.

    python3 -m pytest perfbench/test_perfbench.py -q

Run from the repository root. Each test runs a handful of ops at most.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from su3kahler import quadric  # noqa: E402


@pytest.fixture(scope="module")
def golden():
    return {name: wl.load_golden(name) for name in wl.WORKLOADS}


def _ops(golden, name, n=6, seed=3):
    return wl.make_ops(name, golden[name], seed, n)


def test_op_lists_are_fixed_by_seed_and_mix_by_share(golden):
    for name in wl.WORKLOADS:
        a = wl.make_ops(name, golden[name], 7, 300)
        assert a == wl.make_ops(name, golden[name], 7, 300)
        assert a != wl.make_ops(name, golden[name], 8, 300)
    mix = lambda ops: sorted((op.category, op.command, op.samples) for op in ops)  # noqa: E731
    for name in ("audit", "certify"):
        assert mix(wl.make_ops(name, golden[name], 1, 500)) == mix(wl.make_ops(name, golden[name], 2, 500))


def test_anchors_hold_and_a_wrong_count_is_caught(golden):
    counts = [int(e.split(":", 1)[0]) for e in golden["sweep"]["expected"]]
    assert sum(counts) == 64656 and len(counts) == wl.SWEEP_PARTS
    assert len(golden["audit"]["categories"]["bound2"]["items"]) == 2856
    count, rest = golden["sweep"]["expected"][0].split(":", 1)
    broken = dict(golden["sweep"], expected=[f"{int(count) + 1}:{rest}"]
                  + golden["sweep"]["expected"][1:])
    with pytest.raises(ValueError):
        wl.check_anchors("sweep", broken)
    assert wl.slice_candidates(3) * wl.SWEEP_PARTS == 1369 * 1369


@pytest.mark.parametrize("name", ["sweep", "audit", "certify"])
def test_unchanged_outputs_pass_the_gate(golden, name):
    p = run.run_pass(wl, name, golden[name], _ops(golden, name, n=4))
    assert p.failed == 0 and len(p.latencies) == 4 and min(p.work) > 0


def test_negative_verdicts_count_as_success(golden):
    cats = golden["audit"]["categories"]
    ops = [wl.Op("failing", i, cmd, (cmd, "--config", wl.ws_config(cats["failing"]["items"][i])))
           for i in (0, 1) for cmd in ("check", "isotropy")]
    p = run.run_pass(wl, "audit", golden["audit"], ops)
    assert p.failed == 0 and p.work == [1] * 4


@pytest.mark.parametrize("name", ["sweep", "audit"])
def test_changed_exact_output_is_a_failed_op(golden, name, monkeypatch):
    original = wl.execute

    def altered(op):
        first, text = original(op)
        return first, text.replace("1", "2", 1) if "1" in text else text + " "

    monkeypatch.setattr(wl, "execute", altered)
    ops = _ops(golden, name, n=3)
    p = run.run_pass(wl, name, golden[name], ops)
    assert p.failed == 3 and p.work == [0] * 3


def test_changed_exit_code_is_a_failed_op(golden, monkeypatch):
    original = wl.run_cli
    monkeypatch.setattr(wl, "run_cli", lambda argv: (1 - original(argv)[0], original(argv)[1]))
    p = run.run_pass(wl, "audit", golden["audit"], _ops(golden, "audit", n=3))
    assert p.failed == 3


def test_failed_certificate_is_a_failed_op(golden, monkeypatch):
    real = quadric.certify_point

    def failing(*args, **kwargs):
        cert = real(*args, **kwargs)
        cert.passed = False
        return cert

    monkeypatch.setattr(quadric, "certify_point", failing)
    p = run.run_pass(wl, "certify", golden["certify"], _ops(golden, "certify", n=3))
    assert p.failed == 3 and p.work == [0] * 3


def test_certificate_gate_reads_structure_not_digits():
    cert = {"jacobian_rank": 4, "combined_rank": 10, "pass": True, "jn_square_error": 1e-15}
    report = {"command": "verify", "pass": True,
              "results": {"all_passed": True, "samples": 2, "certificates": [cert, cert]}}
    assert wl.certificate_ok(0, json.dumps(report), 2) == (True, "")
    bumped = json.loads(json.dumps(report))
    bumped["results"]["certificates"][1]["jn_square_error"] = 3e-15
    assert wl.certificate_ok(0, json.dumps(bumped), 2)[0]
    ranked = json.loads(json.dumps(report))
    ranked["results"]["certificates"][0]["combined_rank"] = 9
    assert not wl.certificate_ok(0, json.dumps(ranked), 2)[0]
    assert not wl.certificate_ok(0, json.dumps(report), 3)[0]
    assert not wl.certificate_ok(1, json.dumps(report), 2)[0]


def test_raising_op_is_a_failed_op(golden, monkeypatch):
    def boom(op):
        raise RuntimeError("boom")

    monkeypatch.setattr(wl, "execute", boom)
    p = run.run_pass(wl, "audit", golden["audit"], _ops(golden, "audit", n=2))
    assert p.failed == 2


def test_tracer_emits_every_layer_metric_and_restores_bindings(golden):
    from su3kahler import conegeom, isotropy, weights

    before = (weights.in_cone2, isotropy.cone_condition_holds, quadric.positive_combination)
    runs = [("sweep", wl.Op("slice", 0, "slice"))]
    runs += [("audit", op) for op in _ops(golden, "audit", n=4)]
    config, samples, seed = next(t for t in golden["certify"]["categories"]["bound2"] if t[1] == 20)
    argv = ("verify", "--config", config, "--samples", "20", "--seed", str(seed))
    runs += [("certify", wl.Op("bound2", 0, "verify", argv, samples))]
    with tracing.Tracer() as tracer:
        assert weights.in_cone2 is not before[0] and conegeom.in_cone2 is weights.in_cone2
        for name, op in runs:
            assert wl.gate(name, golden[name], op, wl.execute(op)).ok
    assert (weights.in_cone2, isotropy.cone_condition_holds, quadric.positive_combination) == before
    metrics = tracing.layer_metrics(tracer, candidates=1369, stdout_bytes=1, calib_ms=1.0,
                                    overhead_ratio=1.0)
    assert list(metrics) == [m for m, _ in tracing.LAYER_METRICS]
    value = {k: v["value"] for k, v in metrics.items()}
    assert value["conegeom.in_cone2.calls"] > 1369
    assert value["weights.enumerate_admissible_systems.yielded"] == int(
        golden["sweep"]["expected"][0].split(":", 1)[0])
    for layer in ("isotropy.classify_quotient.busy_s", "weights.check_cone_condition.self_s",
                  "isotropy.singular_stratum_census.busy_s", "quadric.certify_point.busy_s",
                  "cli.main.self_s"):
        assert value[layer] > 0, layer
    assert value["quadric.certify_point.pass_ratio"] == 1.0
    assert value["quadric.project_to_level.iterations"] >= 1


def test_metrics_match_benchmark_json(golden):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.LAYER_METRICS)
    p = run.run_pass(wl, "audit", golden["audit"], _ops(golden, "audit", n=3))
    emitted = run.end_to_end(p, setup_s=0.2)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (k, v["unit"]) for k, v in emitted.items()]
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)


def test_host_twice_as_slow_gives_the_same_scaled_latencies():
    n = 40
    calib = [0.8 + 0.01 * (i % 7) for i in range(n)]
    fast = run.Pass(latencies=[0.004 + 1e-4 * i for i in range(n)], calib_ms=calib,
                    calib_index=list(range(n)))
    slow = run.Pass(latencies=[2 * x for x in fast.latencies], calib_ms=[2 * c for c in calib],
                    calib_index=list(range(n)))
    assert slow.scaled() == pytest.approx(fast.scaled())
    uniform = run.Pass(latencies=[0.01] * 3, calib_ms=[2.0], calib_index=[0, 0, 0])
    assert uniform.scaled() == pytest.approx([0.01 * run.CALIB_REF_MS / 2.0] * 3)


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "audit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
