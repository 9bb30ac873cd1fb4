"""The interleaved A/B timer of two trees, ``tools/ab_ops.py``, run on
this tree against itself, and against copies whose reports differ or fail
the benchmark's gate: the differing ops and each tree's gate failures are
counted, the first of each is named, every pass is still timed, and the
run exits 1."""

import json
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import ab_ops  # noqa: E402


def test_a_tree_against_itself_gives_identical_outputs(capsys):
    src = str(ROOT / "src")
    assert ab_ops.main(["--a", src, "--b", src, "--seed", "11", "--ops", "30", "--passes", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:2]] == ["pass 0", "pass 1"]
    assert all("(p50 " in line for line in lines[:2])
    summary = json.loads(lines[-1])
    assert summary["ops"] == 30 and summary["identical_outputs"] and summary["differing_ops"] == 0
    assert summary["gate_failures"] == {"a": 0, "b": 0}
    assert len(summary["passes"]) == 2
    for p in summary["passes"]:
        assert all(p[key] > 0 for key in ("a_us_per_op", "b_us_per_op", "ratio", "a_p50_us", "b_p50_us", "p50_ratio"))
        assert p["p50_ratio"] == pytest.approx(p["a_p50_us"] / p["b_p50_us"], rel=1e-3)
    assert summary["median_p50_ratio"] > 0
    assert not any(m.startswith(ab_ops.PACKAGES) for m in sys.modules)


def test_a_tree_whose_reports_differ_is_refused(tmp_path, capsys):
    changed = tmp_path / "su3kahler"
    shutil.copytree(ROOT / "src" / "su3kahler", changed, ignore=shutil.ignore_patterns("__pycache__"))
    cli = changed / "cli.py"
    text = cli.read_text()
    assert text.count('values) + "\\n"') == 1
    cli.write_text(text.replace('values) + "\\n"', 'values) + " \\n"'))
    argv = ["--a", str(ROOT / "src"), "--b", str(tmp_path), "--seed", "11", "--ops", "30", "--passes", "2"]
    assert ab_ops.main(argv) == 1
    out, err = capsys.readouterr()
    # every report differs by its last bytes, so each audit op of b misses its
    # golden digest; the first differing op and b's first failure alone are named
    assert err.count("outputs differ") == 1 and "outputs differ on op 0" in err
    assert err.count("gate fails") == 1 and "gate fails on op 0 of b: " in err
    lines = out.splitlines()
    assert [line.split(":")[0] for line in lines[:2]] == ["pass 0", "pass 1"]
    summary = json.loads(lines[-1])
    assert not summary["identical_outputs"] and summary["differing_ops"] == 30
    assert summary["gate_failures"] == {"a": 0, "b": 30}
    assert len(summary["passes"]) == 2 and all(p["b_us_per_op"] > 0 for p in summary["passes"])
    assert not any(m.startswith(ab_ops.PACKAGES) for m in sys.modules)


def test_the_certify_gate_runs_on_each_tree(tmp_path, capsys):
    """A copy whose verify passes nothing fails the certify gate on every
    op (exit 1), which the tree itself passes on every op."""
    changed = tmp_path / "su3kahler"
    shutil.copytree(ROOT / "src" / "su3kahler", changed, ignore=shutil.ignore_patterns("__pycache__"))
    cli = changed / "cli.py"
    text = cli.read_text()
    assert text.count("all_passed = condition_ok and") == 1
    cli.write_text(text.replace("all_passed = condition_ok and", "all_passed = False and"))
    argv = ["--a", str(tmp_path), "--b", str(ROOT / "src"), "--workload", "certify", "--seed", "11"]
    assert ab_ops.main([*argv, "--ops", "12", "--passes", "1"]) == 1
    out, err = capsys.readouterr()
    assert err.count("gate fails") == 1 and "gate fails on op 0 of a: exit 1: verify --config " in err
    summary = json.loads(out.splitlines()[-1])
    assert summary["gate_failures"] == {"a": 12, "b": 0} and summary["differing_ops"] == 12
    assert not any(m.startswith(ab_ops.PACKAGES) for m in sys.modules)
