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


class Op:
    """An op as ab_ops reads it: its category and command."""

    def __init__(self, category, index, command):
        self.category, self.index, self.command = category, index, command


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
    # the op count and ratio of each (category, command) of the ops, the
    # ratio the median over passes
    by_command = summary["by_command"]
    cells = [cell for commands in by_command.values() for cell in commands.values()]
    assert cells and all(cell["ratio"] > 0 and cell["ops"] >= 1 for cell in cells)
    assert sum(cell["ops"] for cell in cells) == 30
    assert {command for commands in by_command.values() for command in commands} <= {"check", "isotropy", "cohomology"}
    assert not any(m.startswith(ab_ops.PACKAGES) for m in sys.modules)


def test_by_command_is_the_ratio_of_each_command_s_mean_time():
    """Per (category, command), the count of its ops and the ratio of the
    two trees' summed (so mean) times over them, whatever the other ops
    take."""
    ops = [Op("bound2", 0, "check"), Op("bound2", 1, "isotropy"), Op("bound2", 2, "check"), Op("raw", 0, "check")]
    a, b = [2.0, 9.0, 4.0, 1.0], [1.0, 3.0, 2.0, 4.0]
    assert ab_ops._by_command(ops, (a, b)) == {
        "bound2": {"check": {"ops": 2, "ratio": 2.0}, "isotropy": {"ops": 1, "ratio": 3.0}},
        "raw": {"check": {"ops": 1, "ratio": 0.25}},
    }


def test_a_tree_whose_reports_differ_is_refused(tmp_path, capsys):
    changed = tmp_path / "su3kahler"
    shutil.copytree(ROOT / "src" / "su3kahler", changed, ignore=shutil.ignore_patterns("__pycache__"))
    cli = changed / "cli.py"
    text = cli.read_text()
    assert text.count('return text + "\\n"') == 1  # every report's last line
    cli.write_text(text.replace('return text + "\\n"', 'return text + " \\n"'))
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


def test_the_sweep_runs_each_tree_s_own_search(tmp_path, capsys):
    """Sweep ops are the benchmark's ``run_sweep_slice`` on each tree's
    modules: the tree against itself passes the sweep gate on every slice,
    while a copy whose stream flips every freeness verdict differs on, and
    fails the gate of, exactly the slices with a system. The workload
    module's own bindings are restored."""
    src = str(ROOT / "src")
    argv = ["--workload", "sweep", "--seed", "11", "--ops", "40", "--passes", "2"]
    assert ab_ops.main(["--a", src, "--b", src, *argv]) == 0
    summary = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert summary["workload"] == "sweep" and summary["differing_ops"] == 0
    assert summary["gate_failures"] == {"a": 0, "b": 0}
    assert [p["ratio"] > 0 for p in summary["passes"]] == [True, True]
    assert summary["by_command"]["slice"]["slice"]["ops"] == 40

    changed = tmp_path / "su3kahler"
    shutil.copytree(ROOT / "src" / "su3kahler", changed, ignore=shutil.ignore_patterns("__pycache__"))
    weights = changed / "weights.py"
    text = weights.read_text()
    assert text.count('fields["free"] = verdict') == 1
    weights.write_text(text.replace('fields["free"] = verdict', 'fields["free"] = not verdict'))
    assert ab_ops.main(["--a", src, "--b", str(tmp_path), *argv[:-2], "--passes", "1"]) == 1
    out, err = capsys.readouterr()
    summary = json.loads(out.splitlines()[-1])
    workloads = sys.modules["workloads"]
    golden = workloads.load_golden("sweep")
    ops = workloads.make_ops("sweep", golden, 11, 40)
    with_systems = sum(not golden["expected"][op.index].startswith("0:") for op in ops)
    assert 0 < with_systems < 40
    assert summary["differing_ops"] == with_systems
    assert summary["gate_failures"] == {"a": 0, "b": with_systems}
    assert err.count("outputs differ on op ") == 1 and err.count("gate fails on op ") == 1
    assert "of b: slice " in err
    assert workloads.weights.__name__ == "su3kahler.weights" and workloads.isotropy.__name__ == "su3kahler.isotropy"
    assert not any(m.startswith(ab_ops.PACKAGES) for m in sys.modules)
