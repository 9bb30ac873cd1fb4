"""The ``check`` and ``isotropy`` reports of data where the cone condition
holds, each written by one compiled template of its shape, against
``json.dumps(indent=2, sort_keys=True)`` of the report dict the library's
objects give (``conftest.library_report``): on every admissible config of
the benchmark's audit pool, on the same data given as cone data (weights
null, rational entries included), at several ``--interp-steps``, with
``--timing`` and with ``--out``."""

import importlib.util
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import admissible_systems, library_report
from su3kahler import cli
from su3kahler.cli import main

_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads", Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
)
workloads = sys.modules.get(_spec.name)
if workloads is None:
    workloads = importlib.util.module_from_spec(_spec)
    sys.modules[_spec.name] = workloads  # dataclasses look up their module while being built
    _spec.loader.exec_module(workloads)

ORBIFOLD_WEIGHTS = '{"wL": [[-1,1],[-1,1],[2,-2]], "wR": [[-4,1],[5,-5],[-1,4]]}'
ORBIFOLD_CONE = '{"A": [[1,0],[1,0],[2,-1]], "B": [[0,1],[0,1],[-1,2]]}'


def stdlib(report) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def printed(capsys, argv) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def admissible_pool_configs():
    """Every config of the audit pool's admissible categories."""
    golden = workloads.load_golden("audit")
    return [
        item if isinstance(item, str) else workloads.ws_config(item)
        for category in ("bound2", "bound3", "raw")
        for item in golden["categories"][category]["items"]
    ]


def test_every_admissible_audit_pool_config_prints_its_dict_form(capsys):
    configs = admissible_pool_configs()
    assert len(configs) == 3870  # 2856 bound-2, 1011 bound-3 and 3 README configs
    shapes = set()
    for config in configs:
        for command in ("check", "isotropy"):
            argv = (command, "--config", config)
            report = library_report(argv)
            assert printed(capsys, argv) == stdlib(report), argv
            results = report["results"]
            shapes.add((command, results["weights"] is None, results.get("freeness", {}).get("free")))
    # both commands, weights and cone data, and isotropy's free and orbifold shapes
    assert shapes == {
        ("check", False, None), ("check", True, None),
        *((("isotropy", cone, free) for cone in (False, True) for free in (False, True))),
    }


def as_cone_data(d, scale=1):
    """d's cone data as a config, every entry divided by scale and written
    as a "p/q" string where it is not an integer."""
    def entry(x):
        q = Fraction(x) / scale
        return q.numerator if q.denominator == 1 else f"{q.numerator}/{q.denominator}"

    return json.dumps({"A": [[entry(x) for x in v] for v in d.a], "B": [[entry(x) for x in v] for v in d.b]})


def test_cone_data_reports_print_their_dict_forms(capsys):
    """Every 5th admissible bound-2 system given as its cone data: the
    weights are null; divided by 6, the entries are rationals, which
    ``check`` reads and ``isotropy`` refuses (exit 2)."""
    for ws in admissible_systems(2)[::5]:
        config = as_cone_data(ws.derived)
        for command in ("check", "isotropy"):
            argv = (command, "--config", config)
            assert printed(capsys, argv) == stdlib(library_report(argv)), argv
        argv = ("check", "--config", as_cone_data(ws.derived, 6))
        assert printed(capsys, argv) == stdlib(library_report(argv)), argv
        assert main(["isotropy", "--config", as_cone_data(ws.derived, 6)]) == 2
        capsys.readouterr()


@pytest.mark.parametrize("steps", [1, 3, 8, 10000])
@pytest.mark.parametrize("config", [ORBIFOLD_WEIGHTS, ORBIFOLD_CONE])
def test_every_step_count_prints_its_dict_form(capsys, config, steps):
    argv = ("check", "--config", config, "--interp-steps", str(steps))
    assert printed(capsys, argv) == stdlib(library_report(argv))


@pytest.mark.parametrize("command", ["check", "isotropy"])
@pytest.mark.parametrize("config", [ORBIFOLD_WEIGHTS, ORBIFOLD_CONE])
def test_timing_and_out_print_the_dict_form(capsys, tmp_path, command, config):
    """--timing writes the measured wall time, nonzero, where the stable
    report has 0.0; --out writes the same bytes to its file."""
    out = tmp_path / "report.json"
    argv = ("--timing", "--out", str(out), command, "--config", config)
    text = printed(capsys, argv)
    wall = json.loads(text)["wall_time_s"]
    assert wall > 0 and text == stdlib(library_report(argv, wall)) == out.read_text()


def test_the_compiled_templates_are_built_on_first_use():
    """No compiled template is built at import: a fresh interpreter that
    imports the CLI holds none."""
    code = (
        "from su3kahler import cli; "
        "assert cli._check_template.cache_info().currsize == 0; "
        "assert cli._isotropy_template.cache_info().currsize == 0"
    )
    src = str(Path(cli.__file__).resolve().parent.parent)
    subprocess.run([sys.executable, "-c", code], check=True, env={"PYTHONPATH": src})
