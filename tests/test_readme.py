"""The README's ``## Library`` block runs as written and gives the values
its comments state."""

import functools
import importlib
import inspect
import pkgutil
import re
from fractions import Fraction
from pathlib import Path

import pytest

from su3kahler import cli, enumerate_admissible_systems, weights

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block() -> str:
    text = README.read_text()
    section = text[text.index("## Library") :]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_block_runs_and_matches_its_comments():
    ns: dict = {}
    exec(compile(library_block(), "README.md", "exec"), ns)
    report = ns["report"]
    assert report.holds
    assert len(report.a_pairs) + len(report.b_pairs) + len(report.mixed_pairs) == 27
    assert report.level_set.apex_functional == (1, 1)
    assert all(g[0] + g[1] > 0 for g in ns["d"].generators())
    assert ns["verdict"].free is False and ns["verdict"].failing_pair == (3, 1, 2)
    assert len(ns["census"]) == 46
    assert len(ns["points"]) == 50
    p = ns["p"]
    assert list(p.z) == [1, 0, 0] and list(p.w) == [0, 1, 0]
    assert len(ns["certs"]) == 50 and all(c.passed for c in ns["certs"])
    assert ns["cert"] == ns["certs"][0]
    sol = ns["sol"]
    assert sol.scale == 3
    assert all(isinstance(x, Fraction) for v in sol.wl_rational + sol.wr_rational for x in v)
    assert sol.system.wl == ((-1, 1), (-1, 1), (2, -2))
    assert len(ns["systems"]) == 24 and all(ws.free for ws in ns["systems"])
    assert ns["betti"] == (1, 0, 0, 1, 0, 1, 0, 0, 1)
    assert ns["branch"] == (1, 2, 1)


def enumeration_table() -> dict[int, tuple[int, int, int]]:
    """(candidates, admissible systems, free) by bound, from the table after
    "Results of the search"."""
    text = README.read_text()
    section = text[text.index("Results of the search") :]
    rows = re.findall(r"^\| (\d+) \| (\d+) \| (\d+) \| (\d+) \|", section, re.M)
    return {int(b): (int(n), int(a), int(f)) for b, n, a, f in rows}


@pytest.mark.parametrize("bound", [1, 2, 3])
def test_enumeration_table_matches_the_stream(bound):
    """The table's counts are what enumerate_admissible_systems streams:
    every zero-sum pair of triples as candidates, the systems passing the
    cone condition, and those whose action is free."""
    candidates, admissible, free = enumeration_table()[bound]
    assert candidates == len(weights._weight_grid(bound)[0]) ** 2
    count = free_count = 0
    for ws in enumerate_admissible_systems(bound):
        count += 1
        free_count += ws.free
    assert (count, free_count) == (admissible, free)


# The README's --words that are not options: argparse's help, an
# abbreviation argparse refuses, a placeholder and pip's flag.
NOT_OPTIONS = {"--help", "--conf", "--flag", "--no-build-isolation"}


def test_every_flag_the_readme_names_is_an_option():
    """Every --flag in the README is an option of the CLI's table, or one
    of the listed non-options: prose about a removed option fails here."""
    options = {o.flag for o in cli._GLOBAL_OPTIONS}
    options |= {o.flag for command in cli._TABLE.values() for o in command.options}
    named = set(re.findall(r"--[a-zA-Z][a-zA-Z0-9-]*", README.read_text()))
    assert named - options - NOT_OPTIONS == set()
    assert NOT_OPTIONS <= named and not NOT_OPTIONS & options


MODULES = ("cli", "cohomology", "conegeom", "isotropy", "quadric", "weights")
# a backticked name qualified by one of the package's modules, optionally
# as su3kahler.module, and not part of a path such as perfbench/workloads.py
MODULE_NAME = re.compile(r"(?<![\w./])(?:su3kahler\.)?(?:%s)(?:\.[A-Za-z_]\w*)+" % "|".join(MODULES))
FILE_SUFFIX = re.compile(r"\.(?:py|json|md)$")


def test_every_qualified_name_the_readme_backticks_resolves():
    """Every backticked ``module.name[.attr]`` of the package's six
    modules resolves, and so does every ``Class.attr`` of a package class:
    prose about a removed function, field or attribute fails here. File
    names such as ``cli.py`` are not names."""
    spans = re.findall(r"`([^`\n]+)`", README.read_text())
    classes = {
        name: value
        for module in MODULES
        for name, value in vars(importlib.import_module(f"su3kahler.{module}")).items()
        if inspect.isclass(value) and value.__module__.startswith("su3kahler.")
    }
    class_name = re.compile(r"(?<![\w./])(?:%s)(?:\.[A-Za-z_]\w*)+" % "|".join(sorted(classes, key=len, reverse=True)))
    qualified = {name for span in spans for name in MODULE_NAME.findall(span) if not FILE_SUFFIX.search(name)}
    attributes = {name for span in spans for name in class_name.findall(span)}
    unresolved = []
    for name in qualified:
        try:
            pkgutil.resolve_name(name if name.startswith("su3kahler.") else f"su3kahler.{name}")
        except (AttributeError, ImportError):
            unresolved.append(name)
    for name in attributes:
        owner, *path = name.split(".")
        try:
            functools.reduce(getattr, path, classes[owner])
        except AttributeError:
            unresolved.append(name)
    assert len(qualified) > 20 and len(attributes) > 10
    assert sorted(unresolved) == []
