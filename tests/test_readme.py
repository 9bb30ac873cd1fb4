"""The README's ``## Library`` block runs as written and gives the values
its comments state."""

import re
from fractions import Fraction
from pathlib import Path

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
