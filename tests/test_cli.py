import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import push_mixture_rows

import su3kahler
from su3kahler import cli
from su3kahler.cli import main
from su3kahler.weights import MAX_BOUND

ORBIFOLD_CONFIG = '{"wL": [[-1,1],[-1,1],[2,-2]], "wR": [[-4,1],[5,-5],[-1,4]]}'
STANDARD_CONFIG = '{"wL": [[0,0],[0,0],[0,0]], "wR": [[1,0],[0,1],[-1,-1]]}'
ZERO_CONFIG = '{"wL": [[0,0],[0,0],[0,0]], "wR": [[0,0],[0,0],[0,0]]}'
ORBIFOLD_CONE = '{"A": [[1,0],[1,0],[2,-1]], "B": [[0,1],[0,1],[-1,2]]}'


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def last_json(out):
    # enumerate streams NDJSON lines before the indented report
    start = out.index('{\n  "command"')
    return json.loads(out[start:])


def test_check_orbifold_example_passes(capsys):
    code, out = run(capsys, "check", "--config", ORBIFOLD_CONFIG)
    report = json.loads(out)
    assert code == 0 and report["pass"]
    cond = report["results"]["condition"]
    assert cond["holds"]
    assert all(v["status"] == "outside" for v in cond["A_pairs"].values())
    assert all(v["status"] == "outside" for v in cond["B_pairs"].values())
    assert all(v["status"] != "outside" for v in cond["mixed_pairs"].values())
    assert report["results"]["interpolation"]["ok"]


def test_check_zero_fails(capsys):
    code, out = run(capsys, "check", "--config", ZERO_CONFIG)
    report = json.loads(out)
    assert code == 1 and not report["pass"]
    assert report["results"]["interpolation"] is None


def test_check_missing_key_exits_2(capsys):
    code, out = run(capsys, "check", "--config", '{"wL": [[0,0],[0,0],[0,0]]}')
    assert code == 2
    assert "error" in json.loads(out)["results"]


def test_check_malformed_json_exits_2(capsys):
    code, _ = run(capsys, "check", "--config", "{not json")
    assert code == 2


def test_check_missing_file_exits_2(capsys):
    code, _ = run(capsys, "check", "--config", "/nonexistent/path.json")
    assert code == 2


def test_check_directory_config_exits_2(tmp_path, capsys):
    code, out = run(capsys, "check", "--config", str(tmp_path))
    assert code == 2
    assert "error" in json.loads(out)["results"]


def test_check_nonpositive_interp_steps_exit_2(capsys):
    for steps in ("0", "-3"):
        code, out = run(capsys, "check", "--interp-steps", steps, "--config", ORBIFOLD_CONFIG)
        assert code == 2
        assert "interp-steps" in json.loads(out)["results"]["error"]


def test_check_non_integer_weights_exit_2(capsys):
    for config in (
        '{"wL": [[-1.5,1],[-1,1],[2,-2]], "wR": [[-4,1],[5,-5],[-1,4]]}',
        '{"wL": [[-1,true],[-1,1],[2,-2]], "wR": [[-4,1],[5,-5],[-1,4]]}',
        '{"A": [[true,0],[1,0],[2,-1]], "B": [[0,1],[0,1],[-1,2]]}',
    ):
        code, out = run(capsys, "check", "--config", config)
        assert code == 2
        assert "error" in json.loads(out)["results"]


USAGE_ERRORS = [
    (["check"], "check", "the following arguments are required: --config"),
    (["check", "--interp-steps", "x"], "check", "argument --interp-steps: invalid int value: 'x'"),
    (["--timing", "verify", "--config", "{}", "--samples"], "verify", "argument --samples: expected one argument"),
    (["bogus"], None, "argument command: invalid choice: 'bogus'"),
    (["--out", "check"], None, "the following arguments are required: command"),
    ([], None, "the following arguments are required: command"),
]


def test_usage_error_exits_2(capsys):
    """A usage error ends in one envelope on stdout with argparse's message,
    the command argparse reached (null before it reaches one) and an empty
    config; nothing goes to stderr."""
    for argv, command, error in USAGE_ERRORS:
        assert main(argv) == 2
        captured = capsys.readouterr()
        report = json.loads(captured.out)  # exactly one JSON document
        assert set(report) == {"command", "config", "pass", "results", "wall_time_s"}
        assert report["command"] == command and report["config"] == {} and report["pass"] is False
        assert set(report["results"]) == {"error"} and report["results"]["error"].startswith(error)
        assert report["wall_time_s"] == 0.0 and captured.err == ""


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["verify", "--help"], ["check", "-h"]])
def test_help_goes_to_stdout_and_exits_0(capsys, argv):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: su3kahler") and captured.err == ""


def test_isotropy_orbifold_cone_data(capsys):
    code, out = run(capsys, "isotropy", "--config", ORBIFOLD_CONE)
    report = json.loads(out)
    assert code == 0
    assert report["results"]["classification"] == "OrbifoldCase"
    orders = [
        e["isotropy"]["order"]
        for e in report["results"]["census"]
        if len(e["I"]) == 1 and len(e["J"]) == 1
    ]
    assert sorted(orders) == [1, 1, 2, 2, 2, 2]


def test_isotropy_scaled_weights(capsys):
    # the displayed integer homomorphisms carry a common factor of three,
    # so every stabilizer of that parametrization contains (Z/3)^2
    code, out = run(capsys, "isotropy", "--config", ORBIFOLD_CONFIG)
    report = json.loads(out)
    assert code == 0
    assert report["results"]["classification"] == "OrbifoldCase"
    singleton = {
        (e["I"][0], e["J"][0]): e["isotropy"]
        for e in report["results"]["census"]
        if len(e["I"]) == 1 and len(e["J"]) == 1
    }
    assert singleton[(1, 2)]["factors"] == [3, 3]
    assert singleton[(3, 1)]["factors"] == [3, 6]


def test_isotropy_standard(capsys):
    code, out = run(capsys, "isotropy", "--config", STANDARD_CONFIG)
    report = json.loads(out)
    assert code == 0
    assert report["results"]["classification"] == "FreeFlagCase"
    assert report["results"]["freeness"]["free"]


def test_isotropy_without_condition_exits_1(capsys):
    code, _ = run(capsys, "isotropy", "--config", ZERO_CONFIG)
    assert code == 1


def test_verify_small_run(capsys):
    code, out = run(capsys, "verify", "--config", ORBIFOLD_CONFIG, "--samples", "10")
    report = json.loads(out)
    assert code == 0 and report["results"]["all_passed"]
    assert len(report["results"]["certificates"]) == 10
    assert "boundedness_residual" not in report["results"]


def test_verify_zero_samples_exits_2(capsys):
    code, _ = run(capsys, "verify", "--config", ORBIFOLD_CONFIG, "--samples", "0")
    assert code == 2


def test_counts_above_their_ceilings_exit_2_before_reading_the_config(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("read the config despite a count above its ceiling")

    monkeypatch.setattr(cli, "_problem", refuse)
    for flag, ceiling in (("--samples", cli.MAX_SAMPLES), ("--interp-steps", cli.MAX_INTERP_STEPS)):
        command = "verify" if flag == "--samples" else "check"
        code, out = run(capsys, command, "--config", ORBIFOLD_CONFIG, flag, str(ceiling + 1))
        report = json.loads(out)
        assert code == 2 and not report["pass"]
        assert report["results"] == {"error": f"{flag} must be <= {ceiling}"}


def test_counts_at_their_ceilings_are_accepted(capsys):
    steps = cli.MAX_INTERP_STEPS
    code, out = run(capsys, "check", "--config", ORBIFOLD_CONFIG, "--interp-steps", str(steps))
    interpolation = json.loads(out)["results"]["interpolation"]
    assert code == 0 and interpolation["ok"]
    assert interpolation["times"][:2] == ["0", f"1/{steps}"] and len(interpolation["times"]) == steps + 1
    # C = 0 is no positive combination of independent A_i and B_j = -A_j:
    # no fixed point, yet the diagonals' centroid meets Phi = C, so every
    # point is a pulled mixture; the cone condition fails, so exit 1
    no_seed = '{"A": [[1,0],[0,1],[-1,-1]], "B": [[-1,0],[0,-1],[1,1]]}'
    code, out = run(capsys, "verify", "--config", no_seed, "--samples", str(cli.MAX_SAMPLES))
    results = json.loads(out)["results"]
    assert code == 1 and "error" not in results and results["cone_condition"] is False
    assert len(results["certificates"]) == cli.MAX_SAMPLES


def test_verify_without_condition_exits_1(capsys):
    code, out = run(capsys, "verify", "--config", ZERO_CONFIG, "--samples", "4")
    assert code == 1
    assert not json.loads(out)["results"]["cone_condition"]


def test_verify_reports_irregular_points(capsys):
    # dependent orbit fields (A_i parallel to B_j) break constraint regularity
    bad = '{"A": [[1,0],[1,0],[1,0]], "B": [[1,0],[1,0],[1,0]]}'
    code, out = run(capsys, "verify", "--config", bad, "--samples", "4")
    report = json.loads(out)
    assert code == 1 and not report["pass"]
    assert all(not c["regular"] for c in report["results"]["certificates"])


def test_generate_orbifold_example(capsys):
    code, out = run(capsys, "generate", "--config", ORBIFOLD_CONE)
    report = json.loads(out)
    assert code == 0
    res = report["results"]
    assert res["scale"] == 3
    assert res["integer"]["wL"] == [[-1, 1], [-1, 1], [2, -2]]
    assert res["integer"]["wR"] == [[-4, 1], [5, -5], [-1, 4]]
    assert res["rho_L"] == ["t1^-1 t2", "t1^-1 t2", "t1^2 t2^-2"]
    assert res["rho_R"] == ["t1^-4 t2", "t1^5 t2^-5", "t1^-1 t2^4"]


def test_generate_inconsistent_exits_2(capsys):
    bad = '{"A": [[1,0],[1,0],[1,0]], "B": [[0,1],[0,1],[9,9]]}'
    code, _ = run(capsys, "generate", "--config", bad)
    assert code == 2


def test_enumerate_bound0(capsys):
    code, out = run(capsys, "enumerate", "--bound", "0")
    report = last_json(out)
    assert code == 0 and report["results"]["count"] == 0


def test_enumerate_bound1_stream(capsys):
    code, out = run(capsys, "enumerate", "--bound", "1")
    lines = [l for l in out.splitlines() if l.startswith('{"')]
    report = last_json(out)
    assert code == 0
    assert report["results"]["count"] == 24 == len(lines)
    first = json.loads(lines[0])
    assert set(first) == {"wL", "wR", "free", "classification"}


def test_enumerate_deterministic_output(capsys):
    _, out1 = run(capsys, "enumerate", "--bound", "1")
    _, out2 = run(capsys, "enumerate", "--bound", "1")
    assert out1 == out2


def test_closed_stdout_ends_quietly():
    """A reader that closes the pipe early (`su3kahler enumerate | head -1`)
    ends the command with exit 1 and no traceback. Bound 2 writes 336753
    bytes, more than a pipe buffers, so the writer meets the closed pipe."""
    src = str(Path(su3kahler.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    argv = [sys.executable, "-m", "su3kahler.cli", "enumerate", "--bound", "2"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    first = proc.stdout.readline()
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert first.startswith(b'{"classification": ') and first.endswith(b"}\n")
    assert b"Traceback" not in stderr, stderr.decode()


def test_enumerate_negative_bound_exits_2(capsys):
    code, _ = run(capsys, "enumerate", "--bound", "-1")
    assert code == 2


def test_enumerate_bound_past_max_bound_exits_2(capsys):
    """A bound whose grid would not fit in memory (bound 64 would also
    leave int16) ends in the envelope, not in a MemoryError."""
    code, out = run(capsys, "enumerate", "--bound", "64")
    assert code == 2
    report = json.loads(out)
    assert report["results"] == {"error": f"bound must be <= {MAX_BOUND}"} and report["pass"] is False


def test_cohomology_default(capsys):
    code, out = run(capsys, "cohomology")
    report = json.loads(out)
    assert code == 0
    res = report["results"]
    assert res["basic_betti"] == [1, 0, 2, 0, 2, 0, 1]
    assert res["derham_betti"] == [1, 0, 0, 1, 0, 1, 0, 0, 1]
    assert res["derham_matches_su3"]
    assert res["hodge"]["branch"] == [0, 0, 0]


def test_cohomology_branches(capsys):
    _, out_g = run(capsys, "cohomology", "--branch", "generic")
    _, out_d = run(capsys, "cohomology", "--branch", "degenerate")
    assert json.loads(out_g)["results"]["hodge"]["branch"] == [0, 0, 0]
    assert json.loads(out_d)["results"]["hodge"]["branch"] == [1, 2, 1]


def test_cohomology_explicit_beta(capsys):
    code, out = run(capsys, "cohomology", "--beta", "1/2,-3/7")
    assert code == 0
    assert json.loads(out)["results"]["hodge"]["branch"] == [0, 0, 0]


def test_cohomology_computes_the_derham_betti_numbers_once(capsys, monkeypatch):
    """The de Rham Betti numbers of the data-free model are a constant: the
    first cohomology command of a process computes them, and later ones,
    whatever their branch or beta, print the same bytes without doing so."""
    from su3kahler import cohomology

    calls = []
    real = cohomology.dga_cohomology

    def counted(model):
        calls.append(model)
        return real(model)

    monkeypatch.setattr(cohomology, "dga_cohomology", counted)
    cohomology._derham_betti.cache_clear()
    outs = [run(capsys, "cohomology", *argv) for argv in ((), ("--branch", "degenerate"), ("--beta", "1/2,-3/7"), ())]
    assert len(calls) == 1 and outs[0] == outs[-1]
    assert [json.loads(out)["results"]["derham_betti"] for _, out in outs] == [[1, 0, 0, 1, 0, 1, 0, 0, 1]] * 4
    cohomology._derham_betti.cache_clear()


def test_cohomology_refuses_beta_with_the_degenerate_branch(capsys):
    """The degenerate branch fixes beta, so a --beta beside it is refused
    in the envelope, naming both flags, rather than read as the generic
    branch; --beta with the generic branch stays valid."""
    for argv in (("--branch", "degenerate", "--beta", "1,1"), ("--beta=1/2,-3/7", "--branch", "degenerate")):
        code, out = run(capsys, "cohomology", *argv)
        report = json.loads(out)
        assert code == 2 and report["pass"] is False and report["command"] == "cohomology"
        assert report["config"]["branch"] == "degenerate" and report["config"]["beta"] in ("1,1", "1/2,-3/7")
        error = report["results"]["error"]
        assert set(report["results"]) == {"error"} and "--beta" in error and "--branch degenerate" in error
    code, out = run(capsys, "cohomology", "--branch", "generic", "--beta", "1,1")
    assert code == 0 and json.loads(out)["results"]["hodge"]["branch"] == [0, 0, 0]

def test_cohomology_zero_beta_exits_2(capsys):
    code, _ = run(capsys, "cohomology", "--beta", "0,0")
    assert code == 2


def test_report_envelope_and_rerun_identical(capsys):
    code, out1 = run(capsys, "check", "--config", STANDARD_CONFIG)
    report = json.loads(out1)
    assert set(report) == {"command", "config", "pass", "results", "wall_time_s"}
    assert report["wall_time_s"] == 0.0  # stable bytes without --timing
    _, out2 = run(capsys, "check", "--config", STANDARD_CONFIG)
    assert out1 == out2


def test_timing_flag_reports_time(capsys):
    _, out = run(capsys, "--timing", "check", "--config", STANDARD_CONFIG)
    assert json.loads(out)["wall_time_s"] > 0.0


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = run(capsys, "--out", str(target), "check", "--config", STANDARD_CONFIG)
    assert code == 0
    assert target.read_text() == out


def test_out_in_missing_directory_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    code, out = run(capsys, "--out", str(target), "cohomology")
    assert code == 2
    report = json.loads(out)  # exactly one JSON document
    assert not report["pass"] and report["command"] == "cohomology"
    assert set(report["results"]) == {"error"}
    assert "cannot write --out" in report["results"]["error"]
    assert not target.exists()


def test_out_at_directory_path_exits_2(tmp_path, capsys):
    code, out = run(capsys, "--out", str(tmp_path), "check", "--config", STANDARD_CONFIG)
    assert code == 2
    report = json.loads(out)
    assert not report["pass"]
    assert str(tmp_path) in report["results"]["error"]


# --- option table and cached parser ---------------------------------------------------


def test_cached_parser_output_matches_fresh_parsers(capsys, monkeypatch):
    """One process, one parser: several subcommands with usage errors in
    between print exactly what a freshly built parser makes them print with
    the option table switched off. The table reads the argv written in its
    plain grammar; argparse reads the rest."""
    argvs = [
        ("check", "--config", ORBIFOLD_CONFIG),
        ("isotropy", "--config", ORBIFOLD_CONE),
        ("verify", "--config", ORBIFOLD_CONE, "--samples", "8"),
        ("verify", "--samples", "x"),
        ("cohomology", "--branch", "degenerate"),
        ("check", "--config", ZERO_CONFIG, "--interp-steps", "3"),
        ("cohomology", "--branch=degenerate"),
        ("enumerate", "--bound", "1"),
    ]
    read = []
    table = cli._read_argv

    def recorded(argv):
        args = table(argv)
        read.append(args is not None)
        return args

    monkeypatch.setattr(cli, "_read_argv", recorded)
    cached = [run(capsys, *argv) for argv in argvs]
    assert read == [True, True, True, False, True, True, False, True]
    assert [code for code, _ in cached] == [0, 0, 0, 2, 0, 1, 0, 0]
    assert cached[6] == cached[4]  # --branch=degenerate, read by argparse

    fresh = []
    monkeypatch.setattr(cli, "_read_argv", lambda argv: None)
    for argv in argvs:
        cli._parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert cached == fresh


# --- one freeness pass ---------------------------------------------------------------


def test_isotropy_classifies_in_the_freeness_pass(capsys, monkeypatch):
    from su3kahler import cli

    code, expected = run(capsys, "isotropy", "--config", ORBIFOLD_CONFIG)

    def refuse(ws):
        raise AssertionError("classify_quotient re-run")

    monkeypatch.setattr(cli.iso, "classify_quotient", refuse)
    assert run(capsys, "isotropy", "--config", ORBIFOLD_CONFIG) == (code, expected)
    assert json.loads(expected)["results"]["classification"] == "OrbifoldCase"


def test_isotropy_gates_its_cone_data_once(capsys, monkeypatch):
    """The data's one integer gate is its sign table, whose scale is 1
    exactly on integer data: no entry goes through ``_as_int`` (the next
    test pins one sign table per op)."""
    from su3kahler import conegeom, isotropy, weights

    gated = []
    original = conegeom._as_int

    def counted(x):
        gated.append(x)
        return original(x)

    for module in (conegeom, weights, isotropy):
        if vars(module).get("_as_int") is original:
            monkeypatch.setattr(module, "_as_int", counted)
    code, out = run(capsys, "isotropy", "--config", ORBIFOLD_CONFIG)
    assert code == 0 and json.loads(out)["results"]["census"]
    assert gated == []


def test_isotropy_derives_and_decides_once(capsys, monkeypatch):
    """One derive, one sign table and one decision of the cone condition
    per isotropy op: the census, the freeness check and the condition read
    the same table."""
    from su3kahler import weights

    calls = {"derive": 0, "SignTable": 0, "_holds": 0}
    for module, name in ((weights, "derive"), (weights, "SignTable")):
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(module, name, counted)
    decide = weights.DerivedConeData._holds.func

    def counted_decision(self):
        calls["_holds"] += 1
        return decide(self)

    holds = weights._fact(counted_decision)
    holds.__set_name__(weights.DerivedConeData, "_holds")
    monkeypatch.setattr(weights.DerivedConeData, "_holds", holds)
    for config in (ORBIFOLD_CONFIG, STANDARD_CONFIG):
        calls.update(dict.fromkeys(calls, 0))
        code, out = run(capsys, "isotropy", "--config", config)
        assert code == 0 and json.loads(out)["results"]["freeness"]["classification_consistent"]
        assert calls == {"derive": 1, "SignTable": 1, "_holds": 1}


def test_admissible_reports_decide_no_membership(capsys, monkeypatch):
    """Where the condition holds, the nine-sign corollary gives every
    membership and witness from the nine crosses: check, isotropy and
    verify on the README's weight system call SignTable.decide 0 times
    (26, 6 and 6 when each pair was decided). The all-zero system fails
    the condition, and its check decides all 27 memberships."""
    from su3kahler import conegeom

    calls = []
    original = conegeom.SignTable.decide

    def counted(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(conegeom.SignTable, "decide", counted)
    for argv, expected in (
        (("check", "--config", ORBIFOLD_CONFIG), 0),
        (("isotropy", "--config", ORBIFOLD_CONFIG), 0),
        (("verify", "--config", ORBIFOLD_CONFIG, "--samples", "5"), 0),
        (("check", "--config", ZERO_CONFIG), 27),
    ):
        calls.clear()
        code, out = run(capsys, *argv)
        assert json.loads(out)["command"] == argv[0]
        assert code == (1 if argv[-1] == ZERO_CONFIG else 0)
        assert len(calls) == expected


# --- verify: tolerances and scale ----------------------------------------------------


def test_verify_refuses_a_row_pushed_past_its_rounding_bound(capsys, monkeypatch):
    """A sample row's |Phi - C| is rounding alone, and a row that misses
    its rounding bound is refused: with mixture rows 3 and 5 of each round
    pushed, the 20-point sample of the orbifold data (6 fixed points, then
    mixtures) fails at its row 9, the lowest failing one, with exit 1."""
    argv = ("verify", "--config", ORBIFOLD_CONE, "--samples", "20")
    code, out = run(capsys, *argv)
    assert code == 0 and json.loads(out)["pass"]
    push_mixture_rows(monkeypatch, 1 + 2.0**-20, 3, 5)
    code, out = run(capsys, *argv)
    results = json.loads(out)["results"]
    assert code == 1 and list(results) == ["cone_condition", "error"]
    assert results["error"].startswith("sampling failed: point misses the level set: row 9, |Phi - C| = ")


def test_verify_validates_every_returned_row_and_no_other(capsys, monkeypatch):
    """The round data's fixed points, the vertices r_i = 1 = s_j, meet the
    bound with |Phi - C| = 0.0. With mixture rows 0 and 4 of each round
    pushed past the bound, a 6-point sample draws no mixture and passes,
    and a 30-point sample fails at row 6, its first mixture."""
    round_cone = '{"A": [[1,0],[1,0],[1,0]], "B": [[0,1],[0,1],[0,1]]}'
    push_mixture_rows(monkeypatch, 1 + 2.0**-20, 0, 4)
    code, out = run(capsys, "verify", "--config", round_cone, "--samples", "6", "--seed", "3")
    assert code == 0 and json.loads(out)["pass"]
    code, out = run(capsys, "verify", "--config", round_cone, "--samples", "30", "--seed", "3")
    results = json.loads(out)["results"]
    assert code == 1 and results["error"].startswith("sampling failed: point misses the level set: row 6, ")


def test_verify_pulls_every_failing_mixture_within_the_round_bound(capsys, monkeypatch):
    """A witness coefficient near 1e200 puts t_1 = r_1 s_1 of most
    mixtures near 1e200 too, so Heron's value overflows, and an H that is
    not finite fails the test. Each failing row is pulled halfway to the
    diagonals' centroid, again and again: the _mixtures calls, one per
    round, on ever fewer rows, stay within the README's bound
    1 + ceil(log2(16 V)) for V the largest vertex coordinate. The data
    fail the cone condition, so verify returns all 20 certificates and
    exits 1 with no error."""
    import math

    from su3kahler import quadric

    n = 10**200
    a = [[1, 0], [n, 1], [0, 1]]
    b = [[-x, n - y] for x, y in a]  # A_i + B_i = C = (0, n)
    config = json.dumps({"A": a, "B": b})
    rows = []
    real = quadric._mixtures

    def counted(weights, vertices):
        rows.append(len(weights))
        return real(weights, vertices)

    monkeypatch.setattr(quadric, "_mixtures", counted)
    code, out = run(capsys, "verify", "--config", config, "--samples", "20")
    results = json.loads(out)["results"]
    assert code == 1 and "error" not in results and results["cone_condition"] is False
    assert len(results["certificates"]) == 20
    fd = quadric._weight_arrays(cli._problem(config)[1])
    m, top = len(fd.vertices) - 3, float(fd.vertices.max())
    assert top > 1e199 and rows[0] == 20 - m and rows == sorted(rows, reverse=True)
    assert 600 < len(rows) <= 1 + math.ceil(math.log2(16 * top))


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--seed", "-1"),
        ("--tol", "nan"),  # the removed --tol, whatever its value
        ("--tol", "-1"),
        ("--tol", "0"),
        ("--tol", "inf"),
        ("--tol", "1e-9"),  # its former default
        ("--tol=1e-9", None),
        ("--tol-zero", "nan"),
        ("--tol-zero", "-0.5"),
        ("--tol-pos", "inf"),
        ("--tol-pos", "0"),
        ("--tol-zero", "1e-8"),  # the removed options' former defaults
        ("--tol-pos", "1e-6"),
    ],
)
def test_verify_usage_errors_exit_2_before_sampling(capsys, monkeypatch, flag, value):
    """A bad --seed, and the removed --tol, --tol-zero and --tol-pos,
    whatever their value and spelling, end in the usage envelope: a
    sample row is accepted against its proven rounding bound, which no
    option sets, and a certificate no longer measures a spectrum."""
    from su3kahler import quadric

    def refuse(*args, **kwargs):
        raise AssertionError("sampled despite a usage error")

    monkeypatch.setattr(quadric, "certification_sample", refuse)
    given = (flag,) if value is None else (flag, value)
    code, out = run(capsys, "verify", "--config", ORBIFOLD_CONE, *given)
    report = json.loads(out)
    assert code == 2 and not report["pass"]
    removed = flag.startswith("--tol")
    want = f"unrecognized arguments: {' '.join(given)}" if removed else f"{flag} must be "
    assert report["results"]["error"].startswith(want)


@pytest.mark.parametrize(
    "a, b",
    [
        ([[10**400, 0]] * 3, [[0, 1]] * 3),  # entries past the float range
        ([[10**200, 0]] * 3, [[10**200, 0]] * 3),  # one ray: in range, the control
    ],
    ids=["entries", "apex"],
)
def test_verify_rejects_cone_data_outside_the_float_range(capsys, monkeypatch, a, b):
    """Entries past the float range end in the usage envelope before
    sampling. The apex case is the control: every generator (10^200, 0),
    so the apex functional (10^200, 0) times the moment scale 2 * 10^200
    is past the float range, but verify converts no apex functional and
    every number it does convert is finite. It is sampled, the cone
    condition fails and every point's support spans the ray alone: rank 3,
    exit 1."""
    from su3kahler import quadric

    config = json.dumps({"A": a, "B": b})
    if a[0][0] == 10**200:
        assert main(["verify", "--config", config, "--samples", "5"]) == 1
        captured = capsys.readouterr()
        results = json.loads(captured.out)["results"]
        assert captured.err == "" and results["cone_condition"] is False and results["all_passed"] is False
        assert [c["jacobian_rank"] for c in results["certificates"]] == [3] * 5
        return

    def refuse(*args, **kwargs):
        raise AssertionError("sampled cone data outside the float range")

    monkeypatch.setattr(quadric, "certification_sample", refuse)
    assert main(["verify", "--config", config]) == 2
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert not report["pass"] and captured.err == ""
    assert report["results"]["error"].startswith("cone data outside the float range: ")


def test_valid_verify_samples_once_through_the_patched_name(capsys, monkeypatch):
    """The two tests above refuse ``quadric.certification_sample``; they
    guard the path verify takes because a valid verify enters there,
    exactly once."""
    from su3kahler import quadric

    calls = []
    real = quadric.certification_sample

    def counted(*args, **kwargs):
        calls.append(args[1:])
        return real(*args, **kwargs)

    monkeypatch.setattr(quadric, "certification_sample", counted)
    code, out = run(capsys, "verify", "--config", ORBIFOLD_CONE, "--samples", "7", "--seed", "3")
    assert code == 0 and json.loads(out)["pass"]
    assert calls == [(7, 3)]


def test_verify_is_invariant_under_rescaling_the_cone_data(capsys):
    ranks = []
    for scale in (1, 10**3, 10**4, 10**6):
        a = [[scale * x for x in v] for v in ([1, 0], [1, 0], [2, -1])]
        b = [[scale * x for x in v] for v in ([0, 1], [0, 1], [-1, 2])]
        config = json.dumps({"A": a, "B": b})
        code, out = run(capsys, "verify", "--config", config, "--samples", "30", "--seed", "4")
        results = json.loads(out)["results"]
        assert code == 0 and results["all_passed"], scale
        ranks.append([(c["jacobian_rank"], c["combined_rank"], c["pass"]) for c in results["certificates"]])
    assert ranks == [[(4, 10, True)] * 30] * 4


def test_verify_passes_on_data_scaled_to_the_float_limit(capsys):
    """The orbifold data times 10^k, up to 10^307, pass the range check,
    and verify certifies them as at k = 0: exit 0, nothing on stderr (a
    numpy warning is an error in this suite), the k = 0 ranks and margins
    within 1e-15 relative. The moment residual |Phi - C| of such data is
    near 1e284: it is one hypot, not the square root of squares that
    overflowed to inf for k >= 170."""
    runs = {}
    for k in (0, 160, 170, 200, 300, 307):
        a = [[10**k * x for x in v] for v in ([1, 0], [1, 0], [2, -1])]
        b = [[10**k * x for x in v] for v in ([0, 1], [0, 1], [-1, 2])]
        code = main(["verify", "--config", json.dumps({"A": a, "B": b}), "--samples", "20"])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, ""), k
        certificates = json.loads(captured.out)["results"]["certificates"]
        runs[k] = [(c["jacobian_rank"], c["regularity_margin"]) for c in certificates]
    base = runs.pop(0)
    assert len(base) == 20
    for k, certs in runs.items():
        assert [r for r, _ in certs] == [r for r, _ in base], k
        assert all(abs(m - m0) <= 1e-15 * m0 for (_, m), (_, m0) in zip(certs, base)), k


# An admissible bound-1000 system whose A_i and B_j are nearly parallel in
# pairs. Its worst-conditioned certificate is the sixth point, the fixed
# point (3, 2) itself (x_32 = 63): the Jacobian's sigma_min/sigma_max is
# 5.7e-5 there. That point is regular, so by the README's proposition it
# certifies, as every other point does.
THIN_SYSTEM = '{"wL": [[54,157],[-105,-386],[51,229]], "wR": [[654,942],[-873,-939],[219,-3]]}'


def test_thin_system_meets_the_cone_condition(capsys):
    code, out = run(capsys, "check", "--config", THIN_SYSTEM)
    assert code == 0 and json.loads(out)["results"]["condition"]["holds"]


def test_thin_system_passes_verify(capsys):
    code, out = run(capsys, "verify", "--config", THIN_SYSTEM, "--samples", "50", "--seed", "12")
    certs = json.loads(out)["results"]["certificates"]
    assert code == 0 and json.loads(out)["results"]["all_passed"]
    assert min(range(50), key=lambda k: certs[k]["regularity_margin"]) == 5
    assert 5.7e-5 <= certs[5]["regularity_margin"] < 5.8e-5


# --- a run under the development mode ---------------------------------------------


def test_cli_under_dev_mode_writes_one_envelope_and_no_stderr(tmp_path):
    """`python -X dev -W error -m su3kahler.cli` (resource and deprecation
    warnings as errors) on check, isotropy, a small verify, --out and a
    usage error: one envelope on stdout, nothing on stderr."""
    src = str(Path(su3kahler.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    target = tmp_path / "report.json"
    runs = [
        (["check", "--config", ORBIFOLD_CONFIG], 0),
        (["isotropy", "--config", ORBIFOLD_CONE], 0),
        (["verify", "--config", ORBIFOLD_CONE, "--samples", "3"], 0),
        (["--out", str(target), "cohomology"], 0),
        (["check", "--interp-steps", "x"], 2),
    ]
    stdout = {}
    for argv, code in runs:
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-m", "su3kahler.cli", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (code, ""), argv
        report = json.loads(proc.stdout)  # exactly one JSON document
        assert set(report) == {"command", "config", "pass", "results", "wall_time_s"}
        stdout[argv[-1]] = proc.stdout
    assert target.read_text() == stdout["cohomology"]
