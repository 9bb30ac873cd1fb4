"""The report text against ``json.dumps(indent=2, sort_keys=True)``: the
value writer ``cli._text`` at several indents, and every command's report
as ``cli._report_text`` writes it."""

import gc
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from su3kahler import cli
from su3kahler import isotropy as iso
from su3kahler import quadric as quad
from su3kahler import weights as wt

ORBIFOLD_WEIGHTS = '{"wL": [[-1,1],[-1,1],[2,-2]], "wR": [[-4,1],[5,-5],[-1,4]]}'


def stdlib(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def at(obj, nl) -> str:
    """The stdlib's text of obj on a line whose newline and indentation is nl."""
    return json.dumps(obj, indent=2, sort_keys=True).replace("\n", nl)


def outcome(encode, obj):
    """The text, or the exception type when encoding raises."""
    try:
        return encode(obj)
    except TypeError:
        return TypeError


indents = st.integers(0, 5).map(lambda k: "\n" + "  " * k)
floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e-300, 5e-324, 1.7976931348623157e308]),
)
texts = st.one_of(
    st.text(),
    st.text(st.characters(max_codepoint=0x1F)),  # control characters
    st.text(st.characters(min_codepoint=0x80)),  # non-ASCII, astral planes included
)
leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**200), max_value=2**200),
    floats,
    floats.map(np.float64),
    texts,
)
trees = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(texts, children, max_size=4),
    ),
    max_leaves=30,
)


@given(trees, indents)
@settings(max_examples=80, deadline=None)
def test_encoder_matches_stdlib_bytes(tree, nl):
    assert cli._text(tree, nl) == at(tree, nl)


@given(leaves, indents)
@settings(max_examples=200, deadline=None)
def test_leaves_match_stdlib_bytes(leaf, nl):
    """The leaves _text writes itself, at any indent."""
    assert cli._text(leaf, nl) == at(leaf, nl)


@given(
    st.one_of(
        st.dictionaries(st.integers(), leaves, max_size=4),
        st.dictionaries(floats.filter(lambda x: x == x), leaves, max_size=4),
        st.dictionaries(st.one_of(st.none(), st.booleans()), leaves, max_size=3),
        st.dictionaries(st.one_of(st.integers(), texts), leaves, max_size=4),
    ),
    indents,
)
@settings(max_examples=100, deadline=None)
def test_encoder_matches_stdlib_on_non_string_keys(tree, nl):
    # the stdlib writes int, float, bool and None keys as strings, and
    # raises TypeError when sort_keys meets keys of types it cannot order
    assert outcome(lambda o: cli._text(o, nl), tree) == outcome(lambda o: at(o, nl), tree)


@given(trees, st.integers(-(2**63), 2**63 - 1))
@settings(max_examples=40, deadline=None)
def test_numpy_int64_raises_like_stdlib(tree, x):
    for obj in ([tree, np.int64(x)], {"a": tree, "b": {"c": np.int64(x)}}, np.int64(x)):
        with pytest.raises(TypeError):
            stdlib(obj)
        with pytest.raises(TypeError, match="int64 is not JSON serializable"):
            cli._text(obj, "\n")


def test_empty_containers_and_nesting():
    tree = {"a": [], "b": {}, "c": [[], {}, ()], "d": {"e": {"f": []}}, "": ()}
    for nl in ("\n", "\n    "):
        assert cli._text(tree, nl) == at(tree, nl)
        assert cli._text([], nl) == "[]"
        assert cli._text({}, nl) == "{}"


def test_unsupported_keys_raise_type_error():
    with pytest.raises(TypeError):
        cli._text({(1, 2): 0}, "\n")
    with pytest.raises(TypeError):
        stdlib({(1, 2): 0})


def rendered_report(argv, dict_forms):
    """The envelope arguments of argv's report as the CLI builds them, with
    the values of dict_forms' keys in results rendered from templates, and
    the report's dict with each of them replaced by dict_form(args, ws, d),
    the library's dict form."""
    args = cli._parser().parse_args(argv)
    results, passed = cli._COMMANDS[args.command](args)
    assert passed
    ws, d = cli._problem(args.config)
    plain = dict(results)
    for key, dict_form in dict_forms.items():
        assert isinstance(results[key], cli._Rendered)
        plain[key] = dict_form(args, ws, d)
    config = cli._config_echo(args)
    return (args.command, config, results, passed, 0.0), cli._report(args.command, config, plain, passed, 0.0)


def weights(args, ws, d):
    return ws.to_json()


def derived(args, ws, d):
    return d.to_json()


def verify_reports():
    def certificates(args, ws, d):
        points = quad.certification_sample(d, args.samples, args.seed)
        return [cert.to_json() for cert in quad.certify_points(d, points)]

    argv = ["verify", "--config", ORBIFOLD_WEIGHTS, "--samples", "20"]
    return rendered_report(argv, {"certificates": certificates, "weights": weights})


def isotropy_reports():
    def census(args, ws, d):
        return iso.census_to_json(iso.singular_stratum_census(d))

    def freeness(args, ws, d):
        return iso.freeness_check(d).to_json()

    argv = ["isotropy", "--config", ORBIFOLD_WEIGHTS]
    dict_forms = {"census": census, "freeness": freeness, "weights": weights, "derived": derived}
    return rendered_report(argv, dict_forms)


def check_reports():
    def condition(args, ws, d):
        return wt.check_cone_condition(d).to_json()

    def interpolation(args, ws, d):
        times = wt.default_interpolation_times(args.interp_steps)
        return cli._interpolation_json(times, wt.check_interpolation_path(d))

    argv = ["check", "--config", ORBIFOLD_WEIGHTS, "--interp-steps", "5"]
    dict_forms = {"condition": condition, "interpolation": interpolation, "weights": weights, "derived": derived}
    return rendered_report(argv, dict_forms)


def test_verify_report_bytes_match_stdlib():
    report, plain = verify_reports()
    assert cli._report_text(*report) == stdlib(plain)


def test_isotropy_report_bytes_match_stdlib():
    report, plain = isotropy_reports()
    assert cli._report_text(*report) == stdlib(plain)


def test_check_report_bytes_match_stdlib():
    report, plain = check_reports()
    assert cli._report_text(*report) == stdlib(plain)


def test_encoding_leaves_no_reference_cycle():
    """A call frees everything it built by reference counting alone: a
    self-referencing encoder or renderer would leave each report's parts
    to the next cyclic collection."""
    reports = [verify_reports()[0], isotropy_reports()[0], check_reports()[0]]
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            for report in reports:
                cli._report_text(*report)
        assert gc.collect() == 0
    finally:
        gc.enable()


ORBIFOLD_CONE = '{"A": [[1,0],[1,0],[2,-1]], "B": [[0,1],[0,1],[-1,2]]}'
FAILING_CONE = '{"A": [[1,0],[0,1],[1,1]], "B": [[1,0],[2,-1],[1,-1]]}'

ENVELOPES = [
    ("check", "--config", ORBIFOLD_WEIGHTS),
    ("check", "--config", ORBIFOLD_CONE, "--interp-steps", "3"),
    ("check", "--config", FAILING_CONE),  # exit 1
    ("check", "--config", ORBIFOLD_CONE, "--interp-steps", "0"),  # usage error
    ("check", "--config", "/nonexistent/été.json"),  # escaped in the config echo
    ("check", "--config", "/nonexistent/a\x00b\x01.json"),  # NULs are escaped, not read as gaps
    ("isotropy", "--config", ORBIFOLD_WEIGHTS),
    ("isotropy", "--config", FAILING_CONE),  # the cone condition fails
    ("isotropy", "--config", '{"A": [["1/2",0],[1,0],[2,-1]], "B": [["1/2",1],[0,1],[-1,2]]}'),
    ("verify", "--config", ORBIFOLD_CONE, "--samples", "3", "--seed", "4"),
    ("verify", "--config", ORBIFOLD_CONE, "--samples", "0"),
    ("generate", "--config", ORBIFOLD_CONE),
    ("generate", "--config", ORBIFOLD_WEIGHTS),
    ("enumerate", "--bound", "1"),
    ("enumerate", "--bound", "-1"),
    ("cohomology",),
    ("cohomology", "--branch", "degenerate"),  # the other Hodge branch, Eisenstein beta strings
    ("cohomology", "--beta", "1/2,-3/7"),
    ("cohomology", "--beta", "1/0,1"),
    ("cohomology", "--branch", "degenerate", "--beta", "1,1"),  # refused
    ("--timing", "check", "--config", ORBIFOLD_WEIGHTS),  # a measured wall time
    ("--timing", "isotropy", "--config", FAILING_CONE),
]


def report_of(stdout: str) -> str:
    """The indented report at the end of stdout (enumerate writes its
    stream lines first, one line each)."""
    return stdout[stdout.index("{\n"):]


@pytest.mark.parametrize("argv", ENVELOPES, ids=" ".join)
def test_report_envelope_bytes_match_stdlib(capsys, monkeypatch, argv):
    """Every command's report, error envelopes and --timing included, is
    byte for byte json.dumps(indent=2, sort_keys=True) of itself; the
    envelope comes from its cached template, so a second run gives the
    same bytes with the envelope's dict form made to raise."""
    cli.main(list(argv))
    text = report_of(capsys.readouterr().out)
    assert text == stdlib(json.loads(text))

    def refuse(*args):
        raise AssertionError("the envelope was built as a dict")

    monkeypatch.setattr(cli, "_report", refuse)
    cli.main(list(argv))
    again = report_of(capsys.readouterr().out)
    if "--timing" in argv:  # the wall time differs between runs
        again_obj, obj = json.loads(again), json.loads(text)
        assert again_obj["wall_time_s"] > 0 and obj["wall_time_s"] > 0
        assert {**again_obj, "wall_time_s": 0} == {**obj, "wall_time_s": 0}
        assert again == stdlib(again_obj)
    else:
        assert again == text


def test_out_file_and_its_error_envelope_match_stdlib(capsys, tmp_path):
    out = tmp_path / "report.json"
    code = cli.main(["--out", str(out), "isotropy", "--config", ORBIFOLD_CONE])
    text = capsys.readouterr().out
    assert code == 0 and out.read_text() == text == stdlib(json.loads(text))
    code = cli.main(["--out", str(tmp_path), "check", "--config", ORBIFOLD_CONE])  # a directory
    text = capsys.readouterr().out
    assert code == 2 and "cannot write --out" in json.loads(text)["results"]["error"]
    assert text == stdlib(json.loads(text))
