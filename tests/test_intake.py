"""Intake of exact input.

Every config the CLI reads goes through one parser, and every scalar the
exact layers take goes through one rational gate. Whatever a config
holds, ``main`` returns 0, 1 or 2 and writes exactly one JSON envelope;
an entry that is not exact (a float, a bool, null, a zero denominator, a
vector of the wrong length or nesting) ends in exit code 2.
"""

import contextlib
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from su3kahler import (
    Eisenstein,
    SupportPattern,
    build_derham_model,
    certification_sample,
    cone_data,
    find_apex_functional,
    hodge_model,
    in_cone2,
    smith_invariant_factors,
)
from su3kahler import weights
from su3kahler.cli import MAX_CONFIG_BYTES, main
from su3kahler.isotropy import IsotropyGroup
from su3kahler.weights import DerivedConeData, WeightSystem, derive, positive_combination

ENVELOPE_KEYS = {"command", "config", "results", "pass", "wall_time_s"}
COMMANDS = (("check",), ("isotropy",), ("generate",), ("verify", "--samples", "1"))
ORBIFOLD_A = [[1, 0], [1, 0], [2, -1]]
ORBIFOLD_B = [[0, 1], [0, 1], [-1, 2]]
ZERO_DENOMINATOR = '{"A": [["1/0",0],[1,0],[2,-1]], "B": [[0,1],[0,1],[-1,2]]}'


def run(command, config):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([command[0], "--config", config, *command[1:]])
    return code, out.getvalue()


def rationals():
    return st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


def as_entry(x: Fraction, as_string: bool):
    """An exact JSON entry: an int when integral (unless drawn as a
    string), else a "p/q" string."""
    return str(x) if as_string or x.denominator != 1 else x.numerator


BAD_SCALARS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
    st.sampled_from(["x", "", "1/2/3"]),
)
CORRUPTIONS = ("scalar", "zero denominator", "short", "long", "deep", "flat")


@st.composite
def exact_configs(draw):
    """Cone data with A_j + B_j = C (entries ints or "p/q" strings), or a
    zero-sum integer weight system."""
    if draw(st.integers(0, 2)):  # cone data two times in three
        c = (draw(rationals()), draw(rationals()))
        a = [(draw(rationals()), draw(rationals())) for _ in range(3)]
        b = [(c[0] - x, c[1] - y) for x, y in a]
        strings = st.booleans()
        return {
            "A": [[as_entry(x, draw(strings)) for x in v] for v in a],
            "B": [[as_entry(x, draw(strings)) for x in v] for v in b],
        }
    sides = {}
    for name in ("wL", "wR"):
        w1, w2 = ([draw(st.integers(-2, 2)) for _ in range(2)] for _ in range(2))
        sides[name] = [w1, w2, [-w1[0] - w2[0], -w1[1] - w2[1]]]
    return sides


@st.composite
def corrupted(draw, config, kind):
    """The config with one non-exact entry: a bad scalar, a zero
    denominator, a vector of the wrong length, or a vector nested one level
    too deep or too shallow."""
    key = draw(st.sampled_from(sorted(config)))
    vectors = [list(v) for v in config[key]]
    j = draw(st.integers(0, 2))
    if kind == "scalar":
        vectors[j][draw(st.integers(0, 1))] = draw(BAD_SCALARS)
    elif kind == "zero denominator":
        vectors[j][draw(st.integers(0, 1))] = draw(st.sampled_from(["1/0", "-3/0", "0/0"]))
    elif kind == "short":
        vectors[j] = vectors[j][:1]
    elif kind == "long":
        vectors[j] = vectors[j] + [0]
    elif kind == "deep":
        vectors[j] = [vectors[j]]
    else:
        vectors[j] = vectors[j][0]
    return {**config, key: vectors}


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_every_config_ends_in_one_envelope(data):
    config = data.draw(exact_configs())
    bad = data.draw(st.sampled_from((None, *CORRUPTIONS)))
    if bad:
        config = data.draw(corrupted(config, bad))
    text = json.dumps(config)
    for command in COMMANDS:
        code, out = run(command, text)
        report = json.loads(out)  # exactly one JSON document
        assert set(report) == ENVELOPE_KEYS
        assert report["command"] == command[0]
        assert code in (0, 1, 2)
        if bad:
            assert code == 2 and "error" in report["results"], (command, text)


@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
def test_zero_denominator_exits_2(command):
    code, out = run(command, ZERO_DENOMINATOR)
    report = json.loads(out)
    assert code == 2 and set(report) == ENVELOPE_KEYS
    assert report["results"]["error"] == "zero denominator in '1/0'"


# json.loads raises a plain ValueError, not JSONDecodeError, for an int
# literal past the interpreter's 4300-digit conversion limit
OVERSIZED_INT = '{"A": [[' + "1" * 5000 + ',0],[1,0],[1,0]], "B": [[0,1],[0,1],[0,1]]}'


@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
def test_malformed_json_exits_2(command):
    for config, message in (
        (OVERSIZED_INT, "malformed JSON: Exceeds the limit (4300 digits)"),
        ("{not json", "malformed JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    ):
        code, out = run(command, config)
        report = json.loads(out)
        assert code == 2 and set(report) == ENVELOPE_KEYS
        assert report["results"]["error"].startswith(message)


# nested past the recursion limit; a name longer than the system allows
DEEP = '{"A": ' + "[" * 100_000 + "]" * 100_000 + "}"
LONG_NAME = "a" * 5000


@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
def test_unreadable_configs_exit_2(command, tmp_path):
    missing = str(tmp_path / "missing.json")
    for config, message, exact in (
        (DEEP, "malformed JSON: maximum recursion depth exceeded", False),
        (LONG_NAME, f"cannot read config {LONG_NAME}: ", False),
        (missing, f"config file not found: {missing}", True),
        (str(tmp_path), f"cannot read config {tmp_path}: [Errno 21] Is a directory: '{tmp_path}'", True),
        ("a\x00b.json", "config file not found: a\x00b.json", True),
    ):
        code, out = run(command, config)
        report = json.loads(out)
        assert code == 2 and set(report) == ENVELOPE_KEYS
        error = report["results"]["error"]
        assert error == message if exact else error.startswith(message)


@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
def test_config_past_the_byte_ceiling_exits_2(command, tmp_path):
    """A config file is read up to cli.MAX_CONFIG_BYTES and one byte more,
    so an endless one (/dev/zero) ends in the envelope too."""
    oversized = tmp_path / "oversized.json"
    oversized.write_text('{"A": [[1,0],[1,0],[2,-1]], "B": [[0,1],[0,1],[-1,2]]}'.ljust(MAX_CONFIG_BYTES + 1))
    sources = [str(oversized)] + [name for name in ("/dev/zero",) if Path(name).exists()]
    for source in sources:
        code, out = run(command, source)
        report = json.loads(out)
        assert code == 2 and set(report) == ENVELOPE_KEYS
        assert report["results"]["error"] == f"config {source} is larger than {MAX_CONFIG_BYTES} bytes"
    oversized.write_text(oversized.read_text()[:MAX_CONFIG_BYTES])  # at the ceiling: read
    assert run(command, str(oversized))[0] == 0


WEIGHTS = {"wL": [[0, 0], [0, 0], [0, 0]], "wR": [[1, 0], [0, 1], [-1, -1]]}
CONE = {"A": ORBIFOLD_A, "B": ORBIFOLD_B}
MIXED = "config mixes weight keys {} with cone data keys {}: give one of them"
UNKNOWN = "unknown config keys {}: expected wL/wR (weights) or A/B (cone data)"
AMBIGUOUS_CONFIGS = [
    pytest.param({**CONE, **WEIGHTS}, MIXED.format(["wL", "wR"], ["A", "B"]), id="both kinds"),
    pytest.param({"wL": WEIGHTS["wL"], "A": ORBIFOLD_A}, MIXED.format(["wL"], ["A"]), id="half of each"),
    pytest.param({**CONE, "x": 1}, UNKNOWN.format(["x"]), id="cone data and a stray key"),
    pytest.param({**WEIGHTS, "x": 1, "note": ""}, UNKNOWN.format(["note", "x"]), id="weights and stray keys"),
    pytest.param({**CONE, **WEIGHTS, "x": 1}, UNKNOWN.format(["x"]), id="both kinds and a stray key"),
    pytest.param({"x": 1}, UNKNOWN.format(["x"]), id="only a stray key"),
]


@pytest.mark.parametrize("config, message", AMBIGUOUS_CONFIGS)
@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
def test_a_config_of_both_kinds_or_with_other_keys_exits_2(command, config, message):
    """A config is exactly a weight system {wL, wR} or cone data {A, B}:
    keys of both kinds, or any other key, end in the envelope naming them
    (a weight system with cone data was read as the weight system alone,
    and a stray key passed unnoticed)."""
    code, out = run(command, json.dumps(config))
    report = json.loads(out)
    assert code == 2 and set(report) == ENVELOPE_KEYS
    assert report["results"]["error"] == message


def test_generate_rejects_a_weight_system():
    config = '{"wL": [[-1,1],[-1,1],[2,-2]], "wR": [[-4,1],[5,-5],[-1,4]]}'
    code, out = run(("generate",), config)
    assert code == 2
    assert json.loads(out)["results"]["error"] == "cone data needs keys 'A' and 'B'"


def test_cohomology_beta_with_zero_denominator_exits_2():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["cohomology", "--beta", "1/0,1"])
    assert code == 2
    assert json.loads(out.getvalue())["results"]["error"] == "bad --beta: zero denominator in '1/0'"


# Strings Fraction() reads but the exact grammar (sign, ASCII digits,
# optional "/" and ASCII digits) does not; "1e5000" would build 10**5000
# past the 4300-digit limit on int().
NOT_RATIONAL = ["1e5000", "1E2", "1.5", ".5", "1_000", "\u0661"]


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert err.getvalue() == ""
    return code, json.loads(out.getvalue())


@pytest.mark.parametrize("text", NOT_RATIONAL)
def test_a_string_outside_the_rational_grammar_exits_2(text):
    config = json.dumps({"A": [[text, 0], [1, 0], [2, -1]], "B": ORBIFOLD_B})
    for command in COMMANDS:
        code, report = run_main([command[0], "--config", config, *command[1:]])
        assert code == 2 and report["results"]["error"] == f"Invalid literal for Fraction: {text!r}"
    code, report = run_main(["cohomology", "--beta", f"{text},1"])
    assert code == 2 and report["results"]["error"] == f"bad --beta: Invalid literal for Fraction: {text!r}"


def test_a_report_past_the_digit_limit_exits_2():
    """Every entry is under the 4300-digit intake limit and the condition
    holds, but a witness denominator is longer than str() writes."""
    n = 10**3000 + 7
    c = (n + 1, n + 1)
    a = [(n + 4, -4), (2 * n - 4, 2), (3 * n + 2, 5)]
    b = [(c[0] - x, c[1] - y) for x, y in a]
    config = json.dumps({"A": [[str(x), str(y)] for x, y in a], "B": [[str(x), str(y)] for x, y in b]})
    code, report = run_main(["check", "--config", config])
    assert code == 2 and set(report) == ENVELOPE_KEYS and report["pass"] is False
    assert report["results"]["error"].startswith("cannot render the report: Exceeds the limit (4300 digits)")


# X is finite as a float, but |(X, X)| is not.
X = 15 * 10**307
FLOAT_RANGE_CASES = [
    pytest.param(
        {"A": [[10**400, 0]] * 3, "B": [[0, 1]] * 3}, "int too large to convert to float", id="entry"
    ),
    pytest.param(
        {"A": [[X, X], [-X, -X], [X, -X]], "B": [[-X, 1 - X], [X, 1 + X], [-X, 1 + X]]},
        "moment scale overflows",
        id="moment-scale",
    ),
    pytest.param(  # C = (0, 1) = a A_1 + b B_2 with a = 10^-340 and b = 10^-170: a rounds to 0
        {"A": [[-(10**170), 0], [-1, 1 - 10**170], [1, 0]], "B": [[10**170, 1], [1, 10**170], [-1, 1]]},
        "a witness coefficient rounds to 0",
        id="witness-underflow",
    ),
    pytest.param(  # one ray: moment scale 2*10**200 times |apex functional (10**200, 0)| is past
        {"A": [[10**200, 0]] * 3, "B": [[10**200, 0]] * 3},  # the float range, but verify
        None,  # converts no apex functional: the data are in range and sampled
        id="apex",
    ),
]


@pytest.mark.parametrize("config, message", FLOAT_RANGE_CASES)
def test_cone_data_outside_the_float_range_exits_2_naming_the_number(config, message):
    """Every entry of the moment-scale case is finite as a float: the error
    names the scale, not an entry. The apex case is the control: its only
    product past the float range is one verify no longer forms, so it is
    sampled and fails the cone condition with exit 1, naming no number."""
    code, report = run_main(["verify", "--config", json.dumps(config), "--samples", "5"])
    if message is None:
        assert code == 1 and "error" not in report["results"] and report["results"]["cone_condition"] is False
    else:
        assert code == 2 and report["results"]["error"] == f"cone data outside the float range: {message}"


API_CALLS = {
    "cone_data": lambda x: cone_data([(x, 0), (1, 0), (2, -1)], [(0, 1), (0, 1), (-1, 2)]),
    "build_derham_model": lambda x: build_derham_model((x, 0), (0, 1)),
    "hodge_model": lambda x: hodge_model((x, 1)),
    "Eisenstein.of": Eisenstein.of,
    "Eisenstein": lambda x: Eisenstein(Fraction(1), x),
    "hodge_model(Eisenstein)": lambda x: hodge_model((Eisenstein(x, 0), 1)),
    "IsotropyGroup rank": lambda x: IsotropyGroup(x, ()),
    "IsotropyGroup factors": lambda x: IsotropyGroup(2, (x, 2)),
    "SupportPattern": lambda x: SupportPattern((x,), (2,)),
    "positive_combination": lambda x: positive_combination((x, x), (1, 0), (0, 1)),
    "in_cone2": lambda x: in_cone2((x, x), (1, 0), (0, 1)),
    "find_apex_functional": lambda x: find_apex_functional([(x, 1), (1, 0)]),
    "smith_invariant_factors": lambda x: smith_invariant_factors([(x, 1), (1, 0)]),
    "certification_sample": lambda n: certification_sample(cone_data(ORBIFOLD_A, ORBIFOLD_B), n, 0),
}


@pytest.mark.parametrize("bad", [0.5, True, "1/0"], ids=repr)
@pytest.mark.parametrize("name", sorted(API_CALLS))
def test_exact_api_rejects_inexact_scalars(name, bad):
    with pytest.raises((ValueError, TypeError)):
        API_CALLS[name](bad)


def test_exact_api_accepts_exact_scalars():
    assert cone_data([("1", " 0 "), (1, Fraction(0)), ("+2", "-2/2")], ORBIFOLD_B) == cone_data(ORBIFOLD_A, ORBIFOLD_B)
    assert Eisenstein.of("2/4") == Eisenstein(Fraction(1, 2), Fraction(0))
    assert hodge_model(("1/2", Fraction(-3, 7))).branch == (0, 0, 0)
    assert build_derham_model(("1", 0), (0, Fraction(1))).d_gens == build_derham_model().d_gens


MALFORMED_VECTOR_CALLS = (
    lambda v: cone_data([v, (1, 0), (2, -1)], [(0, 1), (0, 1), (-1, 2)]),
    hodge_model,
    lambda v: build_derham_model(v, (0, 1)),
)


@pytest.mark.parametrize("vector", ["12", {"1": 0, "2": 0}, [1], [1, 2, 3], 7, (1, 0, 5)])
def test_cone_data_rejects_a_malformed_vector(vector):
    """cone_data, hodge_model and build_derham_model take a vector only as
    a list or tuple of two entries, not a string, a dict or another length
    (hodge_model("12") once read beta = (1, 2) and hodge_model((1, 0, 5))
    dropped the 5)."""
    for call in MALFORMED_VECTOR_CALLS:
        with pytest.raises(TypeError, match=r"vector \[x, y\] expected"):
            call(vector)


B_SIDE = [[0, 1], [0, 1], [-1, 2]]
WR_SIDE = [[1, 0], [0, 1], [-1, -1]]
MALFORMED_SHAPES = [
    pytest.param({"A": 3, "B": B_SIDE}, "A must be a list of three vectors, got 3", id="int side"),
    pytest.param({"A": None, "B": B_SIDE}, "A must be a list of three vectors, got None", id="null side"),
    pytest.param({"A": "abc", "B": B_SIDE}, "A must be a list of three vectors, got 'abc'", id="string side"),
    pytest.param({"A": ORBIFOLD_A, "B": {"a": 1, "b": 2, "c": 3}}, "B must be a list of three vectors", id="dict side"),
    pytest.param({"A": ORBIFOLD_A, "B": B_SIDE[:2]}, "B must be a list of three vectors", id="short side"),
    pytest.param({"wL": [[0, 0, 0], [0, 0], [0, 0]], "wR": WR_SIDE}, "got [0, 0, 0]", id="long weight vector"),
    pytest.param({"wL": "abc", "wR": WR_SIDE}, "wL must be a list of three weight vectors, got 'abc'", id="string wL"),
    pytest.param({"wL": None, "wR": WR_SIDE}, "wL must be a list of three weight vectors, got None", id="null wL"),
    pytest.param({"wL": WR_SIDE, "wR": {"a": 1, "b": 2, "c": 3}}, "wR must be a list of three", id="dict wR"),
    pytest.param({"wL": ["ab", "cd", "ef"], "wR": WR_SIDE}, "got 'ab'", id="string weight vectors"),
    pytest.param({"wL": [3, 4, 5], "wR": WR_SIDE}, "got 3", id="int weight vectors"),
]


@pytest.mark.parametrize("config, message", MALFORMED_SHAPES)
@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
def test_a_malformed_config_shape_exits_2_naming_the_value(command, config, message):
    """A side that is not a list of three vectors, or a weight vector that
    is not a list of two ints, ends in exit 2 with a message naming it, not
    in Python's own unpacking or iteration error."""
    code, out = run(command, json.dumps(config))
    error = json.loads(out)["results"]["error"]
    assert code == 2 and message in error
    assert "iterable" not in error and "unpack" not in error


# --- WeightSystem.from_json and derive, built without the constructors ------


def assert_same_object(x, y):
    """x and y are equal, of one type, with one hash and one repr, and hold
    the same fields and nothing else."""
    assert type(x) is type(y) and x == y and hash(x) == hash(y) and repr(x) == repr(y)
    assert x.__dict__ == y.__dict__


def test_from_json_and_derive_build_what_the_constructors_build(bound2_systems):
    """On every bound-2 system, the system read from its JSON and its
    derived cone data are the objects the dataclass constructors build."""
    assert len(bound2_systems) == 2856
    for ws in bound2_systems:
        read = WeightSystem.from_json(json.loads(json.dumps(ws.to_json())))
        built = WeightSystem(ws.wl, ws.wr)
        assert_same_object(read, built)
        assert read <= built <= read
        a, b, c = weights._configuration(ws.wl, ws.wr[0], ws.wr[2])
        assert_same_object(derive(read), DerivedConeData(a, b, c))


WR_ROWS = [[1, 0], [0, 1], [-1, -1]]
MALFORMED_WEIGHT_OBJECTS = [
    {"wR": WR_ROWS},
    {"wL": WR_ROWS},
    [WR_ROWS, WR_ROWS],
    "wL",
    None,
    {"wL": [[1, 0], [0, 1], [-1, 0]], "wR": WR_ROWS},
    {"wL": WR_ROWS, "wR": [[1, 0], [0, 1]]},
    {"wL": WR_ROWS, "wR": [[1, 0], [0, 1], [-1, -1], [0, 0]]},
    {"wL": [[1.0, 0], [0, 1], [-1, -1]], "wR": WR_ROWS},
    {"wL": [[True, 0], [0, 1], [-1, -1]], "wR": WR_ROWS},
    {"wL": [[1, 0], [0, 1], [-1, -1]], "wR": [[1, 0], [0, 1], [-1, -1, 0]]},
    {"wL": [[1, 0], [0, 1]], "wR": [[1, 0], [0, 1], [-1, 0]]},
    {"wL": [[1, 0], [0, 2], [-1, -1]], "wR": [[1, 0], [0, 1], "ab"]},
    *(param.values[0] for param in MALFORMED_SHAPES if "wL" in param.values[0]),
]


@pytest.mark.parametrize("obj", MALFORMED_WEIGHT_OBJECTS, ids=repr)
def test_from_json_refuses_as_the_constructor_does(obj):
    """A malformed object is refused with the message the constructor's
    row check gives, after the same prefix."""
    with pytest.raises((KeyError, TypeError, ValueError)) as constructed:
        WeightSystem(obj["wL"], obj["wR"])
    with pytest.raises(ValueError) as read:
        WeightSystem.from_json(obj)
    assert str(read.value) == f"malformed weight system object: {constructed.value}"


def test_derive_runs_the_sum_check_and_the_type_refuses_other_sums(monkeypatch):
    with pytest.raises(ValueError, match=r"A_2 \+ B_2 != C"):
        DerivedConeData(((1, 0), (0, 1), (1, 1)), ((0, 1), (1, 1), (0, 0)), (1, 1))
    checked = []
    original = DerivedConeData.__post_init__
    monkeypatch.setattr(DerivedConeData, "__post_init__", lambda self: checked.append(self) or original(self))
    d = derive(WeightSystem(WR_ROWS, WR_ROWS))
    assert checked == [d]
