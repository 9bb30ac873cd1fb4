"""Pinned stdout of every README example: exit code, byte length and
BLAKE2b digest. A refactor of any layer on the report path must leave
these bytes unchanged."""

import hashlib
from fractions import Fraction

import pytest

import su3kahler
from su3kahler import cli, conegeom, isotropy, quadric, weights
from su3kahler.cli import main
from su3kahler.conegeom import ConeMembership

ORBIFOLD_CONE = '{"A": [[1,0],[1,0],[2,-1]], "B": [[0,1],[0,1],[-1,2]]}'
ORBIFOLD_WEIGHTS = '{"wL": [[-1,1],[-1,1],[2,-2]], "wR": [[-4,1],[5,-5],[-1,4]]}'

GOLDEN = [
    pytest.param(
        ("check", "--config", ORBIFOLD_WEIGHTS), 0, 3916, "9b27d33463fba3fe69d346808cdc7063", id="check"
    ),
    pytest.param(
        ("isotropy", "--config", ORBIFOLD_CONE), 0, 16143, "997fa15293f87f6050eedecd5469306b",
        id="isotropy-cone-data",
    ),
    pytest.param(
        ("isotropy", "--config", ORBIFOLD_WEIGHTS), 0, 16483, "871d7e8519bb7bf684e3f536f2181fbe",
        id="isotropy-weights",
    ),
    # float digits: pinned for the numpy build the suite runs on (verify makes no LAPACK call)
    pytest.param(
        ("verify", "--config", ORBIFOLD_CONE, "--samples", "100", "--seed", "0"),
        0, 20138, "fb55744dedd65a19053ca2cc8eb0e830", id="verify",
    ),
    pytest.param(
        ("generate", "--config", ORBIFOLD_CONE), 0, 1518, "7ebd4bf7f9e2dce38b4911658abcb94f", id="generate"
    ),
    pytest.param(("enumerate", "--bound", "1"), 0, 2935, "698cf51e88d66ee90ffba2b2dd69f9a9", id="enumerate"),
    pytest.param(  # the first bound whose stream has orbifold lines
        ("enumerate", "--bound", "2"), 0, 336753, "e40be11f930d43260cc72e485acb17c1", id="enumerate-bound2"
    ),
    pytest.param(  # 64656 lines
        ("enumerate", "--bound", "3"), 0, 7669127, "4be4665400e3c3c0a2130b0c9d069b80", id="enumerate-bound3"
    ),
    pytest.param(("cohomology",), 0, 1033, "7f11e965d630b87dcbd2502b909bb884", id="cohomology-generic"),
    pytest.param(
        ("cohomology", "--branch", "degenerate"), 0, 1047, "e1c1bd5085bb1abf94cf322196c115fb",
        id="cohomology-degenerate",
    ),
    pytest.param(
        ("cohomology", "--beta", "1/2,-3/7"), 0, 1044, "e49f21dbe1a79df4b714caac43826613",
        id="cohomology-beta",
    ),
    pytest.param(  # a weight system without wR
        ("check", "--config", '{"wL": [[0,0],[0,0],[0,0]]}'), 2, 224, "5432f621c2bcc2bfc229a8e7b8579fa4",
        id="error-envelope",
    ),
]


@pytest.mark.parametrize("argv, code, length, digest", GOLDEN)
def test_readme_example_stdout_is_pinned(capsys, argv, code, length, digest):
    assert main(list(argv)) == code
    data = capsys.readouterr().out.encode()
    assert (len(data), hashlib.blake2b(data, digest_size=16).hexdigest()) == (length, digest)


# argparse's help text at 80 columns, recorded before the parser was built
# from the option table; pinned for Python 3.11's argparse
HELP = [
    pytest.param(("--help",), 908, "2395ce4b16eb9bc4b38b52231ea10844", id="help"),
    pytest.param(("check", "--help"), 342, "fc57b825544011be981d1636c16ada23", id="check"),
    pytest.param(("isotropy", "--help"), 216, "f2473b66632a3d2494bbc15725bc0278", id="isotropy"),
    pytest.param(("verify", "--help"), 288, "4af89db62a811be0df191d7350c27ab3", id="verify"),
    pytest.param(("generate", "--help"), 169, "4fae2ea25cc4151da128fee0525f8d1e", id="generate"),
    pytest.param(("enumerate", "--help"), 121, "7264ec16aff03e64a28e223967866a5c", id="enumerate"),
    pytest.param(("cohomology", "--help"), 255, "4d25096ad335ba879174dc58f61d5fd7", id="cohomology"),
]


@pytest.mark.parametrize("argv, length, digest", HELP)
def test_help_text_is_pinned(capsys, monkeypatch, argv, length, digest):
    monkeypatch.setenv("COLUMNS", "80")
    assert main(list(argv)) == 0
    captured = capsys.readouterr()
    data = captured.out.encode()
    assert (len(data), hashlib.blake2b(data, digest_size=16).hexdigest()) == (length, digest)
    assert captured.err == ""


RENDERED = [p for p in GOLDEN if p.id in ("check", "isotropy-cone-data", "isotropy-weights", "verify")]

DICT_FORMS = (
    (isotropy, "census_to_json"),
    (isotropy.StratumReport, "to_json"),
    (isotropy.FreenessVerdict, "to_json"),
    (quadric.PointCertificate, "to_json"),
    (weights.ConditionReport, "to_json"),
    (weights.LevelSetConditions, "to_json"),
    (ConeMembership, "to_json"),
    (weights.WeightSystem, "to_json"),
    (weights.DerivedConeData, "to_json"),
)


@pytest.mark.parametrize("argv, code, length, digest", RENDERED)
def test_census_and_certificates_skip_their_dict_forms(capsys, monkeypatch, argv, code, length, digest):
    """The census, the certificates, the condition report with its
    level-set block, and the weights, derived and freeness blocks are
    written from cached templates, not from their dict forms. The
    templates are read from probes of the dict forms when first used, so a
    first run builds them; with the dict forms raising, a second run must
    still give the pinned stdout."""
    main(list(argv))
    capsys.readouterr()

    def refuse(*args):
        raise AssertionError("a dict form was built on the report path")

    for owner, name in DICT_FORMS:
        monkeypatch.setattr(owner, name, refuse)
    assert main(list(argv)) == code
    data = capsys.readouterr().out.encode()
    assert (len(data), hashlib.blake2b(data, digest_size=16).hexdigest()) == (length, digest)


EXACT_EXAMPLES = [p for p in GOLDEN if p.id in ("check", "isotropy-cone-data", "isotropy-weights")]


@pytest.mark.parametrize("argv, code, length, digest", EXACT_EXAMPLES)
def test_check_and_isotropy_read_the_sign_table(capsys, monkeypatch, argv, code, length, digest):
    """check and isotropy take every membership, witness and apex functional
    from the cone data's sign table: with in_cone2, find_apex_functional and
    positive_combination (no mixed pair of these examples is dependent) made
    to raise wherever they are bound, they give the pinned stdout."""

    def refuse(*args):
        raise AssertionError("a membership was decided outside the sign table")

    for module in (su3kahler, conegeom, weights, quadric):
        for name in ("in_cone2", "find_apex_functional", "positive_combination"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    assert main(list(argv)) == code
    data = capsys.readouterr().out.encode()
    assert (len(data), hashlib.blake2b(data, digest_size=16).hexdigest()) == (length, digest)


@pytest.mark.parametrize("argv, code, length, digest", EXACT_EXAMPLES)
def test_check_and_isotropy_build_no_fraction_or_report_per_op(capsys, monkeypatch, argv, code, length, digest):
    """check and isotropy print quotients of the sign table's integers: after
    a first run has filled the caches, a second run gives the pinned stdout
    with Fraction, ConeMembership, ConditionReport and StratumReport made to
    raise when one is built."""
    main(list(argv))
    capsys.readouterr()

    def refuse(*args, **kwargs):
        raise AssertionError("an object was built per op on the report path")

    monkeypatch.setattr(Fraction, "__new__", refuse)
    for cls in (ConeMembership, weights.ConditionReport, isotropy.StratumReport):
        monkeypatch.setattr(cls, "__init__", refuse)
    assert main(list(argv)) == code
    data = capsys.readouterr().out.encode()
    monkeypatch.undo()
    assert (len(data), hashlib.blake2b(data, digest_size=16).hexdigest()) == (length, digest)


VERIFY_DATA = [
    pytest.param(ORBIFOLD_CONE, id="cone-data"),
    pytest.param('{"wL": [[-2,-2],[1,1],[1,1]], "wR": [[-2,-1],[0,-1],[2,2]]}', id="bound2-weights"),
    pytest.param('{"A": [[1,0],[1,0],[1,0]], "B": [[0,1],[0,1],[0,1]]}', id="round"),
]


@pytest.mark.parametrize("config", VERIFY_DATA)
def test_verify_builds_no_fraction_per_op(capsys, monkeypatch, config):
    """verify reads the sign table's integer witnesses and apex functional
    into floats by int division: after a first run, a second run prints the
    same bytes with Fraction made to raise when one is built."""
    argv = ["verify", "--config", config, "--samples", "20"]
    assert main(argv) == 0
    first = capsys.readouterr().out

    def refuse(*args, **kwargs):
        raise AssertionError("a Fraction was built on the verify path")

    monkeypatch.setattr(Fraction, "__new__", refuse)
    assert main(argv) == 0
    second = capsys.readouterr().out
    monkeypatch.undo()
    assert second == first


CACHED_RUNS = [
    ("check", "--config", ORBIFOLD_WEIGHTS),
    ("isotropy", "--config", ORBIFOLD_WEIGHTS),
    ("isotropy", "--config", ORBIFOLD_CONE),
    ("verify", "--config", ORBIFOLD_CONE, "--samples", "5"),
    ("generate", "--config", ORBIFOLD_CONE),
    ("enumerate", "--bound", "1"),
    ("cohomology",),
]


def test_a_second_run_misses_no_cache(capsys):
    """Every cache of the CLI is keyed by values that repeat: after one run
    of each command, a second run of each records no new miss in any
    lru_cache of cli. A key built from a fresh object on every op (a bound
    method, say) would miss each time and show here."""
    caches = {name: f for name, f in vars(cli).items() if hasattr(f, "cache_info")}
    assert len(caches) >= 8
    for argv in CACHED_RUNS:
        main(list(argv))
    misses = {name: f.cache_info().misses for name, f in caches.items()}
    for argv in CACHED_RUNS:
        main(list(argv))
    capsys.readouterr()
    assert {name: f.cache_info().misses for name, f in caches.items()} == misses
