"""The report parts that ``check``, ``verify`` and ``enumerate`` write
from cached templates, against ``json.dumps`` of their dict forms
(``PointCertificate.to_json``, ``ConditionReport.to_json`` with its
level-set block, ``WeightSystem.to_json`` and ``DerivedConeData.to_json``)
at several starting indents, and the stream lines against ``json.dumps``.
The ``check`` and ``isotropy`` reports of data where the cone condition
holds are compiled whole, one template per shape: their census,
freeness block and interpolation block are compared with the dict form
of the whole report, on cone data and on synthetic values. The condition
report is written from its integer evidence
(``weights._condition_evidence``), so it is compared with the dict form of
the report the library builds from the same data."""

import argparse
import contextlib
import io
import itertools
import json
import math
from fractions import Fraction
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import admissible_systems, library_report
from su3kahler import cli, weights
from su3kahler.isotropy import (
    _CENSUS_PATTERNS,
    Classification,
    FreenessVerdict,
    _census_report,
    census_to_json,
)
from su3kahler.quadric import PointCertificate
from su3kahler.weights import (
    WeightSystem,
    _condition_evidence,
    check_cone_condition,
    cone_condition_holds,
    cone_data,
    default_interpolation_times,
    enumerate_admissible_systems,
)

indents = st.integers(0, 5).map(lambda k: "\n" + "  " * k)


def walk(obj, nl):
    """The stdlib's text of obj on a line whose newline and indentation is nl."""
    return json.dumps(obj, indent=2, sort_keys=True).replace("\n", nl)


small = st.integers(-4, 4)
vectors = st.tuples(small, small)


entries = st.integers(-(10**20), 10**20)


@st.composite
def weight_rows(draw, values=entries):
    """Three integer vectors summing to zero."""
    (x1, y1), (x2, y2) = draw(st.tuples(st.tuples(values, values), st.tuples(values, values)))
    return ((x1, y1), (x2, y2), (-x1 - x2, -y1 - y2))


def stdlib(report) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


BOUND2 = admissible_systems(2)
# integer 2 x 2 matrices of determinant +-1, the torus basis changes
unimodular = st.sampled_from(
    [((1, 0), (0, 1)), ((0, 1), (1, 0)), ((1, 1), (0, 1)), ((2, 1), (1, 1)), ((1, -3), (0, -1))]
)


@given(st.sampled_from(BOUND2), st.integers(1, 12), unimodular)
@settings(max_examples=150, deadline=None)
def test_census_of_cone_data_renders_its_dict_form(ws, k, m):
    """Admissible bound-2 data, scaled by k and changed by a torus basis
    change m, given as cone data: the compiled isotropy report, its census
    included, prints the dict form of the library's report."""
    (p, q), (r, t) = m

    def moved(v):
        return [k * (p * v[0] + q * v[1]), k * (r * v[0] + t * v[1])]

    d = ws.derived
    argv = ["isotropy", "--config", json.dumps({"A": [*map(moved, d.a)], "B": [*map(moved, d.b)]})]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    assert out.getvalue() == stdlib(library_report(argv))


# divisor pairs of rank 2 (d1 | d12, d12 != 0): every census group where
# the condition holds is finite (the README's census-shape proposition)
divisor_pairs = st.builds(lambda d1, k: (d1, d1 * k), st.integers(1, 12), st.integers(1, 12))
big = 10**29
witness_integers = st.one_of(
    st.integers(-50, 50).filter(bool),  # negative, unit or not
    st.integers(-10 * big, 10 * big).filter(bool),  # 30-digit
)
witnesses = st.tuples(st.integers(-50, 50), st.integers(-50, 50), witness_integers)
SINGLETONS = [singleton for _, _, _, singleton, _ in _CENSUS_PATTERNS if singleton is not None]
failing_pairs = st.one_of(st.none(), st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(0, 10**20)))
WS = WeightSystem(((1, -2), (3, 4), (-4, -2)), ((5, 0), (-6, 7), (1, -7)))


def synthetic_isotropy(divisors, singleton_witnesses, pair, ws):
    """The text of a compiled isotropy report filled with these values,
    and the report dict of the same values built from the library's
    objects."""
    d = ws.derived
    witness_texts, witness_points = [], {}
    for singleton in SINGLETONS:
        na, nb, den = singleton_witnesses[singleton]
        witness_texts += (cli._quotient_text(na, den).encode(), cli._quotient_text(nb, den).encode())
        witness_points[singleton] = (Fraction(na, den), Fraction(nb, den))
    values = [cli._derived_text(d, "\n    ").encode(), *(pair or ())]
    for d1, d12 in divisors:
        values += (d12, d1, d12 // d1)
    values += [*witness_texts, *itertools.chain(*ws.wl, *ws.wr)]
    whole = cli._Whole(cli._isotropy_template(True, pair is None), lambda: list(values))
    text = cli._report_text("isotropy", {"config": "x"}, whole, True, 0.0)
    census = [
        _census_report(k, d1, d12, witness_points.get(singleton))
        for k, ((d1, d12), (_, _, _, singleton, _)) in enumerate(zip(divisors, _CENSUS_PATTERNS))
    ]
    verdict = FreenessVerdict(pair)
    results = {
        "weights": ws.to_json(),
        "derived": d.to_json(),
        "freeness": verdict.to_json(),
        "classification": Classification.of(verdict.free).value,
        "census": census_to_json(census),
    }
    return text, cli._report("isotropy", {"config": "x"}, results, True, 0.0)


@given(
    st.lists(divisor_pairs, min_size=46, max_size=46),
    st.fixed_dictionaries({singleton: witnesses for singleton in SINGLETONS}),
)
@settings(max_examples=150, deadline=None)
def test_synthetic_census_renders_its_dict_form(divisors, singleton_witnesses):
    """Any rank-2 divisors per pattern and any singleton witnesses, zero,
    negative, unit and 30-digit quotients included, in the compiled
    isotropy template."""
    text, report = synthetic_isotropy(divisors, singleton_witnesses, None, WS)
    assert text == stdlib(report)


special_floats = st.sampled_from(
    [math.inf, -math.inf, math.nan, 0.0, -0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
)
floats = st.one_of(st.floats(allow_nan=True, allow_infinity=True), special_floats)
certificates = st.builds(PointCertificate, st.integers(0, 4), floats)


@given(st.lists(certificates, max_size=12), indents)
@settings(max_examples=200, deadline=None)
def test_certificates_render_their_dict_forms(certs, nl):
    ranks, margins = [c.jacobian_rank for c in certs], [c.regularity_margin for c in certs]
    assert cli._certificates_text(ranks, margins, nl) == walk([c.to_json() for c in certs], nl)


@given(failing_pairs)
@settings(max_examples=100, deadline=None)
def test_freeness_block_renders_its_dict_form(pair):
    """Both shapes of the compiled isotropy report: free (no failing pair)
    and orbifold (a failing pair)."""
    divisors = [(1, 1)] * 46
    singleton_witnesses = dict.fromkeys(SINGLETONS, (1, 2, 3))
    text, report = synthetic_isotropy(divisors, singleton_witnesses, pair, WS)
    assert text == stdlib(report)


@given(st.lists(certificates, max_size=4), weight_rows(), weight_rows())
@settings(max_examples=60, deadline=None)
def test_rendered_values_encode_inside_a_report(certs, wl, wr):
    """Rendered result values in a report's envelope encode like their dict
    forms."""
    ws = WeightSystem(wl, wr)
    rendered = {
        "certificates": cli._rendered(
            cli._certificates_text, [c.jacobian_rank for c in certs], [c.regularity_margin for c in certs]
        ),
        "weights": cli._rendered(cli._weights_text, ws),
        "derived": cli._rendered(cli._derived_text, ws.derived),
    }
    plain = {
        "certificates": [c.to_json() for c in certs],
        "weights": ws.to_json(),
        "derived": ws.derived.to_json(),
    }
    assert cli._report_text("verify", {}, rendered, True, 0.0) == stdlib(cli._report("verify", {}, plain, True, 0.0))


rationals = st.one_of(small, st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(bool))


@st.composite
def rational_cone_data(draw):
    """Integer or rational A_j and C with B_j = C - A_j, each A_j drawn
    free or as a multiple of one direction (parallel for a positive
    multiple, antiparallel for a negative one, zero for 0)."""
    scalars = draw(st.sampled_from((small, rationals)))
    vec = st.tuples(scalars, scalars)
    c, direction = draw(vec), draw(vec)
    multiples = st.builds(lambda t: (t * direction[0], t * direction[1]), scalars)
    a = draw(st.lists(st.one_of(vec, multiples), min_size=3, max_size=3))
    return cone_data(a, [(c[0] - x, c[1] - y) for x, y in a])


@given(rational_cone_data(), indents)
@settings(max_examples=300, deadline=None)
def test_condition_report_renders_its_dict_form(d, nl):
    report = check_cone_condition(d)
    assert cli._condition_text(_condition_evidence(d), nl) == walk(report.to_json(), nl)
    assert cli._derived_text(d, nl) == walk(d.to_json(), nl)


def test_condition_frame_renders_every_level_set_shape():
    """Every bound-2 admissible system and every 89th bound-2 candidate
    that fails the condition: the condition report, its level-set block in
    the gaps of one frame, renders its dict form at two indents. Both
    verdicts occur, and a witness and an apex functional each present and
    absent."""
    rng = range(-2, 3)
    rows = [
        ((x1, y1), (x2, y2), (-x1 - x2, -y1 - y2))
        for x1, y1, x2, y2 in itertools.product(rng, repeat=4)
        if abs(x1 + x2) <= 2 and abs(y1 + y2) <= 2
    ]
    candidates = (WeightSystem(wl, wr) for wl, wr in itertools.islice(itertools.product(rows, rows), 0, None, 89))
    failing = [ws for ws in candidates if not cone_condition_holds(ws.derived)]
    seen = set()
    for ws in [*enumerate_admissible_systems(2), *failing]:
        report = check_cone_condition(ws.derived)
        level_set = report.level_set
        seen |= {("holds", report.holds), ("witness", level_set.nonempty_witness is not None),
                 ("apex", level_set.apex_functional is not None)}
        for nl in ("\n", "\n      "):
            assert cli._condition_text(_condition_evidence(ws.derived), nl) == walk(report.to_json(), nl)
    assert seen == {(part, present) for part in ("holds", "witness", "apex") for present in (False, True)}


@given(st.integers(1, 50), st.sampled_from(BOUND2[::50]))
@settings(max_examples=150, deadline=None)
def test_interpolation_block_renders_its_dict_form(steps, ws):
    """check writes the block only when the path holds, so its verdict is
    true: the compiled check report at any step count prints the dict form
    of the library's report."""
    argv = ["check", "--config", json.dumps(ws.to_json()), "--interp-steps", str(steps)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    assert out.getvalue() == stdlib(library_report(argv))


@given(weight_rows(st.one_of(st.integers(-3, 3), entries)), weight_rows(), indents)
@settings(max_examples=150, deadline=None)
def test_weights_block_renders_its_dict_form(wl, wr, nl):
    ws = WeightSystem(wl, wr)
    assert cli._weights_text(ws, nl) == walk(ws.to_json(), nl)


@st.composite
def searches(draw):
    """A bound from 1 to 4 and blocks of its grid's rows as
    ``weights._admissible_blocks`` yields them: ascending wL rows, each
    with ascending wR rows and their freeness verdicts."""
    bound = draw(st.integers(1, 4))
    n_rows = (3 * bound * bound + 3 * bound + 1) ** 2
    rows = st.integers(0, n_rows - 1)
    blocks = []
    for row in sorted(draw(st.lists(rows, max_size=6, unique=True))):
        keep = sorted(draw(st.lists(rows, min_size=1, max_size=5, unique=True)))
        blocks.append((row, keep, draw(st.lists(st.booleans(), min_size=len(keep), max_size=len(keep)))))
    return bound, blocks


@given(searches())
@settings(max_examples=150, deadline=None)
def test_stream_lines_match_json_dumps(search):
    """``enumerate`` writes each block's systems, the wL row against each
    survivor's wR row with its verdict, as ``json.dumps(line,
    sort_keys=True)`` lines, and counts them and the free ones."""
    bound, blocks = search

    def admissible_blocks(b):
        assert b == bound
        return iter(blocks)

    out = io.StringIO()
    with mock.patch.object(weights, "_admissible_blocks", admissible_blocks), contextlib.redirect_stdout(out):
        results, ok = cli.cmd_enumerate(argparse.Namespace(bound=bound))
    rows = weights._weight_grid(bound)[0]
    systems = [(WeightSystem(rows[row], rows[i]), f) for row, keep, free in blocks for i, f in zip(keep, free)]
    expected = [{**ws.to_json(), "free": f, "classification": Classification.of(f).value} for ws, f in systems]
    assert out.getvalue() == "".join(json.dumps(line, sort_keys=True) + "\n" for line in expected)
    assert ok and results == {"bound": bound, "count": len(systems), "free_count": sum(f for _, f in systems)}
