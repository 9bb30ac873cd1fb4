"""The report parts that ``check``, ``isotropy``, ``verify`` and
``enumerate`` write from cached templates, against ``json.dumps`` of
their dict forms (``census_to_json``, ``PointCertificate.to_json``,
``ConditionReport.to_json`` with its level-set block, the interpolation
block, ``WeightSystem.to_json``, ``DerivedConeData.to_json`` and
``FreenessVerdict.to_json``) at several starting indents, and the stream
lines against ``json.dumps``. The
condition report and the census are written from their integer evidence
(``weights._condition_evidence``, ``isotropy._census_evidence``), so each
is compared with the dict form of the reports the library builds from the
same data or evidence."""

import itertools
import json
import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from su3kahler import cli
from su3kahler.isotropy import (
    _CENSUS_PATTERNS,
    Classification,
    FreenessVerdict,
    _census_evidence,
    _census_report,
    census_to_json,
    singular_stratum_census,
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


@st.composite
def integer_cone_data(draw):
    """Integer A_j and C with B_j = C - A_j: no condition imposed, so the
    census sees zero, parallel and antiparallel generators."""
    c = draw(vectors)
    a = draw(st.lists(vectors, min_size=3, max_size=3))
    return cone_data(a, [(c[0] - x, c[1] - y) for x, y in a])


@given(integer_cone_data(), indents)
@settings(max_examples=150, deadline=None)
def test_census_of_cone_data_renders_its_dict_form(d, nl):
    census = singular_stratum_census(d)
    assert cli._census_text(_census_evidence(d), nl) == walk(census_to_json(census), nl)


# divisor pairs of rank 2 (d1 | d12), rank 1 (d12 = 0) and rank 0
divisor_pairs = st.one_of(
    st.builds(lambda d1, k: (d1, d1 * k), st.integers(1, 12), st.integers(0, 12)),
    st.just((0, 0)),
)
big = 10**29
witness_integers = st.one_of(
    st.integers(-50, 50).filter(bool),  # negative, unit or not
    st.integers(-10 * big, 10 * big).filter(bool),  # 30-digit
)
witnesses = st.tuples(st.integers(-50, 50), st.integers(-50, 50), witness_integers)
SINGLETONS = [singleton for _, _, _, singleton, _ in _CENSUS_PATTERNS if singleton is not None]


def census_rows(drawn):
    """The rows (k, d1, d12, witness) of _census_evidence, in census order,
    for drawn divisors per pattern and witnesses of some singletons."""
    divisors, singleton_witnesses = drawn
    return [
        (k, d1, d12, singleton_witnesses.get(singleton))
        for k, ((d1, d12), (_, _, _, singleton, _)) in enumerate(zip(divisors, _CENSUS_PATTERNS))
    ]


synthetic_evidence = st.tuples(
    st.lists(divisor_pairs, min_size=46, max_size=46),
    st.dictionaries(st.sampled_from(SINGLETONS), witnesses),
).map(census_rows)


def census_of(rows):
    """The census reports of synthetic integer evidence, built as
    singular_stratum_census builds them."""
    reports = []
    for k, d1, d12, w in rows:
        witness = None if w is None else (Fraction(w[0], w[2]), Fraction(w[1], w[2]))
        reports.append(_census_report(k, d1, d12, witness))
    return reports


@given(synthetic_evidence, indents)
@settings(max_examples=150, deadline=None)
def test_synthetic_census_renders_its_dict_form(rows, nl):
    """Any divisors per pattern and any singleton witnesses, zero, negative,
    unit and 30-digit quotients included."""
    assert cli._census_text(rows, nl) == walk(census_to_json(census_of(rows)), nl)


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


failing_pairs = st.one_of(st.none(), st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(0, 10**20)))


@given(failing_pairs, indents)
@settings(max_examples=100, deadline=None)
def test_freeness_block_renders_its_dict_form(pair, nl):
    """Both shapes: free (no failing pair) and orbifold (a failing pair)."""
    verdict = FreenessVerdict(pair)
    assert cli._freeness_text(verdict, nl) == walk(verdict.to_json(), nl)


@given(st.lists(certificates, max_size=4), synthetic_evidence, failing_pairs)
@settings(max_examples=60, deadline=None)
def test_rendered_values_encode_inside_a_report(certs, rows, pair):
    """Rendered result values in a report's envelope encode like their dict
    forms."""
    verdict = FreenessVerdict(pair)
    rendered = {
        "certificates": cli._rendered(
            cli._certificates_text, [c.jacobian_rank for c in certs], [c.regularity_margin for c in certs]
        ),
        "census": cli._rendered(cli._census_text, rows),
        "freeness": cli._rendered(cli._freeness_text, verdict),
    }
    plain = {
        "certificates": [c.to_json() for c in certs],
        "census": census_to_json(census_of(rows)),
        "freeness": verdict.to_json(),
    }
    expected = json.dumps(cli._report("isotropy", {}, plain, True, 0.0), indent=2, sort_keys=True) + "\n"
    assert cli._report_text("isotropy", {}, rendered, True, 0.0) == expected


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


@given(st.integers(1, 50), indents)
@settings(max_examples=150, deadline=None)
def test_interpolation_block_renders_its_dict_form(steps, nl):
    """check writes the block only when the path holds, so its verdict is true."""
    times = default_interpolation_times(steps)
    assert cli._interpolation_text(steps, nl) == walk(cli._interpolation_json(times, True), nl)


entries = st.integers(-(10**20), 10**20)


@st.composite
def weight_rows(draw, values=entries):
    """Three integer vectors summing to zero."""
    (x1, y1), (x2, y2) = draw(st.tuples(st.tuples(values, values), st.tuples(values, values)))
    return ((x1, y1), (x2, y2), (-x1 - x2, -y1 - y2))


@given(weight_rows(st.one_of(st.integers(-3, 3), entries)), weight_rows(), indents)
@settings(max_examples=150, deadline=None)
def test_weights_block_renders_its_dict_form(wl, wr, nl):
    ws = WeightSystem(wl, wr)
    assert cli._weights_text(ws, nl) == walk(ws.to_json(), nl)


@st.composite
def streams(draw):
    """Systems of rows with entries in [-bound, bound] for a bound from 1 to
    4, zero and negative ones included, with freeness verdicts, in blocks
    of consecutive equal wL as the enumeration yields them."""
    bound = draw(st.integers(1, 4))
    rows = weight_rows(st.integers(-bound, bound)).filter(
        lambda row: all(abs(x) <= bound for v in row for x in v)
    )
    tails = st.lists(st.tuples(rows, st.booleans()), min_size=1, max_size=5)
    blocks = draw(st.lists(st.tuples(rows, tails), max_size=6))
    systems = []
    for wl, tail in blocks:
        for wr, free in tail:
            ws = WeightSystem(wl, wr)
            ws.__dict__["free"] = free  # the verdict, stamped as the enumerator stamps it
            systems.append(ws)
    return systems


@given(streams())
@settings(max_examples=150, deadline=None)
def test_stream_lines_match_json_dumps(systems):
    blocks = list(cli._stream_blocks(iter(systems)))
    expected = [
        {**ws.to_json(), "free": ws.free, "classification": Classification.of(ws.free).value}
        for ws in systems
    ]
    assert "".join(text for text, _, _ in blocks) == "".join(
        json.dumps(line, sort_keys=True) + "\n" for line in expected
    )
    assert sum(n for _, n, _ in blocks) == len(systems)
    assert sum(n_free for _, _, n_free in blocks) == sum(ws.free for ws in systems)
    assert len(blocks) == len([wl for wl, _ in itertools.groupby(ws.wl for ws in systems)])
