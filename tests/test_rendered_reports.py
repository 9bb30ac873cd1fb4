"""The census and certificate lists that ``isotropy`` and ``verify`` write
from cached templates, against the encoder's walk of their dict forms
(``census_to_json`` and ``PointCertificate.to_json``), at several starting
indents."""

import functools
import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from su3kahler import cli
from su3kahler.isotropy import (
    IsotropyGroup,
    StratumReport,
    SupportPattern,
    census_to_json,
    singular_stratum_census,
)
from su3kahler.quadric import PointCertificate
from su3kahler.weights import cone_data

indents = st.integers(0, 5).map(lambda k: "\n" + "  " * k)


def walk(obj, nl):
    parts: list = []
    cli._encode(obj, parts, nl)
    return "".join(parts)


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
    assert cli._census_text(census, nl) == walk(census_to_json(census), nl)


subsets = st.lists(st.integers(1, 3), min_size=1, max_size=3, unique=True)
patterns = st.builds(lambda i, j: (i, j), subsets, subsets).filter(
    lambda ij: any(x != y for x in ij[0] for y in ij[1])
).map(lambda ij: SupportPattern(*ij))
divisor_pairs = st.builds(lambda d1, k: (d1, d1 * k), st.integers(1, 12), st.integers(1, 12))
groups = st.one_of(
    divisor_pairs.map(lambda f: IsotropyGroup(2, f)),  # finite
    st.integers(1, 30).map(lambda d1: IsotropyGroup(1, (d1,))),  # rank deficit 1
    st.just(IsotropyGroup(0, ())),  # rank deficit 2
)
big = 10**29
witness_scalars = st.one_of(
    st.fractions(min_value=-50, max_value=50, max_denominator=20),  # negative, integral or not
    st.builds(Fraction, st.integers(-10 * big, 10 * big), st.integers(1, big)),  # 30-digit numerators
)
witnesses = st.one_of(st.none(), st.tuples(witness_scalars, witness_scalars))
reports = st.builds(StratumReport, patterns, groups, st.sampled_from((True, False, None)), witnesses)


@given(st.lists(reports, max_size=50), indents)
@settings(max_examples=150, deadline=None)
def test_synthetic_census_renders_its_dict_form(census, nl):
    assert cli._census_text(census, nl) == walk(census_to_json(census), nl)


@given(integer_cone_data(), st.randoms(use_true_random=False), st.integers(0, 46), indents)
@settings(max_examples=60, deadline=None)
def test_shuffled_and_partial_census_renders_its_dict_form(d, rng, keep, nl):
    census = singular_stratum_census(d)
    rng.shuffle(census)
    census = census[:keep]
    assert cli._census_text(census, nl) == walk(census_to_json(census), nl)


special_floats = st.sampled_from(
    [math.inf, -math.inf, math.nan, 0.0, -0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
)
floats = st.one_of(st.floats(allow_nan=True, allow_infinity=True), special_floats)
rank_failures = st.builds(  # the shapes certify_points reports for a rank failure
    lambda regular, jacobian, combined: PointCertificate(
        regular, False, jacobian, combined, math.inf, math.inf, math.inf, (), False
    ),
    st.booleans(),
    st.integers(0, 4),
    st.integers(0, 10),
)
certificates = st.one_of(
    rank_failures,
    st.builds(
        PointCertificate,
        st.booleans(),
        st.booleans(),
        st.integers(0, 4),
        st.integers(0, 10),
        floats,
        floats,
        floats,
        st.one_of(st.lists(floats, min_size=8, max_size=8), st.lists(floats, max_size=9)).map(tuple),
        st.booleans(),
    ),
)


@given(st.lists(certificates, max_size=12), indents)
@settings(max_examples=200, deadline=None)
def test_certificates_render_their_dict_forms(certs, nl):
    assert cli._certificates_text(certs, nl) == walk([c.to_json() for c in certs], nl)


@given(st.lists(certificates, max_size=4), st.lists(reports, max_size=4))
@settings(max_examples=60, deadline=None)
def test_rendered_values_encode_inside_a_report(certs, census):
    """A rendered value in a report encodes like its dict form."""
    rendered = {
        "certificates": cli._Rendered(functools.partial(cli._certificates_text, certs)),
        "census": [cli._Rendered(functools.partial(cli._census_text, census))],
    }
    plain = {"certificates": [c.to_json() for c in certs], "census": [census_to_json(census)]}
    assert cli.encode_report(rendered) == cli.encode_report(plain)
