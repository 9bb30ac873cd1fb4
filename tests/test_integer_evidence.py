"""The integer evidence of the sign table against the ``Fraction`` results
it replaced: every decision (status, n1, n2, den) of
``SignTable.decide``, every strictly positive combination of
``SignTable.positive`` and the apex functional of ``SignTable.apex``, on
int, ``Fraction`` and 30-digit vectors with zero, parallel and
antiparallel ones; the text of a quotient n/d, which ``check`` and
``isotropy`` print, against ``scalar_to_json(Fraction(n, d))``; and the
census keys (d1, d12) against ``smith_invariant_factors`` of each
pattern's rows on every bound-2 system."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_apex, reference_in_cone2, reference_positive_combination
from su3kahler.conegeom import (
    MembershipStatus,
    SignTable,
    _membership_of,
    _quotient_text,
    invariant_factors_from_divisors,
    scalar_to_json,
    smith_invariant_factors,
    vscale,
)
from su3kahler.isotropy import _CENSUS_PATTERNS, _census_evidence, _integer_generators
from su3kahler.weights import (
    DerivedConeData,
    _condition_evidence,
    check_cone_condition,
    check_level_set_conditions,
    derive,
)

HUGE = 10**30

SCALARS = (
    st.integers(-4, 4),
    st.fractions(-4, 4, max_denominator=6),
    st.builds(Fraction, st.integers(-HUGE, HUGE), st.integers(1, 10**6)),
)


@st.composite
def vector_lists(draw):
    """Three to five vectors of one scalar kind, each drawn free, zero, or
    a multiple of one direction (parallel or antiparallel)."""
    scalars = draw(st.sampled_from(SCALARS))
    vec = st.tuples(scalars, scalars)
    direction = draw(vec)
    kinds = st.sampled_from(("free", "zero", "along"))
    vectors = []
    for _ in range(draw(st.integers(3, 5))):
        kind = draw(kinds)
        if kind == "free":
            vectors.append(draw(vec))
        elif kind == "zero":
            vectors.append((0, 0))
        else:
            vectors.append(vscale(draw(st.integers(-3, 3)), direction))
    return vectors


@given(vector_lists())
@settings(max_examples=300, deadline=None)
def test_every_decision_views_as_the_former_membership(vectors):
    """Every (k, p, q): the decision's Fraction view equals the membership
    computed from the vectors' own crosses, a non-member has den 0 and a
    member's witness recombines to vector k on the cleared vectors."""
    table = SignTable(vectors)
    for k, p, q in itertools.product(range(len(vectors)), repeat=3):
        evidence = table.decide(k, p, q)
        status, n1, n2, den = evidence
        assert _membership_of(evidence) == reference_in_cone2(vectors[k], vectors[p], vectors[q])
        assert table.membership(k, p, q) == _membership_of(evidence)
        assert (den == 0) == (status is MembershipStatus.OUTSIDE)
        if den:
            (x, y), (xp, yp), (xq, yq) = table.vectors[k], table.vectors[p], table.vectors[q]
            assert (n1 * xp + n2 * xq, n1 * yp + n2 * yq) == (den * x, den * y)


@given(vector_lists())
@settings(max_examples=300, deadline=None)
def test_every_positive_combination_views_as_the_former_one(vectors):
    """Every (k, p, q): the strictly positive combination's Fraction view
    equals the former Fraction computation, parallel generators included,
    and its integers recombine to vector k with both quotients positive."""
    table = SignTable(vectors)
    for k, p, q in itertools.product(range(len(vectors)), repeat=3):
        w = table.positive(k, p, q)
        reference = reference_positive_combination(vectors[k], vectors[p], vectors[q])
        assert (None if w is None else (Fraction(w[0], w[2]), Fraction(w[1], w[2]))) == reference
        if w is not None:
            n1, n2, den = w
            assert n1 * den > 0 and n2 * den > 0
            (x, y), (xp, yp), (xq, yq) = table.vectors[k], table.vectors[p], table.vectors[q]
            assert (n1 * xp + n2 * xq, n1 * yp + n2 * yq) == (den * x, den * y)


@given(vector_lists())
@settings(max_examples=300, deadline=None)
def test_apex_evidence_views_as_the_former_functional(vectors):
    """The apex functional of rational data is that of the data, not of the
    cleared table: the table's quotient scales by the clearing, which the
    numerators carry."""
    gens = [v for v in vectors if v != (0, 0)] or [(1, 0)]
    apex = SignTable(gens).apex(len(gens))
    reference = reference_apex(gens)
    assert (None if apex is None else (Fraction(apex[0], apex[2]), Fraction(apex[1], apex[2]))) == reference


@pytest.mark.parametrize("scale", [Fraction(1, 7), Fraction(HUGE + 1, 3), Fraction(2, HUGE + 7)])
def test_rational_data_keep_their_apex_functional(orbifold_data, scale):
    """Scaling the data by s > 0 scales the apex functional by 1/s: each
    scaled copy prints its own functional, not the integer data's."""
    d = orbifold_data
    scaled = DerivedConeData(*(tuple(vscale(scale, v) for v in vs) for vs in (d.a, d.b)), vscale(scale, d.c))
    assert scaled.apex_functional == tuple(x / scale for x in d.apex_functional)
    assert scaled.apex_functional == reference_apex([*scaled.a, *scaled.b])
    x, y, den = scaled._apex
    assert (_quotient_text(x, den), _quotient_text(y, den)) == tuple(map(scalar_to_json, scaled.apex_functional))


NONZERO = st.integers(-(10**40), 10**40).filter(bool)


@given(st.integers(-(10**40), 10**40), NONZERO)
@settings(max_examples=500, deadline=None)
def test_quotient_text_is_the_fraction_text(n, d):
    assert _quotient_text(n, d) == scalar_to_json(Fraction(n, d))


@pytest.mark.parametrize(
    "n, d, text",
    [
        (3, -6, "-1/2"),
        (-3, -6, "1/2"),
        (0, -5, "0"),
        (0, 1, "0"),
        (7, 1, "7"),
        (7, -1, "-7"),
        (-12, 4, "-3"),
        (4, 6, "2/3"),
        (HUGE, -HUGE * 3, "-1/3"),
    ],
)
def test_quotient_text_cases(n, d, text):
    assert _quotient_text(n, d) == text == scalar_to_json(Fraction(n, d))


def test_quotient_text_past_the_digit_limit_raises_as_str_does():
    """Also for d == 1, which writes str(n) without a gcd, and d == -1."""
    n = 10**4400 + 1
    for d in (3, 1, -1):
        with pytest.raises(ValueError, match="Exceeds the limit"):
            str(Fraction(n, d))
        with pytest.raises(ValueError, match="Exceeds the limit"):
            _quotient_text(n, d)


def test_census_keys_are_the_smith_divisors(bound2_systems):
    """On every bound-2 system, each census key (d1, d12) gives the rank and
    invariant factors that smith_invariant_factors reads off the pattern's
    rows, in census order."""
    for ws in bound2_systems:
        d = derive(ws)
        gens = _integer_generators(d)
        keys = [(d1, d12) for _, d1, d12, _ in _census_evidence(d)]
        assert len(keys) == len(_CENSUS_PATTERNS) == 46
        for (pattern, *_), (d1, d12) in zip(_CENSUS_PATTERNS, keys):
            rows = [gens[i - 1] for i in pattern.i_set] + [gens[2 + j] for j in pattern.j_set]
            assert invariant_factors_from_divisors(d1, d12) == smith_invariant_factors(rows)


def test_condition_evidence_is_the_report(orbifold_data, bound1_systems):
    """The integers check prints are those of check_cone_condition: its
    verdict, the 27 decisions as its memberships and the level-set block."""
    for d in (orbifold_data, *(derive(ws) for ws in bound1_systems)):
        d = DerivedConeData(d.a, d.b, d.c)
        holds, tables, (witness, regular, compact, apex) = _condition_evidence(d)
        report = check_cone_condition(d)
        assert holds == report.holds
        for table, pairs in zip(tables, (report.a_pairs, report.b_pairs, report.mixed_pairs)):
            assert [_membership_of(e) for e in table] == [pairs[ij] for ij in sorted(pairs)]
        level = report.level_set
        assert (regular, compact) == (level.regular, level.compact)
        if witness is None:
            assert level.nonempty_witness is None
        else:
            i, j, na, nb, den = witness
            assert level.nonempty_witness == (i, j, Fraction(na, den), Fraction(nb, den))
        assert (None if apex is None else (Fraction(apex[0], apex[2]), Fraction(apex[1], apex[2]))) == (
            level.apex_functional
        )


def test_level_set_witness_builds_no_fraction_view(orbifold_data, bound1_systems):
    """check_level_set_conditions writes its one witness from the integer
    evidence: on fresh cone data it leaves the cached Fraction view
    mixed_witnesses unbuilt, and its witness is that view's first entry."""
    for d in (orbifold_data, *(derive(ws) for ws in bound1_systems)):
        d = DerivedConeData(d.a, d.b, d.c)
        witness = check_level_set_conditions(d).nonempty_witness
        assert "mixed_witnesses" not in d.__dict__
        assert witness == d.mixed_witnesses[0]
