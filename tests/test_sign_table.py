"""The sign table of cone data (``DerivedConeData.sign_table``) against the
exact layers as they were before it (the references in ``conftest.py``):
the condition report with its 27 memberships and its level-set block, the
mixed witnesses, the apex functional, the interpolation verdict and the
census, on int, ``Fraction`` and 30-digit data with zero, parallel and
antiparallel generators and C = 0."""

import functools
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    reference_apex,
    reference_census,
    reference_condition_report,
    reference_in_cone2,
    reference_interpolation_path,
    reference_level_set,
    reference_mixed_witnesses,
)
from su3kahler.conegeom import MembershipStatus, SignTable, find_apex_functional, in_cone2, vscale, vsub
from su3kahler.isotropy import singular_stratum_census
from su3kahler.weights import (
    DerivedConeData,
    check_cone_condition,
    check_interpolation_path,
    check_level_set_conditions,
    default_interpolation_times,
    derive,
    enumerate_admissible_systems,
    interpolation_spec,
)

HUGE = 10**30

SCALARS = {
    "int": st.integers(-4, 4),
    "fraction": st.fractions(-4, 4, max_denominator=6),
    "huge": st.integers(-HUGE, HUGE),
    "huge fraction": st.builds(Fraction, st.integers(-HUGE, HUGE), st.integers(1, 10**6)),
}


@st.composite
def cone_configurations(draw):
    """Cone data A_j + B_j = C of one scalar kind, each A_j drawn free, zero,
    equal to C (so B_j = 0), or a multiple of C or of one direction (zero,
    parallel or antiparallel for a multiplier 0, > 0 or < 0); C may be 0."""
    scalars = SCALARS[draw(st.sampled_from(sorted(SCALARS)))]
    vec = st.tuples(scalars, scalars)
    c = draw(st.one_of(vec, st.just((0, 0))))
    direction = draw(vec)
    a = []
    for _ in range(3):
        kind = draw(st.sampled_from(("free", "zero_a", "zero_b", "along_c", "along_direction")))
        if kind == "free":
            a.append(draw(vec))
        elif kind == "zero_a":
            a.append((0, 0))
        elif kind == "zero_b":
            a.append(c)
        else:
            a.append(vscale(draw(st.integers(-3, 3)), c if kind == "along_c" else direction))
    return DerivedConeData(tuple(a), tuple(vsub(c, g) for g in a), c)


@functools.lru_cache(maxsize=1)
def bound2_data():
    return tuple(derive(ws) for ws in enumerate_admissible_systems(2))


@st.composite
def admissible_configurations(draw):
    """A bound-2 system's cone data (the condition holds) scaled by 1, a
    small rational or a 30-digit rational, all positive."""
    d = bound2_data()[draw(st.integers(0, 2855))]
    scale = draw(
        st.sampled_from(
            (Fraction(1), Fraction(3, 7), Fraction(HUGE + 1, 3), Fraction(2, HUGE + 7), Fraction(HUGE))
        )
    )
    if scale == 1:
        return d
    return DerivedConeData(*(tuple(vscale(scale, v) for v in vs) for vs in (d.a, d.b)), vscale(scale, d.c))


configurations = st.one_of(cone_configurations(), admissible_configurations())


def fresh(d):
    """A copy of d with nothing cached on it."""
    return DerivedConeData(d.a, d.b, d.c)


@given(configurations)
@settings(max_examples=400, deadline=None)
def test_condition_report_witnesses_and_apex_match_the_references(d):
    report = check_cone_condition(fresh(d))
    reference = reference_condition_report(d)
    assert report == reference
    assert report.to_json() == reference.to_json()
    # read in the other order: the level-set block and the witnesses first
    other = fresh(d)
    assert check_level_set_conditions(other) == reference_level_set(d)
    assert other.mixed_witnesses == reference_mixed_witnesses(d)
    gens = [*d.a, *d.b]
    if all(g != (0, 0) for g in gens):
        assert find_apex_functional(gens) == reference_apex(gens)


@given(st.lists(st.one_of(*(st.tuples(s, s) for s in SCALARS.values())), min_size=1, max_size=7))
@settings(max_examples=300, deadline=None)
def test_apex_functional_matches_the_reference(gens):
    gens = [g for g in gens if g != (0, 0)] or [(1, 0)]
    assert find_apex_functional(gens) == reference_apex(gens)


@given(configurations, st.integers(0, 2), st.integers(0, 2))
@settings(max_examples=200, deadline=None)
def test_in_cone2_reads_the_table_of_its_three_vectors(d, i, j):
    c, g1, g2 = d.c, d.a[i], d.b[j]
    assert in_cone2(c, g1, g2) == reference_in_cone2(c, g1, g2)
    assert SignTable((g1, g2, c)).membership(2, 0, 1) == reference_in_cone2(c, g1, g2)


def interior_spec(d, times):
    """The interpolation spec of d at these times, or None when C is not
    interior to cone(A_1, B_1)."""
    try:
        return interpolation_spec(d, times)
    except ValueError:
        return None


@given(configurations, st.integers(1, 50))
@settings(max_examples=300, deadline=None)
def test_interpolation_verdict_matches_the_reference_at_default_times(d, steps):
    spec = interior_spec(d, default_interpolation_times(steps))
    base = reference_in_cone2(d.c, d.a[0], d.b[0])
    assert (spec is not None) == (base.status is MembershipStatus.INTERIOR)
    if spec is not None:
        assert (spec.a, spec.b) == base.coefficients
        assert check_interpolation_path(d, spec) == reference_interpolation_path(d, spec)


@given(
    configurations,
    st.lists(st.fractions(0, 1, max_denominator=10**6), min_size=1, max_size=6),
)
@settings(max_examples=300, deadline=None)
def test_interpolation_verdict_matches_the_reference_at_random_times(d, times):
    spec = interior_spec(d, times)
    if spec is not None:
        assert check_interpolation_path(d, spec) == reference_interpolation_path(d, spec)


def test_census_of_shared_entries_equals_a_fresh_one(bound2_systems):
    for ws in bound2_systems:
        d = derive(ws)
        census = singular_stratum_census(d)
        reference = reference_census(d)
        assert census == reference
        assert [r.to_json() for r in census] == [r.to_json() for r in reference]
    again = singular_stratum_census(derive(ws))
    shared = [r is s for r, s in zip(census, again)]
    assert shared == [not r.pattern.is_singleton for r in census]  # 40 shared, 6 built


def test_all_zero_data_match_the_reference():
    d = DerivedConeData(((0, 0),) * 3, ((0, 0),) * 3, (0, 0))
    assert check_cone_condition(d) == reference_condition_report(d)
    assert singular_stratum_census(d) == reference_census(d)
