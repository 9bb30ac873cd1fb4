"""The sign table of cone data (``DerivedConeData.sign_table``) against the
exact layers as they were before it (the references in ``conftest.py``):
the condition report with its 27 memberships and its level-set block, the
nine-sign verdict against the evidence and the 8 membership tests, the
mixed witnesses, the apex functional, the interpolation verdict and the
census, on int, ``Fraction`` and 30-digit data with zero, parallel,
antiparallel and C-parallel generators and C = 0; the base (A_1, B_1) of
the interpolation path, which the condition forces; and the table's gate
on its entries."""

import functools
import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    admissible_systems,
    reference_apex,
    reference_census,
    reference_condition_evidence,
    reference_condition_holds,
    reference_condition_report,
    reference_in_cone2,
    reference_interpolation_path,
    reference_level_set,
    reference_mixed_witnesses,
    reference_witness_evidence,
)
from su3kahler.conegeom import (
    MembershipStatus,
    SignTable,
    _membership_of,
    cross,
    find_apex_functional,
    in_cone2,
    vscale,
    vsub,
)
from su3kahler import weights
from su3kahler.isotropy import singular_stratum_census
from su3kahler.weights import (
    _DIAGONAL_EVIDENCE,
    _condition_evidence,
    DerivedConeData,
    WeightSystem,
    check_cone_condition,
    check_interpolation_path,
    check_level_set_conditions,
    cone_condition_holds,
    default_interpolation_times,
    derive,
    enumerate_admissible_systems,
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
    equal to C (so B_j = 0), a multiple of C or of one direction (zero,
    parallel or antiparallel for a multiplier 0, > 0 or < 0), or a fraction
    of C strictly between 0 and C (A_j and B_j both on ray(C)); C may be 0."""
    scalars = SCALARS[draw(st.sampled_from(sorted(SCALARS)))]
    vec = st.tuples(scalars, scalars)
    c = draw(st.one_of(vec, st.just((0, 0))))
    direction = draw(vec)
    a = []
    for _ in range(3):
        kind = draw(st.sampled_from(("free", "zero_a", "zero_b", "along_c", "along_direction", "inside_c")))
        if kind == "free":
            a.append(draw(vec))
        elif kind == "zero_a":
            a.append((0, 0))
        elif kind == "zero_b":
            a.append(c)
        elif kind == "inside_c":
            t = draw(st.fractions(0, 1, max_denominator=7).filter(lambda t: 0 < t < 1))
            a.append(vscale(t, c))
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


@given(configurations)
@settings(max_examples=300, deadline=None)
def test_an_independent_diagonal_membership_is_the_shared_constant(d):
    """C = A_i + B_i, so C against cone(A_i, B_i) with cross(A_i, B_i) != 0
    is INTERIOR with (1, 1): the one shared evidence, whose view equals the
    membership the sign table decides. Dependent pairs are decided by the
    table."""
    d = fresh(d)
    table = d.sign_table
    for i in range(3):
        diagonal = d._mixed_evidence[4 * i]
        assert _membership_of(diagonal) == table.membership(6, i, 3 + i)
        assert (diagonal is _DIAGONAL_EVIDENCE) == (cross(d.a[i], d.b[i]) != 0)


@given(configurations)
@settings(max_examples=600, deadline=None)
def test_nine_sign_verdict_matches_the_evidence_and_the_eight_tests(d):
    """The README's nine-sign corollary: the condition holds exactly when
    the nine crosses cross(A_i, B_j) are nonzero with one sign; the verdict
    equals the 27 memberships' decided pair by pair (a report's own
    memberships are read off the verdict where it holds) and the 8 tests'
    (each by its own crosses)."""
    verdict = cone_condition_holds(fresh(d))
    assert verdict == reference_condition_evidence(d)[0]
    assert verdict == reference_condition_holds(*d.a, *d.b, d.c)
    nine = [cross(a, b) for a in d.a for b in d.b]
    assert verdict == (all(x > 0 for x in nine) or all(x < 0 for x in nine))


def assert_evidence_is_the_per_pair_evidence(d):
    """d's condition evidence, mixed evidence and witnesses, each read
    first on fresh data, equal the evidence decided pair by pair."""
    reference = reference_condition_evidence(d)
    holds, tables, level_set = _condition_evidence(fresh(d))
    assert (holds, tuple(map(tuple, tables)), level_set) == reference
    assert fresh(d)._mixed_evidence == reference[1][2]
    assert fresh(d)._witness_evidence == reference_witness_evidence(d)


@given(configurations)
@settings(max_examples=400, deadline=None)
def test_evidence_equals_the_per_pair_evidence(d):
    assert_evidence_is_the_per_pair_evidence(d)


def test_admissible_evidence_equals_the_per_pair_evidence():
    """Where the condition holds the evidence is read off the nine crosses
    (the nine-sign corollary): every bound-2 system and every 97th bound-3
    one."""
    systems = [*admissible_systems(2), *itertools.islice(enumerate_admissible_systems(3), 0, None, 97)]
    assert len(systems) == 2856 + 667
    for ws in systems:
        assert_evidence_is_the_per_pair_evidence(derive(ws))


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


def interior_verdict(d):
    """The interpolation verdict of d, or None when C is not interior to
    cone(A_1, B_1). By the README's path corollary it is the verdict at
    t = 1, so it equals the reference at any sample times with 1 added."""
    try:
        return check_interpolation_path(fresh(d))
    except ValueError:
        return None


@given(configurations, st.integers(1, 50))
@settings(max_examples=300, deadline=None)
def test_interpolation_verdict_matches_the_reference_at_default_times(d, steps):
    times = default_interpolation_times(steps)
    verdict = interior_verdict(d)
    base = reference_in_cone2(d.c, d.a[0], d.b[0])
    assert (verdict is not None) == (base.status is MembershipStatus.INTERIOR)
    if verdict is not None:
        assert base.coefficients == (1, 1)
        assert verdict == reference_interpolation_path(d, [*times, 1])


@given(
    configurations,
    st.lists(st.fractions(0, 1, max_denominator=10**6), min_size=1, max_size=6),
)
@settings(max_examples=300, deadline=None)
def test_interpolation_verdict_matches_the_reference_at_random_times(d, times):
    verdict = interior_verdict(d)
    if verdict is not None:
        assert verdict == reference_interpolation_path(d, [*times, 1])


small_vectors = st.tuples(st.integers(-5, 5), st.integers(-5, 5))


@given(
    st.lists(small_vectors, min_size=3, max_size=3),
    small_vectors,
    st.lists(st.fractions(0, 1, max_denominator=60), min_size=1, max_size=4),
)
@settings(max_examples=600, deadline=None)
def test_interpolation_verdict_matches_the_reference_on_small_integer_data(a, c, times):
    """Free small integer data, where the reference's sampled crosses
    vanish or change sign between the ends far more often than on the data
    above."""
    d = DerivedConeData(tuple(a), tuple(vsub(c, v) for v in a), c)
    verdict = interior_verdict(d)
    assert (verdict is None) == (cross(d.a[0], d.b[0]) == 0)
    if verdict is not None:
        assert verdict == reference_interpolation_path(d, [*times, 1])


FINE_TIMES = [Fraction(k, 97) for k in range(98)]


@given(configurations)
@settings(max_examples=150, deadline=None)
def test_where_the_condition_holds_the_reference_passes_at_every_97th(d):
    """The path corollary read forwards: where the condition holds, the
    reference finds it at each of the times k/97, k = 0..97."""
    if cone_condition_holds(fresh(d)):
        assert reference_interpolation_path(d, FINE_TIMES)


@given(configurations)
@settings(max_examples=400, deadline=None)
def test_the_condition_forces_a_1_and_b_1_independent(d):
    """The README's lemma: where the condition holds, A_1 and B_1 are
    independent, so C = A_1 + B_1 is interior to cone(A_1, B_1) with
    coefficients (1, 1), the base of the path."""
    if cone_condition_holds(fresh(d)):
        assert cross(d.a[0], d.b[0]) != 0
        m = check_cone_condition(d).mixed_pairs[1, 1]
        assert m.status is MembershipStatus.INTERIOR and m.coefficients == (1, 1)


@given(configurations)
@settings(max_examples=400, deadline=None)
def test_the_path_starts_inside_and_ends_at_the_condition(d):
    if cross(d.a[0], d.b[0]):
        assert reference_interpolation_path(d, [0])
        verdict = check_interpolation_path(fresh(d))
        assert verdict == cone_condition_holds(d) == reference_interpolation_path(d, [1])
    else:
        with pytest.raises(ValueError, match=r"interior of cone\(A_1, B_1\)"):
            check_interpolation_path(fresh(d))


def float_data():
    """The orbifold example with A_1 = (1.0, 0), which == accepts as (1, 0)."""
    return DerivedConeData(((1.0, 0), (1, 0), (2, -1)), ((0, 1), (0, 1), (-1, 2)), (1, 1))


# every scalar entry point of the cone layer, each with an entry that is
# not an int or a Fraction, and the type and value the error names
INEXACT_ENTRIES = {
    "check_cone_condition": (lambda: check_cone_condition(float_data()), "float: 1.0"),
    "cone_condition_holds": (lambda: cone_condition_holds(float_data()), "float: 1.0"),
    "check_level_set_conditions": (lambda: check_level_set_conditions(float_data()), "float: 1.0"),
    "check_interpolation_path": (lambda: check_interpolation_path(float_data()), "float: 1.0"),
    "in_cone2": (lambda: in_cone2((True, False), (1, 0), (0, 1)), "bool: True"),
    "find_apex_functional": (lambda: find_apex_functional([(True, 0), (0, 1)]), "bool: True"),
    "SignTable": (lambda: SignTable([(Fraction(1, 2), "1")]), "str: '1'"),
}


@pytest.mark.parametrize("name", sorted(INEXACT_ENTRIES))
def test_the_sign_table_rejects_inexact_entries(name):
    call, named = INEXACT_ENTRIES[name]
    with pytest.raises(TypeError, match=re.escape(f"exact rational expected, got {named}")):
        call()


def test_census_of_shared_entries_equals_a_fresh_one(bound2_systems):
    for ws in bound2_systems:
        d = derive(ws)
        census = singular_stratum_census(d)
        reference = reference_census(d)
        assert census == reference
        assert [r.to_json() for r in census] == [r.to_json() for r in reference]
    assert singular_stratum_census(derive(ws)) == census  # a fresh object, the same census


def test_all_zero_data_match_the_reference():
    d = DerivedConeData(((0, 0),) * 3, ((0, 0),) * 3, (0, 0))
    assert check_cone_condition(d) == reference_condition_report(d)
    assert singular_stratum_census(d) == reference_census(d)


# --- the apex read off the same-side crosses, by the apex proposition -------


def searched_apex(d):
    """The apex of d's six generators by the sign table's pair search."""
    return SignTable((*d.a, *d.b, d.c)).apex(6)


BOUND3_BLOCKS = sorted(random.Random(20261020).sample(range(1369), 40))


def admissible_samples():
    """Every admissible bound-2 system's data, those of the admissible
    systems of 40 seeded bound-3 wL blocks, and every 7th bound-2 system's
    data scaled by three rationals, whose sign table clears a denominator
    (its scale is not 1)."""
    yield from (fresh(d) for d in bound2_data())
    for k in BOUND3_BLOCKS:
        yield from (derive(ws) for ws in enumerate_admissible_systems(3, part=(k, 1369)))
    for d in bound2_data()[::7]:
        for t in (Fraction(3, 7), Fraction(HUGE + 1, 3), Fraction(2, HUGE + 7)):
            scaled = DerivedConeData(*(tuple(vscale(t, v) for v in vs) for vs in (d.a, d.b)), vscale(t, d.c))
            assert scaled.sign_table.scale != 1
            yield scaled


def counted_searches(monkeypatch) -> list:
    """The n of every SignTable.apex(n) call from now on, in order."""
    searches = []
    original = SignTable.apex
    monkeypatch.setattr(SignTable, "apex", lambda self, n: searches.append(n) or original(self, n))
    return searches


def test_apex_read_off_the_crosses_is_the_search(monkeypatch):
    """Where the condition holds, _apex reads the search's pair off the six
    same-side crosses, for either sign of the nine, without a search."""
    searches = counted_searches(monkeypatch)
    signs = {1: 0, -1: 0}
    checked = 0
    for d in admissible_samples():
        assert cone_condition_holds(d)
        searches.clear()
        apex = d._apex
        assert searches == []
        assert apex is not None and apex == searched_apex(d)
        signs[1 if d._nine_crosses[0] > 0 else -1] += 1
        checked += 1
    assert checked > 4000 and min(signs.values()) > 1000, (checked, signs)


def test_data_that_fail_the_condition_reach_the_search(monkeypatch):
    """The search still decides the apex of data that fail the condition
    and have no zero generator, once per cone data, as the reference does:
    every 13th system of the bound-2 grid that fails it."""
    rows = weights._weight_grid(2)[0]
    searches = counted_searches(monkeypatch)
    checked = 0
    for wl, wr in itertools.islice(itertools.product(rows, rows), 0, None, 13):
        d = derive(WeightSystem(wl, wr))
        gens = [*d.a, *d.b]
        if cone_condition_holds(d) or (0, 0) in gens:
            continue
        searches.clear()
        apex = d._apex
        assert d._apex == apex and searches == [6]
        reference = reference_apex(gens)
        assert (None if apex is None else (Fraction(apex[0], apex[2]), Fraction(apex[1], apex[2]))) == reference
        checked += 1
    assert checked > 5000
