import dataclasses
import json
from fractions import Fraction

import pytest

from conftest import reference_free_by_homs
from su3kahler.cli import main

from su3kahler.isotropy import (
    Classification,
    IsotropyGroup,
    SupportPattern,
    census_to_json,
    classify_quotient,
    freeness_check,
    singular_stratum_census,
)
from su3kahler.weights import (
    DerivedConeData,
    WeightSystem,
    cone_data,
    derive,
    enumerate_admissible_systems,
)

F = Fraction


def torsion_solution_count(rows, m):
    """Points of order dividing m in the kernel of t -> (t^row)_rows,
    counted by brute force over the m-torsion grid of the 2-torus."""
    count = 0
    for k1 in range(m):
        for k2 in range(m):
            if all((r[0] * k1 + r[1] * k2) % m == 0 for r in rows):
                count += 1
    return count


def check_group_against_oracle(rows, group: IsotropyGroup):
    assert group.is_finite
    order = group.order
    m = max(order, 1)
    # the whole group is m-torsion, and its d1-torsion is (Z/d1)^2
    assert torsion_solution_count(rows, m) == order
    d1 = group.factors[0]
    if d1 > 1:
        assert torsion_solution_count(rows, d1) == d1 * d1


# --- support patterns -------------------------------------------------------


def test_pattern_validation():
    with pytest.raises(ValueError):
        SupportPattern((), (1,))
    with pytest.raises(ValueError):
        SupportPattern((1,), (1,))  # no pair i != j
    with pytest.raises(ValueError):
        SupportPattern((4,), (1,))
    p = SupportPattern((2, 1), (3,))
    assert p.i_set == (1, 2) and p.j_set == (3,)


# --- isotropy at supports ----------------------------------------------------


def isotropy_at_support(d, pattern):
    """The census's isotropy group of one support pattern."""
    return next(r.isotropy for r in singular_stratum_census(d) if r.pattern == pattern)


def test_orbifold_singleton_strata(orbifold_data):
    trivial = isotropy_at_support(orbifold_data, SupportPattern((1,), (2,)))
    assert trivial.is_trivial
    z2 = isotropy_at_support(orbifold_data, SupportPattern((3,), (1,)))
    assert z2.factors == (1, 2) and z2.order == 2
    check_group_against_oracle([(1, 0), (0, 1)], trivial)
    check_group_against_oracle([(2, -1), (0, 1)], z2)


def test_full_support_standard_torus(standard_ws):
    d = derive(standard_ws)
    group = isotropy_at_support(d, SupportPattern((1, 2, 3), (1, 2, 3)))
    assert group.is_trivial


def test_positive_dimensional_marker():
    d = DerivedConeData(((1, 0),) * 3, ((1, 0),) * 3, (2, 0))
    group = isotropy_at_support(d, SupportPattern((1,), (2,)))
    assert not group.is_finite and group.rank_deficit == 1
    with pytest.raises(ValueError):
        group.order


# A_3 = B_1 = B_2 = (0, 1) and A_1 = A_2 = B_3 = (1, 0): the rows of
# {3} x {1}, {1} x {3} and {3} x {1, 2} span a line. The zero data span
# nothing at all.
PARALLEL_DATA = ([(1, 0), (1, 0), (0, 1)], [(0, 1), (0, 1), (1, 0)])


@pytest.mark.parametrize(
    "a, b, index, expected",
    [
        (*PARALLEL_DATA, 1,
         '{"I": [1], "J": [3], "isotropy": {"kind": "positive-dimensional", '
         '"rank_deficit": 1}, "realizable": false, "witness_point": null}'),
        (*PARALLEL_DATA, 12,
         '{"I": [3], "J": [1, 2], "isotropy": {"kind": "positive-dimensional", '
         '"rank_deficit": 1}, "realizable": "not determined", "witness_point": null}'),
        ([(0, 0)] * 3, [(0, 0)] * 3, 0,
         '{"I": [1], "J": [2], "isotropy": {"kind": "positive-dimensional", '
         '"rank_deficit": 2}, "realizable": true, "witness_point": ["1", "1"]}'),
    ],
)
def test_rank_deficient_stratum_json(a, b, index, expected):
    """The positive-dimensional entry as the census reports it, key order included."""
    census = singular_stratum_census(cone_data(a, b))
    report = census[index]
    assert not report.isotropy.is_finite
    assert json.dumps(report.to_json()) == expected
    assert json.dumps(census_to_json(census)[index]) == expected


def test_isotropy_rejects_non_integer_data():
    d = cone_data([(F(1, 2), 0)] * 3, [(0, 1)] * 3)
    with pytest.raises(ValueError):
        isotropy_at_support(d, SupportPattern((1,), (2,)))


@pytest.mark.parametrize(
    "d",
    [
        DerivedConeData(((1.0, 0.0),) * 3, ((0.0, 1.0),) * 3, (1.0, 1.0)),
        DerivedConeData(((True, 0),) * 3, ((0, True),) * 3, (1, 1)),
        cone_data([(F(1, 2), 0)] * 3, [(0, 1)] * 3),
    ],
    ids=["floats", "bools", "fraction"],
)
def test_float_and_bool_cone_data_are_not_integer(d):
    # DerivedConeData does not validate its entries; the integer gate decides
    assert not d.is_integer
    with pytest.raises(ValueError, match="integer cone data required"):
        singular_stratum_census(d)
    with pytest.raises(ValueError):
        isotropy_at_support(d, SupportPattern((1,), (2,)))


def test_isotropy_matches_torsion_oracle_on_bound1(bound1_systems):
    for ws in bound1_systems:
        d = derive(ws)
        for report in singular_stratum_census(d):
            if not report.pattern.is_singleton:
                continue
            (i,), (j,) = report.pattern.i_set, report.pattern.j_set
            group = report.isotropy
            if group.is_finite and group.order <= 12:
                rows = [d.a[i - 1], d.b[j - 1]]
                check_group_against_oracle(rows, group)


# --- freeness ---------------------------------------------------------------


def test_freeness_standard_torus(standard_ws):
    verdict = freeness_check(derive(standard_ws), standard_ws)
    assert verdict.free and verdict.failing_pair is None
    assert verdict.classification_consistent


def test_freeness_orbifold_example(orbifold_data):
    verdict = freeness_check(orbifold_data)
    assert not verdict.free
    assert verdict.failing_pair == (3, 1, 2)


@pytest.mark.parametrize(
    "a, b",
    [
        # the orbifold data halved: |det(A_2, B_1)| = 1/4 used to be reported as 0
        ([(F(1, 2), 0), (F(1, 2), 0), (1, F(-1, 2))], [(0, F(1, 2)), (0, F(1, 2)), (F(-1, 2), 1)]),
        # |det(A_3, B_1)| = 5/2 used to be reported as 2
        ([(1, 0), (1, 0), (F(5, 2), -1)], [(0, 1), (0, 1), (F(-3, 2), 2)]),
    ],
    ids=["halved", "five-halves"],
)
def test_freeness_rejects_rational_data_like_the_census(a, b, capsys):
    d = cone_data(a, b)
    for decide in (freeness_check, singular_stratum_census):
        with pytest.raises(ValueError, match="integer cone data required"):
            decide(d)
    config = json.dumps({"A": [[str(x) for x in v] for v in a], "B": [[str(x) for x in v] for v in b]})
    assert main(["isotropy", "--config", config]) == 2
    assert "requires integer cone data" in capsys.readouterr().out


def test_freeness_zero_data():
    d = DerivedConeData(((0, 0),) * 3, ((0, 0),) * 3, (0, 0))
    assert not freeness_check(d).free


def test_classify_standard_and_orbifold(standard_ws, orbifold_ws):
    assert classify_quotient(standard_ws) is Classification.FREE_FLAG_CASE
    assert classify_quotient(orbifold_ws) is Classification.ORBIFOLD_CASE


def test_classify_non_unimodular_right_side():
    ws = WeightSystem(((0, 0),) * 3, ((2, 0), (0, 1), (-2, -1)))
    assert classify_quotient(ws) is Classification.ORBIFOLD_CASE


def test_classify_requires_star():
    with pytest.raises(ValueError):
        classify_quotient(WeightSystem(((0, 0),) * 3, ((0, 0),) * 3))


def test_quotient_classification_agreement_bound1(bound1_systems):
    for ws in bound1_systems:
        d = derive(ws)
        verdict = freeness_check(d, ws)
        assert verdict.classification_consistent
        assert verdict.free == reference_free_by_homs(ws.wl, ws.wr[0], ws.wr[2])


def test_unimodular_pairs_force_constant_families(bound2_systems):
    """Integer data with the cone condition and all mixed pairs unimodular
    must have A_1 = A_2 = A_3 and B_1 = B_2 = B_3."""
    checked = 0
    for ws in bound2_systems:
        d = derive(ws)
        if freeness_check(d).free:
            assert d.a[0] == d.a[1] == d.a[2]
            assert d.b[0] == d.b[1] == d.b[2]
            checked += 1
    assert checked > 0


# --- freeness decided in the enumeration block ----------------------------------


def test_stream_verdicts_match_the_scalar_path():
    """All bound-2 systems and every 50th bound-3 block: the verdict the
    block stamps equals the scalar path's on a fresh instance, and the
    stamp changes neither ==, hash nor repr."""
    streamed = [
        *enumerate_admissible_systems(2),
        *enumerate_admissible_systems(3, part=(0, 50)),
    ]
    assert len(streamed) == 2856 + 1512
    for ws in streamed:
        assert "free" in vars(ws)
        fresh = WeightSystem(ws.wl, ws.wr)
        assert "free" not in vars(fresh)
        assert classify_quotient(fresh) is Classification.of(ws.free)
        assert fresh == ws and hash(fresh) == hash(ws) and repr(fresh) == repr(ws)
    assert sum(ws.free for ws in streamed) == 72
    assert "free" not in {f.name for f in dataclasses.fields(WeightSystem)}


def test_freeness_check_cross_checks_a_stamped_verdict(standard_ws, orbifold_ws):
    for ws in (standard_ws, orbifold_ws):
        stamped = WeightSystem(ws.wl, ws.wr)
        stamped.__dict__["free"] = not ws.free  # a wrong verdict from elsewhere
        with pytest.raises(RuntimeError, match="lattice-pair test"):
            freeness_check(derive(ws), stamped)


# --- census -------------------------------------------------------------------


def test_census_orbifold_example(orbifold_data):
    census = singular_stratum_census(orbifold_data)
    singleton = {
        (r.pattern.i_set[0], r.pattern.j_set[0]): r
        for r in census
        if r.pattern.is_singleton
    }
    assert set(singleton) == {(1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)}
    for key in ((1, 2), (2, 1)):
        assert singleton[key].isotropy.is_trivial
    for key in ((3, 1), (3, 2), (1, 3), (2, 3)):
        assert singleton[key].isotropy.factors == (1, 2)
    for r in singleton.values():
        assert r.realizable is True
        a, b = r.witness
        assert a > 0 and b > 0
    assert singleton[(3, 1)].witness == (F(1, 2), F(3, 2))
    generic = [r for r in census if r.pattern.is_full]
    assert len(generic) == 1 and generic[0].isotropy.is_trivial
    assert generic[0].realizable is True
    intermediate = [
        r for r in census if not (r.pattern.is_singleton or r.pattern.is_full)
    ]
    assert intermediate and all(r.realizable is None for r in intermediate)
    assert len(census) == 46


def test_census_standard_torus(standard_ws):
    census = singular_stratum_census(derive(standard_ws))
    assert all(r.isotropy.is_trivial for r in census)


def test_census_trivial_when_free(bound1_systems):
    for ws in bound1_systems:
        d = derive(ws)
        if freeness_check(d).free:
            assert all(r.isotropy.is_trivial for r in singular_stratum_census(d))


def test_nontrivial_stratum_forces_non_free(bound1_systems):
    for ws in bound1_systems:
        d = derive(ws)
        if any(not r.isotropy.is_trivial for r in singular_stratum_census(d)):
            assert not freeness_check(d).free


def test_census_json_schema(orbifold_data):
    blob = census_to_json(singular_stratum_census(orbifold_data))
    entry = blob[0]
    assert set(entry) == {"I", "J", "isotropy", "realizable", "witness_point"}
    assert entry["isotropy"]["kind"] == "finite"
    assert isinstance(entry["witness_point"][0], str)


def test_freeness_verdict_carries_the_classification(bound1_systems, standard_ws, orbifold_data):
    for ws in bound1_systems:
        verdict = freeness_check(derive(ws), ws)
        assert verdict.classification is classify_quotient(ws)
    assert freeness_check(orbifold_data).classification is None
    # data other than derive(ws): the cross-check compares two different actions
    mixed = freeness_check(orbifold_data, standard_ws)
    assert mixed.classification is Classification.FREE_FLAG_CASE
    assert not mixed.free and not mixed.classification_consistent
