import dataclasses
import functools
import itertools
import json
import pickle
import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from conftest import (
    CONDITION_TESTS,
    holds_by_memberships,
    reference_block_survivors,
    reference_cone_member,
    reference_condition_holds,
    reference_free_by_homs,
    reference_free_by_pairs,
)
from su3kahler import weights
from su3kahler.conegeom import (
    INT64_MAX,
    MembershipStatus,
    SignTable,
    cross,
    find_apex_functional,
    in_cone2,
    vadd,
    vscale,
    vsub,
)
from su3kahler.weights import (
    DerivedConeData,
    WeightSystem,
    check_interpolation_path,
    check_level_set_conditions,
    check_cone_condition,
    cone_data,
    default_interpolation_times,
    derive,
    enumerate_admissible_systems,
    positive_combination,
    cone_condition_holds,
    weights_from_cone_data,
)

F = Fraction

# regression values from the exhaustive searches (re-derived in
# test_enumerate_bound1_against_slow_oracle for bound 1)
BOUND1_COUNT = 24
BOUND2_COUNT = 2856
BOUND3_COUNT = 64656


# --- weight systems and derivation ------------------------------------------


def test_weight_system_validates_sums():
    with pytest.raises(ValueError):
        WeightSystem(((1, 0), (0, 0), (0, 0)), ((0, 0),) * 3)
    with pytest.raises(ValueError):
        WeightSystem(((0, 0),) * 3, ((1, 0), (0, 1), (0, 0)))


def test_weight_system_json_round_trip(orbifold_ws):
    blob = json.dumps(orbifold_ws.to_json())
    assert WeightSystem.from_json(json.loads(blob)) == orbifold_ws


@pytest.mark.parametrize("index, bad", [(0, -1.5), (0, -1.0), (1, True)])
def test_weight_system_json_rejects_non_integers(index, bad):
    # int() would read each of these as the entry it replaces (-1 or 1),
    # so the system would still sum to zero
    obj = {"wL": [[-1, 1], [-1, 1], [2, -2]], "wR": [[-4, 1], [5, -5], [-1, 4]]}
    obj["wL"][0][index] = bad
    with pytest.raises(ValueError):
        WeightSystem.from_json(obj)


def test_weight_system_rejects_bools():
    with pytest.raises(ValueError):
        WeightSystem(((0, 0),) * 3, ((True, 0), (0, 1), (-1, -1)))


def test_derive_scaled_example(orbifold_ws):
    d = derive(orbifold_ws)
    assert d.a == ((3, 0), (3, 0), (6, -3))
    assert d.b == ((0, 3), (0, 3), (-3, 6))
    assert d.c == (3, 3)


def test_derive_standard_torus(standard_ws):
    d = derive(standard_ws)
    assert d.a == ((-1, 0), (-1, 0), (-1, 0))
    assert d.b == ((-1, -1), (-1, -1), (-1, -1))
    assert d.c == (-2, -1)


def test_derive_zero_weights():
    d = derive(WeightSystem(((0, 0),) * 3, ((0, 0),) * 3))
    assert d.a == ((0, 0),) * 3 and d.b == ((0, 0),) * 3 and d.c == (0, 0)
    assert not cone_condition_holds(d)


def test_cone_data_requires_constant_sum():
    with pytest.raises(ValueError):
        cone_data([(1, 0), (1, 0), (1, 0)], [(0, 1), (0, 1), (1, 1)])


# --- separating cone condition -----------------------------------------------


def test_cone_condition_orbifold_example(orbifold_data):
    report = check_cone_condition(orbifold_data)
    assert report.holds
    assert all(not m.member for m in report.a_pairs.values())
    assert all(not m.member for m in report.b_pairs.values())
    assert all(m.member for m in report.mixed_pairs.values())
    assert len(report.a_pairs) == len(report.b_pairs) == len(report.mixed_pairs) == 9


def test_cone_condition_standard_torus(standard_ws):
    assert check_cone_condition(derive(standard_ws)).holds


@pytest.mark.parametrize(
    "wr, rejecting",
    [
        # A_j = (-3, 3), B_j = (2, -2), C = (-1, 1): C lies on ray(A_i)
        (((3, -3), (-5, 5), (2, -2)), "A"),
        # the mirror image A_j = (2, -2), B_j = (-3, 3): C lies on ray(B_i)
        (((-2, 2), (5, -5), (-3, 3)), "B"),
    ],
)
def test_pair_clauses_are_needed_beside_the_mixed_ones(wr, rejecting):
    """A_j and B_j are antiparallel, so every mixed cone is a line through
    C and contains it; only one family of pair clauses rejects the data."""
    ws = WeightSystem(((0, 0),) * 3, wr)
    d = derive(ws)
    report = check_cone_condition(d)
    assert all(m.member for m in report.mixed_pairs.values())
    a_hits = {m.member for m in report.a_pairs.values()}
    b_hits = {m.member for m in report.b_pairs.values()}
    assert (a_hits, b_hits) == (({True}, {False}) if rejecting == "A" else ({False}, {True}))
    assert not report.holds and not cone_condition_holds(d)
    with pytest.raises(ValueError, match="cone condition"):
        ws.free


def test_cone_condition_zero_data_fails():
    d = DerivedConeData(((0, 0),) * 3, ((0, 0),) * 3, (0, 0))
    assert not check_cone_condition(d).holds


def test_level_set_conditions_orbifold_example(orbifold_data):
    conditions = check_level_set_conditions(orbifold_data)
    assert conditions.nonempty and conditions.regular and conditions.compact
    assert conditions.nonempty_witness == (1, 2, F(1), F(1))
    assert conditions.apex_functional == (F(1), F(1))


def test_regularity_fails_on_dependent_pair():
    d = cone_data([(1, 0), (1, 0), (1, 0)], [(1, 0), (1, 0), (1, 0)])
    assert not check_level_set_conditions(d).regular


def test_compactness_fails_on_zero_generators():
    d = DerivedConeData(((0, 0),) * 3, ((0, 0),) * 3, (0, 0))
    conditions = check_level_set_conditions(d)
    assert not conditions.compact and conditions.apex_functional is None


def test_positive_combination_branches():
    assert positive_combination((1, 1), (1, 0), (0, 1)) == (F(1), F(1))
    assert positive_combination((1, 1), (1, 0), (2, -1)) is None  # needs negative
    # parallel, aligned: split the coefficient
    a, b = positive_combination((6, 0), (1, 0), (2, 0))
    assert a > 0 and b > 0 and vadd(vscale(a, (1, 0)), vscale(b, (2, 0))) == (F(6), F(0))
    # parallel, opposite: always solvable on the line
    a, b = positive_combination((-5, 0), (1, 0), (-2, 0))
    assert a > 0 and b > 0 and vadd(vscale(a, (1, 0)), vscale(b, (-2, 0))) == (F(-5), F(0))
    assert positive_combination((0, 1), (1, 0), (2, 0)) is None


def expected_mixed_witnesses(d):
    return [
        (i, j, *ab)
        for i in (1, 2, 3)
        for j in (1, 2, 3)
        if i != j and (ab := positive_combination(d.c, d.a[i - 1], d.b[j - 1])) is not None
    ]


def test_mixed_witnesses_table(bound1_systems, orbifold_data):
    configs = [
        orbifold_data,
        cone_data([(0, 0)] * 3, [(0, 0)] * 3),
        cone_data([(1, 0), (2, 0), ("1/2", 0)], [(0, 0), (-1, 0), ("1/2", 0)]),  # one line
        cone_data([("1/2", 0), (1, 0), (2, -1)], [("1/2", 1), (0, 1), (-1, 2)]),
        *(derive(ws) for ws in bound1_systems),
    ]
    for d in configs:
        assert list(d.mixed_witnesses) == expected_mixed_witnesses(d)
        assert d.mixed_witnesses is d.mixed_witnesses  # built once
        level = check_level_set_conditions(d)
        assert level.nonempty_witness == (d.mixed_witnesses[0] if d.mixed_witnesses else None)


def test_mixed_witnesses_is_not_a_field(orbifold_data):
    fresh = cone_data(orbifold_data.a, orbifold_data.b)
    assert "mixed_witnesses" not in {f.name for f in dataclasses.fields(DerivedConeData)}
    assert orbifold_data.mixed_witnesses  # cached on one side only
    assert fresh == orbifold_data and hash(fresh) == hash(orbifold_data)
    assert repr(fresh) == repr(orbifold_data)
    restored = pickle.loads(pickle.dumps(orbifold_data))
    assert restored == orbifold_data and restored.mixed_witnesses == orbifold_data.mixed_witnesses


def test_mixed_witnesses_computed_once_for_every_reader(monkeypatch, orbifold_data):
    """The level-set check, the census and the certification sample all read
    one sign table per cone data object. Independent mixed pairs take their
    witness from the table's INTERIOR memberships; only dependent pairs call
    positive_combination, once each."""
    from su3kahler.isotropy import singular_stratum_census
    from su3kahler.quadric import certification_sample

    builds, calls = [], []

    def counted_table(vectors):
        builds.append(vectors)
        return SignTable(vectors)

    def counted(*args):
        calls.append(args)
        return positive_combination(*args)

    monkeypatch.setattr(weights, "SignTable", counted_table)
    monkeypatch.setattr(weights, "positive_combination", counted)
    # the orbifold example, and data whose B_3 = 0 makes (A_1, B_3), (A_2, B_3) dependent
    degenerate = cone_data([(1, 0), (2, 0), (1, 1)], [(0, 1), (-1, 1), (0, 0)])
    for source, dependent in ((orbifold_data, 0), (degenerate, 2)):
        builds.clear()
        calls.clear()
        d = cone_data(source.a, source.b)
        level = check_level_set_conditions(d)
        census = singular_stratum_census(d)
        if level.nonempty:
            certification_sample(d, 5, 0)
        assert len(builds) == 1  # one table for every reader
        assert len(calls) == dependent == sum(cross(d.a[i], d.b[j]) == 0 for i, j in weights._MIXED_PAIRS)
        assert level.nonempty_witness == (d.mixed_witnesses[0] if d.mixed_witnesses else None)
        singletons = {
            (r.pattern.i_set[0], r.pattern.j_set[0]): r.witness for r in census if r.pattern.is_singleton
        }
        expected = {(i, j): (a, b) for i, j, a, b in expected_mixed_witnesses(d)}
        assert singletons == {ij: expected.get(ij) for ij in singletons}
    assert level.nonempty_witness is not None


# --- solving for weights -------------------------------------------------------


def test_generate_worked_example(orbifold_data):
    sol = weights_from_cone_data(cone_data(orbifold_data.a, orbifold_data.b))
    assert sol.wl_rational[0] == (F(-1, 3), F(1, 3))
    assert sol.wl_rational[2] == (F(2, 3), F(-2, 3))
    assert sol.wr_rational[1] == (F(5, 3), F(-5, 3))
    assert sol.scale == 3
    assert sol.system.wl == ((-1, 1), (-1, 1), (2, -2))
    assert sol.system.wr == ((-4, 1), (5, -5), (-1, 4))


def test_generate_standard_torus():
    sol = weights_from_cone_data(cone_data([(-1, 0)] * 3, [(-1, -1)] * 3))
    assert sol.scale == 1
    assert sol.system.wl == ((0, 0),) * 3
    assert sol.system.wr == ((1, 0), (0, 1), (-1, -1))


def test_generate_zero_data():
    sol = weights_from_cone_data(cone_data([(0, 0)] * 3, [(0, 0)] * 3))
    assert sol.scale == 1
    assert sol.system.wl == ((0, 0),) * 3 and sol.system.wr == ((0, 0),) * 3


def test_generate_rejects_inconsistent_sums():
    with pytest.raises(ValueError):
        weights_from_cone_data(cone_data([(1, 0), (1, 0), (1, 0)], [(0, 1), (0, 1), (0, 2)]))


small_vec = st.tuples(st.integers(-6, 6), st.integers(-6, 6))
small_rat = st.one_of(st.integers(-4, 4), st.fractions(-4, 4, max_denominator=5))
small_rat_vec = st.tuples(small_rat, small_rat)


@given(st.tuples(small_vec, small_vec, small_vec), small_vec)
@settings(max_examples=200)
def test_generate_round_trip_exact(a_vectors, c):
    b_vectors = [vsub(c, a) for a in a_vectors]
    sol = weights_from_cone_data(cone_data(a_vectors, b_vectors))
    d = derive(sol.system)
    s = sol.scale
    assert d.a == tuple(vscale(s, a) for a in a_vectors)
    assert d.b == tuple(vscale(s, b) for b in b_vectors)
    assert d.c == vscale(s, c)


# --- interpolation path -----------------------------------------------------


def test_interpolation_worked_example(orbifold_data):
    assert check_cone_condition(orbifold_data).mixed_pairs[1, 1].coefficients == (1, 1)
    assert check_interpolation_path(orbifold_data)
    assert interpolation_reference(orbifold_data, [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)])


def test_interpolation_endpoints(orbifold_data):
    assert interpolation_reference(orbifold_data, [F(1)])
    assert interpolation_reference(orbifold_data, [F(0)])


def test_interpolation_requires_interior():
    # C on the ray of A_1: not in the interior of cone(A_1, B_1)
    d = cone_data([(1, 0), (0, 1), (1, 1)], [(1, 0), (2, -1), (1, -1)])
    with pytest.raises(ValueError, match=r"interior of cone\(A_1, B_1\)"):
        check_interpolation_path(d)


def condition_by_in_cone2(a, b, c):
    """The separating cone condition decided test by test with in_cone2."""
    pairs = [(g, h) for gens in (a, b) for i, g in enumerate(gens) for h in gens[i:]]
    return not any(in_cone2(c, g, h).member for g, h in pairs) and all(
        in_cone2(c, g, h).member for g in a for h in b
    )


def interpolation_reference(d, times):
    """The path check with base (1, 1) in Fraction arithmetic at every
    sample time."""
    for t in times:
        at = [vadd(vscale(t, aj), vscale(1 - t, d.a[0])) for aj in d.a]
        bt = [vadd(vscale(t, bj), vscale(1 - t, d.b[0])) for bj in d.b]
        if not condition_by_in_cone2(at, bt, d.c):
            return False
    return True


unit_times = st.lists(st.fractions(0, 1, max_denominator=12), min_size=1, max_size=3)


@given(st.tuples(small_rat_vec, small_rat_vec, small_rat_vec), small_rat_vec, unit_times)
@settings(max_examples=150, deadline=None)
def test_integer_interpolation_matches_fractions(a_vectors, c, times):
    # Independent A_1, B_1 (C = A_1 + B_1 interior to their cone) match the
    # Fraction reference; dependent ones raise.
    d = DerivedConeData(a_vectors, tuple(vsub(c, x) for x in a_vectors), c)
    if cross(d.a[0], d.b[0]):
        # the path corollary: the verdict at t = 1 is the verdict on [0, 1]
        assert check_interpolation_path(d) == interpolation_reference(d, [*times, 1])
    else:
        with pytest.raises(ValueError):
            check_interpolation_path(d)


def test_default_times():
    ts = default_interpolation_times()
    assert ts[0] == 0 and ts[-1] == 1 and len(ts) == 9


# --- enumeration -------------------------------------------------------------


def test_enumerate_bound0_empty():
    assert list(enumerate_admissible_systems(0)) == []


def test_enumerate_rejects_negative():
    with pytest.raises(ValueError):
        list(enumerate_admissible_systems(-1))


def test_enumerate_bound1(bound1_systems, standard_ws):
    assert len(bound1_systems) == BOUND1_COUNT
    base = ((1, 0), (0, 1), (-1, -1))
    for perm in itertools.permutations(base):
        assert WeightSystem(((0, 0),) * 3, perm) in bound1_systems
    assert standard_ws in bound1_systems


def test_enumerate_bound1_against_slow_oracle(bound1_systems):
    """Re-filter the whole bound-1 space with the evidence-building checker."""
    rng = range(-1, 2)
    found = []
    for x1, y1, x2, y2 in itertools.product(rng, rng, rng, rng):
        if abs(x1 + x2) > 1 or abs(y1 + y2) > 1:
            continue
        for u1, v1, u2, v2 in itertools.product(rng, rng, rng, rng):
            if abs(u1 + u2) > 1 or abs(v1 + v2) > 1:
                continue
            ws = WeightSystem(
                ((x1, y1), (x2, y2), (-x1 - x2, -y1 - y2)),
                ((u1, v1), (u2, v2), (-u1 - u2, -v1 - v2)),
            )
            if check_cone_condition(derive(ws)).holds:
                found.append(ws)
    assert found == bound1_systems


def test_enumerate_is_sorted(bound1_systems):
    assert bound1_systems == sorted(bound1_systems)


def test_enumerate_partitions_merge(bound1_systems):
    merged = []
    for k in range(3):
        merged.extend(enumerate_admissible_systems(1, part=(k, 3)))
    assert sorted(merged) == bound1_systems


def test_enumerate_bound2_count(bound2_systems):
    assert len(bound2_systems) == BOUND2_COUNT
    assert bound2_systems == sorted(bound2_systems)


def _weight_triples(bound):
    rng = range(-bound, bound + 1)
    return [
        ((x1, y1), (x2, y2), (-x1 - x2, -y1 - y2))
        for x1, y1, x2, y2 in itertools.product(rng, repeat=4)
        if abs(x1 + x2) <= bound and abs(y1 + y2) <= bound
    ]


def reference_stream(bound, blocks=None):
    """Every candidate (optionally only the given outer wL blocks) filtered
    with in_cone2, then sorted: the stream the enumerator must produce."""
    triples = _weight_triples(bound)
    found = []
    for k, wl in enumerate(triples):
        if blocks is not None and k not in blocks:
            continue
        for wr in triples:
            a = [vsub(w, wr[0]) for w in wl]
            b = [vsub(wr[2], w) for w in wl]
            if condition_by_in_cone2(a, b, vsub(wr[2], wr[0])):
                found.append(WeightSystem(wl, wr))
    return sorted(found)


@pytest.mark.parametrize("bound", [0, 1, 2])
def test_enumerate_matches_in_cone2_filter(bound):
    assert list(enumerate_admissible_systems(bound)) == reference_stream(bound)


def test_enumerate_bound3_blocks_match_in_cone2_filter():
    n_blocks = len(_weight_triples(3))
    blocks = sorted(random.Random(20211015).sample(range(n_blocks), 24))
    streamed = [
        ws for k in blocks for ws in enumerate_admissible_systems(3, part=(k, n_blocks))
    ]
    assert streamed == reference_stream(3, set(blocks))


@pytest.fixture(scope="module")
def bound3_systems():
    return list(enumerate_admissible_systems(3))


def test_enumerate_bound3_count(bound3_systems):
    assert len(bound3_systems) == BOUND3_COUNT
    assert bound3_systems == sorted(bound3_systems)


def test_enumerate_bound3_partitions_merge(bound3_systems):
    merged = [ws for k in range(7) for ws in enumerate_admissible_systems(3, part=(k, 7))]
    assert sorted(merged) == bound3_systems


@pytest.fixture
def no_grid(monkeypatch):
    """Fails the test if a weight grid is built."""
    def refuse(bound):
        raise AssertionError(f"grid requested for bound {bound}")

    monkeypatch.setattr(weights, "_weight_grid", refuse)


def test_enumerate_int64_guard_fires_before_grid(no_grid):
    # 8 * bound**2 bounds the largest value the block computes, a cross of
    # A_i and B_j (entries at most 2 * bound); 2**30 is the first bound past
    # int64
    assert 8 * (2**30 - 1) ** 2 <= INT64_MAX < 8 * (2**30) ** 2
    with pytest.raises(ValueError, match="int64"):
        enumerate_admissible_systems(2**30)
    enumerate_admissible_systems(2**30 - 1)  # accepted; the grid waits for iteration


@pytest.mark.parametrize(
    "bound, dtype",
    [(0, "int8"), (3, "int8"), (4, "int16"), (63, "int16"), (64, "int32"),
     (16383, "int32"), (16384, "int64"), (2**30 - 1, "int64")],
)
def test_block_width_from_the_bound_alone(no_grid, bound, dtype):
    """The narrowest signed type holding 8 * bound**2, at each edge, with
    no grid built; int64 is the widest (past it, the guard above)."""
    assert weights._block_dtype(bound) == dtype
    assert 8 * bound**2 <= np.iinfo(dtype).max
    if dtype != "int8":
        narrower = {"int16": "int8", "int32": "int16", "int64": "int32"}[dtype]
        assert 8 * bound**2 > np.iinfo(narrower).max


@pytest.mark.parametrize(
    "bound, part, error",
    [(True, None, TypeError), (False, None, TypeError), (2.0, None, TypeError),
     (2, (0.0, 2), TypeError), (2, (True, 2), TypeError), (2, (0, 2.0), TypeError),
     (2, (0, True), TypeError), (-1, None, ValueError), (2, (2, 2), ValueError)],
)
def test_enumerate_checks_its_arguments_when_called(no_grid, bound, part, error):
    """A bool, a float or a bad part fails at the call, not at the first
    next, and before any grid is built."""
    with pytest.raises(error):
        enumerate_admissible_systems(bound, part=part)


@pytest.mark.parametrize("bound, dtype", [(3, np.int8), (4, np.int16)])
def test_narrow_block_crosses_match_int64_on_every_block(bound, dtype):
    """Every wL block's nine crosses in the narrow type equal, entry by
    entry, the same crosses of the int64 configuration."""
    rows, tables, index = weights._weight_grid(bound)[:3]
    assert tables.dtype == np.dtype(weights._block_dtype(bound)) == dtype
    x1, y1, x3, y3 = wr_columns(bound)
    for row, wl in enumerate(rows):
        nine = weights._block_crosses(tables, index[row])
        assert nine.dtype == dtype
        a, b, _ = weights._configuration(wl, (x1, y1), (x3, y3))
        wide = np.array([cross(a[i], b[j]) for i in range(3) for j in range(3)])
        assert wide.dtype == np.int64
        assert np.array_equal(nine, wide)


def test_streamed_freeness_is_the_lattice_pair_test(bound2_systems):
    assert len(bound2_systems) == BOUND2_COUNT
    for ws in bound2_systems:
        assert ws.free == (weights._failing_pair(derive(ws)._nine_crosses) is None)


def test_enumerate_bound2_has_nontrivial_left(bound2_systems):
    assert any(ws.wl != ((0, 0),) * 3 for ws in bound2_systems)


# --- the block rule against the narrowed reference kernel -------------------


def _scalar_survivors(wl, rows):
    survivors = []
    for i, wr in enumerate(rows):
        a, b, c = weights._configuration(wl, wr[0], wr[2])
        if reference_condition_holds(*a, *b, c):
            survivors.append(i)
    return survivors


@functools.lru_cache(maxsize=4)
def wr_columns(bound):
    """The int64 columns (x1, y1, x3, y3) of w_1^R and w_3^R over the grid."""
    rows = weights._weight_grid(bound)[0]
    return np.array([(*wr[0], *wr[2]) for wr in rows], dtype=np.int64).T


def grid_block(bound, row):
    """The wL row of the grid, the grid rows, and (A, B, C) of that wL
    against every wR as vectors of int64 arrays."""
    rows = weights._weight_grid(bound)[0]
    x1, y1, x3, y3 = wr_columns(bound)
    wl = rows[row]
    return wl, rows, weights._configuration(wl, (x1, y1), (x3, y3))


def streamed_block(bound, row):
    """(wR, free) of every system the stream yields in the wL block at
    this grid row, by the slice that holds that block alone."""
    n_blocks = len(weights._weight_grid(bound)[0])
    return [(ws.wr, ws.free) for ws in enumerate_admissible_systems(bound, part=(row, n_blocks))]


def reference_block(bound, row):
    """(wR, free) of the narrowed kernel's survivors of the same block,
    free by the lattice pairs from the survivors' own crosses, which the
    homomorphism oracle confirms on every survivor (the freeness
    corollary)."""
    wl, rows, (a, b, c) = grid_block(bound, row)
    keep = reference_block_survivors(a, b, c).tolist()
    by_pairs = np.asarray(reference_free_by_pairs(*(tuple((x[keep], y[keep]) for x, y in v) for v in (a, b))))
    by_homs = [reference_free_by_homs(wl, rows[i][0], rows[i][2]) for i in keep]
    assert by_pairs.tolist() == by_homs
    return [(rows[i], free) for i, free in zip(keep, by_homs)]


def test_narrowed_kernel_on_every_bound2_block():
    rows = weights._weight_grid(2)[0]
    for row, wl in enumerate(rows):
        _, _, (a, b, c) = grid_block(2, row)
        survivors = reference_block_survivors(a, b, c)
        assert survivors.tolist() == np.flatnonzero(reference_condition_holds(*a, *b, c)).tolist()
        assert survivors.tolist() == _scalar_survivors(wl, rows)
        assert [wr for wr, _ in streamed_block(2, row)] == [rows[i] for i in survivors.tolist()]


BOUND4_BLOCKS = sorted(random.Random(20231019).sample(range(3721), 12))


@pytest.mark.parametrize(
    "bound, blocks",
    [(1, None), (2, None), (3, None), (4, BOUND4_BLOCKS)],
    ids=["bound1", "bound2", "bound3", "bound4-seeded"],
)
def test_block_survivors_and_freeness_match_the_reference_kernel(bound, blocks):
    """The nine-sign block keeps the narrowed 8-test kernel's survivors, in
    grid order, with the lattice-pair freeness of the same survivors."""
    n_blocks = len(weights._weight_grid(bound)[0])
    assert bound < 4 or n_blocks == 3721
    for row in range(n_blocks) if blocks is None else blocks:
        assert streamed_block(bound, row) == reference_block(bound, row)


# --- the freeness corollary away from the grid ------------------------------


def _bezout(a, b):
    """(x, y) with a*x + b*y = gcd(a, b) >= 0."""
    if b == 0:
        return (1 if a >= 0 else -1), 0
    x, y = _bezout(b, a % b)
    return y, x - (a // b) * y


coord50 = st.integers(-50, 50)
vec50 = st.tuples(coord50, coord50)


@st.composite
def unimodular_pairs(draw):
    """(w_1^R, w_3^R) with cross = 1 or -1 and entries in [-50, 50]: a
    primitive u, v = (-y, x) + k*u from u[0]*x + u[1]*y = 1, maybe negated."""
    u = draw(vec50.filter(lambda u: gcd(*u) == 1))
    x, y = _bezout(*u)
    k, sign = draw(st.integers(-1, 1)), draw(st.sampled_from((1, -1)))
    v = (sign * (k * u[0] - y), sign * (k * u[1] + x))
    assume(max(map(abs, v)) <= 50)
    return u, v


@st.composite
def left_triples(draw, coord):
    l1, l2 = draw(st.tuples(coord, coord)), draw(st.tuples(coord, coord))
    return (l1, l2, (-l1[0] - l2[0], -l1[1] - l2[1]))


left_sides = st.one_of(
    st.just(((0, 0),) * 3), left_triples(st.integers(-1, 1)), left_triples(st.integers(-25, 25))
)


@given(left_sides, st.one_of(unimodular_pairs(), st.tuples(vec50, vec50)))
@example(((0, 0),) * 3, ((1, 0), (-1, -1)))  # the standard free case
@example(((-1, 1), (-1, 1), (2, -2)), ((-4, 1), (-1, 4)))  # the orbifold example
@example(((-2, -1), (1, 0), (1, 1)), ((0, 0), (0, 0)))  # unit crosses of mixed sign
@settings(max_examples=400, deadline=None)
def test_freeness_corollary_off_the_grid(wl, right):
    """The README's freeness corollary on entries up to 50 in magnitude:
    the condition with every off-diagonal pair a lattice basis holds
    exactly when wL = 0 and |cross(w_1^R, w_3^R)| = 1 (its converse
    included, since that pair of homomorphisms passes the condition)."""
    u, v = right
    ws = WeightSystem(wl, (u, (-u[0] - v[0], -u[1] - v[1]), v))
    d = derive(ws)
    nine = d._nine_crosses
    by_homs = reference_free_by_homs(wl, u, v)
    holds = cone_condition_holds(d)
    assert (holds and weights._failing_pair(nine) is None) == by_homs
    # the sum of the nine is -9*cross(w_1^R, w_3^R), so under the condition
    # a unimodular right side already forces all nine to be +-1 (the README)
    assert sum(nine) == -9 * cross(u, v)
    if holds:
        assert ws.free is by_homs
        event(f"condition holds, free={by_homs}")


def test_unit_pairs_of_mixed_sign_are_not_freeness():
    """Without the sign hypothesis the corollary fails: 72 bound-2
    candidates have six off-diagonal crosses of absolute value 1, of mixed
    sign, with wL != 0, and fail the condition."""
    off_diagonal = [3 * i + j for i, j in weights._MIXED_PAIRS]
    found = []
    for row in range(len(weights._weight_grid(2)[0])):
        wl, rows, (a, b, _) = grid_block(2, row)
        nine = np.array([cross(a[i], b[j]) for i in range(3) for j in range(3)])
        for k in (abs(nine[off_diagonal]) == 1).all(0).nonzero()[0].tolist():
            if not reference_free_by_homs(wl, rows[k][0], rows[k][2]):
                column = nine[:, k].tolist()
                assert weights._failing_pair(column) is None
                assert {column[p] for p in off_diagonal} == {1, -1}
                assert not weights._one_strict_sign(min(column), max(column))
                found.append((wl, rows[k]))
    assert len(found) == 72
    assert (((-2, -1), (1, 0), (1, 1)), ((0, 0),) * 3) in found


# Configurations passing the condition: the orbifold, standard-torus and
# round data as (A_1, A_2, A_3, B_1, B_2, B_3, C).
ADMISSIBLE_ROWS = [
    ((1, 0), (1, 0), (2, -1), (0, 1), (0, 1), (-1, 2), (1, 1)),
    ((-1, 0), (-1, 0), (-1, 0), (-1, -1), (-1, -1), (-1, -1), (-2, -1)),
    ((1, 0), (1, 0), (1, 0), (0, 1), (0, 1), (0, 1), (1, 1)),
]
# Rows failing exactly one test, the k-th mixed one (A_i, B_j) in the
# order of _MIXED_PAIRS; found by a random search over entries in [-1, 1],
# without A_j + B_j = C. With it, no pair test of the former 12 fails
# alone: once the mixed tests pass, none or at least 3 of them fail (the
# proof of the lemma in the README).
NEAR_MISS_ROWS = [
    ((-1, 1), (-1, 0), (-1, 1), (1, 0), (1, 1), (1, 1), (0, 1)),
    ((0, 1), (0, 1), (-1, 1), (1, -1), (1, 0), (1, 0), (1, 1)),
    ((1, 1), (1, 1), (0, 1), (-1, 0), (-1, -1), (-1, 0), (-1, 1)),
    ((-1, 0), (-1, 0), (-1, 1), (0, -1), (1, -1), (0, -1), (-1, -1)),
    ((-1, 0), (-1, 1), (-1, 1), (1, 0), (1, 1), (1, 0), (0, 1)),
    ((1, -1), (0, -1), (1, -1), (1, 1), (1, 1), (0, 1), (1, 0)),
]
# The same with A_j + B_j = C, in the kernel's domain: each mixed test is
# needed there too. Found by a random search over A, C in [-2, 2]^2.
CONSTANT_SUM_NEAR_MISS_ROWS = [
    ((2, 1), (1, 2), (1, 1), (-1, -2), (0, -3), (0, -2), (1, -1)),
    ((-1, 2), (0, 2), (1, 2), (-1, -3), (-2, -3), (-3, -3), (-2, -1)),
    ((2, 0), (2, 2), (1, 1), (-2, 2), (-2, 0), (-1, 1), (0, 2)),
    ((2, 0), (1, -1), (2, 1), (-3, -2), (-2, -1), (-3, -3), (-1, -2)),
    ((2, 0), (2, -1), (2, -2), (-3, -2), (-3, -1), (-3, 0), (-1, -2)),
    ((-1, 0), (-2, 2), (-2, -1), (1, -2), (2, -4), (2, -1), (0, -2)),
]
zero_sum_triples = st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), min_size=2, max_size=2).map(
    lambda w: (*w, (-w[0][0] - w[1][0], -w[0][1] - w[1][1]))
)


@st.composite
def configuration_rows(draw):
    """(A_1, A_2, A_3, B_1, B_2, B_3, C): an admissible configuration
    relabelled, rescaled and possibly with A and B swapped, a near miss, or
    the configuration of random weights; then possibly edited so that a
    generator becomes zero, a multiple (parallel, antiparallel or zero) of
    another, or moves by a small step, or C becomes zero."""
    source = draw(st.sampled_from(("admissible", "near miss", "weights")))
    if source == "admissible":
        row = draw(st.sampled_from(ADMISSIBLE_ROWS))
        perm, k = draw(st.permutations(range(3))), draw(st.integers(1, 3))
        a = [vscale(k, row[p]) for p in perm]
        b = [vscale(k, row[3 + p]) for p in perm]
        gens, c = (b + a if draw(st.booleans()) else a + b), vscale(k, row[6])
    elif source == "near miss":
        *gens, c = draw(st.sampled_from(NEAR_MISS_ROWS))
    else:
        a, b, c = weights._configuration(draw(zero_sum_triples), *draw(zero_sum_triples)[::2])
        gens = [*a, *b]
    edit = draw(st.sampled_from(("none", "zero", "multiple", "step", "c_zero")))
    k = draw(st.integers(0, 5))
    if edit == "step":
        gens[k] = vadd(gens[k], (draw(st.integers(-1, 1)), draw(st.integers(-1, 1))))
    elif edit == "zero":
        gens[k] = (0, 0)
    elif edit == "multiple":
        gens[k] = vscale(draw(st.integers(-2, 2)), gens[draw(st.integers(0, 5))])
    elif edit == "c_zero":
        c = (0, 0)
    return (*gens, c)


@st.composite
def int64_blocks(draw):
    """A block of configuration rows and its int64 component columns."""
    rows = draw(st.lists(configuration_rows(), max_size=24))
    cols = [
        tuple(np.array([r[k][xy] for r in rows], dtype=np.int64) for xy in (0, 1))
        for k in range(7)
    ]
    return rows, cols


def test_near_miss_rows_fail_one_mixed_test():
    for k, row in [*enumerate(NEAR_MISS_ROWS), *enumerate(CONSTANT_SUM_NEAR_MISS_ROWS)]:
        gens, c = row[:6], row[6]
        failing = [
            t for t, (g, h, inside) in enumerate(CONDITION_TESTS)
            if reference_cone_member(c, gens[g], gens[h]) != inside
        ]
        i, j = weights._MIXED_PAIRS[k]
        assert failing == [CONDITION_TESTS.index((i, 3 + j, True))]


@given(int64_blocks())
@settings(max_examples=120, deadline=None)
def test_narrowed_kernel_matches_full_and_scalar(block):
    """The narrowed reference kernel on any rows; on the rows with
    A_j + B_j = C, the nine-sign rule on the same int64 columns too."""
    rows, cols = block
    a, b, c = cols[:3], cols[3:6], cols[6]
    survivors = reference_block_survivors(a, b, c)
    assert survivors.tolist() == np.flatnonzero(reference_condition_holds(*cols)).tolist()
    assert survivors.tolist() == [i for i, r in enumerate(rows) if reference_condition_holds(*r)]
    in_domain = [k for k, r in enumerate(rows) if all(vadd(r[j], r[3 + j]) == r[6] for j in range(3))]
    if in_domain:
        nine = np.array([cross(a[i], b[j]) for i in range(3) for j in range(3)])[:, in_domain]
        by_rule = weights._one_strict_sign(nine.min(0), nine.max(0))
        assert by_rule.tolist() == [k in survivors.tolist() for k in in_domain]


# --- the 8-test kernel against the 12-test table and the 27 memberships -------

# The table the kernel ran before the lemma in the README: the 6 pair tests
# with i < j and the 6 off-diagonal mixed tests; the reference here.
TWELVE_TESTS = tuple(
    (off + i, off + j, False) for i in range(3) for j in range(i + 1, 3) for off in (0, 3)
) + tuple((i, 3 + j, True) for i, j in weights._MIXED_PAIRS)
MIXED_TESTS = TWELVE_TESTS[6:]


def passes(tests, gens, c):
    """Whether C passes every test of the table; elementwise on int64 columns."""
    ok = True
    for g, h, inside in tests:
        ok = ok & (reference_cone_member(c, gens[g], gens[h]) == inside)
    return ok


def test_condition_table_is_the_mixed_tests_and_two_pair_tests():
    tests = CONDITION_TESTS
    assert len(tests) == 8 and set(MIXED_TESTS) < set(tests)
    (a1, a2, _), (b1, b2, _) = sorted(t for t in tests if t not in MIXED_TESTS)
    assert {a1, a2} <= {0, 1, 2} and {b1, b2} <= {3, 4, 5}
    assert {a1, a2} != {b1 - 3, b2 - 3}


@pytest.mark.parametrize("bound, step", [(2, 1), (3, 2)], ids=["bound2-every-block", "bound3-every-2nd"])
def test_eight_tests_keep_the_twelve_test_survivors(bound, step):
    """The reference 8 tests and the nine-sign block both keep exactly the
    candidates of the 12 tests."""
    rows = weights._weight_grid(bound)[0]
    for row in range(0, len(rows), step):
        _, _, (a, b, c) = grid_block(bound, row)
        twelve = np.flatnonzero(passes(TWELVE_TESTS, (*a, *b), c)).tolist()
        assert reference_block_survivors(a, b, c).tolist() == twelve
        assert [wr for wr, _ in streamed_block(bound, row)] == [rows[i] for i in twelve]


@st.composite
def constant_sum_configurations(draw):
    """(A_1, A_2, A_3, C) with int or Fraction entries, B_j = C - A_j.

    The start is a rescaled admissible row or random data (C possibly
    zero). Then each A_j stays, or becomes zero, a multiple of C (A_j and
    B_j then lie on C's line: parallel, antiparallel or zero, with B_j = 0
    when A_j = C, and both on ray(C) for a multiple in (0, 1)) or a
    multiple of an earlier A_i (parallel A's and B's)."""
    if draw(st.booleans()):
        row, k = draw(st.sampled_from(ADMISSIBLE_ROWS)), draw(st.fractions(F(1, 3), 3))
        start, c = [vscale(k, v) for v in row[:3]], vscale(k, row[6])
    else:
        start, c = draw(st.lists(small_rat_vec, min_size=3, max_size=3)), draw(
            st.one_of(st.just((0, 0)), small_rat_vec)
        )
    a = []
    for v in start:
        kind = draw(st.sampled_from(("kept", "kept", "zero", "on C", "on earlier A")))
        if kind == "zero":
            v = (0, 0)
        elif kind == "on C":
            v = vscale(draw(st.one_of(small_rat, st.fractions(0, 1, max_denominator=5))), c)
        elif kind == "on earlier A" and a:
            v = vscale(draw(small_rat), draw(st.sampled_from(a)))
        a.append(v)
    return a, c


@given(constant_sum_configurations())
@settings(max_examples=300, deadline=None)
def test_eight_tests_agree_with_twelve_and_with_the_27_memberships(config):
    a, c = config
    d = cone_data(a, [vsub(c, v) for v in a])
    holds = check_cone_condition(d).holds
    assert cone_condition_holds(d) == passes(TWELVE_TESTS, (*d.a, *d.b), d.c) == holds


def six_call_compactness(d):
    """The former rule: nonzero generators, an apex, and C outside all six
    A-pair and B-pair cones."""
    gens = d.generators()
    if any(g == (0, 0) for g in gens) or find_apex_functional(gens) is None:
        return False
    pairs = ((0, 1), (0, 2), (1, 2))
    return not any(reference_cone_member(d.c, g[i], g[j]) for g in (d.a, d.b) for i, j in pairs)


@given(constant_sum_configurations(), st.booleans())
@settings(max_examples=400, deadline=None)
def test_two_call_compactness_matches_six_calls(config, swap):
    """cone(A_1, A_2) and cone(A_1, A_3) decide compactness (README lemma),
    also with the roles of A and B swapped."""
    a, c = config
    b = [vsub(c, v) for v in a]
    d = cone_data(*((b, a) if swap else (a, b)))
    assert check_level_set_conditions(d).compact == six_call_compactness(d)


# Rows (A_1, A_2, A_3, B_1, B_2, B_3, C) with A_j + B_j = C that pass the six
# mixed tests and fail the condition: the README's antiparallel example
# (every A on ray(C)), its mirror (every B on ray(C)), and, for each k,
# A_k and B_k both on ray(C) with the other A's and B's off C's line.
MIXED_ONLY_ROWS = [
    ((-3, 3),) * 3 + ((2, -2),) * 3 + ((-1, 1),),
    ((2, -2),) * 3 + ((-3, 3),) * 3 + ((-1, 1),),
    *(
        tuple((0, 1) if j == k else (1, 0) for j in range(3))
        + tuple((0, 1) if j == k else (-1, 2) for j in range(3))
        + ((0, 2),)
        for k in range(3)
    ),
]


def test_no_smaller_pair_table_decides_the_condition():
    """The mixed tests with one pair test, or with an A-pair and a B-pair
    test on the same index pair, accept a row the condition rejects."""
    for row in MIXED_ONLY_ROWS:
        gens, c = row[:6], row[6]
        assert not check_cone_condition(cone_data(gens[:3], gens[3:])).holds
        assert passes(MIXED_TESTS, gens, c)
        assert not reference_condition_holds(*gens, c)
    pair_tests = TWELVE_TESTS[:6]
    same_index_pairs = [(TWELVE_TESTS[k], TWELVE_TESTS[k + 1]) for k in (0, 2, 4)]
    for extra in [(t,) for t in pair_tests] + same_index_pairs:
        assert any(passes(MIXED_TESTS + extra, row[:6], row[6]) for row in MIXED_ONLY_ROWS)


def test_streamed_systems_equal_validated_ones(bound2_systems):
    for ws in bound2_systems:
        fresh = WeightSystem(ws.wl, ws.wr)
        assert "free" not in vars(fresh)
        assert ws == fresh and hash(ws) == hash(fresh) and repr(ws) == repr(fresh)
        assert ws.free == fresh.free  # stamped by the block; the scalar path
    assert all(type(x) is int for ws in bound2_systems for v in (*ws.wl, *ws.wr) for x in v)


@pytest.mark.parametrize(
    "wl, wr, message",
    [
        (((1, 0), (0, 0), (0, 0)), ((0, 0),) * 3, "wL must sum to zero, got ((1, 0), (0, 0), (0, 0))"),
        (((0, 0),) * 3, ((0, 1), (0, 0), (0, 0)), "wR must sum to zero, got ((0, 1), (0, 0), (0, 0))"),
        (((1.0, 0), (0, 0), (-1, 0)), ((0, 0),) * 3, "integer weight vector expected, got (1.0, 0)"),
        (((True, 0), (0, 0), (-1, 0)), ((0, 0),) * 3, "integer weight vector expected, got (True, 0)"),
        (((0, 0), (0, 0)), ((0, 0),) * 3, "exactly three weight vectors per side"),
        (((0, 0),) * 3, ((0, 0),) * 4, "exactly three weight vectors per side"),
        # faults on both sides: entries first, then lengths, then sums
        (((1, 0), (0, 0), (0, 0)), ((1.5, 0), (0, 0), (0, 0)), "integer weight vector expected, got (1.5, 0)"),
        (((1, 0), (0, 0), (0, 0)), ((0, 0), (0, 0)), "exactly three weight vectors per side"),
        (((1, 0), (0, 0), (0, 0)), ((0, 1), (0, 0), (0, 0)), "wL must sum to zero, got ((1, 0), (0, 0), (0, 0))"),
    ],
)
def test_row_check_rejects_bad_triples(wl, wr, message):
    with pytest.raises(ValueError) as from_helper:
        weights._weight_rows(("wL", wl), ("wR", wr))
    with pytest.raises(ValueError) as from_system:
        WeightSystem(wl, wr)
    assert str(from_helper.value) == str(from_system.value) == message


def test_grid_rows_are_checked_once_when_built(monkeypatch):
    checked = []
    original = weights._weight_rows

    def counted(*named_sides):
        checked.extend(side for _, side in named_sides)
        return original(*named_sides)

    monkeypatch.setattr(weights, "_weight_rows", counted)
    rows = weights._weight_grid.__wrapped__(1)[0]  # built afresh, outside the cache
    assert len(checked) == len(rows) == 49
    assert list(rows) == _weight_triples(1)
    weights._weight_grid(1)  # the cached grid, built here unless already built
    checked.clear()
    assert len(list(enumerate_admissible_systems(1))) == BOUND1_COUNT
    assert checked == []  # the stream validates nothing again


# --- properties over enumerated systems ----------------------------------------


def test_condition_implies_level_set_conditions_bound1(bound1_systems):
    for ws in bound1_systems:
        report = check_cone_condition(derive(ws))
        assert report.holds and report.level_set.all_hold


def test_fast_path_agrees_with_evidence(bound2_systems):
    sample = bound2_systems[:: max(1, len(bound2_systems) // 100)]
    for ws in sample:
        d = derive(ws)
        assert cone_condition_holds(d) == holds_by_memberships(check_cone_condition(d))


@given(st.tuples(small_vec, small_vec, small_vec), small_vec)
@settings(max_examples=300)
def test_fast_path_agrees_on_random_data(a_vectors, c):
    d = DerivedConeData(a_vectors, tuple(vsub(c, a) for a in a_vectors), c)
    assert cone_condition_holds(d) == holds_by_memberships(check_cone_condition(d))


def test_cone_condition_symmetries(bound1_systems):
    for ws in bound1_systems:
        d = derive(ws)
        for perm in itertools.permutations(range(3)):
            permuted = DerivedConeData(
                tuple(d.a[p] for p in perm), tuple(d.b[p] for p in perm), d.c
            )
            assert cone_condition_holds(permuted)
        assert cone_condition_holds(DerivedConeData(d.b, d.a, d.c))


def test_mixed_membership_is_interior_under_condition(bound1_systems):
    """Ray exclusion forces strictly positive mixed coefficients."""
    for ws in bound1_systems:
        report = check_cone_condition(derive(ws))
        for m in report.mixed_pairs.values():
            assert m.status is MembershipStatus.INTERIOR
