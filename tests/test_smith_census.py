"""The closed-form invariant factors and the table-driven census against the
unimodular elimination and the per-pattern census they replaced."""

import itertools
import random
from fractions import Fraction

from math import gcd

from hypothesis import event, given, settings
from hypothesis import strategies as st

from conftest import admissible_systems
from su3kahler.conegeom import cross, smith_invariant_factors
from su3kahler.isotropy import (
    _CENSUS_PATTERNS,
    IsotropyGroup,
    StratumReport,
    SupportPattern,
    _census_evidence,
    census_to_json,
    singular_stratum_census,
)
from su3kahler.weights import (
    cone_condition_holds,
    cone_data,
    derive,
    enumerate_admissible_systems,
    positive_combination,
)


def reference_smith(rows):
    """Rank and invariant factors by unimodular row/column elimination."""
    mat = [[int(x) for x in row] for row in rows]
    k = len(mat)
    diag = []
    r = 0
    while r < 2:
        pivot = None
        for i in range(r, k):
            for j in range(r, 2):
                if mat[i][j] != 0 and (pivot is None or abs(mat[i][j]) < abs(mat[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        i0, j0 = pivot
        mat[r], mat[i0] = mat[i0], mat[r]
        if j0 != r:
            for row in mat:
                row[r], row[j0] = row[j0], row[r]
        while True:
            clean = True
            for i in range(r + 1, k):
                if mat[i][r] != 0:
                    q = mat[i][r] // mat[r][r]
                    for j in range(r, 2):
                        mat[i][j] -= q * mat[r][j]
                    if mat[i][r] != 0:  # remainder smaller than pivot: swap and retry
                        mat[r], mat[i] = mat[i], mat[r]
                        clean = False
            for j in range(r + 1, 2):
                if mat[r][j] != 0:
                    q = mat[r][j] // mat[r][r]
                    for i in range(r, k):
                        mat[i][j] -= q * mat[i][r]
                    if mat[r][j] != 0:
                        for i in range(k):
                            mat[i][r], mat[i][j] = mat[i][j], mat[i][r]
                        clean = False
            if clean:
                # pivot must divide the remaining submatrix for the chain
                fix = None
                for i in range(r + 1, k):
                    for j in range(r + 1, 2):
                        if mat[i][j] % mat[r][r] != 0:
                            fix = i
                            break
                    if fix is not None:
                        break
                if fix is None:
                    break
                for j in range(r, 2):
                    mat[r][j] += mat[fix][j]
        diag.append(abs(mat[r][r]))
        r += 1
    return len(diag), tuple(diag)


def reference_patterns():
    subsets = [s for size in (1, 2, 3) for s in itertools.combinations((1, 2, 3), size)]
    patterns = []
    for i_set in subsets:
        for j_set in subsets:
            try:
                patterns.append(SupportPattern(i_set, j_set))
            except ValueError:
                continue
    patterns.sort(key=lambda p: (len(p.i_set), len(p.j_set), p.i_set, p.j_set))
    return patterns


REFERENCE_PATTERNS = reference_patterns()


def reference_census(d, smith=reference_smith):
    """The census as it was computed pattern by pattern."""
    reports = []
    for pattern in REFERENCE_PATTERNS:
        rows = tuple(d.a[i - 1] for i in pattern.i_set) + tuple(d.b[j - 1] for j in pattern.j_set)
        rank, factors = smith(rows)
        group = IsotropyGroup(rank, factors)
        witness = None
        if pattern.is_singleton:
            i, j = pattern.i_set[0], pattern.j_set[0]
            witness = positive_combination(d.c, d.a[i - 1], d.b[j - 1])
            realizable = witness is not None
        elif pattern.is_full:
            realizable = True
        else:
            realizable = None
        reports.append(StratumReport(pattern, group, realizable, witness))
    return reports


entries = st.one_of(
    st.integers(-(2**40), 2**40),
    st.integers(-12, 12),
    st.sampled_from([0, 2**40, -(2**40), 2**20 * 3**10]),
)
rows = st.one_of(st.tuples(entries, entries), st.just((0, 0)))


@given(st.lists(rows, min_size=1, max_size=6))
@settings(max_examples=150, deadline=None)
def test_closed_form_matches_elimination(matrix):
    assert smith_invariant_factors(matrix) == reference_smith(matrix)


@given(st.lists(rows, min_size=1, max_size=6), st.integers(1, 2**20))
@settings(max_examples=60, deadline=None)
def test_closed_form_matches_elimination_on_scaled_rows(matrix, scale):
    # common factors make the invariant factors nontrivial
    scaled = [(scale * x, scale * y) for x, y in matrix]
    assert smith_invariant_factors(scaled) == reference_smith(scaled)


def test_census_matches_reference_on_bound2(bound2_systems):
    """Every bound-2 system, report by report (the JSON is a function of
    the report fields), and the JSON itself on every eighth system."""
    assert len(bound2_systems) == 2856
    known = {}

    def smith(rows):
        # invariant factors do not change under row swaps and row negations
        key = tuple(sorted(max(r, (-r[0], -r[1])) for r in rows))
        if key not in known:
            known[key] = reference_smith(rows)
        return known[key]

    for k, ws in enumerate(bound2_systems):
        d = derive(ws)
        census, reference = singular_stratum_census(d), reference_census(d, smith)
        assert census == reference, ws
        if k % 8 == 0:
            assert census_to_json(census) == census_to_json(reference), ws


def test_census_matches_reference_on_bound3_slice():
    blocks = sorted(random.Random(20261018).sample(range(1369), 6))
    checked = 0
    for k in blocks:
        for ws in enumerate_admissible_systems(3, part=(k, 1369)):
            d = derive(ws)
            assert census_to_json(singular_stratum_census(d)) == census_to_json(reference_census(d)), ws
            checked += 1
    assert checked > 0


def test_census_matches_reference_on_scaled_cone_data(orbifold_data):
    # common factors, repeated generators, and integral Fraction entries
    for s in (1, 2, 6, 2**35, Fraction(3)):
        d = cone_data(
            [(s * x, s * y) for x, y in orbifold_data.a],
            [(s * x, s * y) for x, y in orbifold_data.b],
        )
        assert census_to_json(singular_stratum_census(d)) == census_to_json(reference_census(d))


# --- the census keys against their definition ---------------------------------


def divisors_from_scratch(d):
    """(d1, d12) of every pattern's rows in census order, by definition:
    the gcd of the rows' entries and the gcd of their 2 x 2 minors."""
    keys = []
    for pattern in REFERENCE_PATTERNS:
        rows = [d.a[i - 1] for i in pattern.i_set] + [d.b[j - 1] for j in pattern.j_set]
        d1 = gcd(*(x for row in rows for x in row))
        d12 = gcd(*(cross(u, v) for k, u in enumerate(rows) for v in rows[k + 1:]))
        keys.append((d1, d12))
    return keys


def census_keys(d):
    """The census keys (d1, d12) of _census_evidence's rows, whose indices
    must run through the patterns in census order."""
    rows = list(_census_evidence(d))
    assert [k for k, *_ in rows] == list(range(len(_CENSUS_PATTERNS)))
    return [(d1, d12) for _, d1, d12, _ in rows]


def test_census_patterns_are_in_reference_order():
    assert [pattern for pattern, *_ in _CENSUS_PATTERNS] == REFERENCE_PATTERNS


def test_census_keys_match_their_definition_on_bound2(bound2_systems):
    assert len(bound2_systems) == 2856
    for ws in bound2_systems:
        d = derive(ws)
        assert census_keys(d) == divisors_from_scratch(d), ws


def test_census_keys_match_their_definition_on_every_97th_bound3_system():
    checked = 0
    for ws in itertools.islice(enumerate_admissible_systems(3), 0, None, 97):
        d = derive(ws)
        assert census_keys(d) == divisors_from_scratch(d), ws
        checked += 1
    assert checked > 500


@st.composite
def integer_cone_data(draw):
    """Integer cone data: a bound-2 admissible system's data times a
    nonzero integer (the condition holds), or C and one generator of each
    index j drawn free, zero, or a multiple of one direction (parallel or
    antiparallel), the other generator C minus it (the condition mostly
    fails)."""
    if draw(st.booleans()):
        d = derive(draw(st.sampled_from(admissible_systems(2))))
        k = draw(st.integers(-5, 5).filter(bool))
        return cone_data([(k * x, k * y) for x, y in d.a], [(k * x, k * y) for x, y in d.b])
    ints = st.integers(-6, 6)
    direction = (draw(ints), draw(ints))

    def vector():
        kind = draw(st.sampled_from(("free", "zero", "along")))
        if kind == "zero":
            return (0, 0)
        if kind == "along":
            m = draw(st.integers(-3, 3))
            return (m * direction[0], m * direction[1])
        return (draw(ints), draw(ints))

    c = vector()
    a, b = [], []
    for _ in range(3):
        g = vector()
        h = (c[0] - g[0], c[1] - g[1])
        if draw(st.booleans()):
            g, h = h, g
        a.append(g)
        b.append(h)
    return cone_data(a, b)


@given(integer_cone_data())
@settings(max_examples=200, deadline=None)
def test_census_keys_match_their_definition_on_degenerate_data(d):
    event("condition holds" if cone_condition_holds(d) else "condition fails")
    assert census_keys(d) == divisors_from_scratch(d)
