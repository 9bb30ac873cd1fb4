from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_cone_member
from su3kahler.conegeom import (
    INT64_MAX,
    ConeMembership,
    MembershipStatus,
    SignTable,
    cross,
    dot,
    find_apex_functional,
    in_cone2,
    is_zero,
    scalar_to_json,
    smith_invariant_factors,
    vadd,
    vec2,
    vscale,
    vsub,
)
from su3kahler.weights import DerivedConeData, check_level_set_conditions

F = Fraction

scalars = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
)
vectors = st.tuples(scalars, scalars)
int_vectors = st.tuples(st.integers(-6, 6), st.integers(-6, 6))


# --- independent membership oracle --------------------------------------
# A point lies outside a closed plane cone iff some candidate functional
# weakly supports every generator while being negative on the point. For
# a 2-dimensional cone the facet normals (generators rotated by 90
# degrees) suffice; for a cone collapsed onto a ray the generator itself
# separates points on the reverse extension, so +-g joins the candidates.


def _rot90(g):
    return (-g[1], g[0])


def member_oracle(c, gens):
    live = [g for g in gens if not is_zero(g)]
    if not live:
        return is_zero(c)
    for g in live:
        r = _rot90(g)
        for cand in (r, vscale(-1, r), g, vscale(-1, g)):
            if dot(cand, c) < 0 and all(dot(cand, h) >= 0 for h in live):
                return False
    return True


def reconstructs(m, c, g1, g2):
    l1, l2 = m.coefficients
    return vadd(vscale(l1, g1), vscale(l2, g2)) == (F(c[0]), F(c[1]))


# --- in_cone2 ------------------------------------------------------------


def test_orbifold_example_pair_outside():
    m = in_cone2((1, 1), (1, 0), (2, -1))
    assert m.status is MembershipStatus.OUTSIDE


def test_zero_in_every_cone():
    m = in_cone2((0, 0), (3, -2), (7, 5))
    assert m.member
    assert m.coefficients == (F(0), F(0))


def test_unit_square_interior():
    m = in_cone2((1, 1), (1, 0), (0, 1))
    assert m.status is MembershipStatus.INTERIOR
    assert m.coefficients == (F(1), F(1))


def test_boundary_ray_of_independent_pair():
    m = in_cone2((2, 0), (1, 0), (0, 1))
    assert m.status is MembershipStatus.ON_BOUNDARY_RAY
    assert m.coefficients == (F(2), F(0))


def test_single_ray_via_equal_generators():
    m = in_cone2((3, 0), (1, 0), (1, 0))
    assert m.status is MembershipStatus.ON_BOUNDARY_RAY
    assert reconstructs(m, (3, 0), (1, 0), (1, 0))
    assert not in_cone2((-3, 0), (1, 0), (1, 0)).member
    assert not in_cone2((3, 1), (1, 0), (1, 0)).member


def test_opposite_rays_span_line():
    m = in_cone2((-3, 0), (1, 0), (-2, 0))
    assert m.member
    assert reconstructs(m, (-3, 0), (1, 0), (-2, 0))
    assert not in_cone2((0, 1), (1, 0), (-2, 0)).member


def test_zero_generators():
    assert in_cone2((0, 0), (0, 0), (0, 0)).member
    assert not in_cone2((1, 0), (0, 0), (0, 0)).member
    m = in_cone2((2, 4), (0, 0), (1, 2))
    assert m.member and reconstructs(m, (2, 4), (0, 0), (1, 2))


@given(vectors, vectors, vectors)
def test_in_cone2_matches_oracle(c, g1, g2):
    assert in_cone2(c, g1, g2).member == member_oracle(c, [g1, g2])


@given(vectors, vectors, vectors)
def test_in_cone2_witness_reconstructs(c, g1, g2):
    m = in_cone2(c, g1, g2)
    if m.member:
        l1, l2 = m.coefficients
        assert l1 >= 0 and l2 >= 0
        assert reconstructs(m, c, g1, g2)
        if m.status is MembershipStatus.INTERIOR:
            assert l1 > 0 and l2 > 0 and cross(g1, g2) != 0


# --- the sign kernel --------------------------------------------------------
# Generator pairs drawn with the degenerate cases on purpose: zero
# generators, equal or positively parallel ones, antiparallel ones and
# arbitrary pairs, over small ints and Fractions alike.

multipliers = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))


@st.composite
def generator_pairs(draw):
    g1 = draw(st.one_of(vectors, st.just((0, 0))))
    kind = draw(st.sampled_from(("free", "zero", "multiple")))
    if kind == "free":
        g2 = draw(vectors)
    elif kind == "zero":
        g2 = (0, 0)
    else:
        g2 = vscale(draw(multipliers), g1)
    return (g1, g2) if draw(st.booleans()) else (g2, g1)


points = st.one_of(vectors, st.just((0, 0)))


def in_cone2_reference(c, g1, g2):
    """The branching decision with eager Fraction coefficients that
    in_cone2 used before the sign kernel; its statuses and witnesses are
    the reference the kernel-backed in_cone2 must reproduce."""

    def ray(c, g):
        if cross(c, g) != 0:
            return None
        return F(dot(c, g)) / F(dot(g, g))

    outside = ConeMembership(MembershipStatus.OUTSIDE)
    boundary = MembershipStatus.ON_BOUNDARY_RAY
    d = cross(g1, g2)
    if d != 0:
        n1, n2 = cross(c, g2), cross(g1, c)
        if d > 0:
            inside, strict = n1 >= 0 and n2 >= 0, n1 > 0 and n2 > 0
        else:
            inside, strict = n1 <= 0 and n2 <= 0, n1 < 0 and n2 < 0
        if not inside:
            return outside
        status = MembershipStatus.INTERIOR if strict else boundary
        return ConeMembership(status, (F(n1) / F(d), F(n2) / F(d)))
    if is_zero(g1) and is_zero(g2):
        return ConeMembership(boundary, (F(0), F(0))) if is_zero(c) else outside
    if is_zero(g2) or is_zero(g1):
        t = ray(c, g1 if is_zero(g2) else g2)
        if t is None or t < 0:
            return outside
        return ConeMembership(boundary, (t, F(0)) if is_zero(g2) else (F(0), t))
    t = ray(c, g1)
    if t is None:
        return outside
    if t >= 0:
        return ConeMembership(boundary, (t, F(0)))
    if dot(g1, g2) < 0:
        return ConeMembership(boundary, (F(0), ray(c, g2)))
    return outside


def cone_member(c, g1, g2) -> bool:
    """The library's scalar decision: the membership of c on the sign
    table of (c, g1, g2)."""
    return SignTable((c, g1, g2)).membership(0, 1, 2).member


@given(points, generator_pairs())
@settings(max_examples=300)
def test_cone_member_matches_oracle(c, pair):
    g1, g2 = pair
    assert cone_member(c, g1, g2) == reference_cone_member(c, g1, g2) == member_oracle(c, [g1, g2])


@given(points, generator_pairs())
@settings(max_examples=300)
def test_in_cone2_statuses_and_witnesses_unchanged(c, pair):
    m = in_cone2(c, *pair)
    ref = in_cone2_reference(c, *pair)
    assert m == ref
    assert m.to_json() == ref.to_json()


def test_cone_member_degenerate_examples():
    assert cone_member((0, 0), (0, 0), (0, 0))
    assert not cone_member((1, 0), (0, 0), (0, 0))
    assert cone_member((2, 0), (1, 0), (3, 0))
    assert not cone_member((-2, 0), (1, 0), (3, 0))
    assert cone_member((-2, 0), (1, 0), (-3, 0))
    assert not cone_member((0, 1), (1, 0), (-3, 0))
    assert cone_member((F(1, 2), 1), (0, 0), (1, 2))


@st.composite
def integer_pairs(draw):
    """Integer generator pairs, with zero, parallel and antiparallel ones
    drawn on purpose (a common direction times two integer multipliers)."""
    kind = draw(st.sampled_from(("free", "zero", "dependent")))
    if kind == "free":
        return draw(int_vectors), draw(int_vectors)
    if kind == "zero":
        g = draw(int_vectors)
        return (g, (0, 0)) if draw(st.booleans()) else ((0, 0), g)
    v, m1, m2 = draw(int_vectors), draw(st.integers(-4, 4)), draw(st.integers(-4, 4))
    return vscale(m1, v), vscale(m2, v)


# The kernel drops the diagonal mixed tests cone(A_i, B_i) of the cone
# condition because C = A_i + B_i always lies in that cone.
@given(integer_pairs())
def test_sum_of_generators_lies_in_their_cone(pair):
    a, b = pair
    assert cone_member(vadd(a, b), a, b)


def test_sum_of_generators_lies_in_their_cone_batched():
    rng = np.arange(-3, 4)
    x1, y1, x2, y2 = (g.ravel() for g in np.meshgrid(rng, rng, rng, rng, indexing="ij"))
    assert reference_cone_member((x1 + x2, y1 + y2), (x1, y1), (x2, y2)).all()


def _random_components(rng, magnitude, n):
    """int64 arrays rich in zeros, ties and parallels when magnitude is small."""
    return [rng.integers(-magnitude, magnitude + 1, size=n, dtype=np.int64) for _ in range(6)]


@given(st.integers(0, 2**32 - 1), st.sampled_from((0, 1, 2, 5, 1000, 2**31 - 1)))
@settings(max_examples=60, deadline=None)
def test_batched_kernel_matches_scalar(seed, magnitude):
    # |entries| <= magnitude keeps every product within 2 * magnitude**2
    assert 2 * magnitude**2 <= INT64_MAX
    cx, cy, x1, y1, x2, y2 = _random_components(np.random.default_rng(seed), magnitude, 400)
    batched = reference_cone_member((cx, cy), (x1, y1), (x2, y2))
    assert batched.dtype == np.bool_ and batched.shape == (400,)
    rows = zip(*(a.tolist() for a in (cx, cy, x1, y1, x2, y2)))
    scalar = [cone_member((a, b), (c, d), (e, f)) for a, b, c, d, e, f in rows]
    assert batched.tolist() == scalar


def test_scalars_reject_bools_and_floats():
    with pytest.raises(TypeError):
        vec2(True, 0)
    with pytest.raises(TypeError):
        vec2(1.0, 0)


# --- find_apex_functional --------------------------------------------------


def test_apex_example_from_dual_basis():
    assert find_apex_functional([(1, 0), (2, -1), (0, 1), (-1, 2)]) == (F(1), F(1))


def test_apex_standard_basis():
    assert find_apex_functional([(1, 0), (0, 1)]) == (F(1), F(1))


def test_apex_absent_for_opposite_rays():
    assert find_apex_functional([(1, 0), (-1, 0)]) is None


def test_apex_single_ray():
    alpha = find_apex_functional([(2, 0), (3, 0)])
    assert alpha is not None and dot(alpha, (2, 0)) > 0


def test_apex_rejects_zero_generator():
    with pytest.raises(ValueError):
        find_apex_functional([(1, 0), (0, 0)])


def apex_oracle(gens):
    """All generators in an open half-plane iff some rotated generator
    weakly supports all of them with zeros only on its own ray."""
    for g in gens:
        for cand in (_rot90(g), vscale(-1, _rot90(g))):
            values = [dot(cand, h) for h in gens]
            if all(v >= 0 for v in values) and all(
                dot(g, h) > 0 for h, v in zip(gens, values) if v == 0
            ):
                return True
    return False


@given(st.lists(vectors.filter(lambda v: not is_zero(v)), min_size=1, max_size=6))
@settings(max_examples=300)
def test_apex_matches_oracle(gens):
    alpha = find_apex_functional(gens)
    if alpha is None:
        assert not apex_oracle(gens)
    else:
        assert apex_oracle(gens)
        assert all(dot(alpha, g) > 0 for g in gens)


# --- compactness -------------------------------------------------------------


@st.composite
def cone_configurations(draw):
    """Cone data A_j + B_j = C with zero, parallel and antiparallel
    generators drawn on purpose: A_j or B_j zero, A_j a multiple of C (so
    B_j is one too) or of A_1."""
    c = draw(st.one_of(int_vectors, st.just((0, 0))))
    a: list = []
    for _ in range(3):
        kind = draw(st.sampled_from(("free", "zero_a", "zero_b", "along_c", "along_a1")))
        if kind == "free" or (kind == "along_a1" and not a):
            a.append(draw(int_vectors))
        elif kind == "zero_a":
            a.append((0, 0))
        elif kind == "zero_b":
            a.append(c)
        else:
            a.append(vscale(draw(multipliers), c if kind == "along_c" else a[0]))
    return DerivedConeData(tuple(a), tuple(vsub(c, g) for g in a), c)


def compact_oracle(d):
    gens = d.generators()
    return (
        not any(is_zero(g) for g in gens)
        and apex_oracle(gens)
        and not member_oracle(d.c, list(d.a))
        and not member_oracle(d.c, list(d.b))
    )


@given(cone_configurations())
@settings(max_examples=400)
def test_compactness_matches_oracle(d):
    assert check_level_set_conditions(d).compact == compact_oracle(d)


# --- lattice primitives -----------------------------------------------------


def test_smith_examples():
    assert smith_invariant_factors([[1, 0], [0, 1]]) == (2, (1, 1))
    assert smith_invariant_factors([[2, -1], [0, 1]]) == (2, (1, 2))
    assert smith_invariant_factors([[-1, 0], [-1, -1]]) == (2, (1, 1))
    assert smith_invariant_factors([[1, 0], [0, 1], [-1, -1]]) == (2, (1, 1))
    assert smith_invariant_factors([[0, 0], [0, 0]]) == (0, ())
    assert smith_invariant_factors([[4, 6]]) == (1, (2,))
    assert smith_invariant_factors([[2, 0], [0, 4]]) == (2, (2, 4))
    assert smith_invariant_factors([[2, 0], [0, 3]]) == (2, (1, 6))


def test_smith_rejects_bad_shapes():
    with pytest.raises(ValueError):
        smith_invariant_factors([])
    with pytest.raises(ValueError):
        smith_invariant_factors([[1, 2, 3]])


@pytest.mark.parametrize(
    "rows",
    [[(True, False), (False, True)], [(1, 0), (0, True)], [(1.0, 0), (0, 1)], [(F(1, 2), 0), (0, 1)]],
)
def test_smith_rejects_bools_floats_and_fractions(rows):
    with pytest.raises(ValueError):
        smith_invariant_factors(rows)


def gcd_minor_oracle(rows):
    """Invariant factors from gcds of minors, the classical description."""
    from math import gcd

    entries = [x for row in rows for x in row]
    d1 = 0
    for x in entries:
        d1 = gcd(d1, x)
    minors = [
        rows[i][0] * rows[j][1] - rows[i][1] * rows[j][0]
        for i in range(len(rows))
        for j in range(i + 1, len(rows))
    ]
    d12 = 0
    for m in minors:
        d12 = gcd(d12, m)
    if d1 == 0:
        return (0, ())
    if d12 == 0:
        return (1, (d1,))
    return (2, (d1, d12 // d1))


@given(st.lists(int_vectors, min_size=1, max_size=5))
@settings(max_examples=300)
def test_smith_matches_gcd_minors(rows):
    rank, factors = smith_invariant_factors(rows)
    assert (rank, factors) == gcd_minor_oracle([list(r) for r in rows])
    for a, b in zip(factors, factors[1:]):
        assert b % a == 0


@pytest.mark.parametrize("x", [0.1, 1.0, np.float64(0.5), True, False])
def test_scalar_to_json_rejects_floats_and_bools(x):
    with pytest.raises(TypeError, match="exact rational expected"):
        scalar_to_json(x)


@given(st.one_of(st.integers(), st.fractions()))
def test_scalar_to_json_text_of_ints_and_fractions(x):
    assert scalar_to_json(x) == str(Fraction(x))
