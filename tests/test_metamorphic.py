"""Metamorphic properties of the exact layer on bound-2 weight systems.

The cone condition, the level-set conditions and the positive mixed
combinations C = a*A_i + b*B_j see the plane configuration only up to a
linear change of coordinates, a common positive scale and the labels j.
Freeness and the isotropy groups are lattice notions: they survive a
GL2(Z) change of torus basis and a simultaneous S3 relabelling, but not a
rescaling, which enlarges stabilizers by a torsion subgroup.

The numerical certificates of ``su3kahler verify`` follow the same
symmetries: the sampled points move, but the verdicts and ranks do not.
They are also invariant under the symmetries of the level set itself,
the phase torus T^4 and complex conjugation, so a sample that picks one
point per T^4 orbit loses nothing.
"""

import contextlib
import io
import itertools
import json
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from conftest import admissible_systems, basis_change, holds_by_memberships, reference_condition_evidence
from hypothesis import given, settings
from hypothesis import strategies as st

from su3kahler import (
    DerivedConeData,
    WeightSystem,
    check_cone_condition,
    check_level_set_conditions,
    cone_condition_holds,
    derive,
    freeness_check,
    singular_stratum_census,
)
from su3kahler.cli import main
from su3kahler.conegeom import cross, vec_to_json
from su3kahler.quadric import ROUND_DATA, LevelSetPoint, certification_sample, certify_points
from su3kahler.weights import cone_data

# Zero-sum weight triples with entries in [-2, 2]: one side of a bound-2 system.
TRIPLES = tuple(
    ((x1, y1), (x2, y2), (-x1 - x2, -y1 - y2))
    for x1, y1, x2, y2 in itertools.product(range(-2, 3), repeat=4)
    if abs(x1 + x2) <= 2 and abs(y1 + y2) <= 2
)
# Generators of GL2(Z): the four shears, the swap and a reflection.
ELEMENTARY = (
    ((1, 1), (0, 1)),
    ((1, -1), (0, 1)),
    ((1, 0), (1, 1)),
    ((1, 0), (-1, 1)),
    ((0, 1), (1, 0)),
    ((-1, 0), (0, 1)),
)
IDENTITY = (0, 1, 2)


def matmul(m, n):
    return tuple(tuple(sum(m[r][k] * n[k][c] for k in range(2)) for c in range(2)) for r in range(2))


def relabel(perm, d):
    """Generator k of the result is generator perm[k] of d, on both sides."""
    return DerivedConeData(tuple(d.a[p] for p in perm), tuple(d.b[p] for p in perm), d.c)


def rescale(s, d):
    def scaled(v):
        return (s * v[0], s * v[1])

    return DerivedConeData(tuple(map(scaled, d.a)), tuple(map(scaled, d.b)), scaled(d.c))


def exact_view(d, perm=IDENTITY):
    """The scale-, basis- and label-free facts of d, with 1-based indices
    read back through perm."""
    ls = check_level_set_conditions(d)
    witnesses = {(perm[i - 1] + 1, perm[j - 1] + 1): (a, b) for i, j, a, b in d.mixed_witnesses}
    return (
        cone_condition_holds(d),
        holds_by_memberships(check_cone_condition(d)),
        reference_condition_evidence(d)[0],
        (ls.nonempty, ls.regular, ls.compact),
        witnesses,
    )


def lattice_view(d, perm=IDENTITY):
    """Freeness and the census isotropy of every pattern, with patterns
    read back through perm."""
    census = {
        (
            tuple(sorted(perm[i - 1] + 1 for i in r.pattern.i_set)),
            tuple(sorted(perm[j - 1] + 1 for j in r.pattern.j_set)),
        ): r.isotropy
        for r in singular_stratum_census(d)
    }
    return freeness_check(d).free, census


@st.composite
def weight_systems(draw, admissible):
    """Half of the draws pass the cone condition, half are arbitrary."""
    if draw(st.booleans()):
        return draw(st.sampled_from(admissible))
    return WeightSystem(draw(st.sampled_from(TRIPLES)), draw(st.sampled_from(TRIPLES)))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_exact_layer_is_invariant_under_basis_change_relabelling_and_rescaling(data):
    d = derive(data.draw(weight_systems(admissible_systems(2))))
    m = ((1, 0), (0, 1))
    for f in data.draw(st.lists(st.sampled_from(ELEMENTARY), min_size=1, max_size=4)):
        m = matmul(f, m)
    assert abs(m[0][0] * m[1][1] - m[0][1] * m[1][0]) == 1
    perm = data.draw(st.permutations(IDENTITY))
    s = data.draw(st.integers(2, 5))

    moved = basis_change(m, d)
    relabelled = relabel(perm, d)
    scaled = rescale(s, d)
    view = exact_view(d)
    assert exact_view(moved) == view
    assert exact_view(relabelled, perm) == view
    assert exact_view(scaled) == view

    lattice = lattice_view(d)
    assert lattice_view(moved) == lattice
    assert lattice_view(relabelled, perm) == lattice
    assert freeness_check(moved).failing_pair == freeness_check(d).failing_pair
    pair = freeness_check(relabelled).failing_pair
    if pair is not None:  # the same pair of d, by its labels, fails with the same |det|
        i, j, det = pair
        assert det == abs(cross(d.a[perm[i - 1]], d.b[perm[j - 1]])) != 1


# One GL2(Z) basis change of each determinant sign, two rational GL2(Q)
# ones, a 3-cycle and a swap. A rational basis change is no lattice map, but
# the level set and its certificates only see the real plane.
BASIS_CHANGES = (
    ((2, 1), (1, 1)),
    ((1, 2), (0, -1)),
    ((Fraction(1, 2), 3), (1, Fraction(-2, 3))),
    ((Fraction(7, 3), Fraction(1, 5)), (Fraction(-1, 4), 1)),
)
RELABELLINGS = ((1, 2, 0), (1, 0, 2))
# All generators on one line: every Jacobian has rank 3, so no point passes.
COLLINEAR = cone_data([(1, 0), (2, 0), (3, 0)], [(3, 0), (2, 0), (1, 0)])


def verify_verdicts(d, samples=12, seed=2):
    """Exit code, the report's pass and all_passed, and the multiset of
    per-certificate (regular, transversal, ranks, pass) of `verify` on d."""
    config = json.dumps({"A": [vec_to_json(v) for v in d.a], "B": [vec_to_json(v) for v in d.b]})
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", "--config", config, "--samples", str(samples), "--seed", str(seed)])
    report = json.loads(out.getvalue())
    results = report["results"]
    certs = Counter(
        (c["regular"], c["transversal"], c["jacobian_rank"], c["combined_rank"], c["pass"])
        for c in results["certificates"]
    )
    return code, report["pass"], results["all_passed"], certs


PASSING = (0, True, True, Counter({(True, True, 4, 10, True): 12}))


@pytest.mark.parametrize("name", ["orbifold", "round", "bound2", "collinear"])
def test_certificate_verdicts_are_invariant_under_basis_change_and_relabelling(
    name, orbifold_data, bound2_systems
):
    cases = {
        "orbifold": [orbifold_data],
        "round": [ROUND_DATA],
        "bound2": [derive(ws) for ws in bound2_systems[::571]],
        "collinear": [COLLINEAR],
    }[name]
    for d in cases:
        verdicts = verify_verdicts(d)
        if name == "collinear":
            assert verdicts == (1, False, False, Counter({(False, False, 3, 0, False): 12}))
        else:
            assert verdicts == PASSING
        for m in BASIS_CHANGES:
            assert verify_verdicts(basis_change(m, d)) == verdicts, (d, m)
        for perm in RELABELLINGS:
            assert verify_verdicts(relabel(perm, d)) == verdicts, (d, perm)


# Regularity margins of a point and of its image under T^4 or conjugation
# differ by at most this. Both maps are real orthogonal on C^6 and act on
# the constraint rows by an orthogonal map, so the Jacobian's singular
# values are the same and the margin moves by rounding only; the worst
# difference seen on these data is 5.0e-16.
SYMMETRY_BOUND = 1e-12


def phase_torus(points, theta, c):
    """The phase torus element (theta, c): z_k -> e^{i theta_k} z_k and
    w_k -> e^{i(c - theta_k)} w_k. It preserves Phi and multiplies
    sum z_k w_k by e^{ic}, so it maps the level set to itself."""
    u, v = np.exp(1j * theta), np.exp(1j * (c - theta))
    return [LevelSetPoint(u * p.z, v * p.w, p.residuals) for p in points]


def conjugate(points):
    return [LevelSetPoint(np.conj(p.z), np.conj(p.w), p.residuals) for p in points]


def assert_same_certificates_up_to_rounding(got, want):
    for a, b in zip(got, want, strict=True):
        assert (a.regular, a.transversal, a.jacobian_rank, a.combined_rank, a.passed) == (
            b.regular, b.transversal, b.jacobian_rank, b.combined_rank, b.passed)
        assert abs(a.regularity_margin - b.regularity_margin) <= SYMMETRY_BOUND


@pytest.mark.parametrize("name", ["orbifold", "round", "bound2", "collinear"])
def test_certificates_are_invariant_under_the_phase_torus_and_conjugation(name, orbifold_data, bound2_systems):
    """certification_sample lifts each point of M/T^4 to one point of its
    orbit. Seeded T^4 elements, conjugation and both together leave every
    verdict and rank of the sample's certificates as they are, and move
    each regularity margin by at most ``SYMMETRY_BOUND``; the collinear
    data's failed certificates stay failed."""
    cases = {
        "orbifold": [orbifold_data],
        "round": [ROUND_DATA],
        "bound2": [derive(ws) for ws in bound2_systems[::571]],
        "collinear": [COLLINEAR],
    }[name]
    rng = np.random.default_rng(19)
    for d in cases:
        points = certification_sample(d, 40, 7)
        want = certify_points(d, points)
        assert all(c.passed for c in want) == (name != "collinear")
        for _ in range(2):
            theta, c = rng.uniform(0, 2 * np.pi, 3), rng.uniform(0, 2 * np.pi)
            moved = phase_torus(points, theta, c)
            for image in (moved, conjugate(points), conjugate(moved)):
                assert_same_certificates_up_to_rounding(certify_points(d, image), want)
