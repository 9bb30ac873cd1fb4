import json
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from conftest import (
    J12,
    OMEGA12,
    admissible_systems,
    basis_change,
    constraint_jacobian,
    embed_su3,
    equivariance_residual,
    push_mixture_rows,
    random_su3,
    seed_point,
    transverse_frame,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from su3kahler import quadric
from su3kahler.cli import main
from su3kahler.isotropy import SupportPattern, singular_stratum_census
from su3kahler.quadric import (
    ROUND_DATA,
    LevelSetPoint,
    certification_sample,
    certify_point,
    certify_points,
    constraint_values,
    moment_map,
    moment_scale,
    project_to_level,
)
from su3kahler.weights import WeightSystem, check_level_set_conditions, cone_condition_holds, cone_data, derive


def omega_form(u6, v6):
    return float(np.sum(u6 * np.conj(v6)).imag)


# --- the round level set as SU(3) (the oracle in conftest) ----------------------


def test_embed_identity():
    p = embed_su3(np.eye(3))
    assert np.allclose(p.z, [1, 0, 0]) and np.allclose(p.w, [0, 0, 1])


def test_embed_diagonal_phase():
    p = embed_su3(np.diag([1j, 1j, -1]))
    assert np.allclose(p.z, [1j, 0, 0])
    assert np.allclose(p.w, [0, 0, -1])


def test_embed_random_residuals():
    p = embed_su3(random_su3(7))
    assert max(p.residuals) <= 1e-12


def test_embedding_is_one_to_one_onto_the_round_level_set():
    """The README's map g -> (g e_1, conj(g e_3)) has the inverse
    (z, w) -> [z | w x conj(z) | conj(w)]: it recovers each seeded g, and it
    sends every point of a round-data sample to a matrix of SU(3)."""

    def inverse(p):
        return np.column_stack([p.z, np.cross(p.w, np.conj(p.z)), np.conj(p.w)])

    for seed in range(20):
        g = random_su3(seed)
        assert np.abs(inverse(embed_su3(g)) - g).max() <= 1e-14
    for p in certification_sample(ROUND_DATA, 50, 0):
        g = inverse(p)
        assert np.abs(g.conj().T @ g - np.eye(3)).max() <= 1e-14 and abs(np.linalg.det(g) - 1) <= 1e-14
        q = embed_su3(g)
        assert np.array_equal(q.z, p.z) and np.array_equal(q.w, p.w)


def test_random_su3_contract():
    a = random_su3(0)
    assert np.linalg.norm(a.conj().T @ a - np.eye(3)) <= 1e-12
    assert abs(np.linalg.det(a) - 1) <= 1e-12
    assert np.array_equal(random_su3(0), a)
    mats = [random_su3(s) for s in range(100)]
    for i in range(100):
        for j in range(i + 1, 100):
            assert np.linalg.norm(mats[i] - mats[j]) > 1e-6


def test_equivariance_identity_and_closed_form():
    a = random_su3(3)
    assert equivariance_residual(a, np.ones(3), np.ones(3)) == 0.0
    g = np.array([1j, 1j, -1])
    assert equivariance_residual(np.eye(3), g, np.ones(3)) <= 1e-15


def test_equivariance_random():
    rng = np.random.default_rng(5)
    for k in range(10):
        th = rng.uniform(0, 2 * np.pi, size=(2, 2))
        g = np.exp(1j * np.array([th[0, 0], th[0, 1], -th[0].sum()]))
        h = np.exp(1j * np.array([th[1, 0], th[1, 1], -th[1].sum()]))
        assert equivariance_residual(random_su3(100 + k), g, h) <= 1e-12


# --- moment map and sampling ----------------------------------------------------


def test_moment_worked_example_point(orbifold_data):
    p = seed_point(orbifold_data, 1, 2)
    assert np.allclose(p.z, [1, 0, 0]) and np.allclose(p.w, [0, 1, 0])
    assert np.allclose(moment_map(orbifold_data, p), [1, 1])


def test_sample_point_31(orbifold_data):
    p = seed_point(orbifold_data, 3, 1)
    assert np.allclose(p.z, [0, 0, np.sqrt(0.5)])
    assert np.allclose(p.w, [np.sqrt(1.5), 0, 0])
    assert np.allclose(moment_map(orbifold_data, p), [1, 1])


def _support(p):
    return tuple(np.flatnonzero(p.z) + 1), tuple(np.flatnonzero(p.w) + 1)


def test_sample_point_rejects_equal_indices(orbifold_data):
    """sum z_j w_j = 0 leaves no point supported on z_i and w_i alone: every
    seed of a sample is supported on one z_i and one w_j with i != j."""
    m = len(orbifold_data.mixed_witnesses)
    supports = [_support(p) for p in certification_sample(orbifold_data, m, 0)]
    assert supports == [((i,), (j,)) for i, j, _, _ in orbifold_data.mixed_witnesses]
    assert all(i != j for (i,), (j,) in supports)


def test_sample_point_rejects_unrealizable():
    # C = (1, 1) needs a negative coefficient on B_2 = (0, -1)
    d = cone_data([(1, 0), (1, 2), (1, 0)], [(0, 1), (0, -1), (0, 1)])
    m = len(d.mixed_witnesses)
    supports = {_support(p) for p in certification_sample(d, m, 0)}
    assert ((1,), (2,)) not in supports and len(supports) == m
    census = {r.pattern: r.realizable for r in singular_stratum_census(d)}
    assert census[SupportPattern((1,), (2,))] is False


def test_level_point_validation(orbifold_data):
    """A projected point is accepted by the projection's own convergence
    test: nonzero factors, and the residuals of its last F, |sum z_j w_j|
    at most tol and |Phi - C| at most tol times the moment scale. A
    stopping residual of 1 keeps a start 0.21 off the level set, and
    reports that residual; the default one moves it onto M."""
    with pytest.raises(ValueError, match="nonzero"):
        project_to_level(orbifold_data, [0, 0, 0], [0, 1, 0])
    p = project_to_level(orbifold_data, [1, 0, 0], [0, 1.1, 0], tol=1.0)
    assert list(p.z) == [1, 0, 0] and list(p.w) == [0, 1.1, 0]
    assert p.residuals[0] == 0.0 and abs(p.residuals[1] - 0.21) <= 1e-15
    q = project_to_level(orbifold_data, [1, 0, 0], [0, 1.1, 0])
    assert max(q.residuals) <= 1e-12 * moment_scale(orbifold_data)


# --- projection ------------------------------------------------------------------


def test_project_fixed_point(orbifold_data):
    p = seed_point(orbifold_data, 1, 2)
    q = project_to_level(orbifold_data, p.z, p.w)
    assert np.array_equal(q.z, p.z) and np.array_equal(q.w, p.w)


def test_project_converges_quadratically(orbifold_data):
    rng = np.random.default_rng(11)
    p = seed_point(orbifold_data, 1, 2)
    dz = 1e-2 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
    dw = 1e-2 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
    q = project_to_level(orbifold_data, p.z + dz, p.w + dw, tol=1e-12, max_iter=8)
    assert max(q.residuals) <= 1e-11


def test_project_rejects_zero_factor(orbifold_data):
    with pytest.raises(ValueError):
        project_to_level(orbifold_data, [0, 0, 0], [1, 0, 0])


# --- torus action ------------------------------------------------------------------


def torus_action(d, p, angles):
    """Rotate by the torus element with the given two angles.

    z_j picks up the phase exp(i <A_j, theta>) and w_j the phase
    exp(i <B_j, theta>); both constraints are preserved because the phases
    drop from moduli and A_j + B_j is independent of j.
    """
    theta = np.asarray(angles, dtype=float)
    z = p.z * np.exp(1j * (np.array(d.a, dtype=float) @ theta))
    w = p.w * np.exp(1j * (np.array(d.b, dtype=float) @ theta))
    residuals = (abs(np.sum(z * w)), np.linalg.norm(moment_map(d, (z, w)) - np.array(d.c, dtype=float)))
    return LevelSetPoint(z, w, residuals)


def test_action_identity(orbifold_data):
    p = seed_point(orbifold_data, 1, 2)
    q = torus_action(orbifold_data, p, (0.0, 0.0))
    assert np.array_equal(q.z, p.z) and np.array_equal(q.w, p.w)


def test_action_order_two_element_fixes_stratum(orbifold_data):
    # the Z/2 stabilizer of the (3, 1) stratum contains t = (-1, 1)
    p = seed_point(orbifold_data, 3, 1)
    q = torus_action(orbifold_data, p, (np.pi, 0.0))
    assert np.linalg.norm(q.z - p.z) + np.linalg.norm(q.w - p.w) <= 1e-13


def test_action_preserves_level_set(orbifold_data):
    rng = np.random.default_rng(2)
    p = seed_point(orbifold_data, 2, 3)
    for _ in range(10):
        p = torus_action(orbifold_data, p, rng.uniform(0, 2 * np.pi, 2))
        assert max(p.residuals) <= 1e-13


# --- frame and conventions -----------------------------------------------------------


def test_omega_orientation():
    rng = np.random.default_rng(0)
    u = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    assert abs(omega_form(1j * u, u) - np.linalg.norm(u) ** 2) <= 1e-12
    ur = np.empty(12)
    ur[0::2], ur[1::2] = u.real, u.imag
    assert abs((J12 @ ur) @ OMEGA12 @ ur - np.linalg.norm(u) ** 2) <= 1e-12


def test_frame_components_worked_example(orbifold_data):
    p = seed_point(orbifold_data, 1, 2)
    x6, y6, z6, w6 = transverse_frame(orbifold_data, p)
    assert np.allclose(x6[:3], [1j, 0, 0]) and np.allclose(x6[3:], 0)
    assert np.allclose(y6[:3], 0) and np.allclose(y6[3:], [0, 1j, 0])
    assert np.allclose(w6, 1j * z6)  # W = J Z exactly


def test_frame_scales_linearly(orbifold_data):
    """The frame is linear in the weights: the torus basis 2 * I doubles it."""
    p = seed_point(orbifold_data, 1, 2)
    base = transverse_frame(orbifold_data, p)
    doubled = transverse_frame(basis_change(((2, 0), (0, 2)), orbifold_data), p)
    for u, v in zip(base, doubled):
        assert np.allclose(v, 2 * u)


def test_hamiltonian_pairing_convention(orbifold_data):
    """omega(X, -) equals half the gradient row of the first moment
    component (the flow convention fixes this constant once)."""
    p = project_to_level(
        orbifold_data,
        [0.5 + 0.1j, 0.4, 0.3j],
        [0.2, 0.5 - 0.2j, 0.6j],
        tol=1e-13,
    )
    x6, y6, _, _ = transverse_frame(orbifold_data, p)
    jac = constraint_jacobian(orbifold_data, p.z, p.w)
    xr = np.empty(12)
    xr[0::2], xr[1::2] = x6.real, x6.imag
    yr = np.empty(12)
    yr[0::2], yr[1::2] = y6.real, y6.imag
    assert np.linalg.norm(xr @ OMEGA12 - 0.5 * jac[2]) <= 1e-12
    assert np.linalg.norm(yr @ OMEGA12 - 0.5 * jac[3]) <= 1e-12


def test_constraint_jacobian_matches_finite_differences(orbifold_data):
    p = project_to_level(
        orbifold_data,
        [0.7, 0.2 + 0.3j, -0.4j],
        [0.1 - 0.5j, 0.8, 0.2j],
        tol=1e-13,
    )
    x0 = np.empty(12)
    x0[0::2], x0[1::2] = np.concatenate([p.z, p.w]).real, np.concatenate([p.z, p.w]).imag

    def f_of(x12):
        v = x12[0::2] + 1j * x12[1::2]
        return constraint_values(orbifold_data, v[:3], v[3:])

    jac = constraint_jacobian(orbifold_data, p.z, p.w)
    h = 1e-6
    for k in range(12):
        e = np.zeros(12)
        e[k] = h
        col = (f_of(x0 + e) - f_of(x0 - e)) / (2 * h)
        assert np.linalg.norm(col - jac[:, k]) <= 1e-6


# --- certificates ---------------------------------------------------------------------


def test_certificate_worked_example(orbifold_data):
    """At the seed z_1 = w_2 = 1 the unit Jacobian has the singular values
    sqrt(2) twice (the quadric rows: |z|^2 + |w|^2 = 2) and 2/sqrt(5)
    twice (the moment rows 2 A_1 and 2 B_2, over the moment scale
    sqrt(5)), so the regularity margin is sqrt(2/5)."""
    p = seed_point(orbifold_data, 1, 2)
    cert = certify_point(orbifold_data, p)
    assert (cert.regular, cert.jacobian_rank, cert.transversal, cert.combined_rank) == (True, 4, True, 10)
    assert abs(cert.regularity_margin - math.sqrt(2 / 5)) <= 1e-15
    assert cert.passed


def test_certificate_passes_under_basis_change(orbifold_data):
    """A rational change of torus basis M moves the cone data to M A_j, M B_j,
    M C and keeps the level set, so the same point certifies."""
    p = seed_point(orbifold_data, 2, 3)
    rng = np.random.default_rng(4)
    for _ in range(5):
        m = [[Fraction(int(x), 4) for x in row] for row in rng.integers(-8, 9, (2, 2))]
        while abs(m[0][0] * m[1][1] - m[0][1] * m[1][0]) < Fraction(1, 3):
            m = [[Fraction(int(x), 4) for x in row] for row in rng.integers(-8, 9, (2, 2))]
        cert = certify_point(basis_change(m, orbifold_data), p)
        assert cert.passed and (cert.jacobian_rank, cert.combined_rank) == (4, 10)


def test_certificate_detects_dependent_fields():
    # A_1 = B_2: the two orbit fields degenerate on the (1, 2) stratum
    d = cone_data([(1, 0)] * 3, [(1, 0)] * 3)
    p = project_to_level(d, [1, 0, 0], [0, 1, 0])
    cert = certify_point(d, p)
    assert not cert.regular and not cert.passed


def test_certification_sample_deterministic(orbifold_data):
    a = certification_sample(orbifold_data, 20, 0)
    b = certification_sample(orbifold_data, 20, 0)
    for p, q in zip(a, b):
        assert np.array_equal(p.z, q.z) and np.array_equal(p.w, q.w)
    c = certification_sample(orbifold_data, 20, 1)
    assert any(not np.array_equal(p.z, q.z) for p, q in zip(a, c))


def _same_points(a, b):
    return len(a) == len(b) and all(
        np.array_equal(p.z, q.z) and np.array_equal(p.w, q.w) for p, q in zip(a, b)
    )


@pytest.mark.parametrize("name", ["orbifold", "round"])
def test_certification_sample_is_seeded_and_prefix_stable(name, orbifold_data):
    """The round data take the same closed form as any other data: no
    point of theirs comes from an embedded SU(3) matrix."""
    d = orbifold_data if name == "orbifold" else ROUND_DATA
    full = certification_sample(d, 300, 5)
    assert _same_points(certification_sample(d, 300, 5), full)
    for m in (1, 6, 7, 8, 23, 150):  # fixed points alone, then draws
        assert _same_points(certification_sample(d, m, 5), full[:m])
    other = certification_sample(d, 300, 6)
    assert _same_points(other[:6], full[:6])
    assert not any(np.array_equal(p.w, q.w) for p, q in zip(full[6:], other[6:]))
    reference = reference_sample(d, 300, 5)
    assert _same_points(full, reference)


def _sample_data(name, orbifold_data):
    if name == "bound2":
        return derive(admissible_systems(2)[1000])
    return orbifold_data if name == "orbifold" else ROUND_DATA


def _slice_vertices(d):
    """The (r, s) of the slice's vertices as Python floats: each mixed
    witness (i, j, a, b) at r_i = a, s_j = b, then the diagonals
    r_i = s_i = 1."""
    out = []
    for i, j, a, b in d.mixed_witnesses:
        v = [0.0] * 6
        v[i - 1], v[j + 2] = float(a), float(b)
        out.append(v)
    return out + [[float(k == i) for k in range(3)] * 2 for i in range(3)]


def _heron(t1, t2, t3):
    return 2 * (t1 * t2 + t2 * t3 + t3 * t1) - (t1 * t1 + t2 * t2 + t3 * t3)


def _kept_mixture(weights, vertices):
    """The (r, s) of sum_k weights[k] vertices[k], summed vertex by vertex
    in Python floats, or None when its t_k = r_k s_k fail Heron's test."""
    rs = [weights[0] * x for x in vertices[0]]
    for lam, v in zip(weights[1:], vertices[1:]):
        rs = [acc + lam * x for acc, x in zip(rs, v)]
    return rs if _heron(*(rs[k] * rs[k + 3] for k in range(3))) > 0 else None


def _closed_form_point(rs):
    """The point over (r, s), in Python floats: z_k = sqrt(r_k) and
    w_k = sqrt(s_k) p_k/|p_k| for the triangle's sides p_1 = 2 t_1,
    p_2 = (t_3 - t_1 - t_2) + i sqrt(H), p_3 = -p_1 - p_2."""
    r, s = rs[:3], rs[3:]
    t1, t2, t3 = (r[k] * s[k] for k in range(3))
    p1 = (2 * t1, 0.0)
    p2 = (t3 - t1 - t2, math.sqrt(_heron(t1, t2, t3)))
    p3 = (-p1[0] - p2[0], -p1[1] - p2[1])
    w = []
    for sk, (re, im) in zip(s, (p1, p2, p3)):
        size = math.sqrt(re * re + im * im)
        w.append(complex(math.sqrt(sk) * (re / size), math.sqrt(sk) * (im / size)))
    return LevelSetPoint(np.array([complex(math.sqrt(x), 0.0) for x in r]), np.array(w), (0.0, 0.0))


def reference_sample(d, n, seed):
    """certification_sample's points, one at a time: the seeds, then one
    mixture of the slice's vertices per Dirichlet(1, ..., 1) weight row of
    the n - m drawn from default_rng(seed), summed vertex by vertex and
    pulled halfway to the diagonals' centroid (w/2 on each fixed point,
    w/2 + 1/6 on each diagonal) until it passes Heron's test, lifted in
    closed form."""
    vertices = _slice_vertices(d)
    m = len(vertices) - 3
    points = [
        LevelSetPoint(np.sqrt(np.array(v[:3], dtype=complex)), np.sqrt(np.array(v[3:], dtype=complex)), (0.0, 0.0))
        for v in vertices[:-3]
    ][:n]
    if n > m:
        pull = [0.0] * m + [1 / 6] * 3
        for weights in np.random.default_rng(seed).dirichlet(np.ones(len(vertices)), n - m).tolist():
            while (rs := _kept_mixture(weights, vertices)) is None:
                weights = [w * 0.5 + c for w, c in zip(weights, pull)]
            points.append(_closed_form_point(rs))
    return points


@pytest.mark.parametrize("name", ["orbifold", "round", "bound2"])
def test_certification_sample_provenance_is_bitwise(name, orbifold_data):
    """Seeds are the exact single-support points z_i = sqrt(a), w_j = sqrt(b)
    of the mixed witnesses (i, j, a, b), and every later point is the
    closed-form lift of a mixture of the slice's vertices, drawn from
    SeedSequence(seed) alone, all bit for bit."""
    d = _sample_data(name, orbifold_data)
    m = len(d.mixed_witnesses)
    for n in sorted({3, m, 20, 40}):
        points = certification_sample(d, n, 11)
        assert len(points) == n
        assert _same_points(points, reference_sample(d, n, 11))
        for p in points[:m]:
            assert np.count_nonzero(p.z) == np.count_nonzero(p.w) == 1


def _rounding_bound(d, rho):
    """16 * 2^-53 * (|C| + sum_g rho_g |g|), a row's rounding bound, in
    Python floats."""
    norms = [math.hypot(*map(float, g)) for g in (*d.a, *d.b)]
    return 16 * 2.0**-53 * (math.hypot(*map(float, d.c)) + sum(r * g for r, g in zip(rho.tolist(), norms)))


@given(st.sampled_from(["orbifold", "round", "bound2"]), st.integers(1, 45), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_every_sample_point_meets_the_acceptance_rule(orbifold_data, name, n, seed):
    """The acceptance rule is on the orbit space: every returned point's
    (r, s) has |Phi(r, s) - C|, the moment residual its LevelSetPoint
    reports, within its rounding bound 16 * 2^-53 * (|C| +
    sum_g rho_g |g|), and in fact within a quarter of it. Its quadric
    residual is 0 by the orbit-space proposition, so the states lifted
    over it meet both residuals to rounding, 1e-14 (relative to the
    moment scale for Phi)."""
    d = _sample_data(name, orbifold_data)
    points = certification_sample(d, n, seed)
    assert len(points) == n
    c, scale = np.array(d.c, dtype=float), moment_scale(d)
    mom = np.hypot(*(quadric._moment(quadric._weight_arrays(d).fg, points._rho) - c).T)
    for p, rho, m in zip(points, points._rho, mom):
        assert p.residuals[1] == m <= _rounding_bound(d, rho) / 4
        assert max(p.residuals[0], abs(np.sum(p.z * p.w))) <= 1e-14
        assert np.linalg.norm(moment_map(d, p) - c) <= 1e-14 * scale


@pytest.mark.parametrize("vertices", [3, 7, 9])
def test_dirichlet_weights_are_gammas_times_one_reciprocal_of_their_sum(vertices):
    """The README's rounding bound reads numpy's Dirichlet draw as its
    gamma variates, added in order, each times the rounded reciprocal of
    that sum: bit for bit so. Their exact sum is then within
    gamma_(vertices + 1) of 1, and their float sum adds vertices - 1
    roundings more."""
    seed = np.random.SeedSequence(4)
    weights = np.random.default_rng(seed).dirichlet(np.ones(vertices), 512)
    gammas = np.random.default_rng(seed).standard_gamma(np.ones(vertices), (512, vertices))
    total = np.zeros(512)
    for column in gammas.T:
        total = total + column
    assert np.array_equal(weights, gammas * (1 / total)[:, None])
    assert np.abs(weights.sum(axis=1) - 1).max() <= 2 * vertices * 2.0**-53


def test_one_weight_row_is_drawn_per_point_past_the_fixed_points(orbifold_data, monkeypatch):
    """No row is drawn that the sample does not return: n - m weight rows
    in one draw past the m = 6 fixed points of the orbifold data, and no
    generator at all for n <= m."""
    draws = []
    make_rng = np.random.default_rng

    class CountedRng:
        def __init__(self, seed):
            self.rng = make_rng(seed)

        def dirichlet(self, alpha, size):
            draws.append((len(alpha), size))
            return self.rng.dirichlet(alpha, size)

    monkeypatch.setattr(np.random, "default_rng", CountedRng)
    for n in (3, 6, 7, 8, 40):
        draws.clear()
        assert len(certification_sample(orbifold_data, n, 0)) == n
        assert draws == ([(9, n - 6)] if n > 6 else [])


def test_sample_points_are_validated_against_their_rounding_bound(monkeypatch):
    """The round data's fixed points meet their bound with |Phi - C| =
    0.0, and its closed-form points meet theirs. A row pushed by 1 + 2^-52
    stays within its bound; a row pushed by 1 + 2^-20 fails, and of two
    failing rows the lower index is reported, its residual and bound
    those of that row."""
    sample = certification_sample(ROUND_DATA, 30, 0)
    assert [p.residuals[1] for p in sample[:6]] == [0.0] * 6
    with monkeypatch.context() as patch:
        push_mixture_rows(patch, 1 + 2.0**-52, 4, 9)
        assert len(certification_sample(ROUND_DATA, 30, 0)) == 30
    push_mixture_rows(monkeypatch, 1 + 2.0**-20, 4, 9)
    with pytest.raises(ValueError) as raised:
        certification_sample(ROUND_DATA, 30, 0)
    row = sample._rho[10].copy()
    row[0] *= 1 + 2.0**-20
    fd = quadric._weight_arrays(ROUND_DATA)
    mom, bound = float(np.hypot(*(quadric._moment(fd.fg, row) - fd.c))), _rounding_bound(ROUND_DATA, row)
    assert mom > 2**20 * bound
    assert str(raised.value) == f"point misses the level set: row 10, |Phi - C| = {mom}, rounding bound {bound}"


# --- closed-form points ----------------------------------------------------------


def _t(p):
    """t_k = |z_k|^2 |w_k|^2 of a point."""
    return np.abs(p.z) ** 2 * np.abs(p.w) ** 2


@given(st.integers(0, 2855), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_closed_form_points_meet_the_residuals_and_heron(index, seed):
    """Every point after the seeds lies on the level set to rounding (the
    quadric's residual and the moment's relative to the moment scale both
    at most 1e-14), and its t_k pass Heron's test, both as the draw's
    mixture and as read back from the point."""
    d = derive(admissible_systems(2)[index])
    m = len(d.mixed_witnesses)
    points = certification_sample(d, m + 60, seed)
    for p in points[m:]:
        quad, mom = p.residuals
        assert quad <= 1e-14 and mom <= 1e-14 * moment_scale(d)
        assert all(_t(p) > 0) and _heron(*_t(p)) > 0
        assert np.all(p.z.imag == 0) and p.w[0].imag == 0 and p.w[0].real > 0  # the section


def test_mixtures_flag_exactly_the_draws_that_pass_heron(orbifold_data):
    """Of a round of mixtures, _mixtures returns the (r, s) of every row,
    summed vertex by vertex as in Python floats, in row order and bit for
    bit, and flags those whose Heron value is positive; _lift maps them
    to the closed-form points over them."""
    fd = quadric._weight_arrays(orbifold_data)
    vertices = _slice_vertices(orbifold_data)
    weights = np.random.default_rng(3).dirichlet(np.ones(len(vertices)), 500)
    kept = [_kept_mixture(w, vertices) for w in weights.tolist()]
    rho, passing = quadric._mixtures(weights, fd.vertices)
    assert passing.tolist() == [rs is not None for rs in kept] and 0 < passing.sum() < len(weights)
    assert rho[passing].tolist() == [rs for rs in kept if rs is not None]
    lifted = [LevelSetPoint(row[:3], row[3:], (0.0, 0.0)) for row in quadric._lift(rho[passing])]
    assert _same_points(lifted, [_closed_form_point(rs) for rs in kept if rs is not None])


def _slice_distances(d, points):
    """Each point's distance in (r, s) = (|z|^2, |w|^2) to the nearest fixed
    point, and the slice's diameter (the largest distance between two of
    its vertices)."""
    vertices = np.array(_slice_vertices(d))
    fixed = vertices[:-3]
    rs = np.array([np.concatenate([np.abs(p.z) ** 2, np.abs(p.w) ** 2]) for p in points])
    nearest = np.linalg.norm(rs[:, None, :] - fixed[None, :, :], axis=-1).min(axis=1)
    diameter = np.linalg.norm(vertices[:, None, :] - vertices[None, :, :], axis=-1).max()
    return nearest, diameter


@pytest.mark.parametrize("seed", range(10))
def test_a_sample_of_fifty_reaches_across_the_slice(orbifold_data, seed):
    """On the README's cone data, some point of every 50-point sample lies
    at least 0.3 of the slice's diameter from every fixed point."""
    nearest, diameter = _slice_distances(orbifold_data, certification_sample(orbifold_data, 50, seed))
    assert nearest.max() >= 0.3 * diameter


def test_certification_sample_rejects_bad_count(orbifold_data):
    with pytest.raises(ValueError):
        certification_sample(orbifold_data, 0, 0)


def test_round_data_sample_is_on_the_round_level_set():
    pts = certification_sample(ROUND_DATA, 30, 0)
    assert all(max(p.residuals) <= 1e-9 for p in pts)
    for p in pts:
        assert abs(np.sum(np.abs(p.z) ** 2) - 1) <= 1e-15 and abs(np.sum(np.abs(p.w) ** 2) - 1) <= 1e-15


def test_boundedness_witness(orbifold_data):
    apex = check_level_set_conditions(orbifold_data).apex_functional
    a1, a2 = float(apex[0]), float(apex[1])
    alpha_c = a1 * float(orbifold_data.c[0]) + a2 * float(orbifold_data.c[1])
    gens = [a1 * float(g[0]) + a2 * float(g[1]) for g in orbifold_data.generators()]
    assert all(g > 0 for g in gens)
    for p in certification_sample(orbifold_data, 25, 0):
        phi = moment_map(orbifold_data, p)
        assert abs(a1 * phi[0] + a2 * phi[1] - alpha_c) <= 1e-10
        assert np.sum(np.abs(p.z) ** 2) <= alpha_c / min(gens) + 1e-9
        assert np.sum(np.abs(p.w) ** 2) <= alpha_c / min(gens) + 1e-9


def test_certificates_on_samples(orbifold_data):
    for p in certification_sample(orbifold_data, 25, 0):
        assert certify_point(orbifold_data, p).passed


def test_certificates_across_bound2_systems(bound2_systems):
    """Every bound-2 system certifies at its exact seed points; every
    fiftieth gets the full mixed sample. Each sample is one batch, and its
    first point also goes through the batch of one."""
    for k, ws in enumerate(bound2_systems):
        d = derive(ws)
        n = 100 if k % 50 == 0 else 6
        points = certification_sample(d, n, 0)
        for p, cert in zip(points, certify_points(d, points), strict=True):
            assert cert.passed, (ws, p)
        assert certify_point(d, points[0]).passed, (ws, points[0])


# The README's weight system and an admissible bound-1000 system whose A_i
# and B_j are nearly parallel in pairs (the thin system of test_cli.py).
README_SYSTEM = WeightSystem(((-1, 1), (-1, 1), (2, -2)), ((-4, 1), (5, -5), (-1, 4)))
THIN_SYSTEM = WeightSystem(((54, 157), (-105, -386), (51, 229)), ((654, 942), (-873, -939), (219, -3)))


def closed_form_margin(d, i, j, a, b):
    """sigma_min/sigma_max of the unit Jacobian at the fixed point of the
    mixed witness C = a A_i + b B_j, at 50 digits. By the Gram lemma its
    singular values are sqrt(a + b) twice and 2 sigma_1(G), 2 sigma_2(G)
    for G = [sqrt(a) A_i, sqrt(b) B_j] / moment scale. With
    t = sigma_1^2 + sigma_2^2 = (a |A_i|^2 + b |B_j|^2) / scale^2 and
    p = (sigma_1 sigma_2)^2 = a b cross(A_i, B_j)^2 / scale^4, both exact,
    sigma_1^2 = (t + sqrt(t^2 - 4p))/2 and sigma_2^2 = p / sigma_1^2, with
    no cancellation in the small one."""
    (p1, p2), (q1, q2) = d.a[i - 1], d.b[j - 1]
    scale2 = max(x * x + y * y for x, y in (*d.a, *d.b, d.c))
    t = (a * (p1 * p1 + p2 * p2) + b * (q1 * q1 + q2 * q2)) / scale2
    p = a * b * (p1 * q2 - p2 * q1) ** 2 / scale2**2
    with mpmath.workdps(50):
        t, p, q = (mpmath.mpf(f.numerator) / f.denominator for f in map(Fraction, (t, p, a + b)))
        s1 = (t + mpmath.sqrt(t * t - 4 * p)) / 2
        values = (2 * mpmath.sqrt(s1), 2 * mpmath.sqrt(p / s1), mpmath.sqrt(q))
        return float(min(values) / max(values))


@pytest.mark.parametrize("name", ["readme", "orbifold", "thin"])
def test_regularity_margin_at_fixed_points_has_its_closed_form(name, orbifold_data):
    """At every fixed point, the sample's seeds, the certificate's margin
    equals :func:`closed_form_margin` to a relative 1e-15. The thin system's
    fixed point (3, 2), where x_32 = 63, is the worst conditioned: its
    margin is 5.7e-5, and it certifies."""
    d = {"readme": derive(README_SYSTEM), "orbifold": orbifold_data, "thin": derive(THIN_SYSTEM)}[name]
    witnesses = d.mixed_witnesses
    certs = certify_points(d, certification_sample(d, len(witnesses), 0))
    assert len(certs) == len(witnesses) == 6
    for cert, (i, j, a, b) in zip(certs, witnesses):
        want = closed_form_margin(d, i, j, a, b)
        assert cert.passed and abs(cert.regularity_margin - want) <= 1e-15 * want, (i, j)
    if name == "thin":
        assert min(witnesses, key=lambda w: closed_form_margin(d, *w))[:2] == (3, 2)
        assert 5.7e-5 <= min(c.regularity_margin for c in certs) < 5.8e-5


def vertex_margin(d, rho):
    """The Gram lemma's regularity margin at the exact point rho = (r, s) of
    the slice, at 50 digits: sqrt(min(P, lambda_-) / max(P, lambda_+)) for
    P = sum rho and lambda_+ >= lambda_- the eigenvalues of
    G = 4 sum_g rho_g g g^T on the data divided by the moment scale S. At a
    vertex rho is rational, and so is S^2 = max |v|^2, so P, tr G and
    det G are exact Fractions; the one square root of the discriminant is
    taken at 50 digits."""
    gens = (*d.a, *d.b)
    s2 = max(x * x + y * y for x, y in (*gens, d.c))
    g11, g22, g12 = (
        4 * sum(r * u[i] * u[j] for r, u in zip(rho, gens)) / Fraction(s2) for i, j in ((0, 0), (1, 1), (0, 1))
    )
    trace, det = g11 + g22, g11 * g22 - g12 * g12
    exact = (sum(rho), trace, det, trace**2 - 4 * det)
    with mpmath.workdps(50):
        p, tr, dt, disc = (mpmath.mpf(f.numerator) / f.denominator for f in map(Fraction, exact))
        plus = (tr + mpmath.sqrt(disc)) / 2
        minus = dt / plus if plus > 0 else mpmath.mpf(0)
        return float(mpmath.sqrt(min(p, minus) / max(p, plus)))


def test_verify_margins_at_the_fixed_points_are_the_exact_vertex_margins(capsys, orbifold_data, bound2_systems):
    """verify's first m margins, at the m fixed points, equal
    :func:`vertex_margin` at the exact rational vertex r_i = a, s_j = b of
    each mixed witness (i, j, a, b) within 1e-14 relative: on every 97th
    bound-2 system, the orbifold and round data and the thin system."""
    configs = [('{"A": [[1,0],[1,0],[2,-1]], "B": [[0,1],[0,1],[-1,2]]}', orbifold_data),
               ('{"A": [[1,0],[1,0],[1,0]], "B": [[0,1],[0,1],[0,1]]}', ROUND_DATA)]
    configs += [(json.dumps(ws.to_json()), derive(ws)) for ws in (*bound2_systems[::97], THIN_SYSTEM)]
    for config, d in configs:
        assert main(["verify", "--config", config, "--samples", "20", "--seed", "1"]) == 0
        margins = [c["regularity_margin"] for c in json.loads(capsys.readouterr().out)["results"]["certificates"]]
        witnesses = d.mixed_witnesses
        assert len(witnesses) == 6
        for got, (i, j, a, b) in zip(margins, witnesses):
            rho = [Fraction(0)] * 6
            rho[i - 1], rho[j + 2] = a, b
            want = vertex_margin(d, rho)
            assert abs(got - want) <= 1e-14 * want, (config, i, j)


def _unit_cross_partner(v):
    """An integer vector u with cross(u, v) = 1, for a primitive v: from
    the extended Euclidean algorithm, x v_x + y v_y = g = +-1, and
    u = g (y, -x)."""
    (g, x, y), (r, s, t) = (v[0], 1, 0), (v[1], 0, 1)
    while r:
        q = g // r
        (g, x, y), (r, s, t) = (r, s, t), (g - q * r, x - q * s, y - q * t)
    assert abs(g) == 1
    return g * y, -g * x


def _large_admissible_pool(bound, seed, size):
    """``size`` admissible cone data with entries of about ``bound``: C,
    A_1 and A_2 uniform in [-bound, bound]^2, B_j = C - A_j, and A_3 a
    partner of cross(A_3, B_2) = +-1 plus k B_2 for k uniform in
    [-3, 3]. The fixed point of (A_3, B_2), where that pair alone spans
    R^2, has a unit cross of about bound^-2, so margins fall like
    bound^-2; the draws whose cone condition fails are dropped."""
    rng = random.Random(seed)
    pool = []
    while len(pool) < size:
        c, a1, a2 = ((rng.randint(-bound, bound), rng.randint(-bound, bound)) for _ in range(3))
        b2 = (c[0] - a2[0], c[1] - a2[1])
        if math.gcd(*b2) != 1:
            continue
        (ux, uy), k, sign = _unit_cross_partner(b2), rng.randint(-3, 3), rng.choice((1, -1))
        a = [a1, a2, (sign * (ux + k * b2[0]), sign * (uy + k * b2[1]))]
        b = [(c[0] - x, c[1] - y) for x, y in a]
        d = cone_data(a, b)
        if cone_condition_holds(d):
            pool.append(({"A": a, "B": b}, d))
    return pool


@pytest.mark.parametrize("exponent", [2, 3, 4, 5, 6])
def test_large_admissible_data_certify_at_the_exact_vertex_margins(capsys, exponent):
    """On 60 admissible systems with entries of about N = 10^exponent,
    whose smallest fixed-point margins fall like N^-2 (to about 1e-11 at
    10^5), ``verify --samples m`` certifies every fixed point at rank 4:
    the rank is the support test, and no float cutoff decides it. Every
    system exits 0, and its m margins are :func:`vertex_margin` within
    1e-13 relative: a fixed point's |Phi - C|, the rounding of sums far
    above the moment scale, is accepted against its own rounding bound."""
    pool = _large_admissible_pool(10**exponent, f"large admissible data: 10^{exponent}", 60)
    for config, d in pool:
        witnesses = d.mixed_witnesses
        code = main(["verify", "--config", json.dumps(config), "--samples", str(len(witnesses))])
        results = json.loads(capsys.readouterr().out)["results"]
        assert code == 0 and results["all_passed"] is True, config
        assert [c["jacobian_rank"] for c in results["certificates"]] == [4] * len(witnesses), config
        for cert, (i, j, a, b) in zip(results["certificates"], witnesses, strict=True):
            rho = [Fraction(0)] * 6
            rho[i - 1], rho[j + 2] = a, b
            want = vertex_margin(d, rho)
            assert abs(cert["regularity_margin"] - want) <= 1e-13 * want, (config, i, j)
