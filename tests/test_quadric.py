import warnings
from fractions import Fraction

import numpy as np
import pytest
from conftest import (
    J12,
    OMEGA12,
    basis_change,
    constraint_jacobian,
    equivariance_residual,
    seed_point,
    transverse_frame,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from su3kahler import quadric
from su3kahler.isotropy import SupportPattern, singular_stratum_census
from su3kahler.quadric import (
    ROUND_DATA,
    LevelSetPoint,
    Tolerances,
    certification_sample,
    certify_point,
    certify_points,
    check_special_unitary,
    constraint_values,
    embed_su3,
    moment_map,
    moment_scale,
    project_points,
    project_to_level,
    random_su3,
)
from su3kahler.weights import check_level_set_conditions, cone_data, derive


def omega_form(u6, v6):
    return float(np.sum(u6 * np.conj(v6)).imag)


# --- embedding ----------------------------------------------------------------


def test_embed_identity():
    p = embed_su3(np.eye(3))
    assert np.allclose(p.z, [1, 0, 0]) and np.allclose(p.w, [0, 0, 1])


def test_embed_diagonal_phase():
    p = embed_su3(np.diag([1j, 1j, -1]))
    assert np.allclose(p.z, [1j, 0, 0])
    assert np.allclose(p.w, [0, 0, -1])


def test_embed_rejects_non_unitary():
    with pytest.raises(ValueError):
        embed_su3(2 * np.eye(3))
    with pytest.raises(ValueError):
        embed_su3(np.diag([1, 1, -1]))  # unitary but det -1


NAN = float("nan")


@pytest.mark.parametrize(
    "call",
    [check_special_unitary, embed_su3],
    ids=["special_unitary", "embed"],
)
def test_non_finite_input_raises_the_documented_error(call):
    """Rejected before any factorization: numpy warns on nothing."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not special unitary"):
            call(np.full((3, 3), NAN))


def test_embed_random_residuals():
    p = embed_su3(random_su3(7))
    assert max(p.residuals) <= 1e-12


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
    """Every returned point passes the acceptance rule: nonzero factors
    and small residuals."""
    with pytest.raises(ValueError, match="nonzero"):
        project_to_level(orbifold_data, [0, 0, 0], [0, 1, 0])
    with pytest.raises(ValueError, match="misses the level set"):
        # a stopping residual of 1 keeps the start, which misses the level set
        project_to_level(orbifold_data, [1, 0, 0], [0, 1.1, 0], tol=1.0)


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
    for omega12, j12 in ((OMEGA12, J12), (quadric._OMEGA12, quadric._J12)):
        assert abs((j12 @ ur) @ omega12 @ ur - np.linalg.norm(u) ** 2) <= 1e-12
    assert np.array_equal(quadric._J12, J12) and np.array_equal(quadric._OMEGA12, OMEGA12)


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
    p = seed_point(orbifold_data, 1, 2)
    cert = certify_point(orbifold_data, p)
    assert cert.regular and cert.jacobian_rank == 4
    assert cert.transversal and cert.combined_rank == 10
    assert cert.jn_square_error <= 1e-8
    assert cert.jn_xy_error <= 1e-8
    assert cert.omega_compat_error <= 1e-8
    spectrum = np.array(cert.positivity_spectrum)
    assert np.sum(np.abs(spectrum) <= 1e-8) == 2
    assert np.sum(spectrum >= 1e-6 * spectrum[-1]) == 6
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
        assert cert.passed
        spectrum = np.array(cert.positivity_spectrum)
        assert np.sum(np.abs(spectrum) <= 1e-8) == 2


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
def test_certification_sample_is_seeded_and_prefix_stable(name, orbifold_data, monkeypatch):
    d = orbifold_data if name == "orbifold" else ROUND_DATA
    embedded = []
    real = quadric.embed_su3

    def recorded(a):
        embedded.append(np.array(a))
        return real(a)

    monkeypatch.setattr(quadric, "embed_su3", recorded)
    full = certification_sample(d, 40, 5)
    assert _same_points(certification_sample(d, 40, 5), full)
    for m in (1, 7, 8, 23):
        assert _same_points(certification_sample(d, m, 5), full[:m])
    embedded.clear()
    other = certification_sample(d, 40, 6)
    assert not any(np.array_equal(p.z, q.z) for p, q in zip(full[6:], other[6:]))
    # after the 6 seeds, the round sample embeds points 8, 11, ..., 38
    slots = [] if name == "orbifold" else list(range(8, 40, 3))
    assert len(embedded) == len(slots)
    for k, a in zip(slots, embedded):
        check_special_unitary(a)
        assert np.array_equal(other[k].z, a[:, 0]) and np.array_equal(other[k].w, np.conj(a[:, 2]))


def _sample_data(name, orbifold_data, bound2_systems):
    if name == "bound2":
        return derive(bound2_systems[1000])
    return orbifold_data if name == "orbifold" else ROUND_DATA


@pytest.mark.parametrize("name", ["orbifold", "round", "bound2"])
def test_certification_sample_provenance_is_bitwise(name, orbifold_data, bound2_systems):
    """Seeds are the exact single-support points z_i = sqrt(a), w_j = sqrt(b)
    of the mixed witnesses (i, j, a, b), perturbed points are projections
    of a seed plus a row of the first child's draw, and embedded points
    are drawn from the second child, all bit for bit."""
    d = _sample_data(name, orbifold_data, bound2_systems)
    seeds = []
    for i, j, a, b in d.mixed_witnesses:
        z, w = np.zeros(3, dtype=complex), np.zeros(3, dtype=complex)
        z[i - 1], w[j - 1] = np.sqrt(float(a)), np.sqrt(float(b))
        seeds.append(LevelSetPoint(z, w, (0.0, 0.0)))
    m = len(seeds)
    for n in sorted({3, m, 20, 40}):
        points = certification_sample(d, n, 11)
        assert len(points) == n
        for k in range(min(n, m)):
            assert _same_points([points[k]], [seeds[k]])
        if n <= m:
            continue
        noise_seq, su3_seq = np.random.SeedSequence(11).spawn(2)
        embedded = [k for k in range(m, n) if d == ROUND_DATA and k % 3 == 2]
        perturbed = [k for k in range(m, n) if k not in embedded]
        noise = np.random.default_rng(noise_seq).standard_normal((len(perturbed), 12))
        su3_rng = np.random.default_rng(su3_seq)
        for k in embedded:
            assert _same_points([points[k]], [embed_su3(random_su3(su3_rng))])
        z0 = np.empty((len(perturbed), 3), dtype=complex)
        w0 = np.empty_like(z0)
        for r, k in enumerate(perturbed):
            seed = np.concatenate([seeds[k % m].z, seeds[k % m].w])
            x = np.empty(12)  # the real layout (Re z1, Im z1, ..., Im w3)
            x[0::2], x[1::2] = seed.real, seed.imag
            x = x + quadric._SAMPLE_NOISE * noise[r]
            v = x[0::2] + 1j * x[1::2]
            z0[r], w0[r] = v[:3], v[3:]
        assert _same_points([points[k] for k in perturbed], project_points(d, z0, w0))


@given(
    st.sampled_from(["orbifold", "round", "bound2"]),
    st.sampled_from([1e-9, 1e-12, 1e-14, 1e-15, 1e-16]),
    st.integers(1, 45),
    st.integers(0, 2**32 - 1),
)
@example("round", 1e-15, 30, 3)  # an embedded point misses 1e-15
@settings(max_examples=60, deadline=None)
def test_every_sample_point_meets_the_acceptance_rule(orbifold_data, bound2_systems, name, residual, n, seed):
    d = _sample_data(name, orbifold_data, bound2_systems)
    tol = Tolerances(residual=residual)
    try:
        points = certification_sample(d, n, seed, tol)
    except ValueError as exc:
        assert "misses the level set" in str(exc)
        return
    assert len(points) == n
    for p in points:
        assert abs(np.sum(p.z * p.w)) <= residual
        assert np.linalg.norm(moment_map(d, p) - np.array(d.c, dtype=float)) <= residual * moment_scale(d)


def test_only_the_returned_seeds_are_validated(orbifold_data):
    # seed 0 has moment residual 0.0, seed 1 about 4e-16
    tol = Tolerances(residual=1e-16)
    assert len(certification_sample(orbifold_data, 1, 0, tol)) == 1
    with pytest.raises(ValueError, match="point misses the level set"):
        certification_sample(orbifold_data, 2, 0, tol)


def test_embedding_errors_raise_before_projection(monkeypatch):
    def failing(a):
        raise ValueError("embedding refused")

    def refuse(*args, **kwargs):
        raise AssertionError("projected despite a failed embedding")

    monkeypatch.setattr(quadric, "embed_su3", failing)
    monkeypatch.setattr(quadric, "project_points", refuse)
    with pytest.raises(ValueError, match="embedding refused"):
        certification_sample(ROUND_DATA, 9, 0)


def test_certification_sample_rejects_bad_count(orbifold_data):
    with pytest.raises(ValueError):
        certification_sample(orbifold_data, 0, 0)


def test_round_data_sample_includes_embeddings():
    pts = certification_sample(ROUND_DATA, 30, 0)
    assert all(max(p.residuals) <= 1e-9 for p in pts)


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
