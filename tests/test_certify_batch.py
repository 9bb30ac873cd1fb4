"""The batched certification kernel against the scalar code it replaced.

``reference_certify`` and ``reference_project`` are the one-point
implementations (one SVD, a second SVD plus ``lstsq``, per-point operator
norms and ``eigvalsh``; Gauss-Newton with ``lstsq`` steps), kept here as
the oracle for :func:`certify_points` and :func:`project_points`.
"""

import json
from fractions import Fraction

import numpy as np
import pytest
from conftest import (
    J12,
    OMEGA12,
    basis_change,
    c2r,
    constraint_jacobian,
    seed_point,
    transverse_frame,
)

from su3kahler import quadric
from su3kahler.cli import main
from su3kahler.quadric import (
    ROUND_DATA,
    LevelSetPoint,
    PointCertificate,
    Tolerances,
    certification_sample,
    certify_point,
    certify_points,
    constraint_values,
    moment_scale,
    project_points,
    project_to_level,
)
from su3kahler.weights import cone_data, derive


def reference_certify(d, p, tol=Tolerances()):
    jac = constraint_jacobian(d, p.z, p.w)
    _, s, vt = np.linalg.svd(jac)
    smax = s[0] if s[0] > 0 else 1.0
    jac_rank = int(np.sum(s > tol.rank_rel * smax))
    if jac_rank < 4:
        return PointCertificate(False, False, jac_rank, 0, np.inf, np.inf, np.inf, (), False)
    q = vt[4:].T
    x6, y6, z6, w6 = transverse_frame(d, p)
    xr, yr = c2r(x6), c2r(y6)
    span = np.column_stack([q, c2r(z6), c2r(w6)])
    s2 = np.linalg.svd(span, compute_uv=False)
    combined_rank = int(np.sum(s2 > tol.rank_rel * s2[0]))
    if combined_rank != 10:
        return PointCertificate(
            True, False, jac_rank, combined_rank, np.inf, np.inf, np.inf, (), False
        )
    coords, *_ = np.linalg.lstsq(span, J12 @ q, rcond=None)
    k = coords[:8, :]
    jn_square_error = float(np.linalg.norm(k @ k + np.eye(8), 2))
    xi, eta = q.T @ xr, q.T @ yr
    jn_xy_error = float(np.linalg.norm(q @ (k @ xi) - yr) + np.linalg.norm(q @ (k @ eta) + xr))
    omega_n = q.T @ OMEGA12 @ q
    omega_compat_error = float(np.linalg.norm(k.T @ omega_n @ k - omega_n, 2))
    qform = k.T @ omega_n
    spectrum = np.linalg.eigvalsh(0.5 * (qform + qform.T))
    spectrum_ok = (
        int(np.sum(np.abs(spectrum) <= tol.zero)) == 2
        and int(np.sum(spectrum >= tol.pos * spectrum[-1])) == 6
    )
    passed = (
        jn_square_error <= quadric._OPERATOR_TOL
        and jn_xy_error <= quadric._OPERATOR_TOL
        and omega_compat_error <= quadric._OPERATOR_TOL
        and spectrum_ok
    )
    return PointCertificate(
        True, True, jac_rank, combined_rank, jn_square_error, jn_xy_error,
        omega_compat_error, tuple(float(v) for v in spectrum), passed,
    )


def reference_project(d, z0, w0, tol=1e-12, max_iter=50, floor=1e-8):
    """Sequential Gauss-Newton with lstsq steps and the relative stopping rule."""
    z = np.asarray(z0, dtype=complex).copy()
    w = np.asarray(w0, dtype=complex).copy()
    rows = np.array([1.0, 1.0, 1.0 / moment_scale(d), 1.0 / moment_scale(d)])
    for _ in range(max_iter):
        f = constraint_values(d, z, w) * rows
        if np.linalg.norm(f) <= tol:
            return z, w
        jac = constraint_jacobian(d, z, w) * rows[:, None]
        step, *_ = np.linalg.lstsq(jac, -f, rcond=None)
        v = np.concatenate([z, w]) + (step[0::2] + 1j * step[1::2])
        z, w = v[:3], v[3:]
        assert max(np.max(np.abs(z)), np.max(np.abs(w))) > floor
    raise AssertionError("reference projection did not converge")


def assert_same_certificates(batch, reference):
    assert len(batch) == len(reference)
    for got, want in zip(batch, reference):
        assert (got.regular, got.transversal, got.passed) == (
            want.regular, want.transversal, want.passed)
        assert (got.jacobian_rank, got.combined_rank) == (want.jacobian_rank, want.combined_rank)
        for name in ("jn_square_error", "jn_xy_error", "omega_compat_error"):
            a, b = getattr(got, name), getattr(want, name)
            assert a == b if np.isinf(b) else abs(a - b) <= 1e-12, name
        assert len(got.positivity_spectrum) == len(want.positivity_spectrum)
        assert np.allclose(got.positivity_spectrum, want.positivity_spectrum, rtol=0, atol=1e-12)


def _ambient_points(rng, n, spread):
    """Points off the level set: certificates only read z and w."""
    out = []
    for _ in range(n):
        s = 10.0 ** rng.uniform(-spread, spread)
        z = s * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
        w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        out.append(LevelSetPoint(z, w, (0.0, 0.0)))
    return out


# --- certificates --------------------------------------------------------------


def test_batch_matches_reference_on_bound2_systems(bound2_systems):
    for ws in bound2_systems[::97]:
        d = derive(ws)
        points = certification_sample(d, 12, 0)
        certs = certify_points(d, points)
        assert_same_certificates(certs, [reference_certify(d, p) for p in points])
        assert all(c.passed for c in certs)


@pytest.mark.parametrize("name", ["orbifold", "round"])
def test_batch_matches_reference_on_samples(name, orbifold_data):
    d = orbifold_data if name == "orbifold" else ROUND_DATA
    points = certification_sample(d, 60, 3)
    assert_same_certificates(certify_points(d, points), [reference_certify(d, p) for p in points])


def test_batch_matches_reference_under_basis_change(orbifold_data):
    """The cone data in another rational torus basis cut out the same level
    set, so the orbifold sample certifies against the moved data."""
    points = certification_sample(orbifold_data, 30, 1)
    f = Fraction
    for m in (((f(1, 2), 3), (1, f(-2, 3))), ((f(7, 3), f(1, 5)), (f(-1, 4), 1)), ((2, 1), (1, 1))):
        d = basis_change(m, orbifold_data)
        certs = certify_points(d, points)
        assert_same_certificates(certs, [reference_certify(d, p) for p in points])
        assert all(c.passed for c in certs)


def test_mixed_batch_with_irregular_and_non_transversal_points():
    """Data of moment scale exactly 1, so the batch factors the very
    matrices the reference does and even a coarse rank cutoff decides
    alike. The cutoff makes some regular points non-transversal;
    z = (2, 0, 0), w = 0 is irregular (both moment rows are A_1 = (1/2, 1/2))."""
    h = Fraction(1, 2)
    d = cone_data([(h, h), (h, -h), (h, 0)], [(h, -h), (h, h), (h, 0)])
    assert moment_scale(d) == 1.0
    rng = np.random.default_rng(0)
    points = _ambient_points(rng, 30, 2)
    for k in (0, 7, 19):
        points.insert(k, LevelSetPoint(np.array([2.0 + 0j, 0, 0]), np.zeros(3, complex), (0, 0)))
    tol = Tolerances(rank_rel=1e-2)
    want = [reference_certify(d, p, tol=tol) for p in points]
    kinds = {(c.regular, c.transversal) for c in want}
    assert kinds == {(False, False), (True, False), (True, True)}
    assert_same_certificates(certify_points(d, points, tol=tol), want)


def test_dependent_fields_data_in_a_batch():
    d = cone_data([(1, 0)] * 3, [(1, 0)] * 3)
    points = project_points(d, [[1, 0, 0], [0, 1, 0]], [[0, 1, 0], [0, 0, 1]])
    assert_same_certificates(certify_points(d, points), [reference_certify(d, p) for p in points])
    assert not any(c.regular for c in certify_points(d, points))


def test_all_degenerate_batch_sends_no_nan_to_lapack(monkeypatch):
    """Zero cone data: every Jacobian has rank 2, so no later factorization
    may run, and none may ever see a non-finite matrix."""
    seen = []
    for name in ("svd", "eigvalsh", "pinv", "lstsq"):
        real = getattr(np.linalg, name)

        def checked(a, *args, _real=real, _name=name, **kwargs):
            assert np.all(np.isfinite(a)), _name
            seen.append(_name)
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, checked)
    d = cone_data([(0, 0)] * 3, [(0, 0)] * 3)
    points = _ambient_points(np.random.default_rng(1), 6, 1)
    with np.errstate(all="raise"):
        certs = certify_points(d, points)
    assert seen == ["svd"]
    assert [(c.regular, c.jacobian_rank, c.passed) for c in certs] == [(False, 2, False)] * 6
    assert certify_points(d, []) == []


def test_certify_path_keeps_its_factorization_budget(monkeypatch, orbifold_data):
    """Regular points cost no SVD of the 12 x 10 matrix [Q | Z W], no pinv
    in a Gauss-Newton step, and no RNG stream per sample point; a sample is
    one projection call, and a sample of seeds only spawns no RNG."""
    z0, w0 = _perturbed_starts(orbifold_data, 20, 7)
    seen = []
    for name in ("svd", "pinv", "qr"):
        real = getattr(np.linalg, name)

        def recorded(a, *args, _real=real, _name=name, **kwargs):
            seen.append((_name, np.shape(a)))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    spawned = []

    class RecordedSeedSequence(np.random.SeedSequence):
        def spawn(self, n_children):
            spawned.append(n_children)
            return super().spawn(n_children)

    monkeypatch.setattr(np.random, "SeedSequence", RecordedSeedSequence)

    projections = []

    def counted(d, z0, w0, *args, **kwargs):
        projections.append(len(z0))
        return project_points(d, z0, w0, *args, **kwargs)

    monkeypatch.setattr(quadric, "project_points", counted)

    project_points(orbifold_data, z0, w0)
    assert ("pinv" not in {name for name, _ in seen}) and ("qr" in {name for name, _ in seen})
    m = len(orbifold_data.mixed_witnesses)
    for n in (1, m):
        certification_sample(orbifold_data, n, 4)
    assert projections == [1, m] and not spawned
    n = 50
    points = certification_sample(orbifold_data, n, 4)
    assert projections == [1, m, n]
    assert spawned == [2]
    seen.clear()
    assert all(c.passed for c in certify_points(orbifold_data, points))
    assert seen and not any(name == "svd" and shape[-2:] == (12, 10) for name, shape in seen)


def test_single_point_is_a_batch_of_one(orbifold_data):
    p = seed_point(orbifold_data, 2, 3)
    assert certify_point(orbifold_data, p) == certify_points(orbifold_data, [p])[0]


# --- projection ------------------------------------------------------------------


def _perturbed_starts(d, n, seed, noise=1e-2):
    rng = np.random.default_rng(seed)
    base = certification_sample(d, 6, 0)
    z0 = np.array([base[k % len(base)].z for k in range(n)])
    w0 = np.array([base[k % len(base)].w for k in range(n)])
    z0 = z0 + noise * (rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3)))
    w0 = w0 + noise * (rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3)))
    return z0, w0


@pytest.mark.parametrize("name", ["orbifold", "round"])
def test_project_points_matches_sequential(name, orbifold_data):
    d = orbifold_data if name == "orbifold" else ROUND_DATA
    z0, w0 = _perturbed_starts(d, 25, 4)
    batch = project_points(d, z0, w0)
    for k, p in enumerate(batch):
        one = project_to_level(d, z0[k], w0[k])
        assert np.allclose(p.z, one.z, rtol=0, atol=1e-12)
        assert np.allclose(p.w, one.w, rtol=0, atol=1e-12)
        z, w = reference_project(d, z0[k], w0[k])
        assert np.allclose(p.z, z, rtol=0, atol=1e-12) and np.allclose(p.w, w, rtol=0, atol=1e-12)
        assert max(p.residuals) <= 1e-11


def _first_sequential_error(d, z0, w0, **kwargs):
    for z, w in zip(z0, w0):
        try:
            project_to_level(d, z, w, **kwargs)
        except (ValueError, RuntimeError) as exc:
            return exc
    return None


@pytest.mark.parametrize("order", [(0, 1, 2), (0, 2, 1), (2, 0, 1)])
def test_project_points_raises_the_first_sequential_error(order, orbifold_data):
    """Row kinds: converged at once, no convergence within one step, zero start."""
    exact = seed_point(orbifold_data, 1, 2)
    zs = [exact.z, exact.z + 0.05, np.zeros(3)]
    ws = [exact.w, exact.w + 0.05, exact.w]
    z0 = np.array([zs[k] for k in order])
    w0 = np.array([ws[k] for k in order])
    want = _first_sequential_error(orbifold_data, z0, w0, max_iter=1)
    with pytest.raises(type(want)) as got:
        project_points(orbifold_data, z0, w0, max_iter=1)
    assert str(got.value) == str(want)


@pytest.mark.parametrize("tol", [1e-2, 1e-4, 1e-6])
def test_project_points_stop_where_the_reference_stops(tol, orbifold_data):
    """Coarse stopping residuals: one round more or less moves the point."""
    z0, w0 = _perturbed_starts(orbifold_data, 12, 6, noise=5e-2)
    batch = project_points(orbifold_data, z0, w0, tol=tol, tolerances=Tolerances(residual=tol))
    for p, z, w in zip(batch, z0, w0):
        zr, wr = reference_project(orbifold_data, z, w, tol=tol)
        assert np.allclose(p.z, zr, rtol=0, atol=1e-12) and np.allclose(p.w, wr, rtol=0, atol=1e-12)


def test_moment_residual_is_accepted_relative_to_the_moment_scale(orbifold_data):
    """z and w on disjoint supports make sum z_j w_j exactly 0, so only the
    moment residual |Phi - C| = 2e-12 (up to rounding) decides."""
    z, w = [1, 0, 0], [0, 1 + 1e-12, 0]
    for scale in (1, 10**6):
        d = cone_data([(scale * x, scale * y) for x, y in orbifold_data.a],
                      [(scale * x, scale * y) for x, y in orbifold_data.b])
        # a stopping residual of 1e-11 keeps the start
        p = project_to_level(d, z, w, tol=1e-11, tolerances=Tolerances(residual=1e-11))
        assert np.array_equal(p.w, w)
        assert p.residuals[0] == 0 and abs(p.residuals[1] - 2e-12 * scale) <= 1e-15 * scale
        with pytest.raises(ValueError, match="misses the level set"):
            project_to_level(d, z, w, tol=1e-11, tolerances=Tolerances(residual=1e-13))


def test_projection_rejects_a_point_missing_the_acceptance_tolerance(orbifold_data):
    z0, w0 = _perturbed_starts(orbifold_data, 3, 5)
    with pytest.raises(ValueError, match="misses the level set"):
        project_points(orbifold_data, z0, w0, tolerances=Tolerances(residual=1e-300))


# --- scale covariance ------------------------------------------------------------


@pytest.mark.parametrize("scale", [1, 10**3, 10**4, 10**6])
def test_sample_and_certificates_are_scale_covariant(scale, orbifold_data):
    a = [(scale * int(x), scale * int(y)) for x, y in orbifold_data.a]
    b = [(scale * int(x), scale * int(y)) for x, y in orbifold_data.b]
    d = cone_data(a, b)
    base = certification_sample(orbifold_data, 40, 2)
    points = certification_sample(d, 40, 2)
    for p, q in zip(base, points):
        assert np.allclose(p.z, q.z, rtol=0, atol=1e-9) and np.allclose(p.w, q.w, rtol=0, atol=1e-9)
    certs = certify_points(d, points)
    assert all(c.passed and (c.jacobian_rank, c.combined_rank) == (4, 10) for c in certs)


# --- rank-deficient Jacobians ------------------------------------------------------

# Every generator is a multiple of (1, 0): the second moment row of each
# Jacobian vanishes, so J has rank 3 everywhere and each Gauss-Newton round
# takes pinv's minimum-norm step.
COLLINEAR = '{"A": [[1,0],[2,0],[3,0]], "B": [[3,0],[2,0],[1,0]]}'


def test_collinear_data_certifies_irregular_points(capsys):
    assert main(["verify", "--config", COLLINEAR, "--samples", "12", "--seed", "1"]) == 1
    results = json.loads(capsys.readouterr().out)["results"]
    assert "error" not in results and results["all_passed"] is False
    certs = results["certificates"]
    assert len(certs) == 12
    assert all(
        (c["regular"], c["jacobian_rank"], c["pass"]) == (False, 3, False) for c in certs
    )


def test_collinear_projection_matches_reference(monkeypatch):
    config = json.loads(COLLINEAR)
    d = cone_data(config["A"], config["B"])
    z0, w0 = _perturbed_starts(d, 20, 9)
    pinv_calls = []
    real = np.linalg.pinv

    def counted(a, *args, **kwargs):
        pinv_calls.append(len(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "pinv", counted)
    batch = project_points(d, z0, w0)
    assert pinv_calls
    for p, z, w in zip(batch, z0, w0):
        zr, wr = reference_project(d, z, w)
        assert np.allclose(p.z, zr, rtol=0, atol=1e-12) and np.allclose(p.w, wr, rtol=0, atol=1e-12)
