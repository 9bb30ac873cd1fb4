"""The batched certification kernel against the one-point oracles.

``reference_certify`` is the one-point J_N oracle (one SVD, a second SVD
plus ``lstsq``, per-point operator norms and ``eigvalsh``): the
construction that the README's proposition proves exact at every regular
point of the level set, computed in floats. It is the proposition's
numerical check, and its margin is the oracle of :func:`certify_points`'
margin. The oracle of the Jacobian rank is :func:`support_rank`, the
regularity lemma's support test on the exact generators.
``reference_project`` is the one-point Gauss-Newton projection with
``lstsq`` steps, the oracle of :func:`project_to_level`.
"""

import json
import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import mpmath
import numpy as np
import pytest
from conftest import (
    J12,
    OMEGA12,
    admissible_systems,
    basis_change,
    c2r,
    constraint_jacobian,
    seed_point,
    transverse_frame,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from test_bench_goldens import workloads
from test_cli import THIN_SYSTEM

from su3kahler import cli, conegeom, quadric
from su3kahler.cli import main
from su3kahler.quadric import (
    ROUND_DATA,
    LevelSample,
    LevelSetPoint,
    certification_sample,
    certify_point,
    certify_points,
    constraint_values,
    moment_map,
    moment_scale,
    project_to_level,
)
from su3kahler.weights import cone_condition_holds, cone_data, derive

# The oracle's pass rule: each operator error at most OPERATOR_TOL, and
# exactly 2 eigenvalues of omega(J_N -, -) within ZERO_TOL of 0 and 6 at
# least POS_TOL times the largest.
OPERATOR_TOL, ZERO_TOL, POS_TOL = 1e-8, 1e-8, 1e-6
# The proposition makes the spectrum exactly (0, 0, 1, 1, 1, 1, 1, 1) at a
# regular point of M; on the samples checked here the float spectrum is
# within 2.5e-15 of it.
SPECTRUM_BOUND = 1e-13
EXACT_SPECTRUM = (0.0,) * 2 + (1.0,) * 6


class Reference(NamedTuple):
    regular: bool
    transversal: bool
    jacobian_rank: int
    combined_rank: int
    regularity_margin: float
    jn_square_error: float
    jn_xy_error: float
    omega_compat_error: float
    spectrum: tuple
    passed: bool


def support_rank(d, x):
    """The Jacobian rank at a point x = (z, w) of the quadric by the
    README's regularity lemma, in exact arithmetic on d's generators: 2
    for a nonempty support, plus the rank of the span of the generators
    g with x_g != 0, read from their crosses."""
    gens = [g for g, v in zip((*d.a, *d.b), x) if v != 0]
    if not gens:
        return 0
    if any(g[0] * h[1] - g[1] * h[0] for g in gens for h in gens):
        return 4
    return 3 if any(any(g) for g in gens) else 2


def reference_certify(d, p, combined_cutoff=1e-9):
    """Every J_N field of one point: the Jacobian's rank (by
    :func:`support_rank`) and margin (by an SVD); the rank of [Q | Z W],
    counting the singular values above ``combined_cutoff`` times the
    largest; J_N from ``lstsq``; |J_N^2 + 1|, |J_N X - Y| + |J_N Y + X|
    and omega compatibility; the spectrum of omega(J_N -, -). A rank
    failure ends the checks."""
    scale = moment_scale(d)  # the moment rows and the frame on the unit data, as certify_points reads them
    jac = constraint_jacobian(d, p.z, p.w) / np.array([1.0, 1.0, scale, scale])[:, None]
    _, s, vt = np.linalg.svd(jac)
    smax = s[0] if s[0] > 0 else 1.0
    jac_rank = support_rank(d, np.concatenate([p.z, p.w]))
    margin = float(s[3] / smax)
    if jac_rank < 4:
        return Reference(False, False, jac_rank, 0, margin, np.inf, np.inf, np.inf, (), False)
    q = vt[4:].T
    x6, y6, z6, w6 = (v / scale for v in transverse_frame(d, p))
    xr, yr = c2r(x6), c2r(y6)
    span = np.column_stack([q, c2r(z6), c2r(w6)])
    s2 = np.linalg.svd(span, compute_uv=False)
    combined_rank = int(np.sum(s2 > combined_cutoff * s2[0]))
    if combined_rank != 10:
        return Reference(True, False, jac_rank, combined_rank, margin, np.inf, np.inf, np.inf, (), False)
    coords, *_ = np.linalg.lstsq(span, J12 @ q, rcond=None)
    k = coords[:8, :]
    jn_square_error = float(np.linalg.norm(k @ k + np.eye(8), 2))
    xi, eta = q.T @ xr, q.T @ yr
    jn_xy_error = float(np.linalg.norm(q @ (k @ xi) - yr) + np.linalg.norm(q @ (k @ eta) + xr))
    omega_n = q.T @ OMEGA12 @ q
    omega_compat_error = float(np.linalg.norm(k.T @ omega_n @ k - omega_n, 2))
    qform = k.T @ omega_n
    spectrum = np.linalg.eigvalsh(0.5 * (qform + qform.T))
    passed = (
        max(jn_square_error, jn_xy_error, omega_compat_error) <= OPERATOR_TOL
        and int(np.sum(np.abs(spectrum) <= ZERO_TOL)) == 2
        and int(np.sum(spectrum >= POS_TOL * spectrum[-1])) == 6
    )
    return Reference(
        True, True, jac_rank, combined_rank, margin, jn_square_error, jn_xy_error,
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


def assert_same_regularity(batch, reference):
    """certify_points reads regularity, the Jacobian rank and the margin
    as the oracle does."""
    assert len(batch) == len(reference)
    for got, want in zip(batch, reference):
        assert (got.regular, got.jacobian_rank) == (want.regular, want.jacobian_rank)
        assert abs(got.regularity_margin - want.regularity_margin) <= 1e-12


def assert_proposition_holds(d, points):
    """The proposition, checked by the oracle at every point of M given:
    each point is regular and passes every J_N check, its spectrum is
    within ``SPECTRUM_BOUND`` of (0, 0, 1^6), and certify_points gives
    the oracle's regularity, ranks and verdict."""
    certs = certify_points(d, points)
    reference = [reference_certify(d, p) for p in points]
    assert_same_regularity(certs, reference)
    for got, want in zip(certs, reference):
        assert want.passed and want.transversal
        assert (got.combined_rank, got.passed) == (want.combined_rank, want.passed)
        assert max(abs(x - y) for x, y in zip(want.spectrum, EXACT_SPECTRUM)) <= SPECTRUM_BOUND


def _onto_quadric(z, w):
    """w moved onto the hyperplane sum z_j w_j = 0, orthogonally:
    w - (sum z_j w_j / |z|^2) conj(z), or w itself for z = 0. The
    residual |sum z_j w_j| left is of rounding size, and a zero w_j stays
    zero where z_j is zero."""
    zz = np.vdot(z, z).real
    return w if zz == 0 else w - (z @ w) / zz * np.conj(z)


def _quadric_points(rng, n, spread):
    """Points of the quadric sum z_j w_j = 0 off the level set Phi = C, z
    spread over 10^-spread to 10^spread. Certificates read z and w
    alone."""
    out = []
    for _ in range(n):
        s = 10.0 ** rng.uniform(-spread, spread)
        z = s * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
        w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        out.append(LevelSetPoint(z, _onto_quadric(z, w), (0.0, 0.0)))
    return out


# --- certificates --------------------------------------------------------------


def test_batch_matches_reference_on_bound2_systems(bound2_systems):
    for ws in bound2_systems[::97]:
        d = derive(ws)
        assert_proposition_holds(d, certification_sample(d, 12, 0))


@pytest.mark.parametrize("name", ["orbifold", "round"])
def test_batch_matches_reference_on_samples(name, orbifold_data):
    d = orbifold_data if name == "orbifold" else ROUND_DATA
    assert_proposition_holds(d, certification_sample(d, 60, 3))


def test_batch_matches_reference_under_basis_change(orbifold_data):
    """The cone data in another rational torus basis cut out the same level
    set, so the orbifold sample certifies against the moved data."""
    points = certification_sample(orbifold_data, 30, 1)
    f = Fraction
    for m in (((f(1, 2), 3), (1, f(-2, 3))), ((f(7, 3), f(1, 5)), (f(-1, 4), 1)), ((2, 1), (1, 1))):
        assert_proposition_holds(basis_change(m, orbifold_data), points)


def test_mixed_batch_with_irregular_and_non_transversal_points():
    """Points of the quadric off the level set, where the proposition says
    nothing: the closed form still reads the margin as the oracle's SVD
    does, since the Gram lemma needs q = 0 alone, and the rank as the
    support test does. Data of moment scale exactly 1, so the oracle
    factors the very matrices whose Gram matrix the closed form reads. A
    coarse cutoff on the oracle's combined rank makes some regular points
    non-transversal for it; z = (2, 0, 0), w = 0 is irregular (both moment
    rows are A_1 = (1/2, 1/2))."""
    h = Fraction(1, 2)
    d = cone_data([(h, h), (h, -h), (h, 0)], [(h, -h), (h, h), (h, 0)])
    assert moment_scale(d) == 1.0
    rng = np.random.default_rng(0)
    points = _quadric_points(rng, 30, 2)
    for k in (0, 7, 19):
        points.insert(k, LevelSetPoint(np.array([2.0 + 0j, 0, 0]), np.zeros(3, complex), (0, 0)))
    want = [reference_certify(d, p, combined_cutoff=1e-2) for p in points]
    kinds = {(c.regular, c.transversal) for c in want}
    assert kinds == {(False, False), (True, False), (True, True)}
    with np.errstate(all="raise"):
        assert_same_regularity(certify_points(d, points), want)


def test_verify_converts_its_cone_data_once(monkeypatch, capsys):
    """The range check, the sample's vertices and the certificates of one
    verify share one float conversion."""
    conversions = []
    convert = quadric._float_data

    def counted(d):
        conversions.append(d)
        return convert(d)

    monkeypatch.setattr(quadric, "_float_data", counted)
    for config in ('{"A": [[1,0],[1,0],[2,-1]], "B": [[0,1],[0,1],[-1,2]]}',
                   '{"A": [[1,0],[1,0],[1,0]], "B": [[0,1],[0,1],[0,1]]}'):
        conversions.clear()
        assert main(["verify", "--config", config, "--samples", "20"]) == 0
        assert len(conversions) == 1
    capsys.readouterr()


def test_float_intake_rounds_the_fraction_views(bound2_systems):
    """The seeds (the lift of the one conversion's fixed-point vertices)
    are the Fraction views of the mixed witnesses converted by float(), bit
    for bit: on bound-2 systems, on the same data times 2/7 (whose sign
    table clears a denominator), and on data with dependent generators or
    without an apex functional."""
    data = [ROUND_DATA, cone_data([(0, 0)] * 3, [(0, 0)] * 3), cone_data([(3, 0)] * 3, [(3, 0)] * 3)]
    for ws in bound2_systems[::97]:
        d = derive(ws)
        data += [d, cone_data(*([[Fraction(2, 7) * x for x in v] for v in side] for side in (d.a, d.b)))]
    for d in data:
        fd = quadric._float_data(d)
        seeds = np.zeros((len(d.mixed_witnesses), 6), dtype=complex)
        for row, (i, j, a, b) in zip(seeds, d.mixed_witnesses):
            row[i - 1], row[j + 2] = np.sqrt(float(a)), np.sqrt(float(b))
        assert quadric._lift(fd.vertices[:-3]).tobytes() == seeds.tobytes()


def test_dependent_fields_data_in_a_batch():
    d = cone_data([(1, 0)] * 3, [(1, 0)] * 3)
    points = [project_to_level(d, z, w) for z, w in (([1, 0, 0], [0, 1, 0]), ([0, 1, 0], [0, 0, 1]))]
    certs = certify_points(d, points)
    assert_same_regularity(certs, [reference_certify(d, p) for p in points])
    assert not any(c.regular or c.passed for c in certs)


def test_all_degenerate_batch_sends_no_nan_to_lapack(monkeypatch):
    """Zero cone data: every Jacobian has rank 2. The closed form makes no
    factorization at all, and no floating-point exception: its lambda_+
    and lambda_- are 0 on every point of the quadric."""
    seen = []
    for name in ("svd", "eigvalsh", "pinv", "lstsq"):
        real = getattr(np.linalg, name)

        def checked(a, *args, _real=real, _name=name, **kwargs):
            assert np.all(np.isfinite(a)), _name
            seen.append(_name)
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, checked)
    d = cone_data([(0, 0)] * 3, [(0, 0)] * 3)
    points = _quadric_points(np.random.default_rng(1), 6, 1)
    with np.errstate(all="raise"):
        certs = certify_points(d, points)
    assert seen == []
    assert [(c.regular, c.jacobian_rank, c.passed) for c in certs] == [(False, 2, False)] * 6
    assert [c.regularity_margin for c in certs] == [0.0] * 6
    assert certify_points(d, []) == []


# The orbifold data as a verify config.
ORBIFOLD_CONFIG = '{"A": [[1,0],[1,0],[2,-1]], "B": [[0,1],[0,1],[-1,2]]}'

# Every LAPACK call of one 50-sample verify of the orbifold data (seed 0),
# as (name, array shape, mode or compute_uv): none. The sample is built in
# closed form, and the certificates read the Gram lemma's closed form.
VERIFY_50_LAPACK_CALLS = []


def test_certify_path_keeps_its_factorization_budget(monkeypatch, capsys, orbifold_data):
    """verify's sample makes no projection, no factorization and no
    SeedSequence child: one SeedSequence(seed) when it draws, none for a
    sample of seeds. The certificates build no Jacobian and make no
    factorization, and one 50-sample verify makes exactly the LAPACK
    calls of ``VERIFY_50_LAPACK_CALLS``."""
    seen = []
    for name in ("svd", "pinv", "qr", "solve", "eigvalsh", "eigh", "lstsq", "inv", "det"):
        real = getattr(np.linalg, name)

        def recorded(a, *args, _real=real, _name=name, **kwargs):
            seen.append((_name, np.shape(a), kwargs.get("mode", kwargs.get("compute_uv"))))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    sequences, spawned = [], []

    class RecordedSeedSequence(np.random.SeedSequence):
        def __init__(self, *args, **kwargs):
            sequences.append(args)
            super().__init__(*args, **kwargs)

        def spawn(self, n_children):
            spawned.append(n_children)
            return super().spawn(n_children)

    monkeypatch.setattr(np.random, "SeedSequence", RecordedSeedSequence)

    def refuse(*args, **kwargs):
        raise AssertionError("a projection on the certify path")

    def no_jacobian(*args, **kwargs):
        raise AssertionError("a Jacobian on the certify path")

    monkeypatch.setattr(quadric, "project_to_level", refuse)
    monkeypatch.setattr(quadric, "_jacobian", no_jacobian)
    m = len(orbifold_data.mixed_witnesses)
    for n in (1, m):
        certification_sample(orbifold_data, n, 4)
    assert not sequences
    points = certification_sample(orbifold_data, 50, 4)
    assert sequences == [(4,)] and not spawned and not seen
    assert all(c.passed for c in certify_points(orbifold_data, points))
    assert seen == []
    assert main(["verify", "--config", ORBIFOLD_CONFIG, "--samples", "50", "--seed", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["all_passed"] is True
    assert seen == VERIFY_50_LAPACK_CALLS and not spawned


def test_verify_keeps_its_sample_as_one_state_array(monkeypatch, capsys):
    """One 50-sample verify of the orbifold data restacks no point and
    builds no object per point: the sample's (n, 6) rows (r, s) go to the
    certificates, and their columns to the report. The one certificate built is the
    template of the rank-4 text, made once per process."""
    built = Counter()

    def refuse(points):
        raise AssertionError("verify restacked its sample")

    monkeypatch.setattr(quadric, "_stack", refuse)
    for name in ("LevelSetPoint", "PointCertificate"):

        def counted(*args, _cls=getattr(quadric, name), _name=name, **kwargs):
            built[_name] += 1
            return _cls(*args, **kwargs)

        monkeypatch.setattr(quadric, name, counted)
    cli._certificate_format.cache_clear()
    assert main(["verify", "--config", ORBIFOLD_CONFIG, "--samples", "50", "--seed", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["all_passed"] is True
    assert built == {"PointCertificate": 1}


def test_verify_builds_no_complex_state(monkeypatch, capsys, bound2_systems):
    """verify certifies the orbit space: from the draw to the report no
    complex state is built. The lift, the restacking of points and the
    quadric residual of states are refused, on the orbifold and round
    data, the thin system and every 97th bound-2 system, with samples of
    fixed points alone and with drawn points."""

    def refuse(*args, **kwargs):
        raise AssertionError("a complex state on the verify path")

    for name in ("_lift", "_stack", "_quadric_residual"):
        monkeypatch.setattr(quadric, name, refuse)
    configs = [ORBIFOLD_CONFIG, '{"A": [[1,0],[1,0],[1,0]], "B": [[0,1],[0,1],[0,1]]}', THIN_SYSTEM]
    configs += [json.dumps(ws.to_json()) for ws in bound2_systems[::97]]
    for config in configs:
        for samples in ("5", "50"):
            assert main(["verify", "--config", config, "--samples", samples, "--seed", "3"]) == 0
            assert json.loads(capsys.readouterr().out)["results"]["all_passed"] is True


def test_verify_passes_exactly_under_the_cone_condition(monkeypatch, capsys):
    """The README's corollary (*Numerical certificates*): sampling always
    returns, and all_passed is cone_condition. On every 7th bound-2
    system, every 97th bound-3 system and every 5th failing config of the
    audit pool, at 10 samples, past the at most 6 fixed points, so that
    pulled mixtures are drawn on every config, the failing ones with no
    fixed point included; the apex search is refused, since compactness
    is check's exact fact and verify weighs no apex functional."""

    def refuse(*args, **kwargs):
        raise AssertionError("verify searched for an apex functional")

    monkeypatch.setattr(conegeom.SignTable, "apex", refuse)
    configs = [json.dumps(ws.to_json()) for ws in admissible_systems(2)[::7] + admissible_systems(3)[::97]]
    failing = workloads.load_golden("audit")["categories"]["failing"]["items"][::5]
    configs += [workloads.ws_config(item) for item in failing]
    seen = Counter()
    for config in configs:
        code = main(["verify", "--config", config, "--samples", "10"])
        results = json.loads(capsys.readouterr().out)["results"]
        assert "error" not in results and len(results["certificates"]) == 10, config
        assert results["all_passed"] is results["cone_condition"], config
        assert code == (0 if results["all_passed"] else 1), config
        seen[results["cone_condition"]] += 1
    assert seen[True] == 408 + 667 and seen[False] == len(failing)


def mixed_size_pool(seed, exponent, count):
    """count admissible cone data in the JSON form of a config: C and each
    A_j with entries uniform in [-10^k, 10^k], k uniform in 0..exponent
    for each vector, B_j = C - A_j, drawn from random.Random(seed) until
    the nine-sign rule holds."""
    rng = random.Random(seed)
    configs = []
    while len(configs) < count:
        c, *a = [[rng.randint(-(10**k), 10**k) for _ in range(2)] for k in [rng.randint(0, exponent) for _ in range(4)]]
        b = [[c[0] - x, c[1] - y] for x, y in a]
        if cone_condition_holds(cone_data(a, b)):
            configs.append(json.dumps({"A": a, "B": b}))
    return configs


# ROADMAP item 22 (c)'s N = 10^4 and N = 10^6 systems: thin slices, where
# few Dirichlet mixtures pass Heron's test.
LARGE_SYSTEMS = [
    ([(-3963, -4178), (-9994, -9889), (-59113, -67972)], [(11071, 13954), (17102, 19665), (66221, 77748)]),
    (
        [(110296, -269276), (421287, -886267), (3159091, -6235431)],
        [(-604848, 1190697), (-915839, 1807688), (-3653643, 7156852)],
    ),
]


@pytest.mark.parametrize("exponent", [3, 8, 12, 18, 30])
def test_verify_passes_on_admissible_data_of_mixed_entry_sizes(capsys, monkeypatch, exponent):
    """Every row passes within the README's bound of 1 + ceil(log2(16 V))
    Heron tests, V the largest vertex coordinate (the centroid
    proposition), so verify --samples 50 exits 0 on every system of a
    seeded admissible pool whose entries span up to 10^30, and on item
    22 (c)'s two systems."""
    rounds = []
    real = quadric._mixtures

    def counted(weights, vertices):
        rounds.append(len(weights))
        return real(weights, vertices)

    monkeypatch.setattr(quadric, "_mixtures", counted)
    configs = mixed_size_pool(2027 + exponent, exponent, 100)
    if exponent == 8:
        configs += [json.dumps({"A": a, "B": b}) for a, b in LARGE_SYSTEMS]
    for config in configs:
        rounds.clear()
        code = main(["verify", "--config", config, "--samples", "50", "--seed", "1"])
        results = json.loads(capsys.readouterr().out)["results"]
        assert code == 0 and results["all_passed"] and len(results["certificates"]) == 50, config
        top = float(quadric._weight_arrays(cli._problem(config)[1]).vertices.max())
        assert 0 < len(rounds) <= 1 + math.ceil(math.log2(16 * top)), config


# The benchmark's pool of verify triples (config, samples, seed).
CERTIFY_POOL = Path(__file__).resolve().parent.parent / "perfbench" / "golden" / "certify.json"


def test_lifted_pool_samples_meet_the_residuals_and_verify_s_certificates(capsys):
    """On every 7th triple of the certify pool, the states lifted over the
    sample's (r, s) lie on the level set to tol = 1e-9:
    |sum z_j w_j| <= tol and |Phi(|x|^2) - C| <= tol * moment_scale. Their
    certificates, read from |x|^2, have verify's ranks, and margins within
    1e-15 relative of verify's."""
    triples = [t for pool in json.loads(CERTIFY_POOL.read_text())["categories"].values() for t in pool][::7]
    assert len(triples) == 257
    tol = 1e-9
    for config, samples, seed in triples:
        assert main(["verify", "--config", config, "--samples", str(samples), "--seed", str(seed)]) == 0
        printed = json.loads(capsys.readouterr().out)["results"]["certificates"]
        d = cli._problem(config)[1]
        x = certification_sample(d, samples, seed).states
        assert np.all(np.abs((x[:, :3] * x[:, 3:]).sum(axis=1)) <= tol), config
        residual = np.linalg.norm(moment_map(d, (x[:, :3], x[:, 3:])) - np.array(d.c, dtype=float), axis=1)
        assert np.all(residual <= tol * moment_scale(d)), config
        lifted = certify_points(d, [LevelSetPoint(row[:3], row[3:], (0.0, 0.0)) for row in x])
        assert [c.jacobian_rank for c in lifted] == [c["jacobian_rank"] for c in printed], config
        for c, want in zip(lifted, printed):
            assert abs(c.regularity_margin - want["regularity_margin"]) <= 1e-15 * want["regularity_margin"], config


def test_verify_reports_the_margins_of_certify_points(capsys, bound2_systems):
    """verify's certificates are certify_points' on certification_sample,
    float for float: on the orbifold and round data, the thin system and
    every 97th bound-2 system."""
    configs = [(ORBIFOLD_CONFIG, 0), ('{"A": [[1,0],[1,0],[1,0]], "B": [[0,1],[0,1],[0,1]]}', 3), (THIN_SYSTEM, 12)]
    configs += [(json.dumps(ws.to_json()), k) for k, ws in enumerate(bound2_systems[::97])]
    for config, seed in configs:
        assert main(["verify", "--config", config, "--samples", "50", "--seed", str(seed)]) == 0
        certificates = json.loads(capsys.readouterr().out)["results"]["certificates"]
        got = [(c["jacobian_rank"], c["regularity_margin"]) for c in certificates]
        d = cli._problem(config)[1]
        want = [(c.jacobian_rank, c.regularity_margin) for c in certify_points(d, certification_sample(d, 50, seed))]
        assert got == want, config


def test_an_empty_sample_certifies_nothing(orbifold_data):
    """No points, no certificates: from a list or from an empty slice of a
    sample."""
    sample = certification_sample(orbifold_data, 5, 0)
    for empty in ([], sample[:0]):
        assert certify_points(orbifold_data, empty) == []


def assert_same_certificates_to_rounding(got, want):
    """The same Jacobian ranks, and margins within 1e-15 relative: the
    certificates of lifted states read |x|^2, which differs from the
    sample's (r, s) by rounding."""
    assert [c.jacobian_rank for c in got] == [c.jacobian_rank for c in want]
    for a, b in zip(got, want):
        assert abs(a.regularity_margin - b.regularity_margin) <= 1e-15 * b.regularity_margin


def test_a_sample_reads_as_its_points(orbifold_data):
    """A sample's rows read as LevelSetPoints, views of its state array
    with the residuals it was accepted with, and a slice is the sample of
    its rows; a list of those points certifies as the sample does, to
    rounding, since it reads |x|^2 of the lifted states where the sample
    reads its (r, s)."""
    sample = certification_sample(orbifold_data, 20, 5)
    assert isinstance(sample, LevelSample) and sample.states.shape == (20, 6) and len(sample) == 20
    points = list(sample)
    for k, p in enumerate(points):
        assert np.shares_memory(p.z, sample.states) and np.array_equal(np.concatenate([p.z, p.w]), sample.states[k])
        assert max(p.residuals) <= 1e-12
    part = sample[3:11]
    assert isinstance(part, LevelSample) and np.array_equal(part.states, sample.states[3:11])
    assert [p.residuals for p in part] == [p.residuals for p in points[3:11]]
    assert_same_certificates_to_rounding(certify_points(orbifold_data, points), certify_points(orbifold_data, sample))


def test_a_sample_row_lifts_that_row_alone(monkeypatch, orbifold_data):
    """sample[k] lifts row k alone while the states are unread, with the
    bytes of row k of the whole lift, since the lift works row by row;
    indices follow a list's rules. Iterating lifts the whole sample once,
    and its points are views of the states."""
    sample = certification_sample(orbifold_data, 50, 2)
    whole = quadric._lift(sample._rho)
    lifted = []
    lift = quadric._lift

    def counted(rho):
        lifted.append(len(rho))
        return lift(rho)

    monkeypatch.setattr(quadric, "_lift", counted)
    for k in (0, 17, 49, -1, -50):
        p = sample[k]
        assert np.concatenate([p.z, p.w]).tobytes() == whole[k].tobytes()
        assert p.residuals[1] == sample._mom[k]
    for k in (50, -51):
        with pytest.raises(IndexError):
            sample[k]
    assert lifted == [1] * 5 and sample._states is None
    points = list(sample)
    assert lifted == [1] * 5 + [50] and all(np.shares_memory(p.z, sample.states) for p in points)
    assert sample.states.tobytes() == whole.tobytes()


def test_single_point_is_a_batch_of_one(orbifold_data):
    p = seed_point(orbifold_data, 2, 3)
    assert certify_point(orbifold_data, p) == certify_points(orbifold_data, [p])[0]


def test_a_prefix_of_a_sample_certifies_as_its_rows(orbifold_data):
    """Each certificate depends on its own point alone, bit for bit: the
    first k points of a sample, as a slice, certify as the first k
    certificates of the whole. As a list of lifted points they certify
    as the first k of the same list of the whole, bit for bit, and as the
    sample's to rounding."""
    sample = certification_sample(orbifold_data, 60, 7)
    whole = certify_points(orbifold_data, sample)
    listed = certify_points(orbifold_data, list(sample))
    assert_same_certificates_to_rounding(listed, whole)
    for k in (1, 2, 7, 33):
        assert certify_points(orbifold_data, sample[:k]) == whole[:k]
        assert certify_points(orbifold_data, list(sample[:k])) == listed[:k]


def test_a_point_off_the_quadric_is_refused(orbifold_data):
    """Off the quadric the Gram matrix is not block diagonal, so the
    closed form would be wrong there: the lowest point with
    |sum z_j w_j| > tol, or not a number, raises ValueError."""
    points = list(certification_sample(orbifold_data, 8, 0))
    off = LevelSetPoint(np.array([1.0 + 0j, 0, 0]), np.array([1e-6 + 0j, 0, 0]), (0.0, 0.0))
    nan = LevelSetPoint(np.array([np.nan + 0j, 0, 0]), np.zeros(3, complex), (0.0, 0.0))
    with pytest.raises(ValueError, match=r"^point 3 is off the quadric: \|sum z_j w_j\| = 1e-06 > 1e-09$"):
        certify_points(orbifold_data, [*points[:3], off, nan])
    with pytest.raises(ValueError, match="^point 0 is off the quadric"):
        certify_points(orbifold_data, [nan])
    assert certify_points(orbifold_data, [off], 1e-5)[0].regular


def test_a_point_of_huge_modulus_certifies_without_overflow(orbifold_data):
    """Certificates are invariant under x -> t x, and each listed point is
    scaled by a power of two before it is squared: z = (1e200, 0, 0),
    w = 0 (a point of the quadric with one generator in its support)
    certifies as rank 3 with margin 0.0 and no floating-point exception,
    and 2^k times a fixed point (exactly on the quadric for every k)
    certifies as the fixed point does, bit for bit, up to 2^1000."""
    huge = LevelSetPoint(np.array([1e200 + 0j, 0, 0]), np.zeros(3, complex), (0.0, 0.0))
    with np.errstate(all="raise"):
        cert = certify_points(ROUND_DATA, [huge])[0]
    assert (cert.jacobian_rank, cert.regularity_margin, cert.regular) == (3, 0.0, False)
    seeds = list(certification_sample(orbifold_data, 6, 0))
    want = certify_points(orbifold_data, seeds)
    for k in (-500, -40, 90, 600, 1000):
        scaled = [LevelSetPoint(np.ldexp(1.0, k) * p.z, np.ldexp(1.0, k) * p.w, (0.0, 0.0)) for p in seeds]
        with np.errstate(all="raise"):
            assert certify_points(orbifold_data, scaled) == want, k


def test_the_rank_is_exact_where_the_unit_cross_squares_underflow():
    """A_j = (M, M + 1) and B_j = (M + 1, M + 2) for M = 2^300: the unit
    cross of A_1 and B_2 is -1 over a moment scale above 2^300, and its
    square underflows to 0, so det G and the margin read 0.0. The point
    z = (1, 0, 0), w = (0, 1, 0) has the support {A_1, B_2}, which spans
    R^2, and certifies as rank 4 by the regularity lemma; a cutoff on the
    singular values read 3 there. The margin is not asserted."""
    m = 2**300
    d = cone_data([(m, m + 1)] * 3, [(m + 1, m + 2)] * 3)
    p = LevelSetPoint(np.array([1.0 + 0j, 0, 0]), np.array([0, 1.0 + 0j, 0]), (0.0, 0.0))
    with np.errstate(all="raise"):
        cert = certify_points(d, [p])[0]
    assert cert.jacobian_rank == support_rank(d, np.concatenate([p.z, p.w])) == 4 and cert.regular


def test_a_slice_lifts_nothing_until_its_states_are_read(monkeypatch, orbifold_data):
    """A slice of a sample whose states were never read is lazy too: it
    calls no lift until its own states are read, and then lifts its own
    rows alone, bit for bit the same rows of the whole sample's states;
    once those are read, a slice is a view of them."""
    sample = certification_sample(orbifold_data, 50, 2)
    whole, lift, lifted = quadric._lift(sample._rho), quadric._lift, []
    monkeypatch.setattr(quadric, "_lift", lambda rho: lifted.append(len(rho)) or lift(rho))
    slices = (slice(0, 0), slice(0, 1), slice(0, 7), slice(5, 33), slice(1, 50, 3))
    parts = [sample[k] for k in slices]
    assert lifted == []
    for k, part in zip(slices, parts):
        assert part.states.tobytes() == whole[k].tobytes() and lifted == [len(part)], k
        lifted.clear()
    assert sample.states.tobytes() == whole.tobytes() and lifted == [50]
    assert np.shares_memory(sample[5:33].states, sample.states) and lifted == [50]


def _mp_margin(d, p):
    """sigma_min/sigma_max of the Jacobian at p on the exact data divided
    by the float moment scale, at 50 digits: the square roots of the
    eigenvalues of J J^T, J's rows the gradients of Re q, Im q, Phi_1 and
    Phi_2 as complex 6-vectors under <u, v> = Re sum u_k conj(v_k). Every
    float of p and of the scale is read exactly."""
    scale = Fraction(moment_scale(d))
    with mpmath.workdps(50):
        gens = [[mpmath.mpf(f.numerator) / f.denominator for f in (Fraction(x) / scale, Fraction(y) / scale)]
                for x, y in (*d.a, *d.b)]
        x = [mpmath.mpc(v.real, v.imag) for v in (*p.z, *p.w)]
        n = [mpmath.conj(v) for v in (*x[3:], *x[:3])]
        rows = [n, [1j * v for v in n]] + [[2 * g[a] * v for g, v in zip(gens, x)] for a in (0, 1)]
        gram = mpmath.matrix([[sum(mpmath.re(u * mpmath.conj(v)) for u, v in zip(r, c)) for c in rows] for r in rows])
        ev = mpmath.eigsy(gram, eigvals_only=True)
        top = max(ev)
        return float(mpmath.sqrt(max(min(ev), 0) / top)) if top > 0 else 0.0


def _near(u, k):
    """k u plus a unit perturbation: nearly parallel to u for large k."""
    return st.tuples(st.integers(-1, 1), st.integers(-1, 1)).map(lambda e: (k * u[0] + e[0], k * u[1] + e[1]))


# A Gaussian integer of small norm; products of a few of them are exact.
_GAUSSIAN = st.builds(complex, st.integers(-6, 6), st.integers(-6, 6))


@st.composite
def _quadric_batch(draw):
    """Integer cone data with entries at most 1000, A_1, A_2, A_3 and B_1
    free or nearly parallel to a common u, and C = A_1 + B_1, so
    B_j = C - A_j; then 1 to 8 points of the quadric, with zero
    coordinates among them. A point is z and w = z x v (the complex cross
    product, so sum z_j w_j = det(z, z, v) = 0) for Gaussian integer z and
    v, each scaled by a power of two: every product is exact, so
    sum z_j w_j is exactly 0 in floats, and the oracle reads a point of
    the quadric, not one off it by rounding."""
    u = draw(st.tuples(st.integers(-20, 20), st.integers(-20, 20)))
    free = st.tuples(st.integers(-333, 333), st.integers(-333, 333))
    vec = st.one_of(free, st.integers(1, 16).flatmap(lambda k: _near(u, k)))
    a1, a2, a3, b1 = (draw(vec) for _ in range(4))
    c = (a1[0] + b1[0], a1[1] + b1[1])
    d = cone_data([a1, a2, a3], [b1, *((c[0] - v[0], c[1] - v[1]) for v in (a2, a3))])
    points = []
    for _ in range(draw(st.integers(1, 8))):
        z, v = (np.array([draw(_GAUSSIAN) for _ in range(3)]) for _ in range(2))
        w = np.array([z[1] * v[2] - z[2] * v[1], z[2] * v[0] - z[0] * v[2], z[0] * v[1] - z[1] * v[0]])
        sz, sw = (2.0 ** draw(st.integers(-10, 10)) for _ in range(2))
        points.append(LevelSetPoint(sz * z, sw * w, (0.0, 0.0)))
    return d, points


@settings(max_examples=150, deadline=None)
@given(_quadric_batch())
def test_closed_form_matches_the_svd_and_a_50_digit_oracle(batch):
    """On random points of the quadric over random integer data, nearly
    parallel generators and zero coordinates included, the closed-form
    certificates give the exact ranks of :func:`support_rank`, margins
    within 1e-12 of those of an SVD of the 4 x 12 Jacobians
    (``quadric._jacobian`` on the unit data), and margins within 1e-13 relative of the 50-digit oracle
    :func:`_mp_margin`; and a margin of exactly 0 where the point's
    support spans a line and the oracle's is below 1e-12."""
    d, points = batch
    certs = certify_points(d, points)
    x = np.array([np.concatenate([p.z, p.w]) for p in points])
    fd = quadric._weight_arrays(d)
    s = np.linalg.svd(quadric._jacobian(fd.fg / fd.scale, x), compute_uv=False)
    smax = np.where(s[:, 0] > 0, s[:, 0], 1.0)
    assert [c.jacobian_rank for c in certs] == [support_rank(d, row) for row in x]
    for cert, svd_margin, p in zip(certs, s[:, 3] / smax, points):
        assert abs(cert.regularity_margin - svd_margin) <= 1e-12
        want = _mp_margin(d, p)
        if want > 1e-12:
            assert abs(cert.regularity_margin - want) <= 1e-13 * want, (cert.regularity_margin, want)
        else:
            assert cert.regularity_margin == 0.0, (cert.regularity_margin, want)


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
    """project_to_level on perturbed fixed points lands where the sequential
    lstsq reference does."""
    d = orbifold_data if name == "orbifold" else ROUND_DATA
    for z0, w0 in zip(*_perturbed_starts(d, 25, 4)):
        p = project_to_level(d, z0, w0)
        z, w = reference_project(d, z0, w0)
        assert np.allclose(p.z, z, rtol=0, atol=1e-12) and np.allclose(p.w, w, rtol=0, atol=1e-12)
        assert max(p.residuals) <= 1e-11


@pytest.mark.parametrize("tol", [1e-2, 1e-4, 1e-6])
def test_project_points_stop_where_the_reference_stops(tol, orbifold_data):
    """Coarse stopping residuals: one round more or less moves the point."""
    for z, w in zip(*_perturbed_starts(orbifold_data, 12, 6, noise=5e-2)):
        p = project_to_level(orbifold_data, z, w, tol=tol)
        zr, wr = reference_project(orbifold_data, z, w, tol=tol)
        assert np.allclose(p.z, zr, rtol=0, atol=1e-12) and np.allclose(p.w, wr, rtol=0, atol=1e-12)


def test_projection_evaluates_the_constraints_once_per_round(monkeypatch, orbifold_data):
    """Each round of project_to_level reads F through the module-level
    constraint_values, which the benchmark's tracer wraps to report
    quadric.project_to_level.iterations: a projection that converges makes
    one call per step plus the last, and one that does not converge makes
    max_iter calls."""
    evals, steps = [], []
    real_values, real_lstsq = quadric.constraint_values, np.linalg.lstsq

    def counted_values(*args):
        evals.append(1)
        return real_values(*args)

    def counted_lstsq(*args, **kwargs):
        steps.append(1)
        return real_lstsq(*args, **kwargs)

    monkeypatch.setattr(quadric, "constraint_values", counted_values)
    monkeypatch.setattr(np.linalg, "lstsq", counted_lstsq)
    exact = seed_point(orbifold_data, 1, 2)
    project_to_level(orbifold_data, exact.z, exact.w)
    assert (len(evals), len(steps)) == (1, 0)
    for z, w in zip(*_perturbed_starts(orbifold_data, 6, 2)):
        evals.clear()
        steps.clear()
        project_to_level(orbifold_data, z, w)
        assert len(evals) == len(steps) + 1 and len(steps) >= 2
    for max_iter in (1, 2):
        evals.clear()
        steps.clear()
        with pytest.raises(RuntimeError, match=f"^no convergence to 1e-12 within {max_iter} iterations$"):
            project_to_level(orbifold_data, exact.z + 0.05, exact.w + 0.05, max_iter=max_iter)
        assert len(evals) == len(steps) == max_iter


def test_moment_residual_is_accepted_relative_to_the_moment_scale(orbifold_data):
    """z and w on disjoint supports make sum z_j w_j exactly 0, so only the
    moment residual |Phi - C| = 2e-12 (up to rounding), divided by the
    moment scale, meets the convergence test, which is the projection's
    acceptance: at tol 1e-11 the start comes back with that residual, at
    any scale; at tol 1e-13 the projection steps, and its point meets
    1e-13 instead."""
    z, w = [1, 0, 0], [0, 1 + 1e-12, 0]
    for scale in (1, 10**6):
        d = cone_data([(scale * x, scale * y) for x, y in orbifold_data.a],
                      [(scale * x, scale * y) for x, y in orbifold_data.b])
        p = project_to_level(d, z, w, tol=1e-11)
        assert np.array_equal(p.w, w)
        assert p.residuals[0] == 0 and abs(p.residuals[1] - 2e-12 * scale) <= 1e-15 * scale
        q = project_to_level(d, z, w, tol=1e-13)
        assert not np.array_equal(q.w, w)
        assert q.residuals[0] <= 1e-13 and q.residuals[1] <= 1e-13 * scale


def test_projection_rejects_a_point_missing_the_acceptance_tolerance(orbifold_data):
    """A projection is accepted by its convergence test alone, so a point
    that misses tol after max_iter rounds is refused with RuntimeError, not
    returned: no perturbed start reaches |F| <= 1e-300."""
    z0, w0 = _perturbed_starts(orbifold_data, 1, 5)
    with pytest.raises(RuntimeError, match="^no convergence to 1e-300 within 50 iterations$"):
        project_to_level(orbifold_data, z0[0], w0[0], tol=1e-300)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(1, np.inf), complex(np.nan, 0)], ids=repr)
@pytest.mark.parametrize("row", [0, 1])
def test_projection_rejects_a_non_finite_start(bad, row, orbifold_data):
    """A start holding an infinity or a NaN, in z or in w, ends in the
    documented ValueError, not in a numpy warning (an error in this suite)
    from the factorizations; a finite zero start keeps its own error."""
    z0, w0 = (v[0] for v in _perturbed_starts(orbifold_data, 1, 5))
    (z0 if row == 0 else w0)[2] = bad
    with pytest.raises(ValueError, match="^starting point must be finite$"):
        project_to_level(orbifold_data, z0, w0)
    z0[:] = w0[:] = 0
    with pytest.raises(ValueError, match="^starting point must have nonzero z and w$"):
        project_to_level(orbifold_data, z0, w0)


def test_usable_rows_are_the_nonzero_rows_among_finite_ones():
    """On finite rows the start test is the nonzero-factor test bit for bit;
    a row holding an infinity or a NaN fails it."""
    rng = np.random.default_rng(3)
    x = rng.standard_normal((400, 6)) + 1j * rng.standard_normal((400, 6))
    x[rng.random((400, 6)) < 0.4] = 0
    x[rng.random((400, 6)) < 0.1] *= 1e-9
    nonzero = (np.abs(x[:, :3]).max(axis=1) > 1e-8) & (np.abs(x[:, 3:]).max(axis=1) > 1e-8)
    assert np.array_equal(quadric._usable(x), nonzero) and 0 < nonzero.sum() < len(x)
    for bad in (np.inf, -np.inf, np.nan):
        y = x.copy()
        y[np.arange(400), np.arange(400) % 6] = bad
        assert not quadric._usable(y).any()


@pytest.mark.parametrize("n", [10**16, 10**30, 10**100], ids=["1e16", "1e30", "1e100"])
def test_tiny_fixed_point_coordinates_pass_with_no_floor(capsys, n):
    """A sample row is accepted by its rounding bound alone, with no floor
    on max r_k or max s_k. On A = ((1, 0), (N, -N), (1, 0)),
    B = ((0, 1), (1 - N, 1 + N), (0, 1)) the fixed point (2, 1) has
    r_2 = 1/N, at most 1e-16: check and verify both exit 0. At N = 10^100
    the smallest margin reads 0.0, where a unit cross square underflows
    (the fixed point (1, 3), unit cross about 1e-200), while every rank
    stays 4."""
    a, b = [[1, 0], [n, -n], [1, 0]], [[0, 1], [1 - n, 1 + n], [0, 1]]
    config = json.dumps({"A": a, "B": b})
    assert main(["check", "--config", config]) == 0
    capsys.readouterr()
    assert main(["verify", "--config", config, "--samples", "50"]) == 0
    certificates = json.loads(capsys.readouterr().out)["results"]["certificates"]
    assert [c["jacobian_rank"] for c in certificates] == [4] * 50
    d = cone_data(a, b)
    k = [(i, j) for i, j, _, _ in d.mixed_witnesses].index((2, 1))
    assert certification_sample(d, 50, 0)._rho[k].tolist() == [0.0, 1 / n, 0.0, 2.0, 0.0, 0.0]
    assert (min(c["regularity_margin"] for c in certificates) == 0.0) is (n == 10**100)


def test_level_rows_fail_by_their_bound_alone(orbifold_data):
    """With zero weights and C = 0 every row meets the moment equation
    exactly, within its bound: rows with coordinates as small as the least
    subnormal, or 0, pass, and a row holding an infinity or a NaN fails,
    since its residual or its bound is not finite."""
    fd = quadric._weight_arrays(orbifold_data)._replace(fg=np.zeros((2, 6)), c=np.zeros(2))
    for small in (1e-12, 1e-300, 5e-324, 0.0):
        for side in (slice(0, 3), slice(3, 6)):  # every r_k, then every s_k
            rho = np.ones((3, 6))
            rho[1, side] = small
            assert len(quadric._level_sample(fd, rho)) == 3
    for bad in (np.inf, np.nan):
        rho = np.ones((3, 6))
        rho[1, 4] = bad
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match=r"^point misses the level set: row 1, "):
            quadric._level_sample(fd, rho)


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
# takes lstsq's minimum-norm step.
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


def test_collinear_projection_matches_reference():
    config = json.loads(COLLINEAR)
    d = cone_data(config["A"], config["B"])
    for z, w in zip(*_perturbed_starts(d, 20, 9)):
        p = project_to_level(d, z, w)
        assert np.linalg.matrix_rank(constraint_jacobian(d, p.z, p.w)) == 3
        zr, wr = reference_project(d, z, w)
        assert np.allclose(p.z, zr, rtol=0, atol=1e-12) and np.allclose(p.w, wr, rtol=0, atol=1e-12)
