"""Fixtures, plus the float references that more than one test file checks
the quadric against: the torus basis change of cone data, the constraint
Jacobian, the transverse frame, the SU(3) embedding, its equivariance
residual and the exact seed points of a sample. Also the exact layers as
they were before the sign table of cone data and the nine-sign rule: every
membership by its own cross products, the boolean condition as its 8
membership tests (scalar, and as the narrowed int64 block kernel with the
lattice-pair freeness of its survivors), freeness by the homomorphisms,
the witnesses by the former ``positive_combination`` in Fractions, the
apex search by the batched sign kernel ``reference_cone_member``, the
interpolation path built vector by vector at every time and the census
built entry by entry; and the condition's integer evidence decided pair
by pair on the sign table, as it was before the nine-sign corollary gave
admissible evidence from the crosses. The tests compare the library with
them."""

import functools
import itertools
from fractions import Fraction
from math import gcd, lcm

import numpy as np
import pytest

from su3kahler import DerivedConeData, WeightSystem, cone_data, enumerate_admissible_systems
from su3kahler.conegeom import ConeMembership, MembershipStatus, SignTable, cross, dot, is_zero, vadd, vscale
from su3kahler.isotropy import (
    IsotropyGroup,
    StratumReport,
    SupportPattern,
    _integer_generators,
    invariant_factors_from_divisors,
)
from su3kahler.quadric import ROUND_DATA, LevelSetPoint, certification_sample, moment_map
from su3kahler.weights import _DIAGONAL_EVIDENCE, _MIXED_PAIRS, ConditionReport, LevelSetConditions


@pytest.fixture(scope="session")
def orbifold_data():
    """The worked orbifold configuration: A_1 = A_2 = (1,0), A_3 = (2,-1),
    B_1 = B_2 = (0,1), B_3 = (-1,2), C = (1,1)."""
    return cone_data([(1, 0), (1, 0), (2, -1)], [(0, 1), (0, 1), (-1, 2)])


@pytest.fixture(scope="session")
def orbifold_ws():
    """Integer weight system deriving to three times the example data."""
    return WeightSystem(
        ((-1, 1), (-1, 1), (2, -2)),
        ((-4, 1), (5, -5), (-1, 4)),
    )


@pytest.fixture(scope="session")
def standard_ws():
    """Trivial left side, right side an isomorphism: the free flag case."""
    return WeightSystem(((0, 0),) * 3, ((1, 0), (0, 1), (-1, -1)))


@pytest.fixture(scope="session")
def round_ws():
    """The weight system whose derived data is the round normalization."""
    return WeightSystem(((0, 0),) * 3, ((-1, 0), (1, -1), (0, 1)))


@functools.cache
def admissible_systems(bound):
    """The admissible systems up to ``bound``, enumerated once per session.
    A Hypothesis test reads them by this call, not by a fixture: its
    falsifying example prints every fixture argument, and the repr of
    thousands of systems would bury it."""
    return list(enumerate_admissible_systems(bound))


@pytest.fixture(scope="session")
def bound1_systems():
    return admissible_systems(1)


@pytest.fixture(scope="session")
def bound2_systems():
    return admissible_systems(2)


def basis_change(m, d):
    """d seen in the torus basis m: every A_j, B_j and C becomes m v."""

    def apply(v):
        return (m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1])

    return DerivedConeData(tuple(map(apply, d.a)), tuple(map(apply, d.b)), apply(d.c))


# Multiplication by i in the real layout (Re z1, Im z1, ..., Re w3, Im w3),
# (re, im) -> (-im, re); the Gram matrix of omega, omega(u, v) = u^T O v,
# has the same blocks.
J12 = np.kron(np.eye(6), [[0, -1], [1, 0]])
OMEGA12 = J12


def c2r(v):
    """Complex vectors (last axis) in the real layout."""
    out = np.empty(v.shape[:-1] + (2 * v.shape[-1],))
    out[..., 0::2], out[..., 1::2] = v.real, v.imag
    return out


def _float_weights(d):
    return np.array(d.a, dtype=float), np.array(d.b, dtype=float)


def constraint_jacobian(d, z, w):
    """4 x 12 real Jacobian of ``quadric.constraint_values`` at (z, w).

    h = sum z_j w_j is complex-bilinear, so d(Re h) = (conj w, conj z) and
    d(Im h) = i (conj w, conj z); the moment rows are gradients of weighted
    square moduli, 2 A_j z_j and 2 B_j w_j per component.
    """
    a, b = _float_weights(d)
    zc, wc = np.conj(z), np.conj(w)
    rows = np.array(
        [
            np.concatenate([wc, zc]),
            np.concatenate([1j * wc, 1j * zc]),
            np.concatenate([2 * a[:, 0] * z, 2 * b[:, 0] * w]),
            np.concatenate([2 * a[:, 1] * z, 2 * b[:, 1] * w]),
        ]
    )
    return c2r(rows)


def transverse_frame(d, p):
    """Orbit fields X, Y and the transverse frame Z = X + JY, W = JX - Y.

    The z_j component of X is i * A_j[0] * z_j, of Y is i * A_j[1] * z_j,
    and likewise with B_j on w.
    """
    a, b = _float_weights(d)
    x6 = np.concatenate([1j * a[:, 0] * p.z, 1j * b[:, 0] * p.w])
    y6 = np.concatenate([1j * a[:, 1] * p.z, 1j * b[:, 1] * p.w])
    return x6, y6, x6 + 1j * y6, 1j * x6 - y6


def random_su3(seed):
    """Seeded Haar-like special unitary matrix: the QR of a complex
    Gaussian, its columns rephased so that R has a positive diagonal, then
    the first column divided by the determinant. ``seed`` is anything
    ``np.random.default_rng`` accepts."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    diag = np.diagonal(r)
    q = q * (diag / np.abs(diag))
    q[:, 0] /= np.linalg.det(q)
    return q


def embed_su3(g):
    """The point (g e_1, conj(g e_3)) of the round level set
    {sum |z|^2 = sum |w|^2 = 1, sum z_j w_j = 0} for g in SU(3), with its
    residuals (|sum z_j w_j|, |Phi - C|) for ``ROUND_DATA``: the columns of
    g are orthonormal, so |z| = |w| = 1 and sum z_j w_j = <g e_1, g e_3> = 0."""
    g = np.asarray(g, dtype=complex)
    z, w = g[:, 0], np.conj(g[:, 2])
    residual = np.linalg.norm(moment_map(ROUND_DATA, (z, w)) - np.array(ROUND_DATA.c, dtype=float))
    return LevelSetPoint(z, w, (float(abs(np.sum(z * w))), float(residual)))


def equivariance_residual(a, g, h):
    """Residual between embedding g*A*h^{-1} and acting on the embedding.

    The action on coordinates multiplies z_k by g_k * h_1^{-1} and w_k by
    g_k^{-1} * h_3, for unit-modulus determinant-one diagonals g, h.
    """
    g = np.asarray(g, dtype=complex)
    h = np.asarray(h, dtype=complex)
    moved = embed_su3(np.diag(g) @ np.asarray(a, dtype=complex) @ np.diag(1 / h))
    base = embed_su3(a)
    z_expected = g * h[0].conjugate() * base.z
    w_expected = (1 / g) * h[2] * base.w
    return float(np.linalg.norm(moved.z - z_expected) + np.linalg.norm(moved.w - w_expected))


def push_mixture_rows(monkeypatch, factor, *rows):
    """Make ``quadric._mixtures`` scale r_1 of the given rows of every
    round it returns, those the round has, by ``factor``, after their
    Heron test: 1 + 2^-20 pushes a row far past its rounding bound,
    16 * 2^-53 times |C| + sum_g rho_g |g|."""
    from su3kahler import quadric

    real = quadric._mixtures

    def pushed(weights, vertices):
        rs, passing = real(weights, vertices)
        rs[[k for k in rows if k < len(rs)], 0] *= factor
        return rs, passing

    monkeypatch.setattr(quadric, "_mixtures", pushed)


def seed_point(d, i, j):
    """The exact level-set point supported on z_i and w_j: the seed that
    ``certification_sample`` builds for the mixed witness (i, j, a, b)."""
    pairs = [(i2, j2) for i2, j2, _, _ in d.mixed_witnesses]
    return certification_sample(d, len(pairs), 0)[pairs.index((i, j))]


# --- the exact layers before the sign table ------------------------------------


def reference_cone_member(c, g1, g2):
    """The sign kernel on one configuration, as one expression."""
    cx, cy = c
    x1, y1 = g1
    x2, y2 = g2
    d = x1 * y2 - y1 * x2
    n1 = cx * y2 - cy * x2
    n2 = x1 * cy - y1 * cx
    return (
        ((d > 0) & (n1 >= 0) & (n2 >= 0))
        | ((d < 0) & (n1 <= 0) & (n2 <= 0))
        | ((n1 == 0) & (cx * x2 + cy * y2 > 0))
        | ((n2 == 0) & (cx * x1 + cy * y1 > 0))
        | ((cx == 0) & (cy == 0))
    )


# The condition as 8 membership tests (g, h, inside) on the generators
# (A_1, A_2, A_3, B_1, B_2, B_3): C must lie in cone(g, h) exactly when
# `inside`. Where A_j + B_j is one positive multiple of C they decide all 27
# memberships of check_cone_condition: the diagonal mixed cones always hold
# C, and once the 6 off-diagonal mixed tests pass, cone(A_1, A_2) and
# cone(B_1, B_3) decide every pair clause (README, with proof and minimality).
CONDITION_TESTS = tuple((i, 3 + j, True) for i, j in _MIXED_PAIRS) + ((0, 1, False), (3, 5, False))


def reference_condition_holds(a1, a2, a3, b1, b2, b3, c):
    """The 8 tests of ``CONDITION_TESTS``, each by :func:`reference_cone_member`:
    a bool on int or Fraction vectors, a bool array elementwise on vectors
    of int64 component arrays. Its domain is configurations with A_j + B_j
    one positive multiple of C for j = 1, 2, 3."""
    gens = (a1, a2, a3, b1, b2, b3)
    ok = True
    for g, h, inside in CONDITION_TESTS:
        ok = ok & (reference_cone_member(c, gens[g], gens[h]) == inside)
    return ok


def reference_block_survivors(a, b, c):
    """The ascending indices, an int array, at which vectors of int64
    component arrays pass the 8 tests of ``CONDITION_TESTS``: the narrowed
    block kernel, the first test on the whole block and each later one only
    on the entries still alive, their components gathered by index."""
    gens = (*a, *b)
    (g, h, inside), *rest = CONDITION_TESTS
    alive = (reference_cone_member(c, gens[g], gens[h]) == inside).nonzero()[0]
    for g, h, inside in rest:
        if not alive.size:
            break
        cc, gg, hh = ((x[alive], y[alive]) for x, y in (c, gens[g], gens[h]))
        alive = alive[reference_cone_member(cc, gg, hh) == inside]
    return alive


def reference_free_by_pairs(a, b):
    """Every (A_i, B_j), i != j, a lattice basis, from its own cross: a
    bool on int vectors, a bool array on vectors of int64 arrays."""
    ok = True
    for i, j in _MIXED_PAIRS:
        ok = ok & (abs(cross(a[i], b[j])) == 1)
    return ok


def reference_free_by_homs(wl, w1r, w3r):
    """Freeness by the homomorphisms: the left one trivial, wL = 0, and the
    right one a torus isomorphism, |cross(w_1^R, w_3^R)| = 1 (which is
    |det(w_1^R, w_2^R)| since w_2^R = -w_1^R - w_3^R). Under the cone
    condition it is the lattice-pair test (the README's freeness
    corollary); the library computes only the latter."""
    return all(v == (0, 0) for v in wl) and abs(cross(w1r, w3r)) == 1


def reference_in_cone2(c, g1, g2):
    """One membership with its witness, from its own cross products."""
    boundary = MembershipStatus.ON_BOUNDARY_RAY
    if not reference_cone_member(c, g1, g2):
        return ConeMembership(MembershipStatus.OUTSIDE)
    d = cross(g1, g2)
    if d != 0:
        n1, n2 = cross(c, g2), cross(g1, c)
        status = MembershipStatus.INTERIOR if n1 != 0 and n2 != 0 else boundary
        return ConeMembership(status, (Fraction(n1, d), Fraction(n2, d)))
    if is_zero(c):
        return ConeMembership(boundary, (Fraction(0), Fraction(0)))
    if cross(c, g1) == 0 and dot(c, g1) > 0:
        return ConeMembership(boundary, (Fraction(dot(c, g1), dot(g1, g1)), Fraction(0)))
    return ConeMembership(boundary, (Fraction(0), Fraction(dot(c, g2), dot(g2, g2))))


def reference_apex(gens):
    """The apex functional by the pair search on the generators themselves."""
    n = len(gens)
    for i in range(n):
        for j in range(i + 1, n):
            d = cross(gens[i], gens[j])
            if d != 0 and all(reference_cone_member(g, gens[i], gens[j]) for g in gens):
                gi, gj = gens[i], gens[j]
                return (Fraction(gj[1] - gi[1], d), Fraction(gi[0] - gj[0], d))
    g0 = gens[0]
    if all(cross(g0, g) == 0 and dot(g0, g) > 0 for g in gens):
        return (Fraction(g0[0]), Fraction(g0[1]))
    return None


def reference_positive_combination(c, g1, g2):
    """(a, b) with a, b > 0 and a*g1 + b*g2 == c, or None, in Fractions on
    the vectors themselves: the independent witness from the crosses, and
    for dependent generators the pick positive_combination makes (1 on a
    zero generator; c = s*g1, g2 = t*g1 split as (s/2, s/(2t)) for t > 0
    and as (s + |s| + 1, (|s| + 1)/|t|) for t < 0)."""
    d = cross(g1, g2)
    if d != 0:
        a, b = Fraction(cross(c, g2), d), Fraction(cross(g1, c), d)
        return (a, b) if a > 0 and b > 0 else None
    if is_zero(g1) and is_zero(g2):
        return (Fraction(1), Fraction(1)) if is_zero(c) else None
    if is_zero(g1) or is_zero(g2):
        g = g2 if is_zero(g1) else g1
        if cross(c, g) != 0:
            return None
        t = Fraction(dot(c, g), dot(g, g))
        if t <= 0:
            return None
        return (Fraction(1), t) if is_zero(g1) else (t, Fraction(1))
    if cross(c, g1) != 0:
        return None
    s = Fraction(dot(c, g1), dot(g1, g1))
    t = Fraction(dot(g2, g1), dot(g1, g1))
    if t > 0:
        return (s / 2, s / (2 * t)) if s > 0 else None
    b = (abs(s) + 1) / abs(t)
    return (s + b * abs(t), b)


def reference_mixed_witnesses(d):
    """(i, j, a, b) for every i != j with C = a*A_i + b*B_j, a, b > 0."""
    return tuple(
        (i + 1, j + 1, *ab)
        for i in range(3)
        for j in range(3)
        if i != j and (ab := reference_positive_combination(d.c, d.a[i], d.b[j])) is not None
    )


def reference_level_set(d):
    witnesses = reference_mixed_witnesses(d)
    witness = witnesses[0] if witnesses else None
    regular = all(cross(d.a[i], d.b[j]) != 0 for i in range(3) for j in range(3) if i != j)
    gens = [*d.a, *d.b]
    if any(is_zero(g) for g in gens):
        compact, apex = False, None
    else:
        apex = reference_apex(gens)
        compact = apex is not None and not (
            reference_cone_member(d.c, d.a[0], d.a[1]) or reference_cone_member(d.c, d.a[0], d.a[2])
        )
    return LevelSetConditions(witness is not None, witness, regular, compact, apex)


def reference_condition_report(d):
    """All 27 memberships, each from its own cross products."""
    tables = [{}, {}, {}]
    for i in range(3):
        for j in range(3):
            for table, (g, h) in zip(tables, ((d.a[i], d.a[j]), (d.b[i], d.b[j]), (d.a[i], d.b[j]))):
                table[(i + 1, j + 1)] = reference_in_cone2(d.c, g, h)
    a_pairs, b_pairs, mixed = tables
    holds = _holds_by(a_pairs, b_pairs, mixed)
    return ConditionReport(holds, a_pairs, b_pairs, mixed, reference_level_set(d))


def _holds_by(a_pairs, b_pairs, mixed):
    return (
        not any(m.member for m in a_pairs.values())
        and not any(m.member for m in b_pairs.values())
        and all(m.member for m in mixed.values())
    )


def holds_by_memberships(report):
    """The condition read off a report's 27 memberships, the definition:
    no A-pair or B-pair membership is a member and all nine mixed ones are."""
    return _holds_by(report.a_pairs, report.b_pairs, report.mixed_pairs)


def reference_interpolation_path(d, times):
    """The path check with base (1, 1), C = A_1 + B_1, and the six
    generators built at every time, on the data cleared of every
    denominator, each time decided by the 8 tests."""
    n = lcm(*(x.denominator for x in times), *(x.denominator for v in (*d.a, *d.b, d.c) for x in v))

    def cleared(x):
        return x.numerator * (n // x.denominator)

    a = [(cleared(x), cleared(y)) for x, y in d.a]
    b = [(cleared(x), cleared(y)) for x, y in d.b]
    c = (cleared(d.c[0]), cleared(d.c[1]))
    a0 = vscale(n, a[0])
    b0 = vscale(n, b[0])
    for t in times:
        nt = cleared(t)
        tn, s = nt * n, n - nt
        gens = [vadd(vscale(tn, g), vscale(s, a0)) for g in a] + [
            vadd(vscale(tn, g), vscale(s, b0)) for g in b
        ]
        if not all(reference_cone_member(c, gens[g], gens[h]) == inside for g, h, inside in CONDITION_TESTS):
            return False
    return True


def reference_census(d):
    """The census with every entry built anew: the divisors of each
    pattern's rows from their entries and 2 x 2 minors."""
    gens = _integer_generators(d)
    witnesses = {(i, j): (a, b) for i, j, a, b in reference_mixed_witnesses(d)}
    subsets = [s for size in (1, 2, 3) for s in itertools.combinations((1, 2, 3), size)]
    patterns = []
    for i_set in subsets:
        for j_set in subsets:
            if any(i != j for i in i_set for j in j_set):
                patterns.append(SupportPattern(i_set, j_set))
    patterns.sort(key=lambda p: (len(p.i_set), len(p.j_set), p.i_set, p.j_set))
    reports = []
    for pattern in patterns:
        rows = [gens[i - 1] for i in pattern.i_set] + [gens[2 + j] for j in pattern.j_set]
        d1 = gcd(*(x for row in rows for x in row))
        d12 = gcd(*(cross(u, v) for k, u in enumerate(rows) for v in rows[k + 1:]))
        group = IsotropyGroup(*invariant_factors_from_divisors(d1, d12))
        if pattern.is_singleton:
            witness = witnesses.get((pattern.i_set[0], pattern.j_set[0]))
            reports.append(StratumReport(pattern, group, witness is not None, witness))
        else:
            reports.append(StratumReport(pattern, group, True if pattern.is_full else None, None))
    return reports


# --- the condition's evidence pair by pair --------------------------------------

# The nine pairs (i, j), 0-based, in order of (i, j), and the row of C in
# the sign table of (A_1, A_2, A_3, B_1, B_2, B_3, C).
PAIRS = tuple(itertools.product(range(3), repeat=2))
C_ROW = 6


def reference_mixed_evidence(table):
    """C against every cone(A_i, B_j) decided by ``SignTable.decide`` on
    the table of (A_1, ..., B_3, C), except an independent diagonal pair:
    C = A_i + B_i makes that the shared (INTERIOR, 1, 1, 1)."""
    return tuple(
        _DIAGONAL_EVIDENCE if i == j and table.crosses[i][3 + i] else table.decide(C_ROW, i, 3 + j)
        for i, j in PAIRS
    )


def reference_witness_evidence(d):
    """The integer mixed witnesses (i, j, na, nb, den), 1-based, i != j,
    pair by pair on a fresh sign table of d: the INTERIOR decision of an
    independent pair, ``SignTable.positive`` for a dependent one."""
    table = SignTable((*d.a, *d.b, d.c))
    witnesses = []
    for (i, j), (status, n1, n2, den) in zip(PAIRS, reference_mixed_evidence(table)):
        if i == j:
            continue
        if table.crosses[i][3 + j]:
            w = (n1, n2, den) if status is MembershipStatus.INTERIOR else None
        else:
            w = table.positive(C_ROW, i, 3 + j)
        if w is not None:
            witnesses.append((i + 1, j + 1, *w))
    return tuple(witnesses)


def reference_condition_evidence(d):
    """``weights._condition_evidence`` decided pair by pair on a fresh sign
    table of d, each table a tuple: all 27 memberships by
    ``SignTable.decide``; the verdict by the definition, no A-pair or
    B-pair member and nine mixed ones; regularity from the six mixed
    crosses; compactness from the apex and the two A-pair decisions
    cone(A_1, A_2) and cone(A_1, A_3) (the README's compactness proof)."""
    table = SignTable((*d.a, *d.b, d.c))
    outside = MembershipStatus.OUTSIDE
    a_pairs = tuple(table.decide(C_ROW, i, j) for i, j in PAIRS)
    b_pairs = tuple(table.decide(C_ROW, 3 + i, 3 + j) for i, j in PAIRS)
    mixed = reference_mixed_evidence(table)
    holds = all(e[0] is outside for e in a_pairs + b_pairs) and all(e[0] is not outside for e in mixed)
    witnesses = reference_witness_evidence(d)
    regular = all(table.crosses[i][3 + j] for i, j in _MIXED_PAIRS)
    apex = None if any(is_zero(g) for g in table.vectors[:C_ROW]) else table.apex(C_ROW)
    compact = apex is not None and all(table.decide(C_ROW, 0, q)[0] is outside for q in (1, 2))
    witness = witnesses[0] if witnesses else None
    return holds, (a_pairs, b_pairs, mixed), (witness, regular, compact, apex)


def library_report(argv, wall=0.0) -> dict:
    """The report dict of argv, a ``check`` command or an ``isotropy``
    command on data where the cone condition holds, built from the
    library's objects and their ``to_json``: the dict whose
    ``json.dumps(indent=2, sort_keys=True)`` the CLI must print, with this
    wall time."""
    from su3kahler import cli
    from su3kahler import isotropy as iso
    from su3kahler import weights as wt

    args = cli._parser().parse_args(argv)
    ws, d = cli._problem(args.config)
    holds = wt.cone_condition_holds(d)
    results = {"weights": None if ws is None else ws.to_json(), "derived": d.to_json()}
    if args.command == "check":
        times = wt.default_interpolation_times(args.interp_steps)
        results["condition"] = wt.check_cone_condition(d).to_json()
        results["interpolation"] = cli._interpolation_json(times, wt.check_interpolation_path(d)) if holds else None
    else:
        assert args.command == "isotropy" and holds
        verdict = iso.freeness_check(d)
        results["freeness"] = verdict.to_json()
        results["classification"] = iso.Classification.of(verdict.free).value
        results["census"] = iso.census_to_json(iso.singular_stratum_census(d))
    return cli._report(args.command, cli._config_echo(args), results, holds, wall)
