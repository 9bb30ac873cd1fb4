"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its runtime. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import time
from math import lcm

import numpy as np
from conftest import (
    embed_su3,
    equivariance_residual,
    random_su3,
    reference_free_by_homs,
    reference_interpolation_path,
)
from test_certify_batch import EXACT_SPECTRUM, SPECTRUM_BOUND, reference_certify

from su3kahler.cli import main
from su3kahler.cohomology import (
    DEGENERATE_BETA,
    GENERIC_BETA,
    build_derham_model,
    dga_cohomology,
    hodge_model,
)
from su3kahler.isotropy import (
    Classification,
    classify_quotient,
    freeness_check,
    singular_stratum_census,
)
from su3kahler.quadric import certification_sample, certify_points
from su3kahler.weights import (
    DerivedConeData,
    WeightSystem,
    check_cone_condition,
    check_interpolation_path,
    check_level_set_conditions,
    default_interpolation_times,
    derive,
)

ORBIFOLD_CONE = '{"A": [[1,0],[1,0],[2,-1]], "B": [[0,1],[0,1],[-1,2]]}'


def report_line(number, description, ok, elapsed):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {description} ({elapsed:.2f}s)")


def test_criterion_1_generate_round_trip(capsys):
    start = time.perf_counter()
    code = main(["generate", "--config", ORBIFOLD_CONE])
    out = json.loads(capsys.readouterr().out)
    res = out["results"]
    ok = (
        code == 0
        and res["scale"] == 3
        and res["integer"]["wL"] == [[-1, 1], [-1, 1], [2, -2]]
        and res["integer"]["wR"] == [[-4, 1], [5, -5], [-1, 4]]
        and res["rho_L"] == ["t1^-1 t2", "t1^-1 t2", "t1^2 t2^-2"]
        and res["rho_R"] == ["t1^-4 t2", "t1^5 t2^-5", "t1^-1 t2^4"]
    )
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        report_line(1, "generate reproduces the displayed homomorphism exponents", ok, elapsed)
    assert ok and elapsed < 1.0


def test_criterion_2_membership_decisions(capsys):
    start = time.perf_counter()
    code = main(["check", "--config", ORBIFOLD_CONE])
    out = json.loads(capsys.readouterr().out)
    cond = out["results"]["condition"]
    ok = (
        code == 0
        and cond["holds"]
        and len(cond["A_pairs"]) == len(cond["B_pairs"]) == len(cond["mixed_pairs"]) == 9
        and all(v["status"] == "outside" for v in cond["A_pairs"].values())
        and all(v["status"] == "outside" for v in cond["B_pairs"].values())
        and all(v["status"] == "interior" for v in cond["mixed_pairs"].values())
    )
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        report_line(2, "all 27 exact membership decisions on the worked example", ok, elapsed)
    assert ok and elapsed < 1.0


def test_criterion_3_condition_implies_consequences(bound2_systems, capsys):
    start = time.perf_counter()
    exceptions = 0
    for ws in bound2_systems:
        report = check_cone_condition(derive(ws))
        if not (report.holds and report.level_set.all_hold):
            exceptions += 1
    ok = exceptions == 0 and len(bound2_systems) > 0
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        report_line(
            3,
            f"cone condition implies nonempty/regular/compact on all "
            f"{len(bound2_systems)} bound-2 systems",
            ok,
            elapsed,
        )
    assert ok and elapsed < 300.0


def test_criterion_4_freeness_characterization(bound2_systems, capsys):
    start = time.perf_counter()
    ok = True
    for streamed in bound2_systems:
        # a fresh instance: the enumerator's verdict is not carried over
        ws = WeightSystem(streamed.wl, streamed.wr)
        d = derive(ws)
        verdict = freeness_check(d, ws)
        classification = classify_quotient(ws)
        agrees = verdict.free == (classification is Classification.FREE_FLAG_CASE)
        by_homs = reference_free_by_homs(ws.wl, ws.wr[0], ws.wr[2])
        ok = ok and agrees and verdict.classification_consistent and (verdict.free == by_homs)
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        report_line(
            4,
            "freeness = trivial left side + unimodular right side on every system",
            ok,
            elapsed,
        )
    assert ok


def test_criterion_5_isotropy_census(orbifold_data, capsys):
    start = time.perf_counter()

    def torsion_count(rows, m):
        return sum(
            1
            for k1 in range(m)
            for k2 in range(m)
            if all((r[0] * k1 + r[1] * k2) % m == 0 for r in rows)
        )

    census = {
        (r.pattern.i_set[0], r.pattern.j_set[0]): r.isotropy
        for r in singular_stratum_census(orbifold_data)
        if r.pattern.is_singleton
    }
    expected = {
        (3, 1): 2, (3, 2): 2, (1, 3): 2, (2, 3): 2, (1, 2): 1, (2, 1): 1,
    }
    ok = True
    for (i, j), order in expected.items():
        group = census[(i, j)]
        rows = [orbifold_data.a[i - 1], orbifold_data.b[j - 1]]
        ok = ok and group.order == order
        ok = ok and torsion_count(rows, max(order, 1)) == order
        # oracle at a larger modulus cannot reveal extra kernel elements
        ok = ok and torsion_count(rows, 2 * max(order, 1)) == order
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        report_line(5, "stratum isotropy matches the root-of-unity oracle", ok, elapsed)
    assert ok


def test_criterion_6_certificates(orbifold_data, bound1_systems, capsys):
    """Every sample point certifies, and the one-point J_N oracle confirms
    the README's proposition there: it passes every check, its spectrum is
    within ``SPECTRUM_BOUND`` of (0, 0, 1^6), and its regularity and ranks
    are the certificate's."""
    start = time.perf_counter()
    datasets = [orbifold_data] + [derive(ws) for ws in bound1_systems]
    ok = True
    checked = 0
    for d in datasets:
        points = certification_sample(d, 100, 0)
        for p, cert in zip(points, certify_points(d, points), strict=True):
            want = reference_certify(d, p)
            point_ok = (
                cert.passed
                and want.passed
                and (cert.regular, cert.jacobian_rank, cert.transversal, cert.combined_rank)
                == (want.regular, want.jacobian_rank, want.transversal, want.combined_rank) == (True, 4, True, 10)
                and max(abs(x - y) for x, y in zip(want.spectrum, EXACT_SPECTRUM)) <= SPECTRUM_BOUND
            )
            ok = ok and point_ok
            checked += 1
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        report_line(
            6,
            f"{checked} point certificates across {len(datasets)} level sets",
            ok,
            elapsed,
        )
    assert ok and elapsed < 60.0


def test_criterion_7_embedding(capsys):
    start = time.perf_counter()
    ok = True
    for seed in range(1000):
        p = embed_su3(random_su3(seed))
        ok = ok and max(p.residuals) <= 1e-12
    rng = np.random.default_rng(0)
    for k in range(100):
        th = rng.uniform(0.0, 2 * np.pi, size=(2, 2))
        g = np.exp(1j * np.array([th[0, 0], th[0, 1], -th[0].sum()]))
        h = np.exp(1j * np.array([th[1, 0], th[1, 1], -th[1].sum()]))
        ok = ok and equivariance_residual(random_su3(5000 + k), g, h) <= 1e-12
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        report_line(7, "1000 embeddings and 100 equivariance pairs within 1e-12", ok, elapsed)
    assert ok and elapsed < 30.0


def path_data(d, k, n):
    """n d_t at t = k/n on the path A_j(t) = t A_j + (1 - t) A_1,
    B_j(t) = t B_j + (1 - t) B_1, in integers; the positive factor n
    changes none of the level-set conditions."""
    a1, b1 = d.a[0], d.b[0]
    a = tuple((k * x + (n - k) * a1[0], k * y + (n - k) * a1[1]) for x, y in d.a)
    b = tuple((k * x + (n - k) * b1[0], k * y + (n - k) * b1[1]) for x, y in d.b)
    return DerivedConeData(a, b, (n * d.c[0], n * d.c[1]))


def test_criterion_8_interpolation_path(bound2_systems, capsys):
    start = time.perf_counter()
    n = 24
    times = default_interpolation_times(n)  # 0, 1/24, ..., 1
    rng = np.random.default_rng(8)
    ok = True
    for ws in bound2_systems:
        d = derive(ws)
        # the verdict on all of [0, 1], against the path built at every k/24
        ok = ok and check_interpolation_path(d) and reference_interpolation_path(d, times)
        # the hypotheses of the README's diffeomorphism-type corollary: the
        # t = 1 apex functional, cleared of denominators, is positive on
        # every generator at every k/24, and the level set at t = 0 and at two
        # seeded k/24 is nonempty, regular and compact
        alpha = d.apex_functional
        den = lcm(alpha[0].denominator, alpha[1].denominator)
        ax, ay = int(alpha[0] * den), int(alpha[1] * den)
        for k in range(n + 1):
            ok = ok and all(ax * x + ay * y > 0 for x, y in path_data(d, k, n).generators())
        for k in (0, *rng.integers(1, n, 2).tolist()):
            ok = ok and check_level_set_conditions(path_data(d, k, n)).all_hold
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        report_line(
            8,
            f"interpolation keeps the cone and level-set conditions on all {len(bound2_systems)} systems",
            ok,
            elapsed,
        )
    assert ok


def test_criterion_9_cohomology(capsys):
    start = time.perf_counter()
    from su3kahler.cohomology import basic_model

    algebra = basic_model()
    basic = tuple(algebra.dim(k) for k in range(7))
    derham = dga_cohomology(build_derham_model())
    branch_generic = hodge_model(GENERIC_BETA).branch
    branch_degenerate = hodge_model(DEGENERATE_BETA).branch
    ok = (
        basic == (1, 0, 2, 0, 2, 0, 1)
        and derham == (1, 0, 0, 1, 0, 1, 0, 0, 1)
        and branch_generic == (0, 0, 0)
        and branch_degenerate == (1, 2, 1)
        and {branch_generic, branch_degenerate} == {(0, 0, 0), (1, 2, 1)}
    )
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        report_line(9, "Betti tables and both Hodge branches", ok, elapsed)
    assert ok and elapsed < 5.0
