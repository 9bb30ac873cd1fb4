"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its runtime. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import time

import numpy as np
from conftest import equivariance_residual, reference_free_by_homs, reference_interpolation_path

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
from su3kahler.quadric import (
    certification_sample,
    certify_point,
    embed_su3,
    random_su3,
)
from su3kahler.weights import (
    WeightSystem,
    check_cone_condition,
    derive,
    check_interpolation_path,
    default_interpolation_times,
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
    start = time.perf_counter()
    datasets = [orbifold_data] + [derive(ws) for ws in bound1_systems]
    ok = True
    checked = 0
    for d in datasets:
        for p in certification_sample(d, 100, 0):
            cert = certify_point(d, p)
            spectrum = np.array(cert.positivity_spectrum)
            point_ok = (
                cert.regular
                and cert.jacobian_rank == 4
                and cert.transversal
                and cert.combined_rank == 10
                and cert.jn_square_error <= 1e-8
                and cert.jn_xy_error <= 1e-8
                and cert.omega_compat_error <= 1e-8
                and np.sum(np.abs(spectrum) <= 1e-8) == 2
                and np.sum(spectrum >= 1e-6 * spectrum[-1]) == 6
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


def test_criterion_8_interpolation_path(bound2_systems, capsys):
    start = time.perf_counter()
    times = default_interpolation_times(24)  # 0, 1/24, ..., 1
    ok = True
    for ws in bound2_systems:
        d = derive(ws)
        # the verdict on all of [0, 1], against the path built at every k/24
        ok = ok and check_interpolation_path(d) and reference_interpolation_path(d, times)
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        report_line(
            8,
            f"interpolation keeps the cone condition on all {len(bound2_systems)} systems",
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
