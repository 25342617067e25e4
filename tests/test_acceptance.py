"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -v tests/test_acceptance.py -s` to see the lines.
"""
import json
import random
import subprocess
import sys
import time
from itertools import islice

from suborbifolds.classify import (
    SuborbifoldCandidate,
    check_embedded,
    check_full,
    check_saturated,
    contained_in_regular_part,
    isotropy_sub_point,
)
from suborbifolds.corpus import (
    CASES,
    complex_axis_candidate,
    diagonal_half_turn_candidate,
    klein_chart,
    metric_probes,
    product_diagonal_candidate,
    rot4_chart,
    rotation_line_candidate,
    run_corpus,
    z4_realified_chart,
)
from suborbifolds.errors import (
    EmptyPreimage,
    NotTransverseToQ,
)
from suborbifolds.groups import (
    GroupHom,
    pointwise_stabilizer,
    quotient_group,
    stabilizer,
    trivial_group,
)
from suborbifolds.linalg import (
    affine_subspace,
    mat,
    mat_rank,
    sample_points,
    vec,
)
from suborbifolds.maps import (
    EquivariantAffineMap,
    fibered_product,
    graph_suborbifold,
    intersect_full,
    preimage_suborbifold,
    product_chart,
    transverse_candidates,
    trivial_hom,
)
from suborbifolds.metric import lemma_metrics_check
from suborbifolds.classify import chart_from_group

from oracles import (
    oracle_saturated_sampled,
    point_of_form,
    random_candidate,
    sample_in_subspace,
    verify_saturation_witness,
)


def _report(criterion: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {criterion}: {status}{suffix}")
    assert passed, f"criterion {criterion} failed: {detail}"


def trivial_chart(n):
    return chart_from_group(trivial_group(n))


def trivial_map(n1, n2, rows, offset=None):
    d, c = trivial_chart(n1), trivial_chart(n2)
    return EquivariantAffineMap(
        d, c, mat(rows), vec(offset or [0] * n2),
        trivial_hom(d.group, c.group),
    )


def test_criterion_1_corpus_verdicts():
    start = time.perf_counter()
    report = run_corpus()
    elapsed = time.perf_counter() - start
    ok = report.ok and elapsed < 5.0 and len(report.results) == len(CASES)
    _report("1 (corpus verdicts, <5s)", ok,
            f"{len(report.results)} cases in {elapsed:.2f}s, "
            f"{len(report.mismatches)} mismatches")


def test_criterion_2_dimension_formulas():
    rng = random.Random(1002)
    intersections = preimages = fibered = 0

    while intersections < 10:
        n = rng.randint(2, 4)
        t = trivial_chart(n)
        full = t.group.full_subgroup()

        def rand_sub(k):
            return affine_subspace(
                [rng.randint(-2, 2) for _ in range(n)],
                [[rng.randint(-2, 2) for _ in range(n)] for _ in range(k)],
            )

        k1, k2 = rng.randint(1, n), rng.randint(1, n)
        if k1 + k2 < n:
            continue
        a = SuborbifoldCandidate(t, full, rand_sub(k1))
        b = SuborbifoldCandidate(t, full, rand_sub(k2))
        if not transverse_candidates(a, b):
            continue
        meet = intersect_full(a, b)  # dimension asserted internally too
        assert meet.v.dim == a.v.dim + b.v.dim - n
        intersections += 1

    while preimages < 10:
        n1 = rng.randint(2, 4)
        n2 = rng.randint(1, min(3, n1))
        rows = [[rng.randint(-2, 2) for _ in range(n1)] for _ in range(n2)]
        f = trivial_map(n1, n2, rows, [rng.randint(-1, 1) for _ in range(n2)])
        k = rng.randint(0, n2)
        sub = affine_subspace(
            [rng.randint(-2, 2) for _ in range(n2)],
            [[rng.randint(-2, 2) for _ in range(n2)] for _ in range(k)],
        )
        t = trivial_chart(n2)
        q = SuborbifoldCandidate(t, t.group.full_subgroup(), sub)
        try:
            pre = preimage_suborbifold(f, q)
        except (EmptyPreimage, NotTransverseToQ):
            continue
        assert pre.v.dim == n1 - (n2 - q.v.dim)
        preimages += 1

    while fibered < 5:
        m = rng.randint(1, 2)
        n1, n2 = rng.randint(m, 3), rng.randint(m, 3)

        def rand_submersion(n):
            while True:
                rows = [
                    [rng.randint(-2, 2) for _ in range(n)] for _ in range(m)
                ]
                if mat_rank(mat(rows)) == m:
                    return trivial_map(n, m, rows)

        fp = fibered_product(rand_submersion(n1), rand_submersion(n2))
        assert fp.v.dim == n1 + n2 - m
        fibered += 1

    _report("2 (dimension formulas)", True,
            f"{intersections} intersections, {preimages} preimages, "
            f"{fibered} fibered products")


def test_criterion_3_oracle_equivalence():
    rng = random.Random(1003)
    start = time.perf_counter()
    total = 0
    negatives = 0
    while total < 200:
        cand = random_candidate(rng, max_group_order=16, max_dim=4)
        verdict = check_saturated(cand)
        if verdict.holds:
            # an affirmative verdict must never be contradicted by sampling
            assert oracle_saturated_sampled(cand, rng, samples=15)
        else:
            negatives += 1
            # every negative verdict's witness replays exactly
            assert verify_saturation_witness(cand, verdict.witness)
        total += 1
    elapsed = time.perf_counter() - start
    ok = elapsed < 60.0
    _report("3 (oracle equivalence, <60s)", ok,
            f"{total} candidates ({negatives} non-saturated) in {elapsed:.1f}s")


def test_criterion_4_two_path_isotropy():
    # isotropy_sub_point internally computes Delta_x/K and the
    # induced-chart stabilizer and raises if the fingerprints disagree.
    rot = rot4_chart()
    corpus_candidates = [
        rotation_line_candidate(rot4_chart()),
        diagonal_half_turn_candidate(klein_chart()),
        complex_axis_candidate(z4_realified_chart()),
        product_diagonal_candidate(product_chart(rot, rot)),
    ]
    checked = 0
    for cand in corpus_candidates:
        for point in islice(sample_points(cand.v), 4):
            isotropy_sub_point(cand, point_of_form(point))
            checked += 1
    rng = random.Random(1004)
    randomized = 0
    while randomized < 50:
        cand = random_candidate(rng, max_group_order=12, max_dim=3)
        if not check_saturated(cand).holds:
            continue
        x = sample_in_subspace(cand.v, rng, 2)[-1]
        fp = isotropy_sub_point(cand, x)
        # external re-derivation of the quotient path
        stab = stabilizer(cand.delta, x)
        kernel = pointwise_stabilizer(cand.delta, cand.v)
        assert fp == quotient_group(stab, kernel)
        randomized += 1
    _report("4 (two-path isotropy)", True,
            f"{checked} corpus points + {randomized} randomized")


def test_criterion_5_splitting_soundness():
    def verify(cand, result):
        if not result.holds or result.effective_delta is None:
            return True
        dprime = result.effective_delta
        g = cand.chart.group
        kernel = pointwise_stabilizer(cand.delta, cand.v)
        if pointwise_stabilizer(dprime, cand.v).order != 1:
            return False
        if not check_saturated(
            SuborbifoldCandidate(cand.chart, dprime, cand.v)
        ).holds:
            return False
        if result.searched_all_delta:
            return True  # complements of PFix(V) in Stab(V), not of K in Delta
        if set(dprime.members) & set(kernel.members) != {g.identity}:
            return False
        products = {
            g.mult(a, b) for a in dprime.members for b in kernel.members
        }
        return products == set(cand.delta.members)

    checked = 0
    for case in CASES:
        cand = case.build()
        if check_saturated(cand).holds:
            assert verify(cand, check_embedded(
                cand, search_all_delta=case.search_all_delta))
            checked += 1
    rng = random.Random(1005)
    randomized = 0
    while randomized < 60:
        cand = random_candidate(rng)
        if not check_saturated(cand).holds:
            continue
        assert verify(cand, check_embedded(cand))
        randomized += 1
        checked += 1
    _report("5 (splitting soundness)", True, f"{checked} verified, 100%")


def test_criterion_6_metric_coincidence():
    start = time.perf_counter()
    reports = {name: lemma_metrics_check(probe.with_settings(8, 1e-9))
               for name, probe in metric_probes().items()}
    elapsed = time.perf_counter() - start
    ok = all(r.passed for r in reports.values()) and elapsed < 10.0
    worst = max(r.max_deviation for r in reports.values())
    _report("6 (metric coincidence, tol 1e-9, depth 8, <10s)", ok,
            f"max deviation {worst:.2e} in {elapsed:.2f}s")


def test_criterion_7_graph_dichotomy():
    rng = random.Random(1007)
    from fractions import Fraction

    built = full_count = 0
    while built < 20:
        if rng.random() < 0.5:
            rot = rot4_chart()
            c = Fraction(rng.randint(-3, 3))
            f = EquivariantAffineMap(
                rot, rot, mat([[c, 0], [0, c]]), vec([0, 0]),
                GroupHom(rot.group, rot.group, tuple(range(rot.group.order))) if c != 0
                else trivial_hom(rot.group, rot.group),
            )
        else:
            n, m = rng.randint(1, 3), rng.randint(1, 3)
            f = trivial_map(
                n, m,
                [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)],
                [rng.randint(-2, 2) for _ in range(m)],
            )
        cand = graph_suborbifold(f)
        assert check_saturated(cand).holds
        assert check_embedded(cand).holds
        regular = contained_in_regular_part(f.codomain, f.image_subspace())
        assert check_full(cand).holds == regular
        full_count += regular
        built += 1
    _report("7 (graph dichotomy)", True,
            f"{built} graphs, {full_count} full / {built - full_count} not")


def test_criterion_8_deterministic_reports():
    outputs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "suborbifolds.cli",
             "corpus", "--format", "machine"],
            capture_output=True, text=True, check=True,
        )
        payload = json.loads(proc.stdout)
        from suborbifolds.scene import strip_timing

        outputs.append(
            json.dumps(strip_timing(payload), sort_keys=True).encode()
        )
    ok = outputs[0] == outputs[1]
    _report("8 (deterministic machine reports)", ok,
            f"{len(outputs[0])} bytes, identical modulo timing")
