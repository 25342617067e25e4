"""Quotient metric vs intrinsic metric on invariant subspaces."""
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from suborbifolds.cli import main
from suborbifolds.corpus import metric_probes, run_metric_corpus, rot4_chart, x_axis
from suborbifolds import metric
from suborbifolds.errors import (
    CandidateNotSaturated,
    InvalidMetricSetting,
    NonOrthogonalGroup,
    PointsNotInSubspace,
)
from suborbifolds.groups import generate_group
from suborbifolds.linalg import contains_point, mat, mat_vec, vec, zero_vec
from suborbifolds.metric import (
    DEFAULT_DEPTH,
    MAX_DEPTH,
    MetricProbe,
    intrinsic_quotient_distance,
    lemma_metrics_check,
    quotient_distance,
)
from suborbifolds.scene import parse_scene

from oracles import oracle_intrinsic_distances, random_candidate, sample_in_subspace


def test_quotient_distance_hand_case():
    g = rot4_chart().group
    # (1,0) and (0,1) are in the same orbit: distance 0
    assert quotient_distance(g, [1, 0], [0, 1]) == 0.0
    # distance from (1,0) to the orbit of (2,0) is 1
    assert quotient_distance(g, [1, 0], [2, 0]) == pytest.approx(1.0)
    # min over orbit beats plain distance
    assert quotient_distance(g, [1, 0], [-2, 0]) == pytest.approx(1.0)


def test_quotient_distance_is_pseudometric():
    rng = random.Random(31)
    for _ in range(20):
        cand = random_candidate(rng)
        g = cand.chart.group
        n = cand.chart.ambient_dim
        pts = [
            vec([Fraction(rng.randint(-4, 4), rng.choice([1, 2])) for _ in range(n)])
            for _ in range(3)
        ]
        x, y, z = pts
        dxy = quotient_distance(g, x, y)
        dyx = quotient_distance(g, y, x)
        assert dxy == pytest.approx(dyx, abs=1e-12)
        assert quotient_distance(g, x, x) == 0.0
        assert dxy <= quotient_distance(g, x, z) + quotient_distance(g, z, y) + 1e-12
        # G-invariance
        for idx in range(g.order):
            gx = mat_vec(g.matrix_of(idx), x)
            assert quotient_distance(g, gx, y) == pytest.approx(dxy, abs=1e-12)


def test_orthogonality_required():
    skew = generate_group([mat([[0, Fraction(-1, 2)], [2, 0]])])
    assert skew.order == 4
    with pytest.raises(NonOrthogonalGroup):
        quotient_distance(skew, [1, 0], [0, 1])


def test_probe_validates_points():
    chart = rot4_chart()
    with pytest.raises(PointsNotInSubspace):
        MetricProbe(
            chart.group,
            chart.group.full_subgroup(),
            x_axis(),
            ((vec([0, 1]), vec([1, 0])),),
        )
    probe = metric_probes()["rotation-line"]
    for settings in ({"depth": -1}, {"depth": MAX_DEPTH + 1}, {"depth": 30},
                     {"depth": 1.5}, {"depth": True},
                     {"tolerance": -1e-9}, {"tolerance": float("nan")}):
        with pytest.raises(InvalidMetricSetting):
            probe.with_settings(**settings)
    assert probe.with_settings(depth=MAX_DEPTH).partition_depth == MAX_DEPTH
    assert main(["metric-check", "--depth", "30"]) == 2
    for depth in (1.5, True):
        scene = {"groups": {"rot4": [[[0, -1], [1, 0]]]},
                 "subgroups": {"all": {"parent": "rot4", "generator_indices": [1]}},
                 "subspaces": {"origin": {"base": [0, 0]}},
                 "probes": {"p": {"group": "rot4", "subgroup": "all", "subspace": "origin",
                                  "pairs": [], "depth": depth}}}
        with pytest.raises(InvalidMetricSetting):
            parse_scene(json.dumps(scene))
    assert probe.with_settings() is probe
    assert probe.with_settings(depth=0).partition_depth == 0


def test_lemma_requires_saturated():
    chart = rot4_chart()
    trivial = chart.group.subgroup_from_indices([chart.group.identity])
    probe = MetricProbe(
        chart.group, trivial, x_axis(), ((vec([0, 0]), vec([1, 0])),)
    )
    with pytest.raises(CandidateNotSaturated):
        lemma_metrics_check(probe)


def test_refinement_monotone_in_depth():
    probe = metric_probes()["rotation-line"]
    x, y = probe.sample_pairs[0]
    values = []
    for depth in range(0, 6):
        p = MetricProbe(
            probe.group, probe.subgroup, probe.subspace, probe.sample_pairs,
            depth, probe.tolerance,
        )
        values.append(intrinsic_quotient_distance(p, x, y))
    for a, b in zip(values, values[1:]):
        assert b >= a - 1e-12


def test_intrinsic_at_least_quotient():
    # path length can never undercut the chordal quotient distance
    for probe in metric_probes().values():
        for x, y in probe.sample_pairs:
            dq = quotient_distance(probe.subgroup, x, y)
            di = intrinsic_quotient_distance(probe, x, y)
            assert di >= dq - 1e-12


def test_corpus_metric_coincidence():
    for name, report in run_metric_corpus().items():
        assert report.passed, (name, report.max_deviation)
        assert report.max_deviation <= 1e-9


def test_randomized_saturated_candidates_coincide():
    rng = random.Random(77)
    checked = 0
    while checked < 10:
        cand = random_candidate(rng, max_group_order=8, max_dim=3)
        from suborbifolds.classify import check_saturated

        if cand.v.dim == 0 or not check_saturated(cand).holds:
            continue
        pts = sample_in_subspace(cand.v, rng, 3)
        devs = []
        for depth in (4, 6, 8):
            probe = MetricProbe(
                cand.chart.group, cand.delta, cand.v,
                tuple((pts[0], p) for p in pts[1:]),
                partition_depth=depth,
            )
            devs.append(lemma_metrics_check(probe).max_deviation)
        # deviations converge to zero as the partition refines
        assert devs[-1] <= 0.05
        if devs[0] > 1e-10:
            assert devs[-1] <= devs[0] / 2 + 1e-12
        checked += 1


def test_failure_hint_mentions_depth():
    # force a failure by shrinking tolerance below float noise
    probe = metric_probes()["diagonal-half-turn"]
    tight = MetricProbe(
        probe.group, probe.subgroup, probe.subspace, probe.sample_pairs,
        probe.partition_depth, 1e-16,
    )
    report = lemma_metrics_check(tight)
    if not report.passed:
        assert "depth" in report.hint


ROTATION_SCENE = Path(__file__).resolve().parent.parent / "scenes" / "rotation_line.json"


def _shipped_probes():
    with open(ROTATION_SCENE) as fh:
        scene = parse_scene(fh.read())
    return list(metric_probes().values()) + list(scene.probes.values())


def test_closed_form_equals_per_point_oracle_on_shipped_probes():
    # Exact float equality: the closed form must reproduce the per-point
    # Fraction evaluation bit for bit, so reports keep their bytes. The
    # oracle stops at the default depth, which every shipped report uses:
    # per-point Fraction sums up to MAX_DEPTH take about half a minute.
    for probe in _shipped_probes():
        probe = probe.with_settings(depth=DEFAULT_DEPTH)
        for x, y in probe.sample_pairs:
            expected = oracle_intrinsic_distances(probe, x, y)
            for depth, value in enumerate(expected):
                got = intrinsic_quotient_distance(probe.with_settings(depth=depth), x, y)
                assert got == value, (x, y, depth)


def test_closed_form_equals_per_point_oracle_on_random_probes():
    rng = random.Random(2024)
    checked = off_origin = nontrivial_h = deepest = 0
    while checked < 30:
        cand = random_candidate(rng, max_group_order=48)
        if cand.v.dim == 0:
            continue
        group, delta = cand.chart.group, cand.delta
        # Cap the oracle's work (one Fraction mat_vec per group element,
        # subgroup element and piece) so the test stays short.
        depth = rng.randint(0, 8)
        while group.order * delta.order * (2 ** (depth + 1) - 1) > 2048:
            depth -= 1
        x, y = sample_in_subspace(cand.v, rng, 3)[1:]
        probe = MetricProbe(group, delta, cand.v, ((x, y),), partition_depth=depth)
        expected = oracle_intrinsic_distances(probe, x, y)
        for k, value in enumerate(expected):
            assert intrinsic_quotient_distance(probe.with_settings(depth=k), x, y) == value
        checked += 1
        off_origin += not contains_point(cand.v, zero_vec(len(x)))
        nontrivial_h += delta.order > 1
        deepest = max(deepest, depth)
    assert off_origin >= 5 and nontrivial_h >= 10 and deepest == 8


def test_metric_probe_work_does_not_grow_with_depth(monkeypatch):
    # One mat_vec per group element for x, and per subgroup element h one
    # for h y and one per group element for the segment direction; the
    # pieces cost no matrix product at any depth.
    calls = []

    def counting_mat_vec(m, v):
        calls.append(1)
        return mat_vec(m, v)

    monkeypatch.setattr(metric, "mat_vec", counting_mat_vec)
    for probe in _shipped_probes():
        g, h = probe.group.order, probe.subgroup.order
        x, y = probe.sample_pairs[-1]
        counts = []
        for depth in (0, DEFAULT_DEPTH):
            calls.clear()
            intrinsic_quotient_distance(probe.with_settings(depth=depth), x, y)
            counts.append(len(calls))
        assert counts[0] == counts[1] <= h * (2 * g + 1)
