"""Quotient metric vs intrinsic metric on invariant subspaces."""
import json
import random
import re
import sys
from itertools import accumulate
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from suborbifolds.classify import ChartModel, SuborbifoldCandidate
from suborbifolds.cli import main
from suborbifolds.corpus import (
    SIGN_X,
    klein_chart,
    metric_probes,
    rot4_chart,
    rotation_line_candidate,
    x_axis,
)
from suborbifolds import groups, linalg, metric
from suborbifolds.errors import (
    CandidateNotSaturated,
    ChartMismatch,
    DimensionMismatch,
    InvalidMetricSetting,
    NonOrthogonalGroup,
    PointNotInV,
)
from suborbifolds.groups import all_subgroups, generate_group
from suborbifolds.linalg import (
    contains_point,
    int_mat_vec,
    mat,
    vec,
    whole_space,
)
from suborbifolds.metric import (
    DEFAULT_DEPTH,
    MAX_DEPTH,
    MetricProbe,
    intrinsic_quotient_distance,
    lemma_metrics_check,
    quotient_distance,
)
from suborbifolds.scene import parse_scene

from oracles import (
    hyperoctahedral_generators,
    oracle_intrinsic_distances,
    oracle_mat_vec,
    oracle_piece_segment_sum,
    oracle_piece_sums,
    oracle_quotient_distance,
    random_candidate,
    sample_in_subspace,
    zero_vec,
)


def _on_whole_space(group, delta=None):
    """The candidate of delta, by default the whole group, on all of R^n."""
    delta = group.full_subgroup() if delta is None else delta
    return SuborbifoldCandidate(ChartModel(group), delta, whole_space(group.ambient_dim))


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
            gx = oracle_mat_vec(g.elements[idx].matrix, x)
            assert quotient_distance(g, gx, y) == pytest.approx(dxy, abs=1e-12)


def test_orthogonality_required():
    skew = generate_group([mat([[0, Fraction(-1, 2)], [2, 0]])])
    assert skew.order == 4
    with pytest.raises(NonOrthogonalGroup):
        quotient_distance(skew, [1, 0], [0, 1])
    # Generated by element 2, whose inverse, element 1, fails first.
    inverse_first = generate_group([mat([[0, Fraction(1, 2)], [-2, 0]])])
    assert inverse_first.generators == (2,)
    with pytest.raises(NonOrthogonalGroup, match="element 1 is"):
        quotient_distance(inverse_first, [1, 0], [0, 1])


def test_probe_validates_points():
    with pytest.raises(PointNotInV, match=r"^sample pair \[0, 1\], \[1, 0\] leaves the subspace$"):
        MetricProbe(
            rotation_line_candidate(rot4_chart()),
            ((vec([0, 1]), vec([1, 0])),),
        )
    probe = metric_probes()["rotation-line"]
    for settings in ({"depth": -1}, {"depth": MAX_DEPTH + 1}, {"depth": 30},
                     {"depth": 1.5}, {"depth": True},
                     {"tolerance": -1e-9}, {"tolerance": float("nan")},
                     {"tolerance": True}, {"tolerance": float("inf")}, {"tolerance": 1e309}):
        with pytest.raises(InvalidMetricSetting):
            probe.with_settings(**settings)
    assert probe.with_settings(depth=MAX_DEPTH).partition_depth == MAX_DEPTH
    assert main(["metric-check", "--depth", "30"]) == 2
    for tol in ("inf", "1e309"):
        assert main(["metric-check", "--tol", tol, "--format", "machine"]) == 2
    for setting in ('"depth": 1.5', '"depth": true', '"tolerance": true',
                    '"tolerance": 1e309'):
        scene = ('{"groups": {"rot4": [[[0, -1], [1, 0]]]},'
                 ' "subgroups": {"all": {"parent": "rot4", "generator_indices": [1]}},'
                 ' "subspaces": {"origin": {"base": [0, 0]}},'
                 ' "probes": {"p": {"group": "rot4", "subgroup": "all", "subspace": "origin",'
                 ' "pairs": [], ' + setting + '}}}')
        with pytest.raises(InvalidMetricSetting):
            parse_scene(scene)
    assert probe.with_settings() is probe
    assert probe.with_settings(depth=0).partition_depth == 0
    # the copy equals the probe built with those settings, and leaves self as it was
    assert probe.with_settings(depth=3, tolerance=0.5) == MetricProbe(
        probe.candidate, probe.sample_pairs, 3, 0.5)
    assert (probe.partition_depth, probe.tolerance) == (DEFAULT_DEPTH, 1e-9)
    # a probe without pairs printed PASS with max_deviation 0.0
    with pytest.raises(InvalidMetricSetting, match="at least one sample pair"):
        MetricProbe(probe.candidate, (), probe.partition_depth, probe.tolerance)


def test_lemma_requires_saturated():
    chart = rot4_chart()
    trivial = chart.group.subgroup_from_indices([chart.group.identity])
    probe = MetricProbe(
        SuborbifoldCandidate(chart, trivial, x_axis()), ((vec([0, 0]), vec([1, 0])),)
    )
    with pytest.raises(CandidateNotSaturated,
                       match=re.escape("candidate is not saturated (witness: element 0 at [-1, 0])")):
        lemma_metrics_check(probe)


def test_a_probe_on_a_subgroup_of_another_group_is_refused():
    # A Klein subgroup on the rot4 chart was accepted: for {I, diag(-1, 1)},
    # intrinsic_quotient_distance read rot4's elements at its member indices,
    # a quarter turn in place of diag(-1, 1), and gave 2.236 from (1, 0) to
    # (-2, 0) instead of 1. A scene's probe was built so too, and refused
    # only by lemma_metrics_check.
    rot, klein = rot4_chart(), klein_chart()
    flip = klein.group.subgroup_from_matrices([SIGN_X])
    with pytest.raises(ChartMismatch, match="subgroup does not live in the chart group"):
        MetricProbe(SuborbifoldCandidate(rot, flip, x_axis()), ((vec([1, 0]), vec([-2, 0])),))
    raw = json.loads(ROTATION_SCENE.read_text())
    raw["probes"]["rotation_line"]["subgroup"] = "diag_half_turn"
    with pytest.raises(ChartMismatch, match="subgroup does not live in the chart group"):
        parse_scene(json.dumps(raw))


def test_lemma_reads_the_saturation_of_the_probes_candidate(monkeypatch):
    # lemma_metrics_check builds no chart and no candidate: it reads the
    # verdict of the probe's candidate, which every copy with_settings makes
    # shares, so the verdict is computed once per probe.
    classify = sys.modules["suborbifolds.classify"]

    def refuse(*args, **kwargs):
        raise AssertionError("lemma_metrics_check built a chart or a candidate")

    check_saturated = classify.check_saturated
    for probe in _shipped_probes():
        verdicts = []
        with monkeypatch.context() as patch:
            patch.setattr(classify, "check_saturated",
                          lambda cand: verdicts.append(cand) or check_saturated(cand))
            patch.setattr(classify.ChartModel, "__init__", refuse)
            patch.setattr(classify.SuborbifoldCandidate, "__init__", refuse)
            for depth, tolerance in ((None, None), (0, None), (MAX_DEPTH, 1e-6), (None, 0.5)):
                assert lemma_metrics_check(probe.with_settings(depth, tolerance)).passed
        assert len(verdicts) == 1 and verdicts[0] is probe.candidate


def test_refinement_monotone_in_depth():
    probe = metric_probes()["rotation-line"]
    x, y = probe.sample_pairs[0]
    values = []
    for depth in range(0, 6):
        p = MetricProbe(probe.candidate, probe.sample_pairs, depth, probe.tolerance)
        values.append(intrinsic_quotient_distance(p, x, y))
    for a, b in zip(values, values[1:]):
        assert b >= a - 1e-12


def test_intrinsic_at_least_quotient():
    # path length can never undercut the chordal quotient distance
    for probe in metric_probes().values():
        for x, y in probe.sample_pairs:
            dq = quotient_distance(probe.candidate.delta, x, y)
            di = intrinsic_quotient_distance(probe, x, y)
            assert di >= dq - 1e-12


def test_corpus_metric_coincidence():
    for name, probe in metric_probes().items():
        report = lemma_metrics_check(probe)
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
                cand, tuple((pts[0], p) for p in pts[1:]), partition_depth=depth,
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
    tight = MetricProbe(probe.candidate, probe.sample_pairs, probe.partition_depth, 1e-16)
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
        # Cap the oracle's work (one oracle_mat_vec per group element,
        # subgroup element and piece) so the test stays short.
        depth = rng.randint(0, 8)
        while group.order * delta.order * (2 ** (depth + 1) - 1) > 2048:
            depth -= 1
        x, y = sample_in_subspace(cand.v, rng, 3)[1:]
        probe = MetricProbe(cand, ((x, y),), partition_depth=depth)
        expected = oracle_intrinsic_distances(probe, x, y)
        for k, value in enumerate(expected):
            assert intrinsic_quotient_distance(probe.with_settings(depth=k), x, y) == value
        checked += 1
        off_origin += not contains_point(cand.v, zero_vec(len(x)))
        nontrivial_h += delta.order > 1
        deepest = max(deepest, depth)
    assert off_origin >= 5 and nontrivial_h >= 10 and deepest == 8


def test_each_pairs_quotient_is_quotient_distance_bit_for_bit():
    # lemma_metrics_check reads a pair's quotient distance off the intrinsic
    # walk's shortest segment; it must be the float quotient_distance gives,
    # on the shipped probes and on the random probes of the tests above.
    probes = _shipped_probes()
    for seed, max_order, max_dim in ((77, 8, 3), (2024, 48, 4)):
        rng = random.Random(seed)
        found = 0
        while found < 10:
            cand = random_candidate(rng, max_group_order=max_order, max_dim=max_dim)
            if cand.v.dim == 0 or not cand.saturation.holds:
                continue
            pts = sample_in_subspace(cand.v, rng, 3)
            probes.append(MetricProbe(cand, tuple((pts[0], p) for p in pts[1:]),
                                      partition_depth=rng.randint(0, 4)))
            found += 1
    for probe in probes:
        report = lemma_metrics_check(probe)
        assert len(report.pairs) == len(probe.sample_pairs)
        for pair, (x, y) in zip(report.pairs, probe.sample_pairs):
            assert pair.quotient == quotient_distance(probe.candidate.delta, x, y), (x, y)


def test_metric_probe_work_does_not_grow_with_depth(monkeypatch):
    # One int_mat_vec per group element for x, and per subgroup element h
    # one for h y and one per group element for the segment direction; the
    # pieces cost no matrix product at any depth.
    calls = []

    def counting_int_mat_vec(rows, xs):
        calls.append(1)
        return int_mat_vec(rows, xs)

    monkeypatch.setattr(metric, "int_mat_vec", counting_int_mat_vec)
    for probe in _shipped_probes():
        g, h = probe.candidate.chart.group.order, probe.candidate.delta.order
        x, y = probe.sample_pairs[-1]
        counts = []
        for depth in (0, DEFAULT_DEPTH):
            calls.clear()
            intrinsic_quotient_distance(probe.with_settings(depth=depth), x, y)
            counts.append(len(calls))
        assert 0 < counts[0] == counts[1] <= h * (2 * g + 1)


def test_metric_check_tests_each_sample_point_once(monkeypatch, capsys):
    # The probe checks its sample pairs when it is built; its run computes
    # the intrinsic distance of the checked pairs without checking them
    # again, while intrinsic_quotient_distance still checks its points.
    calls = []
    coordinates = linalg.coordinates

    def counting(v, x):
        calls.append(1)
        return coordinates(v, x)

    # --depth and --tol rebuild no probe: the new settings are checked alone.
    for argv, probes in ((["metric-check"], metric_probes()),
                         (["metric-check", "--scene", str(ROTATION_SCENE)],
                          parse_scene(ROTATION_SCENE.read_text()).probes)):
        for settings_argv in ([], ["--depth", "12"], ["--tol", "1e-6"],
                              ["--depth", "0", "--tol", "0"]):
            calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(linalg, "coordinates", counting)
                assert main(argv + settings_argv) == 0
            assert len(calls) == 2 * sum(len(p.sample_pairs) for p in probes.values())
    capsys.readouterr()
    probe = metric_probes()["rotation-line"]
    with pytest.raises(PointNotInV, match=r"^\[0, 1\] is not in the subspace$"):
        intrinsic_quotient_distance(probe, vec([0, 1]), vec([1, 0]))
    with pytest.raises(PointNotInV, match=r"^\[1/2, 1\] is not in the subspace$"):
        intrinsic_quotient_distance(probe, vec([1, 0]), vec(["1/2", 1]))


def test_metric_check_tests_orthogonality_once_per_probe(monkeypatch, capsys):
    # Building a probe checks its whole group; its run reads the quotient
    # distance of each pair on the subgroup without checking it again,
    # while quotient_distance still checks its group.
    checked = []
    require_orthogonal = metric._require_orthogonal
    monkeypatch.setattr(metric, "_require_orthogonal",
                        lambda group: checked.append(group) or require_orthogonal(group))
    for argv, count in ((["metric-check"], len(metric_probes())),
                        (["metric-check", "--scene", str(ROTATION_SCENE)],
                         len(parse_scene(ROTATION_SCENE.read_text()).probes))):
        for settings_argv in ([], ["--depth", "12"], ["--tol", "1e-6"],
                              ["--depth", "0", "--tol", "0"]):
            checked.clear()
            assert main(argv + settings_argv) == 0
            assert len(checked) == count
    capsys.readouterr()
    for probe in _shipped_probes():
        assert len(probe.sample_pairs) > 1
        checked.clear()
        lemma_metrics_check(probe)
        assert checked == []
    skew = generate_group([mat([[0, Fraction(-1, 2)], [2, 0]])])
    for group in (skew, skew.full_subgroup()):
        with pytest.raises(NonOrthogonalGroup):
            quotient_distance(group, [1, 0], [0, 1])
    with pytest.raises(NonOrthogonalGroup):
        MetricProbe(_on_whole_space(skew), ((vec([1, 0]), vec([0, 1])),))


def test_corpus_probe_charts_are_built_once_per_process(monkeypatch):
    # The corpus charts' groups are kept by groups.group_from_forms and
    # shared by the cases and the probes: a later call closes no group, but
    # it still builds both probes and runs their orthogonality checks, and
    # still classifies every case. Each probe is on the candidate its corpus
    # case classifies, over the same group.
    corpus = sys.modules["suborbifolds.corpus"]
    first = metric_probes()
    assert corpus.run_corpus().ok
    checked = []
    require_orthogonal = metric._require_orthogonal

    def refuse(*args, **kwargs):
        raise AssertionError("a corpus group was closed again")

    monkeypatch.setattr(groups, "_close", refuse)
    monkeypatch.setattr(metric, "_require_orthogonal",
                        lambda group: checked.append(group) or require_orthogonal(group))
    second = metric_probes()
    assert len(checked) == len(second) == 2
    for name, probe in second.items():
        assert probe is not first[name] and probe == first[name]
        assert probe.candidate.chart.group is first[name].candidate.chart.group
    assert corpus.run_corpus().ok
    candidates = {case.name: case.build() for case in corpus.CASES}
    chart_groups = {name: cand.chart.group for name, cand in candidates.items()}
    for name, probe in second.items():
        assert candidates[name] == probe.candidate
        assert chart_groups[name] is probe.candidate.chart.group
    assert chart_groups["point-in-rotation-chart"] is chart_groups["rotation-line"]
    assert chart_groups["open-sign-chart"] is chart_groups["diagonal-half-turn"]
    assert chart_groups["open-line-chart"] is chart_groups["point-in-line-chart"]


# A reflection with denominator 3: I - (2/3) J fixes the plane x + y + z = 0
# and negates (1, 1, 1).
THIRDS = generate_group([mat([["1/3", "-2/3", "-2/3"],
                              ["-2/3", "1/3", "-2/3"],
                              ["-2/3", "-2/3", "1/3"]])])


def test_quotient_distance_equals_fraction_oracle():
    rng = random.Random(41)
    groups = [THIRDS] * 5
    while len(groups) < 45:
        cand = random_candidate(rng, max_group_order=48)
        groups += [cand.chart.group, cand.delta]
    for g in groups:
        n = g.parent.ambient_dim
        x, y = ([Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3])) for _ in range(n)]
                for _ in range(2))
        assert quotient_distance(g, x, y) == oracle_quotient_distance(g, x, y)
    # a point of the wrong length was cut short by zip when it was x
    with pytest.raises(DimensionMismatch):
        quotient_distance(rot4_chart().group, [1, 0, 0], [0, 1])


def test_closed_form_equals_per_point_oracle_with_a_denominator():
    pairs = ((vec(["1/2", 0, "-1/3"]), vec([1, "2/5", 0])),
             (vec([0, 0, 0]), vec(["3/4", "3/4", "-1/6"])))
    probe = MetricProbe(_on_whole_space(THIRDS), pairs, partition_depth=6)
    assert THIRDS.integer_forms[0] == 3 and THIRDS.order == 2
    for x, y in pairs:
        expected = oracle_intrinsic_distances(probe, x, y)
        for depth, value in enumerate(expected):
            assert intrinsic_quotient_distance(probe.with_settings(depth=depth), x, y) == value
        assert quotient_distance(THIRDS, x, y) == oracle_quotient_distance(THIRDS, x, y)


def test_envelope_equals_per_piece_oracle_on_shipped_probes_to_max_depth(monkeypatch):
    # The per-point Fraction oracle stops at the default depth; the integer
    # per-piece oracle is fast enough for every depth up to MAX_DEPTH.
    cases = [(probe.with_settings(depth=depth), x, y)
             for probe in _shipped_probes() for x, y in probe.sample_pairs
             for depth in range(MAX_DEPTH + 1)]
    got = [intrinsic_quotient_distance(*case) for case in cases]
    monkeypatch.setattr(metric, "_segment_sum", oracle_piece_segment_sum)
    assert got == [intrinsic_quotient_distance(*case) for case in cases]


def _form(a, d, gd):
    """The segment form (A, B, B', C, D, E) of integer vectors a, d and gd:
    N^2 |p - g q|^2 on piece i is |N a + (i - 1) d - i gd|^2."""
    def dot(u, v):
        return sum(p * q for p, q in zip(u, v))
    return (dot(a, a), dot(d, d), dot(gd, gd), dot(a, d), dot(a, gd), dot(d, gd))


@st.composite
def segments(draw):
    """(scale, forms, pieces) with forms from integer vectors, duplicates
    included, and always the identity's form (a = 0, g d = d), whose
    quadratic is constant, as on every real segment."""
    pieces = draw(st.integers(1, 4096))
    dim = draw(st.integers(1, 3))
    small = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim)
    # a scaled with N so that the quadratics cross inside 1..N
    offset = st.lists(st.integers(-3 * pieces, 3 * pieces), min_size=dim, max_size=dim)
    d = draw(small)
    elements = [([0] * dim, d)] + draw(st.lists(st.tuples(offset, small), max_size=6))
    elements += draw(st.lists(st.sampled_from(elements), max_size=3))
    forms = [_form([c // pieces for c in a] if draw(st.booleans()) else a, d, gd)
             for a, gd in elements]
    return draw(st.integers(1, 36)), forms, pieces


@settings(max_examples=150, deadline=None)
@given(segments())
def test_envelope_equals_per_piece_oracle(segment):
    assert metric._segment_sum(*segment) == oracle_piece_segment_sum(*segment)


def test_envelope_covers_ties_duplicates_and_each_curvature(monkeypatch):
    # Seeded forms from integer vectors, always with the identity's
    # (constant) one, checked against the per-piece oracle, with a tally of
    # what the per-piece minimum goes through: the difference quadratic
    # between the minimiser at i and a new one at i + 1 (convex, linear or
    # concave), pieces where distinct quadratics tie for the minimum,
    # duplicate forms, and the pieces summed in constant runs and in the
    # others.
    rng = random.Random(1616)
    switches = {-1: 0, 0: 0, 1: 0}
    ties = duplicates = 0
    constant_pieces = []
    repeat = metric.repeat
    monkeypatch.setattr(metric, "repeat",
                        lambda value, times: constant_pieces.append(times) or repeat(value, times))
    all_pieces = [1, 2, 3, 4, 5, 8, 17, 100, 256, 1000, 4096] * 20
    for pieces in all_pieces:
        dim = rng.randint(1, 2)
        length = rng.choice([1, pieces])
        d = [rng.randint(-2, 2) * length for _ in range(dim)]
        # two images g d, so that quadratics share their curvature; near a
        # long d, so that other quadratics undercut the identity's on long
        # runs
        near = d if length > 1 else [0] * dim
        images = [[c + rng.randint(-2, 2) for c in near] for _ in range(2)]
        elements = [([0] * dim, d)] + [
            ([rng.randint(-2 * pieces, 2 * pieces) // rng.choice([1, pieces])
              for _ in range(dim)], rng.choice(images))
            for _ in range(rng.randint(2, 8))]
        elements += rng.sample(elements, rng.randint(0, len(elements)))
        forms = [_form(a, d, gd) for a, gd in elements]
        scale = rng.randint(1, 12)
        assert metric._segment_sum(scale, forms, pieces) == \
            oracle_piece_segment_sum(scale, forms, pieces)
        duplicates += len(set(forms)) < len(forms)
        n = pieces
        quadratics = {(b + b2 - 2 * e, 2 * (e - b) + 2 * n * (c - dd), n * n * a + b - 2 * n * c)
                      for a, b, b2, c, dd, e in forms}
        previous = None
        for i in range(1, n + 1):
            values = {q: (q[0] * i + q[1]) * i + q[2] for q in quadratics}
            least = min(values.values())
            winners = sorted(q for q in quadratics if values[q] == least)
            ties += len(winners) > 1
            if previous is not None and previous not in winners:
                curvature = winners[0][0] - previous[0]
                switches[(curvature > 0) - (curvature < 0)] += 1
            if previous not in winners:
                previous = winners[0]
    constant = sum(constant_pieces)
    others = sum(all_pieces) - constant
    assert min(switches.values()) >= 5 and ties >= 20 and duplicates >= 20, \
        (switches, ties, duplicates)
    assert constant >= 20000 and others >= 5000, (constant, others)


def _linear_scan(a, b, c, lo, hi):
    return [k for k in range(lo, hi + 1) if (a * k + b) * k + c < 0]


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 1000), st.integers(-40, 40), st.integers(-40, 40),
       st.integers(-10 ** 4, 10 ** 4),
       st.one_of(st.just(0), st.integers(-10 ** 12, 10 ** 12)),
       st.integers(-50, 50), st.integers(-50, 50))
@example(1, 0, 0, 5, 0, -10, 10)      # discriminant < 0
@example(1, 2, 2, 0, 0, -10, 10)      # discriminant 0: zero at 2, negative nowhere
@example(1, 2, 3, 0, 0, -10, 10)      # perfect square, roots 2 and 3: no integer between
@example(2, 1, 4, 0, 0, -10, 10)      # perfect square, roots 1 and 4: 2..3
@example(1, 1, 4, 0, 0, 1, 4)         # roots at lo and hi
@example(1, 1, 4, 0, 0, 2, 3)         # the range ends inside the interval
@example(1, 0, 0, -2, 0, -5, 5)       # roots -+sqrt 2: isqrt is one short at both ends
@example(1, 0, 0, -9, 0, 5, 4)        # lo > hi
@example(0, 0, 0, -1, 0, -3, 3)       # constant and negative: all of lo..hi
@example(0, 0, 0, 0, 0, -3, 3)        # constant zero: nowhere
@example(1000, 0, 1, -1, 10 ** 12, -5, 5)   # roots near 10**12, apart by about 1
def test_below_zero_matches_a_linear_scan(a, r, s, e, center, lo, hi):
    # a (k - center - r)(k - center - s) + e, scanned on a window near the
    # roots: for a > 0 every kind of discriminant, integer and irrational
    # roots, both near 0 and near 10**12, where isqrt must be exact; for
    # a = 0 a constant.
    b, c = -a * (2 * center + r + s), a * (center + r) * (center + s) + e
    lo, hi = center + lo, center + hi
    assert list(metric._below_zero(a, b, c, lo, hi)) == _linear_scan(a, b, c, lo, hi)


def test_below_zero_refuses_a_linear_quadratic():
    # alpha = 0 forces beta = 0 on a real segment (g d = d), so a line is a
    # fault in the forms, not an input.
    for beta in (1, -3):
        with pytest.raises(AssertionError):
            metric._below_zero(0, beta, 0, 0, 10)
    with pytest.raises(AssertionError):
        metric._below_zero(-1, 0, 0, 0, 10)


def _pruning_cases(rng):
    """(probe, x, y) with probes of every kind the pruning meets: the
    shipped probes, THIRDS, and B2 and B3 on the whole space with
    subgroups of order >= 4 (every one of B2's, 8 random ones of B3's) and
    random points, at random depths."""
    cases = [(probe, x, y) for probe in _shipped_probes() for x, y in probe.sample_pairs]
    pairs = ((vec(["1/2", 0, "-1/3"]), vec([1, "2/5", 0])),
             (vec([0, 0, 0]), vec(["3/4", "3/4", "-1/6"])))
    cases += [(MetricProbe(_on_whole_space(THIRDS), pairs), x, y) for x, y in pairs]
    for n, count in ((2, 4), (3, 8)):
        group = generate_group(hyperoctahedral_generators(n))
        subgroups = sorted((s for s in all_subgroups(group) if s.order >= 4),
                           key=lambda s: s.members)
        for delta in rng.sample(subgroups, count):
            x, y = ([Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
                    for _ in range(2))
            probe = MetricProbe(_on_whole_space(group, delta), ((vec(x), vec(y)),),
                                partition_depth=rng.randint(0, 7))
            cases.append((probe, vec(x), vec(y)))
    return cases


def test_pruned_distance_equals_every_sup_at_every_depth():
    # Dropping an h once one of its sums reaches the best sup so far, and
    # walking the shortest segments first, gives the min over h of the
    # per-h sup over all depths, every sum computed: at every depth, on
    # pairs whose minimiser is the first member and on pairs where it is
    # not.
    rng = random.Random(4729)
    later_minimiser = large = 0
    for probe, x, y in _pruning_cases(rng):
        sups = [list(accumulate(row, max)) for row in oracle_piece_sums(probe, x, y)]
        for depth in range(probe.partition_depth + 1):
            got = intrinsic_quotient_distance(probe.with_settings(depth=depth), x, y)
            assert got == min(row[depth] for row in sups), (x, y, depth)
        last = [row[-1] for row in sups]
        later_minimiser += last.index(min(last)) > 0
        large += probe.candidate.delta.order >= 4
    assert later_minimiser >= 5 and large == 12, (later_minimiser, large)


def test_golden_pair_sup_is_not_at_the_deepest_level():
    # The float sums need not grow with depth: on the rotation line the
    # pair (1/2, -1/3) has its sup above its deepest sum, so the pruning
    # may drop an h at its deepest sum but must not stop there for the
    # minimiser, the half turn.
    probe = metric_probes()["rotation-line"]
    x, y = vec(["1/2", 0]), vec(["-1/3", 0])
    assert (x, y) in probe.sample_pairs
    half_turn, identity = oracle_piece_sums(probe, x, y)
    assert half_turn[-1] == 0.1666666666666664 < max(half_turn) == 0.16666666666666677
    assert identity[-1] > max(half_turn)
    assert intrinsic_quotient_distance(probe, x, y) == 0.16666666666666677


def test_corpus_probes_drop_subgroup_elements_that_cannot_win(monkeypatch):
    # Unpruned, each pair sums every depth for every h: |Delta| (D + 1) sums.
    calls = []
    segment_sum = metric._segment_sum
    monkeypatch.setattr(metric, "_segment_sum",
                        lambda *args: calls.append(1) or segment_sum(*args))
    for depth in (DEFAULT_DEPTH, MAX_DEPTH):
        for probe in metric_probes().values():
            probe = probe.with_settings(depth=depth)
            for x, y in probe.sample_pairs:
                calls.clear()
                intrinsic_quotient_distance(probe, x, y)
                assert len(calls) < probe.candidate.delta.order * (depth + 1), (x, y, depth)
