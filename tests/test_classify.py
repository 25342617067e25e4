"""Classification verdicts: worked examples, witness replay, oracle
equivalence on randomized candidates, two-path isotropy."""
import gc
import json
import os
import random
import sys
import time
import weakref
from fractions import Fraction

import pytest

from suborbifolds.classify import (
    SuborbifoldCandidate,
    _agrees_on,
    _first_moving_element,
    _witness_point,
    abelian_omega_isotropy,
    chart_from_group,
    check_embedded,
    check_full,
    check_saturated,
    classify,
    contained_in_regular_part,
    full_obstruction_probe,
    induced_chart,
    isotropy_point,
    isotropy_sub_point,
    localize_chart,
)
from suborbifolds.corpus import (
    ROT4_GEN,
    SIGN_X,
    complex_axis_candidate,
    diagonal_half_turn_candidate,
    klein_chart,
    metric_probes,
    point_candidate,
    product_diagonal_candidate,
    rot4_chart,
    rotation_line_candidate,
    run_corpus,
    x_axis,
    z4_realified_chart,
)
from suborbifolds.errors import (
    CandidateNotSaturated,
    DimensionMismatch,
    GroupNotAbelian,
    NonInvariant,
    PointNotInV,
)
import suborbifolds.groups as groups
from suborbifolds.groups import (
    FiniteMatrixGroup, Subgroup, generate_group, pointwise_stabilizer, stabilizer,
)
from suborbifolds.maps import product_chart
from suborbifolds.metric import lemma_metrics_check
from suborbifolds.scene import (
    candidate_json, classification_json, dump_machine_report, parse_scene, strip_timing,
)
from suborbifolds.linalg import (
    affine_subspace, transform_subspace, vec, whole_space,
)

from oracles import (
    conjugate_all,
    first_fixing_element,
    hyperoctahedral_generators,
    int_form,
    matrices_of,
    oracle_canonical_subspace,
    oracle_check_saturated,
    oracle_embedded_by_lattice,
    oracle_full,
    oracle_images,
    oracle_induced_chart,
    oracle_intersect,
    oracle_least_complement,
    oracle_map_subspace,
    oracle_mat_mul,
    oracle_mat_vec,
    oracle_pointwise_stabilizer,
    oracle_saturated_sampled,
    oracle_setwise_stabilizer,
    random_candidate,
    random_rational_basis_change,
    sample_in_subspace,
    signed_permutation,
    signed_permutation_matrices,
    stabilizer_candidate,
    verify_fullness_witness,
    verify_saturation_witness,
    zero_vec,
)


def test_corpus_all_pass():
    report = run_corpus()
    assert report.ok, report.mismatches


def test_rotation_line_verdicts_and_witness():
    cand = rotation_line_candidate(rot4_chart())
    assert check_saturated(cand).holds
    full = check_full(cand)
    assert not full.holds
    # canonical witness: the quarter rotation fixing the origin
    assert full.witness.element.matrix == ROT4_GEN
    assert full.witness.point == vec([0, 0])
    assert verify_fullness_witness(cand, full.witness)
    assert check_embedded(cand).holds


def test_not_saturated_example_with_witness():
    # trivial subgroup on the x-axis: the half turn maps the axis to
    # itself but is matched by no subgroup element away from the origin
    chart = rot4_chart()
    trivial = chart.group.subgroup_from_indices([chart.group.identity])
    cand = SuborbifoldCandidate(chart, trivial, x_axis())
    verdict = check_saturated(cand)
    assert not verdict.holds
    assert verify_saturation_witness(cand, verdict.witness)
    with pytest.raises(CandidateNotSaturated):
        check_full(cand)
    with pytest.raises(CandidateNotSaturated):
        check_embedded(cand)


def test_noninvariant_subspace_rejected():
    chart = rot4_chart()
    with pytest.raises(NonInvariant):
        SuborbifoldCandidate(
            chart, chart.group.full_subgroup(), x_axis()
        )
    # The message names the first moving element in index order, although
    # invariance is decided on generators (here the generators of B3 move
    # the plane, and element 0 does not).
    b3 = generate_group(hyperoctahedral_generators(3))
    v = affine_subspace([0, 0, 0], [[1, 0, 0], [0, 1, 0]])
    first = next(i for i, m in enumerate(matrices_of(b3))
                 if transform_subspace(int_form(m), v) != v)
    assert first > 0
    with pytest.raises(NonInvariant, match=f"subgroup element {first}$"):
        SuborbifoldCandidate(chart_from_group(b3), b3.full_subgroup(), v)
    # A subgroup picks its generators in member order, so its first moving
    # member is always one of them; a generated group keeps the given ones.
    assert first not in b3.generators and _first_moving_element(b3, v) == first


def test_complex_axis_not_embedded_even_after_search():
    cand = complex_axis_candidate(z4_realified_chart())
    result = check_embedded(cand, search_all_delta=True)
    assert not result.holds
    assert result.searched_all_delta
    assert result.certificate is not None


def test_diagonal_half_turn_obstruction():
    cand = diagonal_half_turn_candidate(klein_chart())
    assert not full_obstruction_probe(cand, [0, 0])
    assert isotropy_sub_point(cand, [0, 0]).order == 2
    assert abelian_omega_isotropy(cand.chart, cand.v, [0, 0]).order == 4


def _rational_b3_candidate():
    """A saturated candidate on a rational conjugate of B3 whose V has
    basis rows and an induced-chart centroid with denominators > 1."""
    rng = random.Random(11)
    s, s_inv = random_rational_basis_change(rng, 3)
    chart = chart_from_group(generate_group(conjugate_all(hyperoctahedral_generators(3), s, s_inv)))
    while True:
        cand = stabilizer_candidate(rng, chart, s)
        if (cand.saturation.holds and cand.delta.order > 1
                and any(x.denominator > 1 for row in cand.v.basis for x in row)
                and any(c.denominator > 1 for c in cand.induced.base_point)):
            return cand


def test_induced_chart_roundtrip_and_equivariance():
    line = rotation_line_candidate(rot4_chart())
    assert line.induced.chart.ambient_dim == 1
    assert line.induced.chart.group.order == 2
    # The second input's V has basis rows and a centroid that are not
    # integers, so embed and coordinates read an integer form with den > 1.
    for cand in (line, _rational_b3_candidate()):
        ind = induced_chart(cand)
        assert ind.chart.ambient_dim == cand.v.dim
        assert ind.chart.group.order == cand.delta.order // cand.kernel.order
        # embed is the centroid plus the coordinates on V's canonical basis
        y = tuple(Fraction(i + 1, 3) for i in range(ind.chart.ambient_dim))
        assert ind.embed(y) == tuple(
            c + sum(a * row[j] for a, row in zip(y, cand.v.basis))
            for j, c in enumerate(ind.base_point))
        for x in sample_in_subspace(cand.v, random.Random(3), 6):
            coords = ind.coordinates(x)
            assert ind.embed(coords) == x
        # embedding intertwines the restricted action with the ambient one
        for i, parent_mat in enumerate(matrices_of(cand.delta)):
            local = ind.restriction(i)
            local_mat = ind.chart.group.elements[local].matrix
            for x in sample_in_subspace(cand.v, random.Random(4), 4):
                coords = ind.coordinates(x)
                assert ind.embed(oracle_mat_vec(local_mat, coords)) == oracle_mat_vec(
                    parent_mat, x
                )


def test_induced_chart_refuses_points_of_the_wrong_length():
    # On B3's plane z = 1 the chart has 2 coordinates: embed and
    # coordinates both refuse a point with another number of them.
    ind = induced_chart(_b3_plane_z_equals_1())
    assert ind.embed([1, 2]) == vec([1, 2, 1])
    for y in ([1], [1, 2, 3]):
        with pytest.raises(DimensionMismatch, match="expected a point with 2 coordinates"):
            ind.embed(y)
    for x in ([1, 2], [1, 2, 1, 0]):
        with pytest.raises(DimensionMismatch, match="expected a point with 3 coordinates"):
            ind.coordinates(x)


def test_induced_chart_refuses_a_point_off_v_as_point_not_in_v():
    # It raised a plain ValueError, the one refusal outside SuborbifoldError.
    ind = rotation_line_candidate(rot4_chart()).induced
    assert ind.coordinates([1, 0]) == vec([1])
    for x, text in (([0, 1], "[0, 1]"), (["1/2", "-1/3"], "[1/2, -1/3]")):
        with pytest.raises(PointNotInV) as refused:
            ind.coordinates(x)
        assert str(refused.value) == f"{text} is not in the subspace"


def test_induced_chart_centered_off_the_canonical_base_point():
    # The line y = x - 1 under the reflection (x, y) -> (-y, -x): the fixed
    # centroid (1/2, -1/2) differs from the canonical base point (0, -1).
    group = generate_group([[[0, -1], [-1, 0]]])
    cand = SuborbifoldCandidate(chart_from_group(group), group.full_subgroup(),
                                affine_subspace([0, -1], [[1, 1]]))
    ind = induced_chart(cand)
    assert ind.base_point == vec(["1/2", "-1/2"])
    assert ind.coordinates(ind.base_point) == vec([0])
    assert ind.embed(ind.coordinates([2, 1])) == vec([2, 1])
    assert isotropy_sub_point(cand, ["1/2", "-1/2"]).order == 2
    assert isotropy_sub_point(cand, [0, -1]).order == 1


def test_induced_chart_basis_is_the_one_its_coordinates_are_taken_in():
    # On the line y = x - 1 and on a plane with rational rows, a point of V
    # is the centroid plus its coordinates times ``basis``, V's canonical basis.
    group = generate_group([[[0, -1], [-1, 0]]])
    line = SuborbifoldCandidate(chart_from_group(group), group.full_subgroup(),
                                affine_subspace([0, -1], [[1, 1]]))
    assert induced_chart(line).basis == (vec([1, 1]),)
    for cand in (line, _rational_b3_candidate()):
        ind = induced_chart(cand)
        assert ind.basis == cand.v.basis and len(ind.basis) == cand.v.dim
        for x in sample_in_subspace(cand.v, random.Random(5), 4):
            coords = ind.coordinates(x)
            assert x == tuple(c + sum(a * row[j] for a, row in zip(coords, ind.basis))
                              for j, c in enumerate(ind.base_point))


def test_isotropy_of_the_b5_whole_space_multiplies_in_few_rows():
    # Delta_x / K with K trivial, read from cosets in B5 (order 3840): a
    # coset table filled every one of the group's product rows.
    from suborbifolds.scene import (
    candidate_json, classification_json, dump_machine_report, parse_scene, strip_timing,
)

    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "scenes", "hyperoctahedral_b5.json")
    with open(path, encoding="utf-8") as fh:
        cand = parse_scene(fh.read()).candidates["whole_space"]
    origin = [0] * 5
    fingerprint = isotropy_sub_point(cand, origin)
    group = cand.chart.group
    assert group.order == 3840
    assert sum(row is not None for row in group._rows) < 50
    assert fingerprint == isotropy_point(cand.chart, origin)


def _z_axis_in_b3():
    """The z-axis in B3 with Delta its stabilizer B2 x Z2 (order 16): K is the
    B2 acting on (x, y) (order 8) and the induced group is z -> +-z."""
    b3 = generate_group(hyperoctahedral_generators(3))
    delta = b3.subgroup_from_indices(
        i for i, m in enumerate(matrices_of(b3)) if m[2][2] != 0)
    cand = SuborbifoldCandidate(chart_from_group(b3), delta, affine_subspace([0, 0, 0], [[0, 0, 1]]))
    assert (delta.order, cand.kernel.order) == (16, 8)
    return cand


def _patched_restriction(monkeypatch, images):
    """Make induced_chart build its restriction with images(domain, codomain, image_of)."""
    module = sys.modules["suborbifolds.classify"]
    real = module.GroupHom
    monkeypatch.setattr(module, "GroupHom", lambda d, c, image_of: real(
        d, c, tuple(images(d, c, image_of))))


def test_induced_chart_rejects_a_wrong_map_with_equal_fingerprints(monkeypatch):
    from suborbifolds.groups import iso_fingerprint, quotient_group

    cand = _z_axis_in_b3()
    induced = induced_chart(cand).chart.group
    # The fingerprint comparison cannot see the map at all: the induced
    # group is Z2 whatever the restriction sends where.
    assert iso_fingerprint(induced) == quotient_group(cand.delta, cand.kernel)

    def swap_identity(domain, codomain, image_of):
        # the identity of Delta sent to -1 and some reflection to +1
        images = list(image_of)
        moved = images.index(1 - codomain.identity)
        e = domain.members.index(domain.parent.identity)
        images[e], images[moved] = images[moved], images[e]
        return images

    _patched_restriction(monkeypatch, swap_identity)
    with pytest.raises(AssertionError, match="not a homomorphism"):
        induced_chart(cand)


def test_induced_chart_rejects_a_homomorphism_with_the_wrong_kernel(monkeypatch):
    # The sign of det on the (x, y) block maps Delta onto Z2 as a
    # homomorphism, but its kernel is not the pointwise stabilizer of the axis.
    cand = _z_axis_in_b3()

    def det_xy(domain, codomain, image_of):
        minus = 1 - codomain.identity
        for m in matrices_of(domain):
            yield codomain.identity if m[0][0] * m[1][1] - m[0][1] * m[1][0] > 0 else minus

    _patched_restriction(monkeypatch, det_xy)
    with pytest.raises(AssertionError, match="kernel"):
        induced_chart(cand)


def _counting_orbits(monkeypatch):
    """Record every OrbitOfV built from now on."""
    module = sys.modules["suborbifolds.classify"]
    orbits = []
    real_orbit_init = module.OrbitOfV.__init__

    def orbit_init(self, *args):
        orbits.append(self)
        real_orbit_init(self, *args)

    monkeypatch.setattr(module.OrbitOfV, "__init__", orbit_init)
    return orbits


def test_saturation_computed_once_per_candidate(monkeypatch):
    module = sys.modules["suborbifolds.classify"]
    original = module.check_saturated
    calls = []

    def counting(cand):
        calls.append(cand)
        return original(cand)

    monkeypatch.setattr(module, "check_saturated", counting)
    orbits = _counting_orbits(monkeypatch)
    for points, expected_isotropy in (((), 0), (((0, 0),), 1)):
        calls.clear()
        orbits.clear()
        monkeypatch.setattr(groups, "_kept", {})
        cand = rotation_line_candidate(rot4_chart())  # a fresh chart group each time
        report = classify(cand, isotropy_points=points)
        assert len(report.induced_isotropy_at) == expected_isotropy
        # the kernel is trivial, so the complement is Delta itself, whose
        # verdicts are the candidate's own: nothing is replayed
        assert report.embedded.effective_delta is cand.delta
        assert calls == [cand]
        assert len(orbits) == 1 and cand.orbit_of_v is orbits[0]
    # a later verdict on the same candidate reuses the stored one
    check_full(cand)
    induced_chart(cand)
    assert calls == [cand] and len(orbits) == 1
    # A kernel with a complement: the candidate's own check, then the replay
    # of the complement, and one orbit of V serves both.
    calls.clear()
    orbits.clear()
    chart = klein_chart()
    cand = SuborbifoldCandidate(chart, chart.group.full_subgroup(), x_axis())
    report = classify(cand)
    assert cand.kernel.order == 2 and report.embedded.holds
    assert len(calls) == 2
    assert calls[0] is cand and calls[1].delta == report.embedded.effective_delta
    assert len(orbits) == 1
    assert calls[0].orbit_of_v is calls[1].orbit_of_v is orbits[0]


def test_search_all_delta_shares_the_orbit_of_v(monkeypatch):
    # complex-axis has no complement of its kernel, so the search asks for
    # a complement of V's pointwise stabilizer in its stabilizer, read off
    # the candidate's orbit of V: no subgroup candidate is built, and the
    # one orbit store serves the whole call.
    module = sys.modules["suborbifolds.classify"]
    original_check = module.check_saturated
    original_post_init = SuborbifoldCandidate.__post_init__
    calls, built = [], []

    def counting(cand):
        calls.append(cand)
        return original_check(cand)

    def post_init(self):
        built.append(self)
        original_post_init(self)

    orbits = _counting_orbits(monkeypatch)
    cand = complex_axis_candidate(z4_realified_chart())  # a fresh chart group
    assert len(orbits) == 1
    monkeypatch.setattr(module, "check_saturated", counting)
    monkeypatch.setattr(SuborbifoldCandidate, "__post_init__", post_init)
    report = classify(cand, search_all_delta=True)
    embedded = report.embedded
    assert not embedded.holds and embedded.searched_all_delta
    assert built == [] and calls == [cand]
    assert len(orbits) == 1 and cand.orbit_of_v is orbits[0]
    assert list(cand.chart.group.orbits_of_v) == [cand.v]


def _kernel_without_complement_candidates():
    """The candidates of scenes/kernel_without_complement.json, by name."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "scenes", "kernel_without_complement.json")
    with open(path, encoding="utf-8") as fh:
        return parse_scene(fh.read()).candidates


def test_search_all_delta_matches_the_lattice_walk():
    # The complement of PFix(V) in Stab(V) against the walk of the whole
    # subgroup lattice it replaced, on saturated candidates of B2, B3, a
    # rational conjugate of B3 and the realified Z4: for the last axis and
    # for V drawn as in ``stabilizer_candidate``, Delta is Stab(V) or any
    # cyclic subgroup of it, and the two scene candidates are added. On an
    # axis of B3 a quarter-turn with a sign on the axis gives a cyclic Delta
    # of order 4 whose kernel has no complement in it.
    rng = random.Random(7)
    s, s_inv = random_rational_basis_change(rng, 3)
    b3 = hyperoctahedral_generators(3)
    charts = [(chart_from_group(generate_group(hyperoctahedral_generators(2))), None),
              (chart_from_group(generate_group(b3)), None),
              (chart_from_group(generate_group(conjugate_all(b3, s, s_inv))), s),
              (z4_realified_chart(), None)]
    cands = list(_kernel_without_complement_candidates().values())
    for chart, basis_change in charts:
        group, n = chart.group, chart.ambient_dim
        axis = vec([int(i == n - 1) for i in range(n)])
        if basis_change is not None:
            axis = oracle_mat_vec(basis_change, axis)
        subspaces = [affine_subspace([0] * n, [axis])] + [
            stabilizer_candidate(rng, chart, basis_change, dims=(0, n)).v for _ in range(6)]
        for v in subspaces:
            stab = oracle_setwise_stabilizer(group, v)
            deltas = {stab} | {group.subgroup_generated_by([g]).members for g in stab}
            for members in sorted(deltas):
                cand = SuborbifoldCandidate(chart, Subgroup(group, members), v)
                if cand.saturation.holds:
                    cands.append(cand)
    outcomes = []
    for cand in cands:
        got = check_embedded(cand, search_all_delta=True)
        want = oracle_embedded_by_lattice(cand)
        assert (got.holds, got.effective_delta, got.certificate, got.searched_all_delta) == (
            want.holds, want.effective_delta, want.certificate, want.searched_all_delta)
        outcomes.append((got.holds, got.searched_all_delta))
    # split in Delta, split only outside it, and not split at all
    assert set(outcomes) == {(True, False), (True, True), (False, True)}
    assert outcomes.count((True, True)) >= 3


def _quarter_turn_axis(n):
    """In B_n, Delta = <(x, y, z, ...) -> (y, -x, -z, ...)> on V = span(e_3):
    its kernel <-1 on x and y> has no complement in the cyclic Delta."""
    group = generate_group(hyperoctahedral_generators(n))
    turn = [[int(i == j) for j in range(n)] for i in range(n)]
    turn[0][:3], turn[1][:3], turn[2][:3] = [0, 1, 0], [-1, 0, 0], [0, 0, -1]
    v = affine_subspace([0] * n, [[int(i == 2) for i in range(n)]])
    return SuborbifoldCandidate(chart_from_group(group),
                                group.subgroup_from_matrices([turn]), v)


@pytest.mark.parametrize("n", [4, 5])
def test_search_all_delta_answers_b4_and_b5_without_the_lattice(n):
    # Stab(V) has order 2 * |B_(n-1)| and PFix(V) is B_(n-1) on the other
    # axes; neither chart's whole subgroup lattice can be walked in a test.
    cand = _quarter_turn_axis(n)
    group = cand.chart.group
    start = time.perf_counter()
    result = check_embedded(cand, search_all_delta=True)
    assert time.perf_counter() - start < 1
    assert result.holds and result.searched_all_delta and result.certificate is None
    stab = Subgroup(group, oracle_setwise_stabilizer(group, cand.v))
    fixing = Subgroup(group, oracle_pointwise_stabilizer(group, cand.v))
    assert result.effective_delta.members == oracle_least_complement(stab, fixing)
    assert not check_embedded(cand).holds


def test_public_corpus_builders_return_fresh_charts(monkeypatch):
    # The chart builders return a fresh chart each time, over the one group
    # kept for their generators, and each candidate builder uses the chart
    # it is given.
    # Once the table of kept groups is emptied the next build is a new
    # group, so the counting tests above start from an empty orbit store.
    for builder in (rot4_chart, klein_chart, z4_realified_chart):
        first, second = builder(), builder()
        assert first is not second and first.group is second.group
        monkeypatch.setattr(groups, "_kept", {})
        assert builder().group is not first.group
    rot = rot4_chart()
    assert rotation_line_candidate(rot).chart is rot
    product = product_chart(rot, rot)
    assert product_diagonal_candidate(product).chart is product.combined


def _b3():
    return generate_group(hyperoctahedral_generators(3))


def _b3_times_z2():
    """B3 x Z2 in R^4: B3 on the first three coordinates, a sign on the last."""
    lifted = [[list(row) + [0] for row in m] + [[0, 0, 0, 1]]
              for m in hyperoctahedral_generators(3)]
    return generate_group(lifted + [[[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]]])


# Coordinate, diagonal and off-origin subspaces, as (base, basis), by dimension.
_STORE_SUBSPACES = {
    3: (([0, 0, 0], [[1, 0, 0]]), ([0, 0, 0], [[1, 0, 0], [0, 1, 0]]),
        ([0, 0, 0], [[1, 1, 0]]), ([0, 0, 0], [[1, -1, 0], [0, 0, 1]]),
        ([0, 0, 1], [[1, 0, 0]]), ([0, Fraction(1, 2), 1], [[1, 0, 0]])),
    4: (([0, 0, 0, 0], [[1, 0, 0, 0], [0, 0, 0, 1]]), ([0, 0, 0, 0], [[1, 1, 0, 0]]),
        ([0, 0, 0, 0], [[1, 0, -1, 0], [0, 0, 0, 1]]), ([0, 0, 0, 2], [[1, 0, 0, 0]]),
        ([0, 0, Fraction(-1, 2), 0], [[1, 0, 0, 0], [0, 0, 0, 1]])),
}


def _translates(n, count):
    """count distinct subspaces of R^n: those above, then the same moved by
    t (1, 2, ..., n) for t = 1, 2, ..., in that order."""
    found = {}
    t = 0
    while len(found) < count:
        for base, basis in _STORE_SUBSPACES[n]:
            v = affine_subspace([b + t * (i + 1) for i, b in enumerate(base)], basis)
            found.setdefault(v, None)
        t += 1
    return list(found)[:count]


def _whole_stabilizer(group, v):
    """The members of the setwise stabilizer of v, found one element at a time."""
    d, forms = group.integer_forms
    return tuple(i for i in group.members if transform_subspace((d, forms[i]), v) == v)


def _store_cases(group, subspaces=None):
    """(V, Delta's members) for each subspace (by default those above): its
    whole setwise stabilizer first, then up to three of its order-2 subgroups."""
    if subspaces is None:
        subspaces = [affine_subspace(base, basis)
                     for base, basis in _STORE_SUBSPACES[group.ambient_dim]]
    cases = []
    for v in subspaces:
        stab = _whole_stabilizer(group, v)
        involutions = [i for i in stab
                       if i != group.identity and group.mult(i, i) == group.identity]
        cases.append((v, stab))
        step = max(1, len(involutions) // 3)
        cases.extend((v, (group.identity, i)) for i in involutions[::step][:3])
    return cases


def _candidate(chart, members, v):
    return SuborbifoldCandidate(chart, chart.group.subgroup_from_indices(members), v)


def _outcome(cand):
    """The saturation verdict, its witness as (element index, point), and
    the candidate's machine report without timing."""
    report = classify(cand)
    saturated = report.saturated
    witness = saturated.witness
    payload = {"candidate": candidate_json(cand), "classification": classification_json(report)}
    return (saturated.holds, witness and (witness.element.index, witness.point),
            dump_machine_report(strip_timing(payload)))


def _same_as_the_oracle(cand, verdict):
    oracle = oracle_check_saturated(cand)
    if oracle.holds or verdict.holds:
        return oracle.holds == verdict.holds
    return ((oracle.witness.element.index, oracle.witness.point)
            == (verdict.witness.element.index, verdict.witness.point))


@pytest.mark.parametrize("make_group", [_b3, _b3_times_z2])
def test_a_warm_orbit_store_changes_no_verdict_witness_or_report(make_group):
    # More subspaces than the store keeps, so the shuffled replays below
    # both hit kept subspaces and build dropped ones again.
    kept = sys.modules["suborbifolds.classify"].ORBITS_OF_V_KEPT
    group = make_group()
    cases = _store_cases(group)
    subspaces = _translates(group.ambient_dim, kept + 2)
    shown = {v for v, _ in cases}
    cases += [(v, _whole_stabilizer(group, v)) for v in subspaces if v not in shown]
    assert len({v for v, _ in cases}) > kept
    fresh = [_outcome(_candidate(chart_from_group(make_group()), members, v))
             for v, members in cases]
    # saturated and unsaturated candidates both, so the witness path runs
    assert {holds for holds, _, _ in fresh} == {True, False}
    chart = chart_from_group(make_group())
    rng = random.Random(19)
    for warm in (False, True):
        order = list(range(len(cases)))
        rng.shuffle(order)
        for i in order:
            v, members = cases[i]
            cand = _candidate(chart, members, v)
            assert _outcome(cand) == fresh[i]
            if warm:
                assert _same_as_the_oracle(cand, cand.saturation)
                if not cand.saturation.holds:
                    assert verify_saturation_witness(cand, cand.saturation.witness)
        assert len(chart.group.orbits_of_v) == kept


def test_the_orbit_store_keeps_the_most_recently_used_subspaces(monkeypatch):
    kept = sys.modules["suborbifolds.classify"].ORBITS_OF_V_KEPT
    group = _b3()
    chart = chart_from_group(group)
    subspaces = _translates(3, kept + 2)
    whole = {v: _whole_stabilizer(group, v) for v in subspaces}
    orbits = _counting_orbits(monkeypatch)
    verdicts = [classify(_candidate(chart, whole[v], v)).saturated for v in subspaces]
    assert len(orbits) == len(subspaces)
    assert list(group.orbits_of_v) == subspaces[-kept:]
    # A dropped V is built again, with the same verdict, and drops the
    # least recently used one in turn.
    assert check_saturated(_candidate(chart, whole[subspaces[0]], subspaces[0])) == verdicts[0]
    assert len(orbits) == len(subspaces) + 1
    assert list(group.orbits_of_v) == subspaces[-kept + 1:] + subspaces[:1]
    # A V still kept is not built again, and becomes the most recently used.
    hit = subspaces[-kept + 1]
    assert check_saturated(_candidate(chart, whole[hit], hit)) == verdicts[-kept + 1]
    assert len(orbits) == len(subspaces) + 1
    assert list(group.orbits_of_v) == subspaces[-kept + 2:] + subspaces[:1] + [hit]


def test_a_recurring_subspace_keeps_its_orbit_among_other_subspaces(monkeypatch):
    # One V asked about again after each of more other subspaces than a few,
    # though fewer than the store keeps: its OrbitOfV is built once.
    kept = sys.modules["suborbifolds.classify"].ORBITS_OF_V_KEPT
    group = _b3_times_z2()
    chart = chart_from_group(group)
    recurring, *others = _translates(4, 9)
    assert 4 < len(others) < kept
    cases = {v: [members for _, members in _store_cases(group, [v])]
             for v in [recurring] + others}
    orbits = _counting_orbits(monkeypatch)
    verdicts = set()
    for turn, members in enumerate(cases[recurring]):
        for v, deltas in [(recurring, [members])] + [(v, cases[v]) for v in others]:
            cand = _candidate(chart, deltas[turn % len(deltas)], v)
            verdict = check_saturated(cand)
            assert _same_as_the_oracle(cand, verdict)
            verdicts.add(verdict.holds)
    assert len(cases[recurring]) > 1 and verdicts == {True, False}
    assert [orbit.image(group.identity) for orbit in orbits].count(recurring) == 1
    assert len(orbits) == len(cases)


def test_a_witness_and_an_induced_chart_keep_no_fraction_view_in_the_orbit_store():
    # The chart group keeps V, each x V and each W_g of the subspaces asked
    # about. A saturation witness is drawn from W_g's integer points, a
    # fullness witness (here Fix(g) & W_g = W_g) is built from the integer
    # form and the induced chart reads V's, so no kept subspace holds the
    # Fraction views base_point and basis built on first read.
    group = _b3()
    chart = chart_from_group(group)
    line = affine_subspace([0, 0, 1], [[1, 0, 0]])  # the line (t, 0, 1)
    stab = group.subgroup_from_indices(
        i for i, m in enumerate(matrices_of(group)) if m[2] == (0, 0, 1) and m[0][0])
    trivial = group.subgroup_from_indices([group.identity])
    report = classify(SuborbifoldCandidate(chart, trivial, line))
    assert not report.saturated.holds and report.saturated.witness.point[2] == 1
    saturated = SuborbifoldCandidate(chart, stab, line)
    assert isotropy_sub_point(saturated, [0, 0, 1]).order == 2
    assert check_full(saturated).witness.point == (0, 0, 1)
    kept = []
    for v, orbit in group.orbits_of_v.items():
        kept += [v, orbit._v, *orbit._orbit, *orbit._entries]
    assert any(w.dim for w in kept[3:])  # a W_g with points to sample
    assert [w for w in kept if getattr(w, "_base_point", None) is not None
            or getattr(w, "_basis", None) is not None] == []


def test_candidates_on_one_group_and_v_build_one_orbit(monkeypatch):
    # Two candidates built apart, each with its own chart object and V object,
    # on one group and equal V with different Delta: one OrbitOfV serves both.
    group = _b3()
    (v, stab), (_, order_two) = _store_cases(group)[:2]
    orbits = _counting_orbits(monkeypatch)
    a = _candidate(chart_from_group(group), stab, v)
    b = _candidate(chart_from_group(group), order_two, affine_subspace(v.base_point, v.basis))
    assert a.delta != b.delta and a.v is not b.v
    check_saturated(a)
    check_saturated(b)
    assert len(orbits) == 1 and a.orbit_of_v is b.orbit_of_v is orbits[0]


def test_a_whole_group_candidate_is_saturated_without_solving_a_meet(monkeypatch):
    # Every g is in Delta, so no W_g is asked for and no meet is solved,
    # although the invariance test has read g V from the store.
    module = sys.modules["suborbifolds.classify"]

    def refuse(*args):
        raise AssertionError("a W_g was solved for a whole-group candidate")

    group = _b3()
    chart = chart_from_group(group)
    (kept, stab), _ = _store_cases(group)[:2]
    check_saturated(_candidate(chart, stab, kept))
    monkeypatch.setattr(module.OrbitOfV, "w_g", refuse)
    monkeypatch.setattr(module, "meet", refuse)
    for chart in (chart, chart_from_group(_b3())):  # a warm and a fresh store
        for v in (whole_space(3), affine_subspace([0, 0, 0], [])):
            cand = SuborbifoldCandidate(chart, chart.group.full_subgroup(), v)
            assert check_saturated(cand).holds and oracle_check_saturated(cand).holds


def test_witnesses_build_only_their_own_element():
    # group.elements would build a Fraction matrix for every element
    cand = rotation_line_candidate(rot4_chart())
    trivial = cand.chart.group.subgroup_from_indices([cand.chart.group.identity])
    unsaturated = SuborbifoldCandidate(cand.chart, trivial, cand.v)
    witnesses = [check_saturated(unsaturated).witness, check_full(cand).witness]
    group = cand.chart.group
    assert "elements" not in vars(group)
    for witness in witnesses:
        assert witness.element == group.elements[witness.element.index]


def test_a_chart_group_is_freed_once_its_candidates_are_gone():
    # The group keeps its OrbitOfV, which must not keep the group in turn:
    # without a reference cycle the group goes as soon as its last user does.
    cand = rotation_line_candidate(rot4_chart())
    classify(cand)
    assert cand.chart.group.orbits_of_v
    group = weakref.ref(cand.chart.group)
    groups._kept.clear()  # the group leaves the table of kept groups
    collecting = gc.isenabled()
    gc.disable()
    try:
        del cand
        assert group() is None
    finally:
        if collecting:
            gc.enable()


def test_induced_chart_built_once_per_candidate(monkeypatch):
    module = sys.modules["suborbifolds.classify"]
    charts, groups_built = [], []
    real_chart, real_init = module.induced_chart, FiniteMatrixGroup.__init__

    def init(self, *args, **kwargs):
        groups_built.append(None)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(module, "induced_chart", lambda c: charts.append(c) or real_chart(c))
    monkeypatch.setattr(FiniteMatrixGroup, "__init__", init)
    cand = rotation_line_candidate(rot4_chart())
    groups_built.clear()
    report = classify(cand, isotropy_points=([0, 0], [1, 0], [2, 0]))
    assert [fp.order for _, fp in report.induced_isotropy_at] == [2, 1, 1]
    assert charts == [cand] and len(groups_built) == 1


def test_two_path_isotropy_on_corpus_points():
    rot = rot4_chart()
    cases = [
        (rotation_line_candidate(rot4_chart()), [0, 0], 2),
        (rotation_line_candidate(rot4_chart()), [1, 0], 1),
        (diagonal_half_turn_candidate(klein_chart()), [0, 0], 2),
        (diagonal_half_turn_candidate(klein_chart()), [1, 1], 1),
        (complex_axis_candidate(z4_realified_chart()), [0, 0, 0, 0], 2),
        (complex_axis_candidate(z4_realified_chart()), [0, 0, 1, 0], 1),
        (product_diagonal_candidate(product_chart(rot, rot)), [0, 0, 0, 0], 4),
        (product_diagonal_candidate(product_chart(rot, rot)), [1, 0, 1, 0], 1),
    ]
    for cand, point, expected_order in cases:
        fp = isotropy_sub_point(cand, point)  # internal cross-check
        assert fp.order == expected_order, (point, fp)


def test_isotropy_point_outside_subspace_rejected():
    with pytest.raises(PointNotInV):
        isotropy_sub_point(rotation_line_candidate(rot4_chart()), [0, 1])


def test_ambient_isotropy():
    chart = rot4_chart()
    assert isotropy_point(chart, [0, 0]).order == 4
    assert isotropy_point(chart, [1, 0]).order == 1


def test_abelian_criterion_requires_abelian():
    dihedral = generate_group([ROT4_GEN, SIGN_X])
    assert dihedral.order == 8
    chart = chart_from_group(dihedral)
    with pytest.raises(GroupNotAbelian):
        abelian_omega_isotropy(chart, x_axis(), [1, 0])


def test_localize_chart():
    chart = rot4_chart()
    local = localize_chart(chart, [1, 0])
    assert local.group.order == 1
    assert localize_chart(chart, [0, 0]).group.order == 4


def test_a_full_candidate_localizes_to_its_subgroup_stabilizer():
    # For a full candidate and x in V, Gamma_x lies in Delta (an element
    # outside Delta fixing x would break fullness), so the chart localized
    # at x has the group Delta_x.
    rng = random.Random(17)
    seen = 0
    for _ in range(40):
        cand = random_candidate(rng, max_group_order=48)
        if not (cand.saturation.holds and check_full(cand).holds):
            continue
        for x in sample_in_subspace(cand.v, rng, 3):
            assert localize_chart(cand.chart, x).group.order == stabilizer(cand.delta, x).order
        seen += 1
    point = point_candidate(rot4_chart())
    assert check_full(point).holds
    assert localize_chart(point.chart, [0, 0]).group.order == 4
    assert seen > 5


def test_contained_in_regular_part():
    chart = rot4_chart()
    assert not contained_in_regular_part(chart, x_axis())  # hits the origin
    shifted = affine_subspace([0, 1], [[1, 0]])
    assert contained_in_regular_part(chart, shifted)
    kept = dict(chart.group.orbits_of_v)
    with pytest.raises(DimensionMismatch, match="^ambient dimensions differ$"):
        contained_in_regular_part(chart, whole_space(3))
    assert chart.group.orbits_of_v == kept


@pytest.mark.parametrize("max_group_order", [16, 48])
def test_randomized_oracle_equivalence_quick(max_group_order):
    rng = random.Random(2024)
    for _ in range(60):
        cand = random_candidate(rng, max_group_order=max_group_order)
        verdict = check_saturated(cand)
        if verdict.holds:
            assert oracle_saturated_sampled(cand, rng)
            full = check_full(cand)
            assert full.holds == oracle_full(cand)
            if not full.holds:
                assert verify_fullness_witness(cand, full.witness)
            emb = check_embedded(cand)
            if emb.holds:
                eff = emb.effective_delta
                assert pointwise_stabilizer(eff, cand.v).order == 1
        else:
            assert verify_saturation_witness(cand, verdict.witness)
            assert not oracle_saturated_sampled(cand, rng, samples=40)


def _b3_times_z2_generators():
    return [signed_permutation((1, 0, 2, 3), (1, 1, 1, 1)),
            signed_permutation((0, 2, 1, 3), (1, 1, 1, 1)),
            signed_permutation(range(4), (-1, 1, 1, 1)),
            signed_permutation(range(4), (1, 1, 1, -1))]


def test_saturation_matches_per_element_oracle_above_order_48():
    rng = random.Random(51)
    b4 = hyperoctahedral_generators(4)
    s, s_inv = random_rational_basis_change(rng, 4)
    ladder = [
        (hyperoctahedral_generators(3), None, 10),   # order 48
        (_b3_times_z2_generators(), None, 6),        # order 96
        (b4, None, 5),                               # order 384
        (conjugate_all(b4, s, s_inv), s, 5),         # B4 in a rational basis
    ]
    for gens, basis_change, count in ladder:
        chart = chart_from_group(generate_group(gens))
        verdicts = set()
        for _ in range(count):
            cand = stabilizer_candidate(rng, chart, basis_change)
            got, want = check_saturated(cand), oracle_check_saturated(cand)
            assert got.holds == want.holds
            if not got.holds:
                assert got.witness.element.index == want.witness.element.index
                assert got.witness.point == want.witness.point
            verdicts.add(got.holds)
        assert verdicts == {True, False}


def test_fullness_matches_oracle_above_order_48():
    # Candidates of every dimension in B4 (order 384) and in a rational
    # conjugate of it, whose denominators go through the group-wide
    # denominator of the integer forms; every witness is replayed.
    rng = random.Random(61)
    b4 = hyperoctahedral_generators(4)
    s, s_inv = random_rational_basis_change(rng, 4)
    for gens, basis_change in ((b4, None), (conjugate_all(b4, s, s_inv), s)):
        chart = chart_from_group(generate_group(gens))
        assert (chart.group.integer_forms[0] > 1) == (basis_change is not None)
        verdicts = set()
        for _ in range(8):
            cand = stabilizer_candidate(rng, chart, basis_change, dims=(0, 4))
            if not cand.saturation.holds:
                continue
            got = check_full(cand)
            assert got.holds == oracle_full(cand)
            if not got.holds:
                assert verify_fullness_witness(cand, got.witness)
            verdicts.add(got.holds)
        assert verdicts == {True, False}


def _b5_candidates():
    """The whole-space and axis candidates of scenes/hyperoctahedral_b5.json,
    on one B5 (order 3840)."""
    from suborbifolds.scene import read_scene

    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "scenes", "hyperoctahedral_b5.json")
    with open(path, encoding="utf-8") as fh:
        candidates = read_scene(fh.read()).candidates
    return candidates["whole_space"], candidates["axis_line"]


def test_induced_chart_matches_the_per_member_restriction(monkeypatch):
    # The walk from Delta's generators against every member restricted to V:
    # the same image of each member, the same induced group and centroid.
    rng = random.Random(83)
    b4 = hyperoctahedral_generators(4)
    s, s_inv = random_rational_basis_change(rng, 4)
    cases = []
    for gens, basis_change in ((hyperoctahedral_generators(3), None),
                               (_b3_times_z2_generators(), None), (b4, None),
                               (conjugate_all(b4, s, s_inv), s)):
        chart = chart_from_group(generate_group(gens))
        found = 0
        while found < 4:
            cand = stabilizer_candidate(rng, chart, basis_change, dims=(0, len(gens[0])))
            if cand.saturation.holds:
                cases.append(cand)
                found += 1
    whole, axis = _b5_candidates()
    module = sys.modules["suborbifolds.classify"]
    restricted = []
    real = module.restricted_matrix
    with monkeypatch.context() as patch:
        patch.setattr(module, "restricted_matrix",
                      lambda *args: restricted.append(None) or real(*args))
        chart = induced_chart(whole)
    assert len(restricted) == len(whole.delta.generators) < 8
    assert chart.chart.group.order == 3840
    for cand in cases + [whole, axis]:
        chart = induced_chart(cand)
        image_of, forms, centroid = oracle_induced_chart(cand)
        assert chart.restriction.image_of == image_of
        assert chart.chart.group.integer_forms == forms
        assert chart.base_point == centroid
    assert len({cand.delta.order for cand in cases}) > 2
    assert any(cand.kernel.order > 1 for cand in cases)


def test_a_centroid_at_the_origin_costs_no_mat_vec(monkeypatch):
    # Every element fixes the origin, so a linear V's centroid is summed
    # and tested without applying an element; the chart is unchanged.
    rng = random.Random(89)
    chart = chart_from_group(generate_group(hyperoctahedral_generators(3)))
    linear, off_origin = [], []
    while len(linear) < 4 or not off_origin:
        cand = stabilizer_candidate(rng, chart, dims=(0, 3))
        if cand.saturation.holds:
            (off_origin if any(cand.v.base) else linear).append(cand)
    whole, _ = _b5_candidates()
    module = sys.modules["suborbifolds.classify"]
    real, calls = module.int_mat_vec, []
    monkeypatch.setattr(module, "int_mat_vec", lambda *args: calls.append(None) or real(*args))
    for cand in linear + [whole] + off_origin[:1]:
        del calls[:]
        chart = induced_chart(cand)
        assert len(calls) == (0 if cand in linear or cand is whole
                              else cand.delta.order + len(cand.delta.generators))
        image_of, forms, centroid = oracle_induced_chart(cand)
        assert chart.restriction.image_of == image_of
        assert chart.chart.group.integer_forms == forms
        assert chart.base_point == centroid


def test_whole_space_whole_group_induced_chart_is_the_chart_group():
    # V = R^n has the standard basis, so with Delta = Gamma every restricted
    # generator is its generator: the chart group is used, not rebuilt.
    b3 = chart_from_group(generate_group(hyperoctahedral_generators(3)))
    whole, _ = _b5_candidates()
    for cand in (SuborbifoldCandidate(b3, b3.group.full_subgroup(), whole_space(3)), whole):
        group = cand.chart.group
        assert cand.delta.order == group.order and cand.v.dim == group.ambient_dim
        chart = induced_chart(cand)
        assert chart.chart.group is group
        image_of, forms, centroid = oracle_induced_chart(cand)
        assert chart.restriction.image_of == image_of == tuple(group.members)
        assert group.integer_forms == forms and chart.base_point == centroid


def test_fullness_matches_the_per_element_scan():
    # check_full solves on W_g, once per W_g and image, where the scan
    # solves on V for every element outside Delta: the same first element
    # and the same point; contained_in_regular_part agrees with the scan
    # outside the identity; and pointwise_stabilizer filtering point by
    # point keeps the members a per-member test keeps.
    rng = random.Random(80)
    b4 = hyperoctahedral_generators(4)
    s, s_inv = random_rational_basis_change(rng, 4)
    found = set()
    for gens, basis_change in ((_b3_times_z2_generators(), None), (b4, None),
                               (conjugate_all(b4, s, s_inv), s)):
        chart = chart_from_group(generate_group(gens))
        group = chart.group
        verdicts = []
        while len(verdicts) < 6:
            cand = stabilizer_candidate(rng, chart, basis_change, dims=(0, 4))
            for g in (cand.delta, group):
                assert pointwise_stabilizer(g, cand.v).members == \
                    oracle_pointwise_stabilizer(g, cand.v)
            regular = first_fixing_element(group, cand.v, {group.identity}) is None
            assert contained_in_regular_part(chart, cand.v) == regular
            if not cand.saturation.holds:
                continue
            got = check_full(cand)
            want = first_fixing_element(group, cand.v, set(cand.delta.members))
            if want is None:
                assert got.holds
            else:
                assert not got.holds
                assert (got.witness.element.index, got.witness.point) == want
            verdicts.append((got.holds, any(cand.v.base)))
        assert not all(holds for holds, _ in verdicts)
        found |= set(verdicts)
    assert {holds for holds, _ in found} == {True, False}
    assert {shifted for _, shifted in found} == {True, False}


def test_fullness_solves_fewer_systems_than_elements_outside_delta(monkeypatch):
    # An off-origin point of B4 with Delta its stabilizer is full; the scan
    # solved once per element outside Delta, the orbit store not once.
    b4 = generate_group(hyperoctahedral_generators(4))
    point = affine_subspace([1, 1, 0, 2], [])
    delta = groups.stabilizer(b4, point.base_point)
    cand = SuborbifoldCandidate(chart_from_group(b4), delta, point)
    assert cand.saturation.holds and (b4.order, delta.order) == (384, 4)
    module = sys.modules["suborbifolds.classify"]
    solves = []
    real = module.fixed_points
    monkeypatch.setattr(module, "fixed_points",
                        lambda *args: solves.append(None) or real(*args))
    assert check_full(cand).holds
    assert len(solves) < b4.order - delta.order
    # A line through that point meets reflecting hyperplanes: not full.
    line = affine_subspace([1, 1, 0, 2], [[0, 0, 1, 0]])
    d, forms = b4.integer_forms
    stab = b4.subgroup_from_indices(
        i for i in b4.members if transform_subspace((d, forms[i]), line) == line)
    cand = SuborbifoldCandidate(chart_from_group(b4), stab, line)
    solves.clear()
    got = check_full(cand)
    assert not got.holds and verify_fullness_witness(cand, got.witness)
    assert 0 < len(solves) < b4.order - stab.order


def test_fixed_sets_are_solved_once_per_group_and_v(monkeypatch):
    # Fix(g) & V is kept with the orbit store of V, so a second check_full
    # on a fresh candidate with the same group and V, and a second
    # contained_in_regular_part, solve nothing; before, they solved again
    # (1 and 8 systems for these two subspaces of B3).
    plane = _b3_plane_z_equals_1()
    b3 = plane.chart
    line = affine_subspace([1, 2, 3], [[1, 3, 5]])
    module = sys.modules["suborbifolds.classify"]
    solves = []
    real = module.fixed_points
    monkeypatch.setattr(module, "fixed_points",
                        lambda *args: solves.append(None) or real(*args))
    for run in (lambda: check_full(SuborbifoldCandidate(b3, plane.delta, plane.v)),
                lambda: contained_in_regular_part(b3, line)):
        first = run()
        assert solves
        solves.clear()
        assert run() == first
        assert solves == []


def _count_transforms(monkeypatch, run):
    """run()'s result and the number of subspaces it transformed."""
    module = sys.modules["suborbifolds.classify"]
    original = module.transform_subspace
    calls = []

    def counting(m, v):
        calls.append(v)
        return original(m, v)

    with monkeypatch.context() as patch:
        patch.setattr(module, "transform_subspace", counting)
        result = run()
    return result, len(calls)


def _b3_plane_z_equals_1():
    """The plane z = 1 in B3 with Delta its stabilizer (order 8, index 6)."""
    b3 = generate_group(hyperoctahedral_generators(3))
    v = affine_subspace([0, 0, 1], [[1, 0, 0], [0, 1, 0]])
    delta = b3.subgroup_from_indices(
        i for i, m in enumerate(matrices_of(b3)) if m[2] == (0, 0, 1))
    return SuborbifoldCandidate(chart_from_group(b3), delta, v)


def test_saturation_work_follows_the_orbit_of_v(monkeypatch):
    # B4 whole space with Delta = Gamma: every element covers itself.
    b4 = generate_group(hyperoctahedral_generators(4))
    whole = SuborbifoldCandidate(chart_from_group(b4), b4.full_subgroup(), whole_space(4))
    verdict, transforms = _count_transforms(monkeypatch, lambda: check_saturated(whole))
    assert verdict.holds and transforms == 0
    # The plane z = 1 in B3: Delta is its stabilizer (order 8, index 6), and
    # no other element meets it, so the walk visits every element.
    cand = _b3_plane_z_equals_1()
    b3, delta = cand.chart.group, cand.delta
    assert delta.order == 8
    verdict, transforms = _count_transforms(monkeypatch, lambda: check_saturated(cand))
    assert verdict.holds
    # 3 generators * index 6 = 18; the per-element loop made |B3| = 48
    assert 0 < transforms <= len(b3.generators) * (b3.order // delta.order) < b3.order


def test_saturation_covering_loop_builds_no_fraction(monkeypatch):
    # Every Fraction that check_saturated builds or hashes must come from an
    # orbit step or an intersection W_g, never from the loops over Delta and
    # Gamma that compare images.
    cand = _b3_plane_z_equals_1()
    hash(cand.v)  # a subspace computes its hash once; take it before counting
    module = sys.modules["suborbifolds.classify"]
    depth, outside, keys = [0], [], []

    def allowed(original):
        def run(*args):
            depth[0] += 1
            try:
                return original(*args)
            finally:
                depth[0] -= 1
        return run

    def counted(original, what):
        def run(*args, **kwargs):
            if depth[0] == 0:
                outside.append(what)
            return original(*args, **kwargs)
        return run

    def key(rows, points):
        keys.append(points)
        return images_of(rows, points)

    images_of = module.int_images
    with monkeypatch.context() as patch:
        patch.setattr(module, "int_images", key)
        patch.setattr(module, "meet", allowed(module.meet))
        patch.setattr(module.OrbitOfV, "image", allowed(module.OrbitOfV.image))
        patch.setattr(Fraction, "__new__", counted(Fraction.__new__, "built"))
        patch.setattr(Fraction, "__hash__", counted(Fraction.__hash__, "hashed"))
        assert check_saturated(cand).holds
    # Four lines W_g (x = +-1, y = +-1 on the plane), 8 images each, and one
    # key for each of the 4 cosets Delta g that reach them: the scan tests
    # one element per coset.
    assert len(keys) == 4 * cand.delta.order + 4
    assert outside == []


def test_saturation_tests_one_element_per_coset(monkeypatch):
    # W_hg = W_g for h in Delta, and h h' covers h g when h' covers g, so
    # check_saturated asks image_on for one element outside Delta per coset
    # Delta g it decides with W_g nonempty, the least in index order, and
    # for Delta's images once per distinct W_g; the witness is the
    # per-element oracle's. Cosets and W_g come from Fraction matrices here.
    rng = random.Random(97)
    b4 = hyperoctahedral_generators(4)
    s, s_inv = random_rational_basis_change(rng, 4)
    module = sys.modules["suborbifolds.classify"]
    real, calls = module.OrbitOfV.image_on, []
    monkeypatch.setattr(module.OrbitOfV, "image_on",
                        lambda self, entry, h: calls.append(h) or real(self, entry, h))
    for gens, basis_change in ((_b3_times_z2_generators(), None), (b4, None),
                               (conjugate_all(b4, s, s_inv), s)):
        chart = chart_from_group(generate_group(gens))
        group = chart.group
        index = {m: i for i, m in enumerate(matrices_of(group))}
        verdicts, drawn = set(), 0
        while drawn < 4 or (len(verdicts) < 2 and drawn < 30):
            drawn += 1
            cand = stabilizer_candidate(rng, chart, basis_change)
            delta, v = cand.delta, cand.v
            del calls[:]
            got = check_saturated(cand)
            asked = list(calls)
            want = oracle_check_saturated(cand)
            assert got.holds == want.holds
            last = group.order - 1
            if not got.holds:
                last = got.witness.element.index
                assert last == want.witness.element.index
                assert got.witness.point == want.witness.point
            decided, tested, meets = set(delta.members), [], set()
            for g in range(last + 1):
                if g in decided:
                    continue
                g_mat = group.elements[g].matrix
                decided |= {index[oracle_mat_mul(h, g_mat)] for h in matrices_of(delta)}
                g_inv_v = oracle_map_subspace(group.elements[group.inv(g)].matrix,
                                              zero_vec(v.ambient_dim), v)
                w_g = oracle_intersect(v, g_inv_v)
                if w_g is not None:
                    tested.append(g)
                    meets.add(w_g)
            assert [h for h in asked if not delta.contains(h)] == tested
            assert sum(1 for h in asked if delta.contains(h)) == delta.order * len(meets)
            verdicts.add(got.holds)
        assert verdicts == {True, False}


def test_saturation_builds_no_fractions(monkeypatch):
    # Subspaces are integer forms inside: orbit steps, the intersections W_g
    # and the covering keys of a saturated candidate build no Fraction vector.
    b3_plane = _b3_plane_z_equals_1()
    b4 = generate_group(hyperoctahedral_generators(4))
    b4_whole = SuborbifoldCandidate(chart_from_group(b4), b4.full_subgroup(), whole_space(4))

    def refuse(*args):
        raise AssertionError("a Fraction vector was built")

    linalg = sys.modules["suborbifolds.linalg"]
    monkeypatch.setattr(linalg, "fraction_point", refuse)
    monkeypatch.setattr(linalg, "vec", refuse)
    assert check_saturated(b3_plane).holds
    assert check_saturated(b4_whole).holds


def test_scene_construction_builds_no_fractions(monkeypatch):
    # An all-integer scene is read as integers: generators, subgroup
    # generators, subspaces and maps build no Fraction, and no rank test
    # runs, as invertibility is read off the orbit permutations. So is a
    # scene written with "p/q" strings: the shipped map scenes check each
    # map's equivariance on integer forms.
    b3 = [[[int(x) for x in row] for row in m] for m in hyperoctahedral_generators(3)]
    text = json.dumps({
        "groups": {"b3": b3, "rot4": [[[0, -1], [1, 0]]]},
        "subgroups": {
            "plane_pair": {"parent": "b3", "generators": [[[-1, 0, 0], [0, 1, 0], [0, 0, 1]]]},
            "half_turn": {"parent": "rot4", "generator_indices": [0]},
        },
        "subspaces": {"plane": {"base": [0, 0, 1], "basis": [[1, 0, 0], [0, 1, 0]]},
                      "x_axis": {"base": ["0", "-0"], "basis": [["2/2", "0/3"]]}},
        "candidates": {"plane": {"group": "b3", "subgroup": "plane_pair", "subspace": "plane"},
                       "line": {"group": "rot4", "subgroup": "half_turn",
                                "subspace": "x_axis"}},
    })

    def refuse(*args):
        raise AssertionError("a Fraction or a rank test was used")

    linalg = sys.modules["suborbifolds.linalg"]
    for name in ("mat_rank", "fraction_point", "rat", "scaled"):
        monkeypatch.setattr(linalg, name, refuse)
    scene = parse_scene(text)
    assert scene.groups["b3"].order == 48 and len(scene.candidates) == 2
    assert scene.subgroups["plane_pair"].order == 2
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for name, maps in (("maps.json", 3), ("rational_chart.json", 2)):
        with open(os.path.join(root, "scenes", name), encoding="utf-8") as fh:
            assert len(parse_scene(fh.read()).maps) == maps


def test_induced_chart_builds_no_fractions(monkeypatch):
    # The restricted elements are integer columns: their group is built from
    # integer forms and each element is looked up by its columns, not by
    # index_of on a Fraction matrix. Only the returned centroid is a Fraction.
    cand = _b3_plane_z_equals_1()
    assert cand.saturation.holds and cand.v.basis and cand.kernel

    def refuse(*args):
        raise AssertionError("a Fraction matrix was built or scaled")

    linalg = sys.modules["suborbifolds.linalg"]
    monkeypatch.setattr(linalg, "fraction_point", refuse)
    monkeypatch.setattr(linalg, "scaled", refuse)
    monkeypatch.setattr(FiniteMatrixGroup, "index_of", refuse)
    chart = induced_chart(cand)
    assert chart.chart.group.order == 8 and chart.base_point == (0, 0, 1)


def test_invariance_is_tested_on_generators(monkeypatch):
    # B4 whole space with Delta = Gamma: one transform per generator of Delta
    b4 = generate_group(hyperoctahedral_generators(4))
    delta = b4.full_subgroup()
    cand, transforms = _count_transforms(monkeypatch, lambda: SuborbifoldCandidate(
        chart_from_group(b4), delta, whole_space(4)))
    assert 0 < transforms <= len(delta.generators) < 8
    # The replay of the complement (Delta itself) adds one generator pass.
    result, transforms = _count_transforms(monkeypatch, lambda: check_embedded(cand))
    assert result.effective_delta == delta and transforms <= len(delta.generators)


def test_a_warm_corpus_run_transforms_no_subspace(monkeypatch):
    # The corpus charts are built once per process, and a candidate's
    # invariance test reads g V from the chart group's orbit-of-V store, as
    # saturation does: once the stores are warm, no subspace is transformed.
    def corpus_and_probes():
        assert run_corpus().ok
        assert all(lemma_metrics_check(probe).passed for probe in metric_probes().values())

    corpus_and_probes()
    _, transforms = _count_transforms(monkeypatch, corpus_and_probes)
    assert transforms == 0


def _oracle_image(m, v):
    """m V in canonical form (base point, basis), by Fraction arithmetic alone."""
    base, *basis = oracle_images(m, v)
    return oracle_canonical_subspace(base, basis)[:2]


@pytest.mark.parametrize("build, search_all_delta", [
    (lambda: rotation_line_candidate(rot4_chart()), False),
    (lambda: complex_axis_candidate(z4_realified_chart()), True),
    (_b3_plane_z_equals_1, False),
], ids=["rotation-line", "complex-axis", "b3-plane"])
def test_a_fresh_chart_transforms_once_per_generator_and_orbit_point(
        monkeypatch, build, search_all_delta):
    # Building the candidate on a fresh chart and classifying it, the whole
    # lattice searched or not, apply each generator to each g V at most once.
    def build_and_classify():
        cand = build()
        classify(cand, search_all_delta=search_all_delta)
        return cand

    cand, transforms = _count_transforms(monkeypatch, build_and_classify)
    group, v = cand.chart.group, cand.v
    orbit = {_oracle_image(m, v) for m in matrices_of(group)}
    assert 0 < transforms <= len(group.generators) * len(orbit)


def test_first_moving_element_matches_a_fraction_scan():
    # At orders 96 and 384 and in a rational basis, on stores warmed by the
    # earlier draws: the store's answer is that of a Fraction scan of the
    # members in index order, None or the same first moving member.
    rng = random.Random(53)
    b4 = hyperoctahedral_generators(4)
    s, s_inv = random_rational_basis_change(rng, 4)
    for gens, basis_change in ((_b3_times_z2_generators(), None), (b4, None),
                               (conjugate_all(b4, s, s_inv), s)):
        chart = chart_from_group(generate_group(gens))
        group = chart.group
        mats = matrices_of(group)
        found = set()
        for _ in range(6):
            cand = stabilizer_candidate(rng, chart, basis_change, dims=(0, 4))
            v = cand.v
            target = oracle_canonical_subspace(v.base_point, v.basis)[:2]
            other = group.subgroup_generated_by(
                [rng.randrange(group.order), rng.randrange(group.order)])
            for delta in (cand.delta, other):
                want = next((i for i in delta.members if _oracle_image(mats[i], v) != target),
                            None)
                assert _first_moving_element(delta, v) == want
                found.add(want is None)
        assert found == {True, False}


def test_b4_whole_group_candidates_embed_without_the_lattice(monkeypatch):
    def no_lattice(*args):
        raise AssertionError("the subgroup lattice was enumerated")

    monkeypatch.setattr(groups, "all_subgroups", no_lattice)
    b4 = generate_group(hyperoctahedral_generators(4))
    chart = chart_from_group(b4)
    origin = SuborbifoldCandidate(chart, b4.full_subgroup(), affine_subspace([0] * 4, []))
    whole = SuborbifoldCandidate(chart, b4.full_subgroup(), whole_space(4))
    for cand, effective in ((origin, (b4.identity,)), (whole, b4.members)):
        report = classify(cand)
        assert report.saturated.holds and report.full.holds
        assert report.embedded.holds
        assert report.embedded.effective_delta.members == effective


def test_witness_point_search_is_bounded():
    # The identity is covered, so no witness exists; the search must stop.
    cand = rotation_line_candidate(rot4_chart())
    group = cand.chart.group
    with pytest.raises(AssertionError):
        _witness_point(cand.v, group, cand.delta, group.identity)
    # In B3 with dim W_g = 3 the sample cube has 49^3 points; a covered
    # element is refuted exactly once the first samples miss.
    b3 = generate_group(signed_permutation_matrices(3))
    with pytest.raises(AssertionError, match="covered"):
        _witness_point(whole_space(3), b3, b3.full_subgroup(), b3.identity)


def test_agrees_on_matches_fraction_images():
    # _agrees_on solves h^-1 g x = x on W; h and g agree on W exactly when
    # their Fraction images of W's base point and basis are equal.
    rng = random.Random(41)
    seen = set()
    for _ in range(60):
        cand = random_candidate(rng, max_group_order=48)
        group = cand.chart.group
        h = rng.randrange(group.order)
        g = h if rng.random() < 0.2 else rng.randrange(group.order)
        want = (oracle_images(group.elements[h].matrix, cand.v)
                == oracle_images(group.elements[g].matrix, cand.v))
        assert _agrees_on(group, h, g, cand.v) == want
        seen.add((want, h == g))
    assert seen == {(True, True), (True, False), (False, False)}


def test_corpus_flipped_expectation_raises():
    from suborbifolds.corpus import CASES, CorpusCase

    case = CASES[0]
    flipped = CorpusCase(case.name, case.build, {**case.expected, "full": True},
                         case.search_all_delta, case.checks)
    report = run_corpus(cases=[flipped])
    assert not report.ok
    assert report.mismatches[0][0] == CASES[0].name


def test_classify_report_shape():
    cand = rotation_line_candidate(rot4_chart())
    report = classify(cand, isotropy_points=([0, 0], [2, 0]))
    assert report.saturated.holds
    assert report.kernel.order == 1
    assert len(report.induced_isotropy_at) == 2
    assert report.induced_isotropy_at[0][1].order == 2
    assert report.induced_isotropy_at[1][1].order == 1
