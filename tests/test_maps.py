"""Equivariant maps and the geometric constructions built from them."""
import random
from fractions import Fraction
from pathlib import Path

import pytest

from suborbifolds.classify import (
    SuborbifoldCandidate,
    abelian_omega_isotropy,
    chart_from_group,
    check_embedded,
    check_full,
    check_saturated,
    classify,
    contained_in_regular_part,
    isotropy_sub_point,
)
from suborbifolds.corpus import (
    ROT2,
    klein_chart,
    line_chart,
    point_candidate,
    rot4_chart,
    rotation_line_candidate,
    x_axis,
)
from suborbifolds.errors import (
    ChartMismatch,
    CodomainNotManifold,
    DimensionMismatch,
    EmptyPreimage,
    GroupTooLarge,
    NonInvariant,
    NotImmersion,
    NotInjectiveOnQuotient,
    NotLocalized,
    NotNormal,
    NotSubgroup,
    NotSubmersion,
    NotTransverse,
    NotTransverseToQ,
    ParseError,
    PointNotInV,
    RankDeficient,
)
from suborbifolds.groups import (
    GroupHom,
    Subgroup,
    all_subgroups,
    find_complement,
    generate_group,
    group_from_forms,
    pointwise_stabilizer,
    quotient_group,
    trivial_group,
)
from suborbifolds.linalg import (
    Monomial,
    affine_subspace,
    contains_point,
    direction_sum_is_full,
    fixed_points,
    int_matrix,
    int_vector,
    intersect,
    map_subspace,
    mat,
    mat_rank,
    single_point,
    solve_affine,
    transform_subspace,
    vec,
    whole_space,
)
from suborbifolds.maps import (
    EquivariantAffineMap,
    fibered_product,
    graph_suborbifold,
    image_suborbifold,
    intersect_full,
    map_from_forms,
    preimage_suborbifold,
    product_chart,
    regular_value_preimage,
    transverse_candidates,
    trivial_hom,
)
from suborbifolds.metric import MetricProbe, intrinsic_quotient_distance
from suborbifolds.scene import parse_scene

from oracles import (
    conjugate_all,
    hyperoctahedral_generators,
    identity,
    int_form,
    matrices_of,
    oracle_block_diag,
    oracle_equivariance_failure,
    oracle_map_subspace,
    oracle_mat_mul,
    oracle_mat_vec,
    oracle_saturated_sampled,
    oracle_solve,
    random_candidate,
    random_rational_basis_change,
    signed_permutation_matrices,
)

RATIONAL_SCENE = Path(__file__).resolve().parents[1] / "scenes" / "rational_chart.json"
MAPS_SCENE = RATIONAL_SCENE.with_name("maps.json")


def line_into_rot4():
    """Inclusion of the half-turn line chart onto the x-axis."""
    line = line_chart()
    rot = rot4_chart()
    theta = GroupHom(
        line.group, rot.group,
        (rot.group.index_of(ROT2), rot.group.identity),
    )
    return EquivariantAffineMap(line, rot, mat([[1], [0]]), vec([0, 0]), theta)


def trivial_chart(n):
    return chart_from_group(trivial_group(n))


def trivial_map(n1, n2, rows, offset=None):
    d, c = trivial_chart(n1), trivial_chart(n2)
    return EquivariantAffineMap(
        d, c, mat(rows), vec(offset or [0] * n2),
        trivial_hom(d.group, c.group),
    )


def _identity_hom(group):
    return GroupHom(group, group, tuple(range(group.order)))


def _identity_map(chart):
    n = chart.ambient_dim
    return EquivariantAffineMap(chart, chart, identity(n), [0] * n, _identity_hom(chart.group))


def _on_klein():
    klein = klein_chart()
    return SuborbifoldCandidate(klein, klein.group.full_subgroup(), x_axis())


def _reflection_in_b2():
    """B2 and the subgroup of one reflection, which is not normal in it."""
    b2 = generate_group(hyperoctahedral_generators(2))
    return b2.full_subgroup(), b2.subgroup_from_matrices([mat([[1, 0], [0, -1]])])


def _trivial_and_whole():
    """The trivial subgroup of the quarter-turn group, then the whole group."""
    group = rot4_chart().group
    return group.subgroup_from_indices([group.identity]), group.full_subgroup()


def _without_identity():
    group = rot4_chart().group
    return Subgroup(group, tuple(i for i in group.members if i != group.identity))


def _rotation_line():
    """The rotation line, the x-axis in rot4, and a metric probe on it."""
    cand = rotation_line_candidate(rot4_chart())
    return cand, MetricProbe(cand, ((vec([1, 0]), vec([2, 0])),))


OFF_V, TOO_LONG = "[0, 1] is not in the", "expected a point with 2 coordinates, got 3"


@pytest.mark.parametrize("refused, error, message", [
    (lambda: SuborbifoldCandidate(rot4_chart(), klein_chart().group.full_subgroup(), x_axis()),
     ChartMismatch, "subgroup does not live in the chart group"),
    (lambda: SuborbifoldCandidate(rot4_chart(), rot4_chart().group.full_subgroup(),
                                  single_point([0])),
     ChartMismatch, "subspace ambient dimension differs from chart"),
    (lambda: EquivariantAffineMap(rot4_chart(), rot4_chart(), [[1, 0]], [0, 0],
                                  _identity_hom(rot4_chart().group)),
     ChartMismatch, "linear part has wrong shape"),
    (lambda: EquivariantAffineMap(rot4_chart(), rot4_chart(), identity(2), [0],
                                  _identity_hom(rot4_chart().group)),
     ChartMismatch, "offset has wrong length"),
    (lambda: EquivariantAffineMap(rot4_chart(), rot4_chart(), identity(2), [0, 0],
                                  _identity_hom(klein_chart().group)),
     ChartMismatch, "theta does not connect the chart groups"),
    (lambda: image_suborbifold(_identity_map(rot4_chart()), _on_klein()),
     ChartMismatch, "candidate does not live in the map's domain chart"),
    (lambda: transverse_candidates(_on_klein(), rotation_line_candidate(rot4_chart())),
     ChartMismatch, "candidates do not share the chart"),
    (lambda: preimage_suborbifold(_identity_map(rot4_chart()), _on_klein()),
     ChartMismatch, "target candidate does not live in the codomain chart"),
    (lambda: fibered_product(trivial_map(1, 1, [[1]]), trivial_map(1, 2, [[1], [0]])),
     ChartMismatch, "submersions must share the codomain"),
    (lambda: quotient_group(*_reflection_in_b2()), NotNormal, "k is not normal in d"),
    (lambda: find_complement(*_reflection_in_b2()), NotNormal, "k is not normal in d"),
    (lambda: quotient_group(rot4_chart().group.full_subgroup(),
                            klein_chart().group.full_subgroup()),
     NotSubgroup, "subgroups live in different parent groups"),
    # find_complement lacked this check and returned rot4's trivial subgroup
    pytest.param(lambda: find_complement(rot4_chart().group.full_subgroup(),
                                         klein_chart().group.full_subgroup()),
                 NotSubgroup, "subgroups live in different parent groups",
                 id="find_complement-different-parents"),
    (lambda: quotient_group(*_trivial_and_whole()), NotSubgroup, "k is not contained in d"),
    (lambda: find_complement(*_trivial_and_whole()), NotSubgroup, "k is not contained in d"),
    (_without_identity, NotSubgroup, "subgroup must contain the identity"),
    (lambda: pointwise_stabilizer(rot4_chart().group.full_subgroup(), whole_space(3)),
     DimensionMismatch, "matrix/vector shape mismatch"),
    (lambda: solve_affine(mat([[1, 0]]), [0, 0]),
     DimensionMismatch, "rows of a and length of b differ"),
    (lambda: intersect(whole_space(2), whole_space(3)),
     DimensionMismatch, "ambient dimensions differ"),
    (lambda: fixed_points(int_form(identity(3)), whole_space(2)),
     DimensionMismatch, "ambient dimensions differ"),
    (lambda: direction_sum_is_full(whole_space(2), whole_space(3)),
     DimensionMismatch, "ambient dimensions differ"),
    (lambda: map_subspace(int_matrix([[1, 0]]), int_vector([0]), whole_space(1)),
     DimensionMismatch, "matrix/vector shape mismatch"),
    (lambda: transform_subspace(int_form(identity(3)), whole_space(2)),
     DimensionMismatch, "matrix/vector shape mismatch"),
    (lambda: _identity_map(rot4_chart()).preimage_subspace(whole_space(3)),
     DimensionMismatch, "matrix product shape mismatch"),
    (lambda: abelian_omega_isotropy(klein_chart(), x_axis(), [0, 1]),
     PointNotInV, "[0, 1] is not in the subspace"),
    # The five entry points that read a point on V, on the rotation line.
    pytest.param(lambda: classify(_rotation_line()[0], isotropy_points=([0, 1],)),
                 PointNotInV, f"{OFF_V} candidate subspace", id="classify-off-v"),
    pytest.param(lambda: classify(_rotation_line()[0], isotropy_points=([1, 0, 0],)),
                 DimensionMismatch, TOO_LONG, id="classify-too-long"),
    # each point is read and checked in turn, so the first bad one is named
    pytest.param(lambda: classify(_rotation_line()[0], isotropy_points=([0, 1], [1, 0, 0])),
                 PointNotInV, f"{OFF_V} candidate subspace", id="classify-first-bad-point"),
    pytest.param(lambda: isotropy_sub_point(_rotation_line()[0], [0, 1]),
                 PointNotInV, f"{OFF_V} candidate subspace", id="isotropy_sub_point-off-v"),
    pytest.param(lambda: isotropy_sub_point(_rotation_line()[0], [1, 0, 0]),
                 DimensionMismatch, TOO_LONG, id="isotropy_sub_point-too-long"),
    pytest.param(lambda: abelian_omega_isotropy(rot4_chart(), x_axis(), [0, 1]),
                 PointNotInV, f"{OFF_V} subspace", id="abelian_omega_isotropy-off-v"),
    pytest.param(lambda: abelian_omega_isotropy(rot4_chart(), x_axis(), [1, 0, 0]),
                 DimensionMismatch, TOO_LONG, id="abelian_omega_isotropy-too-long"),
    pytest.param(lambda: _rotation_line()[0].induced.coordinates([0, 1]),
                 PointNotInV, f"{OFF_V} subspace", id="coordinates-off-v"),
    pytest.param(lambda: _rotation_line()[0].induced.coordinates([1, 0, 0]),
                 DimensionMismatch, TOO_LONG, id="coordinates-too-long"),
    pytest.param(lambda: intrinsic_quotient_distance(_rotation_line()[1], [0, 1], [1, 0]),
                 PointNotInV, f"{OFF_V} subspace", id="intrinsic_quotient_distance-off-v"),
    pytest.param(lambda: intrinsic_quotient_distance(_rotation_line()[1], [1, 0, 0], [1, 0]),
                 DimensionMismatch, TOO_LONG, id="intrinsic_quotient_distance-too-long"),
    (lambda: all_subgroups(generate_group(hyperoctahedral_generators(5)).full_subgroup()),
     GroupTooLarge, "subgroup enumeration bounded at order 512"),
    (lambda: fibered_product(trivial_map(1, 1, [[0]]), trivial_map(1, 1, [[1]])),
     NotSubmersion, "both maps must be submersions"),
    (lambda: regular_value_preimage(trivial_map(2, 2, [[1, 0], [1, 0]]), [0, 0]),
     RankDeficient, "rank of the lift is below the codomain dimension"),
])
def test_each_refusal_names_its_reason(refused, error, message):
    # Every raise site of these refusals, each with its exact type and message.
    with pytest.raises(error) as raised:
        refused()
    assert type(raised.value) is error and str(raised.value) == message


def test_equivariance_enforced():
    line = line_chart()
    rot = rot4_chart()
    bad_theta = GroupHom(
        line.group, rot.group,
        (rot.group.identity, rot.group.identity),
    )
    with pytest.raises(NonInvariant):
        # the matrix intertwines -1 with the half turn, not the identity
        EquivariantAffineMap(line, rot, mat([[1], [0]]), vec([0, 0]), bad_theta)
    bad_offset = vec([0, 1])  # not fixed by the half turn
    good_theta = GroupHom(
        line.group, rot.group,
        (rot.group.index_of(ROT2), rot.group.identity),
    )
    with pytest.raises(NonInvariant):
        EquivariantAffineMap(line, rot, mat([[1], [0]]), bad_offset, good_theta)


def test_equivariance_error_names_the_first_failing_element():
    # rot4 is generated by element 1; element 0, the half turn, fails first.
    rot = rot4_chart()
    assert rot.group.generators == (1,)
    to_identity = trivial_hom(rot.group, rot.group)
    with pytest.raises(NonInvariant, match=r"element 0 \(linear part\)$"):
        EquivariantAffineMap(rot, rot, mat([[1, 0], [0, 1]]), vec([0, 0]), to_identity)
    with pytest.raises(NonInvariant, match=r"element 0 \(offset\)$"):
        EquivariantAffineMap(rot, rot, mat([[0, 0], [0, 0]]), vec([1, 0]),
                             _identity_hom(rot.group))


def _conjugated_chart(matrices, s, s_inv):
    return chart_from_group(generate_group(conjugate_all(matrices, s, s_inv)))


def test_equivariance_check_matches_fraction_products():
    # Signed permutation groups conjugated by rational basis changes S1 and
    # S2, so both charts have denominators; L = S2 S1^-1 intertwines them.
    # L, a multiple of it, a perturbation of it or a random L, with a zero,
    # random or fixed offset, under the conjugation theta or the trivial one.
    rng = random.Random(17)
    seen = set()
    for _ in range(120):
        n = rng.randint(1, 3)
        perms = signed_permutation_matrices(n)
        gens = rng.sample(perms, rng.randint(1, min(2, len(perms))))
        s1, s1_inv = random_rational_basis_change(rng, n)
        s2, s2_inv = random_rational_basis_change(rng, n)
        domain = _conjugated_chart(gens, s1, s1_inv)
        codomain = _conjugated_chart(gens, s2, s2_inv)
        # theta(S1 g S1^-1) = S2 g S2^-1 = (S2 S1^-1) (S1 g S1^-1) (S1 S2^-1)
        bridge, back = oracle_mat_mul(s2, s1_inv), oracle_mat_mul(s1, s2_inv)
        images = [codomain.group.index_of(oracle_mat_mul(oracle_mat_mul(bridge, m), back))
                  for m in matrices_of(domain.group)]
        kind = rng.choice(["bridge", "multiple", "perturbed", "random"])
        scale = Fraction(rng.choice([1, -1, 2]), rng.choice([1, 3]))
        linear = [[scale * x for x in row] for row in bridge]
        if kind == "perturbed":
            linear[rng.randrange(n)][rng.randrange(n)] += Fraction(1, rng.choice([1, 2]))
        elif kind == "random":
            linear = [[Fraction(rng.randint(-2, 2), rng.choice([1, 2])) for _ in range(n)]
                      for _ in range(n)]
        offset = [Fraction(0)] * n
        if rng.random() < 0.5:
            offset = [Fraction(rng.randint(-2, 2), rng.choice([1, 3])) for _ in range(n)]
        if rng.random() < 0.25:
            images = [codomain.group.identity] * domain.group.order
        theta = GroupHom(domain.group, codomain.group, tuple(images))
        linear, offset = mat(linear), vec(offset)
        expected = oracle_equivariance_failure(domain.group, codomain.group, linear, offset,
                                               images)
        if expected is None:
            EquivariantAffineMap(domain, codomain, linear, offset, theta)
            seen.add("holds")
            continue
        g, part = expected
        with pytest.raises(NonInvariant) as raised:
            EquivariantAffineMap(domain, codomain, linear, offset, theta)
        assert str(raised.value) == f"equivariance fails on element {g} ({part})"
        seen.add(part)
        seen.add("element > 0" if g > 0 else "element 0")
    assert seen == {"holds", "linear part", "offset", "element 0", "element > 0"}


def test_pair_index_matches_the_block_matrix_index(monkeypatch):
    # rot4 x rot4 and B3 x Z2 (integer entries) and the rational scene's maps
    # (entries over 2, 3 and 6): every pair, looked up by columns, against
    # index_of of the block-diagonal Fraction matrix. The product's
    # generators diag(a, I) and diag(I, b) are the oracle's block matrices,
    # and a monomial factor's blocks keep the Monomial mark.
    import suborbifolds.maps as maps

    built = []

    def recording(gens, max_order):
        built.append(gens)
        return group_from_forms(gens, max_order)

    monkeypatch.setattr(maps, "group_from_forms", recording)
    scene = parse_scene(RATIONAL_SCENE.read_text())
    b3 = chart_from_group(generate_group(hyperoctahedral_generators(3)))
    pairs = [(rot4_chart(), rot4_chart()), (b3, line_chart())]
    pairs += [(f.domain, f.codomain) for f in scene.maps.values()]
    pairs.append((chart_from_group(scene.groups["tall_b2"]),
                  chart_from_group(scene.groups["skew_klein"])))
    assert any(c.group.integer_forms[0] > 1 for pair in pairs for c in pair)
    marks = set()
    for left, right in pairs:
        del built[:]
        product = product_chart(left, right)
        (gens,) = built
        n1, n2 = left.ambient_dim, right.ambient_dim
        blocks = [(left.group, a, lambda m: oracle_block_diag(m, identity(n2)))
                  for a in left.group.generators]
        blocks += [(right.group, b, lambda m: oracle_block_diag(identity(n1), m))
                   for b in right.group.generators]
        assert len(gens) == len(blocks)
        for gen, (group, i, block) in zip(gens, blocks):
            d, forms = group.integer_forms
            assert gen == int_form(block(group.elements[i].matrix), d)
            assert type(gen[1]) is type(forms[i])
            marks.add(type(gen[1]))
        if left is b3:
            assert all(type(rows) is Monomial for _, rows in gens)
        combined = product.combined.group
        assert combined.order == left.group.order * right.group.order
        indices = [[product.pair_index(i, j) for j in range(right.group.order)]
                   for i in range(left.group.order)]
        for i, a in enumerate(matrices_of(left.group)):
            for j, b in enumerate(matrices_of(right.group)):
                assert indices[i][j] == combined.index_of(oracle_block_diag(a, b))
        assert sorted(x for row in indices for x in row) == list(combined.members)
    assert marks == {Monomial, tuple}



def test_fields_do_not_round_trip_through_the_constructor():
    # linear and offset hold the integer forms (d, d A) and (e, e b); the
    # constructor reads a matrix and a vector, so a map is rebuilt from its
    # linear part and offset as rationals.
    f = parse_scene(RATIONAL_SCENE.read_text()).maps["stretch"]
    assert f.linear[0] > 1
    with pytest.raises(ParseError, match="expected a matrix row as a list, got"):
        EquivariantAffineMap(f.domain, f.codomain, f.linear, f.offset, f.theta)
    assert EquivariantAffineMap(f.domain, f.codomain, *_fraction_map(f), f.theta) == f

def _composed(g, f):
    """g after f, from the products of their integer forms, which are not in
    lowest terms: ``map_from_forms`` brings them there."""
    (dg, a), (df, b) = g.linear, f.linear
    (eg, og), (ef, of) = g.offset, f.offset
    linear = (dg * df, [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a])
    # A_g b_f + b_g over dg ef eg.
    offset = (dg * ef * eg, [sum(x * y for x, y in zip(row, of)) * eg + z * dg * ef
                             for row, z in zip(a, og)])
    theta = GroupHom(f.domain.group, g.codomain.group,
                     tuple(g.theta(f.theta(i)) for i in range(f.domain.group.order)))
    return map_from_forms(f.domain, g.codomain, linear, offset, theta)


def _fraction_map(f):
    """f's linear part and offset as a Fraction matrix and vector."""
    (d, rows), (e, offset) = f.linear, f.offset
    return ([[Fraction(x, d) for x in row] for row in rows],
            tuple(Fraction(x, e) for x in offset))


def _oracle_preimage(linear, offset, v):
    """{x : A x + b in v} by one Fraction solve of A x - B t = p - b in
    (x, t), for v = p + span(B), projected onto x."""
    n1 = len(linear[0])
    rows = [list(row) + [-b[i] for b in v.basis] for i, row in enumerate(linear)]
    solved = oracle_solve(rows, [p - c for p, c in zip(v.base_point, offset)])
    if solved is None:
        return None
    particular, homogeneous = solved
    return affine_subspace(particular[:n1], [h[:n1] for h in homogeneous])


def test_map_subspaces_match_fraction_oracle():
    # Every map of the two shipped map scenes and compositions of them,
    # with denominators in the linear part and the offset: the image hull,
    # images of the domain's subspaces, preimages of the codomain's, and
    # the graph's V, against Fraction products and a Fraction solve.
    maps_scene = parse_scene(MAPS_SCENE.read_text())
    rational = parse_scene(RATIONAL_SCENE.read_text())
    rotation, stretch = maps_scene.maps["rot4_identity"], rational.maps["stretch"]
    # stretch^-1 and x -> 2 x + (0, 1/3) on skew_flip, whose group fixes (0, t).
    unstretch = EquivariantAffineMap(
        stretch.codomain, stretch.domain, [[2, 0], [0, "1/3"]], [0, 0],
        GroupHom(stretch.codomain.group, stretch.domain.group,
                 tuple(stretch.theta.image_of.index(i) for i in range(8))))
    flip = rational.maps["fold"].codomain
    doubling = EquivariantAffineMap(flip, flip, [[2, 0], [0, 2]], [0, "1/3"],
                                    _identity_hom(flip.group))
    pairs = [(rotation, maps_scene.maps["plane_into_rot4"]), (rotation, rotation),
             (unstretch, stretch), (doubling, rational.maps["fold"])]
    composed = []
    for g, f in pairs:
        gf = _composed(g, f)
        (a, b), (c, d) = _fraction_map(g), _fraction_map(f)
        assert _fraction_map(gf) == (
            [list(row) for row in oracle_mat_mul(a, c)],
            tuple(x + y for x, y in zip(oracle_mat_vec(a, d), b)))
        composed.append(gf)
    assert _composed(unstretch, stretch) == EquivariantAffineMap(
        stretch.domain, stretch.domain, [[1, 0], [0, 1]], [0, 0],
        _identity_hom(stretch.domain.group))
    subspaces = list(maps_scene.subspaces.values()) + list(rational.subspaces.values())
    maps = list(maps_scene.maps.values()) + list(rational.maps.values()) + composed
    preimages = 0
    for f in maps:
        linear, offset = _fraction_map(f)
        n1, n2 = f.domain.ambient_dim, f.codomain.ambient_dim
        units = [tuple(Fraction(int(i == j)) for i in range(n1)) for j in range(n1)]
        assert f.image_subspace() == affine_subspace(
            offset, [oracle_mat_vec(linear, e) for e in units])
        assert graph_suborbifold(f).v == affine_subspace(
            (0,) * n1 + offset, [e + oracle_mat_vec(linear, e) for e in units])
        for u in subspaces + [whole_space(n1)]:
            if u.ambient_dim == n1:
                assert map_subspace(f.linear, f.offset, u) == oracle_map_subspace(
                    linear, offset, u)
        for v in subspaces + [whole_space(n2), single_point(offset)]:
            if v.ambient_dim == n2:
                want = _oracle_preimage(linear, offset, v)
                assert f.preimage_subspace(v) == want
                preimages += want is not None
    assert len(maps) == 9 and preimages > 20


def test_image_reproduces_rotation_line():
    f = line_into_rot4()
    line = line_chart()
    cand = SuborbifoldCandidate(
        line, line.group.full_subgroup(), whole_space(1)
    )
    img = image_suborbifold(f, cand)
    expected = rotation_line_candidate(rot4_chart())
    assert img.v == expected.v
    assert img.delta.members == expected.delta.members
    rep = classify(img)
    assert rep.saturated.holds and not rep.full.holds and rep.embedded.holds


def test_image_rejects_orbit_collapsing_map():
    t1 = trivial_chart(1)
    rot = rot4_chart()
    f = EquivariantAffineMap(
        t1, rot, mat([[1], [0]]), vec([0, 0]),
        trivial_hom(t1.group, rot.group),
    )
    cand = SuborbifoldCandidate(t1, t1.group.full_subgroup(), whole_space(1))
    with pytest.raises(NotInjectiveOnQuotient) as err:
        image_suborbifold(f, cand)
    assert replays_orbit_collapse(f, err.value)


def replays_orbit_collapse(f, err) -> bool:
    """x and gx lie in the image hull, and no theta(g') maps x to gx."""
    hull = f.image_subspace()
    x = err.point
    gx = oracle_mat_vec(err.element.matrix, x)
    codomain = f.codomain.group
    return (
        contains_point(hull, x) and contains_point(hull, gx)
        and all(oracle_mat_vec(codomain.elements[f.theta(i)].matrix, x) != gx
                for i in range(f.domain.group.order))
    )


def random_map(rng):
    """A random immersion with a candidate in its domain.

    Either a trivial-group chart mapped affinely into a signed-permutation
    chart, or the inclusion of a subgroup H into its group G, scaled.
    """
    sample = random_candidate(rng)
    chart = sample.chart
    n = chart.ambient_dim
    if rng.random() < 0.5:
        k = rng.randint(1, n)
        while True:
            rows = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(n)]
            if mat_rank(mat(rows)) == k:
                break
        domain = trivial_chart(k)
        f = EquivariantAffineMap(
            domain, chart, mat(rows), vec([rng.randint(-2, 2) for _ in range(n)]),
            trivial_hom(domain.group, chart.group),
        )
        return f, SuborbifoldCandidate(domain, domain.group.full_subgroup(), whole_space(k))
    domain = chart_from_group(sample.delta.promote())
    theta = GroupHom(domain.group, chart.group,
                     tuple(chart.group.index_of(m) for m in matrices_of(domain.group)))
    scale = rng.choice([1, -1, 2, Fraction(1, 2)])
    f = EquivariantAffineMap(
        domain, chart, mat([[scale if i == j else 0 for j in range(n)] for i in range(n)]),
        vec([0] * n), theta,
    )
    return f, SuborbifoldCandidate(domain, domain.group.full_subgroup(), sample.v)


def test_image_randomized_maps():
    rng = random.Random(1512)
    rejected = built = 0
    for _ in range(60):
        f, cand = random_map(rng)
        try:
            image = image_suborbifold(f, cand)
        except NotInjectiveOnQuotient as err:
            assert replays_orbit_collapse(f, err)
            rejected += 1
        else:
            assert check_saturated(image).holds
            assert oracle_saturated_sampled(image, rng)
            built += 1
    assert rejected and built


def test_image_requires_immersion():
    f = trivial_map(2, 2, [[1, 0], [0, 0]])
    cand = SuborbifoldCandidate(
        f.domain, f.domain.group.full_subgroup(), whole_space(2)
    )
    with pytest.raises(NotImmersion):
        image_suborbifold(f, cand)


def test_graph_dichotomy_hand_cases():
    # identity on the rotation chart: image hull hits the singular origin
    rot = rot4_chart()
    ident = EquivariantAffineMap(
        rot, rot, mat([[1, 0], [0, 1]]), vec([0, 0]), _identity_hom(rot.group)
    )
    g1 = graph_suborbifold(ident)
    assert check_saturated(g1).holds and check_embedded(g1).holds
    assert not check_full(g1).holds
    # projection killing a reflection, codomain a manifold chart: full
    sign = chart_from_group(generate_group([mat([[1, 0], [0, -1]])]))
    t1 = trivial_chart(1)
    proj = EquivariantAffineMap(
        sign, t1, mat([[1, 0]]), vec([0]), trivial_hom(sign.group, t1.group)
    )
    g2 = graph_suborbifold(proj)
    assert check_saturated(g2).holds and check_embedded(g2).holds
    assert check_full(g2).holds


def test_graph_dichotomy_randomized():
    rng = random.Random(99)
    full_seen = nonfull_seen = 0
    for _ in range(25):
        n = rng.randint(1, 3)
        rot = rot4_chart()
        if rng.random() < 0.5:
            # scalar multiple of the identity on the rotation chart
            c = Fraction(rng.randint(-3, 3))
            f = EquivariantAffineMap(
                rot, rot,
                mat([[c, 0], [0, c]]), vec([0, 0]),
                _identity_hom(rot.group) if c != 0
                else trivial_hom(rot.group, rot.group),
            )
        else:
            # random affine map between manifold charts
            m = rng.randint(1, 3)
            rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
            f = trivial_map(n, m, rows, [rng.randint(-2, 2) for _ in range(m)])
        cand = graph_suborbifold(f)
        assert check_saturated(cand).holds
        assert check_embedded(cand).holds
        regular = contained_in_regular_part(f.codomain, f.image_subspace())
        assert check_full(cand).holds == regular
        if regular:
            full_seen += 1
        else:
            nonfull_seen += 1
    assert full_seen and nonfull_seen


def test_product_point_open_intersection():
    # (P1 x O2) meet (O1 x P2) = P1 x P2 in the product chart
    rot = rot4_chart()
    prod = product_chart(rot, rot).combined
    full = prod.group.full_subgroup()
    p1_o2 = SuborbifoldCandidate(
        prod, full, affine_subspace([0, 0, 0, 0], [[0, 0, 1, 0], [0, 0, 0, 1]])
    )
    o1_p2 = SuborbifoldCandidate(
        prod, full, affine_subspace([0, 0, 0, 0], [[1, 0, 0, 0], [0, 1, 0, 0]])
    )
    meet = intersect_full(p1_o2, o1_p2)
    assert meet.v.dim == 0
    assert meet.v.base_point == vec([0, 0, 0, 0])
    assert meet.delta.order == prod.group.order


def test_intersect_requires_transversality():
    t2 = trivial_chart(2)
    a = SuborbifoldCandidate(
        t2, t2.group.full_subgroup(), affine_subspace([0, 0], [[1, 0]])
    )
    b = SuborbifoldCandidate(
        t2, t2.group.full_subgroup(), affine_subspace([0, 1], [[1, 0]])
    )
    with pytest.raises(NotTransverse):
        intersect_full(a, b)
    assert not transverse_candidates(a, b)


def test_transverse_intersection_dimension_randomized():
    rng = random.Random(5)
    done = 0
    while done < 15:
        n = rng.randint(2, 4)
        t = trivial_chart(n)
        full = t.group.full_subgroup()

        def rand_sub(k):
            base = [rng.randint(-2, 2) for _ in range(n)]
            dirs = [
                [rng.randint(-2, 2) for _ in range(n)] for _ in range(k)
            ]
            return affine_subspace(base, dirs)

        k1, k2 = rng.randint(1, n), rng.randint(1, n)
        if k1 + k2 < n:
            continue
        a = SuborbifoldCandidate(t, full, rand_sub(k1))
        b = SuborbifoldCandidate(t, full, rand_sub(k2))
        if not transverse_candidates(a, b):
            continue
        meet = intersect_full(a, b)
        assert meet.v.dim == a.v.dim + b.v.dim - n
        done += 1


def test_preimage_hand_case_and_errors():
    # projection onto the first coordinate, target a vertical line's image
    f = trivial_map(3, 2, [[1, 0, 0], [0, 1, 0]])
    t2 = trivial_chart(2)
    q = SuborbifoldCandidate(
        t2, t2.group.full_subgroup(), affine_subspace([1, 0], [[0, 1]])
    )
    pre = preimage_suborbifold(f, q)
    assert pre.v.dim == 3 - (2 - 1)
    assert pre.v == affine_subspace([1, 0, 0], [[0, 1, 0], [0, 0, 1]])
    # empty preimage
    g = trivial_map(1, 2, [[1], [0]], [0, 1])
    point = SuborbifoldCandidate(
        t2, t2.group.full_subgroup(), affine_subspace([0, 0], [])
    )
    with pytest.raises(EmptyPreimage):
        preimage_suborbifold(g, point)


def test_preimage_requires_localized_codomain():
    rot = rot4_chart()
    t2 = trivial_chart(2)
    f = EquivariantAffineMap(
        t2, rot, mat([[1, 0], [0, 1]]), vec([0, 0]),
        trivial_hom(t2.group, rot.group),
    )
    q = SuborbifoldCandidate(rot, rot.group.full_subgroup(), whole_space(2))
    with pytest.raises(NotLocalized):
        preimage_suborbifold(f, q)


def test_preimage_transversality_enforced():
    f = line_into_rot4()
    origin = point_candidate(rot4_chart())
    with pytest.raises(NotTransverseToQ):
        preimage_suborbifold(f, origin)


def test_preimage_dimension_randomized():
    rng = random.Random(17)
    done = 0
    while done < 15:
        n1 = rng.randint(1, 4)
        n2 = rng.randint(1, min(3, n1))
        rows = [[rng.randint(-2, 2) for _ in range(n1)] for _ in range(n2)]
        f = trivial_map(n1, n2, rows, [rng.randint(-1, 1) for _ in range(n2)])
        k = rng.randint(0, n2)
        base = [rng.randint(-2, 2) for _ in range(n2)]
        dirs = [[rng.randint(-2, 2) for _ in range(n2)] for _ in range(k)]
        sub = affine_subspace(base, dirs)
        t = trivial_chart(n2)
        q = SuborbifoldCandidate(t, t.group.full_subgroup(), sub)
        try:
            pre = preimage_suborbifold(f, q)
        except (EmptyPreimage, NotTransverseToQ):
            continue
        assert pre.v.dim == n1 - (n2 - q.v.dim)
        done += 1


def test_regular_value_hand_cases():
    proj = trivial_map(2, 1, [[1, 0]])
    rv = regular_value_preimage(proj, [Fraction(1, 2)])
    assert rv.v == affine_subspace([Fraction(1, 2), 0], [[0, 1]])
    # auto-localization: identity on the rotation chart at the origin
    rot = rot4_chart()
    ident = EquivariantAffineMap(
        rot, rot, mat([[1, 0], [0, 1]]), vec([0, 0]), _identity_hom(rot.group)
    )
    rv0 = regular_value_preimage(ident, [0, 0])
    assert rv0.v.dim == 0
    # moving value: theta does not fix it, so localization must refuse
    with pytest.raises(NotLocalized):
        regular_value_preimage(ident, [1, 0])


def test_regular_value_preimage_solves_once(monkeypatch):
    # A lift of full rank attains every value; the value's preimage was solved
    # once to test that, then again for the candidate.
    f = parse_scene(MAPS_SCENE.read_text()).maps["plane_into_rot4"]
    solve = EquivariantAffineMap.preimage_subspace
    calls = []

    def counted(self, v):
        calls.append(v)
        return solve(self, v)

    monkeypatch.setattr(EquivariantAffineMap, "preimage_subspace", counted)
    result = regular_value_preimage(f, [1, 0])
    assert len(calls) == 1
    assert result.v == affine_subspace([1, 0], [])


def test_fibered_product_and_codomain_check():
    sign = chart_from_group(generate_group([mat([[1, 0], [0, -1]])]))
    t1 = trivial_chart(1)
    proj = EquivariantAffineMap(
        sign, t1, mat([[1, 0]]), vec([0]), trivial_hom(sign.group, t1.group)
    )
    fp = fibered_product(proj, proj)
    assert fp.v.dim == 2 + 2 - 1
    assert fp.chart.ambient_dim == 4
    # nontrivial codomain group is refused
    rot = rot4_chart()
    ident = EquivariantAffineMap(
        rot, rot, mat([[1, 0], [0, 1]]), vec([0, 0]), _identity_hom(rot.group)
    )
    with pytest.raises(CodomainNotManifold):
        fibered_product(ident, ident)


def test_fibered_product_dimension_randomized():
    rng = random.Random(23)
    done = 0
    while done < 8:
        m = rng.randint(1, 2)
        n1 = rng.randint(m, 3)
        n2 = rng.randint(m, 3)

        def rand_submersion(n):
            while True:
                rows = [
                    [rng.randint(-2, 2) for _ in range(n)] for _ in range(m)
                ]
                if mat_rank(mat(rows)) == m:
                    return trivial_map(n, m, rows)

        f1, f2 = rand_submersion(n1), rand_submersion(n2)
        fp = fibered_product(f1, f2)
        assert fp.v.dim == n1 + n2 - m
        done += 1
