"""Equivariant maps and the geometric constructions built from them."""
import random
from fractions import Fraction
from pathlib import Path

import pytest

from suborbifolds import records
from suborbifolds.classify import (
    SuborbifoldCandidate,
    chart_from_group,
    check_embedded,
    check_full,
    check_saturated,
    classify,
    contained_in_regular_part,
)
from suborbifolds.corpus import (
    ROT2,
    line_chart,
    point_candidate,
    rot4_chart,
    rotation_line_candidate,
)
from suborbifolds.errors import (
    CodomainNotManifold,
    EmptyPreimage,
    NonInvariant,
    NotImmersion,
    NotInjectiveOnQuotient,
    NotLocalized,
    NotTransverse,
    NotTransverseToQ,
)
from suborbifolds.groups import GroupHom, generate_group, trivial_group
from suborbifolds.linalg import (
    affine_subspace,
    contains_point,
    map_subspace,
    mat,
    mat_rank,
    single_point,
    vec,
    whole_space,
)
from suborbifolds.maps import (
    EquivariantAffineMap,
    compose,
    fibered_product,
    graph_suborbifold,
    identity_hom,
    image_suborbifold,
    intersect_full,
    preimage_suborbifold,
    product_chart,
    regular_value_preimage,
    transverse_candidates,
    trivial_hom,
)
from suborbifolds.scene import parse_scene

from oracles import (
    conjugate_all,
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
                             identity_hom(rot.group))


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
                  for m in domain.group.matrices]
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


def test_pair_index_matches_the_block_matrix_index():
    # rot4 x rot4 (integer entries) and the rational scene's maps (entries
    # over 2, 3 and 6): every pair, looked up by columns, against index_of
    # of the block-diagonal Fraction matrix.
    scene = parse_scene(RATIONAL_SCENE.read_text())
    pairs = [(rot4_chart(), rot4_chart())]
    pairs += [(f.domain, f.codomain) for f in scene.maps.values()]
    pairs.append((chart_from_group(scene.groups["tall_b2"]),
                  chart_from_group(scene.groups["skew_klein"])))
    assert any(c.group.integer_forms[0] > 1 for pair in pairs for c in pair)
    for left, right in pairs:
        product = product_chart(left, right)
        combined = product.combined.group
        assert combined.order == left.group.order * right.group.order
        indices = [[product.pair_index(i, j) for j in range(right.group.order)]
                   for i in range(left.group.order)]
        for i, a in enumerate(left.group.matrices):
            for j, b in enumerate(right.group.matrices):
                assert indices[i][j] == combined.index_of(oracle_block_diag(a, b))
        assert sorted(x for row in indices for x in row) == list(combined.members)


def test_compose():
    f = line_into_rot4()
    rot = rot4_chart()
    ident = EquivariantAffineMap(
        rot, rot, mat([[1, 0], [0, 1]]), vec([0, 0]), identity_hom(rot.group)
    )
    g = compose(ident, f)
    assert g.linear == f.linear and g.offset == f.offset
    assert [g.theta(i) for i in range(2)] == [f.theta(i) for i in range(2)]



def test_fields_do_not_round_trip_through_the_constructor():
    # linear and offset hold the integer forms (d, d A) and (e, e b); the
    # constructor reads a matrix and a vector, so a map is rebuilt from its
    # linear part and offset as rationals, and records.replace is refused.
    f = parse_scene(RATIONAL_SCENE.read_text()).maps["stretch"]
    assert f.linear[0] > 1
    with pytest.raises(TypeError):
        EquivariantAffineMap(f.domain, f.codomain, f.linear, f.offset, f.theta)
    with pytest.raises(TypeError):
        records.replace(f, theta=f.theta)
    assert EquivariantAffineMap(f.domain, f.codomain, *_fraction_map(f), f.theta) == f

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
                                    identity_hom(flip.group))
    pairs = [(rotation, maps_scene.maps["plane_into_rot4"]), (rotation, rotation),
             (unstretch, stretch), (doubling, rational.maps["fold"])]
    composed = []
    for g, f in pairs:
        gf = compose(g, f)
        (a, b), (c, d) = _fraction_map(g), _fraction_map(f)
        assert _fraction_map(gf) == (
            [list(row) for row in oracle_mat_mul(a, c)],
            tuple(x + y for x, y in zip(oracle_mat_vec(a, d), b)))
        composed.append(gf)
    assert compose(unstretch, stretch) == EquivariantAffineMap(
        stretch.domain, stretch.domain, [[1, 0], [0, 1]], [0, 0],
        identity_hom(stretch.domain.group))
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
    expected = rotation_line_candidate()
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
        and all(oracle_mat_vec(codomain.matrix_of(f.theta(i)), x) != gx
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
                     tuple(chart.group.index_of(m) for m in domain.group.matrices))
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
        rot, rot, mat([[1, 0], [0, 1]]), vec([0, 0]), identity_hom(rot.group)
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
                identity_hom(rot.group) if c != 0
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
    assert not transverse_candidates(t2, a, b)


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
        if not transverse_candidates(t, a, b):
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
        rot, rot, mat([[1, 0], [0, 1]]), vec([0, 0]), identity_hom(rot.group)
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
        rot, rot, mat([[1, 0], [0, 1]]), vec([0, 0]), identity_hom(rot.group)
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
