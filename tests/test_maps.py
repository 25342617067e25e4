"""Equivariant maps and the geometric constructions built from them."""
import random
from fractions import Fraction

import pytest

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
    mat,
    mat_rank,
    mat_vec,
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

from oracles import oracle_saturated_sampled, random_candidate


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


def test_compose():
    f = line_into_rot4()
    rot = rot4_chart()
    ident = EquivariantAffineMap(
        rot, rot, mat([[1, 0], [0, 1]]), vec([0, 0]), identity_hom(rot.group)
    )
    g = compose(ident, f)
    assert g.linear == f.linear and g.offset == f.offset
    assert [g.theta(i) for i in range(2)] == [f.theta(i) for i in range(2)]


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
    gx = mat_vec(err.element.matrix, x)
    codomain = f.codomain.group
    return (
        contains_point(hull, x) and contains_point(hull, gx)
        and all(mat_vec(codomain.matrix_of(f.theta(i)), x) != gx
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
