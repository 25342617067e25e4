"""Finite matrix groups: hand-counted lattices, Lagrange, complements,
fingerprints under relabeling."""
import random

import pytest

from suborbifolds.errors import (
    NonInvertibleGenerator,
    NotFiniteWithinBound,
    NotSubgroup,
)
import suborbifolds.groups as groups
from suborbifolds.groups import (
    FiniteMatrixGroup,
    Fingerprint,
    NoComplementCertificate,
    Subgroup,
    all_subgroups,
    are_isomorphic,
    element_order,
    find_complement,
    generate_group,
    iso_fingerprint,
    pointwise_stabilizer,
    quotient_group,
    realify,
    stabilizer,
    trivial_group,
)
from suborbifolds.linalg import affine_subspace, mat, vec

from oracles import _closure, random_candidate, signed_permutation_matrices

ROT4 = mat([[0, -1], [1, 0]])
ROT2 = mat([[-1, 0], [0, -1]])
SIGN_X = mat([[-1, 0], [0, 1]])
SIGN_Y = mat([[1, 0], [0, -1]])


def rot4_group():
    return generate_group([ROT4])


def klein_group():
    return generate_group([SIGN_X, SIGN_Y])


def test_generate_rot4():
    g = rot4_group()
    assert g.order == 4
    assert g.is_abelian()
    # canonical element order is lexicographic on matrix entries
    assert g.elements[0].matrix == ROT2
    assert g.matrix_of(g.identity) == mat([[1, 0], [0, 1]])


def test_cayley_consistency():
    g = klein_group()
    for i in range(g.order):
        for j in range(g.order):
            assert g.matrix_of(g.mult(i, j)) == mat(
                [
                    [
                        sum(
                            g.matrix_of(i)[r][k] * g.matrix_of(j)[k][c]
                            for k in range(2)
                        )
                        for c in range(2)
                    ]
                    for r in range(2)
                ]
            )
        assert g.mult(i, g.inv(i)) == g.identity


def test_singular_generator_rejected():
    with pytest.raises(NonInvertibleGenerator):
        generate_group([mat([[1, 0], [0, 0]])])


def test_infinite_group_bounded():
    with pytest.raises(NotFiniteWithinBound):
        generate_group([mat([[1, 1], [0, 1]])], max_order=100)


def test_subgroup_lattice_z4():
    # Z4 has exactly 3 subgroups: {e}, {e, r^2}, whole
    subs = all_subgroups(rot4_group())
    assert [s.order for s in subs] == [1, 2, 4]


def test_subgroup_lattice_klein():
    # Z2 x Z2 has exactly 5 subgroups
    subs = all_subgroups(klein_group())
    assert [s.order for s in subs] == [1, 2, 2, 2, 4]


def test_lagrange_randomized():
    rng = random.Random(7)
    for _ in range(30):
        cand = random_candidate(rng)
        g = cand.chart.group
        for s in all_subgroups(g):
            assert g.order % s.order == 0


def test_subgroup_from_indices_rejects_nonclosed():
    g = rot4_group()
    rot4_index = g.index_of(ROT4)
    with pytest.raises(NotSubgroup):
        g.subgroup_from_indices([g.identity, rot4_index])


def test_subgroup_from_matrices_generates():
    g = rot4_group()
    s = g.subgroup_from_matrices([ROT4])
    assert s.order == 4


def test_stabilizer_and_pointwise_stabilizer():
    g = rot4_group()
    assert stabilizer(g, vec([1, 0])).order == 1
    assert stabilizer(g, vec([0, 0])).order == 4
    x_axis = affine_subspace([0, 0], [[1, 0]])
    assert pointwise_stabilizer(g, x_axis).order == 1
    k = klein_group()
    assert pointwise_stabilizer(k, x_axis).order == 2  # I and diag(1,-1)


def test_quotient_group_z4_mod_z2():
    g = rot4_group()
    d = g.full_subgroup()
    k = g.subgroup_from_matrices([ROT2])
    q, proj = quotient_group(d, k)
    assert q.order == 2
    assert proj.is_homomorphism()
    assert iso_fingerprint(q) == Fingerprint(2, (1, 2), True)


def test_complement_exists_klein():
    g = klein_group()
    d = g.full_subgroup()
    k = g.subgroup_from_matrices([SIGN_X])
    c = find_complement(d, k)
    assert isinstance(c, Subgroup)
    assert c.order * k.order == d.order
    assert set(c.members) & set(k.members) == {g.identity}
    # c k = d
    products = {g.mult(a, b) for a in c.members for b in k.members}
    assert products == set(d.members)


def test_no_complement_z4():
    g = rot4_group()
    d = g.full_subgroup()
    k = g.subgroup_from_matrices([ROT2])
    cert = find_complement(d, k)
    assert isinstance(cert, NoComplementCertificate)
    assert cert.group_order == 4 and cert.kernel_order == 2
    # independent exhaustive verification over the lattice
    for s in all_subgroups(g):
        if s.order == 2:
            assert set(s.members) & set(k.members) != {g.identity}


def test_complement_soundness_randomized():
    rng = random.Random(11)
    seen = 0
    for _ in range(40):
        cand = random_candidate(rng)
        g = cand.chart.group
        subs = all_subgroups(g)
        for d in subs:
            for k in subs:
                if not (k.is_subset_of(d) and k.is_normal_in(d)):
                    continue
                seen += 1
                result = find_complement(d, k)
                if isinstance(result, Subgroup):
                    assert result.order * k.order == d.order
                    assert set(result.members) & set(k.members) == {g.identity}
                    prods = {
                        g.mult(a, b)
                        for a in result.members
                        for b in k.members
                    }
                    assert prods == set(d.members)
                else:
                    # exhaustive refutation, re-verified independently
                    target = d.order // k.order
                    for s in all_subgroups(d):
                        if s.order == target:
                            assert set(s.members) & set(k.members) != {
                                g.identity
                            }
    assert seen > 50


def test_fingerprint_invariant_under_relabeling():
    # same group generated from different generators => same fingerprint
    a = generate_group([ROT4])
    b = generate_group([mat([[0, 1], [-1, 0]])])
    assert iso_fingerprint(a) == iso_fingerprint(b)
    assert are_isomorphic(a, b)


def test_isomorphism_distinguishes_z4_and_klein():
    assert not are_isomorphic(rot4_group(), klein_group())
    assert iso_fingerprint(rot4_group()) != iso_fingerprint(klein_group())


def test_realify_z4():
    # complex i acting on C realifies to the rotation by pi/2
    m = realify([[(0, 1)]])
    assert m == ROT4
    g = generate_group([realify([[(0, 1), (0, 0)], [(0, 0), (-1, 0)]])])
    assert g.order == 4
    assert iso_fingerprint(g) == Fingerprint(4, (1, 2, 4, 4), True)


def test_element_orders():
    g = rot4_group()
    s = g.full_subgroup()
    orders = sorted(element_order(s, i) for i in range(s.order))
    assert orders == [1, 2, 4, 4]


def test_trivial_and_dimension_zero_groups():
    t = trivial_group(3)
    assert t.order == 1 and t.ambient_dim == 3
    z = FiniteMatrixGroup([()])
    assert z.order == 1 and z.ambient_dim == 0


def test_signed_permutation_pool_sizes():
    assert len(signed_permutation_matrices(2)) == 8
    assert len(signed_permutation_matrices(3)) == 48


def test_cayley_table_one_product_per_cell(monkeypatch):
    calls = []
    real = groups.mat_mul

    def counting(a, b):
        calls.append(None)
        return real(a, b)

    monkeypatch.setattr(groups, "mat_mul", counting)
    g = FiniteMatrixGroup(signed_permutation_matrices(3))
    assert len(calls) == g.order ** 2 == 48 ** 2


def test_subgroup_lookups_agree_with_parent_table():
    g = FiniteMatrixGroup(signed_permutation_matrices(3))
    subs = all_subgroups(g)
    assert len(subs) == 98
    for s in subs:
        m = s.members
        assert m[s.identity] == g.identity
        for i in range(s.order):
            assert m[s.inv(i)] == g.inv(m[i])
            for j in range(s.order):
                assert m[s.mult(i, j)] == g.mult(m[i], m[j])


def test_closure_matches_oracle():
    g = FiniteMatrixGroup(signed_permutation_matrices(3))
    rng = random.Random(5)
    seeds = [s.members for s in all_subgroups(g)]
    seeds += [rng.sample(range(g.order), rng.randint(1, 3)) for _ in range(50)]
    for seed in seeds:
        assert groups._closure_indices(g, seed) == _closure(g, seed)
