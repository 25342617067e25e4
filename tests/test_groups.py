"""Finite matrix groups: hand-counted lattices, Lagrange, complements,
fingerprints under relabeling, and the permutation-action core against
matrix-product and sympy references."""
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from suborbifolds.classify import SuborbifoldCandidate, chart_from_group, induced_chart
from suborbifolds.cli import main
from suborbifolds.errors import (
    DimensionMismatch,
    NonInvertibleGenerator,
    NotFiniteWithinBound,
    NotSubgroup,
    ParseError,
)
import suborbifolds.groups as groups
import suborbifolds.linalg as linalg
from suborbifolds.groups import (
    Fingerprint,
    GroupHom,
    NoComplementCertificate,
    Subgroup,
    all_subgroups,
    find_complement,
    generate_group,
    iso_fingerprint,
    pointwise_stabilizer,
    quotient_group,
    realify,
    stabilizer,
    trivial_group,
)
from suborbifolds.linalg import (
    affine_subspace, mat, restricted_matrix, vec,
)
from suborbifolds.maps import product_chart

from oracles import (
    _closure,
    conjugate_all,
    hyperoctahedral_generators,
    identity,
    int_form,
    matrices_of,
    oracle_find_complement,
    oracle_generate_group,
    oracle_group_closure,
    oracle_is_homomorphism,
    oracle_is_normal,
    oracle_block_diag,
    oracle_least_complement,
    oracle_mat_mul,
    oracle_mat_vec,
    oracle_quotient_fingerprint,
    random_candidate,
    random_rational_basis_change,
    signed_permutation,
    signed_permutation_matrices,
)

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
    assert g.elements[g.identity].matrix == mat([[1, 0], [0, 1]])


def _assert_matches_reference(g, reference, pairs=None):
    """g has the reference's sorted elements, their products in every cell
    (or in the given cells), the identity and every inverse."""
    assert matrices_of(g) == reference
    ident = identity(g.ambient_dim)
    assert g.elements[g.identity].matrix == ident
    if pairs is None:
        pairs = [(i, j) for i in range(len(reference)) for j in range(len(reference))]
    for i, j in pairs:
        assert g.elements[g.mult(i, j)].matrix == oracle_mat_mul(reference[i], reference[j])
    for i, a in enumerate(reference):
        assert oracle_mat_mul(a, g.elements[g.inv(i)].matrix) == ident


def _seeded_groups(count, max_order):
    """Generators of seeded groups: signed-permutation subgroups of dimension
    1-4, most conjugated by a rational basis change (non-integer entries,
    non-orthogonal)."""
    rng = random.Random(17)
    out = []
    while len(out) < count:
        n = rng.randint(1, 4)
        gens = rng.sample(signed_permutation_matrices(n), rng.randint(1, 2))
        if len(oracle_group_closure(gens)) > max_order:
            continue
        if rng.random() < 0.8:
            gens = conjugate_all(gens, *random_rational_basis_change(rng, n))
        out.append(gens)
    return out


def test_cayley_consistency():
    g = klein_group()
    _assert_matches_reference(g, oracle_group_closure([SIGN_X, SIGN_Y]))
    rng = random.Random(3)
    realified = realify([[(0, 1), (0, 0)], [(0, 0), (-1, 0)]])
    for gens in _seeded_groups(30, 96) + [[realified]]:
        reference = oracle_group_closure(gens)
        g = generate_group(gens)
        # every product, inverse and the identity, whatever generated the group
        shuffled = list(reference)
        rng.shuffle(shuffled)
        built = generate_group(shuffled)
        for group in (g, built):
            _assert_matches_reference(group, reference)
            # either way the kept generators generate the group
            assert groups._closure_indices(group, group.generators) == set(group.members)


def test_b5_products_match_matrix_products():
    # B5 is every signed permutation matrix of size 5; the products are sampled.
    g = generate_group(hyperoctahedral_generators(5))
    reference = sorted(signed_permutation_matrices(5))
    rng = random.Random(5)
    pairs = [(rng.randrange(3840), rng.randrange(3840)) for _ in range(3000)]
    _assert_matches_reference(g, reference, pairs)


def _from_columns(columns):
    """The Fraction matrix whose columns are the points (den, den x)."""
    return tuple(zip(*[tuple(Fraction(x, den) for x in xs) for den, xs in columns]))


def test_generated_group_is_closed_once(monkeypatch):
    closures = []
    real = groups._close_permutations

    def counting(*args):
        closures.append(None)
        return real(*args)

    monkeypatch.setattr(groups, "_close_permutations", counting)
    b4 = generate_group(hyperoctahedral_generators(4))
    assert b4.order == 384 and len(closures) == 1
    assert [b4.elements[i].matrix for i in b4.generators] == hyperoctahedral_generators(4)
    # Every other group is generated too, each closed once from generators
    # and equal to the closure of all its matrices by matrix products.
    flips = b4.subgroup_from_indices(
        i for i, m in enumerate(matrices_of(b4))
        if all(m[a][b] == 0 for a in range(4) for b in range(4) if a != b))
    b3 = generate_group(hyperoctahedral_generators(3))
    plane = affine_subspace([0, 0, 1], [[1, 0, 0], [0, 1, 0]])
    plane_delta = b3.subgroup_from_indices(
        i for i, m in enumerate(matrices_of(b3)) if m[2] == (0, 0, 1))
    cand = SuborbifoldCandidate(chart_from_group(b3), plane_delta, plane)
    rot4, klein = chart_from_group(rot4_group()), chart_from_group(klein_group())
    assert len(flips.generators) > 1 and len(plane_delta.generators) > 1
    cases = [
        (flips.promote, matrices_of(flips)),
        (lambda: product_chart(rot4, klein).combined.group,
         [oracle_block_diag(a, b)
          for a in matrices_of(rot4.group) for b in matrices_of(klein.group)]),
        (lambda: induced_chart(cand).chart.group,
         [_from_columns(restricted_matrix(int_form(m), plane))
          for m in matrices_of(plane_delta)]),
        (lambda: trivial_group(3), [identity(3)]),
    ]
    for build, matrices in cases:
        closures.clear()
        group = build()
        assert len(closures) == 1
        assert matrices_of(group) == oracle_group_closure(list(matrices))


def _counting_closures(monkeypatch):
    """Record the generator forms of every group closed from now on."""
    closed = []
    real = groups._close

    def counting(forms, max_order):
        closed.append(tuple(forms))
        return real(forms, max_order)

    monkeypatch.setattr(groups, "_close", counting)
    return closed


def test_equal_generator_forms_give_the_one_kept_group(monkeypatch):
    closed = _counting_closures(monkeypatch)
    b3 = generate_group(hyperoctahedral_generators(3))
    assert generate_group(hyperoctahedral_generators(3)) is b3
    # the same matrices written as strings read into the same forms
    written = [[[str(x) for x in row] for row in m] for m in hyperoctahedral_generators(3)]
    assert generate_group(written) is b3
    rot4, klein = chart_from_group(rot4_group()), chart_from_group(klein_group())
    product = product_chart(rot4, klein).combined.group
    assert product_chart(chart_from_group(rot4_group()), klein).combined.group is product
    flips = b3.subgroup_from_indices(
        i for i, m in enumerate(matrices_of(b3))
        if all(m[a][b] == 0 for a in range(3) for b in range(3) if a != b))
    assert flips.promote() is flips.promote()
    assert b3.subgroup_from_indices(flips.members).promote() is flips.promote()
    assert len(closed) == 5 == len(set(closed))


def test_generators_in_another_order_give_their_own_group():
    # The Schreier tree spells elements in the generators, in order, so a
    # group is kept per ordered generator list.
    forward, backward = klein_group(), generate_group([SIGN_Y, SIGN_X])
    assert backward is not forward and matrices_of(backward) == matrices_of(forward)
    assert [forward.elements[i].matrix for i in forward.generators] == [SIGN_X, SIGN_Y]
    assert [backward.elements[i].matrix for i in backward.generators] == [SIGN_Y, SIGN_X]
    assert generate_group([SIGN_Y, SIGN_X]) is backward and klein_group() is forward


def test_a_kept_group_past_max_order_is_refused_as_a_cold_build(monkeypatch):
    b2_generators = hyperoctahedral_generators(2)
    with pytest.raises(NotFiniteWithinBound) as cold:
        generate_group(b2_generators, max_order=4)
    assert not groups._kept
    b2 = generate_group(b2_generators)
    assert b2.order == 8
    closed = _counting_closures(monkeypatch)
    with pytest.raises(NotFiniteWithinBound) as warm:
        generate_group(b2_generators, max_order=4)
    assert str(warm.value) == str(cold.value) == "group closure exceeded max_order=4"
    assert len(closed) == 1  # refused by a build, as a first build is
    assert generate_group(b2_generators, max_order=8) is b2
    assert list(groups._kept.values()) == [b2] and len(closed) == 1


def test_a_kept_group_past_max_order_is_refused_through_the_cli(tmp_path, capsys):
    scene = {"groups": {"b2": hyperoctahedral_generators(2)},
             "subspaces": {"origin": {"base": [0, 0]}},
             "candidates": {"origin": {"group": "b2", "subspace": "origin"}}}
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene, default=str))
    command = ["classify", "--scene", str(path)]
    assert main(command) == 0
    key = groups.read_generators(hyperoctahedral_generators(2))
    b2 = groups._kept[key]
    capsys.readouterr()
    assert main(command + ["--max-order", "4"]) == 2
    assert capsys.readouterr().err == ("error: scene section 'groups': entry 'b2': "
                                       "group closure exceeded max_order=4\n")
    assert groups._kept[key] is b2
    assert main(command + ["--max-order", "8"]) == 0
    assert groups._kept[key] is b2


@pytest.mark.parametrize("generators, error", [
    ([ROT4, mat([[1, 0], [0, 0]])], NonInvertibleGenerator),
    ([mat([[1, 1], [0, 1]])], NotFiniteWithinBound),
    ([mat([[2, 0], [0, 1]])], NotFiniteWithinBound),
])
def test_a_refused_generator_list_is_refused_every_time_and_never_kept(monkeypatch,
                                                                       generators, error):
    closed = _counting_closures(monkeypatch)
    for _ in range(3):
        with pytest.raises(error):
            generate_group(generators, max_order=100)
    assert len(closed) == 3 and not groups._kept


def test_the_least_recently_used_group_leaves_the_table_first(monkeypatch):
    monkeypatch.setattr(groups, "GROUPS_KEPT", 3)
    closed = _counting_closures(monkeypatch)
    rot4, klein, half_turn = rot4_group(), klein_group(), generate_group([ROT2])
    assert rot4_group() is rot4  # klein is now the least recently used
    flip = generate_group([SIGN_X])
    assert list(groups._kept.values()) == [half_turn, rot4, flip]
    assert generate_group([ROT2]) is half_turn and rot4_group() is rot4
    assert klein_group() is not klein  # built again; flip leaves
    assert len(groups._kept) == 3 and flip not in groups._kept.values()
    assert len(closed) == 5


def test_schreier_tree_spells_every_element():
    for g in (generate_group(hyperoctahedral_generators(3)),
              generate_group(signed_permutation_matrices(3)), trivial_group(2)):
        tree = g.schreier_tree
        assert tree[g.identity] is None
        for x in g.members:
            steps = 0
            while x != g.identity:
                s, y = tree[x]
                assert s in g.generators and g.mult(s, y) == x
                x, steps = y, steps + 1
                assert steps < g.order


def test_element_matches_the_cached_elements():
    # Both views read the integer forms: element(i) builds one matrix, and
    # elements every one, with one Fraction object per distinct entry.
    s, s_inv = random_rational_basis_change(random.Random(37), 4)
    conj = generate_group(conjugate_all(hyperoctahedral_generators(4), s, s_inv))
    assert conj.integer_forms[0] > 1
    for g in (generate_group(hyperoctahedral_generators(3)), conj, trivial_group(3)):
        assert [g.element(i) for i in g.members] == list(g.elements)
        assert [e.index for e in g.elements] == list(g.members)
        entries = [x for e in g.elements for row in e.matrix for x in row]
        assert {type(x) for x in entries} == {Fraction}
        assert len({id(x) for x in entries}) == len(set(entries))


def test_b5_times_z2_is_generated_within_max_order():
    # B5 on the first five coordinates, Z2 flipping the sixth: order 7680
    gens = [tuple(row + (0,) for row in m) + ((0,) * 5 + (1,),)
            for m in hyperoctahedral_generators(5)]
    gens.append(signed_permutation(range(6), [1] * 5 + [-1]))
    g = generate_group(gens, max_order=7680)
    assert g.order == 7680 and g.ambient_dim == 6
    assert g.elements[g.mult(g.order - 1, g.order - 1)].matrix == identity(6)
    with pytest.raises(NotFiniteWithinBound, match="max_order=7679"):
        generate_group(gens, max_order=7679)


def test_matrix_lookup_rejects_matrices_outside_the_group():
    g = rot4_group()
    # rot4 has d = 1, so a half is no entry of any element; the others are
    # integer matrices of the right or the wrong size that are not elements
    outside = [mat([[2, 0], [0, 1]]), mat([["1/2", 0], [0, 1]]), mat([[0, 1], [1, 0]]),
               mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), mat([[1]])]
    # a conjugated group with d > 1 and a matrix with a denominator that does not divide it
    s, s_inv = random_rational_basis_change(random.Random(31), 2)
    conj = generate_group(conjugate_all([ROT4], s, s_inv))
    d = conj.integer_forms[0]
    assert d > 1
    thirds = mat([[1, "1/3"], [0, 1]])
    assert d % 3 != 0
    cases = [(g, m) for m in outside] + [(conj, thirds), (conj, ROT4)]
    for group, m in cases:
        with pytest.raises(NotSubgroup, match="is not in the group"):
            group.index_of(m)
        with pytest.raises(NotSubgroup, match="is not in the group"):
            group.subgroup_from_matrices([m])
    for group in (g, conj):
        assert [group.index_of(m) for m in matrices_of(group)] == list(group.members)


@pytest.mark.parametrize("generators, message", [
    ([mat([[1, 0], [0, 0]])], "singular"),
    ([mat([[1, 0], [0, 1]]), mat([[1, 0], [0, 0]])], "singular"),
    ([mat([[1, 0]])], "square"),
    ([mat([[1]]), ROT4], "square"),
])
def test_generate_group_rejects_singular_and_non_square(generators, message):
    # {I, P} with P^2 = P is closed under products but P is singular.
    with pytest.raises(NonInvertibleGenerator, match=message):
        generate_group(generators)


def _outcome(build, *args):
    """What a call gives: the exception class and message, or the built
    group's integer forms and generators."""
    try:
        group = build(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return group.integer_forms, group.generators


ENTRY = st.sampled_from([0, 0, 0, 1, -1, 2, -2, "1/2", "-1/2", "2/4", "3", "-0",
                         Fraction(1, 3), Fraction(-3, 2)])
# Entries ``rat`` refuses (and some it accepts in forms the fast reader leaves to it).
ODD_ENTRY = st.sampled_from(["1/0", "x", "", True, False, 1.5, None, "1e3", "+1", " 1",
                             "01", "1_0", "1/-2", "-", "\u0661", [1]])


def _square(n, entry=ENTRY):
    return st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)


def _signed_permutation(n):
    return st.permutations(range(n)).flatmap(lambda perm: st.lists(
        st.sampled_from([1, -1]), min_size=n, max_size=n).map(
        lambda signs: [[signs[i] if perm[i] == j else 0 for j in range(n)] for i in range(n)]))


# Singular with a finite orbit (a projection, a nilpotent), singular with
# an infinite orbit, invertible of infinite order, and a rational rotation
# of order 4.
SPECIAL = {2: [[[1, 0], [0, 0]], [[2, 0], [0, 0]], [[0, "1/2"], [0, 0]], [[1, 1], [0, 1]],
               [[0, -2], ["1/2", 0]]],
           3: [[[1, 0, 0], [0, 1, 0], [0, 0, 0]], [[2, 0, 0], [0, 1, 0], [0, 0, 0]],
               [[1, "1/3", 0], [0, 1, 0], [0, 0, 1]]]}


def _diagonally_conjugated(matrices, scales):
    """The matrices conjugated by diag(scales), entries written as "p/q"."""
    return [[[str(Fraction(x * scales[i], scales[j])) for j, x in enumerate(row)]
             for i, row in enumerate(m)] for m in matrices]


GENERATOR_LISTS = st.one_of(
    # same-size square matrices: finite, infinite-order or singular
    st.integers(1, 3).flatmap(lambda n: st.lists(_square(n), min_size=1, max_size=3)),
    # finite groups of signed permutations, conjugated by diag(1|2|3, ...)
    st.integers(1, 3).flatmap(lambda n: st.tuples(
        st.lists(_signed_permutation(n), min_size=1, max_size=3),
        st.lists(st.sampled_from([1, 2, 3]), min_size=n, max_size=n)).map(
        lambda t: _diagonally_conjugated(*t))),
    # finite groups of signed permutations, with one special matrix put in
    st.integers(2, 3).flatmap(lambda n: st.tuples(
        st.lists(_signed_permutation(n), min_size=1, max_size=3),
        st.sampled_from(SPECIAL[n]), st.integers(0, 3)).map(
        lambda t: t[0][:t[2]] + [t[1]] + t[0][t[2]:])),
    # ragged, non-square, empty and mixed-size matrices
    st.lists(st.one_of(
        st.just([]),
        st.lists(st.lists(ENTRY, max_size=3), max_size=3),
        st.integers(1, 3).flatmap(_square),
    ), max_size=3),
    # unreadable or unusual entries, and rows or matrices that are not lists
    st.lists(st.one_of(
        st.integers(1, 3).flatmap(lambda n: _square(n, st.one_of(ENTRY, ODD_ENTRY))),
        st.sampled_from([5, "12", [5], [[1, 0], 7]]),
    ), min_size=1, max_size=3),
)


@settings(max_examples=400, deadline=None)
@given(GENERATOR_LISTS, st.sampled_from([1, 8, 64, 64]))
def test_generate_group_matches_the_validate_first_oracle(generators, max_order):
    # Invertibility is read off the orbit's permutations; the generators are
    # checked one by one only on a failure path, so every error names the
    # same generator with the same message as checking them first.
    expected = _outcome(oracle_generate_group, generators, max_order)
    assert _outcome(generate_group, generators, max_order) == expected


def test_generate_group_error_paths_match_the_oracle():
    # Each failure path at least once: a non-square generator after a
    # singular one, singular ones with finite and infinite orbits,
    # infinite order, an empty list, a zero-dimensional identity, an
    # unreadable entry and a ragged matrix.
    cases = [
        [[[1, 0], [0, 0]], [[1, 0]]],
        [[[0, 1], [1, 0]], [[1, 0], [0, 0]]],
        [[[0, 1], [1, 0]], [[2, 0], [0, 0]]],
        [[[1, 1], [0, 1]]],
        [],
        [[]],
        [[[1, 0], [0, "1/0"]]],
        [[[1, 0], [0]]],
    ]
    seen = set()
    for generators in cases:
        expected = _outcome(oracle_generate_group, generators, 16)
        assert _outcome(generate_group, generators, 16) == expected
        seen.add(expected[0] if isinstance(expected[0], type) else "group")
    assert {NonInvertibleGenerator, NotFiniteWithinBound, DimensionMismatch, ParseError,
            "group"} <= seen


def test_singular_generator_with_an_infinite_orbit_is_refused_early(monkeypatch):
    # diag(2, 0) sends e_1 to 2^k e_1, so the orbit never closes; the
    # generators are checked once it passes CHECK_ORBIT_PAST points per
    # dimension, not after the n * max_order points of the default cap.
    products = []
    real = groups.int_mat_vec

    def counting(rows, xs):
        products.append(None)
        return real(rows, xs)

    monkeypatch.setattr(groups, "int_mat_vec", counting)
    generators = [[[0, 1], [1, 0]], [[2, 0], [0, 0]]]
    expected = _outcome(oracle_generate_group, generators)
    assert expected[0] is NonInvertibleGenerator and "singular" in expected[1]
    assert _outcome(generate_group, generators) == expected
    assert len(products) <= 2 * (2 * groups.CHECK_ORBIT_PAST + 1)


def _padded(block, n=5):
    """diag(block, I) as an n x n integer matrix."""
    k = len(block)
    return [[block[i][j] if i < k and j < k else int(i == j) for j in range(n)]
            for i in range(n)]


@pytest.mark.parametrize("generator, error, message", [
    # traces 1004 and 6 exceed n = 5; [[1, 1], [1, 0]] (trace 4) by tr(g^2) = 6
    (_padded([[1000]]), NotFiniteWithinBound, "group closure exceeded max_order=10000"),
    (_padded([[3, 1], [1, 0]]), NotFiniteWithinBound, "group closure exceeded max_order=10000"),
    (_padded([[1, 1], [1, 0]]), NotFiniteWithinBound, "group closure exceeded max_order=10000"),
    # singular, with trace 5: still named as singular, not refused by its trace
    ([[5, 0], [0, 0]], NonInvertibleGenerator, "generator is singular"),
    # unipotent, so every trace is n; refused as g^M != I, M = lcm{k : phi(k) <= n}
    (_padded([[1, 1], [0, 1]]), NotFiniteWithinBound, "group closure exceeded max_order=10000"),
    ([[int(j in (i, i + 1)) for j in range(10)] for i in range(10)], NotFiniteWithinBound,
     "group closure exceeded max_order=10000"),
])
def test_generators_of_infinite_order_are_refused_by_their_traces(monkeypatch, generator, error,
                                                                    message):
    # Each orbit of the basis is infinite. Past CHECK_ORBIT_PAST points per
    # dimension the generators are checked, singular first, then by tr(g) and
    # tr(g^2), which for finite order are integers of absolute value at most
    # n, then by g^M = I; the walk to n * max_order points of growing size
    # took 0.4-9.3 s.
    products = []
    real = groups.int_mat_vec

    def counting(rows, xs):
        products.append(None)
        return real(rows, xs)

    monkeypatch.setattr(groups, "int_mat_vec", counting)
    with pytest.raises(error) as err:
        generate_group([generator])
    assert str(err.value).startswith(message)
    assert len(products) <= len(generator) * groups.CHECK_ORBIT_PAST + 1


def test_rational_conjugates_past_the_orbit_check_pass_the_trace_test(monkeypatch):
    # A conjugate's orbit of the basis can pass CHECK_ORBIT_PAST points per
    # dimension, so its generators meet the trace test, which every element
    # of finite order passes.
    checked = []
    real = groups._refuse_infinite_order

    def recording(n, matrices, max_order):
        checked.append(n)
        real(n, matrices, max_order)

    monkeypatch.setattr(groups, "_refuse_infinite_order", recording)
    rng = random.Random(29)
    s4, s4_inv = random_rational_basis_change(rng, 4)
    # S^-1 = I - step has the columns e_1 and e_j + e_(j-1) / j for j = 2..5,
    # in distinct orbits of B5, so Omega has 10 + 4 * 80 points, past
    # 5 * CHECK_ORBIT_PAST; S is the sum of the powers of step.
    step = tuple(tuple(Fraction(-1, j + 1) if j == i + 1 else Fraction(0) for j in range(5))
                 for i in range(5))
    s5, power = identity(5), identity(5)
    for _ in range(4):
        power = oracle_mat_mul(power, step)
        s5 = tuple(tuple(a + b for a, b in zip(r, q)) for r, q in zip(s5, power))
    s5_inv = tuple(tuple(a - b for a, b in zip(r, q)) for r, q in zip(identity(5), step))
    assert oracle_mat_mul(s5, s5_inv) == identity(5)
    for gens, order in ((conjugate_all(hyperoctahedral_generators(4), s4, s4_inv), 384),
                        (conjugate_all(hyperoctahedral_generators(5), s5, s5_inv), 3840)):
        n = len(gens[0])
        del checked[:]
        g = generate_group(gens)
        assert g.order == order and checked == [n]
        assert len(g._omega) > n * groups.CHECK_ORBIT_PAST
        matrices = matrices_of(g)
        for _ in range(50):
            i, j = rng.randrange(g.order), rng.randrange(g.order)
            assert matrices[g.mult(i, j)] == oracle_mat_mul(matrices[i], matrices[j])


def test_sympy_permutation_group_order_oracle():
    sympy_combinatorics = pytest.importorskip("sympy.combinatorics")
    rng = random.Random(29)
    b4, b5 = hyperoctahedral_generators(4), hyperoctahedral_generators(5)
    s, s_inv = random_rational_basis_change(rng, 4)
    # A rational conjugate of B5 moves e_j along an orbit of up to 3840
    # points, so its 3840 permutations of Omega would take about 0.4 GB;
    # B5 is checked as signed permutations only.
    cases = [(b4, identity(4), 384), (conjugate_all(b4, s, s_inv), s, 384),
             (b5, identity(5), 3840)]
    for gens, basis_change, order in cases:
        # The group permutes the columns S e_i of the basis change and their negatives.
        units = list(zip(*basis_change))
        points = units + [tuple(-x for x in e) for e in units]
        perms = [
            sympy_combinatorics.Permutation([points.index(oracle_mat_vec(m, x)) for x in points])
            for m in gens
        ]
        g = generate_group(gens)
        assert g.order == sympy_combinatorics.PermutationGroup(perms).order() == order
        matrices = matrices_of(g)
        for _ in range(2000):
            i, j = rng.randrange(g.order), rng.randrange(g.order)
            assert matrices[g.mult(i, j)] == oracle_mat_mul(matrices[i], matrices[j])


def test_singular_generator_rejected():
    with pytest.raises(NonInvertibleGenerator):
        generate_group([mat([[1, 0], [0, 0]])])


@pytest.mark.parametrize("generator, written", [
    ([[1, 0], [0, 0]], "[[1, 0], [0, 0]]"),
    ([["1/2", 0], ["-3/4", 0]], "[[1/2, 0], [-3/4, 0]]"),
    ([[Fraction(4, 2), 0], [0, "0/5"]], "[[2, 0], [0, 0]]"),
])
def test_a_singular_generator_is_written_in_rationals(generator, written):
    # The matrix was printed as a tuple of Fraction reprs.
    with pytest.raises(NonInvertibleGenerator) as refused:
        generate_group([ROT4, generator])
    assert str(refused.value) == f"generator is singular: {written}"


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


def test_subgroup_from_indices_closes_each_span_once(monkeypatch):
    # The greedy generators close <q_1..q_i> once per pick; is_closed reads
    # the last of those closures instead of closing the generators again.
    b3 = generate_group(hyperoctahedral_generators(3))
    seeds = []
    closure = groups._closure_indices

    def counting(parent, seed, limit=None):
        seeds.append(frozenset(seed))
        return closure(parent, seed, limit)

    monkeypatch.setattr(groups, "_closure_indices", counting)
    plane = b3.subgroup_from_indices(
        i for i, m in enumerate(matrices_of(b3)) if m[2] == (0, 0, 1))
    assert plane.order == 8 and len(plane.generators) > 1
    assert len(seeds) == len(set(seeds)) == 1 + len(plane.generators)
    assert closure(b3, plane.generators) == set(plane.members)
    quarter_turn = next(i for i in plane.members if _element_order(b3, i) == 4)
    seeds.clear()
    with pytest.raises(NotSubgroup):
        b3.subgroup_from_indices([b3.identity, quarter_turn])
    assert len(seeds) == len(set(seeds)) == 2


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
    assert quotient_group(d, k) == Fingerprint(2, (1, 2), True)


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


def _normal_pairs(g):
    subs = all_subgroups(g)
    return [(d, k) for d in subs for k in subs if k.is_subset_of(d) and k.is_normal_in(d)]


def _same_complement(result, members):
    """find_complement's result has the given members, or both say none."""
    if members is None:
        return isinstance(result, NoComplementCertificate)
    return isinstance(result, Subgroup) and result.members == tuple(members)


def test_section_search_matches_the_lattice_on_b2_and_b3():
    for n, count in ((2, 30), (3, 501)):
        pairs = _normal_pairs(generate_group(hyperoctahedral_generators(n)))
        assert len(pairs) == count
        for d, k in pairs:
            expected = oracle_find_complement(d, k)
            members = None if expected is None else expected.members
            assert _same_complement(find_complement(d, k), members)
            # the walk used where the lattice is out of reach agrees with it
            assert oracle_least_complement(d, k) == members


def test_section_search_matches_the_lattice_on_conjugates_of_b3():
    rng = random.Random(29)
    for _ in range(2):
        s, s_inv = random_rational_basis_change(rng, 3)
        g = generate_group(conjugate_all(hyperoctahedral_generators(3), s, s_inv))
        for d, k in _normal_pairs(g):
            expected = oracle_find_complement(d, k)
            assert _same_complement(find_complement(d, k),
                                    None if expected is None else expected.members)


def test_section_search_on_b4_kernels(monkeypatch):
    g = generate_group(hyperoctahedral_generators(4))

    def subgroup(keep):
        return g.subgroup_from_indices(i for i, m in enumerate(matrices_of(g)) if keep(m))

    def diagonal(m):
        return all(m[i][j] == 0 for i in range(4) for j in range(4) if i != j)

    whole = g.full_subgroup()
    sign_flips = subgroup(diagonal)
    centre = subgroup(lambda m: diagonal(m) and len({m[i][i] for i in range(4)}) == 1)
    axis_stabilizer = subgroup(lambda m: m[0][0] != 0)
    axis_kernel = subgroup(lambda m: m[0][0] == 1)
    assert (sign_flips.order, centre.order, axis_stabilizer.order, axis_kernel.order) == (
        16, 2, 96, 48)
    cases = [
        (whole, sign_flips, oracle_least_complement(whole, sign_flips)),
        (whole, centre, oracle_least_complement(whole, centre)),
        (axis_stabilizer, axis_kernel,
         oracle_find_complement(axis_stabilizer, axis_kernel).members),
    ]
    # a complement of S4's sign flips is a copy of S4; -I is a product of
    # squares, so every index-2 subgroup holds it and the centre has none
    assert [None if m is None else len(m) for _, _, m in cases] == [24, None, 2]

    def no_lattice(*args):
        raise AssertionError("find_complement enumerated the subgroup lattice")

    monkeypatch.setattr(groups, "all_subgroups", no_lattice)
    for d, k, members in cases:
        assert _same_complement(find_complement(d, k), members)
    assert find_complement(whole, centre) == NoComplementCertificate(384, 2, 22)
    # the short cuts: k = {e} and k = d
    trivial = g.subgroup_from_indices([g.identity])
    assert find_complement(whole, trivial) == whole
    assert find_complement(whole, whole) == trivial


def test_quotient_fingerprint_matches_coset_oracle():
    # every normal pair of B2, B3 and two rational conjugates of B3
    rng = random.Random(29)
    b3 = hyperoctahedral_generators(3)
    cases = [hyperoctahedral_generators(2), b3]
    cases += [conjugate_all(b3, *random_rational_basis_change(rng, 3)) for _ in range(2)]
    pairs = [pair for gens in cases for pair in _normal_pairs(generate_group(gens))]
    # and the sign-flip and centre kernels of B4
    b4 = generate_group(hyperoctahedral_generators(4))
    flips = b4.subgroup_from_indices(
        i for i, m in enumerate(matrices_of(b4))
        if all(m[a][b] == 0 for a in range(4) for b in range(4) if a != b))
    centre = b4.subgroup_from_matrices([[[-1 if a == b else 0 for b in range(4)]
                                         for a in range(4)]])
    pairs += [(b4.full_subgroup(), flips), (b4.full_subgroup(), centre)]
    assert len(pairs) == 1535
    verdicts = set()
    for d, k in pairs:
        fingerprint = quotient_group(d, k)
        assert fingerprint == oracle_quotient_fingerprint(d, k), (d.members, k.members)
        verdicts.add(fingerprint.abelian)
    assert verdicts == {True, False}


def test_normality_on_generators_matches_all_pairs():
    rng = random.Random(41)
    b3 = hyperoctahedral_generators(3)
    cases = [hyperoctahedral_generators(2), b3]
    cases += [conjugate_all(b3, *random_rational_basis_change(rng, 3)) for _ in range(2)]
    for gens in cases:
        subs = all_subgroups(generate_group(gens))
        verdicts = [k.is_normal_in(d) for d in subs for k in subs]
        assert verdicts == [oracle_is_normal(k, d) for d in subs for k in subs]
        assert set(verdicts) == {True, False}


def _seeded_homomorphisms(rng):
    """GroupHoms between B3, its subgroups and Z2, each one a homomorphism,
    with a matrix group or a subgroup as domain."""
    g = generate_group(hyperoctahedral_generators(3))
    subs = all_subgroups(g)
    z2 = generate_group([[[-1]]])
    out = [GroupHom(g, g, tuple(g.members))]
    for d in rng.sample(subs, 12):
        x = rng.choice(g.members)
        out.append(GroupHom(d, g, tuple(g.mult(g.mult(x, m), g.inv(x)) for m in d.members)))
    # the sign of the determinant, onto Z2 from the whole group
    sign = [z2.index_of(mat([[-1 if _odd(m) else 1]])) for m in matrices_of(g)]
    out.append(GroupHom(g, z2, tuple(sign)))
    return out


def _odd(m):
    """Is the signed permutation matrix m of determinant -1?"""
    n = len(m)
    perm = [next(j for j in range(n) if m[i][j]) for i in range(n)]
    inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
    negatives = sum(m[i][perm[i]] < 0 for i in range(n))
    return (inversions + negatives) % 2 == 1


def test_homomorphism_on_generators_matches_all_pairs():
    rng = random.Random(43)
    homs = _seeded_homomorphisms(rng)
    verdicts = []
    for f in homs:
        images = list(f.image_of)
        corrupted = []
        for _ in range(3):
            changed = list(images)
            changed[rng.randrange(len(changed))] = rng.randrange(f.codomain.order)
            corrupted.append(changed)
        if len(images) > 1:
            i, j = rng.sample(range(len(images)), 2)
            images[i], images[j] = images[j], images[i]
            corrupted.append(images)
        for image_of in [f.image_of] + corrupted:
            h = GroupHom(f.domain, f.codomain, tuple(image_of))
            verdicts.append(h.is_homomorphism())
            assert verdicts[-1] == oracle_is_homomorphism(h), image_of
    assert verdicts.count(True) >= len(homs) and False in verdicts
    # The trivial subgroup has no generators, so f(e) = e is checked on its own.
    z2 = generate_group([[[-1]]])
    g = generate_group(hyperoctahedral_generators(3))
    minus = 1 - z2.identity
    for domain in (g.subgroup_from_indices([g.identity]), trivial_group(3)):
        for image, holds in ((z2.identity, True), (minus, False)):
            f = GroupHom(domain, z2, (image,))
            assert f.is_homomorphism() == oracle_is_homomorphism(f) == holds
    assert g.subgroup_from_indices([g.identity]).generators == ()


def test_normality_work_is_generator_pairs(monkeypatch):
    g = generate_group(hyperoctahedral_generators(4))
    whole = g.full_subgroup()
    flips = g.subgroup_from_indices(
        i for i, m in enumerate(matrices_of(g))
        if all(m[a][b] == 0 for a in range(4) for b in range(4) if a != b))
    assert flips.order == 16
    # generators are picked before counting: they take closures of their own
    bound = 2 * len(whole.generators) * len(flips.generators)
    calls = []
    real = g.mult
    monkeypatch.setattr(g, "mult", lambda a, b: calls.append(None) or real(a, b))
    assert flips.is_normal_in(whole)
    assert 0 < len(calls) <= bound


def test_fingerprint_invariant_under_relabeling():
    # same group generated from different generators => same fingerprint
    a = generate_group([ROT4])
    b = generate_group([mat([[0, 1], [-1, 0]])])
    assert iso_fingerprint(a) == iso_fingerprint(b)


def test_abelian_on_generators_matches_all_pairs():
    g = generate_group(hyperoctahedral_generators(3))
    subs = all_subgroups(g)
    verdicts = [groups._is_abelian(s) for s in subs] + [g.is_abelian()]
    pairs = [all(g.mult(a, b) == g.mult(b, a) for a in s.members for b in s.members)
             for s in subs + [g]]
    assert verdicts == pairs and set(verdicts) == {True, False}


def test_isomorphism_distinguishes_z4_and_klein():
    assert iso_fingerprint(rot4_group()) != iso_fingerprint(klein_group())


def test_realify_z4():
    # complex i acting on C realifies to the rotation by pi/2
    m = realify([[(0, 1)]])
    assert m == ROT4
    g = generate_group([realify([[(0, 1), (0, 0)], [(0, 0), (-1, 0)]])])
    assert g.order == 4
    assert iso_fingerprint(g) == Fingerprint(4, (1, 2, 4, 4), True)


def _element_order(g, i: int) -> int:
    """The order of the i-th member of a matrix group or subgroup."""
    parent = g.parent
    return groups._order_modulo(parent, g.members[i], {parent._keys[parent.identity]})


def test_element_orders():
    g = rot4_group()
    s = g.full_subgroup()
    orders = sorted(_element_order(s, i) for i in range(s.order))
    assert orders == [1, 2, 4, 4]
    # read off the permutations of Omega, against powers of the matrices,
    # in matrix groups (rational conjugates included) and their subgroups
    for gens in _seeded_groups(8, 96) + [hyperoctahedral_generators(3)]:
        g = generate_group(gens)
        ident = identity(g.ambient_dim)
        for group in (g, g.subgroup_generated_by(g.generators[:1])):
            for i, m in enumerate(matrices_of(group)):
                power, order = m, 1
                while power != ident:
                    power, order = oracle_mat_mul(power, m), order + 1
                assert _element_order(group, i) == order
    # orders modulo a normal subgroup: B3 / {I, -I} is S4
    centre = g.subgroup_from_matrices([[[-1, 0, 0], [0, -1, 0], [0, 0, -1]]])
    q = quotient_group(g.full_subgroup(), centre)
    assert list(q.element_orders) == [1] + [2] * 9 + [3] * 8 + [4] * 6


def test_trivial_and_dimension_zero_groups():
    t = trivial_group(3)
    assert t.order == 1 and t.ambient_dim == 3
    z = trivial_group(0)
    assert z.order == 1 and z.ambient_dim == 0
    # the empty generator is the 0 x 0 identity
    assert generate_group([[]]) == z
    # no generator at all gives no dimension to guess
    with pytest.raises(DimensionMismatch, match="at least one generator"):
        generate_group([])


def test_gathers_at_dimensions_zero_and_one():
    # A column key of 0 or 1 entries cannot be gathered by one itemgetter
    # call; the 0-dimensional group and the 1-dimensional ones ({+-1} and
    # the trivial group) multiply, invert and take orders as matrices do.
    for gens in ([[]], [[[1]]], [[[-1]]]):
        g = generate_group(gens)
        reference = oracle_group_closure(gens)
        _assert_matches_reference(g, reference)
        ident = identity(g.ambient_dim)
        orders = []
        for i, m in enumerate(matrices_of(g)):
            power, order = m, 1
            while power != ident:
                power, order = oracle_mat_mul(power, m), order + 1
            assert _element_order(g, i) == order
            orders.append(order)
        abelian = all(oracle_mat_mul(a, b) == oracle_mat_mul(b, a)
                      for a in reference for b in reference)
        assert iso_fingerprint(g) == Fingerprint(len(reference), tuple(sorted(orders)), abelian)
        assert [g.coset(g.members, j) for j in g.members] == [
            [g.mult(h, j) for h in g.members] for j in g.members]


def test_signed_permutation_pool_sizes():
    assert len(signed_permutation_matrices(2)) == 8
    assert len(signed_permutation_matrices(3)) == 48


def test_group_core_makes_no_matrix_product(monkeypatch):
    calls = []
    real = linalg.mat_mul

    def counting(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(linalg, "mat_mul", counting)
    monkeypatch.setattr(groups, "mat_mul", counting, raising=False)
    b3 = hyperoctahedral_generators(3)
    # B3 on the first three coordinates, Z2 flipping the fourth
    b3_z2 = [signed_permutation((1, 0, 2, 3), (1, 1, 1, 1)),
             signed_permutation((0, 2, 1, 3), (1, 1, 1, 1)),
             signed_permutation(range(4), (-1, 1, 1, 1)),
             signed_permutation(range(4), (1, 1, 1, -1))]
    for gens, order in ((b3, 48), (b3_z2, 96)):
        g = generate_group(gens)
        assert generate_group(matrices_of(g)).order == g.order == order
    assert calls == []


def test_closure_matches_oracle():
    g = generate_group(signed_permutation_matrices(3))
    rng = random.Random(5)
    seeds = [s.members for s in all_subgroups(g)]
    seeds += [rng.sample(range(g.order), rng.randint(1, 3)) for _ in range(50)]
    for seed in seeds:
        assert groups._closure_indices(g, seed) == _closure(g, seed)
