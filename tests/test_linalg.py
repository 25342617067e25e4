"""Exact linear algebra: hand-derived oracles plus property tests."""
import builtins
from fractions import Fraction
from itertools import islice
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

import suborbifolds.linalg as linalg
from suborbifolds.linalg import (
    affine_subspace,
    contains_point,
    coordinates,
    dense,
    direction_sum_is_full,
    equations,
    fixed_points,
    int_mat_vec,
    int_images,
    int_matrix,
    int_points,
    int_vector,
    intersect,
    mat,
    mat_rank,
    meet,
    pull_back,
    rat,
    rat_str,
    read_rational,
    sample_points,
    scaled,
    single_point,
    solve_affine,
    sparse,
    transform_subspace,
    vec,
    whole_space,
)

from oracles import (
    identity,
    int_form,
    oracle_canonical_subspace,
    oracle_intersect,
    oracle_mat_mul,
    oracle_meet,
    oracle_mat_vec,
    oracle_rank,
    oracle_rref,
    oracle_solve,
    point_from_coordinates,
    point_of_form,
    zero_vec,
)

rationals = st.builds(
    Fraction,
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=1, max_value=5),
)


def small_matrix(rows, cols):
    return st.lists(
        st.lists(rationals, min_size=cols, max_size=cols),
        min_size=rows, max_size=rows,
    ).map(mat)


matrices = st.integers(1, 4).flatmap(
    lambda n: st.integers(1, 4).flatmap(lambda m: small_matrix(n, m))
)


def test_rat_roundtrip():
    assert rat("3/4") == Fraction(3, 4)
    assert rat(-2) == Fraction(-2)
    assert rat("-1.25") == Fraction(-5, 4) and rat("+.5") == Fraction(1, 2)
    assert rat_str(Fraction(3, 4)) == "3/4"
    assert rat_str(Fraction(5)) == "5"


def _result(read, x):
    """read(x), or the class and message of what it raised."""
    try:
        return read(x)
    except Exception as exc:
        return type(exc), str(exc)


def _parts_via_rat(x):
    f = rat(x)
    return f.numerator, f.denominator


RATIONAL_TEXT = st.one_of(
    st.text(alphabet="0123456789-+/ _.eE\u0661\uff11\n", max_size=8),
    st.from_regex(r"-?[0-9]{1,30}(/[0-9]{1,30})?", fullmatch=True),
    st.sampled_from(["01", "+1", " 1", "1 ", "1_0", "1/-2", "-", "/2", "1/", "1/0", "-0/7",
                     "\u0661", "\uff11/2", "1\n", "1" * 5000, "1/" + "2" * 5000]),
)
OTHER_VALUES = st.one_of(st.integers(), st.fractions(), st.booleans(), st.floats(),
                         st.none(), st.just([1]))


@settings(max_examples=500, deadline=None)
@given(st.one_of(RATIONAL_TEXT, OTHER_VALUES))
def test_read_rational_agrees_with_rat(x):
    # The plain forms are read without a Fraction; everything else goes to
    # rat, so every value reads the same and every refusal is the same error.
    got = _result(read_rational, x)
    assert got == _result(_parts_via_rat, x)
    if not isinstance(got[0], type):
        assert got[1] > 0 and gcd(*got) == 1


def _fraction_reading(read):
    """The integer form of what ``read`` gives as Fractions, as ``int_vector``
    and ``int_matrix`` give it."""
    def reading(x):
        value = read(x)
        if value and isinstance(value[0], tuple):
            d = lcm(*[c.denominator for row in value for c in row])
            return d, tuple(tuple(int(c * d) for c in row) for row in value)
        return scaled(value)
    return reading


ENTRIES = st.one_of(st.integers(-9, 9), st.fractions(max_denominator=9), RATIONAL_TEXT,
                    st.booleans(), st.floats(allow_nan=False))


@settings(max_examples=300, deadline=None)
@given(st.lists(ENTRIES, max_size=4),
       st.lists(st.lists(ENTRIES, max_size=3), max_size=3))
def test_integer_readers_agree_with_vec_and_mat(xs, rows):
    assert _result(int_vector, xs) == _result(_fraction_reading(vec), xs)
    assert _result(int_matrix, rows) == _result(_fraction_reading(mat), rows)


def test_rank_hand_cases():
    assert mat_rank(mat([[1, 2], [2, 4]])) == 1
    assert mat_rank(mat([[1, 0], [0, 1]])) == 2
    assert mat_rank(mat([[0, 0], [0, 0]])) == 0


def test_solve_affine_hand_case():
    # x + y = 3, x - y = 1  =>  (2, 1)
    sol = solve_affine(mat([[1, 1], [1, -1]]), [3, 1])
    assert sol is not None and sol.dim == 0
    assert sol.base_point == vec([2, 1])


def test_solve_affine_inconsistent():
    assert solve_affine(mat([[1, 1], [2, 2]]), [1, 3]) is None


def test_kernel_hand_case():
    # the kernel of x + y as the solution set of x + y = 0
    v = solve_affine(mat([[1, 1, 0]]), [0])
    assert v.dim == 2
    assert contains_point(v, [1, -1, 5])
    assert not contains_point(v, [1, 0, 0])


def test_canonical_equality_of_presentations():
    a = affine_subspace([0, 0], [[1, 1]])
    b = affine_subspace([2, 2], [[-3, -3]])
    assert a == b
    c = affine_subspace([1, 0], [[1, 1]])
    assert a != c


def test_intersect_hand_case():
    a = affine_subspace([0, 0], [[1, 0]])
    b = affine_subspace([0, 0], [[0, 1]])
    meet = intersect(a, b)
    assert meet == single_point([0, 0])
    assert intersect(a, affine_subspace([0, 1], [[1, 0]])) is None


@settings(max_examples=150, deadline=None)
@given(matrices)
def test_rank_matches_oracle(m):
    assert mat_rank(m) == oracle_rank(m)


@settings(max_examples=150, deadline=None)
@given(matrices, st.data())
def test_solve_matches_oracle(m, data):
    b = vec(data.draw(st.lists(rationals, min_size=len(m), max_size=len(m))))
    expected = oracle_solve([list(r) for r in m], list(b))
    got = solve_affine(m, b)
    if expected is None:
        assert got is None
    else:
        assert got is not None
        particular, hom = expected
        assert contains_point(got, particular)
        assert got.dim == len(hom)
        # every oracle solution lies in the engine's solution set
        for h in hom:
            shifted = tuple(p + x for p, x in zip(particular, h))
            assert contains_point(got, shifted)
        # and engine points really solve the system
        for point in islice(sample_points(got), 4):
            assert oracle_mat_vec(m, point_of_form(point)) == b


@settings(max_examples=100, deadline=None)
@given(matrices)
def test_rref_idempotent(m):
    reduced, pivots = _rref(m)
    again, pivots2 = _rref(reduced)
    assert again == reduced and pivots == pivots2


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.data())
def test_canonical_form_is_presentation_independent(n, data):
    base = vec(data.draw(st.lists(rationals, min_size=n, max_size=n)))
    k = data.draw(st.integers(0, n))
    rows = [
        vec(data.draw(st.lists(rationals, min_size=n, max_size=n)))
        for _ in range(k)
    ]
    v = affine_subspace(base, rows)
    # shift the base point inside the subspace, scale/mix the basis
    coeffs = data.draw(st.lists(rationals, min_size=v.dim, max_size=v.dim))
    new_base = point_from_coordinates(v, vec(coeffs))
    scales = data.draw(
        st.lists(rationals.filter(lambda x: x != 0),
                 min_size=v.dim, max_size=v.dim)
    )
    new_rows = [vec([s * x for x in row]) for s, row in zip(scales, v.basis)]
    assert affine_subspace(new_base, new_rows) == v


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.data())
def test_equations_roundtrip(n, data):
    base = vec(data.draw(st.lists(rationals, min_size=n, max_size=n)))
    k = data.draw(st.integers(0, n))
    rows = [
        vec(data.draw(st.lists(rationals, min_size=n, max_size=n)))
        for _ in range(k)
    ]
    v = affine_subspace(base, rows)
    c, d = equations(v)
    if c:
        assert solve_affine(c, d) == v
    else:
        assert v == whole_space(n)
    for x in map(point_of_form, islice(sample_points(v), 5)):
        assert all(
            sum(ri * xi for ri, xi in zip(row, x)) == di
            for row, di in zip(c, d)
        )


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.data())
def test_intersection_contained_in_both(n, data):
    def draw_sub():
        base = vec(data.draw(st.lists(rationals, min_size=n, max_size=n)))
        k = data.draw(st.integers(0, n))
        rows = [
            vec(data.draw(st.lists(rationals, min_size=n, max_size=n)))
            for _ in range(k)
        ]
        return affine_subspace(base, rows)

    a, b = draw_sub(), draw_sub()
    meet = intersect(a, b)
    if meet is not None:
        assert intersect(meet, a) == meet
        assert intersect(meet, b) == meet
        assert contains_point(a, meet.base_point)
        assert contains_point(b, meet.base_point)


def test_coordinates_roundtrip():
    v = affine_subspace([1, 2, 3], [[1, 0, 1], [0, 1, 1]])
    for x in map(point_of_form, islice(sample_points(v), 6)):
        assert point_from_coordinates(v, coordinates(v, x)) == x


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.data())
def test_point_at_and_pivot_read_are_inverse(n, data):
    # point_at builds the point at coordinates ys / d as (den, den x) in
    # lowest terms; pivot_read reads the coordinates back, and refuses a
    # point off v.
    base = vec(data.draw(st.lists(rationals, min_size=n, max_size=n)))
    rows = [vec(data.draw(st.lists(rationals, min_size=n, max_size=n)))
            for _ in range(data.draw(st.integers(0, n)))]
    v = affine_subspace(base, rows)
    d = data.draw(st.integers(1, 6))
    ys = data.draw(st.lists(st.integers(-20, 20), min_size=v.dim, max_size=v.dim))
    den, xs = linalg.point_at(v, d, ys)
    x = point_from_coordinates(v, [Fraction(y, d) for y in ys])
    assert (den, xs) == scaled(x) and gcd(den, *xs) == 1
    read = linalg.pivot_read(v, den, xs)
    assert [Fraction(c, den) for c in read] == [Fraction(y, d) for y in ys]
    other = vec(data.draw(st.lists(rationals, min_size=n, max_size=n)))
    assert (linalg.pivot_read(v, *scaled(other)) is None) == (not contains_point(v, other))


def test_sample_points_deterministic_and_inside():
    v = affine_subspace([0, 1], [[2, 1]])
    a = list(islice(sample_points(v), 7))
    b = list(islice(sample_points(v), 7))
    assert a == b and len(set(a)) == 7
    assert all(gcd(den, *xs) == 1 for den, xs in a)
    assert all(contains_point(v, point_of_form(p)) for p in a)


@pytest.mark.parametrize("base, basis", [
    ([0, 1], [[2, 1]]),
    (["1/2", 0, 3], [[1, 0, "-1/3"], [0, 2, 1]]),
    ([1, 2, 3, 4], [[1, 0, 0, 1], [0, 1, 0, "1/2"], [0, 0, 1, -1]]),
], ids=["dim1", "dim2", "dim3"])
def test_sample_points_come_in_shells_of_max_norm(base, basis):
    # The saturation witnesses are the first hits in this order, so it is
    # checked point by point: the coefficient cube [-r, r]^k taken shell by
    # shell (max norm 0, 1, ..., r), each shell in lexicographic order.
    v = affine_subspace(base, basis)
    k, r = v.dim, 2
    cube = [()]
    for _ in range(k):
        cube = [c + (x,) for c in cube for x in range(-r, r + 1)]
    expected = []
    for radius in range(r + 1):
        for coeffs in sorted(c for c in cube if max(abs(x) for x in c) == radius):
            point = list(v.base_point)
            for c, row in zip(coeffs, v.basis):
                point = [p + c * x for p, x in zip(point, row)]
            expected.append(scaled(point))
    assert list(islice(sample_points(v), (2 * r + 1) ** k)) == expected
    assert list(sample_points(single_point(base))) == [scaled(vec(base))]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.data())
def test_coordinates_match_the_solved_system(n, data):
    # x's coordinates solve  sum_j c_j b_j = x - base  with v's canonical
    # basis vectors b_j as columns; x is in v exactly when that has a solution.
    base = vec(data.draw(st.lists(rationals, min_size=n, max_size=n)))
    rows = [vec(data.draw(st.lists(rationals, min_size=n, max_size=n)))
            for _ in range(data.draw(st.integers(0, n)))]
    v = affine_subspace(base, rows)
    if data.draw(st.booleans()):
        coeffs = data.draw(st.lists(rationals, min_size=v.dim, max_size=v.dim))
        x = point_from_coordinates(v, coeffs)
    else:
        coeffs = None
        x = vec(data.draw(st.lists(rationals, min_size=n, max_size=n)))
    columns = [[b[i] for b in v.basis] for i in range(n)]
    solved = oracle_solve(columns, [a - b for a, b in zip(x, v.base_point)])
    if solved is None:
        assert coordinates(v, x) is None and not contains_point(v, x)
    else:
        particular, free = solved
        assert free == []
        assert coordinates(v, x) == tuple(particular) and contains_point(v, x)
    if coeffs is not None:
        assert coordinates(v, x) == tuple(coeffs)


def test_direction_sum():
    a = affine_subspace([0, 0], [[1, 0]])
    b = affine_subspace([0, 0], [[0, 1]])
    assert direction_sum_is_full(a, b)
    assert not direction_sum_is_full(a, a)
    # two points stack no direction: full only in R^0
    assert not direction_sum_is_full(single_point([0, 0]), single_point([1, 2]))
    assert direction_sum_is_full(single_point([]), single_point([]))


# ---------------------------------------------------------------------------
# The integer kernel against the Fraction loops it replaced

# Denominators 1-7, signs both ways, and zero often enough for zero rows and
# columns and for pivots that are not in the first row.
kernel_rationals = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7)),
)


def kernel_matrix(rows, cols):
    return st.lists(
        st.lists(kernel_rationals, min_size=cols, max_size=cols),
        min_size=rows, max_size=rows,
    ).map(lambda m: tuple(tuple(r) for r in m))


# Wide, tall and square, with n x 0 and 0 x 0 among them.
kernel_matrices = st.integers(0, 5).flatmap(
    lambda n: st.integers(0, 6).flatmap(lambda m: kernel_matrix(n, m))
)

EDGE_MATRICES = [
    (),                                            # 0 x 0
    ((), (), ()),                                  # 3 x 0
    mat([[0, 0, 0], [0, 0, 0]]),                   # zero matrix
    mat([[-2, 4, 1], [0, -3, "1/7"]]),             # negative pivots
    mat([[0, "-5/7", 0], [0, "3/2", 0], [0, 0, 0]]),  # zero columns, one pivot
    mat([[1], [2], ["-1/3"], [0]]),                # tall
    mat([["1/6", "1/4", "-1/7", 0, 2, 3]]),        # wide
]


def _rref(m):
    """The nonzero rows of m's reduced row-echelon form and their pivot
    columns, read off the canonical form of the span of m's rows."""
    v = affine_subspace((0,) * (len(m[0]) if m else 0), m)
    return v.basis, list(v.pivots)


def _same_entries(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert len(g) == len(w)
        assert all(type(x) is Fraction and x == y for x, y in zip(g, w))


@pytest.mark.parametrize("m", EDGE_MATRICES)
def test_rref_edge_shapes_match_fraction_oracle(m):
    reduced, pivots = _rref(m)
    want, want_pivots = oracle_rref(m)
    assert pivots == want_pivots
    _same_entries(reduced, want[:len(want_pivots)])


@settings(max_examples=300, deadline=None)
@given(kernel_matrices)
def test_rref_matches_fraction_oracle(m):
    reduced, pivots = _rref(m)
    want, want_pivots = oracle_rref(m)
    assert pivots == want_pivots
    _same_entries(reduced, want[:len(want_pivots)])
    assert mat_rank(m) == len(want_pivots)


@settings(max_examples=300, deadline=None)
@given(kernel_matrices, st.data())
def test_mat_vec_matches_fraction_oracle(m, data):
    cols = len(m[0]) if m else 0
    x = tuple(data.draw(st.lists(kernel_rationals, min_size=cols, max_size=cols)))
    d, rows = int_matrix(m)
    dx, xs = scaled(x)
    got = int_mat_vec(sparse(rows), xs)
    assert [Fraction(y, d * dx) for y in got] == list(oracle_mat_vec(m, x))


@settings(max_examples=200, deadline=None)
@given(kernel_matrices, st.data())
def test_rref_matches_sympy(m, data):
    sympy = pytest.importorskip("sympy")
    cols = len(m[0]) if m else 0
    reduced, pivots = _rref(m)
    want, want_pivots = sympy.Matrix(len(m), cols, [x for row in m for x in row]).rref()
    assert pivots == list(want_pivots)
    expected = [[Fraction(int(x.p), int(x.q)) for x in want.row(i)]
                for i in range(len(want_pivots))]
    _same_entries(reduced, expected)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.data())
def test_fixed_points_match_solve_then_intersect(n, data):
    square = data.draw(kernel_matrix(n, n))
    base = tuple(data.draw(st.lists(kernel_rationals, min_size=n, max_size=n)))
    rows = data.draw(st.lists(
        st.lists(kernel_rationals, min_size=n, max_size=n), max_size=n))
    v = affine_subspace(base, rows)
    moved = [[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(square)]
    fix = solve_affine(moved, zero_vec(n))
    want = None if fix is None else oracle_intersect(fix, v)
    assert fixed_points(int_form(square), v) == want


_small_rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
_small_ints = st.integers(-4, 4)


@st.composite
def _meet_cases(draw):
    """(v, c, e): v with k = 0..n basis rows in R^n, n <= 5, denominators <= 6,
    and integer equations among which are zero rows, multiples of earlier
    rows (rank-deficient), clashes with earlier rows (inconsistent) and rows
    of v's own equations (holding on all of v)."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(0, n))
    base = draw(st.lists(_small_rationals, min_size=n, max_size=n))
    rows = draw(st.lists(st.lists(_small_rationals, min_size=n, max_size=n),
                         min_size=k, max_size=k))
    v = affine_subspace(base, rows)
    own_c, own_e = equations(v)
    c, e = [], []
    kinds = st.sampled_from(["random", "zero", "multiple", "clash", "own"])
    for kind in draw(st.lists(kinds, max_size=5)):
        if kind == "zero":
            c.append([0] * n)
            e.append(draw(st.sampled_from([0, 0, 1])))
        elif kind in ("multiple", "clash") and c:
            i = draw(st.integers(0, len(c) - 1))
            f = draw(st.integers(-3, 3))
            c.append([f * x for x in c[i]])
            e.append(f * e[i] + (draw(st.integers(1, 3)) if kind == "clash" else 0))
        elif kind == "own" and own_c:
            i = draw(st.integers(0, len(own_c) - 1))
            c.append(list(own_c[i]))
            e.append(own_e[i])
        else:
            c.append(draw(st.lists(_small_ints, min_size=n, max_size=n)))
            e.append(draw(_small_ints))
    return v, c, e


@settings(max_examples=400, deadline=None)
@given(_meet_cases())
def test_meet_matches_the_stacked_solve(case):
    v, c, e = case
    got = meet(v, c, e)
    assert got == oracle_meet(v, c, e)
    if got is not None:
        assert got.ambient_dim == v.ambient_dim
        assert all(contains_point(v, point_of_form(p)) for p in islice(sample_points(got), 3))


def test_meet_hand_cases():
    plane = affine_subspace([0, 0, 1], [[1, 0, 0], [0, 1, 0]])
    # x = y on the plane z = 1: the line through (0, 0, 1) along (1, 1, 0)
    assert meet(plane, [[1, -1, 0]], [0]) == affine_subspace([0, 0, 1], [[1, 1, 0]])
    # an equation that holds on all of the plane returns the plane itself
    assert meet(plane, [[0, 0, 2]], [2]) is plane
    # z = 2 misses it, and so does 0 = 1
    assert meet(plane, [[0, 0, 1]], [2]) is None
    assert meet(plane, [[0, 0, 0]], [1]) is None
    assert meet(plane, [], []) is plane


def test_meet_solves_its_k_column_system_with_solve_affine(monkeypatch):
    # meet has no solver of its own: x = y on the plane z = 1 is s_1 - s_2 = 0
    # in the plane's two coordinates, and a row that holds on all of the
    # plane is dropped before any solve.
    systems = []
    real = linalg.solve_affine
    monkeypatch.setattr(linalg, "solve_affine", lambda a, b: systems.append((a, b)) or real(a, b))
    plane = affine_subspace([0, 0, 1], [[1, 0, 0], [0, 1, 0]])
    assert meet(plane, [[1, -1, 0], [0, 0, 2]], [0, 2]) == affine_subspace([0, 0, 1], [[1, 1, 0]])
    assert systems == [([[1, -1]], [0])]


def test_subspace_hash_is_kept_and_structural(monkeypatch):
    # Equal subspaces from different constructions hash equal, and each
    # computes its hash once: the key is read from linalg's own ``hash``.
    v = affine_subspace(["1/3", 0], [[1, "-2/5"]])
    w = transform_subspace(int_form(identity(2)), v)
    assert v == w and v is not w
    keys = []

    def counted(key):
        keys.append(key)
        return builtins.hash(key)

    monkeypatch.setattr(linalg, "hash", counted, raising=False)
    assert hash(v) == hash(w) == hash(v) == hash(w)
    assert {v: 1}[w] == 1
    assert len(keys) == 2


# ---------------------------------------------------------------------------
# The integer canonical form against the Fraction reduction it replaced


def _assert_canonical(v, base, rows):
    """v is base + span(rows): its integer form, its Fraction views and
    ``int_points`` agree with the Fraction reduction of that presentation."""
    point, basis, pivots = oracle_canonical_subspace(base, rows)
    assert v.ambient_dim == len(point) and v.pivots == tuple(pivots)
    assert v.den > 0 and gcd(v.den, *v.base) == 1
    assert v.base == tuple(x * v.den for x in point)
    for row, p, want in zip(v.rows, v.pivots, basis):
        assert row[p] > 0 and gcd(*row) == 1
        assert tuple(Fraction(x, row[p]) for x in row) == want
    _same_entries([v.base_point], [point])
    _same_entries(v.basis, basis)
    # int_points once scaled each Fraction vector by its own denominator
    assert int_points(v) == tuple(scaled(x)[1] for x in (point,) + basis)
    w = affine_subspace(point, basis)
    assert w == v and hash(w) == hash(v)


def kernel_vectors(n, max_size):
    return st.lists(st.lists(kernel_rationals, min_size=n, max_size=n).map(tuple),
                    max_size=max_size)


# Ambient dimension 0 and 1 included; spanning rows may be dependent or zero.
presentations = st.integers(0, 4).flatmap(lambda n: st.tuples(
    st.lists(kernel_rationals, min_size=n, max_size=n).map(tuple),
    kernel_vectors(n, n + 1)))


@pytest.mark.parametrize("base, rows", [
    ((), ()),                                      # ambient dimension 0
    ((Fraction(-3, 4), Fraction(5, 6)), ()),       # a point
    ((0, Fraction(1, 3), 0), ((0, -2, 4), (0, 0, Fraction(-1, 7)))),  # negative pivots
    ((Fraction(2, 9), 1), ((Fraction(-6, 5), Fraction(3, 10)),)),
], ids=["ambient0", "point", "negative_pivots", "denominators"])
def test_integer_form_edge_cases(base, rows):
    _assert_canonical(affine_subspace(base, rows), base, rows)


@settings(max_examples=300, deadline=None)
@given(presentations)
def test_integer_form_matches_fraction_reduction(presentation):
    base, rows = presentation
    _assert_canonical(affine_subspace(base, rows), base, rows)


@settings(max_examples=200, deadline=None)
@given(presentations, st.data())
def test_transform_subspace_matches_fraction_images(presentation, data):
    base, rows = presentation
    m = data.draw(kernel_matrix(len(base), len(base)))
    got = transform_subspace(int_form(m), affine_subspace(base, rows))
    _assert_canonical(got, oracle_mat_vec(m, base), [oracle_mat_vec(m, r) for r in rows])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(*[
    st.lists(kernel_rationals, min_size=n, max_size=n).map(tuple), kernel_vectors(n, n)] * 2)))
def test_intersect_matches_fraction_solution(subspaces):
    # x = pa + sum s_i a_i = pb + sum t_j b_j: solve for (s, t) with the oracle
    pa, ra, pb, rb = subspaces
    n, k = len(pa), len(ra)
    got = intersect(affine_subspace(pa, ra), affine_subspace(pb, rb))
    columns = [[r[i] for r in ra] + [-r[i] for r in rb] for i in range(n)]
    solved = oracle_solve(columns, [b - a for a, b in zip(pa, pb)])
    if solved is None:
        assert got is None
        return

    def along_a(coeffs):
        return tuple(sum((c * r[i] for c, r in zip(coeffs[:k], ra)), Fraction(0))
                     for i in range(n))

    particular, free = solved
    point = tuple(a + x for a, x in zip(pa, along_a(particular)))
    _assert_canonical(got, point, [along_a(f) for f in free])


@settings(max_examples=200, deadline=None)
@given(kernel_matrices, st.data())
def test_solve_affine_matches_fraction_solution(m, data):
    # Right-hand sides are ints or Fractions; an all-int row is read as it is.
    b = data.draw(st.lists(st.one_of(st.integers(-9, 9), kernel_rationals),
                           min_size=len(m), max_size=len(m)))
    if data.draw(st.booleans()):
        m = tuple(tuple(int(x) if x.denominator == 1 else x for x in row) for row in m)
    got = solve_affine(m, b)
    solved = oracle_solve([list(r) for r in m], b)
    if solved is None:
        assert got is None
    else:
        particular, free = solved
        _assert_canonical(got, particular, free)


def _monomial(perm, entries):
    """The matrix with entry entries[i] at (i, perm[i]) and zeros elsewhere."""
    return tuple(tuple(c if j == p else Fraction(0) for j in range(len(perm)))
                 for p, c in zip(perm, entries))


# Signed permutations and scaled monomials (entries such as -2 and 1/2, as
# in wide_b2 of scenes/rational_chart.json), n = 0 to 4.
monomial_matrices = st.integers(0, 4).flatmap(lambda n: st.builds(
    _monomial, st.permutations(range(n)),
    st.lists(st.one_of(st.sampled_from([Fraction(1), Fraction(-1)]),
                       st.builds(Fraction, st.integers(-9, 9).filter(bool),
                                 st.integers(1, 7))),
             min_size=n, max_size=n)))

NOT_MONOMIAL = [
    mat([[1, "-2/3"], [0, -1]]),   # skew_klein of scenes/rational_chart.json
    mat([[-1, 0], ["1/2", 1]]),    # skew_flip
    mat([[1, 0], [0, 0]]),         # a zero row
    mat([[0, 1, 0], [2, 0, "1/3"], [0, 0, 1]]),  # a two-entry row
    mat([[0]]),                    # n = 1, the zero row
]


@settings(max_examples=300, deadline=None)
@given(st.one_of(monomial_matrices, st.sampled_from(NOT_MONOMIAL), kernel_matrices), st.data())
def test_monomial_forms_are_marked_and_applied_like_the_oracle(m, data):
    # sparse marks exactly the forms with one entry per row; both kinds of
    # form give the oracle's images, and a marked form is its plain tuple.
    d, rows = int_matrix(m)
    form = sparse(rows)
    plain = tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in rows)
    assert (type(form) is linalg.Monomial) == all(
        sum(1 for x in row if x) == 1 for row in m)
    assert form == plain and plain == form and hash(form) == hash(plain)
    assert {plain: 1}.get(form) == 1 and (d, (form,)) == (d, (plain,))
    cols = len(m[0]) if m else 0
    points = data.draw(st.lists(st.lists(kernel_rationals, min_size=cols, max_size=cols)
                                .map(tuple), max_size=3))
    for x in points:
        dx, xs = scaled(x)
        want = [d * dx * y for y in oracle_mat_vec(m, x)]
        assert list(int_mat_vec(form, xs)) == list(int_mat_vec(plain, xs)) == want
    integer_points = [scaled(x)[1] for x in points]
    want = tuple(tuple(int(d * y) for y in oracle_mat_vec(m, xs)) for xs in integer_points)
    assert int_images(form, integer_points) == int_images(plain, integer_points) == want


def test_identity_forms_are_marked_at_every_dimension():
    for n in (0, 1, 3):
        _, rows = linalg.identity_form(n)
        assert type(rows) is linalg.Monomial
        assert int_mat_vec(rows, tuple(range(n))) == tuple(range(n))


@settings(max_examples=300, deadline=None)
@given(st.one_of(monomial_matrices, st.sampled_from(NOT_MONOMIAL),
                 st.integers(0, 4).flatmap(lambda n: kernel_matrix(n, n))), st.data())
def test_dense_inverts_sparse_and_pull_back_is_the_oracle_product(m, data):
    # A square form's sparse rows densify back to its integer rows, and the
    # equations c pulled back through it are c (d m), the oracle's product.
    d, rows = int_matrix(m)
    n = len(rows)
    form = sparse(rows)
    assert dense(form, n) == [list(row) for row in rows]
    assert sparse(dense(form, n)) == form
    c = data.draw(st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), max_size=3))
    want = [[d * x for x in row] for row in oracle_mat_mul(c, m)] if n else [[] for _ in c]
    assert pull_back(c, form) == want
