"""Independent oracles and randomized generators for the test suite.

The solvers here are written from scratch (plain Gaussian elimination on
Fractions) so they share no code path with the package under test.
Candidate generators draw from signed permutation groups, which are
always orthogonal and exactly representable.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import count as _count, permutations, product

from suborbifolds import (
    SuborbifoldCandidate,
    chart_from_group,
    generate_group,
)
from suborbifolds.classify import EmbeddedResult, Verdict, Witness
from suborbifolds.errors import DimensionMismatch, NonInvertibleGenerator, NotFiniteWithinBound
from suborbifolds.groups import (
    DEFAULT_MAX_ORDER,
    Fingerprint,
    FiniteMatrixGroup,
    Subgroup,
    _close_permutations,
    all_subgroups,
    find_complement,
    group_from_forms,
)
from suborbifolds.linalg import (
    AffineSubspace,
    affine_subspace,
    contains_point,
    equations,
    fixed_points,
    form_of_columns,
    fraction_point,
    identity_form,
    int_mat_vec,
    is_invertible,
    mat,
    restricted_matrix,
    solve_affine,
    vec,
    whole_space,
)


def matrices_of(g) -> list:
    """The Fraction matrices of a matrix group's or subgroup's members, in
    member order, read off the parent's cached ``elements``."""
    elements = g.parent.elements
    return [elements[i].matrix for i in g.members]


# ---------------------------------------------------------------------------
# Self-contained exact linear algebra (the oracle's own solver)


def oracle_solve(a_rows, b):
    """All solutions of a x = b: (particular, homogeneous basis) or None."""
    rows = [list(map(Fraction, r)) + [Fraction(x)] for r, x in zip(a_rows, b)]
    n = len(a_rows[0]) if a_rows else 0
    pivot_cols = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivot_cols.append(c)
        r += 1
    for i in range(r, len(rows)):
        if rows[i][n] != 0:
            return None
    particular = [Fraction(0)] * n
    for i, c in enumerate(pivot_cols):
        particular[c] = rows[i][n]
    basis = []
    for free in range(n):
        if free in pivot_cols:
            continue
        v = [Fraction(0)] * n
        v[free] = Fraction(1)
        for i, c in enumerate(pivot_cols):
            v[c] = -rows[i][free]
        basis.append(tuple(v))
    return tuple(particular), basis


def oracle_rank(rows):
    if not rows:
        return 0
    work = [list(map(Fraction, r)) for r in rows]
    n = len(work[0])
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        pv = work[r][c]
        work[r] = [x / pv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        r += 1
    return r


def oracle_mat_vec(a, x):
    """a x by Fraction products and sums, one coordinate per row.

    The package multiplies integer numerators over one denominator; this is
    the plain rational loop it replaced.
    """
    return tuple(sum((c * v for c, v in zip(row, x)), Fraction(0)) for row in a)


def oracle_map_subspace(m, offset, v):
    """The image of v under x -> m x + offset: the image of v's base point
    and m applied to its basis, by Fraction products, in canonical form."""
    base = tuple(y + c for y, c in zip(oracle_mat_vec(m, v.base_point), offset))
    return affine_subspace(base, [oracle_mat_vec(m, b) for b in v.basis])


def oracle_images(m, v):
    """m applied to v's base point and basis: linear maps agree on v iff these do."""
    return tuple(oracle_mat_vec(m, x) for x in (v.base_point,) + v.basis)


def oracle_rref(m):
    """(reduced row-echelon form, pivot columns) by Fraction Gauss-Jordan.

    Leftmost pivoting, each pivot row divided by its pivot before it
    clears its column; zero rows stay at the bottom. The package reduces
    integer rows fraction-free instead, and must agree entry for entry.
    """
    rows = [list(r) for r in m]
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(n_rows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return tuple(tuple(row) for row in rows), pivots


def oracle_canonical_subspace(base, rows):
    """(base point, basis, pivots) of base + span(rows) in Fractions.

    The basis is the nonzero rows of ``oracle_rref``; the base point has
    each pivot row times its entry at the pivot subtracted, one row after
    the other, so it ends zero at every pivot.
    """
    reduced, pivots = oracle_rref([[Fraction(x) for x in row] for row in rows])
    basis = tuple(reduced[:len(pivots)])
    point = [Fraction(x) for x in base]
    for row, p in zip(basis, pivots):
        c = point[p]
        point = [x - c * y for x, y in zip(point, row)]
    return tuple(point), basis, pivots


def oracle_meet(v: AffineSubspace, c, e):
    """{x in v : c x = e} by one stacked solve in all n coordinates.

    v's equations and the rows c x = e go into one ``solve_affine``; the
    package solves the same set in v's own coordinates (``linalg.meet``).
    """
    cv, ev = equations(v)
    rows, rhs = cv + [tuple(row) for row in c], ev + list(e)
    if not rows:
        return whole_space(v.ambient_dim)
    return solve_affine(rows, rhs)


def oracle_intersect(a: AffineSubspace, b: AffineSubspace):
    """a & b by both sides' equations stacked in one solve (``oracle_meet``)."""
    return oracle_meet(a, *equations(b))


# ---------------------------------------------------------------------------
# Points of an affine subspace, on Fractions


def zero_vec(n: int):
    return (Fraction(0),) * n


def point_from_coordinates(v: AffineSubspace, coeffs):
    """v's base point plus sum_i c_i b_i over v's canonical basis b_i."""
    point = v.base_point
    for c, row in zip(coeffs, v.basis):
        point = tuple(p + Fraction(c) * x for p, x in zip(point, row))
    return point


def point_of_form(form):
    """The point (den, den x) as the Fraction vector x."""
    den, xs = form
    return tuple(Fraction(x, den) for x in xs)


def oracle_sample_walk(v: AffineSubspace):
    """v's points with integer coordinates, on Fractions: the coefficient
    vectors of max norm 0, 1, 2, ... in turn, each shell sorted
    lexicographically."""
    for radius in _count():
        cube = product(range(-radius, radius + 1), repeat=v.dim)
        for coeffs in sorted(c for c in cube if max(map(abs, c), default=0) == radius):
            yield point_from_coordinates(v, coeffs)
        if v.dim == 0:
            return


def sample_in_subspace(v: AffineSubspace, rng: random.Random, count: int):
    """Random rational points of v (denominators kept small)."""
    pts = [v.base_point]
    for _ in range(count - 1):
        coeffs = vec(
            [Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3]))
             for _ in range(v.dim)]
        )
        pts.append(point_from_coordinates(v, coeffs))
    return pts


# ---------------------------------------------------------------------------
# Brute-force verdict oracles (pointwise definitions, sampled exactly)


def oracle_saturated_sampled(cand: SuborbifoldCandidate, rng: random.Random,
                             samples: int = 25) -> bool:
    """Pointwise orbit-trace condition on sampled points of the subspace.

    For x in V and g with gx in V there must be h in Delta with hx = gx.
    Sampling can only miss failures on a measure-zero set of each W_g, so
    it is cross-checked against the engine both ways in the tests.
    """
    group = cand.chart.group
    delta_mats = [group.elements[i].matrix for i in cand.delta.members]
    for x in sample_in_subspace(cand.v, rng, samples):
        for g in range(group.order):
            gx = oracle_mat_vec(group.elements[g].matrix, x)
            if not contains_point(cand.v, gx):
                continue
            if all(oracle_mat_vec(h, x) != gx for h in delta_mats):
                return False
    return True


def oracle_check_saturated(cand: SuborbifoldCandidate) -> Verdict:
    """Saturation by the per-element loop, the reference for the orbit walk.

    For every g in index order: g^-1 V by one transform, W_g by the
    stacked solve ``oracle_intersect``, and the images of W_g under g compared with those under
    each h in Delta in turn; the first uncovered g is the witness, at the
    first point of ``oracle_sample_walk(W_g)`` that no h in Delta moves
    where g does.
    """
    group = cand.chart.group
    v = cand.v
    for g in range(group.order):
        g_inv_v = oracle_map_subspace(group.elements[group.inv(g)].matrix,
                                      zero_vec(v.ambient_dim), v)
        w_g = oracle_intersect(v, g_inv_v)
        if w_g is None:
            continue
        g_mat = group.elements[g].matrix
        moved = oracle_images(g_mat, w_g)
        delta_mats = matrices_of(cand.delta)
        if not any(oracle_images(h, w_g) == moved for h in delta_mats):
            for x in oracle_sample_walk(w_g):
                gx = oracle_mat_vec(g_mat, x)
                if all(oracle_mat_vec(h, x) != gx for h in delta_mats):
                    return Verdict(False, Witness(group.elements[g], x))
    return Verdict(True)


def verify_saturation_witness(cand: SuborbifoldCandidate, witness) -> bool:
    """Exact replay: witness point refutes saturation."""
    group = cand.chart.group
    x = witness.point
    gx = oracle_mat_vec(witness.element.matrix, x)
    if not (contains_point(cand.v, x) and contains_point(cand.v, gx)):
        return False
    return all(
        oracle_mat_vec(group.elements[h].matrix, x) != gx for h in cand.delta.members
    )


def oracle_full(cand: SuborbifoldCandidate) -> bool:
    """Exact: no g outside Delta fixes a point of V (own solver)."""
    group = cand.chart.group
    n = cand.chart.ambient_dim
    members = set(cand.delta.members)
    # Equations for V: x = base + B t  <=>  solve for (x, t) jointly.
    for g in range(group.order):
        if g in members:
            continue
        m = group.elements[g].matrix
        # (g - I) x = 0  and  x - B t = base, unknowns (x, t).
        k = cand.v.dim
        rows = []
        rhs = []
        for i in range(n):
            row = [m[i][j] - (1 if i == j else 0) for j in range(n)]
            rows.append(row + [Fraction(0)] * k)
            rhs.append(Fraction(0))
        for i in range(n):
            row = [Fraction(1 if i == j else 0) for j in range(n)]
            row += [-cand.v.basis[t][i] for t in range(k)]
            rows.append(row)
            rhs.append(cand.v.base_point[i])
        if oracle_solve(rows, rhs) is not None:
            return False  # some outside element fixes a point of V
    return True


def first_fixing_element(group, v: AffineSubspace, excluded):
    """First element outside ``excluded``, in index order, fixing a point of
    v, with the canonical base point of Fix(g) & v, or None: one solve on v
    per element (the reference for the orbit store's solves on W_g)."""
    d, forms = group.integer_forms
    for g in range(group.order):
        if g in excluded:
            continue
        fixed = fixed_points((d, forms[g]), v)
        if fixed is not None:
            return g, fraction_point(fixed.den, fixed.base)
    return None


def verify_fullness_witness(cand: SuborbifoldCandidate, witness) -> bool:
    x = witness.point
    return (
        not cand.delta.contains(witness.element.index)
        and contains_point(cand.v, x)
        and oracle_mat_vec(witness.element.matrix, x) == x
    )


# ---------------------------------------------------------------------------
# The induced chart and the pointwise stabilizer element by element (the
# references for the walk from Delta's generators and the point-by-point
# filter)


def oracle_induced_chart(cand: SuborbifoldCandidate):
    """The induced chart's ``image_of``, its group's integer forms and its
    centroid, with every member of Delta restricted to V and looked up by
    its columns, and the centroid summed on Fraction matrices."""
    group, delta, v = cand.chart.group, cand.delta, cand.v
    d, forms = group.integer_forms
    restricted = {i: restricted_matrix((d, forms[i]), v) for i in delta.members}
    gens = [form_of_columns(restricted[i]) for i in delta.generators]
    induced = group_from_forms(gens or [identity_form(v.dim)], max_order=delta.order)
    image_of = tuple(induced.element_with_columns(restricted[i]) for i in delta.members)
    total = [Fraction(0)] * v.ambient_dim
    for i in delta.members:
        image = oracle_mat_vec(group.elements[i].matrix, v.base_point)
        total = [a + b for a, b in zip(total, image)]
    return image_of, induced.integer_forms, tuple(c / delta.order for c in total)


def oracle_pointwise_stabilizer(g, v: AffineSubspace) -> tuple[int, ...]:
    """The members of g fixing v's base point and base point + each basis
    vector, tested one member at a time on Fraction matrices."""
    points = [v.base_point] + [tuple(a + b for a, b in zip(v.base_point, u)) for u in v.basis]
    parent = g.parent
    return tuple(i for i in g.members
                 if all(oracle_mat_vec(parent.elements[i].matrix, x) == x for x in points))


# ---------------------------------------------------------------------------
# Randomized candidates over signed permutation groups


def signed_permutation(perm, signs):
    """The matrix sending e_j to signs[i] e_i where perm[i] = j."""
    n = len(perm)
    return tuple(
        tuple(Fraction(signs[i]) if perm[i] == j else Fraction(0) for j in range(n))
        for i in range(n)
    )


def signed_permutation_matrices(n: int):
    return [
        signed_permutation(perm, signs)
        for perm in permutations(range(n))
        for signs in product([1, -1], repeat=n)
    ]


def random_candidate(rng: random.Random, max_group_order: int = 16,
                     max_dim: int = 4) -> SuborbifoldCandidate:
    """Random candidate: signed-permutation chart, generated subgroup,
    Delta-invariant subspace spanned by direction orbits."""
    while True:
        n = rng.randint(1, max_dim)
        pool = signed_permutation_matrices(n)
        gens = rng.sample(pool, rng.randint(1, 2))
        try:
            group = generate_group(gens, max_order=max_group_order)
        except NotFiniteWithinBound:
            continue
        chart = chart_from_group(group)
        delta_seed = rng.sample(
            range(group.order), min(group.order, rng.randint(1, 2))
        )
        delta = group.subgroup_from_indices(
            _closure(group, delta_seed)
        )
        # Delta-fixed base point: centroid of a random integer point orbit.
        p = vec([rng.randint(-3, 3) for _ in range(n)])
        centroid = [Fraction(0)] * n
        for i in delta.members:
            q = oracle_mat_vec(group.elements[i].matrix, p)
            centroid = [a + b for a, b in zip(centroid, q)]
        centroid = vec([c / delta.order for c in centroid])
        # Direction space: Delta-orbit span of a few random directions.
        dirs = []
        for _ in range(rng.randint(0, n)):
            d = vec([rng.randint(-2, 2) for _ in range(n)])
            for i in delta.members:
                dirs.append(oracle_mat_vec(group.elements[i].matrix, d))
        return SuborbifoldCandidate(
            chart, delta, affine_subspace(centroid, dirs)
        )


def stabilizer_candidate(rng: random.Random, chart, basis_change=None,
                         dims=None) -> SuborbifoldCandidate:
    """Random candidate in the given chart: a coordinate or diagonal
    subspace, through the origin or off it, mapped by ``basis_change``
    when given, with Delta its setwise stabilizer, the cyclic subgroup of
    a random element of it, or the trivial group.

    dim V is drawn from ``dims`` (default 1..n-1); (0, n) adds points and
    the whole space. In a reflection group such as B_n a line or plane
    meets reflecting hyperplanes that do not preserve it, so only those
    two are ever full there."""
    group = chart.group
    n = group.ambient_dim
    coords = rng.sample(range(n), n)
    k = rng.randint(*(dims or (1, n - 1)))
    units = [[Fraction(int(i == c)) for i in range(n)] for c in coords]
    basis = units[:k]
    if rng.random() < 0.5 and 0 < k < n:  # a diagonal direction
        basis[0] = [a + rng.choice((1, -1)) * b for a, b in zip(units[0], units[k])]
    base = [Fraction(0)] * n
    if rng.random() < 0.5:  # off the origin
        for c in coords[k:]:
            base[c] = rng.choice((Fraction(0), Fraction(1, 2), Fraction(-1), Fraction(2)))
        base[coords[-1]] = Fraction(1)
    if basis_change is not None:
        base = oracle_mat_vec(basis_change, vec(base))
        basis = [oracle_mat_vec(basis_change, vec(d)) for d in basis]
    v = affine_subspace(base, basis)
    stab = oracle_setwise_stabilizer(group, v)
    kind = rng.randrange(3)
    seed = stab if kind == 0 else [rng.choice(stab)] if kind == 1 else []
    delta = group.subgroup_from_indices(_closure(group, seed))
    return SuborbifoldCandidate(chart, delta, v)


def _closure(group, seed):
    members = set(seed) | {group.identity}
    changed = True
    while changed:
        changed = False
        for a in list(members):
            for b in list(members):
                p = group.mult(a, b)
                if p not in members:
                    members.add(p)
                    changed = True
            i = group.inv(a)
            if i not in members:
                members.add(i)
                changed = True
    return members


# ---------------------------------------------------------------------------
# Group laws by their all-pairs definitions (the references for the
# generator checks)


def oracle_is_normal(k, d):
    """Is d k d^-1 in k for every d in d and k in k?"""
    g = k.parent
    kset = set(k.members)
    return all(g.mult(g.mult(x, y), g.inv(x)) in kset for x in d.members for y in k.members)


def oracle_is_homomorphism(f):
    """Is f(a b) = f(a) f(b) for every pair of domain members? Products are
    the parent's, and f is indexed in the domain's member order."""
    d, c = f.domain, f.codomain
    local = {x: a for a, x in enumerate(d.members)}
    return all(f(local[d.parent.mult(x, y)]) == c.mult(f(a), f(b))
               for a, x in enumerate(d.members) for b, y in enumerate(d.members))


# ---------------------------------------------------------------------------
# Complements of a normal subgroup (the references for the section search)


def oracle_find_complement(d, k):
    """First complement of k in d in canonical (order, members) order, or
    None, by scanning the whole subgroup lattice of d (order <= 512)."""
    target = d.order // k.order
    identity = d.parent.identity
    kset = set(k.members)
    for c in all_subgroups(d):
        if c.order == target and set(c.members) & kset == {identity}:
            return c
    return None


def oracle_least_complement(d, k):
    """Members of the least complement of k in d, or None, for groups whose
    lattice is too large to scan.

    Walks only the subgroups of d that meet k trivially, each reached once:
    along x_1 < x_2 < ..., where x_i is the least element of the subgroup
    outside <x_1..x_{i-1}>. Such a subgroup embeds in d/k, so its order
    divides [d : k], and the complements are those of order [d : k].
    """
    group = d.parent
    target = d.order // k.order
    outside = set(k.members) - {group.identity}
    best = None
    stack = [(frozenset({group.identity}), (), -1)]
    while stack:
        h, gens, last = stack.pop()
        if len(h) == target:
            members = tuple(sorted(h))
            best = members if best is None else min(best, members)
            continue
        for x in d.members:
            if x <= last or x in h or x in outside:
                continue
            seed, grown, frontier = gens + (x,), set(h) | {x}, list(h) + [x]
            while frontier and grown is not None:
                a = frontier.pop()
                for s in seed:
                    p = group.mult(a, s)
                    if p in grown:
                        continue
                    if p in outside or p < x or len(grown) == target:
                        grown = None
                        break
                    grown.add(p)
                    frontier.append(p)
            if grown is not None and target % len(grown) == 0:
                stack.append((frozenset(grown), seed, x))
    return best


def oracle_setwise_stabilizer(g, v: AffineSubspace) -> tuple[int, ...]:
    """The members of g mapping v onto itself: each maps v's base point and
    base point + each basis vector into v (Fraction matrices)."""
    points = [v.base_point] + [tuple(a + b for a, b in zip(v.base_point, u)) for u in v.basis]
    parent = g.parent
    return tuple(i for i in g.members
                 if all(contains_point(v, oracle_mat_vec(parent.elements[i].matrix, x))
                        for x in points))


def oracle_embedded_by_lattice(cand: SuborbifoldCandidate) -> EmbeddedResult:
    """``check_embedded(cand, search_all_delta=True)`` by a walk of the chart
    group's whole subgroup lattice (order <= 512), for saturated candidates.

    The least complement of Delta's kernel in Delta, if there is one
    (``oracle_find_complement``); else the first subgroup in canonical
    (order, members) order that maps V onto itself, meets V's pointwise
    stabilizer trivially and is saturated (``oracle_check_saturated``). The
    certificate of a failed search is the section search's count, read
    from ``find_complement``.
    """
    group, v = cand.chart.group, cand.v
    kernel = Subgroup(group, oracle_pointwise_stabilizer(cand.delta, v))
    complement = oracle_find_complement(cand.delta, kernel)
    if complement is not None:
        return EmbeddedResult(True, effective_delta=complement)
    invariant = set(oracle_setwise_stabilizer(group, v))
    fixing = set(oracle_pointwise_stabilizer(group, v))
    for sub in all_subgroups(group):
        if (invariant.issuperset(sub.members) and fixing & set(sub.members) == {group.identity}
                and oracle_check_saturated(SuborbifoldCandidate(cand.chart, sub, v)).holds):
            return EmbeddedResult(True, effective_delta=sub, searched_all_delta=True)
    return EmbeddedResult(False, certificate=find_complement(cand.delta, kernel),
                          searched_all_delta=True)


# ---------------------------------------------------------------------------
# Matrix groups by plain matrix products (the reference for the group core)


def int_form(m, d=None):
    """(d, d m as sparse integer rows) for the Fraction matrix m; d defaults
    to m's least common denominator and must be a multiple of every
    denominator of m."""
    if d is None:
        d = math.lcm(*[x.denominator for row in m for x in row])
    return d, tuple(
        tuple((j, x.numerator * (d // x.denominator)) for j, x in enumerate(row) if x)
        for row in m
    )


def identity(n: int):
    """The n x n identity as a Fraction matrix."""
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def oracle_mat_mul(a, b):
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0))
              for j in range(len(b[0])))
        for i in range(len(a))
    )


def oracle_block_diag(a, b):
    """diag(a, b) for Fraction matrices a and b."""
    zero_right = (Fraction(0),) * (len(b[0]) if b else 0)
    zero_left = (Fraction(0),) * (len(a[0]) if a else 0)
    return tuple(tuple(row) + zero_right for row in a) + tuple(zero_left + tuple(row) for row in b)


def oracle_group_closure(generators):
    """Sorted elements of the group the matrices generate, by matrix products."""
    ident = identity(len(generators[0]))
    seen = {ident}
    frontier = [ident]
    while frontier:
        a = frontier.pop()
        for g in generators:
            p = oracle_mat_mul(a, g)
            if p not in seen:
                seen.add(p)
                frontier.append(p)
    return sorted(seen)


def oracle_generate_group(generators, max_order: int = DEFAULT_MAX_ORDER):
    """The validate-first ``generate_group``: every generator is read into a
    Fraction matrix (``mat``) and checked square and invertible by a rank
    test, in order, before the orbit of the basis is walked and closed."""
    gens = [mat(g) for g in generators]
    if not gens:
        raise DimensionMismatch("a group needs at least one generator "
                                "(the identity for the trivial group)")
    n = len(gens[0])
    for g in gens:
        if len(g) != n or any(len(row) != n for row in g):
            raise NonInvertibleGenerator("generators must be square, equal size")
        if not is_invertible(g):
            text = ", ".join("[" + ", ".join(str(x) for x in row) + "]" for row in g)
            raise NonInvertibleGenerator(f"generator is singular: [{text}]")
    forms = [int_form(g) for g in gens]
    omega = [(1, tuple(int(i == j) for i in range(n))) for j in range(n)]
    points = {x: k for k, x in enumerate(omega)}
    moves = [[] for _ in gens]
    for den, xs in omega:
        for (dg, rows), row in zip(forms, moves):
            ys = int_mat_vec(rows, xs)
            c = math.gcd(den * dg, *ys)
            y = (den * dg // c, tuple(v // c for v in ys))
            if y not in points:
                if len(points) >= n * max_order:
                    raise NotFiniteWithinBound(max_order)
                points[y] = len(omega)
                omega.append(y)
            row.append(points[y])
    perms = _close_permutations([tuple(row) for row in moves], len(omega), max_order)
    d = math.lcm(*[den for den, _ in omega])
    columns = [tuple(v * (d // den) for v in xs) for den, xs in omega]
    elements = sorted((tuple(zip(*[columns[k] for k in p[:n]])), p) for p in perms)
    return FiniteMatrixGroup(points, d, elements, [tuple(row[:n]) for row in moves])


def oracle_equivariance_failure(domain, codomain, linear, offset, images):
    """(element, part) for the first element g of the domain group, in index
    order, at which theta(g) L = L g or theta(g) c = c fails, by Fraction
    matrix products (``images[g]`` is theta(g)'s index in the codomain
    group); None when both hold everywhere."""
    for g, g_mat in enumerate(matrices_of(domain)):
        t = codomain.elements[images[g]].matrix
        if oracle_mat_mul(t, linear) != oracle_mat_mul(linear, g_mat):
            return g, "linear part"
        if oracle_mat_vec(t, offset) != tuple(offset):
            return g, "offset"
    return None


def oracle_quotient_fingerprint(d, k):
    """The fingerprint of d/k by matrix products alone: the cosets a k as
    sets of matrices, each coset's order by multiplying a representative
    until its power lies in k, and commutativity tested on every pair of
    cosets (ab k = ba k)."""
    kernel = set(matrices_of(k))
    coset_of = {}
    for a in matrices_of(d):
        if a not in coset_of:
            coset = frozenset(oracle_mat_mul(a, x) for x in kernel)
            coset_of.update(dict.fromkeys(coset, coset))
    reps = [min(coset) for coset in set(coset_of.values())]
    orders = []
    for a in reps:
        power, order = a, 1
        while power not in kernel:
            power, order = oracle_mat_mul(power, a), order + 1
        orders.append(order)
    abelian = all(coset_of[oracle_mat_mul(a, b)] is coset_of[oracle_mat_mul(b, a)]
                  for a in reps for b in reps)
    return Fingerprint(len(reps), tuple(sorted(orders)), abelian)


def hyperoctahedral_generators(n: int):
    """B_n: the adjacent coordinate swaps and the sign change of x_0."""
    swaps = []
    for i in range(n - 1):
        perm = list(range(n))
        perm[i], perm[i + 1] = i + 1, i
        swaps.append(signed_permutation(perm, [1] * n))
    return swaps + [signed_permutation(range(n), [-1] + [1] * (n - 1))]


def random_rational_basis_change(rng: random.Random, n: int):
    """An invertible S with entries in {0, +-1/2, +-1, +-2} and its inverse."""
    entries = [Fraction(0), Fraction(1, 2), Fraction(-1, 2), Fraction(1),
               Fraction(-1), Fraction(2), Fraction(-2)]
    while True:
        s = tuple(tuple(rng.choice(entries) for _ in range(n)) for _ in range(n))
        if oracle_rank(s) == n:
            break
    columns = [
        oracle_solve(s, [Fraction(int(i == j)) for i in range(n)])[0]
        for j in range(n)
    ]
    return s, tuple(zip(*columns))


def conjugate_all(matrices, s, s_inv):
    return [oracle_mat_mul(oracle_mat_mul(s, m), s_inv) for m in matrices]


# ---------------------------------------------------------------------------
# The metric probe by per-point evaluation (the reference for the closed
# form) and by one integer quadratic per form and piece (the reference for
# the lower envelope)


def _min_orbit_sq_dist(matrices, x, y):
    return min(sum((a - b) ** 2 for a, b in zip(x, oracle_mat_vec(m, y))) for m in matrices)


def oracle_segment_sum(matrices, start, end, pieces):
    """Sum over the pieces of the segment from start to end of the minimum
    over the matrices of |p - g q|, with every piece end built as a Fraction
    vector and every distance taken with oracle_mat_vec."""
    total = 0.0
    prev = start
    for i in range(1, pieces + 1):
        t = Fraction(i, pieces)
        current = tuple((1 - t) * a + t * b for a, b in zip(start, end))
        total += math.sqrt(_min_orbit_sq_dist(matrices, prev, current))
        prev = current
    return total


def oracle_quotient_distance(group, x, y):
    """min over the group of |x - g y|, from the Fraction minimum."""
    return math.sqrt(_min_orbit_sq_dist(matrices_of(group), vec(x), vec(y)))


def oracle_piece_segment_sum(scale, forms, pieces):
    """The segment sum from integer forms (A, B, B', C, D, E) over the
    common denominator ``scale``, by brute force: at every piece i, the
    minimum over the forms of N^2 scale |p - g q|^2 = alpha i^2 + beta i +
    gamma, one quadratic per form, then its square root over N^2 scale."""
    n = pieces
    quadratics = [(b + b2 - 2 * e,
                   2 * (e - b) + 2 * n * (c - d),
                   n * n * a + b - 2 * n * c)
                  for a, b, b2, c, d, e in forms]
    denominator = scale * n * n
    total = 0.0
    for i in range(1, n + 1):
        best = min(alpha * i * i + beta * i + gamma for alpha, beta, gamma in quadratics)
        total += math.sqrt(best / denominator)
    return total


def oracle_intrinsic_distances(probe, x, y):
    """Entry k is the intrinsic distance from x to y at partition depth k,
    for k = 0..probe.partition_depth, built on oracle_segment_sum: per
    subgroup element h the sup of the segment sums over depths 0..k, then
    the min over h. Each depth's sums are computed once for all k."""
    x, y = vec(x), vec(y)
    group = probe.candidate.chart.group
    best = [None] * (probe.partition_depth + 1)
    for h in probe.candidate.delta.members:
        target = oracle_mat_vec(group.elements[h].matrix, y)
        sup = 0.0
        for depth in range(probe.partition_depth + 1):
            sup = max(sup, oracle_segment_sum(matrices_of(group), x, target, 2 ** depth))
            if best[depth] is None or sup < best[depth]:
                best[depth] = sup
    return best


def oracle_piece_sums(probe, x, y):
    """Per subgroup element h, in member order, the list of the segment sums
    from x to h y at depths 0..probe.partition_depth, every depth summed by
    oracle_piece_segment_sum. The forms come from the Fraction vectors
    a = x - g x, d = h y - x and g d, scaled to integers by their least
    common denominator K, over the common denominator K^2. The intrinsic
    distance at depth k is the min over h of the max of entries 0..k."""
    x, y = vec(x), vec(y)
    group = probe.candidate.chart.group
    matrices = matrices_of(group)
    sums = []
    for h in probe.candidate.delta.members:
        d = [t - s for t, s in zip(oracle_mat_vec(group.elements[h].matrix, y), x)]
        vectors = [([s - t for s, t in zip(x, oracle_mat_vec(g, x))], d, oracle_mat_vec(g, d))
                   for g in matrices]
        k = math.lcm(*(c.denominator for triple in vectors for v in triple for c in v))

        def dot(u, v):
            return int(sum(k * p * k * q for p, q in zip(u, v)))

        forms = [(dot(a, a), dot(d, d), dot(gd, gd), dot(a, d), dot(a, gd), dot(d, gd))
                 for a, d, gd in vectors]
        sums.append([oracle_piece_segment_sum(k * k, forms, 2 ** depth)
                     for depth in range(probe.partition_depth + 1)])
    return sums
