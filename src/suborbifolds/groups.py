"""Finite groups of invertible rational matrices.

Every group is built by ``group_from_forms`` from generators given as
integer forms (d, d g), the one place that checks them.
``read_generators`` reads generators written as ints, Fractions or "p/q"
strings into those forms (``linalg.int_matrix``, one reader with
``affine_subspace``) for ``generate_group``, and the package's own
constructions (product charts, promoted subgroups, induced charts) pass
the integer forms of matrices they already hold, so no Fraction is built
on the way. A caller with no generators, such as
``trivial_group``, passes the identity of its dimension.

Element order is canonical (lexicographic on matrix entries), so equal
groups have identical element lists whatever generated them, and every
reported witness is reproducible. A matrix group and its subgroups
expose ``parent`` (the matrix group the indices refer to; a matrix group
is its own parent), ``members`` (the parent indices of the elements, in
order) and ``generators``, so no caller needs to tell them apart; a
member's matrix is its parent's. Products are taken only
in the parent, on parent indices (``mult``, ``inv`` and ``identity``). A
quotient d/k is never built as a group of its own: it is read from the
cosets of k in the parent, and ``quotient_group`` returns its fingerprint
(Holt, Eick & O'Brien, Handbook of Computational Group Theory, 2005).

Group construction is integer arithmetic. Let Omega be the orbit of the
standard basis e_1, ..., e_n under the generators, each point kept as
(den, den x) with den > 0 and no common factor, found with one integer
matrix-vector product per point and generator and capped at n * max_order
points: a group of order at most max_order moves each e_j to at most
max_order places, so a longer orbit proves the group infinite or too
large. Each generator must permute Omega: one that is injective on the
finite Omega it preserves permutes it, and as Omega spans Q^n it is then
invertible, while a singular one cannot be injective there. So a group
that is built from a short orbit costs no rank test; only a generator
that is not square or not injective on Omega, or an orbit past
``CHECK_ORBIT_PAST`` points per dimension, sends the generators through
the one-by-one check (square, then invertible by a rank test), which
names the same generator with the same message as checking every
generator first; after it, a generator of infinite order is refused at
once, by its traces or by a power that is not the identity. Each element
permutes Omega, and as Omega spans Q^n
that action is faithful; an element is even determined by its column
key, the indices in Omega of its columns g e_1, ..., g e_n, which are the
first n entries of its permutation. The generators' permutations are
closed once, and each element's matrix is read off its key as d g, with
d the least common multiple of the point denominators (so of every
entry's denominator).
Sorting the d g sorts the g, as d > 0. A matrix is looked up by the
points of its columns (``element_with_columns``), never by hashing
Fractions: a product chart finds diag(a, b) from the columns of a and b
(``columns``), and an induced chart a restricted element from its integer
columns. The element's Fraction matrix is read off d g only for a value
returned: ``element(i)`` builds one, for a witness, and ``elements``
every one, sharing one Fraction per distinct entry.

Products are computed on demand, never tabulated: the key of a b is
(pi_a[k] for k in key(b)), with pi_a a's permutation of Omega, read by one
``operator.itemgetter`` call per product (b's gather, built for every
element on the first product) and one dict lookup; the closure of the
generators' permutations gathers the same way. ``coset`` reads the
products h b for the members h of a subgroup without touching a row. Row
a of the products is allocated the first time a product a b is asked and
keeps each cell once computed, so a closure that multiplies by a few
elements reads their rows as a table would, and a group of order 3840
builds only the rows it uses. Inverses are read off
the permutations. Every group keeps the generators it was built from,
and its Schreier tree spells each element as a word in them; a proper
subgroup picks its own generators greedily in member order, and the
whole group reuses its parent's. Normality, commutativity, the
homomorphism law and, through ``first_failure``, any law whose passing
elements form a subgroup are decided on these generators. The order of
a coset a k, the least m with a^m in k, is found by pushing a's column
key through a's permutation until it is the key of a member of k; an
element's order is that with k trivial. Complements of a normal
subgroup are found by a search over sections, never by enumerating the
subgroup lattice; no verdict walks the lattice (``all_subgroups`` is the
tests' reference for that search).

Stabilizers, the saturation check, the orbit of a subspace and the
induced chart apply the integer forms d g (``integer_forms``, sparse
integer rows; a monomial element, such as every element of a signed
permutation group, is a ``linalg.Monomial`` applied with one gather per
coordinate) to integer vectors and compare integer images, which for
one d are equal exactly when the rational images are; a Fraction is built
only for a value returned. A pointwise stabilizer filters the members
point by point, so each later point is tested on the survivors only; the
induced chart restricts only Delta's generators and reads each member's
image off products in the induced group. Stabilizers are not computed
with a stabilizer chain (Schreier-Sims): a generic point's orbit has full
length, so at the orders used here a chain would not pay.
"""
from __future__ import annotations

from functools import cached_property
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter

from .errors import (
    DimensionMismatch,
    GroupTooLarge,
    NonInvertibleGenerator,
    NotFiniteWithinBound,
    NotNormal,
    NotSubgroup,
)
from .linalg import (
    AffineSubspace,
    IntMat,
    Mat,
    dense,
    identity_form,
    int_mat_vec,
    int_matrix,
    int_points,
    is_invertible,
    lowest_terms,
    mat,
    mat_mul,
    point_str,
    rat,
    single_point,
    sparse,
)
from .records import record, set_field

DEFAULT_MAX_ORDER = 10_000
SUBGROUP_ENUMERATION_BOUND = 512
# Once the orbit of the basis passes this many points per dimension, the
# generators are checked one by one, so a singular generator with an
# infinite orbit is named at once rather than after n * max_order points
# (about 1 s at the default bound), and one of infinite order is refused.
# A signed permutation group has 2 points per dimension.
CHECK_ORBIT_PAST = 64


def first_failure(group, fails):
    """None when no generator of the group fails, else the first member that
    fails, in index order (both as parent indices).

    For a law whose passing elements form a subgroup, such as invariance of a
    subspace, the law holds on the group exactly when it holds on the
    generators; the members are scanned only to name the first failure.
    """
    if not any(fails(i) for i in group.generators):
        return None
    return next(i for i in group.members if fails(i))


@record
class GroupElement:
    matrix: Mat
    index: int


class FiniteMatrixGroup:
    """A finite group of invertible rational n x n matrices.

    Built only by ``generate_group``, which has closed the group and
    checked its generators.
    """

    def __init__(self, points, d, elements, generators):
        """Omega's points (den, den x) with their indices, the first n being
        e_1, ..., e_n; the common denominator d; the elements as (d g, pi_g)
        in sorted order; and the generators' column keys."""
        n = len(elements[0][0])
        self.ambient_dim = n
        self._points = points
        self._omega = tuple(points)
        self._perms = tuple(p for _, p in elements)
        self._keys = tuple(p[:n] for p in self._perms)
        self._element_of = {key: i for i, key in enumerate(self._keys)}
        self._rows: list = [None] * len(elements)
        self.members = tuple(range(len(elements)))
        self.identity = self._element_of[tuple(range(n))]
        self.generators = tuple(dict.fromkeys(self._element_of[key] for key in generators))
        self.integer_forms: tuple[int, tuple[IntMat, ...]] = (
            d, tuple([sparse(m) for m, _ in elements]))
        # The saturation work of the last ``classify.ORBITS_OF_V_KEPT``
        # subspaces asked about, least recently used first
        # (``classify.OrbitOfV.of``).
        self.orbits_of_v: dict = {}

    @cached_property
    def elements(self) -> tuple[GroupElement, ...]:
        """Every element with its Fraction matrix, in index order, one
        Fraction object per distinct entry."""
        d, forms = self.integer_forms
        rows = [dense(m, self.ambient_dim) for m in forms]
        values = {x: Fraction(x, d) for x in {x for m in rows for row in m for x in row}}
        return tuple([GroupElement(tuple([tuple(map(values.__getitem__, row)) for row in m]), i)
                      for i, m in enumerate(rows)])

    def element(self, i: int) -> GroupElement:
        """Element i with its Fraction matrix, built without the other
        elements' (a witness needs one element, ``elements`` every one)."""
        d, forms = self.integer_forms
        return GroupElement(tuple([tuple([Fraction(x, d) for x in row])
                                   for row in dense(forms[i], self.ambient_dim)]), i)

    @cached_property
    def _inverse(self) -> tuple[int, ...]:
        """Each element's inverse: its key lists where pi_g puts e_1, ..., e_n."""
        n, element_of = self.ambient_dim, self._element_of
        return tuple(element_of[tuple(p.index(k) for k in range(n))] for p in self._perms)

    @cached_property
    def schreier_tree(self) -> tuple:
        """Entry x is (s, y) with x = s y, s a generator, y nearer the identity.

        A breadth-first tree from the identity (whose entry is None), so
        every element is a short word in the generators.
        """
        tree: list = [None] * self.order
        reached = [self.identity]
        for y in reached:
            for s in self.generators:
                x = self.mult(s, y)
                if tree[x] is None and x != self.identity:
                    tree[x] = (s, y)
                    reached.append(x)
        return tuple(tree)

    @property
    def parent(self) -> "FiniteMatrixGroup":
        return self

    @property
    def order(self) -> int:
        return len(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __eq__(self, other) -> bool:
        return (other.__class__ is self.__class__
                and self.integer_forms == other.integer_forms)

    def __hash__(self):
        return hash(self.integer_forms)

    @cached_property
    def _gathers(self) -> tuple:
        """Per element j, the gather that reads the key of i j off pi_i."""
        return tuple(map(_gather, self._keys))

    def mult(self, i: int, j: int) -> int:
        product = self._row(i)[j]
        if product is None:
            product = self._rows[i][j] = self._element_of[self._gathers[j](self._perms[i])]
        return product

    def coset(self, members, j: int) -> list[int]:
        """The products h j for h in ``members``, in that order, read off the
        permutations without filling a row of products."""
        gather, perms, element_of = self._gathers[j], self._perms, self._element_of
        return [element_of[gather(perms[h])] for h in members]

    def _row(self, i: int) -> list:
        """The products i j known so far, indexed by j (None where not yet
        asked); ``mult`` fills a cell the first time it is asked."""
        row = self._rows[i]
        if row is None:
            row = self._rows[i] = [None] * len(self._rows)
        return row

    def inv(self, i: int) -> int:
        return self._inverse[i]

    def columns(self, i: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """The columns g e_1, ..., g e_n of element i as points (den, den x)
        of Omega, read off its key."""
        omega = self._omega
        return tuple([omega[k] for k in self._keys[i]])

    def element_with_columns(self, columns) -> int | None:
        """The index of the element whose columns are the given points
        (den, den x) in lowest terms, or None when no element has them."""
        points = self._points
        return self._element_of.get(tuple([points.get(c) for c in columns]))

    def index_of(self, matrix) -> int:
        """The index of a matrix (entries as ``read_rational`` reads them),
        found from the points of its columns; ``NotSubgroup`` when the
        matrix is not in the group."""
        return self.index_of_form(int_matrix(matrix))

    def index_of_form(self, form) -> int:
        """``index_of`` for a matrix m given as (d, d m) in dense integer
        rows, as ``int_matrix`` reads it."""
        d, rows = form
        index = self.element_with_columns(lowest_terms(d, c) for c in zip(*rows))
        if index is None:
            raise NotSubgroup(f"matrix {_form_text(d, rows)} is not in the group")
        return index

    def full_subgroup(self) -> "Subgroup":
        return Subgroup(self, self.members)

    def subgroup_from_indices(self, indices) -> "Subgroup":
        members = tuple(sorted(set(indices)))
        sub = Subgroup(self, members)
        if not sub.is_closed():
            raise NotSubgroup("index set is not closed under the group operation")
        return sub

    def subgroup_generated_by(self, indices) -> "Subgroup":
        """Subgroup generated by the elements with the given indices."""
        return Subgroup(self, tuple(sorted(_closure_indices(self, indices))))

    def subgroup_from_matrices(self, matrices) -> "Subgroup":
        """Subgroup generated by the given matrices (closure is taken)."""
        return self.subgroup_generated_by([self.index_of(m) for m in matrices])

    def is_abelian(self) -> bool:
        return _is_abelian(self)


@record
class Subgroup:
    """Subgroup of a FiniteMatrixGroup given by sorted parent indices."""

    parent: FiniteMatrixGroup
    members: tuple[int, ...]

    def __init__(self, parent, members):
        local = {p: i for i, p in enumerate(members)}
        if parent.identity not in local:
            raise NotSubgroup("subgroup must contain the identity")
        set_field(self, "parent", parent)
        set_field(self, "members", members)
        set_field(self, "_local", local)

    @property
    def order(self) -> int:
        return len(self.members)

    def __len__(self) -> int:
        return len(self.members)

    @cached_property
    def _span(self) -> tuple[tuple[int, ...], frozenset[int]]:
        """Parent indices of generators and the subgroup they generate: the
        parent's own for the whole group, else greedy ones picked in member
        order, with the last closure of the greedy chain."""
        parent = self.parent
        if len(self.members) == parent.order:
            return parent.generators, frozenset(parent.members)
        picked, chain = _greedy_generators(parent, self.members)
        return tuple(picked), chain[-1] if chain else frozenset({parent.identity})

    @cached_property
    def generators(self) -> tuple[int, ...]:
        return self._span[0]

    def is_closed(self) -> bool:
        """Do the members form a group? They do exactly when the generators
        picked from them generate no more than them."""
        return self._span[1] == set(self.members)

    def contains(self, parent_index: int) -> bool:
        return parent_index in self._local

    def is_subset_of(self, other: "Subgroup") -> bool:
        return set(self.members) <= set(other.members)

    def is_normal_in(self, other: "Subgroup") -> bool:
        """Is d k d^-1 in this subgroup for every d in other and k in this one?

        Conjugation by d is a homomorphism, and each d is a product of
        other's generators, so testing the generators of both is enough.
        """
        g = self.parent
        return all(g.mult(g.mult(d, k), g.inv(d)) in self._local
                   for d in other.generators for k in self.generators)

    def promote(self) -> FiniteMatrixGroup:
        """The subgroup as a standalone FiniteMatrixGroup, generated by its
        generators (the trivial subgroup by the identity)."""
        d, forms = self.parent.integer_forms
        gens = [(d, forms[i]) for i in self.generators]
        return group_from_forms(gens or [identity_form(self.parent.ambient_dim)],
                                max_order=self.order)


@record
class GroupHom:
    """Homomorphism from a matrix group or a subgroup to a matrix group;
    ``image_of[a]`` is the image of the domain's a-th member."""

    domain: object
    codomain: object
    image_of: tuple[int, ...]

    def __call__(self, i: int) -> int:
        return self.image_of[i]

    def is_homomorphism(self) -> bool:
        """f(e) = e, and f(s a) = f(s) f(a) for every a and domain generator s.

        Every b is a product of generators, so f(b a) = f(b) f(a) follows for
        every pair; f(e) = e covers the empty product (the trivial subgroup
        has no generators). Products are the parent's, read through the
        domain's member order.
        """
        d, c = self.domain, self.codomain
        p, f = d.parent, self.image_of
        local = {x: a for a, x in enumerate(d.members)}
        return f[local[p.identity]] == c.identity and all(
            f[local[p.mult(s, x)]] == c.mult(f[local[s]], f[a])
            for s in d.generators for a, x in enumerate(d.members)
        )

    def is_injective(self) -> bool:
        return len(set(self.image_of)) == len(self.image_of)


def realify(complex_entries) -> Mat:
    """Real 2n x 2n matrix for a complex n x n matrix given as (re, im) pairs.

    Each complex entry a+bi becomes the 2x2 block [[a, -b], [b, a]].
    """
    n = len(complex_entries)
    rows = []
    for i in range(n):
        top, bottom = [], []
        for j in range(n):
            a, b = complex_entries[i][j]
            a, b = rat(a), rat(b)
            top.extend([a, -b])
            bottom.extend([b, a])
        rows.append(top)
        rows.append(bottom)
    return mat(rows)


def _gather(key):
    """The function p -> tuple(p[k] for k in key), one ``itemgetter`` call
    when key has two or more entries (with one it would return a scalar,
    with none it cannot be built)."""
    if len(key) > 1:
        return itemgetter(*key)
    return lambda p: tuple([p[k] for k in key])


def _close_permutations(generators, degree: int, limit: int) -> set[tuple[int, ...]]:
    """The permutations of 0..degree-1 the generators generate.

    The identity is closed under right multiplication by the generators
    (for permutations of a finite set the products already form the
    group); ``NotFiniteWithinBound(limit)`` is raised before a group
    grows past ``limit`` elements.
    """
    identity = tuple(range(degree))
    gathers = [_gather(g) for g in generators]
    seen = {identity}
    frontier = [identity]
    while frontier:
        current = frontier.pop()
        for gather in gathers:
            prod = gather(current)
            if prod not in seen:
                if len(seen) >= limit:
                    raise NotFiniteWithinBound(limit)
                seen.add(prod)
                frontier.append(prod)
    return seen


@record
class GeneratorForms:
    """Generators as ``read_generators`` returns them: integer forms
    (d, d g) with sparse rows, all n x n."""

    forms: tuple[tuple[int, IntMat], ...]


def read_generators(generators) -> GeneratorForms:
    """The generators, each read once into integer rows over its own
    denominator (``int_matrix``: ints, Fractions and "p/q" strings) and
    checked to be square and of one size. The trivial group needs the
    identity as its generator: an empty list has no dimension.
    """
    matrices = [int_matrix(g) for g in generators]
    if not matrices:
        raise DimensionMismatch("a group needs at least one generator "
                                "(the identity for the trivial group)")
    n = len(matrices[0][1])
    if any(len(rows) != n or any(len(row) != n for row in rows) for _, rows in matrices):
        _refuse_generators(n, matrices)
    return GeneratorForms(tuple([(d, sparse(rows)) for d, rows in matrices]))


def generate_group(generators, max_order: int = DEFAULT_MAX_ORDER) -> FiniteMatrixGroup:
    """Closure of the generators, with canonical ordering.

    The generators are matrices, read by ``read_generators``, or what
    ``read_generators`` returned for them (a scene reads its groups when
    it is read and builds each on first use); ``group_from_forms`` closes
    them.
    """
    if type(generators) is not GeneratorForms:
        generators = read_generators(generators)
    return group_from_forms(generators.forms, max_order)


def group_from_forms(forms, max_order: int = DEFAULT_MAX_ORDER) -> FiniteMatrixGroup:
    """The group generated by n x n matrices given as (d, d g) with sparse
    integer rows (see ``linalg.sparse``), at least one of them.

    The orbit Omega of the standard basis is found with one integer
    matrix-vector product per point and generator; it is capped at
    n * max_order points. Each generator must then permute Omega: one that
    is injective on the finite Omega it preserves permutes it, and as Omega
    spans Q^n it is invertible, while a singular one cannot be injective
    there. Only when a generator is not, or the orbit passes
    ``CHECK_ORBIT_PAST`` points per dimension or its cap, are the
    generators checked one by one (``_refuse_generators``), so a singular
    generator is named as such; past ``CHECK_ORBIT_PAST`` their orders are
    checked next (``_refuse_infinite_order``). The permutations are
    closed, and each element's matrix is read off the images of the basis,
    which come first.
    """
    n = len(forms[0][1])
    omega = [(1, tuple(int(i == j) for i in range(n))) for j in range(n)]
    points = {x: k for k, x in enumerate(omega)}
    moves: list[list[int]] = [[] for _ in forms]
    for den, xs in omega:
        for (dg, rows), row in zip(forms, moves):
            y = lowest_terms(den * dg, int_mat_vec(rows, xs))
            if y not in points:
                if len(points) >= n * max_order:
                    _refuse_generators(n, _dense(n, forms))
                    raise NotFiniteWithinBound(max_order)
                if len(points) == n * CHECK_ORBIT_PAST:
                    matrices = _dense(n, forms)
                    _refuse_generators(n, matrices)
                    _refuse_infinite_order(n, matrices, max_order)
                points[y] = len(omega)
                omega.append(y)
            row.append(points[y])
    if any(len(set(row)) < len(row) for row in moves):
        _refuse_generators(n, _dense(n, forms))
        raise AssertionError("a generator that does not permute its orbit passed the rank test")
    perms = _close_permutations([tuple(row) for row in moves], len(omega), max_order)
    d = lcm(*[den for den, _ in omega])
    columns = [tuple(v * (d // den) for v in xs) for den, xs in omega]
    elements = sorted((tuple(zip(*[columns[k] for k in p[:n]])), p) for p in perms)
    return FiniteMatrixGroup(points, d, elements, [tuple(row[:n]) for row in moves])


def _dense(n: int, forms) -> list:
    """Sparse forms (d, d g) of n x n matrices as (d, dense integer rows)."""
    return [(d, dense(rows, n)) for d, rows in forms]


def _refuse_infinite_order(n: int, matrices, max_order: int) -> None:
    """Raise ``NotFiniteWithinBound(max_order)`` for the first generator
    (d, dense d g) of infinite order.

    Each eigenvalue of a g of finite order is a root of unity of some order
    k, whose minimal polynomial over Q has degree phi(k) <= n, and g is
    diagonalizable; so g has finite order exactly when g^M = I for
    M = lcm{k : phi(k) <= n} (each such k is at most 2 n^2, as
    phi(k) >= sqrt(k / 2)). g^M is found by repeated squaring, and first
    each square g^(2^j) must have a trace that is an integer of absolute
    value at most n, as a sum of n roots of unity that is rational; most g
    of infinite order fail that at g or g^2.
    """
    exponent = lcm(*[k for k in range(1, 2 * n * n + 1)
                     if sum([gcd(j, k) == 1 for j in range(k)]) <= n])
    identity = (1, tuple([tuple([int(i == j) for j in range(n)]) for i in range(n)]))
    for form in matrices:
        power, result, e = form, identity, exponent
        while e:  # power is g^(2^j); result is g^(exponent mod 2^j)
            d, rows = power
            trace = sum([rows[i][i] for i in range(n)])
            if trace % d or abs(trace) > n * d:
                raise NotFiniteWithinBound(max_order)
            if e & 1:
                result = _product(n, result, power)
            e >>= 1
            if e:
                power = _product(n, power, power)
        if result != identity:
            raise NotFiniteWithinBound(max_order)


def _product(n: int, a, b):
    """a b for n x n matrices a and b given as (den, dense integer rows), in
    lowest terms: no common factor of den and every entry."""
    den, rows = a[0] * b[0], mat_mul(a[1], b[1], n)
    common = gcd(den, *[x for row in rows for x in row])
    return den // common, tuple([tuple([x // common for x in row]) for row in rows])


def _refuse_generators(n: int, matrices) -> None:
    """Raise ``NonInvertibleGenerator`` for the first generator, in order,
    that is not n x n or is singular; the matrices are (d, dense d g)."""
    for d, rows in matrices:
        if len(rows) != n or any(len(row) != n for row in rows):
            raise NonInvertibleGenerator("generators must be square, equal size")
        if not is_invertible(rows):
            raise NonInvertibleGenerator(f"generator is singular: {_form_text(d, rows)}")


def _form_text(d: int, rows) -> str:
    """The matrix given as (d, d m) in dense integer rows, written as nested
    lists of rationals: [[1, 0], [0, 1/2]]."""
    return "[" + ", ".join(point_str(Fraction(x, d) for x in row) for row in rows) + "]"


def trivial_group(n: int) -> FiniteMatrixGroup:
    return group_from_forms([identity_form(n)])


def _closure_indices(parent: FiniteMatrixGroup, seed, limit=None):
    """The seed closed under left multiplication by the seed elements, or
    None as soon as it would grow past ``limit`` elements.

    In a finite group the products of a set already form the subgroup it
    generates, so no inverses need to be taken.
    """
    seed = set(seed)
    members = seed | {parent.identity}
    rows = [(s, parent._row(s)) for s in seed]
    frontier = list(members)
    while frontier:
        a = frontier.pop()
        for s, row in rows:
            prod = row[a]
            if prod is None:
                prod = parent.mult(s, a)
            if prod not in members:
                if limit is not None and len(members) >= limit:
                    return None
                members.add(prod)
                frontier.append(prod)
    return frozenset(members)


def _greedy_generators(parent, members, base=()) -> tuple[list[int], list[frozenset[int]]]:
    """Generators of the members' subgroup over ``base``, picked greedily.

    Each member not yet reached, in the given order, becomes the next
    generator q_i; returns the q_i and the subgroups <base, q_1..q_i>.
    """
    seed = list(base)
    reached = _closure_indices(parent, seed)
    picked, chain = [], []
    for x in members:
        if x not in reached:
            picked.append(x)
            seed.append(x)
            reached = _closure_indices(parent, seed)
            chain.append(reached)
    return picked, chain


def all_subgroups(g) -> list[Subgroup]:
    """Every subgroup exactly once, in canonical (order, indices) order.

    No verdict walks the lattice: it is the reference the tests check
    ``find_complement`` against. Groups above SUBGROUP_ENUMERATION_BOUND
    are refused.
    """
    parent, universe = g.parent, set(g.members)
    if len(universe) > SUBGROUP_ENUMERATION_BOUND:
        raise GroupTooLarge(
            f"subgroup enumeration bounded at order {SUBGROUP_ENUMERATION_BOUND}"
        )
    trivial = frozenset({parent.identity})
    found = {trivial}
    frontier = [trivial]
    while frontier:
        h = frontier.pop()
        for x in universe - h:
            grown = _closure_indices(parent, h | {x})
            if grown <= universe and grown not in found:
                found.add(grown)
                frontier.append(grown)
    subs = [Subgroup(parent, tuple(sorted(s))) for s in found]
    subs.sort(key=lambda s: (s.order, s.members))
    return subs


def stabilizer(g, x) -> Subgroup:
    """{gamma : gamma x = x} as a subgroup of the parent group."""
    return pointwise_stabilizer(g, single_point(x))


def pointwise_stabilizer(g, v: AffineSubspace) -> Subgroup:
    """{gamma : gamma fixes v pointwise}, i.e. v is inside Fix(gamma).

    The members are filtered point by point, v's base point and then each
    basis row, each test on the survivors of the last, in member order.
    """
    if v.ambient_dim != g.parent.ambient_dim:
        raise DimensionMismatch("matrix/vector shape mismatch")
    d, forms = g.parent.integer_forms
    kept = g.members
    for xs in int_points(v):  # the base point, then each basis row
        if any(xs):  # every element fixes the origin
            target = tuple([d * c for c in xs])
            kept = [i for i in kept if int_mat_vec(forms[i], xs) == target]
    return Subgroup(g.parent, tuple(kept))


def _require_normal(d: Subgroup, k: Subgroup) -> None:
    """Raise unless d and k share a parent group and k is normal in d."""
    if d.parent is not k.parent and d.parent != k.parent:
        raise NotSubgroup("subgroups live in different parent groups")
    if not k.is_subset_of(d):
        raise NotSubgroup("k is not contained in d")
    if not k.is_normal_in(d):
        raise NotNormal("k is not normal in d")


def quotient_group(d: Subgroup, k: Subgroup) -> "Fingerprint":
    """The fingerprint of d/k for k normal in d, read from the cosets of k
    in the parent; no coset table is built."""
    _require_normal(d, k)
    return _fingerprint(d, k)


@record
class NoComplementCertificate:
    """Every section of d -> d/k was tried without finding a complement of k.

    ``sections_checked`` counts the partial sections (c_1, ..., c_i) whose
    generated subgroup was closed, pruned ones included.
    """

    group_order: int
    kernel_order: int
    sections_checked: int


def find_complement(d: Subgroup, k: Subgroup):
    """First complement of k in d in canonical order, or a certificate.

    A complement c satisfies c & k = {e} and c k = d. It is searched among
    the sections of d -> d/k: with greedy coset generators q_1..q_r of d/k
    (in d's member order), each c_i ranges over the coset q_i k, and a
    prefix is dropped as soon as <c_1..c_i> grows past the order of
    <q_1..q_i>k / k. It maps onto that quotient, so staying within its
    order is the same as meeting k trivially. Every complement is <c>
    for exactly one full section (c_i is its element in q_i k), and all
    complements have one order, so the first in canonical (order,
    members) order is the least member tuple over every surviving full
    section; all of them are enumerated.

    When k is elementary abelian and this search grows too large, the
    complements are the solutions of a linear system over GF(p) on the
    cocycles d/k -> k (Holt, Eick & O'Brien, Handbook of Computational
    Group Theory, section 7.6); that method is not implemented here.

    The pair is refused as ``quotient_group`` refuses it: d and k from two
    parent groups, k not contained in d, or k not normal in d.
    """
    _require_normal(d, k)
    parent = d.parent
    if k.order == 1:
        return d
    if k.order == d.order:
        return Subgroup(parent, (parent.identity,))
    reps, chain = _greedy_generators(parent, d.members, k.generators)
    cosets = [[parent.mult(q, x) for x in k.members] for q in reps]
    bounds = [len(h) // k.order for h in chain]
    best = None
    checked = 0
    stack = [()]
    while stack:
        gens = stack.pop()
        i = len(gens)
        for c in cosets[i]:
            checked += 1
            grown = _closure_indices(parent, gens + (c,), bounds[i])
            if grown is None:
                continue
            if i + 1 < len(cosets):
                stack.append(gens + (c,))
            else:
                members = tuple(sorted(grown))
                best = members if best is None else min(best, members)
    if best is None:
        return NoComplementCertificate(d.order, k.order, checked)
    return Subgroup(parent, best)


@record
class Fingerprint:
    """Cheap isomorphism invariant: order, element-order multiset, abelian."""

    order: int
    element_orders: tuple[int, ...]
    abelian: bool

    def describe(self) -> str:
        kind = "abelian" if self.abelian else "nonabelian"
        return f"order {self.order}, element orders {list(self.element_orders)}, {kind}"


def _order_modulo(g: FiniteMatrixGroup, a: int, keys) -> int:
    """The least m > 0 with a^m in the subgroup of g whose column keys are
    ``keys``. The key of a^m is pi_a applied to the key of a^(m-1), so no
    product is formed."""
    p, key, m = g._perms[a], g._keys[a], 1
    while key not in keys:
        key, m = tuple(map(p.__getitem__, key)), m + 1
    return m


def _is_abelian(d, k: Subgroup | None = None) -> bool:
    """Is d/k abelian (d itself when k is None)? d/k is generated by the
    cosets of d's generators, so it is when every commutator of two
    generators lies in k."""
    g = d.parent
    if k is None:
        k = Subgroup(g, (g.identity,))
    pairs = ((g.mult(a, b), g.mult(b, a)) for a in d.generators for b in d.generators)
    return all(ab == ba or k.contains(g.mult(g.inv(ba), ab)) for ab, ba in pairs)


def _fingerprint(d, k: Subgroup) -> Fingerprint:
    """The fingerprint of d/k, for k normal in d, read from cosets in the
    parent. Each coset a k has |k| members, each with a k's order in d/k
    as its order modulo k; so the sorted orders of d/k are the sorted
    orders modulo k of d's members, keeping every |k|-th."""
    g = d.parent
    keys = {g._keys[x] for x in k.members}
    orders = sorted(_order_modulo(g, a, keys) for a in d.members)[::k.order]
    return Fingerprint(d.order // k.order, tuple(orders), _is_abelian(d, k))


def iso_fingerprint(g) -> Fingerprint:
    """The fingerprint of a matrix group or subgroup: g modulo {e}."""
    return _fingerprint(g, Subgroup(g.parent, (g.parent.identity,)))
