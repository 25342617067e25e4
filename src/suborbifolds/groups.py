"""Finite groups of invertible rational matrices.

Element order is canonical (lexicographic on matrix entries), so equal
groups have identical element lists and every reported witness is
reproducible. Groups, subgroups and quotients expose a uniform local
interface: ``order``, ``mult``, ``inv`` and ``identity`` on local
indices 0..order-1.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    GroupTooLarge,
    NonInvertibleGenerator,
    NotFiniteWithinBound,
    NotNormal,
    NotSubgroup,
)
from .linalg import (
    AffineSubspace,
    Mat,
    identity as identity_matrix,
    is_invertible,
    mat,
    mat_mul,
    mat_vec,
    rat,
    vec,
)

DEFAULT_MAX_ORDER = 10_000
SUBGROUP_ENUMERATION_BOUND = 512


@dataclass(frozen=True)
class GroupElement:
    matrix: Mat
    index: int


class FiniteMatrixGroup:
    """A finite group of invertible rational n x n matrices."""

    def __init__(self, matrices):
        matrices = sorted(set(matrices))
        if not matrices:
            raise ValueError("a group needs at least the identity matrix")
        # Dimension-0 charts (point candidates) get the one-element group.
        if matrices == [()]:
            self.ambient_dim = 0
            self.elements = [GroupElement((), 0)]
            self._index = {(): 0}
            self.cayley_table = ((0,),)
            self.identity = 0
            self._inverse = (0,)
            return
        self.ambient_dim = len(matrices[0])
        self.elements = [GroupElement(m, i) for i, m in enumerate(matrices)]
        self._index: dict[Mat, int] = {m: i for i, m in enumerate(matrices)}
        n = len(matrices)
        table = []
        for a in matrices:
            row = []
            for b in matrices:
                prod = mat_mul(a, b)
                if prod not in self._index:
                    raise ValueError("matrix set is not closed under products")
            table.append(tuple(self._index[mat_mul(a, b)] for b in matrices))
        self.cayley_table: tuple[tuple[int, ...], ...] = tuple(table)
        self.identity = self._index[identity_matrix(self.ambient_dim)]
        self._inverse = tuple(
            next(j for j in range(n) if self.cayley_table[i][j] == self.identity)
            for i in range(n)
        )

    @property
    def order(self) -> int:
        return len(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteMatrixGroup)
            and self.ambient_dim == other.ambient_dim
            and [e.matrix for e in self.elements] == [e.matrix for e in other.elements]
        )

    def __hash__(self):
        return hash(tuple(e.matrix for e in self.elements))

    def mult(self, i: int, j: int) -> int:
        return self.cayley_table[i][j]

    def inv(self, i: int) -> int:
        return self._inverse[i]

    def matrix_of(self, i: int) -> Mat:
        return self.elements[i].matrix

    def index_of(self, matrix: Mat) -> int:
        return self._index[matrix]

    def full_subgroup(self) -> "Subgroup":
        return Subgroup(self, tuple(range(self.order)))

    def subgroup_from_indices(self, indices) -> "Subgroup":
        members = tuple(sorted(set(indices)))
        sub = Subgroup(self, members)
        if not sub.is_closed():
            raise NotSubgroup("index set is not closed under the group operation")
        return sub

    def subgroup_from_matrices(self, matrices) -> "Subgroup":
        """Subgroup generated by the given matrices (closure is taken)."""
        seed = {self._index[mat(m)] for m in matrices}
        return self.subgroup_from_indices(_closure_indices(self, seed))

    def is_abelian(self) -> bool:
        t = self.cayley_table
        return all(
            t[i][j] == t[j][i]
            for i in range(self.order)
            for j in range(i + 1, self.order)
        )


@dataclass(frozen=True)
class Subgroup:
    """Subgroup of a FiniteMatrixGroup given by sorted parent indices."""

    parent: FiniteMatrixGroup
    members: tuple[int, ...]

    def __post_init__(self):
        if self.parent.identity not in self.members:
            raise NotSubgroup("subgroup must contain the identity")

    @property
    def order(self) -> int:
        return len(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def local(self, parent_index: int) -> int:
        return self.members.index(parent_index)

    def mult(self, i: int, j: int) -> int:
        return self.local(self.parent.mult(self.members[i], self.members[j]))

    def inv(self, i: int) -> int:
        return self.local(self.parent.inv(self.members[i]))

    @property
    def identity(self) -> int:
        return self.local(self.parent.identity)

    def matrix_of(self, i: int) -> Mat:
        return self.parent.matrix_of(self.members[i])

    def is_closed(self) -> bool:
        ms = set(self.members)
        return all(
            self.parent.mult(a, b) in ms for a in self.members for b in self.members
        ) and all(self.parent.inv(a) in ms for a in self.members)

    def contains(self, parent_index: int) -> bool:
        return parent_index in self.members

    def is_subset_of(self, other: "Subgroup") -> bool:
        return set(self.members) <= set(other.members)

    def is_normal_in(self, other: "Subgroup") -> bool:
        g = self.parent
        ms = set(self.members)
        for d in other.members:
            d_inv = g.inv(d)
            for k in self.members:
                if g.mult(g.mult(d, k), d_inv) not in ms:
                    return False
        return True

    def promote(self) -> FiniteMatrixGroup:
        """The subgroup as a standalone FiniteMatrixGroup."""
        return FiniteMatrixGroup([self.parent.matrix_of(i) for i in self.members])


@dataclass(frozen=True)
class AbstractGroup:
    """A group given only by its multiplication table.

    ``element_labels`` records provenance (e.g. which parent cosets).
    """

    order: int
    table: tuple[tuple[int, ...], ...]
    element_labels: tuple = ()

    @property
    def identity(self) -> int:
        return next(
            i
            for i in range(self.order)
            if all(self.table[i][j] == j for j in range(self.order))
        )

    def mult(self, i: int, j: int) -> int:
        return self.table[i][j]

    def inv(self, i: int) -> int:
        e = self.identity
        return next(j for j in range(self.order) if self.table[i][j] == e)


@dataclass(frozen=True)
class GroupHom:
    """Homomorphism between two groups with the local-index interface."""

    domain: object
    codomain: object
    image_of: tuple[int, ...]

    def __call__(self, i: int) -> int:
        return self.image_of[i]

    def is_homomorphism(self) -> bool:
        d, c = self.domain, self.codomain
        f = self.image_of
        return all(
            f[d.mult(a, b)] == c.mult(f[a], f[b])
            for a in range(d.order)
            for b in range(d.order)
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


def generate_group(generators, max_order: int = DEFAULT_MAX_ORDER) -> FiniteMatrixGroup:
    """Closure of the generators, with canonical ordering and Cayley table."""
    gens = [mat(g) for g in generators]
    if gens:
        n = len(gens[0])
        for g in gens:
            if len(g) != n or len(g[0]) != n:
                raise NonInvertibleGenerator("generators must be square, equal size")
            if not is_invertible(g):
                raise NonInvertibleGenerator(f"generator is singular: {g}")
    else:
        n = 1
    ident = identity_matrix(n)
    seen = {ident}
    frontier = [ident]
    while frontier:
        current = frontier.pop()
        for g in gens:
            prod = mat_mul(current, g)
            if prod not in seen:
                if len(seen) >= max_order:
                    raise NotFiniteWithinBound(max_order)
                seen.add(prod)
                frontier.append(prod)
    return FiniteMatrixGroup(seen)


def trivial_group(n: int) -> FiniteMatrixGroup:
    return FiniteMatrixGroup([identity_matrix(n)])


def _closure_indices(parent: FiniteMatrixGroup, seed) -> frozenset[int]:
    members = set(seed) | {parent.identity}
    frontier = list(members)
    while frontier:
        a = frontier.pop()
        for b in list(members):
            for prod in (parent.mult(a, b), parent.mult(b, a)):
                if prod not in members:
                    members.add(prod)
                    frontier.append(prod)
        inv = parent.inv(a)
        if inv not in members:
            members.add(inv)
            frontier.append(inv)
    return frozenset(members)


def all_subgroups(g) -> list[Subgroup]:
    """Every subgroup exactly once, in canonical (order, indices) order."""
    if isinstance(g, Subgroup):
        parent, universe = g.parent, set(g.members)
    else:
        parent, universe = g, set(range(g.order))
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


def _member_indices(g) -> tuple[FiniteMatrixGroup, list[int]]:
    if isinstance(g, Subgroup):
        return g.parent, list(g.members)
    return g, list(range(g.order))


def stabilizer(g, x) -> Subgroup:
    """{gamma : gamma x = x} as a subgroup of the parent group."""
    parent, members = _member_indices(g)
    x = vec(x)
    kept = [i for i in members if mat_vec(parent.matrix_of(i), x) == x]
    return Subgroup(parent, tuple(kept))


def pointwise_stabilizer(g, v: AffineSubspace) -> Subgroup:
    """{gamma : gamma fixes v pointwise}, i.e. v is inside Fix(gamma)."""
    parent, members = _member_indices(g)
    kept = []
    for i in members:
        m = parent.matrix_of(i)
        if mat_vec(m, v.base_point) == v.base_point and all(
            mat_vec(m, d) == d for d in v.basis
        ):
            kept.append(i)
    return Subgroup(parent, tuple(kept))


def quotient_group(d: Subgroup, k: Subgroup) -> tuple[AbstractGroup, GroupHom]:
    """Coset group d/k with canonical representatives and the projection."""
    if d.parent is not k.parent and d.parent != k.parent:
        raise NotSubgroup("subgroups live in different parent groups")
    if not k.is_subset_of(d):
        raise NotSubgroup("k is not contained in d")
    if not k.is_normal_in(d):
        raise NotNormal("k is not normal in d")
    g = d.parent
    coset_of: dict[int, frozenset[int]] = {}
    for a in d.members:
        coset_of[a] = frozenset(g.mult(a, ki) for ki in k.members)
    reps = sorted({min(c) for c in coset_of.values()})
    coset_index = {coset_of[r]: i for i, r in enumerate(reps)}
    table = tuple(
        tuple(coset_index[coset_of[g.mult(a, b)]] for b in reps) for a in reps
    )
    labels = tuple(tuple(sorted(coset_of[r])) for r in reps)
    quotient = AbstractGroup(len(reps), table, labels)
    projection = GroupHom(
        d, quotient, tuple(coset_index[coset_of[a]] for a in d.members)
    )
    return quotient, projection


@dataclass(frozen=True)
class NoComplementCertificate:
    """All subgroups of d were exhausted without finding a complement of k."""

    group_order: int
    kernel_order: int
    subgroups_checked: int


def find_complement(d: Subgroup, k: Subgroup):
    """First complement of k in d in canonical order, or a certificate.

    A complement c satisfies c & k = {e} and c k = d; its existence is
    equivalent to the projection d -> d/k having a homomorphic right
    inverse.
    """
    if not k.is_subset_of(d):
        raise NotSubgroup("k is not contained in d")
    if not k.is_normal_in(d):
        raise NotNormal("k is not normal in d")
    target = d.order // k.order
    identity = d.parent.identity
    kset = set(k.members)
    candidates = all_subgroups(d)
    for c in candidates:
        if c.order != target:
            continue
        if set(c.members) & kset == {identity}:
            return c
    return NoComplementCertificate(d.order, k.order, len(candidates))


@dataclass(frozen=True)
class Fingerprint:
    """Cheap isomorphism invariant: order, element-order multiset, abelian."""

    order: int
    element_orders: tuple[int, ...]
    abelian: bool

    def describe(self) -> str:
        kind = "abelian" if self.abelian else "nonabelian"
        return f"order {self.order}, element orders {list(self.element_orders)}, {kind}"


def element_order(g, i: int) -> int:
    e = g.identity
    order = 1
    current = i
    while current != e:
        current = g.mult(current, i)
        order += 1
    return order


def iso_fingerprint(g) -> Fingerprint:
    if isinstance(g, FiniteMatrixGroup):
        g = g.full_subgroup()
    n = g.order
    orders = tuple(sorted(element_order(g, i) for i in range(n)))
    abelian = all(
        g.mult(i, j) == g.mult(j, i) for i in range(n) for j in range(i + 1, n)
    )
    return Fingerprint(n, orders, abelian)


def are_isomorphic(a, b, max_order: int = 64) -> bool:
    """Exact isomorphism test by backtracking table matching (small orders)."""
    if isinstance(a, FiniteMatrixGroup):
        a = a.full_subgroup()
    if isinstance(b, FiniteMatrixGroup):
        b = b.full_subgroup()
    if a.order != b.order:
        return False
    if a.order > max_order:
        raise GroupTooLarge(f"exact isomorphism test limited to order {max_order}")
    if iso_fingerprint(a) != iso_fingerprint(b):
        return False
    n = a.order
    orders_a = [element_order(a, i) for i in range(n)]
    orders_b = [element_order(b, i) for i in range(n)]

    mapping: dict[int, int] = {a.identity: b.identity}
    used = {b.identity}

    def extend(i: int) -> bool:
        if i == n:
            return all(
                mapping[a.mult(x, y)] == b.mult(mapping[x], mapping[y])
                for x in range(n)
                for y in range(n)
            )
        if i in mapping:
            return extend(i + 1)
        for j in range(n):
            if j in used or orders_b[j] != orders_a[i]:
                continue
            snapshot = dict(mapping)
            used_snapshot = set(used)
            mapping[i] = j
            used.add(j)
            ok = True
            for x in list(mapping):
                for y in list(mapping):
                    prod = a.mult(x, y)
                    image = b.mult(mapping[x], mapping[y])
                    if prod in mapping:
                        if mapping[prod] != image:
                            ok = False
                    elif image in used:
                        ok = False
                    else:
                        mapping[prod] = image
                        used.add(image)
                    if not ok:
                        break
                if not ok:
                    break
            if ok and extend(i + 1):
                return True
            mapping.clear()
            mapping.update(snapshot)
            used.clear()
            used.update(used_snapshot)
        return False

    return extend(0)
