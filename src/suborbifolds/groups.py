"""Finite groups of invertible rational matrices.

Element order is canonical (lexicographic on matrix entries), so equal
groups have identical element lists and every reported witness is
reproducible. Every group here answers one interface on local indices
0..order-1: ``order``, ``mult``, ``inv`` and ``identity``. Matrix groups
and their subgroups also expose ``parent`` (the matrix group the indices
refer to; a matrix group is its own parent), ``members`` (the parent
indices of the elements, in local order) and ``matrices`` (the member
matrices in the same order), so no caller needs to tell them apart.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
    images,
    is_invertible,
    mat,
    mat_mul,
    mat_vec,
    rat,
    rat_str,
    vec,
)

DEFAULT_MAX_ORDER = 10_000
SUBGROUP_ENUMERATION_BOUND = 512


def _identity_and_inverses(table) -> tuple[int, tuple[int, ...]]:
    """The identity (the element whose row is 0..n-1) and every inverse."""
    identity = table.index(tuple(range(len(table))))
    return identity, tuple(row.index(identity) for row in table)


def _is_abelian(g) -> bool:
    return all(
        g.mult(i, j) == g.mult(j, i) for i in range(g.order) for j in range(i + 1, g.order)
    )


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
        self.ambient_dim = len(matrices[0])
        self.elements = [GroupElement(m, i) for i, m in enumerate(matrices)]
        self.matrices: tuple[Mat, ...] = tuple(matrices)
        self.members = tuple(range(len(matrices)))
        self._index: dict[Mat, int] = {m: i for i, m in enumerate(matrices)}
        try:
            self.cayley_table: tuple[tuple[int, ...], ...] = tuple(
                tuple(self._index[mat_mul(a, b)] for b in matrices) for a in matrices
            )
        except KeyError:
            raise ValueError("matrix set is not closed under products") from None
        self.identity, self._inverse = _identity_and_inverses(self.cayley_table)
        if matrices[self.identity] != identity_matrix(self.ambient_dim):
            raise ValueError("matrix set is not a group of invertible matrices")

    @property
    def parent(self) -> "FiniteMatrixGroup":
        return self

    @property
    def order(self) -> int:
        return len(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __eq__(self, other) -> bool:
        return other.__class__ is self.__class__ and self.matrices == other.matrices

    def __hash__(self):
        return hash(self.matrices)

    def mult(self, i: int, j: int) -> int:
        return self.cayley_table[i][j]

    def inv(self, i: int) -> int:
        return self._inverse[i]

    def matrix_of(self, i: int) -> Mat:
        return self.matrices[i]

    def index_of(self, matrix: Mat) -> int:
        return self._index[matrix]

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
        return self.subgroup_from_indices(_closure_indices(self, indices))

    def subgroup_from_matrices(self, matrices) -> "Subgroup":
        """Subgroup generated by the given matrices (closure is taken)."""
        indices = []
        for m in map(mat, matrices):
            if m not in self._index:
                rows = ", ".join("[" + ", ".join(map(rat_str, row)) + "]" for row in m)
                raise NotSubgroup(f"matrix [{rows}] is not in the group")
            indices.append(self._index[m])
        return self.subgroup_generated_by(indices)

    def is_abelian(self) -> bool:
        return _is_abelian(self)


@dataclass(frozen=True)
class Subgroup:
    """Subgroup of a FiniteMatrixGroup given by sorted parent indices."""

    parent: FiniteMatrixGroup
    members: tuple[int, ...]

    def __post_init__(self):
        local = {p: i for i, p in enumerate(self.members)}
        if self.parent.identity not in local:
            raise NotSubgroup("subgroup must contain the identity")
        object.__setattr__(self, "_local", local)

    @property
    def order(self) -> int:
        return len(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def mult(self, i: int, j: int) -> int:
        return self._local[self.parent.mult(self.members[i], self.members[j])]

    def inv(self, i: int) -> int:
        return self._local[self.parent.inv(self.members[i])]

    @property
    def identity(self) -> int:
        return self._local[self.parent.identity]

    @cached_property
    def matrices(self) -> tuple[Mat, ...]:
        return tuple(self.parent.matrices[i] for i in self.members)

    def matrix_of(self, i: int) -> Mat:
        return self.parent.matrices[self.members[i]]

    def is_closed(self) -> bool:
        ms = self._local
        return all(
            self.parent.mult(a, b) in ms for a in self.members for b in self.members
        ) and all(self.parent.inv(a) in ms for a in self.members)

    def contains(self, parent_index: int) -> bool:
        return parent_index in self._local

    def is_subset_of(self, other: "Subgroup") -> bool:
        return set(self.members) <= set(other.members)

    def is_normal_in(self, other: "Subgroup") -> bool:
        g = self.parent
        for d in other.members:
            d_inv = g.inv(d)
            for k in self.members:
                if g.mult(g.mult(d, k), d_inv) not in self._local:
                    return False
        return True

    def promote(self) -> FiniteMatrixGroup:
        """The subgroup as a standalone FiniteMatrixGroup."""
        return FiniteMatrixGroup(self.matrices)


@dataclass(frozen=True)
class AbstractGroup:
    """A group given only by its multiplication table.

    ``element_labels`` records provenance (e.g. which parent cosets).
    """

    table: tuple[tuple[int, ...], ...]
    element_labels: tuple = ()

    def __post_init__(self):
        identity, inverse = _identity_and_inverses(self.table)
        object.__setattr__(self, "identity", identity)
        object.__setattr__(self, "_inverse", inverse)

    @property
    def order(self) -> int:
        return len(self.table)

    def mult(self, i: int, j: int) -> int:
        return self.table[i][j]

    def inv(self, i: int) -> int:
        return self._inverse[i]


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
    """The seed closed under right multiplication by the seed elements.

    In a finite group the products of a set already form the subgroup it
    generates, so no inverses need to be taken.
    """
    seed = set(seed)
    members = seed | {parent.identity}
    frontier = list(members)
    while frontier:
        a = frontier.pop()
        for s in seed:
            prod = parent.mult(a, s)
            if prod not in members:
                members.add(prod)
                frontier.append(prod)
    return frozenset(members)


def all_subgroups(g) -> list[Subgroup]:
    """Every subgroup exactly once, in canonical (order, indices) order."""
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
    x = vec(x)
    kept = [i for i, m in zip(g.members, g.matrices) if mat_vec(m, x) == x]
    return Subgroup(g.parent, tuple(kept))


def pointwise_stabilizer(g, v: AffineSubspace) -> Subgroup:
    """{gamma : gamma fixes v pointwise}, i.e. v is inside Fix(gamma)."""
    points = (v.base_point,) + v.basis
    kept = [i for i, m in zip(g.members, g.matrices) if images(m, v) == points]
    return Subgroup(g.parent, tuple(kept))


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
    quotient = AbstractGroup(table, labels)
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
    orders = tuple(sorted(element_order(g, i) for i in range(g.order)))
    return Fingerprint(g.order, orders, _is_abelian(g))


def are_isomorphic(a, b, max_order: int = 64) -> bool:
    """Exact isomorphism test by backtracking table matching (small orders)."""
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
