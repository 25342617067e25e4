"""Equivariant affine maps between chart models.

A map is a pair (affine lift, group homomorphism) with the exact
equivariance Theta(g) A = A g and Theta(g) b = b checked on the domain
group's generators. Transversality for affine data is a constant
condition on direction spaces, so the per-point quantifiers of the
smooth theory collapse.

The lift is held as integers, its linear part as (d, d A) in dense rows
and its offset as (e, e b) (``linalg.int_matrix``, ``linalg.int_vector``),
and every map operation computes on these rows.
"""
from __future__ import annotations

from math import gcd

from .classify import (
    ChartModel,
    SuborbifoldCandidate,
    _require_saturated,
    check_embedded,
    check_full,
    check_saturated,
    contained_in_regular_part,
    localize_chart,
)
from .errors import (
    ChartMismatch,
    CandidateNotFull,
    CodomainNotManifold,
    DimensionMismatch,
    EmptyPreimage,
    GroupTooLarge,
    NonInvariant,
    NotImmersion,
    NotInjectiveOnQuotient,
    NotLocalized,
    NotSubmersion,
    NotTransverse,
    NotTransverseToQ,
    RankDeficient,
)
from .groups import (
    DEFAULT_MAX_ORDER,
    FiniteMatrixGroup,
    GroupHom,
    first_failure,
    group_from_forms,
    pointwise_stabilizer,
)
from .linalg import (
    AffineSubspace,
    affine_subspace,
    block_form,
    direction_sum_is_full,
    equations,
    int_mat_vec,
    int_matrix,
    int_vector,
    intersect,
    lowest_terms,
    map_subspace,
    mat_mul,
    mat_rank,
    point_in_dim,
    point_str,
    single_point,
    solve_affine,
    sparse,
    whole_space,
)
from .records import record


@record
class EquivariantAffineMap:
    """x -> A x + b between chart models, with theta. A and b are read from
    ints, Fractions or "p/q" strings into the canonical integer forms of
    ``int_matrix`` and ``int_vector``, so equal maps compare equal."""

    domain: ChartModel
    codomain: ChartModel
    linear: tuple[int, tuple[tuple[int, ...], ...]]
    offset: tuple[int, tuple[int, ...]]
    theta: GroupHom

    def __init__(self, domain, codomain, linear, offset, theta):
        self._build(domain, codomain, int_matrix(linear), int_vector(offset), theta)

    def _build(self, domain, codomain, linear, offset, theta):
        """Store the fields, A and b as canonical integer forms, and check
        the shapes and the equivariance."""
        self.__dict__.update(domain=domain, codomain=codomain, linear=linear,
                             offset=offset, theta=theta)
        n1, n2 = domain.ambient_dim, codomain.ambient_dim
        dense, off = linear[1], offset[1]
        if len(dense) != n2 or (dense and len(dense[0]) != n1):
            raise ChartMismatch("linear part has wrong shape")
        if len(off) != n2:
            raise ChartMismatch("offset has wrong length")
        if theta.domain != domain.group or theta.codomain != codomain.group:
            raise ChartMismatch("theta does not connect the chart groups")
        if not theta.is_homomorphism():
            raise NonInvariant("theta is not a homomorphism")
        # On integers, for the columns g e_k = xs / den: with dense = dl A, lin
        # its sparse rows and theta(g) = t / d2, theta(g) A e_k = A g e_k reads
        # den t (dl A e_k) = d2 lin xs; theta(g) b = b reads t off = d2 off,
        # for off a positive multiple of b.
        lin, lin_columns = sparse(dense), list(zip(*dense))
        d2, images = codomain.group.integer_forms
        fixed_offset = tuple(d2 * c for c in off)

        def failing_part(g):
            t = images[theta(g)]
            for (den, xs), column in zip(domain.group.columns(g), lin_columns):
                if ([den * y for y in int_mat_vec(t, column)]
                        != [d2 * y for y in int_mat_vec(lin, xs)]):
                    return "linear part"
            if int_mat_vec(t, off) != fixed_offset:
                return "offset"
            return None

        # theta is a homomorphism, so the elements that pass form a subgroup.
        g = first_failure(domain.group, failing_part)
        if g is not None:
            raise NonInvariant(f"equivariance fails on element {g} ({failing_part(g)})")

    def image_subspace(self) -> AffineSubspace:
        """Affine hull of the image."""
        return map_subspace(self.linear, self.offset, whole_space(self.domain.ambient_dim))

    def preimage_subspace(self, v: AffineSubspace) -> AffineSubspace | None:
        """Solution set of f(x) in v.

        With v = {y : c y = e} (``equations``), A = L / d and b = o / e0,
        c (A x + b) = e reads e0 (c L) x = d (e0 e - c o).
        """
        d, rows = self.linear
        e0, off = self.offset
        if v.ambient_dim != len(rows):
            raise DimensionMismatch("matrix product shape mismatch")
        c, e = equations(v)
        if not c:
            return whole_space(self.domain.ambient_dim)
        lhs = [[e0 * x for x in row] for row in mat_mul(c, rows, self.domain.ambient_dim)]
        rhs = [d * (e0 * y - sum([x * o for x, o in zip(row, off)])) for row, y in zip(c, e)]
        return solve_affine(lhs, rhs)


def map_from_forms(domain, codomain, linear, offset, theta) -> EquivariantAffineMap:
    """The map whose linear part and offset are the integer forms (d, d A)
    and (e, e b) for any positive d and e, brought to lowest terms."""
    d, rows = linear
    c = gcd(d, *[x for row in rows for x in row])
    f = EquivariantAffineMap.__new__(EquivariantAffineMap)
    f._build(domain, codomain, (d // c, tuple(tuple([x // c for x in row]) for row in rows)),
             lowest_terms(*offset), theta)
    return f


def trivial_hom(domain: FiniteMatrixGroup, codomain: FiniteMatrixGroup) -> GroupHom:
    return GroupHom(domain, codomain, (codomain.identity,) * domain.order)


def rank_at(f: EquivariantAffineMap) -> int:
    """Rank of the lift; the same at every point for affine maps."""
    return mat_rank(f.linear[1])


def is_immersion(f: EquivariantAffineMap) -> bool:
    return rank_at(f) == f.domain.ambient_dim


def is_submersion(f: EquivariantAffineMap) -> bool:
    return rank_at(f) == f.codomain.ambient_dim


@record
class ProductChart:
    left: ChartModel
    right: ChartModel
    combined: ChartModel

    def pair_index(self, i: int, j: int) -> int:
        """The index of diag(a_i, b_j), looked up by its columns: a_i's
        columns padded with zeros, then b_j's shifted past them."""
        n1, n2 = self.left.ambient_dim, self.right.ambient_dim
        columns = [(den, xs + (0,) * n2) for den, xs in self.left.group.columns(i)]
        columns += [(den, (0,) * n1 + xs) for den, xs in self.right.group.columns(j)]
        index = self.combined.group.element_with_columns(columns)
        if index is None:
            raise AssertionError(f"the pair ({i}, {j}) is not in the product group")
        return index


def product_chart(c1: ChartModel, c2: ChartModel,
                  max_order: int = DEFAULT_MAX_ORDER) -> ProductChart:
    """The chart of the product group, generated by diag(a, I) and diag(I, b)
    for the factors' generators, built from the factors' integer forms."""
    order = c1.group.order * c2.group.order
    if order > max_order:
        raise GroupTooLarge(f"product group of order {order} exceeds max_order={max_order}")
    n1, n2 = c1.ambient_dim, c2.ambient_dim
    (d1, forms1), (d2, forms2) = c1.group.integer_forms, c2.group.integer_forms
    gens = [block_form((d1, forms1[a]), 0, n2) for a in c1.group.generators]
    gens += [block_form((d2, forms2[b]), n1, 0) for b in c2.group.generators]
    combined = ChartModel(group_from_forms(gens, max_order=max_order))
    return ProductChart(c1, c2, combined)


def graph_suborbifold(f: EquivariantAffineMap,
                      max_order: int = DEFAULT_MAX_ORDER) -> SuborbifoldCandidate:
    """Graph {(x, f(x))} with the graph of theta as its subgroup.

    Always saturated and embedded; full exactly when the affine hull of
    the image avoids every nontrivial fixed-point set of the codomain.
    The product group is refused before it is built when its order
    exceeds ``max_order``.
    """
    product = product_chart(f.domain, f.codomain, max_order)
    n1 = f.domain.ambient_dim
    # V is the image of the domain under x -> (x, A x + b).
    d, rows = f.linear
    e, off = f.offset
    lift = tuple(tuple([d * (i == j) for j in range(n1)]) for i in range(n1)) + rows
    v = map_subspace((d, lift), (e, (0,) * n1 + off), whole_space(n1))
    delta = product.combined.group.subgroup_from_indices(
        product.pair_index(g, f.theta(g)) for g in range(f.domain.group.order)
    )
    cand = SuborbifoldCandidate(product.combined, delta, v)
    if not cand.saturation.holds:
        raise AssertionError("graph candidate must be saturated")
    if not check_embedded(cand).holds:
        raise AssertionError("graph candidate must be embedded")
    regular = contained_in_regular_part(f.codomain, f.image_subspace())
    if check_full(cand).holds != regular:
        raise AssertionError("graph fullness disagrees with regular-part criterion")
    return cand


def image_suborbifold(
    f: EquivariantAffineMap, cand: SuborbifoldCandidate
) -> SuborbifoldCandidate:
    """Push a saturated candidate forward along an injective immersion."""
    if cand.chart != f.domain:
        raise ChartMismatch("candidate does not live in the map's domain chart")
    _require_saturated(cand)
    if not is_immersion(f):
        raise NotImmersion("linear part has rank below the domain dimension")
    # If theta(g) = e, equivariance gives A g = A, and A has full column
    # rank, so g = I: an immersion's theta is injective.
    if not f.theta.is_injective():
        raise AssertionError("an immersion's theta must be injective")
    # Quotient-level injectivity. As f is injective, f(x) = g f(y) means
    # a = f(y) and g a lie in the hull, and x = g' y means g a = theta(g') a:
    # the hull must be saturated under theta(Gamma_1).
    gamma2 = f.codomain.group
    hull = SuborbifoldCandidate(
        f.codomain, gamma2.subgroup_from_indices(f.theta.image_of), f.image_subspace()
    )
    witness = check_saturated(hull).witness
    if witness is not None:
        raise NotInjectiveOnQuotient(
            f"map identifies distinct orbits: codomain element {witness.element.index} "
            f"moves the image point {point_str(witness.point)} within the image, "
            "and no theta(g) does",
            element=witness.element, point=witness.point)
    image_delta = gamma2.subgroup_from_indices(
        f.theta(i) for i in cand.delta.members
    )
    image_v = map_subspace(f.linear, f.offset, cand.v)
    result = SuborbifoldCandidate(f.codomain, image_delta, image_v)
    if not result.saturation.holds:
        raise AssertionError("image candidate must be saturated")
    if check_embedded(cand).holds and not check_embedded(result).holds:
        raise AssertionError("image must preserve the embedded verdict")
    return result


def transverse_candidates(a: SuborbifoldCandidate, b: SuborbifoldCandidate) -> bool:
    if a.chart != b.chart:
        raise ChartMismatch("candidates do not share the chart")
    for cand in (a, b):
        if not check_full(cand).holds:
            raise CandidateNotFull("transversality is defined for full candidates")
    return intersect(a.v, b.v) is not None and direction_sum_is_full(a.v, b.v)


def intersect_full(
    a: SuborbifoldCandidate, b: SuborbifoldCandidate
) -> SuborbifoldCandidate:
    """Transverse intersection; dimension k1 + k2 - n is asserted exactly."""
    if not transverse_candidates(a, b):
        raise NotTransverse("candidates are not transverse")
    delta = a.chart.group.subgroup_from_indices(
        set(a.delta.members) & set(b.delta.members)
    )
    meet = intersect(a.v, b.v)
    result = SuborbifoldCandidate(a.chart, delta, meet)
    expected = a.v.dim + b.v.dim - a.chart.ambient_dim
    if meet.dim != expected:
        raise AssertionError("transverse intersection dimension formula violated")
    if not check_full(result).holds:
        raise AssertionError("transverse intersection must be full")
    return result


def _require_localized(f: EquivariantAffineMap, q: SuborbifoldCandidate) -> None:
    """Codomain group must be the isotropy along the certified part of q.v."""
    gamma2 = f.codomain.group
    if q.delta.order != gamma2.order:
        raise NotLocalized(
            "preimage requires the target candidate to use the whole chart group"
        )
    certified = intersect(f.image_subspace(), q.v)
    if certified is None:
        return
    if pointwise_stabilizer(gamma2, certified).order != gamma2.order:
        raise NotLocalized(
            "chart group is larger than the isotropy along the target; "
            "re-center with localize_chart"
        )


def preimage_suborbifold(
    f: EquivariantAffineMap, q: SuborbifoldCandidate
) -> SuborbifoldCandidate:
    """Preimage of a full candidate under a transverse map."""
    if q.chart != f.codomain:
        raise ChartMismatch("target candidate does not live in the codomain chart")
    if not check_full(q).holds:
        raise CandidateNotFull("preimage requires a full target candidate")
    _require_localized(f, q)
    pre = f.preimage_subspace(q.v)
    if pre is None:
        raise EmptyPreimage("the preimage is empty")
    if not direction_sum_is_full(f.image_subspace(), q.v):
        raise NotTransverseToQ("map is not transverse to the target subspace")
    # q uses all of Gamma_2 (_require_localized), so q.V is Gamma_2-invariant,
    # and f(g x) = theta(g) f(x) makes the preimage Gamma_1-invariant.
    try:
        result = SuborbifoldCandidate(f.domain, f.domain.group.full_subgroup(), pre)
    except NonInvariant:
        raise AssertionError("the preimage of an invariant subspace must be invariant") from None
    expected = f.domain.ambient_dim - (f.codomain.ambient_dim - q.v.dim)
    if pre.dim != expected:
        raise AssertionError("preimage dimension formula violated")
    if not check_full(result).holds:
        raise AssertionError("preimage candidate must be full")
    return result


def fibered_product(
    f1: EquivariantAffineMap, f2: EquivariantAffineMap, max_order: int = DEFAULT_MAX_ORDER
) -> SuborbifoldCandidate:
    """Fibered product of two submersions into the same manifold chart.

    The product of the domain groups is refused before it is built when
    its order exceeds ``max_order``.
    """
    if f1.codomain != f2.codomain:
        raise ChartMismatch("submersions must share the codomain")
    m_chart = f1.codomain
    if m_chart.group.order != 1:
        raise CodomainNotManifold("fibered products require a trivial-group codomain")
    for f in (f1, f2):
        if not is_submersion(f):
            raise NotSubmersion("both maps must be submersions")
    product = product_chart(f1.domain, f2.domain, max_order)
    m = m_chart.ambient_dim
    double = product_chart(m_chart, m_chart, max_order)
    # diag(A1, A2) over d1 d2 and (b1, b2) over e1 e2.
    (d1, a1), (d2, a2) = f1.linear, f2.linear
    (e1, o1), (e2, o2) = f1.offset, f2.offset
    n1, n2 = f1.domain.ambient_dim, f2.domain.ambient_dim
    linear = (d1 * d2, tuple([tuple([x * d2 for x in row]) + (0,) * n2 for row in a1]
                             + [(0,) * n1 + tuple([x * d1 for x in row]) for row in a2]))
    offset = (e1 * e2, tuple([x * e2 for x in o1] + [x * e1 for x in o2]))
    theta = trivial_hom(product.combined.group, double.combined.group)
    big_map = map_from_forms(product.combined, double.combined, linear, offset, theta)
    diag_basis = [[int(i == j) for i in range(m)] * 2 for j in range(m)]
    diagonal = SuborbifoldCandidate(
        double.combined,
        double.combined.group.full_subgroup(),
        affine_subspace([0] * (2 * m), diag_basis),
    )
    result = preimage_suborbifold(big_map, diagonal)
    if result.v.dim != n1 + n2 - m:
        raise AssertionError("fibered product dimension formula violated")
    return result


def regular_value_preimage(
    f: EquivariantAffineMap, q
) -> SuborbifoldCandidate:
    """Preimage of a regular value as a full candidate of dim n1 - n2."""
    q = point_in_dim(q, f.codomain.ambient_dim)
    # A lift of full rank onto the codomain attains every value, so q's
    # preimage is solved once, in preimage_suborbifold.
    if rank_at(f) != f.codomain.ambient_dim:
        raise RankDeficient("rank of the lift is below the codomain dimension")
    local = localize_chart(f.codomain, q)
    if local is not f.codomain:
        # theta(g) must fix q, so it is found in the localized group by its
        # columns, and None means theta moves q.
        gamma2 = f.codomain.group
        theta = tuple([local.group.element_with_columns(gamma2.columns(f.theta(g)))
                       for g in range(f.domain.group.order)])
        if None in theta:
            raise NotLocalized(
                "theta moves the regular value; localize the codomain chart"
            )
        f = map_from_forms(f.domain, local, f.linear, f.offset,
                           GroupHom(f.domain.group, local.group, theta))
    point = SuborbifoldCandidate(f.codomain, f.codomain.group.full_subgroup(), single_point(q))
    result = preimage_suborbifold(f, point)
    expected = f.domain.ambient_dim - f.codomain.ambient_dim
    if result.v.dim != expected:
        raise AssertionError("regular value dimension formula violated")
    return result
