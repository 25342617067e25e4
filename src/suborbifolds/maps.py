"""Equivariant affine maps between chart models.

A map is a pair (affine lift, group homomorphism) with the exact
equivariance Theta(g) A = A g and Theta(g) b = b checked on the domain
group's generators. Transversality for affine data is a constant
condition on direction spaces, so the per-point quantifiers of the
smooth theory collapse.
"""
from __future__ import annotations

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
    EmptyPreimage,
    GroupTooLarge,
    NonInvariant,
    NotImmersion,
    NotInImage,
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
    stabilizer,
)
from .linalg import (
    AffineSubspace,
    Mat,
    Vec,
    affine_subspace,
    direction_sum_is_full,
    equations,
    int_mat_vec,
    int_matrix,
    int_vector,
    intersect,
    map_subspace,
    mat,
    mat_mul,
    mat_rank,
    mat_vec,
    point_in_dim,
    rat_str,
    solve_affine,
    sparse,
    vec,
    vec_add,
    vec_sub,
    whole_space,
    zero_vec,
)
from .records import record


@record
class EquivariantAffineMap:
    domain: ChartModel
    codomain: ChartModel
    linear: Mat
    offset: Vec
    theta: GroupHom

    def __post_init__(self):
        n1, n2 = self.domain.ambient_dim, self.codomain.ambient_dim
        if len(self.linear) != n2 or (self.linear and len(self.linear[0]) != n1):
            raise ChartMismatch("linear part has wrong shape")
        if len(self.offset) != n2:
            raise ChartMismatch("offset has wrong length")
        if self.theta.domain != self.domain.group or (
            self.theta.codomain != self.codomain.group
        ):
            raise ChartMismatch("theta does not connect the chart groups")
        if not self.theta.is_homomorphism():
            raise NonInvariant("theta is not a homomorphism")
        # On integers, for the columns g e_k = xs / den: with dense = dl L, lin
        # its sparse rows and theta(g) = t / d2, theta(g) L e_k = L g e_k reads
        # den t (dl L e_k) = d2 lin xs; theta(g) c = c reads t off = d2 off,
        # for off a positive multiple of c.
        _, dense = int_matrix(self.linear)
        lin, lin_columns = sparse(dense), list(zip(*dense))
        _, off = int_vector(self.offset)
        d2, images = self.codomain.group.integer_forms
        fixed_offset = tuple(d2 * c for c in off)
        domain = self.domain.group

        def failing_part(g):
            t = images[self.theta(g)]
            for (den, xs), column in zip(domain.columns(g), lin_columns):
                if ([den * y for y in int_mat_vec(t, column)]
                        != [d2 * y for y in int_mat_vec(lin, xs)]):
                    return "linear part"
            if int_mat_vec(t, off) != fixed_offset:
                return "offset"
            return None

        # theta is a homomorphism, so the elements that pass form a subgroup.
        g = first_failure(self.domain.group, failing_part)
        if g is not None:
            raise NonInvariant(f"equivariance fails on element {g} ({failing_part(g)})")

    def apply(self, x: Vec) -> Vec:
        return vec_add(mat_vec(self.linear, vec(x)), self.offset)

    def image_subspace(self) -> AffineSubspace:
        """Affine hull of the image."""
        cols = tuple(zip(*self.linear)) if self.linear else ()
        return affine_subspace(self.offset, cols)

    def preimage_subspace(self, v: AffineSubspace) -> AffineSubspace | None:
        """Solution set of f(x) in v."""
        c, d = equations(v)
        if not c:
            return whole_space(self.domain.ambient_dim)
        lhs = mat_mul(c, self.linear)
        rhs = vec_sub(d, mat_vec(c, self.offset))
        return solve_affine(lhs, rhs)


def identity_hom(group: FiniteMatrixGroup) -> GroupHom:
    return GroupHom(group, group, tuple(range(group.order)))


def trivial_hom(domain: FiniteMatrixGroup, codomain: FiniteMatrixGroup) -> GroupHom:
    return GroupHom(domain, codomain, (codomain.identity,) * domain.order)


def rank_at(f: EquivariantAffineMap) -> int:
    """Rank of the lift; the same at every point for affine maps."""
    return mat_rank(f.linear)


def is_immersion(f: EquivariantAffineMap) -> bool:
    return rank_at(f) == f.domain.ambient_dim


def is_submersion(f: EquivariantAffineMap) -> bool:
    return rank_at(f) == f.codomain.ambient_dim


def _block_diag(a: Mat, b: Mat) -> Mat:
    cols_a = len(a[0]) if a else 0
    cols_b = len(b[0]) if b else 0
    zero_right = (0,) * cols_b
    zero_left = (0,) * cols_a
    rows = [row + zero_right for row in a]
    rows += [zero_left + row for row in b]
    return mat(rows)


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
    gens = [(d1, forms1[a] + tuple(((n1 + i, d1),) for i in range(n2)))
            for a in c1.group.generators]
    gens += [(d2, tuple(((i, d2),) for i in range(n1))
              + tuple(tuple((n1 + j, x) for j, x in row) for row in forms2[b]))
             for b in c2.group.generators]
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
    base = zero_vec(n1) + f.apply(zero_vec(n1))
    basis = []
    for j in range(n1):
        e = tuple(1 if i == j else 0 for i in range(n1))
        e = vec(e)
        basis.append(e + tuple(mat_vec(f.linear, e)))
    v = affine_subspace(base, basis)
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
    if not f.theta.is_injective():
        raise NotInjectiveOnQuotient("theta is not injective")
    # Quotient-level injectivity. As f is injective, f(x) = g f(y) means
    # a = f(y) and g a lie in the hull, and x = g' y means g a = theta(g') a:
    # the hull must be saturated under theta(Gamma_1).
    gamma2 = f.codomain.group
    hull = SuborbifoldCandidate(
        f.codomain, gamma2.subgroup_from_indices(f.theta.image_of), f.image_subspace()
    )
    witness = check_saturated(hull).witness
    if witness is not None:
        i, point = witness.element.index, ", ".join(map(rat_str, witness.point))
        raise NotInjectiveOnQuotient(
            f"map identifies distinct orbits: codomain element {i} moves the "
            f"image point [{point}] within the image, and no theta(g) does",
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


def transverse_candidates(
    chart: ChartModel, a: SuborbifoldCandidate, b: SuborbifoldCandidate
) -> bool:
    if a.chart != chart or b.chart != chart:
        raise ChartMismatch("candidates do not share the chart")
    for cand in (a, b):
        if not check_full(cand).holds:
            raise CandidateNotFull("transversality is defined for full candidates")
    return intersect(a.v, b.v) is not None and direction_sum_is_full(a.v, b.v)


def intersect_full(
    a: SuborbifoldCandidate, b: SuborbifoldCandidate
) -> SuborbifoldCandidate:
    """Transverse intersection; dimension k1 + k2 - n is asserted exactly."""
    if not transverse_candidates(a.chart, a, b):
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
    try:
        result = SuborbifoldCandidate(f.domain, f.domain.group.full_subgroup(), pre)
    except NonInvariant:
        raise NonInvariant("preimage is not invariant under the domain group") from None
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
    linear = _block_diag(f1.linear, f2.linear)
    offset = f1.offset + f2.offset
    theta = trivial_hom(product.combined.group, double.combined.group)
    big_map = EquivariantAffineMap(product.combined, double.combined, linear,
                                   offset, theta)
    diag_base = zero_vec(2 * m)
    diag_basis = [
        vec(tuple(1 if i == j else 0 for i in range(m)))
        + vec(tuple(1 if i == j else 0 for i in range(m)))
        for j in range(m)
    ]
    diagonal = SuborbifoldCandidate(
        double.combined,
        double.combined.group.full_subgroup(),
        affine_subspace(diag_base, diag_basis),
    )
    result = preimage_suborbifold(big_map, diagonal)
    expected = f1.domain.ambient_dim + f2.domain.ambient_dim - m
    if result.v.dim != expected:
        raise AssertionError("fibered product dimension formula violated")
    return result


def regular_value_preimage(
    f: EquivariantAffineMap, q
) -> SuborbifoldCandidate:
    """Preimage of a regular value as a full candidate of dim n1 - n2."""
    q = point_in_dim(q, f.codomain.ambient_dim)
    if rank_at(f) != f.codomain.ambient_dim:
        raise RankDeficient("rank of the lift is below the codomain dimension")
    if solve_affine(f.linear, vec_sub(q, f.offset)) is None:
        raise NotInImage("value is not attained by the map")
    gamma2 = f.codomain.group
    stab = stabilizer(gamma2, q)
    if stab.order != gamma2.order:
        # Localize the codomain so its group is the isotropy of q.
        local_chart = localize_chart(f.codomain, q)
        if first_failure(f.domain.group,
                         lambda g: mat_vec(gamma2.matrix_of(f.theta(g)), q) != q) is not None:
            raise NotLocalized(
                "theta moves the regular value; localize the codomain chart"
            )
        theta = GroupHom(
            f.domain.group,
            local_chart.group,
            tuple(
                local_chart.group.index_of(gamma2.matrix_of(f.theta(g)))
                for g in range(f.domain.group.order)
            ),
        )
        f = EquivariantAffineMap(f.domain, local_chart, f.linear, f.offset, theta)
    point = SuborbifoldCandidate(
        f.codomain,
        f.codomain.group.full_subgroup(),
        affine_subspace(q, ()),
    )
    result = preimage_suborbifold(f, point)
    expected = f.domain.ambient_dim - f.codomain.ambient_dim
    if result.v.dim != expected:
        raise AssertionError("regular value dimension formula violated")
    return result


def compose(
    g: EquivariantAffineMap, f: EquivariantAffineMap
) -> EquivariantAffineMap:
    """g after f, with theta composed."""
    if f.codomain != g.domain:
        raise ChartMismatch("maps are not composable")
    linear = mat_mul(g.linear, f.linear)
    offset = vec_add(mat_vec(g.linear, f.offset), g.offset)
    theta = GroupHom(
        f.domain.group,
        g.codomain.group,
        tuple(g.theta(f.theta(i)) for i in range(f.domain.group.order)),
    )
    return EquivariantAffineMap(f.domain, g.codomain, linear, offset, theta)
