"""Classification of affine suborbifold candidates in a single chart.

A candidate is a chart (R^n with a finite rational matrix group), a
subgroup and an invariant affine subspace. The three verdicts are:

* saturated: ambient-orbit traces on the subspace equal subgroup orbits;
* full: no group element outside the subgroup fixes a point of it;
* embedded: some subgroup realizes the subspace with an effective action
  (equivalently, the kernel of the action splits off).

Saturation is decided exactly by a single-element covering argument: the
pointwise condition "for every x there is h with hx = gx" collapses to
"one h works for all x" because an affine space over Q is never a finite
union of proper affine subspaces. This is the one place the engine
strengthens a pointwise condition; ``check_saturated`` is its one
implementation, and "h agrees with g on W" compares the images of W's
base point and basis, as integer vectors under the group's integer
forms, so no Fraction is built or hashed per element of Delta or of
Gamma. Its work follows the orbit of V rather than
|Gamma| * |Delta|. W_g = V & g^-1 V depends only on the coset Stab(V) g:
g^-1 V is reached through the Schreier tree of the group's generators,
and W_g is solved once per distinct g^-1 V by pulling V's equations
back through g (x is in g^-1 V exactly when g x satisfies them) and
solving them in V's own k coordinates (``linalg.meet``). This part
depends on the chart group and V alone, so it is kept on the group
(``OrbitOfV.of``) for the ``ORBITS_OF_V_KEPT`` most recently used V, and
candidates with the same group and V share it whatever their Delta: the
replay of the complement, the stabilizer of V that ``search_all_delta``
reads off it and later calls. The Delta-invariance test a candidate runs
when it is built reads g V from the same store (``_first_moving_element``),
so each image of V is computed once per chart group while V is kept. With each W_g the store
keeps a label of each element's images of W_g's points, found on first
use (equal images, equal labels), so a candidate only gathers Delta's
labels into one set per W_g.
The verdict is constant on each coset Delta g, as V is
Delta-invariant: W_hg = V & g^-1 h^-1 V = W_g, and if h' covers g then
h h' covers h g. So the scan tests one g per coset, the first in index
order, and marks the whole coset decided; the first uncovered g, and so
the witness, are those of the scan over every element. Witnesses for
failures are found by bounded deterministic rational sampling and always
replay: a saturation witness is the first point of
``linalg.sample_points(W_g)`` whose image under g no element of Delta
matches, so that order fixes its bytes. The samples are integer forms,
and only the witness is built as Fractions.

Fullness reads the same store: a point of V that g fixes lies in W_g, so
an element whose W_g is empty is skipped, and Fix(g) & V is solved on
W_g, once per W_g and image of W_g's points (elements with equal images
act alike on W_g). Every element is still scanned, in index order (fixing
a point of V is not constant on a coset Delta g), and the canonical form
of the fixed set is unique, so the witness is the one a solve on V for
every element would give.

The induced chart restricts only Delta's generators (``restricted_matrix``)
and the centroid is tested on them alone: what the generators fix, Delta
fixes. Restriction to V is a homomorphism, so each member's image is read
off a walk of Delta from the identity, x = s y giving f(x) = f(s) f(y),
one product in the induced group per member. ``_check_restriction`` then
tests the homomorphism law on every (generator, member) pair, that the map
is onto and that its kernel is the independently computed pointwise
stabilizer. Points of the induced chart are coordinates in V's canonical
basis about its centroid; the chart keeps V and reads points both ways on
V's integer form (``linalg.contains_point``, ``linalg.point_at``).
"""
from __future__ import annotations

from array import array
from functools import cached_property
from itertools import islice
from weakref import proxy

from .errors import (
    CandidateNotSaturated,
    ChartMismatch,
    GroupNotAbelian,
    NonInvariant,
    PointNotInV,
)
from .groups import (
    Fingerprint,
    FiniteMatrixGroup,
    GroupElement,
    GroupHom,
    NoComplementCertificate,
    Subgroup,
    find_complement,
    first_failure,
    group_from_forms,
    iso_fingerprint,
    pointwise_stabilizer,
    quotient_group,
    stabilizer,
)
from .linalg import (
    AffineSubspace,
    Vec,
    contains_point,
    equations,
    fixed_points,
    form_of_columns,
    fraction_point,
    identity_form,
    int_images,
    int_mat_vec,
    int_points,
    int_vector,
    lowest_terms,
    meet,
    point_at,
    point_in_dim,
    point_str,
    pull_back,
    restricted_matrix,
    sample_points,
    scaled,
    transform_subspace,
    vec,
)
from .records import record, set_field


@record
class ChartModel:
    """One orbifold chart: R^n with a finite rational matrix group."""

    group: FiniteMatrixGroup

    @property
    def ambient_dim(self) -> int:
        return self.group.ambient_dim


def chart_from_group(group: FiniteMatrixGroup) -> ChartModel:
    return ChartModel(group)


def localize_chart(chart: ChartModel, x0) -> ChartModel:
    """Chart re-centered at x0: group becomes the stabilizer of x0.

    Conjugating a linear map fixing x0 by the translation to x0 leaves
    its matrix unchanged, so only the group shrinks.
    """
    stab = stabilizer(chart.group, vec(x0))
    return ChartModel(stab.promote())


def _first_moving_element(sub, v: AffineSubspace):
    """First element of the group that does not map v onto itself, or None;
    g V is read from the parent group's ``OrbitOfV`` for v."""
    orbit = OrbitOfV.of(sub.parent, v)
    return first_failure(sub, lambda i: orbit.image(i) != v)


@record
class SuborbifoldCandidate:
    """Subgroup of a chart group plus an affine subspace it leaves invariant.

    The candidate is immutable, so its saturation verdict, the kernel of
    its action and its induced chart are computed at most once, on first
    use. The V-only part of saturation (``orbit_of_v``) is kept on the
    chart group instead, for the ``ORBITS_OF_V_KEPT`` most recently used
    V, so candidates with the same group and V share it whatever their
    Delta. The invariance test on construction reads g V from it too, so
    building a candidate enters V in the store.
    """

    chart: ChartModel
    delta: Subgroup
    v: AffineSubspace

    def __init__(self, chart, delta, v):
        set_field(self, "chart", chart)
        set_field(self, "delta", delta)
        set_field(self, "v", v)
        self.__post_init__()

    def __post_init__(self):
        if self.delta.parent != self.chart.group:
            raise ChartMismatch("subgroup does not live in the chart group")
        if self.v.ambient_dim != self.chart.ambient_dim:
            raise ChartMismatch("subspace ambient dimension differs from chart")
        moving = _first_moving_element(self.delta, self.v)
        if moving is not None:
            raise NonInvariant(
                f"subspace is not invariant under subgroup element {moving}"
            )

    @cached_property
    def saturation(self) -> Verdict:
        return check_saturated(self)

    @property
    def orbit_of_v(self) -> OrbitOfV:
        """The orbit of V and the meets W_g, from the chart group's store."""
        return OrbitOfV.of(self.chart.group, self.v)

    @cached_property
    def kernel(self) -> Subgroup:
        """Elements of the subgroup that fix the subspace pointwise."""
        return pointwise_stabilizer(self.delta, self.v)

    @cached_property
    def induced(self) -> InducedChart:
        """The chart induced on the subspace (see ``induced_chart``)."""
        return induced_chart(self)


@record
class Witness:
    """Why a verdict fails: for saturation, g = ``element`` maps ``point``
    into V and no element of Delta matches it; for fullness, g lies outside
    Delta and fixes ``point``."""

    element: GroupElement
    point: Vec

    def describe(self) -> str:
        return f"element {self.element.index} at {point_str(self.point)}"


@record
class Verdict:
    holds: bool
    witness: object = None

    def __init__(self, holds, witness=None):
        set_field(self, "holds", holds)
        set_field(self, "witness", witness)


def _witness_point(w_g: AffineSubspace, group, delta: Subgroup, g_index: int) -> Vec:
    """Point of w_g moved into the subspace by g but by no subgroup element.

    For uncovered g each {x in w_g : hx = gx} is a proper affine subspace,
    so the |delta| of them miss one of the (2r+1)^k sample points of
    radius <= r once 2r+1 > |delta| (k = dim w_g). The samples are walked
    once, in ``sample_points`` order, as integer forms; only the point
    returned is built as Fractions. When the first 8 miss, whether some h
    agrees with g on all of w_g is decided exactly, so a covered g fails at
    once instead of after the whole cube.
    """
    _, forms = group.integer_forms

    def unmatched(xs) -> bool:
        gx = int_mat_vec(forms[g_index], xs)
        return all(int_mat_vec(forms[h], xs) != gx for h in delta.members)

    limit = (2 * ((delta.order + 1) // 2) + 1) ** w_g.dim
    samples = islice(sample_points(w_g), limit)
    for den, xs in islice(samples, 8):
        if unmatched(xs):
            return fraction_point(den, xs)
    if any(_agrees_on(group, h, g_index, w_g) for h in delta.members):
        raise AssertionError(f"element {g_index} is covered on W_g: no saturation witness")
    for den, xs in samples:
        if unmatched(xs):
            return fraction_point(den, xs)
    raise AssertionError(f"no saturation witness for element {g_index}")


def _agrees_on(group, h: int, g: int, w: AffineSubspace) -> bool:
    """Does h x = g x hold for every x in w? (Solved, not compared on images:
    h^-1 g must fix w pointwise, ``fixed_points`` on its integer form.)"""
    d, forms = group.integer_forms
    return fixed_points((d, forms[group.mult(group.inv(h), g)]), w) == w


def check_saturated(cand: SuborbifoldCandidate) -> Verdict:
    """Is the subspace a Delta-submanifold of the Gamma-space?

    The elements of Gamma are scanned in index order, and the first g that
    no h in Delta covers on W_g = V & g^-1 V is the witness. Elements of
    Delta are covered by themselves and skipped, so when Delta is the whole
    group the verdict holds without solving any W_g. The verdict is the
    same for every element of the coset Delta g (see the module
    docstring), so once g is decided its coset, read off the permutations
    (``coset``), is skipped. W_g depends on V alone: the chart group's
    ``OrbitOfV`` for V reads g^-1 V off the Schreier tree, solves W_g once
    per distinct g^-1 V in V's own coordinates and labels each element's
    images of W_g's points once asked, for the ``ORBITS_OF_V_KEPT`` most
    recently used V, so candidates with the same group and V share that
    work whatever their Delta. Only the set of Delta's labels is gathered
    here, once per distinct W_g, and each coset costs one label, one set
    lookup and |Delta| gathers.
    """
    group = cand.chart.group
    delta = cand.delta
    if delta.order == group.order:  # every g is in Delta
        return Verdict(True)
    orbit = cand.orbit_of_v
    image_on = orbit.image_on
    covers: dict = {}  # W_g -> {label of h's images of W_g's points : h in Delta}
    decided = bytearray(group.order)
    for h in delta.members:
        decided[h] = 1
    for g in range(group.order):
        if decided[g]:
            continue
        entry = orbit.w_g(g)
        if entry is not None:
            w_g = entry[0]
            covered = covers.get(w_g)
            if covered is None:
                covered = covers[w_g] = {image_on(entry, h) for h in delta.members}
            if image_on(entry, g) not in covered:
                point = _witness_point(w_g, group, delta, g)
                return Verdict(False, Witness(group.element(g), point))
        for x in group.coset(delta.members, g):
            decided[x] = 1
    return Verdict(True)


# How many subspaces a chart group keeps the OrbitOfV of. On 20 passes of
# the ladder benchmark at seed 1 (B2, B3 and B3 x Z2 charts; 940 queries on
# 155 distinct subspaces) bounds of 4, 8, 16, 32 and 64 build 336, 228, 176,
# 159 and 155 of them. At 32 the 96 stores kept hold 1334 KB (13.9 KB each,
# by tracemalloc, Python 3.11.7), against 1849 KB (19.3 KB each) when each
# W_g set aside a slot per element.
ORBITS_OF_V_KEPT = 32


class OrbitOfV:
    """The part of saturation that depends only on the chart group and V.

    ``of(group, v)`` is the group's OrbitOfV for v: the group keeps the
    ``ORBITS_OF_V_KEPT`` most recently used and drops the least recently
    used, so candidates on one group and one V share it whatever their
    Delta, and a dropped V is built again when next asked for.

    ``image(x)`` is x V, which is s (y V) for x's Schreier-tree entry
    (s, y). Each distinct x V is kept once, in the order reached; an
    element keeps only the position of its x V, and each generator is
    applied to each of them at most once, so later lookups compare
    positions rather than integer forms. ``w_g(g)`` is the entry of
    W_g = V & g^-1 V, or None when it is empty: x is in g^-1 V exactly
    when (c (d g)) x = d e, for V's equations c x = e and the group's
    integer form d g, so W_g is that system solved on V (``linalg.meet``),
    once per distinct g^-1 V, and equal W_g share one entry.
    ``image_on(entry, h)`` labels h's ``int_images`` on W_g's points, found
    the first time it is asked: the entry keeps each distinct tuple of
    images once and a small-int label per element asked, so equal labels
    mean equal images. Nothing is set aside per element for a W_g, so a
    kept V costs memory in proportion to the orbit walked, the W_g solved
    and the images asked.
    """

    __slots__ = ("_group", "_d", "_forms", "_v", "_equations", "_orbit", "_position",
                 "_at", "_moves", "_w", "_entries")

    @classmethod
    def of(cls, group: FiniteMatrixGroup, v: AffineSubspace) -> OrbitOfV:
        store = group.orbits_of_v
        orbit = store.pop(v, None)
        if orbit is None:
            orbit = cls(group, v)
            if len(store) >= ORBITS_OF_V_KEPT:
                del store[next(iter(store))]
        store[v] = orbit
        return orbit

    def __init__(self, group: FiniteMatrixGroup, v: AffineSubspace):
        # The group's store holds this object, so it refers back weakly: a
        # group no longer in use is freed at once, not by the cycle collector.
        self._group = proxy(group)
        self._d, self._forms = group.integer_forms
        self._v = v
        self._equations = equations(v)
        self._orbit = [v]  # the distinct x V, in the order reached
        self._position = {v: 0}  # each of them -> its position in _orbit
        self._at = array("i", [-1]) * group.order  # x -> position of x V, or -1
        self._at[group.identity] = 0
        # p k + j -> position of s_j (x V), for x V at p and the k generators s_j
        self._moves = array("i", [-1]) * len(group.generators)
        self._w: dict = {}  # position of g^-1 V -> the entry of W_g, or None
        # W_g -> its entry, one per distinct W_g, so that a label means the
        # same images wherever W_g is met (check_full keys on (W_g, label))
        self._entries: dict = {}

    def image(self, x: int) -> AffineSubspace:
        p = self._at[x]
        return self._orbit[p if p >= 0 else self._place(x)]

    def _place(self, x: int) -> int:
        """Position of x V in ``_orbit``, for x not yet placed: x's
        Schreier-tree path is walked down to the first element placed."""
        at, tree, path = self._at, self._group.schreier_tree, []
        while at[x] < 0:
            path.append(x)
            x = tree[x][1]
        p = at[x]
        gens, moves, orbit = self._group.generators, self._moves, self._orbit
        for x in reversed(path):
            s = tree[x][0]
            slot = p * len(gens) + gens.index(s)
            q = moves[slot]
            if q < 0:
                moved = transform_subspace((self._d, self._forms[s]), orbit[p])
                q = moves[slot] = self._position.setdefault(moved, len(orbit))
                if q == len(orbit):
                    orbit.append(moved)
                    moves.extend(array("i", [-1]) * len(gens))
            p = at[x] = q
        return p

    def w_g(self, g: int):
        x = self._group.inv(g)
        p = self._at[x]
        if p < 0:
            p = self._place(x)
        try:
            return self._w[p]
        except KeyError:
            pass
        c, e = self._equations
        w = meet(self._v, pull_back(c, self._forms[g]), [self._d * x for x in e])
        entry = None
        if w is not None:
            entry = self._entries.get(w)
            if entry is None:
                entry = self._entries[w] = (w, int_points(w), {}, {})
        self._w[p] = entry
        return entry

    def image_on(self, entry, h: int) -> int:
        """A label for element h's ``int_images`` on the points of the
        entry's W_g: equal labels on one entry mean equal images."""
        _, points, labels, classes = entry
        label = labels.get(h)
        if label is None:
            images = int_images(self._forms[h], points)
            label = labels[h] = classes.setdefault(images, len(classes))
        return label


def _require_saturated(cand: SuborbifoldCandidate) -> None:
    verdict = cand.saturation
    if not verdict.holds:
        raise CandidateNotSaturated(
            f"candidate is not saturated (witness: {verdict.witness.describe()})")


def _first_fixing_element(group: FiniteMatrixGroup, v: AffineSubspace, excluded):
    """First element outside ``excluded`` fixing a point of v, with that point.

    The point is the canonical base point of Fix(g) & v.
    """
    d, forms = group.integer_forms
    for g in range(group.order):
        if g in excluded:
            continue
        fixed = fixed_points((d, forms[g]), v)
        if fixed is not None:
            return g, fraction_point(fixed.den, fixed.base)
    return None


def check_full(cand: SuborbifoldCandidate) -> Verdict:
    """For saturated candidates: does any outside element fix a point of v?

    The first such element in index order is the witness, with the
    canonical base point of its fixed points on v, as
    ``_first_fixing_element`` would find them; each Fix(g) & v is solved
    on W_g from the chart group's ``OrbitOfV`` (see the module docstring).
    """
    _require_saturated(cand)
    group = cand.chart.group
    delta = cand.delta
    if delta.order == group.order:  # no element outside Delta
        return Verdict(True)
    d, forms = group.integer_forms
    orbit = cand.orbit_of_v
    solved: dict = {}  # (W_g, label of g's images of W_g's points) -> Fix(g) & W_g
    for g in range(group.order):
        if delta.contains(g):
            continue
        entry = orbit.w_g(g)
        if entry is None:
            continue
        key = (entry[0], orbit.image_on(entry, g))
        if key in solved:
            fixed = solved[key]
        else:
            fixed = solved[key] = fixed_points((d, forms[g]), entry[0])
        if fixed is not None:
            point = fraction_point(fixed.den, fixed.base)
            return Verdict(False, Witness(group.element(g), point))
    return Verdict(True)


@record
class EmbeddedResult:
    holds: bool
    effective_delta: Subgroup | None = None
    certificate: NoComplementCertificate | None = None
    searched_all_delta: bool = False


def _acts_effectively(sub: Subgroup, fixing: Subgroup) -> bool:
    """Does only the identity of sub fix v pointwise?

    ``fixing`` is the pointwise stabilizer of v in a group that contains
    sub, so sub's own is its intersection with ``fixing``.
    """
    identity = sub.parent.identity
    return not any(fixing.contains(i) for i in sub.members if i != identity)


def check_embedded(
    cand: SuborbifoldCandidate, search_all_delta: bool = False
) -> EmbeddedResult:
    """Does some subgroup realize v with an effective action?

    First the kernel K of Delta's action is split off: the least complement
    of K in Delta (``find_complement``), the splitting criterion. When there
    is none and search_all_delta is True, every subgroup of the chart group
    is in question, and the answer is the least complement of P = PFix(V)
    in S = Stab(V), the elements with g V = V. A subgroup D realizes V with
    an effective action and (D, V) saturated exactly when it is such a
    complement, given that (Delta, V) is saturated:

    * D leaves V invariant and meets P trivially, so D <= S and D & P = 1;
    * each s in S has W_s = V, so (D, V) is saturated only if D restricts
      onto S's restrictions to V; conversely Delta's covering h of any g may
      be swapped for the d in D with d = h on V. So D P = S.

    All complements have order |S| / |P|, so the least member tuple is also
    the first such D in canonical (order, members) order. A complement found
    is replayed (effective, and its candidate saturated) unless it is Delta
    itself, whose verdicts are the candidate's own. Verdicts are
    chart-relative either way.
    """
    _require_saturated(cand)
    fixing = cand.kernel
    complement = find_complement(cand.delta, fixing)
    certificate = None
    if not isinstance(complement, Subgroup):
        if not search_all_delta:
            return EmbeddedResult(False, certificate=complement)
        certificate = complement
        group, orbit, v = cand.chart.group, cand.orbit_of_v, cand.v
        stab = Subgroup(group, tuple([i for i in group.members if orbit.image(i) == v]))
        fixing = pointwise_stabilizer(group, v)
        complement = find_complement(stab, fixing)
        if not isinstance(complement, Subgroup):
            return EmbeddedResult(False, certificate=certificate, searched_all_delta=True)
    if complement is not cand.delta:
        replay = SuborbifoldCandidate(cand.chart, complement, cand.v)
        if not (_acts_effectively(complement, fixing) and replay.saturation.holds):
            raise AssertionError("complement failed effectiveness re-verification")
    return EmbeddedResult(True, effective_delta=complement,
                          searched_all_delta=certificate is not None)


@record
class InducedChart:
    """The k-dimensional chart induced on the subspace v.

    Points of the chart are coordinates in v's canonical basis about the
    subgroup-fixed centroid ``base_point``, which the restricted linear
    action fixes; ``embed`` maps them back to the ambient space. Both ways
    are read on v's integer form (``linalg.point_at``,
    ``linalg.contains_point``).
    """

    chart: ChartModel
    kernel: Subgroup
    base_point: Vec
    v: AffineSubspace
    restriction: GroupHom

    @property
    def basis(self) -> tuple[Vec, ...]:
        """v's canonical basis, in which the coordinates are taken."""
        return self.v.basis

    def embed(self, y: Vec) -> Vec:
        dy, ys = int_vector(point_in_dim(y, self.v.dim))
        dc, cs = scaled(self.base_point)
        shifted = [dc * a + dy * cs[p] for a, p in zip(ys, self.v.pivots)]
        return fraction_point(*point_at(self.v, dy * dc, shifted))

    def coordinates(self, x: Vec) -> Vec:
        x = _point_on(self.v, x)
        return tuple([x[p] - self.base_point[p] for p in self.v.pivots])


def induced_chart(cand: SuborbifoldCandidate) -> InducedChart:
    """Restrict the subgroup action to subspace coordinates (Prop.-style chart).

    Only Delta's generators are restricted; a member x = s y (s a
    generator) has image f(s) f(y), read off a walk of Delta from the
    identity (see the module docstring). For V = R^n and Delta = Gamma the
    induced group is the chart group itself.
    """
    _require_saturated(cand)
    group = cand.chart.group
    delta = cand.delta
    k = cand.v.dim
    d, forms = group.integer_forms
    # Centroid of the base-point orbit: a Delta-fixed point inside v. Every
    # element fixes the origin, so a base point there needs no sum or test.
    base = cand.v.base
    if any(base):
        total = [sum(column) for column in zip(*(int_mat_vec(forms[i], base)
                                                  for i in delta.members))]
    else:
        total = [0] * len(base)
    den = d * cand.v.den * delta.order
    centroid = fraction_point(den, total)
    _, fixed = lowest_terms(den, total)
    fixed_image = tuple(d * c for c in fixed)
    # Each restricted generator as the columns of its matrix, the points
    # its group looks it up by; a point the generators fix, Delta fixes.
    # This cannot fail: V is Delta-invariant (checked when the candidate was
    # built), so the base point's orbit lies in V, and s only reorders the
    # terms (s h) base of its mean.
    restricted = []
    for s in delta.generators:
        if any(fixed) and int_mat_vec(forms[s], fixed) != fixed_image:
            raise AssertionError("the centroid of a Delta-orbit in V is not fixed by Delta")
        restricted.append(restricted_matrix((d, forms[s]), cand.v))
    if k == group.ambient_dim and delta.order == group.order:
        # V = R^n has the standard basis, so each restricted generator is
        # its generator and the group they generate is the chart group.
        induced_group = group
    else:
        gens = [form_of_columns(columns) for columns in restricted] or [identity_form(k)]
        induced_group = group_from_forms(gens, max_order=delta.order)
    image = {group.identity: induced_group.identity}
    steps = []
    for s, columns in zip(delta.generators, restricted):
        f_s = induced_group.element_with_columns(columns)
        if f_s is None:
            raise AssertionError("a restricted generator is outside the group the "
                                 "restricted generators generate")
        steps.append((s, f_s))
    reached = [group.identity]
    for y in reached:
        for s, f_s in steps:
            x = group.mult(s, y)
            if x not in image:
                image[x] = induced_group.mult(f_s, image[y])
                reached.append(x)
    restriction = GroupHom(delta, induced_group, tuple([image[i] for i in delta.members]))
    _check_restriction(restriction, cand.kernel)
    return InducedChart(
        ChartModel(induced_group), cand.kernel, centroid, cand.v, restriction
    )


def _check_restriction(f: GroupHom, kernel: Subgroup) -> None:
    """Assert that f maps Delta onto the induced group with kernel K.

    A homomorphism onto the induced group with kernel K makes that group
    Delta/K (first isomorphism theorem).
    """
    delta, image = f.domain, f.codomain
    if not f.is_homomorphism():
        raise AssertionError("restriction to the subspace is not a homomorphism")
    if set(f.image_of) != set(range(image.order)):
        raise AssertionError("restriction is not onto the induced group")
    fixed = [p for a, p in enumerate(delta.members) if f(a) == image.identity]
    if tuple(fixed) != kernel.members:
        raise AssertionError("kernel of the restriction is not the pointwise stabilizer")


def _point_on(v: AffineSubspace, x, where: str = "subspace") -> Vec:
    """x as a point of v's ambient space, refused unless it lies on v."""
    x = point_in_dim(x, v.ambient_dim)
    if not contains_point(v, x):
        raise PointNotInV(f"{point_str(x)} is not in the {where}")
    return x


def isotropy_point(chart: ChartModel, x) -> Fingerprint:
    return iso_fingerprint(stabilizer(chart.group, point_in_dim(x, chart.ambient_dim)))


def isotropy_sub_point(cand: SuborbifoldCandidate, x) -> Fingerprint:
    """Isotropy of a point inside the induced suborbifold chart (Delta_x / K)."""
    x = _point_on(cand.v, x, "candidate subspace")
    _require_saturated(cand)
    stab = stabilizer(cand.delta, x)
    fingerprint = quotient_group(stab, cand.kernel)
    # Independent path: stabilizer computed inside induced-chart coordinates.
    chart = cand.induced
    coords = chart.coordinates(x)
    cross = iso_fingerprint(stabilizer(chart.chart.group, coords))
    if cross != fingerprint:
        raise AssertionError("two-path isotropy fingerprints disagree")
    return fingerprint


def abelian_omega_isotropy(chart: ChartModel, v: AffineSubspace, x) -> Fingerprint:
    """Gamma_x / Omega with Omega the pointwise stabilizer of v (Gamma abelian)."""
    if not chart.group.is_abelian():
        raise GroupNotAbelian("criterion requires an abelian chart group")
    x = _point_on(v, x)
    omega = pointwise_stabilizer(chart.group, v)
    stab = stabilizer(chart.group, x)
    return quotient_group(stab, omega)


def full_obstruction_probe(cand: SuborbifoldCandidate, x) -> bool:
    """Do the suborbifold isotropy and Gamma_x/Omega agree at x?

    A mismatch rules out fullness at x for abelian chart groups.
    """
    return isotropy_sub_point(cand, x) == abelian_omega_isotropy(cand.chart, cand.v, x)


def contained_in_regular_part(chart: ChartModel, v: AffineSubspace) -> bool:
    """True iff no nontrivial element fixes any point of v."""
    return _first_fixing_element(chart.group, v, {chart.group.identity}) is None


@record
class ClassificationReport:
    saturated: Verdict
    full: Verdict | None
    embedded: EmbeddedResult | None
    kernel: Subgroup
    induced_isotropy_at: tuple[tuple[Vec, Fingerprint], ...] = ()


def classify(
    cand: SuborbifoldCandidate,
    search_all_delta: bool = False,
    isotropy_points: tuple = (),
) -> ClassificationReport:
    """Full classification; fullness/embeddedness only apply when saturated."""
    points = tuple(_point_on(cand.v, p, "candidate subspace") for p in isotropy_points)
    kernel = cand.kernel
    saturated = cand.saturation
    if not saturated.holds:
        return ClassificationReport(saturated, None, None, kernel)
    full = check_full(cand)
    embedded = check_embedded(cand, search_all_delta=search_all_delta)
    isotropy = tuple((p, isotropy_sub_point(cand, p)) for p in points)
    return ClassificationReport(saturated, full, embedded, kernel, isotropy)
