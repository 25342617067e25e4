"""Numeric check that the quotient metric and the induced intrinsic metric
coincide on an invariant subspace.

Everything stays exact, on integers from the group's integer rows and the
points' numerators, until the final square roots. Straight segments
suffice as candidate paths because the subspace is affine and the metric
flat. On the segment from x to t, with d = t - x, the squared distance
from p = x + r d to g q, q = x + s d, is a quadratic form in (r, s) whose
six integer coefficients per group element are computed once per segment
over one common denominator; on a partition of the segment they turn each
piece into an integer quadratic per distinct form, constant or strictly
convex. The least constant one is the minimum over the group on every
piece but those of the integer intervals where a convex one dips below
it, found exactly with ``math.isqrt``, so the pieces off those intervals
cost one square root (see ``intrinsic_quotient_distance``). Exact
refinement sums are monotone in the partition depth, mirroring the sup
over partitions; the float sums computed here are not, so every depth
counts, but a sum at any one depth bounds the sup from below, and a
subgroup element whose sum already reaches the best sup is dropped.
The walk takes the segments from x to h y shortest first, so the
quotient distance min over h of |x - h y| is the first segment's length,
read off the same integers; ``lemma_metrics_check`` makes one integer
walk per pair for both distances.
"""
from __future__ import annotations

import math
from functools import reduce
from itertools import repeat
from operator import add, mul

from .classify import SuborbifoldCandidate, _point_not_in
from .errors import (
    CandidateNotSaturated,
    InvalidMetricSetting,
    NonOrthogonalGroup,
    PointNotInV,
)
from .groups import first_failure
from .linalg import (
    Vec,
    contains_point,
    dense,
    int_mat_vec,
    point_in_dim,
    point_str,
    scaled,
    vec,
)
from .records import record

DEFAULT_DEPTH = 8
# Each level doubles the pieces per segment: the winning segment sums
# 2**(depth + 1) - 1 pieces over its depths, every other segment at least
# its deepest 2**depth. A piece at the least constant quadratic costs one
# float addition, and nearly every piece is one, so at depth 12 (8191
# pieces) `metric-check` takes about 6-8 ms on the corpus probes and 2 ms
# on scenes/rotation_line.json, parsing and printing included (in-process,
# shared 2-core Xeon, Python 3.11).
MAX_DEPTH = 12
DEFAULT_TOLERANCE = 1e-9


@record
class MetricProbe:
    """The metric lemma's check on a candidate: sample pairs on its V, a
    partition depth and a tolerance. The candidate checks Delta and V; the
    probe checks its settings, that Gamma is orthogonal and its pairs on V."""

    candidate: SuborbifoldCandidate
    sample_pairs: tuple[tuple[Vec, Vec], ...]
    partition_depth: int = DEFAULT_DEPTH
    tolerance: float = DEFAULT_TOLERANCE

    def __post_init__(self):
        check_settings(self.partition_depth, self.tolerance, self.sample_pairs)
        _require_orthogonal(self.candidate.chart.group)
        v = self.candidate.v
        for x, y in self.sample_pairs:
            if not (contains_point(v, x) and contains_point(v, y)):
                pair = ", ".join(map(point_str, (x, y)))
                raise PointNotInV(f"sample pair {pair} leaves the subspace")

    def with_settings(self, depth: int | None = None,
                      tolerance: float | None = None) -> "MetricProbe":
        """This probe with the given depth and tolerance, where they are not None."""
        if depth is None and tolerance is None:
            return self
        depth = self.partition_depth if depth is None else depth
        tolerance = self.tolerance if tolerance is None else tolerance
        # The group and the sample pairs were checked when self was built,
        # and the copy shares self's candidate, with its saturation verdict.
        check_settings(depth, tolerance, self.sample_pairs)
        probe = object.__new__(MetricProbe)
        probe.__dict__.update(self.__dict__, partition_depth=depth, tolerance=tolerance)
        return probe


def check_settings(depth, tolerance, sample_pairs) -> None:
    """Raise ``InvalidMetricSetting`` unless the depth is an integer in
    0..MAX_DEPTH, the tolerance a finite number >= 0 and there is at least
    one sample pair."""
    if type(depth) is not int or not 0 <= depth <= MAX_DEPTH:  # bool is not int
        raise InvalidMetricSetting(
            f"partition depth must be an integer in 0..{MAX_DEPTH}, got {depth!r}")
    if type(tolerance) not in (int, float) or not 0 <= tolerance < math.inf:
        # bool, NaN and inf fail
        raise InvalidMetricSetting(
            f"tolerance must be a finite number >= 0, got {tolerance!r}")
    if not sample_pairs:
        raise InvalidMetricSetting("a metric probe needs at least one sample pair")


def _require_orthogonal(group) -> None:
    """Raise unless g^T g = I on the group, tested on the integer rows of
    den g as (den g)(den g)^T = den^2 I, which for a square g is the same."""
    den, forms = group.parent.integer_forms

    def fails(i):
        rows = dense(forms[i], len(forms[i]))
        return any(_int_dot(a, b) != (den * den if a is b else 0) for a in rows for b in rows)

    i = first_failure(group, fails)
    if i is not None:
        raise NonOrthogonalGroup(f"element {i} is not orthogonal")


def _int_dot(x, y) -> int:
    return sum(map(mul, x, y))


def quotient_distance(group, x, y) -> float:
    """min over the group of the Euclidean distance |x - g y|.

    On integers: with the group's common denominator den, x = xs/dx and
    y = ys/dy, K = den dx dy makes K x and every K g y integer vectors, and
    the exact minimum of |K x - K g y|^2 over K^2 is one correctly rounded
    int division.
    """
    _require_orthogonal(group)
    den, forms = group.parent.integer_forms
    n = group.parent.ambient_dim
    (dx, xs), (dy, ys) = scaled(point_in_dim(x, n)), scaled(point_in_dim(y, n))
    kx = [den * dy * c for c in xs]
    best = min(sum([(a - dx * b) ** 2 for a, b in zip(kx, int_mat_vec(forms[i], ys))])
               for i in group.members)
    return math.sqrt(best / (den * dx * dy) ** 2)


def _segment_forms(den: int, forms, parts_of_x, sd) -> set:
    """Integer coefficients of |p - g q|^2 on a segment from x, one per distinct form.

    With d the segment's direction, a = x - g x, p = x + r d and
    q = x + s d: |p - g q|^2 = A + r^2 B + s^2 B' + 2r C - 2s D - 2rs E,
    where A = a.a, B = d.d, B' = gd.gd, C = a.d, D = a.gd, E = d.gd. The
    identity holds for any linear g. For an S with S x and S d = ``sd``
    integer vectors, and g given by the integer rows den g (``forms``),
    K = den S scales a, d and g d to integers: K a = den S x - (den g) S x,
    K d = den sd and K g d = (den g) sd. Each form is (A, B, B', C, D, E)
    times K^2. ``parts_of_x`` holds (K a, A K^2) per element, which do not
    depend on the segment's end. The group is orthogonal, as a probe's is,
    so B' = |K g d|^2 = |K d|^2 = B.
    """
    kd = [den * c for c in sd]
    b = _int_dot(kd, kd)
    found = set()
    for rows, (ka, a) in zip(forms, parts_of_x):
        kgd = int_mat_vec(rows, sd)
        found.add((a, b, b, _int_dot(ka, kd), _int_dot(ka, kgd), _int_dot(kd, kgd)))
    return found


def _below_zero(alpha: int, beta: int, gamma: int, lo: int, hi: int) -> range:
    """The integers k in lo..hi with alpha k^2 + beta k + gamma < 0, for a
    constant (alpha = beta = 0) or strictly convex quadratic, as a
    segment's are (see ``_segment_sum``).

    A convex one is negative strictly between its real roots
    (-beta -+ sqrt(disc)) / 2 alpha. With ``math.isqrt`` for the square
    root, each end of the integer run is one of two neighbours, and the
    quadratic's exact value at the outer one settles which.
    """
    assert alpha > 0 or (alpha == 0 and beta == 0), (alpha, beta)
    if not alpha:
        return range(lo, hi + 1) if gamma < 0 else range(0)
    disc = beta * beta - 4 * alpha * gamma
    if disc <= 0:
        return range(0)
    root = math.isqrt(disc)
    first = (-beta - root) // (2 * alpha) + 1
    if (alpha * (first - 1) + beta) * (first - 1) + gamma < 0:
        first -= 1
    last = -((beta - root) // (2 * alpha)) - 1
    if (alpha * (last + 1) + beta) * (last + 1) + gamma < 0:
        last += 1
    return range(max(first, lo), min(last, hi) + 1)


def _segment_sum(scale: int, forms, pieces: int) -> float:
    """Sum over the pieces of the minimum over g of |p - g q|, as floats.

    Piece i runs from r = (i - 1)/N to s = i/N, N = pieces, so
    N^2 L |p - g q|^2 is the integer q(i) = alpha i^2 + beta i + gamma,
    L = ``scale``, with alpha = B + B' - 2E = K^2 |d - g d|^2 and
    beta = 2(E - B) + 2N(C - D). Where alpha = 0, g d = d, so D = C and
    E = B and beta = 0: each quadratic is constant or strictly convex. The
    identity's is constant, so the least constant, the floor, is the minimum
    on every piece but those where some convex quadratic dips below it, and
    each of those does on one interval of pieces (``_below_zero``). Off the
    union of these intervals every piece is the floor, one square root for
    all of them; on it the exact integer minimum of the quadratics that dip
    there is taken per piece, then its square root. Pieces are added one at
    a time in order (``reduce``, not ``sum``, which is compensated from
    Python 3.12 on), so the float is the one a per-piece minimum gives.
    """
    n = pieces
    quadratics = {(b + b2 - 2 * e, 2 * (e - b) + 2 * n * (c - d), n * n * a + b - 2 * n * c)
                  for a, b, b2, c, d, e in forms}
    floor = min(c for a, b, c in quadratics if not (a or b))
    dips = []
    for alpha, beta, gamma in quadratics:
        if alpha or beta:
            ks = _below_zero(alpha, beta, gamma - floor, 1, n)
            if ks:
                dips.append((ks.start, ks.stop, alpha, beta, gamma))
    dips.sort()
    denominator = scale * n * n
    at_floor = math.sqrt(floor / denominator)
    total = 0.0
    i = 1
    while dips:
        start, stop, *q = dips.pop(0)
        run = [q]
        while dips and dips[0][0] <= stop:
            _, end, *q = dips.pop(0)
            stop = max(stop, end)
            run.append(q)
        total = reduce(add, repeat(at_floor, start - i), total)
        for k in range(start, stop):
            total += math.sqrt(min((a * k + b) * k + c for a, b, c in run) / denominator)
        i = stop
    return reduce(add, repeat(at_floor, n + 1 - i), total)


def intrinsic_quotient_distance(probe: MetricProbe, x, y) -> float:
    """Length-infimum distance induced by the ambient quotient metric.

    For each subgroup element h the straight segment from x to h y is
    refined dyadically up to the probe depth; the sup over depths is
    taken, then the min over h.

    The squared distance on a piece is a quadratic form in its end
    parameters (see ``_segment_forms``). Its coefficients are exact
    integers over one common denominator L, computed once per h and group
    element from the group's integer rows, so at depth k (N = 2**k pieces)
    piece i is the minimum of integer quadratics in i (see
    ``_segment_sum``). Dividing the exact int minimum by L N^2 is Python's
    correctly rounded int division, which gives the same float for any
    common L and the same float as converting the exact Fraction minimum,
    so every sum, and every report, is what a per-point evaluation with
    Fraction vectors gives.

    Exact refinement sums can only grow with depth, but the float sums
    computed here need not, so the sup is over every depth. For the corpus
    pair (1/2, -1/3) on the rotation line it reads 0.16666666666666677,
    while the deepest level alone reads 0.1666666666666664. Still, any one
    sum bounds an h's sup from below, and the min over h keeps only a
    strictly smaller sup, so an h is dropped once one of its sums reaches
    the best sup so far and the value is the one every sum gives. Taking
    the segments shortest first, each from its deepest sum down, the ten
    corpus pairs need 100 sums at the default depth instead of 180.
    """
    x, y, v = vec(x), vec(y), probe.candidate.v
    for p in (x, y):
        if not contains_point(v, p):
            raise _point_not_in(p, "subspace")
    return _intrinsic_distance(probe, x, y)[1]


def _intrinsic_distance(probe: MetricProbe, x, y) -> tuple[float, float]:
    """(``quotient_distance``, ``intrinsic_quotient_distance``) for points
    known to lie in the subspace, such as a probe's sample pairs, which the
    probe checked. The quotient distance is the shortest segment's length:
    |sd|^2 for sd = S (h y - x) is the integer ``quotient_distance``
    minimises over Delta, over the same S^2 = (den dx dy)^2."""
    group = probe.candidate.chart.group
    den, forms = group.integer_forms
    n = group.ambient_dim
    (dx, xs), (dy, ys) = scaled(point_in_dim(x, n)), scaled(point_in_dim(y, n))
    # S = den dx dy: S x = den dy xs and S h y = dx (den h) ys are integers.
    sx = [den * dy * c for c in xs]
    parts_of_x = []
    for rows in forms:
        ka = [den * a - b for a, b in zip(sx, int_mat_vec(rows, sx))]
        parts_of_x.append((ka, _int_dot(ka, ka)))
    scale = (den * den * dx * dy) ** 2
    # A segment's sums are at most about its length |x - h y|, as each
    # piece's minimum is at most the piece's length, and on a saturated
    # probe the least sup is the least of these lengths.
    directions = sorted(([dx * a - b for a, b in zip(int_mat_vec(forms[h], ys), sx)]
                         for h in probe.candidate.delta.members),
                        key=lambda sd: _int_dot(sd, sd))
    nearest = directions[0]
    quotient = math.sqrt(_int_dot(nearest, nearest) / (den * dx * dy) ** 2)
    depth = probe.partition_depth
    best = math.inf
    for sd in directions:
        segment = _segment_forms(den, forms, parts_of_x, sd)
        # Any one sum bounds h's sup from below; the deepest is nearly always
        # the largest.
        sup = _segment_sum(scale, segment, 2 ** depth)
        for k in range(depth - 1, -1, -1):
            if sup >= best:
                break
            sup = max(sup, _segment_sum(scale, segment, 2 ** k))
        if sup < best:
            best = sup
    return quotient, best


@record
class PairResult:
    x: Vec
    y: Vec
    quotient: float
    intrinsic: float

    @property
    def deviation(self) -> float:
        return abs(self.quotient - self.intrinsic)


@record
class MetricReport:
    pairs: tuple[PairResult, ...]
    tolerance: float

    @property
    def max_deviation(self) -> float:
        return max((p.deviation for p in self.pairs), default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tolerance

    @property
    def hint(self) -> str | None:
        # A saturated probe that misses tolerance needs a deeper refinement,
        # not a counterexample report.
        if self.passed:
            return None
        return "increase partition depth"


def lemma_metrics_check(probe: MetricProbe) -> MetricReport:
    """Per-pair comparison of the two metrics on the quotient of the subspace."""
    if not probe.candidate.saturation.holds:
        raise CandidateNotSaturated("metric lemma requires a saturated candidate")
    pairs = tuple(PairResult(vec(x), vec(y), *_intrinsic_distance(probe, x, y))
                  for x, y in probe.sample_pairs)
    return MetricReport(pairs, probe.tolerance)
