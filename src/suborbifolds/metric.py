"""Numeric check that the quotient metric and the induced intrinsic metric
coincide on an invariant subspace.

Everything stays exact, on integers from the group's integer rows and the
points' numerators, until the final square roots. Straight segments
suffice as candidate paths because the subspace is affine and the metric
flat. On the segment from x to t, with d = t - x, the squared distance
from p = x + r d to g q, q = x + s d, is a quadratic form in (r, s) whose
six integer coefficients per group element are computed once per segment
over one common denominator; on a partition of the segment they turn each
piece into an integer quadratic per distinct form, and the minimum over
the group is walked along the lower envelope of those quadratics, so a
run of pieces on one constant quadratic costs one square root (see
``intrinsic_quotient_distance``). Exact refinement sums are monotone in
the partition depth, mirroring the sup over partitions; the float sums
computed here are not, so every depth is evaluated.
"""
from __future__ import annotations

import math
from functools import reduce
from itertools import repeat
from operator import add

from .classify import ChartModel, SuborbifoldCandidate, check_saturated
from .errors import (
    CandidateNotSaturated,
    InvalidMetricSetting,
    NonOrthogonalGroup,
    PointsNotInSubspace,
)
from .groups import FiniteMatrixGroup, Subgroup, first_failure
from .linalg import (
    AffineSubspace,
    Vec,
    contains_point,
    dense,
    int_mat_vec,
    point_in_dim,
    rat_str,
    scaled,
    vec,
)
from .records import record

DEFAULT_DEPTH = 8
# Each level doubles the pieces per segment, and every depth up to the
# probe's is summed: 2**(depth + 1) - 1 pieces per segment in all. On the
# lower envelope a constant run costs one square root and one float
# addition per piece, and nearly every piece lies in one, so at depth 12
# (8191 pieces) `metric-check` takes about 8-12 ms on the corpus probes
# and 2-3 ms on scenes/rotation_line.json, parsing and printing included
# (in-process, shared 2-core Xeon, Python 3.11).
MAX_DEPTH = 12
DEFAULT_TOLERANCE = 1e-9


@record
class MetricProbe:
    group: FiniteMatrixGroup
    subgroup: Subgroup
    subspace: AffineSubspace
    sample_pairs: tuple[tuple[Vec, Vec], ...]
    partition_depth: int = DEFAULT_DEPTH
    tolerance: float = DEFAULT_TOLERANCE

    def __post_init__(self):
        check_settings(self.partition_depth, self.tolerance, self.sample_pairs)
        _require_orthogonal(self.group)
        for x, y in self.sample_pairs:
            if not (contains_point(self.subspace, x)
                    and contains_point(self.subspace, y)):
                pair = ", ".join("[" + ", ".join(map(rat_str, p)) + "]" for p in (x, y))
                raise PointsNotInSubspace(f"sample pair {pair} leaves the subspace")

    def with_settings(self, depth: int | None = None,
                      tolerance: float | None = None) -> "MetricProbe":
        """This probe with the given depth and tolerance, where they are not None."""
        if depth is None and tolerance is None:
            return self
        return MetricProbe(self.group, self.subgroup, self.subspace, self.sample_pairs,
                           self.partition_depth if depth is None else depth,
                           self.tolerance if tolerance is None else tolerance)


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
    return sum([a * b for a, b in zip(x, y)])


def _scaled_pair(n: int, x, y):
    """x = xs / dx and y = ys / dy as (dx, xs), (dy, ys), each of length n."""
    return scaled(point_in_dim(x, n)), scaled(point_in_dim(y, n))


def quotient_distance(group, x, y) -> float:
    """min over the group of the Euclidean distance |x - g y|.

    On integers: with the group's common denominator den, x = xs/dx and
    y = ys/dy, K = den dx dy makes K x and every K g y integer vectors, and
    the exact minimum of |K x - K g y|^2 over K^2 is one correctly rounded
    int division.
    """
    _require_orthogonal(group)
    return _quotient_distance(group, x, y)


def _quotient_distance(group, x, y) -> float:
    """``quotient_distance`` for a group known to be orthogonal, such as a
    probe's subgroup, whose whole group the probe checked."""
    den, forms = group.parent.integer_forms
    (dx, xs), (dy, ys) = _scaled_pair(group.parent.ambient_dim, x, y)
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
    depend on the segment's end.
    """
    kd = [den * c for c in sd]
    b = _int_dot(kd, kd)
    found = set()
    for rows, (ka, a) in zip(forms, parts_of_x):
        kgd = int_mat_vec(rows, sd)
        found.add((a, b, _int_dot(kgd, kgd), _int_dot(ka, kd), _int_dot(ka, kgd),
                   _int_dot(kd, kgd)))
    return found


def _first_negative(a: int, b: int, c: int, lo: int, hi: int) -> int:
    """The least integer k in lo..hi with a k^2 + b k + c < 0, or hi + 1.

    The forward difference a (2k + 1) + b changes sign at most once, at
    t = floor((-b - a) / 2a) + 1, so lo..hi splits into at most two
    monotone runs, lo..t and t..hi. A nondecreasing run is negative
    somewhere only if it is at its first point; a nonincreasing run is
    negative somewhere only if it is at its last point, and then it is
    bisected.
    """
    if a:
        t = (-b - a) // (2 * a) + 1
        runs = ((lo, min(hi, t), a > 0), (max(lo, t), hi, a < 0))
    else:
        runs = ((lo, hi, b < 0),)
    for start, stop, falling in runs:
        if start > stop:
            continue
        if not falling:
            if (a * start + b) * start + c < 0:
                return start
        elif (a * stop + b) * stop + c < 0:
            while start < stop:
                mid = (start + stop) // 2
                if (a * mid + b) * mid + c < 0:
                    stop = mid
                else:
                    start = mid + 1
            return start
    return hi + 1


def _segment_sum(scale: int, forms, pieces: int) -> float:
    """Sum over the pieces of the minimum over g of |p - g q|, as floats.

    Piece i runs from r = (i - 1)/N to s = i/N, N = pieces, so
    N^2 L |p - g q|^2 is the integer q(i) = alpha i^2 + beta i + gamma,
    L = ``scale``. The minimum is walked along the lower envelope of the
    distinct quadratics: at piece i the least one, q, is picked once, and
    it stays least up to the first j > i at which some other p has
    p(j) - q(j) < 0 (``_first_negative``). On a constant q (alpha = beta
    = 0, the identity's form) every piece of the run has one value, so a
    constant run costs one square root. Pieces are added one at a time in
    order (``reduce``, not ``sum``, which is compensated from Python 3.12
    on), so the float is the one a per-piece minimum gives.
    """
    n = pieces
    quadratics = list({(b + b2 - 2 * e,
                        2 * (e - b) + 2 * n * (c - d),
                        n * n * a + b - 2 * n * c)
                       for a, b, b2, c, d, e in forms})
    denominator = scale * n * n
    total = 0.0
    i = 1
    while i <= n:
        alpha, beta, gamma = min(quadratics, key=lambda q: (q[0] * i + q[1]) * i + q[2])
        end = n + 1
        for a, b, c in quadratics:
            end = _first_negative(a - alpha, b - beta, c - gamma, i + 1, end - 1)
        if alpha or beta:
            for k in range(i, end):
                total += math.sqrt(((alpha * k + beta) * k + gamma) / denominator)
        else:
            total = reduce(add, repeat(math.sqrt(gamma / denominator), end - i), total)
        i = end
    return total


def intrinsic_quotient_distance(probe: MetricProbe, x, y) -> float:
    """Length-infimum distance induced by the ambient quotient metric.

    For each subgroup element h the straight segment from x to h y is
    refined dyadically up to the probe depth; the sup over depths is
    taken, then the min over h.

    The squared distance on a piece is a quadratic form in its end
    parameters (see ``_segment_forms``). Its coefficients are exact
    integers over one common denominator L, computed once per h and group
    element from the group's integer rows, so at depth k (N = 2**k pieces)
    piece i is the minimum of integer quadratics in i. Equal quadratics
    are kept once, and the minimum is walked along their lower envelope:
    one quadratic is picked per run of pieces it wins, and a run on a
    constant quadratic costs one square root (see ``_segment_sum``).
    Dividing the exact int minimum by L N^2 is Python's correctly rounded
    int division, which gives the same float for any common L and the same
    float as converting the exact Fraction minimum, so every sum, and every
    report, is what a per-point evaluation with Fraction vectors gives.

    Exact refinement sums can only grow with depth, but the float sums
    computed here need not, so every depth is evaluated and the largest
    kept. For the corpus pair (1/2, -1/3) on the rotation line this reads
    0.16666666666666677, while the deepest level alone reads
    0.1666666666666664.
    """
    x, y = vec(x), vec(y)
    if not (contains_point(probe.subspace, x) and contains_point(probe.subspace, y)):
        raise PointsNotInSubspace("query points must lie in the subspace")
    return _intrinsic_distance(probe, x, y)


def _intrinsic_distance(probe: MetricProbe, x, y) -> float:
    """``intrinsic_quotient_distance`` for points known to lie in the
    subspace, such as a probe's sample pairs, which the probe checked."""
    den, forms = probe.group.integer_forms
    (dx, xs), (dy, ys) = _scaled_pair(probe.group.ambient_dim, x, y)
    # S = den dx dy: S x = den dy xs and S h y = dx (den h) ys are integers.
    sx = [den * dy * c for c in xs]
    parts_of_x = []
    for rows in forms:
        ka = [den * a - b for a, b in zip(sx, int_mat_vec(rows, sx))]
        parts_of_x.append((ka, _int_dot(ka, ka)))
    scale = (den * den * dx * dy) ** 2
    best = None
    for h in probe.subgroup.members:
        sd = [dx * a - b for a, b in zip(int_mat_vec(forms[h], ys), sx)]
        segment = _segment_forms(den, forms, parts_of_x, sd)
        sup = 0.0
        for depth in range(probe.partition_depth + 1):
            sup = max(sup, _segment_sum(scale, segment, 2 ** depth))
        if best is None or sup < best:
            best = sup
    return best


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
    chart = ChartModel(probe.group)
    cand = SuborbifoldCandidate(chart, probe.subgroup, probe.subspace)
    if not check_saturated(cand).holds:
        raise CandidateNotSaturated("metric lemma requires a saturated candidate")
    results = []
    for x, y in probe.sample_pairs:
        quotient = _quotient_distance(probe.subgroup, x, y)
        intrinsic = _intrinsic_distance(probe, x, y)
        results.append(PairResult(vec(x), vec(y), quotient, intrinsic))
    return MetricReport(tuple(results), probe.tolerance)
