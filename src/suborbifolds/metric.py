"""Numeric check that the quotient metric and the induced intrinsic metric
coincide on an invariant subspace.

Everything stays exact (rational, then integer, squared distances and
exact minima) until the final square roots. Straight segments suffice as
candidate paths because the subspace is affine and the metric flat. On the
segment from x to t, with d = t - x, the squared distance from
p = x + r d to g q, q = x + s d, is a quadratic form in (r, s) whose six
coefficients per group element are computed once per segment; scaled by
one common denominator they turn each partition piece into one integer
quadratic per element (see ``intrinsic_quotient_distance``). Exact
refinement sums are monotone in the partition depth, mirroring the sup
over partitions; the float sums computed here are not, so every depth is
evaluated.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

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
    identity as identity_matrix,
    mat_mul,
    mat_vec,
    rat_str,
    transpose,
    vec,
    vec_sub,
)

DEFAULT_DEPTH = 8
# Each level doubles the pieces per segment, and every depth up to the
# probe's is summed: 2**(depth + 1) - 1 pieces per segment in all. A piece
# costs one integer quadratic per group element, so at depth 12 (8191
# pieces) `metric-check` takes about 0.3 s on the corpus probes and 0.06 s
# on scenes/rotation_line.json (2-core Xeon, Python 3.11).
MAX_DEPTH = 12
DEFAULT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class MetricProbe:
    group: FiniteMatrixGroup
    subgroup: Subgroup
    subspace: AffineSubspace
    sample_pairs: tuple[tuple[Vec, Vec], ...]
    partition_depth: int = DEFAULT_DEPTH
    tolerance: float = DEFAULT_TOLERANCE

    def __post_init__(self):
        depth = self.partition_depth
        if type(depth) is not int or not 0 <= depth <= MAX_DEPTH:  # bool is not int
            raise InvalidMetricSetting(
                f"partition depth must be an integer in 0..{MAX_DEPTH}, got {depth!r}")
        tol = self.tolerance
        if type(tol) not in (int, float) or not 0 <= tol < math.inf:  # bool, NaN and inf fail
            raise InvalidMetricSetting(f"tolerance must be a finite number >= 0, got {tol!r}")
        _require_orthogonal(self.group)
        for x, y in self.sample_pairs:
            if not (contains_point(self.subspace, x)
                    and contains_point(self.subspace, y)):
                pair = ", ".join("[" + ", ".join(map(rat_str, p)) + "]" for p in (x, y))
                raise PointsNotInSubspace(f"sample pair {pair} leaves the subspace")

    def with_settings(self, depth: int | None = None,
                      tolerance: float | None = None) -> "MetricProbe":
        """This probe with the given depth and tolerance, where they are not None."""
        changes = {k: v for k, v in (("partition_depth", depth), ("tolerance", tolerance))
                   if v is not None}
        return replace(self, **changes) if changes else self


def _require_orthogonal(group) -> None:
    ident = identity_matrix(group.parent.ambient_dim)
    matrix_of = group.parent.matrix_of
    i = first_failure(group, lambda i: mat_mul(transpose(matrix_of(i)), matrix_of(i)) != ident)
    if i is not None:
        raise NonOrthogonalGroup(f"element {i} is not orthogonal")


def _sq_dist(x: Vec, y: Vec) -> Fraction:
    return sum((a - b) ** 2 for a, b in zip(x, y))


def _min_orbit_sq_dist(matrices, x: Vec, y: Vec) -> Fraction:
    return min(_sq_dist(x, mat_vec(m, y)) for m in matrices)


def quotient_distance(group, x, y) -> float:
    """min over the group of the Euclidean distance |x - g y|."""
    _require_orthogonal(group)
    x, y = vec(x), vec(y)
    return math.sqrt(_min_orbit_sq_dist(group.matrices, x, y))


def _dot(x: Vec, y: Vec) -> Fraction:
    return sum(a * b for a, b in zip(x, y))


def _segment_forms(matrices, images_of_x, x: Vec, target: Vec):
    """Integer coefficients of |p - g q|^2 on the segment from x to target.

    With d = target - x, a = x - g x, p = x + r d and q = x + s d:
    |p - g q|^2 = A + r^2 B + s^2 B' + 2r C - 2s D - 2rs E, where
    A = a.a, B = d.d, B' = gd.gd, C = a.d, D = a.gd, E = d.gd. The identity
    holds for any linear g. Returns (L, forms): each form is
    (A, B, B', C, D, E) times L, the least common denominator of all of
    them, so every entry is an int.
    """
    d = vec_sub(target, x)
    dd = _dot(d, d)
    exact = []
    for m, gx in zip(matrices, images_of_x):
        gd = mat_vec(m, d)
        a = vec_sub(x, gx)
        exact.append((_dot(a, a), dd, _dot(gd, gd), _dot(a, d), _dot(a, gd), _dot(d, gd)))
    scale = math.lcm(*(Fraction(c).denominator for form in exact for c in form))
    forms = [tuple(int(c * scale) for c in form) for form in exact]
    return scale, forms


def _segment_sum(scale: int, forms, pieces: int) -> float:
    """Sum over the pieces of the minimum over g of |p - g q|, as floats.

    Piece i runs from r = (i - 1)/N to s = i/N, N = pieces, so
    N^2 L |p - g q|^2 is the integer alpha i^2 + beta i + gamma.
    """
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


def intrinsic_quotient_distance(probe: MetricProbe, x, y) -> float:
    """Length-infimum distance induced by the ambient quotient metric.

    For each subgroup element h the straight segment from x to h y is
    refined dyadically up to the probe depth; the sup over depths is
    taken, then the min over h.

    The squared distance on a piece is a quadratic form in its end
    parameters (see ``_segment_forms``). Its coefficients are computed
    once per h and group element and multiplied by their common
    denominator L, so at depth k (N = 2**k pieces) piece i costs one
    integer quadratic per element, and the minimum over elements is an
    exact int. Dividing it by L N^2 is Python's correctly rounded int
    division, which gives the same float as converting the exact Fraction
    minimum, so every sum, and every report, is what a per-point
    evaluation with Fraction vectors gives.

    Exact refinement sums can only grow with depth, but the float sums
    computed here need not, so every depth is evaluated and the largest
    kept. For the corpus pair (1/2, -1/3) on the rotation line this reads
    0.16666666666666677, while the deepest level alone reads
    0.1666666666666664.
    """
    x, y = vec(x), vec(y)
    if not (contains_point(probe.subspace, x) and contains_point(probe.subspace, y)):
        raise PointsNotInSubspace("query points must lie in the subspace")
    matrices = probe.group.matrices
    images_of_x = [mat_vec(m, x) for m in matrices]
    best = None
    for h in probe.subgroup.members:
        target = mat_vec(probe.group.matrix_of(h), y)
        scale, forms = _segment_forms(matrices, images_of_x, x, target)
        sup = 0.0
        for depth in range(probe.partition_depth + 1):
            sup = max(sup, _segment_sum(scale, forms, 2 ** depth))
        if best is None or sup < best:
            best = sup
    return best


@dataclass(frozen=True)
class PairResult:
    x: Vec
    y: Vec
    quotient: float
    intrinsic: float

    @property
    def deviation(self) -> float:
        return abs(self.quotient - self.intrinsic)


@dataclass(frozen=True)
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
        quotient = quotient_distance(probe.subgroup, x, y)
        intrinsic = intrinsic_quotient_distance(probe, x, y)
        results.append(PairResult(vec(x), vec(y), quotient, intrinsic))
    return MetricReport(tuple(results), probe.tolerance)
