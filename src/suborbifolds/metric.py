"""Numeric check that the quotient metric and the induced intrinsic metric
coincide on an invariant subspace.

Everything stays exact (rational squared distances, exact minima) until
the final square roots. Straight segments suffice as candidate paths
because the subspace is affine and the metric flat. Exact refinement sums
are monotone in the partition depth, mirroring the sup over partitions;
the float sums computed here are not, so every depth is evaluated (see
``intrinsic_quotient_distance``).
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
from .groups import FiniteMatrixGroup, Subgroup
from .linalg import (
    AffineSubspace,
    Vec,
    contains_point,
    identity as identity_matrix,
    mat_mul,
    mat_vec,
    transpose,
    vec,
    vec_add,
    vec_scale,
)

DEFAULT_DEPTH = 8
# Each level doubles the segments per pair, so a check must stay shallow.
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
        if not self.tolerance >= 0:  # also rejects NaN
            raise InvalidMetricSetting(f"tolerance must be >= 0, got {self.tolerance}")
        _require_orthogonal(self.group)
        for x, y in self.sample_pairs:
            if not (contains_point(self.subspace, x)
                    and contains_point(self.subspace, y)):
                raise PointsNotInSubspace(f"sample pair ({x}, {y}) leaves the subspace")

    def with_settings(self, depth: int | None = None,
                      tolerance: float | None = None) -> "MetricProbe":
        """This probe with the given depth and tolerance, where they are not None."""
        changes = {k: v for k, v in (("partition_depth", depth), ("tolerance", tolerance))
                   if v is not None}
        return replace(self, **changes) if changes else self


def _require_orthogonal(group) -> None:
    ident = identity_matrix(group.parent.ambient_dim)
    for i, m in zip(group.members, group.matrices):
        if mat_mul(transpose(m), m) != ident:
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


def _segment_sum(matrices, start: Vec, end: Vec, pieces: int) -> float:
    total = 0.0
    prev = start
    for i in range(1, pieces + 1):
        t = Fraction(i, pieces)
        current = vec_add(vec_scale(1 - t, start), vec_scale(t, end))
        total += math.sqrt(_min_orbit_sq_dist(matrices, prev, current))
        prev = current
    return total


def intrinsic_quotient_distance(probe: MetricProbe, x, y) -> float:
    """Length-infimum distance induced by the ambient quotient metric.

    For each subgroup element h the straight segment from x to h y is
    refined dyadically up to the probe depth; the sup over depths is
    taken, then the min over h.

    Exact refinement sums can only grow with depth, but the float sums
    computed here need not, so every depth is evaluated and the largest
    kept. For the corpus pair (1/2, -1/3) on the rotation line this reads
    0.16666666666666677, while the deepest level alone reads
    0.1666666666666664.
    """
    x, y = vec(x), vec(y)
    if not (contains_point(probe.subspace, x) and contains_point(probe.subspace, y)):
        raise PointsNotInSubspace("query points must lie in the subspace")
    best = None
    for h in probe.subgroup.members:
        target = mat_vec(probe.group.matrix_of(h), y)
        sup = 0.0
        for depth in range(probe.partition_depth + 1):
            sup = max(sup, _segment_sum(probe.group.matrices, x, target, 2 ** depth))
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
    chart = ChartModel(probe.group.ambient_dim, probe.group)
    cand = SuborbifoldCandidate(chart, probe.subgroup, probe.subspace)
    if not check_saturated(cand).holds:
        raise CandidateNotSaturated("metric lemma requires a saturated candidate")
    results = []
    for x, y in probe.sample_pairs:
        quotient = quotient_distance(probe.subgroup, x, y)
        intrinsic = intrinsic_quotient_distance(probe, x, y)
        results.append(PairResult(vec(x), vec(y), quotient, intrinsic))
    return MetricReport(tuple(results), probe.tolerance)
