"""Exception types shared across the engine."""


class SuborbifoldError(Exception):
    """Base class for all engine errors."""


class NotFiniteWithinBound(SuborbifoldError):
    def __init__(self, max_order):
        super().__init__(f"group closure exceeded max_order={max_order}")
        self.max_order = max_order


class NonInvertibleGenerator(SuborbifoldError):
    pass


class GroupTooLarge(SuborbifoldError):
    pass


class NotSubgroup(SuborbifoldError):
    pass


class NotNormal(SuborbifoldError):
    pass


class CandidateNotSaturated(SuborbifoldError):
    pass


class CandidateNotFull(SuborbifoldError):
    pass


class PointNotInV(SuborbifoldError):
    pass


class GroupNotAbelian(SuborbifoldError):
    pass


class NonInvariant(SuborbifoldError):
    pass


class ChartMismatch(SuborbifoldError):
    pass


class NotImmersion(SuborbifoldError):
    pass


class NotSubmersion(SuborbifoldError):
    pass


class NotInjectiveOnQuotient(SuborbifoldError):
    """The map identifies orbits: a = ``point`` and g a (g = ``element``) lie
    in the image hull, but no theta(g') maps a to g a. The message names g's
    index and a, so the pair replays from the CLI's output."""

    def __init__(self, message, element, point):
        super().__init__(message)
        self.element = element
        self.point = point


class NotTransverse(SuborbifoldError):
    pass


class NotTransverseToQ(SuborbifoldError):
    pass


class EmptyPreimage(SuborbifoldError):
    """Informational: the preimage is empty (a legitimate outcome)."""


class CodomainNotManifold(SuborbifoldError):
    pass


class RankDeficient(SuborbifoldError):
    pass


class NotLocalized(SuborbifoldError):
    """Codomain chart group is not the isotropy along the target subspace.

    Re-center the chart with ``localize_chart`` and retry.
    """


class NonOrthogonalGroup(SuborbifoldError):
    pass


class PointsNotInSubspace(SuborbifoldError):
    pass


class ParseError(SuborbifoldError):
    pass


class UnresolvedName(SuborbifoldError):
    pass


class DimensionMismatch(SuborbifoldError, ValueError):
    """Shapes of vectors, matrices or subspaces do not fit together."""


class InvalidMetricSetting(SuborbifoldError):
    pass
