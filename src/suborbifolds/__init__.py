"""Exact classification of affine suborbifold candidates in local models.

A local model is R^n with a finite rational matrix group. The package
decides, with exact rational arithmetic, whether a candidate (subgroup,
invariant affine subspace) is saturated, full, or embedded; computes
isotropy fingerprints and induced charts; and builds transverse
intersections, preimages, graphs, images, and fibered products with
their exact dimension formulas.
"""
from .classify import (
    ChartModel,
    ClassificationReport,
    EmbeddedResult,
    FullnessWitness,
    InducedChart,
    SaturationWitness,
    SuborbifoldCandidate,
    Verdict,
    abelian_omega_isotropy,
    chart_from_group,
    check_embedded,
    check_full,
    check_saturated,
    classify,
    contained_in_regular_part,
    full_obstruction_probe,
    induced_chart,
    isotropy_point,
    isotropy_sub_point,
    localize_chart,
)
from .errors import SuborbifoldError
from .groups import (
    Fingerprint,
    FiniteMatrixGroup,
    GroupHom,
    NoComplementCertificate,
    Subgroup,
    all_subgroups,
    find_complement,
    generate_group,
    iso_fingerprint,
    pointwise_stabilizer,
    quotient_group,
    realify,
    stabilizer,
    trivial_group,
)
from .linalg import (
    AffineSubspace,
    affine_subspace,
    intersect,
    mat,
    rat,
    rat_str,
    single_point,
    solve_affine,
    vec,
    whole_space,
)
from .maps import (
    EquivariantAffineMap,
    fibered_product,
    graph_suborbifold,
    image_suborbifold,
    intersect_full,
    is_immersion,
    is_submersion,
    preimage_suborbifold,
    product_chart,
    regular_value_preimage,
    transverse_candidates,
    trivial_hom,
)
from .metric import (
    MetricProbe,
    MetricReport,
    intrinsic_quotient_distance,
    lemma_metrics_check,
    quotient_distance,
)
from .scene import SceneFile, parse_scene

__version__ = "1.0.0"
