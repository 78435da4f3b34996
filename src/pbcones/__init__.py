"""Exact intersection rings, curve/Kahler cones and blow-down certificates
for projective bundles over curves."""

from .bundles import (
    BundleSpec,
    Decomposable,
    SemiStable,
    SurfaceGenus,
    decomposable,
    degree,
    dual,
    is_semistable,
    rank,
    semi_stable,
    semistable_exists,
    slope,
    sym_power,
    sym_rank_degree,
    twist,
)
from .cohomology import (
    BundleContext,
    Convention,
    CurveClass,
    DivisorClass,
    convert_convention,
    eta_class,
    forward_ratio,
    in_forward_cone,
    line_class,
    pair,
    ratio,
    section_class,
    top_power,
    topological_type,
    twist_class,
)
from .cones import (
    ConeDescription,
    Exactness,
    NoSuchClassError,
    RestrictedRatioResult,
    SemistablePlusLine,
    admissibility_bound,
    kahler_class_for_ratio,
    kahler_cone,
    kahler_cone_ratio,
    kahler_membership,
    matching_bundle,
    plus_trivial_line,
    restrict_to_divisor,
    restricted_ratio,
)
from .blowdown import (
    BlowdownVerdict,
    ExceptionalDivisorData,
    MatchingTripleCertificate,
    NotAdmissibleError,
    Ruling,
    VerdictKind,
    blowdown_verdict_dim6,
    build_matching_triple,
    is_admissible,
    refibred_along_second_ruling,
    validate_certificate,
)

__version__ = "0.1.0"
