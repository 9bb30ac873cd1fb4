"""Exact and numerical verification toolkit for double-sided 2-torus
actions on SU(3): cone-condition checks, isotropy classification,
pointwise transverse-Kahler certificates and cohomology tables."""

from .conegeom import (
    ConeMembership,
    MembershipStatus,
    Vec2,
    find_apex_functional,
    in_cone2,
    smith_invariant_factors,
)
from .weights import (
    ConditionReport,
    DerivedConeData,
    InterpolationSpec,
    WeightSolution,
    WeightSystem,
    check_interpolation_path,
    check_level_set_conditions,
    check_cone_condition,
    cone_data,
    derive,
    enumerate_admissible_systems,
    interpolation_spec,
    cone_condition_holds,
    weights_from_cone_data,
)
from .isotropy import (
    Classification,
    FreenessVerdict,
    IsotropyGroup,
    SupportPattern,
    classify_quotient,
    freeness_check,
    singular_stratum_census,
)
from .quadric import (
    ROUND_DATA,
    LevelSetPoint,
    PointCertificate,
    Tolerances,
    certification_sample,
    certify_point,
    certify_points,
    embed_su3,
    moment_map,
    moment_scale,
    project_points,
    project_to_level,
    random_su3,
)
from .cohomology import (
    BASIC_BETTI,
    DEGENERATE_BETA,
    GENERIC_BETA,
    SU3_DERHAM_BETTI,
    Eisenstein,
    HodgeTable,
    basic_model,
    build_derham_model,
    dga_cohomology,
    hodge_model,
)

__version__ = "0.1.0"
