"""Exact and numerical verification toolkit for double-sided 2-torus
actions on SU(3): cone-condition checks, isotropy classification,
pointwise transverse-Kahler certificates and cohomology tables.

The exact layers load at import. The numerical one, su3kahler.quadric,
and with it numpy, loads when one of its names is first read."""

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
    WeightSolution,
    WeightSystem,
    check_interpolation_path,
    check_level_set_conditions,
    check_cone_condition,
    cone_data,
    derive,
    enumerate_admissible_systems,
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

# The float layer's names, resolved on first access (PEP 562): importing
# su3kahler loads neither su3kahler.quadric nor numpy.
_QUADRIC_NAMES = frozenset({
    "ROUND_DATA",
    "LevelSample",
    "LevelSetPoint",
    "PointCertificate",
    "certification_sample",
    "certify_point",
    "certify_points",
    "moment_map",
    "moment_scale",
    "project_to_level",
})


def __getattr__(name: str):
    if name not in _QUADRIC_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import quadric

    value = globals()[name] = getattr(quadric, name)
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _QUADRIC_NAMES)


# `from su3kahler import *` binds the float layer's names too (and loads it).
__all__ = [name for name in __dir__() if not name.startswith("_")]
