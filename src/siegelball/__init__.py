"""Automorphisms of the unit ball in Siegel coordinates.

A small numerical laboratory for the boundary geometry of the unit ball of
C^n: the Cayley transform onto the Siegel upper half-space, the
linear-fractional family of origin-fixing boundary automorphisms, jet
extraction by discrete Cauchy integrals with parameter recovery, two
families of sphere-compressing coordinate maps with closed-form norm
identities, and a deterministic verification CLI.
"""

from .autgroup import (
    AutomorphismPoleError,
    AutParams,
    apply,
    as_holo_map,
    ball_automorphism,
    compose,
    denominator,
    factor_apply,
    factors,
    identity_params,
    invert,
    param_distance,
    random_params,
)
from .geometry import (
    CayleyPoleError,
    SiegelPoint,
    ball_defect,
    cayley,
    inverse_cayley,
    sample_ball,
    sample_siegel_boundary,
    sample_sphere,
    siegel_defect,
)
from .hilbert import (
    SingularMatrixError,
    haar_unitary,
    unitarity_defect,
)
from .jets import (
    DiffConfig,
    Jet2,
    JetRecoveryError,
    NotOriginFixingError,
    automorphism_jet2,
    cauchy_derivative,
    check_levi,
    check_polarization,
    extract_jet2,
    recover_params,
)
from .maps import (
    INFINITY,
    HoloMap,
    WhitneySpec,
    homog_sum_map,
    homog_sum_norm_squared,
    shift_map,
    whitney_map,
    whitney_norm_identity,
)
from .verify import CheckResult, RunConfig, report, run

__version__ = "0.1.0"

__all__ = [
    "AutParams",
    "AutomorphismPoleError",
    "CayleyPoleError",
    "CheckResult",
    "DiffConfig",
    "HoloMap",
    "INFINITY",
    "Jet2",
    "JetRecoveryError",
    "NotOriginFixingError",
    "RunConfig",
    "SiegelPoint",
    "SingularMatrixError",
    "WhitneySpec",
    "apply",
    "as_holo_map",
    "automorphism_jet2",
    "ball_automorphism",
    "ball_defect",
    "cauchy_derivative",
    "cayley",
    "check_levi",
    "check_polarization",
    "compose",
    "denominator",
    "extract_jet2",
    "factor_apply",
    "factors",
    "haar_unitary",
    "homog_sum_map",
    "homog_sum_norm_squared",
    "identity_params",
    "inverse_cayley",
    "invert",
    "param_distance",
    "random_params",
    "recover_params",
    "report",
    "run",
    "sample_ball",
    "sample_siegel_boundary",
    "sample_sphere",
    "shift_map",
    "siegel_defect",
    "unitarity_defect",
    "whitney_map",
    "whitney_norm_identity",
]
