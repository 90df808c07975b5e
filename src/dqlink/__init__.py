"""Kinematics and trajectory planning for rational single-loop linkages.

Rigid displacements are dual quaternions, one-parameter motions are
polynomials with dual quaternion coefficients, and the driving joint
angle relates to the curve parameter through a tangent half-angle
chart.  On top of that sit direct and inverse kinematics and arc-length
based trajectory profiles for a tool point.
"""

from .dq import (
    CANONICAL_TOL,
    STUDY_TOL,
    TOL,
    DualQuaternion,
    line_from_point_direction,
)
from .errors import (
    DegenerateDisplacement,
    InvalidPose,
    KinematicsError,
    NoConvergence,
    OnBorderOfDomain,
    ParseError,
    PoleOnPath,
    QuadratureFailure,
    SchemaError,
    StudyViolation,
    ZeroDirection,
    ZeroElement,
)
from .io import (
    load_mechanism,
    save_mechanism,
    write_profile_csv,
    write_profile_structured,
)
from .kinematics import (
    IKOptions,
    IKResult,
    Mechanism,
    angle_to_param,
    direct_kinematics,
    inverse_kinematics,
    param_to_angle,
)
from .motionpoly import INFINITY, MotionPolynomial, RationalPointPath
from .trajectory import (
    PathSegmentation,
    TrajectoryProfile,
    arc_length,
    arc_length_between,
    equidistant_params,
    equidistant_profile,
    linear_profile,
    quintic_profile,
    quintic_time_scaling,
    resolve_arc,
)

__version__ = "0.1.0"

# the kernels are plain numpy; the name stays for callers that report it
BACKEND = "numpy"

__all__ = [
    "BACKEND",
    "CANONICAL_TOL",
    "STUDY_TOL",
    "TOL",
    "DualQuaternion",
    "line_from_point_direction",
    "KinematicsError",
    "DegenerateDisplacement",
    "InvalidPose",
    "NoConvergence",
    "OnBorderOfDomain",
    "ParseError",
    "PoleOnPath",
    "QuadratureFailure",
    "SchemaError",
    "StudyViolation",
    "ZeroDirection",
    "ZeroElement",
    "load_mechanism",
    "save_mechanism",
    "write_profile_csv",
    "write_profile_structured",
    "IKOptions",
    "IKResult",
    "Mechanism",
    "angle_to_param",
    "direct_kinematics",
    "inverse_kinematics",
    "param_to_angle",
    "INFINITY",
    "MotionPolynomial",
    "RationalPointPath",
    "PathSegmentation",
    "TrajectoryProfile",
    "arc_length",
    "arc_length_between",
    "equidistant_params",
    "equidistant_profile",
    "linear_profile",
    "quintic_profile",
    "quintic_time_scaling",
    "resolve_arc",
    "__version__",
]
