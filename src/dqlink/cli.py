"""Command line interface.

Subcommands operate on a mechanism file and print deterministic text:

    dqlink dk MECH --theta 1.0472
    dqlink ik MECH --pose c0 c1 c2 c3 c4 c5 c6 c7
    dqlink arclen MECH --theta0 A --theta1 B [--tool X Y Z]
    dqlink traj MECH --theta0 A --theta1 B --duration T --freq F \
        --mode equidistant [--out FILE] [--format csv]

Angles are radians unless --degrees is given.  Exit codes: 0 success,
2 usage errors, 3 file or schema errors, 4 validation errors, 5
numerical failures.
"""

from __future__ import annotations

import argparse
import math
import re
import sys

from .dq import DualQuaternion
from .errors import (
    DegenerateDisplacement,
    InvalidPose,
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
from .io import load_mechanism, write_profile_csv, write_profile_structured
from .kinematics import IKOptions, direct_kinematics, inverse_kinematics
from .motionpoly import INFINITY
from .trajectory import (
    ARC_DIRECTIONS,
    arc_length_between,
    equidistant_profile,
    linear_profile,
    quintic_profile,
)

_FILE_ERRORS = (ParseError, SchemaError, OSError)
_VALIDATION_ERRORS = (
    StudyViolation,
    InvalidPose,
    DegenerateDisplacement,
    ZeroElement,
    ZeroDirection,
    ValueError,
)
_NUMERICAL_ERRORS = (NoConvergence, PoleOnPath, QuadratureFailure, OnBorderOfDomain)


def _angle(value: float, degrees: bool) -> float:
    return math.radians(value) if degrees else value


def _cmd_dk(args) -> int:
    mech = load_mechanism(args.mechanism)
    pose = direct_kinematics(mech, _angle(args.theta, args.degrees))
    print(" ".join(repr(float(v)) for v in pose.canonical().coeffs))
    return 0


def _cmd_ik(args) -> int:
    mech = load_mechanism(args.mechanism)
    pose = DualQuaternion(args.pose)
    options = IKOptions(success_tol=args.success_tol)
    result = inverse_kinematics(mech, pose, options)
    print("theta=%.6f" % result.theta)
    print("t=%s" % ("INFINITY" if result.t is INFINITY else repr(float(result.t))))
    print("residual=%r" % (float(result.residual),))
    print("branch=%s" % result.branch)
    print("iterations=%d" % result.iterations)
    return 0


def _cmd_arclen(args) -> int:
    mech = load_mechanism(args.mechanism)
    length = arc_length_between(
        mech,
        _angle(args.theta0, args.degrees),
        _angle(args.theta1, args.degrees),
        tool=tuple(args.tool),
        direction=args.arc,
    )
    print(repr(float(length)))
    return 0


def _cmd_traj(args) -> int:
    mech = load_mechanism(args.mechanism)
    angles = (_angle(args.theta0, args.degrees), _angle(args.theta1, args.degrees))
    sweep = (*angles, args.duration, args.freq)
    if args.mode == "equidistant":
        profile = equidistant_profile(
            mech, *sweep, tool=tuple(args.tool), direction=args.arc, blend=args.blend
        )
    else:
        joint_sweep = linear_profile if args.mode == "linear" else quintic_profile
        profile = joint_sweep(*sweep, args.arc)
    writer = write_profile_csv if args.format == "csv" else write_profile_structured
    writer(profile, sys.stdout if args.out is None else args.out)
    return 0


def _finite(text: str) -> float:
    """argparse type of every numeric option: a float that is not nan or inf."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError("expected a finite number, got %r" % text)
    return value


class _Parser(argparse.ArgumentParser):
    """Argument parser that reads negative numbers in exponent form.

    argparse takes an argument such as -5e-05 for an unknown option;
    widening its negative-number pattern keeps it a value.  Subparsers
    are built from the same class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dqlink",
        description="kinematics and trajectory planning for rational linkages",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    dk = sub.add_parser("dk", help="pose of the tool at a joint angle")
    dk.add_argument("mechanism", help="mechanism file")
    dk.add_argument("--theta", type=_finite, required=True, help="joint angle")
    dk.add_argument("--degrees", action="store_true", help="angles in degrees")
    dk.set_defaults(func=_cmd_dk)

    ik = sub.add_parser("ik", help="joint angle that reaches a pose")
    ik.add_argument("mechanism", help="mechanism file")
    ik.add_argument(
        "--pose",
        type=_finite,
        nargs=8,
        required=True,
        metavar="C",
        help="8 dual quaternion coefficients",
    )
    ik.add_argument("--success-tol", type=_finite, default=IKOptions().success_tol)
    ik.set_defaults(func=_cmd_ik)

    arclen = sub.add_parser("arclen", help="tool point arc length between angles")
    arclen.add_argument("mechanism", help="mechanism file")
    arclen.add_argument("--theta0", type=_finite, required=True)
    arclen.add_argument("--theta1", type=_finite, required=True)
    arclen.add_argument("--tool", type=_finite, nargs=3, default=[0.0, 0.0, 0.0])
    arclen.add_argument("--arc", choices=ARC_DIRECTIONS, default="short")
    arclen.add_argument("--degrees", action="store_true")
    arclen.set_defaults(func=_cmd_arclen)

    traj = sub.add_parser("traj", help="sampled joint trajectory")
    traj.add_argument("mechanism", help="mechanism file")
    traj.add_argument("--theta0", type=_finite, required=True)
    traj.add_argument("--theta1", type=_finite, required=True)
    traj.add_argument("--duration", type=_finite, required=True)
    traj.add_argument("--freq", type=_finite, required=True)
    traj.add_argument(
        "--mode",
        choices=("equidistant", "linear", "quintic"),
        default="equidistant",
    )
    traj.add_argument("--tool", type=_finite, nargs=3, default=[0.0, 0.0, 0.0])
    traj.add_argument("--arc", choices=ARC_DIRECTIONS, default="short")
    traj.add_argument("--blend", action="store_true", help="ease in and out")
    traj.add_argument("--out", default=None, help="output file, default stdout")
    traj.add_argument("--format", choices=("csv", "structured"), default="csv")
    traj.add_argument("--degrees", action="store_true")
    traj.set_defaults(func=_cmd_traj)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _FILE_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except _VALIDATION_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 4
    except _NUMERICAL_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
