"""Joint-space kinematics for one-parameter rational linkages.

The driving revolute joint has a rotation quaternion q0 + qx*i + qy*j
+ qz*k.  Its joint angle theta relates to the curve parameter t through

    t = |q_vec| / tan(theta / 2) + q0

which maps theta = 0 to the point at infinity and theta = pi to q0.
Inverse kinematics starts from the global minimiser of an algebraic
pose distance, found among the real roots of one polynomial and the
point at infinity, and polishes it with a damped Gauss-Newton iteration
on the squared distance between normalized pose representatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .dq import _CONJ_SIGNS, CANONICAL_TOL, STUDY_TOL, TOL, DualQuaternion
from .errors import InvalidPose, NoConvergence, StudyViolation
from .motionpoly import INFINITY, MotionPolynomial, _derivative_rows, _polymul

TWO_PI = 2.0 * math.pi

# Gauss-Newton polish: iterations allowed, residual small enough to stop,
# step halvings per iteration, largest |t| a step may reach, and relative
# stagnation step
_MAX_ITERATIONS = 100
_RESIDUAL_FLOOR = 1e-32
_MAX_HALVINGS = 30
_DIVERGENCE_BOUND = 1e8
_STEP_TOL = 1e-14
# vector and dual vector components of a dual quaternion
_VECTOR_PARTS = [1, 2, 3, 5, 6, 7]


def _axis_parts(axis) -> tuple:
    q = np.asarray(axis, dtype=float)
    if q.shape != (4,):
        raise ValueError("driving axis must be a quaternion of 4 coefficients")
    if not np.all(np.isfinite(q)):
        raise ValueError("driving axis must be finite")
    r = float(np.sqrt(np.dot(q[1:], q[1:])))
    if r <= TOL:
        raise ValueError("driving axis needs a nonzero vector part")
    return float(q[0]), r


def angle_to_param(theta, axis):
    """Curve parameter for a joint angle of the driving revolute axis.

    The angle is taken modulo 2*pi.  Zero maps to INFINITY and pi maps
    exactly to the scalar part of the axis quaternion.
    """
    q0, r = _axis_parts(axis)
    th = float(theta) % TWO_PI
    if th == 0.0:
        return INFINITY
    if th == math.pi:
        return q0
    return r / math.tan(0.5 * th) + q0


def param_to_angle(t, axis) -> float:
    """Joint angle in [0, 2*pi) for a curve parameter, inverse of
    angle_to_param."""
    q0, r = _axis_parts(axis)
    if t is INFINITY:
        return 0.0
    return (2.0 * math.atan2(r, float(t) - q0)) % TWO_PI


@dataclass(frozen=True, eq=False)
class Mechanism:
    """A single-loop linkage driven by one revolute joint.

    Attributes
    ----------
    motion : MotionPolynomial
        Motion of the coupler relative to the base, monic in the usual
        construction from joint axes.
    driving_axis : ndarray, shape (4,)
        Rotation quaternion of the driven joint, used by the angle
        chart.
    tool_home : DualQuaternion
        Displacement from the coupler frame to the tool frame, applied
        on the right of the evaluated motion.
    """

    motion: MotionPolynomial
    driving_axis: np.ndarray
    tool_home: DualQuaternion = None

    def __post_init__(self):
        if not isinstance(self.motion, MotionPolynomial):
            raise TypeError("motion must be a MotionPolynomial")
        if not self.motion.validated:
            raise ValueError("mechanism needs a validated motion polynomial")
        axis = np.array(self.driving_axis, dtype=float)
        _axis_parts(axis)
        axis.flags.writeable = False
        object.__setattr__(self, "driving_axis", axis)
        tool = self.tool_home
        if tool is None:
            tool = DualQuaternion.identity()
        if not isinstance(tool, DualQuaternion):
            tool = DualQuaternion(tool)
        if not tool.is_study(max(self.motion.study_tol, STUDY_TOL)):
            raise StudyViolation("tool_home is not a displacement")
        object.__setattr__(self, "tool_home", tool)


def direct_kinematics(mechanism: Mechanism, theta) -> DualQuaternion:
    """Pose of the tool at a joint angle of the driving axis."""
    t = angle_to_param(theta, mechanism.driving_axis)
    return mechanism.motion.evaluate(t) * mechanism.tool_home


@dataclass(frozen=True)
class IKOptions:
    """Acceptance threshold of inverse_kinematics on the polished residual."""

    success_tol: float = 1e-10


@dataclass(frozen=True)
class IKResult:
    """Converged inverse kinematics solution.

    residual is the squared norm of the normalized pose error at the
    final parameter; residual_trace lists it at the start and at every
    accepted iterate of the polish, so it is non-increasing by
    construction.  branch names the chart of the polish: "direct" for
    t, "reciprocal" for u = 1/t, used when the start is at infinity.
    """

    t: object
    theta: float
    residual: float
    iterations: int
    branch: str
    residual_trace: tuple = field(repr=False, default=())


class _Target:
    """Canonical and unit-norm representatives of a fixed target pose."""

    __slots__ = ("can", "unit")

    def __init__(self, p8: np.ndarray):
        n = math.sqrt(float(np.dot(p8, p8)))
        if n <= TOL:
            raise InvalidPose("target pose is numerically zero")
        self.can = p8 / p8[0] if abs(p8[0]) > CANONICAL_TOL * n else None
        self.unit = (p8 / n) * _first_nonzero_sign(p8)


def _first_nonzero_sign(v: np.ndarray) -> float:
    n = math.sqrt(float(np.dot(v, v)))
    for x in v:
        if abs(x) > TOL * n:
            return -1.0 if x < 0.0 else 1.0
    return 1.0


def _error_terms(c: np.ndarray, cd: np.ndarray, target: _Target):
    """Normalized error E = p_hat - C_hat(t) and derivative of C_hat.

    Uses the canonical representative (division by the first coordinate)
    whenever both the curve value and the target allow it, otherwise the
    unit-norm representative with a sign fixed by the first nonzero
    coordinate; both sides always switch together.  Returns None when
    the curve value vanishes.
    """
    n2 = float(np.dot(c, c))
    if n2 <= 0.0:
        return None
    n = math.sqrt(n2)
    if target.can is not None and abs(c[0]) > CANONICAL_TOL * n:
        chat = c / c[0]
        chatd = (cd * c[0] - c * cd[0]) / (c[0] * c[0])
        err = target.can - chat
    else:
        s = _first_nonzero_sign(c)
        chat = (s / n) * c
        chatd = (s / n) * (cd - c * (float(np.dot(c, cd)) / n2))
        err = target.unit - chat
    return err, chatd


@dataclass
class _Polish:
    t: float
    residual: float
    iterations: int
    trace: tuple


def _residual_at(coeffs, dcoeffs, target, t) -> float:
    c = _kernels.poly_eval8(coeffs, t)
    terms = _error_terms(c, _kernels.poly_eval8(dcoeffs, t), target)
    if terms is None:
        return math.inf
    err, _ = terms
    return float(np.dot(err, err))


def _refine(coeffs, dcoeffs, target, t0) -> _Polish:
    """Damped Gauss-Newton from one start, run to stagnation.

    Stops after _MAX_ITERATIONS accepted steps, when no step halving
    lowers the residual before the step shrinks below _STEP_TOL (the
    full step is always tried), or when a trial step would leave
    |t| <= _DIVERGENCE_BOUND.
    """
    t = float(t0)
    c = _kernels.poly_eval8(coeffs, t)
    terms = _error_terms(c, _kernels.poly_eval8(dcoeffs, t), target)
    if terms is None:
        return _Polish(t, math.inf, 0, ())
    err, chatd = terms
    f = float(np.dot(err, err))
    trace = [f]
    iters = 0
    while iters < _MAX_ITERATIONS and f > _RESIDUAL_FLOOR:
        denom = float(np.dot(chatd, chatd))
        if denom <= 1e-300:
            break
        step = float(np.dot(chatd, err)) / denom
        lam = 1.0
        accepted = False
        for _ in range(_MAX_HALVINGS + 1):
            if lam < 1.0 and abs(lam * step) <= _STEP_TOL * (1.0 + abs(t)):
                # a shorter step could not move t beyond the step tolerance
                break
            t_try = t + lam * step
            if abs(t_try) > _DIVERGENCE_BOUND:
                break
            c_try = _kernels.poly_eval8(coeffs, t_try)
            terms_try = _error_terms(
                c_try, _kernels.poly_eval8(dcoeffs, t_try), target
            )
            if terms_try is not None:
                err_try, chatd_try = terms_try
                f_try = float(np.dot(err_try, err_try))
                if f_try < f:
                    accepted = True
                    break
            lam *= 0.5
        if not accepted:
            break
        moved = abs(t_try - t)
        t = t_try
        f = f_try
        err = err_try
        chatd = chatd_try
        trace.append(f)
        iters += 1
        if moved <= _STEP_TOL * (1.0 + abs(t)):
            break
    return _Polish(t, f, iters, tuple(trace))


def _sum_of_squares(rows: np.ndarray) -> np.ndarray:
    """Ascending coefficients of the sum of the squares of the columns
    of rows, each column a real polynomial in ascending powers."""
    n = rows.shape[0]
    out = np.zeros(2 * n - 1)
    for i, row in enumerate(rows):
        out[i : i + n] += rows @ row
    return out


def _global_start(coeffs: np.ndarray, p8: np.ndarray):
    """Global minimiser of N(t)/D(t) over the projective parameter line.

    V(t) = C(t) * conj(p); N sums the squares of V's vector and dual
    vector parts, which vanish where C(t) is a multiple of p, and
    D(t) = |C(t)|^2 |p|^2.  The dual scalar would vanish there too for
    exact displacements; leaving it out keeps a Study defect of rounded
    data from shifting the minimiser.  The candidates are the real parts
    of all roots of N'D - ND', a superset of the real critical points,
    and infinity, where N/D tends to the ratio of the leading
    coefficients.  Returns INFINITY or a finite parameter.
    """
    v = _polymul(coeffs, (p8 * _CONJ_SIGNS)[None, :])
    num = _sum_of_squares(v[:, _VECTOR_PARTS])
    den = _sum_of_squares(coeffs) * float(np.dot(p8, p8))
    crit = np.convolve(_derivative_rows(num), den) - np.convolve(
        num, _derivative_rows(den)
    )
    # the top coefficient of N'D - ND' cancels in exact arithmetic
    ts = np.roots(crit[-2::-1]).real
    best_value = num[-1] / den[-1]
    best = INFINITY
    if ts.size:
        values = np.polyval(num[::-1], ts) / np.polyval(den[::-1], ts)
        k = int(np.argmin(values))
        if values[k] <= best_value:
            best = float(ts[k])
    return best


def inverse_kinematics(
    mechanism: Mechanism, pose: DualQuaternion, options: IKOptions = None
) -> IKResult:
    """Joint angle of the driving axis that reproduces a tool pose.

    The start is the global minimiser of an algebraic pose distance
    N(t)/D(t) on the projective parameter line, taken from the real
    roots of one polynomial and the point at infinity.  A damped
    Gauss-Newton iteration in the normalized metric then polishes it:
    in the t chart from a finite start, and from u = 0 in the
    reciprocal chart u = 1/t when the start is at infinity (joint angle
    zero).  The result is accepted when the polished residual is at most
    success_tol.

    Raises InvalidPose for targets that are clearly not displacements
    and NoConvergence, carrying the polished iterate as best, when the
    residual stays above success_tol.  The pose gate allows a hundredfold
    of the mechanism's Study tolerance: evaluating a curve with slightly
    perturbed coefficients amplifies the norm defect pointwise, so poses
    produced by such a mechanism's own direct kinematics would otherwise
    be rejected.
    """
    opt = options if options is not None else IKOptions()
    if not isinstance(pose, DualQuaternion):
        pose = DualQuaternion(pose)
    tol = min(0.1, 100.0 * max(mechanism.motion.study_tol, STUDY_TOL))
    if not pose.is_study(tol):
        raise InvalidPose(
            "target pose is not a displacement (Study defect above %.1e)" % tol
        )
    # divide the tool out on the right; the scale of conj(tool) is
    # irrelevant because representatives are normalized
    curve_target = _kernels.dq_mul8(
        pose.coeffs, mechanism.tool_home.conjugate().coeffs
    )
    target = _Target(curve_target)
    coeffs = mechanism.motion.coeffs

    start = _global_start(coeffs, curve_target)
    reciprocal = start is INFINITY
    if reciprocal:
        coeffs = np.ascontiguousarray(coeffs[::-1])
        start = 0.0
    run = _refine(coeffs, _derivative_rows(coeffs), target, start)
    t = run.t
    if reciprocal:
        t = INFINITY if t == 0.0 else 1.0 / t
    result = IKResult(
        t=t,
        theta=param_to_angle(t, mechanism.driving_axis),
        residual=run.residual,
        iterations=run.iterations,
        branch="reciprocal" if reciprocal else "direct",
        residual_trace=run.trace,
    )
    if run.residual <= opt.success_tol:
        return result
    raise NoConvergence(
        "inverse kinematics did not reach success_tol=%.1e (best residual %r)"
        % (opt.success_tol, run.residual),
        best=result,
    )
