"""Joint-space kinematics for one-parameter rational linkages.

The driving revolute joint has a rotation quaternion q0 + qx*i + qy*j
+ qz*k.  Its joint angle theta relates to the curve parameter t through

    t = |q_vec| / tan(theta / 2) + q0

which maps theta = 0 to the point at infinity and theta = pi to q0.
A mechanism builds its tool motion C(t) * tool_home once, and rewrites
it once in tau = cot(theta/2), t = q0 + r*tau, the one place where the
driving axis meets the motion: the polish below and the tool paths of
dqlink.trajectory evaluate it in the one fixed chart (cos(theta/2) :
sin(theta/2)).  Inverse kinematics solves a pose against the tool
motion: it starts from the global minimiser of an algebraic pose
distance N/D, in t, and polishes it with a damped Gauss-Newton
iteration on normalized pose representatives, in the half angle psi =
theta/2, whose chart passes through home.  N/D
is a ratio of two quadratic forms in the monomial vector (1, t, ..,
t^n), so the smallest eigenvalue of their pencil bounds it from below
on the whole parameter line.  A pose that the motion reaches once,
away from home, takes its start from that eigenvalue's eigenvector,
certified as the global minimiser: one symmetric eigenvalue solve of
size n + 1.  Every other pose takes the companion start, among the real
roots of one polynomial of degree 4n - 2 and the point at infinity: one
eigenvalue solve of that size and one Vandermonde product.  Both starts
read the coefficients of V(t) = C(t) * conj(p), which are linear in the
pose p: the mechanism keeps that one linear map, and a solve forms them
with one matrix product.  It also keeps the one form of the polish,
each of whose trials is one matrix product.  The answer is the angle
theta, and its t is derived from it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from ._tolerances import CANONICAL_TOL
from ._tolerances import RESIDUAL_FLOOR as _RESIDUAL_FLOOR, SLOPE_FLOOR as _SLOPE_FLOOR
from ._tolerances import START_DELTA as _START_DELTA, START_GAP as _START_GAP
from ._tolerances import STEP_TOL as _STEP_TOL, SUCCESS_TOL, TOL, pose_gate, study_floor
from .dq import _CONJ_SIGNS, DualQuaternion
from .dq import _binary_normalized, _first_nonzero_sign, _is_study
from .errors import InvalidPose, NoConvergence, StudyViolation
from .motionpoly import INFINITY, MotionPolynomial, _coeff_array

TWO_PI = 2.0 * math.pi

# Gauss-Newton polish: iterations allowed and step halvings per iteration;
# its tolerances are those of dqlink._tolerances
_MAX_ITERATIONS = 100
_MAX_HALVINGS = 30
# bits after the binary point to which a certified start psi is rounded
_START_BITS = 40
# vector and dual vector components of a dual quaternion
_VECTOR_PARTS = [1, 2, 3, 5, 6, 7]


def _axis_parts(axis) -> tuple:
    q = np.asarray(axis, dtype=float)
    if q.shape != (4,):
        raise ValueError("driving axis must be a quaternion of 4 coefficients")
    # |q_vec| of exactly power-of-two scaled entries, scaled back; entries
    # below 2**1023 keep it below sqrt(3) * 2**1023, inside the float range
    e = math.frexp(float(np.max(np.abs(q[1:]))))[1]
    if not (np.all(np.isfinite(q)) and e <= 1023):
        raise ValueError("driving axis must be finite, with entries below 2**1023")
    v = np.ldexp(q[1:], -e)
    r = math.ldexp(math.sqrt(float(np.dot(v, v))), e)
    if r <= TOL * math.hypot(q[0], r):
        raise ValueError("driving axis needs a nonzero vector part")
    return float(q[0]), r


def _angle_to_t(theta, q0: float, r: float) -> float:
    th = float(theta) % TWO_PI
    if math.isnan(th):
        raise ValueError("theta must be finite, got %r" % (float(theta),))
    if th == 0.0:
        return INFINITY
    if th == math.pi:
        return q0
    return r / math.tan(0.5 * th) + q0


def _t_to_angle(t, q0: float, r: float) -> float:
    # atan2(r, +-inf) is 0 or pi, so either infinity is the angle 0
    theta = (2.0 * math.atan2(r, float(t) - q0)) % TWO_PI
    if math.isnan(theta):
        raise ValueError("t must not be nan")
    return theta


def angle_to_param(theta, axis) -> float:
    """Curve parameter for a joint angle of the driving revolute axis.

    The angle is taken modulo 2*pi.  Zero maps to INFINITY, which is
    math.inf, and pi maps exactly to the scalar part of the axis
    quaternion.  An angle that is not finite raises ValueError.
    """
    return _angle_to_t(theta, *_axis_parts(axis))


def param_to_angle(t, axis) -> float:
    """Joint angle in [0, 2*pi) for a curve parameter, inverse of
    angle_to_param; either infinity gives 0 and nan raises ValueError."""
    return _t_to_angle(t, *_axis_parts(axis))


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

    The motion has passed the norm check of MotionPolynomial, with a
    study_tol that is finite and > 0.  The coefficients of the tool motion
    C(t) * tool_home, with tool_home scaled exactly by a power of two, are
    rewritten once in tau = cot(theta/2) into the private read-only array
    _tool_coeffs (_cot_coeffs); the read-only form of both inverse
    kinematics starts, from the coefficients in t, with its one
    pose-linear map, into _ik_form (_start_form), and the read-only
    matrix of the polish in the half angle, from those in tau, into
    _polish (_polish_form); the scalar part q0 and vector length r of the
    driving axis go into _axis.  The tool path chart of
    dqlink.trajectory, which depends only on _tool_coeffs, is built on
    first use into the _chart slot.
    """

    motion: MotionPolynomial
    driving_axis: np.ndarray
    tool_home: DualQuaternion = None
    _tool_coeffs: np.ndarray = field(default=None, init=False, repr=False)
    _ik_form: tuple = field(default=None, init=False, repr=False)
    _polish: np.ndarray = field(default=None, init=False, repr=False)
    _axis: tuple = field(default=None, init=False, repr=False)
    _chart: tuple = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.motion, MotionPolynomial):
            raise TypeError("motion must be a MotionPolynomial")
        axis = np.array(self.driving_axis, dtype=float)
        object.__setattr__(self, "_axis", _axis_parts(axis))
        axis.flags.writeable = False
        object.__setattr__(self, "driving_axis", axis)
        tool = DualQuaternion.identity() if self.tool_home is None else self.tool_home
        if not isinstance(tool, DualQuaternion):
            tool = DualQuaternion(tool)
        if not tool.is_study(study_floor(self.motion.study_tol)):
            raise StudyViolation("tool_home is not a displacement")
        object.__setattr__(self, "tool_home", tool)
        coeffs = _kernels.dq_mul8(self.motion.coeffs, _binary_normalized(tool.coeffs))
        coeffs = _coeff_array(coeffs)
        object.__setattr__(self, "_tool_coeffs", _cot_coeffs(coeffs, *self._axis))
        object.__setattr__(self, "_ik_form", _start_form(coeffs))
        object.__setattr__(self, "_polish", _polish_form(self._tool_coeffs))


def direct_kinematics(mechanism: Mechanism, theta) -> DualQuaternion:
    """Pose of the tool at a joint angle of the driving axis."""
    t = _angle_to_t(theta, *mechanism._axis)
    return mechanism.motion.evaluate(t) * mechanism.tool_home


@dataclass(frozen=True)
class IKOptions:
    """Acceptance threshold of inverse_kinematics on the polished residual.

    success_tol must be finite and not negative (ValueError otherwise).
    """

    success_tol: float = SUCCESS_TOL

    def __post_init__(self):
        if not (math.isfinite(self.success_tol) and self.success_tol >= 0.0):
            raise ValueError(
                "success_tol must be finite and >= 0, got %r" % (self.success_tol,)
            )


@dataclass(frozen=True)
class IKResult:
    """Converged inverse kinematics solution.

    residual is the squared norm of the normalized pose error at the
    final angle; residual_trace lists it at the start and at every
    accepted iterate of the polish, so it is non-increasing by
    construction.  theta lies in [0, 2*pi).  t is derived from it, and is
    INFINITY (math.inf) itself at theta = 0.  branch names whether the
    start was home: "reciprocal" when it was, "direct" otherwise.
    """

    t: float
    theta: float
    residual: float
    iterations: int
    branch: str
    residual_trace: tuple = field(repr=False, default=())


class _Target:
    """Canonical and unit-norm representatives of a fixed, nonzero
    target pose; the unit-norm one is formed on first use."""

    def __init__(self, p8: np.ndarray):
        self._p8, self._n = p8, math.sqrt(float(np.dot(p8, p8)))
        self.can = p8 / p8[0] if abs(p8[0]) > CANONICAL_TOL * self._n else None

    @functools.cached_property
    def unit(self) -> np.ndarray:
        return (self._p8 / self._n) * _first_nonzero_sign(self._p8, self._n)


def _error_and_slope(c: np.ndarray, cd: np.ndarray, target: _Target):
    """Normalized error E = p_hat - C_hat(t), and a function of no
    arguments that forms the derivative of C_hat.

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
    c0 = c.item(0)
    if target.can is not None and abs(c0) > CANONICAL_TOL * n:
        return target.can - c / c0, lambda: (cd * c0 - c * cd.item(0)) / (c0 * c0)
    k = _first_nonzero_sign(c, n) / n
    return target.unit - k * c, lambda: k * (cd - c * (float(np.dot(c, cd)) / n2))


def _cot_coeffs(coeffs: np.ndarray, q0: float, r: float) -> np.ndarray:
    """Read-only coefficients D_k of the motion in tau = cot(theta/2).

    The one place where the driving axis meets the motion: with t = q0 +
    r*tau, C(t) = sum of C_k t**k is rewritten as D(tau) = sum of D_k
    tau**k, so that the half angle chart of every caller is the fixed
    (a : s) = (cos(theta/2) : sin(theta/2)), tau = a/s, in which D(a, s)
    = sum of D_k a**k s**(n - k) is the leading coefficient at home, s =
    0.  q0 and r are first scaled by the power of two 2**-e of the
    larger of r and |q0|, and C_k by 2**(e k), so that t = 2**e (q0' +
    r' tau); the whole is kept times 2**-max(e n, 0), which changes no
    projective pose, so that no coefficient overflows.  Horner's rule in
    q0' + r' tau then gives D, exactly where q0 = 0 and r is a power of
    two.
    """
    e = math.frexp(max(r, abs(q0)))[1]
    n = len(coeffs) - 1
    c = np.ldexp(coeffs, e * np.arange(n + 1)[:, None] - max(e * n, 0))
    q0, r = math.ldexp(q0, -e), math.ldexp(r, -e)
    d = np.zeros_like(c)
    for ck in c[::-1]:
        d[1:], d[0] = q0 * d[1:] + r * d[:-1], q0 * d[0] + ck
    return _coeff_array(d)


def _polish_form(c: np.ndarray) -> np.ndarray:
    """Read-only matrix M of the polish in the half angle psi.

    c holds the tool motion's coefficients D_k in tau = cot(psi)
    (_cot_coeffs).  With a = cos(psi), s = sin(psi) and b the monomials
    a**j s**(n-1-j) of degree n - 1, [D | dD/dpsi] of the chart form D(a,
    s) is the vector [a**k s**(n-k) | -s b | a b] times the (3n + 1) x 16
    matrix M.
    """
    n = len(c) - 1
    k = np.arange(1.0, n + 1)[:, None]
    m = np.zeros((3 * n + 1, 16))
    m[: n + 1, :8], m[n + 1 : 2 * n + 1, 8:], m[2 * n + 1 :, 8:] = c, k * c[1:], k[::-1] * c[:-1]
    m.flags.writeable = False
    return m


def _residual_terms(m, target, psi) -> tuple:
    """Squared error f, error and slope function of _error_and_slope at
    psi, from one product of the matrix M of _polish_form with a vector
    of Python float products.

    f is inf, and the other two None, where the curve value vanishes.
    """
    cos, sin = math.cos(psi), math.sin(psi)
    pa, ps = [1.0], [1.0]
    for _ in range(len(m) // 3):
        pa.append(pa[-1] * cos)
        ps.append(ps[-1] * sin)
    b = [x * y for x, y in zip(pa, ps[-2::-1])]
    v = [x * y for x, y in zip(pa, ps[::-1])] + [-sin * x for x in b] + [cos * x for x in b]
    v = np.dot(v, m)
    terms = _error_and_slope(v[:8], v[8:], target)
    if terms is None:
        return math.inf, None, None
    err, slope = terms
    return float(np.dot(err, err)), err, slope


def _refine(form, target, psi0) -> tuple:
    """Damped Gauss-Newton in the half angle psi from one start, run to
    stagnation.

    Returns the final psi, its residual, the accepted steps and the
    residual trace; the slope of C_hat is formed only at an iterate that
    a step follows.  Stops after _MAX_ITERATIONS accepted steps, after an
    accepted step of at most _STEP_TOL, when no step halving lowers the
    residual before the step shrinks to _STEP_TOL (the full step is always
    tried), or when the squared slope is at most _SLOPE_FLOOR, so that no
    step direction is defined.
    """
    psi = float(psi0)
    f, err, slope = _residual_terms(form, target, psi)
    if err is None:
        return psi, f, 0, ()
    trace = [f]
    iters = 0
    while iters < _MAX_ITERATIONS and f > _RESIDUAL_FLOOR:
        chatd = slope()
        denom = float(np.dot(chatd, chatd))
        if denom <= _SLOPE_FLOOR:
            break
        step = float(np.dot(chatd, err)) / denom
        lam = 1.0
        accepted = False
        for _ in range(_MAX_HALVINGS + 1):
            if lam < 1.0 and abs(lam * step) <= _STEP_TOL:
                # a shorter step could not move psi beyond the step tolerance
                break
            psi_try = psi + lam * step
            trial = _residual_terms(form, target, psi_try)
            if trial[0] < f:
                accepted = True
                break
            lam *= 0.5
        if not accepted:
            break
        moved = abs(psi_try - psi)
        psi = psi_try
        f, err, slope = trial
        trace.append(f)
        iters += 1
        if moved <= _STEP_TOL:
            break
    return psi, f, iters, tuple(trace)


def _sum_of_squares(rows: np.ndarray) -> np.ndarray:
    """Ascending coefficients of the sum of the squares of the columns
    of rows, each column a real polynomial in ascending powers."""
    n = rows.shape[0]
    out = np.zeros(2 * n - 1)
    for i, row in enumerate(rows):
        out[i : i + n] += rows @ row
    return out


def _start_form(coeffs: np.ndarray) -> tuple:
    """Read-only form (G, L, S, W) of the start of a motion.

    coeffs holds the motion's coefficients C_k, ascending.

    V(t) = C(t) * conj(p) is linear in p, with coefficients V_k whose
    component b is linear in p through C_k * conj(e_b).  G is that one
    map, 8 x 6(n + 1): for a pose p the rows of (p @ G).reshape(-1, 6)
    are the vector and dual vector parts of V_0 .. V_n, and N(t), the
    sum of their squares, is _sum_of_squares of those rows.  D(t) = S(t)
    |p|^2 with S = |C(t)|^2, and N'S - NS' = L N, whose top coefficient
    cancels in exact arithmetic and is left out of L.  W is the whitened
    form of _rayleigh_start, or None where Q = sum over k of C_k C_k^T,
    the Gram matrix of S, is singular.
    """
    g = _kernels.dq_mul8(coeffs[:, None, :], np.diag(_CONJ_SIGNS))
    g = g[..., _VECTOR_PARTS].transpose(1, 0, 2).reshape(8, -1)
    s = _sum_of_squares(coeffs)
    # L[m, i] = (2i - m - 1) S[m + 1 - i] where that index exists
    m = np.arange(2 * s.size - 3)[:, None]
    i = np.arange(s.size)
    j = m + 1 - i
    inside = (j >= 0) & (j < s.size)
    crit_map = np.where(inside, (2 * i - m - 1) * s[np.where(inside, j, 0)], 0.0)
    for arr in (g, crit_map, s):
        arr.flags.writeable = False
    return g, crit_map, s, _whitened(coeffs)


def _whitened(coeffs: np.ndarray):
    """Read-only form (R, R^-1, E) of _rayleigh_start, or None for a
    constant motion, which has no parameter to certify, and where
    Q = C C^T is singular, so that its Cholesky factorization fails.

    With Q = R R^T the rows V_k of _start_form whiten to B = R^-1 V, and
    an eigenvector y of B B^T maps to the monomial basis as y @ R^-1.  E
    holds the exponents 0 .. n of m = (1, t, .., t^n).
    """
    if len(coeffs) < 2:
        return None
    try:
        root = np.linalg.cholesky(coeffs @ coeffs.T)
    except np.linalg.LinAlgError:
        return None
    form = (root, np.linalg.inv(root), np.arange(float(len(root))))
    for arr in form:
        arr.flags.writeable = False
    return form


def _rayleigh_start(whitened: tuple, s_inf: float, v: np.ndarray, axis: tuple):
    """The start psi of a pose that the motion reaches once, away from
    home, from one symmetric eigenvalue solve; None for every other pose.

    v holds the rows V_k of the pose (_start_form).  N(t) = m^T P m and
    S(t) = m^T Q m over m = (1, t, .., t^n), with P = V V^T, so the
    smallest eigenvalue lam0 of the pencil (P, Q) bounds N/S from below
    on the whole projective line, and for a pose that the motion
    reaches at t0 its eigenvector is m(t0).  The pencil is solved as the
    symmetric B B^T of the whitened rows B = R^-1 V.  t* is the ratio of
    the first two monomial coordinates of the eigenvector, or of the
    last two in the chart u = 1/t where |t*| > 1, so that either ratio
    is at most 1 in magnitude.  The certificate: lam1 - lam0 exceeds
    START_GAP * lam_max, so that every t whose N/S is as small as at t*
    lies near t*; N/S(t*), with N(t*) the squared norm of m(t*) @ V, and
    so lam0, is at most START_DELTA * lam_max; and N/S(t*) is no larger
    than N/S at infinity (a finite start wins ties).  The eigenvalues are
    checked before the eigenvector is formed, and a pose whose N
    vanishes at infinity, such as the identity of a motion without a
    tool, takes the companion start at once.

    The certified start is the half angle psi = atan2(r s, a - q0 s) of
    the homogeneous parameter (a : s), (t* : 1) or (1 : u*) with the
    driving axis parts (q0, r), rounded to 2**-40.  psi itself lies within
    the rounding noise of the polish's residual, where no step lowers it,
    so the polish would end at once and leave the answer at the last bits
    of psi, which the whitening rounds differently at every float scale
    of the pose; from the rounded start the polish takes its last step
    from a distance, as from the companion start.  Measured against the
    exact minimiser of the residual on seeded direct kinematics poses,
    roundings to 32 to 40 bits land as close as the companion start or
    closer, and wider ones or none farther.  An eigenvector coordinate is
    known to about an ulp of 1, so next to home, where (a : s) is
    (1 : u*), psi is known about as well as u*, far below the rounding,
    where t* = 1/u* was not.
    """
    root, inv, exps = whitened
    n_inf = float(v[-1] @ v[-1])
    if n_inf == 0.0:
        return None
    b = inv @ v
    lam, vecs = np.linalg.eigh(b @ b.T)
    lam = lam.tolist()
    delta = _START_DELTA * lam[-1]
    if lam[1] - lam[0] <= _START_GAP * lam[-1] or lam[0] > delta:
        return None
    w = (vecs[:, 0] @ inv).tolist()
    reciprocal = abs(w[-1]) > abs(w[0])
    if reciprocal:
        w.reverse()
    if w[0] == 0.0 or abs(w[1]) > abs(w[0]):
        return None
    x = w[1] / w[0]
    powers = x**exps
    if reciprocal:
        powers = powers[::-1]
    z, zv = powers @ root, powers @ v
    n_x, s_x = float(zv @ zv), float(z @ z)
    if n_x > delta * s_x or n_x * s_inf > n_inf * s_x:
        return None
    q0, r = axis
    a, s = (1.0, x) if reciprocal else (x, 1.0)
    psi = math.atan2(r * s, a - q0 * s)
    return math.ldexp(round(math.ldexp(psi, _START_BITS)), -_START_BITS)


@functools.lru_cache(maxsize=None)
def _subdiagonal(n: int) -> np.ndarray:
    """Read-only n x n template of a companion matrix: ones below the diagonal."""
    m = np.eye(n, k=-1)
    m.flags.writeable = False
    return m


def _candidate_values(num: np.ndarray, s: np.ndarray, ts: np.ndarray) -> tuple:
    """N and S at the candidates ts: running powers times num and s."""
    powers = np.empty((num.size, ts.size))
    powers[0] = 1.0
    powers[1:] = ts
    np.multiply.accumulate(powers[1:], axis=0, out=powers[1:])
    return num @ powers, s @ powers


def _global_start(form: tuple, p8: np.ndarray, axis: tuple) -> float:
    """Global minimiser of N(t)/D(t) over the projective parameter line,
    as the half angle psi of the driving axis parts axis = (q0, r).

    V(t) = C(t) * conj(p); N sums the squares of V's vector and dual
    vector parts, which vanish where C(t) is a multiple of p, and
    D(t) = |C(t)|^2 |p|^2.  The dual scalar would vanish there too for
    exact displacements; leaving it out keeps a Study defect of rounded
    data from shifting the minimiser.  The common factor |p|^2 is
    dropped.  The rows of V's coefficients come from one product of p
    with the map G of _start_form, and both starts read them.  A pose
    that the motion reaches at one parameter away from home gets the
    certified start of _rayleigh_start, one symmetric eigenvalue solve
    of the size of the motion's coefficient count.  Every other pose
    (one off the motion, or at or near home), and every pose of a motion
    whose Q is singular, as it is where the motion reaches a pose at two
    parameters, takes the companion start: N is the sum of the squares
    of the rows (_sum_of_squares) and N'D - ND' is L N, the candidates
    are the real parts of all roots of N'D - ND', a superset of the real
    critical points, from one eigenvalue solve, and infinity, where N/D
    tends to the ratio of the leading coefficients; N and S at all
    candidates come from one Vandermonde product each
    (_candidate_values).  Its t, INFINITY for home, is mapped to psi in
    [0, pi) once, with _t_to_angle.
    """
    g, crit_map, s, whitened = form
    v = (p8 @ g).reshape(-1, 6)
    if whitened is not None:
        start = _rayleigh_start(whitened, s[-1], v, axis)
        if start is not None:
            return start
    num = _sum_of_squares(v)
    crit = crit_map @ num
    best = INFINITY
    # exactly-zero leading coefficients are trimmed, as np.roots does
    top = crit.size - 1
    while top > 0 and crit[top] == 0.0:
        top -= 1
    if top > 0:
        desc = crit[top::-1]
        companion = _subdiagonal(top).copy()
        companion[0] = -desc[1:] / desc[0]
        ts = np.linalg.eigvals(companion).real
        with np.errstate(over="ignore", invalid="ignore"):
            values = np.divide(*_candidate_values(num, s, ts))
        # a candidate whose N/S is not finite is never picked
        values[~np.isfinite(values)] = np.inf
        k = int(values.argmin())
        if values[k] <= num[-1] / s[-1]:
            best = float(ts[k])
    return 0.5 * _t_to_angle(best, *axis)


def inverse_kinematics(
    mechanism: Mechanism, pose: DualQuaternion, options: IKOptions = None
) -> IKResult:
    """Joint angle of the driving axis that reproduces a tool pose.

    The pose is solved against the mechanism's tool motion, which
    already carries tool_home, so no tool is divided out.  The start is
    the global minimiser of an algebraic pose distance N(t)/D(t) on the
    projective parameter line (_global_start): for a pose that the
    motion reaches once, away from home, the certified eigenvector start
    of one small symmetric eigenvalue problem; for every other pose, the
    best of the real roots of one polynomial and the point at infinity.
    A damped Gauss-Newton iteration in the normalized metric then
    polishes it in the half angle psi = theta/2, whose chart passes
    through home; theta is 2*psi folded into [0, 2*pi), and t is derived
    from theta.  The result is accepted when the polished residual is at
    most success_tol.  The pose is first scaled by the power of two that
    brings its largest coefficient into [0.5, 1), which is exact, so
    every nonzero float scale of a pose gives the same answer.

    Raises InvalidPose for targets that are clearly not displacements
    and NoConvergence, carrying the polished iterate as best, when the
    residual stays above success_tol.  The pose gate is
    dqlink._tolerances.pose_gate of the motion's study_tol, a hundredfold
    of the mechanism's Study tolerance, since poses produced by its own
    direct kinematics must pass.
    """
    opt = options if options is not None else IKOptions()
    if not isinstance(pose, DualQuaternion):
        pose = DualQuaternion(pose)
    p8 = _binary_normalized(pose.coeffs)
    tol = pose_gate(mechanism.motion.study_tol)
    if not _is_study(p8, tol):
        raise InvalidPose(
            "target pose is not a displacement (Study defect above %.1e)" % tol
        )
    start = _global_start(mechanism._ik_form, p8, mechanism._axis)
    psi, residual, iterations, trace = _refine(mechanism._polish, _Target(p8), start)
    # x % 2pi rounds to 2pi for x just below zero, which the second % folds
    theta = (2.0 * psi) % TWO_PI % TWO_PI
    result = IKResult(
        t=_angle_to_t(theta, *mechanism._axis),
        theta=theta,
        residual=residual,
        iterations=iterations,
        branch="reciprocal" if start == 0.0 else "direct",
        residual_trace=trace,
    )
    if residual <= opt.success_tol:
        return result
    raise NoConvergence(
        "inverse kinematics did not reach success_tol=%.1e (best residual %r)"
        % (opt.success_tol, residual),
        best=result,
    )
