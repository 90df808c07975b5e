"""Arc length, equidistant segmentation and joint velocity profiles.

A tool point path is a rational curve (x1 : x2 : x3) / x0 of degree D.
It is integrated either in its curve parameter t or, for arcs between
joint angles, in the unwrapped driving angle phi.  The t chart
integrates the path's own speed, RationalPointPath.speed, a Horner
evaluation of its monomial coefficients.  The angle chart is
(a : s) = (r*cos(psi) + q0*sin(psi) : sin(psi)) of the parameter line,
on which t = a/s, with psi = phi/2 and q0 and r the scalar part and
the vector length of the driving axis quaternion, so the home
configuration (phi a multiple of 2*pi, t at infinity) is an ordinary
point of it.

There the homogeneous coordinates are forms of degree D in (a, s),
hence in (cos(psi), sin(psi)), so each is a trigonometric sum of
cos(h*psi) and sin(h*psi) over h = D, D-2, ...: D+1 coefficients, the
same space as the D+1 polynomial coefficients in another basis.  A
discrete Fourier transform on D+1 equispaced samples gives the map
between the two bases.  A mechanism builds its angle chart on first
use and keeps it read-only in a private slot: that map, its point
action composed with the tool frame, and the pole angles, which are
the roots of x0 that a motion finds once and phi = 0 when x0 drops
degree.  A tool point then costs one affine combination and one small
matrix product, and each speed evaluation |dP/dphi| one complex
exponential, a short cumulative product for the higher harmonics and
one matrix product.  Poles inside an interval are rejected with
PoleOnPath.

Lengths come from composite Gauss-Legendre panels.  All panels of one
refinement level are evaluated in a single numpy call; a panel whose
value differs from the sum of its two halves by more than the panel
tolerance (_PANEL_TOL, or arc_length's tol) is split, otherwise its
halves are kept, for at most _MAX_DEPTH levels; the first level's
panels are evaluated in the same call as their halves.  Equidistant
knots invert the resulting cumulative length table, _KNOT_BLOCK knots
per pass: each knot takes safeguarded Newton steps, with the speed as
derivative, inside the panel that holds its target length.

Profiles sample a duration T at frequency f into n = round(T*f) steps,
n+1 samples with timestamps i/f; n above _MAX_SAMPLES raises
ValueError.  Every profile is a timing fraction per sample composed
with a space map: the joint sweep theta0 + delta*u for the linear and
quintic profiles, or the inversion of the tool path length table for
the equidistant one.  Reported joint velocities are forward
differences omega_i = (theta_{i+1} - theta_i) * f with the last value
repeated, so they are exactly consistent with the returned angles.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import PoleOnPath, QuadratureFailure
from .kinematics import Mechanism, _axis_parts, param_to_angle
from .motionpoly import (
    RationalPointPath,
    _affine_action,
    _check_point_action,
    _real_roots,
)

TWO_PI = 2.0 * math.pi

ARC_DIRECTIONS = ("short", "long", "increasing", "decreasing")


def _gauss_legendre(order: int) -> tuple:
    """Gauss-Legendre nodes and weights mapped to the unit interval.

    Newton's method on the Legendre recurrence from the usual cosine
    guesses; the same rule as numpy.polynomial.legendre.leggauss, which
    would load numpy.polynomial and numpy.linalg on import.
    """
    x = np.array([math.cos(math.pi * (i + 0.75) / (order + 0.5)) for i in range(order)])
    for _ in range(8):
        p0, p1 = np.ones_like(x), x
        for k in range(2, order + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        slope = order * (x * p1 - p0) / (x * x - 1.0)
        x = x - p1 / slope
    return 0.5 * (1.0 - x), 1.0 / ((1.0 - x * x) * slope * slope)


_GL_ORDER = 12
_GL_NODES, _GL_WEIGHTS = _gauss_legendre(_GL_ORDER)

# initial panel width in the angle chart; the t chart starts from one panel
_ANGLE_PANEL = math.pi / 8.0
# absolute tolerance per panel, and the refinement levels allowed to meet it
_PANEL_TOL = 1e-10
_MAX_DEPTH = 40
# refinement stops with QuadratureFailure beyond this many open panels,
# which bounds the memory of a level whatever the tolerance asks for
_MAX_PANELS = 4096
# knot inversion: iterates per knot before QuadratureFailure, and the
# accepted deviation of a knot's cumulative length as a fraction of the
# segment length (half of the 1e-8 allowed per segment, so that
# neighbouring knot errors cannot add up beyond it)
_INVERSION_MAX_ITER = 50
_KNOT_TOL = 0.5e-8
# knots per Newton pass: one pass evaluates 13 speed nodes per knot
_KNOT_BLOCK = 1024
# most steps round(T*f) of one profile, about 17 minutes at 1 kHz; an
# equidistant profile peaks at about 2 MB for one Newton pass plus about
# 120 bytes per sample
_MAX_SAMPLES = 10**6
# columns of x0, x1, x2, x3 in an acted point
_POINT_COLUMNS = [0, 5, 6, 7]
# time fraction over which a blended profile ramps its speed in and out
_BLEND_RAMP = 0.1


def _check_finite(*named):
    """Raise ValueError naming the first (name, value) pair that is not finite."""
    for name, value in named:
        if not math.isfinite(value):
            raise ValueError("%s must be finite, got %r" % (name, value))


def _check_poles(poles: np.ndarray, lo: float, hi: float, period=None):
    """Raise PoleOnPath when a pole lies in [lo, hi].

    With a period the poles repeat at every multiple of it.
    """
    if poles.size == 0:
        return
    if np.any(np.isnan(poles)):
        raise PoleOnPath("homogeneous coordinate vanishes identically")
    margin = 1e-12 * (1.0 + hi - lo)
    first = poles
    if period is not None:
        first = poles + period * np.ceil((lo - margin - poles) / period)
    inside = first[(first >= lo - margin) & (first <= hi + margin)]
    if inside.size:
        raise PoleOnPath(
            "homogeneous coordinate vanishes at %r inside [%r, %r]"
            % (float(inside[0]), lo, hi)
        )


def _harmonics(psi: np.ndarray, degree: int) -> np.ndarray:
    """cos(h*psi), sin(h*psi) per node, interleaved, for h = degree, degree-2, ...

    The harmonics ascend from degree mod 2 to degree, so each node has
    2*(degree//2 + 1) columns; for even degree the sine of h = 0 is a
    zero column.  cos(psi) and sin(psi) are taken once as exp(i*psi), and
    each higher harmonic is the previous one turned by exp(2i*psi).
    """
    z = np.exp(1j * psi)
    out = np.empty((psi.size, degree // 2 + 1), dtype=complex)
    out[:, 0] = z if degree % 2 else 1.0
    out[:, 1:] = (z * z)[:, None]
    np.cumprod(out, axis=1, out=out)
    return out.view(float)


def _harmonic_map(degree: int, q0: float, r: float) -> np.ndarray:
    """Read-only maps from a form of one degree to its harmonic coefficients.

    A homogeneous form X(a, s) = sum_k c_k a**k s**(degree-k), taken in
    the chart (a : s) = (r*cos(psi) + q0*sin(psi) : sin(psi)), is a sum
    of the harmonics of _harmonics.  Row 0 of the result maps the
    ascending coefficients c_k to those harmonic coefficients, row 1 to
    the coefficients of dX/dpsi.  The coefficients come from an explicit
    discrete Fourier transform of degree+1 equispaced samples on
    [0, pi), on which the harmonics are orthogonal.
    """
    psi = np.arange(degree + 1) * (math.pi / (degree + 1))
    s = np.sin(psi)
    a = r * np.cos(psi) + q0 * s
    k = np.arange(degree + 1)
    samples = a[:, None] ** k * s[:, None] ** (degree - k)
    # over the samples a harmonic h > 0 has squared sum (degree+1)/2,
    # cos(0) has degree+1 and sin(0) vanishes
    weight = np.full(degree + 2 - degree % 2, 2.0 / (degree + 1))
    if degree % 2 == 0:
        weight[:2] = 1.0 / (degree + 1)
    value = weight[:, None] * (_harmonics(psi, degree).T @ samples)
    value = value.reshape(-1, 2, degree + 1)
    # d/dpsi takes (cos, sin) coefficients (u, v) of harmonic h to (h*v, -h*u)
    h = np.arange(degree % 2, degree + 1, 2)[:, None]
    slope = np.stack([h * value[:, 1], -h * value[:, 0]], axis=1)
    maps = np.stack([value, slope]).reshape(2, -1, degree + 1)
    maps.flags.writeable = False
    return maps


class _Speed:
    """Vectorized speed of a tool point path in the angle chart.

    The evaluator of the trigonometric form of the module docstring.
    maps comes from _harmonic_map for the chart and coords holds the
    ascending monomial coefficients of X0..X3 as columns; their harmonic
    coefficients, and those of dX/dpsi, are formed once here.  The
    variable x is the unwrapped driving angle, psi = x/2.  Calling the
    object with offsets from start along the orientation sigma returns
    0.5 * |X0 * dX - X * dX0| / X0**2 over x1, x2, x3, at the cost of
    one complex exponential, one cumulative product and one matrix
    product for all nodes.
    """

    def __init__(self, maps, coords, start, sigma):
        self.degree = maps.shape[2] - 1
        self.coef = np.hstack(maps @ coords)
        self.start = float(start)
        self.sigma = float(sigma)

    def __call__(self, offsets):
        psi = 0.5 * (self.start + self.sigma * offsets)
        both = _harmonics(psi, self.degree) @ self.coef
        w = both[:, :1]
        num = both[:, 5:] * w - both[:, 1:4] * both[:, 4:5]
        return 0.5 * np.sqrt(np.sum(num * num, axis=1)) / (w[:, 0] * w[:, 0])


def _gauss(speed, lo: np.ndarray, width: np.ndarray) -> np.ndarray:
    """Gauss-Legendre integrals of speed over [lo, lo + width], per panel."""
    x = lo[:, None] + width[:, None] * _GL_NODES
    f = speed(x.ravel()).reshape(x.shape)
    return (f @ _GL_WEIGHTS) * width


def _halve(lo: np.ndarray, width: np.ndarray) -> tuple:
    """Left and right halves of panels, interleaved."""
    half = 0.5 * width
    return np.column_stack([lo, lo + half]).ravel(), np.repeat(half, 2)


class _Table:
    """Cumulative arc length over [0, span] of the speed at offsets into it.

    Panels are refined level by level until each one agrees with the
    sum of its halves to tol; the halves are kept.  The first level's
    panels are evaluated together with their halves, and every later
    level already holds its panels' values.  Raises QuadratureFailure
    when a panel still misses tol after _MAX_DEPTH levels.
    """

    def __init__(self, speed, span: float, pieces: int, tol: float):
        self.speed = speed
        edges = np.linspace(0.0, span, pieces + 1)
        first, size = edges[:-1], np.diff(edges)
        lo, width = _halve(first, size)
        values = _gauss(
            speed, np.concatenate([first, lo]), np.concatenate([size, width])
        )
        whole, halves = values[:pieces], values[pieces:]
        done = []
        for depth in range(_MAX_DEPTH + 1):
            pair = halves.reshape(-1, 2)
            ok = np.abs(pair[:, 0] + pair[:, 1] - whole) <= tol
            keep = np.repeat(ok, 2)
            done.append((lo[keep], width[keep], halves[keep]))
            if ok.all():
                break
            open_ = ~keep
            lo, width, whole = lo[open_], width[open_], halves[open_]
            if depth == _MAX_DEPTH or lo.size > _MAX_PANELS:
                raise QuadratureFailure(
                    "Gauss-Legendre panel [%r, %r] still above tolerance %g "
                    "at depth %d" % (float(lo[0]), float(lo[0] + width[0]), tol, depth)
                )
            lo, width = _halve(lo, width)
            halves = _gauss(speed, lo, width)
        lo, width, value = (np.concatenate(parts) for parts in zip(*done))
        order = np.argsort(lo)
        self.lo = lo[order]
        self.width = width[order]
        self.value = value[order]
        self.ends = np.cumsum(self.value)
        self.total = float(self.ends[-1])


def _knots(table: _Table, fractions: np.ndarray) -> np.ndarray:
    """Offsets of the interior knots at fractions of the table's length.

    fractions runs from 0 to 1 over n+1 knots; each interior knot is
    resolved to _KNOT_TOL times the segment length total/n.  Safeguarded
    Newton inside the panel holding each target: a step that leaves the
    panel's shrinking bracket is replaced by bisection.  Knots are
    iterated in blocks of _KNOT_BLOCK, which bounds the memory of one
    speed evaluation whatever the number of knots.  Raises
    QuadratureFailure when some knot misses its tolerance after
    _INVERSION_MAX_ITER iterates.
    """
    targets = fractions[1:-1] * table.total
    tol = _KNOT_TOL * table.total / (fractions.size - 1)
    idx = np.minimum(np.searchsorted(table.ends, targets), table.ends.size - 1)
    lo = table.lo[idx]
    hi = lo + table.width[idx]
    value = table.value[idx]
    want = targets - (table.ends[idx] - value)
    frac = np.divide(want, value, out=np.full_like(want, 0.5), where=value > 0.0)
    x = lo + np.clip(frac, 0.0, 1.0) * (hi - lo)
    base = lo.copy()
    for first in range(0, targets.size, _KNOT_BLOCK):
        todo = np.arange(first, min(first + _KNOT_BLOCK, targets.size))
        for _ in range(_INVERSION_MAX_ITER):
            # length from the panel start to x by the panel's own rule,
            # and the speed at x, in one evaluation
            xt, bt = x[todo], base[todo]
            nodes = bt[:, None] + (xt - bt)[:, None] * _GL_NODES
            f = table.speed(np.concatenate([nodes.ravel(), xt]))
            got = (f[: -todo.size].reshape(todo.size, -1) @ _GL_WEIGHTS) * (xt - bt)
            miss = got - want[todo]
            open_ = np.abs(miss) > tol
            todo, miss, slope = todo[open_], miss[open_], f[-xt.size:][open_]
            if not todo.size:
                break
            xt = x[todo]
            lo[todo] = np.where(miss < 0.0, xt, lo[todo])
            hi[todo] = np.where(miss > 0.0, xt, hi[todo])
            with np.errstate(divide="ignore", invalid="ignore"):
                step = xt - miss / slope
            inside = (step > lo[todo]) & (step < hi[todo])
            x[todo] = np.where(inside, step, 0.5 * (lo[todo] + hi[todo]))
        else:
            raise QuadratureFailure(
                "arc length inversion left %d knots above tolerance %g after %d "
                "iterations" % (todo.size, tol, _INVERSION_MAX_ITER)
            )
    return x


def _t_table(path: RationalPointPath, a: float, b: float, tol: float) -> _Table:
    """Length table of the path from parameter a towards b != a."""
    _check_poles(_real_roots(path.x0), min(a, b), max(a, b))
    sigma = math.copysign(1.0, b - a)
    return _Table(lambda u: path.speed(a + sigma * u), abs(b - a), 1, tol)


def arc_length(
    path: RationalPointPath, t0: float, t1: float, tol: float = _PANEL_TOL
) -> float:
    """Length of the path between two finite parameters.

    tol is the absolute tolerance per Gauss-Legendre panel.  Raises
    PoleOnPath when x0 has a real root inside the interval and
    QuadratureFailure when some panel still misses tolerance after
    _MAX_DEPTH refinement levels.  Non-finite parameters, or a span
    that overflows, raise ValueError.
    """
    a, b = float(t0), float(t1)
    _check_finite(("t0", a), ("t1", b), ("t1 - t0", b - a))
    if a == b:
        return 0.0
    # integrate forward from the lower end, whichever end comes first
    return _t_table(path, min(a, b), max(a, b), tol).total


@dataclass(frozen=True)
class PathSegmentation:
    """Equidistant knots along a path segment.

    params holds n+1 curve parameters in traversal order and angles the
    matching joint angles when a driving axis was supplied.
    """

    params: tuple
    angles: object
    segment_length: float
    total_length: float


def equidistant_params(
    path: RationalPointPath, t0: float, t1: float, n: int, driving_axis=None
) -> PathSegmentation:
    """Split [t0, t1] into n pieces of equal arc length.

    Interior knots come from one inversion of the cumulative length
    table, each resolved to 0.5e-8 times the segment length.  Non-finite
    parameters, or a span that overflows, raise ValueError; n must be an
    integer (TypeError otherwise) of at least 1.
    """
    n = operator.index(n)
    if n < 1:
        raise ValueError("need at least one segment")
    a, b = float(t0), float(t1)
    _check_finite(("t0", a), ("t1", b), ("t1 - t0", b - a))
    params = np.full(n + 1, a)
    total = 0.0
    if a != b:
        table = _t_table(path, a, b, _PANEL_TOL)
        total = table.total
        offsets = _knots(table, np.arange(n + 1) / n)
        params[1:-1] = a + math.copysign(1.0, b - a) * offsets
    params[-1] = b
    params = tuple(float(p) for p in params)
    angles = None
    if driving_axis is not None:
        angles = tuple(param_to_angle(p, driving_axis) for p in params)
    return PathSegmentation(
        params=params,
        angles=angles,
        segment_length=total / n,
        total_length=total,
    )


def resolve_arc(theta0: float, theta1: float, direction: str = "short") -> float:
    """Signed angular travel from theta0 to theta1 along the chosen arc.

    increasing/decreasing force the sign; short/long pick the smaller or
    larger angular span, breaking the half-turn tie towards increasing
    for short and decreasing for long.  Coincident angles travel zero.
    """
    if direction not in ARC_DIRECTIONS:
        raise ValueError("direction must be one of %s" % (ARC_DIRECTIONS,))
    a, b = float(theta0), float(theta1)
    _check_finite(("theta0", a), ("theta1", b))
    inc = (b - a) % TWO_PI
    if inc == 0.0:
        return 0.0
    dec = inc - TWO_PI
    if direction == "increasing":
        return inc
    if direction == "decreasing":
        return dec
    if direction == "short":
        return inc if inc <= math.pi else dec
    return dec if inc <= math.pi else inc


def _angle_chart(mechanism: Mechanism) -> tuple:
    """Harmonic map, tool point action and pole angles of the tool paths.

    None of them depends on the tool point.  The action maps a point x
    of the tool frame to the acted point action[0] + x @ action[1:],
    the point action of the motion composed with tool_home, which is
    affine in x.  The pole angles are those of the roots of x0, the
    primal norm of the motion, and phi = 0 when x0 drops degree.  Built
    on first use and kept, read-only, in the mechanism's _chart slot.
    """
    if mechanism._chart is None:
        motion = mechanism.motion
        basis = motion._action()
        # the tool frame's origin and its unit points in the coupler frame
        unit = np.vstack([np.zeros(3), np.eye(3)])
        frame = np.array([mechanism.tool_home.act_on_point(x) for x in unit])
        turn = frame[1:] - frame[0]
        action = np.empty_like(basis)
        action[0] = motion.act_poly(frame[0])
        action[1:] = (turn @ basis[1:].reshape(3, -1)).reshape(basis[1:].shape)
        x0 = basis[0, :, 0]
        q0, r = _axis_parts(mechanism.driving_axis)
        poles = (2.0 * np.arctan2(r, motion.path_poles() - q0)) % TWO_PI
        if abs(x0[-1]) <= 1e-14 * float(np.max(np.abs(x0))):
            # x0 drops degree: its homogeneous form vanishes at home
            poles = np.append(poles, 0.0)
        for arr in (action, poles):
            arr.flags.writeable = False
        chart = (_harmonic_map(x0.size - 1, q0, r), action, poles)
        object.__setattr__(mechanism, "_chart", chart)
    return mechanism._chart


def _angle_table(mechanism: Mechanism, tool, start, delta) -> _Table:
    """Length table of the tool point path from start over delta radians."""
    maps, action, poles = _angle_chart(mechanism)
    acted = _affine_action(action, tool)
    _check_point_action(acted, mechanism.motion.study_tol)
    end = start + delta
    _check_poles(poles, min(start, end), max(start, end), TWO_PI)
    span = abs(delta)
    speed = _Speed(maps, acted[:, _POINT_COLUMNS], start, math.copysign(1.0, delta))
    pieces = max(1, math.ceil(span / _ANGLE_PANEL))
    return _Table(speed, span, pieces, _PANEL_TOL)


def arc_length_between(
    mechanism: Mechanism,
    theta0: float,
    theta1: float,
    tool=(0.0, 0.0, 0.0),
    direction: str = "short",
) -> float:
    """Tool point arc length between two joint angles along a chosen arc."""
    delta = resolve_arc(theta0, theta1, direction)
    if delta == 0.0:
        return 0.0
    return _angle_table(mechanism, tool, float(theta0), delta).total


@dataclass(frozen=True)
class TrajectoryProfile:
    """Uniformly timed joint-space samples of one driving joint.

    Angles are unwrapped, i.e. continuous across the 2*pi seam, so that
    forward differences always reflect the physical travel.
    """

    times: np.ndarray
    thetas: np.ndarray
    omegas: np.ndarray
    duration: float
    frequency: float
    mode: str

    def __post_init__(self):
        for name in ("times", "thetas", "omegas"):
            arr = np.ascontiguousarray(np.asarray(getattr(self, name), dtype=float))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if not (self.times.shape == self.thetas.shape == self.omegas.shape):
            raise ValueError("times, thetas and omegas must have equal shapes")

    @property
    def samples(self) -> list:
        """Samples as (time, theta, omega) tuples of Python floats."""
        return [
            (float(t), float(th), float(om))
            for t, th, om in zip(self.times, self.thetas, self.omegas)
        ]


def _profile(mode, theta0, theta1, duration, frequency, direction, space):
    """Sample one sweep of the chosen arc into a TrajectoryProfile.

    space(start, delta, steps, tau) maps the sample indices 0..n and
    their fractions tau = i/(f*T) of the duration to the unwrapped
    angles of the sweep from start over delta radians.
    """
    T, f = float(duration), float(frequency)
    # the product may overflow or underflow even when both factors are fine
    checks = (("duration", T), ("frequency", f), ("duration*frequency", T * f))
    for name, value in checks:
        if not 0.0 < value < math.inf:
            raise ValueError("%s must be positive and finite, got %r" % (name, value))
    n = int(round(T * f))
    if n < 1:
        raise ValueError("duration times frequency must round to at least one step")
    if n > _MAX_SAMPLES:
        raise ValueError(
            "duration*frequency must round to at most %d steps, got %r"
            % (_MAX_SAMPLES, T * f)
        )
    delta = resolve_arc(theta0, theta1, direction)
    steps = np.arange(n + 1)
    times = steps / f
    thetas = space(float(theta0), delta, steps, times / T)
    omegas = np.empty(n + 1)
    omegas[:n] = np.diff(thetas) * f
    omegas[n] = omegas[n - 1]
    return TrajectoryProfile(
        times=times, thetas=thetas, omegas=omegas, duration=T, frequency=f, mode=mode
    )


def linear_profile(
    theta0: float,
    theta1: float,
    duration: float,
    frequency: float,
    direction: str = "short",
) -> TrajectoryProfile:
    """Constant velocity sweep of the chosen arc."""
    return _profile(
        "linear", theta0, theta1, duration, frequency, direction,
        lambda start, delta, steps, tau: start + delta * steps / steps[-1],
    )


def _quintic(tau):
    """Rest-to-rest quintic s(tau) and its slope, with tau clamped to [0, 1]."""
    tau = np.clip(tau, 0.0, 1.0)
    return (
        tau * tau * tau * (10.0 + tau * (-15.0 + 6.0 * tau)),
        30.0 * tau * tau * (1.0 + tau * (-2.0 + tau)),
    )


def quintic_time_scaling(theta_start: float, theta_end: float, duration: float):
    """Quintic rest-to-rest scaling between two unwrapped angles.

    Returns a callable mapping a time to (theta, omega).  Boundary
    values are exact, boundary velocities and accelerations vanish, and
    the peak speed 15*|theta_end - theta_start| / (8*duration) occurs at
    the half-time.  Times outside [0, duration] clamp to the endpoints.
    Non-finite arguments, a travel that overflows and a duration that
    is not positive raise ValueError.
    """
    T = float(duration)
    start = float(theta_start)
    delta = float(theta_end) - start
    _check_finite(
        ("theta_start", start),
        ("theta_end", float(theta_end)),
        ("duration", T),
        ("theta_end - theta_start", delta),
    )
    if T <= 0.0:
        raise ValueError("duration must be positive")

    def scaling(time: float) -> tuple:
        s, sd = _quintic(float(time) / T)
        return start + float(s) * delta, float(sd) * delta / T

    return scaling


def quintic_profile(
    theta0: float,
    theta1: float,
    duration: float,
    frequency: float,
    direction: str = "short",
) -> TrajectoryProfile:
    """Rest-to-rest quintic sweep of the chosen arc, sampled uniformly."""

    def space(start, delta, steps, tau):
        # quintic_time_scaling(start, start + delta, duration) at the times i/f
        return start + _quintic(tau)[0] * ((start + delta) - start)

    return _profile("quintic", theta0, theta1, duration, frequency, direction, space)


def _blend_warp(u: np.ndarray) -> np.ndarray:
    """Monotone C1 warp of [0, 1] with flat ends and a linear middle.

    The slope ramps in over the first and out over the last _BLEND_RAMP
    fraction with a cubic smoothstep, which removes the velocity jump of
    a purely equidistant profile at start and stop.
    """
    m = 1.0 / (1.0 - _BLEND_RAMP)

    def ramp_area(x):
        v = x / _BLEND_RAMP
        return m * _BLEND_RAMP * (v * v * v - 0.5 * v * v * v * v)

    middle = m * _BLEND_RAMP * 0.5 + m * (u - _BLEND_RAMP)
    tail = np.where(u > 1.0 - _BLEND_RAMP, 1.0 - ramp_area(1.0 - u), middle)
    return np.where(u < _BLEND_RAMP, ramp_area(u), tail)


def equidistant_profile(
    mechanism: Mechanism,
    theta0: float,
    theta1: float,
    duration: float,
    frequency: float,
    tool=(0.0, 0.0, 0.0),
    direction: str = "short",
    blend: bool = False,
) -> TrajectoryProfile:
    """Profile whose samples are equidistant along the tool point path.

    The tool point is given in the tool frame and travels the chosen
    arc, including through the home configuration when the arc crosses
    it.  Each sampling step covers the same tool path length, so the
    joint velocity rises where the tool point moves slowly.  With
    blend=True the first and last tenth of the samples ease in and out
    instead of starting at full speed.
    """

    def space(start, delta, steps, tau):
        thetas = np.full(steps.size, start)
        if delta != 0.0:
            table = _angle_table(mechanism, tool, start, delta)
            u = steps / steps[-1]
            offsets = _knots(table, _blend_warp(u) if blend else u)
            thetas[1:-1] = start + math.copysign(1.0, delta) * offsets
            thetas[-1] = start + delta
        return thetas

    return _profile(
        "equidistant", theta0, theta1, duration, frequency, direction, space
    )
