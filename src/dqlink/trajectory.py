"""Arc length, equidistant segmentation and joint velocity profiles.

A tool point path is a rational curve (x1 : x2 : x3) / x0.  It is
integrated either in its curve parameter t or, for arcs between joint
angles, in the unwrapped driving angle phi.  The angle chart evaluates
the path homogeneously at

    (t : 1) = (r*cos(phi/2) + q0*sin(phi/2) : sin(phi/2))

where q0 and r are the scalar part and the vector length of the driving
axis quaternion, so the home configuration (phi a multiple of 2*pi,
t at infinity) is an ordinary point of the chart.  The speed |dP/dphi|
is evaluated in closed form from the homogeneous coordinates and their
derivatives.  Poles of the path (real roots of x0, and phi = 0 when x0
drops degree) are rejected with PoleOnPath; a motion finds the roots of
x0 once and shares them among the paths of all its points.

Lengths come from composite Gauss-Legendre panels.  All panels of one
refinement level are evaluated in a single numpy call; a panel whose
value differs from the sum of its two halves by more than tol is split,
otherwise its halves are kept.  Equidistant knots invert the resulting
cumulative length table in one pass: each knot takes safeguarded Newton
steps, with the speed as derivative, inside the panel that holds its
target length.

Profiles sample a duration T at frequency f into n = round(T*f) steps,
n+1 samples with timestamps i/f.  Reported joint velocities are forward
differences omega_i = (theta_{i+1} - theta_i) * f with the last value
repeated, so they are exactly consistent with the returned angles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PoleOnPath, QuadratureFailure
from .kinematics import Mechanism, _axis_parts
from .motionpoly import RationalPointPath, _real_roots

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
# refinement stops with QuadratureFailure beyond this many open panels,
# which bounds the memory of a level whatever tol and max_depth ask for
_MAX_PANELS = 4096
# knot inversion: iterates per knot before QuadratureFailure, and the
# accepted deviation of a knot's cumulative length as a fraction of the
# segment length (half of the 1e-8 allowed per segment, so that
# neighbouring knot errors cannot add up beyond it)
_INVERSION_MAX_ITER = 50
_KNOT_TOL = 0.5e-8


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


class _Speed:
    """Vectorized speed of a rational point path along a chart.

    The homogeneous coordinates are X_j = sum_k c_jk a**k s**(D-k) with
    (a : s) the chart's point of the parameter line: (t : 1) in the t
    chart, or the angle chart of a driving axis given as angle = (q0, r).
    Calling the object with offsets psi from start along the orientation
    sigma returns |dP/dpsi| = |X0 * dX - X * dX0| / X0**2, summed over
    x1, x2, x3.
    """

    def __init__(self, path, start: float, sigma: float, angle=None):
        coeffs = np.column_stack([path.x0, path.xi.T])
        deg = coeffs.shape[0] - 1
        self.coeffs = coeffs
        # partial derivatives by a and by s, both of degree D-1
        self.by_a = coeffs[1:] * np.arange(1, deg + 1)[:, None]
        self.by_s = coeffs[:-1] * np.arange(deg, 0, -1)[:, None]
        self.start = float(start)
        self.sigma = float(sigma)
        self.angle = angle

    def chart(self, x):
        """Homogeneous parameter (a, s) and its derivative at x."""
        if self.angle is None:
            return x, np.ones_like(x), 1.0, 0.0
        q0, r = self.angle
        s = np.sin(0.5 * x)
        c = np.cos(0.5 * x)
        return r * c + q0 * s, s, 0.5 * (q0 * c - r * s), 0.5 * c

    def __call__(self, psi):
        a, s, da, ds = self.chart(self.start + self.sigma * psi)
        deg = self.coeffs.shape[0] - 1
        apow = np.vander(a, deg + 1, increasing=True)
        spow = np.vander(s, deg + 1)
        hom = (apow * spow) @ self.coeffs
        lower = apow[:, :-1] * spow[:, 1:]
        dhom = (lower @ self.by_a) * np.reshape(da, (-1, 1))
        dhom += (lower @ self.by_s) * np.reshape(ds, (-1, 1))
        w = hom[:, :1]
        num = dhom[:, 1:] * w - hom[:, 1:] * dhom[:, :1]
        return np.sqrt(np.sum(num * num, axis=1)) / (w[:, 0] * w[:, 0])


def _gauss(speed: _Speed, lo: np.ndarray, width: np.ndarray) -> np.ndarray:
    """Gauss-Legendre integrals of speed over [lo, lo + width], per panel."""
    x = lo[:, None] + width[:, None] * _GL_NODES
    f = speed(x.ravel()).reshape(x.shape)
    return (f @ _GL_WEIGHTS) * width


class _Table:
    """Cumulative arc length over [0, span] in accepted panels.

    Panels are refined level by level until each one agrees with the
    sum of its halves to tol; the halves are kept.  Raises
    QuadratureFailure when a panel still misses tol at max_depth.
    """

    def __init__(self, speed: _Speed, span: float, pieces: int, tol, max_depth):
        self.speed = speed
        edges = np.linspace(0.0, span, pieces + 1)
        lo = edges[:-1]
        width = np.diff(edges)
        whole = _gauss(speed, lo, width)
        done = []
        for depth in range(int(max_depth) + 1):
            width = 0.5 * width
            lo = np.column_stack([lo, lo + width]).ravel()
            width = np.repeat(width, 2)
            halves = _gauss(speed, lo, width)
            pair = halves.reshape(-1, 2)
            ok = np.abs(pair[:, 0] + pair[:, 1] - whole) <= tol
            keep = np.repeat(ok, 2)
            done.append((lo[keep], width[keep], halves[keep]))
            if ok.all():
                break
            open_ = ~keep
            lo, width, whole = lo[open_], width[open_], halves[open_]
            if depth == max_depth or lo.size > _MAX_PANELS:
                raise QuadratureFailure(
                    "Gauss-Legendre panel [%r, %r] still above tolerance %g "
                    "at depth %d" % (lo[0], lo[0] + width[0], tol, depth)
                )
        lo, width, value = (np.concatenate(parts) for parts in zip(*done))
        order = np.argsort(lo)
        self.lo = lo[order]
        self.width = width[order]
        self.value = value[order]
        self.ends = np.cumsum(self.value)
        self.total = float(self.ends[-1])

    def invert(self, targets: np.ndarray, tol: float) -> np.ndarray:
        """Offsets at which the cumulative length reaches each target.

        Safeguarded Newton inside the panel holding each target: a step
        that leaves the panel's shrinking bracket is replaced by
        bisection.  Raises QuadratureFailure when some knot misses tol
        after _INVERSION_MAX_ITER iterates.
        """
        idx = np.minimum(np.searchsorted(self.ends, targets), self.ends.size - 1)
        lo = self.lo[idx]
        hi = lo + self.width[idx]
        value = self.value[idx]
        want = targets - (self.ends[idx] - value)
        frac = np.divide(want, value, out=np.full_like(want, 0.5), where=value > 0.0)
        x = lo + np.clip(frac, 0.0, 1.0) * (hi - lo)
        base = lo.copy()
        todo = np.arange(targets.size)
        for _ in range(_INVERSION_MAX_ITER):
            if not todo.size:
                return x
            # length from the panel start to x by the panel's own rule,
            # and the speed at x, in one evaluation
            xt, bt = x[todo], base[todo]
            f = self.speed(
                np.concatenate([(bt[:, None] + (xt - bt)[:, None] * _GL_NODES).ravel(), xt])
            )
            got = (f[: -todo.size].reshape(todo.size, -1) @ _GL_WEIGHTS) * (xt - bt)
            miss = got - want[todo]
            open_ = np.abs(miss) > tol
            todo, miss, slope = todo[open_], miss[open_], f[-xt.size:][open_]
            if not todo.size:
                return x
            xt = x[todo]
            lo[todo] = np.where(miss < 0.0, xt, lo[todo])
            hi[todo] = np.where(miss > 0.0, xt, hi[todo])
            with np.errstate(divide="ignore", invalid="ignore"):
                step = xt - miss / slope
            inside = (step > lo[todo]) & (step < hi[todo])
            x[todo] = np.where(inside, step, 0.5 * (lo[todo] + hi[todo]))
        raise QuadratureFailure(
            "arc length inversion left %d knots above tolerance %g after %d "
            "iterations" % (todo.size, tol, _INVERSION_MAX_ITER)
        )


def _knot_targets(total: float, fractions) -> tuple:
    """Interior cumulative lengths and the Newton tolerance for them."""
    fractions = np.asarray(fractions, dtype=float)
    n = fractions.size - 1
    return fractions[1:-1] * total, _KNOT_TOL * total / n


def arc_length(
    path: RationalPointPath,
    t0: float,
    t1: float,
    tol: float = 1e-10,
    max_depth: int = 40,
) -> float:
    """Length of the path between two finite parameters.

    tol is the absolute tolerance per Gauss-Legendre panel.  Raises
    PoleOnPath when x0 has a real root inside the interval and
    QuadratureFailure when some panel still misses tolerance at
    max_depth.
    """
    a, b = float(t0), float(t1)
    if a == b:
        return 0.0
    lo, hi = (a, b) if a < b else (b, a)
    _check_poles(_real_roots(path.x0), lo, hi)
    return _Table(_Speed(path, lo, 1.0), hi - lo, 1, tol, max_depth).total


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
    path: RationalPointPath,
    t0: float,
    t1: float,
    n: int,
    driving_axis=None,
    tol: float = 1e-10,
    max_depth: int = 40,
) -> PathSegmentation:
    """Split [t0, t1] into n pieces of equal arc length.

    Interior knots come from one inversion of the cumulative length
    table, each resolved to 0.5e-8 times the segment length.
    """
    n = int(n)
    if n < 1:
        raise ValueError("need at least one segment")
    a, b = float(t0), float(t1)
    params = np.full(n + 1, a)
    total = 0.0
    if a != b:
        lo, hi = (a, b) if a < b else (b, a)
        _check_poles(_real_roots(path.x0), lo, hi)
        sigma = 1.0 if b > a else -1.0
        table = _Table(_Speed(path, a, sigma), hi - lo, 1, tol, max_depth)
        total = table.total
        targets, ktol = _knot_targets(total, np.arange(n + 1) / n)
        params[1:-1] = a + sigma * table.invert(targets, ktol)
    params[-1] = b
    params = tuple(float(p) for p in params)
    angles = None
    if driving_axis is not None:
        from .kinematics import param_to_angle

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
    inc = (float(theta1) - float(theta0)) % TWO_PI
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


def _angle_table(mechanism: Mechanism, tool, start, delta, tol, max_depth) -> _Table:
    """Length table of the tool point path from start over delta radians."""
    tracked = mechanism.tool_home.act_on_point(np.asarray(tool, dtype=float))
    path = mechanism.motion.point_path(tracked)
    q0, r = _axis_parts(mechanism.driving_axis)
    poles = (2.0 * np.arctan2(r, mechanism.motion.path_poles() - q0)) % TWO_PI
    scale = float(np.max(np.abs(path.x0)))
    if abs(path.x0[-1]) <= 1e-14 * scale:
        # x0 drops degree: its homogeneous form vanishes at home
        poles = np.append(poles, 0.0)
    end = start + delta
    _check_poles(poles, min(start, end), max(start, end), TWO_PI)
    span = abs(delta)
    speed = _Speed(path, start, math.copysign(1.0, delta), (q0, r))
    pieces = max(1, math.ceil(span / _ANGLE_PANEL))
    return _Table(speed, span, pieces, tol, max_depth)


def arc_length_between(
    mechanism: Mechanism,
    theta0: float,
    theta1: float,
    tool=(0.0, 0.0, 0.0),
    direction: str = "short",
    tol: float = 1e-10,
    max_depth: int = 40,
) -> float:
    """Tool point arc length between two joint angles along a chosen arc."""
    delta = resolve_arc(theta0, theta1, direction)
    if delta == 0.0:
        return 0.0
    return _angle_table(mechanism, tool, float(theta0), delta, tol, max_depth).total


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


def _sample_count(duration: float, frequency: float) -> int:
    T = float(duration)
    f = float(frequency)
    if T <= 0.0 or f <= 0.0:
        raise ValueError("duration and frequency must be positive")
    n = int(round(T * f))
    if n < 1:
        raise ValueError("duration times frequency must round to at least one step")
    return n


def _finish_profile(thetas, duration, frequency, mode) -> TrajectoryProfile:
    thetas = np.asarray(thetas, dtype=float)
    n = thetas.shape[0] - 1
    times = np.arange(n + 1) / float(frequency)
    omegas = np.empty(n + 1)
    omegas[:n] = np.diff(thetas) * float(frequency)
    omegas[n] = omegas[n - 1]
    return TrajectoryProfile(
        times=times,
        thetas=thetas,
        omegas=omegas,
        duration=float(duration),
        frequency=float(frequency),
        mode=mode,
    )


def linear_profile(
    theta0: float,
    theta1: float,
    duration: float,
    frequency: float,
    direction: str = "short",
) -> TrajectoryProfile:
    """Constant velocity sweep of the chosen arc."""
    n = _sample_count(duration, frequency)
    delta = resolve_arc(theta0, theta1, direction)
    thetas = float(theta0) + delta * np.arange(n + 1) / n
    return _finish_profile(thetas, duration, frequency, "linear")


def quintic_time_scaling(theta_start: float, theta_end: float, duration: float):
    """Quintic rest-to-rest scaling between two unwrapped angles.

    Returns a callable mapping a time to (theta, omega).  Boundary
    values are exact, boundary velocities and accelerations vanish, and
    the peak speed 15*|theta_end - theta_start| / (8*duration) occurs at
    the half-time.  Times outside [0, duration] clamp to the endpoints.
    """
    T = float(duration)
    if T <= 0.0:
        raise ValueError("duration must be positive")
    start = float(theta_start)
    delta = float(theta_end) - start

    def scaling(time: float) -> tuple:
        tau = float(time) / T
        if tau <= 0.0:
            tau = 0.0
        elif tau >= 1.0:
            tau = 1.0
        s = tau * tau * tau * (10.0 + tau * (-15.0 + 6.0 * tau))
        sd = 30.0 * tau * tau * (1.0 + tau * (-2.0 + tau))
        return start + s * delta, sd * delta / T

    return scaling


def quintic_profile(
    theta0: float,
    theta1: float,
    duration: float,
    frequency: float,
    direction: str = "short",
) -> TrajectoryProfile:
    """Rest-to-rest quintic sweep of the chosen arc, sampled uniformly."""
    n = _sample_count(duration, frequency)
    delta = resolve_arc(theta0, theta1, direction)
    scaling = quintic_time_scaling(theta0, float(theta0) + delta, duration)
    f = float(frequency)
    thetas = np.array([scaling(i / f)[0] for i in range(n + 1)])
    return _finish_profile(thetas, duration, frequency, "quintic")


def _blend_warp(u: float, ramp: float = 0.1) -> float:
    """Monotone C1 warp of [0, 1] with flat ends and a linear middle.

    The slope ramps in over the first and out over the last `ramp`
    fraction with a cubic smoothstep, which removes the velocity jump of
    a purely equidistant profile at start and stop.
    """
    m = 1.0 / (1.0 - ramp)

    def ramp_area(x: float) -> float:
        v = x / ramp
        return m * ramp * (v * v * v - 0.5 * v * v * v * v)

    if u <= 0.0:
        return 0.0
    if u >= 1.0:
        return 1.0
    if u < ramp:
        return ramp_area(u)
    if u > 1.0 - ramp:
        return 1.0 - ramp_area(1.0 - u)
    return m * ramp * 0.5 + m * (u - ramp)


def equidistant_profile(
    mechanism: Mechanism,
    theta0: float,
    theta1: float,
    duration: float,
    frequency: float,
    tool=(0.0, 0.0, 0.0),
    direction: str = "short",
    blend: bool = False,
    tol: float = 1e-10,
    max_depth: int = 40,
) -> TrajectoryProfile:
    """Profile whose samples are equidistant along the tool point path.

    The tool point is given in the tool frame and travels the chosen
    arc, including through the home configuration when the arc crosses
    it.  Each sampling step covers the same tool path length, so the
    joint velocity rises where the tool point moves slowly.  With
    blend=True the first and last tenth of the samples ease in and out
    instead of starting at full speed.
    """
    n = _sample_count(duration, frequency)
    delta = resolve_arc(theta0, theta1, direction)
    start = float(theta0)
    thetas = np.full(n + 1, start)
    if delta != 0.0:
        table = _angle_table(mechanism, tool, start, delta, tol, max_depth)
        fractions = [_blend_warp(i / n) if blend else i / n for i in range(n + 1)]
        targets, ktol = _knot_targets(table.total, fractions)
        thetas[1:-1] = start + math.copysign(1.0, delta) * table.invert(targets, ktol)
        thetas[n] = start + delta
    return _finish_profile(thetas, duration, frequency, "equidistant")
