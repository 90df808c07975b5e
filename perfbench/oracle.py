"""Reference evaluation of tool paths, independent of dqlink.trajectory.

Everything here is plain numpy written against the definitions in the
paper, not against the library: the motion is evaluated homogeneously in
the driving angle, the tool point is moved by the dual quaternion action
and arc length is the length of a dense polyline, Romberg
extrapolated.  Only the mechanism data (coefficients, driving axis,
tool displacement) is taken from the loaded fixtures.
"""

import math

import numpy as np

TWO_PI = 2.0 * math.pi
_CONJ = np.array([1.0, -1.0, -1.0, -1.0, 1.0, -1.0, -1.0, -1.0])
_EPS_CONJ = np.array([1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0, -1.0])

# polyline segments per arc for arc_length_between checks; arcs span at
# most a full turn, so the angular spacing stays below MAX_SPACING
ARC_SEGMENTS = 1024
MAX_SPACING = 2.0 * math.pi / ARC_SEGMENTS
# finer sampling for a second look where the first one disagrees: near a
# cusp of the tool path (speed close to zero) the path turns within a few
# thousandths of a radian, which MAX_SPACING does not resolve
REFINE = 16


def _qmul(a, b):
    a0, a1, a2, a3 = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    b0, b1, b2, b3 = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack(
        [
            a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
        ],
        axis=-1,
    )


def dq_product(a, b):
    """Dual quaternion product, broadcasting over leading axes."""
    ap, ad = a[..., :4], a[..., 4:]
    bp, bd = b[..., :4], b[..., 4:]
    return np.concatenate([_qmul(ap, bp), _qmul(ap, bd) + _qmul(ad, bp)], axis=-1)


def act(h, x):
    """Image of points x (..., 3) under displacements h (..., 8)."""
    x = np.asarray(x, dtype=float)
    pt = np.zeros(np.broadcast_shapes(h.shape[:-1], x.shape[:-1]) + (8,))
    pt[..., 0] = 1.0
    pt[..., 5:8] = x
    y = dq_product(dq_product(h * _EPS_CONJ, pt), h * _CONJ)
    norm = np.sum(h[..., :4] * h[..., :4], axis=-1)
    return y[..., 5:8] / norm[..., None]


class ToolPath:
    """Motion and tool point of one fixture, evaluated at joint angles."""

    def __init__(self, coeffs, driving_axis, tool_home):
        self.coeffs = np.array(coeffs, dtype=float)
        axis = np.array(driving_axis, dtype=float)
        self.q0 = float(axis[0])
        self.r = float(np.linalg.norm(axis[1:]))
        self.tool_home = np.array(tool_home, dtype=float)

    def motion(self, theta):
        """A scalar multiple of C(t(theta)) for angles of any shape.

        With t = r/tan(theta/2) + q0 = a/s, s**d * C(t) is the sum of
        c_k a**k s**(d-k), which stays finite at the home angle.
        """
        h = 0.5 * np.asarray(theta, dtype=float)
        s = np.sin(h)
        a = self.r * np.cos(h) + self.q0 * s
        d = self.coeffs.shape[0] - 1
        out = np.zeros(h.shape + (8,))
        for k in range(d + 1):
            out += (a**k * s ** (d - k))[..., None] * self.coeffs[k]
        return out

    def pose(self, theta):
        """Tool pose C(t(theta)) * tool_home, up to a scalar factor."""
        return dq_product(self.motion(theta), self.tool_home)

    def points(self, theta, tool):
        """Tool point positions; tool broadcasts against theta."""
        tracked = act(self.tool_home, np.asarray(tool, dtype=float))
        return act(self.motion(theta), tracked)


def travel(theta0, theta1, direction):
    """Signed angular travel along an arc, by the documented rule."""
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


def polyline_lengths(points):
    """Romberg-extrapolated lengths of curves sampled at 4m+1 points.

    points has shape (..., 4m+1, 3) with uniform parameter spacing h.
    The polyline error is a series in h**2, h**4, ...; the polylines
    through every point, every second and every fourth point cancel the
    first two terms.
    """
    h1, h2, h4 = (
        np.linalg.norm(np.diff(points[..., ::step, :], axis=-2), axis=-1).sum(axis=-1)
        for step in (1, 2, 4)
    )
    fine = (4.0 * h1 - h2) / 3.0
    coarse = (4.0 * h2 - h4) / 3.0
    return (16.0 * fine - coarse) / 15.0


def arc_lengths(path, starts, ends, tools, refine=1):
    """Lengths of many arcs of one fixture, from starts to ends (unwrapped)."""
    starts = np.asarray(starts, dtype=float)
    ends = np.asarray(ends, dtype=float)
    tools = np.asarray(tools, dtype=float)
    out = np.empty(starts.shape[0])
    u = np.linspace(0.0, 1.0, ARC_SEGMENTS * refine + 1)
    chunk = max(1, 64 // refine)
    for lo in range(0, starts.shape[0], chunk):
        hi = min(lo + chunk, starts.shape[0])
        a = starts[lo:hi, None]
        thetas = a + (ends[lo:hi, None] - a) * u
        pts = path.points(thetas, tools[lo:hi, None, :])
        out[lo:hi] = polyline_lengths(pts)
    return out


def step_lengths(path, thetas, tool, refine=1):
    """Tool path length covered by each step of a sampled profile."""
    thetas = np.asarray(thetas, dtype=float)
    widest = float(np.max(np.abs(np.diff(thetas))))
    segments = 4 * refine * max(4, math.ceil(0.25 * widest / MAX_SPACING))
    u = np.linspace(0.0, 1.0, segments + 1)
    grid = thetas[:-1, None] + np.diff(thetas)[:, None] * u
    return polyline_lengths(path.points(grid, np.asarray(tool, dtype=float)))


def angle_gap(a, b):
    """Distance between two angles on the circle."""
    g = abs(float(a) - float(b)) % TWO_PI
    return min(g, TWO_PI - g)
