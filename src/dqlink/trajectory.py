"""Arc length, equidistant segmentation and joint velocity profiles.

A tool point path is a rational curve (x1 : x2 : x3) / x0 of degree D,
integrated in the one chart (a : s) = (cos(phi/2) : sin(phi/2)) of its
parameter tau = a/s = cot(phi/2), in which the home configuration (phi
a multiple of 2*pi, tau at infinity) is an ordinary point.  A
mechanism's tool motion comes already written in tau
(kinematics._cot_coeffs, t = q0 + r*tau with q0 and r the scalar part
and the vector length of the driving axis quaternion), so that phi is
the unwrapped driving angle; for arcs between curve parameters tau is t
itself.

The tool path of a degree-n motion has degree D = 2n, since x0 is the
primal norm |C(t)|**2.  Its homogeneous coordinates are forms of
degree 2n in (a, s), so in the angle chart each is a trigonometric
polynomial of order n in phi: coefficients of cos(m*phi) and
sin(m*phi) for m = 0..n, 2n+1 of them, the same space as the 2n+1
polynomial coefficients in another basis.  The map between the two
bases comes in closed form from binomial coefficients, since a and s
are (u + 1/u)/2 and (u - 1/u)/(2i) in u = exp(i*phi/2); its entries
are dyadic rationals and exact in floats, one read-only map per order
(_harmonic_map).  A mechanism builds its angle chart on first use and
keeps it read-only in a private slot: the harmonic coefficients of
X0..X3 and of dX/dphi for each row of the point action of its tool
motion, which is affine in the tool point, already as the rows that
the speed multiplies, and the pole angles, those of the real roots of
x0 and phi = 0 when x0 drops degree.  A tool point then costs one
affine combination of that array and a finiteness check, and each
speed evaluation |dP/dphi| one complex exponential, one complex product
of rows per higher harmonic and one matrix product, with every
coordinate a contiguous row over the nodes.  Poles inside an interval
are rejected with PoleOnPath.

Lengths come from composite Gauss-Legendre panels.  All panels of one
refinement level are evaluated in a single numpy call; a panel whose
value differs from the sum of its two halves by more than the panel
tolerance is split, otherwise its halves are kept, for at most
_MAX_DEPTH levels.  The panel tolerance is _PANEL_TOL times the power of
two just above the path's largest x1..x3 harmonic coefficient, so that
a path gets the same panels in any length unit (_table); arc_length's
explicit tol is an absolute length instead.  The first level
evaluates its at most 16 equal panels and their halves, whose starts are
the panel width times one constant template (_LEVEL0); later levels
evaluate only the halves of the open panels, all of one width.  The
table sums its total up front and gathers its columns and node speeds
only when knots read them.  Equidistant knots invert it, _KNOT_BLOCK
knots per block.  A knot's first guess comes from the panel that holds
its target length: a few Newton steps on the length of the degree-11
interpolant of the panel's node speeds, one fixed antiderivative matrix
applied to the speeds of the block's panels, with no speed evaluation;
each step is one power block and one stacked product.  The
true-integral check is the postcondition: one speed call per pass, at
the panel's Gauss nodes up to the knot and at the knot itself, and
where a knot misses it takes safeguarded Newton steps, with the panel's
Gauss length as value and the speed as derivative, inside that panel
until it meets its tolerance.

Profiles sample a duration T at frequency f into n = round(T*f) steps,
n+1 samples with timestamps i/f, and report the duration n/f that the
samples cover; n above _MAX_SAMPLES raises ValueError.  Every profile
maps the one timing fraction u = i/n of each sample to an angle: the
joint sweep theta0 + delta*u for the linear profile, theta0 +
delta*s(u) with the rest-to-rest quintic s for the quintic one, or the
inversion of the tool path length table for the equidistant one, so
each ends at theta0 + delta.  Reported
joint velocities are forward differences omega_i = (theta_{i+1} -
theta_i) * f with the last value repeated, so they are exactly
consistent with the returned angles.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from ._tolerances import KNOT_TOL as _KNOT_TOL, PANEL_TOL as _PANEL_TOL, POLE_MARGIN
from .dq import _binary_normalized
from .errors import PoleOnPath, QuadratureFailure
from .kinematics import TWO_PI, Mechanism, _axis_parts, _t_to_angle
from .motionpoly import (
    RationalPointPath,
    _affine_action,
    _basis_sizes,
    _degree,
    _point_action,
    _real_roots,
    _speed,
)

ARC_DIRECTIONS = ("short", "long", "increasing", "decreasing")


def _gauss_legendre(order: int) -> tuple:
    """Gauss-Legendre nodes and weights mapped to the unit interval.

    Newton's method on the Legendre recurrence from the usual cosine
    guesses; the same rule as numpy.polynomial.legendre.leggauss, without
    importing numpy.polynomial and without the LAPACK eigenvalue solve
    that leggauss would make when this module is imported.
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


def _antiderivative_matrix(nodes: np.ndarray) -> np.ndarray:
    """Map from speeds at the nodes to the integral of their interpolant.

    Column j holds the ascending coefficients, in the centred variable
    s = 2*tau - 1, of the integral over [0, tau] of the Lagrange basis
    polynomial of node j, so the matrix has one row more than there are
    nodes.  Each basis polynomial is a product of linear factors formed
    with np.convolve; integrating in s halves it, since dtau = ds/2, and
    the constant row makes the integral vanish at s = -1.  At s = 1 the
    columns sum to the quadrature weights of the nodes.  Like
    _gauss_legendre, it needs no numpy.polynomial import and no LAPACK
    call when this module is imported.
    """
    s = 2.0 * nodes - 1.0
    powers = np.arange(1, s.size + 1)
    out = np.empty((s.size + 1, s.size))
    for j, sj in enumerate(s):
        basis = np.ones(1)
        for sm in np.delete(s, j):
            basis = np.convolve(basis, [-sm, 1.0]) / (sj - sm)
        out[1:, j] = 0.5 * basis / powers
        out[0, j] = -np.dot(out[1:, j], (-1.0) ** powers)
    out.flags.writeable = False
    return out


_GL_ANTIDERIVATIVE = _antiderivative_matrix(_GL_NODES)
# a knot check's nodes in [panel start, knot]: the Gauss nodes, then the knot
_CHECK_NODES = np.append(_GL_NODES, 1.0)

# initial panel width in the chart angle
_ANGLE_PANEL = math.pi / 8.0
# refinement levels allowed to meet the panel tolerance, _PANEL_TOL
_MAX_DEPTH = 40
# refinement stops with QuadratureFailure beyond this many open panels,
# which bounds the memory of a level whatever the tolerance asks for
_MAX_PANELS = 4096
# knot inversion: iterates per knot before QuadratureFailure; the
# accepted deviation of a knot's cumulative length is _KNOT_TOL of the
# segment length, half of the 1e-8 allowed per segment, so that
# neighbouring knot errors cannot add up beyond it
_INVERSION_MAX_ITER = 50
# Newton steps on each panel's interpolant for the first guess of a knot
_GUESS_STEPS = 3
# knots per Newton pass: one pass evaluates 13 speed nodes per knot
_KNOT_BLOCK = 1024
# most steps round(T*f) of one profile, about 17 minutes at 1 kHz; an
# equidistant profile peaks at about 2 MB for one Newton pass plus about
# 120 bytes per sample
_MAX_SAMPLES = 10**6
# columns of x0, x1, x2, x3 in an acted point
_POINT_COLUMNS = [0, 5, 6, 7]
# bound of a path's harmonic coefficients, with x0's largest in [0.5, 1):
# a quarter of the exponent range, so the squares of the speed stay finite
_X_LIMIT = 2.0 ** (sys.float_info.max_exp // 4)
# time fraction over which a blended profile ramps its speed in and out
_BLEND_RAMP = 0.1


def _check_finite(*named):
    """Raise ValueError naming the first (name, value) pair that is not finite."""
    for name, value in named:
        if not math.isfinite(value):
            raise ValueError("%s must be finite, got %r" % (name, value))


def _check_poles(poles: np.ndarray, lo: float, hi: float):
    """Raise PoleOnPath when a pole angle, repeated at every multiple of
    2*pi, lies in the chart angles [lo, hi]."""
    if poles.size == 0:
        return
    margin = POLE_MARGIN * (1.0 + hi - lo)
    first = poles + TWO_PI * np.ceil((lo - margin - poles) / TWO_PI)
    inside = first[(first >= lo - margin) & (first <= hi + margin)]
    if inside.size:
        raise PoleOnPath(
            "homogeneous coordinate vanishes at %r inside [%r, %r]"
            % (float(inside[0]), lo, hi)
        )


def _pole_angles(x0: np.ndarray) -> np.ndarray:
    """Chart angles of the real roots of x0, and 0 where x0 drops degree."""
    poles = (2.0 * np.arctan2(1.0, _real_roots(x0))) % TWO_PI
    if _degree(x0) < x0.size - 1:
        poles = np.append(poles, 0.0)
    return poles


def _harmonics(phi: np.ndarray, order: int) -> np.ndarray:
    """cos(m*phi), sin(m*phi) as rows, interleaved, for m = 0, 1, ..., order.

    Each of the 2*(order + 1) rows holds one value per node; the sine of
    m = 0 is a zero row.  cos(phi) and sin(phi) are taken once as
    exp(i*phi), written straight into the row of m = 1, and each higher
    harmonic is the previous one turned by it, one complex product of
    whole rows; two strided assignments then write their real and
    imaginary parts as the cosine and sine rows.
    """
    turns = np.empty((order + 1, phi.size), dtype=complex)
    turns[0] = 1.0
    if order:
        np.exp(1j * phi, out=turns[1])
    for m in range(2, order + 1):
        np.multiply(turns[m - 1], turns[1], out=turns[m])
    out = np.empty((2 * order + 2, phi.size))
    out[0::2], out[1::2] = turns.real, turns.imag
    return out


@lru_cache(maxsize=None)
def _harmonic_map(order: int) -> np.ndarray:
    """Exact read-only maps from a form of degree 2*order to its harmonic
    coefficients, built once per order.

    A homogeneous form X(a, s) = sum_k c_k a**k s**(2*order - k), taken
    in the chart (a : s) = (cos(phi/2) : sin(phi/2)), is a sum of the
    harmonics of _harmonics up to order.  Row k of maps[0] holds the
    harmonic coefficients of a**k s**j, j = 2*order - k, and row k of
    maps[1] those of its phi-derivative, so the row of ascending
    coefficients c_k times maps[0] or maps[1] gives the harmonic
    coefficients of X or dX/dphi as a row, the layout of _Speed.

    With u = exp(i*phi/2), a = (u + 1/u)/2 and s = (u - 1/u)/(2i), so
    a**k s**j is (u + 1/u)**k (u - 1/u)**j / (2**(2*order) i**j).  The
    coefficients of that product, ascending from u**(-2*order), are one
    np.convolve of two binomial rows, and its entry order + m, C, belongs
    to u**(2m) = exp(i*m*phi).  Paired with the entry of exp(-i*m*phi),
    it makes the coefficient (-1)**(j//2) * C / 2**(2*order) of cos(m*phi)
    for even j or of sin(m*phi) for odd j, doubled for m > 0.  Every
    value entry is an integer below 2**(2*order) times a power of two,
    and every slope entry m <= order times one, so both are exact in
    floats.
    """
    size = 2 * order + 1
    binomials = [np.array([math.comb(n, i) for i in range(n + 1)]) for n in range(size)]
    maps = np.zeros((2, size, size + 1))
    for k, j in zip(range(size), range(size - 1, -1, -1)):
        # (u + 1/u)**k (u - 1/u)**j, ascending from u**(1 - size)
        c = np.convolve(binomials[k], binomials[j] * (-1) ** np.arange(j, -1, -1))
        maps[0, k, j % 2 :: 2] = (-1) ** (j // 2) * 2.0 ** (2 - size) * c[order:]
    maps[0, :, 0] *= 0.5
    # d/dphi takes (cos, sin) coefficients (u, v) of harmonic m to (m*v, -m*u)
    m = np.arange(order + 1)
    maps[1, :, 0::2], maps[1, :, 1::2] = m * maps[0, :, 1::2], -m * maps[0, :, 0::2]
    maps.flags.writeable = False
    return maps


class _Speed:
    """Vectorized speed |dP/dphi| of a path in the chart angle phi.

    coef is an (8, 2n + 2) array of rows, taken as given: rows 0..3 hold
    the harmonic coefficients of X0..X3 and rows 4..7 those of dX/dphi,
    each interleaved as _harmonics orders its rows, so one matrix product
    with the harmonics gives every coordinate as a row over the nodes.
    Called with offsets from start along sigma, +1 or -1 and applied as
    one exact add or subtract, it returns |X0 * dX - X * dX0| / X0**2
    (motionpoly._speed) at the cost of one complex exponential, a complex
    product per higher harmonic and one matrix product for all nodes.
    """

    def __init__(self, coef, start, sigma):
        self.order = coef.shape[1] // 2 - 1
        self.rows = coef
        self.start = float(start)
        self._along = np.add if sigma > 0.0 else np.subtract

    def __call__(self, offsets):
        both = self.rows @ _harmonics(self._along(self.start, offsets), self.order)
        return _speed(both[:4], both[4:])


def _gauss(speed, lo: np.ndarray, width) -> tuple:
    """Gauss-Legendre integrals of speed over [lo, lo + width], per panel,
    and the speeds at the panels' nodes, along a last axis of nodes.

    lo may have any shape; width is one float or broadcasts against lo.
    """
    x = lo[..., None] + np.asarray(width)[..., None] * _GL_NODES
    f = speed(x.ravel()).reshape(x.shape)
    return (f @ _GL_WEIGHTS) * width, f


# a panel and its halves: starts and widths in panel widths, then the
# starts of the first level's at most 2*pi / _ANGLE_PANEL panels
_SPLIT = np.array([[0.0, 0.0, 0.5], [1.0, 0.5, 0.5]])
_LEVEL0 = np.arange(round(TWO_PI / _ANGLE_PANEL))[:, None] + _SPLIT[0]


class _Table:
    """Cumulative arc length over [0, span] of the speed at offsets into it.

    Panels are refined level by level until each one agrees with the
    sum of its halves to tol; the halves are kept, and so are the speeds
    at their Gauss nodes, for the first guesses of _knots.  The first
    level evaluates its pieces <= 16 equal panels of [0, span] with their
    halves in one speed call, from the starts size * _LEVEL0; later
    levels evaluate only the halves of the open panels, whose values the
    level before holds.  The halves of one level share one width, kept
    as one float.  Halving is exact, so a half's nodes and value are
    those of the Gauss rule on its own start and width.  Raises
    QuadratureFailure when a panel still misses tol after _MAX_DEPTH
    levels.  Only total, the sum of the kept halves in order of start, is
    built up front; the columns of _columns, one entry per kept half in
    that order, on first read.
    """

    def __init__(self, speed, span: float, pieces: int, tol: float):
        self.speed = speed
        self.span = span
        size = span / pieces
        start = size * _LEVEL0[:pieces]
        value, f = _gauss(speed, start, size * _SPLIT[1])
        whole, start, value, f = value[:, 0], start[:, 1:], value[:, 1:], f[:, 1:]
        width = 0.5 * size
        self._levels = levels = []
        for depth in range(_MAX_DEPTH + 1):
            ok = np.abs(value[:, 0] + value[:, 1] - whole) <= tol
            if np.logical_and.reduce(ok):
                levels.append((start, value, f, width))
                break
            levels.append((start[ok], value[ok], f[ok], width))
            lo, whole = start[~ok].ravel(), value[~ok].ravel()
            if depth == _MAX_DEPTH or lo.size > _MAX_PANELS:
                raise QuadratureFailure(
                    "Gauss-Legendre panel [%r, %r] still above tolerance %g "
                    "at depth %d" % (float(lo[0]), float(lo[0] + width), tol, depth)
                )
            width *= 0.5
            start = lo[:, None] + (0.0, width)
            value, f = _gauss(speed, start, width)
        self._order = slice(None)
        if len(levels) > 1:
            self._order = np.argsort(self._column(0))
            value = self._column(1)
        self.total = float(value.cumsum()[-1])

    def _column(self, field: int) -> np.ndarray:
        """Starts, values or node speeds of the kept halves, in order."""
        kept = np.concatenate([level[field] for level in self._levels])
        return kept.reshape(-1, *kept.shape[2:])[self._order]

    @cached_property
    def _columns(self) -> tuple:
        """lo, width, value, ends and node speeds, in order of start."""
        lo, value, f = self._column(0), self._column(1), self._column(2)
        sizes, counts = zip(*[(level[3], level[1].size) for level in self._levels])
        width = np.array(sizes).repeat(counts)[self._order]
        return lo, width, value, value.cumsum(), f


def _newton_in_panel(coef: np.ndarray, s: np.ndarray) -> np.ndarray:
    """_GUESS_STEPS Newton steps from s towards a root of each row's polynomial.

    Row i of coef holds ascending coefficients in s.  Each step forms the
    powers of all iterates with one np.multiply.accumulate into a (k, 1,
    size) block whose first column is 1, and their values and slopes with
    one stacked product by the (k, size, 2) array [poly | slope], built
    once.  A slope that is not positive is replaced by +inf, so that the
    step leaves the iterate as it is; each step is clipped to [-1, 1].
    """
    k, size = coef.shape
    both = np.zeros((k, size, 2))
    both[:, :, 0] = coef
    both[:, :-1, 1] = coef[:, 1:] * np.arange(1, size)
    powers = np.empty((k, 1, size))
    powers[:, 0, 0] = 1.0
    for _ in range(_GUESS_STEPS):
        powers[:, 0, 1:] = s[:, None]
        np.multiply.accumulate(powers, axis=2, out=powers)
        miss, slope = (powers @ both).reshape(k, 2).T
        slope[slope <= 0.0] = np.inf
        s = np.minimum(np.maximum(s - miss / slope, -1.0), 1.0)
    return s


def _knots(table: _Table, fractions: np.ndarray) -> np.ndarray:
    """Offsets of the interior knots at fractions of the table's length.

    fractions runs from 0 to 1 over n+1 knots; each interior knot is
    resolved to _KNOT_TOL times the segment length total/n.  The first
    guess of a knot comes from the panel that holds its target: the
    degree-11 interpolant of the panel's node speeds integrates to the
    panel's own table value, its length from the panel start is a
    polynomial whose coefficients _GL_ANTIDERIVATIVE gives, and
    _GUESS_STEPS Newton steps on that polynomial (_newton_in_panel),
    from the linear guess, place the knot.  The interpolant may miss the
    true length by about the knot tolerance, so the true-integral check
    stays the postcondition: one speed call per pass evaluates the
    panel's Gauss nodes scaled to [panel start, knot] and, as their 13th
    node, the knot itself.  A knot that misses takes safeguarded Newton
    steps inside its bracket, its panel, with the Gauss length from the
    panel start as value and the speed as derivative, where a step that
    leaves the shrinking bracket is replaced by bisection.  Knots are
    guessed and checked in blocks of _KNOT_BLOCK, which bounds the memory
    of one speed evaluation whatever the number of knots.  Raises
    QuadratureFailure when some knot misses its tolerance after
    _INVERSION_MAX_ITER iterates.  A path of zero length has no arc to
    follow, so its knots sit at the fractions of the span instead.

    Knots are defined to _KNOT_TOL, not to the bit: the speed's matrix
    product rounds by batch shape, so _KNOT_BLOCK or the count of open
    knots can move a knot by a few ulp (1.1e-16 rad measured), which
    test_knot_blocks_bound_memory_and_keep_the_knots bounds by 1e-12.
    """
    if table.total == 0.0:
        return fractions[1:-1] * table.span
    targets = fractions[1:-1] * table.total
    tol = _KNOT_TOL * table.total / (fractions.size - 1)
    starts, widths, values, ends, speeds = table._columns
    idx = np.minimum(ends.searchsorted(targets), ends.size - 1)
    base, size, value = starts[idx], widths[idx], values[idx]
    want = targets - (ends[idx] - value)
    # the linear guesses in the centred s = 2*frac - 1, 0 in an empty panel
    start = np.divide(want, 0.5 * value, out=np.ones(want.size), where=value > 0.0)
    start = np.minimum(np.maximum(start - 1.0, -1.0), 1.0)
    x = np.empty_like(base)
    for first in range(0, targets.size, _KNOT_BLOCK):
        block = slice(first, first + _KNOT_BLOCK)
        width = size[block]
        # the interpolant's length from the panel start, a polynomial in s
        poly = (speeds[idx[block]] @ _GL_ANTIDERIVATIVE.T) * width[:, None]
        poly[:, 0] -= want[block]
        s = _newton_in_panel(poly, start[block])
        x[block] = base[block] + 0.5 * (s + 1.0) * width
        xb, bb, wb = x[block], base[block], want[block]
        todo, lo, hi = np.arange(xb.size), bb.copy(), bb + width
        for _ in range(_INVERSION_MAX_ITER):
            # length from the panel start to x by the panel's own rule,
            # and the speed at x, in one evaluation
            xt, bt = xb[todo], bb[todo]
            nodes = bt[:, None] + (xt - bt)[:, None] * _CHECK_NODES
            f = table.speed(nodes.ravel()).reshape(nodes.shape)
            miss = (f[:, :-1] @ _GL_WEIGHTS) * (xt - bt) - wb[todo]
            open_ = np.abs(miss) > tol
            if not np.logical_or.reduce(open_):
                break
            todo, miss, slope, xt = todo[open_], miss[open_], f[open_, -1], xt[open_]
            lo[todo] = np.where(miss < 0.0, xt, lo[todo])
            hi[todo] = np.where(miss > 0.0, xt, hi[todo])
            with np.errstate(divide="ignore", invalid="ignore"):
                step = xt - miss / slope
            inside = (step > lo[todo]) & (step < hi[todo])
            xb[todo] = np.where(inside, step, 0.5 * (lo[todo] + hi[todo]))
        else:
            raise QuadratureFailure(
                "arc length inversion left %d knots above tolerance %g after %d "
                "iterations" % (todo.size, tol, _INVERSION_MAX_ITER)
            )
    return x


def _x0_scaled(coef: np.ndarray) -> np.ndarray:
    """coef scaled by the power of two that brings the largest of X0 and
    dX0 (rows 0 and 4 of its last two axes, as _Speed orders them) into
    [0.5, 1), which the speed does not see; ValueError when X0 is zero or
    another coefficient reaches _X_LIMIT times that largest one."""
    top = float(np.max(np.abs(coef[..., [0, 4], :])))
    if not float(np.max(np.abs(coef))) < top * _X_LIMIT:
        raise ValueError("point path overflows: its coordinates exceed x0 by 2**256 or more")
    return np.ldexp(coef, -math.frexp(top)[1])


def _table(coef, poles, start: float, delta: float, tol: float = None) -> _Table:
    """Length table of the harmonic coefficients coef (_Speed) from the
    angle start over delta radians; PoleOnPath for the pole angles.  coef
    is scaled as _x0_scaled scales it and stays below _X_LIMIT.

    tol is the absolute panel tolerance.  By default it is _PANEL_TOL
    times 2**k, where 2**(k-1) <= m < 2**k for the largest magnitude m of
    the harmonic coefficients of X1..X3, rows 1..3 of coef: the speed
    scales with them, so every power-of-two scale of a path's coordinates
    refines the same panels.  That costs one max over those 3(2n + 2)
    coefficients.
    """
    if tol is None:
        tol = math.ldexp(_PANEL_TOL, math.frexp(float(np.abs(coef[1:4]).max()))[1])
    _check_poles(poles, min(start, start + delta), max(start, start + delta))
    span = abs(delta)
    speed = _Speed(coef, start, math.copysign(1.0, delta))
    return _Table(speed, span, max(1, math.ceil(span / _ANGLE_PANEL)), tol)


def _param_table(path: RationalPointPath, a: float, b: float, tol: float = None) -> tuple:
    """Length table of the path from parameter a towards b, and the map
    from its offsets back to parameters.

    The path is integrated in phi, t = cot(phi/2), over phi(b) - phi(a)
    formed as one angle, so a short arc keeps its digits.  A path whose
    x0 vanishes at home (odd degree, or x0 below full degree) runs off to
    infinity there, where its speed in phi has a pole, and raises
    ValueError before any quadrature.  An offset x maps back by the
    tangent addition formula from a, u = tan(-sigma*x/2): t = a - c, c =
    u*(1 + a*a)/(1 + a*u), rounds like a + (t - a) while |c| <= |a|/2;
    beyond, (a - u)/(1 + a*u) does not cancel.  Either keeps t within
    about an ulp of phi.  For |a| > 1, |c| > |a|/2 wherever |u| > 1, so c
    takes u clipped to [-1, 1], against overflow of u*a in a branch that
    np.where discards.
    """
    x0 = path.x0
    if x0.size % 2 == 0 or _degree(x0) < x0.size - 1:
        raise ValueError(
            "point path runs off to infinity at t = inf, where x0 has odd "
            "degree or drops degree; its arcs in t are not supported"
        )
    sigma = math.copysign(1.0, b - a)
    # one power of two for all coordinates keeps the map in range
    coef = _binary_normalized(path._hom).T @ _harmonic_map(x0.size // 2)
    coef = _x0_scaled(coef.reshape(8, -1))
    ab = a * b
    if math.isfinite(ab):
        delta = 2.0 * math.atan2(a - b, 1.0 + ab)
    else:
        # both terms divided by |ab|, beside which 1 drops out
        sign = math.copysign(1.0, ab)
        delta = 2.0 * math.atan2(sign * (1.0 / b - 1.0 / a), sign)
    table = _table(coef, _pole_angles(x0), 2.0 * math.atan2(1.0, a), delta, tol)

    def to_t(x):
        u = -sigma * np.tan(0.5 * x)
        if abs(a) <= 1.0:
            c, far = u * (1.0 + a * a) / (1.0 + a * u), (a - u) / (1.0 + a * u)
        else:
            # divided through by a, against overflow of a*a and a*u
            v = np.clip(u, -1.0, 1.0)
            c, far = v * (a + 1.0 / a) / (1.0 / a + v), (1.0 - u / a) / (1.0 / a + u)
        return np.where(np.abs(c) <= 0.5 * abs(a), a - c, far)

    return table, to_t


def arc_length(path: RationalPointPath, t0: float, t1: float, tol: float = None) -> float:
    """Length of the path between two finite parameters.

    The path is integrated in phi of t = cot(phi/2) (_param_table), with
    tol the absolute tolerance per Gauss-Legendre panel.  By default
    (tol=None) the tolerance follows the path's size: PANEL_TOL times the
    power of two just above the largest harmonic coefficient of x1..x3,
    with x0's largest scaled into [0.5, 1), so a path in any length unit
    gets the same relative accuracy.  Raises
    PoleOnPath when x0 vanishes inside the interval and QuadratureFailure
    when a panel still misses tol after _MAX_DEPTH refinement levels; the
    pole, interval and margin are angles, and the panel bounds offsets
    from the angle of the lower t.  Non-finite parameters, a span that
    overflows, a tol that is not positive and finite, a path that runs
    off to infinity at home (x0 of odd degree or below full degree), or
    one whose coordinates exceed x0 by 2**256 or more (_x0_scaled) raise
    ValueError; an empty interval has length 0 on any path.
    """
    a, b = float(t0), float(t1)
    _check_finite(("t0", a), ("t1", b), ("t1 - t0", b - a))
    if tol is not None and not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite, got %r" % (tol,))
    if a == b:
        return 0.0
    # integrate from the lower end, whichever end comes first
    return _param_table(path, min(a, b), max(a, b), tol)[0].total


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

    Interior knots come from one inversion of arc_length's table, each
    resolved to _KNOT_TOL (0.5e-8) times the segment length as an offset
    in the chart angle, and mapped back to t, which adds up to half an
    ulp of t: on a short arc far from t = 0 that is the larger miss (8.8e-9
    of a segment over [2, 2 + 1e-6] and 2.8e-7 over [100, 100 + 1e-6],
    with 40 segments on a sixbar path).  A path of zero length over the
    span gets evenly spread parameters.  Errors are those of arc_length,
    with its default tol, so a path that runs off to infinity at home
    raises ValueError; n must be an integer (TypeError otherwise) from
    1 to _MAX_SAMPLES, the bound of a profile's steps, checked before
    anything is allocated (ValueError).
    """
    n = operator.index(n)
    if n < 1:
        raise ValueError("need at least one segment")
    if n > _MAX_SAMPLES:
        raise ValueError("need at most %d segments, got %d" % (_MAX_SAMPLES, n))
    a, b = float(t0), float(t1)
    _check_finite(("t0", a), ("t1", b), ("t1 - t0", b - a))
    params = np.full(n + 1, a)
    total = 0.0
    if a != b:
        table, to_t = _param_table(path, a, b)
        total = table.total
        fractions = np.arange(n + 1) / n
        if total == 0.0:
            params[1:-1] = a + (b - a) * fractions[1:-1]
        else:
            params[1:-1] = to_t(_knots(table, fractions))
    params[-1] = b
    params = tuple(float(p) for p in params)
    angles = None
    if driving_axis is not None:
        q0, r = _axis_parts(driving_axis)
        angles = tuple(_t_to_angle(p, q0, r) for p in params)
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
    Non-finite angles, or a span that overflows, raise ValueError.
    """
    if direction not in ARC_DIRECTIONS:
        raise ValueError("direction must be one of %s" % (ARC_DIRECTIONS,))
    a, b = float(theta0), float(theta1)
    _check_finite(("theta0", a), ("theta1", b), ("theta1 - theta0", b - a))
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
    """Harmonic point action, pole angles and basis sizes of the tool paths.

    The point action of the mechanism's tool motion maps a point x of
    the tool frame to action[0] + x @ action[1:], affine in x.  Entry i
    of the (4, 8, 2n+2) harmonic array holds, as rows, the harmonic
    coefficients in phi (_harmonic_map) of the columns x0..x3 of
    action[i] and then those of their phi-derivatives, the row layout of
    _Speed; its affine combination for a tool point is the coefficient
    array of _Speed as it stands, with no transpose or copy.  X0 is the
    same for every tool point, so the array comes scaled once by
    _x0_scaled.  The pole angles are those of x0, the primal norm of the
    tool motion.  The sizes of the harmonic rows
    (motionpoly._basis_sizes) let _affine_action reject a tool point
    whose coefficients would reach _X_LIMIT.  Built on first use and kept, read-only, in the mechanism's
    _chart slot.
    """
    if mechanism._chart is None:
        action = _point_action(mechanism._tool_coeffs)
        maps = _harmonic_map(mechanism._tool_coeffs.shape[0] - 1)
        rows = action.transpose(0, 2, 1)[:, None, _POINT_COLUMNS] @ maps
        harmonic = _x0_scaled(rows.reshape(4, 8, -1))
        chart = (harmonic, _pole_angles(action[0, :, 0]), _basis_sizes(harmonic))
        for arr in chart:
            arr.flags.writeable = False
        object.__setattr__(mechanism, "_chart", chart)
    return mechanism._chart


def _angle_table(mechanism: Mechanism, tool, start, delta) -> _Table:
    """Length table of the tool point path from start over delta radians."""
    harmonic, poles, sizes = _angle_chart(mechanism)
    coef = _affine_action(harmonic, tool, sizes, _X_LIMIT)
    return _table(coef, poles, start, delta)


def arc_length_between(
    mechanism: Mechanism,
    theta0: float,
    theta1: float,
    tool=(0.0, 0.0, 0.0),
    direction: str = "short",
) -> float:
    """Tool point arc length between two joint angles along a chosen arc.

    The panel tolerance follows the size of the tool path, so lengths in
    another unit scale with it.  A tool point whose harmonic coefficients
    may reach _X_LIMIT, 2**256 times x0's largest, raises ValueError.
    """
    delta = resolve_arc(theta0, theta1, direction)
    if delta == 0.0:
        return 0.0
    return _angle_table(mechanism, tool, float(theta0), delta).total


@dataclass(frozen=True)
class TrajectoryProfile:
    """Uniformly timed joint-space samples of one driving joint.

    Angles are unwrapped, i.e. continuous across the 2*pi seam, so that
    forward differences always reflect the physical travel.  duration is
    the span the samples cover, the requested one rounded to whole steps
    of 1/frequency, so it equals the last of the times.
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

    space(start, delta, u) maps the fractions u = i/n of the samples
    i = 0..n to the unwrapped angles of the sweep from start over delta
    radians.
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
    thetas = space(float(theta0), delta, steps / n)
    omegas = np.empty(n + 1)
    np.subtract(thetas[1:], thetas[:-1], out=omegas[:n])
    omegas[:n] *= f
    omegas[n] = omegas[n - 1]
    return TrajectoryProfile(
        times=times, thetas=thetas, omegas=omegas, duration=n / f, frequency=f, mode=mode
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
        lambda start, delta, u: start + delta * u,
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

    def space(start, delta, u):
        # quintic_time_scaling(start, start + delta, n/f) at the times i/f
        return start + _quintic(u)[0] * ((start + delta) - start)

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

    def space(start, delta, u):
        thetas = np.empty(u.size)
        thetas.fill(start)
        if delta != 0.0:
            table = _angle_table(mechanism, tool, start, delta)
            offsets = _knots(table, _blend_warp(u) if blend else u)
            thetas[1:-1] = start + math.copysign(1.0, delta) * offsets
            thetas[-1] = start + delta
        return thetas

    return _profile(
        "equidistant", theta0, theta1, duration, frequency, direction, space
    )
