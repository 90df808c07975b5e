"""Dual quaternion algebra for rigid displacements.

A dual quaternion is stored as eight real coefficients

    (c0, c1, c2, c3, c4, c5, c6, c7)
  =  c0 + c1*i + c2*j + c3*k + eps*(c4 + c5*i + c6*j + c7*k)

with quaternion units i, j, k and the dual unit eps (eps**2 = 0).
A displacement is represented by a Study quaternion h, i.e. one whose
norm h * conj(h) is a nonzero real number.  Points embed as
1 + eps*(x1*i + x2*j + x3*k) and lines as direction + eps*moment.
"""

from __future__ import annotations

import math

import numpy as np

from . import _kernels
from ._tolerances import CANONICAL_TOL, STUDY_TOL, TOL, UNIT_NORM_TOL
from .errors import (
    DegenerateDisplacement,
    ZeroDirection,
    ZeroElement,
)

_CONJ_SIGNS = np.array([1.0, -1.0, -1.0, -1.0, 1.0, -1.0, -1.0, -1.0])
_EPS_SIGNS = np.array([1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0, -1.0])


def _binary_normalized(c: np.ndarray) -> np.ndarray:
    """c scaled by the power of two that brings its largest coefficient
    into [0.5, 1); exact, so it changes no ratio of coefficients."""
    return np.ldexp(c, -math.frexp(float(np.abs(c).max()))[1])


def _primal_vanishes(primal_sq: float, total_sq: float) -> bool:
    """Whether |P| <= TOL * |c|, from |P|**2 and |c|**2 of binary
    normalized coefficients c with primal part P.

    This is the one zero test of a displacement's primal part.  It is
    relative to the whole magnitude, not to a Study tolerance, so a
    displacement far from the origin, whose dual part dominates |c|,
    still counts as one.
    """
    return primal_sq <= TOL * TOL * total_sq


def _norm_parts(c: np.ndarray) -> tuple:
    """Norm pair p.p, 2 p.q and squared magnitude of binary normalized
    coefficients c = p + eps*q, each summed as the product c * conj(c) sums."""
    p0, p1, p2, p3, q0, q1, q2, q3 = c.tolist()
    pp = p0 * p0 + p1 * p1 + p2 * p2 + p3 * p3
    dual = p0 * q0 + p1 * q1 + p2 * q2 + p3 * q3 + p0 * q0 + p1 * q1 + p2 * q2 + p3 * q3
    return pp, dual, pp + q0 * q0 + q1 * q1 + q2 * q2 + q3 * q3


def _is_study(c: np.ndarray, tol: float) -> bool:
    """Study gate of binary normalized coefficients c: the primal part
    must not vanish (_primal_vanishes) and the dual norm part must stay
    within tol of the squared magnitude."""
    np_, nd, scale = _norm_parts(c)
    return not _primal_vanishes(np_, scale) and abs(nd) / scale <= tol


def _first_nonzero_sign(v: np.ndarray, n: float) -> float:
    """Sign of the first coefficient of v above TOL * n, 1.0 if none."""
    first = next((x for x in v.tolist() if abs(x) > TOL * n), 1.0)
    return -1.0 if first < 0.0 else 1.0


class DualQuaternion:
    """Immutable dual quaternion over the reals.

    Parameters
    ----------
    coeffs : array_like, shape (8,)
        Coefficients in the order scalar, i, j, k, eps, eps*i, eps*j,
        eps*k.  All entries must be finite.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs):
        c = np.array(coeffs, dtype=float)
        if c.shape != (8,):
            raise ValueError("expected 8 coefficients, got shape %s" % (c.shape,))
        if not np.isfinite(c).all():
            raise ValueError("coefficients must be finite")
        c.flags.writeable = False
        self._c = c

    @classmethod
    def identity(cls) -> "DualQuaternion":
        return cls([1.0, 0, 0, 0, 0, 0, 0, 0])

    @classmethod
    def from_point(cls, x) -> "DualQuaternion":
        """Embed a Euclidean point as 1 + eps*(x1*i + x2*j + x3*k)."""
        x = np.asarray(x, dtype=float)
        if x.shape != (3,):
            raise ValueError("expected 3 point coordinates")
        return cls([1.0, 0, 0, 0, 0, x[0], x[1], x[2]])

    @classmethod
    def from_translation(cls, v) -> "DualQuaternion":
        """Displacement translating by the vector v."""
        v = np.asarray(v, dtype=float)
        if v.shape != (3,):
            raise ValueError("expected 3 translation components")
        return cls([1.0, 0, 0, 0, 0, -0.5 * v[0], -0.5 * v[1], -0.5 * v[2]])

    @property
    def coeffs(self) -> np.ndarray:
        """The eight coefficients as a read-only array."""
        return self._c

    @property
    def primal(self) -> np.ndarray:
        return self._c[:4]

    @property
    def dual(self) -> np.ndarray:
        return self._c[4:]

    def __repr__(self):
        return "DualQuaternion(%r)" % (self._c.tolist(),)

    def __sub__(self, other):
        if not isinstance(other, DualQuaternion):
            return NotImplemented
        return DualQuaternion(self._c - other._c)

    def __mul__(self, other):
        if not isinstance(other, DualQuaternion):
            return NotImplemented
        return DualQuaternion(_kernels.dq_mul8(self._c, other._c))

    def conjugate(self) -> "DualQuaternion":
        """Quaternion conjugation, negating both vector parts."""
        return DualQuaternion(self._c * _CONJ_SIGNS)

    def _norm_and_scale(self) -> tuple:
        """_norm_parts of the binary normalized coefficients, shared with the
        pose gate of inverse kinematics: no overflow or underflow."""
        return _norm_parts(_binary_normalized(self._c))

    def study_defect(self) -> float:
        """Dual norm part relative to the squared magnitude."""
        _, nd, scale = self._norm_and_scale()
        return abs(nd) / scale if scale > 0.0 else 0.0

    def is_study(self, tol: float = STUDY_TOL) -> bool:
        """Whether h * conj(h) is real and nonzero within tolerance (_is_study)."""
        return _is_study(_binary_normalized(self._c), tol)

    def is_line(self, tol: float = TOL) -> bool:
        """Whether this element is a Pluecker line.

        Requires vanishing scalar parts, a nonzero direction and a
        direction orthogonal to the moment.  The tests run on the binary
        normalized coefficients, so the verdict holds at any float scale.
        """
        c = _binary_normalized(self._c)
        s = float(np.sqrt(np.dot(c, c)))
        d = c[1:4]
        m = c[5:8]
        if np.sqrt(np.dot(d, d)) <= tol * s:
            return False
        if abs(c[0]) > tol * s or abs(c[4]) > tol * s:
            return False
        return abs(float(np.dot(d, m))) <= tol * s * s

    def act_on_point(self, x):
        """Apply the displacement to a point.

        Accepts either three coordinates or an embedded point and
        returns the image in the same form.  The action is
        h_eps * (1 + eps*x) * conj(h) divided by the real norm, so any
        scalar multiple of h gives the same result.
        """
        as_dq = isinstance(x, DualQuaternion)
        pt = x if as_dq else DualQuaternion.from_point(x)
        np_, _, scale = self._norm_and_scale()
        if _primal_vanishes(np_, scale):
            raise DegenerateDisplacement(
                "primal norm vanishes, element does not act on points"
            )
        c = _binary_normalized(self._c)
        y = _kernels.dq_mul8(_kernels.dq_mul8(c * _EPS_SIGNS, pt._c), c * _CONJ_SIGNS)
        y = y / np_
        if as_dq:
            return DualQuaternion(y)
        return y[5:8].copy()

    def canonical(self) -> "DualQuaternion":
        """Canonical representative of the projective class.

        Divides by c0 when |c0| exceeds CANONICAL_TOL relative to the
        magnitude, otherwise scales to unit norm with the first nonzero
        coordinate positive.  The scale relative test on c0 makes the
        result invariant under nonzero scalar multiples.  Raises
        ZeroElement for the zero element.
        """
        c = self._c
        n = math.hypot(*c)  # scaled internally, so it cannot overflow
        if n == 0.0:
            raise ZeroElement("cannot normalize a zero dual quaternion")
        if abs(c[0]) > CANONICAL_TOL * n:
            return DualQuaternion(c / c[0])
        # skip the division when already unit so the map is idempotent
        # down to the last bit
        scaled = c if abs(n - 1.0) <= UNIT_NORM_TOL else c / n
        return DualQuaternion(scaled * _first_nonzero_sign(scaled, 1.0))


def line_from_point_direction(direction, point, normalized: bool = False) -> DualQuaternion:
    """Pluecker line through a point with the given direction.

    The primal part carries the direction and the dual part the moment
    point x direction.  With normalized=True the direction is scaled to
    unit length first, at any float scale.  Raises ZeroDirection when
    the direction is zero.
    """
    d = np.asarray(direction, dtype=float)
    q = np.asarray(point, dtype=float)
    if d.shape != (3,) or q.shape != (3,):
        raise ValueError("direction and point must have 3 components")
    if not np.any(d):
        raise ZeroDirection("line direction must be nonzero")
    if normalized:
        d = _binary_normalized(d)
        d = d / math.sqrt(float(np.dot(d, d)))
    m = np.cross(q, d)
    return DualQuaternion([0.0, d[0], d[1], d[2], 0.0, m[0], m[1], m[2]])
