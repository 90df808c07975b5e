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

import numpy as np

from . import _kernels
from .errors import (
    DegenerateDisplacement,
    ZeroDirection,
    ZeroElement,
)

# structural zero tests (Pluecker scalars, point form, first nonzero scan)
TOL = 1e-9
# Study condition defect, relative to the element's squared magnitude
STUDY_TOL = 1e-9
# minimum relative size of c0 for division by the first coordinate
CANONICAL_TOL = 1e-6

_CONJ_SIGNS = np.array([1.0, -1.0, -1.0, -1.0, 1.0, -1.0, -1.0, -1.0])
_EPS_SIGNS = np.array([1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0, -1.0])


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
        if not np.all(np.isfinite(c)):
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

    def __add__(self, other):
        if not isinstance(other, DualQuaternion):
            return NotImplemented
        return DualQuaternion(self._c + other._c)

    def __sub__(self, other):
        if not isinstance(other, DualQuaternion):
            return NotImplemented
        return DualQuaternion(self._c - other._c)

    def __neg__(self):
        return DualQuaternion(-self._c)

    def __mul__(self, other):
        if isinstance(other, DualQuaternion):
            return DualQuaternion(_kernels.dq_mul8(self._c, other._c))
        if isinstance(other, (int, float)):
            return DualQuaternion(self._c * float(other))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return DualQuaternion(self._c * float(other))
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return DualQuaternion(self._c / float(other))
        return NotImplemented

    def conjugate(self) -> "DualQuaternion":
        """Quaternion conjugation, negating both vector parts."""
        return DualQuaternion(self._c * _CONJ_SIGNS)

    def eps_conjugate(self) -> "DualQuaternion":
        """Dual conjugation eps -> -eps."""
        return DualQuaternion(self._c * _EPS_SIGNS)

    def norm_pair(self) -> tuple:
        """Primal and dual part of h * conj(h).

        The vector parts of that product vanish identically, so the norm
        is fully described by the pair (primal, dual).  For a Study
        quaternion the dual part is zero.
        """
        n = _kernels.dq_mul8(self._c, (self._c * _CONJ_SIGNS))
        return float(n[0]), float(n[4])

    def study_defect(self) -> float:
        """Dual norm part relative to the squared magnitude."""
        np_, nd = self.norm_pair()
        scale = float(np.dot(self._c, self._c))
        if scale == 0.0:
            return 0.0
        return abs(nd) / scale

    def is_study(self, tol: float = STUDY_TOL) -> bool:
        """Whether h * conj(h) is real and nonzero within tolerance."""
        np_, nd = self.norm_pair()
        scale = float(np.dot(self._c, self._c))
        return scale > 0.0 and np_ > tol * scale and abs(nd) / scale <= tol

    def is_line(self, tol: float = TOL) -> bool:
        """Whether this element is a Pluecker line.

        Requires vanishing scalar parts, a nonzero direction and a
        direction orthogonal to the moment.
        """
        c = self._c
        s = float(np.sqrt(np.dot(c, c)))
        if s == 0.0:
            return False
        d = c[1:4]
        m = c[5:8]
        if np.sqrt(np.dot(d, d)) <= tol * s:
            return False
        if abs(c[0]) > tol * s or abs(c[4]) > tol * s:
            return False
        return abs(float(np.dot(d, m))) <= tol * s * s

    def point(self, tol: float = CANONICAL_TOL):
        """Coordinates of an embedded point s + eps*(s*x1*i + ...).

        Accepts any scalar multiple of the standard embedding.  Raises
        ValueError when the element is not a point within tolerance.
        """
        c = self._c
        s = c[0]
        scale = float(np.max(np.abs(c)))
        if scale == 0.0 or abs(s) <= tol * scale:
            raise ValueError("element is not an embedded point: zero scalar part")
        if float(np.max(np.abs(c[1:5]))) > tol * scale:
            raise ValueError("element is not an embedded point: nonscalar part")
        return c[5:8] / s

    def act_on_point(self, x):
        """Apply the displacement to a point.

        Accepts either three coordinates or an embedded point and
        returns the image in the same form.  The action is
        h_eps * (1 + eps*x) * conj(h) divided by the real norm, so any
        scalar multiple of h gives the same result.
        """
        as_dq = isinstance(x, DualQuaternion)
        pt = x if as_dq else DualQuaternion.from_point(x)
        np_, _ = self.norm_pair()
        scale = float(np.dot(self._c, self._c))
        if scale == 0.0 or abs(np_) <= TOL * scale:
            raise DegenerateDisplacement(
                "primal norm vanishes, element does not act on points"
            )
        y = _kernels.dq_mul8(
            _kernels.dq_mul8(self._c * _EPS_SIGNS, pt._c), self._c * _CONJ_SIGNS
        )
        y = y / np_
        if as_dq:
            return DualQuaternion(y)
        return y[5:8].copy()

    def canonical(self, tol: float = CANONICAL_TOL) -> "DualQuaternion":
        """Canonical representative of the projective class.

        Divides by c0 when |c0| exceeds tol relative to the magnitude,
        otherwise scales to unit norm with the first nonzero coordinate
        positive.  The test on c0 is scale relative, which makes the
        branch choice and hence the result invariant under nonzero
        scalar multiples.  Raises ZeroElement for the zero element.
        """
        c = self._c
        n = float(np.sqrt(np.dot(c, c)))
        if n <= TOL:
            raise ZeroElement("cannot normalize a zero dual quaternion")
        if abs(c[0]) > tol * n:
            if c[0] == 1.0:
                return self
            return DualQuaternion(c / c[0])
        # skip the division when already unit so the map is idempotent
        # down to the last bit
        scaled = c if abs(n - 1.0) <= 4e-16 else c / n
        for v in scaled:
            if abs(v) > TOL:
                if v < 0.0:
                    scaled = -scaled
                break
        return DualQuaternion(scaled)


def line_from_point_direction(direction, point, normalized: bool = False) -> DualQuaternion:
    """Pluecker line through a point with the given direction.

    The primal part carries the direction and the dual part the moment
    point x direction.  With normalized=True the direction is scaled to
    unit length first.  Raises ZeroDirection when the direction vanishes.
    """
    d = np.asarray(direction, dtype=float)
    q = np.asarray(point, dtype=float)
    if d.shape != (3,) or q.shape != (3,):
        raise ValueError("direction and point must have 3 components")
    n = float(np.sqrt(np.dot(d, d)))
    if n <= TOL:
        raise ZeroDirection("line direction must be nonzero")
    if normalized:
        d = d / n
    m = np.cross(q, d)
    return DualQuaternion([0.0, d[0], d[1], d[2], 0.0, m[0], m[1], m[2]])
