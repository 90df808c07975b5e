"""Motion polynomials and the rational point paths they induce.

A motion polynomial C(t) has dual quaternion coefficients and a norm
polynomial C(t) * conj(C(t)) that is a nonzero real polynomial.  Curves
are stored densely by ascending powers of t.  The projective parameter
line is completed by INFINITY, which is math.inf, at which a polynomial
evaluates to its leading coefficient.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from . import _kernels
from ._tolerances import REAL_ROOT_TOL, REL_ZERO as _REL_ZERO, STUDY_TOL, TOL
from .dq import _CONJ_SIGNS, _EPS_SIGNS, DualQuaternion
from .dq import _binary_normalized, _primal_vanishes
from .errors import OnBorderOfDomain, PoleOnPath, StudyViolation


# the parameter value at infinity on the projective line
INFINITY = math.inf


def _coeff_array(coeffs) -> np.ndarray:
    """Normalize input to a read-only (n+1, 8) float array."""
    arr = np.array([c.coeffs if isinstance(c, DualQuaternion) else c for c in coeffs], dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 8 or arr.shape[0] < 1:
        raise ValueError("expected an (n+1, 8) coefficient array")
    if not np.all(np.isfinite(arr)):
        raise ValueError("coefficients must be finite")
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


def _polymul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of dual quaternion polynomials a (..., m, 8) and b (..., k, 8).

    Coefficients ascend along the second to last axis, and leading axes
    broadcast.  One dq_mul8 call forms the products of all coefficient
    pairs, which are then summed by total power.
    """
    terms = _kernels.dq_mul8(a[..., :, None, :], b[..., None, :, :])
    k = b.shape[-2]
    out = np.zeros(terms.shape[:-3] + (a.shape[-2] + k - 1, 8))
    for i in range(a.shape[-2]):
        out[..., i : i + k, :] += terms[..., i, :, :]
    return out


def _degree(coeffs: np.ndarray) -> int:
    """Highest power with a coefficient above _REL_ZERO times the largest."""
    size = np.abs(coeffs)
    big = np.flatnonzero(size > _REL_ZERO * float(np.max(size)))
    return int(big[-1]) if big.size else 0


def _real_roots(coeffs: np.ndarray) -> np.ndarray:
    """Real roots of an ascending real coefficient polynomial."""
    roots = np.roots(coeffs[_degree(coeffs) :: -1])
    return roots[np.abs(roots.imag) <= REAL_ROOT_TOL * (1.0 + np.abs(roots.real))].real


def _conj_rows(a: np.ndarray) -> np.ndarray:
    return a * _CONJ_SIGNS


def _eps_conj_rows(a: np.ndarray) -> np.ndarray:
    return a * _EPS_SIGNS


def _derivative_rows(c: np.ndarray) -> np.ndarray:
    """Formal derivative of ascending coefficients stored along axis 0.

    Takes a real coefficient vector or an (n+1, k) array of coefficient
    rows; a constant gives a single zero row.
    """
    if c.shape[0] == 1:
        return np.zeros_like(c, dtype=float)
    k = np.arange(1, c.shape[0], dtype=float).reshape((-1,) + (1,) * (c.ndim - 1))
    return c[1:] * k


def _point_action(c: np.ndarray) -> np.ndarray:
    """(4, 2*degree + 1, 8) basis of the point action of coefficients c.

    Rows are the images of the origin and of the unit dual directions
    eps*i, eps*j, eps*k, formed as one pair of polynomial products
    eps_conj(C) * units * conj(C).
    """
    units = np.zeros((4, 1, 8))
    units[0, 0, 0] = 1.0
    units[1:, 0, 5:] = np.eye(3)
    return _polymul(_polymul(_eps_conj_rows(c), units), _conj_rows(c))


class MotionPolynomial:
    """Polynomial with dual quaternion coefficients, ascending powers.

    Parameters
    ----------
    coeffs : sequence of DualQuaternion or (n+1, 8) array_like
        Coefficient of t**k at index k.
    study_tol : float
        Relative tolerance for the norm check, finite and > 0
        (ValueError otherwise); coefficients of the dual and vector
        parts of C * conj(C) must stay below this fraction of the
        largest real coefficient.

    Every instance is a motion: construction checks the leading
    coefficient and the norm polynomial.  A motion is a plain value:
    nothing is set after construction, and the point action is computed
    on each call.
    """

    __slots__ = ("_coeffs", "_study_tol")

    def __init__(self, coeffs, study_tol: float = STUDY_TOL):
        study_tol = float(study_tol)
        if not 0.0 < study_tol < math.inf:
            raise ValueError("study_tol must be finite and > 0, got %r" % (study_tol,))
        arr = _coeff_array(coeffs)
        scale = float(np.max(np.abs(arr)))
        if scale == 0.0 or np.max(np.abs(arr[-1])) <= TOL * scale:
            raise ValueError("leading coefficient must be nonzero")
        self._coeffs = arr
        self._study_tol = study_tol
        self._verify_norm()

    @classmethod
    def from_axes(cls, axes, study_tol: float = STUDY_TOL) -> "MotionPolynomial":
        """Product (t - h_1)(t - h_2)...(t - h_n) of linear factors.

        Each axis is the Pluecker line of a revolute joint.  The product
        of line factors always satisfies the norm condition in exact
        arithmetic; it is still verified so inconsistent axes are
        reported as StudyViolation.
        """
        axes = list(axes)
        if not axes:
            raise ValueError("need at least one axis")
        one = np.zeros(8)
        one[0] = 1.0
        acc = None
        for h in axes:
            hc = h.coeffs if isinstance(h, DualQuaternion) else np.asarray(h, float)
            if hc.shape != (8,):
                raise ValueError("each axis needs 8 coefficients")
            factor = np.stack([-hc, one])
            acc = factor if acc is None else _polymul(acc, factor)
        return cls(acc, study_tol=study_tol)

    @property
    def coeffs(self) -> np.ndarray:
        """Read-only (degree+1, 8) coefficient array."""
        return self._coeffs

    @property
    def degree(self) -> int:
        return self._coeffs.shape[0] - 1

    @property
    def study_tol(self) -> float:
        return self._study_tol

    def __repr__(self):
        return "MotionPolynomial(degree=%d, study_tol=%g)" % (
            self.degree,
            self._study_tol,
        )

    def norm_poly(self) -> np.ndarray:
        """Coefficients of C * conj(C), shape (2*degree + 1, 8)."""
        return _polymul(self._coeffs, _conj_rows(self._coeffs))

    def _verify_norm(self):
        n = self.norm_poly()
        real = np.abs(n[:, 0])
        rest = np.abs(n[:, 1:])
        scale = float(np.max(real))
        if scale == 0.0 or scale <= self._study_tol * float(np.max(np.abs(n))):
            raise StudyViolation("norm polynomial is numerically zero")
        defect = float(np.max(rest)) / scale
        if defect > self._study_tol:
            raise StudyViolation(
                "norm polynomial is not real: relative defect %.3e exceeds %.3e"
                % (defect, self._study_tol)
            )

    def evaluate(self, t) -> DualQuaternion:
        """Value at a parameter, with INFINITY giving the leading coefficient.

        Where the value at t overflows, the reversed coefficients at 1/t
        give the same projective pose, t**-degree * C(t); at t = +-inf,
        1/t is zero and that value is the leading coefficient.  Raises
        OnBorderOfDomain when the primal part of the value vanishes
        relative to its magnitude (dq._primal_vanishes), since no
        displacement is defined there.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            value = _kernels.poly_eval8(self._coeffs, float(t))
        if not np.logical_and.reduce(np.isfinite(value)):
            value = _kernels.poly_eval8(self._coeffs[::-1], 1.0 / float(t))
        c = _binary_normalized(value)
        if _primal_vanishes(float(np.dot(c[:4], c[:4])), float(np.dot(c, c))):
            raise OnBorderOfDomain(
                "motion is undefined at t = %r (vanishing primal norm)" % (t,)
            )
        return DualQuaternion(value)

    def point_path(self, x) -> "RationalPointPath":
        """Rational path traced by a point under the motion.

        Returns homogeneous coordinates (x0 : x1 : x2 : x3) as real
        polynomials of degree at most 2*degree, read off eps_conj(C) * (1 +
        eps x) * conj(C), which is affine in x.  Columns 1-4 of it vanish
        for every coefficient array, so they are not read.
        """
        p = _affine_action(_point_action(self._coeffs), x)
        return RationalPointPath(p[:, 0], p[:, 5:8].T)


def _basis_sizes(basis: np.ndarray) -> np.ndarray:
    """Largest magnitude of each basis[i], the bound _affine_action reads."""
    return np.abs(basis).reshape(basis.shape[0], -1).max(axis=1)


def _affine_action(basis: np.ndarray, x, sizes=None, limit=0.5 * sys.float_info.max):
    """basis[0] + x1*basis[1] + x2*basis[2] + x3*basis[3] for a point x.

    sizes is _basis_sizes(basis), formed when not given.  The point is
    rejected with ValueError, before any product, when it is not finite
    or when sizes[0] + sum |x_i| * sizes[i], a bound on every result
    coefficient, exceeds limit, by default half the float range, so no
    coefficient overflows.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (3,):
        raise ValueError("expected 3 point coordinates")
    s0, s1, s2, s3 = (_basis_sizes(basis) if sizes is None else sizes).tolist()
    x1, x2, x3 = x.tolist()
    # Python floats: inf * 0 is nan and an overflow is inf, with no numpy warning
    if not s0 + abs(x1) * s1 + abs(x2) * s2 + abs(x3) * s3 <= limit:
        raise ValueError("point %r is not finite or its path overflows" % (x.tolist(),))
    return basis[0] + (x @ basis[1:].reshape(3, -1)).reshape(basis.shape[1:])


def _speed(h: np.ndarray, d: np.ndarray) -> np.ndarray:
    """|X0 * dX - X * dX0| / X0**2 from the rows h = (X0, X1, X2, X3) of
    values and the rows d of derivatives, one entry per node.

    Every operation runs on whole rows, and the squares are summed in the
    order X1, X2, X3.
    """
    num = d[1:] * h[0] - h[1:] * d[0]
    num *= num
    return np.sqrt(num[0] + num[1] + num[2]) / (h[0] * h[0])


class RationalPointPath:
    """Homogeneous rational curve (x0 : x1 : x2 : x3) in 3-space.

    x0 is the homogeneous coordinate; the Euclidean point at parameter t
    is (x1/x0, x2/x0, x3/x0).  The ascending coefficients of x0..x3 and
    of their derivatives are the columns of two read-only arrays, which
    x0, xi, x0d and xid view; hom evaluates the first by Horner's rule.
    Both must be finite, or the constructor raises ValueError.
    """

    __slots__ = ("_hom", "_dhom")

    def __init__(self, x0, xi):
        x0 = np.asarray(x0, dtype=float)
        xi = np.asarray(xi, dtype=float)
        if x0.ndim != 1 or xi.shape != (3, x0.shape[0]):
            raise ValueError("expected x0 of shape (n,) and xi of shape (3, n)")
        self._hom = np.column_stack([x0, xi.T])
        # k * c_k may overflow where c_k does not
        with np.errstate(over="ignore"):
            self._dhom = _derivative_rows(self._hom)
        if not (np.all(np.isfinite(self._hom)) and np.all(np.isfinite(self._dhom))):
            raise ValueError("coefficients and their derivatives must be finite")
        if float(np.max(np.abs(x0))) == 0.0:
            raise ValueError("homogeneous coordinate is identically zero")
        for a in (self._hom, self._dhom):
            a.flags.writeable = False

    @property
    def x0(self) -> np.ndarray:
        return self._hom[:, 0]

    @property
    def xi(self) -> np.ndarray:
        return self._hom[:, 1:].T

    @property
    def x0d(self) -> np.ndarray:
        """Coefficients of the derivative of x0."""
        return self._dhom[:, 0]

    @property
    def xid(self) -> np.ndarray:
        """Coefficients of the derivatives of x1, x2, x3, shape (3, n)."""
        return self._dhom[:, 1:].T

    @property
    def degree(self) -> int:
        return self._hom.shape[0] - 1

    def __repr__(self):
        return "RationalPointPath(degree=%d)" % (self.degree,)

    def hom(self, t: float) -> np.ndarray:
        """Homogeneous coordinates (x0, x1, x2, x3) at t."""
        return _kernels.poly_eval8(self._hom, float(t))

    def point(self, t: float) -> np.ndarray:
        """Euclidean point at t.  Raises PoleOnPath where x0 vanishes."""
        h = self.hom(t)
        scale = float(np.max(np.abs(h)))
        if scale == 0.0 or abs(h[0]) <= _REL_ZERO * scale:
            raise PoleOnPath("path has a pole at t = %r" % (t,))
        return h[1:] / h[0]
