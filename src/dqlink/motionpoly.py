"""Motion polynomials and the rational point paths they induce.

A motion polynomial C(t) has dual quaternion coefficients and a norm
polynomial C(t) * conj(C(t)) that is a nonzero real polynomial.  Curves
are stored densely by ascending powers of t.  The projective parameter
line is completed by the marker value INFINITY, at which a polynomial
evaluates to its leading coefficient.
"""

from __future__ import annotations

import math

import numpy as np

from . import _kernels
from .dq import _CONJ_SIGNS, _EPS_SIGNS, STUDY_TOL, TOL, DualQuaternion
from .errors import OnBorderOfDomain, PoleOnPath, StudyViolation


class _Infinity:
    """Parameter value at infinity on the projective line."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITY"


INFINITY = _Infinity()


def _coeff_array(coeffs) -> np.ndarray:
    """Normalize input to a read-only (n+1, 8) float array."""
    if isinstance(coeffs, np.ndarray) and coeffs.ndim == 2:
        arr = np.array(coeffs, dtype=float)
    else:
        rows = []
        for c in coeffs:
            rows.append(c.coeffs if isinstance(c, DualQuaternion) else c)
        arr = np.array(rows, dtype=float)
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


def _real_roots(coeffs: np.ndarray) -> np.ndarray:
    """Real roots of an ascending real coefficient polynomial."""
    scale = float(np.max(np.abs(coeffs)))
    if scale == 0.0:
        return np.array([math.nan])
    desc = coeffs[::-1]
    lead = 0
    while lead < desc.shape[0] - 1 and abs(desc[lead]) <= 1e-14 * scale:
        lead += 1
    desc = desc[lead:]
    if desc.shape[0] <= 1:
        return np.empty(0)
    roots = np.roots(desc)
    real = roots[np.abs(roots.imag) <= 1e-8 * (1.0 + np.abs(roots.real))].real
    return real


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


class MotionPolynomial:
    """Polynomial with dual quaternion coefficients, ascending powers.

    Parameters
    ----------
    coeffs : sequence of DualQuaternion or (n+1, 8) array_like
        Coefficient of t**k at index k.
    study_tol : float
        Relative tolerance for the norm check; coefficients of the dual
        and vector parts of C * conj(C) must stay below this fraction of
        the largest real coefficient.
    validate : bool
        Skip the norm check when False (used for derivatives, which are
        generally not motion polynomials themselves).

    The point action and the poles of its point paths are built on first
    use and kept; the coefficients are read-only, so they stay valid.
    """

    __slots__ = ("_coeffs", "_study_tol", "_validated", "_act", "_poles")

    def __init__(self, coeffs, study_tol: float = STUDY_TOL, validate: bool = True):
        arr = _coeff_array(coeffs)
        self._coeffs = arr
        self._study_tol = float(study_tol)
        self._validated = False
        self._act = None
        self._poles = None
        if validate:
            lead = arr[-1]
            scale = float(np.max(np.abs(arr)))
            if scale == 0.0 or np.max(np.abs(lead)) <= TOL * scale:
                raise ValueError("leading coefficient must be nonzero")
            self._verify_norm()
            self._validated = True

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

    @property
    def validated(self) -> bool:
        return self._validated

    def __repr__(self):
        return "MotionPolynomial(degree=%d, study_tol=%g)" % (
            self.degree,
            self._study_tol,
        )

    def coefficient(self, k: int) -> DualQuaternion:
        return DualQuaternion(self._coeffs[k])

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

        Raises OnBorderOfDomain when the primal norm of the value
        vanishes relative to its magnitude, since no displacement is
        defined there.
        """
        if t is INFINITY:
            value = self._coeffs[-1].copy()
        else:
            value = _kernels.poly_eval8(self._coeffs, float(t))
        if self._validated:
            total = float(np.dot(value, value))
            primal = float(np.dot(value[:4], value[:4]))
            if total == 0.0 or primal <= self._study_tol * total:
                raise OnBorderOfDomain(
                    "motion is undefined at t = %r (vanishing primal norm)" % (t,)
                )
        return DualQuaternion(value)

    def derivative(self) -> "MotionPolynomial":
        """Formal derivative.  Not validated as a motion polynomial."""
        return MotionPolynomial(
            _derivative_rows(self._coeffs), study_tol=self._study_tol, validate=False
        )

    def _action(self) -> np.ndarray:
        """Read-only (4, 2*degree + 1, 8) basis of the point action.

        Rows are the images of the origin and of the unit dual directions
        eps*i, eps*j, eps*k, built on the first call as one pair of
        polynomial products eps_conj(C) * units * conj(C).
        """
        if self._act is None:
            c = self._coeffs
            units = np.zeros((4, 1, 8))
            units[0, 0, 0] = 1.0
            units[1:, 0, 5:] = np.eye(3)
            act = _polymul(_polymul(_eps_conj_rows(c), units), _conj_rows(c))
            act.flags.writeable = False
            self._act = act
        return self._act

    def act_poly(self, x) -> np.ndarray:
        """Coefficients of eps_conj(C) * (1 + eps x) * conj(C).

        The action is affine in x: B0 + x1*B1 + x2*B2 + x3*B3, with B0 the
        image of the origin and Bj that of eps times the j-th unit vector.
        The basis is built on the first call and reused by every later
        one.
        """
        return _affine_action(self._action(), x)

    def path_poles(self) -> np.ndarray:
        """Read-only real roots of x0, shared by every point path.

        x0 is the primal norm of C(t), so it does not depend on the point;
        the roots are found with one eigenvalue solve on the first call.
        """
        if self._poles is None:
            poles = _real_roots(self._action()[0, :, 0])
            poles.flags.writeable = False
            self._poles = poles
        return self._poles

    def point_path(self, x) -> "RationalPointPath":
        """Rational path traced by a point under the motion.

        Returns homogeneous coordinates (x0 : x1 : x2 : x3) as real
        polynomials of degree at most 2*degree, read off the affine point
        action of act_poly, whose basis the motion builds once.  The
        acted point is checked by _check_point_action.
        """
        p = self.act_poly(x)
        _check_point_action(p, self._study_tol)
        return RationalPointPath(p[:, 0], p[:, 5:8].T)


def _affine_action(basis: np.ndarray, x) -> np.ndarray:
    """basis[0] + x1*basis[1] + x2*basis[2] + x3*basis[3] for a point x."""
    x = np.asarray(x, dtype=float)
    if x.shape != (3,):
        raise ValueError("expected 3 point coordinates")
    return basis[0] + (x @ basis[1:].reshape(3, -1)).reshape(basis.shape[1:])


def _check_point_action(p: np.ndarray, study_tol: float):
    """Check that acted point coefficients p describe a point path.

    The rotational and dual-scalar components (columns 1-4) must vanish;
    a failure to do so beyond study_tol reports StudyViolation, and
    non-finite coefficients raise ValueError.
    """
    size = np.abs(p)
    scale = float(np.max(size))
    if not math.isfinite(scale):
        raise ValueError("point path coefficients must be finite")
    if scale == 0.0:
        raise StudyViolation("point path is identically zero")
    junk = float(np.max(size[:, 1:5]))
    if junk > study_tol * scale:
        raise StudyViolation(
            "acted point has non-point components: relative defect %.3e"
            % (junk / scale)
        )


class RationalPointPath:
    """Homogeneous rational curve (x0 : x1 : x2 : x3) in 3-space.

    x0 is the homogeneous coordinate; the Euclidean point at parameter t
    is (x1/x0, x2/x0, x3/x0).  The ascending coefficients of x0..x3 and
    of their derivatives are the columns of two read-only arrays, which
    hom and speed evaluate by Horner's rule; x0, xi, x0d and xid view them.
    """

    __slots__ = ("_hom", "_dhom")

    def __init__(self, x0, xi):
        x0 = np.asarray(x0, dtype=float)
        xi = np.asarray(xi, dtype=float)
        if x0.ndim != 1 or xi.shape != (3, x0.shape[0]):
            raise ValueError("expected x0 of shape (n,) and xi of shape (3, n)")
        if not (np.all(np.isfinite(x0)) and np.all(np.isfinite(xi))):
            raise ValueError("coefficients must be finite")
        if float(np.max(np.abs(x0))) == 0.0:
            raise ValueError("homogeneous coordinate is identically zero")
        self._hom = np.column_stack([x0, xi.T])
        self._dhom = _derivative_rows(self._hom)
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
        if scale == 0.0 or abs(h[0]) <= 1e-14 * scale:
            raise PoleOnPath("path has a pole at t = %r" % (t,))
        return h[1:] / h[0]

    def speed(self, t):
        """Norm of the Euclidean velocity at t, a float or an array of them."""
        t = np.asarray(t, dtype=float)
        h, d = (_kernels.poly_eval8(c, t[..., None]) for c in (self._hom, self._dhom))
        num = d[..., 1:] * h[..., :1] - h[..., 1:] * d[..., :1]
        out = np.sqrt(np.sum(num * num, axis=-1)) / (h[..., 0] * h[..., 0])
        # a constant path evaluates to one row whatever the shape of t
        return float(out) if t.ndim == 0 else np.broadcast_to(out, t.shape).copy()
