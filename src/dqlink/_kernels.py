"""Numerical kernels: the dual quaternion product and Horner evaluation.

The dual quaternion product is one multiplication table; ``dq_mul8``
broadcasts over it, so one call multiplies any number of pairs.
``poly_eval8`` evaluates the columns of an ascending coefficient array
at once, by Horner's rule, in place; per pose, inverse kinematics calls
neither.  Library code calls these as
``_kernels.name(...)``, so a profiler or a test that replaces a module
attribute sees every call.

``arc_simpson`` integrates the speed ``path_speed`` of a point path by
adaptive Simpson.  No library code calls either: they stay only because
the per-layer benchmark tracer still looks ``arc_simpson`` up by name.
"""

import numpy as np

# quaternion units multiply as e_a * e_b = sign * e_(a xor b); with
# h = P + eps*Q, P1*P2 fills the primal block of the dual quaternion
# table and P1*Q2 + Q1*P2 its dual block
_UNIT = np.arange(4)
_QUATERNION = np.zeros((4, 4, 4))
_QUATERNION[_UNIT[:, None], _UNIT, _UNIT[:, None] ^ _UNIT] = [
    [1, 1, 1, 1], [1, -1, 1, -1], [1, -1, -1, 1], [1, 1, -1, -1]
]
_PRODUCT = np.zeros((8, 8, 8))
_PRODUCT[:4, :4, :4] = _PRODUCT[:4, 4:, 4:] = _PRODUCT[4:, :4, 4:] = _QUATERNION
_PRODUCT.flags.writeable = False


def dq_mul8(a, b):
    """Dual quaternion product of 8-vectors (primal then dual).

    Leading axes broadcast.  Plain einsum sums the products over the
    units of a and b in ascending order; a contraction path or a matmul
    form would round differently.
    """
    return np.einsum("...a,...b,abc->...c", a, b, _PRODUCT)


def poly_eval8(coeffs, t):
    """Horner evaluation of the columns of an (n+1, k) ascending coefficient
    array at one t; after the first step, in place."""
    out = coeffs[-1].copy() if len(coeffs) == 1 else coeffs[-1] * t + coeffs[-2]
    for row in coeffs[-3::-1]:
        out *= t
        out += row
    return out


def path_speed(x0, x0d, xi, xid, t):
    """Euclidean speed of the rational curve (x1/x0, x2/x0, x3/x0)."""
    h = poly_eval8(np.column_stack([x0, xi.T]), t)
    d = poly_eval8(np.column_stack([x0d, xid.T]), t)
    num = d[1:] * h[0] - h[1:] * d[0]
    return np.sqrt(num @ num) / (h[0] * h[0])


def arc_simpson(x0, x0d, xi, xid, a, b, tol, max_depth):
    """Adaptive Simpson integral of path_speed over [a, b].

    tol is an absolute tolerance per subinterval.  Returns the value
    and a flag that is 1 when some subinterval hit max_depth without
    meeting tolerance.
    """
    fa = path_speed(x0, x0d, xi, xid, a)
    fm = path_speed(x0, x0d, xi, xid, 0.5 * (a + b))
    fb = path_speed(x0, x0d, xi, xid, b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    # depth-first stack never holds more than one frame per level
    stack = np.empty((max_depth + 8, 7))
    stack[0, 0] = a
    stack[0, 1] = b
    stack[0, 2] = fa
    stack[0, 3] = fm
    stack[0, 4] = fb
    stack[0, 5] = whole
    stack[0, 6] = 0.0
    sp = 1
    total = 0.0
    flag = 0
    while sp > 0:
        sp -= 1
        sa = stack[sp, 0]
        sb = stack[sp, 1]
        fa = stack[sp, 2]
        fm = stack[sp, 3]
        fb = stack[sp, 4]
        whole = stack[sp, 5]
        depth = int(stack[sp, 6])
        m = 0.5 * (sa + sb)
        lm = 0.5 * (sa + m)
        rm = 0.5 * (m + sb)
        flm = path_speed(x0, x0d, xi, xid, lm)
        frm = path_speed(x0, x0d, xi, xid, rm)
        left = (m - sa) / 6.0 * (fa + 4.0 * flm + fm)
        right = (sb - m) / 6.0 * (fm + 4.0 * frm + fb)
        delta = left + right - whole
        if abs(delta) <= 15.0 * tol or depth >= max_depth:
            total += left + right + delta / 15.0
            if abs(delta) > 15.0 * tol:
                flag = 1
        else:
            stack[sp, 0] = m
            stack[sp, 1] = sb
            stack[sp, 2] = fm
            stack[sp, 3] = frm
            stack[sp, 4] = fb
            stack[sp, 5] = right
            stack[sp, 6] = depth + 1.0
            sp += 1
            stack[sp, 0] = sa
            stack[sp, 1] = m
            stack[sp, 2] = fa
            stack[sp, 3] = flm
            stack[sp, 4] = fm
            stack[sp, 5] = left
            stack[sp, 6] = depth + 1.0
            sp += 1
    return total, flag
