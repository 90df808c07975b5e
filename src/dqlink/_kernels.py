"""Numerical kernels with a numba backend and a pure numpy fallback.

The backend is chosen once at import time from the ``DQLINK_BACKEND``
environment variable:

``auto``
    use numba when it imports, fall back to numpy otherwise (default)
``numba``
    require numba, raise if it is missing
``numpy``
    skip numba even when installed

Both implementations share one source body, so results agree to the
last bit; the numpy path simply runs the same loops uninterpreted by
LLVM.  ``PY_IMPLS`` always holds the plain versions and ``NUMBA_IMPLS``
the jitted ones (``None`` when numba is off), which is what the parity
tests consume.
"""

import os

import numpy as np

_VALID = ("auto", "numba", "numpy")
REQUESTED = os.environ.get("DQLINK_BACKEND", "auto").strip().lower()
if REQUESTED not in _VALID:
    raise ValueError(
        "DQLINK_BACKEND must be one of %s, got %r" % ("/".join(_VALID), REQUESTED)
    )


def _build(jit):
    @jit
    def dq_mul8(a, b):
        """Dual quaternion product of two 8-vectors (primal then dual)."""
        a0 = a[0]; a1 = a[1]; a2 = a[2]; a3 = a[3]
        a4 = a[4]; a5 = a[5]; a6 = a[6]; a7 = a[7]
        b0 = b[0]; b1 = b[1]; b2 = b[2]; b3 = b[3]
        b4 = b[4]; b5 = b[5]; b6 = b[6]; b7 = b[7]
        out = np.empty(8)
        out[0] = a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3
        out[1] = a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2
        out[2] = a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1
        out[3] = a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0
        out[4] = (a0 * b4 - a1 * b5 - a2 * b6 - a3 * b7
                  + a4 * b0 - a5 * b1 - a6 * b2 - a7 * b3)
        out[5] = (a0 * b5 + a1 * b4 + a2 * b7 - a3 * b6
                  + a4 * b1 + a5 * b0 + a6 * b3 - a7 * b2)
        out[6] = (a0 * b6 - a1 * b7 + a2 * b4 + a3 * b5
                  + a4 * b2 - a5 * b3 + a6 * b0 + a7 * b1)
        out[7] = (a0 * b7 + a1 * b6 - a2 * b5 + a3 * b4
                  + a4 * b3 + a5 * b2 - a6 * b1 + a7 * b0)
        return out

    @jit
    def poly_eval8(coeffs, t):
        """Horner evaluation of an (n+1, 8) ascending coefficient array."""
        n = coeffs.shape[0]
        out = coeffs[n - 1].copy()
        for k in range(n - 2, -1, -1):
            for j in range(8):
                out[j] = out[j] * t + coeffs[k, j]
        return out

    @jit
    def horner(c, t):
        acc = 0.0
        for k in range(c.shape[0] - 1, -1, -1):
            acc = acc * t + c[k]
        return acc

    @jit
    def path_speed(x0, x0d, xi, xid, t):
        """Euclidean speed of the rational curve (x1/x0, x2/x0, x3/x0)."""
        w = horner(x0, t)
        wd = horner(x0d, t)
        acc = 0.0
        for i in range(3):
            v = horner(xi[i], t)
            vd = horner(xid[i], t)
            num = vd * w - v * wd
            acc += num * num
        return np.sqrt(acc) / (w * w)

    @jit
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

    return {
        "dq_mul8": dq_mul8,
        "poly_eval8": poly_eval8,
        "horner": horner,
        "path_speed": path_speed,
        "arc_simpson": arc_simpson,
    }


def _identity(f):
    return f


PY_IMPLS = _build(_identity)

NUMBA_IMPLS = None
if REQUESTED in ("auto", "numba"):
    try:
        from numba import njit
    except ImportError:
        if REQUESTED == "numba":
            raise
    else:
        NUMBA_IMPLS = _build(njit(cache=False))

BACKEND = "numba" if NUMBA_IMPLS is not None else "numpy"
_ACTIVE = NUMBA_IMPLS if NUMBA_IMPLS is not None else PY_IMPLS

dq_mul8 = _ACTIVE["dq_mul8"]
poly_eval8 = _ACTIVE["poly_eval8"]
horner = _ACTIVE["horner"]
path_speed = _ACTIVE["path_speed"]
arc_simpson = _ACTIVE["arc_simpson"]


def warmup():
    """Force compilation of the jitted kernels on tiny inputs."""
    a = np.zeros(8)
    a[0] = 1.0
    dq_mul8(a, a)
    c = np.zeros((2, 8))
    c[0, 0] = 1.0
    poly_eval8(c, 0.5)
    x0 = np.array([1.0, 0.0, 1.0])
    x0d = np.array([0.0, 2.0])
    xi = np.zeros((3, 3))
    xi[0, 1] = 1.0
    xid = np.zeros((3, 2))
    xid[0, 0] = 1.0
    path_speed(x0, x0d, xi, xid, 0.3)
    arc_simpson(x0, x0d, xi, xid, 0.0, 1.0, 1e-10, 40)
