"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line with the measured figure next to
the bound it is held to, so a full run doubles as a short report.
"""

import math
import time

import numpy as np
import pytest

from dqlink import (
    INFINITY,
    DualQuaternion,
    IKOptions,
    MotionPolynomial,
    angle_to_param,
    arc_length,
    direct_kinematics,
    equidistant_params,
    equidistant_profile,
    inverse_kinematics,
    quintic_time_scaling,
)
from dqlink.kinematics import _error_and_slope, _Target
from dqlink.motionpoly import _derivative_rows


def _residual_at(coeffs, dcoeffs, target, t):
    """Squared normalized pose error of the IK polish at the parameter t."""
    pv = np.polynomial.polynomial.polyval
    err, _ = _error_and_slope(pv(t, coeffs), pv(t, dcoeffs), target)
    return float(np.dot(err, err))


def _error_terms(c, cd, target):
    """Error of the IK polish and the derivative of the normalized curve value."""
    err, slope = _error_and_slope(c, cd, target)
    return err, slope()


H1 = [0, 1, 0, 0, 0, 0, 0, 0]
H2 = [0, 0, 3, 0, 0, 0, 0, 1]
H3 = [0, 1, 1, 0, 0, 0, 0, -2]
K1 = [0, 1.8, 2.4, 0, 0, 0, 0, 0.8]
K2 = [0, -0.723, 1.215, 0, 0, 0, 0, -0.492]
K3 = [0, 0.923, 0.385, 0, 0, 0, 0, -1.308]

SIXBAR_COEFFS = np.array(
    [
        [0, 3, -3, 0, -7, 0, 0, -1],
        [-4, 0, 0, 1, 0, -7, 2, 0],
        [0, -2, -4, 0, 0, 0, 0, 1],
        [1, 0, 0, 0, 0, 0, 0, 0],
    ],
    dtype=float,
)

SQRT3 = math.sqrt(3.0)
ROUNDED_POSE = np.array([-1.732, -3, -15, 1.732, -7, -12.124, 3.464, 2])
LINEAR_SWEEP = np.linspace(math.pi / 3, 1.5 * math.pi, 11)
ROUNDED_LINEAR_ANGLES = np.array(
    [1.05, 1.41, 1.78, 2.15, 2.51, 2.88, 3.25, 3.61, 3.98, 4.35, 4.71]
)
ROUNDED_EQUIDISTANT_ANGLES = np.array(
    [1.05, 1.24, 1.45, 1.68, 1.93, 2.25, 2.76, 3.80, 4.19, 4.47, 4.71]
)
BENNETT_P1 = np.array([1, -0.208, -0.033, -0.069, -0.006, -0.014, -0.045, -0.026])
BENNETT_P2 = np.array([1, 0.233, -0.043, 0.078, -0.008, 0.030, 0.030, 0.035])


def report(num: int, name: str, ok: bool, detail: str):
    print("[criterion %02d] %s: %s (%s)" % (num, name, "PASS" if ok else "FAIL", detail))
    assert ok


def test_criterion_01_axes_reproduce_coefficients():
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        got = MotionPolynomial.from_axes([H1, H2, H3])
        best = min(best, time.perf_counter() - t0)
    delta = float(np.max(np.abs(got.coeffs - SIXBAR_COEFFS)))
    ok = delta <= 1e-12 and best < 1e-3
    report(
        1,
        "axis factors rebuild the cubic coefficients",
        ok,
        "max |delta| = %.1e <= 1e-12, %.3f ms < 1 ms" % (delta, best * 1e3),
    )


def test_criterion_02_alternate_factorization_matches():
    alt = MotionPolynomial.from_axes([K1, K2, K3])
    gap = 0.0
    for row_h, row_k in zip(SIXBAR_COEFFS, alt.coeffs):
        a = DualQuaternion(row_h).canonical().coeffs
        b = DualQuaternion(row_k).canonical().coeffs
        gap = max(gap, float(np.max(np.abs(a - b))))
    ok = gap <= 2e-3
    report(
        2,
        "rounded second factorization yields the same motion",
        ok,
        "max canonical gap = %.2e <= 2e-3" % gap,
    )


def test_criterion_03_direct_kinematics_pose(sixbar):
    t = angle_to_param(math.pi / 3, sixbar.driving_axis)
    pose = direct_kinematics(sixbar, math.pi / 3)
    t_err = abs(t - SQRT3)
    p_err = float(np.max(np.abs(pose.coeffs - ROUNDED_POSE)))
    ok = t_err <= 1e-6 and p_err <= 1e-3
    report(
        3,
        "direct kinematics at pi/3",
        ok,
        "|t - sqrt(3)| = %.1e <= 1e-6, max pose delta = %.2e <= 1e-3" % (t_err, p_err),
    )


def test_criterion_04_inverse_kinematics_recovers_angle(sixbar):
    pose = direct_kinematics(sixbar, math.pi / 3)
    r = inverse_kinematics(sixbar, pose)
    err = abs(r.theta - math.pi / 3)
    monotone = all(b <= a for a, b in zip(r.residual_trace, r.residual_trace[1:]))
    ok = err <= 1e-6 and monotone and r.iterations <= 100
    report(
        4,
        "inverse kinematics on the pi/3 pose",
        ok,
        "|theta - pi/3| = %.1e <= 1e-6, monotone trace, %d iterations <= 100"
        % (err, r.iterations),
    )


def test_criterion_05_home_pose_resolves_at_infinity(sixbar):
    r = inverse_kinematics(sixbar, DualQuaternion.identity())
    ok = (
        r.branch == "reciprocal"
        and r.t is INFINITY
        and r.theta == 0.0
        and r.residual <= 1e-10
    )
    report(
        5,
        "identity pose lands on the reciprocal branch",
        ok,
        "branch=%s, t=%s, theta=%r, residual=%.1e <= 1e-10"
        % (r.branch, r.t, r.theta, r.residual),
    )


def test_criterion_06_equidistant_table(sixbar):
    path = sixbar.motion.point_path([0.0, 0.0, 0.0])
    t0 = angle_to_param(math.pi / 3, sixbar.driving_axis)
    t1 = angle_to_param(1.5 * math.pi, sixbar.driving_axis)
    start = time.perf_counter()
    seg = equidistant_params(path, t0, t1, 10, driving_axis=sixbar.driving_axis)
    elapsed = time.perf_counter() - start
    equi_err = float(np.max(np.abs(np.array(seg.angles) - ROUNDED_EQUIDISTANT_ANGLES)))
    lin_err = float(np.max(np.abs(LINEAR_SWEEP - ROUNDED_LINEAR_ANGLES)))
    ok = equi_err <= 0.01 and lin_err <= 0.01 and elapsed < 1.0
    report(
        6,
        "reference joint angle tables",
        ok,
        "equidistant row %.4f rad, linear row %.4f rad <= 0.01, %.3f s < 1 s"
        % (equi_err, lin_err, elapsed),
    )


def test_criterion_07_quadrature_matches_dense_oracle(sixbar):
    path = sixbar.motion.point_path([0.0, 0.0, 0.0])
    a, b = -1.0, SQRT3
    adaptive = arc_length(path, a, b, tol=1e-10)
    # dense trapezoid oracle evaluated directly from the coefficient
    # arrays, independent of the adaptive quadrature code path
    pv = np.polynomial.polynomial.polyval
    ts = np.linspace(a, b, 1_000_001)
    x0 = pv(ts, path.x0)
    x0d = pv(ts, path.x0d)
    num = np.zeros_like(ts)
    for i in range(3):
        num += (pv(ts, path.xid[i]) * x0 - pv(ts, path.xi[i]) * x0d) ** 2
    speeds = np.sqrt(num) / (x0 * x0)
    h = (b - a) / 1_000_000
    dense = h * (np.sum(speeds) - 0.5 * (speeds[0] + speeds[-1]))
    rel = abs(adaptive - dense) / dense
    ok = rel <= 1e-6
    report(
        7,
        "adaptive arc length vs 1e6-point trapezoid",
        ok,
        "S = %.12f, relative error = %.2e <= 1e-6" % (adaptive, rel),
    )


def test_criterion_08_bennett_angles(bennett):
    opt = IKOptions(success_tol=1e-4)
    r1 = inverse_kinematics(bennett, DualQuaternion(BENNETT_P1), opt)
    r2 = inverse_kinematics(bennett, DualQuaternion(BENNETT_P2), opt)
    e1 = abs(r1.theta - 0.331)
    e2 = abs(r2.theta - 5.893)
    ok = e1 <= 5e-3 and e2 <= 5e-3
    report(
        8,
        "rounded spatial 4R fixture inverse kinematics",
        ok,
        "theta1 = %.6f (|d| = %.1e), theta2 = %.6f (|d| = %.1e) <= 5e-3"
        % (r1.theta, e1, r2.theta, e2),
    )


def test_criterion_09_profile_sample_count_and_tool_shift(bennett):
    kwargs = dict(duration=4.0, frequency=20.0, direction="long")
    ident = equidistant_profile(bennett, 0.331, 5.893, **kwargs)
    shift = equidistant_profile(bennett, 0.331, 5.893, tool=(0.0, -0.170, 0.0), **kwargs)
    spread = float(np.max(np.abs(ident.thetas - shift.thetas)))
    ok = len(ident.thetas) == 81 and len(shift.thetas) == 81 and spread > 0.01
    report(
        9,
        "4 s / 20 Hz equidistant profiles",
        ok,
        "81 samples each (got %d/%d), max tool-shift divergence %.4f rad > 0.01"
        % (len(ident.thetas), len(shift.thetas), spread),
    )


def test_criterion_10_property_suite(sixbar, bennett):
    rng = np.random.default_rng(42)
    failures = []

    def check(label, ok):
        if not ok:
            failures.append(label)

    # algebra laws
    assoc = conj = iso = 0.0
    for _ in range(20):
        a, b, c = (DualQuaternion(rng.normal(size=8)) for _ in range(3))
        scale = max(1.0, float(np.max(np.abs(((a * b) * c).coeffs))))
        assoc = max(assoc, float(np.max(np.abs(((a * b) * c - a * (b * c)).coeffs))) / scale)
        conj = max(
            conj,
            float(np.max(np.abs(((a * b).conjugate() - b.conjugate() * a.conjugate()).coeffs))),
        )
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        disp = DualQuaternion.from_translation(rng.normal(size=3)) * DualQuaternion(
            [q[0], q[1], q[2], q[3], 0, 0, 0, 0]
        )
        x, y = rng.normal(size=3), rng.normal(size=3)
        iso = max(
            iso,
            abs(
                np.linalg.norm(disp.act_on_point(x) - disp.act_on_point(y))
                - np.linalg.norm(x - y)
            ),
        )
    check("associativity", assoc <= 1e-12)
    check("conjugation anti-homomorphism", conj <= 1e-9)
    check("isometry", iso <= 1e-9)

    # direct/inverse round trips on both fixtures
    worst = 0.0
    for mech in (sixbar, bennett):
        for theta in rng.uniform(0.0, 2 * math.pi, size=100):
            r = inverse_kinematics(mech, direct_kinematics(mech, theta))
            gap = abs(r.theta - theta) % (2 * math.pi)
            worst = max(worst, min(gap, 2 * math.pi - gap))
    check("round trip <= 1e-6", worst <= 1e-6)

    # projective invariance of the inverse problem
    pose = direct_kinematics(sixbar, math.pi / 3)
    base = inverse_kinematics(sixbar, pose)
    invariant = all(
        abs(inverse_kinematics(sixbar, DualQuaternion(lam * pose.coeffs)).theta - base.theta)
        <= 1e-12
        for lam in (-3.0, 0.5, 10.0)
    )
    check("projective invariance", invariant)

    # Gauss-Newton gradient against central differences
    coeffs = sixbar.motion.coeffs
    dcoeffs = _derivative_rows(coeffs)
    target = _Target(pose.coeffs.copy())
    pv = np.polynomial.polynomial.polyval
    grad_err = 0.0
    h = 1e-6
    for t in (0.4, 1.0, 2.2):
        fd = (
            _residual_at(coeffs, dcoeffs, target, t + h)
            - _residual_at(coeffs, dcoeffs, target, t - h)
        ) / (2 * h)
        err, chatd = _error_terms(
            np.array([pv(t, coeffs[:, k]) for k in range(8)]),
            np.array([pv(t, dcoeffs[:, k]) for k in range(8)]),
            target,
        )
        g = -2.0 * float(np.dot(chatd, err))
        grad_err = max(grad_err, abs(g - fd) / max(1.0, abs(fd)))
    check("gradient <= 1e-5", grad_err <= 1e-5)

    # quintic boundary conditions
    s = quintic_time_scaling(0.331, 5.893, 4.0)
    check(
        "quintic boundaries",
        s(0.0) == (0.331, 0.0) and s(4.0)[1] == 0.0 and abs(s(4.0)[0] - 5.893) <= 1e-12,
    )

    # arc length additivity at twice the quadrature tolerance
    path = sixbar.motion.point_path([0.0, 0.0, 0.0])
    tol = 1e-10
    whole = arc_length(path, -1.0, SQRT3, tol=tol)
    split = arc_length(path, -1.0, 0.25, tol=tol) + arc_length(path, 0.25, SQRT3, tol=tol)
    check("additivity", abs(whole - split) <= 2 * tol * (1 + whole))

    ok = not failures
    report(
        10,
        "property suite",
        ok,
        "assoc %.1e, iso %.1e, roundtrip %.1e, gradient %.1e%s"
        % (
            assoc,
            iso,
            worst,
            grad_err,
            "" if ok else "; failed: " + ", ".join(failures),
        ),
    )
