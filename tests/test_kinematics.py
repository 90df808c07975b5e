import math

import numpy as np
import pytest

from dqlink import (
    INFINITY,
    DualQuaternion,
    IKOptions,
    IKResult,
    InvalidPose,
    Mechanism,
    MotionPolynomial,
    NoConvergence,
    StudyViolation,
    _kernels,
    angle_to_param,
    direct_kinematics,
    inverse_kinematics,
    param_to_angle,
)

SQRT3 = math.sqrt(3.0)
POSE_SQRT3 = np.array([-SQRT3, -3, -15, SQRT3, -7, -7 * SQRT3, 2 * SQRT3, 2])
POSE_MINUS1 = np.array([3, 1, -7, -1, -7, 7, -2, 0], dtype=float)
AXIS = np.array([0.0, 1.0, 0.0, 0.0])
SHIFT = DualQuaternion([1, 0, 0, 0, 0, 0, 0.085, 0])


def canonical_gap(a: DualQuaternion, b) -> float:
    if not isinstance(b, DualQuaternion):
        b = DualQuaternion(b)
    return float(np.max(np.abs(a.canonical().coeffs - b.canonical().coeffs)))


def test_angle_to_param_known_values():
    assert math.isclose(angle_to_param(math.pi / 3, AXIS), SQRT3, rel_tol=1e-15)
    assert math.isclose(angle_to_param(1.5 * math.pi, AXIS), -1.0, rel_tol=1e-15)
    assert angle_to_param(math.pi, AXIS) == 0.0
    assert angle_to_param(0.0, AXIS) is INFINITY
    assert angle_to_param(2.0 * math.pi, AXIS) is INFINITY


def test_angle_to_param_uses_axis_geometry():
    axis = np.array([2.0, 0.0, 0.0, 3.0])
    # scalar part shifts the chart, vector norm scales it
    assert math.isclose(angle_to_param(math.pi, axis), 2.0, rel_tol=1e-15)
    assert math.isclose(
        angle_to_param(math.pi / 2, axis), 3.0 + 2.0, rel_tol=1e-15
    )


def test_param_to_angle_inverts_chart(rng):
    for axis in (AXIS, np.array([0.457, -0.060, -0.003, 0.068])):
        assert param_to_angle(INFINITY, axis) == 0.0
        for theta in rng.uniform(1e-3, 2 * math.pi - 1e-3, size=40):
            t = angle_to_param(theta, axis)
            assert math.isclose(param_to_angle(t, axis), theta, rel_tol=1e-12)


def test_param_to_angle_is_monotone_decreasing(rng):
    ts = np.sort(rng.uniform(-50, 50, size=50))
    angles = [param_to_angle(t, AXIS) for t in ts]
    assert all(a > b for a, b in zip(angles, angles[1:]))


def test_axis_validation():
    with pytest.raises(ValueError):
        angle_to_param(1.0, [0.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        angle_to_param(1.0, [1.0, 2.0, 3.0])


def test_mechanism_construction(sixbar):
    assert sixbar.tool_home.coeffs[0] == 1.0
    with pytest.raises(ValueError):
        sixbar.driving_axis[0] = 9.0
    with pytest.raises(ValueError):
        Mechanism(
            motion=MotionPolynomial(sixbar.motion.coeffs, validate=False),
            driving_axis=AXIS,
        )
    with pytest.raises(StudyViolation):
        Mechanism(
            motion=sixbar.motion,
            driving_axis=AXIS,
            tool_home=DualQuaternion([1, 0, 0, 0, 1, 0, 0, 0]),
        )
    with pytest.raises(TypeError):
        Mechanism(motion=np.eye(4), driving_axis=AXIS)


def test_direct_kinematics_known_poses(sixbar):
    pose = direct_kinematics(sixbar, math.pi / 3)
    assert canonical_gap(pose, POSE_SQRT3) <= 1e-12
    assert canonical_gap(direct_kinematics(sixbar, 1.5 * math.pi), POSE_MINUS1) <= 1e-12
    home = direct_kinematics(sixbar, 0.0)
    assert np.array_equal(home.coeffs, [1, 0, 0, 0, 0, 0, 0, 0])


def test_direct_kinematics_applies_tool(sixbar):
    with_tool = Mechanism(
        motion=sixbar.motion, driving_axis=sixbar.driving_axis, tool_home=SHIFT
    )
    assert np.array_equal(direct_kinematics(with_tool, 0.0).coeffs, SHIFT.coeffs)
    theta = 0.8
    expect = direct_kinematics(sixbar, theta) * SHIFT
    assert canonical_gap(direct_kinematics(with_tool, theta), expect.coeffs) <= 1e-12


def test_inverse_kinematics_recovers_angle(sixbar):
    r = inverse_kinematics(sixbar, DualQuaternion(POSE_SQRT3))
    assert r.branch == "direct"
    assert abs(r.theta - math.pi / 3) <= 1e-9
    assert abs(r.t - SQRT3) <= 1e-9
    assert r.iterations <= 100
    assert r.residual <= 1e-10


def test_inverse_kinematics_trace_is_monotone(sixbar):
    r = inverse_kinematics(sixbar, DualQuaternion(POSE_SQRT3))
    trace = r.residual_trace
    assert len(trace) >= 2
    assert all(b <= a for a, b in zip(trace, trace[1:]))


def test_inverse_kinematics_home_pose_uses_reciprocal(sixbar):
    r = inverse_kinematics(sixbar, DualQuaternion.identity())
    assert r.branch == "reciprocal"
    assert r.t is INFINITY
    assert r.theta == 0.0
    assert r.residual <= 1e-10


def test_inverse_kinematics_second_table_pose(sixbar):
    r = inverse_kinematics(sixbar, DualQuaternion(POSE_MINUS1))
    assert abs(r.theta - 1.5 * math.pi) <= 1e-9


def test_inverse_kinematics_is_projectively_invariant(sixbar):
    base = inverse_kinematics(sixbar, DualQuaternion(POSE_SQRT3))
    for lam in (-3.0, 0.5, 10.0):
        r = inverse_kinematics(sixbar, DualQuaternion(lam * POSE_SQRT3))
        assert abs(r.t - base.t) <= 1e-12 * abs(base.t)
        assert abs(r.theta - base.theta) <= 1e-12
        assert r.branch == base.branch
        assert r.residual <= 1e-10


def test_inverse_kinematics_divides_tool_out(sixbar):
    with_tool = Mechanism(
        motion=sixbar.motion, driving_axis=sixbar.driving_axis, tool_home=SHIFT
    )
    theta = 2.3
    pose = direct_kinematics(with_tool, theta)
    r = inverse_kinematics(with_tool, pose)
    assert abs(r.theta - theta) <= 1e-9


def test_inverse_kinematics_rejects_non_study_pose(sixbar):
    with pytest.raises(InvalidPose):
        inverse_kinematics(sixbar, DualQuaternion([1, 0, 0, 0, 1, 0, 0, 0]))
    with pytest.raises(InvalidPose):
        inverse_kinematics(sixbar, DualQuaternion(np.zeros(8)))


def test_inverse_kinematics_off_curve_pose_reports_best(sixbar):
    # a valid displacement that the one-parameter motion cannot reach
    c, s = math.cos(0.025), math.sin(0.025)
    twist = DualQuaternion([c, 0, 0, s, 0, 0, 0, 0])
    pose = DualQuaternion(POSE_SQRT3) * twist
    with pytest.raises(NoConvergence) as info:
        inverse_kinematics(sixbar, pose)
    best = info.value.best
    assert isinstance(best, IKResult)
    assert best.residual > 1e-10
    assert math.isfinite(best.residual)


def test_ik_options_are_honored(sixbar):
    opt = IKOptions(success_tol=1e-2, max_iterations=10)
    r = inverse_kinematics(sixbar, DualQuaternion(POSE_SQRT3), options=opt)
    assert r.iterations <= 10
    assert r.residual <= 1e-2


def test_roundtrip_random_angles(sixbar, bennett, rng):
    for mech in (sixbar, bennett):
        for theta in rng.uniform(0.0, 2 * math.pi, size=25):
            pose = direct_kinematics(mech, theta)
            r = inverse_kinematics(mech, pose)
            gap = abs(r.theta - theta) % (2 * math.pi)
            assert min(gap, 2 * math.pi - gap) <= 1e-6


def test_polish_stops_halving_at_step_tolerance(sixbar, bennett, rng, monkeypatch):
    # two evaluations for the start and two per accepted step; a converged
    # polish tries its next full step and stops at the first halving that
    # falls below the step tolerance instead of halving on
    calls = []
    evaluate = _kernels.poly_eval8
    for mech in (sixbar, bennett):
        for theta in rng.uniform(0.0, 2 * math.pi, size=100):
            pose = direct_kinematics(mech, theta)
            monkeypatch.setattr(
                _kernels, "poly_eval8", lambda c, t: calls.append(1) or evaluate(c, t)
            )
            calls.clear()
            r = inverse_kinematics(mech, pose)
            monkeypatch.setattr(_kernels, "poly_eval8", evaluate)
            assert len(calls) <= 2 * (r.iterations + 1) + 4


def test_gauss_newton_step_matches_finite_difference(sixbar):
    # the GN increment for a scalar parameter is the normalized-residual
    # gradient over the squared derivative norm; cross-check the gradient
    # of f(t) = |p_hat - C_hat(t)|^2 by central differences
    from dqlink.kinematics import _derivative_rows, _residual_at, _Target

    coeffs = sixbar.motion.coeffs
    dcoeffs = _derivative_rows(coeffs)
    target = _Target(POSE_SQRT3.copy())
    h = 1e-6
    for t in (0.4, 1.0, 2.2):
        g_fd = (
            _residual_at(coeffs, dcoeffs, target, t + h)
            - _residual_at(coeffs, dcoeffs, target, t - h)
        ) / (2 * h)
        c = np.array([np.polynomial.polynomial.polyval(t, coeffs[:, k]) for k in range(8)])
        cd = np.array([np.polynomial.polynomial.polyval(t, dcoeffs[:, k]) for k in range(8)])
        from dqlink.kinematics import _error_terms

        err, chatd = _error_terms(c, cd, target)
        g = -2.0 * float(np.dot(chatd, err))
        assert abs(g - g_fd) <= 1e-5 * max(1.0, abs(g_fd))


HOME_OFFSETS = [s * d for d in (1e-5, 1e-8, 1e-13) for s in (1.0, -1.0)]


def test_roundtrip_on_generated_linkages(random_linkage):
    # scaled DK poses of random 2-, 3- and 4-axis chains, with angles
    # next to home on both sides and at pi
    rng = np.random.default_rng(31)
    for joints in (2, 3, 4):
        for _ in range(4):
            mech = random_linkage(rng, joints)
            thetas = list(rng.uniform(0.0, 2 * math.pi, size=8)) + HOME_OFFSETS + [math.pi]
            for theta in thetas:
                scale = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-1.0, 1.0)
                pose = DualQuaternion(scale * direct_kinematics(mech, theta).coeffs)
                r = inverse_kinematics(mech, pose)
                gap = abs(r.theta - theta) % (2 * math.pi)
                assert min(gap, 2 * math.pi - gap) <= 1e-6, (joints, theta, r)


def test_unreachable_pose_on_generated_linkages(random_linkage):
    rng = np.random.default_rng(32)
    for joints in (2, 3, 4):
        mech = random_linkage(rng, joints)
        shift = DualQuaternion.from_translation(0.3 * rng.normal(size=3))
        pose = direct_kinematics(mech, rng.uniform(0.0, 2 * math.pi)) * shift
        with pytest.raises(NoConvergence) as info:
            inverse_kinematics(mech, pose)
        best = info.value.best
        assert isinstance(best, IKResult)
        assert 1e-10 < best.residual < math.inf
