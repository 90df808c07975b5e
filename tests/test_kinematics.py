import functools
import math
import warnings

import numpy as np
import pytest

from dqlink import (
    CANONICAL_TOL,
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
    arc_length_between,
    direct_kinematics,
    equidistant_profile,
    inverse_kinematics,
    kinematics,
    motionpoly,
    param_to_angle,
    trajectory,
)
from dqlink.dq import _binary_normalized
from test_acceptance import BENNETT_P1, BENNETT_P2

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


def test_angle_to_param_rejects_angles_that_are_not_finite():
    for theta in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="theta must be finite"):
            angle_to_param(theta, AXIS)


def test_param_to_angle_rejects_nan():
    with pytest.raises(ValueError, match="t must not be nan"):
        param_to_angle(math.nan, AXIS)


def test_direct_kinematics_rejects_angles_that_are_not_finite(sixbar):
    for theta in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="theta must be finite"):
            direct_kinematics(sixbar, theta)


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
        assert param_to_angle(-math.inf, axis) == 0.0
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
    for bad in ([0.0, math.nan, 0.0, 1.0], [math.nan, 1.0, 0.0, 0.0], [0.0, math.inf, 0.0, 0.0]):
        with pytest.raises(ValueError):
            angle_to_param(1.0, bad)
        with pytest.raises(ValueError):
            param_to_angle(1.0, bad)


def test_axis_length_at_any_float_scale(sixbar):
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        for scale in (1e200, 1e-10, 1e-200):
            axis = [0.0, scale, 0.0, 0.0]
            t = angle_to_param(1.0, axis)
            assert t == scale / math.tan(0.5)
            assert param_to_angle(t, axis) == pytest.approx(1.0, rel=1e-15)
            Mechanism(MotionPolynomial.from_axes([[0, 1, 0, 0, 0, 0, 0, 0]]), axis)
        # the IK polish form of a cubic on such axes does not overflow; its
        # coefficients C_k 2**(e k) may underflow, as the terms of C(t) do
        with np.errstate(under="ignore"):
            for scale in (1e200, 1e-200):
                Mechanism(sixbar.motion, [0.0, scale, 0.0, 0.0])
    # the vector part is zero relative to the whole quaternion, or exactly
    for bad in ([1.0, 1e-10, 0.0, 0.0], [1e-200, 0.0, 0.0, 0.0], [0.0, 0.0, -0.0, 0.0]):
        with pytest.raises(ValueError, match="nonzero vector part"):
            angle_to_param(1.0, bad)
    # a vector part whose length would overflow is rejected, not made inf
    with pytest.raises(ValueError, match="below 2"):
        angle_to_param(1.0, [0.0, 1.5e308, 1.5e308, 0.0])


def test_mechanism_construction(sixbar):
    assert sixbar.tool_home.coeffs[0] == 1.0
    with pytest.raises(ValueError):
        sixbar.driving_axis[0] = 9.0
    with pytest.raises(StudyViolation):
        Mechanism(
            motion=sixbar.motion,
            driving_axis=AXIS,
            tool_home=DualQuaternion([1, 0, 0, 0, 1, 0, 0, 0]),
        )
    with pytest.raises(TypeError):
        Mechanism(motion=np.eye(4), driving_axis=AXIS)
    for bad in ([0.0, math.nan, 0.0, 1.0], [0.0, 1.0, -math.inf, 0.0]):
        with pytest.raises(ValueError):
            Mechanism(motion=sixbar.motion, driving_axis=bad)


def test_mechanism_keeps_its_axis_parts(monkeypatch, sixbar):
    # the driving axis is validated once, at construction; direct and
    # inverse kinematics and the tool path chart read the kept (q0, r)
    mech = Mechanism(sixbar.motion, sixbar.driving_axis, sixbar.tool_home)
    assert mech._axis == kinematics._axis_parts(mech.driving_axis)
    t = angle_to_param(2.3, mech.driving_axis)
    want = sixbar.motion.evaluate(t) * sixbar.tool_home

    def fail(axis):
        raise AssertionError("driving axis validated again")

    monkeypatch.setattr(kinematics, "_axis_parts", fail)
    monkeypatch.setattr(trajectory, "_axis_parts", fail)
    pose = direct_kinematics(mech, 2.3)
    assert np.array_equal(pose.coeffs, want.coeffs)
    assert abs(inverse_kinematics(mech, pose).theta - 2.3) <= 1e-12
    assert arc_length_between(mech, 0.3, 2.0) > 0.0
    assert equidistant_profile(mech, 0.3, 2.0, 1.0, 10.0).thetas.size == 11


def test_plain_sequences_for_tool_and_pose(sixbar):
    tool = DualQuaternion.from_translation([0.1, -0.2, 0.3]) * DualQuaternion(
        [0.6, 0.0, 0.8, 0.0, 0.0, 0.0, 0.0, 0.0]
    )
    mech = Mechanism(sixbar.motion, sixbar.driving_axis, tool_home=list(tool.coeffs))
    assert isinstance(mech.tool_home, DualQuaternion)
    pose = np.array(direct_kinematics(mech, 1.0).coeffs)
    assert abs(inverse_kinematics(mech, pose).theta - 1.0) <= 1e-12


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


def test_theta_just_below_a_full_turn_folds_to_zero(sixbar):
    # the sixbar's t is cot(psi); its pose at psi = -1e-16 polishes in one
    # step from home to a psi whose 2*psi % (2*pi) rounds to 2*pi, and
    # theta, which lies in [0, 2*pi), is 0 there, with t = INFINITY
    pose = sixbar.motion.evaluate(1.0 / math.tan(-1e-16)) * sixbar.tool_home
    r = inverse_kinematics(sixbar, pose)
    assert r.iterations == 1 and r.branch == "reciprocal"
    assert r.theta == 0.0 and r.t is INFINITY


@pytest.mark.parametrize("fixture", ["sixbar", "bennett"])
def test_direct_kinematics_near_home(fixture, request):
    # t = r/tan(theta/2) overflows the Horner sum from about 1e-104 rad
    # (sixbar) and 1e-156 rad (Bennett), and is inf at 1e-320; the pose,
    # then evaluated in 1/t, tends to the home pose, where IK finds it
    mech = request.getfixturevalue(fixture)
    home = direct_kinematics(mech, 0.0).canonical().coeffs
    for theta in (1e-104, 1e-200, 1e-320):
        pose = direct_kinematics(mech, theta)
        assert np.max(np.abs(pose.canonical().coeffs - home)) <= 10.0 * theta
        r = inverse_kinematics(mech, pose)
        assert r.theta == 0.0 and r.branch == "reciprocal"


@pytest.mark.parametrize(
    "fixture, residual",
    [("sixbar", 5.25e-160), ("bennett", 4.7508407808249915e-161)],
    ids=["sixbar", "bennett"],
)
def test_inverse_kinematics_start_near_home(fixture, residual, request):
    # within about 1e-52 rad (sixbar) or 1e-78 rad (Bennett) of home, N and
    # S overflow at the largest start candidates; no warning escapes, and
    # INFINITY stands for those candidates
    mech = request.getfixturevalue(fixture)
    r = inverse_kinematics(mech, direct_kinematics(mech, 1e-80))
    assert (r.theta, r.branch, r.iterations) == (0.0, "reciprocal", 0)
    assert math.isclose(r.residual, residual, rel_tol=1e-9)


def test_start_never_picks_a_candidate_whose_ratio_is_not_finite(sixbar, monkeypatch):
    # with N poisoned at every candidate but the best, the start is still
    # the best one, not whichever candidate argmin would find first; the
    # pose is off the motion, so that its start is the companion start
    twist = DualQuaternion([math.cos(0.025), 0, 0, math.sin(0.025), 0, 0, 0, 0])
    p8 = _binary_normalized((direct_kinematics(sixbar, 1.0) * twist).coeffs)
    form, axis = sixbar._ik_form, sixbar._axis
    assert kinematics._rayleigh_start(form[-1], form[2][-1], _rows(form, p8), axis) is None
    want = kinematics._global_start(form, p8, axis)
    assert want != 0.0
    evaluate = kinematics._candidate_values
    for poison in (math.nan, math.inf, -math.inf):

        def poisoned(num, s, ts):
            n_ts, s_ts = evaluate(num, s, ts)
            n_ts[[0.5 * kinematics._t_to_angle(t, *axis) != want for t in ts]] = poison
            return n_ts, s_ts

        monkeypatch.setattr(kinematics, "_candidate_values", poisoned)
        assert kinematics._global_start(form, p8, axis) == want


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


@pytest.mark.parametrize("fixture", ["sixbar", "bennett"])
def test_tool_scale_is_irrelevant(fixture, request):
    base = request.getfixturevalue(fixture)
    tool = (0.1, -0.2, 0.05)

    def run(scale):
        mech = Mechanism(
            motion=base.motion,
            driving_axis=base.driving_axis,
            tool_home=DualQuaternion(scale * SHIFT.coeffs),
        )
        theta = inverse_kinematics(mech, direct_kinematics(mech, 2.3)).theta
        length = arc_length_between(mech, 0.4, 2.9, tool=tool)
        profile = equidistant_profile(mech, 0.4, 2.9, 1.0, 30.0, tool=tool)
        return theta, length, np.array(profile.thetas)

    _, length, thetas = run(1.0)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        for scale in (2.0**-40, 2.0**40, 1e-10, 1e160):
            got_theta, got_length, got_thetas = run(scale)
            assert abs(got_theta - 2.3) <= 1e-12
            if math.frexp(scale)[0] == 0.5:
                # a power of two scales the tool exactly
                assert got_length == length
                assert np.array_equal(got_thetas, thetas)
            else:
                assert abs(got_length - length) <= 1e-12 * length
                assert np.max(np.abs(got_thetas - thetas)) <= 1e-12


def test_displacements_far_from_the_origin(sixbar, bennett):
    # the primal part vanishes only relative to the whole magnitude, not
    # to the Study tolerance, so a tool frame or a base far from the
    # coupler frame still gives displacements that IK solves
    far = DualQuaternion.from_translation

    def moved(mech, v):
        coeffs = [far(v) * DualQuaternion(c) for c in mech.motion.coeffs]
        return Mechanism(MotionPolynomial(coeffs, mech.motion.study_tol), mech.driving_axis)

    cases = [
        Mechanism(sixbar.motion, sixbar.driving_axis, far([1e4, 0, 0])),
        Mechanism(sixbar.motion, sixbar.driving_axis, far([1e5, 0, 0])),
        moved(bennett, [20, 0, 0]),
        moved(sixbar, [1e5, 0, 0]),
    ]
    for mech in cases:
        assert abs(inverse_kinematics(mech, direct_kinematics(mech, 1.0)).theta - 1.0) <= 1e-9
    want = (far([1e5, 0, 0]) * direct_kinematics(sixbar, 1.0)).canonical().coeffs
    got = direct_kinematics(cases[-1], 1.0).canonical().coeffs
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)


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


def test_ik_options_are_honored(sixbar, monkeypatch):
    pose = DualQuaternion(POSE_SQRT3)
    assert inverse_kinematics(sixbar, pose).iterations >= 1
    # the iteration cap is a module constant; success_tol is the option
    monkeypatch.setattr(kinematics, "_MAX_ITERATIONS", 0)
    r = inverse_kinematics(sixbar, pose, options=IKOptions(success_tol=1e-2))
    assert r.iterations == 0
    assert r.residual <= 1e-2


def test_roundtrip_random_angles(sixbar, bennett, rng):
    for mech in (sixbar, bennett):
        for theta in rng.uniform(0.0, 2 * math.pi, size=25):
            pose = direct_kinematics(mech, theta)
            r = inverse_kinematics(mech, pose)
            gap = abs(r.theta - theta) % (2 * math.pi)
            assert min(gap, 2 * math.pi - gap) <= 1e-6


def test_polish_stops_halving_at_step_tolerance(sixbar, bennett, rng, monkeypatch):
    # one residual evaluation per trial of the polish and none for the
    # start; a polish whose last accepted step is longer than the step
    # tolerance tries its next full step and stops at the first halving
    # that falls below the step tolerance instead of halving on
    calls = []
    terms = kinematics._residual_terms
    monkeypatch.setattr(kinematics, "_residual_terms", lambda *a: calls.append(1) or terms(*a))
    for mech in (sixbar, bennett):
        for theta in rng.uniform(0.0, 2 * math.pi, size=100):
            pose = direct_kinematics(mech, theta)
            calls.clear()
            r = inverse_kinematics(mech, pose)
            assert len(calls) <= r.iterations + 2


def test_gauss_newton_step_matches_finite_difference(sixbar):
    # the GN increment for a scalar parameter is the normalized-residual
    # gradient over the squared derivative norm; cross-check the gradient
    # of f(psi) = |p_hat - C_hat(psi)|^2 in the half angle by central
    # differences, and f itself against the curve in t at t(psi)
    form = sixbar._polish
    coeffs = sixbar._tool_coeffs
    target = kinematics._Target(POSE_SQRT3.copy())
    h = 1e-6
    for psi in (0.4, 1.0, 2.2, -0.3, 1e-3):
        g_fd = (
            kinematics._residual_terms(form, target, psi + h)[0]
            - kinematics._residual_terms(form, target, psi - h)[0]
        ) / (2 * h)
        f, err, slope = kinematics._residual_terms(form, target, psi)
        g = -2.0 * float(np.dot(slope(), err))
        assert abs(g - g_fd) <= 1e-5 * max(1.0, abs(g_fd))
        t = angle_to_param(2.0 * psi, sixbar.driving_axis)
        c = np.polynomial.polynomial.polyval(t, coeffs)
        want = kinematics._error_and_slope(c, np.zeros(8), target)[0]
        assert abs(f - float(np.dot(want, want))) <= 1e-12 * max(1.0, f)


HOME_OFFSETS = [s * d for d in (1e-5, 1e-8, 1e-13) for s in (1.0, -1.0)]


def _check_roundtrip(mech, rng, joints):
    thetas = list(rng.uniform(0.0, 2 * math.pi, size=8)) + HOME_OFFSETS + [math.pi]
    for theta in thetas:
        scale = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-1.0, 1.0)
        pose = DualQuaternion(scale * direct_kinematics(mech, theta).coeffs)
        r = inverse_kinematics(mech, pose)
        gap = abs(r.theta - theta) % (2 * math.pi)
        assert min(gap, 2 * math.pi - gap) <= 1e-6, (joints, theta, r)


def test_roundtrip_on_generated_linkages(random_linkage):
    # scaled DK poses of random 2-, 3- and 4-axis chains, with angles
    # next to home on both sides and at pi
    rng = np.random.default_rng(31)
    for joints in (2, 3, 4):
        for _ in range(4):
            _check_roundtrip(random_linkage(rng, joints), rng, joints)


def test_roundtrip_on_one_joint_chains(random_linkage):
    # a single revolute joint: N and D are quadratics and the critical
    # polynomial has degree at most two
    rng = np.random.default_rng(33)
    for _ in range(4):
        _check_roundtrip(random_linkage(rng, 1), rng, 1)


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


def _rows(form, p8):
    """The rows of V's coefficients that both starts read: one product
    of the pose with the map G of the start form."""
    return (p8 @ form[0]).reshape(-1, 6)


def _reference_start_polynomials(coeffs, p8):
    """N and N'S - NS' of the start, built from products of the components
    of V(t) = C(t) * conj(p) with numpy.polynomial, padded to full length."""
    P = np.polynomial.polynomial
    d = 2 * (coeffs.shape[0] - 1)

    def squares(rows, columns):
        total = functools.reduce(P.polyadd, (P.polymul(rows[:, j], rows[:, j]) for j in columns))
        return np.pad(total, (0, d + 1 - total.size))

    conj_p = DualQuaternion(p8).conjugate()
    v = np.array([(DualQuaternion(c) * conj_p).coeffs for c in coeffs])
    num = squares(v, (1, 2, 3, 5, 6, 7))
    s = squares(coeffs, range(8))
    crit = P.polysub(P.polymul(P.polyder(num), s), P.polymul(num, P.polyder(s)))
    return v[:, [1, 2, 3, 5, 6, 7]], num, np.pad(crit, (0, 2 * d - crit.size))


def test_start_form_matches_independent_products(sixbar, bennett, random_linkage):
    rng = np.random.default_rng(34)
    mechs = [sixbar, bennett]
    for joints in (1, 2, 3, 4):
        mechs += [random_linkage(rng, joints) for _ in range(3)]
    for mech in mechs:
        form = kinematics._start_form(mech.motion.coeffs)
        poses = [direct_kinematics(mech, th).coeffs for th in rng.uniform(0, 2 * math.pi, 4)]
        poses += [rng.normal(size=8) for _ in range(2)]
        for p8 in poses:
            p8 = p8 * 10.0 ** rng.uniform(-1.0, 1.0)
            want_v, want_num, want_crit = _reference_start_polynomials(mech.motion.coeffs, p8)
            v = _rows(form, p8)
            num = kinematics._sum_of_squares(v)
            crit = form[1] @ num
            assert v.shape == want_v.shape
            assert np.max(np.abs(v - want_v)) <= 1e-14 * np.max(np.abs(want_v))
            assert num.shape == want_num.shape
            # the top coefficient of the critical polynomial cancels
            assert crit.shape == (want_crit.size - 1,)
            assert abs(want_crit[-1]) <= 1e-12 * np.max(np.abs(want_crit))
            assert np.max(np.abs(num - want_num)) <= 1e-12 * np.max(np.abs(want_num))
            scale = np.max(np.abs(want_crit))
            assert np.max(np.abs(crit - want_crit[:-1])) <= 1e-12 * scale


def test_start_form_is_built_once_and_read_only(random_linkage, monkeypatch):
    mech = random_linkage(np.random.default_rng(35), 3)
    form = mech._ik_form
    polish = mech._polish
    # a solve takes the polish form as kept, whether its start is home or not
    def no_form(*args):
        raise AssertionError("polish form built during a solve")

    monkeypatch.setattr(kinematics, "_polish_form", no_form)
    pose = direct_kinematics(mech, 1.0)
    assert inverse_kinematics(mech, pose).branch == "direct"
    inverse_kinematics(mech, direct_kinematics(mech, 2.0))
    assert inverse_kinematics(mech, DualQuaternion.identity()).branch == "reciprocal"
    monkeypatch.undo()
    assert mech._ik_form is form
    assert mech._polish is polish
    # G, L and S, and the whitened form of the Rayleigh start
    assert len(form) == 4 and form[3] is not None
    for arr in form[:3] + form[3] + (polish, mech._tool_coeffs):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    # the blocks of M: the coefficients D_k of the tool motion in tau =
    # cot(psi) for D, and for dD/dpsi the derivative rows of D in a and
    # in s
    c = mech._tool_coeffs
    want = np.zeros((10, 16))
    want[:4, :8], want[4:7, 8:] = c, motionpoly._derivative_rows(c)
    want[7:, 8:] = motionpoly._derivative_rows(c[::-1])[::-1]
    assert np.array_equal(polish, want)
    # per pose the start makes no dual quaternion product
    calls = []
    multiply = _kernels.dq_mul8
    monkeypatch.setattr(_kernels, "dq_mul8", lambda a, b: calls.append(1) or multiply(a, b))
    kinematics._global_start(mech._ik_form, pose.coeffs, mech._axis)
    assert calls == []


def test_start_candidate_values_match_polyval_within_8_ulp(
    sixbar, bennett, random_linkage, monkeypatch
):
    # the companion start evaluates N and S at all its candidates with
    # one Vandermonde product each; its values stay within 8 ulp of the
    # sum of the absolute terms of np.polyval, and the start it returns
    # is bit for bit the half angle of the one that the np.polyval values
    # pick.  The form
    # without its whitened part sends the DK poses to the companion start
    rng = np.random.default_rng(36)
    mechs = [sixbar, bennett]
    mechs += [random_linkage(rng, joints) for joints in (1, 2, 3, 4) for _ in range(2)]
    cases = [
        (mech, direct_kinematics(mech, theta).coeffs * 10.0 ** rng.uniform(-1.0, 1.0))
        for mech in mechs
        for theta in rng.uniform(0.0, 2 * math.pi, size=6)
    ]
    cases += [(bennett, BENNETT_P1), (bennett, BENNETT_P2)]
    seen = []
    evaluate = kinematics._candidate_values
    monkeypatch.setattr(
        kinematics,
        "_candidate_values",
        lambda num, s, ts: seen.append((num, s, ts, evaluate(num, s, ts))) or seen[-1][3],
    )
    for mech, pose in cases:
        p8 = _binary_normalized(pose)
        seen.clear()
        start = kinematics._global_start(mech._ik_form[:3] + (None,), p8, mech._axis)
        [(num, s, ts, values)] = seen
        assert ts.size >= 1 and np.all(np.isfinite(ts))
        for row, coeffs in zip(values, (num, s)):
            want = np.polyval(coeffs[::-1], ts)
            size = np.polyval(np.abs(coeffs[::-1]), np.abs(ts))
            assert np.all(np.abs(row - want) <= 8.0 * np.spacing(size))
        ratio = np.polyval(num[::-1], ts) / np.polyval(s[::-1], ts)
        k = int(np.argmin(ratio))
        if ratio[k] <= num[-1] / s[-1]:
            assert start == 0.5 * kinematics._t_to_angle(ts[k], *mech._axis)
        else:
            assert start == 0.0


def _residual_events(monkeypatch):
    """Log of the polish: ("eval", f) per residual evaluation and
    ("slope",) per slope formed."""
    events = []
    evaluate, terms = kinematics._residual_terms, kinematics._error_and_slope

    def logged_evaluate(rows, target, t):
        out = evaluate(rows, target, t)
        events.append(("eval", out[0]))
        return out

    def logged_terms(c, cd, target):
        out = terms(c, cd, target)
        return out and (out[0], lambda: events.append(("slope",)) or out[1]())

    monkeypatch.setattr(kinematics, "_residual_terms", logged_evaluate)
    monkeypatch.setattr(kinematics, "_error_and_slope", logged_terms)
    return events


def test_polish_forms_the_slope_only_where_a_step_follows(sixbar, bennett, rng, monkeypatch):
    # the first evaluation is the start; a trial that lowers the residual
    # becomes the iterate.  A slope is formed right after the start or an
    # accepted trial, once, and a trial always follows it: never at a
    # rejected trial, never at the last iterate
    events = _residual_events(monkeypatch)
    poses = [(mech, direct_kinematics(mech, th)) for mech in (sixbar, bennett)
             for th in rng.uniform(0.0, 2 * math.pi, size=20)]
    poses += [(sixbar, DualQuaternion.identity()), (sixbar, direct_kinematics(sixbar, 1e-7))]
    poses += [(bennett, DualQuaternion(BENNETT_P1)), (bennett, DualQuaternion(BENNETT_P2))]
    for mech, pose in poses:
        events.clear()
        try:
            r = inverse_kinematics(mech, pose)
        except NoConvergence as e:
            r = e.best
        # f is the residual of the iterate; fresh while no slope was formed
        # since the evaluation that made it
        f, fresh, stepped_from = None, False, []
        for i, event in enumerate(events):
            if event[0] == "eval":
                fresh = f is None or event[1] < f
                f = event[1] if fresh else f
            else:
                assert fresh and i + 1 < len(events) and events[i + 1][0] == "eval"
                fresh = False
                stepped_from.append(f)
        assert f == r.residual
        assert stepped_from == list(r.residual_trace[: len(stepped_from)])
        assert len(stepped_from) in (r.iterations, r.iterations + 1)


def _companion_start(mech, p8):
    """The start of the companion solve alone, as for a singular Q."""
    return kinematics._global_start(mech._ik_form[:3] + (None,), p8, mech._axis)


def _angle_gap(a, b) -> float:
    """Distance of two joint angles on the circle."""
    return abs((a - b + math.pi) % (2 * math.pi) - math.pi)


def test_certified_start_agrees_with_the_companion_start(sixbar, bennett, random_linkage):
    # on seeded, scaled DK poses of both fixtures and of generated 1- to
    # 4-axis linkages the Rayleigh start is certified, lies within 1e-9
    # rad of the companion start, and polishes to the same angle; both
    # starts are half angles psi, rounded to 2**-40 where certified
    rng = np.random.default_rng(37)
    mechs = [sixbar, bennett]
    mechs += [random_linkage(rng, joints) for joints in (1, 2, 3, 4) for _ in range(2)]
    for mech in mechs:
        form, axis, polish = mech._ik_form, mech._axis, mech._polish
        for theta in rng.uniform(0.0, 2 * math.pi, size=12):
            pose = direct_kinematics(mech, theta).coeffs * 10.0 ** rng.uniform(-1.0, 1.0)
            p8 = _binary_normalized(pose)
            start = kinematics._rayleigh_start(form[-1], form[2][-1], _rows(form, p8), axis)
            assert start is not None and kinematics._global_start(form, p8, axis) == start
            assert math.ldexp(start, 40).is_integer()
            companion = _companion_start(mech, p8)
            assert _angle_gap(2.0 * start, 2.0 * companion) <= 1e-9
            target = kinematics._Target(p8)
            polished = [kinematics._refine(polish, target, psi)[0] for psi in (start, companion)]
            assert _angle_gap(2.0 * polished[0], 2.0 * polished[1]) <= 1e-12


def test_certified_start_does_not_see_the_scale_of_the_motion(sixbar, bennett, random_linkage):
    # the motion's coefficients times a power of two give the same
    # projective motion: every quantity of the certificate scales exactly,
    # and the certified start and the solve stay the same bit for bit
    rng = np.random.default_rng(38)
    for mech in [sixbar, bennett, random_linkage(rng, 2), random_linkage(rng, 4)]:
        for scale in (2.0**-100, 2.0**100):
            motion = MotionPolynomial(scale * mech.motion.coeffs, mech.motion.study_tol)
            scaled = Mechanism(motion, mech.driving_axis, mech.tool_home)
            for theta in rng.uniform(0.0, 2 * math.pi, size=4):
                pose = direct_kinematics(mech, theta)
                p8 = _binary_normalized(pose.coeffs)
                starts = [
                    kinematics._rayleigh_start(m._ik_form[-1], m._ik_form[2][-1],
                                               _rows(m._ik_form, p8), m._axis)
                    for m in (mech, scaled)
                ]
                assert starts[0] is not None and starts[1] == starts[0]
                assert inverse_kinematics(scaled, pose) == inverse_kinematics(mech, pose)


def test_uncertified_poses_take_the_companion_start(sixbar, bennett):
    def certified(mech, pose):
        form = mech._ik_form
        p8 = _binary_normalized(np.asarray(pose, dtype=float))
        if form[-1] is None:
            return False
        start = kinematics._rayleigh_start(form[-1], form[2][-1], _rows(form, p8), mech._axis)
        if start is None:
            assert kinematics._global_start(form, p8, mech._axis) == _companion_start(mech, p8)
        return start is not None

    # criterion 08's rounded poses lie off the motion
    assert not certified(bennett, BENNETT_P1) and not certified(bennett, BENNETT_P2)
    # the identity, where N vanishes at infinity
    assert not certified(sixbar, DualQuaternion.identity().coeffs)
    # next to home, in the chart u = 1/t, the half angle is as well known
    # as elsewhere: the sixbar's t is about 2 / theta there, and poses
    # with t* near 2**13 and 2**41 are certified.  The latter's start
    # psi = 2**-41 rounds to home, so its branch is "reciprocal", and the
    # polish steps off home to its angle
    assert certified(sixbar, direct_kinematics(sixbar, 2.0**-12).coeffs)
    assert certified(sixbar, direct_kinematics(sixbar, 2.0**-40).coeffs)
    r = inverse_kinematics(sixbar, direct_kinematics(sixbar, 2.0**-40))
    assert r.branch == "reciprocal" and r.iterations == 1
    assert abs(r.theta - 2.0**-40) <= 1e-12 * 2.0**-40
    # (t - h)**2 about one axis h reaches each pose twice, so Q is singular
    h = DualQuaternion([0, 0.6, 0, 0.8, 0, 0.4, 0.5, -0.3])
    doubled = Mechanism(MotionPolynomial.from_axes([h, h]), [0.2, 0.6, 0.0, 0.8])
    assert doubled._ik_form[-1] is None
    pose = direct_kinematics(doubled, 2.0)
    assert not certified(doubled, pose.coeffs)
    assert inverse_kinematics(doubled, pose).residual <= 1e-20
    # coefficient rows whose vector parts i and j, the columns (2, -1, 0)
    # and (0, 1, -2), leave the identity a null vector (1, 2, 1) of the
    # pencil that is no monomial vector (1, t, t**2)
    rows = np.zeros((3, 8))
    rows[:, 0], rows[:, 4], rows[:, 1], rows[:, 2] = (1, 0, 1), (0, 1, 0), (2, -1, 0), (0, 1, -2)
    form = kinematics._start_form(rows)
    v = _rows(form, np.eye(8)[0])
    assert kinematics._rayleigh_start(form[-1], form[2][-1], v, (0.0, 1.0)) is None
    # a constant motion, with no parameter to certify
    still = Mechanism(MotionPolynomial([[1, 0, 0, 0, 0, 0, 0, 0]]), [0, 1, 0, 0])
    assert still._ik_form[-1] is None
    r = inverse_kinematics(still, DualQuaternion([0.9, 0.1, 0, 0, 0, 0, 0, 0]), IKOptions(1.0))
    assert (r.t, r.branch, r.iterations) == (INFINITY, "reciprocal", 0)
    # C = t, whose Q = diag(0, 1) is singular
    line = Mechanism(MotionPolynomial([[0.0] * 8, [1, 0, 0, 0, 0, 0, 0, 0]]), [0, 1, 0, 0])
    assert line._ik_form[-1] is None
    assert inverse_kinematics(line, DualQuaternion.identity()).residual == 0.0


def test_canonical_solve_forms_no_unit_norm_representative(sixbar, bennett, monkeypatch):
    calls = []
    sign = kinematics._first_nonzero_sign
    monkeypatch.setattr(
        kinematics, "_first_nonzero_sign", lambda v, n: calls.append(1) or sign(v, n)
    )
    for mech, theta in ((sixbar, 1.0), (sixbar, 2.3), (bennett, 1.351)):
        r = inverse_kinematics(mech, direct_kinematics(mech, theta))
        assert r.branch == "direct" and r.iterations >= 1
    assert calls == []
    # a half-turn pose of the sixbar takes the unit-norm representative
    root = param_to_angle(2.0, sixbar.driving_axis)
    inverse_kinematics(sixbar, direct_kinematics(sixbar, root))
    assert calls


def _eager_refine(form, target, psi):
    """The polish with error and slope formed at every evaluation;
    _refine, which forms the slope only where a step follows, must match
    it bit for bit."""
    def terms(psi):
        f, err, slope = kinematics._residual_terms(form, target, psi)
        return (f, None, None) if err is None else (f, err, slope())

    f, err, chatd = terms(psi)
    if err is None:
        return psi, f, 0, ()
    trace, iters = [f], 0
    while iters < kinematics._MAX_ITERATIONS and f > kinematics._RESIDUAL_FLOOR:
        denom = float(np.dot(chatd, chatd))
        if denom <= kinematics._SLOPE_FLOOR:
            break
        step, lam, accepted = float(np.dot(chatd, err)) / denom, 1.0, False
        for _ in range(kinematics._MAX_HALVINGS + 1):
            if lam < 1.0 and abs(lam * step) <= kinematics._STEP_TOL:
                break
            psi_try = psi + lam * step
            trial = terms(psi_try)
            if trial[0] < f:
                accepted = True
                break
            lam *= 0.5
        if not accepted:
            break
        moved, psi = abs(psi_try - psi), psi_try
        f, err, chatd = trial
        trace.append(f)
        iters += 1
        if moved <= kinematics._STEP_TOL:
            break
    return psi, f, iters, tuple(trace)


def test_inverse_kinematics_at_half_turn_poses(sixbar):
    # the scalar part c0(t) of the sixbar's tool motion vanishes at
    # t = -2, 0 and 2, so poses there and close by have no usable
    # canonical representative and IK compares unit-norm ones
    coeffs = sixbar._tool_coeffs
    for t in (-2.0, 0.0, 2.0):
        assert _kernels.poly_eval8(coeffs, t)[0] == 0.0
        root = param_to_angle(t, sixbar.driving_axis)
        pose = direct_kinematics(sixbar, root).coeffs
        assert abs(pose[0]) <= CANONICAL_TOL * np.linalg.norm(pose)
        for offset in (0.0, 1e-9, -1e-9, 1e-7, -1e-7):
            theta = root + offset
            r = inverse_kinematics(sixbar, direct_kinematics(sixbar, theta))
            assert _angle_gap(r.theta, theta) <= 1e-12
            # the lazy slope and the lazy unit-norm target change no bit
            p8 = _binary_normalized(direct_kinematics(sixbar, theta).coeffs)
            start = kinematics._global_start(sixbar._ik_form, p8, sixbar._axis)
            assert start != 0.0 and r.branch == "direct"
            psi, *rest = _eager_refine(sixbar._polish, kinematics._Target(p8), start)
            assert r.theta == (2.0 * psi) % (2.0 * math.pi)
            assert (r.residual, r.iterations, r.residual_trace) == tuple(rest)


def test_polish_steps_once_next_to_home(sixbar):
    # a unit-norm pose near home with coefficient 1 raised by 1e-9 has
    # its start far out in t, at t ~ 2.47e9; in the half angle the polish
    # takes one step there, like anywhere else
    pose = direct_kinematics(sixbar, 1e-9).coeffs
    pose = pose / np.linalg.norm(pose)
    pose[1] += 1e-9
    r = inverse_kinematics(sixbar, DualQuaternion(pose))
    assert math.isclose(r.t, 2.47e9, rel_tol=1e-3)
    assert r.iterations == 1
    assert r.branch == "direct"
    assert len(r.residual_trace) == 2
    assert math.isclose(r.residual, 8.1e-19, rel_tol=1e-2)
    want = 8.095238095238097e-10
    assert abs(r.theta - want) <= 4.0 * math.ulp(want)


# psi = atan2(1, 2), where cos(psi) is exactly twice sin(psi) in floats;
# the driving axis (-2, 1) puts t = 0 at tau = cot(psi) = 2, and turns
# the coefficients of the motions below into powers of two in tau, so
# that their chart form vanishes there without rounding
PSI_AT_T0 = math.atan2(1.0, 2.0)
AXIS_AT_T0 = [-2.0, 1.0, 0.0, 0.0]


def test_polish_stops_where_the_curve_value_vanishes():
    # C = t passes the norm check, since its norm polynomial t**2 is real,
    # but C(0) = 0 has no normalized error: the polish returns its start
    # with an infinite residual, no step and no trace
    assert math.cos(PSI_AT_T0) == 2.0 * math.sin(PSI_AT_T0)
    mech = Mechanism(MotionPolynomial([[0.0] * 8, [1, 0, 0, 0, 0, 0, 0, 0]]), AXIS_AT_T0)
    target = kinematics._Target(np.array([1.0, 0, 0, 0, 0, 0, 0, 0]))
    assert kinematics._refine(mech._polish, target, PSI_AT_T0) == (PSI_AT_T0, math.inf, 0, ())
    assert _eager_refine(mech._polish, target, PSI_AT_T0) == (PSI_AT_T0, math.inf, 0, ())


def test_polish_stops_at_the_slope_floor():
    # C(t) = 1 + t**2 i has a zero slope at t = 0, where the start lands
    # for a pose off the curve, so the polish has no direction to step in
    # and returns the start unpolished.  cos(pi/2) is not 0 in floats, but
    # at PSI_AT_T0 every term of the slope is a power-of-two multiple of
    # sin(psi)**2, so that it cancels exactly
    coeffs = np.zeros((3, 8))
    coeffs[0, 0] = coeffs[2, 1] = 1.0
    mech = Mechanism(MotionPolynomial(coeffs), AXIS_AT_T0)
    with pytest.raises(NoConvergence) as info:
        inverse_kinematics(mech, DualQuaternion([1, 0, 0.1, 0, 0, 0, 0, 0]))
    best = info.value.best
    assert best.theta == 2.0 * PSI_AT_T0 and best.iterations == 0 and best.branch == "direct"
    assert best.t == angle_to_param(best.theta, AXIS_AT_T0) and abs(best.t) <= 1e-15
    assert best.residual_trace == (best.residual,)


def test_success_tol_must_be_finite_and_non_negative():
    for bad in (math.nan, -1.0, math.inf):
        with pytest.raises(ValueError, match="success_tol"):
            IKOptions(success_tol=bad)
    assert IKOptions(success_tol=0.0).success_tol == 0.0


@pytest.mark.parametrize("fixture, theta", [("sixbar", 1.0), ("bennett", 1.351)])
def test_inverse_kinematics_at_any_float_scale(fixture, theta, request):
    # the named angle, the angles next to home on both sides and at pi,
    # and 150 seeded angles
    mech = request.getfixturevalue(fixture)
    thetas = [theta, 1e-8, math.pi, 2.0 * math.pi - 1e-8]
    thetas += list(np.random.default_rng(0).uniform(0.0, 2.0 * math.pi, size=150))
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        for theta in thetas:
            pose = direct_kinematics(mech, theta).coeffs
            base = inverse_kinematics(mech, DualQuaternion(pose)).theta
            for exponent in (-664, -40, 266, 664):
                # a power of two scales exactly: the same bits come back
                r = inverse_kinematics(mech, DualQuaternion(np.ldexp(pose, exponent)))
                assert r.theta == base, theta
            for scale in (1e-200, 1e-12, 1e80, 1e200):
                # a decimal scale rounds every coefficient once
                r = inverse_kinematics(mech, DualQuaternion(scale * pose))
                assert abs(r.theta - base) <= 2.0 * math.ulp(base), (theta, scale)


def test_theta_of_rounded_poses_does_not_depend_on_the_start_bits(bennett):
    # criterion 08's rounded Bennett poses lie off the motion; moving the
    # start of the polish by up to 20 ulp either way moves the polished
    # angle by at most 5e-12 rad (3.8e-12 on the pose at 0.331, 0 on the
    # pose at 5.893), since the polish stops on the length of its step
    for pose in (BENNETT_P1, BENNETT_P2):
        p8 = _binary_normalized(np.asarray(pose, dtype=float))
        target = kinematics._Target(p8)
        start = kinematics._global_start(bennett._ik_form, p8, bennett._axis)
        thetas = [
            2.0 * kinematics._refine(bennett._polish, target, start + k * math.ulp(start))[0]
            for k in range(-20, 21)
        ]
        assert max(_angle_gap(a, thetas[0]) for a in thetas) <= 5e-12
