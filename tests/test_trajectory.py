import dataclasses
import math
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from dqlink import (
    DualQuaternion,
    Mechanism,
    MotionPolynomial,
    PoleOnPath,
    QuadratureFailure,
    RationalPointPath,
    StudyViolation,
    _kernels,
    angle_to_param,
    arc_length,
    arc_length_between,
    direct_kinematics,
    equidistant_params,
    equidistant_profile,
    linear_profile,
    quintic_profile,
    quintic_time_scaling,
    resolve_arc,
    trajectory,
)

X_AXIS = np.array([0.0, 1.0, 0.0, 0.0])


@pytest.fixture(scope="module")
def circle_path():
    # rotation about the x-axis moves (0, 1, 0) on a unit circle, so the
    # arc length between two parameters is the exact angle difference
    return MotionPolynomial.from_axes([[0, 1, 0, 0, 0, 0, 0, 0]]).point_path(
        [0.0, 1.0, 0.0]
    )


def circle_angle(t: float) -> float:
    return 2.0 * math.atan2(1.0, t)


def test_arc_length_matches_circle(circle_path):
    for t0, t1 in ((0.0, 1.0), (-2.0, 3.0), (0.5, 0.5), (4.0, -4.0)):
        want = abs(circle_angle(t1) - circle_angle(t0))
        got = arc_length(circle_path, t0, t1)
        assert abs(got - want) <= 1e-9
    assert arc_length(circle_path, 0.3, 0.3) == 0.0


def test_arc_length_is_additive(circle_path, sixbar):
    path = sixbar.motion.point_path([0.0, 0.0, 0.0])
    tol = 1e-10
    for a, b, c in ((-1.0, 0.3, 1.732), (0.0, 0.5, 1.0)):
        whole = arc_length(path, a, c, tol=tol)
        parts = arc_length(path, a, b, tol=tol) + arc_length(path, b, c, tol=tol)
        assert abs(whole - parts) <= 2 * tol * (1 + abs(whole))


def test_arc_length_reports_poles():
    border = MotionPolynomial(
        np.array([[0, 0, 0, 0, 0, 0, 0, 1], [1, 0, 0, 0, 0, 0, 0, 0]], dtype=float)
    )
    path = border.point_path([0.0, 0.0, 0.0])
    with pytest.raises(PoleOnPath):
        arc_length(path, -1.0, 1.0)
    assert math.isfinite(arc_length(path, 1.0, 2.0))


def test_pole_check_is_unchanged_when_poles_are_kept():
    # x0 of t + eps*k is t**2: a double pole at t = 0, which the x axis
    # chart reaches at theta = pi; the second call reads the kept poles
    border = Mechanism(
        MotionPolynomial([[0, 0, 0, 0, 0, 0, 0, 1], [1, 0, 0, 0, 0, 0, 0, 0]]),
        [0, 1, 0, 0],
    )
    for _ in range(2):
        with pytest.raises(PoleOnPath):
            arc_length_between(border, 3.0, 3.3, tool=(0.1, 0, 0), direction="increasing")
    assert math.isfinite(arc_length_between(border, 0.5, 1.0, tool=(0.1, 0, 0)))
    assert border.motion.path_poles() is border.motion.path_poles()


def test_arc_length_quadrature_failure(monkeypatch, circle_path):
    monkeypatch.setattr(trajectory, "_MAX_DEPTH", 2)
    with pytest.raises(QuadratureFailure) as err:
        arc_length(circle_path, -3.0, 3.0, tol=1e-16)
    # plain floats, not numpy scalar reprs such as np.float64(0.5)
    assert re.search(r"panel \[-?[0-9.e+-]+, -?[0-9.e+-]+\] still above", str(err.value))
    assert "float64" not in str(err.value)


def test_gauss_legendre_rule_matches_leggauss():
    for order in (2, 5, trajectory._GL_ORDER, 20):
        nodes, weights = trajectory._gauss_legendre(order)
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(order)
        assert np.allclose(nodes, 0.5 * (ref_nodes + 1.0), rtol=0.0, atol=1e-15)
        assert np.allclose(weights, 0.5 * ref_weights, rtol=1e-13, atol=0.0)


def test_equidistant_params_circle(circle_path):
    seg = equidistant_params(circle_path, 0.0, 1.0, 4, driving_axis=X_AXIS)
    assert len(seg.params) == 5
    assert seg.params[0] == 0.0 and seg.params[-1] == 1.0
    assert math.isclose(seg.total_length, math.pi / 2, rel_tol=1e-9)
    # equal path steps on a circle are equal angle steps
    want = [math.pi - i * (math.pi / 8) for i in range(5)]
    assert np.allclose(seg.angles, want, atol=1e-8)


def test_equidistant_params_segments_are_equal(sixbar):
    path = sixbar.motion.point_path([0.0, 0.0, 0.0])
    seg = equidistant_params(path, -1.0, 1.732, 8)
    assert seg.angles is None
    lengths = [
        arc_length(path, a, b) for a, b in zip(seg.params, seg.params[1:])
    ]
    assert max(abs(l - seg.segment_length) for l in lengths) <= 1e-8 * seg.segment_length
    assert math.isclose(sum(lengths), seg.total_length, rel_tol=1e-9)


def test_equidistant_params_validation(circle_path):
    with pytest.raises(ValueError):
        equidistant_params(circle_path, 0.0, 1.0, 0)
    one = equidistant_params(circle_path, 0.0, 1.0, 1)
    assert one.params == (0.0, 1.0)


def test_equidistant_params_segment_count_is_an_integer(circle_path):
    # a float, a string or infinity is not a segment count; numpy
    # integers are
    for bad in (2.7, 3.0, "3", math.inf, None):
        with pytest.raises(TypeError):
            equidistant_params(circle_path, 0.0, 1.0, bad)
    for bad in (0, -2, np.int64(0)):
        with pytest.raises(ValueError, match="at least one segment"):
            equidistant_params(circle_path, 0.0, 1.0, bad)
    seg = equidistant_params(circle_path, 0.0, 1.0, np.int32(3))
    assert seg.params == equidistant_params(circle_path, 0.0, 1.0, 3).params


def test_resolve_arc_directions():
    th0, th1 = math.pi / 3, 1.5 * math.pi
    inc = th1 - th0
    assert math.isclose(resolve_arc(th0, th1, "increasing"), inc)
    assert math.isclose(resolve_arc(th0, th1, "decreasing"), inc - 2 * math.pi)
    # the increasing span exceeds pi, so short goes the other way
    assert math.isclose(resolve_arc(th0, th1, "short"), inc - 2 * math.pi)
    assert math.isclose(resolve_arc(th0, th1, "long"), inc)
    assert resolve_arc(1.0, 1.0, "long") == 0.0
    assert math.isclose(resolve_arc(0.2, 0.1, "short"), -0.1)
    # half-turn tie breaks increasing for short, decreasing for long
    assert resolve_arc(0.0, math.pi, "short") == math.pi
    assert resolve_arc(0.0, math.pi, "long") == -math.pi
    with pytest.raises(ValueError):
        resolve_arc(0.0, 1.0, "widdershins")


def test_arc_length_between_finite_chart(sixbar):
    got = arc_length_between(sixbar, math.pi / 3, 1.5 * math.pi, direction="increasing")
    path = sixbar.motion.point_path([0.0, 0.0, 0.0])
    assert math.isclose(got, arc_length(path, 1.732050807568877, -1.0), rel_tol=1e-9)


def test_arc_length_between_through_home(sixbar):
    # the short arc from pi/3 to 3*pi/2 passes the home angle zero where
    # the finite chart degenerates; both orders must agree
    fwd = arc_length_between(sixbar, math.pi / 3, 1.5 * math.pi, direction="short")
    rev = arc_length_between(sixbar, 1.5 * math.pi, math.pi / 3, direction="short")
    assert math.isfinite(fwd) and fwd > 0.0
    assert math.isclose(fwd, rev, rel_tol=1e-9)
    assert math.isclose(fwd, 7.130392891462511, rel_tol=1e-6)


def test_arc_length_between_bennett_regressions(bennett):
    same = arc_length_between(bennett, 0.331, 0.331)
    assert same == 0.0
    long_id = arc_length_between(bennett, 0.331, 5.893, direction="long")
    long_shift = arc_length_between(
        bennett, 0.331, 5.893, tool=(0.0, -0.170, 0.0), direction="long"
    )
    assert math.isclose(long_id, 0.9497361336107449, rel_tol=1e-6)
    assert math.isclose(long_shift, 1.0422461764487017, rel_tol=1e-6)
    short = arc_length_between(bennett, 5.893, 0.331, direction="short")
    assert math.isclose(short, 0.21315329917238088, rel_tol=1e-6)


def test_linear_profile_shape():
    prof = linear_profile(0.0, 1.0, duration=2.0, frequency=5.0)
    assert prof.times.shape == (11,)
    assert np.allclose(prof.times, np.arange(11) / 5.0)
    assert np.allclose(prof.thetas, np.linspace(0.0, 1.0, 11), atol=1e-15)
    assert np.allclose(prof.omegas, 0.5)
    assert prof.mode == "linear"
    assert prof.duration == 2.0 and prof.frequency == 5.0
    with pytest.raises(ValueError):
        prof.thetas[0] = 3.0


def test_linear_profile_direction():
    prof = linear_profile(0.2, 0.1, duration=1.0, frequency=10.0, direction="increasing")
    assert prof.thetas[-1] > prof.thetas[0]
    assert math.isclose(prof.thetas[-1], 0.1 + 2 * math.pi)


def test_profile_argument_validation(bennett):
    with pytest.raises(ValueError):
        linear_profile(0.0, 1.0, duration=0.0, frequency=10.0)
    with pytest.raises(ValueError):
        linear_profile(0.0, 1.0, duration=1.0, frequency=-1.0)
    with pytest.raises(ValueError):
        linear_profile(0.0, 1.0, duration=0.01, frequency=10.0)
    # non-finite inputs fail loudly instead of sampling NaN or overflowing
    profiles = (
        linear_profile,
        quintic_profile,
        lambda *args: equidistant_profile(bennett, *args),
    )
    good = dict(theta0=0.3, theta1=1.0, duration=1.0, frequency=10.0)
    for name in good:
        for bad in (math.nan, math.inf, -math.inf):
            args = dict(good, **{name: bad})
            for profile in profiles:
                with pytest.raises(ValueError, match="%s must be .*finite" % name):
                    profile(*args.values())
    with pytest.raises(ValueError, match=r"duration\*frequency must be .*finite"):
        linear_profile(0.0, 1.0, duration=1e300, frequency=1e300)
    for theta0, theta1, name in ((math.nan, 1.0, "theta0"), (0.0, math.inf, "theta1")):
        with pytest.raises(ValueError, match="%s must be finite" % name):
            resolve_arc(theta0, theta1)
        with pytest.raises(ValueError, match="%s must be finite" % name):
            arc_length_between(bennett, theta0, theta1)


def test_profile_sample_count_is_capped(monkeypatch, bennett):
    profiles = (
        linear_profile,
        quintic_profile,
        lambda *args: equidistant_profile(bennett, *args),
    )
    # 1e18 steps would need exabytes; the cap raises before any array
    for profile in profiles:
        with pytest.raises(ValueError, match=r"duration\*frequency must round to at most"):
            profile(0.1, 1.0, 1e9, 1e9)
    monkeypatch.setattr(trajectory, "_MAX_SAMPLES", 10)
    for profile in profiles:
        assert len(profile(0.1, 1.0, 1.0, 10.0).thetas) == 11
        assert len(profile(0.1, 1.0, 1.0, 10.4).thetas) == 11
        with pytest.raises(ValueError, match=r"duration\*frequency .* 10 steps"):
            profile(0.1, 1.0, 1.0, 10.6)


def test_omegas_are_forward_differences():
    prof = quintic_profile(0.0, 2.0, duration=1.0, frequency=8.0)
    n = len(prof.thetas) - 1
    fd = np.diff(prof.thetas) * prof.frequency
    assert np.array_equal(prof.omegas[:n], fd)
    assert prof.omegas[n] == prof.omegas[n - 1]


def test_quintic_time_scaling_boundaries():
    s = quintic_time_scaling(0.5, -1.25, 4.0)
    th0, om0 = s(0.0)
    th1, om1 = s(4.0)
    assert th0 == 0.5 and th1 == -1.25
    assert om0 == 0.0 and om1 == 0.0
    # clamped outside the time window
    assert s(-1.0) == (0.5, 0.0)
    assert s(9.0) == (-1.25, 0.0)
    # peak speed at half time
    th, om = s(2.0)
    assert math.isclose(abs(om), 15.0 * 1.75 / (8.0 * 4.0), rel_tol=1e-15)
    assert math.isclose(th, 0.5 * (0.5 - 1.25), rel_tol=1e-12)
    with pytest.raises(ValueError):
        quintic_time_scaling(0.0, 1.0, 0.0)


def test_quintic_profile_samples_time_scaling():
    for theta0, theta1, direction in ((0.331, 5.893, "long"), (2.0, -1.0, "short")):
        prof = quintic_profile(theta0, theta1, duration=1.3, frequency=7.0, direction=direction)
        end = theta0 + resolve_arc(theta0, theta1, direction)
        s = quintic_time_scaling(theta0, end, 1.3)
        want = [s(i / 7.0)[0] for i in range(len(prof.thetas))]
        assert prof.thetas.tolist() == want


def test_quintic_time_scaling_velocity_consistency():
    s = quintic_time_scaling(0.0, 3.0, 2.0)
    h = 1e-6
    for time in (0.3, 0.9, 1.7):
        fd = (s(time + h)[0] - s(time - h)[0]) / (2 * h)
        assert math.isclose(s(time)[1], fd, rel_tol=1e-7)


def test_quintic_profile_rest_to_rest():
    prof = quintic_profile(0.331, 5.893, duration=4.0, frequency=20.0, direction="long")
    assert len(prof.thetas) == 81
    assert prof.thetas[0] == 0.331
    assert math.isclose(prof.thetas[-1], 5.893, rel_tol=1e-12)
    assert abs(prof.omegas[0]) < 0.01
    assert np.all(np.diff(prof.thetas) >= 0.0)
    assert prof.mode == "quintic"


def test_equidistant_profile_covers_arc(sixbar):
    prof = equidistant_profile(
        sixbar, math.pi / 3, 1.5 * math.pi, duration=1.0, frequency=10.0,
        direction="increasing",
    )
    assert len(prof.thetas) == 11
    assert prof.thetas[0] == math.pi / 3
    assert math.isclose(prof.thetas[-1], 1.5 * math.pi, rel_tol=1e-12)
    assert np.all(np.diff(prof.thetas) > 0.0)
    # every sampling step covers the same tool path length
    lengths = [
        arc_length_between(sixbar, a, b, direction="increasing")
        for a, b in zip(prof.thetas, prof.thetas[1:])
    ]
    seg = sum(lengths) / len(lengths)
    assert max(abs(l - seg) for l in lengths) <= 1e-6 * seg
    assert prof.mode == "equidistant"


def test_equidistant_profile_through_home(bennett):
    prof = equidistant_profile(
        bennett, 0.331, 5.893, duration=1.0, frequency=10.0, direction="short"
    )
    # short arc runs backwards through zero; angles stay continuous
    assert np.all(np.diff(prof.thetas) < 0.0)
    assert math.isclose(prof.thetas[-1], 5.893 - 2 * math.pi, rel_tol=1e-9)
    assert np.max(np.abs(np.diff(prof.thetas))) < 0.5


def test_equidistant_profile_blend_eases_ends(bennett):
    sharp = equidistant_profile(
        bennett, 0.331, 5.893, duration=4.0, frequency=20.0, direction="long"
    )
    eased = equidistant_profile(
        bennett, 0.331, 5.893, duration=4.0, frequency=20.0, direction="long",
        blend=True,
    )
    assert abs(eased.omegas[0]) < 0.25 * abs(sharp.omegas[0])
    assert abs(eased.omegas[-1]) < 0.25 * abs(sharp.omegas[-1])
    assert math.isclose(eased.thetas[-1], sharp.thetas[-1], rel_tol=1e-9)
    # interior samples still sweep the same arc monotonically
    assert np.all(np.diff(eased.thetas) > 0.0)


def test_equidistant_profile_zero_travel(bennett):
    prof = equidistant_profile(bennett, 0.7, 0.7, duration=1.0, frequency=5.0)
    assert np.all(prof.thetas == 0.7)
    assert np.all(prof.omegas == 0.0)


def test_profile_samples_are_python_floats():
    prof = linear_profile(0.0, 1.0, duration=1.0, frequency=4.0)
    rows = prof.samples
    assert len(rows) == 5
    assert all(isinstance(v, float) for row in rows for v in row)
    assert rows[0] == (0.0, 0.0, 1.0)


# Independent references: tool positions from direct kinematics and the
# point action, measured as dense polylines.  These helpers share no code
# with dqlink.trajectory.


def dk_points(mech, thetas, tool):
    """Tool point positions at an array of joint angles."""
    tool = np.asarray(tool, dtype=float)
    flat = [direct_kinematics(mech, th).act_on_point(tool) for th in np.ravel(thetas)]
    return np.reshape(flat, np.shape(thetas) + (3,))


def polyline_length(points):
    """Length of curves sampled at 4m+1 uniform parameters, shape (..., 4m+1, 3).

    The polyline error is a series in h**2, h**4, ...; the polylines
    through every, every second and every fourth point cancel the first
    two terms (Richardson extrapolation).
    """
    l1, l2, l4 = (
        np.linalg.norm(np.diff(points[..., ::step, :], axis=-2), axis=-1).sum(axis=-1)
        for step in (1, 2, 4)
    )
    fine = (4.0 * l1 - l2) / 3.0
    coarse = (4.0 * l2 - l4) / 3.0
    return (16.0 * fine - coarse) / 15.0


def dk_arc_length(mech, theta0, theta1, tool, segments=256):
    return float(polyline_length(dk_points(mech, np.linspace(theta0, theta1, segments + 1), tool)))


def dk_step_lengths(mech, thetas, tool, segments=64):
    u = np.linspace(0.0, 1.0, segments + 1)
    grid = thetas[:-1, None] + np.diff(thetas)[:, None] * u
    return polyline_length(dk_points(mech, grid, tool))


def eased_fractions(n, ramp=0.1):
    """Travelled fraction after each of n blended steps: the slope rises
    along a cubic smoothstep over the first and last ramp of the time."""
    u = np.arange(n + 1) / n
    m = 1.0 / (1.0 - ramp)

    def ramp_area(x):
        v = x / ramp
        return m * ramp * (v**3 - 0.5 * v**4)

    mid = m * (0.5 * ramp + (u - ramp))
    return np.where(u < ramp, ramp_area(u), np.where(u > 1.0 - ramp, 1.0 - ramp_area(1.0 - u), mid))


@pytest.fixture(scope="module")
def linkages(random_linkage):
    rng = np.random.default_rng(7)
    return [(random_linkage(rng, joints), rng.normal(scale=0.5, size=3)) for joints in (2, 2, 3, 3)]


def test_arc_length_between_matches_dk_polyline(bennett):
    # an adaptive Simpson quadrature returned 0.16247137 here, 2.4e-6 too long
    tool = (-0.17632591, 0.18548502, 0.0531379)
    got = arc_length_between(bennett, 1.935554, 0.958624, tool=tool, direction="decreasing")
    want = dk_arc_length(bennett, 1.935554, 0.958624, tool)
    assert abs(got - want) <= 1e-10 * want


def test_arc_length_is_additive_across_home(linkages):
    rng = np.random.default_rng(11)
    for mech, tool in linkages:
        before, after = rng.uniform(0.2, 2.5, size=2)
        whole = arc_length_between(mech, -before, after, tool=tool, direction="increasing")
        at_home = arc_length_between(
            mech, -before, 0.0, tool=tool, direction="increasing"
        ) + arc_length_between(mech, 0.0, after, tool=tool, direction="increasing")
        mid = 0.5 * (after - before)
        halves = arc_length_between(
            mech, -before, mid, tool=tool, direction="increasing"
        ) + arc_length_between(mech, mid, after, tool=tool, direction="increasing")
        assert abs(at_home - whole) <= 1e-9 * whole
        assert abs(halves - whole) <= 1e-9 * whole
        assert abs(whole - dk_arc_length(mech, -before, after, tool)) <= 1e-7 * whole


def test_profile_steps_match_dk_polyline(linkages):
    rng = np.random.default_rng(12)
    for mech, tool in linkages:
        theta0, theta1 = rng.uniform(0.0, 2 * math.pi, size=2)
        for blend in (False, True):
            prof = equidistant_profile(
                mech, theta0, theta1, duration=2.0, frequency=10.0, tool=tool,
                direction="long", blend=blend,
            )
            steps = dk_step_lengths(mech, prof.thetas, tool)
            want = steps.sum() * np.diff(eased_fractions(20) if blend else np.arange(21) / 20)
            assert np.max(np.abs(steps - want)) <= 1e-6 * np.mean(steps)


def test_angle_chart_agrees_with_t_chart(linkages):
    rng = np.random.default_rng(13)
    for mech, tool in linkages:
        path = mech.motion.point_path(mech.tool_home.act_on_point(tool))
        theta0, theta1 = np.sort(rng.uniform(0.3, 2 * math.pi - 0.3, size=2))
        by_angle = arc_length_between(mech, theta0, theta1, tool=tool, direction="increasing")
        t0 = angle_to_param(theta0, mech.driving_axis)
        t1 = angle_to_param(theta1, mech.driving_axis)
        assert abs(arc_length(path, t0, t1) - by_angle) <= 1e-9 * by_angle


def test_knot_blocks_bound_memory_and_keep_the_knots(monkeypatch, sixbar):
    # the Newton pass takes the knots in fixed blocks, so its memory does
    # not grow with the sample count; the block size moves the knots by
    # no more than the rounding of the batched speed evaluations
    args = (sixbar, 0.331, 5.893, 1.0)
    equidistant_profile(*args, frequency=10.0)
    tracemalloc.start()
    try:
        big = equidistant_profile(*args, frequency=2e4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert big.thetas.size == 20001
    assert peak <= 16e6
    whole = equidistant_profile(*args, frequency=40.0, blend=True).thetas
    monkeypatch.setattr(trajectory, "_KNOT_BLOCK", 3)
    blocked = equidistant_profile(*args, frequency=40.0, blend=True).thetas
    assert np.max(np.abs(blocked - whole)) <= 1e-12


def test_inversion_raises_when_capped(monkeypatch, bennett, circle_path):
    monkeypatch.setattr(trajectory, "_INVERSION_MAX_ITER", 1)
    with pytest.raises(QuadratureFailure):
        equidistant_profile(bennett, 0.331, 5.893, duration=4.0, frequency=20.0, direction="long")
    with pytest.raises(QuadratureFailure):
        equidistant_params(circle_path, -2.0, 3.0, 16)


def reference_speed(coords, x, axis=None):
    """|dP/dx| from homogeneous coordinates X(a, s) = sum_k c_k a**k s**(D-k).

    coords holds ascending coefficients of x0..x3 as columns.  Without
    an axis x is the curve parameter, (a : s) = (x : 1); with an axis
    (q0, r) x is the joint angle, (a : s) = (r*cos(x/2) + q0*sin(x/2) :
    sin(x/2)).
    """
    deg = coords.shape[0] - 1
    if axis is None:
        a, s, da, ds = x, 1.0, 1.0, 0.0
    else:
        q0, r = axis
        c, sn = math.cos(0.5 * x), math.sin(0.5 * x)
        a, s, da, ds = r * c + q0 * sn, sn, 0.5 * (q0 * c - r * sn), 0.5 * c
    hom, dhom = 0.0, 0.0
    for k in range(deg + 1):
        hom = hom + coords[k] * a**k * s ** (deg - k)
        by_a = k * a ** max(k - 1, 0) * s ** (deg - k)
        by_s = (deg - k) * a**k * s ** max(deg - k - 1, 0)
        dhom = dhom + coords[k] * (by_a * da + by_s * ds)
    num = dhom[1:] * hom[0] - hom[1:] * dhom[0]
    return math.sqrt(num @ num) / hom[0] ** 2


def assert_speeds(speed, xs, coords, axis=None):
    want = [reference_speed(coords, x, axis) for x in xs]
    assert np.allclose(speed(xs), want, rtol=1e-12, atol=0.0)


def test_trig_speed_matches_homogeneous_evaluation(random_linkage):
    rng = np.random.default_rng(21)
    for joints in (2, 3, 4):
        mech = random_linkage(rng, joints)
        axis = (mech.driving_axis[0], np.linalg.norm(mech.driving_axis[1:]))
        maps, action, _ = trajectory._angle_chart(mech)
        for _ in range(3):
            tool = rng.normal(scale=0.5, size=3)
            acted = action[0] + (tool @ action[1:].reshape(3, -1)).reshape(action.shape[1:])
            path = mech.motion.point_path(mech.tool_home.act_on_point(tool))
            coords = np.column_stack([path.x0, path.xi.T])
            phi = rng.uniform(-2 * math.pi, 2 * math.pi, size=40)
            speed = trajectory._Speed(maps, acted[:, [0, 5, 6, 7]], 0.0, 1.0)
            assert_speeds(speed, phi, coords, axis)
            assert_speeds(path.speed, rng.uniform(-3.0, 3.0, size=40), coords)
    # an odd degree, which no motion produces, takes the odd harmonics
    path = RationalPointPath([2.0, 0.0, 1.0, 0.1], rng.normal(size=(3, 4)))
    coords = np.column_stack([path.x0, path.xi.T])
    t = rng.uniform(-3.0, 3.0, size=40)
    for axis in ((0.0, 1.0), (0.3, 0.8)):
        speed = trajectory._Speed(trajectory._harmonic_map(3, *axis), coords, 0.0, 1.0)
        assert_speeds(speed, 2.0 * np.arctan2(axis[1], t - axis[0]), coords, axis)
    assert_speeds(path.speed, t, coords)


def test_pole_at_home_when_x0_drops_degree():
    # C = 1 + t*eps*k translates along z without turning: x0 = 1 has
    # degree 0 in the quadratic chart, so the point runs off at home
    slide = Mechanism(
        MotionPolynomial([[1, 0, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, 0, 1]]),
        [0, 1, 0, 0],
    )
    tool = (0.3, 0.0, 0.0)
    for theta0, theta1 in ((-0.5, 0.5), (0.0, 1.0), (6.0, 0.2)):
        with pytest.raises(PoleOnPath):
            arc_length_between(slide, theta0, theta1, tool=tool, direction="increasing")
    # the point moves by 2 per unit of t = 1/tan(theta/2)
    want = 2.0 * (1.0 / math.tan(0.25) - 1.0 / math.tan(0.5))
    assert math.isclose(arc_length_between(slide, 0.5, 1.0, tool=tool), want, rel_tol=1e-12)


def test_tool_path_chart_is_built_once_and_read_only(monkeypatch, random_linkage):
    mech = random_linkage(np.random.default_rng(22), 3)
    assert mech._chart is None
    first = arc_length_between(mech, 0.4, 2.0, tool=(0.1, 0.2, 0.3))
    chart = mech._chart
    for arr in chart:
        assert not arr.flags.writeable
    calls = []
    mul = _kernels.dq_mul8
    monkeypatch.setattr(_kernels, "dq_mul8", lambda a, b: calls.append(1) or mul(a, b))
    second = arc_length_between(mech, 0.4, 2.0, tool=(-0.3, 0.0, 0.5))
    equidistant_profile(mech, 0.4, 2.0, duration=1.0, frequency=5.0, tool=(0.2, 0.0, 0.0))
    assert calls == []
    assert mech._chart is chart
    assert first != second
    # a mechanism made from it builds its own chart
    shifted = DualQuaternion.from_translation([0.1, 0.2, 0.3])
    assert dataclasses.replace(mech, tool_home=shifted)._chart is None


def test_point_check_reaches_arc_length_between(monkeypatch, random_linkage):
    # a negative study_tol turns every acted point into a violation, so
    # both point_path and the angle chart must report it
    mech = random_linkage(np.random.default_rng(23), 2)
    monkeypatch.setattr(mech.motion, "_study_tol", -1.0)
    with pytest.raises(StudyViolation, match="non-point components"):
        mech.motion.point_path([0.1, 0.2, 0.3])
    with pytest.raises(StudyViolation, match="non-point components"):
        arc_length_between(mech, 0.4, 2.0, tool=(0.1, 0.2, 0.3))
    with pytest.raises(StudyViolation, match="non-point components"):
        equidistant_profile(mech, 0.4, 2.0, duration=1.0, frequency=5.0)
    # the same check rejects a tool point that is not finite
    with pytest.raises(ValueError, match="finite"):
        arc_length_between(mech, 0.4, 2.0, tool=(math.nan, 0.0, 0.0))


def test_arc_length_rejects_non_finite_parameters(circle_path):
    cases = ((math.nan, 1.0, "t0"), (0.0, math.inf, "t1"), (-1e308, 1e308, "t1 - t0"))
    for t0, t1, name in cases:
        with pytest.raises(ValueError, match="%s must be finite" % re.escape(name)):
            arc_length(circle_path, t0, t1)
        with pytest.raises(ValueError, match="%s must be finite" % re.escape(name)):
            equidistant_params(circle_path, t0, t1, 4)


def test_quintic_time_scaling_rejects_non_finite_arguments():
    cases = (
        ((0.0, 1.0, math.nan), "duration"),
        ((0.0, math.inf, 1.0), "theta_end"),
        ((-math.inf, 1.0, 1.0), "theta_start"),
        ((-1e308, 1e308, 1.0), "theta_end - theta_start"),
    )
    for args, name in cases:
        with pytest.raises(ValueError, match="%s must be finite" % re.escape(name)):
            quintic_time_scaling(*args)


def test_import_and_arc_leave_numpy_fft_and_polynomial_unloaded(tmp_path):
    # either module would add to the import time of every CLI call; numpy
    # releases before 2.0 load both on their own import
    src = pathlib.Path(trajectory.__file__).resolve().parents[1]
    code = (
        "import sys, numpy\n"
        "before = set(sys.modules)\n"
        "import dqlink\n"
        "m = dqlink.load_mechanism(%r)\n"
        "dqlink.arc_length_between(m, 0.3, 2.0, tool=(0.1, 0.0, 0.0))\n"
        "new = set(sys.modules) - before\n"
        "print(sorted(k for k in new if k.startswith(('numpy.fft', 'numpy.polynomial'))))\n"
    ) % str(pathlib.Path(__file__).parent / "data" / "sixbar.mech")
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)),
        cwd=tmp_path,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"
