import collections
import dataclasses
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from dqlink import (
    DualQuaternion,
    Mechanism,
    MotionPolynomial,
    PoleOnPath,
    QuadratureFailure,
    RationalPointPath,
    TrajectoryProfile,
    _kernels,
    angle_to_param,
    arc_length,
    arc_length_between,
    direct_kinematics,
    equidistant_params,
    equidistant_profile,
    kinematics,
    linear_profile,
    param_to_angle,
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
    # x0 = t**2 - 1 vanishes at t = -1 and 1: the arc over [0.5, 2] holds
    # the pole at 1, and the arc over [-0.5, 0.5] holds none
    path = RationalPointPath([-1.0, 0.0, 1.0], np.eye(3))
    with pytest.raises(PoleOnPath):
        arc_length(path, 0.5, 2.0)
    assert math.isfinite(arc_length(path, -0.5, 0.5))


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


def test_arc_length_quadrature_failure(monkeypatch):
    # the circle has constant speed in the chart angle, where Gauss is
    # exact; the path of t + eps*k bends towards its pole at t = 0
    border = MotionPolynomial(
        np.array([[0, 0, 0, 0, 0, 0, 0, 1], [1, 0, 0, 0, 0, 0, 0, 0]], dtype=float)
    )
    monkeypatch.setattr(trajectory, "_MAX_DEPTH", 2)
    with pytest.raises(QuadratureFailure) as err:
        arc_length(border.point_path([0.0, 0.0, 0.0]), 0.1, 1.0, tol=1e-16)
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


def test_equidistant_params_validate_the_axis_once(monkeypatch, circle_path):
    # one validation per call, and per knot the angle of param_to_angle
    # to the bit
    calls = []
    parts = trajectory._axis_parts
    for module in (trajectory, kinematics):
        monkeypatch.setattr(module, "_axis_parts", lambda axis: calls.append(1) or parts(axis))
    seg = equidistant_params(circle_path, -2.0, 3.0, 16, driving_axis=X_AXIS)
    assert len(calls) == 1
    assert seg.angles == tuple(param_to_angle(p, X_AXIS) for p in seg.params)
    for bad in ([1.0, 0.0, 0.0, 0.0], [0.0, math.nan, 0.0, 1.0], [0.0, 1.0]):
        with pytest.raises(ValueError, match="driving axis"):
            equidistant_params(circle_path, -2.0, 3.0, 16, driving_axis=bad)


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


def test_equidistant_params_segment_count_is_capped(monkeypatch, circle_path):
    # the profiles' bound on steps holds here too, checked before any
    # array of that size exists
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="at most %d segments" % trajectory._MAX_SAMPLES):
            equidistant_params(circle_path, 0.0, 1.0, trajectory._MAX_SAMPLES + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1e5
    monkeypatch.setattr(trajectory, "_MAX_SAMPLES", 10)
    assert len(equidistant_params(circle_path, 0.0, 1.0, 10).params) == 11
    with pytest.raises(ValueError, match="at most 10 segments, got 11"):
        equidistant_params(circle_path, 0.0, 1.0, 11)


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
    # the last pair is finite, but its difference overflows; it once gave
    # NaN angles
    for theta0, theta1, name in (
        (math.nan, 1.0, "theta0"), (0.0, math.inf, "theta1"), (1e308, -1e308, "theta1 - theta0")
    ):
        with pytest.raises(ValueError, match="%s must be finite" % name):
            resolve_arc(theta0, theta1)
        with pytest.raises(ValueError, match="%s must be finite" % name):
            arc_length_between(bennett, theta0, theta1)
    for profile in profiles:
        with pytest.raises(ValueError, match="theta1 - theta0 must be finite"):
            profile(1e308, -1e308, 1.0, 2.0)


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


def test_profile_duration_is_the_span_of_its_samples(bennett):
    # the samples cover n = round(T*f) steps of 1/f, so the duration is
    # n/f, the last timestamp; an integral T*f keeps T to the bit, as for
    # the criterion 09 profile and a 0.5 s sweep at 10 Hz
    profiles = (
        linear_profile,
        quintic_profile,
        lambda *args: equidistant_profile(bennett, *args),
    )
    cases = ((1.0, 10.6, 11), (1.0, 10.4, 10), (4.0, 20.0, 80), (0.5, 10.0, 5))
    for profile in profiles:
        for duration, frequency, n in cases:
            prof = profile(0.331, 5.893, duration, frequency)
            assert prof.times.size == n + 1
            assert prof.duration == prof.times[-1] == n / frequency
            if duration * frequency == n:
                assert prof.duration == duration


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
    # the sweep lasts the n = round(T*f) sampling steps, n/f seconds, so
    # it ends at theta1 also when T*f is not an integer; the sample
    # fractions i/n and (i/f)/(n/f) differ in the last bits, which the
    # quintic amplifies by a few ulp of the travel
    cases = (
        (0.331, 5.893, "long", 1.3, 7.0),
        (2.0, -1.0, "short", 1.3, 7.0),
        (0.0, 1.0, "increasing", 1.0, 10.4),
    )
    for theta0, theta1, direction, duration, frequency in cases:
        prof = quintic_profile(theta0, theta1, duration, frequency, direction)
        n = len(prof.thetas) - 1
        assert n == round(duration * frequency)
        delta = resolve_arc(theta0, theta1, direction)
        s = quintic_time_scaling(theta0, theta0 + delta, n / frequency)
        want = np.array([s(i / frequency)[0] for i in range(n + 1)])
        bound = 1e-14 * (abs(theta0) + abs(delta))
        assert np.max(np.abs(prof.thetas - want)) <= bound
        assert prof.thetas[-1] == theta0 + delta


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
    # the first guesses meet the knot tolerance in one pass, so the cap is
    # reached with a tolerance that no single pass can meet
    monkeypatch.setattr(trajectory, "_INVERSION_MAX_ITER", 1)
    monkeypatch.setattr(trajectory, "_KNOT_TOL", 1e-300)
    with pytest.raises(QuadratureFailure, match="after 1 iterations"):
        equidistant_profile(bennett, 0.331, 5.893, duration=4.0, frequency=20.0, direction="long")
    with pytest.raises(QuadratureFailure, match="after 1 iterations"):
        equidistant_params(circle_path, -2.0, 3.0, 16)


# the criterion 09 profile and a blended sixbar one, as fixture name,
# positional and keyword arguments of equidistant_profile, and the most
# speed nodes each may take
GUESSED_PROFILES = [
    ("bennett", (0.331, 5.893, 4.0, 20.0), dict(direction="long"), 1567),
    ("sixbar", (0.331, 5.893, 1.0, 40.0), dict(blend=True), 579),
]


@pytest.fixture
def speed_calls(monkeypatch):
    """Node counts of the _Speed calls made while the test runs."""
    sizes = []
    call = trajectory._Speed.__call__

    def counted(self, offsets):
        sizes.append(offsets.size)
        return call(self, offsets)

    monkeypatch.setattr(trajectory._Speed, "__call__", counted)
    return sizes


@pytest.mark.parametrize(
    "name, args, kwargs, most_nodes", GUESSED_PROFILES, ids=["crit09", "sixbar-blend"]
)
def test_knot_guesses_leave_one_newton_pass(speed_calls, request, name, args, kwargs, most_nodes):
    # one call builds the length table and one checks every knot: the
    # interpolant's guesses already meet the knot tolerance (4 and 5
    # calls, 3,608 and 1,970 nodes, from the linear guesses)
    equidistant_profile(request.getfixturevalue(name), *args, **kwargs)
    assert len(speed_calls) <= 2
    assert sum(speed_calls) <= most_nodes


# the sixbar arc near phi = pi whose table refines twice, and a Bennett
# arc whose table has one level
SIXBAR_TWICE = ("sixbar", (2.9, 3.4), dict(tool=(0.15, 0.15, -0.1), direction="short"))
BENNETT_SHORT = ("bennett", (5.893, 0.331), dict(direction="short"))

# the Bennett arcs of the arc length regressions and the sixbar's finite
# chart arc and twice refined arc, as fixture name, positional and
# keyword arguments of arc_length_between, and the node count of each
# speed call it makes
ARC_BUDGETS = [
    ("bennett", (0.331, 5.893), dict(direction="long"), [540]),
    ("bennett", (0.331, 5.893), dict(tool=(0.0, -0.170, 0.0), direction="long"), [540]),
    BENNETT_SHORT + ([72],),
    ("sixbar", (math.pi / 3, 1.5 * math.pi), dict(direction="increasing"), [360, 48]),
    SIXBAR_TWICE + ([72, 48, 48],),
]


@pytest.mark.parametrize(
    "name, args, kwargs, calls",
    ARC_BUDGETS,
    ids=[
        "bennett-long", "bennett-long-tool", "bennett-short", "sixbar-increasing",
        "sixbar-twice",
    ],
)
def test_arc_length_call_and_node_budget(speed_calls, request, name, args, kwargs, calls):
    # the first level is one call of 36 nodes per panel of _ANGLE_PANEL,
    # the panel's own 12 and those of its halves; a later level is one
    # call of the 24 nodes of the halves of each open panel
    arc_length_between(request.getfixturevalue(name), *args, **kwargs)
    span = abs(resolve_arc(*args, kwargs["direction"]))
    assert speed_calls[0] == 36 * math.ceil(span / trajectory._ANGLE_PANEL)
    assert all(size % 24 == 0 for size in speed_calls[1:])
    assert speed_calls == calls


# the sixbar length is its own output; the Bennett one is the mpmath
# value of tests/data/joint_arc_references.json, 0.2131532991704260162
@pytest.mark.parametrize(
    "name, args, kwargs, levels, length",
    [SIXBAR_TWICE + (3, 0.13055403039748303), BENNETT_SHORT + (1, 0.21315329917042602)],
    ids=["sixbar-twice", "bennett-short"],
)
def test_arc_length_reads_only_the_total(
    monkeypatch, request, name, args, kwargs, levels, length
):
    # an arc length sums the kept halves of every level once; it reads
    # neither the node speeds nor a column that only knots need
    def refuse(self):
        raise AssertionError("arc length read a column of its table")

    monkeypatch.setattr(trajectory._Table, "_columns", property(refuse))
    tables = []
    build = trajectory._angle_table

    def kept(*a):
        tables.append(build(*a))
        return tables[-1]

    monkeypatch.setattr(trajectory, "_angle_table", kept)
    got = arc_length_between(request.getfixturevalue(name), *args, **kwargs)
    assert got == tables[0].total
    assert len(tables[0]._levels) == levels
    assert math.isclose(got, length, rel_tol=1e-14)


@pytest.mark.parametrize("name", ["sixbar", "bennett"])
@pytest.mark.parametrize("sign", [-1.0, 1.0], ids=["decreasing", "increasing"])
def test_first_level_holds_sixteen_panels(speed_calls, request, name, sign):
    # the long arc between angles 1e-9 apart spans just under 2*pi, the
    # most the first level's template holds: 16 panels of 36 nodes, which
    # add up to the arc's two parts
    mech = request.getfixturevalue(name)
    theta = 1.0
    end = theta - sign * 1e-9
    assert math.copysign(1.0, resolve_arc(theta, end, "long")) == sign
    whole = arc_length_between(mech, theta, end, direction="long")
    assert speed_calls[0] == 16 * 36
    mid = theta + 3.0 * sign
    travel = "increasing" if sign > 0.0 else "decreasing"
    parts = arc_length_between(mech, theta, mid, direction=travel)
    parts += arc_length_between(mech, mid, end, direction=travel)
    assert math.isclose(whole, parts, rel_tol=1e-12)


@pytest.mark.parametrize(
    "name, args, kwargs, most_nodes", GUESSED_PROFILES, ids=["crit09", "sixbar-blend"]
)
def test_knots_meet_their_tolerance(request, name, args, kwargs, most_nodes):
    mech = request.getfixturevalue(name)
    theta0, theta1, duration, frequency = args
    delta = resolve_arc(theta0, theta1, kwargs.get("direction", "short"))
    table = trajectory._angle_table(mech, (0.0, 0.0, 0.0), theta0, delta)
    n = round(duration * frequency)
    fractions = np.arange(n + 1) / n
    if kwargs.get("blend"):
        fractions = trajectory._blend_warp(fractions)
    x = trajectory._knots(table, fractions)
    targets = fractions[1:-1] * table.total
    lo, _, value, ends, _ = table._columns
    idx = np.searchsorted(ends, targets)
    start = ends[idx] - value[idx]
    got = trajectory._gauss(table.speed, lo[idx], x - lo[idx])[0]
    miss = np.abs(start + got - targets)
    assert np.all(miss <= trajectory._KNOT_TOL * table.total / n)


def test_knots_bisect_where_a_newton_step_leaves_its_bracket(monkeypatch, sixbar):
    # with the linear first guesses and the speed at each knot, the slope
    # of its Newton step, shrunk a billionfold, every step leaves the
    # knot's bracket, so the knots are placed by bisecting the bracket
    # alone, in 29 passes where Newton steps take 3; they still meet the
    # knot tolerance
    monkeypatch.setattr(trajectory, "_GUESS_STEPS", 0)
    table = trajectory._angle_table(sixbar, (0.05, -0.1, 0.07), 0.4, 2.5)
    speed, passes = table.speed, []

    def slow_at_the_knot(offsets):
        f = speed(offsets).reshape(-1, trajectory._CHECK_NODES.size)
        passes.append(f.shape[0])
        f[:, -1] *= 1e-9
        return f.ravel()

    table.speed = slow_at_the_knot
    n = 20
    fractions = np.arange(n + 1) / n
    x = trajectory._knots(table, fractions)
    assert len(passes) > 20
    targets = fractions[1:-1] * table.total
    lo, _, value, ends, _ = table._columns
    idx = np.searchsorted(ends, targets)
    got = trajectory._gauss(speed, lo[idx], x - lo[idx])[0]
    miss = np.abs(ends[idx] - value[idx] + got - targets)
    assert np.all(miss <= trajectory._KNOT_TOL * table.total / n)


@pytest.mark.parametrize(
    "steps, block",
    [(trajectory._GUESS_STEPS, trajectory._KNOT_BLOCK), (0, 7)],
    ids=["guessed", "linear-blocks-of-7"],
)
def test_knots_meet_their_tolerance_on_generated_linkages(monkeypatch, random_linkage, steps, block):
    # seeded profiles on linkages of 2 to 4 axes, every direction, with and
    # without a tool and a blend; each knot's length from its panel start,
    # by a 20-point Gauss rule of numpy's own, meets the knot tolerance.
    # Without guess steps the linear starts miss, so the safeguarded steps
    # inside each block's brackets place the knots
    monkeypatch.setattr(trajectory, "_GUESS_STEPS", steps)
    monkeypatch.setattr(trajectory, "_KNOT_BLOCK", block)
    rng = np.random.default_rng(35)
    for joints in (2, 3, 4):
        mech = random_linkage(rng, joints)
        for k, direction in enumerate(trajectory.ARC_DIRECTIONS):
            for blend in (False, True):
                tool = rng.normal(scale=0.4, size=3) if k % 2 else np.zeros(3)
                theta0, theta1 = rng.uniform(0.0, 2 * math.pi, size=2)
                delta = resolve_arc(theta0, theta1, direction)
                table = trajectory._angle_table(mech, tool, theta0, delta)
                n = 10 * (1 + k)
                fractions = np.arange(n + 1) / n
                if blend:
                    fractions = trajectory._blend_warp(fractions)
                x = trajectory._knots(table, fractions)
                targets = fractions[1:-1] * table.total
                starts, _, value, ends, _ = table._columns
                idx = np.searchsorted(ends, targets)
                lo = starts[idx]
                nodes, weights = np.polynomial.legendre.leggauss(20)
                at = lo[:, None] + (x - lo)[:, None] * (0.5 * (nodes + 1.0))
                got = (table.speed(at.ravel()).reshape(at.shape) @ weights) * 0.5 * (x - lo)
                miss = np.abs(ends[idx] - value[idx] + got - targets)
                assert np.all(miss <= trajectory._KNOT_TOL * table.total / n)


def assert_well_formed(table):
    """Check that the table reads as one ordered tiling of [0, span], with
    ends and total summing its values; return its node speeds and those
    of a second evaluation at each kept panel's own Gauss nodes."""
    lo, width, value, ends, rows = table._columns
    span = table.span
    assert lo[0] == 0.0
    assert np.all(np.abs(lo[:-1] + width[:-1] - lo[1:]) <= 4 * np.spacing(span))
    assert abs(lo[-1] + width[-1] - span) <= 4 * np.spacing(span)
    assert np.array_equal(ends, np.cumsum(value))
    assert table.total == ends[-1]
    assert np.allclose(value, (rows @ trajectory._GL_WEIGHTS) * width, rtol=1e-15, atol=0.0)
    nodes = lo[:, None] + width[:, None] * trajectory._GL_NODES
    return rows, table.speed(nodes.ravel()).reshape(nodes.shape)


@pytest.mark.parametrize(
    "name, tool, pieces, tol",
    [("bennett", (0.0, 0.0, 0.0), 2, 1e-13), ("sixbar", (0.1, -0.05, 0.02), 3, 1e-12)],
    ids=["bennett", "sixbar"],
)
def test_refined_table_is_well_formed(request, name, tool, pieces, tol):
    # a tolerance below the default on few first panels forces later
    # levels; whatever level a kept panel comes from, the table reads as
    # one ordered tiling with each panel's own Gauss rule
    mech = request.getfixturevalue(name)
    delta = resolve_arc(0.331, 5.893, "long")
    speed = trajectory._angle_table(mech, tool, 0.331, delta).speed
    table = trajectory._Table(speed, abs(delta), pieces, tol)
    assert table._columns[0].size > 2 * pieces
    rows, direct = assert_well_formed(table)
    assert np.allclose(rows, direct, rtol=1e-15, atol=0.0)


def test_one_level_table_is_well_formed(request):
    # a table that meets the default tolerance on its first level keeps
    # that level as its columns; its halves' nodes are the template's to
    # the bit, and so are their speeds
    name, args, kwargs = BENNETT_SHORT
    delta = resolve_arc(*args, kwargs["direction"])
    table = trajectory._angle_table(request.getfixturevalue(name), (0.0, 0.0, 0.0), args[0], delta)
    assert len(table._levels) == 1
    rows, direct = assert_well_formed(table)
    assert rows.shape == (2 * math.ceil(abs(delta) / trajectory._ANGLE_PANEL), 12)
    assert np.array_equal(rows, direct)


def length_polynomials(rng, k):
    """Length polynomials in s of k panels with smooth positive node speeds,
    through _GL_ANTIDERIVATIVE, and each panel's Gauss length.

    The speeds vary by up to 60 % of their mean across a panel, about the
    90th percentile of the panels the benchmark's profiles invert; at 80 %
    the guess steps leave up to 2.3e-12 in s, which the knot check absorbs.
    """
    tau = trajectory._GL_NODES
    speeds = 1.0 + rng.uniform(-0.3, 0.3, (k, 1)) * np.sin(rng.uniform(0.5, 3.0, (k, 1)) * tau)
    width = rng.uniform(0.05, 0.4, k)
    return (speeds @ trajectory._GL_ANTIDERIVATIVE.T) * width[:, None], (speeds @ trajectory._GL_WEIGHTS) * width


def bisection_roots(coef):
    """Root in [-1, 1] of each row's rising polynomial, by bisection."""
    lo, hi = -np.ones(len(coef)), np.ones(len(coef))
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        value = np.polynomial.polynomial.polyval(mid, coef.T, tensor=False)
        lo, hi = np.where(value < 0.0, mid, lo), np.where(value < 0.0, hi, mid)
    return 0.5 * (lo + hi)


def test_newton_in_panel_lands_on_the_length_root():
    rng = np.random.default_rng(33)
    poly, length = length_polynomials(rng, 200)
    frac = rng.uniform(0.0, 1.0, 200)
    coef = poly.copy()
    coef[:, 0] -= frac * length
    got = trajectory._newton_in_panel(coef, 2.0 * frac - 1.0)
    assert np.max(np.abs(got - bisection_roots(coef))) <= 1e-12


def test_newton_in_panel_clips_keeps_and_takes_empty_input():
    rng = np.random.default_rng(34)
    poly, length = length_polynomials(rng, 6)
    # targets beyond either end of the panel clip to its ends
    coef = poly.copy()
    coef[:, 0] -= np.repeat([-1.0, 2.0], 3) * length
    start = np.tile([-0.5, 0.0, 0.5], 2)
    got = trajectory._newton_in_panel(coef, start)
    assert np.array_equal(got, np.repeat([-1.0, 1.0], 3))
    # a row of zero speeds has no slope, so its iterate stays put
    coef[1] = (np.zeros(12) @ trajectory._GL_ANTIDERIVATIVE.T) * 0.2
    coef[1, 0] -= 0.01
    assert trajectory._newton_in_panel(coef, start)[1] == start[1]
    empty = trajectory._newton_in_panel(np.empty((0, 13)), np.empty(0))
    assert empty.shape == (0,)


def test_antiderivative_matrix_integrates_the_interpolant():
    # node values of a monomial of degree <= 11 give its exact integral
    # over [0, tau]; at the panel end the matrix gives the Gauss weights
    anti = trajectory._GL_ANTIDERIVATIVE
    assert anti.shape == (13, 12)
    tau = np.linspace(0.0, 1.0, 41)
    powers = np.vander(2.0 * tau - 1.0, 13, increasing=True)
    for degree in range(12):
        got = powers @ (anti @ trajectory._GL_NODES**degree)
        assert np.max(np.abs(got - tau ** (degree + 1) / (degree + 1))) <= 1e-12
    assert np.max(np.abs(anti.sum(axis=0) - trajectory._GL_WEIGHTS)) <= 1e-12


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


def check_chart_speeds(mech, rng):
    # the chart's affine combination for a tool point is the speed's whole
    # input; the oracle reads the monomial path of the same point
    axis = (mech.driving_axis[0], np.linalg.norm(mech.driving_axis[1:]))
    harmonic = trajectory._angle_chart(mech)[0]
    assert harmonic.shape == (4, 8, 2 * mech.motion.degree + 2)
    for _ in range(3):
        tool = rng.normal(scale=0.5, size=3)
        coef = harmonic[0] + (tool @ harmonic[1:].reshape(3, -1)).reshape(harmonic.shape[1:])
        path = mech.motion.point_path(mech.tool_home.act_on_point(tool))
        coords = np.column_stack([path.x0, path.xi.T])
        phi = rng.uniform(-2 * math.pi, 2 * math.pi, size=40)
        assert_speeds(trajectory._Speed(coef, 0.0, 1.0), phi, coords, axis)


def test_trig_speed_matches_homogeneous_evaluation(random_linkage):
    rng = np.random.default_rng(21)
    for joints in (2, 3, 4):
        mech = random_linkage(rng, joints)
        check_chart_speeds(mech, rng)
    # a bare quartic path through the harmonic map of order 2 itself
    path = RationalPointPath([2.0, 0.0, 1.0, 0.1, 0.5], rng.normal(size=(3, 5)))
    coords = np.column_stack([path.x0, path.xi.T])
    t = rng.uniform(-3.0, 3.0, size=40)
    coef = (coords.T @ trajectory._harmonic_map(2)).reshape(8, -1)
    assert_speeds(trajectory._Speed(coef, 0.0, 1.0), 2.0 * np.arctan2(1.0, t), coords, (0.0, 1.0))
    # a tool frame that turns and shifts, so the chart acts through the
    # tool motion rather than the motion itself
    rng = np.random.default_rng(23)
    turn = DualQuaternion(rng.normal(size=4).tolist() + [0.0] * 4)
    tool_home = turn * DualQuaternion.from_translation(rng.normal(size=3))
    check_chart_speeds(dataclasses.replace(mech, tool_home=tool_home), rng)


def exact_speed(path, t):
    """|dP/dt| = |X0 * dX - X * dX0| / X0**2 from an exact rational
    evaluation of the path's coefficients at t."""

    def value(coeffs):
        acc = Fraction(0)
        for c in coeffs[::-1]:
            acc = acc * Fraction(t) + Fraction(float(c))
        return acc

    w, wd = value(path.x0), value(path.x0d)
    num = [value(path.xid[i]) * w - value(path.xi[i]) * wd for i in range(3)]
    return math.sqrt(float(sum(n * n for n in num) / w**4))


def test_chart_speed_matches_exact_evaluation(sixbar, bennett):
    # the joint angle theta of t = q0 + r*cot(theta/2) turns |dP/dt| into
    # |dP/dtheta| = |dP/dt| * (r**2 + (t - q0)**2) / (2*r)
    rng = np.random.default_rng(31)
    for mech in (sixbar, bennett):
        q0, r = mech._axis
        harmonic = trajectory._angle_chart(mech)[0]
        for _ in range(4):
            tool = rng.normal(scale=0.5, size=3)
            path = mech.motion.point_path(mech.tool_home.act_on_point(tool))
            coef = harmonic[0] + (tool @ harmonic[1:].reshape(3, -1)).reshape(harmonic.shape[1:])
            speed = trajectory._Speed(coef, 0.0, 1.0)
            t = rng.uniform(-3.0, 3.0, size=50)
            got = speed(2.0 * np.arctan2(r, t - q0))
            want = np.array([exact_speed(path, x) * (r * r + (x - q0) ** 2) / (2 * r) for x in t])
            assert np.max(np.abs(got - want) / want) <= 1e-12


# 30-digit mpmath lengths of t-arcs of both fixtures, written by
# tools/reference_t_arcs.py
T_ARC_REFERENCES = json.loads(
    (pathlib.Path(__file__).parent / "data" / "t_arc_references.json").read_text(encoding="utf-8")
)["arcs"]


@pytest.mark.parametrize(
    "arc",
    T_ARC_REFERENCES,
    ids=[
        "%s-%s-%g-%g" % (a["fixture"], "tool" if any(a["tool"]) else "origin", a["t0"], a["t1"])
        for a in T_ARC_REFERENCES
    ],
)
def test_arc_length_meets_the_committed_references(request, arc):
    # held to 1e-13: the Bennett arcs measure 5.0e-15 to 5.8e-14 and the
    # sixbar's at most 4.2e-16
    path = request.getfixturevalue(arc["fixture"]).motion.point_path(arc["tool"])
    want = float(arc["length"])
    assert abs(arc_length(path, arc["t0"], arc["t1"]) - want) <= 1e-13 * want


# 30-digit mpmath lengths of joint-angle arcs of both fixtures, each in
# its mechanism's own chart, written by tools/reference_t_arcs.py
JOINT_ARC_REFERENCES = json.loads(
    (pathlib.Path(__file__).parent / "data" / "joint_arc_references.json").read_text(
        encoding="utf-8"
    )
)["arcs"]


@pytest.mark.parametrize(
    "arc",
    JOINT_ARC_REFERENCES,
    ids=[
        "%s-%s-%g-%g-%s" % (
            a["fixture"], "tool" if any(a["tool"]) else "origin", a["theta0"], a["theta1"],
            a["direction"],
        )
        for a in JOINT_ARC_REFERENCES
    ],
)
def test_arc_length_between_meets_the_committed_references(request, arc):
    # the Bennett arcs are held to 2e-15 (5.2e-16 measured); the sixbar's
    # to 1e-12, since its arc across home keeps 6.4e-14 of the panel
    # tolerance
    mech = request.getfixturevalue(arc["fixture"])
    got = arc_length_between(mech, arc["theta0"], arc["theta1"], arc["tool"], arc["direction"])
    want = float(arc["length"])
    assert abs(got - want) <= (2e-15 if arc["fixture"] == "bennett" else 1e-12) * want


@pytest.mark.parametrize("name", ["sixbar", "bennett"])
@pytest.mark.parametrize("tool", [(0.0, 0.0, 0.0), (0.05, -0.1, 0.07)], ids=["origin", "tool"])
def test_equidistant_params_over_a_wide_interval(request, name, tool):
    # t in [-1e7, 1e7] covers all but 4e-7 rad of the turn
    path = request.getfixturevalue(name).motion.point_path(tool)
    assert_knots_in_the_cot_angle(path, equidistant_params(path, -1e7, 1e7, 40), -1e7, 1e7)


@pytest.mark.parametrize("name", ["sixbar", "bennett"])
def test_equidistant_params_at_huge_parameters(request, name):
    # the sixbar's middle knot lies within 1e-13 of t = 0, where the map
    # back to t takes u = tan(-x/2) near 1e13 and u*t0 once overflowed in
    # the branch that it discards
    path = request.getfixturevalue(name).motion.point_path((0.0, 0.0, 0.0))
    assert_knots_in_the_cot_angle(path, equidistant_params(path, -1e300, 1e300, 4), -1e300, 1e300)


def assert_knots_in_the_cot_angle(path, seg, t0, t1):
    """Check that each knot's cumulative length, by numpy's own 20-point
    Gauss rule on eight pieces of every segment in the angle of t =
    cot(phi/2), meets the knot tolerance."""
    params = np.array(seg.params)
    n = params.size - 1
    assert params[0] == t0 and params[-1] == t1
    assert np.all(np.diff(params) > 0.0)
    coords = np.column_stack([path.x0, path.xi.T])
    phi = 2.0 * np.arctan2(1.0, params)
    nodes, weights = np.polynomial.legendre.leggauss(20)
    pieces = np.linspace(phi[:-1], phi[1:], 9)
    lo, width = pieces[:-1].ravel(), np.diff(pieces, axis=0).ravel()
    at = lo[:, None] + width[:, None] * (0.5 * (nodes + 1.0))
    speeds = np.array([reference_speed(coords, x, (0.0, 1.0)) for x in at.ravel()])
    lengths = np.abs((speeds.reshape(at.shape) @ weights) * 0.5 * width).reshape(8, n).sum(axis=0)
    total = lengths.sum()
    assert math.isclose(seg.total_length, total, rel_tol=1e-12)
    miss = np.cumsum(lengths)[:-1] - np.arange(1, n) * (total / n)
    assert np.max(np.abs(miss)) <= trajectory._KNOT_TOL * total / n


def test_paths_that_run_off_at_home_are_rejected():
    # a line, a tool point of the translation 1 + t*eps*k, whose x0 drops
    # degree, and lines of odd degree at every coefficient scale run off
    # to infinity at home, where the speed in the angle of t = cot(phi/2)
    # has a pole; their arcs in t raise ValueError, with no overflow
    # warning at any scale
    line = RationalPointPath([1.0, 0.0], [[0.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
    slide = MotionPolynomial([[1, 0, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, 0, 1]])
    paths = [line, slide.point_path([0.3, 0.0, 0.0])] + [
        RationalPointPath([s, s], [[s, 0.0], [0.0, s], [0.0, 0.0]]) for s in (1.0, 1e150, 1e300)
    ]
    for path in paths:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="runs off to infinity"):
                arc_length(path, -0.5, 1.0)
            with pytest.raises(ValueError, match="runs off to infinity"):
                equidistant_params(path, 0.0, 1e4, 8)


@pytest.mark.parametrize("name", ["sixbar", "bennett"])
@pytest.mark.parametrize("t0", [0.0, -1.0])
def test_short_arcs_keep_their_digits(request, name, t0):
    # 1e-6 in t is about 1e-6 rad in phi, which itself rounds to 4.4e-16
    # near pi; the span and the knots are formed relative to t0, so the
    # length and the knots hold against numpy's 20-point Gauss rule in t
    path = request.getfixturevalue(name).motion.point_path((0.05, -0.1, 0.07))
    coords = np.column_stack([path.x0, path.xi.T])
    nodes, weights = np.polynomial.legendre.leggauss(20)

    def length(lo, hi):
        at = lo + (hi - lo) * 0.5 * (nodes + 1.0)
        return 0.5 * (hi - lo) * (np.array([reference_speed(coords, x) for x in at]) @ weights)

    t1, n = t0 + 1e-6, 40
    total = length(t0, t1)
    assert math.isclose(arc_length(path, t0, t1), total, rel_tol=1e-13)
    seg = equidistant_params(path, t0, t1, n)
    assert seg.params[0] == t0 and seg.params[-1] == t1
    pieces = [length(p, q) for p, q in zip(seg.params[:-1], seg.params[1:])]
    miss = np.cumsum(pieces)[:-1] - np.arange(1, n) * (total / n)
    assert np.max(np.abs(miss)) <= trajectory._KNOT_TOL * total / n


def test_arcs_at_huge_parameters(sixbar):
    # where t0*t1 overflows, the angle span comes from 1/t0 and 1/t1; near
    # home the path moves at a steady speed in phi, so an arc there scales
    # with 1/t0 - 1/t1
    path = sixbar.motion.point_path((0.05, -0.1, 0.07))
    near = arc_length(path, 1e14, 1e15) * 1e14
    for t0, t1 in ((1e300, 1e301), (-1e301, -1e300)):
        assert math.isclose(arc_length(path, t0, t1) * 1e300, near, rel_tol=1e-9)
    wide = arc_length(path, -1e7, 1e7)
    assert wide < arc_length(path, -1e200, 1e200) < wide * (1.0 + 1e-7)


def test_harmonic_map_is_built_once_per_order(sixbar):
    # one read-only map per order serves the angle chart of every
    # mechanism and the t-arcs of every path
    first = trajectory._harmonic_map(3)
    assert trajectory._harmonic_map(3) is first and not first.flags.writeable
    assert trajectory._harmonic_map(2) is not first
    calls = trajectory._harmonic_map.cache_info().misses
    arc_length_between(dataclasses.replace(sixbar), 0.3, 1.2)
    arc_length(sixbar.motion.point_path((0.0, 0.0, 0.0)), -1.0, 1.0)
    assert trajectory._harmonic_map.cache_info().misses == calls


def exact_harmonics(k, j):
    """Harmonic coefficients of cos(phi/2)**k * sin(phi/2)**j as Fractions,
    interleaved as trajectory._harmonics orders them.

    With u = exp(i*phi/2) the form is a product of k factors (u + 1/u)/2
    and j factors -i*(u - 1/u)/2, expanded here term by term in Gaussian
    rationals (re, im) by power of u; the terms z of u**(2m) and z' of
    u**(-2m) make (z + z')*cos(m*phi) + i*(z - z')*sin(m*phi).
    """
    half = Fraction(1, 2)
    terms = {0: (Fraction(1), Fraction(0))}
    for factor in [{1: (half, 0), -1: (half, 0)}] * k + [{1: (0, -half), -1: (0, half)}] * j:
        product = collections.defaultdict(lambda: (Fraction(0), Fraction(0)))
        for e, (x, y) in terms.items():
            for d, (p, q) in factor.items():
                real, imag = product[e + d]
                product[e + d] = (real + x * p - y * q, imag + x * q + y * p)
        terms = product
    out = []
    for m in range((k + j) // 2 + 1):
        (x, y), (xm, ym) = terms.get(2 * m, (0, 0)), terms.get(-2 * m, (0, 0))
        out += [x, 0] if m == 0 else [x + xm, ym - y]
    return out


def test_harmonic_map_is_exact():
    # every entry of both maps, orders 1 to 7, equals its rational
    # expansion; d/dphi takes the (cos, sin) coefficients (u, v) of
    # harmonic m to (m*v, -m*u)
    for order in range(1, 8):
        maps = trajectory._harmonic_map(order)
        assert maps.shape == (2, 2 * order + 1, 2 * order + 2)
        for k in range(2 * order + 1):
            value = exact_harmonics(k, 2 * order - k)
            slope = []
            for m in range(order + 1):
                slope += [m * value[2 * m + 1], -m * value[2 * m]]
            assert [Fraction(v) for v in maps[0, k]] == value
            assert [Fraction(v) for v in maps[1, k]] == slope


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


def test_point_check_reaches_arc_length_between(random_linkage, sixbar):
    # a tool point that is not finite, or on the sixbar one at 1e308 whose
    # path coefficients would overflow, is rejected by point_path and by
    # both angle chart entry points before any product; an infinite
    # coordinate is rejected before it meets the zeros of the point action,
    # where inf * 0 would raise numpy's invalid-value RuntimeWarning
    # instead, and 1e308 before the matmul would raise its overflow warning
    linkage = random_linkage(np.random.default_rng(23), 2)
    for mech, bads in ((linkage, (math.nan, math.inf, -math.inf)), (sixbar, (1e308, -1e308))):
        for bad in bads:
            with pytest.raises(ValueError, match="finite"):
                mech.motion.point_path([0.1, bad, 0.3])
            with pytest.raises(ValueError, match="finite"):
                arc_length_between(mech, 0.4, 2.0, tool=(bad, 0.0, 0.0))
            with pytest.raises(ValueError, match="finite"):
                equidistant_profile(mech, 0.4, 2.0, 1.0, 5.0, tool=(0.0, 0.0, bad))


def test_paths_far_beyond_x0_are_rejected_without_overflow(sixbar):
    # finite tool points whose paths exceed x0 by 2**256 or more, where the
    # squares of the speed would overflow
    for x in (1e160, 1e200, 1e307):
        with pytest.raises(ValueError, match="its path overflows"):
            arc_length_between(sixbar, 0.3, 1.2, tool=(x, 0.0, 0.0))
        with pytest.raises(ValueError, match="its path overflows"):
            equidistant_profile(sixbar, 0.3, 1.2, 1.0, 10.0, tool=(x, 0.0, 0.0))
    # a bare path whose x0 is 1e-200 of its other coordinates, and one whose
    # x0 underflows to zero once the path is scaled into range
    for x0 in (1e-200, 5e-324):
        path = RationalPointPath([x0, 0.0, x0], np.diag([1e300, 1e300, 5e299]))
        with pytest.raises(ValueError, match="exceed x0 by 2\\*\\*256"):
            arc_length(path, -1.0, 1.0)


def test_huge_path_coefficients_keep_the_scale_free_length():
    # the speed sees the coefficients scaled by a power of two, so a path
    # near the float limit has the length of its mantissa-sized copy
    def path(s):
        return RationalPointPath([s, 0.0, s], np.diag([s, s, s / 2.0]))

    for s in (1e307, 5e307):
        small = math.ldexp(s, -math.frexp(s)[1])
        assert arc_length(path(s), -1.0, 1.0) == arc_length(path(small), -1.0, 1.0)
        assert math.isclose(arc_length(path(s), -1.0, 1.0), 1.66479180539134, rel_tol=1e-14)


LENGTH_UNITS = [2.0**-20, 1e-6, 1e-3, 1e3, 1e6, 2.0**20]


def _in_unit(mech, lam):
    """The mechanism with every length scaled by lam: the dual parts of
    its motion and of its tool frame."""
    coeffs = np.array(mech.motion.coeffs)
    coeffs[:, 4:] *= lam
    tool = np.array(mech.tool_home.coeffs)
    tool[4:] *= lam
    motion = MotionPolynomial(coeffs, mech.motion.study_tol)
    return Mechanism(motion, mech.driving_axis, DualQuaternion(tool))


# (fixture, unit mu of the family, tool point, angle arc, t span, bound on
# the lengths at a decimal lam).  The sixbar's arc is the recorded one.
# The Bennett fixture's coefficients are rounded to three decimals, and
# its norm check divides a length by a primal coefficient, so that it
# rejects the fixture at about 0.6 times its unit and above (ROADMAP item
# 10); its family starts at mu = 2**-20, whose lam = 2**20 is the
# fixture itself.  A decimal lam rounds its dual coefficients, which
# moves its t-arc by up to 5.6e-14 relative, so its lengths are held to
# 1e-13; its angle arc, in the tool motion's chart in tau, moves by 4e-16
LENGTH_CASES = [
    ("sixbar", 1.0, (0.1848, -0.1084, 0.0357), (5.2304, 1.5115, "short"), (-1.0, 1.0), 1e-14),
    ("bennett", 2.0**-20, (0.05, -0.1, 0.07), (0.331, 5.893, "long"), (-1.0, math.sqrt(3)), 1e-13),
]


@pytest.mark.parametrize("lam", LENGTH_UNITS)
@pytest.mark.parametrize(
    "name, mu, tool, arc, span, bound", LENGTH_CASES, ids=["sixbar", "bennett"]
)
def test_lengths_follow_the_length_unit(request, name, mu, tool, arc, span, bound, lam):
    # lengths in another unit lam are lam times the lengths, and the
    # equidistant profile angles do not change: bit for bit at a power of
    # two, within bound (lengths) and 1e-14 of the largest angle (profiles)
    # otherwise.  With an absolute panel tolerance the recorded sixbar arc
    # was off by 2.16e-6 at lam = 1e-6 and 2**-20
    mech = request.getfixturevalue(name)

    def answers(scale):
        m, x = _in_unit(mech, mu * scale), mu * scale * np.array(tool)
        lengths = (
            arc_length_between(m, arc[0], arc[1], x, arc[2]) / scale,
            arc_length(m.motion.point_path(x), *span) / scale,
        )
        profiles = [
            equidistant_profile(m, arc[0], arc[1], 4.0, 20.0, x, arc[2], blend).thetas
            for blend in (False, True)
        ]
        return lengths, np.concatenate(profiles)

    (want, want_thetas), (got, thetas) = answers(1.0), answers(lam)
    if math.frexp(lam)[0] == 0.5:
        assert got == want and np.array_equal(thetas, want_thetas)
    else:
        assert all(abs(g - w) <= bound * w for g, w in zip(got, want))
        assert np.max(np.abs(thetas - want_thetas)) <= 1e-14 * np.max(np.abs(want_thetas))


def test_large_tools_get_lengths(sixbar):
    # the tool s * (1, 1/2, 1/5) far from the coupler: its length grows as
    # s, where an absolute panel tolerance raised QuadratureFailure from
    # s = 1e12 on; beyond 2**256 times x0 the path is still rejected
    assert math.isclose(
        arc_length_between(sixbar, 0.3, 1.2, (1e12, 5e11, 2e11)), 2105804563451.018, rel_tol=1e-15
    )
    for s in (1e20, 1e50, 1e70):
        got = arc_length_between(sixbar, 0.3, 1.2, (s, s / 2, s / 5))
        assert math.isclose(got, 2.105804563452951 * s, rel_tol=1e-15)
    with pytest.raises(ValueError, match="its path overflows"):
        arc_length_between(sixbar, 0.3, 1.2, (1e80, 5e79, 2e79))


@pytest.mark.parametrize("name", ["sixbar", "bennett"])
@pytest.mark.parametrize(
    "axis", [[0.0, 1e120, 0.0, 0.0], [1e100, 1e100, 0.0, 0.0], [0.0, 1e60, 0.0, 0.0]],
    ids=["r1e120", "q1e100", "r1e60"],
)
def test_long_driving_axes_get_lengths(request, name, axis):
    # t = q0 + r*cot(theta/2) with entries far beyond the motion's own
    # scale: the tool motion, rewritten in tau with exact powers of two,
    # keeps its coefficients in range, without a numpy warning.  Away
    # from theta = pi (or 3*pi/2 for the q0 axis) the tool creeps near
    # home, and the arc meets the same arc taken in t
    mech = request.getfixturevalue(name)
    long = Mechanism(mech.motion, axis, mech.tool_home)
    path = mech.motion.point_path((0.0, 0.0, 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = arc_length_between(long, 0.3, 1.2)
        want = arc_length(path, angle_to_param(1.2, axis), angle_to_param(0.3, axis))
        prof = equidistant_profile(long, 5.0, 0.5, duration=1.0, frequency=10.0)
    assert 0.0 < got < math.inf
    assert math.isclose(got, want, rel_tol=1e-13)
    assert np.all(np.isfinite(prof.thetas)) and np.all(np.diff(prof.thetas) > 0.0)
    assert math.isclose(prof.thetas[-1] % (2 * math.pi), 0.5, abs_tol=1e-14)


def test_panel_tolerance_follows_the_path_unless_given(sixbar, monkeypatch):
    # by default the panel tolerance is PANEL_TOL times a power of two that
    # follows the path's size, so it scales with the length unit; an
    # explicit arc_length tol is used as it is, whatever the path's size
    tols = []
    table = trajectory._Table

    def logged(speed, span, pieces, tol):
        tols.append(tol)
        return table(speed, span, pieces, tol)

    monkeypatch.setattr(trajectory, "_Table", logged)
    default = {}
    for lam in (2.0**-20, 1.0, 2.0**20):
        path = _in_unit(sixbar, lam).motion.point_path((0.0, 0.1 * lam, 0.2 * lam))
        tols.clear()
        arc_length(path, -1.0, 1.0)
        arc_length(path, -1.0, 1.0, tol=1e-10)
        equidistant_params(path, -1.0, 1.0, 4)
        default[lam], explicit, knots = tols
        assert explicit == 1e-10 and knots == default[lam]
    assert math.frexp(default[1.0] / trajectory._PANEL_TOL)[0] == 0.5
    assert default[2.0**-20] == 2.0**-20 * default[1.0]
    assert default[2.0**20] == 2.0**20 * default[1.0]


def test_arc_length_rejects_non_finite_parameters(circle_path):
    cases = ((math.nan, 1.0, "t0"), (0.0, math.inf, "t1"), (-1e308, 1e308, "t1 - t0"))
    for t0, t1, name in cases:
        with pytest.raises(ValueError, match="%s must be finite" % re.escape(name)):
            arc_length(circle_path, t0, t1)
        with pytest.raises(ValueError, match="%s must be finite" % re.escape(name)):
            equidistant_params(circle_path, t0, t1, 4)
    # a panel tolerance that no panel can meet, or that every panel meets
    for tol in (math.nan, -1.0, 0.0, math.inf):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            arc_length(circle_path, -1.0, 1.7, tol)


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


def test_zero_length_paths_get_evenly_spread_knots():
    # a point that never moves: the parameters and the joint angles are
    # spread like the span itself instead of piling up on one knot
    still = MotionPolynomial(np.array([[1, 0, 0, 0, 0, 0, 0, 0.0]]))
    seg = equidistant_params(still.point_path([1.0, 2.0, 3.0]), 0.0, 1.0, 4)
    assert seg.params == (0.0, 0.25, 0.5, 0.75, 1.0)
    assert seg.total_length == 0.0
    # the origin on the axis of a pure rotation about z stays put
    spin = MotionPolynomial.from_axes([[0, 0, 0, 1, 0, 0, 0, 0]])
    mech = Mechanism(motion=spin, driving_axis=[0.0, 0.0, 0.0, 1.0])
    want = linear_profile(0.5, 1.5, 1.0, 4.0)
    # so does every tool point under a motion of degree 0, whose
    # harmonics stop at the constant one
    fixed = Mechanism(motion=still, driving_axis=[0.0, 0.0, 0.0, 1.0])
    for mech, tool in ((mech, (0.0, 0.0, 0.0)), (fixed, (0.1, 0.2, 0.3))):
        got = equidistant_profile(mech, 0.5, 1.5, 1.0, 4.0, tool=tool)
        assert np.max(np.abs(got.thetas - want.thetas)) <= 1e-12
        assert np.max(np.abs(got.omegas - want.omegas)) <= 1e-12


def test_trajectory_profile_needs_equal_shapes():
    with pytest.raises(ValueError, match="equal shapes"):
        TrajectoryProfile(
            times=[0.0, 1.0], thetas=[0.0], omegas=[0.0, 0.0],
            duration=1.0, frequency=1.0, mode="linear",
        )
