import math
from fractions import Fraction

import numpy as np
import pytest

from dqlink import (
    INFINITY,
    DualQuaternion,
    MotionPolynomial,
    OnBorderOfDomain,
    PoleOnPath,
    RationalPointPath,
    StudyViolation,
    _kernels,
    motionpoly,
)

H1 = [0, 1, 0, 0, 0, 0, 0, 0]
H2 = [0, 0, 3, 0, 0, 0, 0, 1]
H3 = [0, 1, 1, 0, 0, 0, 0, -2]

# cubic coupler motion generated by the three axes above, ascending powers
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
POSE_SQRT3 = np.array([-SQRT3, -3, -15, SQRT3, -7, -7 * SQRT3, 2 * SQRT3, 2])
POSE_MINUS1 = np.array([3, 1, -7, -1, -7, 7, -2, 0], dtype=float)


@pytest.fixture(scope="module")
def cubic():
    return MotionPolynomial(SIXBAR_COEFFS)


def test_from_axes_reproduces_cubic():
    got = MotionPolynomial.from_axes([H1, H2, H3])
    assert np.array_equal(got.coeffs, SIXBAR_COEFFS)
    assert got.degree == 3
    assert got.validated


def test_from_axes_single_axis():
    lin = MotionPolynomial.from_axes([H1])
    assert np.array_equal(lin.coeffs, [[0, -1, 0, 0, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0, 0, 0]])


def test_from_axes_is_order_sensitive():
    swapped = MotionPolynomial.from_axes([H3, H2, H1])
    assert np.max(np.abs(swapped.coeffs - SIXBAR_COEFFS)) > 1e-6


def test_constructor_validation():
    with pytest.raises(ValueError):
        MotionPolynomial(np.zeros((2, 8)))
    # a valid leading coefficient but complex norm polynomial
    bad = np.array([[1, 0, 0, 0, 1, 0, 0, 0], [1, 0, 0, 0, 0, 0, 0, 0]], dtype=float)
    with pytest.raises(StudyViolation):
        MotionPolynomial(bad)
    unchecked = MotionPolynomial(bad, validate=False)
    assert not unchecked.validated


def test_coefficient_accessors(cubic):
    assert isinstance(cubic.coefficient(0), DualQuaternion)
    assert np.array_equal(cubic.coefficient(3).coeffs, SIXBAR_COEFFS[3])
    with pytest.raises(ValueError):
        cubic.coeffs[0, 0] = 5.0


def test_norm_poly_is_real(cubic):
    n = cubic.norm_poly()
    assert n.shape == (7, 8)
    assert np.max(np.abs(n[:, 1:])) <= 1e-12 * np.max(np.abs(n[:, 0]))


def test_evaluate_known_poses(cubic):
    assert np.allclose(cubic.evaluate(SQRT3).coeffs, POSE_SQRT3, atol=1e-12)
    assert np.array_equal(cubic.evaluate(-1.0).coeffs, POSE_MINUS1)
    assert np.array_equal(cubic.evaluate(INFINITY).coeffs, [1, 0, 0, 0, 0, 0, 0, 0])


def test_evaluate_on_border():
    border = MotionPolynomial(
        np.array([[0, 0, 0, 0, 0, 0, 0, 1], [1, 0, 0, 0, 0, 0, 0, 0]], dtype=float)
    )
    with pytest.raises(OnBorderOfDomain):
        border.evaluate(0.0)
    assert border.evaluate(1.0).coeffs[0] == 1.0


def test_derivative(cubic):
    d = cubic.derivative()
    want = np.array(
        [
            [-4, 0, 0, 1, 0, -7, 2, 0],
            [0, -4, -8, 0, 0, 0, 0, 2],
            [3, 0, 0, 0, 0, 0, 0, 0],
        ],
        dtype=float,
    )
    assert np.array_equal(d.coeffs, want)
    assert not d.validated
    const = MotionPolynomial(np.array([[1, 0, 0, 0, 0, 0, 0, 0.0]]))
    assert np.array_equal(const.derivative().coeffs, np.zeros((1, 8)))


def test_act_poly_origin_equals_norm(cubic):
    acted = cubic.act_poly([0.0, 0.0, 0.0])
    norm = cubic.norm_poly()
    assert np.allclose(acted[:, 0], norm[:, 0], atol=1e-12)
    assert np.max(np.abs(acted[:, 1:5])) <= 1e-12


def test_point_path_matches_pointwise_action(cubic):
    path = cubic.point_path([0.25, -1.0, 2.0])
    assert isinstance(path, RationalPointPath)
    assert path.degree == 6
    for t in (-1.0, 0.3, SQRT3, 2.5):
        direct = cubic.evaluate(t).act_on_point([0.25, -1.0, 2.0])
        assert np.allclose(path.point(t), direct, atol=1e-9)


def test_point_path_x0_is_primal_norm(cubic):
    path = cubic.point_path([0.0, 0.0, 0.0])
    np_, _ = cubic.evaluate(SQRT3).norm_pair()
    assert math.isclose(path.hom(SQRT3)[0], np_, rel_tol=1e-12)


def test_acted_point_components_vanish_identically(rng):
    # the rotational and dual-scalar columns of the acted point cancel
    # identically for any coefficients, Study or not, up to summation noise;
    # the second point of each polynomial comes from the kept action basis
    for _ in range(10):
        poly = MotionPolynomial(rng.normal(size=(4, 8)), validate=False)
        for _ in range(2):
            acted = poly.act_poly(rng.normal(size=3))
            assert np.max(np.abs(acted[:, 1:5])) <= 1e-12 * np.max(np.abs(acted))


def test_point_paths_share_one_action_basis(monkeypatch):
    # the first path builds the action with dual quaternion products and
    # the later ones only combine it; each path is checked pointwise
    # against evaluate(t).act_on_point(x), which does not use the basis
    calls = []
    mul = _kernels.dq_mul8
    monkeypatch.setattr(_kernels, "dq_mul8", lambda a, b: calls.append(1) or mul(a, b))
    motion = MotionPolynomial(SIXBAR_COEFFS)
    calls.clear()
    motion.point_path([0.5, 0.5, 0.5])
    assert calls
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = rng.uniform(-2.0, 2.0, size=3)
        calls.clear()
        path = motion.point_path(x)
        assert calls == []
        for t in (-1.0, 0.3, SQRT3, 2.5):
            direct = motion.evaluate(t).act_on_point(x)
            assert np.allclose(path.point(t), direct, rtol=0.0, atol=1e-9)


def test_act_poly_matches_direct_convolution(rng):
    # reference: the two convolutions with the embedded point itself;
    # x0 takes no term from the point, so it agrees bit for bit
    for _ in range(5):
        poly = MotionPolynomial(rng.normal(size=(4, 8)), validate=False)
        x = rng.normal(size=3)
        embed = np.zeros((1, 8))
        embed[0, 0] = 1.0
        embed[0, 5:8] = x
        c = poly.coeffs
        want = motionpoly._polymul(
            motionpoly._polymul(motionpoly._eps_conj_rows(c), embed),
            motionpoly._conj_rows(c),
        )
        got = poly.act_poly(x)
        assert np.array_equal(got[:, 0], want[:, 0])
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_cached_action_and_poles_are_read_only(cubic):
    act = cubic._action()
    poles = cubic.path_poles()
    assert act.shape == (4, 2 * cubic.degree + 1, 8)
    assert cubic._action() is act and cubic.path_poles() is poles
    for arr in (act, poles):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0
    # B1..B3 hold no x0, so every point path shares the poles of x0
    assert np.all(act[1:, :, 0] == 0.0)
    path = cubic.point_path([0.25, -1.0, 2.0])
    assert np.array_equal(path.x0, act[0, :, 0])
    acted = cubic.act_poly([0.25, -1.0, 2.0])
    acted[:] = 0.0
    assert np.any(cubic._action()[0] != 0.0)


def test_path_point_and_pole(cubic):
    # x0 of the border motion t + eps*k is t**2, a pole at the origin
    border = MotionPolynomial(
        np.array([[0, 0, 0, 0, 0, 0, 0, 1], [1, 0, 0, 0, 0, 0, 0, 0]], dtype=float)
    )
    path = border.point_path([0.0, 0.0, 0.0])
    with pytest.raises(PoleOnPath):
        path.point(0.0)
    # 1 + eps*k translates by (0, 0, -2) under the -1/2 embedding
    assert np.allclose(path.point(1.0), [0, 0, -2], atol=1e-12)


def test_path_speed_matches_finite_difference(cubic, rng):
    path = cubic.point_path([0.0, 0.0, 0.0])
    h = 1e-6
    for _ in range(10):
        t = float(rng.uniform(-0.9, 1.6))
        fd = np.linalg.norm(path.point(t + h) - path.point(t - h)) / (2 * h)
        assert math.isclose(path.speed(t), fd, rel_tol=1e-6)


def exact_speed(path, t):
    """|X0 * dX - X * dX0| / X0**2 from an exact rational evaluation at t."""

    def value(coeffs):
        acc = Fraction(0)
        for c in coeffs[::-1]:
            acc = acc * Fraction(t) + Fraction(float(c))
        return acc

    w, wd = value(path.x0), value(path.x0d)
    num = [value(path.xid[i]) * w - value(path.xi[i]) * wd for i in range(3)]
    return math.sqrt(float(sum(n * n for n in num) / w**4))


def test_path_speed_on_arrays_matches_exact_evaluation(sixbar, bennett):
    rng = np.random.default_rng(31)
    for mech in (sixbar, bennett):
        for _ in range(4):
            tool = rng.normal(scale=0.5, size=3)
            path = mech.motion.point_path(mech.tool_home.act_on_point(tool))
            t = rng.uniform(-3.0, 3.0, size=(5, 10))
            got = path.speed(t)
            assert got.shape == t.shape
            assert np.array_equal(got.ravel(), [path.speed(x) for x in t.ravel()])
            want = np.array([[exact_speed(path, x) for x in row] for row in t])
            assert np.max(np.abs(got - want) / want) <= 3e-13


def test_constant_path():
    ident = MotionPolynomial(np.array([[1, 0, 0, 0, 0, 0, 0, 0.0]]))
    path = ident.point_path([1.0, 2.0, 3.0])
    assert path.degree == 0
    assert np.allclose(path.point(5.0), [1, 2, 3])
    assert path.speed(5.0) == 0.0
    assert np.array_equal(path.speed(np.arange(3.0)), np.zeros(3))


def test_rational_point_path_shape_checks():
    with pytest.raises(ValueError):
        RationalPointPath(np.array([1.0, 2.0]), np.zeros((2, 2)))
