import math
import warnings

import numpy as np
import pytest

from dqlink import (
    INFINITY,
    DualQuaternion,
    Mechanism,
    MotionPolynomial,
    OnBorderOfDomain,
    PoleOnPath,
    RationalPointPath,
    StudyViolation,
    motionpoly,
)
from dqlink.dq import _norm_parts

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
    # the norm check needs a finite, positive tolerance: nan and inf
    # would pass any array, and zero or less would reject every motion
    for tol in (math.nan, math.inf, 0.0, -1.0):
        for coeffs in (bad, SIXBAR_COEFFS):
            with pytest.raises(ValueError, match="study_tol must be finite and > 0"):
                MotionPolynomial(coeffs, study_tol=tol)


def test_coefficient_accessors(cubic):
    assert cubic.degree == 3
    assert np.array_equal(cubic.coeffs[3], SIXBAR_COEFFS[3])
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


def test_infinity_is_the_float_infinity():
    assert INFINITY is math.inf
    assert motionpoly.INFINITY is math.inf


def test_evaluate_at_either_infinity_is_the_leading_coefficient(sixbar, bennett, random_linkage):
    motions = [sixbar.motion, bennett.motion]
    motions.append(random_linkage(np.random.default_rng(35), 4).motion)
    for motion in motions:
        for t in (math.inf, -math.inf):
            assert motion.evaluate(t).coeffs.tobytes() == motion.coeffs[-1].tobytes()


def test_coefficient_array_and_rows_give_one_motion():
    rows = MotionPolynomial([DualQuaternion(c) for c in SIXBAR_COEFFS])
    assert rows.coeffs.tobytes() == MotionPolynomial(SIXBAR_COEFFS).coeffs.tobytes()


def test_evaluate_on_border():
    border = MotionPolynomial(
        np.array([[0, 0, 0, 0, 0, 0, 0, 1], [1, 0, 0, 0, 0, 0, 0, 0]], dtype=float)
    )
    with pytest.raises(OnBorderOfDomain):
        border.evaluate(0.0)
    assert border.evaluate(1.0).coeffs[0] == 1.0


def test_derivative(cubic):
    d = motionpoly._derivative_rows(cubic.coeffs)
    want = np.array(
        [
            [-4, 0, 0, 1, 0, -7, 2, 0],
            [0, -4, -8, 0, 0, 0, 0, 2],
            [3, 0, 0, 0, 0, 0, 0, 0],
        ],
        dtype=float,
    )
    assert np.array_equal(d, want)
    const = np.array([[1, 0, 0, 0, 0, 0, 0, 0.0]])
    assert np.array_equal(motionpoly._derivative_rows(const), np.zeros((1, 8)))


def test_point_action_origin_equals_norm(cubic):
    acted = motionpoly._affine_action(motionpoly._point_action(cubic.coeffs), [0.0, 0.0, 0.0])
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
    np_ = _norm_parts(cubic.evaluate(SQRT3).coeffs)[0]
    assert math.isclose(path.hom(SQRT3)[0], np_, rel_tol=1e-12)


def test_acted_point_components_vanish_identically(rng, sixbar, bennett):
    # the rotational and dual-scalar columns of the acted point cancel
    # identically for any coefficients, Study or not, up to summation
    # noise, so point paths and the angle chart read only x0..x3: random
    # polynomials, the tool motions of both fixtures, and one of a tool
    # frame that turns and shifts
    turned = DualQuaternion([0.3, -0.8, 0.5, 0.2, 0, 0, 0, 0])
    tool_home = turned * DualQuaternion.from_translation([0.7, -1.2, 0.4])
    shifted = Mechanism(sixbar.motion, sixbar.driving_axis, tool_home)
    arrays = [rng.normal(size=(4, 8)) for _ in range(10)]
    arrays += [m._tool_coeffs for m in (sixbar, bennett, shifted)]
    for c in arrays:
        action = motionpoly._point_action(c)
        for _ in range(2):
            acted = motionpoly._affine_action(action, rng.normal(size=3))
            assert np.max(np.abs(acted[:, 1:5])) <= 1e-12 * np.max(np.abs(acted))


def test_point_paths_share_one_action_basis():
    # every path combines the same affine action basis; each path is
    # checked pointwise against evaluate(t).act_on_point(x), which does
    # not use the basis
    motion = MotionPolynomial(SIXBAR_COEFFS)
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = rng.uniform(-2.0, 2.0, size=3)
        path = motion.point_path(x)
        for t in (-1.0, 0.3, SQRT3, 2.5):
            direct = motion.evaluate(t).act_on_point(x)
            assert np.allclose(path.point(t), direct, rtol=0.0, atol=1e-9)


def test_point_action_matches_direct_convolution(rng):
    # reference: the two convolutions with the embedded point itself;
    # x0 takes no term from the point, so it agrees bit for bit
    for _ in range(5):
        c = rng.normal(size=(4, 8))
        x = rng.normal(size=3)
        embed = np.zeros((1, 8))
        embed[0, 0] = 1.0
        embed[0, 5:8] = x
        want = motionpoly._polymul(
            motionpoly._polymul(motionpoly._eps_conj_rows(c), embed),
            motionpoly._conj_rows(c),
        )
        got = motionpoly._affine_action(motionpoly._point_action(c), x)
        assert np.array_equal(got[:, 0], want[:, 0])
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_cached_action_and_poles_are_read_only(cubic):
    act = motionpoly._point_action(cubic.coeffs)
    assert act.shape == (4, 2 * cubic.degree + 1, 8)
    # B1..B3 hold no x0, so every point path shares the poles of x0
    assert np.all(act[1:, :, 0] == 0.0)
    path = cubic.point_path([0.25, -1.0, 2.0])
    assert np.array_equal(path.x0, act[0, :, 0])
    acted = motionpoly._affine_action(act, [0.25, -1.0, 2.0])
    acted[:] = 0.0
    assert np.any(motionpoly._point_action(cubic.coeffs)[0] != 0.0)


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


def test_constant_path():
    ident = MotionPolynomial(np.array([[1, 0, 0, 0, 0, 0, 0, 0.0]]))
    path = ident.point_path([1.0, 2.0, 3.0])
    assert path.degree == 0
    assert np.allclose(path.point(5.0), [1, 2, 3])


def test_motion_polynomial_input_checks():
    with pytest.raises(ValueError):
        MotionPolynomial(np.zeros((2, 7)))
    for bad in (math.nan, math.inf):
        coeffs = SIXBAR_COEFFS.astype(float)
        coeffs[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            MotionPolynomial(coeffs)
    with pytest.raises(ValueError):
        MotionPolynomial.from_axes([])
    with pytest.raises(ValueError):
        MotionPolynomial.from_axes([[0.0, 1.0, 0.0]])
    with pytest.raises(StudyViolation, match="numerically zero"):
        MotionPolynomial([[0, 0, 0, 0, 1, 0, 0, 0]])


def test_motion_polynomial_keeps_no_state_beyond_its_coefficients(cubic):
    assert MotionPolynomial.__slots__ == ("_coeffs", "_study_tol")
    coeffs = cubic.coeffs.copy()
    cubic.point_path([0.25, -1.0, 2.0])
    assert np.array_equal(cubic.coeffs, coeffs)
    with pytest.raises(AttributeError):
        cubic._poles = None


def test_point_action_input_checks(cubic):
    with pytest.raises(ValueError):
        cubic.point_path([1.0, 2.0])
    with pytest.raises(ValueError, match="leading coefficient"):
        MotionPolynomial(np.zeros((1, 8)))
    with pytest.raises(ValueError, match="finite"):
        RationalPointPath(np.array([1.0, math.nan]), np.zeros((3, 2)))
    with pytest.raises(ValueError, match="identically zero"):
        RationalPointPath(np.zeros(2), np.ones((3, 2)))


def test_rational_point_path_rejects_derivatives_that_overflow():
    # 2 * 1e308 overflows, though every coefficient is finite; the check
    # raises before numpy warns about the multiply
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="derivatives must be finite"):
            RationalPointPath([1e308, 0.0, 1e308], np.full((3, 3), 1e308))
        path = RationalPointPath([1e308, 0.0, 0.5e308], np.full((3, 3), 0.5e308))
    assert np.all(np.isfinite(path.x0d)) and np.all(np.isfinite(path.xid))


def test_rational_point_path_shape_checks():
    with pytest.raises(ValueError):
        RationalPointPath(np.array([1.0, 2.0]), np.zeros((2, 2)))
