import math
import warnings

import numpy as np
import pytest

from dqlink import (
    CANONICAL_TOL,
    DegenerateDisplacement,
    DualQuaternion,
    ZeroDirection,
    ZeroElement,
    _kernels,
    line_from_point_direction,
)
from dqlink.dq import _CONJ_SIGNS, _binary_normalized, _is_study, _norm_parts, _primal_vanishes

I = DualQuaternion([0, 1, 0, 0, 0, 0, 0, 0])
J = DualQuaternion([0, 0, 1, 0, 0, 0, 0, 0])
K = DualQuaternion([0, 0, 0, 1, 0, 0, 0, 0])
EPS = DualQuaternion([0, 0, 0, 0, 1, 0, 0, 0])


def random_dq(rng):
    return DualQuaternion(rng.normal(size=8))


def scaled(k, h):
    return DualQuaternion(k * h.coeffs)


def random_displacement(rng):
    # rotation times translation satisfies the Study condition exactly
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    rot = DualQuaternion([q[0], q[1], q[2], q[3], 0, 0, 0, 0])
    return DualQuaternion.from_translation(rng.normal(size=3)) * rot


def ref_mul(a, b):
    """Independent product oracle via the quaternion block formula."""

    def qmul(p, q):
        w = p[0] * q[0] - p[1] * q[1] - p[2] * q[2] - p[3] * q[3]
        x = p[0] * q[1] + p[1] * q[0] + p[2] * q[3] - p[3] * q[2]
        y = p[0] * q[2] - p[1] * q[3] + p[2] * q[0] + p[3] * q[1]
        z = p[0] * q[3] + p[1] * q[2] - p[2] * q[1] + p[3] * q[0]
        return np.array([w, x, y, z])

    primal = qmul(a[:4], b[:4])
    dual = qmul(a[:4], b[4:]) + qmul(a[4:], b[:4])
    return np.concatenate([primal, dual])


def test_constructor_rejects_bad_input():
    with pytest.raises(ValueError):
        DualQuaternion([1, 2, 3])
    with pytest.raises(ValueError):
        DualQuaternion([np.nan, 0, 0, 0, 0, 0, 0, 0])
    with pytest.raises(ValueError):
        DualQuaternion([np.inf, 0, 0, 0, 0, 0, 0, 0])


def test_coefficients_are_immutable():
    h = DualQuaternion(np.arange(8.0))
    with pytest.raises(ValueError):
        h.coeffs[0] = 99.0
    src = np.arange(8.0)
    g = DualQuaternion(src)
    src[0] = -1.0
    assert g.coeffs[0] == 0.0


def test_identity_and_parts():
    e = DualQuaternion.identity()
    assert np.array_equal(e.coeffs, [1, 0, 0, 0, 0, 0, 0, 0])
    h = DualQuaternion(np.arange(8.0))
    assert np.array_equal(h.primal, [0, 1, 2, 3])
    assert np.array_equal(h.dual, [4, 5, 6, 7])


def test_quaternion_unit_products():
    assert np.array_equal((I * J).coeffs, K.coeffs)
    assert np.array_equal((J * K).coeffs, I.coeffs)
    assert np.array_equal((K * I).coeffs, J.coeffs)
    assert np.array_equal((J * I).coeffs, -K.coeffs)
    assert np.array_equal((I * I).coeffs, [-1, 0, 0, 0, 0, 0, 0, 0])
    # the dual unit squares to zero and commutes
    assert np.array_equal((EPS * EPS).coeffs, np.zeros(8))
    assert np.array_equal((EPS * I).coeffs, (I * EPS).coeffs)


def test_multiplication_matches_reference(rng):
    for _ in range(50):
        a, b = rng.normal(size=8), rng.normal(size=8)
        got = (DualQuaternion(a) * DualQuaternion(b)).coeffs
        assert np.allclose(got, ref_mul(a, b), atol=1e-12)


def test_multiplication_is_associative(rng):
    for _ in range(30):
        a, b, c = (random_dq(rng) for _ in range(3))
        lhs = ((a * b) * c).coeffs
        rhs = (a * (b * c)).coeffs
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_scalar_and_linear_operators():
    # the product and the difference are the only operators; scalars
    # scale the coefficients, DualQuaternion(k * h.coeffs)
    h = DualQuaternion(np.arange(8.0))
    assert np.array_equal((h - h).coeffs, np.zeros(8))
    ops = (lambda: h * "nope", lambda: h * 2, lambda: 2 * h, lambda: h + h, lambda: -h)
    for op in ops:
        with pytest.raises(TypeError):
            op()


def test_conjugation_is_anti_homomorphism(rng):
    for _ in range(30):
        a, b = random_dq(rng), random_dq(rng)
        lhs = (a * b).conjugate().coeffs
        rhs = (b.conjugate() * a.conjugate()).coeffs
        assert np.allclose(lhs, rhs, atol=1e-12)
    h = random_dq(rng)
    assert np.array_equal(h.conjugate().conjugate().coeffs, h.coeffs)


def test_norm_parts_known_values():
    # primal and dual part of h * conj(h)
    assert _norm_parts(np.array([1.0, 0, 0, 0, 1, 0, 0, 0]))[:2] == (1.0, 2.0)
    assert _norm_parts(np.array([0.0, 0, 3, 0, 0, 0, 0, 1]))[:2] == (9.0, 0.0)
    assert _norm_parts(DualQuaternion.identity().coeffs)[:2] == (1.0, 0.0)


def test_norm_vector_parts_vanish(rng):
    for _ in range(30):
        h = random_dq(rng)
        n = (h * h.conjugate()).coeffs
        assert np.allclose(n[[1, 2, 3, 5, 6, 7]], 0.0, atol=1e-12)


def test_norm_parts_are_multiplicative(rng):
    for _ in range(30):
        a, b = random_dq(rng), random_dq(rng)
        pa, da, _ = _norm_parts(a.coeffs)
        pb, db, _ = _norm_parts(b.coeffs)
        pab, dab, _ = _norm_parts((a * b).coeffs)
        assert math.isclose(pab, pa * pb, rel_tol=1e-10, abs_tol=1e-10)
        assert math.isclose(dab, pa * db + da * pb, rel_tol=1e-10, abs_tol=1e-10)


def test_study_condition(rng):
    assert DualQuaternion.from_translation([-2, 0, 0]).is_study()
    # far from the origin the dual part dominates, yet the primal part
    # does not vanish
    assert DualQuaternion.from_translation([1e5, 0, 0]).is_study()
    assert not DualQuaternion([1, 0, 0, 0, 1, 0, 0, 0]).is_study()
    # zero primal norm fails even though the defect vanishes
    assert not DualQuaternion([0, 0, 0, 0, 0, 1, 0, 0]).is_study()
    for _ in range(20):
        h = random_displacement(rng)
        assert h.study_defect() <= 1e-12
        assert scaled(3.7, h).is_study()


def test_study_condition_at_extreme_scales(rng):
    h = random_displacement(rng)
    bent = DualQuaternion(h.coeffs + [0, 0, 0, 0, 1e-3, 0, 0, 0])
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        for scale in (1e160, 1e-10, 1e-160):
            sh, sbent = scaled(scale, h), scaled(scale, bent)
            assert np.allclose(
                sh.canonical().coeffs, h.canonical().coeffs, rtol=1e-14, atol=0.0
            )
            assert np.allclose(
                sh.act_on_point([0.1, 0.2, 0.3]),
                h.act_on_point([0.1, 0.2, 0.3]),
                rtol=1e-14,
                atol=1e-15,
            )
            assert sh.is_study()
            assert sh.study_defect() <= 1e-12
            assert not sbent.is_study()
            assert math.isclose(sbent.study_defect(), bent.study_defect(), rel_tol=1e-12)
        # a power-of-two scale is exact, so the defect is scale invariant
        # to the bit; the decimal scales above also round the coefficients
        for k in (40, 500, 1000):
            for scale in (2.0**k, 2.0**-k):
                assert scaled(scale, h).study_defect() == h.study_defect()
                assert scaled(scale, bent).study_defect() == bent.study_defect()


def _product_norm(c):
    n = _kernels.dq_mul8(c, c * _CONJ_SIGNS)
    return float(n[0]), float(n[4])


def test_norm_parts_match_the_product(rng):
    # _norm_parts of binary normalized coefficients, which the Study gate
    # reads, over binary scales 2**-600 ... 2**600; _norm_parts of the
    # element itself wherever |c|**2 is a normal float
    for exponent in rng.integers(-600, 601, size=1000):
        c = np.ldexp(rng.normal(size=8), int(exponent))
        b = _binary_normalized(c)
        pp, dual, scale = _norm_parts(b)
        want = _product_norm(b)
        tol = 4.0 * np.spacing(float(np.dot(b, b)))
        assert abs(pp - want[0]) <= tol and abs(dual - want[1]) <= tol
        assert abs(scale - float(np.dot(b, b))) <= tol
        with np.errstate(all="ignore"):
            size = float(np.dot(c, c))
        if np.finfo(float).tiny <= size < np.inf:
            got, want = _norm_parts(c), _product_norm(c)
            tol = 4.0 * np.spacing(size)
            assert abs(got[0] - want[0]) <= tol and abs(got[1] - want[1]) <= tol


def test_study_verdicts_at_extreme_scales_match_the_product(rng):
    # the verdicts of test_study_condition_at_extreme_scales, taken from
    # the norm pair of the product instead of _norm_parts
    def product_is_study(c, tol):
        b = _binary_normalized(c)
        primal, dual = _product_norm(b)
        scale = float(np.dot(b, b))
        return not _primal_vanishes(primal, scale) and abs(dual) / scale <= tol

    h = random_displacement(rng)
    bent = DualQuaternion(h.coeffs + [0, 0, 0, 0, 1e-3, 0, 0, 0])
    for scale in (1.0, 1e160, 1e-10, 1e-160):
        for c in (scale * h.coeffs, scale * bent.coeffs):
            b = _binary_normalized(c)
            for tol in (1e-12, 1e-9, 1e-3):
                assert _is_study(b, tol) == product_is_study(c, tol)


def test_point_embedding_roundtrip():
    p = DualQuaternion.from_point([1.5, -2.0, 0.25])
    assert np.array_equal(p.coeffs, [1, 0, 0, 0, 0, 1.5, -2.0, 0.25])
    # any scalar multiple of the embedding reads back the same point
    for q in (p, scaled(-2.0, p)):
        assert np.allclose(q.coeffs[5:8] / q.coeffs[0], [1.5, -2.0, 0.25])


def test_from_translation_moves_points(rng):
    v = np.array([0.0, -0.170, 0.0])
    h = DualQuaternion.from_translation(v)
    assert np.array_equal(h.coeffs, [1, 0, 0, 0, 0, 0, 0.085, 0])
    assert np.allclose(h.act_on_point([0, 0, 0]), v)
    for _ in range(10):
        v, x = rng.normal(size=3), rng.normal(size=3)
        got = DualQuaternion.from_translation(v).act_on_point(x)
        assert np.allclose(got, x + v, atol=1e-12)
    for v in ([1e5, 0, 0], [0, -3e8, 2e8]):
        got = DualQuaternion.from_translation(v).act_on_point([1.0, 2.0, 3.0])
        assert np.allclose(got, np.add(v, [1.0, 2.0, 3.0]), rtol=1e-15, atol=0.0)


def test_act_on_point_rotation():
    c, s = math.cos(math.pi / 4), math.sin(math.pi / 4)
    rot_z = DualQuaternion([c, 0, 0, s, 0, 0, 0, 0])
    assert np.allclose(rot_z.act_on_point([1, 0, 0]), [0, 1, 0], atol=1e-15)
    assert np.allclose(rot_z.act_on_point([0, 0, 2]), [0, 0, 2], atol=1e-15)


def test_act_on_point_accepts_embedded_form():
    h = DualQuaternion.from_translation([1, 2, 3])
    y = h.act_on_point(DualQuaternion.from_point([0, 0, 0]))
    assert isinstance(y, DualQuaternion)
    assert np.allclose(y.coeffs[5:8] / y.coeffs[0], [1, 2, 3])


def test_act_on_point_is_scale_invariant_and_isometric(rng):
    for _ in range(20):
        h = random_displacement(rng)
        x, y = rng.normal(size=3), rng.normal(size=3)
        hx, hy = h.act_on_point(x), h.act_on_point(y)
        d0 = np.linalg.norm(x - y)
        assert abs(np.linalg.norm(hx - hy) - d0) <= 1e-9 * (1 + d0)
        assert np.allclose(scaled(-0.37, h).act_on_point(x), hx, atol=1e-9)


def test_act_on_point_rejects_degenerate():
    eps_i = DualQuaternion([0, 0, 0, 0, 0, 1, 0, 0])
    with pytest.raises(DegenerateDisplacement):
        eps_i.act_on_point([1, 0, 0])


def test_canonical_scales_leading_coordinate():
    p = DualQuaternion([-1.732, -3, -15, 1.732, -7, -12.124, 3.464, 2])
    c = p.canonical()
    assert c.coeffs[0] == 1.0
    assert np.allclose(c.coeffs, p.coeffs / -1.732)
    # projective representatives normalize identically
    assert np.allclose(scaled(5.0, p).canonical().coeffs, c.coeffs, atol=1e-15)


def test_canonical_unit_branch():
    a = DualQuaternion([0, 0, 0, 0, 0, -2, 0, 0])
    c = a.canonical()
    assert np.allclose(c.coeffs, [0, 0, 0, 0, 0, 1, 0, 0])
    line = DualQuaternion([0, 0, 3, 0, 0, 0, 0, 1])
    cl = line.canonical()
    assert math.isclose(np.linalg.norm(cl.coeffs), 1.0, rel_tol=1e-15)
    assert cl.coeffs[2] > 0


def test_canonical_is_idempotent(rng):
    for _ in range(20):
        h = random_dq(rng)
        once = h.canonical()
        assert np.array_equal(once.canonical().coeffs, once.coeffs)
    with pytest.raises(ZeroElement):
        DualQuaternion(np.zeros(8)).canonical()


def test_canonical_branch_choice_is_scale_relative():
    # a small c0 next to large entries must not trip the leading branch
    h = DualQuaternion([CANONICAL_TOL / 10, 1e6, 0, 0, 0, 0, 0, 0])
    assert abs(np.linalg.norm(h.canonical().coeffs) - 1.0) < 1e-12


def test_line_from_point_direction_reproduces_axes():
    h1 = line_from_point_direction([1, 0, 0], [0, 0, 0])
    assert np.array_equal(h1.coeffs, [0, 1, 0, 0, 0, 0, 0, 0])
    h2 = line_from_point_direction([0, 3, 0], [1 / 3, 0, 0])
    assert np.allclose(h2.coeffs, [0, 0, 3, 0, 0, 0, 0, 1])
    h3 = line_from_point_direction([1, 1, 0], [-1, 1, 0])
    assert np.allclose(h3.coeffs, [0, 1, 1, 0, 0, 0, 0, -2])


def test_line_normalization_and_errors():
    h = line_from_point_direction([0, 0, 2], [1, 0, 0], normalized=True)
    assert np.allclose(h.coeffs, [0, 0, 0, 1, 0, 0, -1, 0])
    with pytest.raises(ZeroDirection):
        line_from_point_direction([0, 0, 0], [1, 2, 3])
    with pytest.raises(ValueError):
        line_from_point_direction([1, 0], [0, 0, 0])


def test_line_direction_at_any_float_scale(rng):
    point = np.array([1.0, 2.0, 3.0])
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        for scale in (1e200, 1e-200, 1e-310):
            h = line_from_point_direction([scale, 0, 0], point, normalized=True)
            assert np.array_equal(h.coeffs, [0, 1, 0, 0, 0, 0, 3, -2])
        # an exact power of two leaves the normalized line's bits unchanged
        for _ in range(10):
            d, q = rng.normal(size=3), rng.normal(size=3)
            want = line_from_point_direction(d, q, normalized=True).coeffs
            for exponent in (-1000, -300, 300, 1000):
                got = line_from_point_direction(np.ldexp(d, exponent), q, normalized=True)
                assert np.array_equal(got.coeffs, want)
    # a tiny direction is a direction; only the zero vector is not
    h = line_from_point_direction([0, 1e-10, 0], point)
    assert h.coeffs[2] == 1e-10
    with pytest.raises(ZeroDirection):
        line_from_point_direction([0.0, -0.0, 0.0], point, normalized=True)


def test_is_line(rng):
    assert line_from_point_direction([0, 3, 0], [1 / 3, 0, 0]).is_line()
    # moment not orthogonal to direction
    assert not DualQuaternion([0, 1, 0, 0, 0, 1, 0, 0]).is_line()
    # nonzero scalar part
    assert not DualQuaternion([1e-3, 1, 0, 0, 0, 0, 0, 0]).is_line(1e-6)
    assert not DualQuaternion(np.zeros(8)).is_line()
    for _ in range(10):
        d, q = rng.normal(size=3), rng.normal(size=3)
        assert line_from_point_direction(d, q).is_line(1e-12)


def test_is_line_at_any_float_scale():
    line = np.array([0, 1, 0, 0, 0, 0, 0, 0], dtype=float)
    moment = np.array([0, 0, 0, 0, 0, 1, 0, 0], dtype=float)
    scalar = np.array([1, 1, 0, 0, 0, 0, 0, 0], dtype=float)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        for scale in (1.0, 1e200, 1e-200, 2.0**-1000):
            assert DualQuaternion(scale * line).is_line()
            # a pure moment has no direction, and a line has no scalar part
            assert not DualQuaternion(scale * moment).is_line()
            assert not DualQuaternion(scale * scalar).is_line()


def test_embeddings_need_three_numbers():
    with pytest.raises(ValueError):
        DualQuaternion.from_point([1.0, 2.0])
    with pytest.raises(ValueError):
        DualQuaternion.from_translation([1.0, 2.0])


def test_unsupported_operands_raise_type_error():
    h = DualQuaternion.identity()
    for operation in (lambda: h - 1, lambda: h / h, lambda: None * h):
        with pytest.raises(TypeError):
            operation()
