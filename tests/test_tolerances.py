import ast
import math
import pathlib
import re

import numpy as np
import pytest

import dqlink
from dqlink import (
    DualQuaternion,
    IKOptions,
    Mechanism,
    MotionPolynomial,
    NoConvergence,
    PoleOnPath,
    _tolerances,
    direct_kinematics,
    dq,
    inverse_kinematics,
    kinematics,
    motionpoly,
    trajectory,
)
from dqlink.dq import _binary_normalized

SRC = pathlib.Path(_tolerances.__file__).resolve().parent
TESTS = pathlib.Path(__file__).resolve().parent


def tolerance_literals(source: str) -> list:
    """(line, value) of each float literal with 0 < |v| < 1e-3 or |v| >= 1e3."""
    return sorted(
        (node.lineno, node.value)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant)
        and type(node.value) is float
        and (0.0 < abs(node.value) < 1e-3 or abs(node.value) >= 1e3)
    )


def ledger_rows() -> list:
    """(name, value, text) of each row of the ledger's docstring table."""
    lines = _tolerances.__doc__.splitlines()
    rules = [i for i, line in enumerate(lines) if line.startswith("=====")]
    rows = []
    for line in lines[rules[1] + 1 : rules[2]]:
        if line[:1].strip():
            name, value = line.split()[:2]
            rows.append([name, value, line])
        else:
            rows[-1][2] += " " + line.strip()
    return rows


def test_tolerances_are_defined_only_in_the_ledger():
    # every float literal that reads as a tolerance or a bound, small or
    # large, lives in dqlink._tolerances; fifteen of them today
    found = {
        path.name: tolerance_literals(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
    }
    assert len(found.pop("_tolerances.py")) == 15
    assert {name: hits for name, hits in found.items() if hits} == {}
    # the scan sees an inline tolerance
    assert tolerance_literals("tol = 1e-12 * (1.0 + span)\nbig = 2.5e3\n") == [
        (1, 1e-12),
        (2, 2.5e3),
    ]


def test_ledger_table_matches_its_constants():
    rows = ledger_rows()
    constants = {
        name: value
        for name, value in vars(_tolerances).items()
        if name.isupper() and isinstance(value, float)
    }
    assert [name for name, _, _ in rows] == list(constants)
    # the public names keep their values, from dqlink and from dqlink.dq
    for name in ("TOL", "STUDY_TOL", "CANONICAL_TOL"):
        assert getattr(dqlink, name) == getattr(dq, name) == constants[name]
    tests = "\n".join(path.read_text(encoding="utf-8") for path in TESTS.glob("test_*.py"))
    for name, value, text in rows:
        assert float(value) == constants[name], name
        # the test named as the holder of each value exists
        holders = re.findall(r"held by (test_\w+)", text)
        assert holders, name
        for holder in holders:
            assert re.search(r"^def %s\(" % holder, tests, re.M), (name, holder)


def test_zero_tests_act_at_their_tolerance():
    # the values of the ledger, written out: each check passes at half its
    # tolerance and fails at twice it, so a value moved by more than a
    # factor of two fails here; TOL = 1e-9 on a Pluecker line's dual scalar
    assert DualQuaternion([0, 1, 0, 0, 0.5e-9, 0, 0, 0]).is_line()
    assert not DualQuaternion([0, 1, 0, 0, 2e-9, 0, 0, 0]).is_line()
    # STUDY_TOL = 1e-9 on the dual norm part 2 * c0 * c4, with |c|**2 = 1
    assert DualQuaternion([1, 0, 0, 0, 0.25e-9, 0, 0, 0]).is_study()
    assert not DualQuaternion([1, 0, 0, 0, 1e-9, 0, 0, 0]).is_study()
    # CANONICAL_TOL = 1e-6: division by c0 above it
    assert DualQuaternion([2e-6, 1, 0, 0, 0, 0, 0, 0]).canonical().coeffs[0] == 1.0
    assert DualQuaternion([0.5e-6, 1, 0, 0, 0, 0, 0, 0]).canonical().coeffs[0] < 1e-5
    # UNIT_NORM_TOL = 4e-16: |c| - 1 of 2**-52 (2.2e-16) keeps the bits,
    # 2**-50 (8.9e-16) divides
    for c1, want in ((1.0 + 2.0**-52, 1.0 + 2.0**-52), (1.0 + 2.0**-50, 1.0)):
        assert DualQuaternion([0, c1, 0, 0, 0, 0, 0, 0]).canonical().coeffs[1] == want
    # REL_ZERO = 1e-14 on a top coefficient
    assert motionpoly._degree(np.array([1.0, 0.0, 0.5e-14])) == 0
    assert motionpoly._degree(np.array([1.0, 0.0, 2e-14])) == 2
    # REAL_ROOT_TOL = 1e-8 on the roots +-i*e of t**2 + e**2
    assert motionpoly._real_roots(np.array([0.5e-8**2, 0.0, 1.0])).size == 2
    assert motionpoly._real_roots(np.array([2e-8**2, 0.0, 1.0])).size == 0
    # POLE_MARGIN = 1e-12 times 1 + 1 around [0, 1], and the same around
    # [600, 601]: the margin grows with the span, not with the angles
    for lo in (0.0, 600.0):
        with pytest.raises(PoleOnPath):
            trajectory._check_poles(np.array([lo + 1.0 + 1e-12]), lo, lo + 1.0)
        trajectory._check_poles(np.array([lo + 1.0 + 4e-12]), lo, lo + 1.0)


def count_residuals(monkeypatch) -> list:
    """A list that grows by one at each residual evaluation of the IK polish."""
    calls = []
    terms = kinematics._residual_terms
    monkeypatch.setattr(kinematics, "_residual_terms", lambda *a: calls.append(1) or terms(*a))
    return calls


def polish(monkeypatch, psi0, psi_target, unreached=0.0, scale=1.0):
    """Iterations and residual evaluations of the IK polish on the motion
    scale + t*i, with t = cot(psi), from psi0 towards its pose at
    psi_target, moved by unreached along j.  The normalized error at psi
    is (0, (t(psi_target) - t(psi))/scale, unreached), with t(psi_target)
    as the polish itself evaluates it, so the polish can reach it."""
    coeffs = np.zeros((2, 8))
    coeffs[0, 0], coeffs[1, 1] = scale, 1.0
    form = Mechanism(MotionPolynomial(coeffs), [0.0, 1.0, 0.0, 0.0])._polish
    pose = -kinematics._residual_terms(form, kinematics._Target(np.eye(8)[0]), psi_target)[1]
    pose[0], pose[2] = 1.0, unreached
    calls = count_residuals(monkeypatch)
    iterations = kinematics._refine(form, kinematics._Target(pose), psi0)[2]
    monkeypatch.undo()
    return iterations, len(calls)


def test_polish_stops_at_its_tolerances(monkeypatch):
    # RESIDUAL_FLOOR = 1e-32: a start with a residual below it is final.
    # On the motion 2**20 + t*i the residual at psi0 = 1 of a target dpsi
    # away is about (dpsi / (2**20 sin(1)**2))**2
    for share, iterations in ((0.5, 0), (2.0, 1)):
        dpsi = math.sqrt(share * 1e-32) * 2.0**20 * math.sin(1.0) ** 2
        assert polish(monkeypatch, 1.0, 1.0 - dpsi, scale=2.0**20)[0] == iterations
    # STEP_TOL = 1e-10 in psi: an accepted step that moves psi by at most
    # it ends the polish; after a longer one the polish tries one more
    # step, which at the unreachable residual 1e-30 moves psi by far less
    assert polish(monkeypatch, 1.0, 1.0 - 0.5e-10, 1e-15) == (1, 2)
    assert polish(monkeypatch, 1.0, 1.0 - 2e-10, 1e-15)[1] == 3


def test_slope_floor_and_success_tol(monkeypatch):
    # C(t) = t**2 + i, with t = cot(psi): the normalized curve is
    # (1, tan(psi)**2), whose slope is about 2 psi next to home
    coeffs = np.zeros((3, 8))
    coeffs[0, 1] = coeffs[2, 0] = 1.0
    mech = Mechanism(MotionPolynomial(coeffs), [0.0, 1.0, 0.0, 0.0])
    target = kinematics._Target(np.array([1.0, 0, 0.1, 0, 0, 0, 0, 0]))
    # SLOPE_FLOOR = 1e-300: at a squared slope 4 psi**2 below it no trial
    # step is evaluated
    calls = count_residuals(monkeypatch)
    kinematics._refine(mech._polish, target, math.sqrt(0.5e-300 / 4))
    assert len(calls) == 1
    kinematics._refine(mech._polish, target, math.sqrt(2e-300 / 4))
    assert len(calls) > 2
    monkeypatch.undo()
    # SUCCESS_TOL = 1e-10: the pose (1, 0, d) is reached at home to the
    # residual d**2
    assert IKOptions().success_tol == 1e-10
    pose = DualQuaternion([1, 0, math.sqrt(0.5e-10), 0, 0, 0, 0, 0])
    assert inverse_kinematics(mech, pose).residual <= 1e-10
    with pytest.raises(NoConvergence):
        inverse_kinematics(mech, DualQuaternion([1, 0, math.sqrt(2e-10), 0, 0, 0, 0, 0]))


def test_knot_tolerance_is_a_fraction_of_a_segment(monkeypatch):
    # KNOT_TOL = 0.5e-8 of a segment.  A constant speed over [0, 1] gives
    # a one-level table of two halves of width 0.5, on which the knot
    # guesses are exact; a guess moved by ds in the centred panel variable
    # misses its length by ds / 4 and is accepted in the first pass when
    # that is at most KNOT_TOL segments
    calls = []

    def speed(x):
        calls.append(1)
        return np.ones_like(x)

    table = trajectory._Table(speed, 1.0, 1, 1e-10)
    guess, n = trajectory._newton_in_panel, 8
    for segments, passes in ((0.5, 1), (2.0, 2)):
        ds = 4.0 * segments * 0.5e-8 / n
        monkeypatch.setattr(trajectory, "_newton_in_panel", lambda c, s: guess(c, s) + ds)
        calls.clear()
        trajectory._knots(table, np.arange(n + 1) / n)
        assert len(calls) == passes


def pencil(coeffs, p8) -> tuple:
    """Eigenvalues, ascending, of the pencil (P, Q) of the Rayleigh start
    and the eigenvector of the smallest, in the monomial basis, from
    products of dual quaternions and a dense eigenvalue solve of Q^-1 P."""
    conj_p = DualQuaternion(p8).conjugate()
    v = np.array([(DualQuaternion(c) * conj_p).coeffs[[1, 2, 3, 5, 6, 7]] for c in coeffs])
    lam, vecs = np.linalg.eig(np.linalg.solve(coeffs @ coeffs.T, v @ v.T))
    order = np.argsort(lam.real)
    return lam.real[order], vecs[:, order[0]].real, v


def start_ratio(coeffs, p8) -> float:
    """N/S at the start that the smallest eigenvector w gives, relative
    to the largest eigenvalue of the pencil: at w[1] / w[0], or at
    w[-1] / w[-2] where |w[-1]| > |w[0]|."""
    lam, w, v = pencil(coeffs, p8)
    t = w[-1] / w[-2] if abs(w[-1]) > abs(w[0]) else w[1] / w[0]
    m = t ** np.arange(w.size)
    return float(np.sum((m @ v) ** 2) / np.sum((m @ coeffs) ** 2)) / lam[-1]


def tuned(quantity, x0, target):
    """x with quantity(x) near target, for a quantity that grows as x**2."""
    x = x0 * math.sqrt(target / quantity(x0))
    assert 0.7 * target <= quantity(x) <= 1.4 * target
    return x


def test_start_delta_bounds_the_ratio_at_the_start(sixbar):
    # START_DELTA = 1e-12: a sixbar pose moved off the motion by a
    # translation of length e has N/S at its start of about e**2; the
    # start is certified at half of START_DELTA and refused at twice it
    coeffs = sixbar._tool_coeffs
    form = sixbar._ik_form
    pose = direct_kinematics(sixbar, 1.0)

    def moved(e):
        shift = DualQuaternion.from_translation([0.6 * e, -0.8 * e, 0.0])
        return _binary_normalized((pose * shift).coeffs)

    for share, certified in ((0.5, True), (2.0, False)):
        e = tuned(lambda e: start_ratio(coeffs, moved(e)), 1e-5, share * 1e-12)
        v = (moved(e) @ form[0]).reshape(-1, 6)
        start = kinematics._rayleigh_start(form[-1], form[2][-1], v, sixbar._axis)
        assert (start is not None) == certified


def test_start_gap_bounds_the_second_eigenvalue():
    # START_GAP = 1e-6: coefficients with scalar part 1 + t**2, dual
    # scalar t and vector parts (t - 1/2) i + g (t - 1/2)(t + 2) eps*j
    # reach the identity at t = 1/2 only; the second eigenvalue of the
    # pencil grows as g**2, and the start is refused at half of START_GAP
    # and certified at twice it, as the half angle atan2(1, 1/2) of t = 1/2
    # on the axis (q0, r) = (0, 1), rounded to 2**-40
    def coeffs(g):
        c = np.zeros((3, 8))
        c[0, 0] = c[2, 0] = c[1, 4] = 1.0
        c[:2, 1] = -0.5, 1.0
        c[:, 6] = -g, 1.5 * g, g
        return c

    def gap(g):
        lam = pencil(coeffs(g), np.eye(8)[0])[0]
        return (lam[1] - lam[0]) / lam[-1]

    p8 = _binary_normalized(np.eye(8)[0])
    for share, certified in ((0.5, False), (2.0, True)):
        form = kinematics._start_form(coeffs(tuned(gap, 1e-3, share * 1e-6)))
        v = (p8 @ form[0]).reshape(-1, 6)
        start = kinematics._rayleigh_start(form[-1], form[2][-1], v, (0.0, 1.0))
        assert (start is not None) == certified
        assert not certified or abs(start - math.atan2(1.0, 0.5)) <= 2.0**-41
