"""Every tolerance of dqlink, each defined once with its unit.

The modules import these values by name, under their former private
names where they had one (kinematics._STEP_TOL, trajectory._KNOT_TOL,
motionpoly._REL_ZERO and so on), and this module imports nothing from
dqlink.  Units:

- dimensionless: a ratio of two magnitudes of the same data;
- fraction of a path's size: of 2**k, the power of two just above the
  largest harmonic coefficient of a tool path's x1..x3 once x0's largest
  is scaled into [0.5, 1) (dqlink.trajectory), so that it follows the
  length unit;
- t or chart radians: the curve parameter t, or the angle phi of the
  chart in which a tool path is integrated (dqlink.trajectory);
- psi radians: the half joint angle psi = theta/2 in which inverse
  kinematics polishes (dqlink.kinematics);
- squared residual: the squared norm of a normalized pose error
  (dqlink.kinematics), whose representatives have magnitude about 1;
- fraction of a segment: of the nominal length total/n of one
  equidistant step.

================  ======  ====================  ==============================
name              value   unit                  quantity it bounds; held by
================  ======  ====================  ==============================
TOL               1e-9    dimensionless         a structural zero relative to
                                                the magnitude: the scalar parts
                                                and the orthogonality of a
                                                Pluecker line, a vanishing
                                                primal part, the first nonzero
                                                coefficient of a sign scan, the
                                                leading coefficient of a motion
                                                and the vector part of the
                                                driving axis; held by
                                                test_zero_tests_act_at_their_tolerance
STUDY_TOL         1e-9    dimensionless         the default Study tolerance:
                                                the dual norm part of an
                                                element relative to its squared
                                                magnitude, and the dual and
                                                vector parts of a motion's norm
                                                polynomial relative to its
                                                largest real coefficient; held
                                                by
                                                test_zero_tests_act_at_their_tolerance
CANONICAL_TOL     1e-6    dimensionless         |c0| relative to |c| above
                                                which a pose is divided by c0
                                                (DualQuaternion.canonical and
                                                the IK error), below which the
                                                unit-norm representative is
                                                used; held by
                                                test_zero_tests_act_at_their_tolerance
UNIT_NORM_TOL     4e-16   dimensionless         the distance of |c| from 1
                                                within which canonical keeps a
                                                unit-norm element as it is,
                                                two ulp of 1, so that the map
                                                is idempotent to the bit; held
                                                by
                                                test_zero_tests_act_at_their_tolerance
REL_ZERO          1e-14   dimensionless         a coefficient of a real
                                                polynomial relative to its
                                                largest, below which it counts
                                                as zero for the degree, and x0
                                                relative to the homogeneous
                                                point at a pole; held by
                                                test_zero_tests_act_at_their_tolerance
REAL_ROOT_TOL     1e-8    dimensionless         the imaginary part of a root
                                                relative to 1 + |real part|,
                                                below which the root counts as
                                                real (pole detection); held by
                                                test_zero_tests_act_at_their_tolerance
RESIDUAL_FLOOR    1e-32   squared residual      the residual at which the IK
                                                polish stops as converged; held
                                                by test_polish_stops_at_its_tolerances
SLOPE_FLOOR       1e-300  squared residual      the squared slope |dE/dpsi|**2
                          per psi**2            at or below which the IK polish
                                                stops, having no direction to
                                                step in; held by
                                                test_slope_floor_and_success_tol
SUCCESS_TOL       1e-10   squared residual      the polished residual that IK
                                                accepts, the default of
                                                IKOptions.success_tol; held by
                                                test_slope_floor_and_success_tol
STEP_TOL          1e-10   psi radians           an accepted polish step at or
                                                below which the iteration has
                                                stagnated, and the shortest
                                                halved step it tries; held by
                                                test_polish_stops_at_its_tolerances
POLE_MARGIN       1e-12   chart radians,        the distance outside an
                          relative to 1 + span  interval at which a pole of the
                                                path still counts as on it;
                                                held by
                                                test_zero_tests_act_at_their_tolerance
PANEL_TOL         1e-10   fraction of a         the gap between a quadrature
                          path's size           panel and the sum of its halves
                                                at which the panel is kept,
                                                unless arc_length is given an
                                                absolute tol; held by
                                                test_arc_length_call_and_node_budget
                                                and
                                                test_panel_tolerance_follows_the_path_unless_given
KNOT_TOL          0.5e-8  fraction of a         the deviation of a knot's
                          segment               cumulative length from its
                                                target, on chart-angle offsets
                                                (see below); held by
                                                test_knot_tolerance_is_a_fraction_of_a_segment
START_DELTA       1e-12   dimensionless,        the largest N/S at the
                          relative to lam_max   certified IK start t*, and so
                                                the largest smallest eigenvalue
                                                lam0, of the pencil of N and S
                                                (see below); held by
                                                test_start_delta_bounds_the_ratio_at_the_start
START_GAP         1e-6    dimensionless,        the gap lam1 - lam0 of that
                          relative to lam_max   pencil at or below which no
                                                start is certified; held by
                                                test_start_gap_bounds_the_second_eigenvalue
================  ======  ====================  ==============================

KNOT_TOL bounds the knots as offsets in the chart angle, before they
map back to t.  A knot returned as a float t carries up to half an ulp
of t more, so on a short arc far from t = 0 the knots of
trajectory.equidistant_params miss by more: over [t0, t0 + 1e-6] with
40 segments on a sixbar tool path, by 8.8e-9 of a segment at t0 = 2
and 2.8e-7 at t0 = 100, about half an ulp of t in both cases.

START_DELTA and START_GAP are relative to the largest eigenvalue
lam_max of the pencil (P, Q) of kinematics._rayleigh_start, whose
Rayleigh quotient is N/S, the start's squared pose distance without
its common factor |p|**2.  Both lie far from the values that direct
kinematics poses give: over 2,520 seeded poses of the two fixtures and
of 40 generated linkages of one to four axes, |lam0| stayed below
6e-16 and N/S(t*) below 2e-24 of lam_max, and the gap above 5e-5.

Three gates derive from the study_tol of a mechanism file, which is
the motion's norm tolerance (MotionPolynomial); each is written once
below: axis_line_tol for the Pluecker test of the file's axes,
study_floor for the tool displacement, and pose_gate for the target
pose of inverse kinematics.
"""

TOL = 1e-9
STUDY_TOL = 1e-9
CANONICAL_TOL = 1e-6
UNIT_NORM_TOL = 4e-16
REL_ZERO = 1e-14
REAL_ROOT_TOL = 1e-8
RESIDUAL_FLOOR = 1e-32
SLOPE_FLOOR = 1e-300
SUCCESS_TOL = 1e-10
STEP_TOL = 1e-10
POLE_MARGIN = 1e-12
PANEL_TOL = 1e-10
KNOT_TOL = 0.5e-8
START_DELTA = 1e-12
START_GAP = 1e-6


def axis_line_tol(study_tol: float) -> float:
    """Pluecker line tolerance of the axes of a file: no tighter than TOL."""
    return max(TOL, study_tol)


def study_floor(study_tol: float) -> float:
    """Study tolerance of a mechanism's tool: no tighter than STUDY_TOL."""
    return max(study_tol, STUDY_TOL)


def pose_gate(study_tol: float) -> float:
    """Study tolerance of an IK target pose: a hundredfold of study_floor,
    at most 0.1, since evaluating a curve with slightly perturbed
    coefficients amplifies the norm defect pointwise, and the poses of
    such a mechanism's own direct kinematics must pass."""
    return min(0.1, 100.0 * study_floor(study_tol))
