"""Reference lengths of tool paths, to 30 digits.

For both fixtures, two tool points and four parameter intervals, the
length of motion.point_path(tool) from t0 to t1 is integrated with
mpmath.quad in the angle phi of t = cot(phi/2).  In that angle the path
is a bounded smooth curve even for |t| in the millions, so wide
intervals converge like narrow ones.  The path's float coefficients are
taken exactly, so each value is the length of the very path that
dqlink.arc_length integrates.

The joint-angle arcs of both fixtures are integrated the same way in
each mechanism's own chart, t = q0 + r*cot(theta/2), with its float q0
and r (Mechanism._axis) taken exactly, from theta0 over the float travel
that dqlink.resolve_arc gives for the direction: the arcs that
dqlink.arc_length_between measures.  Their tool point path is formed
here, in mpmath, from the float coefficients of the motion, the tool
frame and the tool point, so each value is the length of the mechanism
as stored, whatever dqlink rounds on the way.

    PYTHONPATH=src python tools/reference_t_arcs.py          # write the files
    PYTHONPATH=src python tools/reference_t_arcs.py --check  # compare only

The files are tests/data/t_arc_references.json and
tests/data/joint_arc_references.json, which the tier-1 tests read
without mpmath.  --check recomputes every length and exits 1 when one
differs from the committed value by more than 1e-25 relative.  Needs
mpmath, which sympy installs.
"""

import argparse
import json
import math
import pathlib
import sys

from mpmath import mp

from dqlink import load_mechanism, resolve_arc

DATA = pathlib.Path(__file__).resolve().parents[1] / "tests" / "data"
OUT = DATA / "t_arc_references.json"
JOINT_OUT = DATA / "joint_arc_references.json"
FIXTURES = ("sixbar", "bennett")
TOOLS = ((0.0, 0.0, 0.0), (0.05, -0.1, 0.07))
INTERVALS = ((-1.0, math.sqrt(3.0)), (-10.0, 10.0), (-1e7, 1e7), (0.3, 0.31))
# joint-angle arcs as theta0, theta1, direction and tool, on both fixtures
JOINT_ARCS = (
    (5.893, 0.331, "short", TOOLS[0]),
    (0.331, 5.893, "long", TOOLS[0]),
    (1.047198, 4.712389, "increasing", TOOLS[1]),
    (6.0, 0.3, "short", TOOLS[1]),
    (2.0, 2.3, "decreasing", TOOLS[0]),
)
DIGITS = 30
# working precision beyond the digits written, equal pieces of each arc
# in phi, and the agreement --check requires
GUARD = 10
PIECES = 32
CHECK_TOL = 1e-25


def speed(coords, phi, q0, r):
    """|dP/dphi| of the path with ascending coefficient rows (x0, x1, x2,
    x3), taken as forms of its degree in (a : s) = (r*cos(phi/2) +
    q0*sin(phi/2) : sin(phi/2)), so that t = a/s = q0 + r*cot(phi/2)."""
    deg = len(coords) - 1
    cos, s = mp.cos(phi / 2), mp.sin(phi / 2)
    a, da, ds = r * cos + q0 * s, (q0 * cos - r * s) / 2, cos / 2
    hom, dhom = [mp.zero] * 4, [mp.zero] * 4
    for k, row in enumerate(coords):
        term = a**k * s ** (deg - k)
        dterm = mp.zero
        if k:
            dterm += k * a ** (k - 1) * s ** (deg - k) * da
        if k < deg:
            dterm += (deg - k) * a**k * s ** (deg - k - 1) * ds
        for i, c in enumerate(row):
            hom[i] += c * term
            dhom[i] += c * dterm
    num = [dhom[i] * hom[0] - hom[i] * dhom[0] for i in (1, 2, 3)]
    return mp.sqrt(sum(v * v for v in num)) / hom[0] ** 2


def quat(a, b):
    """Hamilton product of two quaternions given as 4-lists."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return [
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
        a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
        a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
    ]


def polymul(a, b):
    """Product of two polynomials of dual quaternions, each a list of
    ascending 8-lists (primal then dual part)."""
    out = [[mp.zero] * 8 for _ in range(len(a) + len(b) - 1)]
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            dual = [u + v for u, v in zip(quat(x[:4], y[4:]), quat(x[4:], y[:4]))]
            out[i + j] = [u + v for u, v in zip(out[i + j], quat(x[:4], y[:4]) + dual)]
    return out


def tool_path(mech, tool):
    """Rows (x0, x1, x2, x3) of the homogeneous path of the tool point,
    eps_conj(D) * (1 + eps tool) * conj(D) with D = C * tool_home, from
    the float coefficients taken exactly."""
    exact = lambda rows: [[mp.mpf(float(c)) for c in row] for row in rows]
    d = polymul(exact(mech.motion.coeffs), exact([mech.tool_home.coeffs]))
    eps_conj = [row[:4] + [-c for c in row[4:]] for row in d]
    conj = [[row[0], *(-c for c in row[1:4]), row[4], *(-c for c in row[5:])] for row in d]
    point = exact([(1.0, 0.0, 0.0, 0.0, 0.0) + tuple(tool)])
    return [[row[0], *row[5:]] for row in polymul(polymul(eps_conj, point), conj)]


def length(coords, phi0, phi1, q0=0.0, r=1.0):
    """Arc length of the path with rows coords from the chart angle phi0
    to phi1, to DIGITS digits; raises RuntimeError where mpmath's error
    estimate exceeds 10**-(DIGITS + 2) of the length."""
    q0, r = mp.mpf(q0), mp.mpf(r)
    pieces = mp.linspace(phi0, phi1, PIECES + 1)
    value, err = mp.quad(lambda p: speed(coords, p, q0, r), pieces, error=True)
    value = abs(value)
    if err > value * mp.mpf(10) ** -(DIGITS + 2):
        raise RuntimeError("arc from %s to %s: error estimate %s" % (phi0, phi1, err))
    return mp.nstr(value, DIGITS)


def compute():
    """The t-arcs and the joint-angle arcs, as two lists of dicts."""
    mp.dps = DIGITS + GUARD
    t_arcs, joint_arcs = [], []
    for name in FIXTURES:
        mech = load_mechanism(DATA / ("%s.mech" % name))
        for tool in TOOLS:
            path = mech.motion.point_path(tool)
            coords = [[mp.mpf(float(c)) for c in row] for row in zip(path.x0, *path.xi)]
            for t0, t1 in INTERVALS:
                phi0, phi1 = (2 * mp.atan2(1, mp.mpf(t)) for t in (t0, t1))
                value = length(coords, phi1, phi0)
                t_arcs.append(dict(fixture=name, tool=list(tool), t0=t0, t1=t1, length=value))
        q0, r = mech._axis
        for theta0, theta1, direction, tool in JOINT_ARCS:
            start = mp.mpf(theta0)
            end = start + resolve_arc(theta0, theta1, direction)
            value = length(tool_path(mech, tool), start, end, q0, r)
            joint_arcs.append(dict(
                fixture=name, tool=list(tool), theta0=theta0, theta1=theta1,
                direction=direction, length=value))
    return t_arcs, joint_arcs


def dump(about, arcs) -> str:
    """A reference file, one arc per line."""
    rows = ",\n  ".join(json.dumps(arc) for arc in arcs)
    return '{\n "about": %s,\n "digits": %d,\n "arcs": [\n  %s\n ]\n}\n' % (
        json.dumps(about), DIGITS, rows)


def check(out, fresh) -> int:
    """Arcs of the committed file out that differ from fresh, printed,
    or -1 when the two files do not list the same arcs."""
    committed = json.loads(out.read_text(encoding="utf-8"))["arcs"]
    strip = [{k: v for k, v in arc.items() if k != "length"} for arc in committed]
    if strip != [{k: v for k, v in arc.items() if k != "length"} for arc in fresh]:
        print("the arcs of %s are not the arcs this script computes" % out.name)
        return -1
    bad = 0
    for key, old, new in zip(strip, committed, fresh):
        gap = abs(mp.mpf(old["length"]) / mp.mpf(new["length"]) - 1)
        if gap > CHECK_TOL:
            bad += 1
            print("%s: committed %s, computed %s" % (key, old["length"], new["length"]))
    print("%d of %d reference arcs of %s differ" % (bad, len(committed), out.name))
    return bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true", help="compare with the committed files")
    args = parser.parse_args(argv)
    t_arcs, joint_arcs = compute()
    files = (
        (OUT, "lengths of load_mechanism(fixture).motion.point_path(tool) from t0 to t1", t_arcs),
        (JOINT_OUT, "lengths of arc_length_between(load_mechanism(fixture), theta0, "
         "theta1, tool, direction)", joint_arcs),
    )
    if not args.check:
        for out, about, arcs in files:
            out.write_text(dump(about, arcs), encoding="utf-8")
        return 0
    results = [check(out, arcs) for out, _, arcs in files]
    return 1 if any(results) else 0


if __name__ == "__main__":
    sys.exit(main())
