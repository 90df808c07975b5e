"""Reference lengths of tool paths between curve parameters, to 30 digits.

For both fixtures, two tool points and four parameter intervals, the
length of motion.point_path(tool) from t0 to t1 is integrated with
mpmath.quad in the angle phi of t = cot(phi/2).  In that angle the path
is a bounded smooth curve even for |t| in the millions, so wide
intervals converge like narrow ones.  The path's float coefficients are
taken exactly, so each value is the length of the very path that
dqlink.arc_length integrates.

    PYTHONPATH=src python tools/reference_t_arcs.py          # write the file
    PYTHONPATH=src python tools/reference_t_arcs.py --check  # compare only

The file is tests/data/t_arc_references.json, which the tier-1 tests
read without mpmath.  --check recomputes every length and exits 1 when
one differs from the committed value by more than 1e-25 relative.
Needs mpmath, which sympy installs.
"""

import argparse
import json
import math
import pathlib
import sys

from mpmath import mp

from dqlink import load_mechanism

DATA = pathlib.Path(__file__).resolve().parents[1] / "tests" / "data"
OUT = DATA / "t_arc_references.json"
FIXTURES = ("sixbar", "bennett")
TOOLS = ((0.0, 0.0, 0.0), (0.05, -0.1, 0.07))
INTERVALS = ((-1.0, math.sqrt(3.0)), (-10.0, 10.0), (-1e7, 1e7), (0.3, 0.31))
DIGITS = 30
# working precision beyond the digits written, equal pieces of each arc
# in phi, and the agreement --check requires
GUARD = 10
PIECES = 32
CHECK_TOL = 1e-25


def speed(coords, phi):
    """|dP/dphi| of the path with ascending coefficient rows (x0, x1, x2,
    x3), taken as forms of its degree in (a : s) = (cos(phi/2) : sin(phi/2))."""
    deg = len(coords) - 1
    a, s = mp.cos(phi / 2), mp.sin(phi / 2)
    da, ds = -s / 2, a / 2
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


def length(path, t0, t1):
    """Arc length of the path from t0 to t1 and mpmath's error estimate."""
    coords = [[mp.mpf(float(c)) for c in row] for row in zip(path.x0, *path.xi)]
    phi0, phi1 = (2 * mp.atan2(1, mp.mpf(t)) for t in (t0, t1))
    value, err = mp.quad(lambda p: speed(coords, p), mp.linspace(phi1, phi0, PIECES + 1), error=True)
    return abs(value), err


def compute():
    """The reference arcs as dicts, each length to DIGITS digits; raises
    RuntimeError where mpmath's error estimate exceeds 10**-(DIGITS + 2)
    of the length."""
    mp.dps = DIGITS + GUARD
    arcs = []
    for name in FIXTURES:
        motion = load_mechanism(DATA / ("%s.mech" % name)).motion
        for tool in TOOLS:
            path = motion.point_path(tool)
            for t0, t1 in INTERVALS:
                value, err = length(path, t0, t1)
                if err > value * mp.mpf(10) ** -(DIGITS + 2):
                    raise RuntimeError("%s %s [%r, %r]: error estimate %s" % (name, tool, t0, t1, err))
                arcs.append(dict(fixture=name, tool=list(tool), t0=t0, t1=t1, length=mp.nstr(value, DIGITS)))
    return arcs


def dump(arcs) -> str:
    """The reference file, one arc per line."""
    about = "lengths of load_mechanism(fixture).motion.point_path(tool) from t0 to t1"
    rows = ",\n  ".join(json.dumps(arc) for arc in arcs)
    return '{\n "about": %s,\n "digits": %d,\n "arcs": [\n  %s\n ]\n}\n' % (
        json.dumps(about), DIGITS, rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true", help="compare with the committed file")
    args = parser.parse_args(argv)
    fresh = compute()
    if not args.check:
        OUT.write_text(dump(fresh), encoding="utf-8")
        return 0
    committed = json.loads(OUT.read_text(encoding="utf-8"))["arcs"]
    keys = ("fixture", "tool", "t0", "t1")
    if [[a[k] for k in keys] for a in committed] != [[a[k] for k in keys] for a in fresh]:
        print("the committed arcs are not the arcs this script computes")
        return 1
    bad = 0
    for old, new in zip(committed, fresh):
        gap = abs(mp.mpf(old["length"]) / mp.mpf(new["length"]) - 1)
        if gap > CHECK_TOL:
            bad += 1
            print("%s %s [%r, %r]: committed %s, computed %s" % (
                old["fixture"], old["tool"], old["t0"], old["t1"], old["length"], new["length"]))
    print("%d of %d reference arcs differ" % (bad, len(committed)))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
