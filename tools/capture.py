"""Seeded record of dqlink's answers, for diffing two source trees.

    PYTHONPATH=src python tools/capture.py [--compare FILE]

Prints one repr line per record, then the sha256 of those lines.  The
records cover direct kinematics and its canonical pose (theta = 0 and
2*pi included), inverse kinematics with its trace, branch and the best
iterate of a NoConvergence, the angle chart both ways, arc_length,
arc_length_between, equidistant_params and equidistant_profile, on both
fixtures and on generated linkages of fixed seeds, arcs of both fixtures
with every length scaled into other units, the fixtures driven about a
long axis and the sixbar about an artificial one, and the stdout and
exit code of every README command line and tests/data/cli_cases.json
case.  An error is recorded by its type and message.  The point at
infinity prints as inf, so a tree that spells it as a marker object
diffs cleanly against one that uses math.inf.  Floats print by repr, so
equal lines mean equal bits; numpy and BLAS builds may round
differently, so the digest is compared between trees on one machine,
never against a stored value.

With --compare FILE, FILE being this script's output for another tree,
it prints a summary instead of the records: for each record kind, how
many records differ from FILE, how many of those change more than
floats (an integer, a string or the shape of the record), and the
largest relative move of their floats; then every record whose error
messages changed, with the old and the new ones.  The i-th record of a
kind is compared with the i-th of that kind in FILE.  The exit code is
0 whether or not records differ.
"""

import argparse
import ast
import contextlib
import hashlib
import io
import math
import pathlib
import re
import shlex
import sys

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import dqlink  # noqa: E402
from cli_cases import load_cases  # noqa: E402
from dqlink import cli  # noqa: E402

TOOLS = [(0.0, 0.0, 0.0), (0.3, -0.2, 0.5), (-1.5, 2.0, 0.25)]
ARCS = [(0.331, 5.893), (1.047198, 4.712389), (6.0, 0.3), (-0.2, 0.2), (2.0, 2.0 + 1e-6)]
SPANS = [(-1.0, 1.0), (0.5, 3.0), (-40.0, 2.0), (2.0, 2.0 + 1e-6), (7.0, -3.0)]
UNITS = [2.0**-20, 1e-6, 1e-3, 1.0, 1e3, 1e6, 2.0**20]


def param(t):
    """A curve parameter as a float, with the point at infinity as inf."""
    return math.inf if t is dqlink.INFINITY else float(t)


def floats(values) -> tuple:
    return tuple(float(v) for v in np.ravel(values))


def attempt(fn, *args, **kwargs):
    """fn's value, or the type and message of the error it raises."""
    try:
        return fn(*args, **kwargs)
    except (dqlink.KinematicsError, ValueError) as exc:
        return ("error", type(exc).__name__, str(exc))


def linkage(rng, joints):
    """A chain of random revolute axes driven by the first, as in tests/conftest.py."""
    axes = [
        dqlink.line_from_point_direction(rng.normal(size=3), rng.normal(size=3), normalized=True)
        for _ in range(joints)
    ]
    drive = np.concatenate([[rng.uniform(-0.5, 0.5)], axes[0].coeffs[1:4]])
    return dqlink.Mechanism(motion=dqlink.MotionPolynomial.from_axes(axes), driving_axis=drive)


def mechanisms() -> list:
    data = ROOT / "tests" / "data"
    mechs = [(n, dqlink.load_mechanism(data / (n + ".mech"))) for n in ("sixbar", "bennett")]
    for seed, joints in ((5, 2), (6, 3), (7, 4)):
        mechs.append(("seed%d-%dR" % (seed, joints), linkage(np.random.default_rng(seed), joints)))
    return mechs


def ik_record(result) -> tuple:
    return (
        param(result.t),
        result.theta,
        result.residual,
        result.iterations,
        result.branch,
        floats(result.residual_trace),
    )


def solve(mech, pose) -> tuple:
    try:
        return ("ok",) + ik_record(dqlink.inverse_kinematics(mech, pose))
    except dqlink.NoConvergence as exc:
        return ("best",) + ik_record(exc.best)
    except dqlink.KinematicsError as exc:
        return ("error", type(exc).__name__, str(exc))


def kinematics_records(name, mech, rng):
    thetas = [0.0, 2.0 * math.pi, math.pi, math.pi / 3.0, 1e-8, 2.0 * math.pi - 1e-8, -0.5]
    thetas += rng.uniform(0.0, 2.0 * math.pi, size=6).tolist()
    axis = mech.driving_axis
    shift = dqlink.DualQuaternion.from_translation([0.2, -0.1, 0.3])
    for theta in thetas:
        pose = dqlink.direct_kinematics(mech, theta)
        yield ("dk", name, theta, floats(pose.coeffs), floats(pose.canonical().coeffs))
        yield ("ik", name, theta, solve(mech, pose))
        yield ("ik-off", name, theta, solve(mech, pose * shift))
        t = dqlink.angle_to_param(theta, axis)
        yield ("chart", name, theta, param(t), dqlink.param_to_angle(t, axis))
    yield ("ik-identity", name, solve(mech, dqlink.DualQuaternion.identity()))
    for t in [dqlink.INFINITY, 0.0, -3.5, 1e-300, 1e300] + rng.normal(size=4).tolist():
        yield ("param", name, param(t), dqlink.param_to_angle(t, axis))


def trajectory_records(name, mech):
    for tool in TOOLS:
        path = mech.motion.point_path(tool)
        for t0, t1 in SPANS:
            yield ("arc_length", name, tool, t0, t1, attempt(dqlink.arc_length, path, t0, t1))
            seg = attempt(dqlink.equidistant_params, path, t0, t1, 7, mech.driving_axis)
            if isinstance(seg, dqlink.PathSegmentation):
                seg = (seg.params, seg.angles, seg.segment_length, seg.total_length)
            yield ("equidistant_params", name, tool, t0, t1, seg)
        for theta0, theta1 in ARCS:
            for arc in dqlink.trajectory.ARC_DIRECTIONS:
                got = attempt(dqlink.arc_length_between, mech, theta0, theta1, tool, arc)
                yield ("arc_length_between", name, tool, theta0, theta1, arc, got)
            for blend in (False, True):
                prof = attempt(
                    dqlink.equidistant_profile, mech, theta0, theta1, 2.0, 10.0, tool, "long", blend
                )
                if isinstance(prof, dqlink.TrajectoryProfile):
                    prof = (floats(prof.thetas), floats(prof.omegas), prof.duration)
                yield ("equidistant_profile", name, tool, theta0, theta1, blend, prof)


def unit_records(name, mech, mu, tool, arc, span):
    """Arcs of the mechanism in the length units mu * lam: the dual parts
    of its motion and tool frame, and the tool point, scaled by them."""
    for lam in UNITS:
        coeffs = np.array(mech.motion.coeffs)
        coeffs[:, 4:] *= mu * lam
        frame = np.array(mech.tool_home.coeffs)
        frame[4:] *= mu * lam
        motion = dqlink.MotionPolynomial(coeffs, mech.motion.study_tol)
        scaled = dqlink.Mechanism(motion, mech.driving_axis, dqlink.DualQuaternion(frame))
        x = tuple(mu * lam * v for v in tool)
        yield ("unit", name, lam, attempt(dqlink.arc_length_between, scaled, *arc[:2], x, arc[2]))
        yield ("unit-t", name, lam, attempt(dqlink.arc_length, motion.point_path(x), *span))


def axis_records(name, mech, axis, arcs):
    """The mechanism's motion driven about another axis: arcs of the tool
    at the origin, one profile, and inverse kinematics of a DK pose."""
    moved = dqlink.Mechanism(mech.motion, axis, mech.tool_home)
    for theta0, theta1, arc in arcs:
        got = attempt(dqlink.arc_length_between, moved, theta0, theta1, TOOLS[0], arc)
        yield ("axis", name, axis, theta0, theta1, arc, got)
    theta0, theta1, arc = arcs[0]
    prof = attempt(dqlink.equidistant_profile, moved, theta0, theta1, 1.0, 10.0, TOOLS[0], arc)
    if isinstance(prof, dqlink.TrajectoryProfile):
        prof = floats(prof.thetas)
    yield ("axis-profile", name, axis, prof)
    yield ("axis-ik", name, axis, solve(moved, dqlink.direct_kinematics(moved, 1.0)))


def run_cli(argv) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def cli_records():
    text = (ROOT / "README.md").read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", text, re.S).group(1)
    for line in block.replace("\\\n", " ").splitlines():
        if line.strip() and not line.lstrip().startswith("#"):
            words = shlex.split(line)
            argv = [str(ROOT / w) if w.startswith("tests/") else w for w in words[1:]]
            yield ("readme", " ".join(words), run_cli(argv))
    for case in load_cases():
        yield ("cli_case", case["id"], run_cli(case["argv"]))


def error_records(sixbar):
    # x0 = t**2 - 1 vanishes at t = -1 and 1
    poles = dqlink.RationalPointPath([-1.0, 0.0, 1.0], np.eye(3))
    yield ("pole", attempt(dqlink.arc_length, poles, -2.0, 0.5))
    # a tool far from the coupler, with a length of about 2e12
    yield ("large", attempt(dqlink.arc_length_between, sixbar, 0.3, 1.2, (1e12, 5e11, 2e11)))


def records():
    mechs = mechanisms()
    for name, mech in mechs:
        yield from kinematics_records(name, mech, np.random.default_rng(11))
        yield from trajectory_records(name, mech)
    yield from error_records(mechs[0][1])
    # the recorded sixbar arc; the Bennett fixture's norm check rejects it
    # at about 0.6 times its unit and above, so its units start at 2**-20
    sixbar_arc, bennett_arc = (5.2304, 1.5115, "short"), (0.331, 5.893, "long")
    sixbar_tool, bennett_tool = (0.1848, -0.1084, 0.0357), (0.05, -0.1, 0.07)
    yield from unit_records("sixbar", mechs[0][1], 1.0, sixbar_tool, sixbar_arc, (-1.0, 1.0))
    yield from unit_records(
        "bennett", mechs[1][1], 2.0**-20, bennett_tool, bennett_arc, (-1.0, math.sqrt(3.0))
    )
    # a long axis, far beyond either motion's scale, on which the tool
    # creeps near home away from theta = pi; and an axis that is not a
    # factor of the sixbar's motion, whose rewrite in tau rounds
    for name, mech in mechs[:2]:
        yield from axis_records(name, mech, [0.0, 1e120, 0.0, 0.0], [(5.0, 0.5, "short")])
    yield from axis_records(
        "sixbar", mechs[0][1], [100.0, 0.5, 0.2, 0.0],
        [(0.3, 1.2, "short"), (2.0, 4.0, "increasing"), (6.2, 6.25, "short")],
    )
    yield from cli_records()


def parse(line: str):
    """A record line back as nested tuples; repr writes inf and nan as
    bare names, which become floats."""

    def value(node):
        if isinstance(node, ast.Name):
            return float(node.id)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -value(node.operand)
        if isinstance(node, (ast.Tuple, ast.List)):
            return tuple(value(item) for item in node.elts)
        return node.value

    return value(ast.parse(line, mode="eval").body)


def leaves(value) -> list:
    """The scalars of a parsed record, depth first."""
    if isinstance(value, tuple):
        return [leaf for item in value for leaf in leaves(item)]
    return [value]


def errors(value) -> list:
    """The "type: message" of each error a parsed record holds."""
    if not isinstance(value, tuple):
        return []
    if len(value) == 3 and value[0] == "error":
        return ["%s: %s" % value[1:]]
    return [text for item in value for text in errors(item)]


def move(a: float, b: float) -> float:
    """Relative move from a to b, 0 when both print alike."""
    if repr(a) == repr(b):
        return 0.0
    if math.isfinite(a) and math.isfinite(b):
        return abs(a - b) / max(abs(a), abs(b))
    return math.inf


def compare(old_lines, new_lines):
    """Print, per record kind, how the records moved from old to new."""
    kinds = {}
    for side, lines in enumerate((old_lines, new_lines)):
        for line in lines:
            record = parse(line)
            kinds.setdefault(record[0], ([], []))[side].append((line, record))
    changed = []
    print("%-20s %9s %7s %7s  %s" % ("kind", "records", "differ", "other", "largest float move"))
    for kind, (old, new) in kinds.items():
        differ = other = abs(len(old) - len(new))
        worst = 0.0
        for (old_line, x), (new_line, y) in zip(old, new):
            if old_line == new_line:
                continue
            differ += 1
            lx, ly = leaves(x), leaves(y)
            pairs = list(zip(lx, ly))
            worst = max([worst] + [move(a, b) for a, b in pairs if type(a) is type(b) is float])
            other += len(lx) != len(ly) or any(
                a != b for a, b in pairs if not type(a) is type(b) is float
            )
            if errors(x) != errors(y):
                changed.append((x[:-1], errors(x), errors(y)))
        count = "%d" % len(new) if len(old) == len(new) else "%d->%d" % (len(old), len(new))
        print("%-20s %9s %7d %7d  %.2g" % (kind, count, differ, other, worst))
    print("records whose error messages changed: %d" % len(changed))
    for where, was, now in changed:
        print("  %r" % (where,))
        for text in was:
            print("    - " + text)
        for text in now:
            print("    + " + text)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--compare", metavar="FILE", help="summarize the moves from FILE")
    args = parser.parse_args()
    lines = [repr(record) for record in records()]
    digest = hashlib.sha256("".join(line + "\n" for line in lines).encode("utf-8"))
    if args.compare is None:
        print("\n".join(lines))
    else:
        text = pathlib.Path(args.compare).read_text(encoding="utf-8").splitlines()
        compare([line for line in text if line.startswith("(")], lines)
    print("sha256 %s of %d records" % (digest.hexdigest(), len(lines)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
