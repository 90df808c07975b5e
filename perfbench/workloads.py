"""Seeded inputs, ops and correctness checks of the workloads.

Every workload is a closed loop with one client: op i+1 starts when op i
has returned.  Inputs come from the seed alone and are generated before
any op is timed.  Ops run in rounds.  A round holds one op of each of a
workload's fixed op classes (fixture, arc direction, sample count, grid
cell, ...); the seed jitters each op inside its class's cell and draws
scales and tool points near the class's own (arclen_query draws its tool
points over the whole box), so every op is a fresh input and every round
does nearly the same work.  Results are kept in preallocated slots and
checked only after the timed loop, against oracle.py or the in-process
library.  CliCalls is not a timed
workload: the traced run replays its command lines through
dqlink.cli.main and checks their output.
"""

import contextlib
import io
import math
import os

import numpy as np

import oracle

FIXTURES = ("sixbar", "bennett")
DIRECTIONS = ("short", "long", "increasing", "decreasing")

# bounds of the acceptance criteria the checks reuse
ARC_REL_TOL = 1e-6  # criterion 07, arc length against a dense evaluation
STEP_REL_TOL = 1e-6  # spread of profile step lengths, relative to their mean
ROUND_TRIP_TOL = 1e-6  # criterion 04, IK of a DK pose
BENNETT_POSES = (  # criterion 08, rounded poses and their joint angles
    ((1, -0.208, -0.033, -0.069, -0.006, -0.014, -0.045, -0.026), 0.331),
    ((1, 0.233, -0.043, 0.078, -0.008, 0.030, 0.030, 0.035), 5.893),
)
BENNETT_ANGLE_TOL = 5e-3
BENNETT_SUCCESS_TOL = 1e-4
HOME_RESIDUAL_TOL = 1e-10  # criterion 05, identity pose

# tool offsets and minimum angular gap between seeded start and end
TOOL_SPAN = 0.2
MIN_GAP = 0.6
# share of a grid cell over which the seed spreads the points of _cells
JITTER = 0.2
# how far the seed moves a tool point from its class's own
TOOL_JITTER = 0.01


class Context:
    """The library under test, its fixtures and the oracle's view of them."""

    def __init__(self, dqlink, root, bench_dir, work_dir):
        self.dq = dqlink
        self.root = root
        self.src = root / "src"
        self.fixture_paths = {
            name: bench_dir / "fixtures" / ("%s.mech" % name) for name in FIXTURES
        }
        self.malformed_path = bench_dir / "fixtures" / "malformed.mech"
        self.work_dir = work_dir
        self.mechs = {}
        self.load_fixtures()
        self.paths = {
            name: oracle.ToolPath(m.motion.coeffs, m.driving_axis, m.tool_home.coeffs)
            for name, m in self.mechs.items()
        }

    def load_fixtures(self):
        for name, path in self.fixture_paths.items():
            self.mechs[name] = self.dq.load_mechanism(path)

    def child_env(self):
        env = dict(os.environ)
        old = env.get("PYTHONPATH")
        env["PYTHONPATH"] = str(self.src) + (os.pathsep + old if old else "")
        return env


def _cells(rng, n, classes, dims):
    """Points in [0, 1)**dims for n ops; op i belongs to class i % classes.

    Class k sits in stratum (m*k + d) % classes of coordinate d, with m
    coprime to the number of classes, so the classes of one round cover
    every stratum of each coordinate once.  The seed moves every point by
    up to JITTER / 2 of a cell from the cell centre: each op is a fresh
    input, and each round does nearly the same work whatever the seed.
    """
    k = np.arange(n) % classes
    cols = []
    for d in range(dims):
        m = 2 * d + 1
        while math.gcd(m, classes) != 1:
            m += 1
        stratum = (m * k + d) % classes
        jitter = JITTER * (rng.random(n) - 0.5)
        cols.append((stratum + 0.5 + jitter) / classes)
    return np.stack(cols, axis=-1)


def _angles(rng, n, classes):
    """Start and end angles at least MIN_GAP apart on the circle."""
    g = _cells(rng, n, classes, 2)
    start = 2.0 * math.pi * g[:, 0]
    gap = MIN_GAP + (2.0 * math.pi - 2.0 * MIN_GAP) * g[:, 1]
    return start, (start + gap) % (2.0 * math.pi)


def profile_ok(ctx, fixture, theta0, theta1, duration, frequency, tool, direction,
                thetas, times, omegas):
    """Sample count, end points, timing and equidistance of a profile."""
    n = int(round(duration * frequency))
    if thetas.shape != (n + 1,) or times.shape != (n + 1,) or omegas.shape != (n + 1,):
        return False
    delta = oracle.travel(theta0, theta1, direction)
    if thetas[0] != theta0 or abs(thetas[-1] - (theta0 + delta)) > 1e-12 * (1 + abs(delta)):
        return False
    if not np.array_equal(times, np.arange(n + 1) / frequency):
        return False
    if not np.allclose(omegas[:n], np.diff(thetas) * frequency, rtol=1e-12, atol=0.0):
        return False
    steps = np.diff(thetas)
    if delta == 0.0:
        return bool(np.all(steps == 0.0))
    if not np.all(steps * delta > 0.0):
        return False
    for refine in (1, oracle.REFINE):
        lengths = oracle.step_lengths(ctx.paths[fixture], thetas, tool, refine)
        mean = float(np.mean(lengths))
        if np.max(np.abs(lengths - mean)) <= STEP_REL_TOL * mean:
            return True
    return False


def arcs_ok(path, got, starts, ends, tools):
    """Which arc lengths match the dense evaluation to ARC_REL_TOL."""
    got, starts, ends, tools = (np.asarray(a, dtype=float) for a in (got, starts, ends, tools))
    ok = np.zeros(got.shape[0], dtype=bool)
    todo = np.arange(got.shape[0])
    for refine in (1, oracle.REFINE):
        ref = oracle.arc_lengths(path, starts[todo], ends[todo], tools[todo], refine)
        ok[todo] = np.abs(got[todo] - ref) <= ARC_REL_TOL * ref
        todo = todo[~ok[todo]]
        if not todo.size:
            break
    return ok


def _arg(value):
    """A float as a command line argument: shortest round-trip decimal.

    Plain positional notation, because argparse reads a negative number
    in exponent notation such as -5e-05 as an unknown option.
    """
    return np.format_float_positional(float(value), unique=True, trim="-")


class Workload:
    """Op pool of one workload.

    Op i is of class i % classes; a round is one op of each class, and a
    timed run is a whole number of rounds.  rounds is the size of the
    pool in rounds, more than a run can use; trace_ops is the fixed op
    prefix a traced run replays.
    """

    name = None
    index = None  # stream of the workload's random numbers
    classes = 1
    rounds = 1
    trace_ops = 1

    def __init__(self, ctx, seed):
        self.ctx = ctx
        index = self.index
        self.rng = np.random.default_rng([int(seed), index])
        # the tool points of the classes: fixed, so that the work of a
        # round does not depend on the seed
        self.class_tools = np.random.default_rng([index]).uniform(
            -TOOL_SPAN, TOOL_SPAN, (self.classes, 3))

    def __len__(self):
        return self.classes * self.rounds

    def class_tools_jittered(self):
        """A fresh tool point per op, near the one of its class."""
        n = len(self)
        jitter = self.rng.uniform(-TOOL_JITTER, TOOL_JITTER, (n, 3))
        return self.class_tools[np.arange(n) % self.classes] + jitter

    def run(self, i):
        raise NotImplementedError

    def check(self, indices):
        """Boolean array, True where op i produced a correct result."""
        raise NotImplementedError


class TrajBulk(Workload):
    """One equidistant_profile call per op."""

    name = "traj_bulk"
    index = 0
    classes = 20
    rounds = 40
    trace_ops = 20

    def __init__(self, ctx, seed):
        super().__init__(ctx, seed)
        n = len(self)
        start, end = _angles(self.rng, n, self.classes)
        tools = self.class_tools_jittered()
        self.specs = []
        for i in range(n):
            k = i % self.classes
            if k == self.classes - 1:
                # the criterion 09 profile: Bennett, 4 s at 20 Hz, long arc
                self.specs.append(("bennett", 0.331, 5.893, 4.0, 20.0, (0.0, 0.0, 0.0), "long"))
                continue
            tool = (0.0, 0.0, 0.0) if (k // 8) % 2 == 0 else tuple(tools[i].tolist())
            duration = 4.0 if k == 10 else 2.0 if k in (5, 15) else 1.0
            self.specs.append((
                FIXTURES[k % 2], float(start[i]), float(end[i]), duration, 10.0,
                tool, DIRECTIONS[(k // 2) % 4],
            ))
        self.out = [None] * n

    def run(self, i):
        fixture, theta0, theta1, duration, frequency, tool, direction = self.specs[i]
        self.out[i] = self.ctx.dq.equidistant_profile(
            self.ctx.mechs[fixture], theta0, theta1, duration, frequency,
            tool=tool, direction=direction,
        )

    def check(self, indices):
        ok = np.zeros(len(indices), dtype=bool)
        for j, i in enumerate(indices):
            p = self.out[i]
            if p is not None:
                ok[j] = profile_ok(self.ctx, *self.specs[i], p.thetas, p.times, p.omegas)
        return ok


class IkSolve(Workload):
    """One inverse_kinematics call per op."""

    name = "ik_solve"
    index = 1
    classes = 64
    rounds = 128
    # class k % 16: 0 identity pose (6R loop), 1-2 rounded Bennett poses,
    # 3-15 DK poses with every fourth near home.  BENNETT_DK are the DK
    # positions on the Bennett fixture, the rest use the 6R loop.  With
    # three eighths of the ops on the fast Bennett solves, the median
    # falls amid the direct 6R solves and p90 amid the reciprocal ones,
    # away from the latency gaps between these groups
    BENNETT_DK = (3, 5, 9, 13)
    trace_ops = 48

    def __init__(self, ctx, seed):
        super().__init__(ctx, seed)
        dq = ctx.dq
        n = len(self)
        k = np.arange(n) % 16
        u = _cells(self.rng, n, self.classes, 1)[:, 0]
        near = k % 4 == 3
        theta = np.where(
            near,
            (0.1 * u - 0.05) % (2.0 * math.pi),
            0.05 + (2.0 * math.pi - 0.1) * u,
        )
        scale = np.where(self.rng.random(n) < 0.5, -1.0, 1.0) * 10.0 ** self.rng.uniform(-1, 1, n)
        self.fixture = np.where(np.isin(k, self.BENNETT_DK), 1, 0)
        self.kind = np.zeros(n, dtype=np.int8)  # 0 DK pose, 1 identity, 2 criterion 08
        self.poses = np.empty((n, 8))
        for f, name in enumerate(FIXTURES):
            sel = self.fixture == f
            self.poses[sel] = ctx.paths[name].pose(theta[sel]) * scale[sel, None]
        # fixed members of every 16 classes: the identity pose on the 6R loop
        # and the two rounded Bennett poses
        self.fixture[k == 0] = 0
        self.kind[k == 0] = 1
        self.poses[k == 0] = (1.0, 0, 0, 0, 0, 0, 0, 0)
        theta[k == 0] = 0.0
        for j, (pose, angle) in enumerate(BENNETT_POSES):
            sel = k == j + 1
            self.fixture[sel] = 1
            self.kind[sel] = 2
            self.poses[sel] = pose
            theta[sel] = angle
        self.theta = theta
        self.options = (dq.IKOptions(), dq.IKOptions(), dq.IKOptions(success_tol=BENNETT_SUCCESS_TOL))
        self.mech_list = [ctx.mechs[name] for name in FIXTURES]
        self.got_theta = np.full(n, np.nan)
        self.got_residual = np.full(n, np.nan)
        self.got_reciprocal = np.zeros(n, dtype=bool)
        self.got_infinity = np.zeros(n, dtype=bool)

    def run(self, i):
        dq = self.ctx.dq
        r = dq.inverse_kinematics(
            self.mech_list[self.fixture[i]],
            dq.DualQuaternion(self.poses[i]),
            self.options[self.kind[i]],
        )
        self.got_theta[i] = r.theta
        self.got_residual[i] = r.residual
        self.got_reciprocal[i] = r.branch == "reciprocal"
        self.got_infinity[i] = r.t is dq.INFINITY

    def check(self, indices):
        ok = np.zeros(len(indices), dtype=bool)
        for j, i in enumerate(indices):
            theta = self.got_theta[i]
            residual = self.got_residual[i]
            if not (0.0 <= theta < 2.0 * math.pi):
                continue
            kind = self.kind[i]
            if kind == 0:
                ok[j] = (oracle.angle_gap(theta, self.theta[i]) <= ROUND_TRIP_TOL
                         and residual <= self.options[0].success_tol)
            elif kind == 1:
                ok[j] = (self.got_reciprocal[i] and self.got_infinity[i]
                         and theta == 0.0 and residual <= HOME_RESIDUAL_TOL)
            else:
                ok[j] = (abs(theta - self.theta[i]) <= BENNETT_ANGLE_TOL
                         and residual <= BENNETT_SUCCESS_TOL)
        return ok


class ArclenQuery(Workload):
    """One arc_length_between call per op, each with a fresh tool point."""

    name = "arclen_query"
    index = 2
    classes = 128
    rounds = 192
    trace_ops = 128

    def __init__(self, ctx, seed):
        super().__init__(ctx, seed)
        n = len(self)
        k = np.arange(n) % self.classes
        self.fixture = np.where(k % 2 == 0, 0, 1)
        self.direction = (k // 2) % 4
        self.start, self.end = _angles(self.rng, n, self.classes)
        # tool points drawn over the whole box, not near a class's own:
        # with some 2000 ops a run, their cost evens out
        self.tools = self.rng.uniform(-TOOL_SPAN, TOOL_SPAN, (n, 3))
        self.mech_list = [ctx.mechs[name] for name in FIXTURES]
        self.got = np.full(n, np.nan)

    def run(self, i):
        self.got[i] = self.ctx.dq.arc_length_between(
            self.mech_list[self.fixture[i]],
            float(self.start[i]),
            float(self.end[i]),
            tool=self.tools[i],
            direction=DIRECTIONS[self.direction[i]],
        )

    def check(self, indices):
        indices = np.asarray(indices)
        ok = np.zeros(indices.shape[0], dtype=bool)
        travel = np.array([
            oracle.travel(self.start[i], self.end[i], DIRECTIONS[self.direction[i]])
            for i in indices
        ])
        for f, name in enumerate(FIXTURES):
            sel = self.fixture[indices] == f
            idx = indices[sel]
            ok[sel] = arcs_ok(
                self.ctx.paths[name], self.got[idx], self.start[idx],
                self.start[idx] + travel[sel], self.tools[idx],
            )
        return ok


class CliCalls(Workload):
    """Command lines of dqlink.cli, one per class, run in this process."""

    name = "cli"
    index = 3
    classes = 12
    # (kind, fixture, arc direction, nonzero tool) per class; bad_yaml
    # reads a malformed file and must exit 3, bad_pose asks IK for a
    # non-displacement and must exit 4
    CLASSES = (
        ("dk", "sixbar", None, False), ("dk", "bennett", None, False),
        ("ik", "sixbar", None, False), ("ik", "bennett", None, False),
        ("arclen", "sixbar", "short", False), ("arclen", "bennett", "long", True),
        ("traj_csv", "sixbar", "increasing", True), ("traj_csv", "bennett", "decreasing", False),
        ("traj_structured", "bennett", "short", True), ("traj_structured", "sixbar", "long", False),
        ("bad_yaml", "sixbar", None, False), ("bad_pose", "sixbar", None, False),
    )
    TRAJ_DURATION = 0.5
    TRAJ_FREQUENCY = 10.0

    def __init__(self, ctx, seed):
        super().__init__(ctx, seed)
        n = len(self)
        start, end = _angles(self.rng, n, self.classes)
        pose_theta = 0.3 + (2.0 * math.pi - 0.6) * _cells(self.rng, n, self.classes, 1)[:, 0]
        scale = 10.0 ** self.rng.uniform(-1, 1, n)
        tools = self.class_tools_jittered()
        bad_dual = self.rng.uniform(0.5, 2.0, (n, 4))
        self.out_file = ctx.work_dir / "profile.yaml"
        self.specs = []
        for i in range(n):
            kind, fixture, direction, with_tool = self.CLASSES[i % self.classes]
            mech_file = str(ctx.fixture_paths[fixture])
            th0, th1 = float(start[i]), float(end[i])
            tool = tuple(tools[i].tolist()) if with_tool else (0.0, 0.0, 0.0)
            params = {}
            if kind in ("dk", "bad_yaml"):
                params["theta"] = th0
                target = str(ctx.malformed_path) if kind == "bad_yaml" else mech_file
                argv = ["dk", target, "--theta", _arg(th0)]
            elif kind == "ik":
                theta = float(pose_theta[i])
                pose = ctx.paths[fixture].pose(np.array(theta)) * scale[i]
                params.update(theta=theta, pose=tuple(pose.tolist()))
                argv = ["ik", mech_file, "--pose"] + [_arg(v) for v in params["pose"]]
            elif kind == "bad_pose":
                pose = (1.0, 0.0, 0.0, 0.0) + tuple(bad_dual[i].tolist())
                argv = ["ik", mech_file, "--pose"] + [_arg(v) for v in pose]
            else:
                params.update(theta0=th0, theta1=th1, tool=tool, direction=direction)
                argv = [
                    "arclen" if kind == "arclen" else "traj", mech_file,
                    "--theta0", _arg(th0), "--theta1", _arg(th1),
                    "--tool", *[_arg(v) for v in tool], "--arc", direction,
                ]
                if kind != "arclen":
                    argv += ["--duration", _arg(self.TRAJ_DURATION),
                             "--freq", _arg(self.TRAJ_FREQUENCY)]
                if kind == "traj_structured":
                    argv += ["--format", "structured", "--out", str(self.out_file)]
            self.specs.append((kind, fixture, argv, params))
        self.out = [None] * n  # (exit code, stdout bytes, output file bytes)

    def subcommand(self, i):
        return self.specs[i][2][0]

    def run(self, i):
        """The command through dqlink.cli.main, output captured."""
        kind, _, argv, _ = self.specs[i]
        if kind == "traj_structured" and self.out_file.exists():
            self.out_file.unlink()
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = self.ctx.dq.cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        written = self.out_file.read_bytes() if kind == "traj_structured" else None
        self.out[i] = (code, buf.getvalue().encode(), written)

    def _expected(self, kind, fixture, params):
        """Exit code and output bytes the in-process library gives."""
        dq = self.ctx.dq
        mech = self.ctx.mechs[fixture]
        if kind == "bad_yaml":
            return 3, b"", True
        if kind == "bad_pose":
            return 4, b"", True
        if kind == "dk":
            pose = dq.direct_kinematics(mech, params["theta"]).canonical()
            return 0, (" ".join(repr(float(v)) for v in pose.coeffs) + "\n").encode(), True
        if kind == "ik":
            r = dq.inverse_kinematics(mech, dq.DualQuaternion(params["pose"]))
            t = "INFINITY" if r.t is dq.INFINITY else repr(float(r.t))
            text = "theta=%.6f\nt=%s\nresidual=%r\nbranch=%s\niterations=%d\n" % (
                r.theta, t, float(r.residual), r.branch, r.iterations)
            ok = oracle.angle_gap(r.theta, params["theta"]) <= ROUND_TRIP_TOL
            return 0, text.encode(), ok
        args = (mech, params["theta0"], params["theta1"])
        if kind == "arclen":
            length = dq.arc_length_between(
                *args, tool=params["tool"], direction=params["direction"])
            travel = oracle.travel(params["theta0"], params["theta1"], params["direction"])
            ok = arcs_ok(self.ctx.paths[fixture], [length], [params["theta0"]],
                         [params["theta0"] + travel], [params["tool"]])[0]
            return 0, (repr(float(length)) + "\n").encode(), ok
        profile = dq.equidistant_profile(
            *args, self.TRAJ_DURATION, self.TRAJ_FREQUENCY,
            tool=params["tool"], direction=params["direction"])
        ok = profile_ok(
            self.ctx, fixture, params["theta0"], params["theta1"], self.TRAJ_DURATION,
            self.TRAJ_FREQUENCY, params["tool"], params["direction"],
            profile.thetas, profile.times, profile.omegas)
        buf = io.StringIO()
        if kind == "traj_csv":
            dq.write_profile_csv(profile, buf)
        else:
            dq.write_profile_structured(profile, buf)
        return 0, buf.getvalue().encode(), ok

    def check(self, indices):
        ok = np.zeros(len(indices), dtype=bool)
        for j, i in enumerate(indices):
            if self.out[i] is None:
                continue
            kind, fixture, _, params = self.specs[i]
            code, stdout, written = self.out[i]
            want_code, want_bytes, sound = self._expected(kind, fixture, params)
            got_bytes = written if kind == "traj_structured" else stdout
            if kind == "traj_structured" and stdout:
                continue
            ok[j] = code == want_code and got_bytes == want_bytes and sound
        return ok


WORKLOADS = {w.name: w for w in (TrajBulk, IkSolve, ArclenQuery)}


def warmup(ctx, name):
    """The one untimed op that set-up ends with."""
    dq = ctx.dq
    six, ben = ctx.mechs["sixbar"], ctx.mechs["bennett"]
    if name == "traj_bulk":
        dq.equidistant_profile(ben, 1.0, 2.0, 1.0, 10.0)
    elif name == "ik_solve":
        dq.inverse_kinematics(six, dq.direct_kinematics(six, math.pi / 3))
    else:
        dq.arc_length_between(ben, 1.0, 4.0, direction="long")
