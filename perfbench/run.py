#!/usr/bin/env python3
"""dqlink benchmark: three closed-loop workloads, one client, one process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload traj_bulk --seed 1 --seconds 10 --trace 0

Workloads (see workloads.py): traj_bulk, ik_solve and arclen_query.
With --trace 0 the op loop runs untraced in whole rounds,
one op of each of the workload's op classes per round with fresh inputs,
for at least --seconds seconds and at least MIN_OPS ops, and the
end-to-end metrics are reported.  Times are given at the reference speed
(see reference_loop): each is scaled by how long a fixed loop, timed
between the ops around it, took against REFERENCE_S.  With --trace 1 a fixed
op prefix is replayed once untraced and twice traced (spans recorded by
tracer.py around dqlink's layers) and the per-layer metrics are
reported.  Either way every op's result is checked after timing, and the
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The line before it carries the machine block.  Full results, and the
spans of a traced run, are written under .perfbench/ in the checkout.
"""

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time
import traceback

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
NAMES = ("traj_bulk", "ik_solve", "arclen_query")

# set-up probes per run, taken before and after the op loop so that their
# median spans the run rather than one moment of a noisy machine
SETUP_PROBES = (2, 3)
# fewest ops of a timed run, so that ten latencies lie beyond its p90
MIN_OPS = 100
# the time reference_loop takes at the reference speed; every time the
# benchmark reports is scaled to that speed
REFERENCE_S = 1e-3
# ops on either side of an op whose reference loops give its speed
SPEED_WINDOW = 4
# hard cap on the op loop, so a run always ends well within three minutes
LOOP_CAP_S = 120.0

# name -> unit; the order in which they are printed
END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ok_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "kernels.arc_simpson.calls": "count/op",
    "kernels.arc_simpson.busy_ms": "ms/op",
    "kernels.poly_eval8.calls": "count/op",
    "kernels.poly_eval8.busy_ms": "ms/op",
    "kernels.dq_mul8.calls": "count/op",
    "kernels.dq_mul8.busy_ms": "ms/op",
    "trajectory.arc_length.calls": "count/op",
    "trajectory.arc_length.busy_ms": "ms/op",
    "trajectory.pole_check_ms": "ms/op",
    "trajectory.knots_per_quadrature": "ratio",
    "trajectory.self_ms": "ms/op",
    "trajectory.crit09.arc_length.calls": "count",
    "motionpoly.point_path.calls": "count/op",
    "motionpoly.point_path.busy_ms": "ms/op",
    "motionpoly.construct_ms": "ms",
    "kinematics.ik.iterations": "count/solve",
    "kinematics.ik.poly_eval8_per_solve": "count/solve",
    "kinematics.ik.reciprocal_share": "ratio",
    "kinematics.ik.poly_eval8_pi3": "count",
    "kinematics.ik.poly_eval8_identity": "count",
    "io.load_mechanism.busy_ms": "ms/call",
    "io.yaml_parse_ms": "ms/call",
    "io.write_profile_csv.busy_ms": "ms/call",
    "io.write_profile_csv.bytes": "B/call",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.main.busy_ms": "ms/call",
    "cli.main.dk.busy_ms": "ms/call",
    "cli.main.ik.busy_ms": "ms/call",
    "cli.main.arclen.busy_ms": "ms/call",
    "cli.main.traj.busy_ms": "ms/call",
    "trace.ops_per_s_untraced": "1/s",
    "trace.ops_per_s_traced": "1/s",
    "trace.overhead_frac": "ratio",
    "trace.counters_repeat": "bool",
    "trace.spans_per_op": "count/op",
}


_REF_MATRIX = [[(i - j) / 8.0 for j in range(8)] for i in range(8)]
_REF_VECTOR = [0.5 + i / 8.0 for i in range(8)]


def reference_loop():
    """Fixed work that shares no code with dqlink, timed to gauge the
    machine's speed of the moment: plain Python float arithmetic and
    small numpy calls, the mix dqlink's own work is made of."""
    import numpy as np

    m = np.array(_REF_MATRIX)
    x = np.array(_REF_VECTOR)
    acc = 0.0
    for j in range(90):
        x = m @ x
        x = x / np.sqrt(x @ x)
        acc += float(x[j % 8])
    for j in range(6000):
        acc += j * 0.5
    return acc


def reference_seconds(count=9):
    """Median time of `count` reference loops."""
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def at_reference_speed(times, ref):
    """Scale op times by the reference loops timed around each op.

    ref[i] is the reference loop timed just before op i; op i's speed is
    the median of ref over SPEED_WINDOW ops on either side of it.
    """
    import numpy as np

    n = len(ref)
    w = SPEED_WINDOW
    padded = np.concatenate([np.full(w, ref[0]), ref, np.full(w, ref[-1])])
    windows = np.lib.stride_tricks.sliding_window_view(padded, 2 * w + 1)[:n]
    return times * (REFERENCE_S / np.median(windows, axis=1))


def _setup_probe(name):
    """Child mode: time import, fixture loading and one warm-up op, and
    print that time at the reference speed."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import dqlink

    import workloads

    ctx = workloads.Context(dqlink, ROOT, HERE, WORK)
    workloads.warmup(ctx, name)
    seconds = time.perf_counter() - t0
    reference_loop()
    print(repr(seconds * REFERENCE_S / reference_seconds()))
    return 0


def _median_child_seconds(argv, reps, env=None):
    """Median wall time of a child process, run reps times."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run(argv, stdout=subprocess.DEVNULL, env=env, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def setup_probes(name, count):
    """Set-up seconds of `count` fresh processes (see _setup_probe)."""
    argv = [sys.executable, str(HERE / "run.py"), "--setup-probe", name]
    samples = []
    for _ in range(count):
        done = subprocess.run(argv, stdout=subprocess.PIPE, check=True, text=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def _peak_rss_mb():
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine_block(dqlink):
    import platform

    import numpy
    import yaml

    try:
        import numba  # noqa: F401
    except ImportError:
        has_numba = False
    else:
        has_numba = True
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pyyaml": yaml.__version__,
        "dqlink_backend": dqlink.BACKEND,
        "numba": has_numba,
    }


class Failures:
    """Ops that raised, with the first few tracebacks kept for stderr."""

    def __init__(self):
        self.raised = set()
        self.notes = []

    def record(self, i):
        self.raised.add(i)
        if len(self.notes) < 3:
            self.notes.append("op %d raised:\n%s" % (i, traceback.format_exc()))


def timed_loop(w, seconds, failures):
    """Closed loop over whole rounds of the op pool.

    A reference loop runs before each op, outside the op's time.
    Returns the op latencies, the reference loop times and the wall time
    of the loop.
    """
    import numpy as np

    lat = np.empty(len(w))
    ref = np.empty(len(w))
    clock = time.perf_counter
    run = w.run
    reference = reference_loop
    begin = clock()
    i = 0
    while i < len(w):
        t0 = clock()
        reference()
        t1 = clock()
        try:
            run(i)
        except Exception:
            failures.record(i)
        lat[i] = clock() - t1
        ref[i] = t1 - t0
        i += 1
        if i % w.classes == 0:
            elapsed = clock() - begin
            if (elapsed >= seconds and i >= MIN_OPS) or elapsed >= LOOP_CAP_S:
                break
    return lat[:i], ref[:i], clock() - begin


def op_pass(w, indices, failures, tracer=None):
    """Run a fixed op prefix once; returns its wall time."""
    run = w.run
    t0 = time.perf_counter()
    for i in indices:
        if tracer is not None:
            tracer.op_index = i
        try:
            run(i)
        except Exception:
            failures.record(i)
    return time.perf_counter() - t0


def count_failed(w, indices, failures):
    ok = w.check(indices)
    return sum(1 for j, i in enumerate(indices) if i in failures.raised or not ok[j])


def end_to_end(ctx, w, seconds):
    import numpy as np

    import workloads

    before, after = SETUP_PROBES
    setup = setup_probes(w.name, before)
    workloads.warmup(ctx, w.name)
    failures = Failures()
    raw, ref, wall = timed_loop(w, seconds, failures)
    peak = _peak_rss_mb()
    ops = raw.shape[0]
    failed = count_failed(w, range(ops), failures)
    setup_s = statistics.median(setup + setup_probes(w.name, after))
    lat = at_reference_speed(raw, ref)
    metrics = {
        "ops_per_s": ops / float(lat.sum()),
        "op_p50_ms": float(np.percentile(lat, 50)) * 1e3,
        "op_p90_ms": float(np.percentile(lat, 90)) * 1e3,
        "ok_frac": 1.0 - failed / ops,
        "setup_s": setup_s,
        "peak_rss_mb": peak,
    }
    # the same figures as the wall clock read them, and the machine's
    # speed against the reference (above 1: slower than the reference)
    summary = {
        "ops": ops, "rounds": ops // w.classes, "failed": failed,
        "fail_frac": failed / ops, "wall_s": wall,
        "wall_ops_per_s": ops / float(raw.sum()),
        "wall_p50_ms": float(np.percentile(raw, 50)) * 1e3,
        "wall_p90_ms": float(np.percentile(raw, 90)) * 1e3,
        "slowdown_median": float(np.median(ref)) / REFERENCE_S,
        "slowdown_spread": float(np.subtract(*np.percentile(ref, [90, 10]))) / REFERENCE_S,
    }
    return ops, failed, metrics, summary, failures


def _per_op(total, ops):
    return total / ops if ops else 0.0


def traced_run(ctx, w, seed):
    import math

    import yaml

    import tracer as tr
    import workloads

    dq = ctx.dq
    setup = tr.Tracer()
    with tr.traced(dq, setup):
        ctx.load_fixtures()
    workloads.warmup(ctx, w.name)
    k = min(w.trace_ops, len(w))
    indices = range(k)
    failures = Failures()
    wall_u = op_pass(w, indices, failures)
    failed = count_failed(w, indices, failures)
    passes = []
    for _ in range(2):
        failures.raised.clear()
        t = tr.Tracer()
        with tr.traced(dq, t):
            wall = op_pass(w, indices, failures, t)
        failed += count_failed(w, indices, failures)
        passes.append((t, wall))
    a, wall_a = passes[0]
    b, _ = passes[1]
    attempted = 3 * k

    # probes shared by every workload
    probe = tr.Tracer()
    ben, six = ctx.mechs["bennett"], ctx.mechs["sixbar"]
    with tr.traced(dq, probe):
        profile = dq.equidistant_profile(ben, 0.331, 5.893, 4.0, 20.0, direction="long")
    crit09_calls = probe.count("trajectory.arc_length")
    attempted += 1
    failed += not workloads.profile_ok(
        ctx, "bennett", 0.331, 5.893, 4.0, 20.0, (0.0, 0.0, 0.0), "long",
        profile.thetas, profile.times, profile.omegas)
    ik_counts = []
    for pose in (dq.direct_kinematics(six, math.pi / 3), dq.DualQuaternion.identity()):
        t = tr.Tracer()
        with tr.traced(dq, t):
            dq.inverse_kinematics(six, pose)
        ik_counts.append(t.count("kernels.poly_eval8"))

    # the command lines of workloads.CliCalls through dqlink.cli.main,
    # each checked against the in-process library
    calls = workloads.CliCalls(ctx, seed)
    cli = tr.Tracer()
    cli_failures = Failures()
    with tr.traced(dq, cli):
        op_pass(calls, range(len(calls)), cli_failures, cli)
    attempted += len(calls)
    failed += count_failed(calls, range(len(calls)), cli_failures)
    failures.notes += cli_failures.notes

    doc = yaml.safe_load(ctx.fixture_paths["sixbar"].read_text())
    axes = doc["axes"]
    ben_coeffs = ben.motion.coeffs.copy()
    build_times = []
    for _ in range(15):
        t0 = time.perf_counter()
        dq.MotionPolynomial.from_axes(axes)
        dq.MotionPolynomial(ben_coeffs, study_tol=ben.motion.study_tol)
        build_times.append(time.perf_counter() - t0)

    interp = _median_child_seconds([sys.executable, "-c", "pass"], 3)
    imported = _median_child_seconds(
        [sys.executable, "-c", "import dqlink"], 3, env=ctx.child_env())

    def per_call(name, *tracers):
        calls = sum(t.count(name) for t in tracers)
        return _per_op(sum(t.busy(name) for t in tracers) * 1e3, calls)

    ms = 1e3
    arc_busy = a.busy("trajectory.arc_length")
    op_spans = ("trajectory.equidistant_profile", "trajectory.arc_length_between")
    traj_busy = sum(a.busy(n) for n in op_spans)
    traj_inner = sum(
        a.busy(inner, within=n) for n in op_spans
        for inner in ("trajectory.arc_length", "motionpoly.point_path"))
    solves = a.counters.get("ik.solves", 0)
    by_sub = {}
    for i, busy in cli.busy_by_op("cli.main").items():
        by_sub.setdefault(calls.subcommand(i), []).append(busy)
    metrics = {
        "kernels.arc_simpson.calls": _per_op(a.count("kernels.arc_simpson"), k),
        "kernels.arc_simpson.busy_ms": _per_op(a.busy("kernels.arc_simpson") * ms, k),
        "kernels.poly_eval8.calls": _per_op(a.count("kernels.poly_eval8"), k),
        "kernels.poly_eval8.busy_ms": _per_op(a.busy("kernels.poly_eval8") * ms, k),
        "kernels.dq_mul8.calls": _per_op(a.count("kernels.dq_mul8"), k),
        "kernels.dq_mul8.busy_ms": _per_op(a.busy("kernels.dq_mul8") * ms, k),
        "trajectory.arc_length.calls": _per_op(a.count("trajectory.arc_length"), k),
        "trajectory.arc_length.busy_ms": _per_op(arc_busy * ms, k),
        "trajectory.pole_check_ms": _per_op(
            (arc_busy - a.busy("kernels.arc_simpson", within="trajectory.arc_length")) * ms, k),
        "trajectory.knots_per_quadrature": _per_op(
            a.counters.get("trajectory.knots", 0), a.count("trajectory.arc_length")),
        "trajectory.self_ms": _per_op((traj_busy - traj_inner) * ms, k),
        "trajectory.crit09.arc_length.calls": crit09_calls,
        "motionpoly.point_path.calls": _per_op(a.count("motionpoly.point_path"), k),
        "motionpoly.point_path.busy_ms": _per_op(a.busy("motionpoly.point_path") * ms, k),
        "motionpoly.construct_ms": statistics.median(build_times) * ms,
        "kinematics.ik.iterations": _per_op(a.counters.get("ik.iterations", 0), solves),
        "kinematics.ik.poly_eval8_per_solve": _per_op(
            a.count("kernels.poly_eval8", within="kinematics.inverse_kinematics"), solves),
        "kinematics.ik.reciprocal_share": _per_op(a.counters.get("ik.reciprocal", 0), solves),
        "kinematics.ik.poly_eval8_pi3": ik_counts[0],
        "kinematics.ik.poly_eval8_identity": ik_counts[1],
        "io.load_mechanism.busy_ms": per_call("io.load_mechanism", setup, cli),
        "io.yaml_parse_ms": per_call("io.yaml_parse", setup, cli),
        "io.write_profile_csv.busy_ms": per_call("io.write_profile_csv", cli),
        "io.write_profile_csv.bytes": _per_op(
            cli.counters.get("io.csv_bytes", 0), cli.count("io.write_profile_csv")),
        "cli.interpreter_ms": interp * ms,
        "cli.import_ms": (imported - interp) * ms,
        "cli.main.busy_ms": per_call("cli.main", cli),
    }
    for sub in ("dk", "ik", "arclen", "traj"):
        vals = by_sub.get(sub, [])
        metrics["cli.main.%s.busy_ms" % sub] = _per_op(sum(vals) * ms, len(vals))
    ups_u, ups_a = k / wall_u, k / wall_a
    repeat = a.signature() == b.signature()
    metrics.update({
        "trace.ops_per_s_untraced": ups_u,
        "trace.ops_per_s_traced": ups_a,
        "trace.overhead_frac": 1.0 - ups_a / ups_u,
        "trace.counters_repeat": 1.0 if repeat else 0.0,
        "trace.spans_per_op": _per_op(len(a.start), k),
    })
    if not repeat:
        print("warning: deterministic counters differ between the two traced passes",
              file=sys.stderr)
    a.dump(WORK / ("spans-%s-seed%d.json" % (w.name, seed)), {
        "workload": w.name,
        "seed": seed,
        "ops": k,
        "counters_pass_b": b.signature(),
        "setup_self_times": setup.self_times(),
    })
    summary = {
        "ops": k,
        "passes": 3,
        "failed": failed,
        "fail_frac": failed / attempted,
        "counters": a.signature(),
    }
    return attempted, failed, metrics, summary, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=NAMES, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        return _setup_probe(args.setup_probe)
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "dqlink" / "__init__.py").is_file():
        print("error: no dqlink sources under %s" % SRC, file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    import dqlink

    if pathlib.Path(dqlink.__file__).resolve().parent != SRC / "dqlink":
        print("error: imported dqlink from %s" % dqlink.__file__, file=sys.stderr)
        return 2
    import workloads

    WORK.mkdir(exist_ok=True)
    ctx = workloads.Context(dqlink, ROOT, HERE, WORK)
    w = workloads.WORKLOADS[args.workload](ctx, args.seed)
    if args.trace:
        attempted, failed, metrics, summary, failures = traced_run(ctx, w, args.seed)
        units = PER_LAYER
    else:
        attempted, failed, metrics, summary, failures = end_to_end(ctx, w, args.seconds)
        units = END_TO_END
    for note in failures.notes:
        print(note, file=sys.stderr)
    machine = machine_block(dqlink)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  machine=machine, summary=summary)
    out = WORK / ("result-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    out.write_text(json.dumps(record, indent=1) + "\n")
    print("%s seed=%d trace=%d %s" % (
        args.workload, args.seed, args.trace,
        " ".join("%s=%.6g" % (k, v) for k, v in summary.items() if isinstance(v, (int, float)))))
    print(json.dumps({"machine": machine}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
