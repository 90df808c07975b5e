"""In-memory spans around dqlink's layer boundaries.

The benchmark wraps module and class attributes of dqlink from the
outside; nothing under src/ is edited.  Each call through a wrapped
attribute records one span: name, start, end, the enclosing span and the
op it belongs to.  Spans stay in flat arrays until the run ends and are
then written out as one JSON file.
"""

import json
import os
import time
from array import array
from contextlib import contextmanager

import numpy as np


class Tracer:
    """Flat span store with parent links, plus free-form counters."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = {}
        self.op_index = -1
        self._stack = []

    def _name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def add(self, counter, amount=1):
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def wrap(self, name, fn, after=None):
        """Return fn recording a span per call; after(result) may update
        counters once the call returns."""
        nid = self._name_id(name)
        start, end, names, parent, ops = (
            self.start, self.end, self.name, self.parent, self.op
        )
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            names.append(nid)
            parent.append(stack[-1] if stack else -1)
            ops.append(self.op_index)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    # aggregation -----------------------------------------------------

    def _columns(self):
        name = np.frombuffer(self.name, dtype=np.int32) if len(self.name) else np.empty(0, np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32) if len(self.parent) else np.empty(0, np.int32)
        dur = np.asarray(self.end) - np.asarray(self.start)
        return name, parent, dur

    def _mask(self, name, within=None):
        names, parent, _ = self._columns()
        nid = self._ids.get(name)
        if nid is None:
            return np.zeros(names.shape[0], dtype=bool)
        mask = names == nid
        if within is None:
            return mask
        outer = self._ids.get(within)
        if outer is None:
            return np.zeros_like(mask)
        inside = np.zeros_like(mask)
        for idx in np.flatnonzero(mask):
            p = parent[idx]
            while p >= 0 and names[p] != outer:
                p = parent[p]
            inside[idx] = p >= 0
        return inside

    def count(self, name, within=None):
        return int(np.count_nonzero(self._mask(name, within)))

    def busy(self, name, within=None):
        """Summed duration in seconds of the spans of one name."""
        _, _, dur = self._columns()
        return float(np.sum(dur[self._mask(name, within)]))

    def busy_by_op(self, name):
        """Summed duration per op index of the spans of one name."""
        _, _, dur = self._columns()
        ops = np.frombuffer(self.op, dtype=np.int32) if len(self.op) else np.empty(0, np.int32)
        out = {}
        mask = self._mask(name)
        for op, d in zip(ops[mask], dur[mask]):
            out[int(op)] = out.get(int(op), 0.0) + float(d)
        return out

    def self_times(self):
        """Per name: calls, busy and self seconds (busy minus children)."""
        names, parent, dur = self._columns()
        child = np.zeros(names.shape[0])
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        out = {}
        for nid, name in enumerate(self.names):
            mask = names == nid
            out[name] = {
                "calls": int(np.count_nonzero(mask)),
                "busy_s": float(np.sum(dur[mask])),
                "self_s": float(np.sum(dur[mask] - child[mask])),
            }
        return out

    def signature(self):
        """Deterministic counters: span counts by name and the counters."""
        names, _, _ = self._columns()
        counts = np.bincount(names, minlength=len(self.names))
        sig = {name: int(counts[i]) for i, name in enumerate(self.names) if counts[i]}
        sig.update(self.counters)
        return sig

    def dump(self, path, extra):
        """Write spans (times relative to the first start, microseconds)."""
        names, parent, dur = self._columns()
        t0 = self.start[0] if len(self.start) else 0.0
        doc = dict(extra)
        doc["names"] = self.names
        doc["self_times"] = self.self_times()
        doc["counters"] = self.counters
        doc["spans"] = {
            "name": names.tolist(),
            "parent": parent.tolist(),
            "op": list(self.op),
            "start_us": [round((s - t0) * 1e6, 3) for s in self.start],
            "dur_us": [round(d * 1e6, 3) for d in dur],
        }
        tmp = str(path) + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(doc, fh)
        os.replace(tmp, path)


class _CountingWriter:
    """Text stream proxy that counts what passes through it."""

    def __init__(self, dst):
        self.dst = dst
        self.written = 0

    def write(self, text):
        self.written += len(text.encode())
        return self.dst.write(text)


@contextmanager
def traced(dqlink, tracer):
    """Install span wrappers on dqlink's layer boundaries for the block."""
    import yaml

    from dqlink import _kernels, cli, io, motionpoly, trajectory

    MotionPolynomial = motionpoly.MotionPolynomial

    def ik_done(result):
        tracer.add("ik.solves")
        tracer.add("ik.iterations", result.iterations)
        tracer.add("ik.reciprocal", int(result.branch == "reciprocal"))

    def csv_writer(fn):
        def write_profile_csv(profile, dst):
            if isinstance(dst, (str, os.PathLike)):
                fn(profile, dst)
                tracer.add("io.csv_bytes", os.path.getsize(dst))
            else:
                counter = _CountingWriter(dst)
                fn(profile, counter)
                tracer.add("io.csv_bytes", counter.written)

        return write_profile_csv

    def profile_done(result):
        tracer.add("trajectory.knots", max(0, len(result.thetas) - 2))

    # (owners, attribute, span name, post-call hook)
    targets = [
        ((_kernels,), "arc_simpson", "kernels.arc_simpson", None),
        ((_kernels,), "poly_eval8", "kernels.poly_eval8", None),
        ((_kernels,), "dq_mul8", "kernels.dq_mul8", None),
        ((trajectory,), "arc_length", "trajectory.arc_length", None),
        ((MotionPolynomial,), "point_path", "motionpoly.point_path", None),
        ((yaml,), "safe_load", "io.yaml_parse", None),
        ((io, cli, dqlink), "load_mechanism", "io.load_mechanism", None),
        ((cli,), "main", "cli.main", None),
        ((dqlink, cli), "direct_kinematics", "kinematics.direct_kinematics", None),
        ((dqlink, cli), "inverse_kinematics", "kinematics.inverse_kinematics", ik_done),
        ((dqlink, cli), "arc_length_between", "trajectory.arc_length_between", None),
        ((dqlink, cli), "equidistant_profile", "trajectory.equidistant_profile", profile_done),
    ]
    saved = []
    try:
        for owners, attr, name, after in targets:
            for owner in owners:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, tracer.wrap(name, original, after))
        from_axes = MotionPolynomial.__dict__["from_axes"]
        saved.append((MotionPolynomial, "from_axes", from_axes))
        MotionPolynomial.from_axes = classmethod(
            tracer.wrap("motionpoly.from_axes", from_axes.__func__))
        for owner in (io, cli, dqlink):
            original = owner.__dict__["write_profile_csv"]
            saved.append((owner, "write_profile_csv", original))
            setattr(
                owner,
                "write_profile_csv",
                tracer.wrap("io.write_profile_csv", csv_writer(original)),
            )
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
