"""Mechanism files and trajectory profile serialization.

A mechanism file is a YAML mapping::

    format: 1
    axes:                    # exclusive with coefficients
      - [0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
      - ...
    coefficients:            # ascending powers of t, 8 numbers per row
      - [...]
    driving_axis: [q0, qx, qy, qz]
    tool_home: [1, 0, 0, 0, 0, 0, 0, 0]   # optional, identity default
    study_tol: 1.0e-9                     # optional
    metadata: {}                          # optional, free form

With axes the motion polynomial is the product of factors (t - axis) in
file order; with coefficients it is taken verbatim.  Either way the
loaded motion must pass the Study verification at study_tol.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np
import yaml

from ._tolerances import STUDY_TOL, axis_line_tol
from .dq import DualQuaternion
from .errors import ParseError, SchemaError, StudyViolation
from .kinematics import Mechanism
from .motionpoly import MotionPolynomial
from .trajectory import TrajectoryProfile

# a YAML 1.2 float with an exponent, such as 1e-6 or -2.5E+3
_EXPONENT_FLOAT = re.compile(r"[-+]?(\.[0-9]+|[0-9]+(\.[0-9]*)?)[eE][-+]?[0-9]+")


def _number(value):
    """The finite float a YAML scalar denotes, or None when it is none.

    PyYAML follows YAML 1.1, whose floats need a dot, and so returns
    1e-6 as a string; such a string is read as the YAML 1.2 float it
    is.  Booleans, any other string, .nan, .inf and values that
    overflow a float, such as 1e999, are not finite numbers.
    """
    if isinstance(value, str) and _EXPONENT_FLOAT.fullmatch(value):
        value = float(value)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        value = float(value)
    except OverflowError:
        return None
    return value if math.isfinite(value) else None


def _number_list(value, length: int, what: str) -> list:
    if not isinstance(value, (list, tuple)) or len(value) != length:
        raise SchemaError("%s must be a list of %d numbers" % (what, length))
    out = [_number(v) for v in value]
    if None in out:
        raise SchemaError("%s must contain only finite numbers" % what)
    return out


def load_mechanism(path) -> Mechanism:
    """Read a mechanism file.

    The file is decoded as UTF-8, or as UTF-16 after a byte order mark,
    whatever the locale.  Raises ParseError for files that do not decode
    or are not YAML mappings, SchemaError for structural problems, and
    StudyViolation when the motion or an axis fails validation.
    """
    data = Path(path).read_bytes()
    try:
        doc = yaml.safe_load(data)
    except yaml.YAMLError as exc:
        raise ParseError("invalid YAML in %s: %s" % (path, exc)) from exc
    if not isinstance(doc, dict):
        raise ParseError("mechanism file must be a YAML mapping")
    # YAML's true and 1.0 compare equal to 1 but are not the integer 1
    fmt = doc.get("format")
    if type(fmt) is not int or fmt != 1:
        raise SchemaError("missing or unsupported format (expected 1)")
    axes = doc.get("axes")
    coefficients = doc.get("coefficients")
    if (axes is None) == (coefficients is None):
        raise SchemaError("exactly one of axes or coefficients is required")
    study_tol = _number(doc.get("study_tol", STUDY_TOL))
    if study_tol is None or study_tol <= 0.0:
        raise SchemaError("study_tol must be a finite positive number")
    driving = _number_list(doc.get("driving_axis"), 4, "driving_axis")
    tool_raw = doc.get("tool_home")
    tool = None
    if tool_raw is not None:
        tool = DualQuaternion(_number_list(tool_raw, 8, "tool_home"))
    metadata = doc.get("metadata")
    if metadata is not None and not isinstance(metadata, dict):
        raise SchemaError("metadata must be a mapping")

    if axes is not None:
        if not isinstance(axes, list) or not axes:
            raise SchemaError("axes must be a non-empty list")
        parsed = []
        for idx, row in enumerate(axes):
            h = DualQuaternion(_number_list(row, 8, "axes[%d]" % idx))
            if not h.is_line(axis_line_tol(study_tol)):
                raise StudyViolation("axes[%d] is not a Pluecker line" % idx)
            parsed.append(h)
        motion = MotionPolynomial.from_axes(parsed, study_tol=study_tol)
    else:
        if not isinstance(coefficients, list) or not coefficients:
            raise SchemaError("coefficients must be a non-empty list")
        rows = [
            _number_list(row, 8, "coefficients[%d]" % idx)
            for idx, row in enumerate(coefficients)
        ]
        motion = MotionPolynomial(np.array(rows), study_tol=study_tol)

    try:
        return Mechanism(motion=motion, driving_axis=driving, tool_home=tool)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def save_mechanism(mechanism: Mechanism, path, metadata: dict = None):
    """Write a mechanism file using the coefficients representation.

    Floats serialize through repr, so a save/load round trip reproduces
    the coefficients bit for bit.
    """
    doc = {
        "format": 1,
        "study_tol": float(mechanism.motion.study_tol),
        "coefficients": [
            [float(v) for v in row] for row in mechanism.motion.coeffs
        ],
        "driving_axis": [float(v) for v in mechanism.driving_axis],
        "tool_home": [float(v) for v in mechanism.tool_home.coeffs],
    }
    if metadata is not None:
        doc["metadata"] = metadata
    Path(path).write_text(yaml.safe_dump(doc, sort_keys=False))


def _write_text(dst, text: str):
    if isinstance(dst, (str, Path)):
        Path(dst).write_text(text)
    else:
        dst.write(text)


def write_profile_csv(profile: TrajectoryProfile, dst):
    """Write index,time,theta,omega rows.

    Records are newline terminated without trailing delimiters and
    floats are written with repr, so identical profiles serialize to
    identical bytes.
    """
    lines = ["index,time,theta,omega"]
    for i, (t, theta, omega) in enumerate(profile.samples):
        lines.append("%d,%r,%r,%r" % (i, t, theta, omega))
    _write_text(dst, "\n".join(lines) + "\n")


def write_profile_structured(profile: TrajectoryProfile, dst):
    """Write the profile as a YAML mapping with a samples list."""
    doc = {
        "format": 1,
        "mode": profile.mode,
        "duration": float(profile.duration),
        "frequency": float(profile.frequency),
        "samples": [list(s) for s in profile.samples],
    }
    _write_text(dst, yaml.safe_dump(doc, sort_keys=False))
