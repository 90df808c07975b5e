import copy
import functools
import importlib.util
import io
import math
import operator
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
import yaml

import dqlink
from dqlink import (
    DualQuaternion,
    Mechanism,
    ParseError,
    SchemaError,
    StudyViolation,
    direct_kinematics,
    linear_profile,
    load_mechanism,
    quintic_profile,
    save_mechanism,
    write_profile_csv,
    write_profile_structured,
)
from dqlink.cli import main

DATA = pathlib.Path(__file__).parent / "data"
SIXBAR = str(DATA / "sixbar.mech")
BENNETT = str(DATA / "bennett.mech")


def write_doc(tmp_path, doc, name="m.mech"):
    p = tmp_path / name
    p.write_text(yaml.safe_dump(doc))
    return p


def base_doc():
    return {
        "format": 1,
        "axes": [
            [0, 1, 0, 0, 0, 0, 0, 0],
            [0, 0, 3, 0, 0, 0, 0, 1],
            [0, 1, 1, 0, 0, 0, 0, -2],
        ],
        "driving_axis": [0, 1, 0, 0],
    }


def test_load_mechanism_fixture_shapes(sixbar, bennett):
    assert sixbar.motion.degree == 3
    assert sixbar.motion.coeffs[3, 0] == 1.0
    assert np.array_equal(sixbar.driving_axis, [0, 1, 0, 0])
    assert bennett.motion.degree == 2
    assert bennett.motion.study_tol == 1e-3


def test_load_mechanism_axes_equals_coefficients(tmp_path, sixbar):
    doc = base_doc()
    mech = load_mechanism(write_doc(tmp_path, doc))
    assert np.array_equal(mech.motion.coeffs, sixbar.motion.coeffs)


def test_save_load_roundtrip(tmp_path, sixbar, bennett):
    for mech in (sixbar, bennett):
        out = tmp_path / "roundtrip.mech"
        save_mechanism(mech, out, metadata={"note": "test"})
        back = load_mechanism(out)
        assert np.array_equal(back.motion.coeffs, mech.motion.coeffs)
        assert np.array_equal(back.driving_axis, mech.driving_axis)
        assert np.array_equal(back.tool_home.coeffs, mech.tool_home.coeffs)
        assert back.motion.study_tol == mech.motion.study_tol


def test_save_load_preserves_tool(tmp_path, sixbar):
    shifted = Mechanism(
        motion=sixbar.motion,
        driving_axis=sixbar.driving_axis,
        tool_home=DualQuaternion([1, 0, 0, 0, 0, 0, 0.085, 0]),
    )
    out = tmp_path / "tool.mech"
    save_mechanism(shifted, out)
    assert load_mechanism(out).tool_home.coeffs[6] == 0.085


def test_load_mechanism_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_mechanism(tmp_path / "nope.mech")


def test_load_mechanism_parse_errors(tmp_path):
    bad = tmp_path / "bad.mech"
    bad.write_text("a: [1, 2\n")
    with pytest.raises(ParseError):
        load_mechanism(bad)
    scalar = tmp_path / "scalar.mech"
    scalar.write_text("just a string\n")
    with pytest.raises(ParseError):
        load_mechanism(scalar)


def test_load_mechanism_schema_errors(tmp_path):
    doc = base_doc()
    doc["format"] = 2
    with pytest.raises(SchemaError):
        load_mechanism(write_doc(tmp_path, doc))

    doc = base_doc()
    doc["coefficients"] = [[1, 0, 0, 0, 0, 0, 0, 0]]
    with pytest.raises(SchemaError):
        load_mechanism(write_doc(tmp_path, doc))

    doc = base_doc()
    del doc["axes"]
    with pytest.raises(SchemaError):
        load_mechanism(write_doc(tmp_path, doc))

    doc = base_doc()
    doc["driving_axis"] = [0, 1, 0]
    with pytest.raises(SchemaError):
        load_mechanism(write_doc(tmp_path, doc))

    doc = base_doc()
    doc["driving_axis"] = [0, "x", 0, 0]
    with pytest.raises(SchemaError):
        load_mechanism(write_doc(tmp_path, doc))

    doc = base_doc()
    doc["study_tol"] = -1.0
    with pytest.raises(SchemaError):
        load_mechanism(write_doc(tmp_path, doc))

    doc = base_doc()
    doc["study_tol"] = "tight"
    with pytest.raises(SchemaError):
        load_mechanism(write_doc(tmp_path, doc))

    doc = base_doc()
    doc["metadata"] = ["not", "a", "mapping"]
    with pytest.raises(SchemaError):
        load_mechanism(write_doc(tmp_path, doc))

    # a structurally fine document whose axis cannot drive the chart
    doc = base_doc()
    doc["driving_axis"] = [1, 0, 0, 0]
    with pytest.raises(SchemaError):
        load_mechanism(write_doc(tmp_path, doc))


def test_load_mechanism_rejects_non_line_axis(tmp_path):
    doc = base_doc()
    doc["axes"][0] = [0, 1, 0, 0, 0, 1, 0, 0]
    with pytest.raises(StudyViolation):
        load_mechanism(write_doc(tmp_path, doc))


def test_write_profile_csv_format(tmp_path):
    prof = linear_profile(0.0, 1.0, duration=1.0, frequency=2.0)
    buf = io.StringIO()
    write_profile_csv(prof, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "index,time,theta,omega"
    assert lines[1] == "0,0.0,0.0,1.0"
    assert len(lines) == 4
    out = tmp_path / "prof.csv"
    write_profile_csv(prof, out)
    assert out.read_text() == buf.getvalue()
    assert buf.getvalue().endswith("\n")


def test_write_profile_structured(tmp_path):
    prof = linear_profile(0.5, 1.5, duration=1.0, frequency=4.0)
    out = tmp_path / "prof.yaml"
    write_profile_structured(prof, out)
    doc = yaml.safe_load(out.read_text())
    assert doc["format"] == 1
    assert doc["mode"] == "linear"
    assert doc["duration"] == 1.0
    assert doc["frequency"] == 4.0
    assert len(doc["samples"]) == 5
    assert doc["samples"][0] == [0.0, 0.5, pytest.approx(1.0)]
    # the written duration is the span of the samples, 11 steps of 1/10.6
    prof = quintic_profile(0.0, 1.0, duration=1.0, frequency=10.6, direction="increasing")
    write_profile_structured(prof, out)
    doc = yaml.safe_load(out.read_text())
    assert doc["duration"] == doc["samples"][-1][0] == 11 / 10.6


def test_cli_dk_prints_canonical_pose(capsys, sixbar):
    assert main(["dk", SIXBAR, "--theta", repr(math.pi / 3)]) == 0
    values = [float(v) for v in capsys.readouterr().out.split()]
    assert len(values) == 8
    want = direct_kinematics(sixbar, math.pi / 3).canonical().coeffs
    assert values[0] == 1.0
    assert np.allclose(values, want, atol=1e-12)


def test_cli_dk_degrees(capsys):
    assert main(["dk", SIXBAR, "--theta", repr(math.pi / 3)]) == 0
    rad = capsys.readouterr().out
    assert main(["dk", SIXBAR, "--theta", "60", "--degrees"]) == 0
    assert capsys.readouterr().out == rad


def test_cli_ik_recovers_angle(capsys):
    s3 = math.sqrt(3.0)
    pose = [-s3, -3, -15, s3, -7, -7 * s3, 2 * s3, 2]
    argv = ["ik", SIXBAR, "--pose"] + [repr(float(v)) for v in pose]
    assert main(argv) == 0
    out = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    assert out["theta"] == "1.047198"
    assert out["branch"] == "direct"
    assert abs(float(out["t"]) - s3) <= 1e-9
    assert float(out["residual"]) <= 1e-10
    assert int(out["iterations"]) <= 100


def test_cli_ik_home_pose(capsys):
    argv = ["ik", SIXBAR, "--pose", "1", "0", "0", "0", "0", "0", "0", "0"]
    assert main(argv) == 0
    out = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    assert out["theta"] == "0.000000"
    assert out["t"] == "INFINITY"
    assert out["branch"] == "reciprocal"


def test_cli_arclen(capsys):
    argv = [
        "arclen", SIXBAR,
        "--theta0", repr(math.pi / 3),
        "--theta1", repr(1.5 * math.pi),
        "--arc", "increasing",
    ]
    assert main(argv) == 0
    assert math.isclose(
        float(capsys.readouterr().out), 6.284647307540481, rel_tol=1e-9
    )


def test_cli_traj_csv_to_file(tmp_path):
    out = tmp_path / "traj.csv"
    argv = [
        "traj", SIXBAR,
        "--theta0", repr(math.pi / 3),
        "--theta1", repr(1.5 * math.pi),
        "--duration", "1", "--freq", "10",
        "--arc", "increasing", "--out", str(out),
    ]
    assert main(argv) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "index,time,theta,omega"
    assert len(lines) == 12
    first = lines[1].split(",")
    assert first[0] == "0"
    assert math.isclose(float(first[2]), math.pi / 3, rel_tol=1e-12)


def test_cli_traj_structured_stdout(capsys):
    argv = [
        "traj", BENNETT,
        "--theta0", "0.331", "--theta1", "5.893",
        "--duration", "1", "--freq", "5",
        "--mode", "quintic", "--arc", "long", "--format", "structured",
    ]
    assert main(argv) == 0
    doc = yaml.safe_load(capsys.readouterr().out)
    assert doc["mode"] == "quintic"
    assert len(doc["samples"]) == 6


def test_cli_usage_errors(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["arclen", SIXBAR, "--theta0", "0", "--theta1", "1", "--arc", "zigzag"])
    assert info.value.code == 2

    # every numeric option of every subcommand: a non-finite value is a
    # usage error naming the option, a negative exponent form still parses
    options = {
        "dk": {"--theta": ["1"]},
        "ik": {"--pose": ["1", "0", "0", "0", "0", "0", "0", "0"], "--success-tol": ["1e-10"]},
        "arclen": {"--theta0": ["0"], "--theta1": ["1"], "--tool": ["0", "0", "0"]},
        "traj": {
            "--theta0": ["0"],
            "--theta1": ["1"],
            "--duration": ["1"],
            "--freq": ["10"],
            "--tool": ["0", "0", "0"],
        },
    }

    def argv(command, option=None, value=None):
        args = [command, SIXBAR]
        for name, values in options[command].items():
            args += [name] + (values[:-1] + [value] if name == option else values)
        return args

    for command, names in options.items():
        assert main(argv(command)) == 0
        for option in names:
            for bad in ("nan", "NaN", "inf", "-inf", "1e999", "one"):
                with pytest.raises(SystemExit) as info:
                    main(argv(command, option, bad))
                assert info.value.code == 2
                assert "argument %s:" % option in capsys.readouterr().err
            assert main(argv(command, option, "-1e-5")) != 2
            assert "argument" not in capsys.readouterr().err


def test_cli_reads_negative_exponent_numbers(capsys):
    # argparse alone takes -5e-05 for an unknown option and exits 2
    def run(value, *head, tail=()):
        code = main(list(head) + [value] + list(tail))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    ik = ("ik", SIXBAR, "--pose", "1", "0", "0", "0", "0", "0", "0")
    assert run("-5e-05", *ik) == run("-0.00005", *ik)
    assert run("-5e-05", *ik)[0] != 2
    arclen = ("arclen", SIXBAR, "--theta0")
    got = run("-1E-1", *arclen, tail=("--theta1", "2"))
    assert got == run("-0.1", *arclen, tail=("--theta1", "2"))
    assert got[0] == 0 and float(got[1]) > 0.0


def test_mechanism_file_reads_exponent_numbers(tmp_path, capsys):
    # YAML 1.1 floats need a dot, so PyYAML returns 1e-9 as a string
    def mech(name, one, three, tol):
        p = tmp_path / name
        p.write_text(
            "format: 1\n"
            "axes:\n"
            "  - [0, %(one)s, 0, 0, 0, 0, 0, 0]\n"
            "  - [0, 0, %(three)s, 0, 0, 0, 0, %(one)s]\n"
            "  - [0, %(one)s, %(one)s, 0, 0, 0, 0, -2]\n"
            "driving_axis: [0, %(one)s, 0, 0]\n"
            "study_tol: %(tol)s\n" % dict(one=one, three=three, tol=tol)
        )
        return str(p)

    def dk(path):
        code = main(["dk", path, "--theta", "1.0471975511965976"])
        return code, capsys.readouterr().out

    dotted = dk(mech("dotted.mech", "1.0", "3.0", "1.0e-9"))
    exponent = dk(mech("exponent.mech", "1e0", "0.3E+1", "1e-9"))
    assert exponent == dotted
    assert dotted[0] == 0
    assert load_mechanism(mech("signed.mech", "+1e0", ".3e1", "1E-9")).motion.study_tol == 1e-9
    for tol in ("nan", "inf", "1e", "e5", "'x1e5'", ".inf", ".nan", "-1e-9", "0"):
        with pytest.raises(SchemaError):
            load_mechanism(mech("bad.mech", "1", "3", tol))
    # YAML 1.1 reads .inf as a float; it is a schema error, not a bad axis
    assert dk(mech("inf.mech", "1.0", "3.0", ".inf"))[0] == 3
    for one in ("nan", "inf", "1e"):
        with pytest.raises(SchemaError):
            load_mechanism(mech("bad.mech", one, "3", "1e-9"))
    # non-finite floats: YAML 1.1 .nan and .inf, an exponent that
    # overflows, and an integer too large for a float, in every field
    text = (DATA / "sixbar.mech").read_text()
    drive = "driving_axis: [0.0, 1.0, 0.0, 0.0]"
    axis = "  - [0.0, 0.0, 3.0, 0.0, 0.0, 0.0, 0.0, 1.0]"
    for bad in (".nan", ".inf", "-.inf", "1e999", "-1E+999", "1" + "0" * 400):
        files = [
            text.replace(drive, "driving_axis: [0.0, %s, 0.0, 0.0]" % bad),
            text.replace(axis, "  - [0.0, 0.0, %s, 0.0, 0.0, 0.0, 0.0, 1.0]" % bad),
            text + "tool_home: [1, 0, 0, 0, %s, 0, 0, 0]\n" % bad,
        ]
        files.append(
            "format: 1\ncoefficients:\n  - [1, 0, 0, 0, 0, 0, 0, 0]\n"
            "  - [%s, 0, 0, 0, 0, 0, 0, 0]\ndriving_axis: [0, 1, 0, 0]\n" % bad
        )
        for i, body in enumerate(files):
            assert bad in body
            p = tmp_path / ("nonfinite%d.mech" % i)
            p.write_text(body)
            with pytest.raises(SchemaError):
                load_mechanism(p)
    p.write_text(text.replace(drive, "driving_axis: [0.0, .nan, 0.0, 1.0]"))
    for argv in (
        ["dk", str(p), "--theta", "1"],
        ["arclen", str(p), "--theta0", "0", "--theta1", "1"],
    ):
        assert main(argv) == 3
        capsys.readouterr()


def test_format_must_be_the_integer_one(tmp_path, capsys):
    # true and 1.0 compare equal to 1 but are not integers; +1 and 0x1 are integers
    text = pathlib.Path(SIXBAR).read_text()
    assert text.startswith("format: 1\n")
    for value, want in (("true", 3), ("1.0", 3), ("1", 0), ("+1", 0), ("0x1", 0)):
        file = tmp_path / "m.mech"
        file.write_text(text.replace("format: 1\n", "format: %s\n" % value, 1))
        assert main(["dk", str(file), "--theta", "0.7"]) == want, value
        capsys.readouterr()
        if want:
            with pytest.raises(SchemaError):
                load_mechanism(file)


def test_cli_error_exit_codes(tmp_path, capsys):
    assert main(["dk", str(tmp_path / "ghost.mech"), "--theta", "1"]) == 3

    broken = tmp_path / "broken.mech"
    broken.write_text("format: [unclosed\n")
    assert main(["dk", str(broken), "--theta", "1"]) == 3

    wrong = tmp_path / "wrong.mech"
    wrong.write_text(yaml.safe_dump({"format": 3}))
    assert main(["dk", str(wrong), "--theta", "1"]) == 3

    argv = ["ik", SIXBAR, "--pose", "1", "0", "0", "0", "1", "0", "0", "0"]
    assert main(argv) == 4

    # an unreachable but valid displacement ends without convergence
    argv = ["ik", SIXBAR, "--pose", "1", "0", "0", "0", "0", "0.05", "0", "0"]
    assert main(argv) == 5
    capsys.readouterr()


def test_cli_ik_rejects_negative_success_tol(capsys):
    argv = ["ik", SIXBAR, "--pose", "1", "0", "0", "0", "0", "0", "0", "0"]
    assert main(argv + ["--success-tol", "-1"]) == 4
    assert "success_tol" in capsys.readouterr().err
    assert main(argv + ["--success-tol", "0"]) == 0


def test_cli_traj_sample_cap_exits_4(capsys):
    argv = ["traj", SIXBAR, "--theta0", "0.1", "--theta1", "1"]
    argv += ["--duration", "1e9", "--freq", "1e9", "--mode", "linear"]
    assert main(argv) == 4
    assert "duration*frequency" in capsys.readouterr().err


# the command line cases of tests/data/cli_cases.json, which CI also runs
# through the installed entry point with tools/cli_cases.py, whose checks
# these are
_spec = importlib.util.spec_from_file_location(
    "cli_cases", pathlib.Path(__file__).parents[1] / "tools" / "cli_cases.py"
)
cli_cases = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_cases)
CLI_CASES = cli_cases.load_cases()


@pytest.mark.parametrize("case", CLI_CASES, ids=[case["id"] for case in CLI_CASES])
def test_cli_cases(capsys, case):
    code = main(case["argv"])
    assert cli_cases.check(case, code, capsys.readouterr().out) == []


def test_mechanism_files_decode_as_utf8_in_any_locale(sixbar):
    # under the C locale without UTF-8 mode, Python decodes text files as
    # ASCII; the loader hands the file's bytes to PyYAML instead, which
    # reads non-ASCII metadata as UTF-8 and rejects a byte that is not
    code = (
        "import locale, sys, dqlink\n"
        "print(locale.getpreferredencoding(False))\n"
        "print(dqlink.direct_kinematics(dqlink.load_mechanism(sys.argv[1]), 1.0).coeffs.tolist())\n"
    )
    src = str(pathlib.Path(dqlink.__file__).parents[1])
    run = subprocess.run(
        [sys.executable, "-c", code, str(DATA / "sixbar_utf8.mech")],
        env=dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONPATH=src),
        capture_output=True,
        text=True,
    )
    assert run.returncode == 0, run.stderr
    encoding, pose = run.stdout.splitlines()
    assert encoding.lower().replace("-", "") != "utf8"
    assert pose == repr(direct_kinematics(sixbar, 1.0).coeffs.tolist())
    with pytest.raises(ParseError, match="#x00ff"):
        load_mechanism(DATA / "bad_byte.mech")


def test_cli_round_trip_with_a_scaled_tool(tmp_path, capsys, sixbar):
    # a tool frame scaled by 1e-10: dk and ik see only the projective pose
    tool = DualQuaternion(1e-10 * np.array([1, 0, 0, 0, 0, 0, 0.085, 0]))
    path = str(tmp_path / "tooled.mech")
    save_mechanism(Mechanism(sixbar.motion, sixbar.driving_axis, tool), path)
    assert main(["dk", path, "--theta", "2.3"]) == 0
    pose = capsys.readouterr().out.split()
    assert main(["ik", path, "--pose", *pose]) == 0
    assert "theta=2.300000" in capsys.readouterr().out.splitlines()


def test_save_load_roundtrip_random_linkages(tmp_path, random_linkage):
    # generated chains of 2-4 axes, each with a random tool displacement
    rng = np.random.default_rng(4242)
    out = tmp_path / "random.mech"
    for _ in range(60):
        base = random_linkage(rng, int(rng.integers(2, 5)))
        turn = rng.normal(size=4)
        tool = DualQuaternion.from_translation(rng.normal(size=3)) * DualQuaternion(
            np.concatenate([turn / np.linalg.norm(turn), np.zeros(4)])
        )
        mech = Mechanism(base.motion, base.driving_axis, tool_home=tool)
        save_mechanism(mech, out)
        back = load_mechanism(out)
        assert back.motion.coeffs.tobytes() == mech.motion.coeffs.tobytes()
        assert back.driving_axis.tobytes() == mech.driving_axis.tobytes()
        assert back.tool_home.coeffs.tobytes() == tool.coeffs.tobytes()
        assert back.motion.study_tol == mech.motion.study_tol


_DELETE = object()


def _fixture_mutations(doc, rng):
    """(label, copy of the document with one defect) pairs."""

    def edit(path, value):
        bad = copy.deepcopy(doc)
        parent = functools.reduce(operator.getitem, path[:-1], bad)
        if value is _DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
        return bad

    rows = "axes" if "axes" in doc else "coefficients"
    numeric_lists = [("driving_axis",)] + [(rows, i) for i in range(len(doc[rows]))]
    for key in doc:
        yield "without %s" % key, edit((key,), _DELETE)
    for path in [(rows,)] + numeric_lists:
        yield "scalar at %s" % (path,), edit(path, 5)
        yield "mapping at %s" % (path,), edit(path, {"x": 1})
    for path in numeric_lists:
        row = functools.reduce(operator.getitem, path, doc)
        yield "short %s" % (path,), edit(path, row[:-1])
        yield "long %s" % (path,), edit(path, row + [0.0])
        for value in ("x", None, True, [1.0]):
            spot = path + (int(rng.integers(len(row))),)
            yield "%r at %s" % (value, spot), edit(spot, value)
    if "study_tol" in doc:
        for value in ("x", None, True, [1.0]):
            yield "%r study_tol" % (value,), edit(("study_tol",), value)


def test_cli_exit_codes_on_mutated_fixtures(tmp_path, capsys):
    # every defect is a schema error (exit 3) except a missing metadata,
    # which is optional, and Bennett without its relaxed study_tol, whose
    # rounded coefficients then fail the Study check (exit 4)
    rng = np.random.default_rng(77)
    special = {
        ("sixbar", "without metadata"): 0,
        ("bennett", "without metadata"): 0,
        ("bennett", "without study_tol"): 4,
    }
    seen = 0
    for name, path in (("sixbar", SIXBAR), ("bennett", BENNETT)):
        doc = yaml.safe_load(pathlib.Path(path).read_text())
        for label, bad in _fixture_mutations(doc, rng):
            file = str(write_doc(tmp_path, bad))
            want = special.get((name, label), 3)
            for argv in (
                ["dk", file, "--theta", "0.7"],
                ["arclen", file, "--theta0", "0.2", "--theta1", "1.1"],
            ):
                assert main(argv) == want, (name, label, argv[0])
                capsys.readouterr()
            seen += 1
    assert seen == 81


_spec = importlib.util.spec_from_file_location(
    "capture", pathlib.Path(__file__).parents[1] / "tools" / "capture.py"
)
capture = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(capture)


def test_capture_compare_summarizes_moves_per_kind(capsys):
    old = [
        "('arc', 'a', 2.0)",
        "('arc', 'b', ('error', 'QuadratureFailure', 'panel [0.1, 0.2]'))",
        "('dk', 'a', (inf, -1.5), 3)",
        "('dk', 'b', (1.0, -1.5), 3)",
    ]
    new = [
        "('arc', 'a', 2.0000000000000004)",
        "('arc', 'b', ('error', 'QuadratureFailure', 'panel [0.1, 0.3]'))",
        "('dk', 'a', (inf, -1.5), 3)",
        "('dk', 'b', (1.0, -1.5), 4)",
        "('cli', 'x', (0, 'out'))",
    ]
    capture.compare(old, new)
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[1:4] == [
        ["arc", "2", "2", "1", "2.2e-16"],
        ["dk", "2", "1", "1", "0"],
        ["cli", "0->1", "1", "1", "0"],
    ]
    assert rows[4:] == [
        ["records", "whose", "error", "messages", "changed:", "1"],
        ["('arc',", "'b')"],
        ["-", "QuadratureFailure:", "panel", "[0.1,", "0.2]"],
        ["+", "QuadratureFailure:", "panel", "[0.1,", "0.3]"],
    ]
