"""Run the command line cases of tests/data/cli_cases.json.

    python tools/cli_cases.py [COMMAND ...]

Each case's argv runs after COMMAND, by default the installed dqlink
entry point, with {data} replaced by the tests/data directory.  One line
per case is printed; the exit code is 1 when some case fails a check and
0 otherwise.  Tier-1 runs the same cases through dqlink.cli.main with
load_cases and check from here (tests/test_io_cli.py::test_cli_cases).
"""

import json
import pathlib
import subprocess
import sys

DATA = pathlib.Path(__file__).resolve().parent.parent / "tests" / "data"


def load_cases() -> list:
    """The cases, with {data} in argv replaced by the data directory."""
    cases = json.loads((DATA / "cli_cases.json").read_text(encoding="utf-8"))["cases"]
    for case in cases:
        case["argv"] = [arg.replace("{data}", str(DATA)) for arg in case["argv"]]
    return cases


def check(case: dict, code: int, out: str) -> list:
    """The checks of a case that an exit code and a stdout text fail."""
    lines = out.splitlines()
    failed = []
    if code != case["exit"]:
        failed.append("exit code %d, want %d" % (code, case["exit"]))
    missing = [line for line in case.get("lines", ()) if line not in lines]
    if missing:
        failed.append("missing lines %r" % (missing,))
    if "count" in case and len(lines) != case["count"]:
        failed.append("%d lines, want %d" % (len(lines), case["count"]))
    if "last_theta" in case:
        last = lines[-1].split(",") if lines else []
        if len(last) != 4 or float(last[2]) != case["last_theta"]:
            failed.append("last row %r, want theta %r" % (last, case["last_theta"]))
    if "values" in case:
        try:
            got = [float(v) for v in out.split()]
        except ValueError:
            got = []
        want = case["values"]
        if len(got) != len(want) or any(abs(g - w) > case["tol"] for g, w in zip(got, want)):
            failed.append("values %r, want %r within %g" % (got, want, case["tol"]))
    return failed


def main(command: list) -> int:
    cases = load_cases()
    failures = 0
    for case in cases:
        run = subprocess.run(command + case["argv"], capture_output=True, text=True)
        failed = check(case, run.returncode, run.stdout)
        failures += bool(failed)
        print("%-4s %s" % ("FAIL" if failed else "ok", case["id"]))
        if failed:
            for line in failed + run.stderr.splitlines():
                print("     " + line)
    print("%d of %d cases failed" % (failures, len(cases)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or ["dqlink"]))
