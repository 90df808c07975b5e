"""Statements of src/dqlink that the tier-1 tests never execute.

Runs the tier-1 suite in this process under a sys.settrace line tracer
(the coverage package is not a dependency) and prints, per module of
src/dqlink, each line that carries bytecode but never ran.  ALLOWED names
the lines that may stay unreached, each with its reason.  The exit code
is that of pytest when the suite fails, otherwise 1 when a line outside
ALLOWED is unreached or an entry of ALLOWED no longer matches an
unreached line, and 0 when neither happens.

    PYTHONPATH=src python tools/unreached.py [extra pytest arguments]

The tracer slows the suite down about twofold.  It follows the main
thread only, and tests that run code in a subprocess add nothing to it.
"""

import ast
import collections
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dqlink"

# (module, enclosing function or None, stripped source line or None):
# reason.  An entry with a source line allows one unreached line of that
# text; one without allows every line of its function.
ALLOWED = {
    ("cli.py", None, "sys.exit(main())"): "runs only as python -m dqlink.cli",
    ("dq.py", "DualQuaternion.__repr__", None): "a debugging aid that no test prints",
    ("motionpoly.py", "MotionPolynomial.__repr__", None): "a debugging aid that no test prints",
    ("motionpoly.py", "RationalPointPath.__repr__", None): "a debugging aid that no test prints",
    ("_kernels.py", "path_speed", None): (
        "no library code calls it; it stays as the helper of arc_simpson"
    ),
    ("_kernels.py", "arc_simpson", None): (
        "no library code calls it; the benchmark tracer still wraps it by name"
    ),
}


def executable_lines(path: pathlib.Path) -> set:
    """Lines of a module that carry bytecode, in every nested code object."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def scopes(path: pathlib.Path) -> dict:
    """Qualified name of the innermost function or class around each line."""
    owner = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                for line in range(child.lineno, child.end_lineno + 1):
                    owner[line] = name
                visit(child, name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return owner


def trace_suite(args: list) -> tuple:
    """Exit code of pytest over args and the lines each module ran."""
    hits = collections.defaultdict(set)
    prefix = str(PACKAGE) + "/"

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    import pytest

    sys.settrace(on_call)
    try:
        # the repository's pytest settings hold, but for its -rA report
        argv = ["-q", "-p", "no:cacheprovider", "-o", "addopts=", str(ROOT / "tests")]
        code = pytest.main(argv + args)
    finally:
        sys.settrace(None)
    return int(code), hits


def allowed_by(module: str, scope, text: str, used: collections.Counter):
    """The entry of ALLOWED that covers a line, counted in used, or None."""
    for key in ((module, scope, None), (module, scope, text), (module, None, text)):
        if key in ALLOWED and (key[2] is None or not used[key]):
            used[key] += 1
            return key
    return None


def main(args: list) -> int:
    code, hits = trace_suite(args)
    if code != 0:
        print("tier-1 failed under the tracer (pytest exit %d)" % code)
        return code
    unexpected, used = 0, collections.Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        owner = scopes(path)
        missed = sorted(executable_lines(path) - hits[str(path)])
        for line in missed:
            text = source[line - 1].strip()
            key = allowed_by(path.name, owner.get(line), text, used)
            mark = "allowed" if key else "UNREACHED"
            unexpected += key is None
            print("%s:%d: %s  %s" % (path.name, line, mark, text))
    stale = [key for key in ALLOWED if key not in used]
    for key in stale:
        print("stale allow-list entry, nothing unreached matches it: %r" % (key,))
    print("%d unreached lines outside the allow-list, %d stale entries" % (unexpected, len(stale)))
    return 1 if unexpected or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
