"""Statements of `src/grancount` that the tier-1 suite never runs.

Usage: python tools/unrun_lines.py [pytest arguments]

No coverage package is needed. A line tracer (`sys.settrace`, and
`threading.settrace` for threads started later) is installed before
`grancount` is imported; then tier-1 runs in this process through
`pytest.main` (extra arguments are passed on, e.g. `-k cli`). For each module
it prints the statements that never ran, as line ranges. A statement is a line
that holds bytecode in the module's compiled code objects, so blank lines,
comments and docstrings of functions never count. Only this process is traced:
the children of `workers > 1` (the `fit` stage's process pool) are not, so
lines that run only there are reported as unrun.

Exit status: that of pytest.
"""

import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "grancount")


def statements(path: str) -> set[int]:
    """Line numbers that hold bytecode in the module at `path` and every code object in it."""
    with open(path, encoding="utf-8") as fh:
        stack = [compile(fh.read(), path, "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def ranges(lines) -> str:
    """'3-5, 9' for [3, 4, 5, 9]."""
    spans = []
    for line in sorted(lines):
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main(argv=None) -> int:
    ran: dict[str, set[int]] = {}
    ours: dict[str, bool] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in ours:
            ours[filename] = os.path.realpath(filename).startswith(PACKAGE + os.sep)
        if not ours[filename]:
            return None
        ran.setdefault(filename, set()).add(frame.f_lineno)
        return local

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        import pytest

        status = pytest.main(["-q", "-p", "no:cacheprovider", os.path.join(ROOT, "tests"),
                              *(sys.argv[1:] if argv is None else argv)])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    hit = {os.path.realpath(name): lines for name, lines in ran.items()}
    total_missed = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        executable = statements(path)
        missed = executable - hit.get(path, set())
        total_missed += len(missed)
        print(f"{name}: {len(missed)} of {len(executable)} statements unrun"
              + (f": {ranges(missed)}" if missed else ""))
    print(f"total: {total_missed} statements unrun")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
