"""List the lines of ``src/comsoc`` that the test suite never executes.

    python3 tools/untested_lines.py              # trace the whole suite
    python3 tools/untested_lines.py PYTEST_ARGS  # trace a chosen run

Run from anywhere; only the standard library and pytest are needed. The
suite runs in this process under ``sys.settrace``, and every executable
line of a ``src/comsoc`` module that no test reaches is printed as
``path:line: text``. A line is executable when the compiler gives it
bytecode. Code run in child processes (the CLI determinism and demo
tests, for example) is not traced, so only what some test runs in
process counts as executed.

Tracing makes the suite several times slower, so a few tests with
wall-clock bounds fail under it. This tool reports lines, not test
outcomes, and it is not part of the tier-1 run. Exit status 0.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "comsoc"


def executable_lines(path):
    """Line numbers that carry bytecode in any code object of ``path``."""
    lines = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def traced_run(pytest_args):
    """Run pytest under a line tracer; the ``(file, line)`` pairs it ran."""
    import pytest

    prefix = str(PACKAGE)
    seen = set()

    def local(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        seen.add((filename, frame.f_lineno))
        return local

    sys.settrace(tracer)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
    print(f"pytest exit code {code} under tracing", file=sys.stderr)
    return seen


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    sys.path.insert(0, str(ROOT / "src"))
    seen = traced_run(args or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(path)):
            if (str(path), line) not in seen:
                print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
                missed += 1
    print(f"{missed} executable lines never run", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
