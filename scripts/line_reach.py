"""Line-reach report: which executable lines of src/mufield a pytest run never reaches.

    python scripts/line_reach.py                    # the Tier-1 suite, tests/
    python scripts/line_reach.py tests/test_exact.py -k blocked

Arguments are passed to pytest as they are (default: -q tests). The run
imports mufield from src/ under a stdlib sys.settrace tracer, so it takes
about twice as long as the suite alone; it is not part of Tier-1.

A line counts as executable when the compiled module holds an instruction
for it. The tracer cannot see lines that run in another process: a test's
subprocess, or the helper that `converge --trace` forks. Such lines are
listed as unreached even when a test runs them. A test that bounds its own
run time may fail under the tracer.

Exit status: pytest's own when it fails, else 0.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mufield"


def executable_lines(source: str, path: Path) -> set:
    """The lines of path's source that hold at least one instruction of its compiled code."""
    lines, stack = set(), [compile(source, str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return lines


def traced_run(args: list, files: set) -> tuple:
    """(pytest exit code, {file: lines reached}) of one in-process pytest run."""
    reached = {f: set() for f in files}

    def local(frame, event, arg):
        reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        if frame.f_code.co_filename not in reached:
            return None
        reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    import pytest

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]  # as PYTHONPATH=src python -m pytest, run from the root
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), reached


def _spans(lines: list) -> list:
    """Sorted lines folded into (first, last) runs of consecutive numbers."""
    out = []
    for n in lines:
        if out and n == out[-1][1] + 1:
            out[-1][1] = n
        else:
            out.append([n, n])
    return out


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv) or ["-q", str(ROOT / "tests")]
    sources = {path: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}  # as the run imports them
    code, reached = traced_run(args, {str(p) for p in sources})
    total = unreached_total = 0
    print("\n# line reach of src/mufield (lines run in a subprocess or a forked child are not seen)")
    for path, source in sources.items():
        lines = executable_lines(source, path)
        unreached = sorted(lines - reached[str(path)])
        total += len(lines)
        unreached_total += len(unreached)
        print(f"{path.relative_to(ROOT)}: {len(unreached)} of {len(lines)} executable lines unreached")
        text = source.splitlines()
        for a, b in _spans(unreached):
            where = f"{a}" if a == b else f"{a}-{b}"
            print(f"  {where:>9}  {text[a - 1].strip()}")
    print(f"total: {unreached_total} of {total} executable lines unreached")
    return code if code not in (0, 5) else 0


if __name__ == "__main__":
    sys.exit(main())
