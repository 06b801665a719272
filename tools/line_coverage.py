"""Line coverage of ``src/mscgossip`` under the tier-1 tests, stdlib only.

Runs the test suite in this process under a ``sys.settrace`` line tracer,
then prints, per module, the executable lines that no test ran and that
``tools/coverage_allowlist.txt`` does not excuse.  Each allowlist entry is
one ``file.py:line — reason`` line; ``#`` starts a comment.  Exits 1 when a
test fails, when a line is missed and not allowlisted, or when an allowlist
entry names a line that ran or is not executable (a stale excuse), and 0
otherwise.  Extra arguments go to pytest.

    python3 tools/line_coverage.py

The executable lines of a module are those its compiled code objects map
bytecode to (``co_lines``), so the figure counts statements and the
continuation lines of multi-line expressions, not blank lines, comments or
docstrings.  Code compiled at run time from strings is not counted.  Tests
that start a fresh interpreter are run, but their lines are not traced.
"""

from __future__ import annotations

import re
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mscgossip"
ALLOWLIST = Path(__file__).resolve().with_name("coverage_allowlist.txt")
ENTRY = re.compile(r"^(\S+\.py):(\d+)\s+—\s+\S")


def executable_lines(path: Path) -> set[int]:
    """The lines that some code object compiled from ``path`` runs."""
    lines: set[int] = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    # a module's first line is only the docstring's start
    lines.discard(0)
    return lines


def read_allowlist(path: Path) -> dict[tuple[str, int], str]:
    """``(file name, line) -> entry text``; a malformed entry is an error."""
    out = {}
    for n, text in enumerate(path.read_text().splitlines(), 1):
        text = text.strip()
        if not text or text.startswith("#"):
            continue
        match = ENTRY.match(text)
        if match is None:
            sys.exit(f"{path.name}:{n}: want 'file.py:line — reason', got {text!r}")
        out[(match[1], int(match[2]))] = text
    return out


def traced_run(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest under the tracer: (pytest's exit code, lines run per file)."""
    package = str(PACKAGE) + "/"
    hits: dict[str, set[int]] = {}
    # a code object whose every line has run is not traced again
    done: set = set()
    left: dict = {}

    def local(frame, event, arg):
        code = frame.f_code
        todo = left[code]
        todo.discard(frame.f_lineno)
        hits[code.co_filename].add(frame.f_lineno)
        if not todo:
            done.add(code)
        return local

    def call(frame, event, arg):
        code = frame.f_code
        if code in done or not code.co_filename.startswith(package):
            return None
        if code not in left:
            left[code] = {line for _, _, line in code.co_lines() if line is not None}
            hits.setdefault(code.co_filename, set())
        # the call itself runs the header line, which gets no line event
        left[code].discard(code.co_firstlineno)
        hits[code.co_filename].add(code.co_firstlineno)
        return local

    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    threading.settrace(call)
    sys.settrace(call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), hits


def main(argv: list[str]) -> int:
    allow = read_allowlist(ALLOWLIST)
    status, hits = traced_run(argv)
    # per module, the executable lines that no test ran
    missed: dict[str, set[int]] = {}
    total = run = unexcused = 0
    print()
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        ran = hits.get(str(path), set()) & lines
        missed[path.name] = lines - ran
        total += len(lines)
        run += len(ran)
        bare = sorted(n for n in missed[path.name] if (path.name, n) not in allow)
        unexcused += len(bare)
        print(
            f"{path.name:18} {len(ran):5}/{len(lines):<5} run"
            f"  {len(missed[path.name]) - len(bare):3} allowlisted  {len(bare):3} missed"
            + (f": {_ranges(bare)}" if bare else "")
        )
    print(f"{'total':18} {run:5}/{total:<5} run ({100 * run / max(total, 1):.1f}%)")
    stale = [text for (name, n), text in allow.items() if n not in missed.get(name, ())]
    for text in stale:
        print(f"stale allowlist entry (the line ran or is not executable): {text}")
    if status != 0:
        print(f"pytest exited {status}")
    return 1 if unexcused or stale or status != 0 else 0


def _ranges(lines: list[int]) -> str:
    """``[1, 2, 3, 7]`` as ``1-3, 7``."""
    out, start = [], None
    for i, n in enumerate(lines):
        if start is None:
            start = n
        if i + 1 == len(lines) or lines[i + 1] != n + 1:
            out.append(str(start) if start == n else f"{start}-{n}")
            start = None
    return ", ".join(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
