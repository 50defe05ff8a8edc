"""Reach gate: run the tier-1 suite under a line recorder and fail on any
executable line of ``src/edgevault/`` that no test runs and that ``ALLOWED``
does not list with a reason.

Run it from anywhere, with the test dependencies installed; extra arguments
go to pytest::

    python tests/reach.py

It exits 0 when every executable line is reached or allowed, and 1 when a
line is unreached and not allowed, when an allowed line is reached or no
longer executable (a stale entry), or when the suite itself fails.

The recorder is a ``sys.settrace`` hook in a generated ``sitecustomize``
module that ``PYTHONPATH`` puts first, so every Python process the suite
starts reports too: each writes the lines it ran to a file when it exits.
Forked workers that leave through ``os._exit`` do not report.  A line is
executable when a code object compiled from the module maps an instruction
to it (``co_lines``); entering a code object counts as running its first line.
pytest does not collect this file.

The fuzz tests draw new inputs on every run, so a line that only they reach
makes the gate flaky; ``python tests/reach.py -m "not hypothesis"`` shows
whether the fixed-input tests reach every line by themselves.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "edgevault"

# "file:line" -> why no test runs it
ALLOWED = {
    "cli.py:521": 'the `if __name__ == "__main__"` entry; the console script calls main() itself',
}

_RECORDER = """\
import atexit, os, sys, threading

_hits = set()


def _line(frame, event, arg):
    if event == "line":
        _hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    if frame.f_code.co_filename.startswith({prefix!r}):
        _hits.add((frame.f_code.co_filename, frame.f_lineno))
        return _line
    return None


def _dump():
    sys.settrace(None)
    with open(os.path.join({out!r}, f"{{os.getpid()}}.txt"), "w") as f:
        f.writelines(f"{{path}}:{{line}}\\n" for path, line in _hits)


sys.settrace(_call)
threading.settrace(_call)
atexit.register(_dump)
"""


def executable_lines(path: Path) -> set[int]:
    """The lines some instruction of the module's code objects maps to."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # line 0: module entry
        stack.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return lines


def run_suite(pytest_args: list[str]) -> tuple[int, set[str]]:
    """pytest's exit code and the reached lines as "file:line"."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp, "hits")
        out.mkdir()
        Path(tmp, "sitecustomize.py").write_text(
            _RECORDER.format(prefix=str(PACKAGE) + os.sep, out=str(out)))
        path = [tmp, str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
        code = subprocess.call(
            [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
             "-p", "no:cacheprovider", *pytest_args],
            cwd=ROOT, env=env)
        reached = set()
        for report in out.iterdir():
            for entry in report.read_text().splitlines():
                file, line = entry.rsplit(":", 1)
                reached.add(f"{Path(file).relative_to(PACKAGE)}:{line}")
    return code, reached


def main(pytest_args: list[str]) -> int:
    code, reached = run_suite(pytest_args)
    unreached, total = [], 0
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text().splitlines()
        for line in sorted(executable_lines(path)):
            total += 1
            name = f"{path.name}:{line}"
            if name not in reached:
                unreached.append((name, text[line - 1].strip()))
    missed = [(n, t) for n, t in unreached if n not in ALLOWED]
    stale = sorted(set(ALLOWED) - {n for n, _ in unreached})
    print(f"reach: {total - len(unreached)} of {total} executable lines in src/edgevault/ "
          f"reached; {len(unreached) - len(missed)} unreached and allowed")
    for name, source in missed:
        print(f"  unreached: {name}: {source}")
    for name in stale:
        print(f"  stale allowlist entry (reached, or not an executable line): {name}")
    if code != 0:
        print(f"reach: the suite failed (pytest exit {code})")
    return 1 if missed or stale or code != 0 else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
