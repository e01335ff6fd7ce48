"""Lines of `src/spanflow` that no test reaches, by a stdlib line trace.

Usage, from the repository root:

    PYTHONPATH=src python tools/unreached.py [pytest arguments]

Runs pytest in this process under `sys.settrace` and reports every
executable line of the package that no test executed, except the lines
listed in `unreached_allow.txt` beside this file.  It exits nonzero when a
test fails, when an unlisted line is unreached, or when a listed line is
reached (the list is stale).  Only this process is traced: code run in a
subprocess, such as the CLI tests' `python -m spanflow.cli`, counts as
unreached.

A line is executable when the compiler attributes bytecode to it, in the
module's code object or any code object nested in it.  The RESUME that opens
each code object is left out (line 0 of a module, the first line of a
function's own code), because tracing reports a call there, not a line.
"""
from __future__ import annotations

import os
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src" / "spanflow"
ALLOW = HERE / "unreached_allow.txt"


def executable_lines(path: Path) -> set[int]:
    """The lines of a source file that carry bytecode."""
    lines: set[int] = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        own = {line for _, _, line in code.co_lines() if line}
        if code.co_name != "<module>":
            own.discard(code.co_firstlineno)
        lines |= own
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def read_allowlist(path: Path) -> dict[str, str]:
    """`file:line` -> reason, one `file:line  reason` entry per line; `#` starts a comment."""
    allowed = {}
    for raw in path.read_text().splitlines():
        text = raw.split("#", 1)[0].strip()
        if text:
            where, _, reason = text.partition(" ")
            if not reason.strip():
                raise SystemExit(f"{path.name}: {where} has no reason")
            allowed[where] = reason.strip()
    return allowed


class Tracer:
    """pytest plugin: traces the package's lines from construction to the end
    of the session, then reports and fails the run on unreached lines."""

    def __init__(self):
        self.files = {str(p): p for p in sorted(SRC.glob("*.py"))}
        self.hits: set[tuple[str, int]] = set()
        self.is_ours: dict[str, str | None] = {}   # co_filename -> our path or None
        self.unreached: list[str] = []
        self.stale: list[str] = []
        sys.settrace(self._call)
        threading.settrace(self._call)

    def _call(self, frame, event, arg):
        name = frame.f_code.co_filename
        ours = self.is_ours.get(name, False)
        if ours is False:
            real = os.path.realpath(name)
            ours = self.is_ours[name] = real if real in self.files else None
        return None if ours is None else self._line

    def _line(self, frame, event, arg):
        if event == "line":
            self.hits.add((frame.f_code.co_filename, frame.f_lineno))
        return self._line

    def pytest_sessionfinish(self, session):
        sys.settrace(None)
        threading.settrace(None)
        reached: dict[str, set[int]] = {}
        for name, line in self.hits:
            reached.setdefault(self.is_ours[name], set()).add(line)
        missed = []
        for real, path in self.files.items():
            seen = reached.get(real, set())
            missed += [f"{path.name}:{n}" for n in sorted(executable_lines(path) - seen)]
        allowed = read_allowlist(ALLOW)
        self.unreached = [where for where in missed if where not in allowed]
        self.stale = sorted(set(allowed) - set(missed))
        if (self.unreached or self.stale) and session.exitstatus == 0:
            session.exitstatus = 1

    def pytest_terminal_summary(self, terminalreporter):
        tr = terminalreporter
        tr.section("unreached lines of src/spanflow")
        for where in self.unreached:
            path, line = where.split(":")
            text = (SRC / path).read_text().splitlines()[int(line) - 1].strip()
            tr.write_line(f"{where}: {text}")
        for where in self.stale:
            tr.write_line(f"{where}: on {ALLOW.name}, but reached or not an executable line")
        if not self.unreached and not self.stale:
            tr.write_line(f"every line is reached, apart from those on {ALLOW.name}")


if __name__ == "__main__":
    sys.exit(pytest.main(sys.argv[1:], plugins=[Tracer()]))
