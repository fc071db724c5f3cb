"""pytest plugin: list the statements of src/ospoly that no test executed.

Run from the repository root:

    PYTHONPATH=tests python -m pytest -q -p line_reach

It installs a ``sys.settrace`` hook that records line events in frames of
src/ospoly only, and at the end of the test run prints, in the terminal
summary, each statement none of whose lines ran, as ``file:line  source``.
Docstrings and ``def``/``class`` lines do not count.  Only the standard
library is used; tracing makes a run several times slower.

Run as a script, it answers what the verifiers themselves run:

    PYTHONPATH=src python tests/line_reach.py

It starts the same recorder before ``ospoly`` is imported, runs every case
of ``test_report_sweep.grid()`` and every rung of the three ladders of
bench/ladders.py at seed 0 (read from that file, as test_bench_pins does),
and prints the src/ospoly statements none of them executed.
"""

import ast
import os
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "ospoly"

_HEADERS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_NO_CODE = (ast.Global, ast.Nonlocal)


def statements(source: str) -> list[range]:
    """The lines of each statement that counts, in source order.

    A simple statement owns all its lines; a compound one (if, for, while,
    with, try) owns its header, up to its first body statement.  Docstrings,
    ``def`` and ``class`` statements, ``global`` and ``nonlocal`` do not
    count; the statements in their bodies do.
    """
    out = []

    def visit(body):
        for i, stmt in enumerate(body):
            is_doc = (
                i == 0
                and isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)
                and isinstance(stmt.value.value, str)
            )
            inner = [getattr(stmt, name, []) for name in ("body", "orelse", "finalbody")]
            inner += [h.body for h in getattr(stmt, "handlers", [])]
            inner = [b for b in inner if b]
            if not (is_doc or isinstance(stmt, _HEADERS + _NO_CODE)):
                end = inner[0][0].lineno - 1 if inner else stmt.end_lineno
                out.append(range(stmt.lineno, max(end, stmt.lineno) + 1))
            for b in inner:
                visit(b)

    tree = ast.parse(source)
    visit(tree.body)
    return out


def unreached(source: str, executed: set[int]) -> list[int]:
    """The first line of each counted statement of source none of whose
    lines is in executed."""
    return [lines[0] for lines in statements(source) if executed.isdisjoint(lines)]


class LineRecorder:
    """Line events of the code in one directory, per file."""

    def __init__(self, root: Path):
        self.root = str(root)
        self._prefix = os.path.join(self.root, "")  # the root and a separator
        self.hits: dict[str, set[int]] = {}
        self._local: dict = {}  # per file, the trace function of its frames

    def _global(self, frame, event, arg):
        name = frame.f_code.co_filename
        if name in self._local:
            return self._local[name]
        if not name.startswith(self._prefix):
            return None
        lines = self.hits.setdefault(name, set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        self._local[name] = local
        return local

    def start(self):
        self._previous = sys.gettrace()
        sys.settrace(self._global)

    def stop(self):
        sys.settrace(self._previous)

    def report(self) -> list[str]:
        """``file:line  source`` of every unexecuted statement."""
        out = []
        for path in sorted(Path(self.root).glob("*.py")):
            text = path.read_text()
            rows = text.splitlines()
            for line in unreached(text, self.hits.get(str(path), set())):
                out.append(f"{path.name}:{line}  {rows[line - 1].strip()}")
        return out


_RECORDER = pytest.StashKey[LineRecorder]()


def pytest_configure(config):
    config.stash[_RECORDER] = recorder = LineRecorder(SRC)
    recorder.start()


def pytest_terminal_summary(terminalreporter, config):
    recorder = config.stash[_RECORDER]
    recorder.stop()
    lines = recorder.report()
    terminalreporter.write_sep("-", f"{len(lines)} src/ospoly statements no test executed")
    for line in lines:
        terminalreporter.write_line(line)


def main():
    recorder = LineRecorder(SRC)
    recorder.start()
    try:
        import ospoly
        from ospoly import slices
        from test_bench_pins import ladders
        from test_report_sweep import sweep

        sweep()
        for workload in ladders.LADDERS:
            for check in ladders.build_checks(workload, ladders.DEFAULT_SEED, ospoly):
                getattr(slices, check.verifier)(*check.args, **check.kwargs)
    finally:
        recorder.stop()
    lines = recorder.report()
    print(f"{len(lines)} src/ospoly statements the verifiers did not execute")
    for line in lines:
        print(line)


if __name__ == "__main__":
    main()
