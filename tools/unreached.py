"""Which functions under ``src/`` does the tier-1 suite never call?

A report, not a gate.  Runs the tier-1 suite (``tests/``) in-process
with a pytest plugin that installs a call-only tracer through
``sys.settrace`` and ``threading.settrace``: on each ``call`` event it
records the code object and returns ``None``, so no line is traced.
Every ``def`` under ``src/`` (found with ``ast``) is then marked called
or not, and the uncalled ones are written to ``docs/UNREACHED.md`` as
one table row each.  A def nested in an uncalled def is counted inside
its parent, not listed.  Declarations are not listed either: an
``@abstractmethod`` or a def whose body is only a docstring or ``...``
has no code to reach.  Code that only runs in a subprocess (``python -m
repro serve``) is invisible to the tracer.

The verdict and note columns are kept by hand: rerunning the tool keeps
the verdict of every row whose function is still uncalled and marks new
rows ``?``.

Usage::

    PYTHONPATH=src python tools/unreached.py [pytest args]
"""

from __future__ import annotations

import ast
import pathlib
import re
import sys
import threading

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src"
REPORT = REPO / "docs" / "UNREACHED.md"
_ROW = re.compile(r"^\| `([^`]+)` \| (\d+) \| (\w+|\?) \| (.*) \|$")


class CallTracer:
    """The pytest plugin: code objects entered while the suite runs."""

    def __init__(self) -> None:
        self.seen: set = set()
        #: Tests that failed under the tracer (timing tests can).
        self.failed: list[str] = []

    def _trace(self, frame, event, arg):
        if event == "call":
            self.seen.add(frame.f_code)
        return None

    def pytest_configure(self, config) -> None:
        sys.settrace(self._trace)
        threading.settrace(self._trace)

    def pytest_unconfigure(self, config) -> None:
        sys.settrace(None)
        threading.settrace(None)

    def pytest_runtest_logreport(self, report) -> None:
        if report.failed:
            self.failed.append(report.nodeid)


def _declaration(node) -> bool:
    body = [
        stmt
        for stmt in node.body
        if not (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))
    ]
    return not body or any(
        getattr(d, "id", getattr(d, "attr", "")) == "abstractmethod"
        for d in node.decorator_list
    )


def _defs(path: pathlib.Path):
    """``(qualname, first line, body lines, nested defs)`` per top-level
    def or method of *path*; the first line is the decorator's, as in
    ``co_firstlineno``."""

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _declaration(child):
                    continue
                first = min(
                    [child.lineno] + [d.lineno for d in child.decorator_list]
                )
                name = f"{prefix}{child.name}" + "".join(
                    f".{d.attr}"
                    for d in child.decorator_list
                    if isinstance(d, ast.Attribute) and d.attr in ("setter", "deleter")
                )
                lines = child.end_lineno - child.lineno + 1
                yield name, first, lines, list(visit(child, f"{name}."))
            elif isinstance(child, ast.ClassDef):
                yield from visit(child, f"{prefix}{child.name}.")

    return list(visit(ast.parse(path.read_text()), ""))


def uncalled(seen) -> tuple[list[tuple[str, int]], int, int]:
    """The uncalled defs as ``(key, lines)``, plus the total lines and
    the number of defs considered."""
    called = {(code.co_filename, code.co_firstlineno) for code in seen}
    rows, total_lines, total_defs = [], 0, 0

    def walk(filename, rel, defs):
        nonlocal total_lines, total_defs
        for name, first, lines, nested in defs:
            total_defs += 1
            if (filename, first) in called:
                walk(filename, rel, nested)
            else:
                rows.append((f"{rel}:{name}", lines))

    for path in sorted(SRC.rglob("*.py")):
        defs = _defs(path)
        total_lines += sum(lines for _, _, lines, _ in defs)
        walk(str(path), path.relative_to(REPO).as_posix(), defs)
    return rows, total_lines, total_defs


def _kept_verdicts() -> dict[str, tuple[str, str]]:
    if not REPORT.exists():
        return {}
    kept = {}
    for line in REPORT.read_text().splitlines():
        match = _ROW.match(line)
        if match:
            kept[match.group(1)] = (match.group(3), match.group(4))
    return kept


def write_report(rows, total_lines: int, total_defs: int, failed) -> None:
    kept = _kept_verdicts()
    head, _, _ = (REPORT.read_text() if REPORT.exists() else "").partition(
        "\n| function |"
    )
    uncalled_lines = sum(lines for _, lines in rows)
    summary = (
        f"Tier-1 leaves {len(rows)} function{'s' * (len(rows) != 1)} uncalled, holding "
        f"{uncalled_lines} of the {total_lines} lines inside `def`s under "
        f"`src/` ({total_defs} defs considered)."
    )
    if failed:
        summary = summary[:-1] + (
            f"; {len(failed)} test{'s' * (len(failed) != 1)} failed under the tracer: "
            + ", ".join(f"`{nodeid}`" for nodeid in failed) + "."
        )
    head = re.sub(r"Tier-1 leaves .*?\.\n", lambda _: summary + "\n", head, flags=re.S)
    if summary not in head:
        head = f"# Functions tier-1 never calls\n\n{summary}\n"
    table = ["| function | lines | verdict | note |", "|---|---|---|---|"]
    for key, lines in rows:
        verdict, note = kept.get(key, ("?", ""))
        table.append(f"| `{key}` | {lines} | {verdict} | {note} |")
    REPORT.write_text(head.rstrip("\n") + "\n\n" + "\n".join(table) + "\n")


def main(argv: list[str]) -> int:
    import pytest

    tracer = CallTracer()
    pytest.main(["-q", "-p", "no:cacheprovider", *argv], plugins=[tracer])
    rows, total_lines, total_defs = uncalled(tracer.seen)
    write_report(rows, total_lines, total_defs, tracer.failed)
    print(f"{len(rows)} uncalled function(s) written to {REPORT.relative_to(REPO)}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    sys.exit(main(sys.argv[1:]))
