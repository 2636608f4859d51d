"""One HTTP/1.1 codec in ``src/``: no module imports a stdlib HTTP stack.

Both ends of the SOAP exchange speak HTTP through
``repro.transport.http11`` — the server's ``RequestParser`` and the
client's ``ResponseParser``.  A second implementation creeps back in
one import at a time, so this walks every module under ``src/repro``
and fails on any import of ``http.client``, ``http.server`` or
``urllib.request``.  (Tests may still use them as *independent*
clients against the server.)
"""

import ast
from pathlib import Path

import repro

FORBIDDEN = {"http.client", "http.server", "urllib.request"}
SRC = Path(repro.__file__).parent


def _imports(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            yield node.lineno, node.module
            for alias in node.names:
                yield node.lineno, f"{node.module}.{alias.name}"


def test_no_stdlib_http_stack_under_src():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for lineno, name in _imports(tree):
            if any(name == bad or name.startswith(bad + ".") for bad in FORBIDDEN):
                offenders.append(f"{path.relative_to(SRC.parent)}:{lineno}: {name}")
    assert not offenders, "stdlib HTTP stack imported:\n" + "\n".join(offenders)
