"""Rules that hold across the whole source tree."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _raises_assertion_error(node: ast.AST) -> bool:
    exc = node.exc if isinstance(node, ast.Raise) else None
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_source_has_no_assert_statements():
    # python -O strips assert, and an AssertionError reads as one, so internal
    # invariants must raise named exceptions explicitly.
    files = sorted(SRC.rglob("*.py"))
    assert files
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert) or _raises_assertion_error(node)
    ]
    assert found == []
