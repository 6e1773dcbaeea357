"""Rules that hold across the whole source tree."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _raises_assertion_error(node: ast.AST) -> bool:
    exc = node.exc if isinstance(node, ast.Raise) else None
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def _source_trees():
    files = sorted(SRC.rglob("*.py"))
    assert files
    return [(path, ast.parse(path.read_text(encoding="utf-8"))) for path in files]


def _is_float(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "float"
    )


def test_source_has_no_assert_statements():
    # python -O strips assert, and an AssertionError reads as one, so internal
    # invariants must raise named exceptions explicitly.
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path, tree in _source_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert) or _raises_assertion_error(node)
    ]
    assert found == []


def test_source_has_no_float():
    # Every quantity is exact: a float literal or float() call would round,
    # and an integer path must divide with // or divmod, never /.
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path, tree in _source_trees()
        for node in ast.walk(tree)
        if _is_float(node)
    ]
    assert found == []
