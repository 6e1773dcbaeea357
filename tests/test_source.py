"""Rules that hold across the whole source tree."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_source_has_no_assert_statements():
    # python -O strips assert, so internal invariants must raise explicitly.
    files = sorted(SRC.rglob("*.py"))
    assert files
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
