"""Checks on the package source itself, read as syntax trees."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "positroids"


def test_no_assert_statements():
    # python -O strips asserts, so a check that lives in one is no check
    modules = sorted(SOURCE.rglob("*.py"))
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert modules
    assert found == []
