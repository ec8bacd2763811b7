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


def test_no_module_level_caches():
    # each cache lives on the Positroid it describes; functools.cache and
    # lru_cache would keep every argument alive in a module-global table
    banned = {"cache", "lru_cache"}
    found = []
    for path in sorted(SOURCE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                found += [f"{path.name}:{node.lineno}" for a in node.names if a.name in banned]
            elif isinstance(node, ast.Attribute) and node.attr in banned:
                if isinstance(node.value, ast.Name) and node.value.id == "functools":
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []
