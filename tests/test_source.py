"""Checks over the package's own source."""

import ast
from pathlib import Path

import gridcomp

PACKAGE = Path(gridcomp.__file__).parent


def test_package_has_no_assert_statements():
    # python -O strips assert statements: a check written as one vanishes
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 5
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == [], "raise an error from the package instead of asserting"
