"""Checks on the library source itself."""

import ast
from pathlib import Path

import finmeas

MODULES = sorted(Path(finmeas.__file__).parent.glob("*.py"))


def test_library_has_no_assert_statements():
    # an assert vanishes under python -O; self-checks must raise explicitly
    found = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(MODULES) > 1
    assert found == []
