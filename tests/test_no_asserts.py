"""No `assert` statement guards anything in the package: `python -O`
strips them, so every check there must raise explicitly."""

import ast
from pathlib import Path

import tropopt


def test_no_assert_statements_in_package():
    found = []
    for path in sorted(Path(tropopt.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in tropopt: {found}"
