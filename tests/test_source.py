"""Static checks on the package source."""

import ast
from pathlib import Path

import secondprice

SRC = Path(secondprice.__file__).parent


def test_no_assert_invariants():
    # `python -O` strips assert statements, so invariants are enforced by
    # raising the package's own exceptions instead
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert) or (
                    isinstance(node, ast.Name) and node.id == "AssertionError"):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found
