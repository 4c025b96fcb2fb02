"""Rules that hold for the package source as a whole."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "fflvstring"


def test_no_assert_statements_in_package():
    # every invariant is a named VerificationError, which `python -O` keeps
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
