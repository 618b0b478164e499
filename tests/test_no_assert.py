"""No ``assert`` statement in the package's source.

Asserts vanish under ``python -O``, so an invariant the program relies on
must ``raise`` instead.
"""

import ast
from pathlib import Path

import stringcones

SOURCES = sorted(Path(stringcones.__file__).parent.glob("*.py"))


def test_no_assert_in_package_source():
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in stringcones: {found}"
