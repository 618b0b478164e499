"""No ``assert`` statement and no ``raise AssertionError`` in the package's
source.

Asserts vanish under ``python -O``, so an invariant the program relies on
must ``raise`` instead, and it raises a typed error (``ValueError`` and the
like) that callers can catch, not the error an assert would have raised.
"""

import ast
from pathlib import Path

import stringcones

SOURCES = sorted(Path(stringcones.__file__).parent.glob("*.py"))


def _raises_assertion_error(node) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assert_in_package_source():
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert) or _raises_assertion_error(node)
    ]
    assert not found, f"assert statements or AssertionError raises in stringcones: {found}"


def test_the_scan_finds_a_raised_assertion_error():
    for source in ("raise AssertionError", "raise AssertionError('x')", "assert x"):
        tree = ast.parse(source)
        assert any(
            isinstance(node, ast.Assert) or _raises_assertion_error(node) for node in ast.walk(tree)
        )
    assert not any(_raises_assertion_error(node) for node in ast.walk(ast.parse("raise ValueError('x')")))
