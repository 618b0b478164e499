"""One exact elimination and one LP.

Fraction-free elimination updates a row as ``(p * x - f * y) // d``, an exact
division by the previous pivot.  That pivot update appears in exactly two
functions of the package: `_linalg.echelon`, the one elimination, and
`polyhedra._farkas`, the one LP tableau.  Redundancy, emptiness and the
interior point of ray shooting all read that tableau; a certificate read in
another function from a tableau of its own would be a second LP.
"""

import ast
from pathlib import Path

import pytest

import stringcones

SOURCES = sorted(Path(stringcones.__file__).parent.glob("*.py"))
HOMES = {("_linalg.py", "echelon"), ("polyhedra.py", "_farkas")}


def _is_pivot_update(node) -> bool:
    """Whether ``node`` is ``(a * b - c * d) // e``."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.FloorDiv)):
        return False
    diff = node.left
    return (
        isinstance(diff, ast.BinOp)
        and isinstance(diff.op, ast.Sub)
        and all(isinstance(t, ast.BinOp) and isinstance(t.op, ast.Mult) for t in (diff.left, diff.right))
    )


def pivot_functions(source: str) -> set[str]:
    """The innermost function (``<module>`` outside any) of each pivot update."""
    found = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        elif isinstance(node, ast.Lambda):
            owner = "<lambda>"
        if _is_pivot_update(node):
            found.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


def test_one_elimination_and_one_lp_tableau():
    assert SOURCES
    found = {(path.name, name) for path in SOURCES for name in pivot_functions(path.read_text())}
    assert found == HOMES, f"pivot updates outside echelon and _farkas: {found - HOMES}"


@pytest.mark.parametrize(
    "source,found",
    [
        ("def _farkas(tab):\n    return [(piv * x - f * y) // den for x, y in tab]", {"_farkas"}),
        ("def g():\n    row = (p * a - q * b) // prev", {"g"}),
        ("def f():\n    def inner():\n        return (p * a - q * b) // d\n", {"inner"}),
        ("update = lambda x, y: (p * x - f * y) // den", {"<lambda>"}),
        ("z = (p * x - f * y) // den", {"<module>"}),
        ("def scale(x):\n    return piv * x // den", set()),
        ("def half(a, b):\n    return (a - b) // 2", set()),
        ("def ratio(a, b, c):\n    return (a * b - c) // 2", set()),
    ],
)
def test_the_scan_finds_pivot_updates(source, found):
    assert pivot_functions(source) == found
