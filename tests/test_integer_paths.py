"""Path geometry stays in integers: `paths` and `diagram` import nothing
from ``fractions``.

Regions are a parity count over the wire arrangements, and the drawing
coordinates the SVG uses are integers, so neither module needs a rational.
"""

import ast
from pathlib import Path

import stringcones

PACKAGE = Path(stringcones.__file__).parent


def fraction_imports(source: str) -> list[int]:
    """Lines of ``import fractions`` and ``from fractions import ...``."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.ImportFrom) and node.module == "fractions")
        or (isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names))
    ]


def test_paths_and_diagram_import_no_fractions():
    for name in ("paths.py", "diagram.py"):
        assert not fraction_imports((PACKAGE / name).read_text()), name


def test_the_scan_finds_a_fractions_import():
    assert fraction_imports("from fractions import Fraction\nimport os, fractions\n") == [1, 2]
    assert not fraction_imports("from numbers import Rational\nimport fractional\n")
