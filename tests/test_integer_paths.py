"""Path geometry stays in integers: `paths` and `diagram` import nothing
from ``fractions``, and the polyhedral kernel names `Fraction` only where
it hands rationals out or reads a V-rep's rational vertices.

Regions are a parity count over the wire arrangements, and the drawing
coordinates the SVG uses are integers, so neither module needs a rational.
The kernel reads integer rows only; a caller scales rational data where it
reads it (the CLI's ``[num, den]`` right-hand sides).
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


def fraction_readers(source: str) -> list[str]:
    """Names of the top-level definitions that read the name ``Fraction``
    (``<module>`` for a statement outside any definition)."""
    out = []
    for top in ast.parse(source).body:
        if any(isinstance(node, ast.Name) and node.id == "Fraction" for node in ast.walk(top)):
            out.append(getattr(top, "name", "<module>"))
    return out


# where `polyhedra` may build or name a `Fraction`: the public V-rep and the
# rational invariants hand them out, and `vrep_to_hrep` reads rational vertices
FRACTION_BOUNDARY = {"_fraction_vrep", "integrality", "normalized_volume", "vrep_to_hrep"}


def test_paths_and_diagram_import_no_fractions():
    for name in ("paths.py", "diagram.py"):
        assert not fraction_imports((PACKAGE / name).read_text()), name


def test_the_scan_finds_a_fractions_import():
    assert fraction_imports("from fractions import Fraction\nimport os, fractions\n") == [1, 2]
    assert not fraction_imports("from numbers import Rational\nimport fractional\n")


def test_the_kernel_names_fraction_only_at_its_boundary():
    readers = fraction_readers((PACKAGE / "polyhedra.py").read_text())
    assert set(readers) <= FRACTION_BOUNDARY, readers


def test_the_scan_finds_a_fraction_inside_farkas():
    source = (
        "from fractions import Fraction\n"
        "def integrality(h):\n    return Fraction(1, 2)\n"
        "def _farkas(rows, rhs, certify):\n    return [Fraction(x) for x in rhs]\n"
        "ONE = Fraction(1)\n"
    )
    assert fraction_readers(source) == ["integrality", "_farkas", "<module>"]
    assert set(fraction_readers(source)) - FRACTION_BOUNDARY == {"_farkas", "<module>"}
