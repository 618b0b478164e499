"""No unused import in the package's source or its tests.

The project ships no linter, so this is the check, on the standard
library's `ast`: every name a module imports must be read in that module
(as a name, or as the base of an attribute) or be listed in its ``__all__``.
"""

import ast
from pathlib import Path

import pytest

import stringcones

SOURCES = sorted(Path(stringcones.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read | exported]


def test_the_check_sees_an_unused_import(tmp_path):
    source = tmp_path / "m.py"
    source.write_text("from math import gcd, lcm\nimport os\n__all__ = ['lcm']\nos.sep\n")
    assert unused_imports(source) == ["gcd (line 1)"]


@pytest.mark.parametrize("path", SOURCES + TESTS, ids=lambda p: p.name)
def test_every_import_is_used_or_exported(path):
    assert not unused_imports(path), f"{path.name} imports names it never uses"
