"""No dead private helper in the package's source.

A private (``_``-prefixed) module-level function is no module's API, so it
lives only while the source calls it: every one must be read somewhere in
the package (as a name, or as an attribute) outside its own definition.
The check runs on the standard library's `ast`.
"""

import ast
from pathlib import Path

import stringcones

SOURCES = sorted(Path(stringcones.__file__).parent.glob("*.py"))


def dead_helpers(paths) -> list[str]:
    """``module.function`` for each private module-level function that no
    source reads outside its own definition."""
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in paths}
    defined = []  # (module, name, definition node)
    readers: dict[str, set[int]] = {}  # name -> ids of the top-level nodes reading it
    for module, tree in trees.items():
        for top in tree.body:
            if isinstance(top, ast.FunctionDef) and top.name.startswith("_"):
                defined.append((module, top.name, top))
            for node in ast.walk(top):
                if isinstance(node, (ast.Name, ast.Attribute)):
                    name = node.id if isinstance(node, ast.Name) else node.attr
                    readers.setdefault(name, set()).add(id(top))
    return [
        f"{module}.{name}"
        for module, name, top in defined
        if not readers.get(name, set()) - {id(top)}
    ]


def test_the_check_sees_a_dead_helper(tmp_path):
    (tmp_path / "a.py").write_text(
        "def _dead():\n    return _dead()\n\n"
        "def _called():\n    pass\n\n"
        "def _read_as_attribute():\n    pass\n\n"
        "def public():\n    _called()\n"
    )
    (tmp_path / "b.py").write_text("from . import a\n\nTABLE = {'x': a._read_as_attribute}\n")
    assert dead_helpers(sorted(tmp_path.glob("*.py"))) == ["a._dead"]


def test_every_private_function_is_used():
    assert not dead_helpers(SOURCES), "private functions that nothing calls"
