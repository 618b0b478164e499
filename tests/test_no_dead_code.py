"""No dead private helper and no dead class member in the package's source.

A private (``_``-prefixed) module-level function is no module's API, so it
lives only while the source calls it: every one must be read somewhere in
the package (as a name, or as an attribute) outside its own definition.
A method or property of a package class lives only while some file reads
it as an attribute outside its own definition: the package source, the
tests or the benchmark harness.  Dunder methods are called by the language
and are exempt.  The checks run on the standard library's `ast`.
"""

import ast
from pathlib import Path

import stringcones

SOURCES = sorted(Path(stringcones.__file__).parent.glob("*.py"))
REPO = Path(__file__).resolve().parents[1]
READERS = SOURCES + sorted(REPO.glob("tests/**/*.py")) + sorted(REPO.glob("perfbench/**/*.py"))


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


def dead_members(sources, readers) -> list[str]:
    """``module.Class.member`` for each non-dunder method or property of a
    class in ``sources`` that no file of ``readers`` reads as an attribute
    outside the member's own definition."""
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in {*sources, *readers}}
    reads: dict[str, set[int]] = {}  # attribute name -> ids of the nodes reading it
    for path in readers:
        for node in ast.walk(trees[path]):
            if isinstance(node, ast.Attribute):
                reads.setdefault(node.attr, set()).add(id(node))
    dead = []
    for path in sources:
        for cls in ast.walk(trees[path]):
            if not isinstance(cls, ast.ClassDef):
                continue
            for member in cls.body:
                if not isinstance(member, ast.FunctionDef):
                    continue
                if member.name.startswith("__") and member.name.endswith("__"):
                    continue
                own = {id(node) for node in ast.walk(member)}
                if not reads.get(member.name, set()) - own:
                    dead.append(f"{path.stem}.{cls.name}.{member.name}")
    return dead


def test_the_check_sees_a_dead_helper(tmp_path):
    (tmp_path / "a.py").write_text(
        "def _dead():\n    return _dead()\n\n"
        "def _called():\n    pass\n\n"
        "def _read_as_attribute():\n    pass\n\n"
        "def public():\n    _called()\n"
    )
    (tmp_path / "b.py").write_text("from . import a\n\nTABLE = {'x': a._read_as_attribute}\n")
    assert dead_helpers(sorted(tmp_path.glob("*.py"))) == ["a._dead"]


def test_the_check_sees_a_dead_member(tmp_path):
    source = tmp_path / "a.py"
    source.write_text(
        "class P:\n"
        "    def __init__(self):\n        self.x = 1\n\n"
        "    @property\n    def dead(self):\n        return self.x\n\n"
        "    def recursive(self, n):\n        return self.recursive(n - 1) if n else 0\n\n"
        "    @property\n    def read_in_source(self):\n        return self.x\n\n"
        "    def read_in_test(self):\n        return self.read_in_source\n"
    )
    test = tmp_path / "test_a.py"
    test.write_text("from a import P\n\nP().read_in_test()\n")
    assert dead_members([source], [source, test]) == ["a.P.dead", "a.P.recursive"]
    assert dead_members([source], [source]) == ["a.P.dead", "a.P.recursive", "a.P.read_in_test"]


def test_every_private_function_is_used():
    assert not dead_helpers(SOURCES), "private functions that nothing calls"


def test_every_method_and_property_is_read():
    assert not dead_members(SOURCES, READERS), "methods or properties that nothing reads"
