"""The commutation-class quotient is taken in one place.

String cones and string polytopes read their rows and kept row indices
from one entry per commutation class, `cones.class_entry`, which keys one
bounded cache on `weyl.foata_normal_form`; `cones` relabels coordinates by
`weyl.heap_coordinates`.  Outside ``weyl.py`` (which defines both) only
``cones.py`` may name ``heap_coordinates`` or ``foata_normal_form``, and it
keeps exactly one ``lru_cache``.  A module holding class entries (it names
one of `ENTRY_SOURCES`, the functions that return one) keeps no cache of
its own, so the quotient cannot fork again into a second copy of the key
and cache.  ``polyhedra.py`` imports
only ``_linalg`` and the standard library: an `HRep` is given its kept
row indices (`HRep._canonical`) and holds no class entry.
"""

import ast
import sys
from pathlib import Path

import pytest

import stringcones

SOURCES = sorted(Path(stringcones.__file__).parent.glob("*.py"))
CLASS_KEYS = {"heap_coordinates", "foata_normal_form"}
ENTRY_SOURCES = {"class_entry", "class_polytope_rows", "cone_facets"}


def _names(node) -> set[str]:
    """The names an AST node mentions: plain names, attributes and imports."""
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.ImportFrom):
        return {alias.name for alias in node.names}
    return set()


def _is_cache(decorator) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return bool(_names(target) & {"lru_cache", "cache"})


def quotient_forks(source: str, filename: str) -> list[int]:
    """Line numbers in ``source`` that take the class quotient outside its one
    place; ``[0]`` for a ``cones.py`` without its cache."""
    if filename == "weyl.py":
        return []
    tree = ast.parse(source)
    mentioned = set().union(*(_names(node) for node in ast.walk(tree)))
    caches = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(_is_cache(d) for d in node.decorator_list)
    ]
    if filename == "cones.py":
        return caches[1:] if caches else [0]
    found = [node.lineno for node in ast.walk(tree) if _names(node) & CLASS_KEYS]
    if mentioned & (CLASS_KEYS | ENTRY_SOURCES):
        found += caches
    return sorted(set(found))


def test_the_class_quotient_has_one_home():
    assert SOURCES
    found = {}
    for path in SOURCES:
        lines = quotient_forks(path.read_text(), path.name)
        if lines:
            found[path.name] = lines
    assert not found, f"the class quotient is taken outside cones.class_entry: {found}"


@pytest.mark.parametrize(
    "filename,source,bad",
    [
        ("cones.py", "@lru_cache(maxsize=8)\ndef f(rows): pass\nheap_coordinates(w)", False),
        ("weyl.py", "def heap_coordinates(w): pass\nheap_coordinates(w)", False),
        ("polytopes.py", "from .cones import class_entry\nclass_entry(t, w, rows)", False),
        ("paths.py", "@lru_cache(maxsize=8)\ndef f(x): pass", False),
        ("cones.py", "heap_coordinates(w)\nfoata_normal_form(w)", True),
        ("polytopes.py", "from .weyl import heap_coordinates", True),
        ("polytopes.py", "key = foata_normal_form(w)", True),
        ("verify.py", "from .weyl import foata_normal_form", True),
        ("polytopes.py", "heap = heap_coordinates(w)", True),
        ("verify.py", "heap = weyl.heap_coordinates(w)", True),
        ("polytopes.py", "@lru_cache(maxsize=8)\ndef f(rows): pass\nclass_entry(t, w, rows)", True),
        ("polytopes.py", "@lru_cache(maxsize=8)\ndef f(rows): pass\nclass_polytope_rows(w, lam, f)", True),
        ("cones.py", "@lru_cache(maxsize=8)\ndef f(r): pass\n@functools.lru_cache(4)\ndef g(r): pass", True),
    ],
)
def test_the_scan_finds_a_fork(filename, source, bad):
    assert bool(quotient_forks(source, filename)) == bad


def test_polyhedra_imports_only_linalg_and_the_standard_library():
    path = Path(stringcones.__file__).parent / "polyhedra.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    local = {name for name in imported if name.startswith(".")}
    assert local == {"._linalg"}
    assert all(name.split(".")[0] in sys.stdlib_module_names for name in imported - local)
