"""Every cache in the package's source is bounded.

An ``lru_cache`` must give a finite ``maxsize`` as a literal int or as a
module constant; ``functools.cache`` and ``maxsize=None`` keep every entry for
the life of the process, so neither is allowed.
"""

import ast
import importlib
from pathlib import Path
from types import SimpleNamespace

import pytest

import stringcones

SOURCES = sorted(Path(stringcones.__file__).parent.glob("*.py"))


def _finite(node, module) -> bool:
    if isinstance(node, ast.Name):  # a module constant, defined or imported there
        value = getattr(module, node.id, None)
    elif isinstance(node, ast.Constant):
        value = node.value
    else:
        return False
    return isinstance(value, int) and not isinstance(value, bool) and value > 0


def unbounded_caches(source: str, module) -> list[int]:
    """Line numbers of the caches in ``source`` without a finite ``maxsize``."""
    tree = ast.parse(source)
    found = []
    called = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            called.add(id(node.func))
            if getattr(node.func, "id", getattr(node.func, "attr", None)) == "lru_cache":
                sizes = [k.value for k in node.keywords if k.arg == "maxsize"] + node.args[:1]
                if not sizes or not _finite(sizes[0], module):
                    found.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [node.lineno for alias in node.names if alias.name == "cache"]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "functools":
            if node.attr == "cache" or (node.attr == "lru_cache" and id(node) not in called):
                found.append(node.lineno)
        elif isinstance(node, ast.Name) and node.id == "lru_cache" and id(node) not in called:
            found.append(node.lineno)  # a bare decorator: its size is not given
    return sorted(set(found))


def test_every_lru_cache_in_the_package_is_bounded():
    assert SOURCES
    found = {}
    for path in SOURCES:
        # importing __main__ would run the CLI; it holds no constants
        dunder = path.stem.startswith("__")
        module = stringcones if dunder else importlib.import_module(f"stringcones.{path.stem}")
        lines = unbounded_caches(path.read_text(), module)
        if lines:
            found[path.name] = lines
    assert not found, f"unbounded caches in stringcones: {found}"


@pytest.mark.parametrize(
    "source,bad",
    [
        ("@lru_cache(maxsize=4)\ndef f(): pass", False),
        ("@functools.lru_cache(8)\ndef f(): pass", False),
        ("@lru_cache(maxsize=SIZE)\ndef f(): pass", False),
        ("@lru_cache(maxsize=None)\ndef f(): pass", True),
        ("@lru_cache(None)\ndef f(): pass", True),
        ("@lru_cache(maxsize=NONE)\ndef f(): pass", True),
        ("@lru_cache(maxsize=MISSING)\ndef f(): pass", True),
        ("@lru_cache()\ndef f(): pass", True),
        ("@lru_cache\ndef f(): pass", True),
        ("@functools.lru_cache\ndef f(): pass", True),
        ("@functools.cache\ndef f(): pass", True),
        ("from functools import cache", True),
    ],
)
def test_the_scan_tells_bounded_from_unbounded(source, bad):
    module = SimpleNamespace(SIZE=512, NONE=None)
    assert bool(unbounded_caches(source, module)) == bad
