"""No dead private helper, no dead public name and no dead class member in
the package's source.

A private (``_``-prefixed) module-level function is no module's API, so it
lives only while the source calls it: every one must be read somewhere in
the package (as a name, or as an attribute) outside its own definition.
A public module-level function or class, and a method or property of a
package class, lives only while the program reads it outside its own
definition: the package source or the benchmark harness, not the tests
alone.  A read of a name that two package classes define (a method, a
property or a field) may be the other class's, so such a method or
property lives only while it runs: it must be called while the battery
``verify.paper_checks(2)`` and the CLI invocations in `CLI_RUNS` run under
``sys.setprofile``.  Dunder methods are called by the language and are exempt, and so
are the public functions in `TEST_ONLY`.  A field (a name in a class's
``_fields`` tuple, the declaration of the package's value types, or an
attribute that an ``__init__`` sets on ``self``) lives only while package
code reads it, in that same run, on an instance of its own class: a
temporary ``__getattribute__`` on `Value` and `WiringDiagram` records those
reads.  A read of the name alone is not enough, since ``args.command`` on
argparse's namespace reads a name that a field may also have.  The fields
in `UNREAD_FIELDS` are exempt.
A parameter with a default (a knob) lives only while some call of the
program passes it, by keyword or by position; the knobs in `ALLOWED_KNOBS`
are exempt.  The checks run on the standard library's `ast`.
"""

import ast
import io
import sys
from contextlib import redirect_stdout
from pathlib import Path
from unittest import mock

import pytest

import stringcones
from stringcones import cli, cones, verify
from stringcones._linalg import Value
from stringcones.diagram import WiringDiagram

SOURCES = sorted(Path(stringcones.__file__).parent.glob("*.py"))
REPO = Path(__file__).resolve().parents[1]
READERS = SOURCES + sorted(REPO.glob("perfbench/*.py"))  # the program, not its tests

# Public functions that only the tests read, each kept for a reason.
TEST_ONLY = {
    "polyhedra.vrep_to_hrep": "the tests build polytopes from points with it (hulls, the rank oracle)",
    "polyhedra.normalized_volume": "the tests check the paper's polytopes against the closed-form volume",
}

# Fields that the program sets and never reads, each kept for a reason.
UNREAD_FIELDS = {
    "polyhedra.Unbounded.ray": "the witness of unboundedness, for the callers that catch the error",
}

# Defaulted parameters that no program call passes, each kept for a reason.
ALLOWED_KNOBS: dict[str, str] = {}

# The command lines that, with `verify.paper_checks(2)`, show which members
# run and which fields are read; ``{dir}`` is a scratch directory that
# holds the polytope file `SQUARE`.
CLI_RUNS = (
    ["render", "A3", "1,2,1,3,2,1", "-o", "{dir}/diagram.svg"],
    ["render", "C2", "2,1,2,1", "--highlight", "2,1,2b", "-o", "{dir}/diagram.svg"],
    ["paths", "C2", "2,1,2,1"],
    ["cone", "C2", "2,1,2,1"],
    ["polytope", "C2", "2,1,2,1", "--lambda", "rho", "--full"],
    ["gt", "--n", "2", "--lambda", "rho"],
    ["equiv", "{dir}/square.json", "{dir}/square.json"],
    ["words", "C2", "--json"],
)
SQUARE = '{"dim": 2, "rows": [[1, 0, 1], [-1, 0, 0], [0, 1, 1], [0, -1, 0]]}'


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


def _reads(trees, paths, kinds=(ast.Name, ast.Attribute)) -> dict[str, set[int]]:
    """Name -> ids of the nodes of ``paths`` reading it as one of ``kinds``."""
    reads: dict[str, set[int]] = {}
    for path in paths:
        for node in ast.walk(trees[path]):
            if isinstance(node, kinds):
                reads.setdefault(node.id if isinstance(node, ast.Name) else node.attr, set()).add(id(node))
    return reads


def dead_public(sources, readers) -> list[str]:
    """``module.name`` for each public module-level function or class of
    ``sources`` that no file of ``readers`` reads, as a name or as an
    attribute, outside its own definition."""
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in {*sources, *readers}}
    reads = _reads(trees, readers)
    dead = []
    for path in sources:
        for top in trees[path].body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and not top.name.startswith("_"):
                own = {id(node) for node in ast.walk(top)}
                if not reads.get(top.name, set()) - own:
                    dead.append(f"{path.stem}.{top.name}")
    return dead


def dead_members(sources, readers, ran=None) -> list[str]:
    """``module.Class.member`` for each non-dunder method or property of a
    class in ``sources`` that no file of ``readers`` reads as an attribute
    outside the member's own definition.  Given ``ran``, the
    ``(module, "Class.member")`` pairs seen running, a member whose name
    another class of ``sources`` also defines counts as read only if it ran."""
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in {*sources, *readers}}
    reads = _reads(trees, readers, ast.Attribute)
    classes = [(path, cls) for path in sources for cls in ast.walk(trees[path]) if isinstance(cls, ast.ClassDef)]
    definers: dict[str, int] = {}  # name -> how many classes define it
    for _, cls in classes:
        names = {m.name for m in cls.body if isinstance(m, ast.FunctionDef)} | _fields(cls)
        for name in names:
            definers[name] = definers.get(name, 0) + 1
    dead = []
    for path, cls in classes:
        for member in cls.body:
            if not isinstance(member, ast.FunctionDef):
                continue
            if member.name.startswith("__") and member.name.endswith("__"):
                continue
            if ran is not None and definers[member.name] > 1:
                alive = (path.stem, f"{cls.name}.{member.name}") in ran
            else:
                own = {id(node) for node in ast.walk(member)}
                alive = bool(reads.get(member.name, set()) - own)
            if not alive:
                dead.append(f"{path.stem}.{cls.name}.{member.name}")
    return dead


def ran_members(scratch: Path, fields) -> tuple[set[tuple[str, str]], set[tuple[str, str]]]:
    """``(module, qualified name)`` of each package function called while
    `verify.paper_checks(2)` and the `CLI_RUNS` run in ``scratch``, from an
    empty class cache, and ``(module, "Class.field")`` for each read of a
    name in ``fields`` that package code makes in that run on an instance
    of ``Class`` or of a subclass, a `Value` or a `WiringDiagram`.  The
    reads of `Value`'s own equality, hash and repr are not counted."""
    package = str(Path(stringcones.__file__).parent)
    ran, read = set(), set()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(package):
            ran.add((Path(code.co_filename).stem, code.co_qualname))

    done = set()  # the (class, name) reads already recorded: a repeat skips the frame lookup

    def recorded(self, name):
        if name in fields and (type(self), name) not in done:
            code = sys._getframe(1).f_code
            if code.co_filename.startswith(package) and not code.co_qualname.startswith("Value."):
                done.add((type(self), name))
                for cls in type(self).__mro__[:-1]:  # not object
                    read.add((cls.__module__.rpartition(".")[2], f"{cls.__qualname__}.{name}"))
        return object.__getattribute__(self, name)

    (scratch / "square.json").write_text(SQUARE)
    cones._class_entry.cache_clear()
    for root in (Value, WiringDiagram):
        root.__getattribute__ = recorded
    sys.setprofile(profile)
    try:
        verify.paper_checks(2)
        statuses = [exit_status([arg.format(dir=scratch) for arg in argv]) for argv in CLI_RUNS]
    finally:
        sys.setprofile(None)
        for root in (Value, WiringDiagram):
            del root.__getattribute__
    assert statuses == [0] * len(CLI_RUNS)
    return ran, read


def exit_status(argv) -> int:
    """The exit status of the command line ``argv``, run by `cli.main` with
    its output discarded."""
    with mock.patch.object(sys, "argv", ["stringcones", *argv]), redirect_stdout(io.StringIO()):
        try:
            cli.main()
        except SystemExit as done:
            return done.code
    raise AssertionError("cli.main returned without exiting")


@pytest.fixture(scope="module")
def program_run(tmp_path_factory):
    """`ran_members` of the package, recording the reads of its field names."""
    return ran_members(tmp_path_factory.mktemp("run"), field_names(SOURCES))


def _fields(cls: ast.ClassDef) -> set[str]:
    """The names in a ``_fields`` tuple and the attributes an ``__init__``
    sets on ``self``."""
    names = {
        node.value
        for s in cls.body
        if isinstance(s, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "_fields" for t in s.targets)
        for node in ast.walk(s.value)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    for member in cls.body:
        if isinstance(member, ast.FunctionDef) and member.name == "__init__":
            for node in ast.walk(member):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                ):
                    names.add(node.attr)
    return names


def _classes(sources):
    """``(path, class definition)`` for each class in ``sources``."""
    return [
        (path, cls)
        for path in sources
        for cls in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(cls, ast.ClassDef)
    ]


def field_names(sources) -> set[str]:
    """The field names that the classes of ``sources`` declare."""
    return {name for _, cls in _classes(sources) for name in _fields(cls)}


def dead_fields(sources, readers, ran_reads=None) -> list[str]:
    """``module.Class.field`` for each field, or attribute set on ``self``
    by an ``__init__``, of a class in ``sources`` that no file of
    ``readers`` reads as an attribute.  Given ``ran_reads``, the
    ``(module, "Class.field")`` pairs read while the program ran, a field
    counts as read only if it is among them."""
    read = {
        node.attr
        for path in readers
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return [
        f"{path.stem}.{cls.name}.{name}"
        for path, cls in _classes(sources)
        for name in sorted(_fields(cls))
        if (name not in read if ran_reads is None else (path.stem, f"{cls.name}.{name}") not in ran_reads)
    ]


def _functions(tree):
    """``(qualified name, called name, definition, bound)`` per function of a
    module: a method's first parameter is bound unless it is a staticmethod,
    and ``C(...)`` calls ``C.__init__``."""
    methods = set()
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for member in cls.body:
            if isinstance(member, ast.FunctionDef):
                methods.add(id(member))
                decorators = member.decorator_list
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in decorators)
                called = cls.name if member.name == "__init__" else member.name
                yield f"{cls.name}.{member.name}", called, member, not static
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and id(node) not in methods:
            yield node.name, node.name, node, False


def _passes(call: ast.Call, position: int | None, name: str) -> bool:
    """Whether ``call`` passes the parameter ``name``, at ``position`` when it
    may come positionally; a ``*args`` or ``**kwargs`` call passes every one."""
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    if any(kw.arg is None or kw.arg == name for kw in call.keywords):
        return True
    return position is not None and len(call.args) > position


def unset_knobs(sources, readers) -> list[str]:
    """``module.function.parameter`` (``module.Class.method.parameter`` for a
    method) for each defaulted parameter of a function in ``sources`` that
    no call in ``readers`` passes.  Calls are matched by the called name."""
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in {*sources, *readers}}
    calls: dict[str, list[ast.Call]] = {}
    for path in readers:
        for node in ast.walk(trees[path]):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                called = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                calls.setdefault(called, []).append(node)
    unset = []
    for path in sources:
        for qualified, called, func, bound in _functions(trees[path]):
            positional = [*func.args.posonlyargs, *func.args.args][1 if bound else 0 :]
            first = len(positional) - len(func.args.defaults)  # the first defaulted one
            knobs = [(i, arg.arg) for i, arg in enumerate(positional) if i >= first]
            knobs += [
                (None, arg.arg)
                for arg, default in zip(func.args.kwonlyargs, func.args.kw_defaults)
                if default is not None
            ]
            unset += [
                f"{path.stem}.{qualified}.{name}"
                for position, name in knobs
                if not any(_passes(call, position, name) for call in calls.get(called, ()))
            ]
    return unset


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


def test_the_check_sees_a_shared_name_that_never_runs(tmp_path):
    source = tmp_path / "a.py"
    source.write_text(
        "class H:\n    _fields = ('dim',)\n\n"
        "class F:\n    @property\n    def dim(self):\n        return 0\n\n"
        "    def size(self):\n        return 0\n\n"
        "class G:\n    def size(self):\n        return H(1).dim\n\n"
        "G().size()\nF().size()\n"
    )
    assert dead_members([source], [source]) == []
    ran = {("a", "G.size"), ("a", "F.size")}
    assert dead_members([source], [source], ran) == ["a.F.dim"]
    assert dead_members([source], [source], ran - {("a", "F.size")}) == ["a.F.dim", "a.F.size"]


def test_the_check_sees_a_dead_public_name(tmp_path):
    source = tmp_path / "a.py"
    source.write_text(
        "class Used:\n    pass\n\n"
        "class Dead:\n    def make(self):\n        return Dead()\n\n"
        "def read_in_test():\n    return Used()\n\n"
        "def _private():\n    pass\n"
    )
    test = tmp_path / "test_a.py"
    test.write_text("from a import read_in_test\n\nread_in_test()\n")
    assert dead_public([source], [source, test]) == ["a.Dead"]
    assert dead_public([source], [source]) == ["a.Dead", "a.read_in_test"]


def test_the_check_sees_a_dead_field(tmp_path):
    source = tmp_path / "a.py"
    source.write_text(
        "class D(Value):\n    _fields = ('used', 'unread')\n\n"
        "class E(Value):\n    _fields = ('only_in_test',)\n\n"
        "class P:\n    def __init__(self, d):\n        self.kept = d.used\n        self.dropped = 0\n\n"
        "    def total(self):\n        return self.kept + V(1, 2).seen + W().added\n\n"
        "class V(Value):\n    __slots__ = _fields = ('seen', 'hidden')\n\n"
        "class W(V):\n    _fields = (*V._fields, 'added', 'ignored')\n"
    )
    test = tmp_path / "test_a.py"
    test.write_text("from a import E\n\nE(1).only_in_test\n")
    assert dead_fields([source], [source, test]) == ["a.D.unread", "a.P.dropped", "a.V.hidden", "a.W.ignored"]
    assert dead_fields([source], [source]) == [
        "a.D.unread",
        "a.E.only_in_test",
        "a.P.dropped",
        "a.V.hidden",
        "a.W.ignored",
    ]


def test_the_check_sees_a_shared_field_that_is_never_read(tmp_path):
    source = tmp_path / "a.py"
    source.write_text(
        "class A(Value):\n    _fields = ('dim', 'size')\n\n"
        "class B(Value):\n    _fields = ('dim', 'unread')\n\n"
        "def total(a):\n    return a.dim + a.size\n"
    )
    assert field_names([source]) == {"dim", "size", "unread"}
    assert dead_fields([source], [source]) == ["a.B.unread"]
    # only A's dim and size are read while the program runs; B's dim is read by name alone
    assert dead_fields([source], [source], {("a", "A.dim"), ("a", "A.size")}) == ["a.B.dim", "a.B.unread"]
    # a field that no other class declares counts as read only if it is read as the program runs
    assert dead_fields([source], [source], {("a", "A.dim")}) == ["a.A.size", "a.B.dim", "a.B.unread"]
    assert dead_fields([source], [source], set()) == ["a.A.dim", "a.A.size", "a.B.dim", "a.B.unread"]


def test_every_private_function_is_used():
    assert not dead_helpers(SOURCES), "private functions that nothing calls"


def test_every_method_and_property_is_read(program_run):
    dead = dead_members(SOURCES, READERS, program_run[0])
    assert not dead, "methods or properties that only the tests read"


def test_every_public_function_and_class_is_read():
    assert sorted(dead_public(SOURCES, READERS)) == sorted(TEST_ONLY), "public names that only the tests read"


def test_every_field_is_read(program_run):
    read = program_run[1]
    assert ("polyhedra", "HRep.dim") in read and ("polyhedra", "_IncidenceTable.dim") in read
    assert sorted(dead_fields(SOURCES, READERS, read)) == sorted(UNREAD_FIELDS), "fields that only the tests read"


def test_the_check_sees_an_unset_knob(tmp_path):
    source = tmp_path / "a.py"
    source.write_text(
        "def f(a, b=1, *, c=2):\n    return a\n\n"
        "def g(x=0):\n    return x\n\n"
        "def h(y=0, z=0):\n    return y\n\n"
        "class C:\n"
        "    def __init__(self, k=1):\n        self.k = k\n\n"
        "    def m(self, p=0, q=0):\n        return p\n\n"
        "    @staticmethod\n    def s(r=0):\n        return r\n\n"
        "f(1, 2)\nC(k=3).m(1)\nC.s(1)\nh(*())\n"
    )
    test = tmp_path / "test_a.py"
    test.write_text("from a import f, g\n\nf(0, c=1)\ng(1)\n")
    assert unset_knobs([source], [source]) == ["a.C.m.q", "a.f.c", "a.g.x"]
    assert unset_knobs([source], [source, test]) == ["a.C.m.q"]


def test_every_knob_is_set_by_the_program():
    unset = sorted(unset_knobs(SOURCES, READERS))
    assert unset == sorted(ALLOWED_KNOBS), "parameters that no program call passes"
