"""The package's value types are plain frozen classes on `_linalg.Value`.

Each one equals only an instance of its own class with equal fields, hashes
as the tuple of its fields (in the order pinned below, so set and dict
orders do not move), prints as ``Name(field=value, ...)`` and refuses to
have an attribute assigned or deleted.  Importing the package generates no
code: `dataclasses` is never loaded.

Each type declares its fields once, in ``_fields``.  A type that only
stores them writes no ``__init__``: it takes one value per field from
`Value.__init__`, and refuses one too few or one too many.  An ``__init__``
that checks, converts or defaults its arguments passes the fields on with
``super().__init__``; one that does nothing else fails the check below.
"""

import ast
import copy
import inspect
import os
import pickle
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import stringcones
from stringcones import cli, cones, diagram, paths, polyhedra, polytopes, weyl
from stringcones._linalg import Value

C2 = weyl.LieType("C", 2)
A2_DIAGRAM = diagram.build_diagram(weyl.ReducedWord.parse("A2", "1,2,1"))
ORIENTED = diagram.OrientedDiagram(A2_DIAGRAM, 1)
SQUARE = polyhedra.HRep(1, (((1,), 1), ((-1,), 0)))
SEGMENT = ((F(0),), (F(1),))

# (instance, its fields in hash order)
VALUES = [
    (C2, ("family", "rank")),
    (weyl.ReducedWord(C2, [1, 2, 1, 2]), ("lie_type", "letters")),
    (weyl.Weight(C2, [1, 2]), ("lie_type", "coeffs")),
    (diagram.Node(1, 2, 3, 4), ("index", "column", "left_above", "right_above")),
    (ORIENTED, ("diagram", "up_count")),
    (paths.RigorousPath(ORIENTED, ((1, True),)), ("oriented", "events")),
    (cones.LinForm([1, -1]), ("coeffs",)),
    (cones.FoldMaps(((0,), (1, 2))), ("groups",)),
    (cones.HRepCone(2, (cones.LinForm((1, 0)),)), ("dim", "forms")),
    (SQUARE, ("dim", "rows")),
    (polyhedra.VRep(SEGMENT, ()), ("vertices", "rays")),
    (polyhedra._IncidenceTable(1, ((0,), (2,)), (1, 2), 2), ("dim", "vertices", "incidences", "den")),
    (
        polyhedra.EquivalenceResult("unknown", witness="search budget exhausted", decided_by="budget"),
        ("status", "matrix", "shift", "witness", "decided_by"),
    ),
    (polytopes.GTReport(2, (), SQUARE), ("n", "comparisons", "gt")),
    (cli.CommandResult({"count": 0}, "", 0), ("payload", "table", "status")),
]
IDS = [type(v).__name__ for v, _ in VALUES]


def field_values(value, fields):
    return tuple(getattr(value, f) for f in fields)


def test_every_value_type_is_covered():
    modules = (weyl, diagram, paths, cones, polyhedra, polytopes, cli)
    types = {c for m in modules for c in vars(m).values() if isinstance(c, type) and issubclass(c, Value)}
    assert types - {Value} == {type(v) for v, _ in VALUES}


@pytest.mark.parametrize("value,fields", VALUES, ids=IDS)
def test_fields_are_declared_in_hash_order(value, fields):
    assert type(value)._fields == fields


@pytest.mark.parametrize("value,fields", VALUES, ids=IDS)
def test_equal_only_within_one_class(value, fields):
    twin = object.__new__(type(value))
    for f in fields:
        object.__setattr__(twin, f, getattr(value, f))
    assert value == twin and not value != twin
    assert value != field_values(value, fields)
    assert value.__eq__(field_values(value, fields)) is NotImplemented
    others = [v for v, _ in VALUES if type(v) is not type(value)]
    assert all(value != other for other in others)


def test_a_subclass_with_equal_shared_fields_is_unequal():
    class Graded(polyhedra._IncidenceTable):
        _fields = (*polyhedra._IncidenceTable._fields, "faces")

    graded = Graded(1, SEGMENT, (1, 2), 1, ())
    table = polyhedra._IncidenceTable(1, SEGMENT, (1, 2), 1)
    assert field_values(graded, table._fields) == field_values(table, table._fields)
    assert graded != table and table != graded


@pytest.mark.parametrize("value,fields", VALUES, ids=IDS)
def test_hash_is_the_hash_of_the_field_tuple(value, fields):
    key = field_values(value, fields)
    if type(value) is cli.CommandResult:  # its payload is a dict
        with pytest.raises(TypeError):
            hash(key)
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(key)


@pytest.mark.parametrize("value,fields", VALUES, ids=IDS)
def test_repr_names_every_field(value, fields):
    args = ", ".join(f"{f}={getattr(value, f)!r}" for f in fields)
    assert repr(value) == f"{type(value).__qualname__}({args})"


def test_repr_leaves_out_the_memo():
    polyhedra.remove_redundant(SQUARE)
    assert SQUARE._memo and "_memo" not in repr(SQUARE)
    assert repr(SQUARE) == "HRep(dim=1, rows=(((1,), 1), ((-1,), 0)))"


@pytest.mark.parametrize("value,fields", VALUES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(value, fields):
    for name in (*fields, "unlisted"):
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
    for name in fields:
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert field_values(value, fields) == field_values(value, fields)


@pytest.mark.parametrize("value,fields", VALUES, ids=IDS)
def test_copies_and_pickles_keep_the_fields(value, fields):
    assert copy.copy(value) == value
    assert repr(copy.deepcopy(value)) == repr(pickle.loads(pickle.dumps(value))) == repr(value)


@pytest.mark.parametrize("value,fields", VALUES, ids=IDS)
def test_a_wrong_number_of_fields_is_refused(value, fields):
    args = field_values(value, fields)
    for wrong in (args[:-1], (*args, None)):
        with pytest.raises(TypeError, match=type(value).__name__):
            type(value)(*wrong)


def only_stores(init: ast.FunctionDef) -> bool:
    """Whether ``init`` takes plain positional parameters and its body only
    stores them: each statement is ``object.__setattr__(self, "p", p)``, or
    the body is one ``super().__init__(...)`` of the parameters in order."""
    a = init.args
    if a.vararg or a.kwarg or a.kwonlyargs or a.defaults or a.posonlyargs:
        return False
    params = [arg.arg for arg in a.args[1:]]
    body = init.body[1:] if ast.get_docstring(init) else init.body
    calls = [s.value for s in body if isinstance(s, ast.Expr) and isinstance(s.value, ast.Call)]
    if len(calls) != len(body):
        return False
    dumped = [ast.dump(c) for c in calls]
    stores = [ast.dump(ast.parse(f"object.__setattr__(self, {p!r}, {p})", mode="eval").body) for p in params]
    forward = ast.dump(ast.parse(f"super().__init__({', '.join(params)})", mode="eval").body)
    return all(d in stores for d in dumped) or dumped == [forward]


def init_of(source: str):
    return next((f for f in ast.parse(source).body[0].body
                 if isinstance(f, ast.FunctionDef) and f.name == "__init__"), None)


def test_no_value_type_writes_an_init_that_only_stores_its_fields():
    types = [type(v) for v, _ in VALUES]
    inits = {t.__name__: init_of(inspect.getsource(t)) for t in types}
    assert not [name for name, init in inits.items() if init and only_stores(init)]
    assert sorted(name for name, init in inits.items() if init) == [
        "EquivalenceResult", "HRep", "LieType", "LinForm", "ReducedWord", "Weight",
    ]


@pytest.mark.parametrize(
    "body, flagged",
    [
        ('object.__setattr__(self, "a", a)\n        object.__setattr__(self, "b", b)', True),
        ('object.__setattr__(self, "b", b)', True),
        ("super().__init__(a, b)", True),
        ("super().__init__(b, a)", False),
        ('object.__setattr__(self, "a", tuple(a))\n        object.__setattr__(self, "b", b)', False),
        ('if a < 0:\n            raise ValueError(a)\n        super().__init__(a, b)', False),
    ],
)
def test_the_stores_only_check_flags_a_redundant_init(body, flagged):
    source = f'class Pair(Value):\n    _fields = ("a", "b")\n\n    def __init__(self, a, b):\n        {body}\n'
    assert only_stores(init_of(source)) is flagged
    with_default = source.replace("self, a, b", "self, a, b=0")
    assert not only_stores(init_of(with_default))


def test_keyword_only_arguments_stay_keyword_only():
    with pytest.raises(TypeError):
        polyhedra.EquivalenceResult("unknown", None, None, "w", "budget")
    with pytest.raises(TypeError):
        polyhedra.EquivalenceResult("unknown", witness="w")
    verdict = polyhedra.EquivalenceResult("inequivalent", decided_by="search")
    assert (verdict.matrix, verdict.shift, verdict.witness) == (None, None, None)


def test_constructors_keep_their_validation():
    with pytest.raises(ValueError):
        weyl.LieType("D", 4)
    with pytest.raises(ValueError):
        weyl.LieType("C", 1)
    with pytest.raises(ValueError):
        weyl.ReducedWord(C2, (1, 2, 1))
    with pytest.raises(ValueError):
        weyl.Weight(C2, (1,))
    with pytest.raises(polyhedra.PolyhedralError):
        polyhedra.HRep(2, (((1,), 0),))
    form = (1, 2)
    assert cones.LinForm(form).coeffs is form
    assert cones.LinForm([1, 2]).coeffs == form


def test_importing_the_package_loads_no_dataclasses():
    package = Path(stringcones.__file__).parent
    modules = sorted(p.stem for p in package.glob("*.py") if p.stem not in ("__init__", "__main__"))
    names = ["stringcones", *(f"stringcones.{m}" for m in modules)]
    code = (
        f"import importlib, sys\nfor m in {names!r}:\n    importlib.import_module(m)\n"
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(package.parent)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"
