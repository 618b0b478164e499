"""String inequalities in types A, B, C and the folding maps between them.

A path on a type-A diagram cuts out one integer linear inequality on the
crossing coordinates: +1 where the path jumps to a higher wire, -1 where it
drops to a lower one.  For a type-B/C word of rank n the same recipe runs
on the lifted diagram and is pushed down to the N = n^2 folded coordinates:
type B sums each letter's twin coordinates (`FoldMaps.collapse`), type C
also doubles wall coordinates (`FoldMaps.double_cb`) and halves the form of
a path that is its own mirror (all its coefficients are even).  The fold
maps and the form kernel read the symplectic diagram's twin table, the
one reading of the fold `weyl.lift` writes.  One kernel, `_forms`,
computes each path's form from its event tuple and a table built once per
word (`_form_table`: each crossing's coordinate, weight and mirror).
`path_forms`, the one public reading of a path's form, calls it on the
paths of one diagram, a cone fill on the event tuples of
`paths.path_events`, with no path object.

`string_cone` collects one inequality per rigorous path; `irredundant_facets`
prunes that list down to the facets with an exact LP.

Both run once per commutation class.  A commutation move swaps two adjacent
crossings that lie on disjoint wires, so the words of a class have one
wiring diagram up to those swaps.  `weyl.heap_coordinates` names each
coordinate by its letter occurrence ``(i_j, earlier occurrences of i_j)``, a
label the whole class agrees on (in types B and C the paths run on the
lifted word, which a commutation move of the word moves by commutation
moves).  In heap coordinates the words of a class have the same paths,
so the same forms, and in the same order: the paths of one orientation are
sorted by their switch crossings, and two paths with a common switch
prefix sit on one wire after it, so their next switches lie on that wire.
The crossings along one wire form a chain of the heap (two consecutive ones
have letters at most 1 apart), so a commutation move never reorders them.

`class_entry` keys one bounded cache on `weyl.foata_normal_form`, which the
words of a class share and no other word has: one entry per class, written
here and in `polytopes`.  The first word of a class fills the cone
(`_cone_entry`): integer forms in heap coordinates, one per rigorous path
in path order, and the merged forms.  Every word then reads its cone by
relabelling coordinates (`_relabelling`, one `operator.itemgetter` step
per form), with no diagram, no path enumeration and no sort.  A cone is
its forms alone; `rigorous_paths` lists a word's paths, one per raw form
and in the same order, for the callers that show them.  `cone_facets`
keeps the indices of the facets among the merged forms, the rows
`polyhedra.remove_redundant` keeps, so its LP runs once per class;
`irredundant_facets` reads them.  In type A it runs once per pair of
classes that the diagram automorphism ``sigma(i) = n + 1 - i`` swaps:
``sigma`` is a crystal automorphism of B(infinity) carrying ``epsilon_i``
to ``epsilon_sigma(i)`` (Kashiwara, *Duke Math. J.* 71, 1993), so the
string of an element along ``w`` is the string of its image along the
mirror word ``sigma(w)``, a reduced word too (``sigma(w0) = w0``), and the
two words cut out one string cone in position coordinates.  A class whose
mirror class keeps its facets reads them from there (`_mirror_facets`),
with no LP.

Only the right-hand sides of a string polytope's rows depend on the
weight (Littelmann, *Transform. Groups* 3, 1998), so the entry keeps its
rows once (`class_polytope_rows`), each with an index for its right-hand
side; every word reads them at every weight by one relabelling.  All
relabelling happens here.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter

from . import polyhedra
from ._linalg import Value, primitive as polyhedra_primitive
from .diagram import OrientedDiagram, SympWiringDiagram, WiringDiagram, build_diagram, build_symp_diagram
from .paths import RigorousPath, enumerate_paths, path_events
from .weyl import LieType, ReducedWord, Weight, foata_normal_form, heap_coordinates

__all__ = [
    "LinForm",
    "HRepCone",
    "FoldMaps",
    "fold_maps",
    "path_forms",
    "rigorous_paths",
    "string_cone",
    "irredundant_facets",
    "facet_count",
]


class LinForm(Value):
    """An integer linear functional; the inequality meant is ``form >= 0``.

    A tuple given as ``coeffs`` is kept as it is, any other sequence copied.
    """

    __slots__ = _fields = ("coeffs",)

    def __init__(self, coeffs) -> None:
        object.__setattr__(self, "coeffs", coeffs if type(coeffs) is tuple else tuple(coeffs))

    def __reduce__(self):  # copy and pickle cannot set a slot on a frozen instance
        return LinForm, (self.coeffs,)

    def pretty(self) -> str:
        parts: list[str] = []
        for i, c in enumerate(self.coeffs, 1):
            if c == 0:
                continue
            mag = abs(c)
            term = f"a{i}" if mag == 1 else f"{mag}*a{i}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts) if parts else "0"


class FoldMaps(Value):
    """The linear maps tying the folded coordinates to the lifted ones.

    ``groups`` lists the lifted coordinates of each letter, one per twin
    crossing: two away from the wall, one on it.  ``expand`` repeats the
    coordinate of each letter once per twin crossing (the slice embedding),
    ``collapse`` sums each twin group (the quotient projection),
    ``double_bc`` scales each letter by its twin-crossing count and
    ``double_cb`` by 3 minus it; composing the two scalings gives
    multiplication by 2.
    """

    _fields = ("groups",)  # lifted coordinate indices per letter, 0-based

    @property
    def n_lifted(self) -> int:
        return sum(len(g) for g in self.groups)

    def expand(self, vec):
        out = [0] * self.n_lifted
        for k, group in enumerate(self.groups):
            for t in group:
                out[t] = vec[k]
        return tuple(out)

    def collapse(self, vec):
        return tuple(sum(vec[t] for t in group) for group in self.groups)

    def double_bc(self, vec):
        return tuple(len(g) * x for g, x in zip(self.groups, vec))

    def double_cb(self, vec):
        return tuple((3 - len(g)) * x for g, x in zip(self.groups, vec))


def fold_maps(w: ReducedWord) -> FoldMaps:
    """The fold maps of a type-B/C word, read off its diagram's twin table."""
    twins = build_symp_diagram(w).twins
    return FoldMaps(tuple([
        (a - 1,) if twin == a else (a - 1, twin - 1)
        for a, (_, _, twin) in enumerate(twins, start=1) if twin >= a
    ]))


def _form_table(family: str, d: WiringDiagram, coordinate) -> tuple:
    """What `_forms` reads of ``d``, once per word: per crossing (entry 0
    unused) the coordinate ``coordinate[k]`` of its letter ``k`` (a crossing
    in type A, a letter of the word in B and C, from the diagram's
    ``twins``), its weight (2 on the wall in type C, else 1), lower wire and
    wire sum; each crossing's mirror; the dimension; the orientation whose
    self-mirror paths are halved.  The table serves the paths of ``d``
    alone: its crossing numbers mean nothing on another diagram."""
    if family == "A":
        letters = [(coordinate[t], 1) for t in range(d.length)]
    elif isinstance(d, SympWiringDiagram):
        letters = [
            (coordinate[j - 1], 2 if family == "C" and twin == a else 1)
            for a, (_, j, twin) in enumerate(d.twins, start=1)
        ]
    else:
        raise ValueError(f"type-{family} functionals need a path on a symplectic diagram")
    crossings = [None, *((*letters[t], nd.wires[0], sum(nd.wires)) for t, nd in enumerate(d.nodes))]
    if family != "C":
        return crossings, None, len(coordinate), 0
    return crossings, [0, *(twin for _, _, twin in d.twins)], len(coordinate), d.n


def _forms(table: tuple, k: int, paths) -> list[tuple[int, ...]]:
    """The integer form of each path of orientation ``k`` (an event tuple),
    the one place a path's form is computed: a switch to the higher wire adds
    the crossing's weight at its coordinate, one to the lower wire subtracts
    it; a wall path equal to its mirror (events mirrored, reversed) is halved."""
    crossings, mirror, dim, wall = table
    out = []
    for events in paths:
        form = [0] * dim
        wire = k
        for j, switched in events:
            if switched:
                c, weight, low, pair = crossings[j]
                form[c] += weight if wire == low else -weight
                wire = pair - wire
        if k == wall and events == tuple([(mirror[j], s) for j, s in reversed(events)]):
            if any(c % 2 for c in form):
                raise ValueError("form has odd coefficients; cannot halve exactly")
            form = [c // 2 for c in form]
        out.append(tuple(form))
    return out


def path_forms(family: str, paths: list[RigorousPath], halve: bool = True) -> list[LinForm]:
    """The type-``family`` forms of paths of one diagram, in its word's
    coordinates, from one table; ``halve=False`` keeps type-C forms whole.

    Type A reads the diagram's crossing coordinates (the lifted ones on a
    symplectic diagram); B sums each twin group of them, and C also counts
    wall crossings twice and halves a wall path equal to its mirror.  The
    table is built from the first path's diagram, so a path on any other
    diagram is refused with `ValueError`; no paths give no forms.
    """
    if not paths:
        return []
    d = paths[0].diagram
    if any(p.diagram is not d for p in paths):
        raise ValueError("path_forms needs paths of one diagram")
    table = _form_table(family, d, range(d.length if family == "A" else len(d.word.letters)))
    if not halve:
        table = (*table[:3], 0)
    return [LinForm(_forms(table, p.k, [p.events])[0]) for p in paths]


class HRepCone(Value):
    """A cone given by ``form >= 0`` constraints."""

    _fields = ("dim", "forms")

    def to_hrep(self) -> polyhedra.HRep:
        return polyhedra.HRep(
            self.dim, tuple((tuple(-c for c in f.coeffs), 0) for f in self.forms)
        )


def _inverse(perm) -> list[int]:
    """The inverse of a permutation of ``range(len(perm))``."""
    out = [0] * len(perm)
    for j, k in enumerate(perm):
        out[k] = j
    return out


def _check_types(t: LieType, w: ReducedWord) -> None:
    """Refuse a word that has no string cone of type ``t``."""
    if t.rank != w.rank:
        raise ValueError(f"rank mismatch: cone type {t}, word of rank {w.rank}")
    if t.family == "A" and w.lie_type.family != "A":
        raise ValueError("type-A cones need a type-A word")


def _oriented(t: LieType, w: ReducedWord) -> list[OrientedDiagram]:
    """The orientations cutting the string cone of type ``t``, on one new diagram
    (symplectic in types B and C): 1..n in type C (the mirrors give the same
    forms), all 1..m-1 otherwise."""
    d = build_diagram(w) if t.family == "A" else build_symp_diagram(w)
    top = d.n if t.family == "C" else d.m - 1
    return [OrientedDiagram(d, u) for u in range(1, top + 1)]


def rigorous_paths(t: LieType, w: ReducedWord) -> list[RigorousPath]:
    """The rigorous paths of ``w`` that cut the string cone of type ``t``,
    in path order (see `_oriented`): the one listing of a word's paths.
    The raw `string_cone` lists the form of each, in the same order."""
    _check_types(t, w)
    return [p for od in _oriented(t, w) for p in enumerate_paths(od)]


def _cone_entry(t: LieType, w: ReducedWord) -> dict:
    """The cone entry of the class of ``w``, filled by ``w`` on a miss.

    ``entry["raw"]`` holds one form per rigorous path, in path order, and
    ``entry["merged"]`` the first copies of the forms up to positive
    scaling, with content 1; both in heap coordinates.  A miss runs the
    form kernel over each orientation's event tuples: it builds no path.
    """
    _check_types(t, w)
    entry = class_entry(t, w)
    if "raw" not in entry:
        oriented = _oriented(t, w)
        table = _form_table(t.family, oriented[0].diagram, heap_coordinates(w))
        raw = tuple([f for od in oriented for f in _forms(table, od.up_count, path_events(od))])
        entry["raw"] = raw
        entry["merged"] = tuple(dict.fromkeys(map(polyhedra_primitive, raw)))
    return entry


def _relabelling(w: ReducedWord):
    """The map rewriting a heap-coordinate row in the coordinates of ``w``,
    one C-level step per row (a word of one letter has one coordinate)."""
    heap = heap_coordinates(w)
    return itemgetter(*heap) if len(heap) > 1 else tuple


def string_cone(t: LieType, w: ReducedWord, deduplicate: bool = False) -> HRepCone:
    """All string inequalities of a reduced word, one per rigorous path.

    The list is complete but possibly redundant; with ``deduplicate`` the
    forms that agree up to positive scaling are merged (keeping content 1).
    The first word of a commutation class fills the class entry (see the
    module docstring); every word reads its cone from there by relabelling
    coordinates.
    """
    forms = _cone_entry(t, w)["merged" if deduplicate else "raw"]
    relabel = _relabelling(w)
    return HRepCone(len(w.letters), tuple([LinForm(relabel(f)) for f in forms]))


# C4 and B4 have 330 commutation classes each, one entry per class.
CLASS_CACHE_SIZE = 1024


@lru_cache(maxsize=CLASS_CACHE_SIZE)
def _class_entry(t: LieType, key) -> dict:
    """The entry of the commutation class ``key`` (see `class_entry`) of type ``t``."""
    return {}


def class_entry(t: LieType, w: ReducedWord) -> dict:
    """The entry of the commutation class of ``w`` for its string cone of
    type ``t`` and, in its own type, its string polytopes.

    It is keyed on `foata_normal_form`, which every word of the class shares
    and no word outside it has.
    """
    return _class_entry(t, foata_normal_form(w))


def class_polytope_rows(w: ReducedWord, lam: Weight, weight_rows) -> tuple[dict, tuple]:
    """The entry of the class of ``w`` and the rows of the string polytope
    of ``w`` at ``lam`` read from it.

    The entry keeps the row pattern in heap coordinates: the merged cone
    rows ``-form . x <= 0``, then the weight rows in heap order, each with
    the index of its right-hand side in ``(0, *lam.coeffs)``: 0 for a cone
    row, the letter ``i_k`` for weight row ``k``.  ``weight_rows()`` gives
    the weight rows of ``w`` in its own coordinates, at any weight, and is
    called only by the word that fills the pattern.
    """
    entry = _cone_entry(w.lie_type, w)
    if "rows" not in entry:
        at = _inverse(heap_coordinates(w))
        cone = tuple([(tuple([-c for c in form]), 0) for form in entry["merged"]])
        rows = weight_rows()
        entry["rows"] = cone + tuple([(tuple([rows[k][0][j] for j in at]), w.letters[k]) for k in at])
    relabel, rhs = _relabelling(w), (0, *lam.coeffs)
    return entry, tuple([(relabel(c), rhs[i]) for c, i in entry["rows"]])


def cone_facets(t: LieType, w: ReducedWord) -> tuple[dict, tuple[int, ...]]:
    """The cone entry of the class of ``w`` and the indices of the facets
    among its merged forms, found by exact LP once per class.

    Forms equal up to positive scaling merge first (mirror pairs and the
    like), then each surviving inequality is tested for redundancy: the
    word that fills the entry keeps the indices of the rows
    `remove_redundant` keeps, and a hit builds no `HRep`.  A string cone is
    full-dimensional, so its minimal system is its facet set, and the
    first copy of each facet is kept.

    In type A the LP runs once per Dynkin-mirror pair of classes: when the
    class of the mirror word ``sigma(w)`` (each letter ``i`` read as
    ``n + 1 - i``) already keeps its facets, they are ``w``'s, since the
    two words cut out one cone in position coordinates (see the module
    docstring).  The kept indices are those of ``w``'s merged forms that
    lie among them, and a count that differs from the mirror's raises
    `PolyhedralError`.
    """
    entry = _cone_entry(t, w)
    if "minimal" not in entry:
        forms = list(map(_relabelling(w), entry["merged"]))
        mirror = _mirror_facets(w) if t.family == "A" else None
        if mirror is None:
            rows = tuple([(tuple([-c for c in form]), 0) for form in forms])
            index = {row: i for i, row in enumerate(rows)}
            minimal = polyhedra.remove_redundant(polyhedra.HRep._canonical(len(w.letters), rows, None))
            kept = tuple([index[row] for row in minimal.rows])
        else:
            kept = tuple([i for i, form in enumerate(forms) if form in mirror])
            if len(kept) != len(mirror):
                raise polyhedra.PolyhedralError(
                    f"{w} keeps {len(kept)} of the {len(mirror)} facets of its mirror word"
                )
        entry["minimal"] = kept
    return entry, entry["minimal"]


def _mirror_facets(w: ReducedWord) -> set[tuple[int, ...]] | None:
    """The facets of the type-A cone of the mirror word of ``w``, in its
    coordinates (``w``'s, position by position), when its class keeps
    them, else None (also when the class is ``w``'s own)."""
    mirror = ReducedWord._reduced(w.lie_type, tuple([w.rank + 1 - i for i in w.letters]))
    entry = class_entry(w.lie_type, mirror)
    if "minimal" not in entry:
        return None
    relabel, merged = _relabelling(mirror), entry["merged"]
    return {relabel(merged[i]) for i in entry["minimal"]}


def irredundant_facets(t: LieType, w: ReducedWord) -> tuple[HRepCone, int]:
    """Minimal facet system of the string cone and the facet count: the
    merged forms at the indices `cone_facets` keeps, in the coordinates of
    ``w``."""
    entry, kept = cone_facets(t, w)
    relabel, merged = _relabelling(w), entry["merged"]
    forms = tuple([LinForm(relabel(merged[i])) for i in kept])
    return HRepCone(len(w.letters), forms), len(forms)


def facet_count(t: LieType, w: ReducedWord) -> int:
    return len(cone_facets(t, w)[1])

