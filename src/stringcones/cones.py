"""String inequalities in types A, B, C and the folding maps between them.

A path on a type-A diagram cuts out one integer linear inequality on the
crossing coordinates: +1 where the path jumps to a higher wire, -1 where it
drops to a lower one.  For a type-B/C word of rank n the same recipe runs
on the lifted diagram and is pushed down to the N = n^2 folded coordinates:

* type B substitutes both twin coordinates of a letter by the letter's own
  coordinate;
* type C additionally doubles wall coordinates, and the resulting form is
  halved when the path is its own mirror (all its coefficients are even).

`string_cone` collects one inequality per rigorous path; `irredundant_facets`
prunes that list down to the facets with an exact LP, run once per cone.

Words of one commutation class share a wiring diagram, and their string
cones differ only by a permutation of the coordinates: the transition map of
a commutation move is a swap.  `weyl.heap_coordinates` names each coordinate
by its letter occurrence ``(i_j, earlier occurrences of i_j)``, a label the
whole class agrees on, so the words of a class give the same set of rows in
heap coordinates.  `class_entry` takes this quotient for string cones and
string polytopes alike: it rewrites rows ``(c, b)``, ints throughout, in
heap coordinates and returns the entry of their row set from one bounded
cache.  An entry keeps the minimal rows in heap coordinates (and a
polytope's f-vector).  A cone's rows all have ``b = 0`` and a polytope's at
a regular weight do not, so their entries stay apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from . import polyhedra
from ._linalg import primitive as polyhedra_primitive
from .diagram import OrientedDiagram, SympWiringDiagram, build_diagram, build_symp_diagram, orient
from .paths import RigorousPath, all_symp_paths, enumerate_paths, is_symmetric
from .weyl import LieType, ReducedWord, heap_coordinates, longest_length

__all__ = [
    "LinForm",
    "HRepCone",
    "FoldMaps",
    "functional_A",
    "functional_t",
    "functional_C",
    "functional_C_unhalved",
    "functional_B",
    "fold_maps",
    "string_cone",
    "irredundant_facets",
    "facet_count",
    "is_simplicial",
]


@dataclass(frozen=True)
class LinForm:
    """An integer linear functional, tagged with its coordinate space.

    ``space`` is "a" for folded/plain crossing coordinates and "t" for the
    coordinates of a lifted diagram.  The inequality meant is ``form >= 0``.
    """

    space: str
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(self.coeffs))

    @property
    def dim(self) -> int:
        return len(self.coeffs)

    def __add__(self, other: "LinForm") -> "LinForm":
        if self.space != other.space or self.dim != other.dim:
            raise ValueError("cannot add forms on different spaces")
        return LinForm(self.space, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def halved(self) -> "LinForm":
        if any(c % 2 for c in self.coeffs):
            raise ValueError("form has odd coefficients; cannot halve exactly")
        return LinForm(self.space, tuple(c // 2 for c in self.coeffs))

    def pretty(self, labels: Iterable[str] | None = None) -> str:
        names = list(labels) if labels is not None else [f"a{i+1}" for i in range(self.dim)]
        parts: list[str] = []
        for c, name in zip(self.coeffs, names):
            if c == 0:
                continue
            mag = abs(c)
            term = name if mag == 1 else f"{mag}*{name}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts) if parts else "0"


def _switch_vector(p: RigorousPath) -> list[int]:
    vec = [0] * p.base.length
    for node, frm, to in p.switch_pairs:
        vec[node - 1] = 1 if frm < to else -1
    return vec


def functional_A(p: RigorousPath) -> LinForm:
    """The inequality a path cuts on plain type-A crossing coordinates."""
    return LinForm("a", tuple(_switch_vector(p)))


def functional_t(p: RigorousPath) -> LinForm:
    """Same coefficients as `functional_A`, on lifted coordinates."""
    return LinForm("t", tuple(_switch_vector(p)))


def t_labels(sd: SympWiringDiagram) -> list[str]:
    return [sd.label_str(a) for a in range(1, sd.base.length + 1)]


@dataclass(frozen=True)
class FoldMaps:
    """The linear maps tying the folded coordinates to the lifted ones.

    ``expand`` repeats the coordinate of each letter once per twin crossing
    (the slice embedding), ``collapse`` sums each twin group (the quotient
    projection), and the two ``double_*`` maps scale by the per-letter
    multiplicities; composing the two scalings gives multiplication by 2.
    ``substitute`` rewrites a lifted functional in folded coordinates with
    wall crossings counted twice.
    """

    word: ReducedWord
    groups: tuple[tuple[int, ...], ...]  # lifted coordinate indices per letter, 0-based
    wall_letters: tuple[bool, ...]

    @property
    def n_folded(self) -> int:
        return len(self.groups)

    @property
    def n_lifted(self) -> int:
        return sum(len(g) for g in self.groups)

    def multiplicities(self) -> tuple[int, ...]:
        """Twin-crossing counts per letter: 2 away from the wall, 1 on it."""
        return tuple(1 if wall else 2 for wall in self.wall_letters)

    def co_multiplicities(self) -> tuple[int, ...]:
        return tuple(2 if wall else 1 for wall in self.wall_letters)

    def expand(self, vec):
        out = [0] * self.n_lifted
        for k, group in enumerate(self.groups):
            for t in group:
                out[t] = vec[k]
        return tuple(out)

    def collapse(self, vec):
        return tuple(sum(vec[t] for t in group) for group in self.groups)

    def double_bc(self, vec):
        return tuple(m * x for m, x in zip(self.multiplicities(), vec))

    def double_cb(self, vec):
        return tuple(m * x for m, x in zip(self.co_multiplicities(), vec))

    def substitute(self, form: LinForm) -> LinForm:
        if form.space != "t" or form.dim != self.n_lifted:
            raise ValueError("substitute expects a lifted-coordinate form of matching size")
        coeffs = tuple(
            m * sum(form.coeffs[t] for t in group)
            for m, group in zip(self.co_multiplicities(), self.groups)
        )
        return LinForm("a", coeffs)

    def fold_b(self, form: LinForm) -> LinForm:
        """Rewrite a lifted functional in type-B folded coordinates."""
        if form.space != "t" or form.dim != self.n_lifted:
            raise ValueError("fold_b expects a lifted-coordinate form of matching size")
        return LinForm("a", tuple(sum(form.coeffs[t] for t in group) for group in self.groups))


def fold_maps(w: ReducedWord) -> FoldMaps:
    if not w.lie_type.is_doubled:
        raise ValueError("fold maps exist for type-B/C words only")
    n = w.rank
    groups: list[tuple[int, ...]] = []
    walls: list[bool] = []
    t = 0
    for x in w.letters:
        if x == n:
            groups.append((t,))
            walls.append(True)
            t += 1
        else:
            groups.append((t, t + 1))
            walls.append(False)
            t += 2
    return FoldMaps(w, tuple(groups), tuple(walls))


def functional_C_unhalved(p: RigorousPath) -> LinForm:
    """The type-C form of a symplectic path before any halving."""
    sd = p.diagram
    if not isinstance(sd, SympWiringDiagram):
        raise ValueError("type-C functionals need a symplectic path")
    return fold_maps(sd.word).substitute(functional_t(p))


def functional_C(p: RigorousPath) -> LinForm:
    """The type-C string inequality of a symplectic path.

    Mirror-symmetric paths with orientation n produce forms with all even
    coefficients, which are divided by two.
    """
    form = functional_C_unhalved(p)
    sd = p.diagram
    if p.k == sd.n and is_symmetric(p):
        return form.halved()
    return form


def functional_B(p: RigorousPath) -> LinForm:
    """The type-B string inequality of a path on a lifted/symplectic diagram."""
    sd = p.diagram
    if not isinstance(sd, SympWiringDiagram):
        raise ValueError("type-B functionals need a path on a symplectic diagram")
    return fold_maps(sd.word).fold_b(functional_t(p))


@dataclass(frozen=True)
class HRepCone:
    """A cone given by ``form >= 0`` constraints, remembering source paths."""

    lie_type: LieType
    word: ReducedWord
    dim: int
    forms: tuple[LinForm, ...]
    paths: tuple[tuple[RigorousPath, ...], ...]  # per form, all generating paths

    def to_hrep(self) -> polyhedra.HRep:
        return polyhedra.HRep(
            self.dim, tuple((tuple(-c for c in f.coeffs), 0) for f in self.forms)
        )

    def __len__(self) -> int:
        return len(self.forms)


def _collect(lie_type: LieType, word: ReducedWord, dim: int, pairs) -> HRepCone:
    """Merge forms that agree up to positive scaling, keeping content 1."""
    by_form: dict[tuple[int, ...], list[RigorousPath]] = {}
    order: list[LinForm] = []
    for form, path in pairs:
        key = polyhedra_primitive(form.coeffs)
        if key not in by_form:
            by_form[key] = []
            order.append(LinForm(form.space, key))
        by_form[key].append(path)
    return HRepCone(
        lie_type,
        word,
        dim,
        tuple(order),
        tuple(tuple(by_form[f.coeffs]) for f in order),
    )


def string_cone(t: LieType, w: ReducedWord, deduplicate: bool = False) -> HRepCone:
    """All string inequalities of a reduced word, one per rigorous path.

    The list is complete but possibly redundant; with ``deduplicate`` the
    coefficientwise-equal forms are merged (keeping every source path).
    """
    if t.rank != w.rank:
        raise ValueError(f"rank mismatch: cone type {t}, word of rank {w.rank}")
    if t.family == "A":
        if w.lie_type.family != "A":
            raise ValueError("type-A cones need a type-A word")
        d = build_diagram(w)
        pairs = [
            (functional_A(p), p)
            for k in range(1, d.m)
            for p in enumerate_paths(orient(d, k))
        ]
        dim = d.length
    elif t.family == "C":
        sd = build_symp_diagram(w)
        pairs = [(functional_C(p), p) for p in all_symp_paths(sd)]
        dim = longest_length(w.lie_type)
    elif t.family == "B":
        sd = build_symp_diagram(w)
        pairs = [
            (functional_B(p), p)
            for u in range(1, 2 * sd.n)
            for p in enumerate_paths(OrientedDiagram(sd, u))
        ]
        dim = longest_length(w.lie_type)
    else:
        raise ValueError(f"unsupported family {t.family}")
    if not deduplicate:
        return HRepCone(t, w, dim, tuple(f for f, _ in pairs), tuple((p,) for _, p in pairs))
    return _collect(t, w, dim, pairs)


# C4 and B4 have 330 commutation classes each; a class may hold a cone entry
# and polytope entries at several weights.
CLASS_CACHE_SIZE = 1024


@lru_cache(maxsize=CLASS_CACHE_SIZE)
def _class_entry(t: LieType, rows: tuple) -> dict:
    """The entry of the row set ``rows`` (sorted, in heap coordinates) of type ``t``."""
    return {}


def class_entry(t: LieType, w: ReducedWord, rows) -> tuple[dict, list]:
    """The commutation-class entry of the system ``rows`` of ``w``, and its heap rows.

    ``rows`` are ``(c, b)`` pairs in the coordinates of ``w``; the heap rows
    are the same pairs, in the same order, with ``c`` rewritten in
    `heap_coordinates`.  The entry is keyed on ``(t, sorted heap rows)``, so
    every word of the class with this system gets the same one.  A value is
    sound to share only if it is a function of the row set: the minimal rows
    of a full-dimensional system are its facets whatever the row order.
    """
    heap = heap_coordinates(w)
    at = sorted(range(len(heap)), key=heap.__getitem__)  # the position of each heap coordinate
    heap_rows = [(tuple([c[k] for k in at]), b) for c, b in rows]
    return _class_entry(t, tuple(sorted(heap_rows))), heap_rows


def irredundant_facets(t: LieType, w: ReducedWord) -> tuple[HRepCone, int]:
    """Minimal facet system of the string cone and the facet count.

    Coefficientwise duplicates (mirror pairs and the like) merge first, then
    each surviving inequality is tested for redundancy by exact LP.  The LP
    runs once per commutation class: the rows ``(c, 0)`` are looked up by
    `class_entry`, so the other words of the class hit the entry of the
    first.  A hit is sound whatever the words: the key is the row set
    itself, and a full-dimensional cone (every string cone is one) has one
    facet set whatever the row order.  On a miss the LP runs on the word's
    own rows in their own order, as without the cache: its pivots, and so
    its time, depend on that order.
    """
    cone = string_cone(t, w, deduplicate=True)
    rows = [tuple(-c for c in f.coeffs) for f in cone.forms]
    entry, heap_rows = class_entry(t, w, [(row, 0) for row in rows])
    if "minimal" not in entry:
        kept = polyhedra.irredundant_cone_rows(rows, cone.dim)
        entry["minimal"] = frozenset(heap_rows[i] for i in kept)
    kept = [i for i, row in enumerate(heap_rows) if row in entry["minimal"]]
    forms = tuple(cone.forms[i] for i in kept)
    paths = tuple(cone.paths[i] for i in kept)
    pruned = HRepCone(cone.lie_type, cone.word, cone.dim, forms, paths)
    return pruned, len(forms)


def facet_count(t: LieType, w: ReducedWord) -> int:
    return irredundant_facets(t, w)[1]


def is_simplicial(w: ReducedWord, family: str = "C") -> bool:
    """Whether the folded string cone has exactly as many facets as dimensions."""
    if not w.lie_type.is_doubled:
        raise ValueError("simpliciality concerns type-B/C words")
    t = LieType(family, w.rank)
    return facet_count(t, w) == longest_length(w.lie_type)

