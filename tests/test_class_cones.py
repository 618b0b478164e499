"""String cones read from the commutation-class entry against the parent's.

`cones.string_cone` enumerates rigorous paths once per commutation class and
reads every other word's cone by relabelling heap coordinates.  The oracle
below is the body of `string_cone` from before that change, kept verbatim
(with its `_collect`), which enumerates paths for every word.
"""

import random
from dataclasses import dataclass

import pytest

from stringcones import cones, polyhedra
from stringcones._linalg import primitive as polyhedra_primitive
from stringcones.cones import (
    LinForm,
    irredundant_facets,
    path_forms,
    string_cone,
)
from stringcones.diagram import OrientedDiagram, build_diagram, build_symp_diagram, orient
from stringcones.paths import RigorousPath, enumerate_paths
from stringcones.weyl import (
    LieType,
    ReducedWord,
    commutation_class,
    enumerate_reduced_words,
    longest_length,
)


@dataclass(frozen=True)
class HRepCone:
    """The fields of the cone the oracle returns: every path built eagerly."""

    lie_type: LieType
    word: ReducedWord
    dim: int
    forms: tuple
    paths: tuple


def _collect(lie_type: LieType, word: ReducedWord, dim: int, pairs) -> HRepCone:
    """Merge forms that agree up to positive scaling, keeping content 1."""
    by_form: dict[tuple[int, ...], list[RigorousPath]] = {}
    order: list[LinForm] = []
    for form, path in pairs:
        key = polyhedra_primitive(form.coeffs)
        if key not in by_form:
            by_form[key] = []
            order.append(LinForm(key))
        by_form[key].append(path)
    return HRepCone(
        lie_type,
        word,
        dim,
        tuple(order),
        tuple(tuple(by_form[f.coeffs]) for f in order),
    )


def parent_string_cone(t: LieType, w: ReducedWord, deduplicate: bool = False) -> HRepCone:
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
            (path_forms("A", [p])[0], p)
            for k in range(1, d.m)
            for p in enumerate_paths(orient(d, k))
        ]
        dim = d.length
    elif t.family == "C":
        sd = build_symp_diagram(w)
        pairs = [
            (path_forms("C", [p])[0], p)
            for u in range(1, sd.n + 1)
            for p in enumerate_paths(OrientedDiagram(sd, u))
        ]
        dim = longest_length(w.lie_type)
    elif t.family == "B":
        sd = build_symp_diagram(w)
        pairs = [
            (path_forms("B", [p])[0], p)
            for u in range(1, 2 * sd.n)
            for p in enumerate_paths(OrientedDiagram(sd, u))
        ]
        dim = longest_length(w.lie_type)
    else:
        raise ValueError(f"unsupported family {t.family}")
    if not deduplicate:
        return HRepCone(t, w, dim, tuple(f for f, _ in pairs), tuple((p,) for _, p in pairs))
    return _collect(t, w, dim, pairs)


def as_data(cone):
    """The dimension and the forms in order."""
    return cone.dim, [f.coeffs for f in cone.forms]


def assert_matches_parent(t, w):
    """Both `deduplicate` modes and the facets equal the oracle's, and the
    raw cone lists the form of each of `rigorous_paths`, in their order."""
    wants = {deduplicate: parent_string_cone(t, w, deduplicate) for deduplicate in (False, True)}
    for deduplicate, want in wants.items():
        assert as_data(string_cone(t, w, deduplicate)) == as_data(want), (t, w, deduplicate)
    found = cones.rigorous_paths(t, w)
    assert [(p.k, p.events) for p in found] == [(p.k, p.events) for (p,) in wants[False].paths]
    assert all(p.diagram is found[0].diagram for p in found)
    assert path_forms(t.family, found) == list(string_cone(t, w).forms)
    want = wants[True]
    rows = [tuple(-c for c in f.coeffs) for f in want.forms]
    kept = polyhedra._irredundant_indices(tuple((c, 0) for c in rows), want.dim)
    pruned, count = irredundant_facets(t, w)
    assert [f.coeffs for f in pruned.forms] == [want.forms[i].coeffs for i in kept]
    assert count == len(kept)


@pytest.mark.parametrize("type_text", ["A1", "A2", "A3", "A4", "B2", "B3", "C2", "C3"])
def test_class_cones_match_the_parent_on_every_word(empty_entries, type_text):
    t = LieType.parse(type_text)
    words = list(enumerate_reduced_words(t))
    random.Random(type_text).shuffle(words)  # hits come from any word of the class
    for w in words:
        assert_matches_parent(t, w)


def commutation_walk(w, steps, rng):
    """A word reached from ``w`` by ``steps`` random commutation moves."""
    letters = list(w.letters)
    for _ in range(steps):
        moves = [j for j in range(len(letters) - 1) if abs(letters[j] - letters[j + 1]) >= 2]
        j = rng.choice(moves)
        letters[j], letters[j + 1] = letters[j + 1], letters[j]
    return ReducedWord(w.lie_type, tuple(letters))


C4_STARTS = (
    "3,2,1,2,4,3,4,2,3,2,4,3,1,2,3,4",
    "4,3,2,4,3,1,4,3,2,1,3,4,2,3,2,1",
    "1,2,3,4,1,2,3,4,1,2,3,4,1,2,3,4",
    "2,1,2,4,3,2,4,1,3,2,4,1,3,4,2,3",
)


@pytest.mark.slow
@pytest.mark.parametrize("family", ["B", "C"])
def test_class_cones_match_the_parent_on_rank4_walks(empty_entries, family):
    rng = random.Random(family)
    t = LieType(family, 4)
    for start in C4_STARTS:
        w = ReducedWord.parse(f"{family}4", start)
        walked, steps = [w], 7
        while len(walked) < 3:  # the start and two other words of its class
            v = commutation_walk(w, steps, rng)
            walked += [v] if v not in walked else []
            steps += 6
        for v in walked:
            assert_matches_parent(t, v)
    assert empty_entries.cache_info().misses == len(C4_STARTS)


def test_one_path_enumeration_per_class_and_orientation(empty_entries, monkeypatch):
    """The 768 A4 words fall into 62 classes of 4 orientations each: 248
    runs of the form kernel, one per orientation's path search, where one
    per word and orientation would be 3072."""
    calls = []
    forms = cones._forms

    def counted(table, k, events):
        calls.append(k)
        return forms(table, k, events)

    monkeypatch.setattr(cones, "_forms", counted)
    t = LieType("A", 4)
    for w in enumerate_reduced_words(t):
        irredundant_facets(t, w)
    assert len(calls) == 62 * 4 == 248


def test_a_hit_builds_no_path_until_read(empty_entries, monkeypatch):
    built = []
    forms = cones._forms

    def counted(table, k, events):
        built.append(k)
        return forms(table, k, events)

    monkeypatch.setattr(cones, "_forms", counted)
    t = LieType("C", 3)
    w = ReducedWord.parse("C3", "1,3,2,1,3,2,1,3,2")
    string_cone(t, w)
    assert built  # the first word of the class reads its paths' forms
    built.clear()
    moved = ReducedWord.parse("C3", "3,1,2,1,3,2,1,3,2")
    assert moved in commutation_class(w)
    string_cone(t, moved)
    irredundant_facets(t, moved)
    assert built == []
