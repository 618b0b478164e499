"""Type-A string cones share their facets across a Dynkin-mirror pair of
commutation classes: `cones.cone_facets` reads a class's facet indices off
its mirror class's when that one keeps them, with no LP.  The oracles here
are the redundancy LP on the word's own rows, both the current one and the
one-LP-per-row reference, and the two mirror facts behind the rule, pinned
as data."""

from collections import Counter

import pytest

from stringcones import cones, polyhedra
from stringcones.cones import cone_facets, irredundant_facets, string_cone
from stringcones.diagram import build_diagram, orient
from stringcones.paths import path_events
from stringcones.weyl import LieType, ReducedWord, class_words, enumerate_reduced_words

from test_cones import mirror_word
from test_polyhedra import parent_irredundant_indices


def own_rows(t, w):
    """The rows ``-form . x <= 0`` of the merged cone of ``w``, in its coordinates."""
    merged = string_cone(t, w, deduplicate=True).forms
    return tuple((tuple(-c for c in f.coeffs), 0) for f in merged)


def oracle_words():
    words = [w for n in (2, 3, 4) for w in enumerate_reduced_words(LieType("A", n))]
    return words + class_words(LieType("A", 5))[::30]


def test_mirror_indices_match_the_lp_on_the_words_own_rows(lp_calls):
    """From an empty class cache, the mirror word fills its class by LP and
    the word then reads its indices from it with none, on every word of
    A2-A4 and on 31 A5 classes: they are the indices both LPs keep on the
    word's own rows."""
    words = oracle_words()
    assert len(words) == 786 + 31
    derived = 0
    for w in words:
        t, mirrored = w.lie_type, mirror_word(w)
        cones._class_entry.cache_clear()
        cone_facets(t, mirrored)
        before = len(lp_calls)
        kept = list(cone_facets(t, w)[1])
        if cones.class_entry(t, w) is not cones.class_entry(t, mirrored):
            assert len(lp_calls) == before, w
            derived += 1
        rows = own_rows(t, w)
        assert kept == polyhedra._irredundant_indices(rows, len(w.letters)), w
        assert kept == parent_irredundant_indices(rows, len(w.letters)), w
    assert derived == len(words) - 8  # all but the 8 words of A3's 2 mirror-fixed classes


@pytest.mark.parametrize("n", [2, 3, 4])
def test_a_word_and_its_mirror_have_one_raw_cone(n):
    """The raw forms of ``w`` and its mirror word, in position coordinates,
    are equal as multisets."""
    t = LieType("A", n)
    for w in enumerate_reduced_words(t):
        raw = Counter(f.coeffs for f in string_cone(t, w).forms)
        assert raw == Counter(f.coeffs for f in string_cone(t, mirror_word(w)).forms), w


@pytest.mark.parametrize("n", [2, 3, 4])
def test_mirror_paths_run_backwards(n):
    """The rigorous paths of the mirror word in orientation ``m - u`` are
    those of ``w`` in orientation ``u`` read backwards, event by event."""
    t = LieType("A", n)
    for w in enumerate_reduced_words(t):
        d, mirrored = build_diagram(w), build_diagram(mirror_word(w))
        for u in range(1, d.m):
            backwards = sorted(events[::-1] for events in path_events(orient(d, u)))
            assert sorted(path_events(orient(mirrored, d.m - u))) == backwards, (w, u)


def test_a_corrupted_mirror_entry_raises(lp_calls):
    """A mirror entry whose facets are not all among the word's forms is
    refused, and the word's entry keeps no indices."""
    t = LieType("A", 3)
    w = ReducedWord(t, (1, 2, 1, 3, 2, 1))
    mirrored = mirror_word(w)
    entry, kept = cone_facets(t, mirrored)
    assert cones.class_entry(t, w) is not entry
    merged = list(entry["merged"])
    merged[kept[0]] = tuple(2 * c for c in merged[kept[0]])
    entry["merged"] = tuple(merged)
    with pytest.raises(polyhedra.PolyhedralError, match="facets of its mirror word"):
        irredundant_facets(t, w)
    assert "minimal" not in cones.class_entry(t, w)
    assert len(lp_calls) == 1
