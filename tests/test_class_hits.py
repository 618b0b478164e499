"""Class hits are relabellings: string cones and polytopes against the earlier code.

A word whose commutation class already has an entry reads its string cone
and its string polytope by relabelling the integer rows the entry keeps in
heap coordinates.  The oracles below are the earlier `string_polytope`,
`string_cone`, `_word_forms` and `cones.heap_order`, kept verbatim under
their own names: they rewrite the cone entry's forms and rebuild the weight cone for every word.
The oracle polytope shares no entry, so its minimal rows come from an LP of
its own (its call of the deleted `HRep.share` on a fresh dict, which
shared nothing, is dropped).  `direct_polytope` is the branch the
earlier `string_polytope` took for a word alone in its class or a
non-regular weight.  Each word is built cold (class cache cleared) and then
warm (a second word of its class, filled by the first).
"""

import pytest

from stringcones import cones, polyhedra, polytopes, weyl
from stringcones.cones import HRepCone, LinForm, _cone_entry, _inverse
from stringcones.polyhedra import HRep, remove_redundant
from stringcones.polytopes import lambda_cone
from stringcones.weyl import (
    LieType,
    ReducedWord,
    Weight,
    class_words,
    commutation_class,
    enumerate_reduced_words,
    heap_coordinates,
)


def _word_forms(heap, forms) -> tuple[LinForm, ...]:
    """Heap-coordinate forms rewritten in the coordinates of the word."""
    return tuple(LinForm(tuple([form[k] for k in heap])) for form in forms)


def heap_order(w: ReducedWord, per_position) -> tuple:
    """One item per position of ``w``, listed in the order of the positions'
    `heap_coordinates`: the words of a class list their letter occurrences
    alike."""
    return tuple([per_position[k] for k in _inverse(heap_coordinates(w))])


def string_cone(t: LieType, w: ReducedWord, deduplicate: bool = False) -> HRepCone:
    """All string inequalities of a reduced word, one per rigorous path.

    The list is complete but possibly redundant; with ``deduplicate`` the
    forms that agree up to positive scaling are merged (keeping content 1
    and every source path).  The first word of a commutation class fills
    the class entry (see the module docstring); every word reads its cone
    from there by relabelling coordinates.
    """
    entry = _cone_entry(t, w)
    heap = heap_coordinates(w)
    forms = _word_forms(heap, entry["merged" if deduplicate else "raw"])
    return HRepCone(len(heap), forms)


def string_polytope(w: ReducedWord, lam: Weight) -> HRep:
    """String cone plus weight cone of ``w`` at ``lam`` (possibly redundant rows).

    The merged string-cone rows come first, then the weight-cone rows in
    heap-coordinate order (`heap_order`).
    """
    cone = string_cone(w.lie_type, w, deduplicate=True)
    cone_rows = tuple((tuple(-c for c in f.coeffs), 0) for f in cone.forms)
    return HRep(cone.dim, cone_rows + heap_order(w, lambda_cone(w, lam).rows))


def cold_then_warm(words, check):
    """``check`` each word on an empty class cache, then on another word of
    its class (a hit on the entry the first filled), if it has one."""
    for w in words:
        cones._class_entry.cache_clear()
        check(w)
        others = sorted(commutation_class(w) - {w}, key=str)
        if others:
            check(others[0])
            check(w)  # the filling word itself, warm


def assert_cone_matches_parent(t, w):
    for deduplicate in (False, True):
        got = cones.string_cone(t, w, deduplicate)
        want = string_cone(t, w, deduplicate)
        assert got.dim == want.dim
        assert [f.coeffs for f in got.forms] == [f.coeffs for f in want.forms]
        assert all(type(f.coeffs) is tuple for f in got.forms)
    pruned, count = cones.irredundant_facets(t, w)
    minimal = remove_redundant(want.to_hrep()).rows
    assert [(tuple(-c for c in f.coeffs), 0) for f in pruned.forms] == list(minimal)
    assert count == len(minimal)


@pytest.mark.parametrize("type_text", ["A3", "B3", "C3"])
def test_class_cone_hits_match_the_parent(empty_entries, type_text):
    t = LieType.parse(type_text)
    cold_then_warm(list(enumerate_reduced_words(t)), lambda w: assert_cone_matches_parent(t, w))


def assert_polytope_matches_parent(w, lam):
    got = polytopes.string_polytope(w, lam)
    want = string_polytope(w, lam)
    assert (got.dim, got.rows) == (want.dim, want.rows)
    assert remove_redundant(got).rows == remove_redundant(want).rows


@pytest.mark.parametrize(
    "type_text,coeffs",
    [("C3", (1, 1, 1)), ("C3", (2, 1, 1)), ("C3", (1, 2, 3)), ("B3", (1, 1, 1))],
)
def test_class_polytope_hits_match_the_parent(empty_entries, type_text, coeffs):
    lam = Weight(LieType.parse(type_text), coeffs)
    words = list(enumerate_reduced_words(lam.lie_type))
    cold_then_warm(words, lambda w: assert_polytope_matches_parent(w, lam))


@pytest.fixture
def counted(monkeypatch):
    """Calls of the functions a class hit must not run, by name."""
    calls = []

    def wrap(module, name):
        inner = getattr(module, name)

        def counting(*args, **kwargs):
            calls.append(name)
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    for module, name in [
        (cones, "_forms"),
        (cones, "string_cone"),
        (polytopes, "lambda_cone"),
        (polytopes, "cartan_pairing"),
        (weyl, "cartan_pairing"),
    ]:
        wrap(module, name)
    return calls


def test_a_class_hit_runs_no_paths_and_no_weight_cone(empty_entries, counted):
    c3 = LieType("C", 3)
    rho = Weight.rho(c3)
    first = ReducedWord.parse("C3", "1,3,2,1,3,2,1,3,2")
    moved = ReducedWord.parse("C3", "3,1,2,1,3,2,1,3,2")
    assert moved in commutation_class(first)
    cones.irredundant_facets(c3, first)
    remove_redundant(polytopes.string_polytope(first, rho))
    assert {"_forms", "lambda_cone", "cartan_pairing"} <= set(counted)
    counted.clear()
    cones.irredundant_facets(c3, moved)
    remove_redundant(polytopes.string_polytope(moved, rho))
    assert counted == []
    # a non-dominant or wrong-type weight raises on a warm class as it did cold
    with pytest.raises(ValueError, match="weight cone needs a dominant weight"):
        polytopes.string_polytope(moved, Weight(c3, (1, -1, 1)))
    for lam in (Weight.rho(LieType("B", 3)), Weight.rho(LieType("C", 2))):
        with pytest.raises(ValueError, match="weight and word have different Lie types"):
            polytopes.string_polytope(moved, lam)
    assert empty_entries.cache_info().currsize == 1  # one entry for the cone and the polytope


@pytest.mark.parametrize("coeffs", [(1, 1, 1), (1, 0, 1)])
def test_class_rows_are_stored_as_an_hrep_stores_them(empty_entries, coeffs):
    """A fill and a hit build their `HRep` with no row normalized, and so
    does `remove_redundant`: every row is already what a fresh `HRep`
    stores."""
    lam = Weight(LieType("C", 3), coeffs)

    def check(w):
        h = polytopes.string_polytope(w, lam)
        for g in (h, remove_redundant(h)):
            assert HRep(g.dim, g.rows).rows == g.rows

    cold_then_warm(list(enumerate_reduced_words(lam.lie_type)), check)


def test_a_warm_cone_class_hit_builds_no_hrep(empty_entries, monkeypatch):
    """The first word of a class builds one `HRep`, which writes the facet
    indices into the entry; a second word reads them with no `HRep`."""
    c3 = LieType("C", 3)
    first = ReducedWord.parse("C3", "1,3,2,1,3,2,1,3,2")
    moved = ReducedWord.parse("C3", "3,1,2,1,3,2,1,3,2")
    built = []
    init, canonical = HRep.__init__, HRep._canonical
    monkeypatch.setattr(HRep, "__init__", lambda h, dim, rows: built.append("__init__") or init(h, dim, rows))
    monkeypatch.setattr(
        HRep,
        "_canonical",
        classmethod(lambda cls, dim, rows, kept: built.append("_canonical") or canonical(dim, rows, kept)),
    )
    cones.irredundant_facets(c3, first)
    assert "_canonical" in built
    built.clear()
    pruned, count = cones.irredundant_facets(c3, moved)
    assert built == [] and count == len(pruned.forms) > 0


def test_a_warm_class_hit_normalizes_no_row(empty_entries, monkeypatch):
    rho = Weight.rho(LieType("C", 3))
    first = ReducedWord.parse("C3", "1,3,2,1,3,2,1,3,2")
    moved = ReducedWord.parse("C3", "3,1,2,1,3,2,1,3,2")
    remove_redundant(polytopes.string_polytope(first, rho))
    normalized, normalize = [], polyhedra._normalize_row
    monkeypatch.setattr(polyhedra, "_normalize_row", lambda c, b: normalized.append(c) or normalize(c, b))
    h = polytopes.string_polytope(moved, rho)
    assert 0 < len(remove_redundant(h).rows) < len(h.rows)
    assert normalized == []


def direct_polytope(w: ReducedWord, lam: Weight) -> HRep:
    """The earlier direct branch of `string_polytope`, which a word alone in
    its class or a non-regular weight took: the library's string cone and
    weight cone, with no class entry."""
    cone = cones.string_cone(w.lie_type, w, deduplicate=True)
    cone_rows = tuple((tuple(-c for c in f.coeffs), 0) for f in cone.forms)
    return HRep(cone.dim, cone_rows + heap_order(w, lambda_cone(w, lam).rows))


@pytest.mark.parametrize(
    "type_text,coeffs",
    [("C2", (1, 1)), ("C2", (1, 0)), ("C2", (0, 0)), ("C3", (1, 0, 2)), ("C3", (0, 1, 0))],
)
def test_singleton_words_and_non_regular_weights_match_the_direct_branch(
    empty_entries, type_text, coeffs
):
    lam = Weight(LieType.parse(type_text), coeffs)
    words = sorted(enumerate_reduced_words(lam.lie_type), key=str)[:6]
    if type_text == "C2":
        assert ReducedWord.parse("C2", "1,2,1,2") in words
        assert all(commutation_class(w) == {w} for w in words)

    def check(w):
        got = polytopes.string_polytope(w, lam)
        want = direct_polytope(w, lam)
        assert (got.dim, got.rows) == (want.dim, want.rows)
        assert remove_redundant(got).rows == remove_redundant(want).rows

    cold_then_warm(words, check)


@pytest.mark.parametrize("type_text", ["B3", "C3"])
def test_one_class_entry_serves_every_weight(empty_entries, counted, type_text):
    """Each class filled at rho reads its polytopes at other weights, regular
    or not, through a second word of the class: rows and minimal rows equal
    `direct_polytope`'s, each class holds one entry, and the weight cone is
    built once per class, not once per class and weight."""
    t = LieType.parse(type_text)
    words = class_words(t)
    for w in words:
        cones.irredundant_facets(t, w)
        remove_redundant(polytopes.string_polytope(w, Weight.rho(t)))
    got = {}
    for w in words:
        other = min(commutation_class(w) - {w}, key=str, default=w)
        for coeffs in ((2, 1, 3), (1, 0, 2), (0, 1, 0)):
            lam = Weight(t, coeffs)
            h = polytopes.string_polytope(other, lam)
            got[other, lam] = h, remove_redundant(h).rows
    assert counted.count("lambda_cone") == len(words)
    assert empty_entries.cache_info().currsize == empty_entries.cache_info().misses == len(words)
    for (w, lam), (h, minimal) in got.items():
        want = direct_polytope(w, lam)
        assert (h.dim, h.rows) == (want.dim, want.rows), (w, lam)
        assert minimal == remove_redundant(want).rows, (w, lam)
