import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stringcones import weyl
from stringcones.weyl import (
    EnumerationCapExceeded,
    LieType,
    ReducedWord,
    Weight,
    braid_variant_word,
    cartan_pairing,
    class_words,
    commutation_class,
    contract,
    count_reduced_words,
    enumerate_reduced_words,
    foata_normal_form,
    gt_adapted_word,
    heap_coordinates,
    is_reduced,
    lift,
    longest_length,
    positive_coroots,
    weyl_dimension,
)


@pytest.mark.parametrize(
    "type_text,want",
    [("A3", 6), ("C2", 4), ("A1", 1), ("B3", 9), ("C3", 9), ("A5", 15)],
)
def test_longest_length(type_text, want):
    assert longest_length(LieType.parse(type_text)) == want


def test_lie_type_validation():
    with pytest.raises(ValueError):
        LieType("D", 4)
    with pytest.raises(ValueError):
        LieType("B", 1)
    assert str(LieType.parse(" c3 ")) == "C3"


@pytest.mark.parametrize(
    "type_text,letters,want",
    [
        ("A3", (1, 2, 1, 3, 2, 1), True),
        ("C2", (1, 1, 2, 2), False),
        ("C3", (2, 3, 2, 3, 1, 2, 3, 2, 1), True),
        ("A3", (1, 2, 1), False),
        ("C2", (2, 1, 2, 2), False),
    ],
)
def test_is_reduced(type_text, letters, want):
    assert is_reduced(LieType.parse(type_text), letters) is want


def test_is_reduced_rejects_bad_letters():
    with pytest.raises(ValueError):
        is_reduced(LieType("C", 2), (1, 3, 1, 2))


def test_reduced_word_constructor_validates():
    with pytest.raises(ValueError):
        ReducedWord(LieType("C", 2), (1, 1, 2, 2))
    w = ReducedWord.parse("C2", "2,1,2,1")
    assert str(w) == "2,1,2,1" and len(w) == 4


def test_a_bare_family_takes_the_rank_of_the_largest_letter():
    assert ReducedWord.parse("c", " 2, 1,2,1") == ReducedWord.parse("C2", "2,1,2,1")
    assert ReducedWord.parse("A", "1,2,1,3,2,1").lie_type == LieType("A", 3)


def test_enumerate_small_ranks():
    assert [str(w) for w in enumerate_reduced_words(LieType("C", 2))] == ["1,2,1,2", "2,1,2,1"]
    assert [str(w) for w in enumerate_reduced_words(LieType("A", 2))] == ["1,2,1", "2,1,2"]


def test_enumerate_rank3_against_brute_force():
    t = LieType("C", 3)
    words = [w.letters for w in enumerate_reduced_words(t)]
    brute = [s for s in itertools.product((1, 2, 3), repeat=9) if is_reduced(t, s)]
    assert words == sorted(brute)
    assert len(words) == 42
    assert gt_adapted_word(3).letters in words
    assert braid_variant_word(3).letters in words
    # reversing a word for the longest element gives another one
    assert all(tuple(reversed(w)) in set(words) for w in words)


def test_enumeration_cap():
    with pytest.raises(EnumerationCapExceeded):
        count_reduced_words(LieType("C", 3), cap=10)


def test_enumeration_over_the_cap_raises_on_the_call(monkeypatch):
    def refuse(*args):
        raise AssertionError("the walk took a step although the count is over the cap")

    monkeypatch.setattr(weyl, "_is_ascent", refuse)
    with pytest.raises(EnumerationCapExceeded, match="more than the cap 41"):
        enumerate_reduced_words(LieType("C", 3), cap=41)  # never iterated


@pytest.mark.parametrize("type_text", ["A4", "B3", "C3"])
def test_walked_words_equal_validated_words(type_text):
    t = LieType.parse(type_text)
    for w in enumerate_reduced_words(t):
        checked = ReducedWord(t, w.letters)
        assert w == checked and hash(w) == hash(checked) and type(w.letters) is tuple


@pytest.mark.parametrize(
    "t,want",
    [(LieType("A", r), c) for r, c in zip((1, 2, 3, 4), (1, 2, 16, 768))]
    + [(LieType(f, n), c) for f in "BC" for n, c in zip((2, 3, 4), (2, 42, 24024))],
)
def test_count_reduced_words_closed_form_against_enumeration(t, want):
    assert count_reduced_words(t) == want
    assert sum(1 for _ in enumerate_reduced_words(t)) == want


def test_count_reduced_words_refuses_without_enumerating():
    with pytest.raises(EnumerationCapExceeded):
        count_reduced_words(LieType("C", 9))
    # square shape n×n: (n²)! · Π_{i<n} i! / (n+i)!
    num, den = math.factorial(81), 1
    for i in range(9):
        num, den = num * math.factorial(i), den * math.factorial(9 + i)
    want = num // den
    assert count_reduced_words(LieType("C", 9), cap=want) == want


def test_lift_letter_n_stays_single():
    lifted = lift(ReducedWord.parse("C2", "2,1,2,1"))
    assert lifted.letters[0] == 2  # the wall letter expands to itself


def test_contract_examples():
    assert str(contract(ReducedWord.parse("C3", "1,3,2,1,3,2,1,3,2"))) == "2,1,2,1"
    assert contract(gt_adapted_word(3)).letters == gt_adapted_word(2).letters
    assert contract(gt_adapted_word(4)).letters == gt_adapted_word(3).letters
    with pytest.raises(ValueError):
        contract(ReducedWord.parse("C2", "2,1,2,1"))


def contract_on_the_lifted_diagram(w: ReducedWord) -> ReducedWord:
    """The contraction read off the lifted wiring diagram: drop wires 1 and
    2n, reread the surviving crossings' columns as a type-A word on 2n - 2
    wires, and collapse each pair (i, 2n - 2 - i) back to the letter i."""
    n, m = w.rank, 2 * w.rank
    arr = list(range(1, m + 1))  # wires left to right
    columns = []
    for c in lift(w).letters:
        a, b = arr[c - 1], arr[c]
        if a not in (1, m) and b not in (1, m):
            columns.append(sum(1 for x in arr[: c - 1] if x not in (1, m)) + 1)
        arr[c - 1], arr[c] = b, a
    letters = []
    while columns:
        x = columns.pop(0)
        letters.append(x)
        if x != n - 1:
            assert columns.pop(0) == 2 * (n - 1) - x
    return ReducedWord(LieType(w.lie_type.family, n - 1), tuple(letters))


@pytest.mark.parametrize("family", ["B", "C"])
def test_contract_matches_the_lifted_diagram(family):
    words = [*enumerate_reduced_words(LieType(family, 3)), *class_words(LieType(family, 4))]
    assert len(words) == 42 + 330
    for w in words:
        assert contract(w) == contract_on_the_lifted_diagram(w), w


@pytest.mark.parametrize("type_text, word, message", [
    ("B2", "2,1,2,1", "contract needs rank at least 3"),
    ("C2", "1,2,1,2", "contract needs rank at least 3"),
    ("A3", "1,2,1,3,2,1", "contract applies to words of type B or C"),
    ("A5", "1,2,1,3,2,1,4,3,2,1,5,4,3,2,1", "contract applies to words of type B or C"),
])
def test_contract_refuses_low_rank_and_type_a(type_text, word, message):
    with pytest.raises(ValueError, match=message):
        contract(ReducedWord.parse(type_text, word))


def test_contract_lift_consistency():
    # contracting then lifting agrees with the double wire removal on the lift
    w = ReducedWord.parse("C3", "1,3,2,1,3,2,1,3,2")
    assert str(lift(contract(w))) == "2,1,3,2,1,3"


def test_cartan_pairing():
    a3, b3, c3 = LieType("A", 3), LieType("B", 3), LieType("C", 3)
    assert cartan_pairing(a3, 1, 2) == -1
    assert cartan_pairing(c3, 3, 2) == -2
    assert cartan_pairing(c3, 2, 3) == -1
    assert cartan_pairing(b3, 3, 2) == -1
    assert cartan_pairing(b3, 2, 3) == -2
    for t in (a3, b3, c3):
        for i in range(1, 4):
            assert cartan_pairing(t, i, i) == 2
            for j in range(1, 4):
                if i != j:
                    assert cartan_pairing(t, i, j) <= 0
                assert cartan_pairing(b3, i, j) == cartan_pairing(c3, j, i)
    with pytest.raises(ValueError):
        cartan_pairing(a3, 0, 1)


def test_weights():
    t = LieType("C", 3)
    rho = Weight.rho(t)
    assert rho.is_dominant and rho.is_regular
    assert Weight.parse(t, "rho") == rho
    assert Weight.parse(t, "0") == Weight.zero(t)
    w = Weight.parse(t, "1,0,2")
    assert w.is_dominant and not w.is_regular
    assert not Weight(t, (-1, 0, 0)).is_dominant
    with pytest.raises(ValueError):
        Weight(t, (1, 2))


def test_named_words_are_reduced():
    for n in (2, 3, 4):
        assert gt_adapted_word(n).lie_type == LieType("C", n)
        assert braid_variant_word(n).lie_type == LieType("C", n)
    assert str(gt_adapted_word(3)) == "3,2,3,2,1,2,3,2,1"
    assert str(braid_variant_word(3)) == "2,3,2,3,1,2,3,2,1"


@pytest.mark.parametrize("type_text,words,classes", [("A3", 16, 8), ("C2", 2, 2), ("C3", 42, 14)])
def test_commutation_classes_partition_the_words(type_text, words, classes):
    t = LieType.parse(type_text)
    all_words = set(enumerate_reduced_words(t))
    found = {commutation_class(w) for w in all_words}
    assert len(all_words) == words
    assert len(found) == classes
    assert set().union(*found) == all_words
    for cls in found:
        for w in cls:
            assert commutation_class(w) == cls


@pytest.mark.parametrize(
    "type_text,coeffs,dim",
    [
        ("A2", (1, 0), 3), ("A3", (1, 1, 1), 64), ("C2", (0, 0), 1),
        ("C2", (2, 1), 35), ("B2", (2, 1), 40), ("B2", (1, 2), 35),
        ("C3", (1, 1, 1), 512), ("B3", (1, 1, 1), 512), ("C3", (2, 1, 1), 1386),
        ("C3", (1, 0, 2), 378), ("C3", (1, 0, 0), 6), ("B3", (1, 0, 0), 7),
    ],
)
def test_weyl_dimension(type_text, coeffs, dim):
    assert weyl_dimension(Weight(LieType.parse(type_text), coeffs)) == dim


def test_heap_coordinates_follow_letter_occurrences():
    w = ReducedWord.parse("C3", "1,3,2,1,3,2,1,3,2")
    assert heap_coordinates(w) == (0, 6, 3, 1, 7, 4, 2, 8, 5)
    moved = ReducedWord.parse("C3", "3,1,2,1,3,2,1,3,2")
    assert heap_coordinates(moved) == (6, 0, 3, 1, 7, 4, 2, 8, 5)
    for v in commutation_class(gt_adapted_word(3)) | commutation_class(braid_variant_word(3)):
        assert sorted(heap_coordinates(v)) == list(range(9))


@pytest.mark.parametrize("type_text,classes", [("A4", 62), ("B3", 14), ("C3", 14)])
def test_foata_normal_form_names_the_commutation_class(type_text, classes):
    words = list(enumerate_reduced_words(LieType.parse(type_text)))
    forms = {w: foata_normal_form(w) for w in words}
    assert len(set(forms.values())) == classes
    for w in words:
        cls = commutation_class(w)
        assert {v for v in words if forms[v] == forms[w]} == cls
        # the normal form is a word of the class, so a fixed point
        normal = ReducedWord(w.lie_type, forms[w])
        assert normal in cls and foata_normal_form(normal) == forms[w]


@pytest.mark.parametrize("type_text", ["A3", "B2", "B3", "C2", "C3"])
def test_class_words_match_the_commutation_class_search(type_text):
    """The first word of each class, found by searching each new word's
    class as `commutation_class` does."""
    words, seen = [], set()
    for w in enumerate_reduced_words(LieType.parse(type_text)):
        if w not in seen:
            words.append(w)
            seen |= commutation_class(w)
    assert class_words(LieType.parse(type_text)) == words


def test_foata_normal_form_worked():
    # levels 1,1 | 2 | 3,3 | 4 | 5,5 | 6 for 1,3,2,1,3,2,1,3,2
    w = ReducedWord.parse("C3", "1,3,2,1,3,2,1,3,2")
    assert foata_normal_form(w) == (1, 3, 2, 1, 3, 2, 1, 3, 2)
    assert foata_normal_form(ReducedWord.parse("C3", "3,1,2,3,1,2,3,1,2")) == w.letters
    assert foata_normal_form(ReducedWord.parse("A3", "3,1,2,3,1,2")) == (1, 3, 2, 1, 3, 2)


@given(
    st.sampled_from(["4,3,2,1,4,3,4,3,2,3,1,2,4,3,2,1", "1,2,3,4,1,2,3,4,1,2,3,4,1,2,3,4",
                     "3,2,1,2,4,3,4,2,3,2,4,3,1,2,3,4", "2,3,4,1,2,3,4,2,1,2,3,2,1,4,3,4"]),
    st.lists(st.integers(0, 10**6), max_size=40),
)
@settings(max_examples=60, deadline=None)
def test_foata_normal_form_is_unchanged_by_commuting_swaps(word, picks):
    """A walk of commuting swaps on a C4 word keeps the normal form at every step."""
    w = ReducedWord.parse("C4", word)
    want = foata_normal_form(w)
    letters = list(w.letters)
    for pick in picks:
        spots = [j for j in range(len(letters) - 1) if abs(letters[j] - letters[j + 1]) >= 2]
        j = spots[pick % len(spots)]
        letters[j], letters[j + 1] = letters[j + 1], letters[j]
        assert foata_normal_form(ReducedWord(w.lie_type, tuple(letters))) == want


@pytest.mark.parametrize("type_text", ["A1", "A3", "B2", "C2", "B3", "C3", "C4"])
def test_positive_coroots(type_text):
    t = LieType.parse(type_text)
    coroots = positive_coroots(t)
    assert len(coroots) == longest_length(t)
    assert all(min(b) >= 0 and sum(b) >= 1 for b in coroots)
    # the Cartan matrices of B2 and C2 are transposes, so their coroots differ
    if type_text == "C2":
        assert coroots == ((0, 1), (1, 0), (1, 1), (1, 2))
        assert positive_coroots(LieType("B", 2)) == ((0, 1), (1, 0), (1, 1), (2, 1))
