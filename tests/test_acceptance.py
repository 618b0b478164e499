"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every criterion but 4 is computed, with its expected values, by one function
of `stringcones.verify`, the battery behind ``verify-paper``.  Its test times
that function, at ranks 2 and 3 where it takes a rank, and asserts that every
row passes.  A time bound covers the whole function.

Criterion 4 reads the simpliciality classification by commutation class:
the simplicial words are exactly the words in the commutation classes of
the nested word and its braid variant.  A commutation move acts on string
coordinates as a plain coordinate swap, so words of one class have the same
cone up to that swap and simpliciality cannot tell them apart.  At rank 3
the braid variant admits one such move (letters 4 and 5, s3 and s1), which
gives the third simplicial word 2,3,2,1,3,2,3,2,1.  Its test states this at
word level on its own, with exact set equality.  The companion test
``test_simplicial_classification_up_to_diagram`` states the same result by
wiring diagram.
"""

import time

from stringcones import verify
from stringcones.cli import run
from stringcones.cones import facet_count, string_cone
from stringcones.weyl import (
    LieType,
    ReducedWord,
    braid_variant_word,
    commutation_class,
    contract,
    enumerate_reduced_words,
    gt_adapted_word,
)

W = ReducedWord.parse


def _line(number, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number}: {status}{'  ' + extra if extra else ''}")


def _assert_criterion(number, criterion, *args, bound=None):
    """Time one criterion of the battery, print its line, assert every row passes."""
    t0 = time.monotonic()
    rows = criterion(*args)
    elapsed = time.monotonic() - t0
    failed = [(name, detail) for name, ok, detail in rows if not ok]
    _line(number, not failed and (bound is None or elapsed < bound),
          f"{elapsed:.1f}s, {len(rows)} rows")
    assert failed == []
    assert bound is None or elapsed < bound


def test_criterion_01_type_a_worked_examples():
    def through_the_cli():
        got = {
            word: {tuple(c) for c in run(["cone", "A", word]).payload["constraints"]}
            for word in verify.A3_WORKED_CONES
        }
        return verify.type_a_worked_examples() + [
            ("cone payloads are the worked cones", got == verify.A3_WORKED_CONES, str(got))
        ]

    _assert_criterion(1, through_the_cli, bound=1.0)


def test_criterion_02_path_count_equals_facet_count():
    _assert_criterion(2, verify.path_count_equals_facet_count, bound=300)


def test_criterion_03_functional_table_and_rank2_facets():
    _assert_criterion(3, verify.form_table_and_rank2_facets)


def test_criterion_04_simpliciality_classification_as_stated():
    t0 = time.monotonic()
    results = {}
    for n in (2, 3):
        t = LieType("C", n)
        results[n] = [
            str(w) for w in enumerate_reduced_words(t) if facet_count(t, w) == n * n
        ]
    monotone = all(
        facet_count(LieType("C", 3), w)
        >= facet_count(LieType("C", 2), contract(w)) + 5
        for w in enumerate_reduced_words(LieType("C", 3))
    )
    elapsed = time.monotonic() - t0
    # The named words together with every word reached from them by
    # commutation moves, found from their letters alone.
    expected = {
        n: sorted(
            str(v)
            for w in (gt_adapted_word(n), braid_variant_word(n))
            for v in commutation_class(w)
        )
        for n in (2, 3)
    }
    # Swapping letters 4 and 5 (s3, s1) of the braid variant swaps string
    # coordinates a4 and a5: its twin's cone is the braid variant's cone
    # with those two coordinates exchanged.
    twin = W("C3", "2,3,2,1,3,2,3,2,1")
    swap45 = lambda v: v[:3] + (v[4], v[3]) + v[5:]
    twin_forms = sorted(swap45(f.coeffs) for f in string_cone(LieType("C", 3), twin).forms)
    braid_forms = sorted(
        f.coeffs for f in string_cone(LieType("C", 3), braid_variant_word(3)).forms
    )
    literal_ok = all(sorted(results[n]) == expected[n] for n in (2, 3))
    _line(4, literal_ok and monotone and elapsed < 1800 and twin_forms == braid_forms,
          f"{elapsed:.1f}s; simplicial at rank 3: {sorted(results[3])}")
    assert monotone
    assert elapsed < 1800
    assert sorted(results[2]) == expected[2]
    assert twin_forms == braid_forms
    # Rank 3: the nested word, which admits no commutation move, and the
    # braid variant with its commutation twin.
    assert expected[3] == ["2,3,2,1,3,2,3,2,1", "2,3,2,3,1,2,3,2,1", "3,2,3,2,1,2,3,2,1"]
    assert sorted(results[3]) == expected[3]


def test_simplicial_classification_up_to_diagram():
    _assert_criterion("4 by diagram", verify.simplicial_classification_up_to_diagram, 3)


def test_criterion_05_polytope_facet_identity():
    _assert_criterion(5, verify.polytope_facet_identity, 3)


def test_criterion_06_f_vectors():
    _assert_criterion(6, verify.f_vectors, bound=600)


def test_criterion_07_half_integral_vertex():
    _assert_criterion(7, verify.half_integral_vertex, 3)


def test_criterion_08_gt_equivalence_classification():
    _assert_criterion(8, verify.gt_equivalence, 3)


def test_criterion_09_folding_suite():
    _assert_criterion(9, verify.folding_suite, 3)


def test_criterion_10_enumerator_oracle():
    _assert_criterion(10, verify.enumerator_oracle)
