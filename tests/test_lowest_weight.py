"""The lowest-weight certificate of a commutation class, and the string
polytope rows it keeps at every regular weight.

`polytopes.lowest_weight_vertex` back-substitutes the weight rows to the
point where all N of them are tight; `polytopes.lowest_weight_certificate`
checks once per class that every merged cone row is ``<= 0`` at each
v(omega_i) and ``< 0`` at v(rho).  When it holds, `string_polytope` keeps
the cone's facets and every weight row with no redundancy LP of its own.
These tests hold those rows against the general routine and its one-LP-per-
row reference, force the certificate to fail, check the vertex against the
lowest weight with no redundancy code, and bound the LP work, also of
criterion 5, which hands the rows to the general routine directly.
"""

from collections import Counter

import pytest

from stringcones import cones, polyhedra, polytopes, verify
from stringcones.polyhedra import remove_redundant
from stringcones.polytopes import lowest_weight_certificate, lowest_weight_vertex, string_polytope
from stringcones.weyl import LieType, Weight, cartan_pairing, class_words, enumerate_reduced_words
from test_polyhedra import parent_irredundant_indices

# the 15 regular C2 weights of the benchmark's gt_equivalence_c2, lambda1 + lambda2 <= 6
C2_BENCHMARK_WEIGHTS = tuple((a, s - a) for s in range(2, 7) for a in range(1, s))

WEIGHTS = {
    "A2": ((1, 1), (2, 1), (1, 3)),
    "A3": ((1, 1, 1), (2, 1, 3), (1, 4, 2)),
    "A4": ((1, 1, 1, 1), (2, 1, 3, 1), (1, 1, 2, 3)),
    "B2": ((1, 1), (2, 1), (1, 3)),
    "B3": ((1, 1, 1), (2, 1, 3), (1, 4, 2)),
    "C2": C2_BENCHMARK_WEIGHTS,
    "C3": ((1, 1, 1), (2, 1, 3), (1, 4, 2)),
}


def kept_rows(w, lam):
    """The polytope of ``w`` at ``lam`` and the indices its class entry keeps."""
    h = string_polytope(w, lam)
    return h, cones.class_entry(w.lie_type, w).get("polytope_facets")


@pytest.mark.parametrize("type_text", sorted(WEIGHTS))
def test_certificate_rows_match_the_general_routine(type_text, empty_entries):
    t = LieType.parse(type_text)
    words = class_words(t)
    for coeffs in WEIGHTS[type_text]:
        lam = Weight(t, coeffs)
        for w in words:
            assert lowest_weight_certificate(w), w
            h, kept = kept_rows(w, lam)
            assert kept is not None, (w, lam)  # set by the certificate, before any redundancy
            assert list(kept) == polyhedra._irredundant_indices(h.rows, h.dim), (w, lam)
            assert list(kept) == parent_irredundant_indices(h.rows, h.dim), (w, lam)
            assert remove_redundant(h).rows == tuple(h.rows[i] for i in kept)


@pytest.mark.parametrize("type_text", ["B4", "C4"])
def test_certificate_rows_match_on_sampled_rank4_classes(type_text, empty_entries):
    t = LieType.parse(type_text)
    for w in class_words(t)[::33]:
        for coeffs in ((1, 1, 1, 1), (2, 1, 3, 1)):
            h, kept = kept_rows(w, Weight(t, coeffs))
            assert list(kept) == polyhedra._irredundant_indices(h.rows, h.dim), (w, coeffs)


def test_a_failed_certificate_takes_the_general_path(empty_entries, monkeypatch):
    c3 = LieType("C", 3)
    lam = Weight(c3, (2, 1, 3))
    words = class_words(c3)
    certified = {w: remove_redundant(string_polytope(w, lam)).rows for w in words}
    empty_entries.cache_clear()
    calls = []
    general = polyhedra._irredundant_indices

    def counted(rows, dim):
        calls.append(dim)
        return general(rows, dim)

    monkeypatch.setattr(polytopes, "lowest_weight_certificate", lambda w: False)
    monkeypatch.setattr(polyhedra, "_irredundant_indices", counted)
    for w in words:
        h, kept = kept_rows(w, lam)
        assert kept is None  # nothing is kept before the polytope's own redundancy runs
        assert remove_redundant(h).rows == certified[w]
    assert len(calls) == len(words)  # one polytope redundancy per class; no cone redundancy


@pytest.mark.parametrize("type_text", ["B2", "C2", "A3", "B3", "C3"])
def test_lowest_weight_vertex_is_the_lowest_weight_string(type_text):
    """Every weight row is tight at the vertex, and sum_k v_k alpha_{i_k} =
    lam - w0 lam, read in fundamental weights through `cartan_pairing`:
    2 lam in types B and C (w0 = -1), lam + lam* in type A (lam* the
    reversed coefficients).  Every entry is >= 0, and > 0 at a regular
    weight."""
    t = LieType.parse(type_text)
    n = t.rank
    weights = [(1,) * n, tuple(range(1, n + 1)), (2,) + (0,) * (n - 1), (0,) * (n - 1) + (3,), (0,) * n]
    for w in enumerate_reduced_words(t):
        for coeffs in weights:
            lam = Weight(t, coeffs)
            v = lowest_weight_vertex(w, lam)
            weight_rows = polytopes.lambda_cone(w, lam)
            assert weight_rows.tight_at(v) == tuple(range(len(v))), (w, coeffs)
            got = [sum(x * cartan_pairing(t, i, j) for x, i in zip(v, w.letters)) for j in range(1, n + 1)]
            dual = coeffs if t.family != "A" else coeffs[::-1]
            assert got == [a + b for a, b in zip(coeffs, dual)], (w, coeffs)
            assert min(v) >= 0 and (min(v) > 0 or 0 in coeffs), (w, coeffs)


@pytest.fixture
def work(monkeypatch):
    """Counts `_farkas` tableaux and `_irredundant_indices` calls."""
    counts = Counter()
    farkas, general = polyhedra._farkas, polyhedra._irredundant_indices

    def counted_farkas(*args):
        counts["_farkas"] += 1
        return farkas(*args)

    def counted_general(rows, dim):
        counts["_irredundant_indices"] += 1
        return general(rows, dim)

    monkeypatch.setattr(polyhedra, "_farkas", counted_farkas)
    monkeypatch.setattr(polyhedra, "_irredundant_indices", counted_general)
    return counts


def test_c3_polytopes_off_rho_take_only_their_cones_tableaux(empty_entries, work):
    """From an empty class cache, the 42 C3 polytopes at (2,1,3), (1,4,2)
    and (3,1,1) take the tableaux of their 14 cones and nothing more; with
    a redundancy of their own they took 61."""
    c3 = LieType("C", 3)
    for w in class_words(c3):
        cones.cone_facets(c3, w)
    cone_work = dict(work)
    assert cone_work["_irredundant_indices"] == 14
    empty_entries.cache_clear()
    work.clear()
    for coeffs in ((2, 1, 3), (1, 4, 2), (3, 1, 1)):
        for w in class_words(c3):
            remove_redundant(string_polytope(w, Weight(c3, coeffs)))
    assert dict(work) == cone_work


def test_c2_benchmark_polytopes_take_no_tableau(empty_entries, work):
    """The 30 C2 polytopes at the 15 weights of gt_equivalence_c2 take no
    tableau, and run only the redundancy of their two cones."""
    c2 = LieType("C", 2)
    for coeffs in C2_BENCHMARK_WEIGHTS:
        for w in enumerate_reduced_words(c2):
            remove_redundant(string_polytope(w, Weight(c2, coeffs)))
    assert work["_farkas"] == 0
    assert work["_irredundant_indices"] == 2


def test_criterion_5_count_at_rho_work_bound(empty_entries, work):
    """Criterion 5 counts the facets of every rank-2 and rank-3 polytope at
    rho on its rows in a new `HRep`, which shares no class entry, so the
    general routine decides them with no certificate.  From an empty class
    cache the battery takes at most 119 tableaux, its cones' included."""
    assert all(ok for _, ok, _ in verify.polytope_facet_identity(3))
    assert work["_farkas"] <= 119
