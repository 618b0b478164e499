from collections import Counter
from fractions import Fraction as F
from math import factorial, lcm, prod

import pytest

from stringcones import cones, polyhedra, polytopes, verify
from stringcones._linalg import rank_int
from stringcones.polyhedra import (
    HRep,
    VRep,
    f_vector,
    integrality,
    lattice_points,
    normalized_volume,
    remove_redundant,
    search_unimodular_equivalence,
    to_vrep,
)
from stringcones.cones import irredundant_facets
from stringcones.polytopes import (
    gt_coordinate_names,
    gt_polytope_C,
    lambda_cone,
    string_polytope,
    verify_gt_theorem,
)
from stringcones.weyl import (
    LieType,
    ReducedWord,
    Weight,
    braid_variant_word,
    commutation_class,
    enumerate_reduced_words,
    foata_normal_form,
    gt_adapted_word,
    heap_coordinates,
    positive_coroots,
    weyl_dimension,
)

W = ReducedWord.parse


def test_lambda_cone_worked_example():
    w = W("A3", "1,3,2,1,3,2")
    lam = Weight(LieType("A", 3), (5, 7, 11))
    rows = lambda_cone(w, lam).rows
    assert rows[0] == ((1, 0, -1, 2, 0, -1), F(5))
    assert rows[1] == ((0, 1, -1, 0, 2, -1), F(11))
    assert rows[2] == ((0, 0, 1, -1, -1, 2), F(7))
    assert rows[3] == ((0, 0, 0, 1, 0, -1), F(5))
    assert rows[4] == ((0, 0, 0, 0, 1, -1), F(11))
    assert rows[5] == ((0, 0, 0, 0, 0, 1), F(7))


def test_lambda_cone_braid_variant_rows():
    # the first rows of the displayed weight cone of the rank-3 braid variant
    w = braid_variant_word(3)
    rho = Weight.rho(w.lie_type)
    rows = lambda_cone(w, rho).rows
    # a3 <= 1 + 2 a4 - <alpha_{i_k}, coroot_2> a_k terms and a4 <= 1 - ...
    assert rows[2][0][:4] == (0, 0, 1, -2)
    assert rows[3][0][:4] == (0, 0, 0, 1)
    assert all(b == 1 for _, b in rows)


def test_lambda_cone_validation():
    w = W("C2", "2,1,2,1")
    with pytest.raises(ValueError):
        lambda_cone(w, Weight(LieType("C", 2), (-1, 0)))
    with pytest.raises(ValueError):
        lambda_cone(w, Weight.rho(LieType("C", 3)))


def test_zero_weight_polytope_is_origin():
    w = W("C2", "2,1,2,1")
    h = string_polytope(w, Weight.zero(w.lie_type))
    assert to_vrep(h) == VRep(((F(0),) * 4,), ())


def test_gt_coordinates():
    assert gt_coordinate_names(2) == ["a1_1", "b2_1", "a1_2", "a2_1"]
    names3 = gt_coordinate_names(3)
    assert names3 == [
        "a1_1", "b2_1", "a1_2", "a2_1", "b3_1", "b2_2", "a1_3", "a2_2", "a3_1",
    ]
    assert len(gt_coordinate_names(4)) == 16


@pytest.mark.parametrize("n", [2, 3, 4])
def test_gt_index_positions_match_the_coordinate_names(n):
    index = polytopes._gt_index(n)
    assert sorted(index.values()) == list(range(n * n))
    names = gt_coordinate_names(n)
    assert all(names[pos] == f"{kind}{i}_{k}" for (kind, i, k), pos in index.items())


def test_gt_polytope_zero_weight():
    gt = gt_polytope_C(Weight.zero(LieType("C", 2)), 2)
    assert to_vrep(gt) == VRep(((F(0),) * 4,), ())


def test_gt_polytope_non_regular_weight_is_valid():
    t = LieType("C", 3)
    gt = gt_polytope_C(Weight(t, (1, 0, 1)), 3)
    vr = to_vrep(gt)
    assert vr.rays == ()
    assert len(vr.vertices) > 1
    assert all(gt.contains(v) for v in vr.vertices)


def test_gt_polytope_integral_and_sized():
    t = LieType("C", 2)
    gt = gt_polytope_C(Weight.rho(t), 2)
    assert integrality(gt)[0]
    assert lattice_points(gt) == 16
    d = string_polytope(gt_adapted_word(2), Weight.rho(t))
    assert lattice_points(d) == 16


def test_gt_string_polytope_shared_invariants():
    t = LieType("C", 3)
    rho = Weight.rho(t)
    d = string_polytope(gt_adapted_word(3), rho)
    gt = gt_polytope_C(rho, 3)
    assert f_vector(d) == f_vector(gt)
    assert lattice_points(d) == lattice_points(gt) == 512
    assert normalized_volume(d) == normalized_volume(gt)
    assert weyl_dimension(rho) == 512


@pytest.mark.parametrize("coeffs,points", [((1, 1), 16), ((2, 1), 35), ((1, 2), 40), ((3, 2), 140)])
def test_rank2_lattice_points_equal_the_weyl_dimension(coeffs, points):
    # the crystal basis of V(lam) has dim V(lam) elements, one per lattice point
    lam = Weight(LieType("C", 2), coeffs)
    assert weyl_dimension(lam) == points
    assert lattice_points(gt_polytope_C(lam, 2)) == points
    for family in "BC":
        lam = Weight(LieType(family, 2), coeffs)
        for w in enumerate_reduced_words(lam.lie_type):
            assert lattice_points(string_polytope(w, lam)) == weyl_dimension(lam)


def test_rank3_lattice_points_equal_the_weyl_dimension(monkeypatch):
    """One word per commutation class of B3 and C3 (14 each) at rho, (2,1,1)
    and the irregular (1,0,2): 84 string polytopes, each with dim V(lam)
    lattice points.  The rows read every polytope they count."""
    counted = Counter()
    count = polyhedra.lattice_points

    def counting(h, *args):
        counted[h.dim] += 1
        return count(h, *args)

    monkeypatch.setattr(polyhedra, "lattice_points", counting)
    rows = verify.crystal_counts(3)
    assert [(name.split()[0], ok) for name, ok, _ in rows] == [
        ("B2", True), ("C2", True), ("B3", True), ("C3", True)
    ]
    assert counted == {4: 2 * 2 * 4, 9: 2 * 14 * 3}


def test_verify_gt_theorem_rank2():
    report = verify_gt_theorem(2)
    assert report.ok()
    assert report.gt == gt_polytope_C(Weight.rho(LieType("C", 2)), 2)
    assert [str(w) for w, v in report.comparisons if v.status == "equivalent"] == ["2,1,2,1"]
    refuted = {str(w): v.witness for w, v in report.comparisons if v.status == "inequivalent"}
    assert "1,2,1,2" in refuted


@pytest.mark.parametrize("n, stages", [
    (2, {("inequivalent", "integrality"): 1, ("equivalent", "search"): 1}),
    (3, {("inequivalent", "facet count"): 39, ("inequivalent", "vertices"): 2,
         ("equivalent", "search"): 1}),
])
def test_gt_report_holds_one_search_verdict_per_word(n, stages):
    """Every word's verdict is the search's `EquivalenceResult`, the facet-count
    pre-filter included, and names the stage that decided it."""
    report = verify_gt_theorem(n)
    assert [w for w, _ in report.comparisons] == list(enumerate_reduced_words(LieType("C", n)))
    assert all(type(v) is polyhedra.EquivalenceResult for _, v in report.comparisons)
    assert Counter((v.status, v.decided_by) for _, v in report.comparisons) == stages


def test_an_unresolved_comparison_is_no_refutation(monkeypatch):
    """A search that runs out of budget decides nothing: the word is
    "unknown", the report is not ok and criterion 8 fails a row."""
    search = polyhedra.search_unimodular_equivalence
    other = W("C2", "1,2,1,2")
    poly_rows = string_polytope(other, Weight.rho(LieType("C", 2))).rows

    def spent_on_the_other_word(p, q, budget=100_000):
        if p.rows == poly_rows:
            return polyhedra.EquivalenceResult(
                "unknown", witness="search budget exhausted", decided_by="budget"
            )
        return search(p, q, budget=budget)

    monkeypatch.setattr(polytopes, "search_unimodular_equivalence", spent_on_the_other_word)
    report = verify_gt_theorem(2)
    assert {str(w): v.status for w, v in report.comparisons} == {
        "2,1,2,1": "equivalent",
        "1,2,1,2": "unknown",
    }
    assert not report.ok()
    assert not all(ok for _, ok, _ in verify.gt_equivalence(2))


def test_refuted_counts_are_every_word_but_the_nested_one():
    """Criterion 8 expects every word but the nested one to be refuted, which
    is still 1 word at rank 2 and 41 at rank 3."""
    rows = {name: (ok, detail) for name, ok, detail in verify.gt_equivalence(3)}
    for m, refuted in ((2, 1), (3, 41)):
        ok, detail = rows[f"rank-{m} other words refuted, each with a witness"]
        assert ok and detail.endswith(f"want ({refuted}, True)")


def test_polytope_checks_build_the_pattern_polytope_once(monkeypatch):
    """The rank-2 checks read the pattern polytope from the theorem's report,
    so its V-rep is computed once."""
    calls = Counter()
    worker = polyhedra._vrep

    def counted(h):
        calls[h.rows] += 1
        return worker(h)

    monkeypatch.setattr(polyhedra, "_vrep", counted)
    assert all(ok for _, ok, _ in verify._polytope_checks(2))
    assert calls[gt_polytope_C(Weight.rho(LieType("C", 2)), 2).rows] == 1


def test_string_polytope_full_dimensional():
    for n in (2, 3):
        t = LieType("C", n)
        rho = Weight.rho(t)
        words = list(enumerate_reduced_words(t))
        sample = words if n == 2 else [words[0], gt_adapted_word(3), braid_variant_word(3)]
        for w in sample:
            h = string_polytope(w, rho)
            vr = to_vrep(h)
            assert vr.rays == ()
            verts = vr.vertices
            den = lcm(*(x.denominator for v in verts for x in v))
            diffs = [[int((x - y) * den) for x, y in zip(v, verts[0])] for v in verts[1:]]
            assert rank_int(diffs) == n * n


def closed_form_volume(lam):
    """String polytopes are Newton-Okounkov bodies: at a regular weight the
    normalized volume is ``N! prod <lam, b> / <rho, b>`` over the ``N``
    positive coroots ``b``."""
    coroots = positive_coroots(lam.lie_type)
    pairings = [sum(c * x for c, x in zip(b, lam.coeffs)) for b in coroots]
    return factorial(len(coroots)) * prod(pairings) // prod(sum(b) for b in coroots)


@pytest.mark.parametrize("coeffs", [(1, 1), (2, 1), (1, 2), (3, 2)])
def test_rank2_normalized_volume_equals_the_closed_form(coeffs):
    volumes = {}
    for family in "BC":
        lam = Weight(LieType(family, 2), coeffs)
        want = closed_form_volume(lam)
        for w in enumerate_reduced_words(lam.lie_type):
            assert normalized_volume(string_polytope(w, lam)) == want
        volumes[family] = want
    assert volumes["C"] == {(1, 1): 24, (2, 1): 96, (1, 2): 120, (3, 2): 840}[coeffs]
    assert (volumes["B"] == volumes["C"]) == (coeffs == (1, 1))  # (2, 1) tells B from C


@pytest.mark.parametrize("word", [gt_adapted_word(3), braid_variant_word(3)], ids=str)
def test_rank3_normalized_volume_equals_the_closed_form(word):
    """The nested C3 word and its braid variant at rho: 9! times a product of ones."""
    rho = Weight.rho(LieType("C", 3))
    assert closed_form_volume(rho) == factorial(9)
    assert normalized_volume(string_polytope(word, rho)) == factorial(9)


def fresh(h):
    """The same rows in a new `HRep`, which shares nothing: the oracle."""
    return HRep(h.dim, h.rows)


@pytest.mark.parametrize(
    "type_text,coeffs",
    [
        ("B2", (1, 1)), ("B2", (2, 1)), ("C2", (1, 1)), ("C2", (2, 1)),
        ("B3", (1, 1, 1)), ("B3", (2, 1, 1)), ("C3", (1, 1, 1)), ("C3", (2, 1, 1)),
    ],
)
def test_shared_minimal_rows_match_a_fresh_lp(empty_entries, type_text, coeffs):
    lam = Weight(LieType.parse(type_text), coeffs)
    for w in enumerate_reduced_words(lam.lie_type):
        h = string_polytope(w, lam)
        assert remove_redundant(h).rows == remove_redundant(fresh(h)).rows


@pytest.mark.parametrize("word", ["2,3,2,1,3,2,3,2,1", "1,2,3,2,1,3,2,3,2", "3,2,1,3,2,1,3,2,1"])
def test_shared_f_vector_matches_a_fresh_face_lattice(empty_entries, word):
    # the first word is the braid variant's class, whose vertex count refutes it
    rho = Weight.rho(LieType("C", 3))
    for w in sorted(commutation_class(W("C3", word)), key=str):
        h = string_polytope(w, rho)
        assert f_vector(h) == f_vector(fresh(h))
    # one entry, for the class's string cone and its polytopes
    assert empty_entries.cache_info().currsize == 1


def test_one_redundancy_lp_per_commutation_class(empty_entries, monkeypatch):
    calls = []
    lp = polyhedra._irredundant_indices

    def counted(rows, dim, **options):
        calls.append(dim)
        return lp(rows, dim, **options)

    monkeypatch.setattr(polyhedra, "_irredundant_indices", counted)
    rho = Weight.rho(LieType("C", 3))
    for w in enumerate_reduced_words(rho.lie_type):
        remove_redundant(string_polytope(w, rho))
    assert len(calls) == 14  # 42 words, 14 classes, two of them words alone


def test_every_class_lists_one_row_sequence_in_heap_coordinates(empty_entries):
    rho = Weight.rho(LieType("C", 3))
    sequences = {}
    for w in enumerate_reduced_words(rho.lie_type):
        heap = heap_coordinates(w)
        at = sorted(range(len(heap)), key=heap.__getitem__)  # the position of each heap coordinate
        rows = tuple((tuple(c[k] for k in at), b) for c, b in string_polytope(w, rho).rows)
        sequences.setdefault(foata_normal_form(w), set()).add(rows)
    assert len(sequences) == 14
    assert all(len(rows) == 1 for rows in sequences.values())


def test_cones_and_polytopes_share_one_class_cache(empty_entries, monkeypatch):
    lps = []
    lp = polyhedra._irredundant_indices

    def counted(rows, dim):
        lps.append(dim)
        return lp(rows, dim)

    monkeypatch.setattr(polyhedra, "_irredundant_indices", counted)
    c3 = LieType("C", 3)
    rho = Weight.rho(c3)
    classes = []
    for w in enumerate_reduced_words(c3):
        if not any(w in cls for cls in classes):
            classes.append(commutation_class(w))
    for cls in classes:
        before = len(lps)
        for w in sorted(cls, key=str):
            irredundant_facets(c3, w)
            remove_redundant(string_polytope(w, rho))
        # one cone LP; the polytope's kept rows come from the lowest-weight certificate
        assert len(lps) == before + 1, cls
    # 14 entries, one per class, words alone in their class too
    assert empty_entries.cache_info().currsize == empty_entries.cache_info().misses == 14
    for cls in classes:
        w = min(cls, key=str)
        entry = cones.class_entry(c3, w)
        assert len(entry["minimal"]) == len(irredundant_facets(c3, w)[0].forms)
        h = string_polytope(w, rho)
        kept = tuple(h.rows[i] for i in entry["polytope_facets"])
        assert remove_redundant(h).rows == kept
        assert any(b > 0 for _, b in kept)
        for key in ("minimal", "polytope_facets"):  # cone and polytope keep the kept rows' indices, in order
            indices = entry[key]
            assert type(indices) is tuple and all(type(i) is int for i in indices)
            assert list(indices) == sorted(set(indices))
    assert empty_entries.cache_info().currsize == 14  # every lookup above was a hit


def test_braid_class_is_refuted_without_a_face_lattice(empty_entries, monkeypatch):
    rho = Weight.rho(LieType("C", 3))
    gt = gt_polytope_C(rho, 3)
    built = Counter()
    for name in ("f_vector", "_faces"):
        def counted(h, _worker=getattr(polyhedra, name), _name=name):
            built[_name] += 1
            return _worker(h)

        monkeypatch.setattr(polyhedra, name, counted)
    for w in sorted(commutation_class(braid_variant_word(3)), key=str):
        verdict = search_unimodular_equivalence(string_polytope(w, rho), gt)
        assert (verdict.status, verdict.witness) == ("inequivalent", "vertices 175 != 176")
        assert verdict.decided_by == "vertices"
    assert built == {}


def test_no_share_off_the_gate(empty_entries):
    # a non-regular weight shares no minimal rows; a word alone in its class
    # (both C2 words) shares them at a regular weight
    c3 = LieType("C", 3)
    weights = (Weight(c3, (1, 0, 2)), Weight.zero(c3))
    cases = [(w, lam) for lam in weights for w in enumerate_reduced_words(c3)]
    for coeffs in ((1, 1), (2, 1)):
        lam = Weight(LieType("C", 2), coeffs)
        cases += [(w, lam) for w in enumerate_reduced_words(lam.lie_type)]
    for w, lam in cases:
        h = string_polytope(w, lam)
        assert remove_redundant(h).rows == remove_redundant(fresh(h)).rows
        if w.rank == 2:
            assert f_vector(h) == f_vector(fresh(h))
        if not lam.is_regular:
            assert "kept" not in h._memo  # no indices given: its own redundancy ran
    # one entry per commutation class, 14 in C3 and 2 in C2, at every weight
    assert empty_entries.cache_info().currsize == 14 + 2
    assert empty_entries.cache_info().maxsize == cones.CLASS_CACHE_SIZE
