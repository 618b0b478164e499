import random

import pytest

from stringcones import cones, polyhedra
from stringcones._linalg import primitive
from stringcones.cones import (
    LinForm,
    facet_count,
    fold_maps,
    irredundant_facets,
    path_forms,
    rigorous_paths,
    string_cone,
)
from stringcones.diagram import OrientedDiagram, build_diagram, build_symp_diagram, orient
from stringcones.paths import (
    canonical_paths,
    enumerate_paths,
    is_new,
    is_symmetric,
    mirror,
)
from stringcones.polytopes import string_polytope
from stringcones.weyl import (
    LieType,
    ReducedWord,
    Weight,
    braid_variant_word,
    class_words,
    commutation_class,
    contract,
    enumerate_reduced_words,
    gt_adapted_word,
    heap_coordinates,
    lift,
)

W = ReducedWord.parse


def vec(dim, **kw):
    out = [0] * dim
    for key, val in kw.items():
        out[int(key[1:]) - 1] = val
    return tuple(out)


def test_linform_basics():
    f = LinForm([1, -1, 0])
    assert f.coeffs == (1, -1, 0)
    assert f.pretty() == "a1 - a2"
    assert LinForm((-2, 0, 1)).pretty() == "-2*a1 + a3"
    assert LinForm((0, 0)).pretty() == "0"


def test_type_C_path_forms_halve_only_even_forms(monkeypatch):
    sd = build_symp_diagram(W("C2", "2,1,2,1"))
    wall = next(p for p in enumerate_paths(orient(sd, 2)) if is_symmetric(p))
    assert path_forms("C", [wall])[0].coeffs == (1, 0, 0, 0)
    table = cones._form_table

    def wall_weight_one(*args):  # the wall path then sums to the odd form a1
        t = table(*args)
        return ([None, *((c, 1, lo, s) for c, _, lo, s in t[0][1:])], *t[1:])

    monkeypatch.setattr(cones, "_form_table", wall_weight_one)
    with pytest.raises(ValueError, match="odd coefficients"):
        path_forms("C", [wall])


def test_type_A_path_forms_worked():
    d = build_diagram(W("A3", "1,2,1,3,2,1"))
    paths = [p for k in (1, 2, 3) for p in enumerate_paths(orient(d, k))]
    forms = {f.coeffs for f in path_forms("A", paths)}
    assert vec(6, a2=1, a3=-1) in forms
    assert vec(6, a6=1) in forms
    d2 = build_diagram(W("A3", "1,3,2,1,3,2"))
    k3 = {f.coeffs for f in path_forms("A", enumerate_paths(orient(d2, 3)))}
    assert vec(6, a4=1, a6=-1) in k3


def test_worked_functional_table():
    sd = build_symp_diagram(W("C2", "2,1,2,1"))
    labels = [sd.label_str(a) for a in range(1, sd.length + 1)]
    assert labels == ["t1", "tbar2", "t2", "t3", "tbar4", "t4"]
    paths = enumerate_paths(orient(sd, 2))
    rows = {}
    for p, a, c_whole, c in zip(
        paths, path_forms("A", paths), path_forms("C", paths, halve=False), path_forms("C", paths)
    ):
        rows[p.wires_by_name()] = (a.pretty(), c_whole.pretty(), c.pretty())
    # the type-A column in lifted coordinates: a1..a6 are t1, tbar2, t2, t3, tbar4, t4
    assert rows[("2", "2b")] == ("a1", "2*a1", "a1")
    assert rows[("2", "1b", "1", "2b")] == ("a2 + a3 - a4", "2*a2 - 2*a3", "a2 - a3")
    assert rows[("2", "1", "1b", "2b")] == ("a4 - a5 - a6", "2*a3 - 2*a4", "a3 - a4")
    assert rows[("2", "1", "2b")] == ("a2 - a6", "a2 - a4", "a2 - a4")
    assert rows[("2", "1b", "2b")] == ("a3 - a5", "a2 - a4", "a2 - a4")


def test_fold_maps_identities():
    for w in (W("C2", "2,1,2,1"), W("C3", "1,2,3,1,2,3,1,2,3")):
        fm = fold_maps(w)
        N = len(fm.groups)
        for k in range(N):
            e = [0] * N
            e[k] = 1
            assert fm.double_bc(fm.double_cb(e)) == tuple(2 * x for x in e)
            assert fm.collapse(fm.expand(e)) == fm.double_bc(e)
        assert fm.n_lifted == len(lift(w).letters)


def test_type_B_path_forms_sampled_point_oracle():
    rng = random.Random(11)
    sd = build_symp_diagram(W("C3", "1,3,2,1,3,2,1,3,2"))
    fm = fold_maps(sd.word)
    paths = enumerate_paths(orient(sd, 2))
    for ft, fb in zip(path_forms("A", paths), path_forms("B", paths)):
        for _ in range(10):
            a = [rng.randint(-5, 5) for _ in range(9)]
            lifted = fm.expand(a)
            assert sum(c * x for c, x in zip(ft.coeffs, lifted)) == sum(
                c * x for c, x in zip(fb.coeffs, a)
            )


def test_string_cone_C_worked_multiset():
    c2 = LieType("C", 2)
    cone = string_cone(c2, W("C2", "2,1,2,1"))
    assert sorted(f.coeffs for f in cone.forms) == sorted(
        [
            vec(4, a4=1), vec(4, a1=1), vec(4, a2=1, a3=-1),
            vec(4, a2=1, a4=-1), vec(4, a2=1, a4=-1), vec(4, a3=1, a4=-1),
        ]
    )
    deduped = string_cone(c2, W("C2", "2,1,2,1"), deduplicate=True)
    assert len(deduped.forms) == 5
    paths = rigorous_paths(c2, W("C2", "2,1,2,1"))
    dup = [p for f, p in zip(cone.forms, paths, strict=True) if f.coeffs == vec(4, a2=1, a4=-1)]
    assert len(dup) == 2


@pytest.mark.parametrize("build", [rigorous_paths, string_cone])
def test_a_word_of_another_type_is_refused(build):
    """One check refuses a word whose rank or family has no cone of the type."""
    c2_word = W("C2", "2,1,2,1")
    with pytest.raises(ValueError, match="rank mismatch: cone type C3, word of rank 2"):
        build(LieType("C", 3), c2_word)
    with pytest.raises(ValueError, match="type-A cones need a type-A word"):
        build(LieType("A", 2), c2_word)


def test_irredundant_facets_worked():
    c2 = LieType("C", 2)
    mini, count = irredundant_facets(c2, W("C2", "2,1,2,1"))
    assert count == 4
    assert {f.coeffs for f in mini.forms} == {
        vec(4, a4=1), vec(4, a1=1), vec(4, a2=1, a3=-1), vec(4, a3=1, a4=-1),
    }
    assert facet_count(c2, W("C2", "1,2,1,2")) == 4
    a3 = LieType("A", 3)
    assert facet_count(a3, W("A3", "1,3,2,1,3,2")) == 7


def test_simpliciality():
    c3 = LieType("C", 3)
    assert facet_count(c3, gt_adapted_word(3)) == 9
    assert facet_count(c3, braid_variant_word(3)) == 9
    assert facet_count(c3, W("C3", "1,3,2,1,3,2,1,3,2")) != 9
    assert facet_count(LieType("B", 2), gt_adapted_word(2)) == 4


def test_wall_orientation_facets_iff_symmetric():
    for n in (2, 3):
        t = LieType("C", n)
        for w in enumerate_reduced_words(t):
            sd = build_symp_diagram(w)
            fset = {f.coeffs for f in irredundant_facets(t, w)[0].forms}
            paths = enumerate_paths(orient(sd, n))
            for p, f in zip(paths, path_forms("C", paths)):
                assert is_symmetric(p) == (primitive(f.coeffs) in fset)


def test_mirror_pair_functional_equality():
    for w in enumerate_reduced_words(LieType("C", 3)):
        sd = build_symp_diagram(w)
        for k in (1, 2, 3):
            for p in enumerate_paths(orient(sd, k)):
                form, mirrored = path_forms("C", [p, mirror(p)], halve=False)
                assert form.coeffs == mirrored.coeffs
                if k == 3 and is_symmetric(p):
                    assert all(c % 2 == 0 for c in form.coeffs)


def switch_vector(p):
    """The lifted form of a path: +1 where it switches to a higher wire, -1
    where it switches to a lower one."""
    vec = [0] * p.diagram.length
    for node, frm, to in p.switch_pairs:
        vec[node - 1] = 1 if frm < to else -1
    return vec


def oracle_form(family, p):
    """A path's string form by the per-path composition: its switch vector,
    folded by `FoldMaps.collapse` (and `double_cb` in type C), halved when
    the path is its own mirror."""
    if family == "A":
        return tuple(switch_vector(p))
    fm = fold_maps(p.diagram.word)
    form = fm.collapse(switch_vector(p))
    if family == "C":
        form = fm.double_cb(form)
        if p.k == p.diagram.n and p == mirror(p):
            assert not any(c % 2 for c in form)
            form = tuple(c // 2 for c in form)
    return form


def kernel_oracle_cases():
    """Every class word of B2-B3 and C2-C3, and every 11th C4 class word,
    read as both C4 and B4."""
    cases = [w for text in ("B2", "B3", "C2", "C3") for w in class_words(LieType.parse(text))]
    for w in class_words(LieType("C", 4))[::11]:
        cases += [w, ReducedWord(LieType("B", 4), w.letters)]
    return cases


def test_form_kernel_matches_the_per_path_composition():
    """The raw cone forms and `path_forms` against the oracle, path by path,
    on every orientation of the symplectic diagram; at rank at most 3 the
    unhalved type-C forms too."""
    cones._class_entry.cache_clear()
    for w in kernel_oracle_cases():
        t = w.lie_type
        raw = [f.coeffs for f in string_cone(t, w).forms]
        assert raw == [oracle_form(t.family, p) for p in rigorous_paths(t, w)], w
        sd = build_symp_diagram(w)
        every = [p for u in range(1, 2 * w.rank) for p in enumerate_paths(OrientedDiagram(sd, u))]
        for family in ("A", "B", "C"):
            forms = [f.coeffs for f in path_forms(family, every)]
            assert forms == [oracle_form(family, p) for p in every], (w, family)
        if w.rank <= 3:
            fm = fold_maps(w)
            assert [f.coeffs for f in path_forms("C", every, halve=False)] == [
                fm.double_cb(fm.collapse(switch_vector(p))) for p in every
            ], w
    cones._class_entry.cache_clear()


def test_path_forms_refuses_paths_of_two_diagrams():
    """The form table is built from the first path's diagram, whose crossing
    numbers mean nothing on another word's diagram."""
    c2 = LieType("C", 2)
    first = rigorous_paths(c2, W("C2", "2,1,2,1"))[0]
    others = rigorous_paths(c2, W("C2", "1,2,1,2"))
    with pytest.raises(ValueError, match="one diagram"):
        path_forms("C", [first, *others])


@pytest.mark.parametrize("family", ["A", "B", "C"])
def test_path_forms_of_no_paths_are_none(family):
    assert path_forms(family, []) == []


def test_b_cone_facets_match_c_via_scaling():
    # the doubling similarity sends facets to facets, so the counts agree
    for w in enumerate_reduced_words(LieType("C", 2)):
        assert facet_count(LieType("B", 2), w) == facet_count(LieType("C", 2), w)
    w3 = gt_adapted_word(3)
    assert facet_count(LieType("B", 3), w3) == facet_count(LieType("C", 3), w3)


def commutation_classes(t):
    """The commutation classes of type ``t``, each found once."""
    classes, seen = [], set()
    for w in enumerate_reduced_words(t):
        if w not in seen:
            cls = commutation_class(w)
            classes.append(cls)
            seen |= cls
    return classes


def heap_cone(t, w):
    """The deduplicated string cone of ``w`` as a set of forms in heap coordinates."""
    cone = string_cone(t, w, deduplicate=True)
    heap = heap_coordinates(w)
    forms = set()
    for f in cone.forms:
        form = [0] * cone.dim
        for j, c in zip(heap, f.coeffs):
            form[j] = c
        forms.add(tuple(form))
    return frozenset(forms)


@pytest.mark.parametrize("type_text,classes", [("A3", 8), ("A4", 62), ("B3", 14), ("C3", 14)])
def test_heap_cone_is_a_commutation_class_invariant(type_text, classes):
    t = LieType.parse(type_text)
    found = commutation_classes(t)
    cones_per_class = [{heap_cone(t, w) for w in cls} for cls in found]
    assert all(len(c) == 1 for c in cones_per_class)
    assert len(set().union(*cones_per_class)) == len(found) == classes


def uncached_irredundant_facets(t, w):
    """Kept indices and forms by one redundancy LP for this very word (the oracle)."""
    cone = string_cone(t, w, deduplicate=True)
    rows = [tuple(-c for c in f.coeffs) for f in cone.forms]
    kept = polyhedra._irredundant_indices(tuple((c, 0) for c in rows), cone.dim)
    return kept, tuple(cone.forms[i] for i in kept)


def assert_facets_match_oracle(t, w):
    pruned, count = irredundant_facets(t, w)
    forms = string_cone(t, w, deduplicate=True).forms
    kept, want = uncached_irredundant_facets(t, w)
    assert [forms.index(f) for f in pruned.forms] == kept
    assert pruned.forms == want
    assert count == len(want) == len(pruned.forms)


@pytest.mark.parametrize("type_text", ["A3", "A4", "B2", "B3", "C2", "C3"])
def test_cached_facets_match_uncached_lp(type_text):
    t = LieType.parse(type_text)
    for w in enumerate_reduced_words(t):
        assert_facets_match_oracle(t, w)


def commutation_walk(w, steps, rng):
    """A word reached from ``w`` by ``steps`` random commutation moves."""
    letters = list(w.letters)
    for _ in range(steps):
        moves = [j for j in range(len(letters) - 1) if abs(letters[j] - letters[j + 1]) >= 2]
        j = rng.choice(moves)
        letters[j], letters[j + 1] = letters[j + 1], letters[j]
    return ReducedWord(w.lie_type, tuple(letters))


def test_cached_facets_match_uncached_lp_on_c4_walks():
    rng = random.Random(4)
    c4 = LieType("C", 4)
    starts = [
        braid_variant_word(4),
        W("C4", "1,2,3,4,1,2,3,4,1,2,3,4,1,2,3,4"),
        W("C4", "3,2,1,2,4,3,4,2,3,2,4,3,1,2,3,4"),
        W("C4", "3,4,3,2,1,3,4,3,2,3,4,3,1,4,2,1"),
    ]
    cones._class_entry.cache_clear()
    for start in starts:
        walked = {commutation_walk(start, steps, rng) for steps in (0, 5, 11, 17)}
        assert len(walked) >= min(3, len(commutation_class(start)))
        for w in walked:
            assert_facets_match_oracle(c4, w)
    assert cones._class_entry.cache_info().misses == len(starts)


def mirror_word(w):
    """The word of ``w`` under the diagram automorphism ``i -> n + 1 - i``."""
    return ReducedWord(w.lie_type, [w.rank + 1 - i for i in w.letters])


def lp_groups(t):
    """The commutation classes of ``t`` that share one LP set: in type A a
    class and its Dynkin-mirror class (once), in types B and C each class
    alone."""
    groups, seen = [], set()
    for cls in commutation_classes(t):
        if cls <= seen:
            continue
        group = [cls]
        if t.family == "A":
            mirrored = commutation_class(mirror_word(min(cls, key=str)))
            if mirrored != cls:
                group.append(mirrored)
        groups.append(group)
        seen |= set().union(*group)
    return groups


@pytest.mark.parametrize("type_text", ["A4", "B3", "C3"])
def test_one_lp_set_per_commutation_class(lp_calls, type_text):
    """One LP set per class in types B and C, and per mirror pair of classes
    in type A: A4's 62 classes form 31 pairs, none mirror-fixed."""
    t = LieType.parse(type_text)
    groups = lp_groups(t)
    for group in groups:
        before = len(lp_calls)
        for cls in group:
            for w in sorted(cls, key=str):
                irredundant_facets(t, w)
        assert len(lp_calls) == before + 1, group
    assert len(lp_calls) == len(groups) == {"A4": 31, "B3": 14, "C3": 14}[type_text]


def test_facet_cache_keeps_types_apart(lp_calls):
    w = W("C3", "1,3,2,1,3,2,1,3,2")
    for t in (LieType("B", 3), LieType("C", 3), LieType("B", 3)):
        irredundant_facets(t, w)
    assert len(lp_calls) == 2
    rows = (((-1, 0), 0), ((0, -1), 0))
    entries = [cones._class_entry(LieType(family, 2), rows) for family in "BC"]
    assert entries[0] is not entries[1]
    assert cones._class_entry.cache_info().currsize == 4
    assert cones._class_entry.cache_info().maxsize == cones.CLASS_CACHE_SIZE < 10**6


def test_facet_cache_keys_on_the_commutation_class(lp_calls):
    t = LieType("C", 3)
    w = W("C3", "1,3,2,1,3,2,1,3,2")
    first, count = irredundant_facets(t, w)
    # a commutation move renames two coordinates; the word is a hit
    moved = W("C3", "3,1,2,1,3,2,1,3,2")
    again, count_again = irredundant_facets(t, moved)
    assert len(lp_calls) == 1
    swap = lambda c: (c[1], c[0]) + c[2:]
    assert [f.coeffs for f in again.forms] == [swap(f.coeffs) for f in first.forms]
    assert count_again == count == len(first.forms)


def test_a_cone_entry_holds_integer_forms_only(lp_calls):
    """A class entry keeps integer forms in heap coordinates and facet
    indices: no path, no event and no `LinForm`."""
    t = LieType("C", 3)
    for w in enumerate_reduced_words(t):
        irredundant_facets(t, w)
        entry = cones.class_entry(t, w)
        assert set(entry) == {"raw", "merged", "minimal"}
        for form in entry["raw"] + entry["merged"]:
            assert type(form) is tuple and len(form) == 9
            assert all(type(c) is int for c in form)
        assert all(type(i) is int for i in entry["minimal"])
    assert len(lp_calls) == 14  # one per class


def test_irredundant_facets_takes_its_class_entry_once(monkeypatch, empty_entries):
    """Each word keys its class once, and a class with no facet indices yet
    keys its mirror class once more: 768 words and 62 class misses on A4."""
    keyed = []
    normal_form = cones.foata_normal_form

    def counted(w):
        keyed.append(w)
        return normal_form(w)

    monkeypatch.setattr(cones, "foata_normal_form", counted)
    t = LieType("A", 4)
    words = list(enumerate_reduced_words(t))
    for w in words:
        irredundant_facets(t, w)
    expected, missed = [], set()
    for w in words:
        expected.append(w)
        if normal_form(w) not in missed:
            missed.add(normal_form(w))
            expected.append(mirror_word(w))
    assert keyed == expected and len(keyed) == 768 + 62 and len(missed) == 62


@pytest.mark.slow
def test_rank4_spot_checks():
    c4 = LieType("C", 4)
    assert facet_count(c4, gt_adapted_word(4)) == 16
    assert facet_count(c4, braid_variant_word(4)) == 16
    generic = W("C4", "1,2,3,4,1,2,3,4,1,2,3,4,1,2,3,4")
    assert facet_count(c4, generic) > 16
    # polytope facets = cone facets + n^2 at rho, one rank up from criterion 5
    rho = Weight.rho(c4)
    polytope_words = (W("C4", "3,2,1,2,4,3,4,2,3,2,4,3,1,2,3,4"),
                      W("C4", "4,3,2,4,3,1,4,3,2,1,3,4,2,3,2,1"))
    for w in (generic, *polytope_words):
        assert len(polyhedra.remove_redundant(string_polytope(w, rho)).rows) == facet_count(c4, w) + 16
    assert len(polyhedra.remove_redundant(string_polytope(gt_adapted_word(4), rho)).rows) == 32
    assert len(polyhedra.remove_redundant(string_polytope(braid_variant_word(4), rho)).rows) == 32
    # contraction rows: the 2n - 1 canonical paths are new facets one rank up
    wall_word = W("C4", "4,3,2,1,3,2,4,3,4,2,3,4,1,2,1,3")
    for w in (generic, *polytope_words, wall_word, gt_adapted_word(4), braid_variant_word(4)):
        cps = canonical_paths(build_symp_diagram(w))
        assert len(cps) == len(set(cps)) == 7
        assert all(is_new(p) for p in cps)
        facets = {f.coeffs for f in irredundant_facets(c4, w)[0].forms}
        assert {primitive(f.coeffs) for f in path_forms("C", cps)} <= facets
        gained = facet_count(c4, w) - facet_count(LieType("C", 3), contract(w))
        nested = w in (gt_adapted_word(4), braid_variant_word(4))
        assert (gained == 7) if nested else (gained >= 7)
