"""The verification battery behind ``verify-paper``, and the one source of the paper's criteria.

Every check compares a computation against a frozen expected value: the
worked low-rank examples, the facet counts, the f-vectors, the
classification results, the folding identities, the crystal counts
(lattice points against Weyl's dimension formula), and the enumeration
oracles.  Checks come back as ``(name, ok, detail)`` rows; the battery is
sized by ``n`` (2 is quick, 3 runs the full rank-3 sweeps).

Each acceptance criterion has one function here that computes it and holds
its expected values (criteria 1-3 and 5-10, and the by-diagram statement
of criterion 4); ``paper_checks`` joins them with the worked-example
sections.  The acceptance tests in ``tests/test_acceptance.py`` read this
battery: each one times its criterion's function, at ``n = 3`` where it
takes one, and asserts that every row passes.  Only criterion 4's
word-level statement is written a second time, in its test, on purpose.

The simpliciality classification is checked by commutation class: the
rank-3 simplicial words are exactly the words reached from the nested word
and its braid variant by commutation moves.  A commutation move acts on
string coordinates as a plain coordinate swap, so simpliciality cannot tell
the words of one class apart; the braid variant's single move (its middle
letters 3 and 1 commute) gives a third simplicial word.  A companion check
states the same classification by wiring diagram.
"""

from __future__ import annotations

from fractions import Fraction

from . import polyhedra, polytopes
from ._linalg import det_int, rank_int
from .cones import (
    facet_count,
    fold_maps,
    irredundant_facets,
    path_forms,
    rigorous_paths,
    string_cone,
)
from .diagram import (
    OrientedDiagram,
    build_diagram,
    build_symp_diagram,
    chamber_structure,
    orient,
)
from .paths import (
    canonical_paths,
    enclosed_region,
    enumerate_paths,
    enumerate_paths_naive,
    extension,
    is_new,
    is_symmetric,
    mirror,
)
from .weyl import (
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
    gt_adapted_word,
    is_reduced,
    lift,
    longest_length,
    weyl_dimension,
)

Check = tuple[str, bool, str]


def _eq(name: str, got, want) -> Check:
    return (name, got == want, f"got {got}, want {want}")


def _true(name: str, flag: bool, detail: str = "") -> Check:
    return (name, bool(flag), detail)


def _forms_set(cone) -> set:
    return {f.coeffs for f in cone.forms}


def _vec(dim: int, **entries) -> tuple[int, ...]:
    out = [0] * dim
    for key, val in entries.items():
        out[int(key[1:]) - 1] = val
    return tuple(out)


# Criterion 1: the string cones of the two worked A3 words, as coefficient vectors.
A3_WORKED_CONES = {
    "1,2,1,3,2,1": {
        _vec(6, a1=1), _vec(6, a2=1, a3=-1), _vec(6, a4=1, a5=-1),
        _vec(6, a3=1), _vec(6, a5=1, a6=-1), _vec(6, a6=1),
    },
    "1,3,2,1,3,2": {
        _vec(6, a1=1), _vec(6, a3=1, a4=-1), _vec(6, a5=1, a6=-1), _vec(6, a6=1),
        _vec(6, a2=1), _vec(6, a3=1, a5=-1), _vec(6, a4=1, a6=-1),
    },
}

# Criterion 3: each wall-orientation path of (2,1,2,1) by its wires, with its
# type-A functional on the lifted word and its unhalved and halved type-C functionals.
FUNCTIONAL_TABLE_2121 = {
    ("2", "2b"): (_vec(6, a1=1), (2, 0, 0, 0), (1, 0, 0, 0)),
    ("2", "1b", "1", "2b"): (_vec(6, a2=1, a3=1, a4=-1), (0, 2, -2, 0), (0, 1, -1, 0)),
    ("2", "1", "1b", "2b"): (_vec(6, a4=1, a5=-1, a6=-1), (0, 0, 2, -2), (0, 0, 1, -1)),
    ("2", "1", "2b"): (_vec(6, a2=1, a6=-1), (0, 1, 0, -1), (0, 1, 0, -1)),
    ("2", "1b", "2b"): (_vec(6, a3=1, a5=-1), (0, 1, 0, -1), (0, 1, 0, -1)),
}

# Criterion 6: the f-vectors at rho of the rank-3 pattern polytope and of
# the braid variant's string polytope.
F_VECTOR_GT3 = (1, 176, 936, 2244, 3126, 2760, 1590, 594, 138, 18, 1)
F_VECTOR_BRAID3 = (1, 175, 933, 2241, 3125, 2760, 1590, 594, 138, 18, 1)

# Crystal counts: the weights, per rank, at which lattice points are counted.
# (1, 0, 2) is not regular: its string polytopes are lower-dimensional.  The
# count runs one redundancy removal per class, of its cone (a polytope entry
# at a regular weight reads the cone's facets); `lattice_points` reads the
# V-rep.
CRYSTAL_WEIGHTS = {2: ((1, 1), (2, 1), (1, 2), (3, 2)), 3: ((1, 1, 1), (2, 1, 1), (1, 0, 2))}


def _weyl_checks() -> list[Check]:
    a3 = LieType("A", 3)
    c2 = LieType("C", 2)
    c3 = LieType("C", 3)
    out = [
        _eq("lengths: A3 / C2 / A1",
            (longest_length(a3), longest_length(c2), longest_length(LieType("A", 1))),
            (6, 4, 1)),
        _true("reduced words recognized",
              is_reduced(a3, (1, 2, 1, 3, 2, 1))
              and not is_reduced(c2, (1, 1, 2, 2))
              and is_reduced(c3, (2, 3, 2, 3, 1, 2, 3, 2, 1))),
        _eq("all rank-2 words",
            [str(w) for w in enumerate_reduced_words(c2)], ["1,2,1,2", "2,1,2,1"]),
        _eq("rank-3 word count", sum(1 for _ in enumerate_reduced_words(c3)), 42),
        _eq("lift of (1,3,2)x3", str(lift(ReducedWord.parse("C3", "1,3,2,1,3,2,1,3,2"))),
            "1,5,3,2,4,1,5,3,2,4,1,5,3,2,4"),
        _eq("lift of (2,1,2,1)", str(lift(ReducedWord.parse("C2", "2,1,2,1"))), "2,1,3,2,1,3"),
        _eq("contraction of (1,3,2)x3",
            str(contract(ReducedWord.parse("C3", "1,3,2,1,3,2,1,3,2"))), "2,1,2,1"),
        _true("contraction of nested words",
              contract(gt_adapted_word(3)).letters == gt_adapted_word(2).letters
              and contract(gt_adapted_word(4)).letters == gt_adapted_word(3).letters),
        _eq("pairings (A3 1,2) / (C3 3,2) / diagonal",
            (cartan_pairing(a3, 1, 2), cartan_pairing(c3, 3, 2), cartan_pairing(c3, 2, 2)),
            (-1, -2, 2)),
    ]
    lifted_ok = all(
        is_reduced(LieType("A", 5), lift(w).letters) for w in enumerate_reduced_words(c3)
    )
    cont_ok = all(
        is_reduced(c2, contract(w).letters) for w in enumerate_reduced_words(c3)
    )
    out.append(_true("all rank-3 lifts and contractions reduced", lifted_ok and cont_ok))
    return out


def _diagram_checks() -> list[Check]:
    out = []
    d = build_diagram(ReducedWord.parse("A3", "1,2,1,3,2,1"))
    out.append(_eq("crossing columns of (1,2,1,3,2,1)",
                   tuple(nd.column for nd in d.nodes), (1, 2, 1, 3, 2, 1)))
    out.append(_eq("first crossing wires", d.node(1).wires, (1, 2)))
    out.append(_eq("bottom arrangement reversed", d.arrangements[-1], (4, 3, 2, 1)))
    d2 = build_diagram(ReducedWord.parse("A3", "1,3,2,1,3,2"))
    out.append(_true("second crossing of the second example",
                     d2.node(2).wires == (3, 4) and d2.node(2).column == 3))
    u = chamber_structure(d2)  # u[j - 1] is the chamber variable u_j
    out.append(_eq("chamber variable u3", u[2], (0, 0, 1, -1, -1, 1)))
    out.append(_eq("chamber variable u4", u[3], (0, 0, 0, 1, 0, -1)))
    bases = [chamber_structure(build_diagram(w)) for w in enumerate_reduced_words(LieType("A", 3))]
    det_ok = all(det_int(rows) in (1, -1) for rows in bases)
    diag_ok = all(rows[j][j] == 1 for rows in bases for j in range(6))
    out.append(_true("chamber change of basis unimodular, +1 on the diagonal",
                     det_ok and diag_ok))
    sd = build_symp_diagram(ReducedWord.parse("C3", "1,2,3,1,2,3,1,2,3"))
    out.append(_eq("wall nodes of (1,2,3)x3",
                   sorted(sd.label_str(a) for a in sd.wall_nodes), ["t3", "t6", "t9"]))
    sd2 = build_symp_diagram(ReducedWord.parse("C2", "2,1,2,1"))
    labels = [sd2.label_str(a) for a in range(1, 7)]
    out.append(_eq("node labels of (2,1,2,1)", labels, ["t1", "tbar2", "t2", "t3", "tbar4", "t4"]))
    mirror_ok = all(
        sd2.mirror_node(sd2.mirror_node(a)) == a for a in range(1, 7)
    ) and sd2.label_str(sd2.mirror_node(labels.index("t2") + 1)) == "tbar2"
    out.append(_true("mirror swaps twin nodes and fixes the wall", mirror_ok))
    od = orient(d, 1)
    out.append(_true("orientation k=1 sends only the first wire up",
                     od.is_up(1) and not any(od.is_up(w) for w in (2, 3, 4))))
    od2 = orient(sd2, 2)
    out.append(_true("symplectic orientation k=2",
                     od2.is_up(1) and od2.is_up(2) and not od2.is_up(3) and not od2.is_up(4)))
    out.append(_true("orientation k=m-1", all(orient(d, 3).is_up(w) for w in (1, 2, 3))))
    return out


def _path_checks() -> list[Check]:
    out = []
    d = build_diagram(ReducedWord.parse("A3", "1,2,1,3,2,1"))
    d2 = build_diagram(ReducedWord.parse("A3", "1,3,2,1,3,2"))
    out.append(_eq("path counts of (1,2,1,3,2,1)",
                   tuple(len(enumerate_paths(orient(d, k))) for k in (1, 2, 3)), (3, 2, 1)))
    out.append(_eq("path counts of (1,3,2,1,3,2)",
                   tuple(len(enumerate_paths(orient(d2, k))) for k in (1, 2, 3)), (3, 1, 3)))
    wall = enumerate_paths(orient(build_symp_diagram(ReducedWord.parse("C2", "2,1,2,1")), 2))
    got = [p.wires_by_name() for p in wall]
    want = [
        ("2", "2b"),
        ("2", "1b", "1", "2b"),
        ("2", "1b", "2b"),
        ("2", "1", "2b"),
        ("2", "1", "1b", "2b"),
    ]
    out.append(_eq("the five wall-orientation paths of (2,1,2,1)", sorted(got), sorted(want)))
    sym_flags = {p.wires_by_name(): is_symmetric(p) for p in wall}
    out.append(_true("three symmetric, two mirror-paired",
                     sym_flags[("2", "2b")]
                     and sym_flags[("2", "1b", "1", "2b")]
                     and sym_flags[("2", "1", "1b", "2b")]
                     and not sym_flags[("2", "1", "2b")]
                     and not sym_flags[("2", "1b", "2b")]))
    p4 = next(p for p in wall if p.wires_by_name() == ("2", "1", "2b"))
    out.append(_eq("mirror of the fourth path", mirror(p4).wires_by_name(), ("2", "1b", "2b")))
    out.append(_true("mirror is an involution", mirror(mirror(p4)) == p4))
    sd3 = build_symp_diagram(ReducedWord.parse("C3", "1,3,2,1,3,2,1,3,2"))
    P = next(p for p in enumerate_paths(orient(sd3, 3)) if p.wires_by_name() == ("3", "1b", "2", "3b"))
    out.append(_eq("rank-3 mirror example", mirror(P).wires_by_name(), ("3", "2b", "1", "3b")))
    p_region = next(q for q in enumerate_paths(orient(d2, 3)) if q.wire_seq == (3, 1, 4))
    out.append(_eq("enclosed chambers of the worked path",
                   sorted(enclosed_region(p_region)), [3, 4]))
    low = next(q for q in enumerate_paths(orient(d, 3)))
    out.append(_eq("single-crossing path encloses one chamber",
                   sorted(enclosed_region(low)), [6]))
    # region sum identity: functional equals the sum of enclosed chamber forms
    ident_ok = True
    for dd in (d, d2):
        u = chamber_structure(dd)
        paths = [p for k in (1, 2, 3) for p in enumerate_paths(orient(dd, k))]
        for p, form in zip(paths, path_forms("A", paths)):
            total = [0] * 6
            for j in enclosed_region(p):
                total = [a + b for a, b in zip(total, u[j - 1])]
            if tuple(total) != form.coeffs:
                ident_ok = False
    out.append(_true("path functional is the enclosed chamber sum", ident_ok))
    sd4 = build_symp_diagram(ReducedWord.parse("C3", "2,1,3,2,1,3,2,1,3"))
    P2 = next(p for p in enumerate_paths(orient(sd4, 2)) if p.wires_by_name() == ("2", "1b", "3"))
    out.append(_eq("worked extension", extension(P2).wires_by_name(),
                   ("2", "1b", "1", "2b", "3")))
    Pex = extension(P)
    out.append(_true("wall extension fills the union region",
                     enclosed_region(Pex) == enclosed_region(P) | enclosed_region(mirror(P))
                     and is_symmetric(Pex)))
    ext_ok = True
    for wtxt in ("2,1,2,1", "1,2,1,2"):
        for p in rigorous_paths(LieType("C", 2), ReducedWord.parse("C2", wtxt)):
            e = extension(p)
            if extension(e) != e:
                ext_ok = False
            r, re_, un = (enclosed_region(p), enclosed_region(e),
                          enclosed_region(p) | enclosed_region(mirror(p)))
            if not (r <= re_ <= un):
                ext_ok = False
            if p.k == 2 and not is_symmetric(e):
                ext_ok = False
    out.append(_true("extension invariants at rank 2", ext_ok))
    sd5 = build_symp_diagram(ReducedWord.parse("C3", "3,2,1,3,2,3,2,1,2"))
    names = [p.wires_by_name() for p in canonical_paths(sd5)]
    out.append(_true("canonical path table rows",
                     ("3", "2", "1b", "1", "2b", "3b") in names
                     and ("1", "3", "2") in names))
    out.append(_eq("canonical path count", len(names), 5))
    out.append(_true("canonical paths are new",
                     all(is_new(p) for p in canonical_paths(sd5))))
    inner = next(p for p in enumerate_paths(orient(sd5, 2)) if "1" not in p.wires_by_name()
                 and "1b" not in p.wires_by_name())
    out.append(_true("wire-avoiding path is not new", not is_new(inner)))
    return out


def type_a_worked_examples() -> list[Check]:
    """Criterion 1: the cones of the two worked A3 words, one facet per path."""
    a3 = LieType("A", 3)
    w1, w2 = (ReducedWord.parse("A3", text) for text in A3_WORKED_CONES)
    return [
        _eq("six inequalities of (1,2,1,3,2,1)",
            _forms_set(string_cone(a3, w1)), A3_WORKED_CONES[str(w1)]),
        _eq("seven inequalities of (1,3,2,1,3,2)",
            _forms_set(string_cone(a3, w2)), A3_WORKED_CONES[str(w2)]),
        _eq("facet counts match path counts (worked pair)",
            (facet_count(a3, w1), facet_count(a3, w2)), (6, 7)),
    ]


def path_count_equals_facet_count() -> list[Check]:
    """Criterion 2: in type A every path form is a facet, over all 847 words of A1-A4."""
    mismatches = []
    for rank in (1, 2, 3, 4):
        t = LieType("A", rank)
        for w in enumerate_reduced_words(t):
            paths, facets = len(string_cone(t, w).forms), facet_count(t, w)
            if paths != facets:
                mismatches.append((str(w), paths, facets))
    return [_eq("type-A path count equals certified facet count (up to 5 wires)",
                mismatches, [])]


def form_table_and_rank2_facets() -> list[Check]:
    """Criterion 3: the functional table of (2,1,2,1) and the rank-2 facet counts."""
    c2 = LieType("C", 2)
    w21 = ReducedWord.parse("C2", "2,1,2,1")
    paths = enumerate_paths(orient(build_symp_diagram(w21), 2))
    table = {
        p.wires_by_name(): (a.coeffs, c_whole.coeffs, c.coeffs)
        for p, a, c_whole, c in zip(
            paths, path_forms("A", paths), path_forms("C", paths, halve=False), path_forms("C", paths)
        )
    }
    mini, cnt = irredundant_facets(c2, w21)
    return [
        _eq("worked functional table for (2,1,2,1)", table, FUNCTIONAL_TABLE_2121),
        _eq("raw rank-2 inequality multiset (one duplicate pair)",
            sorted(f.coeffs for f in string_cone(c2, w21).forms),
            sorted([(0, 0, 0, 1), (1, 0, 0, 0), (0, 1, -1, 0),
                    (0, 1, 0, -1), (0, 1, 0, -1), (0, 0, 1, -1)])),
        _eq("facet count of (2,1,2,1)", cnt, 4),
        _true("duplicate pair removed as redundant", (0, 1, 0, -1) not in _forms_set(mini)),
        _eq("facet count of (1,2,1,2)", facet_count(c2, ReducedWord.parse("C2", "1,2,1,2")), 4),
    ]


def _cone_checks() -> list[Check]:
    w21 = ReducedWord.parse("C2", "2,1,2,1")
    fm = fold_maps(w21)
    paths = enumerate_paths(orient(build_symp_diagram(w21), 2))
    gamma_ok = all(
        c_whole.coeffs == fm.double_cb(b.coeffs) == tuple(
            sum(r * x for r, x in zip(row, b.coeffs))
            for row in ((2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 2, 0), (0, 0, 0, 1))
        )
        for c_whole, b in zip(path_forms("C", paths, halve=False), path_forms("B", paths))
    )
    out = [_true("rescaled fold equals the type-B fold composed with doubling", gamma_ok)]
    minij, _ = irredundant_facets(LieType("C", 3), braid_variant_word(3))
    want_j = {
        _vec(9, a1=1), _vec(9, a2=2, a3=-1), _vec(9, a3=1, a4=-2), _vec(9, a4=1),
        _vec(9, a5=1, a6=-1), _vec(9, a6=1, a7=-1), _vec(9, a7=1, a8=-1),
        _vec(9, a8=1, a9=-1), _vec(9, a9=1),
    }
    out.append(_eq("block facets of the rank-3 braid variant", _forms_set(minij), want_j))
    sd3 = build_symp_diagram(ReducedWord.parse("C3", "1,3,2,1,3,2,1,3,2"))
    q2 = next(p for p in enumerate_paths(orient(sd3, 3))
              if p.wires_by_name() == ("3", "2b", "1", "1b", "2", "3b"))
    out.append(_true("worked rank-3 symmetric-piece functional",
                     path_forms("C", [q2], halve=False)[0].coeffs == _vec(9, a4=2, a5=2, a6=-2)
                     and path_forms("C", [q2])[0].coeffs == _vec(9, a4=1, a5=1, a6=-1)))
    return out


def _classification_checks(n: int) -> list[Check]:
    """Criterion 4 at word level (its acceptance test states it on its own)."""
    out = []
    c2 = LieType("C", 2)
    simp2 = [str(w) for w in enumerate_reduced_words(c2)
             if facet_count(c2, w) == 4]
    out.append(_eq("rank-2 simplicial words", simp2, ["1,2,1,2", "2,1,2,1"]))
    if n >= 3:
        c3 = LieType("C", 3)
        simplicial = [w for w in enumerate_reduced_words(c3)
                      if facet_count(c3, w) == 9]
        expected_words = sorted(
            str(v)
            for w in (gt_adapted_word(3), braid_variant_word(3))
            for v in commutation_class(w)
        )
        out.append(_eq("rank-3 simplicial words exactly the commutation classes "
                       "of the two named words",
                       sorted(str(w) for w in simplicial), expected_words))
        out.append(_true("named words simplicial, generic word not",
                         facet_count(c3, gt_adapted_word(3)) == 9
                         and facet_count(c3, braid_variant_word(3)) == 9
                         and facet_count(c3, ReducedWord.parse("C3", "1,3,2,1,3,2,1,3,2")) != 9))
        mono_ok = all(
            facet_count(c3, w) >= facet_count(c2, contract(w)) + 5
            for w in enumerate_reduced_words(c3)
        )
        out.append(_true("facet counts grow by at least 2n-1 under contraction", mono_ok))
    return out


def _diagram_key(w: ReducedWord) -> tuple:
    """The symplectic wiring diagram of ``w``, compared as a set of crossings."""
    return tuple(sorted((nd.wires, nd.column) for nd in build_symp_diagram(w).nodes))


def simplicial_classification_up_to_diagram(n: int) -> list[Check]:
    """Criterion 4 by wiring diagram, at ranks 2 to ``n``: a word is simplicial
    exactly when its diagram is the nested word's or the braid variant's."""
    out = []
    for m in range(2, n + 1):
        t = LieType("C", m)
        named = {_diagram_key(gt_adapted_word(m)), _diagram_key(braid_variant_word(m))}
        simplicial = {w: facet_count(t, w) == m * m for w in enumerate_reduced_words(t)}
        out.append(_true(f"rank-{m} simplicial diagrams exactly the two named diagrams",
                         {_diagram_key(w) for w, simp in simplicial.items() if simp} == named))
        out.append(_eq(f"rank-{m} words simplicial exactly when their diagram is named",
                       [str(w) for w, simp in simplicial.items()
                        if simp != (_diagram_key(w) in named)], []))
    return out


def polytope_facet_identity(n: int) -> list[Check]:
    """Criterion 5, at ranks 2 to ``n``: at rho a string polytope has N = n^2
    more facets than its cone, so the two simplicial words' polytopes have 2N;
    and every commutation class passes `polytopes.lowest_weight_certificate`,
    which proves the count at every regular weight.  The count at rho comes
    from the general redundancy routine on rows in a new `HRep`, made with
    no kept indices, so it checks the certificate's kept rows rather than
    reading them."""
    out = []
    for m in range(2, n + 1):
        t, N = LieType("C", m), m * m
        rho = Weight.rho(t)
        facets = {w: len(polyhedra.remove_redundant(polyhedra.HRep(N, polytopes.string_polytope(w, rho).rows)).rows)
                  for w in enumerate_reduced_words(t)}
        bad = [str(w) for w, count in facets.items() if count != facet_count(t, w) + N]
        out.append(_eq(f"facets of every rank-{m} polytope = cone facets + {N}", bad, []))
        out.append(_eq(f"named rank-{m} polytopes have 2N facets",
                       [facets[w] for w in (gt_adapted_word(m), braid_variant_word(m))],
                       [2 * N, 2 * N]))
        bad = [str(w) for w in class_words(t) if not polytopes.lowest_weight_certificate(w)]
        out.append(_eq(f"rank-{m} classes: cone rows <= 0 at v(omega_i), < 0 at v(rho)", bad, []))
    return out


def f_vectors() -> list[Check]:
    """Criterion 6: the rank-3 f-vectors at rho."""
    rho = Weight.rho(LieType("C", 3))
    gt3 = polytopes.gt_polytope_C(rho, 3)
    dj3 = polytopes.string_polytope(braid_variant_word(3), rho)
    return [
        _eq("pattern polytope f-vector", polyhedra.f_vector(gt3), F_VECTOR_GT3),
        _eq("braid-variant polytope f-vector", polyhedra.f_vector(dj3), F_VECTOR_BRAID3),
    ]


def half_integral_vertex(n: int) -> list[Check]:
    """Criterion 7, at ranks 2 to ``n``: (0, 3/2, 3, 1, 0, ...) is a vertex of
    the braid variant's string polytope at rho, which is not integral."""
    out = []
    for m in range(2, n + 1):
        dj = polytopes.string_polytope(braid_variant_word(m), Weight.rho(LieType("C", m)))
        pt = [Fraction(0), Fraction(3, 2), Fraction(3), Fraction(1)] + [Fraction(0)] * (m * m - 4)
        tight = dj.tight_at(pt)
        ok = (dj.contains(pt)
              and rank_int([dj.rows[i][0] for i in tight]) == m * m
              and not polyhedra.integrality(dj)[0])
        out.append(_true(f"half-integral vertex of the rank-{m} braid variant", ok))
    return out


def gt_equivalence(n: int, reports: dict | None = None) -> list[Check]:
    """Criterion 8, at ranks 2 to ``n``: at rho exactly the nested word's string
    polytope is unimodularly equivalent to the pattern polytope, by a map that
    `verify_unimodular_map` accepts, and each other word is refuted with a
    witness: every word but the nested one, as `count_reduced_words`
    counts them.  ``reports`` maps each rank to its `verify_gt_theorem` report,
    when the battery has built them already."""
    if reports is None:
        reports = {m: polytopes.verify_gt_theorem(m) for m in range(2, n + 1)}
    out = []
    for m, res in sorted(reports.items()):
        hits = [(w, v) for w, v in res.comparisons if v.status == "equivalent"]
        out.append(_true(f"rank-{m} pattern equivalence exactly at the nested word",
                         res.ok(), str([(str(w), v.status) for w, v in hits])))
        mapped = bool(hits) and all(
            v.matrix is not None
            and polyhedra.verify_unimodular_map(
                polytopes.string_polytope(w, Weight.rho(LieType("C", m))),
                res.gt, v.matrix, v.shift)
            for w, v in hits
        )
        out.append(_true(f"rank-{m} certified map passes verify_unimodular_map", mapped))
        refuted = [v for _, v in res.comparisons if v.status == "inequivalent"]
        out.append(_eq(f"rank-{m} other words refuted, each with a witness",
                       (len(refuted), all(v.witness for v in refuted)),
                       (count_reduced_words(LieType("C", m)) - 1, True)))
    return out


def _polytope_checks(n: int) -> list[Check]:
    """The worked polytope rows and criteria 5-8, sharing one pattern
    polytope per rank through its `verify_gt_theorem` report."""
    c2 = LieType("C", 2)
    rho2 = Weight.rho(c2)
    reports = {m: polytopes.verify_gt_theorem(m) for m in range(2, n + 1)}
    gt2 = reports[2].gt
    h0 = polytopes.string_polytope(gt_adapted_word(2), Weight.zero(c2))
    d_i2 = polytopes.string_polytope(gt_adapted_word(2), rho2)
    out = [
        _eq("rank-2 nested polytope facet count",
            len(polyhedra.remove_redundant(d_i2).rows), 8),
        _eq("zero-weight polytope is the origin",
            polyhedra.to_vrep(h0).vertices, ((Fraction(0),) * 4,)),
        _eq("rank-2 pattern polytope facet count", len(polyhedra.remove_redundant(gt2).rows), 8),
        _eq("rank-2 lattice point counts agree",
            (polyhedra.lattice_points(d_i2), polyhedra.lattice_points(gt2)), (16, 16)),
    ]
    out += half_integral_vertex(n)
    out += gt_equivalence(n, reports)
    if n >= 3:
        gt3 = reports[3].gt
        dj3 = polytopes.string_polytope(braid_variant_word(3), Weight.rho(LieType("C", 3)))
        out.append(_eq("rank-3 pattern polytope facet count",
                       len(polyhedra.remove_redundant(gt3).rows), 18))
        out += f_vectors()
        out.append(_true("pattern polytope integral, braid variant not",
                         polyhedra.integrality(gt3)[0] and not polyhedra.integrality(dj3)[0]))
    out += polytope_facet_identity(n)
    return out


def crystal_counts(n: int) -> list[Check]:
    """At ranks 2 to ``n``, in types B and C: the lattice points of a string
    polytope parametrize the crystal basis of V(lam), so the string polytope
    of one word per commutation class has dim V(lam) lattice points at each
    weight of `CRYSTAL_WEIGHTS` (Weyl's formula, computed with no polytope)."""
    out = []
    for m in range(2, n + 1):
        for family in "BC":
            t = LieType(family, m)
            words = class_words(t)
            bad = []
            for coeffs in CRYSTAL_WEIGHTS[m]:
                lam = Weight(t, coeffs)
                want = weyl_dimension(lam)
                bad += [(str(w), coeffs) for w in words
                        if polyhedra.lattice_points(polytopes.string_polytope(w, lam)) != want]
            out.append(_eq(f"{t} lattice points = dim V(lam), one word per class at "
                           f"{len(CRYSTAL_WEIGHTS[m])} weights", bad, []))
    return out


def folding_suite(n: int) -> list[Check]:
    """Criterion 9: the folding identities on the rank-2 words and, for
    ``n`` >= 3, four rank-3 words."""
    out = []
    words = [w for w in enumerate_reduced_words(LieType("C", 2))]
    if n >= 3:
        words += [gt_adapted_word(3), braid_variant_word(3),
                  ReducedWord.parse("C3", "1,3,2,1,3,2,1,3,2"),
                  ReducedWord.parse("C3", "1,2,3,1,2,3,1,2,3")]
    comp_ok = True
    slice_ok = True
    quot_ok = True
    sim_ok = True
    mirror_ok = True
    for w in words:
        N = w.rank * w.rank
        fm = fold_maps(w)
        for k in range(N):
            e = [0] * N
            e[k] = 1
            if fm.double_bc(fm.double_cb(e)) != tuple(2 * x for x in e):
                comp_ok = False
            if fm.collapse(fm.expand(e)) != fm.double_bc(e):
                comp_ok = False
        tB, tC = LieType("B", w.rank), LieType("C", w.rank)
        tA = LieType("A", 2 * w.rank - 1)
        coneB = string_cone(tB, w, deduplicate=True)
        coneC = string_cone(tC, w, deduplicate=True)
        coneA = string_cone(tA, lift(w), deduplicate=True)
        rowsB = [f.coeffs for f in coneB.forms]
        rowsC = [f.coeffs for f in coneC.forms]
        rowsA = [f.coeffs for f in coneA.forms]
        member = lambda rows, p: all(sum(c * x for c, x in zip(r, p)) >= 0 for r in rows)
        vB = polyhedra.to_vrep(coneB.to_hrep())
        samples = list(vB.rays)
        samples += [tuple(a + b for a, b in zip(r, s)) for r, s in zip(vB.rays, vB.rays[1:])]
        samples += [tuple(-x for x in r) for r in vB.rays]
        for p in samples:
            if member(rowsB, p) != member(rowsA, fm.expand(p)):
                slice_ok = False
        for r in vB.rays:
            if not member(rowsC, fm.double_bc(r)):
                sim_ok = False
        vC = polyhedra.to_vrep(coneC.to_hrep())
        for r in vC.rays:
            if not member(rowsB, fm.double_cb(r)):
                sim_ok = False
        vA = polyhedra.to_vrep(coneA.to_hrep())
        for q in vA.rays:
            if not member(rowsC, fm.collapse(q)):
                quot_ok = False
        dimA = fm.n_lifted
        for r in vC.rays:
            rows = [(tuple(-c for c in row), 0) for row in rowsA]
            for k in range(N):
                om = [0] * dimA
                for tj in fm.groups[k]:
                    om[tj] = 1
                rows.append((tuple(om), r[k]))
                rows.append((tuple(-x for x in om), -r[k]))
            if not polyhedra.feasible(rows, dimA):
                quot_ok = False
        for p in rigorous_paths(tC, w):
            form, mirrored = path_forms("C", [p, mirror(p)], halve=False)
            if form.coeffs != mirrored.coeffs:
                mirror_ok = False
            if p.k == w.rank and is_symmetric(p):
                if any(c % 2 for c in form.coeffs):
                    mirror_ok = False
    out.append(_true("doubling maps compose to multiplication by 2", comp_ok))
    out.append(_true("slice membership matches across the unfolding", slice_ok))
    out.append(_true("rescaling maps the two folded cones onto each other", sim_ok))
    out.append(_true("projection maps the lifted cone onto the folded cone", quot_ok))
    out.append(_true("mirror leaves the folded functional fixed; symmetric forms even",
                     mirror_ok))
    return out


def enumerator_oracle() -> list[Check]:
    """Criterion 10: the constrained path enumerator against the naive one on
    every orientation of the A1-A4 diagrams and of the C2 diagrams."""
    agree = True
    for rank in (1, 2, 3, 4):
        for w in enumerate_reduced_words(LieType("A", rank)):
            d = build_diagram(w)
            for k in range(1, d.m):
                od = orient(d, k)
                if enumerate_paths(od) != enumerate_paths_naive(od):
                    agree = False
    for w in enumerate_reduced_words(LieType("C", 2)):
        sd = build_symp_diagram(w)
        for u in range(1, 4):
            od = OrientedDiagram(sd, u)
            if enumerate_paths(od) != enumerate_paths_naive(od):
                agree = False
    return [_true("constrained and naive path enumerators agree (up to 5 wires)", agree)]


def paper_checks(n: int = 2) -> list[Check]:
    """Run the battery; ``n`` = 3 adds the exhaustive rank-3 sweeps."""
    return [
        *_weyl_checks(),
        *_diagram_checks(),
        *_path_checks(),
        *type_a_worked_examples(),
        *form_table_and_rank2_facets(),
        *_cone_checks(),
        *_classification_checks(n),
        *simplicial_classification_up_to_diagram(n),
        *_polytope_checks(n),
        *crystal_counts(n),
        *folding_suite(n),
        *enumerator_oracle(),
        *path_count_equals_facet_count(),
    ]
