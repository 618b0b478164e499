"""The verification battery behind ``verify-paper``.

Every check compares a computation against a frozen expected value: the
worked low-rank examples, the facet counts, the f-vectors, the
classification results, the folding identities, and the enumeration
oracles.  Checks come back as ``(name, ok, detail)`` rows; the battery is
sized by ``n`` (2 is quick, 3 runs the full rank-3 sweeps).

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
from .cones import (
    facet_count,
    fold_maps,
    functional_A,
    functional_B,
    functional_C,
    functional_C_unhalved,
    functional_t,
    irredundant_facets,
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
    all_symp_paths,
    canonical_paths,
    enclosed_region,
    enumerate_paths,
    enumerate_paths_naive,
    extension,
    extension_by_search,
    is_new,
    is_symmetric,
    mirror,
    symp_paths,
)
from .weyl import (
    LieType,
    ReducedWord,
    Weight,
    braid_variant_word,
    cartan_pairing,
    commutation_class,
    contract,
    enumerate_reduced_words,
    gt_adapted_word,
    is_reduced,
    lift,
    longest_length,
)

Check = tuple[str, bool, str]


def _eq(name: str, got, want) -> Check:
    return (name, got == want, f"got {got}, want {want}")


def _true(name: str, flag: bool, detail: str = "") -> Check:
    return (name, bool(flag), detail)


def _word(text: str, family: str = "C", rank: int | None = None) -> ReducedWord:
    letters = tuple(int(x) for x in text.split(","))
    if rank is None:
        rank = max(letters)
    return ReducedWord(LieType(family, rank), letters)


def _forms_set(cone) -> set:
    return {f.coeffs for f in cone.forms}


def _vec(dim: int, **entries) -> tuple[int, ...]:
    out = [0] * dim
    for key, val in entries.items():
        out[int(key[1:]) - 1] = val
    return tuple(out)


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
        _eq("lift of (1,3,2)x3", str(lift(_word("1,3,2,1,3,2,1,3,2"))),
            "1,5,3,2,4,1,5,3,2,4,1,5,3,2,4"),
        _eq("lift of (2,1,2,1)", str(lift(_word("2,1,2,1"))), "2,1,3,2,1,3"),
        _eq("contraction of (1,3,2)x3", str(contract(_word("1,3,2,1,3,2,1,3,2"))), "2,1,2,1"),
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
    d = build_diagram(_word("1,2,1,3,2,1", "A", 3))
    out.append(_eq("crossing columns of (1,2,1,3,2,1)",
                   tuple(nd.column for nd in d.nodes), (1, 2, 1, 3, 2, 1)))
    out.append(_eq("first crossing wires", d.node(1).wires, (1, 2)))
    out.append(_eq("bottom arrangement reversed", d.arrangements[-1], (4, 3, 2, 1)))
    d2 = build_diagram(_word("1,3,2,1,3,2", "A", 3))
    out.append(_true("second crossing of the second example",
                     d2.node(2).wires == (3, 4) and d2.node(2).column == 3))
    ch = chamber_structure(d2)
    out.append(_eq("chamber variable u3", ch.u_form(3), (0, 0, 1, -1, -1, 1)))
    out.append(_eq("chamber variable u4", ch.u_form(4), (0, 0, 0, 1, 0, -1)))
    det_ok = all(
        chamber_structure(build_diagram(w)).det in (1, -1)
        for w in enumerate_reduced_words(LieType("A", 3))
    )
    diag_ok = all(
        chamber_structure(build_diagram(w)).phi_rows[j][j] == 1
        for w in enumerate_reduced_words(LieType("A", 3))
        for j in range(6)
    )
    out.append(_true("chamber change of basis unimodular, +1 on the diagonal",
                     det_ok and diag_ok))
    sd = build_symp_diagram(_word("1,2,3,1,2,3,1,2,3"))
    out.append(_eq("wall nodes of (1,2,3)x3",
                   sorted(sd.label_str(a) for a in sd.wall_nodes), ["t3", "t6", "t9"]))
    sd2 = build_symp_diagram(_word("2,1,2,1"))
    out.append(_eq("node labels of (2,1,2,1)",
                   [sd2.label_str(a) for a in range(1, 7)],
                   ["t1", "tbar2", "t2", "t3", "tbar4", "t4"]))
    mirror_ok = all(
        sd2.mirror_node(sd2.mirror_node(a)) == a for a in range(1, 7)
    ) and sd2.mirror_node(sd2.anode("t", 2)) == sd2.anode("tbar", 2)
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
    d = build_diagram(_word("1,2,1,3,2,1", "A", 3))
    d2 = build_diagram(_word("1,3,2,1,3,2", "A", 3))
    out.append(_eq("path counts of (1,2,1,3,2,1)",
                   tuple(len(enumerate_paths(orient(d, k))) for k in (1, 2, 3)), (3, 2, 1)))
    out.append(_eq("path counts of (1,3,2,1,3,2)",
                   tuple(len(enumerate_paths(orient(d2, k))) for k in (1, 2, 3)), (3, 1, 3)))
    sd = build_symp_diagram(_word("2,1,2,1"))
    got = [p.wires_by_name() for p in symp_paths(sd, 2)]
    want = [
        ("2", "2b"),
        ("2", "1b", "1", "2b"),
        ("2", "1b", "2b"),
        ("2", "1", "2b"),
        ("2", "1", "1b", "2b"),
    ]
    out.append(_eq("the five wall-orientation paths of (2,1,2,1)", sorted(got), sorted(want)))
    sym_flags = {p.wires_by_name(): is_symmetric(p) for p in symp_paths(sd, 2)}
    out.append(_true("three symmetric, two mirror-paired",
                     sym_flags[("2", "2b")]
                     and sym_flags[("2", "1b", "1", "2b")]
                     and sym_flags[("2", "1", "1b", "2b")]
                     and not sym_flags[("2", "1", "2b")]
                     and not sym_flags[("2", "1b", "2b")]))
    p4 = next(p for p in symp_paths(sd, 2) if p.wires_by_name() == ("2", "1", "2b"))
    out.append(_eq("mirror of the fourth path", mirror(p4).wires_by_name(), ("2", "1b", "2b")))
    out.append(_true("mirror is an involution", mirror(mirror(p4)) == p4))
    sd3 = build_symp_diagram(_word("1,3,2,1,3,2,1,3,2"))
    P = next(p for p in symp_paths(sd3, 3) if p.wires_by_name() == ("3", "1b", "2", "3b"))
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
        ch = chamber_structure(dd)
        for k in (1, 2, 3):
            for p in enumerate_paths(orient(dd, k)):
                total = [0] * 6
                for j in enclosed_region(p):
                    total = [a + b for a, b in zip(total, ch.u_form(j))]
                if tuple(total) != functional_A(p).coeffs:
                    ident_ok = False
    out.append(_true("path functional is the enclosed chamber sum", ident_ok))
    sd4 = build_symp_diagram(_word("2,1,3,2,1,3,2,1,3"))
    P2 = next(p for p in symp_paths(sd4, 2) if p.wires_by_name() == ("2", "1b", "3"))
    out.append(_eq("worked extension", extension(P2).wires_by_name(),
                   ("2", "1b", "1", "2b", "3")))
    Pex = extension(P)
    out.append(_true("wall extension fills the union region",
                     enclosed_region(Pex) == enclosed_region(P) | enclosed_region(mirror(P))
                     and is_symmetric(Pex)))
    ext_ok = True
    for wtxt in ("2,1,2,1", "1,2,1,2"):
        sdd = build_symp_diagram(_word(wtxt))
        for p in all_symp_paths(sdd):
            e = extension(p)
            if extension(e) != e or extension_by_search(p) != e:
                ext_ok = False
            r, re_, un = (enclosed_region(p), enclosed_region(e),
                          enclosed_region(p) | enclosed_region(mirror(p)))
            if not (r <= re_ <= un):
                ext_ok = False
            if p.k == sdd.n and not is_symmetric(e):
                ext_ok = False
    out.append(_true("extension invariants at rank 2", ext_ok))
    sd5 = build_symp_diagram(_word("3,2,1,3,2,3,2,1,2"))
    names = [p.wires_by_name() for p in canonical_paths(sd5)]
    out.append(_true("canonical path table rows",
                     ("3", "2", "1b", "1", "2b", "3b") in names
                     and ("1", "3", "2") in names))
    out.append(_eq("canonical path count", len(names), 5))
    out.append(_true("canonical paths are new",
                     all(is_new(p, sd5.word) for p in canonical_paths(sd5))))
    inner = next(p for p in symp_paths(sd5, 2) if "1" not in p.wires_by_name()
                 and "1b" not in p.wires_by_name())
    out.append(_true("wire-avoiding path is not new", not is_new(inner, sd5.word)))
    return out


def _cone_checks(n: int) -> list[Check]:
    out = []
    a3 = LieType("A", 3)
    wa = _word("1,2,1,3,2,1", "A", 3)
    wa2 = _word("1,3,2,1,3,2", "A", 3)
    cone_a = string_cone(a3, wa)
    want_a = {
        _vec(6, a1=1), _vec(6, a2=1, a3=-1), _vec(6, a4=1, a5=-1),
        _vec(6, a3=1), _vec(6, a5=1, a6=-1), _vec(6, a6=1),
    }
    out.append(_eq("six inequalities of (1,2,1,3,2,1)", _forms_set(cone_a), want_a))
    cone_a2 = string_cone(a3, wa2)
    want_a2 = {
        _vec(6, a1=1), _vec(6, a3=1, a4=-1), _vec(6, a5=1, a6=-1),
        _vec(6, a6=1), _vec(6, a2=1), _vec(6, a3=1, a5=-1), _vec(6, a4=1, a6=-1),
    }
    out.append(_eq("seven inequalities of (1,3,2,1,3,2)", _forms_set(cone_a2), want_a2))
    out.append(_eq("facet counts match path counts (worked pair)",
                   (facet_count(a3, wa), facet_count(a3, wa2)), (6, 7)))
    c2 = LieType("C", 2)
    w21 = _word("2,1,2,1")
    sd = build_symp_diagram(w21)
    table = {}
    for p in symp_paths(sd, 2):
        table[p.wires_by_name()] = (
            functional_t(p).coeffs,
            functional_C_unhalved(p).coeffs,
            functional_C(p).coeffs,
        )
    want_table = {
        ("2", "2b"): (_vec(6, a1=1), (2, 0, 0, 0), (2, 0, 0, 0)),
        ("2", "1b", "1", "2b"): (_vec(6, a2=1, a3=1, a4=-1), (0, 2, -2, 0), (0, 2, -2, 0)),
        ("2", "1", "1b", "2b"): (_vec(6, a4=1, a5=-1, a6=-1), (0, 0, 2, -2), (0, 0, 2, -2)),
        ("2", "1", "2b"): (_vec(6, a2=1, a6=-1), (0, 1, 0, -1), (0, 1, 0, -1)),
        ("2", "1b", "2b"): (_vec(6, a3=1, a5=-1), (0, 1, 0, -1), (0, 1, 0, -1)),
    }
    halved = {
        ("2", "2b"): (1, 0, 0, 0),
        ("2", "1b", "1", "2b"): (0, 1, -1, 0),
        ("2", "1", "1b", "2b"): (0, 0, 1, -1),
    }
    tbl_ok = True
    for key, (tf, hat, fc) in table.items():
        wt, wh, _ = want_table[key]
        if tf != wt or hat != wh:
            tbl_ok = False
        if fc != halved.get(key, wh):
            tbl_ok = False
    out.append(_true("worked functional table for (2,1,2,1)", tbl_ok,
                     str(table)))
    cone_c = string_cone(c2, w21)
    forms = sorted(f.coeffs for f in cone_c.forms)
    out.append(_eq("raw rank-2 inequality multiset (one duplicate pair)",
                   forms,
                   sorted([(0, 0, 0, 1), (1, 0, 0, 0), (0, 1, -1, 0),
                           (0, 1, 0, -1), (0, 1, 0, -1), (0, 0, 1, -1)])))
    mini, cnt = irredundant_facets(c2, w21)
    out.append(_eq("facet count of (2,1,2,1)", cnt, 4))
    out.append(_true("duplicate pair removed as redundant",
                     (0, 1, 0, -1) not in _forms_set(mini)))
    out.append(_eq("facet count of (1,2,1,2)", facet_count(c2, _word("1,2,1,2")), 4))
    fm = fold_maps(w21)
    gamma_ok = all(
        functional_C_unhalved(p).coeffs
        == fm.double_cb(functional_B(p).coeffs) == tuple(
            sum(r * x for r, x in zip(row, functional_B(p).coeffs))
            for row in ((2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 2, 0), (0, 0, 0, 1))
        )
        for p in symp_paths(sd, 2)
    )
    out.append(_true("rescaled fold equals the type-B fold composed with doubling",
                     gamma_ok))
    c3 = LieType("C", 3)
    minij, cntj = irredundant_facets(c3, braid_variant_word(3))
    want_j = {
        _vec(9, a1=1), _vec(9, a2=2, a3=-1), _vec(9, a3=1, a4=-2), _vec(9, a4=1),
        _vec(9, a5=1, a6=-1), _vec(9, a6=1, a7=-1), _vec(9, a7=1, a8=-1),
        _vec(9, a8=1, a9=-1), _vec(9, a9=1),
    }
    out.append(_eq("block facets of the rank-3 braid variant", _forms_set(minij), want_j))
    q2 = next(p for p in symp_paths(build_symp_diagram(_word("1,3,2,1,3,2,1,3,2")), 3)
              if p.wires_by_name() == ("3", "2b", "1", "1b", "2", "3b"))
    out.append(_true("worked rank-3 symmetric-piece functional",
                     functional_C_unhalved(q2).coeffs == _vec(9, a4=2, a5=2, a6=-2)
                     and functional_C(q2).coeffs == _vec(9, a4=1, a5=1, a6=-1)))
    return out


def _classification_checks(n: int) -> list[Check]:
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
        # diagram-level classification: compare wiring diagrams, not letter strings
        def diagram_key(w):
            sd = build_symp_diagram(w)
            return tuple(sorted((nd.wires, nd.column) for nd in sd.base.nodes))
        keys = {diagram_key(w) for w in simplicial}
        expected_keys = {diagram_key(gt_adapted_word(3)), diagram_key(braid_variant_word(3))}
        out.append(_true("rank-3 simplicial diagrams exactly the two named diagrams",
                         keys == expected_keys))
        out.append(_true("named words simplicial, generic word not",
                         facet_count(c3, gt_adapted_word(3)) == 9
                         and facet_count(c3, braid_variant_word(3)) == 9
                         and facet_count(c3, _word("1,3,2,1,3,2,1,3,2")) != 9))
        mono_ok = all(
            facet_count(c3, w) >= facet_count(c2, contract(w)) + 5
            for w in enumerate_reduced_words(c3)
        )
        out.append(_true("facet counts grow by at least 2n-1 under contraction", mono_ok))
    return out


def _polytope_checks(n: int) -> list[Check]:
    out = []
    c2 = LieType("C", 2)
    rho2 = Weight.rho(c2)
    out.append(_eq("rank-2 nested polytope facet count",
                   polytopes.polytope_facet_count(gt_adapted_word(2), rho2), 8))
    zero = Weight.zero(c2)
    h0 = polytopes.string_polytope(gt_adapted_word(2), zero)
    v0 = polyhedra.to_vrep(h0, bounded_expected=True)
    out.append(_eq("zero-weight polytope is the origin",
                   v0.vertices, ((Fraction(0),) * 4,)))
    res2 = polytopes.verify_gt_theorem(2)
    gt2 = res2.gt
    out.append(_eq("rank-2 pattern polytope facet count",
                   len(polyhedra.remove_redundant(gt2).rows), 8))
    d_i2 = polytopes.string_polytope(gt_adapted_word(2), rho2)
    out.append(_eq("rank-2 lattice point counts agree",
                   (polyhedra.lattice_points(d_i2), polyhedra.lattice_points(gt2)),
                   (16, 16)))
    for m in (2, 3):
        if m > n:
            continue
        t = LieType("C", m)
        dj = polytopes.string_polytope(braid_variant_word(m), Weight.rho(t))
        pt = [Fraction(0), Fraction(3, 2), Fraction(3), Fraction(1)] + [Fraction(0)] * (m * m - 4)
        tight = dj.tight_at(pt)
        from ._linalg import rank_int
        ok = (dj.contains(pt)
              and rank_int([dj.rows[i][0] for i in tight]) == m * m
              and not polyhedra.integrality(dj)[0])
        out.append(_true(f"half-integral vertex of the rank-{m} braid variant", ok))
    out.append(_true("rank-2 pattern equivalence exactly at the nested word",
                     res2.ok(), str([(str(c.word), c.status) for c in res2.comparisons])))
    if n >= 3:
        c3 = LieType("C", 3)
        rho3 = Weight.rho(c3)
        res3 = polytopes.verify_gt_theorem(3)
        gt3 = res3.gt
        out.append(_eq("rank-3 pattern polytope facet count",
                       len(polyhedra.remove_redundant(gt3).rows), 18))
        out.append(_eq("pattern polytope f-vector",
                       polyhedra.f_vector(gt3),
                       (1, 176, 936, 2244, 3126, 2760, 1590, 594, 138, 18, 1)))
        dj3 = polytopes.string_polytope(braid_variant_word(3), rho3)
        out.append(_eq("braid-variant polytope f-vector",
                       polyhedra.f_vector(dj3),
                       (1, 175, 933, 2241, 3125, 2760, 1590, 594, 138, 18, 1)))
        out.append(_true("pattern polytope integral, braid variant not",
                         polyhedra.integrality(gt3)[0] and not polyhedra.integrality(dj3)[0]))
        facet_ok = True
        for w in enumerate_reduced_words(c3):
            if polytopes.polytope_facet_count(w, rho3) != facet_count(c3, w) + 9:
                facet_ok = False
        out.append(_true("facets of every rank-3 polytope = cone facets + 9", facet_ok))
        out.append(_true("rank-3 pattern equivalence exactly at the nested word",
                         res3.ok(),
                         str([(str(c.word), c.status) for c in res3.comparisons
                              if c.status == "equivalent"])))
    return out


def _folding_checks(n: int) -> list[Check]:
    out = []
    words = [w for w in enumerate_reduced_words(LieType("C", 2))]
    if n >= 3:
        words += [gt_adapted_word(3), braid_variant_word(3),
                  _word("1,3,2,1,3,2,1,3,2"), _word("1,2,3,1,2,3,1,2,3")]
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
                rows.append((tuple(om), Fraction(r[k])))
                rows.append((tuple(-x for x in om), -Fraction(r[k])))
            if not polyhedra.feasible(rows, dimA):
                quot_ok = False
        sd = build_symp_diagram(w)
        for p in all_symp_paths(sd):
            if functional_C_unhalved(p).coeffs != functional_C_unhalved(mirror(p)).coeffs:
                mirror_ok = False
            if p.k == w.rank and is_symmetric(p):
                if any(c % 2 for c in functional_C_unhalved(p).coeffs):
                    mirror_ok = False
    out.append(_true("doubling maps compose to multiplication by 2", comp_ok))
    out.append(_true("slice membership matches across the unfolding", slice_ok))
    out.append(_true("rescaling maps the two folded cones onto each other", sim_ok))
    out.append(_true("projection maps the lifted cone onto the folded cone", quot_ok))
    out.append(_true("mirror leaves the folded functional fixed; symmetric forms even",
                     mirror_ok))
    return out


def _oracle_checks(n: int) -> list[Check]:
    out = []
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
    out.append(_true("constrained and naive path enumerators agree (up to 5 wires)",
                     agree))
    prop_ok = True
    for rank in (1, 2, 3, 4):
        t = LieType("A", rank)
        for w in enumerate_reduced_words(t):
            raw = string_cone(t, w)
            if facet_count(t, w) != len(raw.forms):
                prop_ok = False
    out.append(_true("type-A path count equals certified facet count (up to 5 wires)",
                     prop_ok))
    return out


def paper_checks(n: int = 2) -> list[Check]:
    """Run the battery; ``n`` = 3 adds the exhaustive rank-3 sweeps."""
    checks: list[Check] = []
    checks += _weyl_checks()
    checks += _diagram_checks()
    checks += _path_checks()
    checks += _cone_checks(n)
    checks += _classification_checks(n)
    checks += _polytope_checks(n)
    checks += _folding_checks(n)
    checks += _oracle_checks(n)
    return checks
