import gc
import weakref
from fractions import Fraction

import pytest

from stringcones import cli
from stringcones._linalg import primitive
from stringcones.cones import irredundant_facets, path_forms, rigorous_paths
from stringcones.diagram import (
    OrientedDiagram,
    WiringDiagram,
    build_diagram,
    build_symp_diagram,
    chamber_structure,
    orient,
)
from stringcones.paths import (
    canonical_paths,
    enclosed_region,
    enumerate_paths,
    enumerate_paths_naive,
    extension,
    is_new,
    is_symmetric,
    mirror,
)
from stringcones.weyl import (
    LieType,
    ReducedWord,
    braid_variant_word,
    class_words,
    contract,
    enumerate_reduced_words,
    gt_adapted_word,
)

W = ReducedWord.parse


def test_five_symplectic_paths():
    sd = build_symp_diagram(W("C2", "2,1,2,1"))
    got = sorted(p.wires_by_name() for p in enumerate_paths(orient(sd, 2)))
    assert got == sorted(
        [
            ("2", "2b"),
            ("2", "1b", "1", "2b"),
            ("2", "1b", "2b"),
            ("2", "1", "2b"),
            ("2", "1", "1b", "2b"),
        ]
    )
    assert [p.wires_by_name() for p in enumerate_paths(orient(sd, 1))] == [("1", "2")]


def test_enumeration_is_deterministic():
    d = build_diagram(W("A3", "1,3,2,1,3,2"))
    assert enumerate_paths(orient(d, 3)) == enumerate_paths(orient(d, 3))
    assert [p.node_expression for p in enumerate_paths(orient(d, 3))] == sorted(
        p.node_expression for p in enumerate_paths(orient(d, 3))
    )


def test_naive_oracle_agreement_small():
    """The table-driven search against the naive enumerator, paths and order,
    on every orientation of one word per commutation class of A2-A4, B2-B3
    and C2-C3 (the symplectic diagrams with their barred orientations)."""
    for type_text in ("A2", "A3", "A4", "B2", "B3", "C2", "C3"):
        t = LieType.parse(type_text)
        for w in class_words(t):
            d = build_diagram(w) if t.family == "A" else build_symp_diagram(w)
            for u in range(1, d.m):
                od = OrientedDiagram(d, u)
                assert enumerate_paths(od) == enumerate_paths_naive(od), (w, u)


def test_peaks_and_expressions():
    sd = build_symp_diagram(W("C2", "2,1,2,1"))
    paths = {q.wires_by_name(): q for q in enumerate_paths(orient(sd, 2))}
    assert len(paths[("2", "2b")].peaks) == 1
    assert len(paths[("2", "1b", "1", "2b")].peaks) == 2  # descends to the wall and back
    for p in paths.values():
        assert p.node_expression == tuple(j for j, s in p.events if s)


def test_mirror_is_a_bijection_between_orientations():
    sd = build_symp_diagram(W("C3", "1,2,3,1,2,3,1,2,3"))
    for k in (1, 2, 3):
        paths = enumerate_paths(orient(sd, k))
        target = set(enumerate_paths(OrientedDiagram(sd, 2 * 3 - k)))
        images = {mirror(p) for p in paths}
        assert images <= target and len(images) == len(paths)
        if 2 * 3 - k == k:
            assert images == set(paths)


def test_symmetry_detection():
    sd = build_symp_diagram(W("C2", "2,1,2,1"))
    flags = {p.wires_by_name(): is_symmetric(p) for p in enumerate_paths(orient(sd, 2))}
    assert flags[("2", "2b")] and flags[("2", "1b", "1", "2b")] and flags[("2", "1", "1b", "2b")]
    assert not flags[("2", "1", "2b")] and not flags[("2", "1b", "2b")]
    with pytest.raises(ValueError):
        is_symmetric(enumerate_paths(orient(sd, 1))[0])


def polygon_region(p):
    """The earlier region code, kept as the oracle: close the drawn path
    along the bottom and run the even-odd test with a horizontal ray from a
    point just below each crossing centre."""
    base = p.diagram
    poly = cli._path_course(p, cli._courses(base))
    poly.extend([(poly[-1][0], -2), (poly[0][0], -2)])

    def inside(px, py):
        crossings = 0
        for (x1, y1), (x2, y2) in zip(poly, poly[1:] + poly[:1]):
            if y1 == y2 or not min(y1, y2) < py < max(y1, y2):
                continue
            if x1 + (Fraction(x2) - x1) * (py - y1) / (y2 - y1) > px:
                crossings += 1
        return crossings % 2 == 1

    region = set()
    for j in range(1, base.length + 1):
        x, y = 2 * base.node(j).column, 2 * (base.length - j) + 1  # the crossing's centre
        if inside(Fraction(x), Fraction(2 * y - 1, 2)):
            region.add(j)
    return frozenset(region)


def test_enclosed_region_matches_the_polygon_oracle():
    diagrams = [build_diagram(w) for w in enumerate_reduced_words(LieType("A", 3))]
    for t in (LieType("C", 2), LieType("C", 3)):
        diagrams += [build_symp_diagram(w) for w in enumerate_reduced_words(t)]
    diagrams.append(build_symp_diagram(W("C4", "4,3,2,1,3,2,4,3,4,2,3,4,1,2,1,3")))
    checked = 0
    for d in diagrams:
        for u in range(1, d.m):  # barred orientations too
            for p in enumerate_paths(OrientedDiagram(d, u)):
                assert enclosed_region(p) == polygon_region(p), (d, str(p))
                checked += 1
    assert checked == 1545


def test_enclosed_regions_are_freed_with_their_diagram():
    # By reference counting alone: a memo that held a path would tie the
    # diagram into a reference cycle, which only a GC pass frees.
    gc.disable()
    try:
        sd = build_symp_diagram(W("C3", "1,3,2,1,3,2,1,3,2"))
        paths = [p for k in (1, 2, 3) for p in enumerate_paths(orient(sd, k))]
        regions = [enclosed_region(p) | enclosed_region(mirror(p)) for p in paths]
        extended = [extension(p) for p in paths]
        canonical = canonical_paths(sd)
        assert len(regions) == len(extended) and len(canonical) == 5
        diagram = weakref.ref(sd)
        del sd, paths, extended, canonical
        assert diagram() is None
    finally:
        gc.enable()


def test_functional_is_chamber_sum():
    from stringcones.cones import path_forms

    for w in (*enumerate_reduced_words(LieType("A", 3)), *enumerate_reduced_words(LieType("A", 4))):
        d = build_diagram(w)
        u = chamber_structure(d)
        paths = [p for k in range(1, d.m) for p in enumerate_paths(orient(d, k))]
        for p, form in zip(paths, path_forms("A", paths)):
            total = [0] * d.length
            for j in enclosed_region(p):
                total = [a + b for a, b in zip(total, u[j - 1])]
            assert tuple(total) == form.coeffs


def test_extension_invariants_all_rank3_words():
    c3 = LieType("C", 3)
    for w in enumerate_reduced_words(c3):
        for p in rigorous_paths(c3, w):
            e = extension(p)
            assert extension(e) == e
            r, re_ = enclosed_region(p), enclosed_region(e)
            union = r | enclosed_region(mirror(p))
            assert r <= re_ <= union
            if p.k == 3:
                assert is_symmetric(e)


def test_extension_of_rank4_wall_paths(monkeypatch):
    # The earlier splice construction found no wall splice for 18 of this
    # word's 207 wall paths, this one among them.
    searches = []  # each depth-first path search asks for its first node once
    first_node = WiringDiagram.first_node_on_wire

    def counted(self, *args, **kwargs):
        searches.append(args)
        return first_node(self, *args, **kwargs)

    monkeypatch.setattr(WiringDiagram, "first_node_on_wire", counted)
    sd = build_symp_diagram(W("C4", "4,3,2,1,3,2,4,3,4,2,3,4,1,2,1,3"))
    wall = enumerate_paths(orient(sd, 4))
    assert len(wall) == 207
    P = next(p for p in wall if str(p) == "4 -> 3b -> 2 -> 2b -> 1 -> 3 -> 2 -> 4b")
    assert str(extension(P)) == "4 -> 3b -> 1b -> 2 -> 2b -> 1 -> 3 -> 4b"
    for p in wall:
        e = extension(p)
        assert is_symmetric(e)
        assert extension(e) == e
        assert enclosed_region(e) == enclosed_region(p) | enclosed_region(mirror(p))
    assert len(searches) == 1  # the wall orientation, searched once for all extensions


# The C3 words with a string-cone facet that no path which is its own
# extension cuts (17 facets in all); C2 has none.
C3_CONVERSE_FAILS = {
    "1,2,3,2,1,2,3,2,3", "1,2,3,2,1,3,2,3,2", "1,2,3,2,3,1,2,3,2", "1,3,2,3,2,1,2,3,2",
    "2,1,3,2,1,3,2,1,3", "2,1,3,2,1,3,2,3,1", "2,1,3,2,3,1,2,1,3", "2,1,3,2,3,1,2,3,1",
    "2,1,3,2,3,2,1,2,3", "2,3,1,2,1,3,2,1,3", "2,3,1,2,1,3,2,3,1", "2,3,1,2,3,1,2,1,3",
    "2,3,1,2,3,1,2,3,1", "2,3,1,2,3,2,1,2,3", "3,1,2,3,2,1,2,3,2",
}


@pytest.mark.parametrize("n", [2, 3])
def test_a_path_that_is_its_own_extension_cuts_a_facet(n):
    """Maximality implies irredundance: the folded inequality of every path
    that is its own extension is a facet of the string cone.  The converse
    fails on exactly the pinned C3 words."""
    t = LieType("C", n)
    converse_fails = set()
    for w in enumerate_reduced_words(t):
        paths = rigorous_paths(t, w)
        facets = {primitive(f.coeffs) for f in irredundant_facets(t, w)[0].forms}
        own = {primitive(f.coeffs) for p, f in zip(paths, path_forms("C", paths)) if extension(p) == p}
        assert own <= facets, str(w)
        if facets - own:
            converse_fails.add(str(w))
    assert converse_fails == (C3_CONVERSE_FAILS if n == 3 else set())


def test_a_facet_may_come_only_from_a_path_that_is_not_its_own_extension():
    w = W("C3", "1,2,3,2,1,2,3,2,3")
    paths = rigorous_paths(w.lie_type, w)
    facet = (0, 1, 0, 0, 0, -1, 0, 0, 0)
    assert facet in {f.coeffs for f in irredundant_facets(w.lie_type, w)[0].forms}
    cutting = [p for p, f in zip(paths, path_forms("C", paths)) if primitive(f.coeffs) == facet]
    assert [p.wires_by_name() for p in cutting] == [("1", "3", "2")]
    assert extension(cutting[0]).wires_by_name() == ("1", "3", "1b", "2")


def test_canonical_paths_all_words():
    for w in enumerate_reduced_words(LieType("C", 3)):
        sd = build_symp_diagram(w)
        cps = canonical_paths(sd)
        assert len(cps) == 5
        assert len(set(cps)) == 5
        assert all(is_new(p) for p in cps)


def canonical_paths_by_rescan(sd):
    """The earlier canonical path code, kept as the oracle: for each j, scan
    every path of all 2n - 1 orientations for the single-peaked staircase
    path peaking at wires (j, 2n), with a wire-position test against wire
    2n and the check that wire j comes just before wire 2n."""

    def wire_position_at(base, wire, level):
        return base.arrangements[level].index(wire) + 1

    def below_wire(path, wire):
        base = sd
        for v in (j for j, _ in path.events):
            node = base.node(v)
            if wire in node.wires:
                continue
            pos = wire_position_at(base, wire, v - 1)
            if wire == 2 * sd.n:
                if not node.column >= pos:
                    return False
            else:
                if not node.column < pos:
                    return False
        return True

    def strictly_decreasing(seq):
        return all(a > b for a, b in zip(seq, seq[1:]))

    def lift_path(j, by_orientation):
        base = sd
        top_wire = 2 * sd.n
        peak = next(nd.index for nd in base.nodes if nd.wires == (j, top_wire))
        found = []
        for paths in by_orientation.values():
            for p in paths:
                if p.peaks != (peak,):
                    continue
                if not below_wire(p, top_wire):
                    continue
                ws = p.wire_seq
                if top_wire not in ws:
                    continue
                cut = ws.index(top_wire)
                if cut == 0 or ws[cut - 1] != j:
                    continue
                if not (strictly_decreasing(ws[:cut]) and strictly_decreasing(ws[cut + 1 :])):
                    continue
                start = p.k
                pre_peak_ok = True
                wire = start
                for ev, switched in p.events:
                    if ev == peak:
                        break
                    other = base.node(ev).other_wire(wire)
                    if other > start:
                        pre_peak_ok = False
                        break
                    if switched:
                        wire = other
                if pre_peak_ok:
                    found.append(p)
        assert len(found) == 1, (sd, j, len(found))
        return found[0]

    by_orientation = {u: enumerate_paths(OrientedDiagram(sd, u)) for u in range(1, 2 * sd.n)}
    unique = []
    for j in range(1, 2 * sd.n):
        p = lift_path(j, by_orientation)
        if p.k > sd.n:
            p = mirror(p)
        e = extension(p)
        if e not in unique:
            unique.append(e)
    return tuple(unique)


RANK4_WORDS = (  # the contraction-row words of test_cones.py::test_rank4_spot_checks
    W("C4", "1,2,3,4,1,2,3,4,1,2,3,4,1,2,3,4"),
    W("C4", "3,2,1,2,4,3,4,2,3,2,4,3,1,2,3,4"),
    W("C4", "4,3,2,4,3,1,4,3,2,1,3,4,2,3,2,1"),
    W("C4", "4,3,2,1,3,2,4,3,4,2,3,4,1,2,1,3"),
    gt_adapted_word(4),
    braid_variant_word(4),
)


def test_canonical_paths_match_the_rescan_oracle():
    words = (*enumerate_reduced_words(LieType("C", 3)), *RANK4_WORDS)
    for w in words:
        sd = build_symp_diagram(w)
        assert canonical_paths(sd) == canonical_paths_by_rescan(sd), w
    assert len(words) == 48


def test_is_new():
    w = W("C3", "3,2,1,3,2,3,2,1,2")
    inner = next(
        p
        for p in rigorous_paths(w.lie_type, w)
        if "1" not in p.wires_by_name() and "1b" not in p.wires_by_name()
    )
    assert not is_new(inner)
    with pytest.raises(ValueError):
        is_new(rigorous_paths(LieType("C", 2), W("C2", "2,1,2,1"))[0])


def test_path_count_monotone_under_contraction():
    for w in enumerate_reduced_words(LieType("C", 3)):
        big = len(rigorous_paths(w.lie_type, w))
        small = len(rigorous_paths(LieType("C", 2), contract(w)))
        assert big >= small + 5
