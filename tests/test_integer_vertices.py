"""V-reps held as integer points over one common denominator.

The oracle is the earlier `Fraction` path, kept verbatim: double
description's homogeneous rays turned into `Fraction` vertices and sorted,
the dimension read as the rank of the vertex differences, integrality from
the denominators, and the search's integer vertices rescaled from the
`Fraction` ones.
"""

from fractions import Fraction as F
from math import lcm
from operator import sub

import pytest

from stringcones import polyhedra
from stringcones._linalg import nullspace_vector, rank_int
from stringcones.polyhedra import (
    HRep,
    PolyhedralError,
    Unbounded,
    VRep,
    feasible,
    integrality,
    search_unimodular_equivalence,
    to_vrep,
    vrep_to_hrep,
)
from stringcones.polytopes import gt_polytope_C, string_polytope
from stringcones.weyl import (
    LieType,
    Weight,
    braid_variant_word,
    enumerate_reduced_words,
    gt_adapted_word,
)

C2, C3 = LieType("C", 2), LieType("C", 3)
SQUARE_ROWS = (((1, 0), 1), ((0, 1), 1), ((-1, 0), 0), ((0, -1), 0))
OCTAHEDRON_ROWS = tuple(((a, b, c), 1) for a in (1, -1) for b in (1, -1) for c in (1, -1))


def parent_vrep(h):
    """The earlier `polyhedra._vrep`, with `Fraction` vertices: the V-rep and,
    per vertex, the bitset of the rows tight there."""
    cone = h.is_cone
    if cone:
        rows = [c for c, _ in h.rows]
    else:
        rows = [(*c, -b) for c, b in h.rows] + [(0,) * h.dim + (-1,)]
    witness = nullspace_vector(rows) if rows else None
    if witness is not None:
        if not feasible(h.rows, h.dim):
            return VRep((), ()), ()
        raise Unbounded(
            "system has a lineality direction; not a bounded polytope",
            ray=tuple(witness[: h.dim]),
        )
    rays = polyhedra._dd_rays(rows, h.dim if cone else h.dim + 1)
    if cone:
        return VRep(((F(0),) * h.dim,), tuple(r for r, _ in rays)), ((1 << len(rows)) - 1,)
    vertices = sorted((tuple(F(x, r[-1]) for x in r[:-1]), z) for r, z in rays if r[-1] > 0)
    if not vertices:
        return VRep((), ()), ()
    rec_rays = sorted(r[:-1] for r, _ in rays if r[-1] == 0)
    return VRep(tuple(v for v, _ in vertices), tuple(rec_rays)), tuple(z for _, z in vertices)


def parent_integrality(verts):
    for v in verts:
        if any(x.denominator != 1 for x in v):
            return False, v
    return True, None


def parent_table(h):
    """The incidence table with the earlier dimension, and its vertices
    rescaled to integers as the earlier search did, over the least common
    denominator of the `Fraction` vertices."""
    table = polyhedra._incidences(HRep(h.dim, h.rows))
    verts = parent_vrep(h)[0].vertices
    den = lcm(*(x.denominator for v in verts for x in v))
    points = tuple(tuple(int(x * den) for x in v) for v in verts)
    dim = rank_int([list(map(sub, p, points[0])) for p in points[1:]])
    return polyhedra._IncidenceTable(dim, points, table.incidences, den)


def regular_c2_weights():
    return [Weight(C2, (a, s - a)) for s in range(2, 7) for a in range(1, s)]


def c2_battery():
    """GT2 and both C2 words at the 15 regular weights with l1 + l2 <= 6."""
    out = []
    for lam in regular_c2_weights():
        out.append(gt_polytope_C(lam, 2))
        out += [string_polytope(w, lam) for w in enumerate_reduced_words(C2)]
    return out


def small_battery():
    rho3 = Weight.rho(C3)
    flat2, flat3 = Weight(C2, (1, 0)), Weight(C3, (1, 0, 0))
    return [
        gt_polytope_C(rho3, 3),
        string_polytope(gt_adapted_word(3), rho3),
        string_polytope(braid_variant_word(3), rho3),
        # lower-dimensional: Gelfand-Tsetlin and string polytopes at non-regular weights
        gt_polytope_C(flat2, 2),
        gt_polytope_C(flat3, 3),
        *(string_polytope(w, flat2) for w in enumerate_reduced_words(C2)),
        HRep(2, SQUARE_ROWS + (((0, 0), 0),)),  # a `0 <= 0` row
        HRep(3, OCTAHEDRON_ROWS),
        vrep_to_hrep(VRep(((F(1, 2), 0), (0, F(1, 3)), (1, 1)), ())),  # non-integral vertices
        HRep(2, (((2, 1), 3), ((-1, 0), 0), ((0, -1), 0), ((1, 3), 2))),
    ]


@pytest.mark.parametrize("battery", [c2_battery, small_battery])
def test_integer_vertices_match_the_fraction_path(battery):
    polys = battery()
    lower = [h for h in polys if polyhedra._incidence_table(h).dim < h.dim]
    assert len(lower) == (4 if battery is small_battery else 0)
    for h in polys:
        expected, tight = parent_vrep(HRep(h.dim, h.rows))
        table = polyhedra._incidence_table(h)
        vertices = tuple(tuple(F(x, table.den) for x in p) for p in table.vertices)
        vrep = to_vrep(h)
        assert vertices == vrep.vertices == expected.vertices
        assert polyhedra._vrep(h)[2] == tight and vrep.rays == expected.rays
        assert all(type(x) is F for v in vrep.vertices for x in v)
        assert table.den == lcm(*(x.denominator for v in expected.vertices for x in v))
        points = [[int(x * table.den) for x in v] for v in expected.vertices]
        assert table.dim == rank_int([list(map(sub, p, points[0])) for p in points[1:]])
        assert integrality(h) == parent_integrality(expected.vertices)


def test_search_on_c2_pairs_matches_the_fraction_path(monkeypatch):
    """Every C2 word against GT2 at the regular weights: the same verdict,
    stage, map, shift and witness as with the tables of the `Fraction` path."""
    polys = c2_battery()
    got = []
    for i in range(0, len(polys), 3):
        gt, *words = polys[i : i + 3]
        got += [search_unimodular_equivalence(p, gt) for p in words]
    assert {r.status for r in got} == {"equivalent", "inequivalent"}
    monkeypatch.setattr(polyhedra, "_incidence_table", parent_table)
    monkeypatch.setattr(
        polyhedra, "integrality", lambda h: parent_integrality(parent_vrep(h)[0].vertices)
    )
    expected = []
    for i in range(0, len(polys), 3):
        gt, *words = (HRep(h.dim, h.rows) for h in polys[i : i + 3])
        expected += [search_unimodular_equivalence(p, gt) for p in words]
    assert got == expected


def test_empty_and_line_systems_keep_their_v_rep():
    """The lineality witness is computed only when the rows do not span."""
    strip = HRep(2, (((1, 0), 1), ((-1, 0), -2)))
    assert to_vrep(strip) == parent_vrep(strip)[0] == VRep((), ())
    line = HRep(2, (((1, 0), 1), ((-1, 0), 0)))
    rays = []
    for vrep in (to_vrep, parent_vrep):
        with pytest.raises(Unbounded, match="lineality direction") as err:
            vrep(HRep(2, line.rows))
        rays.append(err.value.ray)
    assert rays[0] == rays[1] == (0, -1)
    with pytest.raises(Unbounded, match="lineality direction"):
        to_vrep(HRep(2, ()))
    with pytest.raises(PolyhedralError, match="empty polytope"):
        polyhedra._incidence_table(strip)


def test_equivalence_search_builds_no_fraction(monkeypatch):
    """A fresh incidence table and the search, GT3 against the nested C3 word
    and against its braid variant, build no `Fraction`; `to_vrep` still
    gives `Fraction` vertices afterwards."""
    built = []

    class Counted(F):
        def __new__(cls, *args, **kwargs):
            built.append(args)
            return super().__new__(cls, *args, **kwargs)

    rho = Weight.rho(C3)
    pairs = [
        (string_polytope(w, rho), gt_polytope_C(rho, 3))
        for w in (gt_adapted_word(3), braid_variant_word(3))
    ]
    assert not any("vrep" in h._memo for pair in pairs for h in pair)
    monkeypatch.setattr(polyhedra, "Fraction", Counted)
    verdicts = []
    for p, q in pairs:
        polyhedra._incidence_table(p)
        verdicts.append(search_unimodular_equivalence(p, q).status)
    assert verdicts == ["equivalent", "inequivalent"]
    assert built == []
    vertices = to_vrep(pairs[0][1]).vertices
    assert len(vertices) == 176 and all(type(x) is Counted for v in vertices for x in v)
