import gc
import itertools
import random
import weakref
from collections import Counter, namedtuple
from fractions import Fraction as F
from math import lcm
from operator import mul

import pytest

from stringcones import cones, polyhedra
from stringcones.cli import _load_polytope
from stringcones.cones import string_cone
from stringcones._linalg import (
    content,
    det_int,
    echelon,
    independent_rows,
    inverse_int,
    primitive,
    rank_int,
)
from stringcones.polyhedra import (
    HRep,
    PolyhedralError,
    ResourceLimit,
    Unbounded,
    VRep,
    f_vector,
    feasible,
    integrality,
    lattice_points,
    normalized_volume,
    remove_redundant,
    search_unimodular_equivalence,
    to_vrep,
    verify_unimodular_map,
    vrep_to_hrep,
)
from stringcones.polytopes import gt_polytope_C, string_polytope
from stringcones.weyl import LieType, ReducedWord, Weight, class_words, enumerate_reduced_words

SQUARE = HRep(2, (((1, 0), 1), ((0, 1), 1), ((-1, 0), 0), ((0, -1), 0)))


def dilate(h, t):
    return HRep(h.dim, tuple((c, b * t) for c, b in h.rows))


def box(d, size):
    rows = []
    for k in range(d):
        e = [0] * d
        e[k] = 1
        rows.append((tuple(e), size))
        rows.append((tuple(-x for x in e), size))
    return rows


def random_polytope(rng, d, extra):
    rows = [
        (tuple(rng.randint(-3, 3) for _ in range(d)), rng.randint(1, 5))
        for _ in range(extra)
    ]
    return HRep(d, tuple(rows + box(d, 4)))


def integer_row(c, b):
    """The row ``c . x <= b`` (int or `Fraction` entries) times the least
    common denominator of its entries: the same half-space in integers."""
    den = lcm(*(F(x).denominator for x in (*c, b)))
    return tuple(int(x * den) for x in c), int(b * den)


def fraction_nonneg_feasible(eq_rows, rhs) -> bool:
    """Reference for `polyhedra._nonneg_feasible`: the same phase-1 tableau
    and pivot rule, in `Fraction` arithmetic."""
    m = len(eq_rows)
    if m == 0:
        return True
    n = len(eq_rows[0])
    tab = []
    for row, b in zip(eq_rows, rhs):
        row = [F(x) for x in row]
        b = F(b)
        if b < 0:
            row = [-x for x in row]
            b = -b
        tab.append(row + [b])
    basis = [None] * m  # None marks the artificial variable of the row
    obj = [sum(tab[i][j] for i in range(m) if basis[i] is None) for j in range(n + 1)]
    while True:
        enter = next((j for j in range(n) if obj[j] > 0), None)
        if enter is None:
            return obj[n] == 0
        leave = None
        best = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][n] / tab[i][enter]
                key = (ratio, basis[i] if basis[i] is not None else n + i)
                if best is None or key < best:
                    best = key
                    leave = i
        if leave is None:
            return obj[n] == 0  # unbounded cannot happen for phase 1
        piv = tab[leave][enter]
        tab[leave] = [x / piv for x in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[leave])]
        f = obj[enter]
        if f:
            obj = [x - f * y for x, y in zip(obj, tab[leave])]
        basis[leave] = enter


def parent_irredundant_indices(rows, dim) -> list[int]:
    """Reference for `polyhedra._irredundant_indices`: the redundancy removal
    before ray shooting, one LP per row, kept verbatim."""
    live = list(range(len(rows)))
    seen: dict[tuple, int] = {}
    for i, (c, b) in enumerate(rows):
        key = (c, b)
        if key in seen or all(x == 0 for x in c):
            live.remove(i)
        else:
            seen[key] = i
    for i in list(live):
        others = [rows[j] for j in live if j != i]
        if polyhedra._implied(rows[i], others, dim):
            live.remove(i)
    return live


def parent_first_hit(rows, live, slack, d):
    """Reference for `polyhedra._first_hit`: a dense product with every live
    row, kept verbatim."""
    best, tied = None, False
    for j in live:
        c = rows[j][0]
        a = sum(map(mul, c, d))
        if a <= 0:
            continue
        if best is None:
            best, a_best, c_best, s_best = j, a, c, slack[j]
            continue
        s = slack[j]
        here, there = a * s_best, a_best * s
        if here == there:
            # the perturbation: compare c / s with c_best / s_best
            here, there = next(
                ((x * s_best, y * s) for x, y in zip(c, c_best) if x * s_best != y * s),
                (0, 0),
            )
            if here == there:
                tied = True
                continue
        if here > there:
            best, a_best, c_best, s_best, tied = j, a, c, s, False
    return None if tied else best


def parent_dd_rays(rows, dim):
    """Reference for `polyhedra._dd_rays`: double description that rebuilds
    each new ray's zero set by dot products, kept verbatim; returns the
    sorted rays alone."""
    init_idx = independent_rows(rows)
    if len(init_idx) != dim:
        raise PolyhedralError(
            "rows do not span: the cone contains a line, or the points are not full-dimensional"
        )
    init = [rows[i] for i in init_idx]
    rest = sorted(
        (rows[i] for i in range(len(rows)) if i not in set(init_idx)),
    )
    # the initial rays are the columns of -init^{-1}, read from d * init^{-1}
    inv, d = inverse_int(init)
    sign = 1 if d > 0 else -1
    rays = [primitive([-sign * row[k] for row in inv]) for k in range(dim)]

    processed = list(init)

    def zero_set(ray):
        bits = 0
        for i, row in enumerate(processed):
            if sum(a * b for a, b in zip(row, ray)) == 0:
                bits |= 1 << i
        return bits

    zsets = [zero_set(r) for r in rays]

    for row in rest:
        vals = [sum(a * b for a, b in zip(row, r)) for r in rays]
        if all(v <= 0 for v in vals):
            processed.append(row)
            bit = 1 << (len(processed) - 1)
            zsets = [z | (bit if v == 0 else 0) for z, v in zip(zsets, vals)]
            continue
        neg = [i for i, v in enumerate(vals) if v < 0]
        zero = [i for i, v in enumerate(vals) if v == 0]
        pos = [i for i, v in enumerate(vals) if v > 0]
        new_rays = []
        new_zsets = []
        for i in neg:
            for j in pos:
                common = zsets[i] & zsets[j]
                if any(
                    k != i and k != j and (common & zsets[k]) == common
                    for k in range(len(rays))
                ):
                    continue
                combo = [vals[j] * a - vals[i] * b for a, b in zip(rays[i], rays[j])]
                new_rays.append(primitive(combo))
        processed.append(row)
        bit = 1 << (len(processed) - 1)
        kept_rays = [rays[i] for i in neg + zero]
        kept_zsets = [zsets[i] | (bit if i in zero else 0) for i in neg + zero]
        for ray in new_rays:
            z = zero_set(ray)
            kept_rays.append(ray)
            kept_zsets.append(z)
        rays = kept_rays
        zsets = kept_zsets
    return sorted(set(tuple(r) for r in rays))


def assert_shooting_matches_parent(rows, dim) -> set[int]:
    """`_irredundant_indices` keeps the reference's indices, in order, or
    returns None on an empty system; the reference keeps every row that a
    ray meets and drops every row that the two-term test drops.  With an
    interior point the tableaux number at most one, plus one per row the
    rays leave undecided.  Returns the rows the rays certify; every ray is
    shot before any LP decides a row."""
    shot, met, dropped, points = set(), set(), set(), []
    tableaux = 0
    shoot, first_hit, two_term = polyhedra._shoot, polyhedra._first_hit, polyhedra._two_term
    farkas, interior = polyhedra._farkas, polyhedra._interior_point

    def recording(rows, cols, slack, i, dim, certify):
        def recording_certify(j):
            shot.add(j)
            certify(j)

        shoot(rows, cols, slack, i, dim, recording_certify)

    def recording_hit(rows, cols, slack, d):
        j = first_hit(rows, cols, slack, d)
        met.add(j)
        return j

    def recording_two_term(row, normals):
        found = two_term(row, normals)
        if found:
            dropped.add(row)
        return found

    def counted_farkas(*args):
        nonlocal tableaux
        tableaux += 1
        return farkas(*args)

    def recording_interior(rows, dim):
        points.append(interior(rows, dim))
        return points[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polyhedra, "_shoot", recording)
        mp.setattr(polyhedra, "_first_hit", recording_hit)
        mp.setattr(polyhedra, "_two_term", recording_two_term)
        mp.setattr(polyhedra, "_farkas", counted_farkas)
        mp.setattr(polyhedra, "_interior_point", recording_interior)
        kept = polyhedra._irredundant_indices(rows, dim)
    if kept is None:
        assert not feasible(rows, dim)
        return shot
    expected = parent_irredundant_indices(rows, dim)
    assert kept == expected
    assert met - {None} <= set(expected)
    assert dropped.isdisjoint(rows[j] for j in expected)
    if points and points[0] is not None:
        live = {(c, b) for c, b in rows if any(c)}
        undecided = len(live) - len(shot)
        assert tableaux <= 1 + undecided
    return shot


def _affine_reduce(vertices):
    """Exact coordinates of the vertices inside their own affine hull.

    The differences ``v - v0`` are projected onto the pivot columns of their
    echelon form (taken over their common denominator, as `echelon` takes
    ints); that projection is injective on the affine hull.
    """
    v0 = vertices[0]
    den = lcm(*(x.denominator for v in vertices for x in v))
    pivots = echelon([[int((a - b) * den) for a, b in zip(v, v0)] for v in vertices[1:]])[1]
    return [tuple(v[c] - v0[c] for c in pivots) for v in vertices], len(pivots)


# faces: {vertex bitset: dimension}, every non-empty face
Lattice = namedtuple("Lattice", "dim vertices incidences faces")


def rank_face_lattice(h):
    """Reference for the incidence table and `polyhedra._faces`: the closure
    of the vertex-facet incidences with one `rank_int` per face for its
    dimension.  A lower-dimensional polytope is projected into its affine
    hull and its facets come from a second double description there."""
    vr = to_vrep(h)
    if vr.rays:
        raise Unbounded("input is unbounded", ray=vr.rays[0])
    verts = vr.vertices
    if not verts:
        raise PolyhedralError("empty polytope has no face lattice")
    reduced, dim = _affine_reduce(verts)
    if dim == 0:
        return Lattice(0, verts, (), {(1 << len(verts)) - 1: 0})
    minimal = (
        remove_redundant(h)
        if dim == h.dim
        else vrep_to_hrep(VRep(tuple(reduced), ()))
    )
    points = verts if dim == h.dim else tuple(reduced)
    incidences = []
    for row, b in minimal.rows:
        bits = 0
        for vi, v in enumerate(points):
            if sum(c * x for c, x in zip(row, v)) == b:
                bits |= 1 << vi
        incidences.append(bits)

    normals = [row for row, _ in minimal.rows]
    all_bits = (1 << len(verts)) - 1
    seen = {all_bits: dim}
    queue = [all_bits]
    while queue:
        bits = queue.pop()
        for inc in incidences:
            nb = bits & inc
            if nb == 0 or nb == bits or nb in seen:
                continue
            tight = [normals[i] for i, inc2 in enumerate(incidences) if nb & ~inc2 == 0]
            seen[nb] = dim - rank_int(tight)
            queue.append(nb)
    return Lattice(dim, verts, tuple(incidences), seen)


def assert_lattice_matches_rank_oracle(h):
    """On a fresh copy of ``h``, the incidence table, the V-rep's vertices,
    `_faces` and `f_vector` equal the oracle's, or both raise alike; returns
    the oracle's lattice.

    On a full-dimensional polytope the incidences are equal in order.  On a
    lower-dimensional one the oracle lists its facets in the order of its
    second double description, so they are compared as a set.
    """
    try:
        expected = rank_face_lattice(HRep(h.dim, h.rows))
    except PolyhedralError as exc:
        with pytest.raises(type(exc)):
            f_vector(HRep(h.dim, h.rows))
        return None
    fresh = HRep(h.dim, h.rows)
    table = polyhedra._incidence_table(fresh)
    assert (table.dim, to_vrep(fresh).vertices) == (expected.dim, expected.vertices)
    assert polyhedra._faces(fresh) == expected.faces
    counts = Counter(expected.faces.values())
    assert f_vector(fresh) == (1, *(counts[d] for d in range(expected.dim + 1)))
    if expected.dim == h.dim:
        assert table.incidences == expected.incidences
    else:
        assert sorted(table.incidences) == sorted(expected.incidences)
    return expected


def test_simplex_known_values():
    """The one LP answers both questions asked of it: redundancy and emptiness."""
    assert polyhedra._implied(((1, 1), 2), SQUARE.rows, 2)
    assert not polyhedra._implied(((1, 1), 1), SQUARE.rows, 2)
    assert feasible((((1, 0), 1), ((-1, 0), -2)), 2) is False
    assert feasible((((-1,), 0),), 1) is True  # unbounded, not empty
    assert feasible((((-1,), -2), ((1,), 5)), 1) is True


def test_simplex_against_float_solver():
    """`feasible` agrees with HiGHS on random systems; both verdicts occur."""
    scipy = pytest.importorskip("scipy.optimize")
    rng = random.Random(5)
    verdicts = Counter()
    for _ in range(80):
        d = rng.randint(1, 4)
        rows = [
            (tuple(rng.randint(-4, 4) for _ in range(d)), rng.randint(-6, 6))
            for _ in range(rng.randint(d + 1, d + 6))
        ]
        res = scipy.linprog(
            [0] * d,
            A_ub=[list(r) for r, _ in rows],
            b_ub=[float(b) for _, b in rows],
            bounds=[(None, None)] * d,
            method="highs",
        )
        assert res.status in (0, 2)
        assert feasible(rows, d) == (res.status == 0)
        verdicts[res.status] += 1
    assert verdicts[0] and verdicts[2]


def test_feasible_point():
    assert feasible(SQUARE.rows, 2) is True
    assert feasible((((1,), 0), ((-1,), -1)), 1) is False
    # x / 2 <= 1 / 3 and -x / 3 <= -1 / 5 in integers: 3/5 <= x <= 2/3, then 7/10 <= x
    assert feasible((((3,), 2), ((-5,), -3)), 1) is True
    assert feasible((((3,), 2), ((-10,), -7)), 1) is False
    assert feasible((((0, 0), -1),), 2) is False  # an all-zero row with b < 0
    assert feasible((), 0) is True
    assert feasible((((), -1),), 0) is False


@pytest.mark.parametrize(
    "build,entry",
    [
        (lambda: HRep(1, (((0.5,), 1),)), "0.5"),
        (lambda: HRep(1, ((("1",), 1),)), "'1'"),
        (lambda: feasible((((1,), 0), ((0.5,), 1)), 1), "0.5"),
        (lambda: HRep(1, (((F(1, 2),), 1),)), "Fraction(1, 2)"),
        (lambda: feasible((((F(1, 2),), 1),), 1), "Fraction(1, 2)"),
        (lambda: HRep(1, (((None,), 1),)), "None"),
    ],
    ids=["float-in-hrep", "str-in-hrep", "float-in-feasible", "fraction-in-hrep",
         "fraction-in-feasible", "none-in-hrep"],
)
def test_an_entry_that_is_not_rational_is_a_polyhedral_error(build, entry):
    """The kernel reads integer rows only: a `Fraction` is refused as a
    float is, naming the entry."""
    with pytest.raises(PolyhedralError) as raised:
        build()
    assert str(raised.value) == f"entry {entry} is not an int"


def test_remove_redundant_worked():
    h = HRep(2, (((1, 1), 1), ((2, 2), 2), ((-1, 0), 0), ((0, -1), 0), ((1, 1), 5)))
    mini = remove_redundant(h)
    assert set(mini.rows) == {((1, 1), F(1)), ((-1, 0), F(0)), ((0, -1), F(0))}
    assert remove_redundant(mini).rows == mini.rows
    rev = remove_redundant(HRep(2, tuple(reversed(h.rows))))
    assert set(rev.rows) == set(mini.rows)


def test_minimal_system_of_a_lower_dimensional_set_depends_on_row_order():
    # the origin of the plane: which rows stay depends on their order, so only a
    # full-dimensional string polytope shares its minimal system (`polytopes`)
    rows = (((1, 0), 0), ((-1, 0), 0), ((0, 1), 0), ((0, -1), 0), ((-1, -1), 0))
    assert len(remove_redundant(HRep(2, rows)).rows) == 3
    assert len(remove_redundant(HRep(2, rows[::-1])).rows) == 4


def test_remove_redundant_infeasible():
    h = HRep(1, (((1,), 0), ((-1,), -1)))
    assert remove_redundant(h).rows == (((0,), F(-1)),)


@pytest.fixture
def lp_counts(monkeypatch):
    """Counts `_farkas` tableaux and `feasible` calls."""
    counts = Counter()
    farkas, feasible_ = polyhedra._farkas, polyhedra.feasible

    def counted_farkas(*args):
        counts["_farkas"] += 1
        return farkas(*args)

    def counted_feasible(*args):
        counts["feasible"] += 1
        return feasible_(*args)

    monkeypatch.setattr(polyhedra, "_farkas", counted_farkas)
    monkeypatch.setattr(polyhedra, "feasible", counted_feasible)
    return counts


def test_full_dimensional_emptiness_comes_from_the_interior_point(lp_counts):
    """GT2 at rho has an interior point, which proves it non-empty: its
    redundancy removal runs no `feasible` and exactly the tableaux of
    `_irredundant_indices`, one fewer than with a feasibility LP first."""
    gt = gt_polytope_C(Weight.rho(LieType("C", 2)), 2)
    polyhedra._irredundant_indices(gt.rows, gt.dim)
    alone = lp_counts["_farkas"]
    lp_counts.clear()
    assert len(remove_redundant(HRep(gt.dim, gt.rows)).rows) == 8
    assert lp_counts == {"_farkas": alone}


@pytest.mark.parametrize(
    "rows,want,lps",
    [
        # empty: the canonical 0 <= -1, decided by `feasible` (no interior point)
        ((((1, 0), 0), ((-1, 0), -1), ((0, 1), 1)), (((0, 0), -1),), 1),
        # a zero row with b < 0 empties a square that has an interior point
        ((((1, 0), 1), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0), ((0, 0), -1)),
         (((0, 0), -1),), 0),
        # a segment in the plane: no interior point, `feasible` finds it non-empty
        ((((1, 0), 1), ((-1, 0), -1), ((0, 1), 2), ((0, -1), 0), ((1, 1), 5)),
         (((1, 0), 1), ((-1, 0), -1), ((0, 1), 2), ((0, -1), 0)), 1),
        # a segment with every b >= 0: it contains 0, so no LP decides emptiness
        ((((1, 0), 1), ((-1, 0), 0), ((0, 1), 0), ((0, -1), 0), ((1, 1), 5)),
         (((1, 0), 1), ((-1, 0), 0), ((0, 1), 0), ((0, -1), 0)), 0),
    ],
)
def test_feasible_runs_only_without_an_interior_point(lp_counts, rows, want, lps):
    assert remove_redundant(HRep(2, rows)).rows == want
    assert lp_counts["feasible"] == lps


def test_redundancy_against_vertex_incidence_oracle():
    rng = random.Random(7)
    for _ in range(20):
        h = random_polytope(rng, 4, 9)
        mini = remove_redundant(h)
        vr = to_vrep(h)
        assert vr.rays == ()
        verts = vr.vertices
        facets = set()
        for c, b in h.rows:
            tight = [v for v in verts if sum(ci * vi for ci, vi in zip(c, v)) == b]
            if len(tight) >= 4:
                den = lcm(*(x.denominator for v in tight for x in v))
                diffs = [[int((x - y) * den) for x, y in zip(v, tight[0])] for v in tight[1:]]
                if rank_int(diffs) == 3:
                    facets.add((c, b))
        assert facets == set(mini.rows)


def test_cone_redundancy():
    rows = [(-1, 0), (0, -1), (-1, -1)]
    assert polyhedra._irredundant_indices(tuple((c, 0) for c in rows), 2) == [0, 1]


@pytest.mark.parametrize("t", [LieType("A", 3), LieType("B", 3), LieType("C", 3)])
def test_cone_redundancy_against_fraction_tableau(t, monkeypatch):
    """On every rank-3 word, the integer tableau keeps the rows that the
    `Fraction` reference keeps."""
    systems = []
    for w in enumerate_reduced_words(t):
        cone = string_cone(t, w, deduplicate=True)
        rows = [tuple(-c for c in f.coeffs) for f in cone.forms]
        kept = polyhedra._irredundant_indices(tuple((c, 0) for c in rows), cone.dim)
        systems.append((rows, cone.dim, kept))
    monkeypatch.setattr(polyhedra, "_nonneg_feasible", fraction_nonneg_feasible)
    for rows, dim, kept in systems:
        assert polyhedra._irredundant_indices(tuple((c, 0) for c in rows), dim) == kept


def test_cone_redundancy_runs_no_feasibility_lp(monkeypatch):
    """A cone contains 0, so its redundancy removal never asks `feasible`."""

    def refuse(rows_le, dim):
        raise AssertionError("feasible called on a cone system")

    monkeypatch.setattr(polyhedra, "feasible", refuse)
    rows = [(-1, 0), (0, -1), (-1, -1)]
    assert polyhedra._irredundant_indices(tuple((c, 0) for c in rows), 2) == [0, 1]
    rows = [(0, 0), (-1, -1), (-1, 0), (0, -1)]
    assert polyhedra._irredundant_indices(tuple((c, 0) for c in rows), 2) == [2, 3]


C4_CLASS_WORDS = (  # the benchmark's twelve fixed C4 classes, then the nested word and its braid variant
    "3,2,1,2,4,3,4,2,3,2,4,3,1,2,3,4",
    "4,3,2,1,4,3,4,3,2,3,1,2,4,3,2,1",
    "2,3,4,1,2,3,4,2,1,2,3,2,1,4,3,4",
    "2,3,1,4,3,2,1,3,4,3,2,3,4,3,4,1",
    "2,1,2,4,3,2,4,1,3,2,4,1,3,4,2,3",
    "3,4,1,2,3,4,3,2,1,2,3,4,3,2,3,4",
    "2,3,4,3,2,1,3,2,3,4,3,4,2,3,4,1",
    "3,4,3,2,1,3,4,3,2,3,4,3,1,4,2,1",
    "3,1,2,3,4,3,2,4,1,2,3,4,3,2,3,4",
    "3,2,4,3,2,4,1,3,2,4,3,4,3,2,1,2",
    "1,2,3,4,3,1,2,3,4,1,3,4,2,3,4,3",
    "1,2,3,1,4,3,2,3,1,4,3,2,3,4,3,4",
    "4,3,4,3,2,3,4,3,2,1,2,3,4,3,2,1",
    "3,4,3,4,2,3,4,3,2,1,2,3,4,3,2,1",
)


def cone_rows(t, w):
    """The rows ``(c, 0)`` whose redundancy `cones.irredundant_facets` decides for a string cone."""
    cone = string_cone(t, w, deduplicate=True)
    return tuple((tuple(-c for c in f.coeffs), 0) for f in cone.forms), cone.dim


@pytest.mark.parametrize("type_text", ["A3", "B3", "C3"])
def test_ray_shooting_keeps_the_parent_rows_on_rank3_cones(type_text):
    t = LieType.parse(type_text)
    shot = 0
    for w in enumerate_reduced_words(t):
        shot += len(assert_shooting_matches_parent(*cone_rows(t, w)))
    assert shot > 0


@pytest.mark.parametrize("coeffs", [(1, 1, 1), (2, 1, 3)], ids=["rho", "2-1-3"])
@pytest.mark.parametrize("type_text", ["C3", "B3"])
def test_ray_shooting_keeps_the_parent_rows_on_rank3_string_polytopes(type_text, coeffs):
    """At rho the rays certify every weight facet; at (2, 1, 3) they leave
    some weight rows to an LP."""
    lam = Weight(LieType.parse(type_text), coeffs)
    for w in enumerate_reduced_words(lam.lie_type):
        h = string_polytope(w, lam)
        assert assert_shooting_matches_parent(h.rows, h.dim)


def test_ray_shooting_keeps_the_parent_rows_on_c4_classes():
    c4 = LieType("C", 4)
    for text in C4_CLASS_WORDS:
        assert assert_shooting_matches_parent(*cone_rows(c4, ReducedWord.parse("C4", text)))


@pytest.mark.parametrize(
    "type_text,weights,texts",
    [
        # the 15 weights of the benchmark's gt_equivalence_c2
        ("C2", [(a, s - a) for s in range(2, 7) for a in range(1, s)], None),
        ("C3", [(1, 1, 1), (1, 0, 1), (0, 1, 0)], None),
        ("B3", [(1, 1, 1)], None),
        ("C4", [(1, 1, 1, 1)], C4_CLASS_WORDS),
    ],
)
def test_polytope_rows_passed_directly_keep_the_parent_rows(type_text, weights, texts):
    """String-polytope rows passed to `_irredundant_indices` directly, as a
    class whose lowest-weight certificate fails passes them, keep the
    reference's rows: at a regular weight from the written-down interior
    point, and at a singular weight, which leaves no interior point, by
    the LP pass alone."""
    t = LieType.parse(type_text)
    if texts:
        words = [ReducedWord.parse(type_text, text) for text in texts]
    else:
        words = list(enumerate_reduced_words(t))
    for coeffs in weights:
        lam = Weight(t, coeffs)
        for w in words:
            h = string_polytope(w, lam)
            assert_shooting_matches_parent(h.rows, h.dim)


def test_polytope_keeps_exactly_the_cone_facets_at_rho():
    """At rho every weight row has ``b > 0``, so near 0 the string polytope
    is the string cone: the ``b = 0`` rows it keeps are, in order, the
    facets `cones.irredundant_facets` finds, on the 14 C3 classes and the C4
    class words."""
    c3, c4 = LieType("C", 3), LieType("C", 4)
    cases = [(c3, w) for w in class_words(c3)]
    cases += [(c4, ReducedWord.parse("C4", text)) for text in C4_CLASS_WORDS]
    for t, w in cases:
        cone, _ = cones.irredundant_facets(t, w)
        kept = remove_redundant(string_polytope(w, Weight.rho(t))).rows
        assert [row for row in kept if row[1] == 0] == [
            (tuple(-c for c in f.coeffs), 0) for f in cone.forms
        ]


def test_c3_polytopes_at_rho_work_bound(lp_counts):
    """The 42 C3 string polytopes at rho, from an empty class cache, take
    no tableau: each class passes the lowest-weight certificate, so only
    its cone's redundancy runs, and the rays certify every facet of each
    cone (as `test_class_polytopes_at_rho_take_no_tableau` finds on the
    class words)."""
    rho = Weight.rho(LieType("C", 3))
    cones._class_entry.cache_clear()
    try:
        for w in enumerate_reduced_words(rho.lie_type):
            remove_redundant(string_polytope(w, rho))
    finally:
        cones._class_entry.cache_clear()
    assert lp_counts["_farkas"] == 0


@pytest.mark.parametrize("type_text", ["C3", "B3"])
def test_class_polytopes_at_rho_take_no_tableau(type_text, lp_counts):
    """The 14 class-word polytopes at rho take no tableau: each class passes
    the lowest-weight certificate, which keeps its cone's facets and every
    weight row, and the rays certify every facet of each cone."""
    t = LieType.parse(type_text)
    cones._class_entry.cache_clear()
    try:
        for w in class_words(t):
            remove_redundant(string_polytope(w, Weight.rho(t)))
    finally:
        cones._class_entry.cache_clear()
    assert lp_counts["_farkas"] == 0


def test_c4_class_polytopes_at_rho_take_only_their_cones_tableaux(lp_counts):
    """The polytopes of the 14 C4 class words at rho take the 2 tableaux of
    their cones (`test_redundancy_work_bound_on_c4_classes`): each class
    passes the lowest-weight certificate, which keeps every weight row with
    no LP."""
    rho = Weight.rho(LieType("C", 4))
    cones._class_entry.cache_clear()
    try:
        for text in C4_CLASS_WORDS:
            remove_redundant(string_polytope(ReducedWord.parse("C4", text), rho))
    finally:
        cones._class_entry.cache_clear()
    assert lp_counts["_farkas"] <= 2


def assert_first_hit_matches_parent(rows, dim, monkeypatch) -> int:
    """Every ray of `_irredundant_indices` meets the row that the dense
    reference meets among the rows its column index holds, and the index
    holds no row that the two-term test dropped.  Returns the number of rays."""
    rays, dropped = [], set()
    first_hit, two_term = polyhedra._first_hit, polyhedra._two_term

    def checked(rows, cols, slack, d):
        live = sorted(set().union(*cols))
        assert not dropped.intersection(rows[j] for j in live)
        j = first_hit(rows, cols, slack, d)
        assert j == parent_first_hit(rows, live, slack, d)
        rays.append(j)
        return j

    def recording_two_term(row, normals):
        found = two_term(row, normals)
        if found:
            dropped.add(row)
        return found

    with monkeypatch.context() as mp:
        mp.setattr(polyhedra, "_first_hit", checked)
        mp.setattr(polyhedra, "_two_term", recording_two_term)
        assert polyhedra._irredundant_indices(rows, dim) == parent_irredundant_indices(rows, dim)
    return len(rays)


def test_sparse_first_hit_matches_the_dense_parent_on_c4_classes(monkeypatch):
    c4 = LieType("C", 4)
    rays = 0
    for text in C4_CLASS_WORDS:
        rays += assert_first_hit_matches_parent(*cone_rows(c4, ReducedWord.parse("C4", text)), monkeypatch)
    assert rays > 0


@pytest.mark.parametrize(
    "rows,slack,d,want",
    [
        # x <= 1 and 2x <= 2 are one half-space: a full tie, so no row
        ((((1, 0), 1), ((2, 0), 2), ((0, 1), 1)), {0: 1, 1: 2, 2: 1}, (1, 0), None),
        # x <= 1 and y <= 1 tie along (1, 1); the perturbation picks x <= 1
        ((((0, 1), 1), ((1, 0), 1)), {0: 1, 1: 1}, (1, 1), 1),
        # a row that shares no coordinate with d is not met
        ((((0, 1), 1), ((-1, 0), 1)), {0: 1, 1: 1}, (1, 0), None),
    ],
)
def test_sparse_first_hit_on_ties(rows, slack, d, want):
    live = list(range(len(rows)))
    assert parent_first_hit(rows, live, slack, d) == want
    assert polyhedra._first_hit(rows, polyhedra._column_index(rows, live), slack, d) == want


def test_ray_shooting_breaks_a_tie_toward_a_facet():
    """From (1/2, 1/2) along (1, 1) the ray meets x <= 1, y <= 1 and the
    redundant x + y <= 2 at once, in the corner (1, 1).  The perturbed
    direction meets x <= 1 alone; projecting it off leaves (0, 1), which
    meets y <= 1; projecting that off leaves nothing."""
    rows = SQUARE.rows + (((1, 1), 2),)
    u, s = (1, 1), 2
    live = list(range(len(rows)))
    slack = {i: b * s - sum(x * y for x, y in zip(c, u)) for i, (c, b) in enumerate(rows)}
    cols = polyhedra._column_index(rows, live)
    assert polyhedra._first_hit(rows, cols, slack, (1, 1)) == 0
    facets = set()
    polyhedra._shoot(rows, cols, slack, 4, 2, facets.add)
    assert facets == {0, 1}
    assert assert_shooting_matches_parent(rows, 2) == {0, 1, 2, 3}


@pytest.mark.parametrize(
    "text,rows,facets",
    [("4,3,2,4,3,1,4,3,2,1,3,4,2,3,2,1", 85, 28), ("4,3,4,3,2,3,4,3,2,1,2,3,4,3,2,1", 19, 16)],
)
def test_ray_shooting_work_bound(text, rows, facets, lp_counts):
    """On the largest C4 class and the nested word, rays certify every facet:
    the interior point is written down with no LP, and at most one LP runs
    per redundant row (85 and 19 LPs at one LP per row; both words now run
    none).  Every tableau counts, whatever asks for it."""
    cone, dim = cone_rows(LieType("C", 4), ReducedWord.parse("C4", text))
    assert (len(cone), len(polyhedra._irredundant_indices(cone, dim))) == (rows, facets)
    assert lp_counts["_farkas"] <= rows - facets


def test_redundancy_work_bound_on_c4_classes(lp_counts, monkeypatch):
    """The 14 C4 class words take 2 tableaux in all, one for each of the 2
    facets that no ray meets; the two-term test drops all 119 redundant
    rows.  Every row leads negative, so each interior point is written down
    with no LP, and the rays from it meet their own facet far more often
    than rays from the LP's basic point did: that took 34 tableaux (14
    interior points, 19 facets no first ray met, one row the two-term test
    missed), and asking each undecided row against the certified facets,
    and a facet a second time against all rows, took 172.  They take 654
    rays, all from the interior point (656 when each LP's certificate also
    aimed a ray, 916 from the LP's point): a row is shot from only when the
    two-term test, against the facets certified so far, keeps it.  Shooting
    from every row not yet certified took 1,300."""
    rays = 0
    first_hit = polyhedra._first_hit

    def counted(*args):
        nonlocal rays
        rays += 1
        return first_hit(*args)

    monkeypatch.setattr(polyhedra, "_first_hit", counted)
    c4 = LieType("C", 4)
    for text in C4_CLASS_WORDS:
        cone, dim = cone_rows(c4, ReducedWord.parse("C4", text))
        polyhedra._irredundant_indices(cone, dim)
    assert lp_counts["_farkas"] <= 2
    assert rays <= 654


def test_only_interior_points_ask_for_a_certificate(monkeypatch):
    """Every LP of redundancy removal is a yes/no `_implied`; only
    `_interior_point` asks `_farkas` for its certificate.  The 14 C3 string
    polytope classes at rho lead negative, so only GT3 takes that LP: one
    certificate (43 when each undecided row's LP aimed a ray), and none on
    the 14 C4 class cones (2 then)."""
    asked = 0
    farkas = polyhedra._farkas

    def counted(eq_rows, rhs, certify):
        nonlocal asked
        asked += certify
        return farkas(eq_rows, rhs, certify)

    monkeypatch.setattr(polyhedra, "_farkas", counted)
    rho = Weight.rho(LieType("C", 3))
    systems = [string_polytope(w, rho) for w in class_words(rho.lie_type)]
    assert len(systems) == 14
    for h in systems + [gt_polytope_C(rho, 3)]:
        polyhedra._irredundant_indices(h.rows, h.dim)
    assert asked == 1
    asked = 0
    c4 = LieType("C", 4)
    for text in C4_CLASS_WORDS:
        polyhedra._irredundant_indices(*cone_rows(c4, ReducedWord.parse("C4", text)))
    assert asked == 0


@pytest.mark.parametrize("type_text", ["B3", "C3"])
@pytest.mark.parametrize("coeffs", [(1, 0, 2), (0, 1, 0)])
def test_non_regular_polytopes_keep_the_parent_rows(type_text, coeffs):
    """A string polytope at a non-regular weight is not full-dimensional,
    so it has no interior point: every row goes to the last pass, where the
    two-term test runs before the LP.  One word per class."""
    t = LieType.parse(type_text)
    lam = Weight(t, coeffs)
    for w in class_words(t):
        h = string_polytope(w, lam)
        assert polyhedra._interior_point(h.rows, h.dim) is None
        assert polyhedra._irredundant_indices(h.rows, h.dim) == parent_irredundant_indices(h.rows, h.dim)


def normals_of(facets):
    """The certified facets by primitive normal, as `_two_term` reads them."""
    return {tuple(x // content(c) for x in c): (content(c), b, c) for c, b in facets}


@pytest.mark.parametrize(
    "facets,row,implied",
    [
        # x <= 1, y <= 1 give x + y <= 2, but not x + y <= 1: the right-hand sides decide
        (box(2, 1), ((1, 1), 2), True),
        (box(2, 1), ((1, 1), 1), False),
        # 2 (x + y) = (2x + y) + y <= 3 + 1: the ratio p / q is 1 / 2
        ([((2, 1), 3), ((0, 1), 1)], ((1, 1), 2), True),
        ([((2, 1), 3), ((0, 1), 1)], ((1, 1), 1), False),
        # 2y <= 1 - 2x <= 1 from the non-primitive normal of 2x + 2y <= 1
        ([((-1, 0), 0), ((2, 2), 1)], ((0, 2), 1), True),
        ([((-1, 0), 0), ((2, 2), 1)], ((0, 2), 0), False),
        # x <= 1 and 2y + 2z <= 1 give x + y + z <= 3/2, with g = (0, 1, 1) and k = 2
        ([((1, 0, 0), 1), ((0, 2, 2), 1)], ((1, 1, 1), 2), True),
        ([((1, 0, 0), 1), ((0, 2, 2), 1)], ((1, 1, 1), 1), False),
        # 3x + y = (x + y) + 2x <= 1 + 1, where only g = (1, 0) with k = 2 fits
        ([((1, 1), 1), ((2, 0), 1)], ((3, 1), 2), True),
        ([((1, 1), 1), ((2, 0), 1)], ((3, 1), 1), False),
        # -x - y <= 2 from -x <= 1 and -y <= 1, with both ratios -1 / -1 read as 1 / 1
        (box(2, 1), ((-1, -1), 2), True),
        (box(2, 1), ((-1, -1), 0), False),
        # one term: a parallel row with a larger right-hand side
        (box(2, 1), ((2, 0), 3), True),
        (box(2, 1), ((2, 0), 1), False),
    ],
)
def test_two_term_certificate(facets, row, implied):
    assert polyhedra._two_term(row, normals_of(facets)) is implied


def translated(rows, t):
    """``rows`` moved by the vector ``t``: ``c . x <= b + c . t``."""
    return tuple((c, b + sum(map(mul, c, t))) for c, b in rows)


def test_two_term_certificate_drops_a_row_with_no_lp(lp_counts):
    """x + y <= 2 touches the square [-1, 1]^2 at a corner, so no ray meets
    it; the two-term test drops it.  Every b is positive, so the interior
    point takes no LP either.  Moved by (2, 0), the row -x <= -1 has b < 0,
    and the interior point is the one LP."""
    for shift, lps in (((0, 0), 0), ((2, 0), 1)):
        rows = translated(tuple(box(2, 1)) + (((1, 1), 2),), shift)
        assert assert_shooting_matches_parent(rows, 2) == {0, 1, 2, 3}
        lp_counts.clear()
        assert polyhedra._irredundant_indices(rows, 2) == [0, 1, 2, 3]
        assert lp_counts["_farkas"] == lps


def test_with_first_rays_off_each_undecided_row_costs_one_lp(lp_counts, monkeypatch):
    """With the first rays switched off, every row of the square cut by
    x + y <= 1 is left undecided, and each is a facet that no two certified
    rows imply: one LP against the other live rows keeps each, so five
    tableaux, plus the interior point's LP once the square is moved by
    (2, 0) and the row -x <= -1 has b < 0."""
    monkeypatch.setattr(polyhedra, "_shoot", lambda *args: None)
    for shift, lps in (((0, 0), 5), ((2, 0), 6)):
        rows = translated(tuple(box(2, 1)) + (((1, 1), 1),), shift)
        assert parent_irredundant_indices(rows, 2) == [0, 1, 2, 3, 4]
        lp_counts.clear()
        assert polyhedra._irredundant_indices(rows, 2) == [0, 1, 2, 3, 4]
        assert lp_counts["_farkas"] == lps


def test_rows_of_one_half_space_take_one_lp_each(lp_counts):
    """(0, 1) . x <= 0 and (0, 2) . x <= 0 are one half-space, so every ray
    meets both at once and certifies neither; each goes to one LP against
    the other live rows, as in the one-LP-per-row loop: the first is
    dropped and the second kept."""
    rows = (((0, 1), 0), ((0, 2), 0))
    assert parent_irredundant_indices(rows, 2) == [1]
    lp_counts.clear()
    assert polyhedra._irredundant_indices(rows, 2) == [1]
    # the interior point, then one LP for each row
    assert lp_counts["_farkas"] == 3
    assert assert_shooting_matches_parent(rows, 2) == set()


def leads_negative(rows) -> bool:
    """Whether no row has ``b < 0`` and every row with ``b = 0`` has a
    negative first nonzero entry: the rows whose interior point
    `_interior_point` writes down with no LP."""
    return all(
        b > 0 or b == 0 and next((x for x in c if x), 0) < 0 for c, b in rows
    )


def parent_interior_point(rows, dim):
    """Reference for `polyhedra._interior_point`: the phase-1 LP alone, kept verbatim."""
    strict = [((*c, -b), -1) for c, b in rows] + [((0,) * dim + (-1,), -1)]
    y = polyhedra._farkas(*polyhedra._combination_lp(((0,) * (dim + 1), -1), strict, dim + 1), True)
    return None if y is None else (y[:dim], y[dim])


def assert_strictly_inside(point, rows):
    u, s = point
    assert s > 0 and all(sum(map(mul, c, u)) < b * s for c, b in rows)


@pytest.mark.parametrize(
    "rows,inside",
    [
        # the square [1, 3] x [-1, 1]: the row -x <= -1 has b < 0
        ((((1, 0), 3), ((-1, 0), -1), ((0, 1), 1), ((0, -1), 1)), True),
        # the square [-1, 0] x [-1, 1]: the b = 0 row x <= 0 leads with +1
        ((((1, 0), 0), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1)), True),
        # the point x = 0 on the line: no interior point
        ((((1,), 0), ((-1,), 0)), False),
    ],
)
def test_interior_point_takes_the_lp_outside_the_condition(rows, inside, lp_counts):
    """A row with b < 0, a b = 0 row that leads positive, and the
    lower-dimensional pair x <= 0, -x <= 0 each take the one LP, whose
    result is the reference's; the kept rows are those of the one-LP-per-row
    loop."""
    dim = len(rows[0][0])
    assert not leads_negative(rows)
    point = polyhedra._interior_point(rows, dim)
    assert lp_counts["_farkas"] == 1
    assert point == parent_interior_point(rows, dim)
    if inside:
        assert_strictly_inside(point, rows)
    else:
        assert point is None
    assert_shooting_matches_parent(rows, dim)
    assert polyhedra._irredundant_indices(rows, dim) == list(range(len(rows)))


@pytest.mark.parametrize("type_text", ["A3", "A4", "B2", "B3", "C2", "C3", "C4"])
def test_every_string_form_leads_positive(type_text):
    """Every string form has a positive first nonzero coefficient (``f_{i_1}``
    raises ``a_1`` alone on strings), so the rows ``-form . x <= 0`` lead
    negative and the interior point needs no LP.  Every word of each type is
    read, but at C4 only the class words."""
    t = LieType.parse(type_text)
    if type_text == "C4":
        words = [ReducedWord.parse("C4", text) for text in C4_CLASS_WORDS]
    else:
        words = enumerate_reduced_words(t)
    for w in words:
        cone = string_cone(w.lie_type, w)
        assert all(next(x for x in f.coeffs if x) > 0 for f in cone.forms)


def test_a4_sweep_runs_no_lp(lp_counts):
    """`irredundant_facets` over the 768 A4 words, from an empty class
    cache, runs no `_farkas` at all: each interior point is written down and
    rays certify every facet."""
    t = LieType("A", 4)
    cones._class_entry.cache_clear()
    try:
        facets = [cones.facet_count(t, w) for w in enumerate_reduced_words(t)]
    finally:
        cones._class_entry.cache_clear()
    assert len(facets) == 768 and lp_counts["_farkas"] == 0


def test_to_vrep_square_and_cone():
    vr = to_vrep(SQUARE)
    assert len(vr.vertices) == 4 and not vr.rays
    cone = HRep(2, (((-1, 0), 0), ((0, -1), 0)))
    vc = to_vrep(cone)
    assert set(vc.rays) == {(1, 0), (0, 1)}


def test_to_vrep_unbounded_witness():
    half_strip = HRep(2, (((-1, 0), 0), ((0, -1), 0), ((0, 1), 1)))
    quadrant = HRep(2, (((-1, 0), 0), ((0, -1), 0)))  # a cone, not its apex
    for h in (half_strip, quadrant):
        for call in (f_vector, integrality):
            with pytest.raises(Unbounded) as err:
                call(h)
            ray = err.value.ray
            assert ray is not None and any(ray) and h.contains(tuple(10 * x for x in ray))
            assert ray in to_vrep(h).rays


def test_to_vrep_rejects_lineality():
    with pytest.raises(PolyhedralError):
        to_vrep(HRep(2, (((1, 0), 0), ((-1, 0), 0))))
    strip = HRep(2, (((1, 0), 1), ((-1, 0), 0)))  # 0 <= x <= 1, not a cone
    with pytest.raises(Unbounded) as err:
        to_vrep(strip)
    ray = err.value.ray
    assert any(ray)
    p = (F(1, 2), F(3))
    for t in (10, -10):
        assert strip.contains(tuple(a + t * b for a, b in zip(p, ray)))
    with pytest.raises(PolyhedralError):  # collinear points span no 2-polytope
        vrep_to_hrep(VRep(((F(0), F(0)), (F(1), F(1)), (F(2), F(2))), ()))


def test_vrep_roundtrip_random():
    rng = random.Random(13)
    for _ in range(25):
        d = rng.randint(2, 4)
        h = random_polytope(rng, d, d + 3)
        vr = to_vrep(h)
        assert vr.rays == ()
        if len(vr.vertices) <= d:
            continue
        try:
            h2 = vrep_to_hrep(vr)
        except PolyhedralError:
            continue
        assert to_vrep(h2) == vr  # both sorted, with no ray
        for _ in range(20):
            pt = tuple(F(rng.randint(-9, 9), 2) for _ in range(d))
            assert h.contains(pt) == h2.contains(pt)


def test_f_vector_square_and_euler():
    assert f_vector(SQUARE) == (1, 4, 4, 1)
    rng = random.Random(3)
    for _ in range(10):
        h = random_polytope(rng, rng.randint(2, 4), 5)
        fv = f_vector(h)
        assert sum((-1) ** i * c for i, c in enumerate(fv)) == 0
        assert fv[0] == fv[-1] == 1


def test_f_vector_lower_dimensional():
    # a segment embedded in the plane
    h = HRep(2, (((1, 0), 2), ((-1, 0), 0), ((0, 1), 0), ((0, -1), 0)))
    assert f_vector(h) == (1, 2, 1)
    # the half-integral triangle x + y + z = 3/2, x, y, z >= 0 in 3-space
    tri = HRep(
        3,
        (
            ((2, 2, 2), 3),
            ((-2, -2, -2), -3),
            ((-1, 0, 0), 0),
            ((0, -1, 0), 0),
            ((0, 0, -1), 0),
        ),
    )
    assert f_vector(tri) == (1, 3, 3, 1)


def test_face_lattice_dims():
    assert polyhedra._incidence_table(SQUARE).dim == 2
    assert sorted(polyhedra._faces(SQUARE).values()) == [0, 0, 0, 0, 1, 1, 1, 1, 2]


def test_face_lattice_matches_rank_oracle_on_small_and_lower_dimensional_input():
    tri = ((2, 2, 2), 3), ((-2, -2, -2), -3)  # x + y + z = 3/2
    inputs = [
        SQUARE,
        HRep(1, (((2,), 3), ((-1,), 0))),
        HRep(2, (((1, 0), 2), ((-1, 0), 0), ((0, 1), 0), ((0, -1), 0))),  # a segment
        HRep(2, (((1, 0), 0), ((-1, 0), 0), ((0, 1), 0), ((0, -1), 0))),  # a point
        HRep(3, tri + (((-1, 0, 0), 0), ((0, -1, 0), 0), ((0, 0, -1), 0))),
        HRep(3, tuple(((a, b, c), 1) for a in (1, -1) for b in (1, -1) for c in (1, -1))),
    ]
    rng = random.Random(11)
    for _ in range(6):
        d = rng.randint(2, 4)
        c = tuple(rng.randint(-2, 2) for _ in range(d - 1)) + (1,)
        b = F(rng.randint(-2, 2), rng.choice((1, 2)))
        extra = [(tuple(rng.randint(-3, 3) for _ in range(d)), rng.randint(1, 5)) for _ in range(3)]
        eq = [integer_row(c, b), integer_row(tuple(-x for x in c), -b)]
        inputs.append(HRep(d, tuple(box(d, 3) + extra + eq)))
    dims = {assert_lattice_matches_rank_oracle(h).dim for h in inputs}
    assert dims == {0, 1, 2, 3}


@pytest.mark.parametrize("t", ["B2", "C2"])
def test_face_lattice_matches_rank_oracle_on_rank2_string_polytopes(t):
    from stringcones.polytopes import string_polytope
    from stringcones.weyl import Weight

    lie = LieType(t[0], 2)
    for coeffs in ((1, 1), (2, 1), (1, 2), (3, 2)):
        for w in enumerate_reduced_words(lie):
            assert_lattice_matches_rank_oracle(string_polytope(w, Weight(lie, coeffs)))


def test_face_lattice_matches_rank_oracle_on_rank3_gt_and_braid_variant():
    from stringcones.polytopes import gt_polytope_C, string_polytope
    from stringcones.weyl import Weight, braid_variant_word

    rho = Weight.rho(LieType("C", 3))
    gt = assert_lattice_matches_rank_oracle(gt_polytope_C(rho, 3))
    braid = assert_lattice_matches_rank_oracle(string_polytope(braid_variant_word(3), rho))
    for lattice, head in ((gt, (176, 936, 2244)), (braid, (175, 933))):
        counts = Counter(lattice.faces.values())
        assert tuple(counts[d] for d in range(len(head))) == head


def test_face_lattice_runs_no_elimination_per_face(monkeypatch):
    """A cold GT3 lattice (11,583 faces) runs `echelon` only for its V-rep and
    dimension, a constant number of times (it ran once per face before)."""
    from stringcones import _linalg
    from stringcones.polytopes import gt_polytope_C
    from stringcones.weyl import Weight

    calls = []

    def counted(rows, _echelon=_linalg.echelon, **kwargs):
        calls.append(1)
        return _echelon(rows, **kwargs)

    monkeypatch.setattr(_linalg, "echelon", counted)
    assert len(polyhedra._faces(gt_polytope_C(Weight.rho(LieType("C", 3)), 3))) == 11583
    assert 0 < len(calls) <= 4


def assert_dd_matches_parent(rows, dim) -> None:
    """`_dd_rays` returns the reference's rays, or raises as it does, and
    each ray's zero set holds exactly the rows with a zero dot product."""
    try:
        expected = parent_dd_rays(rows, dim)
    except PolyhedralError:
        with pytest.raises(PolyhedralError):
            polyhedra._dd_rays(rows, dim)
        return
    got = polyhedra._dd_rays(rows, dim)
    assert [ray for ray, _ in got] == expected
    for ray, bits in got:
        assert bits == sum(1 << i for i, row in enumerate(rows) if not sum(map(mul, row, ray)))


def homogenized(h):
    """The rows and dimension that `to_vrep` hands double description for ``h``."""
    return [(*c, -b) for c, b in h.rows] + [(0,) * h.dim + (-1,)], h.dim + 1


@pytest.mark.parametrize("type_text", ["A3", "B3", "C3"])
def test_double_description_matches_the_parent_on_rank3_words(type_text):
    """Every rank-3 string cone, and in type C every string polytope at rho and GT3."""
    from stringcones.polytopes import string_polytope

    t = LieType.parse(type_text)
    rho = Weight.rho(t)
    for w in enumerate_reduced_words(t):
        rows, dim = cone_rows(t, w)
        assert_dd_matches_parent([c for c, _ in rows], dim)
        if t.family == "C":
            assert_dd_matches_parent(*homogenized(string_polytope(w, rho)))
    if t.family == "C":
        assert_dd_matches_parent(*homogenized(gt_polytope_C(rho, 3)))


def test_double_description_work_bound_on_gt3(monkeypatch):
    """Only pairs whose common zero set holds at least ``dim - 2`` rows reach
    the combinatorial test: 230 of the 620 pairs that reached it without
    the cardinality test, on GT3 homogenized; the rays stay the parent's."""
    pairs = 0
    adjacent = polyhedra._adjacent

    def counted(*args):
        nonlocal pairs
        pairs += 1
        return adjacent(*args)

    monkeypatch.setattr(polyhedra, "_adjacent", counted)
    rows, dim = homogenized(gt_polytope_C(Weight.rho(LieType("C", 3)), 3))
    got = polyhedra._dd_rays(rows, dim)
    assert len(got) == 176
    assert pairs <= 230
    assert [ray for ray, _ in got] == parent_dd_rays(rows, dim)


def test_face_lattice_runs_no_lp(lp_counts):
    """The incidence table reads each row's tight vertices off the zero sets
    that double description keeps, so a fresh GT3 lattice solves no LP."""
    gt = gt_polytope_C(Weight.rho(LieType("C", 3)), 3)
    lp_counts.clear()
    assert len(polyhedra._faces(HRep(gt.dim, gt.rows))) == 11583
    assert lp_counts["_farkas"] == 0


def test_lower_dimensional_face_lattice_runs_one_double_description(monkeypatch):
    """A cold lower-dimensional lattice reads its facets off the tight sets of
    its own rows: the V-rep's double description is the only one it runs."""
    from stringcones.polytopes import string_polytope

    calls = []

    def counted(rows, dim, _dd_rays=polyhedra._dd_rays):
        calls.append(dim)
        return _dd_rays(rows, dim)

    monkeypatch.setattr(polyhedra, "_dd_rays", counted)
    c2 = LieType("C", 2)
    cut_box = HRep(3, tuple(box(3, 2) + [((1, 1, 0), 1), ((-1, -1, 0), -1)]))
    for h in (string_polytope(next(enumerate_reduced_words(c2)), Weight(c2, (1, 0))), cut_box):
        calls.clear()
        f_vector(h)
        assert polyhedra._incidence_table(h).dim < h.dim
        assert calls == [h.dim + 1]


def test_integrality():
    assert integrality(SQUARE) == (True, None)
    seg = HRep(1, (((2,), 3), ((-1,), 0)))
    flag, witness = integrality(seg)
    assert not flag and witness == (F(3, 2),)


def test_lattice_points(monkeypatch):
    assert lattice_points(SQUARE) == 4
    assert lattice_points(dilate(SQUARE, 2)) == 9
    assert lattice_points(HRep(1, (((1,), 3), ((-1,), 0)))) == 4
    assert lattice_points(HRep(1, (((1,), 0), ((-1,), -1)))) == 0
    assert lattice_points(HRep(0, ())) == 1
    assert lattice_points(HRep(0, (((), -1),))) == 0
    # infeasible, with the lineality direction y: it has no vertices, yet counts 0
    assert lattice_points(HRep(2, (((1, 0), 0), ((-1, 0), -1)))) == 0
    half_strip = HRep(2, (((-1, 0), 0), ((0, -1), 0), ((0, 1), 1)))
    for unbounded in (half_strip, HRep(2, (((1, 0), 1), ((-1, 0), 0))), HRep(2, (((1, 0), 0),))):
        with pytest.raises(Unbounded):
            lattice_points(unbounded)
    monkeypatch.setattr(polyhedra, "LATTICE_POINT_CAP", 10)
    with pytest.raises(ResourceLimit):
        lattice_points(dilate(SQUARE, 1000))


def test_derived_representations_computed_once_per_instance(monkeypatch):
    calls = Counter()
    for name in ("_minimal", "_vrep", "_incidences", "_faces"):
        def counted(h, _worker=getattr(polyhedra, name), _name=name):
            calls[_name, id(h)] += 1
            return _worker(h)

        monkeypatch.setattr(polyhedra, name, counted)
    p = HRep(2, SQUARE.rows)  # fresh instances: SQUARE's memo is warm
    shear = ((1, 1), (0, 1))
    q = HRep(2, (((0, 1), 1), ((0, -1), 0), ((1, -1), 1), ((-1, 1), 0)))
    for h in (p, q):
        assert remove_redundant(h) == remove_redundant(h)
        assert f_vector(h) == (1, 4, 4, 1)
        assert integrality(h) == (True, None)
        assert lattice_points(h) == 4
        assert normalized_volume(h) == 2
        assert to_vrep(h) is to_vrep(h)
        assert f_vector(h) is f_vector(h)
    assert search_unimodular_equivalence(p, q).status == "equivalent"
    assert verify_unimodular_map(p, q, shear, (0, 0))
    names = ("_minimal", "_vrep", "_incidences", "_faces")
    assert calls == {(name, id(h)): 1 for name in names for h in (p, q)}


def test_memo_is_invisible_and_freed_with_its_hrep():
    cold, warm = HRep(2, SQUARE.rows), HRep(2, SQUARE.rows)
    before = (hash(warm), repr(warm))
    assert f_vector(warm) == (1, 4, 4, 1)
    table = weakref.ref(polyhedra._incidence_table(warm))
    minimal = weakref.ref(remove_redundant(warm))
    assert warm == cold and len({warm, cold}) == 1
    assert (hash(warm), repr(warm)) == (hash(cold), repr(cold)) == before
    # errors are not kept: the same call raises again
    cone = HRep(2, (((-1, 0), 0), ((0, -1), 0)))
    for _ in range(2):
        with pytest.raises(Unbounded):
            f_vector(cone)
    del warm
    gc.collect()
    assert table() is None and minimal() is None


def test_shared_minimal_rows_and_f_vector(monkeypatch):
    # SQUARE with a redundant row and a doubled one, and the same rows with
    # the coordinates swapped: one row sequence up to a renaming, so the
    # indices p keeps are q's, given to q when it is made
    p = HRep(2, SQUARE.rows + (((1, 1), 2), ((0, 1), 1)))
    calls = Counter()
    for name in ("_irredundant_indices", "_faces"):
        def counted(*args, _worker=getattr(polyhedra, name), _name=name):
            calls[_name] += 1
            return _worker(*args)

        monkeypatch.setattr(polyhedra, name, counted)
    kept = tuple(polyhedra._irredundant_indices(p.rows, p.dim))
    q = HRep._canonical(2, tuple((c[::-1], b) for c, b in p.rows), kept)
    # the indices are all q holds: no f-vector, no face lattice, and no field
    assert q._memo == {"kept": (0, 1, 2, 3)}
    assert q == HRep(2, q.rows) and hash(q) == hash(HRep(2, q.rows))
    table = weakref.ref(polyhedra._incidence_table(p))
    assert f_vector(p) == f_vector(q) == (1, 4, 4, 1)
    # q's own rows in q's order, the first copy of its doubled row kept
    assert remove_redundant(q).rows == (((0, 1), 1), ((1, 0), 1), ((0, -1), 0), ((-1, 0), 0))
    assert remove_redundant(q).rows == remove_redundant(HRep(2, q.rows)).rows
    assert remove_redundant(p).rows == SQUARE.rows
    # one LP for the indices, one for the oracle and one for p, made with
    # none; q runs none, and each instance counts its own faces
    assert calls == {"_irredundant_indices": 3, "_faces": 2}
    del p
    gc.collect()
    assert table() is None


def test_empty_systems_have_no_vertices_and_no_face_lattice():
    # an empty strip with a lineality direction, and an empty system whose
    # homogenized cone has a recession ray
    strip = HRep(2, (((1, 0), 1), ((-1, 0), -2)))
    corner = HRep(2, (((1, 0), -1), ((-1, 0), 0), ((0, -1), 0)))
    for h in (strip, corner):
        assert to_vrep(h) == VRep((), ())
        assert lattice_points(h) == 0
        with pytest.raises(PolyhedralError, match="empty polytope has no face lattice"):
            f_vector(h)
    # a non-empty system with a line still has no V-rep
    with pytest.raises(Unbounded, match="lineality direction"):
        to_vrep(HRep(2, (((1, 0), 1), ((-1, 0), 0))))


def test_lattice_points_runs_no_lp(monkeypatch):
    calls = []
    farkas = polyhedra._farkas

    def counted(*args):
        calls.append(args)
        return farkas(*args)

    monkeypatch.setattr(polyhedra, "_farkas", counted)
    assert lattice_points(SQUARE) == lattice_points(HRep(2, SQUARE.rows)) == 4
    assert calls == []


def test_normalized_volume():
    assert normalized_volume(SQUARE) == 2
    simplex = HRep(2, (((1, 1), 1), ((-1, 0), 0), ((0, -1), 0)))
    assert normalized_volume(simplex) == 1
    assert normalized_volume(dilate(SQUARE, 3)) == 18


def per_simplex_volume(h):
    """The earlier `normalized_volume`: each simplex scaled to integers on its own."""
    verts = to_vrep(h).vertices
    total = F(0)
    for simplex in polyhedra._triangulate(polyhedra._incidence_table(h)):
        base = verts[simplex[0]]
        mat = [[v - b for v, b in zip(verts[i], base)] for i in simplex[1:]]
        denom = lcm(*(x.denominator for row in mat for x in row))
        int_mat = [[int(x * denom) for x in row] for row in mat]
        total += F(abs(det_int(int_mat)), denom**h.dim)
    return total


def test_normalized_volume_against_per_simplex_oracle():
    from stringcones.polytopes import string_polytope
    from stringcones.weyl import Weight

    inputs = [
        SQUARE,
        HRep(2, (((1, 1), 1), ((-1, 0), 0), ((0, -1), 0))),
        dilate(SQUARE, 3),
        HRep(2, (((2, 0), 1), ((0, 3), 2), ((-1, 0), 0), ((0, -1), 0))),  # rational box
        HRep(3, tuple(((a, b, c), 1) for a in (1, -1) for b in (1, -1) for c in (1, -1))),
    ]
    for family in "BC":
        lie = LieType(family, 2)
        for coeffs in ((1, 1), (2, 1), (1, 2), (3, 2)):
            inputs += [string_polytope(w, Weight(lie, coeffs)) for w in enumerate_reduced_words(lie)]
    volumes = [normalized_volume(h) for h in inputs]
    assert volumes == [per_simplex_volume(h) for h in inputs]
    assert volumes[:5] == [2, 1, 18, F(2, 3), 8]


def test_verify_unimodular_map():
    ident = ((1, 0), (0, 1))
    assert verify_unimodular_map(SQUARE, SQUARE, ident, (0, 0))
    shear = ((1, 1), (0, 1))
    sheared = HRep(2, (((0, 1), 1), ((0, -1), 0), ((1, -1), 1), ((-1, 1), 0)))
    assert verify_unimodular_map(SQUARE, sheared, shear, (0, 0))
    with pytest.raises(PolyhedralError):
        verify_unimodular_map(SQUARE, SQUARE, ((2, 0), (0, 1)), (0, 0))


def test_verify_unimodular_map_rejects_a_bad_shift():
    # x -> x + 1/3 maps [0, 1/3] onto [1/3, 2/3], but the two segments hold
    # one lattice point and none: the shift must be an integer vector
    third = HRep(1, (((3,), 1), ((-1,), 0)))
    moved = HRep(1, (((3,), 2), ((-3,), -1)))
    with pytest.raises(PolyhedralError):
        verify_unimodular_map(third, moved, ((1,),), (F(1, 3),))
    unit = HRep(1, (((1,), 1), ((-1,), 0)))
    with pytest.raises(PolyhedralError):
        verify_unimodular_map(unit, unit, ((1,),), (0, 5))
    assert verify_unimodular_map(unit, unit, ((-1,),), (1,))


def test_every_right_hand_side_is_an_int(tmp_path):
    source = tmp_path / "p.json"
    source.write_text('{"dim": 2, "rows": [[1, 0, [3, 2]], [0, 2, 1], [-1, -1, 0]]}')
    gt = gt_polytope_C(Weight.rho(LieType("C", 2)), 2)
    # the kernel refuses rational rows; the JSON reader scales them to integers
    with pytest.raises(PolyhedralError, match="entry Fraction"):
        HRep(2, (((F(1, 2), 1), F(3, 4)), ((-1, 0), F(0)), ((0, -1), F(-0))))
    systems = [
        _load_polytope(str(source)),
        gt,
        dilate(gt, 3),
        vrep_to_hrep(VRep(((F(1, 2), 0), (0, F(1, 3)), (1, 1)), ())),
        remove_redundant(HRep(1, (((1,), 0), ((-1,), -1)))),
        HRep(3, ()),
    ]
    for h in systems:
        for c, b in h.rows:
            assert all(type(x) is int for x in c) and type(b) is int, (c, b)
    assert systems[0].rows[0] == ((2, 0), 3)


def test_chamber_change_is_unimodular_on_a_cone_section():
    # the chamber substitution maps the string cone onto the chamber cone
    from stringcones.cones import string_cone
    from stringcones.diagram import build_diagram, chamber_structure
    from stringcones.weyl import LieType, ReducedWord

    w = ReducedWord.parse("A3", "1,3,2,1,3,2")
    mat = chamber_structure(build_diagram(w))
    cone = string_cone(LieType("A", 3), w)
    h = cone.to_hrep()
    # intersect with a box to get a polytope section, then push through Phi
    sect = HRep(6, h.rows + tuple(box(6, 3)))
    mapped_rows = []
    for c, b in sect.rows:
        mapped_rows.append((c, b))
    assert verify_unimodular_map(sect, sect, tuple(tuple(int(i == j) for j in range(6)) for i in range(6)), (0,) * 6)
    vr = to_vrep(sect)
    assert vr.rays == ()
    image = VRep(
        tuple(sorted(tuple(sum(F(m) * x for m, x in zip(row, v)) for row in mat) for v in vr.vertices)),
        (),
    )
    himg = vrep_to_hrep(image)
    assert verify_unimodular_map(sect, himg, mat, (0,) * 6)


def test_search_equivalence_identity_and_shear():
    res = search_unimodular_equivalence(SQUARE, SQUARE)
    assert res.status == "equivalent"
    assert verify_unimodular_map(SQUARE, SQUARE, res.matrix, res.shift)
    shear = ((1, 1), (0, 1))
    sheared_v = [
        tuple(a + s for a, s in zip((row[0] * v[0] + row[1] * v[1] for row in shear), (0, 0)))
        for v in to_vrep(SQUARE).vertices
    ]
    sheared = vrep_to_hrep(VRep(tuple(sorted(tuple(map(F, v)) for v in sheared_v)), ()))
    res2 = search_unimodular_equivalence(SQUARE, sheared)
    assert res2.status == "equivalent"
    assert verify_unimodular_map(SQUARE, sheared, res2.matrix, res2.shift)


def test_search_equivalence_refutes():
    triangle = HRep(2, (((1, 1), 1), ((-1, 0), 0), ((0, -1), 0)))
    res = search_unimodular_equivalence(SQUARE, triangle)
    assert (res.status, res.witness) == ("inequivalent", "vertices 4 != 3")
    wide = HRep(2, (((1, 0), 2), ((0, 1), 1), ((-1, 0), 0), ((0, -1), 0)))
    res2 = search_unimodular_equivalence(SQUARE, wide)
    assert res2.status == "inequivalent" and "anchored search" in res2.witness
    # C2 at lambda = (2, 1): the word 1,2,1,2 agrees with the Gelfand-Tsetlin
    # polytope on f-vector, facet sizes, integrality, lattice points of P and
    # 2P and normalized volume, yet the search refutes it: no simple vertex
    # of q matches the anchor's edge signature, so no bijection is tried
    from stringcones.polytopes import gt_polytope_C, string_polytope
    from stringcones.weyl import LieType, ReducedWord, Weight

    lam = Weight(LieType("C", 2), (2, 1))
    p = string_polytope(ReducedWord.parse("C2", "1,2,1,2"), lam)
    q = gt_polytope_C(lam, 2)
    assert f_vector(p) == f_vector(q) == (1, 12, 26, 22, 8, 1)
    assert integrality(p)[0] and integrality(q)[0]
    assert [lattice_points(dilate(p, t)) for t in (1, 2)] == [35, 220]
    assert [lattice_points(dilate(q, t)) for t in (1, 2)] == [35, 220]
    assert normalized_volume(p) == normalized_volume(q) == 96
    res3 = search_unimodular_equivalence(p, q)
    assert res3.status == "inequivalent" and res3.witness.endswith(
        "(0 matching the anchor's edge signature) and 0 edge bijections"
    )


def scan_edge_data(h, faces, vertex_index):
    """The earlier `polyhedra._edge_data`: the edges at a vertex found by
    scanning every 1-face of ``faces`` (`polyhedra._faces` of ``h``), each
    difference scaled to integers on its own."""
    edges = []
    vbit = 1 << vertex_index
    vertices, table = to_vrep(h).vertices, polyhedra._incidence_table(h)
    for bits in [bits for bits, fd in faces.items() if fd == 1]:
        if bits & vbit:
            other = bits & ~vbit
            w = other.bit_length() - 1
            diff = [b - a for a, b in zip(vertices[vertex_index], vertices[w])]
            denom = lcm(*(x.denominator for x in diff))
            ints = [int(x * denom) for x in diff]
            g = content(ints)
            direction = tuple(x // g for x in ints)
            length = F(g, denom)
            degree = len(table.tight_facets(1 << w))
            edges.append((direction, length, degree))
    edges.sort()
    return edges


def test_edges_from_incidences_match_the_one_face_scan():
    """At every simple vertex, the edges read off the incidence table are
    the 1-faces through it, with equal directions, lengths and degrees, and
    each leaves the one facet at the vertex that misses its far end: on GT3,
    the rank-3 braid variant at rho, and every polytope the C2 equivalence
    workload compares (both words and GT2 at the regular weights with
    l1 + l2 <= 6)."""
    from stringcones.polytopes import string_polytope
    from stringcones.weyl import braid_variant_word

    c2, c3 = LieType("C", 2), LieType("C", 3)
    rho3 = Weight.rho(c3)
    polys = [gt_polytope_C(rho3, 3), string_polytope(braid_variant_word(3), rho3)]
    for total in range(2, 7):
        for l1 in range(1, total):
            lam = Weight(c2, (l1, total - l1))
            polys.append(gt_polytope_C(lam, 2))
            polys += [string_polytope(w, lam) for w in enumerate_reduced_words(c2)]
    assert len(polys) == 2 + 15 * 3
    for h in polys:
        table, vertices, faces = polyhedra._incidence_table(h), to_vrep(h).vertices, polyhedra._faces(h)
        den = lcm(*(x.denominator for v in vertices for x in v))
        verts = [[int(x * den) for x in v] for v in vertices]
        simples = polyhedra._simple_vertices(table)
        assert simples
        for vi in simples:
            data = polyhedra._edge_data(table, verts, vi)
            assert [(d, F(g, den), deg) for d, g, deg, _ in data] == scan_edge_data(h, faces, vi)
            for d, g, _, size in data:
                far = verts.index([a + g * x for a, x in zip(verts[vi], d)])
                left = [i for i in table.tight_facets(1 << vi) if not table.incidences[i] >> far & 1]
                assert [table.incidences[i].bit_count() for i in left] == [size]


def test_edge_data_refuses_a_vertex_that_is_not_simple():
    table = polyhedra._incidence_table(OCTAHEDRON)
    verts = [[int(x) for x in v] for v in table.vertices]
    with pytest.raises(PolyhedralError, match="not simple"):
        polyhedra._edge_data(table, verts, 0)


def test_search_equivalence_budget_exhaustion_is_unknown():
    res = search_unimodular_equivalence(SQUARE, SQUARE, budget=0)
    assert res.status == "unknown"
    # a segment in the plane: edges do not determine a map of the plane
    seg = HRep(2, (((1, 0), 2), ((-1, 0), 0), ((0, 1), 0), ((0, -1), 0)))
    res2 = search_unimodular_equivalence(seg, seg)
    assert res2.status == "unknown" and "lower-dimensional" in res2.witness


SEGMENT_IN_PLANE = HRep(2, (((1, 0), 2), ((-1, 0), 0), ((0, 1), 0), ((0, -1), 0)))
OCTAHEDRON = HRep(3, tuple(((a, b, c), 1) for a in (1, -1) for b in (1, -1) for c in (1, -1)))
# five vertices each: a square and four triangles, against six triangles
SQUARE_PYRAMID = HRep(
    3, (((0, 0, -1), 0), ((1, 0, 1), 1), ((-1, 0, 1), 1), ((0, 1, 1), 1), ((0, -1, 1), 1))
)
TRIANGULAR_BIPYRAMID = HRep(
    3,
    (((-1, 0, 0), 0), ((0, -1, 0), 0), ((0, 0, -1), 0),
     ((1, 1, -1), 1), ((1, -1, 1), 1), ((-1, 1, 1), 1)),
)


DECIDING_STAGE_CASES = [
    ("dimension", SQUARE, SEGMENT_IN_PLANE, 100, "inequivalent"),
    ("vertices", SQUARE, HRep(2, (((1, 1), 1), ((-1, 0), 0), ((0, -1), 0))), 100, "inequivalent"),
    ("facet sizes", SQUARE_PYRAMID, TRIANGULAR_BIPYRAMID, 100, "inequivalent"),
    ("integrality", HRep(1, (((1,), 1), ((-1,), 0))), HRep(1, (((2,), 1), ((-1,), 0))), 100,
     "inequivalent"),
    ("search", SQUARE, HRep(2, (((0, 1), 1), ((0, -1), 0), ((1, -1), 1), ((-1, 1), 0))), 100,
     "equivalent"),
    ("search", SQUARE, HRep(2, (((1, 0), 2), ((0, 1), 1), ((-1, 0), 0), ((0, -1), 0))), 100,
     "inequivalent"),
    ("budget", SQUARE, SQUARE, 0, "unknown"),
    ("no-simple-vertex", OCTAHEDRON, OCTAHEDRON, 100, "unknown"),
    ("lower-dimensional", SEGMENT_IN_PLANE, SEGMENT_IN_PLANE, 100, "unknown"),
]


@pytest.mark.parametrize(
    "stage, p, q, budget, status",
    DECIDING_STAGE_CASES,
    ids=[f"{case[0]}-{case[4]}" for case in DECIDING_STAGE_CASES],
)
def test_equivalence_names_the_deciding_stage(stage, p, q, budget, status, monkeypatch):
    checked = []

    def counted(h, _integrality=polyhedra.integrality):
        checked.append(h)
        return _integrality(h)

    def closure(h):
        raise AssertionError("the equivalence search reads no face lattice")

    monkeypatch.setattr(polyhedra, "integrality", counted)
    for name in ("f_vector", "_faces"):
        monkeypatch.setattr(polyhedra, name, closure)
    res = search_unimodular_equivalence(p, q, budget=budget)
    assert (res.status, res.decided_by) == (status, stage)
    # a stage runs only when every stage before it agrees
    assert len(checked) == (0 if stage in ("dimension", "vertices", "facet sizes") else 2)


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    _HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    _HAVE_HYPOTHESIS = False


if _HAVE_HYPOTHESIS:

    @given(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_box_counts_and_volume_product_formulas(sides):
        d = len(sides)
        rows = []
        for k, s in enumerate(sides):
            e = [0] * d
            e[k] = 1
            rows.append((tuple(e), s))
            rows.append((tuple(-x for x in e), 0))
        h = HRep(d, tuple(rows))
        expect_points = 1
        expect_nvol = 1
        for s in sides:
            expect_points *= s + 1
            expect_nvol *= s
        for k in range(2, d + 1):
            expect_nvol *= k
        assert lattice_points(h) == expect_points
        assert normalized_volume(h) == expect_nvol
        fv = f_vector(h)
        assert sum((-1) ** i * c for i, c in enumerate(fv)) == 0

    @st.composite
    def lattice_images(draw):
        """A polytope ``P`` (hull of 3-7 integer or half-integral points in
        dimension 2 or 3) and its image under a random ``x -> Ux + s`` with
        ``U`` in ``GL_n(Z)`` (a product of elementary moves and a sign flip)."""
        d = draw(st.integers(2, 3))
        den = draw(st.sampled_from((1, 2)))
        coords = st.builds(lambda k: F(k, den), st.integers(-2 * den, 2 * den))
        pts = draw(st.lists(st.tuples(*[coords] * d), min_size=d + 1, max_size=7, unique=True))
        u = [[int(i == j) for j in range(d)] for i in range(d)]
        moves = st.tuples(st.integers(0, d - 1), st.integers(0, d - 1), st.integers(-2, 2))
        for i, j, k in draw(st.lists(moves, max_size=4)):
            if i != j:
                u[i] = [a + k * b for a, b in zip(u[i], u[j])]
        flip = draw(st.integers(0, d - 1))
        u[flip] = [-a for a in u[flip]]
        s = draw(st.tuples(*[st.integers(-3, 3)] * d))
        image = [tuple(sum(a * x for a, x in zip(row, v)) + t for row, t in zip(u, s)) for v in pts]
        return pts, image

    @given(lattice_images())
    @settings(max_examples=60, deadline=None)
    def test_search_finds_every_lattice_image(data):
        pts, image = data
        try:
            p = vrep_to_hrep(VRep(tuple(pts), ()))
        except PolyhedralError:  # the points are not full-dimensional
            return
        q = vrep_to_hrep(VRep(tuple(image), ()))
        res = search_unimodular_equivalence(p, q)
        if res.status == "unknown":
            assert res.witness == "no simple vertex to anchor the search"
        else:
            assert res.status == "equivalent", res.witness
            assert verify_unimodular_map(p, q, res.matrix, res.shift)

    @given(
        st.integers(1, 3),
        st.integers(0, 3),
        st.lists(st.tuples(st.lists(st.integers(-3, 3), min_size=3, max_size=3),
                           st.fractions(-3, 6, max_denominator=2)), max_size=4),
    )
    @settings(max_examples=80, deadline=None)
    def test_lattice_points_against_brute_force(d, side, extra):
        """Inside the box ``|x_k| <= side`` plus up to four random rows,
        feasible or not, full-dimensional or not."""
        h = HRep(d, tuple(box(d, side)) + tuple(integer_row(c[:d], b) for c, b in extra))
        grid = itertools.product(range(-side, side + 1), repeat=d)
        assert lattice_points(h) == sum(h.contains(x) for x in grid)

    @given(
        st.integers(1, 3),
        st.integers(0, 3),
        st.lists(st.tuples(st.lists(st.integers(-3, 3), min_size=3, max_size=3),
                           st.fractions(-6, 6, max_denominator=2)), max_size=4),
    )
    @settings(max_examples=80, deadline=None)
    def test_feasible_against_double_description(d, side, extra):
        """Inside the box ``|x_k| <= side`` plus up to four random rows, the
        system is non-empty exactly when double description, which runs no
        LP, finds a vertex."""
        h = HRep(d, tuple(box(d, side)) + tuple(integer_row(c[:d], b) for c, b in extra))
        vr = to_vrep(h)
        assert vr.rays == ()
        assert feasible(h.rows, d) == bool(vr.vertices)

    @st.composite
    def nonneg_systems(draw):
        """``A x = b`` with 1-5 rows and 1-5 random columns, integer or
        rational entries, right-hand sides of any sign, some all-zero rows,
        and up to three repeated columns to force ties in the ratio test;
        each row, with its right-hand side, is then scaled to integers."""
        m = draw(st.integers(1, 5))
        entry = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))
        cols = draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=1, max_size=5))
        cols += draw(st.lists(st.sampled_from(cols), max_size=3))
        cols = draw(st.permutations(cols))
        zero = draw(st.sets(st.integers(0, m - 1), max_size=2))
        rows = [[0 if i in zero else col[i] for col in cols] for i in range(m)]
        rhs = draw(st.lists(entry, min_size=m, max_size=m))
        scaled = [integer_row(row, b) for row, b in zip(rows, rhs)]
        return [list(row) for row, _ in scaled], [b for _, b in scaled]

    @given(nonneg_systems())
    @settings(max_examples=300, deadline=None)
    def test_integer_tableau_against_fraction_tableau(system):
        rows, rhs = system
        assert polyhedra._nonneg_feasible(rows, rhs) == fraction_nonneg_feasible(rows, rhs)

    @given(nonneg_systems())
    @settings(max_examples=200, deadline=None)
    def test_farkas_certificate_is_exact(system):
        """Whenever the `Fraction` tableau finds no solution, the integer
        tableau's certificate ``y`` has ``y A <= 0`` and ``y b > 0`` exactly."""
        rows, rhs = system
        y = polyhedra._farkas(rows, rhs, True)
        assert (y is None) == fraction_nonneg_feasible(rows, rhs)
        if y is not None:
            assert all(isinstance(v, int) for v in y)
            assert all(sum(F(a) * v for a, v in zip(col, y)) <= 0 for col in zip(*rows))
            assert sum(F(b) * v for b, v in zip(rhs, y)) > 0

    @st.composite
    def redundancy_systems(draw):
        """Integer rows ``(c, b)`` in dimension 1-3: a box with random rows
        (full-dimensional), the box cut by an equality pair, the box cut by
        two contradicting rows (empty), or random rows alone; then copies,
        positive multiples (one half-space), parallel rows with other
        right-hand sides and non-primitive normals such as ``(2, 2) . x <= 1``,
        and zero rows, shuffled.  The flag says whether a nonzero equality or
        contradicting pair was added."""
        d = draw(st.integers(1, 3))
        kind = draw(st.sampled_from(["box", "equality", "empty", "rows"]))
        vec = st.lists(st.integers(-3, 3), min_size=d, max_size=d).map(tuple)
        rows = [] if kind == "rows" else box(d, draw(st.integers(1, 3)))
        c, b = draw(vec), draw(st.integers(-2, 2))
        if kind == "equality":
            rows += [(c, b), (tuple(-x for x in c), -b)]
        elif kind == "empty":
            rows += [(c, b), (tuple(-x for x in c), -b - 1)]
        rows += draw(st.lists(st.tuples(vec, st.integers(-2, 6)), max_size=5))
        if rows:
            copies = draw(st.lists(st.tuples(st.sampled_from(rows), st.integers(1, 3)), max_size=3))
            rows += [(tuple(k * x for x in c), k * b) for (c, b), k in copies]
            shifted = st.tuples(st.sampled_from(rows), st.integers(1, 3), st.integers(-2, 2))
            shifts = draw(st.lists(shifted, max_size=3))
            rows += [(tuple(k * x for x in c), k * b + e) for (c, b), k, e in shifts]
        rows += [((0,) * d, draw(st.integers(0, 2)))] * draw(st.integers(0, 2))
        cut = kind in ("equality", "empty") and any(c)  # then no interior point
        return cut, d, tuple(draw(st.permutations(rows)))

    @given(redundancy_systems())
    @settings(max_examples=200, deadline=None)
    def test_ray_shooting_keeps_the_parent_rows(system):
        cut, d, rows = system
        assert_shooting_matches_parent(rows, d)
        nonzero = [(c, b) for c, b in rows if any(c)]
        point = polyhedra._interior_point(nonzero, d) if nonzero else None
        if point is not None:
            assert_strictly_inside(point, nonzero)
        if cut:  # an equality pair or a contradicting pair of nonzero rows
            assert point is None

    @st.composite
    def leading_systems(draw):
        """Integer rows in dimension 1-4 with ``b`` in ``[-1, 4]``.  Unless
        the draw leaves them as they are, ``b`` is made ``>= 0`` and each
        ``b = 0`` row is made to lead negative (a zero one becomes
        ``-x_d <= 0``), so both the written-down point and the LP are met;
        copies and positive multiples are mixed in."""
        d = draw(st.integers(1, 4))
        vec = st.lists(st.integers(-3, 3), min_size=d, max_size=d).map(tuple)
        rows = draw(st.lists(st.tuples(vec, st.integers(-1, 4)), min_size=1, max_size=8))
        if draw(st.booleans()):
            lead = []
            for c, b in rows:
                b = max(b, 0)
                if b == 0:
                    first = next((x for x in c if x), 0)
                    c = tuple(-x for x in c) if first > 0 else c if first else (0,) * (d - 1) + (-1,)
                lead.append((c, b))
            rows = lead
        copies = draw(st.lists(st.tuples(st.sampled_from(rows), st.integers(1, 3)), max_size=2))
        rows += [(tuple(k * x for x in c), k * b) for (c, b), k in copies]
        return d, tuple(draw(st.permutations(rows)))

    @given(leading_systems())
    @settings(max_examples=300, deadline=None)
    def test_written_down_interior_point(system):
        """When every ``b >= 0`` and every ``b = 0`` row leads negative, the
        point takes no LP and is strictly inside every row: each ``b = 0``
        row reads ``c . U <= -1``, and ``S`` is the least positive integer
        with ``c . U < b * S`` on the ``b > 0`` rows.  Otherwise it is the LP's, as before.  Either way the kept
        rows are the reference's."""
        d, rows = system
        tableaux, farkas = [], polyhedra._farkas
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(polyhedra, "_farkas", lambda *args: tableaux.append(args) or farkas(*args))
            point = polyhedra._interior_point(rows, d)
        if leads_negative(rows):
            assert not tableaux
            assert_strictly_inside(point, rows)
            u, s = point
            assert all(sum(map(mul, c, u)) <= -1 for c, b in rows if b == 0)
            assert s == 1 or any(sum(map(mul, c, u)) >= b * (s - 1) for c, b in rows if b > 0)
        else:
            assert point == parent_interior_point(rows, d)
        assert_shooting_matches_parent(rows, d)

    @st.composite
    def mixed_systems(draw):
        """Integer rows with ``b >= 0`` in dimension 1-4: ``b = 0`` rows, with
        copies and positive multiples among them, and ``b > 0`` rows.  Unless
        the draw leaves them as they are, the ``b = 0`` rows are made to lead
        negative, so that the point is written down (otherwise the LP finds
        it); a ``b = 0`` row may come with its negation, which leaves no
        interior point.  Shuffled."""
        d = draw(st.integers(1, 4))
        vec = st.lists(st.integers(-3, 3), min_size=d, max_size=d).map(tuple)
        cone = draw(st.lists(vec, min_size=1, max_size=6))
        if draw(st.booleans()):
            cone = [tuple(-x for x in c) if next((x for x in c if x), 0) > 0 else c for c in cone]
        multiples = draw(st.lists(st.tuples(st.sampled_from(cone), st.integers(1, 3)), max_size=3))
        cone += [tuple(k * x for x in c) for c, k in multiples]
        if draw(st.booleans()):
            cone.append(tuple(-x for x in draw(st.sampled_from(cone))))
        rows = [(c, 0) for c in cone]
        rows += draw(st.lists(st.tuples(vec, st.integers(1, 4)), min_size=1, max_size=6))
        return d, tuple(draw(st.permutations(rows)))

    @given(mixed_systems())
    @settings(max_examples=300, deadline=None)
    def test_mixed_cone_and_affine_rows_keep_the_parent_rows(system):
        """The kept rows are the reference's, and the ``b = 0`` rows among
        them are those the reference keeps of the ``b = 0`` rows alone: near
        0, which every ``b > 0`` row holds strictly, the system is the cone
        they cut out."""
        d, rows = system
        assert_shooting_matches_parent(rows, d)
        zero = [i for i, (_, b) in enumerate(rows) if b == 0]
        alone = parent_irredundant_indices([rows[i] for i in zero], d)
        kept = parent_irredundant_indices(rows, d)
        assert [i for i in kept if rows[i][1] == 0] == [zero[k] for k in alone]

    @st.composite
    def first_hit_systems(draw):
        """Rows ``c`` in dimension 1-3 with positive slacks, some of them
        positive multiples of others with their slacks (full ties), a subset
        of them live, and a direction: a row's normal, a sum of two (ties
        after the perturbation), or any vector."""
        d = draw(st.integers(1, 3))
        vec = st.lists(st.integers(-2, 2), min_size=d, max_size=d).map(tuple)
        base = draw(st.lists(st.tuples(vec, st.integers(1, 3)), min_size=1, max_size=6))
        multiples = draw(st.lists(st.tuples(st.sampled_from(base), st.integers(1, 3)), max_size=3))
        system = draw(st.permutations(base + [(tuple(k * x for x in c), k * s) for (c, s), k in multiples]))
        rows = tuple((c, 0) for c, _ in system)
        slack = {j: s for j, (_, s) in enumerate(system)}
        live = sorted(draw(st.sets(st.integers(0, len(rows) - 1), min_size=1)))
        normal = st.sampled_from([c for c, _ in rows])
        pair = st.tuples(normal, normal).map(lambda p: tuple(map(sum, zip(*p))))
        return rows, live, slack, draw(st.one_of(normal, pair, vec))

    @given(first_hit_systems())
    @settings(max_examples=300, deadline=None)
    def test_sparse_first_hit_matches_the_dense_parent(system):
        rows, live, slack, d = system
        cols = polyhedra._column_index(rows, live)
        assert polyhedra._first_hit(rows, cols, slack, d) == parent_first_hit(rows, live, slack, d)

    @st.composite
    def two_term_systems(draw):
        """Rows ``c . x <= b`` with ``b >= 0`` in dimension 1-3 (so 0 satisfies
        them) standing for certified facets, and one more row of any sign."""
        d = draw(st.integers(1, 3))
        vec = st.lists(st.integers(-3, 3), min_size=d, max_size=d).map(tuple)
        rows = draw(st.lists(st.tuples(vec.filter(any), st.integers(0, 4)), min_size=1, max_size=8))
        return d, rows, (draw(vec), draw(st.integers(-4, 8)))

    @given(two_term_systems())
    @settings(max_examples=300, deadline=None)
    def test_two_term_certificate_is_sound(system):
        """A row the two-term test drops is implied by the rows that stand for
        the certified facets, as the LP decides."""
        d, rows, row = system
        normals = normals_of(rows)
        if polyhedra._two_term(row, normals):
            assert polyhedra._implied(row, [(c, b) for _, b, c in normals.values()], d)

    @st.composite
    def hulls(draw):
        """The convex hull of 3-9 integer or half-integral points in dimension 1-4."""
        d = draw(st.integers(1, 4))
        den = draw(st.sampled_from((1, 2)))
        coords = st.builds(lambda k: F(k, den), st.integers(-2 * den, 2 * den))
        pts = draw(st.lists(st.tuples(*[coords] * d), min_size=3, max_size=9, unique=True))
        return VRep(tuple(sorted(pts)), ())

    @given(hulls())
    @settings(max_examples=80, deadline=None)
    def test_double_description_against_parent_on_hulls(v):
        """The dual cone of a V-rep, whose rows `vrep_to_hrep` builds so."""
        gens = [primitive(integer_row((*(-x for x in p), -1), 0)[0]) for p in v.vertices]
        assert_dd_matches_parent(gens, len(v.vertices[0]) + 1)

    @given(
        st.integers(1, 3),
        st.booleans(),
        st.lists(st.tuples(st.lists(st.integers(-3, 3), min_size=3, max_size=3),
                           st.integers(-2, 4)), max_size=6),
    )
    @settings(max_examples=150, deadline=None)
    def test_double_description_against_parent_on_random_systems(d, boxed, extra):
        """Random rows inside the box ``|x_k| <= 2``, or alone (then often
        unbounded, with a line, or empty), homogenized as `to_vrep` does."""
        rows = (box(d, 2) if boxed else []) + [(tuple(c[:d]), b) for c, b in extra]
        assert_dd_matches_parent(*homogenized(HRep(d, tuple(rows))))

    @given(hulls())
    @settings(max_examples=80, deadline=None)
    def test_face_lattice_against_rank_oracle(v):
        try:
            h = vrep_to_hrep(v)
        except PolyhedralError:  # the points are not full-dimensional
            return
        lat = assert_lattice_matches_rank_oracle(h)
        assert set(lat.vertices) <= set(v.vertices)

    @given(
        st.integers(2, 4),
        st.tuples(st.integers(1, 2), *[st.integers(-2, 2)] * 3),
        st.fractions(-1, 1, max_denominator=2),
        st.lists(st.tuples(st.lists(st.integers(-3, 3), min_size=4, max_size=4),
                           st.integers(-1, 5)), max_size=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_face_lattice_against_rank_oracle_with_an_equality(d, c, b, extra):
        """The box ``|x_k| <= 2`` cut by the hyperplane ``c . x = b`` (which
        meets it), given as the pair ``c . x <= b`` and ``-c . x <= -b``, plus
        up to three rows: a (d - 1)-polytope, a smaller one, or empty."""
        c = tuple(c[:d])
        rows = box(d, 2) + [integer_row(c, b), integer_row(tuple(-x for x in c), -b)]
        rows += [(tuple(a[:d]), r) for a, r in extra]
        assert_lattice_matches_rank_oracle(HRep(d, tuple(rows)))

    @given(
        st.lists(
            st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 4)),
            min_size=3,
            max_size=7,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_redundancy_removal_preserves_membership(rows):
        h = HRep(2, tuple(((a, b), c) for a, b, c in rows) + tuple(box(2, 4)))
        mini = remove_redundant(h)
        for x in range(-5, 6):
            for y in range(-5, 6):
                assert h.contains((x, y)) == mini.contains((x, y))

    def parent_normalize_row(coeffs, rhs) -> tuple[tuple[int, ...], int]:
        """A row of ints (a bool read as its int) divided by its content; any
        other entry, a `Fraction` included, is refused."""
        for x in (*coeffs, rhs):
            if type(x) not in (int, bool):
                raise PolyhedralError(f"entry {x!r} is not an int")
        ints = [int(x) for x in (*coeffs, rhs)]
        g = content(ints)
        if g > 1:
            ints = [x // g for x in ints]
        return tuple(ints[:-1]), ints[-1]

    INTS = st.one_of(st.integers(-12, 12), st.integers())
    ROW_KINDS = st.sampled_from([
        INTS,
        st.one_of(INTS, st.booleans()),
        st.one_of(INTS, st.fractions(max_denominator=12)),
        st.one_of(INTS, st.booleans(), st.fractions(), st.sampled_from([0.5, 1.0, "1", None])),
    ])

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_normalize_row_matches_the_integral_path(data):
        """The all-int fast path of `_normalize_row` against a reference that
        checks every entry: equal rows of ints, or the same `PolyhedralError`
        (rows with a `Fraction` or a float included)."""
        kind = data.draw(ROW_KINDS)
        coeffs = data.draw(st.lists(kind, max_size=6))
        rhs = data.draw(kind)
        if data.draw(st.booleans()):
            coeffs = tuple(coeffs)
        try:
            want = parent_normalize_row(coeffs, rhs)
        except PolyhedralError as exc:
            with pytest.raises(PolyhedralError) as raised:
                polyhedra._normalize_row(coeffs, rhs)
            assert str(raised.value) == str(exc)
            return
        got = polyhedra._normalize_row(coeffs, rhs)
        assert got == want and type(got[0]) is tuple
        assert all(type(x) is int for x in (*got[0], got[1]))


def test_verified_map_preserves_invariants():
    shear = ((1, 1), (0, 1))
    sheared_pts = sorted(
        tuple(F(row[0] * v[0] + row[1] * v[1]) for row in shear)
        for v in to_vrep(SQUARE).vertices
    )
    sheared = vrep_to_hrep(VRep(tuple(sheared_pts), ()))
    assert verify_unimodular_map(SQUARE, sheared, shear, (0, 0))
    assert f_vector(SQUARE) == f_vector(sheared)
    assert lattice_points(SQUARE) == lattice_points(sheared)
    assert normalized_volume(SQUARE) == normalized_volume(sheared)
