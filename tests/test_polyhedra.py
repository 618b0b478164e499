import random
from fractions import Fraction as F

import pytest

from stringcones._linalg import rank_int
from stringcones.polyhedra import (
    HRep,
    PolyhedralError,
    ResourceLimit,
    Unbounded,
    VRep,
    dilate,
    f_vector,
    face_lattice,
    feasible,
    integrality,
    irredundant_cone_rows,
    lattice_points,
    normalized_volume,
    remove_redundant,
    search_unimodular_equivalence,
    simplex_max,
    to_vrep,
    verify_unimodular_map,
    vrep_to_hrep,
)

SQUARE = HRep(2, (((1, 0), 1), ((0, 1), 1), ((-1, 0), 0), ((0, -1), 0)))


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


def test_simplex_known_values():
    st, v, x = simplex_max([1, 1], SQUARE.rows, 2)
    assert (st, v, x) == ("optimal", 2, (1, 1))
    st, _, _ = simplex_max([1, 0], (((1, 0), 1), ((-1, 0), -2)), 2)
    assert st == "infeasible"
    st, _, _ = simplex_max([1], (((-1,), 0),), 1)
    assert st == "unbounded"
    st, v, _ = simplex_max([1], (((-1,), -2), ((1,), 5)), 1)
    assert (st, v) == ("optimal", 5)


def test_simplex_against_float_solver():
    scipy = pytest.importorskip("scipy.optimize")
    rng = random.Random(5)
    for _ in range(60):
        d = rng.randint(1, 4)
        rows = [
            (tuple(rng.randint(-4, 4) for _ in range(d)), rng.randint(0, 6))
            for _ in range(rng.randint(d + 1, d + 6))
        ] + box(d, 5)
        c = [rng.randint(-3, 3) for _ in range(d)]
        st, v, _ = simplex_max(c, rows, d)
        res = scipy.linprog(
            [-ci for ci in c],
            A_ub=[list(r) for r, _ in rows],
            b_ub=[float(b) for _, b in rows],
            bounds=[(None, None)] * d,
            method="highs",
        )
        assert (st == "optimal") == (res.status == 0)
        if st == "optimal":
            assert abs(float(v) + res.fun) < 1e-7


def test_feasible_point():
    pt = feasible(SQUARE.rows, 2)
    assert pt is not None and SQUARE.contains(pt)
    assert feasible((((1,), 0), ((-1,), -1)), 1) is None


def test_remove_redundant_worked():
    h = HRep(2, (((1, 1), 1), ((2, 2), 2), ((-1, 0), 0), ((0, -1), 0), ((1, 1), 5)))
    mini = remove_redundant(h)
    assert set(mini.rows) == {((1, 1), F(1)), ((-1, 0), F(0)), ((0, -1), F(0))}
    assert remove_redundant(mini).rows == mini.rows
    rev = remove_redundant(HRep(2, tuple(reversed(h.rows))))
    assert set(rev.rows) == set(mini.rows)


def test_remove_redundant_infeasible():
    h = HRep(1, (((1,), 0), ((-1,), -1)))
    assert remove_redundant(h).rows == (((0,), F(-1)),)


def test_redundancy_against_vertex_incidence_oracle():
    rng = random.Random(7)
    for _ in range(20):
        h = random_polytope(rng, 4, 9)
        mini = remove_redundant(h)
        verts = to_vrep(h, bounded_expected=True).vertices
        facets = set()
        for c, b in h.rows:
            tight = [v for v in verts if sum(ci * vi for ci, vi in zip(c, v)) == b]
            if len(tight) >= 4:
                diffs = [[x - y for x, y in zip(v, tight[0])] for v in tight[1:]]
                if rank_int(diffs) == 3:
                    facets.add((c, b))
        assert facets == set(mini.rows)


def test_cone_redundancy():
    rows = [(-1, 0), (0, -1), (-1, -1)]
    assert irredundant_cone_rows(rows, 2) == [0, 1]


def test_to_vrep_square_and_cone():
    vr = to_vrep(SQUARE, bounded_expected=True)
    assert len(vr.vertices) == 4 and not vr.rays
    cone = HRep(2, (((-1, 0), 0), ((0, -1), 0)))
    vc = to_vrep(cone)
    assert set(vc.rays) == {(1, 0), (0, 1)}


def test_to_vrep_unbounded_witness():
    half_strip = HRep(2, (((-1, 0), 0), ((0, -1), 0), ((0, 1), 1)))
    quadrant = HRep(2, (((-1, 0), 0), ((0, -1), 0)))  # a cone, not its apex
    for h in (half_strip, quadrant):
        for call in (lambda h: to_vrep(h, bounded_expected=True), f_vector, integrality):
            with pytest.raises(Unbounded) as err:
                call(h)
            ray = err.value.ray
            assert ray is not None and any(ray) and h.contains(tuple(10 * x for x in ray))


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
        vr = to_vrep(h, bounded_expected=True)
        if len(vr.vertices) <= d:
            continue
        try:
            h2 = vrep_to_hrep(vr)
        except PolyhedralError:
            continue
        assert set(to_vrep(h2, bounded_expected=True).vertices) == set(vr.vertices)
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
            ((1, 1, 1), F(3, 2)),
            ((-1, -1, -1), F(-3, 2)),
            ((-1, 0, 0), 0),
            ((0, -1, 0), 0),
            ((0, 0, -1), 0),
        ),
    )
    assert f_vector(tri) == (1, 3, 3, 1)


def test_face_lattice_dims():
    lat = face_lattice(SQUARE)
    assert lat.dim == 2
    assert sorted(d for _, d in lat.faces) == [0, 0, 0, 0, 1, 1, 1, 1, 2]


def test_integrality():
    assert integrality(SQUARE) == (True, None)
    seg = HRep(1, (((2,), 3), ((-1,), 0)))
    flag, witness = integrality(seg)
    assert not flag and witness == (F(3, 2),)


def test_lattice_points():
    assert lattice_points(SQUARE) == 4
    assert lattice_points(dilate(SQUARE, 2)) == 9
    assert lattice_points(HRep(1, (((1,), 3), ((-1,), 0)))) == 4
    assert lattice_points(HRep(1, (((1,), 0), ((-1,), -1)))) == 0
    with pytest.raises(ResourceLimit):
        lattice_points(dilate(SQUARE, 1000), cap=10)


def test_normalized_volume():
    assert normalized_volume(SQUARE) == 2
    simplex = HRep(2, (((1, 1), 1), ((-1, 0), 0), ((0, -1), 0)))
    assert normalized_volume(simplex) == 1
    assert normalized_volume(dilate(SQUARE, 3)) == 18


def test_verify_unimodular_map():
    ident = ((1, 0), (0, 1))
    assert verify_unimodular_map(SQUARE, SQUARE, ident, (0, 0))
    shear = ((1, 1), (0, 1))
    sheared = HRep(2, (((0, 1), 1), ((0, -1), 0), ((1, -1), 1), ((-1, 1), 0)))
    assert verify_unimodular_map(SQUARE, sheared, shear, (0, 0))
    with pytest.raises(PolyhedralError):
        verify_unimodular_map(SQUARE, SQUARE, ((2, 0), (0, 1)), (0, 0))


def test_chamber_change_is_unimodular_on_a_cone_section():
    # the chamber substitution maps the string cone onto the chamber cone
    from stringcones.cones import string_cone
    from stringcones.diagram import build_diagram, chamber_structure
    from stringcones.weyl import LieType, ReducedWord

    w = ReducedWord.parse("A3", "1,3,2,1,3,2")
    ch = chamber_structure(build_diagram(w))
    cone = string_cone(LieType("A", 3), w)
    h = cone.to_hrep()
    # intersect with a box to get a polytope section, then push through Phi
    sect = HRep(6, h.rows + tuple(box(6, 3)))
    mapped_rows = []
    for c, b in sect.rows:
        mapped_rows.append((c, b))
    assert verify_unimodular_map(sect, sect, tuple(tuple(int(i == j) for j in range(6)) for i in range(6)), (0,) * 6)
    mat = ch.phi_rows
    vr = to_vrep(sect, bounded_expected=True)
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
        for v in to_vrep(SQUARE, bounded_expected=True).vertices
    ]
    sheared = vrep_to_hrep(VRep(tuple(sorted(tuple(map(F, v)) for v in sheared_v)), ()))
    res2 = search_unimodular_equivalence(SQUARE, sheared)
    assert res2.status == "equivalent"
    assert verify_unimodular_map(SQUARE, sheared, res2.matrix, res2.shift)


def test_search_equivalence_refutes():
    triangle = HRep(2, (((1, 1), 1), ((-1, 0), 0), ((0, -1), 0)))
    res = search_unimodular_equivalence(SQUARE, triangle)
    assert res.status == "inequivalent" and "f-vector" in res.witness
    wide = HRep(2, (((1, 0), 2), ((0, 1), 1), ((-1, 0), 0), ((0, -1), 0)))
    res2 = search_unimodular_equivalence(SQUARE, wide)
    assert res2.status == "inequivalent" and "anchored search" in res2.witness
    # C2 at lambda = (2, 1): the word 1,2,1,2 agrees with the Gelfand-Tsetlin
    # polytope on f-vector, integrality, lattice points of P and 2P and
    # normalized volume, yet the search refutes it
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
    assert res3.status == "inequivalent" and "anchored search" in res3.witness


def test_search_equivalence_budget_exhaustion_is_unknown():
    res = search_unimodular_equivalence(SQUARE, SQUARE, budget=0)
    assert res.status == "unknown"
    # a segment in the plane: edges do not determine a map of the plane
    seg = HRep(2, (((1, 0), 2), ((-1, 0), 0), ((0, 1), 0), ((0, -1), 0)))
    res2 = search_unimodular_equivalence(seg, seg)
    assert res2.status == "unknown" and "lower-dimensional" in res2.witness


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


def test_verified_map_preserves_invariants():
    shear = ((1, 1), (0, 1))
    sheared_pts = sorted(
        tuple(F(row[0] * v[0] + row[1] * v[1]) for row in shear)
        for v in to_vrep(SQUARE, bounded_expected=True).vertices
    )
    sheared = vrep_to_hrep(VRep(tuple(sheared_pts), ()))
    assert verify_unimodular_map(SQUARE, sheared, shear, (0, 0))
    assert f_vector(SQUARE) == f_vector(sheared)
    assert lattice_points(SQUARE) == lattice_points(sheared)
    assert normalized_volume(SQUARE) == normalized_volume(sheared)
