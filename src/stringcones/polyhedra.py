"""Exact rational polyhedral kernel.

Half-space representations store integer rows ``c . x <= b``; cones are the
special case ``b = 0``.  Everything runs over Python integers and
`fractions.Fraction`: no floating point enters any decision.

The pieces:

* a dictionary-form simplex with Bland's rule (`simplex_max`), plus a
  phase-1-only solver for nonnegative systems used by the redundancy tests;
* redundancy removal: an inequality is redundant exactly when it is a
  nonnegative combination of the remaining ones (plus a constant slack),
  which is the LP dual of maximizing its violation over the rest;
* double description with lexicographic insertion for vertex/ray
  enumeration, both directions;
* the face lattice via closure of vertex-facet incidences, f-vectors,
  exact volumes by recursive triangulation;
* lattice-point counting by bounded coordinate recursion;
* unimodular equivalence decided from the face lattices: dimension,
  f-vector and integrality, then a complete anchored search for an explicit
  integer map, whose exhaustion certifies inequivalence.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from ._linalg import (
    content,
    det_int,
    echelon,
    independent_rows,
    inverse_int,
    mat_vec,
    nullspace_vector,
    primitive,
    rank_int,
)

__all__ = [
    "HRep",
    "VRep",
    "PolyhedralError",
    "Unbounded",
    "ResourceLimit",
    "simplex_max",
    "feasible",
    "remove_redundant",
    "irredundant_cone_rows",
    "to_vrep",
    "vrep_to_hrep",
    "FaceLattice",
    "face_lattice",
    "f_vector",
    "integrality",
    "lattice_points",
    "dilate",
    "normalized_volume",
    "verify_unimodular_map",
    "search_unimodular_equivalence",
    "EquivalenceResult",
]


class PolyhedralError(ValueError):
    pass


class Unbounded(PolyhedralError):
    def __init__(self, message: str, ray=None):
        super().__init__(message)
        self.ray = ray


class ResourceLimit(RuntimeError):
    pass


def _normalize_row(coeffs, rhs) -> tuple[tuple[int, ...], Fraction]:
    """Scale a row to integer coefficients with content 1 (rhs may stay rational)."""
    rhs = Fraction(rhs)
    denom = rhs.denominator
    for c in coeffs:
        denom = denom * Fraction(c).denominator // gcd(denom, Fraction(c).denominator)
    ints = [int(Fraction(c) * denom) for c in coeffs]
    b = rhs * denom
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    g = gcd(g, abs(b.numerator)) if b.denominator == 1 else g
    if g > 1:
        ints = [x // g for x in ints]
        b = b / g
    return tuple(ints), b


@dataclass(frozen=True)
class HRep:
    """Intersection of half-spaces ``c . x <= b`` in dimension ``dim``."""

    dim: int
    rows: tuple[tuple[tuple[int, ...], Fraction], ...]

    def __post_init__(self) -> None:
        rows = tuple(_normalize_row(c, b) for c, b in self.rows)
        for c, _ in rows:
            if len(c) != self.dim:
                raise PolyhedralError("row length does not match dimension")
        object.__setattr__(self, "rows", rows)

    @property
    def is_cone(self) -> bool:
        return all(b == 0 for _, b in self.rows)

    def contains(self, point) -> bool:
        return all(sum(c * x for c, x in zip(row, point)) <= b for row, b in self.rows)

    def tight_at(self, point) -> tuple[int, ...]:
        return tuple(
            i
            for i, (row, b) in enumerate(self.rows)
            if sum(c * x for c, x in zip(row, point)) == b
        )


@dataclass(frozen=True)
class VRep:
    """Vertices (rational points) and rays (primitive integer directions)."""

    vertices: tuple[tuple[Fraction, ...], ...]
    rays: tuple[tuple[int, ...], ...]


# ---------------------------------------------------------------------------
# Linear programming
# ---------------------------------------------------------------------------


def _pivot(rows, obj, basic, nonbasic, r, j):
    """Exchange the basic variable of row r with nonbasic j.

    Rows are dictionaries ``basic_i = row[0] + sum row[k+1] * nonbasic_k``.
    Solving row r for its j-th nonbasic negates and rescales that row; every
    other row substitutes the solved expression.
    """
    piv_row = rows[r]
    neg_inv = Fraction(-1) / piv_row[j + 1]
    new_row = [x * neg_inv for x in piv_row]
    new_row[j + 1] = -neg_inv
    for i, row in enumerate(rows):
        if i == r:
            continue
        f = row[j + 1]
        if f:
            nr = [x + f * y for x, y in zip(row, new_row)]
            nr[j + 1] = f * new_row[j + 1]
            rows[i] = nr
    f = obj[j + 1]
    if f:
        no = [x + f * y for x, y in zip(obj, new_row)]
        no[j + 1] = f * new_row[j + 1]
        obj[:] = no
    rows[r] = new_row
    basic[r], nonbasic[j] = nonbasic[j], basic[r]


def _run_simplex(rows, obj, basic, nonbasic):
    """Maximize obj over the dictionary; Bland's rule.  Returns 'optimal' or
    ('unbounded', entering column)."""
    while True:
        enter = None
        for j in range(len(nonbasic)):
            if obj[j + 1] > 0:
                if enter is None or nonbasic[j] < nonbasic[enter]:
                    enter = j
        if enter is None:
            return "optimal", None
        leave = None
        best = None
        for i, row in enumerate(rows):
            coef = row[enter + 1]
            if coef < 0:
                ratio = -row[0] / coef
                if best is None or ratio < best or (ratio == best and basic[i] < basic[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            return "unbounded", enter
        _pivot(rows, obj, basic, nonbasic, leave, enter)


def simplex_max(objective, rows_le, dim):
    """Maximize ``objective . x`` over ``{x : c . x <= b}`` with x free.

    Returns ``(status, value, point)`` with status one of ``"optimal"``,
    ``"unbounded"`` (value/point None) or ``"infeasible"``.
    """
    m = len(rows_le)
    n = 2 * dim  # free variables split into positive and negative parts
    # dictionary rows: slack_i = b_i - sum a_ij xsplit_j; stored [const, coefs...]
    # with basic = const + sum coefs * nonbasic (coefs carry the minus signs).
    def split_coeffs(c):
        out = []
        for x in c:
            out.extend((Fraction(-x), Fraction(x)))
        return out

    rows = []
    for c, b in rows_le:
        rows.append([Fraction(b)] + split_coeffs(c))
    basic = [n + i for i in range(m)]
    nonbasic = list(range(n))

    if any(row[0] < 0 for row in rows):
        aux = n + m
        for row in rows:
            row.append(Fraction(1))
        nonbasic.append(aux)
        obj1 = [Fraction(0)] * (n + 1) + [Fraction(-1)]
        worst = min(range(m), key=lambda i: rows[i][0])
        _pivot(rows, obj1, basic, nonbasic, worst, n)
        status, _ = _run_simplex(rows, obj1, basic, nonbasic)
        if status != "optimal":
            raise PolyhedralError("phase-1 objective is bounded by 0 but reported unbounded")
        if obj1[0] < 0:
            return "infeasible", None, None
        if aux in basic:
            r = basic.index(aux)
            j = next((jj for jj in range(len(nonbasic)) if rows[r][jj + 1] != 0), None)
            if j is None:  # the row reads aux = 0; discard it
                del rows[r], basic[r]
            else:
                _pivot(rows, obj1, basic, nonbasic, r, j)
        col = nonbasic.index(aux)
        del nonbasic[col]
        for row in rows:
            del row[col + 1]

    obj = [Fraction(0)] * (len(nonbasic) + 1)
    coef = []
    for x in objective:  # z = sum c x+ - c x-, opposite split to slack rows
        coef.extend((Fraction(x), Fraction(-x)))
    for var, c in enumerate(coef):
        if c == 0:
            continue
        if var in nonbasic:
            obj[nonbasic.index(var) + 1] += c
        else:
            r = basic.index(var)
            obj[0] += c * rows[r][0]
            for j in range(len(nonbasic)):
                obj[j + 1] += c * rows[r][j + 1]

    status, _ = _run_simplex(rows, obj, basic, nonbasic)
    if status == "unbounded":
        return "unbounded", None, None
    values = {var: Fraction(0) for var in range(n)}
    for var, row in zip(basic, rows):
        if var < n:
            values[var] = row[0]
    point = tuple(values[2 * k] - values[2 * k + 1] for k in range(dim))
    value = sum(Fraction(c) * x for c, x in zip(objective, point))
    return "optimal", value, point


def feasible(rows_le, dim):
    """A feasible point of ``{x : c . x <= b}``, or None."""
    status, _, point = simplex_max([0] * dim, rows_le, dim)
    return point if status == "optimal" else None


def _nonneg_feasible(eq_rows, rhs) -> bool:
    """Whether ``A x = b`` has a solution with ``x >= 0`` (phase-1 tableau)."""
    m = len(eq_rows)
    if m == 0:
        return True
    n = len(eq_rows[0])
    tab = []
    for row, b in zip(eq_rows, rhs):
        row = [Fraction(x) for x in row]
        b = Fraction(b)
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


def _implied(target, others, dim) -> bool:
    """Whether ``target`` (c, b) is a consequence of the feasible rows ``others``.

    By LP duality this holds exactly when c is a nonnegative combination of
    the other normals whose combined right-hand side does not exceed b.
    """
    c_t, b_t = target
    eq_rows = []  # columns: one lambda per row plus the constant slack
    rhs = []
    for k in range(dim):
        eq_rows.append([Fraction(c[k]) for c, _ in others] + [Fraction(0)])
        rhs.append(Fraction(c_t[k]))
    eq_rows.append([Fraction(b) for _, b in others] + [Fraction(1)])
    rhs.append(Fraction(b_t))
    return _nonneg_feasible(eq_rows, rhs)


def _irredundant_indices(rows, dim) -> list[int] | None:
    """Indices of a minimal subsystem; None when the system is infeasible."""
    live = list(range(len(rows)))
    seen: dict[tuple, int] = {}
    for i, (c, b) in enumerate(rows):
        key = (c, b)
        if key in seen:
            live.remove(i)
        elif all(x == 0 for x in c):
            if b < 0:
                return None
            live.remove(i)
        else:
            seen[key] = i
    if feasible([rows[i] for i in live], dim) is None:
        return None
    for i in list(live):
        others = [rows[j] for j in live if j != i]
        if _implied(rows[i], others, dim):
            live.remove(i)
    return live


def remove_redundant(h: HRep) -> HRep:
    """Minimal half-space representation of the same set.

    An infeasible system collapses to the canonical empty representation
    ``0 <= -1`` rather than raising.
    """
    kept = _irredundant_indices(h.rows, h.dim)
    if kept is None:
        return HRep(h.dim, (((0,) * h.dim, Fraction(-1)),))
    return HRep(h.dim, tuple(h.rows[i] for i in kept))


def irredundant_cone_rows(rows, dim) -> list[int]:
    """Minimal-subsystem indices for cone rows ``c . x <= 0`` (deduplicated input)."""
    kept = _irredundant_indices(tuple((tuple(c), Fraction(0)) for c in rows), dim)
    if kept is None:
        raise PolyhedralError("a cone system contains 0, yet was reported infeasible")
    return kept


# ---------------------------------------------------------------------------
# Double description
# ---------------------------------------------------------------------------


def _dd_rays(rows, dim):
    """Extreme rays of the pointed cone ``{x : c . x <= 0 for all rows}``.

    Rows that do not span the dual space raise `PolyhedralError`: the cone
    contains a line (or, for the dual cone of a V-representation, the points
    are not full-dimensional).  Insertion order is lexicographic for
    determinism.
    """
    rows = [primitive(r) for r in rows]
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


def to_vrep(h: HRep, bounded_expected: bool = False) -> VRep:
    """Exact vertex/ray representation.

    Cones (all right-hand sides zero) yield their apex and extreme rays;
    other inputs are homogenized.  With ``bounded_expected`` a recession ray
    (of a cone or of the homogenized system) raises `Unbounded` carrying it
    as a witness.
    """
    if h.is_cone:
        rays = _dd_rays([c for c, _ in h.rows], h.dim)
        if rays and bounded_expected:
            raise Unbounded("input is an unbounded cone", ray=rays[0])
        return VRep(((Fraction(0),) * h.dim,), tuple(rays))

    hom_rows = [tuple(list(c) + [-b]) for c, b in ((c, b) for c, b in h.rows)]
    hom_rows.append(tuple([0] * h.dim + [-1]))  # homogenizing coordinate >= 0
    hom_rows = [_normalize_row(r, 0)[0] for r in hom_rows]
    witness = nullspace_vector(hom_rows)
    if witness is not None:
        raise Unbounded(
            "system has a lineality direction; not a bounded polytope",
            ray=tuple(witness[: h.dim]),
        )
    rays = _dd_rays(hom_rows, h.dim + 1)
    vertices = []
    rec_rays = []
    for r in rays:
        t = r[h.dim]
        if t > 0:
            vertices.append(tuple(Fraction(x, t) for x in r[: h.dim]))
        else:
            rec_rays.append(tuple(r[: h.dim]))
    if rec_rays and bounded_expected:
        raise Unbounded("input is unbounded", ray=rec_rays[0])
    return VRep(tuple(sorted(vertices)), tuple(sorted(rec_rays)))


def vrep_to_hrep(v: VRep) -> HRep:
    """Facet system of the convex hull of a full-dimensional V-representation."""
    if not v.vertices:
        raise PolyhedralError("empty vertex set")
    dim = len(v.vertices[0])
    gens = [tuple([-x for x in vert] + [Fraction(-1)]) for vert in v.vertices]
    gens += [tuple([-x for x in ray] + [Fraction(0)]) for ray in v.rays]
    gens = [_normalize_row(g, 0)[0] for g in gens]
    facets = _dd_rays(gens, dim + 1)
    # a dual ray (y, y0) certifies y.x + y0 >= 0 on the hull
    rows = [(tuple(-c for c in f[:dim]), Fraction(f[dim])) for f in facets]
    return HRep(dim, tuple(rows))


# ---------------------------------------------------------------------------
# Faces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FaceLattice:
    """All faces of a bounded polytope, as vertex bitsets graded by dimension."""

    dim: int
    vertices: tuple[tuple[Fraction, ...], ...]
    hrep: HRep
    incidences: tuple[int, ...]  # per facet, bitset over vertex indices
    faces: tuple[tuple[int, int], ...]  # (vertex bitset, dimension), sorted

    def f_vector(self) -> tuple[int, ...]:
        counts = [0] * (self.dim + 2)
        counts[0] = 1  # the empty face
        for _, d in self.faces:
            counts[d + 1] += 1
        return tuple(counts)

    def faces_of_dim(self, d: int) -> list[int]:
        return [bits for bits, fd in self.faces if fd == d]

    def tight_facets(self, bits: int) -> list[int]:
        return [i for i, inc in enumerate(self.incidences) if bits & ~inc == 0]


def _affine_reduce(vertices):
    """Exact coordinates of the vertices inside their own affine hull.

    The differences ``v - v0`` are projected onto the pivot columns of their
    echelon form; that projection is injective on the affine hull.
    """
    v0 = vertices[0]
    pivots = echelon([[a - b for a, b in zip(v, v0)] for v in vertices[1:]])[1]
    return [tuple(v[c] - v0[c] for c in pivots) for v in vertices], len(pivots)


def face_lattice(h: HRep) -> FaceLattice:
    vrep = to_vrep(h, bounded_expected=True)
    verts = vrep.vertices
    if not verts:
        raise PolyhedralError("empty polytope has no face lattice")
    reduced, dim = _affine_reduce(verts)
    if dim == 0:
        return FaceLattice(0, verts, h, tuple(), (((1 << len(verts)) - 1, 0),))
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
    faces = tuple(sorted(seen.items()))
    return FaceLattice(dim, verts, minimal, tuple(incidences), faces)


def f_vector(h: HRep) -> tuple[int, ...]:
    """Face counts ``(f_-1, f_0, ..., f_dim)``, empty face and polytope included."""
    return face_lattice(h).f_vector()


def integrality(h: HRep):
    """Whether all vertices are integral; returns (flag, witness_vertex_or_None)."""
    vrep = to_vrep(h, bounded_expected=True)
    for v in vrep.vertices:
        if any(x.denominator != 1 for x in v):
            return False, v
    return True, None


def dilate(h: HRep, factor: int) -> HRep:
    return HRep(h.dim, tuple((c, b * factor) for c, b in h.rows))


def lattice_points(h: HRep, cap: int = 2_000_000) -> int:
    """Exact number of integer points, by recursion over the coordinates.

    Coordinates are fixed from the last to the first, with interval pruning
    against the outstanding rows; visiting more than ``cap`` partial
    assignments raises `ResourceLimit`.
    """
    d = h.dim
    if d == 0:
        return 1
    lo = []
    hi = []
    for k in range(d):
        unit = [0] * d
        unit[k] = 1
        status, val, _ = simplex_max(unit, h.rows, d)
        if status == "infeasible":
            return 0
        if status == "unbounded":
            raise Unbounded("lattice point counting needs a bounded polytope")
        hi.append(val)
        unit[k] = -1
        status, val, _ = simplex_max(unit, h.rows, d)
        if status == "unbounded":
            raise Unbounded("lattice point counting needs a bounded polytope")
        lo.append(-val)
    floor = lambda f: f.numerator // f.denominator
    ceil = lambda f: -((-f).numerator // (-f).denominator)
    box_lo = [ceil(x) for x in lo]
    box_hi = [floor(x) for x in hi]
    rows = [(c, b) for c, b in h.rows]
    visits = 0

    def count(k: int, partial) -> int:
        # partial maps coordinate index -> fixed value, for indices > k
        nonlocal visits
        visits += 1
        if visits > cap:
            raise ResourceLimit(f"lattice point enumeration exceeded {cap} nodes")
        lo_k, hi_k = Fraction(box_lo[k]), Fraction(box_hi[k])
        for c, b in rows:
            ck = c[k]
            if ck == 0:
                continue
            residual = Fraction(b)
            for idx in range(k + 1, d):
                residual -= c[idx] * partial[idx]
            slack = residual
            for idx in range(k):
                contrib = c[idx]
                if contrib > 0:
                    slack -= contrib * box_lo[idx]
                elif contrib < 0:
                    slack -= contrib * box_hi[idx]
            if ck > 0:
                hi_k = min(hi_k, slack / ck)
            else:
                lo_k = max(lo_k, slack / ck)
        if lo_k > hi_k:
            return 0
        total = 0
        for val in range(ceil(lo_k), floor(hi_k) + 1):
            partial[k] = Fraction(val)
            if k == 0:
                ok = all(
                    sum(c[i] * partial[i] for i in range(d)) <= b for c, b in rows
                )
                total += 1 if ok else 0
            else:
                total += count(k - 1, partial)
        partial[k] = None
        return total

    return count(d - 1, [None] * d)


def _triangulate(lat: FaceLattice):
    """A triangulation of the polytope as tuples of vertex indices."""
    verts = lat.vertices
    n = len(verts)
    face_dim = dict(lat.faces)

    def subfaces(bits):
        cands = {bits & inc for inc in lat.incidences}
        cands = {c for c in cands if c and c != bits}
        out = []
        for c in cands:
            if not any(c != o and c & ~o == 0 for o in cands):
                out.append(c)
        return out

    memo: dict[int, list[tuple[int, ...]]] = {}

    def tri(bits) -> list[tuple[int, ...]]:
        if bits in memo:
            return memo[bits]
        if face_dim[bits] == 0:
            v = bits.bit_length() - 1
            memo[bits] = [(v,)]
            return memo[bits]
        anchor = (bits & -bits).bit_length() - 1
        simplices = []
        for sub in subfaces(bits):
            if sub >> anchor & 1:
                continue
            for s in tri(sub):
                simplices.append(s + (anchor,))
        memo[bits] = simplices
        return simplices

    top = (1 << n) - 1
    return tri(top)


def normalized_volume(h: HRep) -> Fraction:
    """dim! times the Euclidean volume; an integer for lattice polytopes."""
    lat = face_lattice(h)
    if lat.dim != h.dim:
        raise PolyhedralError("normalized volume needs a full-dimensional polytope")
    verts = lat.vertices
    total = Fraction(0)
    for simplex in _triangulate(lat):
        base = verts[simplex[0]]
        mat = [[v - b for v, b in zip(verts[i], base)] for i in simplex[1:]]
        denom = 1
        for row in mat:
            for x in row:
                denom = denom * x.denominator // gcd(denom, x.denominator)
        int_mat = [[int(x * denom) for x in row] for row in mat]
        total += Fraction(abs(det_int(int_mat)), denom**h.dim)
    return total


# ---------------------------------------------------------------------------
# Unimodular equivalence
# ---------------------------------------------------------------------------


def verify_unimodular_map(p: HRep, q: HRep, matrix, shift) -> bool:
    """Whether x -> Ux + shift maps the vertex set of p onto that of q."""
    if len(matrix) != p.dim or any(len(r) != p.dim for r in matrix):
        raise PolyhedralError("matrix shape does not match the dimension")
    if any(int(x) != x for row in matrix for x in row):
        raise PolyhedralError("unimodular map needs integer entries")
    d = det_int([[int(x) for x in row] for row in matrix])
    if d not in (1, -1):
        raise PolyhedralError(f"matrix determinant is {d}, not +-1")
    vp = to_vrep(p, bounded_expected=True).vertices
    vq = set(to_vrep(q, bounded_expected=True).vertices)
    image = {tuple(a + s for a, s in zip(mat_vec(matrix, v), shift)) for v in vp}
    return image == vq


@dataclass(frozen=True)
class EquivalenceResult:
    status: str  # "equivalent" | "inequivalent" | "unknown"
    matrix: tuple[tuple[int, ...], ...] | None = None
    shift: tuple[int, ...] | None = None
    witness: str | None = None


def _edge_data(lat: FaceLattice, vertex_index: int):
    """Primitive directions, lattice lengths and endpoint degrees of the
    edges at a vertex."""
    edges = []
    vbit = 1 << vertex_index
    for bits in lat.faces_of_dim(1):
        if bits & vbit:
            other = bits & ~vbit
            w = other.bit_length() - 1
            diff = [b - a for a, b in zip(lat.vertices[vertex_index], lat.vertices[w])]
            denom = lcm(*(x.denominator for x in diff))
            ints = [int(x * denom) for x in diff]
            g = content(ints)
            direction = tuple(x // g for x in ints)
            length = Fraction(g, denom)
            degree = len(lat.tight_facets(1 << w))
            edges.append((direction, length, degree))
    edges.sort()
    return edges


def _simple_vertices(lat: FaceLattice):
    out = []
    for vi in range(len(lat.vertices)):
        if len(lat.tight_facets(1 << vi)) == lat.dim:
            out.append(vi)
    return out


def search_unimodular_equivalence(p: HRep, q: HRep, budget: int = 100_000) -> EquivalenceResult:
    """Decide unimodular equivalence, reading everything from the face lattices.

    The decision order is dimension, f-vector, integrality, then the anchored
    search; a mismatch at any stage certifies inequivalence.  The search
    anchors at a simple vertex ``a`` of ``p`` and tries every simple vertex of
    ``q`` and every bijection of edge stars that preserves each edge's
    lattice length and opposite-vertex facet degree.  The search is complete:
    a lattice map ``x -> Ux + s`` of ``p`` onto ``q`` sends ``a`` to a simple
    vertex of ``q`` and its edges, with their primitive directions, lengths
    and degrees, to the edges there, so it is one of the candidates, and the
    ``d`` independent edge directions at ``a`` determine ``U``.  A verified
    hit certifies equivalence with an explicit map; running out of
    candidates certifies inequivalence.  "unknown" is left only for an
    exhausted budget, a ``p`` without simple vertex, and lower-dimensional
    input (whose edges do not determine ``U``).
    """
    lat_p = face_lattice(p)
    lat_q = face_lattice(q)
    if lat_p.dim != lat_q.dim:
        return EquivalenceResult("inequivalent", witness=f"dimension {lat_p.dim} != {lat_q.dim}")
    fp, fq = lat_p.f_vector(), lat_q.f_vector()
    if fp != fq:
        return EquivalenceResult("inequivalent", witness=f"f-vector {fp} != {fq}")
    ip, iq = (all(x.denominator == 1 for v in lat.vertices for x in v) for lat in (lat_p, lat_q))
    if ip != iq:
        return EquivalenceResult(
            "inequivalent", witness=f"integrality {ip} != {iq}"
        )
    d = lat_p.dim
    if d != p.dim or d != q.dim:
        return EquivalenceResult(
            "unknown", witness=f"lower-dimensional input: {d}-polytopes in {p.dim}- and {q.dim}-space"
        )

    simples_p = _simple_vertices(lat_p)
    if not simples_p:
        return EquivalenceResult("unknown", witness="no simple vertex to anchor the search")
    anchor = simples_p[0]
    edges_p = _edge_data(lat_p, anchor)
    sig_p = sorted((length, degree) for _, length, degree in edges_p)
    # U = M_q (den_p M_p^-1) / den_p, where M_p has the anchor's edge directions as columns
    inv_p, den_p = inverse_int(list(zip(*(e[0] for e in edges_p))))
    # every vertex scaled by one common denominator, so images are integer tuples
    den = lcm(*(x.denominator for v in lat_p.vertices + lat_q.vertices for x in v))
    verts_p = [[int(x * den) for x in v] for v in lat_p.vertices]
    verts_q = {tuple(int(x * den) for x in v) for v in lat_q.vertices}

    simples_q = _simple_vertices(lat_q)
    matched = tried = 0
    for cand in simples_q:
        edges_q = _edge_data(lat_q, cand)
        if sorted((length, degree) for _, length, degree in edges_q) != sig_p:
            continue
        matched += 1
        # assign each anchor edge a target edge with the same signature
        groups: dict[tuple, list[int]] = {}
        for idx, (_, length, degree) in enumerate(edges_q):
            groups.setdefault((length, degree), []).append(idx)

        def assignments(i: int, used: set[int]):
            if i == d:
                yield []
                return
            _, length, degree = edges_p[i]
            for idx in groups.get((length, degree), []):
                if idx in used:
                    continue
                used.add(idx)
                for rest in assignments(i + 1, used):
                    yield [idx] + rest
                used.remove(idx)

        cand_q = [int(x * den) for x in lat_q.vertices[cand]]
        for assign in assignments(0, set()):
            tried += 1
            if tried > budget:
                return EquivalenceResult("unknown", witness="search budget exhausted")
            cols_q = [edges_q[idx][0] for idx in assign]
            u_rows = []
            for r in range(d):
                row = [sum(cols_q[c][r] * inv_p[c][j] for c in range(d)) for j in range(d)]
                if any(x % den_p for x in row):
                    break
                u_rows.append([x // den_p for x in row])
            if len(u_rows) < d or det_int(u_rows) not in (1, -1):
                continue
            # den times the shift; the shift itself must be integral
            shift = [b - a for b, a in zip(cand_q, mat_vec(u_rows, verts_p[anchor]))]
            if any(x % den for x in shift):
                continue
            # f_0 agrees and U is injective, so images inside q's vertex set cover it
            if all(
                tuple(a + s for a, s in zip(mat_vec(u_rows, v), shift)) in verts_q
                for v in verts_p
            ):
                return EquivalenceResult(
                    "equivalent",
                    matrix=tuple(tuple(r) for r in u_rows),
                    shift=tuple(x // den for x in shift),
                )
    return EquivalenceResult(
        "inequivalent",
        witness=f"no lattice map: the anchored search tried {len(simples_q)} simple vertices"
        f" ({matched} matching the anchor's edge signature) and {tried} edge bijections",
    )
