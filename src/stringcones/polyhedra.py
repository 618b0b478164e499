"""Exact rational polyhedral kernel.

Half-space representations store rows ``c . x <= b`` as
``(tuple[int], int)`` pairs of content 1; cones are the special case
``b = 0``.  Everything runs over Python integers, vertices as integer
points over one common denominator: rows come in as integers (a caller
scales rational data where it reads it), `Fraction`s go out only through
`to_vrep`, `integrality` and `normalized_volume`, and no floating point
enters any decision.

The pieces:

* one LP, a phase-1 tableau deciding whether ``A y = b`` has a solution
  ``y >= 0``; every question below is asked of it.  The tableau holds only
  integers (Edmonds–Bareiss): every entry is ``det(B)`` times the rational
  tableau's entry for the basis ``B``, each update divides exactly by the
  previous pivot, and pivots are positive.  When there is no solution, its
  final objective row is an integer Farkas certificate;
* redundancy removal: an inequality is redundant exactly when it is a
  nonnegative combination of the remaining ones (plus a constant slack),
  which is the LP dual of maximizing its violation over the rest.  First
  a strictly interior point is found, if there is one: written down by
  back-substitution when every ``b >= 0`` and every ``b = 0`` row leads
  negative (string cones, and string polytopes at a regular weight), and
  otherwise by one LP, as the certificate that ``0 <= -1`` is no
  combination of the strict rows; an exact ray from it meets a facet
  first, so ray shooting certifies most facets with no LP.  A ray reads
  the rows through a coordinate index, only those sharing a coordinate
  with its direction, since string forms are sparse.  A row that two
  certified facets imply is dropped with no LP, before any ray is shot
  from it.  Each row the rays leave undecided is dropped by that test or
  by one LP against the other live rows, or else kept; a system with no
  interior point takes this last pass alone.  A string polytope at a
  regular weight takes its rows from its class's lowest-weight
  certificate instead (see `polytopes`), and comes here only when the
  certificate fails or a caller passes its rows directly;
* emptiness by Farkas' lemma: a system is empty exactly when ``0 <= -1`` is
  such a combination of its rows, so `feasible` is the same test;
* double description with lexicographic insertion for vertex/ray
  enumeration, both directions; every system is homogenized, a cone
  included (its apex is the vertex 0), and each ray's zero set is kept by
  construction, so the integer V-rep carries the rows tight at each vertex;
* one integer vertex-facet incidence table per polytope, read off those
  tight rows with no LP (each facet is the tight set of one row of any
  defining system, see `_incidences`): the facets of a face F are the
  maximal proper non-empty ``F & inc`` (each proper face of F lies in one
  whose facet inc does not contain F), and the face lattice is graded, so
  f-vectors count the faces closed down from the polytope by this covering
  relation, with no linear algebra; exact volumes by recursive
  triangulation of the same covering relation;
* lattice-point counting by recursion over the coordinates, each row read
  once, at its lowest nonzero coordinate, where its bound is exact;
* unimodular equivalence from the table alone: dimension, vertex count,
  facet sizes, integrality, then a complete anchored search for an integer
  map over its edges, whose exhaustion certifies inequivalence.

`HRep` is the one polytope object: `remove_redundant`, `to_vrep`, the
incidence table and `f_vector` compute their result once per instance and
keep it in the instance's private memo, which `==`, `hash` and `repr`
ignore.  Errors are not kept.  A V-rep, incidence table or f-vector is
held by its `HRep` alone and freed with it.  An instance made by
`HRep._canonical` may come with the indices of its minimal rows, which
`remove_redundant` then reads with no LP.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import countOf, mul, sub

from ._linalg import (
    Value,
    content,
    det_int,
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
    "feasible",
    "remove_redundant",
    "to_vrep",
    "vrep_to_hrep",
    "f_vector",
    "integrality",
    "lattice_points",
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


def _normalize_row(coeffs, rhs) -> tuple[tuple[int, ...], int]:
    """A row of integer coefficients and right-hand side, divided by its gcd.

    A bool entry counts as its int; any other entry that is not an int, a
    `Fraction` included, raises `PolyhedralError`: rational rows are scaled
    to integer ones where they are read (see `cli._load_polytope`).  Every
    entry is checked, with no fast path for an all-int row: a class hit
    builds its `HRep` through `HRep._canonical`, which normalizes nothing,
    so few rows come here.
    """
    row = (*coeffs, rhs)
    for x in row:
        if not isinstance(x, int):
            raise PolyhedralError(f"entry {x!r} is not an int")
    g = gcd(*row)
    row = [x // g for x in row] if g > 1 else list(map(int, row))
    return tuple(row[:-1]), row[-1]


class HRep(Value):
    """Intersection of half-spaces ``c . x <= b`` in dimension ``dim``.

    Rows are given with int entries (see `_normalize_row`); each is stored
    as ``(tuple[int], int)``, divided by its content.
    The memo of derived representations (``_memo``) is no field.
    """

    _fields = ("dim", "rows")

    def __init__(self, dim: int, rows) -> None:
        rows = tuple([_normalize_row(c, b) for c, b in rows])
        for c, _ in rows:
            if len(c) != dim:
                raise PolyhedralError("row length does not match dimension")
        self._hold(dim, rows)

    def _hold(self, dim: int, rows) -> None:
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_memo", {})

    @classmethod
    def _canonical(cls, dim: int, rows, kept) -> HRep:
        """An instance holding ``rows`` as given, with no row normalized:
        each row must already be stored as an instance stores it, as a row
        read from an instance is, with its coordinates renamed or not.
        ``kept``, unless None, are the indices `_irredundant_indices` finds
        for ``rows``, which `remove_redundant` reads instead."""
        h = object.__new__(cls)
        h._hold(dim, rows)
        if kept is not None:
            h._memo["kept"] = kept
        return h

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


class VRep(Value):
    """Vertices (rational points) and rays (primitive integer directions), the
    public form that `to_vrep` builds once from integer points (see `_vrep`).
    """

    _fields = ("vertices", "rays")


def _memoized(h: HRep, key: str, compute):
    """``compute(h)``, computed on the first call and kept in ``h``'s memo."""
    memo = h._memo
    if key not in memo:
        memo[key] = compute(h)
    return memo[key]


# ---------------------------------------------------------------------------
# Linear programming
# ---------------------------------------------------------------------------


def _nonneg_feasible(eq_rows, rhs) -> bool:
    """Whether ``A x = b`` (integer entries) has a solution with ``x >= 0``."""
    return _farkas(eq_rows, rhs, False) is None


def _farkas(eq_rows, rhs, certify: bool):
    """None when ``A x = b`` has a solution ``x >= 0``; otherwise a certificate.

    A phase-1 tableau kept in integers (Edmonds–Bareiss): the rows are
    integer rows as given (each negated when its ``b`` is negative), and a
    pivot updates every other row, the objective row included, as
    ``(piv * x - f * y) // den`` with ``den`` the previous pivot.
    Every entry is then ``det(B)`` times the entry of the rational tableau
    with basis ``B``, so each division is exact; pivots are positive, so
    ``det(B)`` is too and no sign changes.  The pivot rule is Bland's: the
    first column with a positive reduced cost enters, and the row of least
    ``(ratio, basic variable)`` leaves, the artificial of row ``i`` counting
    as variable ``n + i``, so the pivots are those of the rational tableau.
    The phase-1 objective is bounded, so an entering column always has a
    positive entry and some row leaves.

    The objective row is always ``y`` times the rows as given (each pivot
    combines rows).  With ``certify`` row ``i`` carries the unit vector
    ``e_i`` after its right-hand side, so the objective row ends with ``y``
    itself: at the end ``y . A`` (the reduced costs) is ``<= 0`` and ``y . b``
    (the infeasibility) is ``> 0``, Farkas' certificate that no ``x >= 0``
    solves the system, returned as a list of ints.  Without ``certify`` the
    certificate is ``[]``.
    """
    m = len(eq_rows)
    if m == 0:
        return None
    n = len(eq_rows[0])
    tab = []
    for i, (row, b) in enumerate(zip(eq_rows, rhs)):
        unit = [int(k == i) for k in range(m)] if certify else []
        r = [*row, b, *unit]
        tab.append(r if b >= 0 else [-x for x in r])
    obj = [sum(col) for col in zip(*tab)]
    basis = list(range(n, n + m))  # n + i is the artificial variable of row i
    den = 1  # the previous pivot
    while True:
        enter = next((j for j in range(n) if obj[j] > 0), None)
        if enter is None:
            break
        leave = None
        for i, row in enumerate(tab):
            a = row[enter]
            if a > 0:
                if leave is None:
                    leave, a_best, b_best = i, a, row[n]
                    continue
                # the ratios row[n] / a and b_best / a_best, cross-multiplied
                here, best = row[n] * a_best, b_best * a
                if here < best or (here == best and basis[i] < basis[leave]):
                    leave, a_best, b_best = i, a, row[n]
        prow = tab[leave]
        piv = prow[enter]
        for i, row in enumerate(tab):
            if i != leave:
                f = row[enter]
                if f:
                    tab[i] = [(piv * x - f * y) // den for x, y in zip(row, prow)]
                elif piv != den:
                    tab[i] = [piv * x // den for x in row]
        f = obj[enter]
        obj = [(piv * x - f * y) // den for x, y in zip(obj, prow)]
        basis[leave] = enter
        den = piv
    return None if obj[n] == 0 else obj[n + 1 :]


def _implied(target, others, dim) -> bool:
    """Whether ``target`` (c, b) is a consequence of the rows ``others``.

    This holds when c is a nonnegative combination of the other normals whose
    combined right-hand side does not exceed b; by LP duality the test is
    exact for feasible ``others``.  With the target ``0 <= -1`` it is Farkas'
    lemma, so it decides emptiness for any rows (see `feasible`).  Every row
    is ``(tuple[int], int)``, as `HRep` rows are, so the LP's columns are
    built as integers.
    """
    return _nonneg_feasible(*_combination_lp(target, others, dim))


def _combination_lp(target, others, dim):
    """``(A, b)`` such that ``A y = b`` with ``y >= 0`` writes ``target`` as a
    nonnegative combination of ``others`` plus the slack ``0 . x <= 1``."""
    c_t, b_t = target
    eq_rows = [[c[k] for c, _ in others] + [0] for k in range(dim)]
    eq_rows.append([b for _, b in others] + [1])
    return eq_rows, [*c_t, b_t]


def feasible(rows_le, dim) -> bool:
    """Whether ``{x : c . x <= b}`` (integer rows) is non-empty.

    By Farkas' lemma the system is empty exactly when ``0 . x <= -1`` is a
    nonnegative combination of its rows.  Each row is read by
    `_normalize_row`, as `HRep` reads it, so an entry that is not an int
    raises `PolyhedralError`; dividing a row by its content scales a column
    of the LP, which changes none of its pivots.
    """
    rows = [_normalize_row(c, b) for c, b in rows_le]
    return not _implied(((0,) * dim, -1), rows, dim)


def _interior_point(rows, dim):
    """Integers ``(U, S)`` with ``c . U < b * S`` on every row and ``S > 0``, or None.

    ``U / S`` is then strictly inside every row.  When no row has ``b < 0``
    and every row with ``b = 0`` has a negative first nonzero entry, as the
    rows ``-form . x <= 0`` of string cones and of string polytopes at a
    regular weight do, it is written down with no LP: ``U`` is a point
    from the last coordinate back, each entry ``k`` the least positive one
    that makes every ``b = 0`` row whose first nonzero entry is at ``k``
    read ``c . U <= -1``, and ``S`` the least integer with
    ``c . U < b * S`` on the rows with ``b > 0`` (``S = 1`` for a cone).
    Otherwise it exists exactly when the strict system
    ``{c . x - b * s <= -1, -s <= -1}`` in ``(x, s)`` is non-empty, that is
    when ``0 <= -1`` is no combination of its rows (the LP of `feasible`).
    `_farkas` then certifies it with ``y``, ``y . A <= 0`` and
    ``y . b > 0``: on the column of a row that reads
    ``c . U - b * S <= y[-1] < 0`` with ``(U, S) = y[:-1]``, and on the
    column of ``-s <= -1`` it reads ``S > 0``.
    """
    lead: dict[int, list] = {}  # the b = 0 rows by the coordinate of their first nonzero
    for c, b in rows:
        if b < 0:
            break
        if b == 0:
            k = next((k for k, x in enumerate(c) if x), None)
            if k is None or c[k] > 0:
                break
            lead.setdefault(k, []).append(c)
    else:
        u = [0] * dim  # while u[k] is set, u[j] = 0 for j <= k: c . u sums over j > k
        for k in reversed(range(dim)):
            u[k] = max([1] + [sum(map(mul, c, u)) // -c[k] + 1 for c in lead.get(k, ())])
        return u, max([1] + [sum(map(mul, c, u)) // b + 1 for c, b in rows if b > 0])
    strict = [((*c, -b), -1) for c, b in rows] + [((0,) * dim + (-1,), -1)]
    y = _farkas(*_combination_lp(((0,) * (dim + 1), -1), strict, dim + 1), True)
    return None if y is None else (y[:dim], y[dim])


def _column_index(rows, live):
    """Per coordinate ``k``, the map from each live row ``j`` with
    ``c_j[k] != 0`` to ``c_j[k]``: the live rows that `_first_hit` reads."""
    return [{j: x for j, x in zip(live, col) if x} for col in zip(*(rows[j][0] for j in live))]


def _first_hit(rows, cols, slack, d):
    """The row that the ray from the interior point along ``d`` meets first.

    Row ``j`` is met at time ``slack[j] / (c_j . d)`` (up to the point's
    positive denominator) when ``c_j . d > 0``, so the first is the largest
    ``(c_j . d) / slack[j]``.  The products are summed through the column
    index ``cols`` (see `_column_index`) over the coordinates where ``d`` is
    nonzero; a row that shares none of them has ``c_j . d = 0`` and is not
    met.  A tie is broken as for the direction ``d + e e_1 + e^2 e_2 + ...``
    with ``e > 0`` small, by the larger ``c_j / slack[j]`` in lexicographic
    order; that ray meets its first row alone, in a point strictly inside
    every other row.  Two rows tied in full are one row up to a positive
    scale, and then no row is returned.  The order in which rows are read
    does not matter: the result is the maximum of a total preorder, when
    that maximum is unique.
    """
    dots: dict[int, int] = {}
    get = dots.get
    for col, x in zip(cols, d):
        if x:
            for j, c in col.items():
                dots[j] = get(j, 0) + c * x
    best, tied = None, False
    for j, a in dots.items():
        if a <= 0:
            continue
        if best is None:
            best, a_best, c_best, s_best = j, a, rows[j][0], slack[j]
            continue
        c, s = rows[j][0], slack[j]
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


def _shoot(rows, cols, slack, i, dim, certify) -> None:
    """Pass to ``certify`` the rows met first by rays from the interior point.

    The first ray runs along row ``i``'s normal.  A row met first is a facet
    (see `_first_hit`).  While that row is not ``i``, its normal is projected
    off the direction (Gram–Schmidt over the rows met so far, in integers)
    and the ray runs again: it can no longer meet those rows, and it still
    moves toward row ``i`` until ``i``'s normal lies in their span.  So at
    most ``dim`` rays run.
    """
    d = list(rows[i][0])
    met = []  # mutually orthogonal normals, each with its squared length
    for _ in range(dim):
        j = _first_hit(rows, cols, slack, d)
        if j is None:
            return
        certify(j)
        if j == i:
            return
        q = list(rows[j][0])
        for u, uu in met:
            f = sum(map(mul, q, u))
            q = primitive([uu * x - f * y for x, y in zip(q, u)])
        qq = sum(map(mul, q, q))
        met.append((q, qq))
        f = sum(map(mul, d, q))
        d = primitive([qq * x - f * y for x, y in zip(d, q)])
        if not any(d):  # row i's normal lies in the span of the rows met
            return


def _two_term(row, normals) -> bool:
    """Whether two certified facets imply ``row`` (c, b), read with no LP.

    ``normals`` maps the primitive normal ``g`` of each certified facet to
    ``(k, b_g, c_g)``, the facet being ``c_g . x <= b_g`` with ``c_g = k g``.
    The row follows when ``q c = p c_f + s g`` for a facet ``f``, integers
    ``p, q > 0`` and ``s >= 0``, and ``k q b >= k p b_f + s b_g``.  Only the
    ratios ``p / q = c[j] / c_f[j]`` on coordinates where both are nonzero
    and of one sign are tried, so ``g`` vanishes on one of them.  A row
    parallel to ``c_f`` (``s = 0``) takes the same test, with ``(k, b_g)``
    read as ``(1, 0)``.
    """
    c, b = row
    support = [(k, x) for k, x in enumerate(c) if x]
    for _, b_f, c_f in normals.values():
        tried = set()
        for k, x in support:
            y = c_f[k]
            if x * y <= 0:
                continue
            e = gcd(x, y)
            p, q = abs(x) // e, abs(y) // e
            if (p, q) in tried:
                continue
            tried.add((p, q))
            r = [q * v - p * w for v, w in zip(c, c_f)]
            s = content(r)
            hit = normals.get(tuple(v // s for v in r)) if s else (1, 0)
            if hit is not None and hit[0] * (q * b - p * b_f) >= s * hit[1]:
                return True
    return False


def _irredundant_indices(rows, dim) -> list[int] | None:
    """Indices of a minimal subsystem of ``rows``, or None when it is empty.

    A zero row with ``b < 0`` empties the system.  Otherwise it is non-empty
    with no LP when every ``b >= 0`` (it contains 0) or when it has an
    interior point (`_interior_point`, which writes one down with no LP for
    string systems), and only without either does `feasible` decide.  Zero
    rows and later copies of a row are dropped first, in one pass that keeps
    the first index of each nonzero row, in row order.  The reference is the
    one-LP-per-row loop: in order, a row goes when the other live rows
    imply it (`_implied`).  With an interior point, a first pass takes each
    row not yet certified, in order: it is dropped if two facets certified
    so far imply it (`_two_term`), and otherwise rays from the point along
    its normal certify, as they meet them, facets with no LP (`_shoot`,
    reading the coordinate index `_column_index` of the live rows, which a
    dropped row leaves).  Then each row still undecided, in order, is
    dropped if two certified rows or one LP against the other live rows
    imply it, and is otherwise certified.  A row a ray meets first is a
    facet, and the live rows always include every certified row, so each
    row is kept or dropped as in the reference.  A string polytope at a
    regular weight whose class passes the lowest-weight certificate never
    reaches this routine (`polytopes.string_polytope` keeps its rows).
    """
    if any(b < 0 and not any(c) for c, b in rows):
        return None
    first: dict[tuple, int] = {}  # each nonzero row's first index, in row order
    for i, row in enumerate(rows):
        if any(row[0]):
            first.setdefault(row, i)
    live = list(first.values())
    point = _interior_point([rows[i] for i in live], dim) if live else None
    if point is None and any(b < 0 for _, b in rows) and not feasible(rows, dim):
        return None
    facets: set[int] = set()
    normals = {}  # the certified facets by primitive normal, as `_two_term` reads them

    def certify(j):
        if j not in facets:
            facets.add(j)
            c, b = rows[j]
            k = content(c)
            normals[tuple(x // k for x in c)] = (k, b, c)

    if point is not None:
        u, s = point
        slack = {i: rows[i][1] * s - sum(map(mul, rows[i][0], u)) for i in live}
        if min(slack.values()) <= 0:
            raise PolyhedralError("interior point certificate is not strictly inside")
        cols = _column_index(rows, live)
        for i in list(live):
            if i in facets:
                continue
            if _two_term(rows[i], normals):
                live.remove(i)
                for col in cols:
                    col.pop(i, None)
            else:
                _shoot(rows, cols, slack, i, dim, certify)
    for i in list(live):
        if i in facets:
            continue
        if _two_term(rows[i], normals) or _implied(rows[i], [rows[j] for j in live if j != i], dim):
            live.remove(i)
        else:
            certify(i)
    return live


def remove_redundant(h: HRep) -> HRep:
    """Minimal half-space representation of the same set.

    An infeasible system collapses to the canonical empty representation
    ``0 <= -1`` rather than raising.
    """
    return _memoized(h, "minimal", _minimal)


def _minimal(h: HRep) -> HRep:
    """The rows `_irredundant_indices` keeps, at the indices ``h`` was made
    with (`HRep._canonical`) or computed."""
    kept = h._memo.get("kept")
    if kept is None:
        kept = _irredundant_indices(h.rows, h.dim)
    if kept is None:
        return HRep(h.dim, (((0,) * h.dim, -1),))
    return HRep._canonical(h.dim, tuple([h.rows[i] for i in kept]), None)


# ---------------------------------------------------------------------------
# Double description
# ---------------------------------------------------------------------------


def _dd_rays(rows, dim):
    """Extreme rays of the pointed cone ``{x : c . x <= 0 for all rows}``,
    each with its zero set: sorted ``(ray, bits)`` pairs, bit ``i`` set
    when row ``i`` is tight at the ray.

    The rows are primitive integer tuples.  Rows that do not span the dual
    space raise `PolyhedralError`: the cone contains a line (or, for the dual
    cone of a V-representation, the points are not full-dimensional).
    Insertion order is lexicographic for determinism.  Each zero set is
    known when its ray is made (Fukuda–Prodon, "Double description method
    revisited", 1996), with no dot product: an initial ray, a column of
    ``-init^-1``, is tight on every initial row but its own; a kept ray
    gains the inserted row when tight on it; and a new ray
    ``vals[j] r_i - vals[i] r_j`` (both coefficients positive) is tight on
    its parents' common zero set and the inserted row, since on any earlier
    row both terms are ``<= 0``.  Two rays are adjacent only when their
    common zero set holds at least ``dim - 2`` rows (the cardinality test),
    so only such pairs reach the combinatorial test `_adjacent`.
    """
    init_idx = independent_rows(rows)
    if len(init_idx) != dim:
        raise PolyhedralError(
            "rows do not span: the cone contains a line, or the points are not full-dimensional"
        )
    # the initial rays are the columns of -init^{-1}, read from d * init^{-1}
    inv, d = inverse_int([rows[i] for i in init_idx])
    sign = 1 if d > 0 else -1
    rays = [primitive([-sign * row[k] for row in inv]) for k in range(dim)]
    every = sum(1 << i for i in init_idx)
    zsets = [every & ~(1 << i) for i in init_idx]
    for r in sorted(set(range(len(rows))).difference(init_idx), key=rows.__getitem__):
        row, bit = rows[r], 1 << r
        vals = [sum(map(mul, row, ray)) for ray in rays]
        kept = [i for i, v in enumerate(vals) if v <= 0]
        new_rays = [rays[i] for i in kept]
        new_zsets = [zsets[i] | bit if vals[i] == 0 else zsets[i] for i in kept]
        neg = [i for i in kept if vals[i] < 0]
        pos = [j for j, v in enumerate(vals) if v > 0]
        for i in neg:
            for j in pos:
                common = zsets[i] & zsets[j]
                if common.bit_count() < dim - 2 or not _adjacent(common, i, j, zsets):
                    continue
                combo = [vals[j] * a - vals[i] * b for a, b in zip(rays[i], rays[j])]
                new_rays.append(primitive(combo))
                new_zsets.append(common | bit)
        rays, zsets = new_rays, new_zsets
    return sorted(set(zip(rays, zsets)))


def _adjacent(common, i, j, zsets) -> bool:
    """Whether rays ``i`` and ``j`` with the common zero set ``common`` are
    adjacent: no other ray's zero set contains it (the combinatorial test)."""
    return not any(k != i and k != j and common & z == common for k, z in enumerate(zsets))


def to_vrep(h: HRep) -> VRep:
    """Exact vertex/ray representation.

    Every input is homogenized (see `_vrep`), so a cone (all right-hand
    sides zero) yields its apex 0 and its extreme rays.  An empty system has
    no vertex and no ray.  A non-empty system containing a line raises
    `Unbounded` carrying the line's direction.  A caller that needs a bounded polytope asks
    `integrality` (or any other bounded-only function), which raises
    `Unbounded` on a recession ray and carries it as a witness.
    """
    return _memoized(h, "fractions", _fraction_vrep)


def _fraction_vrep(h: HRep) -> VRep:
    den, points, _, rays = _memoized(h, "vrep", _vrep)
    return VRep(tuple(tuple(Fraction(x, den) for x in p) for p in points), rays)


def _bounded(h: HRep):
    """``(den, points, tight)`` of `_vrep`; a recession ray raises `Unbounded`."""
    den, points, tight, rays = _memoized(h, "vrep", _vrep)
    if rays:
        message = "input is an unbounded cone" if h.is_cone else "input is unbounded"
        raise Unbounded(f"{message}: recession ray {rays[0]}", ray=rays[0])
    return den, points, tight


def _vrep(h: HRep):
    """``(den, points, tight, rays)``: the sorted vertices as integer points
    over ``den``, their least common denominator (``r[-1]`` for the vertex of
    a primitive homogeneous ray ``r``; one positive scale keeps their order),
    each with the bitset of the rows of ``h`` tight there (bit ``i`` for row
    ``i``), and the sorted recession rays.

    Every system is homogenized: ``c . x <= b`` becomes ``c . x - b t <= 0``
    with ``t >= 0``, and the rays with ``t > 0`` are the vertices.  A cone's
    one vertex is its apex 0, tight on every row."""
    rows = [(*c, -b) for c, b in h.rows] + [(0,) * h.dim + (-1,)]
    try:
        rays = _dd_rays(rows, h.dim + 1)
    except PolyhedralError:  # the rows do not span: a line, unless the system is empty
        if not feasible(h.rows, h.dim):
            return 1, (), (), ()
        line = nullspace_vector(rows)[: h.dim]
        message = f"system has a lineality direction; not a bounded polytope: line {line}"
        raise Unbounded(message, ray=line) from None
    # a vertex has r[-1] > 0, so its zero set misses the homogenizing row
    den = lcm(*(r[-1] for r, _ in rays if r[-1] > 0))
    vertices = sorted((tuple(x * (den // r[-1]) for x in r[:-1]), z) for r, z in rays if r[-1] > 0)
    if not vertices:  # the system is empty, and so are its recession rays
        return 1, (), (), ()
    rec_rays = tuple(sorted(r[:-1] for r, _ in rays if r[-1] == 0))
    return den, tuple(p for p, _ in vertices), tuple(z for _, z in vertices), rec_rays


def vrep_to_hrep(v: VRep) -> HRep:
    """Facet system of the convex hull of a full-dimensional V-representation,
    each vertex (int or `Fraction` entries) scaled by its common denominator."""
    if not v.vertices:
        raise PolyhedralError("empty vertex set")
    dim = len(v.vertices[0])
    gens = []
    for g in [(*vert, 1) for vert in v.vertices] + [(*ray, 0) for ray in v.rays]:
        den = lcm(*(x.denominator for x in g))  # scales g to an integer vector
        gens.append(primitive([(-x * den).numerator for x in g]))
    facets = _dd_rays(gens, dim + 1)
    # a dual ray (y, y0) certifies y.x + y0 >= 0 on the hull
    rows = [(tuple(-c for c in f[:dim]), f[dim]) for f, _ in facets]
    return HRep(dim, tuple(rows))


# ---------------------------------------------------------------------------
# Faces
# ---------------------------------------------------------------------------


class _IncidenceTable(Value):
    """A bounded polytope's dimension, vertices and facets; ``vertices`` are
    integer points, ``den`` times the vertices (see `_vrep`)."""

    _fields = ("dim", "vertices", "incidences", "den")  # incidences: per facet, a vertex bitset

    def tight_facets(self, bits: int) -> list[int]:
        return [i for i, inc in enumerate(self.incidences) if bits & ~inc == 0]


def _incidence_table(h: HRep) -> _IncidenceTable:
    """The vertex-facet incidence table of the bounded polytope ``h``."""
    return _memoized(h, "table", _incidences)


def _incidences(h: HRep) -> _IncidenceTable:
    """One integer vertex-facet incidence table.

    Each row's tight vertices are the tight rows per vertex that `_vrep`
    keeps, transposed.  In any dimension, every facet F of a
    polytope P is the tight set of one row of any system defining P: a row
    tight on F but not on all of P cuts out a proper face containing F,
    which is F itself.  So the facets are the maximal proper non-empty
    tight sets of ``h``'s rows, kept as first copies in row order.  The
    implicit equalities, the rows tight at every vertex, cut out the affine
    hull (Schrijver, *Theory of Linear and Integer Programming*, §8.2), so
    the dimension is ``h.dim`` minus their rank.
    """
    den, points, vertex_tight = _bounded(h)
    if not points:
        raise PolyhedralError("empty polytope has no face lattice")
    tight = [0] * len(h.rows)
    for vi, bits in enumerate(vertex_tight):
        while bits:
            low = bits & -bits
            tight[low.bit_length() - 1] |= 1 << vi
            bits ^= low
    top = (1 << len(points)) - 1
    dim = h.dim - rank_int([c for (c, _), bits in zip(h.rows, tight) if bits == top])
    facets = set(_facets_of(top, tight))
    incidences = tuple(dict.fromkeys(bits for bits in tight if bits in facets))
    return _IncidenceTable(dim, points, incidences, den)


def _faces(h: HRep) -> dict[int, int]:
    """Every non-empty face of the bounded polytope ``h``, as ``{vertex
    bitset: dimension}``, closed from its incidence table (`_incidence_table`).

    Level by level down from the polytope, a face's facets come from
    `_facets_of`.  The lattice is graded and a (k - 1)-face is a facet only
    of k-faces, so each face is first met from a face one dimension higher
    and gets that dimension minus one: no rank is computed per face.
    """
    table = _incidence_table(h)
    top = (1 << len(table.vertices)) - 1
    dims = {top: table.dim}
    level = [top]
    while level:
        below = []
        for bits in level:
            for sub in _facets_of(bits, table.incidences):
                if sub not in dims:
                    dims[sub] = dims[bits] - 1
                    below.append(sub)
        level = below
    return dims


def _facets_of(bits: int, incidences) -> list[int]:
    """The facets of the face ``bits``: the maximal proper non-empty ``bits & inc``.

    Each proper face of F lies in ``F & inc`` for some facet inc not
    containing F, so the maximal such sets are F's facets.  Taken largest
    first, a set is maximal when no set kept before contains it.
    """
    cands = {bits & inc for inc in incidences}
    cands.difference_update((bits, 0))
    facets: list[int] = []
    for c in sorted(cands, key=int.bit_count, reverse=True):
        for o in facets:
            if not c & ~o:
                break
        else:
            facets.append(c)
    return facets


def f_vector(h: HRep) -> tuple[int, ...]:
    """Face counts ``(f_-1, f_0, ..., f_dim)``, empty face and polytope included."""
    return _memoized(h, "f_vector", _count_faces)


def _count_faces(h: HRep) -> tuple[int, ...]:
    """The empty face, then the faces of `_faces` by dimension."""
    dims = list(_faces(h).values())
    return (1, *(countOf(dims, d) for d in range(max(dims) + 1)))


def integrality(h: HRep):
    """Whether all vertices are integral; returns (flag, witness_vertex_or_None)."""
    den, points, _ = _bounded(h)
    for p in points:
        if any(x % den for x in p):
            return False, tuple(Fraction(x, den) for x in p)
    return True, None


# The most partial assignments `lattice_points` visits before it gives up.
LATTICE_POINT_CAP = 2_000_000


def lattice_points(h: HRep) -> int:
    """Exact number of integer points, by recursion over the coordinates.

    Coordinates are fixed from the last to the first, inside the vertices'
    integer box.  Each row is read once, at its lowest nonzero coordinate
    ``k``: with every later coordinate fixed, its bound on ``x[k]`` is exact
    and one integer division, so every leaf reached satisfies every row (an
    all-zero row with ``b < 0`` leaves no vertex).  Visiting more than
    `LATTICE_POINT_CAP` partial assignments raises `ResourceLimit`.
    An empty system has no vertex and counts 0, even one with a lineality
    direction.
    """
    d = h.dim
    den, points, _ = _bounded(h)
    if not points:
        return 0
    if d == 0:
        return 1
    box_lo = [-(-min(col) // den) for col in zip(*points)]
    box_hi = [max(col) // den for col in zip(*points)]
    bucket = [[] for _ in range(d)]  # per coordinate k, (c[k], c[k + 1:], b) of its rows
    for c, b in h.rows:
        k = next((j for j, v in enumerate(c) if v), None)
        if k is not None:
            bucket[k].append((c[k], c[k + 1 :], b))
    x = [0] * d
    visits = 0

    def count(k: int) -> int:
        # x[j] is fixed for j > k
        nonlocal visits
        visits += 1
        if visits > LATTICE_POINT_CAP:
            raise ResourceLimit(f"lattice point enumeration exceeded {LATTICE_POINT_CAP} nodes")
        lo, hi = box_lo[k], box_hi[k]
        fixed = x[k + 1 :]
        for ck, tail, b in bucket[k]:
            slack = b - sum(map(mul, tail, fixed))
            if ck > 0:
                hi = min(hi, slack // ck)
            else:
                lo = max(lo, -(-slack // ck))
        if lo > hi:
            return 0
        if k == 0:
            return hi - lo + 1
        total = 0
        for val in range(lo, hi + 1):
            x[k] = val
            total += count(k - 1)
        return total

    return count(d - 1)


def _triangulate(table: _IncidenceTable):
    """A triangulation of the polytope as tuples of vertex indices: each face
    is coned from its lowest vertex over its facets that miss that vertex."""
    memo: dict[int, list[tuple[int, ...]]] = {}

    def tri(bits) -> list[tuple[int, ...]]:
        if bits not in memo:
            anchor = (bits & -bits).bit_length() - 1
            if bits == 1 << anchor:  # a vertex
                memo[bits] = [(anchor,)]
            else:
                memo[bits] = [
                    s + (anchor,)
                    for sub in _facets_of(bits, table.incidences)
                    if not sub >> anchor & 1
                    for s in tri(sub)
                ]
        return memo[bits]

    return tri((1 << len(table.vertices)) - 1)


def normalized_volume(h: HRep) -> Fraction:
    """dim! times the Euclidean volume; an integer for lattice polytopes."""
    table = _incidence_table(h)
    if table.dim != h.dim:
        raise PolyhedralError("normalized volume needs a full-dimensional polytope")
    # Every simplex is coned from the polytope's lowest vertex 0, its last
    # entry.  Its matrix is taken transposed, a row per coordinate and the
    # anchors of the larger faces first: on GT3 that order makes
    # `det_int` about 1.6 times faster than a row per vertex.
    diffs = [list(map(sub, v, table.vertices[0])) for v in table.vertices]
    total = 0
    for simplex in _triangulate(table):
        total += abs(det_int(list(zip(*(diffs[i] for i in simplex[-2::-1])))))
    return Fraction(total, table.den**h.dim)


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
    if len(shift) != p.dim or any(int(x) != x for x in shift):
        raise PolyhedralError("unimodular map needs an integer shift of length dim")
    den, vp, _ = _bounded(p)
    den_q, vq, _ = _bounded(q)
    # a unimodular map keeps each vertex's denominator, so equal images share one
    image = {tuple(a + s * den for a, s in zip(mat_vec(matrix, v), shift)) for v in vp}
    return den == den_q and image == set(vq)


class EquivalenceResult(Value):
    # status: "equivalent" | "inequivalent" | "unknown"; decided_by: the stage that
    # settled the verdict: "dimension", "vertices", "facet sizes", "integrality",
    # "search", "budget", "no-simple-vertex" or "lower-dimensional";
    # `polytopes.verify_gt_theorem` adds "facet count", its pre-filter
    _fields = ("status", "matrix", "shift", "witness", "decided_by")

    def __init__(self, status: str, matrix=None, shift=None, witness=None, *, decided_by: str):
        super().__init__(status, matrix, shift, witness, decided_by)


def _edge_data(table: _IncidenceTable, verts, vertex_index: int):
    """Primitive directions, lattice lengths, endpoint degrees and left facet
    sizes of the edges at a simple vertex.

    ``verts`` are the table's vertices times a common denominator, the unit
    of the lengths.  Each edge at the vertex leaves one of its tight facets
    and lies on the others, and its far end is the one other vertex on them.
    """
    vbit = 1 << vertex_index
    others = ((1 << len(verts)) - 1) & ~vbit
    tight = [table.incidences[i] for i in table.tight_facets(vbit)]
    edges = []
    for skip in range(len(tight)):
        ends = others
        for i, inc in enumerate(tight):
            if i != skip:
                ends &= inc
        if ends.bit_count() != 1:
            raise PolyhedralError(
                f"vertex {vertex_index} is not simple: {ends.bit_count()} far ends of one edge"
            )
        w = ends.bit_length() - 1
        diff = [b - a for a, b in zip(verts[vertex_index], verts[w])]
        g = content(diff)
        degree = len(table.tight_facets(ends))
        edges.append((tuple(x // g for x in diff), g, degree, tight[skip].bit_count()))
    edges.sort()
    return edges


def _simple_vertices(table: _IncidenceTable):
    return [v for v in range(len(table.vertices)) if len(table.tight_facets(1 << v)) == table.dim]


def search_unimodular_equivalence(p: HRep, q: HRep, budget: int = 100_000) -> EquivalenceResult:
    """Decide unimodular equivalence from the vertices and facet incidences.

    The decision order is dimension, vertex count, the sorted vertex counts
    of the facets, integrality, then the anchored search, all read from the
    incidence tables (`_incidence_table`) with no face lattice; a lattice
    map is a bijection on vertices and on facets that keeps incidences, so
    a mismatch at any stage certifies inequivalence.  The search anchors at
    a simple vertex ``a`` of ``p`` and tries every simple vertex of ``q``
    and every bijection of edge stars that keeps each edge's lattice length,
    far-end degree and left facet size (see `_edge_data`).  It is complete:
    a lattice map ``x -> Ux + s`` of ``p`` onto ``q`` sends ``a`` and its
    edges to a simple vertex of ``q`` and the edges there, with their
    directions, lengths, degrees and left facets, so it is a candidate, and
    the ``d`` independent edge directions at ``a`` determine ``U``.  A
    verified hit certifies equivalence with an explicit map; running out of
    candidates certifies inequivalence.  "unknown" is left only for an
    exhausted budget, a ``p`` without simple vertex, and lower-dimensional
    input (whose edges do not determine ``U``).  Every result names the
    stage that settled it in ``decided_by``; an exhausted search is "search".
    """
    tab_p, tab_q = _incidence_table(p), _incidence_table(q)

    def invariants():  # in decision order, each computed only if the ones before agree
        yield "dimension", tab_p.dim, tab_q.dim
        yield "vertices", len(tab_p.vertices), len(tab_q.vertices)
        sizes = (tuple(sorted(inc.bit_count() for inc in t.incidences)) for t in (tab_p, tab_q))
        yield "facet sizes", *sizes
        yield "integrality", integrality(p)[0], integrality(q)[0]

    for stage, a, b in invariants():
        if a != b:
            witness = f"{stage} {a} != {b}"
            return EquivalenceResult("inequivalent", witness=witness, decided_by=stage)
    d = tab_p.dim
    if d != p.dim or d != q.dim:
        return EquivalenceResult(
            "unknown",
            witness=f"lower-dimensional input: {d}-polytopes in {p.dim}- and {q.dim}-space",
            decided_by="lower-dimensional",
        )

    simples_p = _simple_vertices(tab_p)
    if not simples_p:
        witness = "no simple vertex to anchor the search"
        return EquivalenceResult("unknown", witness=witness, decided_by="no-simple-vertex")
    anchor = simples_p[0]
    # both tables over one common denominator, so edges and images are integer tuples
    den = lcm(tab_p.den, tab_q.den)
    verts_p, verts_q = (
        [tuple(x * (den // t.den) for x in v) for v in t.vertices] for t in (tab_p, tab_q)
    )
    vertex_set_q = set(verts_q)
    edges_p = _edge_data(tab_p, verts_p, anchor)
    sig_p = sorted(e[1:] for e in edges_p)
    # U = M_q (den_p M_p^-1) / den_p, where M_p has the anchor's edge directions as columns
    inv_p, den_p = inverse_int(list(zip(*(e[0] for e in edges_p))))

    simples_q = _simple_vertices(tab_q)
    matched = tried = 0
    for cand in simples_q:
        edges_q = _edge_data(tab_q, verts_q, cand)
        if sorted(e[1:] for e in edges_q) != sig_p:
            continue
        matched += 1
        # assign each anchor edge a target edge with the same signature
        groups: dict[tuple, list[int]] = {}
        for idx, edge in enumerate(edges_q):
            groups.setdefault(edge[1:], []).append(idx)

        def assignments(i: int, used: set[int]):
            if i == d:
                yield []
                return
            for idx in groups.get(edges_p[i][1:], []):
                if idx in used:
                    continue
                used.add(idx)
                for rest in assignments(i + 1, used):
                    yield [idx] + rest
                used.remove(idx)

        cand_q = verts_q[cand]
        for assign in assignments(0, set()):
            tried += 1
            if tried > budget:
                return EquivalenceResult(
                    "unknown", witness="search budget exhausted", decided_by="budget"
                )
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
            # the vertex counts agree and U is injective, so images inside q's vertex set cover it
            if all(
                tuple(a + s for a, s in zip(mat_vec(u_rows, v), shift)) in vertex_set_q
                for v in verts_p
            ):
                return EquivalenceResult(
                    "equivalent",
                    matrix=tuple(tuple(r) for r in u_rows),
                    shift=tuple(x // den for x in shift),
                    decided_by="search",
                )
    return EquivalenceResult(
        "inequivalent",
        witness=f"no lattice map: the anchored search tried {len(simples_q)} simple vertices"
        f" ({matched} matching the anchor's edge signature) and {tried} edge bijections",
        decided_by="search",
    )
