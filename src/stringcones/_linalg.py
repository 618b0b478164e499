"""Small exact linear-algebra helpers shared by the diagram and polyhedral code.

Everything works over Python integers and `fractions.Fraction`; no floats.
`echelon` is the one elimination: determinant, rank, independent rows,
nullspace and inverse are read off its result.
"""

from __future__ import annotations

from math import gcd, lcm

__all__ = [
    "content",
    "primitive",
    "echelon",
    "det_int",
    "rank_int",
    "independent_rows",
    "nullspace_vector",
    "inverse_int",
    "mat_vec",
    "mat_mul",
]


def content(vec) -> int:
    g = 0
    for x in vec:
        g = gcd(g, abs(x))
        if g == 1:
            return 1
    return g


def primitive(vec) -> tuple[int, ...]:
    """Divide an integer vector by its content (zero vector passes through)."""
    g = content(vec)
    if g <= 1:
        return tuple(vec)
    return tuple(x // g for x in vec)


def echelon(rows):
    """Fraction-free (Bareiss) Gauss-Jordan elimination of a rational matrix.

    Each row is first scaled to integers.  Every pivot step eliminates above
    and below the pivot and divides exactly by the previous pivot, so all
    entries stay integer minors of the scaled matrix.  Returns
    ``(matrix, pivots, d, sign)``: the integer rows of ``d`` times the reduced
    row echelon form, the pivot columns in order, the last pivot ``d`` (1 when
    there is none) and the sign of the row permutation.
    """
    a = []
    for row in rows:
        scale = lcm(*(x.denominator for x in row))
        a.append([int(x * scale) for x in row])
    m = len(a)
    pivots: list[int] = []
    prev, sign = 1, 1
    for c in range(len(a[0]) if m else 0):
        r = len(pivots)
        if r == m:
            break
        pr = next((i for i in range(r, m) if a[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            a[r], a[pr] = a[pr], a[r]
            sign = -sign
        prow = a[r]
        p = prow[c]
        for i in range(m):
            if i != r:
                f = a[i][c]
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], prow)]
        pivots.append(c)
        prev = p
    return a, pivots, prev, sign


def det_int(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix."""
    _, pivots, d, sign = echelon(rows)
    return sign * d if len(pivots) == len(rows) else 0


def rank_int(rows) -> int:
    """Rank of an integer (or Fraction) matrix."""
    return len(echelon(rows)[1])


def independent_rows(rows) -> list[int]:
    """Indices of the greedy first basis among the rows (pivot columns of the transpose)."""
    return echelon(list(zip(*rows)))[1]


def nullspace_vector(rows):
    """A nonzero integer ``v`` with ``A v = 0`` (A has rows), or None at full column rank."""
    a, pivots, d, _ = echelon(rows)
    free = next((c for c in range(len(rows[0])) if c not in pivots), None)
    if free is None:
        return None
    v = [0] * len(rows[0])
    v[free] = d
    for row, c in zip(a, pivots):
        v[c] = -row[free]
    return tuple(v)


def inverse_int(rows):
    """``(B, d)`` with ``B = d * A^-1`` an integer matrix, or None when A is singular."""
    n = len(rows)
    a, pivots, d, _ = echelon(
        [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    )
    if pivots[:n] != list(range(n)):
        return None
    return tuple(tuple(row[n:]) for row in a), d


def mat_vec(rows, v):
    return tuple(sum(a * b for a, b in zip(row, v)) for row in rows)


def mat_mul(a_rows, b_rows):
    bt = list(zip(*b_rows))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a_rows)
