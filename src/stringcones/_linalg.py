"""Small exact linear-algebra helpers shared by the diagram and polyhedral
code, and `Value`, the base of the package's immutable value types.

Everything works over Python integers: the entries given must be ints (a
rational matrix is scaled to integers by its caller).  No floats.
`echelon` is the one elimination: determinant, rank, independent rows,
nullspace and inverse are read off its result.
"""

from __future__ import annotations

from math import gcd
from operator import attrgetter

__all__ = [
    "Value",
    "content",
    "primitive",
    "echelon",
    "det_int",
    "rank_int",
    "independent_rows",
    "nullspace_vector",
    "inverse_int",
    "mat_vec",
]


class Value:
    """An immutable value named by the fields in ``_fields``.

    ``Name(a, b, ...)`` takes one value per field, in order, and no
    keywords; a type that only stores its fields writes no ``__init__``,
    and one that checks or derives them passes them to
    ``super().__init__``.  A value equals an instance of its own class with
    equal fields, hashes as the tuple of its fields and prints as
    ``Name(field=value, ...)``; assigning or deleting an attribute raises
    `AttributeError`.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        # one C call reads the field tuple that equality and hashing compare
        get = attrgetter(*cls._fields)
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda v: (get(v),))

    def __init__(self, *values) -> None:
        fields = self._fields
        if len(values) != len(fields):
            raise TypeError(
                f"{type(self).__qualname__} takes {len(fields)} field values, got {len(values)}"
            )
        for name, value in zip(fields, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def content(vec) -> int:
    """The gcd of an integer vector's entries (0 for the zero vector)."""
    return gcd(*vec)


def primitive(vec) -> tuple[int, ...]:
    """Divide an integer vector by its content (zero vector passes through)."""
    g = content(vec)
    if g <= 1:
        return tuple(vec)
    return tuple(x // g for x in vec)


def echelon(rows, reduced: bool = True):
    """Fraction-free (Bareiss) elimination of an integer matrix.

    Every pivot step eliminates below the pivot, and above it too when
    ``reduced`` (Gauss-Jordan), dividing exactly by the previous pivot, so
    all entries stay integer minors of the matrix.  Returns ``(matrix,
    pivots, d, sign)``: the integer rows of ``d`` times the reduced row
    echelon form (with ``reduced``; otherwise a row echelon form), the pivot
    columns in order, the last pivot ``d`` (1 when there is none) and the
    sign of the row permutation.  The rows below a pivot change alike
    in both passes, so pivots, ``d`` and sign agree; the forward pass is all
    that rank, determinant and independent rows need.
    """
    a = [list(row) for row in rows]
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
        if reduced:
            for i in range(m):
                if i != r:
                    f = a[i][c]
                    a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], prow)]
        else:  # rows below r are zero left of c
            tail = prow[c + 1 :]
            for row in a[r + 1 :]:
                f = row[c]
                if f:
                    row[c + 1 :] = [(p * x - f * y) // prev for x, y in zip(row[c + 1 :], tail)]
                    row[c] = 0
                elif p != prev:
                    row[c + 1 :] = [p * x // prev for x in row[c + 1 :]]
        pivots.append(c)
        prev = p
    return a, pivots, prev, sign


def det_int(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix."""
    _, pivots, d, sign = echelon(rows, reduced=False)
    return sign * d if len(pivots) == len(rows) else 0


def rank_int(rows) -> int:
    """Rank of an integer matrix."""
    return len(echelon(rows, reduced=False)[1])


def independent_rows(rows) -> list[int]:
    """Indices of the greedy first basis among the rows (pivot columns of the transpose)."""
    return echelon(list(zip(*rows)), reduced=False)[1]


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
