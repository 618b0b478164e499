"""Differential tests of the exact elimination kernel in `stringcones._linalg`.

Every view of `echelon` is checked against a plain `Fraction` Gauss-Jordan
elimination written here and against the defining identity of its result.
`echelon` takes integer rows only, so a rational matrix is scaled to one
first, each row by the lcm of its denominators (the same row space).
"""

from fractions import Fraction as F
from itertools import permutations
from math import lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from stringcones._linalg import (
    det_int,
    echelon,
    independent_rows,
    inverse_int,
    mat_vec,
    nullspace_vector,
    rank_int,
)

SETTINGS = settings(max_examples=150, deadline=None)


def mat_mul(a_rows, b_rows):
    bt = list(zip(*b_rows))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a_rows)


def _rref(rows):
    """Reduced row echelon form and pivot columns, by plain Fraction arithmetic."""
    a = [[F(x) for x in row] for row in rows]
    pivots = []
    for c in range(len(a[0]) if a else 0):
        r = len(pivots)
        pr = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return a, pivots


def _greedy_rows(rows):
    """The first greedy basis among the rows, by incremental Fraction reduction."""
    basis, chosen = [], []
    for i, row in enumerate(rows):
        v = [F(x) for x in row]
        for b in basis:
            p = next(k for k, x in enumerate(b) if x != 0)
            if v[p] != 0:
                f = v[p] / b[p]
                v = [x - f * y for x, y in zip(v, b)]
        if any(v):
            basis.append(v)
            chosen.append(i)
    return chosen


def _leibniz(rows):
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = (-1) ** inversions
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


ENTRY = st.integers(-4, 4)
RATIONAL = st.builds(F, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def matrices(draw, rows=None, cols=None, entries=ENTRY):
    """Small matrices, a third of them built as a product B C of rank at most k."""
    m = draw(st.integers(0, 5)) if rows is None else rows
    n = draw(st.integers(1, 5)) if cols is None else cols
    if draw(st.integers(0, 2)) == 0:
        k = draw(st.integers(0, min(m, n)))
        b = [[draw(ENTRY) for _ in range(k)] for _ in range(m)]
        c = [[draw(entries) for _ in range(n)] for _ in range(k)]
        return [[sum(b[i][t] * c[t][j] for t in range(k)) for j in range(n)] for i in range(m)]
    return [[draw(entries) for _ in range(n)] for _ in range(m)]


def integer_rows(rows):
    """Each row times the lcm of its denominators."""
    scales = [lcm(*(x.denominator for x in row)) for row in rows]
    return [[int(x * s) for x in row] for row, s in zip(rows, scales)]


ANY_MATRIX = st.one_of(matrices(), matrices(entries=RATIONAL).map(integer_rows))


@SETTINGS
@given(ANY_MATRIX)
def test_echelon_is_scaled_rref(a):
    mat, pivots, d, sign = echelon(a)
    ref, ref_pivots = _rref(a)
    assert pivots == ref_pivots
    assert d != 0 and sign in (1, -1)
    assert all(isinstance(x, int) for row in mat for x in row)
    assert [[F(x, d) for x in row] for row in mat] == ref


@SETTINGS
@given(ANY_MATRIX)
def test_rank_and_independent_rows(a):
    assert rank_int(a) == len(_rref(a)[1])
    if a:
        assert independent_rows(a) == _greedy_rows(a)


@SETTINGS
@given(st.integers(0, 4).flatmap(lambda n: matrices(rows=n, cols=max(n, 1))))
def test_det_matches_leibniz(a):
    if not a:
        assert det_int(a) == 1
        return
    assert det_int(a) == _leibniz(a)


@SETTINGS
@given(st.integers(1, 7).flatmap(lambda n: matrices(rows=n, cols=n)))
def test_forward_pass_agrees_with_gauss_jordan(a):
    """The forward pass that `det_int` and `rank_int` run finds the pivots,
    last pivot and sign of the Gauss-Jordan pass on square integer matrices,
    a third of them of lower rank (singular)."""
    gj = echelon(a)
    fwd = echelon(a, reduced=False)
    assert fwd[1:] == gj[1:]
    assert det_int(a) == (gj[3] * gj[2] if len(gj[1]) == len(a) else 0)
    assert rank_int(a) == len(gj[1])
    for r, c in enumerate(fwd[1]):  # zero below each pivot
        assert all(row[c] == 0 for row in fwd[0][r + 1 :])


def _square(n):
    return st.one_of(
        matrices(rows=n, cols=n), matrices(rows=n, cols=n, entries=RATIONAL).map(integer_rows)
    )


@SETTINGS
@given(st.integers(1, 4).flatmap(_square))
def test_inverse(a):
    n = len(a)
    res = inverse_int(a)
    ref, pivots = _rref([list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)])
    assert (res is None) == (pivots[:n] != list(range(n)))
    if res is not None:
        b, d = res
        assert d != 0 and all(isinstance(x, int) for row in b for x in row)
        assert mat_mul(a, b) == tuple(tuple(d * int(i == j) for j in range(n)) for i in range(n))
        assert [[F(x, d) for x in row] for row in b] == [row[n:] for row in ref]


@SETTINGS
@given(ANY_MATRIX)
def test_nullspace_vector(a):
    if not a:
        return
    v = nullspace_vector(a)
    assert (v is None) == (len(_rref(a)[1]) == len(a[0]))
    if v is not None:
        assert any(v) and all(x == 0 for x in mat_vec(a, v))


def test_zero_row_and_degenerate_shapes():
    assert echelon([]) == ([], [], 1, 1)
    assert rank_int([[0, 0, 0]]) == 0
    assert nullspace_vector([[0, 0]]) == (1, 0)
    assert inverse_int([[1, 2], [2, 4]]) is None
    assert det_int([[0, 1], [1, 0]]) == -1
