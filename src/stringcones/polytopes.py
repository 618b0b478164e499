"""String polytopes, weight cones, and the symplectic Gelfand-Tsetlin polytope.

The weight cone of a word ``(i_1, ..., i_L)`` at a dominant weight bounds
each coordinate by the pairing left over after the later reflections act:

    a_k <= <lambda - sum_{l>k} a_l alpha_{i_l}, coroot_{i_k}>,

expanded through `cartan_pairing` into integer rows.  A string polytope is
the string cone intersected with this weight cone.

The symplectic Gelfand-Tsetlin polytope of rank n lives on the n^2
coordinates printed in interleaved row order

    a(1)_1 | b(2)_1 a(1)_2 a(2)_1 | b(3)_1 b(2)_2 a(1)_3 a(2)_2 a(3)_1 | ...

and is cut out by the interlacing chains between consecutive rows, with the
partial sums lambda_{>=k} on top and trailing zeros closing each row pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cones import string_cone
from .polyhedra import HRep, remove_redundant, search_unimodular_equivalence
from .weyl import (
    LieType,
    ReducedWord,
    Weight,
    cartan_pairing,
    enumerate_reduced_words,
    gt_adapted_word,
)

__all__ = [
    "lambda_cone",
    "string_polytope",
    "polytope_facet_count",
    "gt_coordinate_names",
    "gt_polytope_C",
    "GTComparison",
    "GTReport",
    "verify_gt_theorem",
]


def lambda_cone(w: ReducedWord, lam: Weight) -> HRep:
    """The weight-cone inequalities of ``w`` at ``lam`` as ``<=`` rows."""
    if not lam.is_dominant:
        raise ValueError("weight cone needs a dominant weight")
    if lam.lie_type != w.lie_type:
        raise ValueError("weight and word have different Lie types")
    t = w.lie_type
    L = len(w.letters)
    rows = []
    for k in range(1, L + 1):
        coeffs = [0] * L
        coeffs[k - 1] = 1
        for l in range(k + 1, L + 1):
            coeffs[l - 1] = cartan_pairing(t, w.letters[l - 1], w.letters[k - 1])
        rows.append((tuple(coeffs), Fraction(lam.coeffs[w.letters[k - 1] - 1])))
    return HRep(L, tuple(rows))


def string_polytope(w: ReducedWord, lam: Weight) -> HRep:
    """String cone plus weight cone of ``w`` at ``lam`` (possibly redundant rows)."""
    cone = string_cone(w.lie_type, w, deduplicate=True)
    cone_rows = tuple((tuple(-c for c in f.coeffs), Fraction(0)) for f in cone.forms)
    return HRep(cone.dim, cone_rows + lambda_cone(w, lam).rows)


def polytope_facet_count(w: ReducedWord, lam: Weight) -> int:
    return len(remove_redundant(string_polytope(w, lam)).rows)


def gt_coordinate_names(n: int) -> list[str]:
    """Coordinate names in the printed interleaved order, ``a1_2`` style."""
    names: list[str] = []
    for k in range(1, n + 1):
        for j in range(k - 1):
            names.append(f"b{k - j}_{1 + j}")
        for j in range(k):
            names.append(f"a{1 + j}_{k - j}")
    return names


def _gt_index(n: int) -> dict[tuple[str, int, int], int]:
    index: dict[tuple[str, int, int], int] = {}
    pos = 0
    for k in range(1, n + 1):
        for j in range(k - 1):
            index[("b", k - j, 1 + j)] = pos
            pos += 1
        for j in range(k):
            index[("a", 1 + j, k - j)] = pos
            pos += 1
    return index


def gt_polytope_C(lam: Weight, n: int) -> HRep:
    """The rank-n symplectic Gelfand-Tsetlin polytope of a dominant weight.

    Rows: the top chain lambda_{>=k} >= a(1)_k >= lambda_{>=k+1}; between a
    row a(i) of length L and the next row b(i+1) of length L-1 the chain
    a(i)_k >= b(i+1)_k >= a(i)_{k+1} plus a(i)_L >= 0; between same-length
    rows b(i) and a(i) the chain b(i)_k >= a(i)_k >= b(i)_{k+1} plus
    a(i)_L >= 0.  The trailing zero bounds arise twice and are deduplicated
    before the rows are returned.
    """
    if n < 2:
        raise ValueError("the symplectic pattern needs rank at least 2")
    if lam.lie_type != LieType("C", n):
        raise ValueError("weight must be a type-C weight of matching rank")
    if not lam.is_dominant:
        raise ValueError("needs a dominant weight")
    idx = _gt_index(n)
    N = n * n
    lam_tail = [Fraction(sum(lam.coeffs[k - 1 :])) for k in range(1, n + 1)] + [Fraction(0)]

    rows: list[tuple[tuple[int, ...], Fraction]] = []

    def ge(hi_var, lo_var) -> None:
        # hi - lo >= 0, each side a coordinate triple or a constant Fraction
        coeffs = [0] * N
        rhs = Fraction(0)
        if isinstance(hi_var, tuple):
            coeffs[idx[hi_var]] -= 1
        else:
            rhs += hi_var
        if isinstance(lo_var, tuple):
            coeffs[idx[lo_var]] += 1
        else:
            rhs -= lo_var
        rows.append((tuple(coeffs), rhs))

    for k in range(1, n + 1):
        ge(lam_tail[k - 1], ("a", 1, k))
        ge(("a", 1, k), lam_tail[k])
    for i in range(1, n):
        length = n - i + 1
        for k in range(1, length):
            ge(("a", i, k), ("b", i + 1, k))
            ge(("b", i + 1, k), ("a", i, k + 1))
        ge(("a", i, length), Fraction(0))
    for i in range(2, n + 1):
        length = n - i + 1
        for k in range(1, length + 1):
            ge(("b", i, k), ("a", i, k))
        for k in range(1, length):
            ge(("a", i, k), ("b", i, k + 1))
        ge(("a", i, length), Fraction(0))
    deduped = []
    seen = set()
    for row in rows:
        key = HRep(N, (row,)).rows[0]
        if key not in seen:
            seen.add(key)
            deduped.append(row)
    return HRep(N, tuple(deduped))


@dataclass(frozen=True)
class GTComparison:
    word: ReducedWord
    status: str  # "equivalent" | "refuted"
    witness: str | None
    matrix: tuple[tuple[int, ...], ...] | None = None
    shift: tuple[int, ...] | None = None


@dataclass(frozen=True)
class GTReport:
    n: int
    comparisons: tuple[GTComparison, ...]

    @property
    def equivalent_words(self) -> tuple[ReducedWord, ...]:
        return tuple(c.word for c in self.comparisons if c.status == "equivalent")

    def ok(self) -> bool:
        expected = gt_adapted_word(self.n)
        return tuple(str(w) for w in self.equivalent_words) == (str(expected),)


def verify_gt_theorem(n: int, budget: int = 100_000) -> GTReport:
    """Compare every rank-n string polytope at rho with the Gelfand-Tsetlin
    polytope; exactly the nested word should survive.

    Words whose polytopes have the wrong facet count are refuted outright.
    The rest go to `search_unimodular_equivalence`, which compares dimension,
    f-vector and integrality of the two face lattices and then runs its
    anchored map search.  The search is complete (any lattice map sends the
    anchor's edge star to one of the edge stars it tries), so its exhaustion
    refutes the word; only a spent budget or a polytope without simple
    vertex leaves it unresolved.
    """
    t = LieType("C", n)
    rho = Weight.rho(t)
    gt = gt_polytope_C(rho, n)
    gt_facets = len(remove_redundant(gt).rows)
    out: list[GTComparison] = []
    for w in enumerate_reduced_words(t):
        poly = string_polytope(w, rho)
        facets = len(remove_redundant(poly).rows)
        if facets != gt_facets:
            out.append(
                GTComparison(w, "refuted", f"facet count {facets} != {gt_facets}")
            )
            continue
        verdict = search_unimodular_equivalence(poly, gt, budget=budget)
        if verdict.status == "equivalent":
            out.append(GTComparison(w, "equivalent", None, verdict.matrix, verdict.shift))
        elif verdict.status == "inequivalent":
            out.append(GTComparison(w, "refuted", verdict.witness))
        else:
            out.append(GTComparison(w, "refuted", f"unresolved: {verdict.witness}"))
    return GTReport(n, tuple(out))
