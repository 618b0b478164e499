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

The words of one commutation class have string polytopes that differ only
by a renaming of coordinates: a commutation move swaps two coordinates of
the string cone, and two commuting letters pair to zero, so it swaps two
rows of the weight cone as well.  `string_polytope` lists the merged cone
rows in the class entry's order and the weight rows in heap-coordinate
order (`weyl.heap_coordinates`), so the words of a class list one sequence of
rows ``(tuple[int], int)`` up to that renaming, right-hand sides included.
Only the right-hand sides depend on the weight, so the class's one entry
keeps that sequence once, with an index for each right-hand side
(`cones.class_polytope_rows`): the first polytope of the class builds it
from the cone's merged forms and one weight cone, and every word and
weight relabels it and fills in the weight, with no string cone, no
weight cone and no row normalized (`HRep._canonical`).

At a regular weight the kept rows need no redundancy LP of the polytope's
own.  Back-substituting the weight rows gives the point v(lambda) where
all N of them are tight (`lowest_weight_vertex`), linear in lambda.  When
every merged cone row is ``<= 0`` at each v(omega_i) and ``< 0`` at v(rho)
(`lowest_weight_certificate`), v(lambda) is strictly inside every cone
row, so it is a simple vertex whose tangent cone the weight rows cut out,
and each weight row is a facet; every weight row is strict at 0, whose
tangent cone is the string cone, so the cone's facets are the polytope's
other facets: facets = cone facets + N, the paper's count, at every
regular weight.  `string_polytope` checks the certificate once per class
and keeps the indices of those rows in the entry, ``"polytope_facets"``:
the cone's facet indices (`cones.cone_facets`, one redundancy LP per
class, per mirror pair of classes in type A) followed by all N weight
rows; each polytope at a regular weight starts with them, and
`remove_redundant` reads them with no LP.  A class without the
certificate (none is known: every class tested, up to rank 4, has it)
keeps None, and runs `remove_redundant` once per polytope, as a
non-regular weight does.  Only these indices hold across weights, never
a V-rep or a face count: the combinatorial type changes inside the
regular chamber.

`verify_gt_theorem` reproduces the paper's classification: at rho, exactly
the nested word's string polytope is unimodularly equivalent to the
pattern polytope.  Its report pairs every word with the
`EquivalenceResult` that decided it, the search's own or, for a word whose
polytope has the wrong facet count, one decided by "facet count".
"""

from __future__ import annotations

from operator import mul

from ._linalg import Value
from .cones import class_polytope_rows, cone_facets, string_cone
from .polyhedra import EquivalenceResult, HRep, remove_redundant, search_unimodular_equivalence
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
    "lowest_weight_vertex",
    "lowest_weight_certificate",
    "string_polytope",
    "gt_coordinate_names",
    "gt_polytope_C",
    "GTReport",
    "verify_gt_theorem",
]


def _check_weight(w: ReducedWord, lam: Weight) -> None:
    if not lam.is_dominant:
        raise ValueError("weight cone needs a dominant weight")
    if lam.lie_type != w.lie_type:
        raise ValueError("weight and word have different Lie types")


def lambda_cone(w: ReducedWord, lam: Weight) -> HRep:
    """The weight-cone inequalities of ``w`` at ``lam`` as ``<=`` rows."""
    _check_weight(w, lam)
    t = w.lie_type
    L = len(w.letters)
    rows = []
    for k in range(1, L + 1):
        coeffs = [0] * L
        coeffs[k - 1] = 1
        for l in range(k + 1, L + 1):
            coeffs[l - 1] = cartan_pairing(t, w.letters[l - 1], w.letters[k - 1])
        rows.append((tuple(coeffs), lam.coeffs[w.letters[k - 1] - 1]))
    return HRep(L, tuple(rows))


def lowest_weight_vertex(w: ReducedWord, lam: Weight) -> tuple[int, ...]:
    """The point where every weight row of ``w`` at ``lam`` is tight.

    Row k of `lambda_cone` reads ``v_k = <mu_k, coroot_{i_k}>`` with
    ``mu_k = lam - sum_{l>k} v_l alpha_{i_l}``: it has a 1 at coordinate k
    and zeros before it, so the point is read off by back-substitution from
    the last row, carrying ``mu_k`` in fundamental weights (``alpha_i``
    has coefficient ``cartan_pairing(t, i, j)`` at ``omega_j``, nonzero
    only for ``|i - j| <= 1``).  Then ``mu_k = s_{i_k} mu_{k+1}``, so
    ``mu_1 = w0 lam``: the point is the string parametrization of the
    lowest-weight element of V(lam) (Kashiwara, *Duke Math. J.* 71, 1993;
    Littelmann, *Transform. Groups* 3, 1998), and
    ``sum_k v_k alpha_{i_k} = lam - w0 lam``.
    """
    _check_weight(w, lam)
    t = w.lie_type
    mu = list(lam.coeffs)
    v = []
    for i in reversed(w.letters):
        x = mu[i - 1]
        v.append(x)
        for j in range(max(1, i - 1), min(t.rank, i + 1) + 1):
            mu[j - 1] -= x * cartan_pairing(t, i, j)
    return tuple(reversed(v))


def lowest_weight_certificate(w: ReducedWord) -> bool:
    """Whether every merged string-cone row of the class of ``w`` is ``<= 0``
    at each `lowest_weight_vertex` v(omega_i) and ``< 0`` at v(rho), so that
    at every regular weight the string polytope's facets are the cone's and
    all N weight rows (see the module docstring).
    """
    t = w.lie_type
    forms = string_cone(t, w, deduplicate=True).forms
    units = [Weight(t, [int(i == j) for j in range(t.rank)]) for i in range(t.rank)]
    vertices = [lowest_weight_vertex(w, omega) for omega in units]
    # the cone row -form . x <= 0 reads -form . v; at v(rho) it sums over the v(omega_i)
    values = [[sum(map(mul, f.coeffs, v)) for v in vertices] for f in forms]
    return all(min(r) >= 0 and sum(r) > 0 for r in values)


def string_polytope(w: ReducedWord, lam: Weight) -> HRep:
    """String cone plus weight cone of ``w`` at ``lam`` (possibly redundant rows).

    The merged string-cone rows come first, then the weight-cone rows in
    heap-coordinate order (`weyl.heap_coordinates`), read from the entry of
    the commutation class (see the module docstring).  At a regular weight,
    when the class passes `lowest_weight_certificate`, the polytope comes
    with the indices of its minimal rows: the cone's facets
    (`cones.cone_facets`) and every weight row.
    """
    _check_weight(w, lam)
    entry, rows = class_polytope_rows(w, lam, lambda: lambda_cone(w, lam).rows)
    if lam.is_regular and "polytope_facets" not in entry:
        weight = tuple(range(len(rows) - len(w.letters), len(rows)))
        certified = lowest_weight_certificate(w)
        entry["polytope_facets"] = cone_facets(w.lie_type, w)[1] + weight if certified else None
    return HRep._canonical(len(w.letters), rows, entry["polytope_facets"] if lam.is_regular else None)


def _gt_coordinates(n: int):
    """The coordinates ``(kind, i, k)`` of the rank-n Gelfand-Tsetlin
    polytope, in the printed interleaved order."""
    for k in range(1, n + 1):
        for j in range(k - 1):
            yield "b", k - j, 1 + j
        for j in range(k):
            yield "a", 1 + j, k - j


def gt_coordinate_names(n: int) -> list[str]:
    """Coordinate names in the printed interleaved order, ``a1_2`` style."""
    return [f"{kind}{i}_{k}" for kind, i, k in _gt_coordinates(n)]


def _gt_index(n: int) -> dict[tuple[str, int, int], int]:
    return {coordinate: pos for pos, coordinate in enumerate(_gt_coordinates(n))}


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
    lam_tail = [sum(lam.coeffs[k - 1 :]) for k in range(1, n + 1)] + [0]

    rows: list[tuple[tuple[int, ...], int]] = []

    def ge(hi_var, lo_var) -> None:
        # hi - lo >= 0, each side a coordinate triple or a constant
        coeffs = [0] * N
        rhs = 0
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
        ge(("a", i, length), 0)
    for i in range(2, n + 1):
        length = n - i + 1
        for k in range(1, length + 1):
            ge(("b", i, k), ("a", i, k))
        for k in range(1, length):
            ge(("a", i, k), ("b", i, k + 1))
        ge(("a", i, length), 0)
    return HRep(N, tuple(dict.fromkeys(rows)))


class GTReport(Value):
    # comparisons: (word, verdict) pairs in enumeration order; gt: the pattern
    # polytope at rho every word was compared with
    _fields = ("n", "comparisons", "gt")

    def ok(self) -> bool:
        """Exactly the nested word is equivalent, and every other word is inequivalent."""
        if any(v.status == "unknown" for _, v in self.comparisons):
            return False
        hits = [str(w) for w, v in self.comparisons if v.status == "equivalent"]
        return hits == [str(gt_adapted_word(self.n))]


def verify_gt_theorem(n: int) -> GTReport:
    """Compare every rank-n string polytope at rho with the Gelfand-Tsetlin
    polytope; exactly the nested word should survive.

    Each word gets one `EquivalenceResult`.  Words whose polytopes have the
    wrong facet count are inequivalent outright, decided by "facet count".
    The rest go to `search_unimodular_equivalence`, which compares
    dimension, vertex count, facet sizes and integrality from the two
    incidence tables and then runs its anchored map search.  The search is
    complete (any lattice map sends the anchor's edge star to one of the
    edge stars it tries), so its exhaustion refutes the word; only a spent
    budget or a polytope without simple vertex leaves it "unknown", which
    is no refutation.
    """
    t = LieType("C", n)
    rho = Weight.rho(t)
    gt = gt_polytope_C(rho, n)
    gt_facets = len(remove_redundant(gt).rows)
    out = []
    for w in enumerate_reduced_words(t):
        poly = string_polytope(w, rho)
        facets = len(remove_redundant(poly).rows)
        if facets != gt_facets:
            witness = f"facet count {facets} != {gt_facets}"
            verdict = EquivalenceResult("inequivalent", witness=witness, decided_by="facet count")
        else:
            verdict = search_unimodular_equivalence(poly, gt)
        out.append((w, verdict))
    return GTReport(n, tuple(out), gt)
