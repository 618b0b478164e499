"""The benchmark's workloads: inputs made from a seed, one call per item, and
an output check that runs outside the timed region.

Every call goes through a module attribute of the freshly imported program
(``prog.cones.irredundant_facets``), so the tracer's wrappers see it.
See README.md for why each workload was chosen.
"""

from __future__ import annotations

import re
from fractions import Fraction


class CheckFailed(Exception):
    """An item's output is wrong."""


# f-vectors of the rank-3 string polytopes at rho, as printed in the paper.
PAPER_GT3_FVECTOR = (1, 176, 936, 2244, 3126, 2760, 1590, 594, 138, 18, 1)
PAPER_BRAID3_FVECTOR = (1, 175, 933, 2241, 3125, 2760, 1590, 594, 138, 18, 1)

# Twelve C4 words with pairwise distinct symplectic wiring diagrams, fixed
# so that every seed runs the same mix of LP sizes (string-cone forms 21..85,
# facets 21..54); the seed only picks which word of each class runs, and the
# order.  Within a class the cones differ by a coordinate permutation.
C4_CLASS_BASES = (
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
)
COMMUTATION_STEPS = 64


def exact_rank(vectors) -> int:
    """Exact rank by Gaussian elimination over the rationals."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            if f:
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def diagram_key(prog, w):
    """The symplectic wiring diagram of ``w`` as a comparable value."""
    sd = prog.diagram.build_symp_diagram(w)
    return tuple(sorted((nd.wires, nd.column) for nd in sd.base.nodes))


def commutation_walk(prog, w, rng, steps: int = COMMUTATION_STEPS):
    """A word of the commutation class of ``w``: ``steps`` random swaps of
    adjacent commuting letters."""
    t = w.lie_type
    letters = list(w.letters)
    for _ in range(steps):
        spots = [
            j for j in range(len(letters) - 1)
            if prog.weyl.cartan_pairing(t, letters[j], letters[j + 1]) == 0
        ]
        if not spots:
            break
        j = rng.choice(spots)
        letters[j], letters[j + 1] = letters[j + 1], letters[j]
    return prog.weyl.ReducedWord(t, tuple(letters))


class Workload:
    """One item list; `run` is timed, `check` is not.

    ``pass_s`` is about how long one pass takes at the seed commit in
    reference-speed seconds (full size, small size); a run makes
    ``seconds // pass_s`` passes, so the number of passes depends on
    ``--seconds`` only, not on the speed of the host or of the program.
    """

    def inputs(self, prog, rng, small: bool) -> list:
        raise NotImplementedError

    def prepare(self, prog, items):
        """Per-pass work shared by the items; timed as part of the pass."""
        return None

    def run(self, prog, ctx, item):
        raise NotImplementedError

    def check(self, prog, ctx, item, output) -> None:
        raise NotImplementedError

    def label(self, item) -> str:
        raise NotImplementedError

    def canon(self, item, output):
        raise NotImplementedError


class _ConeFacets(Workload):
    """Items ``(lie type, word, named)``; each is one `irredundant_facets`."""

    def run(self, prog, ctx, item):
        t, w, _ = item
        return prog.cones.irredundant_facets(t, w)

    def label(self, item) -> str:
        t, w, _ = item
        return f"{t} {w}"

    def canon(self, item, output):
        cone, n = output
        return (str(item[1]), n, tuple(f.coeffs for f in cone.forms))


class ConeSweepA(_ConeFacets):
    """Every reduced word of A4 (A3 when small), in a seeded order."""

    pass_s = (14.0, 0.1)

    def inputs(self, prog, rng, small):
        t = prog.weyl.LieType("A", 3 if small else 4)
        words = list(prog.weyl.enumerate_reduced_words(t))
        rng.shuffle(words)
        return [(t, w, False) for w in words]

    def check(self, prog, ctx, item, output):
        t, w, _ = item
        _, facets = output
        paths = len(prog.cones.string_cone(t, w).forms)
        if paths != facets:
            raise CheckFailed(f"{w}: {paths} paths but {facets} facets")


class ConeClassesC(_ConeFacets):
    """One C4 word (C2 when small) per fixed wiring-diagram class, the
    nested word and its braid variant included."""

    pass_s = (8.5, 0.1)

    def inputs(self, prog, rng, small):
        n = 2 if small else 4
        t = prog.weyl.LieType("C", n)
        named = [prog.weyl.gt_adapted_word(n), prog.weyl.braid_variant_word(n)]
        bases = [(w, True) for w in named]
        if not small:
            bases += [(prog.weyl.ReducedWord.parse("C4", s), False) for s in C4_CLASS_BASES]
        items = []
        for base, is_named in bases:
            w = commutation_walk(prog, base, rng)
            if diagram_key(prog, w) != diagram_key(prog, base):
                raise RuntimeError(f"commutation walk left the class of {base}")
            items.append((t, w, is_named))
        if len({diagram_key(prog, w) for _, w, _ in items}) != len(items):
            raise RuntimeError("two sampled words share a wiring diagram")
        rng.shuffle(items)
        return items

    def check(self, prog, ctx, item, output):
        t, w, named = item
        _, facets = output
        dim = prog.weyl.longest_length(w.lie_type)
        if named and facets != t.rank * t.rank:
            raise CheckFailed(f"{w}: named word has {facets} facets, not {t.rank ** 2}")
        # Independent count by double description: a row is a facet when the
        # extreme rays it is tight on span a hyperplane.
        h = prog.cones.string_cone(t, w, deduplicate=True).to_hrep()
        rays = prog.polyhedra.to_vrep(h).rays
        found = set()
        for c, _ in h.rows:
            tight = frozenset(i for i, r in enumerate(rays) if sum(a * b for a, b in zip(c, r)) == 0)
            if tight not in found and exact_rank([rays[i] for i in tight]) == dim - 1:
                found.add(tight)
        if len(found) != facets:
            raise CheckFailed(f"{w}: LP gives {facets} facets, double description {len(found)}")


class _GTCompare(Workload):
    """Items ``(weight, word)``: the word's string polytope against the
    Gelfand-Tsetlin polytope of the same weight, decided as
    `verify_gt_theorem` decides it (facet count, then the equivalence
    search with its default budget)."""

    def prepare(self, prog, items):
        ctx = {}
        for lam, _ in items:
            if lam not in ctx:
                gt = prog.polytopes.gt_polytope_C(lam, lam.lie_type.rank)
                ctx[lam] = (gt, len(prog.polyhedra.remove_redundant(gt).rows))
        return ctx

    def run(self, prog, ctx, item):
        lam, w = item
        gt, gt_facets = ctx[lam]
        poly = prog.polytopes.string_polytope(w, lam)
        facets = len(prog.polyhedra.remove_redundant(poly).rows)
        if facets != gt_facets:
            return ("refuted", f"facet count {facets} != {gt_facets}", facets, None, None)
        verdict = prog.polyhedra.search_unimodular_equivalence(poly, gt)
        if verdict.status == "equivalent":
            return ("equivalent", None, facets, verdict.matrix, verdict.shift)
        if verdict.status == "inequivalent":
            return ("refuted", verdict.witness, facets, None, None)
        return ("refuted", f"unresolved: {verdict.witness}", facets, None, None)

    def check(self, prog, ctx, item, output):
        lam, w = item
        status, witness, facets, matrix, shift = output
        n = w.rank
        gt, gt_facets = ctx[lam]
        if gt_facets != 2 * n * n:
            raise CheckFailed(f"GT polytope at {lam} has {gt_facets} facets, not {2 * n * n}")
        cone_facets = prog.cones.facet_count(prog.weyl.LieType("C", n), w)
        if facets != cone_facets + n * n:
            raise CheckFailed(f"{w} at {lam}: {facets} polytope facets, cone has {cone_facets}")
        if w == prog.weyl.gt_adapted_word(n):
            if status != "equivalent":
                raise CheckFailed(f"nested word at {lam} not found equivalent: {witness}")
            poly = prog.polytopes.string_polytope(w, lam)
            if not prog.polyhedra.verify_unimodular_map(poly, gt, matrix, shift):
                raise CheckFailed(f"nested word at {lam}: the map does not verify")
            return
        if status != "refuted" or not witness:
            raise CheckFailed(f"{w} at {lam}: {status} without a witness")
        fv = re.fullmatch(r"f-vector \((.*)\) != \((.*)\)", witness)
        if fv and n == 3 and lam.coeffs == (1, 1, 1):
            got = tuple(int(x) for x in fv.group(1).split(","))
            want = tuple(int(x) for x in fv.group(2).split(","))
            if (got, want) != (PAPER_BRAID3_FVECTOR, PAPER_GT3_FVECTOR):
                raise CheckFailed(f"{w}: f-vectors differ from the paper's: {witness}")

    def label(self, item) -> str:
        lam, w = item
        return f"lambda={lam} {w}"

    def canon(self, item, output):
        lam, w = item
        return (str(lam), str(w)) + tuple(output)


class GTClassify(_GTCompare):
    """Every C3 word except the nested one at rho (C2 when small)."""

    pass_s = (16.0, 0.1)

    def inputs(self, prog, rng, small):
        n = 2 if small else 3
        t = prog.weyl.LieType("C", n)
        rho = prog.weyl.Weight.rho(t)
        nested = prog.weyl.gt_adapted_word(n)
        items = [(rho, w) for w in prog.weyl.enumerate_reduced_words(t) if w != nested]
        rng.shuffle(items)
        return items


class GTEquivalence(_GTCompare):
    """Both C2 words at every regular dominant weight with lambda1 + lambda2
    <= 6 (only rho when small)."""

    pass_s = (9.5, 0.25)

    def inputs(self, prog, rng, small):
        t = prog.weyl.LieType("C", 2)
        top = 2 if small else 6
        weights = [prog.weyl.Weight(t, (a, s - a)) for s in range(2, top + 1) for a in range(1, s)]
        items = [(lam, w) for lam in weights for w in prog.weyl.enumerate_reduced_words(t)]
        rng.shuffle(items)
        return items


WORKLOADS = {
    "cone_sweep_a4": ConeSweepA(),
    "cone_classes_c4": ConeClassesC(),
    "gt_classify_c3": GTClassify(),
    "gt_equivalence_c2": GTEquivalence(),
}
