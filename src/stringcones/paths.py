"""Rigorous paths on oriented wiring diagrams.

A rigorous path on an oriented diagram with orientation index ``k`` starts
at the bottom end of wire ``k``, travels with the wire orientations, visits
every crossing at most once, and ends at the bottom end of wire ``k + 1``.
At each crossing it either switches to the other wire or passes straight
through; passing through is forbidden when both wires point the same way
and the path would cross from right to left, i.e. downward on the higher
of two downward wires or upward on the lower of two upward wires.

Paths are stored as their full event list: every crossing transited, in
travel order, tagged with whether the path switched wires there.  The node
expression (switch crossings only) derives from the events; the wire
expression and the peaks from the switches (`RigorousPath.switch_pairs`),
which read the wire changes between the path's legs (`RigorousPath.stops`,
the one walk of the events that follows the wires).
The search runs once per orientation of a diagram: the diagram keeps the
sorted event tuples (`path_events`), never the paths, so a diagram and its
paths form no reference cycle, and a reader of forms builds no path.  A
symplectic diagram is the wiring diagram of its lifted word, so one search,
one region count and one drawing serve both types, and a path names its
wires through its diagram (`wire_name`).  On
symplectic diagrams the mirror of a path is its reflection in the wall,
traversed backwards; a path with orientation ``n`` equal to its own mirror
is symmetric.  The region a path encloses is a parity count over the
diagram's wire arrangements; a path's legs serve it and the SVG renderer
in `cli`, which owns the drawing coordinates.

The extension of a path with orientation at most ``n`` is read straight
from its definition: of the paths of that orientation whose enclosed
regions lie inside region(p) | region(mirror(p)), the one whose region
contains all the others.  The canonical paths are extensions of the
single-peaked staircase paths of the lifted diagram, found in one pass
over its orientations.  A path that is its own extension has an
irredundant folded string inequality (checked on every C2 and C3 word); the
converse fails: 15 of the 42 C3 words have a facet that only paths which
are not their own extensions cut.
"""

from __future__ import annotations

from ._linalg import Value
from .diagram import OrientedDiagram, SympWiringDiagram

__all__ = [
    "RigorousPath",
    "path_events",
    "enumerate_paths",
    "enumerate_paths_naive",
    "mirror",
    "is_symmetric",
    "enclosed_region",
    "extension",
    "canonical_paths",
    "is_new",
]


class RigorousPath(Value):
    """An oriented path, recorded as (crossing index, switched) events."""

    _fields = ("oriented", "events")

    @property
    def diagram(self):
        return self.oriented.diagram

    @property
    def k(self) -> int:
        return self.oriented.up_count

    @property
    def node_expression(self) -> tuple[int, ...]:
        return tuple(j for j, switched in self.events if switched)

    @property
    def wire_seq(self) -> tuple[int, ...]:
        """Wires in travel order (the wire expression)."""
        return (self.k, *(to for _, _, to in self.switch_pairs))

    @property
    def switch_pairs(self) -> tuple[tuple[int, int, int], ...]:
        """Triples (node, from_wire, to_wire), one per switch event: the
        crossings where two consecutive legs of `stops` change wire."""
        legs = self.stops()
        return tuple(
            (j, frm, to) for (frm, _, j), (to, _, _) in zip(legs, legs[1:]) if frm != to
        )

    @property
    def peaks(self) -> tuple[int, ...]:
        """Crossings where the path turns from ascending to descending."""
        up = self.oriented.is_up
        return tuple(j for j, frm, to in self.switch_pairs if up(frm) and not up(to))

    def wires_by_name(self) -> tuple[str, ...]:
        return tuple(map(self.diagram.wire_name, self.wire_seq))

    def stops(self) -> tuple:
        """'bottom', the visited crossings, 'bottom' - with the wire per leg."""
        legs = []
        wire = self.k
        prev: object = "bottom"
        for j, switched in self.events:
            legs.append((wire, prev, j))
            if switched:
                wire = self.diagram.node(j).other_wire(wire)
            prev = j
        legs.append((wire, prev, "bottom"))
        return tuple(legs)

    def __str__(self) -> str:
        return " -> ".join(self.wires_by_name())


def path_events(d: OrientedDiagram) -> tuple[tuple[tuple[int, bool], ...], ...]:
    """The event tuples of the rigorous paths on ``d``, sorted by their
    switch nodes: the search runs once per orientation of a diagram, whose
    ``paths`` memo keeps them by up count."""
    memo = d.diagram.paths
    if d.up_count not in memo:
        memo[d.up_count] = _search(d)
    return memo[d.up_count]


def enumerate_paths(d: OrientedDiagram) -> tuple[RigorousPath, ...]:
    """All rigorous paths on ``d``, in the order of `path_events`."""
    return tuple(RigorousPath(d, events) for events in path_events(d))


def _search(d: OrientedDiagram) -> tuple[tuple[tuple[int, bool], ...], ...]:
    """The search behind `path_events`, on per-crossing tables: the next
    crossing along each wire in its direction, and the wire sum.  Passing is
    forbidden exactly where ``wire < other`` and ``up < other`` disagree."""
    diagram, up = d.diagram, d.up_count
    end_wire = up + 1  # a downward wire, so a path may end at its bottom
    after = [{} for _ in range(diagram.length + 1)]
    for wire, seq in diagram.wire_nodes.items():
        walk = seq[::-1] if wire <= up else seq
        for j, n in zip(walk, (*walk[1:], None)):
            after[j][wire] = n
    pair = [0, *(nd.left_above + nd.right_above for nd in diagram.nodes)]
    out: list[tuple[tuple[int, bool], ...]] = []
    events: list[tuple[int, bool]] = []
    visited = [False] * len(pair)

    def run(wire: int, at: int | None) -> None:
        if at is None:
            if wire == end_wire:
                out.append(tuple(events))
            return
        if visited[at]:
            return
        other = pair[at] - wire
        visited[at] = True
        nxt = after[at]
        if (wire < other) == (up < other):
            events.append((at, False))
            run(wire, nxt[wire])
            events.pop()
        events.append((at, True))
        run(other, nxt[other])
        events.pop()
        visited[at] = False

    run(up, diagram.first_node_on_wire(up))
    del run  # the closure refers to itself; the cycle would keep `out` until a GC pass
    out.sort(key=lambda evts: [j for j, switched in evts if switched])
    return tuple(out)


def enumerate_paths_naive(d: OrientedDiagram) -> tuple[RigorousPath, ...]:
    """Oracle enumerator: collect all simple oriented walks, filter afterwards.

    Walks are grown with no turning rule at all; the forbidden-fragment test
    runs as a separate postfilter over the finished walks.
    """
    diagram = d.diagram
    end_wire = d.up_count + 1
    walks: list[tuple[tuple[int, bool], ...]] = []
    events: list[tuple[int, bool]] = []
    visited: set[int] = set()

    def grow(wire: int, at: int | None) -> None:
        if at is None:
            if not d.is_up(wire) and wire == end_wire:
                walks.append(tuple(events))
            return
        if at in visited:
            return
        visited.add(at)
        other = diagram.node(at).other_wire(wire)
        for switched, nxt_wire in ((False, wire), (True, other)):
            events.append((at, switched))
            grow(nxt_wire, diagram.node_on_wire_after(nxt_wire, at, downward=not d.is_up(nxt_wire)))
            events.pop()
        visited.remove(at)

    def fragment_free(evts) -> bool:
        wire = d.up_count
        for j, switched in evts:
            other = diagram.node(j).other_wire(wire)
            if switched:
                wire = other
                continue
            if d.is_up(wire) == d.is_up(other):
                if d.is_up(wire) and wire < other:
                    return False
                if not d.is_up(wire) and wire > other:
                    return False
        return True

    grow(d.up_count, diagram.first_node_on_wire(d.up_count))
    paths = [RigorousPath(d, e) for e in walks if fragment_free(e)]
    paths.sort(key=lambda p: p.node_expression)
    return tuple(paths)


def mirror(p: RigorousPath) -> RigorousPath:
    """Reflect a symplectic path in the wall and reverse the traversal.

    Sends orientation ``k`` to ``2n - k`` (so ``n`` maps to itself); applying
    it twice gives back the original path.
    """
    sd = p.diagram
    if not isinstance(sd, SympWiringDiagram):
        raise ValueError("mirror needs a path on a symplectic diagram")
    flipped = OrientedDiagram(sd, 2 * sd.n - p.k)
    events = tuple((sd.mirror_node(j), sw) for j, sw in reversed(p.events))
    return RigorousPath(flipped, events)


def is_symmetric(p: RigorousPath) -> bool:
    """Whether a wall-orientation path equals its own mirror."""
    sd = p.diagram
    if not isinstance(sd, SympWiringDiagram) or p.k != sd.n:
        raise ValueError("symmetry is defined for symplectic paths with orientation n")
    return p == mirror(p)


# -- enclosed regions -------------------------------------------------------


def enclosed_region(p: RigorousPath) -> frozenset[int]:
    """Indices of the chambers between the path and the diagram bottom.

    The even-odd rule, read off the arrangements: chamber ``j`` lies just
    below crossing ``j``, between positions ``c_j`` and ``c_j + 1``.  A leg
    of the path along one wire from stop ``a`` to stop ``b`` (the bottom
    counting as ``l + 1``) passes the levels ``min(a, b) <= j < max(a, b)``,
    and a ray from chamber ``j`` to the right meets it when the wire sits
    right of the chamber there.  The chamber is enclosed when an odd number
    of legs meet that ray.

    Kept in the diagram's ``regions`` memo, keyed by start wire and events,
    so it is freed with the diagram.
    """
    diagram = p.diagram
    key = (p.k, p.events)
    if key not in diagram.regions:
        bottom = diagram.length + 1
        inside: set[int] = set()
        for wire, frm, to in p.stops():
            lo, hi = sorted(bottom if s == "bottom" else s for s in (frm, to))
            for j in range(lo, hi):
                if diagram.arrangements[j].index(wire) >= diagram.node(j).column:
                    inside ^= {j}
        diagram.regions[key] = frozenset(inside)
    return diagram.regions[key]


# -- extensions -------------------------------------------------------------


def extension(p: RigorousPath) -> RigorousPath:
    """The path of ``p``'s orientation with the largest region inside the union.

    The union is region(p) | region(mirror(p)).  Among the paths of the same
    orientation whose regions lie inside it, exactly one region contains all
    the others; that path is the extension.  For orientation ``n`` it is the
    symmetric path filling the whole union.  A path whose region already is
    the union (every symmetric path) comes back unchanged, and the operation
    is idempotent.  Raises ``ValueError`` when there is not exactly one
    maximal path.
    """
    sd = p.diagram
    if not isinstance(sd, SympWiringDiagram) or p.k > sd.n:
        raise ValueError("extension applies to symplectic paths with orientation <= n")
    own = enclosed_region(p)
    union = own | enclosed_region(mirror(p))
    if own == union:
        return p
    inside = [(q, r) for q in enumerate_paths(p.oriented) if (r := enclosed_region(q)) <= union]
    covered = frozenset().union(*[r for _, r in inside])  # a maximal path's region
    best = [q for q, r in inside if r == covered]
    if len(best) != 1:
        raise ValueError(f"expected one maximal path inside the union, found {len(best)}")
    return best[0]


# -- canonical paths ----------------------------------------------------------


def _staircase_crossing(p: RigorousPath) -> tuple[int, int] | None:
    """The crossing ``(j, 2n)`` where ``p`` peaks, when ``p`` is a
    single-peaked staircase path of the lifted diagram; None otherwise.

    Such a path has one rising switch, onto wire 2n, and meets no downward
    wire before it.  A switch from an upward wire onto a downward one always
    rises, so the rising switch is the path's only peak, and every other
    switch moves to a lower wire.
    """
    rises = [(j, frm, to) for j, frm, to in p.switch_pairs if to > frm]
    if len(rises) != 1 or rises[0][2] != 2 * p.diagram.n:
        return None
    peak, j, top = rises[0]
    before = p.events[: p.events.index((peak, True))]
    if any(max(p.diagram.node(v).wires) > p.k for v, _ in before):
        return None
    return (j, top)


def canonical_paths(sd: SympWiringDiagram) -> tuple[RigorousPath, ...]:
    """The canonical symplectic rigorous paths, one per node on the last barred wire.

    Each arises from a single-peaked staircase path of the lifted diagram:
    mirror it into an orientation at most ``n``, then extend.  One pass over
    the orientations ``1..2n-1`` buckets the staircase paths by their peak
    crossing; each crossing ``(j, 2n)`` must hold exactly one.  For rank at
    least 3 the canonical paths are pairwise distinct and there are exactly
    ``2n - 1``.
    """
    top = 2 * sd.n
    by_crossing: dict[tuple[int, int], list[RigorousPath]] = {}
    for u in range(1, top):
        for p in enumerate_paths(OrientedDiagram(sd, u)):
            crossing = _staircase_crossing(p)
            if crossing is not None:
                by_crossing.setdefault(crossing, []).append(p)
    unique: list[RigorousPath] = []
    for j in range(1, top):
        found = by_crossing.get((j, top), [])
        if len(found) != 1:
            raise ValueError(
                f"expected one canonical lifted path peaking at wires ({j}, {top}), found {len(found)}"
            )
        p = found[0] if found[0].k <= sd.n else mirror(found[0])
        e = extension(p)
        if e not in unique:
            unique.append(e)
    if sd.n >= 3 and len(unique) != 2 * sd.n - 1:
        raise ValueError(f"expected {2 * sd.n - 1} canonical paths, found {len(unique)}")
    return tuple(unique)


def is_new(p: RigorousPath) -> bool:
    """Whether the path uses the outermost wire pair, so does not descend from
    the contracted word's diagram."""
    sd = p.diagram
    if not isinstance(sd, SympWiringDiagram):
        raise ValueError("is_new expects a symplectic path")
    if sd.n < 3:
        raise ValueError("newness is relative to a contraction, which needs rank >= 3")
    return 1 in p.wire_seq or 2 * sd.n in p.wire_seq

