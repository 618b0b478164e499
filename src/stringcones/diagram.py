"""Wiring diagrams for reduced words, their symplectic folds, and chambers.

A reduced word ``(c_1, ..., c_l)`` in type A with ``m`` wires draws as ``m``
vertical wires crossing once per letter: the ``j``-th crossing (counted from
the top) swaps the wires at positions ``c_j`` and ``c_j + 1``.  Wire ``k``
starts at top position ``k`` and ends at bottom position ``m + 1 - k``; its
endpoints are labelled ``U_k`` (top) and ``L_k`` (bottom).

``arrangements[j]`` lists the wires by position just below crossing ``j``
(``arrangements[0]`` is the top); `paths.enclosed_region` reads the
chambers a path encloses off them.  Integer drawing coordinates serve
only the SVG output: position ``p`` sits at ``x = 2p - 1``; the crossing of
letter ``j`` occupies the slab ``y in [2(l-j), 2(l-j) + 2]`` with its
centre at ``(2 c_j, 2(l-j) + 1)``.

A type-B/C word of rank ``n`` folds out to its lifted type-A word on ``2n``
wires, and its symplectic wiring diagram is that word's wiring diagram
(`SympWiringDiagram` subclasses `WiringDiagram`), mirror symmetric about
the wall, the vertical line between positions ``n`` and ``n + 1``.  What
it adds is names: wires ``n+1, ..., 2n`` are displayed as the barred wires
``nb, ..., 1b``, and the two crossings produced by a letter ``x != n`` of
the underlying word carry twin labels, ``tbar_j`` in column ``x`` and
``t_j`` in column ``2n - x``; a letter ``n`` yields the single wall node
``t_j``.  `weyl.lift` writes that layout, and the diagram reads it back
once, off its lifted columns, into one twin table (``twins``), which its
labels, its mirror (`mirror_node`) and the fold maps of `cones` read.
Every diagram names its wires (`wire_name`) and crossings (`label_str`),
so the path and drawing code reads one type.
"""

from __future__ import annotations

from functools import cached_property

from ._linalg import Value
from .weyl import ReducedWord, lift

__all__ = [
    "Node",
    "WiringDiagram",
    "SympWiringDiagram",
    "OrientedDiagram",
    "build_diagram",
    "build_symp_diagram",
    "orient",
    "chamber_structure",
]


class Node(Value):
    """One crossing: ``index`` counts from the top, ``column`` is the swap gap."""

    # left_above, right_above: the wires at positions `column`, `column + 1` just above
    _fields = ("index", "column", "left_above", "right_above")

    @property
    def wires(self) -> tuple[int, int]:
        a, b = self.left_above, self.right_above
        return (a, b) if a < b else (b, a)

    def other_wire(self, wire: int) -> int:
        if wire == self.left_above:
            return self.right_above
        if wire == self.right_above:
            return self.left_above
        raise ValueError(f"wire {wire} does not pass through node {self.index}")


class WiringDiagram:
    """The wiring diagram of a type-A reduced word.

    Hashable by identity; all contents are immutable after construction,
    except two memos, which a symplectic diagram keeps alike: ``paths``,
    the sorted event tuples of the rigorous paths of each orientation,
    keyed by up count, which `paths.enumerate_paths` fills, and
    ``regions``, which `paths.enclosed_region` fills.
    """

    def __init__(self, word: ReducedWord):
        if word.lie_type.family != "A":
            raise ValueError("WiringDiagram expects a type-A word; fold B/C words first")
        self.word = word
        self.m = word.rank + 1
        self.length = len(word.letters)

        nodes: list[Node] = []
        arr = list(range(1, self.m + 1))
        arrangements = [tuple(arr)]
        for j, c in enumerate(word.letters, start=1):
            nodes.append(Node(j, c, arr[c - 1], arr[c]))
            arr[c - 1], arr[c] = arr[c], arr[c - 1]
            arrangements.append(tuple(arr))
        self.nodes = tuple(nodes)
        self.arrangements = tuple(arrangements)

        per_wire: dict[int, list[int]] = {w: [] for w in range(1, self.m + 1)}
        for nd in nodes:
            per_wire[nd.left_above].append(nd.index)
            per_wire[nd.right_above].append(nd.index)
        self.wire_nodes = {w: tuple(v) for w, v in per_wire.items()}
        # event tuples of the rigorous paths of each orientation, by up count
        self.paths: dict[int, tuple[tuple[tuple[int, bool], ...], ...]] = {}
        # enclosed chambers of the paths on this diagram, by (start wire, events)
        self.regions: dict[tuple, frozenset[int]] = {}

    # -- basic lookups ----------------------------------------------------

    def node(self, j: int) -> Node:
        return self.nodes[j - 1]

    def node_on_wire_after(self, wire: int, j: int, downward: bool) -> int | None:
        """The next node on ``wire`` below (or above) node ``j``; None at the end."""
        seq = self.wire_nodes[wire]
        k = seq.index(j)
        if downward:
            return seq[k + 1] if k + 1 < len(seq) else None
        return seq[k - 1] if k > 0 else None

    def first_node_on_wire(self, wire: int) -> int:
        """The lowest node on ``wire``, the first one a path up from the bottom meets."""
        return self.wire_nodes[wire][-1]

    # -- names --------------------------------------------------------------

    def wire_name(self, wire: int) -> str:
        return str(wire)

    def label_str(self, j: int) -> str:
        return f"a{j}"

    # -- drawing coordinates ----------------------------------------------

    def node_center(self, j: int) -> tuple[int, int]:
        nd = self.node(j)
        return (2 * nd.column, 2 * (self.length - j) + 1)

    @cached_property
    def wire_polylines(self) -> dict[int, tuple[tuple[int, int], ...]]:
        """Drawn course of each wire, top to bottom, including crossing centres."""
        top = 2 * self.length + 1
        out: dict[int, tuple[tuple[int, int], ...]] = {}
        for w in range(1, self.m + 1):
            x = 2 * w - 1
            pts: list[tuple[int, int]] = [(x, top)]
            pos = w
            for j in self.wire_nodes[w]:
                nd = self.node(j)
                y_top = 2 * (self.length - j) + 2
                pts.append((x, y_top))
                pts.append(self.node_center(j))
                pos = nd.column + 1 if pos == nd.column else nd.column
                x = 2 * pos - 1
                pts.append((x, y_top - 2))
            pts.append((x, -1))
            deduped = [pts[0]]
            for p in pts[1:]:  # adjacent crossings make zero-length corners
                if p != deduped[-1]:
                    deduped.append(p)
            out[w] = tuple(deduped)
        return out

    def wire_slice(self, wire: int, frm, to) -> tuple[tuple[int, int], ...]:
        """Polyline along ``wire`` between node indices or 'bottom'."""
        pts = self.wire_polylines[wire]
        a, b = (len(pts) - 1 if s == "bottom" else pts.index(self.node_center(s))
                for s in (frm, to))
        if a <= b:
            return pts[a : b + 1]
        return tuple(reversed(pts[b : a + 1]))

    def __repr__(self) -> str:
        return f"WiringDiagram({self.word})"


def chamber_structure(d: WiringDiagram) -> tuple[tuple[int, ...], ...]:
    """Chambers of a wiring diagram: the chamber-variable change of basis.

    Chamber ``j`` is the region directly below node ``a_j``.  Its boundary
    nodes in the same column as ``a_j`` are ``a_j`` itself plus the next
    crossing straight below, when there is one; the others lie one column
    off, above that crossing.  Row ``j - 1`` expresses the chamber variable
    ``u_j`` in the crossing coordinates: +1 on the same-column boundary
    nodes, -1 on the others.
    """
    length = d.length
    columns = [nd.column for nd in d.nodes]
    rows: list[tuple[int, ...]] = []
    for j in range(1, length + 1):
        c = columns[j - 1]
        row = [0] * length
        row[j - 1] = 1
        for k in range(j + 1, length + 1):  # down to the next crossing in column c
            if columns[k - 1] == c:
                row[k - 1] = 1
                break
            if abs(columns[k - 1] - c) == 1:
                row[k - 1] = -1
        rows.append(tuple(row))
    return tuple(rows)


class SympWiringDiagram(WiringDiagram):
    """The mirror-symmetric wiring diagram of a folded type-B/C word.

    It is the wiring diagram of the lifted type-A word, with ``word`` the
    type-B/C word itself; the extra structure is the wall, barred wire
    names, and ``twins``: per crossing ``a`` the triple ``(kind, j, twin)``
    naming it tbar_j (twin ``a + 1``) or t_j (twin ``a - 1``, or ``a`` itself
    on the wall) after the letter ``j`` of the underlying word.  Labels,
    mirrors and the fold maps all read it.
    """

    def __init__(self, word: ReducedWord):
        if not word.lie_type.is_doubled:
            raise ValueError("SympWiringDiagram expects a type-B or type-C word")
        super().__init__(lift(word))
        self.word = word
        self.n = n = word.rank

        # `lift` writes a letter x < n as the columns x, 2n - x
        twins: list[tuple[str, int, int]] = []
        j = 0
        for a, nd in enumerate(self.nodes, start=1):
            j += nd.column <= n  # the first crossing of a letter: tbar_j, or t_j on the wall
            twins.append(("tbar", j, a + 1) if nd.column < n else ("t", j, a - 1 if nd.column > n else a))
        self.twins = tuple(twins)
        self.wall_nodes = frozenset(a for a, (_, _, twin) in enumerate(twins, start=1) if twin == a)

    @property
    def base(self) -> SympWiringDiagram:
        """The diagram itself, an alias that only the benchmark harness reads
        (``sd.base.nodes``); the next change to the benchmark deletes it."""
        return self

    # -- labels -------------------------------------------------------------

    def label(self, a_index: int) -> tuple[str, int]:
        return self.twins[a_index - 1][:2]

    def label_str(self, a_index: int) -> str:
        kind, j = self.label(a_index)
        return f"{kind}{j}"

    def mirror_node(self, a_index: int) -> int:
        return self.twins[a_index - 1][2]

    def wire_name(self, wire: int) -> str:
        if wire <= self.n:
            return str(wire)
        return f"{2 * self.n + 1 - wire}b"

    def __repr__(self) -> str:
        return f"SympWiringDiagram({self.word.lie_type}, {self.word})"


class OrientedDiagram(Value):
    """A (symplectic) wiring diagram with the first ``up_count`` wires upward.

    ``up_count`` always refers to unbarred type-A wire indices; for a
    symplectic diagram with orientation ``k`` it equals ``k``, and for the
    barred orientation ``kb`` it equals ``2n + 1 - k``.
    """

    _fields = ("diagram", "up_count")

    def is_up(self, wire: int) -> bool:
        return wire <= self.up_count


def build_diagram(w: ReducedWord) -> WiringDiagram:
    return WiringDiagram(w)


def build_symp_diagram(w: ReducedWord) -> SympWiringDiagram:
    return SympWiringDiagram(w)


def orient(d: WiringDiagram, k: int) -> OrientedDiagram:
    """Orient a diagram: wires 1..k upward, with k at most n on a symplectic
    diagram (the mirrors give the others)."""
    top = d.n if isinstance(d, SympWiringDiagram) else d.m - 1
    if not 1 <= k <= top:
        raise ValueError(f"orientation index {k} out of range 1..{top}")
    return OrientedDiagram(d, k)
