"""Command-line interface: compute, render, verify.

Subcommands

    words <type>                          reduced words of the longest element
    paths <type> <word> [--k K]           rigorous paths (per orientation)
    cone <type> <word> [--irredundant]    string inequalities / facets
    polytope <type> <word> --lambda L     string polytope rows
    gt --n N --lambda L                   symplectic Gelfand-Tsetlin polytope
    fvector <source.json>                 f-vector of a saved polytope
    equiv <a.json> <b.json>               unimodular equivalence verdict
    render <type> <word> [-o out.svg]     SVG picture of the wiring diagram
    verify-paper [--n 2|3]                the verification battery

Words are comma-separated letters; weights are comma-separated fundamental
coefficients or the literal ``rho`` / ``0``.  ``--json`` switches any
subcommand to a machine-readable payload on stdout.  Exit status: 0 on
success (all checks green for verify-paper), 1 on a failed check, 2 on
usage errors, on unreadable or malformed input files, on a word list
over its ``--cap`` (refused before any word is built), and on a ``gt``
rank over `GT_MAX_RANK` (refused before any weight or row is built).

The module owns the presentation: the JSON payloads and the SVG geometry.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import partial

from . import polyhedra, polytopes
from ._linalg import Value
from .cones import irredundant_facets, rigorous_paths, string_cone
from .diagram import SympWiringDiagram, WiringDiagram, build_diagram, build_symp_diagram
from .paths import RigorousPath, is_symmetric
from .verify import paper_checks
from .weyl import (
    DEFAULT_WORD_CAP,
    EnumerationCapExceeded,
    LieType,
    ReducedWord,
    Weight,
    enumerate_reduced_words,
)

__all__ = ["CommandResult", "run", "render_svg", "main"]

# The largest rank `gt` builds: its rows grow as n^4, and rank 4 is already
# past what vertices and f-vectors can handle.
GT_MAX_RANK = 8


class CommandResult(Value):
    _fields = ("payload", "table", "status")


def _rows_json(h: polyhedra.HRep) -> list:
    return [[*c, b] for c, b in h.rows]


def _frac_json(x):
    f = Fraction(x)
    return f.numerator if f.denominator == 1 else [f.numerator, f.denominator]


def _not_an_integer(text: str):
    """JSON hook for non-integer numbers (``0.1``, ``Infinity``, ``NaN``,
    ``1e999``): every one is refused."""
    raise ValueError(f"number {text} in polytope JSON is not an integer")


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _load_polytope(source: str) -> polyhedra.HRep:
    """The `HRep` of a JSON object ``{"dim": d, "rows": [[c_1, ..., c_d, b], ...]}``
    read from a file or ``-`` (stdin): each ``c_k`` an integer, each ``b`` an
    integer or a ``[num, den]`` pair of integers with ``den != 0``, whose row
    is scaled by the positive denominator of ``num / den`` to an integer row.
    No rows in a dimension d > 0 are all of R^d, refused before any `HRep`
    is built."""
    try:
        if source == "-":
            text = sys.stdin.read()
        else:
            with open(source) as fh:
                text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {source}: {exc.strerror or exc}") from exc
    try:
        data = json.loads(text, parse_float=_not_an_integer, parse_constant=_not_an_integer)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{source}: not JSON: {exc}") from exc
    except ValueError as exc:  # a number `_not_an_integer` refuses
        raise ValueError(f"{source}: {exc}") from exc
    if not (
        isinstance(data, dict)
        and _is_int(data.get("dim"))
        and data["dim"] >= 0
        and isinstance(data.get("rows"), list)
    ):
        raise ValueError(f"{source}: expected an object with a 'dim' >= 0 and a list 'rows'")
    if data["dim"] and not data["rows"]:
        raise ValueError(f"{source}: no rows in dimension {data['dim']}: the set is all of R^{data['dim']}")
    rows = []
    for row in data["rows"]:
        if not (isinstance(row, list) and row):  # a string would unpack character by character
            raise ValueError(f"{source}: row {row!r} is not a non-empty list")
        *coeffs, rhs = row
        for x in coeffs:  # a loop, not next(..., None): a JSON null coefficient is None
            if not _is_int(x):
                raise ValueError(f"{source}: coefficient {x!r} of row {row!r} is not an integer")
        if isinstance(rhs, list) and len(rhs) == 2 and all(map(_is_int, rhs)) and rhs[1]:
            q = Fraction(*rhs)
            coeffs, rhs = [c * q.denominator for c in coeffs], q.numerator
        elif not _is_int(rhs):
            raise ValueError(
                f"{source}: right-hand side {rhs!r} of row {row!r} is not an integer"
                " or a [num, den] pair of integers with den != 0"
            )
        rows.append((tuple(coeffs), rhs))
    return polyhedra.HRep(data["dim"], tuple(rows))


def _path_json(p: RigorousPath) -> dict:
    sd = p.diagram
    payload = {
        "k": sd.wire_name(p.k),
        "wires": list(p.wires_by_name()),
        "nodes": list(p.node_expression),
        "peaks": list(p.peaks),
    }
    if isinstance(sd, SympWiringDiagram):
        payload["node_labels"] = [sd.label_str(j) for j in p.node_expression]
        if p.k == sd.n:
            payload["symmetric"] = is_symmetric(p)
    return payload


# ---------------------------------------------------------------------------
# SVG rendering: position ``p`` sits at ``x = 2p - 1``, and the crossing of
# letter ``j`` fills ``y in [2(l-j), 2(l-j) + 2]``, centred at ``(2 c_j, 2(l-j) + 1)``.
# ---------------------------------------------------------------------------

_SCALE = 22
_HIGHLIGHT_COLORS = ("#d62728", "#1f77b4", "#2ca02c", "#9467bd")


def _courses(d: WiringDiagram) -> dict[int, tuple[list, dict]]:
    """Each wire's drawn course, top to bottom through its crossing centres,
    with the index in it of each centre, by crossing."""
    out = {}
    for w in range(1, d.m + 1):
        x = 2 * w - 1
        pts, at = [(x, 2 * d.length + 1)], {}
        for j in d.wire_nodes[w]:
            c, y = d.node(j).column, 2 * (d.length - j) + 1
            if pts[-1] != (x, y + 1):  # adjacent crossings share a corner
                pts.append((x, y + 1))
            at[j] = len(pts)
            pts.append((2 * c, y))
            x = 4 * c - x  # the wire leaves on the other side of the centre
            pts.append((x, y - 1))
        pts.append((x, -1))
        out[w] = (pts, at)
    return out


def _path_course(p: RigorousPath, courses) -> list:
    """A path's drawn course: its legs (`RigorousPath.stops`) along the wires."""
    out: list = []
    for wire, frm, to in p.stops():
        pts, at = courses[wire]
        a, b = (len(pts) - 1 if s == "bottom" else at[s] for s in (frm, to))
        leg = pts[a : b + 1] if a <= b else pts[b : a + 1][::-1]
        out.extend(leg[1:] if out else leg)
    return out


def render_svg(d: WiringDiagram, highlights=()) -> str:
    """Deterministic SVG picture: wires, labelled nodes, wall, highlighted paths."""
    top = 2 * d.length + 1
    width = (2 * d.m + 2) * _SCALE
    height = (top + 4) * _SCALE

    def pt(x, y) -> str:
        return f"{(x + 1) * _SCALE},{(top + 1 - y) * _SCALE}"

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if isinstance(d, SympWiringDiagram):
        x_wall = 2 * d.n
        parts.append(
            f'<line x1="{(x_wall + 1) * _SCALE}" y1="{_SCALE // 2}" '
            f'x2="{(x_wall + 1) * _SCALE}" y2="{height - _SCALE // 2}" '
            'stroke="#2aa37a" stroke-dasharray="6,5" stroke-width="1"/>'
        )
    courses = _courses(d)
    for w in range(1, d.m + 1):
        line = courses[w][0]
        pts = " ".join(pt(x, y) for x, y in line)
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="black" stroke-width="1.3"/>'
        )
        name = d.wire_name(w)
        x_top, x_bot = line[0][0], line[-1][0]
        parts.append(
            f'<text x="{(x_top + 1) * _SCALE}" y="{_SCALE - 6}" font-size="11" '
            f'text-anchor="middle">U{name}</text>'
        )
        parts.append(
            f'<text x="{(x_bot + 1) * _SCALE}" y="{height - 4}" font-size="11" '
            f'text-anchor="middle">L{name}</text>'
        )
    for color, p in zip(_HIGHLIGHT_COLORS, highlights):
        pts = " ".join(pt(x, y) for x, y in _path_course(p, courses))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            'stroke-width="4" stroke-opacity="0.55" stroke-linecap="round"/>'
        )
    for nd in d.nodes:
        x, y = 2 * nd.column, 2 * (d.length - nd.index) + 1  # the crossing's centre
        label = d.label_str(nd.index)
        sx, sy = (x + 1) * _SCALE, (top + 1 - y) * _SCALE
        parts.append(f'<circle cx="{sx}" cy="{sy}" r="2.2" fill="black"/>')
        parts.append(
            f'<text x="{sx + 4}" y="{sy - 4}" font-size="10" fill="#444">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _find_path(w: ReducedWord, names: list[str]) -> RigorousPath:
    wanted = tuple(names)
    for p in rigorous_paths(w.lie_type, w):
        if p.wires_by_name() == wanted:
            return p
    raise ValueError(f"no rigorous path with wire expression {' -> '.join(names)}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_words(args) -> CommandResult:
    t = LieType.parse(args.type)
    words = [str(w) for w in enumerate_reduced_words(t, cap=args.cap)]
    table = "\n".join(words)
    return CommandResult({"type": str(t), "count": len(words), "words": words}, table, 0)


def _cmd_paths(args) -> CommandResult:
    w = ReducedWord.parse(args.type, args.word)
    paths = rigorous_paths(w.lie_type, w)
    if args.k is not None:  # an up count, or the wire name printed for it
        labels = {label: p.k for p in paths for label in (str(p.k), p.diagram.wire_name(p.k))}
        if args.k not in labels:
            raise ValueError(f"orientation index {args.k} out of range 1..{max(labels.values())}")
        paths = [p for p in paths if p.k == labels[args.k]]
    payload = {"type": str(w.lie_type), "word": str(w), "paths": [_path_json(p) for p in paths]}
    lines = [
        f"k={p.diagram.wire_name(p.k)}:  {str(p)}   nodes {list(p.node_expression)}"
        for p in paths
    ]
    return CommandResult(payload, "\n".join(lines), 0)


def _cmd_cone(args) -> CommandResult:
    w = ReducedWord.parse(args.type, args.word)
    t = w.lie_type
    paths = [] if args.irredundant else rigorous_paths(t, w)  # first: it fills an empty entry
    forms = irredundant_facets(t, w)[0].forms if args.irredundant else string_cone(t, w).forms
    pretty = [f.pretty() for f in forms]
    payload = {"type": str(t), "word": str(w), "constraints": [list(f.coeffs) for f in forms]}
    if args.irredundant:
        payload.update(facets=pretty, facet_count=len(pretty), simplicial=len(pretty) == len(w.letters))
        lines = [f"{len(pretty)} facets:"] + [f"  {s} >= 0" for s in pretty]
    else:  # in path order
        payload["inequalities"] = pretty
        lines = [f"{len(pretty)} path inequalities:"]
        lines += [f"  {s} >= 0   ({p})" for s, p in zip(pretty, paths, strict=True)]
    return CommandResult(payload, "\n".join(lines), 0)


def _full_polytope_payload(h: polyhedra.HRep) -> dict:
    integral, _ = polyhedra.integrality(h)  # an unbounded polytope raises here
    vrep = polyhedra.to_vrep(h)
    return {
        "vrep": {
            "vertices": [[_frac_json(x) for x in v] for v in vrep.vertices],
            "rays": [list(r) for r in vrep.rays],
        },
        "fvector": list(polyhedra.f_vector(h)),
        "integral": integral,
    }


def _cmd_polytope(args) -> CommandResult:
    w = ReducedWord.parse(args.type, args.word)
    lam = Weight.parse(w.lie_type, args.lam)
    h = polytopes.string_polytope(w, lam)
    payload = {
        "kind": "string-polytope",
        "type": str(w.lie_type),
        "word": str(w),
        "lambda": str(lam),
        "dim": h.dim,
        "rows": _rows_json(h),
    }
    if args.full:
        payload.update(_full_polytope_payload(h))
    lines = [f"dim {h.dim}, {len(h.rows)} rows (c.x <= b):"] + [
        f"  {list(c)} <= {b}" for c, b in h.rows
    ]
    return CommandResult(payload, "\n".join(lines), 0)


def _cmd_gt(args) -> CommandResult:
    if args.n > GT_MAX_RANK:
        raise ValueError(f"rank {args.n} is over the bound {GT_MAX_RANK} of the gt polytope")
    t = LieType("C", args.n)
    lam = Weight.parse(t, args.lam)
    h = polytopes.gt_polytope_C(lam, args.n)
    payload = {
        "kind": "gt-polytope",
        "n": args.n,
        "lambda": str(lam),
        "dim": h.dim,
        "coordinates": polytopes.gt_coordinate_names(args.n),
        "rows": _rows_json(h),
    }
    if args.full:
        payload.update(_full_polytope_payload(h))
    lines = [f"dim {h.dim}, {len(h.rows)} rows; coordinates:"]
    lines.append("  " + " ".join(payload["coordinates"]))
    lines += [f"  {list(c)} <= {b}" for c, b in h.rows]
    return CommandResult(payload, "\n".join(lines), 0)


def _cmd_fvector(args) -> CommandResult:
    h = _load_polytope(args.source)
    fv = polyhedra.f_vector(h)
    payload = {"fvector": list(fv)}
    return CommandResult(payload, f"f-vector: {tuple(fv)}", 0)


def _cmd_equiv(args) -> CommandResult:
    a = _load_polytope(args.source_a)
    b = _load_polytope(args.source_b)
    res = polyhedra.search_unimodular_equivalence(a, b, budget=args.budget)
    payload = {
        "status": res.status,
        "witness": res.witness,
        "decided_by": res.decided_by,
        "matrix": None if res.matrix is None else [list(r) for r in res.matrix],
        "shift": None if res.shift is None else list(res.shift),
    }
    if res.status == "equivalent":
        table = f"equivalent\nmatrix: {res.matrix}\nshift: {res.shift}"
    else:
        table = f"{res.status}: {res.witness}"
    return CommandResult(payload, table, 0)


def _cmd_render(args) -> CommandResult:
    w = ReducedWord.parse(args.type, args.word)
    d = build_symp_diagram(w) if w.lie_type.is_doubled else build_diagram(w)
    highlights = []
    if args.highlight:
        names = [x.strip() for x in args.highlight.split(",")]
        highlights.append(_find_path(w, names))
    svg = render_svg(d, highlights)
    try:
        with open(args.output, "w") as fh:
            fh.write(svg)
    except OSError as exc:
        raise ValueError(f"cannot write {args.output}: {exc.strerror or exc}") from exc
    return CommandResult({"output": args.output, "bytes": len(svg)}, f"wrote {args.output}", 0)


def _cmd_verify(args) -> CommandResult:
    checks = paper_checks(args.n)
    width = max(len(name) for name, _, _ in checks)
    lines = []
    failures = 0
    for name, ok, detail in checks:
        mark = "pass" if ok else "FAIL"
        if not ok:
            failures += 1
        suffix = f"  [{detail}]" if detail and not ok else ""
        lines.append(f"{name.ljust(width)}  {mark}{suffix}")
    lines.append("")
    lines.append(f"{len(checks) - failures}/{len(checks)} checks passed")
    payload = {
        "n": args.n,
        "checks": [{"name": n, "ok": ok, "detail": det} for n, ok, det in checks],
        "failures": failures,
    }
    return CommandResult(payload, "\n".join(lines), 0 if failures == 0 else 1)


def _nonnegative(text: str) -> int:
    """A flag value that is an integer of at least 0; argparse names the flag."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    # no option may be abbreviated: a prefix that names one option today would
    # name another, or none, once an option sharing it is added
    strict = partial(argparse.ArgumentParser, allow_abbrev=False)
    ap = strict(prog="stringcones", description=__doc__.splitlines()[0])
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON instead of tables")
    sub = ap.add_subparsers(dest="command", required=True, parser_class=strict)

    p = sub.add_parser(
        "words", parents=[common], help="enumerate reduced words of the longest element"
    )
    p.add_argument("type")
    p.add_argument("--cap", type=_nonnegative, default=DEFAULT_WORD_CAP)
    p.set_defaults(func=_cmd_words)

    p = sub.add_parser("paths", parents=[common], help="enumerate rigorous paths")
    p.add_argument("type")
    p.add_argument("word")
    p.add_argument(
        "--k", default=None, help="one orientation: 1..n, or 1..2n-1 (or 2b..nb) in type B"
    )
    p.set_defaults(func=_cmd_paths)

    p = sub.add_parser("cone", parents=[common], help="string cone inequalities")
    p.add_argument("type")
    p.add_argument("word")
    p.add_argument("--irredundant", action="store_true")
    p.set_defaults(func=_cmd_cone)

    p = sub.add_parser("polytope", parents=[common], help="string polytope rows")
    p.add_argument("type")
    p.add_argument("word")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--full", action="store_true", help="also compute vertices, f-vector, integrality")
    p.set_defaults(func=_cmd_polytope)

    p = sub.add_parser("gt", parents=[common], help="symplectic Gelfand-Tsetlin polytope")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--full", action="store_true", help="also compute vertices, f-vector, integrality")
    p.set_defaults(func=_cmd_gt)

    p = sub.add_parser("fvector", parents=[common], help="f-vector of a polytope JSON file")
    p.add_argument("source")
    p.set_defaults(func=_cmd_fvector)

    p = sub.add_parser(
        "equiv", parents=[common], help="unimodular equivalence of two polytope JSON files"
    )
    p.add_argument("source_a")
    p.add_argument("source_b")
    p.add_argument("--budget", type=_nonnegative, default=100_000)
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("render", parents=[common], help="render a wiring diagram as SVG")
    p.add_argument("type")
    p.add_argument("word")
    p.add_argument("--highlight", default=None, help="wire expression like 2,1b,2b")
    p.add_argument("-o", "--output", default="diagram.svg")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("verify-paper", parents=[common], help="run the verification battery")
    p.add_argument("--n", type=int, choices=(2, 3), default=2)
    p.set_defaults(func=_cmd_verify)
    return ap


def _execute(args: argparse.Namespace) -> CommandResult:
    """Run a parsed command; bad input gives its error with status 2."""
    try:
        return args.func(args)
    except (ValueError, EnumerationCapExceeded) as exc:
        return CommandResult({"error": str(exc)}, f"error: {exc}", 2)


def run(argv) -> CommandResult:
    """Execute one CLI invocation; returns the result instead of printing."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse already printed its message
        return CommandResult({}, "", 2 if exc.code not in (0, None) else 0)
    return _execute(args)


def main() -> None:
    args = _build_parser().parse_args()  # a usage error exits 2, `--help` 0
    result = _execute(args)
    try:
        if args.json:
            print(json.dumps(result.payload, indent=2))
        elif result.table:
            print(result.table)
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed the pipe, as `| head` does
        # send what is left unwritten to devnull, so the flush at exit is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(result.status)


if __name__ == "__main__":
    main()
