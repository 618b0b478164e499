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
usage errors and on unreadable or malformed input files.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import polyhedra, polytopes
from .cones import facet_count, irredundant_facets, string_cone
from .diagram import (
    SympWiringDiagram,
    WiringDiagram,
    build_diagram,
    build_symp_diagram,
    orient,
)
from .paths import RigorousPath, enumerate_paths, path_json, symp_paths
from .verify import paper_checks
from .weyl import LieType, ReducedWord, Weight, enumerate_reduced_words

__all__ = ["CommandResult", "run", "render_svg", "main"]


@dataclass
class CommandResult:
    command: str
    payload: dict
    table: str
    status: int


def _rows_json(h: polyhedra.HRep) -> list:
    return [[*c, _frac_json(b)] for c, b in h.rows]


def _frac_json(x):
    f = Fraction(x)
    return f.numerator if f.denominator == 1 else [f.numerator, f.denominator]


def _load_polytope(source: str) -> polyhedra.HRep:
    try:
        if source == "-":
            text = sys.stdin.read()
        else:
            with open(source) as fh:
                text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {source}: {exc.strerror or exc}") from exc
    data = json.loads(text)
    if not (
        isinstance(data, dict)
        and isinstance(data.get("dim"), int)
        and data["dim"] >= 0
        and isinstance(data.get("rows"), list)
    ):
        raise ValueError(f"{source}: expected an object with a 'dim' >= 0 and a list 'rows'")
    rows = []
    try:
        for row in data["rows"]:
            *coeffs, rhs = row
            if isinstance(rhs, list):
                rhs = Fraction(rhs[0], rhs[1])
            rows.append((tuple(coeffs), Fraction(rhs)))
        return polyhedra.HRep(data["dim"], tuple(rows))
    except (TypeError, IndexError, ZeroDivisionError) as exc:
        raise ValueError(f"{source}: malformed row: {exc}") from exc


# ---------------------------------------------------------------------------
# SVG rendering
# ---------------------------------------------------------------------------

_SCALE = 22
_HIGHLIGHT_COLORS = ("#d62728", "#1f77b4", "#2ca02c", "#9467bd")


def render_svg(d: WiringDiagram | SympWiringDiagram, highlights=()) -> str:
    """Deterministic SVG picture: wires, labelled nodes, wall, highlighted paths."""
    base = d.base if isinstance(d, SympWiringDiagram) else d
    top = 2 * base.length + 1
    width = (2 * base.m + 2) * _SCALE
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
    for w in range(1, base.m + 1):
        pts = " ".join(pt(x, y) for x, y in base.wire_polyline(w))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="black" stroke-width="1.3"/>'
        )
        name = d.wire_name(w) if isinstance(d, SympWiringDiagram) else str(w)
        x_top, _ = base.wire_polyline(w)[0]
        x_bot, _ = base.wire_polyline(w)[-1]
        parts.append(
            f'<text x="{(x_top + 1) * _SCALE}" y="{_SCALE - 6}" font-size="11" '
            f'text-anchor="middle">U{name}</text>'
        )
        parts.append(
            f'<text x="{(x_bot + 1) * _SCALE}" y="{height - 4}" font-size="11" '
            f'text-anchor="middle">L{name}</text>'
        )
    for color, p in zip(_HIGHLIGHT_COLORS, highlights):
        pts = " ".join(pt(x, y) for x, y in p.polyline())
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            'stroke-width="4" stroke-opacity="0.55" stroke-linecap="round"/>'
        )
    for nd in base.nodes:
        x, y = base.node_center(nd.index)
        label = (
            d.label_str(nd.index) if isinstance(d, SympWiringDiagram) else f"a{nd.index}"
        )
        sx, sy = (x + 1) * _SCALE, (top + 1 - y) * _SCALE
        parts.append(f'<circle cx="{sx}" cy="{sy}" r="2.2" fill="black"/>')
        parts.append(
            f'<text x="{sx + 4}" y="{sy - 4}" font-size="10" fill="#444">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _find_path(d, names: list[str]) -> RigorousPath:
    if isinstance(d, SympWiringDiagram):
        ks = range(1, d.n + 1)
        wanted = tuple(names)
        for k in ks:
            for p in symp_paths(d, k):
                if p.wires_by_name() == wanted:
                    return p
    else:
        wanted = tuple(names)
        for k in range(1, d.m):
            for p in enumerate_paths(orient(d, k)):
                if p.wires_by_name() == wanted:
                    return p
    raise ValueError(f"no rigorous path with wire expression {' -> '.join(names)}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _parse_word(type_text: str, word_text: str) -> ReducedWord:
    """Accept either a full type like ``C2`` or a bare family letter, whose
    rank is then read off the word's largest letter."""
    letters = tuple(int(x) for x in word_text.replace(" ", "").split(",") if x)
    text = type_text.strip().upper()
    t = LieType.parse(text) if len(text) > 1 else LieType(text, max(letters))
    return ReducedWord(t, letters)


def _cmd_words(args) -> CommandResult:
    t = LieType.parse(args.type)
    words = [str(w) for w in enumerate_reduced_words(t, cap=args.cap)]
    table = "\n".join(words)
    return CommandResult("words", {"type": str(t), "count": len(words), "words": words}, table, 0)


def _cmd_paths(args) -> CommandResult:
    w = _parse_word(args.type, args.word)
    if w.lie_type.is_doubled:
        d = build_symp_diagram(w)
        ks = [args.k] if args.k else list(range(1, d.n + 1))
        paths = [p for k in ks for p in symp_paths(d, k)]
    else:
        d = build_diagram(w)
        ks = [args.k] if args.k else list(range(1, d.m))
        paths = [p for k in ks for p in enumerate_paths(orient(d, k))]
    payload = {"type": str(w.lie_type), "word": str(w), "paths": [path_json(p) for p in paths]}
    lines = [
        f"k={p.oriented.k_display}:  {str(p)}   nodes {list(p.node_expression)}"
        for p in paths
    ]
    return CommandResult("paths", payload, "\n".join(lines), 0)


def _cmd_cone(args) -> CommandResult:
    w = _parse_word(args.type, args.word)
    t = w.lie_type
    if args.irredundant:
        cone, count = irredundant_facets(t, w)
        simplicial = count == cone.dim
        payload = {
            "type": str(t),
            "word": str(w),
            "constraints": [list(f.coeffs) for f in cone.forms],
            "facets": [f.pretty() for f in cone.forms],
            "facet_count": count,
            "simplicial": simplicial,
        }
        lines = [f"{count} facets:"] + [f"  {f.pretty()} >= 0" for f in cone.forms]
        return CommandResult("cone", payload, "\n".join(lines), 0)
    cone = string_cone(t, w)
    payload = {
        "type": str(t),
        "word": str(w),
        "constraints": [list(f.coeffs) for f in cone.forms],
        "inequalities": [f.pretty() for f in cone.forms],
    }
    lines = [f"{len(cone.forms)} path inequalities:"] + [
        f"  {f.pretty()} >= 0   ({p})" for f, ps in zip(cone.forms, cone.paths) for p in ps
    ]
    return CommandResult("cone", payload, "\n".join(lines), 0)


def _full_polytope_payload(h: polyhedra.HRep) -> dict:
    vrep = polyhedra.to_vrep(h, bounded_expected=True)
    integral, _ = polyhedra.integrality(h)
    return {
        "vrep": {
            "vertices": [[_frac_json(x) for x in v] for v in vrep.vertices],
            "rays": [list(r) for r in vrep.rays],
        },
        "fvector": list(polyhedra.f_vector(h)),
        "integral": integral,
    }


def _cmd_polytope(args) -> CommandResult:
    w = _parse_word(args.type, args.word)
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
    return CommandResult("polytope", payload, "\n".join(lines), 0)


def _cmd_gt(args) -> CommandResult:
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
    return CommandResult("gt", payload, "\n".join(lines), 0)


def _cmd_fvector(args) -> CommandResult:
    h = _load_polytope(args.source)
    fv = polyhedra.f_vector(h)
    payload = {"fvector": list(fv)}
    return CommandResult("fvector", payload, f"f-vector: {tuple(fv)}", 0)


def _cmd_equiv(args) -> CommandResult:
    a = _load_polytope(args.source_a)
    b = _load_polytope(args.source_b)
    res = polyhedra.search_unimodular_equivalence(a, b, budget=args.budget)
    payload = {
        "status": res.status,
        "witness": res.witness,
        "matrix": [list(r) for r in res.matrix] if res.matrix else None,
        "shift": list(res.shift) if res.shift else None,
    }
    if res.status == "equivalent":
        table = f"equivalent\nmatrix: {res.matrix}\nshift: {res.shift}"
    else:
        table = f"{res.status}: {res.witness}"
    return CommandResult("equiv", payload, table, 0)


def _cmd_render(args) -> CommandResult:
    w = _parse_word(args.type, args.word)
    d = build_symp_diagram(w) if w.lie_type.is_doubled else build_diagram(w)
    highlights = []
    if args.highlight:
        names = [x.strip() for x in args.highlight.split(",")]
        highlights.append(_find_path(d, names))
    svg = render_svg(d, highlights)
    with open(args.output, "w") as fh:
        fh.write(svg)
    return CommandResult(
        "render", {"output": args.output, "bytes": len(svg)}, f"wrote {args.output}", 0
    )


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
    return CommandResult("verify-paper", payload, "\n".join(lines), 0 if failures == 0 else 1)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="stringcones", description=__doc__.splitlines()[0])
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON instead of tables")
    base_sub = ap.add_subparsers(dest="command", required=True)

    class _Sub:
        def add_parser(self, name, **kwargs):
            kwargs.setdefault("parents", [common])
            return base_sub.add_parser(name, **kwargs)

    sub = _Sub()

    p = sub.add_parser("words", help="enumerate reduced words of the longest element")
    p.add_argument("type")
    p.add_argument("--cap", type=int, default=10_000_000)
    p.set_defaults(func=_cmd_words)

    p = sub.add_parser("paths", help="enumerate rigorous paths")
    p.add_argument("type")
    p.add_argument("word")
    p.add_argument("--k", type=int, default=None)
    p.set_defaults(func=_cmd_paths)

    p = sub.add_parser("cone", help="string cone inequalities")
    p.add_argument("type")
    p.add_argument("word")
    p.add_argument("--irredundant", action="store_true")
    p.set_defaults(func=_cmd_cone)

    p = sub.add_parser("polytope", help="string polytope rows")
    p.add_argument("type")
    p.add_argument("word")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--full", action="store_true", help="also compute vertices, f-vector, integrality")
    p.set_defaults(func=_cmd_polytope)

    p = sub.add_parser("gt", help="symplectic Gelfand-Tsetlin polytope")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--full", action="store_true", help="also compute vertices, f-vector, integrality")
    p.set_defaults(func=_cmd_gt)

    p = sub.add_parser("fvector", help="f-vector of a polytope JSON file")
    p.add_argument("source")
    p.set_defaults(func=_cmd_fvector)

    p = sub.add_parser("equiv", help="unimodular equivalence of two polytope JSON files")
    p.add_argument("source_a")
    p.add_argument("source_b")
    p.add_argument("--budget", type=int, default=100_000)
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("render", help="render a wiring diagram as SVG")
    p.add_argument("type")
    p.add_argument("word")
    p.add_argument("--highlight", default=None, help="wire expression like 2,1b,2b")
    p.add_argument("-o", "--output", default="diagram.svg")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("verify-paper", help="run the verification battery")
    p.add_argument("--n", type=int, choices=(2, 3), default=2)
    p.set_defaults(func=_cmd_verify)
    return ap


def run(argv) -> CommandResult:
    """Execute one CLI invocation; returns the result instead of printing."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed its message
        return CommandResult("usage", {}, "", 2 if exc.code not in (0, None) else 0)
    try:
        return args.func(args)
    except (ValueError, polyhedra.PolyhedralError) as exc:
        return CommandResult(args.command, {"error": str(exc)}, f"error: {exc}", 2)


def main() -> None:
    argv = sys.argv[1:]
    result = run(argv)
    if result.command == "usage":
        sys.exit(result.status)
    if "--json" in argv:
        print(json.dumps(result.payload, indent=2))
    elif result.table:
        print(result.table)
    sys.exit(result.status)


if __name__ == "__main__":
    main()
