"""Span tracing of the program's layers, installed from outside the program.

`Tracer.install` replaces each layer's public functions (the plain functions
named in the module's ``__all__``) with a wrapper that records a span: layer,
function, parent span, start and end.  The wrapper is put wherever the
original object is bound in a ``stringcones`` module, so a call through a
module attribute (``polyhedra.remove_redundant``) and a call through a name
imported into another module (``remove_redundant`` inside ``polytopes``) are
both seen.  Generator functions get one span per resumption.

Spans stay in memory; `layer_metrics` derives per-layer numbers from them.
"""

from __future__ import annotations

import inspect
import sys
import time
from contextlib import contextmanager

# The polyhedral kernel is one module but several stages; every other layer
# is one module.  A public polyhedra function not listed here is counted in
# the catch-all layer "polyhedra".
POLYHEDRA_STAGES = {
    "simplex_max": "simplex",
    "feasible": "simplex",
    "remove_redundant": "redundancy",
    "irredundant_cone_rows": "redundancy",
    "to_vrep": "vrep",
    "vrep_to_hrep": "vrep",
    "integrality": "vrep",
    "face_lattice": "face_lattice",
    "f_vector": "face_lattice",
    "dilate": "lattice_points",
    "lattice_points": "lattice_points",
    "normalized_volume": "volume",
    "search_unimodular_equivalence": "equivalence",
    "verify_unimodular_map": "equivalence",
}
LAYER_MODULES = ("weyl", "diagram", "paths", "cones", "polyhedra", "polytopes")
LAYERS = (
    "weyl", "diagram", "paths", "cones", "redundancy", "simplex", "vrep",
    "face_lattice", "lattice_points", "volume", "equivalence", "polyhedra", "polytopes",
)
HARNESS = "harness"

# Work counted from a call's arguments and result, per function.
_COUNTERS = {
    "enumerate_paths": lambda a, r: {"paths_out": len(r)},
    "string_cone": lambda a, r: {"forms_out": len(r.forms)},
    "irredundant_cone_rows": lambda a, r: {"rows_in": len(a[0]), "rows_kept": len(r)},
    "remove_redundant": lambda a, r: {"rows_in": len(a[0].rows), "rows_kept": len(r.rows)},
    "to_vrep": lambda a, r: {"vertices_out": len(r.vertices) + len(r.rays)},
    "face_lattice": lambda a, r: {"faces_out": len(r.faces), "function_calls": 1},
    "lattice_points": lambda a, r: {"points_out": r},
    "search_unimodular_equivalence": lambda a, r: {"decided_by." + decided_by(r): 1},
}

DECIDING_STAGES = ("dimension", "f-vector", "integrality", "lattice-points", "volume", "search", "unknown")


def decided_by(verdict) -> str:
    """The stage that settled an equivalence verdict, read from its witness."""
    if verdict.status == "equivalent":
        return "search"
    if verdict.status != "inequivalent":
        return "unknown"
    witness = verdict.witness or ""
    for prefix, stage in (
        ("dimension", "dimension"),
        ("f-vector", "f-vector"),
        ("integrality", "integrality"),
        ("lattice points", "lattice-points"),
        ("normalized volume", "volume"),
    ):
        if witness.startswith(prefix):
            return stage
    return "search"


class Tracer:
    """Records spans ``[layer, function, parent, start, end, counts]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.polytopes: set = set()  # distinct face_lattice inputs

    def _open(self, layer: str, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, name, parent, time.perf_counter(), 0.0, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][4] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, layer: str = HARNESS):
        idx = self._open(layer, name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, layer: str, name: str):
        counter = _COUNTERS.get(name)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = tracer._open(layer, name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(idx)
                    yield item

            gen_wrapper.__wrapped__ = fn
            return gen_wrapper

        def wrapper(*args, **kwargs):
            idx = tracer._open(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if counter is not None:
                try:
                    tracer.spans[idx][5] = counter(args, result)
                    if name == "face_lattice":
                        tracer.polytopes.add(args[0])
                except (AttributeError, TypeError, IndexError):
                    pass  # a changed signature loses the count, not the call
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, program) -> None:
        """Wrap the public functions of every layer module of ``program``."""
        wrappers = {}
        for mod_name in LAYER_MODULES:
            module = getattr(program, mod_name)
            for name in module.__all__:
                fn = getattr(module, name)
                if not inspect.isfunction(fn):
                    continue
                layer = POLYHEDRA_STAGES.get(name, "polyhedra") if mod_name == "polyhedra" else mod_name
                wrappers[id(fn)] = self._wrap(fn, layer, name)
        package = program.package.__name__
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    setattr(module, attr, wrapper)

    def spans_since(self, start: int) -> list[list]:
        """The spans recorded from index ``start`` on, parents re-indexed;
        ``start`` must be the index of a root span."""
        return [[l, n, p - start if p >= start else -1, a, b, c] for l, n, p, a, b, c in self.spans[start:]]


def self_times(spans) -> list[float]:
    out = [s[4] - s[3] for s in spans]
    for s in spans:
        if s[2] >= 0:
            out[s[2]] -= s[4] - s[3]
    return out


def layer_metrics(spans, distinct_polytopes: int) -> dict[str, float]:
    """Per-layer numbers from the spans of one root span (a pass or a set-up),
    given how many distinct polytopes went into `face_lattice` in it.

    ``calls`` and ``busy_s`` count entries into a layer: spans with no
    enclosing span of the same layer.  ``self_s`` sums span
    duration minus the duration of direct children over every span of the
    layer, so the self times of all layers plus the harness add up to the
    traced pass time.
    """
    selfs = self_times(spans)
    acc: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        acc[key] = acc.get(key, 0) + value

    for i, s in enumerate(spans):
        layer = s[0]
        add(f"{layer}.self_s", selfs[i])
        p = s[2]
        while p >= 0 and spans[p][0] != layer:
            p = spans[p][2]
        if p < 0:
            add(f"{layer}.calls", 1)
            add(f"{layer}.busy_s", s[4] - s[3])
        if s[5]:
            for key, value in s[5].items():
                add(f"{layer}.{key}", value)

    out: dict[str, float] = {}
    for layer in LAYERS:
        for key in ("calls", "busy_s", "self_s"):
            out[f"{layer}.{key}"] = acc.get(f"{layer}.{key}", 0)
    for key in ("paths.paths_out", "cones.forms_out", "redundancy.rows_in", "redundancy.rows_kept",
                "vrep.vertices_out", "face_lattice.faces_out", "lattice_points.points_out"):
        out[key] = acc.get(key, 0)
    rows_in = acc.get("redundancy.rows_in", 0)
    out["redundancy.kept_ratio"] = acc.get("redundancy.rows_kept", 0) / rows_in if rows_in else 0.0
    lattice_calls = acc.get("face_lattice.function_calls", 0)
    out["face_lattice.calls_per_polytope"] = lattice_calls / distinct_polytopes if distinct_polytopes else 0.0
    for stage in DECIDING_STAGES:
        out[f"equivalence.decided_by.{stage}"] = acc.get(f"equivalence.decided_by.{stage}", 0)
    out["polytopes.build_s"] = out.pop("polytopes.busy_s")
    out["harness.self_s"] = acc.get(f"{HARNESS}.self_s", 0)
    return out
