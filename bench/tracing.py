"""Per-layer tracing from outside latlab.

Wraps the public entry points of each latlab module, records one span per
call (name, start, end, parent span, op id) in memory, and derives per-layer
metrics from the spans.  No latlab source changes: the wrappers replace each
name in every ``latlab.*`` namespace that binds it, and are removed again by
``uninstall``.  Per-element methods (``le``, ``join``, ``meet``, ``height``,
``join_all``) are never wrapped; they run millions of times and the wrapper
cost would swamp what it measures.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from pathlib import Path

# Layer -> wrapped entry points; "Class.method" patches the class attribute.
ENTRY_POINTS = {
    "cli": ("main",),
    "document": ("parse_document", "document_to_lattice", "document_from_lattice",
                 "lattice_to_dot", "LatticeDocument.to_json"),
    "core": ("build_lattice", "FiniteLattice.__init__", "FiniteLattice.upper_neighbors"),
    "generators": ("boolean_lattice", "subspace_lattice", "chain"),
    "props": ("check_lattice_axioms", "is_distributive", "is_modular",
              "satisfies_height_law", "is_complemented", "is_atomic",
              "is_perspective_lattice"),
    "projective": ("geometry_view", "check_p1", "check_p2", "check_p3_third_point",
                   "check_spanning", "is_independent", "verify_bvn_characterization"),
    "construction": ("saturate_splits", "build_tree", "find_realization",
                     "enumerate_boolean_sublattices", "boolean_closure",
                     "derive_independent_atoms", "satisfies",
                     "verify_boolean_pipeline", "verify_projective_pipeline"),
}
LAW_OF_CHECKER = {
    "check_lattice_axioms": "axioms", "is_distributive": "distributive",
    "is_modular": "modular", "satisfies_height_law": "heightlaw",
    "is_complemented": "complemented", "is_atomic": "atomic",
    "is_perspective_lattice": "perspective",
}


def span_names() -> list[str]:
    return [f"{layer}.{fn}" for layer, fns in ENTRY_POINTS.items() for fn in fns]


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in span_names():
        units.update({f"{name}.calls": "count", f"{name}.ms": "ms", f"{name}.self_ms": "ms"})
    for layer in (*ENTRY_POINTS, "other"):
        units[f"{layer}.self_share"] = "ratio"
    units["trace.overhead_frac"] = "ratio"
    units["core.build_lattice.elements"] = "count"
    for law in LAW_OF_CHECKER.values():
        units[f"props.{law}.holds_frac"] = "ratio"
    units["construction.find_realization.found_frac"] = "ratio"
    units["construction.enumerate_boolean_sublattices.sublattices"] = "count"
    units["construction.enumerate_boolean_sublattices.repeat_frac"] = "ratio"
    return units


class Tracer:
    """Span recorder.  Wrappers record only between ``begin_op`` and
    ``end_op``; outside an op they call straight through."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op: int | None = None
        self._enumerated: dict = {}
        self._patches: list[tuple[object, str, object]] = []

    # ----- recording ----------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        self._enumerated = {}

    def end_op(self) -> None:
        self._op = None
        self._enumerated = {}

    def _wrap(self, name: str, fn):
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self._op)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    # ----- installation -------------------------------------------------------

    def install(self) -> None:
        """Patch every entry point wherever a latlab namespace binds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "latlab" or n.startswith("latlab."))]
        for layer, fns in ENTRY_POINTS.items():
            home = sys.modules[f"latlab.{layer}"]
            for fn in fns:
                name = f"{layer}.{fn}"
                if "." in fn:
                    cls_name, attr = fn.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[attr]
                    self._patch(cls, attr, self._wrap(name, original))
                    continue
                original = getattr(home, fn)
                wrapper = self._wrap(name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ----- results ------------------------------------------------------------

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["name", "start", "end", "parent", "op"]
        path.write_text(json.dumps({"fields": fields, "spans": self.spans}) + "\n")

    def metrics(self, passes: int, op_s: float, overhead_frac: float) -> dict:
        """Per-layer metrics per pass, from the spans of ``passes`` traced
        passes whose ops took ``op_s`` seconds in all."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, incl, own = Counter(), Counter(), Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            incl[name] += end - start
            own[name] += end - start - child[i]

        out = {}
        for name in span_names():
            out[f"{name}.calls"] = calls[name] / passes
            out[f"{name}.ms"] = incl[name] * 1000.0 / passes
            out[f"{name}.self_ms"] = own[name] * 1000.0 / passes
        for layer in ENTRY_POINTS:
            out[f"{layer}.self_share"] = sum(
                v for k, v in own.items() if k.startswith(layer + ".")) / op_s
        out["other.self_share"] = 1.0 - sum(out[f"{layer}.self_share"] for layer in ENTRY_POINTS)
        out["trace.overhead_frac"] = overhead_frac

        def ratio(num, den):
            return num / den if den else 0.0

        out["core.build_lattice.elements"] = self.counts["elements"] / passes
        for fn, law in LAW_OF_CHECKER.items():
            out[f"props.{law}.holds_frac"] = ratio(self.counts[f"holds.{law}"], calls[f"props.{fn}"])
        name = "construction.find_realization"
        out[f"{name}.found_frac"] = ratio(self.counts["found"], calls[name])
        name = "construction.enumerate_boolean_sublattices"
        out[f"{name}.sublattices"] = self.counts["sublattices"] / passes
        out[f"{name}.repeat_frac"] = ratio(self.counts["repeats"], calls[name])
        return out


def _count_elements(tracer, args, kwargs, result):
    tracer.counts["elements"] += result.size


def _count_holds(law):
    def observe(tracer, args, kwargs, result):
        tracer.counts[f"holds.{law}"] += bool(result.holds)
    return observe


def _count_found(tracer, args, kwargs, result):
    tracer.counts["found"] += result is not None


def _count_sublattices(tracer, args, kwargs, result):
    lat = args[0]
    must = args[1] if len(args) > 1 else kwargs.get("must_contain", ())
    key = (id(lat), frozenset(int(e) for e in must))
    tracer.counts["sublattices"] += len(result)
    if key in tracer._enumerated:
        tracer.counts["repeats"] += 1
    # Holding the lattice keeps its id from being reused within the op.
    tracer._enumerated[key] = lat


_OBSERVERS = {
    "core.build_lattice": _count_elements,
    "construction.find_realization": _count_found,
    "construction.enumerate_boolean_sublattices": _count_sublattices,
    **{f"props.{fn}": _count_holds(law) for fn, law in LAW_OF_CHECKER.items()},
}
