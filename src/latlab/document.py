"""Label-keyed lattice documents.

A document stores a lattice as its element labels plus any generating set of
order pairs; the reflexive-transitive closure is rebuilt (and validated) on
load.  Storing a generating relation rather than the full order keeps
hand-written fixtures small: the cover pairs suffice.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from .core import FiniteLattice, build_lattice
from .errors import DocumentError


@dataclass(frozen=True)
class LatticeDocument:
    """Serializable lattice description, keyed by element labels.

    ``order`` holds [child, parent] label pairs; any relation whose closure
    is the intended order is acceptable.
    """

    name: str
    elements: tuple[str, ...]
    order: tuple[tuple[str, str], ...]

    def to_json(self) -> str:
        """``json.dumps(..., indent=2, sort_keys=True)`` plus a newline."""
        k = len(self.elements)
        quoted = _quoted([*self.elements, *itertools.chain.from_iterable(self.order)])
        return _document_json(self.name, quoted[:k], quoted[k::2], quoted[k + 1 :: 2])


def _quoted(labels: list[str]) -> list[str]:
    """Each label as a JSON string, from one ``json.dumps`` call, which runs
    in C; its item separator is a NUL, which JSON text never holds raw."""
    return json.dumps(labels, separators=("\0", ":"))[1:-1].split("\0") if labels else []


def _joined_pairs(children: list, parents: list, before: str, between: str, after: str) -> str:
    """``before + child + between + parent + after`` over the pairs, from one
    join over a list with the pieces interleaved."""
    parts = [before, None, between, None, after] * len(children)
    parts[1::5], parts[3::5] = children, parents
    return "".join(parts)


def _document_json(name: str, elements: list[str], children, parents) -> str:
    """A document's text from its quoted labels, laid out here because json's
    indented encoder runs in Python."""
    order = _joined_pairs(children, parents, "\n    [\n      ", ",\n      ", "\n    ],")
    order = "[" + order[:-1] + "\n  ]" if order else "[]"
    elements = "[\n    " + ",\n    ".join(elements) + "\n  ]" if elements else "[]"
    return f'{{\n  "elements": {elements},\n  "name": {json.dumps(name)},\n  "order": {order}\n}}\n'


def parse_document(text: str) -> LatticeDocument:
    """Parse JSON text into a document; malformed input carries line/column,
    and input nested beyond the JSON parser's depth limit is malformed too."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            line=exc.lineno,
            column=exc.colno,
        ) from exc
    except RecursionError as exc:
        raise DocumentError("invalid JSON: nested too deeply to parse") from exc
    if not isinstance(payload, dict):
        raise DocumentError("document must be a JSON object")
    missing = [key for key in ("elements", "order") if key not in payload]
    if missing:
        raise DocumentError(f"document is missing keys: {', '.join(missing)}")
    name = payload.get("name", "")
    if not isinstance(name, str):
        raise DocumentError("'name' must be a string")
    elements = payload["elements"]
    if not isinstance(elements, list) or not set(map(type, elements)) <= {str}:
        raise DocumentError("'elements' must be a list of strings")
    order = payload["order"]
    if not isinstance(order, list):
        raise DocumentError("'order' must be a list of [child, parent] pairs")
    # Whole-list passes in C; the loop runs only to name the first bad entry.
    if not (set(map(type, order)) <= {list} and set(map(len, order)) <= {2}
            and set(map(type, itertools.chain.from_iterable(order))) <= {str}):
        for entry in order:
            if not isinstance(entry, list) or len(entry) != 2 or set(map(type, entry)) != {str}:
                raise DocumentError(f"order entry {entry!r} is not a label pair")
    return LatticeDocument(name, tuple(elements), tuple(map(tuple, order)))


def load_document(path: str) -> LatticeDocument:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_document(handle.read())


def document_to_lattice(doc: LatticeDocument) -> FiniteLattice:
    """Validate and build the lattice a document describes."""
    index = dict(zip(doc.elements, range(len(doc.elements))))
    flat = list(map(index.get, itertools.chain.from_iterable(doc.order)))
    if None in flat:
        k = flat.index(None)
        raise DocumentError(f"order references unknown element {doc.order[k // 2][k % 2]!r}")
    pairs = np.array(flat, dtype=np.int64).reshape(len(doc.order), 2)
    return build_lattice(doc.elements, pairs, name=doc.name)


def document_from_lattice(lat: FiniteLattice, name: str | None = None) -> LatticeDocument:
    """Canonical document for a lattice: its labels plus sorted cover pairs."""
    covers = lat.upper_neighbors()
    return LatticeDocument(
        name=lat.name if name is None else name,
        elements=tuple(lat.labels),
        order=tuple((lat.labels[x], lat.labels[y]) for x, y in covers),
    )


def lattice_to_json(lat: FiniteLattice, name: str | None = None) -> str:
    """``document_from_lattice(lat, name).to_json()``, written from the
    cover pairs' index arrays with no Python object per pair."""
    quoted = _quoted(list(lat.labels))
    labels = np.array(quoted, dtype=object)
    xs, ys = lat.cover_pairs
    name = lat.name if name is None else name
    return _document_json(name, quoted, labels[xs].tolist(), labels[ys].tolist())


def _quote(label: str) -> str:
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def lattice_to_dot(lat: FiniteLattice) -> str:
    """Directed-graph rendering of the cover relation, ranked by height.

    Edges point from each element to its upper neighbors; elements of equal
    height share a rank so layers come out level.  Labels are escaped for
    DOT (backslash and double quote only), once each.
    """
    labels = np.array([_quote(s) for s in lat.labels], dtype=object)
    ranked = np.argsort(lat.heights, kind="stable")
    cuts = [0, *(np.flatnonzero(np.diff(lat.heights[ranked])) + 1).tolist(), lat.size]
    ranked = labels[ranked].tolist()
    lines = ["digraph lattice {", "  rankdir=BT;"]
    lines += ["  { rank=same; " + "; ".join(ranked[a:b]) + "; }" for a, b in zip(cuts, cuts[1:])]
    xs, ys = lat.cover_pairs
    edges = _joined_pairs(labels[xs].tolist(), labels[ys].tolist(), "  ", " -> ", ";\n")
    return "\n".join(lines) + "\n" + edges + "}\n"
