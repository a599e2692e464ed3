"""Label-keyed lattice documents.

A document stores a lattice as its element labels plus any generating set of
order pairs; the reflexive-transitive closure is rebuilt (and validated) on
load.  Storing a generating relation rather than the full order keeps
hand-written fixtures small: the cover pairs suffice.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

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
        """``json.dumps(..., indent=2, sort_keys=True)`` plus a newline, joined
        here because json's indented encoder runs in Python; each distinct
        label is escaped once by ``json.dumps``, which runs in C."""
        quoted = {s: json.dumps(s) for s in set(self.elements).union(*self.order)}
        elements = [quoted[e] for e in self.elements]
        order = [f"[\n      {quoted[a]},\n      {quoted[b]}\n    ]" for a, b in self.order]
        return (
            f'{{\n  "elements": {_json_list(elements)},\n'
            f'  "name": {json.dumps(self.name)},\n'
            f'  "order": {_json_list(order)}\n}}\n'
        )


def _json_list(items: list[str]) -> str:
    """A key's value list in the two-space layout of ``json.dumps``."""
    return "[\n    " + ",\n    ".join(items) + "\n  ]" if items else "[]"


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
    if not isinstance(elements, list) or not all(
        isinstance(e, str) for e in elements
    ):
        raise DocumentError("'elements' must be a list of strings")
    order = payload["order"]
    if not isinstance(order, list):
        raise DocumentError("'order' must be a list of [child, parent] pairs")
    pairs = []
    for entry in order:
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not all(isinstance(s, str) for s in entry)
        ):
            raise DocumentError(f"order entry {entry!r} is not a label pair")
        pairs.append((entry[0], entry[1]))
    return LatticeDocument(name, tuple(elements), tuple(pairs))


def load_document(path: str) -> LatticeDocument:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_document(handle.read())


def document_to_lattice(doc: LatticeDocument) -> FiniteLattice:
    """Validate and build the lattice a document describes."""
    index = {label: i for i, label in enumerate(doc.elements)}
    pairs = []
    for child, parent in doc.order:
        if child not in index or parent not in index:
            missing = child if child not in index else parent
            raise DocumentError(f"order references unknown element {missing!r}")
        pairs.append((index[child], index[parent]))
    return build_lattice(doc.elements, pairs, name=doc.name)


def document_from_lattice(lat: FiniteLattice, name: str | None = None) -> LatticeDocument:
    """Canonical document for a lattice: its labels plus sorted cover pairs."""
    covers = lat.upper_neighbors()
    return LatticeDocument(
        name=lat.name if name is None else name,
        elements=tuple(lat.labels),
        order=tuple((lat.labels[x], lat.labels[y]) for x, y in covers),
    )


def _quote(label: str) -> str:
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def lattice_to_dot(lat: FiniteLattice) -> str:
    """Directed-graph rendering of the cover relation, ranked by height.

    Edges point from each element to its upper neighbors; elements of equal
    height share a rank so layers come out level.
    """
    lines = ["digraph lattice {", "  rankdir=BT;"]
    by_height: dict[int, list[int]] = {}
    for e in range(lat.size):
        by_height.setdefault(lat.height(e), []).append(e)
    for h in sorted(by_height):
        row = " ".join(f"{_quote(lat.labels[e])};" for e in by_height[h])
        lines.append(f"  {{ rank=same; {row} }}")
    for x, y in lat.upper_neighbors():
        lines.append(f"  {_quote(lat.labels[x])} -> {_quote(lat.labels[y])};")
    lines.append("}")
    return "\n".join(lines) + "\n"
