"""Command-line surface: generate lattices, check laws, run pipelines, export.

Exit codes form a stable contract: 0 when everything requested holds, 1 when
a check or pipeline reports a failure (the report is still emitted), and 2
for usage errors, malformed input, or violated size bounds.

Reports are emitted as JSON with a deterministic ``report`` body; wall-clock
time lives in the separate ``timing_ms`` field so identical inputs produce
byte-identical report bodies.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from .construction import verify_boolean_pipeline, verify_projective_pipeline
from .document import (
    LatticeDocument,
    document_to_lattice,
    lattice_to_dot,
    lattice_to_json,
    load_document,
    parse_document,
)
from .errors import LatticeError
from .generators import boolean_lattice, chain, diamond_m3, pentagon_n5, subspace_lattice
from .props import Law, LawReport
from .witness import LAWS, law_checker


class _UsageError(Exception):
    pass


def _requested_laws(requested: str, n: int | None) -> list[Law]:
    tokens = [t.strip() for t in requested.split(",") if t.strip()]
    if not tokens:
        raise _UsageError("no laws requested")
    if tokens == ["all"]:
        return [law for law, spec in LAWS.items() if not spec.needs_n]
    known = {law.value for law in LAWS}
    for t in tokens:
        if t not in known:
            raise _UsageError(
                f"unknown law {t!r}; choose from "
                f"{', '.join(sorted(known))} or 'all'"
            )
        if LAWS[Law(t)].needs_n and n is None:
            raise _UsageError(f"law {t!r} requires --n")
    return [Law(t) for t in tokens]


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _read_document(path: str) -> LatticeDocument:
    if path == "-":
        return parse_document(sys.stdin.read())
    return load_document(path)


_CONTAINERS = (dict, list, tuple)


def _report_json(value) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` for a tree of dicts
    with string keys, lists, tuples and JSON scalars.

    json's indented encoder runs in Python, so the layout is joined here, as
    in ``document._document_json``, around one ``%s`` per key, scalar and
    empty container; then one compact ``json.dumps`` call, which runs in C,
    escapes them all.  Its item separator is a NUL, which JSON text never
    holds raw.
    """
    if not (isinstance(value, _CONTAINERS) and value):
        return json.dumps(value)
    leaves: list = []
    layout = _layout(value, "", leaves)
    return layout % tuple(json.dumps(leaves, separators=("\0", ": "))[1:-1].split("\0"))


def _layout(value, indent: str, leaves: list) -> str:
    """The layout of a non-empty container, with its keys and leaves
    appended to ``leaves`` in the order of their ``%s``."""
    inner = indent + "  "
    items = []
    if isinstance(value, dict):
        for key, child in sorted(value.items()):
            leaves.append(key)
            if isinstance(child, _CONTAINERS) and child:
                items.append("%s: " + _layout(child, inner, leaves))
            else:
                leaves.append(child)
                items.append("%s: %s")
        opener, closer = "{", "}"
    else:
        for child in value:
            if isinstance(child, _CONTAINERS) and child:
                items.append(_layout(child, inner, leaves))
            else:
                leaves.append(child)
                items.append("%s")
        opener, closer = "[", "]"
    return f"{opener}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{closer}"


def _emit_report(body: dict, elapsed_ms: float, out: str | None) -> None:
    payload = {"report": body, "timing_ms": round(elapsed_ms, 3)}
    _emit(_report_json(payload) + "\n", out)


def _cmd_gen(args) -> int:
    kind = args.kind
    if kind == "boolean":
        if args.n is None:
            raise _UsageError("gen boolean requires --n")
        lat = boolean_lattice(args.n)
    elif kind == "subspace":
        if args.n is None or args.q is None:
            raise _UsageError("gen subspace requires --n and --q")
        lat = subspace_lattice(args.n, args.q)
    elif kind == "chain":
        if args.n is None:
            raise _UsageError("gen chain requires --n")
        lat = chain(args.n)
    elif kind == "m3":
        lat = diamond_m3()
    else:
        lat = pentagon_n5()
    _emit(lattice_to_json(lat), args.out)
    return 0


def _cmd_check(args) -> int:
    started = time.perf_counter()
    doc = _read_document(args.input)
    lat = document_to_lattice(doc)
    results = {}
    check = law_checker(lat, args.n)
    for law in _requested_laws(args.laws, args.n):
        try:
            report = check(law)
        except LatticeError as exc:
            report = LawReport(law, False, None, f"check aborted: {exc}")
        results[law.value] = report.to_dict(lat)
    body = {
        "command": "check",
        "input": doc.name,
        "size": lat.size,
        "laws": results,
        "all_hold": all(r["holds"] for r in results.values()),
    }
    _emit_report(body, (time.perf_counter() - started) * 1000.0, args.out)
    return 0 if body["all_hold"] else 1


def _cmd_verify(args) -> int:
    started = time.perf_counter()
    token = args.pipeline
    if token in ("boolean", "s5"):
        if args.n is None:
            raise _UsageError("verify boolean requires --n")
        report = verify_boolean_pipeline(args.n)
    elif token in ("projective", "s7"):
        if args.n is None:
            raise _UsageError("verify projective requires --n")
        if args.q is None:
            raise _UsageError("verify projective requires --q")
        report = verify_projective_pipeline(args.n, args.q)
    body = {"command": "verify", **report.to_dict()}
    _emit_report(body, (time.perf_counter() - started) * 1000.0, args.out)
    return 0 if report.passed else 1


def _cmd_export(args) -> int:
    doc = _read_document(args.input)
    lat = document_to_lattice(doc)
    if args.format == "hasse-dot":
        _emit(lattice_to_dot(lat), args.out)
    else:
        _emit(lattice_to_json(lat, name=doc.name), args.out)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing reads it and
    leaves it unchanged, so every ``main`` call shares it."""
    parser = argparse.ArgumentParser(
        prog="latlab",
        description="Finite lattice laboratory: generators, law checks, "
        "construction pipelines, exports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a lattice document")
    p_gen.add_argument(
        "kind", choices=("boolean", "subspace", "m3", "n5", "chain")
    )
    p_gen.add_argument("--n", type=int, default=None)
    p_gen.add_argument("--q", type=int, default=None)
    p_gen.add_argument("--out", default=None)
    p_gen.set_defaults(func=_cmd_gen)

    p_check = sub.add_parser("check", help="run law checks on a document")
    p_check.add_argument("input", help="document path, or - for stdin")
    p_check.add_argument("--laws", default="all")
    p_check.add_argument("--n", type=int, default=None)
    p_check.add_argument("--out", default=None)
    p_check.set_defaults(func=_cmd_check)

    p_verify = sub.add_parser("verify", help="run an end-to-end pipeline")
    p_verify.add_argument(
        "pipeline", choices=("boolean", "projective", "s5", "s7")
    )
    p_verify.add_argument("--n", type=int, default=None)
    p_verify.add_argument("--q", type=int, default=None)
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(func=_cmd_verify)

    p_export = sub.add_parser("export", help="export a document")
    p_export.add_argument("input", help="document path, or - for stdin")
    p_export.add_argument(
        "--format", choices=("hasse-dot", "json"), default="json"
    )
    p_export.add_argument("--out", default=None)
    p_export.set_defaults(func=_cmd_export)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return 0 if code in (0, None) else 2
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"latlab: {exc}", file=sys.stderr)
        return 2
    except LatticeError as exc:
        print(f"latlab: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"latlab: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
