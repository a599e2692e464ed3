"""Command-line surface: generate lattices, check laws, run pipelines, export.

Exit codes form a stable contract: 0 when everything requested holds, 1 when
a check or pipeline reports a failure (the report is still emitted), and 2
for usage errors, malformed input, or violated size bounds.

Reports are emitted as JSON with a deterministic ``report`` body; wall-clock
time lives in the separate ``timing_ms`` field so identical inputs produce
byte-identical report bodies.

Each command imports what it runs when it runs: ``check`` the law registry
(props, witness), ``verify`` the construction engine, so ``gen`` and
``export`` load neither.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from typing import TYPE_CHECKING

from . import generators
from .document import (
    LatticeDocument,
    document_to_lattice,
    lattice_to_dot,
    lattice_to_json,
    load_document,
    parse_document,
)
from .errors import LatticeError

if TYPE_CHECKING:
    from .props import Law


class _UsageError(Exception):
    pass


def _requested_laws(requested: str, n: int | None) -> list[Law]:
    from .props import Law
    from .witness import LAWS

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
        needs_n = LAWS[Law(t)].needs_n
        if needs_n and n is None:
            raise _UsageError(f"law {t!r} requires --n")
        if needs_n and n < 0:
            raise _UsageError(f"law {t!r} requires --n >= 0, got --n={n}")
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


def _emit_report(body: dict, elapsed_ms: float, out: str | None) -> None:
    payload = {"report": body, "timing_ms": round(elapsed_ms, 3)}
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", out)


# Each kind maps to the flags it requires and to the name of its generator or
# pipeline, which takes those flags' values in order.  The name is looked up
# in its module at call time, so a traced or patched function is the one
# that runs.
_GEN_KINDS = {
    "boolean": (("n",), "boolean_lattice"),
    "subspace": (("n", "q"), "subspace_lattice"),
    "m3": ((), "diamond_m3"),
    "n5": ((), "pentagon_n5"),
    "chain": (("n",), "chain"),
}
_PIPELINES = {
    "boolean": (("n",), "verify_boolean_pipeline"),
    "projective": (("n", "q"), "verify_projective_pipeline"),
}
_PIPELINE_ALIASES = {"s5": "boolean", "s7": "projective"}


def _run_kind(module, table: dict, command: str, kind: str, args):
    """Run ``kind``'s entry of ``table`` from ``module``, or name the flags
    it misses."""
    needs, name = table[kind]
    values = [getattr(args, flag) for flag in needs]
    missing = [f"--{flag}" for flag, value in zip(needs, values) if value is None]
    if missing:
        raise _UsageError(f"{command} {kind} requires {' and '.join(missing)}")
    return getattr(module, name)(*values)


def _cmd_gen(args) -> int:
    _emit(lattice_to_json(_run_kind(generators, _GEN_KINDS, "gen", args.kind, args)), args.out)
    return 0


def _cmd_check(args) -> int:
    from .props import LawReport
    from .witness import LAWS

    started = time.perf_counter()
    laws = _requested_laws(args.laws, args.n)
    doc = _read_document(args.input)
    lat = document_to_lattice(doc)
    results = {}
    for law in laws:
        try:
            report = LAWS[law].check(lat, args.n)
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
    from . import construction

    started = time.perf_counter()
    pipeline = _PIPELINE_ALIASES.get(args.pipeline, args.pipeline)
    report = _run_kind(construction, _PIPELINES, "verify", pipeline, args)
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
    p_gen.add_argument("kind", choices=tuple(_GEN_KINDS))
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
    p_verify.add_argument("pipeline", choices=(*_PIPELINES, *_PIPELINE_ALIASES))
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
