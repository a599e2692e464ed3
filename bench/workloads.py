"""Fixed op lists of the gen, check and verify workloads.

Each op is one closed-loop call into latlab: either ``latlab.cli.main(argv)``
in-process or one public library function.  An op carries the timed call,
an untimed rendering of its outcome as an exit code plus report body, and
the checks that outcome must pass.  Inputs (documents, pins, op order) come
from the workload seed; latlab only sees documents and argv.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import latlab.cli
import latlab.construction as construction
from latlab.document import document_to_lattice, parse_document
from latlab.generators import boolean_lattice, subspace_lattice
from latlab.props import Law, LawReport
from latlab.witness import witness_violates

import families

NAMES = ("gen", "check", "verify")
PLAIN_LAWS = ("axioms", "distributive", "modular", "heightlaw", "complemented",
              "atomic", "perspective", "p1", "p2", "thirdpoint")
SIZED_LAWS = ("spanning", "topheight")
PRIMES = tuple(p for p in range(2, 62) if all(p % d for d in range(2, p)))
# Largest field of the rank-2 pipelines and ambients.  q = 23, 29 and 31
# (0.8 s, 2.1 s, 3.3 s) and the rank-3 pipeline over GF(3) (2.5 s) are left
# out: a pass must stay short enough that each op gets many samples a run.
MAX_PIPELINE_Q = 19


@dataclass(frozen=True)
class Op:
    """One op of a workload.

    ``key`` names the op's inputs independently of file paths, so equal
    inputs share a key across seeds and runs.  ``prepare`` builds, untimed
    and afresh before every call, the objects that ``invoke`` receives, so
    that no call is handed an object an earlier call already worked on.
    ``invoke`` is the timed call; ``render`` turns its raw result into (exit
    code, report body) and ``check`` returns the problems found in that
    outcome.
    """

    key: str
    size: int
    invoke: Callable[[object], object]
    render: Callable[[object], tuple[int, str]]
    check: Callable[[int, str], list[str]]
    prepare: Callable[[], object] = lambda: None


def build(name: str, seed: int, work: Path) -> list[Op]:
    """The op list of one workload, in seeded order; inputs go under ``work``."""
    rng = random.Random(f"{name}:{seed}")
    ops = {"gen": _gen_ops, "check": _check_ops, "verify": _verify_ops}[name](rng, work)
    rng.shuffle(ops)
    return ops


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _cli(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = latlab.cli.main(list(argv))
    return code, out.getvalue()


def _report(raw) -> tuple[int, str]:
    code, out = raw
    if code == 2:
        return code, ""
    return code, json.dumps(json.loads(out)["report"], sort_keys=True)


def _expect_exit(expected: int, code: int) -> list[str]:
    return [] if code == expected else [f"exit code {code}, expected {expected}"]


# ----- check -----------------------------------------------------------------


class _Auditor:
    """Re-checks failure witnesses with latlab.witness on lattices rebuilt
    from the document text, one build per document."""

    def __init__(self):
        self._lattices = {}

    def confirms(self, text: str, law: dict) -> bool:
        lat = self._lattices.get(text)
        if lat is None:
            lat = self._lattices[text] = document_to_lattice(parse_document(text))
        witness = tuple(lat.index_of(label) for label in law["witness"])
        return witness_violates(lat, LawReport(Law(law["law"]), False, witness))


def _check_ops(rng, work: Path) -> list[Op]:
    auditor = _Auditor()
    ops = []
    for doc in families.check_corpus(rng):
        text = doc.text()
        path = work / f"{doc.name}.json"
        path.write_text(text)
        ident = f"{doc.family}:{_sha(text)[:16]}"
        ops.append(_check_op(doc, text, path, ident, PLAIN_LAWS, auditor))
        if doc.rank is not None:
            ops.append(_check_op(doc, text, path, ident, SIZED_LAWS, auditor))
    return ops


def _check_op(doc, text, path, ident, laws, auditor) -> Op:
    argv = ["check", str(path), "--laws", "all" if laws == PLAIN_LAWS else ",".join(laws)]
    if laws == SIZED_LAWS:
        argv += ["--n", str(doc.rank)]
    verdicts = [doc.facts.get(law) for law in laws]
    if False in verdicts:
        expected = 1
    elif all(verdicts):
        expected = 0
    else:
        raise ValueError(f"{doc.name}: theory does not fix every law in {laws}")

    def check(code, body):
        problems = _expect_exit(expected, code)
        if code not in (0, 1):
            return problems
        report = json.loads(body)
        if report["size"] != doc.size:
            problems.append(f"size {report['size']}, document has {doc.size}")
        if set(report["laws"]) != set(laws):
            problems.append(f"reported laws {sorted(report['laws'])}")
        if report["all_hold"] != (code == 0):
            problems.append("all_hold disagrees with the exit code")
        for token, law in report["laws"].items():
            fact = doc.facts.get(token)
            if fact is not None and law["holds"] != fact:
                problems.append(f"{token} holds={law['holds']}, theory says {fact}")
            if not law["holds"] and law["witness"] is not None:
                if not auditor.confirms(text, law):
                    problems.append(f"{token} witness {law['witness']} is not a violation")
        return problems

    key = " ".join(["check", ident] + argv[2:])
    return Op(key, doc.size, lambda _: _cli(argv), _report, check)


# ----- gen -------------------------------------------------------------------


def _gauss(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of GF(q)^n."""
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def _subspace_counts(n: int, q: int) -> tuple[int, int]:
    size = sum(_gauss(n, k, q) for k in range(n + 1))
    covers = sum(_gauss(n, k, q) * _gauss(n - k, 1, q) for k in range(n))
    return size, covers


# (argv after "gen", elements, cover pairs).  Requests above latlab's
# documented cap of 4096 elements must exit 2 with SizeBound.
ELEMENT_CAP = 4096
GEN_REQUESTS = (
    [(("boolean", "--n", str(k)), 2**k, k * 2 ** (k - 1)) for k in range(1, 14)]
    + [(("subspace", "--n", str(n), "--q", str(q)), *_subspace_counts(n, q))
       for n, q in [(2, p) for p in PRIMES]
       + [(3, q) for q in (2, 3, 5, 7, 11, 13)] + [(4, 2), (4, 3), (5, 2), (7, 2)]]
    + [(("chain", "--n", str(k)), k, k - 1) for k in (2, 3, 4, 8, 16, 32, 64, 128, 256)]
    + [(("m3",), 5, 6), (("n5",), 5, 5)]
)
EXPORT_MAX_ELEMENTS = 128


def _gen_ops(rng, work: Path) -> list[Op]:
    ops = []
    for i, (args, size, covers) in enumerate(GEN_REQUESTS):
        ops.append(_gen_op(args, size, covers, work / f"gen_{i}.json"))
        if size <= EXPORT_MAX_ELEMENTS:
            source = work / f"source_{i}.json"
            if _cli(["gen", *args, "--out", str(source)])[0] != 0:
                raise RuntimeError(f"setup: gen {' '.join(args)} failed")
            text = source.read_text()
            ops.append(_export_op(source, text, size, covers, "json"))
            ops.append(_export_op(source, text, size, covers, "hasse-dot"))
    return ops


def _gen_op(args, size, covers, out: Path) -> Op:
    argv = ["gen", *args, "--out", str(out)]

    def render(raw):
        code, stdout = raw
        if code != 0 or stdout:
            return code, stdout
        body = out.read_text()
        out.unlink()
        return code, body

    def check(code, body):
        if size > ELEMENT_CAP:
            return _expect_exit(2, code) + (["over-cap request wrote output"] if body else [])
        problems = _expect_exit(0, code)
        if code == 0:
            doc = json.loads(body)
            if len(doc["elements"]) != size or len(set(doc["elements"])) != size:
                problems.append(f"{len(doc['elements'])} elements, expected {size}")
            if len(doc["order"]) != covers:
                problems.append(f"{len(doc['order'])} cover pairs, expected {covers}")
        return problems

    return Op(" ".join(["gen", *args]), size, lambda _: _cli(argv), render, check)


def _export_op(source: Path, text: str, size: int, covers: int, fmt: str) -> Op:
    argv = ["export", str(source), "--format", fmt]

    def check(code, body):
        problems = _expect_exit(0, code)
        if fmt == "json" and body != text:
            problems.append("json export differs from the generated document")
        if fmt == "hasse-dot":
            edges = sum(" -> " in line for line in body.splitlines())
            if not body.startswith("digraph lattice {") or edges != covers:
                problems.append(f"dot export has {edges} edges, expected {covers}")
        return problems

    key = f"export {_sha(text)[:16]} --format {fmt}"
    return Op(key, size, lambda _: _cli(argv), lambda raw: raw, check)


# ----- verify ------------------------------------------------------------------

PINS_PER_PROBE = 8


def _bell(n: int) -> int:
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def _boolean_sublattice_count(family: str, n: int, q: int) -> int:
    """Boolean sublattices sharing bottom and top: set partitions of the
    n atoms of B_n; in a projective space of rank 2 or 3, the top alone
    plus every decomposition into independent points and lines."""
    if family == "boolean":
        return _bell(n)
    points = (q**n - 1) // (q - 1)
    if n == 2:
        return 1 + math.comb(points, 2)
    return 1 + points * q * q + points * (points - 1) * q * q // 6


def _verify_ops(rng, work: Path) -> list[Op]:
    ops = [_pipeline_op(("boolean", "--n", str(n)), {"n": n}, 2**n) for n in range(1, 5)]
    ops += [_pipeline_op(("projective", "--n", str(n), "--q", str(q)), {"n": n, "q": q},
                         _subspace_counts(n, q)[0])
            for n, q in [(2, p) for p in PRIMES if p <= MAX_PIPELINE_Q] + [(3, 2)]]
    ops += [_tree_op(d) for d in range(1, 7)]

    # Ambients and structures are built anew for every call (``Op.prepare``);
    # the ones built here only name the ops and check their outcomes.
    ambients = {("boolean", n, 2): functools.partial(boolean_lattice, n) for n in range(1, 7)}
    ambients.update({("subspace", 2, p): functools.partial(subspace_lattice, 2, p)
                     for p in PRIMES if p <= MAX_PIPELINE_Q})
    ambients.update({("subspace", 3, q): functools.partial(subspace_lattice, 3, q)
                     for q in (2, 3, 5)})
    for q in (2, 3, 5):
        make_lat = ambients["subspace", 3, q]
        lat = make_lat()
        points = list(lat.atoms())
        lines = [int(e) for e in range(lat.size) if lat.height(e) == 2]
        probes = (
            (construction.line_probe_structure, ("l",), lines),
            (construction.atom_pair_structure, ("x", "y"), points),
            (construction.coplanar_lines_structure, ("l1", "l2"), lines),
        )
        for make_structure, names, candidates in probes:
            make = functools.partial(make_structure, 3)
            ops += [_realize_op(make, make_lat, pin)
                    for pin in _stratified_pins(rng, names, candidates)]
    ops += [_enumerate_op(make_lat, _boolean_sublattice_count(*spec))
            for spec, make_lat in ambients.items()]
    return ops


def _stratified_pins(rng, names, candidates) -> list[dict]:
    """PINS_PER_PROBE seeded pins whose first element comes from each
    successive slice of the candidates in turn.  Search time depends on where
    the pin sits in element order, so stratifying keeps that mix the same
    across seeds."""
    pins = []
    for i in range(PINS_PER_PROBE):
        lo = i * len(candidates) // PINS_PER_PROBE
        hi = max(lo + 1, (i + 1) * len(candidates) // PINS_PER_PROBE)
        first = rng.choice(candidates[lo:hi])
        rest = rng.sample([c for c in candidates if c != first], len(names) - 1)
        pins.append(dict(zip(names, [first, *rest])))
    return pins


def _pipeline_op(args, params, size) -> Op:
    argv = ["verify", *args]

    def check(code, body):
        problems = _expect_exit(0, code)
        report = json.loads(body)
        if report["pipeline"] != args[0] or report["params"] != params:
            problems.append(f"report is for {report['pipeline']} {report['params']}")
        failing = [k for k, stage in report["stages"].items() if not stage["ok"]]
        if not report["passed"] or failing:
            problems.append(f"pipeline did not pass: {failing}")
        return problems

    return Op(" ".join(argv), size, lambda _: _cli(argv), _report, check)


def _structure_json(s) -> dict:
    return {
        "constants": list(s.constants),
        "statements": [[st.kind.value, list(st.operands), st.value]
                       for st in s.sorted_statements()],
    }


def _tree_op(depth: int) -> Op:
    def render(tree):
        return 0, json.dumps(_structure_json(tree), sort_keys=True)

    def check(code, body):
        tree = json.loads(body)
        leaves = [c for c in tree["constants"] if c.startswith("p")]
        problems = []
        if leaves != [f"p{i + 1}" for i in range(2**depth)]:
            problems.append(f"{len(leaves)} leaves, expected {2**depth}")
        if len(tree["constants"]) != 2 ** (depth + 1):
            problems.append(f"{len(tree['constants'])} constants, expected {2 ** (depth + 1)}")
        return problems

    return Op(f"build_tree {depth}", 2**depth, lambda _: construction.build_tree(depth),
              render, check)


def _realize_op(make_structure, make_lat, pin) -> Op:
    structure, lat = make_structure(), make_lat()

    def render(real):
        mapping = None if real is None else real.as_labels()
        return 0, json.dumps(mapping, sort_keys=True)

    def check(code, body):
        mapping = json.loads(body)
        if mapping is None:
            return ["no realization found; the pinned probe is realizable"]
        found = {c: lat.index_of(label) for c, label in mapping.items()}
        problems = []
        if any(found[c] != e for c, e in pin.items()):
            problems.append("realization ignores the pins")
        if not construction.satisfies(structure, lat, found):
            problems.append("realization does not satisfy the structure")
        return problems

    pins = ",".join(f"{c}={lat.labels[e]}" for c, e in sorted(pin.items()))
    key = f"find_realization {_sha(repr(_structure_json(structure)))[:12]} {lat.name} {pins}"
    return Op(key, lat.size, lambda state: construction.find_realization(*state, pin=pin),
              render, check, prepare=lambda: (make_structure(), make_lat()))


def _enumerate_op(make_lat, expected: int) -> Op:
    lat = make_lat()

    def render(subs):
        return 0, json.dumps([[list(s.elements), list(s.blocks)] for s in subs])

    def check(code, body):
        subs = json.loads(body)
        problems = []
        if len(subs) != expected:
            problems.append(f"{len(subs)} boolean sublattices, expected {expected}")
        if any(len(els) != 2 ** len(blocks) or lat.bottom not in els or lat.top not in els
               for els, blocks in subs):
            problems.append("a sublattice is not 2^blocks elements between the bounds")
        return problems

    return Op(f"enumerate_boolean_sublattices {lat.name}", lat.size,
              lambda ambient: construction.enumerate_boolean_sublattices(ambient), render,
              check, prepare=make_lat)
