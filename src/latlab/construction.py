"""Partial join/meet structures and their realizations in concrete lattices.

A :class:`PartialStructure` is a finite set of named constants together with
statements about them: join equations, meet equations, disjointness and
declared heights.  Structures always contain the constants ``0`` and ``1``
with ``0 join 1 = 1``, and every statement set is closed under ``0 join x = x``
and ``x join 1 = 1``.  Structures are immutable; every operation returns a
new one.

Construction operations grow a structure step by step:

* :func:`initial_structure` starts from the two bounds and a depth budget.
* :func:`split_element` splits a constant of height >= 2 into two disjoint
  fresh parts whose heights add up to the parent's.
* :func:`add_split_alternative` adds a third part distinct from an existing
  split, re-deriving the parent a second way.
* :func:`boolean_closure` intersects all full boolean extensions of a
  constant set inside an ambient lattice and returns the shared statements.

:func:`find_realization` searches a concrete lattice for an injective,
bound- and statement-preserving assignment of the constants; the search is
exhaustive and returns the lexicographically least realization.

A :class:`Statement` is a named tuple ``(kind, operands, value)`` whose kind
is a str enum, so statement sets hash in C.  One evaluator reads statements
against element images in the ambient's tables; the search, :func:`satisfies`
and the pipeline's closure re-check all call it.  One generator yields every
statement among a set of elements under a naming: a closure collects it, and
the pipelines test membership of the statements they expect.

Growth checks only what is new.  A structure's height index passes from
parent to child and is updated from the new statements alone; its split
index and its search plan (statements grouped by their last constant) are
built on first use, the plan shared by every search of the structure.
Each ambient lattice's boolean sublattices are enumerated once, into a memo
that also gives every element one int whose bit i says "sublattice i
contains this element"; a closure's extensions and shared elements are
ANDs of those ints.
"""

from __future__ import annotations

import bisect
import enum
import functools
import itertools
import weakref
from collections.abc import Generator, Iterable, Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import ElementId, FiniteLattice
from .errors import (
    DepthExhausted,
    MissingSplit,
    RealizationMissing,
    SizeBound,
    UnknownConstant,
)
from .generators import boolean_lattice, subspace_count, subspace_lattice
from .limits import (
    MAX_BOOLEAN_PIPELINE_N,
    MAX_REALIZATION_CONSTANTS,
    MAX_SUBSTRUCTURE_CONSTANTS,
    MAX_TREE_DEPTH,
    ambient_cap,
)
from .projective import geometry_view, is_independent, verify_bvn_characterization
from .props import is_modular


class StatementKind(str, enum.Enum):
    JOIN_EQ = "join"
    MEET_EQ = "meet"
    DISJOINT = "disjoint"
    HEIGHT_IS = "height"


class Statement(NamedTuple):
    """One atomic fact about named constants.

    Commutative operand pairs are stored sorted, so equal facts compare equal.
    ``value`` carries the height; -1 means not applicable.  A statement is a
    plain tuple whose kind is a str, so sets of statements hash in C.
    """

    kind: StatementKind
    operands: tuple[str, ...]
    value: int = -1

    @staticmethod
    def join_eq(a: str, b: str, result: str) -> "Statement":
        return Statement(StatementKind.JOIN_EQ, (min(a, b), max(a, b), result))

    @staticmethod
    def meet_eq(a: str, b: str, result: str) -> "Statement":
        return Statement(StatementKind.MEET_EQ, (min(a, b), max(a, b), result))

    @staticmethod
    def disjoint(a: str, b: str) -> "Statement":
        return Statement(StatementKind.DISJOINT, (min(a, b), max(a, b)))

    @staticmethod
    def height_is(a: str, h: int) -> "Statement":
        return Statement(StatementKind.HEIGHT_IS, (a,), h)

    def map(self, f) -> "Statement":
        """The same fact with every operand renamed by ``f``, the commutative
        operand pair sorted again."""
        ops = tuple(f(o) for o in self.operands)
        if len(ops) > 1:
            ops = (min(ops[:2]), max(ops[:2])) + ops[2:]
        return Statement(self.kind, ops, self.value)

    def sort_key(self):
        return (self.kind.value, self.operands, self.value)


# Statements built in bulk skip the named tuple's Python-level __new__, and
# the hot loops read the kinds from module globals, not the enum class.
_new = tuple.__new__
_JOIN_EQ = StatementKind.JOIN_EQ
_MEET_EQ = StatementKind.MEET_EQ
_DISJOINT = StatementKind.DISJOINT
_HEIGHT_IS = StatementKind.HEIGHT_IS

# The bound constants every structure holds.
ZERO, ONE = "0", "1"


@dataclass(frozen=True)
class PartialStructure:
    """Immutable set of constants plus statements, with a depth budget."""

    constants: tuple[str, ...]
    statements: frozenset[Statement]
    depth_bound: int
    counter: int = 0

    # ----- queries --------------------------------------------------------

    @functools.cached_property
    def _heights(self) -> dict[str, int]:
        index: dict[str, int] = {}
        for st in self.statements:
            if st.kind is StatementKind.HEIGHT_IS:
                index.setdefault(st.operands[0], st.value)
        return index

    @functools.cached_property
    def _splits(self) -> dict[str, tuple[str, str]]:
        """Per symbol, the least (b, c) with b join c = symbol (symbol
        neither part) whose parts are declared disjoint."""
        index: dict[str, tuple[str, str]] = {}
        for st in self.statements:
            if st.kind is not StatementKind.JOIN_EQ:
                continue
            b, c, symbol = st.operands
            if symbol in (b, c) or Statement.disjoint(b, c) not in self.statements:
                continue
            if symbol not in index or (b, c) < index[symbol]:
                index[symbol] = (b, c)
        return index

    @functools.cached_property
    def _plan(self) -> tuple[tuple[Statement, ...], ...]:
        """The search plan: per constant in declaration order, the statements
        whose last operand in that order it is, checked once it has its
        image.  It depends on the structure alone, so every search of the
        structure, in any lattice and under any pins, shares it."""
        pos = {c: i for i, c in enumerate(self.constants)}.__getitem__
        by_last: list[list[Statement]] = [[] for _ in self.constants]
        for st in self.statements:
            by_last[max(map(pos, st.operands))].append(st)
        return tuple(map(tuple, by_last))

    def height_of(self, symbol: str) -> int | None:
        return self._heights.get(symbol)

    def split_of(self, symbol: str) -> tuple[str, str] | None:
        """The recorded disjoint split (b, c) with b join c = symbol, if any;
        the lexicographically least one when several are recorded."""
        return self._splits.get(symbol)

    def leaves(self) -> tuple[str, ...]:
        """Constants declared at height 1, in declaration order."""
        return tuple(c for c in self.constants if self.height_of(c) == 1)

    def sorted_statements(self) -> tuple[Statement, ...]:
        return tuple(sorted(self.statements, key=Statement.sort_key))

    # ----- growth ---------------------------------------------------------

    def extend(self, constants=(), statements=(), counter=None) -> "PartialStructure":
        """New structure with extra constants and statements.

        Closure statements ``0 join c = c`` and ``c join 1 = 1`` are added
        for the new constants only: every structure is grown from
        :func:`initial_structure` by ``extend`` and ``renamed``, so its own
        constants already have them.  Only the new statements are validated,
        in the order given, against a copy of this structure's height index
        that becomes the child's.
        Raises UnknownConstant for statements about undeclared constants,
        DepthExhausted for declared heights above the depth bound, and
        ValueError for a height that contradicts one already declared.
        """
        new_consts = tuple(constants)
        for c in new_consts:
            if c in self.constants or new_consts.count(c) > 1:
                raise ValueError(f"constant {c!r} is already declared")
        all_consts = self.constants + new_consts
        known = set(all_consts)

        stmts = set(self.statements)
        heights = dict(self._heights)
        for st in statements:
            for op in st.operands:
                if op not in known:
                    raise UnknownConstant(
                        f"statement names unknown constant {op!r}", witness=(op,)
                    )
            if st.kind is StatementKind.HEIGHT_IS:
                symbol = st.operands[0]
                if st.value < 0 or st.value > self.depth_bound:
                    raise DepthExhausted(
                        f"height {st.value} for {symbol!r} is outside "
                        f"the depth bound {self.depth_bound}"
                    )
                # The existing height is named first.
                prev = heights.setdefault(symbol, st.value)
                if prev != st.value:
                    raise ValueError(
                        f"conflicting heights {prev} and {st.value} for {symbol!r}"
                    )
            stmts.add(st)
        for c in new_consts:
            stmts.add(Statement.join_eq(ZERO, c, c))
            stmts.add(Statement.join_eq(c, ONE, ONE))

        child = PartialStructure(
            constants=all_consts,
            statements=frozenset(stmts),
            depth_bound=self.depth_bound,
            counter=self.counter if counter is None else counter,
        )
        # Seed the cached height index, which would otherwise rescan everything.
        child.__dict__["_heights"] = heights
        return child

    def renamed(self, mapping: dict[str, str]) -> "PartialStructure":
        """Rename constants (bounds excluded); statements follow."""
        for old in mapping:
            if old in (ZERO, ONE):
                raise ValueError("cannot rename the bound constants")
            if old not in self.constants:
                raise UnknownConstant(f"unknown constant {old!r}", witness=(old,))
        sub = lambda s: mapping.get(s, s)
        new_consts = tuple(sub(c) for c in self.constants)
        if len(set(new_consts)) != len(new_consts):
            raise ValueError("renaming collides constants")
        return PartialStructure(
            constants=new_consts,
            statements=frozenset(st.map(sub) for st in self.statements),
            depth_bound=self.depth_bound,
            counter=self.counter,
        )


def initial_structure(depth_bound: int) -> PartialStructure:
    """The two bounds with 0 join 1 = 1, h(0)=0 and h(1)=depth_bound."""
    if depth_bound < 1:
        raise ValueError("depth bound must be >= 1")
    seed = PartialStructure(
        constants=(), statements=frozenset(), depth_bound=depth_bound
    )
    return seed.extend(
        constants=(ZERO, ONE),
        statements=(
            Statement.join_eq(ZERO, ONE, ONE),
            Statement.height_is(ZERO, 0),
            Statement.height_is(ONE, depth_bound),
        ),
    )


def split_element(
    structure: PartialStructure, symbol: str, heights: tuple[int, int] | None = None
) -> PartialStructure:
    """Split a constant into two fresh disjoint parts re-joining to it.

    The parts' declared heights are positive and sum to the parent's height;
    by default the split is as even as possible.  Raises DepthExhausted when
    the parent's height is below 2.
    """
    if symbol not in structure.constants:
        raise UnknownConstant(f"unknown constant {symbol!r}", witness=(symbol,))
    h = structure.height_of(symbol)
    if h is None:
        raise UnknownConstant(f"{symbol!r} has no declared height", witness=(symbol,))
    if h < 2:
        raise DepthExhausted(
            f"cannot split {symbol!r} at height {h}", witness=(symbol,)
        )
    if heights is None:
        heights = ((h + 1) // 2, h // 2)
    hb, hc = heights
    if hb < 1 or hc < 1 or hb + hc != h:
        raise ValueError("split heights must be positive and sum to the parent's")

    k = structure.counter + 1
    b, c = f"b{k}", f"c{k}"
    return structure.extend(
        constants=(b, c),
        statements=(
            Statement.join_eq(b, c, symbol),
            Statement.join_eq(b, symbol, symbol),
            Statement.join_eq(c, symbol, symbol),
            Statement.disjoint(b, c),
            Statement.height_is(b, hb),
            Statement.height_is(c, hc),
        ),
        counter=k,
    )


def add_split_alternative(
    structure: PartialStructure, symbol: str, part: str, other: str
) -> PartialStructure:
    """Add a third part distinct from an existing split of ``symbol``.

    Requires the split ``part join other = symbol`` (with disjointness) to be
    recorded.  The new constant re-derives the parent: it joins with
    ``other`` to ``symbol``, is disjoint from ``other``, and has ``part``'s
    height.  Distinctness from the old parts is inherent: distinct constants
    realize injectively.
    """
    joined = Statement.join_eq(part, other, symbol)
    apart = Statement.disjoint(part, other)
    if joined not in structure.statements or apart not in structure.statements:
        raise MissingSplit(
            f"no recorded split of {symbol!r} into {part!r} and {other!r}",
            witness=(symbol, part, other),
        )
    h = structure.height_of(part)
    alt = part + "'"
    while alt in structure.constants:
        alt += "'"
    stmts = [
        Statement.join_eq(alt, other, symbol),
        Statement.join_eq(alt, symbol, symbol),
        Statement.disjoint(alt, other),
    ]
    if h is not None:
        stmts.append(Statement.height_is(alt, h))
    return structure.extend(constants=(alt,), statements=stmts)


def saturate_splits(structure: PartialStructure) -> PartialStructure:
    """Split every unsplit constant of height >= 2 until only atoms remain.

    Splits are as even as possible, so a structure started at depth 2^d
    becomes a perfect binary split tree with 2^d height-1 leaves.

    One pass over the constants in declaration order, each split appending
    its two fresh parts: heights never change and a split marks only its own
    target, so no constant passed can become due, and the given structure
    says which constants were split on entry.
    """
    out = structure
    queue = list(structure.constants)
    for c in queue:
        h = out.height_of(c)
        if h is not None and h >= 2 and structure.split_of(c) is None:
            out = split_element(out, c)
            queue.extend(out.constants[-2:])
    return out


def build_tree(depth: int) -> PartialStructure:
    """Perfect binary split tree of the given depth.

    The root receives height 2^depth and every split is even, so the tree
    has exactly 2^depth height-1 leaves, renamed p1..p{2^depth}.
    """
    if not 1 <= depth <= MAX_TREE_DEPTH:
        raise SizeBound(f"tree depth must be between 1 and {MAX_TREE_DEPTH}")
    s = saturate_splits(initial_structure(2**depth))
    renames = {c: f"p{i + 1}" for i, c in enumerate(s.leaves())}
    return s.renamed(renames)


def triple_split_structure() -> PartialStructure:
    """Two disjoint atoms joining to a height-2 top, plus a third alternative.

    The smallest structure that separates boolean from non-boolean targets:
    it has no realization in any powerset lattice but realizes in the
    diamond and in rank-2 subspace lattices.
    """
    s = split_element(initial_structure(2), ONE)
    b, c = s.split_of(ONE)
    return add_split_alternative(s, ONE, b, c)


# ----- realizations -------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Realization:
    """Injective bound/statement-preserving assignment of constants."""

    structure: PartialStructure
    lattice: FiniteLattice
    mapping: dict[str, ElementId]

    def as_labels(self) -> dict[str, str]:
        return {c: self.lattice.labels[e] for c, e in self.mapping.items()}


def _all_hold(statements, image, lat: FiniteLattice) -> bool:
    """Does every statement hold with each constant read as ``image[constant]``
    in the lattice's meet, join and height tables?"""
    meet, join, height = lat.meet_table.item, lat.join_table.item, lat.heights.item
    for kind, ops, value in statements:
        if kind is _HEIGHT_IS:
            ok = height(image[ops[0]]) == value
        elif kind is _JOIN_EQ:
            ok = join(image[ops[0]], image[ops[1]]) == image[ops[2]]
        elif kind is _MEET_EQ:
            ok = meet(image[ops[0]], image[ops[1]]) == image[ops[2]]
        else:
            ok = meet(image[ops[0]], image[ops[1]]) == lat.bottom
        if not ok:
            return False
    return True


def satisfies(
    structure: PartialStructure, lat: FiniteLattice, mapping: dict[str, ElementId]
) -> bool:
    """Direct evaluation: does the mapping realize the structure?

    Used by the search below only through its result, so it doubles as an
    independent check on any claimed realization.
    """
    try:
        values = [mapping[c] for c in structure.constants]
    except KeyError:
        return False
    if len(set(values)) != len(values):
        return False
    if mapping[ZERO] != lat.bottom or mapping[ONE] != lat.top:
        return False
    return _all_hold(structure.statements, mapping, lat)


def find_realization(
    structure: PartialStructure,
    lat: FiniteLattice,
    pin: dict[str, ElementId] | None = None,
) -> Realization | None:
    """Exhaustive backtracking search for a realization.

    Constants are assigned in declaration order and candidate elements tried
    ascending, so the first hit is the lexicographically least realization.
    ``pin`` fixes chosen constants to given elements.  Returns None when no
    realization exists.
    """
    cap = _run_cap or ambient_cap()
    if lat.size > cap:
        raise SizeBound(f"realization search is capped at {cap} elements")
    consts = structure.constants
    if len(consts) > MAX_REALIZATION_CONSTANTS:
        raise SizeBound(
            f"realization search is capped at {MAX_REALIZATION_CONSTANTS} constants"
        )
    pin = dict(pin or {})
    for c in pin:
        if c not in consts:
            raise UnknownConstant(f"pinned constant {c!r} is undeclared", witness=(c,))

    # A pin is one candidate, kept only if it is an element of the declared
    # height (or the bound itself); an unpinned constant takes every element
    # of its height, from the lattice's shared per-height tuples.
    heights = lat.heights
    domains: list[tuple[ElementId, ...] | range] = []
    for c in consts:
        h = structure.height_of(c)
        if c == ZERO or c == ONE:
            bound = lat.bottom if c == ZERO else lat.top
            ok = (h is None or heights[bound] == h) and (c not in pin or pin[c] == bound)
            dom = (bound,) if ok else ()
        elif c in pin:
            e = pin[c]
            ok = e in range(lat.size) and (h is None or heights[int(e)] == h)
            dom = (int(e),) if ok else ()
        else:
            dom = range(lat.size) if h is None else lat.at_height(h)
        if not dom:
            return None
        domains.append(dom)

    by_last = structure._plan
    image: dict[str, int] = {}
    used: set[int] = set()

    def search(k: int) -> bool:
        if k == len(consts):
            return True
        c, checks = consts[k], by_last[k]
        for e in domains[k]:
            if e in used:
                continue
            image[c] = e
            if _all_hold(checks, image, lat):
                used.add(e)
                if search(k + 1):
                    return True
                used.discard(e)
        return False

    found = search(0)
    del search  # it holds itself through its closure: free this call's state now
    if not found:
        return None
    return Realization(structure, lat, {c: int(image[c]) for c in consts})


# ----- boolean sublattices, closure ---------------------------------------


@dataclass(frozen=True)
class BooleanSublattice:
    """A boolean sublattice of an ambient lattice, given by its elements.

    ``blocks`` are its atoms: pairwise-disjoint ambient elements joining to
    the ambient top; the sublattice is all subset-joins of the blocks.
    """

    elements: tuple[ElementId, ...]
    blocks: tuple[ElementId, ...]


def _close_blocks(
    bottom: int, meet_t: list[list[int]], join_t: list[list[int]], blocks: list[int]
) -> BooleanSublattice | None:
    k = len(blocks)
    joins = [bottom] * (1 << k)
    for mask in range(1, 1 << k):
        low = (mask & -mask).bit_length() - 1
        joins[mask] = join_t[joins[mask ^ (1 << low)]][blocks[low]]
    if len(set(joins)) != 1 << k:
        return None
    for i in range(1 << k):
        row = meet_t[joins[i]]
        for j in range(i, 1 << k):
            if row[joins[j]] != joins[i & j]:
                return None
    return BooleanSublattice(tuple(sorted(set(joins))), tuple(blocks))


# lattice -> [sublattices in enumeration order, per-element bits]: bit i of
# bits[e] says sublattice i contains element e.  The bits are filled in on
# the first query that names elements.  An entry is made once per lattice
# object and dropped with it.
_SUBLATTICES = weakref.WeakKeyDictionary()


def _all_boolean_sublattices(lat: FiniteLattice) -> list[BooleanSublattice]:
    """Grow disjoint block decompositions of the top; keep those whose
    subset-joins form a boolean sublattice.

    A candidate block z is admitted only when it meets the join of the
    blocks so far at the bottom.  This drops nothing: in a boolean
    sublattice the joins of disjoint sets of atoms meet at the bottom, so a
    decomposition containing the blocks and z would be rejected by
    :func:`_close_blocks` anyway.

    Candidates are read off per-element lists of the non-zero elements
    meeting it at the bottom.  The subset-joins of the blocks are built along
    the search path, and a decomposition that reaches the top is emitted
    without a close when it is boolean by theorem:

    * one or two blocks, in any lattice: every block is non-zero, a first
      block is not the top (it would have reached it alone), and a second
      block b meets the first block a at the bottom, so b is not the top
      either; {0, 1} and {0, a, b, 1} are distinct elements closed under
      both operations.  This reads the tables as lattice operations: tables
      that break the lattice laws themselves are not re-checked here;
    * three or more blocks in a modular lattice: blocks with
      (b_1 join ... join b_{i-1}) meet b_i = 0 for each i are independent,
      and k independent non-zero elements generate a sublattice isomorphic
      to 2^k (Birkhoff, *Lattice Theory*, independence in modular lattices;
      von Neumann, *Continuous Geometry*, Part I).  The premise,
      ``tables_match_order()`` and modularity, is decided once, at the first
      such decomposition; without it :func:`_close_blocks` decides.
    """
    max_blocks = max(lat.size.bit_length() - 1, 1)
    meet_t, join_t = lat.meet_table.tolist(), lat.join_table.tolist()
    bottom, top = lat.bottom, lat.top
    # disjoint[x]: the non-zero elements that meet x at the bottom, ascending.
    apart = lat.meet_table == bottom
    apart[:, bottom] = False
    disjoint = [np.flatnonzero(row).tolist() for row in apart]
    out: list[BooleanSublattice] = []
    modular = None  # the premise, decided at the first leaf that needs it

    def grow(blocks: list[int], joins: list[int], start: int):
        nonlocal modular
        cands = disjoint[joins[-1]]
        deeper = len(blocks) + 1 < max_blocks
        three_or_more = len(blocks) >= 2
        for z in cands[bisect.bisect_left(cands, start):]:
            grown = joins + [join_t[j][z] for j in joins]
            if grown[-1] != top:
                if deeper:
                    grow(blocks + [z], grown, z + 1)
                continue
            if three_or_more:
                if modular is None:
                    modular = lat.tables_match_order() and is_modular(lat).holds
                if not modular:
                    sub = _close_blocks(bottom, meet_t, join_t, blocks + [z])
                    if sub is not None:
                        out.append(sub)
                    continue
            grown.sort()
            out.append(BooleanSublattice(tuple(grown), (*blocks, z)))

    grow([], [bottom], 0)
    del grow  # it holds itself through its closure: free this call's state now
    out.sort(key=lambda s: (len(s.elements), s.elements))
    return out


def _memo(lat: FiniteLattice) -> list:
    """The lattice's memo entry, made on first use; checks the ambient cap."""
    cap = _run_cap or ambient_cap()
    if lat.size > cap:
        raise SizeBound(f"sublattice enumeration is capped at {cap} elements")
    entry = _SUBLATTICES.get(lat)
    if entry is None:
        entry = _SUBLATTICES[lat] = [_all_boolean_sublattices(lat), None]
    return entry


def _containing(entry: list, size: int, elements) -> int:
    """Bits of the memoized sublattices that contain every given element:
    the AND of the elements' bits, which are filled in on first use."""
    subs, bits = entry
    if bits is None:
        member = np.zeros((size, len(subs)), dtype=bool)
        member[
            list(itertools.chain.from_iterable(sub.elements for sub in subs)),
            np.repeat(np.arange(len(subs)), [len(sub.elements) for sub in subs]),
        ] = True
        packed = np.packbits(member, axis=1, bitorder="little")
        bits = entry[1] = [int.from_bytes(row.tobytes(), "little") for row in packed]
    cand = (1 << len(subs)) - 1
    for e in elements:
        cand &= bits[e]
    return cand


def enumerate_boolean_sublattices(
    lat: FiniteLattice, must_contain=()
) -> list[BooleanSublattice]:
    """All boolean sublattices sharing the ambient bottom and top.

    Each is generated by a disjoint block decomposition of the top; the
    decomposition's subset-joins must be distinct and meet-compatible.
    Enumeration runs once per lattice object; later calls read the memo's
    per-element index.  Returns a fresh list, in enumeration order.
    """
    entry = _memo(lat)
    subs = entry[0]
    required = [int(e) for e in must_contain]
    if not required:
        return list(subs)
    if any(not 0 <= e < lat.size for e in required):
        return []  # no element has such an id
    cand = _containing(entry, lat.size, required)
    raw = np.frombuffer(cand.to_bytes((len(subs) + 7) // 8, "little"), dtype=np.uint8)
    return [subs[i] for i in np.flatnonzero(np.unpackbits(raw, bitorder="little"))]


def _anchored_realization(structure, ambient, realization):
    if realization is None:
        realization = find_realization(structure, ambient)
    if realization is None:
        raise RealizationMissing(
            f"structure has no realization in {ambient.name}"
        )
    return realization


@dataclass(frozen=True, eq=False)
class ClosureResult:
    """Statements common to all full boolean extensions of a constant set."""

    statements: frozenset[Statement]
    new_constants: tuple[str, ...]
    naming: dict[str, ElementId]
    elements: tuple[ElementId, ...]


def boolean_closure(
    structure: PartialStructure,
    constants,
    ambient: FiniteLattice,
    realization: Realization | None = None,
) -> ClosureResult | None:
    """Intersect every full boolean extension of ``constants`` in the ambient.

    Returns the join/meet/disjointness/height statements shared by all such
    extensions, phrased over existing constant names plus fresh ones for
    shared elements the structure does not name yet.  Returns None when no
    boolean sublattice extends the whole constant set.
    """
    symbols = tuple(sorted(set(constants)))
    for c in symbols:
        if c not in structure.constants:
            raise UnknownConstant(f"unknown constant {c!r}", witness=(c,))
    if len(symbols) > MAX_SUBSTRUCTURE_CONSTANTS:
        raise SizeBound(
            f"closure is capped at {MAX_SUBSTRUCTURE_CONSTANTS} constants"
        )
    f = _anchored_realization(structure, ambient, realization)
    elements = _shared_elements(_memo(ambient), ambient.size, [f.mapping[c] for c in symbols])
    if elements is None:
        return None
    return _closure_over(structure, f.mapping, ambient, elements)


def _shared_elements(
    entry: list, size: int, images: list[ElementId]
) -> tuple[ElementId, ...] | None:
    """Ascending elements of every boolean sublattice through the images, or
    None when there is no such sublattice; ``entry`` is the ambient's memo
    entry and ``size`` its element count."""
    cand = _containing(entry, size, images)
    if not cand:
        return None
    # Shared elements lie in the first candidate, the smallest one; each is
    # shared iff its bits cover the candidates'.
    subs, bits = entry
    first = subs[(cand & -cand).bit_length() - 1]
    return tuple([e for e in first.elements if bits[e] & cand == cand])


def _closure_over(
    structure: PartialStructure,
    mapping: dict[str, ElementId],
    ambient: FiniteLattice,
    elements: tuple[ElementId, ...],
) -> ClosureResult:
    """The closure on the shared elements: existing names under the
    mapping, fresh ones for the rest, and every statement among them."""
    consts = structure.constants
    name_of: dict[ElementId, str] = dict(zip(map(mapping.__getitem__, consts), consts))
    fresh: list[str] = []
    serial = 0
    for e in elements:
        if e not in name_of:
            serial += 1
            sym = f"q{serial}"
            while sym in structure.constants or sym in fresh:
                serial += 1
                sym = f"q{serial}"
            name_of[e] = sym
            fresh.append(sym)

    stmts = frozenset(_statements_among(elements, name_of, ambient))
    naming = {name_of[e]: e for e in elements}
    return ClosureResult(stmts, tuple(fresh), naming, elements)


def _statements_among(elements, name_of: dict[ElementId, str], lat: FiniteLattice):
    """Every statement among the elements, each element named by ``name_of``:
    its height, and per pair their join, their meet and, when the meet is the
    bottom, their disjointness.  Table entries are read as Python ints and
    each statement is made as its tuple, the pair's names in sorted order."""
    join, meet, height = lat.join_table.item, lat.meet_table.item, lat.heights.item
    bottom = lat.bottom
    names = [name_of[e] for e in elements]
    for a, e in zip(names, elements):
        yield _new(Statement, (_HEIGHT_IS, (a,), height(e)))
    for i, (a, x) in enumerate(zip(names, elements), 1):
        for b, y in zip(names[i:], elements[i:]):
            pair = (a, b) if a <= b else (b, a)
            m = meet(x, y)
            yield _new(Statement, (_JOIN_EQ, (*pair, name_of[join(x, y)]), -1))
            yield _new(Statement, (_MEET_EQ, (*pair, name_of[m]), -1))
            if m == bottom:
                yield _new(Statement, (_DISJOINT, pair, -1))


def apply_closure(
    structure: PartialStructure, closure: ClosureResult
) -> PartialStructure:
    """Extend the structure by a closure's fresh constants and statements."""
    return structure.extend(closure.new_constants, closure.statements)


def derive_independent_atoms(
    structure: PartialStructure,
    lat: FiniteLattice,
    realization: Realization | None = None,
) -> tuple[ElementId, ...]:
    """Greedily select leaf images whose running join climbs one per step.

    Walks the structure's height-1 constants in declaration order, keeping
    each image that is not yet below the running join and raises its height
    by exactly one.  On height-law targets the result is an independent atom
    set spanning the image of the root.
    """
    f = _anchored_realization(structure, lat, realization)
    chosen: list[ElementId] = []
    running = lat.bottom
    for c in structure.leaves():
        e = f.mapping[c]
        if lat.le(e, running):
            continue
        stepped = lat.join(running, e)
        if lat.height(stepped) == lat.height(running) + 1:
            chosen.append(e)
            running = stepped
    return tuple(chosen)


# ----- probe structures -----------------------------------------------------


def line_probe_structure(depth_bound: int) -> PartialStructure:
    """Two atoms spanning a line, plus a third alternative part.

    Realizable in a lattice (with the line pinned) exactly when that line
    carries a third point.  For depth 2 the line is the top itself.
    """
    s = initial_structure(depth_bound)
    if depth_bound == 2:
        line = ONE
    else:
        line = "l"
        s = s.extend((line,), (Statement.height_is(line, 2),))
    s = s.extend(
        ("x", "y"),
        (
            Statement.height_is("x", 1),
            Statement.height_is("y", 1),
            Statement.join_eq("x", "y", line),
            Statement.disjoint("x", "y"),
        ),
    )
    return add_split_alternative(s, line, "x", "y")


def atom_pair_structure(depth_bound: int) -> PartialStructure:
    """Bounds plus two unconstrained atoms."""
    s = initial_structure(depth_bound)
    return s.extend(
        ("x", "y"),
        (Statement.height_is("x", 1), Statement.height_is("y", 1)),
    )


def coplanar_lines_structure(depth_bound: int) -> PartialStructure:
    """Two distinct lines joining to a common plane.

    For depth 3 the plane is the top itself.
    """
    if depth_bound < 3:
        raise ValueError("coplanar lines need a depth bound of at least 3")
    s = initial_structure(depth_bound)
    if depth_bound == 3:
        plane = ONE
    else:
        plane = "pl"
        s = s.extend((plane,), (Statement.height_is(plane, 3),))
    return s.extend(
        ("l1", "l2"),
        (
            Statement.height_is("l1", 2),
            Statement.height_is("l2", 2),
            Statement.join_eq("l1", "l2", plane),
        ),
    )


# ----- end-to-end verification ----------------------------------------------


@dataclass
class PipelineReport:
    """Stage-by-stage outcome of an end-to-end verification run."""

    name: str
    params: dict
    stages: dict[str, dict]

    @property
    def passed(self) -> bool:
        return all(stage["ok"] for stage in self.stages.values())

    def to_dict(self) -> dict:
        return {
            "pipeline": self.name,
            "params": dict(self.params),
            "passed": self.passed,
            "stages": {k: dict(v) for k, v in self.stages.items()},
        }


# A stage's name, whether it held, and its detail.
Stage = tuple[str, bool, str]


def _split_witness_exists(lat: FiniteLattice, e: ElementId, hb: int, hc: int) -> bool:
    # A list, not the tuple: a tuple index would read one entry of a table.
    xs = list(lat.at_height(hb))
    hits = (lat.heights == hc) & (lat.join_table[xs] == e) & (lat.meet_table[xs] == lat.bottom)
    return bool(hits.any())


def _all_splits_realizable(structure, lat, mapping) -> tuple[bool, str]:
    for c in structure.constants:
        h = structure.height_of(c)
        if h is None or h < 2:
            continue
        for hb in range(1, h):
            if not _split_witness_exists(lat, mapping[c], hb, h - hb):
                return False, f"no ({hb},{h - hb}) split below {c!r}"
    return True, "every admissible split has a witness pair"


def _all_closures_realizable(structure, lat, realization) -> tuple[bool, str]:
    """Does every boolean closure of one or more constants (singletons and
    pairs past MAX_SUBSTRUCTURE_CONSTANTS) extend the realization?

    The structure's own statements are checked once.  Each closure then only
    adds its fresh constants and statements, so the extension realizes iff
    the fresh images are new and distinct and every closure statement holds
    under the extended mapping.  The bound statements ``extend`` would add
    for the fresh constants hold in any lattice once 0 and 1 sit at the
    bounds.  A closure is a function of its elements, so groups with the
    same shared elements share one closure, checked once.
    """
    symbols = structure.constants
    if len(symbols) > MAX_SUBSTRUCTURE_CONSTANTS:
        groups = itertools.chain(
            itertools.combinations(symbols, 1), itertools.combinations(symbols, 2)
        )
    else:
        groups = itertools.chain.from_iterable(
            itertools.combinations(symbols, r) for r in range(1, len(symbols) + 1)
        )
    base = realization.mapping
    base_ok = satisfies(structure, lat, base)
    taken = {base[c] for c in symbols}
    entry = _memo(lat)
    checked = 0
    seen: set[tuple[ElementId, ...]] = set()
    for group in groups:
        elements = _shared_elements(entry, lat.size, [base[c] for c in group])
        if elements is None:
            continue
        checked += 1
        if elements in seen:
            continue  # the same closure as an earlier group's, already checked
        seen.add(elements)
        closure = _closure_over(structure, base, lat, elements)
        fresh = {c: closure.naming[c] for c in closure.new_constants}
        images = set(fresh.values())
        mapping = {**base, **fresh}
        ok = (
            base_ok
            and len(mapping) == len(base) + len(fresh)
            and len(images) == len(fresh)
            and taken.isdisjoint(images)
            and _all_hold(closure.statements, mapping, lat)
        )
        if not ok:
            return False, f"closure over {group} is not realizable"
    return True, f"{checked} closures re-realized"


def _closure_covers_lattice(lat: FiniteLattice, closure: ClosureResult) -> bool:
    if set(closure.naming.values()) != set(range(lat.size)):
        return False
    name_of = {e: s for s, e in closure.naming.items()}
    stmts = closure.statements
    return all(st in stmts for st in _statements_among(range(lat.size), name_of, lat))


# The running pipeline's ambient cap, read once per run; None outside one.
# Not a parameter, so find_realization keeps the signature substitutes use.
_run_cap: int | None = None


def _report(name: str, params: dict, stages: Iterable[Stage], cap: int) -> PipelineReport:
    """Run a pipeline's stages in order under ambient cap ``cap``; collect their outcomes."""
    global _run_cap
    _run_cap = cap
    try:
        return PipelineReport(name, params, {s: {"ok": ok, "detail": d} for s, ok, d in stages})
    finally:
        _run_cap = None


def _tree_stages(n: int, lat: FiniteLattice) -> Generator[Stage, None, Realization | None]:
    """Stages shared by both pipelines: realize the saturated split tree of
    depth bound n in the target, then derive n independent atoms from it.
    Returns the tree's realization, or None when there is none."""
    tree = saturate_splits(initial_structure(n))
    f = find_realization(tree, lat)
    yield "tree_realized", f is not None, f"{len(tree.constants)} constants into {lat.name}"
    if f is None:
        return None

    atoms = derive_independent_atoms(tree, lat, f)
    top = lat.join_all(atoms)
    ok = len(atoms) == n and top == lat.top and is_independent(lat, atoms)
    yield "independent_atoms", ok, f"{len(atoms)} atoms, join height {lat.height(top)}"
    return f


def _boolean_stages(n: int, lat: FiniteLattice) -> Iterator[Stage]:
    f = yield from _tree_stages(n, lat)
    if f is None:
        return
    tree = f.structure
    closure = boolean_closure(tree, tree.leaves(), lat, realization=f)
    if closure is None or not _closure_covers_lattice(lat, closure):
        yield "closure_complete", False, "closure incomplete"
        return
    yield "closure_complete", True, "closure names every element with all joins, meets, heights"

    extended = apply_closure(tree, closure)
    mapping = {**f.mapping, **{c: closure.naming[c] for c in closure.new_constants}}
    ok = satisfies(extended, lat, mapping)
    yield "extension_realized", ok, f"{len(extended.constants)} constants after closure"
    yield "splits_realizable", *_all_splits_realizable(extended, lat, mapping)
    full = Realization(extended, lat, mapping)
    yield "closures_realizable", *_all_closures_realizable(extended, lat, full)


def verify_boolean_pipeline(n: int) -> PipelineReport:
    """Grow a split tree under depth bound n, realize it in the powerset
    lattice B_n, derive n independent atoms, and recover all of B_n by
    boolean closure; then confirm every further split or closure stays
    realizable."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > MAX_BOOLEAN_PIPELINE_N:
        raise SizeBound(
            f"the end-to-end boolean pipeline is capped at n={MAX_BOOLEAN_PIPELINE_N}"
        )
    return _report("boolean", {"n": n}, _boolean_stages(n, boolean_lattice(n)), ambient_cap())


def _atom_joins_closed(n: int, lat: FiniteLattice, view) -> tuple[bool, str]:
    """Does every pair of points close to a boolean extension that names
    their join at height 2?"""
    pair = atom_pair_structure(n)
    pairs = list(itertools.combinations(view.points, 2))
    for p, r in pairs:
        real = find_realization(pair, lat, pin={"x": p, "y": r})
        if real is None:
            return False, f"atom pair {p},{r} not realizable"
        closure = boolean_closure(pair, ("x", "y"), lat, realization=real)
        if closure is None:
            return False, f"no boolean extension for atoms {p},{r}"
        joined = lat.join(p, r)
        name = {e: c for c, e in closure.naming.items()}.get(joined)
        if name is None or lat.height(joined) != 2 or not {
            Statement.join_eq("x", "y", name), Statement.height_is(name, 2)
        } <= closure.statements:
            return False, f"join of atoms {p},{r} not recovered at height 2"
    return True, f"{len(pairs)} atom pairs closed with height-2 joins"


def _coplanar_meets_closed(n: int, lat: FiniteLattice, view) -> tuple[bool, str]:
    """Does every pair of coplanar lines close to a boolean extension that
    names their meet at height 1?"""
    if n < 3:
        return True, f"no planes at n={n}"
    cop = coplanar_lines_structure(n)
    plane_const = ONE if n == 3 else "pl"
    checked = 0
    for l1, l2 in itertools.combinations(view.lines, 2):
        plane = lat.join(l1, l2)
        if lat.height(plane) != 3:
            continue
        real = find_realization(cop, lat, pin={"l1": l1, "l2": l2, plane_const: plane})
        if real is None:
            return False, f"lines {l1},{l2} not realizable"
        closure = boolean_closure(cop, ("l1", "l2", plane_const), lat, realization=real)
        if closure is None:
            return False, f"no boolean extension for lines {l1},{l2}"
        name = {e: c for c, e in closure.naming.items()}.get(lat.meet(l1, l2))
        if name is None or not {
            Statement.meet_eq("l1", "l2", name), Statement.height_is(name, 1)
        } <= closure.statements:
            return False, f"meet of lines {l1},{l2} not at height 1"
        checked += 1
    return True, f"{checked} coplanar pairs closed with height-1 meets"


def _projective_stages(n: int, lat: FiniteLattice) -> Iterator[Stage]:
    character = verify_bvn_characterization(lat, n)
    yield "characterization", character.passed, (
        "all clauses hold" if character.passed else f"failing: {', '.join(character.failing())}"
    )
    if (yield from _tree_stages(n, lat)) is None:
        return

    view = geometry_view(lat)
    if n < 2:
        yield "third_point_per_line", True, "no lines at n=1"
        yield "third_point_absent_boolean", True, "no lines at n=1"
    else:
        probe = line_probe_structure(n)
        line_const = ONE if n == 2 else "l"

        def third_point(target, line):
            return find_realization(probe, target, pin={line_const: line}) is not None

        missing = [lat.labels[l] for l in view.lines if not third_point(lat, l)]
        yield "third_point_per_line", not missing, (
            f"no third point on {missing}" if missing else f"{len(view.lines)} lines probed"
        )
        boolean = boolean_lattice(n)
        blines = geometry_view(boolean).lines
        found = [boolean.labels[l] for l in blines if third_point(boolean, l)]
        yield "third_point_absent_boolean", not found, (
            f"boolean line {found} admits one"
            if found
            else f"probe unrealizable on all {len(blines)} boolean lines"
        )
    yield "atom_joins_closed", *_atom_joins_closed(n, lat, view)
    yield "coplanar_meets_closed", *_coplanar_meets_closed(n, lat, view)


def verify_projective_pipeline(n: int, q: int) -> PipelineReport:
    """Run the split-tree pipeline against the rank-n subspace lattice over
    GF(q), with the alternative-part operation enabled: check the quantum
    profile, realize the tree, derive independent atoms, give every line a
    third point (impossible in the boolean target), and close coplanar line
    pairs down to a height-1 meet."""
    if n < 1:
        raise ValueError("n must be >= 1")
    # Atom pairs are closed inside the target, so its size is held against
    # the ambient cap before anything is built.
    size = subspace_count(n, q)
    cap = ambient_cap()
    if size > cap:
        raise SizeBound(
            f"{size} subspaces exceeds the sublattice enumeration cap of {cap}"
        )
    lat = subspace_lattice(n, q)
    return _report("projective", {"n": n, "q": q}, _projective_stages(n, lat), cap)
