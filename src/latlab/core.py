"""Finite bounded lattices with explicit order and precomputed bound tables.

A :class:`FiniteLattice` stores element labels, the full ``leq`` relation as a
boolean matrix, the global bottom and top, total meet/join tables, and, once
first needed, its element heights and cover matrix.
Elements are addressed by index (``ElementId``); labels exist for rendering.
Instances are immutable after construction: all arrays are marked read-only.

:func:`build_lattice` is the validating constructor: it closes the given
relation reflexively and transitively, rejects cycles and non-lattices with a
witness, and computes the tables by recursion over covers.  Generators elsewhere in the package reuse
:class:`FiniteLattice` directly, seeding closed-form heights and covers.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    NoBoundingElements,
    NotALattice,
    NotAPartialOrder,
    NotComparable,
    SizeBound,
)
from .limits import chain_cap, element_cap

ElementId = int


def _transitive_closure(rel: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reflexive-transitive closure by squaring, plus the last square.

    The second result counts, for every pair (x, y) of the closed relation,
    the z with x <= z <= y; :func:`build_lattice` reads the cover relation
    off it.  Float32 counts are exact up to 2^24, far above the element cap.
    """
    cur = rel.copy()
    while True:
        f = cur.astype(np.float32)
        square = f @ f
        nxt = cur | (square > 0.5)
        if (nxt == cur).all():
            return nxt, square
        cur = nxt


def _covers_from_square(leq: np.ndarray, square: np.ndarray) -> np.ndarray:
    """Cover matrix of a reflexive relation from ``leq @ leq``: x < y is a
    cover iff x and y are the only z with x <= z <= y."""
    return leq & (square < 2.5) & ~np.eye(leq.shape[0], dtype=bool)


def _graded_covers(leq: np.ndarray, heights: np.ndarray) -> np.ndarray:
    """Cover matrix of a graded order with its rank function: x < y is a
    cover iff x <= y and y sits exactly one rank above x."""
    return leq & (heights[None, :] == heights[:, None] + 1)


def _longest_chain_heights(leq: np.ndarray) -> np.ndarray:
    n = leq.shape[0]
    strict = leq & ~np.eye(n, dtype=bool)
    # y < x implies below(y) is a proper subset of below(x), so sorting by
    # below-counts is a topological order.
    order = np.argsort(leq.sum(axis=0), kind="stable")
    h = np.zeros(n, dtype=np.int32)
    for x in order:
        lows = np.flatnonzero(strict[:, x])
        if lows.size:
            h[x] = h[lows].max() + 1
    return h


class FiniteLattice:
    """Explicit finite lattice over indexed, labelled elements."""

    def __init__(self, labels, leq, bottom, top, meet_table, join_table, name=""):
        self.labels = tuple(str(lab) for lab in labels)
        self.size = len(self.labels)
        self.name = name or f"lattice{self.size}"
        self.leq = np.ascontiguousarray(leq, dtype=bool)
        self.bottom = int(bottom)
        self.top = int(top)
        self.meet_table = np.ascontiguousarray(meet_table, dtype=np.int32)
        self.join_table = np.ascontiguousarray(join_table, dtype=np.int32)
        for arr in (self.leq, self.meet_table, self.join_table):
            arr.setflags(write=False)
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        self._tables_match_order: bool | None = None

    def __repr__(self):
        return f"FiniteLattice({self.name!r}, size={self.size})"

    # ----- basic queries -------------------------------------------------

    def le(self, x: ElementId, y: ElementId) -> bool:
        """True iff x <= y."""
        return bool(self.leq[x, y])

    def meet(self, x: ElementId, y: ElementId) -> ElementId:
        return int(self.meet_table[x, y])

    def join(self, x: ElementId, y: ElementId) -> ElementId:
        return int(self.join_table[x, y])

    @functools.cached_property
    def heights(self) -> np.ndarray:
        """Read-only longest-chain heights from bottom, per element.

        Computed on first use, unless a constructor that already knows them
        seeded them, and shared by every caller.
        """
        heights = _longest_chain_heights(self.leq)
        heights.setflags(write=False)
        return heights

    def _set_heights(self, heights: np.ndarray) -> None:
        heights.setflags(write=False)
        self.heights = heights

    def height(self, x: ElementId) -> int:
        """Length of the longest chain from bottom to x."""
        return int(self.heights[x])

    def atoms(self) -> tuple[ElementId, ...]:
        """Elements whose only strict lower bound is bottom."""
        return tuple(int(a) for a in np.flatnonzero(self.heights == 1))

    def complements_of(self, x: ElementId) -> tuple[ElementId, ...]:
        """All y with x meet y = bottom and x join y = top, ascending."""
        mask = (self.meet_table[x] == self.bottom) & (self.join_table[x] == self.top)
        return tuple(int(y) for y in np.flatnonzero(mask))

    def join_all(self, xs) -> ElementId:
        out = self.bottom
        for x in xs:
            out = int(self.join_table[out, x])
        return out

    def meet_all(self, xs) -> ElementId:
        out = self.top
        for x in xs:
            out = int(self.meet_table[out, x])
        return out

    @functools.cached_property
    def covers(self) -> np.ndarray:
        """Read-only cover matrix: [x, y] iff x < y with nothing between.

        Computed on first use, unless a constructor that already knows it
        seeded it, and shared by every caller.
        """
        f = self.leq.astype(np.float32)
        covers = _covers_from_square(self.leq, f @ f)
        covers.setflags(write=False)
        return covers

    def _set_covers(self, covers: np.ndarray) -> None:
        covers.setflags(write=False)
        self.covers = covers

    def upper_neighbors(self) -> list[tuple[ElementId, ElementId]]:
        """Cover pairs (x, y): x < y with nothing strictly between, in
        ascending (x, y) order."""
        return [(int(x), int(y)) for x, y in np.argwhere(self.covers)]

    def tables_match_order(self) -> bool:
        """True iff ``leq`` is a partial order (reflexive, antisymmetric,
        transitive) whose least upper and greatest lower bounds all exist and
        equal the stored join and meet tables.

        Verified once per object; :func:`build_lattice` records it when it
        derives the tables.  The law deciders in :mod:`latlab.props` rest
        their theorem-backed answers on it.
        """
        if self._tables_match_order is None:
            self._tables_match_order = self._verify_tables()
        return self._tables_match_order

    def _verify_tables(self) -> bool:
        leq = self.leq
        if not leq.diagonal().all():
            return False
        if (leq & leq.T & ~np.eye(self.size, dtype=bool)).any():
            return False
        f = leq.astype(np.float32)
        if (((f @ f) > 0.5) & ~leq).any():
            return False
        covers = self.covers
        return _is_join_table(leq, covers, self.join_table) and _is_join_table(
            leq.T, covers.T, self.meet_table
        )

    def index_of(self, label: str) -> ElementId:
        return self._index[label]

    def interval(self, lo: ElementId, hi: ElementId) -> "FiniteLattice":
        """The interval [lo, hi] as a standalone lattice (labels preserved)."""
        if not self.le(lo, hi):
            raise NotComparable(f"{self.labels[lo]} is not below {self.labels[hi]}")
        keep = [int(e) for e in range(self.size) if self.le(lo, e) and self.le(e, hi)]
        labels = [self.labels[e] for e in keep]
        pairs = [
            (i, j)
            for i, x in enumerate(keep)
            for j, y in enumerate(keep)
            if self.le(x, y)
        ]
        return build_lattice(labels, pairs, name=f"{self.name}[{lo},{hi}]")


# Scratch budget of the cover recursion, in table entries per step; a step
# holds at least one element, so scratch stays within max(budget, n^2).
_STEP_ENTRIES = 1 << 22


def _least_upper_bounds(leq: np.ndarray, covers: np.ndarray, rank: np.ndarray) -> np.ndarray | None:
    """Join table of a finite partial order by recursion over upper covers,
    or None when some pair has no least upper bound.

    ``rank`` must strictly increase along the order.  If y <= x then
    x join y = x; otherwise every upper bound of {x, y} lies above some
    cover c of x, so x join y is the least of {c join y : c covers x} and
    exists exactly when that set has a least element (the join-over-covers
    recursion of Ait-Kaci, Boyer, Lincoln & Nasr, "Efficient implementation
    of lattice operations", TOPLAS 1989).

    Elements are renumbered by ascending rank, so the least member of a set,
    when there is one, is its smallest number, and by cover count within a
    rank.  Runs of equal rank and cover count are processed from the top
    down, so every cover's row is final before it is read; each run is one
    vectorised step over its elements and all y at once.
    """
    n = leq.shape[0]
    counts = covers.sum(axis=1)
    perm = np.lexsort((counts, rank))
    inv = np.empty(n, dtype=np.intp)
    inv[perm] = np.arange(n)
    leq = leq[np.ix_(perm, perm)]
    flat = leq.ravel()
    covers = covers[np.ix_(perm, perm)]
    counts = counts[perm]
    rank = rank[perm]
    lub = np.empty((n, n), dtype=np.int32)
    cuts = np.flatnonzero((np.diff(rank) != 0) | (np.diff(counts) != 0)) + 1
    starts = np.concatenate(([0], cuts))
    for lo, hi in zip(starts[::-1].tolist(), np.append(cuts, n)[::-1].tolist()):
        size = int(counts[lo])
        step = max(1, _STEP_ENTRIES // (max(size, 1) * n))
        for a in range(lo, hi, step):
            b = min(a + step, hi)
            xs = np.arange(a, b)[:, None]
            below = leq[:, a:b].T  # [i, y] = y <= a + i
            if size == 0:
                # A maximal element bounds only what lies below it.
                if not below.all():
                    return None
                lub[a:b] = xs
                continue
            ups = np.nonzero(covers[a:b])[1].reshape(b - a, size)
            via = lub[ups]  # [i, k, y] = (k-th cover of a + i) join y
            least = via.min(axis=1)
            if size > 1:
                # int32 indices suffice: n^2 < 2^31 for any table that fits in memory.
                ok = flat[least[:, None, :] * n + via].all(axis=1)
                if not (ok | below).all():
                    return None
            lub[a:b] = np.where(below, xs, least)
    return perm.astype(np.int32)[lub[np.ix_(inv, inv)]]


def _is_join_table(leq: np.ndarray, covers: np.ndarray, table: np.ndarray) -> bool:
    """True iff ``table`` holds the least upper bound of every pair of the
    finite partial order ``leq``.

    By downward induction over the order, table[x, y] is the least upper
    bound iff it is an upper bound of x and y, equals x when y <= x, and
    otherwise lies below table[c, y] for every cover c of x: every upper
    bound of {x, y} other than x lies above some cover of x.  One gather per
    cover pair, so no rank levels and no second table are needed.
    """
    n = leq.shape[0]
    if table.size and (table.min() < 0 or table.max() >= n):
        return False
    idx = np.arange(n, dtype=np.int32)
    below = leq.T  # [x, y] = y <= x
    if not (leq[idx[:, None], table].all() and leq[idx[None, :], table].all()):
        return False
    if not ((table == idx[:, None]) | ~below).all():
        return False
    xs, ups = np.nonzero(covers)
    step = max(1, _STEP_ENTRIES // n)
    for start in range(0, xs.size, step):
        x, c = xs[start : start + step], ups[start : start + step]
        if not (leq[table[x], table[c]] | below[x]).all():
            return False
    return True


def _order_bounds(leq: np.ndarray, covers: np.ndarray, heights: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(meet, join) tables of a finite partial order, or None when some
    pair lacks a bound.  Meets are joins of the dual order, whose covers are
    the transposed covers and whose rank is the height from the top."""
    join = _least_upper_bounds(leq, covers, heights)
    if join is None:
        return None
    meet = _least_upper_bounds(leq.T, covers.T, heights.max() - heights)
    if meet is None:
        return None
    return meet, join


def _scan_bound_tables(leq: np.ndarray, heights: np.ndarray, labels) -> tuple[np.ndarray, np.ndarray]:
    """Meet/join tables from the order; NotALattice on the first bad pair."""
    n = leq.shape[0]
    big = np.int32(n + 1)
    meet = np.empty((n, n), dtype=np.int32)
    join = np.empty((n, n), dtype=np.int32)
    idx = np.arange(n)
    for x in range(n):
        # join: least common upper bound.  The lub, when it exists, is the
        # unique minimum-height common upper bound dominating all others.
        cu = leq[x][None, :] & leq  # [y, z] = (x <= z) and (y <= z)
        cand = np.where(cu, heights[None, :], big).argmin(axis=1)
        sizes = cu.sum(axis=1)
        dominated = (cu & leq[cand]).sum(axis=1)
        ok = cu[idx, cand] & (dominated == sizes)
        if not ok.all():
            y = int(np.flatnonzero(~ok)[0])
            raise NotALattice(
                f"elements {labels[x]!r} and {labels[y]!r} have no least upper bound",
                witness=(x, y),
            )
        join[x] = cand

        # meet: greatest common lower bound, dual argument.
        cl = leq[:, x][None, :] & leq.T  # [y, z] = (z <= x) and (z <= y)
        cand = np.where(cl, heights[None, :], np.int32(-1)).argmax(axis=1)
        sizes = cl.sum(axis=1)
        dominates = (cl & leq[:, cand].T).sum(axis=1)
        ok = cl[idx, cand] & (dominates == sizes)
        if not ok.all():
            y = int(np.flatnonzero(~ok)[0])
            raise NotALattice(
                f"elements {labels[x]!r} and {labels[y]!r} have no greatest lower bound",
                witness=(x, y),
            )
        meet[x] = cand
    return meet, join


def build_lattice(labels, leq_pairs, name="") -> FiniteLattice:
    """Validating constructor from labels and a generating order relation.

    ``leq_pairs`` is any iterable of index pairs (i, j) meaning
    element i <= element j; the reflexive-transitive closure is computed.
    Raises NotAPartialOrder, NoBoundingElements, NotALattice, or SizeBound.
    """
    labels = [str(lab) for lab in labels]
    n = len(labels)
    if n == 0:
        raise NoBoundingElements("empty element set has no bottom or top")
    if len(set(labels)) != n:
        raise ValueError("labels must be unique")
    cap = element_cap()
    if n > cap:
        raise SizeBound(f"{n} elements exceeds the cap of {cap}")

    rel = np.eye(n, dtype=bool)
    for i, j in leq_pairs:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"order pair ({i}, {j}) out of range")
        rel[i, j] = True
    leq, square = _transitive_closure(rel)

    sym = leq & leq.T & ~np.eye(n, dtype=bool)
    if sym.any():
        i, j = (int(v) for v in np.argwhere(sym)[0])
        raise NotAPartialOrder(
            f"{labels[i]!r} and {labels[j]!r} lie on a cycle", witness=(i, j)
        )

    bottoms = np.flatnonzero(leq.all(axis=1))
    tops = np.flatnonzero(leq.all(axis=0))
    if bottoms.size != 1 or tops.size != 1:
        raise NoBoundingElements("order has no unique bottom/top pair")
    bottom, top = int(bottoms[0]), int(tops[0])

    heights = _longest_chain_heights(leq)
    covers = _covers_from_square(leq, square)
    tables = _order_bounds(leq, covers, heights)
    if tables is None:
        # The scan names the lexicographically first pair without a bound.
        tables = _scan_bound_tables(leq, heights, labels)
    lat = FiniteLattice(labels, leq, bottom, top, *tables, name=name)
    lat._set_heights(heights)
    lat._set_covers(covers)
    lat._tables_match_order = True
    return lat


@dataclass(frozen=True)
class Chain:
    """Strictly descending sequence of elements of one lattice."""

    lattice: FiniteLattice
    elements: tuple[ElementId, ...]

    def __post_init__(self):
        els = self.elements
        if not els:
            raise ValueError("a chain has at least one element")
        for a, b in zip(els, els[1:]):
            if a == b or not self.lattice.le(b, a):
                raise ValueError("chain elements must strictly descend")

    def __len__(self):
        return len(self.elements)

    @property
    def endpoints(self) -> tuple[ElementId, ElementId]:
        return self.elements[0], self.elements[-1]

    def is_maximal(self) -> bool:
        """True iff every step is a covering step (no element fits between)."""
        covers = self.lattice.covers
        return all(covers[b, a] for a, b in zip(self.elements, self.elements[1:]))


def chains_between(lat: FiniteLattice, a: ElementId, b: ElementId) -> list[Chain]:
    """All chains (maximal and not) between two comparable elements.

    Chains run from the higher end down to the lower; if the arguments come
    in ascending order they are swapped.  Refuses lattices above the chain
    enumeration cap.
    """
    cap = chain_cap()
    if lat.size > cap:
        raise SizeBound(f"chain enumeration is capped at {cap} elements")
    if lat.le(b, a):
        hi, lo = a, b
    elif lat.le(a, b):
        hi, lo = b, a
    else:
        raise NotComparable(
            f"{lat.labels[a]!r} and {lat.labels[b]!r} are incomparable",
            witness=(a, b),
        )
    if hi == lo:
        return [Chain(lat, (hi,))]

    interval = [e for e in range(lat.size) if lat.le(lo, e) and lat.le(e, hi)]
    out: list[Chain] = []

    def descend(prefix: list[ElementId]):
        tail = prefix[-1]
        if tail == lo:
            out.append(Chain(lat, tuple(prefix)))
            return
        for e in interval:
            if e != tail and lat.le(e, tail):
                descend(prefix + [e])

    descend([hi])
    out.sort(key=lambda c: (len(c.elements), c.elements))
    return out


def is_refinement(c1: Chain, c2: Chain) -> bool:
    """True iff c2 is a chain with c1's endpoints whose elements strictly
    contain c1's."""
    if c1.lattice is not c2.lattice:
        return False
    if c1.endpoints != c2.endpoints:
        return False
    s1, s2 = set(c1.elements), set(c2.elements)
    return s1 < s2
