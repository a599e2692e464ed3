"""Finite bounded lattices with explicit order and bound tables.

A :class:`FiniteLattice` stores element labels, the ``leq`` relation as a
boolean matrix, the global bottom and top, and, once first needed, its
element heights, the elements of each height, cover matrix, cover pairs and
total meet/join tables.
Elements are addressed by index (``ElementId``); labels exist for rendering.
Instances are immutable after construction: all arrays are marked read-only.

:func:`build_lattice` is the validating constructor: one topological pass
over the given relation (:func:`_order`) yields its reflexive-transitive
closure, covers and heights and rejects cycles with a witness; the join
table then comes from :func:`_least_upper_bounds`.  The meet table comes
from the same function over the dual order on first read.  For n <= 64
elements it holds each up-set in one uint64, bits numbered along a linear
extension: the least upper bound of x and y, when it exists, is the lowest
set bit z of up(x) & up(y), and it exists iff up(z) == up(x) & up(y) (the
bit-vector encoding of Ait-Kaci, Boyer, Lincoln & Nasr, "Efficient
implementation of lattice operations", TOPLAS 1989).  Larger orders key
each element by the bits of the k elements of exactly one upper cover (the
meet-irreducibles, in a lattice) above it, in ceil(k/64) words: in a
lattice every element is the meet of the meet-irreducibles above it (Davey
& Priestley, "Introduction to Lattices and Order", ch. 2), so the join of
x and y is the element whose key is key[x] & key[y], read from a table of
2^k entries when 2^k <= n^2 and otherwise from a hashed table of about n^2
slots, each hit confirmed against the full key.  They take this route
when their n keys take no more words than they have cover pairs; the
rest, chains and M_n among them, take the recursion over upper covers.
When a kernel finds a pair without a bound, :func:`_raise_missing_bound`
names the lexicographically first one from up-set and down-set bit rows,
without building a table.
Generators elsewhere in the package reuse :class:`FiniteLattice` directly,
seeding in one :meth:`FiniteLattice._seed_forms` call the heights, covers,
``leq``, cover pairs and tables they know, as arrays or as closed forms
evaluated on first read, so a reader of the cover pairs alone builds no
n x n matrix; any other lattice derives heights and covers from ``leq``
with the same pass, on first use.
The law deciders' premise, :meth:`FiniteLattice.tables_match_order`,
recomputes the order, the cover pairs and every table passed in or seeded
with the same algorithms and compares.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np

from .errors import NoBoundingElements, NotALattice, NotAPartialOrder, SizeBound
from .limits import element_cap

ElementId = int


def _order(rel: np.ndarray, labels) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(leq, covers, heights) of the order generated by ``rel``, where
    rel[x, y] says x <= y and ``leq`` is its reflexive-transitive closure.

    Kahn's algorithm orders the elements along the given pairs.  Each
    element's strict upper bounds, held as an int bit row, are its
    successors and their strict upper bounds, swept once in reverse Kahn
    order (Purdom, "A transitive closure algorithm", BIT 10, 1970; bit rows
    as in Ait-Kaci, Boyer, Lincoln & Nasr, TOPLAS 1989).  A path
    x -> z -> y puts z strictly between x and y, so every cover is a given
    pair: a successor of x that lies strictly above no other successor.
    Heights are longest paths over the given pairs, which include every
    cover.  Elements Kahn leaves behind lie on or above a cycle; then
    NotAPartialOrder names the first pair of ``leq & leq.T`` off the
    diagonal, read off the strongly connected components of the leftovers
    (:func:`_first_cycle_pair`) without closing the relation.
    """
    n = rel.shape[0]
    strict = rel & ~np.eye(n, dtype=bool)
    rows, cols = _pairs(strict)
    cuts = np.searchsorted(rows, np.arange(n + 1)).tolist()
    cols = cols.tolist()
    succ = [cols[cuts[x] : cuts[x + 1]] for x in range(n)]
    indeg = strict.sum(axis=0).tolist()

    heights = [0] * n
    order = [x for x in range(n) if not indeg[x]]
    for x in order:
        up = heights[x] + 1
        for y in succ[x]:
            if heights[y] < up:
                heights[y] = up
            indeg[y] -= 1
            if not indeg[y]:
                order.append(y)
    if len(order) < n:
        i, j = _first_cycle_pair([x for x in range(n) if indeg[x]], succ)
        raise NotAPartialOrder(
            f"{labels[i]!r} and {labels[j]!r} lie on a cycle", witness=(i, j)
        )

    width = (n + 7) // 8
    packed = np.packbits(strict, axis=1, bitorder="little").tobytes()
    given = [int.from_bytes(packed[x * width : (x + 1) * width], "little") for x in range(n)]
    above = [0] * n
    covers = [0] * n
    for x in reversed(order):
        reach = 0
        for z in succ[x]:
            reach |= above[z]
        covers[x] = given[x] & ~reach
        above[x] = reach | given[x]

    leq = _bit_matrix([a | 1 << x for x, a in enumerate(above)], n)
    return leq, _bit_matrix(covers, n), np.array(heights, dtype=np.int32)


def _pairs(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indexes of a square bool matrix's true entries in
    row-major order, from its flat indexes: 2-D ``np.nonzero`` is ~10x slower."""
    flat = np.flatnonzero(mask)
    return flat // mask.shape[1], flat % mask.shape[1]


def _first_cycle_pair(left: list[int], succ: list[list[int]]) -> tuple[int, int]:
    """The least (i, j), i != j, with i and j on a common cycle.

    ``left`` holds the elements Kahn's algorithm could not order, ascending.
    Every cycle lies among them, and so does every successor of one, since
    the pair from an unordered element keeps its successor's in-degree
    up.  Two elements share a cycle iff they share a strongly connected
    component, so i is the least element of any component with two or more
    members and j the next least member of that component.  Components come
    from Tarjan's algorithm (SIAM J. Comput. 1, 1972), run iteratively.
    """
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    stack: list[int] = []
    on_stack: set[int] = set()
    best = (len(succ), len(succ))
    for root in left:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(succ[root]))]
        while work:
            x, edges = work[-1]
            for y in edges:
                if y not in index:
                    index[y] = low[y] = len(index)
                    stack.append(y)
                    on_stack.add(y)
                    work.append((y, iter(succ[y])))
                    break
                if y in on_stack:
                    low[x] = min(low[x], index[y])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[x])
                if low[x] == index[x]:
                    component = []
                    while True:
                        y = stack.pop()
                        on_stack.discard(y)
                        component.append(y)
                        if y == x:
                            break
                    if len(component) > 1:
                        best = min(best, tuple(sorted(component)[:2]))
    return best


def _bit_matrix(rows: list[int], n: int) -> np.ndarray:
    """Boolean n x n matrix whose entry [x, y] is bit y of rows[x]."""
    width = (n + 7) // 8
    packed = np.frombuffer(b"".join(r.to_bytes(width, "little") for r in rows), dtype=np.uint8)
    return np.unpackbits(packed.reshape(n, width), axis=1, count=n, bitorder="little").view(bool)


def _graded_covers(leq: np.ndarray, heights: np.ndarray) -> np.ndarray:
    """Cover matrix of a graded order with its rank function: x < y is a
    cover iff x <= y and y sits exactly one rank above x."""
    return leq & (heights[None, :] == heights[:, None] + 1)


class FiniteLattice:
    """Explicit finite lattice over indexed, labelled elements."""

    def __init__(self, labels, leq, bottom, top, meet_table=None, join_table=None, name=""):
        self.labels = tuple(str(lab) for lab in labels)
        self.size = len(self.labels)
        self.name = name or f"lattice{self.size}"
        # ``leq`` may be None only when a constructor seeds it.
        if leq is not None:
            self.leq = np.ascontiguousarray(leq, dtype=bool)
            self.leq.setflags(write=False)
        self.bottom = int(bottom)
        self.top = int(top)
        # Tables passed in and seeded cover pairs or tables are the premise's
        # to check; the others are derived on first read from the
        # lattice's own covers and heights.
        self._given: set[str] = set()
        self._forms: dict = {}
        for attr, table in (("meet_table", meet_table), ("join_table", join_table)):
            if table is not None:
                table = np.ascontiguousarray(table, dtype=np.int32)
                table.setflags(write=False)
                setattr(self, attr, table)
                self._given.add(attr)
        self._index = {lab: i for i, lab in enumerate(self.labels)}
        self._tables_match_order: bool | None = None
        self._at_height: dict[int, tuple[ElementId, ...]] = {}

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

    def _seed_forms(self, **forms) -> None:
        """Seed what a constructor knows of ``heights``, ``covers``,
        ``cover_pairs``, ``leq``, ``meet_table`` or ``join_table``: each the
        attribute's arrays, or a closed form returning them that is
        evaluated on first read.  Every array is frozen when first read.
        Seeded cover pairs and tables count as given: the premise re-derives
        and compares them, and ``leq``, covers and heights it always checks."""
        self._forms.update(forms)
        self._given.update(forms.keys() & {"cover_pairs", "meet_table", "join_table"})

    def _evaluate(self, attr: str, derive: Callable | None = None):
        """What was seeded for ``attr``, or else ``derive``, called once when
        callable; every array it gives is made read-only."""
        value = self._forms.pop(attr, derive)
        if callable(value):
            value = value()
        for arr in value if isinstance(value, tuple) else (value,):
            arr.setflags(write=False)
        return value

    @functools.cached_property
    def leq(self) -> np.ndarray:
        """Read-only order matrix, [x, y] iff x <= y: passed in, or evaluated
        on first read from a seeded form."""
        return self._evaluate("leq")

    @functools.cached_property
    def _derived_order(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only (closure, covers, heights) from one :func:`_order` call
        on ``leq``, shared by the lazy covers and heights and the premise."""
        derived = _order(self.leq, self.labels)
        for arr in derived:
            arr.setflags(write=False)
        return derived

    @functools.cached_property
    def heights(self) -> np.ndarray:
        """Read-only longest-chain heights from bottom, per element.

        Computed on first use, unless a constructor that already knows them
        seeded them, and shared by every caller.  Raises NotAPartialOrder
        when ``leq`` has a cycle.
        """
        return self._evaluate("heights", lambda: self._derived_order[2])

    def height(self, x: ElementId) -> int:
        """Length of the longest chain from bottom to x."""
        return int(self.heights[x])

    def at_height(self, h: int) -> tuple[ElementId, ...]:
        """Ascending elements of height h, found on the first request for h
        and shared by every later one."""
        found = self._at_height.get(h)
        if found is None:
            found = self._at_height[h] = tuple(np.flatnonzero(self.heights == h).tolist())
        return found

    def atoms(self) -> tuple[ElementId, ...]:
        """Elements whose only strict lower bound is bottom."""
        return self.at_height(1)

    def join_all(self, xs) -> ElementId:
        out = self.bottom
        for x in xs:
            out = int(self.join_table[out, x])
        return out

    @functools.cached_property
    def covers(self) -> np.ndarray:
        """Read-only cover matrix: [x, y] iff x < y with nothing between.

        Seeded, set from seeded cover pairs, or computed on first use, and
        shared by every caller.  ``leq`` is read as a generating relation, so
        only its given pairs can be covers.  Raises NotAPartialOrder when
        ``leq`` has a cycle.
        """
        return self._evaluate("covers", self._unseeded_covers)

    def _unseeded_covers(self) -> np.ndarray:
        if "cover_pairs" not in self._given:
            return self._derived_order[1]
        covers = np.zeros((self.size, self.size), dtype=bool)
        covers[self.cover_pairs] = True
        return covers

    @functools.cached_property
    def cover_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only index arrays (xs, ys) of the cover pairs in row-major
        order: evaluated on first read from a seeded form, or read off
        ``covers``."""
        return self._evaluate("cover_pairs", lambda: _pairs(self.covers))

    def upper_neighbors(self) -> list[tuple[ElementId, ElementId]]:
        """Cover pairs (x, y): x < y with nothing strictly between, in
        ascending (x, y) order."""
        xs, ys = self.cover_pairs
        return list(zip(xs.tolist(), ys.tolist()))

    @functools.cached_property
    def meet_table(self) -> np.ndarray:
        """Read-only meet table: passed in, evaluated on first read from a
        seeded form, or derived on first read by :func:`_least_upper_bounds`
        over the dual of the lattice's covers and heights.  Raises
        NotALattice when some pair has no meet."""
        return self._evaluate("meet_table", lambda: self._derived_table(meet=True))

    @functools.cached_property
    def join_table(self) -> np.ndarray:
        """Read-only join table: passed in, seeded or derived like
        ``meet_table``.  Raises NotALattice when some pair has no join."""
        return self._evaluate("join_table", lambda: self._derived_table(meet=False))

    def _bounds(self, meet: bool) -> np.ndarray | None:
        """Join table, or the meet table as the joins of the dual order (its
        covers transposed, its rank the height from the top), by
        :func:`_least_upper_bounds`; None when some pair lacks the bound."""
        if meet:
            return _least_upper_bounds(self.leq.T, self.covers.T, self.heights.max() - self.heights)
        return _least_upper_bounds(self.leq, self.covers, self.heights)

    def _derived_table(self, meet: bool) -> np.ndarray:
        table = self._bounds(meet)
        if table is None:
            _raise_missing_bound(self.leq, self.heights, self.labels)
        return table

    def tables_match_order(self) -> bool:
        """True iff ``leq`` is a partial order whose bounds, covers and
        heights are the stored tables, covers and heights, and whose cover
        pairs, when seeded, are its own in row-major order.

        Recomputed once per object by :func:`_order` and, for each table
        passed in or seeded as a form, :func:`_least_upper_bounds`; a table
        the object derives is that function's output over the covers and
        heights checked here.  :func:`build_lattice` records it when it
        derives the tables.  The law deciders in :mod:`latlab.props` rest
        their theorem-backed answers on it.
        """
        if self._tables_match_order is None:
            self._tables_match_order = self._verify_tables()
        return self._tables_match_order

    def _verify_tables(self) -> bool:
        try:
            leq, covers, heights = self._derived_order
        except NotAPartialOrder:
            return False
        if not (
            np.array_equal(leq, self.leq)
            and np.array_equal(covers, self.covers)
            and np.array_equal(heights, self.heights)
        ):
            return False
        # Seeded pairs must be the derived ones, order and count included.
        if "cover_pairs" in self._given and not all(map(np.array_equal, _pairs(covers), self.cover_pairs)):
            return False
        self._derived_order = (self.leq, self.covers, self.heights)  # equal: drop the copies
        for meet, attr in ((False, "join_table"), (True, "meet_table")):
            if attr in self._given:
                table = self._bounds(meet)
                if table is None or not np.array_equal(table, getattr(self, attr)):
                    return False
            else:
                try:
                    getattr(self, attr)
                except NotALattice:
                    return False
        return True

    def index_of(self, label: str) -> ElementId:
        return self._index[label]


# Scratch budget of the cover recursion, in table entries per step; a step
# holds at least one element, so scratch stays within max(budget, n^2).
_STEP_ENTRIES = 1 << 22

# Scratch budget of the key kernel and of the missing-bound search, in bytes
# of common words per step; a step holds at least one element.
_KEY_STEP_BYTES = 1 << 22

# Orders of at most this many elements hold each up-set in one uint64.
_WORD_BITS = 64

# Odd 64-bit multipliers of the key kernel's hash, tried in this order (the
# constants of splitmix64, MurmurHash3's finalizer and xxHash64).
_MULTIPLIERS = (
    0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB, 0xFF51AFD7ED558CCD,
    0xC4CEB9FE1A85EC53, 0x9E3779B185EBCA87, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9,
    0x85EBCA77C2B2AE63, 0x27D4EB2F165667C5,
)

# What :func:`_key_lubs` returns when no multiplier separates the keys.
_UNSEPARATED = object()


def _least_upper_bounds(leq: np.ndarray, covers: np.ndarray, rank: np.ndarray) -> np.ndarray | None:
    """Join table of a finite partial order, or None when some pair has no
    least upper bound.

    ``rank`` must strictly increase along the order.  Orders of at most 64
    elements take one machine word per up-set (:func:`_word_lubs`).  Larger
    orders with k elements of exactly one upper cover take one key of
    ceil(k/64) words per element (:func:`_key_lubs`) when those words, n
    times over, are no more than the cover pairs: the key kernel does about
    n^2 ceil(k/64) word operations, and the recursion over upper covers
    (:func:`_cover_lubs`) about one row read per cover.  The rest, and any
    order whose keys no listed hash multiplier separates, take the
    recursion.  All three give the same table, and all three give None on
    the same orders.
    """
    n = leq.shape[0]
    if n <= _WORD_BITS:
        return _word_lubs(leq, rank)
    counts = np.count_nonzero(covers, axis=1)
    irreducible = counts == 1
    words = -(-int(np.count_nonzero(irreducible)) // _WORD_BITS)
    if words * n <= int(counts.sum()):
        lub = _key_lubs(leq, irreducible)
        if lub is not _UNSEPARATED:
            return lub
    return _cover_lubs(leq, covers, rank)


def _word_lubs(leq: np.ndarray, rank: np.ndarray) -> np.ndarray | None:
    """:func:`_least_upper_bounds` for n <= 64 from one uint64 per up-set.

    Elements are numbered by a stable argsort of ``rank``, a linear
    extension, and bit k of ``up[x]`` says x <= element number k (the
    bit-vector encoding of Ait-Kaci, Boyer, Lincoln & Nasr, TOPLAS 1989).
    Every common upper bound of x and y lies above their least upper bound,
    so is numbered after it: the lub, when it exists, is the lowest set bit
    z of ``up[x] & up[y]``, and it exists iff ``up[z] == up[x] & up[y]``.
    """
    n = leq.shape[0]
    perm = np.argsort(rank, kind="stable").astype(np.int32)
    bits = np.zeros((n, _WORD_BITS), dtype=bool)
    bits[:, :n] = leq[:, perm]
    up = np.packbits(bits, bitorder="little").view("<u8")
    common = up[:, None] & up[None, :]
    # Powers of two up to 2^63 are exact in float64, so frexp's exponent is
    # the bit's number plus one; an empty intersection gives number -1,
    # which fails the check below, since every up-set holds its own bit.
    number = np.frexp((common & (~common + np.uint64(1))).astype(np.float64))[1] - 1
    lub = perm.take(number)
    if not np.array_equal(up.take(lub), common):
        return None
    return lub


def _key_lubs(leq: np.ndarray, irreducible: np.ndarray) -> np.ndarray | None | object:
    """:func:`_least_upper_bounds` from one key per element, or
    ``_UNSEPARATED`` when no multiplier of ``_MULTIPLIERS`` puts the keys in
    distinct slots.  Bit i of ``key[x]`` says x <= the i-th element marked
    ``irreducible``, those with exactly one upper cover; a key of k bits
    takes ceil(k/64) uint64 words.

    In any order x <= y gives key[y] within key[x].  When every pair has a
    least upper bound, the converse holds too, since every element is the
    meet of the meet-irreducibles above it (Davey & Priestley, "Introduction
    to Lattices and Order", ch. 2), and key[x join y] = key[x] & key[y].  So
    the kernel tests the converse over all pairs, word by word, which also
    makes the keys distinct, and looks each key[x] & key[y] up.  When
    2^k <= n^2 the lookup is a dense table of 2^k entries.  Otherwise it is
    a table of 2^m slots, m the bit length of n^2 - 1, addressed by a
    multiply-shift hash of the key's words (:func:`_key_slots`); every hit
    is confirmed against the found element's full key, so the hash changes
    only speed.  If the converse holds and every lookup finds an element z
    with that key, then z is an upper bound of x and y, and every upper
    bound w has key[w] within key[z], so lies above z: the table is the
    join table.  If either test fails, or two keys are equal, some pair has
    no least upper bound.
    """
    n = leq.shape[0]
    k = int(np.count_nonzero(irreducible))
    words = max(1, -(-k // _WORD_BITS))
    bits = np.zeros((n, words * _WORD_BITS), dtype=bool)
    bits[:, :k] = leq[:, irreducible]
    # [w, x]: word w of key[x], so that each word is one contiguous row.
    key = np.ascontiguousarray(np.packbits(bits, axis=1, bitorder="little").view("<u8").T)
    hashed = 1 << k > n * n
    if hashed:
        m = (n * n - 1).bit_length()
        for mult in _MULTIPLIERS:
            slots = functools.partial(_key_slots, mult=np.uint64(mult), shift=np.uint64(_WORD_BITS - m))
            ranked = np.sort(slots(key))
            if (ranked[1:] != ranked[:-1]).all():
                break
        else:
            # Equal keys share a slot under every multiplier, and make the
            # order no lattice.  (np.unique would import numpy.ma.)
            ranked = key[:, np.lexsort(key)]
            return None if (ranked[:, 1:] == ranked[:, :-1]).all(axis=0).any() else _UNSEPARATED
    else:
        m = k
        slots = lambda words: words[0].view(np.intp)
    element = np.full(1 << m, -1, dtype=np.int32)
    element[slots(key)] = np.arange(n, dtype=np.int32)
    lub = np.empty((n, n), dtype=np.int32)
    step = max(1, _KEY_STEP_BYTES // (8 * words * n))
    for a in range(0, n, step):
        b = min(a + step, n)
        common = key[:, a:b, None] & key[:, None, :]  # [w, x - a, y]
        within = common[0] == key[0]
        for w in range(1, words):
            within &= common[w] == key[w]
        if not np.array_equal(within, leq[a:b]):
            return None
        found = lub[a:b]
        element.take(slots(common), out=found)
        if found.min() < 0:
            return None
        if hashed and not all(np.array_equal(key[w].take(found), common[w]) for w in range(words)):
            return None
    return lub


def _key_slots(words: np.ndarray, mult: np.uint64, shift: np.uint64) -> np.ndarray:
    """Hash slots of the keys whose w-th words are ``words[w]``.

    Each word is xored in, the high half folded onto the low half, and the
    result multiplied by ``mult`` modulo 2^64; the slot is the top
    64 - ``shift`` bits (multiply-shift hashing: Dietzfelbinger, Hagerup,
    Katajainen & Penttonen, J. Algorithms 25, 1997).  The fold lets every
    bit of a word reach the top bits of the product.
    """
    h = np.zeros_like(words[0])
    for w in words:
        h ^= w
        h ^= h >> np.uint64(32)
        h *= mult
    h >>= shift
    return h.view(np.intp)


def _cover_lubs(leq: np.ndarray, covers: np.ndarray, rank: np.ndarray) -> np.ndarray | None:
    """:func:`_least_upper_bounds` by recursion over upper covers.

    If y <= x then x join y = x; otherwise every upper bound of {x, y} lies
    above some cover c of x, so x join y is the least of {c join y : c
    covers x} and exists exactly when that set has a least element (the
    join-over-covers recursion of Ait-Kaci, Boyer, Lincoln & Nasr,
    "Efficient implementation of lattice operations", TOPLAS 1989).

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


def _first_pair(count: int, bad_rows) -> tuple[int, int] | None:
    """The least (i, j), 0 <= i < j < count, in row-major order with
    ``bad_rows(a, b)[i - a, j]`` true, or None.  ``bad_rows`` returns the
    (b - a) x count block of rows a..b-1; blocks stay within the step budget
    of the cover recursion, or hold one row."""
    step = max(1, _STEP_ENTRIES // max(count, 1))
    for a in range(0, count, step):
        b = min(a + step, count)
        bad = bad_rows(a, b) & (np.arange(count) > np.arange(a, b)[:, None])
        if bad.any():
            i, j = divmod(int(bad.argmax()), count)
            return a + i, j
    return None


def _raise_missing_bound(leq: np.ndarray, rank: np.ndarray, labels) -> None:
    """Raise NotALattice naming the first pair (x, y) in row-major order
    without a bound, a missing join before a missing meet within a row.

    Called once a bound kernel has found such a pair.  Up-sets and
    down-sets are bit rows of ceil(n/64) uint64 words, numbered along the
    linear extension ``rank`` and its reverse, and each pair is tested as in
    :func:`_word_lubs`: the lowest set bit z of the common set is the bound
    iff z's row equals that set.  Comparable pairs have both bounds, and a
    pair lacks a bound both ways round, so only incomparable x < y are
    tested, in blocks of whole rows.
    """
    n = leq.shape[0]
    number = np.argsort(rank, kind="stable")
    words = -(-n // _WORD_BITS)
    geq = np.ascontiguousarray(leq.T)
    sides = []
    for order, numbering in ((leq, number), (geq, number[::-1])):
        packed = np.packbits(order.take(numbering, axis=1), axis=1, bitorder="little")
        sides.append((np.pad(packed, ((0, 0), (0, 8 * words - packed.shape[1]))).view("<u8"), numbering))
    apart = np.triu(~(leq | geq), 1)
    ends = np.concatenate(([0], np.count_nonzero(apart, axis=1).cumsum()))
    pairs = _KEY_STEP_BYTES // (8 * words)
    a = 0
    while a < n:
        b = max(a + 1, int(np.searchsorted(ends, ends[a] + pairs, "right")) - 1)
        xs, ys = np.nonzero(apart[a:b])
        xs += a
        hits = []
        for meet, (rows, numbering) in enumerate(sides):
            common = rows[xs] & rows[ys]
            first = (common != 0).argmax(axis=1)
            word = common[np.arange(len(xs)), first]
            bit = np.frexp((word & (~word + np.uint64(1))).astype(np.float64))[1] - 1
            bad = (rows[numbering[first * _WORD_BITS + bit]] != common).any(axis=1)
            if bad.any():
                hits.append((int(xs[bad.argmax()]), meet, int(ys[bad.argmax()])))
        if hits:
            x, meet, y = min(hits)
            bound = "greatest lower" if meet else "least upper"
            raise NotALattice(
                f"elements {labels[x]!r} and {labels[y]!r} have no {bound} bound", witness=(x, y)
            )
        a = b


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

    pairs = leq_pairs if isinstance(leq_pairs, np.ndarray) else list(leq_pairs)
    pairs = np.asarray(pairs, dtype=None if len(pairs) else np.int64).reshape(len(pairs), 2)
    if pairs.dtype.kind not in "iu":  # a float would be truncated, a huge int held as an object
        raise ValueError(f"order pairs must be integer indexes, not {pairs.dtype}")
    outside = ((pairs < 0) | (pairs >= n)).any(axis=1)
    if outside.any():
        i, j = pairs[outside.argmax()]
        raise ValueError(f"order pair ({i}, {j}) out of range")
    rel = np.eye(n, dtype=bool)
    rel[pairs[:, 0], pairs[:, 1]] = True
    leq, covers, heights = _order(rel, labels)

    bottoms = np.flatnonzero(leq.all(axis=1))
    tops = np.flatnonzero(leq.all(axis=0))
    if bottoms.size != 1 or tops.size != 1:
        raise NoBoundingElements("order has no unique bottom/top pair")
    bottom, top = int(bottoms[0]), int(tops[0])

    lat = FiniteLattice(labels, leq, bottom, top, name=name)
    lat._seed_forms(heights=heights, covers=covers)
    # With a unique bottom, the common lower bounds of x and y form a finite,
    # non-empty set whose join, when all joins exist, is x meet y: the join
    # table alone decides lattice-ness, and the meet table waits for a reader.
    lat.join_table
    lat._tables_match_order = True
    return lat
