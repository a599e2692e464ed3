"""Independent brute-force oracles for cross-checking latlab results.

Everything here recomputes answers from first principles: order scans over
the raw leq relation, recursive chain lengths, subset enumeration over raw
vectors, and all-assignments realization search.  Nothing uses the
package's precomputed tables, so agreement is meaningful.  The exceptions
are the last three sections.  The construction-engine scans read the
lattice's meet/join tables and check the package's indexes, memo, pruning,
statement building and incremental growth and re-checks against the
unindexed, uncached, one-at-a-time, whole-structure forms.  The bound-table and law scans are the full O(n^3)
forms that the package's cover recursion, theorem-backed deciders and
row cut replaced, and the height-law scan keeps the ``argwhere`` first hit
that ``props._first`` replaced; they read whatever tables and order a lattice carries, forged or
not, and are the reference those fast paths must match exactly.  The
order-derivation section freezes the squaring closure, square-read covers
and argsort heights that ``core._order`` replaced, and the generator
section the eager order and cover matrices of ``boolean_lattice`` and
``chain`` that their closed forms replaced, and the tuple enumeration and
labels of ``subspace_lattice`` that its integer arrays replaced.  The write-path section
freezes the ``argwhere`` cover pairs and the ``json.dumps`` document body
that ``upper_neighbors`` and ``LatticeDocument.to_json`` replaced, and the
writers of one label tuple, f-string and lookup per cover pair that the
index-array writers replaced.  The gradedness section freezes the
``geometry_view`` that tested every cover through an n x n mask, which a
pass over the cover pairs replaced.  The last
section freezes the premise check with its own lub verifier, and
``saturate_splits`` as a rescan of every constant after each split.  The
pair-loop section freezes P1, P2 and atoms-only perspectivity as the loops
over element pairs that the row scans replaced, and ``check_spanning`` as
the scan over point sets that the frontier of joins replaced.
"""

import itertools
import json
from math import comb, factorial

import numpy as np


# ----- order-theoretic oracles (leq given as a list of bool rows) -----------


def leq_rows(lat):
    return [[bool(lat.leq[x, y]) for y in range(lat.size)] for x in range(lat.size)]


def brute_meet(rows, x, y):
    """Unique greatest lower bound by scanning, or None."""
    size = len(rows)
    lower = [z for z in range(size) if rows[z][x] and rows[z][y]]
    greatest = [z for z in lower if all(rows[w][z] for w in lower)]
    return greatest[0] if len(greatest) == 1 else None


def brute_join(rows, x, y):
    size = len(rows)
    upper = [z for z in range(size) if rows[x][z] and rows[y][z]]
    least = [z for z in upper if all(rows[z][w] for w in upper)]
    return least[0] if len(least) == 1 else None


def brute_heights(rows):
    """Longest-chain height per element, by memoized recursion."""
    size = len(rows)
    memo = {}

    def height(x):
        if x not in memo:
            below = [y for y in range(size) if rows[y][x] and y != x]
            memo[x] = 1 + max((height(y) for y in below), default=-1)
        return memo[x]

    return [height(x) for x in range(size)]


def _brute_complements(lat, rows):
    """Per element, the set of its complements: meets and joins read off
    the order by scanning."""
    n = len(rows)
    return [
        {y for y in range(n)
         if brute_meet(rows, x, y) == lat.bottom and brute_join(rows, x, y) == lat.top}
        for x in range(n)
    ]


def brute_complemented(lat):
    """The first element without a complement, or the law holds."""
    from latlab.props import Law, LawReport

    for x, found in enumerate(_brute_complements(lat, leq_rows(lat))):
        if not found:
            return LawReport(Law.COMPLEMENTED, False, (x,))
    return LawReport(Law.COMPLEMENTED, True)


def brute_atomic(lat):
    """The first element that is not the join of the atoms below it, or the
    law holds; atoms are the elements of longest-chain height 1."""
    from latlab.props import Law, LawReport

    rows = leq_rows(lat)
    heights = brute_heights(rows)
    atoms = [a for a in range(lat.size) if heights[a] == 1]
    for x in range(lat.size):
        out = lat.bottom
        for a in atoms:
            if rows[a][x]:
                out = brute_join(rows, out, a)
        if out != x:
            return LawReport(Law.ATOMIC, False, (x,), f"join of atoms below is {lat.labels[out]!r}")
    return LawReport(Law.ATOMIC, True)


def _brute_graded(lat, rows, heights):
    """Raise NotGraded at the first cover, in row-major order, whose upper
    end is not one longest-chain height above its lower end; covers are
    the pairs x < y of the order with nothing strictly between."""
    from latlab.errors import NotGraded

    n = lat.size
    for x, y in itertools.product(range(n), repeat=2):
        if x == y or not rows[x][y]:
            continue
        if any(z not in (x, y) and rows[x][z] and rows[z][y] for z in range(n)):
            continue
        if heights[y] != heights[x] + 1:
            raise NotGraded(f"cover {x} -> {y} jumps height", witness=(x, y))


def brute_third_point(lat):
    """The first line (height 2) with fewer than three points (height 1)
    below it in the order, or the law holds; an ungraded order raises
    NotGraded at its first jumping cover."""
    from latlab.props import Law, LawReport

    rows = leq_rows(lat)
    heights = brute_heights(rows)
    _brute_graded(lat, rows, heights)
    points = [p for p in range(lat.size) if heights[p] == 1]
    for line in range(lat.size):
        if heights[line] == 2:
            count = sum(rows[p][line] for p in points)
            if count < 3:
                return LawReport(Law.THIRD_POINT, False, (line,), f"{count} points")
    return LawReport(Law.THIRD_POINT, True)


def brute_spanning(lat, n):
    """Some n points join to the top and no n - 1 do: joins of every point
    set, in lexicographic order, folded from order-scanned pair joins.  The
    witness is the first n - 1 points that already span; a lattice that is
    not atomic raises NotAtomic at its first non-atomic element."""
    from latlab.errors import NotAtomic
    from latlab.props import Law, LawReport

    atomic = brute_atomic(lat)
    if not atomic.holds:
        raise NotAtomic("lattice is not atomic", witness=atomic.witness)
    rows = leq_rows(lat)
    heights = brute_heights(rows)
    points = [p for p in range(lat.size) if heights[p] == 1]

    def first_spanning(k):
        for combo in itertools.combinations(points, k):
            out = lat.bottom
            for p in combo:
                out = brute_join(rows, out, p)
            if out == lat.top:
                return combo
        return None

    if first_spanning(n) is None:
        return LawReport(Law.SPANNING, False, None, f"no {n}-point set spans")
    smaller = first_spanning(n - 1)
    if smaller is not None:
        return LawReport(Law.SPANNING, False, smaller, f"{n - 1} points already span")
    return LawReport(Law.SPANNING, True)


# ----- counting oracles -----------------------------------------------------


def count_subsets(n):
    return sum(comb(n, k) for k in range(n + 1))


def gaussian_binomial(n, k, q):
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def gl_order(n, q):
    """|GL(n, q)|: the ordered bases of GF(q)^n."""
    out = 1
    for i in range(n):
        out *= q**n - q**i
    return out


def _partitions(n, largest=None):
    """Partitions of n as non-increasing tuples of positive parts."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, n if largest is None else largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def count_subspace_boolean_sublattices(n, q):
    """Boolean sublattices of S(n, q) sharing its bounds.

    Their atoms are the parts of an unordered direct-sum decomposition of
    GF(q)^n.  GL(n, q) acts transitively on the ordered decompositions with
    part dimensions (d_i), with stabiliser the product of the GL(d_i, q),
    and parts of equal dimension permute freely: sum over partitions of n
    of |GL(n, q)| / (prod |GL(d_i, q)| * prod m_j!), m_j the multiplicity
    of each part size.
    """
    total = 0
    for parts in _partitions(n):
        den = 1
        for d in parts:
            den *= gl_order(d, q)
        for d in set(parts):
            den *= factorial(parts.count(d))
        total += gl_order(n, q) // den
    return total


def count_subspace_frames(n, q):
    """Boolean sublattices of S(n, q) with 2^n elements: unordered sets of
    n independent points, |GL(n, q)| / ((q - 1)^n n!)."""
    return gl_order(n, q) // ((q - 1) ** n * factorial(n))


def bell(n):
    """Set partitions of an n-set, by the Bell triangle: the atoms of a
    boolean sublattice of B_n that shares its bounds form one."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def enumerate_subspaces(n, q):
    """All subspaces of the n-dim space over GF(q), as frozen vector sets.

    Brute force: test every subset of the q^n vectors that contains zero for
    closure under addition and scalar multiplication.  Only feasible for
    q^n <= 9 or so; that covers the acceptance fixtures.
    """
    vectors = [tuple(v) for v in itertools.product(range(q), repeat=n)]
    zero = tuple([0] * n)
    nonzero = [v for v in vectors if v != zero]
    out = []
    for r in range(len(nonzero) + 1):
        for picked in itertools.combinations(nonzero, r):
            cand = frozenset(picked) | {zero}
            if _is_subspace(cand, q, n):
                out.append(cand)
    return out


def _is_subspace(vecs, q, n):
    for u in vecs:
        for w in vecs:
            s = tuple((a + b) % q for a, b in zip(u, w))
            if s not in vecs:
                return False
        for c in range(2, q):
            if tuple((c * a) % q for a in u) not in vecs:
                return False
    return True


def subspace_dim(vecs, q):
    size = len(vecs)
    dim = 0
    while q**dim < size:
        dim += 1
    return dim


def label_spans(lat, n, q):
    """Vector set of every element of ``subspace_lattice(n, q)``, spanned
    by brute force from the basis rows its label prints: "<101,011>" for
    q <= 9, comma-separated coordinates "<1,0,12,0,1,5>" above."""
    spans = []
    for label in lat.labels:
        if label == "0":
            rows = []
        elif q <= 9:
            rows = [[int(c) for c in row] for row in label[1:-1].split(",")]
        else:
            flat = [int(c) for c in label[1:-1].split(",")]
            rows = [flat[i : i + n] for i in range(0, len(flat), n)]
        spans.append(frozenset(
            tuple(sum(c * row[i] for c, row in zip(coeffs, rows)) % q for i in range(n))
            for coeffs in itertools.product(range(q), repeat=len(rows))
        ))
    return spans


# ----- naive realization oracle ---------------------------------------------


def _cached_ops(rows):
    """Meet/join lookups over the raw rows, scanning each pair once."""
    meets, joins = {}, {}

    def meet(x, y):
        key = (x, y) if x <= y else (y, x)
        if key not in meets:
            meets[key] = brute_meet(rows, *key)
        return meets[key]

    def join(x, y):
        key = (x, y) if x <= y else (y, x)
        if key not in joins:
            joins[key] = brute_join(rows, *key)
        return joins[key]

    return meet, join


def naive_realization_exists(structure, lat):
    """Enumerate every injective assignment and evaluate statements directly.

    Uses its own order scans (brute_meet/brute_join/brute_heights), not the
    lattice's precomputed tables or the package's satisfies().
    """
    from latlab.construction import StatementKind

    rows = leq_rows(lat)
    meet, join = _cached_ops(rows)
    heights = brute_heights(rows)
    consts = structure.constants
    fixed = {"0": lat.bottom, "1": lat.top}
    free = [c for c in consts if c not in fixed]
    pool = [e for e in range(lat.size) if e not in (lat.bottom, lat.top)]
    if len(free) > len(pool):
        return False
    stmts = structure.statements

    for image in itertools.permutations(pool, len(free)):
        mapping = dict(fixed)
        mapping.update(zip(free, image))
        good = True
        for st in stmts:
            ops = [mapping[o] for o in st.operands]
            if st.kind is StatementKind.JOIN_EQ:
                if join(ops[0], ops[1]) != ops[2]:
                    good = False
            elif st.kind is StatementKind.MEET_EQ:
                if meet(ops[0], ops[1]) != ops[2]:
                    good = False
            elif st.kind is StatementKind.DISJOINT:
                if meet(ops[0], ops[1]) != lat.bottom:
                    good = False
            elif st.kind is StatementKind.HEIGHT_IS:
                if heights[ops[0]] != st.value:
                    good = False
            if not good:
                break
        if good:
            return True
    return False


def all_realizations(structure, lat):
    """Every satisfying injective assignment, as declaration-order tuples."""
    from latlab.construction import StatementKind

    rows = leq_rows(lat)
    meet, join = _cached_ops(rows)
    heights = brute_heights(rows)
    consts = structure.constants
    fixed = {"0": lat.bottom, "1": lat.top}
    free = [c for c in consts if c not in fixed]
    pool = [e for e in range(lat.size) if e not in (lat.bottom, lat.top)]
    stmts = structure.statements
    found = []
    for image in itertools.permutations(pool, len(free)):
        mapping = dict(fixed)
        mapping.update(zip(free, image))
        ok = True
        for st in stmts:
            ops = [mapping[o] for o in st.operands]
            if st.kind is StatementKind.JOIN_EQ:
                ok = join(ops[0], ops[1]) == ops[2]
            elif st.kind is StatementKind.MEET_EQ:
                ok = meet(ops[0], ops[1]) == ops[2]
            elif st.kind is StatementKind.DISJOINT:
                ok = meet(ops[0], ops[1]) == lat.bottom
            elif st.kind is StatementKind.HEIGHT_IS:
                ok = heights[ops[0]] == st.value
            if not ok:
                break
        if ok:
            found.append(tuple(mapping[c] for c in consts))
    return sorted(found)


# ----- construction-engine reference scans ----------------------------------
#
# Every call rescans the statements or regrows every block decomposition,
# with no caching and no pruning beyond pairwise disjointness.


def scan_height_of(structure, symbol):
    """Declared height of a constant, by scanning every statement."""
    from latlab.construction import StatementKind

    for st in structure.statements:
        if st.kind is StatementKind.HEIGHT_IS and st.operands[0] == symbol:
            return st.value
    return None


def scan_split_of(structure, symbol):
    """First recorded disjoint split (b, c) of a constant in sorted order."""
    from latlab.construction import Statement, StatementKind

    for st in sorted(structure.statements, key=Statement.sort_key):
        if st.kind is StatementKind.JOIN_EQ and st.operands[2] == symbol:
            b, c = st.operands[0], st.operands[1]
            if symbol in (b, c):
                continue
            if Statement.disjoint(b, c) in structure.statements:
                return (b, c)
    return None


def _close_blocks(lat, blocks):
    from latlab.construction import BooleanSublattice

    k = len(blocks)
    joins = [lat.bottom] * (1 << k)
    for mask in range(1, 1 << k):
        low = (mask & -mask).bit_length() - 1
        joins[mask] = lat.join(joins[mask ^ (1 << low)], blocks[low])
    if len(set(joins)) != 1 << k:
        return None
    for i in range(1 << k):
        for j in range(i, 1 << k):
            if lat.meet(joins[i], joins[j]) != joins[i & j]:
                return None
    return BooleanSublattice(tuple(sorted(set(joins))), tuple(blocks))


def scan_boolean_sublattices(lat, must_contain=()):
    """Boolean sublattices through the bounds containing ``must_contain``:
    every pairwise-disjoint block decomposition of the top, closed and
    filtered on each call, sorted by size and then elements."""
    required = set(int(e) for e in must_contain)
    nonzero = [e for e in range(lat.size) if e != lat.bottom]
    max_blocks = max(lat.size.bit_length() - 1, 1)
    out = []

    def grow(blocks, join_so_far, start):
        if join_so_far == lat.top and blocks:
            sub = _close_blocks(lat, blocks)
            if sub is not None and required <= set(sub.elements):
                out.append(sub)
            return
        if len(blocks) >= max_blocks:
            return
        for i in range(start, len(nonzero)):
            z = nonzero[i]
            if all(lat.meet(z, b) == lat.bottom for b in blocks):
                grow(blocks + [z], lat.join(join_so_far, z), i + 1)

    grow([], lat.bottom, 0)
    out.sort(key=lambda s: (len(s.elements), s.elements))
    return out


def rebuild_extend(structure, constants=(), statements=(), counter=None):
    """``PartialStructure.extend`` before it went incremental: a copy of
    every statement, bound statements re-added for every constant, heights
    read off a full scan, and nothing seeded into the child."""
    from latlab.construction import PartialStructure, Statement, StatementKind
    from latlab.errors import DepthExhausted, UnknownConstant

    new_consts = tuple(constants)
    for c in new_consts:
        if c in structure.constants or new_consts.count(c) > 1:
            raise ValueError(f"constant {c!r} is already declared")
    all_consts = structure.constants + new_consts
    known = set(all_consts)

    stmts = set(structure.statements)
    declared = {}
    for st in statements:
        for op in st.operands:
            if op not in known:
                raise UnknownConstant(
                    f"statement names unknown constant {op!r}", witness=(op,)
                )
        if st.kind is StatementKind.HEIGHT_IS:
            symbol = st.operands[0]
            if st.value < 0 or st.value > structure.depth_bound:
                raise DepthExhausted(
                    f"height {st.value} for {symbol!r} is outside "
                    f"the depth bound {structure.depth_bound}"
                )
            prev = scan_height_of(structure, symbol)
            if prev is None:
                prev = declared.setdefault(symbol, st.value)
            if prev != st.value:
                raise ValueError(
                    f"conflicting heights {prev} and {st.value} for {symbol!r}"
                )
        stmts.add(st)
    for c in all_consts:
        stmts.add(Statement.join_eq("0", c, c))
        stmts.add(Statement.join_eq(c, "1", "1"))
    return PartialStructure(
        constants=all_consts,
        statements=frozenset(stmts),
        depth_bound=structure.depth_bound,
        counter=structure.counter if counter is None else counter,
    )


def scan_satisfies(structure, lat, mapping):
    """Every statement of the structure evaluated under the mapping, after
    the injectivity and bound checks."""
    from latlab.construction import StatementKind

    try:
        values = [mapping[c] for c in structure.constants]
    except KeyError:
        return False
    if len(set(values)) != len(values):
        return False
    if mapping["0"] != lat.bottom or mapping["1"] != lat.top:
        return False
    for st in structure.statements:
        ops = [mapping[o] for o in st.operands]
        if st.kind is StatementKind.JOIN_EQ:
            ok = lat.join(ops[0], ops[1]) == ops[2]
        elif st.kind is StatementKind.MEET_EQ:
            ok = lat.meet(ops[0], ops[1]) == ops[2]
        elif st.kind is StatementKind.DISJOINT:
            ok = lat.meet(ops[0], ops[1]) == lat.bottom
        else:
            ok = lat.height(ops[0]) == st.value
        if not ok:
            return False
    return True


def statements_one_by_one(elements, name_of, lat):
    """``construction._statements_among`` before it built statements from
    table rows: per element its height, and per pair one ``Statement``
    constructor call each for the join, the meet and, when the meet is the
    bottom, the disjointness, every entry read by ``lat.join``/``lat.meet``."""
    from latlab.construction import Statement

    for e in elements:
        yield Statement.height_is(name_of[e], lat.height(e))
    for x, y in itertools.combinations(elements, 2):
        a, b = name_of[x], name_of[y]
        yield Statement.join_eq(a, b, name_of[lat.join(x, y)])
        m = lat.meet(x, y)
        yield Statement.meet_eq(a, b, name_of[m])
        if m == lat.bottom:
            yield Statement.disjoint(a, b)


def whole_structure_closures_realizable(structure, lat, realization):
    """The pipeline's closure re-check before it went incremental: each
    closure is applied to the whole structure and the result re-checked
    statement by statement.  Reaches ``boolean_closure`` through its module;
    a test can forge the closures both forms see by patching
    ``construction._closure_over``."""
    from latlab import construction

    symbols = structure.constants
    if len(symbols) > construction.MAX_SUBSTRUCTURE_CONSTANTS:
        groups = itertools.chain(
            itertools.combinations(symbols, 1), itertools.combinations(symbols, 2)
        )
    else:
        groups = itertools.chain.from_iterable(
            itertools.combinations(symbols, r) for r in range(1, len(symbols) + 1)
        )
    checked = 0
    for group in groups:
        closure = construction.boolean_closure(
            structure, group, lat, realization=realization
        )
        if closure is None:
            continue
        extended = rebuild_extend(structure, closure.new_constants, closure.statements)
        mapping = dict(realization.mapping)
        mapping.update({c: closure.naming[c] for c in closure.new_constants})
        if not scan_satisfies(extended, lat, mapping):
            return False, f"closure over {group} is not realizable"
        checked += 1
    return True, f"{checked} closures re-realized"


# ----- order-derivation reference -------------------------------------------
#
# Frozen copies of the three functions that derived the order before the
# one topological kernel, and the cycle check ``build_lattice`` ran between
# them.


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


def squaring_order(rel, labels):
    """(leq, covers, heights) of the order ``rel`` generates, as
    ``build_lattice`` derived them with the three functions above, or its
    NotAPartialOrder."""
    from latlab.errors import NotAPartialOrder

    n = rel.shape[0]
    leq, square = _transitive_closure(rel | np.eye(n, dtype=bool))
    sym = leq & leq.T & ~np.eye(n, dtype=bool)
    if sym.any():
        i, j = (int(v) for v in np.argwhere(sym)[0])
        raise NotAPartialOrder(
            f"{labels[i]!r} and {labels[j]!r} lie on a cycle", witness=(i, j)
        )
    return leq, _covers_from_square(leq, square), _longest_chain_heights(leq)


# ----- generator order reference --------------------------------------------
#
# Frozen copies of the order and cover matrices that ``boolean_lattice`` and
# ``chain`` built eagerly before both became closed forms read on demand, and
# of the tuple enumeration and per-row labels of ``subspace_lattice`` that
# its integer arrays replaced.


def doubling_boolean_order(n):
    """(leq, covers) of B_n, masks as elements, by block doubling: subsets
    of the first i + 1 letters from those of the first i."""
    size = 1 << n
    idx = np.arange(size, dtype=np.int32)
    leq = np.zeros((size, size), dtype=bool)
    leq[0, 0] = True
    covers = np.zeros((size, size), dtype=bool)
    for i in range(n):
        h = 1 << i
        leq[:h, h : 2 * h] = leq[h : 2 * h, h : 2 * h] = leq[:h, :h]
        below = idx[idx & h == 0]
        covers[below, below | h] = True
    return leq, covers


def graded_chain_order(k):
    """(leq, covers) of the k-chain: i <= j, and j one rank above i."""
    idx = np.arange(k, dtype=np.int32)
    leq = idx[:, None] <= idx[None, :]
    return leq, leq & (idx[None, :] == idx[:, None] + 1)


def rref_bases(n, q, k):
    """All reduced-row-echelon bases of k-dim subspaces of F_q^n, as tuples
    of row tuples, one ``itertools.product`` tuple of free cells at a time."""
    if k == 0:
        yield ()
        return
    for pivots in itertools.combinations(range(n), k):
        free_cells = [
            (r, c)
            for r in range(k)
            for c in range(pivots[r] + 1, n)
            if c not in pivots
        ]
        for values in itertools.product(range(q), repeat=len(free_cells)):
            rows = [[0] * n for _ in range(k)]
            for r in range(k):
                rows[r][pivots[r]] = 1
            for (r, c), v in zip(free_cells, values):
                rows[r][c] = v
            yield tuple(tuple(row) for row in rows)


def vector_label(vec, q):
    sep = "" if q <= 9 else ","
    return sep.join(str(v) for v in vec)


def rref_labels(n, q):
    """Labels of the subspaces of F_q^n in element order: by dimension, then
    sorted bases, each "0" or its rows in angle brackets."""
    labels = []
    for k in range(n + 1):
        for b in sorted(rref_bases(n, q, k)):
            labels.append("<" + ",".join(vector_label(r, q) for r in b) + ">" if b else "0")
    return labels


# ----- bound-table and law-decider reference scans --------------------------
#
# Frozen copies of the full scans: every pair for the bound tables, every
# triple for the laws, each stopping at the lexicographically first failure.


def scan_cover_matrix(leq):
    """Covers as x < y with no z strictly between, by one boolean matmul."""
    strict = leq & ~np.eye(leq.shape[0], dtype=bool)
    via = (strict.astype(np.float32) @ strict.astype(np.float32)) > 0.5
    return strict & ~via


def scan_bound_tables(leq, heights, labels):
    """Meet/join tables from the order; NotALattice on the first bad pair."""
    from latlab.errors import NotALattice

    n = leq.shape[0]
    big = np.int32(n + 1)
    meet = np.empty((n, n), dtype=np.int32)
    join = np.empty((n, n), dtype=np.int32)
    idx = np.arange(n)
    for x in range(n):
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


def scan_subspace_tables(spans, leq, dims):
    """The subspace generator's former tables: meet by intersecting the
    vector sets of every pair, join as the lowest-dimensional common
    superspace."""
    by_span = {span: i for i, span in enumerate(spans)}
    size = len(spans)
    meet = np.empty((size, size), dtype=np.int32)
    for x in range(size):
        for y in range(x, size):
            meet[x, y] = meet[y, x] = by_span[spans[x] & spans[y]]
    join = np.empty((size, size), dtype=np.int32)
    big = np.int32(dims.max() + 1)
    for x in range(size):
        cu = leq[x][None, :] & leq
        join[x] = np.where(cu, dims[None, :], big).argmin(axis=1)
    return meet, join


def _first(mask):
    return tuple(int(v) for v in np.argwhere(mask)[0])


def scan_lattice_axioms(lat):
    """Idempotency, commutativity, associativity and absorption of the
    stored tables, first failure first."""
    from latlab.props import Law, LawReport

    m, j = lat.meet_table, lat.join_table
    n = lat.size
    idx = np.arange(n)

    for table, word in ((m, "meet"), (j, "join")):
        bad = table.diagonal() != idx
        if bad.any():
            x = int(np.flatnonzero(bad)[0])
            return LawReport(Law.LATTICE_AXIOMS, False, (x,), f"{word} idempotency")
        sym = table != table.T
        if sym.any():
            return LawReport(
                Law.LATTICE_AXIOMS, False, _first(sym), f"{word} commutativity"
            )

    for x in range(n):
        for table, word in ((m, "meet"), (j, "join")):
            left = table[table[x]]        # [y, z] = t[t[x, y], z]
            right = table[x][table]       # [y, z] = t[x, t[y, z]]
            bad = left != right
            if bad.any():
                y, z = _first(bad)
                return LawReport(
                    Law.LATTICE_AXIOMS, False, (x, y, z), f"{word} associativity"
                )
        bad = m[x][j[x]] != x             # x meet (x join y) = x
        if bad.any():
            y = int(np.flatnonzero(bad)[0])
            return LawReport(Law.LATTICE_AXIOMS, False, (x, y), "meet absorption")
        bad = j[x][m[x]] != x             # x join (x meet y) = x
        if bad.any():
            y = int(np.flatnonzero(bad)[0])
            return LawReport(Law.LATTICE_AXIOMS, False, (x, y), "join absorption")
    return LawReport(Law.LATTICE_AXIOMS, True)


def scan_distributive(lat):
    """x meet (y join z) = (x meet y) join (x meet z) over every triple."""
    from latlab.props import Law, LawReport

    m, j = lat.meet_table, lat.join_table
    for x in range(lat.size):
        lhs = m[x][j]                     # [y, z] = m[x, j[y, z]]
        rhs = j[m[x][:, None], m[x][None, :]]
        bad = lhs != rhs
        if bad.any():
            y, z = _first(bad)
            return LawReport(Law.DISTRIBUTIVE, False, (x, y, z))
    return LawReport(Law.DISTRIBUTIVE, True)


def scan_modular(lat):
    """x <= z implies x join (y meet z) = (x join y) meet z, every triple."""
    from latlab.props import Law, LawReport

    m, j = lat.meet_table, lat.join_table
    for x in range(lat.size):
        lhs = j[x][m]                     # [y, z] = j[x, m[y, z]]
        rhs = m[j[x]]                     # [y, z] = m[j[x, y], z]
        bad = (lhs != rhs) & lat.leq[x][None, :]
        if bad.any():
            y, z = _first(bad)
            return LawReport(Law.MODULAR, False, (x, y, z))
    return LawReport(Law.MODULAR, True)


def scan_height_law(lat):
    """h(x meet y) + h(x join y) = h(x) + h(y) over every pair, first
    failure first, with its detail."""
    from latlab.props import Law, LawReport

    h = lat.heights
    lhs = h[lat.meet_table] + h[lat.join_table]
    rhs = h[:, None] + h[None, :]
    bad = lhs != rhs
    if bad.any():
        x, y = _first(bad)
        detail = f"h(meet)+h(join)={int(lhs[x, y])} but h(x)+h(y)={int(rhs[x, y])}"
        return LawReport(Law.HEIGHT_LAW, False, (x, y), detail)
    return LawReport(Law.HEIGHT_LAW, True)


# ----- write-path reference -------------------------------------------------
#
# Frozen copies of the cover-pair extraction and the document writer that
# the flat-index ``upper_neighbors`` and the joined ``to_json`` replaced.


def argwhere_cover_pairs(lat):
    """Cover pairs (x, y) of ``lat.covers`` in ascending order, as Python ints."""
    return [(int(x), int(y)) for x, y in np.argwhere(lat.covers)]


def json_dumps_document(doc):
    """A ``LatticeDocument`` as json's indented, key-sorted encoder writes it."""
    payload = {
        "name": doc.name,
        "elements": list(doc.elements),
        "order": [[a, b] for a, b in doc.order],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def pairwise_document_json(lat, name=None):
    """``document_from_lattice(lat, name).to_json()`` as written from one
    label tuple per cover pair, each distinct label escaped once."""
    labels = lat.labels
    order = [(labels[x], labels[y]) for x, y in argwhere_cover_pairs(lat)]
    quoted = {s: json.dumps(s) for s in labels}

    def json_list(items):
        return "[\n    " + ",\n    ".join(items) + "\n  ]" if items else "[]"

    pairs = [f"[\n      {quoted[a]},\n      {quoted[b]}\n    ]" for a, b in order]
    return (
        f'{{\n  "elements": {json_list([quoted[e] for e in labels])},\n'
        f'  "name": {json.dumps(lat.name if name is None else name)},\n'
        f'  "order": {json_list(pairs)}\n}}\n'
    )


def pairwise_lattice_to_dot(lat):
    """``lattice_to_dot`` as written from a height dict and one quoted
    label pair per cover edge; DOT escapes only backslash and quote."""

    def quote(label):
        return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = ["digraph lattice {", "  rankdir=BT;"]
    by_height = {}
    for e in range(lat.size):
        by_height.setdefault(lat.height(e), []).append(e)
    for h in sorted(by_height):
        row = " ".join(f"{quote(lat.labels[e])};" for e in by_height[h])
        lines.append(f"  {{ rank=same; {row} }}")
    for x, y in argwhere_cover_pairs(lat):
        lines.append(f"  {quote(lat.labels[x])} -> {quote(lat.labels[y])};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ----- gradedness reference ----------------------------------------------------
#
# A frozen copy of ``geometry_view`` as it tested gradedness over the n x n
# cover matrix, before it read the cover pairs.


def masked_geometry_view(lat):
    """Classify elements by height; raise NotGraded at the first cover, by
    ``argwhere`` over the masked cover matrix, that jumps a height."""
    from latlab.errors import NotGraded
    from latlab.projective import GeometryView

    h = lat.heights
    jumps = np.argwhere(lat.covers & (h[None, :] != h[:, None] + 1))
    if jumps.size:
        x, y = (int(v) for v in jumps[0])
        raise NotGraded(
            f"cover {lat.labels[x]!r} -> {lat.labels[y]!r} jumps height "
            f"{int(h[x])} -> {int(h[y])}",
            witness=(x, y),
        )
    return GeometryView(lat, lat.at_height(1), lat.at_height(2), lat.at_height(3))


# ----- premise and split-saturation reference -------------------------------
#
# Frozen copies of ``FiniteLattice.tables_match_order``'s check before it
# recomputed through the order kernel and the cover recursion, and of
# ``saturate_splits`` before it became one queue pass.


def _is_join_table(leq, covers, table, step_entries=1 << 22):
    """True iff ``table`` holds the least upper bound of every pair of the
    finite partial order ``leq``.

    By downward induction over the order, table[x, y] is the least upper
    bound iff it is an upper bound of x and y, equals x when y <= x, and
    otherwise lies below table[c, y] for every cover c of x: every upper
    bound of {x, y} other than x lies above some cover of x.
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
    step = max(1, step_entries // n)
    for start in range(0, xs.size, step):
        x, c = xs[start : start + step], ups[start : start + step]
        if not (leq[table[x], table[c]] | below[x]).all():
            return False
    return True


def verify_tables(lat):
    """The premise as it was: ``leq`` reflexive, antisymmetric and, by one
    float32 product, transitive; then both tables checked against the
    lattice's covers, seeded or derived, by the lub verifier."""
    leq = lat.leq
    if not leq.diagonal().all():
        return False
    if (leq & leq.T & ~np.eye(lat.size, dtype=bool)).any():
        return False
    f = leq.astype(np.float32)
    if (((f @ f) > 0.5) & ~leq).any():
        return False
    covers = lat.covers
    return _is_join_table(leq, covers, lat.join_table) and _is_join_table(
        leq.T, covers.T, lat.meet_table
    )


def rescan_saturate_splits(structure):
    """Split the first unsplit constant of height >= 2, in declaration
    order, rescanning every constant after each split, until none is left."""
    from latlab.construction import split_element

    while True:
        target = None
        for c in structure.constants:
            h = structure.height_of(c)
            if h is not None and h >= 2 and structure.split_of(c) is None:
                target = c
                break
        if target is None:
            return structure
        structure = split_element(structure, target)


# ----- pair loops -------------------------------------------------------------
#
# Frozen copies of ``check_p1``, ``check_p2`` and atoms-only
# ``is_perspective_lattice`` as loops over pairs in lexicographic order, each
# stopping at the first failing pair.


def loop_p1(view):
    """Two distinct points lie on exactly one common line."""
    from latlab.props import Law, LawReport

    lat = view.lattice
    line_mask = np.zeros(lat.size, dtype=bool)
    line_mask[list(view.lines)] = True
    for p, q in itertools.combinations(view.points, 2):
        count = int((lat.leq[p] & lat.leq[q] & line_mask).sum())
        if count != 1:
            return LawReport(Law.P1, False, (p, q), f"{count} common lines")
    return LawReport(Law.P1, True)


def loop_p2(view):
    """Coplanar lines (join of height <= 3) meet in at least a point."""
    from latlab.props import Law, LawReport

    lat = view.lattice
    for l1, l2 in itertools.combinations(view.lines, 2):
        if lat.height(lat.join(l1, l2)) > 3:
            continue
        mh = lat.height(lat.meet(l1, l2))
        if mh < 1:
            return LawReport(Law.P2, False, (l1, l2), f"meet height {mh}")
    return LawReport(Law.P2, True)


def loop_atoms_perspective(lat):
    """Every two atoms share a complement."""
    from latlab.props import Law, LawReport

    pool = list(lat.atoms())
    comp = (lat.meet_table == lat.bottom) & (lat.join_table == lat.top)
    for i, x in enumerate(pool):
        for y in pool[i + 1 :]:
            if not (comp[x] & comp[y]).any():
                return LawReport(Law.PERSPECTIVE, False, (x, y), "atoms")
    return LawReport(Law.PERSPECTIVE, True, detail="atoms")


def combination_spanning(lat, n):
    """Some n points join to top and no n-1 points do: the first spanning
    set of each size, scanned in lexicographic order with ``join_all``."""
    from latlab.errors import NotAtomic
    from latlab.props import Law, LawReport, is_atomic

    atomic = is_atomic(lat)
    if not atomic.holds:
        raise NotAtomic("lattice is not atomic", witness=atomic.witness)
    atoms = lat.atoms()

    def some_subset_spans(k):
        if k == 0:
            return (() if lat.top == lat.bottom else None)
        for combo in itertools.combinations(atoms, k):
            if lat.join_all(combo) == lat.top:
                return combo
        return None

    spanning = some_subset_spans(n)
    if spanning is None:
        return LawReport(Law.SPANNING, False, None, f"no {n}-point set spans")
    smaller = some_subset_spans(n - 1) if n > 0 else None
    if smaller is not None:
        return LawReport(Law.SPANNING, False, tuple(smaller), f"{n - 1} points already span")
    return LawReport(Law.SPANNING, True)
