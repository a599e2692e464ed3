"""Canonical lattice generators.

Powerset (boolean) lattices, subspace lattices of prime-field vector spaces,
and the small named fixtures: the diamond M3, the pentagon N5, and chains.
Boolean lattices, subspace lattices and chains come with closed-form
heights (subset size, dimension, index).  Boolean lattices and chains seed
everything else as forms, evaluated on first read: the order (block-doubled
inclusion, i <= j), the cover pairs (x below x | 1 << i for each bit i unset
in x; i below i + 1), and the tables (bitwise and/or, min/max).  Writing a
document reads only the cover pairs, so it builds no n x n matrix; the
premise still re-derives and compares the order, covers and tables.
Subspaces are integer arrays of reduced-row-echelon bases, each built
from the smaller ones by one more leading row.  x^perp, the orthogonal
complement under the dot product, is found from the points orthogonal to
each basis row: a polarity, an inclusion-reversing involution, though over
GF(q) not an orthocomplementation (Birkhoff & von Neumann 1936; Birkhoff,
"Lattice Theory").  A subspace holds the points orthogonal to its
complement, and x <= y iff y holds each basis row of x; covers are the
graded ones (x <= y, one dimension higher).  The subspace join table comes
from core's bound derivation over that order, and the meet table from the
join by De Morgan's law, x meet y = (x^perp join y^perp)^perp, which the
premise re-derives and compares.  Only M3 and N5 take the validating path
through build_lattice.  Every generator checks its size before it builds
anything.
"""

from __future__ import annotations

import string

import numpy as np

from .core import FiniteLattice, _graded_covers, build_lattice
from .errors import SizeBound
from .limits import MAX_BOOLEAN_EXPONENT, MAX_VECTORS, element_cap


# Entries per row block of the polar meet map.
_MAP_ENTRIES = 1 << 16


def boolean_lattice(n: int) -> FiniteLattice:
    """Powerset of an n-element set ordered by inclusion (B_n)."""
    if n < 1:
        raise ValueError("boolean_lattice needs n >= 1")
    if n > MAX_BOOLEAN_EXPONENT:
        raise SizeBound(f"boolean_lattice is capped at n={MAX_BOOLEAN_EXPONENT}")
    size = 1 << n
    cap = element_cap()
    if size > cap:
        raise SizeBound(f"2^{n} elements exceeds the cap of {cap}")

    # Mask m's letters are those of its low bits: each letter doubles the
    # list, appending itself to every label so far.
    inner = [""]
    for c in string.ascii_lowercase[:n]:
        inner += [f"{s},{c}" if s else c for s in inner]
    labels = ["{" + s + "}" for s in inner]
    idx = np.arange(size, dtype=np.int32)
    heights = sum((idx >> i) & 1 for i in range(n)).astype(np.int32)
    lat = FiniteLattice(labels, None, 0, size - 1, name=f"B_{n}")
    lat._seed_forms(
        heights=heights,
        leq=lambda: _subset_order(n),
        cover_pairs=lambda: _subset_covers(idx, n),
        meet_table=lambda: idx[:, None] & idx[None, :],
        join_table=lambda: idx[:, None] | idx[None, :],
    )
    return lat


def _subset_order(n: int) -> np.ndarray:
    """Inclusion of the subsets of n letters, by block doubling: a set
    without letter i lies below a set with it iff it lies below that set
    minus the letter, and a set with it lies below only the sets with it."""
    size = 1 << n
    leq = np.zeros((size, size), dtype=bool)
    leq[0, 0] = True
    for i in range(n):
        h = 1 << i
        leq[:h, h : 2 * h] = leq[h : 2 * h, h : 2 * h] = leq[:h, :h]
    return leq


def _subset_covers(idx: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Cover pairs (x, x | 1 << i) over bits i unset in x, in row-major
    order: x ascending, then i ascending, which orders each row's y."""
    bits = 1 << np.arange(n, dtype=np.int32)
    free = (idx[:, None] & bits) == 0
    return np.broadcast_to(idx[:, None], free.shape)[free], (idx[:, None] | bits)[free]


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    return all(q % d for d in range(2, int(q**0.5) + 1))


def _gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n."""
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def subspace_count(n: int, q: int) -> int:
    """Number of subspaces of F_q^n, of every dimension, after checking
    n >= 1, then the vector cap, then that q is prime: cheapest first, and
    for q >= 2 an n of MAX_VECTORS' bit length or more exceeds the cap
    without forming q^n.  Raises ValueError or SizeBound."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if q >= 2 and (n >= MAX_VECTORS.bit_length() or q**n > MAX_VECTORS):
        raise SizeBound(f"{q}^{n} vectors exceeds the cap of {MAX_VECTORS}")
    if not _is_prime(q):
        raise ValueError(f"field order {q} is not prime")
    return sum(_gaussian_binomial(n, k, q) for k in range(n + 1))


def _rref_bases(n: int, q: int) -> list[np.ndarray]:
    """Reduced-row-echelon bases of the subspaces of F_q^n, one int array
    per dimension k = 0, ..., n, with a row per subspace of the base-q
    numbers of its k basis rows, in lexicographic order.

    RREF rows are points, vectors whose leading digit is 1.  A k-row basis
    is a point a followed by a (k-1)-row basis B whose first pivot lies
    right of a's pivot, with a zero digit at every pivot of B; B's rows are
    zero at a's pivot, which lies left of theirs.  Listing the pairs (a, B)
    with a ascending, then B in its own order, lists the bases in
    lexicographic order, so nothing is sorted.
    """
    place = q ** np.arange(n - 1, -1, -1)
    points = np.concatenate([np.arange(p, 2 * p) for p in place[::-1].tolist()])
    nonzero = points[:, None] // place % q != 0
    lead = nonzero.argmax(axis=1)
    support = nonzero @ (1 << np.arange(n))  # bit c: a nonzero digit in column c
    bases = [np.zeros((1, 0), dtype=int)]
    first, pivots = np.array([n]), np.array([0])
    for _ in range(n):
        fits = (lead[:, None] < first) & (support[:, None] & pivots == 0)
        a, b = np.divmod(np.flatnonzero(fits), fits.shape[1])
        bases.append(np.column_stack((points[a], bases[-1][b])))
        first, pivots = lead[a], pivots[b] | 1 << lead[a]
    return bases


def _order_and_polarity(bases: list[np.ndarray], q: int) -> tuple[np.ndarray, np.ndarray]:
    """(leq, comp) of the subspaces of F_q^n that ``bases``, the output of
    :func:`_rref_bases`, lists by dimension: the inclusion order, and the
    index comp[x] of the orthogonal complement x^perp of each subspace x.

    x^perp holds the vectors whose dot product with every vector of x is 0
    mod q: those orthogonal to each basis row of x.  It is an
    inclusion-reversing involution with dim x^perp = n - dim x, so it
    permutes the subspaces.  x^perp's RREF row with its pivot in column c
    is its least point in [q^(n-1-c), 2 q^(n-1-c)), the points with their
    leading 1 there: any other adds a multiple of a later row, which raises
    that row's pivot digit from 0.  Listing those rows by column, 0 where
    x^perp has none, orders the subspaces of one dimension as their RREF
    bases do, since a row with an earlier pivot has a larger number; so
    sorting the complements by dimension and then by those lists puts them
    in element order.  Since y = (y^perp)^perp, y holds a point iff the
    point is orthogonal to y^perp, and x <= y iff y holds each basis row of
    x, a gather of those bits per row.
    """
    n = len(bases) - 1
    points = bases[1][:, 0]  # ascending
    digits = points[:, None] // q ** np.arange(n) % q  # last column first; dot products stay
    orth = digits @ digits.T % q == 0
    slot = np.empty(q**n, dtype=np.intp)
    slot[points] = np.arange(len(points))
    rows = [slot[b] for b in bases]
    perp = np.concatenate([orth[:, r].all(axis=2) for r in rows], axis=1)  # [p, x]: x^perp holds p
    # least[j, x]: x^perp's least point in [q^j, 2 q^j), or 0.
    found = np.where(perp, np.arange(len(points), dtype=np.int32)[:, None], len(points))
    starts = np.searchsorted(points, q ** np.arange(n))
    least = np.append(points, 0)[np.minimum.reduceat(found, starts, axis=0)]
    order = np.lexsort((*least, np.count_nonzero(least, axis=0)))
    comp = np.empty(len(order), dtype=np.int32)
    comp[order] = np.arange(len(order), dtype=np.int32)
    held = perp[:, comp]  # [p, y]: y holds p
    leq = np.concatenate([held[r].all(axis=1) for r in rows])
    return leq, comp


def _polar_meets(join: np.ndarray, comp: np.ndarray) -> np.ndarray:
    """Meet table from the join table by De Morgan through the polarity:
    x meet y = comp[join[comp[x], comp[y]]], in row blocks of about
    ``_MAP_ENTRIES`` entries, so no temporary nears the table's size."""
    n = len(comp)
    cols = comp.astype(np.intp)
    meet = np.empty_like(join)
    step = max(1, _MAP_ENTRIES // n)
    for a in range(0, n, step):
        rows = join.take(comp[a : a + step], axis=0)
        comp.take(rows.take(cols, axis=1), out=meet[a : a + step])
    return meet


def subspace_lattice(dimension: int, field_order: int) -> FiniteLattice:
    """All subspaces of F_q^n ordered by inclusion.

    Meet is intersection, join is linear span; height equals dimension.
    Subspaces are keyed by their reduced-row-echelon basis, so element order
    and labels are canonical.  The join table comes from core's bound
    derivation; the meet table from it by De Morgan's law through the
    orthogonal complement x^perp under the dot product, x meet y =
    (x^perp join y^perp)^perp.  Over GF(q), x and x^perp can share vectors,
    so x^perp is a polarity, not an orthocomplementation; De Morgan's law
    needs only that it reverses inclusion and is an involution (Birkhoff &
    von Neumann, "The logic of quantum mechanics", Ann. Math. 37, 1936;
    Birkhoff, "Lattice Theory").  The meet is seeded, so the premise
    re-derives and compares it.
    """
    n, q = dimension, field_order
    size = subspace_count(n, q)
    cap = element_cap()
    if size > cap:
        raise SizeBound(f"{size} subspaces exceeds the cap of {cap}")

    # Each vector of F_q^n is its base-q number.  Each distinct basis row, a
    # point, is formatted once: its digits, comma-separated when q > 9.
    bases = _rref_bases(n, q)
    points = bases[1][:, 0]
    digits = points[:, None] // q ** np.arange(n - 1, -1, -1) % q
    sep = "" if q <= 9 else ","
    text = dict(zip(points.tolist(), (sep.join(map(str, d)) for d in digits.tolist())))
    labels = ["0"]
    for rows in bases[1:]:
        labels += ["<" + ",".join(map(text.__getitem__, b)) + ">" for b in rows.tolist()]
    leq, comp = _order_and_polarity(bases, q)
    dims = np.repeat(np.arange(n + 1, dtype=np.int32), [len(b) for b in bases])

    lat = FiniteLattice(labels, leq, 0, size - 1, name=f"subspaces_{n}_{q}")
    lat._seed_forms(
        heights=dims,
        covers=lambda: _graded_covers(leq, dims),
        meet_table=lambda: _polar_meets(lat.join_table, comp),
    )
    # Filled here: every consumer but the document writer reads them, and a
    # construction search over this lattice would otherwise pay the join
    # derivation inside its first call.
    lat.join_table, lat.meet_table
    return lat


def diamond_m3() -> FiniteLattice:
    """Five-element diamond: three incomparable atoms between 0 and 1."""
    labels = ["0", "a", "b", "c", "1"]
    pairs = [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]
    return build_lattice(labels, pairs, name="M3")


def pentagon_n5() -> FiniteLattice:
    """Five-element pentagon: 0 < a < c < 1 alongside 0 < b < 1."""
    labels = ["0", "a", "b", "c", "1"]
    pairs = [(0, 1), (0, 2), (1, 3), (3, 4), (2, 4)]
    return build_lattice(labels, pairs, name="N5")


def chain(k: int) -> FiniteLattice:
    """Total order on k elements."""
    if k < 2:
        raise ValueError("chain needs k >= 2")
    cap = element_cap()
    if k > cap:
        raise SizeBound(f"{k} elements exceeds the cap of {cap}")
    idx = np.arange(k, dtype=np.int32)
    lat = FiniteLattice([str(i) for i in range(k)], None, 0, k - 1, name=f"chain_{k}")
    lat._seed_forms(
        heights=idx,
        leq=lambda: idx[:, None] <= idx[None, :],
        cover_pairs=lambda: (idx[:-1], idx[1:]),
        meet_table=lambda: np.minimum.outer(idx, idx),
        join_table=lambda: np.maximum.outer(idx, idx),
    )
    return lat
