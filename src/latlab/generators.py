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
Subspace spans are integer array products, containment is a gather of each
basis row's membership bits, covers are the graded ones (x <= y, one
dimension higher), and subspace tables come from core's bound derivation
over that order.  Only M3 and N5 take the validating path through
build_lattice.  Every generator checks its size before it builds anything.
"""

from __future__ import annotations

import itertools
import string

import numpy as np

from .core import FiniteLattice, _graded_covers, build_lattice
from .errors import SizeBound
from .limits import MAX_BOOLEAN_EXPONENT, MAX_VECTORS, element_cap


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
    lat._set_heights(heights)
    lat._seed_forms(
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


def _rref_bases(n: int, q: int, k: int):
    """All reduced-row-echelon bases of k-dim subspaces of F_q^n."""
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


def _vector_label(vec, q: int) -> str:
    sep = "" if q <= 9 else ","
    return sep.join(str(v) for v in vec)


def subspace_lattice(dimension: int, field_order: int) -> FiniteLattice:
    """All subspaces of F_q^n ordered by inclusion.

    Meet is intersection, join is linear span; height equals dimension.
    Subspaces are keyed by their reduced-row-echelon basis, so element order
    and labels are canonical.
    """
    n, q = dimension, field_order
    size = subspace_count(n, q)
    cap = element_cap()
    if size > cap:
        raise SizeBound(f"{size} subspaces exceeds the cap of {cap}")

    # Each vector of F_q^n is its base-q number; the span of a k-row basis
    # is every coefficient row of F_q^k times the basis, reduced mod q.
    # held[v, x] says subspace x holds vector v, and basis_rows[x] lists the
    # numbers of x's basis rows, the last one repeated to n, or vector 0.
    place = q ** np.arange(n - 1, -1, -1)
    held = np.zeros((q**n, size), dtype=bool)
    basis_rows = np.zeros((size, n), dtype=int)
    bases = []
    for k in range(n + 1):
        block = sorted(_rref_bases(n, q, k))
        coeffs = np.array(list(itertools.product(range(q), repeat=k)), dtype=int)
        rows = np.array(block, dtype=int).reshape(len(block), k, n)
        spans = coeffs.reshape(q**k, k) @ rows % q @ place
        ids = np.arange(len(bases), len(bases) + len(block))
        held[spans, ids[:, None]] = True
        if k:
            basis_rows[ids] = (rows @ place)[:, np.minimum(np.arange(n), k - 1)]
        bases.extend(block)

    labels = []
    for b in bases:
        if not b:
            labels.append("0")
        else:
            labels.append("<" + ",".join(_vector_label(r, q) for r in b) + ">")

    # x <= y iff y holds each basis row of x, since a subspace that holds a
    # basis holds its span: one gather of size x size bits per basis row.
    leq = held[basis_rows[:, 0]]
    for j in range(1, n):
        leq &= held[basis_rows[:, j]]

    dims = np.array([len(b) for b in bases], dtype=np.int32)
    lat = FiniteLattice(labels, leq, 0, size - 1, name=f"subspaces_{n}_{q}")
    lat._set_heights(dims)
    lat._set_covers(_graded_covers(leq, dims))
    # Derived from the seeded covers and heights, which the premise checks,
    # and filled here.  No closed form gives them, and every consumer but the
    # document writer reads them: a construction search over this lattice
    # would otherwise pay the derivation inside its first call.
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
    lat._set_heights(idx)
    lat._seed_forms(
        leq=lambda: idx[:, None] <= idx[None, :],
        cover_pairs=lambda: (idx[:-1], idx[1:]),
        meet_table=lambda: np.minimum.outer(idx, idx),
        join_table=lambda: np.maximum.outer(idx, idx),
    )
    return lat
