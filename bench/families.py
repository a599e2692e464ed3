"""Lattice families written as latlab documents by the benchmark's own code.

Nothing here imports latlab: the program under test only ever sees the
document text these functions produce.  Every family records the laws that
lattice theory fixes for it, so the correctness gate can check verdicts
without trusting the checkers.

Random families take a ``random.Random`` and hit their target size exactly,
so two seeds give different documents with the same size mix.
"""

from __future__ import annotations

import json
import string
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Doc:
    """One generated lattice document plus what theory says about it."""

    family: str
    name: str
    labels: tuple[str, ...]
    covers: tuple[tuple[int, int], ...]
    rank: int | None  # top height when the lattice is graded, else None
    facts: dict[str, bool] = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.labels)

    def text(self) -> str:
        payload = {
            "name": self.name,
            "elements": list(self.labels),
            "order": [[self.labels[a], self.labels[b]] for a, b in self.covers],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _covers_of_sets(masks: list[int]) -> tuple[tuple[int, int], ...]:
    """Cover pairs of a family of bitmask sets ordered by inclusion."""
    n = len(masks)
    bits = np.array([[m >> i & 1 for i in range(max(m.bit_length() for m in masks) + 1)]
                     for m in masks], dtype=np.float32)
    # leq[x, y]: x is a subset of y
    leq = (bits @ (1.0 - bits).T) < 0.5
    strict = leq & ~np.eye(n, dtype=bool)
    via = (strict.astype(np.float32) @ strict.astype(np.float32)) > 0.5
    return tuple((int(x), int(y)) for x, y in np.argwhere(strict & ~via))


def _set_label(mask: int, names) -> str:
    return "{" + ",".join(names[i] for i in range(len(names)) if mask >> i & 1) + "}"


# ----- fixed families -------------------------------------------------------


def boolean(k: int) -> Doc:
    """B_k: distributive, complemented and atomic; for k >= 2 its lines carry
    two points and distinct atoms share no complement."""
    names = string.ascii_lowercase[:k]
    masks = sorted(range(1 << k), key=lambda m: (bin(m).count("1"), m))
    index = {m: i for i, m in enumerate(masks)}
    covers = tuple(
        sorted((index[m], index[m | 1 << i]) for m in masks for i in range(k) if not m >> i & 1)
    )
    facts = dict.fromkeys(
        ("axioms", "distributive", "modular", "heightlaw", "complemented",
         "atomic", "p1", "p2", "spanning", "topheight"), True)
    if k >= 2:
        facts.update(perspective=False, thirdpoint=False)
    return Doc("boolean", f"B_{k}", tuple(_set_label(m, names) for m in masks), covers, k, facts)


def subspace(n: int, q: int) -> Doc:
    """All subspaces of GF(q)^n: a projective geometry for n >= 2, so every
    plain law except distributivity holds."""
    size = q**n
    digits = [tuple(v // q**i % q for i in range(n)) for v in range(size)]
    code = {d: v for v, d in enumerate(digits)}

    def add(u, v):
        return code[tuple((a + b) % q for a, b in zip(digits[u], digits[v]))]

    def scale(c, v):
        return code[tuple(c * a % q for a in digits[v])]

    levels = [[frozenset([0])]]
    cover_sets = []
    for _ in range(n):
        nxt: dict[frozenset, None] = {}
        for s in levels[-1]:
            covered: set[int] = set(s)
            for v in range(size):
                if v in covered:
                    continue
                t = frozenset(add(u, scale(c, v)) for u in s for c in range(q))
                covered |= t
                nxt.setdefault(t)
                cover_sets.append((s, t))
        levels.append(sorted(nxt, key=sorted))
    order = [s for level in levels for s in level]
    index = {s: i for i, s in enumerate(order)}
    labels = []
    for dim, level in enumerate(levels):
        labels.extend(f"d{dim}.{i}" for i in range(len(level)))
    covers = tuple(sorted((index[s], index[t]) for s, t in cover_sets))
    facts = dict.fromkeys(
        ("axioms", "modular", "heightlaw", "complemented", "atomic", "perspective",
         "p1", "p2", "thirdpoint", "spanning", "topheight"), True)
    facts["distributive"] = n < 2
    return Doc("subspace", f"S_{n}_{q}", tuple(labels), covers, n, facts)


def chain(k: int) -> Doc:
    """k-element chain, k >= 3: distributive, neither complemented nor atomic."""
    facts = dict(axioms=True, distributive=True, modular=True, heightlaw=True,
                 complemented=False, atomic=False, spanning=False, topheight=True)
    return Doc("chain", f"chain_{k}", tuple(str(i) for i in range(k)),
               tuple((i, i + 1) for i in range(k - 1)), k - 1, facts)


def diamond() -> Doc:
    """M3: modular, complemented and atomic, but not distributive."""
    facts = dict.fromkeys(
        ("axioms", "modular", "heightlaw", "complemented", "atomic", "perspective",
         "p1", "p2", "thirdpoint", "spanning", "topheight"), True)
    facts["distributive"] = False
    return Doc("m3", "M3", ("0", "a", "b", "c", "1"),
               ((0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)), 2, facts)


def pentagon() -> Doc:
    """N5: not modular, so neither distributive nor a height valuation."""
    facts = dict(axioms=True, distributive=False, modular=False, heightlaw=False)
    return Doc("n5", "N5", ("0", "a", "b", "c", "1"),
               ((0, 1), (0, 2), (1, 3), (3, 4), (2, 4)), None, facts)


# ----- random families ------------------------------------------------------


def _count_downsets(order: list[int], below: list[int]) -> int:
    """Down-sets of a poset; ``order`` is a linear extension and below[e]
    the strict down-set of e as a bitmask."""
    count = 0
    stack = [(0, 0)]
    while stack:
        i, chosen = stack.pop()
        if i == len(order):
            count += 1
            continue
        e = order[i]
        stack.append((i + 1, chosen))
        if below[e] & ~chosen == 0:
            stack.append((i + 1, chosen | 1 << e))
    return count


def _random_poset_with_downsets(rng, target: int) -> tuple[int, list[int]]:
    """A random poset, not an antichain, with exactly ``target`` down-sets.

    Starts from an antichain and adds random relations along a random
    linear extension; each relation can only remove down-sets, so the count
    falls monotonically and a draw that jumps past the target is retried.
    """
    base = max(2, (target - 1).bit_length())
    while True:
        m = min(rng.randint(base + 1, base + 3), target - 1)
        order = list(range(m))
        rng.shuffle(order)
        below = [0] * m
        pairs = [(order[i], order[j]) for i in range(m) for j in range(i + 1, m)]
        rng.shuffle(pairs)
        for a, b in pairs:
            if below[b] >> a & 1:
                continue
            down_a = below[a] | 1 << a
            for e in range(m):
                if e == b or below[e] >> b & 1:
                    below[e] |= down_a
            count = _count_downsets(order, below)
            if count == target:
                return m, below
            if count < target:
                break


def downset_lattice(rng, target: int, name: str) -> Doc:
    """Down-sets of a random poset: distributive and graded, but neither
    complemented nor atomic since the poset is not an antichain."""
    m, below = _random_poset_with_downsets(rng, target)
    sets = []
    for mask in range(1 << m):
        if all(below[e] & ~mask == 0 for e in range(m) if mask >> e & 1):
            sets.append(mask)
    sets.sort(key=lambda s: (bin(s).count("1"), s))
    names = [f"p{i}" for i in range(m)]
    facts = dict(axioms=True, distributive=True, modular=True, heightlaw=True,
                 complemented=False, atomic=False, spanning=False, topheight=True)
    return Doc("downset", name, tuple(_set_label(s, names) for s in sets),
               _covers_of_sets(sets), m, facts)


def _cuts(down: list[int], full: int) -> list[int]:
    """Intersections of principal down-sets: the Dedekind-MacNeille cuts."""
    cuts = {full}
    frontier = [full]
    while frontier:
        nxt = []
        for c in frontier:
            for d in down:
                x = c & d
                if x not in cuts:
                    cuts.add(x)
                    nxt.append(x)
        frontier = nxt
    return sorted(cuts, key=lambda s: (bin(s).count("1"), s))


def _has_pentagon(sets: list[int]) -> bool:
    """True iff the inclusion lattice of ``sets`` (closed under intersection)
    contains x < z and y with equal joins and meets against y: an N5."""
    n = len(sets)
    index = {s: i for i, s in enumerate(sets)}
    leq = np.array([[a & ~b == 0 for b in sets] for a in sets], dtype=bool)
    pop = np.array([bin(s).count("1") for s in sets])
    meet = np.array([[index[a & b] for b in sets] for a in sets])
    big = pop.max() + 1
    join = np.empty((n, n), dtype=np.int64)
    for x in range(n):
        upper = leq[x][None, :] & leq
        join[x] = np.where(upper, pop[None, :], big).argmin(axis=1)
    for x in range(n):
        for z in np.flatnonzero(leq[x]):
            if z != x and ((join[x] == join[z]) & (meet[x] == meet[z])).any():
                return True
    return False


def dm_lattice(rng, target: int, name: str) -> Doc:
    """Dedekind-MacNeille completion of a random bipartite poset, drawn
    until it has exactly ``target`` elements and contains a pentagon.

    The width of the poset drifts up after a draw that came out too small
    and down after one too large, so draws stay near the target size.
    """
    width = 3
    while True:
        a = width + rng.randint(0, 2)
        b = width + rng.randint(0, 2)
        density = rng.uniform(0.5, 0.8)
        down = [1 << i for i in range(a)]
        for j in range(b):
            mask = 1 << (a + j)
            for i in range(a):
                if rng.random() < density:
                    mask |= 1 << i
            down.append(mask)
        sets = _cuts(down, (1 << (a + b)) - 1)
        if len(sets) == target and _has_pentagon(sets):
            facts = dict(axioms=True, distributive=False, modular=False, heightlaw=False)
            labels = tuple(f"c{i}" for i in range(len(sets)))
            return Doc("dm", name, labels, _covers_of_sets(sets), None, facts)
        width = max(2, width + (1 if len(sets) < target else -1))


def log_targets(lo: int, hi: int, count: int) -> list[int]:
    """``count`` sizes spread geometrically over [lo, hi]."""
    ratio = (hi / lo) ** (1 / (count - 1))
    return [round(lo * ratio**i) for i in range(count)]


def check_corpus(rng) -> list[Doc]:
    """The check workload's documents: fixed families plus seeded random
    down-set lattices and Dedekind-MacNeille completions."""
    docs = [boolean(k) for k in range(3, 9)]
    docs += [subspace(2, q) for q in (2, 3, 5, 7, 11, 13)]
    docs += [subspace(n, q) for n, q in ((3, 2), (3, 3), (3, 5), (3, 7), (4, 2), (4, 3))]
    docs += [chain(k) for k in (3, 4, 6, 8, 12, 16, 24, 32, 48, 64)]
    docs += [diamond(), pentagon()]
    docs += [downset_lattice(rng, t, f"downset_{i}")
             for i, t in enumerate(log_targets(6, 160, 40))]
    docs += [dm_lattice(rng, t, f"dm_{i}") for i, t in enumerate(log_targets(8, 96, 32))]
    return docs

