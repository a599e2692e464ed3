"""Law checkers for finite lattices.

Every checker returns a :class:`LawReport`, and every "holds" answer is the
result of a full scan (no sampling) or of a named theorem whose premise is
verified.  The premise, :meth:`FiniteLattice.tables_match_order`, is that
``leq`` is a partial order whose least upper and greatest lower bounds are
the stored tables, and whose covers and heights are the stored ones, which
the theorems below read.  Given it:

- the lattice axioms hold, since the bounds of a partial order form a lattice;
- the lattice is distributive iff every join-irreducible element is
  join-prime (Birkhoff's representation theorem);
- the lattice is modular iff the longest-chain height is a valuation,
  h(x meet y) + h(x join y) = h(x) + h(y): a modular lattice satisfies the
  Jordan-Dedekind chain condition, and a strictly monotone valuation forces
  modularity (Birkhoff, *Lattice Theory*, ch. III and X).

When the premise or the theorem's condition fails, the scan runs.  Given
the premise it skips each x comparable to every element, whose row holds no
witness: for distributivity, y, z < x gives y join z on both sides, and
x <= y or x <= z gives x; for modularity (x <= z), y <= x gives x and x <= y
gives y meet z.  Without the premise every row is scanned.  So a failing law
always carries the lexicographically first violating element tuple under the
element ordering, and failures are reproducible and re-checkable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core import ElementId, FiniteLattice, _first_pair


class Law(enum.Enum):
    LATTICE_AXIOMS = "axioms"
    DISTRIBUTIVE = "distributive"
    MODULAR = "modular"
    HEIGHT_LAW = "heightlaw"
    COMPLEMENTED = "complemented"
    ATOMIC = "atomic"
    PERSPECTIVE = "perspective"
    # projective-geometry laws, checked in latlab.projective
    P1 = "p1"
    P2 = "p2"
    THIRD_POINT = "thirdpoint"
    SPANNING = "spanning"
    TOP_HEIGHT = "topheight"


@dataclass(frozen=True)
class LawReport:
    """Outcome of one law check: the law, whether it holds, and a witness."""

    law: Law
    holds: bool
    witness: tuple[ElementId, ...] | None = None
    detail: str = ""

    def to_dict(self, lat: FiniteLattice | None = None) -> dict:
        witness = None
        if self.witness is not None:
            if lat is None:
                witness = [int(w) for w in self.witness]
            else:
                witness = [lat.labels[w] for w in self.witness]
        return {
            "law": self.law.value,
            "holds": self.holds,
            "witness": witness,
            "detail": self.detail,
        }


def _first(mask: np.ndarray) -> tuple[int, int]:
    """The first true (row, column) of a 2-D mask with a true entry."""
    return divmod(int(mask.argmax()), mask.shape[1])


def check_lattice_axioms(lat: FiniteLattice) -> LawReport:
    """Re-verify idempotency, commutativity, associativity and absorption.

    Holds outright when the tables are the bounds of the order.  Otherwise
    the stored tables are scanned, so a corrupted table is caught even
    though build_lattice validated the order it came from.
    """
    if lat.tables_match_order():
        return LawReport(Law.LATTICE_AXIOMS, True)
    return _scan_lattice_axioms(lat)


def is_distributive(lat: FiniteLattice) -> LawReport:
    """x meet (y join z) = (x meet y) join (x meet z), all triples.

    Holds without a scan when every join-irreducible is join-prime.
    """
    if lat.tables_match_order() and _join_irreducibles_are_prime(lat):
        return LawReport(Law.DISTRIBUTIVE, True)
    m, j = lat.meet_table, lat.join_table
    # [y, z] = m[x, j[y, z]] against j[m[x, y], m[x, z]]
    return _first_triple(lat, Law.DISTRIBUTIVE, lambda x: m[x].take(j) != j[m[x][:, None], m[x]])


def is_modular(lat: FiniteLattice) -> LawReport:
    """x <= z implies x join (y meet z) = (x join y) meet z.

    Holds without a scan when the height satisfies the valuation identity.
    """
    if lat.tables_match_order() and _height_law(lat).holds:
        return LawReport(Law.MODULAR, True)
    m, j = lat.meet_table, lat.join_table
    # [y, z] = j[x, m[y, z]] against m[j[x, y], z], where x <= z
    return _first_triple(lat, Law.MODULAR, lambda x: (j[x].take(m) != m[j[x]]) & lat.leq[x])


def _join_irreducibles_are_prime(lat: FiniteLattice) -> bool:
    """Every join-irreducible j (exactly one lower cover) satisfies
    j not<= join{x : j not<= x}.

    That join lies outside the up-set of j iff the set {x : j not<= x} has
    a greatest element, which is then its highest element.
    """
    irreducible = np.flatnonzero(lat.covers.sum(axis=0) == 1)
    outside = ~lat.leq[irreducible]  # [i, x] = j_i not<= x
    highest = np.where(outside, lat.heights, -1).argmax(axis=1)
    return not (outside & ~lat.leq[:, highest].T).any()


def _scan_lattice_axioms(lat: FiniteLattice) -> LawReport:
    """Full scan of the axioms over the stored tables, first failure first.

    O(n^3), but documents carry no tables, so only a FiniteLattice built by
    hand, with tables passed in or an order that is not closed, can fail the
    premise and reach it."""
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


def _first_triple(lat: FiniteLattice, law: Law, bad_rows) -> LawReport:
    """The report naming the least (x, y, z) in row-major order with
    ``bad_rows(x)[y, z]`` true, the n x n block of row x.  Given the premise,
    only the x incomparable to some element are visited (module docstring)."""
    rows = range(lat.size)
    if lat.tables_match_order():
        rows = np.flatnonzero(~(lat.leq | lat.leq.T).all(axis=1)).tolist()
    for x in rows:
        bad = bad_rows(x)
        if bad.any():
            return LawReport(law, False, (x, *_first(bad)))
    return LawReport(law, True)


def satisfies_height_law(lat: FiniteLattice) -> LawReport:
    """h(x meet y) + h(x join y) = h(x) + h(y) for all pairs."""
    return _height_law(lat)


def _height_law(lat: FiniteLattice) -> LawReport:
    # is_modular calls this rather than the public name, so a wrapper put
    # on satisfies_height_law counts only the law's own checks.
    # h(meet) + h(join) - h(x) - h(y) in one table, the join heights added
    # 64 rows at a time so that no second n x n gather is held.
    h = lat.heights
    diff = h[lat.meet_table]
    diff -= h[:, None]
    diff -= h
    for a in range(0, lat.size, 64):
        diff[a : a + 64] += h[lat.join_table[a : a + 64]]
    bad = diff != 0
    if bad.any():
        x, y = _first(bad)
        rhs = int(h[x]) + int(h[y])
        return LawReport(
            Law.HEIGHT_LAW,
            False,
            (x, y),
            f"h(meet)+h(join)={int(diff[x, y]) + rhs} but h(x)+h(y)={rhs}",
        )
    return LawReport(Law.HEIGHT_LAW, True)


def is_complemented(lat: FiniteLattice) -> LawReport:
    """Every element has some complement."""
    has = (
        (lat.meet_table == lat.bottom) & (lat.join_table == lat.top)
    ).any(axis=1)
    if not has.all():
        x = int(np.flatnonzero(~has)[0])
        return LawReport(Law.COMPLEMENTED, False, (x,))
    return LawReport(Law.COMPLEMENTED, True)


def _join_of_atoms_below(lat: FiniteLattice) -> np.ndarray:
    jb = np.full(lat.size, lat.bottom, dtype=np.int32)
    for a in lat.atoms():
        mask = lat.leq[a]
        jb[mask] = lat.join_table[jb[mask], a]
    return jb


def is_atomic(lat: FiniteLattice) -> LawReport:
    """Every element is the join of the atoms below it."""
    jb = _join_of_atoms_below(lat)
    bad = jb != np.arange(lat.size)
    if bad.any():
        x = int(np.flatnonzero(bad)[0])
        return LawReport(
            Law.ATOMIC, False, (x,), f"join of atoms below is {lat.labels[jb[x]]!r}"
        )
    return LawReport(Law.ATOMIC, True)


def is_perspective_lattice(lat: FiniteLattice) -> LawReport:
    """Every two atoms share a complement (are perspective).  The detail
    names the scope, "atoms", on every report."""
    atoms = lat.atoms()
    comp = (
        (lat.meet_table[atoms, :] == lat.bottom) & (lat.join_table[atoms, :] == lat.top)
    ).astype(np.float32)
    # [i, j] = number of common complements of atoms i and j.
    hit = _first_pair(len(atoms), lambda a, b: comp[a:b] @ comp.T == 0)
    if hit is None:
        return LawReport(Law.PERSPECTIVE, True, detail="atoms")
    return LawReport(Law.PERSPECTIVE, False, (atoms[hit[0]], atoms[hit[1]]), "atoms")
