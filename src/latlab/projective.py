"""Projective-geometry reading of a graded atomic lattice.

Atoms are points, height-2 elements are lines, height-3 elements are planes.
The checkers verify the classical incidence axioms plus spanning, and
:func:`verify_bvn_characterization` bundles them with the lattice-theoretic
clauses (modular, atomic, perspective, top height) into one report, after
Birkhoff and von Neumann's characterization of quantum-logic lattices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import ElementId, FiniteLattice, _first_pair
from .errors import NotAtomic, NotAtoms, NotGraded
from .props import Law, LawReport, is_atomic


@dataclass(frozen=True)
class GeometryView:
    """Height-classified elements of a graded lattice."""

    lattice: FiniteLattice
    points: tuple[ElementId, ...]
    lines: tuple[ElementId, ...]
    planes: tuple[ElementId, ...]


def geometry_view(lat: FiniteLattice) -> GeometryView:
    """Classify elements by height; reject lattices that are not graded."""
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


def check_p1(view: GeometryView) -> LawReport:
    """Two distinct points lie on exactly one common line."""
    on = view.lattice.leq[np.ix_(view.points, view.lines)].astype(np.float32)
    # [i, j] = number of lines on both points i and j, exact in float32.
    hit = _first_pair(len(view.points), lambda a, b: on[a:b] @ on.T != 1)
    if hit is None:
        return LawReport(Law.P1, True)
    i, j = hit
    count = int(on[i] @ on[j])
    return LawReport(Law.P1, False, (view.points[i], view.points[j]), f"{count} common lines")


def check_p2(view: GeometryView) -> LawReport:
    """Coplanar lines (join of height <= 3) meet in at least a point."""
    lat, lines = view.lattice, view.lines
    h = lat.heights

    def disjoint_coplanar(a: int, b: int) -> np.ndarray:
        block = np.ix_(lines[a:b], lines)
        return (h[lat.join_table[block]] <= 3) & (h[lat.meet_table[block]] < 1)

    hit = _first_pair(len(lines), disjoint_coplanar)
    if hit is None:
        return LawReport(Law.P2, True)
    l1, l2 = lines[hit[0]], lines[hit[1]]
    return LawReport(Law.P2, False, (l1, l2), f"meet height {lat.height(lat.meet(l1, l2))}")


def check_p3_third_point(view: GeometryView) -> LawReport:
    """Every line carries at least three points."""
    counts = np.count_nonzero(view.lattice.leq[np.ix_(view.points, view.lines)], axis=0)
    short = np.flatnonzero(counts < 3)
    if short.size:
        first = int(short[0])
        return LawReport(Law.THIRD_POINT, False, (view.lines[first],), f"{counts[first]} points")
    return LawReport(Law.THIRD_POINT, True)


def _require_atoms(lat: FiniteLattice, qs) -> list[ElementId]:
    qs = [int(q) for q in qs]
    if len(set(qs)) != len(qs):
        raise NotAtoms("atom set contains duplicates", witness=tuple(qs))
    atoms = set(lat.atoms())
    for q in qs:
        if q not in atoms:
            raise NotAtoms(f"{lat.labels[q]!r} is not an atom", witness=(q,))
    return qs


def is_independent(lat: FiniteLattice, qs) -> bool:
    """No atom lies below the join of any subset of the others.

    By join monotonicity it suffices to test each atom against the join of
    all the others.
    """
    qs = _require_atoms(lat, qs)
    for i, q in enumerate(qs):
        rest = lat.join_all(qs[:i] + qs[i + 1 :])
        if lat.le(q, rest):
            return False
    return True


def check_spanning(lat: FiniteLattice, n: int) -> LawReport:
    """Some n points join to top and no n-1 points do; for n = 0 there is no
    smaller set to rule out.

    The joins of at most j points form R_j: R_0 = {bottom} and R_{j+1} =
    {r join p : r in R_j, p a point}.  Given at least j points, some j of
    them join to top iff top is in R_j, since further points added to a
    spanning set keep its join at top.  R_j holds R_{j-1} for j >= 2 (an
    element that is a join of points is its own join with one of them), so
    a breadth-first pass joins each element with the points at most once.
    Only a failure that names the lexicographically first n-1 points
    already spanning scans the point sets.
    """
    if n < 0:
        raise ValueError(f"spanning needs n >= 0, got n={n}")
    atomic = is_atomic(lat)
    if not atomic.holds:
        raise NotAtomic("lattice is not atomic", witness=atomic.witness)
    atoms = lat.atoms()

    reached = np.zeros(lat.size, dtype=bool)
    reached[lat.bottom] = True
    fresh = np.array([lat.bottom])
    fewest = 0  # with top reached, the fewest points that span
    while not reached[lat.top] and fewest < n and fresh.size:
        joins = np.zeros(lat.size, dtype=bool)
        joins[lat.join_table[np.ix_(fresh, atoms)]] = True
        fresh = np.flatnonzero(joins & ~reached)
        reached |= joins
        fewest += 1
    if not reached[lat.top] or len(atoms) < n:
        return LawReport(Law.SPANNING, False, None, f"no {n}-point set spans")
    if fewest < n:
        smaller = next(c for c in itertools.combinations(atoms, n - 1) if lat.join_all(c) == lat.top)
        return LawReport(Law.SPANNING, False, smaller, f"{n - 1} points already span")
    return LawReport(Law.SPANNING, True)


@dataclass(frozen=True)
class CharacterizationReport:
    """Per-clause law reports for the quantum-lattice characterization."""

    clauses: dict[str, LawReport]

    @property
    def passed(self) -> bool:
        return all(r.holds for r in self.clauses.values())

    def failing(self) -> tuple[str, ...]:
        return tuple(name for name, r in self.clauses.items() if not r.holds)

    def to_dict(self, lat: FiniteLattice | None = None) -> dict:
        return {
            "passed": self.passed,
            "clauses": {k: r.to_dict(lat) for k, r in self.clauses.items()},
        }


# Clause names of the characterization, in report order.
_BVN_CLAUSES = (
    ("modular", Law.MODULAR),
    ("atomic", Law.ATOMIC),
    ("perspective", Law.PERSPECTIVE),
    ("top_height", Law.TOP_HEIGHT),
    ("p1", Law.P1),
    ("p2", Law.P2),
    ("third_point", Law.THIRD_POINT),
    ("spanning", Law.SPANNING),
)


def verify_bvn_characterization(lat: FiniteLattice, n: int) -> CharacterizationReport:
    """Check the full profile: modular, atomic, perspective atoms, top height
    n, and the incidence axioms with n-point spanning.  Raises ValueError for
    n < 0, before any clause runs; otherwise never raises, and clauses that
    cannot even be evaluated are reported as failing."""
    from .witness import law_checker  # witness imports this module

    if n < 0:
        raise ValueError(f"the characterization needs n >= 0, got n={n}")
    clauses: dict[str, LawReport] = {}
    check = law_checker(lat, n)
    for name, law in _BVN_CLAUSES:
        if law is Law.TOP_HEIGHT:
            top_h = lat.height(lat.top)
            clauses[name] = LawReport(
                law, top_h == n, None, f"height(top)={top_h}, expected {n}"
            )
            continue
        try:
            clauses[name] = check(law)
        except NotGraded as exc:
            clauses[name] = LawReport(law, False, None, f"not graded: {exc}")
        except NotAtomic as exc:
            clauses[name] = LawReport(law, False, None, f"not atomic: {exc}")
    return CharacterizationReport(clauses)
