"""The law registry, and independent re-evaluation of law violations.

:data:`LAWS` maps every :class:`Law` to its checker and to the re-check of
its witnesses; the CLI, :func:`latlab.projective.verify_bvn_characterization`
and :func:`witness_violates` all read it.  The re-checks recompute bounds
and heights straight from the order relation (never from the stored tables,
except for the table-level axioms) so a witness returned by a checker can be
confirmed without trusting the checker.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from .core import ElementId, FiniteLattice
from .projective import (
    check_p1,
    check_p2,
    check_p3_third_point,
    check_spanning,
    geometry_view,
)
from .props import (
    Law,
    LawReport,
    check_lattice_axioms,
    is_atomic,
    is_complemented,
    is_distributive,
    is_modular,
    is_perspective_lattice,
    satisfies_height_law,
)


class _Unbounded(Exception):
    """The order lacks a bound that a witness re-check needs."""


def order_meet(lat: FiniteLattice, x: ElementId, y: ElementId) -> ElementId:
    """Greatest lower bound read off the order; raises if there is none."""
    lows = [z for z in range(lat.size) if lat.le(z, x) and lat.le(z, y)]
    tops = [z for z in lows if all(lat.le(w, z) for w in lows)]
    if len(tops) != 1:
        raise _Unbounded
    return tops[0]


def order_join(lat: FiniteLattice, x: ElementId, y: ElementId) -> ElementId:
    """Least upper bound read off the order; raises if there is none."""
    ups = [z for z in range(lat.size) if lat.le(x, z) and lat.le(y, z)]
    lows = [z for z in ups if all(lat.le(z, w) for w in ups)]
    if len(lows) != 1:
        raise _Unbounded
    return lows[0]


def chain_height(lat: FiniteLattice, x: ElementId) -> int:
    """Longest chain bottom..x via direct recursion on the order."""

    @lru_cache(maxsize=None)
    def rec(e: int) -> int:
        below = [z for z in range(lat.size) if z != e and lat.le(z, e)]
        return 1 + max((rec(z) for z in below), default=-1)

    height = rec(int(x))
    del rec  # it holds itself through its closure: free this call's state now
    return height


def _violates_axioms(lat: FiniteLattice, witness) -> bool:
    m, j = lat.meet_table, lat.join_table
    if len(witness) == 1:
        (x,) = witness
        return m[x, x] != x or j[x, x] != x
    if len(witness) == 2:
        x, y = witness
        checks = [
            m[x, y] == m[y, x],
            j[x, y] == j[y, x],
            m[x, j[x, y]] == x,
            j[x, m[x, y]] == x,
        ]
        return not all(checks)
    x, y, z = witness
    checks = [
        m[m[x, y], z] == m[x, m[y, z]],
        j[j[x, y], z] == j[x, j[y, z]],
    ]
    return not all(checks)


def _violates_distributive(lat, witness) -> bool:
    x, y, z = witness
    lhs = order_meet(lat, x, order_join(lat, y, z))
    rhs = order_join(lat, order_meet(lat, x, y), order_meet(lat, x, z))
    return lhs != rhs


def _violates_modular(lat, witness) -> bool:
    x, y, z = witness
    if not lat.le(x, z):
        return False
    lhs = order_join(lat, x, order_meet(lat, y, z))
    rhs = order_meet(lat, order_join(lat, x, y), z)
    return lhs != rhs


def _violates_height_law(lat, witness) -> bool:
    x, y = witness
    lhs = chain_height(lat, order_meet(lat, x, y)) + chain_height(
        lat, order_join(lat, x, y)
    )
    return lhs != chain_height(lat, x) + chain_height(lat, y)


def _complements(lat, x):
    return [
        y
        for y in range(lat.size)
        if order_meet(lat, x, y) == lat.bottom and order_join(lat, x, y) == lat.top
    ]


def _violates_complemented(lat, witness) -> bool:
    (x,) = witness
    return not _complements(lat, x)


def _violates_atomic(lat, witness) -> bool:
    (x,) = witness
    atoms_below = [
        a
        for a in range(lat.size)
        if chain_height(lat, a) == 1 and lat.le(a, x)
    ]
    out = lat.bottom
    for a in atoms_below:
        out = order_join(lat, out, a)
    return out != x


def _violates_perspective(lat, witness) -> bool:
    x, y = witness
    return not (set(_complements(lat, x)) & set(_complements(lat, y)))


def _violates_p1(lat, witness) -> bool:
    p, q = witness
    lines = [e for e in range(lat.size) if chain_height(lat, e) == 2]
    above = [l for l in lines if lat.le(p, l) and lat.le(q, l)]
    return len(above) != 1


def _violates_p2(lat, witness) -> bool:
    l1, l2 = witness
    if chain_height(lat, order_join(lat, l1, l2)) > 3:
        return False
    return chain_height(lat, order_meet(lat, l1, l2)) < 1


def _violates_third_point(lat, witness) -> bool:
    (line,) = witness
    atoms = [
        a
        for a in range(lat.size)
        if chain_height(lat, a) == 1 and lat.le(a, line)
    ]
    return len(atoms) < 3


def _violates_spanning(lat, witness) -> bool:
    # A spanning witness is an undersized point set that already joins to top.
    out = lat.bottom
    for a in witness:
        out = order_join(lat, out, a)
    return out == lat.top


def _top_height(lat: FiniteLattice, n: int) -> LawReport:
    actual = lat.height(lat.top)
    return LawReport(
        Law.TOP_HEIGHT, actual == n, None, f"top height {actual}, expected {n}"
    )


@dataclass(frozen=True)
class LawSpec:
    """How one law is checked and how its witnesses are re-checked.

    ``check(lat, n)`` returns the law's report; ``n``, the target height of
    the top, is read only by laws with ``needs_n``.  The incidence laws
    classify the lattice's geometry view themselves, on every call.
    ``violates(lat, witness)`` re-evaluates a failure witness from the order
    alone, and is None for a law whose reports carry no witness.
    """

    check: Callable[[FiniteLattice, int | None], LawReport]
    violates: Callable[[FiniteLattice, tuple[ElementId, ...]], bool] | None
    needs_n: bool = False


# Entries call the checkers through their module-level names, so whatever
# rebinds those names (a tracer, a test double) sees every registry call.
LAWS: dict[Law, LawSpec] = {
    Law.LATTICE_AXIOMS: LawSpec(
        lambda lat, n: check_lattice_axioms(lat), _violates_axioms
    ),
    Law.DISTRIBUTIVE: LawSpec(
        lambda lat, n: is_distributive(lat), _violates_distributive
    ),
    Law.MODULAR: LawSpec(lambda lat, n: is_modular(lat), _violates_modular),
    Law.HEIGHT_LAW: LawSpec(
        lambda lat, n: satisfies_height_law(lat), _violates_height_law
    ),
    Law.COMPLEMENTED: LawSpec(
        lambda lat, n: is_complemented(lat), _violates_complemented
    ),
    Law.ATOMIC: LawSpec(lambda lat, n: is_atomic(lat), _violates_atomic),
    Law.PERSPECTIVE: LawSpec(
        lambda lat, n: is_perspective_lattice(lat), _violates_perspective
    ),
    Law.P1: LawSpec(lambda lat, n: check_p1(geometry_view(lat)), _violates_p1),
    Law.P2: LawSpec(lambda lat, n: check_p2(geometry_view(lat)), _violates_p2),
    Law.THIRD_POINT: LawSpec(
        lambda lat, n: check_p3_third_point(geometry_view(lat)), _violates_third_point
    ),
    Law.SPANNING: LawSpec(
        lambda lat, n: check_spanning(lat, n), _violates_spanning, needs_n=True
    ),
    Law.TOP_HEIGHT: LawSpec(_top_height, None, needs_n=True),
}


def witness_violates(lat: FiniteLattice, report: LawReport) -> bool:
    """True iff the report's witness really violates the reported law.

    A witness whose re-check needs a bound the order lacks stays unconfirmed.
    """
    violates = LAWS[report.law].violates
    if report.holds or report.witness is None or violates is None:
        return False
    try:
        return bool(violates(lat, tuple(int(w) for w in report.witness)))
    except _Unbounded:
        return False
