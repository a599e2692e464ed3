"""The order kernel, cover-recursion bound tables and theorem-backed law
deciders against the frozen squaring closure and full scans in ``oracles``.

The fast paths must agree with the scans everywhere: identical tables,
identical NotALattice message and witness, and identical LawReports,
including on lattices whose tables or order were forged so that the
deciders' premise fails.  Orders with N5 or M3 grafted on top fail their
laws only in the last rows, where the row cut of the distributive and
modular scans must find the full scans' witnesses.  The row scans of P1, P2
and atoms-only perspectivity must return the frozen pair loops' reports,
witness and detail included.  ``geometry_view``'s pass over the cover
pairs must classify an order, or name its first jumping cover, as the
frozen masked test did.  Complemented and atomic must return the
reports of brute-force scans of the order, and random lattices must survive
a write and a load unchanged.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from latlab import (
    FiniteLattice,
    LawReport,
    NoBoundingElements,
    NotALattice,
    NotAPartialOrder,
    NotAtomic,
    NotGraded,
    SizeBound,
    boolean_lattice,
    build_lattice,
    chain,
    check_lattice_axioms,
    check_p1,
    check_p2,
    check_p3_third_point,
    check_spanning,
    diamond_m3,
    document_from_lattice,
    document_to_lattice,
    geometry_view,
    is_atomic,
    is_complemented,
    is_distributive,
    is_modular,
    is_perspective_lattice,
    parse_document,
    pentagon_n5,
    satisfies_height_law,
    subspace_lattice,
    witness_violates,
)
from latlab import core, generators
from latlab.cli import main
from latlab.limits import element_cap

from oracles import (
    argwhere_cover_pairs,
    combination_spanning,
    brute_atomic,
    brute_complemented,
    brute_heights,
    brute_spanning,
    brute_third_point,
    gaussian_binomial,
    loop_atoms_perspective,
    loop_p1,
    loop_p2,
    masked_geometry_view,
    scan_bound_tables,
    scan_cover_matrix,
    scan_distributive,
    scan_height_law,
    scan_lattice_axioms,
    scan_modular,
    squaring_order,
    verify_tables,
)

DECIDERS = (
    (check_lattice_axioms, scan_lattice_axioms),
    (is_distributive, scan_distributive),
    (is_modular, scan_modular),
)


# ----- random lattices and bounded posets -----------------------------------


def _shuffled(draw, count, pairs):
    perm = draw(st.permutations(range(count)))
    labels = [f"e{perm[i]}" for i in range(count)]
    return labels, [(perm[a], perm[b]) for a, b in pairs]


@st.composite
def bounded_posets(draw):
    """A random poset with a bottom and a top added: mostly not a lattice.

    Each element of a lower layer lies below about three quarters of an
    upper layer, so two lower elements often share two minimal upper bounds.
    """
    low, high = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    cells = [(a, low + b) for a in range(low) for b in range(high)]
    keep = draw(st.lists(st.integers(0, 3), min_size=len(cells), max_size=len(cells)))
    m = low + high
    n = m + 2
    bottom, top = 0, n - 1
    pairs = [(bottom, top)] + [(a + 1, b + 1) for (a, b), k in zip(cells, keep) if k]
    pairs += [(bottom, e + 1) for e in range(m)] + [(e + 1, top) for e in range(m)]
    return _shuffled(draw, n, pairs)


@st.composite
def dm_completions(draw):
    """The Dedekind-MacNeille completion of a random poset: its cuts are the
    intersections of principal down-sets, ordered by inclusion."""
    m = draw(st.integers(0, 7))
    rel = [(i, j) for i in range(m) for j in range(i + 1, m) if draw(st.booleans())]
    down = [1 << e for e in range(m)]
    for _ in range(m):  # transitive closure of the down-sets
        for a, b in rel:
            down[b] |= down[a]
    cuts = {(1 << m) - 1}
    frontier = list(cuts)
    while frontier:
        fresh = {c & d for c in frontier for d in down} - cuts
        cuts |= fresh
        frontier = list(fresh)
    cuts = sorted(cuts)
    pairs = [(i, j) for i, a in enumerate(cuts) for j, b in enumerate(cuts)
             if i != j and a & ~b == 0]
    return _shuffled(draw, len(cuts), pairs)


def _downsets(m, below):
    """The down-sets of a poset on range(m) as bitmasks, ascending; bit e of
    below[e'] says e < e'."""
    masks = np.arange(1 << m)
    closed = np.ones(1 << m, dtype=bool)
    for e, low in enumerate(below):
        closed &= (masks >> e & 1 == 0) | (low & ~masks == 0)
    return masks[closed].tolist()


def downset_order(m, below, chain=0):
    """Labels and cover pairs of the down-set lattice of a poset on range(m),
    with ``chain`` more elements in a chain above all of it: the random
    part's down-sets, then a chain of ``chain`` elements on top."""
    sets = _downsets(m, below) + [(1 << (m + i)) - 1 for i in range(1, chain + 1)]
    # Python ints: with the chain, a mask can take 64 bits or more.
    masks = np.array(sets, dtype=object)
    size = np.array([bin(s).count("1") for s in sets])
    covers = (masks[:, None] & ~masks[None, :] == 0) & (size[None, :] == size[:, None] + 1)
    return [f"d{s:x}" for s in sets], np.argwhere(covers).tolist()


@st.composite
def downset_lattices(draw):
    """The down-set lattice of a random poset, 65 to 200 elements.

    The poset is up to nine random elements, in half the draws with a chain
    of up to 60 above them, so the lattice is distributive and its
    meet-irreducibles, one per poset element, are few or many.  Relations are added along a drawn
    order, each kept only while the lattice stays at 65 elements or more,
    until it has at most 200.
    """
    chain = draw(st.integers(0, 60)) if draw(st.booleans()) else 0
    m = draw(st.integers(max(3, (64 - chain).bit_length()), 9))
    below = [0] * m
    count = (1 << m) + chain
    for a, b in draw(st.permutations([(a, b) for a in range(m) for b in range(a + 1, m)])):
        if count <= 200:
            break
        down_a = below[a] | 1 << a
        trial = [low | down_a if e == b or low >> b & 1 else low for e, low in enumerate(below)]
        size = len(_downsets(m, trial)) + chain
        if size >= 65:
            below, count = trial, size
    assume(count <= 200)
    labels, pairs = downset_order(m, below, chain)
    return _shuffled(draw, len(labels), pairs)


@st.composite
def digraphs(draw):
    """An arbitrary relation on up to eight elements: often cyclic, with
    elements above a cycle but on none."""
    n = draw(st.integers(1, 8))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    return [f"e{i}" for i in range(n)], draw(st.lists(pair, max_size=2 * n))


@st.composite
def generating_relations(draw):
    """Any relation ``build_lattice`` accepts: a bounded poset's, a DM
    completion's or an arbitrary digraph's pairs, optionally closed into a
    dense relation, with duplicate and self pairs, and with reversed pairs
    that close cycles."""
    labels, pairs = draw(st.one_of(bounded_posets(), dm_completions(), digraphs()))
    n = len(labels)
    if draw(st.booleans()):
        pairs = [tuple(p) for p in np.argwhere(_closed(n, pairs)).tolist()]
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=3))
        if draw(st.integers(0, 2)) == 0:
            pairs += [(b, a) for a, b in draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=2))]
    pairs += [(e, e) for e in draw(st.lists(st.integers(0, n - 1), max_size=3))]
    return labels, draw(st.permutations(pairs))


def _relation(n, pairs):
    rel = np.zeros((n, n), dtype=bool)
    for a, b in pairs:
        rel[a, b] = True
    return rel


def _closed(n, pairs):
    """Reflexive-transitive closure by Warshall's algorithm."""
    leq = _relation(n, pairs) | np.eye(n, dtype=bool)
    for k in range(n):
        leq |= leq[:, k, None] & leq[None, k, :]
    return leq


def _reference_build(labels, pairs):
    """Tables or the NotALattice of the frozen scan, over an order closed
    by Warshall's algorithm with brute-force heights."""
    leq = _closed(len(labels), pairs)
    heights = np.array(brute_heights(leq.tolist()))
    try:
        return scan_bound_tables(leq, heights, labels)
    except NotALattice as exc:
        return type(exc), str(exc), exc.witness


def _build(labels, pairs):
    try:
        lat = build_lattice(labels, pairs)
    except NotALattice as exc:
        return type(exc), str(exc), exc.witness
    return lat.meet_table, lat.join_table


def _assert_same_outcome(got, want):
    """Equal arrays of equal dtypes, or the same error tuple."""
    if isinstance(want[0], np.ndarray):
        assert len(got) == len(want) and all(isinstance(g, np.ndarray) for g in got), got
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)
    else:
        assert got == want


def _assert_deciders_match(lat):
    for decide, scan in DECIDERS:
        report = decide(lat)
        assert report == scan(lat), (lat.name, report)
        if not report.holds:
            assert witness_violates(lat, report), (lat.name, report)


@settings(max_examples=150, deadline=None)
@given(bounded_posets())
def test_build_lattice_matches_scan_on_bounded_posets(poset):
    labels, pairs = poset
    _assert_same_outcome(_build(labels, pairs), _reference_build(labels, pairs))


@settings(max_examples=120, deadline=None)
@given(dm_completions())
def test_tables_and_deciders_match_scans_on_dm_completions(lattice):
    labels, pairs = lattice
    _assert_same_outcome(_build(labels, pairs), _reference_build(labels, pairs))
    _assert_deciders_match(build_lattice(labels, pairs))


def _outcome(derive, *args):
    """The arrays ``derive`` returns, or the type, message and witness of
    the order error it raises."""
    try:
        return derive(*args)
    except (NotAPartialOrder, NoBoundingElements, NotALattice) as exc:
        return type(exc), str(exc), exc.witness


def _squaring_build(labels, pairs):
    """``build_lattice``'s outcome with the order from the frozen squaring
    trio and the tables from the frozen scan."""
    leq, covers, heights = squaring_order(_relation(len(labels), pairs), labels)
    if leq.all(axis=1).sum() != 1 or leq.all(axis=0).sum() != 1:
        raise NoBoundingElements("order has no unique bottom/top pair")
    return (leq, covers, heights, *scan_bound_tables(leq, heights, labels))


def _kernel_build(labels, pairs):
    lat = build_lattice(labels, pairs)
    return lat.leq, lat.covers, lat.heights, lat.meet_table, lat.join_table


@settings(max_examples=400, deadline=None)
@given(generating_relations())
def test_order_kernel_matches_the_squaring_reference(relation):
    labels, pairs = relation
    rel = _relation(len(labels), pairs)
    _assert_same_outcome(
        _outcome(core._order, rel, labels), _outcome(squaring_order, rel, labels)
    )
    _assert_same_outcome(
        _outcome(_kernel_build, labels, pairs), _outcome(_squaring_build, labels, pairs)
    )


def test_tables_and_deciders_match_scans_on_law_corpus(law_corpus):
    for lat in law_corpus:
        rebuilt = build_lattice(lat.labels, lat.upper_neighbors(), name=lat.name)
        assert np.array_equal(rebuilt.meet_table, lat.meet_table), lat.name
        assert np.array_equal(rebuilt.join_table, lat.join_table), lat.name
        assert lat.tables_match_order(), lat.name
        _assert_deciders_match(lat)
        _assert_deciders_match(rebuilt)


def test_single_element_steps_match(monkeypatch):
    monkeypatch.setattr(core, "_STEP_ENTRIES", 1)
    for lat in (boolean_lattice(5), subspace_lattice(2, 3), pentagon_n5(), chain(6)):
        rebuilt = build_lattice(lat.labels, lat.upper_neighbors())
        assert np.array_equal(rebuilt.meet_table, lat.meet_table), lat.name
        assert np.array_equal(rebuilt.join_table, lat.join_table), lat.name
        assert lat.tables_match_order(), lat.name
    for lat in (pentagon_n5(), boolean_lattice(2)):
        for table in ("meet", "join"):
            for x, y, value in itertools.product(range(lat.size), repeat=3):
                if value != (lat.meet(x, y) if table == "meet" else lat.join(x, y)):
                    assert not _forged(lat, table, x, y, value).tables_match_order()
    hexagon = ["0", "a", "b", "c", "d", "1"]
    pairs = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5)]
    with pytest.raises(NotALattice) as caught:
        build_lattice(hexagon, pairs)
    assert caught.value.witness == (1, 2)


# ----- the premise gate -------------------------------------------------------


def _forged(lat, table, x, y, value):
    meet, join = lat.meet_table.copy(), lat.join_table.copy()
    (meet if table == "meet" else join)[x, y] = value
    return FiniteLattice(lat.labels, lat.leq.copy(), lat.bottom, lat.top, meet, join,
                         name=f"{lat.name}:{table}[{x},{y}]={value}")


def _hand_built(lat, covers=None, heights=None):
    """``lat``'s order and tables in a fresh object, which derives its own
    covers and heights and checks its premise unless some are seeded."""
    hand = FiniteLattice(lat.labels, lat.leq, lat.bottom, lat.top, lat.meet_table,
                         lat.join_table, name=lat.name)
    seeded = {"covers": covers, "heights": heights}
    hand._seed_forms(**{attr: arr for attr, arr in seeded.items() if arr is not None})
    return hand


def _intransitive(lat, x, y):
    leq = lat.leq.copy()
    leq[x, y] = False
    return FiniteLattice(lat.labels, leq, lat.bottom, lat.top, lat.meet_table.copy(),
                         lat.join_table.copy(), name=f"{lat.name}:not {x}<={y}")


# Each forgery sits in a lattice whose order breaks the law too, so the
# witness's order-based re-check applies.  The intransitive chain keeps
# lattice tables, so its axioms still hold by scan.  The last two seed covers
# or heights that disagree with the order; the theorems read both.
GATE_CASES = [
    (check_lattice_axioms, scan_lattice_axioms, lambda: _forged(boolean_lattice(2), "meet", 1, 2, 3)),
    (check_lattice_axioms, scan_lattice_axioms, lambda: _intransitive(chain(3), 0, 2)),
    (is_distributive, scan_distributive, lambda: _forged(diamond_m3(), "join", 2, 3, 1)),
    (is_distributive, scan_distributive, lambda: _intransitive(diamond_m3(), 0, 4)),
    (is_modular, scan_modular, lambda: _forged(pentagon_n5(), "meet", 2, 3, 1)),
    (is_modular, scan_modular, lambda: _intransitive(pentagon_n5(), 0, 4)),
    (is_distributive, scan_distributive,
     lambda: _hand_built(diamond_m3(), covers=np.zeros((5, 5), dtype=bool))),
    (is_modular, scan_modular,
     lambda: _hand_built(pentagon_n5(), heights=np.zeros(5, dtype=np.int32))),
]


@pytest.mark.parametrize("decide, scan, make", GATE_CASES)
def test_premise_gate_falls_back_to_the_scan(decide, scan, make):
    lat = make()
    assert not lat.tables_match_order()
    report = decide(lat)
    assert report == scan(lat)
    if not report.holds:
        assert witness_violates(lat, report)


def _draw_forged(lat, data):
    """A copy of ``lat`` with one drawn table entry changed."""
    table = data.draw(st.sampled_from(["meet", "join"]))
    x, y = data.draw(st.tuples(*[st.integers(0, lat.size - 1)] * 2))
    true = int((lat.meet_table if table == "meet" else lat.join_table)[x, y])
    value = data.draw(st.integers(0, lat.size - 1).filter(lambda v: v != true))
    return _forged(lat, table, x, y, value)


@settings(max_examples=80, deadline=None)
@given(dm_completions(), st.data())
def test_any_forged_entry_fails_the_premise(lattice, data):
    lat = build_lattice(*lattice)
    assume(lat.size > 1)
    forged = _draw_forged(lat, data)
    assert not forged.tables_match_order()
    assert not verify_tables(forged)
    for decide, scan in DECIDERS:
        assert decide(forged) == scan(forged)


def test_seeded_covers_that_disagree_with_the_order_fail_the_premise():
    # With no covers, M3 has no join-irreducibles, so the Birkhoff test
    # passes vacuously; the frozen check accepted these covers.
    m3 = _hand_built(diamond_m3(), covers=np.zeros((5, 5), dtype=bool))
    assert verify_tables(m3)
    assert not m3.tables_match_order()
    report = is_distributive(m3)
    assert not report.holds and report.witness == (1, 2, 3)


@settings(max_examples=120, deadline=None)
@given(dm_completions(), st.data())
def test_premise_matches_the_frozen_verifier_on_dm_completions(lattice, data):
    lat = build_lattice(*lattice)
    assert _hand_built(lat).tables_match_order()
    assert verify_tables(_hand_built(lat))
    x, y = data.draw(st.tuples(*[st.integers(0, lat.size - 1)] * 2))
    covers = lat.covers.copy()
    covers[x, y] = not covers[x, y]
    heights = lat.heights.copy()
    heights[x] += 1
    assert not _hand_built(lat, covers=covers).tables_match_order()
    assert not _hand_built(lat, heights=heights).tables_match_order()


@settings(max_examples=300, deadline=None)
@given(generating_relations(), st.sampled_from(["raw", "reflexive", "closed"]), st.data())
def test_premise_matches_the_frozen_verifier_on_hand_built_relations(relation, form, data):
    labels, pairs = relation
    n = len(labels)
    leq = {
        "raw": _relation(n, pairs),
        "reflexive": _relation(n, pairs) | np.eye(n, dtype=bool),
        "closed": _closed(n, pairs),
    }[form]
    try:
        lat = build_lattice(labels, pairs)
        tables = (lat.meet_table, lat.join_table)
    except (NotAPartialOrder, NoBoundingElements, NotALattice):
        cells = st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n)
        tables = tuple(np.array(data.draw(cells)).reshape(n, n) for _ in "mj")

    def hand():
        return FiniteLattice(labels, leq, 0, n - 1, *tables)

    assert hand().tables_match_order() == verify_tables(hand())


def test_forged_table_over_a_distributive_order_fails_by_scan():
    # The order is B_3's, so a decider that trusted the order alone would
    # answer "holds"; {a} join {b} forged to {a,c} keeps the height law but
    # breaks both laws in the tables.
    lat = _forged(boolean_lattice(3), "join", 1, 2, 5)
    assert satisfies_height_law(lat).holds
    m, j = lat.meet_table, lat.join_table
    distributive = is_distributive(lat)
    assert distributive == scan_distributive(lat) and not distributive.holds
    x, y, z = distributive.witness
    assert m[x, j[y, z]] != j[m[x, y], m[x, z]]
    modular = is_modular(lat)
    assert modular == scan_modular(lat) and not modular.holds
    x, y, z = modular.witness
    assert lat.le(x, z) and j[x, m[y, z]] != m[j[x, y], z]


# ----- late violations: the row cut -------------------------------------------

# N5 (0 < a < c < 1, 0 < b < 1) and M3 (0 < a, b, c < 1) on elements 0..4.
GRAFTS = {
    "N5": [(0, 1), (1, 3), (3, 4), (0, 2), (2, 4)],
    "M3": [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)],
}


def _graft_on_top(labels, pairs, top, shape):
    """``shape`` grafted above ``top``: its bottom is ``top`` and its other
    four elements come last, so the violations it adds lie in the last rows."""
    n = len(labels)
    new = [top, n, n + 1, n + 2, n + 3]
    grafted = [(new[a], new[b]) for a, b in GRAFTS[shape]]
    return list(labels) + [f"g{i}" for i in range(4)], list(pairs) + grafted


def _with_n5(lat):
    """``lat`` with N5 grafted above its top."""
    return build_lattice(*_graft_on_top(lat.labels, lat.upper_neighbors(), lat.top, "N5"))


@pytest.mark.parametrize("shape", sorted(GRAFTS))
@settings(max_examples=40, deadline=None)
@given(st.one_of(bounded_posets(), dm_completions(), downset_lattices()), st.data())
def test_deciders_match_scans_on_late_violations(shape, relation, data):
    labels, pairs = relation
    top = int(np.flatnonzero(_closed(len(labels), pairs).all(axis=0))[0])
    lat = _lattice_or_none(_graft_on_top(labels, pairs, top, shape))
    if lat is None:
        return
    _assert_deciders_match(lat)
    forged = _draw_forged(lat, data)
    assert not forged.tables_match_order()
    for decide, scan in DECIDERS:
        assert decide(forged) == scan(forged), forged.name


def test_forged_two_chain_scans_every_row():
    # Both elements are comparable to everything, so a row cut taken
    # without the premise would scan no row and answer "holds".
    lat = _forged(chain(2), "meet", 0, 0, 1)
    assert not lat.tables_match_order()
    for decide, scan in DECIDERS:
        assert decide(lat) == scan(lat)
    assert is_distributive(lat).witness == (0, 0, 1)


@pytest.mark.parametrize("make", [lambda: chain(252), lambda: boolean_lattice(8)],
                         ids=["chain_n5_256", "b8_n5_260"])
def test_late_violations_match_scans(make):
    lat = _with_n5(make())
    _assert_deciders_match(lat)
    assert not is_distributive(lat).holds and not is_modular(lat).holds


def test_late_violations_at_the_element_cap():
    # The full scans take minutes here; the row cut visits the last rows.
    lat = _with_n5(chain(4092))
    assert is_distributive(lat).witness == (4094, 4092, 4093)
    assert is_modular(lat).witness == (4092, 4093, 4094)


def _height_law_peak_tables():
    """The height law on M_254 and a 256-chain side by side between one
    bottom and one top, where it fails on most pairs: its tracemalloc peak
    in n x n int32 tables, after checking the report against the scan."""
    atoms, length = 254, 256
    n = atoms + length + 2
    pairs = [(0, a) for a in range(1, atoms + 1)] + [(a, n - 1) for a in range(1, atoms + 1)]
    pairs += [(0, atoms + 1), (n - 2, n - 1)] + [(c, c + 1) for c in range(atoms + 1, n - 2)]
    lat = build_lattice([f"e{i}" for i in range(n)], pairs)
    lat.meet_table, lat.join_table
    tracemalloc.start()
    try:
        report = satisfies_height_law(lat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report == scan_height_law(lat) and not report.holds
    return peak / (n * n * np.dtype(np.int32).itemsize)


def test_height_law_witness_allocates_no_coordinates():
    # np.argwhere on the law's mask added two int64 coordinates per
    # failing pair, over eight tables in all.
    assert _height_law_peak_tables() < 4


def test_height_law_accumulates_in_one_table():
    # One int32 table of differences and its bool mask (1.25 tables); two
    # height gathers and their sum peaked at 2.25.
    assert _height_law_peak_tables() < 1.5

# ----- the shared cover matrix ------------------------------------------------


def test_cover_matrix_is_shared_and_read_only(law_corpus):
    for lat in law_corpus:
        covers = lat.covers
        assert covers is lat.covers
        assert not covers.flags.writeable
        assert np.array_equal(covers, scan_cover_matrix(lat.leq)), lat.name
        rebuilt = build_lattice(lat.labels, lat.upper_neighbors())
        assert np.array_equal(rebuilt.covers, covers), lat.name
    with pytest.raises(ValueError):
        lat.covers[0, 0] = True


def test_upper_neighbors_returns_a_fresh_list():
    b3 = boolean_lattice(3)
    first = b3.upper_neighbors()
    first.clear()
    assert len(b3.upper_neighbors()) == 12
    assert b3.upper_neighbors() is not b3.upper_neighbors()
    # Documents and DOT export list the pairs in this order, unsorted.
    for lat in (b3, subspace_lattice(3, 2), pentagon_n5()):
        pairs = lat.upper_neighbors()
        assert pairs == sorted(pairs), lat.name


def _assert_argwhere_cover_pairs(lat):
    pairs = lat.upper_neighbors()
    assert pairs == argwhere_cover_pairs(lat), lat.name
    assert all(type(p) is tuple and len(p) == 2 for p in pairs)
    assert all(type(v) is int for p in pairs for v in p)


@given(dm_completions())
def test_upper_neighbors_match_the_argwhere_reference(relation):
    _assert_argwhere_cover_pairs(build_lattice(*relation))


def test_upper_neighbors_of_one_element_and_of_b12():
    one = build_lattice(["x"], [])
    assert one.upper_neighbors() == []
    _assert_argwhere_cover_pairs(one)
    _assert_argwhere_cover_pairs(boolean_lattice(12))


# ----- bounds before work -----------------------------------------------------


def _no_enumeration(*args, **kwargs):
    raise AssertionError("subspaces were enumerated before the size check")


@pytest.mark.parametrize("n, q", [(7, 2), (9, 2)])
def test_subspace_count_is_bounded_before_enumeration(monkeypatch, capsys, n, q):
    monkeypatch.setattr(generators, "_rref_bases", _no_enumeration)
    count = sum(gaussian_binomial(n, k, q) for k in range(n + 1))
    with pytest.raises(SizeBound, match=f"^{count} subspaces exceeds the cap of {element_cap()}$"):
        subspace_lattice(n, q)
    assert main(["gen", "subspace", "--n", str(n), "--q", str(q)]) == 2
    assert "SizeBound" in capsys.readouterr().err


# ----- row scans against the pair loops ---------------------------------------


def _assert_row_scans_match_loops(lat):
    assert is_perspective_lattice(lat) == loop_atoms_perspective(lat), lat.name
    try:
        view = geometry_view(lat)
    except NotGraded:
        return
    assert check_p1(view) == loop_p1(view), lat.name
    assert check_p2(view) == loop_p2(view), lat.name


@settings(max_examples=200, deadline=None)
@given(st.one_of(bounded_posets(), dm_completions()), st.data())
def test_row_scans_match_the_pair_loops(relation, data):
    labels, pairs = relation
    try:
        lat = build_lattice(labels, pairs)
    except NotALattice:
        lat = None
    if lat is None or data.draw(st.booleans()):
        # Any tables over the bounded order, mostly not symmetric: the scans
        # must read them as the loops do, entry for entry.
        n = len(labels)
        leq = _closed(n, pairs)
        cells = st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n)
        meet, join = (np.array(data.draw(cells)).reshape(n, n) for _ in "mj")
        bottom, top = (int(np.flatnonzero(leq.all(axis=k))[0]) for k in (1, 0))
        lat = FiniteLattice(labels, leq, bottom, top, meet, join)
    _assert_row_scans_match_loops(lat)


@pytest.mark.parametrize("step_entries", [1, core._STEP_ENTRIES])
def test_row_scans_match_the_pair_loops_on_examples(fano, broken_plane, monkeypatch, step_entries):
    monkeypatch.setattr(core, "_STEP_ENTRIES", step_entries)
    lattices = (fano, broken_plane, subspace_lattice(3, 3), boolean_lattice(4),
                diamond_m3(), pentagon_n5(), chain(4))
    # The loops read only l1 meet l2 with l1 < l2, so a bottom forged below
    # the diagonal breaks nothing.
    lines = geometry_view(fano).lines
    lattices += (_forged(fano, "meet", lines[-1], lines[0], fano.bottom),)
    for lat in lattices:
        _assert_row_scans_match_loops(lat)
    assert not check_p1(geometry_view(broken_plane)).holds
    assert not check_p2(geometry_view(broken_plane)).holds
    assert not is_perspective_lattice(boolean_lattice(4)).holds


# ----- gradedness over the cover pairs -----------------------------------------


def _view_outcome(view_of, lat):
    try:
        return view_of(lat)
    except NotGraded as exc:
        return str(exc), exc.witness


def _assert_views_match(lat):
    assert _view_outcome(geometry_view, lat) == _view_outcome(masked_geometry_view, lat), lat.name


@settings(max_examples=150, deadline=None)
@given(st.one_of(bounded_posets(), dm_completions(), downset_lattices()), st.booleans())
def test_geometry_view_matches_the_masked_gradedness_test(relation, graft):
    # The view reads only heights and covers, so a bounded order that is no
    # lattice is classified as well.
    labels, pairs = relation
    top = int(np.flatnonzero(_closed(len(labels), pairs).all(axis=0))[0])
    if graft:
        labels, pairs = _graft_on_top(labels, pairs, top, "N5")
        top = len(labels) - 1
    leq = _closed(len(labels), pairs)
    bottom = int(np.flatnonzero(leq.all(axis=1))[0])
    _assert_views_match(FiniteLattice(labels, leq, bottom, top))


def test_geometry_view_matches_the_masked_gradedness_test_on_examples(law_corpus, broken_plane):
    # The generators seed their cover pairs; the grafts derive them.
    lattices = [*law_corpus, broken_plane, _with_n5(chain(8)), _with_n5(boolean_lattice(3))]
    for lat in lattices:
        _assert_views_match(lat)
    ungraded = [lat.name for lat in lattices if isinstance(_view_outcome(geometry_view, lat), tuple)]
    assert len(ungraded) == 3, ungraded


# ----- complements and atoms against order scans ------------------------------


LAW_ORACLES = (
    (is_complemented, brute_complemented),
    (is_atomic, brute_atomic),
)


def _lattice_or_none(relation):
    try:
        return build_lattice(*relation)
    except NotALattice:
        return None


@settings(max_examples=150, deadline=None)
@given(st.one_of(bounded_posets(), dm_completions()))
def test_complement_and_atom_laws_match_order_scans(relation):
    lat = _lattice_or_none(relation)
    if lat is None:
        return
    for decide, oracle in LAW_ORACLES:
        report = decide(lat)
        assert report == oracle(lat), (lat.name, report)
        if not report.holds:
            assert witness_violates(lat, report), (lat.name, report)


def test_complement_and_atom_laws_match_order_scans_on_examples(fano, broken_plane):
    lattices = (fano, broken_plane, boolean_lattice(3), diamond_m3(), pentagon_n5(), chain(4))
    for lat in lattices:
        for decide, oracle in LAW_ORACLES:
            assert decide(lat) == oracle(lat), lat.name
    # Each law fails somewhere here, so the witnesses are compared too.
    for decide, _ in LAW_ORACLES:
        assert not all(decide(lat).holds for lat in lattices)


# ----- third point and spanning against order scans ---------------------------


def _law_outcome(decide, *args):
    """The report ``decide`` returns, or the type and witness of the
    NotGraded or NotAtomic it raises."""
    try:
        return decide(*args)
    except (NotGraded, NotAtomic) as exc:
        return type(exc), exc.witness


def _assert_incidence_laws_match(lat, n):
    third = lambda lat: check_p3_third_point(geometry_view(lat))
    assert _law_outcome(third, lat) == _law_outcome(brute_third_point, lat), lat.name
    got = _law_outcome(check_spanning, lat, n)
    assert got == _law_outcome(brute_spanning, lat, n), (lat.name, n, got)


@settings(max_examples=150, deadline=None)
@given(st.one_of(bounded_posets(), dm_completions()), st.integers(1, 4))
def test_third_point_and_spanning_match_order_scans(relation, n):
    lat = _lattice_or_none(relation)
    if lat is None:
        return
    _assert_incidence_laws_match(lat, n)


def test_third_point_and_spanning_match_order_scans_on_examples(fano, broken_plane):
    # Each clause holds on some of these and fails on others, with and
    # without a witness; M3 and B_3 fail the third point in different ways.
    cases = [(fano, 3), (fano, 2), (broken_plane, 3), (broken_plane, 2),
             (boolean_lattice(3), 3), (boolean_lattice(3), 2), (diamond_m3(), 2),
             (pentagon_n5(), 2), (subspace_lattice(2, 3), 2), (chain(4), 1)]
    for lat, n in cases:
        _assert_incidence_laws_match(lat, n)
    outcomes = [_law_outcome(check_spanning, lat, n) for lat, n in cases]
    assert any(isinstance(o, LawReport) and o.holds for o in outcomes)
    assert any(isinstance(o, LawReport) and o.witness for o in outcomes)
    assert any(isinstance(o, tuple) for o in outcomes)


@st.composite
def spanning_cases(draw):
    """A lattice from a random relation, a random down-set lattice or a
    small subspace document, and a spanning size n from 0 to its rank + 1."""
    kind = draw(st.sampled_from(["dm", "downset", "subspace"]))
    if kind == "subspace":
        n, q = draw(st.sampled_from([(1, 2), (2, 2), (2, 3), (3, 2), (2, 5), (3, 3), (4, 2)]))
        text = document_from_lattice(subspace_lattice(n, q)).to_json()
        lat = document_to_lattice(parse_document(text))
    else:
        lat = build_lattice(*draw(dm_completions() if kind == "dm" else downset_lattices()))
    return lat, draw(st.integers(0, lat.height(lat.top) + 1))


@settings(max_examples=150, deadline=None)
@given(spanning_cases())
def test_spanning_frontier_matches_the_combination_scan(case):
    lat, n = case
    assert _law_outcome(check_spanning, lat, n) == _law_outcome(combination_spanning, lat, n)


# ----- random lattices through documents --------------------------------------


@settings(max_examples=100, deadline=None)
@given(st.one_of(bounded_posets(), dm_completions()))
def test_random_lattices_round_trip_through_documents(relation):
    lat = _lattice_or_none(relation)
    if lat is None:
        return
    text = document_from_lattice(lat).to_json()
    again = document_to_lattice(parse_document(text))
    assert again.labels == lat.labels and again.name == lat.name
    assert (again.bottom, again.top) == (lat.bottom, lat.top)
    for attr in ("leq", "covers", "heights", "meet_table", "join_table"):
        assert np.array_equal(getattr(again, attr), getattr(lat, attr)), attr
    assert document_from_lattice(again).to_json() == text
