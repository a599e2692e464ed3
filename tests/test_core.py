import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latlab import (
    NoBoundingElements,
    NotALattice,
    NotAPartialOrder,
    SizeBound,
    boolean_lattice,
    build_lattice,
    chain,
    diamond_m3,
    pentagon_n5,
    subspace_lattice,
)
from latlab import core
from latlab.limits import element_cap

from oracles import brute_heights, brute_join, brute_meet, leq_rows, scan_bound_tables
from test_deciders import (
    _relation,
    _shuffled,
    bounded_posets,
    digraphs,
    dm_completions,
    downset_lattices,
    downset_order,
)


def powerset_pairs():
    """B_3 as raw containment cover pairs over labeled subsets."""
    labels = ["{}", "{a}", "{b}", "{c}", "{a,b}", "{a,c}", "{b,c}", "{a,b,c}"]
    sets = [set(), {"a"}, {"b"}, {"c"}, {"a", "b"}, {"a", "c"}, {"b", "c"},
            {"a", "b", "c"}]
    pairs = [
        (i, j)
        for i, j in itertools.permutations(range(8), 2)
        if sets[i] < sets[j] and len(sets[j] - sets[i]) == 1
    ]
    return labels, pairs, sets


def test_two_element_chain_is_smallest_bounded_lattice():
    lat = build_lattice(["lo", "hi"], [(0, 1)])
    assert lat.size == 2
    assert lat.bottom == 0 and lat.top == 1
    assert lat.meet(0, 1) == 0 and lat.join(0, 1) == 1


def test_powerset_from_cover_pairs_matches_order_oracle():
    labels, pairs, sets = powerset_pairs()
    lat = build_lattice(labels, pairs)
    assert lat.size == 8
    rows = leq_rows(lat)
    for x in range(8):
        for y in range(8):
            assert rows[x][y] == (sets[x] <= sets[y])
            assert lat.meet(x, y) == brute_meet(rows, x, y)
            assert lat.join(x, y) == brute_join(rows, x, y)


def test_hexagon_without_joins_is_rejected_with_witness():
    # 0 below a,b; both a,b below both c,d; 1 on top: lub(a,b) is not unique.
    labels = ["0", "a", "b", "c", "d", "1"]
    pairs = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5)]
    with pytest.raises(NotALattice) as err:
        build_lattice(labels, pairs)
    assert err.value.witness == (1, 2)


def test_cycle_is_rejected():
    with pytest.raises(NotAPartialOrder):
        build_lattice(["a", "b"], [(0, 1), (1, 0)])


def test_long_reversed_cycle_names_its_first_pair():
    n = element_cap()
    pairs = [(i + 1, i) for i in range(n - 1)] + [(0, n - 1)]
    with pytest.raises(NotAPartialOrder) as err:
        build_lattice([str(i) for i in range(n)], pairs)
    assert err.value.witness == (0, 1)
    assert str(err.value) == "'0' and '1' lie on a cycle"


def test_cycle_witness_is_the_least_member_of_the_first_cycle():
    # 0 and 1 lie below the cycles 9 -> 7 -> 3 -> 9 and 8 -> 4 -> 8; 2 above.
    pairs = [(0, 1), (1, 9), (9, 7), (7, 3), (3, 9), (8, 4), (4, 8), (0, 8), (3, 2)]
    with pytest.raises(NotAPartialOrder) as err:
        build_lattice([f"e{i}" for i in range(10)], pairs)
    assert err.value.witness == (3, 7)


def test_missing_bounds_are_rejected():
    with pytest.raises(NoBoundingElements):
        build_lattice(["0", "a", "b"], [(0, 1), (0, 2)])
    with pytest.raises(NoBoundingElements):
        build_lattice(["a", "b", "1"], [(0, 2), (1, 2)])


def test_meet_join_powerset_examples():
    b3 = boolean_lattice(3)
    ab = b3.index_of("{a,b}")
    bc = b3.index_of("{b,c}")
    assert b3.labels[b3.meet(ab, bc)] == "{b}"
    a, c = b3.index_of("{a}"), b3.index_of("{c}")
    assert b3.labels[b3.join(a, c)] == "{a,c}"


@pytest.mark.parametrize("lat_builder", [lambda: boolean_lattice(3), diamond_m3,
                                         pentagon_n5, lambda: subspace_lattice(3, 2)])
def test_bound_identities_everywhere(lat_builder):
    lat = lat_builder()
    for x in range(lat.size):
        assert lat.join(lat.bottom, x) == x
        assert lat.join(x, lat.top) == lat.top
        assert lat.meet(x, x) == x
        assert lat.le(x, x)


@pytest.mark.parametrize("lat_builder", [lambda: boolean_lattice(3), diamond_m3,
                                         pentagon_n5, lambda: subspace_lattice(2, 3)])
def test_meet_is_greatest_lower_bound(lat_builder):
    lat = lat_builder()
    rows = leq_rows(lat)
    for x in range(lat.size):
        for y in range(lat.size):
            m, j = lat.meet(x, y), lat.join(x, y)
            assert rows[m][x] and rows[m][y]
            assert rows[x][j] and rows[y][j]
            for z in range(lat.size):
                if rows[z][x] and rows[z][y]:
                    assert rows[z][m]
                if rows[x][z] and rows[y][z]:
                    assert rows[j][z]


@pytest.mark.parametrize("lat_builder", [lambda: boolean_lattice(4), diamond_m3,
                                         pentagon_n5, lambda: subspace_lattice(3, 2)])
def test_order_equivalences(lat_builder):
    lat = lat_builder()
    for x in range(lat.size):
        for y in range(lat.size):
            le = lat.le(x, y)
            assert le == (lat.meet(x, y) == x) == (lat.join(x, y) == y)


def test_heights_match_longest_chain_oracle():
    for lat in [boolean_lattice(1), boolean_lattice(4), subspace_lattice(2, 3),
                subspace_lattice(3, 2), pentagon_n5(), diamond_m3(), chain(5)]:
        assert list(lat.heights) == brute_heights(leq_rows(lat))


def test_height_profile_examples():
    for n in (1, 2, 3, 4, 5):
        b = boolean_lattice(n)
        assert b.height(b.bottom) == 0
        assert b.height(b.top) == n
    fano = subspace_lattice(3, 2)
    two_dim = [e for e in range(fano.size) if fano.labels[e].count(",") == 1]
    assert len(two_dim) == 7
    assert all(fano.height(e) == 2 for e in two_dim)
    n5 = pentagon_n5()
    # longest chains 0 < a < c < 1 (length 3) and 0 < b < 1 (length 2)
    assert n5.height(n5.top) == 3
    assert n5.height(n5.index_of("b")) == 1
    assert n5.height(n5.index_of("c")) == 2


def test_height_strictly_monotone():
    for lat in [boolean_lattice(4), pentagon_n5(), subspace_lattice(2, 3)]:
        for x in range(lat.size):
            for y in range(lat.size):
                if lat.le(x, y) and x != y:
                    assert lat.height(x) < lat.height(y)


def test_atoms_examples():
    b3 = boolean_lattice(3)
    assert sorted(b3.labels[a] for a in b3.atoms()) == ["{a}", "{b}", "{c}"]
    assert len(subspace_lattice(3, 2).atoms()) == 7
    two = chain(2)
    assert two.atoms() == (two.top,)


def _complements(lat, x):
    """All y with x meet y = bottom and x join y = top, ascending."""
    mask = (lat.meet_table[x] == lat.bottom) & (lat.join_table[x] == lat.top)
    return tuple(int(y) for y in np.flatnonzero(mask))


def test_complements_examples():
    b3 = boolean_lattice(3)
    assert _complements(b3, b3.bottom) == (b3.top,)
    a = b3.index_of("{a}")
    assert [b3.labels[c] for c in _complements(b3, a)] == ["{b,c}"]
    m3 = diamond_m3()
    assert sorted(m3.labels[c] for c in _complements(m3, m3.index_of("a"))) == ["b", "c"]


def test_every_boolean_element_has_exactly_one_complement():
    for n in (2, 3, 4):
        b = boolean_lattice(n)
        for x in range(b.size):
            assert len(_complements(b, x)) == 1


def _count_order_calls(monkeypatch):
    results = []
    original = core._order

    def counted(*args):
        results.append(original(*args))
        return results[-1]

    monkeypatch.setattr(core, "_order", counted)
    return results


def test_build_lattice_computes_heights_once(monkeypatch):
    labels, pairs, sets = powerset_pairs()
    expected = [len(s) for s in sets]
    results = _count_order_calls(monkeypatch)
    lat = build_lattice(labels, pairs)
    assert [lat.height(e) for e in range(lat.size)] == expected
    assert lat.heights.tolist() == expected
    assert len(results) == 1
    _, covers, heights = results[0]
    assert lat.heights is heights and lat.covers is covers
    assert sorted(lat.upper_neighbors()) == sorted(pairs)


def test_hand_built_lattice_derives_covers_and_heights_in_one_call(monkeypatch):
    lattices = (pentagon_n5(), subspace_lattice(2, 3), boolean_lattice(4))
    results = _count_order_calls(monkeypatch)
    readers = {
        "covers": lambda lat: lat.covers,
        "heights": lambda lat: lat.heights,
        "tables_match_order": lambda lat: lat.tables_match_order(),
    }
    for first in readers:
        for lat in lattices:
            hand = core.FiniteLattice(lat.labels, lat.leq, lat.bottom, lat.top,
                                      lat.meet_table, lat.join_table)
            results.clear()
            readers[first](hand)
            assert np.array_equal(hand.covers, lat.covers), lat.name
            assert np.array_equal(hand.heights, lat.heights), lat.name
            assert hand.tables_match_order(), lat.name
            assert len(results) == 1, lat.name


def test_build_lattice_derives_the_meet_table_on_first_read(law_corpus):
    for lat in law_corpus:
        built = build_lattice(lat.labels, lat.upper_neighbors(), name=lat.name)
        assert "join_table" in built.__dict__, lat.name
        assert "meet_table" not in built.__dict__, lat.name
        meet, join = scan_bound_tables(built.leq, built.heights, built.labels)
        assert np.array_equal(built.join_table, join), lat.name
        assert np.array_equal(built.meet_table, meet), lat.name
        assert built.meet_table is built.meet_table, lat.name
        assert built.meet_table.dtype == np.int32, lat.name
        assert not built.meet_table.flags.writeable, lat.name


def _count_bound_calls(monkeypatch):
    calls = []
    original = core._least_upper_bounds

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(core, "_least_upper_bounds", counted)
    return calls


def test_premise_recomputes_only_the_tables_passed_in(monkeypatch):
    fano = subspace_lattice(3, 2)
    assert {"meet_table", "join_table"} <= fano.__dict__.keys()  # filled at generation
    calls = _count_bound_calls(monkeypatch)
    assert fano.tables_match_order()
    # The polar meet is seeded, so the premise re-derives it over the dual
    # order; the join is the bound kernel's own, so it is not derived again.
    assert len(calls) == 1
    leq, covers, rank = calls[0]
    assert np.array_equal(leq, fano.leq.T) and np.array_equal(covers, fano.covers.T)
    assert np.array_equal(rank, 3 - fano.heights)
    calls.clear()
    # Bitwise tables are seeded, so the premise re-derives both.
    assert boolean_lattice(3).tables_match_order()
    assert len(calls) == 2


def _assert_bound_kernels_agree(labels, pairs):
    """Over the order that ``pairs`` generate, the one-word kernel
    (n <= 64), the key kernel, the cover recursion and the frozen scan give
    equal join and meet tables, or all of them reject the order.  The key
    kernel runs at every size and key width, not just where the dispatch
    sends it."""
    leq, covers, heights = core._order(_relation(len(labels), pairs), labels)
    try:
        meet, join = scan_bound_tables(leq, heights, labels)
    except NotALattice:
        meet = join = None
    n = leq.shape[0]
    dual = (leq.T, covers.T, heights.max() - heights)
    for want, (order, cov, rank) in ((join, (leq, covers, heights)), (meet, dual)):
        got = {"cover": core._cover_lubs(order, cov, rank),
               "key": core._key_lubs(order, np.count_nonzero(cov, axis=1) == 1)}
        if n <= 64:
            got["word"] = core._word_lubs(order, rank)
        for kernel, table in got.items():
            if want is None:
                assert table is None, kernel
            else:
                assert table.dtype == np.int32 and np.array_equal(table, want), kernel


@settings(max_examples=200, deadline=None)
@given(st.one_of(bounded_posets(), dm_completions()))
def test_bound_kernels_match_the_scan_on_random_orders(order):
    _assert_bound_kernels_agree(*order)


@settings(max_examples=40, deadline=None)
@given(downset_lattices())
def test_build_lattice_matches_the_scan_above_64_elements(order):
    lat = build_lattice(*order)
    meet, join = scan_bound_tables(lat.leq, lat.heights, lat.labels)
    assert np.array_equal(lat.join_table, join)
    assert np.array_equal(lat.meet_table, meet)


def _with_bowtie(labels, pairs, base):
    """The order with a bowtie above element ``base``: a and b cover it, c
    and d cover both, and t covers c and d.  a and b have two minimal upper
    bounds, so their join is missing, as may be others."""
    n = len(labels)
    a, b, c, d, t = range(n, n + 5)
    bowtie = [(base, a), (base, b), (a, c), (a, d), (b, c), (b, d), (c, t), (d, t)]
    return [*labels, *(f"bow{i}" for i in range(5))], [*pairs, *bowtie]


@st.composite
def grafted_downset_lattices(draw):
    """A down-set lattice of 65-200 elements with a bowtie grafted above a
    drawn element and below the old top, or above the top: 70-205 elements,
    so up-sets of two to four words."""
    labels, pairs = draw(downset_lattices())
    n = len(labels)
    top = next(e for e in range(n) if all(x != e for x, _ in pairs))
    base = draw(st.integers(0, n - 1))
    labels, pairs = _with_bowtie(labels, pairs, base)
    return labels, pairs + [(n + 4, top)] * (base != top)


@st.composite
def digraph_orders(draw):
    """The order generated by a random digraph with each pair turned to
    point up in index order, its elements then renumbered at random: mostly
    without a bottom or a top, so meets go missing as often as joins."""
    labels, pairs = draw(digraphs())
    pairs = [(min(p), max(p)) for p in pairs]
    return _shuffled(draw, len(labels), pairs)


def _bound_outcome(derive, *args):
    try:
        derive(*args)
    except NotALattice as exc:
        return type(exc), str(exc), exc.witness
    return None


@settings(max_examples=300, deadline=None)
@given(st.one_of(bounded_posets(), dm_completions(), digraph_orders(), grafted_downset_lattices()))
def test_missing_bound_search_names_the_scans_pair(order):
    labels, pairs = order
    leq, _, heights = core._order(_relation(len(labels), pairs), labels)
    want = _bound_outcome(scan_bound_tables, leq, heights, labels)
    assert _bound_outcome(core._raise_missing_bound, leq, heights, labels) == want


def _chain_bowtie(size):
    """A chain of size - 5 elements with a bowtie above its top: e0 < ... <
    e(size-6), then e(size-5) and e(size-4) with no join."""
    m = size - 5
    _, pairs = _with_bowtie(range(m), [(i, i + 1) for i in range(m - 1)], m - 1)
    return [f"e{i}" for i in range(size)], pairs


def _boolean_bowtie(k):
    """B_k with a bowtie above its top."""
    b = boolean_lattice(k)
    return _with_bowtie(list(b.labels), b.upper_neighbors(), b.top)


@pytest.mark.parametrize("make, size", [(_chain_bowtie, 256), (_boolean_bowtie, 8)],
                         ids=["chain_256", "B_8"])
def test_late_missing_join_matches_the_scan(make, size):
    labels, pairs = make(size)
    with pytest.raises(NotALattice) as built:
        build_lattice(labels, pairs)
    leq, _, heights = core._order(_relation(len(labels), pairs), labels)
    with pytest.raises(NotALattice) as scanned:
        scan_bound_tables(leq, heights, labels)
    assert (str(built.value), built.value.witness) == (str(scanned.value), scanned.value.witness)


@pytest.mark.parametrize("make, size", [(_chain_bowtie, 1024), (_chain_bowtie, 4096),
                                        (_boolean_bowtie, 10), (_boolean_bowtie, 11)],
                         ids=["chain_1024", "chain_4096", "B_10", "B_11"])
def test_late_missing_join_at_scale_names_the_bowtie(make, size):
    # The frozen scan takes seconds to minutes here.  The first pair
    # without a join is the bowtie's a and b.
    labels, pairs = make(size)
    a = len(labels) - 5
    with pytest.raises(NotALattice) as built:
        build_lattice(labels, pairs)
    assert built.value.witness == (a, a + 1)
    assert str(built.value) == f"elements {labels[a]!r} and {labels[a + 1]!r} have no least upper bound"


def test_build_lattice_derives_its_join_table_once_through_the_lattice(monkeypatch):
    calls = _count_bound_calls(monkeypatch)
    made = []

    class Spied(core.FiniteLattice):
        def __init__(self, *args, **kwargs):
            made.append((args, kwargs))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(core, "FiniteLattice", Spied)
    for labels, pairs in (powerset_pairs()[:2], _chain_bowtie(70), BOWTIE):
        calls.clear()
        made.clear()
        try:
            build_lattice(labels, pairs)
        except NotALattice:
            pass
        assert len(calls) == 1
        (args, kwargs), = made
        assert len(args) == 4 and set(kwargs) == {"name"}


def _shuffled_build(size, pairs):
    """build_lattice over the order given by ``pairs`` on range(size), with
    the elements renumbered at random so that rank order is not index order."""
    perm = np.random.default_rng(0).permutation(size).tolist()
    return build_lattice([f"e{perm[i]}" for i in range(size)],
                         [(perm[a], perm[b]) for a, b in pairs])


def test_bound_kernels_agree_at_the_one_word_boundary():
    # M_62: 62 atoms between bottom and top.  Two atoms join at the top,
    # numbered 63, so the kernel reads bit 63 of their common up-set.
    m62 = [(0, a) for a in range(1, 63)] + [(a, 63) for a in range(1, 63)]
    for lat in (chain(64), chain(65), boolean_lattice(6), subspace_lattice(2, 61),
                _shuffled_build(64, m62)):
        assert lat.size in (64, 65), lat.name
        _assert_bound_kernels_agree(lat.labels, lat.upper_neighbors())
        assert lat.tables_match_order(), lat.name


def test_bound_kernels_reject_a_64_element_order_without_joins():
    # Bottom, 60 atoms, two coatoms above every atom, top: two atoms have
    # two minimal upper bounds, numbered 61 and 62.
    pairs = [(0, a) for a in range(1, 61)] + [(61, 63), (62, 63)]
    pairs += [(a, c) for a in range(1, 61) for c in (61, 62)]
    _assert_bound_kernels_agree([str(e) for e in range(64)], pairs)
    with pytest.raises(NotALattice):
        _shuffled_build(64, pairs)


# 0 < a, b < c, d < 1: a and b lie below the same meet-irreducibles c and d.
BOWTIE = (["0", "a", "b", "c", "d", "1"],
          [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5)])
# x below m1, m2, m3 and y below m1, m2, m4: for joins every key is distinct
# and the converse holds, but no element lies below exactly m1 and m2.
TWO_TOPS = (["0", "x", "y", "m1", "m2", "m3", "m4", "1"],
            [(0, 1), (0, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 6),
             (3, 7), (4, 7), (5, 7), (6, 7)])


def _times_b4(labels, pairs):
    """Labels and cover pairs of the product of an order with B_4."""
    b4 = boolean_lattice(4)
    k = b4.size
    product = [f"{x}.{y}" for x in labels for y in b4.labels]
    covers = [(i * k + j, l * k + j) for i, l in pairs for j in range(k)]
    covers += [(i * k + j, i * k + l) for i in range(len(labels)) for j, l in b4.upper_neighbors()]
    return product, covers


def _widened(labels, pairs, extra):
    """The order with ``extra`` more atoms, each covered by the top only:
    ``extra`` more meet-irreducibles.  Element 0 is the bottom and the last
    element the top."""
    n = len(labels)
    top = n - 1 + extra
    relabel = lambda e: top if e == n - 1 else e
    atoms = range(n - 1, top)
    return ([*labels[:-1], *(f"e{i}" for i in range(extra)), labels[-1]],
            [(relabel(a), relabel(b)) for a, b in pairs]
            + [(0, e) for e in atoms] + [(e, top) for e in atoms])


def _m(atoms):
    """Labels and cover pairs of M_atoms: bottom, the atoms, top."""
    labels = ["0", *(f"a{i}" for i in range(atoms)), "1"]
    return labels, [(0, a) for a in range(1, atoms + 1)] + [(a, atoms + 1) for a in range(1, atoms + 1)]


def _spy_bound_kernels(monkeypatch):
    routes = []
    for name in ("_word_lubs", "_key_lubs", "_cover_lubs"):
        original = getattr(core, name)

        def spied(*args, name=name, original=original):
            routes.append(name)
            return original(*args)

        monkeypatch.setattr(core, name, spied)
    return routes


@pytest.mark.parametrize("order, converse, extra",
                         [(BOWTIE, False, 0), (TWO_TOPS, True, 0), (BOWTIE, False, 70), (TWO_TOPS, True, 70)],
                         ids=["bowtie", "two_tops", "bowtie_wide", "two_tops_wide"])
def test_key_kernel_rejects_each_non_lattice(monkeypatch, order, converse, extra):
    # Widened by 70 atoms, the orders have keys of two words in a hashed
    # table; the bowtie's a and b keep equal keys.
    labels, pairs = _widened(*order, extra)
    leq, covers, heights = core._order(_relation(len(labels), pairs), labels)
    irreducible = np.count_nonzero(covers, axis=1) == 1
    assert (int(irreducible.sum()) > 64) == bool(extra)
    above = leq[:, irreducible]
    # [x, y]: every meet-irreducible above y lies above x.
    within = (above[None, :, :] <= above[:, None, :]).all(axis=2)
    assert np.array_equal(within, leq) == converse
    assert core._key_lubs(leq, irreducible) is None
    _assert_bound_kernels_agree(labels, pairs)
    # Times B_4, the order has more than 64 elements and takes the key
    # kernel, which returns None; the search then names the frozen scan's pair.
    labels, pairs = _times_b4(labels, pairs)
    routes = _spy_bound_kernels(monkeypatch)
    with pytest.raises(NotALattice) as built:
        build_lattice(labels, pairs)
    assert routes == ["_key_lubs"]
    leq, _, heights = core._order(_relation(len(labels), pairs), labels)
    with pytest.raises(NotALattice) as scanned:
        scan_bound_tables(leq, heights, labels)
    assert (str(built.value), built.value.witness) == (str(scanned.value), scanned.value.witness)


def test_key_kernel_matches_the_scan_on_hashed_keys():
    # Keys of 70, 57, 133 and 129 bits, in one to three words.  M_70 and
    # chain_130 take the recursion in build_lattice, but the kernel gives
    # the same tables.
    for lat in (build_lattice(*_m(70)), subspace_lattice(3, 7), subspace_lattice(3, 11), chain(130)):
        _assert_bound_kernels_agree(lat.labels, lat.upper_neighbors())


def test_key_kernel_confirms_every_hashed_hit(monkeypatch):
    # A hash that sends every key no element has to an occupied slot.  The
    # kernel hashes the element keys as one row per word, and the pairs'
    # common keys as one block per word.
    hashed = core._key_slots
    occupied = {}

    def crowded(words, mult, shift):
        slots = hashed(words, mult, shift)
        if words.ndim == 2:
            occupied[int(mult)] = slots
            return slots
        taken = occupied[int(mult)]
        return np.where(np.isin(slots, taken), slots, taken[0])

    monkeypatch.setattr(core, "_key_slots", crowded)
    for labels, pairs in (_widened(*TWO_TOPS, 70), _m(70)):
        _assert_bound_kernels_agree(labels, pairs)


def test_unseparated_keys_take_the_recursion(monkeypatch):
    # A multiplier of 1 hashes every key of at most 50 bits to slot 0.
    monkeypatch.setattr(core, "_MULTIPLIERS", (1,))
    routes = _spy_bound_kernels(monkeypatch)
    for lat in (subspace_lattice(3, 7), subspace_lattice(4, 2)):
        routes.clear()
        table = core._least_upper_bounds(lat.leq, lat.covers, lat.heights)
        assert routes == ["_key_lubs", "_cover_lubs"], lat.name
        assert np.array_equal(table, core._cover_lubs(lat.leq, lat.covers, lat.heights)), lat.name
    # Equal keys need no separating multiplier: the order is no lattice.
    labels, pairs = _widened(*BOWTIE, 70)
    leq, covers, _ = core._order(_relation(len(labels), pairs), labels)
    assert core._key_lubs(leq, np.count_nonzero(covers, axis=1) == 1) is None


def test_each_order_takes_one_bound_kernel(monkeypatch):
    # Down-sets of seven elements with 0 < 1: 96 elements, 7 meet-irreducibles.
    downsets = downset_order(7, [0, 1, 0, 0, 0, 0, 0])
    routes = {
        "_word_lubs": [lambda: chain(2), lambda: chain(63), lambda: chain(64),
                       lambda: boolean_lattice(6)],
        "_key_lubs": [lambda: boolean_lattice(7), lambda: build_lattice(*downsets),
                      lambda: subspace_lattice(4, 2), lambda: subspace_lattice(4, 3),
                      lambda: subspace_lattice(3, 7)],
        # A chain of n elements has n - 1 covers and n - 1 meet-irreducibles,
        # M_100 200 covers and 100: n keys of two words are more than the covers.
        "_cover_lubs": [lambda: chain(65), lambda: chain(66), lambda: build_lattice(*_m(100))],
    }
    taken = _spy_bound_kernels(monkeypatch)
    for kernel, makers in routes.items():
        for make in makers:
            taken.clear()
            lat = make()
            assert lat.tables_match_order(), lat.name
            lat.join_table, lat.meet_table
            assert taken == [kernel, kernel], (lat.name, lat.size)


def test_hand_built_lattice_without_tables_derives_them():
    for lat in (pentagon_n5(), diamond_m3(), boolean_lattice(3)):
        hand = core.FiniteLattice(lat.labels, lat.leq, lat.bottom, lat.top)
        assert np.array_equal(hand.meet_table, lat.meet_table), lat.name
        assert np.array_equal(hand.join_table, lat.join_table), lat.name
        assert hand.tables_match_order(), lat.name
    hexagon = ["0", "a", "b", "c", "d", "1"]
    pairs = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5)]
    with pytest.raises(NotALattice) as built:
        build_lattice(hexagon, pairs)
    rel = np.eye(6, dtype=bool)
    rel[tuple(zip(*pairs))] = True
    leq = core._order(rel, hexagon)[0]
    for attr in ("meet_table", "join_table"):
        hand = core.FiniteLattice(hexagon, leq, 0, 5)
        with pytest.raises(NotALattice) as lazy:
            getattr(hand, attr)
        assert (str(lazy.value), lazy.value.witness) == (str(built.value), built.value.witness)
        assert not core.FiniteLattice(hexagon, leq, 0, 5).tables_match_order()


def test_hand_built_lattice_with_a_cycle_raises_build_lattices_error():
    m3 = diamond_m3()
    leq = m3.leq.copy()
    leq[m3.top, m3.index_of("b")] = True  # b <= 1 <= b
    with pytest.raises(NotAPartialOrder) as built:
        build_lattice(m3.labels, np.argwhere(leq).tolist())
    hand = core.FiniteLattice(m3.labels, leq, m3.bottom, m3.top, m3.meet_table, m3.join_table)
    for name in ("covers", "heights"):
        with pytest.raises(NotAPartialOrder) as lazy:
            getattr(hand, name)
        assert str(lazy.value) == str(built.value), name
        assert lazy.value.witness == built.value.witness, name


def test_lattice_is_immutable():
    b2 = boolean_lattice(2)
    with pytest.raises(ValueError):
        b2.leq[0, 0] = False
    with pytest.raises(ValueError):
        b2.meet_table[0, 0] = 1
    with pytest.raises(ValueError):
        b2.heights[0] = 5


def test_element_cap_env_var_lowers_only(monkeypatch):
    monkeypatch.setenv("LATTICE_MAX_ELEMENTS", "4")
    assert element_cap() == 4
    with pytest.raises(SizeBound):
        boolean_lattice(3)
    monkeypatch.setenv("LATTICE_MAX_ELEMENTS", "999999")
    assert element_cap() == 4096


@pytest.mark.parametrize("raw", ["abc", "0", "-3", ""])
def test_malformed_element_cap_env_var_is_rejected(monkeypatch, raw):
    monkeypatch.setenv("LATTICE_MAX_ELEMENTS", raw)
    with pytest.raises(ValueError, match="LATTICE_MAX_ELEMENTS"):
        element_cap()


def test_upper_neighbors_counts():
    assert len(boolean_lattice(3).upper_neighbors()) == 12
    assert len(subspace_lattice(3, 2).upper_neighbors()) == 35
    assert len(chain(2).upper_neighbors()) == 1


def test_tables_are_int_and_leq_bool():
    b3 = boolean_lattice(3)
    assert b3.meet_table.dtype == np.int32
    assert b3.join_table.dtype == np.int32
    assert b3.leq.dtype == bool
