import functools
import gc
import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
import weakref

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from latlab import (
    DepthExhausted,
    FiniteLattice,
    MissingSplit,
    NotALattice,
    RealizationMissing,
    SizeBound,
    Statement,
    StatementKind,
    UnknownConstant,
    add_split_alternative,
    apply_closure,
    atom_pair_structure,
    boolean_closure,
    boolean_lattice,
    build_lattice,
    build_tree,
    chain,
    coplanar_lines_structure,
    derive_independent_atoms,
    diamond_m3,
    enumerate_boolean_sublattices,
    find_realization,
    initial_structure,
    is_modular,
    line_probe_structure,
    pentagon_n5,
    satisfies,
    saturate_splits,
    split_element,
    subspace_lattice,
    triple_split_structure,
    verify_boolean_pipeline,
    verify_projective_pipeline,
)

from latlab import construction, generators, limits
from latlab.cli import main
from latlab.witness import chain_height
from oracles import (
    all_realizations,
    bell,
    count_subspace_boolean_sublattices,
    count_subspace_frames,
    naive_realization_exists,
    rebuild_extend,
    rescan_saturate_splits,
    scan_boolean_sublattices,
    scan_height_of,
    scan_split_of,
    statements_one_by_one,
    whole_structure_closures_realizable,
)
from test_deciders import bounded_posets, dm_completions, downset_lattices


def three_leaf_tree():
    s = split_element(initial_structure(3), "1")
    return split_element(s, "b1")


# ----- statements and structures -------------------------------------------


def test_statement_canonical_operand_order():
    assert Statement.join_eq("y", "x", "z") == Statement.join_eq("x", "y", "z")
    assert Statement.meet_eq("b", "a", "c").operands == ("a", "b", "c")
    assert Statement.disjoint("q", "p").operands == ("p", "q")
    assert Statement.height_is("x", 4).value == 4


def test_initial_structure_contents():
    s = initial_structure(2)
    assert s.constants == ("0", "1")
    assert s.depth_bound == 2
    assert s.height_of("0") == 0 and s.height_of("1") == 2
    assert Statement.join_eq("0", "1", "1") in s.statements
    assert Statement.join_eq("1", "1", "1") in s.statements
    with pytest.raises(ValueError):
        initial_structure(0)


def test_extend_records_bound_closure_for_new_constants():
    s = initial_structure(2).extend(("m",), (Statement.height_is("m", 1),))
    assert Statement.join_eq("0", "m", "m") in s.statements
    assert Statement.join_eq("1", "m", "1") in s.statements


def test_extend_height_validation():
    s = initial_structure(3)
    with pytest.raises(DepthExhausted):
        s.extend(statements=(Statement.height_is("1", 9),))
    with pytest.raises(ValueError):
        s.extend(statements=(Statement.height_is("1", 1),))


_CONFLICT = """
from latlab import Statement, initial_structure, split_element
try:
    split_element(initial_structure(4), "1").extend((), (Statement.height_is("b1", 1),))
except ValueError as exc:
    print(exc)
"""


def test_conflicting_height_message_names_the_existing_height_first():
    s = split_element(initial_structure(4), "1")
    with pytest.raises(ValueError, match=r"^conflicting heights 2 and 1 for 'b1'$"):
        s.extend((), (Statement.height_is("b1", 1),))
    with pytest.raises(ValueError, match=r"^conflicting heights 1 and 3 for 'x'$"):
        s.extend(("x",), (Statement.height_is("x", 1), Statement.height_is("x", 3)))
    # The message must not depend on set iteration order.
    for seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        out = subprocess.run([sys.executable, "-c", _CONFLICT], env=env,
                             capture_output=True, text=True, check=True).stdout
        assert out == "conflicting heights 2 and 1 for 'b1'\n", seed


def test_split_element_even_by_default():
    s = split_element(initial_structure(3), "1")
    assert s.split_of("1") == ("b1", "c1")
    assert (s.height_of("b1"), s.height_of("c1")) == (2, 1)
    assert Statement.join_eq("b1", "c1", "1") in s.statements
    assert Statement.disjoint("b1", "c1") in s.statements


def test_split_element_guards():
    s = initial_structure(3)
    with pytest.raises(UnknownConstant):
        split_element(s, "zz")
    with pytest.raises(ValueError):
        split_element(s, "1", heights=(0, 3))
    with pytest.raises(ValueError):
        split_element(s, "1", heights=(2, 2))
    atomized = split_element(s, "1")
    with pytest.raises(DepthExhausted) as exc:
        split_element(atomized, "c1")
    assert exc.value.witness == ("c1",)


def test_alternative_requires_recorded_split():
    with pytest.raises(MissingSplit):
        add_split_alternative(initial_structure(2), "1", "a", "b")
    s = split_element(initial_structure(2), "1")
    alt = add_split_alternative(s, "1", "b1", "c1")
    assert alt.constants[-1] == "b1'"
    assert alt.height_of("b1'") == 1
    assert Statement.join_eq("b1'", "c1", "1") in alt.statements
    assert Statement.disjoint("b1'", "c1") in alt.statements
    again = add_split_alternative(alt, "1", "b1", "c1")
    assert again.constants[-1] == "b1''"


def test_triple_split_structure_shape():
    t = triple_split_structure()
    assert t.constants == ("0", "1", "b1", "c1", "b1'")
    assert all(t.height_of(c) == 1 for c in ("b1", "c1", "b1'"))


def test_build_tree_sizes_and_leaves():
    for depth, width in ((1, 2), (2, 4), (3, 8)):
        t = build_tree(depth)
        assert t.leaves() == tuple(f"p{i + 1}" for i in range(width))
        assert len(t.constants) == 2 * width
        assert t.height_of("1") == width
        internal = [c for c in t.constants if t.split_of(c) is not None]
        assert len(internal) == width - 1
    with pytest.raises(SizeBound):
        build_tree(0)
    with pytest.raises(SizeBound):
        build_tree(7)


def test_saturate_splits_leaves_atoms_only():
    s = saturate_splits(initial_structure(4))
    assert all(
        s.height_of(c) < 2 or s.split_of(c) is not None for c in s.constants
    )


def test_split_trees_match_the_frozen_rescan():
    for depth in range(1, 9):
        s = initial_structure(depth)
        _assert_same_structure(saturate_splits(s), rescan_saturate_splits(s))
    for depth in range(1, 7):
        tree = rescan_saturate_splits(initial_structure(2**depth))
        want = tree.renamed({c: f"p{i + 1}" for i, c in enumerate(tree.leaves())})
        _assert_same_structure(build_tree(depth), want)


def test_renamed_validation():
    t = build_tree(1)
    assert t.renamed({"p1": "left", "p2": "right"}).leaves() == ("left", "right")
    with pytest.raises(ValueError):
        t.renamed({"p1": "p2"})
    with pytest.raises(ValueError):
        t.renamed({"1": "root"})
    with pytest.raises(UnknownConstant):
        t.renamed({"nope": "x"})


# ----- realizations ---------------------------------------------------------


def test_tree_realizes_in_matching_boolean_lattice():
    t = build_tree(1)
    b2 = boolean_lattice(2)
    r = find_realization(t, b2)
    assert r.as_labels() == {"0": "{}", "1": "{a,b}", "p1": "{a}", "p2": "{b}"}
    assert satisfies(t, b2, r.mapping)
    # the declared root height pins the ambient height, so B_3 cannot work
    assert find_realization(t, boolean_lattice(3)) is None
    assert not naive_realization_exists(t, boolean_lattice(3))


def test_search_returns_lexicographically_least():
    m3 = diamond_m3()
    t = triple_split_structure()
    r = find_realization(t, m3)
    key = tuple(r.mapping[c] for c in t.constants)
    assert key == min(all_realizations(t, m3))
    assert r.as_labels() == {"0": "0", "1": "1", "b1": "a", "c1": "b", "b1'": "c"}


def test_search_agrees_with_naive_oracle_on_triple_split():
    t = triple_split_structure()
    for n in (1, 2, 3, 4):
        lat = boolean_lattice(n)
        assert find_realization(t, lat) is None
        assert not naive_realization_exists(t, lat)
    for q in (2, 3, 5):
        lat = subspace_lattice(2, q)
        r = find_realization(t, lat)
        assert r is not None and satisfies(t, lat, r.mapping)
        assert naive_realization_exists(t, lat)


def test_satisfies_rejects_perturbed_mappings():
    t = build_tree(1)
    b2 = boolean_lattice(2)
    good = find_realization(t, b2).mapping
    swapped = dict(good, p1=good["p2"], p2=good["p1"])
    assert satisfies(t, b2, swapped)  # symmetric pair, still fine
    broken = dict(good, p1=good["1"])
    assert not satisfies(t, b2, broken)  # not injective
    assert not satisfies(t, b2, {k: v for k, v in good.items() if k != "p1"})


def test_pinned_search():
    fano = subspace_lattice(3, 2)
    probe = line_probe_structure(3)
    line = next(e for e in range(fano.size) if fano.height(e) == 2)
    r = find_realization(probe, fano, pin={"l": line})
    assert r is not None and r.mapping["l"] == line
    for pin in ({"bogus": 1}, {"x": 1, "q1": 2}, {"pl": 14}):
        with pytest.raises(UnknownConstant):
            find_realization(probe, fano, pin=pin)
    t = three_leaf_tree()
    b3 = boolean_lattice(3)
    assert find_realization(t, b3, pin={"c1": b3.top}) is None


def _free_join_structure():
    """Two atoms and an undeclared-height constant named as their join."""
    return atom_pair_structure(3).extend(("z",), (Statement.join_eq("x", "y", "z"),))


def _m3_top_first():
    """M3 with the top at index 0, so index -1 names an atom, not the top."""
    return build_lattice(
        ["1", "0", "a", "b", "c"], [(1, 2), (1, 3), (1, 4), (2, 0), (3, 0), (4, 0)]
    )


def test_pins_outside_the_elements_match_nothing():
    m3 = _m3_top_first()
    # Built without extend, so no "0 join z = z" rejects a wrapped index.
    bare = construction.PartialStructure(
        ("0", "1", "z"), frozenset({Statement.height_is("z", 1)}), depth_bound=2
    )
    for structure, c in ((triple_split_structure(), "b1'"), (bare, "z")):
        assert find_realization(structure, m3, pin={c: 4}).mapping[c] == 4
        for e in (-1, -3, 5):
            assert find_realization(structure, m3, pin={c: e}) is None, (c, e)
    fano = subspace_lattice(3, 2)
    for structure, names in (
        (atom_pair_structure(3), ("x",)),
        (_free_join_structure(), ("z",)),
        (line_probe_structure(3), ("0", "1")),
    ):
        assert find_realization(structure, fano) is not None
        for c in names:
            for e in (-1, -fano.size, fano.size, fano.size + 5):
                assert find_realization(structure, fano, pin={c: e}) is None, (c, e)


def test_pins_at_the_wrong_height_or_off_a_bound_match_nothing():
    fano = subspace_lattice(3, 2)
    line = next(e for e in range(fano.size) if fano.height(e) == 2)
    point = fano.atoms()[0]
    assert find_realization(atom_pair_structure(3), fano, pin={"x": line}) is None
    assert find_realization(line_probe_structure(3), fano, pin={"l": point}) is None
    for bound, off in (("0", point), ("0", fano.top), ("1", line), ("1", fano.bottom)):
        assert find_realization(atom_pair_structure(3), fano, pin={bound: off}) is None
    on_bounds = find_realization(
        atom_pair_structure(3), fano, pin={"0": fano.bottom, "1": fano.top}
    )
    assert on_bounds.mapping == find_realization(atom_pair_structure(3), fano).mapping


def test_pins_on_a_constant_without_a_declared_height():
    fano = subspace_lattice(3, 2)
    s = _free_join_structure()
    assert s.height_of("z") is None
    x, y = fano.atoms()[:2]
    line = fano.join(x, y)
    r = find_realization(s, fano, pin={"z": line})
    assert r is not None and r.mapping["z"] == line
    assert fano.join(r.mapping["x"], r.mapping["y"]) == line
    # z must be the join of two atoms: a point, the top or the bottom is not.
    for e in (x, fano.top, fano.bottom):
        assert find_realization(s, fano, pin={"z": e}) is None, e


_PIN_CASES = {
    "triple_M3": (triple_split_structure, diamond_m3),
    "triple_M3_top_first": (triple_split_structure, _m3_top_first),
    "triple_S_2_3": (triple_split_structure, functools.partial(subspace_lattice, 2, 3)),
    "tree_B_2": (functools.partial(build_tree, 1), functools.partial(boolean_lattice, 2)),
    "pair_B_3": (functools.partial(atom_pair_structure, 3), functools.partial(boolean_lattice, 3)),
    "free_B_3": (_free_join_structure, functools.partial(boolean_lattice, 3)),
    "three_leaf_B_3": (three_leaf_tree, functools.partial(boolean_lattice, 3)),
    "probe_fano": (functools.partial(line_probe_structure, 3),
                   functools.partial(subspace_lattice, 3, 2)),
}


@functools.cache
def _pin_case(name):
    make_structure, make_lat = _PIN_CASES[name]
    structure, lat = make_structure(), make_lat()
    return structure, lat, all_realizations(structure, lat)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(_PIN_CASES)), st.data())
def test_random_pins_match_the_oracle(name, data):
    structure, lat, every = _pin_case(name)
    names = data.draw(st.lists(st.sampled_from(structure.constants), unique=True, max_size=3))
    pin = {c: data.draw(st.integers(-2, lat.size + 1)) for c in names}
    pos = {c: i for i, c in enumerate(structure.constants)}
    hits = [r for r in every if all(r[pos[c]] == e for c, e in pin.items())]
    got = find_realization(structure, lat, pin=pin)
    if not hits:
        assert got is None
    else:
        assert tuple(got.mapping[c] for c in structure.constants) == hits[0]
        assert all(type(e) is int for e in got.mapping.values())


def _least(structure, lat, pin=None):
    r = find_realization(structure, lat, pin=pin)
    return None if r is None else r.mapping


def test_children_search_with_their_own_statements():
    b3 = boolean_lattice(3)
    parent = atom_pair_structure(3)
    assert _least(parent, b3) == {"0": 0, "1": 7, "x": 1, "y": 2}
    # The child's join statement is searched, although the parent's plan
    # was made first: x join y must now be an element of height 3.
    child = parent.extend((), (Statement.join_eq("x", "y", "1"),))
    assert _least(child, b3) is None
    assert min(all_realizations(child, b3), default=None) is None
    grown = parent.extend(("l",), (Statement.join_eq("x", "y", "l"),))
    want = min(all_realizations(grown, b3))
    assert tuple(_least(grown, b3)[c] for c in grown.constants) == want
    renamed = parent.renamed({"x": "u"})
    assert _least(renamed, b3) == {"0": 0, "1": 7, "u": 1, "y": 2}
    assert _least(renamed, b3, pin={"u": 4}) == {"0": 0, "1": 7, "u": 4, "y": 1}
    with pytest.raises(UnknownConstant):
        find_realization(renamed, b3, pin={"x": 4})


def test_one_structure_searched_in_two_lattices_answers_as_fresh_objects():
    shared = three_leaf_tree()
    for make in (functools.partial(boolean_lattice, 3),
                 functools.partial(subspace_lattice, 3, 2),
                 functools.partial(boolean_lattice, 3)):
        for pin in (None, {"c1": 4}, {"b2": 1}, {"c1": 6, "b2": 1}):
            assert _least(shared, make(), pin) == _least(three_leaf_tree(), make(), pin), pin


def test_pinned_calls_leave_the_shared_domains_intact():
    fano = subspace_lattice(3, 2)
    probe = line_probe_structure(3)
    first = _least(probe, fano)
    lines = [e for e in range(fano.size) if fano.height(e) == 2]
    points = list(fano.atoms())
    for line in lines + [-1, 0, fano.top, points[0], 99]:
        got = _least(probe, fano, pin={"l": line})
        assert got == _least(line_probe_structure(3), subspace_lattice(3, 2), {"l": line})
    for x, y in itertools.permutations(points[:4], 2):
        got = _least(probe, fano, pin={"x": x, "y": y})
        assert got == _least(line_probe_structure(3), subspace_lattice(3, 2), {"x": x, "y": y})
    assert _least(probe, fano) == first
    assert _least(atom_pair_structure(3), fano) == {"0": 0, "1": fano.top, "x": 1, "y": 2}


@pytest.mark.parametrize(
    "search",
    ["find_realization", "boolean_sublattices", "chain_height"],
)
def test_search_leaves_no_cyclic_garbage(search):
    # Each search recurses through a nested function that holds itself
    # through its closure; it must break that cycle on return.
    fano = subspace_lattice(3, 2)
    probe = line_probe_structure(3)
    line = next(e for e in range(fano.size) if fano.height(e) == 2)
    calls = {
        "find_realization": lambda: (
            find_realization(probe, fano, pin={"l": line}) is not None
            and find_realization(probe, fano, pin={"l": fano.top}) is None
        ),
        "boolean_sublattices": lambda: enumerate_boolean_sublattices(fano),
        "chain_height": lambda: chain_height(fano, fano.top) == 3,
    }
    gc.collect()
    gc.disable()
    try:
        assert calls[search]()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_realization_caps():
    with pytest.raises(SizeBound):
        find_realization(build_tree(1), boolean_lattice(9))
    wide = initial_structure(2).extend(
        constants=tuple(f"z{i}" for i in range(70)),
        statements=tuple(Statement.height_is(f"z{i}", 1) for i in range(70)),
    )
    with pytest.raises(SizeBound):
        find_realization(wide, boolean_lattice(2))


# ----- boolean sublattices, closures ---------------------------------------


def _is_boolean_sublattice(lat, elements):
    elems = set(elements)
    if lat.bottom not in elems or lat.top not in elems:
        return False
    for x, y in itertools.combinations(elems, 2):
        if lat.meet(x, y) not in elems or lat.join(x, y) not in elems:
            return False
    k = len(elems).bit_length() - 1
    if len(elems) != 2**k:
        return False
    for x in elems:
        if not any(
            lat.meet(x, y) == lat.bottom and lat.join(x, y) == lat.top
            for y in elems
        ):
            return False
    return True


def test_enumerate_boolean_sublattices_counts():
    b2 = boolean_lattice(2)
    subs = enumerate_boolean_sublattices(b2)
    assert sorted(len(s.elements) for s in subs) == [2, 4]
    assert len(enumerate_boolean_sublattices(boolean_lattice(3))) == 5
    assert len(enumerate_boolean_sublattices(chain(2))) == 1


def test_enumerated_sublattices_really_are_boolean(fano):
    for lat in (boolean_lattice(3), fano, pentagon_n5()):
        for sub in enumerate_boolean_sublattices(lat):
            assert _is_boolean_sublattice(lat, sub.elements)
            assert len(sub.elements) == 2 ** len(sub.blocks)


def test_sublattices_through_two_fano_atoms(fano):
    subs = enumerate_boolean_sublattices(fano, must_contain=(1, 2))
    assert len(subs) == 4
    line = fano.join(1, 2)
    assert all(line in sub.elements for sub in subs)


def test_sublattice_enumeration_cap():
    with pytest.raises(SizeBound):
        enumerate_boolean_sublattices(boolean_lattice(9))


def test_closure_guards():
    t = build_tree(3)
    with pytest.raises(UnknownConstant):
        boolean_closure(build_tree(1), ("nope",), boolean_lattice(2))
    with pytest.raises(SizeBound):
        boolean_closure(t, t.constants, boolean_lattice(3))
    with pytest.raises(RealizationMissing):
        boolean_closure(build_tree(1), ("p1",), boolean_lattice(3))


def test_three_leaf_closure_recovers_the_whole_cube():
    t = three_leaf_tree()
    b3 = boolean_lattice(3)
    assert t.leaves() == ("c1", "b2", "c2")
    clo = boolean_closure(t, t.leaves(), b3)
    assert clo.new_constants == ("q1", "q2")
    assert len(clo.elements) == 8
    heights = {
        st.operands[0]: st.value
        for st in clo.statements
        if st.kind is StatementKind.HEIGHT_IS
    }
    assert heights["q1"] == 2 and heights["q2"] == 2
    ext = apply_closure(t, clo)
    assert len(ext.constants) == 8
    r = find_realization(ext, b3)
    assert r is not None and satisfies(ext, b3, r.mapping)


def test_tree_closure_names_the_full_four_cube():
    t = build_tree(2)
    b4 = boolean_lattice(4)
    clo = boolean_closure(t, t.leaves(), b4)
    assert clo.new_constants == tuple(f"q{i + 1}" for i in range(8))
    assert len(clo.elements) == 16
    ext = apply_closure(t, clo)
    assert find_realization(ext, b4) is not None


def test_closure_of_collinear_atoms_is_empty(fano):
    probe = line_probe_structure(3)
    line = next(e for e in range(fano.size) if fano.height(e) == 2)
    r = find_realization(probe, fano, pin={"l": line})
    assert boolean_closure(probe, ("x", "y", "x'"), fano, realization=r) is None


def test_closure_of_an_atom_pair_stops_at_their_line(fano):
    pair = atom_pair_structure(3)
    r = find_realization(pair, fano, pin={"x": 1, "y": 2})
    clo = boolean_closure(pair, ("x", "y"), fano, realization=r)
    assert clo.new_constants == ("q1",)
    assert sorted(int(fano.heights[e]) for e in clo.elements) == [0, 1, 1, 2, 3]
    assert fano.join(1, 2) in clo.elements


_STATEMENT_LATTICES = {
    **{f"B_{n}": functools.partial(boolean_lattice, n) for n in range(1, 6)},
    **{f"S_2_{q}": functools.partial(subspace_lattice, 2, q) for q in (2, 3, 5, 7)},
    "S_3_2": functools.partial(subspace_lattice, 3, 2),
}


@functools.cache
def _statement_lattice(name):
    return _STATEMENT_LATTICES[name]()


def _assert_statements_match_the_oracle(data, lat):
    elements = data.draw(st.lists(st.integers(0, lat.size - 1), unique=True, max_size=24))
    if data.draw(st.booleans()):
        elements.sort()
    # Names whose string order differs from element order, with the package's
    # own shapes among them ("0", "p10" before "p2", primes, fresh "q"s).
    pool = ["0", "1"] + [f"{'pqbc'[i % 4]}{i}" + "'" * (i % 3) for i in range(lat.size)]
    names = data.draw(st.permutations(pool))
    name_of = dict(zip(range(lat.size), names))
    got = frozenset(construction._statements_among(elements, name_of, lat))
    assert got == frozenset(statements_one_by_one(elements, name_of, lat))
    assert all(type(st.value) is int for st in got)
    assert all(type(st) is Statement and type(st.operands) is tuple for st in got)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(_STATEMENT_LATTICES)), st.data())
def test_statements_among_match_the_one_by_one_builder(name, data):
    _assert_statements_match_the_oracle(data, _statement_lattice(name))


@settings(max_examples=25, deadline=None)
@given(downset_lattices(), st.data())
def test_statements_among_match_the_one_by_one_builder_on_downset_lattices(relation, data):
    _assert_statements_match_the_oracle(data, build_lattice(*relation))


def test_derive_independent_atoms_spans_the_image():
    b3 = boolean_lattice(3)
    got = derive_independent_atoms(three_leaf_tree(), b3)
    assert [b3.labels[e] for e in got] == ["{c}", "{a}", "{b}"]
    b4 = boolean_lattice(4)
    got4 = derive_independent_atoms(build_tree(2), b4)
    assert [b4.labels[e] for e in got4] == ["{a}", "{b}", "{c}", "{d}"]
    with pytest.raises(RealizationMissing):
        derive_independent_atoms(build_tree(1), boolean_lattice(3))


# ----- probe structures and pipelines ---------------------------------------


def test_probe_structure_shapes():
    lp = line_probe_structure(3)
    assert lp.constants == ("0", "1", "l", "x", "y", "x'")
    assert lp.height_of("l") == 2
    assert Statement.join_eq("x", "y", "l") in lp.statements
    assert Statement.join_eq("x'", "y", "l") in lp.statements
    # at depth 2 the whole lattice is the line
    assert line_probe_structure(2).constants == ("0", "1", "x", "y", "x'")
    assert atom_pair_structure(3).constants == ("0", "1", "x", "y")
    cl = coplanar_lines_structure(3)
    assert cl.constants == ("0", "1", "l1", "l2")
    assert cl.height_of("l1") == cl.height_of("l2") == 2


# sha256 of json.dumps(report.to_dict(), sort_keys=True): the report bodies
# are pinned, so a refactor of the construction engine cannot move a stage
# detail, count or witness unnoticed.
BOOLEAN_PIPELINE_DIGESTS = {
    1: "db3fc97b596481a871c0f512e544ea713025590962f826ac2eb3b514224c998c",
    2: "0af1a2c74e523de8a12e05feb312b18bdb519d9484514763e070374800dd73a7",
    3: "6ed326d27f1414cd002e756ede8310f13a14279cc57d9a76d1c9d2fe1cf60827",
    4: "8ead935a57ef73a481f6c0b2a13a3da5be296e0437ac06c5e51b7c643204f3fb",
    5: "da96a56ed4fa4644eb02f8ca8f3ef45b2b312c82e535131336310b5aa677fbd6",
    6: "9778e59990762b76cf51e81b90bfca9786555eaf8cc126f5ce6b4bcdb7f686ed",
    7: "65d29002656a0d7f062dc2bfcf908bbe3306ff39b9dd996b80ce14b5dc3d5fe9",
}
PROJECTIVE_PIPELINE_DIGESTS = {
    (2, 2): "d6e231862acb7cb959b5be26b2189aff9c53b9c6f83447a9869919b0909d19bd",
    (2, 3): "24ed1b133fcc9e0fb2f79c33c76876f7b4c69b4f45e14b1879c33a39d1e50507",
    (3, 2): "bdccad7755139ec4352f48a5a2accd443d01e276f9c576d494d34ba70f33f03f",
    (3, 3): "58aa800ab5d8e96c4000c2efddb16d428472c14e551be0a29958d0b4e945930d",
}


def _report_digest(rep):
    body = json.dumps(rep.to_dict(), sort_keys=True)
    return hashlib.sha256(body.encode()).hexdigest()


def test_boolean_pipeline_passes_small_ranks():
    for n in range(1, 7):
        rep = verify_boolean_pipeline(n)
        assert rep.passed, rep.to_dict()
        assert _report_digest(rep) == BOOLEAN_PIPELINE_DIGESTS[n], n
        assert list(rep.stages) == [
            "tree_realized",
            "independent_atoms",
            "closure_complete",
            "extension_realized",
            "splits_realizable",
            "closures_realizable",
        ]
        d = rep.to_dict()
        assert d["passed"] is True and d["params"] == {"n": n}


def _refuse(*args, **kwargs):
    raise AssertionError("work began before the size check")


def test_boolean_pipeline_bounds(monkeypatch):
    with pytest.raises(ValueError):
        verify_boolean_pipeline(0)
    monkeypatch.setattr(construction, "boolean_lattice", _refuse)
    with pytest.raises(SizeBound):
        verify_boolean_pipeline(9)


def test_boolean_pipeline_reaches_the_ambient_cap():
    rep = verify_boolean_pipeline(7)
    assert len(rep.stages) == 6
    assert all(stage["ok"] for stage in rep.stages.values()), rep.to_dict()
    assert _report_digest(rep) == BOOLEAN_PIPELINE_DIGESTS[7]


@pytest.mark.parametrize(
    "n, q", [(6, 2), (3, 13), (600, 2), (3000, 2), (1, 10000000000000061)]
)
def test_projective_pipeline_bounds_come_before_generation(monkeypatch, n, q):
    monkeypatch.setattr(construction, "subspace_lattice", _refuse)
    with pytest.raises(SizeBound):
        verify_projective_pipeline(n, q)


def test_tree_depth_cap_comes_before_splitting(monkeypatch):
    monkeypatch.setattr(construction, "saturate_splits", _refuse)
    for depth in (0, construction.MAX_TREE_DEPTH + 1):
        with pytest.raises(SizeBound):
            build_tree(depth)


def test_realization_caps_come_before_the_search(monkeypatch):
    b2, tree = boolean_lattice(2), build_tree(1)
    count = construction.MAX_REALIZATION_CONSTANTS + 1
    wide = initial_structure(2).extend(
        constants=tuple(f"z{i}" for i in range(count)),
        statements=tuple(Statement.height_is(f"z{i}", 1) for i in range(count)),
    )
    monkeypatch.setattr(construction, "_all_hold", _refuse)
    with pytest.raises(SizeBound, match="constants"):
        find_realization(wide, b2)
    monkeypatch.setenv("LATTICE_MAX_ELEMENTS", str(b2.size - 1))
    with pytest.raises(SizeBound, match="elements"):
        find_realization(tree, b2)


def test_closure_constant_cap_comes_before_the_search_and_the_memo(monkeypatch):
    # Free constants, so that a realization exists in B_4 to pass in.
    count = construction.MAX_SUBSTRUCTURE_CONSTANTS + 1
    free = initial_structure(4).extend(constants=tuple(f"z{i}" for i in range(count)))
    b4 = boolean_lattice(4)
    realization = find_realization(free, b4)
    assert realization is not None
    monkeypatch.setattr(construction, "find_realization", _refuse)
    monkeypatch.setattr(construction, "_shared_elements", _refuse)
    for given_realization in (None, realization):
        with pytest.raises(SizeBound):
            boolean_closure(free, free.constants, b4, given_realization)


def test_a_pipeline_reads_the_cap_once_and_clears_it(monkeypatch):
    reads = []
    read = limits._env_cap
    monkeypatch.setattr(limits, "_env_cap", lambda: reads.append(1) or read())
    for q in (3, 19):
        reads.clear()
        verify_projective_pipeline(2, q)
        # The target's and the boolean probe's generators read the element
        # cap, and the pipeline the ambient cap: once each, at any q.
        assert len(reads) == 3
    # A run that raises clears its cap too: later calls read the variable.
    b2, tree = boolean_lattice(2), saturate_splits(initial_structure(2))
    monkeypatch.setattr(construction, "saturate_splits", _refuse)
    with pytest.raises(AssertionError):
        verify_boolean_pipeline(2)
    monkeypatch.setenv("LATTICE_MAX_ELEMENTS", str(b2.size - 1))
    with pytest.raises(SizeBound, match="elements"):
        find_realization(tree, b2)


def test_ambient_cap_comes_before_enumeration(monkeypatch):
    big = boolean_lattice(9)
    monkeypatch.setattr(construction, "_all_boolean_sublattices", _refuse)
    with pytest.raises(SizeBound):
        enumerate_boolean_sublattices(big)


# Requests whose size is decided by a bound that needs neither the subspace
# count nor a primality test, nor any element built.
HOSTILE_REQUESTS = [
    ("verify", "projective", "--n", "600", "--q", "2"),
    ("verify", "projective", "--n", "3000", "--q", "2"),
    ("verify", "projective", "--n", "1", "--q", "10000000000000061"),
    ("gen", "subspace", "--n", "1", "--q", "10000000000000061"),
    ("gen", "subspace", "--n", "1000000000", "--q", "2"),
    ("gen", "chain", "--n", "20000000"),
]


@pytest.mark.parametrize("argv", HOSTILE_REQUESTS, ids=" ".join)
def test_hostile_requests_exit_2_before_any_work(monkeypatch, capsys, argv):
    for name in ("_is_prime", "_gaussian_binomial", "_rref_bases", "build_lattice"):
        monkeypatch.setattr(generators, name, _refuse)
    monkeypatch.setattr(construction, "subspace_lattice", _refuse)
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("latlab: SizeBound: ")
    assert captured.err.count("\n") == 1 and "exceeds the cap of" in captured.err


def test_projective_pipeline_passes():
    rep = verify_projective_pipeline(3, 2)
    assert rep.passed, rep.to_dict()
    assert _report_digest(rep) == PROJECTIVE_PIPELINE_DIGESTS[3, 2]
    assert list(rep.stages) == [
        "characterization",
        "tree_realized",
        "independent_atoms",
        "third_point_per_line",
        "third_point_absent_boolean",
        "atom_joins_closed",
        "coplanar_meets_closed",
    ]
    for n, q in [(2, 2), (2, 3), (3, 3)]:
        rep = verify_projective_pipeline(n, q)
        assert rep.passed, rep.to_dict()
        assert _report_digest(rep) == PROJECTIVE_PIPELINE_DIGESTS[n, q], (n, q)


def test_projective_pipeline_parameter_validation():
    with pytest.raises(ValueError):
        verify_projective_pipeline(3, 4)


# ----- indexes and memo against the full-scan references -------------------


def _assert_indexes_match_scans(structure):
    for c in structure.constants + ("absent",):
        assert structure.height_of(c) == scan_height_of(structure, c), c
        assert structure.split_of(c) == scan_split_of(structure, c), c


def test_height_and_split_indexes_match_scans():
    for depth in range(1, 7):
        _assert_indexes_match_scans(build_tree(depth))
    _assert_indexes_match_scans(triple_split_structure())


def _recorded_splits(s):
    return sorted(
        (stmt.operands[2], stmt.operands[0], stmt.operands[1])
        for stmt in s.statements
        if stmt.kind is StatementKind.JOIN_EQ
        and stmt.operands[2] not in stmt.operands[:2]
        and Statement.disjoint(*stmt.operands[:2]) in s.statements
    )


def _grow(s, kind, pick):
    """One random growth step: a split of a tall constant, an alternative
    part of a recorded split, or a disjointness or join among existing
    constants; None when the step does not apply."""
    if kind >= 2:
        rng = random.Random(pick)
        names = rng.choices(s.constants, k=3)
        if kind == 2:
            return s.extend((), (Statement.disjoint(*names[:2]),))
        return s.extend((), (Statement.join_eq(*names),))
    if kind:
        splits = _recorded_splits(s)
        if not splits:
            return None
        symbol, b, c = splits[pick % len(splits)]
        part, other = (b, c) if pick % 2 else (c, b)
        return add_split_alternative(s, symbol, part, other)
    tall = [c for c in s.constants if (scan_height_of(s, c) or 0) >= 2]
    if not tall:
        return None
    c = tall[pick % len(tall)]
    h = scan_height_of(s, c)
    hb = 1 + pick % (h - 1)
    return split_element(s, c, (hb, h - hb))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 6),
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2**16)), max_size=8),
)
def test_indexes_match_scans_on_grown_structures(depth, steps):
    s = initial_structure(depth)
    for kind, pick in steps:
        s = _grow(s, kind, pick) or s
    _assert_indexes_match_scans(s)


def test_sublattice_enumeration_matches_the_full_scan(law_corpus):
    lats = [lat for lat in law_corpus if lat.size <= 64]
    lats += [subspace_lattice(4, 2)]
    names = {lat.name for lat in lats}
    assert {"B_6", "M3", "N5", "subspaces_4_2"} <= names, names
    for lat in lats:
        full = scan_boolean_sublattices(lat)
        assert enumerate_boolean_sublattices(lat) == full, lat.name
        rng = random.Random(lat.size)
        sub = rng.choice(full)
        must = rng.sample(sub.elements, min(2, len(sub.elements)))
        got = enumerate_boolean_sublattices(lat, must_contain=must)
        assert got == scan_boolean_sublattices(lat, must), (lat.name, must)
        assert sub in got


def test_returned_sublattice_lists_are_fresh():
    lat = boolean_lattice(3)
    first = enumerate_boolean_sublattices(lat)
    expected = list(first)
    first.clear()
    assert enumerate_boolean_sublattices(lat) == expected
    assert enumerate_boolean_sublattices(lat, must_contain=(-1,)) == []


def test_sublattice_cap_is_checked_after_enumeration(monkeypatch):
    lat = boolean_lattice(3)
    assert enumerate_boolean_sublattices(lat)
    monkeypatch.setenv("LATTICE_MAX_ELEMENTS", str(lat.size - 1))
    with pytest.raises(SizeBound):
        enumerate_boolean_sublattices(lat)


def test_sublattice_memo_does_not_keep_lattices_alive():
    gc.collect()
    before = len(construction._SUBLATTICES)
    lat = boolean_lattice(3)
    enumerate_boolean_sublattices(lat)
    assert lat in construction._SUBLATTICES
    assert len(construction._SUBLATTICES) == before + 1
    ref = weakref.ref(lat)
    del lat
    gc.collect()
    assert ref() is None
    assert len(construction._SUBLATTICES) == before


# ----- the independence shortcut and the closed-form counts -------------------


@pytest.mark.parametrize("n, q", [(3, 2), (3, 3), (3, 5), (4, 2), (3, 7)])
def test_subspace_sublattice_counts_match_the_closed_form(n, q):
    subs = enumerate_boolean_sublattices(subspace_lattice(n, q))
    assert len(subs) == count_subspace_boolean_sublattices(n, q)
    assert sum(len(s.blocks) == n for s in subs) == count_subspace_frames(n, q)


def test_boolean_sublattice_counts_match_bell_numbers():
    for n in range(1, 8):
        subs = enumerate_boolean_sublattices(boolean_lattice(n))
        assert len(subs) == bell(n), n
        assert [len(s.elements) for s in subs].count(2**n) == 1


def test_count_oracles_match_the_full_scan():
    assert count_subspace_boolean_sublattices(3, 5) == 1 + 775 + 3875
    for n, q in [(1, 2), (2, 2), (2, 3), (2, 5), (3, 2)]:
        subs = scan_boolean_sublattices(subspace_lattice(n, q))
        assert len(subs) == count_subspace_boolean_sublattices(n, q), (n, q)
        assert sum(len(s.blocks) == n for s in subs) == count_subspace_frames(n, q)
    for n in range(1, 5):
        assert len(scan_boolean_sublattices(boolean_lattice(n))) == bell(n)


def _spy_on_closes(monkeypatch):
    """Record the blocks and outcome of every ``_close_blocks`` call."""
    calls = []
    close = construction._close_blocks

    def spy(*args):
        out = close(*args)
        calls.append((tuple(args[3]), out))
        return out

    monkeypatch.setattr(construction, "_close_blocks", spy)
    return calls


def test_premise_is_decided_once_and_only_past_two_blocks(monkeypatch):
    decided = []
    modular = construction.is_modular
    monkeypatch.setattr(construction, "is_modular", lambda lat: decided.append(lat) or modular(lat))
    closes = _spy_on_closes(monkeypatch)
    for lat in (boolean_lattice(1), boolean_lattice(2), subspace_lattice(2, 5),
                diamond_m3(), pentagon_n5(), chain(3)):
        assert construction._all_boolean_sublattices(lat) == scan_boolean_sublattices(lat)
    assert decided == [] and closes == []
    for lat in (boolean_lattice(3), subspace_lattice(3, 3)):
        construction._all_boolean_sublattices(lat)
    assert [lat.name for lat in decided] == ["B_3", "subspaces_3_3"]
    assert closes == []


def test_forged_tables_fail_the_premise_and_go_through_the_close(monkeypatch):
    b3 = boolean_lattice(3)
    meet = b3.meet_table.copy()
    meet[3, 5] = meet[5, 3] = b3.bottom  # {1,2} meet {1,3}, forged to the bottom
    forged = FiniteLattice(b3.labels, b3.leq, b3.bottom, b3.top, meet, b3.join_table)
    assert not forged.tables_match_order()
    closes = _spy_on_closes(monkeypatch)
    subs = enumerate_boolean_sublattices(forged)
    assert ((1, 2, 4), None) in closes
    assert (1, 2, 4) in [s.blocks for s in enumerate_boolean_sublattices(b3)]
    assert (1, 2, 4) not in [s.blocks for s in subs]
    assert subs == scan_boolean_sublattices(forged)


def test_non_modular_decomposition_stays_rejected(monkeypatch):
    # a < x = a join b, b < d = b join c, and a join c = 1: {0, a, x, c, 1}
    # is a pentagon, so the admitted blocks a, b, c join to only seven
    # distinct elements.  The atom e lifts the size to eight, which admits
    # three blocks.
    lat = build_lattice(
        ["0", "a", "b", "c", "x", "d", "e", "1"],
        [(0, 1), (0, 2), (0, 3), (0, 6), (1, 4), (2, 4), (2, 5), (3, 5), (4, 7), (5, 7),
         (6, 7)],
    )
    assert lat.tables_match_order() and not is_modular(lat).holds
    closes = _spy_on_closes(monkeypatch)
    subs = enumerate_boolean_sublattices(lat)
    assert ((1, 2, 3), None) in closes
    assert all(len(s.blocks) <= 2 for s in subs)
    assert subs == scan_boolean_sublattices(lat)


@st.composite
def lattice_products(draw):
    """A product of two or three small lattices, ordered componentwise:
    modular from chains and M3, not modular with a pentagon factor.  From
    eight elements up it has decompositions of three or more blocks."""
    pool = [chain(2), chain(3), diamond_m3(), pentagon_n5()]
    factors = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=3))
    assume(math.prod(f.size for f in factors) <= 50)
    elements = list(itertools.product(*[range(f.size) for f in factors]))
    pairs = [
        (i, j)
        for i, x in enumerate(elements)
        for j, y in enumerate(elements)
        if all(f.le(a, b) for f, a, b in zip(factors, x, y))
    ]
    return [",".join(map(str, x)) for x in elements], pairs


@settings(max_examples=60, deadline=None)
@given(st.one_of(bounded_posets(), dm_completions(), lattice_products()))
def test_enumeration_matches_the_full_scan_on_random_lattices(relation):
    try:
        lat = build_lattice(*relation)
    except NotALattice:
        return
    assert enumerate_boolean_sublattices(lat) == scan_boolean_sublattices(lat)


# ----- incremental engine against the frozen whole-structure forms ----------


def _assert_same_structure(got, want):
    assert got.constants == want.constants
    assert got.statements == want.statements
    assert got.counter == want.counter
    for c in got.constants + ("absent",):
        assert got.height_of(c) == want.height_of(c), c
        assert got.split_of(c) == want.split_of(c), c


@settings(max_examples=80, deadline=None)
@given(
    st.integers(2, 6),
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2**16)), max_size=10),
)
def test_extend_matches_the_frozen_rebuild(depth, steps):
    s = initial_structure(depth)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(construction.PartialStructure, "extend", rebuild_extend)
        frozen = initial_structure(depth)
    _assert_same_structure(s, frozen)
    for kind, pick in steps:
        grown = _grow(s, kind, pick)
        if grown is None:
            continue
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(construction.PartialStructure, "extend", rebuild_extend)
            frozen = _grow(frozen, kind, pick)
        s = grown
        _assert_same_structure(s, frozen)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(2, 6),
    st.lists(st.tuples(st.integers(0, 4), st.integers(0, 2**16)), max_size=10),
)
def test_saturate_splits_matches_the_frozen_rescan(depth, steps):
    # Kind 4 declares a constant with no height, which no split can target.
    s = initial_structure(depth)
    for kind, pick in steps:
        if kind == 4:
            name = f"u{pick}"
            grown = None if name in s.constants else s.extend((name,))
        else:
            grown = _grow(s, kind, pick)
        s = grown or s
    _assert_same_structure(saturate_splits(s), rescan_saturate_splits(s))


def test_extend_rejects_what_the_frozen_rebuild_rejects():
    s = split_element(initial_structure(4), "1")
    bad = [
        (("b1",), ()),
        (("x", "x"), ()),
        ((), (Statement.height_is("nope", 1),)),
        (("x",), (Statement.height_is("x", 9),)),
        ((), (Statement.height_is("b1", 1),)),
        (("x",), (Statement.height_is("x", 1), Statement.height_is("x", 3))),
        (("x",), (Statement.join_eq("x", "y", "1"), Statement.height_is("x", -1))),
    ]
    for constants, statements in bad:
        with pytest.raises(Exception) as want:
            rebuild_extend(s, constants, statements)
        with pytest.raises(type(want.value)) as got:
            s.extend(constants, statements)
        assert str(got.value) == str(want.value)


def _pipeline_structures(lat, n):
    """The split tree of depth bound n with its realization in ``lat``, and
    the tree extended by the boolean closure of its leaves."""
    tree = saturate_splits(initial_structure(n))
    f = find_realization(tree, lat)
    closure = boolean_closure(tree, tree.leaves(), lat, realization=f)
    extended = apply_closure(tree, closure)
    mapping = dict(f.mapping)
    mapping.update({c: closure.naming[c] for c in closure.new_constants})
    return [(tree, f), (extended, construction.Realization(extended, lat, mapping))]


@pytest.mark.parametrize(
    "make, n",
    [(functools.partial(boolean_lattice, k), k) for k in range(1, 6)]
    + [(functools.partial(subspace_lattice, 3, 2), 3)],
)
def test_closure_recheck_matches_the_whole_structure_form(make, n):
    lat = make()
    for structure, real in _pipeline_structures(lat, n):
        got = construction._all_closures_realizable(structure, lat, real)
        assert got[0], got
        assert got == whole_structure_closures_realizable(structure, lat, real)


def _forging(monkeypatch, forge):
    """Pass every closure with fresh constants through ``forge``."""
    honest = construction._closure_over

    def forged(*args):
        closure = honest(*args)
        return forge(closure) if closure.new_constants else closure

    monkeypatch.setattr(construction, "_closure_over", forged)


def test_closure_recheck_rejects_forged_closures(monkeypatch):
    lat = boolean_lattice(3)
    tree, real = _pipeline_structures(lat, 3)[0]

    def wrong_result(closure):
        st = next(
            st for st in sorted(closure.statements, key=Statement.sort_key)
            if st.kind is StatementKind.JOIN_EQ and st.operands[2] != "1"
        )
        a, b, _ = st.operands
        lie = Statement.join_eq(a, b, "1")
        stmts = (closure.statements - {st}) | {lie}
        return construction.ClosureResult(
            stmts, closure.new_constants, closure.naming, closure.elements
        )

    def colliding_naming(closure):
        # No statements, so only the injectivity check can object.
        naming = dict(closure.naming)
        naming[closure.new_constants[0]] = real.mapping[tree.leaves()[0]]
        return construction.ClosureResult(
            frozenset(), closure.new_constants, naming, closure.elements
        )

    def merged_fresh(closure):
        naming = dict(closure.naming)
        for c in closure.new_constants:
            naming[c] = naming[closure.new_constants[0]]
        return construction.ClosureResult(
            frozenset(), closure.new_constants, naming, closure.elements
        )

    for forge in (wrong_result, colliding_naming, merged_fresh):
        _forging(monkeypatch, forge)
        got = construction._all_closures_realizable(tree, lat, real)
        assert not got[0], forge.__name__
        assert got == whole_structure_closures_realizable(tree, lat, real)
        monkeypatch.undo()


def _repointed(kind, pair, result):
    """A forge that drops the closure's ``pair kind`` statement, or points it
    at ``result`` instead; closures without one pass unchanged."""

    def forge(closure):
        hit = {
            st for st in closure.statements
            if st.kind is kind and st.operands[:2] == pair
        }
        if not hit:
            return closure
        stmts = closure.statements - hit
        if result is not None:
            stmts |= {Statement(kind, (*pair, result))}
        return construction.ClosureResult(
            stmts, closure.new_constants, closure.naming, closure.elements
        )

    return forge


@pytest.mark.parametrize(
    "kind, pair, result, stage, detail",
    [
        (StatementKind.JOIN_EQ, ("x", "y"), None,
         "atom_joins_closed", "join of atoms 1,2 not recovered at height 2"),
        (StatementKind.JOIN_EQ, ("x", "y"), "1",
         "atom_joins_closed", "join of atoms 1,2 not recovered at height 2"),
        (StatementKind.MEET_EQ, ("l1", "l2"), None,
         "coplanar_meets_closed", "meet of lines 8,9 not at height 1"),
        (StatementKind.MEET_EQ, ("l1", "l2"), "0",
         "coplanar_meets_closed", "meet of lines 8,9 not at height 1"),
    ],
)
def test_projective_closure_stages_reject_forged_closures(
    monkeypatch, kind, pair, result, stage, detail
):
    _forging(monkeypatch, _repointed(kind, pair, result))
    rep = verify_projective_pipeline(3, 2)
    failing = {k: v["detail"] for k, v in rep.stages.items() if not v["ok"]}
    assert failing == {stage: detail}


def _stage_outcomes(rep):
    return {k: (v["ok"], v["detail"]) for k, v in rep.stages.items()}


def test_pipelines_stop_when_the_tree_has_no_realization(monkeypatch, capsys):
    monkeypatch.setattr(construction, "find_realization", lambda *a, **k: None)
    assert _stage_outcomes(verify_boolean_pipeline(3)) == {
        "tree_realized": (False, "6 constants into B_3"),
    }
    assert _stage_outcomes(verify_projective_pipeline(3, 2)) == {
        "characterization": (True, "all clauses hold"),
        "tree_realized": (False, "6 constants into subspaces_3_2"),
    }
    assert main(["verify", "boolean", "--n", "3"]) == 1
    assert json.loads(capsys.readouterr().out)["report"]["passed"] is False


def test_boolean_pipeline_stops_after_an_incomplete_closure(monkeypatch):
    monkeypatch.setattr(construction, "_closure_covers_lattice", lambda *a: False)
    assert _stage_outcomes(verify_boolean_pipeline(3)) == {
        "tree_realized": (True, "6 constants into B_3"),
        "independent_atoms": (True, "3 atoms, join height 3"),
        "closure_complete": (False, "closure incomplete"),
    }


def test_projective_probe_stages_fail_without_boolean_extensions(monkeypatch):
    monkeypatch.setattr(construction, "boolean_closure", lambda *a, **k: None)
    rep = verify_projective_pipeline(3, 2)
    failing = {k: v["detail"] for k, v in rep.stages.items() if not v["ok"]}
    assert failing == {
        "atom_joins_closed": "no boolean extension for atoms 1,2",
        "coplanar_meets_closed": "no boolean extension for lines 8,9",
    }


@pytest.mark.parametrize(
    "pinned, stage, detail",
    [
        ("l", "third_point_per_line",
         "no third point on ['<010,001>', '<100,001>', '<100,010>', "
         "'<100,011>', '<101,010>', '<101,011>', '<110,001>']"),
        ("x", "atom_joins_closed", "atom pair 1,2 not realizable"),
        ("l1", "coplanar_meets_closed", "lines 8,9 not realizable"),
    ],
)
def test_projective_probe_stages_fail_on_unrealizable_pins(
    monkeypatch, pinned, stage, detail
):
    honest = construction.find_realization

    def refusing(structure, lat, pin=None):
        return None if pin and pinned in pin else honest(structure, lat, pin=pin)

    monkeypatch.setattr(construction, "find_realization", refusing)
    rep = verify_projective_pipeline(3, 2)
    failing = {k: v["detail"] for k, v in rep.stages.items() if not v["ok"]}
    assert failing == {stage: detail}


_INDEX_LATTICES = {
    "B_4": functools.partial(boolean_lattice, 4),
    "B_5": functools.partial(boolean_lattice, 5),
    "fano": functools.partial(subspace_lattice, 3, 2),
    "S_2_5": functools.partial(subspace_lattice, 2, 5),
    "M3": diamond_m3,
}


@functools.cache
def _index_case(name):
    lat = _INDEX_LATTICES[name]()
    return lat, scan_boolean_sublattices(lat)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(_INDEX_LATTICES)), st.data())
def test_sublattice_index_matches_the_full_scan(name, data):
    lat, full = _index_case(name)
    sub = data.draw(st.sampled_from(full))
    inside = data.draw(st.lists(st.sampled_from(sub.elements), max_size=3))
    stray = data.draw(st.lists(st.integers(-3, lat.size + 3), max_size=2))
    must = inside + stray + inside[:1]  # a repeated id changes nothing
    in_range = all(0 <= e < lat.size for e in must)
    want = scan_boolean_sublattices(lat, must) if in_range else []
    assert enumerate_boolean_sublattices(lat, must_contain=must) == want
