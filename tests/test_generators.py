import itertools
import tracemalloc

import numpy as np
import pytest

from latlab import (
    FiniteLattice,
    SizeBound,
    boolean_lattice,
    build_lattice,
    chain,
    diamond_m3,
    document_from_lattice,
    is_atomic,
    is_complemented,
    is_distributive,
    is_modular,
    is_perspective_lattice,
    lattice_to_json,
    pentagon_n5,
    subspace_lattice,
)
from latlab import core, generators, props
from latlab.cli import main
from latlab.limits import MAX_VECTORS, element_cap

from oracles import (
    count_subsets,
    doubling_boolean_order,
    enumerate_subspaces,
    gaussian_binomial,
    graded_chain_order,
    label_spans,
    rref_labels,
    scan_cover_matrix,
    scan_distributive,
    scan_subspace_tables,
    subspace_dim,
)


def test_boolean_counts_match_subset_oracle():
    for n in range(1, 9):
        assert boolean_lattice(n).size == 2**n == count_subsets(n)


def test_boolean_one_is_two_element_chain():
    b1 = boolean_lattice(1)
    two = chain(2)
    assert b1.size == two.size == 2
    assert bool(b1.le(b1.bottom, b1.top)) and bool(two.le(two.bottom, two.top))


def test_boolean_bounds():
    with pytest.raises(ValueError):
        boolean_lattice(0)
    with pytest.raises(SizeBound):
        boolean_lattice(13)


def test_subspace_3_2_against_brute_enumeration():
    fano = subspace_lattice(3, 2)
    oracle = enumerate_subspaces(3, 2)
    assert fano.size == len(oracle) == 16
    profile = [sum(1 for s in oracle if subspace_dim(s, 2) == d) for d in range(4)]
    assert profile == [1, 7, 7, 1]
    assert [int((fano.heights == h).sum()) for h in range(4)] == [1, 7, 7, 1]
    # every 2-dim subspace contains exactly 3 of the 1-dim ones
    dims1 = [s for s in oracle if subspace_dim(s, 2) == 1]
    dims2 = [s for s in oracle if subspace_dim(s, 2) == 2]
    assert all(sum(1 for p in dims1 if p <= l) == 3 for l in dims2)


def test_subspace_2_3_against_brute_enumeration():
    lat = subspace_lattice(2, 3)
    oracle = enumerate_subspaces(2, 3)
    assert lat.size == len(oracle) == 6
    assert [int((lat.heights == h).sum()) for h in range(3)] == [1, 4, 1]


def test_subspace_counts_match_gaussian_binomials():
    for n, q in [(2, 2), (2, 5), (3, 2), (3, 3), (4, 2)]:
        expected = sum(gaussian_binomial(n, k, q) for k in range(n + 1))
        assert subspace_lattice(n, q).size == expected


def test_subspace_one_dimensional_is_chain():
    for q in (2, 3, 7):
        lat = subspace_lattice(1, q)
        assert lat.size == 2
        assert lat.height(lat.top) == 1


def test_subspace_dimension_formula_is_height_law():
    for n, q in [(3, 2), (2, 5), (4, 2)]:
        lat = subspace_lattice(n, q)
        h = lat.heights.astype(int)
        lhs = h[:, None] + h[None, :]
        rhs = h[lat.meet_table] + h[lat.join_table]
        assert np.array_equal(lhs, rhs)


def test_subspace_law_profile():
    for n, q in [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)]:
        lat = subspace_lattice(n, q)
        assert is_modular(lat).holds, lat.name
        assert is_atomic(lat).holds, lat.name
        assert is_complemented(lat).holds, lat.name
        assert is_perspective_lattice(lat).holds, lat.name
        assert not is_distributive(lat).holds, lat.name


def test_boolean_law_profile():
    for n in (2, 3, 4):
        lat = boolean_lattice(n)
        assert is_distributive(lat).holds
        assert not is_perspective_lattice(lat).holds


def test_subspace_parameter_validation():
    with pytest.raises(ValueError):
        subspace_lattice(0, 2)
    with pytest.raises(ValueError):
        subspace_lattice(2, 4)  # not prime
    with pytest.raises(ValueError):
        subspace_lattice(2, 1)
    with pytest.raises(SizeBound):
        subspace_lattice(9, 7)  # 7^9 vectors is over the cap


def _refuse(*args, **kwargs):
    raise AssertionError("work began before the size check")


def test_subspace_parameters_are_checked_cheapest_first(monkeypatch):
    with pytest.raises(ValueError, match="^dimension must be >= 1$"):
        generators.subspace_count(0, 4)
    monkeypatch.setattr(generators, "_is_prime", _refuse)
    monkeypatch.setattr(generators, "_gaussian_binomial", _refuse)
    for n, q in [(13, 2), (3, 17), (1, 4099), (10**9, 2), (1, 10000000000000061)]:
        with pytest.raises(SizeBound, match=rf"^{q}\^{n} vectors exceeds the cap of {MAX_VECTORS}$"):
            generators.subspace_count(n, q)
    monkeypatch.undo()
    with pytest.raises(ValueError, match="^field order 4 is not prime$"):
        generators.subspace_count(3, 4)
    assert generators.subspace_count(12, 2) == sum(gaussian_binomial(12, k, 2) for k in range(13))


def test_small_counterexample_shapes():
    m3 = diamond_m3()
    assert m3.size == 5 and len(m3.atoms()) == 3
    assert is_modular(m3).holds and not is_distributive(m3).holds
    n5 = pentagon_n5()
    assert n5.size == 5
    assert not is_modular(n5).holds
    assert sorted(n5.labels) == ["0", "1", "a", "b", "c"]


def test_chain_generator():
    for k in (2, 3, 6):
        c = chain(k)
        assert c.size == k
        assert c.height(c.top) == k - 1
        assert all(c.le(i, j) == (i <= j) for i in range(k) for j in range(k))
    with pytest.raises(ValueError):
        chain(1)
    with pytest.raises(SizeBound, match=f"^20000000 elements exceeds the cap of {element_cap()}$"):
        chain(20000000)


def test_subspace_label_determinism():
    a = subspace_lattice(3, 2)
    b = subspace_lattice(3, 2)
    assert a.labels == b.labels
    assert np.array_equal(a.meet_table, b.meet_table)


# ----- closed-form covers and subspace tables from the cover recursion ------


def _assert_premise_verified(lat):
    assert lat._tables_match_order is None, lat.name  # not preset
    assert lat.tables_match_order(), lat.name
    # The recomputed order equals the seeded one, so no second copy is kept.
    assert all(a is b for a, b in zip(lat._derived_order, (lat.leq, lat.covers, lat.heights)))


def _assert_seeded_covers(lat):
    """Subspace lattices seed a cover matrix; boolean lattices and chains
    seed cover pairs as a form, and set the matrix from them on first read."""
    if lat.name.startswith("subspaces_"):
        assert "covers" in vars(lat), lat.name  # seeded, not derived on demand
    else:
        assert "cover_pairs" in lat._forms, lat.name  # seeded as a form
        assert all(not a.flags.writeable for a in lat.cover_pairs), lat.name
        assert "covers" not in vars(lat), lat.name  # the pairs need no matrix
    assert not lat.covers.flags.writeable
    assert np.array_equal(lat.covers, scan_cover_matrix(lat.leq)), lat.name


def test_subspace_tables_equal_the_frozen_scan(law_corpus):
    params = [
        tuple(int(v) for v in lat.name.split("_")[1:])
        for lat in law_corpus
        if lat.name.startswith("subspaces_")
    ]
    assert len(params) == 16
    # labels with commas (q > 9), and rank 4 and 5
    assert {(2, 11), (2, 13), (3, 5), (4, 3)} <= set(params)
    for n, q in params + [(5, 2), (3, 13)]:
        lat = subspace_lattice(n, q)
        spans = label_spans(lat, n, q)
        dims = np.array([subspace_dim(s, q) for s in spans], dtype=np.int32)
        leq = np.array([[x <= y for y in spans] for x in spans])
        assert np.array_equal(leq, lat.leq), lat.name
        assert np.array_equal(dims, lat.heights), lat.name
        meet, join = scan_subspace_tables(spans, leq, dims)
        assert np.array_equal(lat.meet_table, meet), lat.name
        assert np.array_equal(lat.join_table, join), lat.name
        _assert_seeded_covers(lat)
        _assert_premise_verified(lat)


def test_subspace_labels_equal_the_frozen_enumeration(law_corpus):
    params = {
        tuple(int(v) for v in lat.name.split("_")[1:])
        for lat in law_corpus
        if lat.name.startswith("subspaces_")
    }
    for n, q in sorted(params) + [(5, 2), (3, 13), (6, 2), (4, 7)]:
        assert list(subspace_lattice(n, q).labels) == rref_labels(n, q), (n, q)


def _polarity(n, q):
    return generators._order_and_polarity(generators._rref_bases(n, q), q)[1]


@pytest.mark.parametrize("n, q", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)])
def test_polarity_is_the_brute_force_orthogonal_complement(n, q):
    lat = subspace_lattice(n, q)
    spans = label_spans(lat, n, q)
    by_span = {span: i for i, span in enumerate(spans)}
    vectors = list(itertools.product(range(q), repeat=n))
    brute = [
        by_span[frozenset(v for v in vectors
                          if all(sum(a * b for a, b in zip(u, v)) % q == 0 for u in span))]
        for span in spans
    ]
    comp = _polarity(n, q)
    assert comp.tolist() == brute
    assert np.array_equal(comp[comp], np.arange(lat.size))  # an involution
    assert np.array_equal(lat.leq[np.ix_(comp, comp)].T, lat.leq)  # x <= y iff y^perp <= x^perp
    assert np.array_equal(lat.heights[comp], n - lat.heights)


def test_a_meet_from_a_forged_polarity_fails_the_premise():
    fano = subspace_lattice(3, 2)
    comp = _polarity(3, 2)
    a, b = fano.atoms()[:2]
    forged = comp.copy()
    forged[[a, b]] = comp[[b, a]]
    assert not np.array_equal(generators._polar_meets(fano.join_table, forged), fano.meet_table)
    lat = FiniteLattice(fano.labels, fano.leq, fano.bottom, fano.top, name="forged")
    lat._seed_forms(
        heights=fano.heights,
        covers=fano.covers,
        meet_table=lambda: generators._polar_meets(lat.join_table, forged),
    )
    assert not lat.tables_match_order()
    # The same lattice seeded from the true polarity passes.
    lat = FiniteLattice(fano.labels, fano.leq, fano.bottom, fano.top, name="true")
    lat._seed_forms(
        heights=fano.heights,
        covers=fano.covers,
        meet_table=lambda: generators._polar_meets(lat.join_table, comp),
    )
    assert lat.tables_match_order()


@pytest.mark.parametrize("n, q", [(2, 2), (2, 3), (3, 2)])
def test_subspace_meet_is_intersection_and_join_is_least_superspace(n, q):
    lat = subspace_lattice(n, q)
    spans = label_spans(lat, n, q)
    oracle = enumerate_subspaces(n, q)
    assert sorted(map(sorted, spans)) == sorted(map(sorted, oracle))
    for x in range(lat.size):
        for y in range(lat.size):
            assert spans[lat.meet(x, y)] == spans[x] & spans[y]
            above = [s for s in oracle if spans[x] | spans[y] <= s]
            assert spans[lat.join(x, y)] == min(above, key=len)
    _assert_premise_verified(lat)


def test_boolean_covers_are_seeded_in_closed_form():
    for n in range(1, 9):
        lat = boolean_lattice(n)
        _assert_seeded_covers(lat)
        assert int(lat.covers.sum()) == n * 2 ** (n - 1)
        _assert_premise_verified(lat)


# ----- closed-form order and cover pairs, evaluated on first read ------------


def _assert_forms_equal_the_scans(lat, leq, covers):
    assert "leq" not in vars(lat) and "cover_pairs" not in vars(lat), lat.name
    assert not lat.leq.flags.writeable and lat.leq.dtype == bool, lat.name
    assert np.array_equal(lat.leq, leq), lat.name
    scanned = core._pairs(scan_cover_matrix(lat.leq))
    assert all(np.array_equal(a, b) for a, b in zip(lat.cover_pairs, scanned, strict=True)), lat.name
    assert np.array_equal(lat.covers, covers), lat.name


@pytest.mark.parametrize("n", range(1, 13))
def test_boolean_order_and_cover_pairs_equal_the_scans(n):
    _assert_forms_equal_the_scans(boolean_lattice(n), *doubling_boolean_order(n))


@pytest.mark.parametrize("ks", [range(2, 301), [4096]], ids=["2-300", "4096"])
def test_chain_order_and_cover_pairs_equal_the_scans(ks):
    for k in ks:
        _assert_forms_equal_the_scans(chain(k), *graded_chain_order(k))


def _forged_pairs(lat, how):
    xs, ys = lat._forms["cover_pairs"]()
    if how == "dropped":
        return xs[1:], ys[1:]
    if how == "swapped":
        order = np.arange(len(xs))
        order[[0, 1]] = order[[1, 0]]
        return xs[order], ys[order]
    return np.append(xs, xs[-1]), np.append(ys, ys[-1])  # one pair twice


@pytest.mark.parametrize("how", ["dropped", "swapped", "extra"])
@pytest.mark.parametrize("make", [lambda: boolean_lattice(3), lambda: chain(5)], ids=["B_3", "chain_5"])
def test_forged_cover_pairs_fail_the_premise(how, make, monkeypatch):
    lat = make()
    forged = _forged_pairs(lat, how)
    lat._seed_forms(cover_pairs=lambda: forged)
    assert not lat.tables_match_order(), (lat.name, how)

    def theorem(lat):
        raise AssertionError("the theorem ran without its premise")

    monkeypatch.setattr(props, "_join_irreducibles_are_prime", theorem)
    report = is_distributive(lat)
    assert report.holds and report == scan_distributive(lat), (lat.name, how)


@pytest.mark.parametrize("args", [["boolean", "--n", "12"], ["chain", "--n", "4096"]])
def test_gen_at_the_element_cap_builds_no_square_matrix(args, tmp_path):
    out = tmp_path / "doc.json"
    tracemalloc.start()
    try:
        assert main(["gen", *args, "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20  # one 4096 x 4096 bool matrix alone takes 16 MB


# ----- closed-form tables, evaluated on first read ---------------------------


def _closed_form_lattices():
    chains = [*range(2, 17), 31, 32, 33, 64, 127, 128, 255, 256]
    return [boolean_lattice(n) for n in range(1, 9)] + [chain(k) for k in chains]


def test_closed_form_tables_equal_the_cover_recursion(monkeypatch):
    calls = []
    original = core._least_upper_bounds

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(core, "_least_upper_bounds", counted)
    for lat in _closed_form_lattices():
        assert "meet_table" not in vars(lat) and "join_table" not in vars(lat), lat.name
        join = original(lat.leq, lat.covers, lat.heights)
        meet = original(lat.leq.T, lat.covers.T, lat.heights.max() - lat.heights)
        for table, expected in ((lat.meet_table, meet), (lat.join_table, join)):
            assert table.dtype == np.int32 and table.flags.c_contiguous, lat.name
            assert not table.flags.writeable, lat.name
            assert np.array_equal(table, expected), lat.name
        assert lat.meet_table is lat.meet_table, lat.name
        calls.clear()
        assert lat.tables_match_order(), lat.name
        assert len(calls) == 2, lat.name  # both seeded tables re-derived


def test_a_forged_form_fails_the_premise():
    for make in (lambda: boolean_lattice(3), lambda: chain(5)):
        for attr in ("meet_table", "join_table"):
            lat = make()
            true = lat._forms[attr]

            def forged(true=true, top=lat.size - 1):
                table = true().copy()
                table[0, 1] = top - table[0, 1]
                return table

            lat._seed_forms(**{attr: forged})
            assert not lat.tables_match_order(), (lat.name, attr)


def test_writing_b12_reads_neither_table():
    # Nor the order or cover matrix: both writers read only the cover pairs.
    lat = boolean_lattice(12)
    text = lattice_to_json(lat)
    assert text.startswith('{\n  "elements": [\n    "{}",')
    assert text == document_from_lattice(lat).to_json()
    assert not {"meet_table", "join_table", "leq", "covers"} & vars(lat).keys()


@pytest.mark.parametrize("k", [2, 3, 64, 256])
def test_gen_chain_writes_the_validated_chains_document(k, tmp_path):
    out = tmp_path / "chain.json"
    assert main(["gen", "chain", "--n", str(k), "--out", str(out)]) == 0
    built = build_lattice([str(i) for i in range(k)], [(i, i + 1) for i in range(k - 1)],
                          name=f"chain_{k}")
    assert out.read_text(encoding="utf-8") == document_from_lattice(built).to_json()
    lat = chain(k)
    # Not built by build_lattice, which derives the join table at once.
    assert "join_table" not in vars(lat) and lat._tables_match_order is None
    assert np.array_equal(lat.leq, built.leq) and np.array_equal(lat.covers, built.covers)
    assert np.array_equal(lat.heights, built.heights)
