from hypothesis import given, settings
from hypothesis import strategies as st

from latlab import (
    FiniteLattice,
    Law,
    NotAtomic,
    NotGraded,
    boolean_lattice,
    chain,
    check_lattice_axioms,
    diamond_m3,
    is_atomic,
    is_complemented,
    is_distributive,
    is_modular,
    is_perspective_lattice,
    pentagon_n5,
    satisfies_height_law,
    witness_violates,
)
from latlab.witness import LAWS


def test_axioms_hold_on_all_built_lattices(law_corpus):
    for lat in law_corpus:
        report = check_lattice_axioms(lat)
        assert report.holds, lat.name


def test_corrupted_meet_table_is_detected():
    b2 = boolean_lattice(2)
    meet = b2.meet_table.copy()
    meet[1, 2] = 3  # {a} meet {b} forged to {a,b}
    broken = FiniteLattice(
        list(b2.labels), b2.leq.copy(), b2.bottom, b2.top,
        meet, b2.join_table.copy(), name="forged",
    )
    report = check_lattice_axioms(broken)
    assert not report.holds
    assert report.witness is not None
    assert witness_violates(broken, report)


def test_distributive_on_booleans():
    for n in range(1, 6):
        assert is_distributive(boolean_lattice(n)).holds


def test_distributive_fails_on_diamond_with_atom_witness():
    m3 = diamond_m3()
    report = is_distributive(m3)
    assert not report.holds
    assert report.witness == (1, 2, 3)
    assert [m3.labels[w] for w in report.witness] == ["a", "b", "c"]
    x, y, z = report.witness
    assert m3.meet(x, m3.join(y, z)) != m3.join(m3.meet(x, y), m3.meet(x, z))


def test_distributive_fails_on_subspace_lattice(fano):
    assert not is_distributive(fano).holds


def test_modular_on_diamond_and_subspaces(fano):
    assert is_modular(diamond_m3()).holds
    assert is_modular(fano).holds


def test_modular_fails_on_pentagon_with_witness():
    n5 = pentagon_n5()
    report = is_modular(n5)
    assert not report.holds
    assert [n5.labels[w] for w in report.witness] == ["a", "b", "c"]
    x, y, z = report.witness
    assert n5.le(x, z)
    assert n5.join(x, n5.meet(y, z)) != n5.meet(n5.join(x, y), z)


def test_height_law_examples():
    assert satisfies_height_law(chain(2)).holds
    assert satisfies_height_law(boolean_lattice(4)).holds
    report = satisfies_height_law(pentagon_n5())
    assert not report.holds
    n5 = pentagon_n5()
    assert [n5.labels[w] for w in report.witness] == ["a", "b"]


def test_complemented_atomic_examples(fano):
    for n in (1, 2, 3, 4):
        b = boolean_lattice(n)
        assert is_complemented(b).holds
        assert is_atomic(b).holds
    three = chain(3)
    comp = is_complemented(three)
    assert not comp.holds and [three.labels[w] for w in comp.witness] == ["1"]
    atom = is_atomic(three)
    assert not atom.holds and [three.labels[w] for w in atom.witness] == ["2"]
    assert is_complemented(fano).holds
    assert is_atomic(fano).holds


def test_perspectivity_examples(fano):
    b2 = boolean_lattice(2)
    report = is_perspective_lattice(b2)
    assert not report.holds
    assert set(report.witness) == set(b2.atoms())
    assert is_perspective_lattice(fano).holds
    assert is_perspective_lattice(chain(2)).holds  # vacuous: one atom


def test_implication_chain_on_corpus(law_corpus):
    for lat in law_corpus:
        d = is_distributive(lat).holds
        m = is_modular(lat).holds
        h = satisfies_height_law(lat).holds
        if d:
            assert m, lat.name
        if m:
            assert h, lat.name


def test_failing_witnesses_rebreak_their_laws(law_corpus):
    checked = set()
    for lat in law_corpus:
        n = lat.height(lat.top)
        for law, spec in LAWS.items():
            try:
                report = spec.check(lat, n)
            except (NotGraded, NotAtomic):
                continue  # the geometric laws need a graded, atomic lattice
            assert report.law is law, (lat.name, law)
            checked.add(law)
            if not report.holds and report.witness is not None:
                assert witness_violates(lat, report), (lat.name, law)
    assert checked == set(Law)


def test_witness_over_a_missing_bound_stays_unconfirmed():
    n5 = pentagon_n5()
    leq = n5.leq.copy()
    leq[0, 3] = False  # bottom no longer below c, so c meet b does not exist
    forged = FiniteLattice(
        n5.labels, leq, n5.bottom, n5.top, n5.meet_table, n5.join_table
    )
    report = is_distributive(forged)
    assert report.witness == (3, 1, 2)
    assert witness_violates(forged, report) is False


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 31), st.integers(0, 31))
def test_boolean_tables_match_set_operations(x, y):
    b5 = boolean_lattice(5)
    assert b5.meet_table[x, y] == x & y
    assert b5.join_table[x, y] == x | y
    assert b5.height(x) == bin(x).count("1")
    assert satisfies_height_law(b5).holds  # |A meet B| + |A join B| = |A| + |B|


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 15), st.integers(0, 15), st.integers(0, 15))
def test_boolean_distributivity_pointwise(x, y, z):
    b4 = boolean_lattice(4)
    assert b4.meet(x, b4.join(y, z)) == b4.join(b4.meet(x, y), b4.meet(x, z))
