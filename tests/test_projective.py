import itertools

import numpy as np
import pytest

from latlab import (
    FiniteLattice,
    NotAtomic,
    NotAtoms,
    NotGraded,
    boolean_lattice,
    chain,
    check_p1,
    check_p2,
    check_p3_third_point,
    check_spanning,
    diamond_m3,
    geometry_view,
    is_independent,
    pentagon_n5,
    subspace_lattice,
    verify_bvn_characterization,
)
from latlab.core import _order


def test_geometry_view_heights(fano):
    view = geometry_view(fano)
    assert len(view.points) == 7
    assert len(view.lines) == 7
    assert view.planes == (fano.top,)
    assert set(view.points) == set(fano.atoms())


def test_geometry_view_boolean():
    b3 = boolean_lattice(3)
    view = geometry_view(b3)
    assert (len(view.points), len(view.lines), len(view.planes)) == (3, 3, 1)
    b2 = boolean_lattice(2)
    view2 = geometry_view(b2)
    assert (len(view2.points), len(view2.lines), len(view2.planes)) == (2, 1, 0)


def test_geometry_view_rejects_ungraded():
    n5 = pentagon_n5()
    with pytest.raises(NotGraded) as exc:
        geometry_view(n5)
    lo, hi = exc.value.witness
    assert n5.labels[lo] == "b" and n5.labels[hi] == "1"


def test_p1_on_projective_and_boolean(fano):
    assert check_p1(geometry_view(fano)).holds
    for n in (2, 3, 4):
        assert check_p1(geometry_view(boolean_lattice(n))).holds
    assert check_p1(geometry_view(diamond_m3())).holds


def test_p1_failure_witness(broken_plane):
    report = check_p1(geometry_view(broken_plane))
    assert not report.holds
    p, q = report.witness
    assert {broken_plane.labels[p], broken_plane.labels[q]} == {"p", "r"}
    assert "0 common lines" in report.detail


def test_p2_on_examples(fano, broken_plane):
    assert check_p2(geometry_view(fano)).holds
    assert check_p2(geometry_view(boolean_lattice(4))).holds
    report = check_p2(geometry_view(broken_plane))
    assert not report.holds
    l1, l2 = report.witness
    assert {broken_plane.labels[l1], broken_plane.labels[l2]} == {"L1", "L2"}


def test_third_point_counts(fano):
    assert check_p3_third_point(geometry_view(fano)).holds
    # four points per line over GF(3)
    assert check_p3_third_point(geometry_view(subspace_lattice(3, 3))).holds
    report = check_p3_third_point(geometry_view(boolean_lattice(3)))
    assert not report.holds
    (line,) = report.witness
    assert boolean_lattice(3).labels[line] == "{a,b}"
    assert report.detail == "2 points"


def test_independence_on_the_fano_plane(fano):
    p, q = fano.atoms()[0], fano.atoms()[1]
    line = fano.join(p, q)
    on_line = [a for a in fano.atoms() if fano.le(a, line)]
    off_line = [a for a in fano.atoms() if not fano.le(a, line)]
    assert len(on_line) == 3
    assert is_independent(fano, [p, q])
    assert not is_independent(fano, on_line)
    assert is_independent(fano, [p, q, off_line[0]])
    # any four atoms are dependent in a height-3 lattice
    for quad in itertools.combinations(fano.atoms(), 4):
        assert not is_independent(fano, quad)


def test_independence_input_validation(fano):
    p = fano.atoms()[0]
    with pytest.raises(NotAtoms):
        is_independent(fano, [p, p])
    with pytest.raises(NotAtoms):
        is_independent(fano, [fano.top])


def test_independent_joins_have_matching_height(fano):
    for k in (1, 2, 3):
        for combo in itertools.combinations(fano.atoms(), k):
            if is_independent(fano, combo):
                assert fano.height(fano.join_all(combo)) == k


def test_spanning_reports(fano):
    assert check_spanning(fano, 3).holds
    assert check_spanning(boolean_lattice(3), 3).holds
    low = check_spanning(fano, 2)
    assert not low.holds and "no 2-point set spans" in low.detail
    high = check_spanning(fano, 4)
    assert not high.holds and "3 points already span" in high.detail
    with pytest.raises(NotAtomic):
        check_spanning(chain(3), 2)


def test_characterization_passes_on_projective_examples(fano):
    report = verify_bvn_characterization(fano, 3)
    assert report.passed and report.failing() == ()
    assert set(report.clauses) == {
        "modular",
        "atomic",
        "perspective",
        "top_height",
        "p1",
        "p2",
        "third_point",
        "spanning",
    }
    assert verify_bvn_characterization(subspace_lattice(2, 3), 2).passed
    assert verify_bvn_characterization(diamond_m3(), 2).passed


def test_characterization_pinpoints_boolean_failures():
    report = verify_bvn_characterization(boolean_lattice(3), 3)
    assert not report.passed
    assert set(report.failing()) == {"perspective", "third_point"}


def test_characterization_on_ungraded_and_unatomic_lattices():
    n5 = verify_bvn_characterization(pentagon_n5(), 3)
    assert "modular" in n5.failing()
    for clause in ("p1", "p2", "third_point"):
        assert n5.clauses[clause].detail == "not graded: cover 'b' -> '1' jumps height 1 -> 3"
    c3 = verify_bvn_characterization(chain(3), 2)
    assert "atomic" in c3.failing()
    assert c3.clauses["spanning"].detail == "not atomic: lattice is not atomic"


def test_characterization_reports_a_non_lattice_order_clause_by_clause():
    # 0 < a, b < c, d < 1: a and b have two minimal upper bounds, so every
    # clause that reads a bound table fails with the error deriving it raised.
    labels = ["0", "a", "b", "c", "d", "1"]
    rel = np.zeros((6, 6), dtype=bool)
    for x, y in [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5)]:
        rel[x, y] = True
    bowtie = FiniteLattice(labels, _order(rel, labels)[0], 0, 5)
    report = verify_bvn_characterization(bowtie, 3)
    aborted = (False, "check aborted: elements 'a' and 'b' have no least upper bound")
    assert {name: (r.holds, r.detail) for name, r in report.clauses.items()} == {
        "modular": aborted,
        "atomic": aborted,
        "perspective": aborted,
        "top_height": (True, "height(top)=3, expected 3"),
        "p1": (False, "2 common lines"),
        "p2": aborted,
        "third_point": (False, "2 points"),
        "spanning": aborted,
    }


def test_characterization_classifies_the_lattice_in_each_incidence_clause(fano, monkeypatch):
    from latlab import witness

    calls = []

    def counted(lat):
        calls.append(lat)
        return geometry_view(lat)

    monkeypatch.setattr(witness, "geometry_view", counted)
    report = verify_bvn_characterization(fano, 3)
    assert report.passed and calls == [fano] * 3
    # Called alone, a registry check classifies the lattice itself too.
    assert witness.LAWS[witness.Law.P1].check(fano, None).holds
    assert calls == [fano] * 4


def test_characterization_rejects_a_negative_rank_before_any_clause(fano, monkeypatch):
    from latlab import witness

    def no_clause(lat, n):
        raise AssertionError("a clause ran")

    for law in list(witness.LAWS):
        monkeypatch.setitem(witness.LAWS, law, witness.LawSpec(no_clause, None))
    for lat in (fano, pentagon_n5()):
        with pytest.raises(ValueError, match=r"^the characterization needs n >= 0, got n=-1$"):
            verify_bvn_characterization(lat, -1)


def test_characterization_wrong_height(fano):
    report = verify_bvn_characterization(fano, 2)
    assert set(report.failing()) == {"top_height", "spanning"}
    assert report.clauses["top_height"].detail == "height(top)=3, expected 2"


def test_characterization_to_dict_is_json_shaped(fano):
    d = verify_bvn_characterization(fano, 3).to_dict(fano)
    assert d["passed"] is True
    assert all(c["holds"] for c in d["clauses"].values())
