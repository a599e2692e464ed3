import argparse
import gc
import io
import json
import os
import sys
import weakref
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latlab import (
    DocumentError,
    LatticeDocument,
    LatticeError,
    NotAPartialOrder,
    NotGraded,
    boolean_lattice,
    build_lattice,
    document_from_lattice,
    document_to_lattice,
    lattice_to_dot,
    lattice_to_json,
    parse_document,
    pentagon_n5,
)
from latlab import Law, witness
from latlab import cli, construction, generators
from latlab.cli import _requested_laws, build_parser, main
from latlab.witness import LAWS

from oracles import json_dumps_document, pairwise_document_json, pairwise_lattice_to_dot


# ----- documents ------------------------------------------------------------


def test_document_roundtrip_preserves_the_lattice(fano):
    doc = document_from_lattice(fano)
    parsed = parse_document(doc.to_json())
    assert parsed == doc
    rebuilt = document_to_lattice(parsed)
    assert rebuilt.labels == fano.labels
    assert np.array_equal(rebuilt.leq, fano.leq)
    assert np.array_equal(rebuilt.meet_table, fano.meet_table)


# Labels that json must escape: quotes, backslashes, control characters,
# non-ASCII and astral characters (written as surrogate pairs).
_labels = st.text(
    st.one_of(st.sampled_from('"\\\x00\x1f\x7f\n\té€\U0001f600\U0010ffff'), st.characters()),
    max_size=6,
)


@st.composite
def documents(draw):
    elements = draw(st.lists(_labels, max_size=8))
    label = st.sampled_from(elements) if elements else _labels
    order = draw(st.lists(st.tuples(st.one_of(label, _labels), label), max_size=8))
    return LatticeDocument(draw(_labels), tuple(elements), tuple(order))


@given(documents())
@example(LatticeDocument("lattice1", ("x",), ()))  # one element, no covers
def test_to_json_matches_the_json_encoder_byte_for_byte(doc):
    text = doc.to_json()
    assert text == json_dumps_document(doc)
    assert parse_document(text) == doc


def test_parse_reports_line_and_column():
    with pytest.raises(DocumentError) as exc:
        parse_document('{"elements": [,]}')
    assert exc.value.line == 1
    assert exc.value.column == 15
    assert "line 1, column 15" in str(exc.value)


def test_parse_schema_validation():
    with pytest.raises(DocumentError, match="JSON object"):
        parse_document("[]")
    with pytest.raises(DocumentError, match="missing keys: order"):
        parse_document('{"elements": []}')
    with pytest.raises(DocumentError, match="missing keys: elements, order"):
        parse_document("{}")
    with pytest.raises(DocumentError, match="list of strings"):
        parse_document('{"elements": [1], "order": []}')
    with pytest.raises(DocumentError, match="not a label pair"):
        parse_document('{"elements": ["a"], "order": [["a"]]}')
    with pytest.raises(DocumentError, match="'name' must be a string"):
        parse_document('{"name": 3, "elements": ["a"], "order": []}')


def test_document_to_lattice_validation():
    with pytest.raises(DocumentError, match="unknown element 'b'"):
        document_to_lattice(LatticeDocument("x", ("a",), (("a", "b"),)))
    with pytest.raises(ValueError, match="unique"):
        document_to_lattice(LatticeDocument("x", ("a", "a"), ()))
    cyclic = LatticeDocument("x", ("a", "b"), (("a", "b"), ("b", "a")))
    with pytest.raises(NotAPartialOrder):
        document_to_lattice(cyclic)


def test_document_stores_any_generating_relation():
    # full order, not just covers: the closure collapses to the same lattice
    doc = LatticeDocument(
        "c3", ("0", "1", "2"), (("0", "1"), ("1", "2"), ("0", "2"))
    )
    lat = document_to_lattice(doc)
    assert document_from_lattice(lat).order == (("0", "1"), ("1", "2"))


def test_dot_export_shape(fano):
    dot = lattice_to_dot(boolean_lattice(3))
    assert dot.startswith("digraph lattice {\n  rankdir=BT;")
    assert dot.count(" -> ") == 12
    assert dot.count("rank=same") == 4
    assert lattice_to_dot(fano).count(" -> ") == 35


def test_dot_escapes_quotes():
    lat = build_lattice(["lo", 'hi"x'], [(0, 1)])
    assert '"hi\\"x"' in lattice_to_dot(lat)


def test_dot_keeps_non_ascii_labels_raw():
    # DOT escapes only backslash and quote; json would write \u00e9.
    lat = build_lattice(["lo", "\u00e9\\"], [(0, 1)])
    assert lattice_to_dot(lat).endswith('  "lo" -> "\u00e9\\\\";\n}\n')


@st.composite
def labelled_lattices(draw):
    """The down-set lattice of a random poset on up to five elements, its
    elements shuffled and labelled with drawn, distinct labels.  With no
    poset element it has one element and no cover pair."""
    m = draw(st.integers(0, 5))
    below = [draw(st.integers(0, (1 << e) - 1)) for e in range(m)]  # e' < e only
    sets = [s for s in range(1 << m) if all(not s >> e & 1 or below[e] & ~s == 0 for e in range(m))]
    perm = draw(st.permutations(range(len(sets))))
    labels = draw(st.lists(_labels, min_size=len(sets), max_size=len(sets), unique=True))
    pairs = [(perm[i], perm[j]) for i, a in enumerate(sets) for j, b in enumerate(sets)
             if a & ~b == 0 and bin(b).count("1") == bin(a).count("1") + 1]
    return build_lattice(labels, pairs, name=draw(_labels))


@settings(max_examples=150)
@given(labelled_lattices(), _labels)
def test_writers_match_the_pairwise_writers_byte_for_byte(lat, name):
    expected = pairwise_document_json(lat)
    assert lattice_to_json(lat) == expected
    assert document_from_lattice(lat).to_json() == expected
    assert lattice_to_json(lat, name=name) == pairwise_document_json(lat, name)
    assert lattice_to_dot(lat) == pairwise_lattice_to_dot(lat)


def test_writers_match_on_one_element_and_at_the_element_cap():
    one = build_lattice(["\x00\"\\\u00e9"], [])
    for lat in (one, boolean_lattice(12)):
        assert lattice_to_json(lat) == pairwise_document_json(lat)
        assert lattice_to_dot(lat) == pairwise_lattice_to_dot(lat)


_GOOD_PAIRS = [[f"e{i}", f"e{i + 1}"] for i in range(1000)]


@pytest.mark.parametrize("bad", [{"child": "e0"}, ["e0", "e1", "e2"], ["e0", 7]],
                         ids=["dict", "three_list", "non_string_label"])
def test_parse_names_the_first_bad_order_entry_after_good_ones(bad):
    text = json.dumps({"elements": [], "order": [*_GOOD_PAIRS, bad, ["e0"], {"x": 1}]})
    with pytest.raises(DocumentError) as exc:
        parse_document(text)
    assert str(exc.value) == f"order entry {bad!r} is not a label pair"


def test_document_to_lattice_names_an_unknown_child_before_its_parent():
    elements = tuple(f"e{i}" for i in range(1001))
    order = tuple(map(tuple, _GOOD_PAIRS))
    for pair, named in [(("x", "y"), "x"), (("e0", "y"), "y"), (("x", "e0"), "x")]:
        doc = LatticeDocument("d", elements, (*order, pair, ("z", "w")))
        with pytest.raises(DocumentError, match=f"^order references unknown element '{named}'$"):
            document_to_lattice(doc)


@pytest.mark.parametrize("pairs, message", [
    ([(0, 1), (1, 3), (-1, 0)], "order pair (1, 3) out of range"),
    ([(0, 1), (-1, 9), (1, 3)], "order pair (-1, 9) out of range"),
    (np.array([[0, 1], [2, 0], [0, 3]]), "order pair (0, 3) out of range"),
])
def test_build_lattice_names_the_first_pair_out_of_range(pairs, message):
    with pytest.raises(ValueError) as exc:
        build_lattice(["a", "b", "c"], pairs)
    assert str(exc.value) == message


@pytest.mark.parametrize("pairs", [[(0, 1), (0.5, 1)], [(10**30, 0)]], ids=["float", "huge"])
def test_build_lattice_rejects_pairs_that_are_not_integer_indexes(pairs):
    # Neither is truncated into some other, valid pair.
    with pytest.raises(ValueError, match="^order pairs must be integer indexes"):
        build_lattice(["a", "b"], pairs)


# ----- command-line interface ------------------------------------------------


def _gen(tmp_path, *argv):
    out = tmp_path / "doc.json"
    assert main([*argv, "--out", str(out)]) == 0
    return str(out)


def test_gen_emits_canonical_documents(tmp_path, capsys):
    path = _gen(tmp_path, "gen", "boolean", "--n", "3")
    doc = parse_document(Path(path).read_text(encoding="utf-8"))
    assert len(doc.elements) == 8 and len(doc.order) == 12
    assert main(["gen", "m3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["elements"] == ["0", "a", "b", "c", "1"]


def test_gen_usage_and_bounds(tmp_path):
    assert main(["gen", "boolean"]) == 2  # missing --n
    assert main(["gen", "subspace", "--n", "3"]) == 2  # missing --q
    assert main(["gen", "subspace", "--n", "9", "--q", "7"]) == 2  # size bound
    assert main(["gen", "subspace", "--n", "2", "--q", "4"]) == 2  # not prime
    assert main(["gen", "chain", "--n", "1"]) == 2
    assert main(["gen", "pyramid"]) == 2  # unknown kind


@pytest.mark.parametrize("argv, missing", [
    ("gen boolean", "--n"),
    ("gen chain --q 2", "--n"),
    ("gen subspace", "--n and --q"),
    ("gen subspace --n 3", "--q"),
    ("gen subspace --q 2", "--n"),
    ("verify boolean --q 2", "--n"),
    ("verify s5", "--n"),
    ("verify projective", "--n and --q"),
    ("verify projective --n 3", "--q"),
    ("verify s7 --q 2", "--n"),
    ("verify s7", "--n and --q"),
])
def test_missing_flags_exit_2_naming_only_those_flags(argv, missing, monkeypatch, capsys):
    def no_work(*args):
        raise AssertionError("a generator or pipeline ran")

    # The CLI looks each one up in its home module when it runs.
    for module, names in ((generators, ("boolean_lattice", "subspace_lattice", "chain")),
                          (construction, ("verify_boolean_pipeline",
                                          "verify_projective_pipeline"))):
        for name in names:
            monkeypatch.setattr(module, name, no_work)
    command, kind = argv.split()[:2]
    kind = {"s5": "boolean", "s7": "projective"}.get(kind, kind)
    assert main(argv.split()) == 2
    assert capsys.readouterr().err == f"latlab: {command} {kind} requires {missing}\n"


def test_parser_choices_are_the_command_tables():
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]

    def choices(command, dest):
        (action,) = [a for a in commands.choices[command]._actions if a.dest == dest]
        return list(action.choices)

    assert choices("gen", "kind") == list(cli._GEN_KINDS)
    assert choices("verify", "pipeline") == [*cli._PIPELINES, *cli._PIPELINE_ALIASES]
    assert set(cli._PIPELINE_ALIASES.values()) <= set(cli._PIPELINES)


def test_check_passes_and_fails_by_exit_code(tmp_path, capsys):
    fano_path = _gen(tmp_path, "gen", "subspace", "--n", "3", "--q", "2")
    code = main(["check", fano_path, "--laws", "modular,atomic,perspective"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["report"]["all_hold"] is True
    assert set(payload["report"]["laws"]) == {"modular", "atomic", "perspective"}

    b4_path = _gen(tmp_path, "gen", "boolean", "--n", "4")
    assert main(["check", b4_path]) == 1  # --laws defaults to all
    payload = json.loads(capsys.readouterr().out)
    laws = payload["report"]["laws"]
    failing = sorted(k for k, v in laws.items() if not v["holds"])
    assert failing == ["perspective", "thirdpoint"]
    assert payload["report"]["size"] == 16


def test_check_fano_fails_exactly_distributivity(tmp_path, capsys):
    fano_path = _gen(tmp_path, "gen", "subspace", "--n", "3", "--q", "2")
    assert main(["check", fano_path, "--laws", "all"]) == 1
    payload = json.loads(capsys.readouterr().out)
    laws = payload["report"]["laws"]
    assert [k for k, v in laws.items() if not v["holds"]] == ["distributive"]


def test_check_reports_aborted_laws_on_ungraded_input(tmp_path, capsys):
    n5_path = _gen(tmp_path, "gen", "n5")
    assert main(["check", n5_path, "--laws", "p1,modular"]) == 1
    payload = json.loads(capsys.readouterr().out)
    laws = payload["report"]["laws"]
    assert laws["p1"]["holds"] is False
    assert laws["p1"]["detail"].startswith("check aborted:")
    assert laws["modular"]["holds"] is False


def test_check_sized_laws(tmp_path, capsys):
    fano_path = _gen(tmp_path, "gen", "subspace", "--n", "3", "--q", "2")
    assert main(["check", fano_path, "--laws", "spanning"]) == 2  # needs --n
    capsys.readouterr()
    assert main(["check", fano_path, "--laws", "spanning,topheight", "--n", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["report"]["all_hold"] is True


def test_spanning_at_n_0_and_below(tmp_path, capsys):
    # No point is needed to span the one-element lattice, and there is no
    # smaller set to rule out; a negative n is a usage error.
    one = tmp_path / "one.json"
    one.write_text(json.dumps({"elements": ["0"], "order": []}))
    assert main(["check", str(one), "--laws", "spanning", "--n", "0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["report"]["laws"]["spanning"]["holds"] is True
    fano_path = _gen(tmp_path, "gen", "subspace", "--n", "3", "--q", "2")
    capsys.readouterr()
    for path in (str(one), fano_path):
        assert main(["check", path, "--laws", "spanning", "--n", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "spanning" in captured.err and "n=-1" in captured.err



@pytest.mark.parametrize("law", ["spanning", "topheight"])
def test_negative_n_exits_2_naming_the_flag_before_reading_the_document(law, tmp_path, capsys):
    m3_path = _gen(tmp_path, "gen", "m3")
    capsys.readouterr()
    for path in (m3_path, str(tmp_path / "missing.json")):
        assert main(["check", path, "--laws", law, "--n", "-5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"latlab: law {law!r} requires --n >= 0, got --n=-5\n"
    assert main(["check", str(tmp_path / "missing.json"), "--laws", "bogus"]) == 2
    assert "unknown law 'bogus'" in capsys.readouterr().err

def test_check_reads_stdin(tmp_path, capsys, monkeypatch):
    doc = document_from_lattice(boolean_lattice(2))
    monkeypatch.setattr("sys.stdin", io.StringIO(doc.to_json()))
    assert main(["check", "-", "--laws", "distributive"]) == 0


def test_check_rejects_malformed_and_missing_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"elements": [,]}')
    assert main(["check", str(bad)]) == 2
    assert "line 1, column 15" in capsys.readouterr().err
    assert main(["check", str(tmp_path / "absent.json")]) == 2
    cycle = tmp_path / "cycle.json"
    cycle.write_text(
        '{"elements": ["a", "b"], "order": [["a", "b"], ["b", "a"]]}'
    )
    assert main(["check", str(cycle)]) == 2
    assert "NotAPartialOrder" in capsys.readouterr().err


@st.composite
def hostile_documents(draw):
    """Document text that must exit 2, plus the element cap it is read
    under: JSON cut short, JSON nested deeper than the recursion limit, a
    repeated label, an order pair naming an unknown label, a value that is
    not a string where one is required, or a valid chain with more
    elements than a lowered cap."""
    labels = draw(st.lists(st.text("abcxyz", min_size=1, max_size=3), min_size=2,
                           max_size=6, unique=True))
    doc = {"name": "hostile", "elements": labels,
           "order": [[a, b] for a, b in zip(labels, labels[1:])]}
    kind = draw(st.sampled_from(["cut", "deep", "repeated", "unknown", "not a string", "over cap"]))
    if kind == "cut":
        text = json.dumps(doc)
        return text[: draw(st.integers(0, len(text) - 1))], None
    if kind == "deep":
        # Deeper than the recursion limit in force, which Hypothesis raises.
        depth = sys.getrecursionlimit() + draw(st.integers(1, 2000))
        key = draw(st.sampled_from(["name", "elements", "order", "extra"]))
        doc[key] = 0
        return json.dumps(doc).replace("0", "[" * depth + "]" * depth), None
    if kind == "repeated":
        doc["elements"].insert(draw(st.integers(0, len(labels))), draw(st.sampled_from(labels)))
    elif kind == "unknown":
        stray = draw(st.text("abcxyz", min_size=1, max_size=4).filter(lambda t: t not in labels))
        pair = [stray, labels[0]] if draw(st.booleans()) else [labels[0], stray]
        doc["order"].insert(draw(st.integers(0, len(doc["order"]))), pair)
    elif kind == "not a string":
        bad = draw(st.one_of(
            st.integers(), st.none(), st.booleans(), st.floats(allow_nan=False),
            st.lists(st.integers(), min_size=1, max_size=2),
            st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
        ))
        where = draw(st.sampled_from(
            ["name", "element", "order item", "order entry", "elements", "order"]))
        if where == "element":
            doc["elements"][draw(st.integers(0, len(labels) - 1))] = bad
        elif where == "order item":
            doc["order"][0][draw(st.integers(0, 1))] = bad
        elif where == "order entry":
            doc["order"][0] = bad
        else:
            doc[where] = bad
    else:
        return json.dumps(doc), draw(st.integers(1, len(labels) - 1))
    return json.dumps(doc), None


def _exit_codes(text, path):
    """Exit codes of ``check`` and ``export`` on the text as a file, and of
    ``check`` on it as stdin; an exit 2 must say why on one stderr line."""
    path.write_text(text, encoding="utf-8")
    codes = []
    for argv, stdin in ((["check", str(path)], ""), (["export", str(path), "--format", "json"], ""),
                        (["check", "-"], text)):
        err = io.StringIO()
        with mock.patch("sys.stdin", io.StringIO(stdin)), redirect_stdout(io.StringIO()), \
                redirect_stderr(err):
            codes.append(main(argv))
        if codes[-1] == 2:
            assert err.getvalue().startswith("latlab: ") and err.getvalue().count("\n") == 1, err.getvalue()
    return codes


def test_document_nested_1000_deep_exits_2(tmp_path):
    text = '{"elements": ' + "[" * 1000 + "]" * 1000 + ', "order": []}'
    assert _exit_codes(text, tmp_path / "deep.json") == [2, 2, 2]


@settings(max_examples=80, deadline=None)
@given(hostile_documents())
def test_hostile_documents_exit_2(tmp_path_factory, hostile):
    text, cap = hostile
    path = tmp_path_factory.mktemp("hostile") / "doc.json"
    env = {} if cap is None else {"LATTICE_MAX_ELEMENTS": str(cap)}
    with mock.patch.dict(os.environ, env):
        assert _exit_codes(text, path) == [2, 2, 2], text[:200]
    if cap is not None:  # the same chain under the built-in cap is fine
        assert 2 not in _exit_codes(text, path)


def test_check_unknown_law_token(tmp_path, capsys):
    path = _gen(tmp_path, "gen", "m3")
    assert main(["check", path, "--laws", "bogus"]) == 2
    assert "unknown law 'bogus'" in capsys.readouterr().err


def test_law_registry_drives_the_law_tokens():
    assert list(LAWS) == list(Law)
    plain = ("axioms", "distributive", "modular", "heightlaw", "complemented",
             "atomic", "perspective", "p1", "p2", "thirdpoint")
    assert tuple(law.value for law in _requested_laws("all", None)) == plain
    assert {law.value for law, spec in LAWS.items() if spec.needs_n} == {
        "spanning", "topheight"}


def test_verify_exit_codes(capsys):
    assert main(["verify", "boolean", "--n", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["report"]["passed"] is True
    assert payload["report"]["pipeline"] == "boolean"
    assert main(["verify", "s5", "--n", "2"]) == 0
    assert main(["verify", "s7", "--n", "3", "--q", "2"]) == 0
    capsys.readouterr()
    assert main(["verify", "projective", "--n", "3"]) == 2  # missing --q
    assert main(["verify", "projective", "--n", "3", "--q", "4"]) == 2
    assert main(["verify", "boolean", "--n", "9"]) == 2  # size bound
    assert main(["verify", "boolean"]) == 2  # missing --n
    assert main(["verify", "quantum", "--n", "3"]) == 2  # not a pipeline


def test_verify_projective_rank_4_fits_the_ambient_cap(capsys):
    assert main(["verify", "projective", "--n", "4", "--q", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["report"]["passed"] is True
    assert payload["report"]["params"] == {"n": 4, "q": 2}


def test_export_dot_and_json(tmp_path, capsys):
    path = _gen(tmp_path, "gen", "boolean", "--n", "3")
    assert main(["export", path, "--format", "hasse-dot"]) == 0
    dot = capsys.readouterr().out
    assert dot.count(" -> ") == 12
    assert main(["export", path, "--format", "json"]) == 0
    assert capsys.readouterr().out == Path(path).read_text(encoding="utf-8")


def test_argparse_level_errors(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["export", "x.json", "--format", "pdf"]) == 2


def test_one_parser_serves_every_call_and_keeps_no_state(tmp_path, capsys):
    assert build_parser() is build_parser()
    fano_path = _gen(tmp_path, "gen", "subspace", "--n", "3", "--q", "2")
    assert main(["check", fano_path, "--laws", "spanning", "--n", "3"]) == 0
    capsys.readouterr()
    assert main(["check", fano_path, "--laws", "spanning"]) == 2
    assert "requires --n" in capsys.readouterr().err
    for _ in range(2):
        assert main(["--help"]) == 0
        assert main(["frobnicate"]) == 2


def test_report_bodies_are_deterministic(tmp_path, capsys):
    path = _gen(tmp_path, "gen", "subspace", "--n", "2", "--q", "3")
    assert main(["check", path, "--laws", "all"]) == 1
    first = json.loads(capsys.readouterr().out)
    assert main(["check", path, "--laws", "all"]) == 1
    second = json.loads(capsys.readouterr().out)
    assert first["report"] == second["report"]
    assert isinstance(first["timing_ms"], (int, float))


def test_element_cap_env_is_honored_by_gen(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("LATTICE_MAX_ELEMENTS", "4")
    assert main(["gen", "boolean", "--n", "3"]) == 2
    assert "exceeds the cap" in capsys.readouterr().err


def test_malformed_element_cap_env_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("LATTICE_MAX_ELEMENTS", "abc")
    assert main(["gen", "boolean", "--n", "2"]) == 2
    assert "LATTICE_MAX_ELEMENTS must be a positive integer" in capsys.readouterr().err


def test_out_dash_writes_stdout(capsys):
    assert main(["gen", "chain", "--n", "3", "--out", "-"]) == 0
    doc = parse_document(capsys.readouterr().out)
    assert doc.elements == ("0", "1", "2")


# ----- incidence laws on an ungraded lattice -----------------------------------


def test_every_incidence_law_reports_the_one_not_graded_detail(tmp_path, capsys):
    n5 = pentagon_n5()
    with pytest.raises(NotGraded) as first:
        witness.geometry_view(n5)
    expected = (str(first.value), first.value.witness)
    for law in (Law.P1, Law.P2, Law.THIRD_POINT, Law.P1):
        with pytest.raises(NotGraded) as exc:
            LAWS[law].check(n5, None)
        assert (str(exc.value), exc.value.witness) == expected, law

    n5_path = _gen(tmp_path, "gen", "n5")
    for laws in ("all", "p1,p2,thirdpoint"):
        assert main(["check", n5_path, "--laws", laws]) == 1
        report = json.loads(capsys.readouterr().out)["report"]["laws"]
        details = {report[law]["detail"] for law in ("p1", "p2", "thirdpoint")}
        assert details == {f"check aborted: {expected[0]}"}, laws


def test_a_classified_failure_keeps_the_lattice_in_no_cycle():
    gc.disable()
    try:
        lat = pentagon_n5()
        alive = weakref.ref(lat)
        for spec in LAWS.values():
            if not spec.needs_n:
                try:
                    spec.check(lat, None)
                except LatticeError:
                    pass
        del lat
        assert alive() is None
    finally:
        gc.enable()


# ----- reports --------------------------------------------------------------


@pytest.mark.parametrize("argv", [["check", "FANO", "--laws", "all"],
                                  ["check", "FANO", "--laws", "spanning", "--n", "3"],
                                  ["verify", "projective", "--n", "3", "--q", "2"],
                                  ["verify", "boolean", "--n", "3"]])
def test_emitted_reports_are_json_dumps_output(argv, tmp_path, capsys):
    fano_path = _gen(tmp_path, "gen", "subspace", "--n", "3", "--q", "2")
    assert main([fano_path if a == "FANO" else a for a in argv]) in (0, 1)
    text = capsys.readouterr().out
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
