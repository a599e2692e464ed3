"""End-to-end acceptance checks.

One test per criterion.  Each computes its verdict, records a printable
pass/fail line for the run summary, and then asserts with the collected
evidence, so a red test and the printed matrix always agree.
"""

import itertools
import json

from latlab import (
    Law,
    apply_closure,
    atom_pair_structure,
    boolean_closure,
    boolean_lattice,
    build_tree,
    chain,
    coplanar_lines_structure,
    derive_independent_atoms,
    diamond_m3,
    find_realization,
    geometry_view,
    initial_structure,
    is_modular,
    line_probe_structure,
    pentagon_n5,
    satisfies,
    satisfies_height_law,
    saturate_splits,
    split_element,
    subspace_lattice,
    triple_split_structure,
    verify_boolean_pipeline,
    verify_bvn_characterization,
    verify_projective_pipeline,
    witness_violates,
)
from latlab.cli import main
from latlab.witness import LAWS

from conftest import record_criterion
from oracles import (
    count_subsets,
    enumerate_subspaces,
    naive_realization_exists,
    subspace_dim,
)


# ----- criterion 1: exact law separation matrix ------------------------------


def _registry_report(lat, token):
    """The registry's report for a matrix column; ``spanning3`` is the
    spanning law with n = 3."""
    if token == "spanning3":
        return LAWS[Law.SPANNING].check(lat, 3)
    return LAWS[Law(token)].check(lat, None)


def _separation_matrix():
    """Expected pass/fail verdict for every (lattice, law) pair checked."""
    rows = []
    boolean_profile = {
        "distributive": True,
        "modular": True,
        "heightlaw": True,
        "complemented": True,
        "atomic": True,
        "perspective": False,
        "thirdpoint": False,
    }
    for n in range(2, 6):
        rows.append((boolean_lattice(n), boolean_profile))
    rows.append((diamond_m3(), {"modular": True, "distributive": False}))
    rows.append((pentagon_n5(), {"modular": False, "heightlaw": False}))
    rows.append(
        (
            subspace_lattice(3, 2),
            {
                "modular": True,
                "atomic": True,
                "complemented": True,
                "perspective": True,
                "p1": True,
                "p2": True,
                "thirdpoint": True,
                "spanning3": True,
                "distributive": False,
            },
        )
    )
    return rows


def test_criterion_1_law_separation_matrix():
    mismatches = []
    checked = 0
    for lat, expected in _separation_matrix():
        for token, want in expected.items():
            checked += 1
            report = _registry_report(lat, token)
            if report.holds is not want:
                mismatches.append((lat.name, token, report.holds, want))
    ok = not mismatches and checked == 41
    record_criterion(
        1,
        ok,
        f"law separation matrix exact on all {checked} lattice/law pairs",
    )
    assert ok, mismatches


# ----- criterion 2: height law tracks modularity ------------------------------


def test_criterion_2_height_law_tracks_modularity(law_corpus):
    disagrees = [
        lat.name
        for lat in law_corpus
        if is_modular(lat).holds is not satisfies_height_law(lat).holds
    ]
    ok = not disagrees and len(law_corpus) >= 25
    record_criterion(
        2,
        ok,
        f"height law and modularity agree on all {len(law_corpus)} corpus lattices",
    )
    assert ok, disagrees


# ----- criterion 3: counting against brute enumeration ------------------------


def test_criterion_3_counting_oracles(fano):
    problems = []
    for n in range(1, 9):
        if boolean_lattice(n).size != count_subsets(n):
            problems.append(f"powerset size mismatch at n={n}")

    oracle = enumerate_subspaces(3, 2)
    if fano.size != len(oracle) or fano.size != 16:
        problems.append(f"rank-3 GF(2) size {fano.size} vs oracle {len(oracle)}")
    want_profile = [
        sum(1 for s in oracle if subspace_dim(s, 2) == d) for d in range(4)
    ]
    got_profile = [int((fano.heights == h).sum()) for h in range(4)]
    if got_profile != want_profile or want_profile != [1, 7, 7, 1]:
        problems.append(f"dimension profile {got_profile} vs {want_profile}")

    # exactly three atoms under every line, on both sides of the fence
    dims1 = [s for s in oracle if subspace_dim(s, 2) == 1]
    dims2 = [s for s in oracle if subspace_dim(s, 2) == 2]
    if any(sum(1 for p in dims1 if p <= l) != 3 for l in dims2):
        problems.append("oracle line without exactly 3 points")
    view = geometry_view(fano)
    for line in view.lines:
        under = [p for p in view.points if fano.le(p, line)]
        if len(under) != 3:
            problems.append(f"line {fano.labels[line]} has {len(under)} atoms")

    small = subspace_lattice(2, 3)
    oracle23 = enumerate_subspaces(2, 3)
    if small.size != len(oracle23) or small.size != 6:
        problems.append(f"rank-2 GF(3) size {small.size} vs oracle {len(oracle23)}")

    ok = not problems
    record_criterion(
        3, ok, "element counts and line incidences match brute enumeration"
    )
    assert ok, problems


# ----- criterion 4: boolean construction pipeline -----------------------------


def test_criterion_4_boolean_pipeline_small_ranks():
    problems = []
    for n in (1, 2, 3):
        report = verify_boolean_pipeline(n)
        if not report.passed:
            problems.append((n, report.to_dict()))
            continue
        # re-derive the stages directly instead of trusting the report
        lat = boolean_lattice(n)
        tree = saturate_splits(initial_structure(n))
        f = find_realization(tree, lat)
        if f is None:
            problems.append((n, "tree not realized"))
            continue
        atoms = derive_independent_atoms(tree, lat, f)
        if len(atoms) != n:
            problems.append((n, f"derived {len(atoms)} atoms"))
        running = lat.bottom
        for step, atom in enumerate(atoms, start=1):
            running = lat.join(running, atom)
            if lat.height(running) != step:
                problems.append((n, f"join height {lat.height(running)} at step {step}"))
        if running != lat.top:
            problems.append((n, "derived atoms do not span"))
        closure = boolean_closure(tree, tree.leaves(), lat, realization=f)
        if closure is None or len(closure.elements) != lat.size:
            problems.append((n, "closure does not name every element"))
        else:
            extended = apply_closure(tree, closure)
            full = find_realization(extended, lat)
            if full is None or not satisfies(extended, lat, full.mapping):
                problems.append((n, "closed statement set not realizable"))
    ok = not problems
    record_criterion(
        4, ok, "split-tree pipeline rebuilds the rank-1..3 powerset lattices"
    )
    assert ok, problems


# ----- criterion 5: projective construction pipeline ---------------------------


def test_criterion_5_projective_pipeline(fano):
    problems = []
    report = verify_projective_pipeline(3, 2)
    for stage, result in report.stages.items():
        if not result["ok"]:
            problems.append((stage, result["detail"]))
    if not report.passed:
        problems.append(("passed", False))

    if not verify_bvn_characterization(fano, 3).passed:
        problems.append(("characterization", "direct re-check failed"))

    view = geometry_view(fano)
    probe = line_probe_structure(3)
    for line in view.lines:
        if find_realization(probe, fano, pin={"l": line}) is None:
            problems.append(("third point", fano.labels[line]))

    cop = coplanar_lines_structure(3)
    for l1, l2 in itertools.combinations(view.lines, 2):
        real = find_realization(cop, fano, pin={"l1": l1, "l2": l2})
        if real is None:
            problems.append(("coplanar pair", (fano.labels[l1], fano.labels[l2])))
            continue
        meet = fano.meet(l1, l2)
        if fano.height(meet) != 1:
            problems.append(("line meet height", fano.height(meet)))
    ok = not problems
    record_criterion(
        5,
        ok,
        "projective pipeline passes on the rank-3 GF(2) subspace lattice",
    )
    assert ok, problems


# ----- criterion 6: the third split part separates the targets -----------------


def test_criterion_6_third_part_requires_a_nonboolean_target():
    problems = []
    triple = triple_split_structure()
    for n in (1, 2, 3, 4):
        lat = boolean_lattice(n)
        if find_realization(triple, lat) is not None:
            problems.append(f"unexpected realization in {lat.name}")
        if naive_realization_exists(triple, lat):
            problems.append(f"oracle found a realization in {lat.name}")
    for q in (2, 3, 5):
        lat = subspace_lattice(2, q)
        found = find_realization(triple, lat)
        if found is None or not satisfies(triple, lat, found.mapping):
            problems.append(f"no realization in {lat.name}")
        if not naive_realization_exists(triple, lat):
            problems.append(f"oracle missed the realization in {lat.name}")
    ok = not problems
    record_criterion(
        6,
        ok,
        "third split part unrealizable in powersets, realizable over GF(2,3,5)",
    )
    assert ok, problems


# ----- criterion 7: search agrees with the all-assignments oracle --------------


def _oracle_fixture_cases():
    three_leaf = split_element(split_element(initial_structure(3), "1"), "b1")
    cube = boolean_lattice(3)
    closed_cube = apply_closure(
        three_leaf, boolean_closure(three_leaf, three_leaf.leaves(), cube)
    )
    structures = [
        initial_structure(1),
        initial_structure(2),
        initial_structure(3),
        saturate_splits(initial_structure(2)),
        three_leaf,
        build_tree(2),
        triple_split_structure(),
        line_probe_structure(2),
        line_probe_structure(3),
        atom_pair_structure(3),
        coplanar_lines_structure(3),
        closed_cube,
    ]
    lattices = [
        chain(2),
        chain(3),
        chain(4),
        boolean_lattice(1),
        boolean_lattice(2),
        cube,
        boolean_lattice(4),
        diamond_m3(),
        pentagon_n5(),
        subspace_lattice(2, 2),
        subspace_lattice(2, 3),
        subspace_lattice(2, 5),
        subspace_lattice(3, 2),
    ]
    cases = []
    for s in structures:
        free = len(s.constants) - 2
        for lat in lattices:
            pool = lat.size - 2
            assignments = 1
            for i in range(free):
                assignments *= max(pool - i, 0)
            if assignments <= 200_000:
                cases.append((s, lat))
    return cases


def test_criterion_7_search_matches_naive_oracle():
    problems = []
    cases = _oracle_fixture_cases()
    for structure, lat in cases:
        assert len(structure.constants) <= 8 and lat.size <= 16
        found = find_realization(structure, lat)
        if found is not None and not satisfies(structure, lat, found.mapping):
            problems.append((lat.name, "claimed realization fails directly"))
        if (found is not None) is not naive_realization_exists(structure, lat):
            problems.append((lat.name, tuple(structure.constants)))
    ok = not problems and len(cases) >= 100
    record_criterion(
        7,
        ok,
        f"realization search matches the brute oracle on {len(cases)} pairs",
    )
    assert ok, problems


# ----- criterion 8: failing witnesses re-violate their laws --------------------


def test_criterion_8_failure_witnesses_are_sound():
    failures = []
    for lat, expected in _separation_matrix():
        for token in expected:
            report = _registry_report(lat, token)
            if not report.holds:
                failures.append((lat, report))
    problems = []
    for lat, report in failures:
        if report.witness is None:
            problems.append((lat.name, report.law.value, "missing witness"))
        elif not witness_violates(lat, report):
            problems.append((lat.name, report.law.value, report.witness))
    ok = not problems and len(failures) == 12
    record_criterion(
        8,
        ok,
        f"all {len(failures)} failing reports carry independently-checked witnesses",
    )
    assert ok, (problems, len(failures))


# ----- criterion 9: command-line contract --------------------------------------


def test_criterion_9_cli_roundtrip_and_exit_codes(tmp_path, capsys):
    problems = []

    generator_args = [
        ["gen", "boolean", "--n", "3"],
        ["gen", "subspace", "--n", "3", "--q", "2"],
        ["gen", "subspace", "--n", "2", "--q", "3"],
        ["gen", "m3"],
        ["gen", "n5"],
        ["gen", "chain", "--n", "4"],
    ]
    for idx, argv in enumerate(generator_args):
        source = tmp_path / f"doc{idx}.json"
        if main([*argv, "--out", str(source)]) != 0:
            problems.append((argv, "gen failed"))
            continue
        first_code = main(["check", str(source), "--laws", "all"])
        first = json.loads(capsys.readouterr().out)
        reloaded = tmp_path / f"doc{idx}-reloaded.json"
        if main(["export", str(source), "--format", "json", "--out", str(reloaded)]) != 0:
            problems.append((argv, "export failed"))
            continue
        second_code = main(["check", str(reloaded), "--laws", "all"])
        second = json.loads(capsys.readouterr().out)
        if first_code != second_code or first["report"] != second["report"]:
            problems.append((argv, "round trip changed the check outcome"))

    fano_doc = tmp_path / "doc1.json"
    cube_doc = tmp_path / "doc0.json"
    malformed = tmp_path / "malformed.json"
    malformed.write_text('{"elements": [,]}')
    cyclic = tmp_path / "cyclic.json"
    cyclic.write_text('{"elements": ["a", "b"], "order": [["a", "b"], ["b", "a"]]}')

    exit_table = [
        (["gen", "boolean", "--n", "4"], 0),
        (["gen", "boolean"], 2),
        (["gen", "subspace", "--n", "9", "--q", "7"], 2),
        (["check", str(fano_doc), "--laws", "modular,atomic,perspective,thirdpoint"], 0),
        (["check", str(fano_doc), "--laws", "spanning", "--n", "3"], 0),
        (["check", str(fano_doc), "--laws", "spanning"], 2),
        (["check", str(fano_doc), "--laws", "all"], 1),
        (["check", str(cube_doc), "--laws", "distributive,modular"], 0),
        (["check", str(malformed)], 2),
        (["check", str(cyclic)], 2),
        (["check", str(tmp_path / "absent.json")], 2),
        (["verify", "boolean", "--n", "2"], 0),
        (["verify", "s5", "--n", "3"], 0),
        (["verify", "s7", "--n", "3", "--q", "2"], 0),
        (["verify", "s7", "--n", "3"], 2),
        (["verify", "boolean", "--n", "9"], 2),
        (["export", str(cube_doc), "--format", "hasse-dot"], 0),
        (["export", str(cube_doc), "--format", "pdf"], 2),
        (["frobnicate"], 2),
    ]
    for argv, want in exit_table:
        got = main(argv)
        capsys.readouterr()
        if got != want:
            problems.append((argv, f"exit {got}, wanted {want}"))

    ok = not problems
    record_criterion(
        9,
        ok,
        "round trips preserve check outcomes; exit codes follow the 0/1/2 contract",
    )
    assert ok, problems
