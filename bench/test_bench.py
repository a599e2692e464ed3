"""Self-tests of the benchmark harness.

    python3 -m pytest -q bench/test_bench.py

They check the harness, not latlab: tracing leaves latlab as it found it
and changes no output, inputs follow the seed, no call is handed an object
an earlier call worked on, the gate rejects wrong outcomes, and BENCHMARK.json names exactly the metrics the harness prints.
"""

from __future__ import annotations

import json
import random
import sys

import run

run.prepare()

import families  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Ops up to this size keep a traced and an untraced pass of every workload
# to a few seconds.
SMALL = 20
RANDOM = ("downset", "dm")


def _bindings() -> dict:
    import latlab.core
    import latlab.document

    seen = {}
    for name, module in sorted(sys.modules.items()):
        if name == "latlab" or name.startswith("latlab."):
            seen.update({(name, k): v for k, v in vars(module).items()})
    for cls in (latlab.core.FiniteLattice, latlab.document.LatticeDocument):
        seen.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return seen


def test_wrappers_patch_every_binding_and_restore_them():
    import latlab.cli
    import latlab.construction
    import latlab.core

    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert latlab.cli.main is not before["latlab.cli", "main"]
        assert latlab.construction.find_realization is not before[
            "latlab.construction", "find_realization"]
        assert latlab.construction.geometry_view is not before[
            "latlab.construction", "geometry_view"]
        assert latlab.core.FiniteLattice.__init__ is not before["FiniteLattice", "__init__"]
        assert latlab.core.FiniteLattice.le is before["FiniteLattice", "le"]
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_and_untraced_passes_give_identical_digests(tmp_path):
    for name in workloads.NAMES:
        (tmp_path / name).mkdir()
        ops = [op for op in workloads.build(name, 1, tmp_path / name) if op.size <= SMALL]
        plain = run.Gate({}, require_reference=False)
        assert run.run_pass(ops, plain)[1] == 0
        tracer = tracing.Tracer()
        traced = run.Gate({}, require_reference=False)
        tracer.install()
        try:
            assert run.run_pass(ops, traced, tracer)[1] == 0
        finally:
            tracer.uninstall()
        assert tracer.spans and None not in tracer.spans
        assert traced.digests == plain.digests


def test_seed_fixes_the_corpus_and_varies_only_random_documents():
    first = families.check_corpus(random.Random("check:3"))
    again = families.check_corpus(random.Random("check:3"))
    other = families.check_corpus(random.Random("check:4"))
    assert [d.text() for d in first] == [d.text() for d in again]
    assert [(d.family, d.size) for d in first] == [(d.family, d.size) for d in other]
    fixed = [(a.text(), b.text()) for a, b in zip(first, other) if a.family not in RANDOM]
    assert all(a == b for a, b in fixed)
    # The smallest random lattices have few shapes, so a few may coincide.
    drawn = [(a.text(), b.text()) for a, b in zip(first, other) if a.family in RANDOM]
    assert sum(a != b for a, b in drawn) >= 0.9 * len(drawn)
    assert len(first) >= 100


def test_op_order_and_pins_follow_the_seed(tmp_path):
    keys = {}
    for seed in (3, 3, 4):
        work = tmp_path / f"{seed}-{len(keys)}"
        work.mkdir()
        keys.setdefault(seed, []).append([op.key for op in workloads.build("verify", seed, work)])
    assert keys[3][0] == keys[3][1]
    assert keys[3][0] != keys[4][0]


def test_verify_library_ops_get_fresh_objects_on_every_call(tmp_path):
    ops = [op for op in workloads.build("verify", 1, tmp_path)
           if op.key.startswith(("find_realization", "enumerate_boolean_sublattices"))]
    assert ops
    for op in ops:
        first, second = op.prepare(), op.prepare()
        assert first is not second
        if isinstance(first, tuple):
            assert all(a is not b for a, b in zip(first, second))


def test_gate_rejects_wrong_verdicts_and_false_witnesses(tmp_path):
    ops = [op for op in workloads.build("check", 1, tmp_path) if op.key.startswith("check n5:")
           and "--laws all" in op.key]
    (op,) = ops
    code, body = op.render(op.invoke(op.prepare()))
    assert op.check(code, body) == []
    report = json.loads(body)
    report["laws"]["modular"]["holds"] = True
    assert op.check(code, json.dumps(report))
    report = json.loads(body)
    report["laws"]["modular"]["witness"] = ["0", "0", "0"]
    assert any("not a violation" in p for p in op.check(code, json.dumps(report)))
    assert op.check(0, body)


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.metric_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
