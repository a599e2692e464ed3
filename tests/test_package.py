"""The package surface, and the latlab modules each command loads.

``import latlab`` loads no submodule: its public names resolve on first
access.  Each CLI command loads only the modules it runs, checked in a
fresh interpreter both through ``python -m latlab`` and through
``latlab.cli.main``.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import latlab

# Every public name by the module that defines it.
HOMES = {
    "core": ("ElementId", "FiniteLattice", "build_lattice"),
    "construction": (
        "BooleanSublattice", "ClosureResult", "PartialStructure", "PipelineReport",
        "Realization", "Statement", "StatementKind", "add_split_alternative",
        "apply_closure", "atom_pair_structure", "boolean_closure", "build_tree",
        "coplanar_lines_structure", "derive_independent_atoms",
        "enumerate_boolean_sublattices", "find_realization", "initial_structure",
        "line_probe_structure", "satisfies", "saturate_splits", "split_element",
        "triple_split_structure", "verify_boolean_pipeline",
        "verify_projective_pipeline",
    ),
    "document": (
        "LatticeDocument", "document_from_lattice", "document_to_lattice",
        "lattice_to_dot", "lattice_to_json", "load_document", "parse_document",
    ),
    "errors": (
        "DepthExhausted", "DocumentError", "LatticeError", "MissingSplit",
        "NoBoundingElements", "NotALattice", "NotAPartialOrder", "NotAtomic",
        "NotAtoms", "NotGraded", "RealizationMissing", "SizeBound", "UnknownConstant",
    ),
    "generators": ("boolean_lattice", "chain", "diamond_m3", "pentagon_n5",
                   "subspace_lattice"),
    "projective": (
        "CharacterizationReport", "GeometryView", "check_p1", "check_p2",
        "check_p3_third_point", "check_spanning", "geometry_view", "is_independent",
        "verify_bvn_characterization",
    ),
    "props": (
        "Law", "LawReport", "check_lattice_axioms", "is_atomic", "is_complemented",
        "is_distributive", "is_modular", "is_perspective_lattice",
        "satisfies_height_law",
    ),
    "witness": ("witness_violates",),
}
PUBLIC = [(module, name) for module, names in HOMES.items() for name in names]

# ----- surface ----------------------------------------------------------------


def test_all_lists_the_71_public_names_once():
    assert len(latlab.__all__) == len(set(latlab.__all__)) == len(PUBLIC) == 71
    assert set(latlab.__all__) == {name for _, name in PUBLIC}


def test_each_name_is_the_object_of_its_home_module():
    for module, name in PUBLIC:
        home = importlib.import_module(f"latlab.{module}")
        assert getattr(latlab, name) is getattr(home, name), name


def test_dir_and_star_import_cover_all():
    assert set(latlab.__all__) <= set(dir(latlab))
    namespace = {}
    exec("from latlab import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(latlab.__all__)
    assert all(namespace[name] is getattr(latlab, name) for name in latlab.__all__)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        latlab.no_such_name
    assert getattr(latlab, "no_such_name", None) is None


# ----- modules loaded per command ---------------------------------------------

BASE = {"latlab", "latlab.cli", "latlab.core", "latlab.document", "latlab.errors",
        "latlab.generators", "latlab.limits"}
LAW_REGISTRY = {"latlab.props", "latlab.witness", "latlab.projective"}
RUN_MAIN = "import sys, latlab.cli; raise SystemExit(latlab.cli.main(sys.argv[1:]))"


def _imported(*argv) -> tuple[int, set[str]]:
    """Exit code and every module a fresh interpreter imports running
    ``python -X importtime *argv``."""
    env = dict(os.environ)
    src = str(Path(latlab.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-X", "importtime", *argv], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    return proc.returncode, {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                             if line.startswith("import time:")}


def _loaded(*argv) -> tuple[int, set[str]]:
    """Exit code and the latlab modules among :func:`_imported`'s."""
    code, names = _imported(*argv)
    return code, {name for name in names if name.split(".")[0] == "latlab"}


def test_bare_import_loads_no_submodule():
    assert _loaded("-c", "import latlab") == (0, {"latlab"})


@pytest.mark.parametrize("entry", [("-m", "latlab"), ("-c", RUN_MAIN)],
                         ids=["python -m latlab", "latlab.cli.main"])
def test_each_command_loads_only_the_modules_it_runs(entry, tmp_path):
    m3 = str(tmp_path / "m3.json")
    assert _loaded(*entry, "gen", "m3", "--out", m3) == (0, BASE)
    assert _loaded(*entry, "export", m3) == (0, BASE)
    assert _loaded(*entry, "export", m3, "--format", "hasse-dot") == (0, BASE)
    # M3 is modular but not distributive, so check exits 1.
    assert _loaded(*entry, "check", m3) == (1, BASE | LAW_REGISTRY)
    code, modules = _loaded(*entry, "verify", "boolean", "--n", "2")
    assert code == 0 and "latlab.construction" in modules


def test_gen_subspace_loads_no_numpy_ma(tmp_path):
    # np.unique imports numpy.ma (about 13 ms); nothing on the gen path needs it.
    out = str(tmp_path / "s311.json")
    code, modules = _imported("-m", "latlab", "gen", "subspace", "--n", "3", "--q", "11", "--out", out)
    assert code == 0 and "numpy" in modules and "numpy.ma" not in modules
