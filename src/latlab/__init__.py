"""latlab: a laboratory for finite lattices.

Build finite lattices from order data or generators, check algebraic and
geometric laws with concrete counterexample witnesses, grow partial
join/meet structures by splitting and boolean closure, and search concrete
lattices for realizations of those structures.

Public names resolve on first access (PEP 562): ``import latlab`` loads no
submodule, and ``latlab.find_realization`` imports ``latlab.construction``
only then.
"""

import importlib

__version__ = "0.1.0"

# The home module of each public name.
_HOMES = {
    "core": ("ElementId", "FiniteLattice", "build_lattice"),
    "construction": (
        "BooleanSublattice", "ClosureResult", "PartialStructure",
        "PipelineReport", "Realization", "Statement", "StatementKind",
        "add_split_alternative", "apply_closure", "atom_pair_structure",
        "boolean_closure", "build_tree", "coplanar_lines_structure",
        "derive_independent_atoms", "enumerate_boolean_sublattices",
        "find_realization", "initial_structure", "line_probe_structure",
        "satisfies", "saturate_splits", "split_element",
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
        "NotAtoms", "NotGraded", "RealizationMissing", "SizeBound",
        "UnknownConstant",
    ),
    "generators": (
        "boolean_lattice", "chain", "diamond_m3", "pentagon_n5",
        "subspace_lattice",
    ),
    "projective": (
        "CharacterizationReport", "GeometryView", "check_p1", "check_p2",
        "check_p3_third_point", "check_spanning", "geometry_view",
        "is_independent", "verify_bvn_characterization",
    ),
    "props": (
        "Law", "LawReport", "check_lattice_axioms", "is_atomic",
        "is_complemented", "is_distributive", "is_modular",
        "is_perspective_lattice", "satisfies_height_law",
    ),
    "witness": ("witness_violates",),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}
__all__ = [
    "BooleanSublattice",
    "CharacterizationReport",
    "ClosureResult",
    "DepthExhausted",
    "DocumentError",
    "ElementId",
    "FiniteLattice",
    "GeometryView",
    "LatticeDocument",
    "LatticeError",
    "Law",
    "LawReport",
    "MissingSplit",
    "NoBoundingElements",
    "NotALattice",
    "NotAPartialOrder",
    "NotAtomic",
    "NotAtoms",
    "NotGraded",
    "PartialStructure",
    "PipelineReport",
    "Realization",
    "RealizationMissing",
    "SizeBound",
    "Statement",
    "StatementKind",
    "UnknownConstant",
    "add_split_alternative",
    "apply_closure",
    "atom_pair_structure",
    "boolean_closure",
    "boolean_lattice",
    "build_lattice",
    "build_tree",
    "chain",
    "check_lattice_axioms",
    "check_p1",
    "check_p2",
    "check_p3_third_point",
    "check_spanning",
    "coplanar_lines_structure",
    "derive_independent_atoms",
    "diamond_m3",
    "document_from_lattice",
    "document_to_lattice",
    "enumerate_boolean_sublattices",
    "find_realization",
    "geometry_view",
    "initial_structure",
    "is_atomic",
    "is_complemented",
    "is_distributive",
    "is_independent",
    "is_modular",
    "is_perspective_lattice",
    "lattice_to_dot",
    "lattice_to_json",
    "line_probe_structure",
    "load_document",
    "parse_document",
    "pentagon_n5",
    "satisfies",
    "satisfies_height_law",
    "saturate_splits",
    "split_element",
    "subspace_lattice",
    "triple_split_structure",
    "verify_bvn_characterization",
    "verify_boolean_pipeline",
    "verify_projective_pipeline",
    "witness_violates",
]


def __getattr__(name: str):
    module = _HOME_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
