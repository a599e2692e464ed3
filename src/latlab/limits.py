"""Desk-scale resource bounds.

Built-in caps keep every operation exhaustive yet fast on a laptop.  The
environment variable LATTICE_MAX_ELEMENTS may lower (never raise) the
element-count caps; a value that is not a positive integer is rejected with
ValueError.
"""

import os

MAX_ELEMENTS = 4096
MAX_BOOLEAN_EXPONENT = 12
MAX_TREE_DEPTH = 6
MAX_VECTORS = 4096
MAX_REALIZATION_CONSTANTS = 64
# Caps both the realization search and the boolean-sublattice enumeration.
MAX_AMBIENT_ELEMENTS = 256
# B_n has 2^n elements: the largest that fits under the ambient cap.
MAX_BOOLEAN_PIPELINE_N = MAX_AMBIENT_ELEMENTS.bit_length() - 1
MAX_SUBSTRUCTURE_CONSTANTS = 8

ENV_VAR = "LATTICE_MAX_ELEMENTS"


def _env_cap():
    raw = os.environ.get(ENV_VAR)
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f"{ENV_VAR} must be a positive integer, got {raw!r}")
    return value


def element_cap(builtin=MAX_ELEMENTS):
    """Effective element cap: the built-in bound, lowered by the env var."""
    env = _env_cap()
    if env is None:
        return builtin
    return min(builtin, env)


def ambient_cap():
    return element_cap(MAX_AMBIENT_ELEMENTS)
