"""Exception taxonomy for latlab.

Every error carries a human-readable message; errors that point at concrete
elements or constants also carry a ``witness`` attribute so callers (and the
CLI) can render the offending data.
"""


class LatticeError(Exception):
    """Base class for all latlab errors."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotAPartialOrder(LatticeError):
    """The input relation's closure violates antisymmetry (contains a cycle)."""


class NotALattice(LatticeError):
    """Some pair of elements has no unique meet or join."""


class NoBoundingElements(LatticeError):
    """The order has no global bottom or no global top."""


class NotGraded(LatticeError):
    """Element heights are inconsistent with a graded (ranked) order."""


class NotAtoms(LatticeError):
    """An argument expected to be a set of distinct atoms is not."""


class NotAtomic(LatticeError):
    """The lattice is not atomic but the operation requires it."""


class DepthExhausted(LatticeError):
    """A split was requested on a constant whose height budget is below 2."""


class UnknownConstant(LatticeError):
    """A named constant does not exist in the partial structure."""


class MissingSplit(LatticeError):
    """An alternative part was requested for a split that is not recorded."""


class RealizationMissing(LatticeError):
    """The operation requires a realization but none exists."""


class SizeBound(LatticeError):
    """The input exceeds a documented desk-scale bound."""


class DocumentError(LatticeError):
    """A lattice document is malformed (bad JSON or bad schema).

    For JSON syntax errors, ``line`` and ``column`` locate the problem;
    both are None for schema-level problems.
    """

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column
