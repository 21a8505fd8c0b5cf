"""Exception types shared across the package."""

from __future__ import annotations

# the default bound on the coordinates of one Amitsur degree, shared by the
# problem files' ``dim_cap`` option; here because both amitsur and problem
# load this module, and problem does not load amitsur
DEFAULT_DIM_CAP = 20000


class CechcoverError(Exception):
    """Base class for all structured errors raised by this package."""


class FieldMismatchError(CechcoverError):
    """Operands carry different field descriptors."""


class DimensionMismatchError(CechcoverError):
    """Shapes or ambient dimensions are incompatible."""


class StructureError(CechcoverError):
    """An algebraic axiom failed; carries a witness of the violation.

    ``witness`` is a small tuple/dict identifying the offending basis
    indices, map pair, or square, suitable for error messages and reports.
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class NotAComplexError(CechcoverError):
    """d composed with d is nonzero; carries the offending degree."""

    def __init__(self, message: str, degree: int):
        super().__init__(message)
        self.degree = degree


class DimensionCapError(CechcoverError):
    """A space or a piece of work would exceed its cap: an Amitsur degree in
    coordinates or its differentials in word letters, a Cech degree of a
    functor in index tuples, or a structure-constant table (degree None)."""

    def __init__(self, message: str, degree: int | None, estimated: int, cap: int):
        super().__init__(message)
        self.degree = degree
        self.estimated = estimated
        self.cap = cap


class ProblemFormatError(CechcoverError):
    """A problem document failed schema validation; carries a location path."""

    def __init__(self, message: str, location: str = ""):
        super().__init__(f"{location}: {message}" if location else message)
        self.location = location
