"""Exception types shared across the toolkit."""

from __future__ import annotations


class QcorrError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(QcorrError):
    """Operands have incompatible or unexpected shapes."""


class IndexOutOfRange(QcorrError):
    """Block or entry index outside the declared dimensions."""


class NotHermitian(QcorrError):
    """Hermiticity defect exceeds the configured residual tolerance."""


class NotPsd(QcorrError):
    """An eigenvalue lies below the configured positivity floor."""


class NotUnitary(QcorrError):
    """Unitarity defect exceeds the configured residual tolerance."""


class TraceNotOne(QcorrError):
    """Trace deviates from one beyond the configured tolerance."""


class NotDensityMatrix(QcorrError):
    """Input fails one of the density-matrix requirements."""


class InconsistentBlocks(QcorrError):
    """Block structure is internally inconsistent with positivity."""


class InvalidSpec(QcorrError):
    """A state-construction specification violates its invariants."""


class InvalidParams(QcorrError):
    """Family parameters or numerical settings violate their invariants."""


class ParseError(QcorrError):
    """A state file does not conform to the documented schema."""
