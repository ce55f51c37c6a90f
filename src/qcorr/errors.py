"""Exception types shared across the toolkit."""

from __future__ import annotations


class QcorrError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(QcorrError):
    """Operands have incompatible or unexpected shapes."""


class NotDensityMatrix(QcorrError):
    """Not a density matrix; the subclasses NotHermitian, TraceNotOne and NotPsd say why."""


class NotHermitian(NotDensityMatrix):
    """Hermiticity defect exceeds the configured residual tolerance."""


class NotPsd(NotDensityMatrix):
    """An eigenvalue lies below the configured positivity floor."""


class TraceNotOne(NotDensityMatrix):
    """Trace deviates from one beyond the configured tolerance."""


class InvalidSpec(QcorrError):
    """A state-construction specification violates its invariants."""


class InvalidParams(QcorrError):
    """Family parameters or numerical settings violate their invariants."""


class ParseError(QcorrError):
    """A state file does not conform to the documented schema."""
