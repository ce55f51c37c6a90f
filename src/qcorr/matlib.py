"""The toolkit's settable thresholds and four matrix one-liners.

Matrices are plain numpy complex128 arrays throughout, and linear algebra
is numpy.linalg called directly.  The thresholds a caller may set live in
the Tolerance record and are passed explicitly; fixed cutoffs are private
constants next to their only user.  dagger, fro_norm, hermitize and
from_eig take numpy arrays and check nothing, not even the dtype: the
modules that call them validate their inputs first.  The Hermitian part of
a state is formed once, by validate, which keeps it as the state's only
matrix; every decomposition reads the lower triangle of a matrix derived
from it, as numpy.linalg.eigh does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import InvalidParams

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "dagger",
    "fro_norm",
    "hermitize",
    "from_eig",
]


def require_finite_nonnegative(record) -> None:
    """Raise InvalidParams unless every field of a dataclass is finite and >= 0."""
    for f in fields(record):
        if not 0.0 <= (value := getattr(record, f.name)) < np.inf:  # false for NaN
            raise InvalidParams(f"{f.name} must be finite and non-negative, got {value!r}")


@dataclass(frozen=True)
class Tolerance:
    """Numerical thresholds, each finite and non-negative (else InvalidParams).

    eps_psd       eigenvalue floor for positivity tests and the CQ distance bound
    eps_residual  Frobenius residual bound for matrix identities
    eps_sppt      absolute bound on the SPPT definition residual
                  |Y^dagger Y - rho^{T_A}|_F (|rho^{T_A}|_F <= 1 for a state)
    """

    eps_psd: float = 1e-9
    eps_residual: float = 1e-8
    eps_sppt: float = 1e-7

    def __post_init__(self):
        require_finite_nonnegative(self)


DEFAULT_TOL = Tolerance()


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes."""
    return a.conj().swapaxes(-1, -2)


def fro_norm(a: np.ndarray) -> float:
    """Frobenius norm over all entries."""
    return math.sqrt(np.vdot(a, a).real)


def hermitize(a: np.ndarray) -> np.ndarray:
    """Hermitian part (a + a^dagger) / 2; removes rounding asymmetry.  Not
    needed before numpy.linalg.eigh, which reads the lower triangle alone."""
    return (a + dagger(a)) * 0.5


def from_eig(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """V diag(w) V^dagger, Hermitian up to rounding, from eigenvalues w and
    eigenvector columns v, batched over leading axes."""
    return (v * w[..., None, :]) @ dagger(v)
