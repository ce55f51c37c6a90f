"""The toolkit's numerical thresholds and three matrix one-liners.

Matrices are plain numpy complex128 arrays throughout, and linear algebra
is numpy.linalg called directly.  Every numerical threshold used by the
toolkit lives in the Tolerance record and is passed explicitly; nothing
reads global state.  dagger, fro_norm and hermitize check nothing: the
modules that call them validate their inputs first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.linalg as npl

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "dagger",
    "fro_norm",
    "hermitize",
]


@dataclass(frozen=True)
class Tolerance:
    """Numerical thresholds, threaded explicitly through every check.

    eps_psd         eigenvalue floor for positivity tests
    eps_residual    Frobenius residual bound for matrix identities
    eps_rank        relative eigenvalue cutoff for pseudo-inverses
    eps_sppt        normality and cross residual bound, relative to
                    max(1, |S_jk|_F |S_jl|_F) (max(1, |S|_F^2) for normality)
    eps_cq          off-block Frobenius norm bound for classical-quantum tests
    eps_degenerate  spectral gap below which eigenvalues form one cluster
    eps_prob        measurement probabilities at or below this count as zero
    """

    eps_psd: float = 1e-9
    eps_residual: float = 1e-8
    eps_rank: float = 1e-10
    eps_sppt: float = 1e-7
    eps_cq: float = 1e-6
    eps_degenerate: float = 1e-8
    eps_prob: float = 1e-12


DEFAULT_TOL = Tolerance()


def dagger(a) -> np.ndarray:
    """Conjugate transpose."""
    return np.conjugate(np.swapaxes(np.asarray(a, dtype=np.complex128), -1, -2))


def fro_norm(a) -> float:
    """Frobenius norm."""
    return float(npl.norm(np.asarray(a)))


def hermitize(a) -> np.ndarray:
    """Hermitian part (a + a^dagger) / 2; removes rounding asymmetry."""
    return (a + dagger(a)) / 2

