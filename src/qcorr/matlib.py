"""Dense complex linear algebra primitives with explicit tolerances.

Matrices are plain numpy complex128 arrays throughout.  Every numerical
threshold used by the toolkit lives in the Tolerance record and is passed
explicitly; nothing reads global state.  Eigenproblems are delegated to
LAPACK through numpy; the residual contracts asserted by the test suite
are what downstream code relies on, not any property of the backend.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.linalg as npl

from .errors import DimensionMismatch, NoConvergence, NotHermitian

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "HermitianEig",
    "dagger",
    "fro_norm",
    "commutator",
    "hermitian_eig",
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


def _as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d array, got shape {m.shape}")
    return m


def _require_square(m: np.ndarray) -> np.ndarray:
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    return m


def dagger(a) -> np.ndarray:
    """Conjugate transpose."""
    return np.conjugate(np.swapaxes(np.asarray(a, dtype=np.complex128), -1, -2))


def fro_norm(a) -> float:
    """Frobenius norm."""
    return float(npl.norm(np.asarray(a)))


def commutator(a, b) -> np.ndarray:
    """[a, b] = ab - ba for square matrices of equal size."""
    ma, mb = _require_square(_as_matrix(a)), _require_square(_as_matrix(b))
    if ma.shape != mb.shape:
        raise DimensionMismatch(f"commutator of {ma.shape} with {mb.shape}")
    return ma @ mb - mb @ ma


def hermitize(a) -> np.ndarray:
    """Hermitian part (a + a^dagger) / 2; removes rounding asymmetry."""
    m = _require_square(_as_matrix(a))
    return (m + dagger(m)) / 2


@dataclass(frozen=True)
class HermitianEig:
    """Eigendecomposition of a Hermitian matrix.

    eigenvalues are real and sorted in descending order; eigenvectors
    holds the matching orthonormal eigenvectors as columns.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eig(a, tol: Tolerance = DEFAULT_TOL) -> HermitianEig:
    """Full eigendecomposition of a Hermitian matrix, descending order."""
    m = _require_square(_as_matrix(a))
    defect = fro_norm(m - dagger(m))
    if defect > tol.eps_residual * max(1.0, fro_norm(m)):
        raise NotHermitian(f"hermiticity defect {defect:.3e}")
    try:
        w, v = npl.eigh((m + dagger(m)) / 2)
    except npl.LinAlgError as exc:  # pragma: no cover - LAPACK failure path
        raise NoConvergence(str(exc)) from exc
    return HermitianEig(np.ascontiguousarray(w[::-1]), np.ascontiguousarray(v[:, ::-1]))
