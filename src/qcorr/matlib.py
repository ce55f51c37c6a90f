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

from .errors import DimensionMismatch, NoConvergence, NotHermitian, NotPsd

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "HermitianEig",
    "dagger",
    "fro_norm",
    "trace",
    "matmul",
    "add",
    "scale",
    "kron",
    "commutator",
    "hermiticity_defect",
    "hermitian_eig",
    "psd_sqrt",
    "pseudo_inverse",
]


@dataclass(frozen=True)
class Tolerance:
    """Numerical thresholds, threaded explicitly through every check.

    eps_psd         eigenvalue floor for positivity tests
    eps_residual    Frobenius residual bound for matrix identities
    eps_rank        relative eigenvalue cutoff for pseudo-inverses
    eps_sppt        normality residual bound, relative to max(1, |S|_F^2)
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


def trace(a) -> complex:
    """Trace of a square matrix."""
    return complex(np.trace(_require_square(_as_matrix(a))))


def matmul(a, b) -> np.ndarray:
    """Matrix product with an explicit inner-dimension check."""
    ma, mb = _as_matrix(a), _as_matrix(b)
    if ma.shape[1] != mb.shape[0]:
        raise DimensionMismatch(f"cannot multiply {ma.shape} by {mb.shape}")
    return ma @ mb


def add(a, b) -> np.ndarray:
    """Matrix sum with an explicit shape check."""
    ma, mb = _as_matrix(a), _as_matrix(b)
    if ma.shape != mb.shape:
        raise DimensionMismatch(f"cannot add {ma.shape} to {mb.shape}")
    return ma + mb


def scale(c, a) -> np.ndarray:
    """Scalar multiple of a matrix."""
    return complex(c) * _as_matrix(a)


def kron(a, b) -> np.ndarray:
    """Kronecker product."""
    return np.kron(_as_matrix(a), _as_matrix(b))


def commutator(a, b) -> np.ndarray:
    """[a, b] = ab - ba for square matrices of equal size."""
    ma, mb = _require_square(_as_matrix(a)), _require_square(_as_matrix(b))
    if ma.shape != mb.shape:
        raise DimensionMismatch(f"commutator of {ma.shape} with {mb.shape}")
    return ma @ mb - mb @ ma


def hermiticity_defect(a) -> float:
    """Frobenius norm of a - a^dagger."""
    m = _require_square(_as_matrix(a))
    return fro_norm(m - dagger(m))


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


def psd_sqrt(a, tol: Tolerance = DEFAULT_TOL, *, scale: float | None = None) -> np.ndarray:
    """Hermitian PSD square root via eigendecomposition.

    Eigenvalues in [-floor, 0] are clamped to zero, where the floor is
    eps_psd times |a|_F, or eps_psd times `scale` when the caller supplies
    a better reference (e.g. for small Schur-complement differences whose
    own norm is not the relevant scale).  Anything below -floor raises.
    """
    eig = hermitian_eig(a, tol)
    ref = fro_norm(a) if scale is None else float(scale)
    floor = tol.eps_psd * ref
    lam_min = float(eig.eigenvalues[-1]) if eig.eigenvalues.size else 0.0
    if lam_min < -floor:
        raise NotPsd(f"min eigenvalue {lam_min:.3e} below floor -{floor:.3e}")
    lam = np.clip(eig.eigenvalues, 0.0, None)
    root = (eig.eigenvectors * np.sqrt(lam)) @ dagger(eig.eigenvectors)
    return (root + dagger(root)) / 2


def pseudo_inverse(a, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse of a Hermitian matrix.

    Eigenvalues with magnitude at or below eps_rank times the largest
    magnitude are treated as exact zeros.
    """
    eig = hermitian_eig(a, tol)
    if eig.eigenvalues.size == 0:
        return np.zeros_like(_as_matrix(a))
    lam = eig.eigenvalues
    cut = tol.eps_rank * float(np.max(np.abs(lam)))
    inv = np.divide(1.0, lam, out=np.zeros_like(lam), where=np.abs(lam) > cut)
    out = (eig.eigenvectors * inv) @ dagger(eig.eigenvectors)
    return (out + dagger(out)) / 2
