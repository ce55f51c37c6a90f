"""Bipartite density matrices in the A-major block convention.

A state on C^M (x) C^N is stored as an (M*N) x (M*N) matrix whose row
index (k-1)*N + j addresses A basis state k and B basis state j, both
1-based.  block_tensor(state) views the matrix as an (M, M, N, N) array t
whose t[k-1, l-1] is the N x N submatrix at block row k and block column l;
the partial transpose over A swaps block indices.  A validated state holds
one matrix, the Hermitian part of its input, so every verdict and every
written state file reads the same exactly Hermitian rho.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.linalg as npl

from .errors import DimensionMismatch, NotDensityMatrix, NotHermitian, NotPsd, TraceNotOne
from .matlib import DEFAULT_TOL, Tolerance, dagger, fro_norm, hermitize

__all__ = [
    "BipartiteState",
    "PptVerdict",
    "validate",
    "block_tensor",
    "assemble_blocks",
    "partial_transpose_a",
    "partial_trace_a",
    "partial_trace_b",
    "is_ppt",
]

# The trace-one contract is fixed independently of Tolerance so that state
# files and reports mean the same thing under any residual settings.
TRACE_ATOL = 1e-10


@dataclass(frozen=True)
class BipartiteState:
    """Validated density matrix on C^dim_a (x) C^dim_b.

    Construct through validate(); rho, the Hermitian part of the matrix
    given, and spectrum, its eigenvalues in descending order, are stored
    read-only.  rho is exactly Hermitian and is the one matrix every
    verdict reads.
    """

    dim_a: int
    dim_b: int
    rho: np.ndarray
    spectrum: np.ndarray


def validate(rho, dim_a: int, dim_b: int, tol: Tolerance = DEFAULT_TOL) -> BipartiteState:
    """Check Hermiticity, unit trace and positivity, then wrap the Hermitian
    part of the matrix (formed here and nowhere else) with the spectrum its
    positivity check computed.  A defect within the Hermiticity bound is
    dropped: the state is its Hermitian part.

    Raises DimensionMismatch, NotDensityMatrix (a NaN or infinite entry),
    NotHermitian, TraceNotOne or NotPsd naming the violated invariant and
    its magnitude.
    """
    if dim_a < 1 or dim_b < 1:
        raise DimensionMismatch(f"dimensions must be positive, got {dim_a}x{dim_b}")
    m = np.array(rho, dtype=np.complex128)
    d = dim_a * dim_b
    if m.shape != (d, d):
        raise DimensionMismatch(f"expected shape ({d}, {d}) for a {dim_a}x{dim_b} state, got {m.shape}")
    if not np.isfinite(m).all():
        raise NotDensityMatrix("matrix has NaN or infinite entries")
    defect = fro_norm(m - dagger(m))
    if defect > tol.eps_residual * max(1.0, fro_norm(m)):
        raise NotHermitian(f"hermiticity defect {defect:.3e}")
    tr = complex(np.trace(m))
    if abs(tr - 1.0) > TRACE_ATOL:
        raise TraceNotOne(f"trace {tr:.17g} deviates from 1 by {abs(tr - 1.0):.3e}")
    h = hermitize(m)
    w = np.ascontiguousarray(npl.eigvalsh(h)[::-1])
    if w[-1] < -tol.eps_psd:
        raise NotPsd(f"min eigenvalue {w[-1]:.3e} below -{tol.eps_psd:.1e}")
    for a in (w, h):
        a.setflags(write=False)
    return BipartiteState(dim_a=dim_a, dim_b=dim_b, rho=h, spectrum=w)


def block_tensor(state: BipartiteState) -> np.ndarray:
    """The blocks of rho as an (M, M, N, N) view: t[k-1, l-1] is block (k, l)."""
    m, n = state.dim_a, state.dim_b
    return state.rho.reshape(m, n, m, n).transpose(0, 2, 1, 3)


def assemble_blocks(blocks) -> np.ndarray:
    """Inverse of block_tensor: stack an (M, M, N, N) block grid into a matrix."""
    t = np.asarray(blocks, dtype=np.complex128)
    if t.ndim != 4 or t.shape[0] != t.shape[1] or t.shape[2] != t.shape[3]:
        raise DimensionMismatch(f"expected an (M, M, N, N) block grid, got shape {t.shape}")
    m, n = t.shape[0], t.shape[2]
    return t.transpose(0, 2, 1, 3).reshape(m * n, m * n)


def partial_transpose_a(state: BipartiteState) -> np.ndarray:
    """Blockwise transpose over A of rho: block (k, l) -> block (l, k)."""
    m, n = state.dim_a, state.dim_b
    return state.rho.reshape(m, n, m, n).transpose(2, 1, 0, 3).reshape(m * n, m * n)


def partial_trace_a(state: BipartiteState) -> np.ndarray:
    """Trace out A: sum_k t[k-1, k-1] over the blocks t = block_tensor(state)."""
    return np.einsum("kkab->ab", block_tensor(state))


def partial_trace_b(state: BipartiteState) -> np.ndarray:
    """Trace out B: the dim_a x dim_a matrix of tr t[k-1, l-1], t = block_tensor(state)."""
    return np.einsum("klaa->kl", block_tensor(state))


@dataclass(frozen=True)
class PptVerdict:
    """Positivity verdict for the partial transpose.

    spectrum holds the eigenvalues of rho^{T_A} in descending order.
    """

    is_ppt: bool
    min_eigenvalue: float
    spectrum: np.ndarray


def is_ppt(state: BipartiteState, tol: Tolerance = DEFAULT_TOL) -> PptVerdict:
    """Spectral test: rho^{T_A} PSD within the eps_psd floor."""
    w = npl.eigvalsh(partial_transpose_a(state))
    lam_min = float(w[0])
    return PptVerdict(
        is_ppt=lam_min >= -tol.eps_psd,
        min_eigenvalue=lam_min,
        spectrum=np.ascontiguousarray(w[::-1]),
    )
