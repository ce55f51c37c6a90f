"""Block Cholesky factorization rho = X^dagger X and the strong PPT test.

For an MxN state, any M >= 1, the factor X is upper block-triangular with
diagonal blocks X_j, Hermitian PSD (the canonical gauge), and blocks
F_jl = S_jl X_j above the diagonal.  X is kept as it is built, one (MN, MN)
matrix F filled block row by block row, and is never reassembled.  Row j
first forms the part of rho_jl, l >= j, that rows i < j leave unexplained,
r_l = rho_jl - sum_{i<j} F_ij^dagger F_il, for all l at once as one Gram
product of F's columns above row j.  Its first entry is the Schur complement
M_jj, whose one eigh gives X_j = sqrt(M_jj) with every eigenvalue at or below
the rank cut counted as zero.  Only a row with off blocks (all but the last)
also forms X_j^+, from the same V^dagger as X_j, and the rest of r give its
whole row S_jl = X_j^+ r_l X_j^+, l > j, and F_jl = S_jl X_j by plain 2-D
matrix products; a row that earlier rows explain, whose M_jj is
rounding noise, has X_j = X_j^+ = 0 and S = 0.

The state is strong PPT (SPPT) when replacing every S_jl by S_jl^dagger
gives a factor Y with Y^dagger Y = rho^{T_A}.  Y has X's diagonal blocks and
S_jl^dagger X_j above them, and the row loop fills it next to F.  One
stacked Gram product of F and Y gives X^dagger X - rho and
Y^dagger Y - rho^{T_A}, whose Frobenius norms are the reconstruction and
the definition residual, and is_sppt decides by the definition residual.
For 2xN with rho_11 invertible it is
|rho_12 rho_11^-1 rho_12^dagger - rho_12^dagger rho_11^-1 rho_12|_F, the
difference of the Schur complements of rho^{T_A} and rho, which carries
rho_11^-1 once where S carries X_1^+ twice.  The per-pair conditions, each
S_jk (k > j) normal and S_jk S_jl^dagger = S_jl^dagger S_jk for j < k < l,
are reported only.  Together they make the replacement exact, so they are
sufficient; for dim_a >= 3 they are not necessary, since the terms of a
block of Y^dagger Y - rho^{T_A} can cancel.

When X_j is rank-deficient, X_j F_jl = P r_l P with P its range projector.
No S reproduces the rest, r_l - X_j F_jl, which is what X leaves of rho off
the diagonal (none at full rank): block (j, l) of rho - X^dagger X.  So the
reconstruction residual is at least sqrt(2) times this unexplained mass and
rejects an extraction flagged rank_deficient; flag and mass are reported.

Positivity is validate's decision, made once on rho; factorize never
raises on a state.  Every M_jj is clamped at the rank cut, so an eigenvalue
the cut's projection leaves slightly negative on a valid state counts as
zero, and the reconstruction residual stays the check that X explains rho.
A row after a flagged row whose M_jj falls below -eps_psd keeps X_j as a
best-effort completion, takes X_j^+ = 0 and so extracts S = 0.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import bipartite
from .bipartite import BipartiteState, block_tensor, partial_transpose_a
from .matlib import DEFAULT_TOL, Tolerance, dagger, fro_norm, from_eig

__all__ = [
    "SpptFactorization",
    "SpptVerdict",
    "factorize",
    "is_sppt",
]


@dataclass(frozen=True)
class SpptFactorization:
    """Canonical factorization of an MxN state.

    x[j] is X_{j+1}, the diagonal of the factor F the factorization built
    and checked, shape (M, N, N); s[j, l] is S_{j+1,l+1} for j < l and zero
    elsewhere, shape (M, M, N, N), so F's block above the diagonal is
    s[j, l] @ x[j].  residuals holds the normality and cross residuals of S
    under the names is_sppt reports, reconstruction_residual is
    |F^dagger F - rho|_F, and definition_residual is
    |Y^dagger Y - rho^{T_A}|_F, Y the factor with s[j, l]^dagger in place of
    s[j, l].  unexplained_mass is the Frobenius norm of what F leaves of rho
    off the diagonal, the off-block parts outside the range of their row's
    X_j (zero when every X_j has full rank).
    """

    x: np.ndarray
    s: np.ndarray
    residuals: dict[str, float]
    reconstruction_residual: float
    definition_residual: float
    rank_deficient: bool
    unexplained_mass: float


@dataclass(frozen=True)
class SpptVerdict:
    """SPPT decision with the residuals it read and the per-pair ones beside them.

    is_sppt requires the definition residual |Y^dagger Y - rho^{T_A}|_F at
    most eps_sppt, a faithful reconstruction and numerical PPT, so is_sppt
    implies is_ppt by construction.  The reconstruction residual is at least
    sqrt(2) times the unexplained mass, what X leaves of rho off the
    diagonal, so its bound also rejects a rank-deficient extraction.  The
    normality and cross residuals are reported only: they are sufficient
    for SPPT, and for dim_a >= 3 not necessary.  ppt is the PPT verdict it
    used.
    """

    is_sppt: bool
    residuals: dict[str, float]
    rank_deficient: bool
    factorization: SpptFactorization
    ppt: bipartite.PptVerdict


@functools.lru_cache(maxsize=None)
def _conditions(m: int) -> tuple[tuple[str, ...], np.ndarray, np.ndarray, np.ndarray]:
    """Names and index arrays j, k, l of the SPPT conditions
    S_jk S_jl^dagger = S_jl^dagger S_jk.

    Normality (k = l) for every j < k comes first, then the cross conditions
    j < k < l.  2xN and 3xN keep their established names.
    """
    normal = [(j, k, k) for j in range(m) for k in range(j + 1, m)]
    cross = [(j, k, l) for j in range(m) for k in range(j + 1, m) for l in range(k + 1, m)]
    keys = []
    for j, k, l in normal + cross:
        if k == l:
            keys.append("normality" if m == 2 else f"normality_s{j + 1}{k + 1}")
        else:
            keys.append("cross" if m == 3 else f"cross_s{j + 1}{k + 1}_s{j + 1}{l + 1}")
    index = np.array(normal + cross, dtype=np.intp).reshape(-1, 3).T
    index.setflags(write=False)
    return (tuple(keys), *index)


# Eigenvalues of M_jj at most _EPS_RANK max(tr rho_jj, 0) count as zero in X_j
# and X_j^+ (validate lets a diagonal entry of rho reach -eps_psd); M_jj's own
# largest is no scale when M_jj is all rounding.
_EPS_RANK = 1e-10


def _root_and_pinv(root: np.ndarray, inv: np.ndarray,
                   v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """V diag(root) V^dagger and V diag(inv) V^dagger, from one V^dagger."""
    vh = dagger(v)
    return (v * root) @ vh, (v * inv) @ vh


def factorize(state: BipartiteState, tol: Tolerance = DEFAULT_TOL) -> SpptFactorization:
    """Canonical-gauge block Cholesky factorization of an MxN state, any M >= 1."""
    m, n = state.dim_a, state.dim_b
    # the factors X and Y as they are built: g[0, j, :, l] is block (j, l) of
    # X and g[1, j, :, l] that of Y, so that g.reshape(2, m n, m n) is [X, Y]
    g = np.zeros((2, m, n, m, n), dtype=np.complex128)
    f, y = g
    big_x = f.reshape(m * n, m * n)
    s = np.zeros((m, m, n, n), dtype=np.complex128)
    cut = _EPS_RANK * np.maximum(np.einsum("jjaa->j", block_tensor(state)).real, 0.0)
    deficient, mass_sq = False, 0.0
    for j in range(m):
        # r = [M_jj | r_{j+1} | ... | r_m], r_l = rho_jl - sum_{i<j} F_ij^dagger F_il:
        # block row j of rho from the diagonal on, less one Gram product of X's columns
        lo, hi = j * n, (j + 1) * n
        r = state.rho[lo:hi, lo:]
        if j:
            r = r - dagger(big_x[:lo, lo:hi]) @ big_x[:lo, lo:]
        w, v = np.linalg.eigh(r[:, :n])
        keep = w > cut[j]
        root = np.sqrt(np.where(keep, w, 0.0))
        if deficient and w[0] < -tol.eps_psd:
            keep[:] = False  # best-effort completion of a flagged extraction: X_j^+ = 0
        # the last row has no off blocks: stop before X_j^+, their (empty)
        # extraction and the mass check, which on a 2x2 state cost more than
        # the row's eigh
        if j + 1 == m:
            g[:, j, :, j] = from_eig(root, v)
            break
        xj, xp = _root_and_pinv(root, keep / np.where(keep, root, 1.0), v)
        g[:, j, :, j] = xj
        # S_jl = X_j^+ r_l X_j^+ for every l > j at once: row (a, l) of sr is row a of S_jl
        k, off = m - j - 1, r[:, n:]
        sr = (xp @ off).reshape(n * k, n) @ xp
        s[j, j + 1:] = sr.reshape(n, k, n).swapaxes(0, 1)
        f[j, :, j + 1:] = (sr @ xj).reshape(n, k, n)
        y[j, :, j + 1:] = (dagger(s[j, j + 1:]) @ xj).swapaxes(0, 1)
        if not keep.all():
            # X_j F_jl = P r_l P, P the range projector of X_j: what the row
            # leaves of r_l is its mass outside that range; none at full rank
            outside = off - xj @ f[j, :, j + 1:].reshape(n, k * n)
            outside = outside.reshape(n, k, n).swapaxes(0, 1).reshape(k, n * n)
            mass = np.sqrt(np.vecdot(outside, outside).real)
            mass_sq += float(mass @ mass)
            deficient = deficient or bool((mass > tol.eps_residual).any())
    keys, j, k, l = _conditions(m)
    a, bd = s[j, k], dagger(s[j, l])
    # (len(j), n * n), not -1: dim_a = 1 has no conditions and an empty stack
    c = (a @ bd - bd @ a).reshape(len(j), n * n)
    # X^dagger X - rho and Y^dagger Y - rho^{T_A} from one stacked Gram product
    big = g.reshape(2, m * n, m * n)
    gram = dagger(big) @ big
    gram[0] -= state.rho
    gram[1] -= partial_transpose_a(state)
    diag = np.arange(m)
    return SpptFactorization(
        x=f[diag, :, diag],
        s=s,
        residuals=dict(zip(keys, np.sqrt(np.vecdot(c, c).real).tolist())),
        reconstruction_residual=fro_norm(gram[0]),
        definition_residual=fro_norm(gram[1]),
        rank_deficient=deficient,
        unexplained_mass=float(np.sqrt(mass_sq)),
    )


def is_sppt(state: BipartiteState, tol: Tolerance = DEFAULT_TOL) -> SpptVerdict:
    """Strong-PPT verdict by the definition, Y^dagger Y = rho^{T_A}, any dim_a."""
    ppt = bipartite.is_ppt(state, tol)
    f = factorize(state, tol)
    verdict = bool(f.definition_residual <= tol.eps_sppt
                   and f.reconstruction_residual <= tol.eps_residual and ppt.is_ppt)
    return SpptVerdict(
        is_sppt=verdict,
        residuals={
            **f.residuals,
            "definition": f.definition_residual,
            "reconstruction": f.reconstruction_residual,
            "unexplained_mass": f.unexplained_mass,
            "ppt_min_eigenvalue": ppt.min_eigenvalue,
        },
        rank_deficient=f.rank_deficient,
        factorization=f,
        ppt=ppt,
    )
