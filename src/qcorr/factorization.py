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
rounding noise, has X_j = X_j^+ = 0 and S = 0.  The reconstruction residual
|X^dagger X - rho|_F reads F itself.

The state is strong PPT (SPPT) when replacing every S_jl by S_jl^dagger
gives a factor Y with Y^dagger Y = rho^{T_A}.  The verdict requires, for
every row j, each S_jk (k > j) normal and S_jk S_jl^dagger = S_jl^dagger S_jk
for j < k < l; together these make the replacement exact.  For 2xN this is
the single condition that S = S_12 is normal.

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
from .bipartite import BipartiteState, block_tensor
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
    under the names is_sppt reports, and reconstruction_residual is
    |F^dagger F - rho|_F.  unexplained_mass is the Frobenius norm of what
    F leaves of rho off the diagonal, the off-block parts outside the range
    of their row's X_j (zero when every X_j has full rank).
    """

    x: np.ndarray
    s: np.ndarray
    residuals: dict[str, float]
    reconstruction_residual: float
    rank_deficient: bool
    unexplained_mass: float


@dataclass(frozen=True)
class SpptVerdict:
    """SPPT decision with every residual that entered it.

    is_sppt requires every normality and cross residual under its threshold,
    a faithful reconstruction and numerical PPT, so is_sppt implies is_ppt
    by construction.  The reconstruction residual is at least sqrt(2) times
    the unexplained mass, what X leaves of rho off the diagonal, so its
    bound also rejects a rank-deficient extraction.  For dim_a >= 3 the
    verdict refers to the canonical gauge.  ppt is the PPT verdict it used.
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
    # the factor X as it is built: f[j, :, l] is block (j, l), so that
    # f.reshape(m n, m n) is X itself
    f = np.zeros((m, n, m, n), dtype=np.complex128)
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
            f[j, :, j] = from_eig(root, v)
            break
        xj, xp = _root_and_pinv(root, keep / np.where(keep, root, 1.0), v)
        f[j, :, j] = xj
        # S_jl = X_j^+ r_l X_j^+ for every l > j at once: row (a, l) of sr is row a of S_jl
        k, off = m - j - 1, r[:, n:]
        sr = (xp @ off).reshape(n * k, n) @ xp
        s[j, j + 1:] = sr.reshape(n, k, n).swapaxes(0, 1)
        f[j, :, j + 1:] = (sr @ xj).reshape(n, k, n)
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
    diag = np.arange(m)
    return SpptFactorization(
        x=f[diag, :, diag],
        s=s,
        residuals=dict(zip(keys, np.sqrt(np.vecdot(c, c).real).tolist())),
        reconstruction_residual=fro_norm(dagger(big_x) @ big_x - state.rho),
        rank_deficient=deficient,
        unexplained_mass=float(np.sqrt(mass_sq)),
    )


def is_sppt(state: BipartiteState, tol: Tolerance = DEFAULT_TOL) -> SpptVerdict:
    """Strong-PPT verdict from the canonical factorization residuals, any dim_a."""
    ppt = bipartite.is_ppt(state, tol)
    f = factorize(state, tol)
    residuals = np.fromiter(f.residuals.values(), float, len(f.residuals))
    _, j, k, l = _conditions(state.dim_a)
    s = f.s.reshape(*f.s.shape[:2], -1)
    norms = np.sqrt(np.vecdot(s, s).real)
    bound = tol.eps_sppt * np.maximum(1.0, norms[j, k] * norms[j, l])
    normal_ok = bool(np.all(residuals <= bound))
    recon_ok = f.reconstruction_residual <= tol.eps_residual
    verdict = bool(normal_ok and recon_ok and ppt.is_ppt)
    return SpptVerdict(
        is_sppt=verdict,
        residuals={
            **f.residuals,
            "reconstruction": f.reconstruction_residual,
            "unexplained_mass": f.unexplained_mass,
            "ppt_min_eigenvalue": ppt.min_eigenvalue,
        },
        rank_deficient=f.rank_deficient,
        factorization=f,
        ppt=ppt,
    )
