"""Block Cholesky factorization rho = X^dagger X and the strong PPT test.

For an MxN state, any M >= 1, the factor X is upper block-triangular with
diagonal blocks X_j, Hermitian PSD (the canonical gauge), and blocks
S_jl X_j above the diagonal.  It is built row by row: the Schur complement
M_jj = rho_jj - sum_{i<j} X_i S_ij^dagger S_ij X_i gives X_j = sqrt(M_jj),
and S_jl = X_j^+ (rho_jl - sum_{i<j} X_i S_ij^dagger S_il X_i) X_j^+.

The state is strong PPT (SPPT) when replacing every S_jl by S_jl^dagger
gives a factor Y with Y^dagger Y = rho^{T_A}.  The verdict requires, for
every row j, each S_jk (k > j) normal and S_jk S_jl^dagger = S_jl^dagger S_jk
for j < k < l; together these make the replacement exact.  For 2xN this is
the single condition that S = S_12 is normal.

When X_j is rank-deficient and the off blocks of row j carry mass outside
its range, no S reproduces them and the canonical extraction cannot decide
SPPT; the factorization is then flagged rank_deficient, the unexplained mass
is reported, and the verdict is negative rather than silently passed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import bipartite
from .bipartite import BipartiteState, block_tensor
from .errors import DimensionMismatch, InconsistentBlocks, NotPsd, NotUnitary
from .matlib import DEFAULT_TOL, Tolerance, dagger, fro_norm, hermitize

__all__ = [
    "SpptFactorization",
    "SpptVerdict",
    "factorize",
    "assemble_x",
    "canonical_y",
    "gauge_transform",
    "is_sppt",
]


@dataclass(frozen=True)
class SpptFactorization:
    """Canonical factorization of an MxN state.

    x[j] is X_{j+1}, shape (M, N, N); s[j, l] is S_{j+1,l+1} for j < l and
    zero elsewhere, shape (M, M, N, N).  residuals holds the normality and
    cross residuals of S under the names is_sppt reports.  unexplained_mass
    is the Frobenius norm of the off-block parts outside the range of their
    row's X_j (zero when every X_j has full rank); rho is the factorized
    matrix.
    """

    x: np.ndarray
    s: np.ndarray
    residuals: dict[str, float]
    reconstruction_residual: float
    rank_deficient: bool
    unexplained_mass: float
    rho: np.ndarray


@dataclass(frozen=True)
class SpptVerdict:
    """SPPT decision with every residual that entered it.

    is_sppt requires every normality and cross residual under its threshold,
    a faithful reconstruction, numerical PPT, and a decidable extraction
    (rank_deficient false), so is_sppt implies is_ppt by construction.  For
    dim_a >= 3 the verdict refers to the canonical gauge.  ppt is the PPT
    verdict the decision used.
    """

    is_sppt: bool
    residuals: dict[str, float]
    rank_deficient: bool
    factorization: SpptFactorization
    ppt: bipartite.PptVerdict


@functools.lru_cache(maxsize=None)
def _conditions(m: int) -> tuple[tuple[str, int, int, int], ...]:
    """(key, j, k, l) for each SPPT condition S_jk S_jl^dagger = S_jl^dagger S_jk.

    Normality (k = l) for every j < k comes first, then the cross conditions
    j < k < l.  2xN and 3xN keep their established names.
    """
    normal = [(j, k, k) for j in range(m) for k in range(j + 1, m)]
    cross = [(j, k, l) for j in range(m) for k in range(j + 1, m) for l in range(k + 1, m)]
    out = []
    for j, k, l in normal + cross:
        if k == l:
            key = "normality" if m == 2 else f"normality_s{j + 1}{k + 1}"
        else:
            key = "cross" if m == 3 else f"cross_s{j + 1}{k + 1}_s{j + 1}{l + 1}"
        out.append((key, j, k, l))
    return tuple(out)


# Eigenvalues at most _EPS_RANK times the largest count as zero in a pseudoinverse.
_EPS_RANK = 1e-10


def _sqrt_with_pinv(m: np.ndarray, tol: Tolerance, scale: float):
    """Clamped PSD sqrt of the Hermitian part of m plus the pseudoinverse of
    that sqrt, from one eigh.

    Eigenvalues below -eps_psd * scale raise NotPsd; scale=np.inf clamps
    every negative eigenvalue to zero instead.
    """
    w, v = np.linalg.eigh(hermitize(m))
    w, v = w[::-1], v[:, ::-1]
    lam_min = float(w[-1])
    if lam_min < -tol.eps_psd * scale:
        raise NotPsd(f"min eigenvalue {lam_min:.3e} below -{tol.eps_psd * scale:.3e}")
    lam = np.clip(w, 0.0, None)
    cut = _EPS_RANK * (float(lam[0]) if lam.size else 0.0)
    keep = lam > cut
    root = np.sqrt(lam)
    inv = np.zeros_like(lam)
    inv[keep] = 1.0 / root[keep]
    x = hermitize((v * root) @ dagger(v))
    xp = hermitize((v * inv) @ dagger(v))
    return x, xp, int(np.count_nonzero(keep))


def _factor(x: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Upper block-triangular matrix with diagonal blocks x[j] and s[j, l] x[j] above."""
    m, n = x.shape[:2]
    out = np.zeros((m * n, m * n), dtype=np.complex128)
    for j in range(m):
        out[j * n:(j + 1) * n, j * n:(j + 1) * n] = x[j]
        for l in range(j + 1, m):
            out[j * n:(j + 1) * n, l * n:(l + 1) * n] = s[j, l] @ x[j]
    return out


def _finished(x, s, rho, rank_deficient: bool, unexplained_mass: float) -> SpptFactorization:
    """The factorization record, with every residual computed from x and s."""
    residuals = {}
    for key, j, k, l in _conditions(len(x)):
        sd = dagger(s[j, l])
        residuals[key] = fro_norm(s[j, k] @ sd - sd @ s[j, k])
    big_x = _factor(x, s)
    return SpptFactorization(
        x=x,
        s=s,
        residuals=residuals,
        reconstruction_residual=fro_norm(dagger(big_x) @ big_x - rho),
        rank_deficient=rank_deficient,
        unexplained_mass=unexplained_mass,
        rho=rho,
    )


def _unexplained(t: np.ndarray, x: np.ndarray, s: np.ndarray, j: int, l: int) -> np.ndarray:
    """rho_jl minus the part explained by rows i < j, sum_i X_i S_ij^dagger S_il X_i."""
    r = t[j, l]
    for i in range(j):
        r = r - x[i] @ dagger(s[i, j]) @ s[i, l] @ x[i]
    return r


def factorize(state: BipartiteState, tol: Tolerance = DEFAULT_TOL) -> SpptFactorization:
    """Canonical-gauge block Cholesky factorization of an MxN state, any M >= 1."""
    t = block_tensor(state)
    m, n = state.dim_a, state.dim_b
    scale = max(1.0, fro_norm(state.rho))
    x = np.zeros((m, n, n), dtype=np.complex128)
    s = np.zeros((m, m, n, n), dtype=np.complex128)
    deficient = False
    mass_sq = 0.0
    for j in range(m):
        m_jj = _unexplained(t, x, s, j, j)
        try:
            x[j], xp, rank = _sqrt_with_pinv(m_jj, tol, scale)
        except NotPsd as exc:
            if j == 0:  # a diagonal block of rho itself
                raise
            if not deficient:
                raise InconsistentBlocks(
                    f"rho{j + 1}{j + 1} minus the explained part is not PSD: {exc}"
                ) from exc
            # best-effort completion of a flagged rank-deficient extraction
            x[j], xp, rank = _sqrt_with_pinv(m_jj, tol, np.inf)[0], np.zeros((n, n)), 0
        if j + 1 == m:
            break
        proj = hermitize(x[j] @ xp)
        for l in range(j + 1, m):
            r = _unexplained(t, x, s, j, l)
            s[j, l] = xp @ r @ xp
            mass = fro_norm(r - proj @ r @ proj)
            mass_sq += mass**2
            deficient = deficient or (rank < n and mass > tol.eps_residual * scale)
    return _finished(x, s, state.rho, deficient, float(np.sqrt(mass_sq)))


def assemble_x(f: SpptFactorization) -> np.ndarray:
    """The upper block-triangular factor X with rho = X^dagger X."""
    return _factor(f.x, f.s)


def canonical_y(f: SpptFactorization) -> np.ndarray:
    """Y^dagger Y for the factor Y obtained by replacing every S_jl with S_jl^dagger.

    Equals the partial transpose of the factorized state exactly when the
    normality and cross conditions of the SPPT certificate hold.
    """
    y = _factor(f.x, dagger(f.s))
    return dagger(y) @ y


def gauge_transform(
    f: SpptFactorization, unitaries, tol: Tolerance = DEFAULT_TOL
) -> SpptFactorization:
    """Apply the gauge freedom X_j -> G_j X_j, S_jl -> G_j S_jl G_j^dagger.

    unitaries holds one unitary G_j per A level.  The factorized state, the
    normality and cross residuals and the SPPT verdict are invariant (the
    residuals are recomputed from the transformed factors, so equality is
    numerical, not assumed).
    """
    m, n = f.x.shape[:2]
    gs = [np.asarray(g, dtype=np.complex128) for g in unitaries]
    if len(gs) != m:
        raise DimensionMismatch(f"expected {m} unitaries, got {len(gs)}")
    for j, g in enumerate(gs, 1):
        if g.shape != (n, n):
            raise DimensionMismatch(f"g{j} must be {n}x{n}, got {g.shape}")
        if not np.isfinite(g).all():
            raise NotUnitary(f"g{j} has NaN or infinite entries")
        defect = fro_norm(dagger(g) @ g - np.eye(n))
        if defect > tol.eps_residual:
            raise NotUnitary(f"g{j} unitarity defect {defect:.3e}")
    g = np.array(gs)
    # rank_deficient and unexplained_mass are gauge-invariant; carried over
    return _finished(g @ f.x, g[:, None] @ f.s @ dagger(g)[:, None], f.rho,
                     f.rank_deficient, f.unexplained_mass)


def is_sppt(state: BipartiteState, tol: Tolerance = DEFAULT_TOL) -> SpptVerdict:
    """Strong-PPT verdict from the canonical factorization residuals, any dim_a."""
    ppt = bipartite.is_ppt(state, tol)
    scale = max(1.0, fro_norm(state.rho))
    f = factorize(state, tol)
    normal_ok = all(
        f.residuals[key] <= tol.eps_sppt * max(1.0, fro_norm(f.s[j, k]) * fro_norm(f.s[j, l]))
        for key, j, k, l in _conditions(state.dim_a)
    )
    recon_ok = f.reconstruction_residual <= tol.eps_residual * scale
    verdict = bool(normal_ok and recon_ok and ppt.is_ppt and not f.rank_deficient)
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
