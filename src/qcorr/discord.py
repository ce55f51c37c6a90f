"""Entropic correlation measures and classical-quantum structure detection.

Everything here is in bits (base-2 logarithms).  Measurements on the A side
are rank-1 projective: for a qubit they are parameterized by Bloch angles
(theta, phi); for a qutrit A side the optimizer works over U(3) modulo
column phases through a product of three phased Givens rotations.

The classical correlation C_A is the supremum over measurements of
S(rho_B) - sum_k p_k S(rho_B|k) and never exceeds the mutual information,
so the search can stop as soon as it gets within a fraction of eps_opt of
that bound; this early exit is exact for classical-quantum inputs, where
the marginal eigenbasis already attains the supremum.

Classical-quantum detection (cq_detect) involves no search: it is a joint
diagonalization by Jacobi sweeps whose pair rotations are closed forms, and
it serves any dim_a.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import minimize

from .bipartite import (
    BipartiteState,
    block_tensor,
    partial_trace_a,
    partial_trace_b,
)
from .errors import DimensionMismatch, InvalidParams, NotDensityMatrix
from .families import random_unitary
from .matlib import (
    DEFAULT_TOL,
    Tolerance,
    commutator,
    dagger,
    fro_norm,
    hermitian_eig,
    hermitize,
)

__all__ = [
    "OptimizerConfig",
    "DEFAULT_OPT",
    "QubitMeasurement",
    "DiscordReport",
    "CqVerdict",
    "von_neumann_entropy",
    "mutual_information",
    "conditional_state",
    "conditional_entropy",
    "classical_correlation_a",
    "discord_a",
    "commutator_criterion",
    "cq_detect",
]


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs for the measurement search of discord_a.

    grid_theta x grid_phi coarse Bloch-sphere grid, then Nelder-Mead
    refinement (refine_maxfev evaluations, refine_ftol objective tolerance).
    eps_opt is the absolute accuracy the optimum is trusted to.  The *_3d
    fields control the qutrit-side search: the rho_A eigenbasis, the
    identity, then starts_3d - 2 seeded Haar unitaries drawn from PCG64 with
    random_seed, each refined for at most refine_maxfev_3d evaluations.
    None of the fields affects cq_detect.
    """

    grid_theta: int = 64
    grid_phi: int = 128
    refine_maxfev: int = 200
    refine_ftol: float = 1e-9
    eps_opt: float = 1e-4
    starts_3d: int = 6
    refine_maxfev_3d: int = 400
    random_seed: int = 20260815


DEFAULT_OPT = OptimizerConfig()


def _canonical_angles(theta: float, phi: float) -> tuple[float, float]:
    theta = float(theta) % (2.0 * np.pi)
    if theta > np.pi:
        theta = 2.0 * np.pi - theta
        phi = phi + np.pi
    return theta, float(phi) % (2.0 * np.pi)


@dataclass(frozen=True)
class QubitMeasurement:
    """Rank-1 projective qubit measurement along the Bloch direction (theta, phi).

    Outcome +1 projects onto (cos(theta/2), e^{i phi} sin(theta/2)); outcome
    -1 onto its orthogonal complement.  The two projectors sum to the
    identity exactly because the minus projector is constructed as I - Pi_plus.
    """

    theta: float
    phi: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.theta <= np.pi):
            raise InvalidParams(f"theta must lie in [0, pi], got {self.theta}")
        if not (0.0 <= self.phi < 2.0 * np.pi):
            raise InvalidParams(f"phi must lie in [0, 2 pi), got {self.phi}")

    def vector(self, k: int) -> np.ndarray:
        """Unit vector of outcome k in {+1, -1}."""
        c = np.cos(self.theta / 2.0)
        s = np.sin(self.theta / 2.0)
        e = np.exp(1j * self.phi)
        if k == 1:
            return np.array([c, e * s], dtype=np.complex128)
        if k == -1:
            return np.array([-np.conj(e) * s, c], dtype=np.complex128)
        raise InvalidParams(f"outcome must be +1 or -1, got {k}")

    def projectors(self) -> tuple[np.ndarray, np.ndarray]:
        """(Pi_plus, Pi_minus) with Pi_plus + Pi_minus = I exactly."""
        v = self.vector(+1)
        pi_plus = np.outer(v, np.conj(v))
        return pi_plus, np.eye(2, dtype=np.complex128) - pi_plus


@dataclass(frozen=True)
class DiscordReport:
    """Mutual information, classical correlation and their difference.

    discord = max(0, mutual_information - classical_correlation).  For a
    qubit A side optimal_measurement carries the maximizing Bloch angles and
    grid_resolution the number of coarse-grid points; for a qutrit A side
    the maximizing basis is in optimal_basis (columns are the measurement
    vectors) and optimal_measurement is None.
    """

    mutual_information: float
    classical_correlation: float
    discord: float
    optimal_measurement: QubitMeasurement | None
    optimizer_evals: int
    grid_resolution: int
    optimal_basis: np.ndarray | None = None


@dataclass(frozen=True)
class CqVerdict:
    """Outcome of the classical-quantum structure test.

    off_block_residual is the Frobenius norm of the strict upper off-diagonal
    blocks in the best product basis found; is_cq holds when it is at most
    eps_cq.  basis columns are the classical A-side vectors and sigma_list
    the (unnormalized, PSD-clamped) conditional B-side operators; both are
    None when the state is not classical-quantum.
    """

    is_cq: bool
    basis: np.ndarray | None
    off_block_residual: float
    sigma_list: list[np.ndarray] | None


def _entropy_bits(w: np.ndarray) -> float:
    w = np.clip(np.asarray(w, dtype=np.float64), 0.0, None)
    nz = w > 0.0
    if not np.any(nz):
        return 0.0
    return float(-(w[nz] * np.log2(w[nz])).sum())


def von_neumann_entropy(sigma, tol: Tolerance = DEFAULT_TOL) -> float:
    """S(sigma) = -tr(sigma log2 sigma) of a density matrix, in bits."""
    a = np.asarray(sigma, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotDensityMatrix(f"expected a square matrix, got shape {a.shape}")
    scale = max(1.0, fro_norm(a))
    defect = fro_norm(a - dagger(a))
    if defect > tol.eps_residual * scale:
        raise NotDensityMatrix(f"hermiticity defect {defect:.3e}")
    tr = complex(np.trace(a))
    if abs(tr - 1.0) > 1e-10:
        raise NotDensityMatrix(f"trace {tr:.12g} is not 1")
    w = np.linalg.eigvalsh(hermitize(a))
    if float(w[0]) < -tol.eps_psd * scale:
        raise NotDensityMatrix(f"min eigenvalue {float(w[0]):.3e} is negative")
    return _entropy_bits(w)


def _entropy_of(m: np.ndarray) -> float:
    return _entropy_bits(np.linalg.eigvalsh(hermitize(m)))


def mutual_information(state: BipartiteState, tol: Tolerance = DEFAULT_TOL) -> float:
    """I(rho) = S(rho_A) + S(rho_B) - S(rho), clamped at 0."""
    s_a = _entropy_of(partial_trace_b(state))
    s_b = _entropy_of(partial_trace_a(state))
    s_ab = _entropy_of(state.rho)
    return max(0.0, s_a + s_b - s_ab)


def conditional_state(
    state: BipartiteState, m: QubitMeasurement, k: int, tol: Tolerance = DEFAULT_TOL
) -> tuple[float, np.ndarray]:
    """Outcome probability and post-measurement B-side state for outcome k.

    p_k = tr[(Pi_k x I) rho]; the returned sigma is the renormalized B-side
    reduction.  When p_k <= eps_prob the outcome never occurs; the returned
    probability (<= eps_prob) is the marker and sigma is the maximally mixed
    placeholder.
    """
    if state.dim_a != 2:
        raise DimensionMismatch(f"qubit measurement on dim_a = {state.dim_a}")
    v = m.vector(k)
    b = block_tensor(state)
    sig = np.einsum("i,j,ijab->ab", np.conj(v), v, b)
    p = float(np.trace(sig).real)
    if p <= tol.eps_prob:
        n = state.dim_b
        return max(p, 0.0), np.eye(n, dtype=np.complex128) / n
    return p, hermitize(sig / p)


def _cond_entropy_batch(coef: np.ndarray, b: np.ndarray, eps_prob: float) -> np.ndarray:
    """Sum_k p_k S(sigma_k) for a batch of measurements.

    coef has shape (..., K, M, M) with coef[..., k, i, j] = conj(v_i) v_j for
    outcome vector v of outcome k; returns shape (...,).
    """
    sig = np.einsum("...kij,ijab->...kab", coef, b)
    p = np.einsum("...kaa->...k", sig).real
    w = np.clip(np.linalg.eigvalsh(sig), 0.0, None)
    wlog = np.where(w > 0.0, w * np.log2(np.where(w > 0.0, w, 1.0)), 0.0)
    plog = np.where(p > eps_prob, p * np.log2(np.where(p > eps_prob, p, 1.0)), 0.0)
    contrib = np.where(p > eps_prob, -wlog.sum(axis=-1) + plog, 0.0)
    return contrib.sum(axis=-1)


def conditional_entropy(
    state: BipartiteState, m: QubitMeasurement, tol: Tolerance = DEFAULT_TOL
) -> float:
    """Sum over outcomes of p_k S(sigma_B|k), in bits."""
    if state.dim_a != 2:
        raise DimensionMismatch(f"qubit measurement on dim_a = {state.dim_a}")
    b = block_tensor(state)
    coef = np.stack(
        [np.einsum("i,j->ij", np.conj(m.vector(k)), m.vector(k)) for k in (+1, -1)]
    )
    return float(_cond_entropy_batch(coef, b, tol.eps_prob))


@lru_cache(maxsize=8)
def _sphere_grid(n_theta: int, n_phi: int):
    """Cached angle grid: thetas, phis and the outcome coefficient tensor."""
    theta = np.linspace(0.0, np.pi, n_theta)
    phi = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    tt = np.repeat(theta, n_phi)
    pp = np.tile(phi, n_theta)
    c = np.cos(tt / 2.0)
    s = np.sin(tt / 2.0)
    e = np.exp(1j * pp)
    vp = np.stack([c, e * s], axis=1)
    vm = np.stack([-np.conj(e) * s, c], axis=1)
    coef = np.stack(
        [
            np.einsum("gi,gj->gij", np.conj(vp), vp),
            np.einsum("gi,gj->gij", np.conj(vm), vm),
        ],
        axis=1,
    )
    for arr in (tt, pp, coef):
        arr.setflags(write=False)
    return tt, pp, coef


def _qubit_coef(theta: float, phi: float) -> np.ndarray:
    c = np.cos(theta / 2.0)
    s = np.sin(theta / 2.0)
    e = np.exp(1j * phi)
    vp = np.array([c, e * s], dtype=np.complex128)
    vm = np.array([-np.conj(e) * s, c], dtype=np.complex128)
    return np.stack(
        [np.einsum("i,j->ij", np.conj(v), v) for v in (vp, vm)]
    )


def _cc_qubit(state: BipartiteState, opt: OptimizerConfig, tol: Tolerance, mi: float):
    b = block_tensor(state)
    s_b = _entropy_of(partial_trace_a(state))
    tt, pp, coef = _sphere_grid(opt.grid_theta, opt.grid_phi)
    values = s_b - _cond_entropy_batch(coef, b, tol.eps_prob)
    g = int(np.argmax(values))
    best = float(values[g])
    theta, phi = float(tt[g]), float(pp[g])
    evals = values.size
    # the objective never exceeds mi, so within a sliver of it is converged
    if mi - best > 0.25 * opt.eps_opt:
        def neg(x):
            return float(
                _cond_entropy_batch(_qubit_coef(x[0], x[1]), b, tol.eps_prob) - s_b
            )

        res = minimize(
            neg,
            np.array([theta, phi]),
            method="Nelder-Mead",
            options={
                "maxfev": opt.refine_maxfev,
                "fatol": opt.refine_ftol,
                "xatol": 1e-8,
            },
        )
        evals += int(res.nfev)
        if -float(res.fun) > best:
            best = -float(res.fun)
            theta, phi = _canonical_angles(float(res.x[0]), float(res.x[1]))
    return max(0.0, best), QubitMeasurement(theta, phi), evals, values.size


def _givens(n: int, p: int, q: int, theta: float, phi: float) -> np.ndarray:
    g = np.eye(n, dtype=np.complex128)
    c, s, e = np.cos(theta), np.sin(theta), np.exp(1j * phi)
    g[p, p] = c
    g[q, q] = c
    g[p, q] = -np.conj(e) * s
    g[q, p] = e * s
    return g


def _chart_u3(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    # covers U(3) modulo right (column) phases; x = 0 gives w itself
    return (
        w
        @ _givens(3, 0, 1, x[0], x[1])
        @ _givens(3, 0, 2, x[2], x[3])
        @ _givens(3, 1, 2, x[4], x[5])
    )


def _basis_coef(u: np.ndarray) -> np.ndarray:
    return np.einsum("ik,jk->kij", np.conj(u), u)


def _cc_qutrit(state: BipartiteState, opt: OptimizerConfig, tol: Tolerance, mi: float):
    b = block_tensor(state)
    s_b = _entropy_of(partial_trace_a(state))
    eig_a = hermitian_eig(partial_trace_b(state), tol)
    starts = [eig_a.eigenvectors, np.eye(3, dtype=np.complex128)]
    rng = np.random.default_rng(opt.random_seed)
    for _ in range(max(0, opt.starts_3d - 2)):
        starts.append(random_unitary(3, rng))

    best = -np.inf
    u_best = starts[0]
    evals = 0
    x0 = np.zeros(6)
    for w in starts:
        def neg(x, w=w):
            return float(
                _cond_entropy_batch(_basis_coef(_chart_u3(x, w)), b, tol.eps_prob) - s_b
            )

        val = -neg(x0)
        evals += 1
        if val > best:
            best, u_best = val, w
        if mi - best <= 0.25 * opt.eps_opt:
            break
        res = minimize(
            neg,
            x0,
            method="Nelder-Mead",
            options={
                "maxfev": opt.refine_maxfev_3d,
                "fatol": opt.refine_ftol,
                "xatol": 1e-8,
            },
        )
        evals += int(res.nfev)
        if -float(res.fun) > best:
            best = -float(res.fun)
            u_best = _chart_u3(res.x, w)
        if mi - best <= 0.25 * opt.eps_opt:
            break
    return max(0.0, best), u_best, evals, 0


def classical_correlation_a(
    state: BipartiteState,
    opt: OptimizerConfig = DEFAULT_OPT,
    tol: Tolerance = DEFAULT_TOL,
) -> tuple[float, QubitMeasurement]:
    """Maximal S(rho_B) - conditional entropy over qubit measurements on A."""
    if state.dim_a != 2:
        raise DimensionMismatch(f"qubit measurement search needs dim_a = 2, got {state.dim_a}")
    mi = mutual_information(state, tol)
    value, meas, _, _ = _cc_qubit(state, opt, tol, mi)
    return value, meas


def discord_a(
    state: BipartiteState,
    opt: OptimizerConfig = DEFAULT_OPT,
    tol: Tolerance = DEFAULT_TOL,
) -> DiscordReport:
    """Quantum discord of the A side: mutual information minus C_A."""
    mi = mutual_information(state, tol)
    if state.dim_a == 2:
        cc, meas, evals, grid = _cc_qubit(state, opt, tol, mi)
        basis = None
    elif state.dim_a == 3:
        cc, basis, evals, grid = _cc_qutrit(state, opt, tol, mi)
        meas = None
    else:
        raise DimensionMismatch(f"discord search defined for dim_a in {{2, 3}}, got {state.dim_a}")
    return DiscordReport(
        mutual_information=mi,
        classical_correlation=cc,
        discord=max(0.0, mi - cc),
        optimal_measurement=meas,
        optimizer_evals=evals,
        grid_resolution=grid,
        optimal_basis=basis,
    )


def commutator_criterion(state: BipartiteState) -> float:
    """Frobenius norm of [rho, rho_A x I_B]; zero is necessary for zero discord."""
    rho_a = partial_trace_b(state)
    return fro_norm(commutator(state.rho, np.kron(rho_a, np.eye(state.dim_b))))


# Jacobi sweeps stop once a sweep lowers the off-block mass by no more than
# this fraction of it; the sweep cap only guards against a stalled loop.
_SWEEP_RTOL = 1e-15
_MAX_SWEEPS = 100


def _off_mass(blocks: np.ndarray) -> float:
    m = blocks.shape[0]
    return float(sum(fro_norm(blocks[k, l]) ** 2 for k in range(m) for l in range(k + 1, m)))


def _rotate_pair(bp: np.ndarray, basis: np.ndarray, p: int, q: int) -> None:
    """Rotate basis columns p, q to minimize the (p, q) off-block, in place.

    Writing the pair's 2x2 block grid as sum_mu sigma_mu (x) A_mu, the
    rotation whose first vector has Bloch direction n leaves
    tr(Gamma) - n^T Gamma n in the off-block, Gamma_{mu nu} = Re tr(A_mu A_nu)
    over (x, y, z); the top eigenvector of Gamma is the global minimizer.
    Blocks coupling p or q to other indices only mix among themselves.
    """
    b_pp, b_pq, b_qp, b_qq = bp[p, p], bp[p, q], bp[q, p], bp[q, q]
    comps = np.stack([b_pq + b_qp, 1j * (b_pq - b_qp), b_pp - b_qq]).reshape(3, -1) / 2
    n = np.linalg.eigh((comps.conj() @ comps.T).real)[1][:, -1]
    if n[2] < 0.0:
        n = -n
    c = np.sqrt((1.0 + n[2]) / 2.0)
    z = (n[0] + 1j * n[1]) / (2.0 * c)
    u = np.array([[c, -np.conj(z)], [z, c]])
    pq = [p, q]
    bp[pq] = np.einsum("ik,i...->k...", u.conj(), bp[pq])
    bp[:, pq] = np.einsum("jl,kj...->kl...", u, bp[:, pq])
    basis[:, pq] = basis[:, pq] @ u


def _psd_clamp(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(hermitize(m))
    return hermitize((v * np.clip(w, 0.0, None)) @ dagger(v))


def cq_detect(
    state: BipartiteState,
    tol: Tolerance = DEFAULT_TOL,
    opt: OptimizerConfig = DEFAULT_OPT,
) -> CqVerdict:
    """Decide whether the state is classical-quantum on the A side, any dim_a.

    The search space is the orthonormal A-side bases; any such basis must
    diagonalize rho_A, so the blocks are rotated to the rho_A eigenbasis and
    only rotations inside degenerate eigenvalue clusters (gap at most
    eps_degenerate) remain free.  Those rotations leave the off-block mass
    between clusters unchanged; inside the clusters it is minimized by
    Jacobi sweeps over index pairs, each pair rotation in closed form (see
    _rotate_pair), so a 2-fold cluster is solved by one rotation, and when
    no cluster has more than two levels a single sweep is final.  A
    commutator above eps_residual short-circuits to a negative verdict,
    reporting the plain eigenbasis residual.  opt is accepted for
    compatibility and no longer affects the result.
    """
    m = state.dim_a
    b = block_tensor(state)
    eig = hermitian_eig(partial_trace_b(state), tol)
    basis = eig.eigenvectors.copy()
    bp = np.einsum("ik,jl,ijab->klab", np.conj(basis), basis, b)

    if commutator_criterion(state) > tol.eps_residual:
        return CqVerdict(
            is_cq=False,
            basis=None,
            off_block_residual=float(np.sqrt(_off_mass(bp))),
            sigma_list=None,
        )

    # the eigenvalues descend, so a cluster is a run of gaps <= eps_degenerate
    lam = eig.eigenvalues
    cluster = np.cumsum(np.r_[0, lam[:-1] - lam[1:] > tol.eps_degenerate])
    pairs = [(p, q) for p in range(m) for q in range(p + 1, m) if cluster[p] == cluster[q]]
    # no cluster above 2 levels: each rotation is exact and touches no other
    # pair, so one sweep is the minimum
    disjoint = np.bincount(cluster).max() <= 2

    mass = _off_mass(bp)
    for _ in range(_MAX_SWEEPS):
        if not pairs or mass == 0.0:
            break
        for p, q in pairs:
            _rotate_pair(bp, basis, p, q)
        last, mass = mass, _off_mass(bp)
        if disjoint or last - mass <= _SWEEP_RTOL * last:
            break

    off = float(np.sqrt(mass))
    if off > tol.eps_cq:
        return CqVerdict(is_cq=False, basis=None, off_block_residual=off, sigma_list=None)
    sigma_list = [_psd_clamp(bp[k, k]) for k in range(m)]
    return CqVerdict(is_cq=True, basis=basis, off_block_residual=off, sigma_list=sigma_list)
