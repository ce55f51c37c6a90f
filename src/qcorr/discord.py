"""Entropic correlation measures and classical-quantum structure detection.

Everything here is in bits (base-2 logarithms).  Measurements on the A side
are rank-1 projective, given by an orthonormal basis of C^dim_a whose
columns are the measurement vectors.

The classical correlation C_A is the supremum over measurements of
S(rho_B) - H with H = sum_k p_k S(rho_B|k) >= 0, so it never exceeds the
mutual information nor S(rho_B), and the search can stop as soon as it gets
within a fraction of eps_opt of either bound.  This early exit, tried on
the rho_A eigenbasis first, is exact for classical-quantum inputs, where
that basis attains the mutual information, and for pure states, where it
is a Schmidt basis with H = 0.  Otherwise the eigenbasis and the
eigenbases of the singular operators of rho - rho_A x rho_B and of the two
bisectors of the leading pair are scored, and the best dim_a are refined by
BFGS on the unitary group U(dim_a) modulo column phases, with the analytic
gradient of the conditional entropy.  The starts are refined together in
rounds: each round takes one batched exp(K), one batched line-search trial
and one batched gradient over the starts still active, and each start keeps
its own line search and inverse Hessian.  One evaluator, _trial, gives
every value of the conditional entropy the search takes: the scores and
the trials.  It decomposes the conditional states once, and the gradient
at a scored start or an accepted trial reuses that decomposition, so no
start is evaluated twice.  Each of its contractions over the blocks of rho
is one matmul.  The exit's value comes from the state's Frame, built by
prepare: rho_A's eigenpairs and the block grid T rotated to the
eigenbasis, whose diagonal blocks are the sigma_k the exit decomposes.
cq_detect reads the same Frame.  analysis.analyze, the one caller outside
this module, prepares one Frame per state and passes it to both; a call
without one prepares its own, and nothing is kept across calls.  The
rho_A eigenbasis alone is scored twice: by the exit from the Frame and
again by _trial as the first candidate.  A start has one stop rule: it
makes a line-search trial only while the trial's predicted decrease is
above rounding level, and its refinement ends at the first that is not.

Classical-quantum detection (cq_detect) involves no search: it is a joint
diagonalization by Jacobi sweeps whose pair rotations are closed forms, and
it serves any dim_a.  It starts from the Frame's T.  A rotation reads the
pair's Pauli components with one matmul and is applied to the whole block
grid by one matmul, the contraction _trial uses.  It does not form the
commutator [rho, rho_A x I]; commutator_criterion alone does, and
analysis.analyze reports it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .bipartite import BipartiteState, block_tensor, partial_trace_a, partial_trace_b
from .matlib import (DEFAULT_TOL, Tolerance, dagger, fro_norm, from_eig, hermitize,
                     require_finite_nonnegative)

__all__ = [
    "OptimizerConfig",
    "DEFAULT_OPT",
    "DiscordReport",
    "CqVerdict",
    "discord_a",
    "commutator_criterion",
    "cq_detect",
]


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings of the measurement search of discord_a.

    eps_opt is the absolute accuracy the optimum is trusted to: the search
    stops at the rho_A eigenbasis when that comes within a quarter of eps_opt
    of the mutual information or of S(rho_B).  It must be finite and
    non-negative (else InvalidParams) and does not affect cq_detect.
    """

    eps_opt: float = 1e-4

    def __post_init__(self):
        require_finite_nonnegative(self)


DEFAULT_OPT = OptimizerConfig()


@dataclass(frozen=True)
class DiscordReport:
    """Mutual information, classical correlation and their difference.

    discord = max(0, mutual_information - classical_correlation).  The
    maximizing basis is in optimal_basis (columns are the measurement
    vectors).  The search is local, so classical_correlation is a lower
    bound on C_A and discord an upper bound.  optimizer_evals counts
    objective and gradient evaluations: one per basis scored (the rho_A
    eigenbasis, then each start) or tried in a line search, and one per
    gradient at an accepted trial; the gradient at a start comes with its
    score.  grid_resolution counts the starts scored before refinement:
    min(dim_a^2, dim_b^2), plus 2 when that is above 1, 0 on early exit.
    """

    mutual_information: float
    classical_correlation: float
    discord: float
    optimizer_evals: int
    grid_resolution: int
    optimal_basis: np.ndarray


@dataclass(frozen=True)
class CqVerdict:
    """Outcome of the classical-quantum structure test.

    off_block_residual is the Frobenius norm of the strict upper off-diagonal
    blocks in the best product basis found; is_cq holds when sqrt(2) times it
    is at most eps_psd.  basis columns are the classical A-side vectors and
    sigma_list the (unnormalized, PSD-clamped, Hermitian up to rounding)
    conditional B-side operators; both are None when the state is not CQ.

    The CQ state chi with rho's diagonal blocks in basis differs from rho by
    the off-diagonal blocks, of Frobenius norm sqrt(2) times the residual.
    The partial transpose is a Frobenius isometry and chi^{T_A} has the
    spectrum of those blocks, compressions of rho, so by Weyl's inequality
    lambda_min(rho^{T_A}) >= lambda_min(rho) - sqrt(2) off_block_residual:
    a CQ verdict is PPT up to the slack validate allows rho.
    """

    is_cq: bool
    basis: np.ndarray | None
    off_block_residual: float
    sigma_list: list[np.ndarray] | None


def _entropy_terms(w: np.ndarray, p: np.ndarray):
    """H = sum_k p_k S(sigma_k / p_k) = -sum_ka w_ka log2(w_ka / p_k), shape
    (...,), and the logs log2(w / p), from the spectra w (..., K, N) and traces
    p (..., K) of unnormalized sigma_k.  The log is 0 where w_ka <= 0 or
    p_k <= _EPS_PROB, so those terms drop out."""
    keep = (w > 0.0) & (p[..., None] > _EPS_PROB)
    lw = np.log2(np.divide(w, p[..., None], out=np.ones_like(w), where=keep))
    return -(w * lw).sum(axis=(-2, -1)), lw


def _spectrum_entropy(w: np.ndarray) -> float:
    # S is the conditional entropy of one outcome of probability 1
    return float(_entropy_terms(w[None], np.ones(1))[0])


def _block_stack(state: BipartiteState) -> np.ndarray:
    """The N x N blocks of rho in row-major (k, l) order, shape (M^2, N, N).
    Read as an M^2 x N^2 matrix it turns a sum over the block indices into
    one matmul (see _contract)."""
    m, n = state.dim_a, state.dim_b
    return block_tensor(state).reshape(m * m, n, n)


def _contract(coef: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_ij coef[..., i, j] b_ij, shape (..., N, N), over the blocks b_ij of
    a _block_stack b, as one matmul."""
    lead = coef.shape[:-2]
    return (coef.reshape(*lead, -1) @ b.reshape(len(b), -1)).reshape(*lead, *b.shape[1:])


@dataclass
class Frame:
    """One state in its rho_A eigenbasis, built by prepare and passed
    explicitly to discord_a and cq_detect through their frame parameter.
    It is not exported: analysis.analyze alone builds one to share.

    w is rho_A's spectrum, ascending as eigh gives it, and basis its
    eigenvectors by descending eigenvalue.  t is the block grid in that
    basis, T_kl = sum_ij conj(basis_ik) basis_jl rho_ij, shape (M, M, N, N).
    """

    w: np.ndarray
    basis: np.ndarray
    t: np.ndarray


def prepare(state: BipartiteState) -> Frame:
    """The Frame of a state: one eigh of rho_A and one contraction of the
    blocks."""
    w, v = np.linalg.eigh(partial_trace_b(state))
    basis = v[:, ::-1]
    t = np.einsum("ik,jl,ijab->klab", np.conj(basis), basis, block_tensor(state))
    return Frame(w, basis, t)


# The one rounding floor of the searches, for ties, steps and sweeps: values
# of H within _PROGRESS_RTOL max(1, |H|) of the least tie (_tied), a refinement
# makes no trial whose predicted decrease is not above it (_refine), and sweeps
# stop at a relative gain of at most _PROGRESS_RTOL (_MAX_SWEEPS).
_PROGRESS_RTOL = 1e-15
# Measurement outcomes of probability at most _EPS_PROB count as zero.
_EPS_PROB = 1e-12

# A trial is accepted when it meets Armijo with _ARMIJO and lowers H; the
# step cap only guards against a stalled refinement.
_MAX_STEPS = 200
_ARMIJO = 1e-4


def _singular_bases(b: np.ndarray, m: int) -> np.ndarray:
    """Eigenbases of the singular operators X_k of rho - rho_A x rho_B =
    sum_k s_k X_k x Y_k, by descending s_k: the SVD of the M^2 x N^2 matrix with
    rows rho_ij - (rho_A)_ij rho_B, from the _block_stack b and M = m.  An X_k
    of distinct s_k is Hermitian up to a phase, which tr(X_k^2) exposes (at a
    repeated s_k it is any member of the subspace; phase 1 where tr(X_k^2) = 0).
    The last s_k is 0, as the partial traces vanish, and is left out.  The
    bisectors X_1 +- X_2 of the leading pair follow, for any dim_a."""
    c = b - np.einsum("kaa->k", b)[:, None, None] * b[:: m + 1].sum(axis=0)
    x = np.linalg.svd(c.reshape(len(b), -1), full_matrices=False)[0][:, :-1].T.reshape(-1, m, m)
    h = hermitize(np.exp(-0.5j * np.angle(np.einsum("kij,kji->k", x, x)))[:, None, None] * x)
    h = np.concatenate([h, h[:1] + h[1:2], h[:1] - h[1:2]])
    return np.linalg.eigh(h)[1]


def _trial(u: np.ndarray, b: np.ndarray):
    """H(U) = sum_k p_k S(sigma_k), shape (...,), for bases u (..., M, M), from
    T_kl = sum_ij conj(u_ik) u_jl b_ij, one matmul over the _block_stack b, and
    one batched eigh of the sigma_k = T_kk; T, the eigenvectors and
    log2(w / p) are kept for _gradient.  The only evaluator of H: a row of a
    batch equals the trial of that basis alone, so scored rows seed _refine."""
    t = _contract(np.einsum("...ik,...jl->...klij", np.conj(u), u), b)
    sig = np.einsum("...kkab->...kab", t)
    w, v = np.linalg.eigh(sig)
    h, lw = _entropy_terms(w, np.einsum("...kaa->...k", sig).real)
    return h, (t, v, lw)


def _gradient(trial, iu) -> np.ndarray:
    """Gradient of H at a _trial's bases, in the coordinates of _refine, shape
    (..., M(M-1)).

    dH = -sum_k tr(dsigma_k L_k) with L_k = V_k diag(log2(w_k / p_k)) V_k^+,
    zero eigenvalues left out of the log.  U exp(K) moves sigma_k = T_kk by
    sum_l (K_lk T_kl + h.c.), so dH = -2 Re sum K_lk G_lk with
    G_lk = tr(T_kl L_k), the entrywise sum of T_kl times L_k^T.
    """
    t, v, lw = trial
    lt = (np.conj(v) * lw[..., None, :]) @ np.swapaxes(v, -1, -2)
    g = (t.reshape(*t.shape[:-2], -1) @ lt.reshape(*lt.shape[:-2], -1, 1))[..., 0]  # g[k, l] = G_lk
    z = 2.0 * (g - dagger(g))[..., iu[0], iu[1]]
    return np.concatenate([z.real, z.imag], axis=-1)


def _refine(u: np.ndarray, b: np.ndarray, h: np.ndarray, kept):
    """BFGS on U(M) modulo column phases, from each basis of the stack u
    (S, M, M), given its H (S,) and the decomposition kept by the _trial that
    scored it, which gives the first gradient, so the first _trial is on
    stepped bases; returns the endpoints (S, M, M), their H (S,) and the
    evaluations of each start after its score (S,).

    Steps are U <- U exp(K) with K off-diagonal skew-Hermitian, M(M-1) real
    coordinates: the real and imaginary parts of K above the diagonal.
    Multiplying on the right keeps K in the frame of U's own columns, so the
    column phases are exactly the diagonal that is left out; exp(K) U with
    off-diagonal K would lose the descent direction at equatorial qubit
    bases.  The starts are refined together in rounds.  Each round takes one
    batched eigh for the exp(K) of the starts still active and one _trial of
    them, and one _gradient of those whose trial was accepted, reusing that
    trial's decomposition.  Each start keeps its own line search and inverse
    Hessian, so it follows the path it would follow alone; a single start is a
    batch of one.  A line search tries the full step, then halves it, and
    accepts the first trial that meets Armijo and lowers H.  A start makes a
    trial only while its predicted decrease -t * slope exceeds
    _PROGRESS_RTOL max(1, |H|), below which H moves by rounding alone, and
    ends at the first step t that fails this, or after _MAX_STEPS steps.  The
    inverse Hessian, updated only when s^T y > 0, keeps every direction
    descending; one that did not would fail the rule at once.
    """
    u = np.array(u)
    n, m = u.shape[:2]
    iu = _upper(m)
    p = iu[0].size
    h, g = h.tolist(), list(_gradient(kept, iu))
    hinv = [np.eye(2 * p) for _ in range(n)]
    evals, steps = [0] * n, [0] * n
    d, slope, t = [None] * n, [0.0] * n, [1.0] * n

    def worth(i) -> bool:
        """Whether start i's trial at step t[i] predicts more than rounding."""
        return -t[i] * slope[i] > _PROGRESS_RTOL * max(1.0, abs(h[i]))

    def search(i) -> bool:
        """Start line search steps[i] of start i, or return False: it is done."""
        if steps[i] == _MAX_STEPS:
            return False
        d[i] = -hinv[i] @ g[i]
        slope[i], t[i] = float(g[i] @ d[i]), 1.0
        return worth(i)

    active = [i for i in range(n) if search(i)]
    while active:
        x = np.array([t[i] * d[i] for i in active])
        k = np.zeros((len(active), m, m), dtype=np.complex128)
        k[:, iu[0], iu[1]] = x[:, :p] + 1j * x[:, p:]
        w, v = np.linalg.eigh(1j * (k - dagger(k)))  # exp(K), from the eigh of iK
        u_new = u[active] @ ((v * np.exp(-1j * w)[:, None, :]) @ dagger(v))
        h_new, kept = _trial(u_new, b)
        live, accepted = set(), []
        for j, i in enumerate(active):
            evals[i] += 1
            h_j = float(h_new[j])
            if h_j < h[i] and h_j <= h[i] + _ARMIJO * t[i] * slope[i]:
                u[i], h[i] = u_new[j], h_j
                accepted.append(j)
                continue
            t[i] *= 0.5
            if worth(i):
                live.add(i)
        if accepted:
            g_new = _gradient(tuple(a[accepted] for a in kept), iu)
            for j, g_i in zip(accepted, g_new):
                i = active[j]
                evals[i] += 1
                s, y = t[i] * d[i], g_i - g[i]
                sy = float(s @ y)
                if sy > 0.0:
                    hi = hinv[i] * (sy / float(y @ y)) if steps[i] == 0 else hinv[i]
                    # (I - s y^T / sy) hi (I - y s^T / sy) + s s^T / sy, expanded
                    hy = hi @ y
                    shy = np.outer(s, hy)
                    hinv[i] = hi + (np.outer(s, s) * ((sy + float(y @ hy)) / sy) - shy - shy.T) / sy
                g[i] = g_i
                steps[i] += 1
                if search(i):
                    live.add(i)
        active = [i for i in active if i in live]
    return u, np.array(h), np.array(evals)


def _tied(h: np.ndarray) -> np.ndarray:
    """h with the values that tie with the least (within _PROGRESS_RTOL of
    max(1, |least|)) set to the least, so that a stable sort or argmin keeps
    their order."""
    least = h.min()
    return np.where(h - least <= _PROGRESS_RTOL * max(1.0, abs(least)), least, h)


def discord_a(
    state: BipartiteState,
    opt: OptimizerConfig = DEFAULT_OPT,
    *,
    frame: Frame | None = None,
) -> DiscordReport:
    """Quantum discord of the A side: mutual information minus C_A, any dim_a.

    frame is the state's Frame, prepared here when not given.
    I(rho) = S(rho_A) + S(rho_B) - S(rho), clamped at 0, takes S(rho_A) and
    the rho_A eigenbasis (by descending eigenvalue) from the frame's eigh of
    rho_A, S(rho_B) from one eigvalsh and S(rho) from the spectrum validate
    kept, ascending again as an eigvalsh of rho sums it.  Both marginals are
    sums over the Hermitian part, so neither is re-symmetrized.

    C_A, the best S(rho_B) - H(U) over orthonormal A bases U, is at most I(rho)
    and, as H(U) >= 0, at most S(rho_B).  The eigenbasis is scored first, by
    one eigh of the frame's sigma_k = T_kk, and when it comes within a quarter
    of eps_opt of either bound the search is done: exact for classical-quantum
    inputs, which attain I(rho) there, and for pure states, whose rho_A
    eigenbasis is a Schmidt basis with H = 0.  The basis reported there is a
    copy of the frame's, so no report holds an array of the frame.
    Otherwise the eigenbasis and the _singular_bases, all fixed by the state,
    are scored by one _trial, and the best dim_a are refined from their rows
    of it.  Scores and endpoints that tie with the least (see _tied) keep
    candidate order: the starts are the best by score, and the basis reported
    is the first refined endpoint, in start order, that ties with the least
    H, so at a degenerate optimum rounding does not choose among equally good
    bases.
    """
    if frame is None:
        frame = prepare(state)
    s_b = _spectrum_entropy(np.linalg.eigvalsh(partial_trace_a(state)))
    mi = max(0.0, _spectrum_entropy(frame.w) + s_b - _spectrum_entropy(state.spectrum[::-1]))
    eig, t = frame.basis, frame.t
    h_eig = float(_entropy_terms(np.linalg.eigh(np.einsum("kkab->kab", t))[0],
                                 np.einsum("kkaa->k", t).real)[0])
    if min(mi - (s_b - h_eig), h_eig) <= 0.25 * opt.eps_opt:
        cc, basis, evals, grid = max(0.0, s_b - h_eig), eig.copy(), 1, 0
    else:
        b = _block_stack(state)
        cands = np.concatenate([eig[None], _singular_bases(b, len(eig))])
        hs, kept = _trial(cands, b)
        starts = np.argsort(_tied(hs), kind="stable")[: len(eig)]
        u, h, n = _refine(cands[starts], b, hs[starts], [a[starts] for a in kept])
        best = int(np.argmin(_tied(h)))
        cc, basis = max(0.0, s_b - float(h[best])), u[best]
        evals, grid = 1 + len(cands) + int(n.sum()), len(cands)
    return DiscordReport(
        mutual_information=mi,
        classical_correlation=cc,
        discord=max(0.0, mi - cc),
        optimizer_evals=evals,
        grid_resolution=grid,
        optimal_basis=basis,
    )


def commutator_criterion(state: BipartiteState) -> float:
    """Frobenius norm of [rho, rho_A x I_B]; zero is necessary for zero discord.

    Block (i, j) of the commutator is
    C_ij = sum_k (rho_ik (rho_A)_kj - (rho_A)_ik rho_kj) with rho_ik the N x N
    blocks, formed on the block view of rho: M^3 N^2 products instead of the
    (MN)^3 of two dense products with rho_A x I_B.
    """
    t, rho_a = block_tensor(state), partial_trace_b(state)
    return fro_norm(np.einsum("ikab,kj->ijab", t, rho_a) - np.einsum("ik,kjab->ijab", rho_a, t))


# Jacobi sweeps stop once a sweep lowers the off-block mass by no more than
# _PROGRESS_RTOL of it; the sweep cap only guards against a stalled loop.
_MAX_SWEEPS = 100
# rho_A eigenvalues whose gap is at most _EPS_DEGENERATE form one cluster: an exact
# CQ state across a larger gap reads off ~ 2.3e-17 / gap < eps_psd / sqrt(2).
_EPS_DEGENERATE = 1e-7


@functools.lru_cache(maxsize=None)
def _upper(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only block indices (k, l), k < l, of an M x M grid."""
    iu = np.triu_indices(m, 1)
    for a in iu:
        a.setflags(write=False)
    return iu


def _off_mass(blocks: np.ndarray) -> float:
    """Squared Frobenius norm of the blocks above the block diagonal."""
    up = blocks[_upper(len(blocks))]
    return float(np.vdot(up, up).real)


# The Pauli components (x, y, z) of a 2x2 block grid as _contract coefficients:
# sum_ij _PAULI[mu, i, j] b_ij = A_mu for b = I (x) A_0 + sum_mu sigma_mu (x) A_mu.
_PAULI = np.array([[[0, 1], [1, 0]], [[0, 1j], [-1j, 0]], [[1, 0], [0, -1]]]) / 2


def _rotate_pair(bp: np.ndarray, basis: np.ndarray, p: int, q: int):
    """(bp, basis) with basis columns p, q rotated to minimize the (p, q)
    off-block of the (M, M, N, N) block grid bp.

    Writing the pair's 2x2 block grid as I (x) A_0 + sum_mu sigma_mu (x) A_mu,
    the rotation whose first vector has Bloch direction n leaves
    tr(Gamma) - n^T Gamma n in the off-block, Gamma_{mu nu} = Re tr(A_mu^+ A_nu)
    over (x, y, z); the top eigenvector of Gamma is the global minimizer.  The
    A_mu are one matmul of the pair's four blocks against _PAULI.  The
    rotation U, the identity outside columns p, q, is applied to the whole
    grid as T_kl = sum_ij conj(U_ik) U_jl bp_ij by one _contract, as in
    _trial, so blocks coupling p or q to other indices mix among themselves
    and the others are unchanged.
    """
    m, n = bp.shape[1], bp.shape[-1]
    comps = _contract(_PAULI, bp[[p, p, q, q], [p, q, p, q]]).reshape(3, -1)
    x, y, z = np.linalg.eigh((comps.conj() @ comps.T).real)[1][:, -1].tolist()
    if z < 0.0:
        x, y, z = -x, -y, -z
    c = math.sqrt((1.0 + z) / 2.0)
    e = complex(x, y) / (2.0 * c)
    u = np.eye(m, dtype=np.complex128)
    u[p, p] = u[q, q] = c
    u[q, p], u[p, q] = e, -e.conjugate()
    bp = _contract(np.einsum("ik,jl->klij", u.conj(), u), bp.reshape(m * m, n, n))
    return bp, basis @ u


def cq_detect(
    state: BipartiteState,
    tol: Tolerance = DEFAULT_TOL,
    opt: OptimizerConfig = DEFAULT_OPT,
    *,
    frame: Frame | None = None,
) -> CqVerdict:
    """Decide whether the state is classical-quantum on the A side, any dim_a.

    The search space is the orthonormal A-side bases; any such basis must
    diagonalize rho_A, so the search starts from the blocks rotated to the
    rho_A eigenbasis, the T of the state's Frame (prepared here when frame
    is not given), and only rotations inside degenerate eigenvalue clusters
    (runs of the descending spectrum with gaps at most _EPS_DEGENERATE)
    remain free.
    Those rotations leave the off-block mass between clusters unchanged;
    inside the clusters it is minimized by Jacobi sweeps over index pairs,
    each pair rotation in closed form and applied to the whole block grid by
    one contraction (see _rotate_pair).  So a 2-fold cluster is solved by one
    rotation, and when no cluster has more than two levels a single sweep is
    final; otherwise the sweeps stop once one lowers the off-block mass by at
    most _PROGRESS_RTOL of it.  For a cluster of three or more levels the
    sweeps are a local method: on a state that is not classical-quantum they
    may stop above the least off-block mass (on the 4x3 state
    mixed_marginal_state(10, 4, 3) of the tests they stop at a squared
    residual of 1.738e-2, where restarts from Haar bases reach 1.731e-2), so
    the reported residual is an upper bound.
    The state is CQ when sqrt(2) off_block_residual <= tol.eps_psd, the only
    setting read (see CqVerdict); with eps_psd = 0, only when rho is exactly
    block-diagonal.  No pair across a gap above _EPS_DEGENERATE is rotated,
    so its off-block is what eigh leaves, eigenvectors fixed to about
    rounding / gap: an exact CQ state reads off ~ 2.3e-17 / gap, 2.3e-10 at
    the gap 1e-7, below eps_psd / sqrt(2) = 7.07e-10 at the default.
    opt is accepted for compatibility and no longer affects the result.
    The commutator is not formed here: see commutator_criterion.
    """
    m = state.dim_a
    if frame is None:
        frame = prepare(state)
    basis, bp = frame.basis, frame.t

    # the eigenvalues descend, so a cluster is a run of gaps <= _EPS_DEGENERATE
    lam = frame.w[::-1].tolist()
    cluster = [0]
    for hi, lo in zip(lam, lam[1:]):
        cluster.append(cluster[-1] + (hi - lo > _EPS_DEGENERATE))
    pairs = [(p, q) for p in range(m) for q in range(p + 1, m) if cluster[p] == cluster[q]]
    # no cluster above 2 levels: each rotation is exact and touches no other
    # pair, so one sweep is the minimum
    disjoint = all(cluster[p] != cluster[p + 2] for p in range(m - 2))

    mass = _off_mass(bp)
    for _ in range(_MAX_SWEEPS):
        if not pairs or mass == 0.0:
            break
        for p, q in pairs:
            bp, basis = _rotate_pair(bp, basis, p, q)
        last, mass = mass, _off_mass(bp)
        if disjoint or last - mass <= _PROGRESS_RTOL * last:
            break

    off = float(np.sqrt(mass))
    if math.sqrt(2.0) * off > tol.eps_psd:
        return CqVerdict(is_cq=False, basis=None, off_block_residual=off, sigma_list=None)
    # the diagonal blocks, each clamped to its PSD part, from one batched eigh
    w, v = np.linalg.eigh(np.einsum("kkab->kab", bp))
    sigma = from_eig(np.maximum(w, 0.0), v)
    return CqVerdict(is_cq=True, basis=basis, off_block_residual=off, sigma_list=list(sigma))
