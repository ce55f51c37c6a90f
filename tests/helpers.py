"""Reference implementations shared by the test suite.

Everything in this module is deliberately written *independently* of the
package internals: explicit loops instead of reshapes, closed-form 2x2
eigenvalues instead of LAPACK where possible, and alternative mathematical
characterizations (Bloch-span rank, commuting slice families) instead of the
detection algorithms under test.  A test that compares the package against
these oracles can only pass if both derivations agree.  Three methods the
package replaced are kept as references its replacements must reproduce:
sequential_refine, the measurement refinement, exactly; inplace_cq_detect,
the CQ detection with in-place pair rotations, to rounding; and
rowwise_factorize, the block Cholesky with separate x and s, to rounding.
The Bell-diagonal builder and predicates the X-state forms replaced are kept
too: bell_mixture, the sum of rounded Bell projectors, which the X-state
matrix must match to rounding, and bell_sppt_closed_form and
bell_zero_discord_closed_form, the predicates in the weights p, which the
X-state predicates must match on every tested weight.
sequential_refine and its trial are the only code here that reads
qcorr.discord, and nothing here reads qcorr.factorization.  The seeded test
states are inputs, not oracles: they build states through the package.
"""
from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from qcorr import (DEFAULT_TOL, BipartiteState, Tolerance, random_cq, random_ginibre_density,
                   random_pure, random_unitary, validate)
from qcorr import discord as D


# ---------------------------------------------------------------------------
# seeded test states (not oracles)


def ginibre_state(seed, dim_a: int, dim_b: int) -> BipartiteState:
    """The seeded Ginibre density of qcorr.random_ginibre_density, validated."""
    return validate(random_ginibre_density(dim_a * dim_b, seed), dim_a, dim_b)


def bell_state() -> BipartiteState:
    """|Phi+><Phi+| on 2x2."""
    v = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
    return validate(np.outer(v, v), 2, 2)


def rank2_state(key, m: int, n: int) -> BipartiteState:
    """G G^+ / tr with G an (m n) x 2 complex Gaussian matrix seeded by key."""
    rng = np.random.default_rng(key)
    g = rng.standard_normal((m * n, 2)) + 1j * rng.standard_normal((m * n, 2))
    rho = g @ g.conj().T
    return validate(rho / np.trace(rho).real, m, n)


def factorization_panel(dim_a: int) -> list[tuple[tuple, BipartiteState]]:
    """(label, state) for the Ginibre, rank-2, pure and CQ states with this
    dim_a, dim_b in (1, 2, 3, 8) up to dim_a dim_b = 24, and seeds 0-9."""
    panel = []
    for dim_b in (n for n in (1, 2, 3, 8) if dim_a * n <= 24):
        for seed in range(10):
            key = [seed, dim_a, dim_b]
            panel += [(("ginibre", *key), ginibre_state(key, dim_a, dim_b)),
                      (("rank2", *key), rank2_state(key, dim_a, dim_b)),
                      (("pure", *key), random_pure(dim_a, dim_b, rng_seed=key)),
                      (("cq", *key), random_cq(dim_a, dim_b, rng_seed=key))]
    return panel


# shapes, seeds and weights of the near-CQ panel
NEAR_CQ_SHAPES = ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2))
NEAR_CQ_SEEDS = range(20)
NEAR_CQ_WEIGHTS = (0.0, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6)


def near_cq_state(m: int, n: int, seed: int, t: float) -> BipartiteState:
    """(1 - t) chi + t Phi, validated: chi = sum_k p_k |u_k><u_k| (x) |psi_k><psi_k|
    is CQ with pure conditional states, and Phi is maximally entangled on
    min(m, n) levels.

    u = random_unitary(m, [seed, m, n, 1]); from default_rng([seed, m, n]),
    p is Dirichlet(1, ..., 1), then each psi_k is a normalized complex Gaussian.
    """
    u = random_unitary(m, [seed, m, n, 1])
    rng = np.random.default_rng([seed, m, n])
    p = rng.dirichlet(np.ones(m))
    chi = np.zeros((m * n, m * n), dtype=np.complex128)
    for k in range(m):
        g = rng.normal(size=n) + 1j * rng.normal(size=n)
        psi = g / np.linalg.norm(g)
        chi += p[k] * np.kron(np.outer(u[:, k], u[:, k].conj()), np.outer(psi, psi.conj()))
    d = min(m, n)
    phi = np.zeros(m * n)
    phi[[i * n + i for i in range(d)]] = 1.0 / np.sqrt(d)
    return validate((1 - t) * chi + t * np.outer(phi, phi), m, n)


# ---------------------------------------------------------------------------
# elementary oracles


def naive_partial_transpose(rho: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """Blockwise transpose over the first factor, written with explicit loops."""
    rho = np.asarray(rho, dtype=np.complex128)
    out = np.zeros_like(rho)
    n = dim_b
    for k in range(dim_a):
        for l in range(dim_a):
            out[k * n : (k + 1) * n, l * n : (l + 1) * n] = \
                rho[l * n : (l + 1) * n, k * n : (k + 1) * n]
    return out


def entropy_bits(weights) -> float:
    """- sum w log2 w over the positive entries, by direct summation."""
    total = 0.0
    for w in np.asarray(weights, dtype=np.float64).ravel():
        if w > 0.0:
            total -= w * np.log2(w)
    return float(total)


def vn_entropy(mat) -> float:
    w = np.clip(np.linalg.eigvalsh(np.asarray(mat, dtype=np.complex128)), 0.0, None)
    return entropy_bits(w)


def blocks_of(state: BipartiteState) -> np.ndarray:
    """The (M, M, N, N) block grid of a state, sliced block by block."""
    m, n = state.dim_a, state.dim_b
    rho = state.rho
    return np.array([[rho[k * n:(k + 1) * n, l * n:(l + 1) * n] for l in range(m)]
                     for k in range(m)])


def eig2(a: float, d: float, b: complex) -> tuple[float, float]:
    """Eigenvalues of [[a, b], [conj(b), d]] from the quadratic formula."""
    m = 0.5 * (a + d)
    r = np.sqrt(0.25 * (a - d) ** 2 + abs(b) ** 2)
    return float(m - r), float(m + r)


def dense_commutator(state: BipartiteState) -> float:
    """Frobenius norm of [rho, rho_A x I_B] from the dense Kronecker product.

    The form qcorr's commutator criterion had before it went blockwise: two
    (MN)^3 products with rho_A x I_B, rho_A summed block by block.
    """
    m, n = state.dim_a, state.dim_b
    rho = state.rho
    rho_a = np.array([[np.trace(rho[k * n:(k + 1) * n, l * n:(l + 1) * n]) for l in range(m)]
                      for k in range(m)])
    big = np.kron(rho_a, np.eye(n))
    return float(np.linalg.norm(rho @ big - big @ rho))

# ---------------------------------------------------------------------------
# Bell-diagonal states: the projector sum, the closed-form SPPT and zero-
# discord predicates in the weights p, and the closed-form discord (S. Luo,
# PRA 77, 042303 (2008)).  Both predicates allow a slack of 1e-12 on their
# sums and differences of p


def bell_projectors() -> list[np.ndarray]:
    """The four Bell projectors, ordered (Phi+, Phi-, Psi+, Psi-)."""
    r = 1.0 / np.sqrt(2.0)
    vecs = np.array(
        [
            [r, 0.0, 0.0, r],
            [r, 0.0, 0.0, -r],
            [0.0, r, r, 0.0],
            [0.0, r, -r, 0.0],
        ],
        dtype=np.complex128,
    )
    return [np.outer(v, np.conj(v)) for v in vecs]


def bell_mixture(p) -> np.ndarray:
    """rho = sum_i p_i P_i over the Bell projectors, as a rounded sum."""
    return sum(w * proj for w, proj in zip(p, bell_projectors()))


def bell_sppt_closed_form(p) -> bool:
    """|p1 - p2| = |p3 - p4|: the equal coupling magnitudes of an SPPT X state."""
    p1, p2, p3, p4 = p
    return abs(abs(p1 - p2) - abs(p3 - p4)) <= 1e-12


def bell_zero_discord_closed_form(p) -> bool:
    """Zero discord for a Bell-diagonal state.

    In correlation-tensor form rho = (I x I + sum_a t_a s_a x s_a)/4 the
    state is classical-quantum exactly when at most one t_a is nonzero.
    That covers the pairings p1 = p3, p2 = p4 and p1 = p4, p2 = p3 as well
    as the diagonal case p1 = p2, p3 = p4 (classical in the computational
    basis), which the pairings miss.
    """
    p1, p2, p3, p4 = p
    t1 = p1 - p2 + p3 - p4
    t2 = -p1 + p2 + p3 - p4
    t3 = p1 + p2 - p3 - p4
    return sum(abs(t) > 1e-12 for t in (t1, t2, t3)) <= 1


def _xlog2x(x: float) -> float:
    return x * np.log2(x) if x > 0.0 else 0.0


def luo_bell_diagonal(p) -> tuple[float, float, float]:
    """Mutual information, classical correlation and discord, in bits, of the
    Bell-diagonal state with weights p over (Phi+, Phi-, Psi+, Psi-).

    The state is (I + sum_i c_i sigma_i x sigma_i) / 4 with
    c = (p1 - p2 + p3 - p4, -p1 + p2 + p3 - p4, p1 + p2 - p3 - p4).  Both
    marginals are maximally mixed, so I = 2 - H(p); with c the largest
    |c_i|, C = ((1 - c) log2(1 - c) + (1 + c) log2(1 + c)) / 2 and
    D = I - C.
    """
    p1, p2, p3, p4 = p
    c = max(abs(p1 - p2 + p3 - p4), abs(-p1 + p2 + p3 - p4), abs(p1 + p2 - p3 - p4))
    mi = 2.0 - entropy_bits(p)
    cc = (_xlog2x(1.0 - c) + _xlog2x(1.0 + c)) / 2.0
    return mi, cc, mi - cc


# ---------------------------------------------------------------------------
# brute-force measured correlation for a qubit-qubit state


def brute_discord_2q(state: BipartiteState, n_theta: int = 512, n_phi: int = 1024) -> float:
    """Discord of a 2x2 state from an exhaustive Bloch-sphere grid.

    Conditional 2x2 spectra come from the closed-form quadratic eigenvalues,
    so no eigen-solver or optimizer code from the package is involved.
    """
    if state.dim_a != 2 or state.dim_b != 2:
        raise ValueError("brute_discord_2q expects a 2x2 state")
    rho = state.rho
    b11, b12 = rho[:2, :2], rho[:2, 2:]
    b21, b22 = rho[2:, :2], rho[2:, 2:]

    rho_b = b11 + b22
    rho_a = np.array([[np.trace(b11), np.trace(b12)],
                      [np.trace(b21), np.trace(b22)]])
    s_b = entropy_bits(np.clip(eig2(rho_b[0, 0].real, rho_b[1, 1].real, rho_b[0, 1]), 0.0, None))
    s_a = entropy_bits(np.clip(eig2(rho_a[0, 0].real, rho_a[1, 1].real, rho_a[0, 1]), 0.0, None))
    s_ab = vn_entropy(rho)
    mi = s_a + s_b - s_ab

    th = np.linspace(0.0, np.pi, n_theta)[:, None]
    ph = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)[None, :]
    c2 = np.cos(th / 2.0) ** 2
    s2 = np.sin(th / 2.0) ** 2
    cs = np.cos(th / 2.0) * np.sin(th / 2.0)
    e = np.exp(1j * ph)

    # sigma_+ = c^2 b11 + cs e b12 + cs conj(e) b21 + s^2 b22  (unnormalized)
    a_p = c2 * b11[0, 0].real + 2.0 * cs * (e * b12[0, 0]).real + s2 * b22[0, 0].real
    d_p = c2 * b11[1, 1].real + 2.0 * cs * (e * b12[1, 1]).real + s2 * b22[1, 1].real
    o_p = c2 * b11[0, 1] + cs * e * b12[0, 1] + cs * np.conj(e) * b21[0, 1] + s2 * b22[0, 1]
    tot11 = (b11 + b22)[0, 0].real
    tot22 = (b11 + b22)[1, 1].real
    tot12 = (b11 + b22)[0, 1]

    p_plus = a_p + d_p
    m_p = 0.5 * (a_p + d_p)
    r_p = np.sqrt(np.maximum(0.25 * (a_p - d_p) ** 2 + np.abs(o_p) ** 2, 0.0))
    lam1 = np.clip(m_p - r_p, 0.0, None)
    lam2 = np.clip(m_p + r_p, 0.0, None)

    a_m = tot11 - a_p
    d_m = tot22 - d_p
    o_m = tot12 - o_p
    m_m = 0.5 * (a_m + d_m)
    r_m = np.sqrt(np.maximum(0.25 * (a_m - d_m) ** 2 + np.abs(o_m) ** 2, 0.0))
    mu1 = np.clip(m_m - r_m, 0.0, None)
    mu2 = np.clip(m_m + r_m, 0.0, None)
    p_minus = 1.0 - p_plus

    def plogp(x):
        return np.where(x > 0.0, x * np.log2(np.where(x > 0.0, x, 1.0)), 0.0)

    # sum_k p_k S(sigma_k / p_k) = -sum over unnormalized eigs w log2 w + sum p log2 p
    cond = -(plogp(lam1) + plogp(lam2) + plogp(mu1) + plogp(mu2)) \
        + plogp(p_plus) + plogp(p_minus)
    best = float(np.max(s_b - cond))
    return max(0.0, mi - max(best, 0.0))


# ---------------------------------------------------------------------------
# independent classical-quantum characterizations


def qubit_side_cq(state: BipartiteState, tol: float = 1e-8) -> bool:
    """CQ test for dim_a = 2 by a rank condition.

    Writing rho = (I (x) C_I + sum_w sigma_w (x) C_w) / 2 over the Pauli
    basis on A, the state is classical on A iff the three conditioned
    operators (C_x, C_y, C_z) span at most one real direction.
    """
    if state.dim_a != 2:
        raise ValueError("qubit_side_cq expects dim_a = 2")
    n = state.dim_b
    rho = state.rho
    b11, b12 = rho[:n, :n], rho[:n, n:]
    b21, b22 = rho[n:, :n], rho[n:, n:]
    cx = b12 + b21
    cy = 1j * (b12 - b21)
    cz = b11 - b22
    rows = np.stack([
        np.concatenate([m.real.ravel(), m.imag.ravel()]) for m in (cx, cy, cz)
    ])
    s = np.linalg.svd(rows, compute_uv=False)
    return bool(s[1] <= tol * max(1.0, s[0]))


def commuting_slice_cq(state: BipartiteState, tol: float = 1e-8) -> bool:
    """CQ test for any dim_a via simultaneous diagonalizability.

    The A-side slice family T_ab with (T_ab)[k, l] = block(k, l)[a, b] is of
    the form U diag(...) U^dagger for a single unitary U iff every slice is
    normal and all slices pairwise commute; that is exactly the
    classical-quantum form.
    """
    m, n = state.dim_a, state.dim_b
    t = state.rho.reshape(m, n, m, n).transpose(1, 3, 0, 2).reshape(n * n, m, m)
    worst = 0.0
    for i in range(t.shape[0]):
        a = t[i]
        worst = max(worst, float(np.linalg.norm(a @ a.conj().T - a.conj().T @ a)))
        for j in range(i + 1, t.shape[0]):
            b = t[j]
            worst = max(worst, float(np.linalg.norm(a @ b - b @ a)))
    return worst <= tol


# ---------------------------------------------------------------------------
# grid + simplex search for the classical-quantum off-block mass


_SEARCH_SEED = 20260815
_SEARCH_GRID = (64, 128)
_SEARCH_STARTS_3 = 6
_SEARCH_MAXFEV_3 = 400


def _bloch_pair_coef(theta, phi) -> np.ndarray:
    """conj(v_plus) v_minus^T, flattened, for the qubit basis at (theta, phi)."""
    c = np.cos(np.asarray(theta) / 2.0)
    s = np.sin(np.asarray(theta) / 2.0)
    e = np.exp(1j * np.asarray(phi))
    vp = np.stack([c, e * s], axis=-1)
    vm = np.stack([-np.conj(e) * s, c], axis=-1)
    return np.einsum("...i,...j->...ij", np.conj(vp), vm).reshape(vp.shape[:-1] + (4,))


def _contraction_bases(a: np.ndarray, count: int, seed: int) -> list[np.ndarray]:
    """Eigenbases of random Hermitian B-side contractions of a cluster."""
    rng = np.random.default_rng(seed)
    n = a.shape[2]
    out = []
    for _ in range(count):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        w = (g + g.conj().T) / 2
        h = np.einsum("klab,ba->kl", a, w)
        out.append(np.linalg.eigh((h + h.conj().T) / 2)[1])
    return out


def _first_column_angles(u: np.ndarray) -> tuple[float, float]:
    v = u[:, 0]
    if abs(v[0]) > 1e-12:
        v = v * np.conj(v[0] / abs(v[0]))
    theta = 2.0 * float(np.arctan2(abs(v[1]), v[0].real))
    phi = float(np.angle(v[1])) % (2.0 * np.pi) if abs(v[1]) > 1e-12 else 0.0
    return theta, phi


def _pair_min(a: np.ndarray, floor: float) -> float:
    """Least off-block mass of a 2-fold cluster: grid, two contraction
    eigenbases, then Nelder-Mead from the best of them."""
    from scipy.optimize import minimize

    flat = a.reshape(4, -1)
    gram = flat.conj() @ flat.T

    def obj(x):
        vec = _bloch_pair_coef(x[0], x[1])
        return float(np.real(np.conj(vec) @ gram @ vec))

    n_theta, n_phi = _SEARCH_GRID
    tt = np.repeat(np.linspace(0.0, np.pi, n_theta), n_phi)
    pp = np.tile(np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False), n_theta)
    cross = _bloch_pair_coef(tt, pp)
    f = np.einsum("gi,ij,gj->g", np.conj(cross), gram, cross).real
    g = int(np.argmin(f))
    best, x = float(f[g]), [float(tt[g]), float(pp[g])]
    for u in _contraction_bases(a, 2, _SEARCH_SEED):
        cand = list(_first_column_angles(u))
        if obj(cand) < best:
            best, x = obj(cand), cand
    if best > floor:
        res = minimize(obj, np.array(x), method="Nelder-Mead",
                       options={"maxfev": 400, "fatol": 1e-18, "xatol": 1e-10})
        best = min(best, max(0.0, float(res.fun)))
    return best


def _givens3(p: int, q: int, theta: float, phi: float) -> np.ndarray:
    g = np.eye(3, dtype=np.complex128)
    c, s, e = np.cos(theta), np.sin(theta), np.exp(1j * phi)
    g[p, p] = c
    g[q, q] = c
    g[p, q] = -np.conj(e) * s
    g[q, p] = e * s
    return g


def _haar(m: int, rng: np.random.Generator) -> np.ndarray:
    g = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / np.sqrt(2.0)
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _triple_min(a: np.ndarray, floor: float) -> float:
    """Least off-block mass of a 3-fold cluster found by Nelder-Mead over a
    Givens chart of U(3), from contraction eigenbases, I and Haar starts."""
    from scipy.optimize import minimize

    rng = np.random.default_rng(_SEARCH_SEED)
    starts = _contraction_bases(a, 2, _SEARCH_SEED)
    starts.append(np.eye(3, dtype=np.complex128))
    for _ in range(_SEARCH_STARTS_3 - 1):
        starts.append(_haar(3, rng))
    best = np.inf
    for w in starts:
        def obj(x, w=w):
            u = (w @ _givens3(0, 1, x[0], x[1]) @ _givens3(0, 2, x[2], x[3])
                 @ _givens3(1, 2, x[4], x[5]))
            rot = np.einsum("ik,jl,ijab->klab", np.conj(u), u, a)
            return sum(float(np.linalg.norm(rot[k, l])) ** 2
                       for k in range(3) for l in range(k + 1, 3))

        best = min(best, max(0.0, obj(np.zeros(6))))
        if best <= floor:
            break
        res = minimize(obj, np.zeros(6), method="Nelder-Mead",
                       options={"maxfev": _SEARCH_MAXFEV_3, "fatol": 1e-18, "xatol": 1e-10})
        best = min(best, max(0.0, float(res.fun)))
        if best <= floor:
            break
    return best


def searched_off_mass(state: BipartiteState, eps_degenerate: float = 1e-8,
                      eps_cq: float = 1e-6) -> float:
    """Squared CQ off-block residual from a grid + simplex search.

    The blocks are taken to the descending rho_A eigenbasis; the mass
    between eigenvalue clusters (gap at most eps_degenerate inside one) is
    fixed, and the mass inside each 2- or 3-fold cluster is minimized by
    search.  A search can stall above the true minimum, so this is an upper
    bound on the least off-block mass, exact up to search accuracy for
    2-fold clusters.
    """
    m = state.dim_a
    if m not in (2, 3):
        raise ValueError("searched_off_mass expects dim_a 2 or 3")
    blocks = blocks_of(state)
    rho_a = np.einsum("klaa->kl", blocks)
    lam, vec = np.linalg.eigh((rho_a + rho_a.conj().T) / 2)
    lam, vec = lam[::-1], vec[:, ::-1]
    bp = np.einsum("ik,jl,ijab->klab", np.conj(vec), vec, blocks)

    clusters = [[0]]
    for i in range(1, m):
        if lam[i - 1] - lam[i] <= eps_degenerate:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    member = {i: ci for ci, cl in enumerate(clusters) for i in cl}
    total = sum(float(np.linalg.norm(bp[k, l])) ** 2
                for k in range(m) for l in range(k + 1, m) if member[k] != member[l])
    floor = eps_cq ** 2 * 1e-4
    for cl in clusters:
        sub = bp[np.ix_(cl, cl)]
        if len(cl) == 2:
            total += _pair_min(sub, floor)
        elif len(cl) == 3:
            total += _triple_min(sub, floor)
    return total


# ---------------------------------------------------------------------------
# classical-quantum detection as it was before each pair rotation contracted
# the whole block grid: the same Jacobi sweeps, with each closed-form pair
# rotation written in place on the pair's rows and columns of the block grid.
# It is the reference qcorr.discord.cq_detect must reproduce to rounding, and
# reads nothing from qcorr.discord: its constants are the package's, written
# out, and a state is CQ when its off-block residual is at most the distance
# bound eps_psd over sqrt(2).

_CQ_EPS_DEGENERATE = 1e-7
_CQ_EPS = DEFAULT_TOL.eps_psd / np.sqrt(2)
_CQ_RTOL = 1e-15
_CQ_MAX_SWEEPS = 100


def _inplace_rotate_pair(bp: np.ndarray, basis: np.ndarray, p: int, q: int) -> None:
    """Rotate basis columns p, q to minimize the (p, q) off-block, in place:
    Gamma_{mu nu} = Re tr(A_mu^+ A_nu) over the pair's Pauli components, and
    its top eigenvector is the Bloch direction of the first rotated vector."""
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


def inplace_cq_detect(state: BipartiteState) -> SimpleNamespace:
    """(is_cq, off_block_residual, basis, sigma_list) by Jacobi sweeps inside
    the degenerate clusters of the descending rho_A eigenbasis, one in-place
    pair rotation at a time; a single sweep when no cluster has more than two
    levels."""
    m, n = state.dim_a, state.dim_b
    b = state.rho.reshape(m, n, m, n).transpose(0, 2, 1, 3)
    w, v = np.linalg.eigh(np.einsum("klaa->kl", b))
    lam, basis = w[::-1], v[:, ::-1].copy()
    bp = np.einsum("ik,jl,ijab->klab", np.conj(basis), basis, b)

    def mass() -> float:
        return sum(float(np.linalg.norm(bp[k, l])) ** 2 for k in range(m) for l in range(k + 1, m))

    clusters = [[0]]
    for i in range(1, m):
        if lam[i - 1] - lam[i] <= _CQ_EPS_DEGENERATE:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    pairs = [(p, q) for cl in clusters for i, p in enumerate(cl) for q in cl[i + 1:]]
    total = mass()
    for _ in range(_CQ_MAX_SWEEPS):
        if not pairs or total == 0.0:
            break
        for p, q in pairs:
            _inplace_rotate_pair(bp, basis, p, q)
        last, total = total, mass()
        if max(map(len, clusters)) <= 2 or last - total <= _CQ_RTOL * last:
            break
    off = float(np.sqrt(total))
    if off > _CQ_EPS:
        return SimpleNamespace(is_cq=False, off_block_residual=off, basis=None, sigma_list=None)
    sigma = []
    for k in range(m):
        wk, vk = np.linalg.eigh(bp[k, k])
        sigma.append((vk * np.clip(wk, 0.0, None)) @ vk.conj().T)
    return SimpleNamespace(is_cq=True, off_block_residual=off, basis=basis, sigma_list=sigma)


# ---------------------------------------------------------------------------
# measured classical correlation: an explicit-loop evaluation for a given
# basis, the grid + simplex searches as they were written before the
# measurement search took dim_a as a parameter, and a multi-start BFGS search
# over a Cayley chart of U(M), kept as oracles for qcorr.discord.discord_a


def measured_correlation(state: BipartiteState, basis: np.ndarray,
                         eps_prob: float = 1e-12) -> float:
    """S(rho_B) - sum_k p_k S(sigma_k) for the measurement along the columns
    of basis, each conditional state summed block by block."""
    m, n = state.dim_a, state.dim_b
    blocks = blocks_of(state)
    rho_b = sum(blocks[k, k] for k in range(m))
    cond = 0.0
    for k in range(m):
        sig = np.zeros((n, n), dtype=np.complex128)
        for i in range(m):
            for j in range(m):
                sig += np.conj(basis[i, k]) * basis[j, k] * blocks[i, j]
        p = float(np.trace(sig).real)
        if p > eps_prob:
            cond += p * vn_entropy((sig + sig.conj().T) / (2.0 * p))
    return vn_entropy(rho_b) - cond


_CC_GRID = (64, 128)
_CC_EPS_OPT = 1e-4
_CC_EPS_PROB = 1e-12


def _cond_entropy(coef: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """sum_k p_k S(sigma_k) for outcome coefficients coef (..., K, M, M)."""
    sig = np.einsum("...kij,ijab->...kab", coef, blocks)
    p = np.einsum("...kaa->...k", sig).real
    w = np.clip(np.linalg.eigvalsh(sig), 0.0, None)
    wlog = np.where(w > 0.0, w * np.log2(np.where(w > 0.0, w, 1.0)), 0.0)
    live = p > _CC_EPS_PROB
    plog = np.where(live, p * np.log2(np.where(live, p, 1.0)), 0.0)
    return np.where(live, -wlog.sum(axis=-1) + plog, 0.0).sum(axis=-1)


def _expm_taylor(k: np.ndarray, terms: int = 20) -> np.ndarray:
    """exp(k) of a small matrix by its Taylor series."""
    out = term = np.eye(k.shape[0], dtype=np.complex128)
    for j in range(1, terms):
        term = term @ k / j
        out = out + term
    return out


def cond_entropy_gradient(blocks: np.ndarray, u: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of sum_k p_k S(sigma_k) at basis u.

    The coordinates are the real parts, then the imaginary parts, of the
    entries of an off-diagonal skew-Hermitian K above the diagonal (row by
    row), the basis moving as u exp(K); exp(K) comes from its Taylor series.
    """
    m = u.shape[0]
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]

    def value(x):
        k = np.zeros((m, m), dtype=np.complex128)
        for idx, (i, j) in enumerate(pairs):
            k[i, j] = x[idx] + 1j * x[len(pairs) + idx]
            k[j, i] = -np.conj(k[i, j])
        v = u @ _expm_taylor(k)
        return float(_cond_entropy(np.einsum("ik,jk->kij", np.conj(v), v), blocks))

    grad = np.zeros(2 * len(pairs))
    for c in range(grad.size):
        e = np.zeros(grad.size)
        e[c] = h
        grad[c] = (value(e) - value(-e)) / (2.0 * h)
    return grad


def _mutual_information(state: BipartiteState, blocks: np.ndarray) -> float:
    rho_a = np.einsum("klaa->kl", blocks)
    rho_b = np.einsum("kkab->ab", blocks)
    return max(0.0, vn_entropy(rho_a) + vn_entropy(rho_b) - vn_entropy(state.rho))


def _bloch_coef(theta, phi) -> np.ndarray:
    """Outcome coefficients (..., 2, 2, 2) of the qubit basis at (theta, phi)."""
    c = np.cos(np.asarray(theta) / 2.0)
    s = np.sin(np.asarray(theta) / 2.0)
    e = np.exp(1j * np.asarray(phi))
    vp = np.stack([c, e * s], axis=-1)
    vm = np.stack([-np.conj(e) * s, c], axis=-1)
    return np.stack([np.einsum("...i,...j->...ij", np.conj(v), v) for v in (vp, vm)], axis=-3)


def searched_cc_qubit(state: BipartiteState) -> float:
    """Classical correlation of a 2xN state from a 64x128 Bloch grid, then
    Nelder-Mead from the best grid point unless that is within a quarter of
    1e-4 of the mutual information."""
    from scipy.optimize import minimize

    if state.dim_a != 2:
        raise ValueError("searched_cc_qubit expects dim_a = 2")
    blocks = blocks_of(state)
    s_b = vn_entropy(np.einsum("kkab->ab", blocks))
    mi = _mutual_information(state, blocks)
    n_theta, n_phi = _CC_GRID
    tt = np.repeat(np.linspace(0.0, np.pi, n_theta), n_phi)
    pp = np.tile(np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False), n_theta)
    values = s_b - _cond_entropy(_bloch_coef(tt, pp), blocks)
    g = int(np.argmax(values))
    best = float(values[g])
    if mi - best > 0.25 * _CC_EPS_OPT:
        res = minimize(lambda x: float(_cond_entropy(_bloch_coef(x[0], x[1]), blocks) - s_b),
                       np.array([tt[g], pp[g]]), method="Nelder-Mead",
                       options={"maxfev": 200, "fatol": 1e-9, "xatol": 1e-8})
        best = max(best, -float(res.fun))
    return max(0.0, best)


_MULTI_STARTS = 24
_MULTI_SEED = 1004
_MULTI_STEP = 1e-6


def _cayley(x: np.ndarray, m: int) -> np.ndarray:
    """(1 - A)^-1 (1 + A), unitary, for the skew-Hermitian A with zero diagonal
    whose entries above it have real parts x[..., :p] and imaginary parts
    x[..., p:] (p = m(m-1)/2, row by row); batched over x's leading axes."""
    iu, p = np.triu_indices(m, 1), m * (m - 1) // 2
    a = np.zeros(x.shape[:-1] + (m, m), dtype=np.complex128)
    a[..., iu[0], iu[1]] = x[..., :p] + 1j * x[..., p:]
    a = a - np.conj(np.swapaxes(a, -1, -2))
    eye = np.eye(m)
    return np.linalg.solve(eye - a, eye + a)


def searched_cc(state: BipartiteState) -> float:
    """Classical correlation of an M x N state, any M, from scipy's BFGS over
    the Cayley chart W (1 - A)^-1 (1 + A) around each of _MULTI_STARTS seeded
    Haar bases W, with central-difference gradients evaluated in one batch; the
    best of all the searches is returned."""
    from scipy.optimize import minimize

    m = state.dim_a
    blocks = blocks_of(state)
    s_b = vn_entropy(np.einsum("kkab->ab", blocks))
    steps = np.concatenate([np.eye(m * (m - 1)), -np.eye(m * (m - 1))]) * _MULTI_STEP
    rng = np.random.default_rng(_MULTI_SEED)
    best = np.inf
    for w in [_haar(m, rng) for _ in range(_MULTI_STARTS)]:
        def cond(x, w=w):
            u = w @ _cayley(x, m)
            return _cond_entropy(np.einsum("...ik,...jk->...kij", np.conj(u), u), blocks)

        def grad(x):
            h = cond(x + steps)
            return (h[: len(h) // 2] - h[len(h) // 2:]) / (2.0 * _MULTI_STEP)

        res = minimize(lambda x: float(cond(x)), np.zeros(m * (m - 1)), jac=grad, method="BFGS",
                       options={"gtol": 1e-9})
        best = min(best, float(res.fun))
    return max(0.0, s_b - best)


# sigma_y (x) sigma_y, the spin flip of Wootters' concurrence
_FLIP = np.fliplr(np.diag([-1.0, 1.0, 1.0, -1.0]))


def kw_classical_correlation(state: BipartiteState) -> float:
    """Classical correlation J = S(rho_B) - E_F(rho_BE), maximized over every
    POVM on A, of an M x 2 state of rank at most 2, in closed form (Koashi &
    Winter, PRA 69, 022309 (2004)); it bounds every projective value above.

    rho is purified from its top two eigenpairs to psi[a, b, e] =
    sqrt(lambda_e) v_e[2a + b], so E is a qubit and rho_BE = W W^+ with
    W[(b, e), a] = psi[a, b, e].  Wootters' concurrence (PRL 80, 2245 (1998))
    C = max(0, l_1 - l_2 - l_3 - l_4) takes the l_i as the singular values of
    W^T (sigma_y (x) sigma_y) W, the square roots of the eigenvalues of
    rho_BE rho~_BE, without their rounding at zero; then
    E_F = h((1 + sqrt(1 - C^2)) / 2)."""
    if state.dim_b != 2:
        raise ValueError("kw_classical_correlation expects dim_b = 2")
    w, v = np.linalg.eigh(state.rho)
    if len(w) > 2 and w[-3] > 1e-12:
        raise ValueError(f"kw_classical_correlation expects rank <= 2, third eigenvalue {w[-3]:.3e}")
    psi = v[:, -2:] * np.sqrt(np.clip(w[-2:], 0.0, None))  # psi[2a + b, e]
    big_w = psi.reshape(state.dim_a, 4).T  # row 2b + e, column a
    rho_be = big_w @ big_w.conj().T
    rho_b = rho_be[0::2, 0::2] + rho_be[1::2, 1::2]
    sv = np.concatenate([np.linalg.svd(big_w.T @ _FLIP @ big_w, compute_uv=False), np.zeros(4)])
    c = max(0.0, sv[0] - sv[1:4].sum())
    x = (1.0 + np.sqrt(max(0.0, 1.0 - c * c))) / 2.0
    return vn_entropy(rho_b) - entropy_bits([x, 1.0 - x])


def _seq_trial(u: np.ndarray, b: np.ndarray):
    t = D._contract(np.einsum("ik,jl->klij", np.conj(u), u), b)
    sig = np.einsum("kkab->kab", t)
    w, v = np.linalg.eigh(sig)
    h, lw = D._entropy_terms(w, np.einsum("kaa->k", sig).real)
    return float(h), (t, v, lw)


def _seq_gradient(trial, iu) -> np.ndarray:
    t, v, lw = trial
    m = t.shape[0]
    lt = (np.conj(v) * lw[:, None, :]) @ v.transpose(0, 2, 1)
    g = (t.reshape(m, m, -1) @ lt.reshape(m, -1, 1))[..., 0]
    z = 2.0 * (g - np.conj(g.T))[iu]
    return np.concatenate([z.real, z.imag])


def sequential_refine(u: np.ndarray, b: np.ndarray):
    """(endpoint, H, evaluations) of one start u (M, M) on the block stack b.

    The measurement refinement as it was before its starts were refined in
    lockstep: the same BFGS and line search, on one basis, with the
    single-basis trial and gradient it used.  Its one stop rule is the
    package's: a trial is made only while its predicted decrease -t * slope
    exceeds _PROGRESS_RTOL max(1, |H|), and one that meets Armijo and lowers H
    is accepted.  It shares the package's block contraction, entropy terms
    and constants, so the lockstep refinement must reproduce it bit for bit,
    start by start.
    """
    m = u.shape[0]
    iu = np.triu_indices(m, 1)

    def step(x):
        k = np.zeros((m, m), dtype=np.complex128)
        k[iu] = x[: iu[0].size] + 1j * x[iu[0].size:]
        w, v = np.linalg.eigh(1j * (k - np.conj(k.T)))
        return (v * np.exp(-1j * w)) @ np.conj(v.T)

    h, kept = _seq_trial(u, b)
    g = _seq_gradient(kept, iu)
    hinv = np.eye(g.size)
    evals = 1
    for it in range(D._MAX_STEPS):
        d = -hinv @ g
        slope, t = float(g @ d), 1.0
        while -t * slope > D._PROGRESS_RTOL * max(1.0, abs(h)):
            u_new = u @ step(t * d)
            h_new, kept = _seq_trial(u_new, b)
            evals += 1
            if h_new < h and h_new <= h + D._ARMIJO * t * slope:
                break
            t *= 0.5
        else:
            break
        u, h = u_new, h_new
        g_new = _seq_gradient(kept, iu)
        evals += 1
        s, y = t * d, g_new - g
        sy = float(s @ y)
        if sy > 0.0:
            if it == 0:
                hinv = hinv * (sy / float(y @ y))
            hy = hinv @ y
            shy = np.outer(s, hy)
            hinv = hinv + (np.outer(s, s) * ((sy + float(y @ hy)) / sy) - shy - shy.T) / sy
        g = g_new
    return u, h, evals


# ---------------------------------------------------------------------------
# stratified X-state parameter sampling with decision margins


def sample_xstate_params(rng: np.random.Generator, kind: str):
    """Draw XStateParams of the requested kind, away from decision boundaries.

    kind 'generic' draws independent couplings (possibly non-positive or
    NPT), 'sppt' forces exactly equal coupling magnitudes, 'zero_discord'
    additionally imposes the diagonal swap symmetry, and 'diagonal' zeroes
    both couplings.  Every inequality the analytic predicates test is kept
    at least `margin` away from equality unless it holds exactly, so the
    closed forms and the numerical pipeline cannot disagree through
    rounding.
    """
    from qcorr import XStateParams

    margin = 1e-5
    while True:
        diag = rng.dirichlet(np.ones(4) * 1.2)
        if diag.min() < 0.02:
            continue
        a11, a22, b11, b22 = (float(x) for x in diag)
        alpha, beta = rng.uniform(0.0, 2.0 * np.pi, size=2)
        if kind == "generic":
            ra, rb = rng.uniform(0.0, 1.3, size=2)
            a12 = ra * np.sqrt(a11 * a22) * np.exp(1j * alpha)
            b12 = rb * np.sqrt(b11 * b22) * np.exp(1j * beta)
        elif kind == "sppt":
            mag = rng.uniform(0.0, 0.95) * min(np.sqrt(a11 * a22), np.sqrt(b11 * b22))
            a12 = mag * np.exp(1j * alpha)
            b12 = mag * np.exp(1j * beta)
        elif kind == "zero_discord":
            x, y = a11 / (2.0 * (a11 + a22)), a22 / (2.0 * (a11 + a22))
            a11, a22, b11, b22 = x, y, y, x
            mag = rng.uniform(0.0, 0.95) * np.sqrt(a11 * a22)
            a12 = mag * np.exp(1j * alpha)
            b12 = mag * np.exp(1j * beta)
        elif kind == "diagonal":
            a12 = 0j
            b12 = 0j
        else:
            raise ValueError(f"unknown kind {kind!r}")

        slacks = [
            a11 * a22 - abs(a12) ** 2,
            b11 * b22 - abs(b12) ** 2,
            a11 * a22 - abs(b12) ** 2,
            b11 * b22 - abs(a12) ** 2,
        ]
        if any(s != 0.0 and abs(s) < margin for s in slacks):
            continue
        # the definition residual is |.|a12|^2 - |b12|^2.| sqrt(1/a11^2 + 1/b11^2),
        # compared against eps_sppt; an absolute 1e-4 margin on the
        # squared-magnitude gap keeps that ratio > 10^3 on the failing side
        gap = abs(a12) ** 2 - abs(b12) ** 2
        if kind == "generic" and gap != 0.0 and abs(gap) < 1e-4:
            continue
        return XStateParams(a11=a11, a22=a22, b11=b11, b22=b22,
                            a12=complex(a12), b12=complex(b12))


def simplex_grid(steps: int) -> list[tuple[float, float, float, float]]:
    """All probability 4-tuples on the uniform simplex grid with `steps` steps."""
    pts = []
    for i in range(steps + 1):
        for j in range(steps + 1 - i):
            for k in range(steps + 1 - i - j):
                l = steps - i - j - k
                pts.append((i / steps, j / steps, k / steps, l / steps))
    return pts


def child_seeds(master: int, count: int) -> list[int]:
    """Deterministic stream of independent integer seeds."""
    rng = np.random.default_rng(master)
    return [int(s) for s in rng.integers(0, 2**63 - 1, size=count)]


# ---------------------------------------------------------------------------
# the factor of a canonical factorization, laid out block by block, and its
# gauge freedom


def factor_x(f, adjoint: bool = False) -> np.ndarray:
    """The upper block-triangular X of f, with X_j = f.x[j] on the block
    diagonal and S_jl X_j above it, so that rho = X^dagger X.

    With adjoint, S_jl^dagger replaces S_jl: the factor Y of the SPPT
    definition, for which Y^dagger Y = rho^{T_A} exactly on an SPPT state.
    """
    m = len(f.x)
    s = np.conj(np.swapaxes(f.s, -2, -1)) if adjoint else f.s
    zero = np.zeros_like(f.x[0])
    return np.block([[f.x[j] if l == j else s[j, l] @ f.x[j] if l > j else zero
                      for l in range(m)] for j in range(m)])


def gauge_transport(x, s, unitaries) -> SimpleNamespace:
    """The factors x and s moved along the gauge freedom of rho = X^dagger X:
    X_j -> G_j X_j and S_jl -> G_j S_jl G_j^dagger, with one unitary G_j per
    A level.  The result carries the new x and s, so factor_x takes it."""
    m = len(x)
    g = [np.asarray(u, dtype=np.complex128) for u in unitaries]
    return SimpleNamespace(
        x=np.array([g[j] @ x[j] for j in range(m)]),
        s=np.array([[g[j] @ s[j, l] @ np.conj(g[j].T) for l in range(m)] for j in range(m)]),
    )


def sppt_residual_names(m: int) -> list[str]:
    """qcorr's names for the values of sppt_residuals, in the same order."""
    normal = [f"normality_s{j + 1}{k + 1}" for j in range(m) for k in range(j + 1, m)]
    cross = [f"cross_s{j + 1}{k + 1}_s{j + 1}{l + 1}" for j in range(m)
             for k in range(j + 1, m) for l in range(k + 1, m)]
    if m == 2:
        return ["normality"]
    return [*normal, "cross"] if m == 3 else normal + cross


def sppt_residuals(s) -> list[float]:
    """Frobenius norms of S_jk S_jl^dagger - S_jl^dagger S_jk for j < k <= l:
    first every normality condition (k = l), then every cross condition
    (k < l), each group in (j, k, l) order."""
    m = len(s)

    def residual(j, k, l):
        a, bd = s[j, k], np.conj(s[j, l].T)
        return float(np.linalg.norm(a @ bd - bd @ a))

    return ([residual(j, k, k) for j in range(m) for k in range(j + 1, m)]
            + [residual(j, k, l) for j in range(m) for k in range(j + 1, m)
               for l in range(k + 1, m)])


# ---------------------------------------------------------------------------
# unrolled 2xN and 3xN canonical factorizations: the strong-PPT test as it was
# written before the block Cholesky took dim_a as a parameter, kept as an
# oracle for qcorr.factorization


def _dag(a: np.ndarray) -> np.ndarray:
    return np.conj(a.T)


def _herm(a: np.ndarray) -> np.ndarray:
    return (a + _dag(a)) / 2


def _fro(a) -> float:
    return float(np.linalg.norm(a))


# relative eigenvalue cutoff of the oracle pseudoinverses, fixed here rather
# than read from qcorr so that the oracles stay independent of it
EPS_RANK = 1e-10


def pseudo_inverse(a) -> np.ndarray:
    """Moore-Penrose pseudoinverse of a Hermitian matrix.

    Eigenvalues with magnitude at or below EPS_RANK times the largest
    magnitude are treated as exact zeros.
    """
    h = np.asarray(a, dtype=np.complex128)
    if h.size == 0:
        return np.zeros_like(h)
    lam, v = np.linalg.eigh(_herm(h))
    cut = EPS_RANK * float(np.max(np.abs(lam)))
    inv = np.divide(1.0, lam, out=np.zeros_like(lam), where=np.abs(lam) > cut)
    return _herm((v * inv) @ _dag(v))


def schur_difference(state: BipartiteState) -> float:
    """|rho_12 rho_11^+ rho_12^dagger - rho_12^dagger rho_11^+ rho_12|_F of a 2xN state.

    rho^{T_A} shares rho_11 with rho and has rho_12^dagger in the corner, so
    this is the difference of their Schur complements with respect to
    rho_11.  When rho_11 is invertible it is block (2, 2) of
    Y^dagger Y - rho^{T_A}, whose other blocks vanish, so it equals the
    definition residual.  rho_11^+ is pseudo_inverse, with its own cut.
    """
    n = state.dim_b
    r11, r12 = state.rho[:n, :n], state.rho[:n, n:]
    inv = pseudo_inverse(r11)
    return _fro(r12 @ inv @ _dag(r12) - _dag(r12) @ inv @ r12)


def _sqrt_pinv(m: np.ndarray):
    """Clamped PSD sqrt of a Hermitian m, the pseudoinverse of that sqrt, its rank."""
    w, v = np.linalg.eigh(m)
    w, v = w[::-1], v[:, ::-1]
    lam = np.clip(w, 0.0, None)
    keep = lam > EPS_RANK * lam[0]
    root = np.sqrt(lam)
    inv = np.zeros_like(lam)
    inv[keep] = 1.0 / root[keep]
    return _herm((v * root) @ _dag(v)), _herm((v * inv) @ _dag(v)), int(np.count_nonzero(keep))


def _completion(m: np.ndarray, deficient: bool, tol: Tolerance, scale: float):
    """_sqrt_pinv of a Schur complement; on a flagged extraction whose
    complement is below the PSD floor, the clamped sqrt with pinv 0 and rank 0."""
    m = _herm(m)
    x, xp, rank = _sqrt_pinv(m)
    if deficient and np.linalg.eigvalsh(m)[0] < -tol.eps_psd * scale:
        xp, rank = np.zeros_like(m), 0
    return x, xp, rank


def _outside(m: np.ndarray, x: np.ndarray, xp: np.ndarray) -> float:
    proj = _herm(x @ xp)
    return _fro(m - proj @ m @ proj)


def _unrolled_2xn(r, n: int, scale: float, tol: Tolerance):
    x1, x1p, rank1 = _sqrt_pinv(_herm(r[0][0]))
    s = x1p @ r[0][1] @ x1p
    mass = _outside(r[0][1], x1, x1p)
    deficient = rank1 < n and mass > tol.eps_residual * scale
    x2, _, _ = _completion(r[1][1] - x1 @ _dag(s) @ s @ x1, deficient, tol, scale)
    zero = np.zeros_like(x1)
    x = np.block([[x1, s @ x1], [zero, x2]])
    y = np.block([[x1, _dag(s) @ x1], [zero, x2]])
    return x, y, {"normality": _fro(_dag(s) @ s - s @ _dag(s))}, mass, deficient


def _unrolled_3xn(r, n: int, scale: float, tol: Tolerance):
    x1, x1p, rank1 = _sqrt_pinv(_herm(r[0][0]))
    s12 = x1p @ r[0][1] @ x1p
    s13 = x1p @ r[0][2] @ x1p
    mass12 = _outside(r[0][1], x1, x1p)
    mass13 = _outside(r[0][2], x1, x1p)
    deficient = rank1 < n and max(mass12, mass13) > tol.eps_residual * scale
    x2, x2p, rank2 = _completion(r[1][1] - x1 @ _dag(s12) @ s12 @ x1, deficient, tol, scale)
    m23 = r[1][2] - x1 @ _dag(s12) @ s13 @ x1
    s23 = x2p @ m23 @ x2p
    mass23 = _outside(m23, x2, x2p)
    deficient = deficient or (rank2 < n and mass23 > tol.eps_residual * scale)
    m33 = r[2][2] - x1 @ _dag(s13) @ s13 @ x1 - x2 @ _dag(s23) @ s23 @ x2
    x3, _, _ = _completion(m33, deficient, tol, scale)
    zero = np.zeros_like(x1)
    x = np.block([[x1, s12 @ x1, s13 @ x1], [zero, x2, s23 @ x2], [zero, zero, x3]])
    y = np.block([[x1, _dag(s12) @ x1, _dag(s13) @ x1], [zero, x2, _dag(s23) @ x2],
                  [zero, zero, x3]])
    residuals = {f"normality_{k}": _fro(_dag(s) @ s - s @ _dag(s))
                 for k, s in (("s12", s12), ("s13", s13), ("s23", s23))}
    residuals["cross"] = _fro(s12 @ _dag(s13) - _dag(s13) @ s12)
    mass = float(np.sqrt(mass12**2 + mass13**2 + mass23**2))
    return x, y, residuals, mass, deficient


def unrolled_sppt(state: BipartiteState, tol: Tolerance = Tolerance()):
    """(is_sppt, named residuals, rank_deficient) of a 2xN or 3xN state.

    The verdict is the definition: the factor Y, X with every S_jl replaced
    by S_jl^dagger, has |Y^dagger Y - rho^{T_A}|_F <= eps_sppt, X explains
    rho and the state is PPT.  The residual names and their order are those
    of qcorr's SPPT report.  Every block is clamped at the rank cut and
    nothing raises: positivity is validate's decision.
    """
    m, n = state.dim_a, state.dim_b
    r = [[state.rho[k * n:(k + 1) * n, l * n:(l + 1) * n] for l in range(m)] for k in range(m)]
    scale = max(1.0, _fro(state.rho))
    unrolled = {2: _unrolled_2xn, 3: _unrolled_3xn}[m]
    x, y, residuals, mass, deficient = unrolled(r, n, scale, tol)
    pt = naive_partial_transpose(state.rho, m, n)
    residuals["definition"] = _fro(_dag(y) @ y - pt)
    residuals["reconstruction"] = _fro(_dag(x) @ x - state.rho)
    residuals["unexplained_mass"] = mass
    lam_min = float(np.linalg.eigvalsh(_herm(pt))[0])
    residuals["ppt_min_eigenvalue"] = lam_min
    verdict = bool(residuals["definition"] <= tol.eps_sppt * scale
                   and residuals["reconstruction"] <= tol.eps_residual * scale
                   and lam_min >= -tol.eps_psd and not deficient)
    return verdict, residuals, deficient


# ---------------------------------------------------------------------------
# the row-by-row block Cholesky as qcorr.factorization wrote it before it kept
# the factor as built: separate x and s, a four-way Schur update and a factor
# reassembled from s @ x, kept as an oracle for qcorr.factorization


def _dag_stack(a: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(a, -1, -2))


def _reassemble(x: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The (m n, m n) factor with diagonal blocks x[j] and s[j, l] @ x[j]
    above them."""
    m, n = len(x), x.shape[-1]
    blocks = s @ x[:, None]
    blocks[np.diag_indices(m)] = x
    return blocks.transpose(0, 2, 1, 3).reshape(m * n, m * n)


def rowwise_factorize(state: BipartiteState, tol: Tolerance = Tolerance()) -> SimpleNamespace:
    """The canonical factorization with the fields of qcorr's SpptFactorization.

    Row j's unexplained part is rho_jl - sum_{i<j} (X_i S_ij^dagger)(S_il X_i),
    X_j and X_j^+ come from two products with V^dagger, the reconstruction
    residual is read off the factor reassembled from its diagonal x and its
    blocks s @ x, and the definition residual off Y, reassembled from x and
    the blocks s^dagger @ x, against the naive partial transpose.  The rank
    cut is EPS_RANK tr rho_jj; nothing raises, and a row after a flagged row
    whose complement is below -eps_psd takes X_j^+ = 0.
    """
    m, n = state.dim_a, state.dim_b
    t = state.rho.reshape(m, n, m, n).transpose(0, 2, 1, 3)
    x = np.zeros((m, n, n), dtype=np.complex128)
    s = np.zeros((m, m, n, n), dtype=np.complex128)
    cut = EPS_RANK * np.maximum(np.einsum("jjaa->j", t).real, 0.0)
    deficient, mass_sq = False, 0.0
    for j in range(m):
        r = t[j, j:]
        if j:
            explained = (x[:j] @ _dag_stack(s[:j, j]))[:, None] @ (s[:j, j:] @ x[:j, None])
            r = r - explained.sum(axis=0)
        w, v = np.linalg.eigh(r[0])
        keep = w > cut[j]
        root = np.sqrt(np.where(keep, w, 0.0))
        x[j] = (v * root) @ _dag(v)
        if deficient and w[0] < -tol.eps_psd:
            keep[:] = False
        if j + 1 == m:
            break
        xp = (v * (keep / np.where(keep, root, 1.0))) @ _dag(v)
        s[j, j + 1:] = xp @ r[1:] @ xp
        if not keep.all():
            proj = _herm(x[j] @ xp)
            for l in range(j + 1, m):
                mass = _fro(r[l - j] - proj @ r[l - j] @ proj)
                mass_sq += mass**2
                deficient = deficient or mass > tol.eps_residual
    big_x, big_y = (_reassemble(x, blocks) for blocks in (s, _dag_stack(s)))
    names = sppt_residual_names(m)
    return SimpleNamespace(
        x=x,
        s=s,
        residuals=dict(zip(names, sppt_residuals(s))),
        reconstruction_residual=_fro(np.conj(big_x.T) @ big_x - state.rho),
        definition_residual=_fro(np.conj(big_y.T) @ big_y
                                 - naive_partial_transpose(state.rho, m, n)),
        rank_deficient=deficient,
        unexplained_mass=float(np.sqrt(mass_sq)),
    )
