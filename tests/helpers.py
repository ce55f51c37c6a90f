"""Reference implementations shared by the test suite.

Everything in this module is deliberately written *independently* of the
package internals: explicit loops instead of reshapes, closed-form 2x2
eigenvalues instead of LAPACK where possible, and alternative mathematical
characterizations (Bloch-span rank, commuting slice families) instead of the
detection algorithms under test.  A test that compares the package against
these oracles can only pass if both derivations agree.
"""
from __future__ import annotations

import numpy as np

from qcorr import BipartiteState


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


def eig2(a: float, d: float, b: complex) -> tuple[float, float]:
    """Eigenvalues of [[a, b], [conj(b), d]] from the quadratic formula."""
    m = 0.5 * (a + d)
    r = np.sqrt(0.25 * (a - d) ** 2 + abs(b) ** 2)
    return float(m - r), float(m + r)


def binary_entropy(x) -> np.ndarray:
    x = np.clip(np.asarray(x, dtype=np.float64), 0.0, 1.0)
    out = np.zeros_like(x)
    for val in (x, 1.0 - x):
        mask = val > 0.0
        out = out - np.where(mask, val * np.log2(np.where(mask, val, 1.0)), 0.0)
    return out


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


def _haar3(rng: np.random.Generator) -> np.ndarray:
    g = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))) / np.sqrt(2.0)
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
        starts.append(_haar3(rng))
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
    m, n = state.dim_a, state.dim_b
    if m not in (2, 3):
        raise ValueError("searched_off_mass expects dim_a 2 or 3")
    rho = state.rho
    blocks = np.array([[rho[k * n:(k + 1) * n, l * n:(l + 1) * n] for l in range(m)]
                       for k in range(m)])
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
        # the numerical normality residual is ~ |.|a12|^2 - |b12|^2.| / (a11 b11),
        # compared against eps_sppt * max(1, |S|^2); an absolute 1e-4 margin on
        # the squared-magnitude gap keeps that ratio > 10^3 on the failing side
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
