"""Named state families and random ensembles.

Constructors for classical-quantum states, X-states and Bell-diagonal
states, their closed-form positivity / PPT / SPPT / zero-discord
predicates, and seeded random generators (Ginibre densities, Haar
unitaries, random CQ / SPPT / pure states).

All randomness flows through numpy's default_rng (the PCG64 bit
generator): a fixed integer seed reproduces every state bit for bit.

Predicates compare real closed forms; equalities and sign tests use the
absolute slack EQ_ATOL so that parameter sets constructed from float
arithmetic (grids, differences of probabilities) land on the intended
side.  Genuine violations in the sampled families are separated from
zero by many orders of magnitude more than the slack.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .bipartite import TRACE_ATOL, BipartiteState, assemble_blocks, validate
from .errors import InvalidParams, InvalidSpec
from .matlib import DEFAULT_TOL, Tolerance, dagger, fro_norm, hermitize

__all__ = [
    "EQ_ATOL",
    "XStateParams",
    "BellDiagonalParams",
    "CqSpec",
    "build_cq_state",
    "xstate",
    "xstate_matrix",
    "xstate_is_positive",
    "xstate_is_ppt",
    "xstate_is_sppt",
    "xstate_zero_discord",
    "bell_diagonal",
    "induced_xstate",
    "bell_is_sppt",
    "bell_zero_discord",
    "random_ginibre_density",
    "random_unitary",
    "random_cq_spec",
    "random_cq",
    "random_sppt",
    "random_pure",
]

EQ_ATOL = 1e-12


@dataclass(frozen=True)
class XStateParams:
    """Two-qubit X-state parameters.

    The diagonal weights are real and sum to 1; a12 couples |00> with |11>
    and b12 couples |01> with |10>; all six are finite.  Positivity of the
    assembled state is equivalent to a11 a22 >= |a12|^2 and b11 b22 >= |b12|^2.
    """

    a11: float
    a22: float
    b11: float
    b22: float
    a12: complex
    b12: complex

    def __post_init__(self) -> None:
        diag = (self.a11, self.a22, self.b11, self.b22)
        if not all(map(cmath.isfinite, (*diag, self.a12, self.b12))):
            raise InvalidParams(f"non-finite parameter in {(*diag, self.a12, self.b12)}")
        if any(d < -EQ_ATOL for d in diag):
            raise InvalidParams(f"negative diagonal weight in {diag}")
        total = float(sum(diag))
        if abs(total - 1.0) > TRACE_ATOL:
            raise InvalidParams(f"diagonal weights sum to {total!r}, expected 1")


@dataclass(frozen=True)
class BellDiagonalParams:
    """Finite probabilities over the Bell basis, ordered (Phi+, Phi-, Psi+, Psi-)."""

    p1: float
    p2: float
    p3: float
    p4: float

    def __post_init__(self) -> None:
        p = (self.p1, self.p2, self.p3, self.p4)
        if not all(map(cmath.isfinite, p)):
            raise InvalidParams(f"non-finite probability in {p}")
        if any(x < -EQ_ATOL for x in p):
            raise InvalidParams(f"negative probability in {p}")
        if abs(sum(p) - 1.0) > TRACE_ATOL:
            raise InvalidParams(f"probabilities sum to {sum(p)!r}, expected 1")


@dataclass(frozen=True)
class CqSpec:
    """Ingredients of a classical-quantum state.

    u is a dim_a x dim_a unitary whose columns are the classical basis
    vectors; sigmas are dim_a PSD operators on the B side whose traces sum
    to 1 (they carry the outcome probabilities).
    """

    dim_a: int
    u: np.ndarray
    sigmas: tuple[np.ndarray, ...]


def build_cq_state(spec: CqSpec, tol: Tolerance = DEFAULT_TOL) -> BipartiteState:
    """Assemble rho = sum_k |f_k><f_k| x sigma_k with f_k the columns of u."""
    m = spec.dim_a
    if m < 1:
        raise InvalidSpec(f"dim_a must be at least 1, got {m}")
    u = np.asarray(spec.u, dtype=np.complex128)
    if u.shape != (m, m):
        raise InvalidSpec(f"u must be {m}x{m}, got {u.shape}")
    if not np.isfinite(u).all():
        raise InvalidSpec("u has NaN or infinite entries")
    defect = fro_norm(dagger(u) @ u - np.eye(m))
    if defect > 1e-10:
        raise InvalidSpec(f"u unitarity defect {defect:.3e} exceeds 1e-10")
    if len(spec.sigmas) != m:
        raise InvalidSpec(f"expected {m} conditional operators, got {len(spec.sigmas)}")
    sigmas = [np.asarray(s, dtype=np.complex128) for s in spec.sigmas]
    if sigmas[0].ndim != 2:
        raise InvalidSpec(f"conditional operators must be matrices, got shape {sigmas[0].shape}")
    n = sigmas[0].shape[0]
    total = 0.0
    for s in sigmas:
        if s.shape != (n, n):
            raise InvalidSpec(f"conditional operators must share shape {(n, n)}, got {s.shape}")
        if not np.isfinite(s).all():
            raise InvalidSpec("conditional operator has NaN or infinite entries")
        if fro_norm(s - dagger(s)) > tol.eps_residual * max(1.0, fro_norm(s)):
            raise InvalidSpec("conditional operator is not Hermitian")
        w = np.linalg.eigvalsh(hermitize(s))
        if w.size and float(w[0]) < -tol.eps_psd * max(1.0, fro_norm(s)):
            raise InvalidSpec(f"conditional operator has eigenvalue {float(w[0]):.3e}")
        total += float(np.trace(s).real)
    if abs(total - 1.0) > TRACE_ATOL:
        raise InvalidSpec(f"conditional traces sum to {total!r}, expected 1")

    blocks = np.einsum("km,lm,mab->klab", u, np.conj(u), np.array(sigmas))
    return validate(assemble_blocks(blocks), m, n, tol)


def xstate_matrix(params: XStateParams) -> np.ndarray:
    """The 4x4 X-pattern matrix; assembled without any positivity check."""
    a12 = complex(params.a12)
    b12 = complex(params.b12)
    return np.array(
        [
            [params.a11, 0.0, 0.0, a12],
            [0.0, params.b11, b12, 0.0],
            [0.0, np.conj(b12), params.b22, 0.0],
            [np.conj(a12), 0.0, 0.0, params.a22],
        ],
        dtype=np.complex128,
    )


def xstate(params: XStateParams, tol: Tolerance = DEFAULT_TOL) -> BipartiteState:
    """The validated two-qubit X-state; requires positive parameters."""
    if not xstate_is_positive(params):
        raise InvalidParams("parameters violate the positivity inequalities")
    return validate(xstate_matrix(params), 2, 2, tol)


def xstate_is_positive(params: XStateParams) -> bool:
    """a11 a22 >= |a12|^2 and b11 b22 >= |b12|^2."""
    return (
        params.a11 * params.a22 - abs(params.a12) ** 2 >= -EQ_ATOL
        and params.b11 * params.b22 - abs(params.b12) ** 2 >= -EQ_ATOL
    )


def xstate_is_ppt(params: XStateParams) -> bool:
    """Positivity plus the partially transposed pair of inequalities."""
    return (
        xstate_is_positive(params)
        and params.a11 * params.a22 - abs(params.b12) ** 2 >= -EQ_ATOL
        and params.b11 * params.b22 - abs(params.a12) ** 2 >= -EQ_ATOL
    )


def xstate_is_sppt(params: XStateParams) -> bool:
    """Positivity plus |a12| = |b12| (which already implies PPT)."""
    return xstate_is_positive(params) and abs(abs(params.a12) - abs(params.b12)) <= EQ_ATOL


def xstate_zero_discord(params: XStateParams) -> bool:
    """Exact zero-discord test.

    Either both couplings vanish (the state is diagonal, hence classical in
    the computational basis), or |a12| = |b12| together with a11 = b22 and
    a22 = b11, which makes the two 2x2 parameter matrices unitarily
    equivalent by an antidiagonal phase unitary.
    """
    if not xstate_is_positive(params):
        return False
    if abs(params.a12) <= EQ_ATOL and abs(params.b12) <= EQ_ATOL:
        return True
    return (
        abs(abs(params.a12) - abs(params.b12)) <= EQ_ATOL
        and abs(params.a11 - params.b22) <= EQ_ATOL
        and abs(params.a22 - params.b11) <= EQ_ATOL
    )


def bell_diagonal(params: BellDiagonalParams, tol: Tolerance = DEFAULT_TOL) -> BipartiteState:
    """rho = sum_i p_i P_i over the Bell projectors, assembled as its X state."""
    return validate(xstate_matrix(induced_xstate(params)), 2, 2, tol)


def induced_xstate(params: BellDiagonalParams) -> XStateParams:
    """X-state parameters of the Bell-diagonal density matrix.

    The density matrix sum_i p_i P_i carries half of the customary
    (p1 +- p2, p3 +- p4) combinations in each slot, so that the diagonal
    weights sum to 1.
    """
    return XStateParams(
        a11=(params.p1 + params.p2) / 2.0,
        a22=(params.p1 + params.p2) / 2.0,
        b11=(params.p3 + params.p4) / 2.0,
        b22=(params.p3 + params.p4) / 2.0,
        a12=(params.p1 - params.p2) / 2.0,
        b12=(params.p3 - params.p4) / 2.0,
    )


def bell_is_sppt(params: BellDiagonalParams) -> bool:
    """|p1 - p2| = |p3 - p4| to 2 EQ_ATOL: xstate_is_sppt of the induced
    X state, which compares the half-differences with EQ_ATOL."""
    return xstate_is_sppt(induced_xstate(params))


def bell_zero_discord(params: BellDiagonalParams) -> bool:
    """p1 = p2 and p3 = p4, or p1 = p3 and p2 = p4, or p1 = p4 and p2 = p3,
    each to 2 EQ_ATOL: xstate_zero_discord of the induced X state, which
    compares the halves with EQ_ATOL."""
    return xstate_zero_discord(induced_xstate(params))


def _ginibre(rng: np.random.Generator, n: int) -> np.ndarray:
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)


def random_ginibre_density(n: int, rng_seed) -> np.ndarray:
    """rho = G G^dagger / tr(G G^dagger) with i.i.d. complex Gaussian G."""
    g = _ginibre(np.random.default_rng(rng_seed), n)
    rho = g @ dagger(g)
    return hermitize(rho / np.trace(rho).real)


def random_unitary(n: int, rng_seed) -> np.ndarray:
    """Haar-distributed unitary (QR of a Ginibre matrix, phases fixed)."""
    q, r = np.linalg.qr(_ginibre(np.random.default_rng(rng_seed), n))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_cq_spec(dim_a: int, n: int, rng_seed) -> CqSpec:
    """Random ingredients of a classical-quantum state.

    The basis is Haar random; conditional operators mix a Ginibre density
    with a sliver of the maximally mixed state, and the outcome weights are
    kept away from 0.  Both choices bound the conditioning of the induced
    factorizations so residuals stay near machine precision across
    ensembles.
    """
    rng = np.random.default_rng(rng_seed)
    u = random_unitary(dim_a, rng)
    w = rng.dirichlet(np.ones(dim_a))
    w = (w + 0.25) / (1.0 + 0.25 * dim_a)
    sigmas = []
    for k in range(dim_a):
        g = _ginibre(rng, n)
        dens = g @ dagger(g)
        dens = dens / np.trace(dens).real
        sigmas.append(w[k] * hermitize(0.95 * dens + 0.05 * np.eye(n) / n))
    return CqSpec(dim_a=dim_a, u=u, sigmas=tuple(sigmas))


def random_cq(dim_a: int, n: int, rng_seed, tol: Tolerance = DEFAULT_TOL) -> BipartiteState:
    """Random classical-quantum state built from random_cq_spec."""
    return build_cq_state(random_cq_spec(dim_a, n, rng_seed), tol)


def random_sppt(n: int, rng_seed, tol: Tolerance = DEFAULT_TOL) -> BipartiteState:
    """Random 2xN state that is SPPT by construction.

    Builds X = [[X1, S X1], [0, X2]] with well-conditioned X1, X2 and a
    random normal S = W D W^dagger (Haar W, complex diagonal D), then
    normalizes rho = X^dagger X.  Normality of S survives the canonical
    re-extraction, which conjugates S by the unitary polar factor of X1.
    """
    rng = np.random.default_rng(rng_seed)
    xs = []
    for _ in range(2):
        g = _ginibre(rng, n)
        xs.append(np.eye(n) + 0.5 * g / max(np.linalg.norm(g, 2), 1e-12))
    w = random_unitary(n, rng)
    d = np.diag((rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0))
    s = w @ d @ dagger(w)
    x1, x2 = xs
    zero = np.zeros((n, n), dtype=np.complex128)
    x = assemble_blocks(np.array([[x1, s @ x1], [zero, x2]]))
    rho = dagger(x) @ x
    return validate(rho / np.trace(rho).real, 2, n, tol)


def random_pure(dim_a: int, n: int, rng_seed, tol: Tolerance = DEFAULT_TOL) -> BipartiteState:
    """Haar-random pure state on the dim_a x n system."""
    rng = np.random.default_rng(rng_seed)
    psi = rng.standard_normal(dim_a * n) + 1j * rng.standard_normal(dim_a * n)
    psi = psi / np.linalg.norm(psi)
    return validate(np.outer(psi, np.conj(psi)), dim_a, n, tol)
