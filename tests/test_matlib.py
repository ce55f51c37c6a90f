"""Matrix helpers: the Tolerance record, the matlib one-liners, the PSD
square root and the Moore-Penrose pseudoinverse.

The PSD square root tests go through factorize on hand-built states: it
takes the one production root, X_j = sqrt(M_jj), clamped at the rank cut
(positivity is validate's decision, so factorize raises on no block), and
its S = X_1^+ rho12 X_1^+ reads the pseudoinverse; the Moore-Penrose tests
exercise the pseudoinverse in tests/helpers.py, which criterion 02 uses.
"""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import pseudo_inverse
from qcorr import BipartiteState, DEFAULT_TOL, OptimizerConfig, Tolerance, validate
from qcorr.errors import InvalidParams, NotPsd
from qcorr.factorization import factorize
from qcorr.matlib import dagger, fro_norm, hermitize


def random_hermitian(seed: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2


def test_default_tolerances_frozen():
    t = DEFAULT_TOL
    assert t.eps_psd == 1e-9
    assert t.eps_residual == 1e-8
    assert t.eps_sppt == 1e-7
    assert [f.name for f in dataclasses.fields(t)] == ["eps_psd", "eps_residual", "eps_sppt"]


@pytest.mark.parametrize("make", [
    lambda v: Tolerance(eps_psd=v),
    lambda v: Tolerance(eps_residual=v),
    lambda v: Tolerance(eps_sppt=v),
    lambda v: OptimizerConfig(eps_opt=v),
], ids=["eps_psd", "eps_residual", "eps_sppt", "eps_opt"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), -1e-12])
def test_settings_reject_non_finite_or_negative_values(make, value):
    with pytest.raises(InvalidParams, match="must be finite and non-negative"):
        make(value)
    assert make(0.0) is not None


def test_tolerance_is_immutable():
    with pytest.raises(Exception):
        DEFAULT_TOL.eps_psd = 1.0  # frozen dataclass


def test_dagger_conjugate_transposes():
    a = np.array([[1 + 2j, 3], [4j, 5], [6, 7 - 1j]])
    d = dagger(a)
    assert d.shape == (2, 3)
    assert d[0, 1] == np.conj(a[1, 0])
    assert np.array_equal(dagger(d), a.astype(np.complex128))


def test_fro_norm_matches_direct_sum():
    a = np.array([[3j, 4.0], [0.0, 0.0]])
    assert fro_norm(a) == pytest.approx(5.0, abs=1e-15)


def test_hermitize_projects_and_defect_vanishes():
    a = np.array([[1.0, 2.0 + 1j], [0.0, 3.0]])
    h = hermitize(a)
    assert fro_norm(h - dagger(h)) < 1e-15
    assert np.allclose(h, (a + a.conj().T) / 2)


def hand_built(blocks, dim_a: int = 2) -> BipartiteState:
    """The state with the given grid of blocks, unvalidated: factorize checks
    no positivity and clamps every block, so any Hermitian block pattern
    reaches it."""
    rho = np.block(blocks).astype(np.complex128)
    return BipartiteState(dim_a=dim_a, dim_b=len(rho) // dim_a, rho=rho,
                          spectrum=np.linalg.eigvalsh(rho)[::-1])


def psd_sqrt(a) -> np.ndarray:
    """X_1 = sqrt(rho11) of the 2xN state with rho11 = a, rho12 = 0, rho22 = I."""
    zero = np.zeros_like(a)
    return factorize(hand_built([[a, zero], [zero, np.eye(len(a))]])).x[0]


def test_psd_sqrt_closed_form_diagonal():
    # rho12 = X_1 + e3 e3^T / 2: S = X_1^+ rho12 X_1^+ = X_1^+ X_1 X_1^+ reads X_1^+,
    # and the e3 part, outside the rank-2 range of X_1, is the unexplained mass
    x1 = np.diag([2.0, 1.0, 0.0])
    off = x1 + np.diag([0.0, 0.0, 0.5])
    # an eps_psd of 0 admits rho11 = diag(4, 1, 0): its least eigenvalue is not negative
    f = factorize(hand_built([[x1 @ x1, off], [off, 2 * np.eye(3)]]), Tolerance(eps_psd=0.0))
    assert np.allclose(f.x[0], x1, atol=1e-14)
    assert np.allclose(f.s[0, 1], np.diag([0.5, 1.0, 0.0]), atol=1e-14)
    assert f.rank_deficient
    assert f.unexplained_mass == pytest.approx(0.5, abs=1e-14)


def test_psd_sqrt_clamps_tiny_negative_eigenvalues():
    a = np.diag([1.0, -1e-12])
    r = psd_sqrt(a)
    assert np.allclose(r @ r, np.diag([1.0, 0.0]), atol=1e-10)


def test_psd_sqrt_rejects_clearly_indefinite():
    # validate, not factorize, rejects rho11 = diag(1, -1e-3) and names the
    # least eigenvalue of the normalized state; factorize clamps the same block
    a = np.diag([1.0, -1e-3])
    rho = np.block([[a, np.zeros((2, 2))], [np.zeros((2, 2)), np.eye(2)]])
    with pytest.raises(NotPsd, match=r"^min eigenvalue -3\.334e-04 below -1\.0e-09$"):
        validate(rho / np.trace(rho), 2, 2)
    r = psd_sqrt(a)
    assert np.allclose(r @ r, np.diag([1.0, 0.0]), atol=1e-10)


Z, E1, E2 = np.zeros((2, 2)), np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
RHO22 = np.diag([1.0, -0.5])


def flagged_row_state() -> BipartiteState:
    """The 3x2 pattern with rho11 = E1, rho12 = E2, rho22 = RHO22 and
    rho23 = ones: row 1 is flagged rank-deficient and M_22 = RHO22."""
    b = np.ones((2, 2))
    return hand_built([[E1, E2, Z], [E2, RHO22, b], [Z, b, np.eye(2)]], dim_a=3)


def test_psd_sqrt_clamps_any_negative_eigenvalue_and_reports_it():
    # the completion of the flagged row keeps its clamped root and takes
    # X_2^+ = 0, so S_23 = 0 and all of rho23 is unexplained mass
    f = factorize(flagged_row_state())
    assert f.rank_deficient
    assert np.allclose(f.x[1], E1, atol=1e-14)
    assert np.array_equal(f.s[1, 2], Z)
    assert f.unexplained_mass == pytest.approx(np.sqrt(1.0 + 4.0), abs=1e-14)
    # unflagged, the same block is clamped at the rank cut, like any other
    g = factorize(hand_built([[E1, Z], [Z, RHO22]]))
    assert not g.rank_deficient
    assert np.allclose(g.x[1], E1, atol=1e-14)


def test_pseudo_inverse_matches_inverse_when_invertible():
    a = random_hermitian(4, 4) + 5 * np.eye(4)
    assert fro_norm(pseudo_inverse(a) - np.linalg.inv(a)) < 1e-10


def test_pseudo_inverse_moore_penrose_on_singular_input():
    v = np.array([[1.0], [2.0]]) / np.sqrt(5)
    a = v @ v.T  # rank 1 projector-like matrix
    p = pseudo_inverse(a)
    assert fro_norm(a @ p @ a - a) < 1e-12
    assert fro_norm(p @ a @ p - p) < 1e-12
    assert fro_norm(a @ p - dagger(a @ p)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 6))
def test_psd_sqrt_squares_back_property(seed, n):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a = g @ g.conj().T
    r = psd_sqrt(a)
    assert fro_norm(r - dagger(r)) < 1e-10 * max(1.0, fro_norm(a))
    assert fro_norm(r @ r - a) < 1e-9 * max(1.0, fro_norm(a))


def test_custom_tolerance_threads_through_psd_check():
    # M_22 = diag(1, -0.5) of the flagged row: below the default floor the
    # completion takes X_2^+ = 0 and S_23 = 0; within a loose one
    # X_2^+ = diag(1, 0) survives and S_23 = X_2^+ rho23 X_2^+ = E1
    state = flagged_row_state()
    assert np.array_equal(factorize(state).s[1, 2], Z)
    f = factorize(state, Tolerance(eps_psd=1.0))
    assert f.rank_deficient
    assert np.allclose(f.x[1], E1, atol=1e-14)
    assert np.allclose(f.s[1, 2], E1, atol=1e-14)
