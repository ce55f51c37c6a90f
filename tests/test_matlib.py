"""Matrix helpers: the Tolerance record, the matlib one-liners, the PSD
square root and the Moore-Penrose pseudoinverse.

The PSD square root tests exercise factorization._sqrt_with_pinv, the one
production square root, and the PSD floor that factorize applies to the
least eigenvalue it reports; the Moore-Penrose tests exercise the
pseudoinverse in tests/helpers.py, which criterion 02 uses.
"""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import pseudo_inverse
from qcorr import BipartiteState, DEFAULT_TOL, OptimizerConfig, Tolerance
from qcorr.errors import InvalidParams, NotPsd
from qcorr.factorization import _sqrt_with_pinv, factorize
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


def psd_sqrt(a) -> np.ndarray:
    return _sqrt_with_pinv(np.asarray(a, dtype=np.complex128))[0]


def test_psd_sqrt_closed_form_diagonal():
    r, rp, rank, lam_min = _sqrt_with_pinv(np.diag([4.0, 1.0, 0.0]))
    assert np.allclose(r, np.diag([2.0, 1.0, 0.0]), atol=1e-14)
    assert np.allclose(rp, np.diag([0.5, 1.0, 0.0]), atol=1e-14)
    assert rank == 2
    assert lam_min == 0.0


def test_psd_sqrt_clamps_tiny_negative_eigenvalues():
    a = np.diag([1.0, -1e-12])
    r = psd_sqrt(a)
    assert np.allclose(r @ r, np.diag([1.0, 0.0]), atol=1e-10)


def test_psd_sqrt_rejects_clearly_indefinite():
    # the root reports the eigenvalue that factorize's floor rejects
    lam_min = _sqrt_with_pinv(np.diag([1.0, -1e-3]).astype(complex))[3]
    assert lam_min == pytest.approx(-1e-3, abs=1e-15)
    assert lam_min < -DEFAULT_TOL.eps_psd


def test_psd_sqrt_clamps_any_negative_eigenvalue_and_reports_it():
    # the completion of a rank-deficient extraction keeps this clamped root
    r, rp, rank, lam_min = _sqrt_with_pinv(np.diag([1.0, -0.5]).astype(complex))
    assert np.allclose(r, np.diag([1.0, 0.0]), atol=1e-14)
    assert np.allclose(rp, np.diag([1.0, 0.0]), atol=1e-14)
    assert rank == 1
    assert lam_min == -0.5


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
    # rho11 = diag(0.5, -1e-3) is below the default floor, within a loose one
    rho = np.diag([0.5, -1e-3, 0.25, 0.251]).astype(complex)
    state = BipartiteState(dim_a=2, dim_b=2, rho=rho, spectrum=np.linalg.eigvalsh(rho)[::-1])
    with pytest.raises(NotPsd, match=r"^min eigenvalue -1\.000e-03 below -1\.000e-09$"):
        factorize(state)
    f = factorize(state, Tolerance(eps_psd=1e-2))
    assert np.allclose(f.x[0], np.diag([np.sqrt(0.5), 0.0]), atol=1e-14)
    assert not f.rank_deficient
