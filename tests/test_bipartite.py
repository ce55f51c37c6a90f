"""Bipartite state container: validation (including the rejection of
non-finite input by every entry point that takes a caller's matrix), block
access conventions, partial transpose against a loop-written oracle, and
reduced states.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import bell_state, ginibre_state, naive_partial_transpose
from qcorr import (
    assemble_blocks,
    block_tensor,
    bell_diagonal,
    BellDiagonalParams,
    CqSpec,
    build_cq_state,
    is_ppt,
    partial_trace_a,
    partial_trace_b,
    partial_transpose_a,
    validate,
)
from qcorr.bipartite import TRACE_ATOL
from qcorr.matlib import hermitize
from qcorr.errors import (
    DimensionMismatch,
    InvalidSpec,
    NotDensityMatrix,
    NotHermitian,
    NotPsd,
    TraceNotOne,
)


# ---------------------------------------------------------------------------
# validation


def test_validate_accepts_maximally_mixed():
    s = validate(np.eye(6) / 6, 2, 3)
    assert (s.dim_a, s.dim_b) == (2, 3)
    assert not s.rho.flags.writeable


def test_validate_keeps_the_spectrum_of_its_positivity_check():
    # descending, read-only and bit for bit the eigvalsh of the checked matrix
    for s in (ginibre_state(3, 2, 3), ginibre_state(4, 3, 2), bell_state()):
        assert np.array_equal(s.spectrum, np.linalg.eigvalsh(hermitize(s.rho))[::-1])
        assert not s.spectrum.flags.writeable
        with pytest.raises(ValueError):
            s.spectrum[0] = 0.0


def test_validate_rejects_wrong_shape():
    with pytest.raises(DimensionMismatch):
        validate(np.eye(4) / 4, 2, 3)


def test_validate_rejects_nonpositive_dims():
    with pytest.raises(DimensionMismatch):
        validate(np.eye(1), 1, 0)


def test_validate_rejects_non_hermitian():
    m = np.eye(4) / 4
    m = m.astype(complex)
    m[0, 1] = 0.2
    with pytest.raises(NotHermitian):
        validate(m, 2, 2)


def test_validate_rejects_trace_far_from_one():
    with pytest.raises(TraceNotOne):
        validate(np.eye(4) * 0.9 / 4, 2, 2)
    # just inside the absolute trace window passes
    validate(np.eye(4) * (1 + 0.5 * TRACE_ATOL) / 4, 2, 2)


def test_validate_rejects_negative_eigenvalue():
    m = np.diag([0.6, 0.5, -0.05, -0.05])
    with pytest.raises(NotPsd):
        validate(m, 2, 2)


@pytest.mark.parametrize("error", [NotHermitian, TraceNotOne, NotPsd])
def test_each_violated_requirement_is_a_not_density_matrix(error):
    # validate raises the specific requirement it checks, and a caller can
    # catch every one of them as NotDensityMatrix
    assert issubclass(error, NotDensityMatrix)


# NaN compares false against every tolerance bound, so each entry point that
# takes a caller's matrix rejects non-finite entries before any arithmetic.
NON_FINITE_CASES = {
    "validate_diagonal": (NotDensityMatrix,
                          lambda bad: validate(np.diag([bad, 1.0, 0.0, 0.0]), 2, 2)),
    "validate_all_entries": (NotDensityMatrix, lambda bad: validate(np.full((4, 4), bad), 2, 2)),
    "build_cq_state_sigma": (InvalidSpec, lambda bad: build_cq_state(
        CqSpec(2, np.eye(2), (np.diag([bad, 0.5]), np.diag([0.0, 0.5]))))),
    "build_cq_state_u": (InvalidSpec, lambda bad: build_cq_state(
        CqSpec(2, np.diag([bad, 1.0]), (np.diag([0.5, 0.0]), np.diag([0.0, 0.5]))))),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("case", sorted(NON_FINITE_CASES))
def test_non_finite_input_raises_a_qcorr_error(case, bad):
    error, call = NON_FINITE_CASES[case]
    with pytest.raises(error):
        call(bad)


# ---------------------------------------------------------------------------
# block conventions (A-major ordering: row index = (k-1) * dim_b + j)


def test_a_major_ordering_of_basis_states():
    # |k=2> (x) |j=1> for a 2x3 system occupies global index 1*3 + 0 = 3
    rho = np.zeros((6, 6))
    rho[3, 3] = 1.0
    s = validate(rho, 2, 3)
    assert np.allclose(partial_trace_b(s), np.diag([0.0, 1.0]))
    assert np.allclose(partial_trace_a(s), np.diag([1.0, 0.0, 0.0]))


def test_block_slices_match_manual_indexing():
    s = ginibre_state(5, 3, 2)
    for k in range(1, 4):
        for l in range(1, 4):
            manual = s.rho[(k - 1) * 2 : k * 2, (l - 1) * 2 : l * 2]
            assert np.array_equal(block_tensor(s)[k - 1, l - 1], manual)


def test_block_tensor_assemble_roundtrip_is_exact():
    s = ginibre_state(7, 3, 4)
    t = block_tensor(s)
    assert t.shape == (3, 3, 4, 4)
    assert np.array_equal(assemble_blocks(t), s.rho)


def test_assemble_blocks_rejects_malformed_grid():
    with pytest.raises(DimensionMismatch):
        assemble_blocks(np.zeros((2, 3, 4, 4)))
    with pytest.raises(DimensionMismatch):
        assemble_blocks(np.zeros((2, 2, 4)))


def test_hermiticity_transfers_to_blocks():
    s = ginibre_state(9, 2, 3)
    t = block_tensor(s)
    assert np.allclose(t[0, 1], t[1, 0].conj().T)


# ---------------------------------------------------------------------------
# partial transpose and PPT


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([(2, 2), (2, 3), (3, 2), (2, 4), (3, 4)]))
def test_partial_transpose_matches_loop_oracle(seed, dims):
    dim_a, dim_b = dims
    s = ginibre_state(seed, dim_a, dim_b)
    pt = partial_transpose_a(s)
    assert np.array_equal(pt, naive_partial_transpose(s.rho, dim_a, dim_b))
    # involution, trace preserving, Hermitian
    assert abs(np.trace(pt) - 1.0) < 1e-12
    assert np.allclose(pt, pt.conj().T)


def test_partial_transpose_is_identity_on_product_states():
    a = np.diag([0.25, 0.75])
    b = np.diag([0.5, 0.3, 0.2])
    s = validate(np.kron(a, b), 2, 3)
    # diagonal product state: transposing A changes nothing
    assert np.allclose(partial_transpose_a(s), s.rho)


def test_partial_traces_of_product_state_recover_factors():
    rng = np.random.default_rng(11)
    ga = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    gb = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    a = ga @ ga.conj().T
    a /= np.trace(a).real
    b = gb @ gb.conj().T
    b /= np.trace(b).real
    s = validate(np.kron(a, b), 2, 3)
    assert np.allclose(partial_trace_b(s), a, atol=1e-12)
    assert np.allclose(partial_trace_a(s), b, atol=1e-12)


def test_partial_traces_have_unit_trace():
    s = ginibre_state(13, 3, 4)
    assert np.trace(partial_trace_a(s)).real == pytest.approx(1.0, abs=1e-12)
    assert np.trace(partial_trace_b(s)).real == pytest.approx(1.0, abs=1e-12)


def test_ppt_verdict_on_maximally_entangled_state():
    v = is_ppt(bell_state())
    # closed form: rho^{T_A} of the Bell state has spectrum {1/2, 1/2, 1/2, -1/2}
    assert not v.is_ppt
    assert v.min_eigenvalue == pytest.approx(-0.5, abs=1e-12)
    assert np.allclose(np.sort(v.spectrum), [-0.5, 0.5, 0.5, 0.5], atol=1e-12)


def test_ppt_spectrum_is_descending_and_complete():
    s = ginibre_state(17, 2, 3)
    v = is_ppt(s)
    assert v.spectrum.shape == (6,)
    assert np.all(np.diff(v.spectrum) <= 1e-12)
    assert v.min_eigenvalue == pytest.approx(float(v.spectrum[-1]))


def test_separable_mixture_is_ppt():
    rng = np.random.default_rng(23)
    rho = np.zeros((4, 4), dtype=complex)
    for _ in range(6):
        va = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        vb = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        va /= np.linalg.norm(va)
        vb /= np.linalg.norm(vb)
        v = np.kron(va, vb)
        rho += np.outer(v, v.conj()) / 6
    s = validate(rho, 2, 2)
    assert is_ppt(s).is_ppt


def test_werner_ppt_threshold_brackets_one_third():
    # (1-w) I/4 + w |Bell><Bell| stays PPT exactly up to w = 1/3
    bell = bell_state().rho
    for w, expected in [(0.30, True), (0.36, False)]:
        s = validate((1 - w) * np.eye(4) / 4 + w * bell, 2, 2)
        assert is_ppt(s).is_ppt is expected


def test_bell_diagonal_marginals_are_maximally_mixed():
    s = bell_diagonal(BellDiagonalParams(0.4, 0.3, 0.2, 0.1))
    assert np.allclose(partial_trace_b(s), np.eye(2) / 2, atol=1e-12)
    assert np.allclose(partial_trace_a(s), np.eye(2) / 2, atol=1e-12)
