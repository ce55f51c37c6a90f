"""Entropy, measured correlations, discord, and classical-quantum detection.

Closed forms fix the scalar oracles; an exhaustive independent grid search
(helpers.brute_discord_2q) pins the optimizer; two independent structural
characterizations (Bloch-span rank, commuting slice family) pin cq_detect.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers as H
from qcorr import (
    BellDiagonalParams,
    BipartiteState,
    CqSpec,
    DEFAULT_OPT,
    DEFAULT_TOL,
    OptimizerConfig,
    QubitMeasurement,
    Tolerance,
    XStateParams,
    bell_diagonal,
    build_cq_state,
    classical_correlation_a,
    commutator_criterion,
    conditional_entropy,
    conditional_state,
    cq_detect,
    discord_a,
    mutual_information,
    partial_trace_a,
    partial_trace_b,
    random_cq,
    random_ginibre_density,
    random_pure,
    random_unitary,
    validate,
    von_neumann_entropy,
    xstate,
)
from qcorr.errors import DimensionMismatch, InvalidParams, NotDensityMatrix


def ginibre_state(seed: int, dim_a: int, dim_b: int) -> BipartiteState:
    return validate(random_ginibre_density(dim_a * dim_b, seed), dim_a, dim_b)


def bell_state() -> BipartiteState:
    v = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
    return validate(np.outer(v, v), 2, 2)


def classically_correlated() -> BipartiteState:
    return validate(np.diag([0.5, 0.0, 0.0, 0.5]), 2, 2)


# ---------------------------------------------------------------------------
# entropy and mutual information


def test_entropy_closed_forms():
    assert von_neumann_entropy(np.eye(2) / 2) == pytest.approx(1.0, abs=1e-12)
    assert von_neumann_entropy(np.eye(8) / 8) == pytest.approx(3.0, abs=1e-12)
    assert von_neumann_entropy(np.diag([1.0, 0.0])) == pytest.approx(0.0, abs=1e-12)
    # binary entropy at 1/4: 2 - (3/4) log2 3
    expected = 2.0 - 0.75 * np.log2(3.0)
    assert von_neumann_entropy(np.diag([0.75, 0.25])) == pytest.approx(expected, abs=1e-12)


def test_entropy_rejects_non_density_inputs():
    with pytest.raises(NotDensityMatrix):
        von_neumann_entropy(np.diag([0.5, 0.6]))  # trace 1.1
    with pytest.raises(NotDensityMatrix):
        von_neumann_entropy(np.array([[0.5, 0.4], [0.0, 0.5]]))  # not Hermitian
    with pytest.raises(NotDensityMatrix):
        von_neumann_entropy(np.diag([1.1, -0.1]))  # negative eigenvalue


def test_entropy_is_basis_independent():
    u = random_unitary(3, rng_seed=3)
    d = np.diag([0.5, 0.3, 0.2])
    assert von_neumann_entropy(u @ d @ u.conj().T) == pytest.approx(
        von_neumann_entropy(d), abs=1e-10
    )


def test_mutual_information_benchmarks():
    a = np.diag([0.25, 0.75])
    b = np.diag([0.5, 0.3, 0.2])
    product = validate(np.kron(a, b), 2, 3)
    assert mutual_information(product) == pytest.approx(0.0, abs=1e-10)
    assert mutual_information(bell_state()) == pytest.approx(2.0, abs=1e-10)
    assert mutual_information(classically_correlated()) == pytest.approx(1.0, abs=1e-10)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_mutual_information_nonnegative_and_bounded(seed):
    s = ginibre_state(seed, 2, 3)
    mi = mutual_information(s)
    # 0 <= I <= 2 min(S(A), S(B)) <= 2 log2 dim_a
    assert -1e-10 <= mi <= 2.0 + 1e-10


# ---------------------------------------------------------------------------
# measurements and conditional states


def test_projectors_complete_and_idempotent():
    m = QubitMeasurement(theta=0.7, phi=1.3)
    p_plus, p_minus = m.projectors()
    assert np.array_equal(p_plus + p_minus, np.eye(2))
    for p in (p_plus, p_minus):
        assert np.allclose(p @ p, p, atol=1e-14)
        assert np.trace(p).real == pytest.approx(1.0, abs=1e-14)
    assert np.allclose(p_plus @ p_minus, 0.0, atol=1e-14)


def test_measurement_vectors_are_orthonormal():
    m = QubitMeasurement(theta=2.0, phi=5.5)
    vp, vm = m.vector(+1), m.vector(-1)
    assert np.vdot(vp, vp).real == pytest.approx(1.0, abs=1e-14)
    assert abs(np.vdot(vp, vm)) < 1e-14


def test_measurement_angle_validation():
    with pytest.raises(InvalidParams):
        QubitMeasurement(theta=-0.1, phi=0.0)
    with pytest.raises(InvalidParams):
        QubitMeasurement(theta=3.5, phi=0.0)
    with pytest.raises(InvalidParams):
        QubitMeasurement(theta=1.0, phi=2.0 * np.pi)
    with pytest.raises(InvalidParams):
        QubitMeasurement(theta=1.0, phi=1.0).vector(0)


def test_conditional_state_on_bell_with_z_measurement():
    z = QubitMeasurement(theta=0.0, phi=0.0)
    p, sigma = conditional_state(bell_state(), z, +1)
    assert p == pytest.approx(0.5, abs=1e-12)
    assert np.allclose(sigma, np.diag([1.0, 0.0]), atol=1e-12)
    p, sigma = conditional_state(bell_state(), z, -1)
    assert p == pytest.approx(0.5, abs=1e-12)
    assert np.allclose(sigma, np.diag([0.0, 1.0]), atol=1e-12)


def test_conditional_state_on_maximally_mixed_is_uniform():
    s = validate(np.eye(6) / 6, 2, 3)
    for theta, phi in [(0.0, 0.0), (1.0, 2.0), (np.pi / 2, np.pi)]:
        p, sigma = conditional_state(s, QubitMeasurement(theta=theta, phi=phi), +1)
        assert p == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(sigma, np.eye(3) / 3, atol=1e-12)


def test_conditional_state_zero_probability_branch():
    # A side fixed in |0>: measuring along -z never yields the + outcome
    rho = np.kron(np.diag([1.0, 0.0]), np.diag([0.6, 0.4]))
    s = validate(rho, 2, 2)
    p, sigma = conditional_state(s, QubitMeasurement(theta=np.pi, phi=0.0), +1)
    assert 0.0 <= p <= DEFAULT_TOL.eps_prob
    assert np.allclose(sigma, np.eye(2) / 2)  # placeholder, not a physical update


def test_conditional_state_requires_qubit_a_side():
    s = ginibre_state(1, 3, 2)
    with pytest.raises(DimensionMismatch):
        conditional_state(s, QubitMeasurement(theta=0.0, phi=0.0), +1)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.floats(0.0, np.pi),
    st.floats(0.0, 2 * np.pi, exclude_max=True),
)
def test_outcome_probabilities_sum_to_one(seed, theta, phi):
    s = ginibre_state(seed, 2, 3)
    m = QubitMeasurement(theta=theta, phi=phi)
    p_plus, sig_plus = conditional_state(s, m, +1)
    p_minus, sig_minus = conditional_state(s, m, -1)
    assert p_plus + p_minus == pytest.approx(1.0, abs=1e-10)
    for p, sig in [(p_plus, sig_plus), (p_minus, sig_minus)]:
        if p > DEFAULT_TOL.eps_prob:
            assert np.trace(sig).real == pytest.approx(1.0, abs=1e-10)
            assert np.min(np.linalg.eigvalsh(sig)) > -1e-10


def test_conditional_entropy_matches_manual_sum():
    s = ginibre_state(2, 2, 3)
    m = QubitMeasurement(theta=1.1, phi=0.4)
    total = 0.0
    for k in (+1, -1):
        p, sig = conditional_state(s, m, k)
        if p > DEFAULT_TOL.eps_prob:
            total += p * H.vn_entropy(sig)
    assert conditional_entropy(s, m) == pytest.approx(total, abs=1e-10)


def test_conditional_entropy_of_product_is_b_entropy():
    a = np.diag([0.3, 0.7])
    b = np.diag([0.5, 0.3, 0.2])
    s = validate(np.kron(a, b), 2, 3)
    sb = H.entropy_bits([0.5, 0.3, 0.2])
    for theta, phi in [(0.0, 0.0), (0.8, 2.2), (np.pi / 2, 0.0)]:
        assert conditional_entropy(s, QubitMeasurement(theta=theta, phi=phi)) == pytest.approx(
            sb, abs=1e-10
        )


def test_conditional_entropy_of_pure_state_vanishes():
    # remote states conditioned on a pure bipartite state are pure
    s = bell_state()
    for theta, phi in [(0.0, 0.0), (1.0, 1.0), (2.5, 4.0)]:
        assert conditional_entropy(s, QubitMeasurement(theta=theta, phi=phi)) == pytest.approx(
            0.0, abs=1e-10
        )


# ---------------------------------------------------------------------------
# classical correlation and discord


def test_classical_correlation_of_product_vanishes():
    a = np.diag([0.3, 0.7])
    b = np.diag([0.6, 0.4])
    s = validate(np.kron(a, b), 2, 2)
    value, m = classical_correlation_a(s)
    assert 0.0 <= value <= 1e-9
    assert isinstance(m, QubitMeasurement)


def test_classical_correlation_of_classical_state_is_full():
    value, m = classical_correlation_a(classically_correlated())
    assert value == pytest.approx(1.0, abs=1e-9)
    # optimal measurement is along z (theta at either pole)
    assert min(m.theta, np.pi - m.theta) < 1e-3


def test_classical_correlation_achieves_its_reported_value():
    s = ginibre_state(3, 2, 2)
    value, m = classical_correlation_a(s)
    achieved = von_neumann_entropy(partial_trace_a(s)) - conditional_entropy(s, m)
    assert value == pytest.approx(achieved, abs=1e-9)


def test_classical_correlation_dominates_coarse_grid():
    # soundness: the optimum can only improve on any explicit measurement
    s = ginibre_state(4, 2, 3)
    value, _ = classical_correlation_a(s)
    sb = von_neumann_entropy(partial_trace_a(s))
    for theta in np.linspace(0.0, np.pi, 7):
        for phi in np.linspace(0.0, 2 * np.pi, 9, endpoint=False):
            objective = sb - conditional_entropy(s, QubitMeasurement(theta=theta, phi=phi))
            assert value >= objective - 1e-9


def test_discord_of_bell_state_is_one():
    r = discord_a(bell_state())
    assert r.mutual_information == pytest.approx(2.0, abs=1e-9)
    assert r.classical_correlation == pytest.approx(1.0, abs=1e-6)
    assert r.discord == pytest.approx(1.0, abs=1e-6)


def test_discord_report_is_consistent():
    s = ginibre_state(5, 2, 2)
    r = discord_a(s)
    assert r.discord == pytest.approx(
        max(0.0, r.mutual_information - r.classical_correlation), abs=1e-12
    )
    assert r.mutual_information == pytest.approx(mutual_information(s), abs=1e-12)
    assert r.grid_resolution == DEFAULT_OPT.grid_theta * DEFAULT_OPT.grid_phi
    assert r.optimizer_evals >= 1
    assert r.discord >= 0.0


def test_discord_against_exhaustive_grid_oracle():
    for seed in (11, 12, 13):
        s = ginibre_state(seed, 2, 2)
        assert discord_a(s).discord == pytest.approx(H.brute_discord_2q(s), abs=1e-3)


def test_discord_of_pure_states_equals_entanglement_entropy():
    for seed, n in [(0, 2), (1, 3), (2, 4)]:
        s = random_pure(2, n, rng_seed=seed)
        r = discord_a(s)
        expected = von_neumann_entropy(partial_trace_b(s))
        assert r.discord == pytest.approx(expected, abs=1e-3)


def test_discord_vanishes_on_classical_quantum_states():
    for seed in range(4):
        s = random_cq(2, 3, rng_seed=seed)
        assert discord_a(s).discord <= DEFAULT_OPT.eps_opt


def test_discord_is_invariant_under_local_unitaries():
    s = ginibre_state(9, 2, 2)
    u = random_unitary(2, rng_seed=91)
    v = random_unitary(2, rng_seed=92)
    w = np.kron(u, v)
    t = validate(w @ s.rho @ w.conj().T, 2, 2)
    assert discord_a(t).discord == pytest.approx(discord_a(s).discord, abs=2e-4)


def test_discord_on_qutrit_a_side_reports_basis():
    s = random_cq(3, 2, rng_seed=17)
    r = discord_a(s)
    assert r.discord <= DEFAULT_OPT.eps_opt
    assert r.optimal_measurement is None
    assert r.optimal_basis is not None
    assert np.allclose(
        r.optimal_basis.conj().T @ r.optimal_basis, np.eye(3), atol=1e-9
    )


# ---------------------------------------------------------------------------
# commutator criterion


def test_commutator_vanishes_for_cq_and_bell_diagonal():
    assert commutator_criterion(random_cq(2, 4, rng_seed=1)) < 1e-12
    assert commutator_criterion(random_cq(3, 3, rng_seed=2)) < 1e-12
    s = bell_diagonal(BellDiagonalParams(0.7, 0.1, 0.1, 0.1))
    assert commutator_criterion(s) < 1e-12
    # and that state still carries discord: the criterion is one-directional
    assert discord_a(s).discord > 0.3


def test_commutator_positive_for_generic_states():
    assert commutator_criterion(ginibre_state(3, 2, 2)) > 1e-3
    assert commutator_criterion(ginibre_state(4, 3, 2)) > 1e-3


# ---------------------------------------------------------------------------
# classical-quantum detection


def rebuild_from_verdict(verdict, dim_b: int) -> np.ndarray:
    rho = np.zeros((verdict.basis.shape[0] * dim_b,) * 2, dtype=np.complex128)
    for k in range(verdict.basis.shape[1]):
        f = verdict.basis[:, k]
        rho += np.kron(np.outer(f, f.conj()), verdict.sigma_list[k])
    return rho


def test_cq_detect_accepts_and_reconstructs():
    for dim_a, dim_b, seed in [(2, 2, 0), (2, 4, 1), (3, 3, 2)]:
        s = random_cq(dim_a, dim_b, rng_seed=seed)
        v = cq_detect(s)
        assert v.is_cq
        assert v.off_block_residual <= DEFAULT_TOL.eps_cq
        assert np.allclose(rebuild_from_verdict(v, dim_b), s.rho, atol=1e-7)
        total = sum(float(np.trace(sig).real) for sig in v.sigma_list)
        assert total == pytest.approx(1.0, abs=1e-8)


def test_cq_detect_rejects_generic_states():
    for dim_a, dim_b, seed in [(2, 2, 5), (2, 3, 6), (3, 2, 7)]:
        v = cq_detect(ginibre_state(seed, dim_a, dim_b))
        assert not v.is_cq
        assert v.off_block_residual > 1e-3
        assert v.basis is None and v.sigma_list is None


def test_cq_detect_agrees_with_independent_characterizations():
    cases = [
        random_cq(2, 3, rng_seed=31),
        random_cq(3, 2, rng_seed=32),
        ginibre_state(33, 2, 3),
        ginibre_state(34, 3, 2),
        xstate(XStateParams(a11=0.3, a22=0.2, b11=0.2, b22=0.3, a12=0.1, b12=0.1j)),
        xstate(XStateParams(a11=0.3, a22=0.2, b11=0.3, b22=0.2, a12=0.12, b12=0.04)),
    ]
    for s in cases:
        got = cq_detect(s).is_cq
        assert got == H.commuting_slice_cq(s)
        if s.dim_a == 2:
            assert got == H.qubit_side_cq(s)


def test_cq_detect_handles_fully_degenerate_marginal():
    # equal outcome weights make rho_A maximally mixed; the classical basis
    # is then invisible to the marginal and must come from the cluster search
    u = random_unitary(2, rng_seed=41)
    rng = np.random.default_rng(42)
    sigmas = []
    for k in range(2):
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        sig = g @ g.conj().T
        sigmas.append(0.5 * sig / np.trace(sig).real)
    s = build_cq_state(CqSpec(dim_a=2, u=u, sigmas=tuple(sigmas)))
    assert np.allclose(partial_trace_b(s), np.eye(2) / 2, atol=1e-12)
    v = cq_detect(s)
    assert v.is_cq
    assert np.allclose(rebuild_from_verdict(v, 3), s.rho, atol=1e-6)


def test_cq_detect_handles_degenerate_qutrit_marginal():
    u = random_unitary(3, rng_seed=51)
    rng = np.random.default_rng(52)
    sigmas = []
    for k in range(3):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        sig = g @ g.conj().T
        sigmas.append(sig / (3.0 * np.trace(sig).real))
    s = build_cq_state(CqSpec(dim_a=3, u=u, sigmas=tuple(sigmas)))
    assert np.allclose(partial_trace_b(s), np.eye(3) / 3, atol=1e-12)
    assert cq_detect(s).is_cq


def test_cq_detect_handles_partially_degenerate_qutrit_marginal():
    u = random_unitary(3, rng_seed=61)
    rng = np.random.default_rng(62)
    weights = [0.4, 0.4, 0.2]
    sigmas = []
    for k in range(3):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        sig = g @ g.conj().T
        sigmas.append(weights[k] * sig / np.trace(sig).real)
    s = build_cq_state(CqSpec(dim_a=3, u=u, sigmas=tuple(sigmas)))
    assert cq_detect(s).is_cq


def test_cq_detect_rejects_perturbed_cq_state():
    s = random_cq(2, 2, rng_seed=71)
    bump = np.zeros((4, 4), dtype=np.complex128)
    bump[0, 3] = bump[3, 0] = 1e-3
    rho = s.rho + bump
    rho = rho / np.trace(rho).real
    t = validate(rho, 2, 2)
    v = cq_detect(t)
    assert not v.is_cq
    assert v.off_block_residual > 1e-5
    # the same state passes once both the commutator gate and the residual
    # acceptance are loosened to cover the perturbation
    assert cq_detect(t, Tolerance(eps_cq=0.1, eps_residual=1.0)).is_cq


def test_cq_detect_zero_discord_xstates():
    yes = XStateParams(a11=0.3, a22=0.2, b11=0.2, b22=0.3, a12=0.1, b12=0.1j)
    no = XStateParams(a11=0.3, a22=0.2, b11=0.3, b22=0.2, a12=0.1, b12=0.1)
    assert cq_detect(xstate(yes)).is_cq
    assert not cq_detect(xstate(no)).is_cq


def kron_cq_state(u: np.ndarray, weights, dim_b: int, seed: int) -> BipartiteState:
    """sum_k w_k |u_k><u_k| (x) sigma_k with Ginibre sigma_k, for any dim_a."""
    rho = sum(
        w * np.kron(np.outer(u[:, k], u[:, k].conj()), random_ginibre_density(dim_b, seed + k))
        for k, w in enumerate(weights)
    )
    return validate(rho, u.shape[0], dim_b)


def test_cq_detect_serves_any_dim_a():
    cases = [
        kron_cq_state(np.eye(1), [1.0], 3, seed=81),
        kron_cq_state(random_unitary(4, rng_seed=82), [0.1, 0.2, 0.3, 0.4], 2, seed=83),
        kron_cq_state(random_unitary(4, rng_seed=84), [0.25] * 4, 3, seed=85),
    ]
    assert np.allclose(partial_trace_b(cases[2]), np.eye(4) / 4, atol=1e-12)
    for s in cases:
        v = cq_detect(s)
        assert v.is_cq
        assert v.off_block_residual <= DEFAULT_TOL.eps_cq
        assert np.allclose(rebuild_from_verdict(v, s.dim_b), s.rho, atol=1e-7)
    g = ginibre_state(0, 4, 2)
    v = cq_detect(g)
    assert not v.is_cq
    assert v.is_cq == H.commuting_slice_cq(g)


def mixed_marginal_state(seed: int, dim_a: int, dim_b: int) -> BipartiteState:
    """(rho_A^{-1/2} (x) I) rho (rho_A^{-1/2} (x) I) / dim_a from a Ginibre rho,
    whose A marginal is exactly maximally mixed."""
    rho = random_ginibre_density(dim_a * dim_b, seed)
    w, v = np.linalg.eigh(partial_trace_b(validate(rho, dim_a, dim_b)))
    k = np.kron((v / np.sqrt(w)) @ v.conj().T, np.eye(dim_b))
    out = k @ rho @ k / dim_a
    return validate((out + out.conj().T) / 2, dim_a, dim_b)


def test_cq_detect_residual_against_cluster_search():
    # with rho_A = I / dim_a the whole basis is one degenerate cluster; the
    # closed-form 2-fold rotation must reach the searched minimum, and the
    # 3-fold Jacobi sweeps must never stay above it
    for seed, dim_b in [(0, 2), (1, 3), (2, 4)]:
        s = mixed_marginal_state(seed, 2, dim_b)
        assert np.allclose(partial_trace_b(s), np.eye(2) / 2, atol=1e-12)
        got = cq_detect(s).off_block_residual ** 2
        assert got == pytest.approx(H.searched_off_mass(s), abs=1e-12)
    lowered = 0
    for seed, dim_b in [(0, 2), (1, 3), (2, 2)]:
        s = mixed_marginal_state(seed, 3, dim_b)
        got = cq_detect(s).off_block_residual ** 2
        searched = H.searched_off_mass(s)
        assert got <= searched + 1e-12
        lowered += got < searched - 1e-6
    assert lowered >= 1


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]))
def test_cq_states_have_no_discord_property(seed, dim_a):
    s = random_cq(dim_a, 2, rng_seed=seed)
    assert commutator_criterion(s) < 1e-9
    v = cq_detect(s)
    assert v.is_cq
    assert discord_a(s).discord <= DEFAULT_OPT.eps_opt


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_measured_correlation_never_exceeds_mutual_information(seed):
    s = ginibre_state(seed, 2, 2)
    r = discord_a(s)
    assert r.classical_correlation <= r.mutual_information + 1e-9
    assert r.classical_correlation >= -1e-12
