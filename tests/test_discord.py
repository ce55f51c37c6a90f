"""Entropy, measured correlations, discord, and classical-quantum detection.

Closed forms fix the scalar oracles; an exhaustive independent grid search
(helpers.brute_discord_2q), the earlier grid + simplex search for a qubit
A (helpers.searched_cc_qubit) and a multi-start BFGS search for any dim_a
(helpers.searched_cc) pin the optimizer, and the former one-start-at-a-time
refinement (helpers.sequential_refine) pins the lockstep one bit for bit;
two independent structural characterizations (Bloch-span rank, commuting
slice family) and the former in-place pair rotation
(helpers.inplace_cq_detect) pin cq_detect.
"""
from __future__ import annotations

import ast
import csv
import importlib
import io
import json
import os
import pathlib
import pkgutil
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers as H
from helpers import bell_state, ginibre_state, rank2_state
from qcorr import (
    BellDiagonalParams,
    BipartiteState,
    CqSpec,
    DEFAULT_OPT,
    DEFAULT_TOL,
    XStateParams,
    bell_diagonal,
    build_cq_state,
    commutator_criterion,
    cq_detect,
    discord_a,
    is_sppt,
    partial_trace_a,
    partial_trace_b,
    random_cq,
    random_ginibre_density,
    read_statefile,
    random_pure,
    random_sppt,
    random_unitary,
    validate,
    xstate,
)
from qcorr import discord as D
from qcorr import factorization as F
from qcorr.bipartite import assemble_blocks, block_tensor


def classically_correlated() -> BipartiteState:
    return validate(np.diag([0.5, 0.0, 0.0, 0.5]), 2, 2)


# ---------------------------------------------------------------------------
# entropy and mutual information


def test_entropy_closed_forms():
    # the one entropy kernel, on the spectra eigvalsh gives
    def entropy(m):
        return D._spectrum_entropy(np.linalg.eigvalsh(m))

    assert entropy(np.eye(2) / 2) == pytest.approx(1.0, abs=1e-12)
    assert entropy(np.eye(8) / 8) == pytest.approx(3.0, abs=1e-12)
    assert entropy(np.diag([1.0, 0.0])) == pytest.approx(0.0, abs=1e-12)
    # binary entropy at 1/4: 2 - (3/4) log2 3
    expected = 2.0 - 0.75 * np.log2(3.0)
    assert entropy(np.diag([0.75, 0.25])) == pytest.approx(expected, abs=1e-12)


def test_entropy_is_basis_independent():
    # S(rho_B) is that of rho_B's spectrum in any basis rho_B is written in:
    # a pure state with Schmidt weights p whose B side is in a Haar basis
    # exits at its Schmidt basis, where H = 0, so C_A = S(rho_B) = H(p); a
    # product state's mutual information stays 0
    p = [0.5, 0.3, 0.2]
    u = random_unitary(3, rng_seed=3)
    psi = (np.sqrt(p)[:, None] * u.T).ravel()  # sum_a sqrt(p_a) |a> (x) u|a>
    r = discord_a(validate(np.outer(psi, psi.conj()), 3, 3))
    assert r.grid_resolution == 0
    assert r.classical_correlation == pytest.approx(H.entropy_bits(p), abs=1e-10)
    rho_b = u @ np.diag(p) @ u.conj().T
    s = validate(np.kron(np.diag([0.25, 0.75]), rho_b), 2, 3)
    assert discord_a(s).mutual_information == pytest.approx(0.0, abs=1e-10)


def test_mutual_information_benchmarks():
    a = np.diag([0.25, 0.75])
    b = np.diag([0.5, 0.3, 0.2])
    product = validate(np.kron(a, b), 2, 3)
    assert discord_a(product).mutual_information == pytest.approx(0.0, abs=1e-10)
    assert discord_a(bell_state()).mutual_information == pytest.approx(2.0, abs=1e-10)
    assert discord_a(classically_correlated()).mutual_information == pytest.approx(1.0, abs=1e-10)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_mutual_information_nonnegative_and_bounded(seed):
    s = ginibre_state(seed, 2, 3)
    mi = discord_a(s).mutual_information
    # 0 <= I <= 2 min(S(A), S(B)) <= 2 log2 dim_a
    assert -1e-10 <= mi <= 2.0 + 1e-10


def test_mutual_information_matches_the_eigvalsh_form():
    # discord_a takes S(rho_A) from the eigh of rho_A that yields the rho_A
    # eigenbasis and S(rho) from validate's spectrum;
    # the oracle takes one eigvalsh per matrix, through helpers.vn_entropy
    def eigvalsh_form(s):
        return max(0.0, sum(H.vn_entropy(x) for x in (partial_trace_b(s), partial_trace_a(s)))
                   - H.vn_entropy(s.rho))

    for m, n in [(2, 2), (2, 8), (3, 2), (3, 4), (4, 2)]:
        for seed in range(5):
            for s in (ginibre_state([seed, m, n], m, n), random_pure(m, n, rng_seed=[seed, m, n])):
                want = eigvalsh_form(s)
                assert abs(discord_a(s).mutual_information - want) <= 1e-14


# ---------------------------------------------------------------------------
# conditional entropy of a measurement basis


def bloch_basis(theta: float, phi: float) -> np.ndarray:
    """Qubit basis whose first column has Bloch angles (theta, phi)."""
    c, sn, e = np.cos(theta / 2.0), np.sin(theta / 2.0), np.exp(1j * phi)
    return np.array([[c, -np.conj(e) * sn], [e * sn, c]], dtype=np.complex128)


def trial_h(s, u) -> float:
    """H(U) = sum_k p_k S(sigma_B|k) of the measurement along the columns of
    u, scored by _trial, the evaluator discord_a searches with."""
    return float(D._trial(u, D._block_stack(s))[0])


def test_conditional_entropy_matches_manual_sum():
    # S(rho_B) - H(U) against the block-by-block oracle, any dim_a
    for dim_a, dim_b in [(2, 3), (3, 2), (3, 4), (4, 2)]:
        s = ginibre_state([2, dim_a, dim_b], dim_a, dim_b)
        sb = H.vn_entropy(partial_trace_a(s))
        bases = [np.eye(dim_a)] + [random_unitary(dim_a, rng_seed=[dim_a, dim_b, k])
                                   for k in range(3)]
        for u in bases:
            assert sb - trial_h(s, u) == pytest.approx(
                H.measured_correlation(s, u), abs=1e-12)


def test_conditional_entropy_of_product_is_b_entropy():
    b = np.diag([0.5, 0.3, 0.2])
    sb = H.entropy_bits([0.5, 0.3, 0.2])
    for a in (np.diag([0.3, 0.7]), np.diag([0.2, 0.3, 0.5]), np.diag([0.1, 0.2, 0.3, 0.4])):
        m = a.shape[0]
        s = validate(np.kron(a, b), m, 3)
        for u in (np.eye(m), random_unitary(m, rng_seed=[m, 1]),
                  random_unitary(m, rng_seed=[m, 2])):
            assert trial_h(s, u) == pytest.approx(sb, abs=1e-10)


def test_conditional_entropy_of_pure_state_vanishes():
    # remote states conditioned on a pure bipartite state are pure
    for s in (bell_state(), random_pure(3, 4, rng_seed=5), random_pure(4, 2, rng_seed=6)):
        for k in range(3):
            u = random_unitary(s.dim_a, rng_seed=[s.dim_a, k])
            assert trial_h(s, u) == pytest.approx(0.0, abs=1e-10)


def test_conditional_entropy_zero_probability_branch():
    # A side fixed in |0>: the outcome |1> never occurs and drops out
    sigma = np.diag([0.6, 0.4])
    s = validate(np.kron(np.diag([1.0, 0.0]), sigma), 2, 2)
    swapped = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert trial_h(s, swapped) == pytest.approx(H.vn_entropy(sigma), abs=1e-12)


# ---------------------------------------------------------------------------
# the refinement's fused trial: H, its analytic gradient and its decompositions


def refinement_cases():
    """(state, basis) pairs: Ginibre 2x3, 3x2, 3x4 at Haar bases, a pure 2x4
    state (rank-deficient sigma_k) and a basis with a zero-probability outcome."""
    cases = []
    for m, n in [(2, 3), (3, 2), (3, 4)]:
        s = ginibre_state([31, m, n], m, n)
        cases += [(s, random_unitary(m, rng_seed=[m, n, k])) for k in range(2)]
    cases.append((random_pure(2, 4, rng_seed=7), random_unitary(2, rng_seed=[2, 4, 0])))
    # a 2x3 state padded to 3x3: the third A level carries no weight
    padded = np.zeros((3, 3, 3, 3), dtype=np.complex128)
    padded[:2, :2] = H.blocks_of(ginibre_state(32, 2, 3))
    u = np.eye(3, dtype=np.complex128)
    u[:2, :2] = random_unitary(2, rng_seed=5)
    cases.append((validate(assemble_blocks(padded), 3, 3), u))
    return cases


def test_refinement_gradient_matches_central_differences():
    for s, u in refinement_cases():
        _, trial = D._trial(u, D._block_stack(s))
        g = D._gradient(trial, np.triu_indices(s.dim_a, 1))
        assert np.abs(g - H.cond_entropy_gradient(H.blocks_of(s), u)).max() < 1e-6


def test_the_one_evaluator_matches_the_oracle_and_its_batch_rows():
    # _trial gives every H of the search, so helpers._cond_entropy, which
    # contracts the blocks by einsum and takes eigvalsh, checks its value; and
    # _refine starts from the rows of the batch that scored the starts, so
    # each row must equal the trial of that basis alone, to the bit
    for s, u in refinement_cases():
        b = D._block_stack(s)
        h, _ = D._trial(u, b)
        oracle = H._cond_entropy(np.einsum("ik,jk->kij", np.conj(u), u), H.blocks_of(s))
        assert abs(h - float(oracle)) <= 1e-14
        bases = np.concatenate([u[None], D._singular_bases(b, s.dim_a)])
        hs, kept = D._trial(bases, b)
        for k, basis in enumerate(bases):
            h_k, kept_k = D._trial(basis, b)
            assert hs[k].tobytes() == h_k.tobytes(), (s.dim_a, s.dim_b, k)
            assert all(a[k].tobytes() == a_k.tobytes() for a, a_k in zip(kept, kept_k))


def test_matmul_trial_and_gradient_match_the_einsum_forms():
    # the einsum contractions that the matmuls replaced are the oracle
    for s, u in refinement_cases():
        m = s.dim_a
        bt = block_tensor(s)
        t_old = np.einsum("ik,jl,ijab->klab", np.conj(u), u, bt)
        sig = np.einsum("kkab->kab", t_old)
        w, v = np.linalg.eigh(sig)
        h_old, lw = D._entropy_terms(w, np.einsum("kaa->k", sig).real)
        g_old = np.einsum("klab,kbi,ki,kai->lk", t_old, v, lw, np.conj(v))
        z = 2.0 * (g_old.T - np.conj(g_old))[np.triu_indices(m, 1)]

        h, trial = D._trial(u, D._block_stack(s))
        assert np.abs(trial[0] - t_old).max() <= 1e-14
        assert abs(h - float(h_old)) <= 1e-14
        g = D._gradient((t_old, v, lw), np.triu_indices(m, 1))
        assert np.abs(g - np.concatenate([z.real, z.imag])).max() <= 1e-14


def test_refinement_decomposes_once_per_trial_and_never_for_a_gradient(monkeypatch, linalg_calls):
    # pins the one evaluator and the lockstep rounds: every H of the search
    # comes from a _trial, which makes one eigh (the sigma_k batch), and a
    # gradient makes none.  discord_a prepares its Frame with one eigh of
    # rho_A (which also gives S(rho_A)); its exit takes one eigh, the Frame's
    # sigma_k at the eigenbasis; then one batched eigh of the singular
    # operators and one trial that scores every start; each round adds the
    # eigh of the starts' exp(K) and a trial.  Its only eigvalsh is S(rho_B);
    # S(rho) comes from the spectrum validate kept
    s = ginibre_state([1, 2], 2, 3)
    calls = {"_trial": [], "_gradient": []}
    starts, frames = [], []

    def counting(name, bases):
        real = getattr(D, name)

        def wrapper(*args):
            before = linalg_calls["eigh"]
            out = real(*args)
            calls[name].append((linalg_calls["eigh"] - before, bases(args[0])))
            return out
        return wrapper

    real_refine = D._refine

    def refine(u, *args):
        starts.append(u.copy())
        return real_refine(u, *args)

    real_prepare = D.prepare

    def prepare(state):
        before = linalg_calls["eigh"]
        frame = real_prepare(state)
        frames.append((linalg_calls["eigh"] - before, frame))
        return frame

    monkeypatch.setattr(D, "_trial", counting("_trial", np.copy))
    monkeypatch.setattr(D, "_gradient", counting("_gradient", lambda trial: len(trial[0])))
    monkeypatch.setattr(D, "_refine", refine)
    monkeypatch.setattr(D, "prepare", prepare)
    linalg_calls.update(eigh=0, eigvalsh=0)
    r = discord_a(s)
    ((prepare_eighs, frame),) = frames
    score, rounds = calls["_trial"][0], calls["_trial"][1:]
    (first_gradient, *round_gradients) = calls["_gradient"]
    assert r.grid_resolution > 0 and len(starts) == 1 and len(starts[0]) == s.dim_a and rounds
    assert {e for e, _ in calls["_trial"]} == {1} and {e for e, _ in calls["_gradient"]} == {0}
    # the exit read the one Frame, and the search scored the Frame's basis
    # again as its first candidate
    assert prepare_eighs == 1
    assert frame.basis.shape == (s.dim_a, s.dim_a) and len(score[1]) == r.grid_resolution
    assert np.array_equal(score[1][0], frame.basis)
    assert linalg_calls == {"eigh": 4 + 2 * len(rounds), "eigvalsh": 1}
    # the starts' first gradient reuses their score, so the refinement's
    # first trial is on stepped bases, none of them a start
    assert first_gradient[1] == s.dim_a
    assert not any(np.array_equal(x, u) for x in rounds[0][1] for u in starts[0])
    # each basis scored or tried counts one evaluation, and so does each
    # gradient at an accepted trial; the starts' first gradient comes with
    # their score
    trial_rows = sum(len(u) for _, u in rounds)
    gradient_rows = sum(n for _, n in round_gradients)
    assert r.optimizer_evals == 1 + r.grid_resolution + trial_rows + gradient_rows
    assert trial_rows > len(rounds)  # the starts share their trial calls


def scored_starts(s: BipartiteState):
    """(block stack, starts, their H, their kept decompositions): the bases
    discord_a refines, ranked from its candidates' scores."""
    b = D._block_stack(s)
    eig = np.linalg.eigh(partial_trace_b(s))[1][:, ::-1]
    cands = np.concatenate([eig[None], D._singular_bases(b, s.dim_a)])
    hs, kept = D._trial(cands, b)
    best = np.argsort(D._tied(hs), kind="stable")[: s.dim_a]
    return b, cands[best], hs[best], [a[best] for a in kept]


def test_lockstep_refinement_equals_the_sequential_oracle():
    # a panel fixed before it was run: 20 Ginibre and 10 rank-2 states of
    # each shape and 10 random_sppt states of each 2xN; every start the
    # search refines from its score must end where helpers.sequential_refine
    # ends it, to the bit, after as many evaluations
    shapes = [(2, 1), (2, 2), (2, 3), (2, 4), (2, 8), (3, 2), (3, 3), (3, 4), (4, 2)]
    states = [ginibre_state([seed, m, n], m, n) for m, n in shapes for seed in range(20)]
    states += [rank2_state([seed, m, n, 2], m, n) for m, n in shapes for seed in range(10)]
    states += [random_sppt(n, rng_seed=[seed, 2, n]) for n in (2, 3, 4, 8) for seed in range(10)]
    assert len(states) == 310
    batches = 0
    for s in states:
        b, u0, h0, kept0 = scored_starts(s)
        u, h, evals = D._refine(u0, b, h0, kept0)
        assert u.shape == u0.shape and h.shape == evals.shape == (len(u0),)
        for k, start in enumerate(u0):
            u_k, h_k, evals_k = H.sequential_refine(start, b)
            # the oracle counts its first trial, which is the start's score
            assert (h[k], evals[k] + 1) == (h_k, evals_k), (s.dim_a, s.dim_b, k)
            assert u[k].tobytes() == u_k.tobytes(), (s.dim_a, s.dim_b, k)
        batches += len(u0) > 1
    assert batches == len(states) - 30  # each 2x1 state has one start


@pytest.mark.parametrize("cap", [1, 3])
def test_refinement_stops_at_its_step_cap(monkeypatch, cap):
    # _MAX_STEPS only guards against a stalled refinement, and no state of
    # the suite reaches it; lowered to cap, every start the search refines
    # from its score must still end where helpers.sequential_refine, which
    # reads the same cap, ends it, to the bit, after as many evaluations,
    # and some start must stop above the H it reaches uncapped
    shapes = [(2, 2), (2, 4), (3, 2), (3, 3)]
    states = [ginibre_state([seed, m, n], m, n) for m, n in shapes for seed in range(10)]
    uncapped, binds = D._MAX_STEPS, 0
    for s in states:
        b, u0, h0, kept0 = scored_starts(s)
        monkeypatch.setattr(D, "_MAX_STEPS", uncapped)
        h_free = D._refine(u0, b, h0, kept0)[1]
        monkeypatch.setattr(D, "_MAX_STEPS", cap)
        u, h, evals = D._refine(u0, b, h0, kept0)
        for k, start in enumerate(u0):
            u_k, h_k, evals_k = H.sequential_refine(start, b)
            assert (h[k], evals[k] + 1) == (h_k, evals_k), (s.dim_a, s.dim_b, k)
            assert u[k].tobytes() == u_k.tobytes(), (s.dim_a, s.dim_b, k)
        binds += int((h > h_free).sum())
    assert binds > 0


# ---------------------------------------------------------------------------
# classical correlation and discord


def test_classical_correlation_of_product_vanishes():
    a = np.diag([0.3, 0.7])
    b = np.diag([0.6, 0.4])
    s = validate(np.kron(a, b), 2, 2)
    r = discord_a(s)
    assert 0.0 <= r.classical_correlation <= 1e-9
    assert r.optimal_basis.shape == (2, 2)


def test_classical_correlation_of_classical_state_is_full():
    r = discord_a(classically_correlated())
    assert r.classical_correlation == pytest.approx(1.0, abs=1e-9)
    # optimal measurement is along z: its first vector sits at a pole
    assert np.min(np.abs(r.optimal_basis[:, 0])) < 5e-4


def test_classical_correlation_achieves_its_reported_value():
    s = ginibre_state(3, 2, 2)
    r = discord_a(s)
    achieved = H.vn_entropy(partial_trace_a(s)) - trial_h(s, r.optimal_basis)
    assert r.classical_correlation == pytest.approx(achieved, abs=1e-9)


def test_classical_correlation_dominates_coarse_grid():
    # soundness: the optimum can only improve on any explicit measurement
    s = ginibre_state(4, 2, 3)
    value = discord_a(s).classical_correlation
    sb = H.vn_entropy(partial_trace_a(s))
    for theta in np.linspace(0.0, np.pi, 7):
        for phi in np.linspace(0.0, 2 * np.pi, 9, endpoint=False):
            objective = sb - trial_h(s, bloch_basis(theta, phi))
            assert value >= objective - 1e-9


def test_discord_of_bell_state_is_one():
    r = discord_a(bell_state())
    assert r.mutual_information == pytest.approx(2.0, abs=1e-9)
    assert r.classical_correlation == pytest.approx(1.0, abs=1e-6)
    assert r.discord == pytest.approx(1.0, abs=1e-6)


def test_discord_matches_luo_closed_form_on_bell_simplex():
    points = H.simplex_grid(10)
    assert len(points) == 286
    for p in points:
        r = discord_a(bell_diagonal(BellDiagonalParams(*p)))
        mi, cc, d = H.luo_bell_diagonal(p)
        assert abs(r.mutual_information - mi) <= 1e-9, p
        assert abs(r.classical_correlation - cc) <= 1e-9, p
        assert abs(r.discord - d) <= 1e-9, p


def test_discord_report_is_consistent():
    s = ginibre_state(5, 2, 2)
    r = discord_a(s)
    assert r.discord == pytest.approx(
        max(0.0, r.mutual_information - r.classical_correlation), abs=1e-12
    )
    assert r.mutual_information == pytest.approx(H._mutual_information(s, H.blocks_of(s)),
                                                 abs=1e-12)
    # scored starts: the rho_A eigenbasis and the eigenbases of the
    # min(2^2, 2^2) - 1 = 3 singular operators of rho - rho_A x rho_B that are
    # not set by rounding, and of the 2 bisectors of the leading pair
    assert r.grid_resolution == 1 + 3 + 2
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
        expected = H.vn_entropy(partial_trace_b(s))
        assert r.discord == pytest.approx(expected, abs=1e-3)


def test_discord_vanishes_on_classical_quantum_states():
    for seed in range(4):
        s = random_cq(2, 3, rng_seed=seed)
        assert discord_a(s).discord <= DEFAULT_OPT.eps_opt


def test_discord_is_invariant_under_local_unitaries():
    # the starts come from the state, so they rotate with it and the search
    # ends at the same value up to rounding; cq_detect's sweeps start from
    # the rho_A eigenbasis, which rotates with U_A, and U_B leaves the
    # off-block mass alone, so its residual moves by rounding too
    for m, n in [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (4, 2)]:
        for seed in range(8):
            s = ginibre_state([seed, m, n], m, n)
            w = np.kron(random_unitary(m, rng_seed=[seed, m, n, 1]),
                        random_unitary(n, rng_seed=[seed, m, n, 2]))
            t = validate(w @ s.rho @ w.conj().T, m, n)
            assert abs(discord_a(t).discord - discord_a(s).discord) <= 1e-12, (m, n, seed)
            moved = cq_detect(t).off_block_residual - cq_detect(s).off_block_residual
            assert abs(moved) <= 1e-12, (m, n, seed)


def test_discord_against_qubit_search_oracle():
    # the grid + Nelder-Mead search stops at a grid point within 2.5e-5 of
    # the mutual information, so on CQ states it may sit below the optimum
    for seed in range(2):
        for n in (1, 2, 3, 4, 8):
            key = [seed, n]
            exact = [
                ginibre_state(key, 2, n),
                random_sppt(n, rng_seed=key),
                random_pure(2, n, rng_seed=key),
            ]
            if (seed, n) == (0, 3):
                # the principal axes alone, two of them refined, ended 4.4e-3
                # bits short here: the optimum lies near a bisector
                exact.append(random_sppt(3, rng_seed=[91, 2, 3]))
            if n == 2:
                p = np.random.default_rng(key).dirichlet(np.ones(4))
                exact.append(bell_diagonal(BellDiagonalParams(*p)))
            for s in exact:
                r = discord_a(s)
                assert r.classical_correlation == pytest.approx(H.searched_cc_qubit(s), abs=1e-9)
                assert r.classical_correlation == pytest.approx(
                    H.measured_correlation(s, r.optimal_basis), abs=1e-12)
            s = random_cq(2, n, rng_seed=key)
            r = discord_a(s)
            assert r.classical_correlation >= H.searched_cc_qubit(s) - 1e-10
            assert r.classical_correlation == pytest.approx(
                H.measured_correlation(s, r.optimal_basis), abs=1e-12)


def test_discord_is_bit_reproducible():
    for s in (ginibre_state(21, 2, 3), ginibre_state(22, 3, 2), random_cq(2, 2, rng_seed=23)):
        a, b = discord_a(s), discord_a(s)
        assert a.optimal_basis.tobytes() == b.optimal_basis.tobytes()
        assert (a.classical_correlation, a.discord, a.optimizer_evals, a.grid_resolution) == (
            b.classical_correlation, b.discord, b.optimizer_evals, b.grid_resolution)


def test_discord_early_exit_on_classical_quantum_states():
    r = discord_a(random_cq(2, 4, rng_seed=24))
    assert (r.optimizer_evals, r.grid_resolution) == (1, 0)
    assert r.discord <= 1e-12


def test_pure_states_exit_at_the_schmidt_basis():
    # H(U) >= 0 bounds C_A by S(rho_B); a pure state's rho_A eigenbasis is a
    # Schmidt basis, where H = 0, so the search stops there
    for m, n in [(2, 2), (2, 8), (3, 4), (4, 2)]:
        for seed in range(3):
            s = random_pure(m, n, rng_seed=[seed, m, n])
            r = discord_a(s)
            assert (r.optimizer_evals, r.grid_resolution) == (1, 0)
            assert abs(r.discord - H.vn_entropy(partial_trace_b(s))) <= 1e-12


def test_near_pure_mixture_still_searches():
    # 0.99 |psi><psi| + 0.01 I/d: the eigenbasis leaves H above eps_opt/4,
    # so neither bound ends the search, which then does at least as well
    for m, n in [(2, 2), (2, 4), (3, 2)]:
        psi = random_pure(m, n, rng_seed=[40, m, n]).rho
        s = validate(0.99 * psi + 0.01 * np.eye(m * n) / (m * n), m, n)
        eig = np.linalg.eigh(partial_trace_b(s))[1][:, ::-1]
        h_eig = trial_h(s, eig)
        assert h_eig > 0.25 * DEFAULT_OPT.eps_opt
        r = discord_a(s)
        assert r.grid_resolution > 0
        assert r.classical_correlation >= H.vn_entropy(partial_trace_a(s)) - h_eig - 1e-12


def test_refinement_reaches_zero_entropy_on_pure_states():
    # pure states no longer reach the refinement through discord_a; refined
    # from their best singular-operator starts (rank-one sigma_k throughout)
    # it ends at H = 0
    for m, n in [(2, 2), (2, 8), (3, 4), (4, 2)]:
        s = random_pure(m, n, rng_seed=[41, m, n])
        b = D._block_stack(s)
        cands = D._singular_bases(b, m)
        hs, kept = D._trial(cands, b)
        best = np.argsort(hs, kind="stable")[:m]
        _, h, _ = D._refine(cands[best], b, hs[best], [a[best] for a in kept])
        assert np.abs(h).max() <= 1e-12, (m, n)


def _bell_from_correlations(t) -> BipartiteState:
    """(1 + sum_i t_i sigma_i x sigma_i) / 4."""
    paulis = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1])]
    return validate((np.eye(4) + sum(ti * np.kron(p, p) for ti, p in zip(t, paulis))) / 4, 2, 2)


def test_singular_starts_are_unitary():
    # one basis per singular operator of rho - rho_A x rho_B but the last,
    # whose singular value is 0 (k of them), and one per bisector of the
    # leading pair, k + 2 in all: none for dim_b = 1; for a product state the
    # operator vanishes, and at |t_1| = |t_2| the top singular operator need
    # not be Hermitian up to a phase
    shapes = [(2, 1), (3, 1), (2, 3), (3, 2), (4, 2), (3, 4)]
    states = [ginibre_state([60, m, n], m, n) for m, n in shapes]
    states += [validate(np.kron(np.diag([0.3, 0.7]), np.diag([0.6, 0.4])), 2, 2),
               _bell_from_correlations((0.4, -0.4, 0.1))]
    for s in states:
        m, n = s.dim_a, s.dim_b
        u = D._singular_bases(D._block_stack(s), m)
        k = min(m * m, n * n) - 1
        assert u.shape == (k + 2 if k > 0 else 0, m, m)
        defect = np.abs(np.conj(u.transpose(0, 2, 1)) @ u - np.eye(m))
        assert defect.max(initial=0.0) <= 1e-12, (m, n)


def test_top_singular_start_measures_along_the_largest_correlation():
    # for a Bell-diagonal state rho - rho_A x rho_B = sum_i t_i sigma_i x sigma_i / 4,
    # so the top start measures along the axis of the largest |t_i|, where
    # Luo's optimum lies
    for t in [(0.5, -0.2, 0.1), (0.1, -0.5, 0.3), (-0.2, 0.1, 0.6)]:
        u = D._singular_bases(D._block_stack(_bell_from_correlations(t)), 2)[0]
        axis = np.eye(3)[int(np.argmax(np.abs(t)))]
        assert np.abs(_first_bloch(u)) == pytest.approx(axis, abs=1e-12), t


@pytest.mark.parametrize("state", [
    # classical correlation 0.243356 from the search, 0.243524 from
    # helpers.searched_cc: the discord is 1.68e-4 bits too high
    pytest.param(lambda: validate(random_ginibre_density(9, [67, 3, 3]), 3, 3),
                 id="ginibre-67-3-3"),
    # 0.975700 against 0.977172: 1.47e-3 bits too high
    pytest.param(lambda: rank2_state([53, 3, 3, 2], 3, 3), id="rank2-53-3-3-2"),
    # 0.300637 against 0.316254: 1.56e-2 bits, 156 eps_opt, too high; this
    # state reached the oracle before the leading pair's bisectors were scored
    pytest.param(lambda: validate(random_ginibre_density(9, [92, 3, 3]), 3, 3),
                 id="ginibre-92-3-3"),
])
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="refining the best dim_a starts stops short on this 3xN state")
def test_known_3xn_misses_reach_the_multi_start_oracle(state):
    # each miss is its own strict case: a search change that mends one fails
    # here until that case is removed, so the list can only shrink
    s = state()
    assert H.searched_cc(s) - discord_a(s).classical_correlation <= 0.25 * DEFAULT_OPT.eps_opt


@pytest.mark.parametrize("seed, m, n, expected", [
    (58, 3, 4, 0.391205), (1038, 3, 2, 0.205636), ([81, 3, 4], 3, 4, 0.351158)])
def test_former_misses_reach_the_multi_start_oracle(seed, m, n, expected):
    # with the rho_A eigenbasis, the identity and 64 seeded Haar bases as
    # starts, the first two stopped 1.03e-2 and 5.3e-3 bits short of the
    # optimum; from the state's starts without the leading pair's bisectors,
    # the third reached classical correlation 0.214547, not the optimum 0.215034
    s = ginibre_state(seed, m, n)
    r = discord_a(s)
    assert abs(r.classical_correlation - H.searched_cc(s)) <= 0.25 * DEFAULT_OPT.eps_opt
    assert r.discord == pytest.approx(expected, abs=5e-7)


def test_bisector_loss_stays_within_the_oracle_bound():
    # on the 3xN panel (Ginibre and rank-2 3x2, 3x3, 3x4, 4x2, seeds 0-59) this
    # is the one state that scoring the leading pair's bisectors lowers: they
    # displace the two of the best three starts that reached the optimum, and
    # the search ends at 0.254790, 2.24e-5 bits below the 0.254812 of
    # helpers.searched_cc
    s = ginibre_state([59, 3, 3], 3, 3)
    assert abs(discord_a(s).classical_correlation - H.searched_cc(s)) <= 0.25 * DEFAULT_OPT.eps_opt


@pytest.mark.parametrize("seed, m, n", [
    (seed, m, n) for m, n in [(3, 2), (3, 3), (3, 4), (4, 2)] for seed in range(5)])
def test_classical_correlation_matches_multi_start_oracle(seed, m, n):
    # a panel fixed before it was run: Ginibre states of keys [seed, m, n]
    s = ginibre_state([seed, m, n], m, n)
    r = discord_a(s)
    assert abs(r.classical_correlation - H.searched_cc(s)) <= 0.25 * DEFAULT_OPT.eps_opt
    assert r.classical_correlation == pytest.approx(
        H.measured_correlation(s, r.optimal_basis), abs=1e-12)


def test_rank2_mx2_classical_correlation_meets_the_koashi_winter_value():
    # J, the classical correlation over every POVM on A, is in closed form for
    # dim_b = 2 and rank <= 2 (helpers.kw_classical_correlation), so no
    # projective measurement exceeds it.  The search reaches it on 4x2-6x2,
    # and on 2x2 it lands within 5e-15 of it on s < 600 (the eigvals form of
    # Wootters' concurrence loses up to 3e-8 to the square roots of rounding,
    # which the singular-value form avoids).  On 3x2 a POVM can beat every
    # projective measurement, by up to 1.2e-2 here, so J only bounds it
    keys = [([s, m, 2, 2], m) for m in range(2, 7) for s in range(40)] + [([434, 2, 2, 2], 2)]
    for key, m in keys:
        s = rank2_state(key, m, 2)
        j, cc = H.kw_classical_correlation(s), discord_a(s).classical_correlation
        assert cc <= j + 1e-11, key
        if m != 3:
            assert abs(j - cc) <= 1e-11, key


@pytest.mark.parametrize("seed, evals, cc", [
    (12, 503, 0.7643006332050759), (22, 523, 0.8959760358446411),
    (59, 567, 0.45614576932917267), (97, 525, 0.7340625276134549)])
def test_line_searches_end_at_rounding_level(monkeypatch, seed, evals, cc):
    # the optimal H of these states is 0 to rounding, so a floor relative to
    # |H| alone stops no line search: with halved steps tried while
    # -t * slope > _PROGRESS_RTOL |H|, up to a cap of 30 halvings, a line
    # search of each made all 30 trials, and evals and cc are the search's
    # evaluations and value then.  A floor of _PROGRESS_RTOL max(1, |H|)
    # ends every line search long before
    s = rank2_state([seed, 4, 2, 2], 4, 2)
    r = discord_a(s)
    assert r.optimizer_evals < evals
    assert abs(r.classical_correlation - cc) <= 1e-13
    b = D._block_stack(s)
    eig = np.linalg.eigh(partial_trace_b(s))[1][:, ::-1]
    cands = np.concatenate([eig[None], D._singular_bases(b, s.dim_a)])
    hs, kept = D._trial(cands, b)
    calls = []

    def logged(f, tag):
        def call(*args):
            calls.append(tag)
            return f(*args)
        return call

    monkeypatch.setattr(D, "_trial", logged(D._trial, "t"))
    monkeypatch.setattr(D, "_gradient", logged(D._gradient, "g"))
    for i in np.argsort(D._tied(hs), kind="stable")[: s.dim_a]:
        # one start at a time, so the trials between gradients are one line search
        D._refine(cands[i:i + 1], b, hs[i:i + 1], [a[i:i + 1] for a in kept])
    assert max(map(len, "".join(calls).split("g"))) < 30


def test_search_keeps_its_values_on_former_backtracking_states():
    # values the search has kept through each change to its stop rules;
    # 0.30978217788826734 is the one it reached under a bare halving cap
    s, q = ginibre_state(3, 3, 2), ginibre_state(5, 2, 4)
    r, rq = discord_a(s), discord_a(q)
    assert abs(r.classical_correlation - H.searched_cc(s)) <= 0.25 * DEFAULT_OPT.eps_opt
    assert r.classical_correlation == pytest.approx(0.30978217788826734, abs=1e-9)
    assert rq.classical_correlation == pytest.approx(H.searched_cc_qubit(q), abs=1e-9)


FIXTURE_DIR = pathlib.Path(__file__).parent / "fixtures"


def fixture(fname: str):
    state, _ = read_statefile(FIXTURE_DIR / fname)
    with open(FIXTURE_DIR / "expected.json", encoding="utf-8") as fh:
        return state, json.load(fh)[fname]


def test_fixture_cq_2x2_has_no_discord():
    # the classical basis of a CQ state attains the mutual information, so
    # its frozen discord is zero; computed without the measurement search
    s, want = fixture("state_01.json")
    v = cq_detect(s)
    assert v.is_cq
    mi = (H.vn_entropy(partial_trace_b(s)) + H.vn_entropy(partial_trace_a(s))
          - H.vn_entropy(s.rho))
    cc = H.measured_correlation(s, v.basis)
    assert cc == pytest.approx(mi, abs=1e-12)
    assert want["classical_correlation"] == pytest.approx(cc, abs=1e-12)
    assert want["discord"] <= 1e-12


def _first_bloch(u: np.ndarray) -> list[float]:
    """Bloch vector (x, y, z) of the first column of a qubit basis."""
    c = 2.0 * np.conj(u[0, 0]) * u[1, 0]
    return [c.real, c.imag, abs(u[0, 0]) ** 2 - abs(u[1, 0]) ** 2]


def test_reported_basis_at_ties_follows_candidate_order():
    # state_17 (Bell 0.7, 0.1, 0.1, 0.1: every measurement optimal) reports
    # the rho_A eigenbasis, the first candidate, with its first vector |1>;
    # state_10's refined endpoints tie to rounding between a basis and its
    # column swap (the antipodal Bloch vector), and the first refined one is
    # reported; state_12 is pure and exits.  The angles are of the axis, so
    # they would not show which column comes first
    from qcorr.analysis import analyze, to_machine

    for fname, n, theta, phi in [
        ("state_17.json", [0.0, 0.0, -1.0], 0.0, 0.0),
        ("state_10.json", [-0.791518561116888, -0.2107495046022713, 0.5736575753159221],
         0.9598320327750005, 3.4018150704904873),
        ("state_12.json", [0.5349259901584231, 0.10129090015426866, 0.8388053043459899],
         0.5757112194149839, 0.18713932683730938),
    ]:
        s, _ = fixture(fname)
        assert _first_bloch(discord_a(s).optimal_basis) == pytest.approx(n, abs=1e-6), fname
        doc = to_machine(analyze(s))
        assert doc["optimal_theta"] == pytest.approx(theta, abs=1e-6), fname
        assert doc["optimal_phi"] == pytest.approx(phi, abs=1e-6), fname
    assert discord_a(fixture("state_12.json")[0]).grid_resolution == 0


@pytest.mark.parametrize("axis, theta, phi, nudged", [
    ((0.0, 0.0, 1.0), 0.0, 0.0, 0),
    ((1.0, 0.0, 0.0), np.pi / 2, 0.0, 2),
    ((1.0, 0.0, 0.0), np.pi / 2, 0.0, 1),
    ((0.0, 1.0, 0.0), np.pi / 2, np.pi / 2, 0),
    ((0.0, 1.0, 0.0), np.pi / 2, np.pi / 2, 2),
    ((0.48, 0.6, -0.64), np.arccos(0.64), np.arctan2(-0.6, -0.48) + 2 * np.pi, 2),
], ids=["z", "x", "x-nudged-y", "y-nudged-x", "y-nudged-z", "generic"])
def test_reported_angles_are_of_the_measurement_axis(axis, theta, phi, nudged):
    # a basis and its column swap measure the same axis, and a Bloch
    # component of rounding size (index nudged of x, y, z) does not pick
    # its sign
    from qcorr.analysis import _bloch_angles

    def basis_along(n):
        n = np.asarray(n) / np.linalg.norm(n)
        t, p = np.arctan2(np.hypot(n[0], n[1]), n[2]), np.arctan2(n[1], n[0])
        v = np.array([np.cos(t / 2), np.exp(1j * p) * np.sin(t / 2)])
        return np.column_stack([v, [-np.conj(v[1]), np.conj(v[0])]])

    def rendered(u):
        th, ph = _bloch_angles(D.DiscordReport(0.0, 0.0, 0.0, 0, 0, u))
        return f"{th:.6f} {ph:.6f}"

    want = f"{theta:.6f} {phi:.6f}"
    for eps in (0.0, 1e-12, -1e-12):
        n = np.array(axis)
        n[nudged] += eps
        u = basis_along(n)
        assert _first_bloch(u) == pytest.approx(n, abs=1e-12)
        assert rendered(u) == rendered(u[:, ::-1]) == want, eps


def test_fixture_ginibre_3x3_classical_correlation_is_attained():
    # the frozen value is attained by the reported basis and lies above
    # 0.28398654650288124, where the Givens-chart search had stopped
    s, want = fixture("state_11.json")
    r = discord_a(s)
    assert H.measured_correlation(s, r.optimal_basis) == pytest.approx(
        want["classical_correlation"], abs=1e-12)
    assert want["classical_correlation"] > 0.28398654650288124 + 1e-3


def test_discord_serves_any_dim_a():
    cases = [
        kron_cq_state(np.eye(1), [1.0], 3, seed=101),
        kron_cq_state(random_unitary(4, rng_seed=102), [0.1, 0.2, 0.3, 0.4], 2, seed=103),
        kron_cq_state(random_unitary(5, rng_seed=104), [0.1, 0.15, 0.2, 0.25, 0.3], 2,
                      seed=105),
    ]
    for s in cases:
        r = discord_a(s)
        assert r.discord <= DEFAULT_OPT.eps_opt
        assert np.allclose(r.optimal_basis.conj().T @ r.optimal_basis,
                           np.eye(s.dim_a), atol=1e-12)
    g = ginibre_state(106, 4, 2)
    r = discord_a(g)
    assert 0.0 < r.discord <= r.mutual_information
    assert r.classical_correlation == pytest.approx(
        H.measured_correlation(g, r.optimal_basis), abs=1e-12)


def test_import_loads_no_scipy():
    src = str(pathlib.Path(__import__("qcorr").__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, qcorr; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_every_exported_name_resolves():
    # a deletion that leaves a stale entry in an __all__ fails here
    import qcorr
    modules = [qcorr] + [importlib.import_module(f"qcorr.{info.name}")
                         for info in pkgutil.iter_modules(qcorr.__path__)]
    for mod in modules:
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__}.__all__ names missing {name}"


def test_benchmark_and_script_imports_resolve():
    # bench/ and scripts/ are not collected, so a deletion from the package
    # or from a test module that they import would otherwise surface only
    # when they run.  Every name imported from qcorr or from a test module
    # must resolve, as must every attribute read on an imported qcorr module.
    # bench/tracing.py's LAYERS strings are not checked: the tracer skips a
    # missing name by design.
    root = pathlib.Path(__file__).resolve().parents[1]
    tests = {f.stem for f in (root / "tests").glob("*.py")}
    missing = []
    for path in sorted([*root.glob("bench/*.py"), *root.glob("scripts/*.py")]):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {}  # local name -> imported qcorr module
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "qcorr":  # binds qcorr unless renamed
                        name = alias.name if alias.asname else "qcorr"
                        modules[alias.asname or "qcorr"] = importlib.import_module(name)
            elif isinstance(node, ast.ImportFrom) and node.module and (
                    node.module.split(".")[0] == "qcorr" or node.module in tests):
                mod = importlib.import_module(node.module)
                for alias in node.names:
                    try:  # a submodule is an attribute of its package once imported
                        importlib.import_module(f"{node.module}.{alias.name}")
                    except ModuleNotFoundError:
                        pass
                    if not hasattr(mod, alias.name):
                        missing.append(f"{path.name}: {node.module}.{alias.name}")
                    elif isinstance(value := getattr(mod, alias.name), type(mod)):
                        modules[alias.asname or alias.name] = value
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules and not hasattr(modules[node.value.id], node.attr)):
                missing.append(f"{path.name}: {node.value.id}.{node.attr}")
    assert missing == []


def test_no_private_top_level_name_is_unused():
    # a private function, class or constant that nothing in the package
    # references is dead code
    pkg = pathlib.Path(__import__("qcorr").__file__).parent
    trees = {f.name: ast.parse(f.read_text(encoding="utf-8")) for f in sorted(pkg.glob("*.py"))}
    defined = {}
    for fname, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = fname
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    assert sorted(f"{f}: {n}" for n, f in defined.items() if n not in used) == []


def test_no_imported_name_is_unused():
    # an import whose name the module never reads is a leftover of deleted
    # code; a name listed in the module's __all__ is read by its importers
    root = pathlib.Path(__file__).resolve().parents[1]
    unused = []
    for path in sorted([*root.glob("src/qcorr/*.py"), *root.glob("scripts/*.py"),
                        *root.glob("tests/*.py")]):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported, read = {}, set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
            elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                read.update(ast.literal_eval(node.value))
        unused += [f"{path.relative_to(root)}:{line}: {name}"
                   for name, line in imported.items() if name not in read]
    assert unused == []


def test_every_public_function_has_a_caller():
    # a public function that nothing in the package, bench/ or scripts/
    # calls is dead code.  Only call sites count, so a report field or a
    # name string of the same name is not a use
    import inspect

    import qcorr
    root = pathlib.Path(__file__).resolve().parents[1]
    called = set()
    for path in [*root.glob("src/qcorr/*.py"), *root.glob("bench/*.py"), *root.glob("scripts/*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                called.add(node.func.id)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                called.add(node.func.attr)
    uncalled = []
    for info in pkgutil.iter_modules(qcorr.__path__):
        mod = importlib.import_module(f"qcorr.{info.name}")
        uncalled += [f"{info.name}.{name}" for name in getattr(mod, "__all__", ())
                     if inspect.isfunction(getattr(mod, name)) and name not in called]
    assert uncalled == []


def test_oracles_read_qcorr_discord_only_in_the_sequential_reference():
    # the oracles in helpers stay independent of the algorithms they check;
    # sequential_refine and its trial, the reference the lockstep refinement
    # must reproduce bit for bit, are the one declared exception
    allowed = {"_seq_trial", "sequential_refine"}
    tree = ast.parse(pathlib.Path(H.__file__).read_text(encoding="utf-8"))
    aliases, reads = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "qcorr.discord":
            reads.append(f"line {node.lineno}: from qcorr.discord import")
        elif isinstance(node, ast.ImportFrom) and node.module == "qcorr":
            aliases |= {a.asname or a.name for a in node.names if a.name == "discord"}
        elif isinstance(node, ast.Import):
            aliases |= {a.asname for a in node.names if a.name == "qcorr.discord" and a.asname}
    for top in tree.body:
        if isinstance(top, ast.FunctionDef) and top.name in allowed:
            continue
        for node in ast.walk(top):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases):
                reads.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
    assert aliases and reads == []


def test_oracles_never_import_qcorr_factorization():
    # rowwise_factorize and the unrolled factorizations check
    # qcorr.factorization, so helpers takes nothing from it: not the module,
    # and none of the names qcorr re-exports from it
    from qcorr import factorization

    tree = ast.parse(pathlib.Path(H.__file__).read_text(encoding="utf-8"))
    imports = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imports += [a.name for a in node.names if a.name.startswith("qcorr.factorization")]
        elif isinstance(node, ast.ImportFrom) and node.module == "qcorr.factorization":
            imports.append(node.module)
        elif isinstance(node, ast.ImportFrom) and node.module == "qcorr":
            imports += [a.name for a in node.names
                        if a.name == "factorization" or a.name in factorization.__all__]
    assert imports == []


def test_every_parameter_is_read():
    # a parameter that its function never reads is a setting that does
    # nothing.  cq_detect's opt stays because bench/workloads.py passes it
    # positionally; it goes once the benchmark stops passing it (ROADMAP
    # item 3, then item 9).
    allowed = {"discord.cq_detect.opt"}
    pkg = pathlib.Path(__import__("qcorr").__file__).parent
    unread = []
    for f in sorted(pkg.glob("*.py")):
        for node in ast.walk(ast.parse(f.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.FunctionDef):
                continue
            a = node.args
            params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if p]
            loaded = {n.id for stmt in node.body for n in ast.walk(stmt)
                      if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [f"{f.stem}.{node.name}.{p}" for p in params if p not in loaded]
    assert sorted(set(unread) - allowed) == []


def test_discord_on_qutrit_a_side_reports_basis():
    s = random_cq(3, 2, rng_seed=17)
    r = discord_a(s)
    assert r.discord <= DEFAULT_OPT.eps_opt
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


def test_the_commutator_is_formed_only_by_commutator_criterion(monkeypatch, capsys):
    # cq_detect never forms it; analyze and each valid scan-inclusions row
    # take it from one commutator_criterion call, read as a module attribute
    from qcorr import cli
    from qcorr.analysis import analyze

    states = (random_cq(2, 3, rng_seed=111), ginibre_state(112, 2, 2), ginibre_state(113, 3, 2))
    want = [commutator_criterion(s) for s in states]
    calls = []

    def counted(state):
        calls.append(state)
        return commutator_criterion(state)

    monkeypatch.setattr(D, "commutator_criterion", counted)
    for s, com in zip(states, want):
        cq_detect(s)
        assert not calls
        assert analyze(s).commutator == com
        assert len(calls) == 1 and calls[0] is s
        calls.clear()
    assert cli.main(["scan-inclusions", "--grid", "1", "--samples", "3", "--seed", "5"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    valid = sum(r["is_valid"] == "True" for r in rows)
    assert valid >= 1 and len(calls) == valid


def test_commutator_positive_for_generic_states():
    assert commutator_criterion(ginibre_state(3, 2, 2)) > 1e-3
    assert commutator_criterion(ginibre_state(4, 3, 2)) > 1e-3


@pytest.mark.parametrize("dim_a,dim_b", [(1, 3), (2, 1), (2, 8), (3, 4), (4, 2)])
def test_commutator_matches_the_dense_kronecker_form(dim_a, dim_b):
    # the blockwise einsum against the dense rho_A x I_B products it replaced
    for seed in range(3):
        for s in (ginibre_state(seed, dim_a, dim_b), random_cq(dim_a, dim_b, rng_seed=seed),
                  random_pure(dim_a, dim_b, rng_seed=seed)):
            want = H.dense_commutator(s)
            assert abs(commutator_criterion(s) - want) <= 1e-12 * max(1.0, np.linalg.norm(s.rho))


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
        assert v.off_block_residual <= 1e-6
        assert np.allclose(rebuild_from_verdict(v, dim_b), s.rho, atol=1e-7)
        total = sum(float(np.trace(sig).real) for sig in v.sigma_list)
        assert total == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("dim_a,dim_b,seed", [(2, 4, 3), (3, 3, 4), (5, 2, 5)])
def test_sigma_list_is_the_per_block_psd_clamp(dim_a, dim_b, seed):
    # the batched eigh against clamping each rotated diagonal block on its own
    s = random_cq(dim_a, dim_b, rng_seed=seed)
    v = cq_detect(s)
    assert v.is_cq
    blocks = H.blocks_of(s)
    for k in range(dim_a):
        f = v.basis[:, k]
        b = sum(np.conj(f[i]) * f[j] * blocks[i, j] for i in range(dim_a) for j in range(dim_a))
        w, u = np.linalg.eigh((b + b.conj().T) / 2)
        clamped = (u * np.clip(w, 0.0, None)) @ u.conj().T
        assert np.abs(v.sigma_list[k] - (clamped + clamped.conj().T) / 2).max() <= 1e-14


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
        kron_cq_state(random_unitary(5, rng_seed=86), [0.2] * 5, 2, seed=87),
    ]
    assert np.allclose(partial_trace_b(cases[2]), np.eye(4) / 4, atol=1e-12)
    assert np.allclose(partial_trace_b(cases[3]), np.eye(5) / 5, atol=1e-12)
    for s in cases:
        v = cq_detect(s)
        assert v.is_cq
        assert v.off_block_residual <= 1e-6
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


def coupled_cluster_state(seed: int, dim_a: int, dim_b: int) -> BipartiteState:
    """A CQ state with rho_A eigenvalues (0.3, 0.3, ...) in the Haar basis u,
    plus 1e-3 (|u_0><u_2| (x) X + h.c.) with X traceless: rho_A keeps its
    2-fold cluster exactly, and the commutator is far above eps_residual."""
    u = random_unitary(dim_a, rng_seed=[seed, dim_a, dim_b])
    lam = [0.3, 0.3, 0.4] if dim_a == 3 else [0.3, 0.3, 0.25, 0.15]
    rho = kron_cq_state(u, lam, dim_b, seed=170 + 10 * seed).rho
    x = random_ginibre_density(dim_b, [seed, 7]) - np.eye(dim_b) / dim_b
    t = np.kron(np.outer(u[:, 0], u[:, 2].conj()), x)
    return validate(rho + 1e-3 * (t + t.conj().T), dim_a, dim_b)


def test_cq_detect_matches_the_in_place_rotation_reference(monkeypatch):
    # the whole-grid contraction of each pair rotation against the in-place
    # rotation it replaced, on a panel of states whose rho_A is degenerate:
    # the Bell simplex at step 1/6, rho_A = I/M mixtures and CQ states, and
    # states with a 2-fold cluster coupled to a third level, which rotate the
    # cluster's pair alone and stay not CQ
    panel = [bell_diagonal(BellDiagonalParams(*p)) for p in H.simplex_grid(6)]
    panel += [mixed_marginal_state(seed, dim_a, dim_b)
              for dim_a, dim_b in [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 3), (5, 2)]
              for seed in range(10)]
    panel += [kron_cq_state(random_unitary(m, rng_seed=120 + m), [1.0 / m] * m, 3, seed=130 + m)
              for m in range(2, 6)]
    coupled = [coupled_cluster_state(seed, m, n) for m, n in [(3, 2), (3, 3), (4, 2)]
               for seed in range(4)]
    rotated = logged_rotations(monkeypatch)
    accepted = 0
    for k, s in enumerate(panel + coupled):
        rotated.clear()
        got, want = cq_detect(s), H.inplace_cq_detect(s)
        if k >= len(panel):
            assert np.diff(np.linalg.eigvalsh(partial_trace_b(s))).min() <= D._EPS_DEGENERATE
            assert commutator_criterion(s) > DEFAULT_TOL.eps_residual and not got.is_cq
            # the descending levels 0.3, 0.3 follow the 0.4 when dim_a is 3
            assert rotated == ([(1, 2)] if s.dim_a == 3 else [(0, 1)])
        assert got.is_cq == want.is_cq
        assert abs(got.off_block_residual - want.off_block_residual) <= 1e-12
        if got.is_cq:
            accepted += 1
            diff = rebuild_from_verdict(got, s.dim_b) - rebuild_from_verdict(want, s.dim_b)
            assert np.abs(diff).max() <= 1e-12
    assert accepted >= 4


def logged_rotations(monkeypatch) -> list:
    """The (p, q) of every pair rotation cq_detect makes from now on."""
    rotated, rotate = [], D._rotate_pair

    def logged(bp, basis, p, q):
        rotated.append((p, q))
        return rotate(bp, basis, p, q)

    monkeypatch.setattr(D, "_rotate_pair", logged)
    return rotated


@pytest.mark.parametrize("gaps", [(0.5,), (2.0,), (0.5, 2.0), (2.0, 0.5), (0.5, 0.5)],
                         ids=["below", "above", "below-above", "above-below", "below-below"])
def test_cq_detect_rotates_exactly_the_pairs_inside_a_cluster(gaps, monkeypatch):
    # rho_A gaps of 0.5 and 2 times _EPS_DEGENERATE, in a random basis so
    # that the eigenbasis leaves off-block mass inside a cluster: a pair is
    # rotated exactly when every gap between its levels is at most the
    # threshold
    gaps = [g * D._EPS_DEGENERATE for g in gaps]
    m = len(gaps) + 1
    lam = -np.concatenate([[0.0], np.cumsum(gaps)])
    lam += (1.0 - lam.sum()) / m
    s = kron_cq_state(random_unitary(m, rng_seed=140 + m), lam, 2, seed=150)
    rotated = logged_rotations(monkeypatch)
    assert cq_detect(s).is_cq
    want = {(p, q) for p in range(m) for q in range(p + 1, m)
            if all(g <= D._EPS_DEGENERATE for g in gaps[p:q])}
    assert set(rotated) == want


def test_cq_detect_sweeps_once_unless_a_cluster_has_three_levels(monkeypatch):
    # a 2-fold cluster is solved by its one rotation, so with no larger
    # cluster there is no second sweep; a 3-fold cluster sweeps until a
    # sweep's relative gain is at most _PROGRESS_RTOL
    rotated = logged_rotations(monkeypatch)
    masses, off_mass = [], D._off_mass
    monkeypatch.setattr(D, "_off_mass", lambda b: masses.append(off_mass(b)) or masses[-1])
    for s, pairs in [
        (bell_diagonal(BellDiagonalParams(0.7, 0.1, 0.1, 0.1)), [(0, 1)]),
        (kron_cq_state(random_unitary(4, rng_seed=160), [0.3, 0.3, 0.2, 0.2], 2, seed=161),
         [(0, 1), (2, 3)]),
    ]:
        rotated.clear()
        masses.clear()
        cq_detect(s)
        assert rotated == pairs
        assert len(masses) == 2  # before and after the one sweep
    for seed in range(3):
        rotated.clear()
        masses.clear()
        cq_detect(mixed_marginal_state(seed, 3, 2))
        sweeps = len(masses) - 1
        assert 2 <= sweeps < D._MAX_SWEEPS
        assert rotated == [(0, 1), (0, 2), (1, 2)] * sweeps
        gains = [(last - mass) / last for last, mass in zip(masses, masses[1:])]
        assert min(gains[:-1]) > D._PROGRESS_RTOL >= gains[-1]


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


def threshold_state(seed: int, m: int, n: int, family: str, mix: str,
                    rotate: bool) -> BipartiteState:
    """(1 - t) chi + t P, validated, with log10 t uniform in [-12, -5].  chi =
    sum_k lam_k |u_k><u_k| (x) sigma_k is CQ in a Haar basis u, of one of
    three families:
      "pure": pure sigma_k and Dirichlet lam_k;
      "gap": Ginibre sigma_k and lam_k a run spaced by _EPS_DEGENERATE times
        10^x, x uniform in [-1, 2];
      "rank_cut": sigma_k = V diag(g_k) V^+ with one Haar V for every k and
        Dirichlet g_k whose last weight is replaced by 10^x _EPS_RANK, x
        uniform in [-1, 1], then renormalized, so that every rho_jj of chi
        has an eigenvalue near factorize's rank cut; Dirichlet lam_k.
    P is the maximally entangled state on min(m, n) levels ("phi"), a Ginibre
    state or a pure state.  With rotate, the state is then conjugated by
    U_A (x) U_B, both Haar.  Everything is drawn from default_rng([seed, m, n])."""
    rng = np.random.default_rng([seed, m, n])
    t = 10.0 ** rng.uniform(-12.0, -5.0)
    u = random_unitary(m, rng)
    if family == "pure":
        lam = rng.dirichlet(np.ones(m))
        g = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
        sigma = [np.outer(v, v.conj()) / np.vdot(v, v).real for v in g]
    elif family == "gap":
        gap = 10.0 ** rng.uniform(-1.0, 2.0) * D._EPS_DEGENERATE
        lam = 1.0 / m - gap * (np.arange(m) - (m - 1) / 2)
        sigma = [random_ginibre_density(n, rng) for _ in range(m)]
    else:
        lam = rng.dirichlet(np.ones(m))
        v = random_unitary(n, rng)
        g = rng.dirichlet(np.ones(n), size=m)
        g[:, -1] = 10.0 ** rng.uniform(-1.0, 1.0, size=m) * F._EPS_RANK
        g /= g.sum(axis=1, keepdims=True)
        sigma = [(v * w) @ v.conj().T for w in g]
    chi = sum(w * np.kron(np.outer(u[:, k], u[:, k].conj()), sigma[k]) for k, w in enumerate(lam))
    if mix == "phi":
        phi = np.zeros(m * n)
        phi[[i * n + i for i in range(min(m, n))]] = 1.0
        p = np.outer(phi, phi) / min(m, n)
    elif mix == "ginibre":
        p = random_ginibre_density(m * n, rng)
    else:
        p = random_pure(m, n, rng).rho
    rho = (1 - t) * chi + t * p
    if rotate:
        w = np.kron(random_unitary(m, rng), random_unitary(n, rng))
        rho = w @ rho @ w.conj().T
    return validate(rho, m, n)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)]),
       st.sampled_from(["pure", "gap", "rank_cut"]), st.sampled_from(["phi", "ginibre", "pure"]),
       st.booleans())
def test_verdicts_nest_at_the_thresholds(seed, shape, family, mix, rotate):
    # CQ states with rank-deficient conditional states, with rho_A gaps from
    # 0.1 to 100 times _EPS_DEGENERATE or with every rho_jj straddling the
    # rank cut, mixed with weight t at 1e-12 to 1e-5 and maybe locally
    # rotated: nothing raises, a CQ verdict is PPT for any dim_a and SPPT for
    # dim_a = 2, SPPT implies PPT, discord is at most I, and a CQ verdict has
    # discord at most eps_opt
    s = threshold_state(seed, *shape, family, mix, rotate)
    cq, sppt, r = cq_detect(s), is_sppt(s), discord_a(s)
    assert sppt.ppt.is_ppt or not (cq.is_cq or sppt.is_sppt)
    assert sppt.is_sppt or not (cq.is_cq and s.dim_a == 2)
    assert r.discord <= r.mutual_information
    assert r.discord <= DEFAULT_OPT.eps_opt or not cq.is_cq


def test_reconstruction_bound_rejects_every_rank_deficient_extraction():
    # is_sppt reads no rank_deficient flag: above the diagonal, the blocks
    # of X^dagger X - rho are minus each row's part outside the range of X_j,
    # so the reconstruction residual is at least sqrt(2) unexplained_mass and
    # a flagged extraction fails the reconstruction bound.  Pinned on the
    # near-CQ panel, the three threshold families (rotated and not) and
    # seeded pure and rank-2 states; only the "pure" threshold family has
    # flagged extractions among the threshold states
    flagged = Counter()

    def check(source, s):
        f = F.factorize(s)
        if f.rank_deficient:
            flagged[source] += 1
            recon = f.reconstruction_residual
            assert recon >= np.sqrt(2.0) * f.unexplained_mass * (1 - 1e-9), source
            assert recon > DEFAULT_TOL.eps_residual, source
            assert not is_sppt(s).is_sppt, source

    for m, n in H.NEAR_CQ_SHAPES:
        for seed in H.NEAR_CQ_SEEDS:
            for t in H.NEAR_CQ_WEIGHTS:
                check("near_cq", H.near_cq_state(m, n, seed, t))
    for family in ("pure", "gap", "rank_cut"):
        for mix in ("phi", "ginibre", "pure"):
            for rotate in (False, True):
                for shape in [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)]:
                    for seed in range(20):
                        check(family, threshold_state(seed, *shape, family, mix, rotate))
    for m in (1, 2, 3, 4):
        for n in (n for n in (1, 2, 3, 8) if m * n <= 24):
            for seed in range(30):
                check("random_pure", random_pure(m, n, rng_seed=[seed, m, n]))
                check("rank2", rank2_state([seed, m, n], m, n))
    assert flagged == {"near_cq": 196, "pure": 88, "random_pure": 240, "rank2": 150}


@pytest.mark.parametrize("m,n", [(2, 2), (2, 4), (3, 2), (3, 3), (3, 4), (4, 2)])
def test_discord_and_cq_residual_are_local_unitary_covariant(m, n):
    # (U_A x U_B) rho (U_A x U_B)^+ has the same discord and the same least
    # off-block mass; the search and the sweeps must not see the frame
    for s in range(20):
        state = ginibre_state(s, m, n)
        w = np.kron(random_unitary(m, [s, m, n, 1]), random_unitary(n, [s, m, n, 2]))
        moved = validate(w @ state.rho @ w.conj().T, m, n)
        assert abs(discord_a(moved).discord - discord_a(state).discord) <= 1e-12
        assert abs(cq_detect(moved).off_block_residual
                   - cq_detect(state).off_block_residual) <= 1e-12


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_measured_correlation_never_exceeds_mutual_information(seed):
    s = ginibre_state(seed, 2, 2)
    r = discord_a(s)
    assert r.classical_correlation <= r.mutual_information + 1e-9
    assert r.classical_correlation >= -1e-12


# ---------------------------------------------------------------------------
# the Frame analyze prepares once and shares between discord_a and cq_detect


def _bits(report) -> list:
    """Every field of a report, arrays as (dtype, shape, bytes) and numbers
    by repr, so that equal lists mean equal bits."""
    out = []
    for value in vars(report).values():
        if isinstance(value, list):
            value = np.array(value)
        out.append((value.dtype.str, value.shape, value.tobytes())
                   if isinstance(value, np.ndarray) else repr(value))
    return out


def frame_panel() -> list[tuple[str, BipartiteState]]:
    """The fixtures, then random_cq, Ginibre and threshold_state draws from
    2x2 to 4x3, and Bell-diagonal states, whose rho_A = I/2 is degenerate."""
    panel = [(path.name, read_statefile(path)[0])
             for path in sorted(FIXTURE_DIR.glob("state_*.json"))]
    for m, n in [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3)]:
        for seed in range(2):
            panel.append((f"cq {m}x{n} {seed}", random_cq(m, n, rng_seed=[seed, m, n])))
            panel.append((f"ginibre {m}x{n} {seed}", ginibre_state([seed, m, n], m, n)))
            for family, mix in [("pure", "phi"), ("gap", "ginibre"), ("rank_cut", "pure")]:
                panel.append((f"{family} {m}x{n} {seed}",
                              threshold_state(seed, m, n, family, mix, bool(seed))))
    for p in [(0.25, 0.25, 0.25, 0.25), (0.5, 0.5, 0.0, 0.0), (0.5, 0.0, 0.5, 0.0),
              (0.4, 0.3, 0.2, 0.1), (1.0, 0.0, 0.0, 0.0)]:
        panel.append((f"bell {p}", bell_diagonal(BellDiagonalParams(*p))))
    return panel


def test_analyze_reports_what_the_standalone_calls_report():
    # analyze hands one Frame to discord_a and cq_detect; each call alone
    # prepares the same Frame, so the reports agree to the bit, and the two
    # reports share no array
    from qcorr.analysis import analyze

    panel = frame_panel()
    assert len(panel) == 20 + 6 * 2 * 5 + 5
    kinds = Counter()
    for name, s in panel:
        report = analyze(s)
        cq = cq_detect(s)
        assert _bits(report.discord) == _bits(discord_a(s)), name
        assert _bits(report.cq) == _bits(cq), name
        assert cq.basis is None or not np.shares_memory(report.cq.basis,
                                                        report.discord.optimal_basis), name
        kinds[cq.is_cq, report.discord.grid_resolution > 0] += 1
    # both branches of each call are on the panel
    assert all(kinds[key] for key in [(True, False), (False, True)]), kinds


def test_analyze_decomposes_rho_a_once(monkeypatch, linalg_calls):
    # of analyze's eighs, exactly one is of rho_A; every other eigh is one of
    # is_sppt, discord_a or cq_detect alone.  The sigma_k in the eigenbasis
    # are decomposed once by discord_a's exit, and once more by cq_detect's
    # CQ verdict when no rotation moved them, as cq_detect alone does
    from qcorr.analysis import analyze

    cases = [  # (state, CQ with no rotation)
        (random_cq(3, 2, rng_seed=1), True),
        (ginibre_state([3, 2, 3], 2, 3), False),
        (bell_diagonal(BellDiagonalParams(0.5, 0.5, 0.0, 0.0)), True),
        (bell_diagonal(BellDiagonalParams(0.5, 0.0, 0.5, 0.0)), False),  # CQ, rotated
        (bell_diagonal(BellDiagonalParams(0.4, 0.3, 0.2, 0.1)), False),
    ]
    oracles = []
    for s, _ in cases:
        rho_a = partial_trace_b(s)
        eig = np.linalg.eigh(rho_a)[1][:, ::-1]
        oracles.append((rho_a, np.einsum("ik,jk,ijab->kab", np.conj(eig), eig, block_tensor(s))))
    seen = []
    counted = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a, *args: seen.append(a) or counted(a, *args))

    def eighs(call, s) -> int:
        linalg_calls["eigh"] = 0
        call(s)
        return linalg_calls["eigh"]

    for (s, unrotated), (rho_a, sigma) in zip(cases, oracles):
        alone = eighs(is_sppt, s) + eighs(discord_a, s) + eighs(cq_detect, s)
        seen.clear()
        assert eighs(analyze, s) == alone - 1
        assert sum(a.shape == rho_a.shape and np.array_equal(a, rho_a) for a in seen) == 1
        assert sum(a.shape == sigma.shape and np.abs(a - sigma).max() <= 1e-12
                   for a in seen) == 1 + unrotated
