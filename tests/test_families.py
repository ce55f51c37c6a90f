"""State families: constructors against independent assemblies, the
closed-form X-state and Bell-diagonal predicates against the numerical
pipeline, and reproducibility of the random generators.
"""
from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers as H
from qcorr import (
    BellDiagonalParams,
    CqSpec,
    XStateParams,
    bell_diagonal,
    bell_is_sppt,
    bell_zero_discord,
    build_cq_state,
    cq_detect,
    discord_a,
    is_ppt,
    is_sppt,
    partial_trace_b,
    random_cq,
    random_cq_spec,
    random_ginibre_density,
    random_pure,
    random_sppt,
    random_unitary,
    xstate,
    xstate_is_positive,
    xstate_is_ppt,
    xstate_is_sppt,
    xstate_zero_discord,
)
from qcorr.errors import InvalidParams, InvalidSpec
from qcorr import families
from qcorr.families import induced_xstate, xstate_matrix
from qcorr.matlib import fro_norm


# ---------------------------------------------------------------------------
# classical-quantum constructor


def test_build_cq_state_block_diagonal_for_identity_basis():
    sig1 = np.diag([0.3, 0.2])
    sig2 = np.diag([0.1, 0.4])
    s = build_cq_state(CqSpec(dim_a=2, u=np.eye(2), sigmas=(sig1, sig2)))
    expected = np.zeros((4, 4), dtype=complex)
    expected[:2, :2] = sig1
    expected[2:, 2:] = sig2
    assert np.allclose(s.rho, expected, atol=1e-14)


def test_build_cq_state_matches_projector_sum():
    u = random_unitary(3, rng_seed=7)
    rng = np.random.default_rng(8)
    sigmas = []
    for w in (0.5, 0.3, 0.2):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        sig = g @ g.conj().T
        sigmas.append(w * sig / np.trace(sig).real)
    s = build_cq_state(CqSpec(dim_a=3, u=u, sigmas=tuple(sigmas)))
    direct = np.zeros((6, 6), dtype=complex)
    for k in range(3):
        f = u[:, k]
        direct += np.kron(np.outer(f, f.conj()), sigmas[k])
    assert np.allclose(s.rho, direct, atol=1e-12)


def test_build_cq_state_rejects_bad_ingredients():
    good = (np.eye(2) / 4, np.eye(2) / 4)
    with pytest.raises(InvalidSpec):
        build_cq_state(CqSpec(dim_a=2, u=np.diag([1.0, 2.0]), sigmas=good))
    with pytest.raises(InvalidSpec):
        build_cq_state(CqSpec(dim_a=2, u=np.eye(2), sigmas=(np.eye(2) / 4,)))
    with pytest.raises(InvalidSpec):
        build_cq_state(CqSpec(dim_a=2, u=np.eye(2), sigmas=(np.eye(2) / 2, np.eye(2) / 2)))
    with pytest.raises(InvalidSpec):
        build_cq_state(
            CqSpec(dim_a=2, u=np.eye(2), sigmas=(np.array([[0.25, 0.2], [0.0, 0.25]]),) * 2)
        )
    with pytest.raises(InvalidSpec):
        build_cq_state(
            CqSpec(dim_a=2, u=np.eye(2), sigmas=(np.diag([0.6, -0.1]), np.eye(2) / 4))
        )
    # dim_a = 4 is accepted and matches the explicit projector sum
    u = random_unitary(4, rng_seed=9)
    sigmas = tuple(np.diag([w, 0.25 - w]) for w in (0.05, 0.1, 0.15, 0.2))
    s = build_cq_state(CqSpec(dim_a=4, u=u, sigmas=sigmas))
    direct = sum(np.kron(np.outer(u[:, k], u[:, k].conj()), sigmas[k]) for k in range(4))
    assert np.allclose(s.rho, direct, atol=1e-12)


def test_build_cq_state_leaves_the_hermitian_part_to_validate(monkeypatch):
    # (x + x^dagger)/2 is exactly Hermitian, so validate's own hermitize is
    # the only one the assembled matrix needs; build_cq_state forms one per
    # conditional operator, for its PSD check, and none of the whole state
    calls = []
    hermitize = families.hermitize
    monkeypatch.setattr(families, "hermitize", lambda a: calls.append(a.shape) or hermitize(a))
    for dim_a, dim_b in [(1, 3), (2, 2), (3, 4), (4, 1)]:
        spec = random_cq_spec(dim_a, dim_b, rng_seed=[dim_a, dim_b])
        calls.clear()
        build_cq_state(spec)
        assert calls == [(dim_b, dim_b)] * dim_a, (dim_a, dim_b)


@pytest.mark.parametrize("spec, message", [
    (CqSpec(dim_a=0, u=np.eye(0), sigmas=()), "dim_a must be at least 1, got 0"),
    (CqSpec(dim_a=2, u=np.eye(3), sigmas=(np.eye(2) / 4,) * 2), "u must be 2x2, got (3, 3)"),
    (CqSpec(dim_a=2, u=np.eye(2), sigmas=(np.eye(2) / 4, np.eye(3) / 6)),
     "conditional operators must share shape (2, 2), got (3, 3)"),
    (CqSpec(dim_a=2, u=np.eye(2), sigmas=(np.array(0.5), np.array(0.5))),
     "conditional operators must be matrices, got shape ()"),
])
def test_build_cq_state_rejects_mismatched_shapes(spec, message):
    with pytest.raises(InvalidSpec, match=f"^{re.escape(message)}$"):
        build_cq_state(spec)


# ---------------------------------------------------------------------------
# X states


def test_xstate_matrix_pattern():
    p = XStateParams(a11=0.4, a22=0.1, b11=0.3, b22=0.2, a12=0.05 + 0.01j, b12=-0.02j)
    m = xstate_matrix(p)
    assert m[0, 0] == 0.4 and m[3, 3] == 0.1
    assert m[1, 1] == 0.3 and m[2, 2] == 0.2
    assert m[0, 3] == 0.05 + 0.01j and m[3, 0] == np.conj(0.05 + 0.01j)
    assert m[1, 2] == -0.02j and m[2, 1] == np.conj(-0.02j)
    # every other entry vanishes
    mask = np.zeros((4, 4), dtype=bool)
    mask[[0, 1, 2, 3], [0, 1, 2, 3]] = True
    mask[[0, 3, 1, 2], [3, 0, 2, 1]] = True
    assert np.all(m[~mask] == 0)


def test_xstate_params_validation():
    with pytest.raises(InvalidParams):
        XStateParams(a11=-0.1, a22=0.5, b11=0.3, b22=0.3, a12=0.0, b12=0.0)
    with pytest.raises(InvalidParams):
        XStateParams(a11=0.3, a22=0.3, b11=0.3, b22=0.3, a12=0.0, b12=0.0)


def test_xstate_rejects_indefinite_couplings():
    p = XStateParams(a11=0.1, a22=0.1, b11=0.4, b22=0.4, a12=0.2, b12=0.0)
    assert not xstate_is_positive(p)
    with pytest.raises(InvalidParams):
        xstate(p)


def test_predicate_truth_table_hand_cases():
    # (params, positive, ppt, sppt, zero_discord)
    cases = [
        # equal coupling magnitudes, no swap symmetry: SPPT yet discordant
        (XStateParams(a11=0.3, a22=0.2, b11=0.3, b22=0.2, a12=0.1, b12=0.1),
         True, True, True, False),
        # swap-symmetric with equal magnitudes: classical on A
        (XStateParams(a11=0.3, a22=0.2, b11=0.2, b22=0.3, a12=0.1, b12=0.1j),
         True, True, True, True),
        # diagonal, uneven weights: classical in the computational basis
        (XStateParams(a11=0.4, a22=0.3, b11=0.2, b22=0.1, a12=0.0, b12=0.0),
         True, True, True, True),
        # unequal magnitudes but both PPT inequalities hold
        (XStateParams(a11=0.3, a22=0.2, b11=0.3, b22=0.2, a12=0.12, b12=0.04),
         True, True, False, False),
        # single strong coupling: positive but the flipped inequality fails
        (XStateParams(a11=0.45, a22=0.45, b11=0.05, b22=0.05, a12=0.4, b12=0.0),
         True, False, False, False),
        # a single weak coupling can keep the state PPT
        (XStateParams(a11=0.25, a22=0.25, b11=0.25, b22=0.25, a12=0.0, b12=0.15),
         True, True, False, False),
        # positivity violated outright
        (XStateParams(a11=0.1, a22=0.1, b11=0.4, b22=0.4, a12=0.15, b12=0.0),
         False, False, False, False),
    ]
    for p, pos, ppt, sppt, zd in cases:
        assert xstate_is_positive(p) is pos, p
        assert xstate_is_ppt(p) is ppt, p
        assert xstate_is_sppt(p) is sppt, p
        assert xstate_zero_discord(p) is zd, p


def test_predicates_match_numerical_pipeline_on_stratified_sample():
    rng = np.random.default_rng(2026)
    kinds = ("generic", "sppt", "zero_discord", "diagonal")
    for i in range(60):
        p = H.sample_xstate_params(rng, kinds[i % len(kinds)])
        positive = xstate_is_positive(p)
        w = np.linalg.eigvalsh(xstate_matrix(p))
        assert positive == bool(w[0] >= -1e-9), p
        if not positive:
            with pytest.raises(InvalidParams):
                xstate(p)
            continue
        s = xstate(p)
        assert xstate_is_ppt(p) == is_ppt(s).is_ppt, p
        assert xstate_is_sppt(p) == is_sppt(s).is_sppt, p
        assert xstate_zero_discord(p) == cq_detect(s).is_cq, p


def test_zero_discord_states_really_have_none():
    p = XStateParams(a11=0.3, a22=0.2, b11=0.2, b22=0.3, a12=0.1, b12=0.1j)
    assert discord_a(xstate(p)).discord <= 1e-4
    q = XStateParams(a11=0.3, a22=0.2, b11=0.3, b22=0.2, a12=0.1, b12=0.1)
    assert discord_a(xstate(q)).discord > 1e-3


# ---------------------------------------------------------------------------
# Bell-diagonal states


def test_bell_projectors_are_an_orthonormal_rank_one_family():
    projs = H.bell_projectors()
    total = np.zeros((4, 4), dtype=complex)
    for i, p in enumerate(projs):
        assert np.allclose(p @ p, p, atol=1e-14)
        assert np.trace(p).real == pytest.approx(1.0, abs=1e-14)
        for q in projs[i + 1 :]:
            assert np.allclose(p @ q, 0.0, atol=1e-14)
        total += p
    assert np.allclose(total, np.eye(4), atol=1e-14)


# the grid holds the four vertices, the pure Bell states
BELL_PANEL = H.simplex_grid(10)


def test_bell_diagonal_matches_direct_mixture():
    for p in BELL_PANEL:
        s = bell_diagonal(BellDiagonalParams(*p))
        assert np.allclose(s.rho, H.bell_mixture(p), rtol=0.0, atol=1e-15), p
        # eigenvalues recover the mixing weights
        assert np.allclose(np.linalg.eigvalsh(s.rho), sorted(p), rtol=0.0, atol=1e-12), p


def test_bell_diagonal_params_validation():
    with pytest.raises(InvalidParams):
        BellDiagonalParams(0.5, 0.5, 0.5, -0.5)
    with pytest.raises(InvalidParams):
        BellDiagonalParams(0.3, 0.3, 0.3, 0.3)


NON_FINITE_PARAMS = {
    "x_diagonal": lambda bad: XStateParams(a11=bad, a22=0.2, b11=0.3, b22=0.2, a12=0.0, b12=0.0),
    "x_a12_real": lambda bad: XStateParams(a11=0.3, a22=0.2, b11=0.3, b22=0.2, a12=bad, b12=0.0),
    "x_b12_imag": lambda bad: XStateParams(a11=0.3, a22=0.2, b11=0.3, b22=0.2, a12=0.0,
                                           b12=complex(0.0, bad)),
    "bell": lambda bad: BellDiagonalParams(bad, 0.3, 0.2, 0.1),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("case", sorted(NON_FINITE_PARAMS))
def test_non_finite_family_parameters_are_invalid(case, bad):
    # NaN passes every sign and sum check, so finiteness is checked first
    with pytest.raises(InvalidParams, match="non-finite"):
        NON_FINITE_PARAMS[case](bad)


def test_induced_xstate_reassembles_the_density_matrix():
    # bell_diagonal validates the X-state matrix, which is exactly Hermitian,
    # so its rho is that matrix bit for bit
    for p in BELL_PANEL:
        m = xstate_matrix(induced_xstate(BellDiagonalParams(*p)))
        assert np.array_equal(bell_diagonal(BellDiagonalParams(*p)).rho, m), p
        assert np.allclose(m, H.bell_mixture(p), rtol=0.0, atol=1e-15), p


def test_bell_closed_forms_match_the_predicates_in_the_weights():
    for p in H.simplex_grid(50):
        params = BellDiagonalParams(*p)
        assert bell_is_sppt(params) == H.bell_sppt_closed_form(p), p
        assert bell_zero_discord(params) == H.bell_zero_discord_closed_form(p), p


def off_lattice_bell_weights(count: int, seed: int) -> list[tuple[tuple, str]]:
    """(p, family) for count seeded Bell weights, a fifth from each family:
    "diagonal" p1 = p2 and p3 = p4; "pair13" p1 = p3 and p2 = p4; "pair14"
    p1 = p4 and p2 = p3; "sppt_only" |p1 - p2| = |p3 - p4| with p1 + p2 at
    least 0.05 from 1/2 and |p1 - p2| at least 0.0025 (SPPT, discordant);
    "generic" Dirichlet(1, 1, 1, 1)."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        family = ("diagonal", "pair13", "pair14", "sppt_only", "generic")[k % 5]
        a = rng.uniform(0.0, 0.5)
        if family == "diagonal":
            p = (a, a, 0.5 - a, 0.5 - a)
        elif family == "pair13":
            p = (a, 0.5 - a, a, 0.5 - a)
        elif family == "pair14":
            p = (a, 0.5 - a, 0.5 - a, a)
        elif family == "sppt_only":
            s1 = rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 0.45) + 0.5
            s2 = 1.0 - s1
            d = rng.uniform(0.05, 1.0) * min(s1, s2)
            sign = rng.choice([-1.0, 1.0])
            p = ((s1 + d) / 2, (s1 - d) / 2, (s2 + sign * d) / 2, (s2 - sign * d) / 2)
        else:
            p = tuple(rng.dirichlet(np.ones(4)))
        out.append((tuple(float(x) for x in p), family))
    return out


def test_bell_closed_forms_and_verdicts_agree_off_the_lattice():
    # 2000 seeded weights, planted on each equality the predicates test and
    # off all of them: the X-state closed forms equal the predicates in the
    # weights, and is_ppt (PPT exactly when every p_i <= 1/2), is_sppt and
    # cq_detect agree with them
    planted = {"diagonal": (True, True), "pair13": (True, True), "pair14": (True, True),
               "sppt_only": (True, False)}
    for p, family in off_lattice_bell_weights(2000, seed=7):
        params = BellDiagonalParams(*p)
        sppt, zd = bell_is_sppt(params), bell_zero_discord(params)
        assert sppt == H.bell_sppt_closed_form(p), (family, p)
        assert zd == H.bell_zero_discord_closed_form(p), (family, p)
        assert planted.get(family, (sppt, zd)) == (sppt, zd), (family, p)
        s = bell_diagonal(params)
        assert is_ppt(s).is_ppt == (max(p) <= 0.5) == xstate_is_ppt(induced_xstate(params)), p
        assert is_sppt(s).is_sppt == sppt, (family, p)
        assert cq_detect(s).is_cq == zd, (family, p)


def test_bell_predicate_truth_table():
    cases = [
        (BellDiagonalParams(0.25, 0.25, 0.25, 0.25), True, True),
        (BellDiagonalParams(0.5, 0.0, 0.5, 0.0), True, True),
        (BellDiagonalParams(0.5, 0.0, 0.0, 0.5), True, True),
        (BellDiagonalParams(0.3, 0.3, 0.2, 0.2), True, True),  # diagonal case
        (BellDiagonalParams(0.4, 0.1, 0.4, 0.1), True, True),  # p1=p3, p2=p4 pairing
        (BellDiagonalParams(0.7, 0.1, 0.1, 0.1), False, False),
        (BellDiagonalParams(0.4, 0.2, 0.3, 0.1), True, False),  # SPPT, still discordant
        (BellDiagonalParams(0.6, 0.2, 0.1, 0.1), False, False),
    ]
    for p, sppt, zd in cases:
        assert bell_is_sppt(p) is sppt, p
        assert bell_zero_discord(p) is zd, p


def test_bell_predicates_match_pipeline_on_hand_cases():
    for p in [
        BellDiagonalParams(0.25, 0.25, 0.25, 0.25),
        BellDiagonalParams(0.5, 0.0, 0.5, 0.0),
        BellDiagonalParams(0.3, 0.3, 0.2, 0.2),
        BellDiagonalParams(0.7, 0.1, 0.1, 0.1),
        BellDiagonalParams(0.4, 0.1, 0.4, 0.1),
        BellDiagonalParams(0.4, 0.2, 0.3, 0.1),
    ]:
        s = bell_diagonal(p)
        assert bell_is_sppt(p) == is_sppt(s).is_sppt, p
        assert bell_zero_discord(p) == cq_detect(s).is_cq, p


def test_bell_equality_predicates_tolerate_float_noise():
    eps = 2e-13  # comfortably below the equality slack
    p = BellDiagonalParams(0.25 + eps, 0.25 - eps, 0.25, 0.25)
    assert bell_is_sppt(p)
    assert bell_zero_discord(p)


def test_discordant_bell_diagonal_closed_form():
    # p = (0.7, 0.1, 0.1, 0.1): measured correlation 1 - h(0.8), mutual
    # information computed from the spectrum, both in closed form
    s = bell_diagonal(BellDiagonalParams(0.7, 0.1, 0.1, 0.1))
    r = discord_a(s)
    h8 = H.entropy_bits([0.8, 0.2])
    expected_cc = 1.0 - h8
    expected_mi = 2.0 - H.entropy_bits([0.7, 0.1, 0.1, 0.1])
    assert r.classical_correlation == pytest.approx(expected_cc, abs=1e-6)
    assert r.mutual_information == pytest.approx(expected_mi, abs=1e-10)
    assert r.discord == pytest.approx(expected_mi - expected_cc, abs=1e-6)


# ---------------------------------------------------------------------------
# random generators


def test_generators_are_deterministic_per_seed():
    assert np.array_equal(random_ginibre_density(4, 5), random_ginibre_density(4, 5))
    assert np.array_equal(random_unitary(3, 5), random_unitary(3, 5))
    assert np.array_equal(random_cq(2, 3, 5).rho, random_cq(2, 3, 5).rho)
    assert np.array_equal(random_sppt(3, 5).rho, random_sppt(3, 5).rho)
    assert np.array_equal(random_pure(2, 3, 5).rho, random_pure(2, 3, 5).rho)
    assert not np.array_equal(random_ginibre_density(4, 5), random_ginibre_density(4, 6))


def test_ginibre_density_is_a_state():
    rho = random_ginibre_density(6, 0)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.min(np.linalg.eigvalsh(rho)) > -1e-12
    assert fro_norm(rho - rho.conj().T) < 1e-12


def test_random_unitary_is_unitary():
    for n in (2, 3, 5):
        u = random_unitary(n, rng_seed=n)
        assert fro_norm(u.conj().T @ u - np.eye(n)) < 1e-12


def test_random_cq_spec_builds_the_same_state():
    spec = random_cq_spec(3, 4, rng_seed=9)
    assert spec.dim_a == 3
    assert len(spec.sigmas) == 3
    s = build_cq_state(spec)
    assert np.array_equal(s.rho, random_cq(3, 4, rng_seed=9).rho)


def test_random_sppt_is_certified():
    for seed in (1, 2, 3):
        assert is_sppt(random_sppt(4, rng_seed=seed)).is_sppt


def test_random_pure_is_rank_one():
    s = random_pure(2, 4, rng_seed=12)
    w = np.sort(np.linalg.eigvalsh(s.rho))
    assert w[-1] == pytest.approx(1.0, abs=1e-10)
    assert np.allclose(w[:-1], 0.0, atol=1e-10)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_random_cq_marginal_weights_match_sigma_traces(seed):
    spec = random_cq_spec(2, 3, rng_seed=seed)
    s = build_cq_state(spec)
    traces = sorted(float(np.trace(sig).real) for sig in spec.sigmas)
    marginal = np.sort(np.linalg.eigvalsh(partial_trace_b(s)))
    assert np.allclose(marginal, traces, atol=1e-10)
